/* Single-bit-flip Metropolis annealing walk, bit for bit the walk that
   CPython's random module would drive.

   The generator is CPython's MT19937 (Modules/_randommodule.c): seeding by
   init_by_array from the seed's 32-bit words, random()'s 53-bit draw and
   randrange(2)'s loop of 2-bit draws.  Its state is 624 words plus the
   read position, held by the caller.  The local fields are summed over
   CSR neighbour lists, each row's couplings in row order and the linear
   term last.  The walk visits the variables in index order at
   beta0 * ratio**s in sweep s, updates the fields over the same lists
   and copies the bits whenever the energy drops below its best.  A call
   writes only to the state it is given (mt, b, f, best) and only reads
   the CSR lists, so walks on several threads at once can share the lists
   and nothing else.  Build without -ffast-math or contraction
   (-ffp-contract=off), so every product and sum rounds as in Python. */

#include <math.h>
#include <stdint.h>
#include <string.h>

#define N 624
#define M 397

static uint32_t genrand(uint32_t *mt)
{
    uint32_t y;
    int k;

    if (mt[N] >= N) {
        for (k = 0; k < N; k++) {
            y = (mt[k] & 0x80000000U) | (mt[(k + 1) % N] & 0x7fffffffU);
            mt[k] = mt[(k + M) % N] ^ (y >> 1) ^ ((y & 1U) ? 0x9908b0dfU : 0U);
        }
        mt[N] = 0;
    }
    y = mt[mt[N]++];
    y ^= y >> 11;
    y ^= (y << 7) & 0x9d2c5680U;
    y ^= (y << 15) & 0xefc60000U;
    return y ^ (y >> 18);
}

static double random53(uint32_t *mt)
{
    uint32_t a = genrand(mt) >> 5, b = genrand(mt) >> 6;
    return (a * 67108864.0 + b) * (1.0 / 9007199254740992.0);
}

/* mt: N + 1 words.  key: the seed as an unsigned integer, nkey little-endian
   32-bit words (at least one).  Leaves random.Random(seed)'s state in mt,
   then draws n bits by randrange(2). */
void seed_bits(uint32_t *mt, const unsigned char *key, int64_t nkey,
               uint8_t *b, int64_t n)
{
    uint32_t i = 1, word;
    int64_t j = 0, k;

    mt[0] = 19650218U;
    for (k = 1; k < N; k++)
        mt[k] = 1812433253U * (mt[k - 1] ^ (mt[k - 1] >> 30)) + (uint32_t)k;
    for (k = N > nkey ? N : nkey; k; k--) {
        word = (uint32_t)key[4 * j] | (uint32_t)key[4 * j + 1] << 8
               | (uint32_t)key[4 * j + 2] << 16 | (uint32_t)key[4 * j + 3] << 24;
        mt[i] = (mt[i] ^ ((mt[i - 1] ^ (mt[i - 1] >> 30)) * 1664525U)) + word + (uint32_t)j;
        i++;
        j++;
        if (i >= N) {
            mt[0] = mt[N - 1];
            i = 1;
        }
        if (j >= nkey)
            j = 0;
    }
    for (k = N - 1; k; k--) {
        mt[i] = (mt[i] ^ ((mt[i - 1] ^ (mt[i - 1] >> 30)) * 1566083941U)) - i;
        i++;
        if (i >= N) {
            mt[0] = mt[N - 1];
            i = 1;
        }
    }
    mt[0] = 0x80000000U;
    mt[N] = N;
    for (k = 0; k < n; k++) {
        do
            word = genrand(mt) >> 30;
        while (word >= 2);
        b[k] = (uint8_t)word;
    }
}

/* Local field of every bit i of b: its couplings to set bits, summed in the
   order of row i (nbr and coef[start[i]:start[i+1]]), then lin[i]. */
void fields(int64_t n, const int64_t *start, const int32_t *nbr, const double *coef,
            const double *lin, const uint8_t *b, double *f)
{
    double s;
    int64_t i, k;

    for (i = 0; i < n; i++) {
        s = 0.0;
        for (k = start[i]; k < start[i + 1]; k++)
            if (b[nbr[k]])
                s += coef[k];
        f[i] = s + lin[i];
    }
}

/* Walk n bits b with local fields f and energy e for sweeps sweeps; the
   neighbours of i are nbr[start[i]:start[i+1]] with couplings coef.
   Leaves the last state in b and f and the first lowest-energy one in best. */
void walk(uint32_t *mt, int64_t n, int64_t sweeps, double beta0, double ratio,
          const int64_t *start, const int32_t *nbr, const double *coef,
          uint8_t *b, double *f, double e, uint8_t *best)
{
    double best_e = e, beta, de, bde;
    int64_t s, i, k;

    memcpy(best, b, n);
    for (s = 0; s < sweeps && n > 0; s++) {
        beta = beta0 * pow(ratio, (double)s);
        for (i = 0; i < n; i++) {
            de = b[i] ? -f[i] : f[i];
            if (de > 0.0) {
                bde = beta * de;
                /* acceptance below ~1e-18: reject without drawing */
                if (bde > 40.0 || random53(mt) >= exp(-bde))
                    continue;
            }
            e += de;
            if ((b[i] ^= 1))
                for (k = start[i]; k < start[i + 1]; k++)
                    f[nbr[k]] += coef[k];
            else
                for (k = start[i]; k < start[i + 1]; k++)
                    f[nbr[k]] -= coef[k];
            if (e < best_e) {
                best_e = e;
                memcpy(best, b, n);
            }
        }
    }
}
