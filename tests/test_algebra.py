"""Tests for the affine/quadratic forms, model containers, and file format."""

import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from helpers import all_assignments, qubo

from reluqubo.algebra import (
    FORMAT_MAGIC,
    MAX_VARS,
    AffineExpr,
    IsingModel,
    QuadraticExpr,
    QuboModel,
    QuboParseError,
    affine_mul,
    energy,
    export_qubo,
    ising_from_qubo,
    parse_qubo,
    quad_scale_add,
    quadratic_to_model,
    qubo_from_ising,
)


def value(expr, pattern):
    """A form's value at a {0, 1} assignment: its constant plus every
    coefficient whose bits are all set, in plain float arithmetic."""
    total = expr.constant
    if isinstance(expr, AffineExpr):
        return total + sum(c for i, c in enumerate(expr.coeffs) if pattern[i])
    q = expr.matrix
    return total + sum(q[i, j] for i in range(len(q)) for j in range(i, len(q))
                       if pattern[i] and pattern[j])


def random_affine(rng, n):
    """A form over the first 0..n bits, about a fifth of its coefficients 0."""
    k = int(rng.integers(0, n + 1))
    coeffs = np.where(rng.random(k) < 0.8, rng.uniform(-3, 3, k), 0.0)
    return AffineExpr(coeffs, float(rng.uniform(-2, 2)))


def random_quadratic(rng, n):
    a = random_affine(rng, n)
    b = random_affine(rng, n)
    return quad_scale_add(affine_mul(a, b), affine_mul(b, b), float(rng.uniform(-1, 1)))


class TestAffineExpr:
    def test_add_merges_coefficients(self):
        out = AffineExpr([2.0], 1.0) + AffineExpr([3.0], -1.0)
        assert out.coeffs.tolist() == [5.0]
        assert out.constant == 0.0

    def test_add_zero_is_identity(self):
        a = AffineExpr([1.5, 0.0, -0.5], 2.0)
        out = a + AffineExpr()
        assert out.coeffs.tolist() == a.coeffs.tolist()
        assert out.constant == a.constant

    def test_add_matches_pointwise_evaluation(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            a, b = random_affine(rng, 4), random_affine(rng, 4)
            s = a + b
            for pattern in all_assignments(4):
                assert value(s, pattern) == pytest.approx(
                    value(a, pattern) + value(b, pattern), abs=1e-12)

    def test_operator_sugar(self):
        # the builders' forms: -m - z1 + z2, m - target and t - a
        a, b = AffineExpr([1.0], 2.0), AffineExpr([0.0, 3.0], 0.5)
        out = -a - b + a.scaled(2.0)
        assert out.coeffs.tolist() == [1.0, -3.0]
        assert out.constant == 1.5
        out = a - 1.0
        assert out.coeffs.tolist() == [1.0]
        assert out.constant == 1.0


class TestAffineMul:
    def test_square_of_bit_is_linear(self):
        out = affine_mul(AffineExpr([1.0]), AffineExpr([1.0]))
        assert out.matrix.tolist() == [[1.0]]
        assert out.constant == 0.0

    def test_expansion(self):
        # (b0 + 1)(b1 - 1) = b0 b1 - b0 + b1 - 1
        out = affine_mul(AffineExpr([1.0], 1.0), AffineExpr([0.0, 1.0], -1.0))
        assert out.matrix.tolist() == [[-1.0, 1.0], [0.0, 1.0]]
        assert out.constant == -1.0

    def test_matches_pointwise_product(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            a, b = random_affine(rng, 5), random_affine(rng, 5)
            p = affine_mul(a, b)
            for pattern in all_assignments(5):
                assert value(p, pattern) == pytest.approx(
                    value(a, pattern) * value(b, pattern), abs=1e-10)

    def test_pair_keys_normalized(self):
        # b1 * 2 b0 is stored once, above the diagonal
        out = affine_mul(AffineExpr([0.0, 1.0]), AffineExpr([2.0]))
        assert out.matrix.tolist() == [[0.0, 2.0], [0.0, 0.0]]

    def test_no_quadratic_times_quadratic(self):
        # the type split is the degree guard: quadratics only scale
        q = affine_mul(AffineExpr([1.0]), AffineExpr([0.0, 1.0]))
        with pytest.raises(TypeError):
            q * q  # noqa: B018


class TestQuadScaleAdd:
    def test_accumulate_coupler(self):
        src = affine_mul(AffineExpr([1.0]), AffineExpr([0.0, 1.0]))
        out = quad_scale_add(QuadraticExpr(), src, -16.0)
        assert out.matrix.tolist() == [[0.0, -16.0], [0.0, 0.0]]

    def test_scale_zero_is_identity(self):
        rng = np.random.default_rng(3)
        dst = random_quadratic(rng, 4)
        src = random_quadratic(rng, 4)
        out = quad_scale_add(dst, src, 0.0)
        assert out.matrix.tolist() == dst.matrix.tolist()
        assert out.constant == dst.constant

    def test_matches_pointwise(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            dst = random_quadratic(rng, 6)
            src = random_quadratic(rng, 6)
            scale = float(rng.uniform(-4, 4))
            out = quad_scale_add(dst, src, scale)
            for pattern in all_assignments(6):
                assert value(out, pattern) == pytest.approx(
                    value(dst, pattern) + scale * value(src, pattern), abs=1e-9)


def random_model(rng, n, density=0.6):
    linear = {i: float(rng.uniform(-2, 2)) for i in range(n) if rng.random() < density}
    quadratic = {(i, j): float(rng.uniform(-2, 2))
                 for i in range(n) for j in range(i + 1, n)
                 if rng.random() < density}
    return qubo(n, linear, quadratic, float(rng.uniform(-1, 1)))


@st.composite
def qubo_models(draw):
    """Models of 0-8 vars with any coefficients of magnitude up to 2^1018
    (subnormals and -0.0 included), so that |offset| + sum |c| over at
    most 37 values stays finite as a model requires, and default or drawn
    labels; a label is words of letters, digits, punctuation or symbols
    joined by inner whitespace that breaks no line, the labels a qubo-v1
    line can carry."""
    n = draw(st.integers(0, 8))
    coeff = st.floats(-2.0 ** 1018, 2.0 ** 1018)
    linear = draw(st.dictionaries(st.integers(0, n - 1), coeff)) if n else {}
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    quadratic = draw(st.dictionaries(st.sampled_from(pairs), coeff)) if pairs else {}
    word = st.text(st.characters(categories=("L", "N", "P", "S")), min_size=1, max_size=3)
    gap = st.text(st.characters(categories=("Zs",), include_characters="\t\x1f"),
                  min_size=1, max_size=2)
    label = st.builds(lambda first, rest: first + "".join(g + w for g, w in rest),
                      word, st.lists(st.tuples(gap, word), max_size=2))
    labels = draw(st.one_of(st.none(), st.lists(label, min_size=n, max_size=n, unique=True)))
    return qubo(n, linear, quadratic, draw(coeff), labels=labels)


@st.composite
def qubo_texts(draw):
    """Arbitrary text, or a qubo-v1 header, with comment and blank lines
    before and between its lines, followed by lines of tokens that the
    parser must accept or refuse one by one."""
    if draw(st.booleans()):
        return draw(st.text())
    index = st.sampled_from(["0", "1", "2", "-1", "\u00b9", "7" * 5000])
    value = st.sampled_from(["1.5", "-0.0", "0", "inf", "nan", "1e999", "x"])
    token = st.one_of(index, value, st.sampled_from(["label", "#"]), st.text(max_size=4))
    term = st.tuples(index, index, value).map(" ".join)
    lines = draw(st.lists(st.one_of(term, st.lists(token, max_size=4).map(" ".join)),
                          max_size=8))
    n = draw(st.sampled_from(["0", "1", "2", "3", "x", "-1"]))
    skipped = st.lists(st.sampled_from(["", "  ", "# note", "\t# label 0 x"]), max_size=2)
    header = []
    for line in (FORMAT_MAGIC, f"vars {n}", "offset 0.0"):
        header += [*draw(skipped), line]
    return "\n".join([*header, *lines])


def dense_energy(model, pattern):
    """Independent energy path: dense matrix quadratic form."""
    n = model.n_vars
    Q = np.zeros((n, n))
    for i, c in model.linear.items():
        Q[i, i] = c
    for (i, j), c in model.quadratic.items():
        Q[i, j] = c
    x = np.array(pattern, dtype=float)
    return float(x @ Q @ x) + model.offset


class TestEnergy:
    def test_all_zero_gives_offset(self):
        m = qubo(3, {0: 1.0}, {(0, 1): 2.0}, offset=4.5)
        assert energy(m, (0, 0, 0)) == 4.5

    def test_single_linear_term(self):
        m = qubo(1, {0: 3.0}, {}, offset=1.0)
        assert energy(m, (1,)) == 4.0

    def test_matches_dense_recomputation(self):
        rng = np.random.default_rng(13)
        m = random_model(rng, 10)
        for _ in range(50):
            pattern = tuple(int(b) for b in rng.integers(0, 2, size=10))
            assert energy(m, pattern) == pytest.approx(dense_energy(m, pattern), abs=1e-12)

    def test_length_mismatch_rejected(self):
        m = qubo(2, {}, {}, 0.0)
        with pytest.raises(ValueError):
            energy(m, (0,))

    def test_non_binary_rejected(self):
        m = qubo(1, {}, {}, 0.0)
        with pytest.raises(ValueError):
            energy(m, (2,))


def spins_for(pattern):
    return [2 * b - 1 for b in pattern]


class TestIsingConversion:
    def test_empty_model(self):
        q = qubo(0, {}, {}, offset=2.5)
        ising = ising_from_qubo(q)
        assert ising.J == {} and ising.h == {}
        assert ising.offset == 2.5

    def test_single_linear_term(self):
        # solving {b0=0 -> E, b0=1 -> E+q} pins h0 = -q/2 and offset' = offset + q/2
        q = qubo(1, {0: 3.0}, {}, offset=1.0)
        ising = ising_from_qubo(q)
        assert ising.h == {0: -1.5}
        assert ising.offset == 2.5

    def test_field_only_inverse(self):
        ising = IsingModel(1, ([0], [0], [1.0]))
        q = qubo_from_ising(ising)
        assert q.linear == {0: -2.0}
        assert q.offset == 1.0
        for pattern in all_assignments(1):
            assert energy(q, pattern) == ising.energy(spins_for(pattern))

    @pytest.mark.parametrize("seed", range(5))
    def test_random_roundtrip_energy_identity(self, seed):
        rng = np.random.default_rng(seed)
        q = random_model(rng, 8)
        ising = ising_from_qubo(q)
        back = qubo_from_ising(ising)
        for pattern in all_assignments(8):
            e_q = energy(q, pattern)
            e_i = ising.energy(spins_for(pattern))
            e_b = energy(back, pattern)
            scale = max(1.0, abs(e_q))
            assert abs(e_q - e_i) <= 1e-12 * scale
            assert abs(e_q - e_b) <= 1e-12 * scale

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_energy_identity_on_shuffled_models(self, data):
        # random models listed in any term order; rounding scales with sum |c|
        n = data.draw(st.integers(0, 6))
        coeff = st.floats(-1e6, 1e6)
        keys = [(i, j) for i in range(n) for j in range(i, n)]
        chosen = data.draw(st.lists(st.sampled_from(keys), unique=True)) if keys else []
        terms = data.draw(st.permutations([(i, j, data.draw(coeff)) for i, j in chosen]))
        q = QuboModel(n, tuple(zip(*terms)) or ((), (), ()), data.draw(coeff))
        ising = ising_from_qubo(q)
        back = qubo_from_ising(ising)
        tol = 1e-12 * (1.0 + abs(q.offset) + float(np.abs(q.terms[2]).sum()))
        for pattern in all_assignments(n):
            e_q = energy(q, pattern)
            assert abs(ising.energy(spins_for(pattern)) - e_q) <= tol
            assert abs(energy(back, pattern) - e_q) <= tol

    @pytest.mark.parametrize("spins, message", [
        ([1], "spin vector length 1 != n_spins 2"),
        ([1, 0], "spins must be -1 or +1, got 0"),
        ([2, 1], "spins must be -1 or +1, got 2"),
    ], ids=["length", "zero", "two"])
    def test_energy_refuses_bad_spins(self, spins, message):
        with pytest.raises(ValueError) as err:
            IsingModel(2, ([0], [1], [1.0])).energy(spins)
        assert str(err.value) == message

    def test_j_diagonal_never_stored(self):
        rng = np.random.default_rng(9)
        ising = ising_from_qubo(random_model(rng, 6))
        assert all(i < j for i, j in ising.J)


class TestQuboFormat:
    def test_empty_model_roundtrip(self):
        m = qubo(0, {}, {}, 0.0)
        text = export_qubo(m)
        assert text == "qubo-v1\nvars 0\noffset 0.0\n"
        assert export_qubo(parse_qubo(text)) == text

    def test_offset_and_coupler(self):
        m = qubo(2, {}, {(0, 1): -2.25}, offset=1.5)
        text = export_qubo(m)
        back = parse_qubo(text)
        assert back.offset == 1.5
        assert back.quadratic == {(0, 1): -2.25}
        assert export_qubo(back) == text

    def test_comments_and_blanks_ignored(self):
        text = "# model\nqubo-v1\nvars 1\n\noffset 0.5\n# terms\n0 0 1.0\n"
        m = parse_qubo(text)
        assert m.linear == {0: 1.0}

    def test_labels_roundtrip(self):
        m = qubo(2, {0: 1.0}, {}, 0.0, labels=["t[0]", "z1[0]"])
        back = parse_qubo(export_qubo(m))
        assert back.labels == ["t[0]", "z1[0]"]

    @pytest.mark.parametrize("bad", [
        "qubo-v2\nvars 0\noffset 0.0\n",
        "vars 0\noffset 0.0\n",
        "qubo-v1\nvars x\noffset 0.0\n",
        "qubo-v1\nvars 1\noffset nope\n",
        "qubo-v1\nvars 1\noffset 0.0\n1 0 1.0\n",      # i > j
        "qubo-v1\nvars 1\noffset 0.0\n0 1 1.0\n",      # out of range
        "qubo-v1\nvars 2\noffset 0.0\n0 1 1.0\n0 1 2.0\n",  # duplicate
        "qubo-v1\nvars 1\noffset 0.0\n0 0 inf\n",
        "qubo-v1\nvars 1\noffset 0.0\nlabel 5 x\n",
        "qubo-v1\nvars 2\noffset 0.0\nlabel 0 x\nlabel 1 x\n",  # dup label
    ])
    def test_malformed_rejected(self, bad):
        with pytest.raises(QuboParseError):
            parse_qubo(bad)

    @pytest.mark.parametrize("text, message", [
        ("# c\n\nqubo-v2\nvars 0\noffset 0.0\n",
         "line 3: expected 'qubo-v1' header, got 'qubo-v2'"),
        ("qubo-v1\n# c\n\nvars x\noffset 0.0\n", "line 4: expected 'vars <n>', got 'vars x'"),
        ("qubo-v1\n  \nvars 2000000\noffset 0.0\n",
         f"line 3: vars 2000000 exceeds the limit of {MAX_VARS}"),
        ("\n# c\nqubo-v1\n#\nvars 1\n\noffset\n",
         "line 7: expected 'offset <float>', got 'offset'"),
        ("qubo-v1\nvars 1\n  \n# c\noffset nope\n", "line 5: bad float 'nope'"),
        ("qubo-v1\nvars 1\n#\noffset 0.0\n\n# c\n0 0 x\n", "line 7: bad float 'x'"),
        ("# only\n  # comments\n\n", "truncated file: expected qubo-v1 header"),
        ("", "truncated file: expected qubo-v1 header"),
        ("qubo-v2\n# c\nvars 1\n", "truncated file: expected qubo-v1 header"),
    ], ids=["magic", "vars", "vars-cap", "offset", "offset-float", "first-term",
            "only-comments", "empty", "two-lines"])
    def test_header_errors_name_their_line_past_skipped_lines(self, text, message):
        with pytest.raises(QuboParseError) as info:
            parse_qubo(text)
        assert str(info.value) == message

    @pytest.mark.parametrize("n", [MAX_VARS + 1, 10 ** 12])
    def test_vars_over_cap_rejected_before_allocating(self, n):
        tracemalloc.start()
        try:
            with pytest.raises(QuboParseError, match="exceeds the limit"):
                parse_qubo(f"qubo-v1\nvars {n}\noffset 0.0\n")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20

    @pytest.mark.parametrize("text, lineno", [
        ("qubo-v1\nvars {big}\noffset 0.0\n", 2),
        ("qubo-v1\nvars 2\noffset 0.0\n{big} 1 1.0\n", 4),
        ("qubo-v1\nvars 2\noffset 0.0\n0 {big} 1.0\n", 4),
        ("qubo-v1\nvars 2\noffset 0.0\nlabel {big} x\n", 4),
        ("qubo-v1\nvars 2\noffset 0.0\n0 \u00b9 1.0\n", 4),  # isdigit(), yet not int()
    ], ids=["vars", "term-i", "term-j", "label", "superscript"])
    def test_unreadable_integer_token_names_its_line(self, text, lineno):
        # 5000 digits pass str.isdigit() but exceed int()'s default digit limit
        with pytest.raises(QuboParseError, match=rf"^line {lineno}: "):
            parse_qubo(text.format(big="7" * 5000))

    @pytest.mark.parametrize("seed", range(4))
    def test_random_model_energy_identical_after_roundtrip(self, seed):
        rng = np.random.default_rng(100 + seed)
        m = random_model(rng, 7)
        back = parse_qubo(export_qubo(m))
        for pattern in all_assignments(7):
            assert energy(back, pattern) == energy(m, pattern)

    def test_reexport_byte_identical(self):
        rng = np.random.default_rng(21)
        m = random_model(rng, 9)
        once = export_qubo(parse_qubo(export_qubo(m)))
        twice = export_qubo(parse_qubo(once))
        assert once == twice == export_qubo(m)

    @settings(max_examples=200, deadline=None)
    @given(qubo_models())
    def test_roundtrip_keeps_bytes_and_term_view(self, m):
        text = export_qubo(m)
        back = parse_qubo(text)
        assert export_qubo(back) == text
        for ours, theirs in zip(m.terms, back.terms):
            assert ours.dtype == theirs.dtype
            assert np.array_equal(ours, theirs)

    @settings(max_examples=500, deadline=None)
    @given(qubo_texts())
    def test_any_text_parses_or_raises_parse_error(self, text):
        try:
            model = parse_qubo(text)
        except QuboParseError:
            return
        assert isinstance(model, QuboModel)


class TestQuadraticToModel:
    def test_expression_to_model_and_back(self):
        expr = affine_mul(AffineExpr([1.0, 2.0], 0.5), AffineExpr([0.0, 0.0, -1.0], 1.0))
        model = quadratic_to_model(expr, ["a", "b", "c"])
        assert model.n_vars == 3
        assert model.labels == ["a", "b", "c"]
        for pattern in all_assignments(3):
            assert energy(model, pattern) == pytest.approx(value(expr, pattern), abs=1e-12)

    def test_bits_past_labels_rejected(self):
        expr = QuadraticExpr(np.diag([0.0] * 5 + [1.0]))
        with pytest.raises(ValueError, match="out of range"):
            quadratic_to_model(expr, ["lonely"])

    def test_extra_variables_allowed(self):
        expr = QuadraticExpr(np.diag([0.0, 1.0]))
        model = quadratic_to_model(expr, [f"b{i}" for i in range(4)])
        assert model.n_vars == 4
        assert model.linear == {1: 1.0}


def key_order(key):
    """Canonical term order: linear terms by index, then couplings by key."""
    i, j = key
    return (i != j, i, j)


def expected_error(kind, key, n, value):
    """The checker's message for the first bad key of each kind."""
    i, j = key
    if kind == "duplicate":
        return f"duplicate linear term for {i}" if i == j else f"duplicate quadratic key {key}"
    if kind == "non-finite":
        name = f"linear coefficient for {i}" if i == j else f"quadratic coefficient for {key}"
        return f"{name} must be finite, got {value!r}"
    if i == j:
        return f"linear index {i} out of range [0, {n})"
    return f"quadratic key {key} must satisfy 0 <= i < j < n"


@st.composite
def flawed_terms(draw, kind):
    """(n, terms in any order, the first bad key in key order, the bad value):
    a valid model's terms plus two or three bad keys of one kind."""
    n = draw(st.integers(3, 6))
    coeff = st.floats(-4, 4)
    keys = [(i, j) for i in range(n) for j in range(i, n)]
    value = draw(st.sampled_from([math.inf, -math.inf, math.nan]))
    if kind == "range":
        big = st.integers(n, n + 3)
        bad_key = st.one_of(big.map(lambda k: (k, k)), st.tuples(st.integers(0, n - 1), big))
    elif kind == "order":
        bad_key = st.tuples(st.integers(1, n - 1), st.integers(0, n - 2)).filter(
            lambda k: k[0] > k[1])
    else:
        bad_key = st.sampled_from(keys)
    bad = draw(st.lists(bad_key, min_size=2, max_size=3, unique=True))
    good = [k for k in draw(st.lists(st.sampled_from(keys), unique=True)) if k not in bad]
    terms = [(i, j, draw(coeff)) for i, j in good]
    if kind == "non-finite":
        terms += [(i, j, value) for i, j in bad]
    else:
        repeats = 2 if kind == "duplicate" else 1
        terms += [(i, j, draw(coeff)) for i, j in bad for _ in range(repeats)]
    return n, draw(st.permutations(terms)), min(bad, key=key_order), value


class TestModelValidation:
    @settings(max_examples=200, deadline=None)
    @given(qubo_models(), st.data())
    def test_term_order_and_zero_terms_leave_the_model_canonical(self, m, data):
        n = m.n_vars
        held = set(zip(m.terms[0].tolist(), m.terms[1].tolist()))
        unused = [(i, j) for i in range(n) for j in range(i, n) if (i, j) not in held]
        zeros = data.draw(st.lists(st.sampled_from(unused), unique=True)) if unused else []
        terms = list(zip(*(a.tolist() for a in m.terms)))
        terms += [(i, j, data.draw(st.sampled_from([0.0, -0.0]))) for i, j in zeros]
        terms = data.draw(st.permutations(terms))
        again = QuboModel(n, tuple(zip(*terms)) or ((), (), ()), m.offset, m.labels)
        assert again == m
        assert [(a.dtype, a.tobytes()) for a in again.terms] == \
            [(a.dtype, a.tobytes()) for a in m.terms]
        assert export_qubo(again) == export_qubo(m)
        canonical = sorted((t for t in terms if t[2] != 0.0), key=lambda t: key_order(t[:2]))
        assert list(zip(*(a.tolist() for a in again.terms))) == canonical

    @pytest.mark.parametrize("kind", ["duplicate", "order", "range", "non-finite"])
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_first_bad_key_in_key_order_is_named(self, kind, data):
        n, terms, first, value = data.draw(flawed_terms(kind))
        with pytest.raises(ValueError) as err:
            QuboModel(n, tuple(zip(*terms)))
        assert str(err.value) == expected_error(kind, first, n, value)

    @pytest.mark.parametrize("key, message", [
        ((0, 10 ** 20), "quadratic key (0, 100000000000000000000) must satisfy 0 <= i < j < n"),
        ((10 ** 20, 10 ** 20), "linear index 100000000000000000000 out of range [0, 2)"),
    ])
    def test_index_past_intp_is_a_value_error(self, key, message):
        with pytest.raises(ValueError) as err:
            QuboModel(2, ([0, key[0]], [1, key[1]], [1.0, 1.0]))
        assert str(err.value) == message

    @pytest.mark.parametrize("cls, pair", [(QuboModel, "quadratic"), (IsingModel, "J")])
    @pytest.mark.parametrize("index", [[2 ** 63], np.array([2 ** 64 - 1], np.uint64), [2 ** 64]],
                             ids=["list-2^63", "uint64-2^64-1", "list-2^64"])
    def test_index_past_intp_is_named_as_given(self, cls, pair, index):
        # a list of such ints infers uint64, whose cast to intp wraps negative
        with pytest.raises(ValueError) as err:
            cls(3, ([0], index, [1.0]))
        assert str(err.value) == f"{pair} key (0, {int(index[0])}) must satisfy 0 <= i < j < n"

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError):
            qubo(2, {}, {}, 0.0, labels=["a", "a"])

    @pytest.mark.parametrize("cls", [QuboModel, IsingModel])
    @pytest.mark.parametrize("terms, offset", [
        (([0, 0, 1], [0, 1, 1], [1e308, 1e308, 1e308]), 0.0),
        (([0], [1], [-1e308]), -1e308),
    ], ids=["terms", "offset"])
    def test_energies_past_float_range_rejected(self, cls, terms, offset):
        # every value is finite, but an energy or a partial sum of one is not;
        # an overflow warning would be an error here
        with pytest.raises(ValueError, match=r"^\|offset\| \+ sum \|coefficient\| overflows"):
            cls(2, terms, offset)
        cls(2, ([0], [1], [1e308]), 7.9e307)  # 1.79e308, just inside

    @pytest.mark.parametrize("cls", [QuboModel, IsingModel])
    @pytest.mark.parametrize("label", ["", "a\nb", "a\x0cb", "a\u2028b", " x", "x "],
                             ids=["empty", "newline", "form-feed", "line-separator",
                                  "leading-space", "trailing-space"])
    def test_label_qubo_v1_cannot_carry_rejected(self, cls, label):
        # export -> parse of such a label fails or drops its outer whitespace
        with pytest.raises(ValueError, match="^" + re.escape(f"label 1 ({label!r}) must be one")):
            cls(2, labels=["a", label])

    def test_out_of_range_keys_rejected(self):
        with pytest.raises(ValueError):
            QuboModel(2, ([5], [5], [1.0]))
        with pytest.raises(ValueError):
            QuboModel(2, ([1], [0], [1.0]))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            QuboModel(1, ([0], [0], [math.inf]))

    @pytest.mark.parametrize("args, message", [
        ((1, ([0], [0], [10 ** 400])), "linear coefficient for 0 must be finite, got inf"),
        ((2, ([0], [1], [-10 ** 400])), "quadratic coefficient for (0, 1) must be finite"),
        ((1, ((), (), ()), 10 ** 400), "offset must be finite, got inf"),
    ], ids=["linear", "quadratic", "offset"])
    def test_int_past_float_range_rejected(self, args, message):
        # float() of such an int raises OverflowError, not the finiteness message
        with pytest.raises(ValueError, match=re.escape(message)):
            QuboModel(*args)

    @pytest.mark.parametrize("cls", [QuboModel, IsingModel])
    @pytest.mark.parametrize("args, message", [
        ((3, ([1.7], [1.7], ["2.5"]), "1.5"), "term coefficient must be a number, got '2.5'"),
        ((3, ([1.7], [1.7], [2.5])), "term indices must be integers, got dtype float64"),
        ((3, ([True], [True], [1.0])), "term indices must be integers, got dtype bool"),
        ((3, (["0"], ["0"], [1.0])), "term indices must be integers, got dtype <U1"),
        ((3, ([0, None], [1, 2], [1.0, 1.0])), "term indices must be integers, got dtype object"),
        ((3, ([0, 1], [1, 2], [10 ** 400, b"1"])), "term coefficient must be a number, got b'1'"),
        ((3, ((), (), ()), "1.5"), "offset must be a number, got '1.5'"),
    ], ids=["issue-example", "float-index", "bool-index", "str-index", "none-index",
            "bytes-coefficient", "str-offset"])
    def test_non_numeric_fields_rejected(self, cls, args, message):
        # float() and np.asarray(..., float) read "2.5"; np.intp casts 1.7 and True
        with pytest.raises(ValueError) as err:
            cls(*args)
        assert str(err.value) == message

    @pytest.mark.parametrize("cls, size", [(QuboModel, "n_vars"), (IsingModel, "n_spins")])
    @pytest.mark.parametrize("args, message", [
        ((-1,), "{size} must be >= 0"),
        ((3, ([0, 1], [1], [1.0, 2.0])), "terms must be three 1-D arrays of one length"),
        ((3, ([[0]], [[1]], [[1.0]])), "terms must be three 1-D arrays of one length"),
        ((3, ((), (), ()), 0.0, ["a", "b"]), "expected 3 labels, got 2"),
    ], ids=["negative-size", "unequal-lengths", "2-D", "label-count"])
    def test_malformed_fields_rejected(self, cls, size, args, message):
        with pytest.raises(ValueError) as err:
            cls(*args)
        assert str(err.value) == message.format(size=size)

    @pytest.mark.parametrize("cls", [QuboModel, IsingModel])
    @pytest.mark.parametrize("terms", [([True, 1], [1, 2], [1.0, 1.0]),
                                       ((0, 1), (1, np.True_), (1.0, 1.0))])
    def test_bool_among_int_indices_rejected(self, cls, terms):
        # the list infers an integer dtype, which would read True as 1
        with pytest.raises(ValueError, match="^term indices must be integers, got dtype bool$"):
            cls(3, terms)

    @pytest.mark.parametrize("cls", [QuboModel, IsingModel])
    def test_empty_and_any_integer_index_arrays_accepted(self, cls):
        assert cls(3, ((), (), ())).terms[0].dtype == np.intp
        model = cls(3, (np.array([0, 1], np.uint8), np.array([1, 1], object), [2.0, 10 ** 20]))
        assert [a.tolist() for a in model.terms] == [[1, 0], [1, 1], [1e20, 2.0]]

    def test_zero_terms_pruned(self):
        m = QuboModel(2, ([0, 0], [0, 1], [0.0, 0.0]))
        assert m.linear == {} and m.quadratic == {}
