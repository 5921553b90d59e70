"""Tests for the affine/quadratic forms, model containers, and file format."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reluqubo.algebra import (
    FORMAT_MAGIC,
    MAX_VARS,
    AffineExpr,
    IsingModel,
    QuadraticExpr,
    QuboModel,
    QuboParseError,
    affine_mul,
    all_assignments,
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
        out = 2.0 * AffineExpr([1.0]) + 1.0 - AffineExpr([0.0, 1.0])
        assert out.coeffs.tolist() == [2.0, -1.0]
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
    return QuboModel(n, linear, quadratic, float(rng.uniform(-1, 1)))


@st.composite
def qubo_models(draw):
    """Models of 0-8 vars with any finite coefficients (subnormals and
    -0.0 included) and default or drawn labels; a label is one or more
    letters, digits, punctuation or symbols, so it has no whitespace."""
    n = draw(st.integers(0, 8))
    coeff = st.floats(allow_nan=False, allow_infinity=False)
    linear = draw(st.dictionaries(st.integers(0, n - 1), coeff)) if n else {}
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    quadratic = draw(st.dictionaries(st.sampled_from(pairs), coeff)) if pairs else {}
    label = st.text(st.characters(categories=("L", "N", "P", "S")), min_size=1, max_size=5)
    labels = draw(st.one_of(st.none(), st.lists(label, min_size=n, max_size=n, unique=True)))
    return QuboModel(n, linear, quadratic, draw(coeff), labels=labels)


@st.composite
def qubo_texts(draw):
    """Arbitrary text, or a qubo-v1 header followed by lines of tokens
    that the parser must accept or refuse one by one."""
    if draw(st.booleans()):
        return draw(st.text())
    index = st.sampled_from(["0", "1", "2", "-1", "\u00b9", "7" * 5000])
    value = st.sampled_from(["1.5", "-0.0", "0", "inf", "nan", "1e999", "x"])
    token = st.one_of(index, value, st.sampled_from(["label", "#"]), st.text(max_size=4))
    term = st.tuples(index, index, value).map(" ".join)
    lines = draw(st.lists(st.one_of(term, st.lists(token, max_size=4).map(" ".join)),
                          max_size=8))
    n = draw(st.sampled_from(["0", "1", "2", "3", "x", "-1"]))
    return "\n".join([FORMAT_MAGIC, f"vars {n}", "offset 0.0", *lines])


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
        m = QuboModel(3, {0: 1.0}, {(0, 1): 2.0}, offset=4.5)
        assert energy(m, (0, 0, 0)) == 4.5

    def test_single_linear_term(self):
        m = QuboModel(1, {0: 3.0}, {}, offset=1.0)
        assert energy(m, (1,)) == 4.0

    def test_matches_dense_recomputation(self):
        rng = np.random.default_rng(13)
        m = random_model(rng, 10)
        for _ in range(50):
            pattern = tuple(int(b) for b in rng.integers(0, 2, size=10))
            assert energy(m, pattern) == pytest.approx(dense_energy(m, pattern), abs=1e-12)

    def test_length_mismatch_rejected(self):
        m = QuboModel(2, {}, {}, 0.0)
        with pytest.raises(ValueError):
            energy(m, (0,))

    def test_non_binary_rejected(self):
        m = QuboModel(1, {}, {}, 0.0)
        with pytest.raises(ValueError):
            energy(m, (2,))


def spins_for(pattern):
    return [2 * b - 1 for b in pattern]


class TestIsingConversion:
    def test_empty_model(self):
        q = QuboModel(0, {}, {}, offset=2.5)
        ising = ising_from_qubo(q)
        assert ising.J == {} and ising.h == {}
        assert ising.offset == 2.5

    def test_single_linear_term(self):
        # solving {b0=0 -> E, b0=1 -> E+q} pins h0 = -q/2 and offset' = offset + q/2
        q = QuboModel(1, {0: 3.0}, {}, offset=1.0)
        ising = ising_from_qubo(q)
        assert ising.h == {0: -1.5}
        assert ising.offset == 2.5

    def test_field_only_inverse(self):
        ising = IsingModel(1, {}, {0: 1.0}, offset=0.0)
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

    def test_j_diagonal_never_stored(self):
        rng = np.random.default_rng(9)
        ising = ising_from_qubo(random_model(rng, 6))
        assert all(i < j for i, j in ising.J)


class TestQuboFormat:
    def test_empty_model_roundtrip(self):
        m = QuboModel(0, {}, {}, 0.0)
        text = export_qubo(m)
        assert text == "qubo-v1\nvars 0\noffset 0.0\n"
        assert export_qubo(parse_qubo(text)) == text

    def test_offset_and_coupler(self):
        m = QuboModel(2, {}, {(0, 1): -2.25}, offset=1.5)
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
        m = QuboModel(2, {0: 1.0}, {}, 0.0, labels=["t[0]", "z1[0]"])
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


class TestModelValidation:
    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError):
            QuboModel(2, {}, {}, 0.0, labels=["a", "a"])

    def test_out_of_range_keys_rejected(self):
        with pytest.raises(ValueError):
            QuboModel(2, {5: 1.0}, {}, 0.0)
        with pytest.raises(ValueError):
            QuboModel(2, {}, {(1, 0): 1.0}, 0.0)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            QuboModel(1, {0: math.inf}, {}, 0.0)

    def test_zero_terms_pruned(self):
        m = QuboModel(2, {0: 0.0}, {(0, 1): 0.0}, 0.0)
        assert m.linear == {} and m.quadratic == {}
