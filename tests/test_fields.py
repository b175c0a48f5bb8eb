"""Exact term-algebra invariants for trig-polynomial fields."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from branelab.fields import (COS, PRUNE_EPS, SIN, ScalarField, TermBank,
                             VectorField, bracket, circle_average, combine,
                             field_mul, partial, q_antiderivative, reindex,
                             substitute, translate)
from branelab.forms import DifferentialForm, Distribution
from branelab.grammar import parse_field
from branelab.model import CIRCLE, LINE, model_from_names
from conftest import naive_eval

T3 = model_from_names([("a", CIRCLE), ("b", CIRCLE), ("c", CIRCLE)])
MIX = model_from_names([("x", CIRCLE), ("u", LINE), ("v", LINE)])


def small_fields(model, max_terms=3):
    """Strategy producing modest trig polynomials on the given model."""
    circ = set(model.circle_indices)

    def term(draw_powers, draw_freqs, phase, coeff):
        return ((draw_powers, draw_freqs, phase), coeff)

    power = st.integers(min_value=0, max_value=2)
    freq = st.integers(min_value=-2, max_value=2)
    coeff = st.floats(min_value=-4, max_value=4, allow_nan=False,
                      allow_infinity=False).filter(lambda c: abs(c) > 1e-6)

    @st.composite
    def one_term(draw):
        powers = tuple(
            draw(power) if i not in circ else 0 for i in range(model.dim))
        freqs = tuple(
            draw(freq) if i in circ else 0 for i in range(model.dim))
        return ((powers, freqs, draw(st.sampled_from([COS, SIN]))),
                draw(coeff))

    return st.lists(one_term(), min_size=1, max_size=max_terms).map(
        lambda items: ScalarField.build(model, dict(items)))


def test_sign_normalization_cos():
    f = ScalarField.cosine(T3, (-1, 2, 0))
    g = ScalarField.cosine(T3, (1, -2, 0))
    assert f == g


def test_sign_normalization_sin_flips_coefficient():
    f = ScalarField.sine(T3, (-1, 0, 0), 2.0)
    g = ScalarField.sine(T3, (1, 0, 0), -2.0)
    assert f == g


def test_sin_of_zero_frequency_is_dropped():
    f = ScalarField.sine(T3, (0, 0, 0), 5.0)
    assert f.is_zero()
    assert f.terms == ()


def test_near_zero_coefficients_pruned():
    f = ScalarField.cosine(T3, (1, 0, 0), 1e-15)
    assert f.terms == ()


def test_trig_on_line_coordinate_rejected():
    with pytest.raises(ValueError):
        ScalarField.cosine(MIX, (0, 1, 0))


def test_constant_value_and_guard():
    c = ScalarField.constant(T3, 2.5)
    assert c.constant_value() == 2.5
    assert ScalarField.zero(T3).constant_value() == 0.0
    f = ScalarField.cosine(T3, (1, 0, 0))
    assert f.constant_value() is None
    # no tolerance: any term that survives pruning makes the field vary
    assert (c + f * (2 * PRUNE_EPS)).constant_value() is None
    assert (c + f * (PRUNE_EPS / 2)).constant_value() == 2.5


def test_has_circle_powers_flag():
    assert not ScalarField.coordinate(MIX, 1).has_circle_powers
    assert ScalarField.coordinate(MIX, 0).has_circle_powers


def test_eval_matches_naive(rng):
    """Scalar and vector fields, Gram batches and frame matrices, with and
    without terms, on batches of 40, 1 and 0 points, all against the
    per-term reference."""
    f = (ScalarField.cosine(T3, (1, 0, 0), 0.7)
         + ScalarField.sine(T3, (1, -1, 2), -1.3)
         + ScalarField.constant(T3, 0.25))
    u, v = ScalarField.coordinate(MIX, 1), ScalarField.coordinate(MIX, 2)
    g = (u * u * u * ScalarField.cosine(MIX, (1, 0, 0), 1.1)
         + v * u * ScalarField.sine(MIX, (2, 0, 0), -0.4) - 0.5 * v)
    for model, h in ((T3, f), (MIX, g)):
        zero = ScalarField.zero(model)
        vec = VectorField(model, (h, zero, partial(h, 0) * h))
        form = DifferentialForm.build(model, 2, {(0, 1): h, (1, 2): -2.0 * h})
        frames = (Distribution(model, (vec, VectorField.basis(model, 2))),
                  Distribution(model, ()))
        for m in (40, 1, 0):
            pts = rng.uniform(0, 1, size=(m, 3))
            for s in (h, zero):
                got = s.eval_batch(pts)
                assert got.shape == (m,)
                assert np.allclose(got, naive_eval(s, pts), atol=1e-12)
            ref = np.stack([naive_eval(c, pts) for c in vec.components], 1)
            assert np.allclose(vec.eval_batch(pts), ref, atol=1e-12)
            for B in (form, DifferentialForm.zero(model, 2)):
                ref = np.zeros((m, 3, 3))
                for (i, j), c in B.coeffs:
                    ref[:, i, j] = naive_eval(c, pts)
                    ref[:, j, i] = -ref[:, i, j]
                assert np.allclose(B.gram_batch(pts), ref, atol=1e-12)
            for E in frames:
                ref = np.zeros((m, 3, E.rank))
                for r, w in enumerate(E.frame):
                    for i, c in enumerate(w.components):
                        ref[:, i, r] = naive_eval(c, pts)
                assert np.allclose(E.matrices(pts), ref, atol=1e-12)


# frequencies that repeat across phases and monomials; (-1, 0, 0, 0) is
# (1, 0, 0, 0) after sign normalization
BANK = model_from_names([("x", CIRCLE), ("y", CIRCLE), ("u", LINE),
                         ("v", LINE)])
BANK_FREQS = [(0, 0, 0, 0), (1, 0, 0, 0), (-1, 0, 0, 0), (1, -2, 0, 0),
              (0, 3, 0, 0)]
BANK_COEFF = st.floats(-3.0, 3.0, allow_nan=False).filter(
    lambda c: abs(c) > 1e-3)


@st.composite
def bank_field(draw):
    kind = draw(st.sampled_from(("zero", "constant", "terms")))
    if kind == "zero":
        return ScalarField.zero(BANK)
    if kind == "constant":
        return ScalarField.constant(BANK, draw(BANK_COEFF))
    # powers 0-3 on every coordinate, the circle coordinates included
    terms = draw(st.lists(st.tuples(
        st.tuples(*[st.integers(0, 3)] * 4), st.sampled_from(BANK_FREQS),
        st.sampled_from((COS, SIN)), BANK_COEFF), min_size=1, max_size=8))
    return ScalarField.build(BANK, {(p, k, ph): c for p, k, ph, c in terms})


@settings(max_examples=80, deadline=None)
@given(st.lists(bank_field(), min_size=1, max_size=5),
       st.integers(0, 20), st.integers(0, 2**32 - 1))
def test_term_bank_matches_naive_and_takes_each_wave_once(fs, m, seed):
    pts = np.random.default_rng(seed).uniform(-1.5, 1.5, size=(m, 4))
    bank = TermBank(fs, BANK.dim)
    rows = []

    def counted(trig):
        def call(x, *args, **kwargs):
            rows.append(len(x))
            return trig(x, *args, **kwargs)
        return call

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np, "cos", counted(np.cos))
        mp.setattr(np, "sin", counted(np.sin))
        got = bank(pts)
    waves = {(k, ph) for f in fs for (_, k, ph), _ in f.terms if any(k)}
    assert sum(rows) == len(waves)
    assert got.shape == (m, len(fs))
    for col, f in enumerate(fs):
        # the terms' sizes bound the rounding of a sum that cancels
        scale = max(1.0, sum(abs(c) * 1.5 ** sum(p) for (p, _, _), c
                             in f.terms))
        np.testing.assert_allclose(got[:, col], naive_eval(f, pts),
                                   rtol=1e-12, atol=1e-12 * scale)


def test_eval_single_point_matches_batch():
    f = ScalarField.sine(T3, (2, 1, 0), 1.5)
    p = np.array([0.13, 0.47, 0.81])
    assert f.eval(p) == pytest.approx(f.eval_batch(p[None, :])[0], abs=0)


@settings(max_examples=40, deadline=None)
@given(small_fields(MIX), small_fields(MIX))
def test_product_is_pointwise_multiplication(f, g):
    pts = np.random.default_rng(7).uniform(-1, 1, size=(25, 3))
    pts[:, 0] %= 1.0
    lhs = field_mul(f, g).eval_batch(pts)
    rhs = f.eval_batch(pts) * g.eval_batch(pts)
    scale = 1.0 + np.abs(rhs).max()
    assert np.abs(lhs - rhs).max() <= 1e-10 * scale


@settings(max_examples=40, deadline=None)
@given(small_fields(MIX))
def test_partials_commute_exactly(f):
    for i in range(3):
        for j in range(i):
            assert partial(partial(f, i), j) == partial(partial(f, j), i)


def _prunes_a_partial_sum(pairs) -> bool:
    """Whether the chained sum acc + f * c prunes a scaled term or a
    partial sum on the way."""
    acc = {}
    for f, c in pairs:
        for key, v in f.terms:
            acc[key] = acc.get(key, 0.0) + v * c
            if abs(v * c) <= PRUNE_EPS or abs(acc[key]) <= PRUNE_EPS:
                return True
    return False


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(small_fields(MIX),
                          st.floats(min_value=-3, max_value=3,
                                    allow_nan=False)),
                min_size=1, max_size=5))
def test_combine_is_the_sum_added_left_to_right(pairs):
    pts = np.random.default_rng(11).uniform(-1, 1, size=(25, 3))
    pts[:, 0] %= 1.0
    got = naive_eval(combine(MIX, pairs), pts)
    ref = sum(c * naive_eval(f, pts) for f, c in pairs)
    scale = 1.0 + sum(abs(c) * np.abs(naive_eval(f, pts)).max()
                      for f, c in pairs)
    assert np.abs(got - ref).max() <= 1e-10 * scale
    if not _prunes_a_partial_sum(pairs):
        chained = ScalarField.zero(MIX)
        for f, c in pairs:
            chained = chained + f * c
        assert combine(MIX, pairs).terms == chained.terms


def test_combine_prunes_once_not_after_each_partial_sum():
    y = ScalarField.coordinate(MIX, 1)
    pairs = [(y, 1.0), (y, -0.9999999999995), (y, 0.9999999999995)]
    # 1 - 0.9999999999995 is 5e-13, below the pruning threshold: pruning
    # that partial sum would leave 0.9999999999995*y instead of y
    assert combine(MIX, pairs) == y
    chained = y - y * 0.9999999999995 + y * 0.9999999999995
    assert chained == y * 0.9999999999995


def test_partial_matches_finite_difference(rng):
    f = ScalarField.cosine(T3, (1, 2, 0), 0.8) + ScalarField.sine(T3, (0, 1, 1))
    pts = rng.uniform(0, 1, size=(10, 3))
    h = 1e-6
    for i in range(3):
        shifted_p = pts.copy(); shifted_p[:, i] += h
        shifted_m = pts.copy(); shifted_m[:, i] -= h
        fd = (f.eval_batch(shifted_p) - f.eval_batch(shifted_m)) / (2 * h)
        assert np.abs(partial(f, i).eval_batch(pts) - fd).max() < 1e-6


def test_circle_average_matches_quadrature():
    f = (ScalarField.cosine(T3, (2, 0, 0)) * ScalarField.cosine(T3, (2, 0, 0))
         + ScalarField.sine(T3, (0, 1, 0), 3.0))
    avg = circle_average(f, 0)
    qs = np.linspace(0, 1, 4096, endpoint=False)
    pts = np.zeros((4096, 3))
    pts[:, 0] = qs
    pts[:, 1] = 0.37
    pts[:, 2] = 0.52
    probe = np.array([[0.0, 0.37, 0.52]])
    assert avg.eval_batch(probe)[0] == pytest.approx(
        f.eval_batch(pts).mean(), abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(small_fields(T3))
def test_average_of_partial_vanishes(f):
    for i in range(3):
        assert circle_average(partial(f, i), i).is_zero(1e-12)


@settings(max_examples=40, deadline=None)
@given(small_fields(T3))
def test_antiderivative_inverts_partial_on_fluctuation(f):
    i = 1
    fluct = f - circle_average(f, i)
    anti = q_antiderivative(fluct, i)
    assert (partial(anti, i) - fluct).is_zero(1e-9)


def test_antiderivative_of_nonzero_average_has_circle_power():
    f = ScalarField.constant(T3, 1.0)
    anti = q_antiderivative(f, 0)
    assert anti.has_circle_powers


def test_substitute_matches_eval(rng):
    f = ScalarField.cosine(MIX, (2, 0, 0)) * ScalarField.coordinate(MIX, 1)
    g = substitute(f, 0, 0.3)
    pts = rng.uniform(-1, 1, size=(8, 3))
    fixed = pts.copy()
    fixed[:, 0] = 0.3
    assert np.allclose(g.eval_batch(pts), f.eval_batch(fixed), atol=1e-12)


# circles x, y and lines u, v
XYUV = model_from_names([("x", CIRCLE), ("y", CIRCLE), ("u", LINE),
                         ("v", LINE)])


def test_translate_matches_eval_at_shifted_points(rng):
    """Circle phases (shifts beyond one period too), line powers up to 3
    and terms mixing both."""
    f = ScalarField.build(XYUV, {
        ((0, 0, 3, 0), (0, 0, 0, 0), COS): 0.7,
        ((0, 0, 0, 2), (1, -2, 0, 0), COS): -1.3,
        ((0, 0, 1, 1), (3, 0, 0, 0), SIN): 0.4,
        ((0, 0, 2, 3), (0, 1, 0, 0), SIN): 0.25,
        ((0, 0, 0, 0), (2, 1, 0, 0), COS): 2.0,
        ((0, 0, 0, 0), (0, 0, 0, 0), COS): -0.5})
    pts = rng.uniform(-1, 1, size=(16, 4))
    pts[:, :2] %= 1.0
    for shift in ([0.3, 0.0, 0.0, 0.0], [2.75, -3.4, 0.0, 0.0],
                  [0.0, 0.0, -1.2, 0.6], rng.uniform(-3, 3, size=4)):
        moved = translate(f, shift)
        want = naive_eval(f, pts + np.asarray(shift))
        assert np.allclose(moved.eval_batch(pts), want, rtol=1e-12,
                           atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(small_fields(MIX), st.lists(st.floats(-3, 3), min_size=3,
                                   max_size=3))
def test_translate_is_precomposition_with_the_shift(f, shift):
    pts = np.random.default_rng(1).uniform(-1, 1, size=(6, 3))
    assert np.allclose(translate(f, shift).eval_batch(pts),
                       naive_eval(f, pts + np.asarray(shift)),
                       rtol=1e-12, atol=1e-11)


def test_translate_by_zero_returns_the_field():
    f = ScalarField.cosine(MIX, (2, 0, 0)) * ScalarField.coordinate(MIX, 1)
    assert translate(f, (0.0, 0.0, 0.0)) is f


def test_reindex_precomposes_with_inclusion(rng):
    small = model_from_names([("x", CIRCLE), ("u", LINE)])
    f = ScalarField.cosine(small, (3, 0)) * ScalarField.coordinate(small, 1)
    g = reindex(f, MIX, [0, 2])
    pts = rng.uniform(-1, 1, size=(9, 3))
    pts[:, 0] %= 1.0
    assert np.allclose(g.eval_batch(pts),
                       f.eval_batch(pts[:, [0, 2]]), atol=1e-12)


T4Q = model_from_names([(n, CIRCLE) for n in ("x1", "y1", "x2", "y2", "q")])
T4 = model_from_names([(n, CIRCLE) for n in ("x1", "y1", "x2", "y2")])


def test_reindex_refuses_a_mapping_that_skips_a_coordinate():
    # a short mapping used to drop q silently: 1.0 + 0.5*sin(2*pi*x1)
    f = parse_field("cos(2*pi*q) + 0.5*sin(2*pi*(x1 + q))", T4Q)
    with pytest.raises(ValueError, match="maps 4 of the 5"):
        reindex(f, T4, [0, 1, 2, 3])


def test_reindex_drops_a_coordinate_mapped_to_none():
    f = parse_field("cos(2*pi*(x1 - y2)) + 0.5", T4Q)
    assert reindex(f, T4, [0, 1, 2, 3, None]) == parse_field(
        "cos(2*pi*(x1 - y2)) + 0.5", T4)
    for text in ("sin(2*pi*q)", "2.0 + cos(2*pi*(x1 + q))"):
        with pytest.raises(ValueError, match="depends on the dropped"):
            reindex(parse_field(text, T4Q), T4, [0, 1, 2, 3, None])


def test_bracket_of_coordinate_fields_vanishes():
    for i in range(3):
        for j in range(3):
            b = bracket(VectorField.basis(T3, i), VectorField.basis(T3, j))
            assert all(comp.is_zero() for comp in b.components)


def test_bracket_antisymmetry():
    f = ScalarField.cosine(T3, (1, 1, 0))
    x = VectorField.basis(T3, 0) * f
    y = VectorField.basis(T3, 1)
    xy = bracket(x, y)
    yx = bracket(y, x)
    assert all((a + b).is_zero(1e-12)
               for a, b in zip(xy.components, yx.components))


def test_bracket_matches_flow_commutator_formula(rng):
    """[x, y]^k = x(y^k) - y(x^k), checked against finite differences."""
    f = ScalarField.sine(MIX, (1, 0, 0))
    x = VectorField.basis(MIX, 1) * f
    y = VectorField.basis(MIX, 0)
    b = bracket(x, y)
    pts = rng.uniform(0.1, 0.9, size=(6, 3))
    h = 1e-6
    for p in pts:
        jx = np.zeros((3, 3))
        jy = np.zeros((3, 3))
        for i in range(3):
            e = np.zeros(3); e[i] = h
            jx[:, i] = (x.eval(p + e) - x.eval(p - e)) / (2 * h)
            jy[:, i] = (y.eval(p + e) - y.eval(p - e)) / (2 * h)
        fd = jy @ x.eval(p) - jx @ y.eval(p)
        assert np.abs(b.eval(p) - fd).max() < 1e-6


def test_vector_constant_roundtrip():
    v = VectorField.from_components(T3, [1.0, -2.0, 0.5])
    assert np.allclose(v.constant_vector(), [1.0, -2.0, 0.5])
    assert np.array_equal(Distribution(T3, (v,)).constant_matrix(),
                          [[1.0], [-2.0], [0.5]])
    w = v + VectorField.basis(T3, 2) * ScalarField.sine(T3, (0, 0, 1), 1e-11)
    assert w.constant_vector() is None
    assert Distribution(T3, (v, w)).constant_matrix() is None


def test_field_arithmetic_on_mismatched_models_rejected():
    f = ScalarField.constant(T3, 1.0)
    g = ScalarField.constant(MIX, 1.0)
    with pytest.raises(ValueError):
        f + g
