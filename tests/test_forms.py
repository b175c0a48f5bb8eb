"""Exterior calculus invariants on the term-algebra forms."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from branelab.fields import ScalarField, VectorField
from branelab.forms import (DegenerateFormError, DifferentialForm,
                            apply_form, d_scalar, endo_from_pair,
                            ext_d, frame_residual, horizontal_d, interior,
                            is_type_11,
                            kernel_basis, lie_derivative, sharp, wedge)
from branelab.model import CIRCLE, LINE, model_from_names

T4 = model_from_names([("x1", CIRCLE), ("y1", CIRCLE),
                       ("x2", CIRCLE), ("y2", CIRCLE)])
R4 = model_from_names([("x1", LINE), ("y1", LINE), ("x2", LINE), ("y2", LINE)])

# split pair: omega pairs (x1,y2) and (y1,x2); F pairs (x1,x2) and (y1,y2)
OMEGA = DifferentialForm.build(T4, 2, {(0, 3): 1.0, (1, 2): 1.0})
F_SPLIT = DifferentialForm.build(T4, 2, {(0, 2): 1.0, (1, 3): -1.0})


def trig(freqs, coeff=1.0, phase="cos"):
    mk = ScalarField.cosine if phase == "cos" else ScalarField.sine
    return mk(T4, freqs, coeff)


def random_form(rng, degree, n_terms=3):
    raw = {}
    for _ in range(n_terms):
        idx = tuple(sorted(rng.choice(4, size=degree, replace=False)))
        raw[idx] = trig(tuple(rng.integers(-2, 3, size=4)),
                        float(rng.uniform(-2, 2)),
                        phase=("cos" if rng.integers(2) else "sin"))
    out = DifferentialForm.zero(T4, degree)
    for idx, f in raw.items():
        out = out + DifferentialForm.basis(T4, idx) * f
    return out


def test_build_antisymmetrizes_indices():
    a = DifferentialForm.build(T4, 2, {(1, 0): 1.0})
    b = DifferentialForm.build(T4, 2, {(0, 1): -1.0})
    assert a.coeff((0, 1)) == b.coeff((0, 1))


def test_repeated_index_drops():
    a = DifferentialForm.build(T4, 2, {(1, 1): 3.0})
    assert a.is_zero()


def test_wedge_graded_commutativity(rng):
    a = random_form(rng, 1)
    b = random_form(rng, 2)
    assert (wedge(a, b) - wedge(b, a)).is_zero(1e-10)
    c = random_form(rng, 1)
    assert (wedge(a, c) + wedge(c, a)).is_zero(1e-10)


def test_d_squared_is_zero(rng):
    for degree in (0, 1, 2):
        if degree == 0:
            a = DifferentialForm.from_scalar(trig((1, -1, 0, 2), 1.3, "sin"))
        else:
            a = random_form(rng, degree)
        assert ext_d(ext_d(a)).is_zero(1e-9)


def test_leibniz_rule(rng):
    a = random_form(rng, 1)
    b = random_form(rng, 1)
    lhs = ext_d(wedge(a, b))
    rhs = wedge(ext_d(a), b) - wedge(a, ext_d(b))
    assert (lhs - rhs).is_zero(1e-9)


def test_d_scalar_is_gradient(rng):
    f = trig((2, 0, 1, 0), 0.7)
    df = d_scalar(f)
    pts = rng.uniform(0, 1, size=(5, 4))
    h = 1e-6
    for p in pts:
        for i in range(4):
            e = np.zeros(4); e[i] = h
            fd = (f.eval(p + e) - f.eval(p - e)) / (2 * h)
            assert df.coeff((i,)).eval(p) == pytest.approx(fd, abs=1e-6)


def test_cartan_formula(rng):
    """L_X = d iota_X + iota_X d, both sides via exact term arithmetic."""
    x = VectorField.basis(T4, 0) * trig((0, 1, 0, 0), 1.1, "sin") \
        + VectorField.basis(T4, 2) * 0.6
    a = random_form(rng, 2)
    lhs = lie_derivative(x, a)
    rhs = ext_d(interior(x, a)) + interior(x, ext_d(a))
    assert (lhs - rhs).is_zero(1e-9)


def test_interior_matches_gram_contraction(rng):
    a = random_form(rng, 2)
    x = VectorField.from_components(T4, [0.3, -1.0, 0.0, 2.0])
    ia = interior(x, a)
    pts = rng.uniform(0, 1, size=(6, 4))
    G = a.gram_batch(pts)
    v = np.array([0.3, -1.0, 0.0, 2.0])
    want = np.einsum("i,kij->kj", v, G)  # component j: a(v, e_j)
    for j in range(4):
        got = ia.coeff((j,)).eval_batch(pts)
        assert np.allclose(got, want[:, j], atol=1e-9)


def test_apply_form_antisymmetry(rng):
    a = random_form(rng, 2)
    x = VectorField.basis(T4, 0)
    y = VectorField.basis(T4, 3) * trig((1, 0, 0, 0))
    assert (apply_form(a, [x, y]) + apply_form(a, [y, x])).is_zero(1e-10)


def test_horizontal_d_keeps_only_active_directions():
    f = trig((1, 0, 0, 1))
    a = DifferentialForm.from_scalar(f)
    d_part = horizontal_d(a, [0, 1, 2])
    full = ext_d(a)
    assert d_part.coeff((0,)) == full.coeff((0,))
    assert d_part.coeff((3,)).is_zero()


def test_sharp_constant_solves_contraction():
    xi = DifferentialForm.build(T4, 1, {(3,): ScalarField.constant(T4, 1.0)})
    X = sharp(OMEGA, xi)
    assert np.allclose(X.constant_vector(), [1.0, 0.0, 0.0, 0.0])
    back = interior(X, OMEGA)
    assert (back - xi).is_zero(1e-12)


def test_sharp_degenerate_raises():
    degenerate = DifferentialForm.build(T4, 2, {(0, 1): 1.0})
    xi = DifferentialForm.build(T4, 1, {(0,): ScalarField.constant(T4, 1.0)})
    with pytest.raises(DegenerateFormError):
        sharp(degenerate, xi)


def test_endo_from_pair_is_standard_complex_structure():
    I = endo_from_pair(OMEGA, F_SPLIT)
    M = I.constant_matrix()
    expect = np.array([[0.0, -1.0, 0.0, 0.0],
                       [1.0, 0.0, 0.0, 0.0],
                       [0.0, 0.0, 0.0, -1.0],
                       [0.0, 0.0, 1.0, 0.0]])
    assert np.allclose(M, expect, atol=1e-12)
    assert np.allclose(M @ M, -np.eye(4), atol=1e-12)


def test_endo_pullback_matches_gram_conjugation(rng):
    I = endo_from_pair(OMEGA, F_SPLIT)
    B = random_form(rng, 2)
    IB = I.pullback_twoform(B)
    pts = rng.uniform(0, 1, size=(5, 4))
    M = I.constant_matrix()
    want = M.T @ B.gram_batch(pts) @ M
    got = IB.gram_batch(pts)
    assert np.abs(got - want).max() < 1e-9


def test_type_11_frame_membership():
    I = endo_from_pair(OMEGA, F_SPLIT)
    frame = [
        DifferentialForm.build(T4, 2, {(0, 1): 1.0}),
        DifferentialForm.build(T4, 2, {(2, 3): 1.0}),
        DifferentialForm.build(T4, 2, {(0, 2): 1.0, (1, 3): 1.0}),
        DifferentialForm.build(T4, 2, {(0, 3): -1.0, (1, 2): 1.0}),
    ]
    for b in frame:
        assert is_type_11(b, I)
    assert not is_type_11(DifferentialForm.build(T4, 2, {(0, 2): 1.0}), I)
    assert not is_type_11(DifferentialForm.build(T4, 2, {(1, 3): 1.0}), I)


def test_kernel_basis_of_degenerate_gram():
    G = np.zeros((3, 3))
    G[0, 1], G[1, 0] = 1.0, -1.0
    K = kernel_basis(G)
    assert K.shape == (3, 1)
    assert abs(K[2, 0]) == pytest.approx(1.0)


def test_form_scalar_multiplication_by_field(rng):
    a = DifferentialForm.build(T4, 2, {(0, 1): 1.0})
    f = trig((1, 0, 0, 0), 2.0)
    af = a * f
    pts = rng.uniform(0, 1, size=(4, 4))
    assert np.allclose(af.gram_batch(pts)[:, 0, 1],
                       f.eval_batch(pts), atol=1e-12)


def test_gram_batch_antisymmetric(rng):
    a = random_form(rng, 2)
    G = a.gram_batch(rng.uniform(0, 1, size=(7, 4)))
    assert np.abs(G + G.transpose(0, 2, 1)).max() < 1e-12


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_d_squared_property(seed):
    rng = np.random.default_rng(seed)
    a = random_form(rng, 1, n_terms=2)
    assert ext_d(ext_d(a)).is_zero(1e-9)


def test_frame_residual_is_worst_coefficient_over_increasing_tuples(rng):
    frame = [VectorField.basis(T4, i) for i in range(4)]
    B = DifferentialForm.build(T4, 2, {(0, 1): 1.0, (2, 3): -3.0})
    assert frame_residual(B, frame) == 3.0
    assert frame_residual(B, frame[:2]) == 1.0
    assert frame_residual(B, frame[:1]) == 0.0
    C = random_form(rng, 3)
    assert frame_residual(C, frame) == max(
        apply_form(C, [frame[a], frame[b], frame[c]]).max_coeff()
        for a in range(4) for b in range(a + 1, 4) for c in range(b + 1, 4))
