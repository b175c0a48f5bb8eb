"""First-order deformation pairs, their checkers, and the truncated complex."""

import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import branelab.infdef
from branelab.brane import BraneCandidate
from branelab.cli import bundled_scene_dir
from branelab.fields import COS, SIN, ScalarField, partial
from branelab.forms import (DifferentialForm, Distribution, apply_form,
                            d_scalar, endo_from_pair, ext_d, is_type_11,
                            lie_derivative, sharp, transverse_matrix)
from branelab.grammar import parse_field, parse_form, parse_vector
from branelab.infdef import (AverageObstruction, ComplexSlice, InfDefPair,
                             Type11Violation, _function_keys,
                             build_infdef, check_infdef, complex_slice,
                             constant_type11_basis, hamiltonian_generator,
                             infdef_general_check, pair_from_values,
                             upsilon_image_check)
from branelab.model import (CIRCLE, DEFAULT_TOL, LINE, extend_with_circle,
                            model_from_names)
from branelab.scene import parse_scene
from oracle_cohomology import codim1_oracle_summary

LAM = float(math.sqrt(2) - 1)

T4 = model_from_names([(n, CIRCLE) for n in ("x1", "y1", "x2", "y2")])
T5 = extend_with_circle(T4, "q")
OMEGA_T4 = parse_form("dx1^dy2 + dy1^dx2", T4)
F_T4 = parse_form("dx1^dx2 - dy1^dy2", T4)

MIX = model_from_names([("x1", CIRCLE), ("y1", LINE),
                        ("x2", LINE), ("y2", LINE)])
MIX_Q = extend_with_circle(MIX, "q")


def codim1(model_q):
    omega = parse_form("dx1^dy2 + dy1^dx2", model_q)
    F = parse_form("dx1^dx2 - dy1^dy2", model_q)
    E = Distribution(model_q, (parse_vector("d_q", model_q),))
    G = Distribution(model_q, tuple(
        parse_vector(f"d_{n}", model_q) for n in ("x1", "y1", "x2", "y2")))
    return BraneCandidate(model_q, omega, F, E, G)


def space_filling_t4():
    from branelab.fields import VectorField
    E = Distribution(T4, ())
    G = Distribution(T4, tuple(VectorField.basis(T4, i) for i in range(4)))
    return BraneCandidate(T4, OMEGA_T4, F_T4, E, G)


C5 = codim1(T5)
CMIX = codim1(MIX_Q)


def test_pair_validation_rejects_wrong_degrees():
    r1 = parse_form("dq", T5)
    with pytest.raises(ValueError):
        InfDefPair(parse_form("dx1^dq", T5), parse_form("dx1^dy1", T5))
    with pytest.raises(ValueError):
        InfDefPair(r1, parse_form("dx1", T5))


def test_pair_from_values_roundtrip():
    v = parse_field("cos(2*pi*q)", T5)
    pair = pair_from_values(C5, [v], DifferentialForm.zero(T5, 2))
    back = [apply_form(pair.r, [e]) for e in C5.E_frame.frame]
    assert len(back) == 1
    assert (back[0] - v).is_zero(1e-12)
    # the kernel frame of C5 is d_q, so its dual coframe row is dq
    assert (pair.r - DifferentialForm.build(T5, 1, {(4,): v})).is_zero(1e-15)


def transverse_images(c):
    """The images I(G_j) of the transverse frame, as columns."""
    return np.column_stack([v.constant_vector() for v in
                            branelab.infdef._transverse_images(c)])


def test_transverse_endo_lifts_standard_structure():
    expect = np.zeros((5, 4))
    expect[:4, :4] = [[0, -1, 0, 0], [1, 0, 0, 0],
                      [0, 0, 0, -1], [0, 0, 1, 0]]
    assert np.allclose(transverse_images(C5), expect, atol=1e-12)


def test_hamiltonian_generator_of_pure_circle_function():
    f = parse_field("cos(2*pi*q)", T5)
    pair = hamiltonian_generator(f, C5)
    # the q-speed is df/dq and the 2-form part vanishes with X_f = 0
    expect_r = DifferentialForm.build(
        T5, 1, {(4,): ScalarField.sine(T5, (0, 0, 0, 0, 1), -2 * math.pi)})
    assert (pair.r - expect_r).is_zero(1e-12)
    vals = [apply_form(pair.r, [e]) for e in C5.E_frame.frame]
    assert (vals[0] - partial(f, 4)).is_zero(1e-12)
    assert pair.B.is_zero(1e-12)
    assert check_infdef(pair, C5).passed


def test_generator_pairs_satisfy_both_checkers():
    for text in ("sin(2*pi*x1)", "cos(2*pi*(x1 + q))",
                 "sin(2*pi*y1)*cos(2*pi*x2)", "cos(2*pi*2*y2)"):
        f = parse_field(text, T5)
        pair = hamiltonian_generator(f, C5)
        a = check_infdef(pair, C5)
        b = infdef_general_check(pair, C5)
        assert a.passed and b.passed, text


def test_zero_speed_pairs_characterize_invariant_11_forms():
    lift11 = parse_form("dx1^dy1", T5)
    ok = InfDefPair(DifferentialForm.zero(T5, 1), lift11)
    assert check_infdef(ok, C5).passed
    not11 = parse_form("dx1^dx2", T5)
    rec = check_infdef(InfDefPair(DifferentialForm.zero(T5, 1), not11), C5)
    assert not rec.passed
    assert not rec.conditions["quad_iv"]


def test_nonhorizontal_B_fails_both_checkers_identically():
    bad = InfDefPair(DifferentialForm.zero(T5, 1), parse_form("dx1^dq", T5))
    a = check_infdef(bad, C5)
    b = infdef_general_check(bad, C5)
    assert not a.passed and not b.passed
    # a kernel-direction component with zero speed violates the mixed
    # condition; horizontality on kernel pairs alone is vacuous at rank one
    assert a.conditions["B_horizontal"]
    assert not a.conditions["mixed_iii"]


def test_mixed_condition_detects_missing_coupling():
    """A q-speed with x-dependence needs the matching 2-form block."""
    rho = parse_field("cos(2*pi*q)*cos(2*pi*x1)", T5)
    r = DifferentialForm.build(T5, 1, {(4,): rho})
    rec = check_infdef(InfDefPair(r, DifferentialForm.zero(T5, 2)), C5)
    assert not rec.passed
    assert not rec.conditions["mixed_iii"]
    built = build_infdef(rho, DifferentialForm.zero(T4, 2), C5)
    assert check_infdef(built, C5).passed
    assert (built.r - r).is_zero(1e-12)


def test_build_rejects_nonflat_average():
    with pytest.raises(AverageObstruction) as err:
        build_infdef(parse_field("cos(2*pi*x1)^2", T5),
                     DifferentialForm.zero(T4, 2), C5)
    assert err.value.residual > 1.0


def test_build_rejects_bad_seed_type():
    with pytest.raises(Type11Violation):
        build_infdef(parse_field("0", T5), parse_form("dx1^dx2", T4), C5)


def test_build_validates_seed_model():
    with pytest.raises(ValueError):
        build_infdef(parse_field("0", T5), parse_form("dx1^dx2", T5), C5)


def test_build_refuses_omega_along_the_circle():
    c = codim1(T5)
    c = BraneCandidate(T5, c.omega + parse_form("dx1^dq", T5), c.F,
                       c.E_frame, c.G_frame)
    with pytest.raises(ValueError, match="component along a dropped"):
        build_infdef(parse_field("0", T5), DifferentialForm.zero(T4, 2), c)


def test_build_shear_analogue_on_mixed_model():
    rho = parse_field(f"{LAM!r}*y2", MIX_Q)
    pair = build_infdef(rho, DifferentialForm.zero(MIX, 2), CMIX)
    expect_B = parse_form(f"-{LAM!r}*dx2^dq", MIX_Q)
    assert (pair.B - expect_B).is_zero(1e-12)
    assert check_infdef(pair, CMIX).passed
    assert infdef_general_check(pair, CMIX).passed


def test_checkers_agree_on_random_pairs(rng):
    """Verdict agreement including failing inputs."""
    freqs = lambda: tuple(int(k) for k in rng.integers(-1, 2, size=5))
    for _ in range(12):
        r_field = ScalarField.cosine(T5, freqs(), float(rng.uniform(-1, 1)))
        B_field = ScalarField.sine(T5, freqs(), float(rng.uniform(-1, 1)))
        idx = tuple(sorted(rng.choice(5, size=2, replace=False)))
        pair = InfDefPair(
            DifferentialForm.build(T5, 1, {(4,): r_field}),
            DifferentialForm.basis(T5, idx) * B_field)
        a = check_infdef(pair, C5)
        b = infdef_general_check(pair, C5)
        assert a.passed == b.passed


def test_upsilon_image_routes():
    r_const = parse_form("0.7*dq", T5)
    ok = upsilon_image_check(r_const, OMEGA_T4, F_T4)
    assert ok.passed and ok.conditions["routes_agree"]
    g5 = parse_field("sin(2*pi*q)", T5)
    r_exact = DifferentialForm.build(T5, 1, {(4,): partial(g5, 4)})
    assert upsilon_image_check(r_exact, OMEGA_T4, F_T4).passed
    r_bad = parse_form("cos(2*pi*x1)^2*dq", T5)
    rec = upsilon_image_check(r_bad, OMEGA_T4, F_T4)
    assert not rec.passed and rec.conditions["routes_agree"]


def test_upsilon_image_rejects_transverse_components():
    with pytest.raises(ValueError):
        upsilon_image_check(parse_form("dx1", T5), OMEGA_T4, F_T4)


def test_constant_type11_basis_dimension_and_membership():
    c = space_filling_t4()
    basis = constant_type11_basis(c)
    assert len(basis) == 4
    # with E empty, the transverse structure is the I of the pair itself
    I = endo_from_pair(c.omega, c.F)
    for coeffs in basis:
        B = DifferentialForm.build(
            T4, 2, {idx: float(v) for idx, v in zip(
                [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)], coeffs)})
        assert is_type_11(B, I)


def test_complex_slice_shapes_and_nilpotency():
    c = space_filling_t4()
    cs = complex_slice(c, 1)
    nfun = 3 ** 4
    assert cs.shape == "space_filling"
    assert cs.d0.shape == (4 * nfun, nfun)
    assert cs.d1.shape == (4 * nfun, 4 * nfun)
    assert cs.d1_d0_residual() <= 1e-10
    assert cs.h1 == cs.dim_ker_d1 - cs.rank_d0


def test_complex_slice_truncation_gate():
    c = codim1(T5)
    # the candidate's data is frequency-0; truncation 0 is fine
    cs = complex_slice(c, 0)
    assert cs.d1_d0_residual() <= 1e-10
    assert cs.h1 == 11  # constants: 1 speed block + 10 two-form components


NOT_CONSTANT = "the deformation complex needs constant omega and F"


def test_complex_slice_rejects_too_small_truncation():
    omega = parse_form("dx1^dy2 + dy1^dx2", T4)
    F = parse_form("dx1^dx2 - dy1^dy2", T4)
    from branelab.fields import VectorField
    E = Distribution(T4, ())
    G = Distribution(T4, tuple(VectorField.basis(T4, i) for i in range(4)))
    c = BraneCandidate(T4, omega, F + parse_form("cos(2*pi*2*x1)*dx1^dy1", T4),
                       E, G)
    with pytest.raises(ValueError, match=NOT_CONSTANT):
        complex_slice(c, 1)


# infdef_torus with a closed, non-constant term added to F
VARYING_F = parse_scene((bundled_scene_dir() / "infdef_torus.scene").read_text(
    encoding="utf-8").replace(
        "form F @ Y = dx1^dx2 - dy1^dy2",
        "form F @ Y = dx1^dx2 - dy1^dy2 + 0.3*cos(2*pi*x1)*dx1^dy1"))


@pytest.mark.parametrize("truncation", [0, 1, 2])
def test_complex_slice_needs_constant_omega_and_F(truncation):
    with pytest.raises(ValueError, match=NOT_CONSTANT):
        complex_slice(VARYING_F.lookup("candidates", "c"), truncation)


def test_complex_slice_needs_torus_model():
    with pytest.raises(ValueError):
        complex_slice(CMIX, 1)


# the standard T^4 pair pulled back by a fixed GL(4,Z) matrix
GL_OMEGA = "-1.0*dx1^dx2 + 1.0*dx1^dy2 + 1.0*dy1^dy2 - 2.0*dx2^dy2"
GL_F = "1.0*dx1^dy1 - 1.0*dx1^dy2 + 2.0*dy1^dy2 + 1.0*dx2^dy2"


def gl_pair_t4(omega=GL_OMEGA, F=GL_F):
    from branelab.fields import VectorField
    return BraneCandidate(
        T4, parse_form(omega, T4), parse_form(F, T4), Distribution(T4, ()),
        Distribution(T4, tuple(VectorField.basis(T4, i) for i in range(4))))


# the pair pulled back by A = [[-2,0,0,-1],[-1,0,0,-1],[0,0,1,0],[-1,1,0,-1]]
# (the cohomology benchmark's pair for seed 84)
def seed84_pair():
    return gl_pair_t4(
        "-2.0*dx1^dy1 - 1.0*dx1^dx2 + 1.0*dx1^dy2 + 1.0*dy1^dy2 + 1.0*dx2^dy2",
        "1.0*dx1^dy1 - 2.0*dx1^dx2 - 1.0*dy1^dy2 + 1.0*dx2^dy2")


# the T^4 pair with a constant transverse frame that is not the
# coordinate basis
SKEWED_G = BraneCandidate(T4, OMEGA_T4, F_T4, Distribution(T4, ()),
                          Distribution(T4, tuple(parse_vector(v, T4) for v in (
                              "d_x1 + d_y1", "d_y1 - 2*d_x2", "d_x2 + d_y2",
                              "3*d_y2"))))


@pytest.mark.parametrize("make", [
    space_filling_t4, gl_pair_t4, seed84_pair, lambda: SKEWED_G])
def test_transverse_images_are_the_pair_structure_on_the_frame(make):
    """With E empty, I is the endomorphism of (omega, F) itself."""
    c = make()
    I = endo_from_pair(c.omega, c.F).constant_matrix()
    G = c.frames[0]
    assert np.abs(transverse_images(c) - I @ G).max() <= 1e-12


def test_transverse_images_match_the_lifted_endomorphism():
    """On N x S^1, the images are those of P A D, the frame matrix A
    lifted by zero on the kernel frame, with P = [G | E] and D its
    inverse."""
    G, E = C5.frames
    P = np.column_stack([G, E])
    A = np.zeros((5, 5))
    A[:4, :4] = transverse_matrix(*C5.grams, G, "test")
    assert np.abs(transverse_images(C5)
                  - P @ A @ np.linalg.inv(P) @ G).max() <= 1e-12


def dense_rank(M, rank_rel):
    """The rank one dense SVD of the whole matrix gives."""
    if M.size == 0:
        return 0
    s = np.linalg.svd(M, compute_uv=False)
    if s[0] == 0.0:
        return 0
    return int(np.sum(s > rank_rel * s[0]))


@pytest.mark.parametrize("make, truncation, h1", [
    (space_filling_t4, 0, 4), (space_filling_t4, 1, 4),
    (gl_pair_t4, 1, 4), (seed84_pair, 1, 4), (lambda: SKEWED_G, 1, 4),
    (lambda: C5, 0, 11)])
def test_block_ranks_match_dense_svd(make, truncation, h1):
    cs = complex_slice(make(), truncation)
    # both matrices vanish outside the blocks of one frequency vector
    _, label = np.unique([vec for vec, _ in cs.function_keys], axis=0,
                         return_inverse=True)
    for M in (cs.d0, cs.d1):
        rows, cols = (np.tile(label.ravel(), n // label.size) for n in M.shape)
        assert not M[rows[:, None] != cols[None, :]].any()
    rank_rel = DEFAULT_TOL.svd_rank_rel
    assert cs.rank_d0 == dense_rank(cs.d0, rank_rel)
    assert cs.dim_ker_d1 == cs.d1.shape[1] - dense_rank(cs.d1, rank_rel)
    assert cs.h1 == h1


@pytest.mark.xfail(strict=True, reason=(
    "|d1 d0| is 1.83e-9 against a bound of 9.89e-10: the bound covers "
    "rounding in the product, not error in the entries projected onto the "
    "SVD-made (1,1) frame; an exact per-block chain check resolves it"))
def test_chain_residual_of_a_pulled_back_pair_is_within_its_bound():
    cs = complex_slice(seed84_pair(), 1)
    assert cs.d1_d0_residual() <= cs.d1_d0_bound()


def basis_field(model, key):
    vec, phase = key
    return (ScalarField.cosine if phase == COS else ScalarField.sine)(model, vec)


def bundled_candidate(name):
    return parse_scene((bundled_scene_dir() / f"{name}.scene").read_text(
        encoding="utf-8")).lookup("candidates", "c")


def test_complex_slice_derives_the_constant_data_once(monkeypatch):
    c = bundled_candidate("infdef_torus")
    calls = {"constant_matrix": 0, "constant_gram": 0}
    for cls, name in ((Distribution, "constant_matrix"),
                      (DifferentialForm, "constant_gram")):
        def counted(self, _method=getattr(cls, name), _name=name):
            calls[_name] += 1
            return _method(self)
        monkeypatch.setattr(cls, name, counted)
    branelab.infdef._symbols.cache_clear()
    complex_slice(c, 1)
    assert calls["constant_matrix"] <= 3
    assert calls["constant_gram"] <= 2


@pytest.mark.parametrize("make, bound", [
    (lambda: bundled_candidate("cohomology_t4"), None), (gl_pair_t4, None),
    (lambda: SKEWED_G, 1e-12)])
def test_space_filling_generator_is_the_lie_derivative(make, bound):
    """hamiltonian_generator, which both shapes of the complex use, is
    Lie_{X_f} F with X_f the omega-dual of df when the brane fills space:
    equal on the coordinate frame, equal up to rounding on another."""
    c = make()
    for key in _function_keys(4, 1):
        f = basis_field(c.model_Y, key)
        pair = hamiltonian_generator(f, c)
        lie = lie_derivative(sharp(c.omega, d_scalar(f)), c.F)
        assert pair.r.coeffs == ()
        if bound is None:
            assert pair.B == lie
        else:
            assert (pair.B - lie).max_coeff() <= bound


def per_key_complex(c, truncation):
    """d0 and d1 in complex_slice's layout, derived one basis function at a
    time through hamiltonian_generator and ext_d: the reference for the
    assembly from symbols."""
    y, n = c.model_Y, c.model_Y.dim
    keys = _function_keys(n, truncation)
    index = {k: i for i, k in enumerate(keys)}
    pairs = list(itertools.combinations(range(n), 2))
    triples = list(itertools.combinations(range(n), 3))
    if c.E_frame.rank == 0:
        speeds, frame = 0, np.column_stack(constant_type11_basis(c))
    else:
        speeds, frame = len(keys), np.eye(len(pairs))

    def coeffs(f):
        out = np.zeros(len(keys))
        for (p, k, ph), v in f.terms:
            assert not any(p)
            out[index[(k, ph)]] += v
        return out

    d0 = np.zeros((speeds + frame.shape[1] * len(keys), len(keys)))
    d1 = np.zeros((len(triples) * len(keys), d0.shape[0]))
    for col, key in enumerate(keys):
        f = basis_field(y, key)
        pair = hamiltonian_generator(f, c)
        d0[:speeds, col] = coeffs(pair.r.coeff((n - 1,)))[:speeds]
        comp = np.array([coeffs(pair.B.coeff(ab)) for ab in pairs])
        d0[speeds:, col] = (np.linalg.pinv(frame) @ comp).ravel()
        for kk, vec in enumerate(frame.T):
            dB = ext_d(DifferentialForm.build(y, 2, dict(zip(pairs, vec))) * f)
            d1[:, speeds + kk * len(keys) + col] = np.concatenate(
                [coeffs(dB.coeff(abc)) for abc in triples])
    return d0, d1


@pytest.mark.parametrize("make, truncation", [
    *((lambda: bundled_candidate("cohomology_t4"), t) for t in (0, 1, 2)),
    *((gl_pair_t4, t) for t in (0, 1, 2)), (lambda: SKEWED_G, 1),
    *((lambda: bundled_candidate("infdef_torus"), t) for t in (0, 1))])
def test_symbol_assembly_matches_the_per_key_derivation(make, truncation):
    c = make()
    cs = complex_slice(c, truncation)
    R0, R1 = per_key_complex(c, truncation)
    for M, R in ((cs.d0, R0), (cs.d1, R1)):
        assert M.shape == R.shape
        assert np.abs(M - R).max(initial=0.0) <= 1e-12 * np.abs(R).max(
            initial=0.0)
    rank_rel = DEFAULT_TOL.svd_rank_rel
    assert cs.rank_d0 == dense_rank(R0, rank_rel)
    assert cs.dim_ker_d1 == R1.shape[1] - dense_rank(R1, rank_rel)
    assert cs.h1 == cs.dim_ker_d1 - cs.rank_d0
    # the bound's dense formula, and the dense product, on the reference
    bound, want, product = cs.d1_d0_bound(), 1e-10, 0.0
    if R0.size and R1.size:
        want = max(want, R1.shape[1] * np.finfo(float).eps
                   * np.abs(R1).sum(axis=1).max() * np.abs(R0).max())
        product = np.abs(R1 @ R0).max()
    assert abs(bound - want) <= 1e-12 * want
    assert abs(cs.d1_d0_residual() - product) <= bound


@pytest.mark.parametrize("make, truncations", [
    (gl_pair_t4, (1, 2)), (lambda: C5, (0, 1))])
def test_generator_calls_do_not_grow_with_truncation(monkeypatch, make,
                                                     truncations):
    """One generator call per candidate, on the sum of the probe cosines,
    and one ext_d call per frame column: the 4 invariant-type (1,1) forms
    on T^4, the 10 elementary 2-forms on T^5."""
    c = make()
    ext_d_calls = 4 if c.E_frame.rank == 0 else 10
    calls, d_calls = [], []

    def counted(f, cand):
        calls.append(f)
        return hamiltonian_generator(f, cand)

    def counted_d(a):
        d_calls.append(a)
        return ext_d(a)

    monkeypatch.setattr(branelab.infdef, "hamiltonian_generator", counted)
    monkeypatch.setattr(branelab.infdef, "ext_d", counted_d)
    for truncation in truncations:
        calls.clear()
        d_calls.clear()
        branelab.infdef._symbols.cache_clear()
        complex_slice(c, truncation)
        assert len(calls) == 1
        assert len(d_calls) == ext_d_calls


def per_probe_symbols(c):
    """frame, quad and t derived one probe at a time, one generator call
    per probe frequency and one ext_d call per frame column and unit
    vector: the reference for the batched derivation of _symbols."""
    y, n = c.model_Y, c.model_Y.dim
    pairs = list(itertools.combinations(range(n), 2))
    triples = list(itertools.combinations(range(n), 3))
    if c.E_frame.rank == 0:
        frame = np.column_stack(constant_type11_basis(c))
    else:
        frame = np.eye(len(pairs))

    def at_mode(f, k, phase):
        mode = ((0,) * n, tuple(int(x) for x in k), phase)
        assert all(key == mode for key, _ in f.terms)
        return dict(f.terms).get(mode, 0.0)

    def probe(k):
        p = hamiltonian_generator(ScalarField.cosine(y, k), c)
        return np.array([at_mode(p.r.coeff((n - 1,)), k, SIN)]
                        + [at_mode(p.B.coeff(ab), k, COS) for ab in pairs])

    unit, quad = np.eye(n, dtype=int), np.zeros((n, n, 1 + len(pairs)))
    quad[range(n), range(n)] = [probe(e) for e in unit]
    for i, j in pairs:
        quad[i, j] = quad[j, i] = (
            probe(unit[i] + unit[j]) - quad[i, i] - quad[j, j]) / 2
    t = []
    for vec in frame.T:
        beta = DifferentialForm.build(y, 2, dict(zip(pairs, vec)))
        t.append([[at_mode(ext_d(beta * ScalarField.cosine(y, e)).coeff(abc),
                           e, SIN) for abc in triples] for e in unit])
    return frame, quad, np.array(t)


@pytest.mark.parametrize("make", [
    lambda: bundled_candidate("cohomology_t4"), gl_pair_t4, seed84_pair,
    lambda: SKEWED_G, lambda: C5])
def test_batched_symbols_equal_the_per_probe_derivation(make):
    c = make()
    branelab.infdef._symbols.cache_clear()
    _, _, *got = branelab.infdef._symbols(c)
    for a, b in zip(got, per_probe_symbols(c)):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("make", [
    lambda: bundled_candidate("cohomology_t4"), gl_pair_t4, lambda: C5])
def test_symbols_are_derived_once_per_candidate(monkeypatch, make):
    """A second truncation of an equal candidate makes no generator call,
    and fills the blocks a fresh derivation of the symbols fills."""
    calls = []

    def counted(f, cand):
        calls.append(f)
        return hamiltonian_generator(f, cand)

    monkeypatch.setattr(branelab.infdef, "hamiltonian_generator", counted)
    branelab.infdef._symbols.cache_clear()
    complex_slice(make(), 0)
    assert calls
    calls.clear()
    cached = complex_slice(make(), 1)
    assert calls == []
    branelab.infdef._symbols.cache_clear()
    fresh = complex_slice(make(), 1)
    assert calls
    assert np.array_equal(cached.b0, fresh.b0)
    assert np.array_equal(cached.b1, fresh.b1)


def off_mode(pair, f, c):
    """The pair with a 2-form term at a frequency f does not have."""
    return InfDefPair(pair.r, pair.B + DifferentialForm.basis(
        c.model_Y, (0, 1)) * ScalarField.cosine(c.model_Y, (0, 0, 0, 3)))


def bend_terms(form, move):
    """form with each term (key, coeff) of each component replaced by the
    term move(key, coeff)."""
    return DifferentialForm.build(form.model, form.degree, {
        idx: ScalarField.build(form.model, dict(
            move(key, v) for key, v in f.terms)) for idx, f in form.coeffs})


def cubic(pair, f, c):
    """The pair with each term of its 2-form scaled by k_1 + ... + k_n,
    the sum of the frequency of that term's own mode."""
    return InfDefPair(pair.r, bend_terms(
        pair.B, lambda key, v: (key, v * float(sum(key[1])))))


def shifted(pair, f, c):
    """The pair with every term moved from frequency k to k + e_1: the
    image of e_2 lands on the probe mode e_1 + e_2, that of e_1 on 2 e_1,
    which no probe has."""
    def move(key, v):
        powers, freqs, phase = key
        return (powers, (freqs[0] + 1,) + freqs[1:], phase), v
    return InfDefPair(bend_terms(pair.r, move), bend_terms(pair.B, move))


@pytest.mark.parametrize("bend, message", [
    (off_mode, "leaves its Fourier mode"),
    (shifted, "leaves its Fourier mode"),
    (cubic, "no constant-coefficient symbol")])
def test_a_generator_without_a_symbol_is_an_error(monkeypatch, bend,
                                                  message):
    monkeypatch.setattr(branelab.infdef, "hamiltonian_generator",
                        lambda f, c: bend(hamiltonian_generator(f, c), f, c))
    branelab.infdef._symbols.cache_clear()
    with pytest.raises(ValueError, match=message):
        complex_slice(gl_pair_t4(), 1)


def test_a_stray_image_term_is_named(monkeypatch):
    monkeypatch.setattr(branelab.infdef, "hamiltonian_generator",
                        lambda f, c: off_mode(hamiltonian_generator(f, c),
                                              f, c))
    branelab.infdef._symbols.cache_clear()
    with pytest.raises(ValueError, match=re.escape(
            "a probe's image leaves its Fourier mode: a cos term at "
            "frequency (0, 0, 0, 3)")):
        complex_slice(gl_pair_t4(), 1)


def test_a_failed_symbol_check_raises_on_every_call(monkeypatch):
    """A refused candidate is not cached: each truncation, the same one
    again included, derives its symbols and raises."""
    calls = []

    def bent(f, c):
        calls.append(f)
        return cubic(hamiltonian_generator(f, c), f, c)

    monkeypatch.setattr(branelab.infdef, "hamiltonian_generator", bent)
    branelab.infdef._symbols.cache_clear()
    for truncation in (1, 1, 2):
        calls.clear()
        with pytest.raises(ValueError,
                           match="no constant-coefficient symbol"):
            complex_slice(gl_pair_t4(), truncation)
        assert calls


def test_codim1_oracle_is_a_complex_with_five_classes():
    """The exact oracle's own value: d1 d0 = 0 in every block, and h1 = 5,
    the constant speed and the four constant type-(1,1) forms on T^4;
    every block with a nonzero frequency is exact."""
    assert codim1_oracle_summary(0) == (5, 0, 5, True)
    assert codim1_oracle_summary(1) == (247, 242, 5, True)


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 1: the codim-1 d1 is only dB on the 2-form columns, so "
    "every speed lies in ker d1; the package reads h1 = 11 at T=0 and 979 "
    "at T=1"))
@pytest.mark.parametrize("truncation", [0, 1])
def test_codim1_complex_matches_the_exact_oracle(truncation):
    assert complex_slice(C5, truncation).h1 == codim1_oracle_summary(
        truncation)[2]


def test_codim1_complex_decouples_into_small_blocks():
    cs = complex_slice(C5, 1)
    assert cs.d1.shape == (2430, 2673)
    assert cs.h1 == 979
    assert cs.block_summary() == {"d0": {"blocks": 121, "largest": [22, 2]},
                                  "d1": {"blocks": 121, "largest": [20, 22]}}


@st.composite
def block_stacks(draw):
    """A complex whose b0 and b1 are stacks of same-shape blocks, one per
    nonzero frequency of a circle, with the sum of the inner sizes of each
    stack.  Each block is an integer product A B (exactly rank deficient
    when the inner size is below the block's sides, zero when it is 0)
    scaled by 1, 1e-3 or 1e-12."""
    ints = st.integers(-3, 3)
    nf = draw(st.integers(1, 5))
    nblk, ntri = draw(st.integers(1, 3)), draw(st.integers(1, 3))

    def stack(r, c):
        blocks, bound = [], 0
        for _ in range(nf):
            k = draw(st.integers(0, min(r, c)))
            bound += k
            A = np.array(draw(st.lists(ints, min_size=r * k,
                                       max_size=r * k)), dtype=float)
            B = np.array(draw(st.lists(ints, min_size=k * c,
                                       max_size=k * c)), dtype=float)
            scale = draw(st.sampled_from((1.0, 1e-3, 1e-12)))
            blocks.append(scale * (A.reshape(r, k) @ B.reshape(k, c)))
        return np.array(blocks), bound

    (b0, bound0), (b1, bound1) = stack(2 * nblk, 2), stack(2 * ntri, 2 * nblk)
    circle = model_from_names([("x", CIRCLE)])
    return ComplexSlice(circle, nf, "space_filling", _function_keys(1, nf),
                        b0, b1), bound0, bound1


@settings(max_examples=80, deadline=None)
@given(block_stacks())
def test_block_rank_is_the_dense_rank(case):
    cs, bound0, bound1 = case
    rank_rel = DEFAULT_TOL.svd_rank_rel
    assert cs.rank_d0 == dense_rank(cs.d0, rank_rel) <= bound0
    assert cs.middle_dim - cs.dim_ker_d1 == dense_rank(cs.d1, rank_rel) \
        <= bound1
