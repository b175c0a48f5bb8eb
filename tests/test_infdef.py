"""First-order deformation pairs, their checkers, and the truncated complex."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import branelab.infdef
from branelab.brane import BraneCandidate, RankDropError
from branelab.cli import bundled_scene_dir
from branelab.fields import COS, SIN, ScalarField, partial
from branelab.forms import (DegenerateFormError, DifferentialForm,
                            Distribution, apply_form,
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


def space_filling_t4(F=F_T4):
    from branelab.fields import VectorField
    E = Distribution(T4, ())
    G = Distribution(T4, tuple(VectorField.basis(T4, i) for i in range(4)))
    return BraneCandidate(T4, OMEGA_T4, F, E, G)


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


# infdef_torus with a closed, non-constant term added to F
VARYING_F = parse_scene((bundled_scene_dir() / "infdef_torus.scene").read_text(
    encoding="utf-8").replace(
        "form F @ Y = dx1^dx2 - dy1^dy2",
        "form F @ Y = dx1^dx2 - dy1^dy2 + 0.3*cos(2*pi*x1)*dx1^dy1"))


def t5_candidate(omega="dx1^dy2 + dy1^dx2", E="d_q",
                 G=("d_x1", "d_y1", "d_x2", "d_y2")):
    return BraneCandidate(
        T5, parse_form(omega, T5), parse_form("dx1^dx2 - dy1^dy2", T5),
        Distribution(T5, (parse_vector(E, T5),)),
        Distribution(T5, tuple(parse_vector(v, T5) for v in G)))


def varying_frame():
    from branelab.fields import VectorField
    G = [VectorField.basis(T4, i) for i in range(4)]
    G[3] = G[3] + VectorField.basis(T4, 0) * parse_field("cos(2*pi*x1)", T4)
    return BraneCandidate(T4, OMEGA_T4, F_T4, Distribution(T4, ()),
                          Distribution(T4, tuple(G)))


@pytest.mark.parametrize("make, cls, message", [
    (lambda: CMIX, ValueError, "truncated Fourier bases need a torus model"),
    (lambda: VARYING_F.lookup("candidates", "c"), ValueError, NOT_CONSTANT),
    # an F term at frequency 2, above truncation 1
    (lambda: space_filling_t4(
        F_T4 + parse_form("cos(2*pi*2*x1)*dx1^dy1", T4)),
     ValueError, NOT_CONSTANT),
    (lambda: gl_pair_t4("dx1^dy1"), DegenerateFormError,
     "form degenerate at constant form: "),
    (varying_frame, ValueError, "needs constant frames"),
    (lambda: t5_candidate(E="d_x1 + d_q"), ValueError,
     "expected the kernel frame d/dq on the product model"),
    # d_q in G, where omega vanishes on it
    (lambda: t5_candidate(G=("d_x1", "d_y1", "d_x2", "d_q")),
     DegenerateFormError,
     "form degenerate at restriction of the nondegenerate form: "),
    # d_q in G again, now with omega nondegenerate on G
    (lambda: t5_candidate("dy1^dx2 + dx1^dq",
                          G=("d_x1", "d_y1", "d_x2", "d_q")),
     RankDropError,
     "E and G frames are dependent: the joint frame [G | E] is singular")],
    ids=["non_torus", "varying_F", "F_above_truncation", "degenerate_omega",
         "varying_frame", "kernel_not_dq", "degenerate_GWG", "dependent_GE"])
def test_each_complex_slice_refusal_names_its_cause(make, cls, message):
    """Each refusal, in the order complex_slice checks: torus, constant
    omega and F (at any truncation, above or below the frequencies of
    the data), the shape (invariant-type frame or the kernel circle),
    constant frames, omega on G, then the joint frame [G | E]."""
    c = make()
    for truncation in (0, 1, 2):
        with pytest.raises(cls) as err:
            complex_slice(c, truncation)
        assert type(err.value) is cls
        assert str(err.value).startswith(message)


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
def test_complex_slice_calls_no_term_algebra(monkeypatch, make, truncations):
    """The blocks come from the candidate's constant matrices: no generator
    call, no exterior derivative and no field product, at any truncation."""
    c = make()

    def refuse(*args):
        raise AssertionError("complex_slice used the term algebra")

    for target in ("branelab.infdef.hamiltonian_generator",
                   "branelab.infdef.ext_d", "branelab.forms.ext_d",
                   "branelab.fields.field_mul"):
        monkeypatch.setattr(target, refuse)
    for truncation in truncations:
        complex_slice(c, truncation)


def realify(blocks):
    """The real (cos, sin) blocks of a stack of complex blocks: each entry
    a + ib becomes [[a, -b], [b, a]], rows and columns by entry, then
    cosine before sine."""
    a, b = blocks.real, blocks.imag
    nf, rows, cols = blocks.shape
    real = np.stack([np.stack([a, -b], -1), np.stack([b, a], -1)], -2)
    return real.transpose(0, 1, 3, 2, 4).reshape(nf, 2 * rows, 2 * cols)


@pytest.mark.parametrize("make", [
    lambda: bundled_candidate("cohomology_t4"), gl_pair_t4, seed84_pair,
    lambda: C5], ids=["cohomology_t4", "gl_pair_t4", "seed84_pair", "C5"])
def test_dense_matrices_realify_the_complex_blocks(make):
    """At each nonzero frequency k, the (cos, sin) x (cos, sin) sub-block
    of the dense d0 and d1 between two blocks is [[a, -b], [b, a]] for the
    complex block entry a + ib, bit for bit."""
    cs = complex_slice(make(), 1)
    at = {key: i for i, key in enumerate(cs.function_keys)}
    nfun = len(at)
    vecs = [vec for vec, phase in cs.function_keys if phase == SIN]
    for M, blocks in ((cs.d0, cs.b0), (cs.d1, cs.b1)):
        nf, rows, cols = blocks.shape
        assert len(vecs) == nf
        dense = M.reshape(rows, nfun, cols, nfun)
        for vec, block in zip(vecs, realify(blocks)):
            pair = [at[(vec, COS)], at[(vec, SIN)]]
            sub = dense[:, pair][..., pair].reshape(2 * rows, 2 * cols)
            assert np.array_equal(sub, block)


def product_keys(dim, truncation):
    """The keys by itertools.product, lexicographic in the frequency
    vector: the zero vector's cosine, then the cosine and sine of each
    vector whose first nonzero entry is positive."""
    keys = []
    for vec in itertools.product(range(-truncation, truncation + 1),
                                 repeat=dim):
        if not any(vec):
            keys.append((vec, COS))
        elif next(k for k in vec if k != 0) > 0:
            keys += [(vec, COS), (vec, SIN)]
    return keys


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
def test_function_keys_are_the_product_enumeration(dim):
    for truncation in range(4):
        assert _function_keys(dim, truncation) == product_keys(dim, truncation)


def at_mode(f, k):
    """The coefficients of f at cos and sin(2 pi k.x), its only terms."""
    out = {COS: 0.0, SIN: 0.0}
    for (powers, freqs, phase), v in f.terms:
        assert not any(powers) and freqs == tuple(k)
        out[phase] += v
    return [out[COS], out[SIN]]


@pytest.mark.parametrize("make", [
    lambda: bundled_candidate("cohomology_t4"), gl_pair_t4, seed84_pair,
    lambda: SKEWED_G, lambda: C5, lambda: t5_candidate(E="2*d_q"),
    lambda: t5_candidate(E="-0.5*d_q"),
    lambda: t5_candidate(G=("d_x1 + d_q", "d_y1", "d_x2 - 2*d_q", "d_y2"))],
    ids=["cohomology_t4", "gl_pair_t4", "seed84_pair", "SKEWED_G", "C5",
         "E_2dq", "E_minus_half_dq", "G_with_dq"])
def test_blocks_are_the_generator_and_d_at_high_frequencies(make):
    """At seeded frequencies up to |k| = 5, past the truncations a dense
    complex fits at, each block complex_slice fills, realified, is the
    definition read at its mode: d0 is hamiltonian_generator of cos and
    sin(2 pi k.x), d1 is ext_d of each frame 2-form times them."""
    c = make()
    y, n = c.model_Y, c.model_Y.dim
    rng = np.random.default_rng(31)
    K = [k if k[np.flatnonzero(k)[0]] > 0 else -k
         for k in rng.integers(-5, 6, size=(12, n)) if k.any()]
    _, speeds, frame, *symbol = branelab.infdef._closed_form(c)
    b0, b1 = map(realify, branelab.infdef._blocks(speeds, frame, *symbol,
                                                  np.array(K)))
    pairs = list(itertools.combinations(range(n), 2))
    triples = list(itertools.combinations(range(n), 3))
    want0, want1 = np.zeros_like(b0), np.zeros_like(b1)
    for k, w0, w1 in zip(K, want0, want1):
        for phase, f in enumerate((ScalarField.cosine(y, k),
                                   ScalarField.sine(y, k))):
            pair = hamiltonian_generator(f, c)
            if speeds:
                w0[:2, phase] = at_mode(pair.r.coeff((n - 1,)), k)
            coords = np.linalg.pinv(frame) @ [at_mode(pair.B.coeff(ab), k)
                                              for ab in pairs]
            w0[2 * speeds:, phase] = coords.ravel()
            for m, vec in enumerate(frame.T):
                dB = ext_d(DifferentialForm.build(y, 2, dict(zip(pairs, vec)))
                           * f)
                w1[:, 2 * (speeds + m) + phase] = np.ravel(
                    [at_mode(dB.coeff(abc), k) for abc in triples])
    for got, want in ((b0, want0), (b1, want1)):
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


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
    """A complex whose b0 and b1 are stacks of same-shape complex blocks,
    one per nonzero frequency of a circle, with the sum of the inner sizes
    of each stack.  Each block is a complex integer product A B (exactly
    rank deficient when the inner size is below the block's sides, zero
    when it is 0) scaled by 1, 1e-3 or 1e-12."""
    ints = st.integers(-3, 3)
    nf = draw(st.integers(1, 5))
    nblk, ntri = draw(st.integers(1, 3)), draw(st.integers(1, 3))

    def gaussian(rows, cols):
        parts = np.array(draw(st.lists(ints, min_size=2 * rows * cols,
                                       max_size=2 * rows * cols)), dtype=float)
        return (parts[::2] + 1j * parts[1::2]).reshape(rows, cols)

    def stack(r, c):
        blocks, bound = [], 0
        for _ in range(nf):
            k = draw(st.integers(0, min(r, c)))
            bound += k
            scale = draw(st.sampled_from((1.0, 1e-3, 1e-12)))
            blocks.append(scale * (gaussian(r, k) @ gaussian(k, c)))
        return np.array(blocks), bound

    (b0, bound0), (b1, bound1) = stack(nblk, 1), stack(ntri, nblk)
    circle = model_from_names([("x", CIRCLE)])
    return ComplexSlice(circle, nf, "space_filling", b0, b1), bound0, bound1


@settings(max_examples=80, deadline=None)
@given(block_stacks())
def test_block_rank_is_the_dense_rank(case):
    """Twice the complex rank of the blocks is the rank of the dense real
    matrix they stand for."""
    cs, bound0, bound1 = case
    rank_rel = DEFAULT_TOL.svd_rank_rel
    assert cs.rank_d0 == dense_rank(cs.d0, rank_rel) <= 2 * bound0
    assert cs.middle_dim - cs.dim_ker_d1 == dense_rank(cs.d1, rank_rel) \
        <= 2 * bound1
