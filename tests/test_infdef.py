"""First-order deformation pairs, their checkers, and the truncated complex."""

import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from branelab.brane import BraneCandidate
from branelab.cli import bundled_scene_dir
from branelab.fields import ScalarField, partial
from branelab.forms import (DifferentialForm, Distribution, apply_form,
                            is_type_11)
from branelab.grammar import parse_field, parse_form, parse_vector
from branelab.infdef import (AverageObstruction, InfDefPair, Type11Violation,
                             _block_rank, build_infdef, check_infdef, complex_slice,
                             constant_type11_basis, hamiltonian_generator,
                             infdef_general_check, pair_from_values,
                             transverse_endo, upsilon_image_check)
from branelab.model import (CIRCLE, DEFAULT_TOL, LINE, SamplePlan,
                            extend_with_circle, model_from_names)
from branelab.scene import parse_scene

LAM = float(math.sqrt(2) - 1)
PLAN = SamplePlan(count=64, seed=0)

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


def test_transverse_endo_lifts_standard_structure():
    I = transverse_endo(C5)
    M = I.constant_matrix()
    expect = np.zeros((5, 5))
    expect[:4, :4] = [[0, -1, 0, 0], [1, 0, 0, 0],
                      [0, 0, 0, -1], [0, 0, 1, 0]]
    assert np.allclose(M, expect, atol=1e-12)


def test_hamiltonian_generator_of_pure_circle_function():
    f = parse_field("cos(2*pi*q)", T5)
    pair = hamiltonian_generator(f, C5)
    expect_r = parse_form("-2*pi*sin(2*pi*q)*dq", T5) \
        if False else None
    # the q-speed is df/dq and the 2-form part vanishes with X_f = 0
    vals = [apply_form(pair.r, [e]) for e in C5.E_frame.frame]
    assert (vals[0] - partial(f, 4)).is_zero(1e-12)
    assert pair.B.is_zero(1e-12)
    assert check_infdef(pair, C5, plan=PLAN).passed


def test_generator_pairs_satisfy_both_checkers():
    for text in ("sin(2*pi*x1)", "cos(2*pi*(x1 + q))",
                 "sin(2*pi*y1)*cos(2*pi*x2)", "cos(2*pi*2*y2)"):
        f = parse_field(text, T5)
        pair = hamiltonian_generator(f, C5)
        a = check_infdef(pair, C5, plan=PLAN)
        b = infdef_general_check(pair, C5, plan=PLAN)
        assert a.passed and b.passed, text


def test_zero_speed_pairs_characterize_invariant_11_forms():
    lift11 = parse_form("dx1^dy1", T5)
    ok = InfDefPair(DifferentialForm.zero(T5, 1), lift11)
    assert check_infdef(ok, C5, plan=PLAN).passed
    not11 = parse_form("dx1^dx2", T5)
    rec = check_infdef(InfDefPair(DifferentialForm.zero(T5, 1), not11), C5,
                       plan=PLAN)
    assert not rec.passed
    assert not rec.conditions["quad_iv"]


def test_nonhorizontal_B_fails_both_checkers_identically():
    bad = InfDefPair(DifferentialForm.zero(T5, 1), parse_form("dx1^dq", T5))
    a = check_infdef(bad, C5, plan=PLAN)
    b = infdef_general_check(bad, C5, plan=PLAN)
    assert not a.passed and not b.passed
    # a kernel-direction component with zero speed violates the mixed
    # condition; horizontality on kernel pairs alone is vacuous at rank one
    assert a.conditions["B_horizontal"]
    assert not a.conditions["mixed_iii"]


def test_mixed_condition_detects_missing_coupling():
    """A q-speed with x-dependence needs the matching 2-form block."""
    rho = parse_field("cos(2*pi*q)*cos(2*pi*x1)", T5)
    r = DifferentialForm.build(T5, 1, {(4,): rho})
    rec = check_infdef(InfDefPair(r, DifferentialForm.zero(T5, 2)), C5,
                       plan=PLAN)
    assert not rec.passed
    assert not rec.conditions["mixed_iii"]
    built = build_infdef(rho, DifferentialForm.zero(T4, 2), C5)
    assert check_infdef(built, C5, plan=PLAN).passed
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
    assert check_infdef(pair, CMIX, plan=PLAN).passed
    assert infdef_general_check(pair, CMIX, plan=PLAN).passed


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
        a = check_infdef(pair, C5, plan=PLAN)
        b = infdef_general_check(pair, C5, plan=PLAN)
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
    I = transverse_endo(c)
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


def gl_pair_t4():
    from branelab.fields import VectorField
    return BraneCandidate(
        T4, parse_form(GL_OMEGA, T4), parse_form(GL_F, T4), Distribution(T4, ()),
        Distribution(T4, tuple(VectorField.basis(T4, i) for i in range(4))))


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
    (gl_pair_t4, 1, 4), (lambda: C5, 0, 11)])
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


def test_codim1_complex_decouples_into_small_blocks():
    cs = complex_slice(C5, 1)
    assert cs.d1.shape == (2430, 2673)
    assert cs.h1 == 979
    assert cs.block_summary() == {"d0": {"blocks": 121, "largest": [22, 2]},
                                  "d1": {"blocks": 121, "largest": [20, 22]}}


@st.composite
def labelled_blocks(draw):
    """A matrix that vanishes outside its label blocks, with each row's and
    column's label.  Each block is an integer product A B (exactly rank
    deficient when the inner size is below the block's sides) scaled by 1,
    1e-3 or 1e-12; zero rows and columns carry a block's label or one of
    their own; rows and columns are shuffled with their labels."""
    ints = st.integers(-3, 3)
    blocks, bound = [], 0
    nblocks = draw(st.integers(1, 5))
    for _ in range(nblocks):
        r, c = draw(st.integers(1, 5)), draw(st.integers(1, 5))
        k = draw(st.integers(0, min(r, c)))
        A = np.array(draw(st.lists(ints, min_size=r * k, max_size=r * k)),
                     dtype=float).reshape(r, k)
        B = np.array(draw(st.lists(ints, min_size=k * c, max_size=k * c)),
                     dtype=float).reshape(k, c)
        blocks.append(draw(st.sampled_from((1.0, 1e-3, 1e-12))) * (A @ B))
        bound += k
    zero_labels = st.lists(st.integers(0, nblocks), max_size=3)
    rows = [i for i, b in enumerate(blocks) for _ in range(b.shape[0])]
    cols = [i for i, b in enumerate(blocks) for _ in range(b.shape[1])]
    rows += draw(zero_labels)
    cols += draw(zero_labels)
    D = scipy.linalg.block_diag(*blocks)
    M = np.pad(D, ((0, len(rows) - D.shape[0]), (0, len(cols) - D.shape[1])))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pr, pc = rng.permutation(len(rows)), rng.permutation(len(cols))
    return M[pr][:, pc], np.array(rows)[pr], np.array(cols)[pc], bound


@settings(max_examples=80, deadline=None)
@given(labelled_blocks())
def test_block_rank_is_the_dense_rank(case):
    M, rows, cols, bound = case
    rank, shapes = _block_rank(M, rows, cols, 1e-8)
    assert rank == dense_rank(M, 1e-8)
    assert rank <= bound
    assert sum(r for r, _ in shapes) <= M.shape[0]
    assert sum(c for _, c in shapes) <= M.shape[1]
