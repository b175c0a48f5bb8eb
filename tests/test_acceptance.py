"""End-to-end acceptance battery.

One test per headline guarantee.  Every expected value here is frozen from
closed-form computation or from the independent oracles in this directory
(see oracle_cohomology.py), never read back from the code under test.  The
conftest reporter prints a one-line verdict per criterion at the end of the
run.
"""

import math
import time

import numpy as np
import pytest

from branelab.brane import (BraneCandidate, check_brane, check_brane_via_J,
                            check_space_filling, local_normal_form)
from branelab.fields import ScalarField, VectorField, partial
from branelab.forms import (DifferentialForm, Distribution, endo_from_pair,
                            ext_d, is_type_11)
from branelab.grammar import parse_field, parse_form, parse_vector
from branelab.infdef import (AverageObstruction, InfDefPair, build_infdef,
                             check_infdef, complex_slice,
                             hamiltonian_generator, infdef_general_check,
                             upsilon_image_check)
from branelab.integrate import rk4_flow
from branelab.model import (CIRCLE, DEFAULT_FLOW, LINE, SamplePlan,
                            extend_with_circle, model_from_names)
from branelab.nearby import (_flow_rhs, closed1f_check, closed1f_residual,
                             convergence_order, flow, graph_deformation,
                             kernel_field, mapping_torus_check, melanie_check,
                             transport_brane)

from oracle_cohomology import oracle_summary

LAM = float(math.sqrt(2) - 1)

R4L = model_from_names([("x1", LINE), ("y1", LINE),
                        ("x2", LINE), ("y2", LINE)])
N_MIX = model_from_names([("x1", CIRCLE), ("y1", LINE),
                          ("x2", LINE), ("y2", LINE)])
T4 = model_from_names([(n, CIRCLE) for n in ("x1", "y1", "x2", "y2")])
T5 = extend_with_circle(T4, "q")
MIX_Q = extend_with_circle(N_MIX, "q")

PAIR_TEXT = ("dx1^dy2 + dy1^dx2", "dx1^dx2 - dy1^dy2")


def split_pair(model):
    return parse_form(PAIR_TEXT[0], model), parse_form(PAIR_TEXT[1], model)


def codim1_candidate(model_q, F=None):
    omega, F_default = split_pair(model_q)
    E = Distribution(model_q, (parse_vector("d_q", model_q),))
    G = Distribution(model_q, tuple(
        parse_vector(f"d_{n}", model_q) for n in ("x1", "y1", "x2", "y2")))
    return BraneCandidate(model_q, omega, F if F is not None else F_default,
                          E, G)


def shear_deformation(base):
    omega, F = split_pair(base)
    return graph_deformation(base, omega, F, f"{LAM!r}*y2")


def test_criterion_01_space_filling_exact():
    """Space-filling pair: exact verdict with the standard complex structure."""
    omega, F = split_pair(R4L)
    t0 = time.perf_counter()
    rec = check_space_filling(omega, F)
    elapsed = time.perf_counter() - t0
    assert rec.passed
    assert rec.mode == "EXACT"
    expect_I = np.array([[0.0, -1.0, 0.0, 0.0],
                         [1.0, 0.0, 0.0, 0.0],
                         [0.0, 0.0, 0.0, -1.0],
                         [0.0, 0.0, 1.0, 0.0]])
    assert np.array_equal(np.asarray(rec.details["I_matrix"]), expect_I)
    assert elapsed < 1.0


def test_criterion_02_invariant_type_frame():
    """Invariant-type test: constant frame passes, split factors fail."""
    omega, F = split_pair(T4)
    I = endo_from_pair(omega, F)
    members = ["dx1^dy1", "dx2^dy2", "dx1^dx2 + dy1^dy2",
               "-dx1^dy2 + dy1^dx2"]
    for text in members:
        assert is_type_11(parse_form(text, T4), I)
    for text in ["dx1^dx2", "dy1^dy2"]:
        assert not is_type_11(parse_form(text, T4), I)


def test_criterion_03_shear_flow_is_translation():
    """Circle flow of the shear equals the closed-form translation."""
    g = shear_deformation(N_MIX)
    pts = SamplePlan(count=256, seed=0).points(N_MIX)
    t0 = time.perf_counter()
    expect = pts.copy()
    expect[:, 0] = (pts[:, 0] - LAM) % 1.0
    # flow takes the translation in closed form; the RK4 sweep is run
    # directly on the same right-hand side
    rk4_images, _, _ = rk4_flow(_flow_rhs(g), pts, 0.0, 1.0,
                                DEFAULT_FLOW.step)
    for images in (N_MIX.wrap(flow(g, 0.0, 1.0, pts).images),
                   N_MIX.wrap(rk4_images)):
        diff = images - expect
        diff[:, 0] = (diff[:, 0] + 0.5) % 1.0 - 0.5
        assert np.abs(diff).max() <= 1e-9

    omega, F = split_pair(N_MIX)
    wavy = graph_deformation(
        N_MIX, omega, F,
        f"0.2*sin(2*pi*x1)*sin(2*pi*q) + {LAM!r}*y2")
    order = convergence_order(
        wavy, SamplePlan(count=6, seed=4).points(N_MIX))
    elapsed = time.perf_counter() - t0
    assert order >= 3.9
    assert elapsed < 5.0


def test_criterion_04_transported_form_checks():
    """Transported family: kernel contraction, zero slice, closedness probe."""
    omega, F = split_pair(N_MIX)
    g = shear_deformation(N_MIX)
    pts = SamplePlan(count=32, seed=2).points(g.y_model)
    Z = kernel_field(g).eval_batch(pts)
    expect_Z = np.array([-LAM, 0.0, 0.0, 0.0, 1.0])
    assert np.abs(Z - expect_Z[None]).max() <= 1e-12

    t = transport_brane(g, F)
    kc = t.kernel_check(SamplePlan(count=256, seed=0), tol=1e-8)
    assert kc.passed
    assert kc.residuals["kernel_contraction"] <= 1e-8
    zs = t.zero_slice_check(SamplePlan(count=256, seed=0))
    assert zs.passed
    assert zs.residuals["zero_slice"] == 0.0
    fd = t.fd_exterior_check(tol=1e-5)
    assert fd.passed
    assert fd.residuals["fd_exterior"] <= 1e-5


def test_criterion_05_slicewise_closedness_is_four_equations():
    """Slicewise closedness check agrees with the explicit second-order system."""
    cases = [
        (R4L, f"{LAM!r}*y2", True),
        (R4L, "x1^2", False),
        (N_MIX, f"{LAM!r}*y2", True),
        (N_MIX, "x1^2", False),
        (N_MIX, "cos(2*pi*x1)^2", False),
    ]
    for base, text, should_pass in cases:
        omega, F = split_pair(base)
        g = graph_deformation(base, omega, F, text)
        f = g.f
        second = {(i, j): partial(partial(f, i), j)
                  for i in range(4) for j in range(4)}
        eq1 = second[(0, 0)] + second[(1, 1)]
        eq2 = second[(2, 2)] + second[(3, 3)]
        eq3 = second[(0, 2)] + second[(1, 3)]
        eq4 = second[(0, 3)] + second[(1, 2)] * (-1.0)
        eqs = (eq1, eq2, eq3, eq4)
        oracle_pass = all(e.is_zero(1e-12) for e in eqs)
        assert oracle_pass == should_pass

        rec = closed1f_check(g)
        assert rec.passed == should_pass

        beta = closed1f_residual(g)
        expect = DifferentialForm.build(g.y_model, 2, {
            (0, 1): eq1 * (-1.0), (2, 3): eq2 * (-1.0),
            (0, 2): eq4, (1, 3): eq4,
            (0, 3): eq3 * (-1.0), (1, 2): eq3})
        assert (beta - expect).is_zero(1e-12)

    omega, F = split_pair(N_MIX)
    g_quad = graph_deformation(N_MIX, omega, F, "x1^2")
    frozen = parse_form("-2*dx1^dy1", g_quad.y_model)
    assert (closed1f_residual(g_quad) - frozen).is_zero(1e-12)


def test_criterion_06_kernel_flatness_matches_closedness():
    """Kernel-flatness trio is equivalent to closedness on a 20-form corpus."""
    E = Distribution(T5, (parse_vector("d_q", T5),))
    G = Distribution(T5, tuple(
        parse_vector(f"d_{n}", T5) for n in ("x1", "y1", "x2", "y2")))
    closed = [parse_form(t, T5) for t in (
        "dx1^dy1", "dx2^dy2", "dx1^dx2 + dy1^dy2", "-dx1^dy2 + dy1^dx2",
        "dx1^dy2 + dy1^dx2", "dx1^dx2 - dy1^dy2")]
    closed += [ext_d(parse_form(t, T5)) for t in (
        "sin(2*pi*x1)*dx2", "cos(2*pi*y1)*dy2",
        "sin(2*pi*(x1 + y2))*dx2", "cos(2*pi*x2)*dy1")]
    bumps = [parse_form(t, T5) for t in (
        "cos(2*pi*q)*dx1^dy1", "sin(2*pi*x2)*dx1^dy1",
        "cos(2*pi*x1)*dx2^dy2", "sin(2*pi*y2)*dy1^dx2",
        "cos(2*pi*y1)*dx1^dx2")]
    perturbed = [F + bumps[i % len(bumps)] for i, F in enumerate(closed)]
    corpus = [(F, True) for F in closed] + [(F, False) for F in perturbed]
    assert len(corpus) == 20

    plan = SamplePlan(count=32, seed=1)
    for F, is_closed in corpus:
        assert ext_d(F).is_zero(1e-10) == is_closed
        rec = melanie_check(F, E, G, plan=plan)
        trio = (rec.conditions["i_involutive"]
                and rec.conditions["ii_holonomy_invariant"]
                and rec.conditions["iii_leafwise_closed"])
        assert trio == rec.conditions["dF_zero"]
        assert rec.passed == is_closed


def test_criterion_07_checkers_agree_on_corpus():
    """Direct checker and graph-pair checker agree on good and broken inputs."""
    omega5, F5 = split_pair(T5)
    r2 = model_from_names([("u", LINE), ("v", LINE)])
    lagrangian = BraneCandidate(
        r2, DifferentialForm.zero(r2, 2), DifferentialForm.zero(r2, 2),
        Distribution(r2, (VectorField.basis(r2, 0), VectorField.basis(r2, 1))),
        Distribution(r2, ()))
    good = [
        codim1_candidate(T5),
        lagrangian,
        local_normal_form(1, 0),
        local_normal_form(1, 2),
        local_normal_form(2, 0),
        local_normal_form(2, 1),
    ]
    broken = [
        codim1_candidate(T5, F=omega5),
        codim1_candidate(T5, F=F5 * 2.0),
        codim1_candidate(T5, F=F5 + parse_form("0.3*dx1^dy2", T5)),
        codim1_candidate(T5, F=F5 + parse_form("dx1^dq", T5)),
        codim1_candidate(T5, F=F5 + parse_form("cos(2*pi*q)*dx1^dy1", T5)),
    ]
    plan = SamplePlan(count=256, seed=0)
    for c, expect in [(c, True) for c in good] + [(c, False) for c in broken]:
        a = check_brane(c, plan)
        b = check_brane_via_J(c, plan=plan)
        assert a.passed == b.passed == expect


def test_criterion_08_generators_checkers_and_build():
    """Hamiltonian generators pass; checkers agree; build obstructs correctly."""
    C5 = codim1_candidate(T5)
    rng = np.random.default_rng(20260823)

    corpus = []
    for _ in range(20):
        f = ScalarField.zero(T5)
        for _ in range(int(rng.integers(1, 4))):
            k = tuple(int(v) for v in rng.integers(-2, 3, size=5))
            amp = float(rng.uniform(-1.0, 1.0))
            mk = ScalarField.sine if rng.integers(2) else ScalarField.cosine
            f = f + mk(T5, k, amp)
        pair = hamiltonian_generator(f, C5)
        rec = check_infdef(pair, C5)
        assert rec.passed
        corpus.append(pair)

    lift = lambda t: parse_form(t, T5)
    zero_r = DifferentialForm.zero(T5, 1)
    corpus += [
        InfDefPair(zero_r, lift("dx1^dy1")),
        InfDefPair(zero_r, lift("dx1^dx2")),
        InfDefPair(zero_r, lift("dx1^dq")),
        InfDefPair(lift("cos(2*pi*q)*cos(2*pi*x1)*dq"),
                   DifferentialForm.zero(T5, 2)),
    ]
    for _ in range(12):
        k = tuple(int(v) for v in rng.integers(-1, 2, size=5))
        r_field = ScalarField.cosine(T5, k, float(rng.uniform(-1, 1)))
        B_field = ScalarField.sine(T5, k, float(rng.uniform(-1, 1)))
        idx = tuple(sorted(rng.choice(5, size=2, replace=False)))
        corpus.append(InfDefPair(
            DifferentialForm.build(T5, 1, {(4,): r_field}),
            DifferentialForm.basis(T5, idx) * B_field))
    verdicts = []
    for pair in corpus:
        a = check_infdef(pair, C5)
        b = infdef_general_check(pair, C5)
        assert a.passed == b.passed
        verdicts.append(a.passed)
    assert verdicts[20] is True        # constant invariant-type 2-form
    assert verdicts[21] is False       # wrong-type constant 2-form
    assert verdicts[22] is False       # kernel-direction leak in B
    assert verdicts[23] is False       # coupled speeds with no 2-form

    with pytest.raises(AverageObstruction) as err:
        build_infdef(parse_field("cos(2*pi*x1)^2", T5),
                     DifferentialForm.zero(T4, 2), C5)
    assert err.value.residual > 1.0

    CMIX = codim1_candidate(MIX_Q)
    built = build_infdef(parse_field(f"{LAM!r}*y2", MIX_Q),
                         DifferentialForm.zero(N_MIX, 2), CMIX)
    expect_B = parse_form(f"-{LAM!r}*dx2^dq", MIX_Q)
    assert (built.B - expect_B).is_zero(1e-12)
    assert check_infdef(built, CMIX).passed
    assert infdef_general_check(built, CMIX).passed


def test_criterion_09_averaged_speed_membership():
    """Averaged kernel speeds: elliptic-system route and Lie route agree."""
    omega4, F4 = split_pair(T4)
    cases = [
        (parse_form("0.7*dq", T5), True),
        (DifferentialForm.build(
            T5, 1, {(4,): partial(parse_field("sin(2*pi*q)", T5), 4)}), True),
        (parse_form("cos(2*pi*x1)^2*dq", T5), False),
    ]
    for r, expect in cases:
        rec = upsilon_image_check(r, omega4, F4)
        assert rec.passed == expect
        assert rec.conditions["routes_agree"]


def test_criterion_10_truncated_complex_rank_oracle():
    """Truncated complex: chain property holds and the defect count is four."""
    omega, F = split_pair(T4)
    cand = BraneCandidate(
        T4, omega, F, Distribution(T4, ()),
        Distribution(T4, tuple(VectorField.basis(T4, i) for i in range(4))))
    t0 = time.perf_counter()
    for T in (0, 1, 2):
        sl = complex_slice(cand, truncation=T)
        if sl.d0.size:
            assert float(np.abs(sl.d1 @ sl.d0).max()) <= 1e-10
        ker1, rank0, h1 = oracle_summary(T)
        assert (sl.dim_ker_d1, sl.rank_d0) == (ker1, rank0)
        assert sl.h1 == h1 == 4
    assert time.perf_counter() - t0 < 60.0


def test_criterion_11_suspension_consistency():
    """Suspension checks: exact stillness, shear within tolerance of closed form."""
    omega, F = split_pair(N_MIX)
    still = graph_deformation(N_MIX, omega, F, "0")
    rec0 = mapping_torus_check(still, F)
    assert rec0.passed
    assert max(rec0.residuals.values()) == 0.0

    g = shear_deformation(N_MIX)
    rec1 = mapping_torus_check(g, F)
    assert rec1.passed
    assert max(rec1.residuals.values()) <= 1e-8

    # the transported family of the shear has a constant closed form:
    # pull the split 2-form back through [Id | lam e1]
    t = transport_brane(g, F)
    _, M = t.matrices_at(SamplePlan(count=64, seed=5).points(g.y_model))
    C = np.hstack([np.eye(4), LAM * np.eye(4)[:, :1]])
    expect = C.T @ F.constant_gram() @ C
    assert np.abs(M - expect[None]).max() <= 1e-8
