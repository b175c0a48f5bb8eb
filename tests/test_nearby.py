"""Graph deformations: kernel field, circle flow, transported forms."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from branelab import forms, integrate, nearby
from branelab import model as model_module
from branelab.brane import lift_form
from branelab.cli import _config_from, make_parser, resolve_scene, run_scene
from branelab.fields import COS, SIN, ScalarField, TermBank
from branelab.forms import DifferentialForm, Distribution, ext_d, interior
from branelab.grammar import parse_form, parse_vector
from branelab.model import (CIRCLE, LINE, FlowOptions, SamplePlan,
                            extend_with_circle, model_from_names)
from branelab.nearby import (BraneObstruction, closed1f_check,
                             closed1f_residual, convergence_order, flow,
                             graph_deformation, invariance_check, kernel_field,
                             mapping_torus_check, melanie_check, omega_f,
                             transport_brane)

LAM = float(math.sqrt(2) - 1)

N_MIX = model_from_names([("x1", CIRCLE), ("y1", LINE),
                          ("x2", LINE), ("y2", LINE)])
OMEGA_N = parse_form("dx1^dy2 + dy1^dx2", N_MIX)
F_N = parse_form("dx1^dx2 - dy1^dy2", N_MIX)


def shear():
    return graph_deformation(N_MIX, OMEGA_N, F_N, f"{LAM!r}*y2")


def wavy(eps=0.05):
    return graph_deformation(
        N_MIX, OMEGA_N, F_N,
        f"{eps!r}*sin(2*pi*x1)*sin(2*pi*q) + {LAM!r}*y2")


def test_factory_parses_f_on_extended_model():
    g = shear()
    assert g.y_model.dim == 5
    assert g.q_index == 4
    assert g.f.model == g.y_model


def test_omega_f_is_base_form_minus_d_f_dq():
    g = shear()
    w = omega_f(g)
    manual = lift_form(OMEGA_N, g.y_model, [0, 1, 2, 3]) - ext_d(
        DifferentialForm.build(g.y_model, 1, {(4,): g.f}))
    assert (w - manual).is_zero(1e-12)


def test_kernel_field_annihilates_deformed_form():
    for g in (shear(), wavy()):
        rem = interior(kernel_field(g), omega_f(g))
        assert rem.is_zero(1e-10)


def test_slicewise_hamiltonian_shear_is_circle_translation():
    X = shear().hamiltonian
    assert np.allclose(X.constant_vector(),
                       [LAM, 0.0, 0.0, 0.0, 0.0], atol=1e-15)


def test_flow_of_shear_is_exact_translation():
    g = shear()
    pts = SamplePlan(count=32, seed=1).points(N_MIX)
    fr = flow(g, 0.0, 1.0, pts)
    expect = pts.copy()
    expect[:, 0] = (expect[:, 0] - LAM) % 1.0
    got = N_MIX.wrap(fr.images)
    assert np.abs(got - expect).max() < 1e-12
    assert np.abs(fr.jacobians - np.eye(4)).max() < 1e-12


def test_flow_segments_compose():
    g = wavy()
    pts = SamplePlan(count=8, seed=2).points(N_MIX)
    ab = flow(g, 0.0, 0.5, pts)
    bc = flow(g, 0.5, 1.0, ab.images)
    whole = flow(g, 0.0, 1.0, pts)
    assert np.abs(bc.images - whole.images).max() < 1e-11


def test_flow_jacobian_matches_finite_difference():
    g = wavy()
    p = np.array([[0.3, 0.2, -0.1, 0.4]])
    J = flow(g, 0.0, 1.0, p).jacobians[0]
    h = 1e-6
    for i in range(4):
        e = np.zeros(4); e[i] = h
        plus = flow(g, 0.0, 1.0, p + e).images[0]
        minus = flow(g, 0.0, 1.0, p - e).images[0]
        assert np.abs((plus - minus) / (2 * h) - J[:, i]).max() < 1e-6


def test_flow_preserves_base_symplectic_form():
    fr = flow(wavy(), 0.0, 1.0, SamplePlan(count=16, seed=3).points(N_MIX))
    assert fr.symplectic_residuals.max() < 1e-10


def test_invariance_holds_for_shear():
    fr = flow(shear(), 0.0, 1.0, SamplePlan(count=32, seed=1).points(N_MIX))
    assert invariance_check(F_N, fr, 1e-9).passed


def test_invariance_fails_for_vertical_push():
    """f = eps cos(2 pi x1) shears y2 by a slope that twists F_N."""
    g = graph_deformation(N_MIX, OMEGA_N, F_N, "0.01*cos(2*pi*x1)")
    fr = flow(g, 0.0, 1.0, SamplePlan(count=32, seed=1).points(N_MIX))
    rec = invariance_check(F_N, fr, 1e-9)
    assert not rec.passed
    assert rec.witnesses  # worst offending sample is reported


def test_transport_kernel_and_slice():
    t = transport_brane(shear(), F_N)
    assert t.kernel_check().passed
    assert t.zero_slice_check().passed
    assert t.fd_exterior_check().passed


def test_fd_exterior_witness_is_the_first_worst_probe(monkeypatch):
    """The residual and witness of the check against the loop over probes
    and increasing index triples, on matrices where probes tie."""
    t = transport_brane(shear(), F_N)
    dY, m = 5, 8
    A = np.random.default_rng(0).standard_normal((dY, 2, 1, dY, dY))
    A = A - np.swapaxes(A, -1, -2)

    def loop(M, h):
        M = M.reshape(dY, 2, m, dY, dY)
        dM = np.transpose((M[:, 0] - M[:, 1]) / (2.0 * h), (1, 0, 2, 3))
        worst, worst_at = 0.0, 0
        for i in range(m):
            for a in range(dY):
                for b in range(a + 1, dY):
                    for c in range(b + 1, dY):
                        v = dM[i, a, b, c] - dM[i, b, a, c] + dM[i, c, a, b]
                        if abs(v) > worst:
                            worst, worst_at = abs(v), i
        return worst, worst_at

    for scale, first_worst in (([1.0] * 8, 0),
                               ([1.0] * 5 + [3.0, 1.0, 3.0], 5)):
        M = (A * np.array(scale)[:, None, None]).reshape(-1, dY, dY)
        asked = []
        monkeypatch.setattr(t, "matrices_at",
                            lambda pts: (asked.append(pts), (pts, M))[1])
        rec = t.fd_exterior_check(tol=0.0)
        h = rec.details["fd_step"]
        assert loop(M, h) == (rec.residuals["fd_exterior"], first_worst)
        probe = asked[0][first_worst] - h * np.eye(dY)[0]
        assert np.allclose(rec.witnesses[0]["point"], probe)


def test_transport_obstruction_raised_for_twisting_f():
    g = graph_deformation(N_MIX, OMEGA_N, F_N, "0.01*cos(2*pi*x1)")
    with pytest.raises(BraneObstruction) as err:
        transport_brane(g, F_N)
    assert err.value.residual is not None


def test_cached_obstruction_raises_identically():
    nearby._gate.cache_clear()
    g = graph_deformation(N_MIX, OMEGA_N, F_N, "0.01*cos(2*pi*x1)")
    raised = []
    for _ in range(2):
        with pytest.raises(BraneObstruction) as err:
            transport_brane(g, F_N)
        raised.append(err.value)
    first, second = raised
    assert nearby._gate.cache_info()[:2] == (1, 1)  # (hits, misses)
    assert str(second) == str(first)
    assert second.point == first.point and second.point is not first.point
    assert second.residual == first.residual


def test_closed1f_shear_passes_quadratic_fails():
    assert closed1f_check(shear()).passed
    g2 = graph_deformation(N_MIX, OMEGA_N, F_N, "x1^2")
    rec = closed1f_check(g2)
    assert not rec.passed
    assert "per_q_max" in rec.details


def test_closed1f_residual_of_quadratic_is_explicit():
    """f = x1^2 leaves the closed 2-form residual -2 dx1^dy1 exactly."""
    g = graph_deformation(N_MIX, OMEGA_N, F_N, "x1^2")
    beta = closed1f_residual(g)
    expect = parse_form("-2*dx1^dy1", g.y_model)
    assert (beta - expect).is_zero(1e-12)


def test_melanie_rejects_nonhorizontal_form():
    y5 = extend_with_circle(N_MIX, "q")
    F = parse_form("dx1^dq", y5)
    E = Distribution(y5, (parse_vector("d_q", y5),))
    G = Distribution(y5, tuple(
        parse_vector(f"d_{n}", y5) for n in ("x1", "y1", "x2", "y2")))
    with pytest.raises(ValueError):
        melanie_check(F, E, G)


def test_melanie_verdict_tracks_closedness():
    y5 = extend_with_circle(N_MIX, "q")
    F = parse_form("dx1^dx2 - dy1^dy2", y5)
    E = Distribution(y5, (parse_vector("d_q", y5),))
    G = Distribution(y5, tuple(
        parse_vector(f"d_{n}", y5) for n in ("x1", "y1", "x2", "y2")))
    good = melanie_check(F, E, G)
    assert good.passed and good.conditions["dF_zero"]
    bad = melanie_check(F + parse_form("cos(2*pi*q)*dx1^dy1", y5), E, G)
    assert not bad.passed
    assert not bad.conditions["ii_holonomy_invariant"]
    assert not bad.conditions["dF_zero"]


def test_mapping_torus_still_and_shear():
    still = graph_deformation(N_MIX, OMEGA_N, F_N, "0")
    rec0 = mapping_torus_check(still, F_N)
    assert rec0.passed
    assert max(rec0.residuals.values()) == 0.0
    rec1 = mapping_torus_check(shear(), F_N)
    assert rec1.passed
    assert max(rec1.residuals.values()) <= 1e-8


def test_failing_mapping_torus_record_names_its_worst_sample():
    """The five-point stencil of d/dq, one flow step apart, misses the
    wavy speed by about 3e-11 at the default step, within the default
    1e-8; a tol below that fails only the pushforward, at the sample that
    gives it, while both pullbacks stay at rounding."""
    g, plan = wavy(), SamplePlan(count=16, seed=0)
    ok = mapping_torus_check(g, F_N, plan=plan)
    assert ok.passed
    r = ok.residuals["pushforward"]
    assert 1e-12 < r < 1e-10
    rec = mapping_torus_check(g, F_N, plan=plan, tol=r / 2)
    assert not rec.passed
    assert rec.conditions == {"pushes_dq_to_kernel": False,
                              "omega_f_pulls_back": True,
                              "transported_pulls_back": True}
    pts = plan.points(g.y_model)
    pts[:, 4] = np.rint(pts[:, 4] * 1024) / 1024
    witness, = rec.witnesses
    assert witness["label"] == "mapping_torus"
    assert witness["residual"] == rec.residuals["pushforward"] == r
    assert witness["point"] in pts.tolist()


def test_failing_transport_kernel_record_names_its_worst_sample():
    """The gate of the wavy speed passes only at a loose tol; the kernel
    contraction is rounding, and a tol below its worst value fails it at
    the sample that gives that value."""
    g, plan = wavy(), SamplePlan(count=16, seed=0)
    t = transport_brane(g, F_N, tol=1.0)
    pts, M = t.matrices_at(plan.points(g.y_model))
    r = np.abs(np.einsum("kab,kb->ka", M,
                         kernel_field(g).eval_batch(pts))).max(axis=1)
    assert 0.0 < r.max() < 1e-12
    assert t.kernel_check(plan, tol=r.max()).passed
    rec = t.kernel_check(plan, tol=r.max() / 2)
    assert not rec.passed
    assert rec.residuals == {"kernel_contraction": r.max()}
    assert rec.witnesses == [{"point": pts[np.argmax(r)].tolist(),
                              "residual": r.max(), "label": "kernel"}]


# x1, y1 and a rank-2 kernel frame in the a, c plane
R4 = model_from_names([("x1", LINE), ("y1", LINE), ("a", LINE), ("c", LINE)])


def _melanie_record(monkeypatch, F, E):
    """Run melanie_check on R4 with G = span{d_x1, d_y1}; also return the
    sample plan and whether any sample point was drawn."""
    drawn = []
    halton = model_module._halton
    monkeypatch.setattr(model_module, "_halton",
                        lambda *args: drawn.append(args) or halton(*args))
    F = parse_form(F, R4)
    E = Distribution(R4, tuple(parse_vector(v, R4) for v in E.split(";")))
    G = Distribution(R4, (parse_vector("d_x1", R4),
                          parse_vector("d_y1", R4)))
    plan = SamplePlan(count=16, seed=0)
    return melanie_check(F, E, G, plan=plan), plan, bool(drawn)


@pytest.mark.parametrize("F,E,involutive", [
    # [d_a + c d_c, d_c] = -d_c lies in the frame's span
    ("dx1^dy1", "d_a + c*d_c ; d_c", True),
    # the kernel of dx1^(dy1 - a dc): [d_a, d_c + a d_y1] = d_y1 leaves it
    ("dx1^dy1 - a*dx1^dc", "d_a ; d_c + a*d_y1", False)])
def test_melanie_brackets_a_rank_two_kernel_frame(monkeypatch, F, E,
                                                  involutive):
    rec, plan, drawn = _melanie_record(monkeypatch, F, E)
    assert rec.mode == "SAMPLED" and drawn
    assert rec.conditions["i_involutive"] is involutive
    # E is the kernel of F, so involutivity goes with closedness
    assert rec.passed is involutive
    assert rec.conditions["dF_zero"] is involutive
    # d_y1 lies 1/sqrt(1 + a^2) from span{d_a, d_c + a d_y1}, farthest at
    # the sample with the smallest |a|
    pts = plan.points(R4)
    a = pts[:, 2]
    want = 0.0 if involutive else float(np.max(1.0 / np.sqrt(1.0 + a * a)))
    assert rec.residuals["bracket_span"] == pytest.approx(want, abs=1e-15)
    assert rec.witnesses == ([] if involutive else [{
        "point": pts[np.argmin(np.abs(a))].tolist(),
        "residual": rec.residuals["bracket_span"], "label": "bracket_span"}])


def test_melanie_decides_a_constant_bracket_without_a_sample(monkeypatch):
    # [d_a, d_c] is the zero field: decided without a sample
    rec, _, drawn = _melanie_record(monkeypatch, "dx1^dy1", "d_a ; d_c")
    assert rec.mode == "EXACT" and not drawn
    assert rec.passed is True
    assert rec.conditions["i_involutive"] is True
    assert rec.conditions["dF_zero"] is True
    assert rec.residuals["bracket_span"] == pytest.approx(0.0, abs=1e-15)
    assert rec.witnesses == []


def test_convergence_order_nonlinear_at_least_rk4():
    pts = SamplePlan(count=6, seed=4).points(N_MIX)
    order = convergence_order(wavy(0.2), pts)
    assert order >= 3.9


def test_convergence_order_degenerate_sequence_raises():
    with pytest.raises(ValueError):
        convergence_order(shear(), SamplePlan(count=4, seed=4).points(N_MIX))


def test_flow_options_step_controls_node_count():
    g = wavy()
    pts = np.array([[0.1, 0.0, 0.0, 0.0]])
    fr = flow(g, 0.0, 1.0, pts, FlowOptions(step=1 / 128))
    assert fr.steps == 128


# -- translation flows: closed form, and RK4 as its cross-check -----------


@pytest.mark.parametrize("speed", [
    # family (b)'s shape: trig in (x1, q), at most linear in the lines
    "0.07*cos(2*pi*(x1 + q)) + 0.05*y1*sin(2*pi*(2*x1 - q)) "
    "- 0.03*y2*cos(2*pi*x1)",
    # the velocity depends on q alone, but through a power of q
    "q*y2"])
def test_other_flows_take_the_rk4_sweep(rk4_steps, speed):
    g = graph_deformation(N_MIX, OMEGA_N, F_N, speed)
    assert isinstance(g.solver, integrate._RHS)
    pts = SamplePlan(count=8, seed=2).points(N_MIX)
    fr = flow(g, 0.0, 1.0, pts, FlowOptions(step=1 / 64))
    assert rk4_steps == list(range(1, 65))
    assert fr.shift is None and fr.steps == 64
    images, jacs, _ = integrate.rk4_flow(nearby._flow_rhs(g), pts, 0.0, 1.0,
                                         1 / 64)
    assert np.array_equal(fr.images, images)
    assert np.array_equal(fr.jacobians, jacs)
    assert invariance_check(F_N, fr).mode == "SAMPLED"


def test_a_deformation_derives_its_flow_data_once(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return forms.hamiltonian(*args)

    monkeypatch.setattr(nearby, "hamiltonian", counted)
    nearby._gate.cache_clear()
    scene = resolve_scene("lambda_shear")
    cfg = _config_from(scene, make_parser().parse_args(
        ["run", "lambda_shear", "--steps", "512"]))
    assert run_scene(scene, cfg).all_passed
    assert len(calls) == 1
    g = scene.lookup("deforms", "shear")
    assert isinstance(g.solver, TermBank) and g.solver is g.solver


def test_translation_flow_is_closed_form(rk4_steps):
    pts = SamplePlan(count=8, seed=2).points(N_MIX)
    fr = flow(shear(), 0.0, 1.0, pts)
    assert rk4_steps == [] and fr.steps == 0
    assert np.array_equal(fr.shift, [-LAM, 0.0, 0.0, 0.0])
    assert np.array_equal(fr.jacobians, np.broadcast_to(np.eye(4), (8, 4, 4)))
    assert np.array_equal(fr.symplectic_residuals, np.zeros(8))
    rec = invariance_check(F_N, fr)
    assert rec.passed and rec.mode == "EXACT"
    assert rec.residuals == {"symplectic": 0.0, "invariance": 0.0}


def test_exact_invariance_fails_a_form_the_translation_moves():
    """The shear moves x1 by -LAM, so a form with an x1 wave is not kept;
    the time-1 gate then raises without a witness point."""
    F = parse_form("dx1^dx2 - dy1^dy2 + 0.1*cos(2*pi*x1)*dx1^dy1", N_MIX)
    fr = flow(shear(), 0.0, 1.0, SamplePlan(count=8, seed=2).points(N_MIX))
    rec = invariance_check(F, fr)
    assert rec.mode == "EXACT" and not rec.passed and not rec.witnesses
    # |cos(2 pi (x1 - LAM)) - cos(2 pi x1)| in coefficients
    moved = 0.1 * max(abs(math.cos(2 * math.pi * LAM) - 1),
                      abs(math.sin(2 * math.pi * LAM)))
    assert rec.residuals["invariance"] == pytest.approx(moved, rel=1e-12)
    with pytest.raises(BraneObstruction) as err:
        transport_brane(shear(), F)
    assert err.value.point is None
    assert err.value.residual == rec.residuals["invariance"]


HARMONICS = st.lists(st.floats(-1.0, 1.0), min_size=5, max_size=5)
Y_MIX = extend_with_circle(N_MIX, "q")


def affine_speed(coeffs) -> ScalarField:
    """sum_j a_j(q) ell_j + b(q) over the lines y1, x2, y2, each of a_j and
    b given by its coefficients of 1, cos, sin (2 pi q), cos, sin (4 pi q)."""
    raw = {}
    for c, ell in zip(coeffs, (1, 2, 3, None)):
        p = tuple(int(i == ell) for i in range(5))
        for (k, phase), a in zip(((0, COS), (1, COS), (1, SIN), (2, COS),
                                  (2, SIN)), c):
            raw[(p, (0, 0, 0, 0, k), phase)] = a
    return ScalarField.build(Y_MIX, raw)


@settings(max_examples=30, deadline=None)
@given(st.lists(HARMONICS, min_size=4, max_size=4),
       st.integers(0, 15), st.integers(1, 16))
def test_exact_translation_agrees_with_rk4(coeffs, start, length):
    """For random speeds affine in the lines, the closed-form images lie
    within RK4's step-doubling distance of RK4 at the half step, and RK4's
    tangent maps are the identity."""
    g = graph_deformation(N_MIX, OMEGA_N, F_N, affine_speed(coeffs))
    q0, q1 = start / 16, min(start + length, 16) / 16
    pts = SamplePlan(count=8, seed=5).points(N_MIX)
    exact = flow(g, q0, q1, pts)
    assert exact.shift is not None
    rhs = nearby._flow_rhs(g)
    (coarse, J1, _), (fine, J2, _) = (
        integrate.rk4_flow(rhs, pts, q0, q1, h) for h in (1 / 16, 1 / 32))
    assert (np.abs(exact.images - fine).max()
            <= np.abs(coarse - fine).max() + 1e-12)
    assert np.array_equal(J1, exact.jacobians)
    assert np.array_equal(J2, exact.jacobians)
