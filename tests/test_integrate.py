"""The compiled right-hand side of the RK4 flow and its per-step checks."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from branelab.fields import ScalarField, partial
from branelab.grammar import parse_form
from branelab.integrate import FlowError, _RHS, rk4_flow
from branelab.model import (CIRCLE, LINE, FlowOptions, SamplePlan,
                            extend_with_circle, model_from_names)
from branelab.nearby import (TransportedForm, _velocity, graph_deformation,
                             mapping_torus_check)

N_MIX = model_from_names([("x1", CIRCLE), ("y1", LINE),
                          ("x2", LINE), ("y2", LINE)])
Y = extend_with_circle(N_MIX, "q")
N_IDX = (0, 1, 2, 3)
Q = 4
OMEGA_N = parse_form("dx1^dy2 + dy1^dx2", N_MIX)
F_N = parse_form("dx1^dx2 - dy1^dy2", N_MIX)

# a family-(b)-style speed: trig in (x1, q), at most linear in the lines
FAMILY_B = ("0.37*cos(2*pi*(x1 - 2*q)) + 0.21*y1*sin(2*pi*(2*x1 + q)) "
            "- 0.13*x2*cos(2*pi*x1) + 0.29*y2*sin(2*pi*(x1 - q))")
# blows up before q = 1 on N_MIX: near x1 = 3/4, dy2/dq ~ 1.26 y2^2
BLOWUP = "0.2*cos(2*pi*x1)*y2^2 + 0.1*sin(2*pi*q)*y1*x2"


@st.composite
def term(draw):
    powers = (0,) + tuple(draw(st.integers(0, 3)) for _ in range(3)) + (0,)
    freqs = (draw(st.integers(-2, 2)), 0, 0, 0, draw(st.integers(-2, 2)))
    phase = draw(st.integers(0, 1))
    coeff = draw(st.floats(-2.0, 2.0, allow_nan=False).filter(
        lambda c: abs(c) > 1e-3))
    return (powers, freqs, phase), coeff


@st.composite
def speed_component(draw):
    kind = draw(st.sampled_from(("zero", "constant", "terms")))
    if kind == "zero":
        return ScalarField.zero(Y)
    if kind == "constant":
        return ScalarField.constant(Y, draw(st.floats(-3.0, 3.0)))
    return ScalarField.build(Y, dict(draw(st.lists(term(), min_size=1,
                                                   max_size=6))))


@settings(max_examples=60, deadline=None)
@given(st.lists(speed_component(), min_size=4, max_size=4),
       st.integers(0, 2**32 - 1))
def test_term_bank_matches_per_field_evaluation(comps, seed):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, size=(7, 4))
    q = float(rng.uniform(0.0, 1.0))
    pts = np.column_stack([x, np.full(7, q)])
    rhs = _RHS(comps, N_IDX, Q)
    v, A = rhs(x, q, True)
    v_only, none = rhs(x, q, False)
    assert none is None
    v_ref = np.stack([c.eval_batch(pts) for c in comps], axis=1)
    A_ref = np.stack([np.stack([partial(c, j).eval_batch(pts) for j in N_IDX],
                               axis=1) for c in comps], axis=1)
    for got, ref in ((v, v_ref), (v_only, v_ref), (A, A_ref)):
        scale = max(1.0, float(np.abs(ref).max(initial=0.0)))
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12 * scale)


def _reference_step(vel, jac, x, J, q, h):
    """Textbook RK4 on (x, J), every field evaluated on its own."""
    def V(x, q):
        pts = np.column_stack([x, np.full(x.shape[0], q)])
        return np.stack([c.eval_batch(pts) for c in vel], axis=1)

    def A(x, q):
        pts = np.column_stack([x, np.full(x.shape[0], q)])
        return np.stack([np.stack([f.eval_batch(pts) for f in row], axis=1)
                         for row in jac], axis=1)

    k1 = V(x, q)
    k2 = V(x + 0.5 * h * k1, q + 0.5 * h)
    k3 = V(x + 0.5 * h * k2, q + 0.5 * h)
    k4 = V(x + h * k3, q + h)
    K1 = A(x, q) @ J
    K2 = A(x + 0.5 * h * k1, q + 0.5 * h) @ (J + 0.5 * h * K1)
    K3 = A(x + 0.5 * h * k2, q + 0.5 * h) @ (J + 0.5 * h * K2)
    K4 = A(x + h * k3, q + h) @ (J + h * K3)
    x_new = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return x_new, J + (h / 6.0) * (K1 + 2.0 * K2 + 2.0 * K3 + K4)


def test_flow_matches_a_per_field_reference_step():
    g = graph_deformation(N_MIX, OMEGA_N, F_N, FAMILY_B)
    vel = _velocity(g)
    jac = [[partial(c, j) for j in N_IDX] for c in vel]
    x0 = SamplePlan(count=12, seed=5).points(N_MIX)
    steps = 64
    x, J = x0, np.broadcast_to(np.eye(4), (12, 4, 4)).copy()
    for s in range(steps):
        x, J = _reference_step(vel, jac, x, J, s / steps, 1.0 / steps)
    images, tangents, n = rk4_flow(vel, N_IDX, x0, 0.0, 1.0, 1.0 / steps,
                                   q_index=Q)
    assert n == steps
    assert np.abs(images - x).max() < 1e-12
    assert np.abs(tangents - J).max() < 1e-12
    plain, none, _ = rk4_flow(vel, N_IDX, x0, 0.0, 1.0, 1.0 / steps,
                              q_index=Q, with_jacobian=False)
    assert none is None
    assert np.abs(plain - x).max() < 1e-12


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
def test_blow_up_stops_at_the_first_non_finite_step():
    vel = _velocity(graph_deformation(N_MIX, OMEGA_N, F_N, BLOWUP))
    seeds = np.array([[0.0, 0.0, 0.0, 0.0], [0.75, 0.5, 0.5, 0.9]])
    with pytest.raises(FlowError) as err:
        rk4_flow(vel, N_IDX, seeds, 0.0, 1.0, 1.0 / 64, q_index=Q)
    msg = str(err.value)
    step = int(msg.split()[4])
    assert msg == (f"non-finite state at step {step} (q = {step / 64:g}) "
                   "on the trajectory of seed point (0.75, 0.5, 0.5, 0.9)")
    # the state one step earlier is still finite
    q = (step - 1) / 64
    before, _, _ = rk4_flow(vel, N_IDX, seeds, 0.0, q, 1.0 / 64, q_index=Q)
    assert np.isfinite(before).all()


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
def test_backward_and_mapping_torus_sweeps_check_every_step():
    g = graph_deformation(N_MIX, OMEGA_N, F_N, BLOWUP)
    opts = FlowOptions(step=1 / 64)
    tf = TransportedForm(g, F_N, opts=opts)
    pts = np.array([[0.1, 0.2, 0.3, 0.4, 0.5], [0.25, 0.0, 0.0, 1.0, 0.95]])
    with pytest.raises(FlowError) as err:
        tf.matrices_at(pts)
    assert str(err.value) == (
        "non-finite state at step 54 (q = 0.109375) on the trajectory of "
        "seed point (0.25, 0, 0, 1, 0.95)")
    with pytest.raises(FlowError) as err:
        mapping_torus_check(g, F_N, plan=SamplePlan(count=32, seed=1),
                            opts=opts, transported=tf)
    assert str(err.value) == (
        "non-finite state at step 57 (q = 0.890625) on the trajectory of "
        "seed point (0.278991, 0.569581, -0.0873428, -0.946625, 0.640625)")


def test_backward_sweep_matches_single_point_solves():
    g = graph_deformation(N_MIX, OMEGA_N, F_N, FAMILY_B)
    tf = TransportedForm(g, F_N)
    pts = SamplePlan(count=6, seed=2).points(Y)
    pts[0, Q] = 0.0
    snapped, M = tf.matrices_at(pts)
    for p, Mp in zip(snapped, M):
        assert np.abs(Mp - tf.matrix_at(p)).max() < 1e-11
    assert np.abs(M[0][:4, :4] - F_N.gram_at(pts[0, :4])).max() == 0.0
