"""Codimension-one graph deformations: the deformed presymplectic form,
its kernel line, time-dependent Hamiltonian flows, flow transport of a
transverse brane form, the kernel/holonomy closedness criterion, and the
mapping-torus consistency check.

Conventions: Y = N x S^1 with the circle coordinate q appended after the N
coordinates; the musical isomorphism solves interior(X, omega) = xi; the
flow integrates dx/dq = -X_{f_q} so its time-1 map is the holonomy of the
kernel line of the deformed form.

Two kinds of flow.  When every term of the velocity -X_{f_q} depends on q
alone, with no power of q (f affine in the N coordinates with coefficients
that are trig polynomials in q), the flow is a translation: a state at q
is x + D(q) - D(q0), with D the exact antiderivative of the velocity in q,
and every tangent map is the identity.  flow, the backward transport solves
and the mapping-torus stations take that closed form, and invariance is
then decided exactly, by translating the transverse form's coefficients.
Every other flow is one RK4 sweep with tangent maps (integrate).

omega_N must be constant: each coefficient has only the constant term
(the fields module's rule).  A deformation derives its Hamiltonian field
and its solver once, on first use; every flow and check reads those.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from . import integrate
from .brane import lift_form
from .fields import (ScalarField, TermBank, VectorField, linear_map, partial,
                     q_antiderivative, substitute, translate)
from .forms import (DifferentialForm, Distribution, bracket_span_residual,
                    endo_from_pair, ext_d, frame_residual, hamiltonian,
                    horizontal_d, interior, lie_derivative)
from .model import (DEFAULT_FLOW, DEFAULT_PLAN, DEFAULT_TOL, EXACT_ZERO,
                    SUBSPACE, FlowOptions, ManifoldModel, SamplePlan,
                    extend_with_circle)
from .report import EXACT, SAMPLED, CheckResult


class BraneObstruction(Exception):
    """The time-1 flow fails to preserve the transverse form, so no
    invariant extension exists."""

    def __init__(self, msg, point=None, residual=None):
        super().__init__(msg)
        self.point = point
        self.residual = residual


@dataclass(frozen=True)
class GraphDeformation:
    """Deformation data on Y = N x S^1: base forms on N and the deforming
    function f on Y (f_q denotes its restriction to the slice N x {q}).
    hamiltonian and solver are derived once, on first use."""

    N_model: ManifoldModel
    omega_N: DifferentialForm
    F_N: DifferentialForm | None
    f: ScalarField
    y_model: ManifoldModel
    q_index: int

    @property
    def n_dim(self) -> int:
        return self.N_model.dim

    @property
    def n_indices(self) -> tuple[int, ...]:
        return tuple(range(self.N_model.dim))

    @functools.cached_property
    def hamiltonian(self) -> VectorField:
        """The slicewise Hamiltonian field: X with interior(X, omega_N) =
        d_N f on each slice N x {q}.  omega_N must be constant and pass
        the condition gate."""
        W = self.omega_N.constant_gram()
        if W is None:
            raise ValueError(
                "slicewise Hamiltonian field needs constant omega_N")
        y = self.y_model
        X = hamiltonian(W, [partial(self.f, j) for j in self.n_indices], y,
                        "constant form")
        return VectorField(y, X + (ScalarField.zero(y),))

    @functools.cached_property
    def solver(self) -> TermBank | integrate._RHS:
        """How the flow is solved.  When every velocity term depends on q
        alone with no power of q, the flow is a translation and this is
        the bank of D(q) = integral from 0 to q of the velocity, one field
        per N coordinate; otherwise it is the compiled RK4 right-hand
        side."""
        v = _velocity(self)
        if any(any(p) or any(k[:self.q_index])
               for c in v for (p, k, _), _ in c.terms):
            return _flow_rhs(self)
        return TermBank([q_antiderivative(c, self.q_index) for c in v],
                        self.y_model.dim)


def graph_deformation(N_model: ManifoldModel, omega_N: DifferentialForm,
                      F_N: DifferentialForm | None, f,
                      q_name: str = "q") -> GraphDeformation:
    y_model = extend_with_circle(N_model, q_name)
    if isinstance(f, str):
        from .grammar import parse_field
        f = parse_field(f, y_model)
    if isinstance(f, (int, float)):
        f = ScalarField.constant(y_model, f)
    if f.model != y_model:
        raise ValueError("f must live on the extended model N x S^1")
    return GraphDeformation(N_model, omega_N, F_N, f, y_model,
                            N_model.dim)


def omega_f(g: GraphDeformation) -> DifferentialForm:
    """The deformed presymplectic form: pullback of omega_N minus d(f dq)."""
    y = g.y_model
    f_dq = DifferentialForm.build(y, 1, {(g.q_index,): g.f})
    return lift_form(g.omega_N, y, g.n_indices) - ext_d(f_dq)


def kernel_field(g: GraphDeformation) -> VectorField:
    """The kernel generator of the deformed form: d/dq minus the slicewise
    Hamiltonian field of f."""
    return VectorField.basis(g.y_model, g.q_index) - g.hamiltonian


@dataclass
class FlowResult:
    """A flow's images and tangent maps.  steps counts RK4 steps.  shift
    is the displacement D(q1) - D(q0) of a translation flow, which takes
    no RK4 step, and None for an RK4 flow."""
    points: np.ndarray
    images: np.ndarray
    jacobians: np.ndarray
    steps: int
    symplectic_residuals: np.ndarray
    shift: np.ndarray | None = None


def _velocity(g: GraphDeformation):
    """-X_{f_q} on the N coordinates."""
    return tuple(-g.hamiltonian.components[i] for i in g.n_indices)


def _flow_rhs(g: GraphDeformation) -> integrate._RHS:
    """The compiled right-hand side of dx/dq = -X_{f_q}."""
    return integrate._RHS(_velocity(g), g.n_indices, g.q_index)


def _moved(D: TermBank, g: GraphDeformation, q_from, q_to) -> np.ndarray:
    """D(q_to) - D(q_from) for q arrays of one shape, through one bank
    call: the translation that carries a state from q_from to q_to."""
    q_from, q_to = np.broadcast_arrays(np.asarray(q_from, float),
                                       np.asarray(q_to, float))
    pts = np.zeros((2 * q_to.size, g.y_model.dim))
    pts[:, g.q_index] = np.concatenate([q_to.ravel(), q_from.ravel()])
    vals = D(pts)
    return (vals[:q_to.size] - vals[q_to.size:]).reshape(q_to.shape
                                                         + (g.n_dim,))


def _identities(m: int, n: int) -> np.ndarray:
    return np.broadcast_to(np.eye(n), (m, n, n))


def flow(g: GraphDeformation, q0: float, q1: float, points,
         opts: FlowOptions = DEFAULT_FLOW) -> FlowResult:
    """The flow of dx/dq = -X_{f_q} from q0 to q1, with tangent maps.

    A translation flow (see GraphDeformation.solver) moves every point by
    D(q1) - D(q0) with identity tangent maps, in closed form; any other
    flow is one RK4 sweep of the points with their tangent maps.
    symplectic_residuals[i] is the largest entry of
    J^T omega_N J - omega_N at point i, the built-in probe of an RK4 flow
    (exactly 0 for a translation)."""
    pts = np.atleast_2d(np.asarray(points, float))
    m, n = pts.shape
    if isinstance(g.solver, TermBank):
        shift = _moved(g.solver, g, q0, q1)
        return FlowResult(pts, pts + shift, _identities(m, n).copy(), 0,
                          np.zeros(m), shift)
    images, jacs, nsteps = integrate.rk4_flow(g.solver, pts, q0, q1,
                                              opts.step)
    W = g.omega_N.constant_gram()  # constant, or g.hamiltonian raised
    R = np.einsum("kji,jl,klm->kim", jacs, W, jacs) - W
    sympl = np.abs(R).reshape(m, -1).max(axis=1)
    return FlowResult(pts, images, jacs, nsteps, sympl)


def invariance_check(F_N: DifferentialForm, fr: FlowResult,
                     tol: float = DEFAULT_TOL.sampled) -> CheckResult:
    """Does the flow's tangent map pull F_N at the image back to F_N?

    After a translation flow (fr.shift set) this is decided exactly: the
    coefficients of F_N translated by the shift against those of F_N, at
    EXACT_ZERO, whatever tol is.  After an RK4 flow it is
    sampled at the flow's points, at tol."""
    if fr.shift is not None:
        res = CheckResult("invariance", EXACT)
        moved = DifferentialForm.build(F_N.model, F_N.degree, {
            idx: translate(f, fr.shift) for idx, f in F_N.coeffs})
        res.residuals["symplectic"] = 0.0
        res.hold("F_N_preserved", (moved - F_N).max_coeff(), EXACT_ZERO,
                 "invariance")
        return res
    res = CheckResult("invariance", SAMPLED)
    n = F_N.model.dim
    Gx = F_N.gram_batch(fr.points[:, :n])
    Gy = F_N.gram_batch(F_N.model.wrap(fr.images[:, :n]))
    R = np.einsum("kji,kjl,klm->kim", fr.jacobians, Gy, fr.jacobians) - Gx
    res.residuals["symplectic"] = float(fr.symplectic_residuals.max(initial=0.0))
    res.hold("F_N_preserved", np.abs(R).max(axis=(1, 2)), tol, "invariance",
             at=fr.points.__getitem__, label="not_preserved")
    return res


def _snap(q: np.ndarray, step: float) -> np.ndarray:
    return np.rint(np.asarray(q, float) / step).astype(int)


def _batch_backward(g: GraphDeformation, points, opts: FlowOptions):
    """Backward solves Phi([q -> 0]) for a batch of Y-points, with each q
    snapped to an integer multiple of the step: in closed form for a
    translation flow, else sharing RK4 steps across samples in one
    lockstep sweep (activation exact because of the snapping)."""
    pts = np.atleast_2d(np.asarray(points, float))
    m, dN = pts.shape[0], g.n_dim
    ks = _snap(pts[:, g.q_index] % 1.0, opts.step)
    snapped = pts.copy()
    snapped[:, g.q_index] = ks * opts.step
    if isinstance(g.solver, TermBank):
        X = pts[:, :dN] + _moved(g.solver, g, snapped[:, g.q_index], 0.0)
        return snapped, X, _identities(m, dN)
    # rows sorted by descending start step, so the samples in flight at
    # step k are a prefix of the batch, started[k] rows long
    order = np.argsort(-ks, kind="stable")
    started = np.cumsum(np.bincount(ks, minlength=1)[::-1])[::-1]
    seeds = pts[order]
    kmax = int(ks.max(initial=0))
    X, J = integrate.rk4_sweep(
        g.solver, seeds[:, :dN], _identities(m, dN),
        kmax * opts.step, -opts.step, kmax, seeds,
        entered=started[kmax:0:-1])
    back = np.empty_like(order)
    back[order] = np.arange(m)
    return snapped, X[back], J[back]


class TransportedForm:
    """The invariant extension of a transverse form, evaluated through
    backward flow transport.

    matrices_at solves the flow from each requested q (snapped to the RK4
    grid) back to the zero slice, and pulls the transverse form there back
    along it.  A translation flow is solved in closed form, x + D(0) - D(q)
    with identity tangent maps; any other flow takes all points in one
    backward RK4 sweep.  Either way the coefficients leave the
    trig-polynomial class (a translation by lambda*q with irrational lambda
    turns cos(2*pi*x1) into cos(2*pi*(x1 - lambda*q))), so these checks stay
    SAMPLED and closedness is only checkable by finite differences.
    """

    def __init__(self, g: GraphDeformation, F_N_tilde: DifferentialForm,
                 opts: FlowOptions = DEFAULT_FLOW):
        if F_N_tilde.model != g.N_model or F_N_tilde.degree != 2:
            raise ValueError("transverse form must be a 2-form on N")
        self.g = g
        self.F_N = F_N_tilde
        self.opts = opts

    def matrices_at(self, points) -> tuple[np.ndarray, np.ndarray]:
        """Gram matrices at a batch of Y-points (q snapped to the RK4 grid).

        Returns (snapped points, (m, dimY, dimY) array).
        """
        g = self.g
        snapped, y, A = _batch_backward(g, points, self.opts)
        dN = g.n_dim
        Xf = g.hamiltonian.eval_batch(snapped)[:, :dN]
        b = np.einsum("kij,kj->ki", A, Xf)
        C = np.concatenate([A, b[:, :, None]], axis=2)
        G = self.F_N.gram_batch(g.N_model.wrap(y))
        return snapped, np.einsum("kia,kij,kjb->kab", C, G, C)

    # -- checks ----------------------------------------------------------

    def kernel_check(self, plan: SamplePlan = DEFAULT_PLAN,
                     tol: float = DEFAULT_TOL.sampled) -> CheckResult:
        """Contraction with the kernel field vanishes at samples."""
        res = CheckResult("transport_kernel", SAMPLED)
        g = self.g
        pts, M = self.matrices_at(plan.points(g.y_model))
        Z = kernel_field(g).eval_batch(pts)
        res.hold("kernel_annihilated",
                 np.abs(np.einsum("kab,kb->ka", M, Z)).max(axis=1), tol,
                 "kernel_contraction", at=pts.__getitem__, label="kernel")
        return res

    def zero_slice_check(self, plan: SamplePlan = DEFAULT_PLAN) -> CheckResult:
        """The q=0 slice reproduces the transverse form exactly, with a
        residual of 0.0 (the backward solve from q=0 is a no-op)."""
        res = CheckResult("transport_zero_slice", EXACT)
        g = self.g
        pts = plan.points(g.y_model)
        pts[:, g.q_index] = 0.0
        _, M = self.matrices_at(pts)
        G = self.F_N.gram_batch(pts[:, :g.n_dim])
        r = np.abs(M[:, :g.n_dim, :g.n_dim] - G).max(axis=(1, 2))
        res.hold("slice_equals_F_N", r, 0.0, "zero_slice", at=pts.__getitem__,
                 label="zero_slice")
        return res

    def fd_exterior_check(self, tol: float = 1e-5) -> CheckResult:
        """Central-difference exterior derivative residual at 8 seeded
        probe points with q spread over [0.1, 0.9].

        The probes' q values are snapped to the RK4 grid; the difference
        step, 1e-3 rounded to whole RK4 steps, rides on top of that grid.
        """
        res = CheckResult("transport_fd_closed", SAMPLED)
        g = self.g
        dY = g.y_model.dim
        probes = SamplePlan(count=8, seed=7).points(g.y_model)
        m = probes.shape[0]
        # snap both the probes' q and the difference step to the integrator
        # grid so every stencil point is hit exactly
        h = max(round(1e-3 / self.opts.step), 1) * self.opts.step
        probes[:, g.q_index] = _snap(
            np.linspace(0.1, 0.9, m), self.opts.step) * self.opts.step
        shifted = np.concatenate([
            probes + sgn * h * np.eye(dY)[a]
            for a in range(dY) for sgn in (+1.0, -1.0)], axis=0)
        _, all_M = self.matrices_at(shifted)
        all_M = all_M.reshape(dY, 2, m, dY, dY)
        dM = np.transpose(
            (all_M[:, 0] - all_M[:, 1]) / (2.0 * h), (1, 0, 2, 3))
        # (dF)_abc = d_a M_bc - d_b M_ac + d_c M_ab over a < b < c, and
        # each probe's worst
        a, b, c = np.array(list(itertools.combinations(range(dY), 3)),
                           dtype=int).reshape(-1, 3).T
        res.hold("closed_fd", np.abs(
            dM[:, a, b, c] - dM[:, b, a, c] + dM[:, c, a, b]).max(
                axis=1, initial=0.0), tol, "fd_exterior",
            at=probes.__getitem__, label="fd_closed")
        res.details["fd_step"] = h
        return res


def transport_brane(g: GraphDeformation, F_N_tilde: DifferentialForm,
                    plan: SamplePlan | None = None,
                    tol: float = DEFAULT_TOL.sampled,
                    opts: FlowOptions = DEFAULT_FLOW) -> TransportedForm:
    """Invariant extension of F_N_tilde over Y, gated on the time-1 flow
    preserving it (otherwise BraneObstruction).  After an RK4 flow the gate
    samples plan's points (64 seeded points by default) within tol.  After
    a translation flow it is exact: F_N_tilde's coefficients, translated,
    must match at EXACT_ZERO, and tol does not reach it.  The
    extension is evaluated by backward transport with opts' step; see
    TransportedForm."""
    if plan is None:
        plan = SamplePlan(count=64, seed=3)
    obstruction = _gate(g, F_N_tilde, plan, tol, opts)
    if obstruction is not None:
        msg, point, residual = obstruction
        if point is not None:
            point = list(point)
        raise BraneObstruction(msg, point=point, residual=residual)
    return TransportedForm(g, F_N_tilde, opts=opts)


@functools.lru_cache(maxsize=16)
def _gate(g: GraphDeformation, F_N_tilde: DifferentialForm,
          plan: SamplePlan, tol: float, opts: FlowOptions):
    """The time-1 gate flow of transport_brane, run once per distinct
    (deformation, form, plan, tol, flow options): None when the flow
    preserves the form, else the obstruction's (message, point, residual).
    The scene runner gates every transport check of a deformation on the
    same flow."""
    fr = flow(g, 0.0, 1.0, plan.points(g.N_model), opts)
    verdict = invariance_check(F_N_tilde, fr, tol)
    if verdict.passed:
        return None
    residual = verdict.residuals["invariance"]
    # an exact verdict has no witness point
    point = (tuple(verdict.witnesses[0]["point"]) if verdict.witnesses
             else None)
    return ("time-1 flow does not preserve the transverse form "
            f"(residual {residual:.3e})", point, residual)


def closed1f_residual(g: GraphDeformation) -> DifferentialForm:
    """The slicewise 2-form d_N((I_N)^* d_N f), zero iff the deformation
    preserves the transverse complex structure's closedness condition."""
    if g.F_N is None:
        raise ValueError("needs the transverse form F_N")
    I = endo_from_pair(g.omega_N, g.F_N).constant_matrix()
    if I is None:
        raise ValueError("needs constant-coefficient omega_N, F_N")
    return horizontal_d(slice_oneform(g.f, I), g.n_indices)


def slice_oneform(f: ScalarField, I: np.ndarray) -> DifferentialForm:
    """The slice 1-form sum_j (sum_i I[i, j] d_i f) dx_j over the first
    n = len(I) coordinates: the slice differential of f pulled back
    through the constant n x n endomorphism I."""
    grads = [partial(f, i) for i in range(len(I))]
    return DifferentialForm.build(f.model, 1, {
        (j,): c for j, c in enumerate(linear_map(f.model, I.T, grads))})


def closed1f_check(g: GraphDeformation) -> CheckResult:
    """Exact symbolic check, at EXACT_ZERO, that the slicewise pullback
    1-form is closed for every q; also reported at q = k/8."""
    beta = closed1f_residual(g)
    res = CheckResult("closed1f", EXACT)
    res.details["per_q_max"] = {
        f"q={k / 8:g}": max((substitute(f, g.q_index, k / 8).max_coeff()
                             for _, f in beta.coeffs), default=0.0)
        for k in range(8)}
    res.hold("pullback_closed_all_q", beta.max_coeff(), EXACT_ZERO,
             "d_pullback")
    return res


def melanie_check(F: DifferentialForm, E: Distribution, G: Distribution,
                  plan: SamplePlan = DEFAULT_PLAN) -> CheckResult:
    """Kernel-flatness criterion: E involutive, holonomy invariance of F
    transverse to E, and leafwise-transverse closedness; their conjunction
    must match dF = 0 whenever E is the kernel of F.  Involutivity is
    held to SUBSPACE at plan's points (SAMPLED), unless every bracket of
    E's frame is the zero field; the rest to EXACT_ZERO."""
    for v in E.frame:
        if not interior(v, F).is_zero():
            raise ValueError("declared kernel frame does not annihilate F")
    spans = bracket_span_residual(E, plan)
    res = CheckResult("melanie", SAMPLED if spans.size else EXACT)
    res.hold("i_involutive", spans, SUBSPACE, "bracket_span",
             at=lambda i: plan.points(F.model)[i], label="bracket_span")
    res.hold("ii_holonomy_invariant", max(
        (frame_residual(lie_derivative(v, F), G.frame) for v in E.frame),
        default=0.0), EXACT_ZERO, "holonomy")
    dF = ext_d(F)
    res.hold("iii_leafwise_closed", frame_residual(dF, G.frame),
             EXACT_ZERO, "leafwise")
    res.hold("dF_zero", dF.max_coeff(), EXACT_ZERO, "dF")
    return res


def mapping_torus_check(g: GraphDeformation, F_N_tilde: DifferentialForm,
                        plan: SamplePlan = DEFAULT_PLAN,
                        tol: float = DEFAULT_TOL.sampled,
                        opts: FlowOptions = DEFAULT_FLOW) -> CheckResult:
    """Consistency of the suspension map psi(x, q) = (flow_q(x), q):
    it pushes d/dq to the kernel field, and pulls the deformed form and the
    transported form back to the trivial extensions of the base forms."""
    res = CheckResult("mapping_torus", SAMPLED)
    y = g.y_model
    dN = g.n_dim
    pts = plan.points(y)
    pts[:, g.q_index] = _snap(pts[:, g.q_index], opts.step) * opts.step
    m = pts.shape[0]

    # flow states at each sample's q (offset 0) and at the four stencil
    # stations one and two flow steps around it: in closed form for a
    # translation flow, else read from one backward sweep (stations before
    # q = 0) and one forward sweep
    at = (_snap(pts[:, g.q_index], opts.step)[None, :]
          + np.arange(-2, 3)[:, None])
    if isinstance(g.solver, TermBank):
        X = pts[:, :dN] + _moved(g.solver, g, 0.0, at * opts.step)
        Jx = np.broadcast_to(np.eye(dN), at.shape + (dN, dN))
    else:
        rows = np.broadcast_to(np.arange(m), at.shape)
        X = np.empty(at.shape + (dN,))
        Jx = np.empty(at.shape + (dN, dN))
        for sign, sel in ((-1, at < 0), (1, at >= 0)):
            if sel.any():
                after = sign * at[sel]
                X[sel], Jx[sel] = integrate.rk4_sweep(
                    g.solver, pts[:, :dN], _identities(m, dN), 0.0,
                    sign * opts.step, int(after.max()), pts,
                    reads=(rows[sel], after))
    xm2, xm1, y0, xp1, xp2 = X
    J0 = Jx[2]
    psi_pts = pts.copy()
    psi_pts[:, :dN] = y0

    # (a) pushforward of d/dq equals the kernel field along psi
    # grouped as differences so coincident stations cancel exactly
    dq_push = ((xm2 - xp2) + 8.0 * (xp1 - xm1)) / (12.0 * opts.step)
    Xf = g.hamiltonian.eval_batch(psi_pts)[:, :dN]
    res.hold("pushes_dq_to_kernel", np.abs(dq_push + Xf).max(axis=1), tol,
             "pushforward", at=pts.__getitem__, label="mapping_torus")

    # differential of psi in block form
    dpsi = np.zeros((m, dN + 1, dN + 1))
    dpsi[:, :dN, :dN] = J0
    dpsi[:, :dN, dN] = -Xf
    dpsi[:, dN, dN] = 1.0

    def pullback_gap(grams, base_form):
        """Per-sample max |psi^* grams - trivial extension of base_form|."""
        base = np.zeros((m, dN + 1, dN + 1))
        base[:, :dN, :dN] = base_form.gram_batch(pts[:, :dN])
        r = np.abs(np.einsum("kia,kij,kjb->kab", dpsi, grams, dpsi) - base)
        return r.reshape(m, -1).max(axis=1)

    # (b) psi^* (deformed form) = trivial extension of omega_N
    res.hold("omega_f_pulls_back",
             pullback_gap(omega_f(g).gram_batch(y.wrap(psi_pts)), g.omega_N),
             tol, "omega_pullback", at=pts.__getitem__, label="mapping_torus")

    # (c) psi^* (transported form) = trivial extension of F_N_tilde
    _, Mpsi = TransportedForm(g, F_N_tilde, opts=opts).matrices_at(psi_pts)
    res.hold("transported_pulls_back", pullback_gap(Mpsi, F_N_tilde), tol,
             "F_pullback", at=pts.__getitem__, label="mapping_torus")
    return res


def convergence_order(g: GraphDeformation, points) -> float:
    """Log2 slope of the flow's endpoint error at q = 1 under step halving
    from 1/64 to 1/512 (reference: step 1/4096)."""
    def endpoints(step):
        return flow(g, 0.0, 1.0, points, FlowOptions(step)).images

    ref = endpoints(2.0 ** -12)
    errs = np.array([np.abs(endpoints(2.0 ** -k) - ref).max()
                     for k in range(6, 10)])
    # a genuine 4th-order sequence drops ~2^12; a flat one is integrator
    # rounding noise (constant fields are integrated exactly)
    if np.any(errs <= 0) or errs[0] / errs[-1] < 4.0:
        raise ValueError("degenerate error sequence; field may be constant")
    slopes = np.log2(errs[:-1] / errs[1:])
    return float(slopes.mean())
