"""Codimension-one graph deformations: the deformed presymplectic form,
its kernel line, time-dependent Hamiltonian flows, flow transport of a
transverse brane form, the kernel/holonomy closedness criterion, and the
mapping-torus consistency check.

Conventions: Y = N x S^1 with the circle coordinate q appended after the N
coordinates; the musical isomorphism solves interior(X, omega) = xi; the
flow integrates dx/dq = -X_{f_q} so its time-1 map is the holonomy of the
kernel line of the deformed form.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace

import numpy as np

from . import integrate
from .fields import ScalarField, VectorField, bracket, partial, substitute
from .forms import (DifferentialForm, Distribution, apply_form, endo_from_pair,
                    ext_d, horizontal_d, interior, lie_derivative,
                    span_residual)
from .model import (DEFAULT_FLOW, DEFAULT_PLAN, DEFAULT_TOL, FlowOptions,
                    ManifoldModel, SamplePlan, extend_with_circle)
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
    function f on Y (f_q denotes its restriction to the slice N x {q})."""

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

    def lift(self, form_on_N: DifferentialForm) -> DifferentialForm:
        from .brane import lift_form
        return lift_form(form_on_N, self.y_model, list(self.n_indices))

    def with_f(self, f: ScalarField) -> "GraphDeformation":
        return replace(self, f=f)


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
    return g.lift(g.omega_N) - ext_d(f_dq)


def slicewise_hamiltonian(g: GraphDeformation) -> VectorField:
    """X with interior(X, omega_N) = d_N f on each slice N x {q}."""
    W = g.omega_N.constant_gram()
    if W is None:
        raise ValueError("slicewise Hamiltonian field needs constant omega_N; "
                         "use kernel_field_at for pointwise evaluation")
    Winv_T = np.linalg.inv(W.T)
    y = g.y_model
    comps = [ScalarField.zero(y) for _ in range(y.dim)]
    grads = [partial(g.f, j) for j in g.n_indices]
    for i in g.n_indices:
        acc = ScalarField.zero(y)
        for j in g.n_indices:
            c = Winv_T[i, j]
            if c != 0.0:
                acc = acc + grads[j] * c
        comps[i] = acc
    return VectorField(y, tuple(comps))


def kernel_field(g: GraphDeformation) -> VectorField:
    """The kernel generator of the deformed form: d/dq minus the slicewise
    Hamiltonian field of f."""
    x = slicewise_hamiltonian(g)
    dq = VectorField.basis(g.y_model, g.q_index)
    return dq - x


def kernel_field_at(g: GraphDeformation, point) -> np.ndarray:
    """Pointwise kernel direction for non-constant omega_N."""
    point = np.asarray(point, float)
    W = g.omega_N.gram_at(point[:g.n_dim])
    rhs = np.array([partial(g.f, j).eval(point) for j in g.n_indices])
    x = np.linalg.solve(W.T, rhs)
    out = np.zeros(g.y_model.dim)
    out[:g.n_dim] = -x
    out[g.q_index] = 1.0
    return out


@dataclass
class FlowResult:
    points: np.ndarray
    images: np.ndarray
    jacobians: np.ndarray
    q0: float
    q1: float
    steps: int
    step: float
    error_estimate: float
    symplectic_residuals: np.ndarray

    def images_wrapped(self, model: ManifoldModel) -> np.ndarray:
        return model.wrap(self.images)


def _velocity(g: GraphDeformation):
    x = slicewise_hamiltonian(g)
    return tuple(-x.components[i] for i in g.n_indices)


def flow(g: GraphDeformation, q0: float, q1: float, points,
         opts: FlowOptions = DEFAULT_FLOW) -> FlowResult:
    """RK4 flow of dx/dq = -X_{f_q} from q0 to q1, with tangent maps."""
    pts = np.atleast_2d(np.asarray(points, float))
    vel = _velocity(g)
    images, jacs, nsteps = integrate.rk4_flow(
        vel, g.n_indices, pts, q0, q1, opts.step, q_index=g.q_index)
    probe = min(opts.error_probe, pts.shape[0])
    err = 0.0
    if probe and nsteps:
        fine, _, _ = integrate.rk4_flow(
            vel, g.n_indices, pts[:probe], q0, q1, opts.step / 2.0,
            q_index=g.q_index, with_jacobian=False)
        err = float(np.abs(fine - images[:probe]).max())
    W = g.omega_N.constant_gram()
    if W is not None:
        R = np.einsum("kji,jl,klm->kim", jacs, W, jacs) - W
        sympl = np.abs(R).reshape(pts.shape[0], -1).max(axis=1)
    else:
        Wx = g.omega_N.gram_batch(pts[:, :g.n_dim])
        Wy = g.omega_N.gram_batch(g.N_model.wrap(images[:, :g.n_dim]))
        R = np.einsum("kji,kjl,klm->kim", jacs, Wy, jacs) - Wx
        sympl = np.abs(R).reshape(pts.shape[0], -1).max(axis=1)
    return FlowResult(pts, images, jacs, q0, q1, nsteps, opts.step, err, sympl)


def invariance_check(F_N: DifferentialForm, fr: FlowResult,
                     tol: float = DEFAULT_TOL.sampled) -> CheckResult:
    """Does the flow's tangent map pull F_N at the image back to F_N?"""
    res = CheckResult("invariance", SAMPLED, False)
    n = F_N.model.dim
    Gx = F_N.gram_batch(fr.points[:, :n])
    Gy = F_N.gram_batch(F_N.model.wrap(fr.images[:, :n]))
    R = np.einsum("kji,kjl,klm->kim", fr.jacobians, Gy, fr.jacobians) - Gx
    per = np.abs(R).reshape(fr.points.shape[0], -1).max(axis=1)
    worst = int(np.argmax(per))
    res.residuals["invariance"] = float(per[worst])
    res.residuals["symplectic"] = float(fr.symplectic_residuals.max(initial=0.0))
    ok = bool(per[worst] <= tol)
    if not ok:
        res.add_witness(fr.points[worst], per[worst], "not_preserved")
    res.conditions["F_N_preserved"] = ok
    res.passed = ok
    return res


def _snap(q: np.ndarray, step: float) -> np.ndarray:
    return np.rint(np.asarray(q, float) / step).astype(int)


def _batch_backward(g: GraphDeformation, points, opts: FlowOptions):
    """Backward solves Phi([q -> 0]) for a batch of Y-points, sharing RK4
    steps across samples in one lockstep sweep (activation exact because
    evaluation q's are snapped to integer multiples of the step)."""
    pts = np.atleast_2d(np.asarray(points, float))
    m, dN = pts.shape[0], g.n_dim
    ks = _snap(pts[:, g.q_index] % 1.0, opts.step)
    # rows sorted by descending start step, so the samples already in
    # flight at step k are a prefix of the batch
    order = np.argsort(-ks, kind="stable")
    started = np.cumsum(np.bincount(ks, minlength=1)[::-1])[::-1]
    seeds = pts[order]
    X = seeds[:, :dN].copy()
    J = np.broadcast_to(np.eye(dN), (m, dN, dN)).copy()
    kmax = int(ks.max(initial=0))
    rhs = integrate._RHS(_velocity(g), g.n_indices, g.q_index)
    for k in range(kmax, 0, -1):
        a = started[k]
        X[:a], J[:a] = integrate._rk4_step(
            rhs, X[:a], J[:a], k * opts.step, -opts.step, kmax - k + 1,
            seeds[:a])
    back = np.empty_like(order)
    back[order] = np.arange(m)
    X, J = X[back], J[back]
    snapped = pts.copy()
    snapped[:, g.q_index] = ks * opts.step
    return snapped, X, J


class TransportedForm:
    """The invariant extension of a transverse form, evaluated through
    backward flow transport.

    Exact mode solves the flow from the requested q back to the zero slice;
    grid mode interpolates linearly between cached node evaluations.
    Coefficients leave the trig-polynomial class, so closedness is only
    checkable by finite differences.
    """

    def __init__(self, g: GraphDeformation, F_N_tilde: DifferentialForm,
                 grid_q: int = 64, opts: FlowOptions = DEFAULT_FLOW):
        if F_N_tilde.model != g.N_model or F_N_tilde.degree != 2:
            raise ValueError("transverse form must be a 2-form on N")
        self.g = g
        self.F_N = F_N_tilde
        self.grid_q = grid_q
        self.opts = opts
        self._hamiltonian = slicewise_hamiltonian(g)
        self._node_cache: dict = {}

    # -- exact mode ------------------------------------------------------

    def matrices_at(self, points) -> tuple[np.ndarray, np.ndarray]:
        """Gram matrices at a batch of Y-points (q snapped to the RK4 grid).

        Returns (snapped points, (m, dimY, dimY) array).
        """
        g = self.g
        snapped, y, A = _batch_backward(g, points, self.opts)
        dN = g.n_dim
        Xf = np.stack([c.eval_batch(snapped) for c in
                       self._hamiltonian.components[:dN]], axis=1)
        b = np.einsum("kij,kj->ki", A, Xf)
        C = np.concatenate([A, b[:, :, None]], axis=2)
        G = self.F_N.gram_batch(g.N_model.wrap(y))
        return snapped, np.einsum("kia,kij,kjb->kab", C, G, C)

    def matrix_at(self, point, exact: bool = True) -> np.ndarray:
        """Gram matrix at one Y-point; exact backward solve or grid
        interpolation."""
        point = np.asarray(point, float)
        if exact:
            g = self.g
            q = point[g.q_index] % 1.0
            vel = _velocity(g)
            y, A, _ = integrate.rk4_flow(vel, g.n_indices, point[:g.n_dim],
                                         q, 0.0, self.opts.step,
                                         q_index=g.q_index)
            Xf = np.array([c.eval(point) for c in
                           self._hamiltonian.components[:g.n_dim]])
            b = A @ Xf
            C = np.concatenate([A, b[:, None]], axis=1)
            G = self.F_N.gram_at(g.N_model.wrap(y))
            return C.T @ G @ C
        return self._interpolated(point)

    def _node_matrix(self, node: int, x: tuple) -> np.ndarray:
        key = (node, x)
        if key not in self._node_cache:
            q = node / self.grid_q
            pt = np.array(list(x) + [q])
            self._node_cache[key] = self.matrix_at(pt, exact=True)
        return self._node_cache[key]

    def _interpolated(self, point) -> np.ndarray:
        g = self.g
        q = float(point[g.q_index] % 1.0)
        x = tuple(point[:g.n_dim])
        lo = int(np.floor(q * self.grid_q))
        t = q * self.grid_q - lo
        M0 = self._node_matrix(lo, x)
        if t == 0.0:
            return M0
        M1 = self._node_matrix(lo + 1, x)
        return (1.0 - t) * M0 + t * M1

    # -- checks ----------------------------------------------------------

    def kernel_check(self, plan: SamplePlan = DEFAULT_PLAN,
                     tol: float = DEFAULT_TOL.sampled) -> CheckResult:
        """Contraction with the kernel field vanishes at samples."""
        res = CheckResult("transport_kernel", SAMPLED, False)
        g = self.g
        pts, M = self.matrices_at(plan.points(g.y_model))
        Z = kernel_field(g).eval_batch(pts)
        r = np.abs(np.einsum("kab,kb->ka", M, Z)).max(axis=1)
        worst = int(np.argmax(r))
        res.residuals["kernel_contraction"] = float(r[worst])
        ok = bool(r[worst] <= tol)
        if not ok:
            res.add_witness(pts[worst], r[worst], "kernel")
        res.conditions["kernel_annihilated"] = ok
        res.passed = ok
        return res

    def zero_slice_check(self, plan: SamplePlan = DEFAULT_PLAN,
                         tol: float = 0.0) -> CheckResult:
        """The q=0 slice reproduces the transverse form exactly (the
        backward solve from q=0 is a no-op)."""
        res = CheckResult("transport_zero_slice", EXACT, False)
        g = self.g
        pts = plan.points(g.y_model)
        pts[:, g.q_index] = 0.0
        _, M = self.matrices_at(pts)
        G = self.F_N.gram_batch(pts[:, :g.n_dim])
        r = float(np.abs(M[:, :g.n_dim, :g.n_dim] - G).max())
        res.residuals["zero_slice"] = r
        res.conditions["slice_equals_F_N"] = bool(r <= tol)
        res.passed = res.conditions["slice_equals_F_N"]
        return res

    def fd_exterior_check(self, probe_points=None, h: float = 1e-3,
                          tol: float = 1e-5) -> CheckResult:
        """Central-difference exterior derivative residual at probe points.

        The probes' q values are snapped to the RK4 grid internally; the
        difference step h rides on top of that grid.
        """
        res = CheckResult("transport_fd_closed", SAMPLED, False)
        g = self.g
        dY = g.y_model.dim
        if probe_points is None:
            base = SamplePlan(count=8, seed=7).points(g.y_model)
            base[:, g.q_index] = np.linspace(0.1, 0.9, base.shape[0])
            probe_points = base
        probe_points = np.atleast_2d(np.asarray(probe_points, float))
        m = probe_points.shape[0]
        # snap both the probes' q and the difference step to the integrator
        # grid so every stencil point is hit exactly
        h = max(round(h / self.opts.step), 1) * self.opts.step
        probe_points[:, g.q_index] = _snap(
            probe_points[:, g.q_index], self.opts.step) * self.opts.step
        shifted = np.concatenate([
            probe_points + sgn * h * np.eye(dY)[a]
            for a in range(dY) for sgn in (+1.0, -1.0)], axis=0)
        _, all_M = self.matrices_at(shifted)
        all_M = all_M.reshape(dY, 2, m, dY, dY)
        dM = np.transpose(
            (all_M[:, 0] - all_M[:, 1]) / (2.0 * h), (1, 0, 2, 3))
        worst = 0.0
        worst_at = 0
        for i in range(m):
            for a in range(dY):
                for b in range(a + 1, dY):
                    for c in range(b + 1, dY):
                        v = dM[i, a, b, c] - dM[i, b, a, c] + dM[i, c, a, b]
                        if abs(v) > worst:
                            worst, worst_at = abs(v), i
        res.residuals["fd_exterior"] = worst
        ok = bool(worst <= tol)
        if not ok:
            res.add_witness(probe_points[worst_at], worst, "fd_closed")
        res.conditions["closed_fd"] = ok
        res.passed = ok
        res.details["fd_step"] = h
        return res


def transport_brane(g: GraphDeformation, F_N_tilde: DifferentialForm,
                    grid_q: int = 64, plan: SamplePlan | None = None,
                    tol: float = DEFAULT_TOL.sampled,
                    opts: FlowOptions = DEFAULT_FLOW) -> TransportedForm:
    """Invariant extension of F_N_tilde over Y, gated on the holonomy
    actually preserving it (otherwise BraneObstruction)."""
    if plan is None:
        plan = SamplePlan(count=64, seed=3)
    obstruction = _gate(g, F_N_tilde, plan, tol, opts)
    if obstruction is not None:
        msg, point, residual = obstruction
        raise BraneObstruction(msg, point=list(point), residual=residual)
    return TransportedForm(g, F_N_tilde, grid_q=grid_q, opts=opts)


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
    return ("time-1 flow does not preserve the transverse form "
            f"(residual {residual:.3e})",
            tuple(verdict.witnesses[0]["point"]), residual)


def closed1f_residual(g: GraphDeformation) -> DifferentialForm:
    """The slicewise 2-form d_N((I_N)^* d_N f), zero iff the deformation
    preserves the transverse complex structure's closedness condition."""
    if g.F_N is None:
        raise ValueError("needs the transverse form F_N")
    I = endo_from_pair(g.omega_N, g.F_N).constant_matrix()
    if I is None:
        raise ValueError("needs constant-coefficient omega_N, F_N")
    y = g.y_model
    grads = [partial(g.f, j) for j in g.n_indices]
    raw = {}
    for j in g.n_indices:
        acc = ScalarField.zero(y)
        for i in g.n_indices:
            if I[i, j] != 0.0:
                acc = acc + grads[i] * I[i, j]
        raw[(j,)] = acc
    alpha = DifferentialForm.build(y, 1, raw)
    return horizontal_d(alpha, g.n_indices)


def closed1f_check(g: GraphDeformation, grid_q: int = 8,
                   tol: float = DEFAULT_TOL.exact_zero) -> CheckResult:
    """Exact symbolic check that the slicewise pullback 1-form is closed
    for every q; reported per q-grid node for readability."""
    beta = closed1f_residual(g)
    res = CheckResult("closed1f", EXACT, False)
    r = beta.max_coeff()
    res.residuals["d_pullback"] = r
    per_q = {}
    for k in range(grid_q):
        qv = k / grid_q
        node_max = 0.0
        for _, f in beta.coeffs:
            node_max = max(node_max, substitute(f, g.q_index, qv).max_coeff())
        per_q[f"q={qv:g}"] = node_max
    res.details["per_q_max"] = per_q
    res.conditions["pullback_closed_all_q"] = bool(r <= tol)
    res.passed = res.conditions["pullback_closed_all_q"]
    return res


def melanie_check(F: DifferentialForm, E: Distribution, G: Distribution,
                  plan: SamplePlan = DEFAULT_PLAN,
                  tol=DEFAULT_TOL) -> CheckResult:
    """Kernel-flatness criterion: E involutive, holonomy invariance of F
    transverse to E, and leafwise-transverse closedness; their conjunction
    must match dF = 0 whenever E is the kernel of F."""
    model = F.model
    for v in E.frame:
        if not interior(v, F).is_zero(tol.exact_zero):
            raise ValueError("declared kernel frame does not annihilate F")
    res = CheckResult("melanie", EXACT, False)

    worst_bracket = 0.0
    pts = plan.points(model)
    inv_ok = True
    for a in range(E.rank):
        for b in range(a + 1, E.rank):
            br = bracket(E.frame[a], E.frame[b])
            vals = br.eval_batch(pts)
            for i in range(pts.shape[0]):
                r = span_residual(E.matrix_at(pts[i]), vals[i])
                worst_bracket = max(worst_bracket, r)
                if r > tol.subspace:
                    inv_ok = False
    res.conditions["i_involutive"] = inv_ok
    res.residuals["bracket_span"] = worst_bracket

    lie_worst = 0.0
    for v in E.frame:
        L = lie_derivative(v, F)
        for a in range(G.rank):
            for b in range(a + 1, G.rank):
                lie_worst = max(
                    lie_worst, apply_form(L, [G.frame[a], G.frame[b]]).max_coeff())
    res.conditions["ii_holonomy_invariant"] = bool(lie_worst <= tol.exact_zero)
    res.residuals["holonomy"] = lie_worst

    dF = ext_d(F)
    leaf_worst = 0.0
    for a in range(G.rank):
        for b in range(a + 1, G.rank):
            for c in range(b + 1, G.rank):
                leaf_worst = max(leaf_worst, apply_form(
                    dF, [G.frame[a], G.frame[b], G.frame[c]]).max_coeff())
    res.conditions["iii_leafwise_closed"] = bool(leaf_worst <= tol.exact_zero)
    res.residuals["leafwise"] = leaf_worst

    res.conditions["dF_zero"] = dF.is_zero(tol.exact_zero)
    res.residuals["dF"] = dF.max_coeff()
    res.passed = all(res.conditions.values())
    return res


def mapping_torus_check(g: GraphDeformation, F_N_tilde: DifferentialForm,
                        plan: SamplePlan = DEFAULT_PLAN,
                        tol: float = DEFAULT_TOL.sampled,
                        opts: FlowOptions = DEFAULT_FLOW,
                        transported: TransportedForm | None = None) -> CheckResult:
    """Consistency of the suspension map psi(x, q) = (flow_q(x), q):
    it pushes d/dq to the kernel field, and pulls the deformed form and the
    transported form back to the trivial extensions of the base forms."""
    res = CheckResult("mapping_torus", SAMPLED, False)
    y = g.y_model
    dN = g.n_dim
    pts = plan.points(y)
    pts[:, g.q_index] = _snap(pts[:, g.q_index], opts.step) * opts.step
    m = pts.shape[0]

    # forward sweep 0 -> 1 capturing flow states at each sample's q and at
    # the four stencil stations around it
    delta_steps = max(4, round(1e-2 / opts.step))
    delta = delta_steps * opts.step
    ks = _snap(pts[:, g.q_index], opts.step)
    stations = {}
    for off in (-2, -1, 0, 1, 2):
        for k in np.unique(ks) + off * delta_steps:
            stations.setdefault(int(k), None)
    vel = _velocity(g)
    rhs = integrate._RHS(vel, g.n_indices, g.q_index)
    kmin = min(stations)
    kmax = max(stations)
    X = pts[:, :dN].copy()
    J = np.broadcast_to(np.eye(dN), (m, dN, dN)).copy()
    if kmin < 0:
        Xb, Jb = X, J
        for k in range(0, kmin, -1):
            if k in stations:
                stations[k] = (Xb.copy(), Jb.copy())
            Xb, Jb = integrate._rk4_step(rhs, Xb, Jb, k * opts.step,
                                         -opts.step, 1 - k, pts)
        if kmin in stations:
            stations[kmin] = (Xb.copy(), Jb.copy())
    for k in range(0, kmax + 1):
        if k in stations:
            stations[k] = (X.copy(), J.copy())
        if k < kmax:
            X, J = integrate._rk4_step(rhs, X, J, k * opts.step, opts.step,
                                       k + 1, pts)
    if kmax in stations and stations[kmax] is None:
        stations[kmax] = (X.copy(), J.copy())

    def at_offset(off):
        out_x = np.empty((m, dN))
        out_j = np.empty((m, dN, dN))
        for i in range(m):
            xx, jj = stations[int(ks[i]) + off * delta_steps]
            out_x[i] = xx[i]
            out_j[i] = jj[i]
        return out_x, out_j

    y0, J0 = at_offset(0)
    psi_pts = pts.copy()
    psi_pts[:, :dN] = y0

    # (a) pushforward of d/dq equals the kernel field along psi
    xm2, _ = at_offset(-2)
    xm1, _ = at_offset(-1)
    xp1, _ = at_offset(1)
    xp2, _ = at_offset(2)
    # grouped as differences so coincident stations cancel exactly
    dq_push = ((xm2 - xp2) + 8.0 * (xp1 - xm1)) / (12.0 * delta)
    Xf = np.stack([c.eval_batch(psi_pts) for c in
                   slicewise_hamiltonian(g).components[:dN]], axis=1)
    r_push = np.abs(dq_push + Xf).max(axis=1)
    res.residuals["pushforward"] = float(r_push.max(initial=0.0))
    res.conditions["pushes_dq_to_kernel"] = bool(r_push.max(initial=0.0) <= tol)

    # differential of psi in block form
    dpsi = np.zeros((m, dN + 1, dN + 1))
    dpsi[:, :dN, :dN] = J0
    dpsi[:, :dN, dN] = -Xf
    dpsi[:, dN, dN] = 1.0

    # (b) psi^* (deformed form) = trivial extension of omega_N
    W = omega_f(g).gram_batch(y.wrap(psi_pts))
    base = np.zeros((m, dN + 1, dN + 1))
    base[:, :dN, :dN] = g.omega_N.gram_batch(pts[:, :dN])
    r_omega = np.abs(np.einsum("kia,kij,kjb->kab", dpsi, W, dpsi) - base)
    r_omega = r_omega.reshape(m, -1).max(axis=1)
    res.residuals["omega_pullback"] = float(r_omega.max(initial=0.0))
    res.conditions["omega_f_pulls_back"] = bool(
        r_omega.max(initial=0.0) <= tol)

    # (c) psi^* (transported form) = trivial extension of F_N_tilde
    tf = transported or TransportedForm(g, F_N_tilde, opts=opts)
    _, Mpsi = tf.matrices_at(psi_pts)
    baseF = np.zeros((m, dN + 1, dN + 1))
    baseF[:, :dN, :dN] = F_N_tilde.gram_batch(pts[:, :dN])
    r_F = np.abs(np.einsum("kia,kij,kjb->kab", dpsi, Mpsi, dpsi) - baseF)
    r_F = r_F.reshape(m, -1).max(axis=1)
    res.residuals["F_pullback"] = float(r_F.max(initial=0.0))
    res.conditions["transported_pulls_back"] = bool(
        r_F.max(initial=0.0) <= tol)

    worst = int(np.argmax(r_push + r_omega + r_F))
    if not all(res.conditions.values()):
        res.add_witness(pts[worst], float(
            max(r_push[worst], r_omega[worst], r_F[worst])), "mapping_torus")
    res.passed = all(res.conditions.values())
    return res


def convergence_order(g: GraphDeformation, points, q1: float = 1.0,
                      base_step: float = 1.0 / 64.0,
                      levels: int = 4) -> float:
    """Log2 slope of endpoint error under step halving (reference: two
    further halvings)."""
    pts = np.atleast_2d(np.asarray(points, float))
    vel = _velocity(g)
    ref, _, _ = integrate.rk4_flow(
        vel, g.n_indices, pts, 0.0, q1, base_step / 2 ** (levels + 2),
        q_index=g.q_index, with_jacobian=False)
    errs = []
    for lev in range(levels):
        im, _, _ = integrate.rk4_flow(
            vel, g.n_indices, pts, 0.0, q1, base_step / 2 ** lev,
            q_index=g.q_index, with_jacobian=False)
        errs.append(np.abs(im - ref).max())
    errs = np.array(errs)
    # a genuine 4th-order sequence drops ~2^(4(levels-1)); a flat one is
    # integrator rounding noise (constant fields are integrated exactly)
    if np.any(errs <= 0) or errs[0] / errs[-1] < 4.0:
        raise ValueError("degenerate error sequence; field may be constant")
    slopes = np.log2(errs[:-1] / errs[1:])
    return float(slopes.mean())
