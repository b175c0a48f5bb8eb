"""Brane verification: space-filling check, general kernel-comparison check,
the generalized-tangent-bundle oracle on the product ambient model, and
local normal forms.

A candidate packages a claimed brane: the closed 2-forms (omega, F) on Y
together with declared frames for the common kernel E and a complement G.
check_brane verifies the claim directly; check_brane_via_J verifies it by
J-invariance of the isotropic subspace tau_F inside T M + T*M over the
product ambient model, and the two must agree.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import VectorField, reindex
from .forms import (CONDITION_LIMIT, DifferentialForm, Distribution,
                    _condition_gate, condition_number, ext_d, kernel_basis,
                    max_principal_angle, transverse_matrix)
from .model import (DEFAULT_PLAN, DEFAULT_TOL, LINE, ManifoldModel,
                    SamplePlan, extend_with_line)
from .report import EXACT, SAMPLED, CheckResult


class RankDropError(Exception):
    """A form lost rank at a sample point where constant rank was required."""


@dataclass(frozen=True)
class BraneCandidate:
    model_Y: ManifoldModel
    omega: DifferentialForm
    F: DifferentialForm
    E_frame: Distribution
    G_frame: Distribution

    def __post_init__(self):
        if self.E_frame.rank + self.G_frame.rank != self.model_Y.dim:
            raise ValueError("rank(E) + rank(G) must equal dim(Y)")
        if (self.model_Y.dim - self.E_frame.rank) % 4 != 0:
            raise ValueError("transverse rank must be a multiple of 4")
        for form in (self.omega, self.F):
            if form.model != self.model_Y or form.degree != 2:
                raise ValueError("omega and F must be 2-forms on model_Y")


@dataclass(frozen=True)
class AmbientModel:
    """Gotay-style product ambient: Y times one line fiber per E direction."""

    model_M: ManifoldModel
    omega_M: DifferentialForm
    n_base: int  # leading coordinates of model_M form Y

    def __post_init__(self):
        if not ext_d(self.omega_M).is_zero():
            raise ValueError("ambient 2-form must be closed")


def ambient_for(c: BraneCandidate) -> AmbientModel:
    """Ambient model Y x R^k with omega_M = omega + sum d(eta_a) ^ dt_a.

    Built for candidates whose E-frame is constant: each E direction gets a
    conjugate line fiber t_a, and omega_M couples them through the dual
    coframe eta_a of the E-frame, reducing to omega_N + dq^dt in the
    codimension-one product case.
    """
    EC = c.E_frame.constant_matrix()
    GC = c.G_frame.constant_matrix()
    if EC is None or GC is None:
        raise ValueError("ambient assembly needs constant frames")
    n, k = c.model_Y.dim, c.E_frame.rank
    M = c.model_Y
    taken = {name for name, _ in M.coords}
    for a in range(k):
        name = f"t{a + 1}"
        while name in taken:
            name = "_" + name
        taken.add(name)
        M = extend_with_line(M, name)
    # dual coframe rows of the E part of the joint frame
    eta = invert_joint_frame(GC, EC)[1][c.G_frame.rank:]
    coupling = DifferentialForm.build(M, 2, {
        (i, n + a): eta[a, i]
        for a in range(k) for i in range(n) if eta[a, i] != 0.0})
    omega_M = lift_form(c.omega, M, list(range(n))) + coupling
    return AmbientModel(M, omega_M, n)


def lift_form(form: DifferentialForm, target: ManifoldModel,
              mapping) -> DifferentialForm:
    """Transport a form to target; mapping[i] = target index of coordinate
    i, or None to drop it (see fields.reindex), which no component may lie
    along."""
    raw = {}
    for idx, f in form.coeffs:
        key = tuple(mapping[i] for i in idx)
        if None in key:
            raise ValueError("form has a component along a dropped coordinate")
        raw[key] = reindex(f, target, mapping)
    return DifferentialForm.build(target, form.degree, raw)


def check_space_filling(omega: DifferentialForm, F: DifferentialForm,
                        plan: SamplePlan = DEFAULT_PLAN,
                        tol=DEFAULT_TOL) -> CheckResult:
    """closed omega, closed F, nondegenerate omega, and (omega^-1 F)^2 = -Id.

    On constant omega and F the check is EXACT: the Grams are evaluated
    once, held to tol.exact_zero, and witnesses name the first plan point;
    the record keeps omega's condition number and the matrix I.
    Otherwise it is SAMPLED at every plan point, held to tol.sampled.
    I_squared_plus_id is the worst residual over the nondegenerate
    samples, and is absent when there are none.
    """
    W, FC = omega.constant_gram(), F.constant_gram()
    exact = W is not None and FC is not None
    res = CheckResult("space_filling", EXACT if exact else SAMPLED, False)
    res.hold("closed_omega", ext_d(omega).max_coeff(), tol.exact_zero,
             "d_omega")
    res.hold("closed_F", ext_d(F).max_coeff(), tol.exact_zero, "d_F")

    model = omega.model
    pts = plan.points(model)
    if exact:
        pts, WG, FG = pts[:1], W[None], FC[None]
    else:
        WG, FG = omega.gram_batch(pts), F.gram_batch(pts)
    bound = tol.exact_zero if exact else tol.sampled
    nondeg = True
    worst, worst_at = None, 0
    for i in range(pts.shape[0]):
        cond = condition_number(WG[i])
        if exact:
            res.details["omega_condition"] = cond
        if cond > CONDITION_LIMIT:
            nondeg = False
            res.add_witness(pts[i], float("inf"), "degenerate_omega")
            continue
        I = np.linalg.solve(WG[i], FG[i])
        r = float(np.abs(I @ I + np.eye(model.dim)).max())
        if exact:
            res.details["I_matrix"] = I.tolist()
        if worst is None or r > worst:
            worst, worst_at = r, i
    squares = worst is None or worst <= bound
    if worst is not None:
        res.residuals["I_squared_plus_id"] = worst
    if not squares:
        res.add_witness(pts[worst_at], worst, "I_square")
    res.conditions["nondegenerate"] = bool(nondeg)
    res.conditions["I_squares_minus_id"] = bool(squares)
    res.passed = all(res.conditions.values())
    return res


def _require_independent(E: np.ndarray, G: np.ndarray, rel: float,
                         at: str = "") -> None:
    """Raise RankDropError unless the columns of E and G together have
    full rank; at is appended to the message."""
    M = np.column_stack([E, G])
    if M.shape[1] == 0:
        return
    s = np.linalg.svd(M, compute_uv=False)
    if not s[-1] > rel * max(s[0], 1.0):
        raise RankDropError("E and G frames are dependent: the joint frame "
                            f"[G | E] is singular{at}")


def invert_joint_frame(GC: np.ndarray,
                       EC: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(P, P^-1) for the constant joint frame P = [G columns | E columns];
    raises RankDropError when the columns are dependent."""
    _require_independent(EC, GC, DEFAULT_TOL.subspace)
    P = np.column_stack([GC, EC])
    return P, np.linalg.inv(P)


def validate_candidate(c: BraneCandidate, plan: SamplePlan = DEFAULT_PLAN,
                       tol=DEFAULT_TOL) -> None:
    """Raise RankDropError if the E and G frames are dependent: tested
    once on constant frames, as invert_joint_frame tests them, else at
    the first 32 plan points, naming the first dependent sample."""
    EC, GC = c.E_frame.constant_matrix(), c.G_frame.constant_matrix()
    if EC is not None and GC is not None:
        _require_independent(EC, GC, tol.subspace)
        return
    pts = plan.points(c.model_Y)[:32]
    for p, E, G in zip(pts, c.E_frame.matrices(pts),
                       c.G_frame.matrices(pts)):
        _require_independent(E, G, tol.subspace, f" at sample {p.tolist()}")


def check_brane(c: BraneCandidate, plan: SamplePlan = DEFAULT_PLAN,
                tol=DEFAULT_TOL) -> CheckResult:
    """Kernels of omega and F both equal span(E); both forms closed;
    transverse endomorphism squares to -Id on the G-frame.

    On constant data (omega, F and both frames constant) the check is
    EXACT: the Grams and frames are evaluated once, and witnesses and
    errors name the first plan point.  Otherwise it is SAMPLED at every
    plan point.
    """
    validate_candidate(c, plan, tol)
    EC, GC = c.E_frame.constant_matrix(), c.G_frame.constant_matrix()
    W, FC = c.omega.constant_gram(), c.F.constant_gram()
    exact = not any(x is None for x in (EC, GC, W, FC))
    res = CheckResult("brane", EXACT if exact else SAMPLED, False)
    res.hold("omega_closed", ext_d(c.omega).max_coeff(), tol.exact_zero,
             "d_omega")
    res.hold("F_closed", ext_d(c.F).max_coeff(), tol.exact_zero, "d_F")

    pts = plan.points(c.model_Y)
    if exact:
        pts, WG, FG, EM, GM = pts[:1], W[None], FC[None], EC[None], GC[None]
    else:
        WG, FG = c.omega.gram_batch(pts), c.F.gram_batch(pts)
        EM, GM = c.E_frame.matrices(pts), c.G_frame.matrices(pts)
    k = c.E_frame.rank
    worst_kernel = 0.0
    worst_square = 0.0
    for i in range(pts.shape[0]):
        E = EM[i]
        for label, G in (("omega", WG[i]), ("F", FG[i])):
            nul = kernel_basis(G, tol.subspace)
            if nul.shape[1] != k:
                raise RankDropError(
                    f"{label} kernel rank {nul.shape[1]} != {k} at sample "
                    f"{pts[i].tolist()}")
            ang = max_principal_angle(nul, E) if k else 0.0
            worst_kernel = max(worst_kernel, ang)
            if ang > tol.subspace:
                res.add_witness(pts[i], ang, f"kernel_{label}")
        # transverse complex structure on the G-frame
        Gm = GM[i]
        if Gm.shape[1]:
            I = transverse_matrix(WG[i], FG[i], Gm,
                                  f"sample {pts[i].tolist()} on the G-frame")
            r = np.abs(I @ I + np.eye(Gm.shape[1])).max()
            worst_square = max(worst_square, r)
            if r > tol.sampled:
                res.add_witness(pts[i], r, "transverse_square")
    res.hold("kernels_equal", worst_kernel, tol.subspace, "kernel_angle")
    res.hold("transverse_I_squares", worst_square, tol.sampled,
             "transverse_square")
    res.passed = all(res.conditions.values())
    return res


def _tau_F_basis(FG: np.ndarray, m: int, n: int) -> np.ndarray:
    cols = []
    for i in range(n):
        v = np.zeros(2 * m)
        v[i] = 1.0
        v[m:m + n] = FG[i, :]
        cols.append(v)
    for a in range(m - n):
        v = np.zeros(2 * m)
        v[m + n + a] = 1.0
        cols.append(v)
    return np.column_stack(cols)


def tau_F_subspace(c: BraneCandidate, ambient: AmbientModel,
                   p) -> np.ndarray:
    """Basis of {(X, xi): X tangent to Y, xi restricted to TY = i_X F} at p.

    Columns live in R^{2 dim M}; p is a point of M (fiber coordinates are
    ignored by the constant-coefficient data used here).
    """
    n = ambient.n_base
    return _tau_F_basis(c.F.gram_at(np.asarray(p, float)[:n]),
                        ambient.model_M.dim, n)


def check_brane_via_J(c: BraneCandidate, plan: SamplePlan = DEFAULT_PLAN,
                      tol=DEFAULT_TOL) -> CheckResult:
    """Brane test via J-invariance of tau_F in TM + T*M.

    J(X, xi) = (-omega_M^-1 xi, omega_M X) on the product ambient_for(c);
    the candidate passes iff J tau_F = tau_F at every sample (and the
    ambient form is closed, which the AmbientModel construction
    guarantees).  When the ambient form and F are constant (as they are
    for constant omega and F), J and tau_F are too: the check is EXACT,
    evaluated once, and witnesses and errors name the first plan point.
    Otherwise it is SAMPLED at every plan point.
    """
    ambient = ambient_for(c)
    WC, FC = ambient.omega_M.constant_gram(), c.F.constant_gram()
    exact = WC is not None and FC is not None
    res = CheckResult("brane_via_J", EXACT if exact else SAMPLED, False)
    # J-invariance is pointwise linear algebra; closedness is checked
    # separately so the verdict matches check_brane on non-closed inputs
    res.conditions["omega_closed"] = ext_d(c.omega).is_zero(tol.exact_zero)
    res.conditions["F_closed"] = ext_d(c.F).is_zero(tol.exact_zero)
    m = ambient.model_M.dim
    n = ambient.n_base
    pts = plan.points(c.model_Y)[:1 if exact else None]
    P = np.zeros((pts.shape[0], m))
    P[:, :n] = pts
    if exact:
        WG, FG = WC[None], FC[None]
    else:
        WG, FG = ambient.omega_M.gram_batch(P), c.F.gram_batch(pts)
    worst = 0.0
    for i, p in enumerate(P):
        _condition_gate(WG[i], f"ambient sample {p.tolist()}")
        Wmap = WG[i].T  # matrix of v -> i_v omega
        J = np.zeros((2 * m, 2 * m))
        J[:m, m:] = -np.linalg.inv(Wmap)
        J[m:, :m] = Wmap
        basis = _tau_F_basis(FG[i], m, n)
        Q, _ = np.linalg.qr(basis)
        img = J @ basis
        resid = img - Q @ (Q.T @ img)
        scale = max(np.linalg.norm(img, axis=0).max(), 1.0)
        r = float(np.linalg.norm(resid, axis=0).max() / scale)
        worst = max(worst, r)
        if r > tol.subspace:
            res.add_witness(pts[i], r, "J_invariance")
    res.hold("J_invariant", worst, tol.subspace, "J_residual")
    res.passed = all(res.conditions.values())
    return res


def local_normal_form(n: int, k: int) -> BraneCandidate:
    """The local model: 2n pairs of transverse coordinates carrying the
    standard commuting pair of constant forms, plus k kernel directions."""
    if n < 1 or k < 0:
        raise ValueError("need n >= 1, k >= 0")
    coords = []
    for j in range(1, 2 * n + 1):
        coords.append((f"x{j}", LINE))
    for j in range(1, 2 * n + 1):
        coords.append((f"y{j}", LINE))
    for a in range(1, k + 1):
        coords.append((f"t{a}", LINE))
    model = ManifoldModel(tuple(coords))

    def xi(j):  # x_j, 1-based
        return j - 1

    def yi(j):
        return 2 * n + j - 1

    omega_raw = {}
    F_raw = {}
    for j in range(1, n + 1):
        a, b = 2 * j - 1, 2 * j
        omega_raw[(xi(a), yi(b))] = 1.0
        omega_raw[(yi(a), xi(b))] = 1.0
        F_raw[(xi(a), xi(b))] = 1.0
        F_raw[(yi(a), yi(b))] = -1.0
    omega = DifferentialForm.build(model, 2, omega_raw)
    F = DifferentialForm.build(model, 2, F_raw)
    E = Distribution(model, tuple(
        VectorField.basis(model, 4 * n + a) for a in range(k)))
    G = Distribution(model, tuple(
        VectorField.basis(model, i) for i in range(4 * n)))
    return BraneCandidate(model, omega, F, E, G)
