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
from functools import cached_property

import numpy as np

from .fields import VectorField, reindex
from .forms import (CONDITION_LIMIT, DifferentialForm, Distribution,
                    _condition_gate, condition_number, ext_d, kernel_basis,
                    max_principal_angle, transverse_matrix)
from .model import (DEFAULT_PLAN, DEFAULT_TOL, EXACT_ZERO, LINE, SUBSPACE,
                    SVD_RANK_REL, ManifoldModel, SamplePlan, extend_with_line)
from .report import EXACT, SAMPLED, CheckResult


class RankDropError(Exception):
    """A form lost rank at a sample point where constant rank was required."""


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for a in arrays:
        a.flags.writeable = False
    return arrays


@dataclass(frozen=True)
class BraneCandidate:
    """The constant data the checks read is derived once, on first use,
    into read-only arrays shared by every check."""

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

    @cached_property
    def constant_frames(self) -> tuple[np.ndarray, np.ndarray] | None:
        """Matrices (G, E) of the frames if both are constant, else None."""
        G, E = self.G_frame.constant_matrix(), self.E_frame.constant_matrix()
        return None if G is None or E is None else _read_only(G, E)

    @cached_property
    def constant_grams(self) -> tuple[np.ndarray, np.ndarray] | None:
        """Grams (omega, F) of the forms if both are constant, else None."""
        W, F = self.omega.constant_gram(), self.F.constant_gram()
        return None if W is None or F is None else _read_only(W, F)

    @property
    def frames(self) -> tuple[np.ndarray, np.ndarray]:
        """constant_frames, or ValueError when a frame varies."""
        if self.constant_frames is None:
            raise ValueError("needs constant frames")
        return self.constant_frames

    @property
    def grams(self) -> tuple[np.ndarray, np.ndarray]:
        """constant_grams, or ValueError when omega or F varies."""
        if self.constant_grams is None:
            raise ValueError("needs constant omega and F")
        return self.constant_grams

    @cached_property
    def joint_inverse(self) -> np.ndarray:
        """Inverse of the joint frame [G | E], whose rows past rank(G) are
        the coframe dual to E; RankDropError on dependent columns."""
        G, E = self.frames
        _require_independent(E, G)
        return _read_only(np.linalg.inv(np.column_stack([G, E])))[0]


@dataclass(frozen=True)
class AmbientModel:
    """Gotay-style product ambient: Y times one line fiber per E direction.
    omega_M is closed exactly when the candidate's omega is; check_brane_via_J
    records that as a condition rather than refusing the model."""

    model_M: ManifoldModel
    omega_M: DifferentialForm
    n_base: int  # leading coordinates of model_M form Y


def ambient_for(c: BraneCandidate) -> AmbientModel:
    """Ambient model Y x R^k with omega_M = omega + sum d(eta_a) ^ dt_a.

    Each E direction gets a conjugate line fiber t_a, and omega_M couples
    them through the dual coframe eta_a of the E-frame, reducing to
    omega_N + dq^dt in the codimension-one product case.  The coupling
    needs constant frames; with E empty there is none to build.
    """
    n, k = c.model_Y.dim, c.E_frame.rank
    eta = c.joint_inverse[c.G_frame.rank:] if k else None
    M = c.model_Y
    taken = {name for name, _ in M.coords}
    for a in range(k):
        name = f"t{a + 1}"
        while name in taken:
            name = "_" + name
        taken.add(name)
        M = extend_with_line(M, name)
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


def _evaluate(plan: SamplePlan, model: ManifoldModel, constant, sampled):
    """A check's mode, point namer and arrays, one batch row per point.

    constant holds the arrays of constant data, or is None when some of
    the data varies.  On constant data the arrays are a batch of one and
    the mode is EXACT; the namer gives the first plan point, drawn only
    when a witness or an error names it.  Otherwise sampled(pts) evaluates
    the arrays at the plan's points, the namer gives point i, and the mode
    is SAMPLED.
    """
    if constant is not None:
        return (EXACT, lambda i: plan.points(model)[0],
                tuple(a[None] for a in constant))
    pts = plan.points(model)
    return SAMPLED, pts.__getitem__, sampled(pts)


def check_space_filling(omega: DifferentialForm, F: DifferentialForm,
                        plan: SamplePlan = DEFAULT_PLAN,
                        tol: float = DEFAULT_TOL.sampled) -> CheckResult:
    """closed omega, closed F, nondegenerate omega, and (omega^-1 F)^2 = -Id.

    On constant omega and F the check is EXACT: the Grams are evaluated
    once, held to EXACT_ZERO, and witnesses name the first plan point,
    the plan drawn only then; the record keeps omega's condition number
    and the matrix I.
    Otherwise it is SAMPLED at every plan point, held to tol.
    I_squared_plus_id is the worst residual over the nondegenerate
    samples, and is absent when there are none.
    """
    model = omega.model
    W, FC = omega.constant_gram(), F.constant_gram()
    mode, at, (WG, FG) = _evaluate(
        plan, model, None if W is None or FC is None else (W, FC),
        lambda pts: (omega.gram_batch(pts), F.gram_batch(pts)))
    res = CheckResult("space_filling", mode)
    res.hold("closed_omega", ext_d(omega).max_coeff(), EXACT_ZERO, "d_omega")
    res.hold("closed_F", ext_d(F).max_coeff(), EXACT_ZERO, "d_F")
    exact = mode == EXACT
    conds = np.array([condition_number(W) for W in WG])
    if exact:
        res.details["omega_condition"] = float(conds[0])
    degenerate = conds > CONDITION_LIMIT
    res.conditions["nondegenerate"] = not degenerate.any()
    if degenerate.any():
        res.add_witness(at(int(np.argmax(degenerate))), float("inf"),
                        "degenerate_omega")
    good = np.flatnonzero(~degenerate)
    if not good.size:
        res.conditions["I_squares_minus_id"] = True
        return res
    I = np.linalg.solve(WG[good], FG[good])
    if exact:
        res.details["I_matrix"] = I[0].tolist()
    res.hold("I_squares_minus_id",
             np.abs(I @ I + np.eye(model.dim)).max(axis=(1, 2)),
             EXACT_ZERO if exact else tol, "I_squared_plus_id",
             at=lambda j: at(good[j]), label="I_square")
    return res


def _require_independent(E: np.ndarray, G: np.ndarray, at: str = "") -> None:
    """Raise RankDropError unless the columns of E and G together have
    full rank; at is appended to the message."""
    M = np.column_stack([E, G])
    if M.shape[1] == 0:
        return
    s = np.linalg.svd(M, compute_uv=False)
    if not s[-1] > SVD_RANK_REL * max(s[0], 1.0):
        raise RankDropError("E and G frames are dependent: the joint frame "
                            f"[G | E] is singular{at}")


def validate_candidate(c: BraneCandidate,
                       plan: SamplePlan = DEFAULT_PLAN) -> None:
    """Raise RankDropError if the E and G frames are dependent: tested
    once on constant frames, by BraneCandidate.joint_inverse, else at the
    first 32 plan points, naming the first dependent sample."""
    if c.constant_frames is not None:
        c.joint_inverse  # raises on dependent frames
        return
    pts = plan.points(c.model_Y)[:32]
    for p, E, G in zip(pts, c.E_frame.matrices(pts),
                       c.G_frame.matrices(pts)):
        _require_independent(E, G, f" at sample {p.tolist()}")


def check_brane(c: BraneCandidate, plan: SamplePlan = DEFAULT_PLAN,
                tol: float = DEFAULT_TOL.sampled) -> CheckResult:
    """Kernels of omega and F both equal span(E); both forms closed;
    transverse endomorphism squares to -Id on the G-frame.

    On constant data (omega, F and both frames constant) the check is
    EXACT: the Grams and frames are evaluated once, the square is held to
    EXACT_ZERO, and witnesses and errors name the first plan point, the
    plan drawn only when one does.
    Otherwise it is SAMPLED at every plan point, the square held to tol.
    """
    validate_candidate(c, plan)
    grams, frames = c.constant_grams, c.constant_frames
    mode, at, (WG, FG, GM, EM) = _evaluate(
        plan, c.model_Y,
        None if grams is None or frames is None else grams + frames,
        lambda pts: (c.omega.gram_batch(pts), c.F.gram_batch(pts),
                     c.G_frame.matrices(pts), c.E_frame.matrices(pts)))
    res = CheckResult("brane", mode)
    res.hold("omega_closed", ext_d(c.omega).max_coeff(), EXACT_ZERO, "d_omega")
    res.hold("F_closed", ext_d(c.F).max_coeff(), EXACT_ZERO, "d_F")
    k = c.E_frame.rank
    angles = np.zeros((WG.shape[0], 2))  # per sample: omega's, F's
    squares = np.zeros(WG.shape[0])
    for i in range(WG.shape[0]):
        for f, (label, G) in enumerate((("omega", WG[i]), ("F", FG[i]))):
            nul = kernel_basis(G)
            if nul.shape[1] != k:
                raise RankDropError(
                    f"{label} kernel rank {nul.shape[1]} != {k} at sample "
                    f"{at(i).tolist()}")
            angles[i, f] = max_principal_angle(nul, EM[i]) if k else 0.0
        # transverse complex structure on the G-frame
        if GM.shape[2]:
            I = transverse_matrix(WG[i], FG[i], GM[i], lambda: (
                f"sample {at(i).tolist()} on the G-frame"))
            squares[i] = np.abs(I @ I + np.eye(GM.shape[2])).max()
    form = ("omega", "F")[int(np.argmax(angles.max(axis=0, initial=0.0)))]
    res.hold("kernels_equal", angles.max(axis=1), SUBSPACE, "kernel_angle",
             at=at, label=f"kernel_{form}")
    res.hold("transverse_I_squares", squares,
             EXACT_ZERO if mode == EXACT else tol, "transverse_square",
             at=at, label="transverse_square")
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


def check_brane_via_J(c: BraneCandidate,
                      plan: SamplePlan = DEFAULT_PLAN) -> CheckResult:
    """Brane test via J-invariance of tau_F in TM + T*M.

    J(X, xi) = (-omega_M^-1 xi, omega_M X) on the product ambient_for(c);
    the candidate passes iff J tau_F = tau_F at every sample and omega and
    F are closed.  omega_M, the lifted omega plus a constant coupling, is
    closed exactly when omega is, so a non-closed omega fails the
    omega_closed condition, as in check_brane, rather than raising.
    When omega and F are constant, so are the ambient form, J and tau_F:
    the check is EXACT, evaluated once, and witnesses and errors name the
    first plan point, the plan drawn only when one does.  Otherwise it is
    SAMPLED at every plan point.  The frames are validated as in check_brane.
    """
    validate_candidate(c, plan)
    ambient = ambient_for(c)
    m = ambient.model_M.dim
    n = ambient.n_base
    fibers = ((0, 0), (0, m - n))  # pads a sample to its ambient point
    mode, at, (WG, FG) = _evaluate(
        plan, c.model_Y, None if c.constant_grams is None else (
            ambient.omega_M.constant_gram(), c.grams[1]),
        lambda pts: (ambient.omega_M.gram_batch(np.pad(pts, fibers)),
                     c.F.gram_batch(pts)))
    res = CheckResult("brane_via_J", mode)
    res.hold("omega_closed", ext_d(c.omega).max_coeff(), EXACT_ZERO, "d_omega")
    res.hold("F_closed", ext_d(c.F).max_coeff(), EXACT_ZERO, "d_F")
    J_residuals = np.zeros(WG.shape[0])
    for i in range(WG.shape[0]):
        # the ambient point is the sample with every fiber coordinate 0
        _condition_gate(WG[i], lambda: (
            f"ambient sample {at(i).tolist() + [0.0] * (m - n)}"))
        Wmap = WG[i].T  # matrix of v -> i_v omega
        J = np.zeros((2 * m, 2 * m))
        J[:m, m:] = -np.linalg.inv(Wmap)
        J[m:, :m] = Wmap
        basis = _tau_F_basis(FG[i], m, n)
        Q, _ = np.linalg.qr(basis)
        img = J @ basis
        resid = img - Q @ (Q.T @ img)
        scale = max(np.linalg.norm(img, axis=0).max(), 1.0)
        J_residuals[i] = np.linalg.norm(resid, axis=0).max() / scale
    res.hold("J_invariant", J_residuals, SUBSPACE, "J_residual", at=at,
             label="J_invariance")
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
