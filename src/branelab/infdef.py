"""First-order deformation theory for brane candidates.

Deformation data is a pair: a 1-form carrying the normal speeds along the
kernel frame (stored in the gauge that annihilates the transverse frame)
and a 2-form deforming the brane form.  The module provides two
independent condition checkers that must agree, the explicit builder for
the product model N x S^1, Hamiltonian (coboundary) generators, the
forgetful projection onto the kernel component with its image criterion,
and truncated Fourier cochain complexes with numerically ranked first
cohomology.  Each rank is taken block by block over the connected
components of the matrix's nonzero pattern (for constant-coefficient
candidates, the Fourier blocks span{cos, sin}(2 pi k.x)) with the
threshold of one SVD of the whole matrix.

Sign convention: the generator map is f -> (df on the kernel frame,
Lie_{X_f} F); the opposite overall sign spans the same coboundaries.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from .brane import BraneCandidate, lift_form
from .fields import (COS, SIN, ScalarField, VectorField, bracket,
                     circle_average, directional, partial, q_antiderivative)
from .forms import (DifferentialForm, EndoField, _condition_gate, apply_form,
                    d_scalar, endo_from_pair, ext_d, horizontal_d, interior,
                    is_type_11, lie_derivative, sharp, span_residual, wedge)
from .model import (DEFAULT_PLAN, DEFAULT_TOL, ManifoldModel, SamplePlan,
                    Tolerances)
from .report import EXACT, CheckResult


class AverageObstruction(Exception):
    """The circle average of the induced slice 1-form is not closed, so no
    invariant extension of the normal speed exists."""

    def __init__(self, msg, residual=None):
        super().__init__(msg)
        self.residual = residual


class Type11Violation(Exception):
    """The seed 2-form fails the closed + type-(1,1) precondition."""


class CircleTermsError(Exception):
    """Polynomial terms in the parameter circle survived where the
    construction cancels them identically: an internal invariant of
    build_infdef is broken."""


@dataclass(frozen=True)
class InfDefPair:
    """A candidate first-order deformation: kernel-direction speeds r
    (a 1-form annihilating the transverse frame; rho dq in the product
    model) and a 2-form B."""

    r: DifferentialForm
    B: DifferentialForm
    r_bar: DifferentialForm | None = None

    def __post_init__(self):
        if self.r.degree != 1 or self.B.degree != 2:
            raise ValueError("pair needs a 1-form and a 2-form")
        if self.r.model != self.B.model:
            raise ValueError("pair components live on different models")
        if self.r_bar is None:
            object.__setattr__(self, "r_bar", self.r)


def joint_inverse(c: BraneCandidate) -> tuple[np.ndarray, np.ndarray]:
    """(P, P^-1) for the constant joint frame P = [G columns | E columns]."""
    GC = c.G_frame.constant_matrix()
    EC = c.E_frame.constant_matrix()
    if GC is None or EC is None:
        raise ValueError("needs constant frames")
    n = c.model_Y.dim
    cols = [m for m in (GC, EC) if m.size]
    P = np.column_stack(cols) if cols else np.eye(n)
    return P, np.linalg.inv(P)


def pair_from_values(c: BraneCandidate, values, B: DifferentialForm) -> InfDefPair:
    """Assemble a pair from per-kernel-direction speed fields.

    values[a] is the speed along the a-th kernel frame field; the stored
    1-form is sum_a values[a] * eta_a with eta the dual coframe rows that
    annihilate the transverse frame.
    """
    y = c.model_Y
    _, D = joint_inverse(c)
    raw: dict = {}
    for a in range(c.E_frame.rank):
        v = values[a]
        if isinstance(v, (int, float)):
            v = ScalarField.constant(y, v)
        eta = D[c.G_frame.rank + a]
        for i in range(y.dim):
            if eta[i] != 0.0:
                piece = v * float(eta[i])
                raw[(i,)] = raw[(i,)] + piece if (i,) in raw else piece
    r = DifferentialForm.build(y, 1, raw)
    return InfDefPair(r, B)


def kernel_values(pair: InfDefPair, c: BraneCandidate) -> list[ScalarField]:
    """The speeds r(e_a) along the kernel frame."""
    return [apply_form(pair.r_bar, [e]) for e in c.E_frame.frame]


def transverse_endo(c: BraneCandidate) -> EndoField:
    """The complex structure transverse to the kernel, extended by zero on
    the kernel frame (constant-coefficient candidates only)."""
    P, D = joint_inverse(c)
    W = c.omega.constant_gram()
    Fg = c.F.constant_gram()
    if W is None or Fg is None:
        raise ValueError("transverse endomorphism needs constant forms")
    GC = c.G_frame.constant_matrix()
    rg = c.G_frame.rank
    Wg = GC.T @ W @ GC
    _condition_gate(Wg, "restriction of the nondegenerate form")
    Ig = np.linalg.solve(Wg, GC.T @ Fg @ GC)
    A = np.zeros((c.model_Y.dim, c.model_Y.dim))
    A[:rg, :rg] = Ig
    return EndoField.from_matrix(c.model_Y, P @ A @ D)


def _involutive(dist, plan: SamplePlan, tol: float) -> bool:
    if dist.constant_matrix() is not None:
        return True
    pts = plan.points(dist.model)
    for a in range(dist.rank):
        for b in range(a + 1, dist.rank):
            br = bracket(dist.frame[a], dist.frame[b])
            vals = br.eval_batch(pts)
            for i in range(pts.shape[0]):
                if span_residual(dist.matrix_at(pts[i]), vals[i]) > tol:
                    return False
    return True


def _pairing(alpha: DifferentialForm, x: VectorField) -> ScalarField:
    return apply_form(alpha, [x])


def check_infdef(pair: InfDefPair, c: BraneCandidate,
                 plan: SamplePlan = DEFAULT_PLAN,
                 tol: Tolerances = DEFAULT_TOL) -> CheckResult:
    """Direct first-order conditions on (r, B).

    Conditions: the kernel-direction exterior derivative of r vanishes,
    B is closed and horizontal, the mixed equation B(e, v) = -(d r)(e)
    pulled through the transverse complex structure, and the transverse
    quadratic compatibility (type-(1,1) on an involutive transverse frame,
    the full form otherwise).
    """
    if pair.r.model != c.model_Y:
        raise ValueError("pair and candidate live on different models")
    E, G = c.E_frame, c.G_frame
    I_hat = transverse_endo(c)
    res = CheckResult("infdef", EXACT, False)
    dr = ext_d(pair.r_bar)

    r_fc = 0.0
    for a in range(E.rank):
        for b in range(a + 1, E.rank):
            r_fc = max(r_fc, apply_form(
                dr, [E.frame[a], E.frame[b]]).max_coeff())
    res.conditions["r_foliated_closed"] = bool(r_fc <= tol.exact_zero)
    res.residuals["r_foliated_closed"] = r_fc

    dB = ext_d(pair.B)
    res.conditions["B_closed"] = dB.is_zero(tol.exact_zero)
    res.residuals["B_closed"] = dB.max_coeff()

    hor = 0.0
    for a in range(E.rank):
        for b in range(a + 1, E.rank):
            hor = max(hor, apply_form(
                pair.B, [E.frame[a], E.frame[b]]).max_coeff())
    res.conditions["B_horizontal"] = bool(hor <= tol.exact_zero)
    res.residuals["B_horizontal"] = hor

    mixed = 0.0
    for e in E.frame:
        alpha = interior(e, dr)
        for v in G.frame:
            resid = apply_form(pair.B, [e, v]) + _pairing(alpha, I_hat.apply(v))
            mixed = max(mixed, resid.max_coeff())
    res.conditions["mixed_iii"] = bool(mixed <= tol.exact_zero)
    res.residuals["mixed_iii"] = mixed

    if _involutive(G, plan, tol.subspace):
        quad = 0.0
        for a in range(G.rank):
            for b in range(a + 1, G.rank):
                resid = apply_form(
                    pair.B, [I_hat.apply(G.frame[a]), I_hat.apply(G.frame[b])]
                ) - apply_form(pair.B, [G.frame[a], G.frame[b]])
                quad = max(quad, resid.max_coeff())
    else:
        quad = _eq_iv_residual(pair, c, I_hat)
    res.conditions["quad_iv"] = bool(quad <= tol.exact_zero)
    res.residuals["quad_iv"] = quad

    res.passed = all(res.conditions.values())
    return res


def _eq_iv_residual(pair: InfDefPair, c: BraneCandidate,
                    I_hat: EndoField) -> float:
    """Residual of the transverse quadratic equation, with kernel-frame
    arguments lifted by zero and transverse arguments through the
    transverse frame."""
    omega_dot = -ext_d(pair.r_bar)
    worst = 0.0
    for x in tuple(c.E_frame.frame) + tuple(c.G_frame.frame):
        ix = I_hat.apply(x)
        for v in c.G_frame.frame:
            iv = I_hat.apply(v)
            lhs = apply_form(omega_dot, [x, v]) + apply_form(pair.B, [ix, v])
            rhs = apply_form(omega_dot, [ix, iv]) - apply_form(pair.B, [x, iv])
            worst = max(worst, (lhs - rhs).max_coeff())
    return worst


def infdef_general_check(pair: InfDefPair, c: BraneCandidate,
                         plan: SamplePlan = DEFAULT_PLAN,
                         tol: Tolerances = DEFAULT_TOL) -> CheckResult:
    """Second implementation path phrased through the form speeds
    (omega_dot = -d r, F_dot = B); must agree with check_infdef."""
    if pair.r.model != c.model_Y:
        raise ValueError("pair and candidate live on different models")
    E, G = c.E_frame, c.G_frame
    I_hat = transverse_endo(c)
    res = CheckResult("infdef_general", EXACT, False)
    omega_dot = -ext_d(pair.r_bar)

    hor = 0.0
    for a in range(E.rank):
        for b in range(a + 1, E.rank):
            hor = max(hor, apply_form(
                omega_dot, [E.frame[a], E.frame[b]]).max_coeff())
    res.conditions["omega_dot_horizontal"] = bool(hor <= tol.exact_zero)
    res.residuals["omega_dot_horizontal"] = hor

    dB = ext_d(pair.B)
    res.conditions["F_dot_closed"] = dB.is_zero(tol.exact_zero)
    res.residuals["F_dot_closed"] = dB.max_coeff()

    fhor = 0.0
    for a in range(E.rank):
        for b in range(a + 1, E.rank):
            fhor = max(fhor, apply_form(
                pair.B, [E.frame[a], E.frame[b]]).max_coeff())
    res.conditions["F_dot_horizontal"] = bool(fhor <= tol.exact_zero)
    res.residuals["F_dot_horizontal"] = fhor

    mixed = 0.0
    for e in E.frame:
        alpha = interior(e, omega_dot)
        for v in G.frame:
            resid = apply_form(pair.B, [e, v]) - _pairing(alpha, I_hat.apply(v))
            mixed = max(mixed, resid.max_coeff())
    res.conditions["mixed_iii"] = bool(mixed <= tol.exact_zero)
    res.residuals["mixed_iii"] = mixed

    quad = _eq_iv_residual(pair, c, I_hat)
    res.conditions["eq_iv"] = bool(quad <= tol.exact_zero)
    res.residuals["eq_iv"] = quad

    res.passed = all(res.conditions.values())
    return res


def hamiltonian_generator(f: ScalarField, c: BraneCandidate) -> InfDefPair:
    """Coboundary pair of a function: speeds df(e_a) along the kernel frame
    and the Lie derivative of the brane form along the transverse
    Hamiltonian field X_f solving omega(X_f, g) = df(g) on the transverse
    frame."""
    if f.model != c.model_Y:
        raise ValueError("f must live on the candidate's model")
    GC = c.G_frame.constant_matrix()
    if GC is None:
        raise ValueError("needs a constant transverse frame")
    W = c.omega.constant_gram()
    if W is None:
        raise ValueError("needs a constant-coefficient form")
    rg = c.G_frame.rank
    Wg = GC.T @ W @ GC
    _condition_gate(Wg, "restriction of the nondegenerate form")
    A = np.linalg.inv(Wg.T)
    rhs = [directional(c.G_frame.frame[b], f) for b in range(rg)]
    y = c.model_Y
    comps = [ScalarField.zero(y) for _ in range(y.dim)]
    for a in range(rg):
        coeff_a = ScalarField.zero(y)
        for b in range(rg):
            if A[a, b] != 0.0:
                coeff_a = coeff_a + rhs[b] * float(A[a, b])
        for i in range(y.dim):
            if GC[i, a] != 0.0:
                comps[i] = comps[i] + coeff_a * float(GC[i, a])
    X_f = VectorField(y, tuple(comps))
    B = lie_derivative(X_f, c.F)
    values = [directional(e, f) for e in c.E_frame.frame]
    p = pair_from_values(c, values, B)
    return p


def upsilon(pair: InfDefPair) -> DifferentialForm:
    """Forgetful projection onto the kernel-direction component."""
    return pair.r


def _project_drop(f: ScalarField, target: ManifoldModel,
                  drop: int) -> ScalarField:
    raw = {}
    for (p, k, ph), coeff in f.terms:
        if p[drop] != 0 or k[drop] != 0:
            raise ValueError("field still depends on the dropped coordinate")
        key = (p[:drop] + p[drop + 1:], k[:drop] + k[drop + 1:], ph)
        raw[key] = raw.get(key, 0.0) + coeff
    return ScalarField.build(target, raw)


def _drop_last_circle(model: ManifoldModel) -> tuple[ManifoldModel, int]:
    q = model.dim - 1
    if not model.is_circle(q):
        raise ValueError("expected the parameter circle as last coordinate")
    return ManifoldModel(model.coords[:-1]), q


def upsilon_image_check(r: DifferentialForm, omega_N: DifferentialForm,
                        F_N: DifferentialForm,
                        tol: Tolerances = DEFAULT_TOL) -> CheckResult:
    """Image criterion for the kernel component r = rho dq on N x S^1.

    Averages rho over the circle, then demands d(pullback-through-I of dh)
    vanish on N; the equivalent route through the Lie derivative of F_N
    along the Hamiltonian field of the average is computed independently
    and must agree.
    """
    N_model, q = _drop_last_circle(r.model)
    if omega_N.model != N_model or F_N.model != N_model:
        raise ValueError("base forms must live on the base factor of r's model")
    for idx, _ in r.coeffs:
        if idx != (q,):
            raise ValueError("r must be supported on the circle direction")
    rho = r.coeff((q,))
    h = _project_drop(circle_average(rho, q), N_model, q)

    I_N = endo_from_pair(omega_N, F_N)
    beta = ext_d(I_N.pullback_oneform(d_scalar(h)))
    X_h = sharp(omega_N, d_scalar(h))
    lie = lie_derivative(X_h, F_N)

    res = CheckResult("upsilon_image", EXACT, False)
    res.conditions["pde_vanishes"] = beta.is_zero(tol.exact_zero)
    res.residuals["pde_vanishes"] = beta.max_coeff()
    res.conditions["lie_vanishes"] = lie.is_zero(tol.exact_zero)
    res.residuals["lie_vanishes"] = lie.max_coeff()
    res.conditions["routes_agree"] = (
        res.conditions["pde_vanishes"] == res.conditions["lie_vanishes"])
    res.passed = all(res.conditions.values())
    res.details["average"] = str(h)
    return res


def _restrict_product_form(form: DifferentialForm, N_model: ManifoldModel,
                           q: int) -> DifferentialForm:
    raw = {}
    for idx, f in form.coeffs:
        if q in idx:
            raise ValueError("form has components along the parameter circle")
        raw[idx] = _project_drop(f, N_model, q)
    return DifferentialForm.build(N_model, form.degree, raw)


def build_infdef(rho, B_N0: DifferentialForm, c: BraneCandidate,
                 tol: Tolerances = DEFAULT_TOL) -> InfDefPair:
    """Explicit deformation pair on the product model N x S^1 from a
    normal-speed function rho and a closed type-(1,1) seed 2-form on N.

    The 2-form is seed + d_N of the partial circle antiderivative of the
    slice 1-form, plus dq wedge that 1-form.  The circle average of the
    slice 1-form must be closed on N (else AverageObstruction); the
    antiderivative's polynomial terms then cancel identically, which is
    checked (CircleTermsError otherwise), never tolerated.
    """
    y = c.model_Y
    N_model, q = _drop_last_circle(y)
    EC = c.E_frame.constant_matrix()
    if c.E_frame.rank != 1 or EC is None or not np.allclose(
            EC[:, 0] / EC[q, 0] if EC[q, 0] else EC[:, 0],
            np.eye(y.dim)[q]):
        raise ValueError("expected the kernel frame d/dq on the product model")
    if isinstance(rho, (int, float)):
        rho = ScalarField.constant(y, rho)
    if rho.model != y:
        raise ValueError("rho must live on the product model")
    if B_N0.model != N_model or B_N0.degree != 2:
        raise ValueError("seed must be a 2-form on the base factor")
    omega_N = _restrict_product_form(c.omega, N_model, q)
    F_N = _restrict_product_form(c.F, N_model, q)
    I_N = endo_from_pair(omega_N, F_N)
    IN = I_N.constant_matrix()
    if IN is None:
        raise ValueError("needs constant-coefficient base forms")

    if not ext_d(B_N0).is_zero(tol.exact_zero):
        raise Type11Violation("seed 2-form is not closed")
    if not is_type_11(B_N0, I_N, tol=tol.exact_zero):
        raise Type11Violation("seed 2-form is not type (1,1)")

    # slice 1-form: the transverse complex structure applied to the slice
    # differential of rho
    grads = [partial(rho, j) for j in range(N_model.dim)]
    gamma = []
    for j in range(N_model.dim):
        acc = ScalarField.zero(y)
        for i in range(N_model.dim):
            if IN[i, j] != 0.0:
                acc = acc + grads[i] * float(IN[i, j])
        gamma.append(acc)
    gamma_form = DifferentialForm.build(
        y, 1, {(j,): gamma[j] for j in range(N_model.dim)})

    avg = DifferentialForm.build(
        y, 1, {(j,): circle_average(gamma[j], q) for j in range(N_model.dim)})
    d_avg = horizontal_d(avg, range(N_model.dim))
    if not d_avg.is_zero(tol.exact_zero):
        raise AverageObstruction(
            "circle average of the slice 1-form is not closed "
            f"(residual {d_avg.max_coeff():.3e})",
            residual=d_avg.max_coeff())

    anti = DifferentialForm.build(
        y, 1, {(j,): q_antiderivative(gamma[j], q) for j in range(N_model.dim)})
    d_anti = horizontal_d(anti, range(N_model.dim))
    if any(f.has_circle_powers for _, f in d_anti.coeffs):
        raise CircleTermsError(
            "polynomial circle terms of the antiderivative failed to cancel")

    B = (lift_form(B_N0, y, list(range(N_model.dim))) + d_anti
         + wedge(DifferentialForm.basis(y, (q,)), gamma_form))
    if any(f.has_circle_powers for _, f in B.coeffs):
        raise CircleTermsError("the built 2-form has polynomial circle terms")
    r = DifferentialForm.build(y, 1, {(q,): rho})
    return InfDefPair(r, B)


# -- truncated Fourier cochain complexes --------------------------------


def _function_keys(dim: int, truncation: int) -> list[tuple[tuple[int, ...], int]]:
    """Canonical (frequency vector, phase) basis keys, lexicographic in the
    frequency vector; one cosine for the zero vector, cosine and sine for
    each sign-normalized nonzero vector."""
    keys = []
    for vec in itertools.product(range(-truncation, truncation + 1),
                                 repeat=dim):
        if not any(vec):
            keys.append((vec, COS))
            continue
        first = next(k for k in vec if k != 0)
        if first > 0:
            keys.append((vec, COS))
            keys.append((vec, SIN))
    return keys


def _basis_field(model: ManifoldModel, key) -> ScalarField:
    vec, phase = key
    if phase == COS:
        return ScalarField.cosine(model, vec)
    return ScalarField.sine(model, vec)


def _field_into(f: ScalarField, key_index: dict, out: np.ndarray,
                col: int, row_base: int, stride: int) -> None:
    for (p, k, ph), coeff in f.terms:
        if any(p):
            raise ValueError("polynomial term outside the torus basis")
        out[row_base + stride * key_index[(k, ph)], col] += coeff


def constant_type11_basis(c: BraneCandidate) -> list[np.ndarray]:
    """Orthonormal coefficient vectors (over index pairs a < b) spanning the
    constant 2-forms fixed by the complex-structure pullback."""
    I = endo_from_pair(c.omega, c.F).constant_matrix()
    if I is None:
        raise ValueError("needs a constant complex structure")
    n = c.model_Y.dim
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    L = np.zeros((len(pairs), len(pairs)))
    for col, (cc, d) in enumerate(pairs):
        # image of the elementary skew form e_c ^ e_d under pullback
        for row, (a, b) in enumerate(pairs):
            L[row, col] = I[cc, a] * I[d, b] - I[d, a] * I[cc, b]
    u, s, vt = np.linalg.svd(L - np.eye(len(pairs)))
    null_dim = int(np.sum(s <= 1e-10 * max(s.max(), 1.0)))
    return [vt[len(pairs) - 1 - k] for k in range(null_dim)][::-1]


def _block_rank(M: np.ndarray,
                rank_rel: float) -> tuple[int, list[tuple[int, int]]]:
    """Numerical rank of M and the shapes of the blocks it was taken over.

    Rows and columns are the nodes of a graph whose edges are the nonzero
    entries of M; each connected component spans one diagonal block of M
    after a row and a column permutation.  Permutations keep singular
    values, so the singular values of M are the union of the blocks'
    values, and counting those above rank_rel times the largest of all of
    them is the rank a dense SVD of M gives.  A matrix that does not
    decouple is one block.
    """
    rows, cols = np.nonzero(M)
    if rows.size == 0:
        return 0, []
    m, n = M.shape
    graph = coo_matrix((np.ones(rows.size), (rows, cols + m)),
                       shape=(m + n, m + n))
    ncomp, labels = connected_components(graph, directed=False)
    order = np.argsort(labels, kind="stable")
    bounds = np.searchsorted(labels[order], np.arange(ncomp + 1))
    values, shapes = [], []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        # ascending node ids (the sort is stable): rows first, then columns
        nodes = order[lo:hi]
        split = int(np.searchsorted(nodes, m))
        if split == 0 or split == nodes.size:
            continue  # a zero row or a zero column on its own
        r, c = nodes[:split], nodes[split:] - m
        values.append(np.linalg.svd(M[np.ix_(r, c)], compute_uv=False))
        shapes.append((r.size, c.size))
    s = np.concatenate(values)
    return int(np.sum(s > rank_rel * s.max())), shapes


@dataclass
class ComplexSlice:
    """Matrices of the two-step deformation complex on truncated Fourier
    bases, with lazily computed numerical ranks.

    d0 and d1 are dense.  Each rank is taken block by block over the
    connected components of the matrix's nonzero pattern (see _block_rank),
    which for constant-coefficient candidates are the Fourier blocks; the
    threshold is rank_rel times the largest singular value of the whole
    matrix, so the rank is that of one dense SVD.
    """

    model: ManifoldModel
    truncation: int
    shape: str  # "space_filling" or "codim1"
    function_keys: list
    d0: np.ndarray
    d1: np.ndarray
    rank_rel: float = DEFAULT_TOL.svd_rank_rel
    _ranked: dict = field(default_factory=dict, init=False, repr=False,
                          compare=False)

    def d1_d0_residual(self) -> float:
        if self.d0.size == 0 or self.d1.size == 0:
            return 0.0
        return float(np.abs(self.d1 @ self.d0).max())

    def d1_d0_bound(self) -> float:
        """Rounding bound of |d1 d0| when the exact product vanishes:
        n eps max_i sum_k |d1_ik| max |d0| with n the inner dimension, at
        least 1e-10.  Row sums are taken 256 rows at a time, so no
        full-size copy of d1 is made."""
        if self.d0.size == 0 or self.d1.size == 0:
            return 1e-10
        row_sum = max(float(np.abs(self.d1[r:r + 256]).sum(axis=1).max())
                      for r in range(0, self.d1.shape[0], 256))
        return max(1e-10, self.d1.shape[1] * np.finfo(float).eps * row_sum
                   * float(np.abs(self.d0).max()))

    def _rank(self, which: str) -> tuple[int, list[tuple[int, int]]]:
        """(numerical rank, block shapes) of d0 or d1, computed once."""
        if which not in self._ranked:
            self._ranked[which] = _block_rank(getattr(self, which),
                                              self.rank_rel)
        return self._ranked[which]

    @property
    def rank_d0(self) -> int:
        return self._rank("d0")[0]

    @property
    def dim_ker_d1(self) -> int:
        return self.d1.shape[1] - self._rank("d1")[0]

    @property
    def h1(self) -> int:
        return self.dim_ker_d1 - self.rank_d0

    def block_summary(self) -> dict:
        """Block count and largest block shape (most entries) of d0 and d1."""
        out = {}
        for which in ("d0", "d1"):
            shapes = self._rank(which)[1]
            largest = max(shapes, key=lambda rc: rc[0] * rc[1],
                          default=(0, 0))
            out[which] = {"blocks": len(shapes), "largest": list(largest)}
        return out


def complex_slice(c: BraneCandidate, truncation: int) -> ComplexSlice:
    """Assemble the deformation complex at a Fourier truncation.

    Space filling: functions -> invariant-type 2-forms -> 3-forms, with the
    generator map into the middle and the exterior derivative out of it.
    Product model: functions -> (kernel speeds + 2-forms) -> 3-forms, the
    second map acting by the exterior derivative on the 2-form part.
    """
    y = c.model_Y
    if len(y.circle_indices) != y.dim:
        raise ValueError("truncated Fourier bases need a torus model")
    maxfreq = 0
    for form in (c.omega, c.F):
        for _, f in form.coeffs:
            for (_, k, _), _ in f.terms:
                maxfreq = max(maxfreq, max(map(abs, k), default=0))
    if truncation < maxfreq:
        raise ValueError("truncation too small for the candidate's "
                         "coefficients")
    keys = _function_keys(y.dim, truncation)
    key_index = {k: i for i, k in enumerate(keys)}
    nfun = len(keys)
    triples = [(a, b, cc) for a in range(y.dim)
               for b in range(a + 1, y.dim) for cc in range(b + 1, y.dim)]
    triple_index = {t: i for i, t in enumerate(triples)}

    if c.E_frame.rank == 0:
        frame_vecs = constant_type11_basis(c)
        pairs = [(a, b) for a in range(y.dim) for b in range(a + 1, y.dim)]
        pair_index = {p: i for i, p in enumerate(pairs)}
        frame_mat = np.column_stack(frame_vecs)
        frame_pinv = np.linalg.pinv(frame_mat)
        nmid = len(frame_vecs) * nfun

        def decompose_2form(B: DifferentialForm, out: np.ndarray, col: int):
            comp = np.zeros((len(pairs), nfun))
            for idx, f in B.coeffs:
                for (p, k, ph), coeff in f.terms:
                    if any(p):
                        raise ValueError("polynomial term outside the basis")
                    comp[pair_index[idx], key_index[(k, ph)]] += coeff
            coords = frame_pinv @ comp
            resid = np.abs(frame_mat @ coords - comp).max(initial=0.0)
            if resid > 1e-10 * max(1.0, np.abs(comp).max(initial=0.0)):
                raise ValueError("2-form leaves the invariant-type span")
            for kk in range(len(frame_vecs)):
                out[kk * nfun:(kk + 1) * nfun, col] = coords[kk]

        d0 = np.zeros((nmid, nfun))
        for col, key in enumerate(keys):
            f = _basis_field(y, key)
            X_f = sharp(c.omega, d_scalar(f))
            B = lie_derivative(X_f, c.F)
            decompose_2form(B, d0, col)

        d1 = np.zeros((len(triples) * nfun, nmid))
        for kk, vec in enumerate(frame_vecs):
            frame_form = DifferentialForm.build(
                y, 2, {pairs[i]: ScalarField.constant(y, vec[i])
                       for i in range(len(pairs)) if vec[i] != 0.0})
            for col_f, key in enumerate(keys):
                col = kk * nfun + col_f
                dB = ext_d(frame_form * _basis_field(y, key))
                for idx, f in dB.coeffs:
                    _field_into(f, key_index, d1, col,
                                triple_index[idx] * nfun, 1)
        return ComplexSlice(y, truncation, "space_filling", keys, d0, d1)

    # product model: middle space is kernel speeds (one function) plus all
    # 2-form components
    N_model, q = _drop_last_circle(y)
    pairs = [(a, b) for a in range(y.dim) for b in range(a + 1, y.dim)]
    pair_index = {p: i for i, p in enumerate(pairs)}
    nmid = nfun + len(pairs) * nfun

    d0 = np.zeros((nmid, nfun))
    for col, key in enumerate(keys):
        f = _basis_field(y, key)
        p = hamiltonian_generator(f, c)
        _field_into(p.r.coeff((q,)), key_index, d0, col, 0, 1)
        for idx, g in p.B.coeffs:
            _field_into(g, key_index, d0, col,
                        nfun + pair_index[idx] * nfun, 1)

    d1 = np.zeros((len(triples) * nfun, nmid))
    for pi, pp in enumerate(pairs):
        base_form = DifferentialForm.basis(y, pp)
        for col_f, key in enumerate(keys):
            col = nfun + pi * nfun + col_f
            dB = ext_d(base_form * _basis_field(y, key))
            for idx, f in dB.coeffs:
                _field_into(f, key_index, d1, col, triple_index[idx] * nfun, 1)
    return ComplexSlice(y, truncation, "codim1", keys, d0, d1)
