"""First-order deformation theory for brane candidates.

Deformation data is a pair: a 1-form carrying the normal speeds along the
kernel frame (stored in the gauge that annihilates the transverse frame)
and a 2-form deforming the brane form.  The module provides two
independent condition checkers that must agree, the explicit builder for
the product model N x S^1, Hamiltonian (coboundary) generators, the
forgetful projection onto the kernel component with its image criterion,
and truncated Fourier cochain complexes with numerically ranked first
cohomology.  One assembly builds the complex of both shapes (space
filling and N x S^1); the shape picks only the constant 2-form frame, the
speed block and the generator map.  The complex needs constant omega and
F, so every map keeps each frequency pair span{cos, sin}(2 pi k.x) to
itself; each rank is taken one frequency block at a time with the
threshold of one SVD of the whole matrix.

Sign convention: the generator map is f -> (df on the kernel frame,
Lie_{X_f} F); the opposite overall sign spans the same coboundaries.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .brane import BraneCandidate, invert_joint_frame, lift_form
from .fields import (COS, SIN, ScalarField, VectorField, circle_average,
                     directional, linear_map, q_antiderivative, reindex)
from .forms import (DifferentialForm, EndoField, apply_form,
                    bracket_span_residual, d_scalar, endo_from_pair, ext_d,
                    frame_residual, hamiltonian, horizontal_d, interior,
                    is_type_11, lie_derivative, sharp, transverse_matrix,
                    wedge)
from .model import (DEFAULT_PLAN, DEFAULT_TOL, ManifoldModel, SamplePlan,
                    Tolerances)
from .nearby import slice_oneform
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

    def __post_init__(self):
        if self.r.degree != 1 or self.B.degree != 2:
            raise ValueError("pair needs a 1-form and a 2-form")
        if self.r.model != self.B.model:
            raise ValueError("pair components live on different models")


def joint_inverse(c: BraneCandidate) -> tuple[np.ndarray, np.ndarray]:
    """(P, P^-1) for the constant joint frame P = [G columns | E columns];
    raises RankDropError when the frames are dependent."""
    GC = c.G_frame.constant_matrix()
    EC = c.E_frame.constant_matrix()
    if GC is None or EC is None:
        raise ValueError("needs constant frames")
    return invert_joint_frame(GC, EC)


def pair_from_values(c: BraneCandidate, values, B: DifferentialForm) -> InfDefPair:
    """Assemble a pair from per-kernel-direction speed fields.

    values[a] is the speed along the a-th kernel frame field; the stored
    1-form is sum_a values[a] * eta_a with eta the dual coframe rows that
    annihilate the transverse frame.
    """
    y = c.model_Y
    _, D = joint_inverse(c)
    values = [ScalarField.constant(y, v) if isinstance(v, (int, float)) else v
              for v in values]
    eta = D[c.G_frame.rank:]
    return InfDefPair(DifferentialForm.build(y, 1, {
        (i,): r for i, r in enumerate(linear_map(y, eta.T, values))}), B)


def transverse_endo(c: BraneCandidate) -> EndoField:
    """The complex structure transverse to the kernel, extended by zero on
    the kernel frame (constant-coefficient candidates only)."""
    P, D = joint_inverse(c)
    W = c.omega.constant_gram()
    Fg = c.F.constant_gram()
    if W is None or Fg is None:
        raise ValueError("transverse endomorphism needs constant forms")
    rg = c.G_frame.rank
    A = np.zeros((c.model_Y.dim, c.model_Y.dim))
    A[:rg, :rg] = transverse_matrix(W, Fg, c.G_frame.constant_matrix(),
                                    "restriction of the nondegenerate form")
    return EndoField.from_matrix(c.model_Y, P @ A @ D)


def _involutive(dist, plan: SamplePlan, tol: float) -> bool:
    return (dist.constant_matrix() is not None
            or bracket_span_residual(dist, plan.points(dist.model)) <= tol)


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
    IG = [I_hat.apply(v) for v in G.frame]
    res = CheckResult("infdef", EXACT, False)
    dr = ext_d(pair.r)
    bound = tol.exact_zero
    res.hold("r_foliated_closed", frame_residual(dr, E.frame), bound)
    res.hold("B_closed", ext_d(pair.B).max_coeff(), bound)
    res.hold("B_horizontal", frame_residual(pair.B, E.frame), bound)
    alphas = [interior(e, dr) for e in E.frame]
    res.hold("mixed_iii", max((
        (apply_form(pair.B, [e, v]) + apply_form(alpha, [iv])).max_coeff()
        for e, alpha in zip(E.frame, alphas)
        for v, iv in zip(G.frame, IG)), default=0.0), bound)
    if _involutive(G, plan, tol.subspace):
        quad = max((
            (apply_form(pair.B, [ia, ib])
             - apply_form(pair.B, [a, b])).max_coeff()
            for (a, ia), (b, ib) in itertools.combinations(
                zip(G.frame, IG), 2)), default=0.0)
    else:
        quad = _eq_iv_residual(pair, c, I_hat)
    res.hold("quad_iv", quad, bound)
    res.passed = all(res.conditions.values())
    return res


def _eq_iv_residual(pair: InfDefPair, c: BraneCandidate,
                    I_hat: EndoField) -> float:
    """Residual of the transverse quadratic equation, with kernel-frame
    arguments lifted by zero and transverse arguments through the
    transverse frame."""
    omega_dot = -ext_d(pair.r)
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
    IG = [I_hat.apply(v) for v in G.frame]
    res = CheckResult("infdef_general", EXACT, False)
    omega_dot = -ext_d(pair.r)
    bound = tol.exact_zero
    res.hold("omega_dot_horizontal", frame_residual(omega_dot, E.frame),
             bound)
    res.hold("F_dot_closed", ext_d(pair.B).max_coeff(), bound)
    res.hold("F_dot_horizontal", frame_residual(pair.B, E.frame), bound)
    alphas = [interior(e, omega_dot) for e in E.frame]
    res.hold("mixed_iii", max((
        (apply_form(pair.B, [e, v]) - apply_form(alpha, [iv])).max_coeff()
        for e, alpha in zip(E.frame, alphas)
        for v, iv in zip(G.frame, IG)), default=0.0), bound)
    res.hold("eq_iv", _eq_iv_residual(pair, c, I_hat), bound)
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
    y = c.model_Y
    # X_f = sum_a coeff[a] * (a-th transverse frame field), with coeff
    # solving the restriction of omega to the frame against df on it
    coeff = hamiltonian(GC.T @ W @ GC,
                        [directional(g, f) for g in c.G_frame.frame], y,
                        "restriction of the nondegenerate form")
    X_f = VectorField(y, linear_map(y, GC, coeff))
    values = [directional(e, f) for e in c.E_frame.frame]
    return pair_from_values(c, values, lie_derivative(X_f, c.F))


def _drop_last_circle(model: ManifoldModel) -> tuple[ManifoldModel, int]:
    q = model.dim - 1
    if not model.is_circle(q):
        raise ValueError("expected the parameter circle as last coordinate")
    return ManifoldModel(model.coords[:-1]), q


def _kernel_circle(c: BraneCandidate) -> tuple[ManifoldModel, int]:
    """(N, q) for a candidate on N x S^1 whose kernel frame is d/dq."""
    y = c.model_Y
    N_model, q = _drop_last_circle(y)
    EC = c.E_frame.constant_matrix()
    if c.E_frame.rank != 1 or EC is None or not np.allclose(
            EC[:, 0] / EC[q, 0] if EC[q, 0] else EC[:, 0],
            np.eye(y.dim)[q]):
        raise ValueError("expected the kernel frame d/dq on the product model")
    return N_model, q


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
    h = reindex(circle_average(rho, q), N_model, [*range(q), None])

    I_N = endo_from_pair(omega_N, F_N)
    beta = ext_d(I_N.pullback_oneform(d_scalar(h)))
    X_h = sharp(omega_N, d_scalar(h))
    lie = lie_derivative(X_h, F_N)

    res = CheckResult("upsilon_image", EXACT, False)
    res.hold("pde_vanishes", beta.max_coeff(), tol.exact_zero)
    res.hold("lie_vanishes", lie.max_coeff(), tol.exact_zero)
    res.conditions["routes_agree"] = (
        res.conditions["pde_vanishes"] == res.conditions["lie_vanishes"])
    res.passed = all(res.conditions.values())
    res.details["average"] = str(h)
    return res


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
    N_model, q = _kernel_circle(c)
    if isinstance(rho, (int, float)):
        rho = ScalarField.constant(y, rho)
    if rho.model != y:
        raise ValueError("rho must live on the product model")
    if B_N0.model != N_model or B_N0.degree != 2:
        raise ValueError("seed must be a 2-form on the base factor")
    restrict = [*range(q), None]  # N x S^1 -> N
    omega_N = lift_form(c.omega, N_model, restrict)
    F_N = lift_form(c.F, N_model, restrict)
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
    gamma_form = slice_oneform(rho, IN)

    avg = DifferentialForm.build(
        y, 1, {j: circle_average(f, q) for j, f in gamma_form.coeffs})
    defect = horizontal_d(avg, range(N_model.dim)).max_coeff()
    if not defect <= tol.exact_zero:
        raise AverageObstruction(
            "circle average of the slice 1-form is not closed "
            f"(residual {defect:.3e})", residual=defect)

    anti = DifferentialForm.build(
        y, 1, {j: q_antiderivative(f, q) for j, f in gamma_form.coeffs})
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


def _field_into(f: ScalarField, key_index: dict, out: np.ndarray) -> None:
    """Add the coefficients of f into out, one entry per basis key."""
    for (p, k, ph), coeff in f.terms:
        if any(p):
            raise ValueError("polynomial term outside the torus basis")
        out[key_index[(k, ph)]] += coeff


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


def _block_rank(M: np.ndarray, row_labels: np.ndarray, col_labels: np.ndarray,
                rank_rel: float) -> tuple[int, list[tuple[int, int]]]:
    """Numerical rank of a matrix that vanishes outside its label blocks,
    and the shapes of its nonzero blocks.

    The block of a label takes the rows and the columns that carry it.
    The singular values of M are then the union of the blocks' values, so
    counting those above rank_rel times the largest of all of them is the
    rank one dense SVD of M gives.
    """
    values, shapes = [], []
    # not np.unique, whose first call imports numpy.ma
    for label in sorted(set(row_labels.tolist())):
        block = M[np.ix_(row_labels == label, col_labels == label)]
        if block.any():
            values.append(np.linalg.svd(block, compute_uv=False))
            shapes.append(block.shape)
    if not values:
        return 0, []
    s = np.concatenate(values)
    return int(np.sum(s > rank_rel * s.max())), shapes


@dataclass
class ComplexSlice:
    """Matrices of the two-step deformation complex on truncated Fourier
    bases, with lazily computed numerical ranks.

    d0 and d1 are dense.  The middle space lists the speed block first
    (empty when the brane is space filling), then one block of nfun rows
    per column of the constant 2-form frame; every axis of d0 and d1 is a
    whole number of runs of function_keys, so each row and column carries
    the frequency vector of its key.  Each rank is taken over the blocks
    of one frequency (see _block_rank) with the threshold
    DEFAULT_TOL.svd_rank_rel times the largest singular value of the whole
    matrix, so the rank is that of one dense SVD.  block_summary counts
    the nonzero frequency blocks.
    """

    model: ManifoldModel
    truncation: int
    shape: str  # "space_filling" or "codim1"
    function_keys: list
    d0: np.ndarray
    d1: np.ndarray
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
            M = getattr(self, which)
            # a frequency's keys are consecutive and start with its cosine
            label = np.cumsum([ph == COS for _, ph in self.function_keys]) - 1
            rows, cols = (np.tile(label, n // label.size) for n in M.shape)
            self._ranked[which] = _block_rank(M, rows, cols,
                                              DEFAULT_TOL.svd_rank_rel)
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


# The most memory the dense d0 and d1 of one complex may take; T^4 at
# truncation 3 takes 0.86 GiB.
_MAX_COMPLEX_BYTES = 2 << 30


def complex_slice(c: BraneCandidate, truncation: int) -> ComplexSlice:
    """Assemble the deformation complex at a Fourier truncation:
    functions -> (kernel speeds + 2-forms in a constant frame) -> 3-forms.

    d0 is the generator map, d1 the exterior derivative of the 2-form
    part.  The shape picks the frame, the speed block and the generator.
    Space filling: the invariant-type (1,1) frame, no speeds, and
    f -> Lie_{X_f} F with X_f the omega-dual of df.  Product model N x S^1
    (the kernel frame must be d/dq): every elementary 2-form, one speed
    function along the circle, and hamiltonian_generator.  omega and F
    must be constant, so that no map moves a frequency, and d0 and d1
    must fit in _MAX_COMPLEX_BYTES (ValueError otherwise).
    """
    y = c.model_Y
    if len(y.circle_indices) != y.dim:
        raise ValueError("truncated Fourier bases need a torus model")
    if not (c.omega.is_constant(0.0) and c.F.is_constant(0.0)):
        raise ValueError("the deformation complex needs constant omega and F")
    nfun = (2 * truncation + 1) ** y.dim  # len(_function_keys(...))
    pairs = [(a, b) for a in range(y.dim) for b in range(a + 1, y.dim)]
    pair_index = {p: i for i, p in enumerate(pairs)}
    triples = [(a, b, cc) for a in range(y.dim)
               for b in range(a + 1, y.dim) for cc in range(b + 1, y.dim)]
    triple_index = {t: i for i, t in enumerate(triples)}

    if c.E_frame.rank == 0:
        shape, speeds = "space_filling", 0
        frame = np.column_stack(constant_type11_basis(c))

        def generator(f):
            return (ScalarField.zero(y),
                    lie_derivative(sharp(c.omega, d_scalar(f)), c.F))
    else:
        _, q = _kernel_circle(c)
        shape, speeds = "codim1", nfun
        frame = np.eye(len(pairs))

        def generator(f):
            p = hamiltonian_generator(f, c)
            return p.r.coeff((q,)), p.B
    nmid = speeds + frame.shape[1] * nfun
    nbytes = 8 * nmid * nfun * (1 + len(triples))
    if nbytes > _MAX_COMPLEX_BYTES:
        # whole GiB, rounded up: an int of any size, where a float overflows
        raise ValueError(
            f"the truncation-{truncation} complex needs "
            f"{(nbytes + (1 << 30) - 1) >> 30} GiB for d0 and d1, "
            f"over the {_MAX_COMPLEX_BYTES >> 30} GiB limit")
    keys = _function_keys(y.dim, truncation)
    key_index = {k: i for i, k in enumerate(keys)}
    frame_pinv = np.linalg.pinv(frame)

    d0 = np.zeros((nmid, nfun))
    for col, key in enumerate(keys):
        speed, B = generator(_basis_field(y, key))
        _field_into(speed, key_index, d0[:speeds, col])
        comp = np.zeros((len(pairs), nfun))
        for idx, g in B.coeffs:
            _field_into(g, key_index, comp[pair_index[idx]])
        coords = frame_pinv @ comp
        resid = np.abs(frame @ coords - comp).max(initial=0.0)
        if resid > 1e-10 * max(1.0, np.abs(comp).max(initial=0.0)):
            raise ValueError("2-form leaves the invariant-type span")
        d0[speeds:, col] = coords.ravel()

    d1 = np.zeros((len(triples) * nfun, nmid))
    # rows grouped by 3-form component, then by basis key
    blocks = d1.reshape(len(triples), nfun, nmid)
    for kk, vec in enumerate(frame.T):
        frame_form = DifferentialForm.build(
            y, 2, {pairs[i]: ScalarField.constant(y, vec[i])
                   for i in range(len(pairs)) if vec[i] != 0.0})
        for col_f, key in enumerate(keys):
            dB = ext_d(frame_form * _basis_field(y, key))
            for idx, f in dB.coeffs:
                _field_into(f, key_index, blocks[triple_index[idx], :,
                                                 speeds + kk * nfun + col_f])
    return ComplexSlice(y, truncation, shape, keys, d0, d1)
