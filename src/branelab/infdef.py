"""First-order deformation theory for brane candidates.

Deformation data is a pair: a 1-form carrying the normal speeds along the
kernel frame (stored in the gauge that annihilates the transverse frame)
and a 2-form deforming the brane form.  The module provides two
independent condition checkers that must agree, the explicit builder for
the product model N x S^1, Hamiltonian (coboundary) generators, the
forgetful projection onto the kernel component with its image criterion,
and truncated Fourier cochain complexes with numerically ranked first
cohomology.  The checkers apply the transverse complex structure I as its
matrix A on the constant transverse frame G: the images I(G_j) are the
columns of G A, as constant vector fields, and I is 0 on the kernel
frame.  One assembly builds the complex of both shapes (space filling
and N x S^1), with d0 the generator map (hamiltonian_generator); the
shape picks only the constant 2-form frame and the size of the speed
block, and every constant comes from the candidate.  The complex needs
constant omega, F and frames, so every map keeps each frequency pair
span{cos, sin}(2 pi k.x) to itself through a symbol polynomial in k:
linear for the speeds and d1, quadratic for the 2-form part of d0.  The
symbols are closed forms in the constant matrices (G, E, omega, F), with
no term algebra, and numpy fills one small complex block of each map per
nonzero frequency.  The ranks, the block counts and the chain residual
d1 d0 are taken on these blocks; the dense matrices are built only when
read.

Sign convention: the generator map is f -> (df on the kernel frame,
Lie_{X_f} F); the opposite overall sign spans the same coboundaries.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .brane import BraneCandidate, lift_form
from .fields import (COS, SIN, ScalarField, VectorField, circle_average,
                     linear_map, partial, q_antiderivative, reindex)
from .forms import (DifferentialForm, _condition_gate, apply_form,
                    d_scalar, endo_from_pair, ext_d, frame_residual,
                    hamiltonian, horizontal_d, interior, is_type_11,
                    lie_derivative, sharp, transverse_matrix, wedge)
from .model import EXACT_ZERO, SVD_RANK_REL, ManifoldModel
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


def pair_from_values(c: BraneCandidate, values, B: DifferentialForm) -> InfDefPair:
    """Assemble a pair from per-kernel-direction speed fields.

    values[a] is the speed along the a-th kernel frame field; the stored
    1-form is sum_a values[a] * eta_a with eta the dual coframe rows that
    annihilate the transverse frame.
    """
    y = c.model_Y
    eta = c.joint_inverse[c.G_frame.rank:]
    values = [ScalarField.constant(y, v) if isinstance(v, (int, float)) else v
              for v in values]
    return InfDefPair(DifferentialForm.build(y, 1, {
        (i,): r for i, r in enumerate(linear_map(y, eta.T, values))}), B)


def _transverse_images(c: BraneCandidate) -> list[VectorField]:
    """The transverse complex structure I on the transverse frame: the
    images I(G_j), constant fields, the columns of G @ A with A its matrix
    on that frame (constant-coefficient candidates only).  I vanishes on
    the kernel frame; RankDropError when [G | E] is dependent."""
    G, _ = c.frames
    c.joint_inverse  # raises on dependent frames
    A = transverse_matrix(*c.grams, G, "restriction of the nondegenerate form")
    return [VectorField.from_components(c.model_Y, col)
            for col in (G @ A).T.tolist()]


def check_infdef(pair: InfDefPair, c: BraneCandidate) -> CheckResult:
    """Direct first-order conditions on (r, B), each held to EXACT_ZERO.

    Conditions: the kernel-direction exterior derivative of r vanishes,
    B is closed and horizontal, the mixed equation B(e, v) = -(d r)(e)
    pulled through the transverse complex structure, and the transverse
    quadratic compatibility, type (1,1) on the constant transverse frame.
    """
    if pair.r.model != c.model_Y:
        raise ValueError("pair and candidate live on different models")
    E, G = c.E_frame, c.G_frame
    IG = _transverse_images(c)
    res = CheckResult("infdef", EXACT)
    dr = ext_d(pair.r)
    res.hold("r_foliated_closed", frame_residual(dr, E.frame), EXACT_ZERO)
    res.hold("B_closed", ext_d(pair.B).max_coeff(), EXACT_ZERO)
    res.hold("B_horizontal", frame_residual(pair.B, E.frame), EXACT_ZERO)
    alphas = [interior(e, dr) for e in E.frame]
    res.hold("mixed_iii", max((
        (apply_form(pair.B, [e, v]) + apply_form(alpha, [iv])).max_coeff()
        for e, alpha in zip(E.frame, alphas)
        for v, iv in zip(G.frame, IG)), default=0.0), EXACT_ZERO)
    res.hold("quad_iv", max((
        (apply_form(pair.B, [ia, ib]) - apply_form(pair.B, [a, b])).max_coeff()
        for (a, ia), (b, ib) in itertools.combinations(zip(G.frame, IG), 2)),
        default=0.0), EXACT_ZERO)
    return res


def infdef_general_check(pair: InfDefPair, c: BraneCandidate) -> CheckResult:
    """Second implementation path phrased through the form speeds
    (omega_dot = -d r, F_dot = B); must agree with check_infdef."""
    if pair.r.model != c.model_Y:
        raise ValueError("pair and candidate live on different models")
    E, G = c.E_frame, c.G_frame
    IG = _transverse_images(c)
    res = CheckResult("infdef_general", EXACT)
    omega_dot = -ext_d(pair.r)
    res.hold("omega_dot_horizontal", frame_residual(omega_dot, E.frame),
             EXACT_ZERO)
    res.hold("F_dot_closed", ext_d(pair.B).max_coeff(), EXACT_ZERO)
    res.hold("F_dot_horizontal", frame_residual(pair.B, E.frame), EXACT_ZERO)
    alphas = [interior(e, omega_dot) for e in E.frame]
    res.hold("mixed_iii", max((
        (apply_form(pair.B, [e, v]) - apply_form(alpha, [iv])).max_coeff()
        for e, alpha in zip(E.frame, alphas)
        for v, iv in zip(G.frame, IG)), default=0.0), EXACT_ZERO)
    # the transverse quadratic equation, I(x) = 0 for x in the kernel frame
    zero = VectorField.from_components(c.model_Y, [0.0] * c.model_Y.dim)
    res.hold("eq_iv", max((
        ((apply_form(omega_dot, [x, v]) + apply_form(pair.B, [ix, v]))
         - (apply_form(omega_dot, [ix, iv]) - apply_form(pair.B, [x, iv])))
        .max_coeff()
        for x, ix in [*((e, zero) for e in E.frame), *zip(G.frame, IG)]
        for v, iv in zip(G.frame, IG)), default=0.0), EXACT_ZERO)
    return res


def hamiltonian_generator(f: ScalarField, c: BraneCandidate) -> InfDefPair:
    """Coboundary pair of a function: speeds df(e_a) along the kernel frame
    and the Lie derivative of the brane form along the transverse
    Hamiltonian field X_f solving omega(X_f, g) = df(g) on the transverse
    frame."""
    if f.model != c.model_Y:
        raise ValueError("f must live on the candidate's model")
    G, E = c.frames
    W, _ = c.grams
    y = c.model_Y
    grads = [partial(f, j) for j in range(y.dim)]
    # X_f = sum_a coeff[a] * (a-th transverse frame field), with coeff
    # solving the restriction of omega to the frame against df on it
    coeff = hamiltonian(G.T @ W @ G, linear_map(y, G.T, grads), y,
                        "restriction of the nondegenerate form")
    X_f = VectorField(y, linear_map(y, G, coeff))
    return pair_from_values(c, linear_map(y, E.T, grads),
                            lie_derivative(X_f, c.F))


def _drop_last_circle(model: ManifoldModel) -> tuple[ManifoldModel, int]:
    q = model.dim - 1
    if not model.is_circle(q):
        raise ValueError("expected the parameter circle as last coordinate")
    return ManifoldModel(model.coords[:-1]), q


def _kernel_circle(c: BraneCandidate) -> tuple[ManifoldModel, int]:
    """(N, q) for a candidate on N x S^1 whose kernel frame is exactly a
    nonzero multiple of d/dq, q the last coordinate."""
    N_model, q = _drop_last_circle(c.model_Y)
    E = c.frames[1]
    if E.shape[1] != 1 or E[q, 0] == 0.0 or E[:q].any():
        raise ValueError("expected the kernel frame d/dq on the product model")
    return N_model, q


def upsilon_image_check(r: DifferentialForm, omega_N: DifferentialForm,
                        F_N: DifferentialForm) -> CheckResult:
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

    res = CheckResult("upsilon_image", EXACT)
    res.hold("pde_vanishes", beta.max_coeff(), EXACT_ZERO)
    res.hold("lie_vanishes", lie.max_coeff(), EXACT_ZERO)
    res.conditions["routes_agree"] = (
        res.conditions["pde_vanishes"] == res.conditions["lie_vanishes"])
    res.details["average"] = str(h)
    return res


def build_infdef(rho, B_N0: DifferentialForm,
                 c: BraneCandidate) -> InfDefPair:
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

    if not ext_d(B_N0).is_zero():
        raise Type11Violation("seed 2-form is not closed")
    if not is_type_11(B_N0, I_N):
        raise Type11Violation("seed 2-form is not type (1,1)")

    # slice 1-form: the transverse complex structure applied to the slice
    # differential of rho
    gamma_form = slice_oneform(rho, IN)

    avg = DifferentialForm.build(
        y, 1, {j: circle_average(f, q) for j, f in gamma_form.coeffs})
    defect = horizontal_d(avg, range(N_model.dim)).max_coeff()
    if not defect <= EXACT_ZERO:
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


def _frequencies(dim: int, truncation: int) -> np.ndarray:
    """The nonzero frequency vectors in [-truncation, truncation]^dim whose
    first nonzero entry is positive, lexicographic: one row per frequency
    pair span{cos, sin}(2 pi k.x)."""
    k = np.indices((2 * truncation + 1,) * dim).reshape(dim, -1).T - truncation
    first = k[np.arange(len(k)), (k != 0).argmax(axis=1)]
    return k[first > 0]


def _function_keys(dim: int, truncation: int) -> list[tuple[tuple[int, ...], int]]:
    """Canonical (frequency vector, phase) basis keys: one cosine for the
    zero vector, then cosine and sine of each row of _frequencies."""
    return [((0,) * dim, COS), *((tuple(k), ph) for k in _frequencies(
        dim, truncation).tolist() for ph in (COS, SIN))]


def constant_type11_basis(c: BraneCandidate) -> list[np.ndarray]:
    """Orthonormal coefficient vectors (over index pairs a < b) spanning the
    constant 2-forms fixed by the complex-structure pullback."""
    W, F = c.grams
    _condition_gate(W, "constant form")
    I = np.linalg.inv(W) @ F
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


def _rank(blocks: np.ndarray) -> int:
    """Rank of the real block-diagonal matrix complex blocks stand for,
    a + ib for the real (cos, sin) block [[a, -b], [b, a]]: twice the
    complex rank, the count of singular values above SVD_RANK_REL times
    the largest of all.  A one-column block's singular value is its norm."""
    s = (np.linalg.norm(blocks, axis=1) if blocks.shape[2] == 1
         else np.linalg.svd(blocks, compute_uv=False))
    return 2 * int(np.sum(s > SVD_RANK_REL * s.max())) if s.size else 0


@dataclass
class ComplexSlice:
    """The two-step deformation complex on truncated Fourier bases, held
    as its complex frequency blocks, with numerical ranks.

    Every map keeps each frequency pair span{cos, sin}(2 pi k.x), and the
    zero frequency maps to zero.  An entry a + ib stands for the real
    (cos, sin) block [[a, -b], [b, a]]: cos -> a cos + b sin.  b0 (nf,
    nblk, 1) and b1 (nf, ntri, nblk) hold the blocks of d0 and d1 at the
    nf nonzero frequencies, in the order of _frequencies.  The nblk middle
    blocks are the speed block (absent when the brane is space filling),
    then one per column of the constant 2-form frame; the ntri 3-form
    blocks are the index triples.

    Each real rank is twice the rank of one batched complex SVD (_rank).
    block_summary counts the nonzero blocks and gives the real shape; the
    chain residual is max(|Re P|, |Im P|) for P = b1 b0.  d0 and d1 are
    the dense real matrices, rows and columns by block and then
    function_keys, scattered from the blocks on first read.
    """

    model: ManifoldModel
    truncation: int
    shape: str  # "space_filling" or "codim1"
    b0: np.ndarray
    b1: np.ndarray

    @functools.cached_property
    def function_keys(self) -> list:
        return _function_keys(self.model.dim, self.truncation)

    @property
    def middle_dim(self) -> int:
        """Dimension of the middle space, the inner one of d1 d0."""
        return self.b0.shape[1] * (2 * self.truncation + 1) ** self.model.dim

    def _scatter(self, blocks: np.ndarray) -> np.ndarray:
        nf, rows, cols = blocks.shape
        nfun = (2 * self.truncation + 1) ** self.model.dim
        # after the zero cosine, the cosine and sine of each frequency
        cos, sin = 1 + 2 * np.arange(nf), 2 + 2 * np.arange(nf)
        dense = np.zeros((rows, nfun, cols, nfun))
        dense[:, cos, :, cos] = dense[:, sin, :, sin] = blocks.real
        dense[:, sin, :, cos] = blocks.imag
        dense[:, cos, :, sin] = -blocks.imag
        return dense.reshape(rows * nfun, cols * nfun)

    @functools.cached_property
    def d0(self) -> np.ndarray:
        return self._scatter(self.b0)

    @functools.cached_property
    def d1(self) -> np.ndarray:
        return self._scatter(self.b1)

    def d1_d0_residual(self) -> float:
        return float(np.abs((self.b1 @ self.b0).view(float)).max(initial=0.0))

    def d1_d0_bound(self) -> float:
        """Rounding bound of |d1 d0| when the exact product vanishes:
        n eps max_i sum_k |d1_ik| max |d0|, n the inner dimension of the
        dense product, at least 1e-10; a real row sums |Re| + |Im|."""
        b0, b1 = self.b0.view(float), self.b1.view(float)
        row_sum = float(np.abs(b1).sum(axis=2).max(initial=0.0))
        return max(1e-10, self.middle_dim * np.finfo(float).eps * row_sum
                   * float(np.abs(b0).max(initial=0.0)))

    @property
    def rank_d0(self) -> int:
        return _rank(self.b0)

    @property
    def dim_ker_d1(self) -> int:
        return self.middle_dim - _rank(self.b1)

    @property
    def h1(self) -> int:
        return self.dim_ker_d1 - self.rank_d0

    def block_summary(self) -> dict:
        """Nonzero block count and real block shape of d0 and d1."""
        out = {}
        for which, blocks in (("d0", self.b0), ("d1", self.b1)):
            count = int(blocks.any(axis=(1, 2)).sum())
            shape = [2 * m for m in blocks.shape[1:]] if count else [0, 0]
            out[which] = {"blocks": count, "largest": shape}
        return out


# The most memory the dense d0 and d1 of one complex may take; T^4 at
# truncation 3 takes 0.86 GiB.
_MAX_COMPLEX_BYTES = 2 << 30


def _closed_form(c: BraneCandidate):
    """The candidate gates of complex_slice, in its order, then the
    generator's symbol: (shape, speeds, frame, speed, S).

    speeds is the number of speed blocks (0 or 1), and frame holds the
    constant 2-forms of the middle space as columns.  With
    M = G (G^T W G)^-T G^T, so that X_f = M grad f as in
    hamiltonian_generator, the generator takes cos(2 pi k.x) to
    - the speed speed.k at the sine, speed = -2 pi E eta_q with eta_q the
      q column of the coframe dual to E (0 when space filling);
    - the 2-form -(2 pi)^2 k ^ (S k) at the cosine, S = F^T M, since
      Lie_X F = d(interior(X, F)) for a constant F.
    """
    y = c.model_Y
    if len(y.circle_indices) != y.dim:
        raise ValueError("truncated Fourier bases need a torus model")
    if c.constant_grams is None:
        raise ValueError("the deformation complex needs constant omega and F")
    if c.E_frame.rank == 0:
        shape, speeds = "space_filling", 0
        frame = np.column_stack(constant_type11_basis(c))
    else:
        _kernel_circle(c)
        shape, speeds = "codim1", 1
        frame = np.eye(math.comb(y.dim, 2))
    (G, E), (W, F) = c.frames, c.grams  # ValueError on a varying frame
    Wg = G.T @ W @ G
    _condition_gate(Wg, "restriction of the nondegenerate form")
    eta_q = c.joint_inverse[G.shape[1]:, -1]  # raises on dependent frames
    M = G @ np.linalg.inv(Wg.T) @ G.T
    return shape, speeds, frame, -2 * np.pi * (E @ eta_q), F.T @ M


def _wedge_k(n: int, p: int) -> np.ndarray:
    """D with (k ^ beta)_J = sum of D[i, J, I] k_i beta_I, for a 1-form k
    and a p-form beta, over increasing index tuples I and J."""
    lower = {I: col for col, I in
             enumerate(itertools.combinations(range(n), p))}
    upper = list(itertools.combinations(range(n), p + 1))
    D = np.zeros((n, len(upper), len(lower)))
    for row, J in enumerate(upper):
        for pos, i in enumerate(J):
            D[i, row, lower[J[:pos] + J[pos + 1:]]] = (-1) ** pos
    return D


def _blocks(speeds, frame, speed, S, freqs):
    """The complex b0 and b1 of complex_slice at the rows of freqs,
    nonzero frequencies, from the symbol _closed_form gives; ValueError
    when a 2-form leaves the span of frame.  As a + ib stands for the real
    (cos, sin) block [[a, -b], [b, a]], a first-order map (cos to the
    value at sin, sin to minus it at cos) is 1j times the value."""
    n = freqs.shape[1]
    # the generator's 2-form at the cosine, over index pairs
    Q = -(2 * np.pi) ** 2 * np.einsum("fi,ipl,fl->pf", freqs,
                                      _wedge_k(n, 1), freqs @ S.T)
    coords = np.linalg.pinv(frame) @ Q
    if (np.abs(frame @ coords - Q).max(axis=0, initial=0.0) > 1e-10
            * np.maximum(1.0, np.abs(Q).max(axis=0, initial=0.0))).any():
        raise ValueError("2-form leaves the invariant-type span")
    # d(beta cos(2 pi k.x)) = -2 pi (k ^ beta) sin(2 pi k.x), over triples
    dB = -2 * np.pi * np.tensordot(freqs, _wedge_k(n, 2) @ frame, 1)
    nf, ntri, nframe = dB.shape
    b0 = np.zeros((nf, speeds + nframe, 1), complex)
    if speeds:
        b0[:, 0, 0] = 1j * (freqs @ speed)
    b0[:, speeds:, 0] = coords.T
    b1 = np.zeros((nf, ntri, speeds + nframe), complex)
    b1[:, :, speeds:] = 1j * dB
    return b0, b1


def complex_slice(c: BraneCandidate, truncation: int) -> ComplexSlice:
    """Assemble the deformation complex at a Fourier truncation:
    functions -> (kernel speeds + 2-forms in a constant frame) -> 3-forms.

    d0 is hamiltonian_generator (its speed along the circle d/dq fills
    the speed block), d1 the exterior derivative of the 2-form part.  The
    shape picks the frame and the speed block.  Space filling: the
    invariant-type (1,1) frame and no speeds.  Product model N x S^1 (the
    kernel frame must be d/dq): every elementary 2-form and one speed
    function along the circle.  omega, F and the frames must be constant,
    so that no map moves a frequency, and the dense d0 and d1 must fit in
    _MAX_COMPLEX_BYTES (ValueError otherwise).

    Both maps are read from the candidate's constant matrices
    (_closed_form), not from the term algebra: numpy fills the complex
    block of every nonzero frequency (_frequencies) from closed forms in
    k (_blocks), a + ib for the real (cos, sin) block [[a, -b], [b, a]];
    the real rank is twice the complex rank (ComplexSlice has the layout).
    """
    shape, speeds, frame, speed, S = _closed_form(c)
    n = c.model_Y.dim
    nfun = (2 * truncation + 1) ** n  # len(_function_keys(...))
    nblk = speeds + frame.shape[1]  # middle blocks: speeds, then the frame
    nbytes = 8 * nblk * nfun * nfun * (1 + math.comb(n, 3))
    if nbytes > _MAX_COMPLEX_BYTES:
        # whole GiB, rounded up: an int of any size, where a float overflows
        raise ValueError(
            f"the truncation-{truncation} complex needs "
            f"{(nbytes + (1 << 30) - 1) >> 30} GiB for d0 and d1, "
            f"over the {_MAX_COMPLEX_BYTES >> 30} GiB limit")

    return ComplexSlice(c.model_Y, truncation, shape, *_blocks(
        speeds, frame, speed, S, _frequencies(n, truncation)))
