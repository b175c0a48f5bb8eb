"""Differential forms, endomorphism fields and distributions on product models.

Forms are stored componentwise against strictly increasing coordinate index
tuples, with trig-polynomial coefficient fields, so the exterior calculus
(wedge, d, contraction, Lie derivative) is exact coefficient arithmetic.
Numeric Gram evaluation at sample points backs the SAMPLED-mode checks.

Constancy is the fields module's rule for each coefficient; constant_gram
and constant_matrix return the constant matrix, or None.

Every form is built by _form_sum from (index tuple, field, scale) triples:
each index tuple is sorted with its sign, and each component is one
fields.combine of its triples, so a sum of forms follows the fields
module's sum rule (added left to right, pruned once).

Every solve against a constant 2-form is hamiltonian (inv(W^T) applied
to fields through fields.linear_map) or transverse_matrix (the complex
structure on a frame); both gate the matrix on its condition number.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .fields import (ScalarField, TermBank, VectorField, bracket, combine,
                     linear_map, partial)
from .model import EXACT_ZERO, SVD_RANK_REL, ManifoldModel, SamplePlan

# Gram condition number above which a form is treated as degenerate at a
# point (raises, never a silent pass)
CONDITION_LIMIT = 1e8


class DegenerateFormError(Exception):
    """A form required to be nondegenerate failed the condition-number gate."""


def _sort_sign(idx):
    """Sort an index tuple, returning (sign, sorted) or (None, ()) on repeats."""
    idx = list(idx)
    sign = 1
    for a in range(1, len(idx)):
        b = a
        while b > 0 and idx[b - 1] > idx[b]:
            idx[b - 1], idx[b] = idx[b], idx[b - 1]
            sign = -sign
            b -= 1
    for a in range(len(idx) - 1):
        if idx[a] == idx[a + 1]:
            return None, ()
    return sign, tuple(idx)


def _form_sum(model: ManifoldModel, degree: int, triples) -> "DifferentialForm":
    """The form sum of scale * f dx^idx over (idx, f, scale) triples; idx in
    any order, repeats allowed.  Each component is one combine of its
    triples, in the order given."""
    groups: dict[tuple[int, ...], list] = {}
    for idx, f, scale in triples:
        if len(idx) != degree:
            raise ValueError(f"index {idx} has wrong length for degree {degree}")
        sign, key = _sort_sign(idx)
        if sign is not None:
            groups.setdefault(key, []).append((f, scale * sign))
    comps = ((key, combine(model, pairs)) for key, pairs in groups.items())
    return DifferentialForm(model, degree, tuple(sorted(
        (key, f) for key, f in comps if f.terms)))


@dataclass(frozen=True)
class DifferentialForm:
    model: ManifoldModel
    degree: int
    coeffs: tuple[tuple[tuple[int, ...], ScalarField], ...]

    @staticmethod
    def build(model: ManifoldModel, degree: int, raw) -> "DifferentialForm":
        """raw maps index tuples (any order, repeats allowed) to fields or
        numbers."""
        return _form_sum(model, degree, (
            (idx, ScalarField.constant(model, f)
             if isinstance(f, (int, float)) else f, 1.0)
            for idx, f in raw.items()))

    @staticmethod
    def zero(model: ManifoldModel, degree: int) -> "DifferentialForm":
        return DifferentialForm(model, degree, ())

    @staticmethod
    def from_scalar(f: ScalarField) -> "DifferentialForm":
        return DifferentialForm.build(f.model, 0, {(): f})

    @staticmethod
    def basis(model: ManifoldModel, idx) -> "DifferentialForm":
        idx = tuple(idx)
        return DifferentialForm.build(
            model, len(idx), {idx: ScalarField.constant(model, 1.0)})

    def coeff(self, idx) -> ScalarField:
        sign, key = _sort_sign(tuple(idx))
        if sign is None:
            return ScalarField.zero(self.model)
        for k, f in self.coeffs:
            if k == key:
                return f if sign > 0 else -f
        return ScalarField.zero(self.model)

    def is_zero(self, tol: float = EXACT_ZERO) -> bool:
        return all(f.is_zero(tol) for _, f in self.coeffs)

    def max_coeff(self) -> float:
        return max((f.max_coeff() for _, f in self.coeffs), default=0.0)

    def __add__(self, other):
        if self.degree != other.degree or self.model != other.model:
            raise ValueError("degree or model mismatch")
        return _form_sum(self.model, self.degree, [
            (k, f, 1.0) for k, f in self.coeffs + other.coeffs])

    def __neg__(self):
        return DifferentialForm(self.model, self.degree,
                                tuple((k, -f) for k, f in self.coeffs))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, g):
        return DifferentialForm.build(
            self.model, self.degree, {k: f * g for k, f in self.coeffs})

    __rmul__ = __mul__

    def __str__(self):
        from .grammar import form_to_text
        return form_to_text(self)

    # -- numeric evaluation ---------------------------------------------

    def gram_at(self, point) -> np.ndarray:
        """Antisymmetric matrix of a 2-form at a point."""
        return self.gram_batch(np.asarray(point, float)[None, :])[0]

    def gram_batch(self, points) -> np.ndarray:
        if self.degree != 2:
            raise ValueError("gram matrices are for 2-forms")
        d = self.model.dim
        vals = TermBank([f for _, f in self.coeffs], d)(points)
        ij = np.array([k for k, _ in self.coeffs], dtype=int).reshape(-1, 2)
        G = np.zeros((vals.shape[0], d, d))
        G[:, ij[:, 0], ij[:, 1]] = vals
        G[:, ij[:, 1], ij[:, 0]] = -vals
        return G

    def constant_gram(self) -> np.ndarray | None:
        """The Gram matrix if every coefficient is constant, else None."""
        if self.degree != 2:
            return None
        d = self.model.dim
        G = np.zeros((d, d))
        for (i, j), f in self.coeffs:
            v = f.constant_value()
            if v is None:
                return None
            G[i, j] += v
            G[j, i] -= v
        return G


def gram_fields(B: DifferentialForm) -> list[list[ScalarField]]:
    """Full antisymmetric matrix of coefficient fields of a 2-form."""
    d = B.model.dim
    Z = ScalarField.zero(B.model)
    G = [[Z for _ in range(d)] for _ in range(d)]
    for (i, j), f in B.coeffs:
        G[i][j], G[j][i] = f, -f
    return G


def wedge(a: DifferentialForm, b: DifferentialForm) -> DifferentialForm:
    if a.model != b.model:
        raise ValueError("model mismatch")
    return _form_sum(a.model, a.degree + b.degree, [
        (I + J, f * g, 1.0) for I, f in a.coeffs for J, g in b.coeffs
        if set(I).isdisjoint(J)])


def ext_d(a: DifferentialForm) -> DifferentialForm:
    return horizontal_d(a, range(a.model.dim))


def horizontal_d(a: DifferentialForm, active) -> DifferentialForm:
    """Exterior derivative using only the listed coordinate directions."""
    return _form_sum(a.model, a.degree + 1, [
        ((j,) + I, partial(f, j), 1.0) for I, f in a.coeffs
        for j in active if j not in I])


def d_scalar(f: ScalarField) -> DifferentialForm:
    return ext_d(DifferentialForm.from_scalar(f))


def interior(x: VectorField, a: DifferentialForm) -> DifferentialForm:
    """Contraction in the first slot, (interior(x, a))(v...) = a(x, v...)."""
    if a.degree == 0:
        raise ValueError("cannot contract a 0-form")
    return _form_sum(a.model, a.degree - 1, [
        (I[:pos] + I[pos + 1:], x.components[i] * f, (-1) ** pos)
        for I, f in a.coeffs for pos, i in enumerate(I)
        if x.components[i].terms])


def lie_derivative(x: VectorField, a: DifferentialForm) -> DifferentialForm:
    """Cartan formula, d(i_x a) + i_x(d a)."""
    out = interior(x, ext_d(a))
    if a.degree > 0:
        out = out + ext_d(interior(x, a))
    return out


def apply_form(a: DifferentialForm, vectors) -> ScalarField:
    """Evaluate a k-form on k vector fields, result a scalar field."""
    vecs = list(vectors)
    if len(vecs) != a.degree:
        raise ValueError("wrong number of vector fields")
    pairs = []
    for idx, f in a.coeffs:
        for perm in itertools.permutations(range(len(idx))):
            prod = f
            for row, p in enumerate(perm):
                prod = prod * vecs[p].components[idx[row]]
            pairs.append((prod, _sort_sign(perm)[0]))
    return combine(a.model, pairs)


def frame_residual(a: DifferentialForm, vectors) -> float:
    """Largest coefficient of the k-form a on any increasing k-tuple of
    vectors (in itertools.combinations order); 0 when there is none."""
    return max((apply_form(a, t).max_coeff()
                for t in itertools.combinations(vectors, a.degree)),
               default=0.0)


def sharp(omega: DifferentialForm, xi: DifferentialForm) -> VectorField:
    """Solve interior(X, omega) = xi for X, for a constant-coefficient
    omega: one solve on the Gram matrix (see hamiltonian).  Degeneracy
    past the condition limit raises."""
    if omega.degree != 2 or xi.degree != 1:
        raise ValueError("sharp expects a 2-form and a 1-form")
    W = omega.constant_gram()
    if W is None:
        raise ValueError("sharp needs a constant-coefficient omega")
    d = range(omega.model.dim)
    return VectorField(omega.model, hamiltonian(
        W, [xi.coeff((j,)) for j in d], omega.model, "constant form"))


def hamiltonian(W: np.ndarray, grads, model: ManifoldModel,
                where: str) -> tuple[ScalarField, ...]:
    """Components of X with interior(X, omega) = sum_j grads[j] dx_j for
    the constant Gram matrix W of omega: linear_map of inv(W^T), after
    the condition gate (DegenerateFormError names where)."""
    _condition_gate(W, where)
    return linear_map(model, np.linalg.inv(W.T), grads)


def transverse_matrix(W: np.ndarray, F: np.ndarray, G: np.ndarray,
                      where) -> np.ndarray:
    """I with omega(I v, w) = F(v, w) on the columns of the frame G:
    solve(G^T W G, G^T F G), after the condition gate of G^T W G."""
    Wg = G.T @ W @ G
    _condition_gate(Wg, where)
    return np.linalg.solve(Wg, G.T @ F @ G)


def condition_number(W: np.ndarray) -> float:
    """Largest over smallest singular value of W; inf when W is singular,
    1.0 when W is empty (an empty frame restricts a form to 0x0)."""
    if W.size == 0:
        return 1.0
    s = np.linalg.svd(W, compute_uv=False)
    return float("inf") if s[-1] == 0.0 else float(s[0] / s[-1])


def _condition_gate(W: np.ndarray, where):
    """DegenerateFormError naming where, a string or a function that makes
    it only when the gate fails, unless W is well conditioned."""
    cond = condition_number(W)
    if cond > CONDITION_LIMIT:
        raise DegenerateFormError(
            f"form degenerate at {where() if callable(where) else where}: "
            f"condition number {cond:.3g}")


@dataclass(frozen=True)
class EndoField:
    """Endomorphism of the tangent bundle; entries[i][j] is the d/dx_i
    component of the image of d/dx_j."""

    model: ManifoldModel
    entries: tuple[tuple[ScalarField, ...], ...]

    def constant_matrix(self) -> np.ndarray | None:
        vals = [[f.constant_value() for f in row] for row in self.entries]
        return None if any(None in row for row in vals) else np.array(vals)

    def pullback_oneform(self, xi: DifferentialForm) -> DifferentialForm:
        """(I^* xi)(v) = xi(I v)."""
        d = range(self.model.dim)
        return _form_sum(self.model, 1, [
            ((j,), xi.coeff((i,)) * self.entries[i][j], 1.0)
            for j in d for i in d])

    def pullback_twoform(self, B: DifferentialForm) -> DifferentialForm:
        """(I^* B)(v, w) = B(I v, I w)."""
        G = gram_fields(B)
        d = range(self.model.dim)
        return _form_sum(self.model, 2, [
            ((a, b), self.entries[i][a] * G[i][j] * self.entries[j][b], 1.0)
            for a in d for b in d if a < b for i in d for j in d])


def endo_from_pair(omega: DifferentialForm, F: DifferentialForm) -> EndoField:
    """The endomorphism I with omega(I v, w) = F(v, w).

    Needs a constant-coefficient nondegenerate omega; F may vary.  On the
    matrix level I = W^{-1} G with W, G the Gram matrices.
    """
    W = omega.constant_gram()
    if W is None:
        raise ValueError("endo_from_pair needs a constant-coefficient omega")
    _condition_gate(W, "constant form")
    Winv = np.linalg.inv(W)
    G = gram_fields(F)
    d = range(omega.model.dim)
    columns = [linear_map(omega.model, Winv, [G[k][j] for k in d]) for j in d]
    return EndoField(omega.model, tuple(zip(*columns)))


def is_type_11(B: DifferentialForm, I: EndoField) -> bool:
    """Whether B(I v, I w) = B(v, w) identically, decided by coefficient
    arithmetic at EXACT_ZERO."""
    return (I.pullback_twoform(B) - B).is_zero()


@dataclass(frozen=True)
class Distribution:
    """A subbundle given by a global frame of vector fields (possibly empty)."""

    model: ManifoldModel
    frame: tuple[VectorField, ...]

    @property
    def rank(self) -> int:
        return len(self.frame)

    def matrices(self, points) -> np.ndarray:
        """(m, dim, rank) frame matrices at a batch of points."""
        d = self.model.dim
        comps = [c for v in self.frame for c in v.components]
        vals = TermBank(comps, d)(points)
        return vals.reshape(vals.shape[0], self.rank, d).transpose(0, 2, 1)

    def matrix_at(self, point) -> np.ndarray:
        return self.matrices(np.asarray(point, float)[None, :])[0]

    def constant_matrix(self) -> np.ndarray | None:
        cols = [v.constant_vector() for v in self.frame]
        if any(c is None for c in cols):
            return None
        return (np.column_stack(cols) if cols
                else np.zeros((self.model.dim, 0)))


def kernel_basis(G: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the null space of a square matrix: the right
    singular vectors at most SVD_RANK_REL times max(s_max, 1)."""
    u, s, vt = np.linalg.svd(G)
    if s.size == 0:
        return np.eye(G.shape[0])
    null = s <= SVD_RANK_REL * max(s[0], 1.0)
    return vt[null].T


def _orth(A: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the column span of A, from its SVD.  The basis
    is column-major, as LAPACK returns it to SciPy: the BLAS products
    taken with it then round as SciPy's do."""
    u, s, _ = np.linalg.svd(A, full_matrices=False)
    tol = np.amax(s, initial=0.0) * np.finfo(float).eps * max(A.shape)
    return np.asfortranarray(u)[:, :int(np.sum(s > tol))]


def max_principal_angle(A: np.ndarray, B: np.ndarray) -> float:
    """Largest principal angle between the column spans (radians).

    The angles are those of SciPy's linalg.subspace_angles, by the same
    arithmetic: cosines are the singular values of QA^T QB, and angles
    whose cosine squared is at least 1/2 are taken from the sines, the
    singular values of the part of one basis outside the other's span.
    """
    if A.shape[1] != B.shape[1]:
        return float(np.pi / 2) if (A.shape[1] or B.shape[1]) else 0.0
    if A.shape[1] == 0:
        return 0.0
    QA, QB = _orth(A), _orth(B)
    C = QA.T @ QB
    cos = np.linalg.svd(C, compute_uv=False)
    R = QB - QA @ C if QA.shape[1] >= QB.shape[1] else QA - QB @ C.T
    small = cos ** 2 >= 0.5
    sin = (np.arcsin(np.clip(np.linalg.svd(R, compute_uv=False), -1.0, 1.0))
           if small.any() else 0.0)
    theta = np.where(small, sin, np.arccos(np.clip(cos[::-1], -1.0, 1.0)))
    return float(np.max(theta))


def bracket_span_residual(dist: Distribution, plan: SamplePlan) -> np.ndarray:
    """Per point of plan, the worst span_residual against the frame of the
    frame's pairwise brackets that are not the zero field; no values, and
    no plan drawn, when there are none.  The distribution is involutive at
    the points when every value is within model.SUBSPACE."""
    brackets = [br for br in itertools.starmap(
        bracket, itertools.combinations(dist.frame, 2))
        if any(c.terms for c in br.components)]
    if not brackets:
        return np.zeros(0)
    points = plan.points(dist.model)
    frames = dist.matrices(points)
    vals = TermBank([c for br in brackets for c in br.components],
                    dist.model.dim)(points)
    vals = vals.reshape(len(frames), len(brackets), -1)
    return np.array([max(span_residual(E, v) for v in row)
                     for E, row in zip(frames, vals)])


def span_residual(E: np.ndarray, v: np.ndarray) -> float:
    """Distance from v to the column span of E, relative to |v| (0 if v=0)."""
    nv = np.linalg.norm(v)
    if nv == 0.0:
        return 0.0
    if E.shape[1] == 0:
        return 1.0
    sol, *_ = np.linalg.lstsq(E, v, rcond=None)
    return float(np.linalg.norm(E @ sol - v) / nv)
