"""Trigonometric-polynomial scalar and vector fields on product models.

A field is a finite sum of terms

    coeff * prod_i x_i^p_i * {cos|sin}(2*pi * sum_j k_j x_j)

with integer powers p and integer frequencies k (k nonzero only on circle
coordinates).  Sums, products, partial derivatives, circle averages,
definite antiderivatives and translations stay inside the class, so
closedness, kernel identities and invariance under a translation can be
certified by exact coefficient arithmetic instead of sampling.

Canonical form: terms are keyed by (powers, freqs, phase), frequencies are
sign-normalized (first nonzero entry positive, a sin flip absorbs the sign),
sin with zero frequency is dropped, and coefficients below PRUNE_EPS are
pruned.  Two fields are equal as functions iff their canonical term dicts
agree up to the pruning threshold.

The sum rule: every sum of fields, and every component of a sum of forms,
is one _canonical pass over the (key, coeff) pairs of its terms, through
combine (or forms._form_sum, which calls combine once per component).
The coefficients of equal keys are added left to right in the order the
terms are given, and the sums are pruned once at the end, never after a
partial sum.  Products, partials, antiderivatives and parsed sums follow
the same rule, so no other code adds the coefficients of equal keys.
A constant matrix applied to a list of fields is linear_map: one combine
per row, over the row's nonzero entries in column order.  It carries the
solve forms.hamiltonian; forms.transverse_matrix solves for a matrix.

Powers on circle coordinates are permitted (needed transiently for
antiderivatives in the deformation builder) but flag the field as not
globally defined on the torus factor; see has_circle_powers.

Every evaluation at points goes through one evaluator, TermBank.  A bank
compiles a list of fields over one model into the union of their term
keys (powers, freqs, phase) and a coefficient matrix C with one row per
term and one column per field.  A call evaluates each term once over the
batch, raising only the coordinates that carry a power, taking cos only
of the cos terms and sin only of the sin terms and no trig of the
zero-frequency terms; one matmul with C then gives every field at every
point.  A scalar field is a bank of one, a vector field a bank of its
components, a 2-form's Gram matrices a bank of its coefficients and a
frame's matrices a bank of all its vectors' components; the flows compile
the velocity and its Jacobian into one bank (integrate._RHS).

The matmul with C, like any batched product, may round a row differently
with the number of rows: a point's value can differ in its last bits
between a one-point call and the same point inside a larger batch.
Checks that must agree exactly therefore compare values from batches of
the same size, or from constant data, whose values are exact.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .model import ManifoldModel

COS = 0
SIN = 1

TWO_PI = 2.0 * math.pi

# pruning threshold used during canonicalization
PRUNE_EPS = 1e-12

Key = tuple[tuple[int, ...], tuple[int, ...], int]


def _norm_term(powers, freqs, phase, coeff):
    """Sign-normalize the frequency vector; None if the term is zero."""
    if not any(freqs):
        if phase == SIN:
            return None
        return (powers, freqs, COS), coeff
    first = next(k for k in freqs if k != 0)
    if first < 0:
        freqs = tuple(-k for k in freqs)
        if phase == SIN:
            coeff = -coeff
    return (powers, freqs, phase), coeff


class NonFiniteCoefficientError(ValueError):
    """A coefficient of a field overflowed to inf or became nan."""


def _canonical(pairs) -> tuple:
    """Canonical terms of a sum of (key, coeff) pairs: each key is
    sign-normalized, the coefficients of equal keys are added in the
    order given, and the sums are pruned once at PRUNE_EPS.  Raises
    NonFiniteCoefficientError if a sum is inf or nan."""
    acc: dict[Key, float] = {}
    for (powers, freqs, phase), coeff in pairs:
        normed = _norm_term(powers, freqs, phase, coeff)
        if normed is None:
            continue
        key, c = normed
        acc[key] = acc.get(key, 0.0) + c
    # one sum tests every coefficient: it is finite unless one of them is
    # not, or the sum itself overflows, which the scan then tells apart
    if not math.isfinite(sum(acc.values())):
        bad = [c for c in acc.values() if not math.isfinite(c)]
        if bad:
            raise NonFiniteCoefficientError(
                f"coefficient {bad[0]} is not finite: a sum or product of "
                f"coefficients overflowed")
    return tuple(sorted((k, c) for k, c in acc.items()
                        if abs(c) > PRUNE_EPS))


@dataclass(frozen=True)
class ScalarField:
    model: ManifoldModel
    terms: tuple[tuple[Key, float], ...]

    # -- constructors ----------------------------------------------------

    @staticmethod
    def build(model: ManifoldModel, raw: dict[Key, float]) -> "ScalarField":
        return ScalarField(model, _canonical(raw.items()))

    @staticmethod
    def zero(model: ManifoldModel) -> "ScalarField":
        return ScalarField(model, ())

    @staticmethod
    def constant(model: ManifoldModel, c: float) -> "ScalarField":
        z = (0,) * model.dim
        return ScalarField.build(model, {(z, z, COS): float(c)})

    @staticmethod
    def coordinate(model: ManifoldModel, i: int) -> "ScalarField":
        z = (0,) * model.dim
        p = tuple(1 if j == i else 0 for j in range(model.dim))
        return ScalarField.build(model, {(p, z, COS): 1.0})

    @staticmethod
    def _trig(model, freqs, phase, coeff):
        freqs = tuple(int(k) for k in freqs)
        for j, k in enumerate(freqs):
            if k != 0 and not model.is_circle(j):
                raise ValueError(
                    f"frequency on line coordinate {model.names[j]!r}")
        z = (0,) * model.dim
        return ScalarField.build(model, {(z, freqs, phase): float(coeff)})

    @staticmethod
    def cosine(model: ManifoldModel, freqs, coeff: float = 1.0) -> "ScalarField":
        return ScalarField._trig(model, freqs, COS, coeff)

    @staticmethod
    def sine(model: ManifoldModel, freqs, coeff: float = 1.0) -> "ScalarField":
        return ScalarField._trig(model, freqs, SIN, coeff)

    # -- structure -------------------------------------------------------

    @property
    def has_circle_powers(self) -> bool:
        circ = set(self.model.circle_indices)
        return any(p[i] for (p, _, _), _ in self.terms for i in circ)

    def max_coeff(self) -> float:
        return max((abs(c) for _, c in self.terms), default=0.0)

    def is_zero(self, tol: float = 1e-10) -> bool:
        return self.max_coeff() <= tol

    def is_constant(self, tol: float = 1e-10) -> bool:
        """Every term but the constant one is at most tol."""
        z = (0,) * self.model.dim
        return all(abs(c) <= tol for k, c in self.terms if k != (z, z, COS))

    def constant_value(self, tol: float = 1e-10) -> float:
        """The value of a constant field; raises if not constant."""
        if not self.is_constant(tol):
            raise ValueError("field is not constant")
        z = (0,) * self.model.dim
        return dict(self.terms).get((z, z, COS), 0.0)

    # -- algebra ---------------------------------------------------------

    def __add__(self, other):
        return combine(self.model, [(self, 1.0),
                                    (_coerce(self.model, other), 1.0)])

    __radd__ = __add__

    def __neg__(self):
        return ScalarField(self.model, tuple((k, -c) for k, c in self.terms))

    def __sub__(self, other):
        return combine(self.model, [(self, 1.0),
                                    (_coerce(self.model, other), -1.0)])

    def __rsub__(self, other):
        return combine(self.model, [(_coerce(self.model, other), 1.0),
                                    (self, -1.0)])

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return combine(self.model, [(self, other)])
        return field_mul(self, other)

    __rmul__ = __mul__

    def __str__(self):
        from .grammar import field_to_text
        return field_to_text(self)

    # -- evaluation ------------------------------------------------------

    def eval(self, point) -> float:
        point = np.asarray(point, dtype=float)
        return float(self.eval_batch(point[None, :])[0])

    def eval_batch(self, points: np.ndarray) -> np.ndarray:
        return TermBank((self,), self.model.dim)(points)[:, 0]


def combine(model: ManifoldModel, pairs: list) -> ScalarField:
    """The sum of scale * f over a list of (field, scale) pairs, in one
    canonical pass: the scaled terms are added left to right and pruned
    once."""
    for f, _ in pairs:
        if f.model != model:
            raise ValueError("fields live on different models")
    if len(pairs) == 1 and pairs[0][1] in (1, -1):
        # a canonical field times +-1 is canonical: the pass would return
        # its terms unchanged
        f, scale = pairs[0]
        return f if scale == 1 else -f
    return ScalarField(model, _canonical(
        [(key, c * scale) for f, scale in pairs for key, c in f.terms]))


def linear_map(model: ManifoldModel, M, fs) -> tuple[ScalarField, ...]:
    """The fields sum_j M[i, j] * fs[j], one per row of the matrix M: row
    i is one combine of the pairs (fs[j], M[i, j]) over the nonzero
    entries, in column order."""
    return tuple(combine(model, [(f, m) for f, m in zip(fs, row) if m != 0.0])
                 for row in M)


def _coerce(model: ManifoldModel, x) -> ScalarField:
    if isinstance(x, ScalarField):
        if x.model != model:
            raise ValueError("fields live on different models")
        return x
    if isinstance(x, (int, float)):
        return ScalarField.constant(model, x)
    raise TypeError(f"cannot treat {type(x)} as a scalar field")


class TermBank:
    """Fields over one model evaluated through one shared term table.

    Terms are ordered zero-frequency first, then cos, then sin, and the
    table is laid out term by point, so that each trig function writes
    one contiguous block of it.
    """

    def __init__(self, fields, dim):
        keys = sorted({key for f in fields for key, _ in f.terms},
                      key=lambda k: (k[2] + 1 if any(k[1]) else 0, k))
        row = {key: t for t, key in enumerate(keys)}
        self.C = np.zeros((len(keys), len(fields)))
        for col, f in enumerate(fields):
            for key, c in f.terms:
                self.C[row[key], col] = c
        P = np.array([k[0] for k in keys], dtype=np.int64).reshape(-1, dim)
        K = np.array([k[1] for k in keys], dtype=float).reshape(-1, dim)
        # (coordinate, exponent of every term, largest exponent) for each
        # coordinate that carries a power
        self.powers = [(j, P[:, j], int(P[:, j].max()))
                       for j in range(dim) if P[:, j].any()]
        n_free = sum(not any(k[1]) for k in keys)
        n_cos = sum(any(k[1]) and k[2] == COS for k in keys)
        self.free = slice(0, n_free)
        self.cos = slice(n_free, n_free + n_cos)
        self.sin = slice(n_free + n_cos, len(keys))
        self.K_cos = K[self.cos]
        self.K_sin = K[self.sin]

    def __call__(self, points) -> np.ndarray:
        """(m, fields) values at points given as an (m, dim) array."""
        points = np.ascontiguousarray(np.asarray(points, dtype=float).T)
        vals = np.empty((self.C.shape[0], points.shape[1]))
        vals[self.free] = 1.0
        if len(self.K_cos):
            np.cos(TWO_PI * (self.K_cos @ points), out=vals[self.cos])
        if len(self.K_sin):
            np.sin(TWO_PI * (self.K_sin @ points), out=vals[self.sin])
        for j, exps, top in self.powers:
            table = np.empty((top + 1, points.shape[1]))
            table[0] = 1.0
            table[1] = points[j]
            for e in range(2, top + 1):
                table[e] = table[e - 1] * points[j]
            vals *= table[exps]
        return vals.T @ self.C


def field_mul(a: ScalarField, b: ScalarField) -> ScalarField:
    """Product, rewritten to canonical form via product-to-sum identities."""
    if a.model != b.model:
        raise ValueError("fields live on different models")
    out = []
    for (p1, k1, f1), c1 in a.terms:
        for (p2, k2, f2), c2 in b.terms:
            p = tuple(x + y for x, y in zip(p1, p2))
            c = c1 * c2
            if not any(k1):
                out.append(((p, k2, f2), c))
                continue
            if not any(k2):
                out.append(((p, k1, f1), c))
                continue
            diff = tuple(x - y for x, y in zip(k1, k2))
            summ = tuple(x + y for x, y in zip(k1, k2))
            if f1 == COS and f2 == COS:
                out += [((p, diff, COS), 0.5 * c), ((p, summ, COS), 0.5 * c)]
            elif f1 == SIN and f2 == SIN:
                out += [((p, diff, COS), 0.5 * c), ((p, summ, COS), -0.5 * c)]
            elif f1 == SIN and f2 == COS:
                out += [((p, diff, SIN), 0.5 * c), ((p, summ, SIN), 0.5 * c)]
            else:  # cos * sin
                out += [((p, diff, SIN), -0.5 * c), ((p, summ, SIN), 0.5 * c)]
    return ScalarField(a.model, _canonical(out))


def partial(a: ScalarField, i: int) -> ScalarField:
    """Exact partial derivative in coordinate i."""
    out = []
    for (p, k, phase), c in a.terms:
        if p[i] > 0:
            p2 = tuple(x - 1 if j == i else x for j, x in enumerate(p))
            out.append(((p2, k, phase), c * p[i]))
        if k[i] != 0:
            if phase == COS:
                out.append(((p, k, SIN), -TWO_PI * k[i] * c))
            else:
                out.append(((p, k, COS), TWO_PI * k[i] * c))
    return ScalarField(a.model, _canonical(out))


def circle_average(a: ScalarField, i: int) -> ScalarField:
    """Exact average over the circle coordinate i."""
    if not a.model.is_circle(i):
        raise ValueError(f"{a.model.names[i]!r} is not a circle coordinate")
    if any(p[i] for (p, _, _), _ in a.terms):
        raise ValueError(
            "cannot average a field with a power on the circle coordinate")
    # dropping the terms that oscillate in x_i keeps the rest canonical
    return ScalarField(a.model, tuple(
        (key, c) for key, c in a.terms if key[1][i] == 0))


def q_antiderivative(a: ScalarField, i: int) -> ScalarField:
    """Definite integral from 0 to x_i along circle coordinate i.

    Terms constant in x_i pick up a power of x_i, so the result may carry
    circle powers (has_circle_powers) and is then only well defined on the
    universal cover of that factor.
    """
    if not a.model.is_circle(i):
        raise ValueError(f"{a.model.names[i]!r} is not a circle coordinate")
    out = []
    for (p, k, phase), c in a.terms:
        if p[i] != 0:
            raise ValueError("field already carries a power on this coordinate")
        if k[i] == 0:
            p2 = tuple(x + 1 if j == i else x for j, x in enumerate(p))
            out.append(((p2, k, phase), c))
            continue
        k0 = tuple(0 if j == i else x for j, x in enumerate(k))
        scale = c / (TWO_PI * k[i])
        if phase == COS:
            out += [((p, k, SIN), scale), ((p, k0, SIN), -scale)]
        else:
            out += [((p, k, COS), -scale), ((p, k0, COS), scale)]
    return ScalarField(a.model, _canonical(out))


def substitute(a: ScalarField, i: int, value: float) -> ScalarField:
    """Freeze coordinate i at a constant; the result no longer depends on it."""
    out = []
    for (p, k, phase), c in a.terms:
        factor = float(value) ** p[i] if p[i] else 1.0
        p2 = tuple(0 if j == i else x for j, x in enumerate(p))
        if k[i] == 0:
            out.append(((p2, k, phase), c * factor))
            continue
        k2 = tuple(0 if j == i else x for j, x in enumerate(k))
        phi = TWO_PI * k[i] * value
        cphi, sphi = math.cos(phi), math.sin(phi)
        if phase == COS:
            out += [((p2, k2, COS), c * factor * cphi),
                    ((p2, k2, SIN), -c * factor * sphi)]
        else:
            out += [((p2, k2, SIN), c * factor * cphi),
                    ((p2, k2, COS), c * factor * sphi)]
    return ScalarField(a.model, _canonical(out))


def translate(a: ScalarField, shifts) -> ScalarField:
    """The field x -> a(x + shifts), exactly: the shifts of the circle
    coordinates rotate the phase of each oscillating term, and each power
    x_i^p expands binomially into powers of x_i.  A zero shift returns a."""
    s = [float(v) for v in shifts]
    if not any(s):
        return a
    out = []
    for (p, k, phase), c in a.terms:
        # (x_i + s_i)^p_i = sum_r C(p_i, r) s_i^(p_i - r) x_i^r, per power
        expand = [[(r, math.comb(e, r) * s[i] ** (e - r))
                   for r in range(e + 1)] if e and s[i] else [(e, 1.0)]
                  for i, e in enumerate(p)]
        phi = TWO_PI * (sum(kj * sj for kj, sj in zip(k, s)) % 1.0)
        cphi, sphi = math.cos(phi), math.sin(phi)
        for picks in itertools.product(*expand):
            p2 = tuple(r for r, _ in picks)
            cc = c * math.prod(f for _, f in picks)
            if not any(k):
                out.append(((p2, k, phase), cc))
            elif phase == COS:
                out += [((p2, k, COS), cc * cphi), ((p2, k, SIN), -cc * sphi)]
            else:
                out += [((p2, k, SIN), cc * cphi), ((p2, k, COS), cc * sphi)]
    return ScalarField(a.model, _canonical(out))


def reindex(a: ScalarField, target: ManifoldModel, mapping) -> ScalarField:
    """Transport a field to another model; mapping[i] = target index of
    source coordinate i, or None to drop it, which the field must not
    depend on.  Every source coordinate is named; kinds must match."""
    if len(mapping) != a.model.dim:
        raise ValueError(f"reindex maps {len(mapping)} of the "
                         f"{a.model.dim} source coordinates")
    out = []
    for (p, k, phase), c in a.terms:
        p2 = [0] * target.dim
        k2 = [0] * target.dim
        for i, j in enumerate(mapping):
            if j is None:
                if p[i] or k[i]:
                    raise ValueError(
                        "field still depends on the dropped coordinate")
                continue
            if a.model.kind(i) != target.kind(j):
                raise ValueError("coordinate kinds differ under reindex")
            p2[j] = p[i]
            k2[j] = k[i]
        out.append(((tuple(p2), tuple(k2), phase), c))
    return ScalarField(target, _canonical(out))


@dataclass(frozen=True)
class VectorField:
    model: ManifoldModel
    components: tuple[ScalarField, ...]

    def __post_init__(self):
        if len(self.components) != self.model.dim:
            raise ValueError("component count does not match model dimension")
        for c in self.components:
            if c.model != self.model:
                raise ValueError("component on a different model")

    @staticmethod
    def from_components(model, comps) -> "VectorField":
        out = []
        for c in comps:
            if isinstance(c, (int, float)):
                c = ScalarField.constant(model, c)
            out.append(c)
        return VectorField(model, tuple(out))

    @staticmethod
    def basis(model: ManifoldModel, i: int) -> "VectorField":
        return VectorField.from_components(
            model, [1.0 if j == i else 0.0 for j in range(model.dim)])

    def is_constant(self, tol: float = 1e-10) -> bool:
        return all(c.is_constant(tol) for c in self.components)

    def constant_vector(self) -> np.ndarray:
        return np.array([c.constant_value() for c in self.components])

    def eval(self, point) -> np.ndarray:
        return self.eval_batch(np.asarray(point, dtype=float)[None, :])[0]

    def eval_batch(self, points) -> np.ndarray:
        return TermBank(self.components, self.model.dim)(points)

    def __add__(self, other):
        return VectorField(self.model, tuple(
            a + b for a, b in zip(self.components, other.components)))

    def __sub__(self, other):
        return VectorField(self.model, tuple(
            a - b for a, b in zip(self.components, other.components)))

    def __neg__(self):
        return VectorField(self.model, tuple(-a for a in self.components))

    def __mul__(self, g):
        return VectorField(self.model, tuple(c * g for c in self.components))

    __rmul__ = __mul__

    def __str__(self):
        from .grammar import vector_to_text
        return vector_to_text(self)


def bracket(x: VectorField, y: VectorField) -> VectorField:
    """Lie bracket [x, y], componentwise x(y^i) - y(x^i)."""
    comps = []
    for i in range(x.model.dim):
        pairs = []
        for j in range(x.model.dim):
            pairs += [(x.components[j] * partial(y.components[i], j), 1.0),
                      (y.components[j] * partial(x.components[i], j), -1.0)]
        comps.append(combine(x.model, pairs))
    return VectorField(x.model, tuple(comps))


def directional(x: VectorField, f: ScalarField) -> ScalarField:
    """Derivative of f along x."""
    return combine(x.model, [(x.components[j] * partial(f, j), 1.0)
                             for j in range(x.model.dim)])
