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

The constancy rule: a field is constant exactly when its only term is the
constant term.  Pruning already drops noise, so no tolerance enters.
Every constant accessor returns the value, or None when not constant.

The sum rule: every sum of fields, and every component of a sum of forms,
is one _canonical pass over the (key, coeff) pairs of its terms.  combine
makes that pass (forms._form_sum calls it once per component), and so
does the text grammar's sum reader, over the signed pairs of the terms it
reads.  The coefficients of equal keys are added left to right in the
order the terms are given, and the sums are pruned once at the end, never
after a partial sum.  Products, partials, antiderivatives, parsed sums and
parsed products follow the same rule, so no other code adds the
coefficients of equal keys.  A parsed product (one term of the text
grammar) folds its numbers, coordinate powers and first cos/sin factor
into one key and one coefficient, and is pruned once after the whole
product, never after a partial product.
A constant matrix applied to a list of fields is linear_map: one combine
per row, over the row's nonzero entries in column order.  It carries the
solve forms.hamiltonian; forms.transverse_matrix solves for a matrix.

Powers on circle coordinates are permitted (needed transiently for
antiderivatives in the deformation builder) but flag the field as not
globally defined on the torus factor; see has_circle_powers.

Every evaluation at points goes through one evaluator, TermBank.  A bank
compiles a list of fields over one model into the union of their term
keys (powers, freqs, phase) and a coefficient matrix C with one row per
term and one column per field.  A term is its wave, the cos or sin of
its frequency's argument (1 at zero frequency), times its monomial, and a
call evaluates each part once over the batch: one argument row per
distinct nonzero frequency, cos only of the arguments some cos term needs
and sin only of those some sin term needs, and each distinct power vector
once, from one table of the powers of the coordinates that carry one.
Each term's row is then its wave times its monomial, and one matmul with
C gives every field at every point.  A scalar field is a bank of one, a
vector field a bank of its components, a 2-form's Gram matrices a bank of
its coefficients and a frame's matrices a bank of all its vectors'
components; the flows compile the velocity and its Jacobian into one bank
(integrate._RHS).

The matmul with C, like any batched product, may round a row differently
with the number of rows: a point's value can differ in its last bits
between a one-point call and the same point inside a larger batch.  The
same holds across banks.  The argument product K @ points may round a
frequency's row differently with the number of frequency rows, so a field
can differ in its last bits between a bank of its own and a bank it
shares with other fields, at the same points.  With numpy 2.4's OpenBLAS
on x86-64, a cosine with frequency (3, 3, -3, 3, 3) on five circles, at
37 points, differs so in each of 20 seeded banks that add 39 other
cosines.  Checks that must agree exactly therefore compare values from
the same bank over batches of the same size, or from constant data,
whose values are exact.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from .model import EXACT_ZERO, ManifoldModel

COS = 0
SIN = 1

TWO_PI = 2.0 * math.pi

# pruning threshold used during canonicalization
PRUNE_EPS = 1e-12

Key = tuple[tuple[int, ...], tuple[int, ...], int]


def _norm_term(powers, freqs, phase, coeff):
    """Sign-normalize the frequency vector; None if the term is zero."""
    for first in freqs:
        if first:
            if first < 0:
                freqs = tuple(-k for k in freqs)
                if phase == SIN:
                    coeff = -coeff
            return (powers, freqs, phase), coeff
    if phase == SIN:
        return None
    return (powers, freqs, COS), coeff


class NonFiniteCoefficientError(ValueError):
    """A coefficient of a field overflowed to inf or became nan."""


def _non_finite(c: float) -> NonFiniteCoefficientError:
    return NonFiniteCoefficientError(
        f"coefficient {c} is not finite: a sum or product of coefficients "
        f"overflowed")


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
            raise _non_finite(bad[0])
    # the keys are distinct, so sorting by key alone gives the same order
    return tuple(sorted([kc for kc in acc.items() if abs(kc[1]) > PRUNE_EPS],
                        key=itemgetter(0)))


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
        """ValueError if a frequency is nonzero on a line coordinate."""
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

    def is_zero(self, tol: float = EXACT_ZERO) -> bool:
        return self.max_coeff() <= tol

    def constant_value(self) -> float | None:
        """The value of the field if its only term is the constant term
        (0.0 for the zero field), else None."""
        z = (0,) * self.model.dim
        if any(k != (z, z, COS) for k, _ in self.terms):
            return None
        return self.terms[0][1] if self.terms else 0.0

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
        if f.model is not model and f.model != model:
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
    """Fields over one model evaluated through one shared table.

    The table has one row over the points for each of: the constant 1,
    each wave some term needs, each power x_j^e up to the largest exponent
    of x_j, and each monomial of more than one factor.  The distinct
    nonzero frequencies are ordered cos only, cos and sin, sin only, so
    that cos and sin each read one block of their arguments.  The terms
    (the rows of C) are ordered zero-frequency first, then cos, then sin;
    wave_of and mono_of give each term's wave and monomial rows.
    """

    def __init__(self, fields, dim):
        groups: tuple[list, list, list] = ([], [], [])
        for key in {key for f in fields for key, _ in f.terms}:
            groups[key[2] + 1 if any(key[1]) else 0].append(key)
        free, cos, sin = map(sorted, groups)
        keys = free + cos + sin
        row = {key: t for t, key in enumerate(keys)}
        self.C = np.zeros((len(keys), len(fields)))
        for col, f in enumerate(fields):
            for key, c in f.terms:
                self.C[row[key], col] = c
        cos_k = dict.fromkeys(k for _, k, _ in cos)
        sin_k = dict.fromkeys(k for _, k, _ in sin)
        freqs = sorted({**cos_k, **sin_k},
                       key=lambda k: (k in sin_k) - (k in cos_k))
        at = {k: i for i, k in enumerate(freqs)}
        self.K = np.array(freqs, dtype=float).reshape(-1, dim)
        # (argument rows, table rows) of the cos and of the sin waves
        n = 1 + len(cos_k)
        s0 = len(freqs) - len(sin_k)
        self.cos = (slice(0, len(cos_k)), slice(1, n))
        self.sin = (slice(s0, len(freqs)), slice(n, n + len(sin_k)))
        self.wave_of = np.array(
            [0] * len(free) + [1 + at[k] for _, k, _ in cos]
            + [n - s0 + at[k] for _, k, _ in sin], dtype=np.intp)
        n += len(sin_k)
        # the powers: (table rows, coordinates, rows of the powers one
        # lower) for each exponent e, the rows x_j^e of every x_j that
        # carries e or more
        monos = dict.fromkeys(p for p, _, _ in keys)
        top = [max(col) for col in zip(*monos)]
        pos = {}
        self.powers = []
        for e in range(1, max(top, default=0) + 1):
            js = [j for j, t in enumerate(top) if t >= e]
            lower = np.array([pos[j, e - 1] for j in js]) if e > 1 else None
            self.powers.append((slice(n, n + len(js)), np.array(js), lower))
            pos.update(((j, e), n + t) for t, j in enumerate(js))
            n += len(js)
        # the monomials of several factors: F[i] is the i-th factor's row
        # of each, padded with row 0
        multi = []
        for p in monos:
            fs = [pos[j, e] for j, e in enumerate(p) if e]
            if len(fs) > 1:
                multi.append(fs)
                fs = [n + len(multi) - 1]
            monos[p] = fs[0] if fs else 0
        width = max(map(len, multi), default=0)
        self.F = np.array([fs + [0] * (width - len(fs)) for fs in multi],
                          dtype=np.intp).T
        self.products = slice(n, n + len(multi))
        self.rows = n + len(multi)
        self.mono_of = np.array([monos[p] for p, _, _ in keys],
                                dtype=np.intp)

    def __call__(self, points) -> np.ndarray:
        """(m, fields) values at points given as an (m, dim) array."""
        points = np.ascontiguousarray(np.asarray(points, dtype=float).T)
        table = np.empty((self.rows, points.shape[1]))
        table[0] = 1.0
        if len(self.K):
            args = self.K @ points
            args *= TWO_PI
            for trig, (a, t) in ((np.cos, self.cos), (np.sin, self.sin)):
                if a.start < a.stop:
                    trig(args[a], out=table[t])
        for rows, js, lower in self.powers:
            if lower is None:
                table[rows] = points[js]
            else:
                np.multiply(table[lower], points[js], out=table[rows])
        if len(self.F):
            products = table[self.products]
            np.multiply(table[self.F[0]], table[self.F[1]], out=products)
            for f in self.F[2:]:
                products *= table[f]
        vals = table[self.wave_of]
        if self.powers:
            vals *= table[self.mono_of]
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
        try:
            expand = [[(r, math.comb(e, r) * s[i] ** (e - r))
                       for r in range(e + 1)] if e and s[i] else [(e, 1.0)]
                      for i, e in enumerate(p)]
        except OverflowError:  # a float power raises where a product is inf
            raise _non_finite(math.inf) from None
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

    def constant_vector(self) -> np.ndarray | None:
        """The components' values if every one is constant, else None."""
        vals = [c.constant_value() for c in self.components]
        return None if None in vals else np.array(vals)

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

