"""Coordinate models R^a x T^b, deterministic sample plans, and the
thresholds of the checks."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

LINE = "line"
CIRCLE = "circle"

# circle coordinates all have period 1; angles enter fields as 2*pi*k*theta
PERIOD = 1.0


@dataclass(frozen=True)
class ManifoldModel:
    """An explicit product of line and circle factors with named coordinates.

    coords is a tuple of (name, kind) pairs, kind in {"line", "circle"}.
    Coordinate order is significant: forms and vectors are stored
    componentwise against this order.
    """

    coords: tuple[tuple[str, str], ...]

    def __post_init__(self):
        names = [n for n, _ in self.coords]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate coordinate names: {names}")
        for n, kind in self.coords:
            if kind not in (LINE, CIRCLE):
                raise ValueError(f"bad coordinate kind {kind!r} for {n!r}")
            if not n.isidentifier():
                raise ValueError(f"bad coordinate name {n!r}")

    @property
    def dim(self) -> int:
        return len(self.coords)

    @functools.cached_property
    def names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.coords)

    @functools.cached_property
    def _positions(self) -> dict[str, int]:
        return {n: i for i, n in enumerate(self.names)}

    def kind(self, i: int) -> str:
        return self.coords[i][1]

    def is_circle(self, i: int) -> bool:
        return self.coords[i][1] == CIRCLE

    @property
    def circle_indices(self) -> tuple[int, ...]:
        return tuple(i for i, (_, k) in enumerate(self.coords) if k == CIRCLE)

    def index(self, name: str) -> int:
        try:
            return self._positions[name]
        except KeyError:
            raise KeyError(f"no coordinate {name!r} in {self.names}") from None

    def wrap(self, point: np.ndarray) -> np.ndarray:
        """Reduce circle coordinates mod 1; line coordinates untouched."""
        out = np.array(point, dtype=float)
        for i in self.circle_indices:
            out[..., i] = out[..., i] % PERIOD
        return out


def model_from_names(spec: Iterable[tuple[str, str]]) -> ManifoldModel:
    return ManifoldModel(tuple((n, k) for n, k in spec))


def extend_with_circle(a: ManifoldModel, name: str = "q") -> ManifoldModel:
    return ManifoldModel(a.coords + ((name, CIRCLE),))


def extend_with_line(a: ManifoldModel, name: str) -> ManifoldModel:
    return ManifoldModel(a.coords + ((name, LINE),))


def _primes(n: int) -> list[int]:
    """The first n primes."""
    primes: list[int] = []
    k = 2
    while len(primes) < n:
        if all(k % p for p in primes):
            primes.append(k)
        k += 1
    return primes


@functools.lru_cache(maxsize=64)
def _halton(dim: int, count: int, seed: int) -> np.ndarray:
    """The first count points of Owen's randomized Halton sequence in
    [0, 1)^dim (arXiv:1706.02808), read-only.

    Coordinate j is a van der Corput sequence in the j-th prime base b
    whose digits pass through their own random permutation of range(b).
    All permutations come from one numpy Generator seeded with seed, base
    by base and digit by digit; there are ceil(54 / log2 b) - 1 of them
    per base, one for each digit that can still change a double.  The
    digits are added from the most significant down, so every number
    equals that of SciPy's stats.qmc.Halton(d, scramble=True, seed=seed).
    The draw is column-major, as SciPy's is, so that arrays shaped like it
    keep the memory order that products with them round in.
    """
    rng = np.random.default_rng(seed)
    u = np.zeros((dim, count))
    for j, b in enumerate(_primes(dim)):
        perms = np.repeat(np.arange(b)[None],
                          math.ceil(54 / math.log2(b)) - 1, axis=0)
        for perm in perms:
            rng.shuffle(perm)
        q, scale = np.arange(count), 1.0 / b
        for perm in perms:
            q, r = np.divmod(q, b)
            u[j] += perm[r] * scale
            scale /= b
    u.flags.writeable = False
    return u.T


@dataclass(frozen=True)
class SamplePlan:
    """Low-discrepancy evaluation points for SAMPLED-mode checks.

    Owen-scrambled Halton sequence with a fixed seed, so reports are
    deterministic for a given (count, seed): the numbers are identical to
    SciPy's stats.qmc.Halton(d, scramble=True, seed=seed).random(count).
    The unit-cube draws are cached per (dim, count, seed); every call
    returns a fresh array, which the caller may write into.  Circle
    coordinates fill [0, 1), line coordinates [-1, 1).
    """

    count: int = 256
    seed: int = 0

    def points(self, model: ManifoldModel) -> np.ndarray:
        u = _halton(model.dim, self.count, self.seed)
        pts = np.empty_like(u)
        for i in range(model.dim):
            if model.is_circle(i):
                pts[:, i] = u[:, i] * PERIOD
            else:
                pts[:, i] = -1.0 + 2.0 * u[:, i]
        return pts


@dataclass(frozen=True)
class FlowOptions:
    """Fixed-step RK4 controls for the q-parametrized flows."""

    step: float = 1.0 / 1024.0


# The thresholds that no run sets, beside fields.PRUNE_EPS and
# forms.CONDITION_LIMIT; an EXACT verdict reads only these.  A coefficient,
# or a residual of constant data, is zero at EXACT_ZERO; kernel and span
# comparisons hold angles and relative distances to SUBSPACE; a singular
# value counts for a rank above SVD_RANK_REL times the largest.  In the
# deformation complex a + ib stands for the real (cos, sin) block
# [[a, -b], [b, a]], so a real rank is twice the complex rank.
EXACT_ZERO = 1e-10
SUBSPACE = 1e-8
SVD_RANK_REL = 1e-8


@dataclass(frozen=True)
class Tolerances:
    """The run's one tolerance: sampled, the pointwise residual threshold
    of SAMPLED verdicts (--tol).  The constants are class attributes, not
    fields, so that a report header can echo all four."""

    sampled: float = 1e-8
    exact_zero = EXACT_ZERO
    subspace = SUBSPACE
    svd_rank_rel = SVD_RANK_REL


def tolerance(value) -> float:
    """A tolerance setting from text or a number: a finite float >= 0."""
    try:
        t = float(value)
    except ValueError:  # text that is no float is refused below, as nan is
        t = math.nan
    if not (math.isfinite(t) and t >= 0.0):
        raise ValueError(f"tol must be a finite float >= 0, not {value}")
    return t


def truncation(value) -> int:
    """A Fourier truncation from text or a number: an int >= 0."""
    t = int(value)
    if t < 0:
        raise ValueError(f"truncation must be an int >= 0, not {value}")
    return t


# a refused check option reads "takes <parser name>" (scene._check_spec)
tolerance.__name__ = "finite float >= 0"
truncation.__name__ = "int >= 0"


def _int_setting(key: str, low: int):
    """The parser of an int run setting of at least low."""
    def parse(value) -> int:
        try:
            n = int(value)
        except ValueError:
            raise ValueError(f"{key} must be an int, not {value!r}") from None
        if n < low:
            raise ValueError(f"{key} must be at least {low}, not {value}")
        return n
    return parse


# The run settings, from a flag of `run` or a scene's `option` line: key ->
# parser of the value, whose ValueError names the key.
RUN_SETTINGS = {"seed": _int_setting("seed", 0),
                "steps": _int_setting("steps", 1), "tol": tolerance}

DEFAULT_TOL = Tolerances()
DEFAULT_PLAN = SamplePlan()
DEFAULT_FLOW = FlowOptions()
