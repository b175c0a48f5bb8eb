"""Fixed-step RK4 for q-parametrized velocity fields, with the variational
equation integrated alongside for tangent maps.

States are batches: many seed points advance in lockstep, which is what
makes 1/1024 steps affordable in pure Python.

The right-hand side is compiled once into a term bank.  The velocity
components and their partial derivatives are trig-polynomials over the
same coordinates, so the bank keeps the union of their term keys
(powers, freqs, phase) and a coefficient matrix C with one row per term
and one column per field: the n velocity components, then the n*n
Jacobian entries row by row (a zero partial is a zero column).  An RK4
stage evaluates each term once over the batch, raising only the
coordinates that carry a power, taking cos only of the cos terms and sin
only of the sin terms and no trig of the zero-frequency terms; one matmul
with C then gives the velocity and the Jacobian together.  Without
tangent maps a bank of the velocity's own terms is used.

Every step tests its new state for finiteness and raises FlowError at the
first step that leaves the finite numbers, naming the step and the seed
point whose trajectory left them.
"""

from __future__ import annotations

import math

import numpy as np

from .fields import COS, TWO_PI, partial


class FlowError(RuntimeError):
    pass


class _TermBank:
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

    def __call__(self, points: np.ndarray) -> np.ndarray:
        """(m, fields) values at points given as a (dim, m) array."""
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


class _RHS:
    """Velocity and its spatial Jacobian, compiled into term banks.

    components live on a model containing the moving coordinates
    (n_indices) and optionally the time coordinate (q_index).
    """

    def __init__(self, components, n_indices, q_index):
        self.model = components[0].model
        self.n_indices = list(n_indices)
        self.q_index = q_index
        comps = tuple(components)
        jac = tuple(partial(c, j) for c in comps for j in self.n_indices)
        self._velocity = _TermBank(comps, self.model.dim)
        self._both = _TermBank(comps + jac, self.model.dim)

    def __call__(self, x, q, with_jacobian):
        """(velocity (m, n), Jacobian (m, n, n) or None) at states x."""
        pts = np.zeros((self.model.dim, x.shape[0]))
        pts[self.n_indices] = x.T
        if self.q_index is not None:
            pts[self.q_index] = q
        if not with_jacobian:
            return self._velocity(pts), None
        m, n = x.shape
        out = self._both(pts)
        return out[:, :n], out[:, n:].reshape(m, n, n)


def rk4_flow(components, n_indices, x0, q0, q1, step,
             q_index=None, with_jacobian=True):
    """Integrate dx/dq = V(x, q) from q0 to q1.

    components: ScalarFields giving V over the n_indices coordinates.
    x0: (m, len(n_indices)) seed points.
    Returns (x, J, nsteps) with J the tangent maps (or None).
    """
    if step <= 0:
        raise ValueError("step must be positive")
    x = np.array(x0, dtype=float)
    single = x.ndim == 1
    if single:
        x = x[None, :]
    m, n = x.shape
    J = np.broadcast_to(np.eye(n), (m, n, n)).copy() if with_jacobian else None
    span = q1 - q0
    if span == 0.0:
        return (x[0], J[0], 0) if single else (x, J, 0)
    nsteps = max(1, math.ceil(abs(span) / step - 1e-12))
    h = span / nsteps
    rhs = _RHS(components, n_indices, q_index)
    seeds = x
    q = q0
    for s in range(1, nsteps + 1):
        x, J = _rk4_step(rhs, x, J, q, h, s, seeds)
        q += h
    if single:
        return x[0], (J[0] if J is not None else None), nsteps
    return x, J, nsteps


def _rk4_step(rhs, x, J, q, h, step, seeds):
    """One RK4 step of the states x (and tangent maps J) from q to q + h.

    step numbers the step within its sweep and seeds[i] is the seed point
    of row i; both only name the failure when the new state is not finite.
    """
    jac = J is not None
    k1, A1 = rhs(x, q, jac)
    k2, A2 = rhs(x + 0.5 * h * k1, q + 0.5 * h, jac)
    k3, A3 = rhs(x + 0.5 * h * k2, q + 0.5 * h, jac)
    k4, A4 = rhs(x + h * k3, q + h, jac)
    xn = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    if not np.isfinite(xn).all():
        i = int(np.argmin(np.isfinite(xn).all(axis=1)))
        point = ", ".join(f"{v:.6g}" for v in seeds[i])
        raise FlowError(f"non-finite state at step {step} (q = {q + h:.6g}) "
                        f"on the trajectory of seed point ({point})")
    if not jac:
        return xn, None
    K1 = A1 @ J
    K2 = A2 @ (J + 0.5 * h * K1)
    K3 = A3 @ (J + 0.5 * h * K2)
    K4 = A4 @ (J + h * K3)
    return xn, J + (h / 6.0) * (K1 + 2.0 * K2 + 2.0 * K3 + K4)
