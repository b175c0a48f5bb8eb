"""Fixed-step RK4 for q-parametrized velocity fields, with the variational
equation integrated alongside for tangent maps.

States are batches: many seed points advance in lockstep, which is what
makes 1/1024 steps affordable in pure Python.  One sweep, rk4_sweep, owns
the step loop: step s starts at q0 + s*h, and every RK4 flow of the
package is one call to it, carrying tangent maps.  Only flows whose
velocity depends on the point (or on a power of q) come here: nearby takes
a velocity that depends on q alone as a translation in closed form.
rk4_flow is a sweep of all rows from q0 to q1.  A sweep can also let rows
enter late (the backward transport solves of nearby, each from its own q
to the zero slice, ride one sweep as a growing prefix of the batch) and
read given rows out after given step counts (the mapping-torus check
reads each sample at its own q and at the stencil stations around it,
from one forward and one backward sweep).

The right-hand side is compiled once into a term bank (fields.TermBank)
whose fields are the n velocity components, then the n*n Jacobian
entries row by row (a zero partial is a zero column), so one bank call
per RK4 stage gives the velocity and the Jacobian together.  There is no
velocity-only bank: every sweep carries tangent maps.  A step is the
textbook RK4 formula, in its order of operations, for the states and for
the tangent maps; the tangent maps' stage inputs and their weighted sum
are written into two buffers of the step.  The bank's matmul and the
tangent-map products A @ J are batched, so a seed point's tangent map
can differ in its last bits with how many rows share its sweep, and a
velocity's values with which other fields share its bank (see the
rounding rule in the fields docstring); a reference that must match
exactly flows the same batch through the same bank.

Every step tests its new state for finiteness and raises FlowError at the
first step that leaves the finite numbers, naming the step and the seed
point whose trajectory left them.
"""

from __future__ import annotations

import math

import numpy as np

from .fields import TermBank, partial


class FlowError(RuntimeError):
    pass


class _RHS:
    """Velocity and its spatial Jacobian, compiled into one term bank.

    components live on a model containing the moving coordinates
    (n_indices) and optionally the time coordinate (q_index).
    """

    def __init__(self, components, n_indices, q_index):
        self.components = tuple(components)
        self.model = self.components[0].model
        self.n_indices = list(n_indices)
        self.q_index = q_index
        jac = tuple(partial(c, j) for c in self.components
                    for j in self.n_indices)
        self._bank = TermBank(self.components + jac, self.model.dim)

    def __call__(self, x, q):
        """(velocity (m, n), Jacobian (m, n, n)) at states x."""
        m, n = x.shape
        # one row per coordinate: the bank reads the rows without a copy
        pts = np.zeros((self.model.dim, m))
        pts[self.n_indices] = x.T
        if self.q_index is not None:
            pts[self.q_index] = q
        out = self._bank(pts.T)
        return out[:, :n], out[:, n:].reshape(m, n, n)


def rk4_flow(rhs: _RHS, x0, q0, q1, step):
    """Integrate dx/dq = V(x, q) from q0 to q1 in equal steps of at most
    step.

    rhs: the compiled V.  x0: (m, n) seed points.
    Returns (x, J, nsteps) with J the tangent maps.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    x0 = np.asarray(x0, dtype=float)
    m, n = x0.shape
    span = q1 - q0
    nsteps = max(1, math.ceil(abs(span) / step - 1e-12)) if span else 0
    h = span / nsteps if nsteps else 0.0
    J = np.broadcast_to(np.eye(n), (m, n, n))
    x, J = rk4_sweep(rhs, x0, J, q0, h, nsteps, x0)
    return x, J, nsteps


def rk4_sweep(rhs: _RHS, x, J, q0, h, nsteps, seeds, entered=None,
              reads=None):
    """Advance the rows of x (m, n), with their tangent maps J (m, n, n),
    through nsteps RK4 steps of size h; step s (counted from 0) starts at
    q0 + s*h.

    entered: optional rows in flight per step.  Step s advances only the
    first entered[s] rows; the counts never fall, so a row stays in flight
    from the step it enters, and rows not yet in flight keep their state.
    reads: optional (rows, after) index arrays.  The sweep then returns the
    state of row rows[r] after after[r] steps, for every r, instead of the
    final state of every row.
    seeds[i] is the seed point that names row i's trajectory in a
    FlowError.  Returns (x, J).
    """
    x = np.array(x, dtype=float, order="C")
    J = np.array(J, dtype=float, order="C")
    if reads is not None:
        rows, after = (np.asarray(a, dtype=int) for a in reads)
        if after.size and not 0 <= after.min() <= after.max() <= nsteps:
            raise ValueError("read after a step count outside the sweep")
        order = np.argsort(after, kind="stable")
        cuts = np.searchsorted(after[order], np.arange(nsteps + 2))
        out_x = np.empty((len(rows), x.shape[1]))
        out_J = np.empty((len(rows),) + J.shape[1:])

    def read(s):
        sel = order[cuts[s]:cuts[s + 1]]
        out_x[sel] = x[rows[sel]]
        out_J[sel] = J[rows[sel]]

    for s in range(nsteps):
        if reads is not None:
            read(s)
        a = len(x) if entered is None else entered[s]
        xa, Ja = _rk4_step(rhs, x[:a], J[:a], q0 + s * h, h, s + 1,
                           seeds[:a])
        if a == len(x):   # every row in flight: no copy back
            x, J = xa, Ja
            continue
        x[:a] = xa
        J[:a] = Ja
    if reads is None:
        return x, J
    read(nsteps)
    return out_x, out_J


def _rk4_step(rhs, x, J, q, h, step, seeds):
    """One RK4 step of the states x and tangent maps J from q to q + h.

    step numbers the step within its sweep and seeds[i] is the seed point
    of row i; both only name the failure when the new state is not finite.
    """
    k1, A1 = rhs(x, q)
    k2, A2 = rhs(x + 0.5 * h * k1, q + 0.5 * h)
    k3, A3 = rhs(x + 0.5 * h * k2, q + 0.5 * h)
    k4, A4 = rhs(x + h * k3, q + h)
    xn = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    if not np.isfinite(xn).all():
        i = int(np.argmin(np.isfinite(xn).all(axis=1)))
        point = ", ".join(f"{v:.6g}" for v in seeds[i])
        raise FlowError(f"non-finite state at step {step} (q = {q + h:.6g}) "
                        f"on the trajectory of seed point ({point})")
    # the same formula for J, with K1 = A1 J, K2 = A2 (J + h/2 K1),
    # K3 = A3 (J + h/2 K2), K4 = A4 (J + h K3), in the same order of
    # operations: each stage input is written into Jin, and Jn, which
    # starts as K1, takes the weighted sum and then the new J
    Jin = np.empty_like(J)
    Jn = A1 @ J
    np.multiply(Jn, 0.5 * h, out=Jin)
    Jin += J
    K = A2 @ Jin
    np.multiply(K, 0.5 * h, out=Jin)
    Jin += J
    K *= 2.0
    Jn += K
    K = A3 @ Jin
    np.multiply(K, h, out=Jin)
    Jin += J
    K *= 2.0
    Jn += K
    Jn += A4 @ Jin
    Jn *= h / 6.0
    Jn += J
    return xn, Jn
