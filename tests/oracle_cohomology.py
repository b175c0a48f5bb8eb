"""Independent exact-rank oracle for the two-step deformation complex.

Works one Fourier frequency at a time.  For a frequency vector k the
function space is span{cos(2 pi k.x), sin(2 pi k.x)}; every operator in the
complex maps this block to itself, so the total cohomology is the sum of
small per-block contributions.  Derivatives are tracked in units of 2 pi
(d/dx_i cos -> -k_i sin), which scales matrix entries by positive constants
and leaves ranks unchanged.  All arithmetic is on Python integers and the
ranks are taken exactly over the rationals with sympy, so the result is a
whole number with no tolerance anywhere.

The block calculus below is deliberately self-contained: it does not import
anything from the package under test.
"""

import functools
import itertools
from fractions import Fraction

import sympy

DIM = 4

# split constant pair on (x1, y1, x2, y2): omega pairs (x1,y2),(y1,x2);
# the transverse 2-form pairs (x1,x2) and -(y1,y2)
OMEGA = {(0, 3): 1, (1, 2): 1}
F = {(0, 2): 1, (1, 3): -1}

# invariant-type frame over index pairs a<b, integer coordinates
PAIRS = [(a, b) for a in range(DIM) for b in range(a + 1, DIM)]
FRAME = [
    {(0, 1): 1},
    {(2, 3): 1},
    {(0, 2): 1, (1, 3): 1},
    {(0, 3): -1, (1, 2): 1},
]
TRIPLES = [(a, b, c) for a in range(DIM)
           for b in range(a + 1, DIM) for c in range(b + 1, DIM)]


def gram(two_form):
    W = [[0] * DIM for _ in range(DIM)]
    for (a, b), v in two_form.items():
        W[a][b] = v
        W[b][a] = -v
    return W


def invert_integer_matrix(W):
    M = sympy.Matrix(W)
    inv = M.inv()
    out = [[Fraction(int(inv[i, j].p), int(inv[i, j].q))
            for j in range(DIM)] for i in range(DIM)]
    return out


W_GRAM = gram(OMEGA)
W_INV_T = invert_integer_matrix([[W_GRAM[j][i] for j in range(DIM)]
                                 for i in range(DIM)])
F_GRAM = gram(F)


class Block:
    """Per-frequency calculus on coefficient vectors over [cos, sin]."""

    def __init__(self, k):
        self.k = tuple(k)
        self.nph = 1 if not any(k) else 2

    def zero(self):
        return [Fraction(0)] * self.nph

    def deriv(self, i, vec):
        """d/dx_i in 2 pi units: cos -> -k_i sin, sin -> k_i cos."""
        if self.nph == 1:
            return self.zero()
        a, b = vec
        ki = self.k[i]
        return [b * ki, -a * ki]

    def d_scalar(self, vec):
        return {(i,): self.deriv(i, vec) for i in range(DIM)}

    def add(self, u, v):
        return [x + y for x, y in zip(u, v)]

    def scale(self, c, v):
        return [c * x for x in v]

    def d0(self, vec):
        """Lie derivative of F along the omega-dual of the differential,
        equal (F closed) to d of the F-contraction of that dual field."""
        df = self.d_scalar(vec)
        X = []
        for i in range(DIM):
            acc = self.zero()
            for j in range(DIM):
                c = W_INV_T[i][j]
                if c:
                    acc = self.add(acc, self.scale(c, df[(j,)]))
            X.append(acc)
        # 1-form iota_X F: component j = sum_i X_i F[i][j]
        alpha = {}
        for j in range(DIM):
            acc = self.zero()
            for i in range(DIM):
                if F_GRAM[i][j]:
                    acc = self.add(acc, self.scale(F_GRAM[i][j], X[i]))
            alpha[(j,)] = acc
        # 2-form d alpha: component (i,j) = d_i alpha_j - d_j alpha_i
        out = {}
        for i, j in PAIRS:
            out[(i, j)] = self.add(self.deriv(i, alpha[(j,)]),
                                   self.scale(-1, self.deriv(j, alpha[(i,)])))
        return out

    def frame_coordinates(self, two_form):
        """Coordinates in FRAME; raises if not of invariant type."""
        c1 = two_form[(0, 1)]
        c2 = two_form[(2, 3)]
        c3 = two_form[(0, 2)]
        c4 = two_form[(1, 2)]
        if two_form[(1, 3)] != c3 or two_form[(0, 3)] != self.scale(-1, c4):
            raise AssertionError(f"block {self.k}: image leaves the "
                                 "invariant-type span")
        return [c1, c2, c3, c4]

    def d1_of_frame_fn(self, frame_idx, vec):
        """d(phi * B_a) for constant B_a: the wedge d phi ^ B_a."""
        B = FRAME[frame_idx]
        dphi = self.d_scalar(vec)
        out = {t: self.zero() for t in TRIPLES}
        for i, j, l in TRIPLES:
            acc = self.zero()
            for drop, sign in (((i), 1), ((j), -1), ((l), 1)):
                rest = tuple(x for x in (i, j, l) if x != drop)
                if rest in B:
                    acc = self.add(acc, self.scale(sign * B[rest],
                                                   dphi[(drop,)]))
            out[(i, j, l)] = acc
        return out

    def matrices(self):
        nph = self.nph
        phases = [[Fraction(1), Fraction(0)][:nph],
                  [Fraction(0), Fraction(1)][:nph]][:nph]
        mid = 4 * nph
        d0 = sympy.zeros(mid, nph)
        for col, vec in enumerate(phases):
            coords = self.frame_coordinates(self.d0(vec))
            for a in range(4):
                for ph in range(nph):
                    d0[a * nph + ph, col] = sympy.Rational(coords[a][ph])
        d1 = sympy.zeros(4 * nph, mid)
        for a in range(4):
            for colp, vec in enumerate(phases):
                col = a * nph + colp
                img = self.d1_of_frame_fn(a, vec)
                for t_idx, t in enumerate(TRIPLES):
                    for ph in range(nph):
                        d1[t_idx * nph + ph, col] = sympy.Rational(img[t][ph])
        return d0, d1


def canonical_frequencies(truncation, dim=DIM):
    out = []
    for vec in itertools.product(range(-truncation, truncation + 1),
                                 repeat=dim):
        if not any(vec):
            out.append(vec)
            continue
        first = next(v for v in vec if v)
        if first > 0:
            out.append(vec)
    return out


def oracle_summary(truncation):
    """(dim ker d1, rank d0, h1) summed over frequency blocks, all exact."""
    ker1 = 0
    rank0 = 0
    for k in canonical_frequencies(truncation):
        blk = Block(k)
        d0, d1 = blk.matrices()
        r0 = d0.rank()
        r1 = d1.rank()
        ker1 += d1.cols - r1
        rank0 += r0
    return ker1, rank0, ker1 - rank0


# -- codimension one: the candidate of infdef_torus on T^5 = T^4 x S^1 ----
#
# Coordinates (x1, y1, x2, y2, q).  omega and F are the pair above on the
# first four; the kernel frame is d/dq and the transverse frame the four
# coordinate fields of T^4, on which I = omega^-1 F.  The middle space is
# one speed function rho (the pair's 1-form rho dq) and all ten elementary
# 2-forms B.  d0 is f -> (d_q f, L_{X_f} F) with omega(X_f, .) = d f on the
# transverse frame.  d1 stacks the conditions of the direct first-order
# check as rows: dB = 0; quad_iv, B(I v, I w) = B(v, w) on the transverse
# frame; and mixed_iii, B(d_q, v) + alpha(I v) = 0 with
# alpha = i_{d_q} d(rho dq) = -sum_i d_i rho dx_i.  (The conditions on dr
# and on B along the kernel need two kernel fields, so a rank-one kernel
# has no rows for them.)  Every derivative is in 2 pi units, which scales
# rho by 2 pi and each map's rows and columns by powers of 2 pi, so the
# ranks are unchanged.

DIM5 = 5
Q = 4
PAIRS5 = list(itertools.combinations(range(DIM5), 2))
TRIPLES5 = list(itertools.combinations(range(DIM5), 3))
# I = omega^-1 F on T^4, extended by 0 along q: I[i][j] is the d/dx_i
# component of I d/dx_j
I_N = [[sum(W_INV_T[k][i] * F_GRAM[k][j] for k in range(DIM))
        if i < DIM and j < DIM else Fraction(0) for j in range(DIM5)]
       for i in range(DIM5)]


class Codim1Block(Block):
    """The per-frequency maps of the codimension-one complex."""

    def two_form(self, B, u, v):
        """B(u, v) for integer vectors u, v."""
        acc = self.zero()
        for (i, j), vec in B.items():
            c = u[i] * v[j] - u[j] * v[i]
            if c:
                acc = self.add(acc, self.scale(c, vec))
        return acc

    def d0(self, vec):
        """(rho, B) of f: rho = d_q f and B = d(i_{X_f} F) = L_{X_f} F."""
        df = [self.deriv(i, vec) for i in range(DIM5)]
        X = [self.zero() for _ in range(DIM)]
        for i in range(DIM):
            for j in range(DIM):
                if W_INV_T[i][j]:
                    X[i] = self.add(X[i], self.scale(W_INV_T[i][j], df[j]))
        alpha = [self.zero() for _ in range(DIM5)]
        for j in range(DIM):
            for i in range(DIM):
                if F_GRAM[i][j]:
                    alpha[j] = self.add(alpha[j],
                                        self.scale(F_GRAM[i][j], X[i]))
        return df[Q], {
            (i, j): self.add(self.deriv(i, alpha[j]),
                             self.scale(-1, self.deriv(j, alpha[i])))
            for i, j in PAIRS5}

    def d1(self, rho, B):
        """The rows dB, quad_iv and mixed_iii of (rho, B), in that order."""
        rows = []
        for i, j, l in TRIPLES5:
            acc = self.deriv(i, B[(j, l)])
            acc = self.add(acc, self.scale(-1, self.deriv(j, B[(i, l)])))
            rows.append(self.add(acc, self.deriv(l, B[(i, j)])))
        unit = [[int(i == j) for i in range(DIM5)] for j in range(DIM5)]
        image = [[I_N[i][j] for i in range(DIM5)] for j in range(DIM5)]
        for a, b in itertools.combinations(range(DIM), 2):
            rows.append(self.add(self.two_form(B, image[a], image[b]),
                                 self.scale(-1, self.two_form(
                                     B, unit[a], unit[b]))))
        for v in range(DIM):
            acc = self.two_form(B, unit[Q], unit[v])
            for i in range(DIM):
                if image[v][i]:
                    acc = self.add(acc, self.scale(-image[v][i],
                                                   self.deriv(i, rho)))
            rows.append(acc)
        return rows

    def matrices(self):
        nph = self.nph
        phases = [[Fraction(int(p == q)) for q in range(nph)]
                  for p in range(nph)]
        middle = [(None, ph) for ph in range(nph)] + [
            (pair, ph) for pair in PAIRS5 for ph in range(nph)]
        d0 = sympy.zeros(len(middle), nph)
        for col, vec in enumerate(phases):
            rho, B = self.d0(vec)
            for row, (pair, ph) in enumerate(middle):
                d0[row, col] = sympy.Rational(
                    (rho if pair is None else B[pair])[ph])
        d1 = sympy.zeros((len(TRIPLES5) + len(PAIRS) + DIM) * nph, len(middle))
        for col, (pair, ph) in enumerate(middle):
            rho = phases[ph] if pair is None else self.zero()
            B = {p: phases[ph] if p == pair else self.zero() for p in PAIRS5}
            for r, val in enumerate(self.d1(rho, B)):
                for ph2 in range(nph):
                    d1[r * nph + ph2, col] = sympy.Rational(val[ph2])
        return d0, d1


@functools.lru_cache(maxsize=None)
def codim1_oracle_summary(truncation):
    """(dim ker d1, rank d0, h1, chain) summed over frequency blocks, all
    exact; chain is True when d1 d0 = 0 in every block."""
    ker1 = rank0 = 0
    chain = True
    for k in canonical_frequencies(truncation, DIM5):
        d0, d1 = Codim1Block(k).matrices()
        ker1 += d1.cols - d1.rank()
        rank0 += d0.rank()
        chain = chain and (d1 * d0).is_zero_matrix
    return ker1, rank0, ker1 - rank0, chain
