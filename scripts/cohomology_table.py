"""Tabulates the truncated two-step complex of the space-filling torus pair.

For each frequency truncation the script assembles the complex whose
middle space is spanned by invariant-type 2-forms with trig-polynomial
coefficients, then reports the matrix sizes, the exact chain residual
|d1 d0|, the two ranks, and the resulting defect count
h1 = dim ker d1 - rank d0.  The headline fact is that h1 stays at 4 (the
constant-coefficient frame directions) as the truncation grows.  Each rank
is taken block by block over the connected components of the matrix's
nonzero pattern, here the Fourier blocks span{cos, sin}(2 pi k.x), with
the threshold of one dense SVD; the time column covers assembly, the
chain residual and both ranks.

Run:  python3 scripts/cohomology_table.py [--max-truncation 2]
"""

import argparse
import time

import numpy as np

from branelab.brane import BraneCandidate
from branelab.fields import VectorField
from branelab.forms import Distribution
from branelab.grammar import parse_form
from branelab.infdef import complex_slice
from branelab.model import CIRCLE, model_from_names


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--max-truncation", type=int, default=2)
    args = ap.parse_args()

    T4 = model_from_names([(n, CIRCLE) for n in ("x1", "y1", "x2", "y2")])
    omega = parse_form("dx1^dy2 + dy1^dx2", T4)
    F = parse_form("dx1^dx2 - dy1^dy2", T4)
    cand = BraneCandidate(
        T4, omega, F, Distribution(T4, ()),
        Distribution(T4, tuple(VectorField.basis(T4, i) for i in range(4))))

    print(f"{'T':>3} {'functions':>10} {'middle':>7} {'|d1 d0|':>10} "
          f"{'rank d0':>8} {'ker d1':>7} {'h1':>4} {'time':>8}")
    for T in range(args.max_truncation + 1):
        t0 = time.perf_counter()
        sl = complex_slice(cand, truncation=T)
        chain = float(np.abs(sl.d1 @ sl.d0).max()) if sl.d0.size else 0.0
        h1 = sl.h1
        dt = time.perf_counter() - t0
        print(f"{T:>3} {len(sl.function_keys):>10} {sl.d0.shape[0]:>7} "
              f"{chain:>10.2e} {sl.rank_d0:>8} {sl.dim_ker_d1:>7} "
              f"{h1:>4} {dt:>7.2f}s")


if __name__ == "__main__":
    main()
