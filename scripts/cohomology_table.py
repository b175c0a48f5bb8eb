"""Tabulates the truncated two-step complex of the space-filling torus pair.

The candidate is the one of the bundled `cohomology_t4` scene.  For each
frequency truncation the script assembles the complex whose middle space
is spanned by invariant-type 2-forms with trig-polynomial coefficients,
then reports the matrix sizes, the chain residual |d1 d0|, the two ranks,
and the resulting defect count h1 = dim ker d1 - rank d0.  The headline
fact is that h1 stays at 4 (the constant-coefficient frame directions) as
the truncation grows.  The complex is held as its Fourier blocks
span{cos, sin}(2 pi k.x), one per frequency; the chain residual and both
ranks are taken on the blocks, each rank with the threshold of one dense
SVD, and no dense matrix is built.  The time column covers assembly, the
chain residual and both ranks; the first row's also covers deriving the
candidate's symbols, which every later truncation reuses.

Run:  python3 scripts/cohomology_table.py [--max-truncation 2]
"""

import argparse
import time

from branelab.cli import resolve_scene
from branelab.infdef import complex_slice


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--max-truncation", type=int, default=2)
    args = ap.parse_args()

    cand = resolve_scene("cohomology_t4").lookup("candidates", "c")

    print(f"{'T':>3} {'functions':>10} {'middle':>7} {'|d1 d0|':>10} "
          f"{'rank d0':>8} {'ker d1':>7} {'h1':>4} {'time':>8}")
    for T in range(args.max_truncation + 1):
        t0 = time.perf_counter()
        sl = complex_slice(cand, truncation=T)
        chain = sl.d1_d0_residual()
        h1 = sl.h1
        dt = time.perf_counter() - t0
        print(f"{T:>3} {len(sl.function_keys):>10} {sl.middle_dim:>7} "
              f"{chain:>10.2e} {sl.rank_d0:>8} {sl.dim_ker_d1:>7} "
              f"{h1:>4} {dt:>7.2f}s")


if __name__ == "__main__":
    main()
