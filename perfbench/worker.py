"""One benchmark pass in a fresh process.

    python3 perfbench/worker.py --workload W --seed N --mode pass|setup [--spans PATH]

Set-up is what a user pays before the first verdict: import branelab,
generate the workload's inputs from the seed, parse them into scenes,
fields and forms.  The worker then prints a READY line, so that its parent
can time set-up from outside, and in pass mode runs the workload's
operations one at a time, the way ``branelab run`` runs checks.  Each
operation is timed and its output checked; an operation that raises or
gives a wrong answer is counted as failed with its error text, and the
pass goes on.  The benchmark's own reference checks (the evaluator of the
term algebra, the rounding bound of d1 d0) run after an operation's time
is taken and are left out of wall_s.  With --spans the
pass is traced (spans.py) and its coarse spans are written to PATH.  The
last line on stdout is a JSON summary.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import math
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402  (plain text generation, no branelab import)


def _import_branelab():
    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter()
    import branelab  # noqa: F401
    from branelab import cli  # noqa: F401
    dt = time.perf_counter() - t0
    where = Path(branelab.__file__).resolve()
    if ROOT / "src" not in where.parents:
        raise ImportError(f"branelab imported from {where}, not from this checkout")
    return dt


# -- an evaluator independent of branelab, for checking its algebra -------


def _term_values(terms, pts, deriv=None):
    """Values (or the partial in coordinate `deriv`) of each term at pts."""
    import numpy as np
    cols = []
    for (powers, freqs, phase), c in terms:
        P = np.array(powers, dtype=float)
        K = np.array(freqs, dtype=float)
        arg = 2.0 * math.pi * (pts @ K)
        trig, dtrig = ((np.cos(arg), -np.sin(arg)) if phase == 0
                       else (np.sin(arg), np.cos(arg)))
        mono = np.prod(pts ** P, axis=1)
        if deriv is None:
            cols.append(c * mono * trig)
            continue
        i = deriv
        dmono = np.zeros(len(pts))
        if powers[i]:
            lower = P.copy()
            lower[i] -= 1
            dmono = powers[i] * np.prod(pts ** lower, axis=1)
        cols.append(c * (dmono * trig + mono * dtrig * 2.0 * math.pi * K[i]))
    return sum(cols) if cols else np.zeros(len(pts))


class WrongOutput(Exception):
    """An operation returned, but its result is not the correct one."""


def _close(got, want, what):
    import numpy as np
    scale = max(1.0, float(np.abs(want).max(initial=0.0)))
    err = float(np.abs(got - want).max(initial=0.0))
    if err > 1e-9 * scale:
        raise WrongOutput(f"{what}: deviates by {err:.3e} (scale {scale:.3e})")


def _form_values(form, pts):
    return {idx: _term_values(f.terms, pts) for idx, f in form.coeffs}


def _perm_sign(seq):
    sign = 1
    seq = list(seq)
    for a in range(len(seq)):
        for b in range(a + 1, len(seq)):
            if seq[a] > seq[b]:
                sign = -sign
    return sign


class ExactOps:
    """Term-algebra operations of the exact workload.

    Each operation makes its branelab calls and the print/parse round trip,
    and returns a function that compares the results with the reference
    evaluator above; the caller times the first part only.
    """

    def __init__(self, inputs, seed, bl):
        import numpy as np
        self.bl = bl
        coords = tuple(tuple(c) for c in inputs["model"])
        self.model = bl.model.ManifoldModel(coords)
        self.fields = [bl.grammar.parse_field(t, self.model)
                       for t in inputs["fields"]]
        self.forms = [bl.grammar.parse_form(t, self.model)
                      for t in inputs["forms"]]
        rng = np.random.default_rng(seed)
        pts = rng.uniform(-1.0, 1.0, size=(8, self.model.dim))
        for i in self.model.circle_indices:
            pts[:, i] = (pts[:, i] + 1.0) / 2.0
        self.pts = pts

    def _round_trip_field(self, f):
        g = self.bl.grammar
        back = g.parse_field(g.field_to_text(f), self.model)
        if back != f:
            raise WrongOutput("parse(print(f)) differs from f")

    def _round_trip_form(self, a):
        g = self.bl.grammar
        back = g.parse_form(g.form_to_text(a), self.model)
        if back != a:
            raise WrongOutput("parse(print(form)) differs from the form")

    def mul(self, a, b):
        fa, fb = self.fields[a], self.fields[b]
        h = self.bl.fields.field_mul(fa, fb)
        self._round_trip_field(h)
        return lambda: _close(
            _term_values(h.terms, self.pts),
            _term_values(fa.terms, self.pts) * _term_values(fb.terms, self.pts),
            f"field {a} * field {b}")

    def partial(self, a):
        f = self.fields[a]
        ds = []
        for i in range(self.model.dim):
            ds.append(self.bl.fields.partial(f, i))
            self._round_trip_field(ds[-1])

        def verify():
            for i, d in enumerate(ds):
                _close(_term_values(d.terms, self.pts),
                       _term_values(f.terms, self.pts, deriv=i),
                       f"partial {i} of field {a}")
        return verify

    def ext_d(self, a):
        form = self.forms[a]
        d = self.bl.forms.ext_d(form)
        self._round_trip_form(d)

        def verify():
            got = _form_values(d, self.pts)
            zero = 0.0 * self.pts[:, 0]
            for K in itertools.combinations(range(self.model.dim),
                                            form.degree + 1):
                want = zero
                for m, j in enumerate(K):
                    rest = K[:m] + K[m + 1:]
                    want = want + (-1) ** m * _term_values(
                        form.coeff(rest).terms, self.pts, deriv=j)
                _close(got.get(K, zero), want, f"d(form {a}) at {K}")
        return verify

    def wedge(self, a, b):
        fa, fb = self.forms[a], self.forms[b]
        w = self.bl.forms.wedge(fa, fb)
        self._round_trip_form(w)

        def verify():
            got = _form_values(w, self.pts)
            va, vb = _form_values(fa, self.pts), _form_values(fb, self.pts)
            zero = 0.0 * self.pts[:, 0]
            for K in itertools.combinations(range(self.model.dim),
                                            fa.degree + fb.degree):
                want = zero
                for I in itertools.combinations(K, fa.degree):
                    J = tuple(k for k in K if k not in I)
                    if I in va and J in vb:
                        want = want + _perm_sign(I + J) * va[I] * vb[J]
                _close(got.get(K, zero), want, f"form {a} ^ form {b} at {K}")
        return verify


def _versions() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


# -- the pass ------------------------------------------------------------


def _check_op(op, scenes, results, bl, steps=None):
    """Run one scene check through the CLI runner and gate its outcome;
    steps plays the part of ``branelab run --steps``."""
    name, scene = scenes[op["scene"]]
    spec = scene.checks[op["check"]]
    cfg = bl.cli._config_from(scene, argparse.Namespace(
        seed=None, steps=steps, q_grid=None, tol=None))
    rec = bl.cli._execute(scene, spec, cfg)
    results.setdefault(op["scene"], (scene, cfg, []))[2].append(rec)
    label = f"{name}: {rec.name}"
    if op["gate"] == "symplectic":
        r = rec.residuals.get("symplectic")
        if r is None or not r <= workloads.SYMPLECTIC_TOL:
            err = rec.details.get("error", f"symplectic residual {r}")
            raise WrongOutput(f"{label}: {err}")
        return
    want = workloads.expected_verdict(name, op["check"],
                                      spec.opt("expect", "pass"))
    if rec.passed != want:
        why = rec.details.get("error") or ", ".join(
            k for k, v in rec.conditions.items() if not v) or "verdict"
        raise WrongOutput(f"{label}: expected "
                          f"{'pass' if want else 'fail'}, got "
                          f"{'pass' if rec.passed else 'fail'} ({why})")


def _complex_op(op, scenes, bl):
    """Assemble the truncated complex of a scene's candidate and take h1
    and |d1 d0|, the work of the `cohomology` check; return a function
    that gates the results.  |d1 d0| is held to a rounding bound of the
    product, n * eps * max_i sum_k |d1_ik| * max |d0| with n the inner
    dimension (at least the check's own 1e-10), not to an absolute 1e-10.
    The bound is taken in row blocks, so that it adds no memory peak of
    its own to peak_rss_mb."""
    import numpy as np
    name, scene = scenes[op["scene"]]
    cs = bl.infdef.complex_slice(scene.lookup("candidates", "c"),
                                 op["truncation"])
    resid, h1 = cs.d1_d0_residual(), cs.h1   # in the check's order

    def verify():
        label = f"{name}: complex at truncation {op['truncation']}"
        if h1 != op["h1"]:
            raise WrongOutput(f"{label}: h1 {h1}, expected {op['h1']}")
        bound = 1e-10
        if cs.d0.size and cs.d1.size:
            row_sum = max(float(np.abs(cs.d1[r:r + 256]).sum(axis=1).max())
                          for r in range(0, cs.d1.shape[0], 256))
            d0_max = max(float(cs.d0.max()), -float(cs.d0.min()))
            bound = max(bound, cs.d1.shape[1] * np.finfo(float).eps
                        * row_sum * d0_max)
        if not resid <= bound:
            raise WrongOutput(f"{label}: |d1 d0| {resid:.3e} above the "
                              f"rounding bound {bound:.3e}")
    return verify


def _emit_reports(results, bl):
    """Render each scene's report the way ``branelab run`` prints it."""
    for scene, cfg, recs in results.values():
        tol = cfg.tol
        report = bl.report.Report(scene.name, cfg.plan.seed, {
            "exact_zero": tol.exact_zero, "sampled": tol.sampled,
            "subspace": tol.subspace, "svd_rank_rel": tol.svd_rank_rel,
            "flow_step": cfg.flow.step, "q_grid": cfg.grid}, recs)
        report.to_json()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("pass", "setup"), default="pass")
    ap.add_argument("--spans", type=Path, default=None,
                    help="trace the pass and write its coarse spans here "
                         "as JSON lines")
    args = ap.parse_args(argv)

    import_s = _import_branelab()
    import branelab as bl

    tracer = None
    scope = lambda name: contextlib.nullcontext()  # noqa: E731
    if args.spans is not None:
        import spans as tracing
        tracer = tracing.Tracer().install()
        scope = tracer.block

    t0 = time.perf_counter()
    inputs = workloads.generate(args.workload, args.seed)
    gen_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    scenes = [(name, bl.scene.parse_scene(text))
              for name, text in inputs["scenes"]]
    exact = ExactOps(inputs, args.seed, bl) if "fields" in inputs else None
    parse_s = time.perf_counter() - t0
    print("READY", flush=True)

    out = {"import_s": import_s, "gen_s": gen_s, "parse_s": parse_s,
           "versions": _versions()}
    if args.mode == "setup":
        print(json.dumps(out), flush=True)
        return 0

    op_times, failures = [], []
    results = {}
    verify_s = 0.0
    t_start = time.perf_counter()
    for i, op in enumerate(inputs["ops"]):
        if tracer is not None:
            tracer.op_id = i
        t0 = time.perf_counter()
        t1 = None
        try:
            if op["op"] == "check":
                with scope("cli.run_scene"):
                    _check_op(op, scenes, results, bl, inputs.get("steps"))
            elif op["op"] == "complex":
                with scope("cli.run_scene"):
                    verify = _complex_op(op, scenes, bl)
                t1 = time.perf_counter()
                verify()
            else:
                args_ = [op[k] for k in ("a", "b") if k in op]
                verify = getattr(exact, op["op"])(*args_)
                t1 = time.perf_counter()
                verify()
        except Exception as e:  # noqa: BLE001 - a failed op is a result
            failures.append({"op": i, "error": f"{type(e).__name__}: {e}",
                             "where": traceback.format_exc(limit=-1).strip()})
        # drop the operation's results before the next one starts, so that
        # they do not add to its memory peak
        verify = None
        t2 = time.perf_counter()
        if t1 is not None:
            verify_s += t2 - t1
        op_times.append((t1 or t2) - t0)
    if tracer is not None:
        tracer.op_id = -1
    with scope("cli.run_scene"):
        _emit_reports(results, bl)
    wall_s = time.perf_counter() - t_start - verify_s

    out.update(wall_s=wall_s, op_times=op_times, failures=failures,
               peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    if tracer is not None:
        tracer.uninstall()
        layers = tracing.layer_metrics(tracer)
        layers["cli.import_s"] = import_s
        out["layers"] = layers
        with open(args.spans, "w", encoding="utf-8") as fh:
            for span_id, name, start, end, parent, op in tracer.spans:
                fh.write(json.dumps({"id": span_id, "name": name,
                                     "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
