"""The branelab benchmark.

    python3 perfbench/run.py --workload transport|cohomology|exact \
        --seed N --seconds S --trace 0|1

A closed loop with one client: each pass is a fresh process that imports
branelab, builds the workload's inputs from the seed, and runs its checks
and operations one after another, each checked for the right answer (see
worker.py and workloads.py).  --seconds decides how many passes run:
another pass starts only if it, and the set-ups still to be made, are
expected to end in time, but a run makes at least MIN_PASSES passes.
Every untraced pass gives one set-up time; extra processes that stop
after set-up make the count up to MIN_SETUPS.

With --trace 0 the last stdout line reports the end-to-end metrics:
  setup_s      median fresh-process set-up (import, generate, parse)
  wall_s       median time of one pass, set-up excluded: time to verdict
  peak_rss_mb  median over passes of the worker's peak resident memory
  pass_frac    operations with the right outcome / operations attempted
With --trace 1 traced passes alternate with untraced ones and the last line
reports the per-layer metrics of spans.py (trace.overhead_s among them:
the tracer's own bookkeeping time in a traced pass) and cli.check_p50_s
(median over operations of each one's median time over the untraced
passes).  The median traced minus median untraced wall_s is printed on a
line of its own.  Both modes print check_p50_s with its sample count.
Each traced pass writes its coarse spans as JSON lines under perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

# BLAS/OpenMP threads for the dense SVDs, pinned before numpy loads
BLAS_THREADS = 2
MIN_PASSES = 2
MIN_SETUPS = 15
# no pass starts that is expected to end, with the set-ups still to be made,
# after RUN_LIMIT seconds; a worker still running at DEADLINE is killed, so
# that a run ends within 180 s
RUN_LIMIT = 120.0
DEADLINE = 170.0

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"),
              ("pass_frac", "ratio"))


class WorkerError(RuntimeError):
    pass


def blas_threads() -> int:
    return max(1, min(BLAS_THREADS, len(os.sched_getaffinity(0))))


def child_env(threads: int) -> dict:
    env = dict(os.environ)
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        env[key] = str(threads)
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(workload, seed, mode, env, deadline, trace_to=None) -> dict:
    """Start one worker; time it from launch to READY and to exit.  Kill it
    if it is still running at `deadline` (a time.perf_counter() value)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode]
    if trace_to is not None:
        cmd += ["--spans", str(trace_to)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, text=True)
    watchdog = threading.Timer(max(0.0, deadline - t0), proc.kill)
    watchdog.start()
    ready = None
    lines = []
    try:
        for line in proc.stdout:
            if ready is None and line.strip() == "READY":
                ready = time.perf_counter() - t0
            elif line.strip():
                lines.append(line.rstrip("\n"))
        proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if ready is None or proc.returncode != 0 or not lines:
        tail = lines[-1] if lines else "(no output)"
        raise WorkerError(f"{mode} worker failed (exit {proc.returncode}): {tail}")
    result = json.loads(lines[-1])
    result["setup_s"] = ready
    return result


def machine() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"machine": platform.machine(), "cpu": cpu,
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version()}


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "branelab" / "__init__.py").is_file():
        print(f"error: no branelab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    threads = blas_threads()
    env = child_env(threads)
    n_ops = len(workloads.generate(args.workload, args.seed)["ops"])
    out_dir = HERE / "out"

    passes, setups, failures = [], [], []
    attempted = failed = 0
    t_run = time.perf_counter()
    deadline = t_run + DEADLINE
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        spans_to = None
        if traced:
            out_dir.mkdir(exist_ok=True)
            spans_to = out_dir / f"spans-{args.workload}-{args.seed}-{len(passes)}.jsonl"
        t0 = time.perf_counter()
        try:
            r = run_worker(args.workload, args.seed, "pass", env, deadline,
                           spans_to)
        except WorkerError as e:
            if not passes:
                print(f"error: {e}", file=sys.stderr)
                return 1
            # a pass that dies takes every operation it had left with it
            r = {"failures": [{"op": "all", "error": str(e)}], "crashed": True}
        r["traced"] = traced
        r["duration"] = time.perf_counter() - t0
        passes.append(r)
        attempted += n_ops
        failed += n_ops if r.get("crashed") else len(
            {f["op"] for f in r["failures"]})
        failures += r["failures"]
        if not traced and "setup_s" in r:
            setups.append(r)
        estimate = statistics.median(p["duration"] for p in passes)
        if not args.trace:
            # spread the set-ups over the run, in step with the time gone,
            # so that a slow spell of the machine does not take them all
            share = (time.perf_counter() - t_run) / args.seconds
            while len(setups) < min(MIN_SETUPS, math.ceil(MIN_SETUPS * share)):
                setups.append(run_worker(args.workload, args.seed, "setup",
                                         env, deadline))
            if setups:
                # the next pass brings one set-up of its own
                owed = max(0, MIN_SETUPS - len(setups) - 1)
                estimate += owed * 1.1 * statistics.median(
                    s["setup_s"] for s in setups)
        elapsed = time.perf_counter() - t_run
        if elapsed + estimate > RUN_LIMIT or (
                len(passes) >= MIN_PASSES and elapsed + estimate > args.seconds):
            break
    if not args.trace:
        while len(setups) < MIN_SETUPS:
            setups.append(run_worker(args.workload, args.seed, "setup", env,
                                     deadline))

    env_info = dict(machine(), blas_threads=threads, seed=args.seed,
                    workload=args.workload, **setups[0]["versions"]) \
        if setups else dict(machine(), blas_threads=threads, seed=args.seed)
    print("env " + json.dumps(env_info, sort_keys=True))
    for f in failures[:20]:
        print(f"FAILED op {f['op']}: {f['error']}")

    good = [p for p in passes if not p.get("crashed")]
    plain = [p for p in good if not p["traced"]]
    traced_passes = [p for p in good if p["traced"]]
    per_op = [statistics.median(ts) for ts in zip(*(p["op_times"] for p in plain))]
    check_p50 = statistics.median(per_op)
    print(f"{args.workload}: {len(plain)} untraced passes of {len(per_op)} "
          f"timed operations, {len(traced_passes)} traced, {len(setups)} set-ups")
    print("  pass wall_s " + " ".join(f"{p['wall_s']:.4g}" for p in plain))
    print(f"  check_p50_s {check_p50:.6g} s over {len(per_op)} operations")
    if args.trace:
        if not traced_passes:
            print("error: no traced pass completed", file=sys.stderr)
            return 1
        metrics = {}
        for name in traced_passes[0]["layers"]:
            metrics[name] = statistics.median(
                p["layers"][name] for p in traced_passes)
        metrics["cli.check_p50_s"] = check_p50
        diff = (statistics.median(p["wall_s"] for p in traced_passes)
                - statistics.median(p["wall_s"] for p in plain))
        print(f"  traced minus untraced wall_s {diff:.4g} s over "
              f"{len(traced_passes)} traced and {len(plain)} untraced passes")
        units = layer_units()
        metrics = {k: metric(v, units[k]) for k, v in sorted(metrics.items())}
    else:
        print("  set-up s    " + " ".join(f"{s['setup_s']:.4g}" for s in setups))
        values = {
            "setup_s": statistics.median(s["setup_s"] for s in setups),
            "wall_s": statistics.median(p["wall_s"] for p in plain),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
            "pass_frac": (attempted - failed) / attempted,
        }
        metrics = {k: metric(values[k], unit) for k, unit in END_TO_END}
    for k, m in metrics.items():
        print(f"  {k:<32} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def layer_units() -> dict:
    import spans
    units = {k: "s" for k in spans.SPAN_METRICS}
    units.update({k: "count" for k in spans.COUNT_METRICS})
    units.update({"cli.import_s": "s", "integrate.rk4_s": "s",
                  "integrate.us_per_point_step": "us",
                  "nearby.gate_reuse_ratio": "ratio",
                  "brane.distinct_sample_ratio": "ratio",
                  "infdef.matrix_bytes": "bytes",
                  "trace.overhead_s": "s", "cli.check_p50_s": "s"})
    return units


if __name__ == "__main__":
    sys.exit(main())
