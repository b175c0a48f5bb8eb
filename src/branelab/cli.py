"""Batch front end: run scene checks, list bundled scenes, and emit
first-order deformation verdicts.

Exit status is 0 exactly when every executed check record passes, 1 when
one fails, and 2 after an `error:` line for a bad flag, scene or `--out`.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .brane import RankDropError
from .forms import DegenerateFormError
from .infdef import AverageObstruction, CircleTermsError, Type11Violation
from .integrate import FlowError
from .model import (DEFAULT_TOL, RUN_SETTINGS, FlowOptions, SamplePlan,
                    Tolerances, truncation)
from .nearby import BraneObstruction
from .report import ERROR, CheckResult, Report
from .scene import (CHECKS, CheckSpec, Scene, SceneError, load_scene,
                    parse_scene)


@dataclass
class RunConfig:
    plan: SamplePlan
    tol: Tolerances
    flow: FlowOptions
    # echoed as the report's q_grid; no check reads it, and nothing sets it
    grid: int = 64


def _config_from(scene: Scene, args) -> RunConfig:
    def pick(key, flag, default):
        value = scene.options.get(key) if flag is None else flag
        return default if value is None else RUN_SETTINGS[key](value)

    seed = pick("seed", args.seed, 0)
    steps = pick("steps", args.steps, 1024)
    tol = Tolerances(pick("tol", args.tol, DEFAULT_TOL.sampled))
    return RunConfig(plan=SamplePlan(seed=seed), tol=tol,
                     flow=FlowOptions(step=1.0 / steps))


_CHECK_ERRORS = (SceneError, KeyError, ValueError, MemoryError,
                 DegenerateFormError, RankDropError, BraneObstruction,
                 AverageObstruction, Type11Violation, CircleTermsError,
                 FlowError)


def _execute(scene: Scene, spec, cfg: RunConfig) -> CheckResult:
    shown = list(spec.args) + [
        f"{k}={v}" for k, v in spec.opts if k != "expect"]
    label = f"{spec.kind}({', '.join(shown)})"
    t0 = time.perf_counter()
    try:
        kind = CHECKS[spec.kind]
        objects = [scene.lookup(pool, name)
                   for pool, name in zip(kind.pools, spec.args)]
        rec = kind.run(cfg, spec, *objects)
    except _CHECK_ERRORS as e:
        rec = CheckResult(label, ERROR)
        rec.details["error"] = f"{type(e).__name__}: {e}"
    rec.name = label
    if spec.opt("expect", "pass") == "fail":
        rec.details["expected"] = "fail"  # CheckResult.passed inverts
    rec.wall_time = time.perf_counter() - t0
    return rec


def run_scene(scene: Scene, cfg: RunConfig) -> Report:
    results = [_execute(scene, spec, cfg) for spec in scene.checks]
    tol = cfg.tol
    return Report(scene.name, cfg.plan.seed, {
        "exact_zero": tol.exact_zero, "sampled": tol.sampled,
        "subspace": tol.subspace, "svd_rank_rel": tol.svd_rank_rel,
        "flow_step": cfg.flow.step, "q_grid": cfg.grid,
    }, results)


# -- scene location -----------------------------------------------------


def bundled_scene_dir():
    return resources.files("branelab") / "scenes"


def resolve_scene(ref: str) -> Scene:
    p = Path(ref)
    if p.exists():
        return load_scene(p)
    candidate = bundled_scene_dir() / f"{ref}.scene"
    if candidate.is_file():
        return parse_scene(candidate.read_text(encoding="utf-8"))
    raise FileNotFoundError(f"no scene file or bundled scene named {ref!r}")


# -- subcommands --------------------------------------------------------


def _load(args) -> tuple[Scene, RunConfig] | None:
    """The scene and run settings of a command line, or None after an
    error line on stderr."""
    try:
        scene = resolve_scene(args.scene)
        return scene, _config_from(scene, args)
    except (FileNotFoundError, SceneError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return None


def cmd_run(args) -> int:
    loaded = _load(args)
    if loaded is None:
        return 2
    scene, cfg = loaded
    report = run_scene(scene, cfg)
    if args.format == "json":
        payload = report.to_json()
    elif args.format == "csv":
        payload = report.to_csv()
    else:
        payload = report.to_text()
    if args.out:
        try:
            Path(args.out).write_text(payload + "\n", encoding="utf-8")
        except OSError as e:
            print(f"error: cannot write the report to {args.out!r}: "
                  f"{e.strerror or e}", file=sys.stderr)
            return 2
    else:
        print(payload)
    return 0 if report.all_passed else 1


def cmd_examples(args) -> int:
    root = bundled_scene_dir()
    entries = sorted(root.iterdir(), key=lambda p: p.name) if root.is_dir() else []
    for entry in entries:
        if not entry.name.endswith(".scene"):
            continue
        stem = entry.name[:-len(".scene")]
        try:
            sc = parse_scene(entry.read_text(encoding="utf-8"))
            desc = sc.description or "(no description)"
        except SceneError as e:
            desc = f"INVALID: {e}"
        print(f"{stem:<20} {desc}")
    return 0


def cmd_infdef(args) -> int:
    loaded = _load(args)
    if loaded is None:
        return 2
    scene, cfg = loaded
    cand_name = args.candidate
    if cand_name is None and args.truncation is not None:
        cand_name = min(scene.candidates, default=None)
        if cand_name is None:
            print("error: no candidate available for complex_slice",
                  file=sys.stderr)
            return 2
    try:
        names = args.pair or sorted(scene.pairs)
        for name in names:
            scene.lookup("pairs", name)
        if cand_name is not None:
            scene.lookup("candidates", cand_name)
        T = None if args.truncation is None else truncation(args.truncation)
    except (KeyError, ValueError) as e:
        print(f"error: {e.args[0]}", file=sys.stderr)
        return 2
    if cand_name is not None and T is None:
        print("error: --candidate needs --truncation", file=sys.stderr)
        return 2
    verdict = {"scene": scene.name, "pairs": {}}
    ok = True
    for name in names:
        refs = (name, scene.refs[("pairs", name)][0])
        direct = _execute(scene, CheckSpec("infdef", refs), cfg)
        general = _execute(scene, CheckSpec("infdef_general", refs), cfg)
        agree = direct.passed == general.passed
        verdict["pairs"][name] = {
            "candidate": refs[1],
            "check_infdef": direct.to_record(),
            "general": general.to_record(),
            "agree": agree,
        }
        ok = ok and direct.passed and agree
    if cand_name is not None:
        rec = _execute(scene, CheckSpec("cohomology", (cand_name,),
                                        (("truncation", str(T)),)), cfg)
        entry = {"candidate": cand_name, "truncation": T}
        if rec.mode == ERROR:
            entry["error"] = rec.details["error"]
        else:
            entry.update({k: rec.details[k] for k in (
                "dim_ker_d1", "rank_d0", "h1", "d1_d0_bound")},
                d1_d0_residual=rec.residuals["d1_d0"])
        verdict["complex_slice"] = entry
        ok = ok and rec.passed
    verdict["all_passed"] = ok
    print(json.dumps(verdict, indent=2, sort_keys=True))
    return 0 if ok else 1


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="branelab",
        description="verify, build, and deform brane structures on "
                    "explicit coordinate models")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run the checks of a scene file")
    run.add_argument("scene", help="scene path or bundled scene name")
    run.add_argument("--seed", type=int, default=None,
                     help="seed of the sample plan of SAMPLED checks "
                          "(default: the scene's seed option, else 0)")
    run.add_argument("--tol", type=float, default=None,
                     help="the tolerance of SAMPLED verdicts (default "
                          "1e-8); no EXACT verdict reads it")
    run.add_argument("--steps", type=int, default=None,
                     help="flow steps per unit time")
    run.add_argument("--out", default=None,
                     help="write the report to this file instead of "
                          "stdout")
    run.add_argument("--format", choices=("json", "csv", "text"),
                     default="json")
    run.set_defaults(func=cmd_run)

    ex = sub.add_parser("examples", help="list bundled scenes")
    ex.set_defaults(func=cmd_examples)

    inf = sub.add_parser(
        "infdef", help="first-order deformation verdicts for scene pairs")
    inf.add_argument("scene", help="scene path or bundled scene name")
    inf.add_argument("--pair", action="append", default=None,
                     help="pair name (repeatable; default: all)")
    inf.add_argument("--candidate", default=None,
                     help="candidate for the cochain complex")
    inf.add_argument("--truncation", type=int, default=None,
                     help="also assemble the truncated complex")
    # its checks read no flow, plan or sampled bound; the scene's own
    # options still reach _config_from
    inf.set_defaults(func=cmd_infdef, seed=None, steps=None, tol=None)
    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
