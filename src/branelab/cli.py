"""Batch front end: run scene checks, list bundled scenes, and emit
first-order deformation verdicts.

Exit status is 0 exactly when every executed check record passes.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path

from .brane import RankDropError
from .forms import DegenerateFormError
from .infdef import (AverageObstruction, CircleTermsError, Type11Violation,
                     check_infdef, complex_slice, infdef_general_check)
from .integrate import FlowError
from .model import DEFAULT_TOL, FlowOptions, SamplePlan, Tolerances
from .nearby import BraneObstruction
from .report import ERROR, CheckResult, Report
from .scene import CHECKS, Scene, SceneError, load_scene, parse_scene


@dataclass
class RunConfig:
    plan: SamplePlan
    tol: Tolerances
    flow: FlowOptions
    # echoed as the report's q_grid (--q-grid); no check reads it
    grid: int = 64


def _config_from(scene: Scene, args) -> RunConfig:
    opts = scene.options

    def pick(flag, key, conv, default):
        if flag is not None:
            return conv(flag)
        if key in opts:
            return conv(opts[key])
        return default

    seed = pick(args.seed, "seed", int, 0)
    steps = pick(args.steps, "steps", int, 1024)
    if steps < 1:
        raise ValueError(f"steps must be at least 1, not {steps}")
    grid = pick(args.q_grid, "q_grid", int, 64)
    tol = DEFAULT_TOL
    t = pick(args.tol, "tol", float, None)
    if t is not None:
        tol = replace(tol, sampled=t)
    return RunConfig(plan=SamplePlan(seed=seed), tol=tol,
                     flow=FlowOptions(step=1.0 / steps), grid=grid)


_CHECK_ERRORS = (SceneError, KeyError, ValueError, DegenerateFormError,
                 RankDropError, BraneObstruction, AverageObstruction,
                 Type11Violation, CircleTermsError, FlowError)


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
        rec = CheckResult(label, ERROR, False)
        rec.details["error"] = f"{type(e).__name__}: {e}"
    rec.name = label
    expect = spec.opt("expect", "pass")
    if expect == "fail":
        rec.passed = not rec.passed
        rec.details["expected"] = "fail"
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
        Path(args.out).write_text(payload + "\n", encoding="utf-8")
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
    names = args.pair or sorted(scene.pairs)
    verdict = {"scene": scene.name, "pairs": {}}
    ok = True
    for name in names:
        pair = scene.lookup("pairs", name)
        cand_name = scene.refs[("pairs", name)][0]
        c = scene.lookup("candidates", cand_name)
        direct = check_infdef(pair, c, plan=cfg.plan, tol=cfg.tol)
        general = infdef_general_check(pair, c, plan=cfg.plan, tol=cfg.tol)
        agree = direct.passed == general.passed
        verdict["pairs"][name] = {
            "candidate": cand_name,
            "check_infdef": direct.to_record(),
            "general": general.to_record(),
            "agree": agree,
        }
        ok = ok and direct.passed and agree
    if args.truncation is not None:
        cand_name = args.candidate or (sorted(scene.candidates)[0]
                                       if scene.candidates else None)
        if cand_name is None:
            print("error: no candidate available for complex_slice",
                  file=sys.stderr)
            return 2
        cs = complex_slice(scene.lookup("candidates", cand_name),
                           args.truncation)
        resid = cs.d1_d0_residual()
        bound = cs.d1_d0_bound()
        verdict["complex_slice"] = {
            "candidate": cand_name, "truncation": args.truncation,
            "dim_ker_d1": cs.dim_ker_d1, "rank_d0": cs.rank_d0,
            "h1": cs.h1, "d1_d0_residual": resid, "d1_d0_bound": bound,
        }
        ok = ok and resid <= bound
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
    run.add_argument("--seed", type=int, default=None)
    run.add_argument("--tol", type=float, default=None,
                     help="override the pointwise check tolerance")
    run.add_argument("--steps", type=int, default=None,
                     help="flow steps per unit time")
    run.add_argument("--q-grid", dest="q_grid", type=int, default=None,
                     help="echoed as the report's q_grid; no check reads it")
    run.add_argument("--out", default=None)
    run.add_argument("--format", choices=("json", "csv", "text"),
                     default="json")
    run.set_defaults(func=cmd_run)

    ex = sub.add_parser("examples", help="list bundled scenes")
    ex.set_defaults(func=cmd_examples)

    inf = sub.add_parser(
        "infdef", help="first-order deformation verdicts for scene pairs")
    inf.add_argument("scene")
    inf.add_argument("--pair", action="append", default=None,
                     help="pair name (repeatable; default: all)")
    inf.add_argument("--candidate", default=None,
                     help="candidate for the cochain complex")
    inf.add_argument("--truncation", type=int, default=None,
                     help="also assemble the truncated complex")
    inf.add_argument("--seed", type=int, default=None)
    inf.add_argument("--tol", type=float, default=None)
    # no flow runs here; the scene's own options still reach _config_from
    inf.set_defaults(func=cmd_infdef, steps=None, q_grid=None)
    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
