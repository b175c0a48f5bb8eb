"""Batch front end: run scene checks, list bundled scenes, and emit
first-order deformation verdicts.

Exit status is 0 exactly when every executed check record passes.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path

from .brane import (RankDropError, check_brane, check_brane_via_J,
                    check_space_filling)
from .forms import DegenerateFormError, endo_from_pair
from .infdef import (AverageObstruction, CircleTermsError, Type11Violation,
                     build_infdef, check_infdef, complex_slice,
                     hamiltonian_generator, infdef_general_check,
                     upsilon_image_check)
from .integrate import FlowError
from .model import DEFAULT_TOL, FlowOptions, SamplePlan, Tolerances
from .nearby import (BraneObstruction, closed1f_check, flow, invariance_check,
                     mapping_torus_check, melanie_check, transport_brane)
from .report import EXACT, SAMPLED, CheckResult, Report
from .scene import Scene, SceneError, load_scene, parse_scene


@dataclass
class RunConfig:
    plan: SamplePlan
    tol: Tolerances
    flow: FlowOptions
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
    grid = pick(args.q_grid, "q_grid", int, 64)
    tol = DEFAULT_TOL
    t = pick(args.tol, "tol", float, None)
    if t is not None:
        tol = replace(tol, sampled=t)
    return RunConfig(plan=SamplePlan(seed=seed), tol=tol,
                     flow=FlowOptions(step=1.0 / steps), grid=grid)


# -- check runners ------------------------------------------------------


def _transported(scene, spec, cfg):
    g = scene.lookup("deforms", spec.args[0])
    F = scene.lookup("forms", spec.args[1])
    gate = SamplePlan(count=64, seed=cfg.plan.seed)
    return g, transport_brane(g, F, grid_q=cfg.grid, plan=gate,
                              tol=cfg.tol.sampled, opts=cfg.flow)


def _run_space_filling(scene, spec, cfg):
    return check_space_filling(scene.lookup("forms", spec.args[0]),
                               scene.lookup("forms", spec.args[1]),
                               plan=cfg.plan, tol=cfg.tol)


def _run_brane(scene, spec, cfg):
    return check_brane(scene.lookup("candidates", spec.args[0]),
                       plan=cfg.plan, tol=cfg.tol)


def _run_brane_via_J(scene, spec, cfg):
    return check_brane_via_J(scene.lookup("candidates", spec.args[0]),
                             plan=cfg.plan, tol=cfg.tol)


def _run_type11(scene, spec, cfg):
    B = scene.lookup("forms", spec.args[0])
    I = endo_from_pair(scene.lookup("forms", spec.args[1]),
                       scene.lookup("forms", spec.args[2]))
    delta = I.pullback_twoform(B) - B
    rec = CheckResult("type11", EXACT, delta.is_zero(cfg.tol.exact_zero))
    rec.conditions["pullback_fixed"] = rec.passed
    rec.residuals["pullback_delta"] = delta.max_coeff()
    return rec


def _run_closed1f(scene, spec, cfg):
    return closed1f_check(scene.lookup("deforms", spec.args[0]),
                          tol=cfg.tol.exact_zero)


def _run_invariance(scene, spec, cfg):
    g = scene.lookup("deforms", spec.args[0])
    F = scene.lookup("forms", spec.args[1])
    fr = flow(g, 0.0, 1.0, cfg.plan.points(g.N_model), cfg.flow)
    return invariance_check(F, fr, cfg.tol.sampled)


def _run_transport_kernel(scene, spec, cfg):
    _, tf = _transported(scene, spec, cfg)
    return tf.kernel_check(plan=cfg.plan, tol=cfg.tol.sampled)


def _run_transport_zero_slice(scene, spec, cfg):
    _, tf = _transported(scene, spec, cfg)
    return tf.zero_slice_check(plan=cfg.plan)


def _run_transport_fd(scene, spec, cfg):
    _, tf = _transported(scene, spec, cfg)
    tol = float(spec.opt("tol", "1e-5"))
    return tf.fd_exterior_check(tol=tol)


def _run_mapping_torus(scene, spec, cfg):
    g = scene.lookup("deforms", spec.args[0])
    F = scene.lookup("forms", spec.args[1])
    tol = float(spec.opt("tol", str(cfg.tol.sampled)))
    return mapping_torus_check(g, F, plan=cfg.plan, tol=tol, opts=cfg.flow)


def _run_melanie(scene, spec, cfg):
    return melanie_check(scene.lookup("forms", spec.args[0]),
                         scene.lookup("frames", spec.args[1]),
                         scene.lookup("frames", spec.args[2]),
                         plan=cfg.plan, tol=cfg.tol)


def _run_infdef(scene, spec, cfg):
    return check_infdef(scene.lookup("pairs", spec.args[0]),
                        scene.lookup("candidates", spec.args[1]),
                        plan=cfg.plan, tol=cfg.tol)


def _run_infdef_general(scene, spec, cfg):
    return infdef_general_check(scene.lookup("pairs", spec.args[0]),
                                scene.lookup("candidates", spec.args[1]),
                                plan=cfg.plan, tol=cfg.tol)


def _run_hamiltonian_cocycle(scene, spec, cfg):
    f = scene.lookup("fields", spec.args[0])
    c = scene.lookup("candidates", spec.args[1])
    pair = hamiltonian_generator(f, c)
    rec = check_infdef(pair, c, plan=cfg.plan, tol=cfg.tol)
    rec.details["generator"] = spec.args[0]
    return rec


def _run_upsilon_image(scene, spec, cfg):
    return upsilon_image_check(scene.lookup("forms", spec.args[0]),
                               scene.lookup("forms", spec.args[1]),
                               scene.lookup("forms", spec.args[2]),
                               tol=cfg.tol)


def _run_build_infdef(scene, spec, cfg):
    rho = scene.lookup("fields", spec.args[0])
    B0 = scene.lookup("forms", spec.args[1])
    c = scene.lookup("candidates", spec.args[2])
    expect = spec.opt("expect", "pass")
    try:
        pair = build_infdef(rho, B0, c, tol=cfg.tol)
    except (AverageObstruction, Type11Violation) as e:
        rec = CheckResult("build_infdef", EXACT, expect == "obstruction")
        rec.conditions["raised_obstruction"] = True
        rec.details["error"] = str(e)
        if getattr(e, "residual", None) is not None:
            rec.residuals["average_defect"] = float(e.residual)
        return rec
    rec = check_infdef(pair, c, plan=cfg.plan, tol=cfg.tol)
    if expect == "obstruction":
        rec.conditions["raised_obstruction"] = False
        rec.passed = False
        rec.details["error"] = "expected an obstruction but the build succeeded"
    return rec


def _run_cohomology(scene, spec, cfg):
    c = scene.lookup("candidates", spec.args[0])
    truncation = int(spec.opt("truncation", "1"))
    cs = complex_slice(c, truncation)
    rec = CheckResult("cohomology", SAMPLED, False)
    resid = cs.d1_d0_residual()
    bound = cs.d1_d0_bound()
    rec.residuals["d1_d0"] = resid
    rec.conditions["d1_d0_zero"] = bool(resid <= bound)
    expected = spec.opt("h1")
    rec.details.update(truncation=truncation, dim_ker_d1=cs.dim_ker_d1,
                       rank_d0=cs.rank_d0, h1=cs.h1, shape=cs.shape,
                       d1_d0_bound=bound, blocks=cs.block_summary())
    if expected is not None:
        rec.conditions["h1_matches"] = cs.h1 == int(expected)
    rec.passed = all(rec.conditions.values())
    return rec


_RUNNERS = {
    "space_filling": _run_space_filling,
    "brane": _run_brane,
    "brane_via_J": _run_brane_via_J,
    "type11": _run_type11,
    "closed1f": _run_closed1f,
    "invariance": _run_invariance,
    "transport_kernel": _run_transport_kernel,
    "transport_zero_slice": _run_transport_zero_slice,
    "transport_fd": _run_transport_fd,
    "mapping_torus": _run_mapping_torus,
    "melanie": _run_melanie,
    "infdef": _run_infdef,
    "infdef_general": _run_infdef_general,
    "hamiltonian_cocycle": _run_hamiltonian_cocycle,
    "upsilon_image": _run_upsilon_image,
    "build_infdef": _run_build_infdef,
    "cohomology": _run_cohomology,
}

_CHECK_ERRORS = (SceneError, KeyError, ValueError, DegenerateFormError,
                 RankDropError, BraneObstruction, AverageObstruction,
                 Type11Violation, CircleTermsError, FlowError)


def _execute(scene: Scene, spec, cfg: RunConfig) -> CheckResult:
    shown = list(spec.args) + [
        f"{k}={v}" for k, v in spec.opts if k != "expect"]
    label = f"{spec.kind}({', '.join(shown)})"
    t0 = time.perf_counter()
    try:
        rec = _RUNNERS[spec.kind](scene, spec, cfg)
    except _CHECK_ERRORS as e:
        rec = CheckResult(label, EXACT, False)
        rec.details["error"] = f"{type(e).__name__}: {e}"
    rec.name = label
    expect = spec.opt("expect", "pass")
    if expect == "fail":
        rec.passed = not rec.passed
        rec.details["expected"] = "fail"
    rec.wall_time = time.perf_counter() - t0
    return rec


def run_scene(scene: Scene, cfg: RunConfig, parallel: bool = False) -> Report:
    if parallel and len(scene.checks) > 1:
        with ThreadPoolExecutor() as pool:
            results = list(pool.map(
                lambda spec: _execute(scene, spec, cfg), scene.checks))
    else:
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


def cmd_run(args) -> int:
    try:
        scene = resolve_scene(args.scene)
    except (FileNotFoundError, SceneError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    cfg = _config_from(scene, args)
    report = run_scene(scene, cfg, parallel=args.parallel)
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
    try:
        scene = resolve_scene(args.scene)
    except (FileNotFoundError, SceneError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    cfg = _config_from(scene, args)
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
                     help="transport interpolation nodes per circle")
    run.add_argument("--out", default=None)
    run.add_argument("--format", choices=("json", "csv", "text"),
                     default="json")
    run.add_argument("--parallel", action="store_true")
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
    inf.add_argument("--steps", type=int, default=None)
    inf.add_argument("--q-grid", dest="q_grid", type=int, default=None)
    inf.set_defaults(func=cmd_infdef)
    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
