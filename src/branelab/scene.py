"""Line-oriented scene files: declarations of coordinate models, named
fields/forms/frames, brane candidates, graph deformations, deformation
pairs, and an ordered list of checks to run.

The format round-trips: parsing the canonical serialization of a scene
yields an equal scene.  Expressions use the same text grammar as the rest
of the package, so coefficients survive the trip exactly.

`CHECKS` is the one table of check kinds.  Each entry names the pool of
every positional argument, the options the kind takes with a parser for
each, and the runner that turns the looked-up objects into a record.
`parse_scene` holds every `check` line to its entry, and every `option`
line to the run settings, so a malformed line is a `SceneError` at that
line, never a failure of the run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from .brane import (BraneCandidate, check_brane, check_brane_via_J,
                    check_space_filling)
from .forms import Distribution, endo_from_pair
from .grammar import (ParseError, field_to_text, form_to_text, parse_field,
                      parse_form, parse_vector, vector_to_text)
from .infdef import (AverageObstruction, InfDefPair, Type11Violation,
                     build_infdef, check_infdef, complex_slice,
                     hamiltonian_generator, infdef_general_check,
                     upsilon_image_check)
from .model import (EXACT_ZERO, RUN_SETTINGS, ManifoldModel, SamplePlan,
                    tolerance, truncation)
from .nearby import (closed1f_check, flow, graph_deformation,
                     invariance_check, mapping_torus_check, melanie_check,
                     transport_brane)
from .report import EXACT, SAMPLED, CheckResult


class SceneError(ValueError):
    """Malformed scene file; carries the 1-based source line."""

    def __init__(self, line_no: int, msg: str):
        super().__init__(f"line {line_no}: {msg}")
        self.line_no = line_no


@dataclass(frozen=True)
class CheckSpec:
    kind: str
    args: tuple[str, ...]
    opts: tuple[tuple[str, str], ...] = ()

    def opt(self, key: str, default: str | None = None) -> str | None:
        for k, v in self.opts:
            if k == key:
                return v
        return default


@dataclass
class Scene:
    name: str
    description: str = ""
    models: dict = field(default_factory=dict)
    fields: dict = field(default_factory=dict)
    forms: dict = field(default_factory=dict)
    vectors: dict = field(default_factory=dict)
    frames: dict = field(default_factory=dict)
    candidates: dict = field(default_factory=dict)
    deforms: dict = field(default_factory=dict)
    pairs: dict = field(default_factory=dict)
    options: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)
    decl_order: list = field(default_factory=list)
    refs: dict = field(default_factory=dict)

    _POOLS = ("models", "fields", "forms", "vectors", "frames",
              "candidates", "deforms", "pairs")

    def register(self, kind: str, name: str, obj, refs=None) -> None:
        pool = getattr(self, kind)
        if any(name in getattr(self, p) for p in self._POOLS):
            raise ValueError(f"duplicate name {name!r}")
        pool[name] = obj
        self.decl_order.append((kind, name))
        if refs is not None:
            self.refs[(kind, name)] = tuple(refs)

    def lookup(self, kind: str, name: str):
        pool = getattr(self, kind)
        if name not in pool:
            raise KeyError(f"unresolved {kind[:-1]} reference {name!r}")
        return pool[name]


# -- check kinds --------------------------------------------------------
#
# A runner is run(cfg, spec, *objects): the run settings (cli.RunConfig),
# the check line, and its arguments looked up in their pools.  Runners
# call the checkers through this module's globals, never through a
# function object stored in the table, so that rebinding a checker on this
# module (as perfbench/spans.py does to time it) reaches every runner.


def _transported(cfg, g, F):
    gate = SamplePlan(count=64, seed=cfg.plan.seed)
    return transport_brane(g, F, plan=gate, tol=cfg.tol.sampled,
                           opts=cfg.flow)


def _type11(cfg, spec, B, omega, F):
    I = endo_from_pair(omega, F)
    rec = CheckResult("type11", EXACT)
    rec.hold("pullback_fixed", (I.pullback_twoform(B) - B).max_coeff(),
             EXACT_ZERO, "pullback_delta")
    return rec


def _hamiltonian_cocycle(cfg, spec, f, c):
    pair = hamiltonian_generator(f, c)
    rec = check_infdef(pair, c)
    rec.details["generator"] = spec.args[0]
    return rec


def _build_infdef(cfg, spec, rho, B0, c):
    expected = spec.opt("expect", "pass") == "obstruction"
    try:
        pair = build_infdef(rho, B0, c)
    except (AverageObstruction, Type11Violation) as e:
        rec = CheckResult("build_infdef", EXACT)
        rec.conditions["raised_obstruction"] = True
        if not expected:
            # an obstruction that was not expected is the failure reason
            rec.conditions["obstruction_expected"] = False
        rec.details["obstruction" if expected else "error"] = str(e)
        if getattr(e, "residual", None) is not None:
            rec.residuals["average_defect"] = float(e.residual)
        return rec
    rec = check_infdef(pair, c)
    if expected:
        rec.conditions["raised_obstruction"] = False
        rec.details["error"] = "expected an obstruction but the build succeeded"
    return rec


def _cohomology(cfg, spec, c):
    T = truncation(spec.opt("truncation", "1"))
    cs = complex_slice(c, T)
    rec = CheckResult("cohomology", SAMPLED)
    bound = cs.d1_d0_bound()
    rec.hold("d1_d0_zero", cs.d1_d0_residual(), bound, "d1_d0")
    expected = spec.opt("h1")
    ker, rank = cs.dim_ker_d1, cs.rank_d0
    rec.details.update(truncation=T, dim_ker_d1=ker, rank_d0=rank,
                       h1=ker - rank, shape=cs.shape, d1_d0_bound=bound,
                       blocks=cs.block_summary())
    if expected is not None:
        rec.conditions["h1_matches"] = ker - rank == int(expected)
    return rec


def _one_of(*words):
    def parse(value: str) -> str:
        if value not in words:
            raise ValueError(value)
        return value
    parse.__name__ = "|".join(words)
    return parse


@dataclass(frozen=True)
class CheckKind:
    """The pool of each positional argument, the options beside `expect`
    (name -> parser of the text value), and the runner."""
    pools: tuple[str, ...]
    run: Callable
    options: dict = field(default_factory=dict)


CHECKS = {
    "space_filling": CheckKind(
        ("forms", "forms"), lambda cfg, spec, omega, F:
        check_space_filling(omega, F, plan=cfg.plan, tol=cfg.tol.sampled)),
    "brane": CheckKind(
        ("candidates",), lambda cfg, spec, c:
        check_brane(c, plan=cfg.plan, tol=cfg.tol.sampled)),
    "brane_via_J": CheckKind(
        ("candidates",), lambda cfg, spec, c:
        check_brane_via_J(c, plan=cfg.plan)),
    "type11": CheckKind(("forms", "forms", "forms"), _type11),
    "closed1f": CheckKind(("deforms",),
                          lambda cfg, spec, g: closed1f_check(g)),
    "invariance": CheckKind(
        ("deforms", "forms"), lambda cfg, spec, g, F: invariance_check(
            F, flow(g, 0.0, 1.0, cfg.plan.points(g.N_model), cfg.flow),
            cfg.tol.sampled)),
    "transport_kernel": CheckKind(
        ("deforms", "forms"), lambda cfg, spec, g, F:
        _transported(cfg, g, F).kernel_check(plan=cfg.plan,
                                             tol=cfg.tol.sampled)),
    "transport_zero_slice": CheckKind(
        ("deforms", "forms"), lambda cfg, spec, g, F:
        _transported(cfg, g, F).zero_slice_check(plan=cfg.plan)),
    "transport_fd": CheckKind(
        ("deforms", "forms"), lambda cfg, spec, g, F:
        _transported(cfg, g, F).fd_exterior_check(
            tol=tolerance(spec.opt("tol", "1e-5"))),
        {"tol": tolerance}),
    "mapping_torus": CheckKind(
        ("deforms", "forms"), lambda cfg, spec, g, F: mapping_torus_check(
            g, F, plan=cfg.plan, tol=cfg.tol.sampled, opts=cfg.flow)),
    "melanie": CheckKind(
        ("forms", "frames", "frames"), lambda cfg, spec, F, E, G:
        melanie_check(F, E, G, plan=cfg.plan)),
    "infdef": CheckKind(
        ("pairs", "candidates"), lambda cfg, spec, p, c:
        check_infdef(p, c)),
    "infdef_general": CheckKind(
        ("pairs", "candidates"), lambda cfg, spec, p, c:
        infdef_general_check(p, c)),
    "hamiltonian_cocycle": CheckKind(("fields", "candidates"),
                                     _hamiltonian_cocycle),
    "upsilon_image": CheckKind(
        ("forms", "forms", "forms"), lambda cfg, spec, r, omegaN, FN:
        upsilon_image_check(r, omegaN, FN)),
    "build_infdef": CheckKind(
        ("fields", "forms", "candidates"), _build_infdef,
        {"expect": _one_of("pass", "fail", "obstruction")}),
    "cohomology": CheckKind(("candidates",), _cohomology,
                            {"truncation": truncation, "h1": int}),
}
_EXPECT = _one_of("pass", "fail")


def _check_spec(scene: Scene, rest: str) -> CheckSpec:
    """The check line `check <rest>`, held to its entry in CHECKS."""
    tokens = rest.split()
    if not tokens:
        raise ValueError("empty check")
    name = tokens[0]
    if name not in CHECKS:
        raise ValueError(f"unknown check {name!r}")
    kind = CHECKS[name]
    args, opts = _split_opts(tokens[1:])
    if len(args) != len(kind.pools):
        usage = " ".join(f"<{pool[:-1]}>" for pool in kind.pools)
        raise ValueError(f"expected: check {name} {usage}")
    for pool, arg in zip(kind.pools, args):
        scene.lookup(pool, arg)
    parsers = {"expect": _EXPECT, **kind.options}
    for key, value in opts:
        if key not in parsers:
            raise ValueError(f"{name} takes no option {key!r}")
        if [k for k, _ in opts].count(key) > 1:
            raise ValueError(f"option {key!r} given twice")
        parse = parsers[key]
        try:
            parse(value)
        except ValueError:
            raise ValueError(f"{name} option {key} takes {parse.__name__}, "
                             f"not {value!r}") from None
    return CheckSpec(name, tuple(args), tuple(opts))


def _split_opts(tokens: list[str]) -> tuple[list[str], list[tuple[str, str]]]:
    args, opts = [], []
    for t in tokens:
        if "=" in t:
            k, _, v = t.partition("=")
            opts.append((k, v))
        elif opts:
            raise ValueError("positional argument after options")
        else:
            args.append(t)
    return args, opts


def _parse_frame(text: str, m: ManifoldModel, env) -> Distribution:
    """A frame's vectors, joined by ';' (none for an empty text)."""
    pieces = text.split(";") if text else ()
    return Distribution(m, tuple(parse_vector(piece.strip(), m, env)
                                 for piece in pieces))


# The declarations `<head> <name> @ <model> = <text>`: pool -> (parser of
# the text on the model, given the scene's fields on it by name; writer of
# the text).  Like the runners above, they call through this module's
# globals.
_TEXT = {
    "fields": (lambda text, m, env: parse_field(text, m, env),
               lambda f: field_to_text(f)),
    "forms": (lambda text, m, env: parse_form(text, m, env),
              lambda a: form_to_text(a)),
    "vectors": (lambda text, m, env: parse_vector(text, m, env),
                lambda v: vector_to_text(v)),
    "frames": (_parse_frame,
               lambda d: " ; ".join(vector_to_text(v) for v in d.frame)),
}


def parse_scene(text: str) -> Scene:
    scene = Scene(name="")
    pending: dict[str, list[tuple[str, str]]] = {}
    sealed: set[str] = set()

    def model_of(line_no: int, name: str) -> ManifoldModel:
        if name in scene.models:
            return scene.models[name]
        if name not in pending:
            raise SceneError(line_no, f"unknown model {name!r}")
        coords = pending[name]
        if not coords:
            raise SceneError(line_no, f"model {name!r} has no coordinates")
        m = ManifoldModel(tuple(coords))
        scene.models[name] = m
        sealed.add(name)
        return m

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, _, rest = line.partition(" ")
        rest = rest.strip()
        try:
            if head == "scene":
                if scene.name:
                    raise SceneError(line_no, "duplicate scene line")
                scene.name = rest
            elif head == "describe":
                scene.description = rest
            elif head == "option":
                k, _, v = rest.partition(" ")
                if k not in RUN_SETTINGS:
                    raise SceneError(line_no, f"unknown option {k!r} "
                                     f"(options: {', '.join(RUN_SETTINGS)})")
                if k in scene.options:
                    raise SceneError(line_no, f"option {k!r} given twice")
                RUN_SETTINGS[k](v.strip())
                scene.options[k] = v.strip()
            elif head == "model":
                if rest in pending or rest in scene.models:
                    raise SceneError(line_no, f"duplicate model {rest!r}")
                pending[rest] = []
                scene.decl_order.append(("models", rest))
            elif head == "coord":
                parts = rest.split()
                if len(parts) != 3 or parts[2] not in ("line", "circle"):
                    raise SceneError(
                        line_no, "expected: coord <model> <name> line|circle")
                mname, cname, kind = parts
                if mname not in pending:
                    raise SceneError(line_no, f"unknown model {mname!r}")
                if mname in sealed:
                    raise SceneError(
                        line_no, f"model {mname!r} is already in use")
                pending[mname].append((cname, kind))
            elif head + "s" in _TEXT:
                name, _, spec = rest.partition("@")
                mname, _, text = spec.partition("=")
                mname = mname.strip()
                m = model_of(line_no, mname)
                env = {k: v for k, v in scene.fields.items() if v.model == m}
                obj = _TEXT[head + "s"][0](text.strip(), m, env)
                scene.register(head + "s", name.strip(), obj, refs=(mname,))
            elif head == "candidate":
                name, _, body = rest.partition("=")
                parts = body.split()
                if len(parts) != 5:
                    raise SceneError(
                        line_no,
                        "expected: candidate <name> = <model> <omega> <F> "
                        "<E-frame> <G-frame>")
                m = model_of(line_no, parts[0])
                c = BraneCandidate(
                    m, scene.lookup("forms", parts[1]),
                    scene.lookup("forms", parts[2]),
                    scene.lookup("frames", parts[3]),
                    scene.lookup("frames", parts[4]))
                scene.register("candidates", name.strip(), c,
                               refs=tuple(parts))
            elif head == "deform":
                name, _, body = rest.partition("=")
                spec, _, expr = body.partition(":")
                parts = spec.split()
                if len(parts) != 4 or not expr.strip():
                    raise SceneError(
                        line_no,
                        "expected: deform <name> = <model> <omega> <F|-> "
                        "<circle-name> : <expr>")
                m = model_of(line_no, parts[0])
                F_N = None if parts[2] == "-" else scene.lookup(
                    "forms", parts[2])
                g = graph_deformation(
                    m, scene.lookup("forms", parts[1]), F_N,
                    expr.strip(), q_name=parts[3])
                scene.register("deforms", name.strip(), g, refs=tuple(parts))
            elif head == "pair":
                name, _, body = rest.partition("=")
                parts = body.split()
                if len(parts) != 3:
                    raise SceneError(
                        line_no, "expected: pair <name> = <candidate> <r> <B>")
                scene.lookup("candidates", parts[0])
                p = InfDefPair(scene.lookup("forms", parts[1]),
                               scene.lookup("forms", parts[2]))
                scene.register("pairs", name.strip(), p, refs=tuple(parts))
            elif head == "check":
                scene.checks.append(_check_spec(scene, rest))
            else:
                raise SceneError(line_no, f"unknown statement {head!r}")
        except SceneError:
            raise
        except (ParseError, ValueError, KeyError) as e:
            # args[0], not str(e): str of a KeyError quotes its message
            raise SceneError(line_no, e.args[0] if e.args else str(e)) from e

    if not scene.name:
        raise SceneError(1, "missing scene line")
    # force unused models so serialization sees them
    for mname in list(pending):
        if mname not in scene.models:
            model_of(1, mname)
    return scene


def serialize_scene(scene: Scene) -> str:
    out = [f"scene {scene.name}"]
    if scene.description:
        out.append(f"describe {scene.description}")
    out.append("")
    for kind, name in scene.decl_order:
        if kind != "models":
            continue
        out.append(f"model {name}")
        for cname, ckind in scene.models[name].coords:
            out.append(f"coord {name} {cname} {ckind}")
        out.append("")
    for k, v in scene.options.items():
        out.append(f"option {k} {v}")
    if scene.options:
        out.append("")
    for kind, name in scene.decl_order:
        if kind == "models":
            continue
        obj = getattr(scene, kind)[name]
        refs = scene.refs.get((kind, name), ())
        if kind in _TEXT:
            # rstrip: an empty frame is `frame <name> @ <model> =`
            out.append(f"{kind[:-1]} {name} @ {refs[0]} = "
                       f"{_TEXT[kind][1](obj)}".rstrip())
        else:
            tail = f" : {field_to_text(obj.f)}" if kind == "deforms" else ""
            out.append(f"{kind[:-1]} {name} = {' '.join(refs)}{tail}")
    if any(k != "models" for k, _ in scene.decl_order):
        out.append("")
    for spec in scene.checks:
        bits = [spec.kind, *spec.args]
        bits += [f"{k}={v}" for k, v in spec.opts]
        out.append("check " + " ".join(bits))
    return "\n".join(out).rstrip("\n") + "\n"


def load_scene(path) -> Scene:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_scene(fh.read())
