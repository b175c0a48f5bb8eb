"""Line-oriented scene files: declarations of coordinate models, named
fields/forms/frames, brane candidates, graph deformations, deformation
pairs, and an ordered list of checks to run.

The format round-trips: parsing the canonical serialization of a scene
yields an equal scene.  Expressions use the same text grammar as the rest
of the package, so coefficients survive the trip exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .brane import BraneCandidate
from .forms import Distribution
from .grammar import (ParseError, field_to_text, form_to_text, parse_field,
                      parse_form, parse_vector, vector_to_text)
from .infdef import InfDefPair
from .model import ManifoldModel
from .nearby import graph_deformation

KNOWN_CHECKS = frozenset({
    "space_filling", "brane", "brane_via_J", "type11", "closed1f",
    "invariance", "transport_kernel", "transport_zero_slice", "transport_fd",
    "mapping_torus", "melanie", "infdef", "infdef_general",
    "hamiltonian_cocycle", "upsilon_image", "build_infdef", "cohomology",
})


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

    def named(line_no: int, kind: str, name: str):
        try:
            return scene.lookup(kind, name)
        except KeyError as e:
            raise SceneError(line_no, str(e)) from None

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
            elif head in ("field", "form", "vector"):
                name, _, spec = rest.partition("@")
                name = name.strip()
                mname, _, expr = spec.partition("=")
                mname, expr = mname.strip(), expr.strip()
                m = model_of(line_no, mname)
                env = {k: v for k, v in scene.fields.items() if v.model == m}
                if head == "field":
                    obj = parse_field(expr, m, env)
                elif head == "form":
                    obj = parse_form(expr, m, env)
                else:
                    obj = parse_vector(expr, m, env)
                scene.register(head + "s", name, obj, refs=(mname,))
            elif head == "frame":
                name, _, spec = rest.partition("@")
                name = name.strip()
                mname, _, body = spec.partition("=")
                mname, body = mname.strip(), body.strip()
                m = model_of(line_no, mname)
                vecs = []
                if body:
                    env = {k: v for k, v in scene.fields.items()
                           if v.model == m}
                    for piece in body.split(";"):
                        vecs.append(parse_vector(piece.strip(), m, env))
                scene.register("frames", name,
                               Distribution(m, tuple(vecs)), refs=(mname,))
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
                    m, named(line_no, "forms", parts[1]),
                    named(line_no, "forms", parts[2]),
                    named(line_no, "frames", parts[3]),
                    named(line_no, "frames", parts[4]))
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
                F_N = None if parts[2] == "-" else named(
                    line_no, "forms", parts[2])
                g = graph_deformation(
                    m, named(line_no, "forms", parts[1]), F_N,
                    expr.strip(), q_name=parts[3])
                scene.register("deforms", name.strip(), g, refs=tuple(parts))
            elif head == "pair":
                name, _, body = rest.partition("=")
                parts = body.split()
                if len(parts) != 3:
                    raise SceneError(
                        line_no, "expected: pair <name> = <candidate> <r> <B>")
                named(line_no, "candidates", parts[0])
                p = InfDefPair(named(line_no, "forms", parts[1]),
                               named(line_no, "forms", parts[2]))
                scene.register("pairs", name.strip(), p, refs=tuple(parts))
            elif head == "check":
                tokens = rest.split()
                if not tokens:
                    raise SceneError(line_no, "empty check")
                if tokens[0] not in KNOWN_CHECKS:
                    raise SceneError(line_no, f"unknown check {tokens[0]!r}")
                args, opts = _split_opts(tokens[1:])
                for a in args:
                    if not any(a in getattr(scene, pool)
                               for pool in Scene._POOLS):
                        raise SceneError(
                            line_no, f"check references undeclared name {a!r}")
                scene.checks.append(
                    CheckSpec(tokens[0], tuple(args), tuple(opts)))
            else:
                raise SceneError(line_no, f"unknown statement {head!r}")
        except SceneError:
            raise
        except (ParseError, ValueError, KeyError) as e:
            raise SceneError(line_no, str(e)) from e

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
    writers = {
        "fields": lambda o: field_to_text(o),
        "forms": lambda o: form_to_text(o),
        "vectors": lambda o: vector_to_text(o),
    }
    for kind, name in scene.decl_order:
        if kind == "models":
            continue
        refs = scene.refs.get((kind, name), ())
        if kind in writers:
            out.append(f"{kind[:-1]} {name} @ {refs[0]} = "
                       f"{writers[kind](getattr(scene, kind)[name])}")
        elif kind == "frames":
            dist = scene.frames[name]
            body = " ; ".join(vector_to_text(v) for v in dist.frame)
            sep = f" = {body}" if body else " ="
            out.append(f"frame {name} @ {refs[0]}{sep}")
        elif kind == "candidates":
            out.append(f"candidate {name} = {' '.join(refs)}")
        elif kind == "deforms":
            g = scene.deforms[name]
            out.append(f"deform {name} = {' '.join(refs)} : "
                       f"{field_to_text(g.f)}")
        elif kind == "pairs":
            out.append(f"pair {name} = {' '.join(refs)}")
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
