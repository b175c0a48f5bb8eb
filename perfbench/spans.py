"""Spans around calls into branelab's layers, recorded from outside.

install() rebinds public functions and methods of the branelab modules to
timing wrappers (every module-level binding of a function, so names
imported with ``from .x import f`` are covered too).  Each call records a
span: id, name, start, end, parent span id and the benchmark operation it
served.  Spans of hot leaf calls (field evaluation, single RK4 steps, field
products) are folded into per-name totals instead of being kept one by
one.  A layer's self time is its span time minus the time of the spans
it directly contains.  The wrappers time their own bookkeeping, and the
sum is reported as trace.overhead_s.

Counts are taken at the same boundaries, from the arguments and the
returned objects; those that cannot be observed at a call boundary are
computed from the shapes involved and are named as computed in
NOTES.md.
"""

from __future__ import annotations

import contextlib
import importlib
import time
from dataclasses import dataclass, field

HOT = frozenset({"fields.eval_batch", "integrate.rk4_step", "fields.mul",
                 "fields.partial", "forms.gram_batch"})


@dataclass
class Totals:
    incl: float = 0.0
    self: float = 0.0


@dataclass
class Tracer:
    spans: list = field(default_factory=list)
    totals: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)
    op_id: int = -1
    overhead: float = 0.0
    _next_id: int = 0
    _stack: list = field(default_factory=list)
    _gates: set = field(default_factory=set)
    _brane_grams: list = field(default_factory=list)
    _undo: list = field(default_factory=list)

    def count(self, key: str, n: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def _open(self, name):
        self._next_id += 1
        parent = self._stack[-1][2] if self._stack else None
        frame = [name, 0.0, self._next_id, parent]
        self._stack.append(frame)
        return frame

    def _close(self, frame, t0, t1):
        self._stack.pop()
        name, child, span_id, parent = frame
        dur = t1 - t0
        tot = self.totals.setdefault(name, Totals())
        tot.incl += dur
        tot.self += dur - child
        if name not in HOT:
            self.spans.append((span_id, name, t0, t1, parent, self.op_id))

    def span(self, name, fn, on_enter=None, on_exit=None):
        """Wrap fn.  on_exit also runs when fn raises, with out=None.

        The wrapper's own bookkeeping (hooks, span records) is summed in
        self.overhead, and counted as time of the enclosing span's children,
        so that it does not show up as the caller's self time.
        """
        def wrapper(*args, **kwargs):
            t_in = time.perf_counter()
            if on_enter is not None:
                on_enter(self, args, kwargs)
            frame = self._open(name)
            out = None
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                t1 = time.perf_counter()
                self._close(frame, t0, t1)
                if on_exit is not None:
                    on_exit(self, args, kwargs, out)
                t_out = time.perf_counter()
                self.overhead += (t0 - t_in) + (t_out - t1)
                if self._stack:
                    self._stack[-1][1] += t_out - t_in
        return wrapper

    @contextlib.contextmanager
    def block(self, name: str):
        """A span around benchmark-side code."""
        frame = self._open(name)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self._close(frame, t0, t1)
            if self._stack:
                self._stack[-1][1] += t1 - t0

    # -- installation --------------------------------------------------

    def _rebind(self, owner, attr, wrapper) -> None:
        original = owner.__dict__[attr]
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))
        if isinstance(owner, type):
            return
        for mod in _branelab_modules():
            if mod is owner:
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._undo.append((mod, key, original))

    def install(self) -> "Tracer":
        for owner_path, attr, name, hooks in _POINTS:
            owner = _resolve(owner_path)
            raw = owner.__dict__[attr]
            if isinstance(raw, property):
                wrapped = property(self.span(name, raw.fget, *hooks))
            else:
                wrapped = self.span(name, raw, *hooks)
            self._rebind(owner, attr, wrapped)
        return self

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def _branelab_modules():
    names = ("fields", "forms", "grammar", "integrate", "model", "nearby",
             "infdef", "brane", "report", "scene", "cli")
    return [importlib.import_module(f"branelab.{n}") for n in names] + [
        importlib.import_module("branelab")]


def _resolve(path: str):
    mod, _, cls = path.partition(":")
    obj = importlib.import_module(mod)
    return getattr(obj, cls) if cls else obj


# -- counters taken at the boundaries ------------------------------------


def _terms(obj) -> int:
    if hasattr(obj, "terms"):
        return len(obj.terms)
    return sum(len(f.terms) for _, f in obj.coeffs)


def _parsed(tr, args, kwargs, out):
    if out is None:
        return
    tr.count("grammar.parse_terms", _terms(out))


def _terms_out(tr, args, kwargs, out):
    if out is None:
        return
    tr.count("fields.terms_out", len(out.terms))


def _eval_batch(tr, args, kwargs, out):
    f, points = args[0], args[1]
    tr.count("fields.eval_term_points", len(f.terms) * len(points))


def _rk4_step(tr, args, kwargs, out):
    x, J = args[1], args[2]
    m, n = x.shape
    tr.count("integrate.point_steps", m)
    # computed: four stages, each evaluating every velocity component and,
    # with tangent maps, every Jacobian entry
    tr.count("fields.eval_batch_calls", 4 * (n + (n * n if J is not None else 0)))


def _gate_enter(tr, args, kwargs):
    g, F = args[0], args[1]
    key = (g, F) + tuple(sorted((k, repr(v)) for k, v in kwargs.items()))
    tr._gates.add(key)
    tr.count("nearby.gate_flows", 1)


def _complex(tr, args, kwargs, out):
    if out is None:
        return
    tr.count("infdef.matrix_bytes", out.d0.nbytes + out.d1.nbytes)


def _rank_shape(which):
    def hook(tr, args, kwargs, out):
        shape = getattr(args[0], which).shape
        tr.counts["infdef.svd_max_dim"] = max(
            tr.counts.get("infdef.svd_max_dim", 0), *shape)
    return hook


def _brane_enter(tr, args, kwargs):
    tr._brane_grams.append(set())


def _brane_exit(tr, args, kwargs, out):
    tr.count("brane.distinct_samples", len(tr._brane_grams.pop()))


def _gram_batch(tr, args, kwargs, out):
    if out is not None and tr._brane_grams:
        tr.count("brane.sample_matrices", out.shape[0])
        seen = tr._brane_grams[-1]
        for M in out:
            seen.add(M.tobytes())


# (owner, attribute, span name, (on_enter, on_exit))
_POINTS = (
    ("branelab.scene", "parse_scene", "scene.parse", (None, None)),
    ("branelab.grammar", "parse_field", "grammar.parse", (None, _parsed)),
    ("branelab.grammar", "parse_form", "grammar.parse", (None, _parsed)),
    ("branelab.grammar", "parse_vector", "grammar.parse", (None, None)),
    ("branelab.grammar", "field_to_text", "grammar.print", (None, None)),
    ("branelab.grammar", "form_to_text", "grammar.print", (None, None)),
    ("branelab.grammar", "vector_to_text", "grammar.print", (None, None)),
    ("branelab.fields", "field_mul", "fields.mul", (None, _terms_out)),
    ("branelab.fields", "partial", "fields.partial", (None, _terms_out)),
    ("branelab.fields:ScalarField", "eval_batch", "fields.eval_batch",
     (None, _eval_batch)),
    ("branelab.forms", "ext_d", "forms.ext_d", (None, None)),
    ("branelab.forms", "wedge", "forms.wedge", (None, None)),
    ("branelab.forms", "lie_derivative", "forms.lie_derivative", (None, None)),
    ("branelab.forms:DifferentialForm", "gram_batch", "forms.gram_batch",
     (None, _gram_batch)),
    ("branelab.integrate", "rk4_flow", "integrate.rk4_flow", (None, None)),
    ("branelab.integrate", "_rk4_step", "integrate.rk4_step",
     (None, _rk4_step)),
    ("branelab.nearby", "flow", "nearby.flow", (None, None)),
    ("branelab.nearby", "transport_brane", "nearby.gate", (_gate_enter, None)),
    ("branelab.nearby:TransportedForm", "matrices_at", "nearby.matrices_at",
     (None, None)),
    ("branelab.nearby", "mapping_torus_check", "nearby.mapping_torus",
     (None, None)),
    ("branelab.infdef", "complex_slice", "infdef.assemble", (None, _complex)),
    ("branelab.infdef:ComplexSlice", "rank_d0", "infdef.rank",
     (None, _rank_shape("d0"))),
    ("branelab.infdef:ComplexSlice", "dim_ker_d1", "infdef.rank",
     (None, _rank_shape("d1"))),
    ("branelab.brane", "check_brane", "brane.check",
     (_brane_enter, _brane_exit)),
    ("branelab.brane", "check_brane_via_J", "brane.check",
     (_brane_enter, _brane_exit)),
    ("branelab.model:SamplePlan", "points", "model.sample_points",
     (None, None)),
    ("branelab.report:Report", "to_json", "report.emit", (None, None)),
)

# per-layer metric -> (span name, "self" | "incl"); times in seconds.
# Spans that only wrap other layers (gate, check, scene run, assembly,
# scene parse) are reported inclusive, every other span by self time.
SPAN_METRICS = {
    "cli.run_scene_s": ("cli.run_scene", "incl"),
    "scene.parse_s": ("scene.parse", "incl"),
    "grammar.parse_s": ("grammar.parse", "self"),
    "grammar.print_s": ("grammar.print", "self"),
    "fields.mul_s": ("fields.mul", "self"),
    "fields.partial_s": ("fields.partial", "self"),
    "fields.eval_batch_s": ("fields.eval_batch", "self"),
    "forms.ext_d_s": ("forms.ext_d", "self"),
    "forms.wedge_s": ("forms.wedge", "self"),
    "forms.lie_derivative_s": ("forms.lie_derivative", "self"),
    "forms.gram_batch_s": ("forms.gram_batch", "self"),
    "nearby.flow_s": ("nearby.flow", "self"),
    "nearby.gate_s": ("nearby.gate", "incl"),
    "nearby.matrices_at_s": ("nearby.matrices_at", "self"),
    "nearby.mapping_torus_s": ("nearby.mapping_torus", "self"),
    "infdef.assemble_s": ("infdef.assemble", "incl"),
    "infdef.rank_s": ("infdef.rank", "self"),
    "brane.check_s": ("brane.check", "incl"),
    "model.sample_points_s": ("model.sample_points", "self"),
    "report.emit_s": ("report.emit", "self"),
}

COUNT_METRICS = ("grammar.parse_terms", "fields.terms_out",
                 "fields.eval_batch_calls", "fields.eval_term_points",
                 "integrate.point_steps", "nearby.gate_flows",
                 "infdef.matrix_bytes", "infdef.svd_max_dim",
                 "brane.sample_matrices")


def layer_metrics(tr: Tracer) -> dict:
    """Per-layer figures of one traced pass (without cli.import_s, which
    the worker adds, and cli.check_p50_s, which the runner adds)."""

    def tot(name):
        return tr.totals.get(name, Totals())

    out = {}
    for metric, (span, kind) in SPAN_METRICS.items():
        t = tot(span)
        out[metric] = t.self if kind == "self" else t.incl
    for key in COUNT_METRICS:
        out[key] = tr.counts.get(key, 0)
    out["integrate.rk4_s"] = tot("integrate.rk4_flow").self + \
        tot("integrate.rk4_step").self
    steps = out["integrate.point_steps"]
    out["integrate.us_per_point_step"] = (
        1e6 * tot("integrate.rk4_step").incl / steps if steps else 0.0)
    flows = out["nearby.gate_flows"]
    out["nearby.gate_reuse_ratio"] = len(tr._gates) / flows if flows else 0.0
    out["trace.overhead_s"] = tr.overhead
    samples = out["brane.sample_matrices"]
    out["brane.distinct_sample_ratio"] = (
        tr.counts.get("brane.distinct_samples", 0) / samples
        if samples else 0.0)
    return out
