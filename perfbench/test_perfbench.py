"""Tests of the benchmark's own inputs and expectations.

Run with:  python3 -m pytest perfbench
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402
from branelab.grammar import parse_field  # noqa: E402
from branelab.model import ManifoldModel  # noqa: E402
from branelab.scene import parse_scene, serialize_scene  # noqa: E402


def _bytes(workload, seed):
    return json.dumps(workloads.generate(workload, seed), sort_keys=True).encode()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_bytes_other_seed_differs(workload):
    assert _bytes(workload, 7) == _bytes(workload, 7)
    assert _bytes(workload, 7) != _bytes(workload, 8)


def test_unknown_workload_is_refused():
    with pytest.raises(ValueError):
        workloads.generate("nope", 0)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_generated_scenes_round_trip(workload, seed):
    for _, text in workloads.generate(workload, seed)["scenes"]:
        scene = parse_scene(text)
        again = parse_scene(serialize_scene(scene))
        assert serialize_scene(again) == serialize_scene(scene)
        for pool in ("forms", "fields", "frames", "candidates", "deforms"):
            assert getattr(again, pool) == getattr(scene, pool)
        assert again.checks == scene.checks


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_check_op_names_a_check(workload):
    inputs = workloads.generate(workload, 3)
    scenes = [parse_scene(text) for _, text in inputs["scenes"]]
    ops = [(op["scene"], op["check"]) for op in inputs["ops"]
           if op["op"] == "check"]
    assert ops == [(i, j) for i, s in enumerate(scenes)
                   for j in range(len(s.checks))]


def test_expected_verdicts_match_bundled_expect_lines():
    names = sorted(p.stem for p in workloads.SCENE_DIR.glob("*.scene"))
    assert names == sorted(workloads.BUNDLED_EXPECT)
    for name in names:
        scene = parse_scene(workloads.bundled_text(name))
        declared = tuple(spec.opt("expect", "pass") for spec in scene.checks)
        table = workloads.BUNDLED_EXPECT[name]
        if name == "cos2_obstruction":
            # no expect= line, but the scene is documented to exit nonzero
            assert declared == ("pass",) and table == ("fail",)
            assert "exit nonzero" in scene.description
            continue
        assert table == declared, name


def test_unimodular_transforms_have_unit_determinant():
    import random
    import numpy as np
    for seed in range(50):
        A = np.array(workloads.unimodular(random.Random(seed)), dtype=float)
        assert round(abs(np.linalg.det(A))) == 1


def test_exact_fields_keep_their_term_counts():
    inputs = workloads.generate("exact", 5)
    model = ManifoldModel(tuple(tuple(c) for c in inputs["model"]))
    counts = [len(parse_field(t, model).terms) for t in inputs["fields"]]
    assert counts == list(workloads.EXACT_FIELD_TERMS)


def test_tracer_records_self_time_and_restores_bindings():
    import branelab.grammar as grammar
    import branelab.scene as scene_mod
    import spans
    original = grammar.parse_field
    tracer = spans.Tracer().install()
    try:
        assert scene_mod.parse_field is not original
        model = ManifoldModel((("x1", "circle"), ("y1", "line")))
        grammar.parse_field("y1*cos(2*pi*x1) + 2.0*y1^2", model)
        with tracer.block("outer"):
            grammar.parse_field("y1", model)
    finally:
        tracer.uninstall()
    assert grammar.parse_field is original and scene_mod.parse_field is original
    parse, outer = tracer.totals["grammar.parse"], tracer.totals["outer"]
    assert 0 < parse.self <= parse.incl
    assert outer.self < outer.incl
    assert tracer.counts["grammar.parse_terms"] == 3
    (_, name, _, _, parent, _), = [s for s in tracer.spans
                                   if s[1] == "grammar.parse" and s[4]]
    assert parent == next(s[0] for s in tracer.spans if s[1] == "outer")


def test_exit_hooks_run_when_the_wrapped_call_raises():
    import spans
    tracer = spans.Tracer()

    def boom(*args):
        raise RuntimeError("boom")

    wrapped = tracer.span("brane.check", boom, spans._brane_enter,
                          spans._brane_exit)
    with pytest.raises(RuntimeError):
        wrapped()
    assert tracer._brane_grams == [] and tracer._stack == []
    assert tracer.totals["brane.check"].incl > 0 and tracer.overhead > 0


def test_complex_gate_takes_rounding_not_a_wrong_h1():
    # seed 734718720: |d1 d0| at truncation 2 is 1.1e-10, above the
    # cohomology check's absolute 1e-10 but far within rounding
    import branelab.infdef  # noqa: F401
    import branelab
    import worker
    inputs = workloads.generate("cohomology", 734718720)
    scenes = [(name, parse_scene(text)) for name, text in inputs["scenes"]]
    op = next(op for op in inputs["ops"]
              if op["op"] == "complex" and op["truncation"] == 2)
    worker._complex_op(op, scenes, branelab)()
    with pytest.raises(worker.WrongOutput):
        worker._complex_op(dict(op, h1=5), scenes, branelab)()
