"""The numpy ports of the Halton plan and principal angles, each against
the SciPy routine it reproduces, and a runtime import that loads no SciPy
module."""

import os
import subprocess
import sys

import numpy as np
import pytest

from branelab.forms import max_principal_angle
from branelab.model import CIRCLE, LINE, SamplePlan, model_from_names


def torus(d):
    return model_from_names([(f"x{i}", CIRCLE) for i in range(d)])


@pytest.mark.parametrize("d", range(1, 12))
def test_halton_plan_is_scipys_scrambled_halton(d):
    qmc = pytest.importorskip("scipy.stats").qmc
    for count in (1, 7, 32, 256, 1000):
        for seed in (0, 1, 7, 12345):
            want = qmc.Halton(d=d, scramble=True, seed=seed).random(count)
            got = SamplePlan(count=count, seed=seed).points(torus(d))
            assert np.array_equal(got, want), (d, count, seed)
            # the same memory order, which products with the points round in
            assert got.flags.f_contiguous == want.flags.f_contiguous


def test_points_are_fresh_arrays_over_one_cached_draw():
    model = model_from_names([("x", CIRCLE), ("y", LINE), ("z", CIRCLE)])
    plan = SamplePlan(count=16, seed=3)
    first = plan.points(model)
    want = first.copy()
    first[:] = 0.0
    again = plan.points(model)
    assert np.array_equal(again, want)
    again[0, 1] = 5.0
    assert np.array_equal(plan.points(model), want)


def angle_pairs(rng):
    """Random, nearly equal and rank-deficient pairs of column sets."""
    for n in range(2, 9):
        for k in range(1, n + 1):
            A = rng.standard_normal((n, k))
            yield A, rng.standard_normal((n, k))
            yield A, A + 1e-9 * rng.standard_normal((n, k))
            yield A, A @ rng.standard_normal((k, k))
            if k > 1:
                B = rng.standard_normal((n, k))
                B[:, -1] = B[:, 0]
                yield A, B
                yield B, A


def test_max_principal_angle_is_scipys(rng):
    linalg = pytest.importorskip("scipy.linalg")
    for A, B in angle_pairs(rng):
        want = float(np.max(linalg.subspace_angles(A, B)))
        assert max_principal_angle(A, B) == want, (A, B)


def test_runtime_import_loads_no_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(sys.path)
    out = subprocess.run(
        [sys.executable, "-c",
         "import branelab, branelab.cli, sys; "
         "print(sorted(m for m in sys.modules "
         "if m == 'scipy' or m.startswith('scipy.')))"],
        env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_an_exact_scene_loads_no_numpy_random():
    """cohomology_t4's checks are all EXACT or symbolic, so its run never
    draws the sample plan, whose scrambling is numpy.random's."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(sys.path)
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys; "
         "from branelab.cli import (_config_from, make_parser, "
         "resolve_scene, run_scene); "
         "s = resolve_scene('cohomology_t4'); "
         "r = run_scene(s, _config_from(s, make_parser().parse_args("
         "['run', 'cohomology_t4']))); "
         "print(all(c.passed for c in r.checks), "
         "'numpy.random' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["True", "False"]
