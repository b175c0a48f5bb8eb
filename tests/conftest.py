"""Shared fixtures plus a one-line-per-criterion acceptance summary."""

import math
import re

import numpy as np
import pytest

from branelab import integrate
from branelab.fields import COS

_CRITERION = re.compile(r"test_criterion_(\d+)")
_acceptance: dict[int, tuple[str, str]] = {}


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    if report.when != "call":
        return
    m = _CRITERION.search(item.name)
    if not m:
        return
    doc = (item.function.__doc__ or "").strip().splitlines()
    title = doc[0] if doc else item.name
    _acceptance[int(m.group(1))] = (report.outcome.upper(), title)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _acceptance:
        return
    tw = terminalreporter
    tw.section("acceptance criteria")
    for num in sorted(_acceptance):
        outcome, title = _acceptance[num]
        word = "PASS" if outcome == "PASSED" else outcome
        tw.write_line(f"  [{num:02d}] {word:6s} {title}")


def naive_eval(f, pts):
    """Reference evaluation straight from the term definition, one term at
    a time, independent of the package's evaluator."""
    out = np.zeros(pts.shape[0])
    for (powers, freqs, phase), coeff in f.terms:
        mono = np.ones(pts.shape[0])
        for i, p in enumerate(powers):
            mono *= pts[:, i] ** p
        arg = 2.0 * math.pi * pts @ np.array(freqs, dtype=float)
        trig = np.cos(arg) if phase == COS else np.sin(arg)
        out += coeff * mono * trig
    return out


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)


@pytest.fixture
def rk4_steps(monkeypatch):
    """The step numbers of every RK4 step taken during the test."""
    steps = []

    def counted(*args):
        steps.append(args[5])
        return real_step(*args)

    real_step = integrate._rk4_step
    monkeypatch.setattr(integrate, "_rk4_step", counted)
    return steps
