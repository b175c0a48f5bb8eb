"""Structured verdicts and report emission (json / csv / text).

The pass rule lives here, in CheckResult.passed: a record passes exactly
when its mode is not ERROR and all its conditions hold, and the runner's
details["expected"] = "fail" mark inverts that (a record that raised
still fails).  No checker writes a verdict; it records conditions.  A
condition that holds a residual to a bound is recorded by
CheckResult.hold, which stores the residual and passes the condition
exactly when residual <= bound.  Every bound test of the checkers goes
through it; the other conditions (agreement of two routes, an expected
count, a raised obstruction, nondegeneracy) are booleans of their own.
The witness rule: a bound tested at many samples is one call
hold(condition, values, bound, residual, at=<namer of sample i>, label),
which holds the largest value and, when it fails, adds one witness at
the first sample that reaches it.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field

import numpy as np

# EXACT: decided by coefficient arithmetic or one evaluation of constant
# data; SAMPLED: pointwise evaluation at plan points; ERROR: the check
# raised, and details["error"] holds the message
EXACT = "EXACT"
SAMPLED = "SAMPLED"
ERROR = "ERROR"


def _plain(x):
    if isinstance(x, (np.floating, np.integer)):
        return x.item()
    if isinstance(x, np.ndarray):
        return [_plain(v) for v in x.tolist()]
    if isinstance(x, dict):
        return {k: _plain(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_plain(v) for v in x]
    if isinstance(x, (bool, int, float, str)) or x is None:
        return x
    return str(x)


@dataclass
class CheckResult:
    """One check's record: per-condition booleans, residuals and
    worst-offender witnesses, from which the verdict derives."""

    name: str
    mode: str
    conditions: dict = field(default_factory=dict)
    residuals: dict = field(default_factory=dict)
    witnesses: list = field(default_factory=list)
    details: dict = field(default_factory=dict)
    wall_time: float = 0.0

    @property
    def passed(self) -> bool:
        """Not ERROR and every condition holds, inverted on a record marked
        details["expected"] = "fail"; ERROR fails either way."""
        if self.mode == ERROR:
            return False
        return (all(self.conditions.values())
                != (self.details.get("expected") == "fail"))

    def hold(self, condition: str, value, bound, residual: str | None = None,
             at=None, label: str = "") -> bool:
        """Record value under residual (default: the condition's name),
        set the condition to value <= bound and return that verdict.

        Given at, value holds one residual per sample (none gives 0.0):
        the largest is held, and a failed bound adds a witness, labelled
        label, at at(i) for the first sample i that reaches it."""
        if at is not None:
            value = np.ravel(value)
            i = int(np.argmax(value)) if value.size else 0
            value = float(value[i]) if value.size else 0.0
        self.residuals[condition if residual is None else residual] = value
        self.conditions[condition] = ok = bool(value <= bound)
        if not ok and at is not None:
            self.add_witness(at(i), value, label)
        return ok

    def add_witness(self, point, residual, label=""):
        self.witnesses.append({
            "point": _plain(np.asarray(point)),
            "residual": float(residual),
            "label": label,
        })

    def to_record(self) -> dict:
        return {
            "name": self.name,
            "mode": self.mode,
            "pass": self.passed,
            "conditions": _plain(self.conditions),
            "residuals": _plain(self.residuals),
            "witnesses": _plain(self.witnesses),
            "details": _plain(self.details),
            "wall_time": float(self.wall_time),
        }


@dataclass
class Report:
    scene: str
    seed: int
    tolerances: dict
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "scene": self.scene,
            "seed": self.seed,
            "tolerances": _plain(self.tolerances),
            "summary": {
                "total": len(self.checks),
                "passed": sum(1 for c in self.checks if c.passed),
                "all_passed": self.all_passed,
            },
            "checks": [c.to_record() for c in self.checks],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def to_csv(self) -> str:
        out = io.StringIO()
        rows = csv.writer(out, lineterminator="\n")
        rows.writerow(["check", "mode", "pass", "max_residual", "conditions",
                       "error"])
        for c in self.checks:
            conds = ";".join(f"{k}={v}" for k, v in sorted(c.conditions.items()))
            rows.writerow([c.name, c.mode, c.passed, f"{_max_residual(c):.3e}",
                           conds, c.details.get("error", "")])
        return out.getvalue()

    def to_text(self) -> str:
        # the header is the command line that reruns the report
        tol = self.tolerances
        lines = [f"branelab run {self.scene} --seed {self.seed} "
                 f"--steps {round(1.0 / tol['flow_step'])} "
                 f"--tol {tol['sampled']!r}"]
        for c in self.checks:
            status = "pass" if c.passed else "FAIL"
            lines.append(f"  [{status}] {c.name} ({c.mode}, residual "
                         f"{_max_residual(c):.3e})")
            for k, v in sorted(c.conditions.items()):
                if not v:
                    lines.append(f"         failed condition: {k}")
            if "error" in c.details:
                lines.append(f"         error: {c.details['error']}")
        n_pass = sum(1 for c in self.checks if c.passed)
        lines.append(f"{n_pass}/{len(self.checks)} checks passed")
        return "\n".join(lines) + "\n"


def _max_residual(c: CheckResult) -> float:
    return max([v for v in c.residuals.values()
                if isinstance(v, (int, float))], default=0.0)

