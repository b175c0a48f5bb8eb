"""Golden check records of every bundled scene.

bundled_records.json holds the records that run_scene gives for each
bundled scene at the default settings, without wall_time.  A refactor
that must not change any verdict is held to it: pass, mode, conditions,
names, witness labels and every string and integer exactly, every float
to 1e-12 relative plus 1e-14 absolute.

After a change that is meant to alter records, regenerate the fixture
with `PYTHONPATH=src python tests/test_bundled_records.py`: it prints the
path of every value that changes, with the old and the new value
(`cohomology_t4[2].residuals.d1_d0: 1.01e-13 -> 1.14e-13`), then rewrites
bundled_records.json.  Review the difference.
"""

import json
import math
from pathlib import Path

import pytest

from branelab.cli import (_config_from, bundled_scene_dir, make_parser,
                          resolve_scene, run_scene)

FIXTURE = Path(__file__).with_name("bundled_records.json")
REL, ABS = 1e-12, 1e-14


def _bundled_names() -> list[str]:
    return sorted(p.name[:-len(".scene")] for p in bundled_scene_dir().iterdir()
                  if p.name.endswith(".scene"))


def _records(name: str) -> list[dict]:
    scene = resolve_scene(name)
    cfg = _config_from(scene, make_parser().parse_args(["run", name]))
    checks = run_scene(scene, cfg).to_dict()["checks"]
    for rec in checks:
        del rec["wall_time"]
    # the round trip gives the fixture's types: lists, floats, ints
    return json.loads(json.dumps(checks))


def _close(got, want) -> bool:
    """The test's rule for two leaf values: floats to REL and ABS (NaN
    equals NaN), anything else of the same type and equal."""
    if isinstance(want, float) and isinstance(got, float):
        return (got == want or (math.isnan(got) and math.isnan(want))
                or abs(got - want) <= REL * abs(want) + ABS)
    return type(got) is type(want) and got == want


def _same(got, want) -> bool:
    """Whether rewriting the fixture leaves a leaf value as it is."""
    return json.dumps(got) == json.dumps(want)


def _differences(got, want, where: str, close):
    """(path, want, got) for every leaf where close(got, want) fails, and
    for every dict or list whose keys or length differ."""
    if isinstance(want, dict) and isinstance(got, dict):
        if sorted(got) != sorted(want):
            yield where, want, got
            return
        for k in want:
            yield from _differences(got[k], want[k],
                                    f"{where}.{k}" if where else k, close)
    elif isinstance(want, list) and isinstance(got, list):
        if len(got) != len(want):
            yield where, want, got
            return
        for i, (g, w) in enumerate(zip(got, want)):
            yield from _differences(g, w, f"{where}[{i}]", close)
    elif not close(got, want):
        yield where, want, got


def _mismatch(got, want, where: str) -> str | None:
    """Where got and want first differ, or None if they agree."""
    for at, w, g in _differences(got, want, where, _close):
        return f"{at}: {g!r} != {w!r}"
    return None


def test_fixture_covers_the_bundled_catalog():
    golden = json.loads(FIXTURE.read_text(encoding="utf-8"))
    assert sorted(golden) == _bundled_names()


@pytest.mark.parametrize("name", _bundled_names())
def test_bundled_records_match_the_fixture(name):
    want = json.loads(FIXTURE.read_text(encoding="utf-8"))[name]
    bad = _mismatch(_records(name), want, name)
    assert bad is None, bad


if __name__ == "__main__":
    records = {n: _records(n) for n in _bundled_names()}
    for where, was, now in _differences(
            records, json.loads(FIXTURE.read_text(encoding="utf-8")), "",
            _same):
        print(f"{where}: {was!r} -> {now!r}")
    FIXTURE.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n",
                       encoding="utf-8")
