"""Golden check records of every bundled scene.

bundled_records.json holds the records that run_scene gives for each
bundled scene at the default settings, without wall_time.  A refactor
that must not change any verdict is held to it: pass, mode, conditions,
names, witness labels and every string and integer exactly, every float
to 1e-12 relative plus 1e-14 absolute.

After a change that is meant to alter records, regenerate the fixture
with `PYTHONPATH=src python tests/test_bundled_records.py` and review the
difference.
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


def _mismatch(got, want, where: str) -> str | None:
    """Where got and want first differ, or None if they agree."""
    if isinstance(want, float) and isinstance(got, float):
        if got == want or (math.isnan(got) and math.isnan(want)):
            return None
        if abs(got - want) <= REL * abs(want) + ABS:
            return None
        return f"{where}: {got!r} != {want!r}"
    if type(got) is not type(want):
        return f"{where}: {got!r} != {want!r}"
    if isinstance(want, dict):
        if sorted(got) != sorted(want):
            return f"{where}: keys {sorted(got)} != {sorted(want)}"
        for k in want:
            bad = _mismatch(got[k], want[k], f"{where}.{k}")
            if bad:
                return bad
        return None
    if isinstance(want, list):
        if len(got) != len(want):
            return f"{where}: length {len(got)} != {len(want)}"
        for i, (g, w) in enumerate(zip(got, want)):
            bad = _mismatch(g, w, f"{where}[{i}]")
            if bad:
                return bad
        return None
    return None if got == want else f"{where}: {got!r} != {want!r}"


def test_fixture_covers_the_bundled_catalog():
    golden = json.loads(FIXTURE.read_text(encoding="utf-8"))
    assert sorted(golden) == _bundled_names()


@pytest.mark.parametrize("name", _bundled_names())
def test_bundled_records_match_the_fixture(name):
    want = json.loads(FIXTURE.read_text(encoding="utf-8"))[name]
    bad = _mismatch(_records(name), want, name)
    assert bad is None, bad


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps({n: _records(n) for n in _bundled_names()},
                                  indent=1, sort_keys=True) + "\n",
                       encoding="utf-8")
