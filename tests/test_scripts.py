"""The demonstration scripts run to completion and print their headlines."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                               else []))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / name),
                           *args], capture_output=True, text=True, env=env,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_obstruction_demo_headlines():
    out = run_script("obstruction_demo.py", "--samples", "8")
    assert "transport refused" in out
    assert "torus build refused" in out
    assert "checker passes" in out


def test_cohomology_table_h1_is_four():
    out = run_script("cohomology_table.py", "--max-truncation", "1")
    rows = [line.split() for line in out.splitlines()[1:]]
    assert [(row[0], row[6]) for row in rows] == [("0", "4"), ("1", "4")]
