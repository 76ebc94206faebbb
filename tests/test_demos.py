"""Smoke test: every numbered demo, and the permutation-circuit
re-derivation in its default verify mode, runs to completion against
``src`` and writes nothing into the checkout."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = [*sorted((ROOT / "demos").glob("0*.py")),
         ROOT / "demos" / "derive_permutation_circuits.py"]


def _tree():
    """Every file of the checkout outside .git, with its modification time."""
    out = set()
    for d, dirs, files in os.walk(ROOT):
        dirs[:] = [x for x in dirs if x != ".git"]
        for f in files:
            path = os.path.join(d, f)
            out.add((path, os.stat(path).st_mtime_ns))
    return out


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    before = _tree()
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert _tree() == before
