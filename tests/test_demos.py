"""Smoke tests: every demo script and the README quickstart run to
completion, silently on stderr."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_cleanly(*args):
    # an overflow or invalid-value warning fails a demo as it fails a test
    out = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", *args],
        capture_output=True,
        text=True,
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert out.stderr == ""


def test_demos_found():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs_cleanly(demo):
    run_cleanly(str(demo))


def test_readme_quickstart_runs_cleanly():
    # the first python block of the README
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    code = readme.split("```python\n", 1)[1].split("\n```", 1)[0]
    run_cleanly("-c", code)
