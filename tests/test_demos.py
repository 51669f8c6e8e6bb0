"""Smoke test: every demo script and the README quick start run against the package in src/."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_all_demos_found():
    assert len(DEMOS) == 6


def run_python(args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    result = run_python([str(demo)], tmp_path)
    assert result.returncode == 0, result.stderr


def test_readme_quick_start_runs(tmp_path):
    # the first python block after the "## Quick start" heading, run as a script
    section = (ROOT / "README.md").read_text().split("## Quick start", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    result = run_python(["-c", block], tmp_path)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip(), "the quick start printed nothing"
