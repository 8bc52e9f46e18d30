"""Every demo script, and README's quick start, runs to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _run(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, *args], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_exits_zero(demo):
    _run(str(demo))


def test_readme_quick_start_runs():
    # the python block under "## Quick start", so that an API change
    # cannot leave it stale
    readme = (ROOT / "README.md").read_text()
    block = readme.split("## Quick start", 1)[1]
    code = block.split("```python\n", 1)[1].split("```", 1)[0]
    lines = _run("-c", code).splitlines()
    assert lines[0] == "regular" and lines[2] == "0.5"
