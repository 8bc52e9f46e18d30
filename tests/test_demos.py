"""Every demo script, and README's quick start, runs to completion, and
each demo prints the bytes ``golden/manifest.json`` records for it."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from test_golden import MANIFEST, versions

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _run(*args) -> bytes:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, *args], env=env, cwd=ROOT,
                          capture_output=True, timeout=120)
    assert done.returncode == 0, done.stderr.decode(errors="replace")
    return done.stdout


def demo_digest(demo: Path) -> str:
    """The SHA-256 of the stdout of `demo`, which must exit 0."""
    return hashlib.sha256(_run(str(demo))).hexdigest()


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_prints_the_manifest_bytes(demo):
    manifest = json.loads(MANIFEST.read_text())
    made_with = {k: manifest[k] for k in versions()}
    digest = demo_digest(demo)
    assert digest == manifest["demos"][demo.name], (
        f"{demo.name}: stdout differs from the manifest, made with "
        f"{made_with}; running {versions()}")


def test_readme_quick_start_runs():
    # the python block under "## Quick start", so that an API change
    # cannot leave it stale
    readme = (ROOT / "README.md").read_text()
    block = readme.split("## Quick start", 1)[1]
    code = block.split("```python\n", 1)[1].split("```", 1)[0]
    lines = _run("-c", code).decode().splitlines()
    assert lines[0] == "regular" and lines[2] == "0.5"
