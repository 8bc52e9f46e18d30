"""Golden outputs: every byte the CLI writes for quadratic(0.2).

Each command runs through ``cli.main``; its exit code, stdout, stderr and
the SHA-256 of every file it writes must match ``golden/manifest.json``.
No output names the ``--out`` directory, so the run directory does not
matter.  Float output depends on the numpy and Python builds, so the
manifest records the versions it was made with and a mismatch names them.

Regenerate the manifest, only when an output is meant to change, with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import hashlib
import io
import json
import platform
import tempfile
from pathlib import Path

import numpy as np
import pytest

from pconfig.cli import main

MANIFEST = Path(__file__).parent / "golden" / "manifest.json"

#: Commands in run order; ``{config}`` is quadratic(0.2)'s descriptor and
#: ``{h_csv}`` the h.csv the ``conjugate`` command wrote.
COMMANDS = {
    "validate": ["validate", "--config", "{config}"],
    "conjugate": ["conjugate", "--config", "{config}", "--grid", "4097"],
    "probe-t0+1": ["probe", "--h-csv", "{h_csv}", "--t0=1"],
    "probe-t0-1": ["probe", "--h-csv", "{h_csv}", "--t0=-1"],
    "conjugate-target": ["conjugate", "--config", "{config}", "--grid", "4097",
                         "--target", "quadratic:-0.2"],
    "solve-fe": ["solve-fe", "--config", "{config}", "--grid", "4097"],
    "nonregular": ["nonregular", "--grid", "257"],
}


def versions() -> dict:
    return {"numpy": np.__version__, "python": platform.python_version()}


def run_commands(root: Path) -> dict:
    """Run every command under `root`; its exit code, stdout, stderr and
    the SHA-256 of each file it wrote, by command name."""
    config = root / "quad.json"
    config.write_text(json.dumps({"family": "quadratic", "c": 0.2}))
    paths = {"config": config, "h_csv": root / "conjugate" / "h.csv"}
    results = {}
    for name, argv in COMMANDS.items():
        out = root / name
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            code = main([a.format(**paths) for a in argv] + ["--out", str(out)])
        results[name] = {
            "exit": code,
            "stdout": stdout.getvalue(),
            "stderr": stderr.getvalue(),
            "files": {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                      for p in sorted(out.iterdir())},
        }
    return results


@pytest.fixture(scope="module")
def results(tmp_path_factory):
    return run_commands(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("name", list(COMMANDS))
def test_output_matches_the_manifest(name, results):
    manifest = json.loads(MANIFEST.read_text())
    made_with = {k: manifest[k] for k in versions()}
    assert results[name] == manifest["commands"][name], (
        f"{name}: outputs differ from the manifest, made with {made_with}; "
        f"running {versions()}")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        manifest = {**versions(), "commands": run_commands(Path(tmp))}
    MANIFEST.parent.mkdir(exist_ok=True)
    MANIFEST.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
