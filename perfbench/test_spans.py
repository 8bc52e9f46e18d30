"""Tests of the benchmark's tracer.

    PYTHONPATH=src python3 -m pytest perfbench
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import pconfig as pc  # noqa: E402
from pconfig import cauchy, conjugacy  # noqa: E402
from spans import Tracer, layer_metrics, missing_spans  # noqa: E402


def test_spans_fire_through_every_import_site_and_restore():
    original = conjugacy.conjugate_to_standard
    pair = pc.quadratic_pair(0.2)
    tracer = Tracer().install()
    try:
        assert cauchy.conjugate_to_standard is pc.conjugate_to_standard
        assert pc.conjugate_to_standard is not original
        pc.solve_nonlinear(tracer.traced_pair(pair), grid=257)
    finally:
        tracer.restore()
    assert conjugacy.conjugate_to_standard is original
    assert cauchy.conjugate_to_standard is original
    assert pc.conjugate_to_standard is original

    metrics = layer_metrics(tracer)
    assert metrics["conjugacy.solve_calls"][0] == 1
    assert metrics["families.validate_calls"][0] == 1
    assert metrics["conjugacy.evals_per_node"][0] == 100.0
    assert metrics["conjugacy.nodes_lost"][0] == 0
    assert missing_spans(tracer, ("conjugacy.pullback", "cauchy.fe_residual",
                                  "eval_calls")) == []
    assert missing_spans(tracer, ("funcspace.to_csv",)) == ["funcspace.to_csv"]


def test_self_time_excludes_children_and_evaluations():
    pair = pc.quadratic_pair(0.1)
    tracer = Tracer().install()
    try:
        pc.conjugate_to_standard(tracer.traced_pair(pair), grid=257)
    finally:
        tracer.restore()
    calls, incl, self_s = tracer.totals()
    assert calls["conjugacy.solve"] == 1
    children = incl["conjugacy.pullback"] + incl["conjugacy.orbit_grid"]
    assert 0.0 <= self_s["conjugacy.solve"] <= incl["conjugacy.solve"] - children
