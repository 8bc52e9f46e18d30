"""Tests of the benchmark's labelled-orbit reference.

    PYTHONPATH=src python3 -m pytest perfbench
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import pconfig as pc  # noqa: E402
from reference import check_h, labelled_orbit, oracle_error  # noqa: E402

PAIRS = [pc.quadratic_pair(0.2), pc.quadratic_pair(-0.13),
         pc.perturbed_flat_pair(2)]


def _flatten(pieces):
    xs, ys = zip(*pieces)
    return np.concatenate(xs), np.concatenate(ys)


@pytest.mark.parametrize("pair", PAIRS, ids=repr)
def test_matches_orbit_points(pair):
    x, y = _flatten(labelled_orbit(pair, pc.standard_pair(), 6))
    expected = np.array(pc.orbit_points(pair, 6))
    assert np.array_equal(x, expected[:, 0])
    assert np.array_equal(y, expected[:, 1])


@pytest.mark.parametrize("pair", PAIRS, ids=repr)
def test_split_levels_give_the_same_words(pair):
    whole = _flatten(labelled_orbit(pair, pc.standard_pair(), 8))
    split = _flatten(labelled_orbit(pair, pc.standard_pair(), 8, chunk=4))
    order = np.lexsort(whole[::-1])
    order_split = np.lexsort(split[::-1])
    assert np.array_equal(whole[0][order], split[0][order_split])
    assert np.array_equal(whole[1][order], split[1][order_split])


def test_solver_output_passes_at_small_depth():
    pair = pc.quadratic_pair(0.2)
    h, _ = pc.conjugate_to_standard(pair, grid=257)
    out = check_h(h.nodes, h.values, pair, pc.standard_pair(), 7)
    assert out["reasons"] == ()
    assert out["node_yield"] == 1.0
    assert out["oracle_err"] < 2.0 ** -7


def test_a_wrong_h_is_caught():
    pair = pc.quadratic_pair(0.2)
    h, _ = pc.conjugate_to_standard(pair, grid=257)
    values = h.values.copy()
    values[len(values) // 3] += 2.0 ** -6
    assert oracle_error(h.nodes, values, pair, pc.standard_pair(), 7) \
        >= 2.0 ** -6 - 1e-12
    identity = check_h(h.nodes, h.nodes, pair, pc.standard_pair(), 7)
    assert "oracle_error" in identity["reasons"]
