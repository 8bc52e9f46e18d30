"""Shared fixtures: built-in pairs and cached solver runs, and the
contraction iteration on a given grid.

The expensive conjugation solves are session-scoped so the whole suite
pays for each grid size once.
"""

import numpy as np
import pytest

from pconfig import (
    conjugate_to_standard,
    contraction_step,
    identity,
    make_monotone,
    perturbed_flat_pair,
    quadratic_pair,
    standard_pair,
)


#: The contraction iteration stops once two successive iterates are this
#: close, and fails the test after MAX_STEPS applications of T.
STEP_TOL = 1e-10
MAX_STEPS = 200


def iterate_contraction(pair, nodes, start=None):
    """Iterate the halving pull-back operator T with `contraction_step`.

    The iteration runs on `nodes` from `start` resampled onto them (the
    identity if None) until two successive iterates are within
    STEP_TOL.  Returns the last iterate, the sup-distances between
    successive iterates and their successive ratios.
    """
    if start is None:
        g = identity(nodes=nodes)
    else:
        g = make_monotone(nodes, np.interp(nodes, start.nodes, start.values))
    distances = []
    while not distances or distances[-1] > STEP_TOL:
        assert len(distances) < MAX_STEPS, f"no convergence to {STEP_TOL}"
        g_next = contraction_step(g, pair)
        distances.append(float(np.max(np.abs(g_next.values - g.values))))
        g = g_next
    ratios = [b / a for a, b in zip(distances, distances[1:]) if a > 0.0]
    return g, distances, ratios


@pytest.fixture(scope="session")
def std():
    return standard_pair()


@pytest.fixture(scope="session")
def quad02():
    return quadratic_pair(0.2)


@pytest.fixture(scope="session")
def quad_m02():
    return quadratic_pair(-0.2)


@pytest.fixture(scope="session")
def pf2():
    return perturbed_flat_pair(2)


@pytest.fixture(scope="session")
def pf3():
    return perturbed_flat_pair(3)


@pytest.fixture(scope="session")
def quad02_solved(quad02):
    """(h, log) for quadratic(0.2) at the default grid 2^12 + 1."""
    return conjugate_to_standard(quad02, grid=4097)


@pytest.fixture(scope="session")
def quad02_solved_16k(quad02):
    """(h, log) for quadratic(0.2) at grid 2^14 + 1."""
    return conjugate_to_standard(quad02, grid=16385)


@pytest.fixture(scope="session")
def quad02_solved_64k(quad02):
    """(h, log) for quadratic(0.2) at grid 2^16 + 1 (regularity probes)."""
    return conjugate_to_standard(quad02, grid=65537)
