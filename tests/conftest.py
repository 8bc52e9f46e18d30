"""Shared fixtures: built-in pairs and cached solver runs, the sup
distance of two functions on shared nodes, the contraction iteration on a
given grid, the 120-bit orbit the library's float orbit is checked
against, and the flat family's maps one ramp at a time, which the
library's evaluator is checked against bit for bit.

The expensive conjugation solves are session-scoped so the whole suite
pays for each grid size once.
"""

import mpmath
import numpy as np
import pytest

from pconfig import (
    MonotoneFunction,
    conjugate_to_standard,
    contraction_step,
    flat_interval,
    identity,
    perturbed_flat_pair,
    quadratic_pair,
    standard_pair,
)


def sup_gap(f, g):
    """sup |f - g| of two functions sampled on the same nodes.  Their
    difference is linear between the nodes, so this is the sup over
    [-1, 1] too."""
    assert np.array_equal(f.nodes, g.nodes)
    return float(np.max(np.abs(f.values - g.values)))


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
        g = MonotoneFunction(nodes, np.interp(nodes, start.nodes, start.values))
    distances = []
    while not distances or distances[-1] > STEP_TOL:
        assert len(distances) < MAX_STEPS, f"no convergence to {STEP_TOL}"
        g_next = contraction_step(g, pair)
        distances.append(float(np.max(np.abs(g_next.values - g.values))))
        g = g_next
    ratios = [b / a for a, b in zip(distances, distances[1:]) if a > 0.0]
    return g, distances, ratios


#: Working precision of the reference orbit, in bits.
EXACT_BITS = 120


def exact_maps(pair):
    """delta1 and delta2 of a standard, quadratic or polynomial `pair` on
    mpmath numbers, rounded to the working precision of the caller.

    The coefficients are the pair's binary floats, taken exactly; a
    polynomial pair without explicit ``delta2`` gets t - delta1.
    """
    params = pair.params
    if pair.family == "standard":
        def delta1(t):
            return (t + 1) / 2
    elif pair.family == "quadratic":
        c = mpmath.mpf(params["c"])

        def delta1(t):
            return (t + 1) / 2 + c * (1 - t * t)
    elif pair.family == "polynomial":
        a1 = [mpmath.mpf(a) for a in reversed(params["delta1"])]

        def delta1(t):
            return mpmath.polyval(a1, t)
        if "delta2" in params:
            a2 = [mpmath.mpf(a) for a in reversed(params["delta2"])]
            return delta1, lambda t: mpmath.polyval(a2, t)
    else:
        raise ValueError(f"no exact maps for family {pair.family!r}")
    return delta1, lambda t: t - delta1(t)


def exact_orbit(pair, depth):
    """The labelled orbit of `pair` walked at EXACT_BITS bits, each point
    rounded to the nearest float.

    Entry k is the image of an anchor under the branch word whose
    standard image is -1 + k 2^-depth, the order of the library's
    labelled orbit: level l + 1 is delta2 of level l followed by delta1
    of level l without its first point.
    """
    delta1, delta2 = exact_maps(pair)
    with mpmath.workprec(EXACT_BITS):
        x = [mpmath.mpf(a) for a in (-1, 0, 1)]
        for _ in range(depth):
            x = [delta2(t) for t in x] + [delta1(t) for t in x[1:]]
    with mpmath.workprec(53):
        return np.array([float(+t) for t in x])


def flat_reference(n):
    """delta1, delta2, delta1' and delta2' of ``perturbed_flat(n)``, its
    two bumps evaluated one ramp at a time.

    On J_n, with u = (t - left) / width, delta1' is
    1/2 - phi(u)/2 + m psi(u) and delta1 its integral from the left
    edge.  Each bump rises over a ramp of width r, holds a plateau and
    falls over a second ramp; a ramp is the smoothstep x^2 (3 - 2x) of
    x clipped to [0, 1], with integral x^3 - x^4/2.  phi runs over
    [3/8, 5/8] with r = 1/8, psi over [0, 1/4] with r = 1/16, and
    m = 1/3.  Off the half-open J_n the maps are the standard ones.
    """
    left, right = flat_interval(n)
    width = right - left
    w, p = 0.125, 0.5
    m = 4.0 * w / (1.0 + p)
    r = (1.0 - p) / 8.0

    def ramp(x):
        x = np.clip(x, 0.0, 1.0)
        return x * x * (3.0 - 2.0 * x), x ** 3 - 0.5 * x ** 4

    def bump(u, a, b, r):
        rise, rise_int = ramp((u - a) / r)
        fall, fall_int = ramp((b - u) / r)
        plateau = np.clip(u - (a + r), 0.0, b - a - 2.0 * r)
        return (np.minimum(rise, fall),
                r * rise_int + plateau + r * (0.5 - fall_int))

    def on_cell(t, integral):
        t = np.asarray(t, dtype=float)
        out = np.asarray((t + 1.0) / 2.0 if integral else np.full(t.shape, 0.5))
        inside = (t >= left) & (t < right)
        if not inside.any():
            return out
        u = (t[inside] - left) / width
        phi, phi_int = bump(u, 0.5 - w, 0.5 + w, w)
        psi, psi_int = bump(u, 0.0, 0.25, r)
        if integral:
            g_int = u / 2 - phi_int / 2 + m * psi_int
            out[inside] = (left + 1.0) / 2.0 + width * g_int
        else:
            out[inside] = 0.5 - phi / 2 + m * psi
        return out

    def d1(t):
        return on_cell(t, integral=True)

    def d1p(t):
        return on_cell(t, integral=False)

    return (d1, lambda t: np.asarray(t, dtype=float) - d1(t),
            d1p, lambda t: 1.0 - d1p(t))


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
