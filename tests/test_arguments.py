"""Argument refusals: each is one type, raised by the library."""

import pytest

from pconfig import (
    BadArgument,
    PConfigError,
    build_orbit_grid,
    conjugate,
    conjugate_to_standard,
    difference_quotients,
    fe_residual,
    guiding_sets,
    identity,
    nonregular_experiment,
    oracle_quotient_enclosure,
    orbit_points,
    quadratic_pair,
    solve_nonlinear,
    standard_pair,
    validate,
)
from pconfig.families import MAX_GRID

QUAD = quadratic_pair(0.2)
H = identity(4097)


@pytest.mark.parametrize("call, message", [
    (lambda: validate(QUAD, grid=256), "grid must be >= 257"),
    (lambda: validate(QUAD, grid=MAX_GRID + 1), "grid must be >= 257"),
    (lambda: guiding_sets(QUAD, grid=2), "grid must be >= 257"),
    (lambda: fe_residual(H, QUAD, grid=3), "grid must be >= 257"),
    (lambda: solve_nonlinear(QUAD, grid=10 ** 14), "grid must be >= 257"),
    (lambda: conjugate_to_standard(QUAD, grid=-5), "grid must be >= 257"),
    (lambda: conjugate(QUAD, standard_pair(), grid=10 ** 14),
     "grid must be >= 257"),
    (lambda: difference_quotients(H, 0.5), "t0 must be -1 or 1"),
    (lambda: difference_quotients(H, 1.0, 3, 3), "k_min < k_max"),
    (lambda: difference_quotients(H, 1.0, 0, 4), "k_min < k_max"),
    (lambda: difference_quotients(H, 1.0, 1, 1075), "k_max <= 1074"),
    (lambda: difference_quotients(H, 1.0, 1, 10 ** 10), "k_max <= 1074"),
    (lambda: oracle_quotient_enclosure(QUAD, -0.5), "t0 must be -1 or 1"),
    (lambda: oracle_quotient_enclosure(QUAD, 1.0, 9, 8), "k_min < k_max"),
    (lambda: oracle_quotient_enclosure(QUAD, 1.0, 1, 1075), "k_max <= 1074"),
    (lambda: oracle_quotient_enclosure(QUAD, 1.0, 1, 10 ** 10),
     "k_max <= 1074"),
    (lambda: oracle_quotient_enclosure(QUAD, 1.0, 1, 2, depth=-1), "depth"),
    (lambda: build_orbit_grid(QUAD, -1), "orbit depth"),
    (lambda: orbit_points(QUAD, -1), "orbit depth"),
    (lambda: orbit_points(QUAD, 2, bases=(1.0, 0.5)), "bases"),
    (lambda: nonregular_experiment(2, 2), "n != k"),
    (lambda: nonregular_experiment(0, 1), "both >= 1"),
], ids=["validate", "validate-ceiling", "guiding-sets", "fe-residual",
        "solve-nonlinear", "conjugate-to-standard", "conjugate",
        "probe-t0", "probe-one-scale", "probe-k0", "probe-ceiling",
        "probe-huge-k", "enclosure-t0", "enclosure-k-order",
        "enclosure-ceiling", "enclosure-huge-k", "enclosure-depth",
        "orbit-grid-depth", "orbit-points-depth", "orbit-points-bases",
        "equal-cells", "cell-zero"])
def test_each_refusal_is_a_bad_argument(call, message, address_space_cap):
    with pytest.raises(BadArgument, match=message) as info:
        call()
    assert isinstance(info.value, PConfigError)
    assert isinstance(info.value, ValueError)
