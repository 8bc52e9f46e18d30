"""Refusals: every input the library cannot accept is one type, raised
by the library."""

import dataclasses
import math

import numpy as np
import pytest

from pconfig import (
    BadArgument,
    InvalidPair,
    MonotoneFunction,
    PConfigError,
    build_family,
    build_orbit_grid,
    conjugate,
    conjugate_to_standard,
    contraction_step,
    difference_quotients,
    dyadic_fixed_point_check,
    evaluate,
    fe_residual,
    from_csv,
    identity,
    invert,
    labelled_orbit,
    nonregular_experiment,
    oracle_quotient_enclosure,
    perturbed_flat_pair,
    quadratic_pair,
    solve_nonlinear,
    standard_pair,
    validate,
)
from pconfig.families import MAX_GRID

QUAD = quadratic_pair(0.2)
H = identity(4097)
# the standard maps with a first derivative that vanishes everywhere, under
# a name of its own: conjugate reads no maps of a target named standard
FLAT = dataclasses.replace(
    standard_pair(), family="flat",
    d_delta1=lambda t: np.zeros_like(t, dtype=float))


@pytest.mark.parametrize("call, message", [
    (lambda: validate(QUAD, grid=256), "grid must be >= 257"),
    (lambda: validate(QUAD, grid=MAX_GRID + 1), "grid must be >= 257"),
    (lambda: fe_residual(H, QUAD, grid=3), "grid must be >= 257"),
    (lambda: solve_nonlinear(QUAD, grid=10 ** 14), "grid must be >= 257"),
    (lambda: conjugate_to_standard(QUAD, grid=-5), "grid must be >= 257"),
    (lambda: conjugate(QUAD, standard_pair(), grid=10 ** 14),
     "grid must be >= 257"),
    (lambda: difference_quotients(H, 0.5), "t0 must be -1 or 1"),
    # the scales relate by their bounds: k_max from k_min + 1 to 1023
    (lambda: difference_quotients(H, 1.0, 3, 3),
     "k_max must be >= 4 and <= 1023, got 3$"),
    (lambda: difference_quotients(H, 1.0, 0, 4),
     "k_min must be >= 1 and <= 1022, got 0$"),
    (lambda: difference_quotients(H, 1.0, 1, 1024),
     "k_max must be >= 2 and <= 1023, got 1024$"),
    (lambda: difference_quotients(H, 1.0, 1, 1075),
     "k_max must be >= 2 and <= 1023, got 1075$"),
    (lambda: difference_quotients(H, 1.0, 1, 10 ** 10),
     "k_max must be >= 2 and <= 1023, got 10000000000$"),
    (lambda: oracle_quotient_enclosure(QUAD, -0.5), "t0 must be -1 or 1"),
    (lambda: oracle_quotient_enclosure(QUAD, 1.0, 9, 8),
     "k_max must be >= 10 and <= 1023, got 8$"),
    (lambda: oracle_quotient_enclosure(QUAD, 1.0, 1, 1024),
     "k_max must be >= 2 and <= 1023, got 1024$"),
    (lambda: oracle_quotient_enclosure(QUAD, 1.0, 1, 1075),
     "k_max must be >= 2 and <= 1023, got 1075$"),
    (lambda: oracle_quotient_enclosure(QUAD, 1.0, 1, 10 ** 10),
     "k_max must be >= 2 and <= 1023, got 10000000000$"),
    (lambda: oracle_quotient_enclosure(QUAD, 1.0, 1, 2, depth=-1), "depth"),
    # past 1074 the label step 2^-depth is below the smallest double
    (lambda: oracle_quotient_enclosure(QUAD, 1.0, 1, 2, depth=1075),
     "depth must be >= 0 and <= 1074, got 1075"),
    (lambda: oracle_quotient_enclosure(QUAD, 1.0, 1, 2, depth=10 ** 5),
     "depth must be >= 0 and <= 1074"),
    (lambda: oracle_quotient_enclosure(QUAD, 1.0, 1, 2,
                                       depth=np.int64(1075)),
     "depth must be >= 0 and <= 1074"),
    (lambda: build_orbit_grid(QUAD, -1), "orbit depth"),
    (lambda: labelled_orbit(QUAD, -1), "orbit depth"),
    (lambda: nonregular_experiment(2, 2), "n != k"),
    (lambda: nonregular_experiment(0, 1), "n must be >= 1 and <= 51, got 0$"),
    # integer arguments refuse floats and bools before any work
    (lambda: validate(QUAD, grid=4097.0), "grid must be an integer"),
    (lambda: validate(QUAD, grid=True), "grid must be an integer"),
    (lambda: fe_residual(H, QUAD, grid=1000.5), "grid must be an integer"),
    (lambda: solve_nonlinear(QUAD, grid=2 ** 20 + 1.0),
     "grid must be an integer"),
    (lambda: conjugate_to_standard(QUAD, grid=4097.0),
     "grid must be an integer"),
    (lambda: nonregular_experiment(2, 3, grid=257.0),
     "grid must be an integer"),
    (lambda: difference_quotients(H, 1.0, 4.5, 8), "k_min must be an integer"),
    (lambda: difference_quotients(H, 1.0, True, 4),
     "k_min must be an integer"),
    (lambda: difference_quotients(H, 1.0, 4, 8.0), "k_max must be an integer"),
    (lambda: dyadic_fixed_point_check(H, QUAD, m_max=3.5),
     "m_max must be an integer"),
    (lambda: dyadic_fixed_point_check(H, QUAD, m_max=True),
     "m_max must be an integer"),
    (lambda: dyadic_fixed_point_check(H, QUAD, m_max=0), "m_max must be >= 1"),
    (lambda: oracle_quotient_enclosure(QUAD, 1.0, 6.5, 13),
     "k_min must be an integer"),
    (lambda: oracle_quotient_enclosure(QUAD, depth=3.0),
     "depth must be an integer"),
    (lambda: oracle_quotient_enclosure(QUAD, depth=False),
     "depth must be an integer"),
    (lambda: build_orbit_grid(QUAD, 2.0), "orbit depth must be an integer"),
    (lambda: labelled_orbit(QUAD, 2.0), "orbit depth must be an integer"),
    # a depth past the solver's at MAX_GRID would walk 2^25 points or more
    (lambda: build_orbit_grid(QUAD, 24), "orbit depth must be >= 0 and <= 23"),
    (lambda: labelled_orbit(QUAD, 24),
     "orbit depth must be >= 0 and <= 23"),
    (lambda: build_orbit_grid(QUAD, 40), "orbit depth must be >= 0 and <= 23"),
    # the refusals that had classes of their own
    (lambda: invert(MonotoneFunction([-1, 0.2, 0.4, 1], [-1, 0, 0, 1])),
     "plateau detected"),
    (lambda: evaluate(H, 1.5), r"evaluation point outside \[-1, 1\]"),
    (lambda: contraction_step(MonotoneFunction([-1, 0, 1], [-1, 0.1, 1]),
                              QUAD), "iterate must fix -1, 0 and 1"),
    (lambda: difference_quotients(identity(257), 1.0, 4, 8),
     "below grid resolution"),
    (lambda: build_family({"family": "cubic"}), "unknown family 'cubic'"),
    (lambda: build_family("[1, 2]"), "descriptor must be a dict, got list"),
    (lambda: build_family(3), "descriptor must be a dict, got int"),
    (lambda: MonotoneFunction(np.zeros((2, 2)), np.zeros((2, 2))),
     "1-d arrays of equal length"),
    (lambda: MonotoneFunction([-1, 1], [-1, 0, 1]),
     "1-d arrays of equal length"),
    (lambda: MonotoneFunction([-1, 0, 1], [-1, 0.5, 0.2]),
     "values must be nondecreasing"),
    (lambda: from_csv("t,value\n-1,-1\n0;0\n1,1\n"), "line 3: "),
    # each integer argument has bounds, checked before any allocation; a
    # refused value past 64 bits is named by its length in bits
    (lambda: dyadic_fixed_point_check(H, QUAD, m_max=54),
     "m_max must be >= 1 and <= 53, got 54$"),
    (lambda: dyadic_fixed_point_check(H, QUAD, m_max=2 ** 40),
     "m_max must be >= 1 and <= 53, got 1099511627776$"),
    (lambda: dyadic_fixed_point_check(H, QUAD, m_max=10 ** 5000),
     "m_max must be >= 1 and <= 53, got an integer of 16610 bits$"),
    (lambda: validate(QUAD, grid=10 ** 5000),
     "grid must be >= 257 and <= 16777217, got an integer of 16610 bits$"),
    (lambda: validate(QUAD, grid=-10 ** 5000),
     "got a negative integer of 16610 bits$"),
    (lambda: labelled_orbit(QUAD, 10 ** 5000),
     "orbit depth must be >= 0 and <= 23, got an integer of 16610 bits$"),
    (lambda: identity(2.5), "n must be an integer, got 2.5$"),
    (lambda: identity(1), "n must be >= 2 and <= 16777217, got 1$"),
    (lambda: identity(MAX_GRID + 1),
     "n must be >= 2 and <= 16777217, got 16777218$"),
    (lambda: perturbed_flat_pair(0), "n must be >= 1 and <= 51, got 0$"),
    (lambda: perturbed_flat_pair(52), "n must be >= 1 and <= 51, got 52$"),
    (lambda: perturbed_flat_pair(10 ** 400),
     "n must be >= 1 and <= 51, got an integer of 1329 bits$"),
    # a descriptor number that float() refuses
    (lambda: quadratic_pair(None), "c must be a number, got None$"),
    (lambda: quadratic_pair([1]), r"c must be a number, got \[1\]$"),
    (lambda: quadratic_pair("abc"), "c must be a number, got 'abc'$"),
    # a number is a real number, not text or a bool, that a float holds
    (lambda: build_family({"family": "quadratic", "c": "0.2"}),
     "^quadratic: c must be a number, got '0.2'$"),
    (lambda: build_family({"family": "polynomial", "delta1": ["0.5", "0.5"]}),
     r"^polynomial: delta1\[0\] must be a number, got '0.5'$"),
    (lambda: quadratic_pair(np.True_), "c must be a number, got np.True_$"),
    (lambda: quadratic_pair([10 ** 5000]), "c must be a number, got a list$"),
    (lambda: difference_quotients(H, True), "t0 must be a number, got True$"),
    (lambda: oracle_quotient_enclosure(QUAD, True),
     "t0 must be a number, got True$"),
    (lambda: difference_quotients(H, 1.0, 1, 10 ** 5000),
     "k_max must be >= 2 and <= 1023, got an integer of 16610 bits$"),
    (lambda: nonregular_experiment(10 ** 5000, 10 ** 5000),
     "n must be >= 1 and <= 51, got an integer of 16610 bits$"),
    (lambda: nonregular_experiment(-10 ** 5000, 1),
     "n must be >= 1 and <= 51, got a negative integer of 16610 bits$"),
    (lambda: nonregular_experiment("a", 2), "n must be an integer, got 'a'$"),
    # the second cell is named as k
    (lambda: nonregular_experiment(2, 0), "k must be >= 1 and <= 51, got 0$"),
    (lambda: nonregular_experiment(2, 52),
     "k must be >= 1 and <= 51, got 52$"),
    # sample arrays and evaluation points hold integers or floats
    (lambda: MonotoneFunction(["-1", "1"], ["-1", "1"]),
     "nodes must hold integers or floats, got dtype <U2$"),
    (lambda: MonotoneFunction([-1.0, 1.0], [False, True]),
     "values must hold integers or floats, got dtype bool$"),
    (lambda: MonotoneFunction([-1.0, 1.0], [-1, 10 ** 5000]),
     "values must hold integers or floats, got dtype object$"),
    (lambda: MonotoneFunction([[-1.0], [0.0, 1.0]], [-1.0, 1.0]),
     "nodes is not an array: "),
    (lambda: evaluate(H, "0.5"),
     "evaluation points must hold integers or floats, got dtype <U3$"),
    (lambda: evaluate(H, True),
     "evaluation points must hold integers or floats, got dtype bool$"),
    (lambda: evaluate(H, [0.5, None]),
     "evaluation points must hold integers or floats, got dtype object$"),
    # nesting deeper than the JSON parser recurses
    (lambda: build_family("[" * 100000), "descriptor is not valid JSON: "),
], ids=["validate", "validate-ceiling", "fe-residual",
        "solve-nonlinear", "conjugate-to-standard", "conjugate",
        "probe-t0", "probe-one-scale", "probe-k0", "probe-float-ceiling",
        "probe-ceiling", "probe-huge-k", "enclosure-t0", "enclosure-k-order",
        "enclosure-float-ceiling", "enclosure-ceiling", "enclosure-huge-k",
        "enclosure-depth", "enclosure-depth-ceiling", "enclosure-huge-depth",
        "enclosure-numpy-depth",
        "orbit-grid-depth", "labelled-orbit-depth",
        "equal-cells", "cell-zero",
        "validate-float", "validate-bool", "fe-residual-float",
        "solve-nonlinear-float", "conjugate-to-standard-float",
        "experiment-float", "probe-float-k-min", "probe-bool-k-min",
        "probe-float-k-max", "dyadic-float", "dyadic-bool", "dyadic-zero",
        "enclosure-float-k-min", "enclosure-float-depth",
        "enclosure-bool-depth", "orbit-grid-float", "labelled-orbit-float",
        "orbit-grid-ceiling", "labelled-orbit-ceiling", "orbit-grid-huge",
        "plateau", "outside-domain", "unpinned", "scale-below-grid",
        "bad-descriptor", "list-descriptor", "int-descriptor",
        "2d-samples", "unequal-samples", "decreasing-samples",
        "bad-csv-line", "dyadic-ceiling", "dyadic-huge", "dyadic-past-digits",
        "validate-past-digits", "validate-negative-past-digits",
        "labelled-orbit-past-digits", "identity-float", "identity-one",
        "identity-ceiling", "flat-zero", "flat-ceiling", "flat-huge",
        "quadratic-none", "quadratic-list", "quadratic-text",
        "descriptor-text-c", "descriptor-text-coefficient",
        "quadratic-numpy-bool", "quadratic-list-past-digits", "probe-bool-t0",
        "enclosure-bool-t0", "probe-past-digits", "experiment-past-digits",
        "experiment-negative-past-digits", "experiment-text",
        "experiment-k-zero", "experiment-k-ceiling", "text-samples",
        "bool-samples", "object-samples", "ragged-samples", "text-point",
        "bool-point", "object-point", "deep-descriptor"])
def test_each_refusal_is_a_bad_argument(call, message, address_space_cap):
    with pytest.raises(BadArgument, match=message) as info:
        call()
    assert isinstance(info.value, PConfigError)
    assert isinstance(info.value, ValueError)


# a polynomial pair whose branches increase but whose delta1(-1) is -0.01
BAD_BOUNDARY = build_family({"family": "polynomial",
                             "delta1": [0.5, 0.5, -0.01]})


@pytest.mark.parametrize("call", [
    lambda pair: conjugate_to_standard(pair),
    lambda pair: conjugate(pair, standard_pair()),
    lambda pair: conjugate(QUAD, pair),
    lambda pair: contraction_step(identity(257), pair),
    lambda pair: oracle_quotient_enclosure(pair),
], ids=["conjugate-to-standard", "conjugate-source", "conjugate-target",
        "contraction-step", "enclosure"])
@pytest.mark.parametrize("pair, message", [
    (BAD_BOUNDARY, "pair classifies as 'invalid': boundary pattern fails$"),
    (quadratic_pair(0.3), "delta1 is decreasing somewhere$"),
    (FLAT, "delta1 is flat on an interval; branch not invertible$"),
], ids=["bad-boundary", "quadratic(0.3)", "flat-branch"])
def test_each_refused_pair_is_an_invalid_pair(call, pair, message):
    # families.check_pair admits every pair a solve, a step of T or the
    # endpoint enclosure reads
    with pytest.raises(InvalidPair, match=message) as info:
        call(pair)
    assert isinstance(info.value, PConfigError)
    assert not isinstance(info.value, ValueError)


def test_numpy_integers_are_integers():
    grid, two, four = np.int64(257), np.int64(2), np.int64(4)
    assert validate(QUAD, grid=grid).grid == 257
    assert conjugate_to_standard(QUAD, grid=grid)[1].grid == 257
    assert difference_quotients(H, 1.0, two, four).k_values == (2, 3, 4)
    assert oracle_quotient_enclosure(QUAD, 1.0, two, four,
                                     depth=four).k_values == (2, 3, 4)
    assert len(dyadic_fixed_point_check(H, QUAD, m_max=four).m_values) == 4
    assert build_orbit_grid(QUAD, two).size == 9
    assert labelled_orbit(QUAD, two).size == 9


@pytest.mark.parametrize("pair", [QUAD, quadratic_pair(-0.2), standard_pair()],
                         ids=repr)
@pytest.mark.parametrize("t0", [-1.0, 1.0])
@pytest.mark.parametrize("depth", [0, 22])
def test_enclosure_is_finite_at_the_ceiling(pair, t0, depth):
    # a quotient bound (j + 1) 2^(k - depth) reaches 2^k, which a float
    # still holds at the ceiling k = 1023 and no longer at 1024
    enc = oracle_quotient_enclosure(pair, t0, 1, 1023, depth=depth)
    assert enc.k_values[-1] == 1023
    assert all(math.isfinite(lo) and math.isfinite(hi)
               for lo, hi in enc.quotient_bounds)
