"""Endpoint regularity probes, oracle enclosures, dyadic checks, and the
flat-cell non-isomorphism experiment."""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from conftest import EXACT_BITS, exact_maps

from pconfig import analysis
from pconfig import (
    BadArgument,
    MonotoneFunction,
    build_family,
    conjugate,
    difference_quotients,
    dyadic_fixed_point_check,
    identity,
    nonregular_experiment,
    oracle_quotient_enclosure,
    perturbed_flat_pair,
    quadratic_pair,
    standard_pair,
)

LN2_LN10 = np.log(2.0) / np.log(10.0)  # local exponent for quadratic(0.2)


# ---------------------------------------------------------------------------
# difference quotients
# ---------------------------------------------------------------------------


def test_identity_quotients_are_one():
    probe = difference_quotients(identity(4097), 1.0, k_min=2, k_max=9)
    assert all(q == 1.0 for q in probe.quotients)
    assert all(r == 1.0 for r in probe.ratios)
    assert abs(probe.holder_exponent - 1.0) <= 1e-6


def test_linear_exponent_is_one():
    nodes = np.linspace(-1, 1, 4097)
    f = MonotoneFunction(nodes, 0.5 * nodes)
    assert abs(difference_quotients(f, -1.0, 2, 9).holder_exponent - 1.0) <= 1e-6


def test_probe_rejects_unresolved_scales():
    # the node gap 2^-7 resolves scales down to 2^-6
    with pytest.raises(BadArgument,
                       match=r"^scale 2\^-7 = .* below grid resolution"):
        difference_quotients(identity(257), 1.0, k_min=4, k_max=8)


def test_probe_validates_arguments():
    with pytest.raises(ValueError, match="t0 must be -1 or 1, got 0.5"):
        difference_quotients(identity(257), 0.5, 2, 4)
    with pytest.raises(ValueError, match="k_max must be >= 6 .*, got 4$"):
        difference_quotients(identity(257), 1.0, 5, 4)
    with pytest.raises(ValueError, match="k_max must be >= 4 .*, got 3$"):
        # one scale leaves nothing to fit the exponent to
        difference_quotients(identity(4097), 1.0, 3, 3)


def test_quotients_match_oracle_enclosure(quad02, quad02_solved_16k):
    h, _ = quad02_solved_16k
    probe = difference_quotients(h, 1.0, k_min=6, k_max=11)
    enc = oracle_quotient_enclosure(quad02, 1.0, k_min=6, k_max=11, depth=20)
    for q, (lo, hi) in zip(probe.quotients, enc.quotient_bounds):
        assert lo * 0.99 <= q <= hi * 1.01


def test_exponent_estimate_in_band_both_endpoints(quad02_solved_16k):
    h, _ = quad02_solved_16k
    for t0 in (1.0, -1.0):
        beta = difference_quotients(h, t0, k_min=6, k_max=11).holder_exponent
        assert 0.27 <= beta <= 0.33


def test_probe_serialization(quad02_solved_16k):
    h, _ = quad02_solved_16k
    probe = difference_quotients(h, 1.0, k_min=6, k_max=9)
    csv = probe.to_csv()
    assert csv.splitlines()[0] == "k,step,quotient,ratio"
    assert len(csv.splitlines()) == 5
    assert '"holder_exponent"' in probe.to_json()


# ---------------------------------------------------------------------------
# the solver-independent enclosure
# ---------------------------------------------------------------------------


def test_oracle_enclosure_brackets_are_ordered(quad02):
    enc = oracle_quotient_enclosure(quad02, 1.0, k_min=6, k_max=13, depth=22)
    for lo, hi in enc.quotient_bounds:
        assert 0 < lo <= hi
    # bracket width is eps / scale, tight at this depth
    for (lo, hi), k in zip(enc.quotient_bounds, enc.k_values):
        assert hi - lo <= 2.0 ** (k - 22) * 1.001


def test_oracle_enclosure_frozen_values(quad02):
    """The confirmed oscillation range of the quotient ratios.

    The naive local-linearization prediction is the constant
    2^(1 - log2/log10) = 1.623; the true ratio sequence oscillates
    log-periodically around it.  These enclosures freeze the measured
    range so any regression in family evaluators or the oracle walk
    trips loudly.
    """
    enc = oracle_quotient_enclosure(quad02, 1.0, k_min=6, k_max=13, depth=22)
    lo = min(b[0] for b in enc.ratio_bounds)
    hi = max(b[1] for b in enc.ratio_bounds)
    assert 1.390 <= lo <= 1.397
    assert 1.835 <= hi <= 1.842
    # the geometric mean of the seven ratios is the seventh root of the
    # last quotient over the first
    first_lo, first_hi = enc.quotient_bounds[0]
    last_lo, last_hi = enc.quotient_bounds[-1]
    gm_lo = (last_lo / first_hi) ** (1 / 7)
    gm_hi = (last_hi / first_lo) ** (1 / 7)
    assert abs(gm_lo - 1.6347) <= 2e-3 and abs(gm_hi - 1.6347) <= 2e-3


def test_oracle_enclosure_below_first_orbit_step(quad_m02):
    """delta1'(1) = 0.9 for quadratic(-0.2), so the first inward orbit
    point at depth 22 lies beyond 2^-13 from t0 = 1: every query falls
    below it, the lower quotient bounds are 0 and the ratios are
    unbounded above.  Valid, if uninformative, bounds; not an error."""
    enc = oracle_quotient_enclosure(quad_m02, 1.0, k_min=6, k_max=13, depth=22)
    for lo, hi in enc.quotient_bounds:
        assert lo == 0.0 < hi
    for lo, hi in enc.ratio_bounds:
        assert lo == 0.0 and hi == np.inf


def test_oracle_enclosure_needs_two_scales(quad02):
    # a single scale has no ratio to enclose
    with pytest.raises(ValueError, match="k_max must be >= 9 .*, got 8$"):
        oracle_quotient_enclosure(quad02, 1.0, k_min=8, k_max=8)
    with pytest.raises(ValueError, match="k_max must be >= 10 .*, got 8$"):
        oracle_quotient_enclosure(quad02, 1.0, k_min=9, k_max=8)
    with pytest.raises(ValueError,
                       match="k_min must be >= 1 and <= 1022, got 0$"):
        # scale 2^0 is the whole interval: no scale is finer than 1/2
        oracle_quotient_enclosure(quad02, 1.0, k_min=0, k_max=8)


def test_oracle_enclosure_needs_nonnegative_depth(quad02):
    for depth in (-1, -2):
        with pytest.raises(ValueError, match="depth"):
            oracle_quotient_enclosure(quad02, 1.0, k_min=1, k_max=2,
                                      depth=depth)
    # the one bracket at depth 0 runs from t0 to 0, where h moves by 1
    enc = oracle_quotient_enclosure(quad02, 1.0, k_min=1, k_max=2, depth=0)
    assert enc.quotient_bounds == ((0.0, 2.0), (0.0, 4.0))


def _label_word(t0, j, depth):
    """The anchor and the branches, innermost first, whose orbit point
    has the label j dyadic steps of 2^-depth inward from t0, read off
    the label as an exact fraction."""
    y = Fraction(int(t0)) - int(t0) * Fraction(j, 2 ** depth)
    branches = []
    while y not in (-1, 0, 1):
        branches.append(1 if y > 0 else 2)
        y = 2 * y - 1 if y > 0 else 2 * y + 1
    return int(y), branches[::-1]


def _inward_distance(pair, t0, j, depth):
    """Distance from t0 of the orbit point j dyadic steps of 2^-depth
    inward, its word walked at EXACT_BITS bits."""
    anchor, branches = _label_word(t0, j, depth)
    delta1, delta2 = exact_maps(pair)
    with mpmath.workprec(EXACT_BITS):
        x = mpmath.mpf(anchor)
        for b in branches:
            x = delta1(x) if b == 1 else delta2(x)
        return abs(x - t0)


@pytest.mark.parametrize("t0", [1.0, -1.0])
@pytest.mark.parametrize("spec, k_min, k_max, depth", [
    ({"family": "quadratic", "c": 0.2}, 6, 13, 22),
    ({"family": "quadratic", "c": -0.1}, 6, 8, 60),
    ({"family": "perturbed_flat", "n": 2}, 6, 13, 22),
    ({"family": "polynomial", "delta1": [0.25, 0.5, 0.75, 0, -0.5]}, 4, 10, 30),
    ({"family": "standard"}, 1, 2, 0),
], ids=["quadratic(0.2)", "quadratic(-0.1)", "perturbed_flat(2)", "T_3",
        "standard-depth0"])
def test_oracle_enclosure_is_the_scalar_bisection(spec, k_min, k_max,
                                                  depth, t0):
    # the reference bisects each scale's bracket index on its own, walking
    # one float label at a time; the enclosure's vectorised descent must
    # give the same bounds bit for bit
    pair = build_family(spec)

    def inward(j):
        anchor, branches = _label_word(t0, j, depth)
        x = float(anchor)
        for b in branches:
            x = float(pair.delta1(x) if b == 1 else pair.delta2(x))
        return abs(x - t0)

    enc = oracle_quotient_enclosure(pair, t0, k_min, k_max, depth)
    for k, bounds in zip(enc.k_values, enc.quotient_bounds):
        s = 2.0 ** -k
        lo, hi = 0, 2 ** depth
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if inward(mid) < s else (lo, mid)
        assert bounds == (lo * 2.0 ** -depth / s, hi * 2.0 ** -depth / s)


@pytest.mark.parametrize("t0", [1.0, -1.0])
@pytest.mark.parametrize("c, depth, k_max", [
    (-0.1, 60, 8), (0.2, 22, 13), (0.1, 22, 13), (-0.2, 22, 13),
    (-0.2, 90, 8),
])
def test_oracle_enclosure_exact_beyond_float_labels(c, depth, k_max, t0):
    # each bracket must be two labels, adjacent below 2^53, whose orbit
    # points straddle the query scale up to 2^-52, the float error of the
    # abscissae the enclosure brackets with.  At depth 22 the points lie
    # far wider apart than that, so the straddle pins each bracket exactly.  At depth 60,
    # where 1 - j 2^-60 is no float, it need not: for quadratic(-0.1) at
    # k = 6 the upper point lies 6.8e-17 short of s, at k = 8 the lower
    # one 2.4e-17 beyond it.  At depth 90 every query of quadratic(-0.2)
    # lies beyond the first inward orbit point, which it does not at 22
    pair = quadratic_pair(c)
    enc = oracle_quotient_enclosure(pair, t0, k_min=6, k_max=k_max,
                                    depth=depth)
    for k, (lo, hi) in zip(enc.k_values, enc.quotient_bounds):
        s = 2.0 ** -k
        # the bounds are the bracket's labels, j and j + 1 steps of
        # 2^-depth, over s; past 2^53 j is rounded down and j + 1 up to
        # floats, which widens the bracket by at most a float spacing each
        # side.  Below 2^53 the bracket is two adjacent labels
        lo_j, hi_j = (int(b * s * 2 ** depth) for b in (lo, hi))
        assert 1 <= hi_j - lo_j <= 1 + 2 * math.ulp(hi_j)
        assert _inward_distance(pair, t0, lo_j, depth) < s + 2.0 ** -52
        assert _inward_distance(pair, t0, hi_j, depth) >= s - 2.0 ** -52


def test_oracle_enclosure_bounds_round_outward_past_float_labels(quad_m02):
    # at depth 90 the labels j of k = 6, 7 pass 2^53; rounded to nearest,
    # each scale's two bounds came out as one float
    enc = oracle_quotient_enclosure(quad_m02, 1.0, k_min=6, k_max=8,
                                    depth=90)
    for k, (lo, hi) in zip(enc.k_values, enc.quotient_bounds):
        assert lo < hi and hi - lo >= 2.0 ** (k - 90)


@pytest.mark.parametrize("c", [0.2, 0.1, -0.1, -0.2])
@pytest.mark.parametrize("t0", [1.0, -1.0])
def test_oracle_enclosure_ratio_bounds_round_outward(c, t0):
    # each ratio bound holds the exact quotient of its own quotient
    # bounds; rounded to nearest, 34 of these 112 sides lay inside it
    enc = oracle_quotient_enclosure(quadratic_pair(c), t0, k_min=6, k_max=13,
                                    depth=22)
    q = enc.quotient_bounds
    for (num_lo, num_hi), (den_lo, den_hi), (lo, hi) in zip(
            q[1:], q, enc.ratio_bounds):
        assert Fraction(lo) <= Fraction(num_lo) / Fraction(den_hi)
        if den_lo == 0.0:
            assert hi == math.inf
        else:
            assert Fraction(hi) >= Fraction(num_hi) / Fraction(den_lo)


def test_oracle_enclosure_standard_pair_is_linear():
    enc = oracle_quotient_enclosure(standard_pair(), 1.0, 4, 8, depth=16)
    for lo, hi in enc.quotient_bounds:
        assert lo <= 1.0 <= hi
        assert hi - lo <= 1e-2


# ---------------------------------------------------------------------------
# dyadic fixed points
# ---------------------------------------------------------------------------


def test_dyadic_check_identity_standard(std):
    table = dyadic_fixed_point_check(identity(4097), std, m_max=8)
    assert all(d == 0.0 for d in table.deviations)
    assert table.orbit_agrees
    assert all(table.resolved)


def test_dyadic_check_flags_unresolved_scales(std):
    table = dyadic_fixed_point_check(identity(17), std, m_max=8)
    assert not all(table.resolved)


def test_dyadic_check_quadratic_orbit_disagrees(quad02):
    table = dyadic_fixed_point_check(identity(1025), quad02, m_max=4)
    assert not table.orbit_agrees


def test_dyadic_check_solved_flat_pair(pf2):
    from pconfig import conjugate_to_standard
    h, _ = conjugate_to_standard(pf2, grid=1025)
    table = dyadic_fixed_point_check(h, pf2, m_max=6)
    assert table.orbit_agrees
    assert any(table.resolved)
    assert all(d <= 1e-6
               for d, r in zip(table.deviations, table.resolved) if r)


# ---------------------------------------------------------------------------
# the non-isomorphism experiment
# ---------------------------------------------------------------------------


def test_experiment_2_3(pf2, pf3):
    report = nonregular_experiment(2, 3, grid=4097)
    assert report.verdict == "non-isomorphic"
    assert 0.75 < report.flat_point_n < 0.875
    assert 0.875 < report.flat_point_k < 0.9375
    assert report.image_in_cell_n
    assert report.max_dyadic_deviation <= 1e-3
    assert report.homeomorphism_ok
    assert report.dyadic_table.orbit_agrees


def test_experiment_1_2():
    report = nonregular_experiment(1, 2, grid=1025)
    assert report.verdict == "non-isomorphic"
    assert 0.5 < report.flat_point_n < 0.75
    assert 0.75 < report.flat_point_k < 0.875


@pytest.mark.parametrize("n, k, grid, rows", [
    (1, 2, 257, 8), (2, 1, 4097, 8), (2, 3, 4097, 8), (3, 5, 257, 8),
    (6, 4, 4097, 8), (9, 10, 4097, 11),
])
def test_experiment_dyadic_points_exact(n, k, grid, rows):
    # the flat-point pairs map the dyadic points onto each other exactly,
    # so h moves none of them by even one ulp; the table has at least 8
    # rows and runs through 1 - 2^-(max(n, k) + 1), the deeper cell's
    # outer endpoint
    report = nonregular_experiment(n, k, grid=grid)
    assert report.dyadic_table.m_values == tuple(range(1, rows + 1))
    assert report.max_dyadic_deviation == 0.0
    assert report.verdict == "non-isomorphic"
    pair_n = perturbed_flat_pair(n)
    h, _ = conjugate(pair_n, perturbed_flat_pair(k), grid=grid)
    table = dyadic_fixed_point_check(h, pair_n, m_max=12)
    assert max(table.deviations) == 0.0


def test_experiment_rejects_equal_cells():
    with pytest.raises(ValueError, match="need cells n != k, .* n=2, k=2"):
        nonregular_experiment(2, 2)
    with pytest.raises(ValueError, match="n must be >= 1 and <= 51, got 0$"):
        nonregular_experiment(0, 1)


def test_dyadic_deviation_detected_for_wrong_intertwiner(pf2):
    # a made-up map that moves the dyadic points shows up in the table
    wrong = MonotoneFunction([-1, 0, 0.9, 1], [-1, 0, 0.5, 1])
    table = dyadic_fixed_point_check(wrong, pf2, m_max=4)
    assert max(table.deviations) > 1e-3


def test_experiment_flags_dyadic_drift(monkeypatch):
    # the deviations of a healthy run are ~0; an unreachable tolerance
    # exercises the misconfiguration guard
    monkeypatch.setattr(analysis, "DYADIC_TOL", -1.0)
    report = nonregular_experiment(2, 3, grid=1025)
    assert report.verdict == "inconclusive"
    assert report.image_in_cell_n


def test_experiment_report_serializes():
    report = nonregular_experiment(2, 3, grid=1025)
    blob = report.to_json()
    assert '"verdict"' in blob and '"dyadic_table"' in blob
