"""Endpoint regularity probes, oracle enclosures, dyadic checks, and the
flat-cell non-isomorphism experiment."""

from fractions import Fraction

import numpy as np
import pytest

from pconfig import (
    DyadicCheckFailure,
    ScaleBelowGrid,
    Word,
    difference_quotients,
    dyadic_fixed_point_check,
    identity,
    make_monotone,
    nonregular_experiment,
    oracle_quotient_enclosure,
    orbit_oracle,
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
    f = make_monotone(nodes, 0.5 * nodes)
    assert abs(difference_quotients(f, -1.0, 2, 9).holder_exponent - 1.0) <= 1e-6


def test_probe_rejects_unresolved_scales():
    with pytest.raises(ScaleBelowGrid):
        difference_quotients(identity(257), 1.0, k_min=4, k_max=8)


def test_probe_validates_arguments():
    with pytest.raises(ValueError):
        difference_quotients(identity(257), 0.5, 2, 4)
    with pytest.raises(ValueError):
        difference_quotients(identity(257), 1.0, 5, 4)
    with pytest.raises(ValueError):
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
    lo, hi = enc.ratio_envelope
    assert 1.390 <= lo <= 1.397
    assert 1.835 <= hi <= 1.842
    gm_lo, gm_hi = enc.geometric_mean_ratio_bounds()
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
    assert enc.ratio_envelope == (0.0, np.inf)
    assert enc.geometric_mean_ratio_bounds() == (0.0, np.inf)


def test_oracle_enclosure_needs_two_scales(quad02):
    # a single scale has no ratio to enclose
    with pytest.raises(ValueError):
        oracle_quotient_enclosure(quad02, 1.0, k_min=8, k_max=8)
    with pytest.raises(ValueError):
        oracle_quotient_enclosure(quad02, 1.0, k_min=9, k_max=8)


def _inward_distance(pair, t0, j, depth):
    """Distance from t0 of the orbit point whose label lies j dyadic
    steps of 2^-depth inward, the label decoded as an exact fraction."""
    y = Fraction(int(t0)) - int(t0) * Fraction(j, 2 ** depth)
    branches = []
    while y not in (-1, 0, 1):
        branches.append(1 if y > 0 else 2)
        y = 2 * y - 1 if y > 0 else 2 * y + 1
    x, _ = orbit_oracle(pair, Word(reversed(branches), base=float(y)))
    return abs(x - t0)


@pytest.mark.parametrize("t0", [1.0, -1.0])
def test_oracle_enclosure_exact_beyond_float_labels(t0):
    # at depth 60, 1 - j 2^-60 is no float: each bracket must still be
    # two adjacent labels whose orbit points straddle the query scale
    pair, depth = quadratic_pair(-0.1), 60
    enc = oracle_quotient_enclosure(pair, t0, k_min=6, k_max=8, depth=depth)
    for k, (lo, hi) in zip(enc.k_values, enc.quotient_bounds):
        s = 2.0 ** -k
        lo_j, hi_j = int(lo * s * 2 ** depth), int(hi * s * 2 ** depth)
        assert hi_j == lo_j + 1
        assert _inward_distance(pair, t0, lo_j, depth) < s
        assert _inward_distance(pair, t0, hi_j, depth) >= s


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
    assert table.max_resolved_deviation() <= 1e-6


# ---------------------------------------------------------------------------
# the non-isomorphism experiment
# ---------------------------------------------------------------------------


def test_experiment_2_3(pf2, pf3):
    report = nonregular_experiment(2, 3, grid=4097)
    assert report.verdict == "non-isomorphic"
    assert 0.75 < report.flat_point_n < 0.875
    assert 0.875 < report.flat_point_k < 0.9375
    assert report.image_in_cell_n
    assert report.flat_point_k_in_cell_k
    assert report.cells_interior_disjoint
    assert report.max_dyadic_deviation <= 1e-3
    assert report.homeomorphism_ok
    assert report.dyadic_table.orbit_agrees


def test_experiment_1_2():
    report = nonregular_experiment(1, 2, grid=1025)
    assert report.verdict == "non-isomorphic"
    assert 0.5 < report.flat_point_n < 0.75
    assert 0.75 < report.flat_point_k < 0.875


@pytest.mark.parametrize("n, k, grid, m_max", [
    (1, 2, 257, 8), (2, 1, 4097, 12), (2, 3, 4097, 8), (3, 5, 257, 12),
    (6, 4, 4097, 12),
])
def test_experiment_dyadic_points_exact(n, k, grid, m_max):
    # the flat-point pairs map the dyadic points onto each other exactly,
    # so h moves none of them by even one ulp
    report = nonregular_experiment(n, k, grid=grid, m_max=m_max)
    assert report.max_dyadic_deviation == 0.0
    assert report.verdict == "non-isomorphic"


def test_experiment_rejects_equal_cells():
    with pytest.raises(ValueError):
        nonregular_experiment(2, 2)
    with pytest.raises(ValueError):
        nonregular_experiment(0, 1)


def test_experiment_rejects_m_max_below_one():
    # with no dyadic point to check, the deviation table would be empty
    with pytest.raises(ValueError, match="m_max"):
        nonregular_experiment(2, 3, grid=1025, m_max=0)


def test_dyadic_deviation_detected_for_wrong_intertwiner(pf2):
    # a made-up map that moves the dyadic points shows up in the table
    wrong = make_monotone([-1, 0, 0.9, 1], [-1, 0, 0.5, 1])
    table = dyadic_fixed_point_check(wrong, pf2, m_max=4)
    assert max(table.deviations) > 1e-3


def test_experiment_flags_dyadic_drift():
    # the deviations of a healthy run are ~0; an unreachable tolerance
    # exercises the misconfiguration guard
    with pytest.raises(DyadicCheckFailure):
        nonregular_experiment(2, 3, grid=1025, tol=-1.0)


def test_experiment_report_serializes():
    report = nonregular_experiment(2, 3, grid=1025)
    blob = report.to_json()
    assert '"verdict"' in blob and '"dyadic_table"' in blob
