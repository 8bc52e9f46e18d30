"""Acceptance gate: one test per certification criterion.

Each criterion prints a single PASS/FAIL line with its measured numbers
(run with ``pytest tests/test_acceptance.py -s`` to see them on success).
Tolerances are pinned here and nowhere else.

Criterion 9's ratio band deserves a note.  The provisional band derived
from the local linearization (ratios near 2^(1-beta) = 1.62, band
[1.45, 1.80]) was checked against the exact dyadic-orbit oracle before
freezing, as required: the true quotient-ratio sequence oscillates
log-periodically and its oracle enclosure over k = 6..13 is
[1.3938, 1.8389] (see test_analysis.test_oracle_enclosure_frozen_values).
The frozen band below is the oracle-confirmed one, widened by solver
slack; the geometric-mean ratio is additionally held near the predicted
1.62 because the oscillation cancels across scales.
"""

import numpy as np

import pconfig as pc
from conftest import iterate_contraction, sup_gap

TOL = 1e-10

# criterion 9, frozen from the oracle enclosure (solver-independent):
# all ratios inside the confirmed oscillation range, per-scale agreement
# with the enclosure, and geometric mean near 2^(1 - ln2/ln10) = 1.6233
RATIO_BAND = (1.38, 1.86)
GM_RATIO_BAND = (1.55, 1.72)


def check(n: int, ok: bool, detail: str):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {n:2d}] {status} - {detail}")
    assert ok, f"criterion {n}: {detail}"


# --------------------------------------------------------------------------


def test_criterion_01_contraction_certificate(quad02, quad02_solved):
    _, distances, ratios = iterate_contraction(quad02, quad02_solved[0].nodes)
    worst = max(ratios) if ratios else 0.0
    steps = len(distances)
    ok = worst <= 0.5 + 1e-3 and 2 <= steps <= 45
    check(1, ok,
          f"max ratio {worst:.6f} <= 0.501, iterations 2 <= {steps} <= 45")


def test_criterion_02_anchor_pinning(std, quad02, quad_m02, pf2, quad02_solved):
    devs = []
    runs = [quad02_solved[0]]
    for pair in (std, quad_m02, pf2):
        runs.append(pc.conjugate_to_standard(pair, grid=4097)[0])
    runs.append(pc.conjugate(quad02, quad_m02, grid=1025)[0])
    for h in runs:
        devs.extend(abs(pc.evaluate(h, a) - a) for a in (-1.0, 0.0, 1.0))
    ok = all(d == 0.0 for d in devs)
    check(2, ok, f"anchor deviations across {len(runs)} runs: max {max(devs):.1e}")


def test_criterion_03_oracle_equivalence(quad02, quad02_solved, quad02_solved_16k):
    # the points of the words from -1 and 1 of length <= 10
    x = pc.labelled_orbit(quad02, 9)
    y = np.linspace(-1.0, 1.0, x.size)
    h12, _ = quad02_solved
    h14, _ = quad02_solved_16k
    err12 = float(np.max(np.abs(pc.evaluate(h12, x) - y)))
    err14 = float(np.max(np.abs(pc.evaluate(h14, x) - y)))
    ok = err12 <= 1e-3 and err14 <= 2.5e-4
    check(3, ok,
          f"{x.size} orbit points: err {err12:.2e} <= 1e-3 at 2^12+1, "
          f"{err14:.2e} <= 2.5e-4 at 2^14+1")


def test_criterion_04_functional_equation_residual(std, quad02, quad02_solved):
    h, _ = quad02_solved
    res_h = pc.fe_residual(h, quad02, grid=4097)
    linear_worst = max(
        pc.fe_residual(lambda t, c=c: c * t, pair, grid=4097)
        for c in (-2.0, 0.0, 3.0)
        for pair in (std, quad02)
    )
    ok = res_h <= 1e-3 and linear_worst <= 1e-12
    check(4, ok,
          f"solver residual {res_h:.2e} <= 1e-3, "
          f"linear residual {linear_worst:.1e} <= 1e-12")


def test_criterion_05_nonlinearity(quad02_solved):
    h, _ = quad02_solved
    gap = pc.nonlinearity_gap(h)
    check(5, gap >= 0.19, f"nonlinearity gap {gap:.4f} >= 0.19")


def test_criterion_06_round_trip(quad02, quad_m02):
    h_ab, _ = pc.conjugate(quad02, quad_m02, grid=4097)
    h_ba, _ = pc.conjugate(quad_m02, quad02, grid=4097)
    rt = pc.compose(h_ab, h_ba)  # acts on the second system's coordinates
    # rt is sampled on h_ba's nodes, so its distance to the identity is
    # the largest |rt(t) - t| over them
    dist = float(np.max(np.abs(rt.values - rt.nodes)))
    check(6, dist <= 5e-3, f"round-trip distance to identity {dist:.2e} <= 5e-3")


def test_criterion_07_uniqueness(quad02, quad02_solved):
    # the identity; the stated second guess: piecewise linear through the
    # anchors with a node (0.5, 0.5); and a genuinely kinked admissible start
    literal = pc.MonotoneFunction([-1, 0, 0.5, 1], [-1, 0, 0.5, 1])
    kinked = pc.MonotoneFunction([-1, 0, 0.5, 1], [-1, 0, 0.25, 1])
    nodes = quad02_solved[0].nodes
    runs = [iterate_contraction(quad02, nodes, start=g)
            for g in (None, literal, kinked)]
    steps = min(len(distances) for _, distances, _ in runs)
    d = max(sup_gap(runs[0][0], h) for h, _, _ in runs[1:])
    check(7, d <= 2 * TOL and steps >= 2,
          f"iterates from different starts within {d:.1e} <= 2e-10, "
          f"each after {steps} >= 2 steps")


def test_criterion_08_induced_system(quad02, quad02_solved):
    h, _ = quad02_solved
    (s1, s2), report = pc.induced_system(h, quad02)
    ok = report.additivity_max_dev <= 5e-3 and report.boundary_ok
    check(8, ok,
          f"induced additivity dev {report.additivity_max_dev:.2e} <= 5e-3, "
          f"boundary within 1e-3: {report.boundary_ok}")


def test_criterion_09_nonsmoothness_witness(quad02, quad02_solved_64k):
    h, _ = quad02_solved_64k
    probe = pc.difference_quotients(h, 1.0, k_min=6, k_max=13)
    enc = pc.oracle_quotient_enclosure(quad02, 1.0, k_min=6, k_max=13, depth=22)

    in_band = all(RATIO_BAND[0] <= r <= RATIO_BAND[1] for r in probe.ratios)
    per_scale = all(
        lo - 0.02 <= r <= hi + 0.02
        for r, (lo, hi) in zip(probe.ratios, enc.ratio_bounds)
    )
    gm = (probe.quotients[-1] / probe.quotients[0]) ** (1.0 / 7.0)
    gm_ok = GM_RATIO_BAND[0] <= gm <= GM_RATIO_BAND[1]
    big = max(probe.quotients)

    control = pc.difference_quotients(pc.identity(4097), 1.0, k_min=2, k_max=9)
    control_ok = (all(r == 1.0 for r in control.ratios)
                  and abs(control.holder_exponent - 1.0) <= 1e-6)

    ok = in_band and per_scale and gm_ok and big > 10.0 and control_ok
    check(9, ok,
          f"ratios in oracle-confirmed band [{RATIO_BAND[0]}, {RATIO_BAND[1]}] "
          f"(range {min(probe.ratios):.3f}..{max(probe.ratios):.3f}, "
          f"geometric mean {gm:.4f} ~ 1.62), largest quotient {big:.1f} > 10, "
          f"identity control exponent {control.holder_exponent:.8f}")


def test_criterion_10_flat_cell_experiment():
    reports = [pc.nonregular_experiment(2, 3, grid=g)
               for g in (4097, 8193)]
    ok = all(
        r.verdict == "non-isomorphic"
        and r.max_dyadic_deviation <= 1e-3
        and 0.75 < r.flat_point_n < 0.875
        and 0.875 < r.flat_point_k < 0.9375
        for r in reports
    )
    check(10, ok,
          f"verdicts {[r.verdict for r in reports]} at grids 2^12+1 and 2^13+1, "
          f"max dyadic deviation {max(r.max_dyadic_deviation for r in reports):.1e}")


def test_criterion_11_validation_truth_table():
    table = [
        (pc.standard_pair(), "regular"),
        (pc.quadratic_pair(0.2), "regular"),
        (pc.quadratic_pair(0.25), "guided"),
        (pc.quadratic_pair(0.3), "invalid"),
        (pc.perturbed_flat_pair(2), "guided"),
    ]
    results = [(pc.validate(p).classification, want) for p, want in table]
    ok = all(got == want for got, want in results)

    # c = 1/4: delta2' vanishes at -1 as stated (delta1' also vanishes at
    # +1 by the same closed form; both are reported)
    rep_q25 = pc.validate(pc.quadratic_pair(0.25))
    ok = ok and rep_q25.guiding_set_2.intervals[0] == (-1.0, -1.0)
    ok = ok and rep_q25.guiding_set_2.singleton_flags[0]
    rep_pf = pc.validate(pc.perturbed_flat_pair(2))
    lo, hi = pc.flat_interval(2)
    ok = ok and rep_pf.guiding_set_2.is_empty
    ok = ok and lo < rep_pf.guiding_set_1.exact_points[0] < hi

    check(11, ok, "classifications " + ", ".join(g for g, _ in results)
          + "; guided sets located as expected")
