"""Functional-equation solutions: residuals, nonlinearity, induced systems."""

import numpy as np
import pytest

from pconfig import cauchy, families
from pconfig import (
    BadArgument,
    InvalidPair,
    MonotoneFunction,
    build_family,
    evaluate,
    fe_residual,
    identity,
    induced_system,
    nonlinearity_gap,
    quadratic_pair,
    solve_nonlinear,
    standard_pair,
    validate,
)


# ---------------------------------------------------------------------------
# residual measurement
# ---------------------------------------------------------------------------


def test_identity_solves_standard_exactly(std):
    assert fe_residual(identity(1025), std, grid=1025) == 0.0


def test_linear_functions_solve_all_additive_pairs(std, quad02, pf2):
    for c in (-2.0, -1.0, 0.0, 0.5, 1.0, 3.0):
        for pair in (std, quad02, pf2):
            assert fe_residual(lambda t, c=c: c * t, pair, grid=2049) <= 1e-12


def test_square_residual_half_at_origin(std):
    res = fe_residual(lambda t: np.asarray(t) ** 2, std, grid=2049)
    assert res == 0.5


def test_residual_accepts_monotone_functions(quad02, quad02_solved):
    h, _ = quad02_solved
    assert fe_residual(h, quad02) <= 1e-3


@pytest.mark.parametrize("grid", [0, 1, 2, 3, -5, 256])
def test_residual_refuses_a_grid_below_the_floor(quad02, quad02_solved, grid):
    # grids 0-3 used to sample only points where h solves the equation
    # exactly and report 0.0, while the residual is 3.8e-4 at 4097 points
    h, _ = quad02_solved
    assert 3.7e-4 < fe_residual(h, quad02, grid=4097) < 3.9e-4
    with pytest.raises(BadArgument, match="grid must be >= 257"):
        fe_residual(h, quad02, grid=grid)


# ---------------------------------------------------------------------------
# nonlinearity gap
# ---------------------------------------------------------------------------


def test_gap_zero_for_identity():
    assert nonlinearity_gap(identity(257)) == 0.0


def test_gap_zero_for_sampled_linear():
    nodes = np.linspace(-1, 1, 257)
    f = MonotoneFunction(nodes, 0.5 * nodes)
    assert nonlinearity_gap(f) == 0.0


def test_gap_of_solver_output(quad02_solved):
    h, _ = quad02_solved
    assert nonlinearity_gap(h) >= 0.19


# ---------------------------------------------------------------------------
# the nonlinear-solution construction
# ---------------------------------------------------------------------------


def test_solve_quadratic_to_standard(quad02):
    cert = solve_nonlinear(quad02, grid=4097)
    assert cert.target == {"family": "standard"}
    assert cert.fe_residual <= 1e-3
    assert cert.nonlinearity_gap >= 0.19
    assert not cert.degenerate
    # the known conjugacy point: solution(0.7) = 0.5, far from 0.7
    assert evaluate(cert.solution, 0.7) == pytest.approx(0.5, abs=1e-9)


def test_solve_standard_switches_target(std):
    cert = solve_nonlinear(std, grid=4097)
    assert cert.target == {"family": "quadratic", "c": 0.2}
    assert cert.nonlinearity_gap > 0.15
    # this direction is interpolation-limited by the solution's own local
    # variation (the residual of the true h is zero)
    assert cert.fe_residual <= cert.solution.max_local_variation
    assert cert.fe_residual <= 1e-2
    # inverse direction of the quadratic oracle: h(0.5) = 0.7
    assert evaluate(cert.solution, 0.5) == pytest.approx(0.7, abs=1e-9)


def test_solve_degenerate_choice_warns(std):
    cert = solve_nonlinear(std, target=standard_pair(), grid=1025)
    assert cert.degenerate
    assert cert.nonlinearity_gap == 0.0
    assert cert.fe_residual <= 1e-12


@pytest.mark.parametrize("target", [None, quadratic_pair(0.2), quadratic_pair(-0.2)],
                         ids=["default", "same-pair", "other-pair"])
@pytest.mark.parametrize("grid", [5, -3, 256])
def test_solve_checks_the_grid_for_every_target(quad02, target, grid):
    # a target that matches the pair returns the linear solution without
    # solving, and must refuse the grid as the solving path does
    with pytest.raises(ValueError, match="grid must be >= 257"):
        solve_nonlinear(quad02, target=target, grid=grid)


def test_solve_rejects_invalid_pair(pf2):
    # an invalid pair (c = 0.3) is refused, also as its own target; guided
    # pairs (c = 0.25, flat-point) are solved, since their branches still
    # increase strictly
    c03 = quadratic_pair(0.3)
    for target in (None, c03):
        with pytest.raises(InvalidPair, match="delta1 is decreasing"):
            solve_nonlinear(c03, target=target, grid=1025)
    for pair in (quadratic_pair(0.25), pf2):
        assert solve_nonlinear(pair, grid=1025).nonlinearity_gap > 0.0


def test_solve_guided_pair_passes_the_command_line_gate(pf2):
    # the gate `solve-fe` exits 0 on
    cert = solve_nonlinear(pf2)
    bound = 10.0 * cert.solution.max_local_variation
    assert cert.fe_residual <= max(bound, 1e-12)
    assert cert.nonlinearity_gap > 0.0


def test_solve_accepts_quasi_pair(monkeypatch):
    quasi = build_family({
        "family": "polynomial",
        "delta1": [0.5, 0.5],
        "delta2": [-0.5, 0.45, 0.0, 0.05],
    })
    calls = []

    def counted(pair, **kwargs):
        calls.append(pair)
        return validate(pair, **kwargs)

    # one validation, the admission of the pair; the default target is the
    # standard pair, which needs none
    monkeypatch.setattr(families, "validate", counted)
    cert = solve_nonlinear(quasi, grid=1025)
    assert calls == [quasi]
    assert cert.fe_residual <= 1e-2
    assert cert.nonlinearity_gap > 0.0


def test_solve_refuses_non_additive_target(quad02, monkeypatch):
    # delta1 + delta2 = t - 0.1 (1 - t^2): every axiom but additivity holds
    quasi = build_family({"family": "polynomial",
                          "delta1": [0.45, 0.5, 0.05],
                          "delta2": [-0.55, 0.5, 0.05]})

    def no_solve(*args, **kwargs):
        raise AssertionError("solved before the target was checked")

    monkeypatch.setattr(cauchy, "conjugate", no_solve)
    with pytest.raises(InvalidPair, match="target is not additive"):
        solve_nonlinear(quad02, target=quasi, grid=1025)


def test_certificate_serializes(quad02):
    cert = solve_nonlinear(quad02, grid=1025)
    blob = cert.to_json()
    assert '"fe_residual"' in blob and '"nonlinearity_gap"' in blob


# ---------------------------------------------------------------------------
# induced systems
# ---------------------------------------------------------------------------


def test_induced_by_identity_reproduces_pair(quad02):
    (s1, s2), report = induced_system(identity(2049), quad02)
    assert np.max(np.abs(s1.values - quad02.delta1(s1.nodes))) <= 1e-12
    assert np.max(np.abs(s2.values - quad02.delta2(s2.nodes))) <= 1e-12
    assert report.additivity_ok and report.boundary_ok


def test_induced_by_solution_is_standard(quad02, quad02_solved, std):
    h, _ = quad02_solved
    (s1, s2), report = induced_system(h, quad02)
    t = np.linspace(-1, 1, 999)
    assert np.max(np.abs(evaluate(s1, t) - std.delta1(t))) <= 5e-3
    assert np.max(np.abs(evaluate(s2, t) - std.delta2(t))) <= 5e-3
    assert report.additivity_max_dev <= 5e-3
    assert report.boundary_ok


def test_induced_rejects_plateau(quad02):
    f = MonotoneFunction([-1, -0.5, 0, 1], [-1, 0.0, 0.0, 1])
    with pytest.raises(BadArgument, match="plateau detected"):
        induced_system(f, quad02)


def test_induced_rejects_unanchored(quad02):
    f = MonotoneFunction([-1, 0, 1], [-1, 0.1, 1])
    with pytest.raises(BadArgument,
                       match="solution must fix -1, 0 and 1 exactly"):
        induced_system(f, quad02)
