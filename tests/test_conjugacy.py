"""Contraction operator, conjugation solver, orbit grids and the labelled
orbit."""

import itertools
import os
import sys
import threading

import numpy as np
import pytest
from conftest import (exact_orbit, iterate_contraction, reference_read_off,
                      reference_step, sup_gap)
from hypothesis import given, settings, strategies as st

from pconfig import (
    BadArgument,
    BranchInverse,
    MapPair,
    MonotoneFunction,
    build_family,
    build_orbit_grid,
    compose,
    conjugate,
    conjugate_to_standard,
    contraction_step,
    evaluate,
    identity,
    invert,
    labelled_orbit,
    perturbed_flat_pair,
    quadratic_pair,
    standard_pair,
)
from pconfig.conjugacy import (
    MAX_DEPTH,
    _BISECT_BLOCK,
    _BISECT_STEPS,
    _bisect_increasing,
    _labelled_h,
)
from pconfig.families import ANCHORS

TOL = 1e-10

QUASI = {
    "family": "polynomial",
    "delta1": [0.5, 0.5], "delta2": [-0.5, 0.45, 0.0, 0.05],
}

#: A regular quartic: delta1 = 0.7 + 0.5 t - 0.4 t^2 + 0.2 t^4.
QUARTIC = {"family": "polynomial", "delta1": [0.7, 0.5, -0.4, 0, 0.2]}


# ---------------------------------------------------------------------------
# the contraction operator
# ---------------------------------------------------------------------------


def test_step_fixes_identity_for_standard():
    g = identity(257)
    out = contraction_step(g, standard_pair())
    assert sup_gap(out, g) <= 1e-12


def test_step_example_value_quadratic():
    # delta1(0) = 0.7, so the pulled-back point of 0.7 is 0 and the image
    # value is (g(0) + 1)/2 = 0.5 for g the identity
    nodes = np.union1d(np.linspace(-1, 1, 257), (0.7,))
    g = MonotoneFunction(nodes, nodes)
    out = contraction_step(g, quadratic_pair(0.2))
    assert evaluate(out, 0.7) == pytest.approx(0.5, abs=1e-11)


def test_step_requires_anchors():
    g = MonotoneFunction([-1, 0, 1], [-1, 0.1, 1])
    with pytest.raises(BadArgument, match="iterate must fix -1, 0 and 1"):
        contraction_step(g, standard_pair())
    shifted = MonotoneFunction([-1, 0.5, 1], [-1, 0.0, 1])  # 0 not a node
    with pytest.raises(BadArgument, match="iterate must fix -1, 0 and 1"):
        contraction_step(shifted, standard_pair())


def test_step_preserves_monotonicity_and_anchors():
    rng = np.random.default_rng(7)
    nodes = np.union1d(np.sort(rng.uniform(-1, 1, 60)), (-1.0, 0.0, 1.0))
    i0 = int(np.flatnonzero(nodes == 0.0)[0])
    cum = np.concatenate([[0.0], np.cumsum(rng.uniform(0, 1, nodes.size - 1))])
    vals = np.concatenate([
        cum[: i0 + 1] / cum[i0] - 1.0,           # [-1, 0] hitting 0 at node 0
        (cum[i0 + 1:] - cum[i0]) / (cum[-1] - cum[i0]),
    ])
    vals[0], vals[i0], vals[-1] = -1.0, 0.0, 1.0
    g = MonotoneFunction(nodes, np.clip(vals, -1.0, 1.0))
    out = contraction_step(g, quadratic_pair(0.2))
    assert np.all(np.diff(out.values) >= 0)
    assert out.fixes_anchors()


@st.composite
def cone_functions(draw):
    """Nondecreasing functions fixing -1, 0, 1, on a shared 65-node grid."""
    incs = draw(st.lists(st.floats(0.0, 1.0), min_size=64, max_size=64))
    incs = np.asarray(incs) + 1e-6
    cum = np.concatenate([[0.0], np.cumsum(incs)])
    nodes = np.linspace(-1.0, 1.0, 65)
    neg = cum[:33] / cum[32] - 1.0  # hits 0 at node 32 (t = 0)
    pos = (cum[33:] - cum[32]) / (cum[64] - cum[32])
    vals = np.concatenate([neg, pos])
    vals[0], vals[32], vals[-1] = -1.0, 0.0, 1.0
    return MonotoneFunction(nodes, np.maximum.accumulate(np.clip(vals, -1, 1)))


@settings(max_examples=25, deadline=None)
@given(cone_functions(), cone_functions())
def test_step_contracts_by_half(g1, g2):
    pair = quadratic_pair(0.2)
    d_before = sup_gap(g1, g2)
    d_after = sup_gap(contraction_step(g1, pair), contraction_step(g2, pair))
    assert d_after <= 0.5 * d_before + 1e-12


@settings(max_examples=25, deadline=None)
@given(cone_functions())
def test_step_is_the_masked_reference_on_any_iterate(g):
    # the step works on the two branches' slices in place; its floats are
    # those of the boolean-mask form
    pair = quadratic_pair(0.2)
    assert (contraction_step(g, pair).values.tobytes()
            == reference_step(g, pair).tobytes())


@pytest.mark.parametrize("spec", [
    {"family": "quadratic", "c": 0.2}, {"family": "quadratic", "c": 0.249},
    {"family": "perturbed_flat", "n": 2}, QUASI,
], ids=["quadratic(0.2)", "quadratic(0.249)", "perturbed_flat(2)", "quasi"])
def test_step_is_the_masked_reference_on_the_solved_h(spec):
    # on the solver's h, and on the identity whose zero node is -0.0,
    # which the left branch takes as it takes +0.0
    pair = build_family(spec)
    h, _ = conjugate_to_standard(pair, grid=4097)
    nodes = np.linspace(-1.0, 1.0, 257)
    nodes[128] = -0.0
    for g in (h, MonotoneFunction(nodes, nodes)):
        assert (contraction_step(g, pair).values.tobytes()
                == reference_step(g, pair).tobytes())


def test_step_rejects_interval_flat_branch():
    def d1(t):
        t = np.asarray(t, dtype=float)
        return np.where(t < 0, (t + 1) / 2,
                        np.where(t <= 0.2, 0.5, 0.5 + (t - 0.2) * 0.625))

    def d1p(t):
        t = np.asarray(t, dtype=float)
        return np.where(t < 0, 0.5, np.where(t <= 0.2, 0.0, 0.625))

    flat = MapPair(
        family="custom", params={},
        delta1=d1, delta2=lambda t: np.asarray(t, dtype=float) - d1(t),
        d_delta1=d1p, d_delta2=lambda t: 1.0 - d1p(t),
    )
    with pytest.raises(BadArgument, match="delta1 is flat on an interval"):
        contraction_step(identity(257), flat)
    with pytest.raises(BadArgument, match="delta1 is flat on an interval"):
        conjugate_to_standard(flat)


# ---------------------------------------------------------------------------
# the branch pull-back
# ---------------------------------------------------------------------------


def _assert_walk_is_bisection(fun, targets):
    """The blocked walk returns the bracket bisection's bytes, after
    exactly ``_BISECT_STEPS`` evaluations per target."""
    targets = np.asarray(targets, dtype=float)
    evaluated = []

    def counted(x):
        evaluated.append(np.size(x))
        return fun(x)

    out = _bisect_increasing(counted, targets)
    assert out.tobytes() == _bisect_unblocked(fun, targets).tobytes()
    assert sum(evaluated) == _BISECT_STEPS * targets.size


def _bisect_unblocked(fun, targets):
    """The bisection over all targets at once, one sweep per step."""
    t = np.asarray(targets, dtype=float)
    lo = np.full_like(t, -1.0)
    hi = np.full_like(t, 1.0)
    for _ in range(_BISECT_STEPS):
        mid = 0.5 * (lo + hi)
        below = np.asarray(fun(mid)) < t
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi)


@pytest.mark.parametrize("pair", [quadratic_pair(0.2), quadratic_pair(-0.2),
                                  perturbed_flat_pair(3)],
                         ids=["quadratic(0.2)", "quadratic(-0.2)",
                              "perturbed_flat(3)"])
@pytest.mark.parametrize("branch", ["delta1", "delta2"])
def test_blocked_bisection_is_the_unblocked_one(pair, branch):
    fun = getattr(pair, branch)
    for size in (0, 1, _BISECT_BLOCK - 1, _BISECT_BLOCK, _BISECT_BLOCK + 1,
                 3 * _BISECT_BLOCK + 5):
        _assert_walk_is_bisection(fun, fun(np.linspace(-1.0, 1.0, size)))


@pytest.fixture(params=[("sched_getaffinity", 1), ("sched_getaffinity", 2),
                        ("sched_getaffinity", 3), ("cpu_count", 3)],
                ids=["affinity-1", "affinity-2", "affinity-3", "cpu_count-3"])
def cpus(request, monkeypatch):
    """The CPU count the walk reads, forced: from the affinity mask, or
    from ``os.cpu_count`` where the platform has no affinity call.  The
    threads switch every microsecond, so a lost update has its chance."""
    source, count = request.param
    if source == "cpu_count":
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: count)
    else:
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(count)))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield count
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("pair, branch", [(quadratic_pair(0.2), "delta2"),
                                          (perturbed_flat_pair(3), "delta1")],
                         ids=["quadratic(0.2)-delta2",
                              "perturbed_flat(3)-delta1"])
def test_threaded_walk_is_the_unblocked_one(pair, branch, cpus):
    branch = getattr(pair, branch)
    callers = set()

    def fun(x):
        if np.size(x):
            callers.add(threading.get_ident())
        return branch(x)

    for size in (0, 1, _BISECT_BLOCK - 1, _BISECT_BLOCK, _BISECT_BLOCK + 1,
                 3 * _BISECT_BLOCK + 5):
        callers.clear()
        _assert_walk_is_bisection(fun, branch(np.linspace(-1.0, 1.0, size)))
        # the caller and one worker per further CPU that has a block
        blocks = -(-size // _BISECT_BLOCK)
        assert len(callers) == min(blocks, cpus)


@pytest.mark.parametrize("raiser", ["worker", "caller"])
def test_threaded_walk_raises_and_leaves_no_thread(raiser, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    main = threading.get_ident()
    claimed = {}

    def fun(x):
        me = threading.get_ident()
        # the first thread of the raising kind to call claims the
        # failure, so exactly one block fails whatever the order
        if (me == main) == (raiser == "caller") and claimed.setdefault(
                "raiser", me) == me:
            raise ValueError(f"{raiser} block")
        return quadratic_pair(0.2).delta1(x)

    before = threading.active_count()
    with pytest.raises(ValueError, match=f"^{raiser} block$"):
        _bisect_increasing(fun, np.linspace(0.0, 1.0, 5 * _BISECT_BLOCK))
    assert threading.active_count() == before


@pytest.mark.parametrize("pair", [quadratic_pair(0.2), perturbed_flat_pair(3)],
                         ids=["quadratic(0.2)", "perturbed_flat(3)"])
@pytest.mark.parametrize("cpu_count", [1, 2])
def test_pull_back_on_a_large_grid_is_bisection_on_any_cpu_count(
        pair, cpu_count, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity",
                        lambda pid: set(range(cpu_count)))
    nodes = build_orbit_grid(pair, 16)
    assert nodes.size == 2 ** 17 + 1
    left = nodes <= 0.0
    expected = np.empty_like(nodes)
    expected[left] = _bisect_unblocked(pair.delta2, nodes[left])
    expected[~left] = _bisect_unblocked(pair.delta1, nodes[~left])
    expected[np.isin(nodes, (0.0, 1.0))] = 1.0
    expected[nodes == -1.0] = -1.0
    assert (BranchInverse(pair).pull_back(nodes).tobytes()
            == expected.tobytes())


def test_pull_back_of_no_points_is_empty():
    out = BranchInverse(quadratic_pair(0.2)).pull_back(np.array([]))
    assert out.shape == (0,)


_WALK_BRANCHES = {
    f"{name}-{branch}": (pair, branch)
    for name, pair in (("quadratic(0.2)", quadratic_pair(0.2)),
                       ("quadratic(-0.2)", quadratic_pair(-0.2)),
                       ("perturbed_flat(3)", perturbed_flat_pair(3)))
    for branch in ("delta1", "delta2")}

_TINY = np.finfo(float).tiny
_EDGE_TARGETS = np.concatenate((
    [0.0, -0.0, 5e-324, -5e-324, 2 * 5e-324, -2 * 5e-324,
     _TINY, -_TINY, np.nextafter(_TINY, 0.0), -np.nextafter(_TINY, 0.0),
     np.nextafter(1.0, 0.0), np.nextafter(-1.0, 0.0), 1.0, -1.0],
    np.ldexp(1.0, -np.arange(1075)), -np.ldexp(1.0, -np.arange(1075)),
))


@pytest.mark.parametrize("pair, branch", _WALK_BRANCHES.values(),
                         ids=_WALK_BRANCHES.keys())
def test_walk_at_branch_values_powers_of_two_and_float_edges(pair, branch):
    fun = getattr(pair, branch)
    lo, hi = fun(np.array([-1.0, 1.0]))
    edges = _EDGE_TARGETS[(_EDGE_TARGETS >= lo) & (_EDGE_TARGETS <= hi)]
    _assert_walk_is_bisection(
        fun, np.concatenate((fun(np.array([-1.0, 0.0, 1.0])), edges)))


@pytest.mark.parametrize("spec", [
    {"family": "quadratic", "c": 0.249},
    {"family": "polynomial", "delta1": [0.25, 0.5, 0.75, 0, -0.5]},
], ids=["quadratic(0.249)", "chebyshev-T3-guided"])
def test_walk_at_collision_prone_orbit_nodes(spec):
    # the depth-11 orbit grids where distinct words collide (ROADMAP
    # item 3), each node on the branch that pull_back inverts it by
    pair = build_family(spec)
    nodes = build_orbit_grid(pair, 11)
    _assert_walk_is_bisection(pair.delta2, nodes[nodes <= 0.0])
    _assert_walk_is_bisection(pair.delta1, nodes[nodes > 0.0])


@st.composite
def _branch_and_targets(draw):
    pair, branch = draw(st.sampled_from(list(_WALK_BRANCHES.values())))
    fun = getattr(pair, branch)
    lo, hi = (float(v) for v in fun(np.array([-1.0, 1.0])))
    targets = draw(st.lists(st.floats(min_value=lo, max_value=hi),
                            min_size=1, max_size=40))
    return fun, targets


@given(_branch_and_targets())
@settings(max_examples=100, deadline=None)
def test_walk_is_bisection_for_any_target_in_range(case):
    _assert_walk_is_bisection(*case)


def test_walk_treats_a_negative_zero_value_as_not_below():
    # fun(0) = -0.0 equals the target +0.0, so bisection steps down; a
    # walk reading the sign bit of -0.0 - (+0.0) would step up
    def fun(x):
        return np.where(x == 0.0, -0.0, x)

    _assert_walk_is_bisection(fun, [0.0])
    assert _bisect_increasing(fun, np.array([0.0]))[0] == -2.0 ** -100


# ---------------------------------------------------------------------------
# the solver
# ---------------------------------------------------------------------------


def test_standard_conjugates_to_identity():
    h, log = conjugate_to_standard(standard_pair(), grid=4097)
    assert np.max(np.abs(h.values - h.nodes)) <= 1e-12
    assert h.fixes_anchors()


def test_quadratic_conjugation_known_value(quad02_solved):
    h, _ = quad02_solved
    # conjugacy at t = 0: h(delta1(0)) = (h(0) + 1)/2 = 1/2
    assert evaluate(h, 0.7) == pytest.approx(0.5, abs=1e-9)


def test_convergence_log_contract(quad02, quad02_solved):
    _, log = quad02_solved
    assert log.residual <= 10 * TOL
    assert log.grid == 4097
    _, d, ratios = iterate_contraction(quad02, quad02_solved[0].nodes)
    assert len(d) >= 2
    assert len(d) <= 45
    assert all(r <= 0.5 + 1e-3 for r in ratios)
    assert all(d[i + 1] <= d[i] + 1e-15 for i in range(1, len(d) - 1))


@pytest.mark.parametrize("pair", [
    quadratic_pair(0.2), quadratic_pair(0.249), perturbed_flat_pair(2),
], ids=["quadratic(0.2)", "quadratic(0.249)", "perturbed_flat(2)"])
def test_residual_is_one_contraction_step(pair):
    # quadratic(0.249) loses nodes at this grid, so its h is not a fixed
    # point of T at grid level; the residual is still exactly one step
    h, log = conjugate_to_standard(pair, grid=4097)
    step = contraction_step(h, pair)
    assert log.residual == float(np.max(np.abs(step.values - h.values)))


def test_solver_output_strictly_increasing(quad02_solved):
    h, _ = quad02_solved
    assert h.is_strictly_increasing()


def test_anchor_pinning_exact(quad02_solved, pf2):
    for h in (quad02_solved[0], conjugate_to_standard(pf2, grid=1025)[0]):
        assert evaluate(h, -1.0) == -1.0
        assert evaluate(h, 0.0) == 0.0
        assert evaluate(h, 1.0) == 1.0


def test_oracle_consistency_all_short_words(quad02, quad02_solved):
    h, _ = quad02_solved
    x = labelled_orbit(quad02, 10)
    err = np.max(np.abs(evaluate(h, x) - np.linspace(-1.0, 1.0, x.size)))
    assert err <= 1e-3


def test_oracle_consistency_other_families():
    for pair in (quadratic_pair(-0.15), build_family(QUASI)):
        h, _ = conjugate_to_standard(pair, grid=4097)
        x = labelled_orbit(pair, 8)
        err = np.max(np.abs(evaluate(h, x) - np.linspace(-1.0, 1.0, x.size)))
        assert err <= 1e-3


@pytest.mark.parametrize("grid", [1025, 4097])
@pytest.mark.parametrize("pair", [
    quadratic_pair(0.2), quadratic_pair(-0.2), build_family(QUASI),
    perturbed_flat_pair(2), standard_pair(),
], ids=repr)
def test_solver_values_are_the_orbit_labels(pair, grid):
    # h(w_delta(a)) = w_sigma(a): the solver returns the exact labels
    h, log = conjugate_to_standard(pair, grid=grid)
    assert h.values.tobytes() == np.linspace(-1.0, 1.0, grid).tobytes()
    depth = int(np.log2(grid - 1)) - 1
    x = labelled_orbit(pair, depth)
    assert np.array_equal(evaluate(h, x), np.linspace(-1.0, 1.0, x.size))
    assert log.iterations == 0
    # between the nodes h is monotone and the labels one step 2^-depth
    # apart, so at the next level's orbit points h is within a step
    x = labelled_orbit(pair, depth + 1)
    assert np.max(np.abs(evaluate(h, x) - np.linspace(-1.0, 1.0, x.size))) \
        <= 2.0 ** -depth


def test_collided_words_keep_one_label_each():
    # quadratic(0.249) loses 64 of 4097 nodes to words that collide in
    # floats near the endpoints; each node keeps the smallest label that
    # lands on it, the anchors their own, sorted alongside the nodes
    pair = quadratic_pair(0.249)
    h, log = conjugate_to_standard(pair, grid=4097)
    x = labelled_orbit(pair, 11)
    y = np.linspace(-1.0, 1.0, x.size)
    order = np.lexsort((y, x))
    x, y = x[order], y[order]
    first = np.r_[True, x[1:] != x[:-1]]
    labels = y[first]
    labels[np.searchsorted(x[first], (-1.0, 0.0, 1.0))] = (-1.0, 0.0, 1.0)
    assert h.grid_size == 4033
    assert np.array_equal(h.nodes, x[first])
    assert np.array_equal(h.values, np.sort(labels))
    assert h.fixes_anchors() and h.is_strictly_increasing()


#: Pairs whose orbits keep every word apart, lose words to collisions
#: near the endpoints (quadratic(0.249), (0.2480)) or at a critical value
#: (T_3), or put words out of label order.
_READ_OFF_SPECS = {
    "quadratic(0.2)": {"family": "quadratic", "c": 0.2},
    "quadratic(-0.2)": {"family": "quadratic", "c": -0.2},
    "quadratic(0.249)": {"family": "quadratic", "c": 0.249},
    "quadratic(-0.249)": {"family": "quadratic", "c": -0.249},
    "quadratic(0.2480)": {"family": "quadratic", "c": 0.2480},
    "T_3": {"family": "polynomial", "delta1": [0.25, 0.5, 0.75, 0, -0.5]},
    "quasi": QUASI,
    **{f"perturbed_flat({n})": {"family": "perturbed_flat", "n": n}
       for n in range(1, 7)},
}


@pytest.mark.parametrize("name, depth", [
    *((name, depth) for depth in (11, 15) for name in _READ_OFF_SPECS),
    ("quadratic(0.249)", 19),
])
def test_read_off_is_the_search_and_scatter_reference(name, depth):
    # the nodes and each node's smallest label come from stable sorts of
    # the word-indexed orbit; they are the bytes of np.unique and of
    # np.minimum.at over searchsorted, and the anchors' nodes are pinned
    # as their labels are, so the zero node is +0.0
    pair = build_family(_READ_OFF_SPECS[name])
    nodes, labels = reference_read_off(pair, depth)
    assert build_orbit_grid(pair, depth).tobytes() == nodes.tobytes()
    h = _labelled_h(pair, 2 ** (depth + 1) + 1)
    assert h.nodes.tobytes() == nodes.tobytes()
    assert h.values.tobytes() == labels.tobytes()
    at = np.searchsorted(h.nodes, ANCHORS)
    assert h.nodes[at].tobytes() == np.array(ANCHORS).tobytes()
    assert h.values[at].tobytes() == np.array(ANCHORS).tobytes()


def test_uniqueness_across_initial_guesses(quad02):
    nodes = build_orbit_grid(quad02, 9)   # the solver's grid for 1025
    h_id, d_id, _ = iterate_contraction(quad02, nodes)
    kinked = MonotoneFunction([-1, 0, 0.5, 1], [-1, 0, 0.25, 1])
    h_k, d_k, _ = iterate_contraction(quad02, nodes, start=kinked)
    assert len(d_id) >= 2 and len(d_k) >= 2
    assert sup_gap(h_id, h_k) <= 2 * TOL


def test_solver_rejects_bad_grid(quad02):
    with pytest.raises(ValueError, match="grid must be >= 257 .*, got 100"):
        conjugate_to_standard(quad02, grid=100)


# ---------------------------------------------------------------------------
# orbit grids
# ---------------------------------------------------------------------------


def test_orbit_grid_size_and_nesting(quad02):
    g5 = build_orbit_grid(quad02, 5)
    g6 = build_orbit_grid(quad02, 6)
    assert g5.size == 2 ** 6 + 1
    assert g6.size == 2 ** 7 + 1
    assert np.all(np.isin(g5, g6))
    assert np.all(np.diff(g6) > 0)
    for a in (-1.0, 0.0, 1.0):
        assert a in g5


def test_solver_grid_maps_onto_dyadics(quad02_solved):
    # the orbit grid is exactly the preimage of the equispaced dyadic
    # grid, so the solved values are those dyadics
    h, log = quad02_solved
    dyadics = np.linspace(-1.0, 1.0, h.grid_size)
    assert np.array_equal(h.values, dyadics)
    assert log.max_local_variation == pytest.approx(2.0 / (h.grid_size - 1),
                                                    rel=1e-6)
    assert h.is_strictly_increasing()


def test_flat_pair_h_increases_strictly(pf2):
    h, log = conjugate_to_standard(pf2, grid=1025)
    assert h.is_strictly_increasing()
    assert set(log.to_dict()) == {"residual", "grid", "max_local_variation"}


# ---------------------------------------------------------------------------
# general conjugations
# ---------------------------------------------------------------------------


def test_conjugate_pair_with_itself_is_identity(quad02):
    h, _ = conjugate(quad02, quad02, grid=1025)
    assert np.max(np.abs(h.values - h.nodes)) <= 2 * TOL


def test_conjugate_inverts_direction(quad02, std):
    h_fwd, _ = conjugate(quad02, std, grid=4097)
    h_rev, _ = conjugate(std, quad02, grid=4097)
    rt = compose(h_rev, h_fwd)
    assert np.max(np.abs(rt.values - rt.nodes)) <= 1e-6
    assert evaluate(h_rev, 0.5) == pytest.approx(0.7, abs=1e-9)


def test_conjugate_between_quadratics(quad02, quad_m02):
    h, _ = conjugate(quad02, quad_m02, grid=4097)
    # h(delta1(0)) = tilde_delta1(h(0)) = tilde_delta1(0) = 0.3
    assert evaluate(h, 0.7) == pytest.approx(0.3, abs=1e-8)


def test_conjugate_to_standard_target_solves_once(quad02, std, monkeypatch):
    # the conjugation of the standard pair to itself is the identity, so
    # conjugating to the standard pair is the solve of the source alone
    from pconfig import conjugacy
    solve = conjugacy.conjugate_to_standard
    solves = []

    def spy(pair, grid):
        solves.append(pair)
        return solve(pair, grid)

    monkeypatch.setattr(conjugacy, "conjugate_to_standard", spy)
    h, _ = conjugate(quad02, std, grid=4097)
    assert solves == [quad02]
    h_std, _ = solve(quad02, grid=4097)
    assert np.array_equal(h.nodes, h_std.nodes)
    assert np.array_equal(h.values, h_std.values)


def _retarget_by_solving(h_source, target, grid):
    """The retargeting :func:`conjugate` replaced: solve the target, its
    residual included, then invert and compose; the reference for its
    bits."""
    return compose(invert(conjugate_to_standard(target, grid=grid)[0]),
                   h_source)


@pytest.mark.parametrize("grid", [257, 4097, 65537])
@pytest.mark.parametrize("spec", [
    {"family": "quadratic", "c": 0.2}, {"family": "quadratic", "c": -0.2},
    {"family": "quadratic", "c": 0.249}, {"family": "quadratic", "c": -0.249},
    {"family": "quadratic", "c": 0.2480},
    {"family": "polynomial", "delta1": [0.25, 0.5, 0.75, 0, -0.5]},
    {"family": "perturbed_flat", "n": 1}, {"family": "perturbed_flat", "n": 2},
    {"family": "perturbed_flat", "n": 6},
], ids=["quadratic(0.2)", "quadratic(-0.2)", "quadratic(0.249)",
        "quadratic(-0.249)", "quadratic(0.2480)", "T_3", "perturbed_flat(1)",
        "perturbed_flat(2)", "perturbed_flat(6)"])
def test_conjugate_inverts_every_target(spec, grid):
    # the target's h is read off its labelled orbit: distinct dyadic
    # labels, sorted, with the anchors pinned, so its inverse always
    # exists, lost nodes and flat points included.  The composition can
    # still round two values of the result together (quadratic(0.249) at
    # 4097), which is why nonregular_experiment checks h itself
    target = build_family(spec)
    h_target = _labelled_h(target, grid)
    assert h_target.is_strictly_increasing() and h_target.fixes_anchors()
    conjugate(standard_pair(), target, grid=grid)


@pytest.mark.parametrize("grid", [4097, 65537])
@pytest.mark.parametrize("source, target", [
    (quadratic_pair(0.2), quadratic_pair(-0.2)),
    (perturbed_flat_pair(2), perturbed_flat_pair(3)),
], ids=["quadratic", "perturbed_flat"])
def test_conjugate_pulls_back_only_the_source(source, target, grid,
                                              monkeypatch):
    # only the source's solve bisects, for its log's residual
    pull_back = BranchInverse.pull_back
    calls = []

    def spy(self, z):
        calls.append(self.pair)
        return pull_back(self, z)

    monkeypatch.setattr(BranchInverse, "pull_back", spy)
    h, _ = conjugate(source, target, grid=grid)
    assert calls == [source]
    h_src, _ = conjugate_to_standard(source, grid=grid)
    reference = _retarget_by_solving(h_src, target, grid)
    assert h.nodes.tobytes() == reference.nodes.tobytes()
    assert h.values.tobytes() == reference.values.tobytes()


@pytest.mark.parametrize("target", [standard_pair(), quadratic_pair(-0.2)],
                         ids=["standard", "quadratic(-0.2)"])
def test_conjugate_logs_the_source_solve(quad02, target):
    # the residual and grid are the source solve's; the variation is read
    # off the h that conjugate returns
    h, log = conjugate(quad02, target, grid=4097)
    source_log = conjugate_to_standard(quad02, grid=4097)[1]
    assert (log.residual, log.grid) == (source_log.residual, source_log.grid)
    assert log.max_local_variation == h.max_local_variation


def test_solver_names_a_decreasing_branch(monkeypatch):
    # checked before the orbit grid, whose nodes would leave [-1, 1]
    from pconfig import conjugacy
    walked = []
    monkeypatch.setattr(conjugacy, "labelled_orbit",
                        lambda pair, depth: walked.append(pair))
    with pytest.raises(BadArgument,
                       match="delta1 is decreasing somewhere") as raised:
        conjugate_to_standard(quadratic_pair(0.3))
    assert str(raised.value) == "delta1 is decreasing somewhere"
    assert walked == []


def test_solver_checks_the_branches_once(monkeypatch):
    # `_labelled_h` checks them, and the residual's step of T does not
    # check them again
    from pconfig import conjugacy
    check = conjugacy.check_branches_invertible
    checked = []

    def spy(pair):
        checked.append(pair)
        return check(pair)

    monkeypatch.setattr(conjugacy, "check_branches_invertible", spy)
    for pair in (quadratic_pair(0.2), perturbed_flat_pair(2)):
        checked.clear()
        conjugate_to_standard(pair, grid=4097)
        assert checked == [pair]


# ---------------------------------------------------------------------------
# the labelled orbit
# ---------------------------------------------------------------------------


def test_labelled_orbit_count(quad02):
    assert labelled_orbit(quad02, 4).size == 2 ** 5 + 1


def test_labelled_orbit_at_the_depth_ceiling(quad02, address_space_cap):
    # 128 MiB of floats, the solver's orbit at MAX_GRID; a list of one
    # (x, h(x)) tuple per word peaked at 3.0 GB at this depth
    x = labelled_orbit(quad02, MAX_DEPTH)
    assert x.dtype == np.float64 and x.size == 2 ** 24 + 1


def test_negative_orbit_depth_is_refused(quad02):
    # depth -1 used to pair x = -1 with the label 0
    with pytest.raises(ValueError, match="orbit depth"):
        labelled_orbit(quad02, -1)
    with pytest.raises(ValueError, match="orbit depth"):
        build_orbit_grid(quad02, -1)


@pytest.mark.parametrize("pair", [quadratic_pair(0.2), perturbed_flat_pair(2)],
                         ids=repr)
def test_labelled_orbit_is_the_oracle_word_by_word(pair):
    # build_orbit_grid reads the labelled orbit; walking each word through
    # the pair's own maps one branch at a time must give the entry at the
    # word's label, bit for bit, and every entry is some word's
    walked = []
    for a in (-1.0, 0.0, 1.0):
        for n in range(8):
            for word in itertools.product((1, 2), repeat=n):
                x, y = a, a
                for b in word:
                    x = float(pair.delta1(x) if b == 1 else pair.delta2(x))
                    y = (y + 1.0) / 2.0 if b == 1 else (y - 1.0) / 2.0
                walked.append((x, y))
    walked = np.array(walked)
    x = labelled_orbit(pair, 7)
    labels = np.linspace(-1.0, 1.0, x.size)
    k = np.searchsorted(labels, walked[:, 1])
    assert labels[k].tobytes() == walked[:, 1].tobytes()
    assert x[k].tobytes() == walked[:, 0].tobytes()
    assert np.array_equal(np.unique(k), np.arange(x.size))
    grid = build_orbit_grid(pair, 7)
    assert grid.tobytes() == np.unique(walked[:, 0]).tobytes()


@pytest.mark.parametrize("pair", [
    quadratic_pair(0.2), quadratic_pair(-0.2), build_family(QUARTIC),
    build_family(QUASI), standard_pair(),
], ids=repr)
def test_labelled_orbit_is_the_exact_orbit_within_float_error(pair):
    # each float orbit point is within 2^-52 of the correctly rounded
    # point of its word (measured at most 1.1e-16, 2.2e-16, 1.4e-16,
    # 1.1e-16 and 0)
    x = labelled_orbit(pair, 10)
    assert np.max(np.abs(x - exact_orbit(pair, 10))) <= 2.0 ** -52


def test_float_error_adds_collisions_and_order_inversions():
    # quadratic(0.249) at depth 11 (ROADMAP item 3(b)): correctly rounded,
    # 56 words land on the float of another word and the points keep label
    # order; the float walk loses 64 words and puts 6 points out of label
    # order, so 8 collisions and every inversion are float error
    pair = quadratic_pair(0.249)
    for x, lost, inversions in ((labelled_orbit(pair, 11), 64, 6),
                                (exact_orbit(pair, 11), 56, 0)):
        assert x.size - np.unique(x).size == lost
        assert np.count_nonzero(np.diff(x) < 0) == inversions
