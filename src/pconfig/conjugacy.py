"""The conjugation solver.

Every regular configuration (delta1, delta2) is conjugate to the standard
pair sigma1 = (t+1)/2, sigma2 = (t-1)/2 by a unique homeomorphism h fixing
-1, 0 and 1.  h is the unique fixed point of the halving pull-back operator

    (Tg)(z) = ( g(pullback(z)) + sign(z) ) / 2,

where ``pullback`` inverts delta2 on [-1, 0] and delta1 on (0, 1], and
``sign`` is -1 on [-1, 0] and +1 on (0, 1].  T maps the space of
nondecreasing functions fixing the anchors into itself and contracts
sup-distance by the factor 1/2 (the factor comes from the division alone,
so flat-point branches are iterated just as fast).  :func:`contraction_step`
applies T once.

Grid choice
-----------
The fixed point is continuous but in general not C^1: near the endpoints
it behaves like a power law with exponent log 2 / log(1/delta'), which can
be far below 1.  A uniform grid therefore cannot represent h to the
accuracies the certification suite demands.  The solver instead samples h
on the *orbit grid*: all images of the anchors under branch words up to a
fixed depth.  h maps the depth-d orbit grid exactly onto the uniform
dyadic grid {k 2^-d}, so consecutive node values differ by exactly 2^-d
and the interpolation error is equidistributed.

The solver
----------
h intertwines the two systems, so h(w_delta(a)) = w_sigma(a) for every
branch word w and anchor a: the value of h at an orbit point is the
dyadic label of a word that reaches it.  :func:`conjugate_to_standard`
reads h off the labelled orbit, exactly and without iterating.  Near the
endpoints distinct words can collide at float resolution, or land out of
label order; each node then keeps the label of one word that reaches it,
and the labels are sorted alongside the nodes (see :func:`_orbit_labels`).

The log's ``residual`` is sup |Th - h| for one :func:`contraction_step`,
a diagnostic that nothing gates on, so :func:`conjugate` reads the target's
h off its labelled orbit and computes no residual for it.  T's pull-back
is solved by bisection, so on a complete grid the residual measures the
bisection error of T, not an error of h.  Where nodes are lost it is
several dyadic steps whether or not the sorting put a node off its own
words' labels (quadratic(0.249) at 2^12+1: 2.3e-3, each node within one
step of its labels; quadratic(0.2480): 2.0e-3, a node two steps off), so
it cannot tell the two apart either.  Iterating T from the identity
converges at ratio 1/2 to the fixed point of that bisection-perturbed T,
which is not h: for quadratic(0.2) it lies 4.9e-10 off the labels at
2^12+1 nodes and 8.9e-8 off at 2^16+1.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from . import funcspace
from .errors import BadArgument
from .families import (ANCHORS, DEFAULT_GRID, MAX_GRID, MapPair,
                       check_branches_invertible, check_grid, check_integer)
from .funcspace import MonotoneFunction
from .report import Report

#: Bisection step count: after 50 steps the walk below lies within
#: 2^-50 < 1e-15 of the solution; the extra steps take it to float
#: resolution, which the orbit grid needs near the endpoints.  Once a step
#: rounds, every later step is too small to move the walk, so a fixed
#: count stays deterministic.  Every target is evaluated exactly this many
#: times, whatever the block size below.
_BISECT_STEPS = 100

#: Targets walked together: a block's walk and gap arrays (256 kB each) and
#: the branch's temporaries stay in a core's cache through all the steps,
#: where one sweep of a 2^19-target branch per step streams megabytes
#: through memory.  numpy drops the interpreter lock only inside each
#: ufunc, so the blocks that the CPUs walk at once must be large enough
#: for their ufuncs to outlast the switching: for the pull-back of
#: quadratic(0.2) at 2^20+1 nodes, two threads took 0.60-0.69 s with
#: blocks of 8192 and one thread 0.59 s, while with 32768 two took
#: 0.43-0.45 s and one 0.62-0.66 s (2-core Xeon VM).
_BISECT_BLOCK = 32768


def _bisect_increasing(fun, targets: np.ndarray) -> np.ndarray:
    """Vectorized bisection solve fun(x) = target on [-1, 1], for 1-D
    `targets`.

    `fun` must be strictly increasing and finite with
    fun(-1) <= target <= fun(1).  Never uses derivatives, so branches with
    isolated flat points are handled safely.

    Bisection of [-1, 1] is a signed dyadic walk: its midpoints are
    mid_0 = 0 and mid_i = fl(mid_{i-1} + 2^-i) if fun(mid_{i-1}) < target,
    fl(mid_{i-1} - 2^-i) otherwise, and the result is the midpoint after
    ``_BISECT_STEPS`` steps.  While no step rounds, mid_i is the exact
    centre of the bracket [lo, hi] of width 2^(1-i) that bisection keeps.
    The first step that rounds gives fl of the same real centre that
    0.5 * (lo + hi) rounds to.  From then on the bracket's centre rounds
    onto its moved end, so the bracket stops moving; and every later step
    is at most a quarter of the float spacing at the walk's point (half
    the spacing below a power of two, a tie that rounds back to the even
    power), so the walk stops too.  The float gap fun(mid) - target has
    the sign of the exact one and is zero only when they are equal;
    ``gap += 0.0`` turns the -0.0 of -0.0 - (+0.0) into +0.0, so
    fun(mid) == target steps down, as "not below" does.

    `fun` must act elementwise and be pure: the targets are solved in
    blocks of ``_BISECT_BLOCK``, each through all the steps while its
    arrays stay in cache, and with more than one block and more than one
    CPU the blocks are dealt round-robin to the calling thread and one
    worker thread per further CPU, which call `fun` at the same time.
    Each target's walk depends only on its own values, so the result, and
    the ``_BISECT_STEPS`` evaluations of every target, do not depend on
    the block size or the thread count.  The workers end before this
    returns; an exception raised in one is raised here.
    """
    t = np.asarray(targets, dtype=float)
    out = np.empty_like(t)
    starts = range(0, t.size, _BISECT_BLOCK)
    affinity = getattr(os, "sched_getaffinity", None)
    cpus = max(1, min(len(starts),
                      len(affinity(0)) if affinity else os.cpu_count() or 1))

    def walk(thread):
        for start in starts[thread::cpus]:
            block = t[start:start + _BISECT_BLOCK]
            mid = np.zeros_like(block)
            gap = np.empty_like(block)
            for i in range(1, _BISECT_STEPS + 1):
                np.subtract(fun(mid), block, out=gap)
                gap += 0.0
                mid -= np.copysign(math.ldexp(1.0, -i), gap, out=gap)
            out[start:start + _BISECT_BLOCK] = mid

    errors = []

    def work(thread):
        try:
            walk(thread)
        except BaseException as exc:  # raised again by the caller
            errors.append(exc)

    workers = []
    try:
        for thread in range(1, cpus):
            worker = threading.Thread(target=work, args=(thread,))
            worker.start()
            workers.append(worker)
        walk(0)
    finally:
        for worker in workers:
            worker.join()
    if errors:
        raise errors[0]
    return out


class BranchInverse:
    """Two-branch right inverse of a map pair.

    ``pull_back(z)`` inverts delta2 for z in [-1, 0] and delta1 for z in
    (0, 1] (the breakpoint belongs to the left branch).  The anchor images
    are pinned exactly: pull_back(-1) = -1, pull_back(0) = 1,
    pull_back(1) = 1, which makes the contraction fix the anchors without
    rounding drift.
    """

    def __init__(self, pair: MapPair):
        self.pair = pair

    def pull_back(self, z):
        z = np.atleast_1d(np.asarray(z, dtype=float))
        left = z <= 0.0
        out = np.empty_like(z)
        out[left] = _bisect_increasing(self.pair.delta2, z[left])
        out[~left] = _bisect_increasing(self.pair.delta1, z[~left])
        out[z == -1.0] = -1.0
        out[z == 0.0] = 1.0
        out[z == 1.0] = 1.0
        return out


def contraction_step(g: MonotoneFunction, pair: MapPair) -> MonotoneFunction:
    """One application of the halving pull-back operator to `g`.

    The result is sampled on g's grid, fixes the anchors exactly and is
    nondecreasing.  Branch inverses are solved by bisection to float
    resolution: within 1e-14 of the exact inverse for regular branches
    (quadratic(0.249): 5.7e-15), and near a flat point anywhere on the
    interval where the float branch is constant (3.1e-7 either side of
    perturbed_flat(2)'s).  The per-branch running maximum repairs 1-ulp
    bisection wiggle so that monotonicity of the iterates survives exact
    comparisons.

    Raises
    ------
    BadArgument
        If `g` does not fix -1, 0, 1 at nodes (nondecrease is guaranteed
        by the MonotoneFunction invariant), or if a branch of `pair` is
        flat on an interval.
    """
    if not g.fixes_anchors():
        raise BadArgument("iterate must fix -1, 0 and 1 exactly at nodes")
    check_branches_invertible(pair)
    values = _step(g, pair)
    values.setflags(write=False)
    return MonotoneFunction(g.nodes, values)


def _step(g: MonotoneFunction, pair: MapPair) -> np.ndarray:
    """The values of :func:`contraction_step` at g's nodes, without its
    checks, for a `g` that fixes the anchors and a `pair` whose branches
    are invertible."""
    fz = BranchInverse(pair).pull_back(g.nodes)
    # the nodes increase, so those on the left branch, <= 0, come first;
    # in place, (g(fz) - 1) * 0.5 there and (g(fz) + 1) * 0.5 after are
    # the floats of 0.5 * (g(fz) + chi) with chi = -1, +1
    k = np.searchsorted(g.nodes, 0.0, side="right")
    np.maximum.accumulate(fz[:k], out=fz[:k])
    np.maximum.accumulate(fz[k:], out=fz[k:])
    values = np.interp(fz, g.nodes, g.values)
    values[:k] -= 1.0
    values[k:] += 1.0
    values *= 0.5
    return np.maximum.accumulate(values, out=values)


# --------------------------------------------------------------------------
# grids
# --------------------------------------------------------------------------

#: The deepest orbit walked, the one :func:`_labelled_h` walks at MAX_GRID;
#: each level doubles the points, so a deeper one outgrows every grid.
MAX_DEPTH = int(math.floor(math.log2(MAX_GRID - 1))) - 1


def labelled_orbit(pair: MapPair, depth: int) -> np.ndarray:
    """Orbit points indexed by their conjugation value.

    Entry k of the returned x is the point with h(x[k]) = -1 + k 2^-depth:
    the shortest branch word w with w_standard(a) = -1 + k 2^-depth,
    applied to the same anchor a through `pair`.  So x has 2^(depth+1) + 1
    entries, and their labels are ``np.linspace(-1.0, 1.0, x.size)``,
    exact dyadics.  Level l + 1 follows from level l because
    delta2 carries the labels of level l onto [-1, 0] and delta1 onto
    [0, 1]; the two halves share the label 0.  The anchors stay pinned, so
    every word that reaches an anchor restarts from it exactly, and for
    pairs that map the anchors to anchors exactly (every built-in family)
    each entry is its word walked through the pair's maps one branch at a
    time, bit for bit.  `depth` must be an integer in 0 .. MAX_DEPTH.
    """
    check_integer("orbit depth", depth)
    if not 0 <= depth <= MAX_DEPTH:
        raise BadArgument(
            f"orbit depth must be >= 0 and <= {MAX_DEPTH}, got {depth}")
    x = np.array(ANCHORS)
    for _ in range(depth):
        x = np.concatenate((pair.delta2(x), pair.delta1(x)[1:]))
        x[[0, x.size // 2, -1]] = ANCHORS
    return x


def orbit_points(pair: MapPair, max_len: int) -> list[tuple[float, float]]:
    """The samples of :func:`labelled_orbit` as (x, h(x)) tuples, one per
    word of length <= max_len from each anchor: per anchor by length, words
    of one length in the order of ``itertools.product((1, 2), repeat=length)``,
    the first applied branch leading.  Kept only for the benchmark's check
    of that order (``perfbench/test_reference.py``); use labelled_orbit.
    """
    x = labelled_orbit(pair, max_len)
    y = np.linspace(-1.0, 1.0, x.size)
    top = 2 ** max_len
    out = []
    for k in ([0], [top], [2 * top]):
        level = [np.array(k)]
        for _ in range(max_len):
            # sigma1 halves the index and adds 2^max_len, sigma2 halves it
            half = level[-1] // 2
            level.append(np.stack((half + top, half), axis=1).ravel())
        k = np.concatenate(level)
        out.extend(zip(x[k].tolist(), y[k].tolist()))
    return out


def build_orbit_grid(pair: MapPair, depth: int) -> np.ndarray:
    """All images of the anchors under branch words of length <= depth.

    The returned array is sorted and strictly increasing, contains
    -1, 0, 1, and generically has 2^(depth+1) + 1 points (fewer only if
    distinct words collide at float resolution).  The conjugation to the
    standard pair maps these nodes onto the uniform dyadic grid of step
    2^-depth.  `depth` must be an integer in 0 .. MAX_DEPTH.
    """
    x = labelled_orbit(pair, depth)
    x.sort(kind="stable")
    nodes = x[_run_starts(x)]
    # pinned as their labels are, so the zero node is +0.0 whichever word
    # reaches it
    nodes[np.searchsorted(nodes, ANCHORS)] = ANCHORS
    return nodes


def _run_starts(xs: np.ndarray) -> np.ndarray:
    """Where sorted `xs` holds a value it did not hold one entry before."""
    first = np.empty(xs.size, dtype=bool)
    first[:1] = True
    np.not_equal(xs[1:], xs[:-1], out=first[1:])
    return first


def _orbit_labels(pair: MapPair, depth: int, nodes: np.ndarray) -> np.ndarray:
    """The values of h at `nodes`, the nodes of build_orbit_grid(pair, depth).

    Each node takes the smallest label of the words that land on it, an
    anchor its own label, and the labels are sorted alongside the nodes.
    No two nodes share a word, so the labels are distinct and h fixes the
    anchors and increases strictly for any pair; nothing checks it again.
    """
    # the orbit is in label order but for a few collisions, so a stable
    # sort is nearly a pass, and it keeps the words of a node in label
    # order: the first of each run has the node's smallest label.  Word k's
    # label k 2^-depth - 1 is exact, the float np.linspace(-1, 1, ·) holds.
    # For quadratic(0.2) at 2^20+1 nodes this peaks 25 MiB above the nodes
    # (the orbit, its order, its sorted copy and the run mask), below the
    # 40 MiB that the residual's step of T adds to the solve (tracemalloc)
    x = labelled_orbit(pair, depth)
    word = np.argsort(x, kind="stable")
    first = _run_starts(x[word])
    del x
    labels = word[first] * 2.0 ** -depth
    labels -= 1.0
    labels[np.searchsorted(nodes, ANCHORS)] = ANCHORS
    labels.sort()
    return labels


def _labelled_h(pair: MapPair, grid: int) -> MonotoneFunction:
    """h of `pair` read off its labelled orbit on the largest 2^d + 1
    nodes within `grid`; the branches must be invertible."""
    check_grid(grid)
    depth = int(math.floor(math.log2(grid - 1))) - 1
    check_branches_invertible(pair)
    nodes = build_orbit_grid(pair, depth)
    labels = _orbit_labels(pair, depth, nodes)
    # the arrays are this solve's own, so h takes them without a copy
    nodes.setflags(write=False)
    labels.setflags(write=False)
    return MonotoneFunction(nodes, labels)


# --------------------------------------------------------------------------
# the solver
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ConvergenceLog(Report):
    """How far the operator T moves the solved h, and what h resolves.

    ``residual`` is sup |Th - h| over the nodes for one application of T,
    reported but not a test of h (see the module notes);
    ``max_local_variation`` is the largest value increment between
    adjacent nodes, the honest bound on what happens between samples.
    ``iterations`` is always 0, since the solver does not iterate; the
    benchmark's tracer still reads it.
    """

    residual: float
    grid: int
    max_local_variation: float

    iterations = 0


def conjugate_to_standard(pair: MapPair, grid: int = DEFAULT_GRID,
                          ) -> tuple[MonotoneFunction, ConvergenceLog]:
    """Compute the unique conjugation h of `pair` to the standard pair.

    h satisfies h(delta_i(t)) = sigma_i(h(t)) with sigma the standard
    maps, and fixes -1, 0, 1 exactly.  Its values at the orbit-grid nodes
    are the exact dyadic labels of the words that reach them (see module
    notes).

    Parameters
    ----------
    pair :
        Validated map pair with strictly increasing branches (regular,
        quasi-regular or isolated-flat-point families).
    grid :
        Node budget; the solver samples h on the orbit grid (see module
        notes), whose node count is the largest 2^d + 1 <= grid.

    Returns
    -------
    (h, log) :
        The sampled conjugation and its log.

    Raises
    ------
    BadArgument
        If a branch decreases or is flat on an interval.
    """
    h = _labelled_h(pair, grid)
    # T's bisection pull-back is most of this solve's time (0.42-0.43 s of
    # 0.57-0.60 s for quadratic(0.2) at 2^20+1 nodes, medians of 5 in two
    # rounds, 2-core Xeon VM) and serves only the residual.  It stays, in
    # the source solve of `conjugate` too, because perfbench pins it:
    # test_spans.py asserts 100 evaluations per node and
    # DeepSolve.required names the conjugacy.pullback and conjugacy.solve
    # spans (ROADMAP items 6 and 7).
    # `_labelled_h` has checked the branches and h fixes the anchors, so T
    # is applied without contraction_step's checks
    log = ConvergenceLog(
        residual=float(np.max(np.abs(_step(h, pair) - h.values))),
        grid=int(h.grid_size),
        max_local_variation=h.max_local_variation,
    )
    return h, log


def conjugate(source: MapPair, target: MapPair, grid: int = DEFAULT_GRID,
              ) -> tuple[MonotoneFunction, ConvergenceLog]:
    """Conjugation h of `source` to `target`, h(delta_i(t)) = tau_i(h(t)),
    and the log of the one solve it runs, the source's.

    Since conjugacy is an equivalence relation, h is h_target^{-1} o
    h_source with both factors conjugations to the standard pair, h_source
    solved by :func:`conjugate_to_standard`.  For the standard target h is
    h_source itself.  For any other target, h_target is read off its
    labelled orbit on the same `grid`, the values
    :func:`conjugate_to_standard` returns, with no residual computed; its
    inverse is the exact node/value swap, so the composition is node-exact
    wherever h_source lands on a dyadic value.

    Raises
    ------
    BadArgument
        If a branch of either pair decreases or is flat on an interval.
    """
    h, log = conjugate_to_standard(source, grid=grid)
    if target.family != "standard":
        h = funcspace.compose(funcspace.invert(_labelled_h(target, grid)), h)
    return h, log
