"""The conjugation solver.

Every regular configuration (delta1, delta2) is conjugate to the standard
pair sigma1 = (t+1)/2, sigma2 = (t-1)/2 by a unique homeomorphism h fixing
-1, 0 and 1.  h is computed as the fixed point of the halving pull-back
operator

    (Tg)(z) = ( g(pullback(z)) + sign(z) ) / 2,

where ``pullback`` inverts delta2 on [-1, 0] and delta1 on (0, 1], and
``sign`` is -1 on [-1, 0] and +1 on (0, 1].  T maps the space of
nondecreasing functions fixing the anchors into itself and contracts
sup-distance by the factor 1/2 (the factor comes from the division alone,
so flat-point branches are iterated just as fast; only the a-posteriori
homeomorphism check depends on regularity).

Grid choice
-----------
The fixed point is continuous but in general not C^1: near the endpoints
it behaves like a power law with exponent log 2 / log(1/delta'), which can
be far below 1.  A uniform grid therefore cannot represent h to the
accuracies the certification suite demands.  The solver instead samples h
on the *orbit grid*: all images of the anchors under branch words up to a
fixed depth.  h maps the depth-d orbit grid exactly onto the uniform
dyadic grid {k 2^-d}, so consecutive node values differ by exactly 2^-d
and the interpolation error is equidistributed.  Two bonuses follow:

* in exact arithmetic the pull-back maps the depth-d orbit grid into the
  depth-(d-1) orbit grid, so the discrete iteration would evaluate the
  previous iterate at nodes only;
* after about d iterations the update collapses to rounding noise, so
  convergence to tight tolerances takes a few dozen steps at most.

The pull-back is computed by bisection, so its images miss the shallower
nodes by rounding, and interpolating there carries that error into every
later iterate.  The iteration converges to the fixed point of this
bisection-perturbed discrete operator, and that is what the convergence
log certifies: its residual measures the distance to that fixed point,
not to h.  For quadratic(0.2) at 2^16+1 nodes the solved h(0.7) is
8.9e-8 off the exact value 1/2 while the log's residual reads 3.5e-11.
The exact samples of h are the orbit labels (:func:`orbit_oracle`).

A uniform grid remains available via ``grid_kind="uniform"``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import funcspace
from .errors import BranchNotInvertible, MaxIterExceeded, NotInC
from .families import ANCHORS, MapPair
from .funcspace import MonotoneFunction
from .report import Report

DEFAULT_GRID = 4097
DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 200

#: Bisection step count: 50 steps already bracket to 2^-49 * 2 < 1e-14;
#: the extra steps let the bracket collapse to adjacent floats, which the
#: orbit grid needs near the endpoints.  Bisection stalls stably once the
#: bracket reaches float resolution, so a fixed count stays deterministic.
_BISECT_STEPS = 100


def _bisect_increasing(fun, targets: np.ndarray) -> np.ndarray:
    """Vectorized bisection solve fun(x) = target on [-1, 1].

    `fun` must be strictly increasing with fun(-1) <= target <= fun(1).
    Never uses derivatives, so branches with isolated flat points are
    handled safely.
    """
    t = np.asarray(targets, dtype=float)
    lo = np.full_like(t, -1.0)
    hi = np.full_like(t, 1.0)
    for _ in range(_BISECT_STEPS):
        mid = 0.5 * (lo + hi)
        below = np.asarray(fun(mid)) < t
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi)


class BranchInverse:
    """Two-branch right inverse of a map pair, with its sign map.

    ``pull_back(z)`` inverts delta2 for z in [-1, 0] and delta1 for z in
    (0, 1]; ``sign(z)`` is -1 on [-1, 0] and +1 on (0, 1] (the breakpoint
    belongs to the left branch).  The anchor images are pinned exactly:
    pull_back(-1) = -1, pull_back(0) = 1, pull_back(1) = 1, which makes
    the contraction fix the anchors without rounding drift.
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

    def sign(self, z):
        z = np.asarray(z, dtype=float)
        return np.where(z <= 0.0, -1.0, 1.0)


def _require_in_cone(g: MonotoneFunction):
    if not g.fixes_anchors():
        raise NotInC("iterate must fix -1, 0 and 1 exactly at nodes")
    # nondecreasing holds by MonotoneFunction construction


def _check_branches_invertible(pair: MapPair, probe: int = 4097):
    """Reject pairs whose branches are flat on an interval (no inverse).

    Isolated flat points are fine; a run of more than two consecutive
    probe points with near-zero derivative (or any negative derivative)
    is not.
    """
    t = np.linspace(-1.0, 1.0, probe)
    for name, d in (("delta1", pair.d_delta1), ("delta2", pair.d_delta2)):
        dv = np.asarray(d(t))
        if np.min(dv) < -1e-12:
            raise BranchNotInvertible(f"{name} is decreasing somewhere")
        flat = dv <= 1e-12
        if flat.any():
            idx = np.flatnonzero(flat)
            runs = np.split(idx, np.flatnonzero(np.diff(idx) > 1) + 1)
            if max(len(r) for r in runs) > 2:
                raise BranchNotInvertible(
                    f"{name} is flat on an interval; branch not invertible"
                )


def contraction_step(g: MonotoneFunction, pair: MapPair) -> MonotoneFunction:
    """One application of the halving pull-back operator to `g`.

    The result is sampled on g's grid, fixes the anchors exactly and is
    nondecreasing.  Branch inverses are solved by bisection to below
    1e-12.

    Raises
    ------
    NotInC
        If `g` does not fix -1, 0, 1 at nodes (nondecrease is guaranteed
        by the MonotoneFunction invariant).
    BranchNotInvertible
        If a branch of `pair` is flat on an interval.
    """
    _require_in_cone(g)
    _check_branches_invertible(pair)
    fz, chi = _pulled_back_grid(pair, g.nodes)
    vals = 0.5 * (np.interp(fz, g.nodes, g.values) + chi)
    vals = np.maximum.accumulate(vals)
    out = MonotoneFunction(g.nodes, vals, provenance="contraction-step")
    assert np.all(np.diff(out.values) >= 0.0)
    return out


def _pulled_back_grid(pair: MapPair, nodes: np.ndarray):
    """Branch-inverse images and signs of the grid, computed once per run.

    The per-branch running maximum repairs 1-ulp bisection wiggle so that
    monotonicity of the iterates survives exact comparisons.
    """
    inv = BranchInverse(pair)
    fz = inv.pull_back(nodes)
    chi = inv.sign(nodes)
    left = nodes <= 0.0
    fz[left] = np.maximum.accumulate(fz[left])
    fz[~left] = np.maximum.accumulate(fz[~left])
    return fz, chi


# --------------------------------------------------------------------------
# grids
# --------------------------------------------------------------------------

def _labelled_orbit(pair: MapPair, depth: int) -> np.ndarray:
    """Orbit points indexed by their conjugation value.

    Entry k is the point x with h(x) = -1 + k 2^-depth: the shortest
    branch word w with w_standard(a) = -1 + k 2^-depth, applied to the
    same anchor a through `pair`.  Level l + 1 follows from level l because
    delta2 carries the labels of level l onto [-1, 0] and delta1 onto
    [0, 1]; the two halves share the label 0.  The anchors stay pinned, so
    every word that reaches an anchor restarts from it exactly.
    """
    x = np.array(ANCHORS)
    for _ in range(depth):
        x = np.concatenate((pair.delta2(x), pair.delta1(x)[1:]))
        x[[0, x.size // 2, -1]] = ANCHORS
    return x


def build_orbit_grid(pair: MapPair, depth: int) -> np.ndarray:
    """All images of the anchors under branch words of length <= depth.

    The returned array is sorted and strictly increasing, contains
    -1, 0, 1, and generically has 2^(depth+1) + 1 points (fewer only if
    distinct words collide at float resolution).  The conjugation to the
    standard pair maps these nodes onto the uniform dyadic grid of step
    2^-depth.
    """
    return np.unique(_labelled_orbit(pair, depth))


def _solver_nodes(pair: MapPair, grid: int, grid_kind: str) -> np.ndarray:
    if grid < 257:
        raise ValueError("grid must be >= 257")
    if grid_kind == "uniform":
        return np.linspace(-1.0, 1.0, grid)
    if grid_kind == "adapted":
        depth = max(2, int(math.floor(math.log2(grid - 1))) - 1)
        return build_orbit_grid(pair, depth)
    raise ValueError(f"grid_kind must be 'adapted' or 'uniform', got {grid_kind!r}")


# --------------------------------------------------------------------------
# the solver
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ConvergenceLog(Report):
    """Per-iteration diagnostics of the fixed-point run.

    ``distances[i]`` is the sup-distance between iterates i and i+1;
    ``ratios`` are successive quotients of those distances (each bounded
    by 1/2 up to rounding); ``residual`` is the sup-distance between the
    returned function and one further operator application;
    ``max_local_variation`` is the largest value increment between
    adjacent nodes, the honest bound on what happens between samples.
    ``strictly_increasing`` is the a-posteriori homeomorphism check: the
    contraction converges for flat-point pairs just as fast, but only
    derivatives bounded inside (0, 1) guarantee injectivity a priori, so
    the solver checks the result and reports.  The residual certifies the
    fixed point of the bisection-perturbed operator, not h itself (see
    the module notes).
    """

    iterations: int
    distances: tuple
    ratios: tuple
    residual: float
    grid: int
    tol: float
    max_local_variation: float
    grid_kind: str = "adapted"
    strictly_increasing: bool = True


def conjugate_to_standard(pair: MapPair, grid: int = DEFAULT_GRID,
                          tol: float = DEFAULT_TOL,
                          max_iter: int = DEFAULT_MAX_ITER,
                          initial: MonotoneFunction | None = None,
                          grid_kind: str = "adapted",
                          ) -> tuple[MonotoneFunction, ConvergenceLog]:
    """Compute the unique conjugation h of `pair` to the standard pair.

    h satisfies h(delta_i(t)) = sigma_i(h(t)) with sigma the standard
    maps, and fixes -1, 0, 1 exactly at those nodes.  Iteration starts
    from the identity (or from `initial`, resampled onto the solver grid)
    and stops once successive iterates are within `tol` in sup-distance.

    Parameters
    ----------
    pair :
        Validated map pair with strictly increasing branches (regular,
        quasi-regular or isolated-flat-point families).
    grid :
        Node budget; with the default adapted grid the actual node count
        is the largest 2^d + 1 <= grid along branch orbits.
    grid_kind :
        "adapted" (default) samples h where it varies, see module notes;
        "uniform" reproduces plain equispaced sampling.

    Returns
    -------
    (h, log) :
        The sampled conjugation and its convergence log.

    Raises
    ------
    MaxIterExceeded
        If `max_iter` steps do not reach `tol`; the partial log is
        attached to the exception.
    BranchNotInvertible
        If a branch is flat on an interval.
    """
    _check_branches_invertible(pair)
    nodes = _solver_nodes(pair, grid, grid_kind)
    if initial is None:
        h = np.array(nodes)  # the identity on the solver grid
    else:
        _require_in_cone(initial)
        h = np.interp(nodes, initial.nodes, initial.values)

    fz, chi = _pulled_back_grid(pair, nodes)

    def step(values):
        out = 0.5 * (np.interp(fz, nodes, values) + chi)
        return np.maximum.accumulate(out)

    distances = []
    converged = False
    for _ in range(max_iter):
        h_next = step(h)
        d = float(np.max(np.abs(h_next - h)))
        distances.append(d)
        h = h_next
        if d <= tol:
            converged = True
            break

    ratios = tuple(
        distances[i + 1] / distances[i]
        for i in range(len(distances) - 1)
        if distances[i] > 0.0
    )
    residual = float(np.max(np.abs(step(h) - h)))
    result = MonotoneFunction(np.array(nodes), h, provenance="solver")
    log = ConvergenceLog(
        iterations=len(distances),
        distances=tuple(distances),
        ratios=ratios,
        residual=residual,
        grid=int(nodes.size),
        tol=float(tol),
        max_local_variation=result.max_local_variation,
        grid_kind=grid_kind,
        strictly_increasing=result.is_strictly_increasing(),
    )
    if not converged:
        raise MaxIterExceeded(
            f"no convergence to {tol} within {max_iter} iterations", log=log
        )
    return result, log


def conjugate(source: MapPair, target: MapPair, grid: int = DEFAULT_GRID,
              tol: float = DEFAULT_TOL) -> MonotoneFunction:
    """Conjugation h of `source` to `target`: h(delta_i(t)) = tau_i(h(t)).

    Since conjugacy is an equivalence relation, h is obtained as
    h_target^{-1} o h_source with both factors conjugations to the
    standard pair; see :func:`retarget`.

    Raises
    ------
    NotInvertible
        If the target's conjugation has a plateau at grid resolution.
    """
    h_src, _ = conjugate_to_standard(source, grid=grid, tol=tol)
    return retarget(h_src, target, grid=grid, tol=tol)


def retarget(h_source: MonotoneFunction, target: MapPair, grid: int,
             tol: float) -> MonotoneFunction:
    """Turn a conjugation of some pair to the standard pair into its
    conjugation to `target`, h_target^{-1} o h_source.

    The target is solved on the same `grid` and `tol`.  Its inverse uses
    the exact node/value swap, so the composition is node-exact wherever
    h_source lands on a dyadic value.

    Raises
    ------
    NotInvertible
        If the target's conjugation has a plateau at grid resolution.
    """
    h_tgt, _ = conjugate_to_standard(target, grid=grid, tol=tol)
    inv_tgt = funcspace.invert(h_tgt, resample=False)
    h = funcspace.compose(inv_tgt, h_source)
    return MonotoneFunction(h.nodes, h.values, provenance="solver")


# --------------------------------------------------------------------------
# the exact dyadic-orbit oracle
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Word:
    """A finite branch word applied to a base anchor point.

    ``branches`` is a sequence over {1, 2}; entry 0 is applied first.
    """

    branches: tuple
    base: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "branches", tuple(self.branches))
        object.__setattr__(self, "base", float(self.base))
        if not set(self.branches) <= {1, 2}:
            raise ValueError("branches must be over {1, 2}")
        if self.base not in ANCHORS:
            raise ValueError("base must be one of -1, 0, 1")

    @classmethod
    def from_dyadic(cls, y: float, max_len: int) -> Word:
        """The shortest word that carries an anchor to the dyadic `y`
        through the standard maps.

        Walks y back through the standard maps until it reaches an
        anchor; every step is exact in floats for dyadic y.  Raises
        ValueError if that takes more than `max_len` steps.
        """
        branches = []
        while y not in ANCHORS:
            if y > 0.0:
                branches.append(1)
                y = 2.0 * y - 1.0
            else:
                branches.append(2)
                y = 2.0 * y + 1.0
            if len(branches) > max_len:
                raise ValueError("y is not dyadic at the requested depth")
        return cls(tuple(reversed(branches)), base=y)


def orbit_oracle(pair: MapPair, word: Word) -> tuple[float, float]:
    """Exact (abscissa, ordinate) sample of the conjugation to standard.

    The abscissa is the branch word applied to the base through `pair`;
    the ordinate is the same word applied through the standard maps, an
    exact dyadic rational.  Because the conjugation intertwines the two
    systems and fixes the anchors, the ordinate is the true value of h at
    the abscissa, independent of any solver output.
    """
    x = float(word.base)
    y = float(word.base)
    for b in word.branches:
        if b == 1:
            x = float(pair.delta1(x))
            y = (y + 1.0) / 2.0
        else:
            x = float(pair.delta2(x))
            y = (y - 1.0) / 2.0
    return x, y


def orbit_points(pair: MapPair, max_len: int,
                 bases=ANCHORS) -> list[tuple[float, float]]:
    """All oracle samples for words of length <= max_len over the bases.

    For each base the words come by length; words of one length come in
    the order of ``itertools.product((1, 2), repeat=length)``, the first
    applied branch leading.  Each sample is gathered from the labelled
    orbit by its ordinate, so for pairs that map the anchors to anchors
    exactly (every built-in family) it equals :func:`orbit_oracle` of its
    word.
    """
    x = _labelled_orbit(pair, max_len)
    out = []
    for base in bases:
        if base not in ANCHORS:
            raise ValueError("bases must be among -1, 0, 1")
        y = np.array([float(base)])
        labels = [y]
        for _ in range(max_len):
            y = np.stack(((y + 1.0) / 2.0, (y - 1.0) / 2.0), axis=1).ravel()
            labels.append(y)
        y = np.concatenate(labels)
        k = ((y + 1.0) * 2.0 ** max_len).astype(np.int64)
        out.extend(zip(x[k].tolist(), y.tolist()))
    return out


# --------------------------------------------------------------------------
# verification
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ConjugacyReport(Report):
    """Measured intertwining residuals of a candidate conjugation."""

    max_residual: float
    residual_branch_1: float
    residual_branch_2: float
    anchor_deviations: tuple
    grid: int


def verify_conjugacy(h: MonotoneFunction, source: MapPair, target: MapPair,
                     grid: int = DEFAULT_GRID) -> ConjugacyReport:
    """Max over a uniform grid and both branches of
    |h(delta_i(t)) - tau_i(h(t))|, plus the three anchor deviations."""
    t = np.union1d(np.linspace(-1.0, 1.0, grid), (-1.0, 0.0, 1.0))
    ht = funcspace.evaluate(h, t)
    r1 = np.abs(funcspace.evaluate(h, np.clip(source.delta1(t), -1.0, 1.0))
                - target.delta1(ht))
    r2 = np.abs(funcspace.evaluate(h, np.clip(source.delta2(t), -1.0, 1.0))
                - target.delta2(ht))
    anchors = tuple(
        abs(funcspace.evaluate(h, a) - a) for a in (-1.0, 0.0, 1.0)
    )
    return ConjugacyReport(
        max_residual=float(max(np.max(r1), np.max(r2))),
        residual_branch_1=float(np.max(r1)),
        residual_branch_2=float(np.max(r2)),
        anchor_deviations=anchors,
        grid=int(t.size),
    )
