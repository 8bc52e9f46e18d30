"""Solutions of the homogeneous Cauchy-type functional equation

    f(t) = f(delta1(t)) + f(delta2(t)),   t in [-1, 1].

Linear functions f(t) = c t always solve it when the pair is additive
(delta1 + delta2 = t).  Nonlinear continuous solutions exist as well: any
conjugation h of the pair to a *different* additive pair solves the
equation, because summing the two intertwining identities gives
h(delta1(t)) + h(delta2(t)) = tau1(h(t)) + tau2(h(t)) = h(t).  Such an h
fixes 1, so if it were linear it would be the identity, forcing the two
pairs to coincide; distinct pairs therefore yield genuinely nonlinear
solutions.

This module packages that construction (:func:`solve_nonlinear`), measures
how well a candidate solves the equation (:func:`fe_residual`), measures
distance from the linear family (:func:`nonlinearity_gap`), and inverts
the construction: a strictly increasing continuous solution fixing the
anchors induces a conjugate system sigma_i = f o delta_i o f^{-1} that is
additive with the standard boundary pattern, but carries no
differentiability guarantee (:func:`induced_system`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import funcspace
# conjugate_to_standard is not called here: perfbench/test_spans.py
# checks that its tracer wraps this import site (ROADMAP item 6)
from .conjugacy import DEFAULT_GRID, conjugate, conjugate_to_standard  # noqa: F401
from .errors import BadArgument, InvalidPair
from .families import (BOUNDARY, MapPair, _grid_with_anchors, check_grid,
                       check_pair, pairs_agree_on_grid, quadratic_pair,
                       standard_pair, validate)
from .funcspace import MonotoneFunction
from .report import Report


@dataclass(frozen=True)
class SolutionCertificate(Report):
    """A produced solution together with its measured quality.

    ``fe_residual`` is the grid supremum of |f - f o delta1 - f o delta2|;
    ``nonlinearity_gap`` the grid supremum of |f(t) - f(1) t|.  A zero gap
    means the samples are exactly the linear function through f(1).
    ``degenerate`` marks the case where source and target coincide and
    only the linear (identity) solution could be produced.
    """

    solution: MonotoneFunction
    fe_residual: float
    nonlinearity_gap: float
    source: dict
    target: dict
    grid: int
    degenerate: bool = False

    def to_dict(self) -> dict:
        """The fields without the sampled solution, which gets its own CSV;
        its node count and largest value step stand in for it."""
        out = super().to_dict()
        del out["solution"]
        out["solution_nodes"] = self.solution.grid_size
        out["solution_max_local_variation"] = self.solution.max_local_variation
        return out


def fe_residual(f, pair: MapPair, grid: int = DEFAULT_GRID) -> float:
    """Sup over a uniform grid of |f(t) - f(delta1(t)) - f(delta2(t))|.

    `f` is a :class:`MonotoneFunction` or any plain callable on [-1, 1]
    (linear comparators c t with |c| > 1 cannot be monotone samples, yet
    are exact solutions whenever the pair is additive).
    """
    check_grid(grid)
    if isinstance(f, MonotoneFunction):
        def ev(x):
            return funcspace.evaluate(f, np.clip(x, -1.0, 1.0))
    else:
        ev = f
    t = _grid_with_anchors(grid)
    res = np.abs(np.asarray(ev(t))
                 - np.asarray(ev(pair.delta1(t)))
                 - np.asarray(ev(pair.delta2(t))))
    return float(np.max(res))


def nonlinearity_gap(f: MonotoneFunction) -> float:
    """Sup over f's nodes of |f(t) - c t| with c = f(1), measuring distance
    to the linear family.

    Any linear solution that matches f at the pinned node t = 1 has the
    slope f(1), so this is the deterministic comparator.
    """
    c = float(f.values[-1])
    return float(np.max(np.abs(f.values - c * f.nodes)))


def solve_nonlinear(pair: MapPair, target: MapPair | None = None,
                    grid: int = DEFAULT_GRID) -> SolutionCertificate:
    """Produce a continuous nonlinear solution for the given pair.

    The solution is the conjugation of `pair` to `target`; the target must
    be additive so that the sum of the intertwining identities collapses,
    and an explicit target that is not is refused before anything is
    solved.  By default the target is the standard pair; if `pair` itself
    is the standard pair the default target switches to quadratic(0.2),
    since a coinciding target could only produce the linear solution.

    If an explicitly requested target coincides with `pair` on the grid,
    only the linear solution exists: the identity is returned with
    ``degenerate=True`` and a zero ``nonlinearity_gap``.  A guided pair's
    branches still increase strictly, so it is solved as any other.

    Raises
    ------
    InvalidPair
        If an explicit `target` is not additive, or if
        ``families.check_pair`` refuses `pair` or `target`.
    BadArgument
        If `grid` is outside MIN_GRID .. MAX_GRID, whichever the target.
    """
    check_grid(grid)
    if target is None:
        target = standard_pair()
        if pairs_agree_on_grid(pair, target):
            target = quadratic_pair(0.2)
    elif not validate(target).additivity_ok:
        raise InvalidPair("target is not additive: delta1 + delta2 != t")
    elif pairs_agree_on_grid(pair, target):
        check_pair(pair)
        ident = funcspace.identity(17)
        return SolutionCertificate(
            solution=ident,
            fe_residual=fe_residual(ident, pair, grid=grid),
            nonlinearity_gap=0.0,
            source=pair.descriptor(),
            target=target.descriptor(),
            grid=int(grid),
            degenerate=True,
        )

    h, _ = conjugate(pair, target, grid=grid)
    return SolutionCertificate(
        solution=h,
        fe_residual=fe_residual(h, pair, grid=grid),
        nonlinearity_gap=nonlinearity_gap(h),
        source=pair.descriptor(),
        target=target.descriptor(),
        grid=int(grid),
    )


# --------------------------------------------------------------------------
# the induced system of a solution
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class InducedSystemReport(Report):
    """Verification of the system induced by a solution.

    The induced maps satisfy additivity and the boundary pattern within
    the reported deviations.  They are continuous and strictly increasing
    but *not* claimed differentiable, so the report never calls them a
    P-configuration.
    """

    additivity_max_dev: float
    additivity_ok: bool
    boundary_deviations: dict
    boundary_ok: bool
    tol: float
    grid: int


#: How far the induced maps may miss additivity or the boundary pattern
#: for :func:`induced_system` to report them satisfied.
INDUCED_TOL = 1e-3


def induced_system(f: MonotoneFunction, pair: MapPair,
                   ) -> tuple[tuple[MonotoneFunction, MonotoneFunction],
                              InducedSystemReport]:
    """Sample the conjugate system sigma_i = f o delta_i o f^{-1}.

    `f` must be strictly increasing at grid level and fix -1, 0, 1
    exactly.  The induced maps are sampled on the uniform grid of
    DEFAULT_GRID nodes; the report records how well they satisfy
    additivity and the boundary pattern, each within ``INDUCED_TOL``
    (differentiability is not claimed).

    Raises
    ------
    BadArgument
        If `f` does not fix the anchors, or has equal consecutive node
        values.
    """
    if not f.fixes_anchors():
        raise BadArgument("solution must fix -1, 0 and 1 exactly")

    t = np.linspace(-1.0, 1.0, DEFAULT_GRID)
    # f spans [-1, 1] once it fixes the anchors, so only a plateau stops
    # the inversion
    x = funcspace.evaluate(funcspace.invert(f), t)
    s1 = funcspace.evaluate(f, np.clip(pair.delta1(x), -1.0, 1.0))
    s2 = funcspace.evaluate(f, np.clip(pair.delta2(x), -1.0, 1.0))
    # guard 1-ulp interpolation wiggle; the maps are monotone compositions
    s1 = np.maximum.accumulate(s1)
    s2 = np.maximum.accumulate(s2)
    sigma1 = MonotoneFunction(t, s1)
    sigma2 = MonotoneFunction(t, s2)

    add_dev = float(np.max(np.abs(s1 + s2 - t)))
    # the nodes run from -1 to 1, so the ends of s1 and s2 are the values
    # there, in BOUNDARY's order
    ends = (s1[0], s1[-1], s2[0], s2[-1])
    bdev = {key.replace("delta", "sigma"): abs(float(end) - value)
            for (key, value), end in zip(BOUNDARY.items(), ends)}
    report = InducedSystemReport(
        additivity_max_dev=add_dev,
        additivity_ok=add_dev <= INDUCED_TOL,
        boundary_deviations=bdev,
        boundary_ok=all(v <= INDUCED_TOL for v in bdev.values()),
        tol=float(INDUCED_TOL),
        grid=int(t.size),
    )
    return (sigma1, sigma2), report
