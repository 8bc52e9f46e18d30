"""Regularity diagnostics and the flat-point non-isomorphism experiment.

Non-smoothness witness
----------------------
Conjugations between distinct regular configurations solve the additive
functional equation nonlinearly, and nonlinear solutions cannot be C^1;
numerically this surfaces as unbounded one-sided difference quotients at
the endpoint fixed points.  Near t0 = 1 the first branch acts like
multiplication by a = delta1'(1) while the standard target halves, so the
conjugation scales like s^beta with beta = log 2 / log(1/a), and the
quotient at scale s grows like s^(beta-1).  Successive dyadic quotients
then hover around 2^(1-beta) -- *around*, not *at*: the local conjugacy to
the linear model carries a genuine log-periodic modulation (period
log2(1/a) in the scale exponent), so the ratio sequence oscillates.  The
oracle enclosure below measures that oscillation exactly, without
consulting the solver.

Flat-point experiment
---------------------
For the flat-point families, dyadic endpoints 1 - 2^-m are fixed by any
intertwiner (induction from h(0) = 0 up the branch orbit), so an
isomorphism of the underlying systems maps each dyadic cell J_m to itself
and can never match flat points living in different cells.  Guided systems
with perturbations in different cells are therefore non-isomorphic, even
though the underlying dynamical systems are intertwined by the computed h.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import funcspace
from .conjugacy import DEFAULT_GRID, conjugate
from .errors import BadArgument
from .families import (MAX_CELL, MapPair, check_integer, check_number,
                       check_pair, flat_interval, perturbed_flat_pair)
from .funcspace import MonotoneFunction
from .report import Report


# --------------------------------------------------------------------------
# difference quotients and Holder exponent
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class QuotientProbe(Report):
    """One-sided difference quotients of f at an endpoint, over dyadic
    scales 2^-k, with successive ratios and the log-log fitted exponent."""

    t0: float
    k_values: tuple
    scales: tuple
    quotients: tuple
    ratios: tuple
    holder_exponent: float
    grid_size: int

    def to_csv(self) -> str:
        """Rows ``k,step,quotient,ratio``; the ratio on row k compares
        scale 2^-(k+1) against 2^-k and is empty on the last row."""
        buf = io.StringIO()
        buf.write("k,step,quotient,ratio\n")
        for i, k in enumerate(self.k_values):
            ratio = f"{self.ratios[i]:.17g}" if i < len(self.ratios) else ""
            buf.write(
                f"{k},{self.scales[i]:.17g},{self.quotients[i]:.17g},{ratio}\n")
        return buf.getvalue()


def _local_gaps(nodes: np.ndarray, queries) -> np.ndarray:
    """Width of the node gap that holds each query point (the first or
    last gap for queries outside the nodes)."""
    idx = np.clip(np.searchsorted(nodes, queries), 1, nodes.size - 1)
    return nodes[idx] - nodes[idx - 1]


def check_probe(t0: float, k_min: int, k_max: int) -> float:
    """t0 as a float; :class:`BadArgument` unless t0 is -1 or 1 and the
    scales are integers 1 <= k_min < k_max <= 1023: the enclosure's
    quotient bounds reach 2^k_max, 2^1024 overflows a double, and no grid
    resolves a scale below 2^-52."""
    t0 = check_number("t0", t0)
    if t0 not in (-1.0, 1.0):
        raise BadArgument(f"t0 must be -1 or 1, got {t0}")
    k_min = check_integer("k_min", k_min, 1, 1022)
    check_integer("k_max", k_max, k_min + 1, 1023)
    return t0


def difference_quotients(f: MonotoneFunction, t0: float,
                         k_min: int = 4, k_max: int = 10) -> QuotientProbe:
    """One-sided quotients |f(t0) - f(t0 -/+ 2^-k)| / 2^-k, k = k_min..k_max.

    The probe always points toward the interior.  At least two scales
    are needed to fit the exponent.  The finest scale must be resolved by
    the grid: 2^-k_max has to be at least twice the widest node gap inside
    the probed window, else :class:`BadArgument`.
    """
    t0 = check_probe(t0, k_min, k_max)
    sign = -1.0 if t0 == 1.0 else 1.0
    ks = np.arange(k_min, k_max + 1)
    scales = 2.0 ** (-ks.astype(float))

    # each scale must be resolved by the grid *where it probes*: the gap
    # containing t0 -/+ 2^-k has to be at most half that scale
    local_gaps = _local_gaps(f.nodes, t0 + sign * scales)
    bad = scales < 2.0 * local_gaps
    if np.any(bad):
        j = int(np.flatnonzero(bad)[0])
        raise BadArgument(
            f"scale 2^-{int(ks[j])} = {scales[j]:.3g} below grid resolution "
            f"(local node gap {local_gaps[j]:.3g})"
        )

    fa = funcspace.evaluate(f, t0)
    fb = funcspace.evaluate(f, t0 + sign * scales)
    deltas = np.abs(fa - fb)
    quotients = deltas / scales
    ratios = tuple(
        float(quotients[i + 1] / quotients[i])
        for i in range(len(quotients) - 1)
        if quotients[i] > 0.0
    )
    if np.all(deltas > 0.0):
        slope = np.polyfit(np.log(scales), np.log(deltas), 1)[0]
        holder = float(slope)
    else:
        holder = float("nan")
    return QuotientProbe(
        t0=float(t0),
        k_values=tuple(int(k) for k in ks),
        scales=tuple(float(s) for s in scales),
        quotients=tuple(float(q) for q in quotients),
        ratios=ratios,
        holder_exponent=holder,
        grid_size=f.grid_size,
    )


# --------------------------------------------------------------------------
# solver-independent oracle enclosure of endpoint quotients
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class QuotientEnclosure(Report):
    """Per-scale bounds on endpoint difference quotients, from orbit points.

    Bounds come from monotone bracketing between orbit points whose
    conjugation values are dyadics of denominator 2^depth, exact at any
    depth; no solver output is involved.  The bracket points are float
    orbit points, each within 2^-52 of the exact one, so the bounds hold
    up to that error in the abscissae.  ``ratio_bounds[i]`` encloses
    quotient(k+1)/quotient(k).  A query closer to t0 than the first inward
    orbit point gets the lower quotient bound 0, and the ratios over it
    the upper bound inf: valid, but uninformative.
    """

    t0: float
    k_values: tuple
    quotient_bounds: tuple
    ratio_bounds: tuple
    depth: int


def _ratio_bounds(num: tuple, den: tuple) -> tuple:
    """Bounds on num/den from nonnegative bounds on both, each quotient
    stepped one float outward where rounding put it inside the exact one;
    a lower bound of 0 on the denominator leaves the ratio unbounded
    above."""
    lo = num[0] / den[1]
    if Fraction(lo) * Fraction(den[1]) > Fraction(num[0]):
        lo = math.nextafter(lo, -math.inf)
    if den[0] == 0.0:
        return (lo, math.inf)
    hi = num[1] / den[0]
    if Fraction(hi) * Fraction(den[0]) < Fraction(num[1]):
        hi = math.nextafter(hi, math.inf)
    return (lo, hi)


def oracle_quotient_enclosure(pair: MapPair, t0: float = 1.0,
                              k_min: int = 6, k_max: int = 13,
                              depth: int = 22) -> QuotientEnclosure:
    """Enclose |h(t0) - h(t0 -/+ 2^-k)| / 2^-k using orbit points only.

    Each scale's query abscissa is bracketed between the orbit points j
    and j + 1 dyadic steps of 2^-depth inward from t0, whose conjugation
    values are known; monotonicity of h turns the bracket into bounds
    on the quotient.  This is the independent confirmation channel for
    quotient-ratio bands: it measures the true log-periodic oscillation
    around 2^(1-beta) without trusting the fixed-point solver.  At least
    two scales are needed, so that there is a ratio to enclose, and a
    depth of 0 .. 1074; at depth 0 each bracket is the whole half-interval
    from t0 to 0, so the bounds hold but say little, and past 1074 the
    label step 2^-depth is below the smallest double.  The labels are
    integers over 2^depth, exact at any depth; only the abscissae are
    floats, each within 2^-52 of the exact orbit point, so at a depth where
    that exceeds the spacing of the orbit points a bracket can be off by a
    label.  The cost is about depth^2 / 2 steps of one vectorised walk,
    whatever the number of scales.  A pair that ``families.check_pair``
    refuses has no h, so raises :class:`InvalidPair`.
    """
    t0 = check_probe(t0, k_min, k_max)
    depth = check_integer("depth", depth, 0, 1074)  # an int for math.ldexp
    check_pair(pair)
    sign = -1.0 if t0 == 1.0 else 1.0
    ks = range(k_min, k_max + 1)
    scales = np.array([2.0 ** (-float(k)) for k in ks])

    # bits[b] is bit b of each scale's j, the largest index whose orbit
    # point lies short of the query (index 2^depth is 0 itself), decided
    # from the top: bit b is kept where the point of j + 2^b still does.
    # That label's lowest set bit is b, and it is walked from 0 through
    # bits b+1..depth of j, lowest first, taking delta1 where the bit is
    # set for t0 = -1 and where it is clear for t0 = 1 (labels counted
    # down from 1 carry the complemented bits)
    bits = np.zeros((depth + 1, len(ks)), dtype=bool)
    for b in range(depth, -1, -1):
        x = np.zeros(len(ks))
        for bit in bits[b + 1:]:
            x = np.where(bit != (t0 == 1.0), pair.delta1(x), pair.delta2(x))
        bits[b] = sign * (x - t0) < scales

    q_bounds = []
    for col, k in zip(bits.T.tolist(), ks):
        j = sum(1 << b for b, bit in enumerate(col) if bit)
        # |h| moves by exactly j 2^-depth at the bracketing orbit points;
        # past 2^53 j is rounded down and j + 1 up to floats, and the
        # division by the scale 2^-k is exact
        lo, hi = float(j), float(j + 1)
        lo = lo if lo <= j else math.nextafter(lo, 0.0)
        hi = hi if hi >= j + 1 else math.nextafter(hi, math.inf)
        q_bounds.append((math.ldexp(lo, k - depth), math.ldexp(hi, k - depth)))

    r_bounds = tuple(
        _ratio_bounds(q_bounds[i + 1], q_bounds[i])
        for i in range(len(q_bounds) - 1)
    )
    return QuotientEnclosure(
        t0=float(t0),
        k_values=tuple(ks),
        quotient_bounds=tuple(q_bounds),
        ratio_bounds=r_bounds,
        depth=depth,
    )


# --------------------------------------------------------------------------
# dyadic fixed points and the non-isomorphism experiment
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class DyadicCheckTable(Report):
    """Deviations |h(1 - 2^-m) - (1 - 2^-m)| for m = 1..m_max.

    ``resolved[i]`` is False when 2^-m is finer than the local node gap,
    in which case the deviation says more about interpolation than about
    h.  ``orbit_agrees`` records whether the pair actually reproduces the
    dyadic points along its first-branch orbit (true for flat-point
    families, false e.g. for quadratic ones).
    """

    m_values: tuple
    points: tuple
    deviations: tuple
    resolved: tuple
    orbit_agrees: bool


def dyadic_fixed_point_check(h: MonotoneFunction, pair: MapPair,
                             m_max: int = 8) -> DyadicCheckTable:
    """Tabulate how far h moves 1 - 2^-m for m = 1 .. m_max, an integer in
    1 .. 53 (from m = 54 on, 1 - 2^-m rounds to 1.0)."""
    check_integer("m_max", m_max, 1, 53)
    ms = np.arange(1, m_max + 1)
    scales = 2.0 ** (-ms.astype(float))
    pts = 1.0 - scales
    devs = np.abs(funcspace.evaluate(h, pts) - pts)
    resolved = scales >= _local_gaps(h.nodes, pts)

    x = 0.0
    agrees = True
    for p in pts:
        x = float(pair.delta1(x))
        if abs(x - p) > 1e-9:
            agrees = False
            break
    return DyadicCheckTable(
        m_values=tuple(int(m) for m in ms),
        points=tuple(float(p) for p in pts),
        deviations=tuple(float(d) for d in devs),
        resolved=tuple(bool(r) for r in resolved),
        orbit_agrees=agrees,
    )


@dataclass(frozen=True)
class ExperimentReport(Report):
    """Evidence that two flat-point configurations are non-isomorphic as
    guided systems.

    ``h`` intertwines the two underlying dynamical systems (computed
    through the standard intermediate); the dyadic table, which runs
    through the outer endpoint of the deeper cell, certifies that h fixes
    the cell endpoints, hence maps each J_m to itself, while the two
    flat points live in the interiors of *different* cells.  No
    homeomorphism can then match the guiding sets.
    """

    n: int
    k: int
    flat_point_n: float
    flat_point_k: float
    cell_n: tuple
    cell_k: tuple
    image_of_flat_point: float
    image_in_cell_n: bool
    dyadic_table: DyadicCheckTable
    max_dyadic_deviation: float
    homeomorphism_ok: bool
    verdict: str
    grid: int
    tol: float


#: How far h may move a dyadic point 1 - 2^-m before
#: :func:`nonregular_experiment` calls its verdict inconclusive.
DYADIC_TOL = 1e-3


def nonregular_experiment(n: int, k: int,
                          grid: int = DEFAULT_GRID) -> ExperimentReport:
    """Run the non-isomorphism experiment for flat cells J_n vs J_k.

    Builds the two flat-point configurations, computes the candidate
    intertwiner h through the standard intermediate, checks the dyadic
    fixed points 1 - 2^-m against ``DYADIC_TOL`` for m = 1 .. max(8, n + 1,
    k + 1), through the outer endpoint of the deeper cell, and locates the
    flat points and the image of the first one.  Each flat point lies
    strictly inside its own cell (:func:`perturbed_flat_pair`) and cells
    with n != k share no interior (:func:`flat_interval`), so the verdict
    is ``"non-isomorphic"`` if no dyadic point drifts beyond
    ``DYADIC_TOL`` (a drift means a misconfigured solver) and the image
    lies in J_n; otherwise it is ``"inconclusive"``.  Strict increase of
    h at grid level is reported beside the verdict.

    Raises
    ------
    BadArgument
        If n or k is not an integer in 1 .. MAX_CELL, or if n == k (no
        contradiction derivable).
    """
    pair_n = perturbed_flat_pair(n)
    pair_k = perturbed_flat_pair(check_integer("k", k, 1, MAX_CELL))
    if n == k:
        raise BadArgument(f"need cells n != k, got n={n}, k={k}")

    h, _ = conjugate(pair_n, pair_k, grid=grid)

    table = dyadic_fixed_point_check(h, pair_n, m_max=max(8, n + 1, k + 1))
    max_dev = max(table.deviations)

    lam = pair_n.flat_points[0]
    omega_pt = pair_k.flat_points[0]
    cell_n = flat_interval(n)
    cell_k = flat_interval(k)
    h_lam = float(funcspace.evaluate(h, lam))
    image_in_cell = cell_n[0] <= h_lam <= cell_n[1]
    # h_k's labels are distinct and sorted, so its inverse always exists;
    # a plateau of h can only come from the composition, which this sees
    homeo = h.is_strictly_increasing()

    conclusive = max_dev <= DYADIC_TOL and image_in_cell
    return ExperimentReport(
        n=int(n),
        k=int(k),
        flat_point_n=float(lam),
        flat_point_k=float(omega_pt),
        cell_n=cell_n,
        cell_k=cell_k,
        image_of_flat_point=h_lam,
        image_in_cell_n=bool(image_in_cell),
        dyadic_table=table,
        max_dyadic_deviation=float(max_dev),
        homeomorphism_ok=bool(homeo),
        verdict="non-isomorphic" if conclusive else "inconclusive",
        grid=int(grid),
        tol=float(DYADIC_TOL),
    )
