"""Built-in families of two-map interval systems and their validation.

A *P-configuration* on I = [-1, 1] is a pair of C^1 maps (delta1, delta2)
with

* ``delta1'(t) + delta2'(t) = 1``      (equivalently delta1 + delta2 = t),
* ``delta_i'(t) >= 0``,
* boundary pattern ``delta2(-1) = -1``, ``delta2(1) = delta1(-1) = 0``,
  ``delta1(1) = 1``.

The *guiding sets* are the zero sets of the branch derivatives; when both
are empty the configuration is *regular*.  A *quasi* P-configuration keeps
the derivative-sign and boundary axioms but drops additivity.

Families provided:

``standard``
    delta1 = (t+1)/2, delta2 = (t-1)/2.  The affine model every regular
    configuration is conjugate to.
``quadratic(c)``
    delta1 = (t+1)/2 + c (1 - t^2), delta2 = t - delta1.  Regular for
    |c| < 1/4; the canonical nonstandard regular example because orbits
    and derivatives have simple closed forms.
``polynomial``
    delta1 given by coefficients; delta2 given by coefficients too, or
    derived as t - delta1 when omitted.  An explicit delta2 other than
    t - delta1 gives a quasi pair.
``perturbed_flat(n)``, n = 1..51
    Equal to the standard delta1 outside J_n = [1 - 2^-n, 1 - 2^-(n+1)]
    and reshaped inside, by one fixed bump profile, so the derivative
    vanishes at exactly one interior point while staying below 1.  The
    simplest guided (non-regular) configuration; pairs with distinct n
    are non-isomorphic as guided systems.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import BadArgument
from .report import Report

ANCHORS = (-1.0, 0.0, 1.0)

#: Derivative threshold at or below which a grid point counts as flat.
FLAT_TOL = 1e-8

#: Tolerance for exact-identity axiom checks on closed forms.
AXIOM_TOL = 1e-12

#: The grid that validation, the solver and the command line use unless
#: told otherwise, 2^12 + 1.
DEFAULT_GRID = 4097

#: The coarsest grid, 2^8 + 1, and the finest, 2^24 + 1, that validation,
#: the solver and the command line accept.  A process solving at 2^20 + 1
#: peaks at 121 MB and at 2^22 + 1 at 352 MB (solve_nonlinear, quadratic).
MIN_GRID = 257
MAX_GRID = 2**24 + 1


def check_integer(name: str, value):
    """Refuse `value`, the argument `name`, with :class:`BadArgument`
    unless it is an int or a numpy integer; a bool is refused."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise BadArgument(f"{name} must be an integer, got {value!r}")


def check_grid(grid: int):
    """Refuse a grid that is not an integer in MIN_GRID .. MAX_GRID with
    :class:`BadArgument`."""
    check_integer("grid", grid)
    if not MIN_GRID <= grid <= MAX_GRID:
        raise BadArgument(
            f"grid must be >= {MIN_GRID} and <= {MAX_GRID}, got {grid}")


# --------------------------------------------------------------------------
# map pairs
# --------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class MapPair:
    """A pair of interval self-maps with exact derivative evaluators.

    The evaluators accept scalars or arrays and must be pure, reading no
    state that a call writes: the bisection pull-back calls a branch from
    several threads at once.  A MapPair is immutable.  ``flat_points``
    carries analytically known zeros of ``delta1'`` (used by the
    flat-point family), empty otherwise.
    """

    family: str
    params: dict
    delta1: Callable
    delta2: Callable
    d_delta1: Callable
    d_delta2: Callable
    flat_points: tuple = ()

    def descriptor(self) -> dict:
        """JSON-serializable family descriptor (round-trips through
        :func:`build_family`)."""
        return {"family": self.family, **self.params}

    def __repr__(self):
        return f"MapPair({json.dumps(self.descriptor())})"


def standard_pair() -> MapPair:
    return MapPair(
        family="standard",
        params={},
        delta1=lambda t: (np.asarray(t, dtype=float) + 1.0) / 2.0,
        delta2=lambda t: (np.asarray(t, dtype=float) - 1.0) / 2.0,
        d_delta1=lambda t: np.full_like(np.asarray(t, dtype=float), 0.5),
        d_delta2=lambda t: np.full_like(np.asarray(t, dtype=float), 0.5),
    )


def quadratic_pair(c: float) -> MapPair:
    if isinstance(c, bool):
        raise BadArgument(f"c must be a number, got {c!r}")
    try:
        c = float(c)
    except OverflowError:
        raise BadArgument("c holds an integer too large for a float") from None
    if not np.isfinite(c):
        raise BadArgument(f"c must be finite, got {c!r}")

    # delta1 is (t + 1.0) / 2.0 + c * (1.0 - t * t) and delta2 is
    # (t - 1.0) / 2.0 - c * (1.0 - t * t): the same float operations into
    # two arrays that each call owns, in place of six temporaries, since
    # the bisection evaluates a branch 100 times per node.  A 0-d `t`
    # gives float64 scalars, which the in-place operators replace rather
    # than write; only the subtraction must be told not to write one
    def bend(t):
        out = t * t
        out = np.subtract(1.0, out, out=out if t.ndim else None)
        out *= c
        return out

    def d1(t):
        t = np.asarray(t, dtype=float)
        out = t + 1.0
        out /= 2.0
        out += bend(t)
        return out

    def d2(t):
        t = np.asarray(t, dtype=float)
        out = t - 1.0
        out /= 2.0
        out -= bend(t)
        return out

    return MapPair(
        family="quadratic",
        params={"c": c},
        delta1=d1,
        delta2=d2,
        d_delta1=lambda t: 0.5 - 2.0 * c * np.asarray(t, dtype=float),
        d_delta2=lambda t: 0.5 + 2.0 * c * np.asarray(t, dtype=float),
    )


def _coefficients(name: str, coeffs) -> np.ndarray:
    """The polynomial coefficients `coeffs` of the branch `name` as floats,
    refused unless they form a nonempty flat list of finite numbers."""
    try:
        a = np.asarray(coeffs, dtype=float)
    except OverflowError:
        raise BadArgument(
            f"{name} holds an integer too large for a float") from None
    if a.ndim != 1 or a.size == 0:
        raise BadArgument(f"{name} coefficients must be a nonempty flat list")
    if not np.all(np.isfinite(a)):
        raise BadArgument(
            f"{name} coefficients must be finite, got {a.tolist()}")
    return a


def _polynomial(delta1, delta2=None) -> MapPair:
    a1 = _coefficients("delta1", delta1)
    da1 = npoly.polyder(a1)
    params = {"delta1": list(map(float, a1))}
    if delta2 is None:
        # delta2 = t - delta1 as explicit coefficients
        a2 = -a1.copy()
        if a2.size < 2:
            a2 = np.pad(a2, (0, 2 - a2.size))
        a2[1] += 1.0
    else:
        a2 = _coefficients("delta2", delta2)
        params["delta2"] = list(map(float, a2))
    da2 = npoly.polyder(a2)
    return MapPair(
        family="polynomial",
        params=params,
        delta1=lambda t: npoly.polyval(np.asarray(t, dtype=float), a1),
        delta2=lambda t: npoly.polyval(np.asarray(t, dtype=float), a2),
        d_delta1=lambda t: npoly.polyval(np.asarray(t, dtype=float), da1),
        d_delta2=lambda t: npoly.polyval(np.asarray(t, dtype=float), da2),
    )


# --- the flat-point perturbation family -------------------------------------
#
# On J_n, reparametrized to u in [0, 1), the derivative is
#
#     g(u) = 1/2 - phi(u)/2 + m psi(u)
#
# phi: bump without plateau on [1/2 - w, 1/2 + w], peak exactly 1 at
#      u = 1/2; integral = w.
# psi: bump on [0, 1/4] with plateau fraction p; integral = (1 + p)/8.
# m = 4 w / (1 + p) restores the integral of g over [0, 1] to exactly 1/2,
# so delta1 rejoins (t+1)/2 at the right edge of J_n.  The shape is fixed
# at w = 1/8 and p = 1/2, so m = 1/3 and delta1' <= 1/2 + m = 5/6 < 1.

_PHI_HALFWIDTH = 0.125         # w
_PSI_PLATEAU = 0.5             # p


def perturbed_flat_pair(n: int) -> MapPair:
    """The pair whose delta1' vanishes at one point, strictly inside J_n;
    refused for n > 51, where no float lies there."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
        raise BadArgument(f"n must be an integer >= 1, got {n!r}")
    try:
        left, right = flat_interval(n)
    except OverflowError:
        raise BadArgument("n holds an integer too large for a float") from None
    width = right - left
    lam = left + width / 2.0     # the single flat point
    if not left < lam < right:
        raise BadArgument(f"n must be at most 51, got {n}: no float lies "
                          "strictly inside J_n around the flat point")
    w, p = _PHI_HALFWIDTH, _PSI_PLATEAU
    m = 4.0 * w / (1.0 + p)
    r = (1.0 - p) / 8.0          # psi ramp width in u units

    # Each bump on [a, b] rises over [a, a + r], holds 1 on its plateau
    # and falls over [b - r, b]; a ramp is the C^1 smoothstep
    # x^2 (3 - 2x) of x clipped to [0, 1], with integral x^3 - x^4 / 2.
    # The four ramps are one row each: phi rise, psi rise, phi fall, psi
    # fall.  A rise row's argument is (u - a) / r and a fall row's
    # (u - b) / -r; negation is exact, so that is (b - u) / r except for
    # the sign of a zero at u = b, which neither the clip nor the ramp
    # passes on.  The rows' integrals from 0 combine as
    # r * rise + plateau + r * (0.5 - fall) for phi and for psi.
    starts = np.array([[0.5 - w], [0.0]])
    ends = np.array([[0.5 + w], [0.25]])
    widths = np.array([[w], [r]])
    ramp_ends = np.concatenate((starts, ends))
    ramp_slopes = np.concatenate((widths, -widths))
    plateau_starts = starts + widths
    plateau_lengths = ends - starts - 2.0 * widths

    def on_cell(t, integral):
        # delta1 if `integral`, else delta1': affine off the half-open J_n,
        # which keeps the right edge exactly on (t+1)/2.  Inside, the four
        # ramp arguments are one (4, k) array; delta1 evaluates only their
        # integrals and the plateaus, delta1' only their values.  The
        # bisection calls this once per step and block, so a call with no
        # point inside returns before any ramp is built
        t = np.asarray(t, dtype=float)
        out = np.asarray((t + 1.0) / 2.0 if integral else np.full(t.shape, 0.5))
        inside = (t >= left) & (t < right)
        if not inside.any():
            return out
        u = (t[inside] - left) / width
        x = (u - ramp_ends) / ramp_slopes
        np.maximum(x, 0.0, out=x)
        np.minimum(x, 1.0, out=x)
        if integral:
            if u.size > 128:
                # a point lies inside at most one ramp, so three rows in
                # four are clipped to 0 or 1, where the powers cost several
                # times what they cost inside; there the integral
                # x^3 - x^4 / 2 is 0.5 * x exactly, zero sign included.  On
                # fewer points the mask and the gather cost more than they
                # save
                ramp_int = 0.5 * x
                sloped = (x > 0.0) & (x < 1.0)
                xs = x[sloped]
                ramp_int[sloped] = xs ** 3 - 0.5 * xs ** 4
            else:
                ramp_int = x ** 3 - 0.5 * x ** 4
            plateau = np.minimum(np.maximum(u - plateau_starts, 0.0),
                                 plateau_lengths)
            phi_int, psi_int = (widths * ramp_int[:2] + plateau
                                + widths * (0.5 - ramp_int[2:]))
            g_int = u / 2 - phi_int / 2 + m * psi_int
            out[inside] = (left + 1.0) / 2.0 + width * g_int
        else:
            ramp = x * x * (3.0 - 2.0 * x)
            phi, psi = np.minimum(ramp[:2], ramp[2:])
            out[inside] = 0.5 - phi / 2 + m * psi
        return out

    def d1(t):
        return on_cell(t, integral=True)

    def d1p(t):
        return on_cell(t, integral=False)

    def d2(t):
        return np.asarray(t, dtype=float) - d1(t)

    def d2p(t):
        return 1.0 - d1p(t)

    return MapPair(
        family="perturbed_flat",
        params={"n": int(n)},
        delta1=d1,
        delta2=d2,
        d_delta1=d1p,
        d_delta2=d2p,
        flat_points=(lam,),
    )


def flat_interval(n: int) -> tuple[float, float]:
    """J_n = [1 - 2^-n, 1 - 2^-(n+1)], the dyadic cell hosting the
    perturbation of ``perturbed_flat(n)``; two distinct cells meet at
    most at an endpoint."""
    return (1.0 - 2.0 ** (-n), 1.0 - 2.0 ** (-(n + 1)))


#: Each family's constructor; its parameter names are the descriptor keys.
_FAMILIES = {
    "standard": standard_pair,
    "quadratic": quadratic_pair,
    "polynomial": _polynomial,
    "perturbed_flat": perturbed_flat_pair,
}


def build_family(spec) -> MapPair:
    """Build a MapPair from a family descriptor.

    ``spec`` is a dict such as ``{"family": "standard"}``,
    ``{"family": "quadratic", "c": 0.2}``,
    ``{"family": "polynomial", "delta1": [...]}`` (``"delta2": [...]``
    optional) or ``{"family": "perturbed_flat", "n": 2}``.
    A JSON string is also accepted.

    Raises :class:`BadArgument` for malformed descriptors: an unknown
    family, or a missing, unknown or rejected key (an integer too large
    for a float included), prefixed with the family name.  Descriptors that are
    well-formed but violate the axioms (e.g. quadratic with |c| > 1/4)
    build fine and fail :func:`validate` instead.
    """
    if isinstance(spec, str):
        try:
            spec = json.loads(spec)
        except ValueError as exc:  # also integers beyond the digit limit
            raise BadArgument(f"descriptor is not valid JSON: {exc}") from exc
    if not isinstance(spec, dict):
        raise BadArgument(
            f"descriptor must be a dict, got {type(spec).__name__}")
    params = dict(spec)
    family = params.pop("family", None)
    if not isinstance(family, str) or family not in _FAMILIES:
        raise BadArgument(f"unknown family {family!r}")
    try:
        return _FAMILIES[family](**params)
    except (TypeError, ValueError) as exc:
        raise BadArgument(f"{family}: {exc}") from exc


def pairs_agree_on_grid(a: MapPair, b: MapPair) -> bool:
    """True if both branches of `a` and `b` agree to 1e-15 on the uniform
    grid of DEFAULT_GRID points."""
    t = np.linspace(-1.0, 1.0, DEFAULT_GRID)
    return bool(
        np.max(np.abs(a.delta1(t) - b.delta1(t))) <= 1e-15
        and np.max(np.abs(a.delta2(t) - b.delta2(t))) <= 1e-15
    )


# --------------------------------------------------------------------------
# validation
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class SetApprox(Report):
    """Grid approximation of a guiding set (zero set of a branch derivative).

    ``intervals`` are maximal closed grid intervals on which the derivative
    stays below the flatness tolerance, pairwise disjoint and sorted;
    ``singleton_flags`` marks intervals no wider than two grid steps; and
    ``exact_points`` carries analytically known flat points, if the family
    provides them.
    """

    intervals: tuple = ()
    singleton_flags: tuple = ()
    exact_points: tuple = ()

    @property
    def is_empty(self) -> bool:
        return not self.intervals and not self.exact_points


@dataclass(frozen=True)
class ValidationReport(Report):
    """Outcome of the axiom checks for a map pair.

    ``classification`` is one of ``"regular"``, ``"quasi-regular"``,
    ``"guided"``, ``"invalid"``.
    """

    family: dict
    grid: int
    tol: float
    flat_tol: float
    additivity_ok: bool
    additivity_max_dev: float
    derivative_nonneg_ok: bool
    derivative_min_1: float
    derivative_min_2: float
    boundary_ok: bool
    boundary_values: dict
    rho: float
    guiding_set_1: SetApprox
    guiding_set_2: SetApprox
    classification: str


def _runs(mask: np.ndarray) -> list[np.ndarray]:
    """The maximal runs of consecutive indices where `mask` holds."""
    idx = np.flatnonzero(mask)
    if not idx.size:
        return []
    return np.split(idx, np.flatnonzero(np.diff(idx) > 1) + 1)


def _grid_with_anchors(grid: int) -> np.ndarray:
    """np.union1d(np.linspace(-1.0, 1.0, grid), ANCHORS) without its sort:
    the uniform grid increases already and starts and ends at -1 and 1
    exactly, so only 0 is inserted, at its place, where the grid lacks it."""
    t = np.linspace(-1.0, 1.0, grid)
    mid = np.searchsorted(t, 0.0)
    return t if t[mid] == 0.0 else np.insert(t, mid, 0.0)


def check_branches_invertible(pair: MapPair):
    """Reject pairs whose branches have no inverse.

    Isolated flat points are fine; a derivative below -AXIOM_TOL, or a run
    of more than two consecutive grid points with derivative <= AXIOM_TOL,
    is not.

    Raises
    ------
    BadArgument
        Naming the branch that decreases or is flat on an interval.
    """
    t = np.linspace(-1.0, 1.0, DEFAULT_GRID)
    for name, d in (("delta1", pair.d_delta1), ("delta2", pair.d_delta2)):
        dv = np.asarray(d(t))
        if np.min(dv) < -AXIOM_TOL:
            raise BadArgument(f"{name} is decreasing somewhere")
        if any(r.size > 2 for r in _runs(dv <= AXIOM_TOL)):
            raise BadArgument(
                f"{name} is flat on an interval; branch not invertible")


def validate(pair: MapPair, grid: int = DEFAULT_GRID,
             ) -> ValidationReport:
    """Check the configuration axioms to AXIOM_TOL and classify the pair,
    from one sample of each map on a uniform grid plus the anchors.

    The boundary values are the samples at the anchors.  Each guiding set
    holds the maximal runs of samples with derivative <= FLAT_TOL, flagged
    as singletons when at most two grid steps wide (grid-level resolution
    is the honest claim), and the flat-point family's known zero.  A pair
    failing the derivative-sign or boundary check is ``invalid``;
    otherwise, with empty guiding sets it is ``regular`` if additive and
    ``quasi-regular`` if not, with nonempty ones ``guided`` if additive
    and ``invalid`` if not.  An invalid pair is a result, never an error.
    """
    check_grid(grid)
    t = _grid_with_anchors(grid)
    v1, v2 = np.asarray(pair.delta1(t)), np.asarray(pair.delta2(t))
    d1v, d2v = np.asarray(pair.d_delta1(t)), np.asarray(pair.d_delta2(t))

    add_dev = float(np.max(np.abs(v1 + v2 - t)))
    dmin1, dmin2 = float(np.min(d1v)), float(np.min(d2v))
    derivative_ok = dmin1 >= -AXIOM_TOL and dmin2 >= -AXIOM_TOL

    lo, mid, hi = np.searchsorted(t, ANCHORS)
    b = {
        "delta1(-1)": float(v1[lo]),
        "delta1(0)": float(v1[mid]),
        "delta1(1)": float(v1[hi]),
        "delta2(-1)": float(v2[lo]),
        "delta2(0)": float(v2[mid]),
        "delta2(1)": float(v2[hi]),
    }
    boundary_ok = (
        abs(b["delta2(-1)"] + 1.0) <= AXIOM_TOL
        and abs(b["delta2(1)"]) <= AXIOM_TOL
        and abs(b["delta1(-1)"]) <= AXIOM_TOL
        and abs(b["delta1(1)"] - 1.0) <= AXIOM_TOL
    )

    g1, g2 = (
        SetApprox(
            intervals=tuple((float(t[r[0]]), float(t[r[-1]])) for r in runs),
            singleton_flags=tuple(bool(r.size <= 3) for r in runs),
            exact_points=tuple(exact),
        )
        for runs, exact in ((_runs(d1v <= FLAT_TOL), pair.flat_points),
                            (_runs(d2v <= FLAT_TOL), ()))
    )
    guiding_empty = g1.is_empty and g2.is_empty
    if not (derivative_ok and boundary_ok):
        classification = "invalid"
    elif add_dev <= AXIOM_TOL:
        classification = "regular" if guiding_empty else "guided"
    else:
        classification = "quasi-regular" if guiding_empty else "invalid"

    return ValidationReport(
        family=pair.descriptor(),
        grid=int(grid),
        tol=AXIOM_TOL,
        flat_tol=FLAT_TOL,
        additivity_ok=add_dev <= AXIOM_TOL,
        additivity_max_dev=add_dev,
        derivative_nonneg_ok=derivative_ok,
        derivative_min_1=dmin1,
        derivative_min_2=dmin2,
        boundary_ok=boundary_ok,
        boundary_values=b,
        rho=float(np.max(np.maximum(d1v, d2v))),
        guiding_set_1=g1,
        guiding_set_2=g2,
        classification=classification,
    )
