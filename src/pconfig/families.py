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
    delta1 given by coefficients; delta2 derived as t - delta1 in full
    mode, or supplied explicitly in quasi mode.
``perturbed_flat(n)``, n = 1..51
    Equal to the standard delta1 outside J_n = [1 - 2^-n, 1 - 2^-(n+1)]
    and reshaped inside so the derivative vanishes at exactly one interior
    point while staying below 1.  The simplest guided (non-regular)
    configuration; pairs with distinct n are non-isomorphic as guided
    systems.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import BadSpec, BranchNotInvertible
from .report import Report

ANCHORS = (-1.0, 0.0, 1.0)

#: Derivative threshold at or below which a grid point counts as flat.
FLAT_TOL = 1e-8

#: Tolerance for exact-identity axiom checks on closed forms.
AXIOM_TOL = 1e-12

DEFAULT_VALIDATION_GRID = 4097
MIN_VALIDATION_GRID = 257  # 2^8 + 1


# --------------------------------------------------------------------------
# map pairs
# --------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class MapPair:
    """A pair of interval self-maps with exact derivative evaluators.

    The evaluators accept scalars or arrays and are pure; a MapPair is
    immutable and safe for concurrent evaluation.  ``flat_points`` carries
    analytically known zeros of ``delta1'`` (used by the flat-point
    family), empty otherwise.
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
        raise BadSpec(f"c must be a number, got {c!r}")
    c = float(c)
    if not np.isfinite(c):
        raise BadSpec(f"c must be finite, got {c!r}")

    def d1(t):
        t = np.asarray(t, dtype=float)
        return (t + 1.0) / 2.0 + c * (1.0 - t * t)

    def d2(t):
        t = np.asarray(t, dtype=float)
        return (t - 1.0) / 2.0 - c * (1.0 - t * t)

    return MapPair(
        family="quadratic",
        params={"c": c},
        delta1=d1,
        delta2=d2,
        d_delta1=lambda t: 0.5 - 2.0 * c * np.asarray(t, dtype=float),
        d_delta2=lambda t: 0.5 + 2.0 * c * np.asarray(t, dtype=float),
    )


def _polynomial(delta1, delta2=None, mode: str = "full") -> MapPair:
    a1 = np.asarray(delta1, dtype=float)
    if a1.ndim != 1 or a1.size == 0:
        raise BadSpec("delta1 coefficients must be a nonempty flat list")
    da1 = npoly.polyder(a1)
    if mode == "full":
        if delta2 is not None:
            raise BadSpec(
                "full mode derives delta2 = t - delta1; "
                "supplying delta2 would silently break additivity"
            )
        # delta2 = t - delta1 as explicit coefficients
        a2 = -a1.copy()
        if a2.size < 2:
            a2 = np.pad(a2, (0, 2 - a2.size))
        a2[1] += 1.0
    elif mode == "quasi":
        if delta2 is None:
            raise BadSpec("quasi mode requires explicit delta2 coefficients")
        a2 = np.asarray(delta2, dtype=float)
        if a2.ndim != 1 or a2.size == 0:
            raise BadSpec("delta2 coefficients must be a nonempty flat list")
    else:
        raise BadSpec(f"mode must be 'full' or 'quasi', got {mode!r}")
    da2 = npoly.polyder(a2)
    params = {"delta1": list(map(float, a1)), "mode": mode}
    if mode == "quasi":
        params["delta2"] = list(map(float, a2))
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
# so delta1 rejoins (t+1)/2 at the right edge of J_n.  The derivative cap
# delta1' <= 1/2 + m requires m < 1/2, i.e. w < (1 + p)/8.

def _ramp(x):
    """The C^1 smoothstep x^2 (3 - 2x), held at 0 below 0 and at 1 above 1,
    with its integral from 0."""
    x = np.clip(x, 0.0, 1.0)
    return x * x * (3.0 - 2.0 * x), x ** 3 - 0.5 * x ** 4


def _bump(u, a, b, r):
    """The C^1 bump on [a, b] that rises to 1 over ramps of width r at both
    ends, with its integral from 0 (for 0 <= a)."""
    rise, rise_int = _ramp((u - a) / r)
    fall, fall_int = _ramp((b - u) / r)
    # without a plateau, b - a - 2r can round to just below 0
    plateau = np.clip(u - (a + r), 0.0, max(b - a - 2.0 * r, 0.0))
    return np.minimum(rise, fall), r * rise_int + plateau + r * (0.5 - fall_int)


def _perturbed_flat(n: int, shape: dict | None = None) -> MapPair:
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
        raise BadSpec(f"n must be an integer >= 1, got {n!r}")
    try:
        left, right = flat_interval(n)
    except OverflowError:
        raise BadSpec("n holds an integer too large for a float") from None
    width = right - left
    lam = left + width / 2.0     # the single flat point
    if not left < lam < right:
        raise BadSpec(f"n must be at most 51, got {n}: no float lies "
                      "strictly inside J_n around the flat point")
    shape = dict(shape or {})
    w = float(shape.pop("phi_halfwidth", 0.125))
    p = float(shape.pop("psi_plateau", 0.5))
    if shape:
        raise BadSpec(f"unknown shape parameters: {sorted(shape)}")
    if not 0.0 < w <= 0.25:
        raise BadSpec("phi_halfwidth must lie in (0, 1/4]")
    if not 0.0 <= p < 1.0:
        raise BadSpec("psi_plateau must lie in [0, 1)")
    m = 4.0 * w / (1.0 + p)
    if m >= 0.5:
        raise BadSpec(
            f"shape gives derivative excess m = {m:.4g} >= 1/2; "
            "the branch derivative would reach 1"
        )
    r = (1.0 - p) / 8.0          # psi ramp width in u units

    def on_cell(t, integral):
        # delta1 if `integral`, else delta1': affine off the half-open J_n,
        # which keeps the right edge exactly on (t+1)/2; the bumps are
        # evaluated only inside, and not at all when no point is: on no
        # points they still make some fifty numpy calls, and the bisection
        # calls this once per step and block
        t = np.asarray(t, dtype=float)
        out = np.asarray((t + 1.0) / 2.0 if integral else np.full(t.shape, 0.5))
        inside = (t >= left) & (t < right)
        if not inside.any():
            return out
        u = (t[inside] - left) / width
        phi, phi_int = _bump(u, 0.5 - w, 0.5 + w, w)
        psi, psi_int = _bump(u, 0.0, 0.25, r)
        if integral:
            g_int = u / 2 - phi_int / 2 + m * psi_int
            out[inside] = (left + 1.0) / 2.0 + width * g_int
        else:
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
        params={"n": int(n), "shape": {"phi_halfwidth": w, "psi_plateau": p}},
        delta1=d1,
        delta2=d2,
        d_delta1=d1p,
        d_delta2=d2p,
        flat_points=(lam,),
    )


def flat_interval(n: int) -> tuple[float, float]:
    """J_n = [1 - 2^-n, 1 - 2^-(n+1)], the dyadic cell hosting the
    perturbation of ``perturbed_flat(n)``."""
    return (1.0 - 2.0 ** (-n), 1.0 - 2.0 ** (-(n + 1)))


def perturbed_flat_pair(n: int, **shape) -> MapPair:
    return _perturbed_flat(n, shape or None)


#: Each family's constructor; its parameter names are the descriptor keys.
_FAMILIES = {
    "standard": standard_pair,
    "quadratic": quadratic_pair,
    "polynomial": _polynomial,
    "perturbed_flat": _perturbed_flat,
}


def build_family(spec) -> MapPair:
    """Build a MapPair from a family descriptor.

    ``spec`` is a dict such as ``{"family": "standard"}``,
    ``{"family": "quadratic", "c": 0.2}``,
    ``{"family": "polynomial", "delta1": [...], "mode": "full"}`` or
    ``{"family": "perturbed_flat", "n": 2, "shape": {...}}``.
    A JSON string is also accepted.

    Raises :class:`BadSpec` for malformed descriptors: an unknown family,
    or a missing, unknown or rejected key (an integer too large for a
    float included), prefixed with the family name.  Descriptors that are
    well-formed but violate the axioms (e.g. quadratic with |c| > 1/4)
    build fine and fail :func:`validate` instead.
    """
    if isinstance(spec, str):
        try:
            spec = json.loads(spec)
        except ValueError as exc:  # also integers beyond the digit limit
            raise BadSpec(f"descriptor is not valid JSON: {exc}") from exc
    if not isinstance(spec, dict):
        raise BadSpec(f"descriptor must be a dict, got {type(spec).__name__}")
    params = dict(spec)
    family = params.pop("family", None)
    if not isinstance(family, str) or family not in _FAMILIES:
        raise BadSpec(f"unknown family {family!r}")
    try:
        return _FAMILIES[family](**params)
    except (BadSpec, TypeError, ValueError) as exc:
        raise BadSpec(f"{family}: {exc}") from exc
    except OverflowError as exc:
        keys = [k for k, v in params.items() if _exceeds_float(v)]
        raise BadSpec(f"{family}: {', '.join(keys) or 'a parameter'} holds "
                      "an integer too large for a float") from exc


def _exceeds_float(value) -> bool:
    """True if a descriptor value holds an integer that no float can
    hold, such as a JSON integer of some 310 digits or more."""
    if isinstance(value, dict):
        return any(map(_exceeds_float, value.values()))
    if isinstance(value, list):
        return any(map(_exceeds_float, value))
    if isinstance(value, int):
        try:
            float(value)
        except OverflowError:
            return True
    return False


def pairs_agree_on_grid(a: MapPair, b: MapPair,
                        grid: int = DEFAULT_VALIDATION_GRID) -> bool:
    """True if both branches of `a` and `b` agree to 1e-15 on a uniform
    grid."""
    t = np.linspace(-1.0, 1.0, grid)
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
    ``"guided"``, ``"invalid"``.  ``additivity_ok`` is None when the check
    was skipped (quasi mode).
    """

    family: dict
    mode: str
    grid: int
    tol: float
    flat_tol: float
    additivity_ok: bool | None
    additivity_max_dev: float | None
    derivative_nonneg_ok: bool
    derivative_min_1: float
    derivative_min_2: float
    boundary_ok: bool
    boundary_values: dict
    rho: float
    guiding_set_1: SetApprox
    guiding_set_2: SetApprox
    classification: str = field(default="invalid")


def _runs(mask: np.ndarray) -> list[np.ndarray]:
    """The maximal runs of consecutive indices where `mask` holds."""
    idx = np.flatnonzero(mask)
    if not idx.size:
        return []
    return np.split(idx, np.flatnonzero(np.diff(idx) > 1) + 1)


def guiding_sets(pair: MapPair, grid: int = DEFAULT_VALIDATION_GRID,
                 ) -> tuple[SetApprox, SetApprox]:
    """Grid approximations of both guiding sets.

    Maximal runs of grid points with derivative <= FLAT_TOL become closed
    intervals; an interval spanning at most two grid steps is flagged as a
    singleton (grid-level resolution is the honest claim).  For the
    flat-point family the analytically known zero is attached as well.
    """
    t = np.linspace(-1.0, 1.0, grid)
    sets = []
    for d_eval, exact in ((pair.d_delta1, pair.flat_points),
                          (pair.d_delta2, ())):
        runs = _runs(np.asarray(d_eval(t)) <= FLAT_TOL)
        sets.append(SetApprox(
            intervals=tuple((float(t[r[0]]), float(t[r[-1]])) for r in runs),
            singleton_flags=tuple(bool(r.size <= 3) for r in runs),
            exact_points=tuple(exact),
        ))
    return tuple(sets)


def check_branches_invertible(pair: MapPair):
    """Reject pairs whose branches have no inverse.

    Isolated flat points are fine; a derivative below -AXIOM_TOL, or a run
    of more than two consecutive grid points with derivative <= AXIOM_TOL,
    is not.

    Raises
    ------
    BranchNotInvertible
        Naming the branch that decreases or is flat on an interval.
    """
    t = np.linspace(-1.0, 1.0, DEFAULT_VALIDATION_GRID)
    for name, d in (("delta1", pair.d_delta1), ("delta2", pair.d_delta2)):
        dv = np.asarray(d(t))
        if np.min(dv) < -AXIOM_TOL:
            raise BranchNotInvertible(f"{name} is decreasing somewhere")
        if any(r.size > 2 for r in _runs(dv <= AXIOM_TOL)):
            raise BranchNotInvertible(
                f"{name} is flat on an interval; branch not invertible")


def validate(pair: MapPair, mode: str = "full",
             grid: int = DEFAULT_VALIDATION_GRID) -> ValidationReport:
    """Check the configuration axioms on a uniform grid plus the anchors,
    to AXIOM_TOL; guiding sets use FLAT_TOL.

    ``mode="quasi"`` skips the additivity check only.  Invalid
    configurations produce ``classification="invalid"``, never an error.
    """
    if mode not in ("full", "quasi"):
        raise ValueError(f"mode must be 'full' or 'quasi', got {mode!r}")
    if grid < MIN_VALIDATION_GRID:
        raise ValueError(f"validation grid must be >= {MIN_VALIDATION_GRID}")
    t = np.union1d(np.linspace(-1.0, 1.0, grid), ANCHORS)

    if mode == "full":
        add_dev = float(np.max(np.abs(pair.delta1(t) + pair.delta2(t) - t)))
        additivity_ok = add_dev <= AXIOM_TOL
    else:
        add_dev = None
        additivity_ok = None

    d1v = np.asarray(pair.d_delta1(t))
    d2v = np.asarray(pair.d_delta2(t))
    dmin1, dmin2 = float(np.min(d1v)), float(np.min(d2v))
    derivative_ok = dmin1 >= -AXIOM_TOL and dmin2 >= -AXIOM_TOL

    b = {
        "delta1(-1)": float(pair.delta1(-1.0)),
        "delta1(0)": float(pair.delta1(0.0)),
        "delta1(1)": float(pair.delta1(1.0)),
        "delta2(-1)": float(pair.delta2(-1.0)),
        "delta2(0)": float(pair.delta2(0.0)),
        "delta2(1)": float(pair.delta2(1.0)),
    }
    boundary_ok = (
        abs(b["delta2(-1)"] + 1.0) <= AXIOM_TOL
        and abs(b["delta2(1)"]) <= AXIOM_TOL
        and abs(b["delta1(-1)"]) <= AXIOM_TOL
        and abs(b["delta1(1)"] - 1.0) <= AXIOM_TOL
    )

    rho = float(np.max(np.maximum(d1v, d2v)))
    g1, g2 = guiding_sets(pair, grid=grid)

    report = ValidationReport(
        family=pair.descriptor(),
        mode=mode,
        grid=int(grid),
        tol=AXIOM_TOL,
        flat_tol=FLAT_TOL,
        additivity_ok=additivity_ok,
        additivity_max_dev=add_dev,
        derivative_nonneg_ok=derivative_ok,
        derivative_min_1=dmin1,
        derivative_min_2=dmin2,
        boundary_ok=boundary_ok,
        boundary_values=b,
        rho=rho,
        guiding_set_1=g1,
        guiding_set_2=g2,
    )
    return replace(report, classification=classify(report))


def classify(report: ValidationReport) -> str:
    """Classification lattice over a validation report.

    * any derivative-sign or boundary failure -> ``invalid``;
    * additivity checked and true -> ``regular`` (empty guiding sets) or
      ``guided``;
    * additivity skipped (quasi mode) -> ``quasi-regular`` or ``guided``;
    * additivity checked and false -> ``quasi-regular`` if the guiding
      sets are empty, else ``invalid``.
    """
    if not (report.derivative_nonneg_ok and report.boundary_ok):
        return "invalid"
    guiding_empty = report.guiding_set_1.is_empty and report.guiding_set_2.is_empty
    if report.additivity_ok:
        return "regular" if guiding_empty else "guided"
    if report.additivity_ok is None:
        return "quasi-regular" if guiding_empty else "guided"
    return "quasi-regular" if guiding_empty else "invalid"
