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
``perturbed_flat(n)``
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

from .errors import BadSpec
from .report import Report

ANCHORS = (-1.0, 0.0, 1.0)

#: Default derivative threshold below which a point counts as flat.
FLAT_TOL = 1e-8

#: Default tolerance for exact-identity axiom checks on closed forms.
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
    quasi: bool = False

    def descriptor(self) -> dict:
        """JSON-serializable family descriptor (round-trips through
        :func:`build_family`)."""
        return {"family": self.family, **self.params}

    def __repr__(self):
        return f"MapPair({json.dumps(self.descriptor())})"


def _standard() -> MapPair:
    return MapPair(
        family="standard",
        params={},
        delta1=lambda t: (np.asarray(t, dtype=float) + 1.0) / 2.0,
        delta2=lambda t: (np.asarray(t, dtype=float) - 1.0) / 2.0,
        d_delta1=lambda t: np.full_like(np.asarray(t, dtype=float), 0.5),
        d_delta2=lambda t: np.full_like(np.asarray(t, dtype=float), 0.5),
    )


def _quadratic(c: float) -> MapPair:
    c = float(c)

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


def _polynomial(coeffs1, coeffs2=None, mode: str = "full") -> MapPair:
    a1 = np.asarray(coeffs1, dtype=float)
    if a1.ndim != 1 or a1.size == 0:
        raise BadSpec("delta1 coefficients must be a nonempty flat list")
    da1 = npoly.polyder(a1)
    if mode == "full":
        if coeffs2 is not None:
            raise BadSpec(
                "full mode derives delta2 = t - delta1; "
                "supplying delta2 would silently break additivity"
            )
        # delta2 = t - delta1 as explicit coefficients
        a2 = -a1.copy()
        if a2.size < 2:
            a2 = np.pad(a2, (0, 2 - a2.size))
        a2[1] += 1.0
        quasi = False
    elif mode == "quasi":
        if coeffs2 is None:
            raise BadSpec("quasi mode requires explicit delta2 coefficients")
        a2 = np.asarray(coeffs2, dtype=float)
        if a2.ndim != 1 or a2.size == 0:
            raise BadSpec("delta2 coefficients must be a nonempty flat list")
        quasi = True
    else:
        raise BadSpec(f"mode must be 'full' or 'quasi', got {mode!r}")
    da2 = npoly.polyder(a2)
    params = {"delta1": list(map(float, a1)), "mode": mode}
    if quasi:
        params["delta2"] = list(map(float, a2))
    return MapPair(
        family="polynomial",
        params=params,
        delta1=lambda t: npoly.polyval(np.asarray(t, dtype=float), a1),
        delta2=lambda t: npoly.polyval(np.asarray(t, dtype=float), a2),
        d_delta1=lambda t: npoly.polyval(np.asarray(t, dtype=float), da1),
        d_delta2=lambda t: npoly.polyval(np.asarray(t, dtype=float), da2),
        quasi=quasi,
    )


# --- the flat-point perturbation family -------------------------------------
#
# On J_n, reparametrized to u in [0, 1], the derivative is
#
#     g(u) = 1/2 - (1/2) phi(u) + m psi(u)
#
# phi: C^1 bump, peak exactly 1 at u = 1/2, support [1/2 - w, 1/2 + w],
#      built from the C^1 smoothstep s(x) = x^2 (3 - 2x); integral = w.
# psi: C^1 plateau bump on [0, 1/4] with max 1 and plateau fraction p;
#      integral = (1 + p)/8.
# m = 4 w / (1 + p) restores the integral of g over [0, 1] to exactly 1/2,
# so delta1 rejoins (t+1)/2 at the right edge of J_n.  The derivative cap
# delta1' <= 1/2 + m requires m < 1/2, i.e. w < (1 + p)/8.

def _smoothstep(x):
    return x * x * (3.0 - 2.0 * x)


def _smoothstep_int(x):
    # integral of the smoothstep from 0 to x, for x in [0, 1]
    return x ** 3 - 0.5 * x ** 4


def _perturbed_flat(n: int, shape: dict | None = None) -> MapPair:
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise BadSpec(f"perturbed_flat needs integer n >= 1, got {n!r}")
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
    left = 1.0 - 2.0 ** (-n)
    width = 2.0 ** (-(n + 1))
    lam = left + width / 2.0     # the single flat point

    def g(u):
        u = np.asarray(u, dtype=float)
        out = np.full_like(u, 0.5)
        rise = (u >= 0.5 - w) & (u < 0.5)
        fall = (u >= 0.5) & (u <= 0.5 + w)
        out = out - 0.5 * np.where(rise, _smoothstep((u - (0.5 - w)) / w), 0.0)
        out = out - 0.5 * np.where(fall, _smoothstep((0.5 + w - u) / w), 0.0)
        up = u < r
        flat = (u >= r) & (u <= 0.25 - r)
        down = (u > 0.25 - r) & (u < 0.25)
        out = out + m * np.where(up, _smoothstep(np.clip(u / r, 0.0, 1.0)), 0.0)
        out = out + m * np.where(flat, 1.0, 0.0)
        out = out + m * np.where(
            down, _smoothstep(np.clip((0.25 - u) / r, 0.0, 1.0)), 0.0)
        return out

    def g_int(u):
        # integral of g from 0 to u; all pieces are polynomial
        u = np.asarray(u, dtype=float)
        out = 0.5 * u
        x_rise = np.clip((u - (0.5 - w)) / w, 0.0, 1.0)
        phi_int = w * _smoothstep_int(x_rise)
        x_fall = np.clip((u - 0.5) / w, 0.0, 1.0)
        phi_int = phi_int + w * (0.5 - _smoothstep_int(1.0 - x_fall))
        out = out - 0.5 * phi_int
        y_rise = np.clip(u / r, 0.0, 1.0)
        psi_int = r * _smoothstep_int(y_rise)
        psi_int = psi_int + np.clip(u - r, 0.0, 0.25 - 2.0 * r)
        y_fall = np.clip((u - (0.25 - r)) / r, 0.0, 1.0)
        psi_int = psi_int + r * (0.5 - _smoothstep_int(1.0 - y_fall))
        out = out + m * psi_int
        return out

    def d1(t):
        t = np.asarray(t, dtype=float)
        base = (t + 1.0) / 2.0
        # half-open mask keeps the right edge exactly on the affine map
        inside = (t >= left) & (t < left + width)
        u = np.clip((t - left) / width, 0.0, 1.0)
        pert = (left + 1.0) / 2.0 + width * g_int(u)
        return np.where(inside, pert, base)

    def d1p(t):
        t = np.asarray(t, dtype=float)
        inside = (t >= left) & (t < left + width)
        u = np.clip((t - left) / width, 0.0, 1.0)
        return np.where(inside, g(u), 0.5)

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


def build_family(spec) -> MapPair:
    """Build a MapPair from a family descriptor.

    ``spec`` is a dict such as ``{"family": "standard"}``,
    ``{"family": "quadratic", "c": 0.2}``,
    ``{"family": "polynomial", "delta1": [...], "mode": "full"}`` or
    ``{"family": "perturbed_flat", "n": 2, "shape": {...}}``.
    A JSON string is also accepted.

    Raises :class:`BadSpec` for malformed descriptors.  Descriptors that
    are well-formed but violate the axioms (e.g. quadratic with |c| > 1/4)
    build fine and fail :func:`validate` instead.
    """
    if isinstance(spec, str):
        try:
            spec = json.loads(spec)
        except json.JSONDecodeError as exc:
            raise BadSpec(f"descriptor is not valid JSON: {exc}") from exc
    if not isinstance(spec, dict):
        raise BadSpec(f"descriptor must be a dict, got {type(spec).__name__}")
    spec = dict(spec)
    family = spec.pop("family", None)
    try:
        if family == "standard":
            pair = _standard()
        elif family == "quadratic":
            if "c" not in spec:
                raise BadSpec("quadratic family needs parameter 'c'")
            pair = _quadratic(spec.pop("c"))
        elif family == "polynomial":
            pair = _polynomial(
                spec.pop("delta1", None) or _fail("polynomial needs 'delta1'"),
                spec.pop("delta2", None),
                spec.pop("mode", "full"),
            )
        elif family == "perturbed_flat":
            if "n" not in spec:
                raise BadSpec("perturbed_flat family needs parameter 'n'")
            pair = _perturbed_flat(spec.pop("n"), spec.pop("shape", None))
        else:
            raise BadSpec(f"unknown family {family!r}")
    except (TypeError, ValueError) as exc:
        raise BadSpec(str(exc)) from exc
    if spec:
        raise BadSpec(f"unexpected descriptor keys: {sorted(spec)}")
    return pair


def _fail(msg):
    raise BadSpec(msg)


def standard_pair() -> MapPair:
    return _standard()


def quadratic_pair(c: float) -> MapPair:
    return _quadratic(c)


def perturbed_flat_pair(n: int, **shape) -> MapPair:
    return _perturbed_flat(n, shape or None)


def pairs_agree_on_grid(a: MapPair, b: MapPair, grid: int = DEFAULT_VALIDATION_GRID,
                        tol: float = 1e-15) -> bool:
    """True if both branches of `a` and `b` coincide on a uniform grid."""
    t = np.linspace(-1.0, 1.0, grid)
    return bool(
        np.max(np.abs(a.delta1(t) - b.delta1(t))) <= tol
        and np.max(np.abs(a.delta2(t) - b.delta2(t))) <= tol
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


def guiding_sets(pair: MapPair, flat_tol: float = FLAT_TOL,
                 grid: int = DEFAULT_VALIDATION_GRID) -> tuple[SetApprox, SetApprox]:
    """Grid approximations of both guiding sets.

    Maximal runs of grid points with derivative <= `flat_tol` become closed
    intervals; an interval spanning at most two grid steps is flagged as a
    singleton (grid-level resolution is the honest claim).  For the
    flat-point family the analytically known zero is attached as well.
    """
    if flat_tol <= 0:
        raise ValueError("flat_tol must be positive")
    t = np.linspace(-1.0, 1.0, grid)
    out = []
    for d_eval in (pair.d_delta1, pair.d_delta2):
        mask = np.asarray(d_eval(t)) <= flat_tol
        intervals, flags = [], []
        idx = np.flatnonzero(mask)
        if idx.size:
            # split into runs of consecutive indices
            splits = np.flatnonzero(np.diff(idx) > 1)
            for run in np.split(idx, splits + 1):
                intervals.append((float(t[run[0]]), float(t[run[-1]])))
                flags.append(bool(run.size <= 3))  # <= 2 grid steps
        out.append((tuple(intervals), tuple(flags)))
    exact1 = tuple(pair.flat_points)
    return (
        SetApprox(out[0][0], out[0][1], exact1),
        SetApprox(out[1][0], out[1][1], ()),
    )


def validate(pair: MapPair, mode: str = "full",
             grid: int = DEFAULT_VALIDATION_GRID, tol: float = AXIOM_TOL,
             flat_tol: float = FLAT_TOL) -> ValidationReport:
    """Check the configuration axioms on a uniform grid plus the anchors.

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
        additivity_ok = add_dev <= tol
    else:
        add_dev = None
        additivity_ok = None

    d1v = np.asarray(pair.d_delta1(t))
    d2v = np.asarray(pair.d_delta2(t))
    dmin1, dmin2 = float(np.min(d1v)), float(np.min(d2v))
    derivative_ok = dmin1 >= -tol and dmin2 >= -tol

    b = {
        "delta1(-1)": float(pair.delta1(-1.0)),
        "delta1(0)": float(pair.delta1(0.0)),
        "delta1(1)": float(pair.delta1(1.0)),
        "delta2(-1)": float(pair.delta2(-1.0)),
        "delta2(0)": float(pair.delta2(0.0)),
        "delta2(1)": float(pair.delta2(1.0)),
    }
    boundary_ok = (
        abs(b["delta2(-1)"] + 1.0) <= tol
        and abs(b["delta2(1)"]) <= tol
        and abs(b["delta1(-1)"]) <= tol
        and abs(b["delta1(1)"] - 1.0) <= tol
    )

    rho = float(np.max(np.maximum(d1v, d2v)))
    g1, g2 = guiding_sets(pair, flat_tol=flat_tol, grid=grid)

    report = ValidationReport(
        family=pair.descriptor(),
        mode=mode,
        grid=int(grid),
        tol=float(tol),
        flat_tol=float(flat_tol),
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
