"""Semantic exception hierarchy for the pconfig toolkit.

Every error raised by the library derives from :class:`PConfigError`, so
callers can catch the whole family with one clause.  Validation of map
pairs does *not* raise: an invalid configuration is a legitimate result
(classification ``"invalid"``), not an error.
"""


class PConfigError(Exception):
    """Base class for all pconfig errors."""


# --- function-space errors -------------------------------------------------

class NonMonotoneInput(PConfigError):
    """Sampled values decrease somewhere; not a nondecreasing function."""


class BadDomain(PConfigError):
    """Node abscissae do not form a strictly increasing span of [-1, 1], or
    are too close for a finite slope between them."""


class OutOfDomain(PConfigError):
    """Evaluation point lies outside [-1, 1]."""


class OutOfRange(PConfigError):
    """Inverse-evaluation target lies outside the function's range."""


class NotInvertible(PConfigError):
    """Function has a plateau at grid resolution; no single-valued inverse."""


# --- map-pair errors -------------------------------------------------------

class BadSpec(PConfigError):
    """Malformed or self-contradictory family descriptor."""


# --- solver errors ---------------------------------------------------------

class NotInC(PConfigError):
    """Function is not an admissible iterate: it must fix -1, 0, 1 and be
    nondecreasing."""


class BranchNotInvertible(PConfigError):
    """A branch map is not strictly increasing, so its inverse is undefined."""


# --- functional-equation errors --------------------------------------------

class InvalidPair(PConfigError):
    """Map pair failed validation and cannot be used for solution building."""


class NotStrictlyIncreasing(PConfigError):
    """Solution candidate has equal consecutive node values."""


class AnchorsNotFixed(PConfigError):
    """Solution candidate does not fix the points -1, 0 and 1."""


# --- analysis errors -------------------------------------------------------

class ScaleBelowGrid(PConfigError):
    """Requested probe scale is finer than the local node spacing resolves."""


class DyadicCheckFailure(PConfigError):
    """A dyadic fixed point drifted beyond tolerance; solver misconfigured."""


# --- warnings ---------------------------------------------------------------

class DegenerateChoice(UserWarning):
    """Source and target pair coincide, so the construction can only return
    the linear (identity) solution."""
