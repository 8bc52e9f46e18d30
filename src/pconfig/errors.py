"""Semantic exception hierarchy for the pconfig toolkit.

Every error about a pair, a sampled function or a computation on them
derives from :class:`PConfigError`, so callers can catch the whole family
with one clause.  An argument outside its stated range (a grid below
``MIN_GRID``, an endpoint other than -1 or 1, a scale range, a negative
enclosure depth, cell indices, orbit bases) raises the built-in
``ValueError``, and ``identity()`` without a size a ``TypeError``, as
Python's own functions do; the CLI checks each such argument before
calling the library.  Validation of map
pairs does *not* raise: an invalid configuration is a legitimate result
(classification ``"invalid"``), not an error.  Nor do the other verdicts:
a drifting dyadic check makes the flat-cell experiment ``"inconclusive"``
and a coinciding source and target a ``degenerate`` certificate.  The
library issues no warnings.
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
    """Evaluation point lies outside [-1, 1] or is NaN."""


class NotInvertible(PConfigError):
    """Function has a plateau at grid resolution, or its range is not all
    of [-1, 1]; no inverse on [-1, 1]."""


class AnchorsNotFixed(PConfigError):
    """Function does not fix the points -1, 0 and 1 exactly at nodes."""


# --- map-pair errors -------------------------------------------------------

class BadSpec(PConfigError):
    """Malformed or self-contradictory family descriptor."""


# --- solver errors ---------------------------------------------------------

class BranchNotInvertible(PConfigError):
    """A branch map is not strictly increasing, so its inverse is undefined."""


# --- functional-equation errors --------------------------------------------

class InvalidPair(PConfigError):
    """Map pair failed validation and cannot be used for solution building."""


# --- analysis errors -------------------------------------------------------

class ScaleBelowGrid(PConfigError):
    """Requested probe scale is finer than the local node spacing resolves."""
