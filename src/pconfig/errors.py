"""The three exceptions of the pconfig toolkit.

Every input a function cannot accept, whether an argument out of range, a
malformed descriptor, sampled values or h.csv text, a point outside
[-1, 1] or a function that lacks the property a call needs, raises
:class:`BadArgument`, also a ``ValueError`` as in Python's own functions.
The one refusal that is a result is :class:`InvalidPair`: a pair that is
not regular or quasi-regular yields no solution.  Both derive from
:class:`PConfigError`, so callers can catch either with one clause.
Validation of map pairs does *not* raise: an invalid configuration is a
legitimate result (classification ``"invalid"``), not an error.  Nor do
the other verdicts: a drifting dyadic check makes the flat-cell
experiment ``"inconclusive"`` and a coinciding source and target a
``degenerate`` certificate.  The library issues no warnings.
"""


class PConfigError(Exception):
    """Base class for all pconfig errors."""


class BadArgument(PConfigError, ValueError):
    """An input its function cannot accept."""


class InvalidPair(PConfigError):
    """Map pair failed validation and cannot be used for solution building."""
