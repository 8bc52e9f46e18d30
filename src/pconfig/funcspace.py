"""Sampled nondecreasing continuous functions on I = [-1, 1].

This module is the ambient space of the whole toolkit: conjugating
homeomorphisms, functional-equation solutions and induced branch maps are
all represented as :class:`MonotoneFunction` objects, i.e. piecewise-linear
interpolants through an explicit, strictly increasing node grid spanning
[-1, 1].  Low-order interpolation is deliberate: the objects of interest
are merely continuous (typically not C^1), so the representation error is
governed by their modulus of continuity, which the node placement can be
chosen to equidistribute.

Conventions
-----------
* Node values are compared exactly; interpolated comparisons always carry
  an explicit tolerance argument.
* :func:`invert` is the one inverse; it accepts only strictly increasing
  functions with full range [-1, 1].
* The constructor owns its samples: it copies any input the caller can
  still write, a list or a writeable array, and passes a read-only float
  array through.  Samples are immutable after construction and every
  operation is pure, so concurrent read access is safe.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import BadDomain, NonMonotoneInput, NotInvertible, OutOfDomain

DOMAIN_LEFT = -1.0
DOMAIN_RIGHT = 1.0


@dataclass(frozen=True, eq=False)
class MonotoneFunction:
    """A nondecreasing piecewise-linear function on [-1, 1].

    Attributes
    ----------
    nodes :
        Strictly increasing abscissae; first is -1, last is +1.  Each
        slope between adjacent nodes must be finite, so that linear
        interpolation stays inside the values it interpolates.
    values :
        Nondecreasing ordinates in [-1, 1], one per node.
    """

    nodes: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        nodes = _read_only(self.nodes)
        values = _read_only(self.values)
        if nodes.ndim != 1 or values.ndim != 1 or nodes.size != values.size:
            raise BadDomain("nodes and values must be 1-d arrays of equal length")
        if nodes.size < 2:
            raise BadDomain("need at least two nodes")
        if nodes[0] != DOMAIN_LEFT or nodes[-1] != DOMAIN_RIGHT:
            raise BadDomain(
                f"nodes must span [-1, 1], got [{nodes[0]}, {nodes[-1]}]"
            )
        dx = np.diff(nodes)
        if np.any(dx <= 0):
            raise BadDomain("nodes must be strictly increasing")
        dv = np.diff(values)
        if np.any(dv < 0):
            raise NonMonotoneInput("values must be nondecreasing")
        with np.errstate(over="ignore", invalid="ignore"):
            if not np.all(np.isfinite(dv / dx)):
                raise BadDomain("slope between adjacent nodes is not finite")
        if values[0] < DOMAIN_LEFT or values[-1] > DOMAIN_RIGHT:
            raise NonMonotoneInput("values must lie within [-1, 1]")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "values", values)

    # -- basic queries --------------------------------------------------

    @property
    def grid_size(self) -> int:
        return self.nodes.size

    @property
    def max_local_variation(self) -> float:
        """Largest value increment between adjacent nodes.

        This is the honest interpolation-error bound for the function the
        samples represent: between nodes nothing more can be claimed.
        """
        return float(np.max(np.diff(self.values)))

    def is_strictly_increasing(self) -> bool:
        return bool(np.all(np.diff(self.values) > 0))

    def fixes_anchors(self) -> bool:
        """True if the function maps -1, 0, 1 to themselves exactly.

        0 must be a node for this to hold.
        """
        if self.values[0] != -1.0 or self.values[-1] != 1.0:
            return False
        idx = np.searchsorted(self.nodes, 0.0)
        return bool(
            idx < self.nodes.size
            and self.nodes[idx] == 0.0
            and self.values[idx] == 0.0
        )

    def __repr__(self):
        return f"MonotoneFunction({self.grid_size} nodes)"


def _read_only(samples) -> np.ndarray:
    """`samples` as a float array no caller can write: a read-only float
    array as it is, anything else copied and made read-only."""
    if (isinstance(samples, np.ndarray) and samples.dtype == float
            and not samples.flags.writeable):
        return samples
    arr = np.array(samples, dtype=float)
    arr.setflags(write=False)
    return arr


def identity(n: int) -> MonotoneFunction:
    """The identity function, sampled at `n` uniform nodes."""
    nodes = np.linspace(DOMAIN_LEFT, DOMAIN_RIGHT, n)
    return MonotoneFunction(nodes, nodes)


def evaluate(f: MonotoneFunction, t):
    """Evaluate `f` at scalar or array `t` by linear interpolation.

    Node hits return the stored value exactly.

    Raises
    ------
    OutOfDomain
        If any evaluation point lies outside [-1, 1] or is NaN.
    """
    arr = np.asarray(t, dtype=float)
    # comparisons with NaN are false, so a NaN fails both
    if not (np.all(arr >= DOMAIN_LEFT) and np.all(arr <= DOMAIN_RIGHT)):
        raise OutOfDomain(f"evaluation point outside [-1, 1]: {t!r}")
    out = np.interp(arr, f.nodes, f.values)
    return float(out) if np.isscalar(t) or arr.ndim == 0 else out


def compose(outer: MonotoneFunction, inner: MonotoneFunction) -> MonotoneFunction:
    """The composition outer(inner(.)), sampled on inner's node grid.

    Monotone by construction; inner's values lie in [-1, 1], the domain of
    outer, because every MonotoneFunction's do.
    """
    vals = np.interp(inner.values, outer.nodes, outer.values)
    return MonotoneFunction(inner.nodes, vals)


def invert(f: MonotoneFunction) -> MonotoneFunction:
    """Inverse of a strictly increasing function with full range [-1, 1].

    Nodes and values are swapped, which is the exact piecewise-linear
    inverse of the interpolant.

    Raises
    ------
    NotInvertible
        If `f` has a plateau at grid resolution or does not attain -1
        and 1 at the endpoints (so the inverse would not span [-1, 1]).
    """
    if not f.is_strictly_increasing():
        raise NotInvertible("plateau detected: equal consecutive node values")
    if f.values[0] != DOMAIN_LEFT or f.values[-1] != DOMAIN_RIGHT:
        raise NotInvertible("range must be all of [-1, 1] to invert")
    return MonotoneFunction(f.values, f.nodes)


# -- serialization -----------------------------------------------------------

CSV_HEADER = "t,value"


#: Rows formatted by one ``%`` operation.  One operation over all rows
#: would build a format string and a tuple of Python floats larger than
#: the text itself; blocks keep both small.
_CSV_WRITE_ROWS = 8192

#: Characters of text parsed in one slice, rounded up to a whole line: the
#: slice's copies (encoded, separators, commas for newlines) stay this
#: small, where copies of a whole 10 MB text set the parse's peak memory.
_CSV_READ_CHARS = 1 << 20


def to_csv(f: MonotoneFunction) -> str:
    """CSV serialization: header ``t,value``, one row per node, 17
    significant digits, rows in node order.

    Rows are formatted in blocks of ``_CSV_WRITE_ROWS``, each by one
    ``%.17g`` format over the block's Python floats, which writes the
    digits an f-string ``{:.17g}`` writes row by row.
    """
    parts = [CSV_HEADER + "\n"]
    for start in range(0, f.nodes.size, _CSV_WRITE_ROWS):
        stop = start + _CSV_WRITE_ROWS
        parts.append(_csv_rows(f.nodes[start:stop], f.values[start:stop]))
    return "".join(parts)


def _csv_rows(nodes: np.ndarray, values: np.ndarray) -> str:
    """One CSV row per node, by one ``%.17g`` format over Python floats."""
    numbers = np.column_stack((nodes, values)).ravel().tolist()
    return "%.17g,%.17g\n" * len(nodes) % tuple(numbers)


def from_csv(text: str) -> MonotoneFunction:
    """Parse h.csv in the one form :func:`to_csv` writes: the header line
    ``t,value``, then rows of two numbers ``<t>,<value>`` in the characters
    ``%.17g`` writes, each ended by ``\\n`` (the last newline may be
    missing).  Anything else is refused, blank lines, CR/LF line ends,
    whitespace and spellings such as ``1_0`` or ``nan`` included.

    Raises
    ------
    BadDomain
        If the header is missing or a row is not exactly two numbers; the
        message names the first such line.
    """
    flat = _parse_csv_body(text)
    columns = flat.reshape(-1, 2).T.copy()
    # read-only, so the constructor takes the columns without a copy
    columns.setflags(write=False)
    # drop the interleaved numbers before the construction's checks
    # allocate their differences: 4 MB less peak at 2^18+1 rows
    del flat
    return MonotoneFunction(*columns)


#: The characters of the numbers :func:`to_csv` writes.
_NUMBER_BYTES = b"0123456789.eE+-"


def _parse_csv_body(text: str) -> np.ndarray:
    """The numbers of `text`, row after row, parsed vectorised in
    line-aligned slices of about ``_CSV_READ_CHARS`` characters, so no copy
    of the whole text is made; only a slice that fails is read again line
    by line, to name its bad line."""
    if not text.startswith(CSV_HEADER + "\n"):
        raise BadDomain(f"expected header {CSV_HEADER!r}")
    start = len(CSV_HEADER) + 1
    parts = []
    while start < len(text):
        end = text.find("\n", start + _CSV_READ_CHARS - 1) + 1 or len(text)
        flat = _parse_csv_slice(text[start:end])
        if flat is None:
            # a slice fails where one of its lines does; lines are counted
            # only here, so well-formed text takes no extra pass
            lines = text[start:end].removesuffix("\n").split("\n")
            bad = next(i for i, line in enumerate(lines)
                       if _parse_csv_slice(line) is None)
            number = text.count("\n", 0, start) + 1 + bad
            raise BadDomain(f"line {number}: expected two numbers "
                            f"'t,value', got {lines[bad]!r}")
        parts.append(flat)
        start = end
    return np.concatenate(parts) if parts else np.empty(0)


def _parse_csv_slice(rows: str) -> np.ndarray | None:
    """The numbers of whole `rows` (the last may lack its newline) in the
    form :func:`to_csv` writes, or None."""
    # only the separators are left, which must alternate
    seps = rows.encode().translate(None, _NUMBER_BYTES)
    if not rows.endswith("\n"):
        seps += b"\n"
    if seps != b",\n" * (len(seps) // 2):
        return None
    with warnings.catch_warnings():
        # older numpy warns and stops at unparsable data, newer numpy
        # raises
        warnings.simplefilter("error", DeprecationWarning)
        try:
            flat = np.fromstring(rows.replace("\n", ","), sep=",")
        except (DeprecationWarning, ValueError):
            return None
    return flat if flat.size == len(seps) else None
