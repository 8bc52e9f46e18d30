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
* Node values are compared exactly.
* :func:`invert` is the one inverse; it accepts only strictly increasing
  functions with full range [-1, 1].
* The constructor owns its samples: it copies any input the caller can
  still write, a list or a writeable array, and passes a read-only float
  array through.  Samples are immutable after construction and every
  operation is pure, so concurrent read access is safe.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import BadArgument

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
            raise BadArgument(
                "nodes and values must be 1-d arrays of equal length")
        if nodes.size < 2:
            raise BadArgument("need at least two nodes")
        if nodes[0] != DOMAIN_LEFT or nodes[-1] != DOMAIN_RIGHT:
            raise BadArgument(
                f"nodes must span [-1, 1], got [{nodes[0]}, {nodes[-1]}]"
            )
        dx = np.diff(nodes)
        if np.any(dx <= 0):
            raise BadArgument("nodes must be strictly increasing")
        dv = np.diff(values)
        if np.any(dv < 0):
            raise BadArgument("values must be nondecreasing")
        with np.errstate(over="ignore", invalid="ignore"):
            if not np.all(np.isfinite(dv / dx)):
                raise BadArgument("slope between adjacent nodes is not finite")
        if values[0] < DOMAIN_LEFT or values[-1] > DOMAIN_RIGHT:
            raise BadArgument("values must lie within [-1, 1]")
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

        0 must be a node for this to hold; the nodes end at 1 > 0, so the
        search for it always lands on a node.
        """
        if self.values[0] != -1.0 or self.values[-1] != 1.0:
            return False
        idx = np.searchsorted(self.nodes, 0.0)
        return bool(self.nodes[idx] == 0.0 and self.values[idx] == 0.0)

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
    BadArgument
        If any evaluation point lies outside [-1, 1] or is NaN.
    """
    arr = np.asarray(t, dtype=float)
    # comparisons with NaN are false, so a NaN fails both
    if not (np.all(arr >= DOMAIN_LEFT) and np.all(arr <= DOMAIN_RIGHT)):
        raise BadArgument(f"evaluation point outside [-1, 1]: {t!r}")
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
    BadArgument
        If `f` has a plateau at grid resolution or does not attain -1
        and 1 at the endpoints (so the inverse would not span [-1, 1]).
    """
    if not f.is_strictly_increasing():
        raise BadArgument("plateau detected: equal consecutive node values")
    if f.values[0] != DOMAIN_LEFT or f.values[-1] != DOMAIN_RIGHT:
        raise BadArgument("range must be all of [-1, 1] to invert")
    return MonotoneFunction(f.values, f.nodes)


# -- serialization -----------------------------------------------------------

CSV_HEADER = "t,value"


#: Rows formatted by one pass of array operations.  A pass holds a few
#: hundred bytes of scratch arrays per number; blocks keep them small.
_CSV_WRITE_ROWS = 8192

#: Characters of text parsed in one slice, rounded up to a whole line: the
#: slice's copies (encoded, separators, commas for newlines) stay this
#: small, where copies of a whole 10 MB text set the parse's peak memory.
_CSV_READ_CHARS = 1 << 20


def to_csv(f: MonotoneFunction) -> str:
    """CSV serialization: header ``t,value``, one row per node, 17
    significant digits, rows in node order.

    The text is what ``%.17g`` writes, as an f-string ``{:.17g}`` does
    row by row.  Blocks of ``_CSV_WRITE_ROWS`` rows get their digits by
    array operations (:func:`_digits`); a number whose digits those
    cannot settle is formatted by ``%`` on its own.
    """
    parts = [CSV_HEADER + "\n"]
    for start in range(0, f.nodes.size, _CSV_WRITE_ROWS):
        stop = start + _CSV_WRITE_ROWS
        parts.append(_csv_block(f.nodes[start:stop], f.values[start:stop]))
    return "".join(parts)


def _csv_block(nodes: np.ndarray, values: np.ndarray) -> str:
    """The rows of one block.  Each number gets 29 character slots, one
    row of a (slot, number) array; a slot holding 0 is padding, which one
    boolean mask drops when the rows are joined:

    ====  ==============================  ==========================
    slot  0.000ddd (exponent -4 to -1)    d.ddde-XX (exponent below)
    ====  ==============================  ==========================
    0     ``-`` if negative               ``-`` if negative
    1     ``0``                           first digit
    2     ``.``                           ``.`` if a digit follows
    3-5   a zero per decade below -1
    6     first digit
    7-22  digits 2-17, without trailing zeros
    23-27                                 ``e-`` and 2 or 3 digits
    28    ``,`` after t, newline after the value
    ====  ==============================  ==========================
    """
    x = np.column_stack((nodes, values)).ravel()
    digits, exponent, settled = _digits(np.abs(x))
    digit_chars = _digit_chars(digits)
    fixed = exponent >= -4
    scientific = ~fixed
    decade = (-exponent).astype(np.uint16)
    text = np.zeros((29, x.size), np.uint8)
    text[0] = (x < 0) * np.uint8(ord("-"))
    text[1] = np.where(fixed, np.uint8(ord("0")), digit_chars[0])
    text[2] = (fixed | (digit_chars[1] != 0)) * np.uint8(ord("."))
    leading_zeros = exponent <= np.array([[-4], [-3], [-2]])
    text[3:6] = (leading_zeros & fixed) * np.uint8(ord("0"))
    text[6] = fixed * digit_chars[0]
    text[7:23] = digit_chars[1:]
    text[23] = scientific * np.uint8(ord("e"))
    text[24] = scientific * np.uint8(ord("-"))
    text[25] = (scientific & (decade >= 100)) * (ord("0") + decade // 100)
    text[26] = scientific * (ord("0") + decade // 10 % 10)
    text[27] = scientific * (ord("0") + decade % 10)
    text[28, 0::2] = ord(",")
    text[28, 1::2] = ord("\n")
    for i in np.flatnonzero(~settled).tolist():
        number = np.frombuffer(b"%.17g" % x[i], np.uint8)
        text[:-1, i] = 0
        text[:number.size, i] = number
    rows = np.ascontiguousarray(text.T)
    return rows[rows != 0].tobytes().decode("ascii")


def _digit_chars(digits: np.ndarray) -> np.ndarray:
    """The 17 digits of each integer as characters, one row per digit
    from the left, with 0 for a trailing zero: %g strips those.  They
    come out right to left from two uint32 halves of 8 and 9 digits."""
    halves = np.empty((2, digits.size), np.int64)
    np.floor_divide(digits, 10 ** 9, out=halves[0])
    np.subtract(digits, halves[0] * 10 ** 9, out=halves[1])
    # the upper half's zeros trail only if the whole lower half is zero
    trailing = np.empty((2, digits.size), bool)
    trailing[0] = halves[1] == 0
    trailing[1] = True
    q = halves.astype(np.uint32)
    chars = np.empty((2, 9, digits.size), np.uint8)
    for j in range(8, -1, -1):
        quotient = q // np.uint32(10)
        digit = (q - quotient * np.uint32(10)).astype(np.uint8)
        trailing &= digit == 0
        chars[:, j] = (digit + np.uint8(ord("0"))) * ~trailing
        q = quotient
    # the upper half has 8 digits: its 9th from the right is always 0
    return chars.reshape(18, digits.size)[1:]


#: How close to a whole number or a half the low part of an inexact
#: product may come before ``%`` decides the rounding: far above the
#: product's error bound, 1e-14.
_TIE_MARGIN = 2.0 ** -20


def _digits(magnitudes: np.ndarray):
    """The ``%.17g`` digits of each magnitude as an integer D, 10^16 <= D
    < 10^17, with the decimal exponent X of its first digit, and whether
    both are settled; an unsettled number is left to ``%``.

    D is y = |x| 10^(16 - X) rounded half to even, formed exactly enough
    in double-double: y = p + r + err, p an integer (p >= 2^53), |err| <
    1e-14 (see :func:`_scaled`).  Whether y lies in [10^16, 10^17) is
    decided on (p, r), not on their rounded sum, and the guess of X by
    ``log10`` is corrected by one decade where it fails, so X does not
    depend on the last bit of ``log10``.  Where the power of ten is exact
    (lo = 0, 10^22 and below), err is 0 and an exact half is a true tie.
    Elsewhere a number whose r comes within ``_TIE_MARGIN`` of a whole
    number or a half is unsettled: its rounding, or its decade, could
    hinge on err.
    """
    # 0, 1, magnitudes from 1 up and from 1e-290 down are left to %: the
    # table's powers of ten go up to 10^308
    settled = (magnitudes > 1e-290) & (magnitudes < 1.0)
    magnitudes = np.where(settled, magnitudes, 0.5)
    exponent = np.floor(np.log10(magnitudes)).astype(np.int64)
    p, r, exact = _scaled(magnitudes, 16 - exponent)
    # signs of y - 10^17 and y - 10^16; each difference p - 10^k is exact
    # near 10^k, and rounding keeps the sign of a sum
    shift = ((p - 1e17) + r >= 0).astype(np.int64) - ((p - 1e16) + r < 0)
    moved = np.flatnonzero(shift)
    if moved.size:
        exponent[moved] += shift[moved]
        p[moved], r[moved], exact[moved] = _scaled(
            magnitudes[moved], 16 - exponent[moved])
        settled[moved] &= (((p[moved] - 1e16) + r[moved] >= 0)
                           & ((p[moved] - 1e17) + r[moved] < 0))
    # |frac(r) - 1/2| is near 1/2 next to a whole number, near 0 at a half
    half = np.abs(r - np.floor(r) - 0.5)
    settled &= exact | ((half > _TIE_MARGIN) & (half < 0.5 - _TIE_MARGIN))
    # p is even, so p + round(r) is y rounded half to even
    digits = p.astype(np.int64) + np.rint(r).astype(np.int64)
    carried = digits == 10 ** 17
    digits[carried] = 10 ** 16
    exponent += carried
    settled &= exponent < 0
    return digits, exponent, settled


#: Veltkamp's splitter, 2^27 + 1: c - (c - a) with c = a (2^27 + 1) is `a`
#: rounded to 26 bits, and the rest of `a` fits in 26 bits too.
_SPLITTER = 134217729.0


def _scaled(magnitudes: np.ndarray, scale: np.ndarray):
    """y = |x| 10^s as p + r, and whether 10^s is a float (r exact).

    With 10^s = hi + lo + t, hi = fl(10^s), lo = fl(10^s - hi), Dekker's
    product gives p = fl(|x| hi) and its exact error e, and r = fl(e +
    fl(|x| lo)).  For y < 10^17, |x lo| < 2^-53 y < 12 rounds by at most
    2^-50, |e| <= ulp(p) / 2 <= 8 makes the sum round by at most 2^-49,
    and |x t| < 2^-106 y < 2^-49: |y - p - r| < 5e-15.
    """
    hi, lo, hi_head, hi_tail = np.take(_powers_of_ten(), scale, axis=1)
    p = magnitudes * hi
    c = magnitudes * _SPLITTER
    head = c - (c - magnitudes)
    tail = magnitudes - head
    e = (((head * hi_head - p) + head * hi_tail + tail * hi_head)
         + tail * hi_tail)
    return p, e + magnitudes * lo, lo == 0


@functools.cache
def _powers_of_ten() -> np.ndarray:
    """Rows hi, lo, and hi split into 26-bit head and tail, of 10^s for s
    = 0 .. 308, from Python's exact integers.  The split is taken on hi
    scaled into [1/2, 1), since hi (2^27 + 1) overflows for s >= 300.
    Built on first use, so importing the module stays cheap."""
    hi = [float(10 ** s) for s in range(309)]
    lo = [float(10 ** s - int(h)) for s, h in enumerate(hi)]
    mantissa, power = np.frexp(hi)
    c = mantissa * _SPLITTER
    head = np.ldexp(c - (c - mantissa), power)
    table = np.array([hi, lo, head, hi - head])
    table.setflags(write=False)
    return table


def from_csv(text: str) -> MonotoneFunction:
    """Parse h.csv: the header line ``t,value``, then rows of two numbers
    ``<t>,<value>``, each ended by ``\\n`` (the last newline may be
    missing).  A number is any spelling in the characters
    ``0-9 . e E + -`` that numpy reads as a float, so ``+0.5``, ``.5``,
    ``00.5``, ``0.50000``, ``1E-1`` and ``0.5e+0`` are read as well as the
    form :func:`to_csv` writes.  Blank lines, CR/LF line ends, whitespace and
    spellings such as ``1_0`` or ``nan`` are refused.

    Raises
    ------
    BadArgument
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
        raise BadArgument(f"expected header {CSV_HEADER!r}")
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
            raise BadArgument(f"line {number}: expected two numbers "
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
