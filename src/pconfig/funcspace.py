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
#: slice's copies and its few hundred bytes of arrays per number stay
#: small, where a whole 10 MB text's would set the parse's peak memory.
_CSV_READ_CHARS = 1 << 18


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


#: How close to a rounding boundary a number may come before ``%`` or
#: ``float()`` decides it: far above the error bounds of :func:`_digits`
#: and :func:`_quotients`, 1e-14 and 2^-47.
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
    fl(|x| lo)).  |x lo| < 2^-53 y rounds by at most 2^-106 y, |e| <=
    2^-53 y makes the sum round by at most 2^-105 y, and |x t| < 2^-106
    y: |y - p - r| < 2^-104 y, below 5e-15 for y < 10^17.
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
    missing).  A number is in the form :func:`to_csv` writes, ``%.17g``
    of a finite float of magnitude at most 1, with an optional ``-``:

    * ``0`` or ``1``;
    * ``0.``, at most three zeros, then 1 to 17 significant digits;
    * a digit 1-9, optionally ``.`` and 1 to 16 more digits, then ``e-``
      and an exponent 05-99 or 100-324;

    with no zero after a point's last nonzero digit.  Anything else, such
    as ``+0.5``, ``.5``, ``0.50000``, ``1E-1``, ``1.5`` or ``1e-5``, a
    blank line, CR/LF or whitespace, is refused.  A number reads as the
    float ``float()`` gives (see :func:`_quotients`).

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


def _parse_csv_body(text: str) -> np.ndarray:
    """The numbers of `text`, row after row, parsed vectorised in
    line-aligned slices of about ``_CSV_READ_CHARS`` characters, so no copy
    of the whole text is made; only a slice that fails is read again, in
    halves, to name its first bad line."""
    if not text.startswith(CSV_HEADER + "\n"):
        raise BadArgument(f"expected header {CSV_HEADER!r}")
    start = len(CSV_HEADER) + 1
    parts = []
    while start < len(text):
        end = text.find("\n", start + _CSV_READ_CHARS - 1) + 1 or len(text)
        flat = _parse_csv_slice(text[start:end])
        if flat is None:
            # lines [good, stop) hold the first bad one; lines are counted
            # only here, so well-formed text takes no extra pass
            lines = text[start:end].removesuffix("\n").split("\n")
            good, stop = 0, len(lines)
            while stop - good > 1:
                mid = (good + stop) // 2
                if _parse_csv_slice("\n".join(lines[good:mid]) + "\n") is None:
                    stop = mid
                else:
                    good = mid
            number = text.count("\n", 0, start) + 1 + good
            raise BadArgument(f"line {number}: expected two numbers "
                              f"'t,value', got {lines[good]!r}")
        parts.append(flat)
        start = end
    return np.concatenate(parts) if parts else np.empty(0)


def _parse_csv_slice(rows: str) -> np.ndarray | None:
    """The numbers of whole `rows` (the last may lack its newline) in the
    form :func:`from_csv` reads, or None.

    A field's form is told by its first two bytes and where ``e`` would
    sit; a byte read outside its field only enters a form whose length
    test fails.  The forms' points, ``e`` and ``-`` must be all bytes but
    digits and separators.  The digits, without the point, and exponents
    are then int64; digits past 2^63 read as 2^63 - 1, which is refused.
    """
    if not rows.endswith("\n"):
        rows += "\n"
    text = rows.encode()
    chars = np.frombuffer(text, np.uint8)
    # ',' and newline, which must alternate, and any other byte below '-'
    end = np.flatnonzero(chars < ord("-"))
    if (end.size % 2 or np.any(chars[end[::2]] != ord(","))
            or np.any(chars[end[1::2]] != ord("\n"))):
        return None
    start = np.concatenate(([0], end[:-1] + 1))
    sign = chars[start] == ord("-")
    first = start + sign
    lead = chars[first]
    point = chars.take(first + 1, mode="clip") == ord(".")
    # 'e-' and three exponent digits, else 'e-' and two
    three = chars.take(end - 5, mode="clip") == ord("e")
    e_at = end - 4 - three
    mantissa = e_at - first
    scientific = ((chars.take(e_at, mode="clip") == ord("e"))
                  & (chars.take(e_at + 1, mode="clip") == ord("-"))
                  & (lead > ord("0")) & (lead <= ord("9"))
                  & ((mantissa == 1)
                     | point & (mantissa >= 3) & (mantissa <= 18)))
    length = end - first
    short = (length == 1) & ((lead == ord("0")) | (lead == ord("1")))
    fixed = (lead == ord("0")) & point & (length >= 3) & (length <= 22)
    # the digits end at 'e' or at the separator, and not with a zero
    stop = end - (end - e_at) * scientific
    placed = np.count_nonzero(scientific)
    if not (np.all(short | (fixed | scientific)
                   & (chars[stop - 1] != ord("0")))
            and np.count_nonzero(chars > ord("9")) == placed
            and np.count_nonzero(chars < ord("0")) == end.size + placed
            + np.count_nonzero(point) + np.count_nonzero(sign)):
        return None
    integers = np.fromstring(
        text.translate(bytes.maketrans(b"e\n", b",,"), b"."), np.int64,
        sep=",")
    # each field's last integer: its exponent if scientific, else digits
    last = np.cumsum(scientific, dtype=np.int64) + np.arange(end.size)
    digits = np.abs(integers[last - scientific])
    decade = -integers[last] * scientific
    frac = (stop - first - 2) * point
    if not np.all((short | (digits < 10 ** 17)
                   & (digits >= 10 ** np.maximum(frac - 4, 0)))
                  & (decade >= (5 + 95 * three) * scientific)
                  & (decade <= 324)):
        return None
    x, settled = _quotients(digits, frac + decade)
    x = np.copysign(x, 0.5 - sign)
    slow = np.flatnonzero(~settled)
    x[slow] = [float(text[i:j]) for i, j in zip(start[slow].tolist(),
                                                end[slow].tolist())]
    return x


def _quotients(digits: np.ndarray, k: np.ndarray):
    """D 10^-k rounded to the nearest float, for integers 0 <= D < 10^17,
    and whether it is settled; an unsettled number is left to ``float()``.

    With D = d + d_lo exactly, q = fl(d / hi) is within 2 ulp of D 10^-k
    and q 10^k = p + r to 2^-104 D (:func:`_scaled`).  So x = fl(q +
    correction), correction = ((d - p) - r + d_lo) / hi, and its residual
    are found to 2^-47 of the gap between floats on the residual's side.
    x is settled unless the residual, widened by ``_TIE_MARGIN``, rounds
    elsewhere, or x is not above 1e-290, as in the writer: there the
    correction loses bits to the subnormals.
    """
    # past the table, k = 307 leaves q <= 10^17 / 10^307, unsettled
    k = np.minimum(k, 307)
    d = digits.astype(float)
    d_lo = (digits - d.astype(np.int64)).astype(float)
    hi = _powers_of_ten()[0, k]
    q = d / hi
    p, r, _ = _scaled(q, k)
    correction = (((d - p) - r) + d_lo) / hi
    x = q + correction
    residual = (q - x) + correction
    settled = (((q > 1e-290) | (d == 0))
               & (x + residual * (1.0 + 2.0 * _TIE_MARGIN) == x))
    return x, settled
