"""Monotone function calculus: construction, evaluation, inversion,
composition, and CSV round-trips."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, reject, settings, strategies as st

from pconfig import (
    BadArgument,
    MonotoneFunction,
    compose,
    conjugate_to_standard,
    evaluate,
    from_csv,
    identity,
    invert,
    quadratic_pair,
    to_csv,
)
from pconfig import funcspace
from pconfig.funcspace import _CSV_WRITE_ROWS, _parse_csv_body

# ---------------------------------------------------------------------------
# hypothesis strategy: random nondecreasing sampled functions
# ---------------------------------------------------------------------------


@st.composite
def monotone_functions(draw, strictly=False, min_nodes=2, max_nodes=12):
    n = draw(st.integers(min_nodes, max_nodes))
    interior = draw(
        st.lists(
            st.floats(-0.99, 0.99, allow_nan=False),
            min_size=max(0, n - 2),
            max_size=max(0, n - 2),
            unique=True,
        )
    )
    nodes = np.concatenate([[-1.0], np.sort(interior), [1.0]])
    if np.any(np.diff(nodes) <= 0):  # duplicates squeezed against the ends
        nodes = np.unique(nodes)
    k = nodes.size
    lo = draw(st.floats(-1.0, 0.5, allow_nan=False))
    incs = draw(
        st.lists(st.floats(0.0, 1.0), min_size=k - 1, max_size=k - 1)
    )
    incs = np.asarray(incs)
    if strictly:
        incs = incs + 1e-3
    vals = lo + np.concatenate([[0.0], np.cumsum(incs)])
    if vals[-1] > 1.0:  # renormalize into [-1, 1]
        vals = lo + (vals - lo) * (1.0 - lo) / (vals[-1] - lo)
    return _built_or_rejected(nodes, np.clip(vals, -1.0, 1.0))


@st.composite
def invertible_functions(draw):
    """Strictly increasing sampled functions with f(-1) = -1 and f(1) = 1,
    the functions :func:`invert` accepts."""
    f = draw(monotone_functions(strictly=True))
    v = f.values
    vals = -1.0 + 2.0 * (v - v[0]) / (v[-1] - v[0])
    vals[-1] = 1.0
    # the stretch can make a slope overflow
    return _built_or_rejected(f.nodes, vals)


def _built_or_rejected(nodes, values):
    """MonotoneFunction(nodes, values), or a rejected draw where a node gap
    is too narrow for a finite slope; any other refusal is a failure."""
    try:
        return MonotoneFunction(nodes, values)
    except BadArgument as exc:
        if "slope between adjacent nodes is not finite" not in str(exc):
            raise
        reject()


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


def test_constructor_identity_case():
    f = MonotoneFunction([-1, 0, 1], [-1, 0, 1])
    assert f.grid_size == 3
    assert f.fixes_anchors()


@pytest.mark.parametrize("values", [[-1, 0, 0.5], [-0.5, 0, 1],
                                    [-1, 0.1, 1]],
                         ids=["right", "left", "middle"])
def test_fixes_anchors_checks_each_anchor(values):
    assert not MonotoneFunction([-1, 0, 1], values).fixes_anchors()


def test_constructor_valid_piecewise():
    f = MonotoneFunction([-1, 0, 1], [-1, 0.5, 1])
    assert f.is_strictly_increasing()


def test_constructor_rejects_decrease():
    with pytest.raises(BadArgument, match="values must be nondecreasing"):
        MonotoneFunction([-1, 0, 1], [-1, 0.5, 0.2])


def test_constructor_rejects_bad_span():
    with pytest.raises(BadArgument, match=r"nodes must span \[-1, 1\]"):
        MonotoneFunction([-1, 0, 0.5], [-1, 0, 0.5])
    with pytest.raises(BadArgument, match="nodes must be strictly increasing"):
        MonotoneFunction([-1, 0.5, 0.2, 1], [-1, 0, 0, 1])
    with pytest.raises(BadArgument, match="need at least two nodes"):
        MonotoneFunction([-1], [-1])
    # a subnormal node gap: the slope 0.992 / 2.2e-311 overflows, and
    # interpolation inside the gap would leave [-1, 1]
    with pytest.raises(BadArgument, match="slope .* is not finite"):
        MonotoneFunction([-1, 0, 2.2e-311, 1], [-1, 3.96e-3, 0.996, 1])


def test_values_outside_interval_rejected():
    with pytest.raises(BadArgument, match=r"values must lie within \[-1, 1\]"):
        MonotoneFunction([-1, 0, 1], [-1, 0, 1.5])


def test_arrays_are_immutable():
    f = MonotoneFunction([-1, 0, 1], [-1, 0, 1])
    with pytest.raises(ValueError, match="read-only"):
        f.nodes[0] = 0.0


def test_constructor_owns_its_samples():
    # writeable input is copied: the caller's arrays stay writeable, and
    # writing them, or the base of a view passed in, leaves f as built
    base = np.array([-1.0, -0.5, 0.0, 0.5, 1.0])
    nodes = base.copy()
    f = MonotoneFunction(base[:], nodes)
    g = MonotoneFunction(nodes, nodes)
    assert nodes.flags.writeable and base.flags.writeable
    nodes[2] = 0.9
    base[2] = 0.9
    for h in (f, g):
        assert h.nodes.tolist() == [-1.0, -0.5, 0.0, 0.5, 1.0]
        assert h.values.tolist() == [-1.0, -0.5, 0.0, 0.5, 1.0]


def test_constructor_takes_read_only_samples_as_they_are():
    # what no caller can write needs no copy: compose and invert build on
    # other functions' samples
    f = MonotoneFunction([-1, 0, 1], [-1, 0.5, 1])
    g = invert(f)
    assert g.nodes is f.values and g.values is f.nodes
    assert compose(g, f).nodes is f.nodes


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def test_eval_identity():
    assert evaluate(identity(4097), 0.3) == pytest.approx(0.3, abs=1e-15)


def test_eval_midpoint_of_segment():
    # midpoint of the linear segment (0, 0.5)-(1, 1)
    f = MonotoneFunction([-1, 0, 1], [-1, 0.5, 1])
    assert evaluate(f, 0.5) == pytest.approx(0.75, abs=1e-15)


def test_eval_exact_at_nodes():
    f = MonotoneFunction([-1, -0.25, 0.5, 1], [-1, -0.5, 0.25, 1])
    for t, v in zip(f.nodes, f.values):
        assert evaluate(f, t) == v


def test_eval_out_of_domain():
    # NaN lies nowhere in [-1, 1], alone or inside an array
    for t in (1.5, np.nan, np.array([0.0, np.nan])):
        with pytest.raises(BadArgument, match="evaluation point outside"):
            evaluate(identity(5), t)


def test_eval_vectorized():
    f = identity(17)
    ts = np.array([-1.0, -0.3, 0.0, 0.9, 1.0])
    assert np.allclose(evaluate(f, ts), ts, atol=0)


# ---------------------------------------------------------------------------
# evaluation through the inverse
# ---------------------------------------------------------------------------


#: Two nodes one float apart whose values are 0.67 apart: no abscissa
#: between them exists, so the round trip through the inverse lands on
#: one end and misses y = 0 by about 0.3.
_ONE_ULP_JUMP = MonotoneFunction([-1.0, -0.99, np.nextafter(-0.99, 1.0), 1.0],
                              [-1.0, -0.3, 0.37, 1.0])


@settings(max_examples=50, deadline=None)
@given(invertible_functions(), st.floats(0.0, 1.0))
@example(_ONE_ULP_JUMP, 0.5)
def test_eval_round_trip_on_range(f, alpha):
    y = -1.0 + 2.0 * alpha
    t = evaluate(invert(f), y)
    # y lies between f's values one float either side of t, the exact
    # bound for a float t; where f moves less than 1e-12 over that step,
    # 1e-12 stays the bound
    below, above = np.clip(np.nextafter(t, [-2.0, 2.0]), -1.0, 1.0)
    step = evaluate(f, above) - evaluate(f, below)
    assert abs(evaluate(f, t) - y) <= max(1e-12, step)


# ---------------------------------------------------------------------------
# composition and inversion
# ---------------------------------------------------------------------------


def test_compose_with_identity_both_sides():
    f = MonotoneFunction([-1, 0, 1], [-1, 0.5, 1])
    left = compose(identity(4097), f)
    assert np.array_equal(left.values, f.values)
    right = compose(f, MonotoneFunction(f.nodes, f.nodes))
    assert np.array_equal(right.values, f.values)


def test_compose_round_trip_within_node_gap():
    f = MonotoneFunction(np.linspace(-1, 1, 33),
                      np.sin(np.linspace(-1, 1, 33) * np.pi / 2))
    g = invert(f)
    rt = compose(f, g)
    # the inverse swaps nodes and values, so the round trip is exact
    assert np.array_equal(rt.values, rt.nodes)


@settings(max_examples=50, deadline=None)
@given(monotone_functions(), monotone_functions())
def test_compose_preserves_monotonicity(outer, inner):
    out = compose(outer, inner)
    assert np.all(np.diff(out.values) >= 0)


def test_invert_identity():
    g = invert(identity(33))
    assert np.array_equal(g.nodes, identity(33).nodes)
    assert np.array_equal(g.values, g.nodes)


def test_invert_node_swap():
    f = MonotoneFunction([-1, 0, 1], [-1, 0.5, 1])
    g = invert(f)
    assert evaluate(g, 0.5) == 0.0
    assert np.array_equal(g.nodes, f.values)
    assert np.array_equal(g.values, f.nodes)


def test_invert_rejects_plateau():
    f = MonotoneFunction([-1, 0.2, 0.4, 1], [-1, 0.0, 0.0, 1])
    with pytest.raises(BadArgument, match="plateau detected"):
        invert(f)


def test_invert_rejects_partial_range():
    f = MonotoneFunction([-1, 0, 1], [-0.5, 0, 0.5])
    with pytest.raises(BadArgument, match=r"range must be all of \[-1, 1\]"):
        invert(f)


# ---------------------------------------------------------------------------
# CSV
# ---------------------------------------------------------------------------


def test_csv_round_trip_exact():
    f = MonotoneFunction(np.linspace(-1, 1, 9),
                      np.tanh(np.linspace(-1, 1, 9)))
    g = from_csv(to_csv(f))
    assert np.array_equal(f.nodes, g.nodes)
    assert np.array_equal(f.values, g.values)


def test_csv_header():
    text = to_csv(identity(3))
    lines = text.strip().splitlines()
    assert lines[0] == "t,value"
    assert len(lines) == 4


def test_csv_rejects_bad_header():
    with pytest.raises(BadArgument, match="expected header 't,value'"):
        from_csv("x,y\n0,0\n")


@pytest.mark.parametrize("row", ["abc,0", "1", "0,0,7"])
def test_csv_rejects_row_that_is_not_two_numbers(row):
    with pytest.raises(BadArgument, match=f"line 3: .*{row!r}"):
        from_csv(f"t,value\n-1,-1\n{row}\n1,1\n")


@pytest.mark.parametrize("text, message", [
    ("t,value\n\n-1,-1\n1,1\n", "line 2: .*''"),
    ("t,value\n-1,-1\n\n0,0\n1,1\n", "line 3: .*''"),
    ("t,value\r\n-1,-1\r\n1,1\r\n", "expected header"),
    ("t,value\n-1,-1\r\n1,1\n", r"line 2: .*'-1,-1\\r'"),
    ("t,value\n-1, -1\n1,1\n", "line 2: .*'-1, -1'"),
    ("t,value \n-1,-1\n1,1\n", "expected header"),
    ("t,value\n-1,-1\n0.1_2,0.5\n1,1\n", "line 3: .*'0.1_2,0.5'"),
    ("t,value\n-1,-1\nnan,0\n1,1\n", "line 3: .*'nan,0'"),
    ("t,value\n-1,-1\n+0.5,0\n1,1\n", r"line 3: .*'\+0.5,0'"),
    ("t,value\n-1,-1\n0,.5\n1,1\n", r"line 3: .*'0,.5'"),
    ("t,value\n-1,-1\n00.5,1\n1,1\n", r"line 3: .*'00.5,1'"),
    ("t,value\n-1,-1\n0,0.50000\n1,1\n", r"line 3: .*'0,0.50000'"),
    ("t,value\n-1,-1\n1E-1,1\n1,1\n", r"line 3: .*'1E-1,1'"),
    ("t,value\n-1,-1\n0.5e+0,1\n1,1\n", r"line 3: .*'0.5e\+0,1'"),
    ("t,value\n-1,-1\n0,1.5\n1,1\n", r"line 3: .*'0,1.5'"),
    ("t,value\n-1,-1\n0.123456789012345678,1\n1,1\n",
     r"line 3: .*'0.123456789012345678,1'"),
    ("t,value\n-1,-1\n0.12345678901234567891,1\n1,1\n",
     r"line 3: .*'0.12345678901234567891,1'"),
    ("t,value\n-1,-1\n1e-5,1\n1,1\n", r"line 3: .*'1e-5,1'"),
    ("t,value\n-1,-1\n1e-04,1\n1,1\n", r"line 3: .*'1e-04,1'"),
], ids=["blank-line", "later-blank-line", "crlf", "crlf-row",
        "padded-number", "padded-header", "underscore", "nan", "plus",
        "no-leading-zero", "two-leading-zeros",
        "trailing-zeros", "capital-e", "positive-exponent", "above-one",
        "18-digits", "20-digits", "one-digit-exponent", "fixed-exponent"])
def test_csv_refuses_what_to_csv_does_not_write(text, message):
    # from_csv reads only the form to_csv writes, and names the first
    # line that is not in it
    with pytest.raises(BadArgument, match=message):
        from_csv(text)


def test_csv_first_of_two_bad_rows_is_named():
    lines = to_csv(_random_function(1000)).splitlines(keepends=True)
    lines[637] = lines[637].replace(",", ";")
    lines[900] = "\n"
    with pytest.raises(BadArgument, match="^line 638: "):
        from_csv("".join(lines))


def test_csv_short_row_is_named_beside_a_long_one():
    # a row of one number and a row of three hold two numbers per row
    # between them
    with pytest.raises(BadArgument, match="line 3: .*'1'"):
        from_csv("t,value\n-1,-1\n1\n0,0,7\n1,1\n")


def _to_csv_row_by_row(f):
    """The row-by-row writer :func:`to_csv` replaced, the reference for
    its bytes."""
    return "t,value\n" + "".join(
        f"{t:.17g},{v:.17g}\n" for t, v in zip(f.nodes, f.values))


def _random_function(rows, seed=0):
    rng = np.random.default_rng(seed)
    inner = np.sort(rng.uniform(-1.0, 1.0, rows - 2))
    return MonotoneFunction(np.concatenate(([-1.0], inner, [1.0])),
                         np.concatenate(([-1.0], np.sort(inner ** 3), [1.0])))


def _with_neighbours(numbers):
    """Each number with the floats just below and just above it."""
    numbers = np.asarray(numbers, dtype=float)
    return np.concatenate((np.nextafter(numbers, -np.inf), numbers,
                           np.nextafter(numbers, np.inf)))


#: Floats whose shortest text needs all 17 digits, subnormals, both zeros
#: and magnitudes near the ends of the float range; the floats just below
#: the powers of ten, whose first digit sits a decade lower; 1e-06 (a
#: float just below 10^-6) and 1e-290 (the end of the digits' range) with
#: their neighbours; 3 2^-24, an exact tie at the 17th digit where
#: 10^23 is not a float, so the writer leaves it to %; and +-1, where the
#: digits' range ends above.
_HARD_FLOATS = [0.1 + 0.2, 1.0 / 3.0, -2.0 / 3.0, np.nextafter(1.0, 0.0),
                5e-324, -5e-324, 2.2250738585072009e-308, 0.0, -0.0,
                1e-300, -1e-300, 1e300, -1e300, 1.7976931348623157e308,
                *(np.nextafter(float(f"1e-{k}"), 0.0) for k in range(1, 24)),
                *_with_neighbours([1e-06, 1e-290]),
                3 * 2.0 ** -24, 1.0, -1.0, np.nextafter(-1.0, 0.0)]


@pytest.mark.parametrize("rows", [2, _CSV_WRITE_ROWS - 1, _CSV_WRITE_ROWS,
                                  _CSV_WRITE_ROWS + 1, 3 * _CSV_WRITE_ROWS + 5])
def test_to_csv_writes_the_row_by_row_bytes(rows):
    rng = np.random.default_rng(rows)
    numbers = rng.uniform(-1.0, 1.0, 2 * rows)
    k = min(len(_HARD_FLOATS), numbers.size)
    numbers[rng.permutation(numbers.size)[:k]] = _HARD_FLOATS[:k]
    # to_csv reads only the two arrays, so any floats can stand in
    f = SimpleNamespace(nodes=numbers[:rows], values=numbers[rows:])
    assert to_csv(f) == _to_csv_row_by_row(f)
    g = _random_function(rows, seed=rows)
    assert to_csv(g) == _to_csv_row_by_row(g)


def _random_bit_patterns(count, seed):
    """`count` floats of uniformly random bits with |x| <= 1: both signs
    and every exponent from the subnormals up to 1."""
    rng = np.random.default_rng(seed)
    numbers = rng.integers(0, 2 ** 64, 3 * count, dtype=np.uint64,
                           endpoint=False).view(float)
    return numbers[np.abs(numbers) <= 1.0][:count]


def _log_uniform(count, seed):
    """`count` magnitudes spread evenly in log10 from 1e-320 to 1, with
    random signs."""
    rng = np.random.default_rng(seed)
    magnitudes = 10.0 ** rng.uniform(-320.0, 0.0, count)
    return magnitudes * rng.choice([-1.0, 1.0], count)


def _near_ties():
    """Floats x = m 2^-(s + j) whose y = x 10^s, the 17 digits of x, lies
    within 3 2^-j of a half, for j >= 48: closer to a tie at the 17th
    digit than the error bound of the writer's double-double product.
    m runs over the solutions of m 5^s = 2^(j - 1) + d (mod 2^j) below
    2^53 that put y in [10^16, 10^17); each x comes with both signs."""
    numbers = []
    for s in range(21, 309):
        for j in range(48, 54):
            modulus = 1 << j
            inverse = pow(5 ** s, -1, modulus)
            first = -(-10 ** 16 * modulus // 5 ** s)
            stop = min(10 ** 17 * modulus // 5 ** s, 1 << 53)
            for d in (-3, -1, 1, 3):
                m = (modulus // 2 + d) * inverse % modulus
                m += max(0, -(-(first - m) // modulus)) * modulus
                numbers += [k * 2.0 ** (-j - s)
                            for k in range(m, stop, modulus)]
    return np.concatenate((numbers, np.negative(numbers)))


_WRITER_CASES = {
    # every label -1 + k 2^-d for d <= 18; labels at d = 18 hold exact
    # ties at the 17th digit, such as 0.999996185302734375
    "labels": lambda: np.linspace(-1.0, 1.0, 2 ** 19 + 1),
    "bit-patterns": lambda: _random_bit_patterns(2 * 10 ** 5, seed=1),
    "log-uniform": lambda: _log_uniform(10 ** 5, seed=2),
    "near-ties": _near_ties,
    "powers": lambda: _with_neighbours(np.concatenate((
        [2.0 ** -k for k in range(1075)],
        [float(f"1e-{k}") for k in range(324)]))),
    # read back, -0 keeps its sign bit, which its digits do not hold
    "hard": lambda: np.array(_HARD_FLOATS),
}


@pytest.mark.parametrize("case", _WRITER_CASES)
def test_to_csv_writes_the_bytes_of_percent_format(case):
    numbers = _WRITER_CASES[case]()
    # to_csv reads only the two arrays, so any floats can stand in
    f = SimpleNamespace(nodes=numbers, values=numbers[::-1])
    assert to_csv(f) == _to_csv_row_by_row(f)
    # the reader takes each back, bar those of magnitude above 1
    kept = numbers[np.abs(numbers) <= 1.0]
    _assert_reads_back(SimpleNamespace(nodes=kept, values=kept[::-1]))


def test_to_csv_writes_the_bytes_of_the_benchmark_outputs():
    # the h.csv of perfbench's cli_roundtrip, at 2^18+1; its solution.csv
    # solves to the standard target, so it holds this h's nodes and values
    f, _ = conjugate_to_standard(quadratic_pair(0.2), grid=2 ** 18 + 1)
    assert to_csv(f) == _to_csv_row_by_row(f)
    _assert_reads_back(f)


def _assert_reads_back(f):
    """The reader returns the numbers of to_csv(f) bit for bit."""
    flat = _parse_csv_body(to_csv(f))
    assert flat.tobytes() == np.column_stack(
        (f.nodes, f.values)).ravel().tobytes()


@settings(max_examples=300, deadline=None)
@given(x=st.floats(-1.0, 1.0), digits=st.integers(1, 10 ** 17 - 1),
       zeros=st.integers(0, 3), decade=st.integers(5, 324))
@example(x=0.0, digits=1, zeros=0, decade=307)  # a subnormal correction
def test_csv_reads_numbers_as_float_does(x, digits, zeros, decade):
    # the %.17g of any float of magnitude at most 1, and any digits in
    # the fixed and the scientific form, read as float() reads them
    digits = str(digits).rstrip("0")
    point = "." * (len(digits) > 1)
    fields = [f"{x:.17g}", f"0.{'0' * zeros}{digits}",
              f"-{digits[0]}{point}{digits[1:]}e-{decade:02d}"]
    fields.append(fields[0])
    text = "t,value\n{},{}\n{},{}\n".format(*fields)
    expected = np.array([float(field) for field in fields])
    assert _parse_csv_body(text).tobytes() == expected.tobytes()


def _near_midpoints():
    """Decimals of 17 digits x = D 10^-k, in the scientific form, each
    5^-k / 2 of a gap from the midpoint of two floats in [2^-(b+1),
    2^-b): far closer than the reader's error bound, so ``float()`` must
    settle them.  D 2^(54+b) - (2M + 1) 10^k = +-2^k holds for D = (5^k
    +- 1) / 2 / 2^(53+b-k) modulo 5^k."""
    fields = []
    for k in range(21, 307):
        modulus = 5 ** k
        for b in range(int((k - 17) * 3.32), int((k - 16) * 3.33) + 1):
            first = max(10 ** 16, -(-10 ** k >> (b + 1)))
            stop = min(10 ** 17, -(-10 ** k >> b))
            for sign in (1, -1):
                low = ((modulus + sign) // 2 * pow(2, k - 53 - b, modulus)
                       % modulus)
                low += max(0, -(-(first - low) // modulus)) * modulus
                for d in range(low, stop, modulus):
                    digits = str(d).rstrip("0")
                    fields.append(f"{digits[0]}.{digits[1:]}e-{k - 16:02d}")
    return fields


def test_csv_reads_near_midpoints_as_float_does():
    fields = _near_midpoints()
    assert len(fields) > 400
    text = "t,value\n" + "".join(f"{x},-{x}\n" for x in fields)
    expected = [(float(x), -float(x)) for x in fields]
    assert _parse_csv_body(text).tobytes() == np.array(expected).tobytes()


def test_csv_round_trip_is_bit_exact_over_many_slices():
    chars = funcspace._CSV_READ_CHARS
    f = _random_function(3 * chars // 30 + 5)
    text = to_csv(f)
    assert len(text) > 3 * chars
    # the text to_csv writes takes the vectorised path
    assert _parse_csv_body(text) is not None
    g = from_csv(text)
    assert g.nodes.tobytes() == f.nodes.tobytes()
    assert g.values.tobytes() == f.values.tobytes()


@pytest.mark.parametrize("chars", [64, 97, 256])
def test_csv_slices_parse_like_one_pass(chars, monkeypatch):
    f = _random_function(1000)
    text = to_csv(f)
    monkeypatch.setattr(funcspace, "_CSV_READ_CHARS", chars)
    for form in (text, text[:-1]):   # with and without the last newline
        flat = _parse_csv_body(form)
        assert flat is not None
        assert flat.tobytes() == np.column_stack(
            (f.nodes, f.values)).ravel().tobytes()


def _fixed_width_csv(rows):
    """Rows of 13 characters after the header's eight, so that slices
    of 39 characters hold rows 1-3, 4-6, ... exactly; and its numbers."""
    fields = [(f"0.{i:02d}1", f"-0.{i:02d}1") for i in range(rows)]
    text = "t,value\n" + "".join(f"{t},{v}\n" for t, v in fields)
    assert len(text) == 8 + 13 * rows
    return text, np.array(fields, dtype=float)


def test_csv_slice_ending_on_a_newline(monkeypatch):
    text, numbers = _fixed_width_csv(100)
    monkeypatch.setattr(funcspace, "_CSV_READ_CHARS", 39)
    assert _parse_csv_body(text).tobytes() == numbers.ravel().tobytes()


def test_csv_bad_row_in_a_later_slice_is_named_by_its_line(monkeypatch):
    text, _ = _fixed_width_csv(20)
    lines = text.splitlines(keepends=True)
    monkeypatch.setattr(funcspace, "_CSV_READ_CHARS", 39)
    # the third slice holds rows 7-9, lines 8-10
    lines[8] = "0.071;-0.071\n"
    with pytest.raises(BadArgument, match="^line 9: .*'0.071;-0.071'"):
        from_csv("".join(lines))
