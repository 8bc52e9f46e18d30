"""Monotone function calculus: construction, evaluation, inversion,
composition, and CSV round-trips."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, reject, settings, strategies as st

from pconfig import (
    BadDomain,
    MonotoneFunction,
    NonMonotoneInput,
    NotInvertible,
    OutOfDomain,
    compose,
    evaluate,
    from_csv,
    identity,
    invert,
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
    try:
        return MonotoneFunction(nodes, np.clip(vals, -1.0, 1.0))
    except BadDomain:  # a node gap too narrow for a finite slope
        reject()


@st.composite
def invertible_functions(draw):
    """Strictly increasing sampled functions with f(-1) = -1 and f(1) = 1,
    the functions :func:`invert` accepts."""
    f = draw(monotone_functions(strictly=True))
    v = f.values
    vals = -1.0 + 2.0 * (v - v[0]) / (v[-1] - v[0])
    vals[-1] = 1.0
    try:
        return MonotoneFunction(f.nodes, vals)
    except BadDomain:  # the stretch made a slope overflow
        reject()


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


def test_constructor_identity_case():
    f = MonotoneFunction([-1, 0, 1], [-1, 0, 1])
    assert f.grid_size == 3
    assert f.fixes_anchors()


def test_constructor_valid_piecewise():
    f = MonotoneFunction([-1, 0, 1], [-1, 0.5, 1])
    assert f.is_strictly_increasing()


def test_constructor_rejects_decrease():
    with pytest.raises(NonMonotoneInput):
        MonotoneFunction([-1, 0, 1], [-1, 0.5, 0.2])


def test_constructor_rejects_bad_span():
    with pytest.raises(BadDomain):
        MonotoneFunction([-1, 0, 0.5], [-1, 0, 0.5])
    with pytest.raises(BadDomain):
        MonotoneFunction([-1, 0.5, 0.2, 1], [-1, 0, 0, 1])
    with pytest.raises(BadDomain):
        MonotoneFunction([-1], [-1])
    # a subnormal node gap: the slope 0.992 / 2.2e-311 overflows, and
    # interpolation inside the gap would leave [-1, 1]
    with pytest.raises(BadDomain):
        MonotoneFunction([-1, 0, 2.2e-311, 1], [-1, 3.96e-3, 0.996, 1])


def test_values_outside_interval_rejected():
    with pytest.raises(NonMonotoneInput):
        MonotoneFunction([-1, 0, 1], [-1, 0, 1.5])


def test_arrays_are_immutable():
    f = MonotoneFunction([-1, 0, 1], [-1, 0, 1])
    with pytest.raises(ValueError):
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
        with pytest.raises(OutOfDomain):
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
    with pytest.raises(NotInvertible):
        invert(f)


def test_invert_rejects_partial_range():
    f = MonotoneFunction([-1, 0, 1], [-0.5, 0, 0.5])
    with pytest.raises(NotInvertible):
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
    with pytest.raises(BadDomain):
        from_csv("x,y\n0,0\n")


@pytest.mark.parametrize("row", ["abc,0", "1", "0,0,7"])
def test_csv_rejects_row_that_is_not_two_numbers(row):
    with pytest.raises(BadDomain, match=f"line 3: .*{row!r}"):
        from_csv(f"t,value\n-1,-1\n{row}\n1,1\n")


@pytest.mark.parametrize("text, message", [
    ("t,value\n\n-1,-1\n1,1\n", "line 2: .*''"),
    ("t,value\r\n-1,-1\r\n1,1\r\n", "expected header"),
    ("t,value\n-1,-1\r\n1,1\n", r"line 2: .*'-1,-1\\r'"),
    ("t,value\n-1, -1\n1,1\n", "line 2: .*'-1, -1'"),
    ("t,value \n-1,-1\n1,1\n", "expected header"),
    ("t,value\n-1,-1\n0.1_2,0.5\n1,1\n", "line 3: .*'0.1_2,0.5'"),
    ("t,value\n-1,-1\nnan,0\n1,1\n", "line 3: .*'nan,0'"),
], ids=["blank-line", "crlf", "crlf-row", "padded-number", "padded-header",
        "underscore", "nan"])
def test_csv_refuses_what_to_csv_does_not_write(text, message):
    # from_csv reads only the form to_csv writes, and names the first
    # line that is not in it
    with pytest.raises(BadDomain, match=message):
        from_csv(text)


def test_csv_short_row_is_named_beside_a_long_one():
    # a row of one number and a row of three hold two numbers per row
    # between them
    with pytest.raises(BadDomain, match="line 3: .*'1'"):
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


#: Floats whose shortest text needs all 17 digits, subnormals, both zeros
#: and magnitudes near the ends of the float range.
_HARD_FLOATS = [0.1 + 0.2, 1.0 / 3.0, -2.0 / 3.0, np.nextafter(1.0, 0.0),
                5e-324, -5e-324, 2.2250738585072009e-308, 0.0, -0.0,
                1e-300, -1e-300, 1e300, -1e300, 1.7976931348623157e308]


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
    """Rows of ten characters after the header's eight, so that slices
    of 30 characters hold rows 1-3, 4-6, ... exactly; and its numbers."""
    text = "t,value\n" + "".join(f"{i:04d},{-i:04d}\n" for i in range(rows))
    assert len(text) == 8 + 10 * rows
    return text, np.array([(i, -i) for i in range(rows)], dtype=float)


def test_csv_slice_ending_on_a_newline(monkeypatch):
    text, numbers = _fixed_width_csv(100)
    monkeypatch.setattr(funcspace, "_CSV_READ_CHARS", 30)
    assert _parse_csv_body(text).tobytes() == numbers.ravel().tobytes()


def test_csv_bad_row_in_a_later_slice_is_named_by_its_line(monkeypatch):
    text, _ = _fixed_width_csv(20)
    lines = text.splitlines(keepends=True)
    monkeypatch.setattr(funcspace, "_CSV_READ_CHARS", 30)
    # the third slice holds rows 7-9, lines 8-10
    lines[8] = "0008;-008\n"
    with pytest.raises(BadDomain, match="^line 9: .*'0008;-008'"):
        from_csv("".join(lines))
