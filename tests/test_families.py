"""Families: closed forms, axiom validation, guiding sets, classification,
descriptor round-trips."""

import json
import math

import numpy as np
import pytest
from conftest import flat_reference
from hypothesis import example, given, strategies as st

from pconfig import (
    BadArgument,
    MapPair,
    build_family,
    flat_interval,
    perturbed_flat_pair,
    quadratic_pair,
    standard_pair,
    validate,
)
from pconfig.families import (ANCHORS, _grid_with_anchors,
                              check_branches_invertible)

GRID = np.linspace(-1.0, 1.0, 2001)


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


def test_standard_branches():
    p = standard_pair()
    assert np.array_equal(p.delta1(GRID), (GRID + 1) / 2)
    assert np.array_equal(p.delta2(GRID), (GRID - 1) / 2)


def test_quadratic_point_values():
    p = quadratic_pair(0.2)
    assert float(p.delta1(0.0)) == pytest.approx(0.7, abs=0)
    assert float(p.d_delta1(1.0)) == pytest.approx(0.1, abs=1e-15)
    assert float(p.d_delta1(-1.0)) == pytest.approx(0.9, abs=1e-15)


def test_perturbed_flat_matches_affine_outside_cell():
    p = perturbed_flat_pair(2)
    lo, hi = flat_interval(2)
    outside = GRID[(GRID < lo) | (GRID >= hi)]
    assert np.array_equal(p.delta1(outside), (outside + 1) / 2)


def test_perturbed_flat_rejoins_exactly_at_right_edge():
    for n in (1, 2, 3, 4):
        p = perturbed_flat_pair(n)
        _, hi = flat_interval(n)
        assert float(p.delta1(hi)) == (hi + 1) / 2


def test_perturbed_flat_single_interior_zero():
    p = perturbed_flat_pair(2)
    lo, hi = flat_interval(2)
    lam = p.flat_points[0]
    assert lo < lam < hi
    assert float(p.d_delta1(lam)) == 0.0
    # exactly one zero: derivative positive everywhere else on a fine sweep
    t = np.linspace(-1.0, 1.0, 200001)
    zero_like = np.asarray(p.d_delta1(t)) <= 1e-12
    assert np.count_nonzero(zero_like) <= 1


def test_perturbed_flat_needs_a_float_strictly_inside_the_cell():
    p = perturbed_flat_pair(51)
    lo, hi = flat_interval(51)
    (lam,) = p.flat_points
    assert lo < lam < hi
    assert float(p.d_delta1(lam)) == 0.0
    with pytest.raises(BadArgument, match="n must be >= 1 and <= 51, got 52"):
        perturbed_flat_pair(52)


@pytest.mark.parametrize("pair", [
    standard_pair(),
    quadratic_pair(0.2),
    build_family({"family": "polynomial", "delta1": [0.5, 0.5, 0.1, -0.1]}),
    perturbed_flat_pair(2),
], ids=["standard", "quadratic", "polynomial", "perturbed_flat"])
def test_scalar_and_array_evaluation_agree(pair):
    n = pair.params.get("n", 2)
    lo, hi = flat_interval(n)
    lam = lo + (hi - lo) / 2.0
    points = np.array([*ANCHORS, lo, hi, lam])
    for name in ("delta1", "delta2", "d_delta1", "d_delta2"):
        f = getattr(pair, name)
        array = np.asarray(f(points))
        scalars = [f(float(x)) for x in points]
        assert all(np.shape(v) == () for v in scalars)
        assert np.array_equal(np.array([float(v) for v in scalars]), array)


#: Where the ramps of the flat family's two bumps join and end, in the
#: cell coordinate u: psi's ramps and plateau, then phi's.
RAMP_JOINS = np.array([0.0, 1 / 16, 3 / 16, 1 / 4, 3 / 8, 1 / 2, 5 / 8])


def _neighbours(t):
    """`t` with the floats one ulp either side of each point."""
    return np.concatenate((np.nextafter(t, -2.0), t, np.nextafter(t, 2.0)))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 51])
def test_perturbed_flat_is_its_reference_bit_for_bit(n):
    # the evaluator takes all four ramps as one array; every float it
    # returns is the one that the bumps taken ramp by ramp return, down
    # to the sign of zero
    pair = perturbed_flat_pair(n)
    lo, hi = flat_interval(n)
    joins = lo + RAMP_JOINS * (hi - lo)
    if n <= 6:
        assert np.array_equal((joins - lo) / (hi - lo), RAMP_JOINS)
    points = np.concatenate((
        _neighbours(joins), _neighbours(np.array([lo, hi])), [0.0, -0.0],
        np.linspace(-1.0, 1.0, 20001), np.linspace(lo, hi, 4097)))
    names = ("delta1", "delta2", "d_delta1", "d_delta2")
    for name, reference in zip(names, flat_reference(n)):
        f = getattr(pair, name)
        got, want = f(points), reference(points)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes(), name
        for x in (-1.0, 0.0, -0.0, lo, joins[3], pair.flat_points[0], hi, 1.0):
            got, want = f(x), reference(x)
            assert type(got) is type(want) and got.shape == want.shape
            assert got.tobytes() == want.tobytes(), (name, x)


def _quadratic_reference(c):
    """delta1 and delta2 of ``quadratic(c)`` as their closed forms."""
    return (lambda t: (t + 1.0) / 2.0 + c * (1.0 - t * t),
            lambda t: (t - 1.0) / 2.0 - c * (1.0 - t * t))


@pytest.mark.parametrize("c", [0.2, -0.2, 0.249, -0.249, 0.0, -0.0],
                         ids=repr)
def test_quadratic_is_its_closed_form_bit_for_bit(c):
    # the branches compute in place into two arrays of their own; every
    # float is the closed form's, down to the sign of zero, the input is
    # left as it was, and a scalar gives a shape-() float64
    pair = quadratic_pair(c)
    points = np.concatenate((
        np.random.default_rng(0).uniform(-1.0, 1.0, 10 ** 5),
        _neighbours(np.array(ANCHORS)), [-0.0]))
    points.setflags(write=False)
    before = points.tobytes()
    for f, reference in zip((pair.delta1, pair.delta2),
                            _quadratic_reference(c)):
        got = f(points)
        assert got.dtype == float and got.shape == points.shape
        assert got.tobytes() == reference(points).tobytes()
        assert points.tobytes() == before
        for x in (*ANCHORS, -0.0, 0.5, np.nextafter(1.0, 0.0)):
            for arg in (x, np.float64(x), np.array(x)):
                got, want = f(arg), reference(np.float64(x))
                assert type(got) is np.float64 and got.shape == ()
                assert got.tobytes() == want.tobytes(), x


def test_perturbed_flat_derivative_strictly_below_one():
    p = perturbed_flat_pair(3)
    t = np.linspace(-1.0, 1.0, 200001)
    assert float(np.max(p.d_delta1(t))) <= 1.0 / 2.0 + 1.0 / 3.0 + 1e-12
    assert float(np.max(p.d_delta1(t))) < 1.0


def test_perturbed_flat_c1_joins():
    p = perturbed_flat_pair(2)
    lo, hi = flat_interval(2)
    for edge in (lo, hi):
        for eps in (1e-7, 1e-9):
            assert float(p.d_delta1(edge - eps)) == pytest.approx(0.5, abs=1e-4)
            assert float(p.d_delta1(edge + eps)) == pytest.approx(0.5, abs=1e-4)


def test_derivatives_match_finite_differences():
    rng = np.random.default_rng(1234)
    pairs = [
        standard_pair(),
        quadratic_pair(0.2),
        quadratic_pair(-0.15),
        perturbed_flat_pair(2),
        perturbed_flat_pair(3),
        build_family({"family": "polynomial",
                      "delta1": [0.5, 0.5, 0.1, -0.1]}),
    ]
    ts = rng.uniform(-1 + 1e-5, 1 - 1e-5, size=500)
    h = 1e-6
    for p in pairs:
        for f, df in ((p.delta1, p.d_delta1), (p.delta2, p.d_delta2)):
            fd = (np.asarray(f(ts + h)) - np.asarray(f(ts - h))) / (2 * h)
            assert np.max(np.abs(fd - np.asarray(df(ts)))) <= 1e-6


def test_branch_derivatives_sum_to_one():
    for p in (standard_pair(), quadratic_pair(0.2), perturbed_flat_pair(2)):
        s = np.asarray(p.d_delta1(GRID)) + np.asarray(p.d_delta2(GRID))
        assert np.max(np.abs(s - 1.0)) <= 1e-12


def test_additivity_machine_precision():
    for p in (standard_pair(), quadratic_pair(0.2), perturbed_flat_pair(2)):
        dev = np.abs(np.asarray(p.delta1(GRID)) + np.asarray(p.delta2(GRID)) - GRID)
        assert np.max(dev) <= 1e-12


def test_boundary_identities_exact():
    for p in (standard_pair(), quadratic_pair(0.2), perturbed_flat_pair(2)):
        assert float(p.delta2(-1.0)) == -1.0
        assert float(p.delta2(1.0)) == 0.0
        assert float(p.delta1(-1.0)) == 0.0
        assert float(p.delta1(1.0)) == 1.0


# ---------------------------------------------------------------------------
# validation and classification
# ---------------------------------------------------------------------------


def test_validate_standard_regular():
    rep = validate(standard_pair())
    assert rep.classification == "regular"
    assert rep.rho == 0.5
    assert rep.guiding_set_1.is_empty and rep.guiding_set_2.is_empty
    assert rep.additivity_ok and rep.derivative_nonneg_ok and rep.boundary_ok


def test_validate_quadratic_02_regular():
    rep = validate(quadratic_pair(0.2))
    assert rep.classification == "regular"
    assert rep.rho == pytest.approx(0.9, abs=1e-12)
    assert rep.derivative_min_1 == pytest.approx(0.1, abs=1e-12)


def test_validate_quadratic_03_invalid():
    rep = validate(quadratic_pair(0.3))
    assert rep.classification == "invalid"
    assert not rep.derivative_nonneg_ok
    assert rep.derivative_min_2 == pytest.approx(-0.1, abs=1e-12)


def test_validate_quadratic_025_guided_at_endpoints():
    # c = 1/4 makes both branch derivatives vanish at one endpoint each:
    # delta2'(-1) = 1/2 - 2c = 0 and delta1'(1) = 1/2 - 2c = 0
    rep = validate(quadratic_pair(0.25))
    assert rep.classification == "guided"
    (iv2,) = rep.guiding_set_2.intervals
    assert iv2 == (-1.0, -1.0)
    assert rep.guiding_set_2.singleton_flags[0]
    (iv1,) = rep.guiding_set_1.intervals
    assert iv1 == (1.0, 1.0)
    assert rep.rho == pytest.approx(1.0, abs=1e-12)


def test_validate_perturbed_flat_guided():
    rep = validate(perturbed_flat_pair(2))
    assert rep.classification == "guided"
    assert rep.guiding_set_2.is_empty
    assert len(rep.guiding_set_1.exact_points) == 1
    lo, hi = flat_interval(2)
    lam = rep.guiding_set_1.exact_points[0]
    assert lo < lam < hi
    if rep.guiding_set_1.intervals:  # grid hits depend on flat_tol
        for a, b in rep.guiding_set_1.intervals:
            assert lo < a <= b < hi
    # the complementary branch derivative reaches exactly 1 at the flat point
    assert rep.rho == 1.0


def test_rho_below_one_iff_regular():
    for p in (standard_pair(), quadratic_pair(0.2), quadratic_pair(-0.1)):
        rep = validate(p)
        assert rep.classification == "regular" and rep.rho < 1.0
    for p in (quadratic_pair(0.25), perturbed_flat_pair(2)):
        rep = validate(p)
        assert rep.classification == "guided" and rep.rho >= 1.0 - 1e-12


def test_guiding_sets_standard_empty():
    rep = validate(standard_pair())
    assert rep.guiding_set_1.is_empty and rep.guiding_set_2.is_empty


def _with_derivatives(d1p, d2p):
    """A pair given by its branch derivatives, which is all that the
    guiding sets and the invertibility check read; its branches are the
    standard pair's, so that validation has maps to sample."""
    std = standard_pair()
    return MapPair(family="custom", params={}, delta1=std.delta1,
                   delta2=std.delta2, d_delta1=d1p, d_delta2=d2p)


def _flat_on(lo, hi):
    """A pair whose first branch derivative is 0 on [lo, hi]."""
    def d1p(t):
        t = np.asarray(t, dtype=float)
        return np.where((t >= lo) & (t <= hi), 0.0, 0.5)
    return _with_derivatives(d1p, lambda t: 1.0 - d1p(t))


def test_flat_runs_guiding_sets_and_invertibility():
    step = 2.0 / 4096
    # two grid points: a singleton guiding set, and still invertible
    two = _flat_on(0.5, 0.5 + step)
    rep = validate(two)
    g1, g2 = rep.guiding_set_1, rep.guiding_set_2
    assert g1.intervals == ((0.5, 0.5 + step),) and g1.singleton_flags == (True,)
    assert g2.is_empty
    check_branches_invertible(two)
    # three grid points: still a singleton, but flat on an interval
    three = _flat_on(0.5, 0.5 + 2 * step)
    assert validate(three).guiding_set_1.singleton_flags == (True,)
    with pytest.raises(BadArgument, match="delta1 is flat"):
        check_branches_invertible(three)
    # four grid points: an interval
    four = _flat_on(0.5, 0.5 + 3 * step)
    assert validate(four).guiding_set_1.singleton_flags == (False,)
    # isolated flat points of the built-in families
    for p in (quadratic_pair(0.25), perturbed_flat_pair(2)):
        check_branches_invertible(p)


def test_decreasing_branch_is_not_invertible():
    with pytest.raises(BadArgument,
                       match="delta1 is decreasing somewhere"):
        check_branches_invertible(quadratic_pair(0.3))
    only_2 = _with_derivatives(lambda t: np.full_like(t, 0.5),
                               lambda t: 0.5 - np.asarray(t))
    with pytest.raises(BadArgument,
                       match="delta2 is decreasing somewhere"):
        check_branches_invertible(only_2)


def _lattice(rep):
    """The classification lattice, read off a report's other fields."""
    if not (rep.derivative_nonneg_ok and rep.boundary_ok):
        return "invalid"
    empty = rep.guiding_set_1.is_empty and rep.guiding_set_2.is_empty
    if rep.additivity_ok:
        return "regular" if empty else "guided"
    return "quasi-regular" if empty else "invalid"


def test_classify_consistency():
    for p, expected in [
        (standard_pair(), "regular"),
        (quadratic_pair(0.2), "regular"),
        (quadratic_pair(0.25), "guided"),
        (quadratic_pair(0.3), "invalid"),
        (perturbed_flat_pair(2), "guided"),
    ]:
        rep = validate(p)
        assert _lattice(rep) == rep.classification == expected


def test_quasi_mode_skips_additivity():
    quasi = build_family({
        "family": "polynomial",
        "delta1": [0.5, 0.5],
        # delta2(-1) = -1, delta2(1) = 0, increasing, but not t - delta1
        "delta2": [-0.5, 0.45, 0.0, 0.05],
    })
    # validation checks additivity for every pair: this one fails it and
    # nothing else, which classifies it quasi-regular
    rep = validate(quasi)
    assert rep.additivity_ok is False
    assert rep.classification == "quasi-regular"


def test_validate_rejects_tiny_grid():
    with pytest.raises(ValueError, match="grid must be >= 257 .*, got 128"):
        validate(standard_pair(), grid=128)


BUILT_IN = [standard_pair(), quadratic_pair(0.2), quadratic_pair(-0.25),
            quadratic_pair(0.3), perturbed_flat_pair(2),
            build_family({"family": "polynomial",
                          "delta1": [0.25, 0.5, 0.75, 0, -0.5]})]


@pytest.mark.parametrize("pair", BUILT_IN, ids=repr)
@pytest.mark.parametrize("grid", [257, 1000, 4097])
def test_validate_calls_each_map_once(pair, grid):
    calls = {}

    def counted(name):
        def f(t):
            calls[name] = calls.get(name, 0) + 1
            return getattr(pair, name)(t)
        return f

    names = ("delta1", "delta2", "d_delta1", "d_delta2")
    wrapped = MapPair(pair.family, pair.params,
                      *(counted(name) for name in names), pair.flat_points)
    assert validate(wrapped, grid).to_json() == validate(pair, grid).to_json()
    assert calls == dict.fromkeys(names, 1)


@pytest.mark.parametrize("pair", BUILT_IN, ids=repr)
def test_boundary_values_are_the_scalar_values(pair):
    b = validate(pair).boundary_values
    want = {
        "delta1(-1)": pair.delta1(-1.0),
        "delta1(0)": pair.delta1(0.0),
        "delta1(1)": pair.delta1(1.0),
        "delta2(-1)": pair.delta2(-1.0),
        "delta2(0)": pair.delta2(0.0),
        "delta2(1)": pair.delta2(1.0),
    }
    assert list(b) == list(want)
    assert all(np.float64(b[k]).tobytes() == np.float64(want[k]).tobytes()
               for k in want)


@pytest.mark.parametrize("grid", [2, 257, 1000, 1001, 4097, 2 ** 20 + 1])
def test_grid_with_anchors_is_their_union(grid):
    # validate and fe_residual sample the uniform grid plus the anchors;
    # inserting 0 where it lacks gives the bytes of the sorted union,
    # whether the grid holds 0 (odd sizes) or misses it (even sizes)
    want = np.union1d(np.linspace(-1.0, 1.0, grid), ANCHORS)
    assert _grid_with_anchors(grid).tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# descriptors
# ---------------------------------------------------------------------------


def test_descriptor_round_trip():
    derived = build_family({"family": "polynomial",
                            "delta1": [0.5, 0.5, 0.1, -0.1]})
    explicit = build_family({"family": "polynomial", "delta1": [0.5, 0.5],
                             "delta2": [-0.5, 0.45, 0.0, 0.05]})
    assert "delta2" not in derived.descriptor()
    assert "delta2" in explicit.descriptor()
    for p in (standard_pair(), quadratic_pair(0.2), perturbed_flat_pair(2),
              derived, explicit):
        q = build_family(p.descriptor())
        assert q.descriptor() == p.descriptor()
        for name in ("delta1", "delta2", "d_delta1", "d_delta2"):
            assert np.array_equal(np.asarray(getattr(q, name)(GRID)),
                                  np.asarray(getattr(p, name)(GRID))), name


def test_constant_delta1_gets_delta2_of_degree_one():
    # delta2 = t - delta1 needs a linear coefficient that a constant
    # delta1 lacks
    p = build_family({"family": "polynomial", "delta1": [0.5]})
    assert np.array_equal(p.delta2(GRID), GRID - 0.5)
    assert np.array_equal(p.d_delta2(GRID), np.ones_like(GRID))


def test_build_family_from_json_string():
    p = build_family(json.dumps({"family": "quadratic", "c": 0.2}))
    assert float(p.delta1(0.0)) == 0.7


def test_build_family_json_integer_beyond_digit_limit():
    # json.loads refuses integers over 4300 digits with a bare ValueError
    with pytest.raises(BadArgument,
                       match="descriptor is not valid JSON: .*4300 digits"):
        build_family('{"family": "quadratic", "c": 1%s}' % ("0" * 5000))


def test_build_family_bad_specs():
    with pytest.raises(BadArgument, match="^unknown family 'cubic'$"):
        build_family({"family": "cubic"})
    with pytest.raises(BadArgument, match="^quadratic: .*missing .* 'c'"):
        build_family({"family": "quadratic"})
    with pytest.raises(BadArgument,
                       match="^quadratic: .*unexpected keyword .* 'extra'"):
        build_family({"family": "quadratic", "c": 0.2, "extra": 1})
    with pytest.raises(BadArgument, match="^perturbed_flat: n must be >= 1 "
                                          "and <= 51, got 0$"):
        build_family({"family": "perturbed_flat", "n": 0})
    with pytest.raises(BadArgument, match="^descriptor is not valid JSON"):
        build_family("not json {")


@pytest.mark.parametrize("spec, key", [
    ({"family": "quadratic", "c": "nan"}, "c"),
    ({"family": "quadratic"}, "c"),
    ({"family": "quadratic", "c": 0.2, "extra": 1}, "extra"),
    ({"family": "standard", "c": 1}, "c"),
    ({"family": "perturbed_flat"}, "n"),
    ({"family": "perturbed_flat", "n": 0}, "n"),
    ({"family": "perturbed_flat", "n": 2, "shape": {"bogus": 1}}, "shape"),
    ({"family": "polynomial"}, "delta1"),
    ({"family": "polynomial", "delta1": [0.5, 0.5], "mode": "quasi"}, "mode"),
    ({"family": "polynomial", "delta1": [0.5, 0.5],
      "delta2": [-0.5, float("nan")]}, "delta2"),
    ({"family": "perturbed_flat", "n": True}, "n"),
    ({"family": "quadratic", "c": True}, "c"),
    ({"family": "perturbed_flat", "n": 10 ** 400}, "n"),
    ({"family": "quadratic", "c": 10 ** 400}, "c"),
    ({"family": "polynomial", "delta1": [0.5, 10 ** 400]}, "delta1"),
    ({"family": "polynomial", "delta1": [0.5, 0.5, "nan"]}, "delta1"),
    ({"family": "polynomial", "delta1": [0.5, 0.5, float("inf")]}, "delta1"),
    ({"family": "polynomial", "delta1": []}, "delta1"),
    ({"family": "polynomial", "delta1": [[0.5], [0.5]]}, "delta1"),
    # Python's json reads the literals NaN and Infinity
    ('{"family": "polynomial", "delta1": [0.5, 0.5, NaN]}', "delta1"),
    # a bool is not a coefficient, as it is not c
    ('{"family": "polynomial", "delta1": [true, 0.5]}', "delta1"),
    ({"family": "polynomial", "delta1": [0.5, 0.5],
      "delta2": [-0.5, True]}, "delta2"),
])
def test_build_family_bad_spec_names_family_and_key(spec, key):
    with pytest.raises(BadArgument) as exc:
        build_family(spec)
    message = str(exc.value)
    family = (json.loads(spec) if isinstance(spec, str) else spec)["family"]
    assert message.startswith(f"{family}: ") and key in message


def _number_descriptors(x) -> list:
    """Descriptors holding `x` as c and as a coefficient of delta1, each
    with its family and key."""
    return [({"family": "quadratic", "c": x}, "quadratic", "c"),
            ({"family": "polynomial", "delta1": [0.5, x]}, "polynomial",
             "delta1")]


#: Values a descriptor number must not be: text (numerals included), a
#: bool, null, a list, a non-finite float and an int no float holds.
_NOT_NUMBERS = st.one_of(
    st.text(), st.floats().map(repr), st.booleans(), st.none(),
    st.lists(st.floats(allow_nan=False), max_size=2),
    st.sampled_from([math.nan, math.inf, -math.inf]),
    st.integers(min_value=2 ** 1024), st.integers(max_value=-2 ** 1024))


@given(_NOT_NUMBERS)
@example("0.2")
@example([10 ** 5000])
def test_descriptor_numbers_refuse_all_but_finite_numbers(x):
    for spec, family, key in _number_descriptors(x):
        with pytest.raises(BadArgument) as exc:
            build_family(spec)
        message = str(exc.value)
        assert message.startswith(f"{family}: ") and key in message


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_descriptor_numbers_take_every_finite_float(x):
    # JSON writes each float by repr, so the text compares them bit for bit
    for spec, _, _ in _number_descriptors(x):
        text = json.dumps(build_family(spec).descriptor())
        assert text == json.dumps(spec)
        assert json.dumps(build_family(text).descriptor()) == text


@pytest.mark.parametrize("c", [float("nan"), float("inf"), -float("inf")])
def test_quadratic_rejects_non_finite_c(c):
    with pytest.raises(BadArgument, match="c must be finite"):
        quadratic_pair(c)


def test_quadratic_refuses_an_integer_beyond_float():
    # called directly, not only through build_family
    with pytest.raises(BadArgument, match="c holds an integer too large"):
        quadratic_pair(10 ** 400)
