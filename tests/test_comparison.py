"""Comparison-function calculus: folds, inverses, summability, triangle
growth, and the serialization format."""

import dataclasses
import inspect

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import mhestab.comparison
from mhestab.comparison import (
    TEXT_FORMS,
    CapabilityError,
    ComposedK,
    DomainError,
    IterK,
    IteratedKL,
    KFn,
    KLFn,
    KOfKL,
    LinearK,
    N_TWO,
    PiecewiseLinearK,
    PlusMode,
    PointwiseMaxKL,
    PointwiseSumKL,
    PowerK,
    ScaledShiftKL,
    SeparableGeometric,
    SFloorKL,
    SumK,
    TriangleGrowth,
    check_kl_on_grid,
    check_summable,
    check_triangle,
    format_kfn,
    format_klfn,
    iterate_k,
    log_grid,
    parse_kfn,
    parse_klfn,
    plus_reduce,
    triangle_constant,
)


# ---------------------------------------------------------------------------
# plus_reduce
# ---------------------------------------------------------------------------

def test_plus_reduce_examples():
    assert plus_reduce(PlusMode.MAX, [1.0, 3.0, 2.0]) == 3.0
    assert plus_reduce(PlusMode.SUM, [1.0, 3.0, 2.0]) == 6.0
    assert plus_reduce(PlusMode.MAX, []) == 0.0
    assert plus_reduce(PlusMode.SUM, []) == 0.0


def test_plus_reduce_rejects_negative():
    with pytest.raises(DomainError):
        plus_reduce(PlusMode.SUM, [1.0, -0.5])


@given(st.lists(st.floats(min_value=0, max_value=1e6), max_size=12))
def test_max_below_sum(values):
    assert plus_reduce(PlusMode.MAX, values) <= plus_reduce(PlusMode.SUM, values)


@given(st.lists(st.floats(min_value=0, max_value=1e3), min_size=2, max_size=8),
       st.sampled_from([LinearK(2.0), PowerK(1.0, 2.0), PowerK(3.0, 0.5)]))
@settings(max_examples=200)
def test_max_distributes_over_k_functions(values, kappa):
    # exact distributivity of maximization, asserted with equality
    folded = kappa(plus_reduce(PlusMode.MAX, values)) if values else 0.0
    mapped = plus_reduce(PlusMode.MAX, [kappa(v) for v in values])
    assert folded == mapped


@given(st.lists(st.floats(min_value=0, max_value=100.0), min_size=1, max_size=10),
       st.sampled_from([LinearK(1.5), PowerK(1.0, 2.0), PowerK(2.0, 0.5)]))
@settings(max_examples=200)
def test_sum_distribution_inequality(values, kappa):
    # kappa(sum a_i) <= max kappa(N a_i) <= sum kappa(N a_i), N = list length
    n = len(values)
    lhs = kappa(sum(values))
    mid = max(kappa(n * v) for v in values)
    rhs = sum(kappa(n * v) for v in values)
    assert lhs <= mid * (1 + 1e-12) + 1e-300
    assert mid <= rhs * (1 + 1e-12) + 1e-300


# ---------------------------------------------------------------------------
# K-functions and inverses
# ---------------------------------------------------------------------------

def test_k_inverse_examples():
    assert LinearK(1.0).inverse(3.0) == 3.0
    assert LinearK(2.0).inverse(5.0) == 2.5
    assert abs(PowerK(1.0, 2.0).inverse(9.0) - 3.0) <= 1e-9


class _Saturating(KFn):
    """r / (1 + r): a K-function that is not K-infinity, with the default
    (bisection) inverse."""

    def _eval(self, r):
        return r / (1.0 + r)

    @property
    def is_unbounded(self):
        return False


def test_k_inverse_requires_k_infinity():
    for f in (_Saturating(), ComposedK((LinearK(2.0), _Saturating()))):
        assert not f.is_unbounded
        with pytest.raises(CapabilityError):
            f.inverse(0.5)
        with pytest.raises(CapabilityError):
            f.inverse(np.array([0.5]))


def test_k_inverse_round_trip_on_log_grid():
    fns = [LinearK(0.7), PowerK(2.0, 1.5), PiecewiseLinearK(((0.5, 0.2), (2.0, 3.0))),
           ComposedK((PowerK(1.0, 2.0), LinearK(0.5))), SumK((LinearK(1.0), PowerK(1.0, 2.0)))]
    for f in fns:
        for y in np.geomspace(1e-9, 1e3, 40):
            x = f.inverse(y)
            assert abs(f(x) - y) <= 1e-9 * max(1.0, y)


def test_iterate_k_examples():
    assert iterate_k(LinearK(0.5), 3, 8.0) == 1.0
    assert iterate_k(PowerK(1.0, 2.0), 0, 7.0) == 7.0
    assert iterate_k(PowerK(1.0, 0.5), 2, 16.0) == 2.0


@pytest.mark.parametrize("knots", [(), ((1.0, 1.0), (1.0, 2.0)), ((1.0, 1.0), (2.0, 0.5))])
def test_piecewise_linear_needs_increasing_knots(knots):
    with pytest.raises(DomainError):
        PiecewiseLinearK(knots)


def test_iter_k_object_matches_function():
    f = IterK(LinearK(0.5), 4)
    assert f(32.0) == 2.0
    assert f.inverse(2.0) == 32.0


@pytest.mark.parametrize("n", [0, 2])
def test_iter_k_inverse_rejects_a_negative_target(n):
    f = IterK(LinearK(2.0), n)
    with pytest.raises(DomainError):
        f.inverse(-1.0)
    with pytest.raises(DomainError):
        f.inverse(np.array([1.0, -1.0]))
    assert f.inverse(8.0) == 8.0 / 2.0 ** n


# ---------------------------------------------------------------------------
# KL functions
# ---------------------------------------------------------------------------

def test_kl_eval_examples():
    f = SeparableGeometric(2.0, 1.0, 0.5)
    assert f(1.0, 2) == 0.5
    assert f(0.0, 5) == 0.0
    g = IteratedKL(LinearK(0.5), LinearK(1.0))
    assert g(8.0, 3) == 1.0
    with pytest.raises(DomainError):
        f(-1.0, 0)


@pytest.mark.parametrize("age", [-0.5, 2.7, -1, float("nan")])
def test_kl_rejects_a_bad_age_instead_of_truncating_it(age):
    f = SeparableGeometric(1.0, 1.0, 0.5)
    for call in (f, f.sum_tail, ScaledShiftKL(f, 2.0)):
        for r in (1.0, np.array([1.0, 2.0])):
            with pytest.raises(DomainError):
                call(r, age)
    with pytest.raises(DomainError):
        TriangleGrowth((2.0, 1.0))(age)
    assert f(1.0, 2.0) == f(1.0, np.int64(2)) == 0.25


@pytest.mark.parametrize("age", [-0.5, 2.7, 4.9, -1, float("nan")])
def test_slices_reject_a_bad_age_instead_of_truncating_it(age):
    iterated = IteratedKL(LinearK(0.5), LinearK(1.0))
    floored = SFloorKL(SeparableGeometric(1.0, 1.0, 0.5), 2)
    bisected = PointwiseSumKL((SeparableGeometric(1.0, 1.0, 0.5),))
    for f in (iterated, floored, bisected, ScaledShiftKL(floored, 2.0)):
        for y in (0.25, np.array([0.25, 1.0])):
            with pytest.raises(DomainError):
                f.r_inverse(y, age)
        with pytest.raises(DomainError):
            f.r_slope(age)
    assert iterated.r_inverse(1.0, 2.0) == iterated.r_inverse(1.0, np.int64(2)) == 4.0
    assert iterated.r_slope(2.0) == 0.25
    assert floored.r_inverse(0.25, 4) == 1.0


def test_scaled_shift_rejects_an_infinite_scale():
    # the base is evaluated unchecked, and inf * 0 would hand it a NaN
    with pytest.raises(DomainError):
        ScaledShiftKL(SeparableGeometric(1.0, 1.0, 0.5), float("inf"))


def test_kl_grid_invariants():
    fns = [
        SeparableGeometric(2.0, 1.0, 0.5),
        SeparableGeometric(1.0, 2.0, 0.8),
        IteratedKL(LinearK(0.5), LinearK(2.0)),
        ScaledShiftKL(SeparableGeometric(1.0, 1.0, 0.5), 2.0, 1, 3.0),
        PointwiseMaxKL((SeparableGeometric(1.0, 1.0, 0.5), SeparableGeometric(0.5, 1.0, 0.9))),
        PointwiseSumKL((SeparableGeometric(1.0, 1.0, 0.5), SeparableGeometric(0.5, 1.0, 0.9))),
        KOfKL(PowerK(1.0, 2.0), SeparableGeometric(1.0, 1.0, 0.5)),
        SFloorKL(SeparableGeometric(1.0, 1.0, 0.5), 2),
    ]
    grid = log_grid(1e-6, 1e3, 6)
    for f in fns:
        ev = check_kl_on_grid(f, grid, s_max=48)
        assert ev.passed, (type(f).__name__, ev.description)


def test_kl_monotonicity_pointwise():
    f = SeparableGeometric(1.0, 1.0, 0.7)
    assert f(0.5, 3) < f(1.0, 3)
    assert f(1.0, 2) >= f(1.0, 5)


def test_r_slope_propagation():
    base = SeparableGeometric(2.0, 1.0, 0.5)
    assert base.r_slope(2) == 0.5
    scaled = ScaledShiftKL(base, 2.0, 1, 3.0)
    # 3 * base(2r, s+1): slope 3 * 2 * 2 * 0.5^{s+1}
    assert scaled.r_slope(0) == pytest.approx(3 * 2 * 2 * 0.5)
    combo = PointwiseMaxKL((base, scaled))
    assert combo.r_slope(0) == pytest.approx(max(2.0, 6.0))
    assert PointwiseSumKL((base, base)).r_slope(1) == pytest.approx(2.0)
    assert SeparableGeometric(1.0, 2.0, 0.5).r_slope(0) is None


def test_r_inverse_slices():
    fns = [
        SeparableGeometric(2.0, 2.0, 0.5),
        ScaledShiftKL(SeparableGeometric(1.0, 1.0, 0.5), 2.0),
        PointwiseMaxKL((SeparableGeometric(1.0, 1.0, 0.5), SeparableGeometric(2.0, 1.0, 0.25))),
        PointwiseSumKL((SeparableGeometric(1.0, 1.0, 0.5), SeparableGeometric(2.0, 1.0, 0.25))),
        IteratedKL(LinearK(0.5), PowerK(1.0, 2.0)),
        KOfKL(LinearK(3.0), SeparableGeometric(1.0, 1.0, 0.5)),
        SFloorKL(SeparableGeometric(1.0, 1.0, 0.5), 3),
    ]
    for f in fns:
        for s in (0, 1, 4):
            for y in (1e-6, 0.3, 7.0):
                r = f.r_inverse(y, s)
                assert f(r, s) == pytest.approx(y, rel=1e-9, abs=1e-12)


# ---------------------------------------------------------------------------
# Summability
# ---------------------------------------------------------------------------

def test_check_summable_examples():
    f = SeparableGeometric(1.0, 1.0, 0.5)
    assert check_summable(f, LinearK(2.0)).passed          # geometric series = 2r
    assert not check_summable(f, LinearK(1.5)).passed      # exceeds 1.5r
    g = IteratedKL(LinearK(0.5), LinearK(1.0))
    assert check_summable(g, LinearK(2.0)).passed


def test_check_summable_partial_sum_oracle():
    # direct summation oracle for the iterated family
    g = IteratedKL(LinearK(0.5), LinearK(1.0))
    r = 3.7
    direct = sum(g(r, tau) for tau in range(200))
    assert direct <= 2.0 * r + 1e-9
    assert g.sum_tail(r, 200) <= 1e-9


@dataclasses.dataclass(frozen=True, eq=False)
class Tabulated(KLFn):
    """A gain known only by samples: ``values[:, a]`` on ``r_grid`` at age
    a, interpolated linearly in r and held from the last age on.  It has no
    slope, tail bound or text form."""

    r_grid: np.ndarray
    values: np.ndarray

    def _eval(self, r, s):
        out = np.interp(r, self.r_grid, self.values[:, min(s, self.values.shape[1] - 1)])
        return float(out) if type(r) is float else out


def test_tabulated_rejected_by_summability():
    tab = Tabulated(np.array([0.0, 0.1, 1.0, 10.0]), np.outer([0.0, 0.1, 1.0, 10.0], [1.0] * 3))
    with pytest.raises(CapabilityError):
        check_summable(tab, LinearK(100.0))


def test_summability_evidence_reports_worst_point():
    f = SeparableGeometric(1.0, 1.0, 0.5)
    ev = check_summable(f, LinearK(1.5))
    assert not ev.passed
    assert ev.worst_margin < 0
    assert ev.worst_r > 0


# ---------------------------------------------------------------------------
# Triangle growth
# ---------------------------------------------------------------------------

def test_triangle_constant_linear_sum_is_one():
    beta = SeparableGeometric(1.0, 1.0, 0.5)
    n = triangle_constant(beta, PlusMode.SUM, s_max=6)
    assert all(v == 1.0 for v in n.values)


def test_triangle_constant_linear_max_is_two():
    beta = SeparableGeometric(1.0, 1.0, 0.5)
    n = triangle_constant(beta, PlusMode.MAX, s_max=6)
    assert all(v == 2.0 for v in n.values)


def test_triangle_constant_quadratic_sum_needs_two():
    beta = SeparableGeometric(1.0, 2.0, 0.5)
    # N = 1 fails at a1 = a2 = 1: (a1+a2)^2 = 4 > 1 + 1
    a = np.array([1.0])
    lhs = beta(2.0, 0)
    rhs = beta(1.0, 0) + beta(1.0, 0)
    assert lhs > rhs
    n = triangle_constant(beta, PlusMode.SUM, s_max=4)
    assert all(v == 2.0 for v in n.values)
    assert check_triangle(beta, n, PlusMode.SUM, s_max=4).passed


def test_triangle_growth_validation():
    with pytest.raises(DomainError):
        TriangleGrowth((1.0, 2.0))        # increasing
    with pytest.raises(DomainError):
        TriangleGrowth((2.5,))            # out of range
    n = TriangleGrowth((2.0, 1.5, 1.0))
    assert n(0) == 2.0 and n(1) == 1.5 and n(7) == 1.0


def test_fallback_n_two_always_valid():
    for beta in (SeparableGeometric(3.0, 1.0, 0.9), SeparableGeometric(1.0, 2.0, 0.5),
                 IteratedKL(LinearK(0.5), PowerK(1.0, 2.0))):
        for mode in PlusMode:
            assert check_triangle(beta, N_TWO, mode, s_max=6).passed


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def test_kfn_text_round_trip():
    fns = [
        LinearK(2.5),
        PowerK(1.5, 2.0),
        PiecewiseLinearK(((0.5, 0.25), (2.0, 4.0))),
        ComposedK((LinearK(2.0), PowerK(1.0, 0.5))),
        SumK((LinearK(1.0), IterK(LinearK(0.5), 3))),
    ]
    for f in fns:
        text = format_kfn(f)
        g = parse_kfn(text)
        for r in (0.0, 0.3, 2.7, 100.0):
            assert f(r) == pytest.approx(g(r), rel=1e-15)


def test_klfn_text_round_trip():
    fns = [
        SeparableGeometric(2.0, 1.0, 0.5),
        ScaledShiftKL(SeparableGeometric(1.0, 1.0, 0.5), 2.0, 1, 3.0),
        ScaledShiftKL(SeparableGeometric(1.0, 1.0, 0.5), TriangleGrowth((2.0, 1.0))),
        PointwiseMaxKL((SeparableGeometric(1.0, 1.0, 0.5), SeparableGeometric(2.0, 1.0, 0.25))),
        PointwiseSumKL((SeparableGeometric(1.0, 1.0, 0.5), SeparableGeometric(2.0, 1.0, 0.25))),
        IteratedKL(LinearK(0.5), LinearK(2.0)),
        KOfKL(PowerK(2.0, 1.0), SeparableGeometric(1.0, 1.0, 0.5)),
        SFloorKL(SeparableGeometric(1.0, 1.0, 0.5), 2),
    ]
    for f in fns:
        text = format_klfn(f)
        g = parse_klfn(text)
        for r in (0.0, 0.3, 2.7):
            for s in (0, 1, 5):
                assert f(r, s) == pytest.approx(g(r, s), rel=1e-15)


def test_parse_rejects_garbage():
    with pytest.raises(DomainError):
        parse_klfn("sepgeo(1.0, 1.0")
    with pytest.raises(DomainError):
        parse_klfn("mystery(1.0)")


#: One instance of every text form; ``tria`` rides in a ``scaled``.
TEXT_FORM_EXAMPLES = {
    "linear": LinearK(2.5),
    "power": PowerK(1.5, 2.0),
    "pwl": PiecewiseLinearK(((0.5, 0.25), (2.0, 4.0))),
    "comp": ComposedK((LinearK(2.0), PowerK(1.0, 0.5))),
    "ksum": SumK((LinearK(1.0), PowerK(0.5, 3.0))),
    "kiter": IterK(LinearK(0.5), 3),
    "tria": ScaledShiftKL(SeparableGeometric(1.0, 1.0, 0.5), TriangleGrowth((2.0, 1.5, 1.0)), 1, 3.0),
    "sepgeo": SeparableGeometric(2.0, 1.0, 0.5),
    "scaled": ScaledShiftKL(SeparableGeometric(1.0, 2.0, 0.5), 2.0),
    "klmax": PointwiseMaxKL((SeparableGeometric(1.0, 1.0, 0.5), SeparableGeometric(2.0, 1.0, 0.25))),
    "klsum": PointwiseSumKL((SeparableGeometric(1.0, 1.0, 0.5), SeparableGeometric(2.0, 1.0, 0.25))),
    "kliter": IteratedKL(LinearK(0.5), PowerK(2.0, 1.5)),
    "kofkl": KOfKL(PowerK(2.0, 1.0), SeparableGeometric(1.0, 1.0, 0.5)),
    "sfloor": SFloorKL(SeparableGeometric(1.0, 1.0, 0.5), 2),
}

def test_every_text_form_has_an_example():
    assert set(TEXT_FORM_EXAMPLES) == set(TEXT_FORMS)


@pytest.mark.parametrize("name", sorted(TEXT_FORM_EXAMPLES))
def test_every_text_form_round_trips_to_an_equal_object(name):
    f = TEXT_FORM_EXAMPLES[name]
    fmt, parse = (format_kfn, parse_kfn) if isinstance(f, KFn) else (format_klfn, parse_klfn)
    text = fmt(f)
    assert f"{name}(" in text
    assert parse(text) == f
    assert fmt(parse(text)) == text


def test_trailing_defaults_may_be_left_out_and_names_are_case_insensitive():
    base = SeparableGeometric(1.0, 1.0, 0.5)
    assert parse_klfn("scaled(sepgeo(1, 1, 0.5))") == ScaledShiftKL(base)
    assert parse_klfn("Scaled(SEPGEO(1, 1, 0.5), Tria(2, 1), 1)") == \
        ScaledShiftKL(base, TriangleGrowth((2.0, 1.0)), 1, 1.0)
    assert format_klfn(ScaledShiftKL(base, 2.0)) == "scaled(sepgeo(1.0, 1.0, 0.5), 2.0, 0, 1.0)"


@pytest.mark.parametrize("name", sorted(TEXT_FORMS))
def test_text_forms_declare_one_kind_per_dataclass_field(name):
    cls, kinds = TEXT_FORMS[name]
    assert len(dataclasses.fields(cls)) == len(kinds)
    assert all(k.rstrip("*") in ("number", "integer", "knot", "K", "KL", "scale") for k in kinds)
    assert all(not k.endswith("*") for k in kinds[:-1])


def test_every_comparison_family_has_a_text_form():
    families = {cls for _, cls in inspect.getmembers(mhestab.comparison, inspect.isclass)
                if issubclass(cls, (KFn, KLFn)) and cls not in (KFn, KLFn)
                and cls.__module__ == mhestab.comparison.__name__}
    assert families == {cls for cls, _ in TEXT_FORMS.values() if cls is not TriangleGrowth}


def test_a_family_without_a_text_form_cannot_be_formatted():
    table = Tabulated(np.array([0.0, 1.0]), np.array([[0.0], [1.0]]))
    with pytest.raises(CapabilityError):
        format_klfn(table)
    with pytest.raises(CapabilityError):
        format_klfn(KOfKL(LinearK(1.0), table))
    with pytest.raises(CapabilityError):
        format_kfn(SeparableGeometric(1.0, 1.0, 0.5))


#: Malformed text that used to raise IndexError, TypeError or ValueError, or
#: was accepted silently (extra arguments dropped, a fraction truncated,
#: trailing text ignored, an overflow kept as inf).
MALFORMED_KL_TEXT = [
    "sepgeo(1.0)", "kliter(linear(0.5))", "sepgeo(1:2, 1, 0.5)", "sepgeo(linear(1), 1, 0.5)",
    "scaled(sepgeo(1,1,0.5), linear(2))", "sepgeo(1e, 1, 0.5)", "sepgeo(1,,1,0.5)",
    "sepgeo(1,1,0.5,9)", "sfloor(sepgeo(1,1,0.5), 2.7)", "sepgeo(1,1,0.5) junk",
    "sepgeo(1, 1, 0.5))", "sepgeo(1e400, 1, 0.5)",
]
MALFORMED_K_TEXT = ["power(1)", "linear()", "pwl(1:2, 3)", "linear(1, 2)",
                    "kiter(linear(0.5), 2.5)"]


@pytest.mark.parametrize("text", MALFORMED_KL_TEXT + [
    "klmax()", "scaled(sepgeo(1,1,0.5), tria())", "sepgeo(1, 1, nan)", "1.0",
    "linear(1.0)", "tria(2.0)", "sepgeo(1, 1, 0.5) $", "sepgeo 1", "sepgeo(1 1)",
    "pwl(1:abc)", "kofkl(sepgeo(1, 1, 0.5), sepgeo(1, 1, 0.5))"])
def test_malformed_kl_text_is_a_domain_error(text):
    with pytest.raises(DomainError):
        parse_klfn(text)


@pytest.mark.parametrize("text", MALFORMED_K_TEXT + ["sepgeo(1, 1, 0.5)", "comp()", "pwl()",
                                                     "kiter(linear(0.5), -1)"])
def test_malformed_k_text_is_a_domain_error(text):
    with pytest.raises(DomainError):
        parse_kfn(text)
