import math
import random
import sys

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf, betainc, gammainc, loggamma

from lobfit import stats
from lobfit.errors import (
    AllZero,
    DomainError,
    InsufficientData,
    ZeroVariance,
)

mp.dps = 40


# --- special functions ---

def test_ln_beta_is_gamma_combination():
    for u, v in [(1.0, 1.0), (2.5, 4.0), (0.5, 0.5), (14.0, 3.0)]:
        ref = float(loggamma(mpf(u)) + loggamma(mpf(v)) - loggamma(mpf(u + v)))
        assert stats.ln_beta(u, v) == pytest.approx(ref, rel=1e-12, abs=1e-12)
    assert stats.ln_beta(1.0, 1.0) == pytest.approx(0.0, abs=1e-14)


def test_reg_inc_beta_against_reference():
    for a in [0.5, 1.0, 2.0, 4.5, 10.0, 50.0]:
        for b in [0.5, 1.0, 2.0, 7.0, 30.0]:
            for x in [0.001, 0.1, 0.3, 0.5, 0.7, 0.9, 0.999]:
                ref = float(betainc(mpf(a), mpf(b), 0, mpf(x),
                                    regularized=True))
                got = stats.reg_inc_beta(a, b, x)
                assert got == pytest.approx(ref, rel=1e-10, abs=1e-12), \
                    (a, b, x)


def test_reg_inc_beta_reflection():
    for a, b, x in [(2.0, 3.0, 0.3), (0.5, 0.5, 0.7), (4.5, 0.5, 0.9),
                    (10.0, 2.0, 0.15)]:
        left = stats.reg_inc_beta(a, b, x)
        right = 1.0 - stats.reg_inc_beta(b, a, 1.0 - x)
        assert left == pytest.approx(right, abs=1e-10)


def test_reg_inc_beta_edges_and_domain():
    assert stats.reg_inc_beta(2.0, 3.0, 0.0) == 0.0
    assert stats.reg_inc_beta(2.0, 3.0, 1.0) == 1.0
    for args in [(0.0, 1.0, 0.5), (1.0, -2.0, 0.5), (1.0, 1.0, 1.5),
                 (1.0, 1.0, -0.1)]:
        with pytest.raises(DomainError):
            stats.reg_inc_beta(*args)


@settings(max_examples=300, deadline=None)
@given(df=st.integers(1, 60), x=st.floats(0.0, 1600.0))
@example(df=9, x=47.5)
@example(df=9, x=97.5)
@example(df=9, x=191.56)
@example(df=1, x=1300.0)
@example(df=2, x=5e-324)
def test_chi_square_sf_matches_the_upper_incomplete_gamma(df, x):
    with mp.workdps(60):
        ref = gammainc(mpf(df) / 2, mpf(x) / 2, regularized=True)
        assume(ref >= mpf("1e-290"))
        got = stats.chi_square_sf(x, float(df))
        assert abs(got - ref) <= mpf("1e-12") * ref, (df, x, got, ref)


def test_chi_square_sf_domain():
    assert stats.chi_square_sf(0.0, 9.0) == 1.0
    assert stats.chi_square_sf(0.0, 1.0) == 1.0
    assert stats.chi_square_sf(2.0, 2.0) == pytest.approx(math.exp(-1.0),
                                                        rel=1e-15)
    for x, df in [(1.0, 0.0), (1.0, -2.0), (1.0, 9.5), (1.0, math.nan),
                  (1.0, math.inf), (-0.5, 9.0), (math.nan, 9.0),
                  (math.inf, 9.0)]:
        with pytest.raises(DomainError):
            stats.chi_square_sf(x, df)


def test_student_t_sf2_known_points():
    # df=1 is Cauchy: P(|T| >= 1) = 1/2
    assert stats.student_t_sf2(1.0, 1.0) == pytest.approx(0.5, abs=1e-12)
    assert stats.student_t_sf2(0.0, 7.0) == 1.0
    assert stats.student_t_sf2(math.inf, 7.0) == 0.0
    # symmetric in t
    assert stats.student_t_sf2(2.3, 6.0) == stats.student_t_sf2(-2.3, 6.0)


def _student_t_relative_error(t, df):
    with mp.workdps(60):
        df_, t_ = mpf(df), mpf(t)
        ref = betainc(df_ / 2, mpf(0.5), 0, df_ / (df_ + t_ * t_),
                      regularized=True)
        return ref, abs(stats.student_t_sf2(t, df) - ref) / ref


@settings(max_examples=300, deadline=None)
@given(df=st.floats(1.0, 200.0),
       t=st.one_of(st.floats(-60.0, 60.0),
                   st.floats(allow_nan=False, allow_infinity=False)))
@example(df=141.0, t=0.003)
@example(df=1.0, t=60.0)
@example(df=200.0, t=60.0)
@example(df=36.0, t=6e-4)
@example(df=36.0, t=6.1e-5)
@example(df=1.0, t=1e200)
@example(df=1.5, t=1e150)
def test_student_t_sf2_matches_the_incomplete_beta(df, t):
    ref, err = _student_t_relative_error(t, df)
    if ref > mpf("1e-290"):
        assert err <= 1e-11, (df, t, err)


def test_student_t_sf2_keeps_a_tiny_t():
    # df / (df + t*t) rounds away most of t*t here; the complementary
    # argument t*t / (df + t*t) keeps it
    assert _student_t_relative_error(1e-7, 36.0)[1] <= 1e-11


def test_p_values_monotone():
    last = 1.0
    for t in [0.0, 0.5, 1.0, 2.0, 4.0, 8.0]:
        p = stats.student_t_sf2(t, 5.0)
        assert 0.0 <= p <= last
        last = p
    last = 1.0
    for x in [0.0, 1.0, 4.0, 9.0, 20.0]:
        p = stats.chi_square_sf(x, 9.0)
        assert 0.0 <= p <= last
        last = p


# --- l1 / nps ---

def test_l1_error_basic():
    a = [0.5, 0.3, 0.2]
    b = [0.4, 0.4, 0.2]
    assert stats.l1_error(a, b) == pytest.approx(0.2)
    assert stats.l1_error(a, a) == 0.0
    with pytest.raises(stats.VectorLengthMismatch):
        stats.l1_error([0.5, 0.5], [1.0])


def test_l1_error_bounds():
    disjoint_a = [1.0] + [0.0] * 14
    disjoint_b = [0.0] * 14 + [1.0]
    assert stats.l1_error(disjoint_a, disjoint_b) == pytest.approx(2.0)


def test_float_sums_round_as_on_every_interpreter():
    # added left to right, one rounding per term; the compensated
    # built-in sum of Python 3.12 and later gives 0.6
    assert stats.l1_error([0.1, 0.2, 0.3], [0.0] * 3) == 0.6000000000000001
    assert stats.ordered_sum([0.1, 0.2, 0.3]) == (0.1 + 0.2) + 0.3
    assert stats.ordered_sum([1e100, 1.0, -1e100]) == 0.0
    assert stats.ordered_sum([]) == 0


def test_nps_scores():
    scores = stats.nps({"geo": 0.2, "dw": 0.1, "bb": 0.4})
    assert scores == {"geo": 2.0, "dw": 1.0, "bb": 4.0}
    assert stats.nps({"a": 0.0, "b": 0.0}) == {"a": 1.0, "b": 1.0}
    mixed = stats.nps({"a": 0.0, "b": 0.3})
    assert mixed["a"] == 1.0 and math.isinf(mixed["b"])
    assert stats.nps({}) == {}
    with pytest.raises(DomainError):
        stats.nps({"a": -0.1, "b": 0.2})


def test_nps_overflow_saturates_and_only_zero_gives_infinity():
    scores = stats.nps({"geometric": 5e-324, "beta_binomial": 0.3})
    assert scores == {"geometric": 1.0, "beta_binomial": sys.float_info.max}
    tiny = 1e-310  # subnormal: 1 over it overflows
    scores = stats.nps({"a": tiny, "b": 2 * tiny, "c": 1.0})
    assert scores["b"] == 2.0 and scores["c"] == sys.float_info.max
    assert math.isinf(stats.nps({"a": 0.0, "b": 5e-324})["b"])


def test_nps_best_is_exactly_one():
    rng = random.Random(31)
    for _ in range(200):
        errors = {f"f{i}": rng.random() + 1e-9 for i in range(5)}
        scores = stats.nps(errors)
        best = min(errors, key=errors.get)
        assert scores[best] == 1.0
        assert all(v >= 1.0 for v in scores.values())


# --- Welch ---

def test_welch_reference_case():
    r = stats.welch_t_test([1.0, 2.0, 3.0], [4.0, 5.0, 6.0])
    assert r.statistic == pytest.approx(-3.674, abs=1e-3)
    assert r.df == pytest.approx(4.0, abs=1e-3)
    assert r.p_value == pytest.approx(0.0213, abs=5e-4)
    assert r.statistic == pytest.approx(-3.6742346141747673, rel=1e-12)
    assert r.p_value == pytest.approx(0.021311641128756775, rel=1e-10)


def test_welch_one_tailed_is_half():
    two = stats.welch_t_test([1.0, 2.0, 3.0], [4.0, 5.0, 6.0])
    one = stats.welch_t_test([1.0, 2.0, 3.0], [4.0, 5.0, 6.0], tails="one")
    assert one.p_value == pytest.approx(two.p_value / 2.0, rel=1e-14)
    assert one.statistic == two.statistic


def test_welch_symmetric_samples():
    r = stats.welch_t_test([1.0, 2.0, 3.0], [3.0, 2.0, 1.0])
    assert r.statistic == 0.0
    assert r.p_value == 1.0


def test_welch_antisymmetry():
    a = [1.0, 2.5, 3.0, 4.2]
    b = [2.0, 2.2, 5.1]
    ab = stats.welch_t_test(a, b)
    ba = stats.welch_t_test(b, a)
    assert ab.statistic == pytest.approx(-ba.statistic, rel=1e-14)
    assert ab.p_value == pytest.approx(ba.p_value, rel=1e-14)
    assert ab.df == pytest.approx(ba.df, rel=1e-14)


def test_welch_degenerate_and_errors():
    r = stats.welch_t_test([2.0, 2.0], [2.0, 2.0])
    assert r.degenerate and r.p_value == 1.0 and r.statistic == 0.0
    with pytest.raises(ZeroVariance):
        stats.welch_t_test([2.0, 2.0], [3.0, 3.0])
    with pytest.raises(InsufficientData):
        stats.welch_t_test([1.0], [2.0, 3.0])
    with pytest.raises(DomainError, match="second sample"):
        stats.welch_t_test([1.0, 2.0], [1.0, math.inf])
    with pytest.raises(DomainError, match="first sample"):
        stats.welch_t_test([math.nan, 2.0], [1.0, 3.0])
    with pytest.raises(DomainError, match="overflows"):
        stats.welch_t_test([1.1e307, 1.0, 2.0], [1.0, 2.0, 3.0])
    with pytest.raises(DomainError, match="overflows"):
        stats.welch_t_test([sys.float_info.max] * 3, [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        stats.welch_t_test([1.0, 2.0], [3.0, 4.0], tails="both")


_finite = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=300, deadline=None)
@given(c=_finite, d=_finite, n=st.integers(2, 6), m=st.integers(2, 6))
@example(c=0.1, d=0.2, n=3, m=3)
@example(c=0.1, d=0.1, n=3, m=3)
@example(c=6.9e16, d=0.0, n=5, m=2)
@example(c=sys.float_info.max, d=sys.float_info.max, n=2, m=2)
def test_welch_constant_samples(c, d, n, m):
    # a constant sample has variance exactly 0, whatever its value
    if c == d:
        r = stats.welch_t_test([c] * n, [d] * m)
        assert r.degenerate and r.statistic == 0.0 and r.p_value == 1.0
    else:
        with pytest.raises(ZeroVariance):
            stats.welch_t_test([c] * n, [d] * m)


@settings(max_examples=300, deadline=None)
@given(a=st.lists(_finite, min_size=2, max_size=8),
       b=st.lists(_finite, min_size=2, max_size=8))
def test_welch_any_finite_samples(a, b):
    try:
        r = stats.welch_t_test(a, b)
    except (DomainError, ZeroVariance, InsufficientData):
        return
    assert math.isfinite(r.statistic) and math.isfinite(r.df)
    assert 0.0 <= r.p_value <= 1.0


# --- chi-square uniformity ---

def test_chi_square_reference_case():
    r = stats.chi_square_uniformity([0.2] + [0.1] * 9)
    assert r.statistic == pytest.approx(8.1818, abs=5e-4)
    assert r.df == 9.0
    assert r.p_value == pytest.approx(0.5158, abs=1e-3)
    assert r.statistic == pytest.approx(90.0 / 11.0, rel=1e-14)
    assert r.p_value == pytest.approx(0.5159324048536893, rel=1e-10)


def test_chi_square_uniform_input_is_no_evidence():
    r = stats.chi_square_uniformity([0.3] * 10)
    assert r.statistic == 0.0
    assert r.p_value == 1.0


def test_chi_square_skew_grows_statistic():
    mild = stats.chi_square_uniformity([0.15] * 5 + [0.1] * 5)
    wild = stats.chi_square_uniformity([0.9] + [0.05] * 9)
    assert wild.statistic > mild.statistic
    assert wild.p_value < mild.p_value


def test_chi_square_permutation_invariant():
    ratios = [0.21, 0.1, 0.33, 0.08, 0.15, 0.4, 0.05, 0.12, 0.3, 0.26]
    base = stats.chi_square_uniformity(ratios)
    rng = random.Random(32)
    for _ in range(5):
        shuffled = ratios[:]
        rng.shuffle(shuffled)
        r = stats.chi_square_uniformity(shuffled)
        assert r.statistic == pytest.approx(base.statistic, rel=1e-14)


def test_chi_square_rounding_half_away_from_zero():
    # 0.125 * 100 = 12.5 rounds to 13, not 12
    r = stats.chi_square_uniformity([0.125] + [0.1] * 9)
    expected = (13 + 90) / 10.0
    assert r.statistic == pytest.approx(
        ((13 - expected) ** 2 + 9 * (10 - expected) ** 2) / expected)


def test_chi_square_errors():
    with pytest.raises(stats.VectorLengthMismatch):
        stats.chi_square_uniformity([0.1] * 9)
    with pytest.raises(AllZero):
        stats.chi_square_uniformity([0.001] * 10)
    with pytest.raises(DomainError):
        stats.chi_square_uniformity([1.2] + [0.1] * 9)
