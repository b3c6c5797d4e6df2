"""Model comparison metrics and the statistical tests behind them.

Log-gamma is the standard library's ``math.lgamma``, the routine the
fit kernels use.  The regularized incomplete beta behind Welch's test is
implemented here rather than imported, so the test p-values have no
numerical dependency outside the standard library: a continued fraction
in the modified Lentz scheme, split at x < (a+1)/(a+b+2).  The
chi-square tail at integer degrees of freedom is a finite sum in closed
form.  Measured against mpmath, the chi-square tail holds to about
1e-13 relative down to 1e-290, and the two-tailed Student-t tail at df
from 1 to 200 to about 2e-12 relative for every finite t, down to
1e-290: it takes the incomplete beta at df / (df + t*t) or its
complement at t*t / (df + t*t), whichever needs no subtraction.

Welch's test calls a sample constant when its values are all equal,
not when its variance rounds to 0, and takes each sample's mean and
variance from ``statistics``: exact rational sums rounded once.

Float sums go through ``ordered_sum``, which adds left to right with
one rounding per term.  From Python 3.12 the built-in ``sum`` of floats
is compensated and rounds differently, so the written scores and
statistics would depend on the interpreter.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple

from lobfit.errors import (
    AllZero,
    DomainError,
    InsufficientData,
    VectorLengthMismatch,
    ZeroVariance,
)

__all__ = [
    "VectorLengthMismatch",
    "TestResult",
    "ln_beta",
    "reg_inc_beta",
    "student_t_sf2",
    "chi_square_sf",
    "ordered_sum",
    "l1_error",
    "nps",
    "welch_t_test",
    "chi_square_uniformity",
]


_EPS = 1e-15
_MAX_ITER = 300


def ln_beta(u: float, v: float) -> float:
    """ln B(u, v) = ln Gamma(u) + ln Gamma(v) - ln Gamma(u + v)."""
    return math.lgamma(u) + math.lgamma(v) - math.lgamma(u + v)


def _beta_cf(a: float, b: float, x: float) -> float:
    # modified Lentz evaluation of the incomplete beta continued fraction
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < 1e-300:
        d = 1e-300
    d = 1.0 / d
    h = d
    for m in range(1, _MAX_ITER + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < 1e-300:
            d = 1e-300
        c = 1.0 + aa / c
        if abs(c) < 1e-300:
            c = 1e-300
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < 1e-300:
            d = 1e-300
        c = 1.0 + aa / c
        if abs(c) < 1e-300:
            c = 1e-300
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            return h
    raise DomainError(f"incomplete beta fraction stalled at a={a} b={b} x={x}")


def reg_inc_beta(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b) for a, b > 0, 0 <= x <= 1."""
    if not (a > 0.0 and b > 0.0):
        raise DomainError(f"reg_inc_beta requires a, b > 0, got {a}, {b}")
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"reg_inc_beta requires 0 <= x <= 1, got {x}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    front = math.exp(a * math.log(x) + b * math.log1p(-x) - ln_beta(a, b))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cf(a, b, x) / a
    return 1.0 - front * _beta_cf(b, a, 1.0 - x) / b


def student_t_sf2(t: float, df: float) -> float:
    """Two-tailed Student-t survival probability P(|T| >= |t|)."""
    if not df > 0.0:
        raise DomainError(f"student_t_sf2 requires df > 0, got {df}")
    if math.isinf(t):
        return 0.0
    if t == 0.0:
        return 1.0
    a = 0.5 * df
    tt = t * t
    if tt > 1e17 * df:
        # x = df / (df + t*t) is below 1e-17, where the continued
        # fraction and (1 - x)^0.5 round to 1; ln x is taken without
        # forming x, which for df < 2 leaves the float range first
        ln_x = math.log(df) - 2.0 * math.log(abs(t)) - math.log1p(df / t / t)
        return math.exp(a * ln_x - ln_beta(a, 0.5)) / a
    x = df / (df + tt)
    # each side of reg_inc_beta's own split at b = 1/2 gets the argument
    # it takes without a subtraction: 1 - x would lose a small t*t
    if x < (a + 1.0) / (a + 2.5):
        return reg_inc_beta(a, 0.5, x)
    return 1.0 - reg_inc_beta(0.5, a, tt / (df + tt))


def chi_square_sf(x: float, df: float) -> float:
    """Upper-tail chi-square probability P(X >= x) for an integer df >= 1.

    With h = x/2 the tail is a finite sum (Abramowitz & Stegun 1964,
    26.4.4 and 26.4.5): sum_{j < df/2} e^-h h^j / j! for even df, and
    erfc(sqrt h) + sum_{j < (df-1)/2} e^-h h^(j+1/2) / Gamma(j + 3/2)
    for odd df.  Each term is taken as exp of its logarithm, so no term
    underflows before the tail itself does, and the terms are added
    left to right.  A non-integer df, a df below 1, and a negative or
    non-finite x raise DomainError.
    """
    if not (df >= 1.0 and float(df).is_integer()):
        raise DomainError(
            f"chi_square_sf requires an integer df >= 1, got {df}")
    if not 0.0 <= x < math.inf:
        raise DomainError(f"chi_square_sf requires finite x >= 0, got {x}")
    h = 0.5 * x
    if h == 0.0:
        return 1.0
    ln_h = math.log(h)
    half = 0.5 * (int(df) % 2)
    total = math.erfc(math.sqrt(h)) if half else 0.0
    for j in range(int(df) // 2):
        total += math.exp((j + half) * ln_h - h - math.lgamma(j + half + 1.0))
    return total


def ordered_sum(values) -> float:
    """The float sum of ``values`` added left to right, as the built-in
    ``sum`` adds floats before Python 3.12."""
    total = 0
    for value in values:
        total += value
    return total


# --- model comparison metrics ---

def l1_error(observed, fitted) -> float:
    """Sum of absolute per-tick differences between two densities."""
    if len(observed) != len(fitted):
        raise VectorLengthMismatch(
            f"{len(observed)} vs {len(fitted)} entries")
    return ordered_sum(abs(a - b) for a, b in zip(observed, fitted))


def nps(errors: dict[str, float]) -> dict[str, float]:
    """Normalized performance score: each error over the smallest one.

    The best family scores exactly 1.  If every error is zero all
    families score 1; a zero error alongside nonzero ones maps the
    nonzero families to infinity.  Only a smallest error of exactly 0
    gives infinity: a quotient that overflows, as over a subnormal
    smallest error, saturates at ``sys.float_info.max``.
    """
    if not errors:
        return {}
    smallest = min(errors.values())
    if smallest < 0.0:
        raise DomainError("errors must be nonnegative")
    out = {}
    for name, err in errors.items():
        if err == smallest:
            out[name] = 1.0
        elif smallest == 0.0:
            out[name] = math.inf
        else:
            out[name] = min(err / smallest, sys.float_info.max)
    return out


class TestResult(NamedTuple):
    statistic: float
    df: float
    p_value: float
    degenerate: bool = False


def welch_t_test(a, b, tails: str = "two") -> TestResult:
    """Welch's unequal-variance t-test on two samples.

    Two-tailed by default; tails="one" reports the single-tail
    probability in the direction of the observed statistic.  When both
    samples are constant with equal means the comparison is vacuous:
    the result is t=0, p=1, flagged degenerate.  Constant samples with
    different means leave t undefined and raise ZeroVariance.  Constant
    means every value equal, whatever the variance rounds to.
    A non-finite value in either sample, or an int past the float
    range, raises DomainError naming the sample, and so do finite
    samples whose moments or t leave the float range, or whose standard
    error underflows to 0.  Neither t nor df depends on scale: samples
    below 1/2 in magnitude are scaled up by a power of two before their
    moments are taken, and df is formed from sa, sb scaled by another.
    """
    if tails not in ("one", "two"):
        raise ValueError(f"tails must be 'one' or 'two', got {tails!r}")
    if len(a) < 2 or len(b) < 2:
        raise InsufficientData("each sample needs at least two values")
    for name, sample in (("first", a), ("second", b)):
        try:
            finite = all(math.isfinite(v) for v in sample)
        except OverflowError:
            raise DomainError(
                f"{name} sample holds a value outside the float range"
            ) from None
        if not finite:
            raise DomainError(f"{name} sample holds a non-finite value")
    if min(a) == max(a) and min(b) == max(b):
        if a[0] == b[0]:
            df = float(len(a) + len(b) - 2)
            return TestResult(0.0, df, 1.0, degenerate=True)
        raise ZeroVariance("both samples constant with different means")
    import statistics

    # scaling tiny samples up exactly keeps their variances out of the
    # subnormal range, where they would lose digits
    _, e = math.frexp(max(map(abs, (*a, *b))))
    if e < 0:
        a = [math.ldexp(v, -e) for v in a]
        b = [math.ldexp(v, -e) for v in b]
    try:
        mean_a, var_a = statistics.mean(a), statistics.variance(a)
        mean_b, var_b = statistics.mean(b), statistics.variance(b)
        sa = var_a / len(a)
        sb = var_b / len(b)
        se = math.sqrt(sa + sb)
        if se == 0.0:
            # variances of a subnormal spread round to 0
            raise DomainError("welch standard error underflows")
        t = (mean_a - mean_b) / se
    except OverflowError:
        raise DomainError("welch t-test arithmetic overflows") from None
    if not math.isfinite(t):
        raise DomainError("welch t-test arithmetic overflows")
    _, e = math.frexp(max(sa, sb))
    sa, sb = math.ldexp(sa, -e), math.ldexp(sb, -e)
    df = (sa + sb) ** 2 / (sa * sa / (len(a) - 1) + sb * sb / (len(b) - 1))
    p = student_t_sf2(t, df)
    if tails == "one":
        p *= 0.5
    return TestResult(t, df, p)


def _round_half_away(value: float) -> int:
    if value < 0.0:
        return -int(math.floor(-value + 0.5))
    return int(math.floor(value + 0.5))


def chi_square_uniformity(ratios) -> TestResult:
    """Test whether per-tick cancellation ratios are uniform over ticks.

    Ratios are scaled by 100 and rounded half away from zero to pseudo
    counts; the expected count is their mean, giving 9 degrees of
    freedom over the 10 ticks.
    """
    if len(ratios) != 10:
        raise VectorLengthMismatch(
            f"expected 10 ratios, got {len(ratios)}")
    for r in ratios:
        if not 0.0 <= r <= 1.0:
            raise DomainError(f"ratio {r} outside [0, 1]")
    observed = [_round_half_away(100.0 * r) for r in ratios]
    total = sum(observed)
    if total == 0:
        raise AllZero("all ratios rounded to zero counts")
    expected = total / 10.0
    statistic = ordered_sum((o - expected) ** 2 for o in observed) / expected
    df = 9.0
    return TestResult(statistic, df, chi_square_sf(statistic, df))
