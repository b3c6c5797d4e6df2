"""Fit kernels: weighted objectives and a 2-D simplex search.

Objective kinds (parameter transforms keep the search unconstrained):

* 0  discrete Weibull weighted negative log-likelihood over ticks
     1..n; z0 is the log-odds of q, z1 is ln(beta)
* 1  beta-binomial weighted negative log-likelihood on x = tick-1 with
     binomial parameter n-1; z0 = ln(alpha), z1 = ln(beta)
* 2  power-law sum of squared residuals against the weights;
     z0 = ln(k), z1 = alpha (untransformed)

``truncated`` renormalizes the likelihood mass over the tick window
before taking logs (a no-op for the power law, and numerically almost
one for the beta-binomial whose support already is the window).

Objectives never raise on arithmetic: overflow, underflow into a
division and NaN all come back as +inf, which the simplex treats as
an infeasible point.

Each evaluation does only the work that depends on (z0, z1).  What
depends on the tick index alone is built once per window length and
cached: the float ticks, and for the beta-binomial each x = tick - 1
with its log binomial coefficient ln C(nb, x), nb = n - 1.  Per
evaluation the beta-binomial takes ln Gamma(x + alpha) and
ln Gamma(x + beta) in one pass each; ln Gamma(alpha) and
ln Gamma(beta) are their x = 0 entries, and ln Gamma(nb - x + beta)
is the second pass read backwards.  The result is the same float, bit
for bit, as evaluating every term per tick: each term comes from the
same expression on the same operands (nb - x is an exact
integer-valued float, and 0.0 + alpha == alpha), terms are summed in
the same left-to-right order, and the overflow shortcuts below fire
only where the per-tick form returned +inf as well.
"""

from __future__ import annotations

import functools
import math

BACKEND = "python"  # name of this kernel, for run records

_INF = math.inf
_EXP_CAP = 709.0  # exp() overflow threshold

KIND_DW = 0
KIND_BB = 1
KIND_POW = 2


def _exp(v: float) -> float:
    if v > _EXP_CAP:
        return _INF
    return math.exp(v)


def _pow(base: float, exponent: float) -> float:
    try:
        return math.pow(base, exponent)
    except OverflowError:
        return _INF


def _lgamma(v: float) -> float:
    try:
        return math.lgamma(v)
    except OverflowError:
        return _INF


@functools.cache
def _ticks(n: int) -> tuple[float, ...]:
    """The ticks 1..n as floats."""
    return tuple(float(i) for i in range(1, n + 1))


@functools.cache
def _bb_terms(n: int) -> tuple[float, tuple, tuple]:
    """nb = n - 1, then x = 0..nb and ln C(nb, x), as floats."""
    nb = float(n - 1)
    lgn1 = _lgamma(nb + 1.0)
    xs = tuple(float(x) for x in range(n))
    return nb, xs, tuple(lgn1 - _lgamma(x + 1.0) - _lgamma(nb - x + 1.0)
                         for x in xs)


def _powers(ticks, exponent: float) -> list[float]:
    """tick**exponent for each tick, +inf where it overflows."""
    try:
        return [math.pow(t, exponent) for t in ticks]
    except OverflowError:
        return [_pow(t, exponent) for t in ticks]


def _dw_nll(truncated: bool, w, ticks, z0: float, z1: float) -> float:
    # q = sigmoid(z0); ln q written via log1p for accuracy near q = 1
    lq = -math.log1p(_exp(-z0))
    beta = _exp(z1)
    if not lq < 0.0 or lq == -_INF or not math.isfinite(beta):
        return _INF
    nll = 0.0
    mass = 0.0
    prev = 1.0  # survival q^((i-1)^beta) at i = 1
    for power, wi in zip(_powers(ticks, beta), w):
        # tick**beta >= 1 and ln q < 0, so the exponent is <= 0 (never
        # NaN): exp() neither overflows nor reaches the _exp cap
        cur = math.exp(power * lq)
        p = prev - cur
        prev = cur
        if truncated:
            mass += p
        if wi != 0.0:
            if not p > 0.0:
                return _INF
            nll -= wi * math.log(p)
    if truncated:
        if not mass > 0.0:
            return _INF
        sumw = 0.0
        for wi in w:
            sumw += wi
        nll += math.log(mass) * sumw
    if nll != nll:
        return _INF
    return nll


def _bb_nll(truncated: bool, w, terms, z0: float, z1: float) -> float:
    alpha = _exp(z0)
    beta = _exp(z1)
    if not (math.isfinite(alpha) and math.isfinite(beta)):
        return _INF
    if alpha <= 0.0 or beta <= 0.0:
        return _INF
    nb, xs, lchoose = terms
    try:
        la = [math.lgamma(x + alpha) for x in xs]
        lb = [math.lgamma(x + beta) for x in xs]
    except OverflowError:
        # only alpha or beta >= ~2.5e305 gets here; then ln Gamma of
        # alpha + beta or of nb + alpha + beta overflows too, and lbab
        # or lgden below would not be finite
        return _INF
    lbab = la[0] + lb[0] - _lgamma(alpha + beta)
    lgden = _lgamma(nb + alpha + beta)
    if not (math.isfinite(lbab) and math.isfinite(lgden)):
        return _INF
    nll = 0.0
    mass = 0.0
    # lb read backwards is ln Gamma(nb - x + beta)
    for lc, lgx, lgr, wi in zip(lchoose, la, reversed(lb), w):
        lp = lc + lgx + lgr - lgden - lbab
        if truncated:
            mass += _exp(lp)
        if wi != 0.0:
            nll -= wi * lp
    if truncated:
        if not mass > 0.0:
            return _INF
        sumw = 0.0
        for wi in w:
            sumw += wi
        nll += math.log(mass) * sumw
    if nll != nll:
        return _INF
    return nll


def _pow_sse(w, ticks, z0: float, z1: float) -> float:
    k = _exp(z0)
    if not math.isfinite(k):
        return _INF
    sse = 0.0
    for denom, wi in zip(_powers(ticks, z1), w):
        if denom == 0.0:  # tick**exponent underflowed
            return _INF
        diff = wi - k / denom
        sse += diff * diff
    if sse != sse:
        return _INF
    return sse


def _bind(kind: int, truncated: bool, w):
    """The objective of ``kind`` on weights ``w`` as a function of (z0, z1)."""
    n = len(w)
    if kind == KIND_DW:
        return functools.partial(_dw_nll, truncated, w, _ticks(n))
    if kind == KIND_BB:
        return functools.partial(_bb_nll, truncated, w, _bb_terms(n))
    if kind == KIND_POW:
        return functools.partial(_pow_sse, w, _ticks(n))
    raise ValueError(f"unknown objective kind {kind}")


def objective(kind: int, truncated: bool, w, z0: float, z1: float) -> float:
    """Evaluate one objective; non-finite regions come back as +inf."""
    return _bind(kind, truncated, w)(z0, z1)


def minimize(kind: int, truncated: bool, w, z0: float, z1: float,
             step: float = 0.25, tol: float = 1e-8,
             max_iter: int = 10000) -> tuple[float, float, float, int, bool]:
    """Nelder-Mead descent from (z0, z1); returns (z0*, z1*, f*, iters, ok).

    Standard reflect/expand/contract/shrink coefficients (1, 2, 0.5,
    0.5).  Converged means the simplex diameter in the transformed
    coordinates fell below ``tol`` within ``max_iter`` iterations.
    """
    fn = _bind(kind, truncated, w)

    x0, y0 = z0, z1
    x1, y1 = z0 + step, z1
    x2, y2 = z0, z1 + step
    f0 = fn(x0, y0)
    f1 = fn(x1, y1)
    f2 = fn(x2, y2)

    iterations = 0
    converged = False
    while True:
        # stable 3-element insertion sort: best first
        if f1 < f0:
            x0, y0, f0, x1, y1, f1 = x1, y1, f1, x0, y0, f0
        if f2 < f1:
            x1, y1, f1, x2, y2, f2 = x2, y2, f2, x1, y1, f1
            if f1 < f0:
                x0, y0, f0, x1, y1, f1 = x1, y1, f1, x0, y0, f0
        diam = abs(x1 - x0)
        d = abs(y1 - y0)
        if d > diam:
            diam = d
        d = abs(x2 - x0)
        if d > diam:
            diam = d
        d = abs(y2 - y0)
        if d > diam:
            diam = d
        if diam < tol:
            converged = True
            break
        if iterations >= max_iter:
            break
        iterations += 1

        cx = 0.5 * (x0 + x1)
        cy = 0.5 * (y0 + y1)
        rx = cx + (cx - x2)
        ry = cy + (cy - y2)
        fr = fn(rx, ry)
        if fr < f0:
            ex = cx + 2.0 * (cx - x2)
            ey = cy + 2.0 * (cy - y2)
            fe = fn(ex, ey)
            if fe < fr:
                x2, y2, f2 = ex, ey, fe
            else:
                x2, y2, f2 = rx, ry, fr
        elif fr < f1:
            x2, y2, f2 = rx, ry, fr
        else:
            if fr < f2:
                ox = cx + 0.5 * (rx - cx)
                oy = cy + 0.5 * (ry - cy)
                fo = fn(ox, oy)
                if fo <= fr:
                    x2, y2, f2 = ox, oy, fo
                else:
                    x1, y1 = x0 + 0.5 * (x1 - x0), y0 + 0.5 * (y1 - y0)
                    x2, y2 = x0 + 0.5 * (x2 - x0), y0 + 0.5 * (y2 - y0)
                    f1 = fn(x1, y1)
                    f2 = fn(x2, y2)
            else:
                ix = cx + 0.5 * (x2 - cx)
                iy = cy + 0.5 * (y2 - cy)
                fi = fn(ix, iy)
                if fi < f2:
                    x2, y2, f2 = ix, iy, fi
                else:
                    x1, y1 = x0 + 0.5 * (x1 - x0), y0 + 0.5 * (y1 - y0)
                    x2, y2 = x0 + 0.5 * (x2 - x0), y0 + 0.5 * (y2 - y0)
                    f1 = fn(x1, y1)
                    f2 = fn(x2, y2)
    return x0, y0, f0, iterations, converged
