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
"""

from __future__ import annotations

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


def _dw_nll(truncated: bool, w, n: int, z0: float, z1: float) -> float:
    # q = sigmoid(z0); ln q written via log1p for accuracy near q = 1
    lq = -math.log1p(_exp(-z0))
    beta = _exp(z1)
    if not lq < 0.0 or lq == -_INF or not math.isfinite(beta):
        return _INF
    nll = 0.0
    mass = 0.0
    prev = 1.0  # survival q^((i-1)^beta) at i = 1
    for i in range(1, n + 1):
        e = _pow(float(i), beta) * lq
        cur = _exp(e) if e <= 0.0 else _INF
        p = prev - cur
        prev = cur
        if truncated:
            mass += p
        wi = w[i - 1]
        if wi != 0.0:
            if not p > 0.0:
                return _INF
            nll -= wi * math.log(p)
    if truncated:
        if not mass > 0.0:
            return _INF
        sumw = 0.0
        for i in range(n):
            sumw += w[i]
        nll += math.log(mass) * sumw
    if nll != nll:
        return _INF
    return nll


def _bb_nll(truncated: bool, w, n: int, z0: float, z1: float) -> float:
    alpha = _exp(z0)
    beta = _exp(z1)
    if not (math.isfinite(alpha) and math.isfinite(beta)):
        return _INF
    if alpha <= 0.0 or beta <= 0.0:
        return _INF
    nb = float(n - 1)
    lbab = _lgamma(alpha) + _lgamma(beta) - _lgamma(alpha + beta)
    lgn1 = _lgamma(nb + 1.0)
    lgden = _lgamma(nb + alpha + beta)
    if not (math.isfinite(lbab) and math.isfinite(lgden)):
        return _INF
    nll = 0.0
    mass = 0.0
    for i in range(1, n + 1):
        x = float(i - 1)
        lp = (lgn1 - _lgamma(x + 1.0) - _lgamma(nb - x + 1.0)
              + _lgamma(x + alpha) + _lgamma(nb - x + beta) - lgden - lbab)
        if truncated:
            mass += _exp(lp)
        wi = w[i - 1]
        if wi != 0.0:
            nll -= wi * lp
    if truncated:
        if not mass > 0.0:
            return _INF
        sumw = 0.0
        for i in range(n):
            sumw += w[i]
        nll += math.log(mass) * sumw
    if nll != nll:
        return _INF
    return nll


def _pow_sse(w, n: int, z0: float, z1: float) -> float:
    k = _exp(z0)
    if not math.isfinite(k):
        return _INF
    sse = 0.0
    for i in range(1, n + 1):
        denom = _pow(float(i), z1)
        if denom == 0.0:  # tick**exponent underflowed
            return _INF
        diff = w[i - 1] - k / denom
        sse += diff * diff
    if sse != sse:
        return _INF
    return sse


def objective(kind: int, truncated: bool, w, z0: float, z1: float) -> float:
    """Evaluate one objective; non-finite regions come back as +inf."""
    n = len(w)
    if kind == KIND_DW:
        return _dw_nll(truncated, w, n, z0, z1)
    if kind == KIND_BB:
        return _bb_nll(truncated, w, n, z0, z1)
    if kind == KIND_POW:
        return _pow_sse(w, n, z0, z1)
    raise ValueError(f"unknown objective kind {kind}")


def minimize(kind: int, truncated: bool, w, z0: float, z1: float,
             step: float = 0.25, tol: float = 1e-8,
             max_iter: int = 10000) -> tuple[float, float, float, int, bool]:
    """Nelder-Mead descent from (z0, z1); returns (z0*, z1*, f*, iters, ok).

    Standard reflect/expand/contract/shrink coefficients (1, 2, 0.5,
    0.5).  Converged means the simplex diameter in the transformed
    coordinates fell below ``tol`` within ``max_iter`` iterations.
    """
    n = len(w)
    if kind == KIND_DW:
        fn = lambda a, b: _dw_nll(truncated, w, n, a, b)
    elif kind == KIND_BB:
        fn = lambda a, b: _bb_nll(truncated, w, n, a, b)
    elif kind == KIND_POW:
        fn = lambda a, b: _pow_sse(w, n, a, b)
    else:
        raise ValueError(f"unknown objective kind {kind}")

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
