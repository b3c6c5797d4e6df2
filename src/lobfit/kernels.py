"""Fit kernels: weighted objectives and a 2-D simplex search.

Objective kinds (parameter transforms keep the search unconstrained):

* 0  discrete Weibull weighted negative log-likelihood over ticks
     1..n; z0 is the log-odds of q, z1 is ln(beta)
* 1  beta-binomial weighted negative log-likelihood on x = tick-1 with
     binomial parameter n-1; z0 = ln(alpha), z1 = ln(beta)
* 2  power-law sum of squared residuals against the weights;
     z0 = ln(k), z1 = alpha (untransformed)

``truncated`` conditions the likelihood on the tick window: the Weibull
adds sum(w) ln(1 - q^(n^beta)) in closed form, while the beta-binomial,
whose support is the window, and the power law have nothing to add.
``dw_masses`` and ``bb_log_masses`` give the curves the very cells the
objectives weight.

Objectives never raise on arithmetic: overflow, underflow into a
division and NaN all come back as +inf, which the simplex treats as
an infeasible point.

Each evaluation is one pass over per-tick rows and does only the work
that depends on (z0, z1).  What depends on the tick index alone is
built once per window length and cached: the float ticks, and for the
beta-binomial each x = tick - 1 with nb - x and its log binomial
coefficient ln C(nb, x), nb = n - 1.  ``bind`` joins those with the
weights once, into rows (tick, w) for the Weibull and the power law and
(ln C(nb, x), x, nb - x, w) for the beta-binomial, so an evaluation is
one ``for`` over a tuple.  The beta-binomial keeps only its
nonzero-weight rows: it skips the ln Gamma terms of zero-weight ticks,
which the per-tick form computed and then dropped.  The result is the
same float, bit for bit, as evaluating every term per tick through
overflow-guarding wrappers: each term comes from the same expression on
the same operands (``t ** e`` calls the C ``pow`` that ``math.pow``
does, and ln Gamma(0.0 + alpha) is ln Gamma(alpha)), terms are summed
in the same left-to-right order, a power that overflows becomes +inf at
that tick alone, and the overflow shortcuts below fire only where the
per-tick form returned +inf as well.

The Weibull pass tests nothing per tick: it takes ln(prev - cur) of
every cell, zero weights included, and falls back to a checked pass
over ``dw_masses`` as soon as ``t ** beta`` overflows or a cell's mass
is not positive, which is where the two could differ.  Both give the
same float, bit for bit.

The simplex keeps its three vertices sorted best first.  A reflect,
expand or contract step replaces only the worst vertex, so only that
one is re-inserted; the full sort runs at the start and after a shrink.

A multi-start fit binds its objective once, probes each start with the
bound function, and hands both the function and the probe's value to
``minimize``, which takes them as its first vertex instead of binding
and evaluating the start again.
"""

from __future__ import annotations

import functools
from math import exp, expm1, fsum, inf as _INF, isfinite, lgamma, log, log1p

BACKEND = "python"  # name of this kernel, for run records

_EXP_CAP = 709.0  # exp() overflow threshold
_LN_HALF = log(0.5)

KIND_DW = 0
KIND_BB = 1
KIND_POW = 2

# simplex search: initial side, convergence diameter, iteration cap
_STEP = 0.25
_TOL = 1e-8
_MAX_ITER = 10000


@functools.cache
def _ticks(n: int) -> tuple[float, ...]:
    """The ticks 1..n as floats."""
    return tuple(float(i) for i in range(1, n + 1))


@functools.cache
def _bb_terms(n: int) -> tuple[float, tuple]:
    """nb = n - 1, then (ln C(nb, x), x, nb - x) for x = 0..nb, as floats."""
    nb = float(n - 1)
    lgn1 = lgamma(nb + 1.0)
    return nb, tuple(
        (lgn1 - lgamma(x + 1.0) - lgamma(nb - x + 1.0), x, nb - x)
        for x in map(float, range(n)))


def dw_masses(lq: float, beta: float, n: int) -> list[float]:
    """The discrete Weibull's masses on ticks 1..n at ln q = ``lq``:
    the drops in survival q^(t^beta), where a power that overflows is
    +inf and its survival 0.0."""
    out = []
    prev = 1.0  # survival q^((t-1)^beta) at t = 1
    for t in _ticks(n):
        try:
            power = t ** beta
        except OverflowError:
            power = _INF
        cur = exp(power * lq)
        out.append(prev - cur)
        prev = cur
    return out


def _dw_nll(sumw, rows, z0: float, z1: float) -> float:
    # q = sigmoid(z0); ln q written via log1p for accuracy near q = 1
    lq = -log1p(_INF if -z0 > _EXP_CAP else exp(-z0))
    beta = _INF if z1 > _EXP_CAP else exp(z1)
    if not lq < 0.0 or lq == -_INF or not isfinite(beta):
        return _INF
    # tick**beta >= 1 and ln q < 0, so exp() below gets an exponent
    # <= 0 (never NaN) and neither overflows nor reaches the cap.  While
    # every power is finite and every cell has mass, a zero weight
    # subtracts a signed zero, which leaves the sum (never -0.0) as it
    # is; otherwise the checked pass gives +inf only where a cell
    # without mass has a nonzero weight
    nll = 0.0
    prev = 1.0  # survival q^((i-1)^beta) at i = 1
    try:
        for t, wi in rows:
            cur = exp(t ** beta * lq)
            nll -= wi * log(prev - cur)
            prev = cur
    except (OverflowError, ValueError):
        nll = 0.0
        for p, (_, wi) in zip(dw_masses(lq, beta, len(rows)), rows):
            if wi != 0.0:
                if not p > 0.0:
                    return _INF
                nll -= wi * log(p)
    if sumw is not None:
        # ln of the window's mass 1 - e^x, x = n^beta ln q < 0, taken
        # as log1p(-e^x) where e^x < 1/2 to keep the digits near 1
        try:
            x = rows[-1][0] ** beta * lq
        except OverflowError:
            x = -_INF
        nll += (log1p(-exp(x)) if x < _LN_HALF else log(-expm1(x))) * sumw
    if nll != nll:
        return _INF
    return nll


def bb_log_masses(alpha: float, beta: float, n: int) -> list[float]:
    """The beta-binomial's log masses on ticks 1..n (x = tick - 1, n - 1
    trials); raises OverflowError past alpha or beta ~2.5e305."""
    nb, terms = _bb_terms(n)
    lbab = lgamma(alpha) + lgamma(beta) - lgamma(alpha + beta)
    lgden = lgamma(nb + alpha + beta)
    return [lc + lgamma(x + alpha) + lgamma(r + beta) - lgden - lbab
            for lc, x, r in terms]


def _bb_nll(nb: float, rows, z0: float, z1: float) -> float:
    alpha = _INF if z0 > _EXP_CAP else exp(z0)
    beta = _INF if z1 > _EXP_CAP else exp(z1)
    if not (isfinite(alpha) and isfinite(beta)):
        return _INF
    if alpha <= 0.0 or beta <= 0.0:
        return _INF
    try:
        lbab = lgamma(alpha) + lgamma(beta) - lgamma(alpha + beta)
        lgden = lgamma(nb + alpha + beta)
    except OverflowError:
        # alpha or beta >= ~2.5e305; every x + alpha and nb - x + beta
        # below is at most nb + alpha + beta, so the loop never overflows
        return _INF
    if not (isfinite(lbab) and isfinite(lgden)):
        return _INF
    nll = 0.0
    for lc, x, r, wi in rows:
        nll -= wi * (lc + lgamma(x + alpha) + lgamma(r + beta)
                     - lgden - lbab)
    if nll != nll:
        return _INF
    return nll


def _pow_sse(rows, z0: float, z1: float) -> float:
    k = _INF if z0 > _EXP_CAP else exp(z0)
    if not isfinite(k):
        return _INF
    sse = 0.0
    for t, wi in rows:
        try:
            denom = t ** z1
        except OverflowError:
            denom = _INF
        if denom == 0.0:  # tick**exponent underflowed
            return _INF
        diff = wi - k / denom
        sse += diff * diff
    if sse != sse:
        return _INF
    return sse


def bind(kind: int, truncated: bool, w):
    """The objective of ``kind`` on weights ``w`` as a function of (z0, z1).

    The per-tick rows, each holding its weight, are built here once, so
    a fit evaluates the returned function many times at no cost per
    call for the weights.  The beta-binomial's rows are its
    nonzero-weight ticks alone.  Truncated, the Weibull also binds the
    sum of the weights, which scales its window term.
    """
    n = len(w)
    if kind == KIND_DW:
        return functools.partial(_dw_nll,
                                 fsum(w) if truncated else None,
                                 tuple(zip(_ticks(n), w)))
    if kind == KIND_BB:
        nb, terms = _bb_terms(n)
        rows = tuple(row + (wi,) for row, wi in zip(terms, w) if wi != 0.0)
        return functools.partial(_bb_nll, nb, rows)
    if kind == KIND_POW:
        return functools.partial(_pow_sse, tuple(zip(_ticks(n), w)))
    raise ValueError(f"unknown objective kind {kind}")


def objective(kind: int, truncated: bool, w, z0: float, z1: float) -> float:
    """Evaluate one objective; non-finite regions come back as +inf.

    Binds on every call: code that evaluates the same weights many
    times binds once with ``bind`` instead.
    """
    return bind(kind, truncated, w)(z0, z1)


def minimize(kind: int, truncated: bool, w, z0: float, z1: float,
             fn=None, f0=None) -> tuple[float, float, float, int, bool]:
    """Nelder-Mead descent from (z0, z1); returns (z0*, z1*, f*, iters, ok).

    Standard reflect/expand/contract/shrink coefficients (1, 2, 0.5,
    0.5), from a simplex of side ``_STEP``.  Converged means the simplex
    diameter in the transformed coordinates fell below ``_TOL`` within
    ``_MAX_ITER`` iterations.

    At the top of each iteration the vertices v0, v1, v2 are in stable
    order of objective value, best first, as a three-element insertion
    sort leaves them.  A reflect, expand or contract step replaces v2
    alone and leaves v0, v1 in order, so v2 is re-inserted; a shrink
    replaces v1 and v2, and orders v1 against v0 before v2 is
    re-inserted.  The convergence test takes the edges v1 - v0 and
    v2 - v0 one coordinate at a time and stops at the first that is not
    below ``_TOL``.

    ``fn`` is the objective as ``bind(kind, truncated, w)`` returns it
    and ``f0`` its value at (z0, z1); a caller that already holds them
    passes them in, and the search neither binds nor evaluates the
    start again.  Left out, both are computed here.
    """
    if fn is None:
        fn = bind(kind, truncated, w)
    if f0 is None:
        f0 = fn(z0, z1)

    x0, y0 = z0, z1
    x1, y1 = z0 + _STEP, z1
    x2, y2 = z0, z1 + _STEP
    f1 = fn(x1, y1)
    f2 = fn(x2, y2)
    if f1 < f0:
        x0, y0, f0, x1, y1, f1 = x1, y1, f1, x0, y0, f0

    iterations = 0
    converged = False
    while True:
        # v0, v1 are in order; insert v2, the vertex the last step
        # replaced (a shrink has put its new v1 in order with v0)
        if f2 < f1:
            x1, y1, f1, x2, y2, f2 = x2, y2, f2, x1, y1, f1
            if f1 < f0:
                x0, y0, f0, x1, y1, f1 = x1, y1, f1, x0, y0, f0
        # diameter below _TOL, edge by edge: a NaN first edge fails the
        # test and a NaN later one passes it, as in a running maximum
        if (abs(x1 - x0) < _TOL and not abs(y1 - y0) >= _TOL
                and not abs(x2 - x0) >= _TOL and not abs(y2 - y0) >= _TOL):
            converged = True
            break
        if iterations >= _MAX_ITER:
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
                accept = fo <= fr
            else:
                ox = cx + 0.5 * (x2 - cx)
                oy = cy + 0.5 * (y2 - cy)
                fo = fn(ox, oy)
                accept = fo < f2
            if accept:
                x2, y2, f2 = ox, oy, fo
            else:
                x1, y1 = x0 + 0.5 * (x1 - x0), y0 + 0.5 * (y1 - y0)
                x2, y2 = x0 + 0.5 * (x2 - x0), y0 + 0.5 * (y2 - y0)
                f1 = fn(x1, y1)
                f2 = fn(x2, y2)
                if f1 < f0:
                    x0, y0, f0, x1, y1, f1 = x1, y1, f1, x0, y0, f0
    return x0, y0, f0, iterations, converged
