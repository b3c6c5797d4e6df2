import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp

from lobfit import dist, kernels
from lobfit.kernels import KIND_BB, KIND_DW, KIND_POW, minimize, objective

T = 15


def densities():
    out = [
        [1.0 / T] * T,
        dist.tick_curve(dist.DiscreteWeibull(0.7, 1.5)),
        dist.tick_curve(dist.Geometric(0.4)),
        dist.tick_curve(dist.BetaBinomial(2.0, 6.0)),
    ]
    rng = random.Random(90210)
    for _ in range(4):
        raw = [rng.random() for _ in range(T)]
        s = sum(raw)
        out.append([v / s for v in raw])
    return out


def z_points():
    return [(-1.5, -0.5), (0.0, 0.0), (0.8, 0.3), (2.0, 1.0), (-3.0, 1.2)]


def dw_nll_reference(w, z0, z1, truncated):
    q = 1.0 / (1.0 + math.exp(-z0))
    beta = math.exp(z1)
    masses = dist.DiscreteWeibull(q, beta).masses(T)
    if any(m <= 0.0 for m in masses):
        # an underflowed cell poisons the whole evaluation
        return math.inf
    ll = sum(wi * math.log(m) for wi, m in zip(w, masses))
    if truncated:
        ll -= math.log(sum(masses)) * sum(w)
    return -ll


def bb_nll_reference(w, z0, z1, truncated):
    # in 40-digit arithmetic, independent of the kernel's libm lgamma
    with mp.workdps(40):
        a, b = mp.exp(z0), mp.exp(z1)
        masses = [mp.binomial(T - 1, x) * mp.beta(x + a, T - 1 - x + b)
                  / mp.beta(a, b) for x in range(T)]
        ll = sum(wi * mp.log(m) for wi, m in zip(w, masses))
        if truncated:
            ll -= mp.log(sum(masses)) * sum(w)
        return float(-ll)


def pow_sse_reference(w, z0, z1):
    k = math.exp(z0)
    return sum((wi - k / i ** z1) ** 2 for i, wi in enumerate(w, start=1))


class TestObjectiveValues:
    def test_dw_matches_direct_pmf_computation(self):
        for w in densities():
            for z0, z1 in z_points():
                for truncated in (False, True):
                    got = objective(KIND_DW, truncated, w, z0, z1)
                    want = dw_nll_reference(w, z0, z1, truncated)
                    assert got == pytest.approx(want, rel=1e-10, abs=1e-12)

    def test_bb_matches_direct_pmf_computation(self):
        for w in densities():
            for z0, z1 in z_points():
                for truncated in (False, True):
                    got = objective(KIND_BB, truncated, w, z0, z1)
                    want = bb_nll_reference(w, z0, z1, truncated)
                    assert got == pytest.approx(want, rel=1e-9, abs=1e-11)

    def test_pow_matches_direct_sse(self):
        for w in densities():
            for z0, z1 in [(-1.0, 0.5), (-2.0, 1.4), (0.0, 0.0)]:
                got = objective(KIND_POW, False, w, z0, z1)
                assert got == pytest.approx(pow_sse_reference(w, z0, z1),
                                            rel=1e-12, abs=1e-15)

    def test_truncated_shifts_by_log_window_mass(self):
        w = dist.tick_curve(dist.DiscreteWeibull(0.8, 1.2))
        z0, z1 = 1.2, 0.1
        q = 1.0 / (1.0 + math.exp(-z0))
        beta = math.exp(z1)
        mass = sum(dist.DiscreteWeibull(q, beta).masses(T))
        plain = objective(KIND_DW, False, w, z0, z1)
        cond = objective(KIND_DW, True, w, z0, z1)
        assert cond - plain == pytest.approx(math.log(mass), abs=1e-12)

    def test_underflowed_cells_give_infinite_objective(self):
        # q near 1 with a large shape sends far-cell masses to zero
        w = [1.0 / T] * T
        assert objective(KIND_DW, False, w, 40.0, 4.0) == math.inf
        # a steep negative exponent underflows tick**exponent to 0.0
        assert objective(KIND_POW, False, w, 0.0, -1100.0) == math.inf

    def test_weights_need_not_be_normalized(self):
        w = dist.tick_curve(dist.Geometric(0.3))
        scaled = [v * 100.0 for v in w]
        a = objective(KIND_DW, False, w, 0.5, 0.2)
        b = objective(KIND_DW, False, scaled, 0.5, 0.2)
        assert b == pytest.approx(100.0 * a, rel=1e-12)


class TestMinimize:
    def test_reaches_known_optimum(self):
        w = dist.tick_curve(dist.DiscreteWeibull(0.7, 1.5))
        z0, z1, f, iters, ok = minimize(KIND_DW, False, w,
                                        math.log(0.7 / 0.3), math.log(1.5))
        assert ok
        assert 0 < iters <= 10000
        q = 1.0 / (1.0 + math.exp(-z0))
        assert q == pytest.approx(0.7, abs=1e-6)
        assert math.exp(z1) == pytest.approx(1.5, abs=1e-6)

    def test_iteration_cap_reports_no_convergence(self, monkeypatch):
        monkeypatch.setattr(kernels, "_MAX_ITER", 3)
        w = dist.tick_curve(dist.DiscreteWeibull(0.7, 1.5))
        *_, iters, ok = minimize(KIND_DW, False, w, -2.0, 1.0)
        assert not ok
        assert iters == 3

    def test_final_value_not_above_start_value(self):
        for w in densities():
            start = objective(KIND_BB, False, w, 0.5, 0.5)
            *_, f, _, _ = minimize(KIND_BB, False, w, 0.5, 0.5)
            assert f <= start + 1e-12


class TestInterface:
    def test_backend_and_kinds_are_fixed(self):
        # recorded in benchmark environment stamps and used as plain ints
        assert kernels.BACKEND == "python"
        assert (KIND_DW, KIND_BB, KIND_POW) == (0, 1, 2)


# --- per-tick oracle ---
# The kernels before the tick-only terms were hoisted out of the
# evaluation, kept verbatim: every term is evaluated per tick through
# the overflow-guarding wrappers.  The one-pass kernels must return the
# same floats bit for bit.

_INF = math.inf
_EXP_CAP = 709.0


def _exp(v):
    if v > _EXP_CAP:
        return _INF
    return math.exp(v)


def _pow(base, exponent):
    try:
        return math.pow(base, exponent)
    except OverflowError:
        return _INF


def _lgamma(v):
    try:
        return math.lgamma(v)
    except OverflowError:
        return _INF


def _dw_nll(truncated, w, n, z0, z1):
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


def _bb_nll(truncated, w, n, z0, z1):
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


def _pow_sse(w, n, z0, z1):
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


def oracle(kind, truncated, w, z0, z1):
    if kind == KIND_DW:
        return _dw_nll(truncated, w, len(w), z0, z1)
    if kind == KIND_BB:
        return _bb_nll(truncated, w, len(w), z0, z1)
    return _pow_sse(w, len(w), z0, z1)


def same_bits(a, b):
    # float.hex tells -0.0 from 0.0 and maps every NaN to "nan"
    return a.hex() == b.hex()


_WEIGHT = st.one_of(st.just(0.0), st.sampled_from([5e-324, 1e-310]),
                    st.floats(0.0, 1e6))


class TestOracleEquality:
    @settings(max_examples=1000, deadline=None)
    @given(st.sampled_from([KIND_DW, KIND_BB, KIND_POW]), st.booleans(),
           st.sampled_from([2, 15, 40]).flatmap(
               lambda n: st.lists(_WEIGHT, min_size=n, max_size=n)),
           st.floats(-800.0, 800.0), st.floats(-800.0, 800.0))
    # alpha or beta past ~2.5e305 overflows ln Gamma(alpha) or (beta)
    @example(KIND_BB, False, [1.0] * 15, 705.0, 0.0)
    @example(KIND_BB, True, [1.0] * 15, 0.0, 706.5)
    # tick**beta and tick**exponent overflow: +inf at that tick alone
    @example(KIND_DW, True, [1.0] * 15, -0.5, 7.0)
    @example(KIND_POW, False, [1.0] * 15, 0.0, 300.0)
    # beta ~ 403: 5.0**beta is 9.7e281 and 6.0**beta overflows; the
    # zero weights keep the untruncated pass going past tick 3, where
    # the survival has reached 0.0
    @example(KIND_DW, False, [1.0] * 2 + [0.0] * 13, -0.5, 6.0)
    # zero-weight ticks skip ln Gamma untruncated, not truncated
    @example(KIND_BB, False, [0.0] * 6 + [0.3, 0.0, 0.7] + [0.0] * 6,
             0.4, -0.7)
    @example(KIND_BB, True, [0.0] * 6 + [0.3, 0.0, 0.7] + [0.0] * 6,
             0.4, -0.7)
    # tick**exponent underflows to 0.0
    @example(KIND_POW, False, [1.0] * 15, 0.0, -300.0)
    def test_objective_matches_per_tick_oracle(self, kind, truncated, w,
                                               z0, z1):
        got = objective(kind, truncated, w, z0, z1)
        assert same_bits(got, oracle(kind, truncated, w, z0, z1))

    def test_minimize_matches_per_tick_oracle(self, monkeypatch):
        starts = [(-1.5, -0.5), (0.5, 0.5), (2.0, 1.0)]
        calls = {"_dw_nll": 0, "_bb_nll": 0, "_pow_sse": 0}

        # the stubs take the bound rows and evaluate the oracle on the
        # weights in them; untruncated, the beta-binomial's rows hold its
        # nonzero weights alone, so the zero-weight ticks come back from
        # the rows' x
        def dw(truncated, rows, z0, z1):
            calls["_dw_nll"] += 1
            w = [wi for _, wi in rows]
            return _dw_nll(truncated, w, len(w), z0, z1)

        def bb(truncated, nb, rows, z0, z1):
            calls["_bb_nll"] += 1
            w = [0.0] * (int(nb) + 1)
            for _, x, _, wi in rows:
                w[int(x)] = wi
            return _bb_nll(truncated, w, len(w), z0, z1)

        def pw(rows, z0, z1):
            calls["_pow_sse"] += 1
            w = [wi for _, wi in rows]
            return _pow_sse(w, len(w), z0, z1)

        # interior and trailing zero weights: rows the untruncated
        # beta-binomial leaves out
        sparse = [0.3, 0.0, 0.25, 0.2, 0.0, 0.15, 0.1] + [0.0] * (T - 7)
        runs = {}
        for use_oracle in (False, True):
            if use_oracle:
                monkeypatch.setattr(kernels, "_dw_nll", dw)
                monkeypatch.setattr(kernels, "_bb_nll", bb)
                monkeypatch.setattr(kernels, "_pow_sse", pw)
            runs[use_oracle] = [
                minimize(kind, truncated, w, z0, z1)
                for w in densities() + [sparse]
                for kind in (KIND_DW, KIND_BB, KIND_POW)
                for truncated in (False, True)
                for z0, z1 in starts]
        # the kernels still look these names up: the second run really
        # went through the oracle, not the code under test again
        assert all(calls.values()), calls
        for got, want in zip(runs[False], runs[True]):
            assert all(map(same_bits, got[:3], want[:3]))
            assert got[3:] == want[3:]
