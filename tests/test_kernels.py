import math
import random
import sys

import pytest
from hypothesis import assume, example, given, settings
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
    # in 40-digit arithmetic, independent of the kernel's cells
    with mp.workdps(40):
        q = 1 / (1 + mp.exp(-z0))
        beta = mp.exp(z1)
        masses = [q ** ((i - 1) ** beta) - q ** (i ** beta)
                  for i in range(1, len(w) + 1)]
        if any(m < sys.float_info.min for m in masses):
            # a cell that underflows in floats poisons the evaluation
            return math.inf
        ll = sum(wi * mp.log(m) for wi, m in zip(w, masses))
        if truncated:
            ll -= mp.log(sum(masses)) * sum(w)
        return float(-ll)


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
# evaluation: every term is evaluated per tick through the
# overflow-guarding wrappers.  Truncated, the Weibull takes the log of
# the window's mass in closed form, ln(1 - q^(n^beta)), and the
# beta-binomial, whose support is the window, is its untruncated self.
# The one-pass kernels must return the same floats bit for bit.

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
    prev = 1.0  # survival q^((i-1)^beta) at i = 1
    for i in range(1, n + 1):
        e = _pow(float(i), beta) * lq
        cur = _exp(e) if e <= 0.0 else _INF
        p = prev - cur
        prev = cur
        wi = w[i - 1]
        if wi != 0.0:
            if not p > 0.0:
                return _INF
            nll -= wi * math.log(p)
    if truncated:
        x = _pow(float(n), beta) * lq
        if x < math.log(0.5):
            lmass = math.log1p(-math.exp(x))
        else:
            lmass = math.log(-math.expm1(x))
        nll += lmass * math.fsum(w)
    if nll != nll:
        return _INF
    return nll


def _bb_nll(w, n, z0, z1):
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
    for i in range(1, n + 1):
        x = float(i - 1)
        lp = (lgn1 - _lgamma(x + 1.0) - _lgamma(nb - x + 1.0)
              + _lgamma(x + alpha) + _lgamma(nb - x + beta) - lgden - lbab)
        wi = w[i - 1]
        if wi != 0.0:
            nll -= wi * lp
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
        return _bb_nll(w, len(w), z0, z1)
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
    # the same edges truncated, through the guarded cells and the window
    # term: no mass from tick 3 under zero weights, then past the
    # overflow, and a nonzero weight on a cell without mass
    @example(KIND_DW, True, [1.0] * 2 + [0.0] * 13, -0.5, 3.0)
    @example(KIND_DW, True, [1.0] * 2 + [0.0] * 13, -0.5, 6.0)
    @example(KIND_DW, True, [1.0] * 15, -0.5, 3.0)
    # zero-weight ticks skip ln Gamma, in both modes
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
        # weights in them; the Weibull is truncated where it binds the
        # sum of its weights, and the beta-binomial's rows hold its
        # nonzero weights alone, so the zero-weight ticks come back from
        # the rows' x
        def dw(sumw, rows, z0, z1):
            calls["_dw_nll"] += 1
            w = [wi for _, wi in rows]
            return _dw_nll(sumw is not None, w, len(w), z0, z1)

        def bb(nb, rows, z0, z1):
            calls["_bb_nll"] += 1
            w = [0.0] * (int(nb) + 1)
            for _, x, _, wi in rows:
                w[int(x)] = wi
            return _bb_nll(w, len(w), z0, z1)

        def pw(rows, z0, z1):
            calls["_pow_sse"] += 1
            w = [wi for _, wi in rows]
            return _pow_sse(w, len(w), z0, z1)

        # interior and trailing zero weights: rows the beta-binomial
        # leaves out
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


# --- simplex oracle ---
# The search as it was with a full three-vertex sort and a running
# maximum for the diameter on every iteration, kept verbatim.
# ``minimize`` must take the same steps and return the same floats.

def _minimize_reference(fn, z0, z1):
    f0 = fn(z0, z1)
    x0, y0 = z0, z1
    x1, y1 = z0 + kernels._STEP, z1
    x2, y2 = z0, z1 + kernels._STEP
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
        if diam < kernels._TOL:
            converged = True
            break
        if iterations >= kernels._MAX_ITER:
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


def same_search(got, want):
    return all(map(same_bits, got[:3], want[:3])) and got[3:] == want[3:]


class TestSimplexOracle:
    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from([KIND_DW, KIND_BB, KIND_POW]), st.booleans(),
           st.sampled_from([2, 15, 40]).flatmap(
               lambda n: st.lists(_WEIGHT, min_size=n, max_size=n)),
           st.floats(-6.0, 6.0), st.floats(-4.0, 4.0))
    def test_minimize_matches_reference(self, kind, truncated, w, z0, z1):
        fn = kernels.bind(kind, truncated, w)
        assert same_search(minimize(kind, truncated, w, z0, z1),
                           _minimize_reference(fn, z0, z1))

    @pytest.mark.parametrize("fn", [
        kernels.bind(KIND_DW, False, [1.0 / T] * T),
        # unbounded below: the expansions run the vertices out to inf
        # and then NaN
        lambda z0, z1: -z0 - 3.0 * z1,
        # every vertex ties: the order is the insertion order
        lambda z0, z1: 1.0,
        # NaN compares false against everything
        lambda z0, z1: math.nan if z0 > 0.4 else (z0 - 0.3) ** 2 + z1 * z1,
        lambda z0, z1: math.inf if z1 < -0.1 else abs(z0) + (z1 - 2.0) ** 2,
    ])
    # a NaN coordinate makes a NaN edge: first in the convergence test,
    # which then fails, or later, which the test passes over
    @pytest.mark.parametrize("z0, z1", [
        (0.0, 0.0), (math.nan, 0.0), (0.0, math.nan), (math.inf, 0.0)])
    def test_minimize_matches_reference_on_odd_objectives(self, fn, z0, z1):
        got = minimize(KIND_DW, False, [1.0] * T, z0, z1, fn=fn,
                       f0=fn(z0, z1))
        assert same_search(got, _minimize_reference(fn, z0, z1))


class TestUntruncatedWeibull:
    # the untruncated Weibull pass guards each cell where it forms it: a
    # power that overflows is a survival of 0.0, and a cell without mass
    # costs +inf under a nonzero weight and nothing under a zero one, as
    # in the per-tick oracle, whose float it returns
    @settings(max_examples=500, deadline=None)
    @given(st.sampled_from([2, 15, 40]).flatmap(
               lambda n: st.lists(_WEIGHT, min_size=n, max_size=n)),
           st.floats(-8.0, 40.0), st.floats(-3.0, 8.0))
    # ticks from 3 on have no mass, under zero weights: finite
    @example([1.0] * 2 + [0.0] * 13, -0.5, 3.0)
    # beta ~ 1100: 2.0 ** beta overflows before any cell runs out of mass
    @example([1.0] * 2 + [0.0] * 13, -0.5, 7.0)
    # beta ~ 298: no mass from tick 3, then 15.0 ** beta overflows
    @example([1.0] * 2 + [0.0] * 13, -0.5, 5.7)
    # a nonzero weight on a cell without mass: +inf
    @example([1.0] * 15, -0.5, 3.0)
    def test_matches_checked_per_tick_pass(self, w, z0, z1):
        got = kernels.bind(KIND_DW, False, w)(z0, z1)
        assert same_bits(got, _dw_nll(False, w, len(w), z0, z1))


class TestOneLikelihood:
    # the curves read the objective's own cells: with all weight on one
    # tick, the untruncated objective is -ln of that tick's cell (0.0 -
    # keeps the objective's +0.0 where the cell is 1)
    @settings(max_examples=1000, deadline=None)
    @given(st.sampled_from([KIND_DW, KIND_BB]),
           st.sampled_from([2, 15, 40]).flatmap(
               lambda n: st.tuples(st.just(n), st.integers(0, n - 1))),
           st.floats(-40.0, 40.0), st.floats(-8.0, 8.0))
    def test_one_hot_objective_is_minus_ln_of_the_curve_cell(self, kind, nk,
                                                              z0, z1):
        n, k = nk
        w = [0.0] * n
        w[k] = 1.0
        if kind == KIND_DW:
            # the kernel's (ln q, beta) at (z0, z1)
            lq = -math.log1p(math.exp(-z0))
            p = kernels.dw_masses(lq, math.exp(z1), n)[k]
            want = 0.0 - math.log(p) if p > 0.0 else math.inf
        else:
            lp = kernels.bb_log_masses(math.exp(z0), math.exp(z1), n)[k]
            want = 0.0 - lp
        assert same_bits(objective(kind, False, w, z0, z1), want)

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from([2, 15, 40]).flatmap(
               lambda n: st.lists(_WEIGHT, min_size=n, max_size=n)),
           st.floats(-800.0, 800.0), st.floats(-800.0, 800.0))
    def test_truncated_beta_binomial_is_the_untruncated_objective(self, w,
                                                                  z0, z1):
        assert same_bits(objective(KIND_BB, True, w, z0, z1),
                         objective(KIND_BB, False, w, z0, z1))

    def test_truncated_beta_binomial_fit_is_the_untruncated_fit(self):
        sparse = [0.3, 0.0, 0.25, 0.2, 0.0, 0.15, 0.1] + [0.0] * (T - 7)
        for w in densities() + [sparse]:
            got = dist.fit_family(w, "beta_binomial", truncated=True)
            want = dist.fit_family(w, "beta_binomial")
            assert got == want
            assert same_bits(got.objective, want.objective)

    # the window term stays accurate where q -> 1, where a sum of the
    # cells lost digits: on a near-flat density at z0 = 25, 2.8e-8
    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from([2, 15, 40]).flatmap(
               lambda n: st.lists(st.floats(0.0, 1e3), min_size=n,
                                  max_size=n)),
           st.floats(-10.0, 25.0), st.floats(-4.0, 3.0))
    @example([1.0 / T] * T, 25.0, 0.0)
    @example([1.0 / T] * T, 20.0, 0.5)
    def test_truncated_weibull_adds_the_window_term(self, w, z0, z1):
        plain = objective(KIND_DW, False, w, z0, z1)
        assume(math.isfinite(plain))
        cond = objective(KIND_DW, True, w, z0, z1)
        with mp.workdps(50):
            q = 1 / (1 + mp.exp(-z0))
            beta = mp.exp(z1)
            want = float(mp.fsum(w) * mp.log(1 - q ** (len(w) ** beta)))
        # cond - plain is exact to within an ulp of cond
        assert abs((cond - plain) - want) <= (1e-13 * abs(want)
                                              + math.ulp(cond))
