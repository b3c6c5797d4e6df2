import math
import random

import pytest

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
    masses = [dist.pmf_discrete_weibull(q, beta, i) for i in range(1, T + 1)]
    if any(m <= 0.0 for m in masses):
        # an underflowed cell poisons the whole evaluation
        return math.inf
    ll = sum(wi * math.log(m) for wi, m in zip(w, masses))
    if truncated:
        ll -= math.log(sum(masses)) * sum(w)
    return -ll


def bb_nll_reference(w, z0, z1, truncated):
    a, b = math.exp(z0), math.exp(z1)
    masses = [dist.pmf_beta_binomial(a, b, T - 1, i - 1)
              for i in range(1, T + 1)]
    ll = sum(wi * math.log(m) for wi, m in zip(w, masses))
    if truncated:
        ll -= math.log(sum(masses)) * sum(w)
    return -ll


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
        mass = sum(dist.pmf_discrete_weibull(q, beta, i)
                   for i in range(1, T + 1))
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

    def test_iteration_cap_reports_no_convergence(self):
        w = dist.tick_curve(dist.DiscreteWeibull(0.7, 1.5))
        *_, iters, ok = minimize(KIND_DW, False, w, -2.0, 1.0, max_iter=3)
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
