import math
import sys

import pytest

from lobfit import cli, dist, kernels
from lobfit.errors import DegenerateData, DomainError

T = 15


def close_lists(a, b, abs_tol):
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert x == pytest.approx(y, abs=abs_tol)


class TestPmfValues:
    def test_geometric_point_masses(self):
        masses = dist.Geometric(0.5).masses(4)
        assert masses[0] == 0.5
        assert masses[3] == 0.0625
        assert dist.Geometric(0.25).masses(2)[1] == pytest.approx(
            0.1875, rel=1e-15)

    def test_geometric_boundary_is_a_point_mass(self):
        assert dist.Geometric(1.0).masses(5) == [1.0, 0.0, 0.0, 0.0, 0.0]

    def test_discrete_weibull_first_tick_is_one_minus_q(self):
        for q in (0.1, 0.37, 0.8):
            assert dist.DiscreteWeibull(q, 2.3).masses(1)[0] == pytest.approx(
                1.0 - q, rel=1e-15)

    def test_discrete_weibull_with_unit_shape_is_geometric(self):
        for q in (0.2, 0.5, 0.85):
            close_lists(dist.DiscreteWeibull(q, 1.0).masses(T),
                        dist.Geometric(1.0 - q).masses(T), 1e-12)

    def test_beta_binomial_flat_prior_is_uniform(self):
        for m in dist.BetaBinomial(1.0, 1.0).masses(T):
            assert m == pytest.approx(1.0 / 15.0, rel=1e-13)

    def test_beta_binomial_sums_to_one(self):
        total = sum(dist.BetaBinomial(2.5, 0.7).masses(T))
        assert total == pytest.approx(1.0, rel=1e-12)

    def test_domain_errors(self):
        # the trial count fixes the window
        with pytest.raises(DomainError):
            dist.BetaBinomial(1.0, 1.0).masses(T - 1)
        # 15**400 overflows; 15**-400 underflows to a zero denominator
        with pytest.raises(DomainError):
            dist.PowerLaw(1.0, 400.0).masses(T)
        with pytest.raises(DomainError):
            dist.PowerLaw(1.0, -400.0).masses(T)


class TestFamilies:
    def test_constructor_validation(self):
        with pytest.raises(DomainError):
            dist.Geometric(0.0)
        with pytest.raises(DomainError):
            dist.Geometric(1.1)
        with pytest.raises(DomainError):
            dist.DiscreteWeibull(1.0, 1.0)
        with pytest.raises(DomainError):
            dist.DiscreteWeibull(0.5, -1.0)
        with pytest.raises(DomainError):
            dist.BetaBinomial(1.0, 0.0)
        with pytest.raises(DomainError):
            dist.Exponential(0.0)
        with pytest.raises(DomainError):
            dist.PowerLaw(0.0, 1.0)

    def test_geometric_boundary_parameter_is_allowed(self):
        assert dist.Geometric(1.0).p == 1.0

    def test_params_round_trip(self):
        originals = [
            dist.Geometric(0.45),
            dist.DiscreteWeibull(0.8, 1.2),
            dist.BetaBinomial(2.0, 6.0),
            dist.Exponential(0.7),
            dist.PowerLaw(0.3, 1.4),
        ]
        for fam in originals:
            rebuilt = dist.FAMILY_TAGS[fam.tag](**fam.params())
            assert rebuilt == fam

    def test_unknown_tag_rejected(self):
        assert dist.FAMILY_TAGS.get("gaussian") is None
        with pytest.raises(ValueError, match="gaussian"):
            dist.fit_family([0.5, 0.5], "gaussian")


_EXAMPLES = {"geometric": (0.4,), "discrete_weibull": (0.8, 1.2),
             "beta_binomial": (2.0, 6.0), "exponential": (0.7,),
             "power_law": (0.3, 1.4)}


@pytest.mark.parametrize("tag", list(dist.FAMILY_TAGS))
def test_family_contract(tag):
    cls = dist.FAMILY_TAGS[tag]
    assert cls.tag == tag
    # the shorthand names the same class on the command line
    family = cli.parse_model(
        f"{cls.shorthand}:" + ",".join(str(v) for v in _EXAMPLES[tag]))
    assert type(family) is cls
    masses = family.masses(T)
    assert len(masses) == T
    assert all(m >= 0.0 for m in masses)
    assert type(dist.fit_family(dist.tick_curve(family), tag).family) is cls


class TestTickCurves:
    def test_curves_are_normalized(self):
        families = [
            dist.Geometric(0.3),
            dist.DiscreteWeibull(0.9, 0.6),
            dist.BetaBinomial(0.4, 11.0),
            dist.Exponential(2.2),
            dist.PowerLaw(1.0, 0.0),
        ]
        for fam in families:
            curve = dist.tick_curve(fam)
            assert len(curve) == T
            assert all(v >= 0.0 for v in curve)
            assert sum(curve) == pytest.approx(1.0, abs=1e-12)

    def test_flat_power_law_is_uniform(self):
        close_lists(dist.tick_curve(dist.PowerLaw(3.0, 0.0)),
                    [1.0 / T] * T, 1e-15)

    def test_halving_exponential_cells(self):
        norm = 1.0 - 0.5 ** T
        expected = [2.0 ** -i / norm for i in range(1, T + 1)]
        close_lists(dist.tick_curve(dist.Exponential(math.log(2.0))),
                    expected, 1e-15)

    # the curve identities below back the cross-family consistency gate
    def test_unit_shape_collapses_to_geometric(self):
        for q in (0.25, 0.5, 0.8):
            close_lists(dist.tick_curve(dist.DiscreteWeibull(q, 1.0)),
                        dist.tick_curve(dist.Geometric(1.0 - q)), 1e-12)

    def test_flat_beta_binomial_is_uniform(self):
        close_lists(dist.tick_curve(dist.BetaBinomial(1.0, 1.0)),
                    [1.0 / T] * T, 1e-12)

    def test_exponential_matches_geometric_at_matching_rate(self):
        close_lists(dist.tick_curve(dist.Exponential(math.log(2.0))),
                    dist.tick_curve(dist.Geometric(0.5)), 1e-12)

    def test_exponential_matches_unit_shape_weibull(self):
        for q in (0.3, 0.6, 0.9):
            close_lists(dist.tick_curve(dist.Exponential(-math.log(q))),
                        dist.tick_curve(dist.DiscreteWeibull(q, 1.0)), 1e-12)

    def test_trials_must_span_window(self):
        with pytest.raises(DomainError):
            dist.tick_curve(dist.BetaBinomial(1.0, 1.0, trials=9))
        assert len(dist.tick_curve(dist.BetaBinomial(1.0, 1.0, trials=9),
                                   ticks=10)) == 10

    def test_non_family_rejected(self):
        with pytest.raises(TypeError):
            dist.tick_curve("geometric")

    def test_weibull_shape_past_the_float_range_is_a_point_mass_pair(self):
        # 2**1e7 overflows, so q^(x^beta) is 0.0 from tick 2 on
        assert dist.tick_curve(dist.DiscreteWeibull(0.5, 1e7)) == (
            [0.5, 0.5] + [0.0] * 13)


class TestClosedForm:
    def test_worked_example(self):
        r = dist.fit_family([0.5, 0.3, 0.2], "geometric")
        assert r.family.p == pytest.approx(10.0 / 17.0, rel=1e-14)
        assert r.converged
        assert not r.boundary

    def test_counts_and_density_give_identical_estimates(self):
        r1 = dist.fit_family([50, 30, 20], "geometric")
        r2 = dist.fit_family([5, 3, 2], "geometric")
        assert r1.family.p == r2.family.p == pytest.approx(10.0 / 17.0,
                                                           rel=1e-14)

    def test_exponential_rate_inverts_mean(self):
        r = dist.fit_family([0.5, 0.3, 0.2], "exponential")
        assert r.family.rate == pytest.approx(10.0 / 17.0, rel=1e-14)

    def test_recovers_geometric_curve(self):
        # the weighted mean of a window-limited geometric is biased low
        # against 1/p, so invert on a long window where the tail is gone
        curve = dist.tick_curve(dist.Geometric(0.35), ticks=200)
        r = dist.fit_family(curve, "geometric")
        assert r.family.p == pytest.approx(0.35, abs=1e-12)

    def test_point_mass_hits_boundary(self):
        r = dist.fit_family([7.0, 0.0, 0.0], "geometric")
        assert r.family.p == 1.0
        assert r.boundary

    def test_error_cases(self):
        for tag in ("geometric", "exponential"):
            with pytest.raises(DegenerateData):
                dist.fit_family([0.0, 0.0, 0.0], tag)
            with pytest.raises(DomainError):
                dist.fit_family([0.5, -0.1, 0.6], tag)
            with pytest.raises(DomainError):
                dist.fit_family([1.0], tag)


class TestLikelihoodFits:
    def test_recovers_exact_curve(self):
        curve = dist.tick_curve(dist.DiscreteWeibull(0.7, 1.5))
        r = dist.fit_family(curve, "discrete_weibull")
        assert r.converged
        assert r.family.q == pytest.approx(0.7, abs=1e-6)
        assert r.family.beta == pytest.approx(1.5, abs=1e-6)
        assert 1 <= r.starts_used <= 25

    def test_window_conditioning_recovers_heavy_tailed_curve(self):
        curve = dist.tick_curve(dist.DiscreteWeibull(0.8, 1.2))
        r = dist.fit_family(curve, "discrete_weibull", truncated=True)
        assert r.family.q == pytest.approx(0.8, abs=1e-6)
        assert r.family.beta == pytest.approx(1.2, abs=1e-6)

    def test_unconditioned_fit_absorbs_tail_mass(self):
        # the same curve leaks ~0.3% mass past the window; ignoring that
        # pulls the estimate to a reproducible nearby point
        curve = dist.tick_curve(dist.DiscreteWeibull(0.8, 1.2))
        r = dist.fit_family(curve, "discrete_weibull")
        assert r.family.q == pytest.approx(0.803056270, abs=5e-6)
        assert r.family.beta == pytest.approx(1.222523708, abs=5e-6)

    def test_weibull_view_of_a_geometric_curve(self):
        curve = dist.tick_curve(dist.Geometric(0.4))
        r = dist.fit_family(curve, "discrete_weibull")
        assert r.family.q == pytest.approx(0.600783961956, abs=5e-6)
        assert r.family.beta == pytest.approx(1.005422958084, abs=5e-6)
        rt = dist.fit_family(curve, "discrete_weibull", truncated=True)
        assert rt.family.q == pytest.approx(0.6, abs=1e-6)
        assert rt.family.beta == pytest.approx(1.0, abs=1e-6)

    def test_beta_binomial_recovery(self):
        curve = dist.tick_curve(dist.BetaBinomial(2.0, 6.0))
        r = dist.fit_family(curve, "beta_binomial")
        assert r.converged
        assert r.family.alpha == pytest.approx(2.0, abs=1e-5)
        assert r.family.beta == pytest.approx(6.0, abs=1e-5)
        assert r.family.trials == T - 1

    def test_fit_beats_truth_on_its_own_objective(self):
        curve = dist.tick_curve(dist.DiscreteWeibull(0.8, 1.2))
        r = dist.fit_family(curve, "discrete_weibull")
        at_truth = kernels.objective(kernels.KIND_DW, False, curve,
                                     math.log(0.8 / 0.2), math.log(1.2))
        assert r.objective <= at_truth + 1e-12

    def test_power_of_two_rescaling_is_bit_exact(self):
        curve = dist.tick_curve(dist.DiscreteWeibull(0.6, 2.0))
        scaled = [v * 8.0 for v in curve]
        a = dist.fit_family(curve, "discrete_weibull")
        b = dist.fit_family(scaled, "discrete_weibull")
        assert a.family == b.family
        assert a.objective == b.objective

    def test_single_spike_cannot_identify_two_parameters(self):
        for tag in ("discrete_weibull", "beta_binomial", "power_law"):
            with pytest.raises(DegenerateData):
                dist.fit_family([0.0, 1.0, 0.0, 0.0], tag)
        with pytest.raises(DegenerateData):
            dist.fit_family([1.0] + [0.0] * 14, "power_law")

    def test_unknown_family_rejected(self):
        # fits take the family tag, not its command-line shorthand
        with pytest.raises(ValueError):
            dist.fit_family([0.5, 0.5], dist.DiscreteWeibull.shorthand)


class TestPowerLawFit:
    def test_recovers_exact_curve(self):
        curve = dist.tick_curve(dist.PowerLaw(0.3, 1.4))
        r = dist.fit_family(curve, "power_law")
        assert r.converged
        assert r.family.exponent == pytest.approx(1.4, abs=1e-6)
        # normalization fixes the level at the first tick's value
        assert r.family.scale == pytest.approx(curve[0], abs=1e-9)
        assert r.objective < 1e-15
        assert not r.boundary

    def test_flat_curve_gives_zero_exponent(self):
        r = dist.fit_family([1.0 / T] * T, "power_law")
        assert r.family.exponent == pytest.approx(0.0, abs=1e-6)
        assert r.family.scale == pytest.approx(1.0 / T, abs=1e-9)

    def test_tail_spike_fits_without_raising(self):
        # the search walks to exponents where tick**exponent underflows
        r = dist.fit_family([1e-300] * (T - 1) + [1.0], "power_law")
        assert r.converged
        assert r.objective < 1e-12
        # and the scale underflows with it: a boundary fit, not a normal one
        assert r.family.scale < sys.float_info.min
        assert r.boundary


class TestDispatcher:
    def test_routes_to_natural_estimator(self):
        curve = dist.tick_curve(dist.DiscreteWeibull(0.7, 1.5))
        assert isinstance(dist.fit_family(curve, "geometric").family,
                          dist.Geometric)
        assert isinstance(dist.fit_family(curve, "exponential").family,
                          dist.Exponential)
        assert isinstance(dist.fit_family(curve, "discrete_weibull").family,
                          dist.DiscreteWeibull)
        assert isinstance(dist.fit_family(curve, "beta_binomial").family,
                          dist.BetaBinomial)
        assert isinstance(dist.fit_family(curve, "power_law").family,
                          dist.PowerLaw)

    def test_truncation_flag_reaches_likelihood_fits(self):
        curve = dist.tick_curve(dist.DiscreteWeibull(0.8, 1.2))
        r = dist.fit_family(curve, "discrete_weibull", truncated=True)
        assert r.family.q == pytest.approx(0.8, abs=1e-6)

    def test_unknown_tag(self):
        with pytest.raises(ValueError):
            dist.fit_family([0.5, 0.5], "cauchy")
