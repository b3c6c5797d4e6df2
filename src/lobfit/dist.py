"""Model families for tick-distance densities and their fitting routines.

Five families cover the observed arrival curves:

* Geometric on ticks 1, 2, ... with success probability p
* Discrete Weibull on ticks 1, 2, ... : P(X = x) = q^((x-1)^beta) - q^(x^beta)
* Beta-binomial on x = tick - 1 with a fixed trial count of ticks - 1,
  so its support is exactly the tick window
* Exponential, discretized to unit cells: mass of tick i is the
  integral of the density over [i-1, i)
* Power law scale / tick^exponent, a least-squares baseline

Each family is one class.  It carries its ``tag`` (the name in
``fits.json``), its command-line ``shorthand``, ``masses(ticks)`` (its
unnormalized masses on ticks 1..ticks) and a static ``fit(weights,
truncated)``, its natural estimator on a normalized density.
``FAMILY_TAGS`` maps each tag to its class.

``tick_curve`` renormalizes a family's masses over the tick window,
which is how curves are compared against observed densities, and
``fit_family`` fits a family by tag.  Likelihood fits maximize the
weighted log-likelihood of the raw (untruncated) pmf by default; pass
truncated=True to condition the likelihood on the window instead,
which matters only when the generating parameters put visible mass
beyond it.

The geometric and exponential estimators are closed-form inversions of
the weighted mean tick.  The two-parameter likelihoods and the power
law go through a derivative-free simplex search in transformed
coordinates (see lobfit.kernels) from a log-spaced grid of starts; the
best final value wins.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from lobfit import kernels, rates, stats
from lobfit.errors import DegenerateData, DomainError, NonConvergence

__all__ = [
    "TICKS",
    "Geometric",
    "DiscreteWeibull",
    "BetaBinomial",
    "Exponential",
    "PowerLaw",
    "FitResult",
    "FAMILY_TAGS",
    "tick_curve",
    "fit_family",
]

# the families are fitted on the tallied arrival window
TICKS = rates.ARRIVAL_TICKS

_NM_STEP = 0.25
_NM_TOL = 1e-8
_NM_MAX_ITER = 10000

# multi-start grids in natural parameters; q is even in log-odds
_Q_STARTS = (0.1, 0.3, 0.5, 0.7, 0.9)
_BETA_STARTS = (0.25, 0.5, 1.0, 2.0, 4.0)
_AB_STARTS = (0.1, 0.5, 2.5, 12.5, 62.5)
_POW_EXPONENT_STARTS = (0.0, 0.5, 1.0, 1.5, 2.5)


@dataclass(frozen=True, slots=True)
class FitResult:
    """Outcome of one family fit on one observed density."""

    family: object
    objective: float
    converged: bool
    starts_used: int
    iterations: int
    boundary: bool = False


@dataclass(frozen=True, slots=True)
class Geometric:
    """P(X = x) = p (1-p)^(x-1) on x = 1, 2, ...

    p = 1 is the degenerate all-mass-at-tick-1 boundary, reachable from
    closed-form fits of such data; fits flag it.
    """

    p: float
    tag = "geometric"
    shorthand = "geo"

    def __post_init__(self):
        if not 0.0 < self.p <= 1.0:
            raise DomainError(f"geometric needs 0 < p <= 1, got {self.p}")

    def params(self) -> dict[str, float]:
        return {"p": self.p}

    def masses(self, ticks: int) -> list[float]:
        return [math.pow(1.0 - self.p, x - 1) * self.p
                for x in range(1, ticks + 1)]

    @staticmethod
    def fit(weights, truncated: bool) -> FitResult:
        """p = 1/m for the weighted mean tick m.

        All mass on tick 1 makes m = 1 and pins p at its boundary; the
        result carries boundary=True instead of raising.
        """
        m = _mean_tick(weights)
        return FitResult(Geometric(p=min(1.0 / m, 1.0)), objective=math.nan,
                         converged=True, starts_used=1, iterations=0,
                         boundary=(m == 1.0))


@dataclass(frozen=True, slots=True)
class DiscreteWeibull:
    q: float
    beta: float
    tag = "discrete_weibull"
    shorthand = "dw"

    def __post_init__(self):
        if not 0.0 < self.q < 1.0:
            raise DomainError(f"discrete Weibull needs 0 < q < 1, got {self.q}")
        if not self.beta > 0.0:
            raise DomainError(
                f"discrete Weibull needs beta > 0, got {self.beta}")

    def params(self) -> dict[str, float]:
        return {"q": self.q, "beta": self.beta}

    def masses(self, ticks: int) -> list[float]:
        # survival q^(x^beta) for x = 0..ticks; past the float range
        # x^beta is infinite and the survival is 0.0
        survival = []
        for x in range(ticks + 1):
            try:
                survival.append(math.pow(self.q, math.pow(float(x),
                                                          self.beta)))
            except OverflowError:
                survival.append(0.0)
        return [survival[i] - survival[i + 1] for i in range(ticks)]

    @staticmethod
    def fit(weights, truncated: bool) -> FitResult:
        """Weighted maximum likelihood over a (q, beta) grid of starts."""
        _require_spread(weights)
        starts = [(_logit(q), math.log(b))
                  for q in _Q_STARTS for b in _BETA_STARTS]
        (x, y, f, iters, ok), used = _run_starts(kernels.KIND_DW, truncated,
                                                 weights, starts)
        return FitResult(DiscreteWeibull(q=_sigmoid(x), beta=math.exp(y)),
                         objective=f, converged=ok, starts_used=used,
                         iterations=iters)


@dataclass(frozen=True, slots=True)
class BetaBinomial:
    alpha: float
    beta: float
    trials: int = TICKS - 1
    tag = "beta_binomial"
    shorthand = "bb"

    def __post_init__(self):
        if not (self.alpha > 0.0 and self.beta > 0.0):
            raise DomainError(
                f"beta-binomial needs alpha, beta > 0, got "
                f"{self.alpha}, {self.beta}")
        if self.trials < 1:
            raise DomainError(f"beta-binomial needs trials >= 1")

    def params(self) -> dict[str, float]:
        return {"alpha": self.alpha, "beta": self.beta,
                "trials": self.trials}

    def masses(self, ticks: int) -> list[float]:
        n = self.trials
        if n != ticks - 1:
            raise DomainError(
                f"beta-binomial with {n} trials does not span "
                f"a {ticks}-tick window")
        try:
            ln_gamma_n = math.lgamma(n + 1.0)
            ln_beta_ab = stats.ln_beta(self.alpha, self.beta)
            return [math.exp(ln_gamma_n - math.lgamma(x + 1.0)
                             - math.lgamma(n - x + 1.0)
                             + stats.ln_beta(x + self.alpha,
                                             n - x + self.beta)
                             - ln_beta_ab)
                    for x in range(ticks)]
        except OverflowError:
            # at saturated fits (alpha, beta ~ 1e16) the ln_beta
            # difference is rounding noise, large enough to overflow
            # exp(); past ~2.5e305 lgamma itself overflows
            raise DomainError(
                f"beta-binomial mass overflows at alpha={self.alpha}, "
                f"beta={self.beta}") from None

    @staticmethod
    def fit(weights, truncated: bool) -> FitResult:
        """Weighted maximum likelihood over an (alpha, beta) grid of starts."""
        _require_spread(weights)
        starts = [(math.log(a), math.log(b))
                  for a in _AB_STARTS for b in _AB_STARTS]
        (x, y, f, iters, ok), used = _run_starts(kernels.KIND_BB, truncated,
                                                 weights, starts)
        return FitResult(BetaBinomial(alpha=math.exp(x), beta=math.exp(y),
                                      trials=len(weights) - 1),
                         objective=f, converged=ok, starts_used=used,
                         iterations=iters)


@dataclass(frozen=True, slots=True)
class Exponential:
    rate: float
    tag = "exponential"
    shorthand = "exp"

    def __post_init__(self):
        if not self.rate > 0.0:
            raise DomainError(f"exponential needs rate > 0, got {self.rate}")

    def params(self) -> dict[str, float]:
        return {"rate": self.rate}

    def masses(self, ticks: int) -> list[float]:
        return [math.exp(-self.rate * (i - 1)) - math.exp(-self.rate * i)
                for i in range(1, ticks + 1)]

    @staticmethod
    def fit(weights, truncated: bool) -> FitResult:
        """rate = 1/m for the weighted mean tick m."""
        return FitResult(Exponential(rate=1.0 / _mean_tick(weights)),
                         objective=math.nan, converged=True, starts_used=1,
                         iterations=0)


@dataclass(frozen=True, slots=True)
class PowerLaw:
    scale: float
    exponent: float
    tag = "power_law"
    shorthand = "pow"

    def __post_init__(self):
        if not self.scale > 0.0:
            raise DomainError(f"power law needs scale > 0, got {self.scale}")

    def params(self) -> dict[str, float]:
        return {"scale": self.scale, "exponent": self.exponent}

    def masses(self, ticks: int) -> list[float]:
        try:
            return [self.scale / math.pow(float(i), self.exponent)
                    for i in range(1, ticks + 1)]
        except (OverflowError, ZeroDivisionError):
            raise DomainError(
                f"power law tick**exponent leaves the float range at "
                f"exponent {self.exponent}") from None

    @staticmethod
    def fit(weights, truncated: bool) -> FitResult:
        """Least-squares fit of scale/tick^exponent to the density.

        The window needs no conditioning, so ``truncated`` is ignored.
        A scale that underflowed below the smallest normal float (the
        search in ln scale ran off) carries boundary=True.
        """
        _require_spread(weights)
        k0 = max(weights[0], 1e-6)
        starts = [(math.log(k0), a) for a in _POW_EXPONENT_STARTS]
        (x, y, f, iters, ok), used = _run_starts(kernels.KIND_POW, False,
                                                 weights, starts)
        scale = math.exp(x)
        return FitResult(PowerLaw(scale=scale, exponent=y), objective=f,
                         converged=ok, starts_used=used, iterations=iters,
                         boundary=scale < sys.float_info.min)


FAMILY_TAGS = {cls.tag: cls for cls in (Geometric, DiscreteWeibull,
                                        BetaBinomial, Exponential, PowerLaw)}
_FAMILIES = tuple(FAMILY_TAGS.values())


def tick_curve(family, ticks: int = TICKS) -> list[float]:
    """The family's density renormalized over ticks 1..ticks.

    A curve whose masses leave the float range raises DomainError.
    """
    if not isinstance(family, _FAMILIES):
        raise TypeError(f"not a model family: {family!r}")
    raw = family.masses(ticks)
    total = sum(raw)
    if not (math.isfinite(total) and total > 0.0):
        raise DomainError(f"curve mass vanished for {family!r}")
    return [v / total for v in raw]


def fit_family(density, tag: str, truncated: bool = False) -> FitResult:
    """Fit the family ``tag`` to a density with its natural estimator."""
    weights = _clean_density(density)
    cls = FAMILY_TAGS.get(tag)
    if cls is None:
        raise ValueError(f"unknown family tag {tag!r}")
    return cls.fit(weights, truncated)


# --- fitting helpers ---

def _clean_density(density) -> list[float]:
    if len(density) < 2:
        raise DomainError(f"need at least 2 ticks, got {len(density)}")
    total = 0.0
    for v in density:
        if v < 0.0 or not math.isfinite(v):
            raise DomainError(f"density entries must be finite and >= 0")
        total += v
    if not total > 0.0:
        raise DegenerateData("density has no mass")
    return [v / total for v in density]


def _mean_tick(weights) -> float:
    m = 0.0
    for i, w in enumerate(weights, start=1):
        m += i * w
    return m


def _require_spread(weights) -> None:
    if sum(1 for w in weights if w > 0.0) < 2:
        raise DegenerateData(
            "all mass on a single tick cannot identify two parameters")


def _logit(q: float) -> float:
    return math.log(q / (1.0 - q))


def _sigmoid(z: float) -> float:
    if z >= 0.0:
        return 1.0 / (1.0 + math.exp(-z))
    e = math.exp(z)
    return e / (1.0 + e)


def _run_starts(kind: int, truncated: bool, weights, starts):
    best = None
    used = 0
    for z0, z1 in starts:
        if not math.isfinite(kernels.objective(kind, truncated, weights,
                                               z0, z1)):
            continue
        used += 1
        x, y, f, iters, ok = kernels.minimize(
            kind, truncated, weights, z0, z1,
            step=_NM_STEP, tol=_NM_TOL, max_iter=_NM_MAX_ITER)
        if math.isfinite(f) and (best is None or f < best[2]):
            best = (x, y, f, iters, ok)
    if best is None:
        raise NonConvergence("no start produced a finite objective")
    return best, used
