"""Model families for tick-distance densities and their fitting routines.

Five families cover the observed arrival curves:

* Geometric on ticks 1, 2, ... with success probability p
* Discrete Weibull on ticks 1, 2, ... : P(X = x) = q^((x-1)^beta) - q^(x^beta)
* Beta-binomial on x = tick - 1 with a fixed trial count of ticks - 1,
  so its support is exactly the tick window
* Exponential, discretized to unit cells: mass of tick i is the
  integral of the density over [i-1, i)
* Power law scale / tick^exponent, a least-squares baseline

``tick_curve`` renormalizes each family over the tick window, which is
how curves are compared against observed densities.  Likelihood fits
maximize the weighted log-likelihood of the raw (untruncated) pmf by
default; pass truncated=True to condition the likelihood on the window
instead, which matters only when the generating parameters put visible
mass beyond it.

The geometric and exponential estimators are closed-form inversions of
the weighted mean tick.  The two-parameter likelihoods and the power
law go through a derivative-free simplex search in transformed
coordinates (see lobfit.kernels) from a log-spaced grid of starts; the
best final value wins.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

from lobfit import kernels, stats
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
    "family_from_params",
    "pmf_geometric",
    "pmf_discrete_weibull",
    "pmf_beta_binomial",
    "discretize_exponential",
    "tick_curve",
    "fit_closed_form",
    "fit_mle",
    "fit_power_law",
    "fit_family",
]

TICKS = 15

_NM_STEP = 0.25
_NM_TOL = 1e-8
_NM_MAX_ITER = 10000

# multi-start grids in natural parameters; q is even in log-odds
_Q_STARTS = (0.1, 0.3, 0.5, 0.7, 0.9)
_BETA_STARTS = (0.25, 0.5, 1.0, 2.0, 4.0)
_AB_STARTS = (0.1, 0.5, 2.5, 12.5, 62.5)
_POW_EXPONENT_STARTS = (0.0, 0.5, 1.0, 1.5, 2.5)


@dataclass(frozen=True, slots=True)
class Geometric:
    """P(X = x) = p (1-p)^(x-1) on x = 1, 2, ...

    p = 1 is the degenerate all-mass-at-tick-1 boundary, reachable from
    closed-form fits of such data; fits flag it.
    """

    p: float
    tag = "geometric"

    def __post_init__(self):
        if not 0.0 < self.p <= 1.0:
            raise DomainError(f"geometric needs 0 < p <= 1, got {self.p}")

    def params(self) -> dict[str, float]:
        return {"p": self.p}


@dataclass(frozen=True, slots=True)
class DiscreteWeibull:
    q: float
    beta: float
    tag = "discrete_weibull"

    def __post_init__(self):
        if not 0.0 < self.q < 1.0:
            raise DomainError(f"discrete Weibull needs 0 < q < 1, got {self.q}")
        if not self.beta > 0.0:
            raise DomainError(
                f"discrete Weibull needs beta > 0, got {self.beta}")

    def params(self) -> dict[str, float]:
        return {"q": self.q, "beta": self.beta}


@dataclass(frozen=True, slots=True)
class BetaBinomial:
    alpha: float
    beta: float
    trials: int = TICKS - 1
    tag = "beta_binomial"

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


@dataclass(frozen=True, slots=True)
class Exponential:
    rate: float
    tag = "exponential"

    def __post_init__(self):
        if not self.rate > 0.0:
            raise DomainError(f"exponential needs rate > 0, got {self.rate}")

    def params(self) -> dict[str, float]:
        return {"rate": self.rate}


@dataclass(frozen=True, slots=True)
class PowerLaw:
    scale: float
    exponent: float
    tag = "power_law"

    def __post_init__(self):
        if not self.scale > 0.0:
            raise DomainError(f"power law needs scale > 0, got {self.scale}")

    def params(self) -> dict[str, float]:
        return {"scale": self.scale, "exponent": self.exponent}


FAMILY_TAGS = {
    "geometric": Geometric,
    "discrete_weibull": DiscreteWeibull,
    "beta_binomial": BetaBinomial,
    "exponential": Exponential,
    "power_law": PowerLaw,
}


def family_from_params(tag: str, params: dict):
    """Rebuild a family instance from its tag and params() dict."""
    cls = FAMILY_TAGS.get(tag)
    if cls is None:
        raise ValueError(f"unknown family tag {tag!r}")
    return cls(**params)


# --- pointwise masses ---

def pmf_geometric(p: float, x: int) -> float:
    if not 0.0 < p <= 1.0:
        raise DomainError(f"geometric needs 0 < p <= 1, got {p}")
    if x < 1:
        raise DomainError(f"geometric support starts at 1, got {x}")
    return math.pow(1.0 - p, x - 1) * p


def pmf_discrete_weibull(q: float, beta: float, x: int) -> float:
    if not 0.0 < q < 1.0:
        raise DomainError(f"discrete Weibull needs 0 < q < 1, got {q}")
    if not beta > 0.0:
        raise DomainError(f"discrete Weibull needs beta > 0, got {beta}")
    if x < 1:
        raise DomainError(f"discrete Weibull support starts at 1, got {x}")
    try:
        return (math.pow(q, math.pow(x - 1.0, beta))
                - math.pow(q, math.pow(float(x), beta)))
    except OverflowError:
        raise DomainError(
            f"discrete Weibull x**beta overflows at beta={beta}, "
            f"x={x}") from None


def pmf_beta_binomial(alpha: float, beta: float, trials: int, x: int) -> float:
    if not (alpha > 0.0 and beta > 0.0):
        raise DomainError(
            f"beta-binomial needs alpha, beta > 0, got {alpha}, {beta}")
    if not 0 <= x <= trials:
        raise DomainError(f"x must lie in 0..{trials}, got {x}")
    ln_choose = (stats.ln_gamma(trials + 1.0) - stats.ln_gamma(x + 1.0)
                 - stats.ln_gamma(trials - x + 1.0))
    try:
        return math.exp(ln_choose
                        + stats.ln_beta(x + alpha, trials - x + beta)
                        - stats.ln_beta(alpha, beta))
    except OverflowError:
        # at saturated fits (alpha, beta ~ 1e16) the ln_beta difference
        # is rounding noise, large enough to overflow exp()
        raise DomainError(
            f"beta-binomial mass overflows at alpha={alpha}, beta={beta}, "
            f"x={x}") from None


def discretize_exponential(rate: float, ticks: int = TICKS) -> list[float]:
    """Unit-cell masses of an exponential, renormalized over the window."""
    if not rate > 0.0:
        raise DomainError(f"exponential needs rate > 0, got {rate}")
    raw = [math.exp(-rate * (i - 1)) - math.exp(-rate * i)
           for i in range(1, ticks + 1)]
    total = sum(raw)
    if not total > 0.0:
        raise DomainError(f"exponential mass vanished at rate {rate}")
    return [v / total for v in raw]


def tick_curve(family, ticks: int = TICKS) -> list[float]:
    """The family's density renormalized over ticks 1..ticks.

    A curve whose masses leave the float range raises DomainError.
    """
    if isinstance(family, Geometric):
        raw = [pmf_geometric(family.p, i) for i in range(1, ticks + 1)]
    elif isinstance(family, DiscreteWeibull):
        raw = [pmf_discrete_weibull(family.q, family.beta, i)
               for i in range(1, ticks + 1)]
    elif isinstance(family, BetaBinomial):
        if family.trials != ticks - 1:
            raise DomainError(
                f"beta-binomial with {family.trials} trials does not span "
                f"a {ticks}-tick window")
        raw = [pmf_beta_binomial(family.alpha, family.beta, family.trials,
                                 i - 1) for i in range(1, ticks + 1)]
    elif isinstance(family, Exponential):
        return discretize_exponential(family.rate, ticks)
    elif isinstance(family, PowerLaw):
        try:
            raw = [family.scale / math.pow(float(i), family.exponent)
                   for i in range(1, ticks + 1)]
        except (OverflowError, ZeroDivisionError):
            raise DomainError(
                f"power law tick**exponent leaves the float range at "
                f"exponent {family.exponent}") from None
    else:
        raise TypeError(f"not a model family: {family!r}")
    total = sum(raw)
    if not (math.isfinite(total) and total > 0.0):
        raise DomainError(f"curve mass vanished for {family!r}")
    return [v / total for v in raw]


# --- fitting ---

@dataclass(frozen=True, slots=True)
class FitResult:
    """Outcome of one family fit on one observed density."""

    family: object
    objective: float
    converged: bool
    starts_used: int
    iterations: int
    boundary: bool = False


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


def fit_closed_form(density, family: str = "geometric") -> FitResult:
    """Invert the weighted mean tick: p = 1/m (geometric), rate = 1/m.

    All mass on tick 1 makes m = 1 and pins the geometric at its p = 1
    boundary; the result carries boundary=True instead of raising.
    """
    weights = _clean_density(density)
    m = 0.0
    for i, w in enumerate(weights, start=1):
        m += i * w
    if family == "geometric":
        p = 1.0 / m
        return FitResult(Geometric(p=min(p, 1.0)), objective=math.nan,
                         converged=True, starts_used=1, iterations=0,
                         boundary=(m == 1.0))
    if family == "exponential":
        return FitResult(Exponential(rate=1.0 / m), objective=math.nan,
                         converged=True, starts_used=1, iterations=0)
    raise ValueError(f"no closed form for family {family!r}")


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


def _require_spread(weights) -> None:
    if sum(1 for w in weights if w > 0.0) < 2:
        raise DegenerateData(
            "all mass on a single tick cannot identify two parameters")


def fit_mle(density, family: str = "discrete_weibull",
            truncated: bool = False) -> FitResult:
    """Weighted maximum likelihood for the two-parameter families."""
    weights = _clean_density(density)
    _require_spread(weights)
    if family == "discrete_weibull":
        starts = [(_logit(q), math.log(b))
                  for q in _Q_STARTS for b in _BETA_STARTS]
        best, used = _run_starts(kernels.KIND_DW, truncated, weights, starts)
        x, y, f, iters, ok = best
        fitted = DiscreteWeibull(q=_sigmoid(x), beta=math.exp(y))
    elif family == "beta_binomial":
        starts = [(math.log(a), math.log(b))
                  for a in _AB_STARTS for b in _AB_STARTS]
        best, used = _run_starts(kernels.KIND_BB, truncated, weights, starts)
        x, y, f, iters, ok = best
        fitted = BetaBinomial(alpha=math.exp(x), beta=math.exp(y),
                              trials=len(weights) - 1)
    else:
        raise ValueError(f"no likelihood fit for family {family!r}")
    return FitResult(fitted, objective=f, converged=ok,
                     starts_used=used, iterations=iters)


def fit_power_law(density) -> FitResult:
    """Least-squares fit of scale/tick^exponent to the density.

    A scale that underflowed below the smallest normal float (the
    search in ln scale ran off) carries boundary=True.
    """
    weights = _clean_density(density)
    _require_spread(weights)
    k0 = max(weights[0], 1e-6)
    starts = [(math.log(k0), a) for a in _POW_EXPONENT_STARTS]
    best, used = _run_starts(kernels.KIND_POW, False, weights, starts)
    x, y, f, iters, ok = best
    scale = math.exp(x)
    return FitResult(PowerLaw(scale=scale, exponent=y), objective=f,
                     converged=ok, starts_used=used, iterations=iters,
                     boundary=scale < sys.float_info.min)


def fit_family(density, tag: str, truncated: bool = False) -> FitResult:
    """Fit any family by tag, choosing its natural estimator."""
    if tag in ("geometric", "exponential"):
        return fit_closed_form(density, tag)
    if tag in ("discrete_weibull", "beta_binomial"):
        return fit_mle(density, tag, truncated=truncated)
    if tag == "power_law":
        return fit_power_law(density)
    raise ValueError(f"unknown family tag {tag!r}")
