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
``FAMILY_TAGS`` maps each tag to its class, and ``SHORTHANDS`` each
shorthand to its tag, both in the families' canonical order.

The families, ``FitResult`` and the generator's spec are records:
plain ``__slots__`` classes on ``Record``, which gives them their
constructor, equality, hash, repr, immutability and ``params()``, and
``arity()``, the number of parameters a family's shorthand takes.  No
code is generated for them at import.

``tick_curve`` renormalizes a family's masses over the tick window,
which is how curves are compared against observed densities, and
``fit_family`` fits a family by tag.  The discrete Weibull's and the
beta-binomial's masses are the cells their likelihoods weight, from
lobfit.kernels.  Likelihood fits maximize the weighted log-likelihood
of the raw (untruncated) pmf by default; pass truncated=True to
condition the likelihood on the window instead, which matters only
when the generating parameters put visible mass beyond it, and never
for the beta-binomial, whose support is the window.

The geometric and exponential estimators are closed-form inversions of
the weighted mean tick.  The two-parameter likelihoods and the power
law go through ``_search``, a derivative-free simplex search in
transformed coordinates (see lobfit.kernels) from each of a grid of
starts; the best final value wins.  The grids live here, built once
in those search coordinates: ``_DW_STARTS`` and ``_BB_STARTS``, and
the power law's exponents, paired per density with a ln-scale start.
"""

from __future__ import annotations

import math
import sys

from lobfit import kernels, rates, stats
from lobfit.errors import DegenerateData, DomainError, NonConvergence

__all__ = [
    "TICKS",
    "Record",
    "Geometric",
    "DiscreteWeibull",
    "BetaBinomial",
    "Exponential",
    "PowerLaw",
    "FitResult",
    "FAMILY_TAGS",
    "SHORTHANDS",
    "tick_curve",
    "fit_family",
]

# the families are fitted on the tallied arrival window
TICKS = rates.ARRIVAL_TICKS

# multi-start grids in search coordinates; q is even in log-odds
_DW_STARTS = tuple((math.log(q / (1.0 - q)), math.log(b))
                   for q in (0.1, 0.3, 0.5, 0.7, 0.9)
                   for b in (0.25, 0.5, 1.0, 2.0, 4.0))
_BB_STARTS = tuple((math.log(a), math.log(b))
                   for a in (0.1, 0.5, 2.5, 12.5, 62.5)
                   for b in (0.1, 0.5, 2.5, 12.5, 62.5))
_POW_EXPONENT_STARTS = (0.0, 0.5, 1.0, 1.5, 2.5)


class Record:
    """An immutable record of named fields.

    A subclass names its fields in ``__slots__`` and gives the defaults
    of its last fields in ``_defaults``, as a function gives its own,
    and is built from the fields by position or by name.  ``_check``
    runs once the fields are set and raises if they make no valid
    record.  Two records are equal when they are of the same class and
    their fields are equal; a record hashes by its fields, prints as
    ``Name(field=value, ...)`` and refuses assignment.  ``params()``
    maps each field's name to its value.
    """

    __slots__ = ()
    _defaults: tuple = ()

    def __init__(self, *args, **kwargs):
        cls = type(self)
        fields = cls.__slots__
        if len(args) > len(fields):
            raise TypeError(f"{cls.__name__}() takes at most {len(fields)} "
                            f"arguments, got {len(args)}")
        first_default = len(fields) - len(cls._defaults)
        for k, name in enumerate(fields):
            if k < len(args):
                if name in kwargs:
                    raise TypeError(f"{cls.__name__}() got two values for "
                                    f"{name!r}")
                value = args[k]
            elif name in kwargs:
                value = kwargs.pop(name)
            elif k >= first_default:
                value = cls._defaults[k - first_default]
            else:
                raise TypeError(f"{cls.__name__}() is missing {name!r}")
            object.__setattr__(self, name, value)
        if kwargs:
            raise TypeError(f"{cls.__name__}() has no field "
                            f"{next(iter(kwargs))!r}")
        self._check()

    @classmethod
    def arity(cls) -> int:
        """The number of fields without a default."""
        return len(cls.__slots__) - len(cls._defaults)

    def _check(self) -> None:
        """Raise if the fields make no valid record."""

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def params(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}"
                           for name, value in self.params().items())
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._fields()


class FitResult(Record):
    """Outcome of one family fit on one observed density: ``family``,
    ``objective``, ``converged``, ``starts_used``, ``iterations`` and
    ``boundary``."""

    __slots__ = ("family", "objective", "converged", "starts_used",
                 "iterations", "boundary")
    _defaults = (math.nan, True, 1, 0, False)


class Geometric(Record):
    """P(X = x) = p (1-p)^(x-1) on x = 1, 2, ...

    p = 1 is the degenerate all-mass-at-tick-1 boundary, reachable from
    closed-form fits of such data; fits flag it.
    """

    __slots__ = ("p",)
    tag = "geometric"
    shorthand = "geo"

    def _check(self):
        if not 0.0 < self.p <= 1.0:
            raise DomainError(f"geometric needs 0 < p <= 1, got {self.p}")

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
        return FitResult(Geometric(p=min(1.0 / m, 1.0)), boundary=(m == 1.0))


class DiscreteWeibull(Record):
    __slots__ = ("q", "beta")
    tag = "discrete_weibull"
    shorthand = "dw"

    def _check(self):
        if not 0.0 < self.q < 1.0:
            raise DomainError(f"discrete Weibull needs 0 < q < 1, got {self.q}")
        if not self.beta > 0.0:
            raise DomainError(
                f"discrete Weibull needs beta > 0, got {self.beta}")

    def masses(self, ticks: int) -> list[float]:
        return kernels.dw_masses(math.log(self.q), self.beta, ticks)

    @staticmethod
    def fit(weights, truncated: bool) -> FitResult:
        """Weighted maximum likelihood over a (q, beta) grid of starts.

        An objective below the weights' entropy (the search ran off to
        q -> 0, beta -> inf, where the NLL is rounding noise) carries
        boundary=True.
        """
        return _search(kernels.KIND_DW, truncated, weights, _DW_STARTS,
                       lambda x, y: DiscreteWeibull(q=_sigmoid(x),
                                                    beta=math.exp(y)),
                       lambda fitted, f: _below_entropy(f, weights))


class BetaBinomial(Record):
    __slots__ = ("alpha", "beta", "trials")
    _defaults = (TICKS - 1,)
    tag = "beta_binomial"
    shorthand = "bb"

    def _check(self):
        if not (self.alpha > 0.0 and self.beta > 0.0):
            raise DomainError(
                f"beta-binomial needs alpha, beta > 0, got "
                f"{self.alpha}, {self.beta}")
        if self.trials < 1:
            raise DomainError(f"beta-binomial needs trials >= 1")

    def masses(self, ticks: int) -> list[float]:
        n = self.trials
        if n != ticks - 1:
            raise DomainError(
                f"beta-binomial with {n} trials does not span "
                f"a {ticks}-tick window")
        try:
            return [math.exp(lp) for lp in
                    kernels.bb_log_masses(self.alpha, self.beta, ticks)]
        except OverflowError:
            # at saturated fits (alpha, beta ~ 1e16) the log mass is
            # rounding noise, large enough to overflow exp(); past
            # ~2.5e305 lgamma itself overflows
            raise DomainError(
                f"beta-binomial mass overflows at alpha={self.alpha}, "
                f"beta={self.beta}") from None

    @staticmethod
    def fit(weights, truncated: bool) -> FitResult:
        """Weighted maximum likelihood over an (alpha, beta) grid of starts.

        An objective below the weights' entropy (the search ran off
        towards the binomial limit, where the NLL is rounding noise)
        carries boundary=True.
        """
        return _search(kernels.KIND_BB, truncated, weights, _BB_STARTS,
                       lambda x, y: BetaBinomial(alpha=math.exp(x),
                                                 beta=math.exp(y),
                                                 trials=len(weights) - 1),
                       lambda fitted, f: _below_entropy(f, weights))


class Exponential(Record):
    __slots__ = ("rate",)
    tag = "exponential"
    shorthand = "exp"

    def _check(self):
        if not self.rate > 0.0:
            raise DomainError(f"exponential needs rate > 0, got {self.rate}")

    def masses(self, ticks: int) -> list[float]:
        return [math.exp(-self.rate * (i - 1)) - math.exp(-self.rate * i)
                for i in range(1, ticks + 1)]

    @staticmethod
    def fit(weights, truncated: bool) -> FitResult:
        """rate = 1/m for the weighted mean tick m."""
        return FitResult(Exponential(rate=1.0 / _mean_tick(weights)))


class PowerLaw(Record):
    __slots__ = ("scale", "exponent")
    tag = "power_law"
    shorthand = "pow"

    def _check(self):
        if not self.scale > 0.0:
            raise DomainError(f"power law needs scale > 0, got {self.scale}")

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
        return _search(kernels.KIND_POW, False, weights,
                       _pow_starts(weights),
                       lambda x, y: PowerLaw(scale=math.exp(x), exponent=y),
                       lambda fitted, f: fitted.scale < sys.float_info.min)


FAMILY_TAGS = {cls.tag: cls for cls in (Geometric, DiscreteWeibull,
                                        BetaBinomial, Exponential, PowerLaw)}
SHORTHANDS = {cls.shorthand: tag for tag, cls in FAMILY_TAGS.items()}
_FAMILIES = tuple(FAMILY_TAGS.values())


def tick_curve(family, ticks: int = TICKS) -> list[float]:
    """The family's density renormalized over ticks 1..ticks.

    A curve whose masses leave the float range raises DomainError.
    """
    if not isinstance(family, _FAMILIES):
        raise TypeError(f"not a model family: {family!r}")
    raw = family.masses(ticks)
    total = stats.ordered_sum(raw)
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


def _below_entropy(objective: float, weights) -> bool:
    """True when a weighted NLL undercuts the weights' entropy H(w).

    The NLL of any pmf whose masses sum to at most 1 is at least
    H(w) = -sum w ln w (Gibbs' inequality), so a fit that reports less
    has run off to where its objective is rounding noise; the 1e-9
    margin leaves exact curves, which land within rounding of H(w),
    unflagged.
    """
    entropy = -stats.ordered_sum(w * math.log(w) for w in weights
                                 if w > 0.0)
    return objective < entropy * (1.0 - 1e-9)


def _sigmoid(z: float) -> float:
    if z >= 0.0:
        return 1.0 / (1.0 + math.exp(-z))
    e = math.exp(z)
    return e / (1.0 + e)


def _pow_starts(weights) -> list[tuple[float, float]]:
    # the ln scale starts at the first-tick mass
    k0 = math.log(max(weights[0], 1e-6))
    return [(k0, a) for a in _POW_EXPONENT_STARTS]


def _search(kind: int, truncated: bool, weights, starts, family,
            at_boundary) -> FitResult:
    """The best search of ``kind`` from ``starts``, mapped to its family
    by ``family(z0, z1)`` and flagged by ``at_boundary(fitted, f)``."""
    if sum(1 for w in weights if w > 0.0) < 2:
        raise DegenerateData(
            "all mass on a single tick cannot identify two parameters")
    # one bind per family fit; a start whose probe is finite begins its
    # search with the probe as the first vertex, not evaluated again
    fn = kernels.bind(kind, truncated, weights)
    best = None
    used = 0
    for z0, z1 in starts:
        f0 = fn(z0, z1)
        if not math.isfinite(f0):
            continue
        used += 1
        x, y, f, iters, ok = kernels.minimize(kind, truncated, weights,
                                              z0, z1, fn, f0)
        if math.isfinite(f) and (best is None or f < best[2]):
            best = (x, y, f, iters, ok)
    if best is None:
        raise NonConvergence("no start produced a finite objective")
    x, y, f, iters, ok = best
    fitted = family(x, y)
    return FitResult(fitted, objective=f, converged=ok, starts_used=used,
                     iterations=iters, boundary=at_boundary(fitted, f))
