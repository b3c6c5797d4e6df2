"""``lobfit fit``: fit the families to each instance and score them.

Only this command loads this module.  It loads ``rates``, ``dist``,
``kernels``, ``stats`` and the fork pool in ``lobfit.pool``, and not
``feed``; without bytecode caches, a command compiles every module it
imports.  It imports nothing from ``lobfit.cli``.
"""

from __future__ import annotations

import functools
import json
import math
import os
import re
import statistics

from lobfit import dist, rates, stats
from lobfit.errors import (DomainError, InsufficientData, LobfitError,
                           ZeroVariance, warn)
from lobfit.pool import _map_on_cpus
from lobfit.rates import Granularity, Side

_COMPARISONS = (("dw_vs_bb", "discrete_weibull", "beta_binomial"),
                ("dw_vs_pow", "discrete_weibull", "power_law"))


def parse_families(text: str) -> list[str]:
    shorthands = dist.SHORTHANDS
    tags = []
    for part in text.split(","):
        tag = shorthands.get(part.strip())
        if tag is None:
            raise ValueError(
                f"unknown family {part.strip()!r}; "
                f"choose from {','.join(shorthands)}")
        if tag not in tags:
            tags.append(tag)
    return sorted(tags, key=list(shorthands.values()).index)


def _timestep(granularity: Granularity, side: Side) -> str:
    if granularity is Granularity.MONTHLY:
        return "monthly"
    return f"{granularity.value}_{side.name.lower()}"


_TIMESTEP_ORDER = tuple(dict.fromkeys(_timestep(g, s)
                                      for g in Granularity for s in Side))


def _failure_reason(exc: LobfitError) -> str:
    """Snake-case error class name, e.g. DomainError -> domain_error."""
    return re.sub(r"(?<!^)(?=[A-Z])", "_", type(exc).__name__).lower()


def _fit_instance(inst: dict, families, truncated: bool) -> dict:
    density = inst["density"]
    key = inst["key"]
    record = {
        "bucket_key": key.label,
        "side": key.side.name.lower(),
        "granularity": key.granularity.value,
        "timestep": _timestep(key.granularity, key.side),
        "total_quantity": sum(inst["quantity"]),
        "fits": {},
        "failed": {},
    }
    l1 = {}
    for tag in families:
        # one family failing on this instance must not stop the others
        try:
            result = dist.fit_family(density, tag, truncated=truncated)
            curve = dist.tick_curve(result.family, ticks=len(density))
        except LobfitError as exc:
            record["failed"][tag] = _failure_reason(exc)
            continue
        l1[tag] = stats.l1_error(density, curve)
        record["fits"][tag] = {
            "params": result.family.params(),
            "objective": (result.objective
                          if math.isfinite(result.objective) else None),
            "converged": result.converged,
            "boundary": result.boundary,
            "starts_used": result.starts_used,
            "iterations": result.iterations,
            "l1_error": l1[tag],
        }
    for tag, score in stats.nps(l1).items():
        record["fits"][tag]["nps"] = score
    return record


def cmd_fit(args) -> None:
    families = parse_families(args.families)
    instances = rates.read_rates_csv(args.rates)
    if not instances:
        raise LobfitError(f"no instances in {args.rates}")
    # each instance's fit depends on no other, and the pool keeps the
    # reader's BucketKey order, so the outputs are the same bytes for any
    # number of workers
    fit_one = functools.partial(_fit_instance, families=families,
                                truncated=args.truncated_likelihood)
    records = _map_on_cpus(fit_one, instances)

    scores: dict[tuple[str, str], list[float]] = {}
    for record in records:
        for tag, fit in record["fits"].items():
            scores.setdefault((record["timestep"], tag), []).append(
                fit["nps"])
            # as for objective: fits.json stays standard JSON
            if not math.isfinite(fit["nps"]):
                fit["nps"] = None

    os.makedirs(args.out, exist_ok=True)
    payload = {
        "families": list(families),
        "truncated_likelihood": bool(args.truncated_likelihood),
        "instances": records,
    }
    with open(os.path.join(args.out, "fits.json"), "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")

    with open(os.path.join(args.out, "nps_summary.csv"), "w",
              newline="") as fh:
        fh.write("timestep,family,mean_nps,sd_nps,instances\n")
        for timestep in _TIMESTEP_ORDER:
            for tag in families:
                values = scores.get((timestep, tag))
                if not values:
                    continue
                if len(values) == 1:
                    sd = 0.0
                elif all(math.isfinite(v) for v in values):
                    sd = statistics.stdev(values)
                else:  # the spread of an infinite score is undefined
                    sd = math.nan
                fh.write(f"{timestep},{tag},{statistics.mean(values)!r},"
                         f"{sd!r},{len(values)}\n")

    with open(os.path.join(args.out, "welch_tests.csv"), "w",
              newline="") as fh:
        fh.write("timestep,comparison,t_statistic,degrees_of_freedom,"
                 "p_value,degenerate\n")
        for timestep in _TIMESTEP_ORDER:
            for name, left, right in _COMPARISONS:
                a = scores.get((timestep, left))
                b = scores.get((timestep, right))
                if not a or not b:
                    continue
                try:
                    result = stats.welch_t_test(a, b, tails=args.tail)
                except (DomainError, InsufficientData, ZeroVariance) as exc:
                    warn(f"{timestep} {name}: {exc}")
                    continue
                fh.write(f"{timestep},{name},{result.statistic!r},"
                         f"{result.df!r},{result.p_value!r},"
                         f"{str(result.degenerate).lower()}\n")
