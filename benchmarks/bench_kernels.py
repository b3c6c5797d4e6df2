#!/usr/bin/env python3
"""Benchmark the fitting kernels in lobfit.kernels.

Each workload runs a fixed call sequence through the two entry points
(``objective`` and ``minimize``) and reports its best wall time.  The
histograms are multinomial draws from known curves, matching what the
fitting layer feeds the kernels in production.  A second table gives
the cost of one ``objective`` call per kind, timed on a 5 x 5 grid of
points around each histogram's optimum, which is where fits spend
their evaluations.  A third table gives instances/s per family through
``dist.fit_family`` in this one process, the unit a ``lobfit fit``
worker runs.  The multi-start fits use ``dist``'s own start grids and
loop.  For end-to-end and per-layer numbers of the whole pipeline use
``perfbench/run.py``.

Run:

    python3 benchmarks/bench_kernels.py
    python3 benchmarks/bench_kernels.py --repeats 5
"""
import argparse
import functools
import math
import time

import numpy as np

from lobfit import dist, kernels

# the start grids of DiscreteWeibull.fit and BetaBinomial.fit in dist;
# the power law's are per density
_DW_STARTS = [(dist._logit(q), math.log(b))
              for q in dist._Q_STARTS for b in dist._BETA_STARTS]
_BB_STARTS = [(math.log(a), math.log(b))
              for a in dist._AB_STARTS for b in dist._AB_STARTS]
_OFFSETS = (-0.5, -0.25, 0.0, 0.25, 0.5)
_CALL_ROUNDS = 20


def multi_start_fit(kind, truncated, weights, starts):
    """The winning (z0*, z1*, f*, iters, ok) of dist's multi-start loop."""
    return dist._run_starts(kind, truncated, weights, starts)[0]


def objective_sweep(kind, weights, grid):
    total = 0.0
    for z0, z1 in grid:
        v = kernels.objective(kind, False, weights, z0, z1)
        if math.isfinite(v):
            total += v
    return total


def starts_for(kind, weights):
    if kind == kernels.KIND_DW:
        return _DW_STARTS
    if kind == kernels.KIND_BB:
        return _BB_STARTS
    # as dist.PowerLaw.fit: the scale starts at the first-tick mass
    k0 = math.log(max(weights[0], 1e-6))
    return [(k0, a) for a in dist._POW_EXPONENT_STARTS]


def grid_around_optimum(kind, truncated, weights):
    z0, z1, *_ = multi_start_fit(kind, truncated, weights,
                                 starts_for(kind, weights))
    return [(weights, z0 + a, z1 + b) for a in _OFFSETS for b in _OFFSETS]


def objective_calls(kind, truncated, points):
    for weights, z0, z1 in points:
        kernels.objective(kind, truncated, weights, z0, z1)


def fit_all(tag, densities):
    for density in densities:
        dist.fit_family(density, tag)


def best_times(jobs, repeats):
    """Best wall time of each job over ``repeats`` rounds.

    Each round runs every job once, so a slow spell of a shared host
    costs one repeat of each job rather than every repeat of one.
    """
    best = [math.inf] * len(jobs)
    for _ in range(repeats):
        for i, job in enumerate(jobs):
            t0 = time.perf_counter()
            job()
            best[i] = min(best[i], time.perf_counter() - t0)
    return best


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=3,
                        help="take the best of this many timings")
    parser.add_argument("--instances", type=int, default=20,
                        help="histograms per batch workload")
    args = parser.parse_args()

    rng = np.random.default_rng(90210)
    dw_curve = dist.tick_curve(dist.DiscreteWeibull(0.8, 1.2))
    bb_curve = dist.tick_curve(dist.BetaBinomial(2.0, 6.0))
    dw_hists = [tuple(map(float, rng.multinomial(30_000, dw_curve)))
                for _ in range(args.instances)]
    bb_hists = [tuple(map(float, rng.multinomial(30_000, bb_curve)))
                for _ in range(args.instances)]
    # the power law is fitted to densities, as dist does
    pow_densities = [tuple(v / sum(w) for v in w) for w in dw_hists]
    sweep_grid = [(z0 / 4.0, z1 / 4.0)
                  for z0 in range(-12, 13) for z1 in range(-6, 7)]

    workloads = [
        ("objective sweep, weibull (325 points)",
         lambda: objective_sweep(kernels.KIND_DW, dw_hists[0], sweep_grid)),
        ("objective sweep, beta-binomial (325 points)",
         lambda: objective_sweep(kernels.KIND_BB, bb_hists[0], sweep_grid)),
        (f"weibull fit, 25 starts x {args.instances} histograms",
         lambda: [multi_start_fit(kernels.KIND_DW, True, w, _DW_STARTS)
                  for w in dw_hists]),
        (f"beta-binomial fit, 25 starts x {args.instances} histograms",
         lambda: [multi_start_fit(kernels.KIND_BB, False, w, _BB_STARTS)
                  for w in bb_hists]),
        (f"beta-binomial fit, truncated, 25 starts x {args.instances} "
         f"histograms",
         lambda: [multi_start_fit(kernels.KIND_BB, True, w, _BB_STARTS)
                  for w in bb_hists]),
        (f"power-law fit, 5 starts x {args.instances} densities",
         lambda: [multi_start_fit(kernels.KIND_POW, False, w,
                                  starts_for(kernels.KIND_POW, w))
                  for w in pow_densities]),
    ]
    per_call = [
        ("weibull", kernels.KIND_DW, False, dw_hists),
        ("weibull, truncated", kernels.KIND_DW, True, dw_hists),
        ("beta-binomial", kernels.KIND_BB, False, bb_hists),
        ("beta-binomial, truncated", kernels.KIND_BB, True, bb_hists),
        ("power law", kernels.KIND_POW, False, pow_densities),
    ]

    name_width = max(len(name) for name, _ in workloads)
    header = f"{'workload':<{name_width}}  {'time':>10}"
    print(header)
    print("-" * len(header))
    times = best_times([job for _, job in workloads], args.repeats)
    for (name, _), elapsed in zip(workloads, times):
        print(f"{name:<{name_width}}  {elapsed * 1e3:>8.1f}ms")

    print()
    header = f"{'objective call':<{name_width}}  {'time':>10}"
    print(header)
    print("-" * len(header))
    calls = []  # (name, job, objective calls per job)
    for name, kind, truncated, hists in per_call:
        points = [p for w in hists
                  for p in grid_around_optimum(kind, truncated, w)]
        calls.append((name, functools.partial(objective_calls, kind,
                                              truncated, points),
                       len(points)))
    # a few ms per job, so these get many more rounds than the fits
    times = best_times([job for _, job, _ in calls],
                       _CALL_ROUNDS * args.repeats)
    for (name, _, count), elapsed in zip(calls, times):
        print(f"{name:<{name_width}}  {elapsed / count * 1e6:>8.2f}us")

    # what one lobfit fit worker does per instance and family
    corpus = dw_hists + bb_hists
    print()
    header = (f"{f'dist.fit_family, {len(corpus)} instances':<{name_width}}"
              f"  {'instances/s':>12}")
    print(header)
    print("-" * len(header))
    fits = [(tag, functools.partial(fit_all, tag, corpus))
            for tag in dist.FAMILY_TAGS]
    times = best_times([job for _, job in fits], args.repeats)
    for (tag, _), elapsed in zip(fits, times):
        print(f"{tag:<{name_width}}  {len(corpus) / elapsed:>12.1f}")


if __name__ == "__main__":
    main()
