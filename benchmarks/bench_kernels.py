#!/usr/bin/env python3
"""Benchmark the fitting kernels in lobfit.kernels.

Each workload runs a fixed call sequence and reports its best wall
time.  The histograms are multinomial draws from known curves, matching
what the fitting layer feeds the kernels in production.  The script
computes those curves itself, with numpy, as ``perfbench/workloads.py``
does, so a change to ``dist`` or ``kernels`` cannot move the corpus.  The objective
sweeps and the second table time what a search runs: the objective
bound once per histogram with ``bind`` and then called.  The second
table gives the cost of one such call per kind, timed on a 5 x 5 grid
of points around each histogram's optimum, which is where fits spend
their evaluations.  A third table gives instances/s per family through
``dist.fit_family`` in this one process, the unit a ``lobfit fit``
worker runs, and the objective evaluations per ``fit_family`` call,
counted by wrapping ``kernels.bind``.  The multi-start fits run
``dist``'s own start grids and driver, ``dist._search``.  The Weibull
is fitted and called both untruncated, as ``lobfit fit`` runs it by
default, and truncated; the beta-binomial's truncated objective is its
untruncated one, so it has one row of each.  For end-to-end and
per-layer numbers of the whole pipeline use ``perfbench/run.py``.

``--append PATH`` appends one record of the run to the JSON list in
PATH, in ``bench_replay.py``'s format: each row's unit is ms per
workload, us per objective call or instances/s per family, with the
median and quartiles over the repeats, and a family row also holds its
evaluations per fit.

Run:

    python3 benchmarks/bench_kernels.py
    python3 benchmarks/bench_kernels.py --repeats 5
    python3 benchmarks/bench_kernels.py --append BENCH_stages.json
"""
import argparse
import functools
import math

import numpy as np

from bench_replay import append_record, round_times, stage_row
from lobfit import dist, kernels

_OFFSETS = (-0.5, -0.25, 0.0, 0.25, 0.5)
_CALL_ROUNDS = 20


def weibull_curve(q, beta):
    """The discrete Weibull's mass on ticks 1..TICKS, renormalized."""
    x = np.arange(1, dist.TICKS + 1, dtype=float)
    raw = q ** ((x - 1.0) ** beta) - q ** (x ** beta)
    return raw / raw.sum()


def beta_binomial_curve(alpha, beta):
    """The beta-binomial's mass on ticks 1..TICKS over TICKS - 1 trials."""
    n = dist.TICKS - 1

    def lbeta(a, b):
        return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)

    raw = np.array([math.exp(math.lgamma(n + 1) - math.lgamma(k + 1)
                             - math.lgamma(n - k + 1)
                             + lbeta(k + alpha, n - k + beta)
                             - lbeta(alpha, beta))
                    for k in range(n + 1)])
    return raw / raw.sum()


def multi_start_fit(kind, truncated, weights, starts):
    """dist's multi-start search; the fit's family is the winning (z0, z1)."""
    return dist._search(kind, truncated, weights, starts,
                        lambda z0, z1: (z0, z1), lambda fitted, f: False)


def objective_sweep(kind, weights, grid):
    fn = kernels.bind(kind, False, weights)
    total = 0.0
    for z0, z1 in grid:
        v = fn(z0, z1)
        if math.isfinite(v):
            total += v
    return total


def starts_for(kind, weights):
    if kind == kernels.KIND_DW:
        return dist._DW_STARTS
    if kind == kernels.KIND_BB:
        return dist._BB_STARTS
    return dist._pow_starts(weights)


def grid_around_optimum(kind, truncated, weights):
    """The bound objective with each point of a grid around its optimum."""
    z0, z1 = multi_start_fit(kind, truncated, weights,
                             starts_for(kind, weights)).family
    fn = kernels.bind(kind, truncated, weights)
    return [(fn, z0 + a, z1 + b) for a in _OFFSETS for b in _OFFSETS]


def objective_calls(points):
    for fn, z0, z1 in points:
        fn(z0, z1)


def fit_all(tag, densities):
    for density in densities:
        dist.fit_family(density, tag)


def evaluations_per_fit(tag, densities):
    """Objective evaluations per ``dist.fit_family`` call."""
    count = 0
    bind = kernels.bind

    def counting_bind(*args):
        fn = bind(*args)

        def counted(z0, z1):
            nonlocal count
            count += 1
            return fn(z0, z1)

        return counted

    kernels.bind = counting_bind
    try:
        fit_all(tag, densities)
    finally:
        kernels.bind = bind
    return count / len(densities)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=3,
                        help="take the best of this many timings")
    parser.add_argument("--instances", type=int, default=20,
                        help="histograms per batch workload")
    parser.add_argument("--append", metavar="PATH",
                        help="append this run's record to the JSON list "
                             "in PATH")
    args = parser.parse_args()

    rng = np.random.default_rng(90210)
    dw_curve = weibull_curve(0.8, 1.2)
    bb_curve = beta_binomial_curve(2.0, 6.0)
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
        (f"weibull fit, untruncated, 25 starts x {args.instances} "
         f"histograms",
         lambda: [multi_start_fit(kernels.KIND_DW, False, w,
                                  dist._DW_STARTS)
                  for w in dw_hists]),
        (f"beta-binomial fit, 25 starts x {args.instances} histograms",
         lambda: [multi_start_fit(kernels.KIND_BB, False, w,
                                  dist._BB_STARTS)
                  for w in bb_hists]),
        (f"weibull fit, truncated, 25 starts x {args.instances} "
         f"histograms",
         lambda: [multi_start_fit(kernels.KIND_DW, True, w, dist._DW_STARTS)
                  for w in dw_hists]),
        (f"power-law fit, 5 starts x {args.instances} densities",
         lambda: [multi_start_fit(kernels.KIND_POW, False, w,
                                  dist._pow_starts(w))
                  for w in pow_densities]),
    ]
    per_call = [
        ("weibull", kernels.KIND_DW, False, dw_hists),
        ("weibull, truncated", kernels.KIND_DW, True, dw_hists),
        ("beta-binomial", kernels.KIND_BB, False, bb_hists),
        ("power law", kernels.KIND_POW, False, pow_densities),
    ]

    name_width = max(len(name) for name, _ in workloads)
    header = f"{'workload':<{name_width}}  {'time':>10}"
    print(header)
    print("-" * len(header))
    rows = []
    times = round_times([job for _, job in workloads], args.repeats)
    for (name, _), samples in zip(workloads, times):
        print(f"{name:<{name_width}}  {min(samples) * 1e3:>8.1f}ms")
        rows.append(stage_row(name, "ms", [t * 1e3 for t in samples]))

    print()
    header = f"{'objective call':<{name_width}}  {'time':>10}"
    print(header)
    print("-" * len(header))
    calls = []  # (name, job, objective calls per job)
    for name, kind, truncated, hists in per_call:
        points = [p for w in hists
                  for p in grid_around_optimum(kind, truncated, w)]
        calls.append((name, functools.partial(objective_calls, points),
                       len(points)))
    # a few ms per job, so these get many more rounds than the fits
    times = round_times([job for _, job, _ in calls],
                        _CALL_ROUNDS * args.repeats)
    for (name, _, count), samples in zip(calls, times):
        print(f"{name:<{name_width}}  {min(samples) / count * 1e6:>8.2f}us")
        rows.append(stage_row(f"objective call, {name}", "us",
                              [t / count * 1e6 for t in samples]))

    # what one lobfit fit worker does per instance and family
    corpus = dw_hists + bb_hists
    print()
    header = (f"{f'dist.fit_family, {len(corpus)} instances':<{name_width}}"
              f"  {'instances/s':>12}  {'evals/fit':>10}")
    print(header)
    print("-" * len(header))
    fits = [(tag, functools.partial(fit_all, tag, corpus))
            for tag in dist.FAMILY_TAGS]
    times = round_times([job for _, job in fits], args.repeats)
    for (tag, _), samples in zip(fits, times):
        evals = evaluations_per_fit(tag, corpus)
        print(f"{tag:<{name_width}}  {len(corpus) / min(samples):>12.1f}"
              f"  {evals:>10.1f}")
        row = stage_row(f"dist.fit_family, {tag}", "instances/s",
                        [len(corpus) / t for t in samples])
        rows.append(dict(row, evals_per_fit=evals))

    if args.append:
        append_record(args.append, "bench_kernels", args, rows)


if __name__ == "__main__":
    main()
