#!/usr/bin/env python3
"""Benchmark the fitting kernels in lobfit.kernels.

Each workload runs a fixed call sequence through the two entry points
(``objective`` and ``minimize``) and reports its best wall time.  The
histograms are multinomial draws from known curves, matching what the
fitting layer feeds the kernels in production.  For end-to-end and
per-layer numbers of the whole pipeline use ``perfbench/run.py``.

Run:

    python3 benchmarks/bench_kernels.py
    python3 benchmarks/bench_kernels.py --repeats 5
"""
import argparse
import math
import time

import numpy as np

from lobfit import dist, kernels

_DW_STARTS = [(math.log(q / (1.0 - q)), math.log(b))
              for q in (0.1, 0.3, 0.5, 0.7, 0.9)
              for b in (0.25, 0.5, 1.0, 2.0, 4.0)]
_BB_STARTS = [(math.log(a), math.log(b))
              for a in (0.1, 0.5, 2.5, 12.5, 62.5)
              for b in (0.1, 0.5, 2.5, 12.5, 62.5)]


def multi_start_fit(kind, truncated, weights, starts):
    best = None
    for z0, z1 in starts:
        if not math.isfinite(kernels.objective(kind, truncated, weights,
                                               z0, z1)):
            continue
        run = kernels.minimize(kind, truncated, weights, z0, z1)
        if best is None or run[2] < best[2]:
            best = run
    return best


def objective_sweep(kind, weights, grid):
    total = 0.0
    for z0, z1 in grid:
        v = kernels.objective(kind, False, weights, z0, z1)
        if math.isfinite(v):
            total += v
    return total


def timed(fn, repeats):
    best = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
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
    ]

    name_width = max(len(name) for name, _ in workloads)
    header = f"{'workload':<{name_width}}  {'time':>10}"
    print(header)
    print("-" * len(header))
    for name, job in workloads:
        elapsed = timed(job, args.repeats)
        print(f"{name:<{name_width}}  {elapsed * 1e3:>8.1f}ms")


if __name__ == "__main__":
    main()
