#!/usr/bin/env python3
"""Derive the fit workload's traffic from the 40-day acceptance run.

Run from the root of a lobfit checkout (about two minutes):

    python3 perfbench/derive_fit_traffic.py

It runs ``lobfit synth`` with the acceptance spec (seed 20170801, 40
days, 3000 orders a day, DW/DW, fraction cancels at p = 0.08), then
``lobfit rates`` and ``lobfit fit`` on the result, in
``.perfbench/derive/``.  From ``rates.csv`` it takes how many (bucket,
side) instances each granularity has and the spread of their bucket
totals; from ``fits.json`` the spread of each family's fitted
parameters.  The summary goes to ``perfbench/reference/fit_traffic.json``,
which ``workloads.fit_corpus`` reads.  The fit workload draws its
corpus from that summary, not from synth or rates, so a later change to
either cannot change its input.
"""

from __future__ import annotations

import csv
import json
import os
import shutil
import statistics
import sys

import checks
import run
import workloads

ACCEPTANCE = ["--seed", "20170801", "--days", "40",
              "--orders-per-day", "3000",
              "--buy-model", "dw:0.8,1.2", "--sell-model", "dw:0.75,1.4",
              "--cancel-probability", "0.08", "--cancel-style", "fraction"]
# Each generating parameter is drawn from the 10th to the 90th
# percentile of the acceptance fits; totals likewise, log-uniformly.
LOW_Q, HIGH_Q = 10, 90


def percentiles(values):
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return {"min": min(values), f"p{LOW_Q}": cuts[LOW_Q - 1],
            "p50": statistics.median(values), f"p{HIGH_Q}": cuts[HIGH_Q - 1],
            "max": max(values)}


def summarize(rates_csv, fits_json) -> dict:
    totals = {}
    with open(rates_csv, newline="") as fh:
        for row in csv.DictReader(fh):
            key = (row["bucket_key"], row["side"])
            totals[key] = totals.get(key, 0) + int(row["quantity"])
    by_granularity = {}
    for (label, _), total in totals.items():
        by_granularity.setdefault(label.split(":")[0], []).append(total)
    params = {family: {name: [] for name in names}
              for family, names in workloads.GENERATING.items()}
    for inst in checks.load_fits(fits_json).values():
        for family, fit in inst["fits"].items():
            for name in workloads.GENERATING[family]:
                params[family][name].append(fit["params"][name])
    return {
        "source": "lobfit synth " + " ".join(ACCEPTANCE)
                  + "; lobfit rates; lobfit fit",
        "instances": {g: len(v) for g, v in sorted(by_granularity.items())},
        "totals": {g: percentiles(v)
                   for g, v in sorted(by_granularity.items())},
        "params": {family: {name: percentiles(values)
                            for name, values in names.items()}
                   for family, names in params.items()},
    }


def main() -> int:
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "lobfit", "cli.py")):
        print("derive_fit_traffic: run from the root of a lobfit checkout",
              file=sys.stderr)
        return 2
    work_dir = os.path.join(root, ".perfbench", "derive")
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    run.COMMAND_TIMEOUT_S = 600     # the 40-day synth alone takes ~30 s
    runner = run.Runner(root, work_dir)
    for args in (["synth", *ACCEPTANCE],
                 ["rates", os.path.join(work_dir, "stream.lobf")],
                 ["fit", os.path.join(work_dir, "rates.csv")]):
        result = runner.lobfit(args + ["--out", work_dir])
        if result.returncode != 0:
            print(f"lobfit {args[0]} failed: {result.summary()}",
                  file=sys.stderr)
            return 1
    summary = summarize(os.path.join(work_dir, "rates.csv"),
                        os.path.join(work_dir, "fits.json"))
    with open(workloads.FIT_TRAFFIC, "w") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(json.dumps(summary["instances"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
