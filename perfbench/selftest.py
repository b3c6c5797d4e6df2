#!/usr/bin/env python3
"""Self-test of the benchmark harness at tiny size (about a minute and a half).

Run from the root of a lobfit checkout:

    python3 perfbench/selftest.py

It checks that

* every metric named in BENCHMARK.json is reported with its unit, on
  every workload, untraced and traced, with correct outputs and no
  failed operation;
* flipping any one of a spread of bytes in ``rates.csv`` makes the
  replay check fail, so ``outputs_ok`` turns to 0;
* traced and untraced iterations write identical outputs;
* a ``lobfit fit`` that exits nonzero is counted as failed, untraced
  and traced, and every metric is still reported.

Workload sizes are shrunk in-process; the harness code is the same.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys

import run
import workloads

FLIPS = 40


def shrink():
    workloads.Generate.days = 1
    workloads.Generate.orders_per_day = 400
    workloads.Replay.days = 1
    workloads.Replay.orders_per_day = 600
    workloads.Fit.instances = 5


class FailingFit(workloads.Fit):
    """A fit whose command exits nonzero: its rates.csv has a bad row."""

    name = "failing-fit"

    def prepare(self, work_dir):
        super().prepare(work_dir)
        with open(self.rates, "a") as fh:
            fh.write("daily:2017-08-01,buy,1,not-a-number,0.5\n")


def check_metrics(root, spec, failures):
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            args = argparse.Namespace(workload=name, seed=7, seconds=1.0,
                                      trace=trace)
            result = run.run(args, root)
            declared = spec["per_layer" if trace else "end_to_end"]
            got = result["metrics"]
            want = {d["name"]: d["unit"] for d in declared}
            if {k: v["unit"] for k, v in got.items()} != want:
                failures.append(f"{name} trace {trace}: metric names or "
                                f"units differ from BENCHMARK.json")
            if not (result["correct"] and result["failed"] == 0
                    and result["attempted"] > 0):
                failures.append(f"{name} trace {trace}: {result}")


def check_failure_accounting(root, spec, failures):
    """A failing command is counted and still gives every metric."""
    workloads.WORKLOADS[FailingFit.name] = FailingFit
    try:
        for trace in (0, 1):
            args = argparse.Namespace(workload=FailingFit.name, seed=7,
                                      seconds=1.0, trace=trace)
            result = run.run(args, root)
            declared = spec["per_layer" if trace else "end_to_end"]
            got = result["metrics"]
            if set(got) != {d["name"] for d in declared}:
                failures.append(f"failing fit trace {trace}: metrics "
                                f"missing")
            if result["correct"] or result["failed"] != result["attempted"]:
                failures.append(f"failing fit trace {trace}: failure not "
                                f"counted: {result}")
            if trace and (got["failed_share"]["value"] != 1.0
                          or got["outputs_ok"]["value"] != 0):
                failures.append("failing fit: failed_share or outputs_ok "
                                "wrong")
    finally:
        del workloads.WORKLOADS[FailingFit.name]


def check_flips_and_tracing(root, failures):
    work_dir = os.path.join(root, ".perfbench", "selftest")
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    runner = run.Runner(root, work_dir)
    for name, cls in workloads.WORKLOADS.items():
        workload = cls(7, runner)
        workload.prepare(work_dir)
        out_dir = os.path.join(work_dir, name)
        traced = run.run_iteration(workload, runner, out_dir, work_dir)
        plain = run.run_iteration(workload, runner, out_dir)
        if not traced.traces or traced.digests != plain.digests:
            failures.append(f"{name}: traced and untraced outputs differ")
        problems = workload.check(out_dir)
        if problems:
            failures.append(f"{name}: clean outputs fail the check: "
                            f"{problems}")
        if name != "replay":
            continue
        path = os.path.join(out_dir, "rates.csv")
        with open(path, "rb") as fh:
            clean = fh.read()
        for i in range(FLIPS):
            offset = i * (len(clean) - 1) // (FLIPS - 1)
            flipped = bytearray(clean)
            flipped[offset] ^= 0x01
            with open(path, "wb") as fh:
                fh.write(flipped)
            if not workload.check(out_dir):
                failures.append(f"flipping byte {offset} of rates.csv "
                                f"went unnoticed")
        with open(path, "wb") as fh:
            fh.write(clean)


def main() -> int:
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "lobfit", "cli.py")):
        print("selftest: run from the root of a lobfit checkout",
              file=sys.stderr)
        return 2
    shrink()
    failures = []
    check_flips_and_tracing(root, failures)
    spec = run.load_spec(root)
    check_metrics(root, spec, failures)
    check_failure_accounting(root, spec, failures)
    for line in failures:
        print("FAIL " + line)
    print("selftest " + ("failed" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
