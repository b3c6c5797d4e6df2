#!/usr/bin/env python3
"""Peak memory of each ``lobfit`` command, measured inside the command.

Each command runs in a fresh interpreter, started from this script,
which imports nothing but the standard library, so the child's
high-water mark starts from a ~10 MB parent and not from a harness
that has loaded numpy.  A small launcher runs ``lobfit.cli.main()``,
which parses ``sys.argv`` itself and so takes the console script's
program path, heap freeze included, and, as it exits, prints its own
``getrusage`` peak (``RUSAGE_SELF``) and the largest peak of the
workers it forked (``RUSAGE_CHILDREN``).

The rows follow one seeded DW/DW run with fraction cancels at p=0.08:

* ``synth`` at 1 day and at ``--days`` days, so the second row minus
  the first is what the length of the run costs;
* ``rates`` on the ``--days`` stream;
* ``cancel-test`` on its ``cancels.csv``;
* ``fit`` on its ``rates.csv``.

Peaks are in MB (``ru_maxrss`` / 1024).  For wall time, throughput and
per-layer numbers of the whole pipeline use ``perfbench/run.py``.

Run:

    python3 benchmarks/bench_memory.py
    python3 benchmarks/bench_memory.py --days 2 --orders-per-day 500
"""
import argparse
import os
import subprocess
import sys
import tempfile
import time

# runs one command and reports its peaks on stdout, after its output
LAUNCH = """
import resource, sys
from lobfit import cli
code = cli.main()
own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
print(f"rusage {own} {workers}")
sys.exit(code)
"""


def run(args):
    """Run ``lobfit args`` in a fresh interpreter; its peaks in MB, and
    its wall time in seconds."""
    start = time.perf_counter()
    result = subprocess.run([sys.executable, "-c", LAUNCH, *args],
                            capture_output=True, text=True,
                            stdin=subprocess.DEVNULL)
    wall = time.perf_counter() - start
    if result.returncode != 0:
        raise SystemExit(f"lobfit {' '.join(args)} exited "
                         f"{result.returncode}:\n{result.stderr}")
    tag, own, workers = result.stdout.splitlines()[-1].split()
    if tag != "rusage":
        raise SystemExit(f"no peaks from lobfit {' '.join(args)}:\n"
                         f"{result.stdout}")
    return int(own) / 1024.0, int(workers) / 1024.0, wall


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--days", type=int, default=40,
                        help="trading days in the stream")
    parser.add_argument("--orders-per-day", type=int, default=3000)
    parser.add_argument("--seed", type=int, default=20170801)
    return parser.parse_args()


def synth_args(args, days, out):
    return ["synth", "--seed", str(args.seed), "--days", str(days),
            "--orders-per-day", str(args.orders_per_day),
            "--buy-model", "dw:0.8,1.2", "--sell-model", "dw:0.75,1.4",
            "--cancel-probability", "0.08", "--cancel-style", "fraction",
            "--out", out]


def main():
    args = parse_args()
    with tempfile.TemporaryDirectory() as work:
        one, run_dir = os.path.join(work, "one"), os.path.join(work, "run")
        rows = [
            ("synth", 1, synth_args(args, 1, one)),
            ("synth", args.days, synth_args(args, args.days, run_dir)),
            ("rates", args.days,
             ["rates", os.path.join(run_dir, "stream.lobf"),
              "--out", run_dir]),
            ("cancel-test", args.days,
             ["cancel-test", os.path.join(run_dir, "cancels.csv"),
              "--out", run_dir]),
            ("fit", args.days,
             ["fit", os.path.join(run_dir, "rates.csv"), "--out", run_dir]),
        ]
        print(f"{args.orders_per_day} orders per day, seed {args.seed}")
        header = (f"{'command':<12}  {'days':>5}  {'self MB':>8}  "
                  f"{'workers MB':>10}  {'wall':>7}")
        print(header)
        print("-" * len(header))
        peaks = []
        for name, days, command in rows:
            own, workers, wall = run(command)
            peaks.append(own)
            print(f"{name:<12}  {days:>5}  {own:>8.1f}  {workers:>10.1f}  "
                  f"{wall:>6.2f}s")
    print()
    print(f"synth at {args.days} days over 1 day: "
          f"{peaks[1] - peaks[0]:+.1f} MB")


if __name__ == "__main__":
    main()
