#!/usr/bin/env python3
"""lobfit benchmark: end-to-end and per-layer metrics for three workloads.

Run from the root of a lobfit checkout:

    python3 perfbench/run.py --workload replay --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload replay --seed 1 --seconds 30 --trace 1

Every ``lobfit`` command runs in a fresh interpreter with
``PYTHONPATH=src``, one at a time (a closed loop with one client).  One
warm-up iteration runs first; timed iterations then run until the next
one would end past ``--seconds``.  Outputs are checked outside the
timed region.  With ``--trace 0`` the last stdout line holds the
end-to-end metrics; with ``--trace 1`` traced and untraced iterations
alternate and the line holds the per-layer metrics.  End-to-end times
are scaled to a reference machine speed by a fixed calibration program
run once per iteration (see CALIBRATION).  Metric names and units come
from ``BENCHMARK.json``.  A full record (environment stamp,
every sample, failures) goes to ``.perfbench/results/``.

``--record-reference`` rewrites ``perfbench/reference/`` from the
current code; do that only for an intended, documented change of fit
results.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

import numpy as np

import checks
import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
LAUNCH = "import sys; from lobfit.cli import main; sys.exit(main())"
SETUP_PROBE = ("import lobfit.cli; from lobfit import kernels; "
               "print(kernels.BACKEND)")
# A fixed program that runs like a lobfit command: a fresh interpreter
# imports numpy and the stdlib modules lobfit uses, then packs structs,
# updates dicts and does float math.  It never changes, so its time says
# how fast this machine runs such a command at the moment.  On a shared
# host that speed drifts by tens of percent from one minute to the next,
# the same for lobfit and for this program.
CALIBRATION = """
import argparse, csv, dataclasses, datetime, enum, json, math, struct
import numpy
pack = struct.Struct(">QQBII")
counts = {}
acc = 0.0
for i in range(120_000):
    _, _, side, price, qty = pack.unpack(
        pack.pack(i, 7 * i, i & 1, 10_000 + i % 15, 1 + i % 100))
    counts[side, price] = counts.get((side, price), 0) + qty
    acc += math.log1p(qty) * math.exp(-(price % 7))
"""
# Median CALIBRATION time on a quiet 2-vCPU host (Python 3.11, numpy
# 2.4).  End-to-end times are reported at that speed: each iteration's
# times are scaled by CALIBRATION_REF_S over the mean CALIBRATION time
# just before and just after it, and the metric is the median of those.
CALIBRATION_REF_S = 0.35
MIN_ITERATIONS = 3
COMMAND_TIMEOUT_S = 60
LAYERS = ("cli", "synth", "feed", "book", "rates", "dist", "kernels", "stats")
REFERENCE_SEED = 20170801


class CommandResult:
    def __init__(self, argv, wall_s, rss_mb, returncode, stdout, stderr):
        self.argv = argv
        self.wall_s = wall_s
        self.rss_mb = rss_mb
        self.returncode = returncode
        self.stdout = stdout
        self.stderr = stderr

    def summary(self) -> str:
        lines = self.stderr.strip().splitlines()
        return f"exit {self.returncode}: {lines[-1] if lines else ''}"


class Runner:
    """Starts one child at a time and waits for it, recording its cost."""

    def __init__(self, root, work_dir):
        self.root = root
        self.work_dir = work_dir
        self.env = dict(os.environ,
                        PYTHONPATH=os.path.join(root, "src"),
                        PYTHONHASHSEED="0",
                        OMP_NUM_THREADS="1",
                        OPENBLAS_NUM_THREADS="1",
                        MKL_NUM_THREADS="1")

    def run(self, argv) -> CommandResult:
        out_path = os.path.join(self.work_dir, "child.stdout")
        err_path = os.path.join(self.work_dir, "child.stderr")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.root, env=self.env,
                                    stdin=subprocess.DEVNULL, stdout=out,
                                    stderr=err)
            lock = threading.Lock()
            reaped = False

            def kill():
                with lock:
                    if not reaped:
                        proc.kill()

            timer = threading.Timer(COMMAND_TIMEOUT_S, kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                wall = time.perf_counter() - start
            except BaseException:
                proc.kill()
                os.waitpid(proc.pid, 0)
                raise
            finally:
                with lock:
                    reaped = True
                timer.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
        with open(out_path, errors="replace") as fh:
            stdout = fh.read()
        with open(err_path, errors="replace") as fh:
            stderr = fh.read()
        return CommandResult(argv, wall, usage.ru_maxrss / 1024.0,
                             proc.returncode, stdout, stderr)

    def lobfit(self, args, trace_path=None) -> CommandResult:
        if trace_path is None:
            return self.run([sys.executable, "-c", LAUNCH, *args])
        return self.run([sys.executable, os.path.join(HERE, "tracer.py"),
                         trace_path, "--", *args])

    def script(self, name, args) -> CommandResult:
        return self.run([sys.executable, os.path.join(HERE, name), *args])


def calibrate(runner) -> float:
    return runner.run([sys.executable, "-c", CALIBRATION]).wall_s


def sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def tree_files(top) -> dict[str, str]:
    """Relative path -> absolute path for every file under ``top``."""
    out = {}
    for dirpath, _, names in os.walk(top):
        for name in names:
            path = os.path.join(dirpath, name)
            out[os.path.relpath(path, top)] = path
    return dict(sorted(out.items()))


class Iteration:
    def __init__(self, results, traced, traces, digests, output_bytes,
                 attempted, failed):
        self.results = results
        self.traced = traced
        self.traces = traces
        self.digests = digests
        self.output_bytes = output_bytes
        self.attempted = attempted
        self.failed = failed
        self.wall_s = sum(r.wall_s for r in results)
        self.rss_mb = max(r.rss_mb for r in results)


def run_iteration(workload, runner, out_dir, trace_dir=None) -> Iteration:
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    results, traces = [], []
    for i, args in enumerate(workload.commands(out_dir)):
        trace_path = None
        if trace_dir is not None:
            trace_path = os.path.join(trace_dir, f"command{i}.json")
            if os.path.exists(trace_path):
                os.remove(trace_path)
        result = runner.lobfit(args, trace_path)
        results.append(result)
        # a command that fails still leaves its trace, unless it died
        if trace_path is not None and os.path.exists(trace_path):
            with open(trace_path) as fh:
                traces.append(json.load(fh))
        if result.returncode != 0:
            break
    files = tree_files(out_dir)
    attempted, failed = workload.operations(out_dir, results)
    return Iteration(results, trace_dir is not None, traces,
                     {rel: sha256(p) for rel, p in files.items()},
                     sum(os.path.getsize(p) for p in files.values()),
                     attempted, failed)


# --- per-layer metrics from the traces of one iteration ---

def _percentile(values, q):
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(iteration: Iteration) -> dict[str, float]:
    traces = iteration.traces

    def op(name, field):
        index = {"calls": 0, "total": 1, "self": 2}[field]
        return sum(t["ops"].get(name, (0, 0.0, 0.0))[index] for t in traces)

    def counter(name):
        return sum(t["counters"].get(name, 0) for t in traces)

    def store(name):
        return sum(t["store"][name] for t in traces)

    m = {}
    for layer in LAYERS:
        calls, busy, own = (sum(t["layers"].get(layer, (0, 0.0, 0.0))[i]
                                for t in traces) for i in range(3))
        m[f"{layer}.calls"] = calls
        m[f"{layer}.busy_s"] = busy
        m[f"{layer}.self_s"] = own
    m["feed.decode_s"] = op("feed.decode", "total")
    m["feed.decode_msgs"] = counter("feed.decode_msgs")
    m["feed.decode_bytes"] = counter("feed.decode_bytes")
    m["feed.stream_check_s"] = op("feed.stream_check", "self")
    m["feed.encode_s"] = op("feed.encode", "total")
    m["feed.encode_msgs"] = counter("feed.encode_msgs")
    m["feed.encode_bytes"] = counter("feed.encode_bytes")
    m["book.apply_s"] = op("book.apply", "total")
    m["book.apply_calls"] = op("book.apply", "calls")
    m["book.events_out"] = counter("book.events_out")
    tally_calls = op("rates.tally", "calls")
    m["rates.tally_s"] = op("rates.tally", "total")
    m["rates.tally_calls"] = tally_calls
    m["rates.tally_events_per_s"] = (tally_calls / m["rates.tally_s"]
                                     if tally_calls else 0.0)
    m["rates.tallied_share"] = (counter("rates.tallied") / tally_calls
                                if tally_calls else 0.0)
    for name in ("buckets", "out_of_hours", "dropped_arrivals",
                 "dropped_cancels"):
        m[f"rates.{name}"] = store(name)
    m["rates.csv_write_s"] = op("rates.csv_write", "total")
    m["rates.csv_read_s"] = op("rates.csv_read", "total")
    m["synth.generate_s"] = op("synth.generate", "total")
    m["synth.sessions"] = counter("synth.sessions")
    m["synth.msgs_emitted"] = counter("feed.encode_msgs")
    for family in checks.FAMILIES:
        ms = [v for t in traces for v in t["fits"][family]["ms"]]
        starts = [v for t in traces for v in t["fits"][family]["starts"]]
        m[f"dist.fit_s.{family}"] = sum(ms) / 1e3
        m[f"dist.fits.{family}"] = len(ms)
        m[f"dist.failed.{family}"] = sum(t["fits"][family]["failed"]
                                         for t in traces)
        m[f"dist.boundary.{family}"] = sum(t["fits"][family]["boundary"]
                                           for t in traces)
        m[f"dist.fit_ms_p50.{family}"] = _percentile(ms, 50)
        m[f"dist.fit_ms_p90.{family}"] = _percentile(ms, 90)
        m[f"dist.starts_per_fit.{family}"] = (statistics.fmean(starts)
                                              if starts else 0.0)
    m["kernels.objective_calls"] = op("kernels.objective", "calls")
    m["kernels.objective_s"] = op("kernels.objective", "total")
    for kind in tracer.KIND_NAMES.values():
        k = {f: sum(t["kinds"][kind][f] for t in traces)
             for f in ("calls", "s", "iterations", "nonconverged",
                       "redundant")}
        m[f"kernels.minimize_calls.{kind}"] = k["calls"]
        m[f"kernels.minimize_s.{kind}"] = k["s"]
        m[f"kernels.iterations.{kind}"] = k["iterations"]
        m[f"kernels.nonconverged.{kind}"] = k["nonconverged"]
        m[f"kernels.redundant_start_share.{kind}"] = (
            k["redundant"] / k["calls"] if k["calls"] else 0.0)
    m["cli.output_bytes"] = iteration.output_bytes
    accounted = sum(m[f"{layer}.self_s"] for layer in LAYERS) + sum(
        t["import_s"] for t in traces)
    m["trace.accounted_share"] = accounted / iteration.wall_s
    return m


# --- the run ---

def median_metrics(samples: list[dict]) -> dict[str, float]:
    return {name: statistics.median(s[name] for s in samples)
            for name in samples[0]}


def source_stamp(root) -> dict:
    src = os.path.join(root, "src", "lobfit")
    digest = hashlib.sha256()
    for rel, path in tree_files(src).items():
        if rel.endswith((".py", ".pyx")) and "__pycache__" not in rel:
            digest.update(rel.encode() + b"\0" + sha256(path).encode())
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                                capture_output=True, text=True,
                                timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    return {"commit": commit or "unknown", "source_sha256": digest.hexdigest()}


def load_spec(root) -> dict:
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        return json.load(fh)


def emit(metrics: dict, declared: list[dict]) -> dict:
    missing = [d["name"] for d in declared if d["name"] not in metrics]
    if missing:
        raise RuntimeError(f"metrics not computed: {missing}")
    return {d["name"]: {"value": metrics[d["name"]], "unit": d["unit"]}
            for d in declared}


def run(args, root) -> dict:
    spec = load_spec(root)
    work_dir = os.path.join(root, ".perfbench",
                            f"{args.workload}-seed{args.seed}-"
                            f"trace{args.trace}")
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    runner = Runner(root, work_dir)
    workload = workloads.WORKLOADS[args.workload](args.seed, runner)

    def probe():
        result = runner.run([sys.executable, "-c", SETUP_PROBE])
        if result.returncode != 0:
            raise RuntimeError(f"cannot import lobfit: {result.summary()}")
        return result

    backend = probe().stdout.strip()
    setup = []
    calibration = []

    workload.prepare(work_dir)
    out_dir = os.path.join(work_dir, "out")
    trace_dir = os.path.join(work_dir, "trace")
    os.makedirs(trace_dir)
    modes = (None, trace_dir) if args.trace else (None,)

    warmup = run_iteration(workload, runner, out_dir)
    timed = []
    start = time.perf_counter()
    while True:
        for mode in modes:
            if not args.trace:
                # one of each per iteration, spread over the run so that
                # a burst of load from elsewhere on the host hits few
                calibration.append(calibrate(runner))
                setup.append(probe().wall_s)
            timed.append(run_iteration(workload, runner, out_dir, mode))
        elapsed = time.perf_counter() - start
        rounds = len(timed) // len(modes)
        per_round = elapsed / rounds
        if elapsed + per_round > args.seconds and (
                rounds >= MIN_ITERATIONS or elapsed >= args.seconds):
            break

    if not args.trace:
        calibration.append(calibrate(runner))

    everything = [warmup] + timed
    problems = []
    if any(it.digests != warmup.digests for it in everything):
        problems.append("outputs differ between iterations")
    if not warmup.digests:
        problems.append("no outputs written")
    problems += workload.check(out_dir)
    attempted = sum(it.attempted for it in everything)
    failed = sum(it.failed for it in everything)
    failures = [r.summary() for it in everything for r in it.results
                if r.returncode != 0]

    plain = [it for it in timed if not it.traced]
    traced = [it for it in timed if it.traced]
    raw = {
        "setup_s": statistics.median(setup) if setup else None,
        "wall_s": statistics.median(it.wall_s for it in plain),
        "items_per_s": statistics.median(workload.items / it.wall_s
                                         for it in plain),
        "peak_rss_mb": statistics.median(it.rss_mb for it in plain),
    }
    end_to_end = dict(raw)
    if calibration:
        # each iteration at reference speed, by the calibration runs
        # just before and just after it
        scale = [2.0 * CALIBRATION_REF_S / (before + after) for before, after
                 in zip(calibration, calibration[1:])]
        walls = [it.wall_s * k for it, k in zip(plain, scale)]
        end_to_end.update(
            setup_s=statistics.median(t * k for t, k in zip(setup, scale)),
            wall_s=statistics.median(walls),
            items_per_s=statistics.median(workload.items / w for w in walls))
    per_layer = {}
    if traced:
        # layers of an iteration without traces report no work
        per_layer = median_metrics([layer_metrics(it) for it in traced])
        per_layer["trace.overhead_share"] = (
            statistics.median(it.wall_s for it in traced)
            / raw["wall_s"] - 1.0)
    per_layer["failed_share"] = failed / attempted
    per_layer["outputs_ok"] = 0 if problems else 1

    stamp = {
        **source_stamp(root),
        "backend": backend,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": workloads.HELD_OUT_SEED,
        "inputs": {name: sha256(path)
                   for name, path in workload.inputs.items()},
        "items": workload.items,
    }
    if args.trace:
        metrics = emit(per_layer, spec["per_layer"])
    else:
        metrics = emit(end_to_end, spec["end_to_end"])
    record = {
        "env": stamp,
        "problems": problems,
        "failures": failures,
        "samples": {
            "setup_s": setup,
            "calibration_s": calibration,
            "wall_s": [it.wall_s for it in plain],
            "traced_wall_s": [it.wall_s for it in traced],
            "warmup_wall_s": warmup.wall_s,
        },
        "end_to_end": end_to_end,
        "end_to_end_raw": raw,
        "per_layer": per_layer,
    }
    results_dir = os.path.join(root, ".perfbench", "results")
    os.makedirs(results_dir, exist_ok=True)
    with open(os.path.join(results_dir,
                           os.path.basename(work_dir) + ".json"), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print("env " + json.dumps(stamp, sort_keys=True))
    for line in problems + failures:
        print("problem " + line)
    return {"correct": not problems, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def record_reference(root) -> None:
    """Re-record the reference fit corpus and tallies from the current code."""
    work_dir = os.path.join(root, ".perfbench", "reference")
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    runner = Runner(root, work_dir)
    corpus = workloads.fit_corpus(REFERENCE_SEED, instances=10)
    os.makedirs(workloads.TALLY_REFERENCE, exist_ok=True)
    workloads.write_rates_csv(corpus, workloads.Fit.reference_rates)
    result = runner.lobfit(
        ["fit", workloads.Fit.reference_rates, "--out", work_dir])
    if result.returncode != 0:
        raise RuntimeError(f"reference fit failed: {result.summary()}")
    with open(workloads.Fit.reference_params, "w") as fh:
        json.dump({"seed": REFERENCE_SEED,
                   "params": checks.fit_params(
                       os.path.join(work_dir, "fits.json"))},
                  fh, indent=1, sort_keys=True)
        fh.write("\n")
    specs = os.path.join(workloads.TALLY_REFERENCE, "streams.json")
    with open(specs, "w") as fh:
        json.dump(workloads.replay_specs(REFERENCE_SEED, days=1,
                                         orders_per_day=500), fh, indent=1)
        fh.write("\n")
    streams, _ = workloads.make_streams(runner, specs, work_dir)
    result = runner.lobfit(["rates", *streams, "--out", work_dir])
    if result.returncode != 0:
        raise RuntimeError(f"reference rates failed: {result.summary()}")
    for name in ("rates.csv", "cancels.csv"):
        shutil.copyfile(os.path.join(work_dir, name),
                        os.path.join(workloads.TALLY_REFERENCE, name))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)
    # a terminated harness unwinds, killing and reaping its child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "lobfit", "cli.py")):
        print("perfbench: run from the root of a lobfit checkout "
              "(src/lobfit/cli.py not found)", file=sys.stderr)
        return 2
    if args.record_reference:
        record_reference(root)
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    result = run(args, root)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
