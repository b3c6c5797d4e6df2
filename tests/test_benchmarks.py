"""Smoke runs of the stage benchmarks in ``benchmarks/`` on tiny inputs.

Each script runs in a fresh interpreter, as its docstring says to run
it, and must exit 0 and print one table row per stage.
"""
import os
import pathlib
import subprocess
import sys

import lobfit
from lobfit import dist

BENCHMARKS = pathlib.Path(__file__).resolve().parent.parent / "benchmarks"


def run_script(name, *args):
    src = os.path.dirname(os.path.dirname(lobfit.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, str(BENCHMARKS / name), *args],
                            env=env, capture_output=True, text=True,
                            timeout=120)
    assert result.returncode == 0, result.stderr
    return result.stdout


def tables(stdout):
    """The row lines of each table: those after a dashed rule, to a blank."""
    out = []
    rows = None
    for line in stdout.splitlines():
        if line and set(line) == {"-"}:
            rows = []
            out.append(rows)
        elif not line.strip():
            rows = None
        elif rows is not None:
            rows.append(line)
    return out


def test_bench_replay_prints_one_row_per_stage():
    stdout = run_script("bench_replay.py", "--repeats", "1",
                        "--orders-per-day", "300")
    (rows,) = tables(stdout)
    assert [row.split()[0] for row in rows] == [
        "synth.generate", "feed.encode_frame", "feed.iter_frames",
        "feed.session_runs", "feed.iter_stream", "OrderBook.apply",
        "rates.accumulate_event"]


def test_bench_kernels_prints_one_row_per_stage():
    stdout = run_script("bench_kernels.py", "--repeats", "1",
                        "--instances", "2")
    workloads, per_call, per_family = tables(stdout)
    assert len(workloads) == 6
    assert [row.rsplit(None, 1)[0] for row in per_call] == [
        "weibull", "weibull, truncated", "beta-binomial",
        "beta-binomial, truncated", "power law"]
    assert [row.split()[0] for row in per_family] == list(dist.FAMILY_TAGS)
