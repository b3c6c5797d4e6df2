"""Smoke runs of the stage benchmarks in ``benchmarks/`` on tiny inputs.

Each script runs in a fresh interpreter, as its docstring says to run
it, and must exit 0 and print one table row per stage.  The stage
benchmarks append their record to a file that already holds one, and
must keep it.  The pipeline
benchmark's tracer, ``perfbench/tracer.py``, patches ``lobfit`` entry
points by name; it runs here too, so a renamed entry point shows.
So do its other ways into ``lobfit``: ``perfbench/make_streams.py``,
which calls ``cli.parse_model``, and ``perfbench/run.py``'s command
launcher and setup probe, which call ``cli.main`` and print
``kernels.BACKEND``.
"""
import ast
import json
import os
import pathlib
import runpy
import subprocess
import sys

import lobfit
from lobfit import dist, kernels

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCHMARKS = ROOT / "benchmarks"


def run_python(*args):
    """Run a fresh interpreter that imports this lobfit; its stdout."""
    src = os.path.dirname(os.path.dirname(lobfit.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, *args], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    return result.stdout


def run_script(name, *args, directory=BENCHMARKS):
    return run_python(str(directory / name), *args)


def perfbench_constant(name):
    """A string constant of ``perfbench/run.py``, read without running
    the module, which imports numpy."""
    tree = ast.parse((ROOT / "perfbench" / "run.py").read_text())
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets] == [name]):
            return ast.literal_eval(node.value)
    raise LookupError(name)


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


def appended_record(path):
    """The record a run appended after the one ``path`` held before it."""
    earlier, record = json.loads(path.read_text())
    assert earlier == {"bench": "earlier"}
    assert record["commit"]
    for row in record["stages"]:
        assert row["q1"] <= row["median"] <= row["q3"]
        assert row["repeats"] >= 1
    return record


def test_bench_replay_prints_one_row_per_stage(tmp_path):
    record = tmp_path / "stages.json"
    record.write_text('[{"bench": "earlier"}]')
    stdout = run_script("bench_replay.py", "--repeats", "2",
                        "--orders-per-day", "300", "--append", str(record))
    (rows,) = tables(stdout)
    stages = ["synth.generate", "feed.session_framer", "feed.frame_at",
              "feed.session_runs", "rates.tally_stream"]
    assert [row.split()[0] for row in rows] == stages
    appended = appended_record(record)
    assert appended["bench"] == "bench_replay"
    assert appended["args"]["orders_per_day"] == 300
    assert [(row["stage"], row["unit"]) for row in appended["stages"]] == [
        (stage, "msg/s") for stage in stages]


def test_bench_memory_prints_one_row_per_command():
    stdout = run_script("bench_memory.py", "--days", "2",
                        "--orders-per-day", "200")
    (rows,) = tables(stdout)
    assert [row.split()[:2] for row in rows] == [
        ["synth", "1"], ["synth", "2"], ["rates", "2"],
        ["cancel-test", "2"], ["fit", "2"]]
    for row in rows:
        own, workers = map(float, row.split()[2:4])
        assert own > 0 and workers >= 0


def test_bench_kernels_prints_one_row_per_stage(tmp_path):
    record = tmp_path / "stages.json"
    record.write_text('[{"bench": "earlier"}]')
    stdout = run_script("bench_kernels.py", "--repeats", "1",
                        "--instances", "2", "--append", str(record))
    workloads, per_call, per_family = tables(stdout)
    assert len(workloads) == 6
    assert [row.split("  ")[0] for row in workloads] == [
        "objective sweep, weibull (325 points)",
        "objective sweep, beta-binomial (325 points)",
        "weibull fit, untruncated, 25 starts x 2 histograms",
        "beta-binomial fit, 25 starts x 2 histograms",
        "weibull fit, truncated, 25 starts x 2 histograms",
        "power-law fit, 5 starts x 2 densities"]
    assert [row.rsplit(None, 1)[0] for row in per_call] == [
        "weibull", "weibull, truncated", "beta-binomial", "power law"]
    assert [row.split()[0] for row in per_family] == list(dist.FAMILY_TAGS)
    appended = appended_record(record)
    assert appended["bench"] == "bench_kernels"
    units = [row["unit"] for row in appended["stages"]]
    assert units == ["ms"] * 6 + ["us"] * 4 + ["instances/s"] * 5
    # the evaluations per fit are the printed ones
    assert [f"{row['evals_per_fit']:.1f}" for row in appended["stages"][10:]
            ] == [row.split()[-1] for row in per_family]


def test_perfbench_tracer_runs_synth_and_rates(tmp_path):
    def traced(*argv):
        trace = tmp_path / f"{argv[0]}.json"
        run_script("tracer.py", str(trace), "--", *argv,
                   directory=ROOT / "perfbench")
        return json.loads(trace.read_text())["ops"]

    out = tmp_path / "run"
    ops = traced("synth", "--days", "1", "--orders-per-day", "600",
                 "--out", str(out))
    assert ops["cli.main"][0] == 1
    assert ops["synth.generate"][0] == 1
    ops = traced("rates", str(out / "stream.lobf"), "--out", str(out))
    assert ops["rates.csv_write"][0] == 2
    # a weekly or monthly bucket with cancels at all ten ticks reaches
    # the test; this stream has at least one
    ticks = {}
    for row in (out / "cancels.csv").read_text().splitlines()[1:]:
        bucket, side, tick = row.split(",")[:3]
        if bucket.startswith(("weekly:", "monthly:")):
            ticks.setdefault((bucket, side), set()).add(int(tick))
    tested = sum(1 for seen in ticks.values() if len(seen) == 10)
    assert tested >= 1
    ops = traced("cancel-test", str(out / "cancels.csv"), "--out", str(out))
    assert ops["cli.main"][0] == 1
    assert ops["rates.csv_read"][0] == 1
    assert ops["stats.chi_square_uniformity"][0] == tested


def test_perfbench_tracer_runs_fit(tmp_path):
    # the tracer's minimize hook reads the first positional argument as
    # the objective kind; the fit workers run it, and an exception there
    # fails the command.  The tracer sees only the command's own process,
    # which fits its share of the instances itself.
    source = tmp_path / "rates.csv"
    with open(source, "w") as fh:
        fh.write("bucket_key,side,tick,quantity,density\n")
        for day, quantities in (
                (1, [90 - 6 * i for i in range(15)]),
                (2, [10 + 8 * i - i * i // 2 for i in range(15)])):
            for tick, q in enumerate(quantities, start=1):
                fh.write(f"daily:2017-08-0{day},buy,{tick},{q},"
                         f"{q / sum(quantities)!r}\n")
    trace = tmp_path / "fit.json"
    run_script("tracer.py", str(trace), "--", "fit", str(source),
               "--out", str(tmp_path / "run"), directory=ROOT / "perfbench")
    ops = json.loads(trace.read_text())["ops"]
    assert ops["cli.main"][0] == 1
    assert ops["dist.fit"][0] >= len(dist.FAMILY_TAGS)
    assert ops["kernels.minimize"][0] >= 1
    instances = json.loads((tmp_path / "run" / "fits.json").read_text())[
        "instances"]
    assert [set(inst["fits"]) for inst in instances] == [
        set(dist.FAMILY_TAGS)] * 2


def test_perfbench_streams_replay_to_their_truth(tmp_path):
    # one stream of the replay workload's kind, at a tiny size
    spec = {"name": "dw_dw", "start": "2017-08-01", "seed": 3, "days": 1,
            "orders_per_day": 300, "cancel_probability": 0.08,
            "cancel_style": "fraction", "buy_model": "dw:0.8,1.2",
            "sell_model": "dw:0.75,1.4"}
    specs = tmp_path / "streams.json"
    specs.write_text(json.dumps([spec]))
    run_script("make_streams.py", str(specs), str(tmp_path),
               directory=ROOT / "perfbench")
    out = tmp_path / "out"
    run_python("-c", perfbench_constant("LAUNCH"), "rates",
               str(tmp_path / "dw_dw.lobf"), "--out", str(out))
    checks = runpy.run_path(str(ROOT / "perfbench" / "checks.py"))
    truth = checks["merged_truth"]([tmp_path / "dw_dw.truth.json"])
    assert truth["arrival_quantities"]
    assert checks["check_tallies"](truth, out / "rates.csv",
                                   out / "cancels.csv") == []


def test_perfbench_setup_probe_prints_the_backend():
    stdout = run_python("-c", perfbench_constant("SETUP_PROBE"))
    assert stdout.strip() == kernels.BACKEND
