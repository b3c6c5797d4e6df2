#!/usr/bin/env python3
"""Benchmark the synth and replay stages of ``lobfit`` one at a time.

One seeded synthetic stream is generated once, then each stage runs
alone on the previous stage's output, held in memory.  Every row times
code that a command runs:

* ``synth.generate``: the whole generator, with its own tally and
  encoding, from the spec to the stream bytes (``lobfit synth``);
* ``feed.session_framer``: the framing ``synth`` uses, over the
  stream's messages packed one session at a time by ``feed``'s packers
  from the pairs ``feed.frame_at`` decodes, flushed once a frame's
  messages are packed, as ``synth`` flushes;
* ``feed.frame_at``: decode the stream bytes into ``(kind, body)``
  pairs, frame by frame, the decoder ``rates.tally_stream`` runs;
* ``feed.session_runs``: split the stream bytes into one run of frames
  per session, reading only frame headers and message lengths, and
  return the runs with the fault the split stopped at (none on this
  stream, which the row checks).  This is the serial share of
  ``lobfit rates``, which then tallies each run once, on one worker
  process per CPU;
* ``rates.tally_stream``: the whole replay from the stream bytes into a
  fresh ``TallyStore``, decode, book and tally in one loop, as
  ``lobfit rates`` runs it on each session.

Every stage reports messages/s.  Each time is the best over
``--repeats`` rounds, and every round runs each stage once, so a slow
spell of a shared host costs one repeat of each stage rather than
every repeat of one.  For end-to-end and per-layer numbers of the
whole pipeline use ``perfbench/run.py``.

``--append PATH`` also appends one record of the run to the JSON list
in PATH (created if missing): the commit of the ``lobfit`` source
measured, with ``-dirty`` if its files differ from that commit, the
arguments, and for each stage its unit and the median and quartiles of
its rate over the repeats.  ``bench_kernels.py`` writes the same
record.

Run:

    python3 benchmarks/bench_replay.py
    python3 benchmarks/bench_replay.py --repeats 9 --days 2
    python3 benchmarks/bench_replay.py --append BENCH_stages.json
"""
import argparse
import datetime as dt
import json
import os
import statistics
import subprocess
import time

import lobfit
from lobfit import dist, feed, rates, synth


def round_times(jobs, repeats):
    """Wall times of each job over ``repeats`` round-robin rounds."""
    times = [[] for _ in jobs]
    for _ in range(repeats):
        for job, samples in zip(jobs, times):
            t0 = time.perf_counter()
            job()
            samples.append(time.perf_counter() - t0)
    return times


def stage_row(stage, unit, values):
    """A record row: the median and quartiles of one stage's values."""
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = q3 = values[0]
    return {"stage": stage, "unit": unit, "repeats": len(values),
            "median": statistics.median(values), "q1": q1, "q3": q3}


def source_commit():
    """HEAD of the repository holding ``lobfit``, "-dirty" if it differs."""
    src = os.path.dirname(os.path.abspath(lobfit.__file__))
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=src,
                              capture_output=True, text=True, timeout=10)
        diff = subprocess.run(["git", "diff", "--quiet", "HEAD", "--", "."],
                              cwd=src, capture_output=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    commit = head.stdout.strip()
    if head.returncode != 0 or not commit:
        return "unknown"
    return commit + ("-dirty" if diff.returncode == 1 else "")


def append_record(path, bench, args, rows):
    """Append one run's record to the JSON list in ``path``."""
    try:
        with open(path) as fh:
            records = json.load(fh)
    except FileNotFoundError:
        records = []
    settings = {k: v for k, v in vars(args).items() if k != "append"}
    records.append({"commit": source_commit(), "bench": bench,
                    "args": settings, "stages": rows})
    with open(path, "w") as fh:
        json.dump(records, fh, indent=1)
        fh.write("\n")


def frame_sessions(packed):
    frames = []
    for session_id, messages in packed:
        flush = feed.session_framer(session_id, frames.append)
        pending = []
        for message in messages:
            pending.append(message)
            if len(pending) >= feed._FRAME_MESSAGES:
                flush(pending)
        flush(pending, last=True)


def decode_pairs(blob):
    offset = 0
    while offset < len(blob):
        *_, offset = feed.frame_at(blob, offset)


def split(blob):
    _, fault = feed.session_runs([blob])
    if fault is not None:
        raise fault[2]


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=5,
                        help="take the best of this many timings")
    parser.add_argument("--days", type=int, default=1,
                        help="trading days in the stream")
    parser.add_argument("--orders-per-day", type=int, default=3500)
    parser.add_argument("--seed", type=int, default=20170801)
    parser.add_argument("--append", metavar="PATH",
                        help="append this run's record to the JSON list "
                             "in PATH")
    return parser.parse_args()


def stream_spec(args):
    """The seeded DW/DW spec with fraction cancels at p=0.08."""
    return synth.SynthSpec(
        seed=args.seed, days=args.days, orders_per_day=args.orders_per_day,
        buy_model=dist.DiscreteWeibull(0.8, 1.2),
        sell_model=dist.DiscreteWeibull(0.75, 1.4),
        cancel_probability=0.08,
        cancel_style=synth.CancelStyle.UNIFORM_FRACTION,
        start=dt.date(2017, 8, 1))


def print_table(stages, repeats):
    """Time ``(name, job, items, unit)`` stages and print their rates.

    Returns their record rows.
    """
    name_width = max(len(name) for name, *_ in stages)
    header = (f"{'stage':<{name_width}}  {'items':>8}  {'time':>9}  "
              f"{'rate':>16}")
    print(header)
    print("-" * len(header))
    times = round_times([job for _, job, _, _ in stages], repeats)
    rows = []
    for (name, _, items, unit), samples in zip(stages, times):
        elapsed = min(samples)
        print(f"{name:<{name_width}}  {items:>8,}  {elapsed * 1e3:>7.1f}ms  "
              f"{items / elapsed:>10,.0f} {unit}")
        rows.append(stage_row(name, unit, [items / t for t in samples]))
    return rows


def main():
    args = parse_args()
    spec = stream_spec(args)
    blob, _ = synth.generate(spec)
    # each session's messages as synth packs them, in stream order
    packed = {}
    offset = n_frames = 0
    while offset < len(blob):
        session_id, _, messages, offset = feed.frame_at(blob, offset)
        packed.setdefault(session_id, []).extend(
            feed._PACK[kind](*body) for kind, body in messages)
        n_frames += 1
    packed = list(packed.items())

    n_msgs = sum(len(messages) for _, messages in packed)
    stages = [
        ("synth.generate", lambda: synth.generate(spec), n_msgs, "msg/s"),
        ("feed.session_framer", lambda: frame_sessions(packed), n_msgs,
         "msg/s"),
        ("feed.frame_at", lambda: decode_pairs(blob), n_msgs, "msg/s"),
        ("feed.session_runs", lambda: split(blob), n_msgs, "msg/s"),
        ("rates.tally_stream",
         lambda: rates.tally_stream(rates.TallyStore(), [blob]), n_msgs,
         "msg/s"),
    ]
    print(f"stream: {args.days} day(s) x {args.orders_per_day} orders, "
          f"seed {args.seed}: {len(blob):,} bytes, {n_frames} frames, "
          f"{n_msgs:,} messages")
    rows = print_table(stages, args.repeats)
    if args.append:
        append_record(args.append, "bench_replay", args, rows)


if __name__ == "__main__":
    main()
