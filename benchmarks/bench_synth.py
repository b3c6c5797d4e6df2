#!/usr/bin/env python3
"""Benchmark the generator behind ``lobfit synth`` and its encoder.

The spec of ``bench_replay.py`` is generated once to count its messages
and frames, then two stages are timed:

* ``synth.generate``: the whole generator, with its own book replay,
  tally and encoding, from the spec to the stream bytes;
* ``feed.encode_frame``: the encoder alone, over the decoded frames of
  that stream, held in memory.

Both report messages/s, best of ``--repeats`` round-robin rounds as in
``bench_replay.py``.  For end-to-end and per-layer numbers of the whole
command use ``perfbench/run.py --workload generate``.

Run:

    python3 benchmarks/bench_synth.py
    python3 benchmarks/bench_synth.py --repeats 9 --days 2
"""
from bench_replay import parse_args, print_table, stream_spec
from lobfit import feed, synth


def encode(frames):
    for frame in frames:
        feed.encode_frame(frame)


def main():
    args = parse_args(__doc__)
    spec = stream_spec(args)
    blob, _ = synth.generate(spec)
    frames = list(feed.iter_frames(blob))
    n_msgs = sum(len(frame.messages) for frame in frames)

    stages = [
        ("synth.generate", lambda: synth.generate(spec), n_msgs, "msg/s"),
        ("feed.encode_frame", lambda: encode(frames), n_msgs, "msg/s"),
    ]
    print(f"spec: {args.days} day(s) x {args.orders_per_day} orders, "
          f"seed {args.seed}: {len(blob):,} bytes, {len(frames)} frames, "
          f"{n_msgs:,} messages")
    print_table(stages, args.repeats)


if __name__ == "__main__":
    main()
