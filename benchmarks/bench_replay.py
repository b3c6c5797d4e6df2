#!/usr/bin/env python3
"""Benchmark the synth and replay stages of ``lobfit`` one at a time.

One seeded synthetic stream is generated once, then each stage runs
alone on the previous stage's output, held in memory.  Some rows time
code that the commands run:

* ``synth.generate``: the whole generator, with its own tally and
  encoding, from the spec to the stream bytes (``lobfit synth``);
* ``feed.encode_session``: the framing ``synth`` uses, over the
  stream's messages packed one session at a time;
* ``feed.frame_at``: decode the stream bytes into ``(kind, body)``
  pairs, frame by frame, the decoder ``rates.tally_stream`` runs;
* ``feed.session_runs``: split the stream bytes into one run of frames
  per session, reading only frame headers and message lengths.  This
  is the serial share of ``lobfit rates``, which then tallies the runs
  on one worker process per CPU;
* ``rates.tally_stream``: the whole replay from the stream bytes into a
  fresh ``TallyStore``, decode, book and tally in one loop, as
  ``lobfit rates`` runs it on each session.

The other rows time the object-level API in ``lobfit.book``, which no
command runs: it is kept plain, as the reference the tests hold the
fast paths to.  Their names are the ``feed`` and ``rates`` names, which
still resolve to ``lobfit.book``, so rows compare across versions.

* ``feed.encode_frame``: the encoder, over the decoded frames;
* ``feed.iter_frames``: decode the stream bytes into frames;
* ``feed.iter_stream``: the session, sequence and timestamp checks over
  the decoded frames;
* ``OrderBook.apply``: every message through one book per session;
* ``rates.accumulate_event``: every book event into a fresh
  ``TallyStore`` with all four granularities, one event at a time.

Tally reports events/s and every other stage messages/s.  Each time is
the best over ``--repeats`` rounds, and every round runs each stage
once, so a slow spell of a shared host costs one repeat of each stage
rather than every repeat of one.  For end-to-end and per-layer numbers
of the whole pipeline use ``perfbench/run.py``.

Run:

    python3 benchmarks/bench_replay.py
    python3 benchmarks/bench_replay.py --repeats 9 --days 2
"""
import argparse
import datetime as dt
import math
import time

from lobfit import book, dist, feed, rates, synth


def best_times(jobs, repeats):
    """Best wall time of each job over ``repeats`` round-robin rounds."""
    best = [math.inf] * len(jobs)
    for _ in range(repeats):
        for i, job in enumerate(jobs):
            t0 = time.perf_counter()
            job()
            best[i] = min(best[i], time.perf_counter() - t0)
    return best


def encode(frames):
    for frame in frames:
        book.encode_frame(frame)


def encode_sessions(packed):
    for session_id, messages in packed:
        feed.encode_session(session_id, messages)


def decode_pairs(blob):
    offset = 0
    while offset < len(blob):
        *_, offset = feed.frame_at(blob, offset)


def decode(blob):
    for _ in book.iter_frames(blob):
        pass


def stream_check(frames):
    for _ in book.iter_stream(frames):
        pass


def replay_book(messages):
    books = {}
    for session_id, msg in messages:
        session_book = books.get(session_id)
        if session_book is None:
            session_book = books[session_id] = book.OrderBook()
        session_book.apply(msg)


def tally(events):
    store = rates.TallyStore()
    accumulate = book.accumulate_event
    for event, day in events:
        accumulate(store, event, day)


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=5,
                        help="take the best of this many timings")
    parser.add_argument("--days", type=int, default=1,
                        help="trading days in the stream")
    parser.add_argument("--orders-per-day", type=int, default=3500)
    parser.add_argument("--seed", type=int, default=20170801)
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
    """Time ``(name, job, items, unit)`` stages and print their rates."""
    name_width = max(len(name) for name, *_ in stages)
    header = (f"{'stage':<{name_width}}  {'items':>8}  {'time':>9}  "
              f"{'rate':>16}")
    print(header)
    print("-" * len(header))
    times = best_times([job for _, job, _, _ in stages], repeats)
    for (name, _, items, unit), elapsed in zip(stages, times):
        print(f"{name:<{name_width}}  {items:>8,}  {elapsed * 1e3:>7.1f}ms  "
              f"{items / elapsed:>10,.0f} {unit}")


def main():
    args = parse_args()
    spec = stream_spec(args)
    blob, _ = synth.generate(spec)
    frames = list(book.iter_frames(blob))
    messages = list(book.iter_stream(frames))
    packed = {}
    for session_id, msg in messages:
        packed.setdefault(session_id, []).append(book.encode_message(msg))
    packed = list(packed.items())
    books = {}
    events = []
    for session_id, msg in messages:
        if session_id not in books:
            books[session_id] = (book.OrderBook(),
                                 rates.session_id_to_date(session_id))
        session_book, day = books[session_id]
        events.extend((event, day) for event in session_book.apply(msg))

    n_msgs = len(messages)
    stages = [
        ("synth.generate", lambda: synth.generate(spec), n_msgs, "msg/s"),
        ("feed.encode_frame", lambda: encode(frames), n_msgs, "msg/s"),
        ("feed.encode_session", lambda: encode_sessions(packed), n_msgs,
         "msg/s"),
        ("feed.frame_at", lambda: decode_pairs(blob), n_msgs, "msg/s"),
        ("feed.iter_frames", lambda: decode(blob), n_msgs, "msg/s"),
        ("feed.session_runs", lambda: feed.session_runs([blob]), n_msgs,
         "msg/s"),
        ("feed.iter_stream", lambda: stream_check(frames), n_msgs, "msg/s"),
        ("OrderBook.apply", lambda: replay_book(messages), n_msgs, "msg/s"),
        ("rates.accumulate_event", lambda: tally(events), len(events),
         "event/s"),
        ("rates.tally_stream",
         lambda: rates.tally_stream(rates.TallyStore(), [blob]), n_msgs,
         "msg/s"),
    ]
    print(f"stream: {args.days} day(s) x {args.orders_per_day} orders, "
          f"seed {args.seed}: {len(blob):,} bytes, {len(frames)} frames, "
          f"{n_msgs:,} messages, {len(events):,} events")
    print_table(stages, args.repeats)


if __name__ == "__main__":
    main()
