"""Run one ``lobfit`` command with every public layer entry point wrapped.

Usage (the harness does this for traced iterations):

    python3 perfbench/tracer.py TRACE_JSON -- <lobfit arguments>

The program itself is not changed: this script imports ``lobfit``,
replaces module attributes (``feed.*``, ``rates.*``, ``dist.*``,
``kernels.*``, ``stats.*``, ``synth.generate`` and ``OrderBook.apply``)
with timing wrappers, then calls ``lobfit.cli.main``.  The package
calls these entry points through module attributes, so the patched
versions are the ones that run.  Counts and busy time are kept in
memory and written to TRACE_JSON when the command ends; the exit code
is the command's own.

A layer's busy time is wall time with at least one of its calls on the
stack; its self time is busy time minus time in wrapped calls of other
layers made from inside it.  Everything ``cli.main`` does outside a
wrapped call is ``cli`` self time.
"""

from __future__ import annotations

import json
import sys
import time

_T0 = time.perf_counter()

from checks import FAMILIES  # noqa: E402 - after the clock starts

_clock = time.perf_counter

# kernels.KIND_DW, KIND_BB and KIND_POW
KIND_NAMES = {0: "dw", 1: "bb", 2: "pow"}
REDUNDANT_REL = 1e-9


class Tracer:
    """Call-stack bookkeeping shared by every wrapper in one process."""

    def __init__(self):
        self.stack = []              # [layer, op, start, child_seconds]
        self.depth = {}              # layer -> open calls of that layer
        self.layers = {}             # layer -> [calls, busy_s, self_s]
        self.ops = {}                # op -> [calls, total_s, self_s]
        self.counters = {}
        self.fits = {f: {"ms": [], "failed": 0, "boundary": 0, "starts": []}
                     for f in FAMILIES}
        self.kinds = {k: {"calls": 0, "s": 0.0, "iterations": 0,
                          "nonconverged": 0, "redundant": 0}
                      for k in KIND_NAMES.values()}
        self.fit_optima = None       # f* of each minimize run in this fit
        self.sessions = {}           # id(book) -> session span
        self.stores = {}             # id(store) -> TallyStore

    def count(self, name, amount=1):
        self.counters[name] = self.counters.get(name, 0) + amount

    def push(self, layer, op):
        frame = [layer, op, _clock(), 0.0]
        self.stack.append(frame)
        self.depth[layer] = self.depth.get(layer, 0) + 1
        return frame

    def pop(self, frame):
        end = _clock()
        layer, op, start, child = frame
        elapsed = end - start
        self.stack.pop()
        if self.stack:
            self.stack[-1][3] += elapsed
        self.depth[layer] -= 1
        stats = self.layers.setdefault(layer, [0, 0.0, 0.0])
        stats[0] += 1
        stats[2] += elapsed - child
        if self.depth[layer] == 0:
            stats[1] += elapsed
        op_stats = self.ops.setdefault(op, [0, 0.0, 0.0])
        op_stats[0] += 1
        op_stats[1] += elapsed
        op_stats[2] += elapsed - child
        return start, end


def wrap(tracer, layer, op, fn, after=None):
    """Time ``fn`` as one call of ``layer``; ``after`` sees args and result."""

    def wrapper(*args, **kwargs):
        frame = tracer.push(layer, op)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            tracer.pop(frame)
            raise
        start, end = tracer.pop(frame)
        if after is not None:
            after(args, kwargs, result, start, end)
        return result

    return wrapper


class TimedIterator:
    """Times every ``next`` on an iterator as one call of ``layer``."""

    def __init__(self, tracer, layer, op, inner, on_item=None):
        self._tracer = tracer
        self._layer = layer
        self._op = op
        self._inner = iter(inner)
        self._on_item = on_item

    def __iter__(self):
        return self

    def __next__(self):
        frame = self._tracer.push(self._layer, self._op)
        try:
            item = next(self._inner)
        finally:
            self._tracer.pop(frame)
        if self._on_item is not None:
            self._on_item(item)
        return item


def install(tracer):
    """Patch the public entry points of every lobfit layer."""
    from lobfit import cli, dist, feed, kernels, rates, stats, synth
    from lobfit.book import OrderBook

    def iterator_wrap(module, name, op, on_call=None, on_item=None):
        inner = getattr(module, name)

        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(args)
            return TimedIterator(tracer, "feed", op,
                                 inner(*args, **kwargs), on_item)

        setattr(module, name, wrapper)

    # feed: decode is frame iteration, stream_check the session/sequence
    # validation that iter_stream adds on top of it
    def on_frame(frame):
        tracer.count("feed.decode_msgs", len(frame.messages))

    iterator_wrap(feed, "iter_frames", "feed.decode",
                  on_call=lambda args: tracer.count("feed.decode_bytes",
                                                    len(args[0])),
                  on_item=on_frame)
    iterator_wrap(feed, "iter_stream", "feed.stream_check")
    feed.read_lobf = wrap(tracer, "feed", "feed.read", feed.read_lobf)

    def on_encode(args, kwargs, result, start, end):
        tracer.count("feed.encode_msgs", len(args[0].messages))
        tracer.count("feed.encode_bytes", len(result))

    feed.encode_frame = wrap(tracer, "feed", "feed.encode",
                             feed.encode_frame, on_encode)
    feed.build_frames = wrap(tracer, "feed", "feed.encode",
                             feed.build_frames,
                             lambda *a: tracer.count("synth.sessions"))

    # book: one span per session book, from its first to its last apply
    def on_apply(args, kwargs, result, start, end):
        tracer.count("book.events_out", len(result))
        span = tracer.sessions.get(id(args[0]))
        if span is None:
            tracer.sessions[id(args[0])] = span = [start, end, 0, 0.0]
        span[1] = end
        span[2] += 1
        span[3] += end - start

    OrderBook.apply = wrap(tracer, "book", "book.apply", OrderBook.apply,
                           on_apply)

    # rates
    def on_tally(args, kwargs, result, start, end):
        tracer.stores.setdefault(id(args[0]), args[0])
        if result:
            tracer.count("rates.tallied")

    rates.accumulate_event = wrap(tracer, "rates", "rates.tally",
                                  rates.accumulate_event, on_tally)
    for name in ("write_rates_csv", "write_cancels_csv"):
        setattr(rates, name, wrap(tracer, "rates", "rates.csv_write",
                                  getattr(rates, name)))
    for name in ("read_rates_csv", "read_cancels_csv"):
        setattr(rates, name, wrap(tracer, "rates", "rates.csv_read",
                                  getattr(rates, name)))

    # synth
    synth.generate = wrap(tracer, "synth", "synth.generate", synth.generate)
    synth.write_ground_truth = wrap(tracer, "synth", "synth.write",
                                    synth.write_ground_truth)

    # dist: one span per (instance, family) fit
    fit_family = dist.fit_family

    def traced_fit_family(density, tag, *args, **kwargs):
        record = tracer.fits.get(tag)
        tracer.fit_optima = []
        frame = tracer.push("dist", "dist.fit")
        try:
            result = fit_family(density, tag, *args, **kwargs)
        except BaseException:
            start, end = tracer.pop(frame)
            if record is not None:
                record["failed"] += 1
                record["ms"].append((end - start) * 1e3)
            tracer.fit_optima = None
            raise
        start, end = tracer.pop(frame)
        if record is not None:
            record["ms"].append((end - start) * 1e3)
            record["boundary"] += bool(result.boundary)
            record["starts"].append(result.starts_used)
        _count_redundant(tracer)
        return result

    dist.fit_family = traced_fit_family
    dist.tick_curve = wrap(tracer, "dist", "dist.tick_curve",
                           dist.tick_curve)

    # kernels
    kernels.objective = wrap(tracer, "kernels", "kernels.objective",
                             kernels.objective)

    def on_minimize(args, kwargs, result, start, end):
        kind = tracer.kinds[KIND_NAMES[args[0]]]
        kind["calls"] += 1
        kind["s"] += end - start
        kind["iterations"] += result[3]
        kind["nonconverged"] += not result[4]
        if tracer.fit_optima is not None:
            tracer.fit_optima.append((args[0], result[2]))

    kernels.minimize = wrap(tracer, "kernels", "kernels.minimize",
                            kernels.minimize, on_minimize)

    # stats
    for name in ("l1_error", "nps", "welch_t_test", "chi_square_uniformity"):
        setattr(stats, name, wrap(tracer, "stats", "stats." + name,
                                  getattr(stats, name)))

    cli.main = wrap(tracer, "cli", "cli.main", cli.main)
    return cli


def _count_redundant(tracer):
    """Runs whose optimum another run of the same fit already reached."""
    optima = tracer.fit_optima or []
    tracer.fit_optima = None
    seen = []
    for kind, value in optima:
        if any(abs(value - other) <= REDUNDANT_REL * max(abs(value),
                                                         abs(other))
               for other in seen):
            tracer.kinds[KIND_NAMES[kind]]["redundant"] += 1
        else:
            seen.append(value)


def report(tracer, import_s, main_s):
    stores = list(tracer.stores.values())
    return {
        "import_s": import_s,
        "main_s": main_s,
        "layers": tracer.layers,
        "ops": tracer.ops,
        "counters": tracer.counters,
        "store": {
            "buckets": sum(len(s.arrivals) + len(s.cancels) for s in stores),
            "out_of_hours": sum(s.out_of_hours for s in stores),
            "dropped_arrivals": sum(s.dropped_arrivals for s in stores),
            "dropped_cancels": sum(s.dropped_cancels for s in stores),
        },
        "fits": tracer.fits,
        "kinds": tracer.kinds,
        "sessions": [{"start_s": s[0] - _T0, "end_s": s[1] - _T0,
                      "apply_calls": s[2], "apply_s": s[3]}
                     for s in tracer.sessions.values()],
    }


def main(argv):
    if len(argv) < 3 or argv[1] != "--":
        print("usage: tracer.py TRACE_JSON -- <lobfit arguments>",
              file=sys.stderr)
        return 1
    out_path, lobfit_args = argv[0], argv[2:]
    tracer = Tracer()
    cli = install(tracer)
    t_main = _clock()
    try:
        return cli.main(lobfit_args)
    finally:
        # written however the command ends, so a failure is traced too
        main_s = _clock() - t_main
        with open(out_path, "w") as fh:
            json.dump(report(tracer, t_main - _T0, main_s), fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
