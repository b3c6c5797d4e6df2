"""``lobfit synth``: generate a seeded stream and its ground truth.

Only this command loads this module, and with it ``lobfit.synth``, which
loads numpy, ``dist`` (with ``kernels`` and ``stats``), ``feed`` and
``rates``, and the fork pool in ``lobfit.pool``.  Without bytecode
caches, a command compiles every module it imports; no other command
compiles ``synth`` or loads numpy.

Each session draws from its own jump of the seed's stream, so the
sessions are made in parallel, in one block of consecutive days per CPU
this process may run on: this process makes the first block, which is
the stream of the same spec over fewer days, and a forked worker each
later one, into a file of its own; the stream is those blocks in order,
and its bytes do not depend on the number of CPUs.  With one CPU, or
one day, nothing is forked and the whole stream is made here.
"""

from __future__ import annotations

import functools
import os
import shutil

from lobfit import pool, rates, synth
from lobfit.cli import parse_model


def _write_block(spec, paths, bounds, k):
    """Write block ``k``, sessions ``bounds[k]`` up to ``bounds[k + 1]``
    of ``spec``, to ``paths[k]``, frame by frame, and return its
    tallies.  Block 0 is the stream of ``spec`` cut to its first days."""
    first, stop = bounds[k], bounds[k + 1]
    with open(paths[k], "wb") as fh:
        if first == 0:
            head = (spec if stop == spec.days
                    else synth.SynthSpec(**{**spec.params(), "days": stop}))
            return synth.generate(head, fh.write)[1].store
        store = rates.TallyStore()
        days = synth.default_calendar(stop, spec.start)
        for index in range(first, stop):
            store.merge(synth.generate_session(spec, index, days[index],
                                               fh.write))
        return store


def cmd_synth(args) -> None:
    style = (synth.CancelStyle.FULL if args.cancel_style == "full"
             else synth.CancelStyle.UNIFORM_FRACTION)
    spec = synth.SynthSpec(
        seed=args.seed,
        days=args.days,
        orders_per_day=args.orders_per_day,
        buy_model=parse_model(args.buy_model),
        sell_model=parse_model(args.sell_model),
        cancel_probability=args.cancel_probability,
        cancel_style=style,
        tick_size=args.tick_size,
        initial_mid=args.mid,
    )
    # the sessions go to disk frame by frame in one block of days per
    # worker: block 0, made in this process, under the stream's
    # temporary name, and each later one under a name of its own,
    # appended to it in order; the stream takes its own name only once
    # whole, so a run that fails leaves no shorter stream that would
    # still replay as valid, and no block file
    os.makedirs(args.out, exist_ok=True)
    stream = os.path.join(args.out, "stream.lobf")
    partial = stream + ".tmp"
    workers = min(pool._usable_cpus(), spec.days)
    # block k is days bounds[k] up to bounds[k + 1]; the first block is
    # the longest, and with one worker the whole stream
    bounds = [-(-spec.days * k // workers) for k in range(workers + 1)]
    paths = [partial] + [f"{stream}.{k}.tmp" for k in range(1, workers)]
    try:
        stores = pool._map_on_cpus(
            functools.partial(_write_block, spec, paths, bounds),
            list(range(workers)))
        with open(partial, "ab") as out:
            for path in paths[1:]:
                with open(path, "rb") as fh:
                    # in shutil's bounded chunks, 64 KiB on Linux
                    shutil.copyfileobj(fh, out)
                os.remove(path)
        os.replace(partial, stream)
    except BaseException:
        for path in paths:
            if os.path.exists(path):
                os.remove(path)
        raise
    store = stores[0]
    for block_store in stores[1:]:
        store.merge(block_store)
    synth.write_ground_truth(os.path.join(args.out, "ground_truth.json"),
                             synth.GroundTruth(spec=spec, store=store))
