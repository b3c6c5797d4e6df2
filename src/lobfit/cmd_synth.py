"""``lobfit synth``: generate a seeded stream and its ground truth.

Only this command loads this module, and with it ``lobfit.synth``, which
loads numpy, ``dist`` (with ``kernels`` and ``stats``), ``feed`` and
``rates``.  Without bytecode caches, a command compiles every module it
imports; no other command compiles ``synth`` or loads numpy.
"""

from __future__ import annotations

import os

from lobfit import synth
from lobfit.cli import parse_model


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
    # the stream goes to disk frame by frame under a temporary name, and
    # takes its own name only once whole: a run that fails leaves no
    # shorter stream that would still replay as valid
    os.makedirs(args.out, exist_ok=True)
    stream = os.path.join(args.out, "stream.lobf")
    partial = stream + ".tmp"
    try:
        with open(partial, "wb") as fh:
            _, truth = synth.generate(spec, fh.write)
        os.replace(partial, stream)
    except BaseException:
        if os.path.exists(partial):
            os.remove(partial)
        raise
    synth.write_ground_truth(os.path.join(args.out, "ground_truth.json"),
                             truth)
