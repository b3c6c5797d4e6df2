"""``lobfit cancel-test``: chi-square uniformity of cancellation ratios.

A run that tests no weekly or monthly bucket is an error: it names how
many were skipped and why, and writes no ``chi_square.csv``.

Only this command loads this module.  It loads ``rates`` and ``stats``,
and not ``feed``; without bytecode caches, a command compiles every
module it imports.  It imports nothing from ``lobfit.cli``.
"""

from __future__ import annotations

import os

from lobfit import rates, stats
from lobfit.errors import (AllZero, DomainError, LobfitError, MissingTicks,
                           warn)
from lobfit.rates import Granularity

# why a bucket was skipped, as the error of a run that tests none says it
_SKIPPED = {MissingTicks: "with a tick that has no cancels",
            AllZero: "whose ratios round to zero counts",
            DomainError: "with a ratio outside [0, 1]"}


def cmd_cancel_test(args) -> None:
    # in BucketKey order, as the reader returns them
    tested = [inst for inst in rates.read_cancels_csv(args.cancels)
              if inst["key"].granularity in (Granularity.WEEKLY,
                                             Granularity.MONTHLY)]
    rows = []
    skipped = {}
    for inst in tested:
        key = inst["key"]
        bucket, side = key.label, key.side.name.lower()
        try:
            if any(r is None for r in inst["mean_ratio"]):
                absent = [i + 1 for i, r in enumerate(inst["mean_ratio"])
                          if r is None]
                raise MissingTicks(f"no cancels in ticks {absent}")
            result = stats.chi_square_uniformity(inst["mean_ratio"])
        except (MissingTicks, AllZero, DomainError) as exc:
            warn(f"skipping {bucket} {side}: {exc}")
            skipped[type(exc)] = skipped.get(type(exc), 0) + 1
            continue
        rows.append((bucket, side, result.statistic, result.p_value))
    if not rows:
        why = "".join(f", {count} {_SKIPPED[kind]}"
                      for kind, count in skipped.items())
        raise LobfitError(f"{args.cancels}: tested no weekly or monthly "
                          f"bucket: {len(tested)} skipped{why}")
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "chi_square.csv"), "w",
              newline="") as fh:
        fh.write("bucket_key,side,statistic,p_value\n")
        for bucket, side, statistic, p_value in rows:
            fh.write(f"{bucket},{side},{statistic!r},{p_value!r}\n")
