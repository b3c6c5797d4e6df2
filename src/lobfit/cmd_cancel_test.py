"""``lobfit cancel-test``: chi-square uniformity of cancellation ratios.

Only this command loads this module.  It loads ``rates`` and ``stats``,
and not ``feed``; without bytecode caches, a command compiles every
module it imports.
"""

from __future__ import annotations

import os

from lobfit import rates, stats
from lobfit.cli import _instance_sort_key, _warn
from lobfit.errors import AllZero, DomainError, MissingTicks
from lobfit.rates import Granularity


def cmd_cancel_test(args) -> None:
    instances = rates.read_cancels_csv(args.cancels)
    tested = [inst for inst in instances
              if inst["granularity"] in (Granularity.WEEKLY,
                                         Granularity.MONTHLY)]
    tested.sort(key=_instance_sort_key)
    rows = []
    for inst in tested:
        label = f"{inst['bucket_key']} {inst['side'].name.lower()}"
        try:
            if any(r is None for r in inst["mean_ratio"]):
                absent = [i + 1 for i, r in enumerate(inst["mean_ratio"])
                          if r is None]
                raise MissingTicks(f"no cancels in ticks {absent}")
            result = stats.chi_square_uniformity(inst["mean_ratio"])
        except (MissingTicks, AllZero, DomainError) as exc:
            _warn(f"skipping {label}: {exc}")
            continue
        rows.append((inst["bucket_key"], inst["side"].name.lower(),
                     result.statistic, result.p_value))
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "chi_square.csv"), "w",
              newline="") as fh:
        fh.write("bucket_key,side,statistic,p_value\n")
        for bucket, side, statistic, p_value in rows:
            fh.write(f"{bucket},{side},{statistic!r},{p_value!r}\n")
