"""Write the replay workload's synthetic streams with the lobfit library.

Usage (the harness runs this once per benchmark run, outside timing):

    python3 perfbench/make_streams.py SPECS_JSON OUT_DIR

SPECS_JSON is a list of stream specs as built by
``workloads.replay_specs``.  Each spec becomes
``OUT_DIR/<name>.lobf`` plus ``OUT_DIR/<name>.truth.json``.  The CLI's
``synth`` has no start-date flag, and streams that share session dates
cannot be replayed together, so the streams are made here through
``synth.SynthSpec``.
"""

from __future__ import annotations

import datetime as dt
import json
import os
import sys

from lobfit import cli, synth


def main(argv):
    specs_path, out_dir = argv
    with open(specs_path) as fh:
        specs = json.load(fh)
    for spec in specs:
        style = (synth.CancelStyle.FULL if spec["cancel_style"] == "full"
                 else synth.CancelStyle.UNIFORM_FRACTION)
        blob, truth = synth.generate(synth.SynthSpec(
            seed=spec["seed"],
            days=spec["days"],
            orders_per_day=spec["orders_per_day"],
            buy_model=cli.parse_model(spec["buy_model"]),
            sell_model=cli.parse_model(spec["sell_model"]),
            cancel_probability=spec["cancel_probability"],
            cancel_style=style,
            start=dt.date.fromisoformat(spec["start"]),
        ))
        with open(os.path.join(out_dir, spec["name"] + ".lobf"), "wb") as fh:
            fh.write(blob)
        synth.write_ground_truth(
            os.path.join(out_dir, spec["name"] + ".truth.json"), truth)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
