"""Correctness checks on lobfit outputs, written without the lobfit package.

Each check returns a list of problems; an empty list means the outputs
are correct.  Values are compared parsed, not as bytes, so a change of
number formatting alone (for example ``Infinity`` becoming ``null`` in
``fits.json``) still passes.
"""

from __future__ import annotations

import csv
import json
import math
import struct

ARRIVAL_TICKS = 15
CANCEL_TICKS = 10
FAMILIES = ("geometric", "discrete_weibull", "beta_binomial", "exponential",
            "power_law")
MEAN_RATIO_REL = 1e-12
PARAM_REL = 1e-9

_HEADER = struct.Struct(">4sIQH")
MESSAGE_KINDS = {0x41: "add", 0x58: "cancel", 0x44: "delete",
                 0x45: "execute", 0x55: "replace"}


def count_messages(path) -> dict[str, int]:
    """Messages per kind in a LOBF stream, read from the frame layout."""
    with open(path, "rb") as fh:
        data = fh.read()
    counts = {name: 0 for name in MESSAGE_KINDS.values()}
    offset = 0
    while offset < len(data):
        magic, _, _, n = _HEADER.unpack_from(data, offset)
        if magic != b"LOBF":
            raise ValueError(f"{path}: bad frame magic at byte {offset}")
        offset += _HEADER.size
        for _ in range(n):
            counts[MESSAGE_KINDS[data[offset + 1]]] += 1
            offset += 1 + data[offset]
    return counts


def _rows(path, header):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        if next(reader, None) != header:
            raise ValueError(f"{path}: header is not {header}")
        rows = list(reader)
    # float() forgives surrounding whitespace; the writers never emit it
    if any(field != field.strip() for row in rows for field in row):
        raise ValueError(f"{path}: field with surrounding whitespace")
    return rows


def _float(text: str) -> float:
    """Parse a float written as its shortest round-trip ``repr``."""
    value = float(text)
    if repr(value) != text:
        raise ValueError(f"{text!r} is not a canonical float")
    return value


def merged_truth(truth_paths) -> dict:
    """Union of ground-truth tallies from streams with disjoint buckets."""
    out = {"arrival_quantities": {}, "cancel_ratio_sums": {},
           "cancel_counts": {}}
    for path in truth_paths:
        with open(path) as fh:
            truth = json.load(fh)
        for section in out:
            for key, values in truth[section].items():
                if key in out[section]:
                    raise ValueError(f"bucket {key} appears in two streams")
                out[section][key] = values
    return out


def check_tallies(truth: dict, rates_csv, cancels_csv) -> list[str]:
    """rates.csv and cancels.csv against the generator's own tallies.

    Quantities and counts must match exactly, densities must equal
    quantity / total, and each mean ratio must match ratio_sum / count
    within MEAN_RATIO_REL.
    """
    problems = []
    try:
        rows = _rows(rates_csv, ["bucket_key", "side", "tick", "quantity",
                                 "density"])
        got = {}
        for label, side, tick, quantity, density in rows:
            got.setdefault(f"{label}:{side}", {})[int(tick)] = (
                int(quantity), _float(density))
        want = truth["arrival_quantities"]
        if set(got) != set(want) or len(rows) != ARRIVAL_TICKS * len(want):
            problems.append("rates.csv buckets differ from ground truth")
        for key, quantities in want.items():
            ticks = got.get(key, {})
            total = sum(quantities)
            for tick, q in enumerate(quantities, start=1):
                if ticks.get(tick) != (q, q / total):
                    problems.append(f"rates.csv {key} tick {tick} differs")
                    break
    except (OSError, ValueError, KeyError, ZeroDivisionError) as exc:
        problems.append(f"rates.csv unreadable: {exc}")
    try:
        rows = _rows(cancels_csv, ["bucket_key", "side", "tick", "count",
                                   "mean_ratio"])
        got = {}
        for label, side, tick, count, ratio in rows:
            got[(f"{label}:{side}", int(tick))] = (int(count),
                                                    _float(ratio))
        want = {}
        for key, counts in truth["cancel_counts"].items():
            sums = truth["cancel_ratio_sums"][key]
            for tick, (c, s) in enumerate(zip(counts, sums), start=1):
                if c:
                    want[(key, tick)] = (c, s / c)
        if set(got) != set(want) or len(rows) != len(want):
            problems.append("cancels.csv buckets differ from ground truth")
        for key, (count, ratio) in want.items():
            g = got.get(key)
            if (g is None or g[0] != count
                    or not math.isclose(g[1], ratio, rel_tol=MEAN_RATIO_REL,
                                        abs_tol=0.0)):
                problems.append(f"cancels.csv {key} differs")
                break
    except (OSError, ValueError, KeyError) as exc:
        problems.append(f"cancels.csv unreadable: {exc}")
    return problems


def _keyed(path, header) -> dict:
    """(bucket_key, side, tick) -> (whole number, float) of a tally CSV."""
    rows = _rows(path, header)
    out = {(label, side, int(tick)): (int(n), _float(x))
           for label, side, tick, n, x in rows}
    if len(out) != len(rows):
        raise ValueError(f"{path}: repeated (bucket_key, side, tick)")
    return out


def check_same_tallies(rates_csv, cancels_csv, want_rates,
                       want_cancels) -> list[str]:
    """Tally CSVs against recorded ones: numbers exact, ratios to 1e-12."""
    rates_header = ["bucket_key", "side", "tick", "quantity", "density"]
    cancels_header = ["bucket_key", "side", "tick", "count", "mean_ratio"]
    try:
        got, want = _keyed(rates_csv, rates_header), _keyed(want_rates,
                                                            rates_header)
        got_c = _keyed(cancels_csv, cancels_header)
        want_c = _keyed(want_cancels, cancels_header)
    except (OSError, ValueError) as exc:
        return [f"tallies unreadable: {exc}"]
    problems = []
    if got != want:
        problems.append("rates.csv differs from the recorded reference")
    if set(got_c) != set(want_c) or any(
            got_c[k][0] != count or not math.isclose(
                got_c[k][1], ratio, rel_tol=MEAN_RATIO_REL, abs_tol=0.0)
            for k, (count, ratio) in want_c.items()):
        problems.append("cancels.csv differs from the recorded reference")
    return problems


def _round_half_away(value: float) -> int:
    return int(math.floor(value + 0.5))


def check_chi_square(cancels_csv, chi_csv) -> list[str]:
    """chi_square.csv holds one row per complete weekly or monthly bucket.

    A bucket is complete when all ten ticks saw cancels and its ratios,
    scaled by 100 and rounded, are not all zero.  The statistic is
    recomputed from the mean ratios in cancels.csv.
    """
    try:
        ratios = {}
        for label, side, tick, _, ratio in _rows(
                cancels_csv, ["bucket_key", "side", "tick", "count",
                              "mean_ratio"]):
            if label.startswith(("weekly:", "monthly:")):
                ratios.setdefault((label, side), {})[int(tick)] = (
                    _float(ratio))
        want = {}
        for key, by_tick in ratios.items():
            if len(by_tick) != CANCEL_TICKS:
                continue
            observed = [_round_half_away(100.0 * by_tick[t])
                        for t in range(1, CANCEL_TICKS + 1)]
            total = sum(observed)
            if total:
                expected = total / CANCEL_TICKS
                want[key] = sum((o - expected) ** 2
                                for o in observed) / expected
        got = {(label, side): (_float(stat), _float(p))
               for label, side, stat, p in _rows(
                   chi_csv, ["bucket_key", "side", "statistic", "p_value"])}
    except (OSError, ValueError, KeyError) as exc:
        return [f"chi_square.csv unreadable: {exc}"]
    if not want:
        return ["no complete weekly or monthly cancel bucket to test"]
    if set(got) != set(want):
        return ["chi_square.csv buckets differ from cancels.csv"]
    for key, statistic in want.items():
        stat, p = got[key]
        if not (math.isclose(stat, statistic, rel_tol=1e-12, abs_tol=1e-12)
                and 0.0 <= p <= 1.0):
            return [f"chi_square.csv {key} differs"]
    return []


def load_fits(path) -> dict:
    """fits.json keyed by (bucket_key, side)."""
    with open(path) as fh:
        payload = json.load(fh)
    return {(inst["bucket_key"], inst["side"]): inst
            for inst in payload["instances"]}


def fit_failures(fits_json, instances: int) -> tuple[int, list[str]]:
    """Failed family fits, counting every fit as failed if none ran.

    Also returns problems: a wrong instance count, a missing family, a
    non-finite parameter, or a best NPS other than exactly 1.0.
    """
    try:
        fits = load_fits(fits_json)
    except (OSError, ValueError, KeyError) as exc:
        return instances * len(FAMILIES), [f"fits.json unreadable: {exc}"]
    problems = []
    if len(fits) != instances:
        problems.append(f"fits.json has {len(fits)} instances, "
                        f"expected {instances}")
    failed = len(FAMILIES) * max(0, instances - len(fits))
    for key, inst in fits.items():
        done = inst["fits"]
        failed += sum(1 for f in FAMILIES if f not in done)
        if any(not math.isfinite(v) for fit in done.values()
               for v in fit["params"].values()):
            problems.append(f"{key}: non-finite parameter")
        scores = [fit["nps"] for fit in done.values()]
        if not scores or min(scores) != 1.0:
            problems.append(f"{key}: best NPS is not exactly 1.0")
    if failed:
        problems.append(f"{failed} family fits failed")
    return failed, problems


def fit_params(fits_json) -> dict:
    """{"<bucket_key>:<side>": {family: params}} from a fits.json."""
    return {f"{label}:{side}": {tag: fit["params"]
                                for tag, fit in inst["fits"].items()}
            for (label, side), inst in load_fits(fits_json).items()}


def check_fit_reference(fits_json, reference_json) -> list[str]:
    """Every fitted parameter within PARAM_REL of the recorded reference."""
    try:
        got = fit_params(fits_json)
        with open(reference_json) as fh:
            want = json.load(fh)["params"]
    except (OSError, ValueError, KeyError) as exc:
        return [f"reference fit unreadable: {exc}"]
    if set(got) != set(want):
        return ["reference fit instances differ from the recorded ones"]
    for key, families in want.items():
        for tag, params in families.items():
            fitted = got[key].get(tag, {})
            for name, value in params.items():
                if not (name in fitted and math.isclose(
                        fitted[name], value, rel_tol=PARAM_REL,
                        abs_tol=1e-12)):
                    return [f"reference fit {key} {tag} {name} moved: "
                            f"{fitted.get(name)!r} vs {value!r}"]
    return []
