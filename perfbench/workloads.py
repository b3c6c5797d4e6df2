"""The three benchmark workloads: inputs drawn from the seed, commands, checks.

Every workload is a closed loop with one client: one iteration runs its
``lobfit`` commands one after another, each in a fresh single-threaded
interpreter, and the next iteration starts only when the last command
has exited.  The seed is a benchmark argument; the program sees only the
inputs drawn from it.

* generate - ``lobfit synth``, DW/DW models, fraction cancels at
  p = 0.08: the acceptance run's shape with 2 days instead of 40.
  Exercises synth's per-arrival cancel scan, feed encoding, book and
  tally; no decoding and no fitting.
* replay - ``lobfit rates`` over three streams, then ``lobfit
  cancel-test``.  The streams cover disjoint months with model pairs
  dw/dw, geo/bb and exp/pow and mix fraction and full cancels, so both
  Cancel and Delete messages decode.  The read side only: decode, book,
  tally and CSV writing, with no generator and no fitting.
* fit - ``lobfit fit`` with all five families on a ``rates.csv`` drawn
  here with numpy: one multinomial draw per instance from one of the
  five families.  The mix of granularities, the bucket totals and the
  generating parameters follow the 40-day acceptance run, as recorded
  in ``reference/fit_traffic.json``.  A change to synth or rates cannot
  change this input.  dist, kernels and stats do all the work; feed,
  book and tally do none.
"""

from __future__ import annotations

import datetime as dt
import json
import math
import os

import numpy as np

import checks

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "reference")
FIT_TRAFFIC = os.path.join(REFERENCE_DIR, "fit_traffic.json")
TALLY_REFERENCE = os.path.join(REFERENCE_DIR, "tally")
# Seed kept out of tuning, for re-checking a later performance claim.
HELD_OUT_SEED = 20170901

CANCEL_PROBABILITY = 0.08


def _rng(seed: int, salt: int) -> np.random.Generator:
    return np.random.default_rng([seed, salt])


def _jitter(rng, centre: float, spread: float) -> float:
    return round(centre * (1.0 + spread * rng.uniform(-1.0, 1.0)), 4)


def _one_per_command(out_dir, results):
    """(attempted, failed) when each command is one operation."""
    return len(results), sum(1 for r in results if r.returncode != 0)


def make_streams(runner, specs_path, out_dir) -> tuple[list, list]:
    """Write the streams of a spec file; their paths and ground truths."""
    result = runner.script("make_streams.py", [specs_path, out_dir])
    if result.returncode != 0:
        raise RuntimeError(f"making streams failed: {result.summary()}")
    with open(specs_path) as fh:
        names = [spec["name"] for spec in json.load(fh)]
    return ([os.path.join(out_dir, name + ".lobf") for name in names],
            [os.path.join(out_dir, name + ".truth.json") for name in names])


def check_tally_reference(runner, out_dir) -> list[str]:
    """The reference streams tally as recorded with the benchmark.

    synth and ``lobfit rates`` share the tally code, so the closure
    check cannot see a tally change that both make; this check can.
    Both the generator's tallies and ``lobfit rates`` output must equal
    ``reference/tally/rates.csv`` and ``cancels.csv``.
    """
    ref_dir = os.path.join(out_dir, "tally_reference")
    os.makedirs(ref_dir, exist_ok=True)
    try:
        streams, truths = make_streams(
            runner, os.path.join(TALLY_REFERENCE, "streams.json"), ref_dir)
        truth = checks.merged_truth(truths)
    except (OSError, ValueError, KeyError, RuntimeError) as exc:
        return [f"reference streams: {exc}"]
    result = runner.lobfit(["rates", *streams, "--out", ref_dir])
    if result.returncode != 0:
        return [f"lobfit rates on the reference streams failed: "
                f"{result.summary()}"]
    want_rates = os.path.join(TALLY_REFERENCE, "rates.csv")
    want_cancels = os.path.join(TALLY_REFERENCE, "cancels.csv")
    return (checks.check_same_tallies(os.path.join(ref_dir, "rates.csv"),
                                      os.path.join(ref_dir, "cancels.csv"),
                                      want_rates, want_cancels)
            + ["reference generator tallies: " + problem for problem in
               checks.check_tallies(truth, want_rates, want_cancels)])


class Generate:
    name = "generate"
    days = 2
    orders_per_day = 3000

    def __init__(self, seed, runner):
        rng = _rng(seed, 1)
        self.runner = runner
        self.args = [
            "synth", "--seed", str(int(rng.integers(0, 2 ** 32))),
            "--days", str(self.days),
            "--orders-per-day", str(self.orders_per_day),
            "--buy-model", f"dw:{_jitter(rng, 0.8, 0.02)},"
                           f"{_jitter(rng, 1.2, 0.04)}",
            "--sell-model", f"dw:{_jitter(rng, 0.75, 0.02)},"
                            f"{_jitter(rng, 1.4, 0.04)}",
            "--cancel-probability", str(CANCEL_PROBABILITY),
            "--cancel-style", "fraction",
        ]
        self.items = 0
        self.inputs = {}

    def prepare(self, work_dir):
        """The command line is the whole input."""

    def commands(self, out_dir):
        return [self.args + ["--out", out_dir]]

    operations = staticmethod(_one_per_command)

    def check(self, out_dir):
        """The stream, replayed by ``lobfit rates``, gives the ground truth."""
        stream = os.path.join(out_dir, "stream.lobf")
        try:
            self.items = sum(checks.count_messages(stream).values())
        except (OSError, ValueError, KeyError, IndexError) as exc:
            return [f"stream.lobf unreadable: {exc}"]
        replay_dir = os.path.join(out_dir, "replay")
        result = self.runner.lobfit(["rates", stream, "--out", replay_dir])
        if result.returncode != 0:
            return [f"lobfit rates on the stream failed: {result.summary()}"]
        with open(os.path.join(out_dir, "ground_truth.json")) as fh:
            truth = json.load(fh)
        return (checks.check_tallies(truth,
                                     os.path.join(replay_dir, "rates.csv"),
                                     os.path.join(replay_dir, "cancels.csv"))
                + check_tally_reference(self.runner, out_dir))


def replay_specs(seed: int, days: int, orders_per_day: int) -> list[dict]:
    """Three streams over disjoint months, so no bucket spans two streams."""
    rng = _rng(seed, 2)
    base = {"days": days, "orders_per_day": orders_per_day,
            "cancel_probability": CANCEL_PROBABILITY}
    specs = [
        {"name": "dw_dw", "start": "2017-08-01", "cancel_style": "fraction",
         "buy_model": f"dw:{_jitter(rng, 0.8, 0.02)},"
                      f"{_jitter(rng, 1.2, 0.04)}",
         "sell_model": f"dw:{_jitter(rng, 0.75, 0.02)},"
                       f"{_jitter(rng, 1.4, 0.04)}"},
        {"name": "geo_bb", "start": "2017-09-05", "cancel_style": "full",
         "buy_model": f"geo:{_jitter(rng, 0.35, 0.05)}",
         "sell_model": f"bb:{_jitter(rng, 2.0, 0.05)},"
                       f"{_jitter(rng, 6.0, 0.05)}"},
        {"name": "exp_pow", "start": "2017-10-03",
         "cancel_style": "fraction",
         "buy_model": f"exp:{_jitter(rng, 0.5, 0.05)}",
         "sell_model": f"pow:1,{_jitter(rng, 1.4, 0.05)}"},
    ]
    for spec in specs:
        spec.update(base, seed=int(rng.integers(0, 2 ** 32)))
    return specs


class Replay:
    name = "replay"
    days = 1
    orders_per_day = 3500

    def __init__(self, seed, runner):
        self.specs = replay_specs(seed, self.days, self.orders_per_day)
        self.runner = runner
        self.items = 0
        self.inputs = {}
        self.streams = self.truths = None

    def prepare(self, work_dir):
        specs_path = os.path.join(work_dir, "streams.json")
        with open(specs_path, "w") as fh:
            json.dump(self.specs, fh, indent=1)
        self.streams, self.truths = make_streams(self.runner, specs_path,
                                                 work_dir)
        kinds = {}
        for stream in self.streams:
            for kind, n in checks.count_messages(stream).items():
                kinds[kind] = kinds.get(kind, 0) + n
        if not (kinds["cancel"] and kinds["delete"]):
            raise RuntimeError(f"replay streams lack Cancel or Delete "
                               f"messages: {kinds}")
        self.items = sum(kinds.values())
        self.inputs = {os.path.basename(p): p for p in self.streams}

    def commands(self, out_dir):
        return [["rates", *self.streams, "--out", out_dir],
                ["cancel-test", os.path.join(out_dir, "cancels.csv"),
                 "--out", out_dir]]

    operations = staticmethod(_one_per_command)

    def check(self, out_dir):
        try:
            truth = checks.merged_truth(self.truths)
        except (OSError, ValueError, KeyError) as exc:
            return [f"ground truth unreadable: {exc}"]
        cancels = os.path.join(out_dir, "cancels.csv")
        return (checks.check_tallies(truth,
                                     os.path.join(out_dir, "rates.csv"),
                                     cancels)
                + checks.check_chi_square(
                    cancels, os.path.join(out_dir, "chi_square.csv"))
                + check_tally_reference(self.runner, out_dir))


# --- the fit corpus ---

def _lbeta(a: float, b: float) -> float:
    return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)


def family_curve(family: str, params: tuple, ticks: int = 15) -> np.ndarray:
    """A family's mass on ticks 1..ticks, renormalized over the window."""
    x = np.arange(1, ticks + 1, dtype=float)
    if family == "geometric":
        (p,) = params
        raw = p * (1.0 - p) ** (x - 1.0)
    elif family == "discrete_weibull":
        q, beta = params
        raw = q ** ((x - 1.0) ** beta) - q ** (x ** beta)
    elif family == "beta_binomial":
        a, b = params
        n = ticks - 1
        raw = np.array([math.exp(math.lgamma(n + 1) - math.lgamma(k + 1)
                                 - math.lgamma(n - k + 1)
                                 + _lbeta(k + a, n - k + b) - _lbeta(a, b))
                        for k in range(ticks)])
    elif family == "exponential":
        (rate,) = params
        raw = np.exp(-rate * (x - 1.0)) - np.exp(-rate * x)
    elif family == "power_law":
        (exponent,) = params
        raw = x ** -exponent
    else:
        raise ValueError(f"unknown family {family!r}")
    return raw / raw.sum()


# The parameters family_curve takes, by name, in its order.
GENERATING = {"geometric": ("p",), "discrete_weibull": ("q", "beta"),
              "beta_binomial": ("alpha", "beta"), "exponential": ("rate",),
              "power_law": ("exponent",)}
FIT_INSTANCES = 20


def apportion(weights: dict[str, int], n: int) -> list[str]:
    """n keys in proportion to their weights (largest remainder), grouped."""
    total = sum(weights.values())
    shares = {k: n * w / total for k, w in weights.items()}
    counts = {k: int(v) for k, v in shares.items()}
    by_remainder = sorted(weights, key=lambda k: counts[k] - shares[k])
    for k in by_remainder[:n - sum(counts.values())]:
        counts[k] += 1
    return [k for k in sorted(weights) for _ in range(counts[k])]


def _label(granularity: str, k: int) -> str:
    """The k-th distinct bucket label of a granularity."""
    if granularity == "hourly":
        return f"hourly:2017-W{31 + k // 7:02d}:h{k % 7 + 1}"
    if granularity == "daily":
        day = dt.date(2017, 8, 1) + dt.timedelta(days=k)
        return f"daily:{day.isoformat()}"
    if granularity == "weekly":
        return f"weekly:2017-W{31 + k:02d}"
    return f"monthly:2017-{8 + k:02d}"


def fit_corpus(seed: int, instances: int = FIT_INSTANCES) -> list[dict]:
    """Buy-side instances drawn from the seed, shaped like the acceptance run.

    Granularities are split as in the acceptance run's ``rates.csv``;
    generating families take turns.  Each parameter is uniform and each
    bucket total log-uniform between the 10th and 90th percentile of
    the acceptance run (fitted parameters, bucket totals), as
    derive_fit_traffic.py recorded them.
    """
    with open(FIT_TRAFFIC) as fh:
        traffic = json.load(fh)
    rng = _rng(seed, 3)
    corpus = []
    seen = {}
    for i, granularity in enumerate(apportion(traffic["instances"],
                                              instances)):
        family = checks.FAMILIES[i % len(checks.FAMILIES)]
        spread = traffic["params"][family]
        params = tuple(rng.uniform(spread[name]["p10"], spread[name]["p90"])
                       for name in GENERATING[family])
        totals = traffic["totals"][granularity]
        total = int(math.exp(rng.uniform(math.log(totals["p10"]),
                                         math.log(totals["p90"]))))
        quantity = rng.multinomial(total, family_curve(family, params))
        k = seen.get(granularity, 0)
        seen[granularity] = k + 1
        corpus.append({"bucket_key": _label(granularity, k), "side": "buy",
                       "family": family, "params": params,
                       "quantity": [int(q) for q in quantity]})
    return corpus


def write_rates_csv(corpus, path) -> None:
    """The corpus in ``lobfit rates`` output format."""
    with open(path, "w", newline="") as fh:
        fh.write("bucket_key,side,tick,quantity,density\n")
        for inst in corpus:
            total = sum(inst["quantity"])
            for tick, q in enumerate(inst["quantity"], start=1):
                fh.write(f"{inst['bucket_key']},{inst['side']},{tick},{q},"
                         f"{q / total!r}\n")


class Fit:
    name = "fit"
    reference_rates = os.path.join(REFERENCE_DIR, "rates.csv")
    reference_params = os.path.join(REFERENCE_DIR, "fit_params.json")
    instances = FIT_INSTANCES

    def __init__(self, seed, runner):
        self.corpus = fit_corpus(seed, self.instances)
        self.runner = runner
        self.items = len(self.corpus)
        self.inputs = {}
        self.rates = None

    def prepare(self, work_dir):
        self.rates = os.path.join(work_dir, "rates.csv")
        write_rates_csv(self.corpus, self.rates)
        self.inputs = {"rates.csv": self.rates}

    def commands(self, out_dir):
        return [["fit", self.rates, "--out", out_dir]]

    def operations(self, out_dir, results):
        attempted = self.items * len(checks.FAMILIES)
        if results[-1].returncode != 0:
            return attempted, attempted
        failed, _ = checks.fit_failures(os.path.join(out_dir, "fits.json"),
                                        self.items)
        return attempted, failed

    def check(self, out_dir):
        """The seed's fits are sane; the reference corpus fits as recorded."""
        _, problems = checks.fit_failures(
            os.path.join(out_dir, "fits.json"), self.items)
        ref_dir = os.path.join(out_dir, "reference")
        result = self.runner.lobfit(["fit", self.reference_rates,
                                     "--out", ref_dir])
        if result.returncode != 0:
            return problems + [f"reference fit failed: {result.summary()}"]
        return problems + checks.check_fit_reference(
            os.path.join(ref_dir, "fits.json"), self.reference_params)


WORKLOADS = {w.name: w for w in (Generate, Replay, Fit)}
