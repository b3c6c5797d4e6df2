"""Full-system acceptance gate.

One test per shipping criterion.  Each prints a single PASS/FAIL line
(visible under ``pytest -s``) so a run reads as a checklist.  The
forty-day synthetic run that backs the closure, scoring, and accounting
checks is generated once per module and shared between criteria.
"""
import hashlib
import json
import math
import random
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np
import pytest

from lobfit import cli, dist, feed, rates, stats, synth
from lobfit.errors import FormatError
from lobfit.feed import MarketMessage, MessageKind, Side

_MODULE_T0 = time.monotonic()


@contextmanager
def criterion(label):
    try:
        yield
    except BaseException:
        print(f"[{label}] FAIL")
        raise
    print(f"[{label}] PASS")


@pytest.fixture(scope="module")
def forty_day_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("acceptance")
    spec = synth.SynthSpec(
        seed=20170801, days=40, orders_per_day=3000,
        buy_model=dist.DiscreteWeibull(0.8, 1.2),
        sell_model=dist.DiscreteWeibull(0.75, 1.4),
        cancel_probability=0.08,
        cancel_style=synth.CancelStyle.UNIFORM_FRACTION)
    # written frame by frame, as lobfit synth writes it
    stream = out / "stream.lobf"
    with open(stream, "wb") as fh:
        _, truth = synth.generate(spec, fh.write)
    blob = stream.read_bytes()
    synth.write_ground_truth(out / "ground_truth.json", truth)
    assert cli.main(["rates", str(stream), "--out", str(out)]) == 0
    assert cli.main(["fit", str(out / "rates.csv"),
                     "--out", str(out)]) == 0
    fits = json.loads((out / "fits.json").read_text())
    return {"spec": spec, "blob": blob, "truth": truth,
            "dir": out, "fits": fits}


def replay(blob, tick_size=1):
    store = rates.TallyStore()
    rates.tally_stream(store, [blob], tick_size)
    return store


def random_message(rng):
    kind = rng.choice(list(MessageKind))
    ts = rng.randrange(2 ** 48)
    oid = rng.randrange(1, 2 ** 63)
    if kind is MessageKind.ADD:
        return MarketMessage.add(ts, oid, Side(rng.randrange(2)),
                                 rng.randrange(1, 2 ** 32),
                                 rng.randrange(1, 2 ** 32))
    if kind is MessageKind.CANCEL:
        return MarketMessage.cancel(ts, oid, rng.randrange(1, 2 ** 32))
    if kind is MessageKind.DELETE:
        return MarketMessage.delete(ts, oid)
    if kind is MessageKind.EXECUTE:
        return MarketMessage.execute(ts, oid, rng.randrange(1, 2 ** 32))
    return MarketMessage.replace(ts, oid, rng.randrange(1, 2 ** 63),
                                 rng.randrange(1, 2 ** 32),
                                 rng.randrange(1, 2 ** 32))


def dw_grid_argmin(weights):
    """Brute-force scan of the truncated likelihood surface on a 1e-3 grid.

    Shares no code with the fitter: plain numpy broadcasting over the
    closed-form cell masses.  Used as an independent cross-check.
    """
    q = np.arange(0.700, 0.900 + 1e-9, 1e-3)
    b = np.arange(1.000, 1.400 + 1e-9, 1e-3)
    qg, bg = np.meshgrid(q, b, indexing="ij")
    x = np.arange(0, 16, dtype=float)
    surv = qg[..., None] ** (x ** bg[..., None])
    cell = surv[..., :-1] - surv[..., 1:]
    w = np.asarray(weights, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        nll = (-(w * np.log(cell)).sum(axis=-1)
               + w.sum() * np.log(1.0 - surv[..., -1]))
    nll = np.where(np.isfinite(nll), nll, np.inf)
    i, j = np.unravel_index(np.argmin(nll), nll.shape)
    return q[i], b[j]


def test_c1_codec_round_trip_and_fuzz():
    with criterion("C1 codec: 1e5 round-trips, 1e5 fuzz inputs, under 10s"):
        t0 = time.monotonic()
        rng = random.Random(8)
        msgs = [random_message(rng) for _ in range(100_000)]
        for msg in msgs:
            assert feed.decode_message(feed.encode_message(msg)) == msg
        blob = b"".join(feed.encode_frame(f)
                        for f in feed.build_frames(20170801, msgs))
        back = [m for frame in feed.iter_frames(blob)
                for m in frame.messages]
        assert back == msgs
        # arbitrary bytes must either decode or raise the typed family,
        # never leak struct/ValueError internals
        for _ in range(100_000):
            data = rng.randbytes(rng.randrange(0, 41))
            try:
                feed.decode_message(data)
            except FormatError:
                pass
        for _ in range(2_000):
            data = rng.randbytes(rng.randrange(0, 200))
            try:
                feed.decode_frame(data)
            except FormatError:
                pass
        assert time.monotonic() - t0 < 10.0


def test_c2_ground_truth_closure(forty_day_run):
    with criterion("C2 closure: replayed tallies equal generator truth, "
                   "zero tolerance"):
        store = replay(forty_day_run["blob"])
        assert store == forty_day_run["truth"].store

        variants = [
            synth.SynthSpec(seed=7, days=3, orders_per_day=500,
                            buy_model=dist.Geometric(0.4),
                            sell_model=dist.BetaBinomial(2.0, 6.0),
                            cancel_probability=0.2,
                            cancel_style=synth.CancelStyle.FULL),
            synth.SynthSpec(seed=11, days=2, orders_per_day=300,
                            buy_model=dist.DiscreteWeibull(0.6, 0.8),
                            sell_model=dist.Exponential(0.5),
                            cancel_probability=1.0,
                            cancel_style=synth.CancelStyle.UNIFORM_FRACTION,
                            tick_size=5, initial_mid=2000),
        ]
        for spec in variants:
            blob, truth = synth.generate(spec)
            assert replay(blob, spec.tick_size) == truth.store


# sha256 of the forty-day stream.lobf and ground_truth.json; any change
# to the generator's draws, its encoding or its tally moves them
FORTY_DAY_STREAM_SHA256 = (
    "f5a2d0c64776188c3daae3c5f4b3aeb90ddd1740052780a5c34cf431cb00e20e")
FORTY_DAY_TRUTH_SHA256 = (
    "866c030d1687a352fbd95ce91d6c3fc7fa17b3bea8c3352005d5c990b8736490")


def test_c2_forty_day_bytes_are_as_recorded(forty_day_run):
    with criterion("C2 bytes: forty-day stream and truth as recorded"):
        out = forty_day_run["dir"]
        assert (hashlib.sha256((out / "stream.lobf").read_bytes())
                .hexdigest() == FORTY_DAY_STREAM_SHA256)
        assert (hashlib.sha256((out / "ground_truth.json").read_bytes())
                .hexdigest() == FORTY_DAY_TRUTH_SHA256)


def test_c3_parameter_recovery():
    with criterion("C3 recovery: 18/20 seeds within 0.02 of (0.8, 1.2), "
                   "grid cross-check, exact curve to 1e-4"):
        truth = dist.DiscreteWeibull(0.8, 1.2)
        curve = dist.tick_curve(truth)
        # counts observed through a 15-tick window are window-conditioned,
        # so the matching likelihood is the truncated one; the plain mode
        # carries a visible bias on the shape parameter
        results = []
        hits = 0
        for seed in range(1, 21):
            w = np.random.default_rng(seed).multinomial(
                100_000, curve).astype(float)
            fit = dist.fit_family(w, "discrete_weibull", truncated=True)
            results.append((w, fit))
            if (abs(fit.family.q - 0.8) <= 0.02
                    and abs(fit.family.beta - 1.2) <= 0.02):
                hits += 1
        assert hits >= 18

        for w, fit in results[:3]:
            gq, gb = dw_grid_argmin(w)
            assert abs(fit.family.q - gq) <= 1.5e-3
            assert abs(fit.family.beta - gb) <= 1.5e-3

        exact = dist.fit_family(curve, "discrete_weibull",
                                 truncated=True)
        assert abs(exact.family.q - 0.8) <= 1e-4
        assert abs(exact.family.beta - 1.2) <= 1e-4


def test_c4_family_identities():
    with criterion("C4 identities: special-case curves agree to 1e-12"):
        for q in (0.25, 0.5, 0.8):
            a = dist.tick_curve(dist.DiscreteWeibull(q, 1.0))
            b = dist.tick_curve(dist.Geometric(1.0 - q))
            assert max(abs(x - y) for x, y in zip(a, b)) < 1e-12
        flat = dist.tick_curve(dist.BetaBinomial(1.0, 1.0))
        assert max(abs(x - 1.0 / 15.0) for x in flat) < 1e-12
        e = dist.tick_curve(dist.Exponential(math.log(2.0)))
        g = dist.tick_curve(dist.Geometric(0.5))
        assert max(abs(x - y) for x, y in zip(e, g)) < 1e-12


def test_c5_relative_scoring(forty_day_run):
    with criterion("C5 scoring: best family exactly 1.0 everywhere; daily "
                   "means dw <= bb < geometric and geometric > 2"):
        instances = forty_day_run["fits"]["instances"]
        for inst in instances:
            assert not inst["failed"]
            scores = [f["nps"] for f in inst["fits"].values()]
            assert min(scores) == 1.0
            assert all(s >= 1.0 for s in scores)

        daily = [i for i in instances if i["granularity"] == "daily"]
        assert len(daily) >= 40
        mean = {tag: sum(i["fits"][tag]["nps"] for i in daily) / len(daily)
                for tag in ("geometric", "discrete_weibull",
                            "beta_binomial")}
        assert (mean["discrete_weibull"] <= mean["beta_binomial"]
                < mean["geometric"])
        assert mean["geometric"] > 2.0


def test_c6_statistics_oracles():
    with criterion("C6 stats: frozen Welch and chi-square values, "
                   "incomplete-beta identity to 1e-10"):
        welch = stats.welch_t_test([1, 2, 3], [4, 5, 6])
        assert abs(welch.statistic - (-3.674)) <= 1e-3
        assert abs(welch.statistic - (-3.6742346141747673)) < 1e-12
        assert abs(welch.df - 4.0) <= 1e-3
        assert abs(welch.df - 4.0) < 1e-9
        assert abs(welch.p_value - 0.0213) <= 5e-4
        assert abs(welch.p_value - 0.021311641128756775) < 1e-12

        chi = stats.chi_square_uniformity([0.2] + [0.1] * 9)
        assert abs(chi.statistic - 8.1818) <= 5e-4
        assert abs(chi.statistic - 90.0 / 11.0) < 1e-12
        assert abs(chi.p_value - 0.5158) <= 1e-3
        assert abs(chi.p_value - 0.5159324048536893) < 1e-12

        for a in (0.5, 2.0, 7.5):
            for b in (0.5, 2.0, 7.5):
                for x in (0.1, 0.42, 0.9):
                    left = stats.reg_inc_beta(a, b, x)
                    right = 1.0 - stats.reg_inc_beta(b, a, 1.0 - x)
                    assert abs(left - right) < 1e-10


def test_c7_uniformity_calibration():
    with criterion("C7 calibration: null rejection rate in [0.03, 0.07], "
                   "skewed vector rejected below 1e-6"):
        rng = np.random.default_rng(1975)
        rejected = 0
        for _ in range(1000):
            counts = rng.multinomial(500, [0.1] * 10)
            ratios = [c / 100 for c in counts]
            if stats.chi_square_uniformity(ratios).p_value < 0.05:
                rejected += 1
        assert 0.03 <= rejected / 1000 <= 0.07

        skew = stats.chi_square_uniformity([1.0] + [0.0] * 9)
        assert skew.p_value < 1e-6


def test_c8_instance_accounting(forty_day_run):
    with criterion("C8 accounting: 228 instances, 1140 fit records, "
                   "module under five minutes"):
        instances = forty_day_run["fits"]["instances"]
        assert len(instances) == 228
        by_granularity = Counter(i["granularity"] for i in instances)
        assert by_granularity == {"daily": 80, "weekly": 18,
                                  "monthly": 4, "hourly": 126}
        assert sum(len(i["fits"]) for i in instances) == 228 * 5
        assert not any(i["failed"] for i in instances)

        rows = (forty_day_run["dir"] / "rates.csv").read_text().splitlines()
        assert len(rows) == 1 + 228 * 15

        assert time.monotonic() - _MODULE_T0 < 300.0
