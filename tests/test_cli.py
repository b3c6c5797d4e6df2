import contextlib
import dataclasses
import datetime as dt
import fractions
import functools
import gc
import hashlib
import io
import json
import math
import os
import random
import subprocess
import sys
import tempfile
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import gammainc, mp, mpf

import lobfit
from lobfit import (cli, cmd_fit, cmd_rates, dist, feed, kernels, pool,
                    rates, synth)
from lobfit.book import OrderBook, TickReference
from lobfit.errors import (DegenerateData, LobfitError, NonConvergence,
                           TruncatedFrame, UnknownOrderId)


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One full synth -> rates -> fit -> cancel-test run."""
    out = tmp_path_factory.mktemp("run")
    base = ["--out", str(out)]
    assert cli.main(["synth", "--seed", "9", "--days", "5",
                     "--orders-per-day", "1000",
                     "--cancel-probability", "0.15",
                     "--cancel-style", "fraction"] + base) == 0
    assert cli.main(["rates", str(out / "stream.lobf")] + base) == 0
    assert cli.main(["fit", str(out / "rates.csv")] + base) == 0
    assert cli.main(["cancel-test", str(out / "cancels.csv")] + base) == 0
    return out


class TestModelParsing:
    def test_each_shorthand(self):
        assert cli.parse_model("geo:0.4") == dist.Geometric(0.4)
        assert cli.parse_model("dw:0.8,1.2") == dist.DiscreteWeibull(0.8, 1.2)
        assert cli.parse_model("bb:2,6") == dist.BetaBinomial(2.0, 6.0)
        assert cli.parse_model("exp:0.7") == dist.Exponential(0.7)
        assert cli.parse_model("pow:0.3,1.4") == dist.PowerLaw(0.3, 1.4)

    def test_rejects_malformed_specs(self):
        for bad in ("dw", "dw:", "dw:0.8", "dw:0.8,1.2,3", "norm:0,1",
                    "dw:a,b"):
            with pytest.raises(ValueError):
                cli.parse_model(bad)

    def test_family_list_is_canonicalized(self):
        assert cmd_fit.parse_families("pow,geo,dw") == [
            "geometric", "discrete_weibull", "power_law"]
        assert cmd_fit.parse_families("geo,geo") == ["geometric"]
        with pytest.raises(ValueError):
            cmd_fit.parse_families("geo,normal")

    def test_granularity_list(self):
        got = cmd_rates.parse_granularities("weekly,daily")
        assert rates.Granularity.WEEKLY in got
        assert rates.Granularity.DAILY in got
        with pytest.raises(ValueError):
            cmd_rates.parse_granularities("yearly")


class TestPipelineOutputs:
    def test_all_files_exist(self, pipeline):
        for name in ("stream.lobf", "ground_truth.json", "rates.csv",
                     "cancels.csv", "fits.json", "nps_summary.csv",
                     "welch_tests.csv", "chi_square.csv"):
            assert (pipeline / name).exists(), name

    def test_rates_rows_are_sorted_and_complete(self, pipeline):
        lines = (pipeline / "rates.csv").read_text().splitlines()
        assert lines[0] == "bucket_key,side,tick,quantity,density"
        body = [line.split(",") for line in lines[1:]]
        assert len(body) % 15 == 0
        keys = []
        for row in body:
            key = rates.BucketKey(*rates.parse_bucket_label(row[0]),
                                  feed.Side[row[1].upper()])
            keys.append((key.sort_key(), int(row[2])))
        assert keys == sorted(keys)

    def test_fit_report_shape(self, pipeline):
        payload = json.loads((pipeline / "fits.json").read_text())
        assert payload["families"] == list(dist.FAMILY_TAGS)
        assert payload["truncated_likelihood"] is False
        lines = (pipeline / "rates.csv").read_text().splitlines()
        assert len(payload["instances"]) == (len(lines) - 1) // 15
        for inst in payload["instances"]:
            assert inst["timestep"] in cmd_fit._TIMESTEP_ORDER
            assert not inst["failed"]
            assert set(inst["fits"]) == set(dist.FAMILY_TAGS)
            best = min(f["nps"] for f in inst["fits"].values())
            assert best == 1.0
            for fit in inst["fits"].values():
                assert fit["l1_error"] >= 0.0
                assert fit["nps"] >= 1.0

    def test_summary_covers_all_timesteps(self, pipeline):
        lines = (pipeline / "nps_summary.csv").read_text().splitlines()
        assert lines[0] == "timestep,family,mean_nps,sd_nps,instances"
        seen = {line.split(",")[0] for line in lines[1:]}
        assert seen == set(cmd_fit._TIMESTEP_ORDER)
        for line in lines[1:]:
            _, _, mean, sd, n = line.split(",")
            assert float(mean) >= 1.0
            assert float(sd) >= 0.0
            assert int(n) >= 1

    def test_welch_rows(self, pipeline):
        lines = (pipeline / "welch_tests.csv").read_text().splitlines()
        header = "timestep,comparison,t_statistic,degrees_of_freedom," \
                 "p_value,degenerate"
        assert lines[0] == header
        assert len(lines) > 1
        for line in lines[1:]:
            timestep, comparison, t, df, p, degenerate = line.split(",")
            assert timestep in cmd_fit._TIMESTEP_ORDER
            assert comparison in ("dw_vs_bb", "dw_vs_pow")
            assert math.isfinite(float(t))
            assert float(df) > 0.0
            assert 0.0 <= float(p) <= 1.0
            assert degenerate in ("true", "false")

    def test_chi_square_rows(self, pipeline):
        lines = (pipeline / "chi_square.csv").read_text().splitlines()
        assert lines[0] == "bucket_key,side,statistic,p_value"
        assert len(lines) >= 4
        for line in lines[1:]:
            bucket, side, statistic, p = line.split(",")
            granularity, _ = rates.parse_bucket_label(bucket)
            assert granularity in (rates.Granularity.WEEKLY,
                                   rates.Granularity.MONTHLY)
            assert side in ("buy", "sell")
            assert float(statistic) >= 0.0
            assert 0.0 <= float(p) <= 1.0

    def test_reruns_are_byte_identical(self, pipeline, tmp_path):
        base = ["--out", str(tmp_path)]
        assert cli.main(["synth", "--seed", "9", "--days", "5",
                         "--orders-per-day", "1000",
                         "--cancel-probability", "0.15",
                         "--cancel-style", "fraction"] + base) == 0
        assert cli.main(["rates", str(tmp_path / "stream.lobf")] + base) == 0
        assert cli.main(["fit", str(tmp_path / "rates.csv")] + base) == 0
        assert cli.main(["cancel-test",
                         str(tmp_path / "cancels.csv")] + base) == 0
        for name in ("stream.lobf", "ground_truth.json", "rates.csv",
                     "cancels.csv", "fits.json", "nps_summary.csv",
                     "welch_tests.csv", "chi_square.csv"):
            assert (tmp_path / name).read_bytes() == (
                pipeline / name).read_bytes(), name


class TestSelectionFlags:
    def test_side_filter(self, pipeline, tmp_path):
        assert cli.main(["rates", str(pipeline / "stream.lobf"),
                         "--side", "buy", "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "rates.csv").read_text().splitlines()[1:]
        assert lines
        assert all(line.split(",")[1] == "buy" for line in lines)

    def test_granularity_filter(self, pipeline, tmp_path):
        assert cli.main(["rates", str(pipeline / "stream.lobf"),
                         "--granularity", "daily",
                         "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "rates.csv").read_text().splitlines()[1:]
        assert lines
        assert all(line.startswith("daily:") for line in lines)

    @pytest.mark.parametrize("flags, granularities, sides", [
        (["--side", "buy"], None, {"buy"}),
        (["--side", "sell"], None, {"sell"}),
        (["--granularity", "weekly"], {"weekly"}, None),
        (["--granularity", "daily,hourly", "--side", "sell"],
         {"daily", "hourly"}, {"sell"})])
    def test_flags_write_the_matching_rows_of_the_unfiltered_run(
            self, pipeline, tmp_path, flags, granularities, sides):
        assert cli.main(["rates", str(pipeline / "stream.lobf"), *flags,
                         "--out", str(tmp_path)]) == 0
        for name in ("rates.csv", "cancels.csv"):
            header, *rows = (pipeline / name).read_text().splitlines()
            want = [header] + [
                row for row in rows
                if (granularities is None
                    or row.partition(":")[0] in granularities)
                and (sides is None or row.split(",")[1] in sides)]
            assert len(rows) > len(want) > 1
            assert (tmp_path / name).read_text().splitlines() == want

    def test_empty_granularity_list_exits_one(self, pipeline, tmp_path,
                                              capsys):
        assert cli.main(["rates", str(pipeline / "stream.lobf"),
                         "--granularity", "", "--out", str(tmp_path)]) == 1
        assert "error: unknown granularity ''" in capsys.readouterr().err

    def test_opposite_reference_runs(self, pipeline, tmp_path):
        assert cli.main(["rates", str(pipeline / "stream.lobf"),
                         "--reference", "opposite",
                         "--out", str(tmp_path)]) == 0
        assert (tmp_path / "rates.csv").read_text() != (
            pipeline / "rates.csv").read_text()

    def test_family_subset(self, pipeline, tmp_path):
        assert cli.main(["fit", str(pipeline / "rates.csv"),
                         "--families", "geo,dw,bb",
                         "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "fits.json").read_text())
        assert payload["families"] == ["geometric", "discrete_weibull",
                                       "beta_binomial"]
        for inst in payload["instances"]:
            assert set(inst["fits"]) <= {"geometric", "discrete_weibull",
                                         "beta_binomial"}
        welch = (tmp_path / "welch_tests.csv").read_text().splitlines()[1:]
        assert welch
        assert all(line.split(",")[1] == "dw_vs_bb" for line in welch)


def _write_rates_csv(path, densities):
    """One daily buy instance per density, on consecutive days.

    The quantities are whole numbers in the exact ratios of the
    density's floats, and each density is written as quantity / total,
    as ``lobfit rates`` writes it: the cells stay as given wherever they
    sum to 1, and a 5e-324 cell stays 5e-324.
    """
    with open(path, "w") as fh:
        fh.write("bucket_key,side,tick,quantity,density\n")
        for day, density in enumerate(densities, start=1):
            cells = [fractions.Fraction(value) for value in density]
            scale = math.lcm(*(cell.denominator for cell in cells))
            quantities = [int(cell * scale) for cell in cells]
            total = sum(quantities)
            for tick, q in enumerate(quantities, start=1):
                fh.write(f"daily:2017-08-{day:02d},buy,{tick},{q},"
                         f"{q / total!r}\n")


class TestExactCurveInstance:
    def test_true_family_scores_exactly_one(self, tmp_path):
        density = dist.tick_curve(dist.DiscreteWeibull(0.8, 1.2))
        source = tmp_path / "rates.csv"
        _write_rates_csv(source, [density])
        assert cli.main(["fit", str(source), "--truncated-likelihood",
                         "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "fits.json").read_text())
        fits = payload["instances"][0]["fits"]
        assert fits["discrete_weibull"]["nps"] == 1.0
        assert fits["discrete_weibull"]["l1_error"] < 1e-6
        assert fits["discrete_weibull"]["params"]["q"] == pytest.approx(
            0.8, abs=1e-6)
        for tag in ("geometric", "beta_binomial", "exponential",
                    "power_law"):
            assert fits[tag]["nps"] > 1.0

    def test_infinite_scores_are_written_as_null(self, tmp_path):
        # all mass on tick 1 fits the geometric exactly, so the
        # exponential's relative score is infinite
        source = tmp_path / "rates.csv"
        _write_rates_csv(source, [[1.0] + [0.0] * 14])
        assert cli.main(["fit", str(source), "--out", str(tmp_path)]) == 0

        def reject(constant):
            raise ValueError(f"{constant} is not standard JSON")

        payload = json.loads((tmp_path / "fits.json").read_text(),
                             parse_constant=reject)
        fits = payload["instances"][0]["fits"]
        assert fits["geometric"]["nps"] == 1.0
        assert fits["exponential"]["nps"] is None
        summary = (tmp_path / "nps_summary.csv").read_text().splitlines()
        assert "daily_buy,exponential,inf,0.0,1" in summary

    def test_infinite_scores_in_a_multi_instance_timestep(self, tmp_path,
                                                          capsys):
        # a point mass on tick 1 gives the exponential an infinite score;
        # 5e-324 on tick 2 keeps the geometric's L1 error positive but so
        # small that the beta-binomial's quotient overflows and its score
        # saturates at the largest float, and the Weibull's (beta ~
        # 1.2e7, a point mass pair) reads ~1.1e307
        rng = random.Random(3)
        spread = []
        for _ in range(2):
            raw = [rng.random() for _ in range(15)]
            spread.append([v / sum(raw) for v in raw])
        source = tmp_path / "rates.csv"
        _write_rates_csv(source, [[1.0] + [0.0] * 14,
                                  [1.0, 5e-324] + [0.0] * 13] + spread)
        assert cli.main(["fit", str(source), "--out", str(tmp_path)]) == 0
        summary = (tmp_path / "nps_summary.csv").read_text().splitlines()
        assert "daily_buy,exponential,inf,nan,4" in summary
        instances = json.loads((tmp_path / "fits.json").read_text())[
            "instances"]
        assert (instances[1]["fits"]["beta_binomial"]["nps"]
                == sys.float_info.max)
        for family in ("beta_binomial", "discrete_weibull"):
            (row,) = [row for row in summary
                      if row.startswith(f"daily_buy,{family},")]
            mean, sd, count = row.split(",")[2:]
            assert math.isfinite(float(mean)) and math.isfinite(float(sd))
            assert count == "3"
        # the huge finite scores overflow the Welch arithmetic
        welch = (tmp_path / "welch_tests.csv").read_text().splitlines()
        assert welch[1:] == []
        err = capsys.readouterr().err
        assert "daily_buy dw_vs_bb: welch t-test arithmetic overflows" in err
        assert "daily_buy dw_vs_pow: welch t-test arithmetic overflows" in err


    def test_huge_finite_scores_get_a_welch_test(self, tmp_path, capsys):
        # 1e-100 on tick 2 scores the beta-binomial ~1.3e86 and the
        # Weibull ~5.6e83: finite, and their squared variances overflow,
        # but the Welch degrees of freedom do not depend on scale
        rng = random.Random(3)
        spread = []
        for _ in range(2):
            raw = [rng.random() for _ in range(15)]
            spread.append([v / sum(raw) for v in raw])
        source = tmp_path / "rates.csv"
        _write_rates_csv(source, [[1.0, 1e-100] + [0.0] * 13] + spread)
        assert cli.main(["fit", str(source), "--out", str(tmp_path)]) == 0
        for name in ("fits.json", "nps_summary.csv", "welch_tests.csv"):
            assert (tmp_path / name).exists(), name
        welch = (tmp_path / "welch_tests.csv").read_text().splitlines()
        assert [row.split(",")[:2] for row in welch[1:]] == [
            ["daily_buy", "dw_vs_bb"], ["daily_buy", "dw_vs_pow"]]
        for row in welch[1:]:
            t, df, p = map(float, row.split(",")[2:5])
            # one huge Weibull score among three: t ~ 1 in size and df ~ 2
            assert 0.99 < abs(t) <= 1.0 and 2.0 <= df < 2.01
            assert 0.0 < p < 1.0
        assert "welch" not in capsys.readouterr().err


class TestFitFailureIsolation:
    def test_failed_family_is_recorded_and_the_rest_fit(self, tmp_path):
        # all mass on ticks 14-15 drives the Weibull fit to q = 1, and the
        # beta-binomial to alpha ~ 1.3e17, where its masses are lgamma
        # rounding noise that overflows exp()
        source = tmp_path / "rates.csv"
        with open(source, "w") as fh:
            fh.write("bucket_key,side,tick,quantity,density\n")
            for tick in range(1, 16):
                quantity = 50 if tick >= 14 else 0
                fh.write(f"daily:2017-08-01,buy,{tick},{quantity},"
                         f"{quantity / 100!r}\n")
        assert cli.main(["fit", str(source), "--out", str(tmp_path)]) == 0
        for name in ("fits.json", "nps_summary.csv", "welch_tests.csv"):
            assert (tmp_path / name).exists(), name
        (inst,) = json.loads((tmp_path / "fits.json").read_text())[
            "instances"]
        assert inst["failed"] == {"discrete_weibull": "domain_error",
                                  "beta_binomial": "domain_error"}
        assert set(inst["fits"]) == set(dist.FAMILY_TAGS) - {
            "discrete_weibull", "beta_binomial"}

    @pytest.mark.parametrize("density, family", [
        # fits alpha ~ 1.2e17, beta ~ 6.3e15, where the pmf overflows
        ([0.0] * 13 + [0.5516752990754864, 0.254190258434606],
         "beta_binomial"),
        # fits exponent ~ 539, where tick**exponent overflows
        ([1.0, 0.0, 5e-324, 5e-324, 0.0, 5e-324, 0.0, 1e-310, 5e-324,
          1e-310, 0.0, 0.0, 1e-310, 1e-310, 0.0], "power_law"),
    ])
    def test_saturated_fit_is_a_domain_error(self, tmp_path, density,
                                             family):
        source = tmp_path / "rates.csv"
        _write_rates_csv(source, [density])
        assert cli.main(["fit", str(source), "--out", str(tmp_path)]) == 0
        for name in ("fits.json", "nps_summary.csv", "welch_tests.csv"):
            assert (tmp_path / name).exists(), name
        (inst,) = json.loads((tmp_path / "fits.json").read_text())[
            "instances"]
        assert inst["failed"][family] == "domain_error"
        assert set(inst["fits"]) | set(inst["failed"]) == set(
            dist.FAMILY_TAGS)


_CELL = st.one_of(st.just(0.0), st.sampled_from([5e-324, 1e-310, 1e-300]),
                  st.floats(0.0, 1e6))
# an instance holds some quantity: the reader refuses a zero total
_DENSITY = st.one_of(
    st.lists(_CELL, min_size=15, max_size=15),
    # tail-heavy: mass grows with the tick
    st.lists(_CELL, min_size=15, max_size=15).map(sorted),
    # sparse, down to a single tick
    st.dictionaries(st.integers(0, 14), _CELL, min_size=1,
                    max_size=3).map(
        lambda cells: [cells.get(i, 0.0) for i in range(15)]),
).filter(any)


class TestFitAnyDensity:
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(st.lists(_DENSITY, min_size=1, max_size=3))
    def test_every_family_fits_or_fails_and_the_run_completes(self,
                                                              densities):
        with tempfile.TemporaryDirectory() as out:
            source = os.path.join(out, "rates.csv")
            _write_rates_csv(source, densities)
            assert cli.main(["fit", source, "--out", out]) == 0
            for name in ("fits.json", "nps_summary.csv", "welch_tests.csv"):
                assert os.path.exists(os.path.join(out, name)), name
            with open(os.path.join(out, "fits.json")) as fh:
                instances = json.load(fh)["instances"]
        assert len(instances) == len(densities)
        for inst in instances:
            assert not set(inst["fits"]) & set(inst["failed"])
            assert set(inst["fits"]) | set(inst["failed"]) == set(
                dist.FAMILY_TAGS)
            for fit in inst["fits"].values():
                assert all(math.isfinite(v) for v in fit["params"].values())


def _starts(kind, weights):
    """The start grid ``dist``'s fit of ``kind`` searches from."""
    if kind == kernels.KIND_DW:
        return dist._DW_STARTS
    if kind == kernels.KIND_BB:
        return dist._BB_STARTS
    return dist._pow_starts(weights)


def _unbound_search(kind, truncated, weights, starts):
    """Each start probed through ``objective``, then searched unbound."""
    best = None
    used = 0
    for z0, z1 in starts:
        if not math.isfinite(kernels.objective(kind, truncated, weights,
                                               z0, z1)):
            continue
        used += 1
        x, y, f, iters, ok = kernels.minimize(kind, truncated, weights,
                                              z0, z1)
        if math.isfinite(f) and (best is None or f < best[2]):
            best = (x, y, f, iters, ok)
    return best, used


class TestProbeReuse:
    # dist._search binds once and starts each search from its probe; the
    # floats, counts and flags must be those of probing and searching
    # every start unbound
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(st.sampled_from([kernels.KIND_DW, kernels.KIND_BB,
                            kernels.KIND_POW]), st.booleans(), _DENSITY)
    def test_bound_starts_match_the_unbound_loop(self, kind, truncated,
                                                 weights):
        starts = _starts(kind, weights)

        def search():
            # the fitted "family" is the winning (z0, z1) itself
            return dist._search(kind, truncated, weights, starts,
                                lambda z0, z1: (z0, z1),
                                lambda fitted, f: False)

        if sum(1 for w in weights if w > 0.0) < 2:
            with pytest.raises(DegenerateData):
                search()
            return
        want, want_used = _unbound_search(kind, truncated, weights,
                                              starts)
        if want is None:
            with pytest.raises(NonConvergence):
                search()
            return
        got = search()
        assert got.starts_used == want_used
        assert ([v.hex() for v in (*got.family, got.objective)]
                == [v.hex() for v in want[:3]])
        assert (got.iterations, got.converged) == want[3:]


# per-tick quantities of eight daily instances: 2017-08-01..04 on the
# buy and then the sell side; the third has interior and trailing
# zero-count ticks, the fourth is a two-tick spike
_GOLDEN_QUANTITIES = (
    (812, 590, 431, 318, 240, 177, 131, 99, 72, 55, 41, 30, 22, 17, 12),
    (40, 95, 160, 210, 240, 236, 210, 172, 130, 92, 60, 35, 18, 8, 3),
    (300, 0, 140, 95, 0, 0, 41, 20, 12, 0, 5, 0, 0, 0, 0),
    (0, 0, 0, 550, 450, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    (120, 131, 98, 110, 125, 90, 104, 117, 99, 108, 95, 112, 101, 93, 97),
    (1000, 354, 192, 125, 89, 68, 54, 44, 37, 32, 27, 24, 21, 19, 17),
    (400, 240, 144, 86, 52, 31, 19, 11, 7, 4, 2, 1, 1, 0, 1),
    (3, 5, 9, 14, 20, 28, 37, 48, 60, 73, 88, 104, 121, 139, 160),
)

# sha256 of fits.json, nps_summary.csv and welch_tests.csv, recorded
# since the Weibull and beta-binomial curves take the kernels' own
# cells and the truncated likelihood is one closed-form window term;
# any change to an evaluated point, a float or the search moves them
GOLDEN_FIT_DIGESTS = {
    False: (
        "09d2ec8be2ff66229b8b695da6f17fc32a72e3e29ea3a67853b33e36970f00fd",
        "13184ddbab2d9a586d1c1e50e6a79ee8624fb8b81b2db309e0be91b7f8d15613",
        "81f2ce5378b0cdd74f87aac331ce95ac72eb118fbd382a3e81d3cfa86110da52"),
    True: (
        "39cde915440011682aa73de93bcfa9f297ee3825dc4210d3aba390f7bc4954c7",
        "34bb9c060b05bb19af0af8855f76071e98e1b75591b9c6ce0182b4586c44d8e2",
        "d26c5e214850451dd147162a059cdfc9a574fb5466ac85fd239acf642d881356"),
}


@pytest.mark.parametrize("truncated", [False, True])
def test_fit_golden_bytes(truncated, tmp_path):
    source = tmp_path / "rates.csv"
    with open(source, "w") as fh:
        fh.write("bucket_key,side,tick,quantity,density\n")
        for i, quantities in enumerate(_GOLDEN_QUANTITIES):
            key = f"daily:2017-08-{i % 4 + 1:02d}"
            side = ("buy", "sell")[i // 4]
            total = sum(quantities)
            for tick, q in enumerate(quantities, start=1):
                fh.write(f"{key},{side},{tick},{q},{q / total!r}\n")
    flags = ["--truncated-likelihood"] if truncated else []
    assert cli.main(["fit", str(source), "--out", str(tmp_path)]
                    + flags) == 0
    digests = tuple(
        hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in ("fits.json", "nps_summary.csv", "welch_tests.csv"))
    assert digests == GOLDEN_FIT_DIGESTS[truncated]


# sha256 of rates.csv, cancels.csv and chi_square.csv from a fixed
# synth stream; any change to the generator, the book, the tally, a
# float sum or the chi-square tail moves them
GOLDEN_REPLAY_DIGESTS = (
    "1433d5d6de6d7521cecb761f1db0776fb3b7f1acf67c26cd38df1184b0054d7d",
    "abb0398a50213e87cac5dfd26c45b47ec75a2545697af2e13647ea1f31f36afe",
    "247a6bc4cc32ca6d4907c277ae81cc46e43c60cff5d6172e5f08f23f37085c71")


def test_replay_golden_bytes(tmp_path):
    out = ["--out", str(tmp_path)]
    assert cli.main(["synth", "--seed", "4", "--days", "2",
                     "--orders-per-day", "600",
                     "--cancel-probability", "0.15",
                     "--cancel-style", "fraction"] + out) == 0
    assert cli.main(["rates", str(tmp_path / "stream.lobf")] + out) == 0
    assert cli.main(["cancel-test", str(tmp_path / "cancels.csv")]
                    + out) == 0
    # the weekly and monthly buy buckets have cancels at all ten ticks
    assert len((tmp_path / "chi_square.csv").read_text().splitlines()) == 3
    digests = tuple(
        hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in ("rates.csv", "cancels.csv", "chi_square.csv"))
    assert digests == GOLDEN_REPLAY_DIGESTS


def _python(code, *args, timeout=None):
    """Run ``code`` in a fresh interpreter that imports this lobfit."""
    return _interpreter("-c", code, *args, timeout=timeout)


def _interpreter(*argv, timeout=None):
    """Run a fresh interpreter that imports this lobfit on ``argv``."""
    src = os.path.dirname(os.path.dirname(lobfit.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *argv], env=env,
                          capture_output=True, text=True, timeout=timeout)


class TestImportBoundary:
    def test_fit_path_imports_neither_numpy_nor_a_compiled_kernel(self):
        # numpy costs every non-synth command its import time; no
        # command loads multiprocessing, since the worker map forks
        # without it
        probe = ("import sys; import lobfit.cli; "
                 "from lobfit import dist, kernels, rates, stats; "
                 "print(*sorted(name for name, m in sys.modules.items() "
                 "if name.partition('.')[0] in ('numpy', 'multiprocessing') "
                 "or name.startswith('lobfit.') "
                 "and not m.__file__.endswith('.py')))")
        proc = _python(probe)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == []

    def test_cli_import_loads_no_fitting_module(self):
        # the commands that fit, test or generate import these themselves
        probe = ("import sys; import lobfit.cli; "
                 "print(*sorted(name for name in sys.modules if name in "
                 "('lobfit.dist', 'lobfit.kernels', 'lobfit.stats', "
                 "'lobfit.synth', 'statistics')))")
        proc = _python(probe)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == []

    # what a command that does not use it must not load: the process
    # pool modules, the dataclass machinery and the inspect module it
    # imports, the object-level reference model, and the exact
    # arithmetic behind fit's moments
    _POOL = ("multiprocessing", "concurrent.futures")
    _REPLAY_UNUSED = _POOL + ("dataclasses", "inspect", "lobfit.book",
                              "statistics", "fractions", "decimal")

    @pytest.fixture(scope="class")
    def run(self, tmp_path_factory):
        """``lobfit rates`` on a two-file stream; its output directory."""
        directory = tmp_path_factory.mktemp("boundary")
        paths = _two_file_stream(str(directory))
        out = directory / "out"
        loaded = self._loaded("rates", *paths, "--granularity",
                              "weekly,monthly", "--out", str(out))
        return out, loaded

    @staticmethod
    def _loaded(*argv):
        """Run one command in a fresh interpreter; the modules loaded
        when it has finished."""
        code = ("import sys; from lobfit import cli\n"
                "code = cli.main(sys.argv[1:])\n"
                "print(*sorted(sys.modules))\n"
                "sys.exit(code)")
        proc = _python(code, *argv, timeout=60)
        assert proc.returncode == 0, proc.stderr
        # the last line: --help prints its text first
        return set(proc.stdout.splitlines()[-1].split())

    @staticmethod
    def _among(loaded, packages):
        return sorted(name for name in loaded if any(
            name == package or name.startswith(package + ".")
            for package in packages))

    def test_rates_loads_no_pool_dataclasses_or_object_api(self, run):
        _, loaded = run
        assert "lobfit.rates" in loaded
        assert self._among(loaded, self._REPLAY_UNUSED) == []

    def test_cancel_test_loads_no_pool_dataclasses_or_object_api(self, run):
        out, _ = run
        loaded = self._loaded("cancel-test", str(out / "cancels.csv"),
                              "--out", str(out))
        assert "lobfit.stats" in loaded
        assert self._among(loaded, self._REPLAY_UNUSED) == []

    def test_fit_loads_no_pool_or_object_api(self, run):
        out, _ = run
        loaded = self._loaded("fit", str(out / "rates.csv"), "--families",
                              "geo,exp", "--out", str(out))
        assert "lobfit.dist" in loaded
        assert self._among(loaded, self._POOL + ("lobfit.book",)) == []

    # the model records are plain classes, built with no generated code
    def test_fit_loads_no_dataclass_machinery(self, run):
        out, _ = run
        loaded = self._loaded("fit", str(out / "rates.csv"), "--families",
                              "dw,bb", "--out", str(out / "records"))
        assert "lobfit.dist" in loaded
        assert self._among(loaded, ("dataclasses", "inspect")) == []

    def test_synth_loads_no_dataclass_machinery(self, tmp_path):
        # numpy imports inspect itself, so only dataclasses is checked
        loaded = self._loaded("synth", "--days", "1", "--orders-per-day",
                              "50", "--cancel-style", "fraction",
                              "--out", str(tmp_path))
        assert "lobfit.synth" in loaded
        assert self._among(loaded, ("dataclasses",)) == []

    # each command's code is in its own module, which only it loads
    _COMMANDS = ("synth", "rates", "fit", "cancel-test")
    _CLI_ALONE = {"lobfit", "lobfit.cli", "lobfit.errors"}

    @staticmethod
    def _own(loaded):
        """The lobfit modules among ``loaded``."""
        return {name for name in loaded
                if name == "lobfit" or name.startswith("lobfit.")}

    @pytest.fixture(scope="class")
    def per_command(self, run, tmp_path_factory):
        """The modules each command has loaded when it has finished."""
        out, loaded = run
        return {
            "synth": self._loaded(
                "synth", "--days", "1", "--orders-per-day", "50", "--out",
                str(tmp_path_factory.mktemp("synth"))),
            "rates": loaded,
            "fit": self._loaded("fit", str(out / "rates.csv"), "--families",
                                "geo", "--out", str(out / "per_command")),
            "cancel-test": self._loaded("cancel-test",
                                        str(out / "cancels.csv"),
                                        "--out", str(out / "per_command")),
        }

    def test_cli_import_loads_errors_alone(self):
        probe = ("import sys; import lobfit.cli; "
                 "print(*sorted(sys.modules))")
        proc = _python(probe)
        assert proc.returncode == 0, proc.stderr
        assert self._own(proc.stdout.split()) == self._CLI_ALONE

    def test_fit_and_cancel_test_load_no_feed(self, per_command):
        for command in ("fit", "cancel-test"):
            assert "lobfit.rates" in per_command[command]
            assert "lobfit.feed" not in per_command[command], command

    def test_each_command_loads_its_own_module_alone(self, per_command):
        modules = {command: "lobfit.cmd_" + command.replace("-", "_")
                   for command in self._COMMANDS}
        for command, loaded in per_command.items():
            assert {module for module in modules.values()
                    if module in loaded} == {modules[command]}, command
            # the fork pool, for the commands that spread work over CPUs
            assert ("lobfit.pool" in loaded) == (
                command in ("rates", "fit")), command

    @pytest.mark.parametrize("command, tally", (
        ("fit", "rates.csv"), ("cancel-test", "cancels.csv")))
    def test_module_entry_compiles_cli_once(self, run, command, tally):
        # ``python -m lobfit.cli`` runs cli.py as __main__; a command
        # module that imported from lobfit.cli would compile it again
        out, _ = run
        proc = _interpreter("-X", "importtime", "-m", "lobfit.cli", command,
                            str(out / tally), "--out",
                            str(out / "module_entry"), timeout=60)
        assert proc.returncode == 0, proc.stderr
        imported = [line.rpartition("|")[2].strip()
                    for line in proc.stderr.splitlines()
                    if line.startswith("import time:")]
        # importlib.import_module, which loads the command's module, is
        # not traced, but the imports that module makes are
        assert "lobfit.rates" in imported
        assert "lobfit.cli" not in imported

    @pytest.mark.parametrize("command", (None,) + _COMMANDS)
    def test_help_loads_no_command_module(self, command):
        # the parser is literal: --help needs nothing but cli
        loaded = self._loaded(*filter(None, [command]), "--help")
        assert self._own(loaded) == self._CLI_ALONE


class TestHeapFreeze:
    """``main()`` is the program and freezes what its command imported;
    ``main(argv)`` is the library and leaves the collector alone."""

    @pytest.mark.parametrize("call, frozen", (
        ("main()", True), ("main(sys.argv[1:])", False)))
    def test_only_the_program_path_freezes(self, pipeline, tmp_path, call,
                                           frozen):
        code = ("import gc, sys; from lobfit.cli import main\n"
                f"code = {call}\n"
                "print('frozen', gc.get_freeze_count())\n"
                "sys.exit(code)")
        proc = _python(code, "cancel-test", str(pipeline / "cancels.csv"),
                       "--out", str(tmp_path), timeout=60)
        assert proc.returncode == 0, proc.stderr
        tag, count = proc.stdout.splitlines()[-1].split()
        assert tag == "frozen"
        assert (int(count) > 0) == frozen, count
        assert (tmp_path / "chi_square.csv").read_bytes() == (
            pipeline / "chi_square.csv").read_bytes()

    def test_main_with_a_list_leaves_the_collector_as_it_was(self, pipeline,
                                                             tmp_path):
        before = gc.get_freeze_count()
        assert cli.main(["cancel-test", str(pipeline / "cancels.csv"),
                         "--out", str(tmp_path)]) == 0
        assert gc.get_freeze_count() == before


def _no_child_left():
    """True when this process has no child, running or unreaped."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


class TestMapOnCpus:
    @pytest.fixture(params=[1, 2, 4])
    def cpus(self, request, monkeypatch):
        monkeypatch.setattr(pool, "_usable_cpus", lambda: request.param)
        return request.param

    @pytest.mark.parametrize("n_items", [0, 1, 3, 9])
    def test_results_in_item_order_one_process_per_worker(self, cpus,
                                                          n_items):
        items = [f"item{i}" for i in range(n_items)]
        out = pool._map_on_cpus(lambda item: (item.upper(), os.getpid()),
                               items)
        assert [value for value, _ in out] == [i.upper() for i in items]
        workers = {pid for _, pid in out}
        assert len(workers) == min(cpus, n_items)
        assert os.getpid() not in workers
        assert _no_child_left()

    @pytest.mark.parametrize("error", [LobfitError, RuntimeError])
    def test_a_worker_exception_is_raised_with_its_class_and_message(
            self, cpus, error):
        def fn(item):
            if item == 5:
                raise error(f"item {item} is bad")
            return item

        with pytest.raises(error) as info:
            pool._map_on_cpus(fn, list(range(9)))
        assert type(info.value) is error
        assert str(info.value) == "item 5 is bad"
        assert _no_child_left()

    def test_a_dead_worker_raises_an_internal_error(self, cpus):
        def fn(item):
            if item == 2:
                os._exit(9)
            return item

        with pytest.raises(pool.WorkerDied, match="exit status 9") as info:
            pool._map_on_cpus(fn, list(range(9)))
        assert not isinstance(info.value, (LobfitError, OSError, ValueError))
        assert _no_child_left()

    def test_a_failing_parent_kills_its_workers(self, cpus, monkeypatch):
        def refuse(*args, **kwargs):
            raise OSError("no reading today")

        # each worker would run for a minute; the parent fails at once,
        # when it opens the first pipe
        monkeypatch.setattr(pool, "open", refuse, raising=False)
        start = time.monotonic()
        with pytest.raises(OSError, match="no reading today"):
            pool._map_on_cpus(lambda item: time.sleep(60), [None] * cpus)
        assert time.monotonic() - start < 30
        assert _no_child_left()


class TestFitPool:
    _OUTPUTS = ("fits.json", "nps_summary.csv", "welch_tests.csv")

    def _rates_csv(self, path):
        # daily and weekly buckets on both sides, so the instances sort
        # into several timesteps and the Welch tests have samples
        rng = random.Random(11)
        with open(path, "w") as fh:
            fh.write("bucket_key,side,tick,quantity,density\n")
            for key in ("daily:2017-08-01", "daily:2017-08-02",
                        "daily:2017-08-03", "weekly:2017-W31",
                        "weekly:2017-W32", "weekly:2017-W33"):
                for side in ("buy", "sell"):
                    raw = [rng.randint(1, 900) for _ in range(15)]
                    for tick, q in enumerate(raw, start=1):
                        fh.write(f"{key},{side},{tick},{q},"
                                 f"{q / sum(raw)!r}\n")

    def _fit(self, source, out, cpus=None):
        """Fit in a fresh interpreter; ``cpus`` fakes the CPU affinity."""
        code = ("import os, sys; from lobfit import cli\n"
                "if sys.argv[1]:\n"
                "    cpus = set(range(int(sys.argv[1])))\n"
                "    os.sched_getaffinity = lambda pid: cpus\n"
                "sys.exit(cli.main(sys.argv[2:]))")
        proc = _python(code, str(cpus or ""), "fit", str(source), "--out",
                       str(out), timeout=60)
        assert proc.returncode == 0, proc.stderr
        return {name: (out / name).read_bytes() for name in self._OUTPUTS}

    def test_same_bytes_on_one_cpu_and_on_all(self, tmp_path):
        source = tmp_path / "rates.csv"
        self._rates_csv(source)
        everywhere = self._fit(source, tmp_path / "all")
        assert self._fit(source, tmp_path / "one", cpus=1) == everywhere
        # more workers than this host may have CPUs, still in order
        assert self._fit(source, tmp_path / "four", cpus=4) == everywhere
        instances = json.loads(everywhere["fits.json"])["instances"]
        assert len(instances) == 12

    def test_worker_failure_exits_two_without_hanging(self, tmp_path):
        source = tmp_path / "rates.csv"
        self._rates_csv(source)
        # forked workers inherit the patched dist.fit_family
        code = ("import sys; from lobfit import cli, dist\n"
                "def boom(*args, **kwargs):\n"
                "    raise RuntimeError('wires crossed')\n"
                "dist.fit_family = boom\n"
                "sys.exit(cli.main(sys.argv[1:]))")
        proc = _python(code, "fit", str(source), "--out",
                       str(tmp_path / "out"), timeout=60)
        assert proc.returncode == 2, proc.stderr
        assert "internal error" in proc.stderr
        assert "wires crossed" in proc.stderr
        assert not (tmp_path / "out").exists()

    def test_dead_worker_exits_two_without_hanging(self, tmp_path):
        source = tmp_path / "rates.csv"
        self._rates_csv(source)
        # a worker process that dies outright, as under an OOM kill
        code = ("import os, sys; from lobfit import cli, dist\n"
                "fit_family = dist.fit_family\n"
                "def die(density, tag, **kwargs):\n"
                "    if tag == 'power_law':\n"
                "        os._exit(9)\n"
                "    return fit_family(density, tag, **kwargs)\n"
                "dist.fit_family = die\n"
                "sys.exit(cli.main(sys.argv[1:]))")
        proc = _python(code, "fit", str(source), "--out",
                       str(tmp_path / "out"), timeout=60)
        assert proc.returncode == 2, proc.stderr
        assert "internal error: WorkerDied('worker 1 of " in proc.stderr
        assert "ended with exit status 9 and sent no result" in proc.stderr
        assert not (tmp_path / "out").exists()


def _two_file_stream(directory, days=3, orders_per_day=200, seed=5,
                     per_frame=100):
    """A synth stream of ``days`` sessions, reframed at ``per_frame``
    messages a frame and cut into two files inside the second session."""
    spec = synth.SynthSpec(seed=seed, days=days,
                           orders_per_day=orders_per_day,
                           buy_model=dist.Geometric(0.4),
                           sell_model=dist.BetaBinomial(2, 6),
                           cancel_probability=0.15,
                           cancel_style=synth.CancelStyle.UNIFORM_FRACTION)
    blob, _ = synth.generate(spec)
    sessions = {}
    for session_id, msg in feed.iter_stream(feed.iter_frames(blob)):
        sessions.setdefault(session_id, []).append(msg)
    frames = [frame for session_id, msgs in sessions.items()
              for frame in feed.build_frames(session_id, msgs, per_frame)]
    second = list(sessions)[1]
    cut = [f.session_id for f in frames].index(second) + 1
    assert frames[cut].session_id == second
    paths = [os.path.join(directory, "part1.lobf"),
             os.path.join(directory, "part2.lobf")]
    for path, part in zip(paths, (frames[:cut], frames[cut:])):
        with open(path, "wb") as fh:
            fh.write(b"".join(map(feed.encode_frame, part)))
    return paths


def _serial_rates(paths, flags, out, where=None):
    """What a replay in one process writes, through the object-level API
    (``read_lobf -> iter_stream -> OrderBook.apply -> accumulate_event``)
    rather than ``rates.tally_stream``, over the files in order.  It
    tallies only the events of the selected sides, and writes only the
    buckets of the selected granularities.  Returns the error text
    instead when it raises; a lobfit error also appends the path of the
    file being read to the list ``where``, if given."""
    args = cli.build_parser().parse_args(
        ["rates", *map(str, paths), *flags, "--out", str(out)])
    granularities = cmd_rates.parse_granularities(args.granularity)
    store = rates.TallyStore()
    sides = (tuple(feed.Side) if args.side == "both"
             else (feed.Side[args.side.upper()],))
    reading = []

    def frames():
        # frames are decoded, and their messages applied, one at a time
        for path in args.inputs:
            reading.append(path)
            yield from feed.read_lobf(path)

    books = {}
    try:
        for session_id, msg in feed.iter_stream(frames()):
            if session_id not in books:
                books[session_id] = (
                    OrderBook(args.tick_size, TickReference(args.reference)),
                    rates.session_id_to_date(session_id))
            book, day = books[session_id]
            for event in book.apply(msg):
                if event.side in sides:
                    rates.accumulate_event(store, event, day)
        if not books:
            return "input contains no messages"
    except (LobfitError, ValueError) as exc:
        if where is not None and isinstance(exc, LobfitError):
            where.append(reading[-1])
        return str(exc)
    os.makedirs(out, exist_ok=True)
    for name, tallies, write in (
            ("rates.csv", store.arrivals, rates.write_rates_csv),
            ("cancels.csv", store.cancels, rates.write_cancels_csv)):
        write({key: tally for key, tally in tallies.items()
               if key.granularity in granularities},
              os.path.join(out, name))
    return None


class TestRatesPool:
    _OUTPUTS = ("rates.csv", "cancels.csv")
    _FLAGS = ([], ["--side", "buy"], ["--reference", "opposite"],
              ["--tick-size", "3"], ["--granularity", "daily"])

    @pytest.fixture(scope="class")
    def streams(self, tmp_path_factory):
        return _two_file_stream(str(tmp_path_factory.mktemp("streams")))

    def _rates(self, paths, out, cpus=None):
        """Every flag set in a fresh interpreter; ``cpus`` fakes the CPU
        affinity.  Returns the outputs per flag set."""
        code = ("import json, os, sys; from lobfit import cli\n"
                "if sys.argv[1]:\n"
                "    cpus = set(range(int(sys.argv[1])))\n"
                "    os.sched_getaffinity = lambda pid: cpus\n"
                "out, flag_sets, *paths = sys.argv[2:]\n"
                "for i, flags in enumerate(json.loads(flag_sets)):\n"
                "    code = cli.main(['rates', *paths, *flags,\n"
                "                     '--out', os.path.join(out, str(i))])\n"
                "    if code:\n"
                "        sys.exit(code)")
        proc = _python(code, str(cpus or ""), str(out),
                       json.dumps(self._FLAGS), *paths, timeout=60)
        assert proc.returncode == 0, proc.stderr
        return [{name: (out / str(i) / name).read_bytes()
                 for name in self._OUTPUTS} for i in range(len(self._FLAGS))]

    def test_same_bytes_as_one_process_on_any_cpu_count(self, streams,
                                                        tmp_path):
        serial = []
        for i, flags in enumerate(self._FLAGS):
            assert _serial_rates(streams, flags, tmp_path / str(i)) is None
            serial.append({name: (tmp_path / str(i) / name).read_bytes()
                           for name in self._OUTPUTS})
        assert self._rates(streams, tmp_path / "all") == serial
        assert self._rates(streams, tmp_path / "one", cpus=1) == serial
        # more workers than this host may have CPUs, still in order
        assert self._rates(streams, tmp_path / "four", cpus=4) == serial
        days = {line.split(",")[0] for line in
                serial[-1]["rates.csv"].decode().splitlines()[1:]}
        assert len(days) == 3

    def test_worker_failure_exits_two_without_hanging(self, streams,
                                                      tmp_path):
        # forked workers inherit the patched rates.tally_stream
        code = ("import sys; from lobfit import cli, rates\n"
                "def boom(*args, **kwargs):\n"
                "    raise RuntimeError('wires crossed')\n"
                "rates.tally_stream = boom\n"
                "sys.exit(cli.main(sys.argv[1:]))")
        proc = _python(code, "rates", *streams, "--out",
                       str(tmp_path / "out"), timeout=60)
        assert proc.returncode == 2, proc.stderr
        assert "internal error" in proc.stderr
        assert "wires crossed" in proc.stderr
        assert not (tmp_path / "out").exists()

    def test_dead_worker_exits_two_without_hanging(self, streams, tmp_path):
        # a worker process that dies outright, as under an OOM kill; only
        # workers replay a good stream
        code = ("import os, sys; from lobfit import cli, rates\n"
                "def die(*args, **kwargs):\n"
                "    os._exit(9)\n"
                "rates.tally_stream = die\n"
                "sys.exit(cli.main(sys.argv[1:]))")
        proc = _python(code, "rates", *streams, "--out",
                       str(tmp_path / "out"), timeout=60)
        assert proc.returncode == 2, proc.stderr
        assert "internal error: WorkerDied('worker 1 of " in proc.stderr
        assert "ended with exit status 9 and sent no result" in proc.stderr
        assert not (tmp_path / "out").exists()


@functools.lru_cache(maxsize=None)
def _small_stream_frames():
    with tempfile.TemporaryDirectory() as directory:
        paths = _two_file_stream(directory, days=3, orders_per_day=20,
                                 seed=12, per_frame=15)
        return tuple(frame for path in paths
                     for frame in feed.read_lobf(path))


@st.composite
def _mangled_two_file_stream(draw):
    """A small three-session stream, perhaps broken, in two files."""
    frames = list(_small_stream_frames())
    first_session = frames[0].session_id
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(frames) - 1))
        change = draw(st.sampled_from(("drop", "repeat", "recur")))
        if change == "drop" and len(frames) > 1:
            del frames[at]
        elif change == "repeat":
            frames.insert(at, frames[at])
        else:
            frames[at] = dataclasses.replace(frames[at],
                                             session_id=first_session)
    encoded = [feed.encode_frame(frame) for frame in frames]
    data = bytearray(b"".join(encoded))
    for _ in range(draw(st.integers(0, 2))):
        data[draw(st.integers(0, len(data) - 1))] = draw(st.integers(0, 255))
    bounds = [len(b"".join(encoded[:k])) for k in range(len(encoded) + 1)]
    cut = draw(st.one_of(st.sampled_from(bounds),
                         st.integers(0, len(data))))
    first, second = bytes(data[:cut]), bytes(data[cut:])
    if draw(st.booleans()):
        second = second[:draw(st.integers(0, len(second)))]
    return first, second


class TestRatesFailsAsSerial:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(_mangled_two_file_stream(),
           st.sampled_from(TestRatesPool._FLAGS))
    def test_bad_stream_fails_with_the_serial_error(self, stream, flags):
        with tempfile.TemporaryDirectory() as directory:
            paths = []
            for i, data in enumerate(stream):
                paths.append(os.path.join(directory, f"part{i}.lobf"))
                with open(paths[-1], "wb") as fh:
                    fh.write(data)
            where = []
            want = _serial_rates(paths, flags,
                                 os.path.join(directory, "serial"), where)
            out = os.path.join(directory, "out")
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = cli.main(["rates", *paths, *flags, "--out", out])
            if want is None:
                assert code == 0, err.getvalue()
                for name in TestRatesPool._OUTPUTS:
                    with open(os.path.join(out, name), "rb") as got, \
                            open(os.path.join(directory, "serial", name),
                                 "rb") as serial:
                        assert got.read() == serial.read()
            elif where:
                # a fault in the bytes names the file it lies in, then
                # its frame or its session (TestRatesErrorsNameTheFile)
                assert code == 1
                assert err.getvalue().startswith(f"error: {where[0]}: ")
                assert err.getvalue().endswith(f": {want}\n")
                assert not os.path.exists(out)
            else:
                assert code == 1
                assert err.getvalue() == f"error: {want}\n"
                assert not os.path.exists(out)


def _rates_error(paths, out):
    """Exit code and stderr of ``lobfit rates`` over ``paths``, run in
    this process."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(["rates", *map(str, paths), "--out", str(out)])
    return code, err.getvalue()


class TestRatesReplaysOnce:
    def test_the_parent_never_replays(self, tmp_path, monkeypatch):
        paths = _two_file_stream(str(tmp_path))
        # a frame of the last session twice: a sequence error there
        frames = list(feed.read_lobf(paths[1]))
        frames.insert(len(frames) - 1, frames[-2])
        with open(paths[1], "wb") as fh:
            fh.write(b"".join(map(feed.encode_frame, frames)))
        want = _serial_rates(paths, [], tmp_path / "serial")
        assert "frame sequence" in want
        parent = os.getpid()
        tally_stream = rates.tally_stream

        def in_workers_only(*args, **kwargs):
            if os.getpid() == parent:
                raise RuntimeError("a session replayed in the parent")
            return tally_stream(*args, **kwargs)

        monkeypatch.setattr(rates, "tally_stream", in_workers_only)
        out = tmp_path / "out"
        assert _rates_error(paths, out) == (
            1, f"error: {paths[1]}: session 2017-08-03: {want}\n")
        assert not out.exists()

    def test_an_unreadable_input_fails_in_stream_order(self, tmp_path):
        good = _two_file_stream(str(tmp_path))[0]
        bad = tmp_path / "bad.lobf"
        # a delete of an order that never rested
        bad.write_bytes(b"".join(map(feed.encode_frame, feed.build_frames(
            20170801, [feed.MarketMessage.delete(36_000 * 10**9, 7)]))))
        missing = tmp_path / "missing.lobf"
        out = tmp_path / "out"
        want = _serial_rates([bad, missing], [], tmp_path / "serial")
        assert want == "order 7"
        assert _rates_error([bad, missing], out) == (
            1, f"error: {bad}: session 2017-08-01: {want}\n")
        with pytest.raises(OSError) as unreadable:
            open(missing, "rb")
        assert _rates_error([good, missing], out) == (
            1, f"error: {unreadable.value}\n")
        assert not out.exists()


class TestRatesErrorsNameTheFile:
    """A bad two-file stream fails with its error's class, naming the
    file the fault lies in and its frame or its session."""

    def test_a_cut_stream_names_the_file_and_the_frame(self, tmp_path):
        paths = _two_file_stream(str(tmp_path))
        with open(paths[0], "rb") as fh:
            data = fh.read()
        offset = last = 0
        while offset < len(data):
            last = offset
            *_, offset = feed.frame_at(data, offset)
        # the first file's last message loses its last 13 bytes
        data = data[:-13]
        with open(paths[0], "wb") as fh:
            fh.write(data)
        with pytest.raises(TruncatedFrame) as cut:
            feed.frame_at(data, last)
        assert str(cut.value).startswith("message needs ")
        _, fault = cmd_rates._session_runs(paths)
        assert type(fault) is TruncatedFrame
        assert _rates_error(paths, tmp_path / "out") == (
            1, f"error: {paths[0]}: frame at byte {last}: {cut.value}\n")

    def test_a_flipped_bit_names_the_file_and_the_session(self, tmp_path):
        paths = _two_file_stream(str(tmp_path))
        with open(paths[1], "rb") as fh:
            data = bytearray(fh.read())
        # the first Cancel of the second file, which goes on with the
        # session the first file began; its order id is bytes 10 to 18
        offset = feed._HEADER.size
        while data[offset + 1] != feed.MessageKind.CANCEL:
            offset += data[offset] + 1
        order_id = int.from_bytes(data[offset + 10:offset + 18], "big")
        data[offset + 13] ^= 1  # bit 32 of the order id
        with open(paths[1], "wb") as fh:
            fh.write(data)
        runs, fault = cmd_rates._session_runs(paths)
        assert fault is None
        run = next(run for run in runs if run[0] == 1)
        assert [path for path, *_ in run[1]] == paths
        _, error = cmd_rates._tally_run(run, 1, TickReference.SAME_SIDE)
        assert type(error) is UnknownOrderId
        assert _rates_error(paths, tmp_path / "out") == (
            1, f"error: {paths[1]}: session 2017-08-02: "
               f"order {order_id + 2 ** 32}\n")


class TestCancelTestEdgeCases:
    def test_bucket_missing_a_tick_is_skipped_with_warning(self, tmp_path,
                                                           capsys):
        source = tmp_path / "cancels.csv"
        with open(source, "w") as fh:
            fh.write("bucket_key,side,tick,count,mean_ratio\n")
            for tick in range(1, 10):
                fh.write(f"weekly:2017-W31,buy,{tick},4,0.5\n")
            for tick in range(1, 11):
                fh.write(f"weekly:2017-W32,buy,{tick},4,0.5\n")
        assert cli.main(["cancel-test", str(source),
                         "--out", str(tmp_path)]) == 0
        err = capsys.readouterr().err
        assert "skipping weekly:2017-W31 buy" in err
        lines = (tmp_path / "chi_square.csv").read_text().splitlines()
        assert len(lines) == 2
        assert lines[1].startswith("weekly:2017-W32,buy,")

    @pytest.mark.parametrize("bad", ["1.5", "nan"])
    def test_bucket_with_ratio_outside_unit_interval_is_skipped(
            self, tmp_path, capsys, bad):
        source = tmp_path / "cancels.csv"
        with open(source, "w") as fh:
            fh.write("bucket_key,side,tick,count,mean_ratio\n")
            for week in ("2017-W31", "2017-W32"):
                for tick in range(1, 11):
                    ratio = bad if (week, tick) == ("2017-W31", 4) else "0.5"
                    fh.write(f"weekly:{week},sell,{tick},4,{ratio}\n")
                    fh.write(f"weekly:{week},buy,{tick},4,0.5\n")
        assert cli.main(["cancel-test", str(source),
                         "--out", str(tmp_path)]) == 0
        err = capsys.readouterr().err
        assert f"skipping weekly:2017-W31 sell: ratio {bad} outside" in err
        lines = (tmp_path / "chi_square.csv").read_text().splitlines()
        assert [line.split(",")[:2] for line in lines[1:]] == [
            ["weekly:2017-W31", "buy"], ["weekly:2017-W32", "buy"],
            ["weekly:2017-W32", "sell"]]

    def test_a_declining_profile_reports_its_tail(self, tmp_path):
        # the tail of a chi-square statistic of 191.56 on 9 degrees of
        # freedom is 1.94e-36; a tail taken as 1 - P reads 0.0 there
        source = tmp_path / "cancels.csv"
        ratios = [0.5, 0.3, 0.2, 0.1, 0.05, 0.05, 0.02, 0.01, 0.01, 0.01]
        with open(source, "w") as fh:
            fh.write("bucket_key,side,tick,count,mean_ratio\n")
            for tick, ratio in enumerate(ratios, start=1):
                fh.write(f"weekly:2017-W31,buy,{tick},4,{ratio}\n")
        assert cli.main(["cancel-test", str(source),
                         "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "chi_square.csv").read_text().splitlines()
        assert len(lines) == 2
        bucket, side, statistic, p_value = lines[1].split(",")
        assert (bucket, side) == ("weekly:2017-W31", "buy")
        assert float(statistic) == pytest.approx(191.56, rel=1e-12)
        with mp.workdps(60):
            want = gammainc(mpf(4.5), mpf(statistic) / 2, regularized=True)
            assert abs(float(p_value) - want) <= mpf("1e-12") * want
        assert float(p_value) == pytest.approx(1.94127e-36, rel=1e-5)

    def test_daily_buckets_are_not_tested(self, tmp_path, capsys):
        # a run that tests nothing is an error and writes no file
        source = tmp_path / "cancels.csv"
        with open(source, "w") as fh:
            fh.write("bucket_key,side,tick,count,mean_ratio\n")
            for tick in range(1, 11):
                fh.write(f"daily:2017-08-01,buy,{tick},4,0.5\n")
        assert cli.main(["cancel-test", str(source),
                         "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == (
            f"error: {source}: tested no weekly or monthly bucket: "
            "0 skipped\n")
        assert not (tmp_path / "chi_square.csv").exists()

    def test_a_run_that_skips_every_bucket_exits_one(self, tmp_path,
                                                     capsys):
        # the continuous-integration chain's opposite-side tally of a
        # fraction stream at a tick of two prices: no cancel reaches
        # tick 6, so every weekly and monthly bucket is skipped
        base = ["--out", str(tmp_path)]
        assert cli.main(["synth", "--days", "5", "--orders-per-day", "400",
                         "--cancel-style", "fraction"] + base) == 0
        assert cli.main(["rates", str(tmp_path / "stream.lobf"),
                         "--reference", "opposite", "--tick-size", "2"]
                        + base) == 0
        capsys.readouterr()
        source = tmp_path / "cancels.csv"
        assert cli.main(["cancel-test", str(source)] + base) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 7
        assert all(line.startswith("warning: skipping ") for line in err[:6])
        assert err[6] == (f"error: {source}: tested no weekly or monthly "
                          "bucket: 6 skipped, 6 with a tick that has no "
                          "cancels")
        assert not (tmp_path / "chi_square.csv").exists()


class TestExitCodes:
    def test_missing_input_file(self, tmp_path):
        assert cli.main(["rates", str(tmp_path / "nope.lobf"),
                         "--out", str(tmp_path)]) == 1

    def test_empty_input_writes_nothing(self, tmp_path):
        empty = tmp_path / "empty.lobf"
        empty.write_bytes(b"")
        out = tmp_path / "out"
        assert cli.main(["rates", str(empty), "--out", str(out)]) == 1
        assert not (out / "rates.csv").exists()

    def test_corrupt_stream(self, pipeline, tmp_path):
        clipped = tmp_path / "clipped.lobf"
        clipped.write_bytes((pipeline / "stream.lobf").read_bytes()[:100])
        assert cli.main(["rates", str(clipped),
                         "--out", str(tmp_path)]) == 1

    def test_fit_refuses_a_density_that_is_not_its_quantity_share(
            self, pipeline, tmp_path, capsys):
        # tick 1's density edited to 0.9: the densities no longer sum
        # to 1, and no fit is written
        header, *rows = (pipeline / "rates.csv").read_text().splitlines(
            keepends=True)
        instance = [i for i, row in enumerate(rows)
                    if row.startswith("daily:2017-08-01,buy,")]
        quantities = [int(rows[i].split(",")[3]) for i in instance]
        rows[instance[0]] = (f"daily:2017-08-01,buy,1,{quantities[0]},"
                             "0.9\n")
        source = tmp_path / "rates.csv"
        source.write_text(header + "".join(rows))
        out = tmp_path / "out"
        assert cli.main(["fit", str(source), "--families", "geo",
                         "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: {source}: daily:2017-08-01 buy tick 1: density 0.9 "
            f"is not quantity / total = {quantities[0]} / "
            f"{sum(quantities)}\n")
        assert not out.exists()

    def test_duplicate_sessions_across_files(self, pipeline, tmp_path):
        stream = str(pipeline / "stream.lobf")
        assert cli.main(["rates", stream, stream,
                         "--out", str(tmp_path)]) == 1

    def test_bad_flag_values(self, tmp_path):
        out = ["--out", str(tmp_path)]
        assert cli.main(["synth", "--buy-model", "dw:2,1"] + out) == 1
        assert cli.main(["synth", "--days", "0"] + out) == 1
        assert cli.main(["fit", "whatever.csv", "--families", "geo,xx"]
                        + out) == 1

    def test_synth_price_bound(self, tmp_path, capsys):
        # the largest ask, initial_mid + 15 ticks, is the last u32 price
        edge = str(2**32 - 1 - rates.ARRIVAL_TICKS)
        base = ["synth", "--days", "1", "--orders-per-day", "10"]
        assert cli.main(base + ["--mid", edge, "--out", str(tmp_path)]) == 0
        for name, digest in (
                ("stream.lobf", "50540c675805f68a378b87d701ca9ed8"
                                "f89948dfcfbf3e2edfe67c1a1e48342a"),
                ("ground_truth.json", "b5e4f545cbc8eb4500d1158ff385c8fe"
                                      "11525240bf84311035e45ee9923886f4")):
            data = (tmp_path / name).read_bytes()
            assert hashlib.sha256(data).hexdigest() == digest
        capsys.readouterr()
        assert cli.main(base + ["--mid", str(int(edge) + 1),
                                "--out", str(tmp_path / "past")]) == 1
        err = capsys.readouterr().err
        assert "initial_mid" in err and "tick_size" in err
        assert "internal error" not in err
        assert not (tmp_path / "past").exists()

    def test_synth_calendar_bound(self, tmp_path, capsys):
        # the 3,000,000th weekday from 2017-08-01 falls after 9999-12-31
        assert cli.main(["synth", "--days", "3000000", "--orders-per-day",
                         "1", "--out", str(tmp_path / "past")]) == 1
        err = capsys.readouterr().err
        assert "days 3000000 from start 2017-08-01" in err
        assert "internal error" not in err
        assert not (tmp_path / "past").exists()

    def test_usage_errors_exit_one(self, capsys):
        assert cli.main(["frobnicate"]) == 1
        assert cli.main([]) == 1
        assert cli.main(["rates"]) == 1
        capsys.readouterr()

    def test_help_exits_zero(self, capsys):
        assert cli.main(["--help"]) == 0
        capsys.readouterr()

    def test_malformed_tally_csv_exits_one(self, pipeline, tmp_path,
                                           capsys):
        def edited(name, tag, edit):
            rows = [line.split(",") for line in
                    (pipeline / name).read_text().splitlines()]
            path = tmp_path / f"{tag}_{name}"
            path.write_text("".join(",".join(row) + "\n"
                                    for row in edit(rows)))
            return path

        def per_row(edit):
            return lambda rows: [edit(i, row) for i, row in enumerate(rows)]

        side_up = edited("rates.csv", "side_up", per_row(lambda i, row: (
            row[:1] + ["up"] + row[2:] if i == 1 else row)))
        no_quantity = edited("rates.csv", "no_quantity",
                             per_row(lambda i, row: row[:3] + row[4:]))
        short_row = edited("cancels.csv", "short_row", per_row(
            lambda i, row: row[:-1] if i == 1 else row))
        huge_field = edited("cancels.csv", "huge_field", per_row(
            lambda i, row: ["x" * 200_000] + row[1:] if i == 2 else row))
        # in rates.csv rows[3] is the first instance's tick 3, and
        # rows[:8] keeps its ticks 1..7 only
        repeated_rates = edited("rates.csv", "repeated",
                                lambda rows: rows[:5] + rows[3:])
        repeated_cancels = edited("cancels.csv", "repeated",
                                  lambda rows: rows[:5] + rows[3:])
        cut_rates = edited("rates.csv", "cut", lambda rows: rows[:8])
        first = (pipeline / "rates.csv").read_text().splitlines()[1]
        bucket, side = first.split(",")[:2]
        # the first instance once more, right after it (from line 17),
        # under another spelling of its daily label: daily:20170801
        respelled = edited("rates.csv", "respelled", lambda rows: (
            rows[:16] + [[row[0].replace("-", "")] + row[1:]
                         for row in rows[1:16]] + rows[16:]))
        no_such_month = edited("cancels.csv", "no_such_month", per_row(
            lambda i, row: ["monthly:2017-13"] + row[1:] if i == 1 else row))

        def field(name, column, line, text):
            """``name`` with field ``column`` of file line ``line`` set."""
            return edited(name, f"{column}_{line}", per_row(
                lambda i, row: (row[:column] + [text] + row[column + 1:]
                                if i == line - 1 else row)))

        # ticks, quantities and counts are whole numbers in ASCII digits
        # alone, and a count is 1 or more: (command, file, column, line,
        # field, error)
        numbers = (
            ("fit", "rates.csv", 3, 2, "-5", "bad quantity '-5'"),
            ("fit", "rates.csv", 3, 3, "1_0", "bad quantity '1_0'"),
            ("fit", "rates.csv", 2, 2, "+1", "bad tick '+1'"),
            ("fit", "rates.csv", 2, 3, " 2", "bad tick ' 2'"),
            ("fit", "rates.csv", 3, 4, "\u0663", "bad quantity '\u0663'"),
            ("cancel-test", "cancels.csv", 3, 2, "0",
             "bad count 0; expected at least 1"),
            ("cancel-test", "cancels.csv", 3, 3, "-2", "bad count '-2'"),
            ("cancel-test", "cancels.csv", 3, 4, "+5", "bad count '+5'"),
            ("cancel-test", "cancels.csv", 2, 2, "\u0661",
             "bad tick '\u0661'"),
        )
        for command, path, where, what in (
                ("fit", side_up, ":2:", "bad side 'up'"),
                ("fit", no_quantity, ":1:", "missing column(s) quantity"),
                ("cancel-test", short_row, ":2:", "expected 5 fields"),
                ("cancel-test", huge_field, ":3:", "field limit"),
                ("fit", repeated_rates, ":6:",
                 f"repeated tick 3 for {bucket} {side}"),
                ("cancel-test", repeated_cancels, ":6:", "repeated tick "),
                ("fit", cut_rates, ": ",
                 f"{bucket} {side} has no row for tick(s) 8, 9, 10, 11, "
                 "12, 13, 14, 15"),
                ("fit", respelled, ":17:",
                 f"bad bucket label {bucket.replace('-', '')!r}"),
                ("cancel-test", no_such_month, ":2:",
                 "bad bucket label 'monthly:2017-13'"),
                *((command, field(name, column, line, text), f":{line}:",
                   what)
                  for command, name, column, line, text, what in numbers)):
            capsys.readouterr()
            assert cli.main([command, str(path),
                             "--out", str(tmp_path / "out")]) == 1
            err = capsys.readouterr().err
            assert f"{path}{where}" in err and what in err
            assert "internal error" not in err

    def test_internal_failure_exits_two(self, tmp_path, monkeypatch, capsys):
        def boom(spec, write):
            raise RuntimeError("wires crossed")

        monkeypatch.setattr(synth, "generate", boom)
        assert cli.main(["synth", "--out", str(tmp_path)]) == 2
        assert "wires crossed" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, model, named", [
        ("--buy-model", "pow:inf,1", "buy_model: curve mass vanished for "
                                     "PowerLaw(scale=inf"),
        ("--sell-model", "exp:inf", "sell_model: curve mass vanished for "
                                    "Exponential(rate=inf)"),
        ("--buy-model", "bb:1e308,1e308", "buy_model: beta-binomial mass "
                                          "overflows at alpha=1e+308")],
        ids=["pow", "exp", "bb"])
    def test_synth_model_without_a_curve_writes_nothing(
            self, tmp_path, capsys, flag, model, named):
        out = tmp_path / "out"
        assert cli.main(["synth", "--days", "1", flag, model,
                         "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert named in err and "internal error" not in err
        assert not out.exists()

    @staticmethod
    def fail_second_session(monkeypatch, out, error):
        """Make the generator raise ``error`` as its second session
        starts, once the first is on its way to disk."""
        generate_session = synth._generate_session
        sessions = []

        def fail_on_second(*args):
            sessions.append(None)
            if len(sessions) == 2:
                assert (out / "stream.lobf.tmp").stat().st_size > 0
                raise error
            return generate_session(*args)

        monkeypatch.setattr(synth, "_generate_session", fail_on_second)
        return sessions

    def test_synth_failing_midway_leaves_no_stream(self, tmp_path,
                                                   monkeypatch, capsys):
        out = tmp_path / "out"
        sessions = self.fail_second_session(monkeypatch, out,
                                            RuntimeError("power cut"))
        assert cli.main(["synth", "--days", "3", "--out", str(out)]) == 2
        assert "power cut" in capsys.readouterr().err
        assert len(sessions) == 2
        assert list(out.iterdir()) == []

    def test_synth_interrupted_midway_leaves_no_stream(self, tmp_path,
                                                       monkeypatch):
        out = tmp_path / "out"
        self.fail_second_session(monkeypatch, out, KeyboardInterrupt())
        with pytest.raises(KeyboardInterrupt):
            cli.main(["synth", "--days", "3", "--out", str(out)])
        assert list(out.iterdir()) == []


class TestMultiFileInput:
    def test_disjoint_sessions_accumulate(self, tmp_path):
        model = dist.Geometric(0.4)
        specs = [
            synth.SynthSpec(seed=1, days=1, orders_per_day=300,
                            buy_model=model, sell_model=model,
                            start=dt.date(2017, 8, 1)),
            synth.SynthSpec(seed=2, days=1, orders_per_day=300,
                            buy_model=model, sell_model=model,
                            start=dt.date(2017, 8, 2)),
        ]
        paths = []
        for i, spec in enumerate(specs):
            blob, _ = synth.generate(spec)
            path = tmp_path / f"part{i}.lobf"
            path.write_bytes(blob)
            paths.append(str(path))
        assert cli.main(["rates", *paths, "--granularity", "daily",
                         "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "rates.csv").read_text().splitlines()[1:]
        buckets = {line.split(",")[0] for line in lines}
        assert buckets == {"daily:2017-08-01", "daily:2017-08-02"}
