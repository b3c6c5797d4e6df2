import csv
import dataclasses
import datetime as dt
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lobfit import feed, rates
from lobfit.book import BookEvent, EventKind, OrderBook, TickReference
from lobfit.errors import EmptyBucket, LobfitError
from lobfit.feed import MarketMessage, MessageKind, Side
from lobfit.rates import (
    ArrivalTally,
    BucketKey,
    CancelTally,
    Granularity,
    TallyStore,
    accumulate_event,
    arrival_density,
    cancellation_ratio,
    parse_bucket_label,
)

NS_H = 3_600_000_000_000


def ns(hours, minutes=0, seconds=0):
    return (hours * 3600 + minutes * 60 + seconds) * 1_000_000_000


def arrival(tick, qty, ts=ns(10, 30), side=Side.BUY):
    return BookEvent(EventKind.LIMIT_ARRIVAL, side, ts, tick, qty)


def cancel(tick, qty, before, ts=ns(10, 30), side=Side.BUY):
    return BookEvent(EventKind.CANCEL, side, ts, tick, qty,
                     level_quantity_before=before)


DAY = dt.date(2017, 8, 1)  # a Tuesday, ISO week 31
DAILY_KEY = BucketKey(Granularity.DAILY, (2017, 8, 1), Side.BUY)


def tallied_keys(granularities, ts, day, side=Side.BUY):
    """The buckets of ``granularities`` one arrival at ``ts`` on ``day``
    lands in."""
    store = TallyStore()
    assert accumulate_event(store, arrival(1, 10, ts=ts, side=side), day)
    return [key for key in store.arrivals if key.granularity in granularities]


# --- trading hours and slots ---

def test_trading_hours_windows():
    # the edges of both sessions, seen through the out-of-hours count
    for ts, in_hours in ((ns(10), True), (ns(12, 59, 59), True),
                         (ns(13), False), (ns(13, 30), False),
                         (ns(14), True), (ns(17, 59, 59), True),
                         (ns(18), False), (ns(9, 59, 59), False)):
        store = TallyStore()
        assert accumulate_event(store, arrival(1, 10, ts=ts), DAY) is in_hours
        assert store.out_of_hours == (0 if in_hours else 1)


def test_slot_of_each_trading_hour():
    hourly = [Granularity.HOURLY]
    for ts, slot in ((ns(10, 30), 1), (ns(11, 0), 2), (ns(12, 59), 3),
                     (ns(14, 0), 4), (ns(15, 45), 5), (ns(16, 1), 6),
                     (ns(17, 59, 59), 7)):
        assert tallied_keys(hourly, ts, DAY) == [
            BucketKey(Granularity.HOURLY, (2017, 31, slot), Side.BUY)]
    for ts in (ns(13), ns(13, 30), ns(18)):
        store = TallyStore()
        assert not accumulate_event(store, arrival(1, 10, ts=ts), DAY)
        assert store.out_of_hours == 1 and store.arrivals == {}


# --- bucket indices ---

def test_bucket_indices_and_labels():
    keys = tallied_keys(tuple(Granularity), ns(14, 5), DAY, side=Side.SELL)
    assert {key.granularity: (key.index, key.side, key.label)
            for key in keys} == {
        Granularity.DAILY: ((2017, 8, 1), Side.SELL, "daily:2017-08-01"),
        Granularity.WEEKLY: ((2017, 31), Side.SELL, "weekly:2017-W31"),
        Granularity.MONTHLY: ((2017, 8), Side.SELL, "monthly:2017-08"),
        Granularity.HOURLY: ((2017, 31, 4), Side.SELL, "hourly:2017-W31:h4")}


def test_iso_week_spans_year_end():
    # 2018-01-01 falls in ISO week 1 of 2018; 2017-01-01 in week 52 of 2016
    weekly = [Granularity.WEEKLY]
    assert tallied_keys(weekly, ns(10), dt.date(2017, 1, 1)) == [
        BucketKey(Granularity.WEEKLY, (2016, 52), Side.BUY)]
    assert tallied_keys(weekly, ns(10), dt.date(2018, 1, 1)) == [
        BucketKey(Granularity.WEEKLY, (2018, 1), Side.BUY)]


def test_assign_bucket_outside_hours():
    # a lunch-break event is given no bucket of any granularity
    store = TallyStore()
    assert not accumulate_event(store, arrival(1, 10, ts=ns(13, 15)), DAY)
    assert not accumulate_event(store, cancel(1, 5, 50, ts=ns(13, 15)), DAY)
    assert store.out_of_hours == 2
    assert store.arrivals == {} and store.cancels == {}


def test_bucket_labels_round_trip():
    keys = tallied_keys(tuple(Granularity), ns(15), DAY)
    assert {key.granularity for key in keys} == set(Granularity)
    for key in keys:
        assert parse_bucket_label(key.label) == (key.granularity, key.index)
    # the edges: 2015 has an ISO week 53, a session has seven hour slots
    for label, index in (("weekly:2015-W53", (2015, 53)),
                         ("hourly:2015-W53:h7", (2015, 53, 7)),
                         ("monthly:2017-12", (2017, 12))):
        assert parse_bucket_label(label)[1] == index


@pytest.mark.parametrize("label", [
    # other spellings of a bucket that exists
    "weekly:2017-W1", "weekly:+2017-W01", "weekly: 2017-W01",
    "weekly:2_017-W01", "monthly:2017-1", "daily:20170801",
    "hourly:2017-W31:h03", "weekly:2017-W31:h3",
    # buckets that do not exist
    "weekly:2017-W53", "weekly:2017-W60", "weekly:2017-W00",
    "monthly:2017-13", "monthly:2017-00", "monthly:0000-01",
    "daily:2017-02-29", "hourly:2017-W31:h0", "hourly:2017-W31:h9",
    "hourly:2017-W31", "yearly:2017"])
def test_parse_bucket_label_refuses_other_spellings_and_absent_buckets(
        label):
    with pytest.raises(ValueError) as info:
        parse_bucket_label(label)
    assert str(info.value) == f"bad bucket label {label!r}"


# --- accumulation ---

def test_accumulate_arrival_adds_quantity():
    store = TallyStore()
    for ev in (arrival(3, 40), arrival(3, 10), arrival(1, 5)):
        assert accumulate_event(store, ev, DAY)
    assert store.arrivals[DAILY_KEY].quantity[2] == 50
    assert store.arrivals[DAILY_KEY].quantity[0] == 5


def test_accumulate_drops_beyond_windows():
    # one drop per event, however many buckets it would have landed in
    store = TallyStore()
    accumulate_event(store, arrival(16, 40), DAY)
    accumulate_event(store, cancel(11, 10, 100), DAY)
    assert store.arrivals == {}
    assert store.cancels == {}
    assert store.dropped_arrivals == 1
    assert store.dropped_cancels == 1
    accumulate_event(store, arrival(15, 40), DAY)
    accumulate_event(store, cancel(10, 10, 100), DAY)
    assert store.arrivals[DAILY_KEY].quantity[14] == 40
    assert store.cancels[DAILY_KEY].count[9] == 1


def test_accumulate_cancel_ratio():
    store = TallyStore()
    for ev in (cancel(2, 30, 120), cancel(2, 60, 120)):
        accumulate_event(store, ev, DAY)
    tally = store.cancels[DAILY_KEY]
    assert tally.ratio_sum[1] == pytest.approx(0.75)
    assert tally.count[1] == 2
    ratios = cancellation_ratio(tally)
    assert ratios[1] == pytest.approx(0.375)
    assert ratios[0] is None


def test_accumulate_ignores_executions():
    store = TallyStore()
    ev = BookEvent(EventKind.EXECUTION, Side.BUY, ns(10, 30), 1, 10)
    assert not accumulate_event(store, ev, dt.date(2017, 8, 1))
    assert store.arrivals == {} and store.cancels == {}


def test_accumulate_event_fans_out_to_granularities():
    store = TallyStore()
    day = dt.date(2017, 8, 2)
    assert accumulate_event(store, arrival(4, 25, ts=ns(16, 20)), day)
    assert len(store.arrivals) == 4
    for key, tally in store.arrivals.items():
        assert tally.quantity[3] == 25
    hourly = [k for k in store.arrivals if k.granularity is Granularity.HOURLY]
    assert hourly[0].index == (2017, 31, 6)


def test_accumulate_event_skips_out_of_hours():
    store = TallyStore()
    assert not accumulate_event(store, arrival(1, 10, ts=ns(9, 55)), DAY)
    assert store.out_of_hours == 1
    assert store.arrivals == {}


def test_density_normalizes():
    tally = ArrivalTally([0] * rates.ARRIVAL_TICKS)
    tally.quantity[0] = 50
    tally.quantity[1] = 30
    tally.quantity[2] = 20
    density = arrival_density(tally)
    assert density[:3] == [0.5, 0.3, 0.2]
    assert abs(sum(density) - 1.0) < 1e-12
    with pytest.raises(EmptyBucket):
        arrival_density(ArrivalTally([0] * rates.ARRIVAL_TICKS))


# --- partition properties ---

def random_events(seed, days):
    rng = random.Random(seed)
    out = []
    for day in days:
        for _ in range(rng.randrange(30, 60)):
            window = rng.choice(((10, 13), (14, 18)))
            ts = rng.randrange(window[0] * NS_H, window[1] * NS_H)
            side = Side(rng.randrange(2))
            if rng.random() < 0.7:
                ev = arrival(rng.randrange(1, 16), rng.randrange(1, 300),
                             ts=ts, side=side)
            else:
                before = rng.randrange(10, 500)
                ev = cancel(rng.randrange(1, 11),
                            rng.randrange(1, before + 1), before,
                            ts=ts, side=side)
            out.append((day, ev))
    return out


def weekdays(start, n):
    days = []
    day = start
    while len(days) < n:
        if day.weekday() < 5:
            days.append(day)
        day += dt.timedelta(days=1)
    return days


def total_quantity(store):
    return sum(sum(t.quantity) for t in store.arrivals.values())


def test_daily_tallies_sum_to_weekly_and_monthly():
    days = weekdays(dt.date(2017, 8, 1), 25)
    store = TallyStore()
    for day, ev in random_events(21, days):
        accumulate_event(store, ev, day)
    daily = {k: t for k, t in store.arrivals.items()
             if k.granularity is Granularity.DAILY}
    for coarse in (Granularity.WEEKLY, Granularity.MONTHLY):
        summed = {}
        for key, tally in daily.items():
            year, week, _ = dt.date(*key.index).isocalendar()
            index = ((year, week) if coarse is Granularity.WEEKLY
                     else key.index[:2])
            ck = BucketKey(coarse, index, key.side)
            acc = summed.setdefault(ck, [0] * rates.ARRIVAL_TICKS)
            for i, q in enumerate(tally.quantity):
                acc[i] += q
        coarse_tallies = {k: t.quantity for k, t in store.arrivals.items()
                          if k.granularity is coarse}
        assert summed == coarse_tallies


def test_weekly_sums_to_monthly_when_weeks_nest():
    # September 2017 weeks 36..39 lie entirely inside the month
    days = weekdays(dt.date(2017, 9, 4), 20)
    assert {d.isocalendar()[1] for d in days} == {36, 37, 38, 39}
    store = TallyStore()
    for day, ev in random_events(22, days):
        accumulate_event(store, ev, day)
    weekly = {k: t for k, t in store.arrivals.items()
              if k.granularity is Granularity.WEEKLY}
    monthly = {k: t.quantity for k, t in store.arrivals.items()
               if k.granularity is Granularity.MONTHLY}
    summed = {}
    for key, tally in weekly.items():
        monday = dt.date.fromisocalendar(key.index[0], key.index[1], 1)
        mk = BucketKey(Granularity.MONTHLY, (monday.year, monday.month),
                       key.side)
        acc = summed.setdefault(mk, [0] * rates.ARRIVAL_TICKS)
        for i, q in enumerate(tally.quantity):
            acc[i] += q
    assert summed == monthly


# --- session cube against a brute-force tally ---

# weekdays across the Aug/Sep 2017 month end (ISO week 35 spans both
# months) and across the 2017/2018 year end (2017-W52 -> 2018-W01)
CUBE_DAYS = (weekdays(dt.date(2017, 8, 28), 6)
             + weekdays(dt.date(2017, 12, 27), 6))


@st.composite
def cube_event(draw):
    # 08:00-19:00, so some events fall before, between and after sessions
    ts = draw(st.integers(8 * NS_H, 19 * NS_H - 1))
    side = draw(st.sampled_from(Side))
    if draw(st.booleans()):
        ev = arrival(draw(st.integers(1, 17)), draw(st.integers(1, 500)),
                     ts=ts, side=side)
    else:
        before = draw(st.integers(1, 500))
        ev = cancel(draw(st.integers(1, 12)), draw(st.integers(1, before)),
                    before, ts=ts, side=side)
    return draw(st.sampled_from(CUBE_DAYS)), ev


def reference_tally(events):
    """Each event folded into each of its buckets, one key at a time."""
    arrivals, ratio_sums, counts = {}, {}, {}
    dropped = {EventKind.LIMIT_ARRIVAL: 0, EventKind.CANCEL: 0}
    out_of_hours = 0
    for day, ev in events:
        hour = ev.timestamp_ns // NS_H
        if 10 <= hour < 13:
            slot = hour - 9
        elif 14 <= hour < 18:
            slot = hour - 10
        else:
            out_of_hours += 1
            continue
        year, week, _ = day.isocalendar()
        index = {Granularity.DAILY: (day.year, day.month, day.day),
                 Granularity.WEEKLY: (year, week),
                 Granularity.MONTHLY: (day.year, day.month),
                 Granularity.HOURLY: (year, week, slot)}
        if ev.tick > (15 if ev.kind is EventKind.LIMIT_ARRIVAL else 10):
            dropped[ev.kind] += 1
            continue
        for g in Granularity:
            key = BucketKey(g, index[g], ev.side)
            if ev.kind is EventKind.LIMIT_ARRIVAL:
                arrivals.setdefault(key, [0] * 15)[ev.tick - 1] += ev.quantity
            else:
                ratio_sums.setdefault(key, [0.0] * 10)[ev.tick - 1] += (
                    ev.quantity / ev.level_quantity_before)
                counts.setdefault(key, [0] * 10)[ev.tick - 1] += 1
    return (arrivals, ratio_sums, counts, dropped[EventKind.LIMIT_ARRIVAL],
            dropped[EventKind.CANCEL], out_of_hours)


@settings(max_examples=150, deadline=None)
@given(st.lists(cube_event(), max_size=80))
def test_store_matches_brute_force_tally(events):
    store = TallyStore()
    for day, ev in events:
        accumulate_event(store, ev, day)
    (arrivals, ratio_sums, counts, dropped_arrivals, dropped_cancels,
     out_of_hours) = reference_tally(events)
    assert {k: t.quantity for k, t in store.arrivals.items()} == arrivals
    assert {k: t.count for k, t in store.cancels.items()} == counts
    for key, sums in ratio_sums.items():
        for got, want in zip(store.cancels[key].ratio_sum, sums):
            assert math.isclose(got, want, rel_tol=1e-12, abs_tol=0.0)
    assert store.dropped_arrivals == dropped_arrivals
    assert store.dropped_cancels == dropped_cancels
    assert store.out_of_hours == out_of_hours


def summed_by(tallies, granularity, coarse_key):
    out = {}
    for key, values in tallies.items():
        if key.granularity is granularity:
            acc = out.setdefault(coarse_key(key), [0] * len(values))
            for i, v in enumerate(values):
                acc[i] += v
    return out


def of(tallies, granularity):
    return {k: v for k, v in tallies.items() if k.granularity is granularity}


@settings(max_examples=150, deadline=None)
@given(st.lists(cube_event(), max_size=80))
def test_granularities_roll_up_consistently(events):
    store = TallyStore()
    for day, ev in events:
        accumulate_event(store, ev, day)

    def week_of(key):
        year, week, _ = dt.date(*key.index).isocalendar()
        return BucketKey(Granularity.WEEKLY, (year, week), key.side)

    def month_of(key):
        return BucketKey(Granularity.MONTHLY, key.index[:2], key.side)

    def week_of_slot(key):
        return BucketKey(Granularity.WEEKLY, key.index[:2], key.side)

    for tallies in ({k: t.quantity for k, t in store.arrivals.items()},
                    {k: t.count for k, t in store.cancels.items()}):
        daily = Granularity.DAILY
        assert summed_by(tallies, daily, week_of) == of(
            tallies, Granularity.WEEKLY)
        assert summed_by(tallies, daily, month_of) == of(
            tallies, Granularity.MONTHLY)
        assert summed_by(tallies, Granularity.HOURLY, week_of_slot) == of(
            tallies, Granularity.WEEKLY)


@settings(max_examples=100, deadline=None)
@given(st.lists(cube_event(), max_size=80), st.data())
def test_reading_mid_stream_matches_single_pass(events, data):
    split = data.draw(st.integers(0, len(events)))
    single, interrupted = TallyStore(), TallyStore()
    for day, ev in events:
        accumulate_event(single, ev, day)
    for i, (day, ev) in enumerate(events):
        if i == split:
            prefix = TallyStore()
            for d, e in events[:split]:
                accumulate_event(prefix, e, d)
            assert interrupted == prefix  # reads the views mid-stream
        accumulate_event(interrupted, ev, day)
    assert interrupted == single


@settings(max_examples=100, deadline=None)
@given(st.lists(cube_event(), max_size=80), st.randoms(use_true_random=False))
def test_merging_stores_of_single_sessions_matches_one_store(events, rnd):
    single = TallyStore()
    per_day = {}
    for day, ev in events:
        accumulate_event(single, ev, day)
        accumulate_event(per_day.setdefault(day, TallyStore()), ev, day)
    parts = list(per_day.values())
    rnd.shuffle(parts)
    merged = TallyStore()
    for part in parts:
        merged.merge(part)
    # exact: each session keeps its own float sums
    assert merged == single


def test_merge_rejects_a_shared_session():
    store, same_day = TallyStore(), TallyStore()
    for target in (store, same_day):
        accumulate_event(target, arrival(1, 10), DAY)
    with pytest.raises(ValueError, match="in both stores"):
        store.merge(same_day)


# --- csv staging ---

def test_rates_csv_round_trip(tmp_path):
    days = weekdays(dt.date(2017, 8, 1), 5)
    store = TallyStore()
    for day, ev in random_events(24, days):
        accumulate_event(store, ev, day)
    path = tmp_path / "rates.csv"
    rates.write_rates_csv(store.arrivals, path)
    instances = rates.read_rates_csv(path)
    assert len(instances) == len(store.arrivals)
    by_key = {i["key"]: i for i in instances}
    for key, tally in store.arrivals.items():
        inst = by_key[key]
        assert inst["quantity"] == tally.quantity
        assert inst["density"] == arrival_density(tally)


def test_cancels_csv_round_trip(tmp_path):
    days = weekdays(dt.date(2017, 8, 1), 5)
    store = TallyStore()
    for day, ev in random_events(25, days):
        accumulate_event(store, ev, day)
    path = tmp_path / "cancels.csv"
    rates.write_cancels_csv(store.cancels, path)
    instances = rates.read_cancels_csv(path)
    assert len(instances) == len(store.cancels)
    by_key = {i["key"]: i for i in instances}
    for key, tally in store.cancels.items():
        inst = by_key[key]
        assert inst["count"] == tally.count
        expected = cancellation_ratio(tally)
        for got, want in zip(inst["mean_ratio"], expected):
            if want is None:
                assert got is None
            else:
                assert got == pytest.approx(want, rel=1e-15)


@pytest.mark.parametrize("writer, reader, views", [
    (rates.write_rates_csv, rates.read_rates_csv, "arrivals"),
    (rates.write_cancels_csv, rates.read_cancels_csv, "cancels")],
    ids=["rates", "cancels"])
def test_tally_csv_reads_a_shuffled_file_in_key_order(tmp_path, writer,
                                                       reader, views):
    days = weekdays(dt.date(2017, 8, 1), 5)
    store = TallyStore()
    for day, ev in random_events(27, days):
        accumulate_event(store, ev, day)
    path = tmp_path / "tally.csv"
    writer(getattr(store, views), path)
    header, *rows = path.read_text().splitlines(keepends=True)
    random.Random(27).shuffle(rows)
    path.write_text(header + "".join(rows))
    keys = [inst["key"] for inst in reader(path)]
    assert keys == sorted(getattr(store, views), key=BucketKey.sort_key)


def one_instance_csv(path, header, rows):
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(f"daily:2017-08-01,buy,{row}\n")
    return path


RATES_HEADER = "bucket_key,side,tick,quantity,density"
CANCELS_HEADER = "bucket_key,side,tick,count,mean_ratio"


@pytest.mark.parametrize("header, reader, last", [
    (RATES_HEADER, rates.read_rates_csv, 15),
    (CANCELS_HEADER, rates.read_cancels_csv, 10)], ids=["rates", "cancels"])
def test_tally_csv_rejects_a_repeated_row(tmp_path, header, reader, last):
    rows = [f"{tick},2,0.5" for tick in range(1, last + 1)]
    rows.insert(3, "3,999,0.5")
    path = one_instance_csv(tmp_path / "tally.csv", header, rows)
    with pytest.raises(ValueError) as info:
        reader(path)
    assert str(info.value) == (f"{path}:5: repeated tick 3 for "
                               "daily:2017-08-01 buy")


def test_tally_csv_sides_are_case_blind_when_rows_repeat(tmp_path):
    path = tmp_path / "cancels.csv"
    path.write_text(CANCELS_HEADER + "\n"
                    "weekly:2017-W31,buy,2,4,0.5\n"
                    "weekly:2017-W31,BUY,2,4,0.5\n")
    with pytest.raises(ValueError, match=":3: repeated tick 2 for "
                                         "weekly:2017-W31 buy"):
        rates.read_cancels_csv(path)


def test_rates_csv_needs_every_tick(tmp_path):
    rows = [f"{tick},2,0.0625" for tick in range(1, 8)]
    path = one_instance_csv(tmp_path / "rates.csv", RATES_HEADER, rows)
    with pytest.raises(ValueError) as info:
        rates.read_rates_csv(path)
    assert str(info.value) == (f"{path}: daily:2017-08-01 buy has no row "
                               "for tick(s) 8, 9, 10, 11, 12, 13, 14, 15")


@pytest.mark.parametrize("quantities, densities, tick", [
    # one ulp above 2 / 30 at tick 7
    ([2] * 15, [2 / 30] * 6 + [math.nextafter(2 / 30, 1.0)] + [2 / 30] * 8,
     7),
    # no quantity at all: no density is a share of it
    ([0] * 15, [0.0] * 15, 1)], ids=["ulp", "zero-total"])
def test_rates_csv_density_is_the_quantity_share(tmp_path, quantities,
                                                 densities, tick):
    rows = [f"{t},{q},{d!r}" for t, (q, d) in
            enumerate(zip(quantities, densities), start=1)]
    path = one_instance_csv(tmp_path / "rates.csv", RATES_HEADER, rows)
    with pytest.raises(ValueError) as info:
        rates.read_rates_csv(path)
    q, d = quantities[tick - 1], densities[tick - 1]
    assert str(info.value) == (
        f"{path}: daily:2017-08-01 buy tick {tick}: density {d!r} is not "
        f"quantity / total = {q} / {sum(quantities)}")


def test_rates_csv_rows_are_sorted(tmp_path):
    store = TallyStore()
    for day in (dt.date(2017, 8, 3), dt.date(2017, 8, 1)):
        for side in (Side.SELL, Side.BUY):
            accumulate_event(store, arrival(2, 10, side=side), day)
    path = tmp_path / "rates.csv"
    rates.write_rates_csv({key: tally for key, tally in store.arrivals.items()
                           if key.granularity in (Granularity.DAILY,
                                                  Granularity.WEEKLY)}, path)
    with path.open() as fh:
        rows = list(csv.DictReader(fh))
    keys = [(r["bucket_key"], r["side"], int(r["tick"])) for r in rows]
    assert keys == sorted(
        keys, key=lambda k: (k[0].startswith("weekly"), k[0], k[1], k[2]))


def test_byte_identical_rewrite(tmp_path):
    days = weekdays(dt.date(2017, 8, 1), 5)
    store = TallyStore()
    for day, ev in random_events(26, days):
        accumulate_event(store, ev, day)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    rates.write_rates_csv(store.arrivals, a)
    rates.write_rates_csv(store.arrivals, b)
    assert a.read_bytes() == b.read_bytes()


# --- tally_stream against the object-level replay ---

def object_tally(store, blobs, tick_size, reference):
    """The replay through the object-level API, one call per layer."""
    books = {}
    applied = 0
    frames = (frame for blob in blobs for frame in feed.iter_frames(blob))
    for session_id, msg in feed.iter_stream(frames):
        if session_id not in books:
            books[session_id] = (OrderBook(tick_size, reference),
                                 rates.session_id_to_date(session_id))
        book, day = books[session_id]
        for event in book.apply(msg):
            accumulate_event(store, event, day)
        applied += 1
    return applied


# a Friday, then the Monday and Tuesday after: two ISO weeks, two months
FLOW_DAYS = (dt.date(2017, 9, 29), dt.date(2017, 10, 2), dt.date(2017, 10, 3))


@st.composite
def order_flow(draw, session_id, reject_at=None):
    """One session's messages: every kind, crossing and far-off prices,
    and timestamps from before the open to after the close.  Message
    ``reject_at``, if there is one, is one the book rejects."""
    live = {}  # order id -> (side, remaining)
    ids = iter(range(session_id * 1000, session_id * 1000 + 1000))
    ts = draw(st.integers(ns(9, 30), ns(10, 30)))
    msgs = []
    for at in range(draw(st.integers(0, 40))):
        ts += draw(st.integers(0, NS_H // 2))
        kind = (MessageKind.ADD if not live else draw(st.sampled_from(
            [MessageKind.ADD] * 3 + list(MessageKind)[1:])))
        price = draw(st.integers(960, 1040))
        qty = draw(st.integers(1, 30))
        reject = at == reject_at and bool(live)
        if kind is MessageKind.ADD:
            oid = draw(st.sampled_from(sorted(live))) if reject else next(ids)
        elif reject and kind is MessageKind.DELETE:
            oid = 7  # never an order id
        else:
            oid = draw(st.sampled_from(sorted(live)))
        side, remaining = live.get(oid, (Side.BUY, qty))
        if kind is MessageKind.ADD:
            side = draw(st.sampled_from(Side))
            msgs.append(MarketMessage.add(ts, oid, side, price, qty))
            live[oid] = (side, qty)
        elif kind in (MessageKind.CANCEL, MessageKind.EXECUTE):
            take = remaining + 1 if reject else min(qty, remaining)
            msgs.append(MarketMessage(kind, ts, oid, quantity=take))
            if take < remaining:
                live[oid] = (side, remaining - take)
            else:
                live.pop(oid, None)
        elif kind is MessageKind.DELETE:
            msgs.append(MarketMessage.delete(ts, oid))
            live.pop(oid, None)
        else:
            if reject:
                # a new id that is resting: an Add puts it there first
                new = next(ids)
                msgs.append(MarketMessage.add(ts, new, side, price, 1))
            else:
                new = oid if draw(st.booleans()) else next(ids)
            msgs.append(MarketMessage.replace(ts, oid, new, price, qty))
            live.pop(oid)
            live[new] = (side, qty)
    return msgs


@st.composite
def flow_stream(draw):
    """Sessions of order flow, framed with empty frames among the rest,
    in two buffers cut at a frame boundary; sometimes the book rejects a
    message, or frames or bytes are mangled."""
    mangle = draw(st.sampled_from(("none",) * 3 + ("book",) * 2
                                  + ("frame", "byte")))
    days = draw(st.lists(st.sampled_from(FLOW_DAYS), min_size=1,
                         max_size=3, unique=True))
    frames = []
    for day in sorted(days):
        session_id = rates.date_to_session_id(day)
        reject_at = draw(st.integers(0, 20)) if mangle == "book" else None
        msgs = draw(order_flow(session_id, reject_at))
        start = 0
        while True:
            size = draw(st.integers(0, 12))
            frames.append(feed.LobfFrame(session_id, start,
                                         tuple(msgs[start:start + size])))
            start += size
            if start >= len(msgs):
                break
    if mangle == "frame":
        at = draw(st.integers(0, len(frames) - 1))
        frame = frames[at]
        change = draw(st.sampled_from(("drop", "repeat", "session",
                                       "timestamp")))
        if change == "drop":
            del frames[at]
        elif change == "repeat":
            frames.insert(at, frame)
        elif change == "session":
            frames[at] = dataclasses.replace(frame, session_id=draw(
                st.sampled_from((frames[0].session_id, 20171332))))
        elif frame.messages:
            msg = frame.messages[-1]
            frames[at] = dataclasses.replace(frame, messages=(
                *frame.messages[:-1],
                dataclasses.replace(msg, timestamp_ns=msg.timestamp_ns // 2)))
    encoded = [feed.encode_frame(frame) for frame in frames]
    cut = draw(st.integers(0, len(encoded)))
    blobs = [b"".join(encoded[:cut]), b"".join(encoded[cut:])]
    if mangle == "byte":
        which = draw(st.sampled_from([i for i, b in enumerate(blobs) if b]))
        data = bytearray(blobs[which])
        for _ in range(draw(st.integers(1, 3))):
            data[draw(st.integers(0, len(data) - 1))] = draw(
                st.integers(0, 255))
        if draw(st.booleans()):
            del data[draw(st.integers(0, len(data))):]
        blobs[which] = bytes(data)
    return blobs


def replay_outcome(tally, blobs, tick_size, reference):
    """What a replay returns or raises, and the store it leaves."""
    store = TallyStore()
    try:
        result = tally(store, blobs, tick_size, reference)
    except (LobfitError, ValueError) as exc:
        result = (type(exc), str(exc))
    return result, store


@settings(max_examples=200, deadline=None)
@given(flow_stream(), st.sampled_from((1, 3)),
       st.sampled_from(TickReference))
def test_tally_stream_matches_the_object_replay(blobs, tick_size, reference):
    want = replay_outcome(object_tally, blobs, tick_size, reference)
    got = replay_outcome(rates.tally_stream, blobs, tick_size, reference)
    assert got[0] == want[0]
    # the same tallies and counters, also up to the message that failed
    assert got[1] == want[1]


def test_tally_stream_takes_buffers_not_one_buffer():
    with pytest.raises(TypeError, match="not one buffer"):
        rates.tally_stream(TallyStore(), b"LOBF")
    assert rates.tally_stream(TallyStore(), []) == 0
    assert rates.tally_stream(TallyStore(), [b"", b""]) == 0
