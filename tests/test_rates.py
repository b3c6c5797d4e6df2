import csv
import datetime as dt
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lobfit import rates
from lobfit.book import BookEvent, EventKind
from lobfit.errors import EmptyBucket, OutsideTradingHours
from lobfit.feed import Side
from lobfit.rates import (
    ArrivalTally,
    BucketKey,
    CancelTally,
    Granularity,
    TallyStore,
    accumulate_event,
    arrival_density,
    assign_bucket,
    cancellation_ratio,
    hour_slot,
    in_trading_hours,
    merge,
    parse_bucket_label,
)

NS_H = 3_600_000_000_000


def ns(hours, minutes=0, seconds=0):
    return (hours * 3600 + minutes * 60 + seconds) * 1_000_000_000


def arrival(tick, qty, ts=ns(10, 30), side=Side.BUY, from_replace=False):
    return BookEvent(EventKind.LIMIT_ARRIVAL, side, ts, tick, qty,
                     from_replace=from_replace)


def cancel(tick, qty, before, ts=ns(10, 30), side=Side.BUY,
           from_replace=False):
    return BookEvent(EventKind.CANCEL, side, ts, tick, qty,
                     level_quantity_before=before, from_replace=from_replace)


# --- trading hours and slots ---

def test_trading_hours_windows():
    assert in_trading_hours(ns(10))
    assert in_trading_hours(ns(12, 59, 59))
    assert not in_trading_hours(ns(13))
    assert not in_trading_hours(ns(13, 30))
    assert in_trading_hours(ns(14))
    assert in_trading_hours(ns(17, 59, 59))
    assert not in_trading_hours(ns(18))
    assert not in_trading_hours(ns(9, 59, 59))


def test_hour_slots():
    assert hour_slot(ns(10, 30)) == 1
    assert hour_slot(ns(11, 0)) == 2
    assert hour_slot(ns(12, 59)) == 3
    assert hour_slot(ns(14, 0)) == 4
    assert hour_slot(ns(15, 45)) == 5
    assert hour_slot(ns(16, 1)) == 6
    assert hour_slot(ns(17, 59, 59)) == 7
    with pytest.raises(OutsideTradingHours):
        hour_slot(ns(13, 30))
    with pytest.raises(OutsideTradingHours):
        hour_slot(ns(18))


# --- bucket assignment ---

def test_assign_bucket_indices():
    day = dt.date(2017, 8, 1)  # a Tuesday, ISO week 31
    ts = ns(10, 30)
    daily = assign_bucket(ts, day, Granularity.DAILY, Side.BUY)
    weekly = assign_bucket(ts, day, Granularity.WEEKLY, Side.BUY)
    monthly = assign_bucket(ts, day, Granularity.MONTHLY, Side.SELL)
    hourly = assign_bucket(ns(14, 5), day, Granularity.HOURLY, Side.BUY)
    assert daily.index == (2017, 8, 1)
    assert weekly.index == (2017, 31)
    assert monthly.index == (2017, 8)
    assert hourly.index == (2017, 31, 4)
    assert daily.label == "daily:2017-08-01"
    assert weekly.label == "weekly:2017-W31"
    assert monthly.label == "monthly:2017-08"
    assert hourly.label == "hourly:2017-W31:h4"


def test_assign_bucket_iso_week_spans_year_end():
    # 2018-01-01 falls in ISO week 1 of 2018; 2017-01-01 in week 52 of 2016
    weekly = assign_bucket(ns(10), dt.date(2017, 1, 1),
                           Granularity.WEEKLY, Side.BUY)
    assert weekly.index == (2016, 52)


def test_assign_bucket_outside_hours():
    with pytest.raises(OutsideTradingHours):
        assign_bucket(ns(13, 15), dt.date(2017, 8, 1),
                      Granularity.DAILY, Side.BUY)


def test_bucket_labels_round_trip():
    day = dt.date(2017, 8, 1)
    for g in Granularity:
        key = assign_bucket(ns(15), day, g, Side.BUY)
        assert parse_bucket_label(key.label) == (g, key.index)


# --- accumulation ---

DAY = dt.date(2017, 8, 1)
DAILY_KEY = BucketKey(Granularity.DAILY, (2017, 8, 1), Side.BUY)


def test_accumulate_arrival_adds_quantity():
    store = TallyStore()
    for ev in (arrival(3, 40), arrival(3, 10), arrival(1, 5)):
        assert accumulate_event(store, ev, DAY,
                                granularities=[Granularity.DAILY])
    assert store.arrivals[DAILY_KEY].quantity[2] == 50
    assert store.arrivals[DAILY_KEY].quantity[0] == 5


def test_accumulate_drops_beyond_windows():
    store = TallyStore()
    daily = [Granularity.DAILY]
    accumulate_event(store, arrival(16, 40), DAY, granularities=daily)
    accumulate_event(store, cancel(11, 10, 100), DAY, granularities=daily)
    assert store.arrivals == {}
    assert store.cancels == {}
    assert store.dropped_arrivals == 1
    assert store.dropped_cancels == 1
    accumulate_event(store, arrival(15, 40), DAY, granularities=daily)
    accumulate_event(store, cancel(10, 10, 100), DAY, granularities=daily)
    assert store.arrivals[DAILY_KEY].quantity[14] == 40
    assert store.cancels[DAILY_KEY].count[9] == 1
    # one drop per requested granularity
    accumulate_event(store, arrival(16, 40), DAY)
    accumulate_event(store, cancel(11, 10, 100), DAY)
    assert store.dropped_arrivals == 1 + len(Granularity)
    assert store.dropped_cancels == 1 + len(Granularity)


def test_accumulate_cancel_ratio():
    store = TallyStore()
    for ev in (cancel(2, 30, 120), cancel(2, 60, 120)):
        accumulate_event(store, ev, DAY, granularities=[Granularity.DAILY])
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
    assert not accumulate_event(store, arrival(1, 10, ts=ns(9, 55)),
                                dt.date(2017, 8, 1))
    assert store.out_of_hours == 1
    assert store.arrivals == {}


def test_accumulate_event_replace_filter():
    store = TallyStore()
    day = dt.date(2017, 8, 1)
    accumulate_event(store, arrival(1, 10, from_replace=True), day,
                     include_replaces=False)
    accumulate_event(store, cancel(1, 5, 50, from_replace=True), day,
                     include_replaces=False)
    assert store.arrivals == {} and store.cancels == {}
    accumulate_event(store, arrival(1, 10, from_replace=True), day,
                     include_replaces=True)
    assert len(store.arrivals) == 4


def test_density_normalizes():
    tally = ArrivalTally()
    tally.quantity[0] = 50
    tally.quantity[1] = 30
    tally.quantity[2] = 20
    density = arrival_density(tally)
    assert density[:3] == [0.5, 0.3, 0.2]
    assert abs(sum(density) - 1.0) < 1e-12
    with pytest.raises(EmptyBucket):
        arrival_density(ArrivalTally())


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
            day = dt.date(*key.index)
            ck = assign_bucket(ns(10), day, coarse, key.side)
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


def test_merge_matches_single_pass():
    days = weekdays(dt.date(2017, 8, 1), 10)
    events = random_events(23, days)
    whole = TallyStore()
    for day, ev in events:
        accumulate_event(whole, ev, day)
    half_a, half_b = TallyStore(), TallyStore()
    for i, (day, ev) in enumerate(events):
        accumulate_event(half_a if i % 2 else half_b, ev, day)
    merged = merge(half_a, half_b)
    assert {k: t.quantity for k, t in merged.arrivals.items()} == \
           {k: t.quantity for k, t in whole.arrivals.items()}
    for key in whole.cancels:
        assert merged.cancels[key].count == whole.cancels[key].count
        for a, b in zip(merged.cancels[key].ratio_sum,
                        whole.cancels[key].ratio_sum):
            assert a == pytest.approx(b, rel=1e-12)


# --- session cube against a brute-force tally ---

# weekdays across the Aug/Sep 2017 month end (ISO week 35 spans both
# months) and across the 2017/2018 year end (2017-W52 -> 2018-W01)
CUBE_DAYS = (weekdays(dt.date(2017, 8, 28), 6)
             + weekdays(dt.date(2017, 12, 27), 6))
ALL = tuple(Granularity)
GRANULARITY_SETS = (ALL, (Granularity.DAILY,),
                    (Granularity.HOURLY, Granularity.WEEKLY))


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
    for day, ev, granularities in events:
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
        window = 15 if ev.kind is EventKind.LIMIT_ARRIVAL else 10
        for g in granularities:
            if ev.tick > window:
                dropped[ev.kind] += 1
                continue
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
@given(st.lists(st.tuples(cube_event(), st.sampled_from(GRANULARITY_SETS)),
                max_size=80))
def test_store_matches_brute_force_tally(stream):
    events = [(day, ev, granularities)
              for (day, ev), granularities in stream]
    store = TallyStore()
    for day, ev, granularities in events:
        accumulate_event(store, ev, day, granularities=granularities)
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


# --- csv staging ---

def test_rates_csv_round_trip(tmp_path):
    days = weekdays(dt.date(2017, 8, 1), 5)
    store = TallyStore()
    for day, ev in random_events(24, days):
        accumulate_event(store, ev, day)
    path = tmp_path / "rates.csv"
    rates.write_rates_csv(store, path)
    instances = rates.read_rates_csv(path)
    assert len(instances) == len(store.arrivals)
    by_key = {(i["bucket_key"], i["side"]): i for i in instances}
    for key, tally in store.arrivals.items():
        inst = by_key[(key.label, key.side)]
        assert inst["quantity"] == tally.quantity
        assert inst["density"] == arrival_density(tally)
        assert inst["granularity"] is key.granularity


def test_cancels_csv_round_trip(tmp_path):
    days = weekdays(dt.date(2017, 8, 1), 5)
    store = TallyStore()
    for day, ev in random_events(25, days):
        accumulate_event(store, ev, day)
    path = tmp_path / "cancels.csv"
    rates.write_cancels_csv(store, path)
    instances = rates.read_cancels_csv(path)
    by_key = {(i["bucket_key"], i["side"]): i for i in instances}
    for key, tally in store.cancels.items():
        inst = by_key[(key.label, key.side)]
        assert inst["count"] == tally.count
        expected = cancellation_ratio(tally)
        for got, want in zip(inst["mean_ratio"], expected):
            if want is None:
                assert got is None
            else:
                assert got == pytest.approx(want, rel=1e-15)


def test_rates_csv_rows_are_sorted(tmp_path):
    store = TallyStore()
    for day in (dt.date(2017, 8, 3), dt.date(2017, 8, 1)):
        for side in (Side.SELL, Side.BUY):
            accumulate_event(store, arrival(2, 10, side=side), day,
                             granularities=[Granularity.DAILY,
                                            Granularity.WEEKLY])
    path = tmp_path / "rates.csv"
    rates.write_rates_csv(store, path)
    rows = list(csv.DictReader(path.open()))
    keys = [(r["bucket_key"], r["side"], int(r["tick"])) for r in rows]
    assert keys == sorted(
        keys, key=lambda k: (k[0].startswith("weekly"), k[0], k[1], k[2]))


def test_byte_identical_rewrite(tmp_path):
    days = weekdays(dt.date(2017, 8, 1), 5)
    store = TallyStore()
    for day, ev in random_events(26, days):
        accumulate_event(store, ev, day)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    rates.write_rates_csv(store, a)
    rates.write_rates_csv(store, b)
    assert a.read_bytes() == b.read_bytes()
