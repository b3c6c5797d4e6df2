import datetime as dt
import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lobfit import dist, feed, rates, stats, synth
from lobfit.book import OrderBook, TickReference
from lobfit.errors import SpecError
from lobfit.feed import MessageKind, Side


def small_spec(**overrides):
    base = dict(seed=42, days=2, orders_per_day=400,
                buy_model=dist.DiscreteWeibull(0.8, 1.2),
                sell_model=dist.Geometric(0.35))
    base.update(overrides)
    return synth.SynthSpec(**base)


def replay(blob, tick_size=1):
    store = rates.TallyStore()
    rates.tally_stream(store, feed.iter_frames(blob), tick_size)
    return store


def in_trading_hours(timestamp_ns):
    hour = timestamp_ns // rates.NS_PER_HOUR
    return any(lo <= hour < hi
               for lo, hi in (rates.MORNING_HOURS, rates.AFTERNOON_HOURS))


def stream_messages(blob):
    return list(feed.iter_stream(feed.iter_frames(blob)))


class TestSpecValidation:
    def test_rejects_bad_fields(self):
        with pytest.raises(SpecError):
            small_spec(days=0)
        with pytest.raises(SpecError):
            small_spec(orders_per_day=0)
        with pytest.raises(SpecError):
            small_spec(cancel_probability=1.5)
        with pytest.raises(SpecError):
            small_spec(cancel_probability=-0.1)
        with pytest.raises(SpecError):
            small_spec(tick_size=0)
        with pytest.raises(SpecError):
            small_spec(initial_mid=10)
        with pytest.raises(SpecError):
            small_spec(buy_model="weibull")
        with pytest.raises(SpecError):
            small_spec(seed=-1)

    def test_accepts_probability_edges(self):
        small_spec(cancel_probability=0.0)
        small_spec(cancel_probability=1.0)


class TestCalendar:
    def test_default_run_shape(self):
        days = synth.default_calendar(40)
        assert days[0] == dt.date(2017, 8, 1)
        assert days[-1] == dt.date(2017, 9, 25)
        assert len(days) == 40
        assert all(d.weekday() < 5 for d in days)
        weeks = {d.isocalendar()[:2] for d in days}
        months = {(d.year, d.month) for d in days}
        assert len(weeks) == 9
        assert len(months) == 2

    def test_weekend_start_rolls_forward(self):
        days = synth.default_calendar(1, start=dt.date(2017, 8, 5))
        assert days == [dt.date(2017, 8, 7)]

    def test_session_id_round_trip(self):
        day = dt.date(2017, 8, 1)
        sid = rates.date_to_session_id(day)
        assert sid == 20170801
        assert rates.session_id_to_date(sid) == day

    def test_session_id_must_encode_a_date(self):
        with pytest.raises(SpecError):
            rates.session_id_to_date(20171332)


class TestGeneration:
    def test_same_seed_is_byte_identical(self):
        spec = small_spec()
        blob1, _ = synth.generate(spec)
        blob2, _ = synth.generate(spec)
        assert blob1 == blob2

    def test_different_seeds_differ(self):
        blob1, _ = synth.generate(small_spec(seed=1))
        blob2, _ = synth.generate(small_spec(seed=2))
        assert blob1 != blob2

    def test_replay_reproduces_ground_truth_exactly(self):
        spec = small_spec(cancel_style=synth.CancelStyle.UNIFORM_FRACTION)
        blob, gt = synth.generate(spec)
        assert replay(blob) == gt.store
        assert len(_group_by_session(blob)) == spec.days

    def test_replay_closure_with_coarse_price_grid(self):
        spec = small_spec(tick_size=5, initial_mid=2000)
        blob, gt = synth.generate(spec)
        assert replay(blob, tick_size=5) == gt.store

    def test_zero_cancel_probability_means_no_cancels(self):
        blob, gt = synth.generate(small_spec(cancel_probability=0.0))
        kinds = {msg.kind for _, msg in stream_messages(blob)}
        assert kinds == {MessageKind.ADD}
        assert gt.store.cancels == {}

    def test_full_style_uses_deletes_only(self):
        blob, _ = synth.generate(small_spec(cancel_probability=0.3))
        kinds = {msg.kind for _, msg in stream_messages(blob)}
        assert kinds == {MessageKind.ADD, MessageKind.DELETE}

    def test_fraction_style_uses_cancels_only(self):
        blob, _ = synth.generate(small_spec(
            cancel_probability=0.3,
            cancel_style=synth.CancelStyle.UNIFORM_FRACTION))
        kinds = {msg.kind for _, msg in stream_messages(blob)}
        assert kinds == {MessageKind.ADD, MessageKind.CANCEL}

    def test_ladder_opens_each_session_and_is_never_canceled(self):
        spec = small_spec(cancel_probability=0.5)
        blob, gt = synth.generate(spec)
        per_session = _group_by_session(blob)
        assert len(per_session) == spec.days
        ladder_ids = set()
        for msgs in per_session.values():
            head = msgs[:30]
            assert all(m.kind is MessageKind.ADD for m in head)
            assert all(not in_trading_hours(m.timestamp_ns)
                       for m in head)
            ladder_ids.update(m.order_id for m in head)
            removed = {m.order_id for m in msgs
                       if m.kind in (MessageKind.CANCEL, MessageKind.DELETE)}
            assert removed.isdisjoint(ladder_ids)
        assert gt.store.out_of_hours == 30 * spec.days

    def test_trading_messages_are_in_hours_and_ordered(self):
        blob, _ = synth.generate(small_spec())
        for sid, msgs in _group_by_session(blob).items():
            body = msgs[30:]
            assert all(in_trading_hours(m.timestamp_ns) for m in body)
            stamps = [m.timestamp_ns for m in body]
            assert stamps == sorted(stamps)

    def test_nothing_lands_outside_the_windows(self):
        _, gt = synth.generate(small_spec(
            cancel_probability=0.4,
            cancel_style=synth.CancelStyle.UNIFORM_FRACTION))
        assert gt.store.dropped_arrivals == 0
        assert gt.store.dropped_cancels == 0


# sha256 of stream.lobf and ground_truth.json, recorded before the
# generator lost its per-arrival cancel scan; any change to the rng
# order, the cancel candidates or the encoder moves them
GOLDEN_SPECS = {
    "dw_dw_fraction": (
        synth.SynthSpec(seed=7, days=2, orders_per_day=500,
                        buy_model=dist.DiscreteWeibull(0.8, 1.2),
                        sell_model=dist.DiscreteWeibull(0.75, 1.4),
                        cancel_probability=0.15,
                        cancel_style=synth.CancelStyle.UNIFORM_FRACTION),
        "10aaf102482a9e4cbf074f48c71b13e0d07cf710a332fa35a1f81a30211b3e42",
        "739d471a8782a89af2202eb7675d8c4ade5b237d05a1e25724548ec4158fda6f"),
    "geo_bb_full": (
        synth.SynthSpec(seed=11, days=2, orders_per_day=500,
                        buy_model=dist.Geometric(0.35),
                        sell_model=dist.BetaBinomial(1.5, 6.0),
                        cancel_probability=0.2,
                        cancel_style=synth.CancelStyle.FULL),
        "f32394d9b05f20d145ec89e3a5b869529a706088b3ef6b1b813981aa0a0cd89f",
        "e697147b9548cd9a3176427f244cab3b350540a4d99d408b9b44176bf67bea4f"),
    "exp_pow_fraction_tick5": (
        synth.SynthSpec(seed=13, days=2, orders_per_day=500,
                        buy_model=dist.Exponential(0.4),
                        sell_model=dist.PowerLaw(1.0, 1.5),
                        cancel_probability=0.5,
                        cancel_style=synth.CancelStyle.UNIFORM_FRACTION,
                        tick_size=5),
        "daf2004646331a53ca0348d3b140f7192ef1554e2d513cfa319a7a8bfa7c2a40",
        "91aed0777a797b11ac568eba1b8b99bda180b6d628c37042a8d4a194521b2421"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_SPECS))
def test_golden_bytes(name, tmp_path):
    spec, stream_digest, truth_digest = GOLDEN_SPECS[name]
    blob, gt = synth.generate(spec)
    truth = tmp_path / "ground_truth.json"
    synth.write_ground_truth(truth, gt)
    assert hashlib.sha256(blob).hexdigest() == stream_digest
    assert hashlib.sha256(truth.read_bytes()).hexdigest() == truth_digest


def test_ground_truth_does_not_come_from_the_book(tmp_path, monkeypatch):
    # closure replays the stream through the book, so it checks the book
    # only if the generator's truth comes without one
    def refuse(self, msg):
        raise AssertionError("the generator applied a message to a book")

    monkeypatch.setattr(OrderBook, "apply", refuse)
    test_golden_bytes("dw_dw_fraction", tmp_path)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**64 - 1), tick_size=st.integers(1, 5),
       probability=st.one_of(st.sampled_from([0.0, 1.0]),
                             st.floats(0.0, 1.0)),
       style=st.sampled_from(synth.CancelStyle))
def test_touch_never_moves_and_cancels_stay_in_the_window(
        seed, tick_size, probability, style):
    spec = synth.SynthSpec(seed=seed, days=1, orders_per_day=150,
                           buy_model=dist.Geometric(0.2),
                           sell_model=dist.DiscreteWeibull(0.9, 1.1),
                           cancel_probability=probability,
                           cancel_style=style, tick_size=tick_size)
    blob, _ = synth.generate(spec)
    book = OrderBook(tick_size=tick_size, reference=TickReference.SAME_SIDE)
    bid = spec.initial_mid - tick_size
    ask = spec.initial_mid + tick_size
    reach = (rates.CANCEL_TICKS - 1) * tick_size
    messages = stream_messages(blob)
    ladder = {msg.order_id for _, msg in messages[:30]}
    for i, (_, msg) in enumerate(messages):
        if msg.kind in (MessageKind.CANCEL, MessageKind.DELETE):
            assert msg.order_id not in ladder
            order = book.orders[msg.order_id]
            distance = (bid - order.price if order.side is Side.BUY
                        else order.price - ask)
            assert 0 <= distance <= reach
        book.apply(msg)
        if i >= 1:  # from the first ladder pair on
            assert (book.best_bid, book.best_ask) == (bid, ask)


def _group_by_session(blob):
    out = {}
    for sid, msg in stream_messages(blob):
        out.setdefault(sid, []).append(msg)
    return out


class TestStatisticalRecovery:
    def test_empirical_density_approaches_the_curve(self):
        model = dist.DiscreteWeibull(0.8, 1.2)
        curve = dist.tick_curve(model)
        for seed in (1, 2, 3):
            spec = synth.SynthSpec(seed=seed, days=1, orders_per_day=30_000,
                                   buy_model=model, sell_model=model,
                                   cancel_probability=0.05)
            _, gt = synth.generate(spec)
            key = rates.BucketKey(rates.Granularity.DAILY, (2017, 8, 1),
                                  Side.BUY)
            density = rates.arrival_density(gt.store.arrivals[key])
            assert stats.l1_error(density, curve) < 0.04


class TestGroundTruthSerialization:
    def test_payload_shape(self):
        spec = small_spec(cancel_style=synth.CancelStyle.UNIFORM_FRACTION)
        _, gt = synth.generate(spec)
        payload = synth.ground_truth_payload(gt)
        assert payload["spec"]["seed"] == spec.seed
        assert payload["spec"]["buy_model"] == {
            "family": "discrete_weibull", "params": {"q": 0.8, "beta": 1.2}}
        assert payload["spec"]["cancel_style"] == "uniform_fraction"
        for arr in payload["arrival_quantities"].values():
            assert len(arr) == 15
        for arr in payload["cancel_ratio_sums"].values():
            assert len(arr) == 10
        assert payload["out_of_hours"] == 30 * spec.days

    def test_written_file_is_valid_json(self, tmp_path):
        _, gt = synth.generate(small_spec())
        target = tmp_path / "truth.json"
        synth.write_ground_truth(target, gt)
        loaded = json.loads(target.read_text())
        assert loaded["dropped_arrivals"] == 0
        # keys carry granularity, bucket, and side
        assert any(k.startswith("daily:2017-08-") and k.endswith(":buy")
                   for k in loaded["arrival_quantities"])
