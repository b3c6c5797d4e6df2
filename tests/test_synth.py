import datetime as dt
import hashlib
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
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
    rates.tally_stream(store, [blob], tick_size)
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

    @pytest.mark.parametrize("tick_size", [1, 7])
    def test_largest_ask_must_fit_a_u32_price(self, tick_size):
        # the spec's bound stands in for the per-message price check
        edge = 2**32 - 1 - rates.ARRIVAL_TICKS * tick_size
        small_spec(initial_mid=edge, tick_size=tick_size)
        with pytest.raises(SpecError, match="initial_mid.*tick_size"):
            small_spec(initial_mid=edge + 1, tick_size=tick_size)

    def test_order_ids_must_fit_a_u64(self):
        with pytest.raises(SpecError, match="order ids"):
            small_spec(days=2**32, orders_per_day=2**32)

    def test_calendar_must_end_by_the_last_date(self):
        # 9999-12-31, the last date, is a Friday
        assert small_spec(days=1, start=dt.date.max).start == dt.date.max
        small_spec(days=5, start=dt.date(9999, 12, 25))
        for days, start in ((2, dt.date.max), (6, dt.date(9999, 12, 25)),
                            (3_000_000, dt.date(2017, 8, 1))):
            with pytest.raises(SpecError, match=f"days {days} from start "
                                                f"{start.isoformat()}"):
                small_spec(days=days, start=start)

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

    @settings(max_examples=60, deadline=None)
    @given(st.dates(dt.date(2017, 1, 1), dt.date(2017, 12, 31)),
           st.integers(1, 30))
    def test_first_weekdays_from_any_start(self, start, days):
        walked, cursor = [], start
        while len(walked) < days:
            if cursor.weekday() < 5:
                walked.append(cursor)
            cursor += dt.timedelta(days=1)
        assert synth.default_calendar(days, start) == walked

    def test_last_date_ends_a_calendar(self):
        assert synth.default_calendar(1, dt.date.max) == [dt.date.max]
        with pytest.raises(SpecError, match="after the last date"):
            synth.default_calendar(2, dt.date.max)

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

    def test_each_session_stands_alone(self):
        # session k is made from its index alone: its own jump of the
        # seed's stream, and order ids counted on from the sessions before
        spec = small_spec(days=3)
        blob, gt = synth.generate(spec)
        sessions = _group_by_session(blob)
        days = synth.default_calendar(spec.days, spec.start)
        store = rates.TallyStore()
        for index in reversed(range(spec.days)):
            chunks = []
            store.merge(synth.generate_session(spec, index, days[index],
                                               chunks.append))
            alone = stream_messages(b"".join(chunks))
            sid = rates.date_to_session_id(days[index])
            assert alone == [(sid, m) for m in sessions[sid]]
            adds = [m.order_id for m in sessions[sid]
                    if m.kind is MessageKind.ADD]
            first = 1 + index * (2 * rates.ARRIVAL_TICKS
                                 + spec.orders_per_day)
            assert adds == list(range(first, first + len(adds)))
            assert len(adds) == 2 * rates.ARRIVAL_TICKS + spec.orders_per_day
        assert store == gt.store

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


_ONE_PER_FAMILY = (dist.Geometric(0.35), dist.DiscreteWeibull(0.8, 1.2),
                   dist.BetaBinomial(1.5, 6.0), dist.Exponential(0.4),
                   dist.PowerLaw(1.0, 1.5))


# sha256 of stream.lobf and ground_truth.json; the 2-day entries were
# recorded once each session drew from its own jump of the seed's
# stream, the 1-day one before the generator lost its per-arrival copy
# of the live list; any change to the rng order, the cancel candidates
# or the encoder moves them
GOLDEN_SPECS = {
    "dw_dw_fraction": (
        synth.SynthSpec(seed=7, days=2, orders_per_day=500,
                        buy_model=dist.DiscreteWeibull(0.8, 1.2),
                        sell_model=dist.DiscreteWeibull(0.75, 1.4),
                        cancel_probability=0.15,
                        cancel_style=synth.CancelStyle.UNIFORM_FRACTION),
        "96e39ebc76dc3bf0c3d98a558b41559be67a45a44198eee54e198eba0fd109f1",
        "e80fc0eb8d72775b69e4923d55cb2dcca2d59b439b12e60d196510d722ec593a"),
    "geo_bb_full": (
        synth.SynthSpec(seed=11, days=2, orders_per_day=500,
                        buy_model=dist.Geometric(0.35),
                        sell_model=dist.BetaBinomial(1.5, 6.0),
                        cancel_probability=0.2,
                        cancel_style=synth.CancelStyle.FULL),
        "b79cb9cb12920d000a5a904c09469ee4d188f3d474ba4bfbe963a6ee87686bf7",
        "2931b898a8f91bd210a06ab90ae920f1d9bd28c80507bb0a9dfa21988b8583bc"),
    "exp_pow_fraction_tick5": (
        synth.SynthSpec(seed=13, days=2, orders_per_day=500,
                        buy_model=dist.Exponential(0.4),
                        sell_model=dist.PowerLaw(1.0, 1.5),
                        cancel_probability=0.5,
                        cancel_style=synth.CancelStyle.UNIFORM_FRACTION,
                        tick_size=5),
        "64035f904c68112580fca46b81bd180b9c4c8f3ed8442b24bf7b505bedeb3ef0",
        "c538730325f69f66accf59583e1fcb80078938143a6e170de1ab424d330bfb20"),
    # every live order is hit at every arrival, so each cancel draw picks
    # the whole population
    "geo_dw_full_all": (
        synth.SynthSpec(seed=17, days=2, orders_per_day=500,
                        buy_model=dist.Geometric(0.3),
                        sell_model=dist.DiscreteWeibull(0.7, 1.1),
                        cancel_probability=1.0,
                        cancel_style=synth.CancelStyle.FULL),
        "1f855b65894f9df35eb7c0d0493b2b15e7b690953b64a8ca6f16626a0d0575b9",
        "d2e19bf7653bd5242915d494ed50b495def9f50d2f8f16ce90f18b89f016e436"),
    "bb_exp_fraction_all": (
        synth.SynthSpec(seed=19, days=2, orders_per_day=500,
                        buy_model=dist.BetaBinomial(2.0, 5.0),
                        sell_model=dist.Exponential(0.5),
                        cancel_probability=1.0,
                        cancel_style=synth.CancelStyle.UNIFORM_FRACTION),
        "c736ff33e653278a807003577093849993de3c011016f0eb9afd3b2f1ec2288d",
        "3a2c44883094fab367d8bc52b01baf100daa09ce0c73ab5d48760496a49a5c3a"),
    # few cancels over a long day, so thousands of orders stay live and
    # the picks index deep into the live list
    "dw_geo_fraction_deep": (
        synth.SynthSpec(seed=23, days=1, orders_per_day=20_000,
                        buy_model=dist.DiscreteWeibull(0.8, 1.2),
                        sell_model=dist.Geometric(0.3),
                        cancel_probability=0.001,
                        cancel_style=synth.CancelStyle.UNIFORM_FRACTION),
        "6d4342599a204082149f1678385877fbfadaa2dd9e897bdcf577bd60e4cf5205",
        "c48af9b80b545b69754fa05a1f70696c41aa61bb7ab340683e022c21a0104f80"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_SPECS))
def test_golden_bytes(name, tmp_path):
    spec, stream_digest, truth_digest = GOLDEN_SPECS[name]
    blob, gt = synth.generate(spec)
    truth = tmp_path / "ground_truth.json"
    synth.write_ground_truth(truth, gt)
    assert hashlib.sha256(blob).hexdigest() == stream_digest
    assert hashlib.sha256(truth.read_bytes()).hexdigest() == truth_digest
    # the writer path, which lobfit synth runs, writes the same bytes
    chunks = []
    streamed, streamed_gt = synth.generate(spec, chunks.append)
    assert streamed == b""
    assert hashlib.sha256(b"".join(chunks)).hexdigest() == stream_digest
    assert streamed_gt.store == gt.store


def _pop_and_size(pops, sizes):
    return pops.flatmap(lambda pop: st.tuples(st.just(pop), sizes(pop)))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**64 - 1),
       pop_size=st.one_of(
           _pop_and_size(st.integers(1, 300),
                         lambda pop: st.one_of(st.just(pop), st.just(1),
                                               st.integers(1, pop))),
           # bounds this wide reject about one draw in four
           _pop_and_size(st.integers(2**30, 2**32 - 2),
                         lambda pop: st.integers(1, 40)),
           # numpy shuffles the tail of arange(pop) here, not Floyd's
           _pop_and_size(st.integers(10_001, 20_000),
                         lambda pop: st.integers(pop // 50 + 1,
                                                 pop // 50 + 300))),
       primed=st.integers(0, 2), fraction=st.booleans())
@example(seed=3, pop_size=(10_001, 10_001), primed=1, fraction=True)
@example(seed=3, pop_size=(10_001, 200), primed=1, fraction=True)
def test_cancel_draws_are_numpys_choice_and_random(seed, pop_size, primed,
                                                   fraction):
    # `primed` 32-bit draws first: 1 leaves a half word kept back, 2 one
    # spent
    pop, size = pop_size
    ours, twin = np.random.default_rng(seed), np.random.default_rng(seed)
    for rng in (ours, twin):
        rng.integers(0, 2, size=primed)
    bits = ours.bit_generator
    state = bits.state
    picks, shares, carry = synth._cancel_draws(
        bits.random_raw, (state["has_uint32"], state["uinteger"]), pop,
        size, fraction)
    assert picks == sorted(twin.choice(pop, size=size,
                                       replace=False).tolist())
    assert shares == (twin.random(size).tolist() if fraction
                      else [None] * size)
    state = bits.state
    state["has_uint32"], state["uinteger"] = carry
    assert state == twin.bit_generator.state


def test_ground_truth_does_not_come_from_the_book(tmp_path, monkeypatch):
    # closure replays the stream through the book, so it checks the book
    # only if the generator's truth comes without one; and the generator
    # tallies into its cubes, not through the per-event reference
    def refuse(self, msg):
        raise AssertionError("the generator applied a message to a book")

    def refuse_event(store, event, session_date):
        raise AssertionError("the generator tallied a BookEvent")

    monkeypatch.setattr(OrderBook, "apply", refuse)
    monkeypatch.setattr(rates, "accumulate_event", refuse_event)
    test_golden_bytes("dw_dw_fraction", tmp_path)


def object_replay(blob, tick_size):
    """The stream's tallies through the object-level chain,
    ``iter_frames -> iter_stream -> OrderBook.apply -> accumulate_event``.
    """
    store = rates.TallyStore()
    books = {}
    for session_id, msg in stream_messages(blob):
        if session_id not in books:
            books[session_id] = (OrderBook(tick_size=tick_size),
                                 rates.session_id_to_date(session_id))
        book, day = books[session_id]
        for event in book.apply(msg):
            rates.accumulate_event(store, event, day)
    return store


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**64 - 1), days=st.integers(1, 2),
       orders=st.integers(1, 300), tick_size=st.integers(1, 5),
       probability=st.one_of(st.sampled_from([0.0, 1.0]),
                             st.floats(0.0, 1.0)),
       style=st.sampled_from(synth.CancelStyle),
       buy=st.sampled_from(_ONE_PER_FAMILY),
       sell=st.sampled_from(_ONE_PER_FAMILY))
def test_truth_is_what_both_replays_tally(seed, days, orders, tick_size,
                                          probability, style, buy, sell):
    spec = synth.SynthSpec(seed=seed, days=days, orders_per_day=orders,
                           buy_model=buy, sell_model=sell,
                           cancel_probability=probability,
                           cancel_style=style, tick_size=tick_size)
    blob, gt = synth.generate(spec)
    assert gt.store == replay(blob, tick_size)
    assert gt.store == object_replay(blob, tick_size)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**64 - 1), days=st.integers(1, 3),
       orders=st.integers(1, 600), tick_size=st.integers(1, 5),
       probability=st.one_of(st.sampled_from([0.0, 1.0]),
                             st.floats(0.0, 1.0)),
       style=st.sampled_from(synth.CancelStyle))
@example(seed=1, days=2, orders=600, tick_size=1, probability=1.0,
         style=synth.CancelStyle.UNIFORM_FRACTION)  # 4 frames a session
def test_writer_gets_whole_frames_as_they_fill(seed, days, orders, tick_size,
                                               probability, style):
    spec = synth.SynthSpec(seed=seed, days=days, orders_per_day=orders,
                           buy_model=dist.DiscreteWeibull(0.8, 1.2),
                           sell_model=dist.Geometric(0.35),
                           cancel_probability=probability,
                           cancel_style=style, tick_size=tick_size)
    chunks = []
    streamed, streamed_gt = synth.generate(spec, chunks.append)
    assert streamed == b""
    counts = {}
    for chunk in chunks:
        offset = frames = 0
        while offset < len(chunk):
            session_id, sequence, messages, offset = feed.frame_at(chunk,
                                                                   offset)
            sizes = counts.setdefault(session_id, [])
            assert sequence == 1000 * len(sizes)
            sizes.append(len(messages))
            frames += 1
        assert offset == len(chunk)
        # fewer than 1000 messages wait before an arrival, which adds at
        # most 1 + orders < 1000 more, so a frame goes out once it fills
        assert frames <= 2
    assert len(counts) == days
    for sizes in counts.values():
        assert all(size == 1000 for size in sizes[:-1])
        assert 1 <= sizes[-1] <= 1000
    blob, gt = synth.generate(spec)
    assert b"".join(chunks) == blob
    assert streamed_gt.store == gt.store


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


@pytest.mark.parametrize("index", range(len(_ONE_PER_FAMILY)))
@settings(max_examples=12, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**64 - 1), days=st.integers(1, 2),
       orders=st.integers(1, 300), tick_size=st.integers(1, 9),
       probability=st.sampled_from([0.0, 0.08, 1.0]),
       style=st.sampled_from(synth.CancelStyle),
       at_price_bound=st.booleans())
def test_trusted_packing_writes_what_validated_messages_encode_to(
        index, seed, days, orders, tick_size, probability, style,
        at_price_bound):
    # each family is the buy side once and the sell side once
    mid = (2**32 - 1 - rates.ARRIVAL_TICKS * tick_size if at_price_bound
           else 10_000)
    spec = synth.SynthSpec(
        seed=seed, days=days, orders_per_day=orders,
        buy_model=_ONE_PER_FAMILY[index],
        sell_model=_ONE_PER_FAMILY[index - 1],
        cancel_probability=probability, cancel_style=style,
        tick_size=tick_size, initial_mid=mid)
    blob, _ = synth.generate(spec)
    sessions = {}
    for frame in feed.iter_frames(blob):
        sessions.setdefault(frame.session_id, []).extend(
            feed.MarketMessage(msg.kind, msg.timestamp_ns, msg.order_id,
                               side=msg.side, price=msg.price,
                               quantity=msg.quantity,
                               new_order_id=msg.new_order_id)
            for msg in frame.messages)
    assert len(sessions) == days
    rebuilt = b"".join(feed.encode_frame(frame)
                       for session_id, messages in sessions.items()
                       for frame in feed.build_frames(session_id, messages))
    assert rebuilt == blob


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
