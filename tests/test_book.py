import random

import pytest

from lobfit.book import (
    BookEvent,
    EventKind,
    OrderBook,
    TickReference,
)
from lobfit.errors import DuplicateOrderId, OverCancel, UnknownOrderId
from lobfit.feed import MarketMessage, MessageKind, Side


def seeded_book(reference=TickReference.SAME_SIDE):
    """Bids at 1214..1210, asks at 1217..1221, 100 shares each."""
    book = OrderBook(reference=reference)
    oid = 1
    for price in range(1214, 1209, -1):
        book.apply(MarketMessage.add(0, oid, Side.BUY, price, 100))
        oid += 1
    for price in range(1217, 1222):
        book.apply(MarketMessage.add(0, oid, Side.SELL, price, 100))
        oid += 1
    return book, oid


# --- tick distance ---

def test_same_side_ticks():
    book, _ = seeded_book()
    assert book.best_bid == 1214
    assert book.best_ask == 1217
    assert book.tick_distance(Side.BUY, 1214) == 1
    assert book.tick_distance(Side.BUY, 1213) == 2
    assert book.tick_distance(Side.BUY, 1200) == 15
    assert book.tick_distance(Side.SELL, 1217) == 1
    assert book.tick_distance(Side.SELL, 1218) == 2
    assert book.tick_distance(0, 1210) == 5
    assert book.tick_distance(1, 1218) == 2
    with pytest.raises(ValueError):
        book.tick_distance(2, 1210)


def test_opposite_side_ticks():
    book, _ = seeded_book(reference=TickReference.OPPOSITE_SIDE)
    assert book.tick_distance(Side.BUY, 1216) == 1
    assert book.tick_distance(Side.BUY, 1214) == 3
    assert book.tick_distance(Side.SELL, 1215) == 1
    assert book.tick_distance(Side.SELL, 1218) == 4


def test_aggressive_prices_clamp_to_one():
    book, _ = seeded_book()
    assert book.tick_distance(Side.BUY, 1215) == 1
    assert book.tick_distance(Side.BUY, 1300) == 1
    opp, _ = seeded_book(reference=TickReference.OPPOSITE_SIDE)
    assert opp.tick_distance(Side.BUY, 1217) == 1


def test_tick_size_scales_distance():
    book = OrderBook(tick_size=5)
    book.apply(MarketMessage.add(0, 1, Side.BUY, 1000, 10))
    assert book.tick_distance(Side.BUY, 990) == 3


def test_empty_reference_side_is_tick_one():
    for reference in TickReference:
        book = OrderBook(reference=reference)
        assert book.tick_distance(Side.BUY, 1214) == 1
        assert book.tick_distance(Side.SELL, 1217) == 1
        book.apply(MarketMessage.add(0, 1, Side.BUY, 1214, 10))
        # the ask ladder is still empty: sells measure against it under
        # the same-side convention, buys under the opposite-side one
        if reference is TickReference.SAME_SIDE:
            side, price = Side.SELL, 1230
        else:
            side, price = Side.BUY, 1200
        assert book.tick_distance(side, price) == 1
        (ev,) = book.apply(MarketMessage.add(1, 2, side, price, 10))
        assert ev.tick == 1


# --- apply: arrivals ---

def test_first_arrival_on_empty_side_is_tick_one():
    book = OrderBook()
    (ev,) = book.apply(MarketMessage.add(5, 1, Side.BUY, 1214, 100))
    assert ev == BookEvent(EventKind.LIMIT_ARRIVAL, Side.BUY, 5, 1, 100)
    (ev2,) = book.apply(MarketMessage.add(6, 2, Side.BUY, 1212, 40))
    assert ev2.tick == 3


def test_arrival_at_touch_and_behind():
    book, oid = seeded_book()
    (at_touch,) = book.apply(MarketMessage.add(9, oid, Side.BUY, 1214, 10))
    assert at_touch.tick == 1
    (behind,) = book.apply(MarketMessage.add(9, oid + 1, Side.BUY, 1213, 10))
    assert behind.tick == 2


def test_improving_arrival_is_tick_one_and_moves_best():
    book, oid = seeded_book()
    (ev,) = book.apply(MarketMessage.add(9, oid, Side.BUY, 1215, 10))
    assert ev.tick == 1
    assert book.best_bid == 1215


def test_crossing_arrival_clamps_and_rests():
    book, oid = seeded_book()
    (ev,) = book.apply(MarketMessage.add(9, oid, Side.BUY, 1218, 10))
    assert ev.tick == 1
    assert book.bids[1218] == 10


def test_duplicate_order_id():
    book, _ = seeded_book()
    with pytest.raises(DuplicateOrderId):
        book.apply(MarketMessage.add(1, 1, Side.BUY, 1213, 10))


def test_plain_int_side_rests_on_its_own_ladder():
    book = OrderBook()
    book.apply(MarketMessage.add(0, 1, Side.BUY, 100, 5))
    book.apply(MarketMessage.add(1, 2, Side.SELL, 110, 5))
    msg = MarketMessage(MessageKind.ADD, 2, 3, side=0, price=90, quantity=5)
    assert msg.side is Side.BUY
    book.apply(msg)
    assert book.best_bid == 100 and book.best_ask == 110
    assert book.bids[90] == 5
    assert MarketMessage.add(3, 4, 1, 120, 5).side is Side.SELL
    with pytest.raises(ValueError):
        MarketMessage(MessageKind.ADD, 4, 5, side=2, price=90, quantity=5)


# --- apply: cancels, deletes, executes ---

def test_partial_cancel_reports_level_before():
    book = OrderBook()
    book.apply(MarketMessage.add(0, 1, Side.BUY, 1214, 70))
    book.apply(MarketMessage.add(0, 2, Side.BUY, 1214, 50))
    (ev,) = book.apply(MarketMessage.cancel(3, 1, 30))
    assert ev.kind is EventKind.CANCEL
    assert ev.quantity == 30
    assert ev.level_quantity_before == 120
    assert ev.tick == 1
    assert book.bids[1214] == 90
    assert book.orders[1].remaining == 40


def test_cancel_to_zero_removes_order():
    book = OrderBook()
    book.apply(MarketMessage.add(0, 1, Side.SELL, 1217, 25))
    book.apply(MarketMessage.cancel(1, 1, 25))
    assert 1 not in book.orders
    assert 1217 not in book.asks


def test_delete_removes_remainder():
    book = OrderBook()
    book.apply(MarketMessage.add(0, 1, Side.SELL, 1217, 80))
    book.apply(MarketMessage.add(0, 2, Side.SELL, 1217, 20))
    (ev,) = book.apply(MarketMessage.delete(4, 1))
    assert ev.kind is EventKind.CANCEL
    assert ev.quantity == 80
    assert ev.level_quantity_before == 100
    assert book.asks[1217] == 20


def test_cancel_of_best_level_uses_pre_mutation_reference():
    book, _ = seeded_book()
    (ev,) = book.apply(MarketMessage.delete(3, 1))  # the only 1214 bid
    assert ev.tick == 1
    assert book.best_bid == 1213


def test_execute_event_has_no_level_quantity():
    book, _ = seeded_book()
    (ev,) = book.apply(MarketMessage.execute(4, 1, 60))
    assert ev.kind is EventKind.EXECUTION
    assert ev.quantity == 60
    assert ev.level_quantity_before is None
    assert ev.side is Side.BUY
    assert book.orders[1].remaining == 40


def test_over_cancel_and_over_execute():
    book, _ = seeded_book()
    with pytest.raises(OverCancel):
        book.apply(MarketMessage.cancel(1, 1, 101))
    with pytest.raises(OverCancel):
        book.apply(MarketMessage.execute(1, 1, 101))
    assert book.orders[1].remaining == 100  # rejected ops leave no trace


def test_unknown_order_id():
    book = OrderBook()
    for msg in (MarketMessage.cancel(0, 99, 1),
                MarketMessage.delete(0, 99),
                MarketMessage.execute(0, 99, 1),
                MarketMessage.replace(0, 99, 100, 1214, 10)):
        with pytest.raises(UnknownOrderId):
            book.apply(msg)


# --- apply: replace ---

def test_replace_is_cancel_then_arrival():
    book, _ = seeded_book()
    events = book.apply(MarketMessage.replace(7, 1, 50, 1212, 30))
    assert [ev.kind for ev in events] == [EventKind.CANCEL,
                                          EventKind.LIMIT_ARRIVAL]
    cancel, arrival = events
    assert cancel.quantity == 100
    assert cancel.level_quantity_before == 100
    assert arrival.quantity == 30
    assert arrival.side is Side.BUY  # side carried over from the old order
    assert 1 not in book.orders
    assert book.orders[50].price == 1212


def test_replace_arrival_sees_book_without_old_order():
    book = OrderBook()
    book.apply(MarketMessage.add(0, 1, Side.BUY, 1214, 10))
    book.apply(MarketMessage.add(0, 2, Side.BUY, 1212, 10))
    cancel, arrival = book.apply(MarketMessage.replace(3, 1, 9, 1210, 10))
    assert cancel.tick == 1
    assert arrival.tick == 3  # measured against 1212, the best after removal
    assert book.best_bid == 1212


def test_replace_may_reuse_old_id():
    book, _ = seeded_book()
    cancel, arrival = book.apply(MarketMessage.replace(7, 1, 1, 1213, 55))
    assert book.orders[1].remaining == 55
    assert book.orders[1].price == 1213


def test_replace_rejects_resting_new_id():
    book, _ = seeded_book()
    with pytest.raises(DuplicateOrderId):
        book.apply(MarketMessage.replace(7, 1, 2, 1213, 55))


# --- properties over random streams ---

def random_stream(seed, n):
    rng = random.Random(seed)
    book = OrderBook()
    live = {}
    next_id = 1
    messages = []
    for step in range(n):
        choice = rng.random()
        if not live or choice < 0.5:
            side = Side(rng.randrange(2))
            base = 1214 if side is Side.BUY else 1217
            offset = rng.randrange(0, 20)
            price = base - offset if side is Side.BUY else base + offset
            msg = MarketMessage.add(step, next_id, side, price,
                                    rng.randrange(1, 500))
            live[next_id] = msg.quantity
            next_id += 1
        else:
            oid = rng.choice(list(live))
            remaining = live[oid]
            if choice < 0.65:
                qty = rng.randrange(1, remaining + 1)
                msg = MarketMessage.cancel(step, oid, qty)
                live[oid] -= qty
            elif choice < 0.8:
                qty = rng.randrange(1, remaining + 1)
                msg = MarketMessage.execute(step, oid, qty)
                live[oid] -= qty
            elif choice < 0.9:
                msg = MarketMessage.delete(step, oid)
                live[oid] = 0
            else:
                price = rng.randrange(1195, 1240)
                qty = rng.randrange(1, 500)
                msg = MarketMessage.replace(step, oid, next_id, price, qty)
                live[oid] = 0
                live[next_id] = qty
                next_id += 1
            if live[oid] == 0:
                del live[oid]
        messages.append(msg)
    return book, messages


def audit(book):
    totals = {}
    for order in book.orders.values():
        key = (order.side, order.price)
        assert order.remaining > 0
        totals[key] = totals.get(key, 0) + order.remaining
    ladder_totals = {
        (side, price): quantity
        for side, ladder in ((Side.BUY, book.bids), (Side.SELL, book.asks))
        for price, quantity in ladder.items()
    }
    assert all(type(q) is int for q in ladder_totals.values())
    assert totals == ladder_totals
    assert book.best_bid == (max(book.bids) if book.bids else None)
    assert book.best_ask == (min(book.asks) if book.asks else None)


def test_conservation_under_random_streams():
    book, messages = random_stream(11, 3000)
    events = []
    for i, msg in enumerate(messages):
        events.extend(book.apply(msg))
        if i % 200 == 0:
            audit(book)
    audit(book)
    for ev in events:
        assert ev.tick >= 1
        if ev.kind is EventKind.CANCEL:
            assert ev.level_quantity_before >= ev.quantity


def oracle_tick(bids, asks, book, side, price):
    """Tick of ``price`` against ladders given as price -> quantity."""
    best_bid = max(bids) if bids else None
    best_ask = min(asks) if asks else None
    if book.reference is TickReference.SAME_SIDE:
        ref = best_bid if side is Side.BUY else best_ask
        shift = 1
    else:
        ref = best_ask if side is Side.BUY else best_bid
        shift = 0
    if ref is None:
        return 1
    gap = ref - price if side is Side.BUY else price - ref
    return max(1, gap // book.tick_size + shift)


def expected_ticks(book, msg):
    """Event ticks of ``msg`` from the ladders as they stand before it."""
    bids = dict(book.bids)
    asks = dict(book.asks)
    if msg.kind is MessageKind.ADD:
        return [oracle_tick(bids, asks, book, msg.side, msg.price)]
    order = book.orders[msg.order_id]
    ticks = [oracle_tick(bids, asks, book, order.side, order.price)]
    if msg.kind is MessageKind.REPLACE:
        # the arrival sees the book without the replaced order
        ladder = bids if order.side is Side.BUY else asks
        ladder[order.price] -= order.remaining
        if not ladder[order.price]:
            del ladder[order.price]
        ticks.append(oracle_tick(bids, asks, book, order.side, msg.price))
    return ticks


@pytest.mark.parametrize("reference", list(TickReference))
@pytest.mark.parametrize("tick_size", [1, 5])
def test_best_prices_and_ticks_under_random_streams(reference, tick_size):
    _, messages = random_stream(13, 3000)
    book = OrderBook(tick_size=tick_size, reference=reference)
    for msg in messages:
        want = expected_ticks(book, msg)
        if msg.kind is MessageKind.ADD:
            assert book.tick_distance(msg.side, msg.price) == want[0]
        assert [ev.tick for ev in book.apply(msg)] == want
        audit(book)


def test_replay_is_deterministic():
    _, messages = random_stream(12, 1500)
    first, second = OrderBook(), OrderBook()
    out_a = [ev for m in messages for ev in first.apply(m)]
    out_b = [ev for m in messages for ev in second.apply(m)]
    assert out_a == out_b
