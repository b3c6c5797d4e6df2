"""Price-level order book reconstruction.

The book is a passive accounting structure: it applies the decoded
message stream and reports, for every mutation, where in the ladder it
happened.  There is no matching engine; an Add whose price crosses the
opposite side is still inserted, and its arrival event is clamped to
tick 1 (such orders trade immediately in the venue this format mirrors,
so they belong at the touch in arrival statistics).

Tick distance is 1-based.  With tick size T and the same-side
convention, a buy at ``best_bid`` is tick 1 and each T below adds one;
sells mirror against ``best_ask``.  The opposite-side convention
measures buys against ``best_ask`` (a buy one T below the ask is
tick 1) and sells against ``best_bid``.  Distances that come out below
1 clamp to 1.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from enum import Enum

from lobfit.errors import (
    DuplicateOrderId,
    MissingReference,
    OverCancel,
    UnknownOrderId,
)
from lobfit.feed import MarketMessage, MessageKind, Side

__all__ = [
    "TickReference",
    "EventKind",
    "BookEvent",
    "PriceLevel",
    "RestingOrder",
    "OrderBook",
    "write_events_csv",
]


class TickReference(Enum):
    SAME_SIDE = "same"
    OPPOSITE_SIDE = "opposite"


class EventKind(Enum):
    LIMIT_ARRIVAL = "limit_arrival"
    CANCEL = "cancel"
    EXECUTION = "execution"


@dataclass(frozen=True, slots=True)
class BookEvent:
    """One ladder mutation derived from an applied message.

    level_quantity_before is the level's total resting quantity before
    the mutation; it is set for cancels (the denominator of the
    cancellation ratio) and None otherwise.
    """

    kind: EventKind
    side: Side
    timestamp_ns: int
    tick: int
    quantity: int
    level_quantity_before: int | None = None


@dataclass(slots=True)
class RestingOrder:
    side: Side
    price: int
    remaining: int


@dataclass(slots=True)
class PriceLevel:
    total_quantity: int = 0
    order_count: int = 0


class OrderBook:
    """Mutable book: two price ladders plus an order-id index."""

    def __init__(self, tick_size: int = 1,
                 reference: TickReference | str = TickReference.SAME_SIDE):
        if tick_size < 1:
            raise ValueError("tick_size must be a positive price increment")
        self.tick_size = tick_size
        self.reference = TickReference(reference)
        self.bids: dict[int, PriceLevel] = {}
        self.asks: dict[int, PriceLevel] = {}
        self.orders: dict[int, RestingOrder] = {}

    @property
    def best_bid(self) -> int | None:
        return max(self.bids) if self.bids else None

    @property
    def best_ask(self) -> int | None:
        return min(self.asks) if self.asks else None

    def tick_distance(self, side: Side, price: int) -> int:
        """1-based distance of ``price`` from the configured reference.

        Raises MissingReference when the side the convention measures
        against holds no orders.
        """
        if self.reference is TickReference.SAME_SIDE:
            ref = self.best_bid if side is Side.BUY else self.best_ask
            if ref is None:
                raise MissingReference(f"no resting {Side(side).name} orders")
            gap = ref - price if side is Side.BUY else price - ref
            tick = gap // self.tick_size + 1
        else:
            ref = self.best_ask if side is Side.BUY else self.best_bid
            if ref is None:
                opposite = Side.SELL if side is Side.BUY else Side.BUY
                raise MissingReference(f"no resting {opposite.name} orders")
            gap = ref - price if side is Side.BUY else price - ref
            tick = gap // self.tick_size
        return tick if tick >= 1 else 1

    def _event_tick(self, side: Side, price: int) -> int:
        # first arrival on an unreferenced ladder seeds at the touch
        try:
            return self.tick_distance(side, price)
        except MissingReference:
            return 1

    def _ladder(self, side: Side) -> dict[int, PriceLevel]:
        return self.bids if side is Side.BUY else self.asks

    def _insert(self, order_id: int, side: Side, price: int, quantity: int,
                timestamp_ns: int) -> BookEvent:
        if order_id in self.orders:
            raise DuplicateOrderId(f"order {order_id} already resting")
        tick = self._event_tick(side, price)
        level = self._ladder(side).setdefault(price, PriceLevel())
        level.total_quantity += quantity
        level.order_count += 1
        self.orders[order_id] = RestingOrder(side, price, quantity)
        return BookEvent(EventKind.LIMIT_ARRIVAL, side, timestamp_ns, tick,
                         quantity)

    def _remove(self, order_id: int, quantity: int, timestamp_ns: int,
                kind: EventKind) -> BookEvent:
        order = self.orders.get(order_id)
        if order is None:
            raise UnknownOrderId(f"order {order_id}")
        if quantity > order.remaining:
            raise OverCancel(
                f"order {order_id}: {quantity} exceeds remaining "
                f"{order.remaining}")
        ladder = self._ladder(order.side)
        level = ladder[order.price]
        before = level.total_quantity
        tick = self._event_tick(order.side, order.price)
        order.remaining -= quantity
        level.total_quantity -= quantity
        if order.remaining == 0:
            del self.orders[order_id]
            level.order_count -= 1
        if level.total_quantity == 0:
            del ladder[order.price]
        return BookEvent(
            kind, order.side, timestamp_ns, tick, quantity,
            level_quantity_before=before if kind is EventKind.CANCEL else None)

    def apply(self, msg: MarketMessage) -> list[BookEvent]:
        """Apply one message and return the ladder events it caused.

        Add yields a LimitArrival; Cancel/Delete yield a CancelEvent
        (Delete cancels the full remainder); Execute yields an
        ExecutionEvent; Replace yields the cancel of the old order
        followed by the arrival of the new one.  Event ticks are measured
        against the book as it stood before the mutation.
        """
        kind = msg.kind
        if kind is MessageKind.ADD:
            return [self._insert(msg.order_id, msg.side, msg.price,
                                 msg.quantity, msg.timestamp_ns)]
        if kind is MessageKind.CANCEL:
            return [self._remove(msg.order_id, msg.quantity, msg.timestamp_ns,
                                 EventKind.CANCEL)]
        if kind is MessageKind.DELETE:
            order = self.orders.get(msg.order_id)
            if order is None:
                raise UnknownOrderId(f"order {msg.order_id}")
            return [self._remove(msg.order_id, order.remaining,
                                 msg.timestamp_ns, EventKind.CANCEL)]
        if kind is MessageKind.EXECUTE:
            return [self._remove(msg.order_id, msg.quantity, msg.timestamp_ns,
                                 EventKind.EXECUTION)]
        if kind is MessageKind.REPLACE:
            order = self.orders.get(msg.order_id)
            if order is None:
                raise UnknownOrderId(f"order {msg.order_id}")
            side = order.side
            cancel = self._remove(msg.order_id, order.remaining,
                                  msg.timestamp_ns, EventKind.CANCEL)
            arrival = self._insert(msg.new_order_id, side, msg.price,
                                   msg.quantity, msg.timestamp_ns)
            return [cancel, arrival]
        raise ValueError(f"unhandled message kind {kind!r}")


def write_events_csv(path, events) -> None:
    """Event log export: one row per event, cancels carry the level size."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["kind", "side", "timestamp_ns", "tick",
                         "quantity", "level_quantity_before"])
        for ev in events:
            writer.writerow([
                ev.kind.value,
                ev.side.name.lower(),
                ev.timestamp_ns,
                ev.tick,
                ev.quantity,
                "" if ev.level_quantity_before is None
                else ev.level_quantity_before,
            ])
