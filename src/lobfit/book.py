"""Price-level order book reconstruction.

The book is a passive accounting structure: it applies the decoded
message stream and reports, for every mutation, where in the ladder it
happened.  There is no matching engine; an Add whose price crosses the
opposite side is still inserted, and its arrival event is clamped to
tick 1 (such orders trade immediately in the venue this format mirrors,
so they belong at the touch in arrival statistics).  The ladders keep
only the resting quantity at each price: that quantity before a cancel
is the denominator of the cancellation ratio.

Tick distance is 1-based.  With tick size T and the same-side
convention, a buy at ``best_bid`` is tick 1 and each T below adds one;
sells mirror against ``best_ask``.  The opposite-side convention
measures buys against ``best_ask`` (a buy one T below the ask is
tick 1) and sells against ``best_bid``.  Distances that come out below
1 clamp to 1, and a reference side with no resting orders puts the
price at tick 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

from lobfit.errors import DuplicateOrderId, OverCancel, UnknownOrderId
from lobfit.feed import MarketMessage, MessageKind, Side

__all__ = [
    "TickReference",
    "EventKind",
    "BookEvent",
    "RestingOrder",
    "OrderBook",
]


class TickReference(Enum):
    SAME_SIDE = "same"
    OPPOSITE_SIDE = "opposite"


class EventKind(Enum):
    LIMIT_ARRIVAL = "limit_arrival"
    CANCEL = "cancel"
    EXECUTION = "execution"


class BookEvent(NamedTuple):
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


_BUY = Side.BUY
_SELL = Side.SELL
_ARRIVAL = EventKind.LIMIT_ARRIVAL
_CANCEL = EventKind.CANCEL
_EXECUTION = EventKind.EXECUTION
_ADD_MSG = MessageKind.ADD
_CANCEL_MSG = MessageKind.CANCEL
_DELETE_MSG = MessageKind.DELETE
_EXECUTE_MSG = MessageKind.EXECUTE
_REPLACE_MSG = MessageKind.REPLACE


class OrderBook:
    """Mutable book: two price ladders plus an order-id index.

    ``bids`` and ``asks`` map price to the total quantity resting there
    and ``orders`` maps order id to its resting state.  All three are
    read-only to callers: the book caches its best bid and ask and
    updates them only as ``apply`` mutates the ladders.
    """

    def __init__(self, tick_size: int = 1,
                 reference: TickReference | str = TickReference.SAME_SIDE):
        if tick_size < 1:
            raise ValueError("tick_size must be a positive price increment")
        self.tick_size = tick_size
        self.reference = TickReference(reference)
        self.bids: dict[int, int] = {}
        self.asks: dict[int, int] = {}
        self.orders: dict[int, RestingOrder] = {}
        self._bid: int | None = None
        self._ask: int | None = None
        # same side: tick = gap // T + 1; opposite side: tick = gap // T
        self._same = self.reference is TickReference.SAME_SIDE
        self._shift = tick_size if self._same else 0

    @property
    def best_bid(self) -> int | None:
        return self._bid

    @property
    def best_ask(self) -> int | None:
        return self._ask

    def tick_distance(self, side: Side, price: int) -> int:
        """1-based distance of ``price`` from the configured reference.

        An empty reference side gives tick 1, as it does for events.
        A plain int side is read as its ``Side``.
        """
        if side is _BUY:
            ref = self._bid if self._same else self._ask
            if ref is None:
                return 1
            gap = ref - price
        elif side is _SELL:
            ref = self._ask if self._same else self._bid
            if ref is None:
                return 1
            gap = price - ref
        else:
            return self.tick_distance(Side(side), price)
        tick = (gap + self._shift) // self.tick_size
        return tick if tick >= 1 else 1

    def _insert(self, order_id: int, side: Side, price: int, quantity: int,
                timestamp_ns: int) -> BookEvent:
        orders = self.orders
        if order_id in orders:
            raise DuplicateOrderId(f"order {order_id} already resting")
        # measured before the insert moves the best
        tick = self.tick_distance(side, price)
        if side is _BUY:
            ladder = self.bids
            if self._bid is None or price > self._bid:
                self._bid = price
        else:
            ladder = self.asks
            if self._ask is None or price < self._ask:
                self._ask = price
        ladder[price] = ladder.get(price, 0) + quantity
        orders[order_id] = RestingOrder(side, price, quantity)
        return BookEvent(_ARRIVAL, side, timestamp_ns, tick, quantity)

    def _remove(self, order_id: int, order: RestingOrder, quantity: int,
                timestamp_ns: int, kind: EventKind) -> BookEvent:
        if quantity > order.remaining:
            raise OverCancel(
                f"order {order_id}: {quantity} exceeds remaining "
                f"{order.remaining}")
        side = order.side
        price = order.price
        tick = self.tick_distance(side, price)
        ladder = self.bids if side is _BUY else self.asks
        before = ladder[price]
        order.remaining -= quantity
        if order.remaining == 0:
            del self.orders[order_id]
        if before == quantity:
            del ladder[price]
            # only emptying the best level moves the cached best price
            if side is _BUY:
                if price == self._bid:
                    self._bid = max(ladder) if ladder else None
            elif price == self._ask:
                self._ask = min(ladder) if ladder else None
        else:
            ladder[price] = before - quantity
        return BookEvent(kind, side, timestamp_ns, tick, quantity,
                         before if kind is _CANCEL else None)

    def _resting(self, order_id: int) -> RestingOrder:
        order = self.orders.get(order_id)
        if order is None:
            raise UnknownOrderId(f"order {order_id}")
        return order

    def apply(self, msg: MarketMessage) -> list[BookEvent]:
        """Apply one message and return the ladder events it caused.

        Add yields a LimitArrival; Cancel/Delete yield a CancelEvent
        (Delete cancels the full remainder); Execute yields an
        ExecutionEvent; Replace yields the cancel of the old order
        followed by the arrival of the new one.  Event ticks are measured
        against the book as it stood before the mutation.
        """
        kind = msg.kind
        if kind is _ADD_MSG:
            return [self._insert(msg.order_id, msg.side, msg.price,
                                 msg.quantity, msg.timestamp_ns)]
        if kind is _CANCEL_MSG:
            order = self._resting(msg.order_id)
            return [self._remove(msg.order_id, order, msg.quantity,
                                 msg.timestamp_ns, _CANCEL)]
        if kind is _DELETE_MSG:
            order = self._resting(msg.order_id)
            return [self._remove(msg.order_id, order, order.remaining,
                                 msg.timestamp_ns, _CANCEL)]
        if kind is _EXECUTE_MSG:
            order = self._resting(msg.order_id)
            return [self._remove(msg.order_id, order, msg.quantity,
                                 msg.timestamp_ns, _EXECUTION)]
        if kind is _REPLACE_MSG:
            order = self._resting(msg.order_id)
            cancel = self._remove(msg.order_id, order, order.remaining,
                                  msg.timestamp_ns, _CANCEL)
            arrival = self._insert(msg.new_order_id, order.side, msg.price,
                                   msg.quantity, msg.timestamp_ns)
            return [cancel, arrival]
        raise ValueError(f"unhandled message kind {kind!r}")
