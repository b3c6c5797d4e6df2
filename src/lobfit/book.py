"""The object-level reference model: messages, frames, book and tally.

No command runs this module.  ``lobfit rates`` replays with
``rates.tally_stream``, which goes from wire bytes to tallies in one
loop, and ``lobfit synth`` tallies its truth straight into the session
cubes.  This module spells out, one object per step, what those fast
paths must do, and the tests hold them to it:

* ``MarketMessage`` and ``LobfFrame`` are the decoded message and
  frame.  ``encode_message``, ``decode_message``, ``encode_frame``,
  ``decode_frame``, ``iter_frames``, ``build_frames`` and ``read_lobf``
  convert them to and from LOBF bytes (see ``feed`` for the format)
  through ``feed``'s one message decoder and its packers, and
  ``iter_stream`` checks a session's sequence numbers and timestamps;
* ``OrderBook`` applies one ``MarketMessage`` per call and returns the
  ``BookEvent`` objects of the ladder mutations it caused;
* ``accumulate_event`` tallies one ``BookEvent`` into a
  ``rates.TallyStore``.

So ``iter_frames -> iter_stream -> OrderBook.apply -> accumulate_event``
is the chain ``rates.tally_stream`` must tally as, and raise as.  The
code is kept plain on purpose, as the specification: it caches nothing
(the best bid is ``max(bids)``, the best ask ``min(asks)``), and speed
belongs in the fast paths.  These names lived in ``feed`` and ``rates``
before; they still resolve there, and load this module on first use.

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

import datetime as dt
from dataclasses import dataclass
from enum import Enum
from itertools import starmap
from typing import Iterable, Iterator, NamedTuple

from lobfit.errors import (DuplicateOrderId, FormatError, LengthMismatch,
                           OverCancel, UnknownMessageKind, UnknownOrderId,
                           ZeroPrice, ZeroQuantity)
from lobfit.feed import (_FRAME_MESSAGES, _HEADER, _PACK, MAGIC, MessageKind,
                         _messages_at, frame_at)
from lobfit.rates import (_HOUR_SLOT, ARRIVAL_TICKS, CANCEL_TICKS,
                          HOUR_SLOTS, NS_PER_HOUR, Side, TallyStore,
                          TickReference)

__all__ = [
    "TickReference",
    "MarketMessage",
    "LobfFrame",
    "encode_message",
    "decode_message",
    "encode_frame",
    "decode_frame",
    "iter_frames",
    "iter_stream",
    "build_frames",
    "read_lobf",
    "EventKind",
    "BookEvent",
    "RestingOrder",
    "OrderBook",
    "accumulate_event",
]

_U64_MAX = 2**64 - 1
_U32_MAX = 2**32 - 1

# kind -> the MarketMessage fields of its body, in wire order; both
# directions of the codec read it
_FIELDS = {
    MessageKind.ADD: ("timestamp_ns", "order_id", "side", "price",
                      "quantity"),
    MessageKind.CANCEL: ("timestamp_ns", "order_id", "quantity"),
    MessageKind.DELETE: ("timestamp_ns", "order_id"),
    MessageKind.EXECUTE: ("timestamp_ns", "order_id", "quantity"),
    MessageKind.REPLACE: ("timestamp_ns", "order_id", "new_order_id",
                          "price", "quantity"),
}


def _check_range(name: str, value: int, limit: int) -> None:
    if not 0 <= value <= limit:
        raise ValueError(f"{name} {value} out of range")


# --- messages and frames ---

@dataclass(frozen=True, slots=True)
class MarketMessage:
    """One decoded message.  Fields not carried by the kind are None."""

    kind: MessageKind
    timestamp_ns: int
    order_id: int
    side: Side | None = None
    price: int | None = None
    quantity: int | None = None
    new_order_id: int | None = None

    def __post_init__(self) -> None:
        _check_range("timestamp_ns", self.timestamp_ns, _U64_MAX)
        _check_range("order_id", self.order_id, _U64_MAX)
        kind = self.kind
        if type(kind) is not MessageKind:
            # the book tests kinds by identity, so a plain int code must
            # become a MessageKind
            try:
                kind = MessageKind(kind)
            except ValueError:
                raise UnknownMessageKind(f"kind {kind!r}") from None
            object.__setattr__(self, "kind", kind)
        if kind is MessageKind.ADD:
            if self.side is None or self.price is None or self.quantity is None:
                raise ValueError("add requires side, price and quantity")
            if type(self.side) is not Side:
                # the book tests sides by identity, so a plain int must
                # become a Side; a value that names no side raises
                object.__setattr__(self, "side", Side(self.side))
            if self.new_order_id is not None:
                raise ValueError("add carries no new_order_id")
        elif kind in (MessageKind.CANCEL, MessageKind.EXECUTE):
            if self.quantity is None:
                raise ValueError(f"{kind.name.lower()} requires quantity")
            if self.side is not None or self.price is not None \
                    or self.new_order_id is not None:
                raise ValueError(f"{kind.name.lower()} carries only quantity")
        elif kind is MessageKind.DELETE:
            if (self.side, self.price, self.quantity, self.new_order_id) \
                    != (None, None, None, None):
                raise ValueError("delete carries no extra fields")
        else:  # replace
            if self.new_order_id is None or self.price is None \
                    or self.quantity is None:
                raise ValueError("replace requires new_order_id, price, quantity")
            if self.side is not None:
                raise ValueError("replace carries no side")
            _check_range("new_order_id", self.new_order_id, _U64_MAX)
        if self.price is not None:
            _check_range("price", self.price, _U32_MAX)
            if self.price == 0:
                raise ZeroPrice(f"{kind.name.lower()} price must be positive")
        if self.quantity is not None:
            _check_range("quantity", self.quantity, _U32_MAX)
            if self.quantity == 0:
                raise ZeroQuantity(f"{kind.name.lower()} quantity must be positive")

    # --- constructors ---

    @classmethod
    def add(cls, timestamp_ns: int, order_id: int, side: Side,
            price: int, quantity: int) -> "MarketMessage":
        return cls(MessageKind.ADD, timestamp_ns, order_id,
                   side=side, price=price, quantity=quantity)

    @classmethod
    def cancel(cls, timestamp_ns: int, order_id: int,
               quantity: int) -> "MarketMessage":
        return cls(MessageKind.CANCEL, timestamp_ns, order_id,
                   quantity=quantity)

    @classmethod
    def delete(cls, timestamp_ns: int, order_id: int) -> "MarketMessage":
        return cls(MessageKind.DELETE, timestamp_ns, order_id)

    @classmethod
    def execute(cls, timestamp_ns: int, order_id: int,
                quantity: int) -> "MarketMessage":
        return cls(MessageKind.EXECUTE, timestamp_ns, order_id,
                   quantity=quantity)

    @classmethod
    def replace(cls, timestamp_ns: int, order_id: int, new_order_id: int,
                price: int, quantity: int) -> "MarketMessage":
        return cls(MessageKind.REPLACE, timestamp_ns, order_id,
                   new_order_id=new_order_id, price=price, quantity=quantity)


@dataclass(frozen=True, slots=True)
class LobfFrame:
    """One frame: header fields plus decoded messages."""

    session_id: int
    sequence_number: int
    messages: tuple[MarketMessage, ...]

    def __post_init__(self) -> None:
        _check_range("session_id", self.session_id, _U32_MAX)
        _check_range("sequence_number", self.sequence_number, _U64_MAX)
        if len(self.messages) > 0xFFFF:
            raise ValueError("frame holds at most 65535 messages")


def encode_message(msg: MarketMessage) -> bytes:
    """Serialize one message as length byte + kind byte + body."""
    kind = msg.kind
    try:
        pack = _PACK[kind]
    except KeyError:
        raise ValueError(f"kind {kind!r} has no wire layout") from None
    return pack(*[getattr(msg, name) for name in _FIELDS[kind]])


def _message(kind: MessageKind, body: tuple) -> MarketMessage:
    return MarketMessage(kind, **dict(zip(_FIELDS[kind], body)))


def decode_message(data: bytes) -> MarketMessage:
    """Decode exactly one length-prefixed message from ``data``.

    The buffer must hold the message and nothing else; a short or
    oversized buffer raises LengthMismatch.
    """
    if len(data) < 2:
        raise LengthMismatch(f"message buffer of {len(data)} bytes")
    declared = data[0]
    if len(data) != 1 + declared:
        raise LengthMismatch(
            f"length prefix {declared} but {len(data) - 1} bytes follow")
    ((kind, body),), _ = _messages_at(data, 0, 1)
    return _message(kind, body)


def encode_frame(frame: LobfFrame) -> bytes:
    """Serialize header plus all messages."""
    parts = [_HEADER.pack(MAGIC, frame.session_id, frame.sequence_number,
                          len(frame.messages))]
    parts.extend(map(encode_message, frame.messages))
    return b"".join(parts)


def _decode_frame_at(data: bytes, offset: int) -> tuple[LobfFrame, int]:
    session_id, sequence, messages, offset = frame_at(data, offset)
    messages = tuple(starmap(_message, messages))
    return LobfFrame(session_id, sequence, messages), offset


def decode_frame(data: bytes) -> LobfFrame:
    """Decode one frame from the start of ``data``.

    Consumes exactly the lengths the header and message prefixes
    declare; trailing bytes are ignored (see iter_frames for streams).
    """
    frame, _ = _decode_frame_at(data, 0)
    return frame


def iter_frames(data: bytes) -> Iterator[LobfFrame]:
    """Yield consecutive frames until the buffer is exhausted."""
    offset = 0
    while offset < len(data):
        frame, offset = _decode_frame_at(data, offset)
        yield frame


def iter_stream(frames: Iterable[LobfFrame]) -> Iterator[tuple[int, MarketMessage]]:
    """Yield (session_id, message) pairs, validating stream invariants.

    Within each session, frame sequence numbers must be contiguous
    message indices and timestamps must be non-decreasing.  A session
    ends when a frame with a different session_id appears; session ids
    must not recur later in the stream.
    """
    current_session: int | None = None
    next_sequence = 0
    last_ts = 0
    seen: set[int] = set()
    for frame in frames:
        if frame.session_id != current_session:
            if frame.session_id in seen:
                raise FormatError(
                    f"session {frame.session_id} split across the stream")
            seen.add(frame.session_id)
            current_session = frame.session_id
            next_sequence = 0
            last_ts = 0
        if frame.sequence_number != next_sequence:
            raise FormatError(
                f"session {frame.session_id}: frame sequence "
                f"{frame.sequence_number}, expected {next_sequence}")
        for msg in frame.messages:
            if msg.timestamp_ns < last_ts:
                raise FormatError(
                    f"session {frame.session_id}: timestamp went backwards "
                    f"({msg.timestamp_ns} after {last_ts})")
            last_ts = msg.timestamp_ns
            yield frame.session_id, msg
        next_sequence += len(frame.messages)


def build_frames(session_id: int, messages: Iterable[MarketMessage],
                 max_per_frame: int = _FRAME_MESSAGES) -> list[LobfFrame]:
    """Chunk one session's messages into frames with contiguous sequences."""
    if not 1 <= max_per_frame <= 0xFFFF:
        raise ValueError("max_per_frame must be in 1..65535")
    msgs = list(messages)
    frames = []
    for start in range(0, len(msgs), max_per_frame):
        chunk = tuple(msgs[start:start + max_per_frame])
        frames.append(LobfFrame(session_id, start, chunk))
    return frames


def read_lobf(path) -> Iterator[LobfFrame]:
    with open(path, "rb") as fh:
        data = fh.read()
    return iter_frames(data)


# --- the book ---

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


class OrderBook:
    """Mutable book: two price ladders plus an order-id index.

    ``bids`` and ``asks`` map price to the total quantity resting there
    and ``orders`` maps order id to its resting state.  All three are
    read-only to callers; only ``apply`` mutates them.
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

    @property
    def best_bid(self) -> int | None:
        return max(self.bids) if self.bids else None

    @property
    def best_ask(self) -> int | None:
        return min(self.asks) if self.asks else None

    def tick_distance(self, side: Side, price: int) -> int:
        """1-based distance of ``price`` from the configured reference.

        An empty reference side gives tick 1, as it does for events.
        A plain int side is read as its ``Side``.
        """
        same = self.reference is TickReference.SAME_SIDE
        if Side(side) is Side.BUY:
            ref = self.best_bid if same else self.best_ask
            if ref is None:
                return 1
            gap = ref - price
        else:
            ref = self.best_ask if same else self.best_bid
            if ref is None:
                return 1
            gap = price - ref
        # same side: tick = gap // T + 1; opposite side: tick = gap // T
        tick = gap // self.tick_size + (1 if same else 0)
        return max(tick, 1)

    def _insert(self, order_id: int, side: Side, price: int, quantity: int,
                timestamp_ns: int) -> BookEvent:
        if order_id in self.orders:
            raise DuplicateOrderId(f"order {order_id} already resting")
        # measured before the insert moves the best
        tick = self.tick_distance(side, price)
        ladder = self.bids if side is Side.BUY else self.asks
        ladder[price] = ladder.get(price, 0) + quantity
        self.orders[order_id] = RestingOrder(side, price, quantity)
        return BookEvent(EventKind.LIMIT_ARRIVAL, side, timestamp_ns, tick,
                         quantity)

    def _remove(self, order_id: int, order: RestingOrder, quantity: int,
                timestamp_ns: int, kind: EventKind) -> BookEvent:
        if quantity > order.remaining:
            raise OverCancel(
                f"order {order_id}: {quantity} exceeds remaining "
                f"{order.remaining}")
        side = order.side
        price = order.price
        tick = self.tick_distance(side, price)
        ladder = self.bids if side is Side.BUY else self.asks
        before = ladder[price]
        order.remaining -= quantity
        if order.remaining == 0:
            del self.orders[order_id]
        if before == quantity:
            del ladder[price]
        else:
            ladder[price] = before - quantity
        return BookEvent(kind, side, timestamp_ns, tick, quantity,
                         before if kind is EventKind.CANCEL else None)

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
        if kind is MessageKind.ADD:
            return [self._insert(msg.order_id, msg.side, msg.price,
                                 msg.quantity, msg.timestamp_ns)]
        if kind is MessageKind.CANCEL:
            order = self._resting(msg.order_id)
            return [self._remove(msg.order_id, order, msg.quantity,
                                 msg.timestamp_ns, EventKind.CANCEL)]
        if kind is MessageKind.DELETE:
            order = self._resting(msg.order_id)
            return [self._remove(msg.order_id, order, order.remaining,
                                 msg.timestamp_ns, EventKind.CANCEL)]
        if kind is MessageKind.EXECUTE:
            order = self._resting(msg.order_id)
            return [self._remove(msg.order_id, order, msg.quantity,
                                 msg.timestamp_ns, EventKind.EXECUTION)]
        if kind is MessageKind.REPLACE:
            order = self._resting(msg.order_id)
            cancel = self._remove(msg.order_id, order, order.remaining,
                                  msg.timestamp_ns, EventKind.CANCEL)
            arrival = self._insert(msg.new_order_id, order.side, msg.price,
                                   msg.quantity, msg.timestamp_ns)
            return [cancel, arrival]
        raise ValueError(f"unhandled message kind {kind!r}")


# --- the tally ---

def accumulate_event(store: TallyStore, event: BookEvent,
                     session_date: dt.date) -> bool:
    """Tally one event into its session's cube in ``store``.

    Events outside trading hours are skipped and counted (the stream
    may open with book seeding before 10:00).  Arrivals beyond tick 15
    and cancels beyond tick 10 are not binned; each bumps the matching
    dropped counter once.  Executions are not tallied.  Returns True if
    the event was tallied or dropped.
    """
    kind = event.kind
    if kind is EventKind.EXECUTION:
        return False
    hour = event.timestamp_ns // NS_PER_HOUR
    slot = _HOUR_SLOT[hour] if 0 <= hour < 24 else 0
    if not slot:
        store.out_of_hours += 1
        return False
    cube = store.session_cube(session_date)
    row = event.side * HOUR_SLOTS + slot - 1
    tick = event.tick
    if kind is EventKind.LIMIT_ARRIVAL:
        if tick > ARRIVAL_TICKS:
            store.dropped_arrivals += 1
        else:
            cube.quantity[row * ARRIVAL_TICKS + tick - 1] += event.quantity
    elif kind is EventKind.CANCEL:
        if tick > CANCEL_TICKS:
            store.dropped_cancels += 1
        else:
            i = row * CANCEL_TICKS + tick - 1
            cube.ratio_sum[i] += event.quantity / event.level_quantity_before
            cube.count[i] += 1
    return True
