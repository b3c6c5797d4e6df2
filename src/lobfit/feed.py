"""Binary order-flow codec (LOBF format).

A stream is a sequence of frames.  All integers are big-endian.

Frame header, 18 bytes::

    magic            4B   0x4C4F4246 ("LOBF")
    session_id       4B   u32, one trading session per id
    sequence_number  8B   u64, stream index of the frame's first message
    message_count    2B   u16

The header is followed by ``message_count`` length-prefixed messages::

    length  1B   u8, number of bytes after this one (kind + body)
    kind    1B   one of the codes below
    body         fixed layout per kind

Message bodies:

    ====  =======  ====================================================
    code  kind     body fields
    ====  =======  ====================================================
    0x41  Add      timestamp_ns u64, order_id u64, side u8 (0 buy,
                   1 sell), price u32, quantity u32
    0x58  Cancel   timestamp_ns u64, order_id u64, quantity u32
    0x44  Delete   timestamp_ns u64, order_id u64
    0x45  Execute  timestamp_ns u64, order_id u64, quantity u32
    0x55  Replace  timestamp_ns u64, order_id u64, new_order_id u64,
                   price u32, quantity u32
    ====  =======  ====================================================

Prices are integer price units (price times 100); quantities are share
counts.  Cancel carries the quantity removed (partial cancel); Delete
removes the remainder.  Replace moves the remaining quantity of
``order_id`` to a fresh ``new_order_id`` at a new price and quantity.

Within one session timestamps are non-decreasing and frame sequence
numbers are contiguous; ``iter_stream`` enforces both.  Sessions are
independent, and ``session_runs`` finds where each one's frames lie
without decoding a message, so they can be decoded apart.

Frames and ``decode_message`` share one per-message decoder.  It reads
the length and kind bytes in place, unpacks the body straight from the
buffer, and checks only what the fixed-width layout leaves open: the
declared length against the kind, the kind byte, the side byte, and
zero prices and quantities.  The u32 and u64 ranges hold by
construction, so decoded messages are built without running
``MarketMessage.__post_init__``; only public construction
(``MarketMessage(...)`` and its classmethods) runs every check.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, fields
from enum import IntEnum
from typing import Iterable, Iterator, Sequence

from lobfit.errors import (
    BadMagic,
    FormatError,
    LengthMismatch,
    TruncatedFrame,
    UnknownMessageKind,
    ZeroPrice,
    ZeroQuantity,
)

__all__ = [
    "MAGIC",
    "Side",
    "MessageKind",
    "MarketMessage",
    "LobfFrame",
    "encode_message",
    "decode_message",
    "encode_frame",
    "decode_frame",
    "iter_frames",
    "iter_stream",
    "build_frames",
    "session_runs",
    "read_lobf",
]

MAGIC = b"LOBF"

_HEADER = struct.Struct(">4sIQH")

_U64_MAX = 2**64 - 1
_U32_MAX = 2**32 - 1


class Side(IntEnum):
    BUY = 0
    SELL = 1


class MessageKind(IntEnum):
    """Wire codes for the five message kinds."""

    ADD = 0x41      # 'A'
    CANCEL = 0x58   # 'X'
    DELETE = 0x44   # 'D'
    EXECUTE = 0x45  # 'E'
    REPLACE = 0x55  # 'U'


_BODY = {
    MessageKind.ADD: struct.Struct(">QQBII"),
    MessageKind.CANCEL: struct.Struct(">QQI"),
    MessageKind.DELETE: struct.Struct(">QQ"),
    MessageKind.EXECUTE: struct.Struct(">QQI"),
    MessageKind.REPLACE: struct.Struct(">QQQII"),
}

# length prefix covers the kind byte plus the body
_WIRE_LENGTH = {kind: 1 + fmt.size for kind, fmt in _BODY.items()}

# kind byte -> (kind, declared length, body unpacker)
_LAYOUT = {int(kind): (kind, _WIRE_LENGTH[kind], fmt.unpack_from)
           for kind, fmt in _BODY.items()}

# kind (or its plain-int code) -> (kind, declared length, packer of the
# length byte, the kind byte and the body in one call)
_PACK = {kind: (kind, _WIRE_LENGTH[kind],
                struct.Struct(">BB" + fmt.format.lstrip(">")).pack)
         for kind, fmt in _BODY.items()}

_ADD = MessageKind.ADD
_CANCEL = MessageKind.CANCEL
_EXECUTE = MessageKind.EXECUTE
_REPLACE = MessageKind.REPLACE
_SIDES = (Side.BUY, Side.SELL)


def _check_range(name: str, value: int, limit: int) -> None:
    if not 0 <= value <= limit:
        raise ValueError(f"{name} {value} out of range")


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
        kind = self.kind
        _check_range("timestamp_ns", self.timestamp_ns, _U64_MAX)
        _check_range("order_id", self.order_id, _U64_MAX)
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
        elif kind is MessageKind.REPLACE:
            if self.new_order_id is None or self.price is None \
                    or self.quantity is None:
                raise ValueError("replace requires new_order_id, price, quantity")
            if self.side is not None:
                raise ValueError("replace carries no side")
            _check_range("new_order_id", self.new_order_id, _U64_MAX)
        else:
            raise UnknownMessageKind(f"kind {kind!r}")
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


_new = object.__new__
(_set_kind, _set_timestamp, _set_order_id, _set_side, _set_price,
 _set_quantity, _set_new_order_id) = (
    MarketMessage.__dict__[f.name].__set__ for f in fields(MarketMessage))


def _decoded(kind, timestamp_ns, order_id, side, price, quantity,
             new_order_id) -> MarketMessage:
    # fills the slots directly: the decoder has made the checks that
    # __post_init__ would, and the field widths bound the rest
    msg = _new(MarketMessage)
    _set_kind(msg, kind)
    _set_timestamp(msg, timestamp_ns)
    _set_order_id(msg, order_id)
    _set_side(msg, side)
    _set_price(msg, price)
    _set_quantity(msg, quantity)
    _set_new_order_id(msg, new_order_id)
    return msg


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
    try:
        kind, length, pack = _PACK[msg.kind]
    except KeyError:
        raise ValueError(f"kind {msg.kind!r} has no wire layout") from None
    if kind is _CANCEL or kind is _EXECUTE:
        return pack(length, kind, msg.timestamp_ns, msg.order_id,
                    msg.quantity)
    if kind is _ADD:
        return pack(length, kind, msg.timestamp_ns, msg.order_id,
                    msg.side, msg.price, msg.quantity)
    if kind is _REPLACE:
        return pack(length, kind, msg.timestamp_ns, msg.order_id,
                    msg.new_order_id, msg.price, msg.quantity)
    return pack(length, kind, msg.timestamp_ns, msg.order_id)


def _layout_error(data: bytes, offset: int) -> FormatError:
    declared = data[offset]
    if declared == 0:
        return LengthMismatch("length prefix 0 leaves no kind byte")
    code = data[offset + 1]
    layout = _LAYOUT.get(code)
    if layout is None:
        return UnknownMessageKind(f"kind byte 0x{code:02X}")
    kind, length, _ = layout
    return LengthMismatch(f"{kind.name.lower()} declares {declared} bytes, "
                          f"layout requires {length}")


def _message_at(data: bytes, offset: int) -> MarketMessage:
    """Decode the message whose length prefix is ``data[offset]``.

    The caller has checked that the declared length fits in ``data``.
    """
    declared = data[offset]
    layout = _LAYOUT.get(data[offset + 1]) if declared else None
    if layout is None or layout[1] != declared:
        raise _layout_error(data, offset)
    kind, _, unpack_from = layout
    if kind is _CANCEL or kind is _EXECUTE:
        ts, oid, qty = unpack_from(data, offset + 2)
        if not qty:
            raise ZeroQuantity(
                f"{kind.name.lower()} quantity must be positive")
        return _decoded(kind, ts, oid, None, None, qty, None)
    if kind is _ADD:
        ts, oid, side_code, price, qty = unpack_from(data, offset + 2)
        if side_code > 1:
            raise FormatError(f"add side byte {side_code}")
        if not price:
            raise ZeroPrice("add price must be positive")
        if not qty:
            raise ZeroQuantity("add quantity must be positive")
        return _decoded(kind, ts, oid, _SIDES[side_code], price, qty, None)
    if kind is _REPLACE:
        ts, oid, new_oid, price, qty = unpack_from(data, offset + 2)
        if not price:
            raise ZeroPrice("replace price must be positive")
        if not qty:
            raise ZeroQuantity("replace quantity must be positive")
        return _decoded(kind, ts, oid, None, price, qty, new_oid)
    ts, oid = unpack_from(data, offset + 2)
    return _decoded(kind, ts, oid, None, None, None, None)


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
    return _message_at(data, 0)


def encode_frame(frame: LobfFrame) -> bytes:
    """Serialize header plus all messages."""
    parts = [_HEADER.pack(MAGIC, frame.session_id, frame.sequence_number,
                          len(frame.messages))]
    parts.extend(map(encode_message, frame.messages))
    return b"".join(parts)


def _decode_frame_at(data: bytes, offset: int) -> tuple[LobfFrame, int]:
    if len(data) - offset < _HEADER.size:
        raise TruncatedFrame(
            f"{len(data) - offset} bytes left, header needs {_HEADER.size}")
    magic, session_id, sequence, count = _HEADER.unpack_from(data, offset)
    if magic != MAGIC:
        raise BadMagic(f"got {magic!r}")
    offset += _HEADER.size
    size = len(data)
    messages = []
    append = messages.append
    for _ in range(count):
        if offset >= size:
            raise TruncatedFrame("frame ends before declared message count")
        end = offset + 1 + data[offset]
        if end > size:
            raise TruncatedFrame(
                f"message needs {end - offset} bytes, {size - offset} left")
        append(_message_at(data, offset))
        offset = end
    return LobfFrame(session_id, sequence, tuple(messages)), offset


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
                 max_per_frame: int = 1000) -> list[LobfFrame]:
    """Chunk one session's messages into frames with contiguous sequences."""
    if not 1 <= max_per_frame <= 0xFFFF:
        raise ValueError("max_per_frame must be in 1..65535")
    msgs = list(messages)
    frames = []
    for start in range(0, len(msgs), max_per_frame):
        chunk = tuple(msgs[start:start + max_per_frame])
        frames.append(LobfFrame(session_id, start, chunk))
    return frames


def session_runs(blobs: Sequence[bytes]) -> list[list[tuple[int, int, int]]]:
    """Split a stream held in several buffers into one run per session.

    ``blobs`` are the stream's files in order.  Only frame headers and
    message length bytes are read.  A run lists the spans
    ``(blob index, start, stop)`` of one session's frames, one span per
    buffer the session has frames in; runs come in stream order, and
    decoding a run's spans with ``iter_frames`` yields the session's
    frames.  A header cut short, a frame whose messages run past the end
    of its buffer and a bad magic raise as they do in ``iter_frames``;
    a session id that recurs after another session raises as it does in
    ``iter_stream``.
    """
    runs: list[list[tuple[int, int, int]]] = []
    current: int | None = None
    seen: set[int] = set()
    header = _HEADER.size
    unpack_header = _HEADER.unpack_from
    for index, data in enumerate(blobs):
        size = len(data)
        offset = start = 0
        while offset < size:
            if size - offset < header:
                raise TruncatedFrame(
                    f"{size - offset} bytes left, header needs {header}")
            magic, session_id, _, count = unpack_header(data, offset)
            if magic != MAGIC:
                raise BadMagic(f"got {magic!r}")
            if session_id != current:
                if session_id in seen:
                    raise FormatError(
                        f"session {session_id} split across the stream")
                seen.add(session_id)
                current = session_id
                if offset > start:
                    runs[-1].append((index, start, offset))
                start = offset
                runs.append([])
            offset += header
            try:
                for _ in range(count):
                    offset += data[offset] + 1
            except IndexError:
                raise TruncatedFrame(
                    "frame ends before declared message count") from None
            if offset > size:
                raise TruncatedFrame("last message runs past the buffer")
        if offset > start:
            runs[-1].append((index, start, offset))
    return runs


def read_lobf(path) -> Iterator[LobfFrame]:
    with open(path, "rb") as fh:
        data = fh.read()
    return iter_frames(data)
