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
numbers are contiguous; ``iter_stream`` enforces both, as does
``rates.tally_stream``.  Sessions are independent, and ``session_runs``
finds where each one's frames lie without decoding a message, so they
can be decoded apart.

Frames and ``decode_message`` share one message decoder.  It reads
the length and kind bytes in place, unpacks the body straight from the
buffer, and checks only what the fixed-width layout leaves open: the
declared length against the kind, the kind byte, the side byte, and
zero prices and quantities.  It yields each message as a ``(kind,
body)`` pair of the kind and its body fields' tuple, and ``frame_at``
decodes a whole frame into such pairs.  ``frame_at`` is the decoder of
the hot loop, ``rates.tally_stream``, which replays from these pairs.
``iter_frames``, ``decode_frame``, ``decode_message`` and
``iter_stream`` are the object-level API over the same decoder: they
build ``MarketMessage`` and ``LobfFrame`` objects through their public
constructors, for callers that want objects and as the reference the
replay loop is tested against.  That API is kept plain on purpose, as
the specification; speed belongs in ``frame_at`` and
``rates.tally_stream``.  One table, ``_FIELDS``, names each kind's
``MarketMessage`` fields in wire order, and both directions read it.

The encoder has one packer per kind, which writes a whole message
(length byte, kind byte and body) from the body fields.
``encode_message`` calls it with the fields of a ``MarketMessage``,
whose constructor has checked them.  A writer that proves its ranges
once, as ``synth`` does on its spec against ``MAX_PRICE`` and
``MAX_ORDER_ID``, calls the packers ``pack_add``, ``pack_cancel`` and
``pack_delete`` directly and frames one session's packed messages with
``encode_session``.  These trust their caller: a field too wide for
its slot raises ``struct.error``, and a zero price or quantity, a side
code other than 0 or 1, or an out-of-order timestamp is written as
given.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from enum import IntEnum
from functools import partial
from itertools import starmap
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
    "pack_add",
    "pack_cancel",
    "pack_delete",
    "encode_session",
    "MAX_PRICE",
    "MAX_ORDER_ID",
    "decode_message",
    "frame_at",
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

# messages per frame written by build_frames and encode_session
_FRAME_MESSAGES = 1000


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


# kind -> the MarketMessage fields of its body, in wire order
_FIELDS = {
    MessageKind.ADD: ("timestamp_ns", "order_id", "side", "price",
                      "quantity"),
    MessageKind.CANCEL: ("timestamp_ns", "order_id", "quantity"),
    MessageKind.DELETE: ("timestamp_ns", "order_id"),
    MessageKind.EXECUTE: ("timestamp_ns", "order_id", "quantity"),
    MessageKind.REPLACE: ("timestamp_ns", "order_id", "new_order_id",
                          "price", "quantity"),
}
_BODY = {
    MessageKind.ADD: struct.Struct(">QQBII"),
    MessageKind.CANCEL: struct.Struct(">QQI"),
    MessageKind.DELETE: struct.Struct(">QQ"),
    MessageKind.EXECUTE: struct.Struct(">QQI"),
    MessageKind.REPLACE: struct.Struct(">QQQII"),
}

# length prefix covers the kind byte plus the body
_WIRE_LENGTH = {kind: 1 + fmt.size for kind, fmt in _BODY.items()}

# kind byte -> (kind, declared length, body unpacker), indexed by every
# byte value: None for a byte that names no kind
_LAYOUT = tuple(
    (MessageKind(code), _WIRE_LENGTH[code], _BODY[code].unpack_from)
    if code in _BODY else None for code in range(256))

# kind -> packer of the length byte, the kind byte and the body in one
# call, from the body fields alone
_PACK = {kind: partial(struct.Struct(">BB" + fmt.format.lstrip(">")).pack,
                       _WIRE_LENGTH[kind], kind)
         for kind, fmt in _BODY.items()}

# the trusted packers (see the module docstring):
# pack_add(timestamp_ns, order_id, side, price, quantity),
# pack_cancel(timestamp_ns, order_id, quantity) and
# pack_delete(timestamp_ns, order_id)
pack_add = _PACK[MessageKind.ADD]
pack_cancel = _PACK[MessageKind.CANCEL]
pack_delete = _PACK[MessageKind.DELETE]
# the largest price and order id the packers' slots hold
MAX_PRICE = _U32_MAX
MAX_ORDER_ID = _U64_MAX

_ADD = MessageKind.ADD
_DELETE = MessageKind.DELETE
_REPLACE = MessageKind.REPLACE


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


def _layout_error(data: bytes, offset: int) -> FormatError:
    declared = data[offset]
    if declared == 0:
        return LengthMismatch("length prefix 0 leaves no kind byte")
    code = data[offset + 1]
    layout = _LAYOUT[code]
    if layout is None:
        return UnknownMessageKind(f"kind byte 0x{code:02X}")
    kind, length, _ = layout
    return LengthMismatch(f"{kind.name.lower()} declares {declared} bytes, "
                          f"layout requires {length}")


def _body_error(kind: MessageKind, body: tuple) -> FormatError:
    """The error of a body that failed the core's value checks."""
    if kind is _ADD:
        if body[2] > 1:
            return FormatError(f"add side byte {body[2]}")
        if not body[3]:
            return ZeroPrice("add price must be positive")
    elif kind is _REPLACE and not body[3]:
        return ZeroPrice("replace price must be positive")
    return ZeroQuantity(f"{kind.name.lower()} quantity must be positive")


def _messages_at(data, offset: int, count: int) -> tuple[list, int]:
    """Decode ``count`` messages from ``data[offset:]``.

    This is the one message decoder: it returns each message as a
    ``(kind, body)`` pair, ``body`` the tuple of the kind's body fields
    in wire order with the Add side as its code, and the offset after
    the last message.  Nothing is built per message beyond that pair.
    """
    size = len(data)
    out = []
    append = out.append
    layouts = _LAYOUT
    try:
        for _ in range(count):
            # past the end of the buffer, this raises IndexError
            declared = data[offset]
            end = offset + 1 + declared
            if end > size:
                raise TruncatedFrame(f"message needs {end - offset} bytes, "
                                     f"{size - offset} left")
            layout = layouts[data[offset + 1]] if declared else None
            if layout is None or layout[1] != declared:
                raise _layout_error(data, offset)
            kind, _, unpack_from = layout
            body = unpack_from(data, offset + 2)
            if kind is _ADD:
                if body[2] > 1 or not body[3] or not body[4]:
                    raise _body_error(kind, body)
            elif kind is _REPLACE:
                if not body[3] or not body[4]:
                    raise _body_error(kind, body)
            elif kind is not _DELETE and not body[2]:
                raise _body_error(kind, body)
            append((kind, body))
            offset = end
    except IndexError:
        raise TruncatedFrame(
            "frame ends before declared message count") from None
    return out, offset


def _header_at(data, offset: int) -> tuple[int, int, int]:
    """The session id, sequence number and message count of the frame
    header at ``data[offset]``."""
    if len(data) - offset < _HEADER.size:
        raise TruncatedFrame(
            f"{len(data) - offset} bytes left, header needs {_HEADER.size}")
    magic, session_id, sequence, count = _HEADER.unpack_from(data, offset)
    if magic != MAGIC:
        raise BadMagic(f"got {magic!r}")
    return session_id, sequence, count


def frame_at(data, offset: int) -> tuple[int, int, list, int]:
    """Decode the frame that starts at ``data[offset]``.

    Returns ``(session_id, sequence_number, messages, end)``, with the
    messages as ``(kind, body)`` pairs (see ``_messages_at``) and
    ``end`` the offset after the frame.  Every check of ``iter_frames``
    is made, with the same error, and a format error anywhere in the
    frame is raised before any message of it is returned.
    """
    session_id, sequence, count = _header_at(data, offset)
    messages, end = _messages_at(data, offset + _HEADER.size, count)
    return session_id, sequence, messages, end


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


def encode_session(session_id: int, packed: Sequence[bytes]) -> bytes:
    """Frame one session's packed messages, chunked as ``build_frames``
    chunks them by default: each frame's sequence number is the index of
    its first message.  The messages and ``session_id`` are trusted, as
    the packers trust their fields.
    """
    parts = []
    for start in range(0, len(packed), _FRAME_MESSAGES):
        chunk = packed[start:start + _FRAME_MESSAGES]
        parts.append(_HEADER.pack(MAGIC, session_id, start, len(chunk)))
        parts.extend(chunk)
    return b"".join(parts)


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
    for index, data in enumerate(blobs):
        size = len(data)
        offset = start = 0
        while offset < size:
            session_id, _, count = _header_at(data, offset)
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
            offset += _HEADER.size
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
