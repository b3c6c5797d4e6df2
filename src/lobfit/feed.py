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
numbers are contiguous; ``rates.tally_stream`` enforces both.
Sessions are independent, and ``session_runs`` finds where each one's
frames lie without decoding a message, so they can be decoded apart.
It stops at the first fault it meets and returns that fault, with the
buffer and the offset it lies at, and the runs before it, so errors
can still be reported in stream order and say where they are.

One message decoder serves every reader.  It reads the length and
kind bytes in place, unpacks the body straight from the buffer, and
checks only what the fixed-width layout leaves open: the declared
length against the kind, the kind byte, the side byte, and zero prices
and quantities.  It yields each message as a ``(kind, body)`` pair of
the kind and its body fields' tuple, and ``frame_at`` decodes a whole
frame into such pairs.  ``frame_at`` is the decoder of the hot loop,
``rates.tally_stream``, which replays from these pairs.

The encoder has one packer per kind, which writes a whole message
(length byte, kind byte and body) from the body fields.  A writer that
proves its ranges once, as ``synth`` does on its spec against
``MAX_PRICE`` and ``MAX_ORDER_ID``, calls the packers ``pack_add``,
``pack_cancel`` and ``pack_delete`` directly.  ``session_framer``
frames one session's packed messages as they come: each frame reaches
the writer as soon as it holds its 1000 messages, and the session's
last, short frame when the session ends, so a writer holds one frame,
not the stream.  These trust their caller: a field too wide for its
slot raises ``struct.error``, and a zero price or quantity, a side code
other than 0 or 1, or an out-of-order timestamp is written as given.

The object-level codec over the same decoder and packers, the
``MarketMessage`` and ``LobfFrame`` objects and ``encode_message``,
``decode_message``, ``encode_frame``, ``decode_frame``,
``iter_frames``, ``iter_stream``, ``build_frames`` and ``read_lobf``,
lives in ``lobfit.book`` with the rest of the reference model, which
no command runs.  Those names still resolve here: reading one loads
``lobfit.book``.
"""

from __future__ import annotations

import itertools
import struct
from enum import IntEnum
from functools import partial
from typing import Callable, Iterable

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
    "pack_add",
    "pack_cancel",
    "pack_delete",
    "session_framer",
    "MAX_PRICE",
    "MAX_ORDER_ID",
    "frame_at",
    "session_runs",
]

# the object-level API, which lives in lobfit.book (see the module
# docstring); __getattr__ forwards these names there
_MOVED = ("MarketMessage", "LobfFrame", "encode_message", "decode_message",
          "encode_frame", "decode_frame", "iter_frames", "iter_stream",
          "build_frames", "read_lobf")

MAGIC = b"LOBF"

_HEADER = struct.Struct(">4sIQH")

# messages per frame written by session_framer and book.build_frames
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


# kind -> the layout of its body fields, in wire order
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
MAX_PRICE = 2**32 - 1
MAX_ORDER_ID = 2**64 - 1

_ADD = MessageKind.ADD
_DELETE = MessageKind.DELETE
_REPLACE = MessageKind.REPLACE


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
    ``end`` the offset after the frame.  Every check of
    ``book.iter_frames`` is made, with the same error, and a format
    error anywhere in the frame is raised before any message of it is
    returned.
    """
    session_id, sequence, count = _header_at(data, offset)
    messages, end = _messages_at(data, offset + _HEADER.size, count)
    return session_id, sequence, messages, end


def session_framer(session_id: int,
                   write: Callable[[bytes], object]) -> Callable[..., None]:
    """Frame one session's packed messages as they come, for ``write``.

    Returns ``flush(packed, last=False)``.  A call frames the whole
    frames at the head of the list ``packed``, hands them to ``write``
    in one call and deletes them from ``packed``; with ``last`` it
    frames the rest as well, as the session's last, short frame.
    Frames are cut every ``_FRAME_MESSAGES`` messages from the session's
    first, and each frame's sequence number is the session index of its
    first message, so any flush points give the same bytes: the frames
    ``book.build_frames`` cuts by default, encoded in order.  The messages and ``session_id`` are trusted, as
    the packers trust their fields.
    """
    sequence = 0

    def flush(packed: list, last: bool = False) -> None:
        nonlocal sequence
        size = len(packed)
        if not last:
            size -= size % _FRAME_MESSAGES
        if not size:
            return
        parts = []
        for start in range(0, size, _FRAME_MESSAGES):
            chunk = packed[start:start + _FRAME_MESSAGES]
            parts.append(_HEADER.pack(MAGIC, session_id, sequence + start,
                                      len(chunk)))
            parts.extend(chunk)
        del packed[:size]
        sequence += size
        write(b"".join(parts))

    return flush


def _frame_end(data, offset: int) -> tuple[int, int]:
    """The session id and the end of the frame at ``data[offset]``,
    from its header and its messages' length bytes alone."""
    session_id, _, count = _header_at(data, offset)
    offset += _HEADER.size
    try:
        for _ in range(count):
            offset += data[offset] + 1
    except IndexError:
        raise TruncatedFrame(
            "frame ends before declared message count") from None
    if offset > len(data):
        raise TruncatedFrame("last message runs past the buffer")
    return session_id, offset


def _fault_at(data, offset: int, fault: FormatError) -> FormatError:
    """The error a replay in stream order meets at the frame at
    ``data[offset]``: ``frame_at``'s, or ``fault`` if the frame decodes."""
    try:
        frame_at(data, offset)
    except FormatError as exc:
        return exc
    return fault


def session_runs(blobs: Iterable) -> tuple[list, tuple | None]:
    """Split a stream held in several buffers into one run per session.

    ``blobs`` are the stream's files in order, as buffers, taken one at
    a time.  Only frame headers and message length bytes are read.  A
    run lists the spans ``(blob index, start, stop)`` of one session's
    frames, one span per buffer the session has frames in, and
    decoding a run's spans with ``book.iter_frames`` yields the
    session's frames.

    Returns the runs in stream order and the fault the split stopped
    at, or None; nothing is raised.  A fault is the triple ``(blob
    index, offset, error)``: where the faulty frame starts, and its
    error.  The error at a frame is the one ``frame_at`` raises there,
    or, if the frame decodes, that of a session id that recurs after
    another session, as ``book.iter_stream`` raises it.  A header cut
    short, a frame whose messages run past the end of its buffer, a
    bad magic and a recurring session are such faults.  A buffer that
    cannot be read, whose iterator raises ``OSError`` or
    ``ValueError``, is a fault at its offset 0.  The runs hold every frame before the fault, the
    interrupted session's as one last run.  A frame the split passes
    may still fail to decode, but it lies before the fault, so a replay
    of the runs in stream order and then the fault meets the errors a
    replay of the stream meets, in the same order.
    """
    runs: list[list[tuple[int, int, int]]] = []
    current: int | None = None
    seen: set[int] = set()
    buffers = iter(blobs)
    for index in itertools.count():
        try:
            data = next(buffers)
        except StopIteration:
            return runs, None
        except (OSError, ValueError) as exc:
            return runs, (index, 0, exc)
        size = len(data)
        offset = start = 0
        while offset < size:
            try:
                session_id, end = _frame_end(data, offset)
                if session_id != current and session_id in seen:
                    raise FormatError(
                        f"session {session_id} split across the stream")
            except FormatError as exc:
                if offset > start:
                    runs[-1].append((index, start, offset))
                return runs, (index, offset, _fault_at(data, offset, exc))
            if session_id != current:
                seen.add(session_id)
                current = session_id
                if offset > start:
                    runs[-1].append((index, start, offset))
                start = offset
                runs.append([])
            offset = end
        if offset > start:
            runs[-1].append((index, start, offset))
        del data  # one buffer held at a time


def __getattr__(name):
    if name in _MOVED:
        from lobfit import book
        return getattr(book, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
