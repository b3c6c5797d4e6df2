import random
import struct
from dataclasses import FrozenInstanceError, fields

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lobfit import feed
from lobfit.errors import (
    BadMagic,
    FormatError,
    LengthMismatch,
    TruncatedFrame,
    UnknownMessageKind,
    ZeroPrice,
    ZeroQuantity,
)
from lobfit.feed import LobfFrame, MarketMessage, MessageKind, Side


def random_message(rng: random.Random) -> MarketMessage:
    ts = rng.randrange(2**64)
    oid = rng.randrange(1, 2**64)
    kind = rng.choice(list(MessageKind))
    if kind is MessageKind.ADD:
        return MarketMessage.add(ts, oid, Side(rng.randrange(2)),
                                 rng.randrange(1, 2**32),
                                 rng.randrange(1, 2**32))
    if kind is MessageKind.CANCEL:
        return MarketMessage.cancel(ts, oid, rng.randrange(1, 2**32))
    if kind is MessageKind.DELETE:
        return MarketMessage.delete(ts, oid)
    if kind is MessageKind.EXECUTE:
        return MarketMessage.execute(ts, oid, rng.randrange(1, 2**32))
    return MarketMessage.replace(ts, oid, rng.randrange(1, 2**64),
                                 rng.randrange(1, 2**32),
                                 rng.randrange(1, 2**32))


# --- exact wire layout ---

def test_add_wire_layout():
    msg = MarketMessage.add(0, 1, Side.SELL, 1217, 50)
    data = feed.encode_message(msg)
    assert data == bytes.fromhex(
        "1a41" + "0000000000000000" + "0000000000000001"
        + "01" + "000004c1" + "00000032")
    assert len(data) == 27  # 1 length + 1 kind + 25 body


def test_wire_lengths_per_kind():
    cases = {
        MarketMessage.add(0, 1, Side.BUY, 5, 5): 26,
        MarketMessage.cancel(0, 1, 5): 21,
        MarketMessage.delete(0, 1): 17,
        MarketMessage.execute(0, 1, 5): 21,
        MarketMessage.replace(0, 1, 2, 5, 5): 33,
    }
    for msg, declared in cases.items():
        data = feed.encode_message(msg)
        assert data[0] == declared
        assert len(data) == 1 + declared


def test_kind_codes_are_ascii_mnemonics():
    assert MessageKind.ADD == ord("A")
    assert MessageKind.CANCEL == ord("X")
    assert MessageKind.DELETE == ord("D")
    assert MessageKind.EXECUTE == ord("E")
    assert MessageKind.REPLACE == ord("U")


def test_frame_header_layout():
    frame = LobfFrame(7, 1234, (MarketMessage.delete(9, 8),))
    data = feed.encode_frame(frame)
    assert data[:4] == b"LOBF"
    assert struct.unpack(">I", data[4:8])[0] == 7
    assert struct.unpack(">Q", data[8:16])[0] == 1234
    assert struct.unpack(">H", data[16:18])[0] == 1
    assert len(data) == 18 + 18  # header + delete message


# --- round trips ---

def test_message_round_trip_random():
    rng = random.Random(1)
    for _ in range(2000):
        msg = random_message(rng)
        assert feed.decode_message(feed.encode_message(msg)) == msg


def test_frame_round_trip_random():
    rng = random.Random(2)
    for _ in range(50):
        msgs = tuple(random_message(rng) for _ in range(rng.randrange(0, 40)))
        frame = LobfFrame(rng.randrange(2**32), rng.randrange(2**64), msgs)
        data = feed.encode_frame(frame)
        assert feed.decode_frame(data) == frame
        assert feed.encode_frame(feed.decode_frame(data)) == data


def test_framing_sums_to_payload_length():
    rng = random.Random(3)
    msgs = tuple(random_message(rng) for _ in range(25))
    data = feed.encode_frame(LobfFrame(1, 0, msgs))
    payload = data[18:]
    assert sum(1 + feed.encode_message(m)[0] for m in msgs) == len(payload)


# --- decode errors ---

def test_short_header_is_truncated():
    with pytest.raises(TruncatedFrame):
        feed.decode_frame(b"\x00" * 13)


def test_bad_magic():
    good = feed.encode_frame(LobfFrame(1, 0, ()))
    with pytest.raises(BadMagic):
        feed.decode_frame(b"XXXX" + good[4:])


def test_every_truncation_of_a_valid_frame():
    rng = random.Random(4)
    msgs = tuple(random_message(rng) for _ in range(5))
    data = feed.encode_frame(LobfFrame(1, 0, msgs))
    for cut in range(len(data)):
        with pytest.raises(TruncatedFrame):
            feed.decode_frame(data[:cut])


def test_unknown_kind_byte():
    data = bytearray(feed.encode_message(MarketMessage.delete(0, 1)))
    data[1] = 0x51
    with pytest.raises(UnknownMessageKind):
        feed.decode_message(bytes(data))


def test_length_prefix_must_match_layout():
    data = bytearray(feed.encode_message(MarketMessage.cancel(0, 1, 5)))
    data[0] = 33  # replace's length on a cancel kind
    padded = bytes(data) + b"\x00" * (33 - 21)
    with pytest.raises(LengthMismatch):
        feed.decode_message(padded)


def test_trailing_bytes_rejected_per_message():
    data = feed.encode_message(MarketMessage.delete(0, 1)) + b"\x00"
    with pytest.raises(LengthMismatch):
        feed.decode_message(data)


def test_zero_quantity_rejected():
    data = bytearray(feed.encode_message(MarketMessage.cancel(0, 1, 5)))
    data[-4:] = b"\x00\x00\x00\x00"
    with pytest.raises(ZeroQuantity):
        feed.decode_message(bytes(data))
    with pytest.raises(ZeroQuantity):
        MarketMessage.add(0, 1, Side.BUY, 100, 0)
    with pytest.raises(ZeroQuantity):
        MarketMessage.replace(0, 1, 2, 100, 0)


def test_zero_price_rejected():
    with pytest.raises(ZeroPrice):
        MarketMessage.add(0, 1, Side.BUY, 0, 10)
    with pytest.raises(ZeroPrice):
        MarketMessage.replace(0, 1, 2, 0, 10)


def test_bad_side_byte_rejected():
    data = bytearray(feed.encode_message(
        MarketMessage.add(0, 1, Side.BUY, 100, 10)))
    data[18] = 2  # side byte sits after length, kind, ts, id
    with pytest.raises(FormatError):
        feed.decode_message(bytes(data))


def test_fuzz_random_bytes_raise_typed_errors_only():
    rng = random.Random(5)
    decoded = 0
    for _ in range(5000):
        blob = rng.randbytes(rng.randrange(0, 64))
        try:
            feed.decode_frame(blob)
            decoded += 1
        except FormatError:
            pass
    assert decoded == 0  # 4-byte magic makes accidental success implausible


# --- the decoder against the public constructors ---

_U64 = st.one_of(st.sampled_from([0, 1, 2**64 - 1]),
                 st.integers(0, 2**64 - 1))
_U32 = st.one_of(st.sampled_from([1, 2**32 - 1]), st.integers(1, 2**32 - 1))
_MESSAGES = st.one_of(
    st.builds(MarketMessage.add, _U64, _U64, st.sampled_from(Side), _U32,
              _U32),
    st.builds(MarketMessage.cancel, _U64, _U64, _U32),
    st.builds(MarketMessage.delete, _U64, _U64),
    st.builds(MarketMessage.execute, _U64, _U64, _U32),
    st.builds(MarketMessage.replace, _U64, _U64, _U64, _U32, _U32),
)


def _field_values(msg):
    return [getattr(msg, f.name) for f in fields(msg)]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), _U64,
       st.lists(_MESSAGES, max_size=12).map(tuple))
def test_decoded_messages_equal_public_construction(session, sequence,
                                                    msgs):
    frame = LobfFrame(session, sequence, msgs)
    decoded = feed.decode_frame(feed.encode_frame(frame))
    assert decoded == frame
    for got, want in zip(decoded.messages, msgs):
        assert type(got) is MarketMessage
        assert got == want and hash(got) == hash(want)
        # Side and MessageKind members, not their int values
        assert [type(v) for v in _field_values(got)] \
            == [type(v) for v in _field_values(want)]
        with pytest.raises(FrozenInstanceError):
            got.price = 1


# the wire layout spelled out field by field, as the module docstring
# gives it: the oracle the one-pack encoder must match byte for byte
_ORACLE_BODY = {
    MessageKind.ADD: (">QQBII", ("timestamp_ns", "order_id", "side",
                                 "price", "quantity")),
    MessageKind.CANCEL: (">QQI", ("timestamp_ns", "order_id", "quantity")),
    MessageKind.DELETE: (">QQ", ("timestamp_ns", "order_id")),
    MessageKind.EXECUTE: (">QQI", ("timestamp_ns", "order_id", "quantity")),
    MessageKind.REPLACE: (">QQQII", ("timestamp_ns", "order_id",
                                     "new_order_id", "price", "quantity")),
}


def _oracle_encoding(msg):
    kind = MessageKind(msg.kind)
    fmt, names = _ORACLE_BODY[kind]
    body = struct.pack(fmt, *(int(getattr(msg, n)) for n in names))
    return bytes([1 + len(body), int(kind)]) + body


@settings(max_examples=500, deadline=None, derandomize=True)
@given(_MESSAGES)
@example(MarketMessage.add(0, 0, Side.BUY, 1, 1))
@example(MarketMessage.add(2**64 - 1, 2**64 - 1, Side.SELL, 2**32 - 1,
                           2**32 - 1))
@example(MarketMessage.cancel(0, 0, 2**32 - 1))
@example(MarketMessage.delete(2**64 - 1, 0))
@example(MarketMessage.execute(2**64 - 1, 2**64 - 1, 1))
@example(MarketMessage.replace(0, 2**64 - 1, 0, 2**32 - 1, 2**32 - 1))
def test_encoder_matches_field_by_field_oracle(msg):
    assert feed.encode_message(msg) == _oracle_encoding(msg)


def test_encoder_accepts_plain_int_kind_codes():
    # the constructor keeps an int code for cancel and execute
    for kind in (MessageKind.CANCEL, MessageKind.EXECUTE):
        msg = MarketMessage(int(kind), 5, 6, quantity=7)
        assert type(msg.kind) is int
        assert feed.encode_message(msg) == _oracle_encoding(msg)


@pytest.mark.parametrize("field, value", [
    ("timestamp_ns", 2**64), ("order_id", -1), ("price", 2**32),
    ("quantity", 2**32), ("new_order_id", 2**64)])
def test_encoder_rejects_out_of_range_fields(field, value):
    # public construction refuses these values, so force them in past
    # the checks; the packer must still refuse to truncate them
    if field == "new_order_id":
        msg = MarketMessage.replace(1, 2, 3, 4, 5)
    else:
        msg = MarketMessage.add(1, 2, Side.BUY, 4, 5)
    object.__setattr__(msg, field, value)
    with pytest.raises(struct.error):
        _oracle_encoding(msg)
    with pytest.raises(struct.error):
        feed.encode_message(msg)


def test_encoder_rejects_unknown_kind():
    msg = MarketMessage.delete(1, 2)
    object.__setattr__(msg, "kind", 0x5A)
    with pytest.raises(ValueError):
        feed.encode_message(msg)


def _decode_outcome(decode, data):
    try:
        return decode(data)
    except FormatError as exc:
        return type(exc)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(_MESSAGES, st.integers(0, 32),
       st.one_of(st.sampled_from([0, 1, 2, 255]), st.integers(0, 255)))
# a side byte of 2, then a zero add price, replace price and cancel size
@example(MarketMessage.add(0, 1, Side.BUY, 1, 1), 18, 2)
@example(MarketMessage.add(0, 1, Side.BUY, 1, 1), 22, 0)
@example(MarketMessage.replace(0, 1, 2, 1, 1), 29, 0)
@example(MarketMessage.cancel(0, 1, 1), 21, 0)
def test_frame_and_message_decode_agree_on_a_changed_byte(msg, at, value):
    data = bytearray(feed.encode_message(msg))
    data[at % len(data)] = value
    header = feed.encode_frame(LobfFrame(1, 0, (msg,)))[:18]
    # decode_frame ignores trailing bytes; the padding keeps a grown
    # length prefix inside the buffer, so the frame reports what the
    # message decoder reports rather than a truncated frame
    from_frame = _decode_outcome(
        lambda b: feed.decode_frame(b).messages[0],
        header + bytes(data) + bytes(256))
    alone = _decode_outcome(feed.decode_message, bytes(data))
    assert from_frame == alone
    if isinstance(alone, MarketMessage):
        assert MarketMessage(*_field_values(alone)) == alone


# --- stream helpers ---

def test_build_frames_chunks_with_contiguous_sequences():
    rng = random.Random(6)
    msgs = [random_message(rng) for _ in range(2500)]
    frames = feed.build_frames(42, msgs, max_per_frame=1000)
    assert [len(f.messages) for f in frames] == [1000, 1000, 500]
    assert [f.sequence_number for f in frames] == [0, 1000, 2000]
    assert all(f.session_id == 42 for f in frames)
    flat = [m for f in frames for m in f.messages]
    assert flat == msgs


def test_iter_frames_walks_concatenation():
    rng = random.Random(7)
    frames = [LobfFrame(1, i * 3, tuple(random_message(rng) for _ in range(3)))
              for i in range(4)]
    data = b"".join(feed.encode_frame(f) for f in frames)
    assert list(feed.iter_frames(data)) == frames
    with pytest.raises(TruncatedFrame):
        list(feed.iter_frames(data + b"LOBF"))


def test_iter_stream_yields_in_order():
    msgs = [MarketMessage.delete(t, t + 1) for t in range(10)]
    frames = feed.build_frames(3, msgs, max_per_frame=4)
    out = list(feed.iter_stream(frames))
    assert [m for _, m in out] == msgs
    assert all(sid == 3 for sid, _ in out)


def test_iter_stream_rejects_sequence_gap():
    msgs = [MarketMessage.delete(t, t + 1) for t in range(4)]
    frames = feed.build_frames(3, msgs, max_per_frame=2)
    broken = [frames[0], LobfFrame(3, 5, frames[1].messages)]
    with pytest.raises(FormatError):
        list(feed.iter_stream(broken))


def test_iter_stream_rejects_backwards_timestamps():
    frames = [LobfFrame(1, 0, (MarketMessage.delete(100, 1),
                               MarketMessage.delete(99, 2)))]
    with pytest.raises(FormatError):
        list(feed.iter_stream(frames))


def test_iter_stream_rejects_split_sessions():
    f1 = LobfFrame(1, 0, (MarketMessage.delete(0, 1),))
    f2 = LobfFrame(2, 0, (MarketMessage.delete(0, 2),))
    f3 = LobfFrame(1, 1, (MarketMessage.delete(5, 3),))
    with pytest.raises(FormatError):
        list(feed.iter_stream([f1, f2, f3]))


def test_timestamps_may_repeat():
    frames = [LobfFrame(1, 0, (MarketMessage.delete(7, 1),
                               MarketMessage.delete(7, 2)))]
    assert len(list(feed.iter_stream(frames))) == 2


def test_write_and_read_file(tmp_path):
    rng = random.Random(8)
    msgs = [random_message(rng) for _ in range(120)]
    frames = feed.build_frames(20170801, msgs, max_per_frame=50)
    path = tmp_path / "stream.lobf"
    path.write_bytes(b"".join(map(feed.encode_frame, frames)))
    assert list(feed.read_lobf(path)) == frames


# --- session split ---

def _sessions_stream(rng, sizes, max_per_frame):
    """Frames of consecutive sessions 1, 2, ... with ``sizes`` messages."""
    return [frame for sid, n in enumerate(sizes, start=1)
            for frame in feed.build_frames(
                sid, [random_message(rng) for _ in range(n)], max_per_frame)]


def _decoded_runs(blobs, runs):
    return [[frame for i, start, stop in run
             for frame in feed.iter_frames(blobs[i][start:stop])]
            for run in runs]


def test_session_runs_follow_a_session_across_files():
    rng = random.Random(9)
    frames = _sessions_stream(rng, [3, 7, 2], max_per_frame=2)
    encoded = [feed.encode_frame(f) for f in frames]
    # the first file ends after the second frame of session 2
    first, second = b"".join(encoded[:4]), b"".join(encoded[4:])
    runs = feed.session_runs([first, second])
    cut = len(b"".join(encoded[:2]))
    assert runs == [[(0, 0, cut)],
                    [(0, cut, len(first)),
                     (1, 0, len(b"".join(encoded[4:6])))],
                    [(1, len(b"".join(encoded[4:6])), len(second))]]
    assert _decoded_runs([first, second], runs) == [
        frames[:2], frames[2:6], frames[6:]]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.integers(0, 6), min_size=1, max_size=5),
       st.integers(1, 3), st.lists(st.integers(0, 10 ** 6), max_size=3))
def test_session_runs_cover_the_stream_in_order(sizes, max_per_frame, cuts):
    # empty sessions give no frame; cuts fall on frame boundaries
    rng = random.Random(len(sizes) * 7 + max_per_frame)
    frames = _sessions_stream(rng, sizes, max_per_frame)
    encoded = [feed.encode_frame(f) for f in frames]
    bounds = sorted({0, len(encoded)} | {c % (len(encoded) + 1)
                                         for c in cuts})
    blobs = [b"".join(encoded[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]
    runs = feed.session_runs(blobs)
    decoded = _decoded_runs(blobs, runs)
    assert [f for run in decoded for f in run] == frames
    assert [{f.session_id for f in run} for run in decoded] == [
        {sid} for sid, n in enumerate(sizes, start=1) if n]
    assert all(stop > start for run in runs for _, start, stop in run)


def test_session_runs_reject_what_the_decoder_rejects():
    rng = random.Random(10)
    frames = _sessions_stream(rng, [3, 3], max_per_frame=2)
    data = b"".join(feed.encode_frame(f) for f in frames)
    assert feed.session_runs([b"", b""]) == []
    for cut in range(1, len(data)):
        if any(cut == len(b"".join(feed.encode_frame(f)
                                   for f in frames[:k]))
               for k in range(len(frames))):
            continue
        with pytest.raises(TruncatedFrame):
            feed.session_runs([data[:cut], data[cut:]])
    with pytest.raises(BadMagic):
        feed.session_runs([b"LOBX" + data[4:]])
    with pytest.raises(FormatError, match="session 1 split across"):
        feed.session_runs([data, feed.encode_frame(frames[0])])
