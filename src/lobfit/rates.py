"""Arrival and cancellation tallies over calendar buckets.

Continuous trading runs 10:00-13:00 and 14:00-18:00; timestamps are
nanoseconds since midnight of the session's date.  Sessions are
identified by their date, encoded as YYYYMMDD in the stream's session
ids.  Events are tallied into buckets at four granularities:

* daily    - one bucket per session date
* weekly   - ISO week of the session date
* monthly  - calendar month
* hourly   - ISO week crossed with the hour slot 1..7 (10-11, 11-12,
             12-13, 14-15, 15-16, 16-17, 17-18)

Arrivals accumulate quantity per tick over a 1..15 window, cancels
accumulate the ratio quantity/level_quantity_before per tick over 1..10.
Events beyond the windows are dropped and counted, never binned.

The granularity set is fixed per TallyStore.  Each tallied event is
one increment in the cube of its session date: flat lists indexed
[side][hour slot][tick] that hold arrival quantity, cancel ratio sum
and cancel count.  Each of the store's granularities is a sum over
those cubes, so the BucketKey -> tally dicts ``TallyStore.arrivals``
and ``TallyStore.cancels`` are derived views.  They are rolled up from
all cubes on the first read after new events, sessions in date order,
so float sums do not depend on when the views were read.

``tally_stream`` is the hot loop, the replay ``lobfit rates`` runs: it
goes from wire bytes to cube increments and builds no object per
message.  It and the generator in ``synth`` write into a session's cube
(``TallyStore.session_cube``) at the row bases of one pair of tables,
``ARRIVAL_ROWS`` and ``CANCEL_ROWS``.

``accumulate_event``, which tallies one ``BookEvent``, lives in
``lobfit.book`` with the rest of the object-level reference model that
both fast paths are tested against, and that no command runs.  The
name still resolves here: reading it loads ``lobfit.book``.
"""

from __future__ import annotations

import csv
import datetime as dt
import operator
from enum import Enum
from typing import Iterable, NamedTuple

from lobfit import feed
from lobfit.errors import (DuplicateOrderId, EmptyBucket, FormatError,
                           OverCancel, SpecError, UnknownOrderId)
from lobfit.feed import MessageKind, Side

__all__ = [
    "ARRIVAL_TICKS",
    "CANCEL_TICKS",
    "ARRIVAL_ROWS",
    "CANCEL_ROWS",
    "HOUR_SLOTS",
    "NS_PER_HOUR",
    "MORNING_HOURS",
    "AFTERNOON_HOURS",
    "TickReference",
    "Granularity",
    "BucketKey",
    "ArrivalTally",
    "CancelTally",
    "TallyStore",
    "date_to_session_id",
    "session_id_to_date",
    "tally_stream",
    "arrival_density",
    "cancellation_ratio",
    "parse_bucket_label",
    "write_rates_csv",
    "write_cancels_csv",
    "read_rates_csv",
    "read_cancels_csv",
]

# the object-level tally, which lives in lobfit.book (see the module
# docstring); __getattr__ forwards these names there
_MOVED = ("accumulate_event",)

ARRIVAL_TICKS = 15
CANCEL_TICKS = 10

NS_PER_HOUR = 3_600_000_000_000
# trading hours, as half-open hour-of-day ranges
MORNING_HOURS = (10, 13)
AFTERNOON_HOURS = (14, 18)
_MORNING_SLOTS = MORNING_HOURS[1] - MORNING_HOURS[0]
HOUR_SLOTS = _MORNING_SLOTS + AFTERNOON_HOURS[1] - AFTERNOON_HOURS[0]


def _slot_of_hour(hour: int) -> int:
    if MORNING_HOURS[0] <= hour < MORNING_HOURS[1]:
        return hour - MORNING_HOURS[0] + 1
    if AFTERNOON_HOURS[0] <= hour < AFTERNOON_HOURS[1]:
        return hour - AFTERNOON_HOURS[0] + 1 + _MORNING_SLOTS
    return 0


# hour slot 1..HOUR_SLOTS per hour of the day, 0 out of trading hours
_HOUR_SLOT = tuple(_slot_of_hour(hour) for hour in range(24))


def _row_bases(ticks: int) -> tuple:
    """Per side and hour of the day, the session cube index of tick 0 in
    that hour's row of ``ticks`` values (tick t is at base + t); None
    out of trading hours."""
    return tuple(tuple((side * HOUR_SLOTS + slot - 1) * ticks - 1
                       if slot else None for slot in _HOUR_SLOT)
                 for side in Side)


# the row bases of the cube's arrival quantities and of its cancel
# ratio sums and counts, indexed [side][hour]
ARRIVAL_ROWS = _row_bases(ARRIVAL_TICKS)
CANCEL_ROWS = _row_bases(CANCEL_TICKS)


class TickReference(Enum):
    """The price a tick distance is measured from: the best price on
    the order's own side, or on the opposite side."""

    SAME_SIDE = "same"
    OPPOSITE_SIDE = "opposite"


class Granularity(Enum):
    DAILY = "daily"
    WEEKLY = "weekly"
    MONTHLY = "monthly"
    HOURLY = "hourly"


_GRANULARITY_RANK = {g: i for i, g in enumerate(Granularity)}
_ALL_GRANULARITIES = tuple(Granularity)


def date_to_session_id(day: dt.date) -> int:
    return day.year * 10_000 + day.month * 100 + day.day


def session_id_to_date(session_id: int) -> dt.date:
    year, rest = divmod(session_id, 10_000)
    month, dom = divmod(rest, 100)
    try:
        return dt.date(year, month, dom)
    except ValueError:
        raise SpecError(
            f"session id {session_id} does not encode a date") from None


class BucketKey(NamedTuple):
    """One tally bucket: granularity, calendar index, book side.

    The ``index`` field shadows ``tuple.index``.
    """

    granularity: Granularity
    index: tuple
    side: Side

    @property
    def label(self) -> str:
        """Stable text form, e.g. daily:2017-08-01 or hourly:2017-W31:h3."""
        g = self.granularity
        if g is Granularity.DAILY:
            body = dt.date(*self.index).isoformat()
        elif g is Granularity.WEEKLY:
            body = f"{self.index[0]:04d}-W{self.index[1]:02d}"
        elif g is Granularity.MONTHLY:
            body = f"{self.index[0]:04d}-{self.index[1]:02d}"
        else:
            body = f"{self.index[0]:04d}-W{self.index[1]:02d}:h{self.index[2]}"
        return f"{g.value}:{body}"

    def sort_key(self) -> tuple:
        return (_GRANULARITY_RANK[self.granularity], self.index,
                int(self.side))


def parse_bucket_label(label: str) -> tuple[Granularity, tuple]:
    """Inverse of BucketKey.label, without the side."""
    try:
        head, body = label.split(":", 1)
        g = Granularity(head)
        if g is Granularity.DAILY:
            d = dt.date.fromisoformat(body)
            return g, (d.year, d.month, d.day)
        if g is Granularity.WEEKLY:
            year, week = body.split("-W")
            return g, (int(year), int(week))
        if g is Granularity.MONTHLY:
            year, month = body.split("-")
            return g, (int(year), int(month))
        rest, slot = body.split(":h")
        year, week = rest.split("-W")
        return g, (int(year), int(week), int(slot))
    except (ValueError, KeyError) as exc:
        raise ValueError(f"bad bucket label {label!r}") from exc


def _bucket_index(session_date: dt.date, g: Granularity, slot: int) -> tuple:
    if g is Granularity.DAILY:
        return (session_date.year, session_date.month, session_date.day)
    if g is Granularity.MONTHLY:
        return (session_date.year, session_date.month)
    iso = session_date.isocalendar()
    if g is Granularity.WEEKLY:
        return (iso[0], iso[1])
    return (iso[0], iso[1], slot)


class ArrivalTally:
    """Arriving quantity per tick, 1-based ticks stored at index tick-1."""

    __slots__ = ("quantity",)

    def __init__(self, quantity: list[int] | None = None):
        self.quantity = [0] * ARRIVAL_TICKS if quantity is None else quantity

    def __eq__(self, other):
        if type(other) is not ArrivalTally:
            return NotImplemented
        return self.quantity == other.quantity

    __hash__ = None

    def __repr__(self):
        return f"ArrivalTally(quantity={self.quantity!r})"


class CancelTally:
    """Per-tick sum of cancellation ratios and the contributing count."""

    __slots__ = ("ratio_sum", "count")

    def __init__(self, ratio_sum: list[float] | None = None,
                 count: list[int] | None = None):
        self.ratio_sum = ([0.0] * CANCEL_TICKS if ratio_sum is None
                          else ratio_sum)
        self.count = [0] * CANCEL_TICKS if count is None else count

    def __eq__(self, other):
        if type(other) is not CancelTally:
            return NotImplemented
        return (self.ratio_sum, self.count) == (other.ratio_sum, other.count)

    __hash__ = None

    def __repr__(self):
        return (f"CancelTally(ratio_sum={self.ratio_sum!r}, "
                f"count={self.count!r})")


_ROWS = len(Side) * HOUR_SLOTS


class _SessionCube:
    """One session's tallies.

    Row ``side * HOUR_SLOTS + slot - 1`` of each flat list holds the
    per-tick values of one (side, hour slot).
    """

    __slots__ = ("day", "quantity", "ratio_sum", "count")

    def __init__(self, day: dt.date):
        self.day = day
        self.quantity = [0] * (_ROWS * ARRIVAL_TICKS)
        self.ratio_sum = [0.0] * (_ROWS * CANCEL_TICKS)
        self.count = [0] * (_ROWS * CANCEL_TICKS)

    def roll_into(self, granularities: tuple, arrivals: dict,
                  cancels: dict) -> None:
        """Add this session's tallies to every bucket it belongs to."""
        hourly = Granularity.HOURLY in granularities
        coarse = [g for g in granularities if g is not Granularity.HOURLY]
        for side in Side:
            quantity = [0] * ARRIVAL_TICKS
            ratio_sum = [0.0] * CANCEL_TICKS
            count = [0] * CANCEL_TICKS
            for slot in range(1, HOUR_SLOTS + 1):
                row = side * HOUR_SLOTS + slot - 1
                lo, hi = row * ARRIVAL_TICKS, (row + 1) * ARRIVAL_TICKS
                q = self.quantity[lo:hi]
                lo, hi = row * CANCEL_TICKS, (row + 1) * CANCEL_TICKS
                s, c = self.ratio_sum[lo:hi], self.count[lo:hi]
                if hourly:
                    key = BucketKey(Granularity.HOURLY, _bucket_index(
                        self.day, Granularity.HOURLY, slot), side)
                    _add_tallies(arrivals, cancels, key, q, s, c)
                quantity = _plus(quantity, q)
                ratio_sum = _plus(ratio_sum, s)
                count = _plus(count, c)
            for g in coarse:
                key = BucketKey(g, _bucket_index(self.day, g, 0), side)
                _add_tallies(arrivals, cancels, key, quantity, ratio_sum,
                             count)


def _plus(xs: list, ys: list) -> list:
    return list(map(operator.add, xs, ys))


def _add_tallies(arrivals, cancels, key, quantity, ratio_sum, count) -> None:
    """Fold one bucket's share in; buckets that saw nothing stay absent."""
    if any(quantity):
        tally = arrivals.get(key)
        if tally is None:
            arrivals[key] = ArrivalTally(list(quantity))
        else:
            tally.quantity = _plus(tally.quantity, quantity)
    if any(count):
        tally = cancels.get(key)
        if tally is None:
            cancels[key] = CancelTally(list(ratio_sum), list(count))
        else:
            tally.ratio_sum = _plus(tally.ratio_sum, ratio_sum)
            tally.count = _plus(tally.count, count)


class TallyStore:
    """Session cubes, the counters of skipped events, and derived views.

    ``granularities`` is the store's granularity set, without repeats
    and in Granularity order; every event is tallied under each of
    them.  ``arrivals`` and ``cancels`` map BucketKey to ArrivalTally
    and CancelTally.  They are recomputed from the cubes, so treat them
    as read-only.  Two stores are equal when their views and counters
    are.
    """

    __slots__ = ("granularities", "dropped_arrivals", "dropped_cancels",
                 "out_of_hours", "_cubes", "_views")

    def __init__(self,
                 granularities: Iterable[Granularity] = _ALL_GRANULARITIES):
        self.granularities = tuple(sorted(
            {Granularity(g) for g in granularities},
            key=_GRANULARITY_RANK.get))
        self.dropped_arrivals = 0
        self.dropped_cancels = 0
        self.out_of_hours = 0
        self._cubes: dict[dt.date, _SessionCube] = {}
        self._views: tuple[dict, dict] | None = ({}, {})

    def session_cube(self, session_date: dt.date) -> _SessionCube:
        """The cube of ``session_date``, opened empty on first use.

        Tallies go straight into its flat lists, at the row bases of
        ``ARRIVAL_ROWS`` and ``CANCEL_ROWS``.  The views are stale from
        this call on, so finish writing before reading them.
        """
        cube = self._cubes.get(session_date)
        if cube is None:
            cube = self._cubes[session_date] = _SessionCube(session_date)
        self._views = None
        return cube

    def _rolled_up(self) -> tuple[dict, dict]:
        if self._views is None:
            arrivals, cancels = {}, {}
            for day in sorted(self._cubes):
                self._cubes[day].roll_into(self.granularities, arrivals,
                                           cancels)
            self._views = (arrivals, cancels)
        return self._views

    @property
    def arrivals(self) -> dict[BucketKey, ArrivalTally]:
        return self._rolled_up()[0]

    @property
    def cancels(self) -> dict[BucketKey, CancelTally]:
        return self._rolled_up()[1]

    def merge(self, other: "TallyStore") -> None:
        """Add the sessions and counters of ``other`` to this store.

        Both stores must tally the same granularities, and no session
        date may be in both.  Each session keeps its own sums, so
        tallying sessions in separate stores and merging them gives the
        views that tallying them all into one store gives.  The sessions
        are shared with ``other``, not copied.
        """
        if other.granularities != self.granularities:
            raise ValueError("merged stores must tally the same "
                             "granularities")
        common = self._cubes.keys() & other._cubes.keys()
        if common:
            raise ValueError(f"session {min(common)} is in both stores")
        self._cubes.update(other._cubes)
        self.dropped_arrivals += other.dropped_arrivals
        self.dropped_cancels += other.dropped_cancels
        self.out_of_hours += other.out_of_hours
        self._views = None

    def _counters(self) -> tuple[int, int, int]:
        return (self.dropped_arrivals, self.dropped_cancels,
                self.out_of_hours)

    def __eq__(self, other):
        if not isinstance(other, TallyStore):
            return NotImplemented
        return (self._counters() == other._counters()
                and self._rolled_up() == other._rolled_up())

    __hash__ = None

    def __repr__(self):
        return (f"TallyStore(arrivals={self.arrivals!r}, "
                f"cancels={self.cancels!r}, "
                f"dropped_arrivals={self.dropped_arrivals}, "
                f"dropped_cancels={self.dropped_cancels}, "
                f"out_of_hours={self.out_of_hours})")


def tally_stream(store: TallyStore, blobs: Iterable[bytes],
                 tick_size: int = 1,
                 reference: TickReference = TickReference.SAME_SIDE,
                 sides: tuple[Side, ...] = (Side.BUY, Side.SELL)) -> int:
    """Replay a stream from its wire bytes; tally events on ``sides``.

    ``blobs`` are the stream's buffers in order, each holding whole
    frames.  Per frame this runs ``feed.frame_at``, the checks of
    ``book.iter_stream``, the rules of ``book.OrderBook.apply`` on one
    book per session and the counting of ``book.accumulate_event``, all
    inline on plain dicts and tuples, so it tallies what
    ``iter_frames -> iter_stream -> OrderBook.apply -> accumulate_event``
    tallies and raises what that chain raises, at the same message.
    Returns the number of messages applied.
    """
    if isinstance(blobs, (bytes, bytearray, memoryview)):
        raise TypeError("tally_stream takes the stream's buffers, "
                        "not one buffer")
    # the cube's row bases per side and hour, None for a side that is
    # not tallied
    arrival_rows = [ARRIVAL_ROWS[side] if side in sides else None
                    for side in Side]
    cancel_rows = [CANCEL_ROWS[side] if side in sides else None
                   for side in Side]
    per_drop = len(store.granularities)
    frame_at = feed.frame_at
    add, delete, execute, replace = (MessageKind.ADD, MessageKind.DELETE,
                                     MessageKind.EXECUTE, MessageKind.REPLACE)
    seen: set[int] = set()
    session = orders = None
    applied = out_of_hours = dropped_arrivals = dropped_cancels = 0
    try:
        for data in blobs:
            offset, size = 0, len(data)
            while offset < size:
                session_id, sequence, messages, offset = frame_at(data,
                                                                  offset)
                if session_id != session:
                    if session_id in seen:
                        raise FormatError(
                            f"session {session_id} split across the stream")
                    seen.add(session_id)
                    session = session_id
                    next_sequence = last_ts = 0
                    orders = None
                if sequence != next_sequence:
                    raise FormatError(
                        f"session {session_id}: frame sequence {sequence}, "
                        f"expected {next_sequence}")
                next_sequence += len(messages)
                for kind, body in messages:
                    ts = body[0]
                    if ts < last_ts:
                        raise FormatError(
                            f"session {session_id}: timestamp went backwards "
                            f"({ts} after {last_ts})")
                    last_ts = ts
                    if orders is None:
                        # the session's first message opens its book, as
                        # OrderBook(tick_size, reference) would, and
                        # resolves its date
                        if tick_size < 1:
                            raise ValueError("tick_size must be a positive "
                                             "price increment")
                        same = (TickReference(reference)
                                is TickReference.SAME_SIDE)
                        # same side: tick = gap // T + 1; opposite: gap // T
                        shift = tick_size if same else 0
                        day = session_id_to_date(session_id)
                        # price -> resting quantity, per side; order id ->
                        # (side, price, remaining); cached best prices
                        bids, asks, orders = {}, {}, {}
                        bid = ask = cube = None
                    hour = ts // NS_PER_HOUR
                    order_id = body[1]
                    if kind is add:
                        side, price, quantity = body[2], body[3], body[4]
                        if order_id in orders:
                            raise DuplicateOrderId(
                                f"order {order_id} already resting")
                    else:
                        # Cancel, Delete, Execute, and Replace's cancel of
                        # the old order, which it then re-adds on its side
                        order = orders.get(order_id)
                        if order is None:
                            raise UnknownOrderId(f"order {order_id}")
                        side, price, remaining = order
                        quantity = (remaining if kind is delete
                                    or kind is replace else body[2])
                        if quantity > remaining:
                            raise OverCancel(
                                f"order {order_id}: {quantity} exceeds "
                                f"remaining {remaining}")
                        # the tick against the book before the removal
                        if side:
                            ref = ask if same else bid
                            tick = (1 if ref is None
                                    else (price - ref + shift) // tick_size)
                        else:
                            ref = bid if same else ask
                            tick = (1 if ref is None
                                    else (ref - price + shift) // tick_size)
                        if tick < 1:
                            tick = 1
                        ladder = asks if side else bids
                        before = ladder[price]
                        if quantity == remaining:
                            del orders[order_id]
                        else:
                            orders[order_id] = (side, price,
                                                remaining - quantity)
                        if before == quantity:
                            del ladder[price]
                            # only emptying the best level moves the best
                            if side:
                                if price == ask:
                                    ask = min(ladder) if ladder else None
                            elif price == bid:
                                bid = max(ladder) if ladder else None
                        else:
                            ladder[price] = before - quantity
                        if kind is execute:
                            continue
                        if kind is replace:
                            # a failed re-add tallies neither event
                            if body[2] in orders:
                                raise DuplicateOrderId(
                                    f"order {body[2]} already resting")
                        rows = cancel_rows[side]
                        if rows is not None:
                            base = rows[hour] if hour < 24 else None
                            if base is None:
                                out_of_hours += 1
                            else:
                                if cube is None:
                                    cube = store.session_cube(day)
                                if tick > CANCEL_TICKS:
                                    dropped_cancels += per_drop
                                else:
                                    cube.ratio_sum[base + tick] += (
                                        quantity / before)
                                    cube.count[base + tick] += 1
                        if kind is not replace:
                            continue
                        order_id, price, quantity = body[2], body[3], body[4]
                    # the arrival of an Add or a Replace, measured against
                    # the book before the insert; crossing prices clamp
                    if side:
                        ref = ask if same else bid
                        tick = (1 if ref is None
                                else (price - ref + shift) // tick_size)
                        if ask is None or price < ask:
                            ask = price
                        ladder = asks
                    else:
                        ref = bid if same else ask
                        tick = (1 if ref is None
                                else (ref - price + shift) // tick_size)
                        if bid is None or price > bid:
                            bid = price
                        ladder = bids
                    if tick < 1:
                        tick = 1
                    ladder[price] = ladder.get(price, 0) + quantity
                    orders[order_id] = (side, price, quantity)
                    rows = arrival_rows[side]
                    if rows is not None:
                        base = rows[hour] if hour < 24 else None
                        if base is None:
                            out_of_hours += 1
                        else:
                            if cube is None:
                                cube = store.session_cube(day)
                            if tick > ARRIVAL_TICKS:
                                dropped_arrivals += per_drop
                            else:
                                cube.quantity[base + tick] += quantity
                applied += len(messages)
    finally:
        store.out_of_hours += out_of_hours
        store.dropped_arrivals += dropped_arrivals
        store.dropped_cancels += dropped_cancels
    return applied


def arrival_density(tally: ArrivalTally) -> list[float]:
    """Normalized per-tick arrival fractions, summing to 1."""
    total = sum(tally.quantity)
    if total == 0:
        raise EmptyBucket("no arrivals tallied")
    return [q / total for q in tally.quantity]


def cancellation_ratio(tally: CancelTally) -> list[float | None]:
    """Mean cancellation ratio per tick; None where nothing was observed."""
    return [s / c if c else None
            for s, c in zip(tally.ratio_sum, tally.count)]


# --- CSV staging ---

def write_rates_csv(store: TallyStore, path) -> None:
    """One row per (bucket, side, tick) with quantity and density."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["bucket_key", "side", "tick", "quantity", "density"])
        for key in sorted(store.arrivals, key=BucketKey.sort_key):
            density = arrival_density(store.arrivals[key])
            label = key.label
            side = key.side.name.lower()
            for tick in range(1, ARRIVAL_TICKS + 1):
                writer.writerow([label, side, tick,
                                 store.arrivals[key].quantity[tick - 1],
                                 repr(density[tick - 1])])


def write_cancels_csv(store: TallyStore, path) -> None:
    """One row per observed (bucket, side, tick); unseen ticks are absent."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["bucket_key", "side", "tick", "count", "mean_ratio"])
        for key in sorted(store.cancels, key=BucketKey.sort_key):
            ratios = cancellation_ratio(store.cancels[key])
            label = key.label
            side = key.side.name.lower()
            for tick in range(1, CANCEL_TICKS + 1):
                count = store.cancels[key].count[tick - 1]
                if count == 0:
                    continue
                writer.writerow([label, side, tick, count,
                                 repr(ratios[tick - 1])])


def _parse_side(text: str) -> Side:
    side = Side.__members__.get(text.upper())
    if side is None:
        raise ValueError(f"bad side {text!r}; expected buy or sell")
    return side


def _read_tally_csv(path, ticks: int, columns: dict) -> list[dict]:
    """Rows of a tally CSV grouped per (bucket, side), in file order.

    ``columns`` maps each value column to (parse, empty): an instance
    holds ``ticks`` values per column, ``empty`` where no row gave one.
    A malformed file raises ValueError naming the path and line.
    """
    names = ["bucket_key", "side", "tick", *columns]
    instances: dict[tuple[str, str], dict] = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                return []
            missing = [name for name in names if name not in header]
            if missing:
                raise ValueError(f"missing column(s) {', '.join(missing)}")
            positions = [header.index(name) for name in names]
            for fields in reader:
                if not fields:
                    continue
                if len(fields) != len(header):
                    raise ValueError(f"expected {len(header)} fields, "
                                     f"got {len(fields)}")
                label, side, tick, *values = (fields[i] for i in positions)
                inst = instances.get((label, side))
                if inst is None:
                    granularity, _ = parse_bucket_label(label)
                    inst = {"bucket_key": label,
                            "granularity": granularity,
                            "side": _parse_side(side)}
                    for name, (_, empty) in columns.items():
                        inst[name] = [empty] * ticks
                    instances[(label, side)] = inst
                tick = int(tick)
                if not 1 <= tick <= ticks:
                    raise ValueError(f"tick {tick} outside 1..{ticks}")
                for (name, (parse, _)), text in zip(columns.items(), values):
                    inst[name][tick - 1] = parse(text)
        except (ValueError, csv.Error) as exc:
            raise ValueError(f"{path}:{reader.line_num}: {exc}") from None
    return list(instances.values())


def read_rates_csv(path) -> list[dict]:
    """Rows grouped per instance, in file order.

    Each entry: {"bucket_key", "granularity", "side", "quantity": [15],
    "density": [15]}.
    """
    return _read_tally_csv(path, ARRIVAL_TICKS,
                           {"quantity": (int, 0), "density": (float, 0.0)})


def read_cancels_csv(path) -> list[dict]:
    """Rows grouped per (bucket, side): count and mean_ratio per tick.

    Ticks absent from the file stay at count 0 / ratio None.
    """
    return _read_tally_csv(path, CANCEL_TICKS,
                           {"count": (int, 0), "mean_ratio": (float, None)})


def __getattr__(name):
    if name in _MOVED:
        from lobfit import book
        return getattr(book, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
