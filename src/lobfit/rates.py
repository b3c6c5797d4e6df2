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

Each tallied event is one increment in the cube of its session date:
flat lists indexed [side][hour slot][tick] that hold arrival quantity,
cancel ratio sum and cancel count.  Every bucket of every granularity
and side is a sum over those cubes, so the BucketKey -> tally dicts
``TallyStore.arrivals`` and ``TallyStore.cancels`` are derived views.
They are rolled up from all cubes on the first read after new events,
sessions in date order, so float sums do not depend on when the views
were read.  A store records every bucket; ``lobfit rates`` picks the
granularities and sides it writes from the views.

``tally_stream`` is the hot loop, the replay ``lobfit rates`` runs: it
goes from wire bytes to cube increments and builds no object per
message.  Bids and asks take one path through it: a session's price
ladders and best prices are pairs indexed by side, and each side's
ticks are measured from the best price ``ref`` of the side its
``TickReference`` names, as ``((price - ref if side else ref - price)
+ shift) // tick_size`` clamped to 1, where ``shift`` is one tick for
the same side and none for the opposite.  It and the generator in
``synth`` write into a session's cube (``TallyStore.session_cube``)
at the row bases of one pair of tables, ``ARRIVAL_ROWS`` and
``CANCEL_ROWS``.

``accumulate_event``, which tallies one ``BookEvent``, lives in
``lobfit.book`` with the rest of the object-level reference model that
both fast paths are tested against, and that no command runs.  The
name still resolves here: reading it loads ``lobfit.book``.

``Side`` is defined here, and ``feed.Side`` resolves to it.  This module
imports ``feed`` only inside ``tally_stream``, so ``lobfit fit`` and
``lobfit cancel-test``, which read tally CSVs, never load the codec.
"""

from __future__ import annotations

import csv
import datetime as dt
import operator
from enum import Enum, IntEnum
from functools import partial
from typing import Iterable, Mapping, NamedTuple

from lobfit.errors import (DuplicateOrderId, EmptyBucket, FormatError,
                           OverCancel, SpecError, UnknownOrderId)

__all__ = [
    "ARRIVAL_TICKS",
    "CANCEL_TICKS",
    "ARRIVAL_ROWS",
    "CANCEL_ROWS",
    "HOUR_SLOTS",
    "NS_PER_HOUR",
    "MORNING_HOURS",
    "AFTERNOON_HOURS",
    "Side",
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


class Side(IntEnum):
    """An order's side; its value is the side byte of an Add message."""

    BUY = 0
    SELL = 1


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
    """Inverse of BucketKey.label, without the side.

    Only the label BucketKey.label writes parses, and only for a bucket
    that exists: a week its ISO year has, a month 1..12, an hour slot
    1..HOUR_SLOTS.  So each bucket has one spelling.
    """
    try:
        head, body = label.split(":", 1)
        g = Granularity(head)
        if g is Granularity.DAILY:
            d = dt.date.fromisoformat(body)
            index = (d.year, d.month, d.day)
        elif g is Granularity.MONTHLY:
            year, month = body.split("-")
            index = (int(year), int(month))
            dt.date(*index, 1)  # raises for a month that does not exist
        else:
            iso_week, _, slot = body.partition(":h")
            year, week = iso_week.split("-W")
            index = (int(year), int(week))
            dt.date.fromisocalendar(*index, 1)  # and for such a week
            if g is Granularity.HOURLY:
                index += (int(slot),)
                if not 1 <= index[2] <= HOUR_SLOTS:
                    raise ValueError(f"no hour slot {index[2]}")
        if BucketKey(g, index, Side.BUY).label != label:
            raise ValueError("not the canonical spelling")
        return g, index
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


class ArrivalTally(NamedTuple):
    """Arriving quantity per tick, 1-based ticks stored at index tick-1."""

    quantity: list[int]


class CancelTally(NamedTuple):
    """Per-tick sum of cancellation ratios and the contributing count.

    The ``count`` field shadows ``tuple.count``.
    """

    ratio_sum: list[float]
    count: list[int]


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

    def roll_into(self, arrivals: dict, cancels: dict) -> None:
        """Add this session's tallies to every bucket it belongs to."""
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
                key = BucketKey(Granularity.HOURLY, _bucket_index(
                    self.day, Granularity.HOURLY, slot), side)
                _add_tallies(arrivals, cancels, key, q, s, c)
                quantity = _plus(quantity, q)
                ratio_sum = _plus(ratio_sum, s)
                count = _plus(count, c)
            for g in (Granularity.DAILY, Granularity.WEEKLY,
                      Granularity.MONTHLY):
                key = BucketKey(g, _bucket_index(self.day, g, 0), side)
                _add_tallies(arrivals, cancels, key, quantity, ratio_sum,
                             count)


def _plus(xs: list, ys: list) -> list:
    return list(map(operator.add, xs, ys))


def _add_tallies(arrivals, cancels, key, quantity, ratio_sum, count) -> None:
    """Fold one bucket's share in; buckets that saw nothing stay absent."""
    if any(quantity):
        tally = arrivals.get(key)
        if tally is not None:
            quantity = _plus(tally.quantity, quantity)
        arrivals[key] = ArrivalTally(list(quantity))
    if any(count):
        tally = cancels.get(key)
        if tally is not None:
            ratio_sum = _plus(tally.ratio_sum, ratio_sum)
            count = _plus(tally.count, count)
        cancels[key] = CancelTally(list(ratio_sum), list(count))


class TallyStore:
    """Session cubes, the counters of skipped events, and derived views.

    ``arrivals`` and ``cancels`` map the BucketKey of every bucket, of
    every granularity and side, that saw an event to ArrivalTally and
    CancelTally.  They are recomputed from the cubes, so treat them as
    read-only.  Each counter counts an event once: ``dropped_arrivals``
    and ``dropped_cancels`` those beyond the tick windows,
    ``out_of_hours`` those outside trading hours.  Two stores are equal
    when their views and counters are.
    """

    __slots__ = ("dropped_arrivals", "dropped_cancels", "out_of_hours",
                 "_cubes", "_views")

    def __init__(self):
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
                self._cubes[day].roll_into(arrivals, cancels)
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

        No session date may be in both.  Each session keeps its own
        sums, so tallying sessions in separate stores and merging them
        gives the views that tallying them all into one store gives.
        The sessions are shared with ``other``, not copied.
        """
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
                 reference: TickReference = TickReference.SAME_SIDE) -> int:
    """Replay a stream from its wire bytes and tally its events.

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
    # imported here: only the replay decodes frames
    from lobfit import feed
    from lobfit.feed import MessageKind

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
                        # per side, the side whose best price its ticks
                        # are measured from
                        measured = (0, 1) if same else (1, 0)
                        day = session_id_to_date(session_id)
                        # per side (bids, asks): price -> resting quantity
                        # and the cached best price; order id -> (side,
                        # price, remaining)
                        ladders, best, orders = ({}, {}), [None, None], {}
                        cube = None
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
                        ref = best[measured[side]]
                        tick = (1 if ref is None else
                                ((price - ref if side else ref - price)
                                 + shift) // tick_size)
                        if tick < 1:
                            tick = 1
                        ladder = ladders[side]
                        before = ladder[price]
                        if quantity == remaining:
                            del orders[order_id]
                        else:
                            orders[order_id] = (side, price,
                                                remaining - quantity)
                        if before == quantity:
                            del ladder[price]
                            # only emptying the best level moves the best
                            if price == best[side]:
                                best[side] = ((min(ladder) if side
                                               else max(ladder))
                                              if ladder else None)
                        else:
                            ladder[price] = before - quantity
                        if kind is execute:
                            continue
                        if kind is replace:
                            # a failed re-add tallies neither event
                            if body[2] in orders:
                                raise DuplicateOrderId(
                                    f"order {body[2]} already resting")
                        base = CANCEL_ROWS[side][hour] if hour < 24 else None
                        if base is None:
                            out_of_hours += 1
                        else:
                            if cube is None:
                                cube = store.session_cube(day)
                            if tick > CANCEL_TICKS:
                                dropped_cancels += 1
                            else:
                                cube.ratio_sum[base + tick] += (
                                    quantity / before)
                                cube.count[base + tick] += 1
                        if kind is not replace:
                            continue
                        order_id, price, quantity = body[2], body[3], body[4]
                    # the arrival of an Add or a Replace, measured against
                    # the book before the insert; crossing prices clamp
                    ref = best[measured[side]]
                    tick = (1 if ref is None else
                            ((price - ref if side else ref - price)
                             + shift) // tick_size)
                    if tick < 1:
                        tick = 1
                    top = best[side]
                    if top is None or (price < top if side else price > top):
                        best[side] = price
                    ladder = ladders[side]
                    ladder[price] = ladder.get(price, 0) + quantity
                    orders[order_id] = (side, price, quantity)
                    base = ARRIVAL_ROWS[side][hour] if hour < 24 else None
                    if base is None:
                        out_of_hours += 1
                    else:
                        if cube is None:
                            cube = store.session_cube(day)
                        if tick > ARRIVAL_TICKS:
                            dropped_arrivals += 1
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

def write_rates_csv(arrivals: Mapping[BucketKey, ArrivalTally],
                    path) -> None:
    """One row per (bucket, side, tick) of ``arrivals``, in BucketKey
    order, with quantity and density."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["bucket_key", "side", "tick", "quantity", "density"])
        for key in sorted(arrivals, key=BucketKey.sort_key):
            density = arrival_density(arrivals[key])
            label = key.label
            side = key.side.name.lower()
            for tick in range(1, ARRIVAL_TICKS + 1):
                writer.writerow([label, side, tick,
                                 arrivals[key].quantity[tick - 1],
                                 repr(density[tick - 1])])


def write_cancels_csv(cancels: Mapping[BucketKey, CancelTally],
                      path) -> None:
    """One row per observed (bucket, side, tick) of ``cancels``, in
    BucketKey order; unseen ticks are absent."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["bucket_key", "side", "tick", "count", "mean_ratio"])
        for key in sorted(cancels, key=BucketKey.sort_key):
            ratios = cancellation_ratio(cancels[key])
            label = key.label
            side = key.side.name.lower()
            for tick in range(1, CANCEL_TICKS + 1):
                count = cancels[key].count[tick - 1]
                if count == 0:
                    continue
                writer.writerow([label, side, tick, count,
                                 repr(ratios[tick - 1])])


def _parse_side(text: str) -> Side:
    side = Side.__members__.get(text.upper())
    if side is None:
        raise ValueError(f"bad side {text!r}; expected buy or sell")
    return side


def _whole(name: str, text: str, least: int = 0) -> int:
    """``text`` as a whole number of at least ``least``, in ASCII digits
    alone: no sign, space, underscore or other script's digit, none of
    which the writers emit."""
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"bad {name} {text!r}; expected digits 0-9")
    value = int(text)
    if value < least:
        raise ValueError(f"bad {name} {value}; expected at least {least}")
    return value


def _read_tally_csv(path, ticks: int, columns: dict,
                    complete: bool) -> list[dict]:
    """Rows of a tally CSV grouped per (bucket, side), in BucketKey order.

    Each instance's ``key`` is its BucketKey, parsed from its first row.
    ``columns`` maps each value column to (parse, empty): an instance
    holds ``ticks`` values per column, ``empty`` where no row gave one.
    ``complete`` requires a row for every tick of every instance.  A
    malformed file, a repeated (bucket, side, tick) row or, when
    ``complete``, a missing one raises ValueError naming the path.
    """
    names = ["bucket_key", "side", "tick", *columns]
    instances: dict[tuple[str, Side], tuple[dict, set]] = {}
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
                side = _parse_side(side)
                entry = instances.get((label, side))
                if entry is None:
                    inst = {"key": BucketKey(*parse_bucket_label(label),
                                             side)}
                    for name, (_, empty) in columns.items():
                        inst[name] = [empty] * ticks
                    entry = instances[(label, side)] = (inst, set())
                inst, seen = entry
                tick = _whole("tick", tick)
                if not 1 <= tick <= ticks:
                    raise ValueError(f"tick {tick} outside 1..{ticks}")
                if tick in seen:
                    raise ValueError(f"repeated tick {tick} for {label} "
                                     f"{side.name.lower()}")
                seen.add(tick)
                for (name, (parse, _)), text in zip(columns.items(), values):
                    inst[name][tick - 1] = parse(text)
        except (ValueError, csv.Error) as exc:
            raise ValueError(f"{path}:{reader.line_num}: {exc}") from None
    if complete:
        for (label, side), (_, seen) in instances.items():
            if len(seen) < ticks:
                lacking = ", ".join(str(tick) for tick in range(1, ticks + 1)
                                    if tick not in seen)
                raise ValueError(f"{path}: {label} {side.name.lower()} "
                                 f"has no row for tick(s) {lacking}")
    return sorted((inst for inst, _ in instances.values()),
                  key=lambda inst: inst["key"].sort_key())


def read_rates_csv(path) -> list[dict]:
    """Rows grouped per instance, in BucketKey order.

    Each entry: {"key": BucketKey, "quantity": [15], "density": [15]}.
    Every instance needs one row per tick 1..15.  Ticks and quantities
    are whole numbers in ASCII digits.  An instance's quantities sum to
    a positive total, and each density is the float quantity / total,
    as ``write_rates_csv`` forms it; anything else raises ValueError
    naming the path, bucket, side and tick.
    """
    instances = _read_tally_csv(path, ARRIVAL_TICKS,
                                {"quantity": (partial(_whole, "quantity"),
                                              0),
                                 "density": (float, 0.0)},
                                complete=True)
    for inst in instances:
        total = sum(inst["quantity"])
        for tick, (q, density) in enumerate(
                zip(inst["quantity"], inst["density"]), start=1):
            if not (total > 0 and density == q / total):
                key = inst["key"]
                raise ValueError(
                    f"{path}: {key.label} {key.side.name.lower()} tick "
                    f"{tick}: density {density!r} is not quantity / total "
                    f"= {q} / {total}")
    return instances


def read_cancels_csv(path) -> list[dict]:
    """Rows grouped per instance, in BucketKey order.

    Each entry: {"key": BucketKey, "count": [10], "mean_ratio": [10]}.
    Ticks absent from the file stay at count 0 / ratio None.  A row's
    count is a whole number in ASCII digits, 1 or more, since
    ``write_cancels_csv`` writes only ticks with cancels.
    """
    return _read_tally_csv(path, CANCEL_TICKS,
                           {"count": (partial(_whole, "count", least=1), 0),
                            "mean_ratio": (float, None)},
                           complete=False)


def __getattr__(name):
    if name in _MOVED:
        from lobfit import book
        return getattr(book, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
