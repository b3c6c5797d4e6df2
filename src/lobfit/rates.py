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
"""

from __future__ import annotations

import csv
import datetime as dt
import operator
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable

from lobfit import feed
from lobfit.book import BookEvent, EventKind, OrderBook, TickReference
from lobfit.errors import EmptyBucket, SpecError
from lobfit.feed import Side

__all__ = [
    "ARRIVAL_TICKS",
    "CANCEL_TICKS",
    "HOUR_SLOTS",
    "NS_PER_HOUR",
    "MORNING_HOURS",
    "AFTERNOON_HOURS",
    "Granularity",
    "BucketKey",
    "ArrivalTally",
    "CancelTally",
    "TallyStore",
    "date_to_session_id",
    "session_id_to_date",
    "accumulate_event",
    "tally_stream",
    "arrival_density",
    "cancellation_ratio",
    "parse_bucket_label",
    "write_rates_csv",
    "write_cancels_csv",
    "read_rates_csv",
    "read_cancels_csv",
]

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


class Granularity(Enum):
    DAILY = "daily"
    WEEKLY = "weekly"
    MONTHLY = "monthly"
    HOURLY = "hourly"


_GRANULARITY_RANK = {g: i for i, g in enumerate(Granularity)}
_ALL_GRANULARITIES = tuple(Granularity)

# enum members as module globals: a class attribute lookup on an Enum
# costs several times more, and accumulate_event runs once per event
_ARRIVAL = EventKind.LIMIT_ARRIVAL
_CANCEL = EventKind.CANCEL
_EXECUTION = EventKind.EXECUTION


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


@dataclass(frozen=True, slots=True)
class BucketKey:
    """One tally bucket: granularity, calendar index, book side."""

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


@dataclass(slots=True)
class ArrivalTally:
    """Arriving quantity per tick, 1-based ticks stored at index tick-1."""

    quantity: list[int] = field(
        default_factory=lambda: [0] * ARRIVAL_TICKS)


@dataclass(slots=True)
class CancelTally:
    """Per-tick sum of cancellation ratios and the contributing count."""

    ratio_sum: list[float] = field(
        default_factory=lambda: [0.0] * CANCEL_TICKS)
    count: list[int] = field(default_factory=lambda: [0] * CANCEL_TICKS)


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
                 "out_of_hours", "_cubes", "_views", "_hot_cube")

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
        # the cube the last event went to, until the next roll-up
        self._hot_cube: _SessionCube | None = None

    def _open(self, session_date: dt.date) -> _SessionCube:
        cube = self._cubes.get(session_date)
        if cube is None:
            cube = self._cubes[session_date] = _SessionCube(session_date)
        self._views = None
        self._hot_cube = cube
        return cube

    def _rolled_up(self) -> tuple[dict, dict]:
        if self._views is None:
            arrivals, cancels = {}, {}
            for day in sorted(self._cubes):
                self._cubes[day].roll_into(self.granularities, arrivals,
                                           cancels)
            self._views = (arrivals, cancels)
            self._hot_cube = None
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


def accumulate_event(store: TallyStore, event: BookEvent,
                     session_date: dt.date) -> bool:
    """Tally one event under each of the store's granularities.

    Events outside trading hours are skipped and counted (the stream
    may open with book seeding before 10:00).  Arrivals beyond tick 15
    and cancels beyond tick 10 are not binned; they bump the matching
    dropped counter once per granularity of the store.  Executions are
    not tallied.  Returns True if the event was tallied or dropped.
    """
    kind = event.kind
    if kind is _EXECUTION:
        return False
    hour = event.timestamp_ns // NS_PER_HOUR
    slot = _HOUR_SLOT[hour] if 0 <= hour < 24 else 0
    if not slot:
        store.out_of_hours += 1
        return False
    cube = store._hot_cube
    if cube is None or session_date != cube.day:
        cube = store._open(session_date)
    row = event.side * HOUR_SLOTS + slot - 1
    tick = event.tick
    if kind is _ARRIVAL:
        if tick > ARRIVAL_TICKS:
            store.dropped_arrivals += len(store.granularities)
        else:
            cube.quantity[row * ARRIVAL_TICKS + tick - 1] += event.quantity
    elif kind is _CANCEL:
        if tick > CANCEL_TICKS:
            store.dropped_cancels += len(store.granularities)
        else:
            i = row * CANCEL_TICKS + tick - 1
            cube.ratio_sum[i] += event.quantity / event.level_quantity_before
            cube.count[i] += 1
    return True


def tally_stream(store: TallyStore, frames, tick_size: int = 1,
                 reference: TickReference = TickReference.SAME_SIDE,
                 sides: tuple[Side, ...] = (Side.BUY, Side.SELL)) -> int:
    """Replay frames through one book per session; tally events on ``sides``.

    Returns the number of messages applied.
    """
    sessions: dict[int, tuple] = {}  # session id -> (book, date)
    seen = 0
    for session_id, msg in feed.iter_stream(frames):
        session = sessions.get(session_id)
        if session is None:
            session = sessions[session_id] = (OrderBook(tick_size, reference),
                                              session_id_to_date(session_id))
        book, day = session
        for event in book.apply(msg):
            if event.side in sides:
                accumulate_event(store, event, day)
        seen += 1
    return seen


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
