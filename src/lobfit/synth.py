"""Seeded order-flow generator with a known ground truth.

The generator emits complete binary sessions, one per weekday, and at
the same time replays its own output through the real book and tally
code.  What comes back from that replay is the GroundTruth: not the
analytic curve the ticks were drawn from, but the exact per-bucket
tallies of what was emitted.  A pipeline that re-reads the bytes must
reproduce those tallies to the last unit; any gap is a bug, not noise.
Convergence of the measured densities to the analytic curve is a
separate, statistical question.

Each session opens with a 15-level ladder per side placed before the
trading window, so the first measured arrival already has a defined
tick distance.  Ladder orders are never canceled; they keep both sides
nonempty for the whole session.  Arrivals draw a tick from the side's
model curve and rest at that distance from the current best price.
After every arrival, each cancelable resting order (a non-ladder order
within the first 10 ticks) is canceled independently with the
configured probability, either in full or by a uniform fraction of its
remainder.
Cancels carry the timestamp of the arrival that triggered them.

Session ids encode the session date as YYYYMMDD
(``rates.date_to_session_id``), which is how the pipeline recovers
dates when reading a stream back.
"""

from __future__ import annotations

import datetime as dt
import itertools
import json
from dataclasses import dataclass
from enum import Enum

import numpy as np

from lobfit import dist, feed, rates
from lobfit.book import OrderBook, TickReference
from lobfit.errors import SpecError
from lobfit.feed import MarketMessage, Side

__all__ = [
    "CancelStyle",
    "SynthSpec",
    "GroundTruth",
    "default_calendar",
    "generate",
    "spec_payload",
    "ground_truth_payload",
    "write_ground_truth",
]

_NS_PER_HOUR = rates.NS_PER_HOUR
_MORNING_OPEN = rates.MORNING_HOURS[0] * _NS_PER_HOUR
_MORNING_SPAN = (rates.MORNING_HOURS[1]
                 - rates.MORNING_HOURS[0]) * _NS_PER_HOUR
_AFTERNOON_OPEN = rates.AFTERNOON_HOURS[0] * _NS_PER_HOUR
_SESSION_SPAN = rates.HOUR_SLOTS * _NS_PER_HOUR
_LADDER_TIME = 9 * _NS_PER_HOUR + 30 * 60 * 1_000_000_000

# one resting level per tick of the arrival window
_LADDER_LEVELS = rates.ARRIVAL_TICKS
_LADDER_QUANTITY = 200
_MAX_ARRIVAL_QUANTITY = 100
# only orders inside the tallied cancel window are canceled
_CANCELABLE_TICKS = rates.CANCEL_TICKS


class CancelStyle(Enum):
    FULL = "full"
    UNIFORM_FRACTION = "uniform_fraction"


@dataclass(frozen=True, slots=True)
class SynthSpec:
    seed: int
    buy_model: object
    sell_model: object
    days: int = 40
    orders_per_day: int = 2000
    cancel_probability: float = 0.08
    cancel_style: CancelStyle = CancelStyle.FULL
    tick_size: int = 1
    initial_mid: int = 10_000
    start: dt.date = dt.date(2017, 8, 1)

    def __post_init__(self):
        if self.days < 1:
            raise SpecError(f"days must be >= 1, got {self.days}")
        if self.orders_per_day < 1:
            raise SpecError(
                f"orders_per_day must be >= 1, got {self.orders_per_day}")
        if not 0.0 <= self.cancel_probability <= 1.0:
            raise SpecError(
                f"cancel_probability must lie in [0, 1], got "
                f"{self.cancel_probability}")
        if self.tick_size < 1:
            raise SpecError(f"tick_size must be >= 1, got {self.tick_size}")
        if self.initial_mid <= (_LADDER_LEVELS + 1) * self.tick_size:
            raise SpecError(
                f"initial_mid {self.initial_mid} leaves no room for a "
                f"{_LADDER_LEVELS}-level ladder at tick size "
                f"{self.tick_size}")
        families = tuple(dist.FAMILY_TAGS.values())
        for name, model in (("buy_model", self.buy_model),
                            ("sell_model", self.sell_model)):
            if not isinstance(model, families):
                raise SpecError(f"{name} is not a model family: {model!r}")
        if not 0 <= self.seed < 2 ** 64:
            raise SpecError(f"seed must fit in 64 bits, got {self.seed}")


@dataclass(slots=True)
class GroundTruth:
    """The generator's own record of what it emitted."""

    spec: SynthSpec
    store: rates.TallyStore


def default_calendar(days: int,
                     start: dt.date = dt.date(2017, 8, 1)) -> list[dt.date]:
    """The first `days` weekdays from `start` onward."""
    if days < 1:
        raise SpecError(f"days must be >= 1, got {days}")
    out = []
    cursor = start
    while len(out) < days:
        if cursor.weekday() < 5:
            out.append(cursor)
        cursor += dt.timedelta(days=1)
    return out


def _timestamp(offset_ns: int) -> int:
    if offset_ns < _MORNING_SPAN:
        return _MORNING_OPEN + offset_ns
    return _AFTERNOON_OPEN + (offset_ns - _MORNING_SPAN)


def _cumulative(curve) -> list[float]:
    out = []
    acc = 0.0
    for v in curve:
        acc += v
        out.append(acc)
    out[-1] = 1.0
    return out


def _draw_tick(cumulative, u: float) -> int:
    for i, edge in enumerate(cumulative, start=1):
        if u < edge:
            return i
    return len(cumulative)


def generate(spec: SynthSpec) -> tuple[bytes, GroundTruth]:
    """Emit the full byte stream and the tallies of what went into it."""
    rng = np.random.default_rng(spec.seed)
    store = rates.TallyStore()
    cumulative = {
        Side.BUY: _cumulative(dist.tick_curve(spec.buy_model)),
        Side.SELL: _cumulative(dist.tick_curve(spec.sell_model)),
    }
    order_ids = itertools.count(1)
    chunks = []
    for session_date in default_calendar(spec.days, spec.start):
        messages = _generate_session(spec, session_date, rng, cumulative,
                                     order_ids, store)
        frames = feed.build_frames(rates.date_to_session_id(session_date),
                                   messages)
        chunks.extend(feed.encode_frame(f) for f in frames)
    return b"".join(chunks), GroundTruth(spec=spec, store=store)


def _generate_session(spec, session_date, rng, cumulative, order_ids,
                      store) -> list[MarketMessage]:
    tick = spec.tick_size
    book = OrderBook(tick_size=tick, reference=TickReference.SAME_SIDE)
    messages = []

    def emit(msg):
        messages.append(msg)
        for event in book.apply(msg):
            rates.accumulate_event(store, event, session_date)

    for i in range(1, _LADDER_LEVELS + 1):
        emit(MarketMessage.add(_LADDER_TIME + i, next(order_ids), Side.BUY,
                               spec.initial_mid - i * tick, _LADDER_QUANTITY))
        emit(MarketMessage.add(_LADDER_TIME + i, next(order_ids), Side.SELL,
                               spec.initial_mid + i * tick, _LADDER_QUANTITY))

    n = spec.orders_per_day
    offsets = np.sort(rng.integers(0, _SESSION_SPAN, size=n))
    sides = rng.integers(0, 2, size=n)
    tick_draws = rng.random(n)
    quantities = rng.integers(1, _MAX_ARRIVAL_QUANTITY + 1, size=n)
    live: dict[int, tuple[Side, int]] = {}

    for i in range(n):
        ts = _timestamp(int(offsets[i]))
        side = Side(int(sides[i]))
        distance = _draw_tick(cumulative[side], float(tick_draws[i]))
        if side is Side.BUY:
            price = book.best_bid - (distance - 1) * tick
        else:
            price = book.best_ask + (distance - 1) * tick
        oid = next(order_ids)
        emit(MarketMessage.add(ts, oid, side, price, int(quantities[i])))
        live[oid] = (side, price)
        if spec.cancel_probability > 0.0:
            _cancel_step(spec, ts, book, live, rng, emit)
    return messages


def _cancel_step(spec, ts, book, live, rng, emit) -> None:
    reach = (_CANCELABLE_TICKS - 1) * spec.tick_size
    bid, ask = book.best_bid, book.best_ask
    candidates = [oid for oid, (side, price) in live.items()
                  if (bid - price if side is Side.BUY else price - ask)
                  <= reach]
    if not candidates:
        return
    hits = int(rng.binomial(len(candidates), spec.cancel_probability))
    if hits == 0:
        return
    chosen = rng.choice(len(candidates), size=hits, replace=False)
    for idx in sorted(int(j) for j in chosen):
        oid = candidates[idx]
        remaining = book.orders[oid].remaining
        if spec.cancel_style is CancelStyle.FULL:
            emit(MarketMessage.delete(ts, oid))
        else:
            amount = max(1, int(rng.random() * remaining))
            emit(MarketMessage.cancel(ts, oid, amount))
        if oid not in book.orders:
            del live[oid]


# --- serialization ---

def _model_payload(model) -> dict:
    return {"family": model.tag, "params": model.params()}


def spec_payload(spec: SynthSpec) -> dict:
    return {
        "seed": spec.seed,
        "days": spec.days,
        "orders_per_day": spec.orders_per_day,
        "buy_model": _model_payload(spec.buy_model),
        "sell_model": _model_payload(spec.sell_model),
        "cancel_probability": spec.cancel_probability,
        "cancel_style": spec.cancel_style.value,
        "tick_size": spec.tick_size,
        "initial_mid": spec.initial_mid,
        "start": spec.start.isoformat(),
    }


def ground_truth_payload(gt: GroundTruth) -> dict:
    arrivals = {}
    for key in sorted(gt.store.arrivals, key=rates.BucketKey.sort_key):
        arrivals[f"{key.label}:{key.side.name.lower()}"] = list(
            gt.store.arrivals[key].quantity)
    ratio_sums = {}
    counts = {}
    for key in sorted(gt.store.cancels, key=rates.BucketKey.sort_key):
        name = f"{key.label}:{key.side.name.lower()}"
        ratio_sums[name] = list(gt.store.cancels[key].ratio_sum)
        counts[name] = list(gt.store.cancels[key].count)
    return {
        "spec": spec_payload(gt.spec),
        "arrival_quantities": arrivals,
        "cancel_ratio_sums": ratio_sums,
        "cancel_counts": counts,
        "dropped_arrivals": gt.store.dropped_arrivals,
        "dropped_cancels": gt.store.dropped_cancels,
        "out_of_hours": gt.store.out_of_hours,
    }


def write_ground_truth(path, gt: GroundTruth) -> None:
    with open(path, "w") as fh:
        json.dump(ground_truth_payload(gt), fh, indent=2, sort_keys=True)
        fh.write("\n")
