"""Seeded order-flow generator with a known ground truth.

The generator emits complete binary sessions, one per weekday, and
tallies the book event each of its draws implies, with no book.  That
is the GroundTruth: not the analytic curve the ticks were drawn from,
but the exact per-bucket tallies of what was emitted.  A pipeline that
re-reads the bytes through the book must reproduce those tallies to the
last unit; any gap is a bug, not noise.
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
remainder: cancels follow what rests (Cont, Stoikov & Talreja 2010).
Cancels carry the timestamp of the arrival that triggered them.

Invariant: within a session, from the first ladder pair on,
``best_bid`` and ``best_ask`` stay at ``initial_mid - tick_size`` and
``initial_mid + tick_size`` after every message.  The ladder's top
levels are never canceled and no arrival improves on them, so ladder
rung i is tick i, an arrival's tick is its drawn distance and a
cancel's tick is its order's.  Whether an order is cancelable is fixed
when it arrives, and the cancel step draws from the cancelable
arrivals still resting, in arrival order, with no scan of the book.

Session ids encode the session date as YYYYMMDD
(``rates.date_to_session_id``), which is how the pipeline recovers
dates when reading a stream back.
"""

from __future__ import annotations

import bisect
import datetime as dt
import itertools
import json
from dataclasses import dataclass
from enum import Enum

import numpy as np

from lobfit import dist, feed, rates
from lobfit.book import BookEvent, EventKind
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
_SIDES = (Side.BUY, Side.SELL)
_ARRIVAL = EventKind.LIMIT_ARRIVAL
_CANCEL = EventKind.CANCEL


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


def generate(spec: SynthSpec) -> tuple[bytes, GroundTruth]:
    """Emit the full byte stream and the tallies of what went into it."""
    rng = np.random.default_rng(spec.seed)
    store = rates.TallyStore()
    cumulative = (_cumulative(dist.tick_curve(spec.buy_model)),
                  _cumulative(dist.tick_curve(spec.sell_model)))
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
    messages = []
    # the ladder is never canceled and arrivals rest at or behind the
    # touch, so the best prices stay put for the whole session
    touch = (spec.initial_mid - tick, spec.initial_mid + tick)
    step = (-tick, tick)

    def emit(msg, event):
        messages.append(msg)
        rates.accumulate_event(store, event, session_date)

    def add(ts, s, distance, quantity) -> int:
        oid = next(order_ids)
        side = _SIDES[s]
        emit(MarketMessage.add(ts, oid, side,
                               touch[s] + (distance - 1) * step[s],
                               quantity),
             BookEvent(_ARRIVAL, side, ts, distance, quantity))
        return oid

    for i in range(1, _LADDER_LEVELS + 1):
        for s in range(len(_SIDES)):
            add(_LADDER_TIME + i, s, i, _LADDER_QUANTITY)

    n = spec.orders_per_day
    offsets = np.sort(rng.integers(0, _SESSION_SPAN, size=n)).tolist()
    sides = rng.integers(0, 2, size=n).tolist()
    tick_draws = rng.random(n).tolist()
    quantities = rng.integers(1, _MAX_ARRIVAL_QUANTITY + 1,
                              size=n).tolist()
    probability = spec.cancel_probability
    fraction = spec.cancel_style is CancelStyle.UNIFORM_FRACTION
    # resting quantity per side and tick of the cancel window
    resting = [[_LADDER_QUANTITY] * _CANCELABLE_TICKS for _ in _SIDES]
    # [side, tick, remaining] of the resting arrivals inside the cancel
    # window, in arrival order; an arrival's distance from the fixed
    # touch decides once whether it can ever be canceled
    live: dict[int, list] = {}

    for offset, s, u, quantity in zip(offsets, sides, tick_draws,
                                      quantities):
        ts = _timestamp(offset)
        # u < 1.0, the last edge, so the index is at most len - 1
        distance = bisect.bisect_right(cumulative[s], u) + 1
        oid = add(ts, s, distance, quantity)
        if distance <= _CANCELABLE_TICKS:
            live[oid] = [_SIDES[s], distance, quantity]
            resting[s][distance - 1] += quantity
        if probability > 0.0:
            _cancel_step(ts, live, resting, probability, fraction, rng, emit)
    return messages


def _cancel_step(ts, live, resting, probability, fraction, rng, emit) -> None:
    if not live:
        return
    candidates = list(live)
    hits = int(rng.binomial(len(candidates), probability))
    if hits == 0:
        return
    chosen = sorted(rng.choice(len(candidates), size=hits,
                               replace=False).tolist())
    # PCG64 gives the same doubles in one call as in `hits` calls
    shares = rng.random(hits).tolist() if fraction else [1.0] * hits
    for idx, u in zip(chosen, shares):
        oid = candidates[idx]
        side, tick, remaining = order = live[oid]
        amount = max(1, int(u * remaining))
        emit(MarketMessage.cancel(ts, oid, amount) if fraction
             else MarketMessage.delete(ts, oid),
             BookEvent(_CANCEL, side, ts, tick, amount,
                       resting[side][tick - 1]))
        resting[side][tick - 1] -= amount
        order[2] -= amount
        if not order[2]:
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
