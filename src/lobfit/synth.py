"""Seeded order-flow generator with a known ground truth.

The generator emits complete binary sessions, one per weekday, and
tallies what each of its draws implies, with no book and no event
object: each arrival and cancel is one increment in its session's cube
(``TallyStore.session_cube``), at the row bases ``rates.ARRIVAL_ROWS``
and ``rates.CANCEL_ROWS`` that ``rates.tally_stream`` also uses.  That
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
Cancels carry the timestamp of the arrival that triggered them.  One
cancel loop serves both styles: a full cancel is a Delete of the whole
``remaining``, a fraction cancel a Cancel of ``int(share * remaining)
or 1``, where only the fraction style draws the shares, and an order
leaves the cancelable set once its amount is its remainder.

Session k draws from its own numpy PCG64 stream, the seed's stream
jumped k times (``PCG64(seed).jumped(k)``), the jump-ahead that PCG is
built for (O'Neill 2014, HMC-CS-2014-0905).  Session 0's stream is
``default_rng(seed)``'s.  No session depends on another's draws, so
``generate_session`` makes any one of them alone, the stream of a spec
cut to its first days is the start of the spec's stream, and ``lobfit
synth`` makes the sessions in parallel.  A session draws its
offsets, sides, ticks and quantities in four bulk calls, and each
arrival one ``binomial`` for its number of hits.  The hits and the
fraction style's shares are the draws of numpy's ``choice(len, hits,
replace=False)`` and ``random(hits)``, made by ``_cancel_draws`` from
one ``bit_generator.random_raw`` call without ``choice``'s per-call
cost: Floyd's picks over Lemire's bounded 32-bit draws from the raw
words, and each share as PCG64's next double, a word's top 53 bits.
PCG64 keeps back the high half of a word for its next 32-bit draw,
which ``random_raw``, ``random`` and ``binomial`` skip, so a session
reads that half from ``bit_generator.state`` after its bulk draws.
The generator is dropped when its session ends, so nothing is written
back.  The stream bytes are those of numpy's own calls.

Invariant: within a session, from the first ladder pair on,
``best_bid`` and ``best_ask`` stay at ``initial_mid - tick_size`` and
``initial_mid + tick_size`` after every message.  The ladder's top
levels are never canceled and no arrival improves on them, so ladder
rung i is tick i, an arrival's tick is its drawn distance and a
cancel's tick is its order's.  Whether an order is cancelable is fixed
when it arrives, and the cancel step's picks index one list of the
cancelable arrivals still resting, in arrival order, with no scan of
the book and no copy of the list; the orders a step cancels whole
leave it once the step is done, highest index first.

Session ids encode the session date as YYYYMMDD
(``rates.date_to_session_id``), which is how the pipeline recovers
dates when reading a stream back.

The generator writes wire bytes: each message is packed by
``feed.pack_add``, ``feed.pack_cancel`` or ``feed.pack_delete`` as it
is drawn, and ``feed.session_framer`` frames a session's messages.
Once an arrival and its cancels have filled a frame's 1000 messages,
the whole frames go on to the writer, and the session's last, short
frame goes when it ends, so frames reach the writer as they fill.
Given a writer, ``generate`` holds one session's draws plus one frame,
whatever the number of days.
No ``MarketMessage`` is built, so its per-message checks do not run;
the spec's bounds are the range checks instead.  ``SynthSpec`` proves
once that every price lies in ``initial_mid -/+ 15 * tick_size``,
which is positive and fits a u32, that the order ids fit a u64 (each
session places 30 ladder orders and one order per arrival, so session
k's are counted from ``1 + k * (30 + orders_per_day)``), and that both
models' tick curves can be drawn, so no stream is started that cannot
be finished.  Quantities lie in 1..200, sides are 0 or 1 and arrivals
fall within trading hours by construction, so each has a cube row.

``SynthSpec`` and ``GroundTruth`` are ``dist.Record`` classes, built
and compared as the model families are.
"""

from __future__ import annotations

import bisect
import datetime as dt
import itertools
import json
from enum import Enum
from typing import Callable

import numpy as np
# numpy loads its random module on first use; loaded with this module,
# it is loaded once, before lobfit synth forks its session workers
from numpy.random import PCG64, Generator

from lobfit import dist, feed, rates
from lobfit.errors import DomainError, SpecError
from lobfit.feed import (_FRAME_MESSAGES, MAX_ORDER_ID, MAX_PRICE, pack_add,
                         pack_cancel, pack_delete)
from lobfit.rates import Side

__all__ = [
    "CancelStyle",
    "SynthSpec",
    "GroundTruth",
    "default_calendar",
    "generate",
    "generate_session",
    "spec_payload",
    "ground_truth_payload",
    "write_ground_truth",
]

_NS_PER_HOUR = rates.NS_PER_HOUR
_MORNING_OPEN = rates.MORNING_HOURS[0] * _NS_PER_HOUR
_MORNING_SPAN = (rates.MORNING_HOURS[1]
                 - rates.MORNING_HOURS[0]) * _NS_PER_HOUR
# an offset past the morning span lands this far into the day
_AFTERNOON_SHIFT = (rates.AFTERNOON_HOURS[0] * _NS_PER_HOUR
                    - _MORNING_SPAN)
_SESSION_SPAN = rates.HOUR_SLOTS * _NS_PER_HOUR
_LADDER_TIME = 9 * _NS_PER_HOUR + 30 * 60 * 1_000_000_000

# one resting level per tick of the arrival window
_LADDER_LEVELS = rates.ARRIVAL_TICKS
_LADDER_QUANTITY = 200
_MAX_ARRIVAL_QUANTITY = 100
# only orders inside the tallied cancel window are canceled
_CANCELABLE_TICKS = rates.CANCEL_TICKS
# a PCG64 word's low half, and the unit of its 53-bit doubles
_LOW32 = 0xFFFFFFFF
_DOUBLE_UNIT = 2.0 ** -53


class CancelStyle(Enum):
    FULL = "full"
    UNIFORM_FRACTION = "uniform_fraction"


class SynthSpec(dist.Record):
    """What to generate: ``seed``, ``buy_model``, ``sell_model``, and
    ``days``, ``orders_per_day``, ``cancel_probability``,
    ``cancel_style``, ``tick_size``, ``initial_mid`` and ``start``,
    which have defaults."""

    __slots__ = ("seed", "buy_model", "sell_model", "days",
                 "orders_per_day", "cancel_probability", "cancel_style",
                 "tick_size", "initial_mid", "start")
    _defaults = (40, 2000, 0.08, CancelStyle.FULL, 1, 10_000,
                 dt.date(2017, 8, 1))

    def _check(self):
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
        if self.initial_mid + _LADDER_LEVELS * self.tick_size > MAX_PRICE:
            raise SpecError(
                f"initial_mid {self.initial_mid} + {_LADDER_LEVELS} * "
                f"tick_size {self.tick_size} exceeds the largest price "
                f"{MAX_PRICE}")
        if (self.days * (self.orders_per_day + 2 * _LADDER_LEVELS)
                > MAX_ORDER_ID):
            raise SpecError(
                f"days {self.days} of orders_per_day {self.orders_per_day} "
                f"need order ids past {MAX_ORDER_ID}")
        # raises unless the calendar's last weekday is a date
        _last_weekday(self.days, self.start)
        families = tuple(dist.FAMILY_TAGS.values())
        for name, model in (("buy_model", self.buy_model),
                            ("sell_model", self.sell_model)):
            if not isinstance(model, families):
                raise SpecError(f"{name} is not a model family: {model!r}")
            # a stream is written as it is drawn, so a curve that cannot
            # be drawn is refused here, before any of it
            try:
                dist.tick_curve(model)
            except DomainError as exc:
                raise SpecError(f"{name}: {exc}") from None
        if not 0 <= self.seed < 2 ** 64:
            raise SpecError(f"seed must fit in 64 bits, got {self.seed}")


class GroundTruth(dist.Record):
    """The generator's own record of what it emitted: its ``spec`` and
    the ``store`` of its tallies."""

    __slots__ = ("spec", "store")


def _last_weekday(days: int, start: dt.date) -> int:
    """The ordinal of the last of the first `days` weekdays from `start`.

    Worked out in ordinals, which do not overflow, and checked against
    `datetime.date.max`.
    """
    first, weekday = start.toordinal(), start.weekday()
    if weekday > 4:  # a weekend start moves on to Monday
        first, weekday = first + 7 - weekday, 0
    weeks, rest = divmod(days - 1, 5)
    last = first + 7 * weeks + rest + (2 if weekday + rest > 4 else 0)
    if last > dt.date.max.toordinal():
        raise SpecError(f"days {days} from start {start} end after the "
                        f"last date, {dt.date.max}")
    return last


def default_calendar(days: int,
                     start: dt.date = dt.date(2017, 8, 1)) -> list[dt.date]:
    """The first `days` weekdays from `start` onward."""
    if days < 1:
        raise SpecError(f"days must be >= 1, got {days}")
    days_on = map(dt.date.fromordinal,
                  range(start.toordinal(), _last_weekday(days, start) + 1))
    return [day for day in days_on if day.weekday() < 5]


def _cumulative(curve) -> list[float]:
    out = []
    acc = 0.0
    for v in curve:
        acc += v
        out.append(acc)
    out[-1] = 1.0
    return out


def generate(spec: SynthSpec,
             write: Callable[[bytes], object] | None = None,
             ) -> tuple[bytes, GroundTruth]:
    """Emit the byte stream and the tallies of what went into it.

    The sessions are made one after another by ``generate_session``.
    With ``write``, each frame goes to ``write`` as soon as it holds its
    1000 messages, and each session's last, short frame when the session
    ends; nothing of the stream is kept, and the returned bytes are
    ``b""``.  Without it, the frames are joined and returned.
    """
    store = rates.TallyStore()
    chunks = None
    if write is None:
        chunks = []
        write = chunks.append
    for index, session_date in enumerate(default_calendar(spec.days,
                                                          spec.start)):
        store.merge(generate_session(spec, index, session_date, write))
    blob = b"" if chunks is None else b"".join(chunks)
    return blob, GroundTruth(spec=spec, store=store)


def generate_session(spec: SynthSpec, index: int, session_date: dt.date,
                     write: Callable[[bytes], object]) -> rates.TallyStore:
    """Emit session `index` of `spec`, dated `session_date`, and return
    the store of its tallies.

    Its frames go to `write` as they fill.  The session draws from the
    seed's PCG64 stream jumped `index` times and numbers its orders from
    ``1 + index * (2 * 15 + orders_per_day)``, so it depends on nothing
    but its arguments, and gives the same bytes alone as in `generate`.
    """
    rng = Generator(PCG64(spec.seed).jumped(index))
    cumulative = (_cumulative(dist.tick_curve(spec.buy_model)),
                  _cumulative(dist.tick_curve(spec.sell_model)))
    order_ids = itertools.count(
        1 + index * (2 * _LADDER_LEVELS + spec.orders_per_day))
    store = rates.TallyStore()
    flush = feed.session_framer(rates.date_to_session_id(session_date),
                                write)
    tick = spec.tick_size
    packed = []
    emit = packed.append
    # the ladder is never canceled and arrivals rest at or behind the
    # touch, so the best prices stay put for the whole session
    touch = (spec.initial_mid - tick, spec.initial_mid + tick)
    step = (-tick, tick)
    cube = store.session_cube(session_date)
    arrived, ratio_sum, count = cube.quantity, cube.ratio_sum, cube.count
    arrival_rows, cancel_rows = rates.ARRIVAL_ROWS, rates.CANCEL_ROWS

    for i in range(1, _LADDER_LEVELS + 1):
        ts = _LADDER_TIME + i
        for s in Side:
            emit(pack_add(ts, next(order_ids), s, touch[s] + (i - 1) * step[s],
                          _LADDER_QUANTITY))
    # the ladder is placed before the open, so none of it is tallied
    store.out_of_hours += len(Side) * _LADDER_LEVELS

    n = spec.orders_per_day
    offsets = np.sort(rng.integers(0, _SESSION_SPAN, size=n)).tolist()
    sides = rng.integers(0, 2, size=n).tolist()
    tick_draws = rng.random(n).tolist()
    quantities = rng.integers(1, _MAX_ARRIVAL_QUANTITY + 1,
                              size=n).tolist()
    probability = spec.cancel_probability
    fraction = spec.cancel_style is CancelStyle.UNIFORM_FRACTION
    binomial = rng.binomial
    bits = rng.bit_generator
    raw = bits.random_raw
    # the half word that the bulk 32-bit draws kept back, which the
    # cancel draws below read and keep
    state = bits.state
    carry = (state["has_uint32"], state["uinteger"])
    # resting quantity per side and tick of the cancel window
    resting = [[_LADDER_QUANTITY] * _CANCELABLE_TICKS for _ in Side]
    # [oid, side, tick, remaining] of the resting arrivals inside the
    # cancel window, in arrival order, so the cancel picks index it; an
    # arrival's distance from the fixed touch decides once whether it
    # can ever be canceled
    live: list[list] = []

    for offset, s, u, quantity in zip(offsets, sides, tick_draws,
                                      quantities):
        # the whole frames the last arrival filled go on to the writer
        if len(packed) >= _FRAME_MESSAGES:
            flush(packed)
        ts = (_MORNING_OPEN + offset if offset < _MORNING_SPAN
              else _AFTERNOON_SHIFT + offset)
        hour = ts // _NS_PER_HOUR
        # u < 1.0, the last edge, so the index is at most len - 1
        distance = bisect.bisect_right(cumulative[s], u) + 1
        oid = next(order_ids)
        emit(pack_add(ts, oid, s, touch[s] + (distance - 1) * step[s],
                      quantity))
        arrived[arrival_rows[s][hour] + distance] += quantity
        if distance <= _CANCELABLE_TICKS:
            live.append([oid, s, distance, quantity])
            resting[s][distance - 1] += quantity
        if not (probability and live):
            continue
        hits = int(binomial(len(live), probability))
        if not hits:
            continue
        # numpy's choice(len, hits, replace=False), sorted, and for
        # fraction cancels random(hits): each share is PCG64's next double
        chosen, shares, carry = _cancel_draws(raw, carry, len(live), hits,
                                              fraction)
        bases = (cancel_rows[0][hour], cancel_rows[1][hour])
        # the picks of the orders this arrival's cancels take whole
        gone = []
        for idx, share in zip(chosen, shares):
            order = live[idx]
            oid, side, level, remaining = order
            if fraction:
                amount = int(share * remaining) or 1
                emit(pack_cancel(ts, oid, amount))
            else:
                amount = remaining
                emit(pack_delete(ts, oid))
            row = resting[side]
            i = bases[side] + level
            ratio_sum[i] += amount / row[level - 1]
            count[i] += 1
            row[level - 1] -= amount
            if amount == remaining:
                gone.append(idx)
            else:
                order[3] = remaining - amount
        # highest first, so each pick still indexes its order
        for idx in reversed(gone):
            del live[idx]
    flush(packed, last=True)
    return store


def _cancel_draws(raw, carry, pop, size, fraction):
    """numpy's ``choice(pop, size, replace=False)``, sorted, and for
    `fraction` its ``random(size)`` after it, made from PCG64's raw words.

    `raw` is the generator's ``bit_generator.random_raw`` and `carry`
    its kept-back half word as ``(has_uint32, uinteger)``.  Returns the
    sorted picks, the shares (``None`` each unless `fraction`) and the
    carry that numpy's two calls would leave, so the stream goes on as
    if they had been made.  `pop` is below ``2 ** 32``.

    Each pick is bounded by Lemire's 32-bit multiply-and-reject (Lemire
    2019, ACM TOMACS 29(1)), and a 32-bit draw is the kept-back high
    half, or else the low half of a new word, whose high half is then
    kept back.  numpy picks by Floyd's algorithm (Bentley & Floyd 1987,
    CACM 30(9)), one draw per step past j = 0, then shuffles the picks
    with ``size - 1`` draws that move them but do not change the set;
    when ``pop > 10000`` and ``size > pop // 50`` it shuffles the last
    `size` slots of ``arange(pop)`` instead.  A share is the next word's
    top 53 bits over ``2 ** 53``.  One ``raw`` call fetches the words
    the draws take if none is rejected; a rejection fetches one more
    word whenever the fetched ones run out.
    """
    has, value = carry
    tail = pop > 10000 and size > pop // 50
    if tail:
        bounds = range(pop - 1, max(pop - size, 1) - 1, -1)
        draws = len(bounds)
    else:
        start = pop - size
        draws = 2 * size - 1 - (start == 0)
    # the new words the draws split, when none is rejected
    count = (draws - has + 1) // 2
    words = raw(count + size if fraction else count).tolist()
    # the 32-bit draws, in the order numpy takes them
    halves = [value] if has else []
    for w in words[:count]:
        halves += (w & _LOW32, w >> 32)
    at = 0
    if tail:
        first = bounds.stop + 1
        # the value of each slot the shuffle has swapped
        moved = {}
        picks = []
        for i in bounds:
            bound = i + 1
            m = halves[at] * bound
            at += 1
            if m & _LOW32 < bound:
                m, at = _rejected(m, bound, halves, at, i - first, words,
                                  raw, has)
            j = m >> 32
            picks.append(moved.get(j, j))
            moved[j] = moved.get(i, i)
        if size == pop:
            # slot 0, where the shuffle stops
            picks.append(moved.get(0, 0))
    else:
        picks = set()
        if not start:
            picks.add(0)
            start = 1
        # step j draws below bound = j + 1
        for bound in range(start + 1, pop + 1):
            m = halves[at] * bound
            at += 1
            if m & _LOW32 < bound:
                m, at = _rejected(m, bound, halves, at, pop + size - 1 - bound,
                                  words, raw, has)
            v = m >> 32
            picks.add(bound - 1 if v in picks else v)
        # the shuffle's draws, from slot size - 1 down to slot 1: their
        # values move no pick, so only a rejection matters
        for bound in range(size, 1, -1):
            at += 1
            if halves[at - 1] * bound & _LOW32 < bound:
                at = _rejected(halves[at - 1] * bound, bound, halves, at,
                               bound - 2, words, raw, has)[1]
    if fraction:
        used = (len(halves) - has) // 2
        short = used + size - len(words)
        if short > 0:
            words += raw(short).tolist()
        shares = [(w >> 11) * _DOUBLE_UNIT for w in words[used:]]
    else:
        shares = [None] * size
    carry = (len(halves) - at, halves[-1]) if halves else (0, value)
    return sorted(picks), shares, carry


def _rejected(m, bound, halves, at, left, words, raw, has):
    """Lemire's rejection for a draw ``m = halves[at - 1] * bound`` whose
    low word is below `bound`, with `left` draws to come after it.

    Draws again while the low word is below ``2 ** 32 % bound``, then
    tops `halves` up so that `left` draws remain.  Returns the accepted
    `m` and the index of the next draw.
    """
    threshold = (_LOW32 + 1 - bound) % bound
    while m & _LOW32 < threshold:
        if at == len(halves):
            _next_halves(halves, words, raw, has)
        m = halves[at] * bound
        at += 1
    while len(halves) - at < left:
        _next_halves(halves, words, raw, has)
    return m, at


def _next_halves(halves, words, raw, has):
    """Append the next word's two halves to `halves`: the next of
    `words`, or a new word, which joins `words`, once they are spent."""
    k = (len(halves) - has) // 2
    if k == len(words):
        words.append(raw())
    w = words[k]
    halves += (w & _LOW32, w >> 32)


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
