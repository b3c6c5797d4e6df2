"""``lobfit rates``: replay streams and write the tally CSVs.

Only this command loads this module.  It loads ``feed``, ``rates`` and
the fork pool in ``lobfit.pool``, and no fitting or statistics module;
without bytecode caches, a command compiles every module it imports.
"""

from __future__ import annotations

import functools
import os

from lobfit import feed, rates
from lobfit.errors import FormatError, LobfitError, SpecError
from lobfit.pool import _map_on_cpus
from lobfit.rates import Granularity, Side, TickReference


def parse_granularities(text: str) -> list[Granularity]:
    out = []
    for part in text.split(","):
        name = part.strip().lower()
        try:
            g = Granularity(name)
        except ValueError:
            raise ValueError(f"unknown granularity {name!r}") from None
        out.append(g)
    return out


def _read(path, start: int = 0, stop: int | None = None) -> bytes:
    """The bytes of ``path`` from ``start`` to ``stop`` (None: its end)."""
    with open(path, "rb") as fh:
        fh.seek(start)
        return fh.read(-1 if stop is None else stop - start)


def _session_runs(paths) -> tuple[list, Exception | None]:
    """The input's sessions, each as its stream position and its spans
    ``(path, start, stop)`` of the input files, the longest first, and
    the split's fault or None.  Each worker of ``_map_on_cpus`` takes
    every n-th session, so that order keeps their shares of the bytes
    about even.  A format error names its file and the byte offset of
    its frame there."""
    runs, fault = feed.session_runs(map(_read, paths))
    if fault is not None:
        index, offset, fault = fault
        if isinstance(fault, FormatError):
            fault = type(fault)(
                f"{paths[index]}: frame at byte {offset}: {fault}")
    runs = [(position, [(paths[i], start, stop) for i, start, stop in run])
            for position, run in enumerate(runs)]
    runs.sort(key=lambda run: sum(stop - start for _, start, stop in run[1]),
              reverse=True)
    return runs, fault


def _session_label(path, start: int) -> str:
    """The date of the session whose frame starts at ``start`` in
    ``path``, or its id if that encodes no date."""
    # a frame header holds its session id in bytes 4 to 8
    session_id = int.from_bytes(_read(path, start + 4, start + 8), "big")
    try:
        return rates.session_id_to_date(session_id).isoformat()
    except SpecError:
        return str(session_id)


def _tally_run(run, tick_size, reference):
    """Tally one session, given as its stream position and its spans,
    in its own store.  Returns the position with the store and the
    messages applied, or with the input error the replay raised.  A
    lobfit error comes back as a new error of its class whose message
    also names the file of the span replayed and the session."""
    position, spans = run
    store = rates.TallyStore()
    replayed = []  # the path of each span, as the replay takes it

    def blobs():
        for path, start, stop in spans:
            replayed.append(path)
            yield _read(path, start, stop)

    try:
        return position, (store, rates.tally_stream(
            store, blobs(), tick_size, reference))
    except LobfitError as exc:
        session = _session_label(*spans[0][:2])
        return position, type(exc)(f"{replayed[-1]}: session {session}: "
                                   f"{exc}")
    except (OSError, ValueError) as exc:
        return position, exc


def cmd_rates(args) -> None:
    granularities = parse_granularities(args.granularity)
    sides = (tuple(Side) if args.side == "both"
             else (Side[args.side.upper()],))
    reference = TickReference(args.reference)
    store = rates.TallyStore()
    # each session starts on an empty book and keeps its own sums, so the
    # sessions are tallied apart and merged in any order; every run lies
    # before the split's fault, and sessions do not interleave, so stream
    # order is the order a replay meets their errors
    tally_run = functools.partial(_tally_run, tick_size=args.tick_size,
                                  reference=reference)
    runs, fault = _session_runs(args.inputs)
    seen = 0
    for _, result in sorted(_map_on_cpus(tally_run, runs),
                            key=lambda done: done[0]):
        if isinstance(result, Exception):
            raise result
        store.merge(result[0])
        seen += result[1]
    if fault is not None:
        raise fault
    if seen == 0:
        raise LobfitError("input contains no messages")

    def selected(tallies: dict) -> dict:
        # the store holds every bucket; the flags pick those written
        return {key: tally for key, tally in tallies.items()
                if key.granularity in granularities and key.side in sides}

    os.makedirs(args.out, exist_ok=True)
    rates.write_rates_csv(selected(store.arrivals),
                          os.path.join(args.out, "rates.csv"))
    rates.write_cancels_csv(selected(store.cancels),
                            os.path.join(args.out, "cancels.csv"))
