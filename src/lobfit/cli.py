"""Batch pipeline driver.

Four subcommands chain the package into the full workflow:

    lobfit synth --seed 7 --out run/
        emit a seeded stream (run/stream.lobf) plus the generator's own
        tallies (run/ground_truth.json)

    lobfit rates run/stream.lobf --out run/
        replay the stream through the book and write run/rates.csv and
        run/cancels.csv, one row per (bucket, side, tick); each session
        starts on an empty book, so each is replayed once, in parallel,
        one worker process per CPU this process may run on; the outputs
        are byte-identical for any number of CPUs, and a bad stream
        fails with the error a replay in stream order meets first

    lobfit fit run/rates.csv --out run/
        fit every selected family to every instance and write
        run/fits.json, run/nps_summary.csv, run/welch_tests.csv;
        instances are fitted in parallel, one worker process per CPU
        this process may run on, and the outputs are byte-identical
        for any number of CPUs

    lobfit cancel-test run/cancels.csv --out run/
        chi-square uniformity of cancellation ratios per weekly and
        monthly bucket, written to run/chi_square.csv

Every command is deterministic: identical inputs and flags produce
byte-identical outputs.  Exit codes: 0 success, 1 input problem
(bad bytes, bad flags, missing files), 2 internal failure.

Model arguments use family shorthands with positional parameters,
e.g. ``dw:0.8,1.2`` (q, beta), ``geo:0.4`` (p), ``bb:2,6`` (alpha,
beta), ``exp:0.7`` (rate), ``pow:0.3,1.4`` (scale, exponent).
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import re
import sys

# only what every command needs: the fitting and statistics modules are
# imported by the commands that use them, and no command imports the
# object-level reference model in lobfit.book
from lobfit import feed, rates
from lobfit.errors import (AllZero, DomainError, FormatError,
                           InsufficientData, LobfitError, MissingTicks,
                           SpecError, ZeroVariance)
from lobfit.feed import Side
from lobfit.rates import Granularity, TickReference

_COMPARISONS = (("dw_vs_bb", "discrete_weibull", "beta_binomial"),
                ("dw_vs_pow", "discrete_weibull", "power_law"))


# --- argument parsing helpers ---

def _shorthands() -> dict[str, str]:
    """Family shorthand -> family tag, in the families' canonical order."""
    from lobfit import dist
    return {cls.shorthand: tag for tag, cls in dist.FAMILY_TAGS.items()}


def parse_model(text: str):
    """Build a model family from shorthand syntax like ``dw:0.8,1.2``."""
    # imported here: only the commands that take a model need the
    # families
    from lobfit import dist

    shorthands = _shorthands()
    head, sep, tail = text.partition(":")
    tag = shorthands.get(head.strip())
    if tag is None or not sep:
        raise ValueError(
            f"bad model {text!r}; use one of "
            f"{','.join(shorthands)} followed by ':' and parameters")
    try:
        values = [float(v) for v in tail.split(",")]
    except ValueError:
        raise ValueError(f"bad model parameters in {text!r}") from None
    family = dist.FAMILY_TAGS[tag]
    # the shorthand gives the fields without a default, in order
    arity = family.arity()
    if len(values) != arity:
        raise ValueError(
            f"{head} takes {arity} parameter(s), "
            f"got {len(values)} in {text!r}")
    return family(*values)


def parse_families(text: str) -> list[str]:
    shorthands = _shorthands()
    tags = []
    for part in text.split(","):
        tag = shorthands.get(part.strip())
        if tag is None:
            raise ValueError(
                f"unknown family {part.strip()!r}; "
                f"choose from {','.join(shorthands)}")
        if tag not in tags:
            tags.append(tag)
    return sorted(tags, key=list(shorthands.values()).index)


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


def _timestep(granularity: Granularity, side: Side) -> str:
    if granularity is Granularity.MONTHLY:
        return "monthly"
    return f"{granularity.value}_{side.name.lower()}"


_TIMESTEP_ORDER = tuple(dict.fromkeys(_timestep(g, s)
                                      for g in Granularity for s in Side))


def _instance_sort_key(inst: dict) -> tuple:
    return rates.BucketKey(*rates.parse_bucket_label(inst["bucket_key"]),
                           inst["side"]).sort_key()


def _failure_reason(exc: LobfitError) -> str:
    """Snake-case error class name, e.g. DomainError -> domain_error."""
    return re.sub(r"(?<!^)(?=[A-Z])", "_", type(exc).__name__).lower()


def _warn(message: str) -> None:
    print(f"warning: {message}", file=sys.stderr)


# --- subcommands ---

def cmd_synth(args) -> None:
    # imported here: synth pulls in numpy, which no other command needs
    from lobfit import synth

    style = (synth.CancelStyle.FULL if args.cancel_style == "full"
             else synth.CancelStyle.UNIFORM_FRACTION)
    spec = synth.SynthSpec(
        seed=args.seed,
        days=args.days,
        orders_per_day=args.orders_per_day,
        buy_model=parse_model(args.buy_model),
        sell_model=parse_model(args.sell_model),
        cancel_probability=args.cancel_probability,
        cancel_style=style,
        tick_size=args.tick_size,
        initial_mid=args.mid,
    )
    # the stream goes to disk frame by frame under a temporary name, and
    # takes its own name only once whole: a run that fails leaves no
    # shorter stream that would still replay as valid
    os.makedirs(args.out, exist_ok=True)
    stream = os.path.join(args.out, "stream.lobf")
    partial = stream + ".tmp"
    try:
        with open(partial, "wb") as fh:
            _, truth = synth.generate(spec, fh.write)
        os.replace(partial, stream)
    except BaseException:
        if os.path.exists(partial):
            os.remove(partial)
        raise
    synth.write_ground_truth(os.path.join(args.out, "ground_truth.json"),
                             truth)


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


def _fit_instance(inst: dict, families, truncated: bool) -> dict:
    from lobfit import dist, stats

    density = inst["density"]
    record = {
        "bucket_key": inst["bucket_key"],
        "side": inst["side"].name.lower(),
        "granularity": inst["granularity"].value,
        "timestep": _timestep(inst["granularity"], inst["side"]),
        "total_quantity": sum(inst["quantity"]),
        "fits": {},
        "failed": {},
    }
    l1 = {}
    for tag in families:
        # one family failing on this instance must not stop the others
        try:
            result = dist.fit_family(density, tag, truncated=truncated)
            curve = dist.tick_curve(result.family, ticks=len(density))
        except LobfitError as exc:
            record["failed"][tag] = _failure_reason(exc)
            continue
        l1[tag] = stats.l1_error(density, curve)
        record["fits"][tag] = {
            "params": result.family.params(),
            "objective": (result.objective
                          if math.isfinite(result.objective) else None),
            "converged": result.converged,
            "boundary": result.boundary,
            "starts_used": result.starts_used,
            "iterations": result.iterations,
            "l1_error": l1[tag],
        }
    for tag, score in stats.nps(l1).items():
        record["fits"][tag]["nps"] = score
    return record


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class WorkerDied(RuntimeError):
    """A worker process ended without sending its results."""


def _run_worker(fn, items: list, write_end: int, inherited: list) -> None:
    """The body of a forked worker: send ``fn`` over ``items``, or the
    first exception it raised, pickled to ``write_end``, then exit.
    Never returns, so nothing of the parent's stack runs here."""
    status = 1
    try:
        import pickle  # loaded already, by the parent

        # the read ends, this worker's own among them: with them closed, a
        # write fails, rather than blocks, once the parent is gone
        for fd in inherited:
            os.close(fd)
        try:
            reply = (True, [fn(item) for item in items])
        except Exception as exc:
            reply = (False, exc)
        with open(write_end, "wb") as out:
            pickle.dump(reply, out)
        status = 0
    finally:
        os._exit(status)


def _map_on_cpus(fn, items: list) -> list:
    """``fn`` over ``items`` in forked workers, one per usable CPU.

    Worker ``k`` of ``n`` runs ``items[k::n]`` and sends its results
    back through its own pipe.  Results come back in the order of
    ``items`` for any number of workers.  A worker's exception is raised
    here again, with its class and message.  A worker that dies or sends
    nothing raises WorkerDied, naming its exit status, instead of
    hanging.  Every worker is reaped before this returns or raises; if
    this process fails itself, the workers still running are killed.
    """
    # imported here: only the commands that fork workers need them
    import pickle
    import signal

    if not items:
        return []
    workers = min(_usable_cpus(), len(items))
    pids, pipes = [], []
    try:
        for k in range(workers):
            read_end, write_end = os.pipe()
            pipes.append(read_end)
            try:
                pid = os.fork()
                if pid == 0:
                    _run_worker(fn, items[k::workers], write_end, pipes)
            finally:
                # the parent's copy: the read end sees EOF once the
                # worker's copy is closed
                os.close(write_end)
            pids.append(pid)
        replies = []
        for k, read_end in enumerate(pipes):
            with open(read_end, "rb") as fh:
                pipes[k] = None
                replies.append(fh.read())
        statuses = []
        for k, pid in enumerate(pids):
            statuses.append(os.waitpid(pid, 0)[1])
            pids[k] = None
    finally:
        for fd in pipes:
            if fd is not None:
                os.close(fd)
        for pid in pids:
            if pid is not None:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    results = [None] * len(items)
    for k, (reply, status) in enumerate(zip(replies, statuses)):
        if status or not reply:
            raise WorkerDied(
                f"worker {k + 1} of {workers} ended with exit status "
                f"{os.waitstatus_to_exitcode(status)} and sent no result")
        ok, value = pickle.loads(reply)
        if not ok:
            raise value
        results[k::workers] = value
    return results


def cmd_fit(args) -> None:
    import json
    import statistics

    from lobfit import stats

    families = parse_families(args.families)
    instances = rates.read_rates_csv(args.rates)
    if not instances:
        raise LobfitError(f"no instances in {args.rates}")
    instances.sort(key=_instance_sort_key)
    # each instance's fit depends on no other, and the pool keeps the
    # sorted order, so the outputs are the same bytes for any number of
    # workers
    fit_one = functools.partial(_fit_instance, families=families,
                                truncated=args.truncated_likelihood)
    records = _map_on_cpus(fit_one, instances)

    scores: dict[tuple[str, str], list[float]] = {}
    for record in records:
        for tag, fit in record["fits"].items():
            scores.setdefault((record["timestep"], tag), []).append(
                fit["nps"])
            # as for objective: fits.json stays standard JSON
            if not math.isfinite(fit["nps"]):
                fit["nps"] = None

    os.makedirs(args.out, exist_ok=True)
    payload = {
        "families": list(families),
        "truncated_likelihood": bool(args.truncated_likelihood),
        "instances": records,
    }
    with open(os.path.join(args.out, "fits.json"), "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")

    with open(os.path.join(args.out, "nps_summary.csv"), "w",
              newline="") as fh:
        fh.write("timestep,family,mean_nps,sd_nps,instances\n")
        for timestep in _TIMESTEP_ORDER:
            for tag in families:
                values = scores.get((timestep, tag))
                if not values:
                    continue
                if len(values) == 1:
                    sd = 0.0
                elif all(math.isfinite(v) for v in values):
                    sd = statistics.stdev(values)
                else:  # the spread of an infinite score is undefined
                    sd = math.nan
                fh.write(f"{timestep},{tag},{statistics.mean(values)!r},"
                         f"{sd!r},{len(values)}\n")

    with open(os.path.join(args.out, "welch_tests.csv"), "w",
              newline="") as fh:
        fh.write("timestep,comparison,t_statistic,degrees_of_freedom,"
                 "p_value,degenerate\n")
        for timestep in _TIMESTEP_ORDER:
            for name, left, right in _COMPARISONS:
                a = scores.get((timestep, left))
                b = scores.get((timestep, right))
                if not a or not b:
                    continue
                try:
                    result = stats.welch_t_test(a, b, tails=args.tail)
                except (DomainError, InsufficientData, ZeroVariance) as exc:
                    _warn(f"{timestep} {name}: {exc}")
                    continue
                fh.write(f"{timestep},{name},{result.statistic!r},"
                         f"{result.df!r},{result.p_value!r},"
                         f"{str(result.degenerate).lower()}\n")


def cmd_cancel_test(args) -> None:
    from lobfit import stats

    instances = rates.read_cancels_csv(args.cancels)
    tested = [inst for inst in instances
              if inst["granularity"] in (Granularity.WEEKLY,
                                         Granularity.MONTHLY)]
    tested.sort(key=_instance_sort_key)
    rows = []
    for inst in tested:
        label = f"{inst['bucket_key']} {inst['side'].name.lower()}"
        try:
            if any(r is None for r in inst["mean_ratio"]):
                absent = [i + 1 for i, r in enumerate(inst["mean_ratio"])
                          if r is None]
                raise MissingTicks(f"no cancels in ticks {absent}")
            result = stats.chi_square_uniformity(inst["mean_ratio"])
        except (MissingTicks, AllZero, DomainError) as exc:
            _warn(f"skipping {label}: {exc}")
            continue
        rows.append((inst["bucket_key"], inst["side"].name.lower(),
                     result.statistic, result.p_value))
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "chi_square.csv"), "w",
              newline="") as fh:
        fh.write("bucket_key,side,statistic,p_value\n")
        for bucket, side, statistic, p_value in rows:
            fh.write(f"{bucket},{side},{statistic!r},{p_value!r}\n")


# --- wiring ---

class _Parser(argparse.ArgumentParser):
    """argparse flavor whose usage errors exit 1, not 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="lobfit",
                     description="Order-flow arrival and cancellation "
                                 "analysis pipeline.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a seeded synthetic stream")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--days", type=int, default=40)
    p.add_argument("--orders-per-day", type=int, default=3000)
    p.add_argument("--buy-model", default="dw:0.8,1.2")
    p.add_argument("--sell-model", default="dw:0.75,1.4")
    p.add_argument("--cancel-probability", type=float, default=0.08)
    p.add_argument("--cancel-style", choices=("full", "fraction"),
                   default="full")
    p.add_argument("--tick-size", type=int, default=1)
    p.add_argument("--mid", type=int, default=10_000)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("rates", help="extract arrival and cancel tallies")
    p.add_argument("inputs", nargs="+", metavar="STREAM")
    p.add_argument("--granularity", default="daily,weekly,monthly,hourly")
    p.add_argument("--reference", choices=("same", "opposite"),
                   default="same")
    p.add_argument("--side", choices=("buy", "sell", "both"), default="both")
    p.add_argument("--tick-size", type=int, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_rates)

    p = sub.add_parser("fit", help="fit model families to rate instances")
    p.add_argument("rates", metavar="RATES_CSV")
    p.add_argument("--families", default="geo,dw,bb,exp,pow")
    p.add_argument("--truncated-likelihood", action="store_true")
    p.add_argument("--tail", choices=("one", "two"), default="two")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("cancel-test",
                       help="chi-square uniformity of cancellation ratios")
    p.add_argument("cancels", metavar="CANCELS_CSV")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_cancel_test)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        args.func(args)
    except (LobfitError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # last-resort guard: anything else is a bug
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
