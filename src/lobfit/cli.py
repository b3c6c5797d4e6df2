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

This module is the parser and the dispatch: importing it loads the
stdlib it needs and ``lobfit.errors``, nothing else of lobfit.  Each
command's code is in a module of its own, which ``main`` imports once
the arguments parse, and which loads what that command runs:

    lobfit.cmd_synth        synth, numpy, dist, kernels, stats, feed, rates
    lobfit.cmd_rates        feed, rates, and the fork pool lobfit.pool
    lobfit.cmd_fit          rates, dist, kernels, stats, lobfit.pool
    lobfit.cmd_cancel_test  rates, stats

Without bytecode caches (``PYTHONDONTWRITEBYTECODE``), a command
compiles every module it imports from source, so each compiles only
its own code; ``--help`` compiles none of these.  Only ``cmd_synth``
imports from this module (``parse_model``), so ``python -m lobfit.cli``
compiles this file a second time, as ``lobfit.cli``, for ``synth``
alone.

Called with no argument, as the console script and ``python -m
lobfit.cli`` call it, ``main`` parses ``sys.argv`` and is the program:
once the command's module is imported it freezes the heap
(``gc.freeze``), so everything imported and parsed by then sits in the
collector's permanent generation.  All of it lives until the process
exits, so neither the collections of the run nor the interpreter's
final ones at exit walk it again, and the workers the fork pool starts
inherit it frozen, so their collections do not touch the pages they
share with the parent.  Called with a list, as a library or a test
calls it, ``main`` leaves the collector as it found it: its caller goes
on running, and what it imported need not live as long.

Every command is deterministic: identical inputs and flags produce
byte-identical outputs.  Exit codes: 0 success, 1 input problem
(bad bytes, bad flags, missing files), 2 internal failure.

Model arguments use family shorthands with positional parameters,
e.g. ``dw:0.8,1.2`` (q, beta), ``geo:0.4`` (p), ``bb:2,6`` (alpha,
beta), ``exp:0.7`` (rate), ``pow:0.3,1.4`` (scale, exponent).
"""

from __future__ import annotations

import argparse
import gc
import importlib
import sys

# nothing a command needs: main imports the command's module
from lobfit.errors import LobfitError


# --- argument parsing helpers ---

def parse_model(text: str):
    """Build a model family from shorthand syntax like ``dw:0.8,1.2``."""
    # imported here: only the commands that take a model need the
    # families
    from lobfit import dist

    shorthands = dist.SHORTHANDS
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

    p = sub.add_parser("rates", help="extract arrival and cancel tallies")
    p.add_argument("inputs", nargs="+", metavar="STREAM")
    p.add_argument("--granularity", default="daily,weekly,monthly,hourly")
    p.add_argument("--reference", choices=("same", "opposite"),
                   default="same")
    p.add_argument("--side", choices=("buy", "sell", "both"), default="both")
    p.add_argument("--tick-size", type=int, default=1)
    p.add_argument("--out", required=True)

    p = sub.add_parser("fit", help="fit model families to rate instances")
    p.add_argument("rates", metavar="RATES_CSV")
    p.add_argument("--families", default="geo,dw,bb,exp,pow")
    p.add_argument("--truncated-likelihood", action="store_true")
    p.add_argument("--tail", choices=("one", "two"), default="two")
    p.add_argument("--out", required=True)

    p = sub.add_parser("cancel-test",
                       help="chi-square uniformity of cancellation ratios")
    p.add_argument("cancels", metavar="CANCELS_CSV")
    p.add_argument("--out", required=True)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    # the command's module, e.g. lobfit.cmd_cancel_test for cancel-test
    name = "cmd_" + args.command.replace("-", "_")
    try:
        command = getattr(importlib.import_module("lobfit." + name), name)
        if argv is None:
            # the program: what is loaded by now lives until exit
            gc.freeze()
        command(args)
    except (LobfitError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # last-resort guard: anything else is a bug
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
