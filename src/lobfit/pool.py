"""The fork pool of ``lobfit synth``, ``lobfit rates`` and ``lobfit fit``.

``_map_on_cpus`` runs a function over items on every CPU this process
may run on: this process plus one forked worker per further CPU,
without ``multiprocessing``.  Only those three commands load this
module.
"""

from __future__ import annotations

import os
import pickle
import signal


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
    """``fn`` over ``items`` in this process plus one forked worker per
    further usable CPU.

    Of ``n`` workers, worker ``k`` runs ``items[k::n]``.  Worker 0 is
    this process, which runs its items once the others have started;
    each other worker sends its results back through its own pipe.
    When one worker would run, nothing is forked.  Results come back in
    the order of ``items`` for any number of workers.  A worker's
    exception is raised here again, with its class and message.  A
    worker that dies or sends nothing raises WorkerDied, naming its
    exit status, instead of hanging.  Every worker is reaped before
    this returns or raises; if this process fails itself, its own share
    of the items included, the workers still running are killed.
    """
    if not items:
        return []
    workers = min(_usable_cpus(), len(items))
    results = [None] * len(items)
    pids, pipes = [], []
    try:
        for k in range(1, workers):
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
        results[0::workers] = [fn(item) for item in items[0::workers]]
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
    for k, reply, status in zip(range(1, workers), replies, statuses):
        if status or not reply:
            raise WorkerDied(
                f"worker {k + 1} of {workers} ended with exit status "
                f"{os.waitstatus_to_exitcode(status)} and sent no result")
        ok, value = pickle.loads(reply)
        if not ok:
            raise value
        results[k::workers] = value
    return results
