"""Parts of one computation in forked child processes: the scan's blocks and a sweep's jobs.

divide(units) is the one rule for how many processes a computation runs in
and which contiguous units each takes.  split(units, work) runs work on each
run of units that divide gives, the first here and each other in a child
forked here, which sends back what its work returned, pickled, every process
on one BLAS thread.  may_fork() says whether this process may fork at all.
The standard library alone, and not part of the package's public names.
"""

from __future__ import annotations

import os
import pickle
import sys
import threading
from typing import Callable

# true while this process runs a part of a split, and in every child one
# forks: a split then runs no more processes at once than its parts
_in_split = False


def may_fork() -> bool:
    """Whether split may fork here.

    Not without os.sched_getaffinity (not Linux), while another Python thread
    runs (it may hold a lock the child needs, and Python 3.12 warns of such a
    fork), nor inside a split: in a child it started, or while this process
    runs its own part.
    """
    return hasattr(os, "sched_getaffinity") and not _in_split and threading.active_count() == 1


def divide(units: int) -> list[range]:
    """The contiguous runs of units 0 .. units - 1 a computation splits into, one per process.

    As many as the usable CPUs (os.sched_getaffinity; a CPU quota is not
    read) but at most units, so each holds a unit or more; one, all of them,
    where may_fork() is false or there is at most one unit.
    """
    count = max(1, min(len(os.sched_getaffinity(0)), units)) if may_fork() else 1
    return [range(units * part // count, units * (part + 1) // count) for part in range(count)]


def _one_blas_thread() -> Callable[[], object]:
    """Set numpy's OpenBLAS, once loaded, to one thread; return what sets back its count."""
    core = sys.modules.get("numpy._core._multiarray_umath")
    if core is None:
        return lambda: None
    import ctypes  # numpy has loaded it already

    try:  # the names of the libraries numpy's core links resolve through its handle
        library = ctypes.CDLL(core.__file__)
        get_threads = library.scipy_openblas_get_num_threads64_
        set_threads = library.scipy_openblas_set_num_threads64_
    except (OSError, AttributeError):  # a numpy that links no scipy-openblas
        return lambda: None
    get_threads.argtypes, get_threads.restype = [], ctypes.c_int
    set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
    count = get_threads()
    set_threads(1)
    return lambda: set_threads(count)


def _serve(run: range, work: Callable[[range], object], write: int, reads: list[int]) -> None:
    """In a forked child: work(run), pickled, down the write end, or the text of what it raised.

    Leaves through os._exit, status 0 once the result is sent and 1 otherwise,
    so it never returns into the caller, runs no atexit hook and flushes no
    inherited stdio buffer.  _in_split is already set: the parent set it
    before it forked.
    """
    code = 1
    try:
        for read in reads:  # this child's and every earlier child's read end
            os.close(read)
        try:
            payload, status = pickle.dumps(work(run)), 0
        except BaseException as exc:
            payload, status = f"{type(exc).__name__}: {exc}".encode(), 1
        with open(write, "wb") as pipe:
            pipe.write(payload)
        code = status
    finally:
        os._exit(code)


def _read_all(read: int) -> bytes:
    with open(read, "rb", closefd=False) as pipe:
        return pipe.read()


def split(units: int, work: Callable[[range], object]) -> list:
    """[work(run) for each run of divide(units)], the first run's here and each other's in a child.

    The children fork first and the first run's work runs here meanwhile;
    may_fork() is false here until it returns, as in every child, so a split
    inside work runs in one part with no fork beneath it.  Where numpy is
    loaded, its OpenBLAS runs on one thread here, and so in every child,
    until split returns: pools of one thread per CPU in each process would
    contend for the CPUs.  The parent reads every pipe before it reaps, so no
    child blocks on a full pipe.  A child that fails, by raising or by any
    exit status but 0, makes split raise a RuntimeError naming the part, the
    pid, the exit status and the bytes it sent, and the text of what it
    raised.  If this process raises, or is interrupted, before it has reaped
    them, it kills and reaps every child: no process outlives the call.
    """
    global _in_split
    runs = divide(units)
    children: list[tuple[int, int]] = []  # (pid, read end of its pipe)
    statuses: list[int] = []
    restore_blas = _one_blas_thread()
    _in_split = True
    try:
        for run in runs[1:]:
            read, write = os.pipe()
            try:
                pid = os.fork()
            except BaseException:
                os.close(read)
                os.close(write)
                raise
            if pid == 0:
                _serve(run, work, write, [fd for _, fd in children] + [read])
            children.append((pid, read))
            os.close(write)
        first = work(runs[0])
        payloads = [_read_all(read) for _, read in children]
        for pid, _ in children:
            statuses.append(os.waitpid(pid, 0)[1])
    finally:
        _in_split = False
        restore_blas()
        if len(statuses) < len(children):
            import signal

            for pid, _ in children[len(statuses):]:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
        for _, read in children:
            os.close(read)
    for part, ((pid, _), status, payload) in enumerate(zip(children, statuses, payloads), 1):
        code = os.waitstatus_to_exitcode(status)
        if code != 0:
            raised = f": {payload.decode(errors='replace')}" if code == 1 else ""
            raise RuntimeError(
                f"part {part} of {len(runs)} failed in process {pid}: exit status {code},"
                f" {len(payload)} bytes sent{raised}"
            )
    return [first, *map(pickle.loads, payloads)]
