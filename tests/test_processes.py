"""The one rule for how many processes a computation runs in, and the fork that runs them."""

import ctypes
import glob
import os
import pickle
import threading
import time

import numpy as np
import pytest

from forks import assert_reaped, record_forks
from pointdamp import processes


def _on_cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


# ------------------------------------------------------------------ divide


def test_one_cpu_runs_one_part(monkeypatch):
    _on_cpus(monkeypatch, 1)
    assert processes.divide(1000) == [range(0, 1000)]


def test_no_part_of_its_own_where_it_may_not_fork(monkeypatch):
    _on_cpus(monkeypatch, 8)
    # inside a split, in its own part and in a child alike
    assert processes.split(2, lambda run: len(processes.divide(100))) == [1, 1]
    # beside another Python thread
    release = threading.Event()
    waiting = threading.Thread(target=release.wait, args=(60,))
    waiting.start()
    try:
        assert processes.divide(100) == [range(0, 100)]
    finally:
        release.set()
        waiting.join()
    assert len(processes.divide(100)) == 8


def test_work_below_the_minimum_runs_in_one_part(monkeypatch):
    # a part holds one unit at least: no unit or one runs in one part, and
    # two units split in two
    _on_cpus(monkeypatch, 8)
    assert processes.divide(0) == [range(0, 0)]
    assert processes.divide(1) == [range(0, 1)]
    assert processes.divide(2) == [range(0, 1), range(1, 2)]


def test_eight_cpus_and_three_jobs_give_two_parts(monkeypatch):
    # a sweep of three jobs runs the first alone, then divides the other two,
    # one job or more each: two parts, whatever the CPUs beyond two
    _on_cpus(monkeypatch, 8)
    assert processes.divide(3 - 1) == [range(0, 1), range(1, 2)]


@pytest.mark.parametrize("cpus, units", [(2, 133), (8, 133), (3, 19), (8, 5), (2, 40)])
def test_parts_are_contiguous_and_even(monkeypatch, cpus, units):
    _on_cpus(monkeypatch, cpus)
    parts = processes.divide(units)
    assert len(parts) == min(cpus, units)
    assert [part.start for part in parts[1:]] == [part.stop for part in parts[:-1]]
    assert (parts[0].start, parts[-1].stop) == (0, units)
    assert max(map(len, parts)) - min(map(len, parts)) <= 1
    assert min(map(len, parts)) >= 1


def test_golden_scan_splits_66_67(monkeypatch):
    _on_cpus(monkeypatch, 2)
    assert processes.divide(133) == [range(0, 66), range(66, 133)]


# ------------------------------------------------------------------- split


def _blas_library():
    libraries = glob.glob(np.__path__[0] + ".libs/libscipy_openblas*")
    if not libraries:
        pytest.skip("numpy carries no scipy-openblas library")
    return ctypes.CDLL(libraries[0])


def test_split_returns_what_each_run_returned_in_run_order(monkeypatch):
    # the first run here, the others in children, whose results come back pickled
    _on_cpus(monkeypatch, 3)
    parent = os.getpid()
    results = processes.split(7, lambda run: (run, os.getpid() == parent, np.arange(len(run))))
    assert [(run, here) for run, here, _ in results] == [
        (range(0, 2), True), (range(2, 4), False), (range(4, 7), False)
    ]
    for run, _, values in results:
        np.testing.assert_array_equal(values, np.arange(len(run)))


def test_every_process_of_a_split_runs_on_one_blas_thread(monkeypatch):
    library = _blas_library()
    count = library.scipy_openblas_get_num_threads64_
    before = count()
    library.scipy_openblas_set_num_threads64_(3)
    _on_cpus(monkeypatch, 3)
    try:
        seen = processes.split(3, lambda run: count())
        assert seen == [1] * 3
        # and the count this process ran on is back once the split returns
        assert count() == 3
    finally:
        library.scipy_openblas_set_num_threads64_(before)


def test_a_failing_child_fails_the_split(monkeypatch):
    parent = os.getpid()

    def fails_in_a_child(run):
        if os.getpid() != parent:
            raise MemoryError("no room")
        return None

    _on_cpus(monkeypatch, 2)
    forked = record_forks(monkeypatch)
    # the child sends the 20 bytes of what it raised
    failed = (r"part 1 of 2 failed in process \d+: exit status 1, 20 bytes sent:"
              r" MemoryError: no room$")
    with pytest.raises(RuntimeError, match=failed):
        processes.split(2, fails_in_a_child)
    assert len(forked) == 1
    assert_reaped(forked)


def test_a_child_exit_status_fails_the_split_after_a_full_payload(monkeypatch):
    parent = os.getpid()
    leave = os._exit
    monkeypatch.setattr(os, "_exit", lambda code: leave(7 if os.getpid() != parent else code))
    _on_cpus(monkeypatch, 2)
    forked = record_forks(monkeypatch)
    sent = len(pickle.dumps(bytes(24)))
    failed = rf"part 1 of 2 failed in process \d+: exit status 7, {sent} bytes sent$"
    with pytest.raises(RuntimeError, match=failed):
        processes.split(2, lambda run: bytes(24))
    assert len(forked) == 1
    assert_reaped(forked)


def test_an_interrupted_parent_kills_its_children(monkeypatch):
    parent = os.getpid()

    def interrupted(run):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        time.sleep(60)  # unless the parent kills it

    _on_cpus(monkeypatch, 2)
    forked = record_forks(monkeypatch)
    started = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        processes.split(2, interrupted)
    assert time.monotonic() - started < 30.0
    assert len(forked) == 1
    assert_reaped(forked)
