"""Helpers for tests of code that forks: which children it started, and whether it reaped them."""

import os

import pytest


def record_forks(monkeypatch) -> list[int]:
    """The pids of the children that os.fork starts from here on."""
    forked = []
    fork = os.fork

    def recording_fork():
        pid = fork()
        if pid:
            forked.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    return forked


def assert_reaped(pids):
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)
