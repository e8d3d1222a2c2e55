"""Fixtures shared by the export tests."""

import os

import pytest

import market_eos.surface as surface_module


@pytest.fixture
def forks(monkeypatch):
    """The ``os.fork`` calls made during a test; at teardown, every child must have been reaped."""
    calls, fork = [], os.fork

    def counted():
        calls.append(None)
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    yield calls
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def failing_child(monkeypatch):
    """``arm(error, stage)`` makes a split export's forked child raise ``error`` at ``stage``.

    The stage is where the child samples and audits its rows (``"_audited_rows"``) or where it
    renders them (``"_rows_text"``); this process runs the stage as before.
    """
    parent = os.getpid()

    def arm(error, stage="_rows_text"):
        original = getattr(surface_module, stage)

        def failing_in_the_child(*args):
            if os.getpid() != parent:
                raise error
            return original(*args)

        monkeypatch.setattr(surface_module, stage, failing_in_the_child)

    return arm
