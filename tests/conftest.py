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
    """``arm(error)`` makes a split export's forked child raise ``error`` where it would render its rows."""
    rows_text = surface_module._rows_text

    def arm(error):
        def failing_after_the_first_half(layout, obj, start, stop):
            if start:
                raise error
            return rows_text(layout, obj, start, stop)

        monkeypatch.setattr(surface_module, "_rows_text", failing_after_the_first_half)

    return arm
