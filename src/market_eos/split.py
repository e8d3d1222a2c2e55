"""Surface exports made by two processes: the fork, the pipe, the temporary file and the copy.

Imported only by a surface export large enough to split
(``surface.split_export``), so a start-up compiles none of it.
"""

from __future__ import annotations

import json
import os
import signal
import tempfile
from collections.abc import Iterator
from contextlib import contextmanager
from itertools import chain
from typing import BinaryIO

from . import surface
from .errors import DomainError, InvariantError

# What a forked child reports by class name; any other exception in it is a bug.
CHILD_ERRORS = {error.__name__: error for error in (DomainError, InvariantError, MemoryError, OSError)}


def send(pipe: BinaryIO, error: BaseException | None = None) -> None:
    """Write one report line to ``pipe``: ``null`` for ok, else ``[class name, message]`` of ``error``."""
    line = None
    if error is not None:
        line = [next(name for name, cls in CHILD_ERRORS.items() if isinstance(error, cls)), str(error)]
    pipe.write(json.dumps(line).encode() + b"\n")


@contextmanager
def forked(eos, xs: list[float], ts: list[float], layout: tuple) -> Iterator[Iterator[str]]:
    """Yield the chunks of the export of ``eos`` over ``xs`` and ``ts``, rows ``[n//2:]`` made by a child.

    This process samples and audits rows ``[:n//2]`` and then waits for
    the child, which samples and audits rows ``[n//2:]``, reports,
    renders them into an unnamed temporary file and reports again. A
    report is one line on a pipe: ok, or a ``DomainError``,
    ``InvariantError``, ``MemoryError`` or ``OSError``, raised here; a
    child that ends without one raises ``RuntimeError``. The chunks are
    the head, this process's rows, the child's rows once they are
    rendered, and the tail. On the way out, by success or any exception,
    the child is killed if it still runs, and reaped. Sampling and
    rendering are looked up on ``surface`` at call time.
    """
    n = len(ts)
    half = n // 2
    head, *_, tail = layout
    read_end, write_end = os.pipe()
    with (tempfile.TemporaryFile("w+", encoding="utf-8", newline="") as spill,
          open(read_end, "rb") as reports, open(write_end, "wb", buffering=0) as reporter):
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                try:
                    y_rows = surface._audited_rows(eos, xs, ts[half:])
                    send(reporter)
                    spill.writelines(surface._rows_text(layout, ts[half:], y_rows, half))
                    spill.flush()
                    send(reporter)
                except tuple(CHILD_ERRORS.values()) as exc:
                    send(reporter, exc)
                code = 0
            finally:  # any other exception is a bug, reported by exit status 1 alone
                os._exit(code)
        reporter.close()  # the child's copy is the last write end: it reads as closed once the child ends
        status = None  # the child's exit status, once it is reaped

        def check() -> None:
            """Raise the error the child reports next, if it reports one."""
            nonlocal status
            line = reports.readline()
            if not line:
                status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                raise RuntimeError(f"the child exporting rows {half} to {n} exited {status}")
            report = json.loads(line)
            if report is not None:
                kind, message = report
                if kind == "OSError":
                    message = f"rendering rows {half} to {n} of the export into a temporary file failed"
                raise CHILD_ERRORS[kind](message)

        def spilled() -> Iterator[str]:
            check()
            spill.seek(0)
            yield from iter(lambda: spill.read(1 << 16), "")

        try:
            own = surface._audited_rows(eos, xs, ts[:half])
            check()
            yield chain([head], surface._rows_text(layout, ts[:half], own, 0), spilled(), [tail])
        finally:
            if status is None:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
