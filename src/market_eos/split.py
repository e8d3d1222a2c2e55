"""Surface exports made by two processes: the fork, the pipe, the temporary file and the copy.

Imported only by a surface export large enough to split
(``surface.split_export``), so a start-up compiles none of it.
"""

from __future__ import annotations

import os
import pickle
import signal
import tempfile
from collections.abc import Iterator
from contextlib import contextmanager
from itertools import chain

from . import surface
from .errors import DomainError

# The errors a forked child reports; any other exception in it is a bug.
CHILD_ERRORS = (DomainError, MemoryError, OSError)


@contextmanager
def forked(eos, xs: list[float], ts: list[float], layout: tuple) -> Iterator[Iterator[str]]:
    """Yield the chunks of the export of ``eos`` over ``xs`` and ``ts``, rows ``[n//2:]`` made by a child.

    This process samples and checks rows ``[:n//2]`` and then waits for
    the child, which samples and checks rows ``[n//2:]``, pickles None
    onto a pipe, renders its rows into an unnamed temporary file and
    exits 0. A ``DomainError``, ``MemoryError`` or ``OSError`` the child
    meets is pickled in place of any further report and raised here; a
    child that ends before its check report, or ends with a nonzero
    status, raises ``RuntimeError``. The chunks are the head, this
    process's rows, the child's rows once it has exited, and the tail. The child is reaped on the way out, killed
    first only if it has not been reaped: where this process's check
    fails, a child's error is raised or the writer fails. Sampling and
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
                    y_rows = surface._checked_rows(eos, xs, ts[half:])
                    pickle.dump(None, reporter)
                    spill.writelines(surface._rows_text(layout, ts[half:], y_rows, half))
                    spill.flush()
                except CHILD_ERRORS as exc:
                    pickle.dump(exc, reporter)
                code = 0
            finally:  # any other exception is a bug, reported by exit status 1 alone
                os._exit(code)
        reporter.close()  # the child's copy is the last write end: it reads as closed once the child ends
        status = None  # the child's exit status, once it is reaped

        def check(reported: bool) -> None:
            """Raise the error the child reports next; at end of file, reap it and raise unless it passed."""
            nonlocal status
            try:
                error = pickle.load(reports)
            except EOFError:
                status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                if status or not reported:
                    raise RuntimeError(f"the child exporting rows {half} to {n} exited {status}") from None
                return
            if isinstance(error, OSError):
                raise OSError(f"rendering rows {half} to {n} of the export into a temporary file failed")
            if error is not None:
                raise error

        def spilled() -> Iterator[str]:
            check(reported=True)
            spill.seek(0)
            yield from iter(lambda: spill.read(1 << 16), "")

        try:
            own = surface._checked_rows(eos, xs, ts[:half])
            check(reported=False)
            yield chain([head], surface._rows_text(layout, ts[:half], own, 0), spilled(), [tail])
        finally:
            if status is None:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
