"""Cooperative per-thread deadlines: the portable cell-timeout fallback.

``SIGALRM`` — the sweep engine's first-choice per-cell timeout — only
works on the main thread of a POSIX process.  Anywhere else (worker
threads, Windows) the alarm would silently do nothing.  This module
provides the fallback: a deadline registered for the *current thread*
that the simulation hot loops poll once per control step via
:func:`poll_deadline`, raising when exceeded.  It is cooperative —
a cell stuck inside a single C call will not be interrupted — but for
the simulator's own loops (which step many times per second) it turns
"no timeout at all" into an honest, clean, checkpoint-friendly exit.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterator, Optional, Tuple, Type

__all__ = [
    "DeadlineExceededError",
    "set_deadline",
    "clear_deadline",
    "poll_deadline",
    "thread_deadline",
]


class DeadlineExceededError(RuntimeError):
    """A cooperative deadline expired."""


#: thread ident -> (monotonic deadline, message, exception class).
_DEADLINES: Dict[int, Tuple[float, str, Type[BaseException]]] = {}
_LOCK = threading.Lock()


def set_deadline(timeout_s: float, message: str = "",
                 exc_type: Type[BaseException] = DeadlineExceededError,
                 thread_ident: Optional[int] = None) -> None:
    """Arm a deadline ``timeout_s`` seconds from now for a thread.

    ``exc_type`` customises what :func:`poll_deadline` raises (the
    sweep engine passes its ``CellTimeoutError`` subclass).
    """
    ident = thread_ident if thread_ident is not None else threading.get_ident()
    deadline = time.monotonic() + timeout_s
    msg = message or f"cooperative deadline of {timeout_s} s exceeded"
    with _LOCK:
        _DEADLINES[ident] = (deadline, msg, exc_type)


def clear_deadline(thread_ident: Optional[int] = None) -> None:
    """Disarm a thread's deadline (no-op when none is set)."""
    ident = thread_ident if thread_ident is not None else threading.get_ident()
    with _LOCK:
        _DEADLINES.pop(ident, None)


def poll_deadline() -> None:
    """Raise if the calling thread's deadline has passed.

    Cheap enough for a hot loop: one dict lookup when no deadline is
    armed (the overwhelmingly common case).
    """
    ident = threading.get_ident()
    entry = _DEADLINES.get(ident)
    if entry is None:
        return
    deadline, message, exc_type = entry
    if time.monotonic() >= deadline:
        with _LOCK:
            _DEADLINES.pop(ident, None)
        raise exc_type(message)


@contextmanager
def thread_deadline(timeout_s: float, message: str = "",
                    exc_type: Type[BaseException] = DeadlineExceededError) -> Iterator[None]:
    """Context manager: arm a deadline for this thread, always disarm."""
    set_deadline(timeout_s, message, exc_type)
    try:
        yield
    finally:
        clear_deadline()
