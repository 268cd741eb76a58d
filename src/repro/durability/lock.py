"""Advisory file locking for multi-runner shared directories.

Two :class:`~repro.sim.sweep.ScenarioRunner` processes pointed at the
same cache directory each write entries atomically (temp + rename),
but without a lock their *sequences* of filesystem operations can
interleave — and any future read-modify-write on shared metadata
would race outright.  :class:`FileLock` wraps ``fcntl.flock`` on an
adjacent lock file: cheap, advisory (cooperating writers only), and
automatically released by the kernel if the holder dies, so a crashed
runner can never wedge the cache.

On platforms without ``fcntl`` the lock degrades to a warned no-op —
single-writer atomic-rename semantics, exactly the pre-lock contract.
"""

from __future__ import annotations

import os
import threading
import warnings
from pathlib import Path
from typing import Optional, Union

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX
    fcntl = None  # type: ignore[assignment]

__all__ = ["FileLock"]

_WARNED = False


class FileLock:
    """An exclusive advisory lock on a path (re-entrant per thread)."""

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self._fd: Optional[int] = None
        self._depth = 0
        # flock is per open file, not per thread: threads sharing this
        # instance serialise here, held from acquire to the matching
        # release (re-entrant for the holding thread).
        self._mutex = threading.RLock()

    def acquire(self) -> None:
        """Block until the lock is held."""
        self._mutex.acquire()
        if self._depth > 0:
            self._depth += 1
            return
        if fcntl is None:  # pragma: no cover - non-POSIX
            global _WARNED
            if not _WARNED:
                _WARNED = True
                warnings.warn(
                    "fcntl is unavailable; cache writes fall back to "
                    "unlocked atomic renames (single-writer semantics)",
                    RuntimeWarning, stacklevel=3)
            self._depth = 1
            return
        fd: Optional[int] = None
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            fd = os.open(str(self.path), os.O_RDWR | os.O_CREAT, 0o644)
            fcntl.flock(fd, fcntl.LOCK_EX)
        except BaseException:
            if fd is not None:
                os.close(fd)
            self._mutex.release()
            raise
        self._fd = fd
        self._depth = 1

    def release(self) -> None:
        """Drop the lock (kernel drops it anyway if the process dies)."""
        if self._depth == 0:
            return
        try:
            self._depth -= 1
            if self._depth == 0 and self._fd is not None:
                try:
                    fcntl.flock(self._fd, fcntl.LOCK_UN)  # type: ignore[union-attr]
                finally:
                    os.close(self._fd)
                    self._fd = None
        finally:
            self._mutex.release()

    @property
    def held(self) -> bool:
        """Whether this instance currently holds the lock."""
        return self._depth > 0

    def __enter__(self) -> "FileLock":
        self.acquire()
        return self

    def __exit__(self, *exc_info) -> None:
        self.release()
