"""Cooperative cancellation for long-running pipeline executions.

A :class:`CancelToken` is handed to the stage scheduler, which polls it at
**group-pass boundaries** — the natural safe points where no staging
buffer is in flight and every write a codec lane has not finished yet is a
pending job the run settles on its way out. Cancelling mid-pass
is never observable: the current group pass always finishes, so the
compressed store is left in a consistent per-chunk state (every chunk
holds either its pre-stage or post-stage blob, never a torn write).

The token is thread-safe: the owner (a job manager, a signal handler)
calls :meth:`CancelToken.cancel` from any thread; the executing thread
raises :class:`JobCancelled` at its next checkpoint. A run nobody can
cancel polls a token of its own that never fires.
"""

from __future__ import annotations

import threading
from typing import Optional

__all__ = ["JobCancelled", "CancelToken"]


class JobCancelled(Exception):
    """Raised by the executing thread when its CancelToken fires."""


class CancelToken:
    """A latch the owner sets once; pollers raise :class:`JobCancelled`."""

    __slots__ = ("_event", "reason")

    def __init__(self) -> None:
        self._event = threading.Event()
        self.reason: Optional[str] = None

    def cancel(self, reason: str = "") -> None:
        """Request cancellation (idempotent; first reason wins)."""
        if not self._event.is_set():
            self.reason = reason or self.reason
            self._event.set()

    @property
    def cancelled(self) -> bool:
        return self._event.is_set()

    def raise_if_cancelled(self) -> None:
        """Checkpoint: raise :class:`JobCancelled` if the token fired."""
        if self._event.is_set():
            raise JobCancelled(self.reason or "cancelled")

    def __repr__(self) -> str:
        state = f"cancelled: {self.reason!r}" if self.cancelled else "armed"
        return f"<CancelToken {state}>"
