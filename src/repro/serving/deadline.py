"""Deadlines for the serving stack.

The façade's documented policy — "timeout, bounded retry, fallback" —
only holds if *every* blocking wait under :class:`FaultAnalysisService`
is bounded.  A ``future.result(timeout=...)`` on top of an unbounded
``Event.wait()`` merely abandons the caller's patience, not the work:
the pool thread underneath stays blocked forever, and eight hung
requests deadlock the service (and then block interpreter exit).

:class:`Deadline` is an absolute point on the monotonic clock, created
once at the edge (one per request attempt) and *propagated* down the
stack, so every layer waits for ``deadline.remaining()`` instead of
forever.  Sleeping the budget away in one layer automatically shrinks
every later wait.  It is dependency-free and thread-safe.

The typed exceptions let callers distinguish "my budget ran out while
waiting" (:class:`DeadlineExceeded`) from "the provider itself is
wedged" (:class:`FlushTimeout`) — the latter is raised *for* every
request that was riding a flush the watchdog had to abandon.
"""

from __future__ import annotations

import math
import time


class DeadlineExceeded(TimeoutError):
    """A bounded wait ran out of budget before the work completed.

    Raised by waiters (e.g. :meth:`MicroBatcher.encode`) when their
    :class:`Deadline` expires; the underlying work may still complete
    later, but this caller has already deregistered from it.
    """


class FlushTimeout(TimeoutError):
    """A provider flush exceeded the watchdog bound and was abandoned.

    Every :class:`~repro.serving.batcher._Pending` entry riding the hung
    flush fails with this error instead of staying pending forever, so
    waiters wake up and the retry/fallback policy can take over.
    """


class Deadline:
    """An absolute expiry instant on the monotonic clock.

    Create one per request (or per retry attempt) with :meth:`after` and
    pass it down the stack; each layer sizes its waits with
    :meth:`remaining`.  A ``Deadline`` is immutable and safe to share
    across threads.
    """

    __slots__ = ("expires_at",)

    def __init__(self, expires_at: float):
        self.expires_at = float(expires_at)

    @classmethod
    def after(cls, seconds: float) -> "Deadline":
        """A deadline ``seconds`` from now (monotonic)."""
        if seconds < 0:
            raise ValueError("deadline must not start in the past")
        return cls(time.monotonic() + seconds)

    @classmethod
    def never(cls) -> "Deadline":
        """A deadline that never expires (unbounded waits)."""
        return cls(math.inf)

    def remaining(self) -> float:
        """Seconds left before expiry, floored at 0 (``inf`` for never)."""
        return max(0.0, self.expires_at - time.monotonic())

    def wait_timeout(self) -> float | None:
        """``remaining()`` shaped for ``Event.wait`` (None = unbounded)."""
        return None if math.isinf(self.expires_at) else self.remaining()

    def __repr__(self) -> str:  # pragma: no cover — debug aid
        if math.isinf(self.expires_at):
            return "Deadline(never)"
        return f"Deadline(remaining={self.remaining():.3f}s)"
