"""Cooperative cancellation for long-running engine loops.

The analysis service needs ``DELETE`` on a running job to actually stop
the engine, not just flip a flag.  The engine's inner loops — the
pending-path drain in :func:`repro.core.activity.explore`, the per-
parity/per-segment passes of :func:`repro.core.peakpower
.compute_peak_power`, the GA generations in
:func:`repro.core.stressmark.generate_stressmark` — therefore accept an
optional :class:`CancelToken` and call :meth:`CancelToken.check` at
their natural batch boundaries.  A set token raises
:class:`JobCancelled` out of the loop; an absent token costs one
``is None`` branch per checkpoint.

The token wraps an event-like object (``multiprocessing.Event`` for the
process-pool backend) or, by default, a plain flag (the in-thread
execution backend, where checkpoints only poll), so the same checkpoints
serve both.  Checkpoints are *cooperative*: code that never reaches one
(a stuck numpy kernel, a wedged worker) is covered by the process
backend's hard-kill backstop (:mod:`repro.service.workers`), not by this
module.
"""

from __future__ import annotations


class JobCancelled(BaseException):
    """Raised at a cancellation checkpoint once the token is set.

    Deliberately a :class:`BaseException`: the engine has several broad
    ``except Exception`` recovery paths (batch-evaluation fallbacks,
    store compute wrappers) that must not swallow a cancellation on its
    way out of a deep loop.
    """


class CancelToken:
    """A set-once cancellation signal shared between a controller and a
    long-running computation.

    *event* is any object with ``is_set()`` (and, for :meth:`set`,
    ``set()``): a ``multiprocessing.Event`` forwarded into a worker
    process, or a test double.  Without one the token is a plain flag —
    nothing ever blocks on a token, and a scheduler keeps one per
    retained job, so it costs a bool instead of a lock and a condition.

    *heartbeat* is an optional zero-arg callable invoked on every
    :meth:`check`.  The engine's checkpoints thus double as liveness
    proof: the process-backend worker wires a throttled pipe ping here,
    and a worker that stops reaching checkpoints (wedged kernel,
    injected hang) stops heartbeating — which is exactly what the
    monitor's heartbeat watchdog detects.  Callbacks must be cheap and
    must never raise.
    """

    __slots__ = ("_event", "_flag", "heartbeat")

    def __init__(self, event=None, heartbeat=None) -> None:
        self._event = event
        self._flag = False
        self.heartbeat = heartbeat

    def set(self) -> None:
        if self._event is None:
            self._flag = True
        else:
            self._event.set()

    def is_set(self) -> bool:
        if self._event is None:
            return self._flag
        return bool(self._event.is_set())

    def check(self) -> None:
        """Raise :class:`JobCancelled` if the token has been set."""
        if self.heartbeat is not None:
            self.heartbeat()
        if self.is_set():
            raise JobCancelled("cancelled at a cooperative checkpoint")
