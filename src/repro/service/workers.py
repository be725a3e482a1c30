"""Process-pool job execution: fault isolation + real cancellation.

Jobs run in a pool of persistent **spawn-start** worker processes owned
by the scheduler, rather than on scheduler threads inside the server:

* **Fault isolation** — an engine that segfaults, is OOM-killed, or
  calls ``os._exit`` takes down one worker process; the scheduler maps
  the dead worker to one FAILED job and the server keeps serving.
* **Real cancellation** — the worker checks a shared
  ``multiprocessing.Event`` at the engine's cooperative checkpoints
  (path-queue batches, segment chunks, GA generations — see
  :mod:`repro.parallel.cancel`); if the worker does not reach a
  checkpoint within the kill grace period, the monitor SIGKILLs the
  worker's whole process group as the backstop.  Either way a DELETE on
  a RUNNING job reaches a terminal state and frees its slot.
* **No fork-in-threads** — spawn is safe from the multithreaded server
  process, and the engine's fork-start pools (sharded exploration, GA
  islands) are then created inside the single-threaded worker, clearing
  the Python 3.12+ hazard the scheduler previously had to live with.

**The pool.**  A worker is spawned lazily, when a job is dispatched and
no idle worker is waiting; it boots the interpreter, imports the runner
and builds its executor table once, then takes jobs over its pipe.  At
most one worker exists per job slot (``max_concurrent``), because a new
one is only spawned when every existing one is busy.  Once a worker has
built the CPU netlist, the power model or the native kernel, later jobs
reuse them, so a store hit costs a pipe handoff instead of a process
boot.

What is **per job**: the job message (kind, params, attempt, inner
worker budget, store directory and a snapshot of the server's
``REPRO_FAULTS``), a fresh fault plan (hit counters and seeded RNG
streams restart; see :func:`repro.service.faults.arm`), the runner's
in-memory result cache (dropped after every job, so each job resolves
through the artifact store exactly as a fresh process would), an upload
job's ``RLIMIT_AS`` cap (restored when the job ends), and the store
counter delta shipped back to the server.

When a worker is **retired**: it rejoins the pool only after a
``done`` message.  Every other outcome — ``failed``, ``cancelled``, a
crash, a watchdog or deadline kill, or a cancel event that was ever set
for it, even when the job then finished — retires the worker (joined,
or its process group SIGKILLed).  A retried attempt therefore always
runs in a fresh process.  :meth:`ProcessBackend.shutdown` stops and
joins the idle workers, so none is orphaned and their peak RSS is
visible to whoever waits on the server.

The worker is **non-daemonic** so it may fork those inner engine pools
(daemonic processes cannot have children — the jobs × inner-workers
core budget would silently collapse to serial).  The worker calls
``os.setsid()`` on entry, so the backstop ``killpg`` also reaps any
fork-start grandchildren the engine had in flight.

Protocol over the pipe, server → worker: one job message per job
(EOF retires the worker).  Worker → monitor::

    ("event", stage, detail)       progress, forwarded to the job's stream
    ("hb", None)                   heartbeat ping (swallowed, not an event)
    ("done", result, counters)     executor returned *result* (a JSON dict)
    ("cancelled", None, counters)  a checkpoint observed the cancel event
    ("failed", detail, counters)   executor raised; detail is "Type: message"

*counters* is the job's artifact-store counter delta, merged into the
server's :class:`repro.service.store.StoreCounters` so
``/v1/store/stats`` counts hits and writes made in workers.  The first
message of every job is the ``booted`` event, naming the worker's pid
and how many jobs it has accepted.

EOF without a terminal message means the worker died; the monitor turns
that into :class:`WorkerCrashed` (or a cancellation, if one was
pending), with negative exit codes decoded to their signal names —
``killed by SIGKILL — possible OOM or external kill`` triages from the
job's error field alone.

The monitor is also the **watchdog**.  Every pipe message refreshes a
last-heard-from clock; the engine's cooperative checkpoints double as
throttled heartbeat pings (:class:`repro.parallel.cancel.CancelToken`'s
``heartbeat`` hook), so a worker that is *computing* stays loud while a
worker that is *stuck* — wedged kernel, injected hang — goes silent.
Silence past ``heartbeat_timeout`` kills the worker's process group and
raises :class:`WorkerHung` (retryable, like a crash).  Independently, a
per-job wall-clock deadline (``max_job_seconds`` server-wide, or the
job's own ``deadline_s``) kills an overrunning worker and raises
:class:`DeadlineExceeded` — a *permanent* failure: the job was not
unlucky, it was too big for its budget.

Results are bit-identical to the in-thread backend: the worker runs the
same executors against the same artifact store (the store directory is
shipped with every job — spawn does not inherit parent module-global
mutations), and cancellation only ever aborts work, it never alters a
result.
"""

from __future__ import annotations

import atexit
import os
import signal
import threading
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

from repro.parallel.cancel import JobCancelled
from repro.parallel.pool import spawn_context
from repro.service import faults

#: seconds a cancelled worker gets to reach a cooperative checkpoint
#: before the monitor SIGKILLs its process group
DEFAULT_KILL_GRACE_S = 2.0

#: sentinel from :meth:`ProcessBackend._pump` when the pipe broke
_EOF = ("__eof__", None)


class WorkerError(RuntimeError):
    """An executor failed inside the worker process.

    ``str()`` is the worker's verbatim ``"Type: message"`` line, so the
    job's error field reads the same as it would from the in-thread
    backend.
    """


class WorkerCrashed(WorkerError):
    """The worker process died without reporting a result.

    Retryable: the fault may be transient (OOM kill, node pressure, an
    injected crash) — the scheduler re-runs the job in a fresh worker,
    with exponential backoff, up to its retry budget.
    """


class WorkerHung(WorkerCrashed):
    """The heartbeat watchdog killed a silent worker.

    A :class:`WorkerCrashed` subclass, so hangs share the crash retry
    policy: the slot is reclaimed immediately and the job gets a fresh
    worker instead of holding its slot forever.
    """


class DeadlineExceeded(WorkerError):
    """The job overran its wall-clock deadline and was killed.

    Deliberately *not* a :class:`WorkerCrashed`: exceeding a deadline is
    a property of the request, not a transient fault — retrying would
    just burn another deadline's worth of compute.  The job fails
    permanently with a distinct ``deadline exceeded`` error.
    """


def describe_exit(exitcode: int | None) -> str:
    """Human-readable worker exit: signal names for negative codes so
    operators can triage a crash from the job's error field alone."""
    if exitcode is None:
        return "no exit code"
    if exitcode < 0:
        try:
            name = signal.Signals(-exitcode).name
        except ValueError:
            name = f"signal {-exitcode}"
        hint = (
            " — possible OOM or external kill"
            if -exitcode == signal.SIGKILL
            else ""
        )
        return f"killed by {name}{hint}"
    return f"exit code {exitcode}"


class _WorkerContext:
    """The executor context inside the worker process, for one job.

    Mirrors :class:`repro.service.scheduler.JobContext`: ``emit`` ships
    progress up the pipe, ``cancel`` is the shared token the engine's
    checkpoints poll.  The token's ``heartbeat`` hook is wired to a
    throttled pipe ping, so every engine checkpoint refreshes the
    monitor's watchdog clock.
    """

    def __init__(
        self,
        conn,
        cancel_token,
        workers: int,
        heartbeat_every: float = 1.0,
        attempt: int = 1,
    ) -> None:
        self._conn = conn
        # pipe sends are length-prefixed and NOT safe under concurrent
        # writers: serialize within this process, and refuse to write
        # from fork-pool children that inherited us (they inherit the
        # token — and with it this heartbeat hook — via fork)
        self._send_lock = threading.Lock()
        self._pid = os.getpid()
        self._hb_every = max(0.05, heartbeat_every)
        self._hb_last = time.monotonic()
        self.cancel = cancel_token
        cancel_token.heartbeat = self._maybe_heartbeat
        self.workers = workers
        self.attempt = attempt

    def _send(self, message) -> None:
        if os.getpid() != self._pid:
            return  # an engine fork child; the pipe belongs to the worker
        try:
            with self._send_lock:
                self._conn.send(message)
        except (BrokenPipeError, OSError):
            pass  # monitor went away; keep computing (or die with it)

    def _maybe_heartbeat(self) -> None:
        now = time.monotonic()
        if now - self._hb_last >= self._hb_every:
            self._hb_last = now
            self._send(("hb", None))

    def emit(self, stage: str, detail: str = "") -> None:
        self._send(("event", stage, detail))

    def cancelled(self) -> bool:
        return self.cancel.is_set()

    def check_cancelled(self) -> None:
        self.cancel.check()


def _worker_main(conn, cancel_event, factory, heartbeat_every: float) -> None:
    """Worker-process entry: build the executor table, then serve jobs
    from *conn* until EOF or an outcome other than ``done``.

    Spawned fresh, so nothing from the server process leaks in except
    what arrives through the arguments and the job messages: *factory*
    rebuilds the executor table (it must be a picklable module-level
    callable); each job message names the store directory (spawn
    inherits the environment but **not** parent module-global mutations
    like ``runner.CACHE_DIR``), the attempt and the fault spec to arm.
    *heartbeat_every* throttles the checkpoint heartbeat pings.
    """
    try:
        os.setsid()  # own process group: the kill backstop reaps our forks
    except OSError:
        pass
    from repro.bench import runner
    from repro.parallel.cancel import CancelToken

    executors = factory()
    served = 0
    while True:
        try:
            kind, params, attempt, workers, cache_dir, fault_spec = conn.recv()
        except (EOFError, OSError):
            break  # the server retired this worker (or went away)
        served += 1
        ctx = _WorkerContext(
            conn,
            CancelToken(cancel_event),
            workers,
            heartbeat_every=heartbeat_every,
            attempt=attempt,
        )
        # first message of every job: resets the monitor's watchdog
        # clock, so a fresh worker's slow interpreter/numpy imports are
        # never mistaken for a hang
        ctx.emit(
            "booted",
            f"worker pid {os.getpid()}, attempt {attempt}, "
            f"job {served} on this worker",
        )
        runner.CACHE_DIR = Path(cache_dir)
        counters = runner.artifact_store().counters
        before = counters.snapshot()
        try:
            faults.arm(fault_spec, attempt)
            if served > 1:
                faults.hit("worker.handoff")
            faults.hit("worker.start")
            result = executors[kind](params, ctx)
        except JobCancelled:
            tag, value = "cancelled", None
        except BaseException as exc:
            tag = "failed"
            value = "".join(
                traceback.format_exception_only(type(exc), exc)
            ).strip()
        else:
            tag, value = "done", result
        finally:
            # the store is the cache of record: the next job resolves
            # through it exactly as a freshly spawned worker would
            runner._memory_cache.clear()
        ctx._send((tag, value, counters.since(before)))
        if tag != "done":
            break
    conn.close()


@dataclass
class _Worker:
    """One pooled worker process and the server's end of its pipe."""

    process: object
    conn: object
    cancel_event: object


class ProcessBackend:
    """Runs jobs in a pool of spawn-start worker processes and monitors
    them.

    One :meth:`run` call per job attempt, invoked from the scheduler's
    job thread: it takes an idle worker (or spawns one), hands it the
    job, pumps progress events, watches for cancellation/shutdown, and
    translates the worker's fate into the same exceptions the in-thread
    backend produces — so the scheduler's state machine is
    backend-agnostic.  *factory* is the picklable zero-argument callable
    each worker calls once to build its executor table.
    """

    def __init__(
        self,
        factory,
        kill_grace: float = DEFAULT_KILL_GRACE_S,
        heartbeat_timeout: float | None = None,
        max_job_seconds: float | None = None,
    ) -> None:
        if kill_grace <= 0:
            raise ValueError(f"kill_grace must be > 0, got {kill_grace}")
        if heartbeat_timeout is not None and heartbeat_timeout <= 0:
            raise ValueError(
                f"heartbeat_timeout must be > 0 or None, got {heartbeat_timeout}"
            )
        if max_job_seconds is not None and max_job_seconds <= 0:
            raise ValueError(
                f"max_job_seconds must be > 0 or None, got {max_job_seconds}"
            )
        self.factory = factory
        self.kill_grace = kill_grace
        self.heartbeat_timeout = heartbeat_timeout
        self.max_job_seconds = max_job_seconds
        self._heartbeat_every = (
            min(1.0, heartbeat_timeout / 4.0) if heartbeat_timeout else 1.0
        )
        # guards the idle list, the flags and counter merges
        self._lock = threading.Lock()
        self._idle: list[_Worker] = []
        self._closed = False
        self._exit_hook = False

    def run(self, job, ctx, attempt: int = 1):
        """Execute *job* in a pooled worker process; return its result
        dict.

        Raises :class:`JobCancelled` when the job was cancelled (via a
        cooperative checkpoint or the kill backstop),
        :class:`WorkerError` when the executor raised,
        :class:`DeadlineExceeded` when the job overran its wall-clock
        budget, :class:`WorkerHung` when the heartbeat watchdog killed a
        silent worker, and :class:`WorkerCrashed` when the worker died
        without an answer.
        """
        from repro.bench import runner

        deadline_s = getattr(job, "deadline_s", None)
        if deadline_s is None:
            deadline_s = self.max_job_seconds
        started = time.monotonic()
        worker = self._acquire()
        process = worker.process
        try:
            worker.conn.send(
                (
                    job.kind, job.params, attempt, ctx.workers,
                    str(runner.CACHE_DIR), faults.active_spec(),
                )
            )
        except (BrokenPipeError, OSError):
            pass  # died while idle: the loop below reads EOF, a crash

        outcome = None
        kill_deadline = None
        killed = False
        hung = False
        deadline_hit = False
        last_msg = started  # refreshed by every pipe message (events, hb)
        try:
            while outcome is None:
                now = time.monotonic()
                if kill_deadline is None and self._cancelling(job, ctx):
                    worker.cancel_event.set()
                    kill_deadline = now + self.kill_grace
                    ctx.emit(
                        "cancelling",
                        f"cooperative checkpoint, worker kill in "
                        f"{self.kill_grace:.1f}s",
                    )
                if kill_deadline is None and not killed:
                    # watchdog passes run only until a kill is in motion
                    if deadline_s and now - started >= deadline_s:
                        deadline_hit = True
                        ctx.emit(
                            "deadline",
                            f"wall clock exceeded {deadline_s:.1f}s; "
                            f"killing worker",
                        )
                        self._kill(process)
                        killed = True
                    elif (
                        self.heartbeat_timeout
                        and now - last_msg >= self.heartbeat_timeout
                    ):
                        hung = True
                        ctx.emit(
                            "hung",
                            f"no heartbeat for "
                            f"{self.heartbeat_timeout:.1f}s; killing "
                            f"worker process group",
                        )
                        self._kill(process)
                        killed = True
                if (
                    kill_deadline is not None
                    and not killed
                    and now >= kill_deadline
                ):
                    self._kill(process)
                    killed = True
                if worker.conn.poll(0.05):
                    last_msg = time.monotonic()
                    got = self._pump(worker.conn, ctx)
                    if got is _EOF:
                        break
                    outcome = got
                elif not process.is_alive():
                    # dead worker: drain events still in the pipe buffer
                    while outcome is None and worker.conn.poll():
                        got = self._pump(worker.conn, ctx)
                        if got is _EOF:
                            break
                        outcome = got
                    break
        finally:
            if (
                outcome is not None
                and outcome[0] == "done"
                and not worker.cancel_event.is_set()
            ):
                self._release(worker)
            else:
                self._retire(worker, kill=outcome is None)

        if outcome is None:
            if self._cancelling(job, ctx):
                raise JobCancelled(
                    "worker process terminated after cancellation"
                )
            if deadline_hit:
                raise DeadlineExceeded(
                    f"deadline exceeded: {job.id} ran past "
                    f"{deadline_s:.1f}s wall clock and was killed"
                )
            if hung:
                raise WorkerHung(
                    f"worker process for {job.id} presumed hung: no "
                    f"heartbeat for {self.heartbeat_timeout:.1f}s; "
                    f"process group killed"
                )
            raise WorkerCrashed(
                f"worker process for {job.id} died unexpectedly "
                f"({describe_exit(process.exitcode)})"
            )
        tag, value = outcome
        if tag == "done":
            return value
        if tag == "cancelled":
            raise JobCancelled("cancelled at a cooperative checkpoint")
        raise WorkerError(value)

    def shutdown(self) -> None:
        """Stop taking jobs; stop and join every idle worker.

        Busy workers are retired by the job threads that own them (a
        stopping scheduler cancels their jobs), and a worker released
        after this call is retired instead of pooled."""
        with self._lock:
            self._closed = True
            idle, self._idle = self._idle, []
        atexit.unregister(self.shutdown)
        for worker in idle:
            worker.conn.close()  # EOF: every idle worker exits at once
        for worker in idle:
            self._retire(worker)

    # -- pool -----------------------------------------------------------

    def _acquire(self) -> _Worker:
        """The most recently pooled live worker, else a fresh one."""
        stale = []
        worker = None
        with self._lock:
            if self._closed:
                raise JobCancelled("process backend is shut down")
            while self._idle:
                candidate = self._idle.pop()
                # an idle worker sends nothing: readable means EOF
                if candidate.process.is_alive() and not candidate.conn.poll():
                    worker = candidate
                    break
                stale.append(candidate)
        for dead in stale:
            self._retire(dead)
        return worker if worker is not None else self._spawn()

    def _spawn(self) -> _Worker:
        mp = spawn_context()
        cancel_event = mp.Event()
        conn, child_conn = mp.Pipe()
        process = mp.Process(
            target=_worker_main,
            args=(child_conn, cancel_event, self.factory,
                  self._heartbeat_every),
            name="repro-worker",
        )
        process.start()
        child_conn.close()  # keep one worker end so EOF means it is gone
        with self._lock:
            if not self._exit_hook:
                # registered after multiprocessing's own exit hook, which
                # joins every non-daemonic child, so this one runs first:
                # an interpreter exiting without shutdown() stops the
                # idle workers instead of waiting on them forever
                atexit.register(self.shutdown)
                self._exit_hook = True
        return _Worker(process, conn, cancel_event)

    def _release(self, worker: _Worker) -> None:
        with self._lock:
            if not self._closed:
                self._idle.append(worker)
                return
        self._retire(worker)

    def _retire(self, worker: _Worker, kill: bool = False) -> None:
        """Close the worker's pipe (EOF ends its job loop) and join it;
        SIGKILL its process group first when *kill*, or when it does not
        exit in time."""
        process = worker.process
        if kill and process.is_alive():
            self._kill(process)
        worker.conn.close()
        process.join(10.0)
        if process.is_alive():  # pragma: no cover - last resort
            self._kill(process)
            process.join(5.0)

    # -- monitor helpers -----------------------------------------------

    @staticmethod
    def _cancelling(job, ctx) -> bool:
        return job.cancel_requested or ctx.scheduler._stop

    def _pump(self, conn, ctx):
        """Read one pipe message; forward events, merge a terminal
        message's store counters and return ``(tag, value)`` (``_EOF``
        for a broken pipe, ``None`` for a forwarded event)."""
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return _EOF
        if message[0] == "hb":
            return None  # heartbeat: refreshes the watchdog clock only
        if message[0] == "event":
            ctx.emit(message[1], message[2])
            return None
        from repro.bench import runner

        with self._lock:
            runner.artifact_store().counters.add(message[2])
        return (message[0], message[1])

    @staticmethod
    def _kill(process) -> None:
        """SIGKILL the worker's process group (engine forks included)."""
        if not process.is_alive() or process.pid is None:
            return
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError, OSError):
            try:
                process.kill()
            except (ProcessLookupError, OSError):  # pragma: no cover
                pass
