"""Fault isolation, real cancellation, and the service-layer bug sweep.

The process backend runs jobs in a pool of spawn-start worker
processes, so these tests exercise the failure modes the in-thread
backend could not survive: a worker calling ``os._exit`` mid-job, a
worker that ignores its cancel token (killed by the backstop), and a
``BaseException`` escaping an executor (must not strand a scheduler
slot).  The pool tests pin when a worker is reused (after ``done``) and
when it is retired (after anything else), and what each job gets
afresh in a reused worker: its fault plan, its memory cap, and its
store-counter delta.  The client
tests pin the typed errors ``result()`` now raises for failed and
cancelled jobs, and the checkpoint tests pin that cancel tokens thread
through the engine's inner loops without perturbing results.

The executors below are **module-level** so the spawn-start worker can
re-import them by reference (``tests/`` is on ``sys.path`` under
pytest, and spawn forwards ``sys.path`` to the child).
"""

from __future__ import annotations

import multiprocessing
import os
import re
import threading
import time

import pytest

from repro.asm import assemble
from repro.cells import SG65
from repro.core import analyze, explore
from repro.core.baselines import input_profiling
from repro.core.peakpower import compute_peak_power
from repro.core.stressmark import generate_stressmark
from repro.parallel.cancel import CancelToken, JobCancelled
from repro.power import PowerModel
from repro.service.client import (
    JobCancelledError,
    JobFailedError,
    ServiceClient,
    ServiceError,
)
from repro.service.scheduler import (
    CANCELLED,
    DONE,
    FAILED,
    RUNNING,
    JobScheduler,
)
from repro.service.server import AnalysisService, make_server

# ----------------------------------------------------------------------
# Picklable executors for the process backend
# ----------------------------------------------------------------------


def _echo_executor(params, ctx):
    ctx.emit("working", "echo")
    return {"echo": dict(params)}


def _exit_executor(params, ctx):
    os._exit(1)  # simulates a hard engine crash / OOM kill


def _stubborn_executor(params, ctx):
    # never looks at the cancel token: only the kill backstop stops it
    time.sleep(30)
    return {"stubborn": True}


def _cooperative_executor(params, ctx):
    for _ in range(600):
        ctx.check_cancelled()
        time.sleep(0.05)
    return {"cooperative": True}


def _checked_echo_executor(params, ctx):
    ctx.check_cancelled()  # a stale cancel event would trip here
    return {"echo": dict(params)}


def _finish_despite_cancel_executor(params, ctx):
    # sees the cancel, then finishes ``done`` anyway: the race where a
    # cancel lands as a job completes
    deadline = time.monotonic() + 30
    while not ctx.cancelled() and time.monotonic() < deadline:
        time.sleep(0.01)
    return {"finished": True}


def _rlimit_executor(params, ctx):
    import resource

    return {"rlimit_as": list(resource.getrlimit(resource.RLIMIT_AS))}


def _store_put_executor(params, ctx):
    from repro.bench import runner

    runner.artifact_store().put(params["key"], {"value": params["value"]})
    return {"stored": params["key"]}


def _store_get_executor(params, ctx):
    from repro.bench import runner

    return runner.artifact_store().get(params["key"])


def _test_executors():
    from repro.service.gateway import run_upload_job

    return {
        "echo": _echo_executor,
        "die": _exit_executor,
        "stubborn": _stubborn_executor,
        "cooperative": _cooperative_executor,
        "checked": _checked_echo_executor,
        "finish_despite_cancel": _finish_despite_cancel_executor,
        "rlimit": _rlimit_executor,
        "store_put": _store_put_executor,
        "store_get": _store_get_executor,
        "upload": run_upload_job,
    }


def _wait_for(predicate, timeout=15.0, interval=0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


# ----------------------------------------------------------------------
# Satellite: BaseException must not strand a scheduler slot
# ----------------------------------------------------------------------


class TestSlotLeak:
    def _scheduler(self, executors):
        return JobScheduler(max_concurrent=1, executors=executors)

    def test_base_exception_releases_slot(self):
        def boom(params, ctx):
            raise SystemExit("engine bailed")

        scheduler = self._scheduler({"boom": boom, "ok": _echo_executor})
        try:
            bad, _ = scheduler.submit("boom", {})
            assert scheduler.wait(bad.id, 10)
            assert bad.state == FAILED
            assert "SystemExit" in bad.error
            # the slot must be free again at max_concurrent=1
            good, _ = scheduler.submit("ok", {"x": 1})
            assert scheduler.wait(good.id, 10)
            assert good.state == DONE
        finally:
            scheduler.shutdown()

    def test_keyboard_interrupt_releases_slot(self):
        def boom(params, ctx):
            raise KeyboardInterrupt

        scheduler = self._scheduler({"boom": boom, "ok": _echo_executor})
        try:
            bad, _ = scheduler.submit("boom", {})
            assert scheduler.wait(bad.id, 10)
            assert bad.state == FAILED
            good, _ = scheduler.submit("ok", {})
            assert scheduler.wait(good.id, 10)
            assert good.state == DONE
        finally:
            scheduler.shutdown()


# ----------------------------------------------------------------------
# Tentpole: the process execution backend
# ----------------------------------------------------------------------


class TestProcessBackend:
    @pytest.fixture
    def scheduler(self):
        scheduler = JobScheduler(
            max_concurrent=1,
            backend="process",
            executor_factory=_test_executors,
            kill_grace=1.0,
        )
        yield scheduler
        scheduler.shutdown()

    def test_rejects_executors_dict(self):
        with pytest.raises(ValueError, match="executor_factory"):
            JobScheduler(backend="process", executors={"x": _echo_executor})

    def test_rejects_unknown_backend(self):
        with pytest.raises(ValueError, match="backend"):
            JobScheduler(backend="carrier-pigeon")

    def test_result_and_events_round_trip(self, scheduler):
        job, _ = scheduler.submit("echo", {"x": 1})
        assert scheduler.wait(job.id, 60)
        assert job.state == DONE
        assert job.result == {"echo": {"x": 1}}
        stages = [event["stage"] for event in job.events]
        # worker-side ctx.emit events cross the pipe into the job log
        assert "working" in stages
        assert stages[-1] == "finished"

    def test_worker_crash_fails_job_and_scheduler_survives(self, scheduler):
        job, _ = scheduler.submit("die", {})
        assert scheduler.wait(job.id, 60)
        assert job.state == FAILED
        assert "died unexpectedly" in job.error
        # fault isolation: the scheduler (and its slot) survive the crash
        after, _ = scheduler.submit("echo", {"x": 2})
        assert scheduler.wait(after.id, 60)
        assert after.state == DONE

    def test_cancel_kills_stubborn_worker(self, scheduler):
        job, _ = scheduler.submit("stubborn", {})
        assert _wait_for(lambda: job.state == RUNNING)
        started = time.monotonic()
        scheduler.cancel(job.id)
        assert scheduler.wait(job.id, 10), "kill backstop did not fire"
        assert job.state == CANCELLED
        assert time.monotonic() - started < 10
        # the freed slot is immediately reusable
        after, _ = scheduler.submit("echo", {"x": 3})
        assert scheduler.wait(after.id, 60)
        assert after.state == DONE

    def test_cancel_cooperative_checkpoint(self, scheduler):
        job, _ = scheduler.submit("cooperative", {})
        assert _wait_for(lambda: job.state == RUNNING)
        time.sleep(0.3)  # let the worker reach its polling loop
        scheduler.cancel(job.id)
        assert scheduler.wait(job.id, 10)
        assert job.state == CANCELLED
        assert job.error == "cancelled while running"

    def test_inflight_dedupe_survives_backend(self, scheduler):
        first, deduped_first = scheduler.submit("stubborn", {"same": 1})
        second, deduped_second = scheduler.submit("stubborn", {"same": 1})
        assert not deduped_first and deduped_second
        assert second is first
        # once RUNNING, cancel stops the shared job (a QUEUED cancel
        # would only have peeled one merged waiter off)
        assert _wait_for(lambda: first.state == RUNNING)
        scheduler.cancel(first.id)
        assert scheduler.wait(first.id, 10)
        assert first.state == CANCELLED


# ----------------------------------------------------------------------
# The warm worker pool: reuse after ``done``, retire after anything else
# ----------------------------------------------------------------------


def _booted_pids(job) -> list[int]:
    """Worker pid of every attempt of *job*, from its ``booted`` events."""
    return [
        int(re.search(r"worker pid (\d+)", event["detail"]).group(1))
        for event in job.events
        if event["stage"] == "booted"
    ]


def _run(scheduler, kind, params=None, **kwargs):
    job, _ = scheduler.submit(kind, params or {}, **kwargs)
    assert scheduler.wait(job.id, 60)
    return job


@pytest.fixture
def pool_scheduler():
    schedulers = []

    def make(**kwargs):
        kwargs.setdefault("max_concurrent", 1)
        kwargs.setdefault("kill_grace", 1.0)
        kwargs.setdefault("retry_backoff_s", 0.05)
        scheduler = JobScheduler(
            backend="process", executor_factory=_test_executors, **kwargs
        )
        schedulers.append(scheduler)
        return scheduler

    yield make
    for scheduler in schedulers:
        scheduler.shutdown()


@pytest.fixture
def faults_env(monkeypatch):
    """``REPRO_FAULTS``, cleared for the test; returns the name."""
    from repro.service.faults import FAULTS_ENV

    monkeypatch.delenv(FAULTS_ENV, raising=False)
    return FAULTS_ENV


class TestWorkerPool:
    def test_sequential_jobs_reuse_one_worker(self, pool_scheduler):
        scheduler = pool_scheduler()
        first = _run(scheduler, "echo", {"x": 1})
        second = _run(scheduler, "echo", {"x": 2})
        assert first.state == second.state == DONE
        assert _booted_pids(first) == _booted_pids(second)
        [booted] = [e for e in second.events if e["stage"] == "booted"]
        assert "job 2 on this worker" in booted["detail"]

    def test_crashed_job_is_retried_on_a_fresh_worker(self, pool_scheduler):
        scheduler = pool_scheduler(max_retries=1)
        warm = _run(scheduler, "echo", {"x": 1})
        crashed = _run(scheduler, "die")
        after = _run(scheduler, "echo", {"x": 2})
        assert crashed.state == FAILED and after.state == DONE
        pids = _booted_pids(warm) + _booted_pids(crashed) + _booted_pids(after)
        # the warm worker takes attempt 1; attempt 2 and the next job
        # each get a process of their own
        assert pids[1] == pids[0]
        assert len(set(pids)) == 3

    def test_hung_job_is_retried_on_a_fresh_worker(
        self, pool_scheduler, monkeypatch, faults_env
    ):
        scheduler = pool_scheduler(heartbeat_timeout=2.5, max_retries=1)
        warm = _run(scheduler, "echo", {"x": 1})
        monkeypatch.setenv(faults_env, "worker.start=hang:on_attempt=1")
        hung = _run(scheduler, "echo", {"x": 2})
        assert hung.state == DONE and hung.attempt == 2
        assert "hung" in [e["stage"] for e in hung.events]
        pids = _booted_pids(hung)
        assert pids[0] == _booted_pids(warm)[0]
        assert pids[1] != pids[0]

    def test_deadline_killed_job_retires_its_worker(self, pool_scheduler):
        scheduler = pool_scheduler()
        warm = _run(scheduler, "echo", {"x": 1})
        killed = _run(scheduler, "stubborn", deadline_s=1.0)
        after = _run(scheduler, "echo", {"x": 2})
        assert killed.state == FAILED and "deadline exceeded" in killed.error
        assert _booted_pids(killed) == _booted_pids(warm)
        assert _booted_pids(after)[0] != _booted_pids(warm)[0]

    def test_cancelled_job_retires_its_worker(self, pool_scheduler):
        scheduler = pool_scheduler()
        warm = _run(scheduler, "echo", {"x": 1})
        job, _ = scheduler.submit("cooperative", {})
        assert _wait_for(
            lambda: any(e["stage"] == "booted" for e in job.events)
        )
        scheduler.cancel(job.id)
        assert scheduler.wait(job.id, 10)
        assert job.state == CANCELLED
        after = _run(scheduler, "echo", {"x": 2})
        assert _booted_pids(job) == _booted_pids(warm)
        assert _booted_pids(after)[0] != _booted_pids(warm)[0]

    def test_cancel_landing_as_job_finishes_spares_the_next_job(
        self, pool_scheduler
    ):
        scheduler = pool_scheduler()
        job, _ = scheduler.submit("finish_despite_cancel", {})
        assert _wait_for(
            lambda: any(e["stage"] == "booted" for e in job.events)
        )
        scheduler.cancel(job.id)
        assert scheduler.wait(job.id, 10)
        assert job.result == {"finished": True}
        # the worker saw a cancel: it is retired, not handed the next job
        after = _run(scheduler, "checked", {"x": 1})
        assert after.state == DONE, after.error
        assert _booted_pids(after)[0] != _booted_pids(job)[0]

    def test_fault_spec_changes_reach_a_warm_worker(
        self, pool_scheduler, monkeypatch, faults_env
    ):
        scheduler = pool_scheduler()
        first = _run(scheduler, "echo", {"x": 1})
        # hit counters restart per job: nth=2 never fires on a site hit
        # once per job, however many jobs the worker serves
        monkeypatch.setenv(faults_env, "worker.start=raise:nth=2")
        second = _run(scheduler, "echo", {"x": 2})
        third = _run(scheduler, "echo", {"x": 3})
        monkeypatch.setenv(faults_env, "worker.start=raise")
        fourth = _run(scheduler, "echo", {"x": 4})
        monkeypatch.delenv(faults_env)
        fifth = _run(scheduler, "echo", {"x": 5})
        assert [j.state for j in (first, second, third)] == [DONE] * 3
        assert fourth.state == FAILED and "FaultInjected" in fourth.error
        assert fifth.state == DONE
        pid = _booted_pids(first)
        assert _booted_pids(second) == _booted_pids(third) == pid
        assert _booted_pids(fourth) == pid

    def test_upload_memory_cap_is_lifted_after_the_job(
        self, pool_scheduler, tmp_path, monkeypatch
    ):
        from repro.bench import runner
        from repro.service.gateway import validate_upload

        monkeypatch.setattr(runner, "CACHE_DIR", tmp_path / "cache")
        scheduler = pool_scheduler()
        before = _run(scheduler, "rlimit")
        upload = _run(
            scheduler, "upload",
            validate_upload(
                {"source": STRAIGHT_SOURCE, "name": "straight"}, 64 * 1024
            ),
        )
        after = _run(scheduler, "rlimit")
        assert upload.state == DONE, upload.error
        assert upload.result["cached"] is False
        assert after.result == before.result
        assert _booted_pids(before) == _booted_pids(upload)
        assert _booted_pids(upload) == _booted_pids(after)

    def test_worker_store_counters_reach_the_server(
        self, tmp_path, monkeypatch
    ):
        from repro.bench import runner

        monkeypatch.setattr(runner, "CACHE_DIR", tmp_path / "cache")
        monkeypatch.setattr(runner, "_store", None)
        service = AnalysisService(
            scheduler=JobScheduler(
                max_concurrent=1,
                backend="process",
                executor_factory=_test_executors,
            )
        )
        server = make_server(service, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            client = ServiceClient(
                f"http://127.0.0.1:{server.server_address[1]}", timeout=30.0
            )
            for kind in ("store_put", "store_get", "store_get"):
                job = client.submit(kind, key="k", value=7)
                assert client.result(job["job_id"], timeout=60)["state"] == DONE
            counters = client.store_stats()["counters"]
            assert counters["writes"] == 1
            assert counters["hits_total"] == 2
        finally:
            server.shutdown()
            server.server_close()
            service.close()
            thread.join(timeout=10)

    def test_shutdown_joins_every_worker(self):
        scheduler = JobScheduler(
            max_concurrent=2,
            backend="process",
            executor_factory=_test_executors,
        )
        jobs = [scheduler.submit("echo", {"x": i})[0] for i in range(2)]
        for job in jobs:
            assert scheduler.wait(job.id, 60)
        scheduler.shutdown()
        workers = [
            p for p in multiprocessing.active_children()
            if p.name == "repro-worker"
        ]
        assert workers == []


# ----------------------------------------------------------------------
# HTTP layer over the process backend (the acceptance criteria)
# ----------------------------------------------------------------------


@pytest.fixture
def process_service():
    service = AnalysisService(
        scheduler=JobScheduler(
            max_concurrent=1,
            backend="process",
            executor_factory=_test_executors,
            kill_grace=1.0,
        )
    )
    server = make_server(service, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    port = server.server_address[1]
    try:
        yield ServiceClient(f"http://127.0.0.1:{port}", timeout=30.0), service
    finally:
        server.shutdown()
        server.server_close()
        service.close()
        thread.join(timeout=10)


class TestProcessBackendOverHTTP:
    def test_crash_fails_one_job_server_keeps_serving(self, process_service):
        client, _ = process_service
        job = client.submit("die")
        with pytest.raises(JobFailedError) as err:
            client.result(job["job_id"], timeout=60)
        assert err.value.status == 500
        assert "died unexpectedly" in err.value.payload["error"]
        assert client.health()["ok"] is True
        after = client.submit("echo", x=1)
        payload = client.result(after["job_id"], timeout=60)
        assert payload["result"] == {"echo": {"x": 1}}

    def test_delete_running_job_terminates_and_frees_slot(
        self, process_service
    ):
        client, _ = process_service
        job = client.submit("stubborn")
        assert _wait_for(
            lambda: client.status(job["job_id"])["state"] == RUNNING
        )
        started = time.monotonic()
        response = client.cancel(job["job_id"])
        assert response["cancel_requested"] is True
        assert _wait_for(
            lambda: client.status(job["job_id"])["state"] == CANCELLED,
            timeout=10,
        ), "DELETE on a RUNNING job did not reach a terminal state"
        assert time.monotonic() - started < 10
        assert client.health()["ok"] is True
        with pytest.raises(JobCancelledError) as err:
            client.result(job["job_id"], timeout=10)
        assert err.value.status == 409
        # the slot is reclaimed: a fresh submit runs to completion
        after = client.submit("echo", x=2)
        assert client.result(after["job_id"], timeout=60)["state"] == "done"


# ----------------------------------------------------------------------
# Satellites: typed client errors, poll formatting, narrowed 404
# ----------------------------------------------------------------------


def _cooperative_thread_executor(params, ctx):
    for _ in range(200):
        ctx.check_cancelled()
        time.sleep(0.05)
    return {"slept": True}


def _boom_executor(params, ctx):
    raise RuntimeError("engine exploded")


@pytest.fixture
def thread_service():
    service = AnalysisService(
        scheduler=JobScheduler(
            max_concurrent=1,
            executors={
                "boom": _boom_executor,
                "sleep": _cooperative_thread_executor,
                "echo": _echo_executor,
            },
        )
    )
    server = make_server(service, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    port = server.server_address[1]
    try:
        yield ServiceClient(f"http://127.0.0.1:{port}", timeout=30.0), service
    finally:
        server.shutdown()
        server.server_close()
        service.close()
        thread.join(timeout=10)


class TestClientTypedErrors:
    def test_failed_job_raises_job_failed_error(self, thread_service):
        client, _ = thread_service
        job = client.submit("boom")
        with pytest.raises(JobFailedError) as err:
            client.result(job["job_id"], timeout=30)
        assert err.value.status == 500
        assert err.value.payload["job_id"] == job["job_id"]
        assert "engine exploded" in err.value.payload["error"]
        # JobFailedError is still a ServiceError: old handlers keep working
        assert isinstance(err.value, ServiceError)

    def test_cancelled_job_raises_job_cancelled_error(self, thread_service):
        client, _ = thread_service
        running = client.submit("sleep", which="running")
        queued = client.submit("sleep", which="queued")
        response = client.cancel(queued["job_id"])
        assert response["cancelled"] is True  # queued: died immediately
        with pytest.raises(JobCancelledError) as err:
            client.result(queued["job_id"], timeout=30)
        assert err.value.status == 409
        assert err.value.payload["job_id"] == queued["job_id"]
        client.cancel(running["job_id"])  # cooperative: unblocks teardown

    def test_genuine_server_keyerror_is_500_not_404(self, thread_service):
        client, service = thread_service

        def broken_counts():
            raise KeyError("server-side bug")

        service.scheduler.counts = broken_counts
        with pytest.raises(ServiceError) as err:
            client.health()
        assert err.value.status == 500  # not masked as "not found"

    def test_unknown_job_is_still_404(self, thread_service):
        client, _ = thread_service
        with pytest.raises(ServiceError) as err:
            client.status("job-99999")
        assert err.value.status == 404


class TestResultPolling:
    def test_subsecond_budget_does_not_truncate_to_zero(self, monkeypatch):
        client = ServiceClient("http://127.0.0.1:1")
        paths = []

        def fake_request(method, path, body=None, timeout=None):
            paths.append(path)
            return {"state": "done"}

        monkeypatch.setattr(client, "_request", fake_request)
        client.result("job-1", timeout=0.4)
        assert len(paths) == 1
        # a 0.4s budget must reach the server as 0.400, not 0 (which the
        # old %.0f formatting produced, busy-looping out the deadline)
        assert "timeout=0.400" in paths[0]

    def test_exhausted_budget_raises_timeout(self, monkeypatch):
        client = ServiceClient("http://127.0.0.1:1")

        def never_done(method, path, body=None, timeout=None):
            return {"state": "running"}

        monkeypatch.setattr(client, "_request", never_done)
        with pytest.raises(TimeoutError):
            client.result("job-1", timeout=0.2)


# ----------------------------------------------------------------------
# Cancel checkpoints inside the engine's inner loops
# ----------------------------------------------------------------------


def _source(body: str, inputs: str = "") -> str:
    return (
        f".equ WDTCTL, 0x0120\n.org 0xF000\n"
        f"start: mov #0x5A80, &WDTCTL\n{body}\nend: jmp end\n{inputs}"
    )


def _program(body: str, inputs: str = ""):
    return assemble(_source(body, inputs), "t")


STRAIGHT_SOURCE = _source("mov #5, r4\n add r4, r4")
STRAIGHT = assemble(STRAIGHT_SOURCE, "t")


@pytest.fixture(scope="module")
def model(cpu):
    return PowerModel(cpu.netlist, SG65, clock_ns=10.0)


def _tripped():
    token = CancelToken()
    token.set()
    return token


class TestEngineCheckpoints:
    def test_explore_checkpoint(self, cpu):
        with pytest.raises(JobCancelled):
            explore(cpu, STRAIGHT, cancel=_tripped())

    def test_peak_power_checkpoint(self, cpu, model):
        tree = explore(cpu, STRAIGHT)
        with pytest.raises(JobCancelled):
            compute_peak_power(tree, model, cancel=_tripped())

    def test_stressmark_checkpoint(self, cpu, model):
        with pytest.raises(JobCancelled):
            generate_stressmark(
                cpu, model, population=4, generations=2,
                genome_length=4, cancel=_tripped(),
            )

    def test_input_profiling_checkpoint(self, cpu, model):
        with pytest.raises(JobCancelled):
            input_profiling(
                cpu, STRAIGHT, [[0], [1]], model, cancel=_tripped()
            )

    def test_job_cancelled_pierces_except_exception(self):
        # JobCancelled is a BaseException on purpose: broad recovery
        # paths (``except Exception``) must not swallow a cancellation
        with pytest.raises(JobCancelled):
            try:
                raise JobCancelled("cancelled")
            except Exception:  # noqa: BLE001 - the point of the test
                pytest.fail("JobCancelled was swallowed by except Exception")

    def test_unset_token_does_not_perturb_results(self, cpu, model):
        plain = analyze(cpu, STRAIGHT, model)
        tokened = analyze(cpu, STRAIGHT, model, cancel=CancelToken())
        assert tokened.peak_power_mw == plain.peak_power_mw
        assert tokened.peak_energy_pj == plain.peak_energy_pj
