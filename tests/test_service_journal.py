"""The durable job journal: write-ahead logging and crash recovery.

Covers the log itself (round trip, torn-tail tolerance, atomic
compaction), the scheduler's journaling discipline (submit/start/
terminal records; graceful shutdown deliberately writes *no* terminal
records so interrupted work is requeued), and :func:`recover_jobs`
(ids preserved, unknown kinds skipped, duplicates merged).
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.service.journal import (
    JobJournal,
    PendingJob,
    ReplayReport,
    recover_jobs,
)
from repro.service.scheduler import CANCELLED, DONE, JobScheduler


def _echo(params, ctx):
    ctx.emit("working", "echo")
    return {"echo": dict(params)}


def _blocking(params, ctx):
    # cooperative: winds down promptly when shutdown sets the token
    for _ in range(600):
        ctx.check_cancelled()
        time.sleep(0.02)
    return {"slept": True}


def _wait_for(predicate, timeout=15.0, interval=0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


@pytest.fixture
def journal(tmp_path):
    return JobJournal(tmp_path / "jobs.journal.jsonl")


class TestJournalFile:
    def test_round_trip(self, journal):
        journal.record_submit(
            "job-00001", "analyze", {"benchmark": "mult"},
            priority=3, deadline_s=12.5,
        )
        journal.record_start("job-00001", attempt=1)
        journal.record_retry("job-00001", attempt=2)
        report = journal.replay()
        assert report.n_records == 3
        assert report.n_torn == 0
        [pending] = report.pending
        assert pending.job_id == "job-00001"
        assert pending.kind == "analyze"
        assert pending.params == {"benchmark": "mult"}
        assert pending.priority == 3
        assert pending.deadline_s == 12.5
        assert pending.last_state == "running"
        assert pending.attempts == 2

    def test_terminal_retires_a_job(self, journal):
        journal.record_submit("job-00001", "analyze", {"benchmark": "mult"})
        journal.record_submit("job-00002", "analyze", {"benchmark": "fir"})
        journal.record_terminal("job-00001", DONE)
        report = journal.replay()
        assert report.n_terminal == 1
        assert [p.job_id for p in report.pending] == ["job-00002"]

    def test_never_started_job_replays_as_queued(self, journal):
        journal.record_submit("job-00001", "analyze", {"benchmark": "mult"})
        [pending] = journal.replay().pending
        assert pending.last_state == "queued"

    def test_torn_tail_is_skipped_not_fatal(self, journal):
        journal.record_submit("job-00001", "analyze", {"benchmark": "mult"})
        with open(journal.path, "a", encoding="utf-8") as fh:
            fh.write('{"op": "terminal", "job_id": "job-00')  # crash mid-append
        report = journal.replay()
        assert report.n_torn == 1
        assert [p.job_id for p in report.pending] == ["job-00001"]

    def test_unknown_ops_and_missing_files_are_harmless(self, journal):
        assert journal.replay().pending == []  # no file yet
        journal.append({"op": "vacuum", "job_id": "job-00001"})
        journal.record_submit("job-00001", "analyze", {"benchmark": "mult"})
        assert len(journal.replay().pending) == 1

    def test_compact_truncates_atomically(self, journal):
        journal.record_submit("job-00001", "analyze", {"benchmark": "mult"})
        journal.compact()
        assert journal.path.read_text() == ""
        assert journal.replay().pending == []
        journal.compact()  # idempotent on an empty (or absent) file


class TestSchedulerJournaling:
    def _scheduler(self, journal, executors=None):
        return JobScheduler(
            max_concurrent=1,
            executors=executors or {"echo": _echo},
            journal=journal,
        )

    def test_done_job_leaves_no_pending_entry(self, journal):
        scheduler = self._scheduler(journal)
        try:
            job, _ = scheduler.submit("echo", {"x": 1})
            assert scheduler.wait(job.id, 10)
            assert job.state == DONE
        finally:
            scheduler.shutdown()
        report = journal.replay()
        assert report.pending == []
        assert report.n_terminal == 1

    def test_user_cancel_is_a_real_terminal(self, journal):
        scheduler = self._scheduler(
            journal, {"echo": _echo, "block": _blocking}
        )
        try:
            blocker, _ = scheduler.submit("block", {})
            queued, _ = scheduler.submit("echo", {"x": 1})
            scheduler.cancel(queued.id)
            assert queued.state == CANCELLED
        finally:
            scheduler.shutdown()
        # the user-cancelled job is retired; only the shutdown-interrupted
        # blocker survives to be requeued
        assert [p.job_id for p in journal.replay().pending] == [blocker.id]

    def test_graceful_shutdown_requeues_queued_and_running(self, journal):
        scheduler = self._scheduler(
            journal, {"echo": _echo, "block": _blocking}
        )
        running, _ = scheduler.submit("block", {})
        assert _wait_for(lambda: running.state == "running")
        queued, _ = scheduler.submit("echo", {"x": 1}, priority=5)
        scheduler.shutdown()
        report = journal.replay()
        by_id = {p.job_id: p for p in report.pending}
        assert set(by_id) == {running.id, queued.id}
        assert by_id[running.id].last_state == "running"
        assert by_id[queued.id].last_state == "queued"
        assert by_id[queued.id].priority == 5


class TestRecoverJobs:
    def test_ids_and_knobs_survive_recovery(self, journal):
        report = ReplayReport(
            pending=[
                PendingJob(
                    "job-00007", "echo", {"x": 1},
                    priority=4, deadline_s=9.0, last_state="running",
                ),
            ]
        )
        gate = threading.Event()
        gate.set()

        def gated_echo(params, ctx):
            assert gate.wait(30), "gate never reopened"
            return _echo(params, ctx)

        scheduler = JobScheduler(
            max_concurrent=1, executors={"echo": gated_echo},
            journal=journal,
        )
        try:
            summary = recover_jobs(scheduler, report)
            assert summary["requeued"] == 1
            assert summary["merged"] == 0 and summary["skipped"] == 0
            job = scheduler.get("job-00007")
            assert job.deadline_s == 9.0
            assert job.recovered
            stages = [e["stage"] for e in job.events]
            assert "recovered" in stages
            assert scheduler.wait(job.id, 10)
            assert job.state == DONE
            # the id counter seeds past the recovered tail: no collisions;
            # the closed gate holds fresh in its executor, so no terminal
            # record can land before the replay below reads the journal
            gate.clear()
            fresh, _ = scheduler.submit("echo", {"x": 2})
            assert int(fresh.id.split("-")[1]) > 7
            # the requeued job re-journaled itself: a second crash right
            # now would still recover it (nothing terminal yet for fresh)
            assert [p.job_id for p in journal.replay().pending] == [fresh.id]
        finally:
            gate.set()
            scheduler.shutdown()

    def test_unknown_kind_is_skipped_not_fatal(self, journal):
        report = ReplayReport(
            pending=[
                PendingJob("job-00001", "transmogrify", {}),
                PendingJob("job-00002", "echo", {"x": 1}),
            ]
        )
        scheduler = JobScheduler(max_concurrent=1, executors={"echo": _echo})
        try:
            summary = recover_jobs(scheduler, report)
            assert summary == {
                "requeued": 1, "merged": 0, "skipped": 1, "torn_lines": 0,
            }
            assert scheduler.get("job-00002") is not None
        finally:
            scheduler.shutdown()

    def test_duplicate_signatures_merge(self, journal):
        report = ReplayReport(
            pending=[
                PendingJob("job-00001", "block", {}),
                PendingJob("job-00002", "block", {}),
            ]
        )
        scheduler = JobScheduler(
            max_concurrent=1, executors={"block": _blocking}
        )
        try:
            summary = recover_jobs(scheduler, report)
            assert summary["requeued"] == 1
            assert summary["merged"] == 1
        finally:
            scheduler.shutdown()

    def test_recover_id_collision_is_rejected(self):
        scheduler = JobScheduler(max_concurrent=1, executors={"echo": _echo})
        try:
            job, _ = scheduler.submit("echo", {"x": 1})
            with pytest.raises(ValueError, match="already exists"):
                scheduler.submit("echo", {"x": 2}, recover_id=job.id)
        finally:
            scheduler.shutdown()


class TestJournalThreadSafety:
    def test_concurrent_appends_stay_line_atomic(self, journal):
        def writer(n):
            for i in range(25):
                journal.record_submit(f"job-{n}-{i}", "echo", {"i": i})

        threads = [
            threading.Thread(target=writer, args=(n,)) for n in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        report = journal.replay()
        assert report.n_torn == 0
        assert len(report.pending) == 100


class TestTenantPersistence:
    """The owning tenant survives the journal: a crashed tenanted
    server recovers jobs into the right namespace (and quota books)."""

    def test_submit_record_carries_the_tenant(self, journal):
        journal.record_submit("job-00001", "echo", {"x": 1}, tenant="acme")
        journal.record_submit("job-00002", "echo", {"x": 2})
        pending = {p.job_id: p for p in journal.replay().pending}
        assert pending["job-00001"].tenant == "acme"
        assert pending["job-00002"].tenant is None

    def test_pre_tenancy_records_replay_as_tenantless(self, journal):
        # a journal written before tenancy existed has no tenant field
        journal.path.parent.mkdir(parents=True, exist_ok=True)
        with journal.path.open("a") as fh:
            fh.write(
                '{"op": "submit", "job_id": "job-00009", "kind": "echo",'
                ' "params": {}, "priority": 0, "t": 1.0}\n'
            )
        (pending,) = journal.replay().pending
        assert pending.tenant is None

    def test_recovered_job_keeps_its_tenant(self, journal):
        report = ReplayReport(
            pending=[
                PendingJob(
                    "job-00003", "echo", {"x": 1}, tenant="acme",
                ),
            ]
        )
        scheduler = JobScheduler(
            max_concurrent=1, executors={"echo": _echo}, journal=journal
        )
        try:
            recover_jobs(scheduler, report)
            job = scheduler.get("job-00003")
            assert job.tenant == "acme"
            assert scheduler.wait(job.id, 10)
            # the re-journaled submit still names the tenant, so a
            # second crash-recovery round keeps the namespace too
        finally:
            scheduler.shutdown()

    def test_tenant_scopes_the_dedupe_signature(self, journal):
        from repro.service.scheduler import job_signature

        params = {"benchmark": "mult"}
        assert job_signature("analyze", params, tenant="a") != (
            job_signature("analyze", params, tenant="b")
        )
        assert job_signature("analyze", params, tenant=None) != (
            job_signature("analyze", params, tenant="a")
        )
