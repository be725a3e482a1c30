"""Workloads ``service-cold`` and ``service-hit``: uploads to ``repro serve``.

The server runs with its defaults (bitplane engine, process backend,
open API) on a fresh store.  Two closed-loop clients share one seeded
deck of the seven single-path kernels, each uploaded with its registry
budgets plus a seeded nonce comment line:

* ``service-cold`` gives every request its own nonce, so every request
  misses the content-addressed store and runs the engine and a write;
* ``service-hit`` first stores every program (untimed), then times
  re-uploads of them, so the store answers instead of the engine.
  Two nonce variants alternate by deck, so the programs in flight at a
  deck boundary differ and never dedupe onto one job.
"""

from __future__ import annotations

import json
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
if str(BENCH_DIR) not in sys.path:
    sys.path.insert(0, str(BENCH_DIR))

import common  # noqa: E402

#: the Table 4.1 kernels with one execution path: request costs within
#: about 1.4x of each other, so latency percentiles do not jump between
#: kernels
KERNELS = ("FFT", "intAVG", "mult", "tea8", "autoCorr", "intFilt", "ConvEn")
#: closed-loop clients, one per core of the reference host
CLIENTS = 2
#: fresh server launches timed for ``setup_s`` (the last one serves)
SETUP_LAUNCHES = 5
#: nonce variants per kernel on ``service-hit``
HIT_VARIANTS = 2
READY_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0
RESULT_TIMEOUT_S = 120.0


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class Server:
    """One ``repro serve`` launch on a fresh store under *run_dir*."""

    def __init__(self, run_dir: Path, index: int):
        self.store = run_dir / f"store{index}"
        self.log = run_dir / f"serve{index}.log"
        self.port = free_port()
        self.url = f"http://127.0.0.1:{self.port}"
        self.proc = None

    def start(self) -> float:
        """Launch and wait for ``/healthz``; returns seconds until it
        answered."""
        from repro.service.client import ServiceClient, ServiceUnavailableError

        probe = ServiceClient(self.url, timeout=5.0, connect_retries=0)
        started = time.perf_counter()
        with open(self.log, "w") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--port", str(self.port),
                 "--store", str(self.store)],
                cwd=self.store.parent,
                env=common.child_env(),
                stdout=log,
                stderr=subprocess.STDOUT,
            )
        while True:
            try:
                if probe.health().get("ok"):
                    return time.perf_counter() - started
            except ServiceUnavailableError:
                pass
            if self.proc.poll() is not None:
                raise RuntimeError(f"repro serve exited: {self._log_tail()}")
            if time.perf_counter() - started > READY_TIMEOUT_S:
                raise RuntimeError("repro serve never answered /healthz")
            time.sleep(0.005)

    def stop(self) -> float:
        """SIGTERM (graceful drain) and reap; returns the peak resident
        MiB of the server and every worker it spawned."""
        self.proc.send_signal(signal.SIGTERM)
        return common.reap(self.proc, STOP_TIMEOUT_S)[1]

    def _log_tail(self) -> str:
        try:
            return self.log.read_text()[-800:]
        except OSError:
            return ""


class Dispenser:
    """Hands out request items in order to the closed-loop clients.

    Item *i* is slot ``i % deck_size`` of deck ``i // deck_size``.
    After *budget_s* the dispenser only completes the deck in progress,
    so every timed phase ends on a whole deck and times the same mix;
    with *limit* it stops before item *limit* instead.  Numbering starts
    at *start*, a deck boundary.
    """

    def __init__(
        self,
        deck_size: int,
        budget_s: float | None,
        limit: int | None = None,
        start: int = 0,
    ):
        self.deck_size = deck_size
        self.limit = limit
        self.deadline = None if budget_s is None else time.perf_counter() + budget_s
        self.start = start
        self._next = start
        self._lock = threading.Lock()

    def take(self) -> int | None:
        with self._lock:
            i = self._next
            if self.limit is not None and i >= self.limit:
                return None
            if (
                self.deadline is not None
                and i % self.deck_size == 0
                and i > self.start
                and time.perf_counter() >= self.deadline
            ):
                return None
            self._next += 1
            return i


def _ask(client, kernel: str, source: str, bench, golden: dict) -> dict:
    """One closed-loop request: upload, then wait for the parsed result."""
    from repro.service.gateway import DEFAULT_MAX_CYCLES

    record = {"kernel": kernel, "problems": []}
    started = time.perf_counter()
    record["t_post"] = time.time()
    try:
        job = client.upload(
            source,
            name=kernel,
            loop_bound=bench.loop_bound,
            # the gateway caps the cycle budget below the registry's
            max_cycles=min(bench.max_cycles, DEFAULT_MAX_CYCLES),
            max_segments=bench.max_segments,
        )
        record["t_posted"] = time.time()
        payload = client.result(job["job_id"], timeout=RESULT_TIMEOUT_S)
    except Exception as exc:  # any failed request is a failed answer
        record["problems"].append(f"{type(exc).__name__}: {exc}")
        return record
    record["latency_s"] = time.perf_counter() - started
    record["t_done"] = time.time()
    record["job_id"] = job["job_id"]
    record["deduped"] = bool(job.get("deduped"))
    record["attempt"] = int(payload.get("attempt", 1))
    result = payload.get("result") or {}
    record["cached"] = result.get("cached")
    record["n_cycles"] = result.get("n_cycles", 0)
    record["n_segments"] = result.get("n_segments", 0)
    record["problems"] = common.check_answer(result, golden[kernel])
    return record


def _play(url: str, dispenser: Dispenser, item_source, benchmarks, golden):
    """Run the closed loop; returns (records in item order, seconds from
    the first request to the last result)."""
    from repro.service.client import ServiceClient

    records: dict[int, dict] = {}

    def loop():
        client = ServiceClient(url, timeout=60.0)
        while (i := dispenser.take()) is not None:
            kernel, source = item_source(i)
            records[i] = _ask(client, kernel, source, benchmarks[kernel], golden)
            records[i]["item"] = i

    started = time.perf_counter()
    threads = [threading.Thread(target=loop) for _ in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - started
    return [records[i] for i in sorted(records)], elapsed


def store_truth(store: Path) -> dict[str, tuple[float, int]]:
    """Upload artifacts on disk: key -> (created, hits) from the
    store's ``.meta.json`` sidecars."""
    truth = {}
    for path in store.glob("upload_*.meta.json"):
        try:
            meta = json.loads(path.read_text())
        except (OSError, ValueError):
            continue
        truth[meta["key"]] = (float(meta["created"]), int(meta.get("hits", 0)))
    return truth


def store_delta(before: dict, after: dict) -> tuple[int, int]:
    """(hits, writes) between two :func:`store_truth` snapshots."""
    hits = writes = 0
    for key, (created, count) in after.items():
        old = before.get(key)
        if old is None or old[0] != created:
            writes += 1
            hits += count
        else:
            hits += count - old[1]
    return hits, writes


def _counters(client) -> int:
    counters = client.store_stats()["counters"]
    return int(counters["hits_total"]) + int(counters["writes"])


def _stage_means(records, events: dict[str, list]) -> dict:
    """Mean seconds per request of each service stage, from the client's
    stamps and the server's job events (same host clock)."""
    sums = dict.fromkeys(
        ("submit", "queue", "spawn", "resolve", "engine", "write", "read", "wake"), 0.0
    )
    retries = 0
    for record in records:
        first, last = {}, {}
        for event in events[record["job_id"]]:
            first.setdefault(event["stage"], event["ts"])
            last[event["stage"]] = event["ts"]
        retries += sum(1 for e in events[record["job_id"]] if e["stage"] == "retrying")
        sums["submit"] += record["t_posted"] - record["t_post"]
        sums["queue"] += first["started"] - first["queued"]
        sums["spawn"] += last["booted"] - last["started"]
        sums["resolve"] += last["resolve"] - last["booted"]
        if "publish" in last:
            sums["engine"] += last["publish"] - last["resolve"]
            sums["write"] += last["finished"] - last["publish"]
        else:
            sums["read"] += last["finished"] - last["resolve"]
        sums["wake"] += record["t_done"] - last["finished"]
    n = max(len(records), 1)
    means = {stage: total / n for stage, total in sums.items()}
    return {
        "service.gateway.submit_s": means["submit"],
        "service.scheduler.queue_wait_s": means["queue"],
        "service.workers.spawn_s": means["spawn"],
        "service.workers.resolve_s": means["resolve"],
        "service.engine_s": means["engine"],
        "service.store.write_s": means["write"],
        "service.store.read_s": means["read"],
        "service.client.wake_s": means["wake"],
        "service.jobs.retries": retries,
    }


def _deck_counts(records, deck_size: int) -> list[dict]:
    """Summed answer counts of each complete deck."""
    decks: dict[int, list] = {}
    for record in records:
        decks.setdefault(record["item"] // deck_size, []).append(record)
    return [
        {
            "cycles": sum(r["n_cycles"] for r in rows),
            "segments": sum(r["n_segments"] for r in rows),
        }
        for _deck, rows in sorted(decks.items())
        if len(rows) == deck_size
    ]


def run(workload: str, seed: int, seconds: float, trace: bool, run_dir: Path) -> dict:
    from repro.bench.suite import ALL_BENCHMARKS
    from repro.service.client import ServiceClient

    hit = workload == "service-hit"
    golden = common.load_golden()
    sources = {name: ALL_BENCHMARKS[name].source for name in KERNELS}
    setup, rss = [], []
    servers = []
    failures: list[str] = []
    attempted = 0
    try:
        launches = 1 if trace else SETUP_LAUNCHES
        for index in range(launches):
            server = Server(run_dir, index)
            servers.append(server)
            setup.append(server.start())
            if index < launches - 1:
                rss.append(server.stop())
        server = servers[-1]
        client = ServiceClient(server.url, timeout=60.0)

        def timed_item(i):
            deck, slot = divmod(i, len(KERNELS))
            kernel = common.deck(KERNELS, seed, deck)[slot]
            tag = f"hit/{deck % HIT_VARIANTS}" if hit else f"cold/{deck}"
            return kernel, common.nonce_source(sources[kernel], seed, f"{tag}/{kernel}")

        def check(records, want_cached: bool):
            nonlocal attempted
            attempted += len(records)
            for record in records:
                problems = list(record["problems"])
                if record.get("deduped"):
                    problems.append("deduped onto another in-flight job")
                if "cached" in record and record["cached"] != want_cached:
                    problems.append(
                        "store hit" if record["cached"] else "engine ran (store miss)"
                    )
                if problems:
                    failures.append(f"{record['kernel']}: {'; '.join(problems)}")
            return len(records) - sum(1 for r in records if r["problems"])

        # untimed warm-up: service-hit stores every timed program first;
        # service-cold makes one upload per client so the server's
        # first-request imports are not timed
        if hit:
            n_warm = HIT_VARIANTS * len(KERNELS)
            warm_source = timed_item
        else:
            n_warm = CLIENTS

            def warm_source(i):
                kernel = KERNELS[i % len(KERNELS)]
                return kernel, common.nonce_source(sources[kernel], seed, f"warm/{i}")

        warm, _ = _play(
            server.url, Dispenser(len(KERNELS), None, limit=n_warm),
            warm_source, ALL_BENCHMARKS, golden,
        )
        check(warm, want_cached=False)

        def phase(budget_s: float, start: int):
            before, counted = store_truth(server.store), _counters(client)
            records, elapsed = _play(
                server.url, Dispenser(len(KERNELS), budget_s, start=start),
                timed_item, ALL_BENCHMARKS, golden,
            )
            good = check(records, want_cached=hit)
            hits, writes = store_delta(before, store_truth(server.store))
            if hit and writes:
                failures.append(f"{writes} store writes on service-hit")
            if not hit and hits:
                failures.append(f"{hits} store hits on service-cold")
            gap = hits + writes - (_counters(client) - counted)
            return records, good / elapsed, (hits, writes, gap)

        if trace:
            plain, plain_rate, _ = phase(seconds / 2, start=0)
            # the traced phase continues the deck sequence, so cold
            # uploads stay unique
            records, traced_rate, (hits, writes, gap) = phase(
                seconds / 2, start=plain[-1]["item"] + 1
            )
            ok = [r for r in records if not r["problems"]]
            events = {r["job_id"]: client.events(r["job_id"])["events"] for r in ok}
            counts = _deck_counts(ok, len(KERNELS))
            if any(c != counts[0] for c in counts):
                failures.append(f"per-deck counts differ between decks: {counts}")
            metrics = _stage_means(ok, events)
            metrics.update(
                {
                    "core.activity.cycles": counts[0]["cycles"] if counts else 0,
                    "core.activity.segments": counts[0]["segments"] if counts else 0,
                    "service.store.hits": hits,
                    "service.store.writes": writes,
                    "service.store.counter_gap": gap,
                    "trace.answers_per_s": traced_rate,
                    "trace.untraced_answers_per_s": plain_rate,
                    "trace.overhead_pct": 100.0 * (plain_rate - traced_rate) / plain_rate,
                }
            )
        else:
            records, rate, _ = phase(seconds, start=0)
            # the seven kernels cost within 1.4x of each other, so a plain
            # median over requests does not jump between kernels
            latencies = [r["latency_s"] for r in records if not r["problems"]]
            metrics = {
                "setup_s": statistics.median(setup),
                "answers_per_s": rate,
                "latency_p50_s": statistics.median(latencies),
            }
    finally:
        for server in servers:
            if server.proc is not None and server.proc.returncode is None:
                rss.append(server.stop())
    if not trace:
        metrics["peak_rss_mb"] = max(rss)
    return {"attempted": attempted, "failures": failures, "metrics": metrics}

