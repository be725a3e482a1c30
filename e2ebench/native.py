"""Workload ``analyze-native``: in-process ``repro.core.analyze``.

Two closed-loop callers, one process per core, each run
``analyze(engine="native", workers=1)`` in-process over their own
seeded decks of all 14 Table 4.1 kernels with the registry budgets; each
caller's first deck is not timed.  Two callers rather than one keep both
cores busy, as the service workloads do.

``answers_per_s`` and ``latency_p50_s`` are reported in reference-host
seconds.  On a shared 2-core VM the host's speed swings with its
neighbours' load (per-deck times of 2.6-5.1 s within 100 s, with process
CPU time tracking wall time), and a whole run can land in a fast or a
slow phase: ten 30 s runs of one caller read 3.0-5.1 answers/s.  So
each caller runs a fixed 2 ms pure-Python probe (:func:`common.probe_s`)
after every answer, and the run's host seconds are scaled by the median
probe against :data:`PROBE_REF_S`.  That cuts the per-deck variation by a
third to a half (coefficient of variation 0.11-0.12 down to 0.06-0.08)
without removing it: the engine gains more than the probe in a fast
phase.
The probe does not depend on the repository, so a code change moves
the scaled figures as much as the raw ones.

The module is also the child program:

* ``native.py --setup [--allow-compile]`` — the fresh-launch set-up
  probe: imports the package, elaborates the CPU, builds the power
  model, loads the native kernel from the benchmark's kernel store and
  prints one JSON line when ready;
* ``native.py --caller SEED INDEX SECONDS TRACE`` — one caller: set-up
  and the untimed deck, a ready line, then on ``go`` from standard input
  the timed decks, and one JSON line of results.
"""

from __future__ import annotations

import itertools
import json
import statistics
import subprocess
import sys
import time
import warnings
from collections import Counter
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
if str(BENCH_DIR) not in sys.path:
    sys.path.insert(0, str(BENCH_DIR))

import common  # noqa: E402

#: fresh launches timed for ``setup_s``
SETUP_LAUNCHES = 5
#: closed-loop callers, one per core of the reference host
CALLERS = 2
#: :func:`common.probe_s` on the reference host (2-core x86_64 VM,
#: Python 3.11); ``answers_per_s`` and ``latency_p50_s`` are reported in
#: seconds of a host that runs the probe this fast
PROBE_REF_S = 0.002
#: a launch that takes longer than this is a failed run (the first
#: launch in a checkout compiles the kernel and gets the long limit)
LAUNCH_TIMEOUT_S = 60.0
PREPARE_TIMEOUT_S = 600.0

#: spans recorded in a traced run, each installed where the caller
#: looks the function up: ``repro.core.api`` and ``repro.sim.batch``
#: import their callees by name
TRACED = (
    ("repro.core.api", None, "explore", "core.activity.explore"),
    ("repro.core.api", None, "compute_peak_power", "core.peakpower"),
    ("repro.core.api", None, "compute_peak_energy", "core.peakenergy"),
    ("repro.power.model", "PowerModel", "pair_power", "power.model.pair_power"),
    ("repro.sim.native", "NativeEvaluator", "settle_and_mark", "sim.native.settle"),
    ("repro.sim.batch", "BatchMachine", "step", "sim.batch.step"),
    ("repro.sim.batch", "BatchMachine", "load", "sim.batch.fork"),
    ("repro.sim.batch", "BatchMachine", "snapshot", "sim.batch.fork"),
) + tuple(
    (module, None, fn, "sim.machine.bus_io")
    for module in ("repro.sim.batch", "repro.sim.machine")
    for fn in ("read_bus_planes", "force_bus_planes", "sample_memory_control_packed")
)


def kernel_dir() -> Path:
    """The benchmark's warm kernel store (kept across runs)."""
    return common.WORK_DIR / "kernels"


def ready_engine(allow_compile: bool):
    """Import, elaborate, price and load the native kernel.

    Returns ``(cpu, model, evaluator)``.  Raises ``RuntimeError`` when
    the native engine fell back to bitplane, or when the kernel had to
    be compiled and *allow_compile* is false.
    """
    from repro.bench import runner

    runner.CACHE_DIR = kernel_dir()
    from repro.cells import SG65
    from repro.cpu import build_ulp430
    from repro.power.model import PowerModel
    from repro.sim.native import NativeEvaluator

    cpu = build_ulp430()
    model = PowerModel(cpu.netlist, SG65, clock_ns=10.0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        evaluator = cpu.evaluator_for("native")
    fallback = [str(w.message) for w in caught if "native engine" in str(w.message)]
    if fallback or not isinstance(evaluator, NativeEvaluator):
        raise RuntimeError(f"native fallback: {fallback}")
    if evaluator.kernel.build_s and not allow_compile:
        raise RuntimeError(
            f"native kernel compiled during set-up ({evaluator.kernel.build_s:.1f} s)"
        )
    return cpu, model, evaluator


def _launch(allow_compile: bool, timeout: float) -> tuple[float, float]:
    """One fresh launch of the set-up probe: (seconds until ready, peak
    resident MiB)."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup"]
    if allow_compile:
        argv.append("--allow-compile")
    started = time.perf_counter()
    proc = subprocess.Popen(
        argv,
        cwd=common.ROOT,
        env=common.child_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    output, ready_s = [], None
    for line in proc.stdout:
        if line.startswith("{"):
            ready_s = time.perf_counter() - started
        output.append(line)
    code, rss = common.reap(proc, timeout)
    if code != 0 or ready_s is None:
        tail = "".join(output).strip()[-800:]
        raise RuntimeError(f"set-up launch failed ({code}): {tail}")
    return ready_s, rss


def _deck_answers(cpu, model, names, benchmarks, golden, latencies, probes):
    """Analyze one deck, appending each right answer's seconds to
    ``latencies[name]`` and a host-speed probe after each answer to
    *probes*; returns (answers, failures, per-deck counts)."""
    from repro.core import analyze

    failures = []
    counts = {"cycles": 0, "segments": 0, "memo_hits": 0}
    for name in names:
        bench = benchmarks[name]
        started = time.perf_counter()
        try:
            report = analyze(
                cpu,
                bench.program(),
                model,
                engine="native",
                workers=1,
                **bench.analysis_kwargs(),
            )
        except Exception as exc:  # a failed answer, counted below
            failures.append(f"{name}: {type(exc).__name__}: {exc}")
            report = None
        elapsed = time.perf_counter() - started
        probes.append(common.probe_s())
        if report is None:
            continue
        answer = report.to_payload()
        answer["n_memo_hits"] = int(report.tree.n_memo_hits)
        problems = common.check_answer(answer, golden[name])
        if problems:
            failures.append(f"{name}: {'; '.join(problems)}")
        else:
            latencies.setdefault(name, []).append(elapsed)
        counts["cycles"] += answer["n_cycles"]
        counts["segments"] += answer["n_segments"]
        counts["memo_hits"] += answer["n_memo_hits"]
    return len(names), failures, counts


def _layer_totals(spans) -> dict:
    """Layer figures summed over the traced decks' spans."""
    rows = common.summarize_spans(spans)

    def row(name):
        return rows.get(name, {"calls": 0, "total": 0.0, "self": 0.0})

    return {
        "core.activity.explore_s": row("core.activity.explore")["total"],
        "core.activity.self_s": row("core.activity.explore")["self"],
        "sim.native.settle_s": row("sim.native.settle")["total"],
        "sim.native.settle_calls": row("sim.native.settle")["calls"],
        "sim.machine.bus_io_s": row("sim.machine.bus_io")["total"],
        "sim.machine.bus_io_calls": row("sim.machine.bus_io")["calls"],
        "sim.batch.step_self_s": row("sim.batch.step")["self"],
        "sim.batch.steps": row("sim.batch.step")["calls"],
        "sim.batch.fork_s": row("sim.batch.fork")["total"],
        "sim.batch.forks": row("sim.batch.fork")["calls"],
        "core.peakpower.self_s": row("core.peakpower")["self"],
        "power.model.pair_power_s": row("power.model.pair_power")["total"],
        "core.peakenergy.compute_s": row("core.peakenergy")["total"],
    }


def _caller_main(seed: int, caller: int, seconds: float, trace: bool) -> int:
    """One caller process; see the module docstring."""
    import importlib

    golden = common.load_golden()
    cpu, model, _evaluator = ready_engine(allow_compile=False)
    from repro.bench.suite import ALL_BENCHMARKS
    from repro.sim import native

    compiles = []
    compile_so = native.compile_so

    def counted_compile(source):
        compiles.append(source)
        return compile_so(source)

    # any call is a kernel compile inside the run
    native.compile_so = counted_compile
    recorder = common.SpanRecorder()
    for module, cls, attr, name in TRACED if trace else ():
        owner = importlib.import_module(module)
        recorder.install(getattr(owner, cls) if cls else owner, attr, name)

    out = {
        "attempted": 0,
        "failures": [],
        "latencies": {},
        "probes": [],
        "deck_counts": [],
    }
    decks = itertools.count(caller, CALLERS)  # this caller's deck indexes

    def play(budget_s: float, traced: bool, latencies: dict, probes: list):
        """Whole decks until *budget_s* has passed; returns (right
        answers, seconds)."""
        recorder.spans.clear()
        recorder.enabled = traced
        started = time.perf_counter()
        answers = 0
        while True:
            names = common.deck(ALL_BENCHMARKS, seed, next(decks))
            mark = len(recorder.spans)
            n, bad, counts = _deck_answers(
                cpu, model, names, ALL_BENCHMARKS, golden, latencies, probes
            )
            out["attempted"] += n
            out["failures"].extend(bad)
            answers += n - len(bad)
            if traced:
                calls = Counter(span[0] for span in recorder.spans[mark:])
                out["deck_counts"].append({**counts, **calls})
            if time.perf_counter() - started >= budget_s:
                break
        recorder.enabled = False
        return answers, time.perf_counter() - started

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            play(0.0, False, {}, [])  # the untimed first deck
            print(json.dumps({"ready": True}), flush=True)
            if sys.stdin.readline().strip() != "go":
                return 1
            if trace:
                out["plain"] = play(seconds / 2, False, {}, [])
                out["traced"] = play(seconds / 2, True, {}, [])
                out["layers"] = _layer_totals(recorder.spans)
            else:
                out["timed"] = play(seconds, False, out["latencies"], out["probes"])
        finally:
            recorder.uninstall()
            native.compile_so = compile_so
    if compiles:
        out["failures"].append(f"native kernel compiled {len(compiles)}x inside the run")
    for warning in caught:
        if "native engine" in str(warning.message):
            out["failures"].append(f"native fallback: {warning.message}")
    print(json.dumps(out), flush=True)
    return 0


def _callers(seed: int, seconds: float, trace: bool) -> tuple[list[dict], list[float]]:
    """Start the callers, release them together once all are ready, and
    return (their results, their peak resident MiB)."""
    procs = [
        subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--caller",
             str(seed), str(caller), repr(seconds), str(int(trace))],
            cwd=common.ROOT,
            env=common.child_env(),
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        for caller in range(CALLERS)
    ]
    try:
        for proc in procs:
            if not proc.stdout.readline().startswith("{"):
                raise RuntimeError("an analyze-native caller failed during set-up")
        for proc in procs:
            proc.stdin.write("go\n")
            proc.stdin.flush()
        results = [json.loads(proc.stdout.readline() or "null") for proc in procs]
    finally:
        for proc in procs:
            proc.stdin.close()
        rss = [common.reap(proc, LAUNCH_TIMEOUT_S)[1] for proc in procs]
    if None in results:
        raise RuntimeError("an analyze-native caller ended without a result")
    return results, rss


def _rate(results, phase: str) -> float:
    """Right answers per second of all callers together over *phase*,
    from their common start to the last caller's end."""
    answers = sum(r[phase][0] for r in results)
    return answers / max(r[phase][1] for r in results)


def run(seed: int, seconds: float, trace: bool) -> dict:
    """Run the workload; returns the benchmark's result fields plus
    ``metrics`` (end-to-end, or per-layer when *trace*)."""
    # untimed: the first launch in a checkout compiles the kernel
    _launch(allow_compile=True, timeout=PREPARE_TIMEOUT_S)
    setup, rss = [], []
    for _ in range(0 if trace else SETUP_LAUNCHES):
        ready_s, child_rss = _launch(allow_compile=False, timeout=LAUNCH_TIMEOUT_S)
        setup.append(ready_s)
        rss.append(child_rss)

    results, caller_rss = _callers(seed, seconds, trace)
    failures = [f for r in results for f in r["failures"]]
    attempted = sum(r["attempted"] for r in results)
    if trace:
        deck_counts = [c for r in results for c in r["deck_counts"]]
        if any(c != deck_counts[0] for c in deck_counts):
            failures.append(f"per-deck counts differ between decks: {deck_counts}")
        metrics = {
            name: sum(r["layers"][name] for r in results) / len(deck_counts)
            for name in results[0]["layers"]
        }
        plain_rate, traced_rate = _rate(results, "plain"), _rate(results, "traced")
        metrics.update(
            {
                "core.activity.cycles": deck_counts[0]["cycles"],
                "core.activity.segments": deck_counts[0]["segments"],
                "core.activity.memo_hits": deck_counts[0]["memo_hits"],
                "trace.answers_per_s": traced_rate,
                "trace.untraced_answers_per_s": plain_rate,
                "trace.overhead_pct": 100.0 * (plain_rate - traced_rate) / plain_rate,
            }
        )
    else:
        latencies: dict[str, list[float]] = {}
        for result in results:
            for name, samples in result["latencies"].items():
                latencies.setdefault(name, []).extend(samples)
        raw = {
            "answers_per_s": _rate(results, "timed"),
            "latency_p50_s": common.kernel_median(latencies),
        }
        # host seconds -> reference seconds: the run's median probe
        # against the probe's time on the reference host
        probe = statistics.median(p for r in results for p in r["probes"])
        scale = probe / PROBE_REF_S
        metrics = {
            "setup_s": statistics.median(setup),
            "answers_per_s": raw["answers_per_s"] * scale,
            "latency_p50_s": raw["latency_p50_s"] / scale,
            "peak_rss_mb": max(rss + caller_rss),
        }
        info = {"host_seconds": raw, "probe_s": probe}
    return {
        "attempted": attempted,
        "failures": failures,
        "metrics": metrics,
        "info": info if not trace else {},
    }


def _setup_main(allow_compile: bool) -> int:
    ready_engine(allow_compile)
    print(json.dumps({"ready": True}), flush=True)
    return 0


if __name__ == "__main__":
    mode, args = sys.argv[1:2], sys.argv[2:]
    if mode == ["--setup"]:
        sys.exit(_setup_main("--allow-compile" in args))
    if mode == ["--caller"] and len(args) == 4:
        seed, caller, seconds, trace = args
        sys.exit(_caller_main(int(seed), int(caller), float(seconds), trace == "1"))
    sys.exit("usage: native.py --setup [--allow-compile] | --caller SEED INDEX SECONDS TRACE")
