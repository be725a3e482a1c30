"""Shared pieces of the repository benchmark.

Everything here is independent of the workload: the run-to-run spread,
the kernel-median latency, the golden check, seeded decks and nonces,
the span recorder used by traced runs, child-process handling
(environment, resident set), and the host block printed with every
result.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import time
from pathlib import Path

#: relative tolerance for float answers, the one the repository's own
#: golden tests use (``tests/test_differential.py``)
REL = 1e-9

#: answer fields that are counts and must match exactly
COUNT_FIELDS = ("n_cycles", "n_segments", "peak_cycle", "path_cycles", "n_memo_hits")
#: answer fields that are floats and must match within :data:`REL`
FLOAT_FIELDS = ("peak_power_mw", "peak_energy_pj", "npe_pj_per_cycle")
#: fields an answer may leave out: upload payloads carry no memo count
OPTIONAL_FIELDS = ("n_memo_hits",)


# ----------------------------------------------------------------------
# Layout
# ----------------------------------------------------------------------
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
GOLDEN_PATH = ROOT / "tests" / "golden_suite.json"
#: the benchmark's own scratch area (git-ignored): a warm kernel store
#: that persists across runs of one checkout, plus one fresh directory
#: per run
WORK_DIR = BENCH_DIR / "_work"


def missing_layout() -> list[str]:
    """Files the benchmark needs from the checkout that are absent."""
    needed = (SRC / "repro" / "core" / "api.py", GOLDEN_PATH)
    return [str(path.relative_to(ROOT)) for path in needed if not path.is_file()]


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def spread(values) -> float:
    """Distance between the first and third quartile of *values* as a
    share of their median, with the quartiles of
    :func:`statistics.quantiles` at its defaults (``n=4``, exclusive)."""
    if len(values) < 2:
        raise ValueError("spread needs at least two values")
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def kernel_median(latencies: dict[str, list[float]]) -> float:
    """Median over kernels of each kernel's median latency.

    Kernel costs on a deck span about 50x, so a median over all answers
    lands on whichever kernel sits at the rank boundary and moves with
    the extremes of two kernels' samples; the median of per-kernel
    medians moves with typical samples only.
    """
    return statistics.median(
        [statistics.median(samples) for samples in latencies.values()]
    )


# ----------------------------------------------------------------------
# Correctness
# ----------------------------------------------------------------------
def check_answer(answer: dict, pin: dict, rel: float = REL) -> list[str]:
    """Mismatches of *answer* against one kernel's golden *pin*.

    Counts compare exactly; floats within *rel* (uploads round-trip
    through a worker and JSON, so they can differ from the pins in the
    last bits).  An empty list means the answer is right.
    """
    problems = []
    for field in COUNT_FIELDS + FLOAT_FIELDS:
        if field not in pin:
            continue
        if field not in answer:
            if field not in OPTIONAL_FIELDS:
                problems.append(f"{field} missing")
            continue
        got, want = answer[field], pin[field]
        if field in COUNT_FIELDS:
            ok = isinstance(got, int) and got == want
        else:
            ok = isinstance(got, float) and abs(got - want) <= rel * abs(want)
        if not ok:
            problems.append(f"{field} {got!r} != pin {want!r}")
    return problems


# ----------------------------------------------------------------------
# Seeded inputs
# ----------------------------------------------------------------------
def deck(kernels, seed: int, index: int) -> list[str]:
    """Deck *index* of a run seeded with *seed*: every kernel once, in a
    seeded order.  The same (seed, index) always gives the same order."""
    order = sorted(kernels)
    random.Random(f"deck/{seed}/{index}").shuffle(order)
    return order


def nonce_source(source: str, seed: int, tag: str) -> str:
    """*source* plus one seeded comment line.

    The comment changes the program's content address (so the upload
    misses every store entry written under another tag) and nothing
    the analysis sees.
    """
    digest = hashlib.blake2b(f"{seed}/{tag}".encode(), digest_size=8).hexdigest()
    return f"{source.rstrip()}\n; bench nonce {digest}\n"


# ----------------------------------------------------------------------
# Spans (traced runs)
# ----------------------------------------------------------------------
class SpanRecorder:
    """In-memory spans around calls into the program's public functions.

    Each span is ``[name, start, end, parent]`` where *parent* is the
    index of the span open when it started (-1 for none).  Recording is
    switched by :attr:`enabled`, so wrappers can stay installed while an
    untraced phase runs.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.enabled = False
        self._open: list[int] = []
        self._undo: list[tuple] = []

    def wrap(self, name: str, fn):
        spans, open_, clock = self.spans, self._open, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append([name, clock(), 0.0, open_[-1] if open_ else -1])
            open_.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                open_.pop()
                spans[index][2] = clock()

        return traced

    def install(self, owner, attr: str, name: str) -> None:
        """Replace ``owner.attr`` with a traced wrapper (undone by
        :meth:`uninstall`).  Wrap a function where its caller looks it
        up: a module that imported it by name holds its own binding."""
        original = getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def covered(intervals, start: float, end: float) -> float:
    """Length of [start, end] covered by the union of *intervals*."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def summarize_spans(spans) -> dict[str, dict]:
    """Per span name: ``calls``, ``total`` (outermost spans only, so a
    name nested in itself is not counted twice) and ``self`` (each
    span's duration minus the part its child spans cover, children
    possibly overlapping)."""
    children: dict[int, list] = {}
    for name, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out: dict[str, dict] = {}
    for index, (name, start, end, parent) in enumerate(spans):
        row = out.setdefault(name, {"calls": 0, "total": 0.0, "self": 0.0})
        row["calls"] += 1
        duration = end - start
        if parent < 0 or spans[parent][0] != name:
            row["total"] += duration
        row["self"] += duration - covered(children.get(index, ()), start, end)
    return out


# ----------------------------------------------------------------------
# Child processes
# ----------------------------------------------------------------------
def child_env() -> dict:
    """The environment for every process the benchmark starts: the
    caller's, minus every ``REPRO_*`` knob (engine, workers, faults,
    cache...), with the checkout's ``src`` on the import path.

    The bytecode cache stays on whatever the caller set, so launches and
    spawned service workers import the package the way an installed one
    does; the first launch in a checkout writes the cache."""
    env = {
        k: v
        for k, v in os.environ.items()
        if not k.startswith("REPRO_") and k != "PYTHONDONTWRITEBYTECODE"
    }
    env["PYTHONPATH"] = str(SRC)
    return env


def reap(proc: subprocess.Popen, timeout: float) -> tuple[int, float]:
    """Wait for *proc* (killing it after *timeout* seconds) and return
    ``(exit code, peak resident set in MiB)``.  The resident set is the
    largest of the child and every descendant it waited for."""
    deadline = time.monotonic() + timeout
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() > deadline:
            proc.kill()
            pid, status, usage = os.wait4(proc.pid, 0)
            break
        time.sleep(0.005)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


def self_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# Host
# ----------------------------------------------------------------------
def probe_s(iterations: int = 20_000) -> float:
    """Seconds of a fixed pure-Python loop that touches nothing of the
    repository: a reading of host speed."""
    started = time.perf_counter()
    acc = 0
    for i in range(iterations):
        acc = (acc + i * i) & 0xFFFF
    return time.perf_counter() - started


def probe_ms(repeats: int = 7) -> float:
    """``host.probe_ms``: median of *repeats* long probes, to tell host
    drift from code change."""
    return 1e3 * statistics.median(probe_s(200_000) for _ in range(repeats))


def _first_line(argv) -> str | None:
    try:
        out = subprocess.run(
            argv, capture_output=True, text=True, timeout=20, cwd=ROOT
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = (out.stdout or "").strip().splitlines()
    return lines[0] if out.returncode == 0 and lines else None


def src_digest() -> str:
    """Content digest of the checkout's ``src`` tree (a checkout need not
    be a git repository, so this stands in for the commit there)."""
    digest = hashlib.blake2b(digest_size=8)
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def host_block() -> dict:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "cc": _first_line(["cc", "--version"]),
        # only a checkout's own repository: git would otherwise answer
        # for any repository that happens to enclose it
        "commit": (
            _first_line(["git", "rev-parse", "HEAD"])
            if (ROOT / ".git").exists()
            else None
        ),
        "src_digest": src_digest(),
        "platform": platform.platform(),
    }
