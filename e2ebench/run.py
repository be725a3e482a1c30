"""The repository benchmark: one workload per run, checked and timed.

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Workloads (``BENCHMARK.json`` says
why each was chosen; ``e2ebench/predictions.json`` says which layer
metric should move which end-to-end metric on which workload):

* ``analyze-native`` — in-process ``repro.core.analyze`` on the native
  engine over seeded decks of all 14 Table 4.1 kernels, two callers;
* ``service-cold``  — uploads to ``repro serve`` that all miss its store;
* ``service-hit``   — the same uploads after the store holds them.

End-to-end metrics, in host time, except that ``analyze-native``
reports ``answers_per_s`` and ``latency_p50_s`` in reference-host
seconds (see ``native.py``; the host-second figures are printed on the
line before the result):

* ``setup_s`` — median over fresh launches of the time until the
  workload is ready (in-process: imports, CPU, power model and native
  kernel from a warm kernel store; service: ``repro serve`` until
  ``/healthz`` answers);
* ``answers_per_s`` — golden-checked answers per second over the timed
  phase, which ends on a whole deck so every run times the same mix;
* ``latency_p50_s`` — service: median request time from ``POST
  /v1/programs`` to the parsed result in the client's hands;
  ``analyze-native``: median over kernels of each kernel's median
  ``analyze`` time (kernel costs span about 50x, so a median over all
  answers would sit on a rank boundary between two kernels);
* ``peak_rss_mb`` — the largest resident set of any one process.

Every answer is checked against ``tests/golden_suite.json``.  The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics (from a run split into an untraced
and a traced half) with ``--trace 1``.  The line before it holds the
host block: nproc, Python, numpy and cc versions, the commit (or a
digest of ``src`` when the checkout is not a git repository) and
``probe_ms`` (``host.probe_ms`` in traced runs), a fixed loop that does
not depend on the repository.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import common  # noqa: E402

WORKLOADS = ("analyze-native", "service-cold", "service-hit")


def declared_metrics(trace: bool) -> dict[str, str]:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them."""
    spec = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    rows = spec["per_layer" if trace else "end_to_end"]
    return {row["name"]: row["unit"] for row in rows}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = common.missing_layout()
    if missing:
        print(f"run.py: not a repository checkout, missing {missing}", file=sys.stderr)
        return 2
    # a caller's REPRO_ENGINE, REPRO_WORKERS or REPRO_FAULTS must not
    # change what is measured, here or in any child
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    sys.path.insert(0, str(common.SRC))
    # SIGTERM unwinds like an exception, so the servers a run started
    # are stopped and its scratch directory removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    probe_ms = common.probe_ms()
    run_dir = common.WORK_DIR / "runs" / str(os.getpid())
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        if args.workload == "analyze-native":
            import native

            result = native.run(args.seed, args.seconds, bool(args.trace))
        else:
            import service

            result = service.run(
                args.workload, args.seed, args.seconds, bool(args.trace), run_dir
            )
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    declared = declared_metrics(bool(args.trace))
    measured = dict(result["metrics"])
    if args.trace:
        measured["host.probe_ms"] = probe_ms
        # a layer the workload does not run reads 0
        measured = {name: measured.get(name, 0) for name in declared} | measured
    if set(measured) != set(declared):
        print(
            f"run.py: metrics {sorted(set(measured) ^ set(declared))} do not match "
            "BENCHMARK.json",
            file=sys.stderr,
        )
        return 1
    for failure in result["failures"][:20]:
        print(f"FAILED {failure}", file=sys.stderr)
    failed = len(result["failures"])
    host = {**common.host_block(), "probe_ms": probe_ms}
    print(json.dumps({"host": host, **result.get("info", {})}))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": result["attempted"],
                "failed": failed,
                "metrics": {
                    name: {"value": measured[name], "unit": declared[name]}
                    for name in declared
                },
            }
        )
    )
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
