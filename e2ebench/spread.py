"""Run-to-run spread of the end-to-end metrics.

    python3 e2ebench/spread.py --workload NAME [--runs 10] [--first-seed 1]

Runs the benchmark once per seed, one run at a time, and prints for
each end-to-end metric its median and its spread (the distance between
the first and third quartile as a share of the median, the quartiles of
``statistics.quantiles(values, n=4)``) next to a third of the metric's
bound in ``BENCHMARK.json``, the steadiness target; also for the raw
host-second figures a workload prints before its result.  Every run
must report ``correct``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import common  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)

    spec = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    values: dict[str, list[float]] = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        out = subprocess.run(
            spec["command"]
            + ["--workload", args.workload, "--seed", str(seed),
               "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            cwd=common.ROOT,
            capture_output=True,
            text=True,
        )
        lines = out.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {}
        if out.returncode != 0 or not result.get("correct"):
            print(out.stderr[-2000:], file=sys.stderr)
            print(f"seed {seed}: run failed ({out.returncode})", file=sys.stderr)
            return 1
        row = {name: m["value"] for name, m in result["metrics"].items()}
        info = json.loads(lines[-2]) if len(lines) > 1 else {}
        for name, value in info.get("host_seconds", {}).items():
            row[f"host_seconds.{name}"] = value
        print(f"seed {seed}: {json.dumps(row)}", flush=True)
        for name, value in row.items():
            values.setdefault(name, []).append(value)
    bounds = {metric["name"]: metric["bound"] for metric in spec["end_to_end"]}
    for name, series in values.items():
        bound = bounds.get(name)
        print(
            f"{name:30s} median {statistics.median(series):10.4f}  "
            f"spread {common.spread(series):.3f}"
            + (f"  target < {bound / 3:.3f}" if bound else "")
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
