"""Self-tests of the benchmark's own helpers.

    PYTHONPATH=src python3 -m pytest e2ebench/tests -q
"""

import json
import statistics
import sys
import time
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import common  # noqa: E402
import service  # noqa: E402


class TestSpread:
    def test_matches_statistics_quantiles(self):
        values = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.0, 6.0, 5.5, 3.5]
        q1, _, q3 = statistics.quantiles(values, n=4)
        assert common.spread(values) == pytest.approx(
            (q3 - q1) / statistics.median(values)
        )

    def test_known_values(self):
        # exclusive quartiles of 1..9 are 2.5 and 7.5 around a median of 5
        assert common.spread(list(range(1, 10))) == pytest.approx(1.0)
        assert common.spread([2.0] * 6) == 0.0

    def test_needs_two_values(self):
        with pytest.raises(ValueError):
            common.spread([1.0])


class TestSelfTime:
    def test_overlapping_children(self):
        spans = [
            ["parent", 0.0, 10.0, -1],
            ["child", 1.0, 4.0, 0],
            ["child", 3.0, 6.0, 0],  # overlaps the first child
            ["child", 8.0, 12.0, 0],  # runs past the parent's end
        ]
        rows = common.summarize_spans(spans)
        # children cover [1, 6] and [8, 10] of the parent: 7 of 10
        assert rows["parent"]["self"] == pytest.approx(3.0)
        assert rows["parent"]["total"] == pytest.approx(10.0)
        assert rows["child"]["calls"] == 3

    def test_same_name_nested_counts_once(self):
        spans = [["io", 0.0, 4.0, -1], ["io", 1.0, 2.0, 0]]
        rows = common.summarize_spans(spans)
        assert rows["io"]["total"] == pytest.approx(4.0)
        assert rows["io"]["calls"] == 2
        assert rows["io"]["self"] == pytest.approx(4.0)

    def test_covered_union(self):
        assert common.covered([(1, 3), (2, 5), (7, 8)], 0, 10) == 5
        assert common.covered([], 0, 10) == 0

    def test_recorder_nests_and_uninstalls(self):
        class Owner:
            @staticmethod
            def inner():
                return 1

        def outer():
            return Owner.inner() + 1

        holder = type("Holder", (), {"outer": staticmethod(outer)})
        recorder = common.SpanRecorder()
        recorder.install(Owner, "inner", "inner")
        recorder.install(holder, "outer", "outer")
        holder.outer()
        assert recorder.spans == []  # recording is off by default
        recorder.enabled = True
        assert holder.outer() == 2
        (outer_span, inner_span) = recorder.spans
        assert outer_span[0] == "outer" and outer_span[3] == -1
        assert inner_span[0] == "inner" and inner_span[3] == 0
        recorder.uninstall()
        assert holder.outer is outer and not hasattr(Owner.inner, "__wrapped__")


class TestGoldenCheck:
    golden = common.load_golden()

    def test_accepts_the_pin_and_last_bit_drift(self):
        pin = self.golden["mult"]
        assert common.check_answer(dict(pin), pin) == []
        upload = {k: v for k, v in pin.items() if k != "n_memo_hits"}
        upload["peak_power_mw"] = 2.4248654999999695  # an upload's last bits
        assert common.check_answer(upload, pin) == []

    def test_rejects_a_perturbed_float(self):
        pin = self.golden["mult"]
        answer = dict(pin, peak_energy_pj=pin["peak_energy_pj"] * (1 + 1e-6))
        assert common.check_answer(answer, pin) != []

    def test_rejects_a_count_off_by_one(self):
        pin = self.golden["Viterbi"]
        answer = dict(pin, n_segments=pin["n_segments"] + 1)
        (problem,) = common.check_answer(answer, pin)
        assert "n_segments" in problem

    def test_rejects_a_missing_field(self):
        pin = self.golden["FFT"]
        answer = {k: v for k, v in pin.items() if k != "peak_cycle"}
        assert common.check_answer(answer, pin) == ["peak_cycle missing"]


class TestInputs:
    def test_deck_order_repeats_for_a_seed(self):
        kernels = sorted(common.load_golden())
        first = common.deck(kernels, 7, 3)
        assert first == common.deck(kernels, 7, 3)
        assert sorted(first) == kernels
        orders = {tuple(common.deck(kernels, seed, 3)) for seed in range(8)}
        assert len(orders) > 1

    def test_nonce_changes_program_id_not_answer(self):
        from repro.asm import assemble
        from repro.bench.runner import shared_cpu, shared_model
        from repro.bench.suite import get_benchmark
        from repro.core import analyze
        from repro.service.gateway import program_id

        source = get_benchmark("FFT").source
        plain = common.nonce_source(source, 1, "a")
        other = common.nonce_source(source, 1, "b")
        assert len({program_id(source), program_id(plain), program_id(other)}) == 3
        assert plain == common.nonce_source(source, 1, "a")
        answers = [
            analyze(
                shared_cpu(),
                assemble(src, "FFT"),
                shared_model(),
                engine="bitplane",
            ).to_payload()
            for src in (source, plain)
        ]
        assert answers[0] == answers[1]
        assert common.check_answer(answers[1], common.load_golden()["FFT"]) == []


class TestService:
    def test_dispenser_ends_on_a_whole_deck(self):
        dispenser = service.Dispenser(deck_size=7, budget_s=0.0, start=14)
        time.sleep(0.001)
        taken = []
        while (i := dispenser.take()) is not None:
            taken.append(i)
        assert taken == list(range(14, 21))

    def test_dispenser_limit(self):
        dispenser = service.Dispenser(deck_size=7, budget_s=None, limit=3)
        assert [dispenser.take() for _ in range(4)] == [0, 1, 2, None]

    def test_store_delta(self):
        before = {"a": (1.0, 2), "b": (1.0, 0)}
        after = {"a": (1.0, 5), "b": (2.0, 1), "c": (3.0, 0)}
        # a: 3 hits; b rewritten (1 write, 1 hit since); c new (1 write)
        assert service.store_delta(before, after) == (4, 2)


def test_predictions_cover_every_per_layer_metric():
    spec = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    table = json.loads((BENCH_DIR / "predictions.json").read_text())
    named = [m for row in table["rows"] for m in row["metrics"]]
    assert sorted(named) == sorted(m["name"] for m in spec["per_layer"])
    workloads = {w["name"] for w in spec["workloads"]}
    ends = {m["name"] for m in spec["end_to_end"]}
    for row in table["rows"]:
        assert set(row["shows_on"]) | set(row["bypassed_by"]) <= workloads
        assert set(row["moves"]) <= ends
