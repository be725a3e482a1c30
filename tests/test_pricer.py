"""Packed Algorithm 2 and the fixed-point pricer.

Algorithm 2 runs on the packed dual-rail words the explorer records: the
X-assignment is uint64 word logic and pricing sums integer energies (the
native kernel's ``repro_price`` when a kernel is loaded, numpy byte
lookups otherwise).  These tests pin:

1. the packed X-assignment against :func:`maximize_parity`'s uint8
   result, exactly, on random trit rows in two bit layouts (with pad
   bits) and both parities;
2. the C and numpy pricers against each other, bit for bit, on all 14
   benchmarks (peak trace, every module series, segment energies,
   witnesses), plus program-order ≡ net-order pricing of one trace;
3. a compiler-less run (no kernel anywhere, numpy pricer) against every
   golden;
4. Algorithm 2's memory on the largest tree, and that ``analyze`` never
   unpacks whole-trace matrices.
"""

import tracemalloc
import warnings

import numpy as np
import pytest

from repro.bench.suite import ALL_BENCHMARKS, get_benchmark
from repro.cells import SG65
from repro.core import analyze
from repro.core.activity import explore
from repro.core.peakpower import compute_peak_power, maximize_parity
from repro.logic import X
from repro.netlist.program import BitLayout, net_order_layout
from repro.power.model import PowerModel, assign_parity_pairs
from repro.sim import native
from repro.sim.bitplane import BitplaneEvaluator
from repro.sim.trace import Trace
from test_differential import GOLDEN, REL


@pytest.fixture(scope="module")
def model(cpu):
    return PowerModel(cpu.netlist, SG65, clock_ns=10.0)


def _scattered_layout(n_nets: int, seed: int) -> BitLayout:
    """A layout with nets permuted over more bits than nets (gaps and a
    partial last word are pad bits)."""
    rng = np.random.default_rng(seed)
    n_bits = -(-(n_nets * 3 // 2) // 64) * 64
    pos_of = rng.choice(n_bits, size=n_nets, replace=False).astype(np.int64)
    return BitLayout(pos_of, n_bits)


# ----------------------------------------------------------------------
# 1. Packed X-assignment ≡ maximize_parity
# ----------------------------------------------------------------------
class TestPackedAssignment:
    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("parity", [0, 1])
    @pytest.mark.parametrize("scattered", [False, True])
    def test_matches_maximize_parity(self, seed, parity, scattered):
        rng = np.random.default_rng(1000 + seed)
        n_cycles = int(rng.integers(3, 12))
        n_nets = int(rng.integers(1, 150))
        values = rng.integers(0, 3, size=(n_cycles, n_nets)).astype(np.uint8)
        values[rng.random(values.shape) < 0.4] = X
        active = rng.random((n_cycles, n_nets)) < 0.6
        max_prev = rng.integers(0, 2, size=n_nets).astype(np.uint8)
        max_cur = 1 - max_prev
        expected = maximize_parity(values, active, parity, max_prev, max_cur)

        layout = (
            _scattered_layout(n_nets, seed) if scattered
            else net_order_layout(n_nets)
        )
        planes = layout.pack_values(values)
        words = layout.pack_active(active)

        def bits(flags):
            return np.packbits(
                layout.bit_table(flags.astype(bool)), bitorder="little"
            ).view(np.uint64)

        targets = np.arange(parity if parity >= 1 else 2, n_cycles, 2)
        new_prev, new_cur = assign_parity_pairs(
            planes[targets - 1].copy(), planes[targets].copy(),
            words[targets], bits(max_prev), bits(max_cur),
        )
        assigned = planes.copy()
        assigned[targets] = new_cur
        assigned[targets - 1] = new_prev
        got = layout.unpack_trits(assigned[:, 0], assigned[:, 1])
        assert np.array_equal(got, expected)
        # pad bits stay a known 0 (P=0, N=1)
        pad = ~layout.valid_mask
        assert not (assigned[:, 0] & pad).any()
        assert ((assigned[:, 1] & pad) == pad).all()


# ----------------------------------------------------------------------
# 2. C pricer ≡ numpy pricer on every benchmark
# ----------------------------------------------------------------------
@pytest.fixture(scope="module", params=sorted(ALL_BENCHMARKS))
def native_tree(request, cpu):
    """(name, tree) explored by the native engine."""
    benchmark = get_benchmark(request.param)
    tree = explore(
        cpu,
        benchmark.program(),
        max_cycles=benchmark.max_cycles,
        max_segments=benchmark.max_segments,
        engine="native",
    )
    return request.param, tree


def _require_c_pricer(cpu):
    cpu.evaluator_for("native")
    if native.loaded_pricer() is None:
        pytest.skip("no native kernel loaded (no C compiler)")


class TestPricersAgree:
    def test_peak_power_bit_identical(self, native_tree, model, cpu, monkeypatch):
        _require_c_pricer(cpu)
        _name, tree = native_tree
        c_peak = compute_peak_power(tree, model)
        c_witnesses = c_peak.witnesses()
        with monkeypatch.context() as patch:
            patch.setattr(native, "loaded_pricer", lambda: None)
            np_peak = compute_peak_power(tree, model)
            np_witnesses = np_peak.witnesses()
        assert np.array_equal(c_peak.trace_mw, np_peak.trace_mw)
        assert c_peak.peak_cycle == np_peak.peak_cycle
        assert sorted(c_peak.module_mw) == sorted(np_peak.module_mw)
        for name, series in c_peak.module_mw.items():
            assert np.array_equal(series, np_peak.module_mw[name]), name
        assert np.array_equal(
            c_peak.segment_energy_pj, np_peak.segment_energy_pj
        )
        for ours, theirs in zip(c_witnesses, np_witnesses):
            assert np.array_equal(ours, theirs)

    def test_trace_power_layouts_and_pricers_agree(
        self, native_tree, model, cpu, monkeypatch
    ):
        """One trace priced from its packed words (program bit order) and
        as a uint8 matrix (net order), by both pricers: four identical
        answers."""
        _require_c_pricer(cpu)
        _name, tree = native_tree
        flat = tree.flat_trace
        mem = flat.mem_accesses()
        runs = [model.trace_power(flat, mem, per_module=True)]
        runs.append(
            model.trace_power(flat.values_matrix(), mem, per_module=True)
        )
        with monkeypatch.context() as patch:
            patch.setattr(native, "loaded_pricer", lambda: None)
            runs.append(model.trace_power(flat, mem, per_module=True))
            runs.append(
                model.trace_power(flat.values_matrix(), mem, per_module=True)
            )
        first = runs[0]
        for other in runs[1:]:
            assert np.array_equal(first.total_mw, other.total_mw)
            for module, series in first.module_mw.items():
                assert np.array_equal(series, other.module_mw[module])


class TestFixedPoint:
    def test_row_sums_fit_a_double(self, model):
        worst = np.maximum(model.e_rise, model.e_fall)
        scaled = np.rint(worst * 2.0**model.fixed_point_shift)
        assert scaled.astype(np.int64).sum() < 2**53
        # one more bit of precision would leave the exact range
        finer = np.rint(worst * 2.0 ** (model.fixed_point_shift + 1))
        assert finer.astype(np.int64).sum() >= 2**53

    def test_matches_float_pricing(self, model):
        """Quantization moves a row's energy by far less than 1e-12."""
        rng = np.random.default_rng(5)
        n_nets = model.netlist.n_nets
        rows = rng.integers(0, 3, size=(6, n_nets)).astype(np.uint8)
        power = model.trace_power(rows)
        prev, cur = rows[:-1], rows[1:]
        toggled = prev != cur
        exact = (
            (toggled & (cur != 0)) @ model.e_rise
            + (toggled & (cur == 0)) @ model.e_fall
        )
        floor = model.clock_pin_fj + SG65.mem_idle_fj
        expected = (exact + floor) / model.clock_ns * 1e-3 + model.leakage_mw
        assert np.allclose(power.total_mw[1:], expected, rtol=1e-12, atol=0)


# ----------------------------------------------------------------------
# 3. No compiler anywhere: fallback engine + numpy pricer meet the goldens
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(ALL_BENCHMARKS))
def test_no_compiler_run_meets_golden(name, cpu, model, tmp_path, monkeypatch):
    from repro.bench import runner

    monkeypatch.setattr(runner, "CACHE_DIR", tmp_path / "cache")
    monkeypatch.setattr(native, "find_compiler", lambda: None)
    monkeypatch.setattr(native, "_KERNELS", {})
    monkeypatch.setattr(cpu, "_native_evaluator", None)
    benchmark = get_benchmark(name)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        report = analyze(
            cpu,
            benchmark.program(),
            model,
            engine="native",
            **benchmark.analysis_kwargs(),
        )
        assert type(cpu.evaluator_for("native")) is BitplaneEvaluator
    assert native.loaded_pricer() is None
    golden = GOLDEN[name]
    assert report.peak_power.peak_cycle == golden["peak_cycle"]
    assert report.peak_energy.path_cycles == golden["path_cycles"]
    assert report.peak_power_mw == pytest.approx(
        golden["peak_power_mw"], rel=REL
    )
    assert report.peak_energy_pj == pytest.approx(
        golden["peak_energy_pj"], rel=REL
    )
    assert report.npe_pj_per_cycle == pytest.approx(
        golden["npe_pj_per_cycle"], rel=REL
    )


# ----------------------------------------------------------------------
# 4. Memory and data-path guards
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def viterbi_tree(cpu):
    benchmark = get_benchmark("Viterbi")
    return explore(
        cpu,
        benchmark.program(),
        max_cycles=benchmark.max_cycles,
        max_segments=benchmark.max_segments,
        engine="native",
    )


@pytest.mark.parametrize("pricer", ["loaded", "numpy"])
def test_peak_power_memory_is_bounded(pricer, viterbi_tree, model, monkeypatch):
    """Algorithm 2 on the largest tree holds chunks, not whole-trace
    matrices (the uint8 stack peaked near 270 MiB)."""
    if pricer == "numpy":
        monkeypatch.setattr(native, "loaded_pricer", lambda: None)
    compute_peak_power(viterbi_tree, model)  # pricing tables built
    tracemalloc.start()
    try:
        compute_peak_power(viterbi_tree, model)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 32 * 2**20, f"peak {peak / 2**20:.1f} MiB"


@pytest.mark.parametrize("engine", ["bitplane", "reference"])
def test_analyze_never_unpacks_whole_traces(engine, cpu, model, monkeypatch):
    def forbidden(self):
        raise AssertionError("analyze unpacked a whole-trace matrix")

    monkeypatch.setattr(Trace, "values_matrix", forbidden)
    monkeypatch.setattr(Trace, "active_matrix", forbidden)
    benchmark = get_benchmark("mult")
    report = analyze(
        cpu, benchmark.program(), model, engine=engine,
        **benchmark.analysis_kwargs(),
    )
    assert report.peak_power_mw == pytest.approx(
        GOLDEN["mult"]["peak_power_mw"], rel=REL
    )
