"""Input-independent peak power computation (Algorithm 2).

The symbolic trace contains Xs.  Power in cycle *c* is maximized by
assigning values to the Xs of cycles *c-1* and *c* so that every active
gate makes its most expensive transition into *c*.  Because the assignment
for cycle *c* constrains cycle *c-1*, two assignments are produced — one
maximizing all even cycles, one all odd — exactly as in the paper, and the
final peak power trace takes each cycle's power from the profile that
maximized it.

Execution-tree structure matters here: a segment's first cycle transitions
from its *parent's* last cycle, not from whatever segment happens to
precede it in the flattened trace, so maximization and power evaluation
need an explicit predecessor row per segment.

Two engines implement the algorithm:

* the **stacked** engine (the default) works on the packed dual-rail
  words the explorer recorded (:meth:`~repro.sim.trace.Trace.value_planes`;
  reference-engine rows are packed in net order).  Each segment's first
  cycle pairs with its parent's last cycle (a root's with itself), every
  other cycle with the one before it; the targets of one parity are
  independent (two rows apart, each touching only itself and its
  predecessor), so both parities run as whole-tree passes walked in
  :attr:`~repro.power.model.PowerModel.TRACE_CHUNK_ROWS` blocks: gather
  the chunk's (prev, cur, active) words, X-assign them with uint64 word
  logic (:func:`assign_parity_pairs`), and price them with the model's
  fixed-point pricer (the native kernel's ``repro_price`` when loaded,
  numpy byte lookups otherwise).  Nothing is unpacked to per-net rows;
  only the lazily built witness profiles unpack, once, after assignment.
* the **scalar** engine walks segments one at a time with a per-cycle
  Python loop over uint8 rows — the original reference, retained for
  differential tests.

Both produce bit-identical results — same even/odd profiles, same peak
trace, same per-module breakdowns — because the pricer sums integer
energies, which no bit order, chunking or thread count can perturb.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

from repro.core.activity import ExecutionTree
from repro.logic import X
from repro.service import faults
from repro.power.model import PowerModel, PowerTrace, assign_parity_pairs
from repro.sim.vcd import write_vcd


@dataclass
class PeakPowerResult:
    """The per-cycle peak power trace and its supporting profiles.

    The even/odd maximized witness profiles — the two full
    ``(n_cycles, n_nets)`` value assignments the paper hands to the power
    tool as VCDs — are **lazy**: peak power itself only needs the priced
    transitions, so the profiles are materialized (and cached) the first
    time ``even_values``/``odd_values`` is read, typically for a VCD dump
    or a soundness check.  Plain analysis runs never allocate them.
    """

    peak_power_mw: float
    peak_cycle: int  # index into the flattened trace
    trace_mw: np.ndarray
    module_mw: dict[str, np.ndarray]
    clock_ns: float
    #: per-segment peak-trace energies (pJ), parallel to ``tree.segments``;
    #: peak-energy analysis consumes these instead of re-slicing the trace.
    segment_energy_pj: np.ndarray | None = None
    #: rebuilds ``(even_values, odd_values)`` on demand
    witness_builder: Callable[[], tuple[np.ndarray, np.ndarray]] | None = (
        field(default=None, repr=False, compare=False)
    )
    _witness_cache: tuple[np.ndarray, np.ndarray] | None = field(
        default=None, repr=False, compare=False, init=False
    )

    def witnesses(self) -> tuple[np.ndarray, np.ndarray]:
        """(even, odd) maximized value profiles, built once on demand."""
        if self._witness_cache is None:
            if self.witness_builder is None:
                raise ValueError(
                    "this PeakPowerResult carries no witness builder"
                )
            self._witness_cache = self.witness_builder()
        return self._witness_cache

    @property
    def even_values(self) -> np.ndarray:
        return self.witnesses()[0]

    @property
    def odd_values(self) -> np.ndarray:
        return self.witnesses()[1]

    def power_trace(self) -> PowerTrace:
        return PowerTrace(
            total_mw=self.trace_mw,
            module_mw=self.module_mw,
            clock_ns=self.clock_ns,
        )


def maximize_parity(
    values: np.ndarray,
    active: np.ndarray,
    parity: int,
    max_prev: np.ndarray,
    max_cur: np.ndarray,
) -> np.ndarray:
    """Assign Xs to maximize switching power in cycles of one parity.

    Implements lines 4-17 of Algorithm 2 for one segment: for every active
    gate in a target cycle, an X pair becomes the cell's max-power
    transition, a single X becomes the value that completes a toggle.  Row
    0 is the predecessor context and is never a target.

    This is the scalar reference; target cycles are independent of each
    other (targets of one parity are two rows apart, and each touches only
    itself and its predecessor row), which is what lets the stacked engine
    process every target of every segment in one shot on packed words —
    see :func:`assign_parity_pairs`.
    """
    assigned = values.copy()
    n_cycles = values.shape[0]
    start = parity if parity >= 1 else 2
    prev_template = np.broadcast_to(max_prev, values.shape[1:])
    cur_template = np.broadcast_to(max_cur, values.shape[1:])
    for cycle in range(start, n_cycles, 2):
        act = active[cycle]
        cur_x = assigned[cycle] == X
        prev_x = assigned[cycle - 1] == X
        both = act & cur_x & prev_x
        assigned[cycle - 1][both] = prev_template[both]
        assigned[cycle][both] = cur_template[both]
        only_cur = act & cur_x & ~prev_x
        assigned[cycle][only_cur] = 1 - assigned[cycle - 1][only_cur]
        only_prev = act & prev_x & ~cur_x
        assigned[cycle - 1][only_prev] = 1 - assigned[cycle][only_prev]
    return assigned


def compute_peak_power(
    tree: ExecutionTree,
    model: PowerModel,
    per_module: bool = True,
    vcd_dir: str | Path | None = None,
    engine: str = "stacked",
    workers: int | None = None,
    cancel=None,
) -> PeakPowerResult:
    """Run Algorithm 2 over an activity-annotated execution tree.

    *engine* selects ``"stacked"`` (packed, vectorized across segments,
    the default) or ``"scalar"`` (the per-segment uint8 reference); both
    produce bit-identical results.  *workers* threads the stacked
    engine's gather/assign/price chunks (``None`` honors
    ``REPRO_WORKERS``); sums are exact integers, so the thread count
    never changes a float.  *cancel* is an optional
    :class:`repro.parallel.cancel.CancelToken` checked between segment
    chunks (per parity pass in the stacked engine, per segment in the
    scalar one); a set token aborts with
    :class:`repro.parallel.cancel.JobCancelled`.  When *vcd_dir* is
    given, the even- and odd-maximized activity profiles are written as
    ``even.vcd`` / ``odd.vcd``, mirroring the paper's flow of handing
    two VCD files to the power tool.
    """
    from repro.parallel.pool import resolve_workers

    workers = resolve_workers(workers)
    if engine == "stacked":
        return _compute_stacked(
            tree, model, per_module, vcd_dir, workers, cancel=cancel
        )
    if engine == "scalar":
        return _compute_scalar(tree, model, per_module, vcd_dir, cancel=cancel)
    raise ValueError(f"unknown peak-power engine {engine!r}")


def _finish(
    tree: ExecutionTree,
    model: PowerModel,
    peak_trace: np.ndarray,
    module_mw: dict[str, np.ndarray],
    witness_builder,
    vcd_dir: str | Path | None,
) -> PeakPowerResult:
    """Shared tail of both engines: segment sums, VCDs, result object."""
    segment_energy = np.zeros(len(tree.segments))
    for segment in tree.segments:
        if segment.n_cycles:
            sl = tree.segment_slice(segment)
            segment_energy[segment.index] = (
                peak_trace[sl].sum() * model.clock_ns
            )

    n_cycles = peak_trace.shape[0]
    peak_cycle = int(peak_trace.argmax()) if n_cycles else 0
    result = PeakPowerResult(
        peak_power_mw=float(peak_trace.max()) if n_cycles else 0.0,
        peak_cycle=peak_cycle,
        trace_mw=peak_trace,
        module_mw=module_mw,
        clock_ns=model.clock_ns,
        segment_energy_pj=segment_energy,
        witness_builder=witness_builder,
    )
    if vcd_dir is not None:  # the VCD dump is a witness request
        directory = Path(vcd_dir)
        directory.mkdir(parents=True, exist_ok=True)
        write_vcd(
            result.even_values, directory / "even.vcd",
            timescale_ns=model.clock_ns,
        )
        write_vcd(
            result.odd_values, directory / "odd.vcd",
            timescale_ns=model.clock_ns,
        )
    return result


# ----------------------------------------------------------------------
# Stacked engine: all segments, packed words, one pass per parity.
# ----------------------------------------------------------------------
def _pair_rows(tree: ExecutionTree) -> tuple[np.ndarray, np.ndarray]:
    """Per flat cycle: the flat row its transition starts from, and its
    1-based index within its segment.

    A segment's first cycle transitions from its parent's last cycle (a
    root's from itself: no predecessor transition), every other cycle
    from the cycle before it.
    """
    n_cycles = len(tree.flat_trace)
    sources = np.arange(-1, n_cycles - 1, dtype=np.int64)
    local_index = np.empty(n_cycles, dtype=np.int64)
    for segment in tree.segments:
        if not segment.n_cycles:
            continue
        sl = tree.segment_slice(segment)
        local_index[sl] = np.arange(1, segment.n_cycles + 1)
        if segment.parent is None:
            sources[sl.start] = sl.start
        else:
            parent = tree.segments[segment.parent[0]]
            sources[sl.start] = parent.flat_start + parent.n_cycles - 1
    return sources, local_index


def _gather_pairs(trace, layout, targets, sources):
    """Packed (source, target) planes plus the targets' activity words."""
    return (
        trace.value_planes(sources, layout),
        trace.value_planes(targets, layout),
        trace.active_planes(targets, layout),
    )


def _parities(local_index: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Target masks of the two passes: local rows 1,3,5... then 2,4,..."""
    odd_local = local_index % 2 == 1
    return odd_local, ~odd_local


def _stacked_witnesses(
    tree: ExecutionTree, model: PowerModel
) -> tuple[np.ndarray, np.ndarray]:
    """(even, odd) witness profiles, rebuilt from the tree on demand.

    Each profile is the recorded planes with one parity's assigned pairs
    scattered back (a first cycle's source is its parent's row, not part
    of this segment, so only in-segment sources are written), unpacked
    once at the end.
    """
    flat = tree.flat_trace
    if not len(flat):
        empty = np.zeros((0, 0), np.uint8)
        return empty, empty.copy()
    layout = flat.layout()
    pricer = model.pricer(layout)
    sources, local_index = _pair_rows(tree)
    recorded = flat.value_planes(None, layout)
    profiles: list[np.ndarray] = []
    for parity_mask in _parities(local_index):
        targets = np.flatnonzero(parity_mask)
        new_prev, new_cur = assign_parity_pairs(
            *_gather_pairs(flat, layout, targets, sources[targets]),
            pricer.max_prev, pricer.max_cur,
        )
        assigned = recorded.copy()
        assigned[targets] = new_cur
        inner = local_index[targets] > 1
        assigned[targets[inner] - 1] = new_prev[inner]
        profiles.append(layout.unpack_trits(assigned[:, 0], assigned[:, 1]))
    odd_full, even_full = profiles
    return even_full, odd_full


def _compute_stacked(
    tree: ExecutionTree,
    model: PowerModel,
    per_module: bool,
    vcd_dir: str | Path | None,
    workers: int = 1,
    cancel=None,
) -> PeakPowerResult:
    flat = tree.flat_trace
    n_cycles = len(flat)
    module_names = sorted(model.module_masks) if per_module else []
    witness_builder = partial(_stacked_witnesses, tree, model)
    if n_cycles == 0:
        return _finish(
            tree, model, np.zeros(0),
            {name: np.zeros(0) for name in module_names},
            witness_builder, vcd_dir,
        )
    layout = flat.layout()
    sources, local_index = _pair_rows(tree)
    mem_accesses = flat.mem_accesses()

    # One X-assignment + pricing pass per parity, walked in chunks that
    # :meth:`PowerModel.pair_power` pulls: each chunk gathers its target
    # rows' packed words, assigns them, and prices them before the next,
    # so no pass holds more than one chunk of planes.  The peak trace
    # takes cycle c from the profile that targeted c's parity, so each
    # profile is priced only at its own target rows.
    peak_trace = np.empty(n_cycles)
    module_mw = {name: np.empty(n_cycles) for name in module_names}
    for parity_mask in _parities(local_index):
        if cancel is not None:
            cancel.check()
        faults.hit("peakpower.segment")
        targets = np.flatnonzero(parity_mask)
        from_rows = sources[targets]

        def pairs(start: int, stop: int):
            return _gather_pairs(
                flat, layout, targets[start:stop], from_rows[start:stop]
            )

        power = model.pair_power(
            pairs,
            len(targets),
            mem_accesses[targets],
            per_module=per_module,
            workers=workers,
            layout=layout,
        )
        peak_trace[parity_mask] = power.total_mw
        for name in module_names:
            module_mw[name][parity_mask] = power.module_mw[name]
    return _finish(
        tree, model, peak_trace, module_mw, witness_builder, vcd_dir
    )


# ----------------------------------------------------------------------
# Scalar engine: one segment at a time (the original reference).
# ----------------------------------------------------------------------
def _segment_profiles(tree, model, segment, values, active):
    """One segment's [context + cycles] inputs and its two maximized
    profiles, local parity 1 (odd rows) first.  *values*/*active* are the
    flat trace matrices, computed once by the caller."""
    n_nets = values.shape[1]
    sl = tree.segment_slice(segment)
    if segment.parent is None:
        context = values[sl.start]  # root: no predecessor transition
    else:
        parent = tree.segments[segment.parent[0]]
        context = values[parent.flat_start + parent.n_cycles - 1]
    seg_values = np.vstack([context[None, :], values[sl]])
    seg_active = np.vstack([np.zeros((1, n_nets), dtype=bool), active[sl]])
    profiles = [
        maximize_parity(
            seg_values, seg_active, parity, model.max_prev, model.max_cur
        )
        for parity in (1, 0)  # local rows 1,3,5... and 2,4,6...
    ]
    return sl, profiles


def _scalar_witnesses(
    tree: ExecutionTree, model: PowerModel
) -> tuple[np.ndarray, np.ndarray]:
    """(even, odd) witness profiles via the per-segment reference path."""
    flat = tree.flat_trace
    values = flat.values_matrix() if len(flat) else np.zeros((0, 0), np.uint8)
    active = flat.active_matrix() if len(flat) else np.zeros((0, 0), bool)
    even_full = values.copy()
    odd_full = values.copy()
    for segment in tree.segments:
        if segment.n_cycles == 0:
            continue
        sl, profiles = _segment_profiles(tree, model, segment, values, active)
        even_full[sl] = profiles[1][1:]
        odd_full[sl] = profiles[0][1:]
    return even_full, odd_full


def _compute_scalar(
    tree: ExecutionTree,
    model: PowerModel,
    per_module: bool,
    vcd_dir: str | Path | None,
    cancel=None,
) -> PeakPowerResult:
    flat = tree.flat_trace
    values = flat.values_matrix() if len(flat) else np.zeros((0, 0), np.uint8)
    active = flat.active_matrix() if len(flat) else np.zeros((0, 0), bool)
    mem_accesses = flat.mem_accesses()
    n_cycles = len(flat)

    peak_trace = np.zeros(n_cycles)
    module_names = sorted(model.module_masks) if per_module else []
    module_mw = {name: np.zeros(n_cycles) for name in module_names}

    for segment in tree.segments:
        if cancel is not None:
            cancel.check()
        faults.hit("peakpower.segment")
        if segment.n_cycles == 0:
            continue
        sl, profiles = _segment_profiles(tree, model, segment, values, active)
        seg_mem = np.vstack([[0.0, 0.0], mem_accesses[sl]])
        powers = [
            model.trace_power(profile, seg_mem, per_module=per_module)
            for profile in profiles
        ]
        # Local row i (1-based data row) was maximized by profiles[(i+1)%2]:
        # profile 0 targets odd local rows, profile 1 targets even ones.
        for local in range(1, segment.n_cycles + 1):
            choice = powers[(local + 1) % 2]
            flat_index = sl.start + local - 1
            peak_trace[flat_index] = choice.total_mw[local]
            for name in module_names:
                module_mw[name][flat_index] = choice.module_mw[name][local]

    return _finish(
        tree, model, peak_trace, module_mw,
        lambda: _scalar_witnesses(tree, model), vcd_dir,
    )
