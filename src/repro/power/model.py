"""Per-cycle power computation from value traces.

Power in cycle *c* is the energy of every output transition between cycles
*c-1* and *c* (per-cell rise/fall energies from the library), plus the
behavioral memory access energy, divided by the clock period, plus leakage:

    P(c) = (sum_g E_trans(g, dir) + E_mem(c)) / T_clk + P_leak

Units: energies in femtojoules, clock in nanoseconds, power in milliwatts
(1 fJ/ns = 1 uW).  Per-module breakdowns use the netlist's top-level module
tags, matching the paper's figures.

One pricer serves every caller (:meth:`PowerModel.trace_power`,
:meth:`~PowerModel.transition_power`, :meth:`~PowerModel.pair_power`):
rows arrive as packed dual-rail P/N planes in some
:class:`~repro.netlist.program.BitLayout` — a trace's recorded words, or
uint8 rows packed in net order — and only the set bits of ``rise = tog &
P_cur`` and ``fall = tog & ~P_cur`` are priced.  Energies are integers in
units of ``2**-k`` fJ, with *k* chosen per model so any row sum is exact
in a double, so the native kernel's ``repro_price``, the numpy
byte-lookup fallback, every chunking and every thread count produce the
same floats bit for bit.
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass, field

import numpy as np

from repro.cells import CellLibrary
from repro.netlist.core import Netlist
from repro.netlist.program import BitLayout, net_order_layout

#: Per-module transition-energy scaling, matched by the longest module-path
#: prefix.  Synthesis maps slack-rich blocks (the multiplier array) to
#: minimum-drive cells, and the register file stands in for a compact
#: custom macro rather than a discrete-mux-tree — without these scalings
#: the gate-count of those structures would dwarf the core and invert the
#: paper's technique ordering.
DEFAULT_MODULE_ENERGY_SCALE = {
    "multiplier": 0.08,
    "exec_unit": 0.45,
    "exec_unit/regfile": 0.25,
    "exec_unit/alu": 0.3,
    "mem_backbone": 0.5,
}


def _scale_for(module: str, scale_map: dict[str, float]) -> float:
    """Longest-prefix lookup of *module* in *scale_map*."""
    best_len = -1
    best = 1.0
    for prefix, scale in scale_map.items():
        if module == prefix or module.startswith(prefix + "/"):
            if len(prefix) > best_len:
                best_len = len(prefix)
                best = scale
    return best


@dataclass
class PowerTrace:
    """Per-cycle total power plus per-module breakdown, all in mW."""

    total_mw: np.ndarray
    module_mw: dict[str, np.ndarray] = field(default_factory=dict)
    leakage_mw: float = 0.0
    clock_ns: float = 10.0

    def __len__(self) -> int:
        return len(self.total_mw)

    def peak(self) -> float:
        return float(self.total_mw.max()) if len(self.total_mw) else 0.0

    def peak_cycle(self) -> int:
        return int(self.total_mw.argmax())

    def average(self) -> float:
        return float(self.total_mw.mean()) if len(self.total_mw) else 0.0

    def energy_pj(self) -> float:
        """Total energy of the trace in picojoules."""
        return float(self.total_mw.sum() * self.clock_ns)

    def energy_per_cycle_pj(self) -> float:
        return self.energy_pj() / max(len(self.total_mw), 1)

    def top_modules(self, cycle: int, count: int = 8) -> list[tuple[str, float]]:
        """Module power ranking at *cycle* — the §3.5 COI breakdown."""
        ranking = sorted(
            ((name, float(series[cycle])) for name, series in self.module_mw.items()),
            key=lambda item: -item[1],
        )
        return ranking[:count]


class PowerModel:
    """Characterizes one netlist against one cell library."""

    def __init__(
        self,
        netlist: Netlist,
        library: CellLibrary,
        clock_ns: float = 10.0,
        module_energy_scale: dict[str, float] | None = None,
    ):
        self.netlist = netlist
        self.library = library
        self.clock_ns = clock_ns
        scale_map = (
            DEFAULT_MODULE_ENERGY_SCALE
            if module_energy_scale is None
            else module_energy_scale
        )

        n = netlist.n_nets
        self.e_rise = np.zeros(n)
        self.e_fall = np.zeros(n)
        self.max_prev = np.zeros(n, dtype=np.uint8)
        self.max_cur = np.ones(n, dtype=np.uint8)
        leakage_nw = 0.0
        self.module_clk_fj: dict[str, float] = {}
        for gate in netlist.gates:
            cell = library.cell_for_gate(gate.kind)
            top = gate.module.split("/", 1)[0] if gate.module else "misc"
            scale = _scale_for(gate.module, scale_map)
            self.e_rise[gate.index] = cell.e_rise_fj * scale
            self.e_fall[gate.index] = cell.e_fall_fj * scale
            prev, cur = cell.max_power_transition()
            self.max_prev[gate.index] = prev
            self.max_cur[gate.index] = cur
            leakage_nw += cell.leakage_nw
            if cell.e_clk_fj:
                self.module_clk_fj[top] = (
                    self.module_clk_fj.get(top, 0.0) + cell.e_clk_fj * scale
                )
        leakage_nw += library.mem_leakage_nw
        self.leakage_mw = leakage_nw * 1e-6
        #: Clock-pin energy burned every cycle by the sequential cells —
        #: input-independent, so it raises bound and measurement equally.
        self.clock_pin_fj = sum(self.module_clk_fj.values())

        self.module_masks: dict[str, np.ndarray] = {}
        for name, indices in netlist.gates_by_top_module().items():
            mask = np.zeros(n, dtype=bool)
            mask[indices] = True
            self.module_masks[name] = mask
        #: transition energies are priced as integers in units of
        #: ``2**-fixed_point_shift`` fJ (see :class:`Pricer`)
        self.fixed_point_shift = _fixed_point_shift(self.e_rise, self.e_fall)
        self._pricers: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self._pricer_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Activity statistics
    # ------------------------------------------------------------------
    def activity_profile(self, trace) -> dict:
        """Per-cycle activity statistics of a simulation trace.

        On bitplane-engine traces the counts come straight from the packed
        activity words (``np.bitwise_count`` over uint64 planes, 64 nets
        per word) without unpacking; reference traces fall back to bool
        sums.  Both count the same paper-defined active set, so the stats
        are engine-independent — the perf harness records them per
        benchmark as a cheap cross-engine consistency signal.
        """
        counts = trace.activity_counts()
        toggled = trace.toggled_any()
        n_cells = len(self.netlist.cell_gate_indices())
        return {
            "mean_active_nets": round(float(counts.mean()), 1) if len(counts) else 0.0,
            "max_active_nets": int(counts.max()) if len(counts) else 0,
            "toggled_nets": int(toggled.sum()),
            "cell_count": n_cells,
        }

    # ------------------------------------------------------------------
    # Core computation
    # ------------------------------------------------------------------
    def mem_energy_fj(self, mem_accesses: np.ndarray | None) -> np.ndarray | None:
        """Price a (n_cycles, 2) [reads, writes] matrix with the library."""
        if mem_accesses is None:
            return None
        return (
            mem_accesses[:, 0] * self.library.mem_read_energy_fj
            + mem_accesses[:, 1] * self.library.mem_write_energy_fj
        )

    #: rows per pricing chunk.  Bounds the per-chunk working set (the
    #: gathered P/N planes, and the numpy pricer's byte lookups) to a few
    #: MB; sums are exact integers, so the chunk size never changes a
    #: result.
    TRACE_CHUNK_ROWS = 256

    def pricer(self, layout: BitLayout) -> "Pricer":
        """The fixed-point pricing tables for rows packed in *layout*,
        built on first use and kept for the layout's lifetime."""
        with self._pricer_lock:
            pricer = self._pricers.get(layout)
            if pricer is None:
                pricer = self._pricers[layout] = Pricer(self, layout)
            return pricer

    def _price_pairs(
        self, pairs, n_rows: int, layout: BitLayout, workers: int,
        first_row: int = 0,
    ) -> np.ndarray:
        """Fixed-point energies ``(n_rows, n_cols)`` of the pairs that
        ``pairs(start, stop)`` returns for each chunk of rows
        ``[first_row, n_rows)``; earlier rows stay 0.  A third element
        in a chunk's tuple is the targets' activity words: those pairs
        are X-assigned before pricing (see :meth:`pair_power`)."""
        from repro.sim.native import loaded_pricer

        pricer = self.pricer(layout)
        price_c = loaded_pricer()
        sums = np.zeros((n_rows, pricer.n_cols), dtype=np.int64)

        def price(start: int, stop: int) -> None:
            pricer.price(sums[start:stop], price_c, *pairs(start, stop))

        self._map_chunks(price, first_row, n_rows, workers)
        return sums

    def _assemble_power(
        self,
        sums: np.ndarray,
        mem_accesses: np.ndarray | None,
        per_module: bool,
    ) -> PowerTrace:
        """Fold memory/clock/leakage into energies; convert to mW."""
        n_rows = len(sums)
        unit = 2.0 ** -self.fixed_point_shift
        # < 2**53 by the choice of shift, so both conversions are exact
        totals = sums.sum(axis=1).astype(np.float64) * unit
        mem_energy_fj = self.mem_energy_fj(mem_accesses)
        if mem_energy_fj is not None:
            totals = totals + mem_energy_fj
        totals = totals + self.clock_pin_fj + self.library.mem_idle_fj
        total_mw = totals / self.clock_ns * 1e-3 + self.leakage_mw
        module_mw: dict[str, np.ndarray] = {}
        if per_module:
            for col, name in enumerate(self.module_masks):
                series = sums[:, col].astype(np.float64) * unit
                series = series + self.module_clk_fj.get(name, 0.0)
                module_mw[name] = series / self.clock_ns * 1e-3
            mem_series = np.full(n_rows, self.library.mem_idle_fj)
            if mem_energy_fj is not None:
                mem_series = mem_series + mem_energy_fj
            module_mw["mem_backbone"] = module_mw.get(
                "mem_backbone", np.zeros(n_rows)
            ) + mem_series / self.clock_ns * 1e-3
        return PowerTrace(
            total_mw=total_mw,
            module_mw=module_mw,
            leakage_mw=self.leakage_mw,
            clock_ns=self.clock_ns,
        )

    def trace_power(
        self,
        values,
        mem_accesses: np.ndarray | None = None,
        per_module: bool = False,
        workers: int = 1,
    ) -> PowerTrace:
        """Power trace of consecutive value rows.

        *values* is a :class:`~repro.sim.trace.Trace` — priced straight
        from its records' packed words, nothing unpacked — or a uint8
        ``(n_cycles, n_nets)`` trit matrix, packed in net order chunk by
        chunk.  Row 0 has no predecessor and carries no transition
        energy.  Transitions into or out of X count at the rising energy
        when the new value is 1 or X — conservative for the few
        never-initialized nets of a concrete run; the symbolic flows
        resolve Xs before pricing.  With ``workers > 1`` the chunks run on
        the shared kernel thread pool; sums are exact integers, so
        results are bit-identical at any worker count.
        """
        n_rows = len(values)
        if isinstance(values, np.ndarray):
            layout = net_order_layout(self.netlist.n_nets)

            def rows(lo: int, hi: int) -> np.ndarray:
                return layout.pack_values(values[lo:hi])
        else:
            layout = values.layout()

            def rows(lo: int, hi: int) -> np.ndarray:
                return values.value_planes(range(lo, hi), layout)

        def pairs(start: int, stop: int):
            planes = rows(start - 1, stop)  # row start-1 is the first prev
            return planes[:-1], planes[1:]

        sums = self._price_pairs(pairs, n_rows, layout, workers, first_row=1)
        return self._assemble_power(sums, mem_accesses, per_module)

    def transition_power(
        self,
        prev_rows: np.ndarray,
        cur_rows: np.ndarray,
        mem_accesses: np.ndarray | None = None,
        per_module: bool = False,
        workers: int = 1,
    ) -> PowerTrace:
        """Power of explicit uint8 ``(previous, current)`` value-row pairs.

        Row *i* prices the transition ``prev_rows[i] -> cur_rows[i]`` —
        same pricer, constants, and bit-exact results as
        :meth:`trace_power`, over an arbitrary subset of a trace's rows.
        """
        layout = net_order_layout(self.netlist.n_nets)

        def pairs(start: int, stop: int):
            return (
                layout.pack_values(prev_rows[start:stop]),
                layout.pack_values(cur_rows[start:stop]),
            )

        return self.pair_power(
            pairs, len(cur_rows), mem_accesses, per_module, workers, layout
        )

    def pair_power(
        self,
        pairs,
        n_rows: int,
        mem_accesses: np.ndarray | None = None,
        per_module: bool = False,
        workers: int = 1,
        layout: BitLayout | None = None,
    ) -> PowerTrace:
        """Power of packed row pairs *pulled* per chunk from
        ``pairs(start, stop)``, which returns the ``(prev, cur)``
        ``(k, 2, n_words)`` P/N planes of rows ``[start, stop)`` in
        *layout*'s bit order (default: net order) — or ``(prev, cur,
        active)`` with the targets' ``(k, n_words)`` activity words, to
        price each pair after Algorithm 2's X-assignment
        (:func:`assign_parity_pairs`; the planes may be assigned in
        place).

        Pulling lets a producer whose pairs are *derived* (gathered,
        X-assigned) do that work per chunk too: the whole gather → assign
        → price pipeline of :mod:`repro.core.peakpower` runs inside one
        :attr:`TRACE_CHUNK_ROWS` working set.  ``pairs`` must be pure per
        span (chunks may run on threads, in any order).
        """
        layout = layout or net_order_layout(self.netlist.n_nets)
        sums = self._price_pairs(pairs, n_rows, layout, workers)
        return self._assemble_power(sums, mem_accesses, per_module)

    def _map_chunks(self, price, first_row: int, n_rows: int, workers: int) -> None:
        """Run *price* over TRACE_CHUNK_ROWS-sized spans, threaded when
        asked; chunking is row-wise so the split never changes results."""
        from repro.parallel.kernel import map_spans

        chunk = self.TRACE_CHUNK_ROWS
        spans = [
            (start, min(start + chunk, n_rows))
            for start in range(first_row, n_rows, chunk)
        ]
        map_spans(workers, spans, price)


def _fixed_point_shift(e_rise: np.ndarray, e_fall: np.ndarray) -> int:
    """Largest *k* such that every row sum in units of 2**-k fJ is below
    2**53: a row prices each net at most once, at its dearer edge, so the
    bound is the sum of per-net maxima (rounded as the pricer rounds)."""
    worst = np.maximum(e_rise, e_fall)
    total = float(worst.sum())
    if total <= 0.0:
        return 0
    shift = 53 - int(np.floor(np.log2(total)))  # total * 2**shift >= 2**53
    while int(np.rint(worst * 2.0**shift).astype(np.int64).sum()) >= 2**53:
        shift -= 1
    return shift


#: bit *b* of byte value *v*, for the numpy pricer's byte lookup tables
_BYTE_BITS = np.unpackbits(
    np.arange(256, dtype=np.uint8)[:, None], axis=1, bitorder="little"
).astype(np.int64)


class Pricer:
    """One power model's fixed-point pricing tables for one bit layout.

    Transition energies are integers in units of ``2**-k`` fJ (*k* =
    :attr:`PowerModel.fixed_point_shift`), so a row's total and module
    sums are exact whatever order the bits are visited in: the C pricer,
    the numpy pricer, any chunking and any thread count agree bit for
    bit.  Columns are the model's modules in ``module_masks`` order plus
    one trailing column for priced nets outside every module.

    Also carries the layout's ``max_prev``/``max_cur`` words, the
    per-cell max-power transition Algorithm 2 assigns to X pairs.
    """

    def __init__(self, model: PowerModel, layout: BitLayout):
        scale = 2.0 ** model.fixed_point_shift
        q_rise = np.rint(model.e_rise * scale).astype(np.int64)
        q_fall = np.rint(model.e_fall * scale).astype(np.int64)
        n_modules = len(model.module_masks)
        col = np.full(model.netlist.n_nets, n_modules, dtype=np.int32)
        for index, mask in enumerate(model.module_masks.values()):
            col[mask] = index
        self.n_cols = n_modules + 1
        self.q_rise = layout.bit_table(q_rise)
        self.q_fall = layout.bit_table(q_fall)
        self.col = layout.bit_table(col, fill=n_modules)
        priced = (self.q_rise != 0) | (self.q_fall != 0)
        self.priced = _pack_bits(priced)
        self.max_prev = _pack_bits(layout.bit_table(model.max_prev) != 0)
        self.max_cur = _pack_bits(layout.bit_table(model.max_cur) != 0)
        self._lookup = None

    def price(
        self, out: np.ndarray, price_c, prev, cur, active=None
    ) -> None:
        """Fixed-point energies of ``prev -> cur`` into *out* (rows,
        n_cols); *price_c* is a loaded ``repro_price`` or ``None``.

        With *active* (the targets' activity words) each pair is priced
        after :func:`assign_parity_pairs` — in registers by the C pricer,
        in place on *prev*/*cur* by the numpy one.
        """
        prev = np.ascontiguousarray(prev, dtype=np.uint64)
        cur = np.ascontiguousarray(cur, dtype=np.uint64)
        if active is not None:
            active = np.ascontiguousarray(active, dtype=np.uint64)
        if price_c is not None:
            price_c(
                prev, cur, active, self.max_prev, self.max_cur, self.priced,
                self.q_rise, self.q_fall, self.col, out,
            )
            return
        if active is not None:
            assign_parity_pairs(prev, cur, active, self.max_prev, self.max_cur)
        self._price_numpy(prev, cur, out)

    def _price_numpy(self, prev: np.ndarray, cur: np.ndarray, out) -> None:
        """Byte-lookup pricer: per (byte, column) entry, a 256-entry
        table of the energy of every bit pattern; gathered per row and
        summed per column (int64, exact)."""
        lookup = self._lookup or self._build_lookup()
        byte_of, offsets, rise_table, fall_table, starts, cols = lookup
        p_cur = cur[:, 0]
        tog = ((prev[:, 0] ^ p_cur) | (prev[:, 1] ^ cur[:, 1])) & self.priced
        rise = (tog & p_cur).view(np.uint8)[:, byte_of] + offsets
        fall = (tog & ~p_cur).view(np.uint8)[:, byte_of] + offsets
        energy = rise_table[rise]
        energy += fall_table[fall]
        out[:] = 0
        if len(starts):
            out[:, cols] = np.add.reduceat(energy, starts, axis=1)

    def _build_lookup(self):
        """(byte index, table offset, flat rise table, flat fall table,
        column starts, columns) over the (byte, column) entries that hold
        priced bits, grouped by column for ``np.add.reduceat``."""
        bits = np.flatnonzero(np.unpackbits(
            self.priced.view(np.uint8), bitorder="little"
        ))
        keys, entry = np.unique(
            np.stack([self.col[bits], bits >> 3], axis=1),
            axis=0, return_inverse=True,
        )  # sorted by column, then byte
        w_rise = np.zeros((len(keys), 8), dtype=np.int64)
        w_fall = np.zeros((len(keys), 8), dtype=np.int64)
        w_rise[entry, bits & 7] = self.q_rise[bits]
        w_fall[entry, bits & 7] = self.q_fall[bits]
        cols, starts = np.unique(keys[:, 0], return_index=True)
        self._lookup = (
            keys[:, 1],
            np.arange(len(keys), dtype=np.intp) * 256,
            (w_rise @ _BYTE_BITS.T).ravel(),
            (w_fall @ _BYTE_BITS.T).ravel(),
            starts,
            cols,
        )
        return self._lookup


def assign_parity_pairs(
    prev: np.ndarray,
    cur: np.ndarray,
    active: np.ndarray,
    max_prev: np.ndarray,
    max_cur: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Algorithm 2's X-assignment of packed (predecessor, target) pairs,
    in place.

    *prev*/*cur* are ``(k, 2, n_words)`` P/N planes of the pairs,
    *active* the targets' ``(k, n_words)`` activity words and
    *max_prev*/*max_cur* the per-bit max-power transition words
    (:attr:`Pricer.max_prev`), all in one bit layout.  The three cases of
    :func:`repro.core.peakpower.maximize_parity` as word logic: on an
    active net, an X pair becomes the cell's max-power transition and a
    single X the value that completes a toggle (a known value's
    complement is its rails swapped).  An X reads ``P & N``, so every
    resolved bit starts at (1, 1) and flips one rail.  Pad bits are never
    active and never change.  Returns ``(prev, cur)``; the native
    pricer runs the same logic in registers (``act`` in
    :data:`repro.sim.native.PRICE_C`).
    """
    pp, pn = prev[:, 0], prev[:, 1]
    cp, cn = cur[:, 0], cur[:, 1]
    cur_x = cp & cn
    cur_x &= active
    prev_x = pp & pn
    prev_x &= active
    both = cur_x & prev_x
    # new value's P rail where the target / predecessor is resolved:
    # both -> the max-power pair; one X -> the complement of the other
    # side, whose P rail is its N rail (read before either side changes)
    cur_p = (cur_x ^ both) & pn
    cur_p |= both & max_cur
    prev_p = (prev_x ^ both) & cn
    prev_p |= both & max_prev
    for p_rail, n_rail, x, value in (
        (cp, cn, cur_x, cur_p), (pp, pn, prev_x, prev_p)
    ):
        value &= x
        n_rail ^= value  # N drops where the new value is 1
        value ^= x
        p_rail ^= value  # P drops where it is 0
    return prev, cur


def _pack_bits(flags: np.ndarray) -> np.ndarray:
    """Per-bit bools -> uint64 words (little bit order)."""
    return np.packbits(flags, bitorder="little").view(np.uint64)


def design_tool_rating(
    model: PowerModel,
    toggle_rate: float | None = None,
    mem_access_rate: float = 1.0,
) -> tuple[float, float]:
    """The design-specification baseline (Figure 1.4, "design tool").

    Emulates rating the design with the tool's default switching activity:
    every cell toggles with probability *toggle_rate* each cycle at its
    worst-case transition energy, and the memory is accessed every cycle.
    Returns ``(peak_power_mw, energy_per_cycle_pj)``.
    """
    library = model.library
    rate = library.default_toggle_rate if toggle_rate is None else toggle_rate
    worst = np.maximum(model.e_rise, model.e_fall)
    switching_fj = rate * worst.sum()
    mem_fj = mem_access_rate * library.mem_read_energy_fj
    power_mw = (
        switching_fj + mem_fj + model.clock_pin_fj + library.mem_idle_fj
    ) / model.clock_ns * 1e-3 + model.leakage_mw
    energy_pj = power_mw * model.clock_ns
    return power_mw, energy_pj
