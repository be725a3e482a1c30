"""Cycle-by-cycle simulation records.

A :class:`Trace` is the bridge between simulation and power analysis: for
every simulated cycle it stores the settled net values (with Xs), the
activity flags from the paper's marking rule, and the behavioral memory
access energy.  Annotations (program counter, decoded instruction, frontend
state) are attached by the CPU wrapper for the COI analysis of §3.5.

Records come in two layouts:

* **unpacked** — ``values`` (uint8 trits) and ``active`` (bool) rows in
  netlist net order, as the scalar machine produces them, and
* **packed** — dual-rail ``value_words`` (``(2, n_words)`` uint64 P/N
  planes) plus ``active_words``, as the bit-plane engine's concrete
  batches and the sharded explorer produce them.  Packed records unpack
  **lazily** (per record on attribute access, or in one bulk
  ``unpack_trits`` call for whole-trace matrices), so a concrete run to
  halt never pays a per-cycle unpack for rows nobody reads per cycle.

Both layouts expose the same ``values``/``active`` attributes and produce
bit-identical matrices; consumers never need to know which one they got.
The power model and Algorithm 2 read neither: they take
:meth:`Trace.value_planes`/:meth:`Trace.active_planes`, which stack packed
records as recorded and pack unpacked ones in net order, together with the
:meth:`Trace.layout` that names the bit order.
"""

from __future__ import annotations

from typing import Any

import numpy as np


class CycleRecord:
    """Everything captured about one simulated clock cycle.

    ``values``/``active`` unpack lazily from ``value_words`` /
    ``active_words`` (via ``packing``) when the record was captured
    packed; the unpacked rows are cached on first access.
    """

    __slots__ = (
        "cycle",
        "_values",
        "_active",
        "mem_reads",
        "mem_writes",
        "annotations",
        "active_words",
        "value_words",
        "packing",
    )

    def __init__(
        self,
        cycle: int,
        values: np.ndarray | None = None,
        active: np.ndarray | None = None,
        mem_reads: float = 0.0,
        mem_writes: float = 0.0,
        annotations: dict[str, Any] | None = None,
        active_words: np.ndarray | None = None,
        value_words: np.ndarray | None = None,
        packing=None,
    ):
        self.cycle = cycle
        self._values = values
        self._active = active
        #: behavioral memory accesses this cycle (1.0 also for may-access
        #: under an X enable — conservative, as peak analysis requires)
        self.mem_reads = mem_reads
        self.mem_writes = mem_writes
        self.annotations = {} if annotations is None else annotations
        #: packed uint64 activity words (bitplane engine only; already
        #: masked to real nets) — whole-trace activity reductions stay packed
        self.active_words = active_words
        #: packed (2, n_words) P/N value planes (packed-record mode only)
        self.value_words = value_words
        #: the :class:`~repro.netlist.program.NetlistProgram` whose bit
        #: order the packed words use; required to unpack lazily
        self.packing = packing

    @property
    def values(self) -> np.ndarray:
        """uint8 trit row in net order, unpacked on demand and cached."""
        if self._values is None and self.value_words is not None:
            row = self.packing.unpack_trits(
                self.value_words[0], self.value_words[1]
            )
            row.setflags(write=False)
            self._values = row
        return self._values

    @property
    def active(self) -> np.ndarray:
        """bool activity row in net order, unpacked on demand and cached."""
        if self._active is None and self.active_words is not None:
            self._active = self.packing.unpack_bits(self.active_words)
        return self._active


class Trace:
    """An ordered list of cycle records with matrix views for analysis."""

    def __init__(self, n_nets: int):
        self.n_nets = n_nets
        self.records: list[CycleRecord] = []
        #: the :class:`~repro.netlist.program.NetlistProgram` whose bit
        #: order the records' packed words use (bitplane traces only)
        self.packing = None

    def __len__(self) -> int:
        return len(self.records)

    def __getitem__(self, index: int) -> CycleRecord:
        return self.records[index]

    def append(self, record: CycleRecord) -> None:
        self.records.append(record)

    def extend(self, other: "Trace") -> None:
        self.records.extend(other.records)

    def values_matrix(self) -> np.ndarray:
        """(n_cycles, n_nets) uint8 matrix of settled values (0/1/X).

        Packed traces unpack in **one** vectorized call over the stacked
        plane words instead of once per cycle — this is what lets packed
        concrete runs defer all unpacking to the power-model boundary.
        """
        if self.packing is not None and self.records and all(
            r._values is None and r.value_words is not None
            for r in self.records
        ):
            words = np.stack([r.value_words for r in self.records])
            return self.packing.unpack_trits(words[:, 0], words[:, 1])
        return np.stack([r.values for r in self.records])

    def active_matrix(self) -> np.ndarray:
        """(n_cycles, n_nets) bool matrix of the activity flags."""
        if self.packing is not None and self.records and all(
            r._active is None and r.active_words is not None
            for r in self.records
        ):
            return self.packing.unpack_bits(
                np.stack([r.active_words for r in self.records])
            )
        return np.stack([r.active for r in self.records])

    def layout(self):
        """The :class:`~repro.netlist.program.BitLayout` of :meth:`value_planes`.

        The recording program when every record carries packed words
        (bitplane/native traces), else the net-order layout the
        reference engine's uint8 rows are packed into.
        """
        if self.packing is not None and all(
            r.value_words is not None and r.active_words is not None
            for r in self.records
        ):
            return self.packing
        from repro.netlist.program import net_order_layout

        return net_order_layout(self.n_nets)

    def _select(self, rows) -> list[CycleRecord]:
        if rows is None:
            return self.records
        records = self.records
        return [records[i] for i in rows]

    def value_planes(self, rows, layout) -> np.ndarray:
        """(k, 2, n_words) P/N planes of the records at *rows* (all when
        ``None``), in *layout*'s bit order (from :meth:`layout`).

        Packed records are stacked as recorded — nothing unpacks — so
        whole-trace consumers (the power model, Algorithm 2) stay on the
        words the engine produced.
        """
        records = self._select(rows)
        if layout is self.packing:
            return np.stack([r.value_words for r in records])
        return layout.pack_values(np.stack([r.values for r in records]))

    def active_planes(self, rows, layout) -> np.ndarray:
        """(k, n_words) activity words of the records at *rows* (all when
        ``None``), in *layout*'s bit order (from :meth:`layout`)."""
        records = self._select(rows)
        if layout is self.packing:
            return np.stack([r.active_words for r in records])
        return layout.pack_active(np.stack([r.active for r in records]))

    def mem_accesses(self) -> np.ndarray:
        """(n_cycles, 2) array of [reads, writes] per cycle."""
        return np.array(
            [[r.mem_reads, r.mem_writes] for r in self.records]
        ).reshape(-1, 2)

    def annotation(self, key: str, default: Any = None) -> list[Any]:
        return [r.annotations.get(key, default) for r in self.records]

    def _packed_active(self) -> np.ndarray | None:
        """(n_cycles, n_words) packed activity, when every record has it."""
        if self.packing is None or not self.records:
            return None
        if any(r.active_words is None for r in self.records):
            return None
        return np.stack([r.active_words for r in self.records])

    def toggled_any(self) -> np.ndarray:
        """Per-net flag: was the net active in *any* cycle of the trace?

        This is the "potentially-toggled" gate set of Figure 3.4.  On
        bitplane traces the union is taken over the packed activity words
        (64 nets per OR) and unpacked once at the end.
        """
        packed = self._packed_active()
        if packed is not None:
            return self.packing.unpack_bits(
                np.bitwise_or.reduce(packed, axis=0)
            )
        flags = np.zeros(self.n_nets, dtype=bool)
        for record in self.records:
            flags |= record.active
        return flags

    def activity_counts(self) -> np.ndarray:
        """Number of active nets per cycle (the paper's activity rate).

        Computed with ``np.bitwise_count`` over the packed activity words
        when the trace came from the bitplane engine; falls back to
        summing the bool rows otherwise.  Both paths count the same set.
        """
        packed = self._packed_active()
        if packed is not None:
            from repro.sim.bitplane import popcount

            return popcount(packed).astype(np.int64)
        return np.array(
            [int(record.active.sum()) for record in self.records],
            dtype=np.int64,
        )
