"""Generated-C native settle kernel: one foreign call per cycle.

The bitplane engine executes the compiled level schedule as ~25 numpy
ufunc dispatches per level plus a fancy-indexed gather — fast per *bit*,
but the per-dispatch overhead dominates once the planes fit in cache.
This module removes the interpreter entirely: at first use the
:class:`~repro.netlist.program.NetlistProgram` is lowered to a small C
translation unit (the fused gather + word-op tape as straight-line loops
over the packed uint64 planes, including the source-block activity rule
and the per-level A-plane writes), compiled once with the system C
compiler into a per-netlist shared object, and called through cffi's ABI
mode (ctypes when cffi is unavailable) as::

    void repro_settle(uint64_t *state, const uint64_t *prev, long rows);

``state`` is the C-contiguous ``(rows, 3, n_words)`` plane array settled
in place; ``prev`` the stashed previous-cycle planes of the activity
rule.  Any leading batch shape flattens to ``rows``, so one call settles
a scalar machine or a 64-lane batch alike, and both cffi and ctypes
release the GIL for the duration of the call.

Every kernel also carries ``repro_price`` (:data:`PRICE_C`), a fixed,
table-driven transition pricer: Algorithm 2's X-assignment plus
fixed-point pricing of packed row pairs in registers.  It does not
depend on the netlist, so :func:`loaded_pricer` hands any loaded
kernel's entry point to :class:`repro.power.model.PowerModel`; with no
kernel loaded the model prices with numpy, to the same integers.

Build products are cached twice: the ELF bytes live in a content-
addressed :class:`~repro.service.store.ArtifactStore` under
``<cache>/native`` keyed ``nativekernel_<fingerprint>`` (the fingerprint
digests the *compiled schedule* — gather tables, run layout, DFF
tables — plus :data:`KERNEL_VERSION`, so any netlist or codegen change
rebuilds), and the dlopen-able file materializes next to it as
``<fingerprint>.so``.  A warm process pays one ``dlopen``; a warm cache
pays zero compiles.

Bit identity with ``bitplane``/``reference`` is a hard contract — the
kernel is generated from the *same* schedule the numpy tape executes,
and the differential suite pins values, A plane and memo ``state_bytes``
on every benchmark.  When no C compiler is present (or the build fails)
:func:`evaluator_or_fallback` degrades to the bitplane engine with a
single process-wide warning, never an error.
"""

from __future__ import annotations

import hashlib
import os
import shlex
import shutil
import subprocess
import tempfile
import threading
import time
import warnings
from pathlib import Path

import numpy as np

from repro.netlist.core import Netlist
from repro.netlist.program import NetlistProgram

#: bump on any change to :func:`generate_c` or the call ABI — it is part
#: of the kernel fingerprint (as is :data:`PRICE_C`'s text), so stale
#: cached objects are never reused
KERNEL_VERSION = 3

#: compilers probed (after ``$CC``) when building the shared object
_COMPILERS = ("cc", "gcc", "clang")

_CFLAGS = ("-O2", "-shared", "-fPIC", "-fno-math-errno")


class NativeKernelError(RuntimeError):
    """The native kernel could not be built or loaded."""


# ----------------------------------------------------------------------
# Fingerprinting
# ----------------------------------------------------------------------
def program_fingerprint(program: NetlistProgram) -> str:
    """Digest of everything the generated C depends on.

    Hashes the compiled schedule itself — per-level gather tables, run
    layout, activity block offsets, DFF tables, masks and sizes — rather
    than the netlist, so the fingerprint changes exactly when the
    emitted kernel would.
    """
    h = hashlib.blake2b(digest_size=8)
    h.update(f"nativekernel-v{KERNEL_VERSION}".encode())
    h.update(PRICE_C.encode())
    h.update(
        np.array(
            [program.n_words, program.src_words, program.dff_word0,
             program.dff_words, program.n_bits, program.depth],
            dtype=np.int64,
        ).tobytes()
    )
    h.update(program.input_mask.tobytes())
    h.update(program.valid_mask.tobytes())
    for plan in program.levels:
        h.update(
            repr(
                (
                    plan.word0, plan.words, plan.act0_word, plan.act1_word,
                    plan.act2_word, plan.mux_words, plan.scratch_words,
                    [
                        (r.cls, r.n_gates, r.res_word, r.words, r.slot_words)
                        for r in plan.runs
                    ],
                )
            ).encode()
        )
        h.update(np.ascontiguousarray(plan.gather_bytes).tobytes())
        h.update(np.ascontiguousarray(plan.gather_masks).tobytes())
    h.update(np.ascontiguousarray(program.dff_act_bytes).tobytes())
    h.update(np.ascontiguousarray(program.dff_act_masks).tobytes())
    h.update(program.dff_reset_words.tobytes())
    return h.hexdigest()


# ----------------------------------------------------------------------
# C code generation
# ----------------------------------------------------------------------
def _slot_words_shifts(
    gather_bytes: np.ndarray, gather_masks: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Gather table -> (uint64-word index into the 3*n_words row, shift)."""
    bit = np.asarray(gather_bytes, dtype=np.int64) * 8 + np.log2(
        np.asarray(gather_masks, dtype=np.int64)
    ).astype(np.int64)
    return (bit >> 6).astype(np.int64), (bit & 63).astype(np.int64)


def _emit_table(name: str, ctype: str, values: np.ndarray) -> str:
    body = ",".join(str(int(v)) for v in values) or "0"
    return f"static const {ctype} {name}[] = {{{body}}};\n"


def _emit_gather(
    out: list[str],
    dst: str,
    sources: list[tuple[int, int]],
    row: str = "row",
) -> None:
    """Emit ``dst = <shift-merged gather of sources>;``.

    *sources* lists the (source word, source shift) of each of the 64
    destination bits.  Bits are grouped by ``(word, shift - bit)``: a
    whole run of bus-aligned slots (bit *i* of a result word reading bit
    *i + d* of one source word — the common case by construction, since
    runs hold gates in elaboration order and buses elaborate
    sequentially) collapses into a single ``(row[w] >> d) & mask`` term
    with immediate constants.  Worst case degenerates to one term per
    bit, which still beats a table-driven loop.
    """
    groups: dict[tuple[int, int], int] = {}
    order: list[tuple[int, int]] = []
    for bit, (word, shift) in enumerate(sources):
        key = (word, shift - bit)
        if key not in groups:
            groups[key] = 0
            order.append(key)
        groups[key] |= 1 << bit
    terms = []
    for word, delta in order:
        mask = groups[(word, delta)]
        if delta > 0:
            expr = f"({row}[{word}] >> {delta})"
        elif delta < 0:
            expr = f"({row}[{word}] << {-delta})"
        else:
            expr = f"{row}[{word}]"
        if mask == (1 << 64) - 1:
            terms.append(expr)
        else:
            terms.append(f"({expr} & {mask:#x}ULL)")
    joined = "\n        | ".join(terms)
    out.append(f"    {dst} = {joined};\n")


def generate_c(program: NetlistProgram) -> str:
    """Lower the compiled schedule to a self-contained C translation unit."""
    nw = program.n_words
    out = [
        "#include <stddef.h>\n",
        "#include <stdint.h>\n",
        f"#define NW {nw}\n",
        f"#define SW {program.src_words}\n",
    ]

    # int64 two's-complement view: large uint64 decimal literals have no
    # portable unsuffixed spelling in C, negative int64 ones do
    out.append(
        _emit_table("INPUT_MASK_I", "int64_t", program.input_mask.view(np.int64))
    )
    out.append("#define INPUT_MASK ((const uint64_t *)INPUT_MASK_I)\n")

    # One function per level: the optimizer's cost on straight-line code
    # grows superlinearly with function size, so a split TU compiles far
    # faster than one settle-sized function at the same -O2 output.
    scratch = max(program.max_scratch_words, 1)
    out.append(
        "\nstatic void source_block(uint64_t *restrict row,"
        " const uint64_t *restrict prev)\n{\n"
    )

    # --- source block: changed | X-input rule | DFF rule ---
    out.append(
        "    for (int k = 0; k < SW; ++k) {\n"
        "        uint64_t chg = (row[k] ^ prev[k]) | (row[NW+k] ^ prev[NW+k]);\n"
        "        row[2*NW+k] = chg | ((row[k] & row[NW+k]) & INPUT_MASK[k]);\n"
        "    }\n"
    )
    if program.dff_words:
        dff_words, dff_shifts = _slot_words_shifts(
            program.dff_act_bytes, program.dff_act_masks
        )
        for w in range(program.dff_words):
            sources = list(
                zip(dff_words[w * 64 : w * 64 + 64],
                    dff_shifts[w * 64 : w * 64 + 64])
            )
            out.append("    {\n    uint64_t driven;\n")
            _emit_gather(out, "driven", sources, row="prev")
            k = program.dff_word0 + w
            out.append(
                f"    row[2*NW+{k}] |= (row[{k}] & row[NW+{k}]) & driven;\n"
                "    }\n"
            )

    out.append("}\n")

    # --- levels ---
    for li, plan in enumerate(program.levels):
        w0, wl = plan.word0, plan.words
        out.append(
            f"\nstatic void level_{li}(uint64_t *restrict row,"
            " const uint64_t *restrict prev,"
            " uint64_t *restrict S)\n{\n"
            f"    /* words [{w0},{w0 + wl}) */\n"
        )
        g_words, g_shifts = _slot_words_shifts(
            plan.gather_bytes, plan.gather_masks
        )
        for w in range(plan.scratch_words):
            sources = list(
                zip(g_words[w * 64 : w * 64 + 64],
                    g_shifts[w * 64 : w * 64 + 64])
            )
            _emit_gather(out, f"S[{w}]", sources)
        for run in plan.runs:
            p0 = w0 + run.res_word
            n0 = nw + p0
            o = run.slot_words
            out.append(f"    for (int k = 0; k < {run.words}; ++k) {{\n")
            if run.cls == "copy":
                out.append(
                    f"        row[{p0}+k] = S[{o[0]}+k];\n"
                    f"        row[{n0}+k] = S[{o[1]}+k];\n"
                )
            elif run.cls == "and":
                out.append(
                    f"        row[{p0}+k] = S[{o[0]}+k] & S[{o[2]}+k];\n"
                    f"        row[{n0}+k] = S[{o[1]}+k] | S[{o[3]}+k];\n"
                )
            elif run.cls == "and_swap":
                out.append(
                    f"        row[{p0}+k] = S[{o[1]}+k] | S[{o[3]}+k];\n"
                    f"        row[{n0}+k] = S[{o[0]}+k] & S[{o[2]}+k];\n"
                )
            elif run.cls in ("xor", "xor_swap"):
                out.append(
                    f"        uint64_t pa = S[{o[0]}+k], na = S[{o[1]}+k];\n"
                    f"        uint64_t pb = S[{o[2]}+k], nb = S[{o[3]}+k];\n"
                )
                straight = "(pa & nb) | (na & pb)"
                inverted = "(pa & pb) | (na & nb)"
                if run.cls == "xor":
                    out.append(
                        f"        row[{p0}+k] = {straight};\n"
                        f"        row[{n0}+k] = {inverted};\n"
                    )
                else:
                    out.append(
                        f"        row[{p0}+k] = {inverted};\n"
                        f"        row[{n0}+k] = {straight};\n"
                    )
            else:  # mux: blocks SN, SP, PA, PB, NA, NB
                out.append(
                    f"        uint64_t sn = S[{o[0]}+k], sp = S[{o[1]}+k];\n"
                    f"        row[{p0}+k] = (sn & S[{o[2]}+k]) | (sp & S[{o[3]}+k]);\n"
                    f"        row[{n0}+k] = (sn & S[{o[4]}+k]) | (sp & S[{o[5]}+k]);\n"
                )
            out.append("    }\n")
        # activity: A = changed | (is_x & (act0 | act1 [| act2 mux tail]))
        mw = plan.mux_words
        plain = wl - mw
        body = (
            "        uint64_t p = row[{p0}+k], n = row[NW+{p0}+k];\n"
            "        uint64_t chg = (p ^ prev[{p0}+k]) | (n ^ prev[NW+{p0}+k]);\n"
        ).format(p0=w0)
        if plain:
            out.append(f"    for (int k = 0; k < {plain}; ++k) {{\n")
            out.append(body)
            out.append(
                f"        uint64_t act = S[{plan.act0_word}+k] | S[{plan.act1_word}+k];\n"
                f"        row[2*NW+{w0}+k] = chg | ((p & n) & act);\n"
                "    }\n"
            )
        if mw:
            out.append(f"    for (int k = {plain}; k < {wl}; ++k) {{\n")
            out.append(body)
            out.append(
                f"        uint64_t act = S[{plan.act0_word}+k] | S[{plan.act1_word}+k]"
                f" | S[{plan.act2_word}+k-{plain}];\n"
                f"        row[2*NW+{w0}+k] = chg | ((p & n) & act);\n"
                "    }\n"
            )
        out.append("}\n")

    out.append(
        "\nstatic void settle_row(uint64_t *restrict row,"
        " const uint64_t *restrict prev)\n{\n"
        f"    uint64_t S[{scratch}];\n"
        "    source_block(row, prev);\n"
    )
    for li in range(len(program.levels)):
        out.append(f"    level_{li}(row, prev, S);\n")
    out.append("}\n")

    out.append(
        "\nvoid repro_settle(uint64_t *state, const uint64_t *prev, long rows)\n"
        "{\n"
        "    for (long r = 0; r < rows; ++r)\n"
        "        settle_row(state + (size_t)r*3*NW, prev + (size_t)r*3*NW);\n"
        "}\n"
    )
    out.append(PRICE_C)
    return "".join(out)


#: The transition pricer behind :class:`repro.power.model.PowerModel`,
#: appended verbatim to every kernel.  It is table-driven, not generated:
#: the caller passes the bit layout's per-bit fixed-point energies and
#: module columns, so one entry point prices rows of any layout.  For
#: each ``(prev, cur)`` pair of ``(rows, 2, nw)`` P/N planes it visits
#: only the set bits of ``rise = tog & P_cur`` and ``fall = tog &
#: ~P_cur`` (``tog`` = either rail differs, masked to priced bits) and
#: adds their int64 energies into ``out[row][col[bit]]``.  Integer sums
#: are exact, so results never depend on summation order.  With ``act``
#: non-NULL (the targets' ``(rows, nw)`` activity words) each word pair
#: is first X-assigned to its max-power transition in registers —
#: Algorithm 2's three cases, the same word logic as
#: :func:`repro.power.model.assign_parity_pairs` — and nothing is
#: written back.
PRICE_C = """
void repro_price(const uint64_t *prev, const uint64_t *cur,
                 const uint64_t *act, const uint64_t *max_prev,
                 const uint64_t *max_cur, long rows, long nw,
                 const uint64_t *priced, const int64_t *q_rise,
                 const int64_t *q_fall, const int32_t *col, long n_cols,
                 int64_t *out)
{
    for (long r = 0; r < rows; ++r) {
        const uint64_t *p = prev + (size_t)r*2*nw;
        const uint64_t *c = cur + (size_t)r*2*nw;
        const uint64_t *a = act ? act + (size_t)r*nw : NULL;
        int64_t *o = out + (size_t)r*n_cols;
        for (long k = 0; k < n_cols; ++k)
            o[k] = 0;
        for (long w = 0; w < nw; ++w) {
            uint64_t pp = p[w], pn = p[nw+w], cp = c[w], cn = c[nw+w];
            if (a) {
                uint64_t cx = cp & cn & a[w], px = pp & pn & a[w];
                uint64_t both = cx & px;
                uint64_t vc = (both & max_cur[w]) | ((cx ^ both) & pn);
                uint64_t vp = (both & max_prev[w]) | ((px ^ both) & cn);
                cp ^= cx & ~vc;
                cn ^= cx & vc;
                pp ^= px & ~vp;
                pn ^= px & vp;
            }
            uint64_t tog = ((pp ^ cp) | (pn ^ cn)) & priced[w];
            uint64_t rise = tog & cp, fall = tog & ~cp;
            const int32_t *cw = col + w*64;
            const int64_t *qr = q_rise + w*64, *qf = q_fall + w*64;
            while (rise) {
                int b = __builtin_ctzll(rise);
                o[cw[b]] += qr[b];
                rise &= rise - 1;
            }
            while (fall) {
                int b = __builtin_ctzll(fall);
                o[cw[b]] += qf[b];
                fall &= fall - 1;
            }
        }
    }
}
"""


# ----------------------------------------------------------------------
# Build + cache
# ----------------------------------------------------------------------
def find_compiler() -> list[str] | None:
    """The C compiler command to use, or ``None`` when none is present.

    ``$CC`` (split shell-style, so flags ride along) wins; otherwise the
    first of ``cc``/``gcc``/``clang`` on ``PATH``.
    """
    env_cc = os.environ.get("CC", "").strip()
    candidates = ([env_cc] if env_cc else []) + list(_COMPILERS)
    for candidate in candidates:
        argv = shlex.split(candidate)
        if argv and shutil.which(argv[0]):
            return argv
    return None


def compile_so(source: str) -> tuple[bytes, float]:
    """Compile *source* to shared-object bytes; returns (bytes, seconds)."""
    argv = find_compiler()
    if argv is None:
        raise NativeKernelError(
            "no C compiler found (tried $CC, " + ", ".join(_COMPILERS) + ")"
        )
    started = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="repro-native-") as tmp:
        c_path = Path(tmp) / "kernel.c"
        so_path = Path(tmp) / "kernel.so"
        c_path.write_text(source)
        proc = subprocess.run(
            argv + list(_CFLAGS) + ["-o", str(so_path), str(c_path)],
            capture_output=True,
            text=True,
        )
        if proc.returncode != 0:
            raise NativeKernelError(
                f"C compile failed ({' '.join(argv)}): "
                f"{proc.stderr.strip()[:500] or proc.stdout.strip()[:500]}"
            )
        try:
            so_bytes = so_path.read_bytes()
        except OSError as exc:
            raise NativeKernelError(f"compiler produced no object: {exc}")
    return so_bytes, time.perf_counter() - started


def _native_cache_dir() -> Path:
    """``<bench cache>/native`` — rides the runner's CACHE_DIR knob so
    tests and ``repro serve --store`` redirect kernels too."""
    from repro.bench import runner

    return Path(runner.CACHE_DIR) / "native"


def kernel_store():
    """The artifact store holding compiled kernel bytes.

    A dedicated subdirectory (its entries are keyed by the *program*
    fingerprint + :data:`KERNEL_VERSION`, not the runner's model
    fingerprint) so the bench store's gc never mistakes live kernels for
    stale results.
    """
    from repro.service.store import ArtifactStore

    return ArtifactStore(_native_cache_dir(), fingerprint=None)


def build_kernel(program: NetlistProgram) -> tuple[Path, float, str]:
    """Materialize the shared object for *program*.

    Returns ``(path to .so, build seconds, fingerprint)``; build seconds
    is 0.0 when the artifact store already held the bytes.
    """
    fingerprint = program_fingerprint(program)
    directory = _native_cache_dir()
    so_path = directory / f"{fingerprint}.so"
    if so_path.is_file():
        return so_path, 0.0, fingerprint
    store = kernel_store()
    key = f"nativekernel_{fingerprint}"
    build_s = 0.0
    try:
        blob = store.get(key)
        so_bytes = blob["so"]
    except (KeyError, TypeError):
        so_bytes, build_s = compile_so(generate_c(program))
        store.put(
            key,
            {
                "so": so_bytes,
                "build_s": build_s,
                "kernel_version": KERNEL_VERSION,
            },
        )
    directory.mkdir(parents=True, exist_ok=True)
    scratch = so_path.with_name(
        f"{so_path.name}.tmp{os.getpid()}-{threading.get_ident()}"
    )
    try:
        scratch.write_bytes(so_bytes)
        os.replace(scratch, so_path)
    except BaseException:
        try:
            scratch.unlink()
        except OSError:
            pass
        raise
    return so_path, build_s, fingerprint


def _load_so(so_path: Path):
    """dlopen the kernel; returns ``(settle, price)`` callables.

    ``settle(state, prev, rows)`` runs ``repro_settle``;
    ``price(prev, cur, act, max_prev, max_cur, priced, q_rise, q_fall,
    col, out)`` runs ``repro_price`` over C-contiguous numpy arrays
    (*act* ``None`` skips the X-assignment, and the max words are then
    ignored; row and column counts come from the shapes).  cffi ABI mode
    when available (releases the GIL, zero-copy buffer casts); plain
    ctypes otherwise.  Both paths raise :class:`NativeKernelError` on a
    load failure.
    """
    try:
        import cffi
    except ImportError:
        cffi = None
    if cffi is not None:
        try:
            ffi = cffi.FFI()
            ffi.cdef(
                "void repro_settle(uint64_t *state, const uint64_t *prev,"
                " long rows);"
                "void repro_price(const uint64_t *prev, const uint64_t *cur,"
                " const uint64_t *act, const uint64_t *max_prev,"
                " const uint64_t *max_cur, long rows, long nw,"
                " const uint64_t *priced,"
                " const int64_t *q_rise, const int64_t *q_fall,"
                " const int32_t *col, long n_cols, int64_t *out);"
            )
            lib = ffi.dlopen(str(so_path))
            lib.repro_price  # resolve now: a stale object lacks it
        except Exception as exc:
            raise NativeKernelError(f"cffi dlopen failed: {exc}")

        def ptr(array, ctype, _ffi=ffi):
            return _ffi.cast(ctype, _ffi.from_buffer(array))

        def settle(state, prev, rows, _lib=lib):
            _lib.repro_settle(
                ptr(state, "uint64_t *"), ptr(prev, "uint64_t *"), rows
            )

        def price(
            prev, cur, act, max_prev, max_cur, priced, q_rise, q_fall, col,
            out, _lib=lib, _null=ffi.NULL,
        ):
            _lib.repro_price(
                ptr(prev, "uint64_t *"), ptr(cur, "uint64_t *"),
                _null if act is None else ptr(act, "uint64_t *"),
                ptr(max_prev, "uint64_t *"), ptr(max_cur, "uint64_t *"),
                out.shape[0], priced.shape[0], ptr(priced, "uint64_t *"),
                ptr(q_rise, "int64_t *"), ptr(q_fall, "int64_t *"),
                ptr(col, "int32_t *"), out.shape[1], ptr(out, "int64_t *"),
            )

        return settle, price
    import ctypes

    try:
        lib = ctypes.CDLL(str(so_path))
        settle_fn = lib.repro_settle
        price_fn = lib.repro_price
    except (OSError, AttributeError) as exc:
        raise NativeKernelError(f"ctypes dlopen failed: {exc}")
    settle_fn.argtypes = [ctypes.c_void_p, ctypes.c_void_p, ctypes.c_long]
    settle_fn.restype = None
    price_fn.argtypes = (
        [ctypes.c_void_p] * 5 + [ctypes.c_long] * 2
        + [ctypes.c_void_p] * 4 + [ctypes.c_long, ctypes.c_void_p]
    )
    price_fn.restype = None

    def settle(state, prev, rows, _fn=settle_fn):
        _fn(state.ctypes.data, prev.ctypes.data, rows)

    def price(
        prev, cur, act, max_prev, max_cur, priced, q_rise, q_fall, col, out,
        _fn=price_fn,
    ):
        _fn(
            prev.ctypes.data, cur.ctypes.data,
            None if act is None else act.ctypes.data,
            max_prev.ctypes.data, max_cur.ctypes.data,
            out.shape[0], priced.shape[0],
            priced.ctypes.data, q_rise.ctypes.data, q_fall.ctypes.data,
            col.ctypes.data, out.shape[1], out.ctypes.data,
        )

    return settle, price


class NativeKernel:
    """A loaded per-netlist settle kernel (plus the shared pricer)."""

    def __init__(
        self, fingerprint: str, call, price, build_s: float, so_path: Path
    ):
        self.fingerprint = fingerprint
        self.call = call
        #: ``repro_price`` (see :data:`PRICE_C`)
        self.price = price
        #: compile seconds actually spent in this process (0.0 on a
        #: cache hit) — surfaced by the perf harness
        self.build_s = build_s
        self.so_path = so_path


#: loaded kernels by fingerprint — dlopen once per process, and the lib
#: object must outlive every evaluator bound to it
_KERNELS: dict[str, NativeKernel] = {}
_KERNEL_LOCK = threading.Lock()


def kernel_for(program: NetlistProgram) -> NativeKernel:
    """Build/load (and memoize) the kernel for *program*."""
    fingerprint = program_fingerprint(program)
    with _KERNEL_LOCK:
        kernel = _KERNELS.get(fingerprint)
        if kernel is None:
            so_path, build_s, fingerprint = build_kernel(program)
            settle, price = _load_so(so_path)
            kernel = NativeKernel(fingerprint, settle, price, build_s, so_path)
            _KERNELS[fingerprint] = kernel
        return kernel


def loaded_pricer():
    """``repro_price`` of a kernel already loaded in this process, or
    ``None``.

    The pricer is netlist-independent, so any loaded kernel serves any
    power model; pricing never builds or loads one itself — it rides on
    the kernel the native engine loaded for exploration, and falls back
    to numpy (same integers, bit for bit) everywhere else.
    """
    with _KERNEL_LOCK:
        for kernel in _KERNELS.values():
            return kernel.price
    return None


# ----------------------------------------------------------------------
# Evaluator + fallback
# ----------------------------------------------------------------------
from repro.sim.bitplane import BitplaneEvaluator  # noqa: E402  (cycle-free)


class NativeEvaluator(BitplaneEvaluator):
    """BitplaneEvaluator whose settle sweep is one native call.

    Everything else — packing, DFF clocking, state fingerprints, bus
    peeks — is inherited unchanged, so machines, batch machines, memo
    keys and traces behave identically; only ``stash_prev`` /
    ``settle_and_mark`` bypass the numpy tape (and never build the
    per-lead tape buffers at all).
    """

    engine_name = "native"

    def __init__(
        self,
        netlist: Netlist,
        program: NetlistProgram | None = None,
        kernel: NativeKernel | None = None,
    ):
        super().__init__(netlist, program)
        self.kernel = kernel or kernel_for(self.program)
        self._native_prev: dict[tuple[int, ...], np.ndarray] = {}

    def _prev_planes(self, lead: tuple[int, ...]) -> np.ndarray:
        prev = self._native_prev.get(lead)
        if prev is None:
            prev = self._native_prev[lead] = np.zeros(
                lead + (3, self.n_words), dtype=np.uint64
            )
        return prev

    def stash_prev(self, planes: np.ndarray) -> None:
        np.copyto(self._prev_planes(planes.shape[:-2]), planes)

    def settle_and_mark(self, planes: np.ndarray) -> None:
        lead = planes.shape[:-2]
        prev = self._prev_planes(lead)
        rows = 1
        for dim in lead:
            rows *= dim
        contiguous = planes.flags["C_CONTIGUOUS"]
        state = planes if contiguous else np.ascontiguousarray(planes)
        self.kernel.call(state, prev, rows)
        if not contiguous:
            planes[...] = state


_fallback_warned = False


def warn_fallback(reason: Exception | str) -> None:
    """One process-wide warning when native degrades to bitplane."""
    global _fallback_warned
    if _fallback_warned:
        return
    _fallback_warned = True
    warnings.warn(
        f"native engine unavailable ({reason}); falling back to the "
        "bitplane engine (results are identical, settle is slower)",
        RuntimeWarning,
        stacklevel=3,
    )


def _reset_fallback_warning() -> None:
    """Test hook: arm the fallback warning again."""
    global _fallback_warned
    _fallback_warned = False


def evaluator_or_fallback(
    netlist: Netlist, program: NetlistProgram | None = None
):
    """A :class:`NativeEvaluator`, or a bitplane one when builds fail.

    The compiled program is shared between the attempt and the fallback,
    so a degraded environment pays no extra compile.  Never raises for
    missing toolchains — the paper pipeline must run anywhere.
    """
    program = program or NetlistProgram(netlist)
    try:
        return NativeEvaluator(netlist, program)
    except NativeKernelError as exc:
        warn_fallback(exc)
        return BitplaneEvaluator(netlist, program)
