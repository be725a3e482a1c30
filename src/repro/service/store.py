"""Content-addressed artifact store.

Generalizes the ``.repro_cache`` pickle scheme (``bench/runner``) into a
reusable store for every expensive artifact the pipeline produces —
analysis results, stressmarks, activity profiles, sizing answers.  The
on-disk contract is deliberately the same as the runner's historical
layout so existing caches keep working byte for byte:

* an artifact lives at ``<root>/<key>-<fingerprint>.pkl`` where
  *fingerprint* versions the producing code/model (see
  :func:`repro.bench.runner.cache_fingerprint`);
* the payload is the plain ``pickle.dumps`` of the value — the file
  contents are byte-identical to what ``bench/runner`` wrote before the
  store existed;
* a sidecar ``<artifact>.meta.json`` carries the integrity digest
  (blake2b over the pickle bytes), size, creation/access timestamps and
  a per-entry hit counter.  Entries without a sidecar (seed-era caches)
  are still readable and still gc-able — they are reported as *legacy*.

Writes are atomic (scratch file + ``os.replace``), so concurrent
writers — suite worker processes racing on one key, or two service jobs
resolving the same request — can never publish a torn artifact: a
reader sees the complete old bytes or the complete new bytes, nothing
in between.  Reads verify the digest; a corrupt artifact counts as a
miss and is recomputed over, never silently returned.

Garbage collection (:meth:`ArtifactStore.gc`) evicts in waves:
stale-fingerprint versions and legacy unversioned entries first (they
can never be read again), then entries whose TTL has lapsed, then
least-recently-used entries until the store fits under the requested
size cap.

Entries may carry a TTL: ``put(key, value, ttl_s=...)`` stamps an
``expires_at`` into the sidecar, after which reads miss and gc evicts
the artifact.  Registry-benchmark artifacts are written without a TTL
and are never expiry-evicted — TTLs exist for tenant-uploaded results,
which must age out of a shared store.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import re
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable

try:
    import fcntl
except ImportError:  # non-POSIX host: publishes fall back to unserialized
    fcntl = None

from repro.service import faults

META_SUFFIX = ".meta.json"

#: scratch files older than this are considered abandoned by a dead
#: writer and reclaimed by gc; younger ones may be in-flight writes.
TMP_REAP_AGE_S = 3600.0

#: versioned artifact names end in ``-<16 hex chars>`` (the blake2b-8
#: fingerprint ``bench/runner`` has used since PR 1).
_FINGERPRINT_RE = re.compile(r"^(?P<key>.+)-(?P<fp>[0-9a-f]{16})$")


def content_digest(data: bytes) -> str:
    """Integrity digest of an artifact's pickle bytes."""
    return hashlib.blake2b(data, digest_size=16).hexdigest()


@dataclass
class StoreCounters:
    """Hit/miss accounting (not persisted): this process's own, plus
    the deltas service workers ship back with every job."""

    hits_disk: int = 0
    hits_memory: int = 0
    misses: int = 0
    writes: int = 0
    corrupt: int = 0

    @property
    def hits_total(self) -> int:
        return self.hits_disk + self.hits_memory

    def snapshot(self) -> dict[str, int]:
        """The raw counters, for :meth:`since`."""
        return asdict(self)

    def since(self, before: dict[str, int]) -> dict[str, int]:
        """Counts added after *before* (a :meth:`snapshot`)."""
        return {name: n - before[name] for name, n in asdict(self).items()}

    def add(self, delta: dict[str, int]) -> None:
        """Fold in counts made elsewhere (a service worker's job)."""
        for name, n in delta.items():
            setattr(self, name, getattr(self, name) + n)

    def to_dict(self) -> dict:
        return {
            "hits_disk": self.hits_disk,
            "hits_memory": self.hits_memory,
            "hits_total": self.hits_total,
            "misses": self.misses,
            "writes": self.writes,
            "corrupt": self.corrupt,
        }


@dataclass
class Entry:
    """One on-disk artifact, as seen by ``stats``/``gc``."""

    path: Path
    key: str
    fingerprint: str | None  # None: legacy unversioned entry
    size: int
    created: float
    accessed: float
    hits: int
    legacy: bool  # no sidecar metadata (seed-era pickle)
    expires_at: float | None = None  # None: immortal (no TTL)

    def expired(self, now: float | None = None) -> bool:
        if self.expires_at is None:
            return False
        return (time.time() if now is None else now) >= self.expires_at

    @property
    def kind(self) -> str:
        """Artifact family — the key prefix up to the first underscore
        (``xbased``, ``profiling``, ``stressmark``, ...)."""
        return self.key.split("_", 1)[0] if "_" in self.key else self.key


@dataclass
class StoreStats:
    """Aggregate store state plus this process's counters."""

    root: str
    n_entries: int
    n_legacy: int
    n_stale: int
    total_bytes: int
    by_kind: dict[str, int]
    counters: StoreCounters

    def to_dict(self) -> dict:
        return {
            "root": self.root,
            "entries": {
                "n_entries": self.n_entries,
                "n_legacy": self.n_legacy,
                "n_stale": self.n_stale,
                "total_bytes": self.total_bytes,
                "by_kind": dict(sorted(self.by_kind.items())),
            },
            "counters": self.counters.to_dict(),
        }


@dataclass
class GcReport:
    """What one :meth:`ArtifactStore.gc` pass removed and kept."""

    removed: list[str] = field(default_factory=list)
    freed_bytes: int = 0
    kept_entries: int = 0
    remaining_bytes: int = 0

    def to_dict(self) -> dict:
        return {
            "removed": list(self.removed),
            "n_removed": len(self.removed),
            "freed_bytes": self.freed_bytes,
            "kept_entries": self.kept_entries,
            "remaining_bytes": self.remaining_bytes,
        }


class ArtifactStore:
    """Keyed, versioned, atomically-written artifact store.

    *fingerprint* versions every key: a string, or a zero-arg callable
    resolved at each use (so an interactive fingerprint bump — e.g. a
    monkeypatched model — is picked up without rebuilding the store),
    or ``None`` for unversioned keys.
    """

    def __init__(
        self,
        root: str | Path,
        fingerprint: str | Callable[[], str] | None = None,
    ) -> None:
        self.root = Path(root)
        self._fingerprint = fingerprint
        self.counters = StoreCounters()

    # -- keys and paths -------------------------------------------------

    def fingerprint(self) -> str | None:
        if callable(self._fingerprint):
            return self._fingerprint()
        return self._fingerprint

    def path_for(self, key: str) -> Path:
        fp = self.fingerprint()
        name = f"{key}-{fp}.pkl" if fp else f"{key}.pkl"
        return self.root / name

    def contains(self, key: str) -> bool:
        return self.path_for(key).exists()

    # -- read/write -----------------------------------------------------

    def get(self, key: str):
        """Load *key* or raise :class:`KeyError` on miss.

        The payload digest is verified against the sidecar before
        unpickling; a mismatch is retried once (an atomic-replace race
        can briefly pair new bytes with the old sidecar) and then
        treated as a corrupt miss.  The corrupt file is left in place —
        the caller's recompute overwrites it — so a racing reader can
        never delete a concurrently-published good artifact.
        """
        faults.hit("store.read")
        path = self.path_for(key)
        for attempt in (0, 1):
            try:
                data = path.read_bytes()
            except OSError:
                self.counters.misses += 1
                raise KeyError(key) from None
            meta = self._read_meta(path)
            if meta is None or not meta.get("digest"):
                break  # legacy entry: no digest to verify
            if content_digest(data) == meta["digest"]:
                break
            if attempt == 1:
                self.counters.corrupt += 1
                self.counters.misses += 1
                raise KeyError(key)
        if meta is not None and self._meta_expired(meta):
            # an expired entry is a miss, not a stale hit; eviction of
            # the bytes themselves is gc's job
            self.counters.misses += 1
            raise KeyError(key)
        try:
            value = pickle.loads(data)
        except Exception:
            self.counters.corrupt += 1
            self.counters.misses += 1
            raise KeyError(key) from None
        self.counters.hits_disk += 1
        if meta is not None:
            try:
                # re-read under the publish lock and merge into the
                # CURRENT sidecar: writing back the meta snapshot from
                # before the reads would revert a concurrent publisher's
                # digest and poison the entry for every later read
                with self._publish_lock(path):
                    current = self._read_meta(path)
                    if current is not None:
                        current["accessed"] = time.time()
                        current["hits"] = int(current.get("hits", 0)) + 1
                        self._write_meta(path, current)
            except OSError:
                # recency/hit bookkeeping is best-effort: a read-only or
                # full store must still serve warm reads
                pass
        return value

    def put(self, key: str, value, ttl_s: float | None = None) -> str:
        """Atomically publish *value* under *key*; return its digest.

        The artifact file holds exactly ``pickle.dumps(value)`` — byte
        identical to the pre-store ``bench/runner`` cache format.
        With *ttl_s* the sidecar gains an ``expires_at`` stamp; once it
        passes, reads miss and gc evicts the entry.
        """
        faults.hit("store.write")
        self.root.mkdir(parents=True, exist_ok=True)
        data = pickle.dumps(value)
        digest = content_digest(data)
        path = self.path_for(key)
        # the artifact and its sidecar are two separate atomic replaces;
        # without serialization two writers can interleave them
        # (A.data, B.data, B.meta, A.meta) and leave a mismatched pair
        # at rest that every digest-verified read rejects
        with self._publish_lock(path):
            self._atomic_write(path, data)
            now = time.time()
            meta = {
                "key": key,
                "fingerprint": self.fingerprint(),
                "digest": digest,
                "size": len(data),
                "created": now,
                "accessed": now,
                "hits": 0,
            }
            if ttl_s is not None:
                meta["expires_at"] = now + float(ttl_s)
            self._write_meta(path, meta)
        self.counters.writes += 1
        return digest

    def get_or_compute(self, key: str, compute: Callable[[], object]):
        """``get(key)``, falling back to ``put(key, compute())``."""
        try:
            return self.get(key)
        except KeyError:
            value = compute()
            self.put(key, value)
            return value

    def note_memory_hit(self) -> None:
        """Record a hit served by a caller's in-process memory layer."""
        self.counters.hits_memory += 1

    # -- maintenance ----------------------------------------------------

    def entries(self) -> list[Entry]:
        """Scan the store directory (versioned + legacy artifacts)."""
        found: list[Entry] = []
        if not self.root.is_dir():
            return found
        for path in sorted(self.root.glob("*.pkl")):
            try:
                stat = path.stat()
            except OSError:
                continue  # raced with a concurrent gc/replace
            meta = self._read_meta(path)
            match = _FINGERPRINT_RE.match(path.stem)
            key = match.group("key") if match else path.stem
            fingerprint = match.group("fp") if match else None
            if meta is not None:
                # the sidecar counts toward size caps too: what gc frees
                # must match what the directory actually occupies
                try:
                    meta_size = self._meta_path(path).stat().st_size
                except OSError:
                    meta_size = 0
                expires_at = meta.get("expires_at")
                found.append(
                    Entry(
                        path=path,
                        key=str(meta.get("key", key)),
                        fingerprint=meta.get("fingerprint", fingerprint),
                        size=stat.st_size + meta_size,
                        created=float(meta.get("created", stat.st_mtime)),
                        accessed=float(meta.get("accessed", stat.st_mtime)),
                        hits=int(meta.get("hits", 0)),
                        legacy=False,
                        expires_at=(
                            float(expires_at) if expires_at is not None else None
                        ),
                    )
                )
            else:
                found.append(
                    Entry(
                        path=path,
                        key=key,
                        fingerprint=fingerprint,
                        size=stat.st_size,
                        created=stat.st_mtime,
                        accessed=stat.st_mtime,
                        hits=0,
                        legacy=True,
                    )
                )
        return found

    def stats(self) -> StoreStats:
        entries = self.entries()
        current = self.fingerprint()
        by_kind: dict[str, int] = {}
        n_stale = 0
        for entry in entries:
            by_kind[entry.kind] = by_kind.get(entry.kind, 0) + 1
            if self._is_stale(entry, current):
                n_stale += 1
        return StoreStats(
            root=str(self.root),
            n_entries=len(entries),
            n_legacy=sum(1 for e in entries if e.legacy),
            n_stale=n_stale,
            total_bytes=sum(e.size for e in entries),
            by_kind=by_kind,
            counters=self.counters,
        )

    def gc(self, max_mb: float | None = None) -> GcReport:
        """Evict artifacts; optionally enforce a *max_mb* size cap.

        Eviction order: abandoned scratch files, then stale-fingerprint
        and legacy unversioned entries (unreadable by the current
        version, pure dead weight), then entries whose TTL has lapsed,
        then — only when the cap is still exceeded — live entries from
        least to most recently used.
        """
        report = GcReport()
        if not self.root.is_dir():
            return report
        now = time.time()
        for tmp in self.root.glob("*.tmp*"):
            try:
                if now - tmp.stat().st_mtime >= TMP_REAP_AGE_S:
                    size = tmp.stat().st_size
                    tmp.unlink()
                    report.removed.append(tmp.name)
                    report.freed_bytes += size
            except OSError:
                pass
        current = self.fingerprint()
        live: list[Entry] = []
        for entry in self.entries():
            if self._is_stale(entry, current) or entry.expired(now):
                self._remove(entry, report)
            else:
                live.append(entry)
        if max_mb is not None:
            cap_bytes = int(max_mb * 1024 * 1024)
            total = sum(e.size for e in live)
            for entry in sorted(live, key=lambda e: e.accessed):
                if total <= cap_bytes:
                    break
                self._remove(entry, report)
                live.remove(entry)
                total -= entry.size
        report.kept_entries = len(live)
        report.remaining_bytes = sum(e.size for e in live)
        return report

    # -- internals ------------------------------------------------------

    @staticmethod
    def _is_stale(entry: Entry, current: str | None) -> bool:
        """Unreadable by the current version: in a versioned store,
        legacy unversioned names and versioned names whose fingerprint
        no longer matches.  An unversioned store (``fingerprint=None``)
        reads its own unversioned entries fine, so nothing is stale."""
        if current is None:
            return False
        return entry.fingerprint is None or entry.fingerprint != current

    def _remove(self, entry: Entry, report: GcReport) -> None:
        lock = entry.path.with_name(entry.path.name + ".lock")
        for path in (entry.path, self._meta_path(entry.path), lock):
            try:
                path.unlink()
            except OSError:
                pass
        report.removed.append(entry.path.name)
        report.freed_bytes += entry.size

    @staticmethod
    def _meta_expired(meta: dict) -> bool:
        expires_at = meta.get("expires_at")
        if expires_at is None:
            return False
        try:
            return time.time() >= float(expires_at)
        except (TypeError, ValueError):
            return False

    @staticmethod
    def _meta_path(path: Path) -> Path:
        return path.with_name(path.name + META_SUFFIX)

    def _read_meta(self, path: Path) -> dict | None:
        try:
            raw = self._meta_path(path).read_text()
        except OSError:
            return None
        try:
            meta = json.loads(raw)
        except ValueError:
            return None
        return meta if isinstance(meta, dict) else None

    def _write_meta(self, path: Path, meta: dict) -> None:
        self._atomic_write(
            self._meta_path(path), json.dumps(meta, sort_keys=True).encode()
        )

    @contextmanager
    def _publish_lock(self, path: Path):
        """Serialize data+sidecar publishes (and sidecar bookkeeping)
        for one artifact across processes via an advisory flock.

        Each file replace stays individually atomic; the lock only keeps
        the *pair* consistent at rest.  Reads never take it.  On hosts
        without ``fcntl`` or stores where the lock file cannot be
        created, degrade to the unserialized behavior.
        """
        if fcntl is None:
            yield
            return
        lock_path = path.with_name(path.name + ".lock")
        try:
            fd = os.open(lock_path, os.O_CREAT | os.O_RDWR, 0o644)
        except OSError:
            yield
            return
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)
            yield
        finally:
            os.close(fd)

    def _atomic_write(self, path: Path, data: bytes) -> None:
        # pid + thread id: service jobs are threads of one process, and
        # two writers sharing a scratch name could publish a torn file
        scratch = path.with_name(
            f"{path.name}.tmp{os.getpid()}-{threading.get_ident()}"
        )
        try:
            scratch.write_bytes(data)
            os.replace(scratch, path)
        except BaseException:
            try:
                scratch.unlink()
            except OSError:
                pass
            raise
