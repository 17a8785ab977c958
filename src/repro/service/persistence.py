"""Cross-tenant shared plan store with an optional on-disk persistence tier.

:class:`SharedPlanStore` is the object a :class:`~repro.session.Session`
consults on a local plan-cache miss (``Session(shared_cache=store)``) and
the object the :class:`~repro.service.SimulationService` shares across
every tenant.  It maps a *shared plan key* — the qubit-relabel-invariant
key built by :func:`repro.session.cache.shared_plan_key` — to a JSON-able
*plan skeleton* (:func:`repro.session.cache.plan_skeleton`).

Two tiers:

* **Memory** — a plain dict guarded by one lock; every ``get``/``put``
  goes through it.
* **Disk** (optional, ``persist_dir=...``) — one JSON file per entry named
  by a blake2b digest of the key's repr.  ``put`` writes through; a new
  store loads every readable entry at construction so a restarted service
  warms from the previous run's plans.

Nothing loaded from disk is ever trusted blindly: every entry must carry
the current :data:`~repro.session.cache.SKELETON_VERSION` and a
``fingerprint`` that matches :func:`~repro.session.cache.skeleton_fingerprint`
recomputed over the payload.  A mismatch — truncated file, bit rot, a
hand-edited entry — evicts the entry (memory and disk) and surfaces as
:class:`~repro.errors.CacheCorruptionError`, which the session catches and
answers with a cold replan.  Corruption is therefore a performance event,
never a correctness event.
"""

from __future__ import annotations

import hashlib
import json
import threading
from dataclasses import dataclass, field
from pathlib import Path

from ..errors import CacheCorruptionError
from ..runtime.checkpoint import atomic_write_bytes
from ..session.cache import SKELETON_VERSION, skeleton_fingerprint

__all__ = ["SharedPlanStore", "SharedStoreStats"]


@dataclass
class SharedStoreStats:
    """Counters of one :class:`SharedPlanStore`."""

    hits: int = 0
    misses: int = 0
    puts: int = 0
    #: Entries evicted after failing the version/fingerprint check.
    corruptions: int = 0
    evictions: int = 0
    #: Entries warm-loaded from ``persist_dir`` at construction.
    loaded: int = 0
    #: Entries rejected during the warm load (corrupt/unreadable/stale
    #: version); their files are removed so they are never retried.
    load_rejected: int = 0
    saved: int = 0
    save_errors: int = 0

    def as_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "puts": self.puts,
            "corruptions": self.corruptions,
            "evictions": self.evictions,
            "loaded": self.loaded,
            "load_rejected": self.load_rejected,
            "saved": self.saved,
            "save_errors": self.save_errors,
        }


def _digest(key: object) -> str:
    """Stable filename-safe digest of a shared plan key."""
    return hashlib.blake2b(repr(key).encode(), digest_size=16).hexdigest()


@dataclass
class _Entry:
    key_repr: str
    skeleton: dict
    hits: int = field(default=0)


class SharedPlanStore:
    """Thread-safe skeleton store shared by every session of a service.

    Parameters
    ----------
    persist_dir:
        Optional directory for the write-through disk tier.  Created on
        first use; existing entries are verified and loaded eagerly so a
        restarted service replans nothing it already planned.
    max_entries:
        Bound on the in-memory map (FIFO eviction of the oldest entry;
        evicted entries also leave the disk tier).  ``None`` = unbounded.
    """

    def __init__(
        self,
        persist_dir: "str | Path | None" = None,
        max_entries: int | None = None,
    ):
        if max_entries is not None and max_entries < 1:
            raise ValueError("max_entries must be positive")  # lint: config-error
        self._lock = threading.Lock()
        self._entries: dict[str, _Entry] = {}
        self._max_entries = max_entries
        self._dir = Path(persist_dir) if persist_dir is not None else None
        self.stats = SharedStoreStats()
        if self._dir is not None:
            self._dir.mkdir(parents=True, exist_ok=True)
            self._load_all()

    # ------------------------------------------------------------------
    # Store protocol consumed by Session._lookup
    # ------------------------------------------------------------------

    def get(self, key: object) -> "dict | None":
        """The skeleton stored under *key*, or ``None`` on a miss.

        Verifies the entry's fingerprint on every hit; a corrupt entry is
        evicted from both tiers and raised as
        :class:`~repro.errors.CacheCorruptionError` so the caller replans
        instead of executing a damaged plan.
        """
        digest = _digest(key)
        with self._lock:
            entry = self._entries.get(digest)
            if entry is None:
                self.stats.misses += 1
                return None
            if not self._verify(entry.skeleton):
                self._evict_locked(digest)
                self.stats.corruptions += 1
                raise CacheCorruptionError(
                    "shared plan store entry failed its integrity check",
                    site="cache_rebind",
                    key=entry.key_repr,
                )
            entry.hits += 1
            self.stats.hits += 1
            return entry.skeleton

    def put(self, key: object, skeleton: dict) -> None:
        """Store *skeleton* under *key* (write-through to disk if enabled)."""
        digest = _digest(key)
        with self._lock:
            if self._max_entries is not None:
                while (
                    digest not in self._entries
                    and len(self._entries) >= self._max_entries
                ):
                    oldest = next(iter(self._entries))
                    self._evict_locked(oldest)
                    self.stats.evictions += 1
            self._entries[digest] = _Entry(key_repr=repr(key), skeleton=skeleton)
            self.stats.puts += 1
            self._save(digest, key, skeleton)

    def evict(self, key: object) -> None:
        """Drop *key* from both tiers (idempotent)."""
        with self._lock:
            if self._evict_locked(_digest(key)):
                self.stats.evictions += 1

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: object) -> bool:
        with self._lock:
            return _digest(key) in self._entries

    def keys(self) -> list[str]:
        """Reprs of every stored key (diagnostic)."""
        with self._lock:
            return [e.key_repr for e in self._entries.values()]

    @property
    def persist_dir(self) -> "Path | None":
        return self._dir

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    @staticmethod
    def _verify(skeleton: dict) -> bool:
        try:
            if skeleton.get("version") != SKELETON_VERSION:
                return False
            return skeleton_fingerprint(skeleton) == skeleton["fingerprint"]
        except Exception:
            return False

    def _path(self, digest: str) -> Path:
        return self._dir / f"{digest}.json"

    def _evict_locked(self, digest: str) -> bool:
        entry = self._entries.pop(digest, None)
        if self._dir is not None:
            try:
                self._path(digest).unlink(missing_ok=True)
            except OSError:
                pass
        return entry is not None

    def _save(self, digest: str, key: object, skeleton: dict) -> None:
        if self._dir is None:
            return
        payload = {"key_repr": repr(key), "skeleton": skeleton}
        try:
            # Crash-safe write (tmp + fsync + rename + directory fsync),
            # same discipline as checkpoints and the job journal: a
            # power loss mid-save must never leave a torn entry that a
            # restarted service would reject and evict.
            atomic_write_bytes(
                self._path(digest),
                json.dumps(payload, sort_keys=True).encode(),
            )
            self.stats.saved += 1
        except OSError:
            # Persistence is an accelerator, not a dependency: a full or
            # read-only disk degrades to memory-only operation.
            self.stats.save_errors += 1

    def _load_all(self) -> None:
        for path in sorted(self._dir.glob("*.json")):
            try:
                payload = json.loads(path.read_text())
                skeleton = payload["skeleton"]
                key_repr = payload["key_repr"]
                if not self._verify(skeleton):
                    raise CacheCorruptionError(
                        "persisted entry failed verification", site="cache_rebind"
                    )
            except (OSError, ValueError, KeyError, TypeError, CacheCorruptionError):
                self.stats.load_rejected += 1
                try:
                    path.unlink(missing_ok=True)
                except OSError:
                    pass
                continue
            self._entries[path.stem] = _Entry(key_repr=key_repr, skeleton=skeleton)
            self.stats.loaded += 1
