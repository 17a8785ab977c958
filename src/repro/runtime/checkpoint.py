"""Stage-boundary checkpointing for the shard executors.

A long offloaded/parallel run is a sequence of stages, and the DRAM state
between two stages is a complete, self-describing snapshot: the amplitude
array in the *physical* qubit layout that the just-completed stage left
behind.  This module persists exactly that — after stage ``k`` completes,
the executor writes a **checkpoint** holding the state bytes, the layout,
and the plan's structural fingerprint; a later ``resume_from=`` run
validates the fingerprint, restores the state + layout, skips stages
``0..k`` and continues bit-exact with an uninterrupted run (the stage
``k+1`` permute sees precisely the layout it would have seen live).

File format (version :data:`CHECKPOINT_VERSION`)::

    <header JSON, one line>\\n<raw state bytes>

The header carries ``version``, ``plan_fingerprint``, ``num_qubits``,
``stage_index`` (the last *completed* stage), ``layout`` (physical qubit
per logical index), ``dtype``/``shape``, and ``check`` — a blake2b digest
over the canonical header-sans-check JSON plus the state bytes.  Every
write goes through :func:`atomic_write_bytes` (tmp + flush + fsync +
rename + directory fsync), so a crash mid-write can never leave a torn
file that parses; a tampered file fails its digest and is **evicted,
never trusted** (:class:`repro.errors.CacheCorruptionError`).

:func:`find_checkpoint` implements the resume policy: given a directory it
returns the newest valid checkpoint matching the plan fingerprint and tag
(corrupt or stale files are skipped and deleted); given an explicit file
it loads strictly, raising on corruption or fingerprint mismatch.

The durable-write helpers (:func:`fsync_file`, :func:`fsync_directory`,
:func:`atomic_write_bytes`) are shared with the service's journal and
plan-store persistence — one fsync discipline across every durable
artifact in the tree.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, replace
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from ..errors import CacheCorruptionError, PlanValidationError
from . import faults

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (runtime ← session)
    from ..core.plan import ExecutionPlan

__all__ = [
    "CHECKPOINT_VERSION",
    "Checkpoint",
    "CheckpointConfig",
    "atomic_write_bytes",
    "checkpoint_fingerprint",
    "find_checkpoint",
    "fsync_directory",
    "fsync_file",
    "load_checkpoint",
    "write_checkpoint",
]

#: On-disk format version; bumping it invalidates every older checkpoint.
CHECKPOINT_VERSION = 1

_SUFFIX = ".ckpt"


# ---------------------------------------------------------------------------
# Durable-write helpers (shared with journal + plan-store persistence)
# ---------------------------------------------------------------------------


def fsync_file(handle) -> None:
    """Flush and fsync an open file object to stable storage."""
    handle.flush()
    os.fsync(handle.fileno())


def fsync_directory(path: Path) -> None:
    """fsync a directory so a just-renamed entry survives power loss.

    Best-effort: some filesystems (and all of Windows) refuse directory
    fds; the rename itself is still atomic there, we just lose the
    durability of the directory entry — never correctness.
    """
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform-dependent
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - platform-dependent
        pass
    finally:
        os.close(fd)


def atomic_write_bytes(path: Path, payload: bytes) -> None:
    """Durably write *payload* to *path*: tmp + fsync + rename + dir fsync.

    Readers either see the old content or the complete new content, never
    a torn mix — and once this returns, the new content survives power
    loss (the tmp file is fsynced before the rename, the directory entry
    after).  The tmp file is cleaned up on any failure.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as handle:
            handle.write(payload)
            fsync_file(handle)
        tmp.replace(path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    fsync_directory(path.parent)


# ---------------------------------------------------------------------------
# Configuration + snapshot value
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CheckpointConfig:
    """Where and how often an executor snapshots stage boundaries.

    Attributes
    ----------
    directory:
        Directory the checkpoint files live in (created on first write).
    every:
        Snapshot after every ``every``-th completed stage (1 = all).  The
        final stage is never snapshotted — the run's result supersedes it.
    keep:
        How many most-recent checkpoints to retain per tag; older ones are
        pruned after each successful write.
    tag:
        Filename prefix isolating concurrent runs sharing a directory
        (the service uses ``job<id>``).
    """

    directory: Path
    every: int = 1
    keep: int = 2
    tag: str = "run"

    def __post_init__(self):
        object.__setattr__(self, "directory", Path(self.directory))
        if self.every < 1:
            raise ValueError("checkpoint interval 'every' must be >= 1")  # lint: config-error
        if self.keep < 1:
            raise ValueError("checkpoint 'keep' must be >= 1")  # lint: config-error
        if not self.tag or "/" in self.tag or self.tag != self.tag.strip():
            raise ValueError(f"bad checkpoint tag {self.tag!r}")  # lint: config-error

    @classmethod
    def coerce(cls, value) -> "CheckpointConfig":
        """``str``/``Path`` → config with defaults; configs pass through."""
        if isinstance(value, cls):
            return value
        if isinstance(value, (str, Path)):
            return cls(directory=Path(value))
        raise TypeError(  # lint: config-error
            f"checkpoint must be a CheckpointConfig or a directory path, "
            f"got {type(value).__name__}"
        )

    @classmethod
    def for_item(cls, value, index: int, count: int) -> "CheckpointConfig | None":
        """The config item *index* of a *count*-item batch checkpoints under.

        *value* is a caller's ``checkpoint=`` argument (``None`` stays
        ``None``).  Once the batch has more than one item, each item gets
        its own derived tag ``<tag>-i<index>``: items sharing a directory
        must never overwrite each other's snapshots, and each resumes from
        its own latest boundary.
        """
        if value is None:
            return None
        config = cls.coerce(value)
        if count > 1:
            config = replace(config, tag=f"{config.tag}-i{index}")
        return config

    def path_for(self, stage_index: int) -> Path:
        return self.directory / f"{self.tag}-stage{stage_index:04d}{_SUFFIX}"


@dataclass(frozen=True)
class Checkpoint:
    """One loaded stage-boundary snapshot.

    ``stage_index`` is the last **completed** stage; ``layout`` maps each
    logical qubit (list index) to its physical position in ``state``, i.e.
    the layout stage ``stage_index`` finished in.
    """

    version: int
    plan_fingerprint: str
    num_qubits: int
    stage_index: int
    layout: tuple[int, ...]
    state: np.ndarray
    path: Path

    def layout_mapping(self) -> dict[int, int]:
        """The layout as the ``{logical: physical}`` dict the runtime uses."""
        return {logical: physical for logical, physical in enumerate(self.layout)}


def checkpoint_fingerprint(plan: "ExecutionPlan") -> str:
    """The fingerprint a checkpoint is validated against.

    Deliberately *stricter* than the plan cache's structural
    :func:`~repro.session.cache.plan_fingerprint` (imported lazily — the
    session package imports this runtime package): the structural
    fingerprint ignores rotation angles so a parameter sweep shares one
    cache entry, but resuming a sweep sibling's state would silently
    compute garbage.  Checkpoints therefore also hash every gate's
    parameters — a resume is valid only for the bit-identical computation.
    """
    from ..session.cache import plan_fingerprint

    h = hashlib.blake2b(plan_fingerprint(plan).encode(), digest_size=16)
    for gate in plan.all_gates():
        h.update(b"|")
        h.update(gate.name.encode())
        h.update(np.asarray(gate.qubits, dtype=np.int32).tobytes())
        if gate.params:
            h.update(np.asarray(gate.params, dtype=np.float64).tobytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Write / load / find
# ---------------------------------------------------------------------------


def _digest(header: dict, state_bytes: bytes) -> str:
    """blake2b over the canonical header-sans-check JSON + state bytes."""
    core = {k: v for k, v in header.items() if k != "check"}
    h = hashlib.blake2b(digest_size=16)
    h.update(json.dumps(core, sort_keys=True, separators=(",", ":")).encode())
    h.update(state_bytes)
    return h.hexdigest()


def write_checkpoint(
    config: CheckpointConfig,
    *,
    fingerprint: str,
    num_qubits: int,
    stage_index: int,
    layout: dict[int, int],
    state: np.ndarray,
) -> Path:
    """Durably snapshot *state* as the boundary after *stage_index*.

    Returns the checkpoint path.  Prunes same-tag checkpoints beyond
    ``config.keep`` afterwards (best-effort).  Raises ``ShardIOError`` /
    ``OSError`` on failure — callers treat checkpointing as advisory and
    must not fail the run over it.
    """
    faults.check("checkpoint_write", shard=stage_index)
    config.directory.mkdir(parents=True, exist_ok=True)
    state = np.ascontiguousarray(state)
    state_bytes = state.tobytes()
    header = {
        "version": CHECKPOINT_VERSION,
        "plan_fingerprint": fingerprint,
        "num_qubits": int(num_qubits),
        "stage_index": int(stage_index),
        "layout": [int(layout[q]) for q in range(num_qubits)],
        "dtype": str(state.dtype),
        "shape": list(state.shape),
    }
    header["check"] = _digest(header, state_bytes)
    path = config.path_for(stage_index)
    atomic_write_bytes(
        path,
        json.dumps(header, sort_keys=True, separators=(",", ":")).encode() + b"\n"
        + state_bytes,
    )
    _prune(config)
    return path


def _prune(config: CheckpointConfig) -> None:
    """Drop all but the ``keep`` highest-stage checkpoints for the tag."""
    try:
        files = sorted(config.directory.glob(f"{config.tag}-stage*{_SUFFIX}"))
    except OSError:  # pragma: no cover - directory vanished underneath us
        return
    for stale in files[: -config.keep] if len(files) > config.keep else []:
        stale.unlink(missing_ok=True)


def load_checkpoint(path: Path) -> Checkpoint:
    """Read and verify one checkpoint file.

    Raises :class:`CacheCorruptionError` on any structural or digest
    failure — a bad checkpoint is indistinguishable from a tampered one
    and is never trusted.
    """
    path = Path(path)
    faults.check("checkpoint_load")
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise CacheCorruptionError(
            f"checkpoint {path.name} unreadable: {exc}", site="checkpoint_load"
        ) from exc
    newline = raw.find(b"\n")
    if newline < 0:
        raise CacheCorruptionError(
            f"checkpoint {path.name} has no header", site="checkpoint_load"
        )
    try:
        header = json.loads(raw[:newline])
    except ValueError as exc:
        raise CacheCorruptionError(
            f"checkpoint {path.name} header is not JSON", site="checkpoint_load"
        ) from exc
    state_bytes = raw[newline + 1 :]
    required = {
        "version", "plan_fingerprint", "num_qubits", "stage_index",
        "layout", "dtype", "shape", "check",
    }
    if not isinstance(header, dict) or not required.issubset(header):
        raise CacheCorruptionError(
            f"checkpoint {path.name} header is missing fields",
            site="checkpoint_load",
        )
    if header["version"] != CHECKPOINT_VERSION:
        raise CacheCorruptionError(
            f"checkpoint {path.name} has version {header['version']}, "
            f"expected {CHECKPOINT_VERSION}",
            site="checkpoint_load",
        )
    if header["check"] != _digest(header, state_bytes):
        raise CacheCorruptionError(
            f"checkpoint {path.name} failed its integrity digest",
            site="checkpoint_load",
        )
    try:
        state = np.frombuffer(state_bytes, dtype=np.dtype(header["dtype"]))
        state = state.reshape(header["shape"]).copy()
    except (TypeError, ValueError) as exc:
        raise CacheCorruptionError(
            f"checkpoint {path.name} state does not match its header: {exc}",
            site="checkpoint_load",
        ) from exc
    layout = tuple(int(q) for q in header["layout"])
    if sorted(layout) != list(range(header["num_qubits"])):
        raise CacheCorruptionError(
            f"checkpoint {path.name} layout is not a permutation",
            site="checkpoint_load",
        )
    return Checkpoint(
        version=header["version"],
        plan_fingerprint=header["plan_fingerprint"],
        num_qubits=int(header["num_qubits"]),
        stage_index=int(header["stage_index"]),
        layout=layout,
        state=state,
        path=path,
    )


def find_checkpoint(
    source,
    *,
    fingerprint: str,
    tag: str = "run",
    evict: bool = True,
) -> Checkpoint | None:
    """Resolve a ``resume_from=`` value into a validated checkpoint.

    * An explicit **file** path loads strictly: corruption raises
      :class:`CacheCorruptionError`, a fingerprint mismatch raises
      :class:`PlanValidationError` — resuming a different plan's state
      would silently compute garbage.
    * A **directory** returns the newest (highest completed stage) valid
      checkpoint matching *fingerprint* and *tag*; corrupt or mismatched
      files are skipped (and deleted when *evict*), and ``None`` means
      "nothing usable — start from scratch".
    """
    source = Path(source)
    if source.is_file():
        ck = load_checkpoint(source)
        if ck.plan_fingerprint != fingerprint:
            raise PlanValidationError(
                f"checkpoint {source.name} belongs to a different plan "
                f"(fingerprint {ck.plan_fingerprint} != {fingerprint})",
                site="checkpoint_load",
            )
        return ck
    if not source.is_dir():
        return None
    best: Checkpoint | None = None
    for path in sorted(source.glob(f"{tag}-stage*{_SUFFIX}")):
        try:
            ck = load_checkpoint(path)
        except CacheCorruptionError:
            if evict:
                path.unlink(missing_ok=True)
            continue
        if ck.plan_fingerprint != fingerprint:
            continue
        if best is None or ck.stage_index > best.stage_index:
            best = ck
    return best
