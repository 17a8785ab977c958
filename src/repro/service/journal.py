"""Write-ahead job journal: the service's crash-recovery substrate.

Every job a :class:`~repro.service.SimulationService` accepts is recorded
*before* it is queued, and every state transition afterwards — an
append-only JSONL file where each line is one checksummed record::

    {"v": 1, "seq": 12, "type": "running", "job": 7, ..., "check": "…"}

``check`` is a blake2b digest over the record's canonical JSON (sorted
keys, no whitespace, ``check`` excluded), so any tampered or torn line is
detected on replay.  Appends are flushed (and fsynced by default) before
the mutation they describe proceeds — hence *write-ahead*: after a crash
the journal is a superset of what actually happened, never a subset.

Record types
------------
``submitted``
    Admission succeeded.  Carries the tenant, priority/weight/cost, the
    circuits serialized as OpenQASM, and the run kwargs.  ``durable`` is
    false when the payload cannot be re-materialised from text (a circuit
    that fails QASM round-tripping, non-JSON run kwargs) — such jobs are
    journalled for accounting but *abandoned* on recovery.
``running`` / ``completed`` / ``failed`` / ``cancelled``
    State transitions, keyed by job id.
``recovered`` / ``abandoned``
    Written by a restarted service for every orphan it re-admits or gives
    up on, so a second crash replays correctly.

Replay (:func:`replay_journal`) tolerates a **torn tail** — a crash mid
append leaves at most one partial final line, which is counted and
skipped — but treats a bad record *before* the tail as corruption:
counted, skipped, and (with ``strict=True``) raised as
:class:`~repro.errors.IntegrityError`.  A corrupt record is never
trusted: its job simply keeps its last intact state.

Fault injection: appends pass through the ``journal_append`` site and are
retried under a bounded policy; when the budget is exhausted the journal
**degrades to non-durable** (counted in ``append_errors``, ``degraded``
flips) rather than failing submissions — unless ``strict=True``, where
the typed error propagates.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from dataclasses import dataclass, field
from pathlib import Path

from ..errors import IntegrityError, ReproError, RetryPolicy
from ..runtime import faults
from ..runtime.checkpoint import fsync_directory, fsync_file

__all__ = ["JOURNAL_VERSION", "JobJournal", "JournalReplay", "replay_journal"]

#: On-disk record version; replay rejects records from other versions.
JOURNAL_VERSION = 1

_FILENAME = "journal.jsonl"

#: Journal appends retry transient injected/OS failures under this bounded
#: policy before degrading (kept tiny: an append blocks a submission).
_APPEND_RETRY = RetryPolicy(max_attempts=3, base_delay=0.001, max_delay=0.01)


#: The canonical encoding: sorted keys, no whitespace (``json.dumps`` with
#: these options, without building an encoder per call).
_ENCODE = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def _digest(canonical: str) -> str:
    return hashlib.blake2b(canonical.encode(), digest_size=16).hexdigest()


def _checked(record: dict) -> dict:
    """Return *record* with its ``check`` digest filled in."""
    core = {k: v for k, v in record.items() if k != "check"}
    return {**core, "check": _digest(_ENCODE(core))}


def _join(before: str, after: str) -> str:
    """Two canonical objects, every key of *before* sorting below every key
    of *after*, as the canonical encoding of their union."""
    if before == "{}":
        return after
    if after == "{}":
        return before
    return before[:-1] + "," + after[1:]


def _line(record: dict) -> bytes:
    """*record*'s journal line — ``_checked(record)`` in the canonical
    encoding — with each value encoded once: the keys below ``check`` (the
    journal's own sort after it) and the keys above it are encoded apart,
    the digest is taken over the two joined (the canonical record), and the
    line is the two with ``"check":…`` between them (its sorted place)."""
    below = {k: v for k, v in record.items() if k < "check"}
    above = {k: v for k, v in record.items() if k > "check"} if below else record
    below, above = _ENCODE(below), _ENCODE(above)
    check = '{"check":"%s"}' % _digest(_join(below, above))
    return _join(_join(below, check), above).encode() + b"\n"


def _verify(record: dict) -> bool:
    return (
        isinstance(record, dict)
        and isinstance(record.get("check"), str)
        and _checked(record)["check"] == record["check"]
    )


@dataclass
class JournalReplay:
    """The outcome of replaying one journal file."""

    #: Last intact record per job id (the job's terminal journal state),
    #: merged over the job's ``submitted`` payload.
    jobs: dict[int, dict] = field(default_factory=dict)
    records_read: int = 0
    #: Partial/garbled final line (a crash mid-append); tolerated.
    torn_records: int = 0
    #: Bad records *before* the tail — tampering or bit rot; skipped.
    corrupt_records: int = 0
    last_seq: int = -1
    last_job_id: int = -1

    def orphans(self) -> list[dict]:
        """Jobs the crashed process accepted but never finished.

        Sorted by job id (admission order).  Includes both queued
        (``submitted``) and in-flight (``running``) jobs; the caller
        decides re-admission vs abandonment via each record's
        ``durable`` flag.
        """
        return [
            payload
            for _jid, payload in sorted(self.jobs.items())
            if payload.get("type") in ("submitted", "running", "recovered")
        ]


class _Batch:
    """:meth:`JobJournal.batch`'s block: it holds the journal's lock, and
    its appends wait in ``pending`` until it ends (a block inside another
    joins the outer one's)."""

    __slots__ = ("journal", "outer")

    def __init__(self, journal: "JobJournal") -> None:
        self.journal = journal
        self.outer = False

    def __enter__(self) -> "JobJournal":
        journal = self.journal
        journal._lock.acquire()
        self.outer = journal._pending is None
        if self.outer:
            journal._pending = []
        return journal

    def __exit__(self, *exc) -> None:
        journal = self.journal
        try:
            if self.outer:
                lines, journal._pending = journal._pending, None
                if lines:
                    journal._attempt(lines, site=False, write=True)
        finally:
            journal._lock.release()


def replay_journal(path: Path, strict: bool = False) -> JournalReplay:
    """Replay the journal at *path* (missing file → empty replay)."""
    replay = JournalReplay()
    path = Path(path)
    if not path.exists():
        return replay
    lines = path.read_bytes().split(b"\n")
    # A trailing newline leaves one empty chunk; drop it so the torn-tail
    # rule sees the real last record.
    if lines and not lines[-1]:
        lines.pop()
    for i, line in enumerate(lines):
        bad = None
        try:
            record = json.loads(line)
        except ValueError:
            bad = "not JSON"
            record = None
        if record is not None and (
            not _verify(record) or record.get("v") != JOURNAL_VERSION
        ):
            bad = "failed its integrity digest"
        if bad is not None:
            if i == len(lines) - 1:
                replay.torn_records += 1
                continue
            replay.corrupt_records += 1
            if strict:
                raise IntegrityError(
                    f"journal record {i} {bad}: {line[:80]!r}",
                    site="journal_append",
                    record=i,
                )
            continue
        replay.records_read += 1
        replay.last_seq = max(replay.last_seq, int(record.get("seq", -1)))
        jid = record.get("job")
        if not isinstance(jid, int):
            continue
        replay.last_job_id = max(replay.last_job_id, jid)
        previous = replay.jobs.get(jid, {})
        # Later records override the state but keep the submitted
        # payload's fields (circuits, kwargs, tenant, durable).
        replay.jobs[jid] = {**previous, **record}
    return replay


class JobJournal:
    """Append-only, checksummed, fsynced job journal for one service.

    Thread-safe: submissions and the scheduler thread append concurrently.
    ``fsync=False`` trades durability of the last few records for append
    latency (the tests use it; production keeps the default).  Records
    appended inside :meth:`batch` — a dispatch's ``running`` records, then
    its outcomes — reach the file in one write and one flush (one fsync).
    """

    def __init__(
        self,
        directory: "str | Path",
        *,
        fsync: bool = True,
        strict: bool = False,
    ):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.path = self.directory / _FILENAME
        self.fsync = fsync
        self.strict = strict
        self._lock = threading.RLock()
        self._handle = None
        #: Lines appended inside :meth:`batch`, not yet written.
        self._pending: list[bytes] | None = None
        #: Append accounting (surfaced in service stats).
        self.appends = 0
        self.append_errors = 0
        #: Set once appends exhausted their retry budget and the journal
        #: stopped persisting (non-strict mode only).
        self.degraded = False
        self._seq = 0

    @property
    def checkpoint_dir(self) -> Path:
        """Where this journal's jobs write their stage checkpoints."""
        return self.directory / "checkpoints"

    def replay(self) -> JournalReplay:
        """Replay the existing file and continue its sequence numbering."""
        replay = replay_journal(self.path, strict=self.strict)
        self._seq = replay.last_seq + 1
        return replay

    # ------------------------------------------------------------------
    # Appending
    # ------------------------------------------------------------------

    def _ensure_handle(self):
        if self._handle is None:
            self._handle = open(self.path, "ab")
        return self._handle

    def append(self, type: str, job: int, **fields) -> bool:
        """Durably append one record; True when it reached the journal (or,
        inside :meth:`batch`, the batch).

        Never raises in non-strict mode: a failed append (after bounded
        retries) degrades the journal to non-durable and returns False —
        losing crash recoverability must not fail live submissions.
        """
        with self._lock:
            if self.degraded:
                self.append_errors += 1
                return False
            line = _line(
                {"v": JOURNAL_VERSION, "seq": self._seq, "type": type, "job": job, **fields}
            )
            pending = self._pending
            if not self._attempt([line], site=True, write=pending is None):
                return False
            if pending is not None:
                pending.append(line)
            self._seq += 1
            return True

    def batch(self) -> "_Batch":
        """A block whose appends — made on this thread, which holds the
        journal until the block ends — reach the file with one write and
        one flush (one fsync with ``fsync=True``).  Each line, its ``seq``
        and the ``journal_append`` fault site are what :meth:`append` gives
        it alone; a record that fails lands none after it, and the records
        before it are written when the block ends."""
        return _Batch(self)

    def _write(self, lines: list[bytes]) -> None:
        handle = self._ensure_handle()
        handle.write(b"".join(lines))
        if self.fsync:
            fsync_file(handle)
        else:
            handle.flush()
        self.appends += len(lines)

    def _attempt(self, lines: list[bytes], site: bool, write: bool) -> bool:
        """Pass the ``journal_append`` fault site (*site*) and write *lines*
        (*write*) under the append retry policy: True once that succeeds.
        A permanent typed failure or an exhausted budget counts *lines* in
        ``append_errors`` and raises in strict mode, else degrades the
        journal and returns False."""
        attempt = 1
        while True:
            try:
                if site:
                    faults.check("journal_append")
                if write:
                    self._write(lines)
                return True
            except (ReproError, OSError) as exc:
                # A permanent typed failure (e.g. an injected
                # IntegrityError): no retry can help.
                permanent = isinstance(exc, ReproError) and not exc.transient
                if permanent or attempt >= _APPEND_RETRY.max_attempts:
                    self.append_errors += len(lines)
                    if self.strict:
                        raise
                    self.degraded = True
                    return False
                _APPEND_RETRY.sleep(attempt)
                attempt += 1

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                try:
                    self._handle.flush()
                    if self.fsync:
                        os.fsync(self._handle.fileno())
                        fsync_directory(self.directory)
                except OSError:  # pragma: no cover - close is best-effort
                    pass
                self._handle.close()
                self._handle = None

    def stats(self) -> dict:
        with self._lock:
            return {
                "path": str(self.path),
                "appends": self.appends,
                "append_errors": self.append_errors,
                "degraded": self.degraded,
            }
