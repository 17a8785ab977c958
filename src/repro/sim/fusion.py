"""Kernel fusion: build the fused unitary of a group of gates.

A *fusion kernel* (Section VI-B of the paper) executes a group of gates as
a single matrix: the product of all gate matrices embedded into the space
of the kernel's qubit set.

The fused matrix is built by applying each gate to the columns of a
``2^m × 2^m`` identity, viewed as a state on ``2m`` qubits whose high bits
are the matrix rows.  Each gate therefore costs ``O(2^m · 4^k)`` through
the specialized kernels of :mod:`repro.sim.apply` instead of the
``O(8^m)`` dense matmul per gate (``expand_matrix`` + ``@``) the seed
implementation paid, and the two work buffers are the only allocations.

:func:`fused_unitary_cached` memoizes the result keyed by the gate tuple
(kernel identity), so a kernel that is applied repeatedly — every stage of
every shard in the offload executor — pays for fusion once.  The memo is
an explicit bounded LRU (:class:`FusionCache`, replacing an opaque
``functools.lru_cache`` of the same default bound): long-running sweep
services can now watch its hit/miss/eviction counters (surfaced through
:class:`repro.session.SessionStats`) and resize or flush it at runtime
(:func:`configure_fusion_cache`).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from functools import lru_cache
from typing import Any, Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from ..circuits.gates import Gate
from .apply import (
    MONOMIAL_WIDTH,
    analyze_matrix,
    apply_gate_buffered,
    apply_monomial,
    tracked_empty,
)

__all__ = [
    "FusionCache",
    "LoweredItem",
    "fused_unitary",
    "fused_unitary_cached",
    "fusion_cache_stats",
    "configure_fusion_cache",
    "kernel_qubits",
    "lower_kernel_gates",
    "apply_lowered_items",
    "apply_gate_sequence",
]


def kernel_qubits(gates: Iterable[Gate]) -> tuple[int, ...]:
    """The sorted union of qubits touched by *gates*."""
    qubits: set[int] = set()
    for gate in gates:
        qubits.update(gate.qubits)
    return tuple(sorted(qubits))


def fused_unitary(
    gates: Sequence[Gate], qubits: Sequence[int] | None = None
) -> tuple[np.ndarray, tuple[int, ...]]:
    """Compute the fused unitary of *gates* over their combined qubit set.

    Parameters
    ----------
    gates:
        Gate sequence, applied left-to-right (``gates[0]`` first).
    qubits:
        Optional explicit qubit ordering for the fused matrix; defaults to
        the sorted union of the gates' qubits.

    Returns
    -------
    (matrix, qubits):
        The little-endian fused unitary and the qubit tuple it acts on.
    """
    if qubits is None:
        qubits = kernel_qubits(gates)
    qubits = tuple(qubits)
    m = len(qubits)
    dim = 1 << m
    # Flat view of the identity as a state on 2m qubits: flat index bit j
    # (j < m) is matrix-column bit j, bit m+j is matrix-row bit j.  A gate
    # left-multiplying the fused matrix acts on the row bits.
    buf = np.eye(dim, dtype=np.complex128).reshape(-1)
    scratch = tracked_empty(dim * dim)
    pos = {q: i for i, q in enumerate(qubits)}
    for gate in gates:
        row_qubits = [m + pos[q] for q in gate.qubits]
        buf, scratch = apply_gate_buffered(buf, scratch, gate.matrix(), row_qubits)
    return buf.reshape(dim, dim), qubits


class FusionCache:
    """Bounded, thread-safe LRU cache for per-kernel lowerings — fused
    kernel unitaries, and (a second instance) shared-memory kernels'
    lowered items.

    The ``functools.lru_cache`` it replaces was bounded too, but opaque:
    this cache counts hits, misses and evictions so services can watch
    steady-state behaviour (:func:`fusion_cache_stats` /
    :class:`repro.session.SessionStats`), and its bound is adjustable at
    runtime (:func:`configure_fusion_cache`) — a sweep service whose
    working set outgrows the default no longer silently thrashes.  A lock
    guards the bookkeeping: the parallel shard runtime's workers share
    this cache.  Fusion itself runs outside the lock — two threads racing
    on the same key at worst both build the matrix and one result wins.
    """

    def __init__(self, maxsize: int = 1024):
        if maxsize < 1:
            raise ValueError("maxsize must be at least 1")  # lint: config-error
        self.maxsize = maxsize
        self._entries: OrderedDict[tuple, Any] = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, key: tuple) -> Any:
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return entry

    def store(self, key: tuple, value: Any) -> None:
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
            self._entries[key] = value
            # A while-loop, not a single pop: after configure_fusion_cache
            # shrinks maxsize, the cache must actually drain below its old
            # high-water mark as new kernels arrive.
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
                self.evictions += 1

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def stats(self) -> dict:
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "size": len(self._entries),
                "maxsize": self.maxsize,
            }


_FUSION_CACHE = FusionCache(maxsize=1024)


def fusion_cache_stats() -> dict:
    """Counters of the process-wide fused-unitary cache (hits, misses,
    evictions, size, maxsize)."""
    return _FUSION_CACHE.stats()


def configure_fusion_cache(maxsize: int | None = None, clear: bool = False) -> None:
    """Resize (``maxsize``) and/or ``clear`` the process-wide fusion cache.

    Shrinking takes effect lazily: existing entries beyond the new bound
    are evicted as new kernels arrive.
    """
    if maxsize is not None:
        if maxsize < 1:
            raise ValueError("maxsize must be at least 1")  # lint: config-error
        _FUSION_CACHE.maxsize = maxsize
    if clear:
        _FUSION_CACHE.clear()


def fused_unitary_cached(
    gates: Sequence[Gate], qubits: Sequence[int] | None = None
) -> tuple[np.ndarray, tuple[int, ...]]:
    """Memoized :func:`fused_unitary` keyed by kernel identity.

    The returned matrix is a shared read-only instance; because the object
    is stable across calls, the dispatch analysis in :mod:`repro.sim.apply`
    is also computed only once per kernel.  Backed by the bounded
    :class:`FusionCache` (see :func:`configure_fusion_cache`).
    """
    key = (tuple(gates), None if qubits is None else tuple(qubits))
    hit = _FUSION_CACHE.lookup(key)
    if hit is not None:
        return hit
    matrix, out_qubits = fused_unitary(gates, qubits)
    matrix.setflags(write=False)
    value = (matrix, out_qubits)
    _FUSION_CACHE.store(key, value)
    return value


# ---------------------------------------------------------------------------
# Shared-memory kernels: one op per monomial run
# ---------------------------------------------------------------------------


class LoweredItem(NamedTuple):
    """One step of a lowered shared-memory kernel (:func:`lower_kernel_gates`).

    A *monomial block* (``matrix is None``) is a run of diagonal and
    permutation gates folded into one phased permutation over ``qubits``:
    the amplitude at block index ``c`` (bit ``j`` of ``c`` is
    ``qubits[j]``) moves to index ``perm[c]`` scaled by ``phases[c]``;
    ``perm`` is ``None`` when the run composes to the identity permutation
    (a diagonal block — ``cx·rz·cx`` is one).  A *dense* item
    (``matrix is not None``) is a single gate carried with its matrix.
    ``gates`` are the gates the item absorbed, in circuit order.
    """

    qubits: tuple[int, ...]
    gates: tuple[Gate, ...]
    perm: np.ndarray | None = None
    phases: np.ndarray | None = None
    matrix: np.ndarray | None = None


def _compose_monomial(
    qubits: tuple[int, ...], perm: np.ndarray, phases: np.ndarray, gate: Gate, info
) -> tuple[tuple[int, ...], np.ndarray, np.ndarray]:
    """The block ``(qubits, perm, phases)`` followed by monomial *gate* —
    ``O(2^k)`` vector work, no matrix is ever built."""
    for q in gate.qubits:
        if q not in qubits:
            # A new qubit becomes the block's top index bit; so far the
            # block is the identity along it.
            perm = np.concatenate((perm, perm + len(perm)))
            phases = np.concatenate((phases, phases))
            qubits = qubits + (q,)
    pos = tuple(qubits.index(q) for q in gate.qubits)
    # The gate acts on the block's *output* index: read its sub-index there.
    sub = (perm >> pos[0]) & 1
    for j in range(1, len(pos)):
        sub |= ((perm >> pos[j]) & 1) << j
    if info.kind == "diagonal":
        return qubits, perm, phases * info.diagonal[sub]
    return qubits, perm ^ _flip_table(info.perm, pos)[sub], phases * info.phases[sub]


@lru_cache(maxsize=4096)
def _flip_table(gate_perm: tuple[int, ...], pos: tuple[int, ...]) -> np.ndarray:
    """Per sub-index of a permutation gate, the block-index bits it flips
    when its index bit ``j`` sits at block position ``pos[j]``."""
    return np.array([
        sum((((s ^ t) >> j) & 1) << p for j, p in enumerate(pos))
        for s, t in enumerate(gate_perm)
    ])


_NO_QUBITS: tuple[int, ...] = ()
_UNIT_PERM = np.zeros(1, dtype=np.int64)
_UNIT_PHASES = np.ones(1, dtype=np.complex128)
_UNIT_PERM.setflags(write=False)
_UNIT_PHASES.setflags(write=False)


#: Smaller than the fusion cache: an entry holds up to 24 KiB of block
#: vectors per 10-qubit block, and in a parameter sweep the angle-carrying
#: kernels never hit — the cache serves the consumers of one job (compiler,
#: verifier, both shard executors) and angle-free kernels across rebinds.
_LOWERING_CACHE = FusionCache(maxsize=256)


def lower_kernel_gates(gates: Sequence[Gate]) -> tuple[LoweredItem, ...]:
    """Lower a shared-memory kernel's gate list to :class:`LoweredItem` s.

    Every maximal run of *monomial* gates — matrices with one non-zero per
    row and column, :func:`repro.sim.apply.analyze_matrix` kind
    ``diagonal`` or ``permutation`` (rz, p, cp, cz, rzz, s, t, x, y, cx,
    swap, ccx, …), a class closed under multiplication — folds into one
    block, so executing the kernel sweeps the state once per *run* instead
    of once per gate.  A dense gate (h, rx, ry, u3, …) on qubits disjoint
    from the open block is emitted ahead of it (they commute); one that
    overlaps closes it.  A block spans at most
    :data:`~repro.sim.apply.MONOMIAL_WIDTH` qubits — a whole shared-memory
    kernel; in longer gate lists the gate that would outgrow it starts the
    next block.

    The lowering is layout-independent (logical qubits) and is the single
    source of what a non-fusion kernel executes: the plan compiler, the
    interpreter, both shard executors and the static verifier's expected
    op stream all consume these items.  Memoized per gate tuple (angles
    included) in a bounded LRU, like :func:`fused_unitary_cached`; the
    returned arrays are shared and read-only.
    """
    key = tuple(gates)
    hit = _LOWERING_CACHE.lookup(key)
    if hit is not None:
        return hit

    items: list[LoweredItem] = []
    # The open block: the gates absorbed so far and their composition.
    run: list[Gate] = []
    qubits, perm, phases = _NO_QUBITS, _UNIT_PERM, _UNIT_PHASES

    def flush() -> None:
        nonlocal run, qubits, perm, phases
        if run:
            perm.setflags(write=False)
            phases.setflags(write=False)
            identity = np.array_equal(perm, np.arange(len(perm)))
            items.append(
                LoweredItem(qubits, tuple(run), None if identity else perm, phases)
            )
        run = []
        qubits, perm, phases = _NO_QUBITS, _UNIT_PERM, _UNIT_PHASES

    for gate in key:
        matrix = gate.matrix()
        info = analyze_matrix(matrix)
        if info.kind not in ("diagonal", "permutation"):
            # A dense gate on other qubits commutes with the open block and
            # goes ahead of it; one that overlaps closes the block.
            if not set(gate.qubits).isdisjoint(qubits):
                flush()
            items.append(LoweredItem(gate.qubits, (gate,), matrix=matrix))
            continue
        if len(set(qubits).union(gate.qubits)) > MONOMIAL_WIDTH:
            flush()
        qubits, perm, phases = _compose_monomial(qubits, perm, phases, gate, info)
        run.append(gate)
    flush()

    lowered = tuple(items)
    _LOWERING_CACHE.store(key, lowered)
    return lowered


def apply_lowered_items(
    state: np.ndarray,
    scratch: np.ndarray,
    items: Sequence[LoweredItem],
    logical_to_physical: Mapping[int, int] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Apply lowered *items* in order; returns ``(state, scratch)`` with
    the ping-pong roles possibly swapped (the interpreter's counterpart of
    :func:`repro.sim.program.compile_lowered_op`, bit-exact with it)."""
    for item in items:
        physical = (
            item.qubits if logical_to_physical is None
            else [logical_to_physical[q] for q in item.qubits]
        )
        if item.matrix is None:
            apply_monomial(state, item.perm, item.phases, physical)
        else:
            state, scratch = apply_gate_buffered(state, scratch, item.matrix, physical)
    return state, scratch


def apply_gate_sequence(state: np.ndarray, gates: Sequence[Gate]) -> np.ndarray:
    """Apply *gates* in order to a flat state vector (no fusion).

    The input array is not modified; the returned array is freshly
    allocated.  Internally the gates ping-pong between two buffers, so the
    whole sequence costs O(1) state-sized allocations.
    """
    buf = tracked_empty(state.size)
    np.copyto(buf, state)
    buf, _scratch = apply_lowered_items(
        buf, tracked_empty(state.size), lower_kernel_gates(gates)
    )
    return buf
