"""Kernel lowering: what a kernel's gate list executes as.

A *fusion kernel* (Section VI-B of the paper) executes a group of gates as
a single matrix: the product of all gate matrices embedded into the space
of the kernel's qubit set.  A *shared-memory kernel* executes as one op
too (:func:`repro.sim.apply.kernel_template`) that applies its *items* in
one pass over the state: one item per run of diagonal/permutation gates,
one per group of 1q dense gates on neighbouring physical positions and one
per wider dense gate (:func:`lower_kernel_gates`).

Both lowerings come in two halves.  The **structure**
(:func:`kernel_fusion`, :func:`kernel_lowering`) is everything that
follows from each gate's name, qubits and the zero pattern of its matrix —
the row positions and dispatch of every gate of a fused kernel; in a
stage's layout, which gates fold into which block or dense group, the
block's permutation and its phase gather tables.  The **fill** (:func:`fill_fused_unitary`,
:func:`fill_lowered_item`) does the arithmetic for one set of angles.
:func:`fused_unitary` and :func:`lower_kernel_gates` are "structure, then
fill"; a compiled program keeps the structures of its kernels and runs
only the fills when it is rebound to new angles
(:mod:`repro.runtime.compile`).

The fused matrix is built by applying each gate to the columns of a
``2^m × 2^m`` identity, viewed as a state on ``2m`` qubits whose high bits
are the matrix rows.  Each gate therefore costs ``O(2^m · 4^k)`` through
the specialized kernels of :mod:`repro.sim.apply` instead of the
``O(8^m)`` dense matmul per gate (``expand_matrix`` + ``@``) the seed
implementation paid; the two work buffers belong to the calling thread's
workspace and are reused from kernel to kernel.

:func:`fused_unitary_cached` memoizes the result keyed by the gate tuple
(kernel identity), so a kernel that is applied repeatedly — every stage of
every shard in the offload executor — pays for fusion once.  The memo is
an explicit bounded LRU (:class:`FusionCache`, replacing an opaque
``functools.lru_cache`` of the same default bound): long-running sweep
services can watch its hit/miss/eviction counters (surfaced through
:class:`repro.session.SessionStats`) and resize or flush it at runtime
(:func:`configure_fusion_cache`).  The memos hold what is asked for by
gate tuple — a cold compile, the interpreter, the verifier, the shard
executors; a program rebind fills through its own structures and inserts
nothing (a sweep's angles never recur, so those entries could only evict
the ones that do).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from functools import lru_cache
from typing import Any, Callable, Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from ..circuits.gates import Gate, gate_matrix
from .apply import (
    DENSE_FOLD_WIDTH,
    MONOMIAL_WIDTH,
    _BOUND_OPS,
    _GEMM_EDGE,
    KernelItem,
    OpTemplate,
    _check_qubits,
    _num_qubits,
    _remember,
    analyze_matrix,
    kernel_template,
    thread_workspace,
    tracked_empty,
    unitary_template,
)

__all__ = [
    "FusionCache",
    "ItemLowering",
    "KernelFusion",
    "LoweredItem",
    "kernel_fusion",
    "gate_step",
    "fill_fused_unitary",
    "fill_fused_unitary_cached",
    "kernel_lowering",
    "fill_lowered_item",
    "fused_unitary",
    "fused_unitary_cached",
    "fusion_cache_stats",
    "configure_fusion_cache",
    "kernel_qubits",
    "lower_kernel_gates",
    "kernel_items",
    "apply_lowered_items",
    "apply_gate_sequence",
]


def kernel_qubits(gates: Iterable[Gate]) -> tuple[int, ...]:
    """The sorted union of qubits touched by *gates*."""
    qubits: set[int] = set()
    for gate in gates:
        qubits.update(gate.qubits)
    return tuple(sorted(qubits))


class KernelFusion(NamedTuple):
    """The angle-independent part of :func:`fused_unitary` for one kernel
    (:func:`kernel_fusion`): the qubit tuple the fused matrix spans and, per
    gate, the compiled template of its application to the matrix rows —
    row positions and dispatch resolved — plus the bound ``run`` closure
    for parameter-free gates (``None`` where the gate carries angles)."""

    qubits: tuple[int, ...]
    steps: tuple[tuple[OpTemplate, "Callable | None"], ...]


def kernel_fusion(
    gates: Sequence[Gate], qubits: Sequence[int] | None = None
) -> KernelFusion:
    """Resolve how *gates* fuse over *qubits* (default: their sorted union).

    The fused matrix is the identity, viewed flat as a state on ``2m``
    qubits — flat index bit ``j`` (``j < m``) is matrix-column bit ``j``,
    bit ``m + j`` is matrix-row bit ``j`` — to which every gate is applied
    on the row bits (a gate left-multiplies the fused matrix).  Each
    application is an op template of :mod:`repro.sim.apply`
    (:func:`~repro.sim.apply.unitary_template`), the one
    :func:`~repro.sim.apply.apply_gate_buffered` would bind for the same
    matrix and position.  The result is valid for every gate tuple whose gates match *gates* in
    name, qubits and :func:`~repro.circuits.gates.matrix_signature`.
    """
    qubits = kernel_qubits(gates) if qubits is None else tuple(qubits)
    m = len(qubits)
    pos = {q: i for i, q in enumerate(qubits)}
    return KernelFusion(qubits, tuple([
        gate_step(gate, tuple([m + pos[q] for q in gate.qubits]), 2 * m)
        for gate in gates
    ]))


def gate_step(
    gate: Gate, qubits: tuple[int, ...], n: int
) -> "tuple[OpTemplate, Callable | None]":
    """The template of *gate* applied at *qubits* of an ``n``-qubit buffer
    and, when the gate carries no angle, its bound ``run`` closure (else
    ``None``: the template is bound per job)."""
    if gate.params:
        return unitary_template(gate.matrix(), qubits, n), None
    return _fixed_step(gate.name, qubits, n)


@lru_cache(maxsize=1024)
def _fixed_step(name: str, qubits: tuple[int, ...], n: int) -> "tuple[OpTemplate, Callable]":
    """:func:`gate_step` of a parameter-free gate.  Nothing here depends on
    a circuit, so kernels and programs share these process-wide (like the
    analysis and bound-op memos of :mod:`repro.sim.apply`, which key on
    the same matrices); the closures are pure functions of the buffers
    they are handed."""
    matrix = gate_matrix(name)
    template = unitary_template(matrix, qubits, n)
    return template, template.bind(matrix)


def fill_fused_unitary(fusion: KernelFusion, gates: Sequence[Gate]) -> np.ndarray:
    """The fused matrix of *gates* through *fusion* — the numeric half of
    :func:`fused_unitary`: bind each angle-carrying gate's matrix to its
    template and run the steps over the identity.  The work buffers are the
    calling thread's (slots no op borrows); the result is a fresh array."""
    dim = 1 << len(fusion.qubits)
    ws = thread_workspace()
    buf, scratch = ws.tmp(dim * dim, slot=2), ws.tmp(dim * dim, slot=3)
    buf.fill(0)
    buf[:: dim + 1] = 1
    for gate, (template, run) in zip(gates, fusion.steps):
        if run is None:
            run = template.bind(gate.matrix())
        buf, scratch = run(buf, scratch, ws)
    return buf.reshape(dim, dim).copy()


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
    fusion = kernel_fusion(gates, qubits)
    return fill_fused_unitary(fusion, gates), fusion.qubits


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
    is stable across calls, the dispatch analysis and the bound op in
    :mod:`repro.sim.apply` are also computed only once per kernel.  Backed by the bounded
    :class:`FusionCache` (see :func:`configure_fusion_cache`).
    """
    key = (tuple(gates), None if qubits is None else tuple(qubits))
    hit = _FUSION_CACHE.lookup(key)
    if hit is not None:
        return hit
    return _fill_and_store(key, kernel_fusion(gates, qubits), gates)


def fill_fused_unitary_cached(fusion: KernelFusion, gates: Sequence[Gate]) -> np.ndarray:
    """:func:`fused_unitary_cached` for a caller that already holds the
    kernel's :func:`kernel_fusion` (over the default qubit order): the same
    memo entry, without resolving the fusion again on a miss."""
    key = (tuple(gates), None)
    hit = _FUSION_CACHE.lookup(key)
    if hit is None:
        hit = _fill_and_store(key, fusion, gates)
    return hit[0]


def _fill_and_store(key: tuple, fusion: KernelFusion, gates: Sequence[Gate]):
    matrix = fill_fused_unitary(fusion, gates)
    matrix.setflags(write=False)
    value = (matrix, fusion.qubits)
    _FUSION_CACHE.store(key, value)
    return value


# ---------------------------------------------------------------------------
# Shared-memory kernels: one item per monomial run or dense group
# ---------------------------------------------------------------------------


class LoweredItem(NamedTuple):
    """One step of a lowered shared-memory kernel (:func:`lower_kernel_gates`).

    A *monomial block* (``matrix is None``) is a run of diagonal and
    permutation gates folded into one phased permutation over ``qubits``:
    the amplitude at block index ``c`` (bit ``j`` of ``c`` is
    ``qubits[j]``) moves to index ``perm[c]`` scaled by ``phases[c]``;
    ``perm`` is ``None`` when the run composes to the identity permutation
    (a diagonal block — ``cx·rz·cx`` is one).  A *dense* item
    (``matrix is not None``) is a single gate carried with its matrix, or a
    fold of commuting 1q dense gates on physically adjacent qubits carried
    with their product (``qubits`` in ascending physical position) and, as
    ``factors``, the 2×2 per qubit that product is the Kronecker product of.
    ``gates`` are the gates the item absorbed, in circuit order.
    """

    qubits: tuple[int, ...]
    gates: tuple[Gate, ...]
    perm: np.ndarray | None = None
    phases: np.ndarray | None = None
    matrix: np.ndarray | None = None
    factors: tuple[np.ndarray, ...] | None = None


class ItemLowering(NamedTuple):
    """The angle-independent part of one :class:`LoweredItem`
    (:func:`kernel_lowering`).

    ``members`` are the positions, in the kernel's gate tuple, of the gates
    the item absorbs (circuit order).  A block (``dense`` false) carries
    its composed ``perm`` (``None``: identity) and, per phase-carrying
    member, a gather table over the block index *at the width the block had
    when it absorbed the gate* (qubits that joined later are top index bits
    the gate's phase does not depend on): the item's phases are the running
    product, in member order, of ``gate.matrix().take(table)`` repeated up
    to the full width.  Gates that only permute (cx, swap, ccx, x: phases
    all one by name) have no table.  A ``dense`` item is one gate
    (``slots`` empty) or a fold of 1q gates: ``slots[i]`` is the index in
    ``qubits`` of the qubit ``members[i]`` acts on, and the item's matrix
    is the Kronecker product over ``qubits`` of each qubit's 2×2 product.
    ``parameterized`` says whether any member has angles.
    """

    qubits: tuple[int, ...]
    members: tuple[int, ...]
    parameterized: bool
    dense: bool = False
    perm: np.ndarray | None = None
    factors: tuple[tuple[int, np.ndarray], ...] = ()
    slots: tuple[int, ...] = ()


def _absorb(
    qubits: tuple[int, ...], perm: np.ndarray, gate: Gate, info
) -> tuple[tuple[int, ...], np.ndarray, np.ndarray]:
    """The block ``(qubits, perm)`` followed by monomial *gate*: the grown
    qubit tuple, the composed permutation, and ``sub`` — per block index,
    the gate's own sub-index there — ``O(2^k)`` vector work, no matrix is
    ever built."""
    for q in gate.qubits:
        if q not in qubits:
            # A new qubit becomes the block's top index bit; so far the
            # block is the identity along it.
            perm = np.concatenate((perm, perm + len(perm)))
            qubits = qubits + (q,)
    pos = tuple(qubits.index(q) for q in gate.qubits)
    # The gate acts on the block's *output* index: read its sub-index there.
    sub = (perm >> pos[0]) & 1
    for j in range(1, len(pos)):
        sub |= ((perm >> pos[j]) & 1) << j
    if info.kind == "permutation":
        perm = perm ^ _flip_table(info.perm, pos)[sub]
    return qubits, perm, sub


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
_UNIT_PERM.setflags(write=False)


def _fold_positions(positions: Sequence[int]) -> list[list[int]]:
    """Cut ascending physical *positions* into the groups one dense item
    each covers.  Only neighbours share a group, so a group is a contiguous
    run and always plans to a single gemm; it grows while its top stays
    below the right-gemm edge (one gemm whose cost the top position sets)
    or it holds fewer than :data:`~repro.sim.apply.DENSE_FOLD_WIDTH`
    positions."""
    groups: list[list[int]] = []
    for p in positions:
        if groups and p == groups[-1][-1] + 1 and (
            p < _GEMM_EDGE or len(groups[-1]) < DENSE_FOLD_WIDTH
        ):
            groups[-1].append(p)
        else:
            groups.append([p])
    return groups


def kernel_lowering(
    gates: Sequence[Gate], logical_to_physical: Mapping[int, int] | None = None
) -> tuple[ItemLowering, ...]:
    """Resolve how a shared-memory kernel's gate list lowers in a stage's
    layout (``None``: the identity layout, every qubit at its own index) —
    which gates fold into which item, each block's permutation and phase
    gather tables — without computing a phase or a product.

    Every maximal run of *monomial* gates — matrices with one non-zero per
    row and column, :func:`repro.sim.apply.analyze_matrix` kind
    ``diagonal`` or ``permutation`` (rz, p, cp, cz, rzz, s, t, x, y, cx,
    swap, ccx, …), a class closed under multiplication — folds into one
    block, so executing the kernel sweeps the state once per *run* instead
    of once per gate.  A dense gate (h, rx, ry, u3, …) on qubits disjoint
    from the open block goes ahead of it (they commute); one that overlaps
    closes it.  A block spans at most
    :data:`~repro.sim.apply.MONOMIAL_WIDTH` qubits — a whole shared-memory
    kernel; in longer gate lists the gate that would outgrow it starts the
    next block.

    The 1q dense gates waiting ahead of the open block commute when they
    act on distinct qubits and multiply when they share one, so they fold
    too: per qubit into one 2×2 product, and across qubits whose *physical*
    positions are adjacent into one item (:func:`_fold_positions`) — a gemm
    on two neighbouring positions costs what a gemm on one does.  The fold
    has to see the layout: logically adjacent qubits that sit apart would
    plan to a split gemm or the tensordot contraction, dearer than the two
    sweeps they replace.  Wider dense gates stay items of their own.

    All of this follows from the layout and each gate's name, qubits and
    the zero pattern of its matrix, so the result is valid for every gate
    tuple that matches *gates* in those
    (:func:`~repro.circuits.gates.matrix_signature`);
    :func:`fill_lowered_item` supplies the angles.
    """
    items: list[ItemLowering] = []
    # The open block: the members absorbed so far, their composition, and
    # per phase-carrying member its gather table.
    run: list[int] = []
    factors: list[tuple[int, np.ndarray]] = []
    qubits, perm = _NO_QUBITS, _UNIT_PERM
    # The 1q dense gates ahead of the open block, by qubit, in circuit order.
    waiting: dict[int, list[int]] = {}
    position = (lambda q: q) if logical_to_physical is None else logical_to_physical.__getitem__

    def flush_dense() -> None:
        by_position = {position(q): q for q in waiting}
        for group in _fold_positions(sorted(by_position)):
            folded = tuple([by_position[p] for p in group])
            members = sorted(m for q in folded for m in waiting[q])
            items.append(ItemLowering(
                folded, tuple(members), any(gates[m].params for m in members),
                dense=True,
                slots=tuple([folded.index(gates[m].qubits[0]) for m in members]),
            ))
        waiting.clear()

    def flush() -> None:
        nonlocal run, factors, qubits, perm
        flush_dense()
        if run:
            identity = np.array_equal(perm, np.arange(len(perm)))
            if not identity:
                perm.setflags(write=False)
            items.append(ItemLowering(
                qubits, tuple(run), any(gates[i].params for i in run),
                perm=None if identity else perm, factors=tuple(factors),
            ))
        run, factors = [], []
        qubits, perm = _NO_QUBITS, _UNIT_PERM

    for member, gate in enumerate(gates):
        matrix = gate.matrix()
        info = analyze_matrix(matrix)
        if info.kind not in ("diagonal", "permutation"):
            # A dense gate on other qubits commutes with the open block and
            # goes ahead of it; one that overlaps closes the block.
            if not set(gate.qubits).isdisjoint(qubits):
                flush()
            if len(gate.qubits) == 1:
                waiting.setdefault(gate.qubits[0], []).append(member)
            else:
                flush_dense()
                items.append(
                    ItemLowering(gate.qubits, (member,), bool(gate.params), dense=True)
                )
            continue
        if len(set(qubits).union(gate.qubits)) > MONOMIAL_WIDTH:
            flush()
        qubits, perm, sub = _absorb(qubits, perm, gate, info)
        run.append(member)
        if gate.params or not _only_permutes(gate.name):
            table = _phase_positions(info.perm, len(matrix))[sub]
            table.setflags(write=False)
            factors.append((member, table))
    flush()
    return tuple(items)


@lru_cache(maxsize=None)
def _only_permutes(name: str) -> bool:
    """Whether parameter-free monomial gate *name* has no phase but one
    (x, cx, swap, ccx, ...): it moves amplitudes and scales nothing."""
    info = analyze_matrix(gate_matrix(name))
    values = info.diagonal if info.kind == "diagonal" else info.phases
    return bool(np.all(values == 1))


@lru_cache(maxsize=256)
def _phase_positions(gate_perm: "tuple[int, ...] | None", dim: int) -> np.ndarray:
    """Per sub-index of a monomial gate, the flat position of its phase in
    the gate's ``dim x dim`` matrix (``gate_perm=None``: the diagonal), in
    the smallest unsigned dtype — tables live as long as their program."""
    rows = np.arange(dim) if gate_perm is None else np.asarray(gate_perm)
    return (rows * dim + np.arange(dim)).astype(np.min_scalar_type(dim * dim - 1))


@lru_cache(maxsize=MONOMIAL_WIDTH + 1)
def _unit_phases(dim: int) -> np.ndarray:
    phases = np.ones(dim, dtype=np.complex128)
    phases.setflags(write=False)
    return phases


def fill_lowered_item(
    lowering: ItemLowering, gates: Sequence[Gate], members: tuple[Gate, ...] | None = None
) -> LoweredItem:
    """The :class:`LoweredItem` of *lowering* for the kernel's *gates* — the
    numeric half of :func:`lower_kernel_gates`: a dense item's matrix (the
    gate's own, or a fold's Kronecker product), or a block's phases as the
    running product of its members' phases in circuit order (gates that
    only permute contribute exact ones and are skipped).  *members* are the
    item's gates when the caller already picked them."""
    if members is None:
        members = tuple([gates[i] for i in lowering.members])
    if lowering.dense:
        if len(members) == 1:
            return LoweredItem(lowering.qubits, members, matrix=members[0].matrix())
        # Per qubit the product of its gates, later gates on the left ...
        per_qubit: list = [None] * len(lowering.qubits)
        for gate, slot in zip(members, lowering.slots):
            earlier = per_qubit[slot]
            per_qubit[slot] = gate.matrix() if earlier is None else gate.matrix() @ earlier
        # ... then the Kronecker product, the last qubit the top index bit.
        matrix = per_qubit[0]
        for high in per_qubit[1:]:
            dim = 2 * len(matrix)
            matrix = (high[:, None, :, None] * matrix[None, :, None, :]).reshape(dim, dim)
        matrix.setflags(write=False)
        return LoweredItem(lowering.qubits, members, matrix=matrix, factors=tuple(per_qubit))
    dim = 1 << len(lowering.qubits)
    phases = None
    for member, table in lowering.factors:
        factor = gates[member].matrix().take(table)
        if phases is None:
            phases = np.tile(factor, dim // len(factor))
        else:
            # Widths only grow along a block: each row of the view is one
            # repetition of the factor.
            rows = phases.reshape(-1, len(factor))
            np.multiply(rows, factor, out=rows)
    if phases is None:
        phases = _unit_phases(dim)
    phases.setflags(write=False)
    return LoweredItem(lowering.qubits, members, lowering.perm, phases)


#: Smaller than the fusion cache: an entry holds up to 24 KiB of block
#: vectors per 10-qubit block.  The cache serves the consumers of one job
#: that ask by gate tuple (interpreter, verifier, both shard executors);
#: compiled programs carry their kernels' lowering themselves and never
#: come here on a rebind.
_LOWERING_CACHE = FusionCache(maxsize=256)


def lower_kernel_gates(
    gates: Sequence[Gate], logical_to_physical: Mapping[int, int] | None = None
) -> tuple[LoweredItem, ...]:
    """Lower a shared-memory kernel's gate list, in a stage's layout
    (``None``: the identity layout), to :class:`LoweredItem` s:
    :func:`kernel_lowering` filled with the gates' angles
    (:func:`fill_lowered_item`).

    Item qubits are logical; the layout only decides which dense gates
    share an item.  This is the single source of what a non-fusion kernel
    executes: the plan compiler, the interpreter, both shard executors and
    the static verifier's expected op stream all consume it.  Memoized per
    gate tuple (angles included) and the positions of its qubits in a
    bounded LRU, like :func:`fused_unitary_cached`; the returned arrays are
    shared and read-only.
    """
    gates = tuple(gates)
    key = (gates, None if logical_to_physical is None else tuple(
        [logical_to_physical[q] for g in gates for q in g.qubits]
    ))
    hit = _LOWERING_CACHE.lookup(key)
    if hit is not None:
        return hit
    lowered = tuple(
        fill_lowered_item(item, gates)
        for item in kernel_lowering(gates, logical_to_physical)
    )
    _LOWERING_CACHE.store(key, lowered)
    return lowered


def kernel_items(
    items: "Sequence[ItemLowering | LoweredItem]",
    logical_to_physical: Mapping[int, int] | None = None,
) -> tuple[KernelItem, ...]:
    """What :func:`~repro.sim.apply.kernel_template` needs of a kernel's
    *items* — their structure (:func:`kernel_lowering`) or the filled ones
    (:func:`lower_kernel_gates`) — in a stage's layout: physical positions
    and kind."""
    out = []
    for item in items:
        physical = item.qubits if logical_to_physical is None else tuple(
            [logical_to_physical[q] for q in item.qubits]
        )
        if isinstance(item, ItemLowering):
            if item.dense:
                out.append(KernelItem(physical, "gate" if len(item.members) == 1 else "fold"))
            else:
                out.append(KernelItem(physical, "block", item.perm, bool(item.factors)))
        elif item.matrix is None:
            out.append(KernelItem(physical, "block", item.perm, not bool(np.all(item.phases == 1))))
        else:
            out.append(KernelItem(physical, "fold" if item.factors else "gate"))
    return tuple(out)


def apply_lowered_items(
    state: np.ndarray,
    scratch: np.ndarray,
    items: Sequence[LoweredItem],
    logical_to_physical: Mapping[int, int] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Apply a kernel's lowered *items* to *state*, in place; returns
    ``(state, scratch)`` (the interpreter's counterpart of the plan
    compiler's kernel slot: the same :func:`~repro.sim.apply.kernel_template`,
    bound to the items object as it is met and memoized by its identity —
    lowered items are cached instances).  *scratch* is work space."""
    if not items:
        return state, scratch
    positions = tuple([
        item.qubits if logical_to_physical is None
        else tuple([logical_to_physical[q] for q in item.qubits])
        for item in items
    ])
    key = (id(items), positions, state.size)
    hit = _BOUND_OPS.get(key)
    if hit is None or hit[0] is not items:
        n = _num_qubits(state)
        for item, physical in zip(items, positions):
            _check_qubits(physical, n)
            payload = item.phases if item.matrix is None else item.matrix[0]
            if len(payload) != 1 << len(physical):
                raise ValueError(  # lint: config-error
                    f"item payload of length {len(payload)} does not match "
                    f"{len(physical)} qubits"
                )
        template = kernel_template(kernel_items(items, logical_to_physical), n)
        hit = _remember(key, (items, template.bind(items)))
    return hit[1](state, scratch, thread_workspace().for_caller_buffers())


def apply_gate_sequence(state: np.ndarray, gates: Sequence[Gate]) -> np.ndarray:
    """Apply *gates* in order to a flat state vector (no fusion).

    The input array is not modified; the returned array is freshly
    allocated.  Internally the gates ping-pong between two buffers, so the
    whole sequence costs O(1) state-sized allocations.
    """
    buf = tracked_empty(state.size)
    np.copyto(buf, state)
    # No stage here: every qubit sits at its own index.
    identity = {q: q for gate in gates for q in gate.qubits}
    buf, _scratch = apply_lowered_items(
        buf, tracked_empty(state.size), lower_kernel_gates(gates, identity)
    )
    return buf
