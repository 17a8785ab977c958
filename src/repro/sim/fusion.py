"""Kernel lowering: what a kernel's gate list executes as.

A kernel executes as one op (:func:`repro.sim.apply.kernel_template`) that
applies its *items* in one pass over the state: one item per run of
diagonal/permutation gates, one per group of 1q dense gates on
neighbouring physical positions and one per wider dense gate
(:func:`lower_kernel_gates`).  A *fusion kernel* (Section VI-B of the
paper) does too, on every host: its items in the same pass, no fused
matrix built.

The lowering comes in two halves.  The **structure**
(:func:`kernel_lowering`) is everything that follows from each gate's
name, qubits and the zero pattern of its matrix — its shape, looked up by
name and exact signature — in a stage's layout: which gates fold into
which block or dense group, the block's permutation and its phase gather
tables.  The **fill** (:func:`fill_lowered_item`)
does the arithmetic for one set of angles.  :func:`lower_kernel_gates` is
"structure, then fill", unmemoized — the static verifier's oracle.
Executors reach it through the plan compiler's kernel slots
(:mod:`repro.runtime.compile`), where a kernel's fill is compiled once
more, into a :class:`KernelGather` — the same products in the same order,
as array work over a gate table — so a compiled program rebound to new
angles, and a shard schedule's segments, run only that.

:func:`fused_unitary` is a kernel's matrix, for the callers that want one
(tests, benchmarks, ``StateVector`` users): the gates applied through the
engine to the identity, viewed as a state on ``2m`` qubits.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from ..circuits.gates import GATE_SPECS, Gate, gate_matrix
from .apply import (
    MONOMIAL_WIDTH,
    KernelItem,
    _bits_to,
    _check_qubits,
    _num_qubits,
    kernel_template,
    thread_workspace,
    tracked_empty,
)

__all__ = [
    "ItemLowering",
    "GatherProgram",
    "GatherRun",
    "KernelGather",
    "LoweredItem",
    "kernel_lowering",
    "fill_lowered_item",
    "fused_unitary",
    "kernel_qubits",
    "lower_kernel_gates",
    "kernel_items",
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
        the sorted union of the gates' qubits.  It must hold every gate's
        qubits, each once.

    Returns
    -------
    (matrix, qubits):
        The little-endian fused unitary and the qubit tuple it acts on:
        the gates applied through the engine to the ``2^m × 2^m`` identity,
        viewed as a state on ``2m`` qubits whose high bits are the rows.
    """
    gates = tuple(gates)
    qubits = kernel_qubits(gates) if qubits is None else tuple(qubits)
    if len(set(qubits)) != len(qubits):
        raise ValueError(f"duplicate qubits in target {list(qubits)}")  # lint: config-error
    missing = sorted(set(kernel_qubits(gates)) - set(qubits))
    if missing:
        raise ValueError(f"gate qubits {missing} not contained in target {list(qubits)}")  # lint: config-error
    m = len(qubits)
    rows = {q: m + j for j, q in enumerate(qubits)}
    identity = np.eye(1 << m, dtype=np.complex128).reshape(-1)
    fused = apply_gate_sequence(identity, [gate.remap(rows) for gate in gates])
    return fused.reshape(1 << m, 1 << m), qubits


# ---------------------------------------------------------------------------
# Shared-memory kernels: one item per monomial run or dense group
# ---------------------------------------------------------------------------


class LoweredItem(NamedTuple):
    """One step of a lowered shared-memory kernel (:func:`lower_kernel_gates`).

    A *monomial block* (``phases`` set) is a run of diagonal and
    permutation gates folded into one phased permutation over ``qubits``:
    the amplitude at block index ``c`` (bit ``j`` of ``c`` is
    ``qubits[j]``) moves to index ``perm[c]`` scaled by ``phases[c]``;
    ``perm`` is ``None`` when the run composes to the identity permutation
    (a diagonal block — ``cx·rz·cx`` is one).  A *dense* item is a single
    gate carried with its ``matrix``, or a fold of commuting 1q dense gates
    on physically adjacent qubits (``qubits`` in ascending physical
    position) carried as its ``factors``: the 2×2 per qubit, applied one
    after another (their Kronecker product is never formed).  ``gates`` are the gates
    the item absorbed, in circuit order.
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
    member, a gather table over the block index: the item's phases are
    the running product, in member order, of ``gate.matrix().take(table)``.
    Gates that only permute (cx, swap, ccx, x: phases all one by name) have
    no table.  A ``dense`` item is one gate
    (``slots`` empty) or a fold of 1q gates: ``slots[i]`` is the index in
    ``qubits`` of the qubit ``members[i]`` acts on, and the item's matrix
    is, per qubit of ``qubits``, the product of that qubit's 2×2s.
    ``parameterized`` says whether any member has angles.
    """

    qubits: tuple[int, ...]
    members: tuple[int, ...]
    parameterized: bool
    dense: bool = False
    perm: np.ndarray | None = None
    factors: tuple[tuple[int, np.ndarray], ...] = ()
    slots: tuple[int, ...] = ()


class GateShape(NamedTuple):
    """How one gate lowers (:func:`_gate_shape`).  ``kind`` is
    ``"diagonal"``, ``"permutation"`` (one non-zero per row and column, not
    all on the diagonal: ``perm[c]`` is column ``c``'s row) — the two
    *monomial* kinds of :func:`repro.sim.apply.analyze_matrix` — or
    ``"dense"`` for every other matrix.  A monomial gate's ``phases`` are,
    per sub-index, the flat position of its phase in the gate's matrix;
    ``only_permutes`` says those phases are all exactly one by name (x, cx,
    swap, ccx: a parameter-free gate that moves amplitudes and scales
    nothing)."""

    kind: str
    perm: "tuple[int, ...] | None" = None
    phases: "np.ndarray | None" = None
    only_permutes: bool = False


@lru_cache(maxsize=4096)
def _gate_shape(name: str, signature: bytes) -> GateShape:
    """The :class:`GateShape` of a gate *name* whose exact signature
    (:func:`~repro.circuits.gates.matrix_signature`; ``b""``: a
    parameter-free gate, its name's own matrix) is *signature*: every
    decision the lowering takes of a gate's matrix is a function of its
    zero pattern, so keyed by structure, a sweep of new angles adds no
    entry and no matrix is read."""
    dim = 1 << GATE_SPECS[name].num_qubits
    if signature:
        nonzero = np.frombuffer(signature, dtype=bool, count=dim * dim).reshape(dim, dim)
    else:
        matrix = gate_matrix(name)
        nonzero = matrix != 0
    if not nonzero[~np.eye(dim, dtype=bool)].any():
        perm = None
    elif (nonzero.sum(axis=0) == 1).all() and (nonzero.sum(axis=1) == 1).all():
        perm = tuple(np.argmax(nonzero, axis=0).tolist())
    else:
        return GateShape("dense")
    return GateShape(
        "diagonal" if perm is None else "permutation", perm, _phase_positions(perm, dim),
        not signature and bool(np.all(matrix[nonzero] == 1)),
    )


def _block(
    gates: Sequence[Gate], shapes: Sequence[GateShape], run: Sequence[int], qubits: tuple[int, ...]
) -> tuple[np.ndarray | None, list[tuple[int, np.ndarray]]]:
    """Compose the monomial block of *run* (members, circuit order) over
    *qubits* (bit ``j`` of a block index is ``qubits[j]``): its permutation
    (``None``: the identity) and, per phase-carrying member, its gather
    table — per block index, the flat position in the gate's matrix of its
    phase there.  Built at the block's final width — a member does not
    depend on the bits of qubits that join the block after it, so its
    table there is its table at its own width, repeated — each member costs
    a few index operations on one ``2^k`` vector, and no matrix is read."""
    width = len(qubits)
    at = {q: j for j, q in enumerate(qubits)}
    perm = None
    factors = []
    for member in run:
        pos = tuple([at[q] for q in gates[member].qubits])
        # The gate acts on the block's *output* index: its sub-index there.
        sub = _sub_index(width, pos)
        if perm is not None:
            sub = sub.take(perm)
        shape = shapes[member]
        if shape.perm is not None:
            flips = _flip_table(shape.perm, pos).take(sub)
            perm = flips ^ (np.arange(1 << width) if perm is None else perm)
        if shape.phases is not None and not shape.only_permutes:
            table = shape.phases.take(sub)
            table.setflags(write=False)
            factors.append((member, table))
    if perm is not None:
        if np.array_equal(perm, np.arange(len(perm))):
            perm = None
        else:
            perm.setflags(write=False)
    return perm, factors


@lru_cache(maxsize=1024)
def _sub_index(width: int, pos: tuple[int, ...]) -> np.ndarray:
    """Per index of a ``2^width`` block, the sub-index of a gate whose
    index bit ``j`` sits at block bit ``pos[j]``."""
    sub = _bits_to(width, [(p, j) for j, p in enumerate(pos)])
    sub.setflags(write=False)
    return sub


@lru_cache(maxsize=4096)
def _flip_table(gate_perm: tuple[int, ...], pos: tuple[int, ...]) -> np.ndarray:
    """Per sub-index of a permutation gate, the block-index bits it flips
    when its index bit ``j`` sits at block position ``pos[j]``."""
    return np.array([
        sum((((s ^ t) >> j) & 1) << p for j, p in enumerate(pos))
        for s, t in enumerate(gate_perm)
    ])


_NO_QUBITS: tuple[int, ...] = ()

#: The fold grouping of :func:`_fold_positions`: below this position a group
#: of neighbouring 1q dense positions keeps growing; from it up a group holds
#: at most :data:`DENSE_FOLD_WIDTH` positions.  The two values decide how a
#: kernel's 1q gates are cut into items, so they fix in-core plans' op
#: streams and the pinned digests; re-measuring them for the tile body,
#: which applies a fold as its 2×2s, is ROADMAP item 2.
_FOLD_EDGE = 5
DENSE_FOLD_WIDTH = 2


def _fold_positions(positions: Sequence[int]) -> list[list[int]]:
    """Cut ascending physical *positions* into the groups one dense item
    each covers.  Only neighbours share a group, so a group is a contiguous
    run of positions; it grows while its top stays below
    :data:`_FOLD_EDGE` or it holds fewer than :data:`DENSE_FOLD_WIDTH`
    positions."""
    groups: list[list[int]] = []
    for p in positions:
        if groups and p == groups[-1][-1] + 1 and (
            p < _FOLD_EDGE or len(groups[-1]) < DENSE_FOLD_WIDTH
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
    positions are adjacent into one item (:func:`_fold_positions`).  The
    fold has to see the layout: it groups physical neighbours, so logically
    adjacent qubits that sit apart stay items of their own.  Wider dense
    gates stay items of their own.

    All of this follows from the layout and each gate's name, qubits and
    the zero pattern of its matrix, so the result is valid for every gate
    tuple that matches *gates* in those
    (:func:`~repro.circuits.gates.matrix_signature`);
    :func:`fill_lowered_item` supplies the angles.  Each gate's part is its
    :class:`GateShape`, looked up by its name and exact signature
    (:meth:`Gate.pattern`, which a circuit's gate table hands every gate),
    so no gate's matrix is read or classified here.
    """
    items: list[ItemLowering] = []
    # Each gate's shape, read off its name and exact signature.
    shapes = [_gate_shape(gate.name, gate.pattern()[1]) for gate in gates]
    # The open block: its members so far and its qubits, in order of use.
    run: list[int] = []
    qubits = _NO_QUBITS
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
        nonlocal run, qubits
        flush_dense()
        if run:
            perm, factors = _block(gates, shapes, run, qubits)
            items.append(ItemLowering(
                qubits, tuple(run), any(gates[i].params for i in run),
                perm=perm, factors=tuple(factors),
            ))
        run, qubits = [], _NO_QUBITS

    for member, (gate, shape) in enumerate(zip(gates, shapes)):
        if shape.phases is None:
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
        grown = qubits + tuple([q for q in gate.qubits if q not in qubits])
        if len(grown) > MONOMIAL_WIDTH:
            flush()
            grown = gate.qubits
        qubits = grown
        run.append(member)
    flush()
    return tuple(items)


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
    numeric half of :func:`lower_kernel_gates`: a dense gate's matrix, a
    fold's per-qubit 2×2 products, or a block's phases as the
    running product of its members' phases in circuit order (gates that
    only permute contribute exact ones and are skipped).  *members* are the
    item's gates when the caller already picked them."""
    if members is None:
        members = tuple([gates[i] for i in lowering.members])
    if lowering.dense:
        if len(members) == 1:
            return LoweredItem(lowering.qubits, members, matrix=members[0].matrix())
        # Per qubit the product of its gates, later gates on the left.
        per_qubit: list = [None] * len(lowering.qubits)
        for gate, slot in zip(members, lowering.slots):
            earlier = per_qubit[slot]
            per_qubit[slot] = gate.matrix() if earlier is None else gate.matrix() @ earlier
        return LoweredItem(lowering.qubits, members, factors=tuple(per_qubit))
    phases = None
    for member, table in lowering.factors:
        factor = gates[member].matrix().take(table)
        if phases is None:
            phases = factor
        else:
            np.multiply(phases, factor, out=phases)
    if phases is None:
        phases = _unit_phases(1 << len(lowering.qubits))
    phases.setflags(write=False)
    return LoweredItem(lowering.qubits, members, lowering.perm, phases)


def lower_kernel_gates(
    gates: Sequence[Gate], logical_to_physical: Mapping[int, int] | None = None
) -> tuple[LoweredItem, ...]:
    """Lower a shared-memory kernel's gate list, in a stage's layout
    (``None``: the identity layout), to :class:`LoweredItem` s:
    :func:`kernel_lowering` filled with the gates' angles
    (:func:`fill_lowered_item`) — what the plan compiler's kernel slot
    builds and fills, spelled out for the static verifier's expected op
    stream.  Item qubits are logical; the layout only decides which dense
    gates share an item.  The returned arrays are read-only.
    """
    gates = tuple(gates)
    return tuple(
        fill_lowered_item(item, gates)
        for item in kernel_lowering(gates, logical_to_physical)
    )


class _Products:
    """Ordered products of entries of a source vector, run as depth levels.

    Built from *groups*, in output order: each a list of equal-length index
    arrays, its columns — entry ``e`` of the group is the product of the
    source at ``column[e]`` of every column, in order:
    ``((s[t0] * s[t1]) * s[t2]) ...`` (one column is a plain gather) —
    NumPy's complex product is not commutative bit for bit, so the operand
    order is the oracle's.  Groups are kept deepest first, so every level
    multiplies a prefix: one take and one multiply per depth, whatever the
    number of entries.  A run takes a ``(sources, B)`` stack, one column
    per job: a level's prefix is one contiguous block, multiplied in
    place by a contiguous gather, so NumPy takes the same loop — and gives
    each job the same bits — for any ``B``."""

    __slots__ = ("first", "levels", "unsort")

    def __init__(self, groups: Sequence[Sequence[np.ndarray]]) -> None:
        order = sorted(range(len(groups)), key=lambda g: -len(groups[g]))
        ranked = [groups[g] for g in order]
        self.first = np.concatenate([group[0] for group in ranked]).astype(np.intp)
        self.levels: list[tuple[int, np.ndarray]] = []
        for depth in range(1, len(ranked[0])):
            index = np.concatenate(
                [group[depth] for group in ranked if len(group) > depth]
            ).astype(np.intp)
            self.levels.append((len(index), index))
        self.unsort: np.ndarray | None = None
        if order != sorted(order):
            sizes = [len(group[0]) for group in groups]
            starts = np.concatenate(([0], np.cumsum(sizes))).astype(np.intp)
            position = np.concatenate([np.arange(starts[g], starts[g + 1]) for g in order])
            self.unsort = np.empty(len(position), dtype=np.intp)
            self.unsort[position] = np.arange(len(position))
            if not self.levels:
                self.first, self.unsort = self.first[self.unsort], None

    def __call__(self, source: np.ndarray) -> np.ndarray:
        out = source.take(self.first, axis=0)
        for count, index in self.levels:
            head = out[:count]
            np.multiply(head, source.take(index, axis=0), out=head)
        return out if self.unsort is None else out.take(self.unsort, axis=0)


_ONE = np.ones(1, dtype=np.complex128)
_ONE.setflags(write=False)
_QUAD = np.arange(4, dtype=np.intp)


class KernelGather:
    """How a shared-memory kernel's numbers come out of its pool gates'
    matrices: :func:`fill_lowered_item`'s arithmetic, in its order, as index
    arrays — built once per kernel structure, run as part of a
    :class:`GatherProgram`.

    Built from the kernel's lowering, the qubit count of each gate of its
    pool and its *variants*: what each op bound from the kernel reads of
    its items — the kernel itself (the default: every item whole), or one
    per assignment of a shard's fixed bits, each item restricted to them
    (:class:`repro.runtime.compile.SegmentStructure`).  A variant is
    ``None`` (no op) or ``(fills, items)``: ``fills`` the template's
    packing for the native body (``fills`` of
    :func:`repro.sim.apply.kernel_template`, which cover the payload from
    its first entry to its last; ``None`` without one) and ``items`` per
    item of the op ``(kernel item, which of that item's numbers, their
    shape)`` — ``None``: every item whole.  Indices are local
    *sources*: the pool gates' matrices, row-major, one after another
    (``entries`` of them); then ``chains`` — per fold qubit with two or
    more gates, their 2x2 product, later gates on the left — four entries
    each; then the unit ``1`` (``one``: whether any term reads it).
    ``values`` are the blocks' phases — the running product of their
    members' gathered phases — and the dense gates' matrices, item by item,
    as groups of term columns for :class:`_Products`; a fold's 2x2s are
    sources, in item-qubit order.  ``variants`` per variant ``None`` or
    ``(numbers, loop, shapes)``: ``numbers`` index ``values`` followed by
    the sources (the packed payload of the native body, or ``None``),
    ``loop`` the item loop's arrays, end to end, in the same space.  No
    gate object is kept.
    """

    __slots__ = ("entries", "chains", "one", "values", "variants")

    def __init__(
        self,
        lowering: Sequence[ItemLowering],
        widths: Sequence[int],
        variants: "Sequence[tuple | None]" = ((None, None),),
    ) -> None:
        sizes = [4 ** width for width in widths]
        start = [0]
        for size in sizes:
            start.append(start[-1] + size)
        self.entries = start[-1]

        # Per fold qubit its members; two or more multiply into a chain.
        fold_members = [
            [[m for m, s in zip(item.members, item.slots) if s == slot]
             for slot in range(len(item.qubits))]
            if item.dense and len(item.members) > 1 else None
            for item in lowering
        ]
        self.chains = [
            [start[m] for m in members]
            for folds in fold_members if folds for members in folds if len(members) > 1
        ]
        one = self.entries + 4 * len(self.chains)
        self.one = False

        # The item loop's payloads; single-term entries gathered into one
        # group.
        self.values: list[list[np.ndarray]] = []
        single: list[int] = []
        spans: list[tuple[int, int, int]] = []
        factors: dict[int, np.ndarray] = {}
        next_chain = 0
        at = 0
        for index, item in enumerate(lowering):
            if fold_members[index] is not None:
                firsts = []
                for members in fold_members[index]:
                    if len(members) == 1:
                        firsts.append(start[members[0]])
                    else:
                        firsts.append(self.entries + 4 * next_chain)
                        next_chain += 1
                factors[index] = (np.asarray(firsts, dtype=np.intp)[:, None] + _QUAD).reshape(-1)
                spans.append((-1, 0, 0))
                continue
            dim = 1 << len(item.qubits)
            if item.dense:
                (m,) = item.members
                single.extend(range(start[m], start[m] + sizes[m]))
                count = sizes[m]
            elif not item.factors:
                single.extend([one] * dim)
                self.one = True
                count = dim
            else:
                if single:
                    self.values.append([np.array(single, dtype=np.intp)])
                    single = []
                self.values.append([
                    table.astype(np.intp) + start[m] for m, table in item.factors
                ])
                count = dim
            spans.append((at, at + count, dim if item.dense else 0))
            at += count
        if single:
            self.values.append([np.array(single, dtype=np.intp)])
        shift = at  # where the sources start, after the values

        self.variants: list = []
        for variant in variants:
            if variant is None:
                self.variants.append(None)
                continue
            fills, items = variant
            # Per item of the op, where its numbers sit: a block's phases
            # and a dense gate's matrix among the values, a fold's 2x2s
            # among the sources.
            if items is None:
                at_item = [
                    shift + factors[index] if first < 0 else np.arange(first, stop)
                    for index, (first, stop, _dim) in enumerate(spans)
                ]
                shapes = [
                    (len(factors[index]) // 4, 2, 2) if first < 0
                    else (dim, dim) if dim else (stop - first,)
                    for index, (first, stop, dim) in enumerate(spans)
                ]
            else:
                at_item = [
                    shift + factors[index].take(local) if spans[index][0] < 0
                    else spans[index][0] + local
                    for index, local, _shape in items
                ]
                shapes = [shape for _i, _l, shape in items]
            loop = np.concatenate(at_item) if at_item else np.zeros(0, np.intp)
            numbers = None
            if fills is not None:
                # The native body's payload: every entry is one of the
                # values (a block's phase, a gate's matrix entry) or a
                # fold's 2x2 factor straight from the sources.
                parts: list = []
                for item, mode, offset, extra in sorted(fills, key=lambda fill: fill[2]):
                    where = at_item[item]
                    parts.append(
                        where.take(extra) if mode == 2
                        else where[4 * extra : 4 * extra + 4] if mode == 1 else where
                    )
                if not parts:  # a kernel with no payload still passes one number, unread
                    parts.append(np.array([shift + one], dtype=np.intp))
                    self.one = True
                numbers = np.concatenate(parts).astype(np.intp)
            self.variants.append((numbers, loop, shapes))


class GatherProgram:
    """The numbers of every kernel of an op stream, as one array program
    over a gate table (:class:`~repro.circuits.gates.GateTable`).

    Built from each kernel's :class:`KernelGather` and where its pool
    gates' matrices start in *entries* — all of the stream's pool gates'
    matrices, row-major, as the plan compiler takes them out of the table
    in one gather.  The kernels' sources, values and payloads are laid end
    to end, so a run is: per depth of the folds' 1q products one stacked
    matmul (later gates on the left); per factor depth of every block's
    phases one ``take`` and one multiply (circuit order — NumPy's complex
    product is not commutative bit for bit, so the operand order is the
    oracle's); one ``take`` into the native bodies' packed payloads, every
    variant of every kernel.
    :meth:`__call__` takes an ``(entries, B)`` stack — one column per job
    of a stacked bind, one for a solo one — and returns a
    :class:`GatherRun` whose packed payloads have one row per job; every
    number of job ``b`` is bit for bit what :func:`lower_kernel_gates`
    gives job ``b``'s gates, and what a stack of that job alone gives.
    """

    __slots__ = ("kernels", "chains", "one", "values", "numbers", "variants", "kernel_sources", "total")

    def __init__(self, kernels: Sequence[tuple[KernelGather, int]], entries: int) -> None:
        self.kernels = [gather for gather, _start in kernels]
        chains = [
            [start + member for member in chain]
            for gather, start in kernels for chain in gather.chains
        ]
        order = sorted(range(len(chains)), key=lambda c: -len(chains[c]))
        rank = np.empty(len(chains), dtype=np.intp)
        rank[order] = np.arange(len(chains))

        def quads(members) -> np.ndarray:
            return (np.asarray(members, dtype=np.intp)[:, None] + _QUAD).reshape(-1)

        self.chains = None
        if chains:
            self.chains = (
                quads([chains[c][0] for c in order]),
                [
                    (count, quads([chains[c][depth] for c in order[:count]]))
                    for depth in range(1, len(chains[order[0]]))
                    for count in [sum(len(chain) > depth for chain in chains)]
                ],
            )
        one = entries + 4 * len(chains)
        self.one = any(gather.one for gather in self.kernels)

        values: list = []
        numbers: list = []
        #: Per kernel, per variant ``None`` or ``(its payload's slice of a
        #: run's numbers, or None; its item loop's kernel-local indices,
        #: which :meth:`indices` maps into a run's values and sources;
        #: their shapes)``.
        self.variants: list[list] = []
        #: Per kernel ``(its local sources' indices among the program's,
        #: its value count, its first value)``.
        self.kernel_sources: list[tuple[np.ndarray, int, int]] = []
        self.total = sum(len(column[0]) for gather in self.kernels for column in gather.values)
        at_value = at_number = 0
        first_chain = 0
        for gather, start in kernels:
            # Local sources to this program's, as one index array: entries
            # shift by the pool's start, chains go to their rank, the unit
            # to the shared one.
            chain_at = entries + 4 * rank[first_chain : first_chain + len(gather.chains)]
            first_chain += len(gather.chains)
            source = np.concatenate((
                np.arange(start, start + gather.entries, dtype=np.intp),
                (chain_at[:, None] + _QUAD).reshape(-1), [one],
            ))
            values.extend([[source.take(column) for column in group] for group in gather.values])
            count_values = sum(len(group[0]) for group in gather.values)
            self.kernel_sources.append((source, count_values, at_value))
            kernel_variants = []
            for variant in gather.variants:
                if variant is None:
                    kernel_variants.append(None)
                    continue
                local, loop, shapes = variant
                span = None
                if local is not None:
                    numbers.append(self.indices(len(self.kernel_sources) - 1, local))
                    span = (at_number, at_number + len(local))
                    at_number += len(local)
                kernel_variants.append((span, loop, shapes))
            self.variants.append(kernel_variants)
            at_value += count_values
        self.values = _Products(values) if values else None
        self.numbers = np.concatenate(numbers).astype(np.intp) if numbers else None

    def indices(self, kernel: int, local: np.ndarray) -> np.ndarray:
        """Kernel *kernel*'s *local* indices — its values, then its
        sources — as indices into a run's values followed by its sources.
        (A value's index, negative once shifted, is clipped there and not
        taken.)"""
        source, count, first = self.kernel_sources[kernel]
        return np.where(
            local < count, local + first,
            self.total + source.take(local - count, mode="clip"),
        )

    def __call__(self, entries: np.ndarray) -> "GatherRun":
        rows = entries.shape[1]
        parts = [entries]
        if self.chains is not None:
            # Per job its chains' contiguous 2x2s (a view for one job).
            first, levels = self.chains
            chain = entries.take(first, axis=0).T.reshape(rows, -1, 2, 2)
            for count, index in levels:
                chain[:, :count] = (
                    entries.take(index, axis=0).T.reshape(rows, -1, 2, 2) @ chain[:, :count]
                )
            parts.append(chain.reshape(rows, -1).T)
        if self.one:
            parts.append(np.broadcast_to(_ONE[:, None], (1, rows)))
        sources = np.concatenate(parts, axis=0) if len(parts) > 1 else entries
        if self.values is not None:
            sources = np.concatenate((self.values(sources), sources), axis=0)
        numbers = None
        if self.numbers is not None:
            # One contiguous payload row per job.
            numbers = np.ascontiguousarray(sources.take(self.numbers, axis=0).T)
        return GatherRun(self, sources, numbers)


class GatherRun(NamedTuple):
    """One run of a :class:`GatherProgram` over an ``(entries, B)`` stack:
    its values followed by its sources (the entries, the folds' 1q chains,
    the unit), one column per job, and the packed payloads, one row per
    job; per variant of a kernel (by the kernel's index in the program)
    :meth:`numbers_of` and :meth:`arrays_of`."""

    program: GatherProgram
    values: np.ndarray
    numbers: "np.ndarray | None"

    def numbers_of(self, kernel: int, variant: int = 0) -> np.ndarray:
        """The native payload of variant *variant* of kernel *kernel*,
        ``(B, size)``: a view whose rows are contiguous and sit one run's
        width apart."""
        first, stop = self.program.variants[kernel][variant][0]
        return self.numbers[:, first:stop]

    def arrays_of(self, kernel: int, variant: int = 0) -> list[list[np.ndarray]]:
        """The item-loop payloads of variant *variant* of kernel *kernel*,
        per row: per item a block's phases, a dense gate's matrix, a fold's
        ``(k, 2, 2)`` factors — one ``take`` a row."""
        _span, loop, shapes = self.program.variants[kernel][variant]
        loop = self.program.indices(kernel, loop)
        rows = []
        for column in self.values.T:
            flat, arrays, at = column.take(loop), [], 0
            for shape in shapes:
                size = math.prod(shape)
                arrays.append(flat[at : at + size].reshape(shape))
                at += size
            rows.append(arrays)
        return rows


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
        elif item.phases is not None:
            out.append(KernelItem(physical, "block", item.perm, not bool(np.all(item.phases == 1))))
        else:
            out.append(KernelItem(physical, "fold" if item.factors else "gate"))
    return tuple(out)


def apply_gate_sequence(state: np.ndarray, gates: Sequence[Gate]) -> np.ndarray:
    """Apply *gates* in order to a flat state vector (no fusion): one kernel
    op over its lowered items, every qubit at its own index.

    The input array is not modified; the returned array is freshly
    allocated, and the op's work space is one more state-sized buffer.
    """
    n = _num_qubits(state)
    _check_qubits(kernel_qubits(gates), n)
    buf = tracked_empty(state.size)
    np.copyto(buf, state)
    items = lower_kernel_gates(gates, None)  # no stage: the identity layout
    run = kernel_template(kernel_items(items), n).bind(items)
    buf, _scratch = run(buf, tracked_empty(state.size), thread_workspace())
    return buf
