"""The gate-application engine: kernels, op templates, and the entry points.

Everything that applies a gate to a dense state vector — or to one shard of
it — lives here, once.  Three layers, bottom up:

**Kernels.**  There are two ways to apply gates.  A *diagonal* is one
broadcast multiply over the state.  Everything else is a *kernel*
(:func:`kernel_template`): all its lowered items — monomial blocks, folds
of 2×2s, dense gates — in one pass over the state, through the C body of
:mod:`repro.sim.native` when the host has it and the kernel fits a tile,
else through the item loop, which computes the same bits.  A single gate
that is not diagonal is a one-item kernel.  :func:`analyze_matrix`
classifies a matrix by its exact zeros; only "diagonal or not" picks the
kernel, and a kernel's bind drops the matrix's exact zeros itself.

**Op templates.**  :func:`unitary_template` (one gate) and
:func:`kernel_template` (a whole kernel) return an :class:`OpTemplate` —
everything that follows from *where* the op acts and from the zero/one
structure of its payload — whose ``bind`` does the numeric fill and returns
**one** closure, ``run(states, scratch, ws)``, written against
``(..., 2^n)`` buffers: a flat state is a stack of one, and row ``b`` of a
stacked run is the flat run of row ``b`` bit for bit.  Both update the
state buffer in place; a kernel's item loop works in the scratch buffer
and in temporaries of a :class:`Workspace`, one per thread
(:func:`thread_workspace`).  Compiled programs (:mod:`repro.sim.program`,
:mod:`repro.runtime.compile`) and shard segments bind these templates ahead
of time.

**Entry points.**  :func:`apply_gate_buffered`, :func:`apply_matrix` and
:func:`apply_diagonal` are the same templates bound on first sight of a
payload object and memoized by its identity, run on the calling thread's
workspace.  They are what :class:`~repro.sim.statevector.StateVector`
calls; no runtime does: every op an executor runs — a kernel, or a shard's
variant of a kernel with gates on non-local qubits — is the plan
compiler's, bound with its program or shard schedule.  The kernels' numerics are
pinned by two implementations that share nothing with the templates:
:func:`apply_matrix_reference` (the seed tensordot contraction) and
``benchmarks/perf/oracle.py``.

Buffer contract
---------------
:func:`apply_matrix` and :func:`apply_diagonal` take an optional ``out``
buffer:

* ``out is None`` — a freshly allocated array is returned and ``state``
  is **never** modified (pure).
* ``out`` is a distinct array of the same size — the result is written
  into ``out`` and ``out`` is returned; ``state`` is not modified.
  ``out`` must not overlap ``state`` (other than being the same array).
* ``out is state`` — true in-place update; ``state`` is returned.

A gate asked for a distinct ``out`` is "copy, then update in place".
:func:`apply_gate_buffered` is the ping-pong idiom of a compiled program: it
hands the op the caller's buffer pair and returns the pair, so a full
circuit runs with O(1) state-sized allocations.  Every buffer the engine
allocates is recorded in an allocation log so tests can regression-check
allocation counts.

Conventions
-----------
* Amplitude index ``i`` encodes qubit ``q`` in bit ``q`` (little-endian):
  qubit 0 is the least-significant bit.
* When the state of ``n`` qubits is reshaped to shape ``(2,)*n`` in C order,
  qubit ``q`` corresponds to tensor axis ``n - 1 - q``.
* Gate matrices are little-endian over their ``qubits`` tuple: matrix index
  bit ``k`` corresponds to ``qubits[k]``.
* Matrices passed to the engine must not be mutated afterwards: the
  analysis and bound ops are memoized per matrix object (gate matrices are
  cached read-only instances, so this holds throughout the package).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from ..errors import KernelError
from . import native

__all__ = [
    "apply_matrix",
    "apply_diagonal",
    "apply_matrix_reference",
    "apply_gate_buffered",
    "qubit_axis",
    "expand_matrix",
    "analyze_matrix",
    "MatrixInfo",
    "tracked_empty",
    "reset_allocation_log",
    "allocation_log",
    "Workspace",
    "thread_workspace",
    "release_thread_workspace",
    "CompiledOp",
    "OpTemplate",
    "INPLACE_KINDS",
    "STREAM_KINDS",
    "unitary_template",
    "KernelItem",
    "KernelTemplate",
    "kernel_template",
    "takes_native",
]


def qubit_axis(num_qubits: int, qubit: int) -> int:
    """Tensor axis corresponding to *qubit* for a C-ordered ``(2,)*n`` tensor."""
    return num_qubits - 1 - qubit


# ---------------------------------------------------------------------------
# Allocation tracking
# ---------------------------------------------------------------------------

#: Sizes (element counts) of every buffer the engine has allocated since the
#: last :func:`reset_allocation_log`.  Workspace hits do not allocate.
_ALLOCATION_LOG: list[int] = []


def tracked_empty(size: int) -> np.ndarray:
    """Allocate a flat complex128 buffer, recording it in the allocation log.

    The buffer starts on a cache line (NumPy promises 16 bytes): a tile
    chunk of the native kernel body is then whole lines, which halves the
    cost of its strided gathers (measured 6.4 → 3.1 ms for a sweep of 128-byte
    chunks over 2^20 amplitudes)."""
    _ALLOCATION_LOG.append(int(size))
    raw = np.empty(int(size) + 3, dtype=np.complex128)
    start = (-raw.ctypes.data % 64) // 16
    return raw[start : start + int(size)]


def reset_allocation_log() -> None:
    """Clear the engine allocation log (see :func:`allocation_log`)."""
    _ALLOCATION_LOG.clear()


def allocation_log() -> list[int]:
    """Element counts of engine allocations since the last reset."""
    return list(_ALLOCATION_LOG)


# ---------------------------------------------------------------------------
# Matrix structure analysis (memoized per matrix object)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MatrixInfo:
    """Structural classification of a gate matrix by its exact zeros.

    ``kind`` is ``"diagonal"`` (``diagonal`` holds the entries),
    ``"permutation"`` (one nonzero per row and column: column ``c``'s sits
    in row ``perm[c]`` and is ``phases[c]``) or ``"dense"``.
    :func:`unitary_template` reads the first; the gate shape table of
    :mod:`repro.sim.fusion` is tested against all three.
    """

    kind: str
    k: int
    diagonal: np.ndarray | None = None
    perm: tuple[int, ...] | None = None
    phases: np.ndarray | None = None


# Shared across threads: entries are immutable and CPython dict get/set are
# atomic, so concurrent workers at worst recompute an entry.
_ANALYSIS_CACHE: dict[int, tuple[np.ndarray, MatrixInfo]] = {}
_ANALYSIS_CACHE_MAX = 4096


def analyze_matrix(matrix: np.ndarray) -> MatrixInfo:
    """Classify *matrix* by its exact zeros.  Memoized by matrix object
    identity."""
    key = id(matrix)
    hit = _ANALYSIS_CACHE.get(key)
    if hit is not None and hit[0] is matrix:
        return hit[1]
    info = _analyze_impl(matrix)
    if len(_ANALYSIS_CACHE) >= _ANALYSIS_CACHE_MAX:
        _ANALYSIS_CACHE.clear()
    _ANALYSIS_CACHE[key] = (matrix, info)
    return info


def _analyze_impl(matrix: np.ndarray) -> MatrixInfo:
    dim = matrix.shape[0]
    k = dim.bit_length() - 1

    # Structure detection is exact (== 0), not tolerance-based: library gate
    # matrices have exact zeros, and a numerically-noisy fused matrix must
    # stay dense to stay correct.
    diag = np.diag(matrix)
    if np.count_nonzero(matrix) == np.count_nonzero(diag) and np.array_equal(
        np.diag(diag), matrix
    ):
        d = np.ascontiguousarray(diag)
        return MatrixInfo(kind="diagonal", k=k, diagonal=d)

    if np.all(np.count_nonzero(matrix, axis=0) == 1) and np.all(
        np.count_nonzero(matrix, axis=1) == 1
    ):
        cols = np.arange(dim)
        rows = np.argmax(matrix != 0, axis=0)
        phases = np.ascontiguousarray(matrix[rows, cols])
        return MatrixInfo(
            kind="permutation", k=k, perm=tuple(int(r) for r in rows), phases=phases
        )

    return MatrixInfo(kind="dense", k=k)


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------


def _num_qubits(state: np.ndarray) -> int:
    n = int(state.size).bit_length() - 1
    if state.size != 1 << n:
        raise ValueError("state length is not a power of two")  # lint: config-error
    return n


def _check_qubits(qubits: Sequence[int], n: int) -> None:
    if any(not 0 <= q < n for q in qubits):
        raise ValueError(f"qubit indices {qubits} out of range for {n} qubits")  # lint: config-error
    if len(set(qubits)) != len(qubits):
        raise ValueError("duplicate qubits")  # lint: config-error


def _validate(state: np.ndarray, matrix: np.ndarray, qubits: Sequence[int]) -> int:
    k = len(qubits)
    n = _num_qubits(state)
    if matrix.shape != (1 << k, 1 << k):
        raise ValueError(f"matrix shape {matrix.shape} does not match {k} qubits")  # lint: config-error
    _check_qubits(qubits, n)
    return n


def _diag_broadcast(diagonal: np.ndarray, n: int, qubits: Sequence[int]) -> np.ndarray:
    """Reshape ``2^k`` diagonal entries to broadcast over the state tensor."""
    k = len(qubits)
    diag_tensor = diagonal.reshape((2,) * k)
    # diag index bit k-1 (first axis) is qubits[k-1]; align to state axes.
    src = list(range(k))
    dst_axes = [qubit_axis(n, q) for q in reversed(qubits)]
    order = np.argsort(dst_axes)
    diag_tensor = np.transpose(diag_tensor, axes=[src[i] for i in order])
    full_shape = [1] * n
    for axis in sorted(dst_axes):
        full_shape[axis] = 2
    return diag_tensor.reshape(full_shape)


# ---------------------------------------------------------------------------
# The per-thread buffer set
# ---------------------------------------------------------------------------


class Workspace:
    """Preallocated, reusable buffer set for op execution.

    All buffers come from :func:`tracked_empty` (so the
    allocation log stays honest) and are cached by size with a small LRU
    bound per pool — a fixed batch-width workload re-executes with zero
    allocations, while a workload cycling through many distinct batch
    widths evicts the least-recently-used pair instead of accumulating
    state-sized buffers without bound (workspaces are retained by the
    Session plan cache).  One workspace may be shared by a whole family of
    rebound programs — execution is sequential within a session — but must
    **not** be shared between threads; concurrent executors use
    :func:`thread_workspace`.
    """

    __slots__ = ("_pairs", "_pairs2d", "_tmps")

    #: LRU bounds per pool.  Pairs are state-sized (the expensive ones);
    #: tmps are at most half a (possibly batched) state and more varied in
    #: size, so they get a roomier bound — eviction mid-steady-state would
    #: show up as allocation-log noise in the regression tests.  Batched
    #: pairs are B× a full state and workspaces are retained by the
    #: Session plan cache, so only the most recent batch width is kept: a
    #: fan-out at B=16, n=24 would otherwise pin gigabytes per width long
    #: after the job finished.
    _MAX_PAIRS = 4
    _MAX_PAIRS2D = 1
    _MAX_TMPS = 64

    def __init__(self) -> None:
        #: size -> [state, scratch] flat ping-pong pair.
        self._pairs: "OrderedDict[int, list[np.ndarray]]" = OrderedDict()
        #: (batch, size) -> [(B, size) states, scratch] ping-pong pair.
        self._pairs2d: "OrderedDict[tuple[int, int], list[np.ndarray]]" = (
            OrderedDict()
        )
        #: (size, slot) -> flat temporary.
        self._tmps: "OrderedDict[tuple[int, int], np.ndarray]" = OrderedDict()

    def pair(self, size: int) -> list[np.ndarray]:
        """The ping-pong buffer pair for *size* amplitudes (a mutable list,
        so callers can persist the swapped roles)."""
        got = self._pairs.get(size)
        if got is None:
            if len(self._pairs) >= self._MAX_PAIRS:
                self._pairs.popitem(last=False)
            got = self._pairs[size] = [tracked_empty(size), tracked_empty(size)]
        else:
            self._pairs.move_to_end(size)
        return got

    def pair2d(self, batch: int, size: int) -> list[np.ndarray]:
        """The ``(batch, size)`` ping-pong pair for batched execution."""
        key = (batch, size)
        got = self._pairs2d.get(key)
        if got is None:
            if len(self._pairs2d) >= self._MAX_PAIRS2D:
                self._pairs2d.popitem(last=False)
            got = self._pairs2d[key] = [
                tracked_empty(batch * size).reshape(batch, size),
                tracked_empty(batch * size).reshape(batch, size),
            ]
        else:
            self._pairs2d.move_to_end(key)
        return got

    def tmp(self, size: int, slot: int = 0) -> np.ndarray:
        """A flat temporary of *size* elements; slots never alias."""
        key = (size, slot)
        buf = self._tmps.get(key)
        if buf is None:
            if len(self._tmps) >= self._MAX_TMPS:
                self._tmps.popitem(last=False)
            buf = self._tmps[key] = tracked_empty(size)
        else:
            self._tmps.move_to_end(key)
        return buf

    def clear(self) -> None:
        self._pairs.clear()
        self._pairs2d.clear()
        self._tmps.clear()


_WS_TLS = threading.local()


def thread_workspace() -> Workspace:
    """The calling thread's private :class:`Workspace` (created on first
    use) — the one per-thread buffer set of the engine.  Shard-runtime
    workers use this so compiled segment ops stay thread-safe while still
    reusing buffers across shards and stages; ``execute_plan``'s compiled
    path, the entry points of this module and fused-matrix fills run on it
    too.  The buffers persist
    for the thread's lifetime (that is what makes steady-state
    re-execution allocation-free) — long-lived services that only
    occasionally simulate very large states can reclaim the memory with
    :func:`release_thread_workspace`."""
    ws = getattr(_WS_TLS, "ws", None)
    if ws is None:
        ws = _WS_TLS.ws = Workspace()
    return ws


def release_thread_workspace() -> None:
    """Drop the calling thread's workspace buffers (state-sized ping-pong
    pairs, batch pairs, temporaries).  The next execution on
    this thread re-allocates them."""
    ws = getattr(_WS_TLS, "ws", None)
    if ws is not None:
        ws.clear()
        _WS_TLS.ws = None


#: Buffer discipline per op kind: every op that applies gates — a broadcast
#: diagonal or a kernel (``"sm"``) — updates the state buffer in place; a
#: layout transpose reads the state buffer and writes the scratch buffer in
#: full, swapping the ping-pong roles.  The static verifier
#: (:mod:`repro.check`) proves each op's declared ``mode`` against this
#: table without executing anything.
INPLACE_KINDS = frozenset({"diagonal", "sm"})
STREAM_KINDS = frozenset({"layout"})


class CompiledOp:
    """One fully-resolved operation of a compiled stream.

    ``run(states, scratch, ws)`` operates on ``(..., 2^n)`` buffers — a
    flat state is a stack of one — and returns the ``(states, scratch)``
    pair with roles possibly swapped (a layout op writes into scratch,
    every other op updates in place).  Row ``b`` of a stacked run equals the
    flat run of row ``b`` bit for bit.
    ``source`` names where in the plan the op came from and ``gates`` the
    gate objects its payload was resolved from — the rebind machinery
    reuses an op verbatim when a structurally identical plan binds equal
    gates at the same source.

    The remaining slots are *static metadata* mirroring what the closure
    actually does, consumed by :mod:`repro.check` to verify the stream
    without executing it: ``mode`` declares the ping-pong discipline
    (``"inplace"`` or ``"stream"``), ``qubits`` the physical qubit
    positions the payload touches (``None`` for whole-state layout ops)
    and ``tmp_slots`` the workspace temporary slots the closure borrows
    (slots must never alias within one op); an ``"sm"`` op — a whole
    shared-memory kernel — also lists its ``items``, in order, as
    ``(kind, physical positions, gates)`` (:class:`KernelItem` kinds).
    """

    __slots__ = ("kind", "run", "source", "gates", "mode", "qubits", "tmp_slots", "items")

    def __init__(
        self,
        kind: str,
        run: "Callable[..., tuple[np.ndarray, np.ndarray]]",
        source: tuple | None = None,
        gates: "tuple | None" = None,
        mode: str | None = None,
        qubits: tuple[int, ...] | None = None,
        tmp_slots: tuple[int, ...] = (),
        items: "tuple | None" = None,
    ) -> None:
        self.kind = kind
        self.run = run
        self.source = source
        self.gates = gates
        self.mode = mode if mode is not None else (
            "inplace" if kind in INPLACE_KINDS else "stream"
        )
        self.qubits = qubits
        self.tmp_slots = tmp_slots
        self.items = items

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<CompiledOp {self.kind} source={self.source}>"


# ---------------------------------------------------------------------------
# Op builders: a per-structure template, bound to a per-job payload
# ---------------------------------------------------------------------------


def _index_array(values: np.ndarray) -> np.ndarray:
    """*values* (non-negative gather positions) as a contiguous, read-only
    array of the smallest unsigned dtype that holds them — templates live
    as long as the program family they serve."""
    top = int(values.max()) if values.size else 0
    out = np.ascontiguousarray(values, dtype=np.min_scalar_type(top))
    out.setflags(write=False)
    return out


class OpTemplate:
    """The angle-independent part of one op.

    Everything that follows from *where* an op acts and from the zero/one
    structure of its payload — the kind, the gather index, a kernel's tile
    program — is resolved once, when the template is built.
    ``bind(payload)`` does only the numeric fill and returns the one
    ``run(states, scratch, ws)`` closure, written against ``(..., 2^n)``
    buffers; :meth:`op` wraps it with the op's static metadata.  A cold
    compile builds the template and binds it once; a rebind to new angles
    binds it again — the same code, so warm and cold programs cannot differ.

    A template built by :func:`unitary_template` is valid for every matrix
    with the :func:`~repro.circuits.gates.matrix_signature` of the one it
    was built from.
    """

    __slots__ = ("kind", "qubits", "tmp_slots", "bind")

    def __init__(
        self,
        kind: str,
        qubits: tuple[int, ...],
        bind: "Callable[[np.ndarray], Callable]",
        tmp_slots: tuple[int, ...] = (),
    ) -> None:
        self.kind = kind
        self.qubits = qubits
        self.bind = bind
        self.tmp_slots = tmp_slots

    def op(
        self, payload: np.ndarray, source: tuple | None = None, gates: "tuple | None" = None
    ) -> CompiledOp:
        return CompiledOp(
            self.kind, self.bind(payload), source, gates,
            qubits=self.qubits, tmp_slots=self.tmp_slots,
        )


class _GateFill(NamedTuple):
    """The filled item of a one-gate kernel (:func:`unitary_template`)."""

    matrix: np.ndarray


def unitary_template(matrix: np.ndarray, qubits: Sequence[int], n: int) -> OpTemplate:
    """The template of one unitary application; its payload is the matrix.

    A diagonal is a broadcast multiply wherever it sits.  Every other
    matrix is a one-item kernel (:func:`kernel_template` of one ``"gate"``
    item), the op every kernel of a plan runs: the tile pass where the
    kernel fits one, else the item loop.  Either drops the matrix's exact
    zeros at bind time, so a permutation or a controlled block costs only
    its nonzero terms.
    """
    qubits = tuple(qubits)
    if analyze_matrix(matrix).kind == "diagonal":
        dim = 1 << len(qubits)
        return _diag_template(np.arange(dim) * (dim + 1), qubits, n)
    kernel = kernel_template([KernelItem(qubits, "gate")], n)
    return OpTemplate(
        kernel.kind, qubits, lambda payload: kernel.bind((_GateFill(payload),)), kernel.tmp_slots
    )


def _diag_template(positions: np.ndarray, qubits: tuple[int, ...], n: int) -> OpTemplate:
    """Diagonal entry ``c`` sits at flat position ``positions[c]`` of the
    payload (a matrix, or the phase vector itself)."""
    index = _index_array(_diag_broadcast(positions, n, qubits))
    shape = (-1,) + (2,) * n

    def bind(payload):
        diag_b = payload.take(index)

        def run(states, scratch, ws):
            t = states.reshape(shape)
            np.multiply(t, diag_b, out=t)
            return states, scratch

        return run

    return OpTemplate("diagonal", qubits, bind)


# ---------------------------------------------------------------------------
# The kernel template: a shared-memory kernel is one op
# ---------------------------------------------------------------------------

#: A tile of the native body spans this many index bits — ``2^11`` amplitudes,
#: 32 KiB split re/im, L1-resident — or more when the kernel's positions and
#: index bits 0–2 need it.  The 27 shared-memory kernels of the 20-qubit
#: benchmark round take 82 ms at 10 or 11 bits, 87 ms at 12, 91 ms at 13.
_TILE_BITS = 11
#: Index bits 0–2 are always tile bits: gather and scatter then move
#: contiguous chunks of at least 128 bytes, and a tile row is whole vectors.
_TILE_LOW = 3
#: ``SM_MAX_TILE_BITS`` / ``SM_MAX_DENSE`` of ``smkernel.c``: ten active
#: positions plus the low three; the widest dense item applied in the tile.
_MAX_TILE_BITS = 13
_MAX_DENSE = 4
#: Below this a state is not worth a tile (and has no whole vector).
_MIN_NATIVE_QUBITS = 4
#: Widest monomial block (a folded run of diagonal/permutation gates, see
#: :func:`repro.sim.fusion.lower_kernel_gates`): the cost model's 10-qubit
#: shared-memory kernel limit, so a kernel of monomial gates is one item and
#: its ten positions plus index bits 0–2 fill :data:`_MAX_TILE_BITS`.
#: Narrower caps (4/6/8) measured slower than 10 at every state size from
#: 16 to 20 qubits (table in docs/performance.md).
MONOMIAL_WIDTH = 10
_SM_GATE1, _SM_DIAG, _SM_MOVE, _SM_GATHER, _SM_DENSE = range(5)


class KernelItem(NamedTuple):
    """The structure of one lowered item of a shared-memory kernel, as
    :func:`kernel_template` takes it: the physical positions it acts on —
    bit ``j`` of a block's index or a matrix's index is ``qubits[j]`` — and
    its ``kind``: ``"block"`` (a monomial block moving block index ``c`` to
    ``perm[c]``, ``perm=None`` the identity, ``phased`` false when every
    phase is one by construction), ``"gate"`` (one dense gate) or ``"fold"``
    (commuting 1q dense gates, one 2×2 per position).  An item's numbers
    arrive at bind time as an object with ``phases`` (block), ``matrix``
    (gate) and ``factors`` (a fold's 2×2s, in item-qubit order)."""

    qubits: tuple[int, ...]
    kind: str
    perm: "np.ndarray | None" = None
    phased: bool = True


class KernelTemplate(OpTemplate):
    """:func:`kernel_template`'s result: an :class:`OpTemplate` of kind
    ``"sm"`` whose payload is the kernel's filled items.  ``native`` says
    whether ``bind`` takes the C body; ``item_loop`` binds the NumPy item
    loop whatever ``bind`` takes — the same bits, and the native body's
    oracle.

    Under both sit the binds of bare numbers, which the plan compiler
    gathers from a gate table (:class:`repro.sim.fusion.GatherProgram`),
    one payload row per row of a ``(B, 2^n)`` stack or one row that serves
    every row: ``loop(rows)`` — per row, per item a block's phases, a
    gate's matrix or a fold's 2×2 factors —
    and, when ``native``, ``bind_numbers(numbers, fallback)`` — per row the
    one complex payload the C body reads (a ``(rows, size)`` array whose
    rows may sit apart), packed as ``fills`` say (``(item, mode, offset,
    index)``; :func:`_tile_program`), with
    *fallback* returning the item loop's run for a buffer the C body cannot
    walk.  ``bind`` packs filled items the same way (``pack``, the
    oracle) into one shared row."""

    __slots__ = ("items", "native", "item_loop", "loop", "bind_numbers", "pack", "fills")

    def op(
        self, payload: Sequence, source: tuple | None = None, gates: "tuple | None" = None
    ) -> CompiledOp:
        return self.compiled(
            self.bind(payload), source, gates, [filled.gates for filled in payload]
        )

    def compiled(
        self, run, source: tuple | None, gates: "tuple | None", item_gates: Sequence[tuple]
    ) -> CompiledOp:
        """The op of a *run* bound from this template, with its static
        metadata; *item_gates* are, per item, the gates it absorbed."""
        return CompiledOp(
            self.kind, run, source, gates, qubits=self.qubits, tmp_slots=self.tmp_slots,
            items=tuple([
                (item.kind, item.qubits, absorbed)
                for item, absorbed in zip(self.items, item_gates)
            ]),
        )


def _bits_to(count: int, moves) -> np.ndarray:
    """Per index of *count* bits, the value with bit ``to`` set wherever
    the index has bit ``frm`` set, for each ``(frm, to)`` of *moves* — a
    map linear in the bits (a deposit, an extract), built by doubling: one
    vector operation per index bit."""
    weights = [0] * count
    for frm, to in moves:
        weights[frm] |= 1 << to
    out = np.zeros(1 << count, dtype=np.int64)
    for bit, weight in enumerate(weights):
        np.bitwise_or(out[: 1 << bit], weight, out=out[1 << bit : 2 << bit])
    return out


def _relocation(count: int, where: Sequence[int], source: np.ndarray) -> np.ndarray:
    """Per index of *count* bits, the index its amplitude comes from when
    a block over bits *where* takes its block index ``t`` from
    ``source[t]``: the index with those bits replaced.  The replacement is
    linear in the block index, so it is two gathers over ``2^k`` and one
    over the indices."""
    target = _bits_to(count, [(position, j) for j, position in enumerate(where)])
    spread = _bits_to(len(where), enumerate(where))
    return np.arange(1 << count) ^ (spread ^ spread.take(source)).take(target)


def takes_native(items: Sequence[KernelItem], n: int) -> bool:
    """Whether :func:`kernel_template` binds a kernel of *items* on ``2^n``
    amplitudes to the native body (its ``native``): the library loads, the
    state has a whole tile row (``n >= 4``) and the kernel fits one tile —
    at most 13 tile bits, no dense gate wider than 4 qubits.  Host and
    structure decide it, never the numbers."""
    tile = {q for item in items for q in item.qubits} | set(range(_TILE_LOW))
    return (
        n >= _MIN_NATIVE_QUBITS
        and len(tile) <= _MAX_TILE_BITS
        and all(item.kind != "gate" or len(item.qubits) <= _MAX_DENSE for item in items)
        and native.library() is not None
    )


def _tile_program(items: Sequence[KernelItem], n: int, lane_bits: int):
    """The structural half of the native body for *items* on ``2^n``
    amplitudes (a kernel :func:`takes_native` accepts): ``(prog, tabs,
    fills, payload size)`` as ``smkernel.c`` reads them.

    The tile's bits are the kernel's positions, index bits 0–2 and the
    next-lowest free positions up to :data:`_TILE_BITS`, kept in physical
    order: tile-local bit ``i`` is the ``i``-th lowest of them, so the bits
    below the first gap are contiguous chunks of the state.  ``fills`` are
    ``(item, mode, offset, index)``: how a bind packs item payloads into the
    one complex payload (mode 0 a matrix, 1 a fold's factor ``index``, 2
    ``phases.take(index)``).
    """
    tile = {q for item in items for q in item.qubits} | set(range(_TILE_LOW))
    free = (p for p in range(n) if p not in tile)
    tile = sorted(tile | {next(free) for _ in range(min(n, _TILE_BITS) - len(tile))})
    bits = len(tile)
    local = {position: bit for bit, position in enumerate(tile)}
    chunk_bits = next((i for i, p in enumerate(tile) if p != i), bits)
    chunk_at = _bits_to(bits - chunk_bits, enumerate(tile[chunk_bits:]))

    words: list[list[int]] = []
    tabs: list[np.ndarray] = []
    fills: list[tuple] = []
    sizes = [0, 0]  # tabs entries, payload complexes

    def emit(code, a0=0, a1=0, a2=0, table=(), payload=0, where=()) -> int:
        words.append([code, a0, a1, a2, sizes[0], sizes[1], *where, *[0] * (4 - len(where))])
        for part in table:
            tabs.append(part)
            sizes[0] += len(part)
        sizes[1] += payload
        return sizes[1] - payload

    def emit_phases(index, where, order=None) -> None:
        """A diagonal pass over the tile: amplitude ``j`` times the phase of
        its block index (through *order*, a permuting block's source)."""
        low = [j for j, bit in enumerate(where) if bit < lane_bits]
        high = [j for j, bit in enumerate(where) if bit >= lane_bits]
        run_bits = min([where[j] for j in high], default=bits)
        entries = _bits_to(len(high), enumerate(high))
        if low:  # the block reaches into the vector: an entry is VL phases
            entries = entries[:, None] | _bits_to(lane_bits, [(where[j], j) for j in low])[None, :]
        entries = entries.reshape(-1)
        if order is not None:
            entries = order[entries]
        # Per run of the tile (its start's bits above run_bits), its block
        # index's high part.
        runs = _bits_to(bits - run_bits, [(where[j] - run_bits, t) for t, j in enumerate(high)])
        offset = emit(_SM_DIAG, run_bits, bool(low), table=[runs], payload=entries.size)
        fills.append((index, 2, offset, _index_array(entries)))

    for index, item in enumerate(items):
        where = [local[q] for q in item.qubits]
        if item.kind == "fold" or (item.kind == "gate" and len(where) == 1):
            for j, bit in enumerate(where):
                offset = emit(_SM_GATE1, bit, payload=4)
                fills.append((index, 1 if item.kind == "fold" else 0, offset, j))
        elif item.kind == "gate":
            offset = emit(
                _SM_DENSE, len(where), 0, min(where) >= lane_bits,
                payload=4 ** len(where), where=where,
            )
            fills.append((index, 0, offset, None))
        elif item.perm is None:
            if item.phased:
                emit_phases(index, where)
        else:
            source = np.empty(len(item.perm), dtype=np.int64)
            source[item.perm] = np.arange(len(item.perm))
            run_bits = min(where)
            if run_bits >= lane_bits:  # whole runs move, scaled on the way
                shifted = [bit - run_bits for bit in where]
                target = _bits_to(bits - run_bits, [(bit, j) for j, bit in enumerate(shifted)])
                offset = emit(
                    _SM_MOVE, run_bits, item.phased,
                    table=[_relocation(bits - run_bits, shifted, source), source[target]],
                    payload=len(source) if item.phased else 0,
                )
                if item.phased:
                    fills.append((index, 2, offset, _index_array(np.arange(len(source)))))
            else:
                emit(_SM_GATHER, table=[_relocation(bits, where, source)])
                if item.phased:
                    emit_phases(index, where, order=source)

    outer = [p for p in range(n) if p not in local]
    prog = np.array(
        [bits, chunk_bits, len(outer), len(words), *outer, *chunk_at.tolist(),
         *[word for item_words in words for word in item_words]],
        dtype=np.int64,
    )
    table = np.concatenate(tabs).astype(np.uint16) if tabs else np.zeros(1, np.uint16)
    return prog, table, fills, max(sizes[1], 1)


# The item loop: smkernel.c's float expressions, one ufunc per C operation,
# over the whole state as two float64 planes (re, then im).  A step reads
# the planes ``src`` and writes ``dst`` in full; ``tmp`` holds half of them.


def _products(out, tmp, a, x, b, y, add: bool) -> None:
    """``out = a*x ± b*y``, every product rounded on its own."""
    np.multiply(x, a, out=out)
    np.multiply(y, b, out=tmp)
    (np.add if add else np.subtract)(out, tmp, out=out)


#: A 1q gate whose position leaves contiguous runs this short or shorter
#: runs one strided pass per run offset instead (at 16 qubits a gate on
#: position 1 took 4.1 ms as runs of two, position 15 0.4 ms).
_SHORT_RUN = 4


def _gate1_step(position: int, matrix: np.ndarray) -> Callable:
    """``gate1_stride``: a 2×2 on *position*, in the form its exact zeros
    pick (``gate1_form``) — the forms differ in signed zeros only."""
    (ar, ai), (br, bi), (cr, ci), (dr, di) = [(v.real, v.imag) for v in matrix.reshape(-1).tolist()]
    r0, i0, r1, i1 = range(4)  # inputs and outputs: (plane, bit) = (0, 0), (1, 0), (0, 1), (1, 1)
    if ai == bi == ci == di == 0.0:
        rows = [[(ar, r0, br, r1, True)], [(ar, i0, br, i1, True)],
                [(cr, r0, dr, r1, True)], [(cr, i0, dr, i1, True)]]
    elif ai == di == br == cr == 0.0:
        rows = [[(ar, r0, bi, i1, False)], [(ar, i0, bi, r1, True)],
                [(dr, r1, ci, i0, False)], [(dr, i1, ci, r0, True)]]
    else:
        rows = [[(ar, r0, ai, i0, False), (br, r1, bi, i1, False)],
                [(ar, i0, ai, r0, True), (br, i1, bi, r1, True)],
                [(cr, r0, ci, i0, False), (dr, r1, di, i1, False)],
                [(cr, i0, ci, r0, True), (dr, i1, di, r1, True)]]
    low = 1 << position

    def step(src, dst, tmp, size):
        x, y, tmp = src.reshape(2, -1, 2, low), dst.reshape(2, -1, 2, low), tmp[:size]
        if low > _SHORT_RUN:
            parts = [(x, y, *tmp.reshape(2, -1, low))]
        else:  # runs too short for a ufunc's inner loop: one strided pass each
            half = size // (2 * low)
            parts = [(x[..., j], y[..., j], tmp[:half], tmp[half : 2 * half]) for j in range(low)]
        for xj, yj, t, u in parts:
            ins = (xj[0, :, 0], xj[1, :, 0], xj[0, :, 1], xj[1, :, 1])
            outs = (yj[0, :, 0], yj[1, :, 0], yj[0, :, 1], yj[1, :, 1])
            for out, pairs in zip(outs, rows):
                for at, (a, p, b, q, add) in zip((out, t), pairs):
                    _products(at, u, a, ins[p], b, ins[q], add)
                if len(pairs) == 2:
                    np.add(out, t, out=out)

    return step


def _dense_step(n: int, qubits: tuple, matrix: np.ndarray) -> Callable:
    """``dense_each``: row ``r``'s sum over the offsets ``dense_terms``
    keeps, term ``m[r][r ^ t] * x[r ^ t]``, the first one not added to
    zero.  A term is applied to every row ``r`` at once — ``x[r ^ t]`` is
    the state tensor with the axes of ``t``'s bits reversed, and the
    coefficients broadcast over it — so each row's products and sums run
    in the same order as one row at a time, at six ufunc calls a term."""
    d = len(matrix)
    r = np.arange(d)
    terms = [t for t in range(d) if np.any(matrix[r, r ^ t] != 0)]
    axes = [1 + qubit_axis(n, q) for q in qubits]  # behind the row axis
    coefficients = []
    for t in terms:
        flip = [slice(None)] * (1 + n)
        for j, axis in enumerate(axes):
            if (t >> j) & 1:
                flip[axis] = slice(None, None, -1)
        entries = matrix[r, r ^ t]
        coefficients.append((
            _diag_broadcast(entries.real.copy(), n, qubits),
            _diag_broadcast(entries.imag.copy(), n, qubits), tuple(flip),
        ))

    def step(src, dst, tmp, size):
        x, y = src.reshape((2, -1) + (2,) * n), dst.reshape((2, -1) + (2,) * n)
        yr, yi = y
        t, u = tmp[:size].reshape(yr.shape), tmp[size : 2 * size].reshape(yr.shape)
        if not coefficients:
            dst.fill(0.0)
        for i, (mr, mi, flip) in enumerate(coefficients):
            xr, xi = x[0][flip], x[1][flip]
            if i == 0:
                _products(yr, u, mr, xr, mi, xi, False)
                _products(yi, u, mr, xi, mi, xr, True)
                continue
            _products(t, u, mr, xr, mi, xi, False)
            np.add(yr, t, out=yr)
            _products(t, u, mr, xi, mi, xr, True)
            np.add(yi, t, out=yi)

    return step


def _copy_step(gather: np.ndarray) -> Callable:
    """A permuting block's copy: amplitude ``j`` of each chunk of
    ``len(gather)`` is amplitude ``gather[j]`` of the input's."""
    chunk = len(gather)

    def step(src, dst, tmp, size):
        np.take(src.reshape(-1, chunk), gather, axis=1, out=dst.reshape(-1, chunk), mode="clip")

    return step


def _phase_step(n: int, index: np.ndarray, phases: np.ndarray) -> Callable:
    """``diag``: each amplitude times the phase at its entry of *index*,
    broadcast over the ``(2,)*n`` state tensor."""
    pr, pi = phases.real.take(index), phases.imag.take(index)
    shape = (-1,) + (2,) * n

    def step(src, dst, tmp, size):
        x, y, t = src.reshape((2,) + shape), dst.reshape((2,) + shape), tmp[:size].reshape(shape)
        _products(y[0], t, pr, x[0], pi, x[1], False)
        _products(y[1], t, pr, x[1], pi, x[0], True)

    return step


def _planes(buf: "np.ndarray | None", size: int, ws, slot: int) -> np.ndarray:
    """*buf*'s memory as ``2 * size`` float64, or a workspace temporary's
    when it is ``None`` or not a contiguous ``complex128`` buffer of
    *size*."""
    if buf is None or buf.dtype != np.complex128 or not buf.flags.c_contiguous or buf.size != size:
        buf = ws.tmp(size, slot=slot)
    return buf.reshape(-1).view(np.float64)


def _rows(buf: np.ndarray, count: int) -> list[np.ndarray]:
    """*buf* as *count* row views — one row: the buffer as it is."""
    return [buf] if count == 1 else list(buf.reshape(count, -1))


def _item_pass(steps: Sequence[Callable], states, scratch, ws) -> None:
    """One item-loop pass of *steps* over the ``(..., 2^n)`` buffer
    *states*, in place: the state as two float64 planes (in *scratch*, or
    a workspace temporary), each step reading one set of planes and
    writing the other, the result copied back."""
    size = states.size
    here, there = _planes(scratch, size, ws, 1), _planes(states, size, ws, 2)
    tmp = ws.tmp(size, slot=0).view(np.float64)
    np.copyto(here[:size].reshape(states.shape), states.real)
    np.copyto(here[size:].reshape(states.shape), states.imag)
    for step in steps:
        step(here, there, tmp, size)
        here, there = there, here
    if np.may_share_memory(here, states):
        np.copyto(there, here)
        here = there
    np.copyto(states.real, here[:size].reshape(states.shape))
    np.copyto(states.imag, here[size:].reshape(states.shape))


def kernel_template(items: Sequence[KernelItem], n: int) -> KernelTemplate:
    """The template of one kernel — all its lowered *items* as **one**
    in-place op over ``(..., 2^n)`` buffers; its payload is the items
    filled with one job's numbers (:class:`KernelItem`).

    The op has two bodies and nothing selects between them but the host and
    the input.  The **native** body (``smkernel.c`` through
    :mod:`repro.sim.native`) sweeps the state once: per tile it gathers
    ``2^T`` amplitudes, applies every item there and scatters them back —
    a fold as its 2×2s, a block as phases looked up through a structural
    index map, a wider gate as a gather–matvec–scatter; a stack is the same
    call looped over rows, each row reading the one payload or its own, so
    row ``b`` is the flat run of its payload bit for bit, and a large pass is cut across the host's cores
    (:func:`repro.sim.native.apply_tiles`), the same bytes for any cut.  It is
    taken when :func:`takes_native` says so — the library loads, the state
    has a whole tile row (``n >= 4``) and the kernel fits a tile — and the
    buffer is a contiguous ``complex128`` one.  The **item loop** computes
    the C body's bits in NumPy: the state as two float64 planes (in the
    scratch buffer), one ufunc per C operation in the C body's order —
    products unfused, a dense item's sum in ``dense_terms`` order, a fold as
    its 2×2s in item-qubit order, a permuting block's copy before its
    phases.  It is every kernel's body where the native one is not taken
    and, as :attr:`KernelTemplate.item_loop`, the named oracle the native
    body is tested against, byte for byte.  Every executor reaches a kernel
    through this template, so every executor agrees with every other bit
    for bit, on any host.

    The item loop's shapes and index tables are built once per template,
    at its first bind (never, for a kernel that only runs natively); a
    bind picks each 2×2's form and each dense item's terms by its exact
    zeros.
    """
    items = tuple(items)
    qubits = tuple(sorted({q for item in items for q in item.qubits}))
    plans: list = []

    def plan(item: KernelItem) -> tuple:
        """A block's ``(gather, phase index)``: within a chunk up to its top
        position, each amplitude's source, and the entry of its phase —
        its source's."""
        source, gather = np.arange(1 << len(item.qubits)), None
        if item.kind == "block" and item.perm is not None:
            source[item.perm] = np.arange(len(item.perm))
            gather = _index_array(_relocation(1 + max(item.qubits), item.qubits, source))
        return gather, _index_array(_diag_broadcast(source, n, item.qubits))

    def steps_of(arrays) -> list:
        if not plans:
            plans.extend(plan(item) for item in items)
        steps: list = []
        for item, (gather, index), array in zip(items, plans, arrays):
            if item.kind == "fold":
                steps += [_gate1_step(q, factor) for q, factor in zip(item.qubits, array)]
            elif item.kind == "gate":
                steps.append(
                    _gate1_step(item.qubits[0], array) if len(item.qubits) == 1
                    else _dense_step(n, item.qubits, array)
                )
            else:
                if gather is not None:
                    steps.append(_copy_step(gather))
                if item.phased:
                    steps.append(_phase_step(n, index, array))
        return steps

    def loop(rows):
        """*rows*: per payload row, its items' arrays — one row serves
        every row of a buffer, else row ``b`` of the buffer runs row ``b``'s."""
        bound = [steps_of(arrays) for arrays in rows]

        def run(states, scratch, ws):
            if len(bound) > 1 and states.size != len(bound) << n:
                raise KernelError(f"a kernel bound for {len(bound)} rows ran {states.size >> n}")
            for steps, row, spare in zip(
                bound, _rows(states, len(bound)), _rows(scratch, len(bound))
            ):
                _item_pass(steps, row, spare, ws)
            return states, scratch

        return run

    def item_loop(payloads):
        return loop([[
            payload.phases if item.kind == "block"
            else payload.factors if item.kind == "fold" else payload.matrix
            for item, payload in zip(items, payloads)
        ]])

    template = KernelTemplate("sm", qubits, item_loop, tmp_slots=(0, 1, 2))
    template.items = items
    template.item_loop = item_loop
    template.loop = loop
    template.native = takes_native(items, n)
    template.fills, template.pack, template.bind_numbers = None, None, None
    if template.native:
        lib = native.library()
        prog, tabs, fills, size = _tile_program(items, n, lib.sm_lane_bits())
        row, outer_bits = 1 << n, int(prog[2])
        prog_at, tabs_at = prog.ctypes.data, tabs.ctypes.data

        def pack(payloads) -> np.ndarray:
            numbers = np.empty(size, dtype=np.complex128)
            for index, mode, offset, extra in fills:
                payload = payloads[index]
                if mode == 2:
                    np.take(payload.phases, extra, out=numbers[offset : offset + extra.size])
                else:
                    matrix = payload.matrix if mode == 0 else payload.factors[extra]
                    numbers[offset : offset + matrix.size] = matrix.reshape(-1)
            return numbers

        def bind_numbers(numbers, fallback):
            # *numbers*: one payload row per row of a buffer, or one row
            # that serves every row (stride 0); a row's numbers are
            # contiguous, the rows may sit anywhere.
            bound_rows = len(numbers)
            stride = numbers.strides[0] // numbers.itemsize if bound_rows > 1 else 0
            numbers_at = numbers.ctypes.data
            held: list = []

            # The default argument keeps the arrays behind the three
            # addresses alive as long as the closure.
            def run(states, scratch, ws, _held=(prog, tabs, numbers)):
                if states.dtype != np.complex128 or not states.flags.c_contiguous:
                    # Not a buffer the C body can walk: the item loop, bound
                    # on first need.
                    if not held:
                        held.append(fallback())
                    return held[0](states, scratch, ws)
                rows = states.size // row
                if stride and rows != bound_rows:
                    raise KernelError(f"a kernel bound for {bound_rows} rows ran {rows}")
                failed = native.apply_tiles(
                    states.ctypes.data, rows, row, rows << outer_bits, prog_at, tabs_at,
                    numbers_at, stride,
                )
                if failed:
                    raise KernelError(f"native kernel rejected its program (code {failed})")
                return states, scratch

            return run

        template.bind = lambda payloads: bind_numbers(
            pack(payloads)[None], lambda: item_loop(payloads)
        )
        template.bind_numbers, template.pack, template.fills = bind_numbers, pack, tuple(fills)
    return template


# ---------------------------------------------------------------------------
# Entry points: templates bound on first sight of a payload
# ---------------------------------------------------------------------------


def apply_matrix_reference(
    state: np.ndarray,
    matrix: np.ndarray,
    qubits: Sequence[int],
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Apply a unitary via the dense tensordot contraction, unconditionally.

    This is the seed implementation of :func:`apply_matrix`, kept as the
    correctness oracle for the engine's kernels — it shares no code with
    them — and as the baseline the benchmarks measure speedups against.
    Same ``out`` contract as :func:`apply_matrix`.
    """
    n = _validate(state, matrix, qubits)
    k = len(qubits)
    gate_tensor = np.ascontiguousarray(matrix).reshape((2,) * (2 * k))
    # Contract the gate's input axes with the state axes of its qubits.  The
    # matrix tensor's axes are (out_{k-1}, ..., out_0, in_{k-1}, ..., in_0):
    # the most significant matrix bit comes first in C order.
    axes = [qubit_axis(n, q) for q in reversed(qubits)]
    result = np.tensordot(gate_tensor, state.reshape((2,) * n), axes=(list(range(k, 2 * k)), axes))
    result = np.moveaxis(result, range(k), axes)
    if out is None:
        return np.ascontiguousarray(result).reshape(state.shape)
    # tensordot built a fresh array, so writing into out is safe even when
    # out is state.
    np.copyto(out.reshape(result.shape), result)
    return out


#: The bound ops of the entry points: ``(id(matrix), qubits, n, native)`` →
#: ``(matrix, run)`` and ``("diagonal", id(diagonal), qubits, n)``
#: → ``(diagonal, run)``, where ``native`` says whether the library loads —
#: a kernel is bound to the body the host has.  For callers outside any plan
#: that apply the same payload *object* again and again —
#: :class:`~repro.sim.statevector.StateVector`, whose gate matrices are
#: cached instances.  The payload is kept referenced so its id stays valid,
#: and an entry counts only while it is that object; a validated hit needs
#: no re-validation (the checks depend on the key alone).  Executors never
#: come here: compiled programs and shard schedules bind their templates
#: ahead of time, without memoizing, because a sweep's payloads never
#: recur — their entries could only pin dead operands and, at the bound,
#: wipe the entries that do recur.  Shared across threads: entries are
#: immutable and dict get/set are atomic.
_BOUND_OPS: dict[tuple, tuple] = {}
_BOUND_OPS_MAX = 4096


def _remember(key: tuple, entry: tuple) -> tuple:
    if len(_BOUND_OPS) >= _BOUND_OPS_MAX:
        _BOUND_OPS.clear()
    _BOUND_OPS[key] = entry
    return entry


def _unitary_op(
    state: np.ndarray, matrix: np.ndarray, qubits: Sequence[int]
) -> tuple[np.ndarray, Callable]:
    """``(matrix, run)``: :func:`unitary_template` bound to *matrix* for
    *qubits* of *state*."""
    qubits = tuple(qubits)
    n = _num_qubits(state)
    key = (id(matrix), qubits, n, native.library() is not None)
    hit = _BOUND_OPS.get(key)
    if hit is not None and hit[0] is matrix:
        return hit
    _validate(state, matrix, qubits)
    return _remember(key, (matrix, unitary_template(matrix, qubits, n).bind(matrix)))


def _diagonal_op(
    state: np.ndarray, diagonal: np.ndarray, qubits: Sequence[int]
) -> tuple[np.ndarray, Callable]:
    """``(diagonal, run)``: the diagonal template bound to the phase vector
    *diagonal* for *qubits* of *state*."""
    qubits = tuple(qubits)
    n = _num_qubits(state)
    key = ("diagonal", id(diagonal), qubits, n)
    hit = _BOUND_OPS.get(key)
    if hit is not None and hit[0] is diagonal:
        return hit
    k = len(qubits)
    if len(diagonal) != 1 << k:
        raise ValueError(  # lint: config-error
            f"phase vector of length {len(diagonal)} does not match {k} qubits"
        )
    _check_qubits(qubits, n)
    template = _diag_template(np.arange(1 << k), qubits, n)
    return _remember(key, (diagonal, template.bind(diagonal)))


def _inplace_target(state: np.ndarray, out: np.ndarray | None) -> np.ndarray:
    """The buffer an op updates under the ``out`` contract: *state* itself,
    or *out* holding a copy of it — allocated when ``None``, else checked
    to hold as many amplitudes as *state*."""
    if out is state:
        return state
    if out is None:
        out = tracked_empty(state.size)
    elif out.size != state.size:
        raise ValueError(f"out has {out.size} amplitudes, expected {state.size}")  # lint: config-error
    np.copyto(out.reshape(state.shape), state)
    return out


def apply_matrix(
    state: np.ndarray,
    matrix: np.ndarray,
    qubits: Sequence[int],
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Apply a ``2^k × 2^k`` unitary to the given *qubits* of *state*.

    Parameters
    ----------
    state:
        Flat complex array of length ``2^n``.  Never modified unless
        ``out is state``.
    matrix:
        Little-endian unitary over *qubits*; must not be mutated later
        (the bound op is memoized per matrix object).
    qubits:
        Target qubit indices; ``qubits[0]`` is the least-significant bit of
        the matrix index.
    out:
        Output buffer (see the module docstring for the full contract):
        ``None`` allocates, a distinct same-size array receives the result,
        and ``out is state`` updates in place.

    Returns
    -------
    numpy.ndarray
        The array holding the transformed state: ``out`` when provided,
        otherwise a new C-contiguous array.
    """
    run = _unitary_op(state, matrix, qubits)[-1]
    out = _inplace_target(state, out)
    run(out, None, thread_workspace())
    return out


def apply_diagonal(
    state: np.ndarray,
    diagonal: np.ndarray,
    qubits: Sequence[int],
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Apply a diagonal gate given by its ``2^k`` diagonal entries.

    Diagonal gates multiply each amplitude by a phase that depends only on
    the bits of the target qubits — a single broadcasted elementwise
    multiply, no data movement.  Same ``out`` contract as
    :func:`apply_matrix`: pass ``out=state`` for the in-place update (the
    historical behaviour of this function), ``out=None`` for a pure call.
    """
    run = _diagonal_op(state, diagonal, qubits)[-1]
    out = _inplace_target(state, out)
    run(out, None, thread_workspace())
    return out


def apply_gate_buffered(
    state: np.ndarray,
    scratch: np.ndarray,
    matrix: np.ndarray,
    qubits: Sequence[int],
) -> tuple[np.ndarray, np.ndarray]:
    """Ping-pong gate application: returns ``(new_state, new_scratch)``.

    This is :func:`unitary_template` bound to *matrix* (memoized per matrix
    object) and run on the caller's buffer pair, as a compiled program runs
    its ops: the gate updates *state* in place, and a kernel's item loop
    works in *scratch*.  Callers thread both returned arrays into the next
    call, as they would a program's.
    """
    run = _unitary_op(state, matrix, qubits)[-1]
    return run(state, scratch, thread_workspace())


def expand_matrix(
    matrix: np.ndarray, gate_qubits: Sequence[int], target_qubits: Sequence[int]
) -> np.ndarray:
    """Embed *matrix* (over *gate_qubits*) into the space of *target_qubits*.

    ``target_qubits`` must be a superset of ``gate_qubits``.  The returned
    matrix is little-endian over ``target_qubits`` and acts as the identity
    on the extra qubits.
    """
    target = list(target_qubits)
    missing = [q for q in gate_qubits if q not in target]
    if missing:
        raise ValueError(f"gate qubits {missing} not contained in target {target}")  # lint: config-error
    k = len(gate_qubits)
    m = len(target)
    if matrix.shape != (1 << k, 1 << k):
        raise ValueError("matrix shape does not match gate qubits")  # lint: config-error

    # Positions of the gate qubits within the target ordering.
    pos = [target.index(q) for q in gate_qubits]
    dim = 1 << m
    out = np.zeros((dim, dim), dtype=np.complex128)

    other_pos = [p for p in range(m) if p not in pos]
    gate_dim = 1 << k
    # Index contribution of the gate bits and of every non-gate assignment;
    # one broadcasted fancy assignment places all 2^(m-k) diagonal blocks.
    row_idx = np.zeros(gate_dim, dtype=np.int64)
    for bit_k in range(k):
        row_idx |= (((np.arange(gate_dim) >> bit_k) & 1) << pos[bit_k]).astype(np.int64)
    rest_count = 1 << len(other_pos)
    rest_idx = np.zeros(rest_count, dtype=np.int64)
    for j, p in enumerate(other_pos):
        rest_idx |= (((np.arange(rest_count) >> j) & 1) << p).astype(np.int64)
    rows = rest_idx[:, None] + row_idx[None, :]
    out[rows[:, :, None], rows[:, None, :]] = matrix
    return out
