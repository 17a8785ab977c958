"""The gate-application engine: kernels, op templates, and the entry points.

Everything that applies a gate to a dense state vector — or to one shard of
it — lives here, once.  Three layers, bottom up:

**Kernels.**  :func:`analyze_matrix` classifies a matrix by its exact zero
pattern and every class has a cheapest NumPy/BLAS form:

``diagonal``
    Elementwise multiply — one pass over the state, no data movement.
``permutation``
    The matrix has exactly one non-zero per row/column (X, Y, CX, SWAP,
    CCX, ...).  Applied as slice copies: only the moved slices are touched
    (a CX touches half the state, never the control-0 half).
``controlled``
    Identity except on the subspace where every control bit is 1 (CH,
    CRX, CRY, CU, ...).  The reduced target unitary is applied on the
    controlled subspace only — a 2× flop/byte win per control qubit.
``dense``
    One streaming BLAS ``matmul`` (a few for a 2q gate outside every
    window of the position table, :func:`_gemm_strategy`) writing straight
    into the output buffer — no intermediate copies.  Wide fused matrices
    (k ≥ 3) run here whenever the planner covers their qubit tuple.
``big``
    Genuinely scattered wide tuples: the ``tensordot`` contraction.

**Op templates.**  :func:`unitary_template` is the one function that turns
a classification and a position into a kernel choice; it,
:func:`monomial_template` (a folded run of diagonal/permutation gates) and
:func:`kernel_template` (a whole kernel: all its lowered items in one pass
over the state, through the C body of :mod:`repro.sim.native` when the
host has it, else through the item loop, which computes the same bits)
return an :class:`OpTemplate` — everything that follows from *where* the op
acts and from the zero/one structure of its matrix — whose ``bind`` does
the numeric fill and returns **one** closure, ``run(states, scratch, ws)``,
written against ``(..., 2^n)`` buffers: a flat state is a stack of one.
Leading axes are taken from ``states.ndim``; elementwise and copy kernels
just loop longer (no multiply runs from one view into another of the same
buffer, and a view keeps ``2^_MIN_VIEW_BITS`` amplitudes, so a longer loop
rounds no differently), and the gemm forms keep the stack a *looped* leading
matmul axis, never a gemm dimension (:func:`run_dense_plan`), so row ``b``
of a stacked run is the flat run of row ``b`` bit for bit — ``big`` (one
tensordot over the stack) within ``2^k`` ulp.  Structured kinds update the
state buffer in place, streaming kinds write the scratch buffer in full and
the ping-pong roles swap; temporaries and memoized slice views come from a
:class:`Workspace`, one per thread (:func:`thread_workspace`).  Compiled
programs (:mod:`repro.sim.program`, :mod:`repro.runtime.compile`) and
shard segments bind these templates ahead of time.

**Entry points.**  :func:`apply_gate_buffered`, :func:`apply_matrix` and
:func:`apply_diagonal` are the same templates bound on first sight of a
payload object and memoized by its identity, run on the calling thread's
workspace.  They are what :class:`~repro.sim.statevector.StateVector`
calls; no runtime does: every op an executor runs — a kernel, or a shard's
variant of a gate on non-local qubits — is the plan compiler's, bound with
its program or shard schedule.  The kernels' numerics are
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

A structured gate asked for a distinct ``out`` is "copy, then update in
place"; a streaming gate asked for ``out is state`` is "snapshot into a
workspace temporary, then stream back".  :func:`apply_gate_buffered` is the
ping-pong idiom itself: it hands the op the caller's buffer pair and
returns it with the roles possibly swapped, so a full circuit runs with
O(1) state-sized allocations.  Every buffer the engine allocates is
recorded in an allocation log so tests can regression-check allocation
counts.

Conventions
-----------
* Amplitude index ``i`` encodes qubit ``q`` in bit ``q`` (little-endian):
  qubit 0 is the least-significant bit.
* When the state of ``n`` qubits is reshaped to shape ``(2,)*n`` in C order,
  qubit ``q`` corresponds to tensor axis ``n - 1 - q``.
* Gate matrices are little-endian over their ``qubits`` tuple: matrix index
  bit ``k`` corresponds to ``qubits[k]``.
* Matrices passed to the engine must not be mutated afterwards: dispatch
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
    "run_dense_plan",
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
    "monomial_template",
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
    """Dispatch classification of a gate matrix.

    ``kind`` is one of ``"diagonal"``, ``"permutation"``, ``"controlled"``,
    ``"dense"`` (k ≤ 2) or ``"big"`` (tensordot fallback).  For
    ``controlled``, ``controls``/``targets`` are bit positions within the
    gate's little-endian index and ``reduced_info`` classifies the target
    block (never itself ``controlled``: control detection is maximal).
    """

    kind: str
    k: int
    diagonal: np.ndarray | None = None
    perm: tuple[int, ...] | None = None
    phases: np.ndarray | None = None
    controls: tuple[int, ...] = ()
    targets: tuple[int, ...] = ()
    reduced_matrix: np.ndarray | None = None
    reduced_info: "MatrixInfo | None" = None


# Shared across threads: entries are immutable and CPython dict get/set are
# atomic, so concurrent workers at worst recompute an entry.
_ANALYSIS_CACHE: dict[int, tuple[np.ndarray, MatrixInfo]] = {}
_ANALYSIS_CACHE_MAX = 4096


def analyze_matrix(matrix: np.ndarray) -> MatrixInfo:
    """Classify *matrix* for dispatch.  Memoized by matrix object identity."""
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
    # fall through to the dense paths to stay correct.
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

    if k >= 2:
        eye = np.eye(dim, dtype=matrix.dtype)
        controls = []
        for p in range(k):
            zero = (np.arange(dim) >> p) & 1 == 0
            if np.array_equal(matrix[zero], eye[zero]) and np.array_equal(
                matrix[:, zero], eye[:, zero]
            ):
                controls.append(p)
        if controls and len(controls) < k:
            targets = tuple(p for p in range(k) if p not in controls)
            all_ones = np.all(
                [((np.arange(dim) >> p) & 1).astype(bool) for p in controls], axis=0
            )
            sel = np.flatnonzero(all_ones)
            reduced = np.ascontiguousarray(matrix[np.ix_(sel, sel)])
            reduced_info = _analyze_impl(reduced)
            # Never diagonal or monomial here: identity ⊕ monomial is itself
            # monomial and was classified above.
            if reduced_info.kind == "dense":
                return MatrixInfo(
                    kind="controlled",
                    k=k,
                    controls=tuple(controls),
                    targets=targets,
                    reduced_matrix=reduced,
                    reduced_info=reduced_info,
                )

    if k <= 2:
        return MatrixInfo(kind="dense", k=k)
    return MatrixInfo(kind="big", k=k)


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


def _basis_views(
    buf: np.ndarray,
    n: int,
    qubits: Sequence[int],
    fixed: Sequence[tuple[int, int]] = (),
    lead: int = 0,
) -> list[np.ndarray]:
    """The ``2^k`` sub-views of *buf* — ``2^n`` amplitudes behind ``lead``
    batch axes — indexed by the basis of *qubits*.

    ``fixed`` pins additional ``(axis, bit)`` pairs of the ``(2,)*n``
    tensor (used to restrict to a controlled subspace).  The leading axes
    are kept whole in every view.  View ``b`` fixes qubit ``qubits[j]`` to
    bit ``j`` of ``b``.
    """
    axes = [lead + qubit_axis(n, q) for q in qubits]
    # Trailing dummy axis so a fully-indexed result is still a (1,)-shaped
    # writable view rather than a 0-d scalar copy.
    tensor = buf.reshape(buf.shape[:lead] + (2,) * n + (1,))
    base: list = [slice(None)] * (lead + n + 1)
    for ax, bit in fixed:
        base[lead + ax] = bit
    views = []
    for b in range(1 << len(qubits)):
        idx = list(base)
        for j, ax in enumerate(axes):
            idx[ax] = (b >> j) & 1
        views.append(tensor[tuple(idx)])
    return views


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


class _CallerOwned:
    """What an op sees of a :class:`Workspace` when it runs on buffers the
    caller owns (the entry points at the bottom of this module): the same
    temporaries, but slice views built per call.  The view memo is keyed by
    buffer identity and its views hold their base alive — fed buffers
    nobody keeps, it would pin every state ever passed in."""

    __slots__ = ("tmp",)
    views = staticmethod(_basis_views)

    def __init__(self, workspace: "Workspace") -> None:
        self.tmp = workspace.tmp


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

    __slots__ = ("_pairs", "_pairs2d", "_tmps", "_views", "_views_held")

    #: LRU bounds per pool.  Pairs are state-sized (the expensive ones);
    #: tmps are at most half a (possibly batched) state and more varied in
    #: size, so they get a roomier bound — eviction mid-steady-state would
    #: show up as allocation-log noise in the regression tests.  Batched
    #: pairs are B× a full state and workspaces are retained by the
    #: Session plan cache, so only the most recent batch width is kept: a
    #: fan-out at B=16, n=24 would otherwise pin gigabytes per width long
    #: after the job finished.  The view memo is bounded by the total
    #: number of views it holds (an entry is the 2^k views of one qubit
    #: tuple over one buffer); entries for evicted buffers are dropped
    #: eagerly so they never pin dead pairs.
    _MAX_PAIRS = 4
    _MAX_PAIRS2D = 1
    _MAX_TMPS = 64
    _MAX_VIEWS = 1 << 15

    def __init__(self) -> None:
        #: size -> [state, scratch] flat ping-pong pair.
        self._pairs: "OrderedDict[int, list[np.ndarray]]" = OrderedDict()
        #: (batch, size) -> [(B, size) states, scratch] ping-pong pair.
        #: Persistent array objects (not per-call reshapes) so the view
        #: memo keyed by buffer identity stays warm across runs.
        self._pairs2d: "OrderedDict[tuple[int, int], list[np.ndarray]]" = (
            OrderedDict()
        )
        #: (size, slot) -> flat temporary.
        self._tmps: "OrderedDict[tuple[int, int], np.ndarray]" = OrderedDict()
        #: (view key, buffer id) -> (buffer, views).  The key names *which*
        #: views — ``(lead, n, qubits, fixed bits)`` — not which op asked:
        #: a rebound program's new ops (same qubits, new phases) reuse the
        #: views their predecessors built instead of orphaning them.
        #: Per-workspace — and a workspace belongs to exactly one thread —
        #: so the memo needs no lock and scales with however many workers
        #: exist, each warming its own entries (a shared fixed-size cache
        #: would thrash once worker buffers outnumbered it).
        self._views: "OrderedDict[tuple, tuple]" = OrderedDict()
        self._views_held = 0

    def pair(self, size: int) -> list[np.ndarray]:
        """The ping-pong buffer pair for *size* amplitudes (a mutable list,
        so callers can persist the swapped roles)."""
        got = self._pairs.get(size)
        if got is None:
            if len(self._pairs) >= self._MAX_PAIRS:
                self._drop_views_for(self._pairs.popitem(last=False)[1])
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
                self._drop_views_for(self._pairs2d.popitem(last=False)[1])
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

    def views(
        self,
        buf: np.ndarray,
        n: int,
        qubits: tuple[int, ...],
        fixed: tuple[tuple[int, int], ...] = (),
        lead: int = 0,
    ) -> list[np.ndarray]:
        """Memoized :func:`_basis_views` of *buf*: the
        ``2^k`` slice views over *qubits* (``fixed`` pins further
        ``(axis, bit)`` pairs, ``lead=1`` keeps a leading batch axis).

        A program's ping-pong buffers (and a shard worker's device
        buffers) are stable across executions, so the views a structured
        op needs are built once per (qubit tuple, buffer) — the dominant
        Python overhead of in-place ops on small states.  Entries are
        verified by buffer identity and evicted LRU once the memo holds
        more than ``_MAX_VIEWS`` views in total.
        """
        key = (lead, n, qubits, fixed, id(buf))
        hit = self._views.get(key)
        if hit is not None and hit[0] is buf:
            self._views.move_to_end(key)
            return hit[1]
        value = _basis_views(buf, n, qubits, fixed, lead)
        if hit is not None:  # a recycled id: the old buffer is gone
            self._views_held -= len(self._views.pop(key)[1])
        self._views[key] = (buf, value)
        self._views_held += len(value)
        while self._views_held > self._MAX_VIEWS and len(self._views) > 1:
            _key, (_buf, dropped) = self._views.popitem(last=False)
            self._views_held -= len(dropped)
        return value

    def for_caller_buffers(self) -> _CallerOwned:
        """This workspace as handed to an op run on the caller's own
        buffers.  Built per call: a face kept on the workspace would close
        a reference cycle, and a discarded program's state-sized buffers
        would wait for the cycle collector instead of going with it."""
        return _CallerOwned(self)

    def _drop_views_for(self, bufs: list[np.ndarray]) -> None:
        """Forget view entries over evicted buffers (views hold their base
        array alive — without this, dead pairs would stay pinned)."""
        dead = [
            key for key, (buf, _views) in self._views.items()
            if any(buf is b for b in bufs)
        ]
        for key in dead:
            self._views_held -= len(self._views.pop(key)[1])

    def clear(self) -> None:
        self._pairs.clear()
        self._pairs2d.clear()
        self._tmps.clear()
        self._views.clear()
        self._views_held = 0


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
    pairs, batch pairs, temporaries, view memos).  The next execution on
    this thread re-allocates them."""
    ws = getattr(_WS_TLS, "ws", None)
    if ws is not None:
        ws.clear()
        _WS_TLS.ws = None


# ---------------------------------------------------------------------------
# Specialized kernels
# ---------------------------------------------------------------------------


def _dense_accumulate(
    in_views: list[np.ndarray],
    out_views: list[np.ndarray],
    matrix: np.ndarray,
    tmp: np.ndarray,
) -> None:
    """``out_views[r] = Σ_c matrix[r, c] · in_views[c]`` with zero-skipping.

    ``out_views`` must not alias ``in_views``; ``tmp`` is a work buffer of
    the common view shape.
    """
    d = len(in_views)
    for r in range(d):
        ov = out_views[r]
        started = False
        for c in range(d):
            coef = matrix[r, c]
            if coef == 0:
                continue
            if not started:
                np.multiply(in_views[c], coef, out=ov)
                started = True
            else:
                np.multiply(in_views[c], coef, out=tmp)
                ov += tmp
        if not started:
            ov[...] = 0


def _dense_views_inplace(
    views: list[np.ndarray], matrix: np.ndarray, snap: np.ndarray, tmp: np.ndarray
) -> None:
    """In-place dense update of basis *views* via a snapshot: ``snap``
    (``d · view.size`` elements) and ``tmp`` (``view.size``) are workspace
    buffers."""
    d = len(views)
    vsize = views[0].size
    vshape = views[0].shape
    snap_views = [snap[c * vsize : (c + 1) * vsize].reshape(vshape) for c in range(d)]
    for c in range(d):
        np.copyto(snap_views[c], views[c])
    _dense_accumulate(snap_views, views, matrix, tmp.reshape(vshape))


#: A contiguous run of qubits whose top position is below this is applied by
#: a single right-multiply gemm with the matrix expanded over all lower index
#: bits (at most ``2**_GEMM_EDGE`` = 32 columns).  The per-position table in
#: docs/performance.md puts the crossover here for every width: a 32-column
#: gemm (≈ 5 state copies) beats the batched matmul it replaces, whose post
#: dimension would be ``2**q0`` ≤ 16; a 64-column one (≈ 9) loses to it.
#: Above the edge a run is one batched ("stacked") matmul, which reaches its
#: plateau (≈ 2 copies) only once the post dimension passes ~128: positions
#: 3–5 have no cheap plan at any width, which is why the dense-run fold
#: (:data:`DENSE_FOLD_WIDTH`) shares those sweeps between gates instead.
_GEMM_EDGE = 5

#: Lowest position a stacked run may start at: with a post dimension of 1 or
#: 2 the batched matmul is pure dispatch (3q at position 1: 15 state copies
#: against 3.4 through the 2x-inflated right gemm).  Measured at every width
#: a fused kernel can have (k = 3..8 at 16, 17 and 20 qubits, "Wide runs at
#: position 1" in docs/performance.md: the right gemm costs 0.4–0.8x the
#: stacked matmul even as a 512-column one); ``run_bench`` times both per
#: width (``wide_low``) and gates the pick.  From position 2 up the stacked
#: matmul wins for k ≥ 4.
_STACKED_MIN_LOW = 2

#: The dense-run fold of :func:`repro.sim.fusion.kernel_lowering`, read off
#: the same table: commuting 1q dense gates on adjacent physical positions
#: fold into one gemm.  Below :data:`_GEMM_EDGE` a group keeps growing — it
#: is one right gemm whose cost is set by its top position, not by how many
#: gates it carries; above, groups hold this many positions (a 2q stacked
#: matmul costs 2.1–2.6 copies where a 1q one costs 1.7–2.4; a third qubit
#: doubles the flops for a gain inside this host's noise).
DENSE_FOLD_WIDTH = 2

#: Widest monomial block (a folded run of diagonal/permutation gates, see
#: :func:`repro.sim.fusion.lower_kernel_gates`): the cost model's 10-qubit
#: shared-memory kernel limit, so a kernel of monomial gates is one op.  A
#: diagonal block is one broadcast multiply whatever its width; a block that
#: permutes is one gather or ``2^k`` slice moves of ``2^(n-k)`` amplitudes,
#: and narrower caps (4/6/8) measured slower than 10 at every state size
#: from 16 to 20 qubits (table in docs/performance.md).
MONOMIAL_WIDTH = 10

#: A permuting block whose qubits all sit below this position is applied as
#: one ``np.take`` through a ``2^h``-entry source index (``h`` = its top
#: qubit + 1, so the index is at most 512 KiB) instead of ``2^k`` slice
#: moves: two NumPy calls whatever the block width, which is what keeps
#: wide blocks from losing to gate-at-a-time execution on small states.
_MONOMIAL_GATHER_BITS = 16


#: Widest contiguous run the stacked wide-gemm plan accepts.  Beyond it the
#: batched matmul's short post dimension starves BLAS (measured: 1.35x over
#: tensordot at k=8, 0.86x at k=10) and the tensordot fallback wins.
_WIDE_STACKED_MAX = 8

#: Widest gate for which a one-spare-bit (2x flop inflation) low/high
#: window is accepted: the doubled gemm only beats tensordot's transpose
#: overhead while the expanded matrix is small (≤ 2^6 = 64 columns).
_WIDE_HOLE_MAX = 6


def _gemm_strategy(qubits: Sequence[int], n: int) -> str | None:
    """The dense planner's position table: the single-matmul strategy for
    a dense gate on *qubits* of an ``n``-qubit state — ``"gemm_right"``,
    ``"gemm_left"`` or ``"stacked"`` — or ``None`` when only the fallbacks
    remain (the split plans for a 2q gate, the tensordot contraction for a
    wider one).  Every threshold lives here: :func:`_dense_plan_impl` builds
    the operands of whatever this returns and
    :func:`_single_gemm_plannable` is "not ``None``".

    A contiguous run (every 1q gate is one) goes through the right gemm
    while its expanded matrix stays within ``2**_GEMM_EDGE`` columns or the
    run starts below :data:`_STACKED_MIN_LOW`, else through one stacked
    matmul with the run merged into a single ``2^k`` axis — also at the top
    of the register, where an expanded left gemm is never cheaper (its
    inflation is paid in flops; the stacked plan's batch count only
    shrinks).  Mid-register runs wider than :data:`_WIDE_STACKED_MAX` have
    no plan.  Qubits with holes between them plan when they fit a low
    (right gemm) or high (left gemm) window: six index bits for a 2q gate,
    one spare bit for a wider one while the window stays within
    :data:`_WIDE_HOLE_MAX` bits.
    """
    k = len(qubits)
    q0, q1 = min(qubits), max(qubits)
    if q1 - q0 + 1 == k:
        if k > _WIDE_STACKED_MAX:
            # Only at a register edge, where the run is one exact gemm.
            return "gemm_right" if q0 == 0 else "stacked" if q1 == n - 1 else None
        if q1 < _GEMM_EDGE or q0 < _STACKED_MIN_LOW:
            return "gemm_right"
        return "stacked"
    if k == 2:
        window = _GEMM_EDGE + 1
    elif k + 1 <= _WIDE_HOLE_MAX:
        window = k + 1
    else:
        return None
    if q1 < window:
        return "gemm_right"
    if q0 >= n - window:
        return "gemm_left"
    return None


def _reorder_matrix_bits(matrix: np.ndarray, qubits: tuple[int, ...]) -> np.ndarray:
    """Permute *matrix* index bits so bit ``p`` maps to ``sorted(qubits)[p]``.

    The engine's little-endian convention ties matrix index bit ``j`` to
    ``qubits[j]``; the stacked wide-gemm plan needs the bits in ascending
    qubit order so the contiguous qubit run merges into one tensor axis.
    """
    if list(qubits) == sorted(qubits):
        return matrix
    k = len(qubits)
    pos = {q: p for p, q in enumerate(sorted(qubits))}
    ar = np.arange(1 << k)
    idx = np.zeros(1 << k, dtype=np.int64)
    for j, q in enumerate(qubits):
        idx |= ((ar >> pos[q]) & 1) << j
    return matrix[np.ix_(idx, idx)]


def _dense_plan_impl(matrix: np.ndarray, n: int, qubits: tuple[int, ...]) -> tuple:
    """Choose (:func:`_gemm_strategy`) and precompute the gemm plan of a
    dense gate: one BLAS ``matmul`` — or, for a 2q gate outside every
    window, a few — writing directly into the output buffer, no transpose
    copies of the state.  A wider gate outside every window has no plan
    (callers route it to the tensordot contraction first).
    """
    strategy = _gemm_strategy(qubits, n)
    q0, q1 = min(qubits), max(qubits)
    if strategy == "gemm_right":
        # out_row = state_row @ B^T with B over index bits 0..q1.
        b = expand_matrix(matrix, qubits, range(q1 + 1))
        return ("gemm_right", np.ascontiguousarray(b.T), 1 << (q1 + 1))
    if strategy == "gemm_left":
        # out_col = B @ state_col with B over index bits q0..n-1.
        b = expand_matrix(matrix, [q - q0 for q in qubits], range(n - q0))
        return ("gemm_left", np.ascontiguousarray(b), 1 << (n - q0))
    if strategy == "stacked":
        # Batched (2^k, 2^k) @ (2^k, post): the run merges into one axis.
        m = np.ascontiguousarray(_reorder_matrix_bits(matrix, tuple(qubits)))
        return ("stacked", m, 1 << (n - q1 - 1), 1 << len(qubits), 1 << q0)
    if len(qubits) != 2:
        raise KernelError(f"no gemm plan for qubits {tuple(qubits)} of {n}")
    # Non-adjacent: block over the high qubit (outer axis, so each block is
    # a reshapeable view) and contract the low qubit inside each block.
    g = matrix.reshape(2, 2, 2, 2)  # (out_b1, out_b0, in_b1, in_b0)
    if qubits[1] == q1:
        blocks = [[g[a, :, c, :] for c in (0, 1)] for a in (0, 1)]
    else:
        blocks = [[g[:, a, :, c] for c in (0, 1)] for a in (0, 1)]
    pre = 1 << (n - q1 - 1)
    if q0 >= _GEMM_EDGE:
        mats = [[np.ascontiguousarray(blocks[a][c]) for c in (0, 1)] for a in (0, 1)]
        return ("split_stacked", mats, pre, 1 << (q1 - q0 - 1), 1 << q0)
    cols = 1 << (q0 + 1)
    bts = [
        [
            np.ascontiguousarray(expand_matrix(blocks[a][c], [q0], range(q0 + 1)).T)
            for c in (0, 1)
        ]
        for a in (0, 1)
    ]
    return ("split_gemm", bts, pre, (1 << q1) // cols, cols)


def run_dense_plan(
    plan: tuple, state: np.ndarray, out: np.ndarray, tmp: np.ndarray | None = None
) -> None:
    """Execute a precomputed dense gemm *plan*, writing straight into *out*.

    *state* and *out* are ``(..., 2^n)``: a flat state or a stack of them.
    The stack is always a *looped* leading matmul axis, never folded into a
    gemm dimension, so NumPy issues per state exactly the gemm a flat run
    issues and row ``b`` of a stacked result equals the flat run of row
    ``b`` bit for bit.

    ``tmp`` (split plans only) is a work buffer of ``state.size // 2``
    elements; when omitted it comes from the calling thread's workspace.
    This is the run-time half of the dense path: a bound op stores the plan
    tuple and calls this with its workspace's temporary.
    """
    kind = plan[0]
    lead = state.shape[:-1]
    if kind == "gemm_right":
        _, bt, cols = plan
        shape = lead + (-1, cols)
        np.matmul(state.reshape(shape), bt, out=out.reshape(shape))
        return
    if kind == "gemm_left":
        _, b, rows = plan
        shape = lead + (rows, -1)
        np.matmul(b, state.reshape(shape), out=out.reshape(shape))
        return
    if kind == "stacked":
        _, m, _pre, d, post = plan
        np.matmul(m, state.reshape(-1, d, post), out=out.reshape(-1, d, post))
        return
    if tmp is None:
        tmp = thread_workspace().tmp(state.size // 2, slot=1)
    if kind == "split_stacked":
        _, mats, _pre, mid, post = plan
        src = state.reshape(-1, 2, mid, 2, post)
        dst = out.reshape(-1, 2, mid, 2, post)
        tmp = tmp.reshape(-1, mid, 2, post)
        for a in (0, 1):
            dst_a = dst[:, a]
            np.matmul(mats[a][0], src[:, 0], out=dst_a)
            np.matmul(mats[a][1], src[:, 1], out=tmp)
            dst_a += tmp
    else:  # split_gemm
        _, bts, _pre, mid, cols = plan
        src = state.reshape(-1, 2, mid, cols)
        dst = out.reshape(-1, 2, mid, cols)
        tmp = tmp.reshape(-1, mid, cols)
        for a in (0, 1):
            dst_a = dst[:, a]
            np.matmul(src[:, 0], bts[a][0], out=dst_a)
            np.matmul(src[:, 1], bts[a][1], out=tmp)
            dst_a += tmp


def _big_to_out(
    state: np.ndarray,
    matrix: np.ndarray,
    qubits: Sequence[int],
    n: int,
    out: np.ndarray | None,
) -> np.ndarray:
    """Reference tensordot contraction (k ≥ 3 dense fallback).

    *state* (and *out*) may carry leading batch axes, ``(B, 2^n)``: the
    stack is then one contraction, not B of them.
    """
    k = len(qubits)
    lead = state.ndim - 1
    tensor = state.reshape(state.shape[:-1] + (2,) * n)
    gate_tensor = np.ascontiguousarray(matrix).reshape((2,) * (2 * k))
    # Contract gate input axes with the state axes of the target qubits.
    # Matrix tensor axis order is (out_{k-1},...,out_0, in_{k-1},...,in_0):
    # the most-significant matrix bit comes first in C order.
    axes = [lead + qubit_axis(n, q) for q in reversed(qubits)]
    # tensordot allocates its state-sized result (plus internal transpose
    # workspace); record it so the allocation log stays honest — the k >= 3
    # fallback is the one dispatch path that is not allocation-free.
    _ALLOCATION_LOG.append(int(state.size))
    result = np.tensordot(gate_tensor, tensor, axes=(list(range(k, 2 * k)), axes))
    result = np.moveaxis(result, range(k), axes)
    if out is None:
        return np.ascontiguousarray(result).reshape(state.shape)
    # tensordot produced a fresh array, so writing into out is safe even
    # when out is state.
    np.copyto(out.reshape(result.shape), result)
    return out


def _single_gemm_plannable(qubits: Sequence[int], n: int) -> bool:
    """True when the dense gemm planner covers *qubits* with one matmul
    (:func:`_gemm_strategy`); a 2q gate it does not cover runs a split
    plan, a wider one falls back to the tensordot contraction."""
    return _gemm_strategy(qubits, n) is not None


#: A view kernel (slice moves, the strided controlled update) needs at least
#: this many qubits outside the op.  The views of a ``(B, 2^n)`` stack can
#: merge with its leading axis into one NumPy loop, and a loop's rounding
#: (fused or not) depends on its length: a single-element call takes NumPy's
#: scalar complex multiply, a vector's tail may.  With ``2^3`` amplitudes per
#: view a state's share of any loop is whole vectors on every build
#: (AVX-512: 4 complex128), so the stacked pass rounds as the flat one; an op
#: spanning (almost) the whole of a tiny state goes to the gemm path, where
#: the stack is a looped axis.
_MIN_VIEW_BITS = 3


def _effective_kind(info: MatrixInfo, qubits: Sequence[int], n: int) -> str:
    """Position-aware dispatch refinement.

    The slice-based structured kernels operate on views whose contiguous
    runs have length ``2^min(qubits)``; for very low positions a streaming
    BLAS gemm beats them.  Permutation cycles tolerate short runs well
    (they are plain strided copies), so they reroute only at the very
    bottom; controlled subspace updates reroute whenever the dense planner
    has a single-gemm strategy for the position pair.  Wide (k ≥ 3)
    matrices keep their structured kernel while its views hold
    :data:`_MIN_VIEW_BITS` qubits; otherwise, and when dense, they reroute
    to the streaming gemm path whenever the planner covers their qubit
    tuple (see :func:`_single_gemm_plannable`), else to the tensordot
    contraction.
    """
    if info.kind in ("diagonal", "dense"):
        return info.kind
    plannable = _single_gemm_plannable(qubits, n)
    if info.kind == "permutation":
        views = info.k > 2 or max(qubits) > 2
    else:
        views = info.kind == "controlled" and (info.k > 2 or not plannable)
    if views and n - info.k >= _MIN_VIEW_BITS:
        return info.kind
    return "dense" if plannable or info.k <= 2 else "big"


def _controlled_gather_gemm_inplace(
    state: np.ndarray, control_qubit: int, plan: tuple, compact: np.ndarray
) -> None:
    """In-place controlled-1q update via gather + one streaming gemm.

    The control-1 subspace (a strided half-state view whose rows are the
    contiguous low ``2^control_qubit`` blocks) is compacted into *compact*
    (``state.size // 2`` elements), then the target unitary is applied with
    a single batched matmul writing straight back into the strided view.
    Requires ``target < control`` so the target bit lives inside the
    contiguous rows: each compact row is a ``control_qubit``-qubit
    sub-state with the target at its original position, and *plan* is the
    dense 1q gemm plan of the reduced matrix on it.

    *state* may be a ``(B, 2^n)`` stack: the rows of every state join the
    looped leading matmul axis, each still its own gemm.
    """
    post_c = 1 << control_qubit
    rows = state.size // (2 * post_c)
    subspace = state.reshape(rows, 2, post_c)[:, 1, :]
    compact = compact[: rows * post_c].reshape(rows, post_c)
    np.copyto(compact, subspace)
    if plan[0] == "gemm_right":
        _, bt, cols = plan
        shape = (rows, post_c // cols, cols)
        np.matmul(compact.reshape(shape), bt, out=subspace.reshape(shape))
    else:  # stacked
        _, m, pre_t, _, post_t = plan
        shape = (rows, pre_t, 2, post_t)
        np.matmul(m, compact.reshape(shape), out=subspace.reshape(shape))


def monomial_gather_index(
    perm: np.ndarray, qubits: Sequence[int], n: int
) -> tuple[np.ndarray, np.ndarray] | None:
    """Gather form of a permuting block — its angle-independent part — or
    ``None`` when it does not apply.

    A block whose qubits all sit below :data:`_MONOMIAL_GATHER_BITS` acts
    within every contiguous chunk of ``2^h`` amplitudes, ``h = max(qubits)
    + 1``, so it is one ``np.take`` along the rows of ``state.reshape(-1,
    2^h)`` whatever its width.  Returns ``(source, phase_index)``:
    ``source[j]`` is the chunk index whose amplitude lands at ``j``;
    ``phases.take(phase_index)`` is the block's phases by *output* index,
    broadcast over the ``(2,)*n`` state tensor.
    """
    h = max(qubits) + 1
    if h > _MONOMIAL_GATHER_BITS:
        return None
    dim = len(perm)
    inverse = np.empty_like(perm)
    inverse[perm] = np.arange(dim)
    # Index bits to flip on the way from an output block index back to its
    # source, deposited at the block's qubit positions.
    flip = inverse ^ np.arange(dim)
    deposit = np.zeros(dim, dtype=np.int64)
    for j, q in enumerate(qubits):
        deposit |= ((flip >> j) & 1) << q
    source = np.arange(1 << h).reshape((2,) * h) ^ _diag_broadcast(deposit, h, qubits)
    return source.reshape(-1), np.ascontiguousarray(_diag_broadcast(inverse, n, qubits))


def run_monomial_gather(
    plan: tuple[np.ndarray, np.ndarray | None],
    state: np.ndarray,
    tmp: np.ndarray,
    n: int,
) -> None:
    """Execute the gather form ``(source, phase_b)`` of a permuting block
    (:func:`monomial_gather_index` filled with a phase vector; ``phase_b``
    is ``None`` when every phase is 1) in place on *state* — flat
    ``(2^n,)`` or a ``(B, 2^n)`` stack — through *tmp* (``state.size``
    elements, contents lost): one gather, then the copy back carries the
    phases."""
    source, phase_b = plan
    np.take(
        state.reshape(-1, source.size), source, axis=1,
        out=tmp.reshape(-1, source.size), mode="clip",
    )
    shape = state.shape[:-1] + (2,) * n
    if phase_b is None:
        np.copyto(state.reshape(shape), tmp.reshape(shape))
    else:
        np.multiply(tmp.reshape(shape), phase_b, out=state.reshape(shape))


#: Buffer discipline per op kind: structured kinds update the state buffer
#: in place; streaming kinds read the state buffer and write the scratch
#: buffer in full, swapping the ping-pong roles.  The static verifier
#: (:mod:`repro.check`) proves each op's declared ``mode`` against this
#: table without executing anything.
INPLACE_KINDS = frozenset({"diagonal", "permutation", "controlled", "sm"})
STREAM_KINDS = frozenset({"dense", "big", "layout"})


class CompiledOp:
    """One fully-resolved operation of a compiled stream.

    ``run(states, scratch, ws)`` operates on ``(..., 2^n)`` buffers — a
    flat state is a stack of one — and returns the ``(states, scratch)``
    pair with roles possibly swapped (streaming ops write into scratch,
    structured ops update in place).  Row ``b`` of a stacked run equals the
    flat run of row ``b`` bit for bit (``big`` within a documented bound).
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
    structure of its matrix — the kind, the views' qubit tuple, the
    permutation move table, the gather index, the gemm-plan shape — is
    resolved once, when the template is built.  ``bind(payload)`` does only the numeric fill
    (gathering a diagonal, phases or a reduced block out of the matrix,
    preparing gemm operands) and returns the one ``run(states, scratch,
    ws)`` closure, written against ``(..., 2^n)`` buffers; :meth:`op` wraps
    it with the op's static metadata.  A cold
    compile builds the template and binds it once; a rebind to new angles
    binds it again — the same code, so warm and cold programs cannot differ.

    A template built by :func:`unitary_template` is valid for every matrix
    with the :func:`~repro.circuits.gates.matrix_signature` of the one it
    was built from; one built by :func:`monomial_template` for every phase
    vector over its permutation.  ``uses_scratch`` marks the one in-place
    form that works through the scratch buffer (contents lost) — every
    other in-place op never touches it.
    """

    __slots__ = ("kind", "qubits", "tmp_slots", "bind", "uses_scratch")

    def __init__(
        self,
        kind: str,
        qubits: tuple[int, ...],
        bind: "Callable[[np.ndarray], Callable]",
        tmp_slots: tuple[int, ...] = (),
        uses_scratch: bool = False,
    ) -> None:
        self.kind = kind
        self.qubits = qubits
        self.bind = bind
        self.tmp_slots = tmp_slots
        self.uses_scratch = uses_scratch

    def op(
        self, payload: np.ndarray, source: tuple | None = None, gates: "tuple | None" = None
    ) -> CompiledOp:
        return CompiledOp(
            self.kind, self.bind(payload), source, gates,
            qubits=self.qubits, tmp_slots=self.tmp_slots,
        )


def unitary_template(matrix: np.ndarray, qubits: Sequence[int], n: int) -> OpTemplate:
    """The template of one unitary application; its payload is the matrix.

    The one place a classification (:func:`analyze_matrix`) and a position
    (:func:`_effective_kind`) become a kernel: a diagonal is a broadcast
    multiply wherever it sits, a permutation or controlled gate the
    refinement leaves alone updates in place, everything else streams into
    the scratch buffer.
    """
    qubits = tuple(qubits)
    info = analyze_matrix(matrix)
    dim = 1 << info.k
    if info.kind == "diagonal":
        return _diag_template(np.arange(dim) * (dim + 1), qubits, n)
    kind = _effective_kind(info, qubits, n)
    if kind == "permutation":
        positions = np.asarray(info.perm) * dim + np.arange(dim)
        return _moves_template(info.perm, _index_array(positions), qubits, n)
    if kind == "controlled":
        return _controlled_template(info, qubits, n)
    if kind == "dense":
        return _dense_template(qubits, n)
    return _big_template(qubits, n)


def monomial_template(
    perm: "Sequence[int] | None", qubits: Sequence[int], n: int
) -> OpTemplate:
    """The template of one monomial block — amplitude ``c`` of the block
    index over *qubits* moves to ``perm[c]``; ``perm=None`` is the
    identity.  Its payload is the block's phase vector.  A block that
    permutes is one gather when :func:`monomial_gather_index` applies, else
    slice moves over its ``2^k`` views."""
    qubits = tuple(qubits)
    if perm is None:
        return _diag_template(np.arange(1 << len(qubits)), qubits, n)
    index = monomial_gather_index(perm, qubits, n)
    if index is None:
        return _moves_template(np.asarray(perm).tolist(), None, qubits, n)
    source, phase_index = index
    phase_index = _index_array(phase_index)

    def bind(phases):
        plan = (source, None if np.all(phases == 1) else phases.take(phase_index))

        def run(states, scratch, ws):
            # An in-place op owes the scratch buffer nothing (the next
            # streaming op overwrites it in full), so it is the gather target.
            run_monomial_gather(plan, states, scratch, n)
            return states, scratch

        return run

    return OpTemplate("permutation", qubits, bind, uses_scratch=True)


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


def _permutation_moves(perm) -> tuple[list[tuple[int, int, int]], list[int]]:
    """Lower a permutation to its move skeleton ``(cycle moves, fixed points)``.

    Amplitudes flow ``cycle[i] -> cycle[i+1]``; each cycle is walked
    backwards from a saved last view so every source is still unmodified
    when read, and fixed points are untouched (an in-place CX moves half
    the state).  Cycle discovery happens here, once, not at execution.  Codes:
    0 = copy view ``b``→``a`` scaled by ``phases[b]``, 1 = save view ``a``
    to tmp, 2 = restore tmp to view ``a`` scaled by ``phases[b]``.  Fixed
    points only ever need scaling (code 3, added per phase vector by
    :func:`_bind_moves`); distinct cycles touch disjoint views, so running
    the scales after the cycles changes no value.
    """
    d = len(perm)
    visited = [False] * d
    moves: list[tuple[int, int, int]] = []
    fixed: list[int] = []
    for start in range(d):
        if visited[start]:
            continue
        cycle = [start]
        visited[start] = True
        nxt = perm[start]
        while nxt != start:
            cycle.append(nxt)
            visited[nxt] = True
            nxt = perm[nxt]
        if len(cycle) == 1:
            fixed.append(start)
            continue
        last = cycle[-1]
        moves.append((1, last, 0))
        for i in range(len(cycle) - 1, 0, -1):
            moves.append((0, cycle[i], cycle[i - 1]))
        moves.append((2, cycle[0], last))
    return moves, fixed


def _bind_moves(
    skeleton: tuple[list[tuple[int, int, int]], list[int]], phases: np.ndarray
) -> tuple[list[tuple[int, int, int]], list[complex]]:
    """The skeleton's moves for one phase vector: the shared cycle moves
    plus a scale (code 3) per fixed point whose phase is not 1."""
    moves, fixed = skeleton
    values = phases.tolist()
    scales = [(3, a, a) for a in fixed if values[a] != 1]
    return (moves + scales if scales else moves), values


def _run_moves(views, moves, phases, tmp) -> None:
    for code, a, b in moves:
        if code == 0:
            # Copy, then scale in place — never one multiply from view to
            # view: the two interleave in one buffer, and whether NumPy
            # then rounds through its SIMD (fused) or scalar complex loop
            # depends on an overlap heuristic that reads the stack depth.
            np.copyto(views[a], views[b])
            if phases[b] != 1:
                views[a] *= phases[b]
        elif code == 1:
            np.copyto(tmp, views[a])
        elif code == 2:
            phase = phases[b]
            if phase == 1:
                np.copyto(views[a], tmp)
            else:
                np.multiply(tmp, phase, out=views[a])
        else:
            views[a] *= phases[b]


def _moves_template(
    perm: Sequence[int], positions: "np.ndarray | None", qubits: tuple[int, ...], n: int
) -> OpTemplate:
    """A phased permutation as slice moves over its ``2^k`` views.  Phase
    ``c`` sits at flat position ``positions[c]`` of the payload (a matrix),
    or the payload is the phase vector itself (``positions=None``)."""
    skeleton = _permutation_moves(perm)
    k = len(qubits)

    def bind(payload):
        moves, phases = _bind_moves(
            skeleton, payload if positions is None else payload.take(positions)
        )

        def run(states, scratch, ws):
            views = ws.views(states, n, qubits, lead=states.ndim - 1)
            tmp = ws.tmp(states.size >> k, slot=1).reshape(views[0].shape)
            _run_moves(views, moves, phases, tmp)
            return states, scratch

        return run

    return OpTemplate("permutation", qubits, bind, tmp_slots=(1,))


def _controlled_template(info: MatrixInfo, qubits: tuple[int, ...], n: int) -> OpTemplate:
    """The dense all-controls-1 block (``info.reduced_info`` is never
    anything else: a diagonal or monomial block makes the whole matrix
    monomial, which :func:`analyze_matrix` classifies first) applied on the
    controlled subspace only."""
    target_qubits = tuple(qubits[p] for p in info.targets)
    # Flat positions of the all-controls-1 block inside the matrix.
    dim = 1 << info.k
    sel = np.flatnonzero(
        np.all([(np.arange(dim) >> p) & 1 for p in info.controls], axis=0)
    )
    block = _index_array(sel[:, None] * dim + sel[None, :])

    if (
        len(info.controls) == 1
        and len(info.targets) == 1
        and target_qubits[0] < qubits[info.controls[0]]
    ):
        # Gather + one streaming gemm; a stack only lengthens the row loop.
        ctrl = qubits[info.controls[0]]
        tgt = target_qubits[0]

        def bind(matrix):
            plan = _dense_plan_impl(matrix.take(block), ctrl, (tgt,))

            def run(states, scratch, ws):
                _controlled_gather_gemm_inplace(
                    states, ctrl, plan, ws.tmp(states.size // 2, slot=0)
                )
                return states, scratch

            return run

        return OpTemplate("controlled", qubits, bind, tmp_slots=(0,))

    fixed = tuple((qubit_axis(n, qubits[p]), 1) for p in info.controls)
    d = 1 << len(target_qubits)
    k = len(qubits)

    def bind(matrix):
        reduced = matrix.take(block)

        def run(states, scratch, ws):
            views = ws.views(states, n, target_qubits, fixed, lead=states.ndim - 1)
            view_size = states.size >> k
            _dense_views_inplace(
                views, reduced, ws.tmp(d * view_size, slot=0), ws.tmp(view_size, slot=1)
            )
            return states, scratch

        return run

    return OpTemplate("controlled", qubits, bind, tmp_slots=(0, 1))


def _dense_template(qubits: tuple[int, ...], n: int) -> OpTemplate:
    # Whether the plan needs a temporary follows from (n, qubits) alone.
    needs_tmp = _gemm_strategy(qubits, n) is None

    def bind(matrix):
        plan = _dense_plan_impl(matrix, n, qubits)

        def run(states, scratch, ws):
            tmp = ws.tmp(states.size // 2, slot=1) if needs_tmp else None
            run_dense_plan(plan, states, scratch, tmp=tmp)
            return scratch, states

        return run

    return OpTemplate("dense", qubits, bind, tmp_slots=(1,) if needs_tmp else ())


def _big_template(qubits: tuple[int, ...], n: int) -> OpTemplate:
    # Genuinely scattered wide matrix: the tensordot fallback (the one op
    # kind whose application is not allocation-free — tensordot builds its
    # own result; the cost is logged).
    def bind(matrix):
        def run(states, scratch, ws):
            _big_to_out(states, matrix, qubits, n, scratch)
            return scratch, states

        return run

    return OpTemplate("big", qubits, bind)


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
    gathers from a gate table (:class:`repro.sim.fusion.GatherProgram`):
    ``loop(arrays)`` — per item a block's phases, a gate's matrix or a
    fold's 2×2 factors —
    and, when ``native``, ``bind_numbers(numbers, fallback)`` — the one
    complex payload the C body reads, packed as ``fills`` say (``(item,
    mode, offset, index)``; :func:`_tile_program`), with
    *fallback* returning the item loop's run for a buffer the C body cannot
    walk.  ``bind`` packs filled items the same way (``pack``, the
    oracle)."""

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


def _deposit(values: np.ndarray, positions: Sequence[int]) -> np.ndarray:
    """Bit ``j`` of each value moved to bit ``positions[j]``."""
    out = np.zeros_like(values)
    for j, position in enumerate(positions):
        out |= ((values >> j) & 1) << position
    return out


def _extract(values: np.ndarray, positions: Sequence[int]) -> np.ndarray:
    """Bit ``positions[j]`` of each value moved to bit ``j``."""
    out = np.zeros_like(values)
    for j, position in enumerate(positions):
        out |= ((values >> position) & 1) << j
    return out


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
    chunk_at = _deposit(np.arange(1 << (bits - chunk_bits)), tile[chunk_bits:])

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
        starts = np.arange(1 << (bits - run_bits)) << run_bits
        entries = _deposit(np.arange(1 << len(high)), high)
        if low:  # the block reaches into the vector: an entry is VL phases
            lanes = np.arange(1 << lane_bits)
            entries = entries[:, None] | _deposit(
                _extract(lanes, [where[j] for j in low]), low
            )[None, :]
        entries = entries.reshape(-1)
        if order is not None:
            entries = order[entries]
        offset = emit(
            _SM_DIAG, run_bits, bool(low),
            table=[_extract(starts, [where[j] for j in high])], payload=entries.size,
        )
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
                starts = np.arange(1 << (bits - run_bits)) << run_bits
                target = _extract(starts, where)
                moved = starts ^ _deposit(target ^ source[target], where)
                offset = emit(
                    _SM_MOVE, run_bits, item.phased,
                    table=[moved >> run_bits, source[target]],
                    payload=len(source) if item.phased else 0,
                )
                if item.phased:
                    fills.append((index, 2, offset, _index_array(np.arange(len(source)))))
            else:
                amplitudes = np.arange(1 << bits)
                target = _extract(amplitudes, where)
                emit(_SM_GATHER, table=[amplitudes ^ _deposit(target ^ source[target], where)])
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
        x, y = src.reshape(2, -1, 2, low), dst.reshape(2, -1, 2, low)
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
    zero."""
    d = len(matrix)
    re, im = matrix.real.tolist(), matrix.imag.tolist()
    terms = [t for t in range(d) if any(re[r][r ^ t] or im[r][r ^ t] for r in range(d))]
    rows = [[(r ^ t, re[r][r ^ t], im[r][r ^ t]) for t in terms] for r in range(d)]

    def step(src, dst, tmp, size):
        xs = _basis_views(src.reshape(2, -1, 1 << n), n, qubits, lead=2)
        ys = _basis_views(dst.reshape(2, -1, 1 << n), n, qubits, lead=2)
        t, u = tmp[: 2 * (size // d)].reshape((2,) + xs[0].shape[1:])
        for (yr, yi), row in zip(ys, rows):
            if not row:
                yr.fill(0.0)
                yi.fill(0.0)
            for i, (c, mr, mi) in enumerate(row):
                xr, xi = xs[c]
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
        x, y, t = src.reshape((2,) + shape), dst.reshape((2,) + shape), tmp.reshape(shape)
        _products(y[0], t, pr, x[0], pi, x[1], False)
        _products(y[1], t, pr, x[1], pi, x[0], True)

    return step


def _planes(buf: np.ndarray, size: int, ws, slot: int) -> np.ndarray:
    """*buf*'s memory as ``2 * size`` float64, or a workspace temporary's
    when it is not a contiguous ``complex128`` buffer of *size*."""
    if buf.dtype != np.complex128 or not buf.flags.c_contiguous or buf.size != size:
        buf = ws.tmp(size, slot=slot)
    return buf.reshape(-1).view(np.float64)


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
    call looped over rows, so row ``b`` is the flat run bit for bit, and a
    large pass is cut across the host's cores
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
            amplitudes = np.arange(2 << max(item.qubits))
            target = _extract(amplitudes, item.qubits)
            gather = _index_array(amplitudes ^ _deposit(target ^ source[target], item.qubits))
        return gather, _index_array(_diag_broadcast(source, n, item.qubits))

    def loop(arrays):
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

        def run(states, scratch, ws):
            size = states.size
            here, there = _planes(scratch, size, ws, 1), _planes(states, size, ws, 2)
            tmp = ws.tmp((size + 1) // 2, slot=0).view(np.float64)[:size]
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
            return states, scratch

        return run

    def item_loop(payloads):
        return loop([
            payload.phases if item.kind == "block"
            else payload.factors if item.kind == "fold" else payload.matrix
            for item, payload in zip(items, payloads)
        ])

    template = KernelTemplate("sm", qubits, item_loop, tmp_slots=(0, 1, 2), uses_scratch=True)
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
                failed = native.apply_tiles(
                    states.ctypes.data, rows, row, rows << outer_bits, prog_at, tabs_at, numbers_at
                )
                if failed:
                    raise KernelError(f"native kernel rejected its program (code {failed})")
                return states, scratch

            return run

        template.bind = lambda payloads: bind_numbers(pack(payloads), lambda: item_loop(payloads))
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
    correctness oracle for the specialized kernels and as the baseline the
    benchmarks measure speedups against.  Same ``out`` contract as
    :func:`apply_matrix`.
    """
    n = _validate(state, matrix, qubits)
    return _big_to_out(state, matrix, qubits, n, out)


#: The bound ops of the entry points: ``(id(matrix), qubits, n)`` →
#: ``(matrix, inplace, run)`` and ``(id(phases), id(perm), qubits, n)`` →
#: ``(phases, perm, uses_scratch, run)``.  For callers outside any plan
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
) -> tuple[np.ndarray, bool, Callable]:
    """``(matrix, inplace, run)``: :func:`unitary_template` bound to *matrix*
    for *qubits* of *state*, and whether it updates in place."""
    qubits = tuple(qubits)
    n = _num_qubits(state)
    key = (id(matrix), qubits, n)
    hit = _BOUND_OPS.get(key)
    if hit is not None and hit[0] is matrix:
        return hit
    _validate(state, matrix, qubits)
    template = unitary_template(matrix, qubits, n)
    return _remember(
        key, (matrix, template.kind in INPLACE_KINDS, template.bind(matrix))
    )


def _monomial_op(
    state: np.ndarray, perm: "np.ndarray | None", phases: np.ndarray, qubits: Sequence[int]
) -> tuple:
    """``(phases, perm, uses_scratch, run)``: :func:`monomial_template` bound
    to *phases*, and whether it works through the scratch buffer."""
    qubits = tuple(qubits)
    n = _num_qubits(state)
    key = (id(phases), id(perm), qubits, n)
    hit = _BOUND_OPS.get(key)
    if hit is not None and hit[0] is phases and hit[1] is perm:
        return hit
    k = len(qubits)
    for name, vector in (("phase vector", phases), ("permutation", perm)):
        if vector is not None and len(vector) != 1 << k:
            raise ValueError(  # lint: config-error
                f"{name} of length {len(vector)} does not match {k} qubits"
            )
    _check_qubits(qubits, n)
    template = monomial_template(perm, qubits, n)
    return _remember(
        key, (phases, perm, template.uses_scratch, template.bind(phases))
    )


def _out_buffer(state: np.ndarray, out: np.ndarray | None) -> np.ndarray:
    """*out* under the ``out`` contract: allocated when ``None``, else
    checked to hold as many amplitudes as *state*."""
    if out is None:
        return tracked_empty(state.size)
    if out.size != state.size:
        raise ValueError(f"out has {out.size} amplitudes, expected {state.size}")  # lint: config-error
    return out


def _inplace_target(state: np.ndarray, out: np.ndarray | None) -> np.ndarray:
    """The buffer an in-place op updates under the ``out`` contract:
    *state* itself, or *out* holding a copy of it."""
    if out is state:
        return state
    out = _out_buffer(state, out)
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
    _matrix, inplace, run = _unitary_op(state, matrix, qubits)
    ws = thread_workspace()
    if inplace:
        out = _inplace_target(state, out)
        run(out, None, ws.for_caller_buffers())
        return out
    if out is state:
        # In-place streaming: snapshot the state, then stream back.
        snap = ws.tmp(state.size, slot=0)
        np.copyto(snap.reshape(state.shape), state)
        run(snap, state, ws.for_caller_buffers())
        return state
    out = _out_buffer(state, out)
    run(state, out, ws.for_caller_buffers())
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
    run = _monomial_op(state, None, diagonal, qubits)[-1]
    out = _inplace_target(state, out)
    run(out, None, thread_workspace().for_caller_buffers())
    return out


def apply_gate_buffered(
    state: np.ndarray,
    scratch: np.ndarray,
    matrix: np.ndarray,
    qubits: Sequence[int],
) -> tuple[np.ndarray, np.ndarray]:
    """Ping-pong gate application: returns ``(new_state, new_scratch)``.

    Structured gates on high qubit positions run in place on *state*
    (touching only the amplitudes they move); everything else streams
    *state* into *scratch* and the buffers swap roles.  Callers must thread
    both returned arrays into the next call — after a swap the old
    ``state`` array holds stale data.  This is :func:`unitary_template`
    bound to *matrix* (memoized per matrix object) and run on the caller's
    buffer pair.
    """
    run = _unitary_op(state, matrix, qubits)[-1]
    return run(state, scratch, thread_workspace().for_caller_buffers())


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
