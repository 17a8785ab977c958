"""Low-level zero-copy gate application on dense state vectors.

The routines in this module are the computational core of the functional
simulator.  Every gate is dispatched to the cheapest kernel its matrix
structure allows:

``diagonal``
    Elementwise multiply — one pass over the state, no data movement.
``permutation``
    The matrix has exactly one non-zero per row/column (X, Y, CX, SWAP,
    CCX, ...).  Applied as slice copies: in place only the moved slices
    are touched (a CX touches half the state, never the control-0 half).
``controlled``
    Identity except on the subspace where every control bit is 1 (CH,
    CRX, CRY, CU, ...).  The reduced target unitary is applied on the
    controlled subspace only — a 2× flop/byte win per control qubit.
``dense`` (k ≤ 2)
    Slice-pair update via a single ``einsum`` pass writing straight into
    the output buffer — no intermediate copies.
``big`` (k ≥ 3)
    Wide fused matrices.  When the qubit tuple is single-GEMM plannable
    (all qubits in a low or high index window, or a contiguous run) the
    update runs as one streaming BLAS ``matmul`` exactly like the 1q/2q
    dense path; only genuinely scattered wide tuples fall back to the
    original ``tensordot`` contraction.

Buffer contract
---------------
All application functions take an optional ``out`` buffer:

* ``out is None`` — a freshly allocated array is returned and ``state``
  is **never** modified (pure).
* ``out`` is a distinct array of the same size — the result is written
  into ``out`` and ``out`` is returned; ``state`` is not modified.
  ``out`` must not overlap ``state`` (other than being the same array).
* ``out is state`` — true in-place update; ``state`` is returned.

:func:`apply_gate_buffered` wraps this contract into the ping-pong idiom
used by the executor: structured gates (diagonal / permutation /
controlled) are applied in place, dense gates write into the scratch
buffer and the roles swap.  A full circuit therefore runs with O(1)
state-sized allocations.

Small temporaries (half-state slices used by in-place updates) come from
a per-thread scratch pool that is reused across calls, so worker threads
of the parallel shard runtime never share mutable temporaries (the
dispatch caches hold immutable values and tolerate benign races).  Every
buffer the engine allocates is recorded in an allocation log so tests can
regression-check allocation counts.

Conventions
-----------
* Amplitude index ``i`` encodes qubit ``q`` in bit ``q`` (little-endian):
  qubit 0 is the least-significant bit.
* When the state of ``n`` qubits is reshaped to shape ``(2,)*n`` in C order,
  qubit ``q`` corresponds to tensor axis ``n - 1 - q``.
* Gate matrices are little-endian over their ``qubits`` tuple: matrix index
  bit ``k`` corresponds to ``qubits[k]``.
* Matrices passed to the engine must not be mutated afterwards: dispatch
  analysis is memoized per matrix object (gate matrices are cached
  read-only instances, so this holds throughout the package).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..errors import KernelError

__all__ = [
    "apply_matrix",
    "apply_diagonal",
    "apply_matrix_reference",
    "apply_gate_buffered",
    "apply_monomial",
    "apply_permutation_x",
    "qubit_axis",
    "expand_matrix",
    "analyze_matrix",
    "run_dense_plan",
    "MatrixInfo",
    "tracked_empty",
    "reset_allocation_log",
    "allocation_log",
    "clear_scratch",
]


def qubit_axis(num_qubits: int, qubit: int) -> int:
    """Tensor axis corresponding to *qubit* for a C-ordered ``(2,)*n`` tensor."""
    return num_qubits - 1 - qubit


# ---------------------------------------------------------------------------
# Allocation tracking and the scratch pool
# ---------------------------------------------------------------------------

#: Sizes (element counts) of every buffer the engine has allocated since the
#: last :func:`reset_allocation_log`.  Scratch-pool hits do not allocate.
_ALLOCATION_LOG: list[int] = []

#: Reusable temporaries keyed per thread by ``(size, slot)``.  Slot 0 holds
#: snapshot buffers, slot 1 holds multiply-accumulate temporaries; the two
#: never alias each other.  The pool is thread-local so concurrent shard
#: workers each own their temporaries (pool threads are long-lived, so the
#: per-thread buffers are reused across calls exactly like before).
_SCRATCH_TLS = threading.local()


def tracked_empty(size: int) -> np.ndarray:
    """Allocate a flat complex128 buffer, recording it in the allocation log."""
    _ALLOCATION_LOG.append(int(size))
    return np.empty(int(size), dtype=np.complex128)


def reset_allocation_log() -> None:
    """Clear the engine allocation log (see :func:`allocation_log`)."""
    _ALLOCATION_LOG.clear()


def allocation_log() -> list[int]:
    """Element counts of engine allocations since the last reset."""
    return list(_ALLOCATION_LOG)


def clear_scratch() -> None:
    """Drop the calling thread's pooled scratch buffers (frees memory,
    forces re-allocation)."""
    _SCRATCH_TLS.pool = {}


def _scratch(size: int, slot: int = 0) -> np.ndarray:
    pool: dict[tuple[int, int], np.ndarray] | None = getattr(
        _SCRATCH_TLS, "pool", None
    )
    if pool is None:
        pool = _SCRATCH_TLS.pool = {}
    key = (size, slot)
    buf = pool.get(key)
    if buf is None:
        buf = tracked_empty(size)
        pool[key] = buf
    return buf


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
            if reduced_info.kind in ("diagonal", "permutation", "dense"):
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


def _validate(state: np.ndarray, matrix: np.ndarray, qubits: Sequence[int]) -> int:
    k = len(qubits)
    n = int(state.size).bit_length() - 1
    if state.size != 1 << n:
        raise ValueError("state length is not a power of two")  # lint: config-error
    if matrix.shape != (1 << k, 1 << k):
        raise ValueError(f"matrix shape {matrix.shape} does not match {k} qubits")  # lint: config-error
    if any(not 0 <= q < n for q in qubits):
        raise ValueError(f"qubit indices {qubits} out of range for {n} qubits")  # lint: config-error
    if len(set(qubits)) != k:
        raise ValueError("duplicate qubits")  # lint: config-error
    return n


def _basis_views(
    tensor: np.ndarray,
    n: int,
    qubits: Sequence[int],
    fixed: Sequence[tuple[int, int]] = (),
    lead: int = 0,
) -> list[np.ndarray]:
    """The ``2^k`` sub-views of *tensor* indexed by the basis of *qubits*.

    ``fixed`` pins additional ``(axis, bit)`` pairs (used to restrict to a
    controlled subspace); the axes in ``fixed`` must already include the
    ``lead`` offset.  ``lead`` counts extra leading axes (a batch dimension)
    kept whole in every view.  View ``b`` fixes qubit ``qubits[j]`` to bit
    ``j`` of ``b``.
    """
    axes = [lead + qubit_axis(n, q) for q in qubits]
    # Trailing dummy axis so a fully-indexed result is still a (1,)-shaped
    # writable view rather than a 0-d scalar copy.
    tensor = tensor.reshape(tensor.shape + (1,))
    base: list = [slice(None)] * (lead + n + 1)
    for ax, bit in fixed:
        base[ax] = bit
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
    views: list[np.ndarray],
    matrix: np.ndarray,
    snap: np.ndarray | None = None,
    tmp: np.ndarray | None = None,
) -> None:
    """In-place dense update of basis *views* via a scratch snapshot.

    ``snap`` (``d · view.size`` elements) and ``tmp`` (``view.size``) default
    to the per-thread scratch pool; compiled programs pass their own
    preallocated workspace buffers instead.
    """
    d = len(views)
    vsize = views[0].size
    vshape = views[0].shape
    if snap is None:
        snap = _scratch(d * vsize, slot=0)
    snap_views = [snap[c * vsize : (c + 1) * vsize].reshape(vshape) for c in range(d)]
    for c in range(d):
        np.copyto(snap_views[c], views[c])
    if tmp is None:
        tmp = _scratch(vsize, slot=1)
    _dense_accumulate(snap_views, views, matrix, tmp.reshape(vshape))


def _permutation_to_out(
    in_views: list[np.ndarray],
    out_views: list[np.ndarray],
    perm: Sequence[int],
    phases: np.ndarray,
) -> None:
    for c, r in enumerate(perm):
        if phases[c] == 1:
            np.copyto(out_views[r], in_views[c])
        else:
            np.multiply(in_views[c], phases[c], out=out_views[r])


def _permutation_inplace(
    views: list[np.ndarray],
    perm: Sequence[int],
    phases: np.ndarray,
    tmp: np.ndarray | None = None,
) -> None:
    """Apply a phased permutation cycle-by-cycle; fixed points are untouched
    (or phase-scaled), so e.g. an in-place CX only moves half the state.
    ``tmp`` (one view's worth of elements) defaults to the per-thread
    scratch pool."""
    d = len(views)
    visited = [False] * d
    if tmp is None:
        tmp = _scratch(views[0].size, slot=1)
    tmp = tmp.reshape(views[0].shape)
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
            if phases[start] != 1:
                views[start] *= phases[start]
            continue
        # Amplitudes flow cycle[i] -> cycle[i+1]; walk backwards so each
        # source is still unmodified when read.
        last = cycle[-1]
        np.copyto(tmp, views[last])
        for i in range(len(cycle) - 1, 0, -1):
            src, dst = cycle[i - 1], cycle[i]
            if phases[src] == 1:
                np.copyto(views[dst], views[src])
            else:
                np.multiply(views[src], phases[src], out=views[dst])
        if phases[last] == 1:
            np.copyto(views[cycle[0]], tmp)
        else:
            np.multiply(tmp, phases[last], out=views[cycle[0]])


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

_DENSE_PLAN_CACHE: dict[tuple, tuple] = {}
_DENSE_PLAN_CACHE_MAX = 4096

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


def _dense_plan(matrix: np.ndarray, n: int, qubits: tuple[int, ...]) -> tuple:
    """Memoized :func:`_dense_plan_impl` per ``(matrix, n, qubits)`` — for
    callers that apply the same matrix *object* again and again (the
    interpreter, whose gate and kernel matrices are cached instances).  The
    matrix is kept referenced so its id stays valid.  A template's ``bind``
    calls :func:`_dense_plan_impl` itself: a sweep's matrices never recur,
    so their entries could only pin dead operands and, at the bound, wipe
    the entries that do recur.
    """
    key = (id(matrix), n, qubits)
    hit = _DENSE_PLAN_CACHE.get(key)
    if hit is not None and hit[0] is matrix:
        return hit[1]
    plan = _dense_plan_impl(matrix, n, qubits)
    if len(_DENSE_PLAN_CACHE) >= _DENSE_PLAN_CACHE_MAX:
        _DENSE_PLAN_CACHE.clear()
    _DENSE_PLAN_CACHE[key] = (matrix, plan)
    return plan


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

    ``tmp`` (split plans only) is a work buffer of ``state.size // 2``
    elements; when omitted it comes from the per-thread scratch pool.  This
    is the run-time half of the dense path: compiled programs store the
    plan tuple per op and call this with their preallocated workspace.
    """
    kind = plan[0]
    if kind == "gemm_right":
        _, bt, cols = plan
        np.matmul(state.reshape(-1, cols), bt, out=out.reshape(-1, cols))
    elif kind == "gemm_left":
        _, b, rows = plan
        np.matmul(b, state.reshape(rows, -1), out=out.reshape(rows, -1))
    elif kind == "stacked":
        _, m, pre, d, post = plan
        np.matmul(m, state.reshape(pre, d, post), out=out.reshape(pre, d, post))
    elif kind == "split_stacked":
        _, mats, pre, mid, post = plan
        src = state.reshape(pre, 2, mid, 2, post)
        dst = out.reshape(pre, 2, mid, 2, post)
        if tmp is None:
            tmp = _scratch(pre * mid * 2 * post, slot=1)
        tmp = tmp.reshape(pre, mid, 2, post)
        for a in (0, 1):
            dst_a = dst[:, a]
            np.matmul(mats[a][0], src[:, 0], out=dst_a)
            np.matmul(mats[a][1], src[:, 1], out=tmp)
            dst_a += tmp
    else:  # split_gemm
        _, bts, pre, mid, cols = plan
        src = state.reshape(pre, 2, mid, cols)
        dst = out.reshape(pre, 2, mid, cols)
        if tmp is None:
            tmp = _scratch(pre * mid * cols, slot=1)
        tmp = tmp.reshape(pre, mid, cols)
        for a in (0, 1):
            dst_a = dst[:, a]
            np.matmul(src[:, 0], bts[a][0], out=dst_a)
            np.matmul(src[:, 1], bts[a][1], out=tmp)
            dst_a += tmp


def _dense_small_to_out(
    state: np.ndarray,
    out: np.ndarray,
    matrix: np.ndarray,
    qubits: Sequence[int],
    n: int,
) -> None:
    """Dense gemm update (1q/2q and plannable wide), writing into *out*."""
    run_dense_plan(_dense_plan(matrix, n, tuple(qubits)), state, out)


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


# ---------------------------------------------------------------------------
# Public application functions
# ---------------------------------------------------------------------------


def _single_gemm_plannable(qubits: Sequence[int], n: int) -> bool:
    """True when the dense gemm planner covers *qubits* with one matmul
    (:func:`_gemm_strategy`); a 2q gate it does not cover runs a split
    plan, a wider one falls back to the tensordot contraction."""
    return _gemm_strategy(qubits, n) is not None


def _effective_kind(info: MatrixInfo, qubits: Sequence[int], n: int) -> str:
    """Position-aware dispatch refinement.

    The slice-based structured kernels operate on views whose contiguous
    runs have length ``2^min(qubits)``; for very low positions a streaming
    BLAS gemm beats them.  Permutation cycles tolerate short runs well
    (they are plain strided copies), so they reroute only at the very
    bottom; controlled subspace updates reroute whenever the dense planner
    has a single-gemm strategy for the position pair.  Wide (k ≥ 3) dense
    matrices reroute to the streaming gemm path whenever the planner covers
    their qubit tuple (see :func:`_single_gemm_plannable`).
    """
    if info.kind == "big":
        return "dense" if _single_gemm_plannable(qubits, n) else "big"
    if info.k > 2 or info.kind in ("diagonal", "dense"):
        return info.kind
    if info.kind == "permutation":
        if max(qubits) <= 2:
            return "dense"
        return info.kind
    # controlled
    if _single_gemm_plannable(qubits, n):
        return "dense"
    return info.kind


def _inplace_preferred(info: MatrixInfo, qubits: Sequence[int], n: int) -> bool:
    """Whether in-place application beats streaming into a second buffer."""
    return info.kind == "diagonal" or _effective_kind(info, qubits, n) in (
        "permutation",
        "controlled",
    )


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
        (dispatch analysis is memoized per matrix object).
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
    n = _validate(state, matrix, qubits)
    if out is not None and out.size != state.size:
        raise ValueError(  # lint: config-error
            f"out has {out.size} amplitudes, expected {state.size}"
        )
    info = analyze_matrix(matrix)
    inplace = out is state
    kind = _effective_kind(info, qubits, n)

    if kind == "big" or (kind == "dense" and inplace):
        # In-place dense: snapshot the state into scratch, then stream back.
        if kind == "dense":
            snap = _scratch(state.size, slot=0)
            np.copyto(snap, state)
            _dense_small_to_out(snap, state, matrix, qubits, n)
            return state
        return _big_to_out(state, matrix, qubits, n, out)

    if out is None:
        out = tracked_empty(state.size)

    if kind == "dense":
        _dense_small_to_out(state, out, matrix, qubits, n)
        return out

    tensor = state.reshape((2,) * n)
    if kind == "diagonal":
        diag_b = _diag_broadcast(info.diagonal, n, qubits)
        if inplace:
            tensor *= diag_b
        else:
            np.multiply(tensor, diag_b, out=out.reshape(tensor.shape))
        return state if inplace else out

    if kind == "permutation":
        if inplace:
            views = _basis_views(tensor, n, qubits)
            _permutation_inplace(views, info.perm, info.phases)
            return state
        out_tensor = out.reshape(tensor.shape)
        in_views = _basis_views(tensor, n, qubits)
        out_views = _basis_views(out_tensor, n, qubits)
        _permutation_to_out(in_views, out_views, info.perm, info.phases)
        return out

    # Controlled: identity outside the all-controls-1 subspace.
    ctrl_axes = [qubit_axis(n, qubits[p]) for p in info.controls]
    fixed = [(ax, 1) for ax in ctrl_axes]
    target_qubits = [qubits[p] for p in info.targets]
    red = info.reduced_info
    if inplace:
        if (
            len(info.controls) == 1
            and len(info.targets) == 1
            and red.kind == "dense"
            and target_qubits[0] < qubits[info.controls[0]]
        ):
            _controlled_gather_gemm_inplace(
                state, n, qubits[info.controls[0]], target_qubits[0],
                info.reduced_matrix,
            )
            return state
        views = _basis_views(tensor, n, target_qubits, fixed)
        _apply_reduced_inplace(views, red, info.reduced_matrix)
        return state
    out_tensor = out.reshape(tensor.shape)
    # Copy the untouched complement (any control bit 0) slice by slice.
    c = len(ctrl_axes)
    for assign in range((1 << c) - 1):
        idx: list = [slice(None)] * n
        for j, ax in enumerate(ctrl_axes):
            idx[ax] = (assign >> j) & 1
        np.copyto(out_tensor[tuple(idx)], tensor[tuple(idx)])
    in_views = _basis_views(tensor, n, target_qubits, fixed)
    out_views = _basis_views(out_tensor, n, target_qubits, fixed)
    _apply_reduced_to_out(in_views, out_views, red, info.reduced_matrix)
    return out


def _controlled_gather_gemm_inplace(
    state: np.ndarray,
    n: int,
    control_qubit: int,
    target_qubit: int,
    reduced_matrix: np.ndarray,
    plan: tuple | None = None,
    compact: np.ndarray | None = None,
) -> None:
    """In-place controlled-1q update via gather + one streaming gemm.

    The control-1 subspace (a strided half-state view whose rows are the
    contiguous low ``2^control_qubit`` blocks) is compacted into scratch,
    then the target unitary is applied with a single batched matmul writing
    straight back into the strided view.  Requires ``target < control`` so
    the target bit lives inside the contiguous rows.

    *state* may carry a leading batch dimension (total size ``B · 2^n``):
    the batch folds into the row count unchanged.  ``plan``/``compact`` let
    compiled programs pass the precomputed gemm plan and a preallocated
    gather buffer (``state.size // 2`` elements).
    """
    post_c = 1 << control_qubit
    # pre_c for a single state; B·pre_c when state is a (B, 2^n) batch.
    rows = state.size // (2 * post_c)
    subspace = state.reshape(rows, 2, post_c)[:, 1, :]
    if compact is None:
        compact = _scratch(rows * post_c, slot=0)
    compact = compact[: rows * post_c].reshape(rows, post_c)
    np.copyto(compact, subspace)
    # Each compact row is a `control_qubit`-qubit sub-state with the target
    # at its original position; reuse the dense 1q gemm planner on it.
    if plan is None:
        plan = _dense_plan(reduced_matrix, control_qubit, (target_qubit,))
    if plan[0] == "gemm_right":
        _, bt, cols = plan
        shape = (rows, post_c // cols, cols)
        np.matmul(compact.reshape(shape), bt, out=subspace.reshape(shape))
    else:  # stacked
        _, m, pre_t, _, post_t = plan
        shape = (rows, pre_t, 2, post_t)
        np.matmul(m, compact.reshape(shape), out=subspace.reshape(shape))


def _apply_reduced_to_out(
    in_views: list[np.ndarray],
    out_views: list[np.ndarray],
    red: MatrixInfo,
    reduced_matrix: np.ndarray,
) -> None:
    if red.kind == "diagonal":
        for b, view in enumerate(in_views):
            np.multiply(view, red.diagonal[b], out=out_views[b])
    elif red.kind == "permutation":
        _permutation_to_out(in_views, out_views, red.perm, red.phases)
    else:
        tmp = _scratch(in_views[0].size, slot=1).reshape(in_views[0].shape)
        _dense_accumulate(in_views, out_views, reduced_matrix, tmp)


def _apply_reduced_inplace(
    views: list[np.ndarray], red: MatrixInfo, reduced_matrix: np.ndarray
) -> None:
    if red.kind == "diagonal":
        for b, view in enumerate(views):
            if red.diagonal[b] != 1:
                view *= red.diagonal[b]
    elif red.kind == "permutation":
        _permutation_inplace(views, red.perm, red.phases)
    else:
        _dense_views_inplace(views, reduced_matrix)


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
    k = len(qubits)
    n = int(state.size).bit_length() - 1
    if state.size != 1 << n:
        raise ValueError("state length is not a power of two")  # lint: config-error
    if diagonal.size != 1 << k:
        raise ValueError("diagonal length does not match qubit count")  # lint: config-error
    tensor = state.reshape((2,) * n)
    diag_b = _diag_broadcast(diagonal, n, qubits)
    if out is state:
        tensor *= diag_b
        return state
    if out is None:
        out = tracked_empty(state.size)
    elif out.size != state.size:
        raise ValueError(f"out has {out.size} amplitudes, expected {state.size}")  # lint: config-error
    np.multiply(tensor, diag_b, out=out.reshape(tensor.shape))
    return out


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


def monomial_gather_plan(
    perm: np.ndarray, phases: np.ndarray, qubits: Sequence[int], n: int
) -> tuple[np.ndarray, np.ndarray | None] | None:
    """:func:`monomial_gather_index` filled with *phases*: ``(source,
    phase_b)``, ``phase_b`` being ``None`` when every phase is 1."""
    index = monomial_gather_index(perm, qubits, n)
    if index is None:
        return None
    source, phase_index = index
    return source, None if np.all(phases == 1) else phases.take(phase_index)


def run_monomial_gather(
    plan: tuple[np.ndarray, np.ndarray | None],
    state: np.ndarray,
    tmp: np.ndarray,
    n: int,
) -> None:
    """Execute a :func:`monomial_gather_plan` in place on *state* — flat
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


def apply_monomial(
    state: np.ndarray,
    perm: np.ndarray | None,
    phases: np.ndarray,
    qubits: Sequence[int],
) -> np.ndarray:
    """Apply a phased permutation over *qubits* to *state*, in place.

    The amplitude at block index ``c`` (bit ``j`` of ``c`` is
    ``qubits[j]``) moves to index ``perm[c]`` scaled by ``phases[c]``;
    ``perm=None`` is the identity permutation, i.e. a diagonal applied as
    one broadcast multiply.  A block that permutes runs as one gather when
    :func:`monomial_gather_plan` applies, else as a cycle walk over its
    ``2^k`` slice views.  This is the interpreted form of the compiled
    ``diagonal`` / ``permutation`` ops of
    :func:`repro.sim.program.compile_monomial_op`, which replay the same
    NumPy calls on the same operands — bit-exact with them.
    """
    n = int(state.size).bit_length() - 1
    tensor = state.reshape((2,) * n)
    if perm is None:
        np.multiply(tensor, _diag_broadcast(phases, n, qubits), out=tensor)
        return state
    plan = monomial_gather_plan(perm, phases, qubits, n)
    if plan is not None:
        run_monomial_gather(plan, state, _scratch(state.size, slot=0), n)
    else:
        _permutation_inplace(_basis_views(tensor, n, qubits), perm.tolist(), phases)
    return state


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
    ``state`` array holds stale data.
    """
    info = analyze_matrix(matrix)
    n = int(state.size).bit_length() - 1
    if _inplace_preferred(info, qubits, n):
        apply_matrix(state, matrix, qubits, out=state)
        return state, scratch
    apply_matrix(state, matrix, qubits, out=scratch)
    return scratch, state


def apply_permutation_x(state: np.ndarray, qubit: int) -> np.ndarray:
    """Apply an X (bit-flip) on *qubit* by swapping slices — returns a new array."""
    n = int(np.log2(state.size))
    tensor = state.reshape((2,) * n)
    axis = qubit_axis(n, qubit)
    return np.ascontiguousarray(np.flip(tensor, axis=axis)).reshape(-1)


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
