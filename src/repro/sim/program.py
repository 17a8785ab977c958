"""Compiled op streams: pre-resolved gate application with batched execution.

:mod:`repro.sim.apply` makes a *single* gate application fast, but every
call still pays Python-side dispatch: matrix structure analysis, dense-plan
cache lookups, and branchy kind selection.  This module hoists all of that
to *compile time*.  :func:`compile_unitary_op` classifies a matrix once and
returns a :class:`CompiledOp` whose closures carry the fully-resolved
payload — the broadcast diagonal vector, the permutation cycle table, the
reduced controlled block, or the dense gemm plan with its prepared small
matrices — so executing the op is a tight sequence of NumPy/BLAS calls with
zero analysis, zero hashing and zero dict lookups.

Ops follow the same ping-pong buffer contract as
:func:`repro.sim.apply.apply_gate_buffered` and make the *same* in-place vs
stream decisions, so a compiled stream is bit-exact with the interpreted
one.  Every op also has a **batched** form: the same payload applied to a
``(B, 2^n)`` stack of states with single B-wide GEMM/broadcast calls per op
instead of ``B`` independent passes.  The batch dimension folds into the
leading gemm axis; structured (copy/broadcast) ops are bit-identical to
``B`` single runs, while GEMM ops hand BLAS a different matrix shape and
may differ by summation-order rounding (~1e-16 per op) — batched and
looped results agree to tight tolerance, and often exactly.

:class:`CompiledProgram` strings ops into an executable program.  Its
:class:`Workspace` preallocates and owns every buffer the program needs —
the state/scratch ping-pong pair (per batch width) and the per-op
temporaries — so steady-state re-execution performs **zero** engine
allocations (see the allocation-log regression tests).  Plan-level
compilation lives in :mod:`repro.runtime.compile`.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import TYPE_CHECKING, Callable, Mapping, Sequence

import numpy as np

from ..errors import StateValidationError
from .apply import (
    MatrixInfo,
    _basis_views,
    _controlled_gather_gemm_inplace,
    _dense_accumulate,
    _dense_plan,
    _dense_views_inplace,
    _diag_broadcast,
    _effective_kind,
    _inplace_preferred,
    _big_to_out,
    analyze_matrix,
    monomial_gather_plan,
    qubit_axis,
    run_dense_plan,
    run_monomial_gather,
    tracked_empty,
)
from .statevector import StateVector

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .fusion import LoweredItem

__all__ = [
    "CompiledOp",
    "CompiledProgram",
    "INPLACE_KINDS",
    "STREAM_KINDS",
    "Workspace",
    "compile_unitary_op",
    "compile_monomial_op",
    "compile_lowered_op",
    "compile_layout_op",
    "run_dense_plan_batched",
    "release_thread_workspace",
    "thread_workspace",
]


class Workspace:
    """Preallocated, reusable buffer set for compiled-program execution.

    All buffers come from :func:`repro.sim.apply.tracked_empty` (so the
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
        """Memoized :func:`repro.sim.apply._basis_views` of *buf*: the
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
        shape = buf.shape[:lead] + (2,) * n
        value = _basis_views(buf.reshape(shape), n, qubits, fixed, lead)
        if hit is not None:  # a recycled id: the old buffer is gone
            self._views_held -= len(self._views.pop(key)[1])
        self._views[key] = (buf, value)
        self._views_held += len(value)
        while self._views_held > self._MAX_VIEWS and len(self._views) > 1:
            _key, (_buf, dropped) = self._views.popitem(last=False)
            self._views_held -= len(dropped)
        return value

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
    use).  Shard-runtime workers use this so compiled segment ops stay
    thread-safe while still reusing buffers across shards and stages;
    ``execute_plan``'s compiled path runs on it too.  The buffers persist
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
    pairs, batch pairs, temporaries, view memos).  The next compiled
    execution on this thread re-allocates them."""
    ws = getattr(_WS_TLS, "ws", None)
    if ws is not None:
        ws.clear()
        _WS_TLS.ws = None


#: Buffer discipline per op kind: structured kinds update the state buffer
#: in place; streaming kinds read the state buffer and write the scratch
#: buffer in full, swapping the ping-pong roles.  The static verifier
#: (:mod:`repro.check`) proves each op's declared ``mode`` against this
#: table without executing anything.
INPLACE_KINDS = frozenset({"diagonal", "permutation", "controlled"})
STREAM_KINDS = frozenset({"dense", "big", "layout"})


class CompiledOp:
    """One fully-resolved operation of a compiled stream.

    ``run(state, scratch, ws)`` operates on flat ``(2^n,)`` buffers,
    ``run_batched(states, scratch, ws)`` on ``(B, 2^n)`` stacks; both
    return the ``(state, scratch)`` pair with roles possibly swapped
    (streaming ops write into scratch, structured ops update in place).
    ``source`` names where in the plan the op came from and ``gates`` the
    gate objects its payload was resolved from — the rebind machinery
    reuses an op verbatim when a structurally identical plan binds equal
    gates at the same source.

    The remaining slots are *static metadata* mirroring what the closures
    actually do, consumed by :mod:`repro.check` to verify the stream
    without executing it: ``mode`` declares the ping-pong discipline
    (``"inplace"`` or ``"stream"``), ``qubits`` the physical qubit
    positions the payload touches (``None`` for whole-state layout ops)
    and ``tmp_slots`` the workspace temporary slots the closures borrow
    (slots must never alias within one op).
    """

    __slots__ = (
        "kind", "run", "run_batched", "source", "gates",
        "mode", "qubits", "tmp_slots",
    )

    def __init__(
        self,
        kind: str,
        run: "Callable[..., tuple[np.ndarray, np.ndarray]]",
        run_batched: "Callable[..., tuple[np.ndarray, np.ndarray]]",
        source: tuple | None = None,
        gates: "tuple | None" = None,
        mode: str | None = None,
        qubits: tuple[int, ...] | None = None,
        tmp_slots: tuple[int, ...] = (),
    ) -> None:
        self.kind = kind
        self.run = run
        self.run_batched = run_batched
        self.source = source
        self.gates = gates
        self.mode = mode if mode is not None else (
            "inplace" if kind in INPLACE_KINDS else "stream"
        )
        self.qubits = qubits
        self.tmp_slots = tmp_slots

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<CompiledOp {self.kind} source={self.source}>"


# ---------------------------------------------------------------------------
# Batched dense-plan execution
# ---------------------------------------------------------------------------


def run_dense_plan_batched(
    plan: tuple, states: np.ndarray, out: np.ndarray, ws: Workspace
) -> None:
    """Execute a dense gemm *plan* against a ``(B, 2^n)`` state stack.

    The batch folds into the leading gemm dimension (``gemm_right`` /
    ``stacked`` / split plans) or broadcasts over a batched matmul
    (``gemm_left``), so each op is one B-wide BLAS call.  Each output
    amplitude is the same mathematical dot product a single-state run
    computes, but the folded shape can change BLAS blocking and therefore
    summation order — per-state results match looped runs to ~1e-16 per
    op, not necessarily bit for bit.
    """
    kind = plan[0]
    if kind == "gemm_right":
        _, bt, cols = plan
        np.matmul(states.reshape(-1, cols), bt, out=out.reshape(-1, cols))
    elif kind == "gemm_left":
        _, b, rows = plan
        shape = (states.shape[0], rows, states.shape[-1] // rows)
        np.matmul(b, states.reshape(shape), out=out.reshape(shape))
    elif kind == "stacked":
        _, m, _pre, d, post = plan
        shape = (-1, d, post)
        np.matmul(m, states.reshape(shape), out=out.reshape(shape))
    elif kind == "split_stacked":
        _, mats, _pre, mid, post = plan
        src = states.reshape(-1, 2, mid, 2, post)
        dst = out.reshape(-1, 2, mid, 2, post)
        tmp = ws.tmp(states.size // 2, slot=1).reshape(-1, mid, 2, post)
        for a in (0, 1):
            dst_a = dst[:, a]
            np.matmul(mats[a][0], src[:, 0], out=dst_a)
            np.matmul(mats[a][1], src[:, 1], out=tmp)
            dst_a += tmp
    else:  # split_gemm
        _, bts, _pre, mid, cols = plan
        src = states.reshape(-1, 2, mid, cols)
        dst = out.reshape(-1, 2, mid, cols)
        tmp = ws.tmp(states.size // 2, slot=1).reshape(-1, mid, cols)
        for a in (0, 1):
            dst_a = dst[:, a]
            np.matmul(src[:, 0], bts[a][0], out=dst_a)
            np.matmul(src[:, 1], bts[a][1], out=tmp)
            dst_a += tmp


# ---------------------------------------------------------------------------
# Op builders
# ---------------------------------------------------------------------------


def compile_unitary_op(
    matrix: np.ndarray,
    qubits: Sequence[int],
    n: int,
    source: tuple | None = None,
    gates: "tuple | None" = None,
) -> CompiledOp:
    """Lower one unitary application to a :class:`CompiledOp`.

    Classification (:func:`repro.sim.apply.analyze_matrix` plus the
    position-aware refinements) runs here, once; the returned closures
    perform the update with the resolved payload only.  The in-place vs
    stream decision mirrors :func:`repro.sim.apply.apply_gate_buffered`
    exactly, so compiled and interpreted executions are bit-exact.
    """
    qubits = tuple(qubits)
    info = analyze_matrix(matrix)
    kind = _effective_kind(info, qubits, n)
    if _inplace_preferred(info, qubits, n):
        if info.kind == "diagonal":
            return _diag_op(info.diagonal, qubits, n, source, gates)
        if kind == "permutation":
            return _perm_op(info.perm, info.phases, qubits, n, source, gates)
        return _controlled_op(info, qubits, n, source, gates)
    if kind == "dense":
        return _dense_op(matrix, qubits, n, source, gates)
    return _big_op(matrix, qubits, n, source, gates)


def compile_monomial_op(
    perm: "Sequence[int] | None",
    phases: np.ndarray,
    qubits: Sequence[int],
    n: int,
    source: tuple | None = None,
    gates: "tuple | None" = None,
) -> CompiledOp:
    """Lower one monomial block — amplitude ``c`` of the block index over
    *qubits* moves to ``perm[c]`` scaled by ``phases[c]``; ``perm=None`` is
    the identity — to a ``diagonal`` or ``permutation`` op.  The compiled
    form of :func:`repro.sim.apply.apply_monomial`, bit-exact with it."""
    qubits = tuple(qubits)
    if perm is None:
        return _diag_op(phases, qubits, n, source, gates)
    plan = monomial_gather_plan(perm, phases, qubits, n)
    if plan is None:
        return _perm_op(perm, phases, qubits, n, source, gates)

    def run(state, scratch, ws):
        # An in-place op owes the scratch buffer nothing (the next streaming
        # op overwrites it in full), so it serves as the gather target.
        run_monomial_gather(plan, state, scratch, n)
        return state, scratch

    return CompiledOp("permutation", run, run, source, gates, qubits=qubits)


def compile_lowered_op(
    item: "LoweredItem",
    logical_to_physical: "Mapping[int, int]",
    n: int,
    source: tuple | None = None,
) -> CompiledOp:
    """Lower one item of :func:`repro.sim.fusion.lower_kernel_gates` in a
    stage's layout: a monomial block through :func:`compile_monomial_op`, a
    dense gate through :func:`compile_unitary_op`.  The op records the
    item's gates, so a rebind reuses it whenever they compare equal."""
    physical = tuple(logical_to_physical[q] for q in item.qubits)
    if item.matrix is None:
        return compile_monomial_op(
            item.perm, item.phases, physical, n, source, item.gates
        )
    return compile_unitary_op(item.matrix, physical, n, source, item.gates)


def _diag_op(
    diagonal: np.ndarray, qubits: Sequence[int], n: int, source: tuple | None, gates: "tuple | None"
) -> CompiledOp:
    diag_b = _diag_broadcast(diagonal, n, qubits)
    shape = (2,) * n
    bshape = (-1,) + shape

    def run(state, scratch, ws):
        t = state.reshape(shape)
        np.multiply(t, diag_b, out=t)
        return state, scratch

    def run_batched(states, scratch, ws):
        t = states.reshape(bshape)
        np.multiply(t, diag_b, out=t)
        return states, scratch

    return CompiledOp("diagonal", run, run_batched, source, gates, qubits=qubits)


def _compile_permutation_moves(
    perm, phases
) -> list[tuple[int, int, int, complex]]:
    """Lower a phased permutation to a flat move sequence.

    Mirrors the cycle walk of
    :func:`repro.sim.apply._permutation_inplace` instruction for
    instruction (same sources, destinations and order — bit-exact), but
    hoists the cycle discovery to compile time.  Codes: 0 = copy view
    ``b``→``a`` (phase-scaled), 1 = save view ``a`` to tmp, 2 = restore
    tmp to view ``a`` (phase-scaled), 3 = scale view ``a`` in place.
    """
    d = len(perm)
    visited = [False] * d
    moves: list[tuple[int, int, int, complex]] = []
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
                moves.append((3, start, 0, phases[start]))
            continue
        last = cycle[-1]
        moves.append((1, last, 0, 1))
        for i in range(len(cycle) - 1, 0, -1):
            src, dst = cycle[i - 1], cycle[i]
            moves.append((0, dst, src, phases[src]))
        moves.append((2, cycle[0], 0, phases[last]))
    return moves


def _run_moves(views, moves, tmp) -> None:
    for code, a, b, phase in moves:
        if code == 0:
            if phase == 1:
                np.copyto(views[a], views[b])
            else:
                np.multiply(views[b], phase, out=views[a])
        elif code == 1:
            np.copyto(tmp, views[a])
        elif code == 2:
            if phase == 1:
                np.copyto(views[a], tmp)
            else:
                np.multiply(tmp, phase, out=views[a])
        else:
            views[a] *= phase


def _perm_op(
    perm: Sequence[int], phases: np.ndarray, qubits: Sequence[int], n: int,
    source: tuple | None, gates: "tuple | None",
) -> CompiledOp:
    qubits = tuple(qubits)
    moves = _compile_permutation_moves(np.asarray(perm).tolist(), phases)
    view_size = 1 << (n - len(qubits))

    def run(state, scratch, ws):
        views = ws.views(state, n, qubits)
        tmp = ws.tmp(view_size, slot=1).reshape(views[0].shape)
        _run_moves(views, moves, tmp)
        return state, scratch

    def run_batched(states, scratch, ws):
        views = ws.views(states, n, qubits, lead=1)
        tmp = ws.tmp(states.shape[0] * view_size, slot=1).reshape(views[0].shape)
        _run_moves(views, moves, tmp)
        return states, scratch

    return CompiledOp(
        "permutation", run, run_batched, source, gates,
        qubits=qubits, tmp_slots=(1,),
    )


def _controlled_op(
    info: MatrixInfo, qubits: Sequence[int], n: int, source: tuple | None, gates: "tuple | None"
) -> CompiledOp:
    red = info.reduced_info
    reduced_matrix = info.reduced_matrix
    target_qubits = [qubits[p] for p in info.targets]
    control_qubit = qubits[info.controls[0]] if info.controls else None

    if (
        len(info.controls) == 1
        and len(info.targets) == 1
        and red.kind == "dense"
        and target_qubits[0] < control_qubit
    ):
        # Gather + one streaming gemm; the batch folds into the row count.
        plan = _dense_plan(reduced_matrix, control_qubit, (target_qubits[0],))
        ctrl = control_qubit
        tgt = target_qubits[0]

        def run(state, scratch, ws):
            _controlled_gather_gemm_inplace(
                state, n, ctrl, tgt, reduced_matrix,
                plan=plan, compact=ws.tmp(state.size // 2, slot=0),
            )
            return state, scratch

        def run_batched(states, scratch, ws):
            _controlled_gather_gemm_inplace(
                states, n, ctrl, tgt, reduced_matrix,
                plan=plan, compact=ws.tmp(states.size // 2, slot=0),
            )
            return states, scratch

        return CompiledOp(
            "controlled", run, run_batched, source, gates,
            qubits=tuple(qubits), tmp_slots=(0,),
        )

    target_qubits = tuple(target_qubits)
    fixed = tuple((qubit_axis(n, qubits[p]), 1) for p in info.controls)
    fixed_batched = tuple((1 + ax, 1) for ax, _bit in fixed)
    d = 1 << len(target_qubits)
    view_size = 1 << (n - len(qubits))
    red_kind = red.kind
    red_diag = red.diagonal
    red_moves = (
        _compile_permutation_moves(red.perm, red.phases)
        if red_kind == "permutation"
        else None
    )

    def _apply(views, snap, tmp):
        if red_kind == "diagonal":
            for b, view in enumerate(views):
                if red_diag[b] != 1:
                    view *= red_diag[b]
        elif red_kind == "permutation":
            _run_moves(views, red_moves, tmp.reshape(views[0].shape))
        else:
            _dense_views_inplace(views, reduced_matrix, snap=snap, tmp=tmp)

    def run(state, scratch, ws):
        views = ws.views(state, n, target_qubits, fixed)
        _apply(views, ws.tmp(d * view_size, slot=0), ws.tmp(view_size, slot=1))
        return state, scratch

    def run_batched(states, scratch, ws):
        batch = states.shape[0]
        views = ws.views(states, n, target_qubits, fixed_batched, lead=1)
        _apply(
            views,
            ws.tmp(batch * d * view_size, slot=0),
            ws.tmp(batch * view_size, slot=1),
        )
        return states, scratch

    return CompiledOp(
        "controlled", run, run_batched, source, gates,
        qubits=tuple(qubits), tmp_slots=(0, 1),
    )


def _dense_op(
    matrix: np.ndarray, qubits: Sequence[int], n: int, source: tuple | None, gates: "tuple | None"
) -> CompiledOp:
    plan = _dense_plan(matrix, n, qubits)
    needs_tmp = plan[0] in ("split_stacked", "split_gemm")

    def run(state, scratch, ws):
        tmp = ws.tmp(state.size // 2, slot=1) if needs_tmp else None
        run_dense_plan(plan, state, scratch, tmp=tmp)
        return scratch, state

    def run_batched(states, scratch, ws):
        run_dense_plan_batched(plan, states, scratch, ws)
        return scratch, states

    return CompiledOp(
        "dense", run, run_batched, source, gates,
        qubits=tuple(qubits), tmp_slots=(1,) if needs_tmp else (),
    )


def _big_op(
    matrix: np.ndarray, qubits: Sequence[int], n: int, source: tuple | None, gates: "tuple | None"
) -> CompiledOp:
    # Genuinely scattered wide matrix: the tensordot fallback (the one op
    # kind whose application is not allocation-free — tensordot builds its
    # own result; the cost is logged, matching the interpreted path).
    def run(state, scratch, ws):
        _big_to_out(state, matrix, qubits, n, scratch)
        return scratch, state

    def run_batched(states, scratch, ws):
        for b in range(states.shape[0]):
            _big_to_out(states[b], matrix, qubits, n, scratch[b])
        return scratch, states

    return CompiledOp("big", run, run_batched, source, gates, qubits=tuple(qubits))


def compile_layout_op(
    axes: Sequence[int], n: int, source: tuple | None = None
) -> CompiledOp:
    """A stage-boundary layout permutation as a precomputed axis transpose.

    *axes* is the tensor-axis permutation produced by
    :func:`repro.runtime.sharding.permutation_axes`; identity permutations
    must be elided by the caller (the compiler never emits them).
    """
    axes = list(axes)
    shape = (2,) * n
    baxes = [0] + [a + 1 for a in axes]

    def run(state, scratch, ws):
        permuted = np.transpose(state.reshape(shape), axes=axes)
        np.copyto(scratch.reshape(permuted.shape), permuted)
        return scratch, state

    def run_batched(states, scratch, ws):
        permuted = np.transpose(states.reshape((-1,) + shape), axes=baxes)
        np.copyto(scratch.reshape(permuted.shape), permuted)
        return scratch, states

    return CompiledOp("layout", run, run_batched, source, None, qubits=None)


# ---------------------------------------------------------------------------
# The program container
# ---------------------------------------------------------------------------


class CompiledProgram:
    """A plan lowered to a flat, re-executable op stream.

    Built by :func:`repro.runtime.compile.compile_plan`.  The program owns
    (lazily, through its :class:`Workspace`) every buffer execution needs;
    repeated :meth:`run_view` / :meth:`run_batched_view` calls perform zero
    engine allocations once warm.  Programs are cheap to rebind: a
    structurally identical plan reuses every op whose source gates are
    unchanged (see ``compile_plan(reuse=...)``), so only angle-dependent
    payloads are recomputed.

    The op stream is immutable and may be executed from several threads
    concurrently, but **each concurrent caller must pass its own
    workspace** (``run(..., workspace=thread_workspace())``) — the default
    program-owned workspace belongs to one executing thread at a time.
    `execute_plan` does exactly this, so its compiled path stays as
    thread-safe as the interpreter.
    """

    def __init__(
        self,
        num_qubits: int,
        ops: list[CompiledOp],
        workspace: Workspace | None = None,
        num_stages: int = 0,
        num_gates: int = 0,
        num_kernels: int = 0,
        num_permutations: int = 0,
        kernels_per_stage: list[int] | None = None,
        locality_checked: bool = True,
        ops_reused: int = 0,
        provenance: dict | None = None,
    ) -> None:
        self.num_qubits = num_qubits
        self.ops = ops
        self.workspace = workspace if workspace is not None else Workspace()
        self.num_stages = num_stages
        #: Gates of the source plan; ``num_gates / len(ops)`` is how many
        #: gates an op absorbed on average (fusion kernels and folded
        #: shared-memory runs absorb many, layout ops none).
        self.num_gates = num_gates
        self.num_kernels = num_kernels
        self.num_permutations = num_permutations
        self.kernels_per_stage = kernels_per_stage or []
        self.locality_checked = locality_checked
        #: How many ops were taken verbatim from the reuse program (rebind).
        self.ops_reused = ops_reused
        #: Planning provenance of the source plan (preset, pipeline, skips)
        #: — carried through compilation and rebinds so runtime consumers
        #: can attribute an executing program to the pipeline that planned it.
        self.provenance = dict(provenance) if provenance else {}

    def __len__(self) -> int:
        return len(self.ops)

    def op_counts(self) -> dict[str, int]:
        """Ops per kind — what the plan lowered to (tests/diagnostics)."""
        counts: dict[str, int] = {}
        for op in self.ops:
            counts[op.kind] = counts.get(op.kind, 0) + 1
        return counts

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def _load(
        self, buf: np.ndarray, initial_state: "StateVector | np.ndarray | None"
    ) -> None:
        if initial_state is None:
            buf[:] = 0.0
            buf.reshape(-1)[0] = 1.0
            return
        if isinstance(initial_state, StateVector):
            if initial_state.num_qubits != self.num_qubits:
                raise StateValidationError(
                    "initial state size does not match program"
                )
            initial_state.copy_into(buf)
            return
        data = np.asarray(initial_state)
        if data.size != buf.size:
            raise StateValidationError("initial state size does not match program")
        np.copyto(buf, data.reshape(buf.shape))

    def run_view(
        self,
        initial_state: StateVector | np.ndarray | None = None,
        workspace: Workspace | None = None,
    ) -> np.ndarray:
        """Execute and return the final state as a **view** into the
        workspace buffer (invalidated by the next run on that workspace).
        Steady-state calls allocate nothing.

        ``workspace`` overrides the program-owned default; concurrent
        callers sharing one program must each pass their own (e.g.
        :func:`thread_workspace`) — the op stream itself is immutable and
        thread-safe, the buffers are not.
        """
        ws = workspace if workspace is not None else self.workspace
        size = 1 << self.num_qubits
        pair = ws.pair(size)
        state, scratch = pair
        self._load(state, initial_state)
        for op in self.ops:
            state, scratch = op.run(state, scratch, ws)
        pair[0], pair[1] = state, scratch
        return state

    def run(
        self,
        initial_state: StateVector | np.ndarray | None = None,
        workspace: Workspace | None = None,
    ) -> StateVector:
        """Execute and return a fresh :class:`StateVector` (one tracked
        state-sized allocation for the caller-owned copy)."""
        final = self.run_view(initial_state, workspace=workspace)
        out = tracked_empty(final.size)
        np.copyto(out, final)
        return StateVector(self.num_qubits, out)

    def run_batched_view(
        self, initial_states: Sequence, workspace: Workspace | None = None
    ) -> np.ndarray:
        """Execute the program once against a ``(B, 2^n)`` stack of initial
        states; returns the stacked final states as a view into the
        workspace batch buffer (invalidated by the next run)."""
        batch = len(initial_states)
        if batch == 0:
            raise ValueError("empty batch")  # lint: config-error
        ws = workspace if workspace is not None else self.workspace
        size = 1 << self.num_qubits
        pair = ws.pair2d(batch, size)
        states, scratch = pair
        for b, initial in enumerate(initial_states):
            self._load(states[b], initial)
        for op in self.ops:
            states, scratch = op.run_batched(states, scratch, ws)
        pair[0], pair[1] = states, scratch
        return states

    def run_batched(
        self, initial_states: Sequence, workspace: Workspace | None = None
    ) -> list[StateVector]:
        """Batched execution returning caller-owned :class:`StateVector`
        copies, one per initial state, in order."""
        finals = self.run_batched_view(initial_states, workspace=workspace)
        out = []
        for b in range(finals.shape[0]):
            buf = tracked_empty(finals.shape[1])
            np.copyto(buf, finals[b])
            out.append(StateVector(self.num_qubits, buf))
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<CompiledProgram {self.num_qubits}q {len(self.ops)} ops "
            f"{self.num_stages} stages>"
        )
