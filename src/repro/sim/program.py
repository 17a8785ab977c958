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
    _dense_plan_impl,
    _dense_views_inplace,
    _diag_broadcast,
    _effective_kind,
    _gemm_strategy,
    _inplace_preferred,
    _big_to_out,
    analyze_matrix,
    monomial_gather_index,
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
    "OpTemplate",
    "unitary_template",
    "monomial_template",
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
    """The angle-independent part of one compiled op.

    Everything :func:`compile_unitary_op` / :func:`compile_monomial_op`
    derive from *where* an op acts and from the zero/one structure of its
    matrix — the kind, the views' qubit tuple, the permutation move table,
    the gather index, the gemm-plan shape — is resolved once, when the
    template is built.  ``bind(payload)`` does only the numeric fill
    (gathering a diagonal, phases or a reduced block out of the matrix,
    preparing gemm operands) and returns the ``(run, run_batched)``
    closures; :meth:`op` wraps them with the op's static metadata.  A cold
    compile builds the template and binds it once; a rebind to new angles
    binds it again — the same code, so warm and cold programs cannot differ.

    A template built by :func:`unitary_template` is valid for every matrix
    with the :func:`~repro.circuits.gates.matrix_signature` of the one it
    was built from; one built by :func:`monomial_template` for every phase
    vector over its permutation.
    """

    __slots__ = ("kind", "qubits", "tmp_slots", "bind")

    def __init__(
        self,
        kind: str,
        qubits: tuple[int, ...],
        bind: "Callable[[np.ndarray], tuple[Callable, Callable]]",
        tmp_slots: tuple[int, ...] = (),
    ) -> None:
        self.kind = kind
        self.qubits = qubits
        self.bind = bind
        self.tmp_slots = tmp_slots

    def op(
        self, payload: np.ndarray, source: tuple | None = None, gates: "tuple | None" = None
    ) -> CompiledOp:
        run, run_batched = self.bind(payload)
        return CompiledOp(
            self.kind, run, run_batched, source, gates,
            qubits=self.qubits, tmp_slots=self.tmp_slots,
        )


def unitary_template(matrix: np.ndarray, qubits: Sequence[int], n: int) -> OpTemplate:
    """The template of one unitary application; its payload is the matrix.

    Classification (:func:`repro.sim.apply.analyze_matrix` plus the
    position-aware refinements) runs here, once; the in-place vs stream
    decision mirrors :func:`repro.sim.apply.apply_gate_buffered` exactly,
    so compiled and interpreted executions are bit-exact.
    """
    qubits = tuple(qubits)
    info = analyze_matrix(matrix)
    kind = _effective_kind(info, qubits, n)
    if _inplace_preferred(info, qubits, n):
        dim = 1 << info.k
        if info.kind == "diagonal":
            return _diag_template(np.arange(dim) * (dim + 1), qubits, n)
        if kind == "permutation":
            positions = np.asarray(info.perm) * dim + np.arange(dim)
            return _moves_template(info.perm, _index_array(positions), qubits, n)
        return _controlled_template(info, qubits, n)
    if kind == "dense":
        return _dense_template(qubits, n)
    return _big_template(qubits, n)


def monomial_template(
    perm: "Sequence[int] | None", qubits: Sequence[int], n: int
) -> OpTemplate:
    """The template of one monomial block — amplitude ``c`` of the block
    index over *qubits* moves to ``perm[c]``; ``perm=None`` is the
    identity.  Its payload is the block's phase vector.  The compiled form
    of :func:`repro.sim.apply.apply_monomial`, bit-exact with it."""
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

        def run(state, scratch, ws):
            # An in-place op owes the scratch buffer nothing (the next
            # streaming op overwrites it in full), so it is the gather target.
            run_monomial_gather(plan, state, scratch, n)
            return state, scratch

        return run, run

    return OpTemplate("permutation", qubits, bind)


def compile_unitary_op(
    matrix: np.ndarray,
    qubits: Sequence[int],
    n: int,
    source: tuple | None = None,
    gates: "tuple | None" = None,
) -> CompiledOp:
    """Lower one unitary application to a :class:`CompiledOp`:
    :func:`unitary_template` bound to *matrix*."""
    return unitary_template(matrix, qubits, n).op(matrix, source, gates)


def compile_monomial_op(
    perm: "Sequence[int] | None",
    phases: np.ndarray,
    qubits: Sequence[int],
    n: int,
    source: tuple | None = None,
    gates: "tuple | None" = None,
) -> CompiledOp:
    """Lower one monomial block to a ``diagonal`` or ``permutation`` op:
    :func:`monomial_template` bound to *phases*."""
    return monomial_template(perm, qubits, n).op(phases, source, gates)


def compile_lowered_op(
    item: "LoweredItem",
    logical_to_physical: "Mapping[int, int]",
    n: int,
    source: tuple | None = None,
) -> CompiledOp:
    """Lower one item of :func:`repro.sim.fusion.lower_kernel_gates` in a
    stage's layout: a monomial block through :func:`compile_monomial_op`, a
    dense gate or fold through :func:`compile_unitary_op`.  The op records the
    item's gates, so a rebind reuses it whenever they compare equal."""
    physical = tuple(logical_to_physical[q] for q in item.qubits)
    if item.matrix is None:
        return compile_monomial_op(
            item.perm, item.phases, physical, n, source, item.gates
        )
    return compile_unitary_op(item.matrix, physical, n, source, item.gates)


def _diag_template(positions: np.ndarray, qubits: tuple[int, ...], n: int) -> OpTemplate:
    """Diagonal entry ``c`` sits at flat position ``positions[c]`` of the
    payload (a matrix, or the phase vector itself)."""
    index = _index_array(_diag_broadcast(positions, n, qubits))
    shape = (2,) * n
    bshape = (-1,) + shape

    def bind(payload):
        diag_b = payload.take(index)

        def run(state, scratch, ws):
            t = state.reshape(shape)
            np.multiply(t, diag_b, out=t)
            return state, scratch

        def run_batched(states, scratch, ws):
            t = states.reshape(bshape)
            np.multiply(t, diag_b, out=t)
            return states, scratch

        return run, run_batched

    return OpTemplate("diagonal", qubits, bind)


def _permutation_moves(perm) -> tuple[list[tuple[int, int, int]], list[int]]:
    """Lower a permutation to its move skeleton ``(cycle moves, fixed points)``.

    The cycle moves mirror the walk of
    :func:`repro.sim.apply._permutation_inplace` instruction for
    instruction (same sources, destinations and order within a cycle —
    bit-exact), with the cycle discovery hoisted out of execution.  Codes:
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
            phase = phases[b]
            if phase == 1:
                np.copyto(views[a], views[b])
            else:
                np.multiply(views[b], phase, out=views[a])
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
    view_size = 1 << (n - len(qubits))

    def bind(payload):
        moves, phases = _bind_moves(
            skeleton, payload if positions is None else payload.take(positions)
        )

        def run(state, scratch, ws):
            views = ws.views(state, n, qubits)
            tmp = ws.tmp(view_size, slot=1).reshape(views[0].shape)
            _run_moves(views, moves, phases, tmp)
            return state, scratch

        def run_batched(states, scratch, ws):
            views = ws.views(states, n, qubits, lead=1)
            tmp = ws.tmp(states.shape[0] * view_size, slot=1).reshape(views[0].shape)
            _run_moves(views, moves, phases, tmp)
            return states, scratch

        return run, run_batched

    return OpTemplate("permutation", qubits, bind, tmp_slots=(1,))


def _controlled_template(info: MatrixInfo, qubits: tuple[int, ...], n: int) -> OpTemplate:
    red = info.reduced_info
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
        and red.kind == "dense"
        and target_qubits[0] < qubits[info.controls[0]]
    ):
        # Gather + one streaming gemm; the batch folds into the row count.
        ctrl = qubits[info.controls[0]]
        tgt = target_qubits[0]

        def bind(matrix):
            reduced = matrix.take(block)
            plan = _dense_plan_impl(reduced, ctrl, (tgt,))

            def run(state, scratch, ws):
                _controlled_gather_gemm_inplace(
                    state, n, ctrl, tgt, reduced,
                    plan=plan, compact=ws.tmp(state.size // 2, slot=0),
                )
                return state, scratch

            return run, run

        return OpTemplate("controlled", qubits, bind, tmp_slots=(0,))

    fixed = tuple((qubit_axis(n, qubits[p]), 1) for p in info.controls)
    fixed_batched = tuple((1 + ax, 1) for ax, _bit in fixed)
    d = 1 << len(target_qubits)
    view_size = 1 << (n - len(qubits))
    red_kind = red.kind
    if red_kind == "permutation":
        skeleton = _permutation_moves(red.perm)
        positions = _index_array(np.asarray(red.perm) * d + np.arange(d))

    def bind(matrix):
        reduced = matrix.take(block)
        if red_kind == "diagonal":
            red_diag = reduced.diagonal()

            def apply(views, snap, tmp):
                for b, view in enumerate(views):
                    if red_diag[b] != 1:
                        view *= red_diag[b]
        elif red_kind == "permutation":
            moves, phases = _bind_moves(skeleton, reduced.take(positions))

            def apply(views, snap, tmp):
                _run_moves(views, moves, phases, tmp.reshape(views[0].shape))
        else:
            def apply(views, snap, tmp):
                _dense_views_inplace(views, reduced, snap=snap, tmp=tmp)

        def run(state, scratch, ws):
            views = ws.views(state, n, target_qubits, fixed)
            apply(views, ws.tmp(d * view_size, slot=0), ws.tmp(view_size, slot=1))
            return state, scratch

        def run_batched(states, scratch, ws):
            batch = states.shape[0]
            views = ws.views(states, n, target_qubits, fixed_batched, lead=1)
            apply(
                views,
                ws.tmp(batch * d * view_size, slot=0),
                ws.tmp(batch * view_size, slot=1),
            )
            return states, scratch

        return run, run_batched

    return OpTemplate("controlled", qubits, bind, tmp_slots=(0, 1))


def _dense_template(qubits: tuple[int, ...], n: int) -> OpTemplate:
    # Whether the plan needs a temporary follows from (n, qubits) alone.
    # Binds plan unmemoized: their matrices are fresh per job (see
    # :func:`repro.sim.apply._dense_plan`).
    needs_tmp = _gemm_strategy(qubits, n) is None

    def bind(matrix):
        plan = _dense_plan_impl(matrix, n, qubits)

        def run(state, scratch, ws):
            tmp = ws.tmp(state.size // 2, slot=1) if needs_tmp else None
            run_dense_plan(plan, state, scratch, tmp=tmp)
            return scratch, state

        def run_batched(states, scratch, ws):
            run_dense_plan_batched(plan, states, scratch, ws)
            return scratch, states

        return run, run_batched

    return OpTemplate("dense", qubits, bind, tmp_slots=(1,) if needs_tmp else ())


def _big_template(qubits: tuple[int, ...], n: int) -> OpTemplate:
    # Genuinely scattered wide matrix: the tensordot fallback (the one op
    # kind whose application is not allocation-free — tensordot builds its
    # own result; the cost is logged, matching the interpreted path).
    def bind(matrix):
        def run(state, scratch, ws):
            _big_to_out(state, matrix, qubits, n, scratch)
            return scratch, state

        def run_batched(states, scratch, ws):
            _big_to_out(states, matrix, qubits, n, scratch)
            return scratch, states

        return run, run_batched

    return OpTemplate("big", qubits, bind)


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
        ops_rebound: int = 0,
        ops_recompiled: int = 0,
        structure: object | None = None,
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
        #: Which path each gate-binding op took when this program was compiled
        #: with ``reuse=``: taken verbatim from the reuse program (equal
        #: gates), payload refilled through the shared structure (new
        #: angles), or built by a structural compile because the plan failed
        #: the structure guard (all of them, then).  All zero for a cold
        #: compile; layout transposes are never counted.
        self.ops_reused = ops_reused
        self.ops_rebound = ops_rebound
        self.ops_recompiled = ops_recompiled
        #: The angle-independent half of the compilation
        #: (:class:`repro.runtime.compile.ProgramStructure`), shared by the
        #: whole family of programs rebound from this one.
        self.structure = structure
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
