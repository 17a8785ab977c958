"""KERNELIZE — the dynamic-programming kernelizer (Section V / VI of the paper).

The kernelizer partitions the gate sequence of one stage into kernels so
that the summed kernel cost (Equation 12) is minimised, while every kernel
respects Constraint 1 (weak convexity + monotonicity), which guarantees that
the kernels can be ordered into a sequence topologically equivalent to the
original circuit (Theorem 2).

Implementation notes
--------------------
The DP follows the paper's implementation strategy (Section VI-A):

* the state tracks, for every *open* kernel, its qubit set and its
  *extensible qubit set* (Definition 3), maintained incrementally with
  Algorithm 4;
* kernels whose extensible set becomes empty — or can no longer intersect
  any future gate — are closed immediately and their cost added;
* the gate-subsumption optimisation (Appendix B-b) collapses the branching
  when a gate's qubits are already contained in an open kernel;
* a beam-pruning threshold ``T`` (Appendix B-f) bounds the number of DP
  states kept per position, ranked by accumulated cost plus a
  post-processing estimate of the open kernels' cost.

Two deliberate simplifications relative to the C++ implementation are
documented in DESIGN.md: the fusion/shared-memory decision is made when a
kernel is *closed* (taking the cheaper strategy) rather than being part of
the DP state, and the insular-qubit relaxations of Appendix B-a are not
applied inside the kernelizer (they are applied by the stager).  Both keep
the search space smaller; the pruning threshold plays the same quality/time
role as in the paper (Figure 13).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import networkx as nx

from ..circuits.circuit import Circuit
from ..circuits.gates import Gate
from ..cluster.costmodel import DEFAULT_COST_MODEL, CostModel
from .kernel import Kernel, KernelSequence

__all__ = ["kernelize", "KernelizeConfig"]


@dataclass(frozen=True)
class KernelizeConfig:
    """Tuning knobs of the DP kernelizer."""

    #: Beam width T (Appendix B-f).  The paper uses 500 in C++; the default
    #: here balances Python runtime against plan quality; Figure 13's
    #: ablation sweeps this value.
    pruning_threshold: int = 100
    #: Hard cap on kernel width (qubits); kernels wider than the shared-
    #: memory limit can never be cheaper, so they are not explored.
    max_kernel_width: int | None = None
    #: Enable the subsumption shortcut (Appendix B-b).
    subsume: bool = True

    def __post_init__(self) -> None:
        # An empty beam keeps no state at all: the DP would return an empty
        # kernelization of a non-empty stage.
        if self.pruning_threshold < 1:
            raise ValueError(
                f"pruning_threshold must be >= 1, got {self.pruning_threshold}"
            )
        if self.max_kernel_width is not None and self.max_kernel_width < 1:
            raise ValueError(
                f"max_kernel_width must be None or >= 1, got {self.max_kernel_width}"
            )


@dataclass(frozen=True)
class _OpenKernel:
    """An open kernel in a DP state.

    ``extensible`` of ``None`` denotes the paper's ``ALLQUBITS`` marker.
    """

    gate_indices: tuple[int, ...]
    qubits: frozenset[int]
    extensible: frozenset[int] | None

    def can_accept(self, gate_qubits: frozenset[int], max_width: int) -> bool:
        if self.extensible is None:
            return len(self.qubits | gate_qubits) <= max_width
        return gate_qubits <= self.extensible

    def accept(self, gate_index: int, gate_qubits: frozenset[int]) -> "_OpenKernel":
        if self.extensible is None:
            return _OpenKernel(
                self.gate_indices + (gate_index,), self.qubits | gate_qubits, None
            )
        # Monotonicity already applied: qubit set is frozen.
        return _OpenKernel(self.gate_indices + (gate_index,), self.qubits, self.extensible)

    def observe_other_gate(self, gate_qubits: frozenset[int]) -> "_OpenKernel":
        """Algorithm 4, lines 6–13: update EXTQ after a gate joined another kernel."""
        if self.extensible is None:
            if self.qubits & gate_qubits:
                return _OpenKernel(self.gate_indices, self.qubits, self.qubits - gate_qubits)
            return self
        return _OpenKernel(self.gate_indices, self.qubits, self.extensible - gate_qubits)

    @property
    def is_dead(self) -> bool:
        return self.extensible is not None and not self.extensible


@dataclass
class _DpState:
    """One DP state: the open kernels plus everything already closed."""

    open_kernels: tuple[_OpenKernel, ...]
    closed_cost: float
    closed: tuple[tuple[int, ...], ...]

    def key(self) -> tuple:
        return tuple(sorted(k.gate_indices for k in self.open_kernels))


class _CostCache:
    """Precomputed per-gate costs so the DP's inner loop never touches matrices."""

    def __init__(self, gates: Sequence[Gate], cost_model: CostModel):
        self.cost_model = cost_model
        self.gate_shm_cost = [cost_model.gate_cost(g) for g in gates]
        self.shm_load = cost_model.shm_load_cost
        self.max_shm = cost_model.max_shm_qubits
        self.fusion = [cost_model.fusion_cost(w) for w in range(cost_model.max_shm_qubits + 2)]
        self.max_fusion = cost_model.max_fusion_qubits

    def close_cost(self, gate_indices: Sequence[int], qubits: frozenset[int]) -> float:
        width = len(qubits)
        fusion = self.fusion[width] if width <= self.max_fusion else float("inf")
        if width <= self.max_shm:
            # Left-to-right accumulation, not sum(): builtin sum() over
            # floats is compensated from Python 3.12, and the closing cost
            # must be the same bits as fast_kernelize's running ``+=``.
            shm_sum = 0.0
            for i in gate_indices:
                shm_sum += self.gate_shm_cost[i]
            shm = self.shm_load + shm_sum
        else:
            shm = float("inf")
        return min(fusion, shm)


def _close_dead_kernels(
    state: _DpState,
    future_qubits: frozenset[int],
    costs: _CostCache,
) -> _DpState:
    """Close kernels that can no longer accept any future gate."""
    still_open: list[_OpenKernel] = []
    closed = list(state.closed)
    cost = state.closed_cost
    for kernel in state.open_kernels:
        ext = kernel.extensible
        reachable = future_qubits if ext is None else (ext & future_qubits)
        if kernel.is_dead or not reachable:
            cost += costs.close_cost(kernel.gate_indices, kernel.qubits)
            closed.append(kernel.gate_indices)
        else:
            still_open.append(kernel)
    if len(still_open) == len(state.open_kernels):
        return state
    return _DpState(tuple(still_open), cost, tuple(closed))


def _estimate(state: _DpState, costs: _CostCache) -> float:
    """Lower-ish bound used for beam ranking: closed cost + open kernels' cost now.

    The association is pinned — the open kernels' closing costs summed in
    open order, then ``closed_cost +`` that — because it is what
    ``fast_kernelize`` maintains: adding ``closed_cost`` first differs in the
    last bit, which re-orders ties and selects another kernelization.
    """
    open_cost = 0.0
    for kernel in state.open_kernels:
        open_cost += costs.close_cost(kernel.gate_indices, kernel.qubits)
    return state.closed_cost + open_cost


def kernelize(
    stage: Circuit | Sequence[Gate],
    cost_model: CostModel = DEFAULT_COST_MODEL,
    config: KernelizeConfig = KernelizeConfig(),
) -> KernelSequence:
    """Partition a gate sequence into kernels with the DP of Algorithm 3.

    Parameters
    ----------
    stage:
        The gate sequence of one stage (a :class:`Circuit` or a plain list
        of gates).
    cost_model:
        Kernel cost model (Equation 12's ``COST``).
    config:
        DP tuning knobs (beam width, kernel width cap).

    Returns
    -------
    KernelSequence
        Kernels in a valid execution order (topologically equivalent to the
        input sequence), each tagged with its execution strategy and cost.
    """
    gates: list[Gate] = list(stage.gates) if isinstance(stage, Circuit) else list(stage)
    if not gates:
        return KernelSequence(kernels=[])

    max_width = config.max_kernel_width
    if max_width is None:
        max_width = max(cost_model.max_fusion_qubits, cost_model.max_shm_qubits)

    costs = _CostCache(gates, cost_model)

    # Suffix qubit sets: qubits appearing at or after position i+1, used to
    # close kernels early once nothing can extend them.
    suffix: list[frozenset[int]] = [frozenset()] * (len(gates) + 1)
    running: set[int] = set()
    for i in range(len(gates) - 1, -1, -1):
        suffix[i + 1] = frozenset(running)
        running.update(gates[i].qubits)
    suffix[0] = frozenset(running)

    beam: dict[tuple, _DpState] = {(): _DpState((), 0.0, ())}

    for i, gate in enumerate(gates):
        gate_qubits = frozenset(gate.qubits)
        next_states: dict[tuple, _DpState] = {}

        def consider(state: _DpState) -> None:
            state = _close_dead_kernels(state, suffix[i + 1], costs)
            key = state.key()
            best = next_states.get(key)
            if best is None or state.closed_cost < best.closed_cost:
                next_states[key] = state

        for state in beam.values():
            acceptors = [
                idx
                for idx, kernel in enumerate(state.open_kernels)
                if kernel.can_accept(gate_qubits, max_width)
            ]

            # Subsumption shortcut: if an open kernel already contains all of
            # the gate's qubits, adding the gate there is never worse.
            subsumed = None
            if config.subsume:
                for idx in acceptors:
                    if gate_qubits <= state.open_kernels[idx].qubits:
                        subsumed = idx
                        break

            chosen_acceptors = [subsumed] if subsumed is not None else acceptors
            for idx in chosen_acceptors:
                new_open = []
                for j, kernel in enumerate(state.open_kernels):
                    if j == idx:
                        new_open.append(kernel.accept(i, gate_qubits))
                    else:
                        new_open.append(kernel.observe_other_gate(gate_qubits))
                consider(_DpState(tuple(new_open), state.closed_cost, state.closed))

            if subsumed is None:
                # Start a new single-gate kernel.
                new_open = [k.observe_other_gate(gate_qubits) for k in state.open_kernels]
                new_open.append(_OpenKernel((i,), gate_qubits, None))
                consider(_DpState(tuple(new_open), state.closed_cost, state.closed))

        # Beam pruning (Appendix B-f).
        states = sorted(next_states.values(), key=lambda s: _estimate(s, costs))
        states = states[: config.pruning_threshold]
        beam = {s.key(): s for s in states}

    # Close everything that is still open and pick the best state: the
    # first of least total (the first state when no total is finite — a gate
    # wider than both strategies allow prices every kernelization at inf,
    # and a complete one must still come back).
    best_total = float("inf")
    best_closed: tuple[tuple[int, ...], ...] | None = None
    for state in beam.values():
        total = state.closed_cost
        closed = list(state.closed)
        for kernel in state.open_kernels:
            total += costs.close_cost(kernel.gate_indices, kernel.qubits)
            closed.append(kernel.gate_indices)
        if best_closed is None or total < best_total:
            best_total = total
            best_closed = tuple(closed)

    return _build_kernel_sequence(gates, best_closed, cost_model)


def _build_kernel_sequence(
    gates: Sequence[Gate],
    kernel_gate_indices: Sequence[tuple[int, ...]],
    cost_model: CostModel,
) -> KernelSequence:
    """Order the kernels topologically and materialise :class:`Kernel` objects."""
    # Kernel dependency DAG: kernel A must run before kernel B if some gate
    # of A precedes a gate of B on a shared qubit (in the original order).
    owner: dict[int, int] = {}
    for k_idx, indices in enumerate(kernel_gate_indices):
        for gi in indices:
            owner[gi] = k_idx

    dag = nx.DiGraph()
    dag.add_nodes_from(range(len(kernel_gate_indices)))
    last_gate_on_qubit: dict[int, int] = {}
    for gi in sorted(owner):
        gate = gates[gi]
        for q in gate.qubits:
            prev = last_gate_on_qubit.get(q)
            if prev is not None and owner[prev] != owner[gi]:
                dag.add_edge(owner[prev], owner[gi])
            last_gate_on_qubit[q] = gi

    try:
        order = list(nx.lexicographical_topological_sort(dag))
    except nx.NetworkXUnfeasible as exc:  # pragma: no cover - Constraint 1 prevents this
        raise RuntimeError("kernelization produced cyclic kernel dependencies") from exc

    kernels: list[Kernel] = []
    for k_idx in order:
        indices = sorted(kernel_gate_indices[k_idx])
        kernel_gates = [gates[i] for i in indices]
        kernels.append(Kernel.from_gates(kernel_gates, cost_model, gate_indices=indices))
    return KernelSequence(kernels=kernels)
