"""Heuristic circuit staging baselines.

The paper compares its ILP-based staging against the greedy heuristic used
by SnuQS (Section VII-D, Figures 9 and 12): *"greedily selects the qubits
with more gates operating on non-local gates to form a stage and uses the
number of total gates as a tiebreaker"*.  This module re-implements that
heuristic (:func:`snuqs_stage_circuit`) on our circuit IR so that the
ablation benchmarks can regenerate those figures, plus a trivial
``one-gate-per-stage-boundary`` greedy used in tests as a lower-quality
reference point.
"""

from __future__ import annotations

from ..circuits.circuit import Circuit
from .plan import QubitPartition, Stage
from .stage import StagingResult, transition_cost

__all__ = ["snuqs_stage_circuit", "greedy_stage_circuit"]


def _select_qubits(
    circuit: Circuit,
    remaining: list[int],
    local_qubits: int,
    regional_qubits: int,
    force_local: set[int] | None = None,
) -> QubitPartition:
    """Pick the local/regional/global sets for the next stage.

    SnuQS-style scoring: a qubit scores one point for every remaining gate
    whose *non-insular* qubits include it (those are the gates that force
    locality); ties are broken by the total number of remaining gates
    touching the qubit, then by qubit index for determinism.  Qubits in
    *force_local* are placed in the local set unconditionally (used to
    guarantee forward progress when the scoring alone deadlocks).
    """
    n = circuit.num_qubits
    non_insular_count = [0] * n
    total_count = [0] * n
    for idx in remaining:
        gate = circuit[idx]
        for q in gate.non_insular_qubits():
            non_insular_count[q] += 1
        for q in gate.qubits:
            total_count[q] += 1
    forced = force_local or set()
    order = sorted(
        range(n),
        key=lambda q: (q not in forced, -non_insular_count[q], -total_count[q], q),
    )
    local = order[:local_qubits]
    regional = order[local_qubits : local_qubits + regional_qubits]
    global_ = order[local_qubits + regional_qubits :]
    return QubitPartition.from_sets(local, regional, global_)


def _take_stage(circuit: Circuit, remaining: list[int], local: set[int]) -> list[int]:
    """Greedily take the longest dependency-respecting prefix executable locally.

    Scans the remaining gates in order; a gate is taken if all its
    non-insular qubits are local and none of its qubits have been blocked by
    an earlier skipped gate (skipping a gate blocks its qubits, otherwise
    dependencies would be violated).
    """
    taken: list[int] = []
    blocked: set[int] = set()
    for idx in remaining:
        gate = circuit[idx]
        if blocked & set(gate.qubits):
            blocked.update(gate.qubits)
            continue
        if set(gate.non_insular_qubits()) <= local:
            taken.append(idx)
        else:
            blocked.update(gate.qubits)
    return taken


def snuqs_stage_circuit(
    circuit: Circuit,
    local_qubits: int,
    regional_qubits: int,
    global_qubits: int,
    inter_node_cost_factor: float = 3.0,
    max_stages: int = 1000,
) -> StagingResult:
    """SnuQS-style greedy staging (the baseline of Figures 9 and 12)."""
    n = circuit.num_qubits
    if local_qubits + regional_qubits + global_qubits != n:
        raise ValueError("L+R+G must equal the circuit's qubit count")

    remaining = list(range(len(circuit)))
    stages: list[Stage] = []

    while remaining:
        if len(stages) >= max_stages:
            raise RuntimeError("greedy staging did not converge")
        partition = _select_qubits(circuit, remaining, local_qubits, regional_qubits)
        taken = _take_stage(circuit, remaining, set(partition.local))
        if not taken:
            # Scoring ties can leave the very first remaining gate non-local,
            # blocking everything behind it.  Force its qubits local and retry
            # so the heuristic always makes progress.
            first_gate = circuit[remaining[0]]
            partition = _select_qubits(
                circuit, remaining, local_qubits, regional_qubits,
                force_local=set(first_gate.non_insular_qubits()),
            )
            taken = _take_stage(circuit, remaining, set(partition.local))
        if not taken:
            raise RuntimeError(
                "greedy staging made no progress — a gate has more "
                "non-insular qubits than there are local qubits"
            )
        gates = [circuit[i] for i in taken]
        stages.append(Stage(gates=gates, partition=partition, gate_indices=taken))
        taken_set = set(taken)
        remaining = [i for i in remaining if i not in taken_set]

    return StagingResult(
        stages=stages,
        num_stages=len(stages),
        communication_cost=transition_cost([stage.partition for stage in stages], inter_node_cost_factor),
        ilp_feasible=False,
        solver_status="heuristic",
    )


def greedy_stage_circuit(
    circuit: Circuit,
    local_qubits: int,
    regional_qubits: int,
    global_qubits: int,
    inter_node_cost_factor: float = 3.0,
) -> StagingResult:
    """A simpler first-fit staging heuristic (used as a test reference).

    Walks the circuit once, keeping the current stage's local set equal to
    the union of non-insular qubits seen so far; starts a new stage whenever
    that union would exceed ``L``.
    """
    n = circuit.num_qubits
    if local_qubits + regional_qubits + global_qubits != n:
        raise ValueError("L+R+G must equal the circuit's qubit count")

    stages_indices: list[list[int]] = []
    current: list[int] = []
    current_qubits: set[int] = set()
    for idx, gate in enumerate(circuit):
        needed = set(gate.non_insular_qubits())
        if len(current_qubits | needed) > local_qubits and current:
            stages_indices.append(current)
            current = []
            current_qubits = set()
        current.append(idx)
        current_qubits |= needed
    if current:
        stages_indices.append(current)

    stages: list[Stage] = []
    for indices in stages_indices:
        used = set()
        for i in indices:
            used.update(circuit[i].non_insular_qubits())
        # Fill the local set up to L with the lowest-index unused qubits.
        local = sorted(used)
        for q in range(n):
            if len(local) >= local_qubits:
                break
            if q not in used:
                local.append(q)
        local = sorted(local[:local_qubits])
        rest = [q for q in range(n) if q not in local]
        regional = rest[:regional_qubits]
        global_ = rest[regional_qubits:]
        partition = QubitPartition.from_sets(local, regional, global_)
        stages.append(
            Stage(gates=[circuit[i] for i in indices], partition=partition, gate_indices=list(indices))
        )

    return StagingResult(
        stages=stages,
        num_stages=len(stages),
        communication_cost=transition_cost([stage.partition for stage in stages], inter_node_cost_factor),
        ilp_feasible=False,
        solver_status="heuristic",
    )
