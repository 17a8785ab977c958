"""HyQuas-style baseline simulator model.

HyQuas (Zhang et al., ICS'21) groups gates with a hybrid partitioner
(OShareMem / transposition-based groups) chosen greedily, and reshuffles
the distributed state with a heuristic qubit selection.  The paper's
Figure 5 shows it is the strongest GPU baseline at small GPU counts but
scales worse than Atlas because its greedy staging needs more inter-node
exchanges.

The model here re-creates that behaviour structurally:

* staging uses the greedy (SnuQS-like) heuristic rather than the ILP, which
  yields more stages — and therefore more all-to-all exchanges — on
  circuits where the greedy qubit scores are misleading;
* within a stage, gates are grouped with the contiguous-segment DP
  (ORDERED-KERNELIZE), which is close to HyQuas's OShareMem grouping
  quality but cannot reorder across the sequence like Atlas's KERNELIZE;
* small kernel/communication overhead factors reflect HyQuas's hand-tuned
  CUDA kernels (slightly faster per kernel than the generic model, slightly
  slower exchanges than NCCL-tuned Atlas).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..circuits.circuit import Circuit
from ..cluster.costmodel import DEFAULT_COST_MODEL, CostModel
from ..cluster.machine import MachineConfig
from ..core.ordered_kernelize import ordered_kernelize
from ..core.plan import ExecutionPlan
from ..core.stage_heuristics import snuqs_stage_circuit
from .base import BaselineSimulator

__all__ = ["HyQuasSimulator"]


@dataclass
class HyQuasSimulator(BaselineSimulator):
    """HyQuas-like: greedy staging + contiguous gate grouping."""

    name: str = "hyquas"
    kernel_overhead_factor: float = 1.0
    comm_overhead_factor: float = 1.15
    cost_model: CostModel = field(default_factory=lambda: DEFAULT_COST_MODEL)

    def partition(self, circuit: Circuit, machine: MachineConfig) -> ExecutionPlan:
        machine.validate(circuit.num_qubits)
        staging = snuqs_stage_circuit(
            circuit,
            machine.local_qubits,
            machine.regional_qubits,
            machine.global_qubits,
            inter_node_cost_factor=machine.inter_node_cost_factor,
        )
        for stage in staging.stages:
            stage.kernels = ordered_kernelize(stage.gates, self.cost_model)
        return ExecutionPlan(
            num_qubits=circuit.num_qubits,
            stages=staging.stages,
            circuit_name=f"{circuit.name}[hyquas]",
            gate_table=circuit.gate_table(),
        )
