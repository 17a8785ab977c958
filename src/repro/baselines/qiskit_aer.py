"""Qiskit Aer (GPU backend) style baseline simulator model.

Aer's GPU state-vector backend applies gates through its generic chunk-
based (cache-blocking) machinery with a simple sequential gate-fusion pass
(default fusion width 5, contiguous gates only), and exchanges chunks
between devices whenever a gate spans chunk boundaries.  In the paper's
Figure 5 it is one to two orders of magnitude slower than the specialised
GPU simulators, dominated by per-gate launch overheads and chunk traffic.

The model mirrors that structure: first-fit staging over a fixed layout,
contiguous fusion of width ≤ 3 (Aer's effective width after its conservative
cost heuristics on these circuits), and a large per-kernel overhead factor
representing the generic chunk machinery and Python-driven scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..circuits.circuit import Circuit
from ..cluster.costmodel import DEFAULT_COST_MODEL, CostModel
from ..cluster.machine import MachineConfig
from ..core.greedy_kernelize import greedy_kernelize
from ..core.plan import ExecutionPlan
from ..core.stage_heuristics import greedy_stage_circuit
from .base import BaselineSimulator

__all__ = ["QiskitAerSimulator"]


@dataclass
class QiskitAerSimulator(BaselineSimulator):
    """Qiskit-Aer-like: chunked execution, conservative fusion, high overheads."""

    name: str = "qiskit"
    kernel_overhead_factor: float = 30.0
    comm_overhead_factor: float = 2.5
    fusion_width: int = 3
    cost_model: CostModel = field(default_factory=lambda: DEFAULT_COST_MODEL)

    def partition(self, circuit: Circuit, machine: MachineConfig) -> ExecutionPlan:
        machine.validate(circuit.num_qubits)
        staging = greedy_stage_circuit(
            circuit,
            machine.local_qubits,
            machine.regional_qubits,
            machine.global_qubits,
            inter_node_cost_factor=machine.inter_node_cost_factor,
        )
        for stage in staging.stages:
            stage.kernels = greedy_kernelize(
                stage.gates, self.cost_model, max_width=self.fusion_width
            )
        return ExecutionPlan(
            num_qubits=circuit.num_qubits,
            stages=staging.stages,
            circuit_name=f"{circuit.name}[qiskit]",
            gate_table=circuit.gate_table(),
        )
