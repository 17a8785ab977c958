"""cuQuantum (cusvaer) style baseline simulator model.

The cuQuantum Appliance distributes the state across GPUs and relies on
cuStateVec's generic gate application plus index-bit swaps whenever a gate
touches qubits held on other devices.  There is no global staging
optimisation: qubit placement is fixed (the highest-order qubits are the
distributed ones) and a batch of index-bit swaps is emitted every time a
gate needs a non-local qubit.  Gate fusion is limited to small windows.

The model therefore:

* uses the *first-fit* greedy staging (fixed-layout flavour): a new stage —
  i.e. a new round of index-bit swaps — starts whenever the working set of
  non-insular qubits no longer fits in the local set;
* fuses gates only within contiguous windows of at most four qubits
  (cuStateVec's practical fusion width);
* carries a modest per-kernel overhead reflecting the generic (non
  circuit-specialised) kernels.
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

__all__ = ["CuQuantumSimulator"]


@dataclass
class CuQuantumSimulator(BaselineSimulator):
    """cuQuantum/cusvaer-like: fixed layout, index-bit swaps, small fusion windows."""

    name: str = "cuquantum"
    kernel_overhead_factor: float = 1.25
    comm_overhead_factor: float = 1.0
    fusion_width: int = 4
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
            circuit_name=f"{circuit.name}[cuquantum]",
            gate_table=circuit.gate_table(),
        )
