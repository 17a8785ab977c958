"""Kernel cost model (Section VI-B of the paper).

The KERNELIZE dynamic program needs a cost function ``COST(K)`` mapping a
kernel to (modelled) execution time.  The paper uses two kernel execution
strategies, each with its own cost:

* **Fusion kernels** — all gates are fused into one ``2^k × 2^k`` matrix and
  applied with cuQuantum.  The cost depends only on the number of qubits
  ``k`` of the kernel and is measured offline per ``k``.
* **Shared-memory kernels** — the state is streamed through GPU shared
  memory in micro-batches and the gates are applied one by one.  The cost
  is ``α + Σ_g cost(g)`` where ``α`` is the fixed micro-batch load time.

The constants below play the role of the offline GPU benchmarking the
paper performs in Section VII-A; they are expressed in abstract *cost
units* (the same relative units as Figures 10 and 13–25) with a separate
calibration (:class:`CostModel.seconds_per_unit`) that converts units to
modelled seconds for the end-to-end performance model.

The most cost-efficient fusion kernel size under the default table is 5
qubits — the property the greedy baseline of Section VII-E exploits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from ..circuits.gates import Gate

__all__ = ["CostModel", "KernelCost", "DEFAULT_COST_MODEL"]


#: Default fusion-kernel cost per kernel size (qubits -> cost units).
#: Shaped like the measured cuQuantum apply-matrix times: flat for tiny
#: matrices (launch-bound), then roughly doubling per added qubit once the
#: matrix work dominates.  Cost is per full pass over a 2^L shard.
_DEFAULT_FUSION_COST: dict[int, float] = {
    0: 0.5,
    1: 1.0,
    2: 1.0,
    3: 1.05,
    4: 1.1,
    5: 1.2,
    6: 2.0,
    7: 3.8,
    8: 7.5,
    9: 15.0,
    10: 30.0,
}

#: Default per-gate cost inside a shared-memory kernel (gate name -> units).
_DEFAULT_SHM_GATE_COST: dict[str, float] = {
    "default": 0.08,
    "diagonal": 0.03,
    "control": 0.05,
}

#: Fixed cost of loading a micro-batch of amplitudes into shared memory (α).
_DEFAULT_SHM_LOAD_COST = 0.9

#: Largest kernel (in qubits) that a fusion kernel may span.
_DEFAULT_MAX_FUSION_QUBITS = 7

#: Largest active-qubit count of a shared-memory kernel (HyQuas uses 10/11;
#: we keep it modest because the functional executor materialises the
#: fused matrix when validating plans).
_DEFAULT_MAX_SHM_QUBITS = 10


@dataclass(frozen=True)
class KernelCost:
    """Cost of one kernel, in cost units, plus its execution strategy."""

    cost: float
    kernel_type: str  # "fusion" | "shm"


@dataclass(frozen=True)
class CostModel:
    """Cost function for kernels (fusion and shared-memory strategies).

    Attributes
    ----------
    fusion_cost_per_qubits:
        Map from kernel qubit count to fusion-kernel cost units.
    shm_load_cost:
        The ``α`` constant: cost of streaming a micro-batch through shared
        memory, charged once per shared-memory kernel.
    shm_gate_cost:
        Per-gate cost inside a shared-memory kernel, keyed by ``"diagonal"``,
        ``"control"`` or ``"default"``.
    max_fusion_qubits:
        Kernels wider than this cannot use the fusion strategy.
    max_shm_qubits:
        Kernels wider than this cannot use the shared-memory strategy.
    seconds_per_unit:
        Conversion from cost units to modelled seconds for one pass over a
        ``2^L``-amplitude shard with the default ``L=28``.
    """

    fusion_cost_per_qubits: Mapping[int, float] = field(
        default_factory=lambda: dict(_DEFAULT_FUSION_COST)
    )
    shm_load_cost: float = _DEFAULT_SHM_LOAD_COST
    shm_gate_cost: Mapping[str, float] = field(
        default_factory=lambda: dict(_DEFAULT_SHM_GATE_COST)
    )
    max_fusion_qubits: int = _DEFAULT_MAX_FUSION_QUBITS
    max_shm_qubits: int = _DEFAULT_MAX_SHM_QUBITS
    seconds_per_unit: float = 6e-3

    # ------------------------------------------------------------------
    # Per-strategy costs
    # ------------------------------------------------------------------

    def fusion_cost(self, num_qubits: int) -> float:
        """Cost units of a fusion kernel over *num_qubits* qubits."""
        if num_qubits > self.max_fusion_qubits:
            return float("inf")
        table = self.fusion_cost_per_qubits
        if num_qubits in table:
            return float(table[num_qubits])
        largest = max(table)
        # Extrapolate: cost doubles per extra qubit beyond the table.
        return float(table[largest]) * (2.0 ** (num_qubits - largest))

    def gate_cost(self, gate: Gate) -> float:
        """Per-gate cost inside a shared-memory kernel."""
        if gate.is_diagonal():
            return float(self.shm_gate_cost.get("diagonal", 0.03))
        if gate.spec.num_controls > 0:
            return float(self.shm_gate_cost.get("control", 0.05))
        return float(self.shm_gate_cost.get("default", 0.08))

    def gate_costs(self, gates: Sequence[Gate]) -> list[float]:
        """:meth:`gate_cost` of each of *gates*, in order — what a
        kernelizer's flat inputs hold.  A gate's cost follows from its name
        and its matrix's sparsity pattern (diagonal or not, controls or
        not), so it is looked up once per ``(name, pattern)`` of a call."""
        by_structure: dict[tuple[str, bytes], float] = {}
        costs: list[float] = []
        for gate in gates:
            key = (gate.name, gate.pattern()[0])
            cost = by_structure.get(key)
            if cost is None:
                cost = by_structure[key] = self.gate_cost(gate)
            costs.append(cost)
        return costs

    def shm_cost(self, gates: Sequence[Gate], num_qubits: int) -> float:
        """Cost units of a shared-memory kernel containing *gates*."""
        if num_qubits > self.max_shm_qubits:
            return float("inf")
        # Left-to-right accumulation, not sum(): builtin sum() over floats is
        # compensated from Python 3.12, and this must be the same bits as the
        # kernelizer DP's running closing cost on every interpreter.
        gate_costs = 0.0
        for g in gates:
            gate_costs += self.gate_cost(g)
        return self.shm_load_cost + gate_costs

    # ------------------------------------------------------------------
    # Kernel-level API used by the kernelizers
    # ------------------------------------------------------------------

    def kernel_cost(self, gates: Sequence[Gate], qubits: Iterable[int] | None = None) -> KernelCost:
        """Best cost over the two strategies for a kernel made of *gates*."""
        if qubits is None:
            qubit_set: set[int] = set()
            for g in gates:
                qubit_set.update(g.qubits)
            width = len(qubit_set)
        else:
            width = len(set(qubits))
        fusion = self.fusion_cost(width)
        shm = self.shm_cost(gates, width)
        if fusion <= shm:
            return KernelCost(fusion, "fusion")
        return KernelCost(shm, "shm")

    def cost(self, gates: Sequence[Gate], qubits: Iterable[int] | None = None) -> float:
        """Shorthand for ``kernel_cost(...).cost``."""
        return self.kernel_cost(gates, qubits).cost

    def best_fusion_width(self) -> int:
        """The most cost-efficient fusion kernel size (cost per qubit covered).

        This is the width the greedy packing baseline of Section VII-E
        targets (5 qubits under the default table).
        """
        best_width, best_density = 1, float("inf")
        for width in range(1, self.max_fusion_qubits + 1):
            density = self.fusion_cost(width) / width
            if density < best_density - 1e-12:
                best_density = density
                best_width = width
        return best_width

    # ------------------------------------------------------------------
    # Conversion to modelled wall-clock time
    # ------------------------------------------------------------------

    def units_to_seconds(self, units: float, local_qubits: int, reference_local_qubits: int = 28) -> float:
        """Convert cost units into modelled seconds for a ``2^L`` shard.

        Cost units are defined for the reference shard size (``L=28``); a
        shard with fewer amplitudes takes proportionally less time because
        the kernels stream proportionally fewer amplitudes.
        """
        scale = 2.0 ** (local_qubits - reference_local_qubits)
        return units * self.seconds_per_unit * scale


#: Default cost model used by the benchmarks.
DEFAULT_COST_MODEL = CostModel()
