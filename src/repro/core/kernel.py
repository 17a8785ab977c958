"""Kernel data types.

A *kernel* is a group of gates executed together on one GPU: either as a
single fused matrix ("fusion" kernel) or out of GPU shared memory ("shm"
kernel: the amplitudes are loaded once and the gates applied to them —
here tile by tile, as one item per run of diagonal/permutation gates or group
of dense gates, :func:`repro.sim.fusion.lower_kernel_gates`) — Section VI-B
of the paper.
Kernels are produced by the kernelization algorithms in
:mod:`repro.core.kernelize`, :mod:`repro.core.ordered_kernelize` and
:mod:`repro.core.greedy_kernelize`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from ..circuits.gates import Gate
from ..cluster.costmodel import CostModel

__all__ = ["KernelType", "Kernel", "KernelSequence"]


class KernelType(enum.Enum):
    """Execution strategy of a kernel."""

    FUSION = "fusion"
    SHM = "shm"


@dataclass(frozen=True)
class Kernel:
    """A group of gates executed as one GPU kernel.

    Attributes
    ----------
    gates:
        The gates in the kernel, in a valid execution order.
    qubits:
        Sorted union of the gates' qubits.
    kernel_type:
        Fusion or shared-memory execution strategy.
    cost:
        Modelled execution cost (cost units of the cost model used to build
        the kernel plan).
    gate_indices:
        Indices of the gates in the original (stage) gate sequence, used by
        tests to check topological equivalence.
    """

    gates: tuple[Gate, ...]
    qubits: tuple[int, ...]
    kernel_type: KernelType
    cost: float
    gate_indices: tuple[int, ...] = field(default_factory=tuple)

    @classmethod
    def from_gates(
        cls,
        gates: Sequence[Gate],
        cost_model: CostModel,
        gate_indices: Sequence[int] = (),
    ) -> "Kernel":
        """Build a kernel from *gates*, picking the cheaper execution strategy."""
        qubits: set[int] = set()
        for gate in gates:
            qubits.update(gate.qubits)
        kc = cost_model.kernel_cost(list(gates), qubits)
        ktype = KernelType.FUSION if kc.kernel_type == "fusion" else KernelType.SHM
        return cls(
            gates=tuple(gates),
            qubits=tuple(sorted(qubits)),
            kernel_type=ktype,
            cost=kc.cost,
            gate_indices=tuple(gate_indices),
        )

    @property
    def num_qubits(self) -> int:
        return len(self.qubits)

    @property
    def num_gates(self) -> int:
        return len(self.gates)

    def __len__(self) -> int:
        return len(self.gates)


@dataclass
class KernelSequence:
    """An ordered sequence of kernels covering one stage's gates."""

    kernels: list[Kernel]

    @property
    def total_cost(self) -> float:
        return sum(k.cost for k in self.kernels)

    @property
    def num_gates(self) -> int:
        return sum(k.num_gates for k in self.kernels)

    def __iter__(self):
        return iter(self.kernels)

    def __len__(self) -> int:
        return len(self.kernels)

    def all_gate_indices(self) -> list[int]:
        out: list[int] = []
        for k in self.kernels:
            out.extend(k.gate_indices)
        return out

    def widths(self) -> list[int]:
        return [k.num_qubits for k in self.kernels]
