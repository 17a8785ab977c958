"""Execution plan data types: qubit partitions, stages, and full plans.

A plan is the output of :func:`repro.core.partitioner.partition` —
Algorithm 1's ``stagedKernels`` — and the input to the executors in
:mod:`repro.runtime`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
from typing import Any, Iterable

from ..circuits.circuit import Circuit
from ..circuits.gates import Gate, GateTable, stray_qubits
from ..errors import PlanValidationError
from .kernel import Kernel, KernelSequence

__all__ = [
    "ExecutionPlan",
    "QubitPartition",
    "Stage",
    "digest_of_body",
    "structure_body",
    "structure_digest",
]


@dataclass(frozen=True)
class QubitPartition:
    """Partition of the *logical* qubits into local / regional / global sets.

    The physical mapping convention follows Definition 1 of the paper: the
    first ``L`` physical qubits are local, the next ``R`` regional, and the
    last ``G`` global.  Logical qubits are assigned to physical positions in
    ascending order within each class, which fixes a concrete
    logical→physical permutation used by the executor.
    """

    local: tuple[int, ...]
    regional: tuple[int, ...]
    global_: tuple[int, ...]

    def __post_init__(self) -> None:
        all_qubits = list(self.local) + list(self.regional) + list(self.global_)
        if len(set(all_qubits)) != len(all_qubits):
            raise PlanValidationError("qubit appears in more than one partition class")

    @classmethod
    def from_sets(
        cls, local: Iterable[int], regional: Iterable[int], global_: Iterable[int]
    ) -> "QubitPartition":
        return cls(tuple(sorted(local)), tuple(sorted(regional)), tuple(sorted(global_)))

    @property
    def num_qubits(self) -> int:
        return len(self.local) + len(self.regional) + len(self.global_)

    @property
    def num_local(self) -> int:
        return len(self.local)

    @property
    def num_regional(self) -> int:
        return len(self.regional)

    @property
    def num_global(self) -> int:
        return len(self.global_)

    def logical_to_physical(self) -> dict[int, int]:
        """Map each logical qubit to its physical position.

        Physical positions ``0..L-1`` are local, ``L..L+R-1`` regional and
        the rest global (Definition 1).
        """
        mapping: dict[int, int] = {}
        position = 0
        for group in (self.local, self.regional, self.global_):
            for logical in group:
                mapping[logical] = position
                position += 1
        return mapping

    def physical_to_logical(self) -> dict[int, int]:
        return {p: q for q, p in self.logical_to_physical().items()}

    def classify(self, logical_qubit: int) -> str:
        if logical_qubit in self.local:
            return "local"
        if logical_qubit in self.regional:
            return "regional"
        if logical_qubit in self.global_:
            return "global"
        raise PlanValidationError(f"qubit {logical_qubit} not in partition")


@dataclass
class Stage:
    """One stage: a contiguous subcircuit plus its qubit partition and kernels."""

    gates: list[Gate]
    partition: QubitPartition
    kernels: KernelSequence | None = None
    gate_indices: list[int] = field(default_factory=list)

    @property
    def num_gates(self) -> int:
        return len(self.gates)

    def subcircuit(self, num_qubits: int, name: str = "stage") -> Circuit:
        return Circuit(num_qubits, self.gates, name=name)

    def kernel_cost(self) -> float:
        return self.kernels.total_cost if self.kernels is not None else 0.0

    def is_local(self) -> bool:
        """Whether the staging invariant holds: non-insular qubits all local."""
        l2p, local = self.partition.logical_to_physical(), self.partition.num_local
        return not any(stray_qubits(g.non_insular_qubits(), l2p, local) for g in self.gates)

    def validate_locality(self, stage_index: int | None = None) -> None:
        """Enforce the staging invariant: non-insular qubits are all local.

        Raises :class:`~repro.errors.PlanValidationError` naming the
        offending gate and qubit; use :meth:`is_local` for the boolean
        predicate.
        """
        l2p, local = self.partition.logical_to_physical(), self.partition.num_local
        for offset, gate in enumerate(self.gates):
            bad = stray_qubits(gate.non_insular_qubits(), l2p, local)
            if bad:
                raise PlanValidationError(
                    f"stage violates the locality invariant: non-insular "
                    f"qubit(s) {sorted(bad)} of gate {gate} are not in the "
                    f"stage's local set {sorted(self.partition.local)}",
                    site="plan.locality",
                    stage=stage_index,
                    gate_offset=offset,
                )


@dataclass
class ExecutionPlan:
    """A fully partitioned circuit: ordered stages with kernelized gates."""

    num_qubits: int
    stages: list[Stage]
    circuit_name: str = "circuit"
    #: Planning provenance stamped by the pipeline's finalize pass: which
    #: preset and pass sequence produced the plan and which passes skipped
    #: their work.  Carried through plan-cache rebinds so every executed
    #: plan can say where it came from.
    provenance: dict[str, Any] = field(default_factory=dict)
    #: The gate table stage ``gate_indices`` are positions in: the
    #: circuit's, for a plan the planner built or bound to a circuit
    #: (:class:`~repro.planner.passes.FinalizePass`,
    #: :func:`repro.session.cache.rebind_plan`); the plan compiler reads
    #: every kernel's numbers there.  A plan built without one gets a table
    #: of its own gates when it is constructed (:func:`_own_table`).
    gate_table: GateTable | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.gate_table is None:
            self.stages, self.gate_table = _own_table(self.stages)

    @property
    def num_stages(self) -> int:
        return len(self.stages)

    @property
    def num_kernels(self) -> int:
        return sum(len(s.kernels) if s.kernels is not None else 0 for s in self.stages)

    @property
    def total_kernel_cost(self) -> float:
        return sum(s.kernel_cost() for s in self.stages)

    def all_gates(self) -> list[Gate]:
        out: list[Gate] = []
        for stage in self.stages:
            out.extend(stage.gates)
        return out

    def gate_count(self) -> int:
        return sum(s.num_gates for s in self.stages)

    def skeleton(self) -> list[tuple]:
        """The plan's structure without its gates: per stage ``(gate
        indices, partition, kernels | None)``, a kernel given as ``(gate
        indices, qubits, kernel type, cost)``.  The one walk every
        structural use of a plan reads — its digest
        (:func:`structure_digest`), its JSON skeleton and its rebind onto
        another circuit's gates (:mod:`repro.session.cache`)."""
        return [
            (
                stage.gate_indices,
                stage.partition,
                None if stage.kernels is None
                else [(k.gate_indices, k.qubits, k.kernel_type, k.cost) for k in stage.kernels],
            )
            for stage in self.stages
        ]

    def digest(self) -> str:
        """:func:`structure_digest` of the plan's :meth:`skeleton`: what a
        compiled structure admits a plan by (with its gate table's bytes,
        :class:`repro.runtime.compile.PlanRecord`), and what the plan cache
        and checkpoints persist."""
        return structure_digest(self.num_qubits, self.skeleton())

    def kernel_types(self) -> tuple:
        """Per stage its kernels' types in order, ``None`` for a stage
        without kernels: what a compiled structure's lowering reads of a
        kernel besides its gate indices, which :meth:`digest` leaves out."""
        return tuple(
            None if stage.kernels is None
            else tuple([kernel.kernel_type for kernel in stage.kernels])
            for stage in self.stages
        )

    def names_its_gates(self) -> bool:
        """Whether every stage's gates — a kernelized stage's as its kernels
        hold them — are its :attr:`gate_table`'s at the positions the
        stage's and kernels' ``gate_indices`` record: what a compiled
        structure reads a plan's gates from."""
        held = self.gate_table.gates
        try:
            for stage in self.stages:
                indices = stage.gate_indices
                if len(indices) != stage.num_gates:
                    return False
                if stage.kernels is None:
                    if stage.gates != [held[p] for p in indices]:
                        return False
                    continue
                for kernel in stage.kernels:
                    if list(kernel.gates) != [held[indices[j]] for j in kernel.gate_indices]:
                        return False
        except IndexError:
            return False
        return True

    def validate(self, circuit: Circuit) -> None:
        """Validate the plan against the original circuit.

        Checks that every gate appears exactly once, that the per-stage
        locality invariant holds, and that the stage assignment respects
        gate dependencies (a gate never appears in an earlier stage than a
        predecessor it depends on).
        """
        if self.gate_count() != len(circuit):
            raise PlanValidationError(
                f"plan covers {self.gate_count()} gates, circuit has {len(circuit)}",
                site="plan.coverage",
                plan_gates=self.gate_count(),
                circuit_gates=len(circuit),
            )
        seen: list[int] = []
        for stage_index, stage in enumerate(self.stages):
            stage.validate_locality(stage_index)
            seen.extend(stage.gate_indices)
        if sorted(seen) != list(range(len(circuit))):
            raise PlanValidationError(
                "plan does not cover every gate exactly once",
                site="plan.coverage",
                indices=sorted(seen),
            )
        if not circuit.is_topologically_equivalent(seen):
            raise PlanValidationError(
                "stage assignment violates gate dependencies",
                site="plan.dependencies",
            )

    def summary(self) -> dict[str, Any]:
        return {
            "circuit": self.circuit_name,
            "num_qubits": self.num_qubits,
            "num_stages": self.num_stages,
            "num_kernels": self.num_kernels,
            "total_kernel_cost": self.total_kernel_cost,
            "gates_per_stage": [s.num_gates for s in self.stages],
            "provenance": dict(self.provenance),
        }


def structure_body(num_qubits: int, stages: Iterable[tuple]) -> tuple:
    """What :func:`structure_digest` hashes: ``(num_qubits, per-stage (gate
    indices, sorted logical → physical items, kernel gate indices or
    None))``, all tuples.  *stages* is in :meth:`ExecutionPlan.skeleton`'s
    form.  Two bodies compare equal exactly when the structures do, which
    is stricter than comparing their digests (the plan cache's integrity
    check)."""
    return num_qubits, tuple(
        (
            tuple(gate_indices),
            tuple(sorted(partition.logical_to_physical().items())),
            None if kernels is None else tuple(tuple(kernel[0]) for kernel in kernels),
        )
        for gate_indices, partition, kernels in stages
    )


def structure_digest(num_qubits: int, stages: Iterable[tuple]) -> str:
    """The one integrity checksum of a plan structure: blake2b over the
    repr of its :func:`structure_body`.  The layout is persisted —
    shared-store entries and checkpoints carry the digest — so it must
    not change."""
    return digest_of_body(structure_body(num_qubits, stages))


def digest_of_body(body: tuple) -> str:
    """:func:`structure_digest` of a :func:`structure_body` already built."""
    return hashlib.blake2b(repr(body).encode(), digest_size=8).hexdigest()


def _names(stage: Stage, kernel: Kernel) -> bool:
    """Whether *kernel*'s ``gate_indices`` name its gates in *stage*."""
    indices = kernel.gate_indices
    return len(indices) == len(kernel.gates) and all(
        0 <= j < stage.num_gates and stage.gates[j] == gate
        for j, gate in zip(indices, kernel.gates)
    )


def _named_kernels(stage: Stage) -> KernelSequence | None:
    """*stage*'s kernels with every kernel's ``gate_indices`` naming its
    gates: the recorded ones where they all do, else — one kernel after
    another, gate by gate — the first position of the stage holding an
    equal gate that no earlier gate took.  A kernel gate the stage does
    not hold leaves the kernels as they are (:func:`repro.check.verify_plan`
    reports that plan; compiling it raises)."""
    kernels = stage.kernels
    if kernels is None or all(_names(stage, kernel) for kernel in kernels):
        return kernels
    free = list(range(stage.num_gates))
    named: list[Kernel] = []
    for kernel in kernels:
        indices: list[int] = []
        for gate in kernel.gates:
            j = next((k for k in free if stage.gates[k] == gate), None)
            if j is None:
                return kernels
            free.remove(j)
            indices.append(j)
        named.append(replace(kernel, gate_indices=tuple(indices)))
    return KernelSequence(named)


def _own_table(stages: list[Stage]) -> tuple[list[Stage], GateTable]:
    """``(stages, the table of their gates)`` for a plan built without a
    table.  Gate ``gate_indices[k]`` of a stage sits at that position when
    the stages' indices number the plan's gates ``0..n-1`` once each (a
    hand-built plan of a whole circuit); otherwise — no indices, or a
    slice of a plan's stages — the stages are copied with indices in plan
    order.  Kernels whose ``gate_indices`` do not name their gates are
    copied with ones that do (:func:`_named_kernels`).  The caller's stage
    and kernel objects are never written to."""
    total = sum(stage.num_gates for stage in stages)
    recorded = [j for stage in stages for j in stage.gate_indices]
    numbered = sorted(recorded) == list(range(total)) and all(
        len(stage.gate_indices) == stage.num_gates for stage in stages
    )
    placed: dict[int, Gate] = {}
    out: list[Stage] = []
    offset = 0
    for stage in stages:
        indices = (
            list(stage.gate_indices) if numbered
            else list(range(offset, offset + stage.num_gates))
        )
        offset += stage.num_gates
        placed.update(zip(indices, stage.gates))
        kernels = _named_kernels(stage)
        if indices != stage.gate_indices or kernels is not stage.kernels:
            stage = replace(stage, gate_indices=indices, kernels=kernels)
        out.append(stage)
    return out, GateTable([placed[j] for j in range(total)])
