"""Structural plan cache — amortise partitioning across a parameter sweep.

Atlas-style staged simulation pays an expensive preprocessing step (ILP
staging + DP kernelization) per circuit.  For the repository's variational
workloads (``vqc``/``qsvm`` parameter sweeps) every circuit in the sweep is
*structurally identical* — same gate sequence, different rotation angles —
so the plan's stage boundaries, qubit partitions and kernel grouping are
identical too.  The cache exploits that:

* the key combines :meth:`Circuit.structural_key` (gate structure + matrix
  sparsity patterns, angles excluded) with the machine configuration and
  the planner configuration, so a hit is only possible when partitioning
  would provably make the same decisions;
* a hit returns the cached plan *re-bound* to the new circuit's gates
  (:func:`rebind_plan`): the stage/kernel skeleton — partitions, kernel
  boundaries, costs — is shared, while every gate object comes from the
  circuit actually being executed, so angles are never stale;
* alongside the plan, the cache stores what the executing backends
  lowered it to, one per kind: the plan's **compiled program**
  (:class:`repro.sim.program.CompiledProgram`) for the in-core backends,
  its **shard schedule** (:class:`repro.runtime.offload.Schedule`) for the
  sharded ones, which rebinds the same way per shards-segment
  (``build_schedule(reuse=...)``).  The program carries the angle-independent half of its
  compilation (:class:`repro.runtime.compile.ProgramStructure`), so a hit
  only *fills* it (``compile_plan(reuse=...)``): constant-structure gates
  (H, CX, …) keep their compiled op verbatim, ops that absorbed an angle
  get a new payload through the cached structure, and the whole rebound
  family shares the base program's workspace buffers.  The structural key
  is a tolerance pattern (``> 1e-12``); the fill guards itself with the
  exact one, and a circuit that shares the key but not the exact pattern
  (``rx(1e-13)`` against ``rx(0)``) is compiled from scratch, counted in
  ``SessionStats.program_rebind_fallbacks``, and leaves the cached entry
  as it was.

The cache is an LRU over a bounded number of structures and is owned by a
:class:`repro.session.Session`; it is not thread-safe on its own.
"""

from __future__ import annotations

import json
import threading
from collections import OrderedDict
from dataclasses import dataclass, fields
from typing import Iterator, Mapping, NamedTuple

from ..circuits.circuit import Circuit
from ..core.kernel import Kernel, KernelSequence, KernelType
from ..core.partitioner import PartitionReport
from ..core.plan import (
    ExecutionPlan,
    QubitPartition,
    Stage,
    digest_of_body,
    structure_body,
    structure_digest,
)
from ..errors import CacheCorruptionError, PlanValidationError
from ..planner.pipeline import freeze_config

__all__ = [
    "BoundPlan",
    "CacheStats",
    "PlanCache",
    "Stamp",
    "frozen",
    "plan_cache_key",
    "plan_fingerprint",
    "plan_skeleton",
    "rebind_plan",
    "shared_plan_key",
    "skeleton_fingerprint",
    "skeleton_to_plan",
]


#: ``id(config) -> (config, its frozen form)``, most recent last.
_FROZEN: OrderedDict[int, tuple] = OrderedDict()
_FROZEN_MAX = 16
_FROZEN_LOCK = threading.Lock()


def frozen(config):
    """:func:`freeze_config` of *config* memoised on its identity, for a
    configuration that does not change once built: a frozen
    :class:`~repro.cluster.machine.MachineConfig` or
    :class:`~repro.cluster.costmodel.CostModel` (a
    :class:`~repro.planner.pipeline.PassManager` carries its own
    ``signature``).  Another object — a
    reassigned cost model, another machine — is another entry, so a stale
    key is never served; the memo holds the few most recent."""
    slot = id(config)
    with _FROZEN_LOCK:
        entry = _FROZEN.get(slot)
        if entry is not None and entry[0] is config:
            _FROZEN.move_to_end(slot)
            return entry[1]
    value = freeze_config(config)
    with _FROZEN_LOCK:
        _FROZEN[slot] = (config, value)
        _FROZEN.move_to_end(slot)
        while len(_FROZEN) > _FROZEN_MAX:
            _FROZEN.popitem(last=False)
    return value


def plan_cache_key(circuit: Circuit, machine, planner_key: object) -> tuple:
    """The full cache key for planning *circuit* on *machine*.

    ``planner_key`` identifies everything else that influences the plan:
    the full pipeline signature and the cost model for the Atlas pipeline,
    or the baseline simulator identity for modelled baseline backends.
    """
    return (circuit.structural_key(), frozen(machine), planner_key)


def shared_plan_key(circuit: Circuit, machine, planner_key: object) -> tuple[tuple, dict[int, int]]:
    """The cross-tenant cache key for planning *circuit* on *machine*.

    Same shape as :func:`plan_cache_key` but built from the circuit's
    :meth:`~repro.circuits.circuit.Circuit.canonical_structural_key`, so
    structurally equivalent circuits submitted with permuted qubit labels
    resolve to one entry.  Returns ``(key, mapping)`` where *mapping*
    relabels this circuit's qubits into the canonical form the cached plan
    is stored in.
    """
    canonical, mapping = circuit.canonical_structural_key()
    return (canonical, frozen(machine), planner_key), mapping


def plan_fingerprint(plan: ExecutionPlan) -> str:
    """A cheap structural checksum of *plan* for cache-integrity checks.

    Covers the skeleton a rebind relies on — qubit count, per-stage gate
    membership, the stage partitions, and the kernel boundaries — via the
    one digest of a plan structure (:meth:`~repro.core.plan.ExecutionPlan.digest`,
    :func:`~repro.core.plan.structure_digest` of its skeleton).  A
    :class:`BoundPlan` whose stages nobody has read yet is its base's.
    """
    return plan.digest()


@dataclass
class CacheStats:
    """Hit/miss accounting of one :class:`PlanCache`."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    #: Entries that failed their integrity check on lookup (each one was
    #: evicted and surfaced as a :class:`CacheCorruptionError`).
    corruptions: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> dict:
        """Every field by name plus the derived ``hit_rate``."""
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["hit_rate"] = self.hit_rate
        return out


class Stamp(NamedTuple):
    """What a cache hit says of its entry's plan besides the plan: its
    :func:`plan_fingerprint` and
    :meth:`~repro.core.plan.ExecutionPlan.kernel_types` — what a warm row
    is admitted by (:class:`repro.runtime.compile.Row`) — and the entry's
    modelled timings by ``(backend, machine, cost model)``, a dict every
    row bound from the entry shares (the model reads the structure only)."""

    digest: str
    kinds: tuple
    timings: dict


class PlanCache:
    """Bounded LRU cache from structural plan keys to ``(plan, report)``.

    The cached :class:`ExecutionPlan` is treated as immutable: callers get
    either the stored object itself (when executing the very circuit that
    built it) or a :func:`rebind_plan` copy — never a mutable alias.
    """

    def __init__(self, maxsize: int = 128):
        if maxsize < 1:
            raise ValueError("maxsize must be at least 1")  # lint: config-error
        self.maxsize = maxsize
        #: key -> [plan, report, programs, structure body, digest or None,
        #: timings]
        self._entries: OrderedDict[tuple, list] = OrderedDict()
        self.stats = CacheStats()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: tuple) -> bool:
        return key in self._entries

    def get(self, key: tuple) -> tuple | None:
        """Look up *key*, counting a hit or miss and refreshing LRU order.

        Returns ``(plan, report, programs, stamp)`` — ``programs`` maps a
        kind (``"program"``, ``"schedule"``) to what was stored for it, and
        is empty when the entry was stored with neither; ``stamp`` is the
        plan's :class:`Stamp`.  Every hit is verified against the
        structure recorded at :meth:`put` time — the plan's
        :func:`~repro.core.plan.structure_body`, compared whole, which is
        stricter than comparing digests and spares hashing it; an entry
        that no longer matches (a mutated or corrupted plan) is evicted and
        surfaced as a :class:`~repro.errors.CacheCorruptionError` — the
        caller replans instead of executing a poisoned structure.
        """
        entry = self._entries.get(key)
        if entry is None:
            self.stats.misses += 1
            return None
        plan, report, programs, body, digest, timings = entry
        skeleton = plan.skeleton()
        if structure_body(plan.num_qubits, skeleton) != body:
            del self._entries[key]
            self.stats.corruptions += 1
            self.stats.misses += 1
            raise CacheCorruptionError(
                "cached plan failed its integrity check; entry evicted",
                site="cache_rebind",
            )
        if digest is None:  # hashed on the entry's first hit, not at put
            digest = entry[4] = digest_of_body(body)
        kinds = tuple(
            None if kernels is None else tuple([kernel[2] for kernel in kernels])
            for _indices, _partition, kernels in skeleton
        )
        self._entries.move_to_end(key)
        self.stats.hits += 1
        return plan, report, programs, Stamp(digest, kinds, timings)

    def put(
        self,
        key: tuple,
        plan: ExecutionPlan,
        report: PartitionReport | None = None,
        programs: Mapping | None = None,
    ) -> None:
        """Store ``(plan, report, programs)`` under *key*, evicting the LRU
        entry if full.  ``programs`` holds, by kind, what backends lowered
        the structure to — the compiled op stream (its workspace is shared
        with every rebind served from this entry), the shard schedule —
        so backends sharing a key never evict each other's.  Storing the
        entry's own plan again (a new program) keeps its digest and
        timings."""
        body = structure_body(plan.num_qubits, plan.skeleton())
        old = self._entries.get(key)
        if old is not None:
            self._entries.move_to_end(key)
        elif len(self._entries) >= self.maxsize:
            self._entries.popitem(last=False)
            self.stats.evictions += 1
        kept = old is not None and old[0] is plan and old[3] == body
        self._entries[key] = [
            plan, report, dict(programs or {}), body,
            old[4] if kept else None, old[5] if kept else {},
        ]

    def evict(self, key: tuple) -> bool:
        """Drop *key* if present (used on corruption detected downstream)."""
        if key in self._entries:
            del self._entries[key]
            return True
        return False

    def clear(self) -> None:
        self._entries.clear()


def _bind(circuit: Circuit, what: str, num_qubits: int, stages, provenance) -> ExecutionPlan:
    """An :class:`ExecutionPlan` of *circuit*'s own gates over a stored
    structure — the one stage → kernel rebuild behind :func:`rebind_plan`
    and :func:`skeleton_to_plan`.  *stages* is in
    :meth:`~repro.core.plan.ExecutionPlan.skeleton`'s form; *what* names
    the structure in the error of one that does not fit the circuit."""
    if num_qubits != circuit.num_qubits:
        raise PlanValidationError(
            f"{what} spans {num_qubits} qubits, circuit has {circuit.num_qubits}"
        )
    stages = list(stages)
    total = sum(len(gate_indices) for gate_indices, _, _ in stages)
    if total != len(circuit):
        raise PlanValidationError(
            f"{what} covers {total} gates, circuit has {len(circuit)}"
        )
    bound = []
    of_circuit = circuit.gates.__getitem__
    for gate_indices, partition, kernels in stages:
        gates = list(map(of_circuit, gate_indices))
        if kernels is not None:
            of_stage = gates.__getitem__
            kernels = KernelSequence(
                kernels=[
                    Kernel(
                        gates=tuple(map(of_stage, indices)),
                        qubits=qubits,
                        kernel_type=kernel_type,
                        cost=cost,
                        gate_indices=indices,
                    )
                    for indices, qubits, kernel_type, cost in kernels
                ]
            )
        bound.append(
            Stage(
                gates=gates,
                partition=partition,
                kernels=kernels,
                gate_indices=list(gate_indices),
            )
        )
    return ExecutionPlan(
        num_qubits=num_qubits,
        stages=bound,
        circuit_name=circuit.name,
        provenance=dict(provenance),
        gate_table=circuit.gate_table(),
    )


def rebind_plan(plan: ExecutionPlan, circuit: Circuit) -> ExecutionPlan:
    """Re-bind a cached plan's structure onto *circuit*'s gates.

    *circuit* must share the structural key of the circuit the plan was
    built from (the cache key guarantees it): the stage skeleton — qubit
    partitions, stage membership, kernel boundaries, kernel types and costs
    — carries over verbatim, while every gate object is taken from
    *circuit* via the recorded ``gate_indices``, so the executed angles are
    always the new circuit's.  The cached plan is not modified.
    """
    return _bind(circuit, "plan", plan.num_qubits, plan.skeleton(), plan.provenance)


class BoundPlan(ExecutionPlan):
    """:func:`rebind_plan` of a cached plan *base* onto *circuit*, whose
    stages are built the first time they are read.

    A warm row of a stack is admitted, bound and run without its stages:
    the plan compiler admits it by its digest, kernel types and gate table
    (:class:`repro.runtime.compile.PlanRecord`), the in-core executor runs
    its program and the modelled timing is the entry's.  So the row
    carries what those read — the base's qubit count and provenance, the
    *stamp* of the cache lookup that served *base* (its :meth:`digest` and
    :meth:`kernel_types`, and the entry's timings), the circuit's name and
    gate table — and its ``stages`` are those of ``bind(base, circuit)``
    (:func:`rebind_plan` by default), built on first read: of
    ``Result.plan``'s stages or ``summary()``, by a static check, a
    declined row's fallback compile or a sharded executor.  Until then its
    gates are its table's by construction (:meth:`names_its_gates`); from
    then on it is the rebound plan, read as its stages stand.  It pickles
    and copies as a plain :class:`ExecutionPlan`.
    """

    def __init__(self, base: ExecutionPlan, circuit: Circuit, stamp: Stamp, bind=None) -> None:
        # Not the dataclass __init__: nothing of the structure is built yet.
        self.num_qubits = base.num_qubits
        self.circuit_name = circuit.name
        self.provenance = dict(base.provenance)
        self.gate_table = circuit.gate_table()
        #: The cached plan this one rebinds, and what its lookup said of it.
        self.base, self.stamp = base, stamp
        self._source = (circuit, rebind_plan if bind is None else bind)
        self._stages: list[Stage] | None = None

    @property
    def stages(self) -> list[Stage]:
        if self._stages is None:
            circuit, bind = self._source
            self._stages = bind(self.base, circuit).stages
        return self._stages

    @stages.setter
    def stages(self, value: list[Stage]) -> None:
        self._stages = value

    def digest(self) -> str:
        return self.stamp.digest if self._stages is None else super().digest()

    def kernel_types(self) -> tuple:
        return self.stamp.kinds if self._stages is None else super().kernel_types()

    def names_its_gates(self) -> bool:
        return self._stages is None or super().names_its_gates()

    def __eq__(self, other):
        # The dataclass comparison, across the two classes.
        if not isinstance(other, ExecutionPlan):
            return NotImplemented
        return (self.num_qubits, self.stages, self.circuit_name, self.provenance) == (
            other.num_qubits, other.stages, other.circuit_name, other.provenance
        )

    def __reduce__(self):
        return ExecutionPlan, (
            self.num_qubits, self.stages, self.circuit_name, self.provenance, self.gate_table,
        )


# ---------------------------------------------------------------------------
# Plan skeletons — the serialized form of a cached plan
# ---------------------------------------------------------------------------

#: Version stamp of the skeleton JSON schema; bump on incompatible change
#: (loaders evict entries with a different version instead of guessing).
SKELETON_VERSION = 1


def plan_skeleton(plan: ExecutionPlan, mapping: Mapping[int, int] | None = None) -> dict:
    """Serialize *plan*'s structure into a JSON-able skeleton dict.

    The skeleton carries exactly what a rebind needs — per-stage gate
    indices, the qubit partitions, and the kernel grouping — plus a
    ``fingerprint`` checksum (:func:`plan_fingerprint` of the structure
    stored) that loaders verify before trusting the entry.  Gates are
    deliberately *not* stored: a skeleton is always bound to the gates of
    the circuit being executed (:func:`skeleton_to_plan`), so angles can
    never be stale.  With a *mapping* every qubit label — stage partitions,
    kernel qubit sets — is stored relabelled through it (gate indices are
    label-free): a plan published in its circuit's canonical labels binds
    to any relabelled twin.  The plan's provenance is kept whole, every
    value that survives a JSON round trip, so a plan bound from the
    skeleton says where it came from as the built one does.  Nothing
    compiled is stored: a program is rebuilt from the bound plan.
    """
    relabel = (lambda q: q) if mapping is None else mapping.__getitem__
    stages = [
        {
            "gate_indices": list(gate_indices),
            "local": sorted(map(relabel, partition.local)),
            "regional": sorted(map(relabel, partition.regional)),
            "global": sorted(map(relabel, partition.global_)),
            "kernels": None if kernels is None else [
                {
                    "gate_indices": list(indices),
                    "qubits": sorted(map(relabel, qubits)),
                    "kernel_type": kernel_type.value,
                    "cost": cost,
                }
                for indices, qubits, kernel_type, cost in kernels
            ],
        }
        for gate_indices, partition, kernels in plan.skeleton()
    ]
    skeleton = {
        "version": SKELETON_VERSION,
        "num_qubits": plan.num_qubits,
        "circuit_name": plan.circuit_name,
        "stages": stages,
        "provenance": {
            key: value
            for key, value in plan.provenance.items()
            if _survives_json(value)
        },
    }
    skeleton["fingerprint"] = skeleton_fingerprint(skeleton)
    return skeleton


def _survives_json(value) -> bool:
    """Whether *value* comes back equal from a JSON round trip — what a
    skeleton's provenance keeps of a plan's."""
    try:
        return json.loads(json.dumps(value)) == value
    except (TypeError, ValueError):
        return False


def _stored_stages(skeleton: Mapping, relabel) -> Iterator[tuple]:
    """A stored skeleton's stages in
    :meth:`~repro.core.plan.ExecutionPlan.skeleton`'s form, every qubit
    label read through *relabel* (stored → circuit labels): the one reader
    behind :func:`skeleton_fingerprint` and :func:`skeleton_to_plan`."""
    for stage in skeleton["stages"]:
        kernels = stage.get("kernels")
        yield (
            stage["gate_indices"],
            QubitPartition.from_sets(
                *(map(relabel, stage[level]) for level in ("local", "regional", "global"))
            ),
            None if kernels is None else [
                (
                    tuple(k["gate_indices"]),
                    tuple(sorted(map(relabel, k["qubits"]))),
                    KernelType(k["kernel_type"]),
                    float(k["cost"]),
                )
                for k in kernels
            ],
        )


def skeleton_fingerprint(skeleton: Mapping) -> str:
    """Recompute the integrity checksum of a parsed skeleton.

    Produces exactly the digest :func:`plan_fingerprint` would for the
    plan the skeleton describes (both read one stage form into one digest
    helper), so a skeleton loaded from disk can be verified against its
    stored ``fingerprint`` without first materialising a plan.
    """
    return structure_digest(skeleton["num_qubits"], _stored_stages(skeleton, lambda q: q))


def skeleton_to_plan(
    skeleton: Mapping,
    circuit: Circuit,
    mapping: Mapping[int, int] | None = None,
) -> ExecutionPlan:
    """Materialise a skeleton into an :class:`ExecutionPlan` for *circuit*.

    *mapping* is the circuit's canonical relabeling (circuit labels →
    the canonical labels the skeleton's partitions are stored in); the
    inverse is applied to every stored qubit set while gates come straight
    from *circuit* via the recorded indices — the relabeled twin of
    :func:`rebind_plan`.  Pass ``mapping=None`` (or an identity mapping)
    when the skeleton was stored in the circuit's own labels.
    """
    if mapping is None:
        inverse = {q: q for q in range(circuit.num_qubits)}
    else:
        inverse = {canonical: original for original, canonical in mapping.items()}
    stages = _stored_stages(skeleton, inverse.__getitem__)
    return _bind(circuit, "skeleton", skeleton["num_qubits"], stages, skeleton.get("provenance") or {})
