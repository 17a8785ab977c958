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
from typing import Iterator, Mapping

from ..circuits.circuit import Circuit
from ..core.kernel import Kernel, KernelSequence, KernelType
from ..core.partitioner import PartitionReport
from ..core.plan import ExecutionPlan, QubitPartition, Stage, structure_digest
from ..errors import CacheCorruptionError, PlanValidationError
from ..planner.pipeline import freeze_config

__all__ = [
    "CacheStats",
    "PlanCache",
    "freeze_config",
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
    :class:`~repro.cluster.costmodel.CostModel` (never a mutable
    :class:`~repro.planner.pipeline.PassManager`).  Another object — a
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
    one digest of a plan structure (:func:`~repro.core.plan.structure_digest`
    of :meth:`~repro.core.plan.ExecutionPlan.skeleton`).  Deliberately *not*
    the full plan repr: the fingerprint is recomputed on every cache hit,
    so it must stay cheap relative to the rebind + program-recompile work
    the hit performs anyway.
    """
    return structure_digest(plan.num_qubits, plan.skeleton())


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
        self._entries: OrderedDict[tuple, tuple] = OrderedDict()
        self.stats = CacheStats()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: tuple) -> bool:
        return key in self._entries

    def get(self, key: tuple) -> tuple | None:
        """Look up *key*, counting a hit or miss and refreshing LRU order.

        Returns ``(plan, report, programs)`` — ``programs`` maps a kind
        (``"program"``, ``"schedule"``) to what was stored for it, and is
        empty when the entry was stored with neither.  Every hit is
        verified against the structural checksum recorded at :meth:`put`
        time; an entry that no longer matches (a mutated or corrupted plan)
        is evicted and surfaced as a
        :class:`~repro.errors.CacheCorruptionError` — the caller replans
        instead of executing a poisoned structure.
        """
        entry = self._entries.get(key)
        if entry is None:
            self.stats.misses += 1
            return None
        plan, report, programs, checksum = entry
        if checksum is not None and plan_fingerprint(plan) != checksum:
            del self._entries[key]
            self.stats.corruptions += 1
            self.stats.misses += 1
            raise CacheCorruptionError(
                "cached plan failed its integrity check; entry evicted",
                site="cache_rebind",
            )
        self._entries.move_to_end(key)
        self.stats.hits += 1
        return plan, report, programs

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
        so backends sharing a key never evict each other's."""
        if key in self._entries:
            self._entries.move_to_end(key)
        elif len(self._entries) >= self.maxsize:
            self._entries.popitem(last=False)
            self.stats.evictions += 1
        self._entries[key] = (plan, report, dict(programs or {}), plan_fingerprint(plan))

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


# ---------------------------------------------------------------------------
# Plan skeletons — the serialized form of a cached plan
# ---------------------------------------------------------------------------

#: Version stamp of the skeleton JSON schema; bump on incompatible change
#: (loaders evict entries with a different version instead of guessing).
SKELETON_VERSION = 1


def plan_skeleton(
    plan: ExecutionPlan, program=None, mapping: Mapping[int, int] | None = None
) -> dict:
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
    skeleton says where it came from as the built one does.
    ``program`` (the plan's :class:`~repro.sim.program.CompiledProgram`, if
    one was compiled) contributes metadata only — op count and workspace
    shape — used for telemetry and warm-start validation, never replayed
    from disk.
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
    program_meta = None
    if program is not None:
        program_meta = {
            "num_ops": len(getattr(program, "ops", ()) or ()),
            "num_qubits": getattr(program, "num_qubits", plan.num_qubits),
        }
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
        "program_meta": program_meta,
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
