"""Static verification layer: seeded-defect mutations, clean sweeps,
differential tests against the executors, Session wiring and the project
lint gate.

The heart of this file is the mutation table: every entry plants one
defect in a freshly-built plan / compiled program / shard schedule that a
*dynamic* test might miss (or catch only probabilistically) and asserts
the static verifier rejects it with the documented rule.  A handful of
the mutations are additionally executed to demonstrate they really do
misexecute — the checks are not style opinions, they gate real bugs.
"""

from __future__ import annotations

import dataclasses
import importlib.util
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.check import (
    CheckReport,
    Violation,
    expected_op_stream,
    round_robin_assignment,
    verify_plan,
    verify_program,
    verify_schedule,
)
from repro.circuits import Circuit, make_gate
from repro.circuits.gates import GateTable
from repro.circuits.library import CIRCUIT_FAMILIES, get_circuit, qft
from repro.cluster import MachineConfig
from repro.core import partition
from repro.core.plan import QubitPartition
from repro.errors import PlanValidationError, StaticCheckError
from repro.planner import build_plan
from repro.runtime import compile_plan, execute_plan_offloaded
from repro.runtime.compile import SegmentStructure
from repro.runtime.offload import build_schedule, run_segment_ops
from repro.session import Session
from repro.sim import StateVector, simulate_reference

from test_property_based import segment_ops

REPO = Path(__file__).resolve().parent.parent

N = 6
LOCAL = 4
NUM_SHARDS = 1 << (N - LOCAL)


def fresh_machine() -> MachineConfig:
    return MachineConfig.for_circuit(N, local_qubits=LOCAL, num_shards=4)


def fresh_plan():
    machine = fresh_machine()
    plan, _report = partition(qft(N), machine)
    return plan, machine


def fresh_program():
    plan, machine = fresh_plan()
    return compile_plan(plan, machine), plan, machine


def first_gate_op_index(program) -> int:
    return next(
        i for i, op in enumerate(program.ops)
        if op.source and op.source[0] in ("gate", "sm", "kernel")
    )


# ---------------------------------------------------------------------------
# Seeded-defect mutations: every planted bug must be rejected statically
# with its documented rule.
# ---------------------------------------------------------------------------


def mutate_plan_oob_qubit(plan):
    plan.stages[0].gates[0] = make_gate("x", [plan.num_qubits + 5])


def mutate_plan_locality(plan):
    for stage in plan.stages:
        for gate in stage.gates:
            non_insular = set(gate.non_insular_qubits())
            if non_insular:
                q = sorted(non_insular)[0]
                part = stage.partition
                stage.partition = QubitPartition.from_sets(
                    set(part.local) - {q},
                    set(part.regional),
                    set(part.global_) | {q},
                )
                return
    raise AssertionError("no stage holds a gate with non-insular qubits")


def mutate_plan_gate_dropped(plan):
    del plan.stages[0].gates[0]
    del plan.stages[0].gate_indices[0]


def mutate_plan_gate_duplicated(plan):
    stage = plan.stages[0]
    stage.gates.append(stage.gates[0])
    stage.gate_indices.append(stage.gate_indices[0])


def mutate_plan_dependency_reorder(plan, circuit):
    first, last = plan.stages[0], plan.stages[-1]
    for a, i in enumerate(first.gate_indices):
        for b, j in enumerate(last.gate_indices):
            if i < j and set(circuit.gates[i].qubits) & set(circuit.gates[j].qubits):
                first.gate_indices[a], last.gate_indices[b] = j, i
                return
    raise AssertionError("no dependent gate pair spans the first/last stages")


def mutate_plan_partition_gap(plan):
    stage = plan.stages[0]
    part = stage.partition
    q = part.local[0]
    stage.partition = QubitPartition.from_sets(
        set(part.local) - {q}, set(part.regional), set(part.global_)
    )


def mutate_plan_kernel_gate_dropped(plan):
    for stage in plan.stages:
        if stage.kernels is not None and stage.kernels.kernels:
            kernel = stage.kernels.kernels[0]
            stage.kernels.kernels[0] = dataclasses.replace(
                kernel,
                gates=kernel.gates[1:],
                gate_indices=kernel.gate_indices[1:],
            )
            return
    raise AssertionError("no kernelized stage to mutate")


PLAN_MUTATIONS = [
    ("oob-qubit", mutate_plan_oob_qubit, "plan.qubit-bounds"),
    ("locality", mutate_plan_locality, "plan.locality"),
    ("gate-dropped", mutate_plan_gate_dropped, "plan.coverage"),
    ("gate-duplicated", mutate_plan_gate_duplicated, "plan.coverage"),
    ("dependency-reorder", mutate_plan_dependency_reorder, "plan.dependencies"),
    ("partition-gap", mutate_plan_partition_gap, "plan.partition"),
    ("kernel-gate-dropped", mutate_plan_kernel_gate_dropped, "plan.kernel-consistency"),
]


def mutate_program_op_dropped(program):
    del program.ops[first_gate_op_index(program)]


def mutate_program_op_duplicated(program):
    idx = first_gate_op_index(program)
    program.ops.insert(idx, program.ops[idx])


def mutate_program_op_reordered(program):
    gate_ops = [
        i for i, op in enumerate(program.ops)
        if op.source and op.source[0] in ("gate", "sm", "kernel")
    ]
    a, b = gate_ops[0], gate_ops[-1]
    program.ops[a], program.ops[b] = program.ops[b], program.ops[a]


def mutate_program_mode_swapped(program):
    for op in program.ops:
        if op.mode == "inplace":
            op.mode = "stream"
            return
    raise AssertionError("no in-place op to mutate")


def mutate_program_tmp_alias(program):
    program.ops[first_gate_op_index(program)].tmp_slots = (1, 1)


def mutate_program_oob_qubits(program):
    op = program.ops[first_gate_op_index(program)]
    op.qubits = (program.num_qubits + 4,)


def block_program():
    """A program with folded shared-memory blocks around dense gates: two
    stages of cx·rz·cx sandwiches (each composes to one diagonal block)
    separated by an ``h`` on a shared qubit."""
    from repro.core.kernel import Kernel, KernelSequence, KernelType
    from repro.core.plan import ExecutionPlan, Stage

    gates = [
        make_gate("cx", [0, 1]), make_gate("rz", [1], [0.3]), make_gate("cx", [0, 1]),
        make_gate("cx", [2, 3]), make_gate("x", [2]),
        make_gate("h", [1]),
        make_gate("cx", [1, 2]), make_gate("rz", [2], [0.7]), make_gate("cx", [1, 2]),
    ]
    circuit = Circuit(N, gates)
    partition_ = QubitPartition.from_sets(set(range(N)), set(), set())
    kernel = Kernel(
        gates=tuple(gates), qubits=(0, 1, 2, 3), kernel_type=KernelType.SHM,
        cost=1.0, gate_indices=tuple(range(len(gates))),
    )
    stage = Stage(
        gates=list(gates), partition=partition_,
        gate_indices=list(range(len(gates))), kernels=KernelSequence([kernel]),
    )
    plan = ExecutionPlan(num_qubits=N, stages=[stage])
    machine = MachineConfig.for_circuit(N)
    program = compile_plan(plan, machine)
    # One kernel op of three items (three ops while an item was the unit
    # of the stream): block · h · block, the blocks folding five and three
    # gates.
    (kernel,) = program.ops
    assert [len(gates_) for _kind, _qubits, gates_ in kernel.items] == [5, 1, 3]
    return program, plan, machine, circuit


def mutate_block_split(program):
    (kernel,) = program.ops
    (kind, qubits, gates), *rest = kernel.items
    kernel.items = ((kind, qubits, gates[:3]), (kind, qubits, gates[3:]), *rest)


def mutate_block_merged_across_dense(program):
    (kernel,) = program.ops
    (kind, qubits, first), dense, (_kind, more, second) = kernel.items
    merged = tuple(sorted(set(qubits) | set(more)))
    kernel.items = ((kind, merged, first + second), dense)


def mutate_block_reordered(program):
    (kernel,) = program.ops
    first, dense, second = kernel.items
    kernel.items = (second, dense, first)


BLOCK_MUTATIONS = [
    ("block-split", mutate_block_split),
    ("block-merged-across-dense", mutate_block_merged_across_dense),
    ("block-reordered", mutate_block_reordered),
]


PROGRAM_MUTATIONS = [
    ("op-dropped", mutate_program_op_dropped, "program.stream"),
    ("op-duplicated", mutate_program_op_duplicated, "program.stream"),
    ("op-reordered", mutate_program_op_reordered, "program.stream"),
    ("mode-swapped", mutate_program_mode_swapped, "program.parity"),
    ("tmp-alias", mutate_program_tmp_alias, "program.tmp-alias"),
    ("oob-qubits", mutate_program_oob_qubits, "program.qubit-bounds"),
]

def assign(assignment):
    """A schedule mutation that leaves the schedule alone and hands the
    verifier a corrupted shard→worker map."""
    return lambda schedule: assignment


def mutate_transition_in_place(schedule):
    """Stage 0's first pass gathers its shards from the logical layout but
    is flagged in place: it stores over slices later shards still load."""
    l2p, segments = schedule.stages[0]
    segments[0] = segments[0]._replace(load_from={q: q for q in l2p}, in_place=True)


def mutate_scatter_not_bijective(schedule):
    """The last pass scatters into a "layout" that puts qubits 0 and 1 on
    one position."""
    l2p, segments = schedule.stages[-1]
    segments[-1] = segments[-1]._replace(
        in_place=False, store_to={q: max(q - 1, 0) for q in l2p}
    )


def shards_segment(schedule, in_place=None):
    """``(layout, segments, index)`` of the first shards-segment (whose
    store flag is *in_place*, when given)."""
    for l2p, segments in schedule.stages:
        for index, segment in enumerate(segments):
            if segment.kind == "shards" and in_place in (None, segment.in_place):
                return l2p, segments, index
    raise AssertionError("no such shards-segment")


def mutate_write_map_in_place(schedule):
    """An in-place segment's recorded write map swaps shards 0 and 1: each
    store overwrites the slice the other shard still loads."""
    _l2p, segments, index = shards_segment(schedule, in_place=True)
    ops = segments[index].ops
    swapped = [1, 0, *range(2, len(ops.shards))]
    ops.shards = tuple((stream, out) for (stream, _out), out in zip(ops.shards, swapped))


def mutate_write_map_not_bijective(schedule):
    """A segment that stores out of place records every shard at slice 0."""
    _l2p, segments, index = shards_segment(schedule)
    segments[index] = segments[index]._replace(in_place=False)
    ops = segments[index].ops
    ops.shards = tuple((stream, 0) for stream, _out in ops.shards)


def mutate_mixing_gate(schedule):
    """An H on a non-local qubit planted in a shards-segment."""
    l2p, segments, index = shards_segment(schedule)
    far = next(q for q, p in l2p.items() if p >= LOCAL)
    segment = segments[index]
    segments[index] = segment._replace(
        payload=segment.payload + [make_gate("h", [far])]
    )


SCHEDULE_MUTATIONS = [
    ("write-map-in-place", mutate_write_map_in_place, "schedule.relabel-flag"),
    ("write-map-not-bijective", mutate_write_map_not_bijective, "schedule.relabel-bijection"),
    ("mixing-gate", mutate_mixing_gate, "schedule.mixing"),
    (
        "shared-shard",
        assign({0: [0, 1, 2], 1: [2, 3]}),
        "schedule.duplicate-assignment",
    ),
    (
        "double-assignment",
        assign({0: [0, 0, 1], 1: [2, 3]}),
        "schedule.duplicate-assignment",
    ),
    ("orphan-shard", assign({0: [0], 1: [1]}), "schedule.orphan-shard"),
    ("out-of-range", assign({0: [0, 1, 2, 3, 7]}), "schedule.out-of-range"),
    ("transition-in-place", mutate_transition_in_place, "schedule.transition-in-place"),
    ("scatter-not-bijective", mutate_scatter_not_bijective, "schedule.transition-partition"),
]


def rules_of(report: CheckReport) -> set[str]:
    return {v.rule for v in report.violations}


class TestSeededDefects:
    @pytest.mark.parametrize(
        "name,mutate,rule", PLAN_MUTATIONS, ids=[m[0] for m in PLAN_MUTATIONS]
    )
    def test_plan_mutation_rejected(self, name, mutate, rule):
        circuit = qft(N)
        machine = fresh_machine()
        plan, _ = partition(circuit, machine)
        assert verify_plan(plan, machine=machine, circuit=circuit).ok
        if name == "dependency-reorder":
            mutate(plan, circuit)
        else:
            mutate(plan)
        report = verify_plan(plan, machine=machine, circuit=circuit)
        assert not report.ok
        assert rule in rules_of(report), report.summary()
        with pytest.raises(StaticCheckError) as exc_info:
            report.raise_if_failed()
        assert exc_info.value.report is report
        assert exc_info.value.context["target"] == "plan"

    @pytest.mark.parametrize(
        "name,mutate,rule", PROGRAM_MUTATIONS, ids=[m[0] for m in PROGRAM_MUTATIONS]
    )
    def test_program_mutation_rejected(self, name, mutate, rule):
        program, plan, machine = fresh_program()
        assert verify_program(program, plan=plan, machine=machine).ok
        mutate(program)
        report = verify_program(program, plan=plan, machine=machine)
        assert not report.ok
        assert rule in rules_of(report), report.summary()

    @pytest.mark.parametrize(
        "name,mutate", BLOCK_MUTATIONS, ids=[m[0] for m in BLOCK_MUTATIONS]
    )
    def test_block_mutation_reported_at_program_stream(self, name, mutate):
        """The expected stream is the lowering's own items, so a program
        whose shared-memory blocks are cut differently — even one that
        covers every gate exactly once — is rejected."""
        program, plan, machine, circuit = block_program()
        assert verify_program(program, plan=plan, machine=machine).ok
        assert simulate_reference(circuit).allclose(program.run())
        mutate(program)
        covered = [g for op in program.ops for _kind, _qubits, gates in op.items for g in gates]
        assert sorted(map(str, covered)) == sorted(map(str, plan.stages[0].gates))
        report = verify_program(program, plan=plan, machine=machine)
        assert "program.stream" in rules_of(report), report.summary()

    @pytest.mark.parametrize(
        "name,mutate,rule",
        SCHEDULE_MUTATIONS,
        ids=[m[0] for m in SCHEDULE_MUTATIONS],
    )
    def test_schedule_mutation_rejected(self, name, mutate, rule):
        plan, machine = fresh_plan()
        schedule = build_schedule(plan, LOCAL)
        assert verify_schedule(plan, machine, num_workers=2, schedule=schedule).ok
        assignments = mutate(schedule)
        report = verify_schedule(
            plan, machine, assignments=assignments, schedule=schedule
        )
        assert not report.ok
        assert rule in rules_of(report), report.summary()

    def test_mode_swap_reports_stale_read(self):
        program, plan, machine = fresh_program()
        mutate_program_mode_swapped(program)
        report = verify_program(program)
        assert "program.parity" in rules_of(report)
        assert "program.uninitialized-read" in rules_of(report)

    def test_folded_dense_item_must_be_one_contiguous_run(self):
        """A fold of 1q dense gates shares one gemm in the item loop: a
        kernel op claiming a fold on positions that are not one contiguous
        run (planted here - the lowering never emits it) is rejected at
        `program.fold`.  (The rule read ops while a fold was one; it reads
        the kernel op's items now.)"""
        program, _plan, _machine = fresh_program()
        kernel = next(op for op in program.ops if op.kind == "sm")
        gates = tuple(make_gate("rx", [q], [0.2 + q]) for q in (0, 1, 3))
        program.ops = [kernel]
        kernel.items = (("fold", (0, 1, 3), gates),)
        assert rules_of(verify_program(program)) == {"program.fold"}
        kernel.items = (("fold", (3, 4, 5), gates),)
        assert verify_program(program).ok
        # One gate on apart positions is the plan's business, not a fold.
        kernel.items = (("gate", (0, 3), gates[:1]),)
        assert verify_program(program).ok


class TestMisexecutionDemos:
    """A sample of the planted program defects, actually executed: the
    mutated stream produces a state the reference oracle rejects — the
    static rule gates a real misexecution, not a formality."""

    @pytest.mark.parametrize(
        "mutate",
        [mutate_program_op_dropped, mutate_program_op_duplicated],
        ids=["op-dropped", "op-duplicated"],
    )
    def test_stream_mutation_misexecutes(self, mutate):
        program, plan, machine = fresh_program()
        mutate(program)
        assert not verify_program(program, plan=plan, machine=machine).ok
        assert not simulate_reference(qft(N)).allclose(program.run())

    def test_reorder_misexecutes(self):
        reference = simulate_reference(qft(N))
        program, plan, machine = fresh_program()
        gate_ops = [
            i for i, op in enumerate(program.ops)
            if op.source and op.source[0] in ("gate", "sm", "kernel")
        ]
        for a in gate_ops:
            for b in gate_ops:
                if b <= a:
                    continue
                qa = {q for g in (program.ops[a].gates or ()) for q in g.qubits}
                qb = {q for g in (program.ops[b].gates or ()) for q in g.qubits}
                if not qa & qb:
                    continue
                program.ops[a], program.ops[b] = program.ops[b], program.ops[a]
                assert not verify_program(program, plan=plan, machine=machine).ok
                if not reference.allclose(program.run()):
                    return
                program.ops[a], program.ops[b] = program.ops[b], program.ops[a]
        raise AssertionError("no op swap misexecuted")

    def test_transition_flagged_in_place_misexecutes(self):
        """From a given state the planted gather really runs, and its
        in-place stores clobber amplitudes the later shards' views read."""
        plan, machine = fresh_plan()
        init = StateVector.random_state(N, seed=5)
        schedule = build_schedule(plan, LOCAL)
        want = execute_plan_offloaded(plan, machine, init, schedule=schedule)[0]
        assert simulate_reference(qft(N), init).allclose(want)
        mutate_transition_in_place(schedule)
        assert not verify_schedule(plan, machine, schedule=schedule).ok
        got, stats = execute_plan_offloaded(plan, machine, init, schedule=schedule)
        assert stats.layout_in_pass == 1
        assert not simulate_reference(qft(N), init).allclose(got)

    def test_write_map_flagged_in_place_misexecutes(self):
        """The executors store at the recorded map: with shards 0 and 1
        swapped in place, shard 0's store lands on the slice shard 1 has not
        loaded yet."""
        plan, machine = fresh_plan()
        init = StateVector.random_state(N, seed=5)
        schedule = build_schedule(plan, LOCAL)
        mutate_write_map_in_place(schedule)
        assert not verify_schedule(plan, machine, schedule=schedule).ok
        got, _stats = execute_plan_offloaded(plan, machine, init, schedule=schedule)
        assert not simulate_reference(qft(N), init).allclose(got)


# ---------------------------------------------------------------------------
# Clean sweep: every library circuit x preset verifies clean end to end.
# ---------------------------------------------------------------------------


class TestCleanSweep:
    @pytest.mark.parametrize("family", sorted(CIRCUIT_FAMILIES))
    @pytest.mark.parametrize("preset", ["fast", "balanced", "quality"])
    def test_library_circuit_verifies_clean(self, family, preset):
        circuit = get_circuit(family, N)
        machine = fresh_machine()
        plan, _report = build_plan(circuit, machine, planner=preset)
        program = compile_plan(plan, machine)
        assert verify_plan(plan, machine=machine, circuit=circuit).ok
        assert verify_program(program, plan=plan, machine=machine).ok
        assert verify_schedule(plan, machine, num_workers=2).ok

    def test_expected_stream_matches_compiler(self):
        plan, machine = fresh_plan()
        program = compile_plan(plan, machine)
        expected = expected_op_stream(plan, machine)
        assert len(expected) == len(program.ops)
        for op, (source, gates, items) in zip(program.ops, expected):
            assert op.source == source
            if gates is not None:
                assert tuple(op.gates or ()) == gates
            assert op.items == items


# ---------------------------------------------------------------------------
# Differential tests: the write map the race detector reads is the one the
# executors store at, and it is where the reference puts each shard.
# ---------------------------------------------------------------------------

IDENTITY = {q: q for q in range(N)}


class TestWriteMapDifferential:
    @pytest.mark.parametrize(
        "gates",
        [
            [make_gate("x", [N - 1])],
            [make_gate("z", [N - 1])],
            [make_gate("cx", [0, N - 1])],
            [make_gate("cz", [N - 2, N - 1])],
            [make_gate("cp", [N - 1, 1], [0.3])],
            [make_gate("x", [N - 1]), make_gate("cx", [0, N - 1])],
        ],
        ids=["x", "z", "cx-nonlocal-control", "cz", "cp", "x-then-its-control"],
    )
    def test_the_recorded_write_map_is_where_the_reference_puts_each_shard(self, gates):
        """Each shard of a random state, run through its recorded stream,
        is the reference's shard at its recorded index — the control of the
        last case reads the bit the x before it flipped."""
        ops = segment_ops(gates, IDENTITY, LOCAL)
        init = StateVector.random_state(N, seed=7)
        want = simulate_reference(Circuit(N, gates), init).data
        size = 1 << LOCAL
        for shard_index, out in enumerate(ops.write_map):
            data = init.data[shard_index * size:(shard_index + 1) * size].copy()
            data, _scratch, stored = run_segment_ops(
                data, np.empty_like(data), ops, IDENTITY, LOCAL, shard_index
            )
            assert stored == out
            assert np.allclose(data, want[out * size:(out + 1) * size], atol=1e-12)
        assert sorted(ops.write_map) == list(range(NUM_SHARDS))

    def test_gate_sequence_threads_indices(self):
        # Two anti-diagonal flips on distinct non-local qubits compose.
        gates = [make_gate("x", [N - 1]), make_gate("x", [N - 2])]
        ops = segment_ops(gates, IDENTITY, LOCAL)
        assert ops.write_map == [s ^ 0b11 for s in range(NUM_SHARDS)]

    def test_mixing_gate_is_flagged(self):
        """No segment compiles a gate that mixes along a non-local qubit;
        one planted in a schedule is the race detector's `schedule.mixing`
        (the mutation table)."""
        with pytest.raises(PlanValidationError, match="mixes amplitudes"):
            h = make_gate("h", [N - 1])
            SegmentStructure([("dynamic", (h,), (0,))], IDENTITY, LOCAL, GateTable([h]))

    def test_round_robin_is_a_partition(self):
        for workers in (1, 2, 3, 4, 7):
            assignment = round_robin_assignment(NUM_SHARDS, workers)
            shards = sorted(s for lst in assignment.values() for s in lst)
            assert shards == list(range(NUM_SHARDS))


# ---------------------------------------------------------------------------
# Report plumbing
# ---------------------------------------------------------------------------


class TestReport:
    def test_merge_and_summary(self):
        a = CheckReport(target="plan", checks_run=["locality"])
        b = CheckReport(target="program", checks_run=["parity", "locality"])
        b.add("program.parity", "boom", site="program.parity", op_index=3)
        a.merge(b)
        assert a.checks_run == ["locality", "parity"]
        assert not a.ok
        summary = a.summary()
        assert summary["ok"] is False
        assert "program.parity" in summary["violations"][0]

    def test_violation_str_localizes(self):
        v = Violation("plan.locality", "bad", site="plan.locality", stage=2)
        assert "stage 2" in str(v)
        assert "plan.locality" in str(v)

    def test_raise_if_failed_passes_through_clean(self):
        report = CheckReport(target="plan")
        assert report.raise_if_failed() is report

    def test_static_check_error_is_permanent_value_error(self):
        report = CheckReport(target="plan")
        report.add("plan.coverage", "gate missing", site="plan.coverage")
        with pytest.raises(ValueError):
            report.raise_if_failed()
        with pytest.raises(StaticCheckError) as exc_info:
            report.raise_if_failed()
        assert exc_info.value.context["violations"]


# ---------------------------------------------------------------------------
# Session wiring
# ---------------------------------------------------------------------------


class TestSessionIntegration:
    def test_unknown_check_mode_rejected(self):
        with pytest.raises(ValueError, match="check mode"):
            Session(fresh_machine(), check="paranoid")

    def test_check_off_runs_no_checks(self):
        with Session(fresh_machine(), backend="offload", planner="fast") as s:
            job = s.run(qft(N))
            assert job.results()[0].state.allclose(simulate_reference(qft(N)))
            assert s.stats.static_checks == 0

    @pytest.mark.parametrize("backend", ["incore", "offload", "parallel"])
    @pytest.mark.parametrize("mode", ["plans", "full"])
    def test_checked_run_matches_reference(self, mode, backend):
        with Session(
            fresh_machine(), backend=backend, planner="fast", check=mode
        ) as s:
            job = s.run(qft(N))
            assert job.results()[0].state.allclose(simulate_reference(qft(N)))
            assert s.stats.static_checks >= 1
            assert s.stats.as_dict()["static_checks"] >= 1

    def test_cache_hit_path_is_checked(self):
        with Session(
            fresh_machine(), backend="offload", planner="fast", check="full"
        ) as s:
            s.run(qft(N))
            before = s.stats.static_checks
            s.run(qft(N))  # rebind/cache-hit path
            assert s.stats.static_checks > before

    def test_full_check_composes_with_fault_injection(self):
        # Chaos + static checks together: transient shard-load faults are
        # retried away while every plan/program/schedule verifies clean.
        with Session(
            fresh_machine(),
            backend="offload",
            planner="fast",
            check="full",
            faults="shard_load:transient:2",
        ) as s:
            job = s.run(qft(N))
            assert job.results()[0].state.allclose(simulate_reference(qft(N)))
            assert s.stats.static_checks >= 1

    def test_quality_preset_includes_verify_pass(self):
        circuit = qft(N)
        _, report = build_plan(circuit, fresh_machine(), planner="quality")
        assert report.pipeline[-1] == "verify"
        assert report.pass_metrics["verify"]["violations"] == 0


# ---------------------------------------------------------------------------
# Satellite: typed locality validation on Stage
# ---------------------------------------------------------------------------


class TestStageLocalityAPI:
    def test_validate_locality_raises_typed_error(self):
        plan, machine = fresh_plan()
        mutate_plan_locality(plan)
        for stage_index, stage in enumerate(plan.stages):
            if stage.is_local():
                continue
            with pytest.raises(PlanValidationError) as exc_info:
                stage.validate_locality(stage_index=stage_index)
            assert exc_info.value.context["stage"] == stage_index
            return
        raise AssertionError("mutation left every stage local")

    def test_is_local_predicate_survives(self):
        plan, _ = fresh_plan()
        assert all(stage.is_local() for stage in plan.stages)


# ---------------------------------------------------------------------------
# Project lint gate
# ---------------------------------------------------------------------------


def load_lint_module():
    spec = importlib.util.spec_from_file_location(
        "lint_repro", REPO / "tools" / "lint_repro.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestLintRepro:
    @pytest.fixture()
    def lint(self, tmp_path, monkeypatch):
        module = load_lint_module()
        monkeypatch.setattr(module, "REPO", tmp_path)
        monkeypatch.setattr(module, "SRC", tmp_path / "src" / "repro")
        return module

    def write(self, lint, rel, source):
        path = lint.SRC / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source)
        return path

    def test_bare_raise_flagged_in_execution_layer(self, lint):
        path = self.write(
            lint, "runtime/bad.py", "def f():\n    raise ValueError('boom')\n"
        )
        findings = lint.check_file(path)
        assert [f.rule for f in findings] == ["bare-raise"]

    def test_pragma_suppresses_config_errors(self, lint):
        path = self.write(
            lint,
            "runtime/ok.py",
            "def f():\n    raise ValueError('boom')  # lint: config-error\n",
        )
        assert lint.check_file(path) == []

    def test_bare_raise_out_of_scope_ignored(self, lint):
        path = self.write(
            lint, "planner/free.py", "def f():\n    raise ValueError('boom')\n"
        )
        assert lint.check_file(path) == []

    def test_hot_alloc_flagged_only_in_closures(self, lint):
        source = (
            "import numpy as np\n"
            "class CompiledProgram:\n"
            "    def run(self):\n"
            "        return np.zeros(4)\n"
            "def build():\n"
            "    def run(state, scratch, ws):\n"
            "        return np.zeros(4)\n"
            "    return run\n"
        )
        path = self.write(lint, "sim/program.py", source)
        findings = lint.check_file(path)
        assert [f.rule for f in findings] == ["hot-alloc"]
        assert findings[0].line == 7

    def test_wall_clock_time_flagged(self, lint):
        path = self.write(
            lint, "cluster/timing.py", "import time\nnow = time.time()\n"
        )
        findings = lint.check_file(path)
        assert [f.rule for f in findings] == ["monotonic-time"]

    def test_second_stage_loop_flagged(self, lint):
        guards = (
            "find_checkpoint(d)\nmon.stage_begin(s, k)\nmon.stage_complete(s, k)\n"
            "write_checkpoint(c)\nfaults.crash_after_stage(k)\n"
        )
        driver = self.write(lint, "runtime/driver.py", guards)
        assert lint.check_one_stage_loop([driver]) == []
        # A guard called from a second place is a second loop growing back.
        copy = self.write(
            lint, "runtime/copy.py", "mon.stage_begin(s, k)\nwrite_checkpoint(c)\n"
        )
        findings = lint.check_one_stage_loop([driver, copy])
        assert {f.rule for f in findings} == {"one-stage-loop"}
        assert sorted((f.path, f.line) for f in findings) == [
            ("src/repro/runtime/copy.py", 1),
            ("src/repro/runtime/copy.py", 2),
            ("src/repro/runtime/driver.py", 2),
            ("src/repro/runtime/driver.py", 4),
        ]
        # A guard dropped from the driver is flagged too ...
        driver.write_text(guards.replace("faults.crash_after_stage(k)\n", ""))
        assert [f.key for f in lint.check_one_stage_loop([driver])] == [
            "src/repro/runtime/::one-stage-loop::crash_after_stage:missing"
        ]
        # ... but only guards under runtime/ count, and a file set without
        # the driver says nothing.
        elsewhere = self.write(lint, "service/daemon.py", guards)
        assert lint.check_one_stage_loop([elsewhere]) == []

    def test_second_kernel_lowering_flagged(self, lint):
        lowering = self.write(
            lint, "sim/fusion.py",
            "def lower_kernel_gates(gates):\n"
            "    return [g.matrix() for g in gates]\n"
            "def fill_lowered_item(lowering, gates):\n"
            "    for gate in gates:\n"
            "        apply(gate.matrix())\n",
        )
        # One gate's matrix, resolved per variant: a loop, not over gates.
        dynamic = self.write(
            lint, "runtime/compile.py",
            "class _DynamicSlot:\n"
            "    def bind(self, pool, old):\n"
            "        return [reduce(pool[0].matrix(), f) for f in self.variants]\n",
        )
        assert lint.check_one_kernel_lowering([lowering, dynamic]) == []
        # A gate-at-a-time loop over a kernel's gates growing back.
        copy = self.write(
            lint, "runtime/executor.py",
            "def _apply_kernel(state, kernel):\n"
            "    for gate in kernel.gates:\n"
            "        state = apply(state, gate.matrix())\n"
            "    return state\n",
        )
        findings = lint.check_one_kernel_lowering([lowering, dynamic, copy])
        assert [(f.rule, f.path, f.line) for f in findings] == [
            ("one-kernel-lowering", "src/repro/runtime/executor.py", 3)
        ]
        assert findings[0].key.endswith("::one-kernel-lowering::_apply_kernel")
        # The lowering losing its own loop is flagged too ...
        lowering.write_text("def lower_kernel_gates(gates):\n    return gates\n")
        assert [f.key for f in lint.check_one_kernel_lowering([lowering])] == [
            "src/repro/sim/fusion.py::one-kernel-lowering::lower_kernel_gates:missing"
        ]
        # ... but only loops under sim/ and runtime/ count.
        elsewhere = self.write(lint, "analysis/tools.py", copy.read_text())
        assert lint.check_one_kernel_lowering([elsewhere]) == []

    def test_second_segment_compiler_flagged(self, lint):
        home = self.write(
            lint, "runtime/compile.py",
            "def add_kernel(gates, l2p):\n"
            "    return [monomial_template(i.perm, i.qubits, 5) for i in kernel_lowering(gates, l2p)]\n",
        )
        offload = self.write(
            lint, "runtime/offload.py",
            "from .compile import SegmentStructure\n"
            "def compile_segment_ops(groups, l2p, local, reuse=None):\n"
            "    return SegmentStructure(groups, l2p, local)\n"
            "def execute(plan, schedule=None):\n"
            "    return schedule\n",
        )
        lowering = self.write(
            lint, "sim/fusion.py",
            "def step(gate):\n    return unitary_template(gate.matrix(), (0,), 1)\n",
        )
        files = [home, offload, lowering]
        assert lint.check_one_segment_compiler(files) == []
        # The hand-rolled segment walk growing back beside the slots, and
        # the second cache's key threaded towards a runtime.
        offload.write_text(
            "def compile_segment_ops(groups, l2p, local):\n"
            "    for gates, _ktype in groups:\n"
            "        for item in fusion.kernel_lowering(gates, l2p):\n"
            "            yield unitary_template(item.matrix, item.qubits, local)\n"
        )
        session = self.write(
            lint, "session/session.py",
            "def run(backend, plan, key):\n"
            "    return backend.run_plan(plan, schedule_key=key)\n",
        )
        findings = lint.check_one_segment_compiler(files + [session])
        assert {f.rule for f in findings} == {"one-segment-compiler"}
        assert sorted((f.path, f.line, f.key.rpartition("::")[2]) for f in findings) == [
            ("src/repro/runtime/offload.py", 3, "kernel_lowering"),
            ("src/repro/runtime/offload.py", 4, "unitary_template"),
            ("src/repro/session/session.py", 2, "schedule_key"),
        ]
        # The compiler moving away is flagged too.
        home.write_text("def add_kernel(gates, l2p):\n    return []\n")
        assert [f.key.rpartition("::")[2] for f in lint.check_one_segment_compiler([home])] == [
            "compile:missing"
        ]

    def test_lowering_call_without_the_layout_flagged(self, lint):
        # The dense fold pairs gates by physical position: a call site that
        # leaves the layout to its default folds by logical adjacency.
        good = self.write(
            lint, "check/verify.py",
            "def expected(gates, layout):\n"
            "    a = lower_kernel_gates(gates, layout.logical_to_physical())\n"
            "    b = fusion.kernel_lowering(gates, logical_to_physical=layout)\n"
            "    return a, b, lower_kernel_gates(*args)\n",
        )
        assert lint.check_one_kernel_lowering([good]) == []
        bad = self.write(
            lint, "service/replay.py",
            "def replay(kernel):\n"
            "    return fusion.lower_kernel_gates(kernel.gates)\n",
        )
        findings = lint.check_one_kernel_lowering([good, bad])
        assert [(f.rule, f.path, f.line) for f in findings] == [
            ("one-kernel-lowering", "src/repro/service/replay.py", 2)
        ]
        assert findings[0].key.endswith("::one-kernel-lowering::replay:layout")

    def test_second_kernel_set_flagged(self, lint):
        engine = self.write(
            lint, "sim/apply.py",
            "import threading\n"
            "_WS_TLS = threading.local()\n"
            "def _effective_kind(info, qubits, n):\n"
            "    return 'dense' if info.kind == 'big' else info.kind\n"
            "def _permutation_moves(perm):\n"
            "    nxt = perm[0]\n"
            "    while nxt != 0:\n"
            "        nxt = perm[nxt]\n"
            "def unitary_template(matrix, qubits, n):\n"
            "    info = analyze_matrix(matrix)\n"
            "    if info.kind == 'diagonal':\n"
            "        return 0\n"
            "    return _effective_kind(info, qubits, n)\n"
            "def apply_gate_buffered(state, scratch, matrix, qubits):\n"
            "    return unitary_template(matrix, qubits, 3).bind(matrix)\n",
        )
        assert lint.check_one_kernel_set([engine]) == []
        # A second executor's own dispatch, cycle walk and scratch pool
        # growing back beside the templates.
        fork = self.write(
            lint, "sim/statevector.py",
            "import threading\n"
            "_POOL = threading.local()\n"
            "def apply(state, matrix, qubits):\n"
            "    info = analyze_matrix(matrix)\n"
            "    kind = _effective_kind(info, qubits, 3)\n"
            "    if info.reduced_info.kind == 'permutation':\n"
            "        nxt = perm[0]\n"
            "        while nxt != 0:\n"
            "            nxt = perm[nxt]\n",
        )
        findings = lint.check_one_kernel_set([engine, fork])
        assert {f.rule for f in findings} == {"one-kernel-set"}
        assert sorted(f.key.rpartition("::")[2] for f in findings) == [
            "apply:_effective_kind", "apply:cycles", "apply:kind",
            "threading.local", "threading.local",
        ]
        # Outside the engine's scope a `.kind` comparison is someone else's.
        elsewhere = self.write(
            lint, "check/verify.py", "def f(info):\n    return info.kind == 'x'\n"
        )
        assert lint.check_one_kernel_set([engine, elsewhere]) == []
        # The choice moving away without the rule following is flagged too.
        engine.write_text("import threading\n_WS_TLS = threading.local()\n")
        assert [f.key for f in lint.check_one_kernel_set([engine])] == [
            "src/repro/sim/apply.py::one-kernel-set::_effective_kind:missing"
        ]

    def test_second_op_body_flagged(self, lint):
        engine = self.write(
            lint, "sim/apply.py",
            "class CompiledOp:\n"
            "    __slots__ = ('kind', 'run', 'source')\n"
            "def _dense_template(qubits, n):\n"
            "    def bind(matrix):\n"
            "        def run(states, scratch, ws):\n"
            "            return scratch, states\n"
            "        return run\n"
            "    return OpTemplate('dense', qubits, bind)\n"
            "def _unitary_op(matrix, qubits, n):\n"
            "    return unitary_template(matrix, qubits, n).bind(matrix)\n",
        )
        program = self.write(
            lint, "sim/program.py",
            "class CompiledProgram:\n"
            "    def run_batched(self, initial_states):\n"
            "        return self.run_batched_view(initial_states)\n",
        )
        assert lint.check_one_op_body([engine, program]) == []
        # The stacked twin growing back: a second closure, its slot, and a
        # caller picking the flat half of the pair.
        twin = self.write(
            lint, "sim/apply.py",
            "class CompiledOp:\n"
            "    __slots__ = ('kind', 'run', 'run_batched', 'source')\n"
            "def _dense_template(qubits, n):\n"
            "    def bind(matrix):\n"
            "        def run(state, scratch, ws):\n"
            "            return scratch, state\n"
            "        def run_batched(states, scratch, ws):\n"
            "            return scratch, states\n"
            "        return run, run_batched\n"
            "    return OpTemplate('dense', qubits, bind)\n"
            "def _unitary_op(matrix, qubits, n):\n"
            "    return unitary_template(matrix, qubits, n).bind(matrix)[0]\n",
        )
        findings = lint.check_one_op_body([twin, program])
        assert {f.rule for f in findings} == {"one-op-body"}
        assert sorted((f.line, f.key.rpartition("::")[2]) for f in findings) == [
            (2, "CompiledOp.__slots__"),
            (7, "_dense_template.bind:run_batched"),
            (12, "_unitary_op:bind[]"),
        ]
        # Outside sim/ the names are someone else's.
        elsewhere = self.write(lint, "runtime/compile.py", twin.read_text())
        assert lint.check_one_op_body([elsewhere]) == []

    #: The compiler's kernel slot: the kernel template, for every kernel.
    SLOTS = "def fill(items, n):\n    return kernel_template(items, n)\n"

    def test_no_runtime_builds_a_fused_matrix(self, lint):
        slot = self.write(lint, "runtime/compile.py", self.SLOTS)
        assert lint.check_one_kernel_set([slot]) == []
        # An executor fusing a kernel by itself again, and the retired
        # fused-gemm fallback's names coming back with it.
        executor = self.write(
            lint, "runtime/executor.py",
            "def _apply_kernel(state, kernel):\n"
            "    matrix, _qubits = fused_unitary(kernel.gates)\n"
            "    return fill_fused_unitary(kernel_fusion(kernel.gates), kernel.gates)\n",
        )
        findings = lint.check_one_kernel_set([slot, executor])
        assert {f.rule for f in findings} == {"one-kernel-set"}
        assert sorted((f.line, f.key.rpartition("::")[2]) for f in findings) == [
            (2, "_apply_kernel:fused_unitary"), (3, "fill_fused_unitary"), (3, "kernel_fusion"),
        ]
        # Under sim/ a kernel's matrix is the callers' who want one.
        sim = self.write(lint, "sim/fusion.py", "def f(gates):\n    return fused_unitary(gates)\n")
        assert lint.check_one_kernel_set([slot, sim]) == []

    def test_the_uncompiled_paths_stay_retired(self, lint):
        """The uncompiled paths' op builders, their memos' surface, the
        degraded shard pass and the per-shard gate resolution are named
        nowhere under src/ — in code or in prose, as whole words — a gate
        list applied outside any plan is the one other caller of the kernel
        template, and no runtime calls an entry point of the engine."""
        fusion = self.write(
            lint, "sim/fusion.py",
            "def apply_gate_sequence(state, gates):\n"
            "    return kernel_template(kernel_items(gates), 3)\n",
        )
        assert lint.check_one_kernel_set([fusion]) == []
        fusion.write_text(
            fusion.read_text()
            + "def apply_lowered_items(state, scratch, items):\n"
            "    return kernel_template(kernel_items(items), 3)\n"
        )
        session = self.write(
            lint, "session/session.py",
            '"""Counters of fusion_cache_stats()."""\n'
            "from ..runtime.compile import fused_kernel_op\n"
            "from ..runtime.compile import kernel_op, kernel_op_stats\n"
            "OPS = compile_segment_ops  # kernel_ops, a kernel_opcode: other words\n",
        )
        shards = self.write(
            lint, "runtime/offload.py",
            "def shard_pass(data, scratch, groups):\n"
            "    return run_groups_on_shard(data, scratch, groups)\n"
            "def run_segment_ops(data, scratch, ops, l2p, local, index):\n"
            "    for gate in ops:\n"
            "        data, scratch, index = _gate_on_shard(data, scratch, gate, index)\n"
            "    in_place = not segment_relabels_shards(ops, l2p, local)\n"
            "    return apply_gate_buffered(data, scratch, m, q), apply_matrix(data, m, q)\n",
        )
        races = self.write(
            lint, "check/races.py",
            '"""Mirrors the executors (a shard_write_map of old)."""\n'
            "def _gate_on_shard_count(write_map):\n"
            "    return apply_diagonal(write_map, d, q)\n",
        )
        statevector = self.write(
            lint, "sim/statevector.py",
            "def apply(state, scratch, m, q):\n"
            "    return apply_gate_buffered(state, scratch, m, q)\n",
        )
        compiler = self.write(
            lint, "runtime/compile.py",
            "class _FusedSlot:\n"
            "    changed = _StructureChanged\n"
            "    steps = gate_step(gate)  # within gemm_ulps(); stack_ulps() reads 0\n",
        )
        outside = lint.REPO / "tests" / "test_x.py"
        outside.parent.mkdir(parents=True, exist_ok=True)
        outside.write_text("from repro.sim.fusion import configure_fusion_cache\n")
        findings = lint.check_one_kernel_set(
            [fusion, session, shards, races, statevector, compiler, outside]
        )
        assert sorted((f.path, f.line, f.key.rpartition("::")[2]) for f in findings) == [
            ("src/repro/check/races.py", 1, "shard_write_map"),
            ("src/repro/runtime/compile.py", 1, "_FusedSlot"),
            ("src/repro/runtime/compile.py", 2, "_StructureChanged"),
            ("src/repro/runtime/compile.py", 3, "gate_step"),
            ("src/repro/runtime/compile.py", 3, "gemm_ulps"),
            ("src/repro/runtime/compile.py", 3, "stack_ulps"),
            ("src/repro/runtime/offload.py", 2, "run_groups_on_shard"),
            ("src/repro/runtime/offload.py", 5, "_gate_on_shard"),
            ("src/repro/runtime/offload.py", 6, "segment_relabels_shards"),
            ("src/repro/runtime/offload.py", 7, "run_segment_ops:apply_gate_buffered"),
            ("src/repro/runtime/offload.py", 7, "run_segment_ops:apply_matrix"),
            ("src/repro/session/session.py", 1, "fusion_cache_stats"),
            ("src/repro/session/session.py", 2, "fused_kernel_op"),
            ("src/repro/session/session.py", 3, "kernel_op"),
            ("src/repro/session/session.py", 3, "kernel_op_stats"),
            ("src/repro/sim/fusion.py", 3, "apply_lowered_items"),
            ("src/repro/sim/fusion.py", 4, "apply_lowered_items:kernel_template"),
        ]

    def test_a_plan_runs_one_way(self, lint):
        """`execute_plan` runs the compiled program and takes no switch to a
        second executor tier."""
        executor = self.write(
            lint, "runtime/executor.py",
            "def execute_plan(plan, initial_state=None, machine=None, check_locality=True):\n"
            "    return compiled_program_for(plan, machine).run(initial_state)\n",
        )
        assert lint.check_one_kernel_set([executor]) == []
        for signature in ("plan, compiled=True", "plan, *, compiled=True"):
            executor.write_text(
                f"def execute_plan({signature}):\n    return run(plan, compiled=compiled)\n"
            )
            findings = lint.check_one_kernel_set([executor])
            assert [(f.rule, f.line, f.key.rpartition("::")[2]) for f in findings] == [
                ("one-kernel-set", 1, "execute_plan:compiled")
            ]

    def test_kernel_template_keeps_two_named_bodies_and_two_callers(self, lint):
        engine_source = (
            "def kernel_template(items, n):\n"
            "    def loop(arrays):\n"
            "        def run(states, scratch, ws):\n"
            "            return states, scratch\n"
            "        return run\n"
            "    lib = native.library()\n"
            "    def bind_numbers(numbers, fallback):\n"
            "        def run(states, scratch, ws):\n"
            "            native.apply_tiles(states)\n"
            "            return states, scratch\n"
            "        return run\n"
            "    return bind_numbers, loop\n"
        )
        kernel_set_rest = (
            "import threading\n"
            "_WS_TLS = threading.local()\n"
            "def unitary_template(matrix, qubits, n):\n"
            "    return _effective_kind(None, qubits, n)\n"
        )
        engine = self.write(lint, "sim/apply.py", kernel_set_rest + engine_source)
        slot = self.write(lint, "runtime/compile.py", self.SLOTS)
        loader = self.write(
            lint, "sim/native.py", "def _load(lib):\n    lib.sm_apply.restype = int\n"
        )
        assert lint.check_one_op_body([engine]) == []
        assert lint.check_one_kernel_set([engine, slot, loader]) == []
        # A third body (selected by a flag) and a second caller of the
        # template.  (Who may name the native entry point is
        # one-native-loader's: test_the_tile_pass_has_one_caller.)
        third = self.write(
            lint, "sim/apply.py",
            kernel_set_rest + engine_source.replace(
                "    return bind_numbers, loop\n",
                "    def tiled(payloads):\n"
                "        def run(states, scratch, ws):\n"
                "            return states, scratch\n"
                "        return run\n"
                "    return tiled if FAST else bind_numbers, loop\n",
            ),
        )
        assert [f.key.rpartition("::")[2] for f in lint.check_one_op_body([third])] == [
            "kernel_template:tiled:run"
        ]
        shortcut = self.write(
            lint, "runtime/offload.py",
            "def run_groups(items, n, lib):\n"
            "    return kernel_template(items, n)\n",
        )
        findings = lint.check_one_kernel_set([third, slot, loader, shortcut])
        assert sorted(f.key.rpartition("::")[2] for f in findings) == [
            "run_groups:kernel_template",
        ]
        # A body going missing is the rule left behind.
        engine.write_text(kernel_set_rest + "def kernel_template(items, n):\n    return None\n")
        assert sorted(f.key.rpartition("::")[2] for f in lint.check_one_op_body([engine])) == [
            "kernel_template:bind_numbers:missing", "kernel_template:loop:missing",
        ]

    def test_the_item_loop_keeps_the_c_bodys_expressions(self, lint):
        source = (
            "def _products(out, tmp, a, x, b, y, add):\n"
            "    np.multiply(x, a, out=out)\n"
            "def _gate1_step(position, matrix):\n"
            "    def step(src, dst, tmp, size):\n"
            "        _products(dst, tmp, 1.0, src, 0.0, src, True)\n"
            "    return step\n"
            "def _dense_step(shape, basis, matrix):\n"
            "    return None\n"
            "def _copy_step(shape, basis, source):\n"
            "    return None\n"
            "def _phase_step(shape, index, phases):\n"
            "    return None\n"
            "def kernel_template(items, n):\n"
            "    def loop(arrays):\n"
            "        def run(states, scratch, ws):\n"
            "            here = _planes(scratch, states.size, ws, 1)\n"
            "            np.copyto(here[: states.size], states.real)\n"
            "            np.copyto(states.imag, here[states.shape[-1] :])\n"
            "            return states, scratch\n"
            "        return run\n"
            "    return loop\n"
        )
        engine = self.write(lint, "sim/apply.py", source)
        assert lint.check_one_float_expression([engine]) == []
        # A blocked sum, a fused one, and arithmetic on the complex state.
        engine.write_text(source.replace(
            "    return None\n", "    return matrix @ basis\n", 1,
        ).replace(
            "            return states, scratch\n",
            "            states *= 2\n"
            "            np.einsum('i,i', states.real, scratch)\n"
            "            return states, scratch\n",
        ))
        findings = lint.check_one_float_expression([engine])
        assert {f.rule for f in findings} == {"one-float-expression"}
        assert sorted((f.line, f.key.rpartition("::")[2]) for f in findings) == [
            (8, "_dense_step:@"), (19, "loop:states"), (20, "loop:einsum"),
            (20, "loop:scratch"), (20, "loop:states"),
        ]
        # Outside sim/apply.py the names are someone else's; a step builder
        # going missing is the rule left behind.
        elsewhere = self.write(lint, "sim/program.py", engine.read_text())
        assert lint.check_one_float_expression([elsewhere]) == []
        engine.write_text(source.replace("def _copy_step", "def _old_copy_step"))
        assert [f.key.rpartition("::")[2] for f in lint.check_one_float_expression([engine])] == [
            "_copy_step:missing"
        ]

    #: A loader that declares the tile pass, calls it from its one split
    #: helper, and takes the thread count from the affinity.
    LOADER = (
        "import ctypes\nimport os\nimport subprocess\n"
        "TILE_THREADS = len(os.sched_getaffinity(0))\n"
        "def _load(path):\n"
        "    lib = ctypes.CDLL(path)\n"
        "    lib.sm_apply.restype = ctypes.c_int64\n"
        "    lib.sm_apply.argtypes = ()\n"
        "    return lib\n"
        "def apply_tiles(state, rows):\n"
        "    return library().sm_apply(state, rows)\n"
    )
    #: The kernel template, binding the pass through the helper.
    TEMPLATE = (
        "from . import native\n"
        "def kernel_template(items, n):\n"
        "    def bind_numbers(numbers):\n"
        "        def run(states, scratch, ws):\n"
        "            native.apply_tiles(states.ctypes.data, 1)\n"  # NumPy's ctypes
        "            return states, scratch\n"
        "        return run\n"
        "    return bind_numbers\n"
    )

    def test_second_native_loader_flagged(self, lint):
        home = self.write(lint, "sim/native.py", self.LOADER)
        user = self.write(lint, "sim/apply.py", self.TEMPLATE)
        assert lint.check_one_native_loader([home, user]) == []
        second = self.write(
            lint, "runtime/fast.py",
            "import subprocess\nfrom ctypes import CDLL\nimport cffi\n"
            "lib = CDLL('x.so')\n",
        )
        switched = self.write(
            lint, "sim/native.py",
            home.read_text() + "import os\nFORCE = os.environ.get('REPRO_NATIVE')\n",
        )
        findings = lint.check_one_native_loader([switched, user, second])
        assert {f.rule for f in findings} == {"one-native-loader"}
        assert sorted((f.path.rpartition("/")[2], f.key.rpartition("::")[2]) for f in findings) == [
            ("fast.py", "CDLL"), ("fast.py", "cffi"), ("fast.py", "ctypes"),
            ("fast.py", "subprocess"), ("native.py", "environ"),
        ]

    def test_the_tile_pass_has_one_caller(self, lint):
        """The symbol is declared and called in the loader only, inside its
        module-level split helper; the helper is called by the kernel
        template only; the affinity is read once."""
        home = self.write(lint, "sim/native.py", self.LOADER)
        engine = self.write(lint, "sim/apply.py", self.TEMPLATE)
        assert lint.check_one_native_loader([home, engine]) == []
        # The template binding the symbol itself again, an executor calling
        # the helper, and a second thread count.
        bypass = self.write(
            lint, "sim/apply.py",
            self.TEMPLATE.replace("native.apply_tiles(", "native.library().sm_apply("),
        )
        executor = self.write(
            lint, "runtime/offload.py",
            "import os\nfrom ..sim import native\n"
            "WORKERS = len(os.sched_getaffinity(0))\n"
            "def run_shard(state):\n    return native.apply_tiles(state, 1)\n",
        )
        findings = lint.check_one_native_loader([home, bypass, executor])
        assert {f.rule for f in findings} == {"one-native-loader"}
        assert sorted((f.path.rpartition("/")[2], f.line, f.key.rpartition("::")[2])
                      for f in findings) == [
            ("apply.py", 5, "sm_apply"), ("offload.py", 3, "sched_getaffinity"),
            ("offload.py", 5, "apply_tiles"),
        ]
        # The split moved into a per-op closure (and the declarations and the
        # affinity went with it): the rule says it lost its footing.
        engine.write_text(self.TEMPLATE)
        closure = self.write(
            lint, "sim/native.py",
            "import ctypes\n"
            "def _load(path):\n    return ctypes.CDLL(path)\n"
            "def bind(lib):\n"
            "    def run(states):\n"
            "        return lib.sm_apply(states)\n"
            "    return run\n",
        )
        assert sorted(
            (f.line, f.key.rpartition("::")[2])
            for f in lint.check_one_native_loader([closure, engine])
        ) == [
            (0, "apply_tiles:missing"), (0, "sched_getaffinity:missing"),
            (0, "sm_apply:undeclared"), (6, "sm_apply"),
        ]

    def test_no_built_object_is_tracked(self):
        try:
            tracked = subprocess.run(
                ["git", "ls-files", "--", "*.so", "*.o"], cwd=REPO, capture_output=True, text=True,
            )
        except OSError:
            pytest.skip("no git on PATH")
        if tracked.returncode != 0:
            pytest.skip("not a git checkout")
        assert tracked.stdout.split() == []

    def test_second_planning_surface_flagged(self, lint):
        clean = self.write(
            lint, "session/session.py",
            "from ..planner.pipeline import resolve_planner\n"
            "def plan(planner):\n"
            "    'legacy_pipeline and stager= may be mentioned in prose.'\n"
            "    return resolve_planner(planner)\n",
        )
        assert lint.check_one_planning_surface([clean]) == []
        # The seed planner's knobs growing back as a second surface: the
        # import, a keyword parameter, and a call forwarding the keyword.
        second = self.write(
            lint, "service/service.py",
            "from ..planner import legacy_pipeline\n"
            "def make(machine, kernelizer=None):\n"
            "    return Session(machine, planner=legacy_pipeline(stager='ilp'))\n",
        )
        findings = lint.check_one_planning_surface([clean, second])
        assert {f.rule for f in findings} == {"one-planning-surface"}
        assert sorted((f.line, f.key.rpartition("::")[2]) for f in findings) == [
            (1, "legacy_pipeline"), (2, "kernelizer="),
            (3, "legacy_pipeline"), (3, "stager="),
        ]
        # The keyword-style entry points live outside session/ and service/.
        entry = self.write(lint, "core/partitioner.py", second.read_text())
        assert lint.check_one_planning_surface([entry]) == []

    def test_lower_layer_reaching_into_the_session_flagged(self, lint):
        clean = self.write(
            lint, "runtime/checkpoint.py",
            "from ..core.plan import structure_digest\n"
            "from . import faults\n"
            "def fingerprint(plan):\n"
            "    'repro.session may be mentioned in prose.'\n"
            "    return structure_digest(plan.num_qubits, plan.skeleton())\n",
        )
        assert lint.check_layering([clean]) == []
        # Absolute and relative, at module level and inside a function,
        # a module or a name out of one: each is the upper layer imported.
        reaching = self.write(
            lint, "core/sub/bad.py",
            "import repro.service.persistence\n"
            "from repro.session import Session\n"
            "from ... import session\n"
            "def f(plan):\n"
            "    from ...session.cache import plan_fingerprint\n"
            "    from ..plan import ExecutionPlan\n"
            "    return plan_fingerprint(plan)\n",
        )
        findings = lint.check_layering([clean, reaching])
        assert {f.rule for f in findings} == {"layering"}
        assert sorted((f.line, f.key.rpartition("::")[2]) for f in findings) == [
            (1, "repro.service.persistence"), (2, "repro.session"),
            (3, "repro.session"), (5, "repro.session.cache"),
        ]
        # The figure drivers sit above the session; the session itself too.
        for rel in ("analysis/experiments.py", "session/session.py", "service/service.py"):
            assert lint.check_layering([self.write(lint, rel, reaching.read_text())]) == []

    def test_second_staging_bound_or_solver_bypass_flagged(self, lint):
        home = self.write(
            lint, "core/stage.py",
            "from ..ilp import IlpModel, solve\n"
            "def stage_circuit(circuit):\n"
            "    return solve(IlpModel())\n",
        )
        assert lint.check_one_staging_bound([home]) == []
        # The deleted knobs growing back, anywhere under src/ ...
        knob = self.write(
            lint, "planner/passes.py",
            "def run(options):\n"
            "    return stage(min_stages=2 if options['lower_bound_start'] else 1)\n",
        )
        findings = lint.check_one_staging_bound([home, knob])
        assert sorted((f.path, f.line, f.key.rpartition("::")[2]) for f in findings) == [
            ("src/repro/planner/passes.py", 2, "lower_bound_start"),
            ("src/repro/planner/passes.py", 2, "min_stages"),
        ]
        # ... and staging reaching the solver past the traced seam.
        bypass = self.write(
            lint, "core/stage.py",
            "from .. import ilp\n"
            "from ..ilp.scipy_backend import solve_with_scipy\n"
            "def stage_circuit(circuit):\n"
            "    return ilp.solve(circuit) or solve_with_scipy(circuit)\n",
        )
        findings = lint.check_one_staging_bound([bypass])
        assert {f.rule for f in findings} == {"one-staging-bound"}
        assert sorted((f.line, f.key.rpartition("::")[2]) for f in findings) == [
            (0, "solve:missing"), (2, "solve_with_scipy"), (4, ".solve"),
            (4, "solve_with_scipy"),
        ]

    def test_reference_kernelizer_outside_its_registry_entry_flagged(self, lint):
        home = self.write(lint, "core/kernelize.py", "def kernelize(stage):\n    return stage\n")
        reexport = self.write(
            lint, "core/__init__.py", "from .kernelize import KernelizeConfig, kernelize\n"
        )
        registry = self.write(
            lint, "planner/passes.py",
            "from ..core.fast_kernelize import fast_kernelize\n"
            "from ..core.kernelize import KernelizeConfig, kernelize\n"
            "KERNELIZERS = {\n"
            "    'atlas': lambda gates, cm, config: fast_kernelize(gates, cm, config),\n"
            "    'atlas-ref': lambda gates, cm, config: kernelize(gates, cm, config),\n"
            "}\n",
        )
        config_only = self.write(
            lint, "planner/pipeline.py", "from ..core.kernelize import KernelizeConfig\n"
        )
        files = [home, reexport, registry, config_only]
        assert lint.check_kernelizer_oracle(files) == []
        # The slow DP becoming a production path: imported and called
        # elsewhere, reached through the package, or called in the registry's
        # file outside its own entry.
        figure = self.write(
            lint, "analysis/experiments.py",
            "from ..core.kernelize import KernelizeConfig, kernelize\n"
            "def figure10(circuit):\n"
            "    return kernelize(circuit).total_cost\n",
        )
        through = self.write(
            lint, "baselines/atlas.py",
            "from .. import core\n"
            "def plan(stage):\n"
            "    return core.kernelize(stage)\n",
        )
        refine = self.write(
            lint, "planner/passes.py",
            registry.read_text() + "def refine(stage):\n    return kernelize(stage)\n",
        )
        findings = lint.check_kernelizer_oracle(files + [figure, through])
        assert {f.rule for f in findings} == {"kernelizer-oracle"}
        assert sorted((f.path, f.line) for f in findings) == [
            ("src/repro/analysis/experiments.py", 1),
            ("src/repro/analysis/experiments.py", 3),
            ("src/repro/baselines/atlas.py", 3),
            ("src/repro/planner/passes.py", 8),
        ]
        # The entry going missing means the oracle moved without the rule.
        refine.write_text("KERNELIZERS = {}\n")
        assert [f.key.rpartition("::")[2] for f in lint.check_kernelizer_oracle([refine])] == [
            "atlas-ref:missing"
        ]

    def test_beam_body_chosen_other_than_by_host_and_input_flagged(self, lint):
        loader = self.write(
            lint, "sim/native.py",
            "def _load(lib):\n"
            "    lib.beam_kernelize.restype = 1\n"
            "    lib.beam_kernelize.argtypes = ()\n",
        )
        entry = (
            "def fast_kernelize(stage, cost_model, config):\n"
            "    flat = _flatten(stage, cost_model, config)\n"
            "    lib = native.library()\n"
            "    if lib is None or flat.suffix[0] >> 64:\n"
            "        kernels = _beam_loop(flat)\n"
            "    else:\n"
            "        kernels = _native_beam(lib, flat)\n"
            "    return kernels\n"
        )
        bodies = (
            "def _native_beam(lib, flat):\n"
            "    return lib.beam_kernelize(flat)\n"
            "def _beam_loop(flat):\n"
            "    return []\n"
        )
        home = self.write(lint, "core/fast_kernelize.py", entry + bodies)
        assert lint.check_kernelizer_oracle([loader, home]) == []
        # A switch: a parameter, a config field or an environment variable
        # picking the body; the loop called outside the fallback branch; the
        # foreign symbol declared or called elsewhere.
        switched = self.write(
            lint, "core/fast_kernelize.py",
            entry.replace("config):", "config, native=True):")
            .replace("lib is None", "lib is None or config.python or os.environ.get('X')")
            + bodies
            + "def plan_twice(flat, lib):\n"
            "    lib.beam_kernelize.restype = 2\n"
            "    return _beam_loop(flat)\n",
        )
        planner = self.write(
            lint, "planner/refine.py",
            "from ..core.fast_kernelize import _beam_loop\n"
            "def refine(lib, flat):\n"
            "    return lib.beam_kernelize(flat) or _beam_loop(flat)\n",
        )
        undeclared = self.write(lint, "sim/native.py", "def _load(lib):\n    return lib\n")
        findings = lint.check_kernelizer_oracle([undeclared, switched, planner])
        assert {f.rule for f in findings} == {"kernelizer-oracle"}
        assert sorted((f.path.rpartition("/")[2], f.line, f.key.rpartition("::")[2])
                      for f in findings) == [
            ("fast_kernelize.py", 1, "fast_kernelize:parameters"),
            ("fast_kernelize.py", 4, "environ"),
            ("fast_kernelize.py", 4, "fast_kernelize:selects-on-config"),
            ("fast_kernelize.py", 14, "beam_kernelize"),
            ("fast_kernelize.py", 15, "_beam_loop"),
            ("native.py", 0, "beam_kernelize:undeclared"),
            ("refine.py", 1, "_beam_loop"),
            ("refine.py", 3, "_beam_loop"),
            ("refine.py", 3, "beam_kernelize"),
        ]
        # The fallback branch going missing means the body moved without the rule.
        home.write_text(entry.replace("_native_beam(lib, flat)", "None") + bodies)
        assert [f.key.rpartition("::")[2] for f in lint.check_kernelizer_oracle([home])] == [
            "_beam_loop:fallback", "_beam_loop",
        ]

    def test_second_or_stage_loop_in_the_micro_gate_flagged(self, lint, tmp_path):
        gate = tmp_path / "benchmarks" / "run_bench.py"
        gate.parent.mkdir()
        gate.write_text(
            "def run_rebind(best, cold):\n"
            "    rebind_seconds = best['rebind']\n"  # a local may be called what it is
            "    return {'rebind_vs_run': rebind_seconds / best['run'],\n"
            "            'rebind_fallbacks': 0}\n"
        )
        assert lint.check_bench_host_free() == []
        # A second written, a rate written, a baseline's second read back —
        # and the seed executor's stage loop, copied in to be raced.
        gate.write_text(
            "from repro.runtime.sharding import permute_state\n"
            "def time_plan(plan, fast, old):\n"
            "    out = {'fast_seconds': fast, 'speedup': 2.0}\n"
            "    out['fast_gates_per_s'] = 1.0 / fast\n"
            "    return out, fast > 2 * old['fast_seconds']\n"
            "def _seed_stage_loop(plan, state, layout, target):\n"
            "    for stage in plan.stages:\n"
            "        state = permute_state(state, layout, target)\n"
            "    return state\n"
        )
        findings = lint.check_bench_host_free()
        assert {f.rule for f in findings} == {"bench-host-free"}
        assert sorted((f.line, f.key.rpartition("::")[2]) for f in findings) == [
            (3, "fast_seconds"), (4, "fast_gates_per_s"), (5, "fast_seconds"),
            (8, "permute_state"),
        ]

    def test_second_layout_move_flagged(self, lint):
        driver = self.write(
            lint, "runtime/offload.py",
            "def run_stages(state, layout):\n"
            "    def relayout(target):\n"
            "        return permute_state(state, layout, target)\n"
            "    return relayout\n",
        )
        assert lint.check_one_layout_move([driver]) == []
        # A stage-boundary sweep growing back beside the in-pass moves: in
        # a stage walk of the plan, in a shard pass, and in the driver's
        # file outside the driver.
        executor = self.write(
            lint, "runtime/executor.py",
            "def execute_plan(state, layout, target):\n"
            "    return permute_state(state, layout, target)\n",
        )
        pool = self.write(
            lint, "runtime/parallel.py",
            "def _run_worker(state, layout, target):\n"
            "    return permute_state(state, layout, target)\n",
        )
        driver.write_text(
            driver.read_text()
            + "def build_schedule(state, layout, target):\n"
            "    return permute_state(state, layout, target)\n"
        )
        findings = lint.check_one_layout_move([executor, driver, pool])
        assert {f.rule for f in findings} == {"one-layout-move"}
        assert sorted((f.path, f.line) for f in findings) == [
            ("src/repro/runtime/executor.py", 2),
            ("src/repro/runtime/offload.py", 6),
            ("src/repro/runtime/parallel.py", 2),
        ]
        # The driver losing its fallback is flagged; outside runtime/ the
        # name is someone else's.
        driver.write_text("def run_stages(state):\n    return state\n")
        assert [f.key for f in lint.check_one_layout_move([driver])] == [
            "src/repro/runtime/offload.py::one-layout-move::run_stages:permute_state:missing"
        ]
        elsewhere = self.write(lint, "analysis/figures.py", pool.read_text())
        assert lint.check_one_layout_move([elsewhere]) == []

    def test_slot_binds_read_the_gate_table(self, lint):
        slots = self.write(
            lint, "runtime/compile.py",
            "class _KernelSlot:\n"
            "    def bind(self, gates, old, flat, base):\n"
            "        return self.fill(gates, flat, base)\n"
            "    def fill(self, gates, flat, base):\n"
            "        return self.gather.native(flat, base)\n"
            "class _DynamicSlot:\n"
            "    def __init__(self, gate):\n"
            "        self.block = _reduce(gate.matrix(), gate.qubits, ())\n"
            "    def bind(self, pool, old, flat, base):\n"
            "        return flat.take(base[0] + self.picks)\n",
        )
        # A table is built by the circuit's memo and a hand-built plan's
        # own table; tests and tools build tables of their own gates freely.
        builders = [
            self.write(
                lint, "circuits/circuit.py",
                "def table(self):\n    return GateTable(self._gates)\n",
            ),
            self.write(
                lint, "core/plan.py", "def _own_table(stages):\n    return GateTable([])\n"
            ),
        ]
        tool = lint.REPO / "tools" / "tables.py"
        tool.parent.mkdir(parents=True, exist_ok=True)
        tool.write_text("TABLE = GateTable([])\n")
        assert lint.check_one_gate_table([slots, *builders, tool]) == []
        # A per-gate bind growing back: a gate's own matrix, the oracle's
        # per-item fill, a per-variant np.ix_ block — the retired names,
        # and a second per-job table built anywhere else under src/.
        slots.write_text(
            "class _KernelSlot:\n"
            "    def fill(self, gates, flat, base):\n"
            "        items = [fill_lowered_item(low, gates) for low in self.lowering]\n"
            "        return [g.matrix() for g in gates], items\n"
            "class _DynamicSlot:\n"
            "    def bind(self, pool, old, flat, base):\n"
            "        return _reduce(pool[0].matrix(), pool[0].qubits, ())\n"
        )
        keyed = self.write(
            lint, "circuits/circuit.py", "def key(gates):\n    cache_patterns(gates)\n"
        )
        segments = self.write(
            lint, "runtime/offload.py",
            "def segment_table(pieces):\n"
            "    return gates_mod.GateTable([g for _k, gs in pieces for g in gs])\n",
        )
        findings = lint.check_one_gate_table([slots, keyed, segments])
        assert {f.rule for f in findings} == {"one-gate-table"}
        assert sorted(f.key.rpartition("::")[2] for f in findings) == [
            "GateTable", "_DynamicSlot.bind:_reduce", "_DynamicSlot.bind:matrix",
            "_KernelSlot.fill:fill_lowered_item", "_KernelSlot.fill:matrix",
            "cache_patterns", "segment_table",
        ]
        # The slots moving out of compile.py is the rule left behind.
        slots.write_text("def compile_plan(plan):\n    return plan\n")
        assert [f.key for f in lint.check_one_gate_table([slots])] == [
            "src/repro/runtime/compile.py::one-gate-table::slots:missing"
        ]

    def test_tolerance_comparison_in_a_persisted_format_flagged(self, lint):
        source = (
            "import math\n"
            "import numpy as np\n"
            "def fmt(value):\n"
            "    if abs(value - math.pi) < 1e-12:\n"
            "        return 'pi'\n"
            "    if 1e-9 >= abs(value) or math.isclose(value, 1.0):\n"
            "        return '0'\n"
            "    return repr(value)\n"
            "def same(a, b):\n"
            "    return np.allclose(a, b) and abs(a - b) <= -0.0\n"
            "def exact(value, limit):\n"
            "    return value == math.pi or abs(value) < limit or abs(value) > 1.0\n"
        )
        files = [
            self.write(lint, rel, source)
            for rel in (
                "circuits/qasm.py", "service/journal.py", "service/persistence.py",
                "runtime/checkpoint.py",
            )
        ]
        findings = lint.check_exact_persisted_formats(files)
        assert {f.rule for f in findings} == {"exact-persisted-formats"}
        assert sorted({(f.line, f.key.rpartition("::")[2]) for f in findings}) == [
            (4, "fmt:abs<"), (6, "fmt:abs<="), (6, "fmt:isclose"),
            (10, "same:abs<="), (10, "same:allclose"),
        ]
        assert len(findings) == 4 * 5
        # Tolerances are the business of every other module.
        elsewhere = self.write(lint, "circuits/gates.py", source)
        assert lint.check_exact_persisted_formats([elsewhere]) == []

    def test_baseline_suppresses_known_findings(self, lint, tmp_path):
        self.write(lint, "runtime/bad.py", "def f():\n    raise ValueError('x')\n")
        baseline = tmp_path / "baseline.json"
        assert lint.main(["--baseline", str(baseline), "--write-baseline"]) == 0
        assert lint.main(["--baseline", str(baseline)]) == 0
        self.write(lint, "runtime/worse.py", "def g():\n    raise RuntimeError('y')\n")
        assert lint.main(["--baseline", str(baseline)]) == 1

    def test_repo_tree_is_clean_against_committed_baseline(self):
        result = subprocess.run(
            [sys.executable, str(REPO / "tools" / "lint_repro.py")],
            capture_output=True,
            text=True,
            cwd=REPO,
        )
        assert result.returncode == 0, result.stdout + result.stderr

    def test_committed_baseline_is_empty(self):
        import json

        assert json.loads((REPO / "tools" / "lint_baseline.json").read_text()) == []


# ---------------------------------------------------------------------------
# Optional external gates (CI installs these; the test image may not).
# ---------------------------------------------------------------------------


@pytest.mark.skipif(shutil.which("ruff") is None, reason="ruff not installed")
def test_ruff_gate_passes():
    result = subprocess.run(
        ["ruff", "check", "src", "tools", "tests"],
        capture_output=True,
        text=True,
        cwd=REPO,
    )
    assert result.returncode == 0, result.stdout + result.stderr


@pytest.mark.skipif(shutil.which("mypy") is None, reason="mypy not installed")
def test_mypy_gate_passes():
    result = subprocess.run(
        ["mypy", "--config-file", "mypy.ini", "src/repro"],
        capture_output=True,
        text=True,
        cwd=REPO,
    )
    assert result.returncode == 0, result.stdout + result.stderr
