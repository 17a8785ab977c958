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
    shard_write_map,
    verify_plan,
    verify_program,
    verify_schedule,
)
from repro.circuits import make_gate
from repro.circuits.library import CIRCUIT_FAMILIES, get_circuit, qft
from repro.cluster import MachineConfig
from repro.core import partition
from repro.core.plan import QubitPartition
from repro.errors import PlanValidationError, StaticCheckError
from repro.planner import build_plan
from repro.runtime import compile_plan
from repro.runtime.offload import _gate_on_shard
from repro.session import Session
from repro.sim import simulate_reference

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
    from repro.circuits import Circuit
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

SCHEDULE_MUTATIONS = [
    (
        "shared-shard",
        {0: [0, 1, 2], 1: [2, 3]},
        "schedule.duplicate-assignment",
    ),
    (
        "double-assignment",
        {0: [0, 0, 1], 1: [2, 3]},
        "schedule.duplicate-assignment",
    ),
    ("orphan-shard", {0: [0], 1: [1]}, "schedule.orphan-shard"),
    ("out-of-range", {0: [0, 1, 2, 3, 7]}, "schedule.out-of-range"),
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
        "name,assignment,rule",
        SCHEDULE_MUTATIONS,
        ids=[m[0] for m in SCHEDULE_MUTATIONS],
    )
    def test_schedule_mutation_rejected(self, name, assignment, rule):
        plan, machine = fresh_plan()
        assert verify_schedule(plan, machine, num_workers=2).ok
        report = verify_schedule(plan, machine, assignments=assignment)
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
# Differential tests: the race detector's symbolic index arithmetic must
# agree with the executor's real index arithmetic, shard for shard.
# ---------------------------------------------------------------------------


class TestWriteMapDifferential:
    @pytest.mark.parametrize(
        "gate",
        [
            make_gate("x", [N - 1]),
            make_gate("z", [N - 1]),
            make_gate("cx", [0, N - 1]),
            make_gate("cz", [N - 2, N - 1]),
            make_gate("cp", [N - 1, 1], [0.3]),
        ],
        ids=["x", "z", "cx-nonlocal-control", "cz", "cp"],
    )
    def test_write_map_matches_gate_on_shard(self, gate):
        l2p = {q: q for q in range(N)}
        write_map, mixing = shard_write_map([gate], l2p, LOCAL, NUM_SHARDS)
        assert not mixing
        shard = np.zeros(1 << LOCAL, dtype=np.complex128)
        scratch = np.zeros_like(shard)
        for shard_index in range(NUM_SHARDS):
            _, _, out_index = _gate_on_shard(
                shard, scratch, gate, l2p, LOCAL, shard_index
            )
            assert write_map[shard_index] == out_index

    def test_gate_sequence_threads_indices(self):
        # Two anti-diagonal flips on distinct non-local qubits compose.
        gates = [make_gate("x", [N - 1]), make_gate("x", [N - 2])]
        l2p = {q: q for q in range(N)}
        write_map, mixing = shard_write_map(gates, l2p, LOCAL, NUM_SHARDS)
        assert not mixing
        assert write_map == [s ^ 0b11 for s in range(NUM_SHARDS)]

    def test_mixing_gate_is_flagged(self):
        write_map, mixing = shard_write_map(
            [make_gate("h", [N - 1])], {q: q for q in range(N)}, LOCAL, NUM_SHARDS
        )
        assert mixing

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
            "def fill_fused_unitary(fusion, gates):\n"
            "    for gate in gates:\n"
            "        apply(gate.matrix())\n",
        )
        dynamic = self.write(
            lint, "runtime/offload.py",
            "def _gate_on_shard(shard, gate):\n"
            "    return apply(shard, gate.matrix())\n",
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
        interpreter = self.write(
            lint, "sim/fusion.py", "def step(gate):\n    return gate_step(gate, (0,), 1)\n"
        )
        files = [home, offload, interpreter]
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
        # The interpreter's own dispatch, cycle walk and scratch pool
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

    def test_kernel_template_keeps_two_named_bodies_and_two_callers(self, lint):
        engine_source = (
            "def kernel_template(items, n):\n"
            "    def item_loop(payloads):\n"
            "        def run(states, scratch, ws):\n"
            "            return states, scratch\n"
            "        return run\n"
            "    lib = native.library()\n"
            "    def bind(payloads):\n"
            "        def run(states, scratch, ws):\n"
            "            lib.sm_apply(states)\n"
            "            return states, scratch\n"
            "        return run\n"
            "    return bind, item_loop\n"
        )
        kernel_set_rest = (
            "import threading\n"
            "_WS_TLS = threading.local()\n"
            "def unitary_template(matrix, qubits, n):\n"
            "    return _effective_kind(None, qubits, n)\n"
        )
        engine = self.write(lint, "sim/apply.py", kernel_set_rest + engine_source)
        slot = self.write(
            lint, "runtime/compile.py", "def fill(items, n):\n    return kernel_template(items, n)\n"
        )
        loader = self.write(
            lint, "sim/native.py", "def _load(lib):\n    lib.sm_apply.restype = int\n"
        )
        assert lint.check_one_op_body([engine]) == []
        assert lint.check_one_kernel_set([engine, slot, loader]) == []
        # A third body (selected by a flag), a second caller of the
        # template, and a second binder of the native entry point.
        third = self.write(
            lint, "sim/apply.py",
            kernel_set_rest + engine_source.replace(
                "    return bind, item_loop\n",
                "    def tiled(payloads):\n"
                "        def run(states, scratch, ws):\n"
                "            return states, scratch\n"
                "        return run\n"
                "    return tiled if FAST else bind, item_loop\n",
            ),
        )
        assert [f.key.rpartition("::")[2] for f in lint.check_one_op_body([third])] == [
            "kernel_template:tiled:run"
        ]
        shortcut = self.write(
            lint, "runtime/offload.py",
            "def run_groups(items, n, lib):\n"
            "    lib.sm_apply(items)\n"
            "    return kernel_template(items, n)\n",
        )
        findings = lint.check_one_kernel_set([third, slot, loader, shortcut])
        assert sorted(f.key.rpartition("::")[2] for f in findings) == [
            "run_groups:kernel_template", "run_groups:sm_apply",
        ]
        # A body going missing is the rule left behind.
        engine.write_text(kernel_set_rest + "def kernel_template(items, n):\n    return None\n")
        assert sorted(f.key.rpartition("::")[2] for f in lint.check_one_op_body([engine])) == [
            "kernel_template:bind:missing", "kernel_template:item_loop:missing",
        ]

    def test_second_native_loader_flagged(self, lint):
        home = self.write(
            lint, "sim/native.py",
            "import ctypes\nimport subprocess\n"
            "def _load(path):\n    return ctypes.CDLL(path)\n",
        )
        user = self.write(
            lint, "sim/apply.py",
            "from . import native\n"
            "def run(states):\n    return states.ctypes.data\n",  # NumPy's, not the module
        )
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

    def test_no_built_object_is_tracked(self):
        tracked = subprocess.run(
            ["git", "ls-files", "--", "*.so", "*.o"], cwd=REPO, capture_output=True, text=True,
        )
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

    def test_interpreter_call_outside_backends_flagged(self, lint):
        home = self.write(
            lint, "session/backends.py",
            "def run_plan(plan):\n    return execute_plan(plan, compiled=False)\n",
        )
        compiled = self.write(
            lint, "runtime/executor.py",
            "def execute_plan(plan, compiled=True):\n"
            "    return run(plan, compiled=compiled)\n",
        )
        assert lint.check_interpreter_call_sites([home, compiled]) == []
        # A third interpreter call site is a second executor tier.
        tier = self.write(
            lint, "service/service.py",
            "def slow(plan):\n    return execute_plan(plan, compiled=False)\n",
        )
        findings = lint.check_interpreter_call_sites([home, compiled, tier])
        assert [(f.rule, f.path, f.line) for f in findings] == [
            ("interpreter-call-sites", "src/repro/service/service.py", 2)
        ]

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
