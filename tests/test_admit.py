"""The recorded admit: a warm row of a stack is admitted by what its
structure recorded when it was built — the skeleton's digest and kernel
types, the local qubit count and a bytes compare of its gate table — and
its plan is built only when something reads it.

Differential over the library families and random circuits, stacks of
``B`` rows with tenant-relabelled twins, on both kernel bodies: every row
is the bytes of a cold compile of its own plan.  The declines are the
ones the per-row stage walk made (another kernel type, kernel gates
that are not the table's included); a warm row's plan, once read, is
``rebind_plan``'s; a full static check still sees each row's plan; and the
modelled timing kept per cache entry is the model's.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from repro import MachineConfig, Session
from repro.circuits import Circuit
from repro.circuits.gates import make_gate
from repro.circuits.library import hhl, ising, qsvm, random_circuit, vqc
from repro.core import partition
from repro.core.kernel import KernelSequence, KernelType
from repro.core.plan import ExecutionPlan, QubitPartition, Stage
from repro.errors import PlanValidationError
from repro.planner.pipeline import legacy_pipeline
from repro.runtime.compile import compile_plan
from repro.runtime.offload import build_schedule
from repro.runtime.timeline import model_simulation_time
from repro.session.cache import BoundPlan, rebind_plan
from repro.sim import native

N = 12
#: The ILP stager takes 9-14 s on hhl(12) on a 2-vCPU host; what the admit
#: reads does not depend on how the stages were chosen, so hhl is staged
#: greedily (its kernels are still the DP's).
PLANNERS = {"hhl": legacy_pipeline(stager="greedy")}
FAMILIES = {
    "qsvm": lambda: qsvm(N),
    "ising": lambda: ising(N),
    "vqc": lambda: vqc(N, ansatz_reps=1),
    "hhl": lambda: hhl(N),
    **{f"random-{seed}": (lambda seed=seed: random_circuit(N, 60, seed=seed)) for seed in range(20)},
}


def _redrawn(template: Circuit, rng: np.random.Generator) -> Circuit:
    """*template* with every angle drawn again, clear of the angles where
    a rotation loses entries: the same structure."""
    gates = [
        make_gate(g.name, g.qubits, rng.uniform(0.1, 2 * np.pi - 0.1, len(g.params)))
        if g.params else g
        for g in template.gates
    ]
    return Circuit(template.num_qubits, gates, name=template.name)


@pytest.fixture(params=["native", "item-loop"])
def body(request, monkeypatch):
    """Each kernel body in turn: the native library, or none (the item
    loop, what a host without a compiler runs)."""
    if request.param == "native":
        if native.library() is None:
            pytest.skip("no native library on this host")
    else:
        monkeypatch.setattr(native, "library", lambda: None)
    return request.param


def _cold(session: Session, circuit: Circuit, machine: MachineConfig) -> bytes:
    """*circuit* run alone by a program compiled cold from its own plan —
    no structure of the session's is admitted."""
    plan, *_ = session.plan_for(circuit, machine, compile_programs=False)
    own = rebind_plan(plan.base if isinstance(plan, BoundPlan) else plan, circuit)
    return compile_plan(own, machine).run().data.tobytes()


class TestRecordedAdmit:
    """Stacks of B in {1, 2, 3, 8} over each structure, interleaved with
    tenant-relabelled twins: every row the bytes of its own cold program,
    on both bodies, and no row declined."""

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_every_row_is_its_cold_program(self, body, family):
        rng = np.random.default_rng(sum(map(ord, family)))
        machine = MachineConfig.for_circuit(N, num_shards=4)
        template = FAMILIES[family]()
        relabel = dict(enumerate(rng.permutation(N).tolist()))
        with Session(machine, backend="incore", planner=PLANNERS.get(family)) as session:
            session.run([_redrawn(template, rng), _redrawn(template, rng).remap_qubits(relabel)])
            for rows in (1, 2, 3, 8):
                stack = [_redrawn(template, rng) for _ in range(rows)]
                twins = [_redrawn(template, rng).remap_qubits(relabel) for _ in range(rows)]
                circuits = [c for pair in zip(stack, twins) for c in pair]
                before = session.stats.program_rebind_fallbacks
                job = session.run(circuits)
                assert session.stats.program_rebind_fallbacks == before
                for circuit, result in zip(circuits, job.results(), strict=True):
                    assert result.state.data.tobytes() == _cold(session, circuit, machine)


def _plan(gates, partition_sets) -> ExecutionPlan:
    stage = Stage(
        gates=list(gates),
        partition=QubitPartition.from_sets(*partition_sets),
        gate_indices=list(range(len(gates))),
    )
    return ExecutionPlan(num_qubits=4, stages=[stage])


def _gates(theta):
    return [make_gate("h", [0]), make_gate("rx", [3], [theta]), make_gate("cx", [0, 1])]


#: rx on qubit 3, which the partition keeps non-local: a locality-checked
#: position.
FAR = ({0, 1}, {2, 3}, set())
NEAR = ({0, 1, 3}, {2}, set())


class TestDeclines:
    """Each row the per-row stage walk declined is declined, and no other:
    the exact signature, the key pattern where locality or a shard's axes
    depend on it, a skeleton, kernel types or a local count that are not
    the structure's, and gates that are not the plan's table's."""

    @pytest.mark.parametrize("base, row, declined", [
        (0.7, 0.0, True),  # rx(0) under a generic rx: another exact signature
        (0.0, 0.7, True),
        (0.0, 1e-13, True),
        (0.7, 0.3, False),
        (1e-13, math.pi, False),  # one exact signature, two key patterns
    ])
    def test_exact_signature(self, base, row, declined):
        machine = MachineConfig.for_circuit(4)
        held = compile_plan(_plan(_gates(base), NEAR), machine)
        warm = compile_plan(_plan(_gates(row), NEAR), machine, reuse=held)
        assert bool(warm.ops_recompiled) == declined
        assert (warm.structure is held.structure) == (not declined)

    @pytest.mark.parametrize("base, row", [(1e-13, math.pi), (math.pi, 1e-13), (0.0, 0.0)])
    def test_a_locality_checked_position_proves_a_new_key_pattern(self, base, row):
        """rx(pi) and rx(1e-13) share an exact signature, not a key pattern,
        and both are insular: a program admits either over the other (the
        invariant is proved for the row), as a stage walk did."""
        held = compile_plan(_plan(_gates(base), FAR))
        warm = compile_plan(_plan(_gates(row), FAR), reuse=held)
        assert warm.ops_recompiled == 0 and warm.structure is held.structure
        assert warm.run().data.tobytes() == compile_plan(_plan(_gates(row), FAR)).run().data.tobytes()

    def test_a_schedule_declines_a_new_key_pattern(self):
        """A shard's axes follow the key pattern of a gate on a non-local
        qubit: rx(1e-13) is not bound onto rx(pi)'s schedule."""
        local = 2
        held = build_schedule(_plan(_gates(math.pi), FAR), local)
        assert not build_schedule(_plan(_gates(1e-13), FAR), local, reuse=held).rebound
        assert build_schedule(_plan(_gates(math.pi), FAR), local, reuse=held).rebound

    def test_a_skeleton_that_differs_is_declined(self):
        """Another partition of the same gates — another layout, another
        digest — is built cold, by the program compiler and the schedule."""
        machine = MachineConfig.for_circuit(4)
        held = compile_plan(_plan(_gates(0.3), NEAR), machine)
        other = compile_plan(_plan(_gates(0.4), ({0, 1, 2}, {3}, set())), machine, reuse=held)
        assert other.ops_recompiled and other.structure is not held.structure
        circuit = vqc(8, seed=0)
        machine = MachineConfig.for_circuit(8, num_gpus=4, local_qubits=6)
        base, _ = partition(circuit, machine)
        schedule = build_schedule(base, machine.local_qubits)
        skewed, _ = partition(circuit, MachineConfig.for_circuit(8, num_gpus=4, local_qubits=5))
        assert skewed.digest() != base.digest()
        assert not build_schedule(skewed, machine.local_qubits, reuse=schedule).rebound
        assert compile_plan(skewed, machine, reuse=compile_plan(base, machine)).ops_recompiled

    @staticmethod
    def _kernelized():
        """A kernelized plan of vqc(8) on a machine with non-local qubits,
        with its compiled program and shard schedule."""
        circuit = vqc(8, seed=0)
        machine = MachineConfig.for_circuit(8, num_gpus=4, local_qubits=6)
        base, _ = partition(circuit, machine)
        assert base.num_kernels
        return base, machine, compile_plan(base, machine), build_schedule(base, machine.local_qubits)

    @staticmethod
    def _restaged(plan: ExecutionPlan, kernel) -> ExecutionPlan:
        """*plan* with every kernel replaced by ``kernel(old)``, over the
        same gate table."""
        return ExecutionPlan(
            num_qubits=plan.num_qubits,
            stages=[
                dataclasses.replace(stage, kernels=KernelSequence([kernel(k) for k in stage.kernels]))
                if stage.kernels is not None else stage
                for stage in plan.stages
            ],
            circuit_name=plan.circuit_name,
            provenance=dict(plan.provenance),
            gate_table=plan.gate_table,
        )

    def test_another_kernel_type_is_declined(self):
        """The same grouping with every kernel's type swapped: the digest
        agrees, the lowering does not.  Both lowerings build it cold, and
        its program computes a cold compile's bits."""
        base, machine, program, schedule = self._kernelized()
        swapped = self._restaged(base, lambda k: dataclasses.replace(
            k, kernel_type=KernelType.SHM
            if k.kernel_type is KernelType.FUSION else KernelType.FUSION,
        ))
        assert swapped.skeleton() != base.skeleton()
        warm = compile_plan(swapped, machine, reuse=program)
        assert warm.ops_recompiled and warm.structure is not program.structure
        cold = compile_plan(swapped, machine)
        assert warm.run().data.tobytes() == cold.run().data.tobytes()
        assert not build_schedule(swapped, machine.local_qubits, reuse=schedule).rebound
        # The same types again are admitted.
        same = self._restaged(base, lambda k: k)
        assert compile_plan(same, machine, reuse=program).structure is program.structure
        assert build_schedule(same, machine.local_qubits, reuse=schedule).rebound

    def test_kernel_gates_that_are_not_the_tables_are_declined(self):
        """A plan whose kernel gates were edited while its indices stayed:
        no held structure takes it, and its own build raises — in both
        lowerings.  So does a stage without kernels whose gates were
        edited."""
        base, machine, program, schedule = self._kernelized()
        other = make_gate("h", [0])
        edited = self._restaged(base, lambda k: dataclasses.replace(
            k, gates=(other,) + tuple(k.gates[1:])
        ))
        with pytest.raises(PlanValidationError, match="do not name its gates"):
            compile_plan(edited, machine, reuse=program)
        with pytest.raises(PlanValidationError, match="do not name its gates"):
            build_schedule(edited, machine.local_qubits, reuse=schedule)
        plain = _plan(_gates(0.3), NEAR)
        held = compile_plan(plain, MachineConfig.for_circuit(4))
        moved = ExecutionPlan(
            num_qubits=4,
            stages=[dataclasses.replace(plain.stages[0], gates=_gates(0.4))],
            gate_table=plain.gate_table,
        )
        with pytest.raises(PlanValidationError, match="do not name its gates"):
            compile_plan(moved, MachineConfig.for_circuit(4), reuse=held)
        with pytest.raises(PlanValidationError, match="do not name its gates"):
            build_schedule(moved, 3, reuse=build_schedule(plain, 3))

    def test_a_local_count_that_differs_is_declined(self):
        """One layout under two local counts: the digest agrees, the record's
        local count does not.  The partition's count and a machine's equal
        to it are one count."""
        held = compile_plan(_plan(_gates(0.3), NEAR))  # 3 local qubits
        for machine, declined in (
            (MachineConfig.for_circuit(4), True),  # 4 local qubits
            (MachineConfig.for_circuit(4, num_gpus=2, local_qubits=3), False),
        ):
            warm = compile_plan(_plan(_gates(0.4), NEAR), machine, reuse=held)
            assert bool(warm.ops_recompiled) == declined
            assert (warm.structure is held.structure) == (not declined)

    def test_a_read_plan_is_digested_as_it_stands(self):
        """A warm row's plan, once read, is its stages' own: a reader that
        changes them changes what it is admitted as."""
        machine = MachineConfig.for_circuit(N, num_shards=4)
        rng = np.random.default_rng(3)
        template = qsvm(N)
        with Session(machine, backend="incore") as session:
            session.run(_redrawn(template, rng))
            plan, _report, hit, program = session.plan_for(_redrawn(template, rng))
            assert hit and isinstance(plan, BoundPlan)
            digest = plan.digest()
            plan.stages[0].gate_indices.reverse()
            assert plan.digest() != digest
            # Not admitted: built cold, whose record finds the indices
            # no longer name the stage's gates.
            with pytest.raises(PlanValidationError, match="do not name its gates"):
                compile_plan(plan, machine, reuse=program)


class TestLazyPlan:
    def test_a_warm_rows_plan_is_rebind_plans(self):
        """``Result.plan`` of a stacked row builds on first read what
        ``rebind_plan(base, circuit)`` builds: the skeleton, the very gate
        objects and the provenance."""
        machine = MachineConfig.for_circuit(N, num_shards=4)
        rng = np.random.default_rng(5)
        template = vqc(N, ansatz_reps=1)
        with Session(machine, backend="incore") as session:
            base_job = session.run(_redrawn(template, rng))
            base = base_job.result().plan
            circuits = [_redrawn(template, rng) for _ in range(3)]
            job = session.run(circuits)
        for circuit, result in zip(circuits, job.results()):
            plan = result.plan
            assert isinstance(plan, BoundPlan) and plan.base is base
            assert plan._stages is None  # nothing read it while it ran
            want = rebind_plan(base, circuit)
            assert plan.skeleton() == want.skeleton()
            assert plan.digest() == want.digest() == base.digest()
            for got, expected in zip(plan.stages, want.stages, strict=True):
                assert all(a is b for a, b in zip(got.gates, expected.gates, strict=True))
                for k, w in zip(got.kernels or (), expected.kernels or (), strict=True):
                    assert all(a is b for a, b in zip(k.gates, w.gates, strict=True))
            assert plan.provenance == want.provenance and plan.provenance is not base.provenance
            assert plan.gate_table is circuit.gate_table()
            assert result.summary()["num_gates"] == len(circuit)
            assert plan == want  # stages built: the dataclass fields agree

    def test_a_full_check_sees_each_rows_plan(self, monkeypatch):
        """``check="full"`` verifies every row of a stack against its own
        plan, built for the check."""
        import repro.check as check

        machine = MachineConfig.for_circuit(N, num_shards=4)
        rng = np.random.default_rng(6)
        template = ising(N)
        seen = []
        verify = check.verify_program

        def recording(program, plan=None, machine=None):
            seen.append(plan)
            return verify(program, plan=plan, machine=machine)

        monkeypatch.setattr(check, "verify_program", recording)
        with Session(machine, backend="incore", check="full") as session:
            session.run(_redrawn(template, rng))
            circuits = [_redrawn(template, rng) for _ in range(4)]
            job = session.run(circuits)
            assert session.stats.static_checks == 5 and session.stats.stacked_rows == 4
        rows = seen[1:]
        for circuit, plan, result in zip(circuits, rows, job.results(), strict=True):
            assert result.plan is plan and plan.gate_table is circuit.gate_table()
            assert plan.all_gates() == rebind_plan(plan.base, circuit).all_gates()

    def test_a_bound_plan_pickles_as_a_plan(self):
        import pickle

        machine = MachineConfig.for_circuit(8)
        with Session(machine, backend="incore") as session:
            session.run(vqc(8, seed=0))
            plan = session.run(vqc(8, seed=1)).result().plan
        copy = pickle.loads(pickle.dumps(plan))
        assert type(copy) is ExecutionPlan and copy.skeleton() == plan.skeleton()


class TestTimingMemo:
    def test_the_memo_is_the_model(self):
        """One modelled timing per cache entry, equal to a fresh
        ``model_simulation_time``; a reassigned cost model or machine reads
        a fresh one."""
        machine = MachineConfig.for_circuit(N, num_shards=4)
        rng = np.random.default_rng(8)
        template = qsvm(N)
        with Session(machine, backend="incore") as session:
            first = session.run(_redrawn(template, rng)).result()
            job = session.run([_redrawn(template, rng) for _ in range(2)])
            kept = job.results()[0].timing
            assert kept == first.timing  # a cold plan's is modelled directly
            for result in job.results():
                assert result.timing is kept
                assert result.timing == model_simulation_time(result.plan, machine, session.cost_model)
            assert session.run(_redrawn(template, rng)).result().timing is kept
            session.cost_model = dataclasses.replace(
                session.cost_model, seconds_per_unit=2.0 * session.cost_model.seconds_per_unit
            )
            repriced = session.run(_redrawn(template, rng)).result()
            assert repriced.timing == model_simulation_time(repriced.plan, machine, session.cost_model)
            assert repriced.timing != first.timing
            # The memo itself keys on the cost model, not only the cache.
            incore = session.backend_instance("incore")
            assert session._timing(incore, first.plan, machine) == model_simulation_time(
                first.plan, machine, session.cost_model
            )
            wider = MachineConfig.for_circuit(N, num_shards=2)
            moved = session.run(_redrawn(template, rng), machine=wider).result()
            assert moved.timing == model_simulation_time(moved.plan, wider, session.cost_model)
