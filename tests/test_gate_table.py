"""The gate table and the gather bind: one array pass per circuit feeds the
structural key, the rebind guard and every slot's payload.

Differential throughout: the table against each gate's own formula
(``GateSpec.matrix``) and :func:`matrix_signature`, and every bound slot
payload against :func:`repro.sim.fusion.lower_kernel_gates` (the static
verifier's named oracle) — on the native body where the host has one, and
on the item loop always.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np
import pytest

from repro import MachineConfig, Session
from repro.circuits import Circuit, Gate, make_gate
from repro.circuits import gates as gates_mod
from repro.circuits.gates import GATE_SPECS, SUPPORTED_GATES, GateTable, gate_matrix, matrix_signature
from repro.circuits.library import ising, qft, qsvm, su2random, vqc
from repro.core import partition
from repro.core.kernel import Kernel, KernelSequence, KernelType
from repro.core.plan import ExecutionPlan, QubitPartition, Stage
from repro.errors import PlanValidationError
from repro.runtime.compile import (
    SegmentStructure, _KernelSlot, compile_plan,
)
from repro.session.cache import frozen, plan_cache_key, rebind_plan
from repro.sim.apply import Workspace, analyze_matrix, kernel_template
from repro.sim import simulate_reference
from repro.sim.fusion import (
    GatherProgram, KernelGather, _gate_shape, kernel_items, kernel_lowering, lower_kernel_gates,
)

SPECIAL = (0.0, math.pi, -math.pi, 2 * math.pi, 1e-13, -1e-13)


def _params(spec, rng, angle=None):
    if angle is None:
        return tuple(float(a) for a in rng.uniform(-7.0, 7.0, spec.num_params))
    return (angle,) * spec.num_params


def _gate_cases():
    rng = np.random.default_rng(31)
    for name in SUPPORTED_GATES:
        spec = GATE_SPECS[name]
        qubits = tuple(range(spec.num_qubits))
        angles = [None] * 8 + list(SPECIAL) if spec.num_params else [None]
        for angle in angles:
            yield Gate(name, qubits, _params(spec, rng, angle))


def _old_key(circuit: Circuit) -> str:
    """The structural key as every gate's own matrix spells it."""
    parts = [circuit.num_qubits.to_bytes(4, "little")]
    for gate in circuit.gates:
        parts.append(
            b"|" + gate.name.encode() + np.asarray(gate.qubits, dtype=np.int32).tobytes()
        )
        if gate.params:
            loose = np.abs(GATE_SPECS[gate.name].matrix(gate.params)) > 1e-12
            parts.append(np.packbits(loose.reshape(-1)).tobytes())
    return hashlib.blake2b(b"".join(parts), digest_size=16).hexdigest()


def _row(table: GateTable, position: int) -> np.ndarray:
    """Gate *position*'s matrix in *table*: its entries of ``flat``."""
    dim = 1 << len(table.gates[position].qubits)
    start = int(table.offsets[position])
    return table.flat[start : start + dim * dim].reshape(dim, dim)


class TestTheTable:
    def test_every_row_is_its_gates_formula(self):
        """Every gate at random and special angles: its row has the bits of
        its formula and of ``Gate.matrix()``; the table's key pattern and
        ``Gate.pattern()`` are the matrix's own."""
        cases = list(_gate_cases())
        table = GateTable(cases)
        assert not table.flat.flags.writeable
        for position, gate in enumerate(cases):
            want = GATE_SPECS[gate.name].matrix(gate.params)
            assert _row(table, position).tobytes() == want.tobytes(), gate
            assert gate.matrix().tobytes() == want.tobytes(), gate
            loose = np.packbits((np.abs(want) > 1e-12).reshape(-1)).tobytes()
            expected = (loose, matrix_signature(gate_matrix(gate.name, gate.params)))
            if not gate.params:
                expected = (b"", b"")
            assert gate.pattern() == expected, gate
            assert GateTable([gate]).key_bytes().endswith(expected[0]), gate

    def test_stacks_are_views_of_the_flat_rows(self):
        circuit = vqc(6, ansatz_reps=1)
        table = circuit.gate_table()
        assert table is circuit.gate_table()  # memoised
        counts = [0, 0, 0]
        for position, gate in enumerate(circuit.gates):
            if gate.params:
                width = len(gate.qubits) - 1
                assert np.array_equal(table.stacks[width][counts[width]], _row(table, position))
                counts[width] += 1
        assert [len(stack) for stack in table.stacks] == counts
        circuit.h(0)
        assert circuit.gate_table() is not table and len(circuit.gate_table()) == len(circuit)

    @pytest.mark.parametrize("family", [qsvm, ising, vqc, qft, su2random])
    def test_key_is_the_per_gate_key(self, family):
        rng = np.random.default_rng(2)
        template = family(7)
        for angle in (None, 0.0, math.pi / 2, math.pi, 1e-13):
            circuit = Circuit(7, [
                Gate(g.name, g.qubits, _params(g.spec, rng, angle)) for g in template.gates
            ])
            assert circuit.structural_key() == _old_key(circuit)

    def test_guard_blob_separates_exact_signatures(self):
        """rx(0) and rx(1e-13) share the key pattern, not the exact one;
        rx(1e-13) and rx(pi) share the exact one, not the key pattern."""
        def table(theta):
            return GateTable([make_gate("h", [0]), make_gate("rx", [1], [theta])])

        everything = np.arange(2)
        zero, tiny, flip, generic = table(0.0), table(1e-13), table(math.pi), table(0.4)
        assert zero.signature_blob(everything) != tiny.signature_blob(everything)
        assert tiny.signature_blob(everything) == flip.signature_blob(everything)
        assert generic.signature_blob(everything) == flip.signature_blob(everything)
        assert zero.key_bytes() == tiny.key_bytes() != flip.key_bytes()
        moved = GateTable([make_gate("h", [0]), make_gate("rx", [2], [0.4])])
        assert moved.signature_blob(everything) != generic.signature_blob(everything)

    def test_insularity_reads_the_key_pattern(self):
        cases = list(_gate_cases())
        table = GateTable(cases)
        for position, gate in enumerate(cases):
            matrix = GATE_SPECS[gate.name].matrix(gate.params)
            diagonal = gates_mod.is_diagonal(matrix)
            assert gate.is_diagonal() == diagonal, gate
            assert gate.is_antidiagonal() == gates_mod.is_antidiagonal(matrix), gate
            assert table.non_insular_qubits(position) == gate.non_insular_qubits(), gate


#: The shape cases: every gate at two seeded random angles and at the
#: angles where a matrix gains or loses exact zeros and ones.
SHAPE_ANGLES = (None, None, 0.0, math.pi / 2, math.pi, -math.pi, 2 * math.pi, 1e-13)


def _shape_cases():
    rng = np.random.default_rng(39)
    for name in SUPPORTED_GATES:
        spec = GATE_SPECS[name]
        qubits = tuple(range(spec.num_qubits))[::-1]
        for angle in SHAPE_ANGLES if spec.num_params else (None,):
            yield Gate(name, qubits, _params(spec, rng, angle))


class TestShapesFromTheTable:
    """Differential: what the cold path reads off the gate table against
    the per-gate derivations it replaced — :func:`analyze_matrix` (the
    oracle for a gate's kind and permutation) and a fresh
    ``_pattern_of(gate.matrix())``."""

    def test_table_patterns_are_each_gates_own(self):
        cases = list(_shape_cases())
        fresh = [Gate(g.name, g.qubits, g.params) for g in cases]  # never in a table
        pairs = GateTable(cases).patterns()
        for gate, copy, pair in zip(cases, fresh, pairs, strict=True):
            if not gate.params:
                assert pair == (b"", b""), gate
                continue
            assert pair == gates_mod._pattern_of(copy.matrix()), gate
            assert pair[1] == matrix_signature(copy.matrix()), gate
            assert gate.pattern() is pair  # handed to the gate, not recomputed

    def test_table_shape_is_the_analysis(self):
        cases = list(_shape_cases())
        pairs = GateTable(cases).patterns()
        for gate, (_key, signature) in zip(cases, pairs, strict=True):
            matrix = GATE_SPECS[gate.name].matrix(gate.params)
            info = analyze_matrix(matrix)
            shape = _gate_shape(gate.name, signature)
            monomial = info.kind in ("diagonal", "permutation")
            assert shape.kind == (info.kind if monomial else "dense"), gate
            assert shape.perm == (info.perm if info.kind == "permutation" else None), gate
            if not monomial:
                assert shape.phases is None, gate
                continue
            values = info.diagonal if info.kind == "diagonal" else info.phases
            assert np.array_equal(matrix.reshape(-1).take(shape.phases), values), gate
            assert shape.only_permutes == (not gate.params and bool(np.all(values == 1))), gate

    def test_table_insularity_is_each_gates_own(self):
        cases = list(_shape_cases())
        table = GateTable(cases)
        table.patterns()
        for position, gate in enumerate(cases):
            copy = Gate(gate.name, gate.qubits, gate.params)
            assert table.non_insular_qubits(position) == copy.non_insular_qubits(), gate
            assert gate.non_insular_qubits() == copy.non_insular_qubits(), gate


def _slot_cases(program, plan):
    """``(slot, pool gates, layout, run)`` of every kernel slot: *run* is
    the structure's gather program run over every pool gate's matrix out
    of the plan's table."""
    structure = program.structure
    entries = structure.entries([plan.gate_table])
    run = structure.program(entries) if structure.program is not None else None
    for slot in structure.slots:
        if not isinstance(slot, _KernelSlot):
            continue
        kind, stage_index, index = slot.source
        stage = plan.stages[stage_index]
        gates = (stage.gates[index],) if kind == "gate" else tuple(stage.kernels.kernels[index].gates)
        l2p = structure.record.groups[stage_index][0]
        yield slot, gates, l2p, run


def _loop_array(item):
    """What the item loop reads of a filled item: a block's phases, a
    gate's matrix, a fold's 2x2 factors."""
    if item.factors is not None:
        return np.array(item.factors)
    return item.phases if item.matrix is None else item.matrix


def _assert_slot_matches_oracle(slot, gates, l2p, run):
    oracle = lower_kernel_gates(gates, l2p)
    template = slot.template
    (arrays,) = run.arrays_of(slot.kernel)  # a stack of one row
    for item, array in zip(oracle, arrays, strict=True):
        assert array.tobytes() == _loop_array(item).tobytes()
    if template.native and template.fills:  # (no fill: one unread entry)
        (numbers,) = run.numbers_of(slot.kernel)
        assert numbers.tobytes() == template.pack(oracle).tobytes()


class TestGatherBind:
    FAMILIES = {
        "qsvm": qsvm, "ising": ising, "vqc": lambda n: vqc(n, ansatz_reps=1),
        "qft": qft, "su2random": lambda n: su2random(n, reps=1),
    }

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    @pytest.mark.parametrize("n", [4, 8, 12])
    def test_every_slot_payload_is_the_oracles(self, family, n):
        """Random layouts (a seeded qubit relabelling and local-qubit count),
        a cold plan and a rebind to new angles: every kernel slot's gathered
        payload — native packing, item-loop arrays (a fold's 2x2 factors) —
        is bit for bit what the oracle fills for the same gates in the same
        layout."""
        rng = np.random.default_rng(n * 7 + len(family))
        template = self.FAMILIES[family](n)
        relabel = dict(enumerate(rng.permutation(n).tolist()))
        template = template.remap_qubits(relabel)
        local = int(rng.integers(max(2, n - 3), n + 1))
        machine = MachineConfig.for_circuit(n, num_gpus=1 << (n - local), local_qubits=local)

        def redraw():
            return Circuit(n, [
                Gate(g.name, g.qubits, _params(g.spec, rng)) for g in template.gates
            ])

        base_plan, _ = partition(redraw(), machine)
        base = compile_plan(base_plan, machine)
        warm_circuit = redraw()
        plan = rebind_plan(base_plan, warm_circuit)
        assert plan.gate_table is warm_circuit.gate_table()
        warm = compile_plan(plan, machine, reuse=base)
        assert warm.ops_recompiled == 0 and warm.structure is base.structure
        checked = 0
        for slot, gates, l2p, run in _slot_cases(warm, plan):
            _assert_slot_matches_oracle(slot, gates, l2p, run)
            checked += 1
        assert checked == sum(isinstance(s, _KernelSlot) for s in warm.structure.slots) > 0
        cold = compile_plan(plan, machine)
        assert np.array_equal(warm.run().data, cold.run().data)


def test_kernel_variants_read_the_table():
    """A kernel with gates on non-local qubits binds one op per assignment
    of the shard's fixed bits, every variant's numbers taken out of the
    kernel's gathered payload: on every shard the variant it runs — the
    bound op and the item loop of the same numbers — is the in-core
    kernel's pass there, bit for bit, stored where the in-core pass puts
    the shard.  The kernel holds every non-local axis kind: diagonals,
    declared controls on dense targets, controlled permutations, an
    anti-diagonal that relabels shards and a block over non-local qubits
    only."""
    rng = np.random.default_rng(9)
    n, local = 6, 4
    l2p = {q: q for q in range(n)}
    gates = (
        make_gate("cp", [1, 4], [0.7]), make_gate("rz", [3], [1.3]),
        make_gate("crz", [0, 4], [2.1]), make_gate("rzz", [2, 5], [0.4]),
        make_gate("cry", [1, 5], [0.9]), make_gate("ch", [3, 4]),
        make_gate("x", [5]), make_gate("ccx", [0, 4, 5]), make_gate("h", [2]),
        make_gate("cp", [4, 5], [1.7]), make_gate("ry", [2], [0.3]),
    )
    table = GateTable(gates)
    structure = SegmentStructure([(gates, None, tuple(range(len(gates))))], l2p, local, table)
    (slot,) = structure.slots
    assert slot.far == (0, 1)
    run = structure.program(structure.entries([table]))
    ops = slot.bind([gates], None, run)
    items = lower_kernel_gates(gates, l2p)
    state = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    want = kernel_template(kernel_items(items, l2p), n).bind(items)(
        state.copy(), np.empty_like(state), Workspace()
    )[0]
    size = 1 << local
    for shard, (_picks, out) in enumerate(structure.shards):
        variant = slot.variant(shard)
        assert out == shard ^ slot.flips[variant]
        template = slot.variants[variant].template
        for bound in (ops[variant].run, template.loop(run.arrays_of(slot.kernel, variant))):
            data = state[shard * size : (shard + 1) * size].copy()
            got = bound(data, np.empty_like(data), Workspace())[0]
            assert got.tobytes() == want[out * size : (out + 1) * size].tobytes()
    assert sorted(structure.shards[s][1] for s in range(4)) == [0, 1, 2, 3]
    assert [out for _picks, out in structure.shards] != [0, 1, 2, 3]


class TestPlanIndices:
    """A kernel's numbers are read through recorded indices only: stage
    ``gate_indices`` into the plan's table, kernel ``gate_indices`` into
    the stage.  A plan built by hand without them gets them when it is
    constructed, from its own gates."""

    @staticmethod
    def _plan(a, b, kernel_type, order=(0, 1, 2)):
        """rx(a), rx(b) on qubit 0 in one kernel recording no indices, h on
        qubit 1 in another; the stage holds the three gates in *order*."""
        gates = [make_gate("rx", [0], [a]), make_gate("rx", [0], [b]), make_gate("h", [1])]
        kernels = KernelSequence([
            Kernel(gates=tuple(gates[:2]), qubits=(0,), kernel_type=kernel_type, cost=1.0),
            Kernel(gates=(gates[2],), qubits=(1,), kernel_type=KernelType.SHM, cost=1.0),
        ])
        stage = Stage(
            gates=[gates[i] for i in order],
            partition=QubitPartition.from_sets({0, 1}, set(), set()),
            gate_indices=[0, 1, 2], kernels=kernels,
        )
        return ExecutionPlan(num_qubits=2, stages=[stage])

    @pytest.mark.parametrize("kernel_type", [KernelType.SHM, KernelType.FUSION])
    @pytest.mark.parametrize("order", [(0, 1, 2), (2, 0, 1), (0, 2, 1)])
    def test_equal_gates_in_one_kernel_rebind_to_their_own_angles(self, kernel_type, order):
        """Two equal gates of one kernel take two table positions, so a
        rebind to distinct angles reads each gate's own: the warm program
        is the cold one bit for bit, and the circuit's state."""
        base = compile_plan(self._plan(0.3, 0.3, kernel_type, order))
        plan = self._plan(0.3, 1.1, kernel_type, order)
        assert [k.gate_indices for k in plan.stages[0].kernels] == [
            (order.index(0), order.index(1)), (order.index(2),)
        ]
        warm, cold = compile_plan(plan, reuse=base), compile_plan(plan)
        assert warm.structure is base.structure and warm.ops_recompiled == 0
        assert np.array_equal(warm.run().data, cold.run().data)
        circuit = Circuit(2, list(plan.stages[0].kernels.kernels[0].gates) + [make_gate("h", [1])])
        assert simulate_reference(circuit).allclose(warm.run())

    def test_construction_copies_and_never_writes_the_callers_objects(self):
        plan = self._plan(0.3, 0.3, KernelType.SHM, (2, 0, 1))
        stage = plan.stages[0]
        kernels = KernelSequence([
            Kernel(gates=k.gates, qubits=k.qubits, kernel_type=k.kernel_type, cost=k.cost)
            for k in stage.kernels
        ])
        bare = Stage(gates=list(stage.gates), partition=stage.partition, kernels=kernels)
        rebuilt = ExecutionPlan(num_qubits=2, stages=[bare])
        assert bare.gate_indices == [] and all(k.gate_indices == () for k in kernels)
        assert rebuilt.stages[0] is not bare and rebuilt.stages[0].gate_indices == [0, 1, 2]
        assert [k.gate_indices for k in rebuilt.stages[0].kernels] == [(1, 2), (0,)]
        assert rebuilt.gate_table.gates == tuple(bare.gates)

    def test_a_slice_of_a_plan_is_numbered_in_plan_order(self):
        """Stages cut out of a planned circuit record circuit positions
        that do not number the slice's gates 0..n-1: the slice's own table
        is in plan order, and it compiles and runs its gates."""
        circuit = qft(6)
        machine = MachineConfig.for_circuit(6, num_gpus=4, local_qubits=4)
        plan, _ = partition(circuit, machine)
        assert len(plan.stages) > 1
        tail = ExecutionPlan(num_qubits=6, stages=plan.stages[1:])
        recorded = [list(stage.gate_indices) for stage in plan.stages[1:]]
        assert [stage.gate_indices for stage in tail.stages] != recorded
        assert [j for stage in tail.stages for j in stage.gate_indices] == list(
            range(tail.gate_count())
        )
        assert [list(stage.gate_indices) for stage in plan.stages[1:]] == recorded
        out = compile_plan(tail, machine).run()
        assert simulate_reference(Circuit(6, tail.all_gates())).allclose(out)

    def test_indices_that_do_not_name_the_gates_raise(self):
        plan = self._plan(0.3, 1.1, KernelType.SHM)
        stage = plan.stages[0]
        first, rest = stage.kernels
        stage.kernels = KernelSequence([
            Kernel(gates=first.gates, qubits=(0,), kernel_type=KernelType.SHM, cost=1.0,
                   gate_indices=(1, 0)),
            rest,
        ])
        with pytest.raises(PlanValidationError, match="do not name its gates"):
            compile_plan(plan)
        stage.kernels = KernelSequence([
            Kernel(gates=first.gates, qubits=(0,), kernel_type=KernelType.SHM, cost=1.0), rest,
        ])
        with pytest.raises(PlanValidationError, match="records 0 gate indices for 2 gates"):
            compile_plan(plan)

    def test_a_planned_plan_carries_its_circuits_table(self):
        circuit = qsvm(6)
        plan, _ = partition(circuit, MachineConfig.for_circuit(6))
        assert plan.gate_table is circuit.gate_table()


class TestPatternBoundary:
    @staticmethod
    def _plan(theta, machine):
        circuit = Circuit(5).h(0).cx(0, 1).rx(theta, 1).ry(0.3, 1).cz(1, 2).ry(0.4, 3).cx(3, 4)
        return circuit, partition(circuit, machine)[0]

    def test_crossing_the_exact_pattern_builds_cold(self):
        """rx(0) is an exact diagonal; rx(1e-13) and rx(pi) are not, and
        share each other's exact pattern.  A rebind across the exact
        boundary is built cold (``ops_recompiled``) and never adopts the
        base's structure; one inside it binds.  Every program equals its
        cold compile bit for bit."""
        machine = MachineConfig.for_circuit(5)
        for first, second, crosses in (
            (0.0, 1e-13, True), (1e-13, 0.0, True), (0.0, math.pi, True),
            (math.pi, 0.0, True), (1e-13, math.pi, False), (math.pi, 0.7, False),
        ):
            _, base_plan = self._plan(first, machine)
            base = compile_plan(base_plan, machine, check_locality=False)
            circuit, _ = self._plan(second, machine)
            plan = rebind_plan(base_plan, circuit)
            warm = compile_plan(plan, machine, check_locality=False, reuse=base)
            assert bool(warm.ops_recompiled) == crosses, (first, second)
            assert (warm.structure is base.structure) == (not crosses)
            cold = compile_plan(plan, machine, check_locality=False)
            assert np.array_equal(warm.run().data, cold.run().data)

    def test_a_session_counts_the_crossing(self):
        machine = MachineConfig.for_circuit(5)
        circuits = [self._plan(theta, machine)[0] for theta in (0.0, 1e-13, 0.0, math.pi)]
        with Session(machine, backend="incore", planner="balanced") as session:
            results = session.run(circuits).results()
            stats = session.stats
        assert stats.program_rebind_fallbacks == 1  # rx(1e-13) on rx(0)'s entry
        assert stats.plans_built == 2  # rx(pi) has a key of its own
        assert [r.summary()["ops_recompiled"] > 0 for r in results] == [False, True, False, False]


class TestWarmPathHoldsNothing:
    @pytest.mark.parametrize("backend", ["incore", "offload"])
    def test_a_warm_sweep_adds_no_matrix_cache_entry(self, backend):
        """Gates and circuits never read the ``(name, params)`` matrix
        cache: a warm job of new angles leaves it as it was."""
        rng = np.random.default_rng(4)
        template = ising(8)
        machine = MachineConfig.for_circuit(8, num_gpus=4, local_qubits=6)

        def redraw():
            return Circuit(8, [
                Gate(g.name, g.qubits, _params(g.spec, rng)) for g in template.gates
            ])

        with Session(machine, backend=backend, planner="balanced") as session:
            session.run(redraw())
            before = gates_mod._cached_matrix.cache_info().currsize
            for _ in range(5):
                session.run(redraw())
            assert gates_mod._cached_matrix.cache_info().currsize == before


class TestPlannerKeyMemo:
    def test_frozen_configs_freeze_once_per_object(self):
        machine = MachineConfig.for_circuit(6)
        assert frozen(machine) is frozen(machine)
        with Session(machine, planner="balanced") as session:
            manager = session.planner
            key = session._planner_key(manager)
            assert session._planner_key(manager) == key
            assert key[2] is frozen(session.cost_model)

    def test_a_new_cost_model_or_machine_is_a_new_key(self):
        from dataclasses import replace

        circuit = qsvm(6)
        machine = MachineConfig.for_circuit(6)
        with Session(machine, planner="balanced") as session:
            manager = session.planner
            before = session._planner_key(manager)
            session.cost_model = replace(session.cost_model, shm_load_cost=7.0)
            after = session._planner_key(manager)
            assert after != before and after[2] != before[2]
            other = MachineConfig.for_circuit(6, num_gpus=2, local_qubits=5)
            assert plan_cache_key(circuit, other, after) != plan_cache_key(circuit, machine, after)
            # An equal machine built anew freezes equal: the same entry.
            twin = MachineConfig.for_circuit(6)
            assert twin is not machine
            assert plan_cache_key(circuit, twin, after) == plan_cache_key(circuit, machine, after)

    def test_a_pipeline_is_frozen_and_a_replaced_one_is_a_new_key(self):
        """The pipeline is a value: no field or pass option of the session's
        manager can be assigned, and a manager replaced by another — a new
        time budget, preset name or pass option — is a new planner key, so
        a job planned with it does not reuse the earlier entry."""
        from dataclasses import FrozenInstanceError, replace

        from repro.planner import PassManager

        machine = MachineConfig.for_circuit(6)
        with Session(machine, planner="balanced") as session:
            manager = session.planner
            with pytest.raises(FrozenInstanceError):
                manager.time_budget = 12.5
            with pytest.raises(FrozenInstanceError):
                manager.preset = "renamed"
            name, options = manager.passes[-1]
            with pytest.raises(TypeError):
                options["validate"] = True
            # Nested containers are copied read-only, and freeze as before.
            listed = PassManager([("refine", {"strategies": ["ordered"], "cfg": {"k": [1]}})])
            assert listed.passes[0][1]["strategies"] == ("ordered",)
            with pytest.raises(TypeError):
                listed.passes[0][1]["cfg"]["k"] = ()
            assert listed.signature == PassManager(
                [("refine", {"strategies": ("ordered",), "cfg": {"k": (1,)}})]
            ).signature
            flipped = {**options, "validate": not options.get("validate", False)}
            variants = [
                replace(manager, time_budget=12.5),
                replace(manager, preset="renamed"),
                PassManager([*manager.passes[:-1], (name, flipped)], preset=manager.preset),
            ]
            keys = [session._planner_key(m) for m in (manager, *variants)]
            assert len(set(keys)) == len(keys)
            session.run(qsvm(6))
            built = session.stats.plans_built
            session.run(qsvm(6), planner=variants[0])
            assert session.stats.plans_built == built + 1

    def test_a_warm_stacked_run_walks_no_pipeline(self, monkeypatch):
        """A manager's signature is built with it: once it exists, a warm
        stacked run keys its stack without walking the pipeline again."""
        import repro.planner.pipeline as pipeline

        def walk(config):
            raise AssertionError("the pipeline was walked after construction")

        machine = MachineConfig.for_circuit(6)
        circuits = [vqc(6, seed=seed) for seed in range(4)]
        with Session(machine, backend="incore") as session:
            session.run(circuits[0])
            monkeypatch.setattr(pipeline, "freeze_config", walk)
            results = session.run(circuits[1:]).results()
            assert session.stats.cache_hits == 3 and session.stats.stacked_rows == 3
        for circuit, result in zip(circuits[1:], results):
            assert simulate_reference(circuit).allclose(result.state)
def test_kernel_gather_needs_no_gate_objects():
    """A kernel's gather is built from its lowering and its pool's widths
    alone; a run reads only the gathered matrices."""
    gates = (
        make_gate("h", [0]), make_gate("rz", [0], [0.3]), make_gate("cx", [0, 1]),
        make_gate("ry", [1], [0.2]), make_gate("ry", [1], [0.5]), make_gate("p", [2], [1.1]),
    )
    lowering = kernel_lowering(gates, None)
    gather = KernelGather(lowering, [len(g.qubits) for g in gates])
    program = GatherProgram([(gather, 0)], gather.entries)
    table = GateTable(gates)
    entries = np.concatenate([_row(table, i).reshape(-1) for i in range(len(gates))])
    run = program(entries[:, None])
    (arrays,) = run.arrays_of(0)
    for item, array in zip(lower_kernel_gates(gates, None), arrays, strict=True):
        assert array.tobytes() == _loop_array(item).tobytes()
    assert any(item.dense and len(item.members) > 1 for item in lowering)
