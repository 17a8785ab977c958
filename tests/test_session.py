"""Tests for the Session facade: backends, plan cache, and the job API.

The heart of the file is the parametrized differential suite: every
registered backend must agree with :func:`simulate_reference` on staged
plans (built by the Session's own pipeline) and on hand-built plans
(full-state gates, non-local controls, relabels — the offload executor's
hard cases), and the ``"auto"`` rule must pick the documented backend for
in-core vs. oversized states.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import Circuit, MachineConfig, Session, simulate, simulate_reference
from repro.circuits.library import qft, vqc
from repro.core import KernelizeConfig, partition
from repro.core.plan import ExecutionPlan, QubitPartition, Stage
from repro.planner import legacy_pipeline
from repro.session import (
    BACKENDS,
    PlanCache,
    available_backends,
    make_backend,
    normalize_observable,
    plan_cache_key,
    rebind_plan,
    select_auto_backend,
)
from repro.sim import StateVector

FAST_CONFIG = KernelizeConfig(pruning_threshold=8)

#: Backends that functionally execute through the Atlas pipeline's plans.
PIPELINE_BACKENDS = ["reference", "incore", "offload", "parallel"]
#: Modelled baseline backends (plans from their own partitioners).
BASELINE_BACKENDS = ["hyquas", "cuquantum", "qiskit"]


@pytest.fixture(scope="module")
def sweep_machine() -> MachineConfig:
    return MachineConfig.for_circuit(8, num_shards=4, local_qubits=6)


def _session(machine, **kwargs) -> Session:
    kwargs.setdefault("planner", legacy_pipeline(kernelize_config=FAST_CONFIG))
    return Session(machine, **kwargs)


# ---------------------------------------------------------------------------
# Structural key
# ---------------------------------------------------------------------------


class TestStructuralKey:
    def test_angle_invariant(self):
        assert vqc(8, seed=0).structural_key() == vqc(8, seed=3).structural_key()

    def test_sensitive_to_structure(self):
        a = Circuit(4).h(0).cx(0, 1)
        b = Circuit(4).h(0).cx(1, 0)
        c = Circuit(4).h(0).cz(0, 1)
        keys = {x.structural_key() for x in (a, b, c)}
        assert len(keys) == 3

    def test_special_angles_change_key(self):
        # rx(pi) is anti-diagonal (insular axis); generic rx is mixing.
        generic = Circuit(3).rx(0.3, 0)
        other_generic = Circuit(3).rx(1.1, 0)
        special = Circuit(3).rx(np.pi, 0)
        assert generic.structural_key() == other_generic.structural_key()
        assert generic.structural_key() != special.structural_key()

    def test_qubit_count_matters(self):
        assert Circuit(3).h(0).structural_key() != Circuit(4).h(0).structural_key()

    #: Digests recorded at the commit before the key was reworked (patterns
    #: cached per gate, pre-encoded name/qubit bytes): ``SharedPlanStore``
    #: persists these, so they may never change.  Per library family at 7
    #: qubits the template's key; ``GOLDEN_ALL`` is the blake2b of, per
    #: family in name order, the keys of the template, of every angle set
    #: to generic / 0 / pi/2 / pi / 2 pi / 1e-13, and the canonical key of
    #: the qubit-reversed template.
    GOLDEN_TEMPLATES = {
        "ae": "fd3b77d9bcc4440f31b146c503210f8c",
        "dj": "d26f0e68a2e7347ad70594a390da90e5",
        "ghz": "666e1148b2e0dd128a212b629c6e11ec",
        "graphstate": "d427ef03287de96fcfa9a06fcbea525f",
        "hhl": "5e302062f66ceee89d0574ef9d349a11",
        "ising": "e15e117764c96d77847936749ed4b9cd",
        "qft": "28c4a0ea58eb09060a758b92a5e2941b",
        "qpeexact": "0d0bb967c42a818f45c1d06a6e3c8f42",
        "qsvm": "b4fe781de87f9737604895fef72d4848",
        "su2random": "1603b4cb0fc085e5a7faf1f212c59373",
        "vqc": "cf5fdce16b38b3e175867bc410ce9804",
        "wstate": "27ff0e292e3440e2ba46f34452084a75",
    }
    GOLDEN_ALL = "9fa31438ef799cc2668a0eae6e3281d7"

    def test_digests_are_byte_identical_to_the_recorded_ones(self):
        import hashlib

        from repro.circuits import make_gate
        from repro.circuits.library import CIRCUIT_FAMILIES

        assert sorted(CIRCUIT_FAMILIES) == sorted(self.GOLDEN_TEMPLATES)
        angles = [None, 0.3, 0.0, np.pi / 2, np.pi, 2 * np.pi, 1e-13]
        keys = []
        for family in sorted(CIRCUIT_FAMILIES):
            template = CIRCUIT_FAMILIES[family](7)
            assert template.structural_key() == self.GOLDEN_TEMPLATES[family], family
            for angle in angles:
                circuit = template if angle is None else Circuit(7, [
                    make_gate(g.name, g.qubits, [angle] * len(g.params))
                    for g in template.gates
                ])
                keys.append(circuit.structural_key())
                # Hashing again reads the per-gate pattern cache.
                assert circuit.structural_key() == keys[-1]
            reverse = {q: 6 - q for q in range(7)}
            keys.append(template.remap_qubits(reverse).canonical_structural_key()[0])
        digest = hashlib.blake2b("".join(keys).encode(), digest_size=16).hexdigest()
        assert digest == self.GOLDEN_ALL, keys

    def test_tolerance_and_exact_patterns_are_kept_apart(self):
        """The key's ``> 1e-12`` pattern and the rebind guard's exact one
        come from one per-gate cache and must not be confused: rx(1e-13)
        keys like rx(0) but carries rx's own exact signature."""
        from repro.circuits import make_gate

        tiny, zero, generic = (make_gate("rx", [0], [t]) for t in (1e-13, 0.0, 0.3))
        assert tiny.pattern()[0] == zero.pattern()[0] != generic.pattern()[0]
        assert tiny.pattern()[1] == generic.pattern()[1] != zero.pattern()[1]
        assert make_gate("h", [0]).pattern() == (b"", b"")


# ---------------------------------------------------------------------------
# Plan cache + rebind
# ---------------------------------------------------------------------------


class TestPlanCache:
    def test_lru_eviction_and_stats(self, sweep_machine):
        cache = PlanCache(maxsize=2)
        plans = {}
        for i, circuit in enumerate([qft(8), vqc(8, seed=0), Circuit(8).h(0)]):
            key = plan_cache_key(circuit, sweep_machine, ("p", i))
            plan, _ = partition(circuit, sweep_machine, kernelize_config=FAST_CONFIG)
            cache.put(key, plan)
            plans[i] = key
        assert len(cache) == 2
        assert cache.get(plans[0]) is None  # evicted
        assert cache.get(plans[2]) is not None
        assert cache.stats.evictions == 1
        assert cache.stats.hits == 1 and cache.stats.misses == 1

    def test_rebind_uses_new_angles(self, sweep_machine):
        base, other = vqc(8, seed=0), vqc(8, seed=1)
        plan, _ = partition(base, sweep_machine, kernelize_config=FAST_CONFIG)
        rebound = rebind_plan(plan, other)
        # Same structure...
        assert rebound.num_stages == plan.num_stages
        assert [s.gate_indices for s in rebound.stages] == [
            s.gate_indices for s in plan.stages
        ]
        # ...but the new circuit's gates, and the new circuit's result.
        from repro.runtime import execute_plan

        out, _ = execute_plan(rebound, machine=sweep_machine)
        assert simulate_reference(other).allclose(out)
        assert not simulate_reference(base).allclose(out)

    def test_rebind_rejects_mismatched_circuit(self, sweep_machine):
        plan, _ = partition(qft(8), sweep_machine, kernelize_config=FAST_CONFIG)
        with pytest.raises(ValueError):
            rebind_plan(plan, qft(8).compose(qft(8).inverse()))


# ---------------------------------------------------------------------------
# Backend differential suite
# ---------------------------------------------------------------------------


def _hand_built_plan(num_qubits: int = 6, local: int = 4) -> tuple[ExecutionPlan, Circuit]:
    """A plan the planner would never emit: full-state mixing gates on
    non-local qubits, non-local controls, anti-diagonal relabels."""
    circuit = Circuit(num_qubits)
    circuit.h(0).h(5).cx(5, 1).x(4).cp(0.7, 4, 2).rz(0.3, 5).cx(1, 3).h(2)
    partition_ = QubitPartition.from_sets(
        local=range(local), regional=range(local, num_qubits), global_=[]
    )
    stage = Stage(
        gates=list(circuit.gates),
        partition=partition_,
        kernels=None,
        gate_indices=list(range(len(circuit))),
    )
    return ExecutionPlan(num_qubits=num_qubits, stages=[stage]), circuit


@pytest.mark.parametrize("backend_name", PIPELINE_BACKENDS + BASELINE_BACKENDS)
class TestBackendEquivalence:
    def test_staged_plan_matches_reference(self, backend_name, sweep_machine):
        circuit = qft(8)
        with _session(sweep_machine, backend=backend_name) as session:
            result = session.run(circuit).result()
        assert result.backend == backend_name
        assert simulate_reference(circuit).allclose(result.state)

    def test_staged_plan_with_initial_state(self, backend_name, sweep_machine):
        circuit = vqc(8, seed=2)
        init = StateVector.random_state(8, seed=5)
        with _session(sweep_machine, backend=backend_name) as session:
            result = session.run(circuit, initial_state=init).result()
        assert simulate_reference(circuit, init).allclose(result.state)

    def test_hand_built_plan_matches_reference(self, backend_name):
        if backend_name == "incore" or backend_name in BASELINE_BACKENDS:
            pytest.skip(
                "hand-built plans violate the staging invariant on purpose; "
                "they target the shard executors (see TestHandBuiltPlans)"
            )
        plan, circuit = _hand_built_plan()
        machine = MachineConfig.for_circuit(6, num_shards=4, local_qubits=4)
        backend = make_backend(backend_name)
        try:
            state, _ = backend.run_plan(plan, machine, circuit=circuit)
            assert simulate_reference(circuit).allclose(state)
        finally:
            backend.close()


class TestHandBuiltPlans:
    """Shard executors on hand-built plans, including bit-exactness."""

    @pytest.mark.parametrize("backend_name", ["reference", "offload", "parallel"])
    def test_matches_reference(self, backend_name):
        plan, circuit = _hand_built_plan()
        machine = MachineConfig.for_circuit(6, num_shards=4, local_qubits=4)
        backend = make_backend(backend_name)
        try:
            init = StateVector.random_state(6, seed=9)
            state, _ = backend.run_plan(plan, machine, initial_state=init, circuit=circuit)
            assert simulate_reference(circuit, init).allclose(state)
        finally:
            backend.close()

    def test_offload_parallel_bit_exact(self):
        plan, _circuit = _hand_built_plan()
        machine = MachineConfig.for_circuit(6, num_shards=4, local_qubits=4)
        offload = make_backend("offload")
        parallel = make_backend("parallel")
        try:
            a, _ = offload.run_plan(plan, machine)
            b, _ = parallel.run_plan(plan, machine)
            assert np.array_equal(a.data, b.data)
        finally:
            offload.close()
            parallel.close()

    def test_incore_offload_parallel_bit_exact_on_staged_plan(self, sweep_machine):
        circuit = qft(8)
        plan, _ = partition(circuit, sweep_machine, kernelize_config=FAST_CONFIG)
        states = {}
        for name in ("incore", "offload", "parallel"):
            backend = make_backend(name)
            try:
                state, _ = backend.run_plan(plan, sweep_machine)
                states[name] = state.data.copy()
            finally:
                backend.close()
        assert np.array_equal(states["offload"], states["parallel"])


# ---------------------------------------------------------------------------
# Auto selection
# ---------------------------------------------------------------------------


class TestAutoSelection:
    def test_in_core_state_picks_incore(self, sweep_machine):
        assert sweep_machine.fits_in_gpus(8)
        assert select_auto_backend(sweep_machine, 8) == "incore"
        with _session(sweep_machine) as session:
            result = session.run(qft(8)).result()
        assert result.backend == "incore"

    def test_oversized_state_picks_parallel(self):
        machine = MachineConfig.for_circuit(
            8, num_shards=1, local_qubits=6, gpu_memory_bytes=(1 << 6) * 16
        )
        assert machine.requires_offload(8)
        assert select_auto_backend(machine, 8) == "parallel"
        with _session(machine) as session:
            result = session.run(qft(8)).result()
        assert result.backend == "parallel"
        assert simulate_reference(qft(8)).allclose(result.state)

    def test_explicit_backend_overrides_auto(self, sweep_machine):
        with _session(sweep_machine) as session:
            result = session.run(qft(8), backend="offload").result()
        assert result.backend == "offload"

    def test_unknown_backend_rejected(self, sweep_machine):
        with _session(sweep_machine) as session:
            with pytest.raises(ValueError, match="unknown backend"):
                session.run(qft(8), backend="gpu9000")
        with pytest.raises(ValueError, match="unknown backend"):
            Session(sweep_machine, backend="gpu9000")

    def test_registry_contents(self):
        names = available_backends()
        for expected in PIPELINE_BACKENDS + BASELINE_BACKENDS:
            assert expected in names
        assert "auto" not in BACKENDS


# ---------------------------------------------------------------------------
# The job API: sweeps, shots, observables
# ---------------------------------------------------------------------------


class TestSessionJobs:
    def test_sweep_partitions_once(self, sweep_machine):
        sweep = [vqc(8, seed=s) for s in range(6)]
        with _session(sweep_machine, backend="incore") as session:
            job = session.run(sweep)
            assert session.stats.plans_built == 1
            assert session.stats.cache_hits == len(sweep) - 1
            assert job.cache_hits == len(sweep) - 1
        for circuit, result in zip(sweep, job):
            assert simulate_reference(circuit).allclose(result.state)

    def test_sweep_through_parallel_backend_shares_schedule(self):
        machine = MachineConfig.for_circuit(8, num_shards=4, local_qubits=6)
        sweep = [vqc(8, seed=s) for s in range(4)]
        with _session(machine, backend="parallel") as session:
            job = session.run(sweep)
            assert session.stats.schedule_cache_misses == 1
            assert session.stats.schedule_cache_hits == len(sweep) - 1
        for circuit, result in zip(sweep, job):
            assert simulate_reference(circuit).allclose(result.state)

    def test_sweep_through_offload_backend_shares_schedule(self):
        """The sequential executor had no cache at all; its schedule is the
        same plan-cache object the parallel backend's is."""
        machine = MachineConfig.for_circuit(8, num_shards=4, local_qubits=6)
        sweep = [vqc(8, seed=s) for s in range(4)]
        with _session(machine, backend="offload") as session:
            job = session.run(sweep)
            assert session.stats.schedule_cache_misses == 1
            assert session.stats.schedule_cache_hits == len(sweep) - 1
            with _session(machine, backend="parallel") as twin:
                assert np.array_equal(
                    twin.run(sweep[-1]).result().state.data, job.results()[-1].state.data
                )
            # ... and parallel jobs of this session rebind the very same one.
            session.run(sweep[0], backend="parallel")
            assert session.stats.schedule_cache_misses == 1
            assert session.stats.schedule_cache_hits == len(sweep)
        for circuit, result in zip(sweep, job):
            assert simulate_reference(circuit).allclose(result.state)

    def test_one_circuit_many_initial_states(self, sweep_machine):
        circuit = qft(8)
        inits = [StateVector.random_state(8, seed=s) for s in range(3)]
        with _session(sweep_machine) as session:
            job = session.run(circuit, initial_states=inits)
            assert session.stats.plans_built == 1
        assert len(job) == 3
        for init, result in zip(inits, job):
            assert simulate_reference(circuit, init).allclose(result.state)

    def test_shots_independent_but_seedable(self, sweep_machine):
        circuit = qft(8)

        def two_draws(seed):
            with _session(sweep_machine, seed=seed) as session:
                first = session.run(circuit, shots=64).result().samples
                second = session.run(circuit, shots=64).result().samples
            return first, second

        a1, a2 = two_draws(seed=7)
        b1, b2 = two_draws(seed=7)
        # Same session seed: reproducible across sessions...
        assert np.array_equal(a1, b1) and np.array_equal(a2, b2)
        # ...but independent across calls within a session.
        assert not np.array_equal(a1, a2)

    def test_run_seed_override(self, sweep_machine):
        circuit = qft(8)
        with _session(sweep_machine) as session:
            x = session.run(circuit, shots=32, seed=11).result().samples
            y = session.run(circuit, shots=32, seed=11).result().samples
        assert np.array_equal(x, y)

    def test_observables(self, sweep_machine):
        circuit = vqc(8, seed=4)
        reference = simulate_reference(circuit)
        with _session(sweep_machine) as session:
            result = session.run(circuit, observables=[0, (1, 2), "z0*z3"]).result()
        assert result.expectation(0) == pytest.approx(reference.expectation_z(0))
        assert result.expectation((1, 2)) == pytest.approx(
            reference.expectation_z_product([1, 2])
        )
        assert result.expectation("z0*z3") == pytest.approx(
            reference.expectation_z_product([0, 3])
        )
        with pytest.raises(KeyError):
            result.expectation(5)

    def test_execute_false_returns_plan_and_timing_only(self, sweep_machine):
        with _session(sweep_machine) as session:
            result = session.run(qft(8), execute=False).modelled()
        assert result.state is None and result.samples is None
        assert result.timing.total_seconds > 0
        assert result.plan.num_stages >= 1

    def test_counts_and_summary(self, sweep_machine):
        with _session(sweep_machine) as session:
            job = session.run(qft(8), shots=16)
        result = job.result()
        assert sum(result.counts().values()) == 16
        assert job.summary()["num_circuits"] == 1
        assert result.summary()["circuit"] == "qft_8"

    def test_validation_errors(self, sweep_machine):
        with _session(sweep_machine) as session:
            with pytest.raises(ValueError, match="no circuits"):
                session.run([])
            with pytest.raises(ValueError, match="not both"):
                session.run(
                    qft(8),
                    initial_state=StateVector.zero_state(8),
                    initial_states=[StateVector.zero_state(8)],
                )
            with pytest.raises(ValueError):
                session.run(qft(9))  # machine mismatch
        with pytest.raises(ValueError, match="no machine"):
            Session().run(qft(8))

    def test_closed_session_rejects_runs(self, sweep_machine):
        session = _session(sweep_machine)
        session.close()
        with pytest.raises(RuntimeError):
            session.run(qft(8))

    def test_normalize_observable_rejects_garbage(self):
        with pytest.raises(ValueError):
            normalize_observable("x3")
        with pytest.raises(ValueError):
            normalize_observable(object())

    def test_normalize_observable_canonicalises(self):
        # Sorted, and Z_q Z_q = I cancels pairwise.
        assert normalize_observable((1, 0)) == (0, 1)
        assert normalize_observable("z1*z0") == (0, 1)
        assert normalize_observable((0, 0)) == ()
        assert normalize_observable((2, 0, 2, 2)) == (0, 2)

    def test_shots_with_execute_false_rejected(self, sweep_machine):
        with _session(sweep_machine) as session:
            with pytest.raises(ValueError, match="functional execution"):
                session.run(qft(8), shots=16, execute=False)
            with pytest.raises(ValueError, match="functional execution"):
                session.run(qft(8), observables=[0], execute=False)


# ---------------------------------------------------------------------------
# simulate() shim
# ---------------------------------------------------------------------------


class TestSimulateShim:
    def test_matches_reference_and_keeps_fields(self, sweep_machine):
        circuit = qft(8)
        result = simulate(circuit, sweep_machine, kernelize_config=FAST_CONFIG)
        assert simulate_reference(circuit).allclose(result.state)
        assert result.plan.num_stages >= 1
        assert result.report is not None
        assert result.timing.total_seconds > 0

    def test_execute_false(self, sweep_machine):
        result = simulate(
            qft(8), sweep_machine, kernelize_config=FAST_CONFIG, execute=False
        )
        assert result.state is None


# ---------------------------------------------------------------------------
# StateVector sampling with a shared generator
# ---------------------------------------------------------------------------


class TestSampleGenerator:
    def test_generator_advances(self):
        state = simulate_reference(qft(6))
        rng = np.random.default_rng(3)
        a = state.sample(100, rng)
        b = state.sample(100, rng)
        assert not np.array_equal(a, b)
        rng2 = np.random.default_rng(3)
        assert np.array_equal(a, state.sample(100, rng2))

    def test_int_seed_still_deterministic(self):
        state = simulate_reference(qft(6))
        assert np.array_equal(state.sample(50, 4), state.sample(50, 4))

    def test_expectation_z_product_identity_and_single(self):
        state = simulate_reference(vqc(6, seed=0))
        assert state.expectation_z_product([]) == 1.0
        assert state.expectation_z_product([2]) == pytest.approx(
            state.expectation_z(2)
        )
        # Z_q Z_q = I: duplicate qubits cancel pairwise.
        assert state.expectation_z_product([2, 2]) == 1.0
        assert state.expectation_z_product([1, 2, 2]) == pytest.approx(
            state.expectation_z(1)
        )
        with pytest.raises(ValueError):
            state.expectation_z_product([9])


# ---------------------------------------------------------------------------
# Plan acquisition: every way a Session reaches a plan, counted
# ---------------------------------------------------------------------------


def _counted(stats: dict) -> dict:
    """``SessionStats.as_dict()`` with wall-clock values reduced to "did it
    take time" and zero/empty entries dropped (the key set is fixed, so
    comparing these compares the full dicts)."""
    out = {}
    for key, value in stats.items():
        if key.endswith("_seconds"):
            value = sorted(value) if isinstance(value, dict) else value > 0
        if value:
            out[key] = value
    return out


#: Recorded at commit 41238a0 (the parent of the one-flow ``plan_for``) by
#: running ``TestPlanAcquisitionMatrix.walk``; see ``_counted`` for the form.
#: ``program_ops_rebound`` / ``program_ops_reused`` count kernels since a
#: shared-memory kernel is one op (7 and 1 a rebind; 11 and 4 while they
#: counted its items — the unit changed, not which gates are refilled).
#: ``'local-hit-no-program'`` (and ``'corrupt-local'`` after it, same
#: session) of the clean in-core walk were re-pinned when a local hit on an
#: entry without a program started compiling the job's own plan once
#: (``programs_compiled`` +1) instead of compiling the entry's plan and then
#: rebinding that to the job's (+1 and ``programs_rebound`` +1,
#: ``program_ops_reused`` +2): the count changed, not the result — the state
#: is still ``np.array_equal`` to the solo run's.
ACQUISITION_GOLDENS = {
    ('incore', False): {
        'cold': dict(backend_runs={'incore': 1}, cache_misses=1, circuits_run=1,
            execute_seconds=True, fusion_cache_misses=5, jobs=1, plan_seconds=True,
            planning_pass_seconds=['analyze', 'finalize', 'kernelize', 'stage'],
            plans_built=1, programs_compiled=1, shared_cache_misses=1),
        'local-hit': dict(backend_runs={'incore': 2}, cache_hit_rate=0.5, cache_hits=1,
            cache_misses=1, circuits_run=2, execute_seconds=True, fusion_cache_misses=5,
            jobs=2, plan_seconds=True, planning_pass_seconds=['analyze', 'finalize',
            'kernelize', 'stage'], plans_built=1, program_ops_rebound=7,
            program_ops_reused=1, program_rebind_seconds=True, programs_compiled=1,
            programs_rebound=1, shared_cache_misses=1),
        'plan-only': dict(backend_runs={'incore': 2}, cache_hit_rate=0.3333333333333333,
            cache_hits=1, cache_misses=2, circuits_run=3, execute_seconds=True,
            fusion_cache_misses=5, jobs=3, plan_seconds=True,
            planning_pass_seconds=['analyze', 'finalize', 'kernelize', 'stage'],
            plans_built=2, program_ops_rebound=7, program_ops_reused=1,
            program_rebind_seconds=True, programs_compiled=1, programs_rebound=1,
            shared_cache_misses=2),
        'local-hit-no-program': dict(backend_runs={'incore': 3}, cache_hit_rate=0.5,
            cache_hits=2, cache_misses=2, circuits_run=4, execute_seconds=True,
            fusion_cache_misses=6, jobs=4, plan_seconds=True,
            planning_pass_seconds=['analyze', 'finalize', 'kernelize', 'stage'],
            plans_built=2, program_ops_rebound=7, program_ops_reused=1,
            program_rebind_seconds=True, programs_compiled=2, programs_rebound=1,
            shared_cache_misses=2),
        'shared-hit': dict(backend_runs={'incore': 1}, cache_misses=1, circuits_run=1,
            execute_seconds=True, fusion_cache_misses=11, jobs=1, programs_compiled=1,
            shared_cache_hits=1),
        'relabelled-shared-hit': dict(backend_runs={'incore': 2}, cache_misses=2,
            circuits_run=2, execute_seconds=True, fusion_cache_misses=16, jobs=2,
            programs_compiled=2, shared_cache_hits=2),
        'corrupt-local': dict(backend_runs={'incore': 4}, cache_corruptions=1,
            cache_hit_rate=0.4, cache_hits=2, cache_misses=3, circuits_run=5,
            execute_seconds=True, fallbacks=1, fusion_cache_misses=21, jobs=5,
            plan_seconds=True, planning_pass_seconds=['analyze', 'finalize',
            'kernelize', 'stage'], plans_built=2, program_ops_rebound=7,
            program_ops_reused=1, program_rebind_seconds=True, programs_compiled=3,
            programs_rebound=1, shared_cache_hits=1, shared_cache_misses=2),
        'corrupt-shared': dict(backend_runs={'incore': 3}, cache_corruptions=1,
            cache_misses=3, circuits_run=3, execute_seconds=True, fallbacks=1,
            fusion_cache_hits=1, fusion_cache_misses=21, jobs=3, plan_seconds=True,
            planning_pass_seconds=['analyze', 'finalize', 'kernelize', 'stage'],
            plans_built=1, programs_compiled=3, shared_cache_hits=2,
            shared_cache_misses=1),
    },
    ('incore', True): {
        'cold': dict(backend_runs={'incore': 1}, cache_misses=1, circuits_run=1,
            execute_seconds=True, fallbacks=1, faults_injected=1, fusion_cache_misses=5,
            jobs=1, plan_seconds=True, planning_pass_seconds=['analyze', 'finalize',
            'kernelize', 'stage'], plans_built=1, shared_cache_misses=1),
        'local-hit': dict(backend_runs={'incore': 2}, cache_hit_rate=0.5, cache_hits=1,
            cache_misses=1, circuits_run=2, execute_seconds=True, fallbacks=2,
            faults_injected=1, fusion_cache_misses=10, jobs=2, plan_seconds=True,
            planning_pass_seconds=['analyze', 'finalize', 'kernelize', 'stage'],
            plans_built=1, shared_cache_misses=1),
        'plan-only': dict(backend_runs={'incore': 2}, cache_hit_rate=0.3333333333333333,
            cache_hits=1, cache_misses=2, circuits_run=3, execute_seconds=True,
            fallbacks=2, fusion_cache_misses=10, jobs=3, plan_seconds=True,
            planning_pass_seconds=['analyze', 'finalize', 'kernelize', 'stage'],
            plans_built=2, shared_cache_misses=2),
        'local-hit-no-program': dict(backend_runs={'incore': 3}, cache_hit_rate=0.5,
            cache_hits=2, cache_misses=2, circuits_run=4, execute_seconds=True,
            fallbacks=3, faults_injected=1, fusion_cache_misses=11, jobs=4,
            plan_seconds=True, planning_pass_seconds=['analyze', 'finalize',
            'kernelize', 'stage'], plans_built=2, shared_cache_misses=2),
        'shared-hit': dict(backend_runs={'incore': 1}, cache_misses=1, circuits_run=1,
            execute_seconds=True, fallbacks=1, faults_injected=1,
            fusion_cache_misses=16, jobs=1, shared_cache_hits=1),
        'relabelled-shared-hit': dict(backend_runs={'incore': 2}, cache_misses=2,
            circuits_run=2, execute_seconds=True, fallbacks=2, faults_injected=1,
            fusion_cache_misses=21, jobs=2, shared_cache_hits=2),
        'corrupt-local': dict(backend_runs={'incore': 4}, cache_corruptions=1,
            cache_hit_rate=0.4, cache_hits=2, cache_misses=3, circuits_run=5,
            execute_seconds=True, fallbacks=5, faults_injected=1,
            fusion_cache_misses=26, jobs=5, plan_seconds=True,
            planning_pass_seconds=['analyze', 'finalize', 'kernelize', 'stage'],
            plans_built=2, shared_cache_hits=1, shared_cache_misses=2),
        'corrupt-shared': dict(backend_runs={'incore': 3}, cache_corruptions=1,
            cache_misses=3, circuits_run=3, execute_seconds=True, fallbacks=4,
            faults_injected=1, fusion_cache_hits=1, fusion_cache_misses=26, jobs=3,
            plan_seconds=True, planning_pass_seconds=['analyze', 'finalize',
            'kernelize', 'stage'], plans_built=1, shared_cache_hits=2,
            shared_cache_misses=1),
    },
    ('offload', False): {
        'cold': dict(backend_runs={'offload': 1}, cache_misses=1,
            circuits_run=1, execute_seconds=True, fusion_cache_misses=5, jobs=1,
            plan_seconds=True, planning_pass_seconds=['analyze', 'finalize',
            'kernelize', 'stage'], plans_built=1, schedule_cache_misses=1,
            shared_cache_misses=1),
        'local-hit': dict(backend_runs={'offload': 2}, cache_hit_rate=0.5,
            cache_hits=1, cache_misses=1, circuits_run=2, execute_seconds=True,
            fusion_cache_misses=5, jobs=2, plan_seconds=True,
            planning_pass_seconds=['analyze', 'finalize', 'kernelize', 'stage'],
            plans_built=1, schedule_cache_hits=1, schedule_cache_misses=1,
            shared_cache_misses=1),
        'plan-only': dict(backend_runs={'offload': 2},
            cache_hit_rate=0.3333333333333333, cache_hits=1, cache_misses=2,
            circuits_run=3, execute_seconds=True, fusion_cache_misses=5, jobs=3,
            plan_seconds=True, planning_pass_seconds=['analyze', 'finalize',
            'kernelize', 'stage'], plans_built=2, schedule_cache_hits=1,
            schedule_cache_misses=1, shared_cache_misses=2),
        'local-hit-no-program': dict(backend_runs={'offload': 3},
            cache_hit_rate=0.5, cache_hits=2, cache_misses=2, circuits_run=4,
            execute_seconds=True, fusion_cache_misses=6, jobs=4, plan_seconds=True,
            planning_pass_seconds=['analyze', 'finalize', 'kernelize', 'stage'],
            plans_built=2, schedule_cache_hits=1, schedule_cache_misses=2,
            shared_cache_misses=2),
        'shared-hit': dict(backend_runs={'offload': 1}, cache_misses=1,
            circuits_run=1, execute_seconds=True, fusion_cache_misses=11, jobs=1,
            schedule_cache_misses=1, shared_cache_hits=1),
        'relabelled-shared-hit': dict(backend_runs={'offload': 2},
            cache_misses=2, circuits_run=2, execute_seconds=True,
            fusion_cache_misses=16, jobs=2, schedule_cache_misses=2,
            shared_cache_hits=2),
        'corrupt-local': dict(backend_runs={'offload': 4}, cache_corruptions=1,
            cache_hit_rate=0.4, cache_hits=2, cache_misses=3, circuits_run=5,
            execute_seconds=True, fallbacks=1, fusion_cache_misses=21, jobs=5,
            plan_seconds=True, planning_pass_seconds=['analyze', 'finalize',
            'kernelize', 'stage'], plans_built=2, schedule_cache_hits=1,
            schedule_cache_misses=3, shared_cache_hits=1, shared_cache_misses=2),
        'corrupt-shared': dict(backend_runs={'offload': 3}, cache_corruptions=1,
            cache_misses=3, circuits_run=3, execute_seconds=True, fallbacks=1,
            fusion_cache_hits=1, fusion_cache_misses=21, jobs=3, plan_seconds=True,
            planning_pass_seconds=['analyze', 'finalize', 'kernelize', 'stage'],
            plans_built=1, schedule_cache_misses=3, shared_cache_hits=2,
            shared_cache_misses=1),
    },
    ('offload', True): {
        'cold': dict(backend_runs={'offload': 1}, cache_misses=1,
            circuits_run=1, execute_seconds=True, fallbacks=1, faults_injected=1,
            fusion_cache_hits=3, fusion_cache_misses=5, jobs=1, plan_seconds=True,
            planning_pass_seconds=['analyze', 'finalize', 'kernelize', 'stage'],
            plans_built=1, schedule_cache_misses=1, shared_cache_misses=1),
        'local-hit': dict(backend_runs={'offload': 2}, cache_hit_rate=0.5,
            cache_hits=1, cache_misses=1, circuits_run=2, execute_seconds=True,
            fallbacks=2, faults_injected=1, fusion_cache_hits=6, fusion_cache_misses=10,
            jobs=2, plan_seconds=True, planning_pass_seconds=['analyze', 'finalize',
            'kernelize', 'stage'], plans_built=1, schedule_cache_misses=2,
            shared_cache_misses=1),
        'plan-only': dict(backend_runs={'offload': 2},
            cache_hit_rate=0.3333333333333333, cache_hits=1, cache_misses=2,
            circuits_run=3, execute_seconds=True, fallbacks=2, fusion_cache_hits=6,
            fusion_cache_misses=10, jobs=3, plan_seconds=True,
            planning_pass_seconds=['analyze', 'finalize', 'kernelize', 'stage'],
            plans_built=2, schedule_cache_misses=2, shared_cache_misses=2),
        'local-hit-no-program': dict(backend_runs={'offload': 3},
            cache_hit_rate=0.5, cache_hits=2, cache_misses=2, circuits_run=4,
            execute_seconds=True, fallbacks=3, faults_injected=1, fusion_cache_hits=6,
            fusion_cache_misses=11, jobs=4, plan_seconds=True,
            planning_pass_seconds=['analyze', 'finalize', 'kernelize', 'stage'],
            plans_built=2, schedule_cache_misses=3, shared_cache_misses=2),
        'shared-hit': dict(backend_runs={'offload': 1}, cache_misses=1,
            circuits_run=1, execute_seconds=True, fallbacks=1, faults_injected=1,
            fusion_cache_hits=9, fusion_cache_misses=16, jobs=1,
            schedule_cache_misses=1, shared_cache_hits=1),
        'relabelled-shared-hit': dict(backend_runs={'offload': 2},
            cache_misses=2, circuits_run=2, execute_seconds=True, fallbacks=2,
            faults_injected=1, fusion_cache_hits=12, fusion_cache_misses=21, jobs=2,
            schedule_cache_misses=2, shared_cache_hits=2),
        'corrupt-local': dict(backend_runs={'offload': 4}, cache_corruptions=1,
            cache_hit_rate=0.4, cache_hits=2, cache_misses=3, circuits_run=5,
            execute_seconds=True, fallbacks=5, faults_injected=1, fusion_cache_hits=15,
            fusion_cache_misses=26, jobs=5, plan_seconds=True,
            planning_pass_seconds=['analyze', 'finalize', 'kernelize', 'stage'],
            plans_built=2, schedule_cache_misses=4, shared_cache_hits=1,
            shared_cache_misses=2),
        'corrupt-shared': dict(backend_runs={'offload': 3}, cache_corruptions=1,
            cache_misses=3, circuits_run=3, execute_seconds=True, fallbacks=4,
            faults_injected=1, fusion_cache_hits=16, fusion_cache_misses=26, jobs=3,
            plan_seconds=True, planning_pass_seconds=['analyze', 'finalize',
            'kernelize', 'stage'], plans_built=1, schedule_cache_misses=3,
            shared_cache_hits=2, shared_cache_misses=1),
    },
}


class TestPlanAcquisitionMatrix:
    """One scripted walk over every plan-acquisition path — cold build,
    local hit, local hit on an entry stored without a program, shared hit,
    relabelled shared hit, corrupt local entry, corrupt shared entry — per
    backend, clean and with a ``compile`` fault armed on each step.  After
    every step the acting session's full ``SessionStats.as_dict()`` must
    equal the golden recorded at the commit before ``plan_for`` became one
    flow (three copy-pasted branches then), and every state must be
    bit-equal to a fresh single-session run of the same circuit.

    The two ``('offload', ...)`` goldens were re-recorded when the shard
    schedule moved into the plan cache (the ``('incore', ...)`` ones are
    the original recording): ``schedule_cache_hits`` / ``_misses`` now
    count the offload backend's schedule acquisitions (a fault-degraded
    schedule is never kept, so every step of the faulted walk is a miss),
    and a local hit rebinds the cached schedule's fused kernels instead of
    going through the fused-unitary memo, so the clean walk's
    ``fusion_cache_misses`` read what the in-core walk's do.  Every other
    number, the fallback counts included, is what it was.
    """

    N = 8
    STEPS = (
        "cold", "local-hit", "plan-only", "local-hit-no-program",
        "shared-hit", "relabelled-shared-hit", "corrupt-local", "corrupt-shared",
    )

    def walk(self, machine, backend, inject):
        """Run the script; returns ``[(step, counted stats, circuit, state)]``."""
        from repro.runtime import faults
        from repro.runtime.faults import FaultInjector
        from repro.service import SharedPlanStore
        from repro.sim.fusion import configure_fusion_cache

        configure_fusion_cache(clear=True)  # its counters are process-wide
        n = self.N
        reverse = {q: n - 1 - q for q in range(n)}
        store = SharedPlanStore()
        trail = []

        def step(name, session, circuit, **run_kwargs):
            injector = FaultInjector("compile:transient:1") if inject else None
            if injector is not None:
                faults.activate(injector)
            try:
                job = session.run(circuit, **run_kwargs)
            finally:
                faults.deactivate(injector)
            state = None
            if run_kwargs.get("execute", True):
                state = job.result().state.data.copy()
            trail.append((name, _counted(session.stats.as_dict()), circuit, state))

        with Session(machine, backend=backend, planner="fast", shared_cache=store) as a, \
                Session(machine, backend=backend, planner="fast", shared_cache=store) as b:
            step("cold", a, vqc(n, seed=0))
            step("local-hit", a, vqc(n, seed=1))
            step("plan-only", a, qft(n), execute=False)
            step("local-hit-no-program", a, qft(n))
            step("shared-hit", b, vqc(n, seed=2))
            step("relabelled-shared-hit", b, vqc(n, seed=3).remap_qubits(reverse))
            # Bit-rot a's cached vqc plan: the lookup must evict it (and then
            # finds the structure in the shared store).
            entry = next(e for e in a.cache._entries.values() if e[0].circuit_name.startswith("vqc"))
            entry[0].stages[0].gate_indices.append(0)
            step("corrupt-local", a, vqc(n, seed=4))
            # Bit-rot the store's qft skeleton: b must evict it and replan.
            skeleton = next(
                e.skeleton for e in store._entries.values()
                if e.skeleton["circuit_name"].startswith("qft")
            )
            skeleton["num_qubits"] += 1
            step("corrupt-shared", b, qft(n))
        assert tuple(name for name, *_ in trail) == self.STEPS
        return trail

    @pytest.mark.parametrize("inject", [False, True], ids=["clean", "compile-fault"])
    @pytest.mark.parametrize("backend", ["incore", "offload"])
    def test_counts_and_states_match_the_recorded_walk(self, sweep_machine, backend, inject):
        trail = self.walk(sweep_machine, backend, inject)
        golden = ACQUISITION_GOLDENS[backend, inject]
        for name, counted, _circuit, _state in trail:
            assert counted == golden[name], (backend, inject, name)
        with Session(sweep_machine, backend=backend, planner="fast") as solo:
            for name, _counted_stats, circuit, state in trail:
                if state is not None:
                    expected = solo.run(circuit).result().state.data
                    assert np.array_equal(state, expected), (backend, inject, name)


# ---------------------------------------------------------------------------
# Planner degradation: configured pipeline -> "fast" -> the original error
# ---------------------------------------------------------------------------


class _Exploding:
    def __init__(self, message):
        self.message = message

    def run(self, ctx, record):
        raise RuntimeError(self.message)


class TestPlannerDegradation:
    @pytest.fixture()
    def broken(self):
        from repro.planner import PassManager
        from repro.planner.passes import PASSES, register_pass

        register_pass("explode", _Exploding("configured pipeline failed"))
        yield PassManager([("explode", {})], preset="broken")
        del PASSES["explode"]

    def test_failing_pipeline_takes_exactly_one_counted_hop_to_fast(self, sweep_machine, broken):
        with Session(sweep_machine, backend="incore", planner=broken) as session:
            result = session.run(qft(8)).result()
            assert result.report.preset == "fast"
            assert result.recovery == {"fallbacks": 1}
            assert session.stats.fallbacks == 1
        assert simulate_reference(qft(8)).allclose(result.state)

    def test_when_fast_fails_too_the_original_error_propagates(
        self, sweep_machine, broken, monkeypatch
    ):
        from repro.planner.passes import PASSES

        with Session(sweep_machine, backend="incore", planner=broken) as session:
            with monkeypatch.context() as patch:
                patch.setitem(PASSES, "finalize", _Exploding("fast failed too"))
                with pytest.raises(RuntimeError, match="configured pipeline failed"):
                    session.run(qft(8))
            # The hop was taken and counted, once; the session is usable.
            session.run(qft(8))
            assert session.stats.fallbacks == 2

    def test_failing_fast_has_nowhere_to_go_zero_hops(self, sweep_machine, monkeypatch):
        from repro.planner.passes import PASSES

        with Session(sweep_machine, backend="incore", planner="fast") as session:
            with monkeypatch.context() as patch:
                patch.setitem(PASSES, "finalize", _Exploding("fast failed"))
                with pytest.raises(RuntimeError, match="fast failed"):
                    session.run(qft(8))
            session.run(qft(8))
            assert session.stats.fallbacks == 0

    def test_config_errors_never_degrade(self, sweep_machine):
        typo = legacy_pipeline(stager="no-such-stager")
        with Session(sweep_machine, backend="incore", planner=typo) as session:
            with pytest.raises(ValueError, match="unknown stager"):
                session.run(qft(8))
            session.run(qft(8), planner="fast")
            assert session.stats.fallbacks == 0


class TestStatsDicts:
    def test_as_dict_is_every_field_plus_the_derived_ratio(self):
        from dataclasses import fields

        from repro.session import CacheStats, SessionStats

        for stats, ratio in ((SessionStats(), "cache_hit_rate"), (CacheStats(), "hit_rate")):
            assert set(stats.as_dict()) == {f.name for f in fields(stats)} | {ratio}
        stats = SessionStats(cache_hits=3, cache_misses=1, backend_runs={"incore": 2})
        as_dict = stats.as_dict()
        assert as_dict["cache_hit_rate"] == 0.75 and as_dict["cache_hits"] == 3
        as_dict["backend_runs"]["incore"] = 99  # a copy, not the live dict
        assert stats.backend_runs == {"incore": 2}
        assert CacheStats(hits=1, misses=3).as_dict()["hit_rate"] == 0.25
