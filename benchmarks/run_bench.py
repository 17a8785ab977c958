#!/usr/bin/env python
"""Simulation-core benchmark runner — emits/checks ``BENCH_simcore.json``.

Measures the zero-copy gate-application engine against the seed
implementation (dense tensordot apply + ``expand_matrix``-product fusion,
per-gate allocation) that :func:`repro.sim.apply.apply_matrix_reference`
preserves:

* **micro** — gates/sec by gate class (dense 1q, dense 2q, diagonal,
  permutation, controlled, fused 3q), each swept across **every** position
  of a ``2^n`` state, for the engine and for the seed reference, plus the
  class's worst-position / median-position ratio — gated against the
  baseline's at ``--threshold`` for the dense classes (widths 1-3), so a
  planner cliff at one position cannot hide in the class mean; and, for the widths a fused kernel can have
  beyond that sweep (k = 4..8), a run at position 1 through the planner's
  pick and through the stacked matmul it is chosen over (the pick must
  not cost more than 1.25x the alternative);
* **plan** — end-to-end :func:`repro.runtime.execute_plan` wall time on a
  QFT benchmark circuit (the paper's QFT-28 shape at a configurable size)
  versus a faithful re-implementation of the seed executor;
* **allocations** — engine allocation counts for a warm plan execution
  (the O(1)-state-sized-allocations property);
* **offload** — the shard-streaming runtime: sequential
  :func:`repro.runtime.execute_plan_offloaded` versus the parallel
  shard scheduler at 1/2/4 workers (bit-exactness checked), plus the
  ``run_batch`` heavy-traffic scenario versus one-shot execution.  The
  host's ``cpu_count`` is recorded next to the timings: thread-parallel
  speedup is bounded by the cores actually available, so compare parallel
  numbers only across runs on comparable hosts;
* **session** — plan-cache amortisation: a structurally identical VQC
  parameter sweep run cold (one fresh :func:`repro.simulate` per circuit,
  ILP staging + DP kernelization every time) versus warm (one
  :class:`repro.Session` ``run`` over the whole sweep — partitioning runs
  once, every further circuit re-binds the cached plan).  The ``--quick``
  gate requires the cache to prove ``sweep_size - 1`` hits, every warm
  state to match its cold counterpart, and the warm path to be ≥ 5x
  faster end-to-end;
* **plan** — the cold planning path: every library family x machine shape
  (4-shard split and single-shard "fits locally") planned by the seed
  planner (full ILP iteration + reference beam DP, reconstructed as a
  pipeline) and by each preset (``fast`` / ``balanced`` / ``quality``).
  The ``--quick`` gate requires the fast preset's median speedup over the
  seed planner to stay ≥ 2x with per-entry ``total_kernel_cost`` no worse
  than the seed plan, and the preset quality ladder to stay monotone
  (quality ≤ balanced ≤ fast kernel cost);
* **compile** — the compiled-program layer: one plan lowered once to a
  :class:`repro.sim.CompiledProgram` and re-executed many times versus the
  per-gate interpreter (`execute_plan(compiled=False)`), program rebind
  cost, and batched ``(B, 2^n)`` execution versus a B-loop of single-state
  runs.  The ``--quick`` gate requires a compiled program never to be
  slower than the interpreter on the same plan (both bind the same kernel
  ops, so the ratio says what compiling saves in dispatch, whatever the
  kernels cost; a ratio, with the ``--threshold`` slack) nor than the
  committed session baseline's warm per-circuit execution when present,
  batched execution ≥ 1.5x over the
  loop at B=16, and agreement across the incore (compiled vs interpreted,
  bit-exact), batched-vs-looped (tight tolerance — the B-wide gemm fold
  can change BLAS summation order), offload, and parallel (W ∈ {1,2,4},
  bit-exact) paths;
* **rebind** (rides with *compile*) — what a plan-cache hit costs to bind:
  vqc / ising / qsvm at 12 qubits on the service workload's machine, one
  cold ``compile_plan`` and then twenty ``compile_plan(reuse=)`` of freshly
  drawn angles.  Records ``rebind_seconds`` (best of the twenty),
  ``rebind_ops_reused`` / ``rebind_ops_rebound`` and ``rebind_fallbacks``
  beside the cold ``compile_seconds`` and ``compiled_seconds_per_run``.
  The ``--quick`` gate requires ``rebind_fallbacks == 0`` exactly, a rebind
  to stay under one cold compile plus two runs, and ``rebind_seconds`` not
  to exceed the committed baseline's by more than ``--threshold``;
* **kernel_lowering** — shared-memory kernels as one op each:
  qft / ising / su2random planned in-core, their compiled op stream
  (one kernel op per shared-memory kernel, applying the items of
  :func:`repro.sim.fusion.lower_kernel_gates`) against a per-gate
  reference stream built here — one op per gate of every shared-memory
  kernel, what the compiler emitted before the lowering.  Reports gates,
  ops emitted and the exact fold (gates per op as a count pair), and the
  lowered-vs-per-gate seconds.  The ``--quick`` gate requires the fold
  counts to equal the committed baseline's **exactly** (they are a
  property of plan and lowering, not of the host) and the speedup not to
  fall behind the baseline's by more than ``--threshold``;
* **sm_kernel** — the two bodies of the kernel op, per shared-memory kernel
  of qft / ising / su2random (16 qubits with ``--quick``; 16, 17 and 20 in
  the full run): its item count and what one application costs in state
  copies through the native body (one pass over the state) and through the
  item loop (a sweep per item).  The ``--quick`` gate is a ratio within the
  run: on every kernel of three or more items the native body is at least
  as fast as the item loop.  Skipped — recorded as unavailable, with the
  reason — where :func:`repro.sim.native.status` says the library could
  not be built.

Usage::

    PYTHONPATH=src python benchmarks/run_bench.py                 # full run, writes BENCH_simcore.json
    PYTHONPATH=src python benchmarks/run_bench.py --quick         # small sizes + regression check
    PYTHONPATH=src python benchmarks/run_bench.py --quick --write # refresh baseline at quick scale

``--quick`` compares against the committed baseline and exits non-zero if
any metric regressed by more than ``--threshold`` (default 2×).  The same
check runs under ``pytest -m bench`` (see ``test_simcore_micro.py``).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
try:  # allow "python benchmarks/run_bench.py" without PYTHONPATH
    import repro  # noqa: F401
except ImportError:  # pragma: no cover
    sys.path.insert(0, str(REPO_ROOT / "src"))

import numpy as np

from repro import Session, simulate
from repro.circuits import Circuit, make_gate
from repro.circuits.library import ghz, graphstate, ising, qft, qsvm, su2random, vqc, wstate
from repro.core.kernel import KernelType
from repro.planner import PassManager, legacy_pipeline, resolve_planner
from repro.cluster import MachineConfig
from repro.core import KernelizeConfig, partition
from repro.runtime import (
    ParallelRuntime,
    compile_plan,
    execute_plan,
    execute_plan_offloaded,
    execute_plan_parallel,
    model_simulation_time,
)
from repro.session.cache import rebind_plan
from repro.runtime.sharding import QubitLayout, permute_state
from repro.sim import StateVector, apply_matrix_reference, expand_matrix, kernel_qubits
from repro.sim import apply as apply_mod
from repro.sim import native
from repro.sim.fusion import kernel_items, lower_kernel_gates
from repro.sim.program import Workspace, compile_unitary_op
from repro.sim.apply import apply_gate_buffered, apply_matrix, kernel_template
from repro.circuits.gates import gate_matrix

DEFAULT_BASELINE = REPO_ROOT / "BENCH_simcore.json"

#: Gate classes of the micro benchmark: name -> (matrix factory, #qubits).
GATE_CLASSES = {
    "dense_1q": (lambda: gate_matrix("h"), 1),
    "dense_2q": (lambda: _random_unitary(4, seed=7), 2),
    "diagonal": (lambda: gate_matrix("cp", [0.3]), 2),
    "permutation": (lambda: gate_matrix("cx"), 2),
    "controlled": (lambda: gate_matrix("ch"), 2),
    "fused_3q": (lambda: _random_unitary(8, seed=9), 3),
}

#: The classes whose every position goes through the dense planner (widths
#: 1-3): the ones whose worst-position / median-position ratio is gated.
DENSE_CLASSES = ("dense_1q", "dense_2q", "fused_3q")

#: Widths past the position sweep (a fusion kernel holds up to 8 qubits),
#: timed at the one start position where the planner's rule for them is not
#: the mid-register one: a run starting at position 1 takes the 2x-inflated
#: right gemm instead of the stacked matmul with a post dimension of 2.
WIDE_LOW_WIDTHS = (4, 5, 6, 7, 8)


def _random_unitary(dim: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    unitary, _ = np.linalg.qr(raw)
    return unitary


def _best_seconds(fn, repeats: int) -> float:
    """Minimum wall time over *repeats* calls.

    The minimum is the standard estimator for throughput microbenchmarks:
    it is the sample least polluted by scheduler/container contention, and
    both the engine and the seed reference are measured the same way.
    """
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return float(np.min(samples))


# ---------------------------------------------------------------------------
# Micro benchmark
# ---------------------------------------------------------------------------


def _sweep_positions(n: int, k: int) -> list[list[int]]:
    """Every contiguous run of *k* positions, bottom to top — the dense
    planner's cliffs sit at single positions, and sampling low / middle /
    high is how they stayed unseen — then, for 2q gates, a reversed, a
    register-spanning and a mid-distance pair."""
    runs = [list(range(q0, q0 + k)) for q0 in range(n - k + 1)]
    if k == 2:
        runs += [[1, 0], [0, n - 1], [2, n // 2]]
    return runs


def run_micro(num_qubits: int, repeats: int = 5) -> dict:
    """Gates/sec per gate class for the engine vs the seed reference.

    The engine is timed position by position: ``position_copies`` is the
    cost at each contiguous position, lowest first, in state copies (the
    table the dense planner's thresholds and the dense-run fold are read
    off), ``position_ratio`` the worst of them over the median one
    (``worst_run`` names it) — the number that shows a planner cliff.  The
    reference does the same work wherever the gate sits, so it runs every
    fourth tuple.
    """
    rng = np.random.default_rng(0)
    state = rng.normal(size=1 << num_qubits) + 1j * rng.normal(size=1 << num_qubits)
    state /= np.linalg.norm(state)
    buffers = [state, np.empty_like(state)]
    copy = _best_seconds(lambda: np.copyto(buffers[1], buffers[0]), 3 * repeats)
    results: dict[str, dict] = {}
    for label, (factory, k) in GATE_CLASSES.items():
        matrix = factory()
        sweeps = _sweep_positions(num_qubits, k)

        def run_fast(qubits):
            buffers[0], buffers[1] = apply_gate_buffered(
                buffers[0], buffers[1], matrix, qubits
            )

        def run_reference():
            for qubits in sweeps[::4]:
                apply_matrix_reference(state, matrix, qubits)

        # Whole passes over the positions, best per position: a burst of
        # host noise then costs several positions one sample each instead
        # of one position all of its samples (the ratio below is a max).
        passes = [
            [_best_seconds(lambda q=qubits: run_fast(q), 1) for qubits in sweeps]
            for _ in range(repeats)
        ]
        per_tuple = np.min(passes, axis=0)
        fast = float(np.mean(per_tuple))
        reference = _best_seconds(run_reference, repeats) / len(sweeps[::4])
        contiguous = per_tuple[: num_qubits - k + 1]
        results[label] = {
            "fast_gates_per_s": 1.0 / fast,
            "ref_gates_per_s": 1.0 / reference,
            "speedup": reference / fast,
            "position_copies": [round(seconds / copy, 2) for seconds in contiguous],
            "position_ratio": float(np.max(contiguous) / np.median(contiguous)),
            "worst_run": sweeps[int(np.argmax(contiguous))],
        }
    classes_1q2q = [c for c, (_, k) in GATE_CLASSES.items() if k <= 2]
    speedups = [results[c]["speedup"] for c in classes_1q2q]
    results["mix_1q2q_speedup"] = float(np.exp(np.mean(np.log(speedups))))
    results["wide_low"] = _wide_low_runs(num_qubits, buffers, copy, repeats)
    return results


def _wide_low_runs(num_qubits: int, buffers: list, copy: float, repeats: int) -> list[dict]:
    """Per width of :data:`WIDE_LOW_WIDTHS`, the run starting at position 1
    through the planner's pick and through the stacked matmul it is chosen
    over, both in state copies — so that rule stays a measurement too."""
    rows = []
    for k in WIDE_LOW_WIDTHS:
        qubits = tuple(range(1, 1 + k))
        matrix = _random_unitary(1 << k, seed=k)
        plan = apply_mod._dense_plan_impl(matrix, num_qubits, qubits)
        stacked = ("stacked", matrix, 1 << (num_qubits - k - 1), 1 << k, 2)
        picked, alternative = (
            _best_seconds(
                lambda p=p: apply_mod.run_dense_plan(p, buffers[0], buffers[1]), repeats
            )
            for p in (plan, stacked)
        )
        rows.append({
            "k": k,
            "plan": plan[0],
            "copies": round(picked / copy, 2),
            "stacked_copies": round(alternative / copy, 2),
        })
    return rows


# ---------------------------------------------------------------------------
# End-to-end plan benchmark (engine vs faithful seed executor)
# ---------------------------------------------------------------------------


def _fused_unitary_seed(gates, qubits=None):
    """Seed fusion: expand every gate to the kernel space and matmul (O(8^m))."""
    if qubits is None:
        qubits = kernel_qubits(gates)
    qubits = tuple(qubits)
    fused = np.eye(1 << len(qubits), dtype=np.complex128)
    for gate in gates:
        fused = expand_matrix(gate.matrix(), gate.qubits, qubits) @ fused
    return fused, qubits


def _execute_plan_seed(plan):
    """The seed executor: tensordot apply, per-kernel re-fusion, per-gate
    allocation.  Mirrors the pre-optimization ``execute_plan`` code path."""
    n = plan.num_qubits
    state = np.zeros(1 << n, dtype=np.complex128)
    state[0] = 1.0
    layout = QubitLayout(n)
    for stage in plan.stages:
        target = stage.partition.logical_to_physical()
        if target != layout.logical_to_physical():
            state = permute_state(state, layout, target)
            layout.update(target)
        logical_to_physical = layout.logical_to_physical()
        kernels = stage.kernels or []
        if stage.kernels is None:
            groups = [([gate], None) for gate in stage.gates]
        else:
            groups = [(list(k.gates), k.kernel_type) for k in kernels]
        for gates, kernel_type in groups:
            if kernel_type is not None and kernel_type.value == "fusion":
                matrix, logical_qubits = _fused_unitary_seed(gates)
                physical = [logical_to_physical[q] for q in logical_qubits]
                state = apply_matrix_reference(state, matrix, physical)
            else:
                for gate in gates:
                    physical = [logical_to_physical[q] for q in gate.qubits]
                    state = apply_matrix_reference(state, gate.matrix(), physical)
    identity = {q: q for q in range(n)}
    if layout.logical_to_physical() != identity:
        state = permute_state(state, layout, identity)
    return state


def run_plan(num_qubits: int, repeats: int = 3) -> dict:
    """Wall time of execute_plan vs the seed executor on a QFT circuit."""
    circuit = qft(num_qubits)
    machine = MachineConfig.for_circuit(
        num_qubits, num_shards=4, local_qubits=num_qubits - 2
    )
    plan, _ = partition(circuit, machine)

    # Warm caches (fused unitaries, dispatch analysis, scratch pool) so the
    # timed runs measure steady-state execution.
    fast_state, _ = execute_plan(plan)
    fast = _best_seconds(lambda: execute_plan(plan), repeats)

    apply_mod.reset_allocation_log()
    execute_plan(plan)
    log = apply_mod.allocation_log()

    seed_state = _execute_plan_seed(plan)
    seed = _best_seconds(lambda: _execute_plan_seed(plan), repeats)
    agreement = float(abs(np.vdot(fast_state.data, seed_state)))

    return {
        "circuit": "qft",
        "num_qubits": num_qubits,
        "num_gates": len(circuit),
        "fast_seconds": fast,
        "ref_seconds": seed,
        "speedup": seed / fast,
        "state_fidelity_vs_seed": agreement**2,
        "warm_allocations_total": len(log),
        "warm_allocations_state_sized": sum(
            1 for size in log if size >= 1 << num_qubits
        ),
    }


# ---------------------------------------------------------------------------
# Shard-streaming (offload) runtime benchmark
# ---------------------------------------------------------------------------


def run_offload(
    num_qubits: int,
    repeats: int = 3,
    worker_counts: tuple[int, ...] = (1, 2, 4),
    batch_size: int = 4,
) -> dict:
    """Sequential vs parallel shard-streaming execution of a QFT plan.

    The machine splits the state into ``2^4 = 16`` DRAM shards streamed
    through 4 physical GPUs, so the parallel scheduler runs its full
    multi-pass pipeline.  Each parallel measurement reuses one warm
    :class:`ParallelRuntime`; the ``batch`` entry compares
    :meth:`ParallelRuntime.run_batch` (pool, buffers and segmentation
    shared across problems) against one-shot runs of the same problems.
    """
    circuit = qft(num_qubits)
    machine = MachineConfig.for_circuit(
        num_qubits, num_shards=4, local_qubits=num_qubits - 4
    )
    plan, _ = partition(circuit, machine)

    sequential_state, _ = execute_plan_offloaded(plan, machine)  # warm caches
    sequential = _best_seconds(
        lambda: execute_plan_offloaded(plan, machine), repeats
    )

    result = {
        "circuit": "qft",
        "num_qubits": num_qubits,
        "local_qubits": machine.local_qubits,
        "num_shards": machine.num_shards,
        "physical_gpus": machine.physical_gpus,
        "cpu_count": os.cpu_count(),
        "sequential_seconds": sequential,
        "parallel": {},
    }
    for workers in worker_counts:
        with ParallelRuntime(machine, num_workers=workers) as runtime:
            state, _ = runtime.execute(plan)  # warm pool + worker buffers
            seconds = _best_seconds(lambda: runtime.execute(plan), repeats)
        result["parallel"][str(workers)] = {
            "seconds": seconds,
            "speedup_vs_sequential": sequential / seconds,
            "bit_exact": bool(np.array_equal(state.data, sequential_state.data)),
        }

    states = [
        StateVector.random_state(num_qubits, seed=seed)
        for seed in range(batch_size)
    ]
    batch_repeats = max(2, repeats - 1)
    with ParallelRuntime(machine) as runtime:
        runtime.run_batch(plan, initial_states=states)  # warm
        batch_per_item = (
            _best_seconds(
                lambda: runtime.run_batch(plan, initial_states=states),
                batch_repeats,
            )
            / batch_size
        )
    oneshot_per_item = (
        _best_seconds(
            lambda: [
                execute_plan_parallel(plan, machine, initial_state=state)
                for state in states
            ],
            batch_repeats,
        )
        / batch_size
    )
    result["batch"] = {
        "batch_size": batch_size,
        "batch_seconds_per_item": batch_per_item,
        "oneshot_seconds_per_item": oneshot_per_item,
        "amortization_speedup": oneshot_per_item / batch_per_item,
    }

    # The performance-model view of the same data parallelism (the layer
    # that reproduces Figures 5-8): the modelled wall time with the
    # machine's 4 physical GPUs vs the same machine throttled to one.
    # Unlike the thread-pool timings above, this is independent of how
    # many cores the benchmarking host happens to have.
    one_gpu = dataclasses.replace(machine, gpus_per_node=1)
    modelled_parallel = model_simulation_time(plan, machine).total_seconds
    modelled_serial = model_simulation_time(plan, one_gpu).total_seconds
    result["modelled"] = {
        "total_seconds_4gpu": modelled_parallel,
        "total_seconds_1gpu": modelled_serial,
        "speedup_4gpu_vs_1gpu": modelled_serial / modelled_parallel,
    }
    return result


# ---------------------------------------------------------------------------
# Session plan-cache amortisation benchmark
# ---------------------------------------------------------------------------


def run_session_bench(
    num_qubits: int,
    sweep_size: int = 50,
    pruning_threshold: int = 16,
) -> dict:
    """Cold vs warm execution of a structurally identical VQC sweep.

    *Cold*: ``sweep_size`` independent :func:`repro.simulate` calls — every
    one re-runs ILP staging and DP kernelization from scratch.  *Warm*: one
    ``Session.run`` over the same circuits — the structural plan cache
    partitions once and re-binds the plan for the remaining circuits.  The
    warm states are checked against the cold ones, and the cache stats
    (hits must equal ``sweep_size - 1``) are recorded for the gate.
    """
    machine = MachineConfig.for_circuit(
        num_qubits, num_shards=4, local_qubits=num_qubits - 2
    )
    config = KernelizeConfig(pruning_threshold=pruning_threshold)
    circuits = [vqc(num_qubits, seed=seed) for seed in range(sweep_size)]

    start = time.perf_counter()
    cold_states = [
        simulate(circuit, machine, kernelize_config=config).state
        for circuit in circuits
    ]
    cold_seconds = time.perf_counter() - start

    with Session(
        machine, backend="incore", planner=legacy_pipeline(kernelize_config=config)
    ) as session:
        start = time.perf_counter()
        job = session.run(circuits)
        warm_seconds = time.perf_counter() - start
        stats = session.stats

    matches = sum(
        1 for cold, result in zip(cold_states, job) if cold.allclose(result.state)
    )
    return {
        "circuit": "vqc",
        "num_qubits": num_qubits,
        "num_gates": len(circuits[0]),
        "sweep_size": sweep_size,
        "backend": job.backend,
        "cold_seconds": cold_seconds,
        "warm_seconds": warm_seconds,
        "speedup": cold_seconds / warm_seconds,
        "plans_built": stats.plans_built,
        "cache_hits": stats.cache_hits,
        "plan_seconds_warm": stats.plan_seconds,
        "execute_seconds_warm": stats.execute_seconds,
        "states_match_cold": matches,
    }


# ---------------------------------------------------------------------------
# Compiled-program benchmark
# ---------------------------------------------------------------------------


def run_compile_bench(
    num_qubits: int,
    repeats: int = 5,
    batch_size: int = 16,
    pruning_threshold: int = 16,
) -> dict:
    """Compile-once-run-N amortisation and batched (B, 2^n) execution.

    Uses the same VQC family as the session scenario so the compiled
    re-execution time is directly comparable with the session baseline's
    warm per-circuit execution cost.  All speedups are measured within this
    run (host-independent); bit-exactness is checked against the per-gate
    interpreter, the offload executor, and the parallel runtime.
    """
    machine = MachineConfig.for_circuit(
        num_qubits, num_shards=4, local_qubits=num_qubits - 2
    )
    config = KernelizeConfig(pruning_threshold=pruning_threshold)
    circuit = vqc(num_qubits, seed=0)
    plan, _ = partition(circuit, machine, kernelize_config=config)

    interp_state, _ = execute_plan(plan, machine=machine, compiled=False)  # warm
    interpreted = _best_seconds(
        lambda: execute_plan(plan, machine=machine, compiled=False), repeats
    )

    start = time.perf_counter()
    program = compile_plan(plan, machine)
    compile_seconds = time.perf_counter() - start
    compiled_state = program.run()  # warm (allocates the workspace)
    compiled = _best_seconds(lambda: program.run_view(), repeats)

    # Rebind: a structurally identical circuit with new angles recompiles
    # only angle-dependent ops (constant-structure ops reuse verbatim).
    other = vqc(num_qubits, seed=1)
    rebound_plan = rebind_plan(plan, other)
    start = time.perf_counter()
    rebound = compile_plan(rebound_plan, machine, reuse=program)
    rebind_seconds = time.perf_counter() - start

    # Batched (B, 2^n) execution vs a B-loop of single-state runs.
    states = [
        StateVector.random_state(num_qubits, seed=seed) for seed in range(batch_size)
    ]
    batched_states = program.run_batched(states)
    looped_states = [program.run(state) for state in states]
    # An op has one body and the stack is a looped matmul axis, so a
    # stacked row equals the looped run bit for bit: gated at 0.0 unless
    # the program holds `big` ops, then at their documented bound
    # (``stack_ulps`` ulp of the state's largest amplitude).
    batched_max_diff = max(
        float(np.max(np.abs(b.data - l.data)))
        for b, l in zip(batched_states, looped_states)
    )
    batched_states_match = all(
        np.max(np.abs(b.data - l.data))
        <= program.stack_ulps() * np.spacing(np.max(np.abs(l.data)))
        for b, l in zip(batched_states, looped_states)
    )
    _best_seconds(lambda: program.run_batched_view(states), 1)  # warm batch pair
    # Alternate the two sides (best of *repeats* samples each, as before):
    # a burst of host noise then cannot take every sample of one side.
    looped_seconds = batched_seconds = float("inf")
    for _ in range(repeats):
        looped_seconds = min(looped_seconds, _best_seconds(
            lambda: [program.run_view(state) for state in states], 1
        ))
        batched_seconds = min(batched_seconds, _best_seconds(
            lambda: program.run_batched_view(states), 1
        ))

    # Bit-exactness gates across the execution paths.
    offload_state, _ = execute_plan_offloaded(plan, machine)
    parallel_exact = {}
    for workers in (1, 2, 4):
        with ParallelRuntime(machine, num_workers=workers) as runtime:
            par_state, _ = runtime.execute(plan)
        parallel_exact[str(workers)] = bool(
            np.array_equal(par_state.data, offload_state.data)
        )

    return {
        "circuit": "vqc",
        "num_qubits": num_qubits,
        "num_gates": len(circuit),
        "num_ops": len(program.ops),
        "op_counts": program.op_counts(),
        "compile_seconds": compile_seconds,
        "rebind_seconds": rebind_seconds,
        "rebind_ops_reused": rebound.ops_reused,
        "interpreted_seconds_per_run": interpreted,
        "compiled_seconds_per_run": compiled,
        "speedup_vs_interpreted": interpreted / compiled,
        "bit_exact_incore": bool(
            np.array_equal(compiled_state.data, interp_state.data)
        ),
        "offload_state_matches": bool(
            np.allclose(offload_state.data, compiled_state.data, atol=1e-10)
        ),
        "parallel_bit_exact": parallel_exact,
        "batched": {
            "batch_size": batch_size,
            "looped_seconds": looped_seconds,
            "batched_seconds": batched_seconds,
            "speedup_vs_loop": looped_seconds / batched_seconds,
            "states_match": batched_states_match,
            "max_abs_diff": batched_max_diff,
        },
    }


#: Families of the rebind scenario: the three warm-sweep structures of the
#: repo benchmark's service workload, at its size and on its machine.
REBIND_FAMILIES = {
    "vqc": lambda n: vqc(n, ansatz_reps=1),
    "ising": ising,
    "qsvm": qsvm,
}
REBIND_QUBITS = 12


def run_rebind_bench(repeats: int = 5, rebinds: int = 20) -> dict:
    """What a plan-cache hit costs to bind: ``compile_plan(reuse=)`` of
    freshly drawn angles against one cold compile and one run of the same
    structure.  A rebind is a numeric fill over the cached program's
    structure, so it must stay well under a recompile — and on generic
    angles it must never fall back to one."""
    n = REBIND_QUBITS
    machine = MachineConfig.for_circuit(n, num_shards=4)
    rng = np.random.default_rng(0)

    def redraw(template):
        return Circuit(n, [
            make_gate(g.name, g.qubits, rng.uniform(0.1, 6.0, len(g.params)))
            for g in template.gates
        ])

    out = {}
    for family, build in REBIND_FAMILIES.items():
        template = build(n)
        plan, _ = partition(redraw(template), machine)
        start = time.perf_counter()
        program = compile_plan(plan, machine)
        compile_seconds = time.perf_counter() - start
        program.run_view()  # warm (allocates the workspace)
        compiled = _best_seconds(lambda: program.run_view(), repeats)
        samples, rebound, fallbacks = [], None, 0
        for _ in range(rebinds):
            circuit = redraw(template)
            # A hit found its entry by this key, which leaves every gate's
            # pattern cached for the rebind guard: not part of the bind.
            circuit.structural_key()
            rebound_plan = rebind_plan(plan, circuit)
            start = time.perf_counter()
            rebound = compile_plan(rebound_plan, machine, reuse=program)
            samples.append(time.perf_counter() - start)
            fallbacks += bool(rebound.ops_recompiled)
        out[family] = {
            "num_qubits": n,
            "num_gates": len(template),
            "num_ops": len(program.ops),
            "compile_seconds": compile_seconds,
            "compiled_seconds_per_run": compiled,
            "rebind_seconds": float(np.min(samples)),
            "rebind_ops_reused": rebound.ops_reused,
            "rebind_ops_rebound": rebound.ops_rebound,
            "rebind_fallbacks": fallbacks,
        }
    return out


# ---------------------------------------------------------------------------
# Shared-memory kernel lowering
# ---------------------------------------------------------------------------

#: Families of the lowering scenario: diagonal-heavy (qft), cx·rz·cx
#: sandwiches (ising) and all-to-all CX networks (su2random).
LOWERING_FAMILIES = {
    "qft": qft,
    "ising": ising,
    "su2random": lambda n: su2random(n, reps=1),
}


def _per_gate_stream(plan, program) -> list:
    """The compiled stream with every shared-memory kernel expanded back to
    one op per gate (the pre-lowering emission), other ops kept as they
    are.  Single-stage in-core plans only: one layout for every kernel."""
    (stage,) = plan.stages
    l2p = stage.partition.logical_to_physical()
    n = plan.num_qubits
    kernels = list(stage.kernels)
    stream, expanded = [], set()
    for op in program.ops:
        if op.source[0] != "sm":
            stream.append(op)
            continue
        group = op.source[2]
        if group in expanded:
            continue
        expanded.add(group)
        assert kernels[group].kernel_type is KernelType.SHM
        stream.extend(
            compile_unitary_op(g.matrix(), [l2p[q] for q in g.qubits], n)
            for g in kernels[group].gates
        )
    return stream


def run_kernel_lowering_bench(num_qubits: int, repeats: int = 3) -> dict:
    """Lowered op stream versus a per-gate stream of the same plans."""
    machine = MachineConfig.for_circuit(num_qubits)
    size = 1 << num_qubits
    out = {}
    for family, factory in LOWERING_FAMILIES.items():
        circuit = factory(num_qubits)
        plan, _ = partition(circuit, machine)
        program = compile_plan(plan, machine)
        per_gate = _per_gate_stream(plan, program)
        ws = program.workspace

        def run(ops):
            state, scratch = ws.pair(size)
            state[:] = 0.0
            state[0] = 1.0
            for op in ops:
                state, scratch = op.run(state, scratch, ws)
            return state

        lowered_state = run(program.ops).copy()
        per_gate_state = run(per_gate).copy()
        lowered_seconds = _best_seconds(lambda: run(program.ops), repeats)
        per_gate_seconds = _best_seconds(lambda: run(per_gate), repeats)
        out[family] = {
            "num_qubits": num_qubits,
            "num_gates": program.num_gates,
            "num_kernels": program.num_kernels,
            "ops": len(program.ops),
            "per_gate_ops": len(per_gate),
            "op_counts": program.op_counts(),
            # Exact: gates folded per emitted op, as the count pair.
            "fold": [program.num_gates, len(program.ops)],
            "lowered_seconds": lowered_seconds,
            "per_gate_seconds": per_gate_seconds,
            "speedup_vs_per_gate": per_gate_seconds / lowered_seconds,
            "max_abs_diff_vs_per_gate": float(
                np.max(np.abs(lowered_state - per_gate_state))
            ),
        }
    return out


def run_sm_kernel_bench(num_qubits: int, repeats: int = 3) -> dict:
    """The kernel op's two bodies, per shared-memory kernel of the lowering
    families' in-core plans: items, and one application in state copies
    through the native body and through the item loop."""
    status = native.status()
    if not status["available"]:
        return {"available": False, "reason": status["reason"]}
    machine = MachineConfig.for_circuit(num_qubits)
    ws = Workspace()
    state, scratch = ws.pair(1 << num_qubits)
    state[:] = 1.0 / (1 << (num_qubits // 2))
    copy_seconds = _best_seconds(lambda: np.copyto(scratch, state), 3 * repeats)
    families = {}
    for family, factory in LOWERING_FAMILIES.items():
        plan, _ = partition(factory(num_qubits), machine)
        (stage,) = plan.stages
        l2p = stage.partition.logical_to_physical()
        rows = []
        for kernel in stage.kernels:
            if kernel.kernel_type is not KernelType.SHM:
                continue
            items = lower_kernel_gates(kernel.gates, l2p)
            template = kernel_template(kernel_items(items, l2p), num_qubits)
            bodies = {"native": template.bind(items), "item_loop": template.item_loop(items)}
            seconds = dict.fromkeys(bodies, float("inf"))
            for _ in range(repeats):  # alternated: host noise hits both alike
                for name, run in bodies.items():
                    seconds[name] = min(
                        seconds[name], _best_seconds(lambda: run(state, scratch, ws), 1)
                    )
            rows.append({
                "qubits": len(kernel.qubits),
                "items": len(items),
                "native": template.native,
                "native_copies": seconds["native"] / copy_seconds,
                "item_loop_copies": seconds["item_loop"] / copy_seconds,
            })
        families[family] = rows
    return {"available": True, "copy_seconds": copy_seconds, "families": families}


# ---------------------------------------------------------------------------
# Planning-pipeline benchmark (cold path)
# ---------------------------------------------------------------------------

#: Circuit families of the planning sweep, by name.
PLAN_FAMILIES = {
    "qft": qft,
    "ghz": ghz,
    "vqc": vqc,
    "ising": ising,
    "graphstate": graphstate,
    "wstate": wstate,
}

#: (family, qubits) entries: quick subset first, full run adds the rest.
PLAN_SWEEP_QUICK = [("qft", 10), ("ghz", 10), ("vqc", 8)]
PLAN_SWEEP_FULL = PLAN_SWEEP_QUICK + [
    ("qft", 12),
    ("ising", 12),
    ("graphstate", 12),
    ("wstate", 12),
    ("vqc", 10),
]

PLAN_PRESETS = ("fast", "balanced", "quality")


def _seed_planner() -> PassManager:
    """The seed planner as a pipeline: the ILP stager with no pass-level
    shortcut (a fits-locally circuit still goes through the solver) plus
    the reference beam DP — the pre-pipeline ``partition()`` code path,
    pass for pass.  Staging itself is ``stage_circuit``, the same for
    every planner, so the stage counts must agree exactly."""
    return PassManager(
        [
            ("analyze", {}),
            (
                "stage",
                {
                    "stager": "ilp",
                    "single_stage_shortcut": False,
                    "ilp_time_limit": 120.0,
                },
            ),
            ("kernelize", {"kernelizer": "atlas-ref"}),
            ("finalize", {}),
        ],
        preset="seed",
    )


def run_plan_pipeline_bench(sweep: list[tuple[str, int]], repeats: int = 2) -> dict:
    """Cold-plan latency and plan quality per preset vs the seed planner.

    Every (family, qubits) entry is planned on two machine shapes — a
    4-shard split (staging required) and a single-shard machine (the
    fits-locally shortcut territory) — by the seed planner and by each
    preset.  Median fast-vs-seed speedup across all entries is the
    headline; per-entry kernel costs feed the no-worse-than-seed gate.
    """
    entries: dict[str, dict] = {}
    speedups: list[float] = []
    for family_name, n in sweep:
        circuit = PLAN_FAMILIES[family_name](n)
        for shape, machine in (
            ("sharded", MachineConfig.for_circuit(n, num_shards=4, local_qubits=n - 2)),
            ("local", MachineConfig.for_circuit(n, num_shards=1)),
        ):
            seed_manager = _seed_planner()
            seed_seconds = _best_seconds(
                lambda: seed_manager.run(circuit, machine), repeats
            )
            seed_plan, seed_report = seed_manager.run(circuit, machine)
            seed_staging = [stage.gate_indices for stage in seed_plan.stages]
            entry = {
                "family": family_name,
                "num_qubits": n,
                "num_gates": len(circuit),
                "shape": shape,
                "seed_seconds": seed_seconds,
                "seed_kernel_cost": seed_report.total_kernel_cost,
                "seed_stages": seed_report.num_stages,
                "presets": {},
            }
            for preset in PLAN_PRESETS:
                manager = resolve_planner(preset)
                preset_seconds = _best_seconds(
                    lambda: manager.run(circuit, machine), repeats
                )
                plan, report = manager.run(circuit, machine)
                plan.validate(circuit)
                entry["presets"][preset] = {
                    "seconds": preset_seconds,
                    "speedup_vs_seed": seed_seconds / preset_seconds,
                    "kernel_cost": report.total_kernel_cost,
                    "num_stages": report.num_stages,
                    "num_kernels": report.num_kernels,
                    "staging_matches_seed": (
                        [stage.gate_indices for stage in plan.stages] == seed_staging
                    ),
                    "passes_skipped": dict(report.passes_skipped),
                }
            speedups.append(entry["presets"]["fast"]["speedup_vs_seed"])
            entries[f"{family_name}-{n}/{shape}"] = entry
    return {
        "entries": entries,
        "fast_median_speedup_vs_seed": float(np.median(speedups)),
        "fast_min_speedup_vs_seed": float(np.min(speedups)),
    }


# ---------------------------------------------------------------------------
# Baseline comparison
# ---------------------------------------------------------------------------


def check_regression(
    current: dict, baseline: dict, threshold: float = 2.0
) -> list[str]:
    """Return human-readable regressions of *current* vs *baseline*.

    A regression is any throughput metric (``fast_gates_per_s``) or plan
    wall time that is worse than the baseline by more than *threshold*.
    Benchmarks at different sizes are not compared.
    """
    problems: list[str] = []
    # Planning-pipeline invariants are current-run properties: the fast
    # preset must beat the seed planner >= 2x at the median, at exactly the
    # seed planner's kernel cost wherever it staged like the seed planner
    # (never a costlier plan elsewhere), every preset must reach the seed
    # planner's stage count (they all stage through ``stage_circuit``), and
    # the preset quality ladder must be monotone (quality <= balanced <=
    # fast kernel cost).
    planner = current.get("plan") or {}
    if planner:
        if planner["fast_median_speedup_vs_seed"] < 2.0:
            problems.append(
                f"plan: fast preset median speedup "
                f"{planner['fast_median_speedup_vs_seed']:.2f}x vs the seed "
                f"planner (< 2x)"
            )
        for key, entry in planner["entries"].items():
            presets = entry["presets"]
            for name, preset in presets.items():
                if preset["num_stages"] != entry["seed_stages"]:
                    problems.append(
                        f"plan[{key}]: {name} preset staged into "
                        f"{preset['num_stages']} stages, the seed planner into "
                        f"{entry['seed_stages']}"
                    )
            fast_cost = presets["fast"]["kernel_cost"]
            if presets["fast"].get("staging_matches_seed"):
                # Same stages, and the only other difference from the seed
                # planner is which implementation of the DP ran: the two
                # return the same kernels, so the costs are the same float.
                if fast_cost != entry["seed_kernel_cost"]:
                    problems.append(
                        f"plan[{key}]: fast preset kernel cost {fast_cost!r} is "
                        f"not the seed planner's {entry['seed_kernel_cost']!r} on "
                        f"the same stages (fast_kernelize != reference kernelize)"
                    )
            elif fast_cost > entry["seed_kernel_cost"] + 1e-9:
                problems.append(
                    f"plan[{key}]: fast preset kernel cost {fast_cost:.4f} "
                    f"worse than seed {entry['seed_kernel_cost']:.4f}"
                )
            if (
                presets["balanced"]["kernel_cost"]
                > presets["fast"]["kernel_cost"] + 1e-9
                or presets["quality"]["kernel_cost"]
                > presets["balanced"]["kernel_cost"] + 1e-9
            ):
                problems.append(
                    f"plan[{key}]: preset quality ladder not monotone "
                    f"(fast {presets['fast']['kernel_cost']:.4f}, balanced "
                    f"{presets['balanced']['kernel_cost']:.4f}, quality "
                    f"{presets['quality']['kernel_cost']:.4f})"
                )
    base_planner = baseline.get("plan") or {}
    for key, old_entry in base_planner.get("entries", {}).items():
        new_entry = (planner.get("entries") or {}).get(key)
        if new_entry is None:
            continue
        # Ratios measured within one run, so host speed cancels (absolute
        # plan milliseconds flaked at 2x on a shared host).
        old_fast = old_entry["presets"]["fast"]["speedup_vs_seed"]
        new_fast = new_entry["presets"]["fast"]["speedup_vs_seed"]
        if new_fast * threshold < old_fast:
            problems.append(
                f"plan[{key}]: fast preset {new_fast:.2f}x the seed planner vs "
                f"baseline {old_fast:.2f}x (>{threshold}x regression)"
            )
    # Bit-exactness is a property of the current run alone — flag a
    # divergent parallel result even when the baseline has no matching
    # offload entry to compare wall times against.
    for size, new_offload in current.get("offload", {}).items():
        for workers, new_par in new_offload.get("parallel", {}).items():
            if not new_par.get("bit_exact", True):
                problems.append(
                    f"offload[{size}].parallel[{workers}]: result is not "
                    f"bit-exact with the sequential executor"
                )
    # Compiled-program invariants are current-run properties (measured
    # within one run, so host speed cancels): a compiled program is never
    # slower than the interpreter on the same plan (they bind the same
    # kernel ops — the margin is dispatch, and shrinks whenever the shared
    # engine improves, so what is protected is the order, within the
    # threshold's slack), batched (B, 2^n) execution must beat the B-loop
    # >= 1.5x, and every path must stay bit-exact.
    for size, comp in current.get("compile", {}).items():
        if comp["speedup_vs_interpreted"] * threshold < 1.0:
            problems.append(
                f"compile[{size}]: compiled re-execution is slower than the "
                f"interpreter on the same plan "
                f"({comp['speedup_vs_interpreted']:.2f}x, beyond the "
                f"{threshold}x slack)"
            )
        if comp["batched"]["speedup_vs_loop"] < 1.5:
            problems.append(
                f"compile[{size}]: batched B={comp['batched']['batch_size']} "
                f"only {comp['batched']['speedup_vs_loop']:.2f}x over the "
                f"single-state loop (< 1.5x)"
            )
        if not comp["bit_exact_incore"]:
            problems.append(
                f"compile[{size}]: compiled state diverges from the "
                f"interpreted incore state"
            )
        if not comp["batched"]["states_match"]:
            problems.append(
                f"compile[{size}]: batched rows are not the looped runs' "
                f"(max |diff| = {comp['batched']['max_abs_diff']:.2e}; the "
                f"bound is 0 without a `big` op, 2^k ulp per `big` op with)"
            )
        if not comp["offload_state_matches"]:
            problems.append(
                f"compile[{size}]: offload executor state diverges from the "
                f"compiled incore state"
            )
        for workers, exact in comp["parallel_bit_exact"].items():
            if not exact:
                problems.append(
                    f"compile[{size}]: parallel W={workers} diverges from the "
                    f"sequential offload executor"
                )
        # Cross-check against the committed session baseline: compiled
        # re-execution of the same VQC family must never fall behind the
        # committed sweep's warm per-circuit execution cost (the committed
        # baseline is itself compiled-backed: per-circuit parity is the
        # invariant).
        base_sess = baseline.get("session", {}).get(size)
        if base_sess is not None and base_sess["num_qubits"] == comp["num_qubits"]:
            per_circuit = base_sess["execute_seconds_warm"] / base_sess["sweep_size"]
            if comp["compiled_seconds_per_run"] > per_circuit * threshold:
                problems.append(
                    f"compile[{size}]: compiled re-execution "
                    f"{comp['compiled_seconds_per_run']*1e3:.2f} ms/run is "
                    f"slower than the committed session baseline's "
                    f"{per_circuit*1e3:.2f} ms/circuit warm execution "
                    f"(>{threshold}x)"
                )
    # A rebind is a numeric fill, not a recompile (current-run properties
    # again): on generic angles it never takes the structure fallback, and
    # it stays under one cold compile plus two runs of the program.
    for family, reb in current.get("rebind", {}).items():
        if reb["rebind_fallbacks"] != 0:
            problems.append(
                f"rebind[{family}]: {reb['rebind_fallbacks']} rebind(s) of generic "
                f"angles fell back to a structural compile (want 0)"
            )
        budget = 2 * reb["compiled_seconds_per_run"] + reb["compile_seconds"]
        if reb["rebind_seconds"] > budget:
            problems.append(
                f"rebind[{family}]: rebind {reb['rebind_seconds']*1e3:.2f} ms exceeds "
                f"a cold compile plus two runs ({budget*1e3:.2f} ms)"
            )
        old = baseline.get("rebind", {}).get(family)
        if old is not None and reb["rebind_seconds"] > threshold * old["rebind_seconds"]:
            problems.append(
                f"rebind[{family}]: {reb['rebind_seconds']*1e3:.2f} ms vs baseline "
                f"{old['rebind_seconds']*1e3:.2f} ms (>{threshold}x regression)"
            )
    for size, old_comp in baseline.get("compile", {}).items():
        new_comp = current.get("compile", {}).get(size)
        if new_comp is None:
            continue
        if (
            new_comp["compiled_seconds_per_run"]
            > threshold * old_comp["compiled_seconds_per_run"]
        ):
            problems.append(
                f"compile[{size}]: {new_comp['compiled_seconds_per_run']*1e3:.2f} "
                f"ms/run vs baseline "
                f"{old_comp['compiled_seconds_per_run']*1e3:.2f} ms/run "
                f"(>{threshold}x regression)"
            )
    # Kernel lowering: the fold is a count fixed by plan and lowering, so it
    # must equal the baseline's exactly; the lowered stream must agree with
    # the per-gate stream and keep its lead over it within the threshold.
    for size, families in current.get("kernel_lowering", {}).items():
        for family, new in families.items():
            if new["max_abs_diff_vs_per_gate"] > 1e-10:
                problems.append(
                    f"kernel_lowering[{size}][{family}]: lowered state "
                    f"diverges from the per-gate stream (max |diff| = "
                    f"{new['max_abs_diff_vs_per_gate']:.2e})"
                )
            old = baseline.get("kernel_lowering", {}).get(size, {}).get(family)
            if old is None:
                continue
            if new["fold"] != old["fold"] or new["per_gate_ops"] != old["per_gate_ops"]:
                problems.append(
                    f"kernel_lowering[{size}][{family}]: {new['fold'][0]} gates "
                    f"-> {new['fold'][1]} ops (per-gate {new['per_gate_ops']}) "
                    f"vs baseline {old['fold'][0]} -> {old['fold'][1]} "
                    f"(per-gate {old['per_gate_ops']}): the fold changed"
                )
            if new["speedup_vs_per_gate"] * threshold < old["speedup_vs_per_gate"]:
                problems.append(
                    f"kernel_lowering[{size}][{family}]: "
                    f"{new['speedup_vs_per_gate']:.2f}x over the per-gate "
                    f"stream vs baseline {old['speedup_vs_per_gate']:.2f}x "
                    f"(>{threshold}x regression)"
                )
    # The kernel op's native body against its item loop, kernel by kernel:
    # a ratio within the run, asked only where there is more than a sweep
    # or two to save.
    for size, section in current.get("sm_kernel", {}).items():
        for family, kernels in section.get("families", {}).items():
            for index, kernel in enumerate(kernels):
                if kernel["items"] >= 3 and kernel["native_copies"] > kernel["item_loop_copies"]:
                    problems.append(
                        f"sm_kernel[{size}][{family}][{index}]: {kernel['items']} "
                        f"items cost {kernel['native_copies']:.2f} state copies "
                        f"through the native body, {kernel['item_loop_copies']:.2f} "
                        f"through the item loop (native slower)"
                    )
    # Wide-kernel micro pin: fused 3q matrices route through single-GEMM
    # dense plans and must stay comfortably ahead of the tensordot
    # reference (they were ~1.2x before the routing, ~4x after).
    for size, classes in current.get("micro", {}).items():
        fused = classes.get("fused_3q")
        if isinstance(fused, dict) and fused["speedup"] < 1.5:
            problems.append(
                f"micro[{size}][fused_3q]: only {fused['speedup']:.2f}x over "
                f"the tensordot reference (< 1.5x — wide-gemm routing "
                f"regressed)"
            )
    # Session amortisation invariants are also current-run properties: the
    # sweep must hit the plan cache for every circuit after the first, match
    # the cold states, and beat the cold path by at least 5x end-to-end.
    for size, sess in current.get("session", {}).items():
        expected_hits = sess["sweep_size"] - 1
        if sess["cache_hits"] < expected_hits or sess["plans_built"] != 1:
            problems.append(
                f"session[{size}]: {sess['cache_hits']} cache hits / "
                f"{sess['plans_built']} plans built on a {sess['sweep_size']}-"
                f"circuit sweep (expected {expected_hits} hits, 1 plan)"
            )
        if sess["states_match_cold"] != sess["sweep_size"]:
            problems.append(
                f"session[{size}]: only {sess['states_match_cold']}/"
                f"{sess['sweep_size']} warm states match the cold runs"
            )
        # The 5x amortisation floor assumes the single solve is spread over
        # enough circuits; tiny sweeps (used by unit tests) are exempt.
        if sess["sweep_size"] >= 10 and sess["speedup"] < 5.0:
            problems.append(
                f"session[{size}]: warm sweep only {sess['speedup']:.2f}x "
                f"faster than cold (< 5x amortisation)"
            )
    for size, old_sess in baseline.get("session", {}).items():
        new_sess = current.get("session", {}).get(size)
        if new_sess is None:
            continue
        # Quick runs use a smaller sweep than the committed full-run
        # baseline, so sweep totals (and even warm_seconds / sweep_size,
        # which amortises the one solve differently) are not comparable.
        # Compare the two size-independent components instead: the one-time
        # planning cost and the per-circuit execution cost.
        old_exec = old_sess["execute_seconds_warm"] / old_sess["sweep_size"]
        new_exec = new_sess["execute_seconds_warm"] / new_sess["sweep_size"]
        if new_exec > threshold * old_exec:
            problems.append(
                f"session[{size}]: warm execution {new_exec:.4f}s/circuit vs "
                f"baseline {old_exec:.4f}s/circuit (>{threshold}x regression)"
            )
        if new_sess["plan_seconds_warm"] > threshold * old_sess["plan_seconds_warm"]:
            problems.append(
                f"session[{size}]: planning {new_sess['plan_seconds_warm']:.3f}s "
                f"vs baseline {old_sess['plan_seconds_warm']:.3f}s "
                f"(>{threshold}x regression)"
            )
    # Current-run property (host speed cancels): what the planner picks for
    # a wide run at position 1 must not lose to the stacked matmul.
    for size, classes in current.get("micro", {}).items():
        for row in classes.get("wide_low", []):
            if row["copies"] > 1.25 * row["stacked_copies"]:
                problems.append(
                    f"micro[{size}][wide_low]: a {row['k']}-qubit run at position 1 "
                    f"costs {row['copies']:.1f} state copies through {row['plan']} "
                    f"vs {row['stacked_copies']:.1f} through the stacked matmul"
                )
    for size, classes in baseline.get("micro", {}).items():
        now = current.get("micro", {}).get(size)
        if now is None:
            continue
        for label, metrics in classes.items():
            if not isinstance(metrics, dict) or label not in now:
                continue
            old_rate, new_rate = metrics["fast_gates_per_s"], now[label]["fast_gates_per_s"]
            if new_rate * threshold < old_rate:
                problems.append(
                    f"micro[{size}][{label}]: {new_rate:.1f} gates/s vs "
                    f"baseline {old_rate:.1f} (>{threshold}x regression)"
                )
            # A position cliff moves this ratio, not the class's mean rate.
            # Gated for the classes the dense planner places at every
            # position; a structured gate's median is an in-place kernel
            # too short (~50 us at 16 qubits) for a stable ratio.
            old_ratio, new_ratio = metrics["position_ratio"], now[label]["position_ratio"]
            if label in DENSE_CLASSES and new_ratio > threshold * old_ratio:
                problems.append(
                    f"micro[{size}][{label}]: worst position "
                    f"{now[label]['worst_run']} costs {new_ratio:.1f}x the median "
                    f"one vs baseline {old_ratio:.1f}x (>{threshold}x regression)"
                )
    for size, old_plan in baseline.get("plans", {}).items():
        new_plan = current.get("plans", {}).get(size)
        if new_plan and new_plan["fast_seconds"] > threshold * old_plan["fast_seconds"]:
            problems.append(
                f"plans[{size}]: {new_plan['fast_seconds']:.3f}s vs baseline "
                f"{old_plan['fast_seconds']:.3f}s (>{threshold}x regression)"
            )
    for size, old_offload in baseline.get("offload", {}).items():
        new_offload = current.get("offload", {}).get(size)
        if new_offload is None:
            continue
        if (
            new_offload["sequential_seconds"]
            > threshold * old_offload["sequential_seconds"]
        ):
            problems.append(
                f"offload[{size}].sequential: "
                f"{new_offload['sequential_seconds']:.3f}s vs baseline "
                f"{old_offload['sequential_seconds']:.3f}s "
                f"(>{threshold}x regression)"
            )
        for workers, old_par in old_offload.get("parallel", {}).items():
            new_par = new_offload.get("parallel", {}).get(workers)
            if new_par is None:
                continue
            if new_par["seconds"] > threshold * old_par["seconds"]:
                problems.append(
                    f"offload[{size}].parallel[{workers}]: "
                    f"{new_par['seconds']:.3f}s vs baseline "
                    f"{old_par['seconds']:.3f}s (>{threshold}x regression)"
                )
        old_batch = old_offload.get("batch")
        new_batch = new_offload.get("batch")
        if (
            old_batch
            and new_batch
            and new_batch["batch_seconds_per_item"]
            > threshold * old_batch["batch_seconds_per_item"]
        ):
            problems.append(
                f"offload[{size}].batch: "
                f"{new_batch['batch_seconds_per_item']:.3f}s/item vs baseline "
                f"{old_batch['batch_seconds_per_item']:.3f}s/item "
                f"(>{threshold}x regression)"
            )
    return problems


def run_suite(
    micro_sizes: list[int],
    plan_sizes: list[int],
    repeats: int,
    offload_sizes: list[int] | None = None,
    session_sizes: list[int] | None = None,
    session_sweep: int = 50,
    compile_sizes: list[int] | None = None,
    compile_batch: int = 16,
    planner_sweep: list[tuple[str, int]] | None = None,
    lowering_sizes: list[int] | None = None,
    sm_kernel_sizes: list[int] | None = None,
) -> dict:
    offload_sizes = offload_sizes or []
    session_sizes = session_sizes or []
    compile_sizes = compile_sizes or []
    planner_sweep = planner_sweep if planner_sweep is not None else []
    # The planning sweep runs first: its seed-vs-preset latency ratios are
    # the most allocation-sensitive measurement in the suite, so it should
    # not inherit a heap fragmented by the state-vector scenarios.
    planner_results = (
        run_plan_pipeline_bench(planner_sweep, min(3, repeats))
        if planner_sweep
        else {}
    )
    return {
        "schema": 11,
        "cpu_count": os.cpu_count(),
        "config": {
            "micro_qubits": micro_sizes,
            "plan_qubits": plan_sizes,
            "offload_qubits": offload_sizes,
            "session_qubits": session_sizes,
            "session_sweep": session_sweep,
            "compile_qubits": compile_sizes,
            "compile_batch": compile_batch,
            "planner_sweep": [list(e) for e in planner_sweep],
            "lowering_qubits": lowering_sizes or [],
            "sm_kernel_qubits": sm_kernel_sizes or [],
            "repeats": repeats,
        },
        "micro": {str(n): run_micro(n, repeats) for n in micro_sizes},
        "plans": {str(n): run_plan(n, max(2, repeats - 2)) for n in plan_sizes},
        "offload": {
            str(n): run_offload(n, max(2, repeats - 2)) for n in offload_sizes
        },
        "session": {
            str(n): run_session_bench(n, sweep_size=session_sweep)
            for n in session_sizes
        },
        "compile": {
            str(n): run_compile_bench(n, repeats, batch_size=compile_batch)
            for n in compile_sizes
        },
        # Rides with the compile scenario (there is nothing to rebind
        # without one): fixed size, so it is the same at every scale.
        "rebind": run_rebind_bench(repeats) if compile_sizes else {},
        "plan": planner_results,
        "kernel_lowering": {
            str(n): run_kernel_lowering_bench(n, max(2, repeats - 2))
            for n in lowering_sizes or []
        },
        "sm_kernel": {
            str(n): run_sm_kernel_bench(n, repeats) for n in sm_kernel_sizes or []
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--micro-qubits", type=int, default=20)
    parser.add_argument("--plan-qubits", type=int, default=20)
    parser.add_argument("--offload-qubits", type=int, default=20)
    parser.add_argument("--session-qubits", type=int, default=10)
    parser.add_argument(
        "--session-sweep",
        type=int,
        default=50,
        help="circuits in the session plan-cache sweep (10 with --quick)",
    )
    parser.add_argument("--compile-qubits", type=int, default=10)
    parser.add_argument(
        "--compile-batch",
        type=int,
        default=16,
        help="batch width B of the compiled (B, 2^n) execution scenario",
    )
    parser.add_argument("--lowering-qubits", type=int, default=20)
    parser.add_argument("--repeats", type=int, default=7)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small sizes, fewer repeats, and regression-check vs the baseline",
    )
    parser.add_argument("--baseline", type=Path, default=DEFAULT_BASELINE)
    parser.add_argument(
        "--output",
        type=Path,
        default=DEFAULT_BASELINE,
        help="where to write results (ignored with --quick unless --write)",
    )
    parser.add_argument(
        "--write",
        action="store_true",
        help="with --quick: overwrite the baseline instead of only checking",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=2.0,
        help="regression factor that fails the --quick check",
    )
    parser.add_argument(
        "--dump",
        type=Path,
        default=None,
        help="also write this run's results JSON here (works with --quick; "
        "does not touch the committed baseline)",
    )
    args = parser.parse_args(argv)

    if args.quick:
        micro_sizes = [min(args.micro_qubits, 16)]
        plan_sizes = [min(args.plan_qubits, 14)]
        offload_sizes = [min(args.offload_qubits, 12)]
        session_sizes = [min(args.session_qubits, 10)]
        session_sweep = min(args.session_sweep, 10)
        compile_sizes = [min(args.compile_qubits, 10)]
        planner_sweep = PLAN_SWEEP_QUICK
        lowering_sizes = [min(args.lowering_qubits, 14)]
        sm_kernel_sizes = [16]
        args.repeats = min(args.repeats, 3)
    else:
        # The full run also measures the quick sizes so `--quick` always has
        # matching baseline entries to regression-check against.
        # ... and 17 qubits, the shard size of the repo benchmark's
        # shard-stream workload.
        micro_sizes = sorted({16, 17, args.micro_qubits})
        plan_sizes = sorted({14, args.plan_qubits})
        offload_sizes = sorted({12, args.offload_qubits})
        session_sizes = sorted({10, args.session_qubits})
        session_sweep = args.session_sweep
        compile_sizes = sorted({10, args.compile_qubits})
        planner_sweep = PLAN_SWEEP_FULL
        lowering_sizes = sorted({14, args.lowering_qubits})
        # The shard size of the repo benchmark's shard-stream workload and
        # the state size of its in-core one.
        sm_kernel_sizes = [16, 17, 20]

    results = run_suite(
        micro_sizes,
        plan_sizes,
        args.repeats,
        offload_sizes,
        session_sizes,
        session_sweep,
        compile_sizes,
        args.compile_batch,
        planner_sweep,
        lowering_sizes,
        sm_kernel_sizes,
    )

    for size in micro_sizes:
        micro = results["micro"][str(size)]
        print(f"micro ({size} qubits):")
        for label, metrics in micro.items():
            if isinstance(metrics, dict):
                print(
                    f"  {label:12s} {metrics['fast_gates_per_s']:10.1f} gates/s "
                    f"(seed {metrics['ref_gates_per_s']:10.1f}; "
                    f"{metrics['speedup']:.1f}x; worst position "
                    f"{metrics['position_ratio']:.1f}x the median, at "
                    f"{metrics['worst_run']})"
                )
        print(f"  1q/2q mix speedup: {micro['mix_1q2q_speedup']:.1f}x")
        print("  wide runs at position 1 (pick vs stacked, state copies): " + ", ".join(
            f"{row['k']}q {row['plan']} {row['copies']:.1f} vs {row['stacked_copies']:.1f}"
            for row in micro["wide_low"]
        ))
    for size in plan_sizes:
        plan = results["plans"][str(size)]
        print(
            f"plan (qft-{plan['num_qubits']}, {plan['num_gates']} gates): "
            f"{plan['fast_seconds']*1e3:.1f} ms vs seed {plan['ref_seconds']*1e3:.1f} ms "
            f"({plan['speedup']:.1f}x), {plan['warm_allocations_state_sized']} "
            f"state-sized allocations warm"
        )
    for size in offload_sizes:
        offload = results["offload"][str(size)]
        print(
            f"offload (qft-{offload['num_qubits']}, "
            f"{offload['num_shards']} shards, {offload['cpu_count']} cpus): "
            f"sequential {offload['sequential_seconds']*1e3:.1f} ms"
        )
        for workers, par in offload["parallel"].items():
            exact = "bit-exact" if par["bit_exact"] else "MISMATCH"
            print(
                f"  parallel W={workers}: {par['seconds']*1e3:.1f} ms "
                f"({par['speedup_vs_sequential']:.2f}x vs sequential, {exact})"
            )
        batch = offload["batch"]
        print(
            f"  run_batch x{batch['batch_size']}: "
            f"{batch['batch_seconds_per_item']*1e3:.1f} ms/item vs "
            f"{batch['oneshot_seconds_per_item']*1e3:.1f} ms one-shot "
            f"({batch['amortization_speedup']:.2f}x)"
        )
        modelled = offload["modelled"]
        print(
            f"  modelled 4-GPU vs 1-GPU: "
            f"{modelled['speedup_4gpu_vs_1gpu']:.2f}x"
        )
    for size in session_sizes:
        sess = results["session"][str(size)]
        print(
            f"session (vqc-{sess['num_qubits']} x{sess['sweep_size']}, "
            f"{sess['num_gates']} gates each): warm {sess['warm_seconds']:.2f}s "
            f"vs cold {sess['cold_seconds']:.2f}s ({sess['speedup']:.1f}x), "
            f"{sess['plans_built']} plan built, {sess['cache_hits']} cache hits, "
            f"{sess['states_match_cold']}/{sess['sweep_size']} states match"
        )
    for size in compile_sizes:
        comp = results["compile"][str(size)]
        batched = comp["batched"]
        par = ", ".join(
            f"W={w}:{'ok' if ok else 'MISMATCH'}"
            for w, ok in comp["parallel_bit_exact"].items()
        )
        print(
            f"compile (vqc-{comp['num_qubits']}, {comp['num_gates']} gates -> "
            f"{comp['num_ops']} ops): compile {comp['compile_seconds']*1e3:.1f} ms, "
            f"rebind {comp['rebind_seconds']*1e3:.1f} ms "
            f"({comp['rebind_ops_reused']} ops reused); re-exec "
            f"{comp['compiled_seconds_per_run']*1e3:.2f} ms vs interpreter "
            f"{comp['interpreted_seconds_per_run']*1e3:.2f} ms "
            f"({comp['speedup_vs_interpreted']:.2f}x, "
            f"{'bit-exact' if comp['bit_exact_incore'] else 'MISMATCH'})"
        )
        print(
            f"  batched B={batched['batch_size']}: "
            f"{batched['batched_seconds']*1e3:.2f} ms vs loop "
            f"{batched['looped_seconds']*1e3:.2f} ms "
            f"({batched['speedup_vs_loop']:.2f}x, "
            f"{'match' if batched['states_match'] else 'MISMATCH'} "
            f"max|d|={batched['max_abs_diff']:.1e}); "
            f"offload {'ok' if comp['offload_state_matches'] else 'MISMATCH'}; "
            f"parallel {par}"
        )

    for family, reb in results["rebind"].items():
        print(
            f"rebind ({family}-{reb['num_qubits']}, {reb['num_gates']} gates -> "
            f"{reb['num_ops']} ops): {reb['rebind_seconds']*1e3:.2f} ms "
            f"({reb['rebind_ops_reused']} ops reused, {reb['rebind_ops_rebound']} "
            f"rebound, {reb['rebind_fallbacks']} fallbacks) vs cold compile "
            f"{reb['compile_seconds']*1e3:.2f} ms, run "
            f"{reb['compiled_seconds_per_run']*1e3:.2f} ms"
        )

    for size, families in results["kernel_lowering"].items():
        for family, low in families.items():
            print(
                f"kernel_lowering ({family}-{size}): {low['num_gates']} gates -> "
                f"{low['ops']} ops (per-gate stream {low['per_gate_ops']}); "
                f"{low['lowered_seconds']*1e3:.2f} ms vs per-gate "
                f"{low['per_gate_seconds']*1e3:.2f} ms "
                f"({low['speedup_vs_per_gate']:.2f}x, "
                f"max|d|={low['max_abs_diff_vs_per_gate']:.1e})"
            )

    for size, section in results["sm_kernel"].items():
        if not section["available"]:
            print(f"sm_kernel ({size} qubits): skipped, no native body ({section['reason']})")
            continue
        for family, kernels in section["families"].items():
            print(f"sm_kernel ({family}-{size}, items: native vs item loop, state copies): " + ", ".join(
                f"{k['items']}: {k['native_copies']:.1f} vs {k['item_loop_copies']:.1f}"
                for k in kernels
            ))

    planner = results.get("plan") or {}
    if planner:
        print(
            f"plan (pipeline, {len(planner['entries'])} entries): fast preset "
            f"median {planner['fast_median_speedup_vs_seed']:.2f}x / min "
            f"{planner['fast_min_speedup_vs_seed']:.2f}x vs seed planner"
        )
        for key, entry in planner["entries"].items():
            fast = entry["presets"]["fast"]
            quality = entry["presets"]["quality"]
            cost_flag = (
                "cost=" if fast["kernel_cost"] <= entry["seed_kernel_cost"] + 1e-9
                else "COST-WORSE"
            )
            print(
                f"  {key:22s} seed {entry['seed_seconds']*1e3:7.1f} ms | fast "
                f"{fast['seconds']*1e3:7.1f} ms ({fast['speedup_vs_seed']:5.2f}x, "
                f"{cost_flag}{fast['kernel_cost']:.2f} vs seed "
                f"{entry['seed_kernel_cost']:.2f}) | quality cost "
                f"{quality['kernel_cost']:.2f}"
            )

    if args.dump is not None:
        args.dump.write_text(json.dumps(results, indent=2) + "\n")
        print(f"dumped results to {args.dump}")

    if args.quick and not args.write:
        if not args.baseline.exists():
            print(f"no baseline at {args.baseline}; skipping regression check")
            return 0
        baseline = json.loads(args.baseline.read_text())
        problems = check_regression(results, baseline, args.threshold)
        if problems:
            print("REGRESSIONS:")
            for problem in problems:
                print(f"  {problem}")
            return 1
        print(f"no >{args.threshold}x regressions vs {args.baseline}")
        return 0

    args.output.write_text(json.dumps(results, indent=2) + "\n")
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
