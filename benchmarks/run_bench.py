#!/usr/bin/env python
"""Simulation-core micro gate — emits/checks ``BENCH_simcore.json``.

One rule: every number this file writes or gates is a **count**, or a
**ratio of two timings taken side by side in the same run** — an op against
``np.copyto`` of the buffer it ran on (state copies), or a speedup against
the alternative timed in the same rounds (:func:`_side_by_side`).  No second
reaches the JSON, so a host that runs everything 10x slower writes the same
file and gets the same verdict.  What a job costs in seconds, end to end and
per layer, is ``benchmarks/perf``'s question (``BENCHMARK.json``); this file
keeps what that benchmark cannot say, in six sections:

* **micro** — per gate class, the engine at **every** position of a ``2^n``
  state (``position_copies``, ``position_ratio``, ``mean_copies``) and its
  ``speedup`` over the seed tensordot reference; ``wide_low`` — k = 4..8 runs
  at position 1 through the planner's pick and the stacked matmul;
* **plan** — every family x machine shape planned by the seed planner and by
  each preset: stage counts, kernel costs and the in-run speedups;
* **compile** — one compiled program against the per-gate interpreter, and a
  ``(B, 2^n)`` stack against a B-loop of single-state runs;
* **rebind** — what a plan-cache hit costs to bind, in runs of the program it
  binds, and which ops it reused / refilled / recompiled;
* **kernel_lowering** — the compiled op stream against one op per gate of
  every shared-memory kernel: the exact fold and the speedup;
* **sm_kernel** — the kernel op's native body against its item loop, per
  shared-memory kernel, in state copies.

:data:`RULES` is the whole gate: one row per gated path, walked by
:func:`check_regression`.  Usage::

    PYTHONPATH=src python benchmarks/run_bench.py            # full run, writes BENCH_simcore.json
    PYTHONPATH=src python benchmarks/run_bench.py --quick    # small sizes, checked against it
    PYTHONPATH=src python benchmarks/run_bench.py --quick --write   # baseline at quick scale

Exit status 1 on any finding (``--threshold``, default 2x, is the slack of
the ``ratio`` rows).  ``pytest -m bench benchmarks/test_simcore_micro.py``
runs the same sections with their floors as assertions.
"""

from __future__ import annotations

import argparse
import json
import operator
import os
import sys
import time
from pathlib import Path
from typing import Callable, NamedTuple

if __name__ == "__main__":
    # One BLAS thread, set before NumPy sizes its pools (what benchmarks/perf
    # does): on a small shared host a threaded gemm of these shapes stalls
    # for milliseconds at a time, which no ratio to a memcpy can cancel.
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_var, "1")

REPO_ROOT = Path(__file__).resolve().parents[1]
try:  # allow "python benchmarks/run_bench.py" without PYTHONPATH
    import repro  # noqa: F401
except ImportError:  # pragma: no cover
    sys.path.insert(0, str(REPO_ROOT / "src"))

import numpy as np

from repro.circuits import Circuit, make_gate
from repro.circuits.gates import gate_matrix
from repro.circuits.library import ghz, graphstate, ising, qft, qsvm, su2random, vqc, wstate
from repro.cluster import MachineConfig
from repro.core import KernelizeConfig, partition
from repro.core.kernel import KernelType
from repro.planner import PassManager, resolve_planner
from repro.runtime import compile_plan, execute_plan
from repro.session.cache import rebind_plan
from repro.sim import StateVector, apply_matrix_reference, native
from repro.sim import apply as apply_mod
from repro.sim.apply import apply_gate_buffered, kernel_template
from repro.sim.fusion import kernel_items, lower_kernel_gates
from repro.sim.program import Workspace, compile_unitary_op

DEFAULT_BASELINE = REPO_ROOT / "BENCH_simcore.json"
SCHEMA = 12

#: Gate classes of the micro benchmark: name -> (matrix factory, #qubits).
GATE_CLASSES = {
    "dense_1q": (lambda: gate_matrix("h"), 1),
    "dense_2q": (lambda: _random_unitary(4, seed=7), 2),
    "diagonal": (lambda: gate_matrix("cp", [0.3]), 2),
    "permutation": (lambda: gate_matrix("cx"), 2),
    "controlled": (lambda: gate_matrix("ch"), 2),
    "fused_3q": (lambda: _random_unitary(8, seed=9), 3),
}

#: Widths past the position sweep (a fusion kernel holds up to 8 qubits),
#: timed at the one start position where the planner's rule for them is not
#: the mid-register one: a run starting at position 1 takes the 2x-inflated
#: right gemm instead of the stacked matmul with a post dimension of 2.
WIDE_LOW_WIDTHS = (4, 5, 6, 7, 8)

#: Circuit families of the planning sweep, by name.
PLAN_FAMILIES = {f.__name__: f for f in (qft, ghz, vqc, ising, graphstate, wstate)}
#: (family, qubits) entries of the planning sweep; ``--quick`` runs the
#: first :data:`PLAN_SWEEP_QUICK` of them.
PLAN_SWEEP = (
    ("qft", 10), ("ghz", 10), ("vqc", 8),
    ("qft", 12), ("ising", 12), ("graphstate", 12), ("wstate", 12), ("vqc", 10),
)
PLAN_SWEEP_QUICK = PLAN_SWEEP[:3]
PLAN_PRESETS = ("fast", "balanced", "quality")

#: Batch width B of the compile scenario's stacked pass.
COMPILE_BATCH = 16

#: Families of the rebind scenario: the three warm-sweep structures of the
#: repo benchmark's service workload, at its size and on its machine.
REBIND_FAMILIES = {"vqc": lambda n: vqc(n, ansatz_reps=1), "ising": ising, "qsvm": qsvm}
REBIND_QUBITS = 12
REBINDS = 20

#: Families of the lowering scenarios: diagonal-heavy (qft), cx·rz·cx
#: sandwiches (ising) and all-to-all CX networks (su2random).
LOWERING_FAMILIES = {"qft": qft, "ising": ising, "su2random": lambda n: su2random(n, reps=1)}

#: What each section runs at: (``--quick``, full run).  The full run holds
#: the quick sizes, so ``--quick`` always finds its baseline entries; 17 is
#: the shard size of the repo benchmark's shard-stream workload, 20 the
#: state size of its in-core one.
SIZES = {
    "repeats": (3, 7),
    "micro": ((16,), (16, 17, 20)),
    "plan": (PLAN_SWEEP_QUICK, PLAN_SWEEP),
    "compile": ((10,), (10,)),
    "kernel_lowering": ((14,), (14, 20)),
    "sm_kernel": ((16,), (16, 17, 20)),
}


def _random_unitary(dim: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    unitary, _ = np.linalg.qr(raw)
    return unitary


#: The unit of a cost in state copies is a *warm* ``np.copyto``: timed this
#: many times in a row, because the first two after a heavy op find caches
#: and TLB as the op left them and read 2x slow (the third 1.2x).
WARM_COPIES = 4

#: A measurement keeps taking rounds until it has run this long, so a cheap
#: one gets many samples per side.
SETTLE_SECONDS = 0.05


def _side_by_side(
    rounds: int, *timed: tuple[object, Callable[[], object]], settle: float = SETTLE_SECONDS
) -> dict:
    """Best time per name over at least *rounds* rounds (and *settle*
    seconds) of the ``(name, fn)`` pairs, run in turn within each round —
    the one clock of this file.

    The minimum is the sample least polluted by the host; taking turns puts
    every side of a ratio in the same stretches of it, so a slow second
    lands on numerator and denominator alike.  The clock is this thread's
    CPU time (everything timed here runs on it, BLAS pinned to one thread):
    time spent descheduled under a busy neighbour is not the op's.  A name
    may repeat within a round (the state copy): it keeps its best sample.
    """
    best = {name: float("inf") for name, _ in timed}
    began = time.thread_time()
    while rounds > 0 or time.thread_time() - began < settle:
        rounds -= 1
        for name, fn in timed:
            start = time.thread_time()
            fn()
            best[name] = min(best[name], time.thread_time() - start)
    return best


# --- Micro benchmark: the position sweep ---


def _sweep_positions(n: int, k: int) -> list[list[int]]:
    """Every contiguous run of *k* positions, bottom to top — the dense
    planner's cliffs sit at single positions, and sampling low / middle /
    high is how they stayed unseen — then, for 2q gates, a reversed, a
    register-spanning and a mid-distance pair."""
    runs = [list(range(q0, q0 + k)) for q0 in range(n - k + 1)]
    if k == 2:
        runs += [[1, 0], [0, n - 1], [2, n // 2]]
    return runs


def run_micro(num_qubits: int, repeats: int) -> dict:
    """Per gate class, the engine position by position, in state copies:
    ``position_copies`` is the cost at each contiguous position, lowest
    first (the table the dense planner's thresholds and the dense-run fold
    are read off), ``position_ratio`` the worst of them over the median one
    (``worst_run`` names it) — the number that shows a planner cliff —
    ``mean_copies`` the class mean over every swept tuple, ``speedup`` that
    mean against the seed tensordot reference (which does the same work
    wherever the gate sits, so it runs every fourth tuple).  The state copy
    is timed in every pass over the positions."""
    rng = np.random.default_rng(0)
    state = rng.normal(size=1 << num_qubits) + 1j * rng.normal(size=1 << num_qubits)
    state /= np.linalg.norm(state)
    buffers = [state, np.empty_like(state)]

    def copy():
        np.copyto(buffers[1], buffers[0])

    results = {}
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

        timed = [(index, lambda q=qubits: run_fast(q)) for index, qubits in enumerate(sweeps)]
        best = _side_by_side(repeats, *timed, *[("copy", copy)] * WARM_COPIES)
        # Apart: its state-sized temporaries leave caches and TLB cold for
        # whatever runs next.
        best.update(_side_by_side(repeats, ("reference", run_reference), settle=0.0))
        per_tuple = np.array([best[index] for index in range(len(sweeps))])
        contiguous = per_tuple[: num_qubits - k + 1]
        fast = float(np.mean(per_tuple))
        results[label] = {
            "mean_copies": round(fast / best["copy"], 3),
            "speedup": best["reference"] / len(sweeps[::4]) / fast,
            "position_copies": [round(s / best["copy"], 2) for s in contiguous],
            "position_ratio": float(np.max(contiguous) / np.median(contiguous)),
            "worst_run": sweeps[int(np.argmax(contiguous))],
        }
    speedups = [results[c]["speedup"] for c, (_, k) in GATE_CLASSES.items() if k <= 2]
    results["mix_1q2q_speedup"] = float(np.exp(np.mean(np.log(speedups))))
    results["wide_low"] = _wide_low_runs(num_qubits, buffers, copy, repeats)
    return results


def _wide_low_runs(num_qubits: int, buffers: list, copy, repeats: int) -> list[dict]:
    """Per width of :data:`WIDE_LOW_WIDTHS`, the run starting at position 1
    through the planner's pick and through the stacked matmul it is chosen
    over, both in state copies — so that rule stays a measurement too."""
    rows = []
    for k in WIDE_LOW_WIDTHS:
        qubits = tuple(range(1, 1 + k))
        matrix = _random_unitary(1 << k, seed=k)
        plan = apply_mod._dense_plan_impl(matrix, num_qubits, qubits)
        stacked = ("stacked", matrix, 1 << (num_qubits - k - 1), 1 << k, 2)
        best = _side_by_side(
            repeats,
            ("pick", lambda: apply_mod.run_dense_plan(plan, buffers[0], buffers[1])),
            ("stacked", lambda: apply_mod.run_dense_plan(stacked, buffers[0], buffers[1])),
            *[("copy", copy)] * WARM_COPIES,
        )
        rows.append({
            "k": k,
            "plan": plan[0],
            "copies": round(best["pick"] / best["copy"], 2),
            "stacked_copies": round(best["stacked"] / best["copy"], 2),
            "vs_stacked": best["pick"] / best["stacked"],
        })
    return rows


# --- Compiled programs: against the interpreter, stacked against looped, rebind ---


def run_compile_bench(num_qubits: int, repeats: int) -> dict:
    """One plan lowered once and re-executed, against the per-gate
    interpreter on the same plan (both bind the same kernel ops, so the
    ratio is what compiling saves in dispatch), and a ``(B, 2^n)`` stacked
    pass against a B-loop of single-state runs — the one place a stacked
    pass is priced."""
    machine = MachineConfig.for_circuit(num_qubits, num_shards=4, local_qubits=num_qubits - 2)
    circuit = vqc(num_qubits, seed=0)
    plan, _ = partition(circuit, machine, kernelize_config=KernelizeConfig(pruning_threshold=16))
    program = compile_plan(plan, machine)
    # A structurally identical circuit with new angles refills only the
    # ops that absorbed one (constant-structure ops are kept verbatim).
    rebound = compile_plan(rebind_plan(plan, vqc(num_qubits, seed=1)), machine, reuse=program)
    states = [StateVector.random_state(num_qubits, seed=seed) for seed in range(COMPILE_BATCH)]
    timed = (
        ("interpreted", lambda: execute_plan(plan, machine=machine, compiled=False)),
        ("compiled", program.run_view),
        ("looped", lambda: [program.run_view(state) for state in states]),
        ("batched", lambda: program.run_batched_view(states)),
    )
    for _, warm in timed:  # workspace, batch pair, fused unitaries
        warm()
    best = _side_by_side(repeats, *timed)
    return {
        "circuit": "vqc",
        "num_qubits": num_qubits,
        "num_gates": len(circuit),
        "num_ops": len(program.ops),
        "op_counts": program.op_counts(),
        "rebind_ops_reused": rebound.ops_reused,
        "speedup_vs_interpreted": best["interpreted"] / best["compiled"],
        "batched": {"batch_size": COMPILE_BATCH, "speedup_vs_loop": best["looped"] / best["batched"]},
    }


def run_rebind_bench() -> dict:
    """What a plan-cache hit costs to bind: ``compile_plan(reuse=)`` of
    freshly drawn angles, in runs of the program it binds (timed in the
    same rounds) and against one cold compile plus two runs.  A rebind is a
    numeric fill over the cached program's structure, so it must stay well
    under a recompile — and on generic angles it must never fall back to
    one."""
    n = REBIND_QUBITS
    machine = MachineConfig.for_circuit(n, num_shards=4)
    rng = np.random.default_rng(0)

    def redraw(template):
        circuit = Circuit(n, [
            make_gate(g.name, g.qubits, rng.uniform(0.1, 6.0, len(g.params)))
            for g in template.gates
        ])
        # A hit found its entry by this key, which leaves every gate's
        # pattern cached for the rebind guard: not part of the bind.
        circuit.structural_key()
        return circuit

    out = {}
    for family, build in REBIND_FAMILIES.items():
        template = build(n)
        plan, _ = partition(redraw(template), machine)
        programs = []
        compiling = ("compile", lambda: programs.append(compile_plan(plan, machine)))
        cold = _side_by_side(1, compiling, settle=0.0)
        (program,) = programs
        program.run_view()  # warm (allocates the workspace)
        plans = iter([rebind_plan(plan, redraw(template)) for _ in range(REBINDS)])
        rebounds = []
        best = _side_by_side(
            REBINDS,
            ("rebind", lambda: rebounds.append(compile_plan(next(plans), machine, reuse=program))),
            ("run", program.run_view),
            settle=0.0,
        )
        out[family] = {
            "num_qubits": n,
            "num_gates": len(template),
            "num_ops": len(program.ops),
            "rebind_ops_reused": rebounds[-1].ops_reused,
            "rebind_ops_rebound": rebounds[-1].ops_rebound,
            "rebind_fallbacks": sum(bool(r.ops_recompiled) for r in rebounds),
            "rebind_vs_run": best["rebind"] / best["run"],
            "rebind_vs_budget": best["rebind"] / (cold["compile"] + 2 * best["run"]),
        }
    return out


# --- Shared-memory kernels: the lowering's fold, the kernel op's two bodies ---


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


def run_kernel_lowering_bench(num_qubits: int, repeats: int) -> dict:
    """Lowered op stream versus a per-gate stream of the same plans: gates,
    ops emitted, the exact fold (gates per op, as the count pair — a
    property of plan and lowering, not of the host) and the speedup."""
    machine = MachineConfig.for_circuit(num_qubits)
    size = 1 << num_qubits
    out = {}
    for family, factory in LOWERING_FAMILIES.items():
        plan, _ = partition(factory(num_qubits), machine)
        program = compile_plan(plan, machine)
        per_gate = _per_gate_stream(plan, program)
        ws = program.workspace

        def run(ops):
            state, scratch = ws.pair(size)
            state[:] = 0.0
            state[0] = 1.0
            for op in ops:
                state, scratch = op.run(state, scratch, ws)

        timed = (("lowered", lambda: run(program.ops)), ("per_gate", lambda: run(per_gate)))
        for _, warm in timed:
            warm()
        best = _side_by_side(repeats, *timed)
        out[family] = {
            "num_qubits": num_qubits,
            "num_gates": program.num_gates,
            "num_kernels": program.num_kernels,
            "ops": len(program.ops),
            "per_gate_ops": len(per_gate),
            "op_counts": program.op_counts(),
            "fold": [program.num_gates, len(program.ops)],
            "speedup_vs_per_gate": best["per_gate"] / best["lowered"],
        }
    return out


def run_sm_kernel_bench(num_qubits: int, repeats: int) -> dict:
    """The kernel op's two bodies, per shared-memory kernel of the lowering
    families' in-core plans: items, and one application in state copies
    through the native body (one pass over the state) and through the item
    loop (a sweep per item).  Recorded as unavailable, with the reason,
    where :func:`repro.sim.native.status` says the library was not built."""
    status = native.status()
    if not status["available"]:
        return {"available": False, "reason": status["reason"]}
    machine = MachineConfig.for_circuit(num_qubits)
    ws = Workspace()
    state, scratch = ws.pair(1 << num_qubits)
    state[:] = 1.0 / (1 << (num_qubits // 2))
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
            native_body, item_loop = template.bind(items), template.item_loop(items)
            best = _side_by_side(
                repeats,
                ("native", lambda: native_body(state, scratch, ws)),
                ("item_loop", lambda: item_loop(state, scratch, ws)),
                *[("copy", lambda: np.copyto(scratch, state))] * WARM_COPIES,
            )
            rows.append({
                "qubits": len(kernel.qubits),
                "items": len(items),
                "native": template.native,
                "native_copies": best["native"] / best["copy"],
                "item_loop_copies": best["item_loop"] / best["copy"],
            })
        families[family] = rows
    return {"available": True, "families": families}


# --- Planning pipeline (cold path) ---


def _seed_planner() -> PassManager:
    """The seed planner as a pipeline: the ILP stager with no pass-level
    shortcut (a fits-locally circuit still goes through the solver) plus
    the reference beam DP — the pre-pipeline ``partition()`` code path,
    pass for pass.  Staging itself is ``stage_circuit``, the same for
    every planner, so the stage counts must agree exactly."""
    stage = {"stager": "ilp", "single_stage_shortcut": False, "ilp_time_limit": 120.0}
    return PassManager(
        [
            ("analyze", {}),
            ("stage", stage),
            ("kernelize", {"kernelizer": "atlas-ref"}),
            ("finalize", {}),
        ],
        preset="seed",
    )


def run_plan_pipeline_bench(sweep, repeats: int) -> dict:
    """Plan quality and in-run cold-plan speedup per preset vs the seed
    planner: every (family, qubits) entry is planned on two machine shapes —
    a 4-shard split (staging required) and a single-shard machine (the
    fits-locally shortcut territory) — by the seed planner and by each
    preset, taking turns.  ``ladder_slack`` is how far the preset quality
    ladder (quality <= balanced <= fast kernel cost) is from monotone: the
    larger of the two steps, <= 0 when it holds."""
    entries: dict[str, dict] = {}
    for family_name, n in sweep:
        circuit = PLAN_FAMILIES[family_name](n)
        for shape, machine in (
            ("sharded", MachineConfig.for_circuit(n, num_shards=4, local_qubits=n - 2)),
            ("local", MachineConfig.for_circuit(n, num_shards=1)),
        ):
            managers = {"seed": _seed_planner()}
            managers.update({preset: resolve_planner(preset) for preset in PLAN_PRESETS})
            planned = {}
            best = _side_by_side(repeats, *(
                (name, lambda name=name: planned.update({name: managers[name].run(circuit, machine)}))
                for name in managers
            ))
            seed_plan, seed_report = planned["seed"]
            seed_staging = [stage.gate_indices for stage in seed_plan.stages]
            presets = {}
            for preset in PLAN_PRESETS:
                plan, report = planned[preset]
                plan.validate(circuit)
                presets[preset] = {
                    "speedup_vs_seed": best["seed"] / best[preset],
                    "kernel_cost": report.total_kernel_cost,
                    "num_stages": report.num_stages,
                    "num_kernels": report.num_kernels,
                    "staging_matches_seed": (
                        [stage.gate_indices for stage in plan.stages] == seed_staging
                    ),
                    "passes_skipped": dict(report.passes_skipped),
                }
            costs = [presets[preset]["kernel_cost"] for preset in PLAN_PRESETS]
            entries[f"{family_name}-{n}/{shape}"] = {
                "family": family_name,
                "num_qubits": n,
                "num_gates": len(circuit),
                "shape": shape,
                "seed_kernel_cost": seed_report.total_kernel_cost,
                "seed_stages": seed_report.num_stages,
                "ladder_slack": max(costs[1] - costs[0], costs[2] - costs[1]),
                "presets": presets,
            }
    speedups = [entry["presets"]["fast"]["speedup_vs_seed"] for entry in entries.values()]
    return {
        "entries": entries,
        "fast_median_speedup_vs_seed": float(np.median(speedups)),
        "fast_min_speedup_vs_seed": float(np.min(speedups)),
    }


# --- The gate ---


class Rule(NamedTuple):
    """One gated path of the result tree.  *path* is dotted; ``*`` matches
    every key or list index, ``a|b`` the named keys.  *kind*: ``count`` —
    equal, exactly, to *bound*, or with no bound to the baseline's value at
    the same path; ``ratio`` — not worse than the baseline's by more than
    ``--threshold`` (*bound* says which way is better, ``"higher"`` /
    ``"lower"``); ``floor`` / ``ceiling`` — a bound within this run.  A
    *bound* given as a field name is read from the nearest enclosing record
    that has it (``num_stages`` against its entry's ``seed_stages``); *when*
    restricts the rule to the records it accepts."""

    path: str
    kind: str
    bound: object
    why: str
    when: Callable[[dict], bool] | None = None


RULES = (
    Rule("micro.*.fused_3q.speedup", "floor", 1.5,
         "a fused 3q matrix runs as one streaming gemm, ahead of the tensordot reference"),
    # A position cliff moves this ratio, not the class mean; gated for the
    # classes the dense planner places at every position (a structured
    # gate's median is an in-place kernel too short for a stable ratio).
    Rule("micro.*.dense_1q|dense_2q|fused_3q.position_ratio", "ratio", "lower",
         "worst position over the median one: a dense-planner cliff"),
    Rule("micro.*.*.mean_copies", "ratio", "lower", "class mean cost, in state copies"),
    Rule("micro.*.wide_low.*.vs_stacked", "ceiling", 1.25,
         "the planner's pick for a wide run at position 1 must not lose to the stacked matmul"),
    Rule("plan.fast_median_speedup_vs_seed", "floor", 2.0,
         "the fast preset plans at least 2x faster than the seed planner at the median"),
    Rule("plan.entries.*.presets.*.num_stages", "count", "seed_stages",
         "every planner stages through stage_circuit: another count is a second staging"),
    Rule("plan.entries.*.presets.fast.staging_matches_seed", "count", True,
         "the fast preset holds the seed planner's stages"),
    Rule("plan.entries.*.presets.fast.kernel_cost", "count", "seed_kernel_cost",
         "same stages, same kernels, the same float: fast_kernelize != the reference kernelize"),
    Rule("plan.entries.*.ladder_slack", "ceiling", 1e-9,
         "the preset quality ladder is monotone (quality <= balanced <= fast kernel cost)"),
    Rule("plan.entries.*.presets.fast.speedup_vs_seed", "ratio", "higher",
         "the fast preset's lead over the seed planner"),
    Rule("compile.*.num_ops|rebind_ops_reused", "count", None,
         "ops a plan compiles to, ops a rebind keeps verbatim"),
    Rule("compile.*.speedup_vs_interpreted", "floor", 1.0,
         "a compiled program is never slower than the interpreter on the same plan"),
    Rule("compile.*.batched.speedup_vs_loop", "floor", 1.5,
         "a stacked pass beats the single-state loop"),
    Rule("rebind.*.rebind_fallbacks", "count", 0,
         "a rebind of generic angles never falls back to a structural compile"),
    Rule("rebind.*.rebind_ops_reused|rebind_ops_rebound", "count", None,
         "which ops a rebind keeps and which it refills"),
    Rule("rebind.*.rebind_vs_budget", "ceiling", 1.0,
         "a rebind is a fill: under one cold compile plus two runs"),
    Rule("rebind.*.rebind_vs_run", "ratio", "lower", "a rebind, in runs of its program"),
    Rule("kernel_lowering.*.*.fold|per_gate_ops", "count", None,
         "the fold is a property of plan and lowering, not of the host"),
    Rule("kernel_lowering.*.*.speedup_vs_per_gate", "ratio", "higher",
         "the lowered stream's lead over one op per gate"),
    Rule("sm_kernel.*.families.*.*.native_copies", "ceiling", "item_loop_copies",
         "on a kernel of three or more items the native body is no slower than the item loop",
         when=lambda kernel: kernel["items"] >= 3),
)

#: What must hold between a value and its bound, per kind, and how a finding
#: says it did not: "<path>: <value> is not <this> <bound>".
RELATIONS = {"count": ("equal to", operator.eq), "floor": ("at least", operator.ge),
             "ceiling": ("at most", operator.le)}


def _matches(node, parts: list[str], path: tuple = (), scope: tuple = ()):
    """``(path, value, enclosing records)`` for every value of *node* that
    the pattern *parts* reaches."""
    if not parts:
        yield path, node, scope
        return
    head, rest = parts[0], parts[1:]
    if isinstance(node, dict):
        keys = list(node) if head == "*" else [key for key in head.split("|") if key in node]
        scope = scope + (node,)
    elif isinstance(node, list) and head == "*":
        keys = range(len(node))
    else:
        return
    for key in keys:
        yield from _matches(node[key], rest, path + (key,), scope)


def _at(tree, path: tuple):
    """The value of *tree* at *path*, ``None`` where it has none."""
    for key in path:
        try:
            tree = tree[key]
        except (KeyError, IndexError, TypeError):
            return None
    return tree


def check_regression(current: dict, baseline: dict, threshold: float = 2.0) -> list[str]:
    """Human-readable findings of *current* against :data:`RULES`, one per
    violated ``(rule, path)``.  A ``ratio`` rule and a ``count`` rule without
    a bound read *baseline* at the same path — what it does not hold (another
    size, a new key) is not compared; every other rule is a property of
    *current* alone."""
    problems = []
    for rule in RULES:
        for path, value, scope in _matches(current, rule.path.split(".")):
            if rule.when is not None and not rule.when(scope[-1]):
                continue
            if rule.kind == "ratio" or rule.bound is None:
                bound, source = _at(baseline, path), "the baseline's "
                if bound is None:
                    continue
            elif isinstance(rule.bound, str):
                bound = next(r[rule.bound] for r in reversed(scope) if rule.bound in r)
                source = f"this run's {rule.bound} "
            else:
                bound, source = rule.bound, ""
            if rule.kind == "ratio":
                relation = f"within {threshold:g}x of"
                ok = value * threshold >= bound if rule.bound == "higher" else value <= bound * threshold
            else:
                relation, holds = RELATIONS[rule.kind]
                ok = holds(value, bound)
            if not ok:
                show = repr if rule.kind == "count" else "{:.3g}".format
                problems.append(
                    f"{'.'.join(map(str, path))}: {show(value)} is not {relation} "
                    f"{source}{show(bound)} — {rule.why}"
                )
    return problems


# --- Suite, report, CLI ---


def run_suite(sizes: dict) -> dict:
    """Every section at *sizes* (the shape of one column of :data:`SIZES`)."""
    repeats = sizes["repeats"]
    # The planning sweep runs first: its seed-vs-preset ratios are the most
    # allocation-sensitive measurement in the suite, so it should not
    # inherit a heap fragmented by the state-vector scenarios.
    planner = run_plan_pipeline_bench(sizes["plan"], min(3, repeats))
    return {
        "schema": SCHEMA,
        "config": sizes,
        "micro": {str(n): run_micro(n, repeats) for n in sizes["micro"]},
        "compile": {str(n): run_compile_bench(n, repeats) for n in sizes["compile"]},
        "rebind": run_rebind_bench(),
        "plan": planner,
        "kernel_lowering": {str(n): run_kernel_lowering_bench(n, repeats) for n in sizes["kernel_lowering"]},
        "sm_kernel": {str(n): run_sm_kernel_bench(n, repeats) for n in sizes["sm_kernel"]},
    }


def report(results: dict) -> None:
    """Print *results* section by section."""
    for size, micro in results["micro"].items():
        print(f"micro ({size} qubits):")
        for label in GATE_CLASSES:
            m = micro[label]
            print(
                f"  {label:12s} {m['mean_copies']:6.2f} state copies "
                f"({m['speedup']:.1f}x the tensordot reference; worst position "
                f"{m['position_ratio']:.1f}x the median, at {m['worst_run']})"
            )
        print(f"  1q/2q mix speedup: {micro['mix_1q2q_speedup']:.1f}x")
        print("  wide runs at position 1 (pick vs stacked, state copies): " + ", ".join(
            f"{row['k']}q {row['plan']} {row['copies']:.1f} vs {row['stacked_copies']:.1f}"
            for row in micro["wide_low"]
        ))
    for c in results["compile"].values():
        print(
            f"compile (vqc-{c['num_qubits']}, {c['num_gates']} gates -> {c['num_ops']} ops, "
            f"{c['rebind_ops_reused']} reused by a rebind): {c['speedup_vs_interpreted']:.2f}x the "
            f"interpreter; batched B={c['batched']['batch_size']} "
            f"{c['batched']['speedup_vs_loop']:.2f}x the loop"
        )
    for family, r in results["rebind"].items():
        print(
            f"rebind ({family}-{r['num_qubits']}, {r['num_gates']} gates -> {r['num_ops']} ops): "
            f"{r['rebind_vs_run']:.1f} runs of the program, {r['rebind_vs_budget']:.2f} of a cold "
            f"compile plus two runs ({r['rebind_ops_reused']} ops reused, "
            f"{r['rebind_ops_rebound']} rebound, {r['rebind_fallbacks']} fallbacks)"
        )
    for size, families in results["kernel_lowering"].items():
        for family, low in families.items():
            print(
                f"kernel_lowering ({family}-{size}): {low['num_gates']} gates -> {low['ops']} ops "
                f"(per-gate stream {low['per_gate_ops']}), "
                f"{low['speedup_vs_per_gate']:.2f}x the per-gate stream"
            )
    for size, section in results["sm_kernel"].items():
        if not section["available"]:
            print(f"sm_kernel ({size} qubits): skipped, no native body ({section['reason']})")
        for family, kernels in section.get("families", {}).items():
            print(f"sm_kernel ({family}-{size}, items: native vs item loop, state copies): " + ", ".join(
                f"{k['items']}: {k['native_copies']:.1f} vs {k['item_loop_copies']:.1f}"
                for k in kernels
            ))
    planner = results["plan"]
    print(
        f"plan (pipeline, {len(planner['entries'])} entries): fast preset median "
        f"{planner['fast_median_speedup_vs_seed']:.2f}x / min "
        f"{planner['fast_min_speedup_vs_seed']:.2f}x vs seed planner"
    )
    for key, entry in planner["entries"].items():
        print(
            f"  {key:22s} {entry['seed_stages']} stage(s), seed cost "
            f"{entry['seed_kernel_cost']:.2f} | " + " | ".join(
                f"{name} {preset['speedup_vs_seed']:5.2f}x cost {preset['kernel_cost']:.2f}"
                for name, preset in entry["presets"].items()
            )
        )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small sizes, checked against the committed baseline instead of replacing it")
    parser.add_argument("--write", action="store_true",
                        help="with --quick: write the baseline (at quick scale) instead of checking")
    parser.add_argument("--dump", type=Path, default=None,
                        help="also write this run's results JSON here (does not touch the baseline)")
    parser.add_argument("--threshold", type=float, default=2.0,
                        help="how much worse than the baseline's a ratio may read")
    args = parser.parse_args(argv)

    results = run_suite({key: value[0 if args.quick else 1] for key, value in SIZES.items()})
    report(results)
    if args.dump is not None:
        args.dump.write_text(json.dumps(results, indent=2) + "\n")
        print(f"dumped results to {args.dump}")

    write = args.write or not args.quick
    checked = not write and DEFAULT_BASELINE.exists()
    baseline = json.loads(DEFAULT_BASELINE.read_text()) if checked else {}
    problems = check_regression(results, baseline, args.threshold)
    if problems:
        print("FINDINGS:", *problems, sep="\n  ")
        return 1
    if write:
        DEFAULT_BASELINE.write_text(json.dumps(results, indent=2) + "\n")
        print(f"wrote {DEFAULT_BASELINE}")
    else:
        print(f"no finding against {DEFAULT_BASELINE} at {args.threshold}x")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
