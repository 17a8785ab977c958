#!/usr/bin/env python
"""Deep dive into the two partitioning levels: staging and kernelization.

This example looks *inside* the Atlas pipeline rather than at end-to-end
times:

* staging — compares the ILP stager with the SnuQS-style greedy heuristic on
  the same circuit across a range of local-qubit budgets (the paper's
  Figure 9 ablation), showing that the ILP always needs at most as many
  stages;
* kernelization — compares KERNELIZE, ORDERED-KERNELIZE and the greedy
  5-qubit packer on one stage (the paper's Figure 10 ablation), printing the
  kernel widths each strategy chooses;
* plan provenance — the same pipeline driven through the
  :class:`repro.Session` facade, showing what its structural plan cache
  stores and when a second circuit hits it;
* planning presets — every registered preset of the PassManager pipeline
  (``balanced``, the default, and ``quality``) on one circuit: cold-plan
  latency, kernel cost, and the per-pass telemetry each report carries
  (see ``docs/planning.md``).

Run with:  python examples/partitioning_deep_dive.py
"""

import time

from repro import MachineConfig, Session, available_presets, build_plan
from repro.circuits.library import ising, qft, vqc
from repro.core import (
    KernelizeConfig,
    greedy_kernelize,
    kernelize,
    ordered_kernelize,
    snuqs_stage_circuit,
    stage_circuit,
)


def staging_study() -> None:
    num_qubits = 16
    circuit = ising(num_qubits)
    print(f"Staging study on {circuit.name} ({len(circuit)} gates)")
    print(f"{'L':>3} | {'ILP stages':>10} | {'SnuQS stages':>12}")
    print("-" * 33)
    for local in range(8, num_qubits + 1, 2):
        non_local = num_qubits - local
        regional = min(2, non_local)
        global_ = non_local - regional
        ilp = stage_circuit(circuit, local, regional, global_)
        greedy = snuqs_stage_circuit(circuit, local, regional, global_)
        print(f"{local:>3} | {ilp.num_stages:>10} | {greedy.num_stages:>12}")
        assert ilp.num_stages <= greedy.num_stages
    print()


def kernelization_study() -> None:
    circuit = qft(16)
    print(f"Kernelization study on {circuit.name} ({len(circuit)} gates)")
    strategies = {
        "KERNELIZE (Atlas)": lambda c: kernelize(c, config=KernelizeConfig(pruning_threshold=64)),
        "ORDERED-KERNELIZE": ordered_kernelize,
        "greedy 5-qubit packing": greedy_kernelize,
    }
    for name, fn in strategies.items():
        kernels = fn(circuit)
        widths = kernels.widths()
        print(
            f"  {name:<24} cost {kernels.total_cost:7.2f}  "
            f"kernels {len(kernels):3d}  widths {sorted(set(widths))}"
        )
    print()


def provenance_study() -> None:
    num_qubits = 12
    machine = MachineConfig.for_circuit(num_qubits, num_shards=4, local_qubits=10)
    print("Plan provenance through the Session facade")
    with Session(machine, backend="incore") as session:
        first = session.run(vqc(num_qubits, seed=0), execute=False).modelled()
        print(
            f"  {first.circuit_name}: cache_hit={first.cache_hit}, "
            f"staging {first.report.staging_seconds * 1e3:.1f} ms, "
            f"kernelization {first.report.kernelization_seconds * 1e3:.1f} ms"
        )
        # Same structure, different rotation angles: the partitioner is
        # skipped and the cached plan is re-bound to the new gates.
        second = session.run(vqc(num_qubits, seed=1), execute=False).modelled()
        print(
            f"  {second.circuit_name}: cache_hit={second.cache_hit}, "
            f"report={second.report} (no preprocessing ran)"
        )
        assert second.cache_hit and second.report is None
        print(f"  session stats: {session.stats.as_dict()}")
    print()


def preset_study() -> None:
    num_qubits = 12
    circuit = qft(num_qubits)
    machine = MachineConfig.for_circuit(num_qubits, num_shards=4, local_qubits=10)
    print("Planning presets on", circuit.name)
    for preset in available_presets():
        start = time.perf_counter()
        plan, report = build_plan(circuit, machine, planner=preset)
        elapsed = time.perf_counter() - start
        skipped = ", ".join(report.passes_skipped) or "none"
        print(
            f"  {preset:<9} {elapsed * 1e3:7.1f} ms  cost "
            f"{report.total_kernel_cost:6.2f}  stages {report.num_stages}  "
            f"pipeline {' -> '.join(report.pipeline)}  skipped: {skipped}"
        )
    # A single-shard machine needs no staging solver at all: the staging
    # certificate proves its one zero-cost stage optimal.
    local_machine = MachineConfig.for_circuit(num_qubits, num_shards=1)
    _plan, report = build_plan(circuit, local_machine)
    stage = report.pass_metrics["stage"]
    print(
        f"  single-shard machine: staging {stage['solver_status']}, "
        f"{stage['num_solves']} solves"
    )
    print()


if __name__ == "__main__":
    staging_study()
    kernelization_study()
    provenance_study()
    preset_study()
