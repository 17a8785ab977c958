"""Experiment drivers — one function per table / figure of the paper.

Every driver is parameterised by problem size so that the same code path
can run both the quick "smoke" configuration used by the test suite and
the paper-scale configuration used by the benchmark harness.  The mapping
from paper experiment to driver is recorded in DESIGN.md and the measured
outputs in EXPERIMENTS.md.

All drivers return plain dictionaries / row lists, which
:mod:`repro.analysis.reporting` renders as text tables.
"""

from __future__ import annotations

import math
import time
from typing import Iterable, Sequence

from ..baselines import QdaoSimulator
from ..circuits.library import PAPER_FAMILIES, get_circuit, hhl
from ..cluster.costmodel import DEFAULT_COST_MODEL, CostModel
from ..cluster.machine import MachineConfig
from ..core.fast_kernelize import fast_kernelize
from ..core.greedy_kernelize import greedy_kernelize
from ..core.kernelize import KernelizeConfig
from ..core.ordered_kernelize import ordered_kernelize
from ..core.stage import stage_circuit
from ..core.stage_heuristics import snuqs_stage_circuit
from ..planner import legacy_pipeline
from ..session import Session
from .reporting import geometric_mean

__all__ = [
    "table1_circuit_sizes",
    "figure5_weak_scaling",
    "figure6_breakdown",
    "figure7_offloading",
    "figure8_offload_scaling",
    "figure9_staging",
    "figure10_kernelization",
    "figure13_pruning_threshold",
    "figure14_24_per_circuit_cost",
    "figure25_hhl_case_study",
    "figure26_36_preprocessing_time",
]


def _atlas_session(
    pruning_threshold: int, ilp_time_limit: float | None = 120.0
) -> Session:
    """A Session configured like the paper's Atlas pipeline.

    The modelled-comparison drivers below run every simulator through this
    one facade: Atlas itself through the session's own ILP+DP pipeline
    (``backend="incore"``), the baselines through their registered
    modelled backends — one loop, one plan cache.
    """
    return Session(
        planner=legacy_pipeline(
            kernelize_config=KernelizeConfig(pruning_threshold=pruning_threshold),
            ilp_time_limit=ilp_time_limit,
        )
    )


# ---------------------------------------------------------------------------
# Table I
# ---------------------------------------------------------------------------

def table1_circuit_sizes(
    families: Sequence[str] = PAPER_FAMILIES,
    qubit_range: Iterable[int] = range(28, 37),
) -> list[dict]:
    """Gate counts of every benchmark circuit (paper Table I)."""
    rows = []
    for family in families:
        row: dict[str, object] = {"circuit": family}
        for n in qubit_range:
            row[str(n)] = len(get_circuit(family, n))
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# Figure 5 / 6 — end-to-end weak scaling and time breakdown
# ---------------------------------------------------------------------------

def _machine_for(num_qubits: int, num_shards: int, local_qubits: int) -> MachineConfig:
    return MachineConfig.for_circuit(
        num_qubits, num_shards=num_shards, local_qubits=local_qubits
    )


def figure5_weak_scaling(
    families: Sequence[str] = PAPER_FAMILIES,
    gpu_counts: Sequence[int] = (1, 4, 16, 64, 256),
    local_qubits: int = 28,
    simulators: Sequence[str] = ("atlas", "hyquas", "cuquantum", "qiskit"),
    pruning_threshold: int = 32,
    ilp_time_limit: float = 60.0,
) -> dict[str, list[dict]]:
    """Weak-scaling comparison (Figure 5).

    For each circuit family and GPU count ``g``, the circuit has
    ``local_qubits + log2(g)`` qubits, mirroring the paper's setup (28 local
    qubits, 0–8 non-local qubits).  Returns one row list per family with the
    modelled simulation time of every simulator and Atlas's speedup over the
    best baseline.

    Every curve goes through one :class:`repro.session.Session`: Atlas is
    the session's own ILP+DP pipeline, each baseline is its registered
    modelled backend.
    """
    results: dict[str, list[dict]] = {}
    with _atlas_session(pruning_threshold, ilp_time_limit) as session:
        for family in families:
            rows = []
            for gpus in gpu_counts:
                non_local = int(math.log2(gpus))
                num_qubits = local_qubits + non_local
                circuit = get_circuit(family, num_qubits)
                machine = _machine_for(num_qubits, gpus, local_qubits)
                row: dict[str, object] = {"gpus": gpus, "qubits": num_qubits}
                for name in simulators:
                    backend = "incore" if name == "atlas" else name
                    result = session.run(
                        circuit, machine=machine, backend=backend, execute=False
                    ).modelled()
                    row[name] = result.timing.total_seconds
                baselines = [row[n] for n in simulators if n != "atlas"]
                if "atlas" in simulators and baselines:
                    row["speedup_vs_best_baseline"] = min(baselines) / row["atlas"]
                rows.append(row)
            results[family] = rows
    return results


def figure6_breakdown(
    families: Sequence[str] = PAPER_FAMILIES,
    gpu_counts: Sequence[int] = (1, 4, 16, 64, 256),
    local_qubits: int = 28,
    pruning_threshold: int = 32,
    ilp_time_limit: float = 60.0,
) -> list[dict]:
    """Communication / computation breakdown of Atlas (Figure 6)."""
    rows = []
    with _atlas_session(pruning_threshold, ilp_time_limit) as session:
        for gpus in gpu_counts:
            non_local = int(math.log2(gpus))
            num_qubits = local_qubits + non_local
            totals, comms = [], []
            for family in families:
                circuit = get_circuit(family, num_qubits)
                machine = _machine_for(num_qubits, gpus, local_qubits)
                breakdown = session.run(
                    circuit, machine=machine, backend="incore", execute=False
                ).modelled().timing
                totals.append(breakdown.total_seconds)
                comms.append(breakdown.communication_seconds + breakdown.offload_seconds)
            avg_total = sum(totals) / len(totals)
            avg_comm = sum(comms) / len(comms)
            rows.append(
                {
                    "gpus": gpus,
                    "avg_total_s": avg_total,
                    "avg_comm_s": avg_comm,
                    "comm_fraction": avg_comm / avg_total if avg_total else 0.0,
                }
            )
    return rows


# ---------------------------------------------------------------------------
# Figures 7 / 8 — DRAM offloading
# ---------------------------------------------------------------------------

def _offload_gpu_memory(local_qubits: int) -> int:
    """GPU memory (bytes) that holds exactly one ``2^L`` shard.

    Mirrors the paper's offloading setup, where 28 local qubits saturate the
    usable device memory and every additional qubit forces the state into
    node DRAM (Section VII-C).
    """
    return (1 << local_qubits) * 16


def figure7_offloading(
    qubit_range: Sequence[int] = (28, 29, 30, 31, 32),
    local_qubits: int = 28,
    family: str = "qft",
    pruning_threshold: int = 32,
) -> list[dict]:
    """Atlas vs QDAO with DRAM offloading on one GPU (Figure 7)."""
    # QDAO's scheduling granularity t scales with the on-GPU qubit count the
    # same way the paper's best setting does (m=28, t=19).  QDAO's block
    # streaming does not produce an ExecutionPlan, so it stays a direct
    # model rather than a session backend.
    qdao = QdaoSimulator(
        on_gpu_qubits=local_qubits, group_qubits=max(2, local_qubits - 9)
    )
    rows = []
    with _atlas_session(pruning_threshold) as session:
        for n in qubit_range:
            circuit = get_circuit(family, n)
            machine = MachineConfig.for_circuit(
                n, num_shards=1, local_qubits=min(local_qubits, n),
                gpu_memory_bytes=_offload_gpu_memory(local_qubits),
            )
            atlas_time = session.run(
                circuit, machine=machine, backend="incore", execute=False
            ).modelled().timing.total_seconds
            qdao_time = qdao.model_time(circuit, machine).total_seconds
            rows.append(
                {
                    "qubits": n,
                    "atlas_s": atlas_time,
                    "qdao_s": qdao_time,
                    "speedup": qdao_time / atlas_time if atlas_time else float("inf"),
                }
            )
    return rows


def figure8_offload_scaling(
    num_qubits: int = 32,
    local_qubits: int = 28,
    gpu_counts: Sequence[int] = (1, 2, 4),
    family: str = "qft",
    pruning_threshold: int = 32,
) -> list[dict]:
    """Atlas DRAM-offloading scaling across GPUs (Figure 8)."""
    qdao = QdaoSimulator(
        on_gpu_qubits=local_qubits, group_qubits=max(2, local_qubits - 9)
    )
    circuit = get_circuit(family, num_qubits)
    rows = []
    with _atlas_session(pruning_threshold) as session:
        for gpus in gpu_counts:
            machine = MachineConfig.for_circuit(
                num_qubits, num_shards=gpus, local_qubits=local_qubits,
                gpu_memory_bytes=_offload_gpu_memory(local_qubits),
            )
            atlas_time = session.run(
                circuit, machine=machine, backend="incore", execute=False
            ).modelled().timing.total_seconds
            qdao_time = qdao.model_time(circuit, machine).total_seconds
            rows.append({"gpus": gpus, "atlas_s": atlas_time, "qdao_s": qdao_time})
    return rows


# ---------------------------------------------------------------------------
# Figures 9 / 12 — staging quality
# ---------------------------------------------------------------------------

def figure9_staging(
    num_qubits: int = 31,
    local_qubit_range: Sequence[int] | None = None,
    families: Sequence[str] = PAPER_FAMILIES,
    regional_qubits: int = 2,
    ilp_backend: str = "scipy",
    ilp_time_limit: float = 60.0,
) -> list[dict]:
    """Geometric-mean stage counts, Atlas (ILP) vs SnuQS greedy (Figures 9/12).

    ``local_qubit_range`` defaults to every odd L from 15 to ``num_qubits``
    at 31 qubits (the paper's x-axis); callers shrink it for smoke runs.
    """
    if local_qubit_range is None:
        local_qubit_range = list(range(15, num_qubits + 1, 2))
    rows = []
    for local in local_qubit_range:
        non_local = num_qubits - local
        regional = min(regional_qubits, non_local)
        global_ = non_local - regional
        atlas_counts, snuqs_counts = [], []
        for family in families:
            circuit = get_circuit(family, num_qubits)
            atlas_result = stage_circuit(
                circuit, local, regional, global_,
                backend=ilp_backend, time_limit=ilp_time_limit,
            )
            snuqs_result = snuqs_stage_circuit(circuit, local, regional, global_)
            atlas_counts.append(atlas_result.num_stages)
            snuqs_counts.append(snuqs_result.num_stages)
        rows.append(
            {
                "local_qubits": local,
                "atlas_geomean_stages": geometric_mean(atlas_counts),
                "snuqs_geomean_stages": geometric_mean(snuqs_counts),
            }
        )
    return rows


# ---------------------------------------------------------------------------
# Figures 10 / 13 / 14–24 / 25 — kernelization quality
# ---------------------------------------------------------------------------

def figure10_kernelization(
    families: Sequence[str] = PAPER_FAMILIES,
    qubit_range: Sequence[int] = tuple(range(28, 37)),
    cost_model: CostModel = DEFAULT_COST_MODEL,
    pruning_threshold: int = 32,
) -> list[dict]:
    """Relative geometric-mean kernelization cost vs the greedy baseline (Figure 10)."""
    config = KernelizeConfig(pruning_threshold=pruning_threshold)
    rows = []
    all_ratios = []
    for family in families:
        ratios = []
        for n in qubit_range:
            circuit = get_circuit(family, n)
            atlas_cost = fast_kernelize(circuit, cost_model, config).total_cost
            greedy_cost = greedy_kernelize(circuit, cost_model).total_cost
            ratios.append(atlas_cost / greedy_cost)
        rel = geometric_mean(ratios)
        all_ratios.extend(ratios)
        rows.append({"circuit": family, "relative_cost": rel})
    rows.append({"circuit": "geomean", "relative_cost": geometric_mean(all_ratios)})
    return rows


def figure13_pruning_threshold(
    thresholds: Sequence[int] = (4, 16, 50, 100, 200, 500),
    families: Sequence[str] = PAPER_FAMILIES,
    num_qubits: int = 28,
    cost_model: CostModel = DEFAULT_COST_MODEL,
) -> list[dict]:
    """Pruning-threshold sweep: cost vs preprocessing time (Figure 13)."""
    circuits = [get_circuit(f, num_qubits) for f in families]
    greedy_costs = [greedy_kernelize(c, cost_model).total_cost for c in circuits]
    rows = []
    for threshold in thresholds:
        config = KernelizeConfig(pruning_threshold=threshold)
        ratios = []
        start = time.perf_counter()
        for circuit, greedy_cost in zip(circuits, greedy_costs):
            cost = fast_kernelize(circuit, cost_model, config).total_cost
            ratios.append(cost / greedy_cost)
        elapsed = time.perf_counter() - start
        rows.append(
            {
                "threshold": threshold,
                "relative_cost": geometric_mean(ratios),
                "preprocessing_s": elapsed / len(circuits),
            }
        )
    # The ORDERED-KERNELIZE reference point ("Atlas-Naive" in the figure).
    start = time.perf_counter()
    naive_ratios = [
        ordered_kernelize(c, cost_model).total_cost / g
        for c, g in zip(circuits, greedy_costs)
    ]
    elapsed = time.perf_counter() - start
    rows.append(
        {
            "threshold": "naive",
            "relative_cost": geometric_mean(naive_ratios),
            "preprocessing_s": elapsed / len(circuits),
        }
    )
    return rows


def figure14_24_per_circuit_cost(
    family: str,
    qubit_range: Sequence[int] = tuple(range(28, 37)),
    cost_model: CostModel = DEFAULT_COST_MODEL,
    pruning_threshold: int = 32,
) -> list[dict]:
    """Per-family kernelization cost: Atlas / Atlas-Naive / greedy (Figures 14–24)."""
    config = KernelizeConfig(pruning_threshold=pruning_threshold)
    rows = []
    for n in qubit_range:
        circuit = get_circuit(family, n)
        rows.append(
            {
                "qubits": n,
                "atlas": fast_kernelize(circuit, cost_model, config).total_cost,
                "atlas_naive": ordered_kernelize(circuit, cost_model).total_cost,
                "greedy": greedy_kernelize(circuit, cost_model).total_cost,
            }
        )
    return rows


def figure25_hhl_case_study(
    hhl_sizes: Sequence[int] = (4, 7, 9, 10),
    cost_model: CostModel = DEFAULT_COST_MODEL,
    pruning_threshold: int = 16,
) -> list[dict]:
    """hhl case study: many gates, few qubits (Table II + Figures 25/37)."""
    config = KernelizeConfig(pruning_threshold=pruning_threshold)
    rows = []
    for n in hhl_sizes:
        circuit = hhl(n)
        t0 = time.perf_counter()
        atlas_cost = fast_kernelize(circuit, cost_model, config).total_cost
        atlas_time = time.perf_counter() - t0
        t0 = time.perf_counter()
        naive_cost = ordered_kernelize(circuit, cost_model).total_cost
        naive_time = time.perf_counter() - t0
        greedy_cost = greedy_kernelize(circuit, cost_model).total_cost
        rows.append(
            {
                "qubits": n,
                "gates": len(circuit),
                "atlas": atlas_cost,
                "atlas_naive": naive_cost,
                "greedy": greedy_cost,
                "atlas_time_s": atlas_time,
                "naive_time_s": naive_time,
            }
        )
    return rows


#: Rounds :func:`figure26_36_preprocessing_time` takes the best of.
_PREPROCESSING_ROUNDS = 7


def figure26_36_preprocessing_time(
    family: str,
    qubit_range: Sequence[int] = tuple(range(28, 37)),
    cost_model: CostModel = DEFAULT_COST_MODEL,
    pruning_threshold: int = 32,
) -> list[dict]:
    """Per-family kernelization preprocessing time (Figures 26–36).

    Each kernelizer's time is the best of :data:`_PREPROCESSING_ROUNDS`
    back-to-back rounds of the three on one clock: a single reading of a
    few milliseconds moves with whatever else the host runs, the best of
    several does not."""
    config = KernelizeConfig(pruning_threshold=pruning_threshold)
    kernelizers = {
        "atlas_s": lambda circuit: fast_kernelize(circuit, cost_model, config),
        "atlas_naive_s": lambda circuit: ordered_kernelize(circuit, cost_model),
        "greedy_s": lambda circuit: greedy_kernelize(circuit, cost_model),
    }
    rows = []
    for n in qubit_range:
        circuit = get_circuit(family, n)
        timings = dict.fromkeys(kernelizers, float("inf"))
        for _round in range(_PREPROCESSING_ROUNDS):
            for name, kernelizer in kernelizers.items():
                t0 = time.perf_counter()
                kernelizer(circuit)
                timings[name] = min(timings[name], time.perf_counter() - t0)
        rows.append({"qubits": n, **timings})
    return rows
