"""Atlas's core contribution: hierarchical circuit partitioning (staging + kernelization)."""

from .fast_kernelize import fast_kernelize
from .greedy_kernelize import greedy_kernelize
from .kernel import Kernel, KernelSequence, KernelType
from .kernelize import KernelizeConfig, kernelize
from .ordered_kernelize import ordered_kernelize
from .partitioner import PartitionReport, partition
from .plan import ExecutionPlan, QubitPartition, Stage
from .stage import StagingResult, build_staging_ilp, solve_staging, stage_circuit
from .stage_heuristics import greedy_stage_circuit, snuqs_stage_circuit

__all__ = [
    "Kernel",
    "KernelSequence",
    "KernelType",
    "KernelizeConfig",
    "kernelize",
    "fast_kernelize",
    "ordered_kernelize",
    "greedy_kernelize",
    "ExecutionPlan",
    "QubitPartition",
    "Stage",
    "StagingResult",
    "build_staging_ilp",
    "solve_staging",
    "stage_circuit",
    "snuqs_stage_circuit",
    "greedy_stage_circuit",
    "partition",
    "PartitionReport",
]
