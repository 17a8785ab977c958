"""Experiment drivers and text reporting for the paper's tables and figures."""

from .experiments import (
    figure5_weak_scaling,
    figure6_breakdown,
    figure7_offloading,
    figure8_offload_scaling,
    figure9_staging,
    figure10_kernelization,
    figure13_pruning_threshold,
    figure14_24_per_circuit_cost,
    figure25_hhl_case_study,
    figure26_36_preprocessing_time,
    table1_circuit_sizes,
)
from .reporting import format_series, format_table, geometric_mean

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
    "format_table",
    "format_series",
    "geometric_mean",
]
