"""Workload models: Rodinia application traces and the Table II suite."""

from repro.workloads.benchmark import BenchmarkSpec, instantiate
from repro.workloads.generator import random_workload, workload_with_mix
from repro.workloads.trace_replay import (
    benchmark_from_csv,
    benchmark_from_samples,
    record_benchmark_trace,
    trace_from_samples,
)
from repro.workloads.rodinia import (
    APP_REGISTRY,
    app,
    compute_apps,
    memory_apps,
)
from repro.workloads.suite import (
    WORKLOAD_TABLE,
    WorkloadSpec,
    all_workloads,
    workload,
    workloads_of_class,
)

__all__ = [
    "BenchmarkSpec",
    "instantiate",
    "random_workload",
    "workload_with_mix",
    "benchmark_from_csv",
    "benchmark_from_samples",
    "record_benchmark_trace",
    "trace_from_samples",
    "APP_REGISTRY",
    "app",
    "compute_apps",
    "memory_apps",
    "WORKLOAD_TABLE",
    "WorkloadSpec",
    "all_workloads",
    "workload",
    "workloads_of_class",
]
