"""Analysis helpers: fidelity propagation, reporting, memtrace,
and the modelled pipeline makespan (a what-if)."""

from .audit import AuditReport, audit_run, predict_access_schedule, predict_traffic
from .fidelity import GrowthPoint, StateComparison, compare_states, error_growth_profile
from .htmlreport import render_html, write_html
from .memtrace import (
    MemTraceReport,
    analyze_trace,
    belady_misses,
    hit_rate_curve,
    reuse_distance_histogram,
    reuse_distances,
    simulate_lru,
)
from .pipeline_model import STAGE_RESOURCE, PipelineModel, ScheduledEvent
from .report import Table, format_bytes, format_seconds

__all__ = [
    "render_html",
    "write_html",
    "StateComparison",
    "compare_states",
    "GrowthPoint",
    "error_growth_profile",
    "Table",
    "format_seconds",
    "format_bytes",
    "MemTraceReport",
    "analyze_trace",
    "reuse_distances",
    "reuse_distance_histogram",
    "hit_rate_curve",
    "simulate_lru",
    "belady_misses",
    "AuditReport",
    "audit_run",
    "predict_access_schedule",
    "predict_traffic",
    "PipelineModel",
    "ScheduledEvent",
    "STAGE_RESOURCE",
]
