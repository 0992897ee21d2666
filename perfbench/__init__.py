"""Benchmark of fcpolar: workloads, tracer and pinned references."""
