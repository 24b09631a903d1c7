"""The committed benchmark: four workloads, end-to-end metrics measured
with tracing off, and a per-layer waterfall from a separate traced run.
See ``bench/README.md``."""
