# Repro convenience targets.  PY overrides the interpreter.
PY ?= python
PYTHONPATH := src
export PYTHONPATH

.PHONY: test verify sweep conformance bench-gate bench-smoke verify-cluster verify-rebalance verify-archive verify-service policy-lint profile

# Tier-1: the full unit/integration suite.
test:
	$(PY) -m pytest -x -q

# Every tuple of every shipped ruleset's decision space: dead rules and
# broken invariants; non-zero exit on any finding.
policy-lint:
	$(PY) -m repro policy lint

# The PR gate: tier-1 (which runs the whole detection-equivalence
# scenario table once), ruleset lint, every E-experiment once (each bar
# asserted where it is measured), the committed benchmark's smoke run,
# and a bounded crash-consistency sweep + differential conformance.
verify: test policy-lint bench-gate bench-smoke
	$(PY) -m repro verify --limit 12 --skip-equivalence

# The exhaustive sweep: every write boundary, clean + torn.  ~30s.
sweep:
	$(PY) -m repro verify --skip-conformance --skip-equivalence

# Six-model conformance + the whole scenario table (engine, cluster and
# rebalance rows alike) through the CLI.
conformance:
	$(PY) -m repro verify --skip-sweep

# All 38 experiment tests, E1-E12.  The bars live in benchmarks/bars.py
# and nowhere else: an experiment that carries one ends in gate(), which
# writes benchmarks/out/<experiment>.json (untracked) and asserts it.
bench-gate:
	$(PY) -m pytest benchmarks -q

# The committed benchmark (bench/, BENCHMARK.json) at 1/50 scale, traced
# and untraced: every workload runs correct, and every boundary callable
# named in bench/layers.py still resolves — a renamed one fails here
# instead of in the next traced run.
bench-smoke:
	$(PY) -m pytest bench -q

# cProfile of the E2 hot write path (the profile that drives the
# raw-speed work).  ARGS passes extra flags, e.g.
# `make profile ARGS="--arm single --sort tottime"`.
profile:
	$(PY) benchmarks/profile_e2.py $(ARGS)

# The targets below are focused selections of what `verify` already
# runs, for working on one subsystem; none is a prerequisite of `verify`.

# Elastic resharding: the ring's pinned cases and property suite, the
# rebalancer's functional, crash-sweep and writers-under-reshape tests,
# the worker pipe that carries the move protocol (`transfer.*` calls),
# and the E6b online-rebalance arm (p99-under-fire + proof
# re-verification + the rebalance rows of the scenario table).
verify-rebalance:
	$(PY) -m pytest tests/cluster/test_ring.py tests/cluster/test_vnode_ring.py tests/cluster/test_rebalancer.py tests/cluster/test_rebalance_crash.py tests/cluster/test_rebalance_concurrency.py tests/cluster/test_workers.py -q
	$(PY) -m pytest benchmarks/bench_e6_migration.py::test_e6b_online_rebalance -q

# Tiered archive: the segment/cold-store/tiering suites (incl. the
# demotion crash sweep), the demote→recall round-trip properties, the
# cold-residue threat tests, and the E7b arm (footprint, recall p99,
# incremental-verify bars).
verify-archive:
	$(PY) -m pytest tests/archive tests/property/test_archive_roundtrip.py tests/threats/test_cold_residue.py -q
	$(PY) -m pytest benchmarks/bench_e7_retention_30yr.py -q

# Wire service: the service suite (wire schema and its golden vectors,
# the wire fuzz, hostile framing, session lifecycle, admission control,
# the audit oracle), the session broker's own tests and session-
# authenticated engine access, and the E11 closed-loop load arm
# (concurrent sessions, sustained-RPS floor, p99 ceiling, full audit
# coverage).
verify-service:
	$(PY) -m pytest tests/service tests/access/test_sessions.py tests/core/test_engine_sessions.py -q
	$(PY) -m pytest benchmarks/bench_e11_service.py -q

# Cluster: the cluster suite (its cross-shard and rebalance oracle
# selections included) with the layout ratchet (module sizes, pinned
# surfaces, one-of-each rules), and the E9b scaling arm.
verify-cluster:
	$(PY) -m pytest tests/cluster tests/test_layout.py -q
	$(PY) -m pytest benchmarks/bench_e9_cluster_scaling.py::test_e9_cluster_scaling -q
