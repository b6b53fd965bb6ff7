# Developer entry points.  `make verify` is what CI should run: the
# tier-1 suite as-is, then again with the fault-injection smoke profile
# enabled so the degraded (retry/fallback) path is exercised end to end,
# then the hardening tier (protocol fuzz, codec properties, the frozen
# golden trace) and the tracing smoke run.  REPRO_FAULT_PROFILE selects
# the profile consumed by tests/test_faults.py (none | smoke | harsh |
# partition); REPRO_REGEN_GOLDEN=1 rewrites the golden-trace fixture
# after an intentional behaviour change.

PY ?= python
PYTEST = PYTHONPATH=src $(PY) -m pytest -x -q

.PHONY: sloc test fault-smoke trace-smoke plan-smoke fleet-smoke obs-smoke tau-smoke golden golden-1t stress perf-smoke verify bench bench-sched bench-par bench-par-wall bench-plan bench-fleet bench-tau bench-check bench-check-dry

test:
	$(PYTEST)

fault-smoke:
	REPRO_FAULT_PROFILE=smoke $(PYTEST) tests/test_faults.py tests/test_session.py tests/test_batched_session.py tests/test_session_protocol.py tests/test_protocol.py

trace-smoke:
	PYTHONPATH=src $(PY) benchmarks/trace_smoke.py

plan-smoke:
	$(PYTEST) -m plan tests/test_plan_properties.py tests/test_golden_trace.py

fleet-smoke:
	$(PYTEST) -m "fleet and not sched" tests/test_fleet.py

obs-smoke:
	$(PYTEST) -m obs tests/test_observability.py tests/test_windows.py tests/test_slo.py

tau-smoke:
	$(PYTEST) -m tau tests/test_tau_control.py tests/test_tiered_branch.py tests/test_golden_tau.py

golden:
	$(PYTEST) tests/test_protocol_fuzz.py tests/test_codec_properties.py tests/test_golden_trace.py tests/test_parallel.py

# The golden digests retrain in-process, and training at different BLAS
# thread counts gives different weights; at one thread they are the
# bit-identity reference on any host.
golden-1t:
	OPENBLAS_NUM_THREADS=1 $(PYTEST) tests/test_golden_trace.py tests/test_golden_tau.py

stress:
	$(PYTEST) -m par tests/test_thread_safety.py

# The wall-clock benchmark's own smoke test: every workload at the
# shortest length, with its correctness gate (each timed request's
# prediction, entropy and served_by vs an interpreter reference).
perf-smoke:
	$(PY) perfbench/smoke.py

verify: test fault-smoke golden golden-1t stress trace-smoke plan-smoke fleet-smoke obs-smoke tau-smoke perf-smoke bench-check-dry

bench:
	PYTHONPATH=src $(PY) benchmarks/bench_kernels.py

bench-sched:
	PYTHONPATH=src $(PY) benchmarks/bench_scheduler.py

bench-par:
	PYTHONPATH=src $(PY) benchmarks/bench_parallel.py

bench-par-wall:
	REPRO_BENCH_WALL=1 PYTHONPATH=src $(PY) benchmarks/bench_parallel.py

bench-plan:
	PYTHONPATH=src $(PY) benchmarks/bench_plan.py

bench-fleet:
	PYTHONPATH=src $(PY) benchmarks/bench_fleet.py

bench-tau:
	PYTHONPATH=src $(PY) benchmarks/bench_tau.py

# Diff the committed BENCH_*.json headline ratios against their floors.
# bench-check requires the files; bench-check-dry tolerates missing ones
# (fresh clone) but still fails on a recorded regression.
bench-check:
	$(PY) benchmarks/bench_check.py

bench-check-dry:
	$(PY) benchmarks/bench_check.py --dry-run

# Lines of src/: total and code-only (no blank, comment or docstring
# lines).  REF=<git-ref> adds the delta against that commit.  A report,
# not a gate, so it is not part of verify.
sloc:
	$(PY) benchmarks/sloc.py $(if $(REF),--against $(REF))
