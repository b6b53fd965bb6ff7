"""Wall-clock benchmark of the LCRS serving path, end to end and per layer.

Run from the repository root::

    python3 perfbench/run.py --workload webar-frames --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seconds 30

``--trace 0`` times the workload untraced and reports the end-to-end
metrics.  ``--trace 1`` times it untraced for half the run and then
with per-layer shims (``layers.py``) for the other half, and reports the
per-layer metrics; it also writes the attribution table, with its
``unattributed`` row, to ``.perfbench_out/``.  ``--workload all`` runs
every workload in both modes, one child process each.  The metric names
and units are the ones ``BENCHMARK.json`` declares.

Every timed request is checked against an untimed interpreter reference
of the same inputs (see ``workloads.py``); a mismatch fails the run.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line before
it is the run's report: host record, set-up times, τ, and simulator
outputs labelled ``model.*`` (which are not metrics and are not scored).

Exit codes: 0 success; 1 the correctness gate failed (the result line is
still printed); 2 the repository sources are missing; 3 the compiled
plan backend is unavailable or a plan failed to compile, so the run
would time the interpreter.
"""

from __future__ import annotations

import argparse
import gc
import json
import subprocess
import sys
from array import array
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"

#: Set-ups per run (``setup_s`` is their median): at least the first
#: count, and more while they add up to less than the time budget.
SETUP_REPS = (5, 25)
SETUP_BUDGET_S = 1.0


class BenchmarkError(RuntimeError):
    """The run cannot produce a trustworthy result; exit code attached."""

    def __init__(self, message: str, code: int) -> None:
        super().__init__(message)
        self.code = code


def _import_program():
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise BenchmarkError(f"repository sources not found under {src}", 2)
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))


def _declared_metrics() -> tuple[dict, dict]:
    """name → unit of the end-to-end and per-layer metrics ``BENCHMARK.json``
    declares, in declaration order (the one list both modes report)."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


def _per(value, count):
    return value / count if count else 0.0


class Tally:
    """Timed requests folded in as they complete; outcomes are not kept,
    so memory does not grow with how many requests the host managed.

    ``add`` also applies the correctness gate.  With ``perturb`` set, the
    reference of the first request's first sample is changed before it
    is checked — the gate's self-test: that request must fail.
    """

    def __init__(self, workload, perturb: bool = False) -> None:
        self.workload = workload
        self.perturb = perturb
        self.walls = array("d")
        self.samples = self.correct = self.fallbacks = 0
        self.misses = self.miss_frames = self.attempts = 0
        self.failed = 0
        self.priced_ms = 0.0
        self.priced_samples = 0
        self.queue_waits = array("d")

    @property
    def requests(self) -> int:
        return len(self.walls)

    @property
    def wall_s(self) -> float:
        return sum(self.walls)

    def add(self, request) -> None:
        workload = self.workload
        if self.perturb:
            self.perturb = False
            key = request.keys[0]
            pred, entropy, served_by = workload.reference[key][0]
            workload.reference[key][0] = (pred + 1, entropy, served_by)
        if not workload.check(request):
            self.failed += 1
        self.walls.append(request.wall_s)
        self.samples += request.samples
        self.correct += workload.correct_predictions(request)
        for chunk in request.chunks:
            missed = [o for o in chunk if not o.exited_locally]
            if missed:
                self.miss_frames += 1
                self.attempts += missed[0].attempts
            self.misses += len(missed)
            self.fallbacks += sum(o.served_by == "binary-fallback" for o in chunk)
            if request.model_valid:
                self.priced_ms += sum(o.cost.total_ms for o in chunk)
                self.priced_samples += len(chunk)
                self.queue_waits.extend(o.cost.queue_ms for o in missed)

    def model_outputs(self) -> dict:
        """Simulator outputs over the timed requests; reported, not scored."""
        import numpy as np

        waits = np.frombuffer(self.queue_waits, dtype=np.float64)
        return {
            "model.priced_mean_latency_ms": _per(self.priced_ms, self.priced_samples),
            "model.sched.queue_wait_ms_p99": (
                float(np.percentile(waits, 99)) if waits.size else 0.0
            ),
        }


def _measure(workload, state, seconds: float, min_requests: int, tally: Tally) -> None:
    """Closed loop until ``seconds`` of request wall and ``min_requests``."""
    wall = 0.0
    while wall < seconds or tally.requests < min_requests:
        for request in workload.step(state):
            tally.add(request)
            wall += request.wall_s


def _plan_totals(engines) -> dict:
    """Summed ``plan_cache_info()`` of the browser engines."""
    totals = {"hits": 0, "misses": 0, "failures": 0}
    for pair in engines:
        for engine in pair:
            info = engine.plan_cache_info()
            for key in totals:
                totals[key] += int(info[key])
    return totals


def _health_totals(workload, state) -> dict:
    totals = {"samples_served": 0, "shed_samples": 0, "batches": 0}
    for health in workload.shard_health(state):
        for key in totals:
            totals[key] += int(health[key])
    return totals


def _metric(value, unit):
    return {"value": float(value), "unit": unit}


def run(args) -> int:
    _import_program()
    import numpy as np

    from host import host_record, peak_rss_mb
    from layers import LayerTracer, format_table, install_layer_shims
    from models import load_model
    from workloads import WORKLOADS

    end_to_end, per_layer = _declared_metrics()
    host = host_record()
    if not host["plan_backend_available"]:
        raise BenchmarkError(
            f"compiled plan backend unavailable: {host['plan_backend_error']}", 3
        )
    workload_cls = WORKLOADS[args.workload]
    system = load_model(workload_cls.model)
    workload = workload_cls(system, args.seed)
    workload.prepare()

    setups = []
    state = None
    while len(setups) < SETUP_REPS[0] or (
        len(setups) < SETUP_REPS[1] and sum(s[2] for s in setups) < SETUP_BUDGET_S
    ):
        if state is not None:
            # Free the previous set-up before building the next, so peak
            # RSS reflects one live set-up.
            state.close()
            state = None
            gc.collect()
        state = workload.setup()
        setups.append((state.deploy_s, state.first_call_s, state.setup_s))
    engines = state.engines()
    plan_before = _plan_totals(engines)
    if plan_before["failures"]:
        raise BenchmarkError(f"plan compilation failed: {plan_before}", 3)

    tally = Tally(workload, args.perturb_reference)
    try:
        if args.trace:
            half = args.seconds / 2.0
            untraced = Tally(workload)
            _measure(workload, state, half, 1, untraced)
            health_before = _health_totals(workload, state)
            tracer = LayerTracer()
            install_layer_shims(tracer, engines, workload.service_model(state))
            try:
                _measure(workload, state, half, 1, tally)
            finally:
                tracer.uninstall()
            health_after = _health_totals(workload, state)
        else:
            _measure(workload, state, args.seconds, workload.min_requests, tally)
        plan_after = _plan_totals(engines)
    finally:
        state.close()
    if plan_after["failures"]:
        raise BenchmarkError(f"plan compilation failed: {plan_after}", 3)
    hits = plan_after["hits"] - plan_before["hits"]
    plan_hit_ratio = _per(hits, hits + plan_after["misses"] - plan_before["misses"])

    report = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host,
        "tau": workload.tau,
        "tail_percentile": workload.tail_pct,
        "setup_reps_s": [s[2] for s in setups],
        "requests": tally.requests,
        "samples": tally.samples,
    }
    attempted, failed = tally.requests, tally.failed
    if args.trace:
        attempted += untraced.requests
        failed += untraced.failed
        wall = tally.wall_s
        values = _layer_values(
            workload, tracer, tally, untraced, health_before, health_after, setups
        )
        values["wasm.plan_hit_ratio"] = plan_hit_ratio
        values["wasm.plan_failures"] = plan_after["failures"]
        rows = tracer.table(wall)
        report["layer_table"] = rows
        table = format_table(rows, wall)
        OUT_DIR.mkdir(exist_ok=True)
        (OUT_DIR / f"{workload.name}-seed{args.seed}-layers.txt").write_text(table + "\n")
        print(table, file=sys.stderr)
        metrics = {name: _metric(values[name], unit) for name, unit in per_layer.items()}
    else:
        walls_ms = np.frombuffer(tally.walls, dtype=np.float64) * 1e3
        values = {
            "setup_s": float(np.median([s[2] for s in setups])),
            "samples_per_s": tally.samples / tally.wall_s,
            "request_ms_p50": float(np.percentile(walls_ms, 50)),
            "request_ms_tail": float(np.percentile(walls_ms, workload.tail_pct)),
            "accuracy": tally.correct / tally.samples,
            "served_ratio": 1.0 - tally.fallbacks / tally.samples,
            "peak_rss_mb": peak_rss_mb(),
        }
        report["beyond_tail"] = int(np.sum(walls_ms > values["request_ms_tail"]))
        report.update(tally.model_outputs())
        metrics = {name: _metric(values[name], unit) for name, unit in end_to_end.items()}

    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"report": report, "metrics": metrics}, indent=1) + "\n"
    )
    print("report " + json.dumps(report, default=str))
    print(
        json.dumps(
            {"correct": failed == 0, "attempted": attempted, "failed": failed,
             "metrics": metrics}
        )
    )
    return 0 if failed == 0 else 1


def _layer_values(
    workload, tracer, tally, untraced, health_before, health_after, setups
) -> dict:
    """Per-layer metrics of the traced half (see ``layers.py``)."""
    import numpy as np

    from layers import LayerStats

    stats = tracer.stats
    samples, misses, frames = tally.samples, tally.misses, tally.miss_frames
    rounds = tally.requests if workload.name == "edge-fleet" else 0

    def stat(layer):
        return stats.get(layer, LayerStats())

    def own_us(*layers):
        """Main-thread self time plus off-thread time, in µs."""
        return 1e6 * sum(stat(layer).self_s + stat(layer).off_thread_s for layer in layers)

    trunk = stat("trunk")
    trunk_samples = trunk.counts.get("samples", 0)
    served = health_after["samples_served"] - health_before["samples_served"]
    shed = health_after["shed_samples"] - health_before["shed_samples"]
    batches = health_after["batches"] - health_before["batches"]
    wall = tally.wall_s
    attributed = sum(st.self_s for st in stats.values())
    return {
        "wasm.stem.us_per_sample": _per(own_us("wasm.stem"), samples),
        "wasm.branch.us_per_sample": _per(own_us("wasm.branch"), samples),
        "gate.us_per_sample": _per(own_us("gate.softmax", "gate.entropy"), samples),
        "codec.encode.us_per_miss": _per(own_us("codec.encode"), misses),
        "codec.decode.us_per_miss": _per(own_us("codec.decode"), misses),
        "protocol.us_per_frame": _per(
            own_us("protocol.encode", "protocol.decode", "protocol.server"), frames
        ),
        "protocol.bytes_per_miss": _per(
            stat("protocol.encode").counts.get("bytes", 0), misses
        ),
        "link.attempts_per_frame": _per(tally.attempts, frames),
        "trunk.us_per_sample": _per(own_us("trunk"), trunk_samples),
        "trunk.samples_per_call": _per(trunk_samples, trunk.calls),
        "session.self_us_per_sample": _per(own_us("session"), samples),
        "pricing.us_per_sample": _per(own_us("pricing"), samples),
        "sched.submit.us_per_request": _per(
            own_us("sched.submit"), stat("sched.submit").calls
        ),
        "sched.flush.self_us_per_round": _per(own_us("sched.flush"), rounds),
        "sched.samples_per_batch": _per(served, batches),
        "sched.shed_ratio": _per(shed, served + shed),
        "sched.service_model_drift": _per(
            trunk.total_s * 1e3, trunk.counts.get("model_ms", 0.0)
        ),
        "pool.overlap": _per(trunk.total_s, stat("pool.map").total_s),
        "fleet.self_us_per_round": _per(
            own_us("fleet.submit", "fleet.flush", "fleet.collect"), rounds
        ),
        "slo.evaluate.us_per_round": _per(own_us("slo.evaluate"), rounds),
        "setup.deploy_s": float(np.median([s[0] for s in setups])),
        "setup.plan_compile_s": float(np.median([s[1] for s in setups])),
        "unattributed_ratio": _per(wall - attributed, wall),
        "tracing_overhead_ratio": _per(
            _per(untraced.samples, untraced.wall_s), _per(samples, wall)
        ),
    }


def run_all(args) -> int:
    """Every workload in both modes, each in its own child process."""
    from workloads import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()),
                 "--workload", name, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(trace)],
                stdout=subprocess.PIPE, text=True, check=False,
            )
            lines = proc.stdout.strip().splitlines()
            if proc.returncode not in (0, 1) or not lines:
                print(f"{name} trace={trace}: exit {proc.returncode}", file=sys.stderr)
                return proc.returncode or 1
            result = json.loads(lines[-1])
            status = max(status, proc.returncode)
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            print(f"== {name} (trace {trace}) correct={result['correct']}")
            for metric, entry in result["metrics"].items():
                print(f"  {metric:<32}{entry['value']:>16.6g} {entry['unit']}")
                combined["metrics"][f"{name}/{metric}"] = entry
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True,
        choices=["webar-frames", "browser-batch", "edge-fleet", "all"],
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--perturb-reference", action="store_true",
        help="self-test: change one reference prediction; the gate must fail",
    )
    args = parser.parse_args(argv)
    try:
        if args.workload == "all":
            _import_program()
            return run_all(args)
        return run(args)
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
