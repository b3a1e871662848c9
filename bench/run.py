"""dlecorr benchmark: seeded closed-loop workloads over the public API.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                         [--trace 0|1]

Untraced (--trace 0): the workload is set up SETUPS times and the median
set-up time is reported; then whole rounds of operations run one after
another until --seconds have passed.  Only the library calls of an
operation are timed; each output is then checked against computations
made apart from the program.  A fixed speed probe (probe.py) runs after
every PROBE_EVERY operations and around each set-up, and the reported
times are scaled to the machine's reference speed by it.  Prints the
end-to-end metrics, one per line, and as the last line one JSON object.

Traced (--trace 1): one set-up and the workload's TRACE_ROUNDS rounds
with spans around every public function of each layer (see tracing.py),
each operation paired with an untraced run of it; prints the per-layer
metrics and the tracing overhead, and writes the spans to bench/out/.

--workload all runs each workload in a process of its own.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUPS = 3
SETUP_PROBES = 20
PROBE_EVERY = 25
PROBE_WINDOW = 10
NAMES = ("reduce_mix", "relational_sweep", "step_soundness")


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=NAMES + ("all",), default="all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=18.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def _import_library() -> float:
    """Import dlecorr from this checkout's src/; returns the import time."""
    src = ROOT / "src"
    if not (src / "dlecorr" / "__init__.py").is_file():
        raise SystemExit(f"error: no dlecorr sources under {src}")
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import dlecorr.classify, dlecorr.engine, dlecorr.generators  # noqa: F401,E401
    import dlecorr.models, dlecorr.parsing, dlecorr.printing  # noqa: F401,E401
    return time.perf_counter() - t0


class Tally:
    """Outcome of the timed operations."""

    def __init__(self):
        self.times_ns: list[int] = []
        self.failed = 0
        self.problems: list[str] = []

    def judge(self, workload, item, out, exc) -> None:
        if exc is not None:
            verdict = "".join(traceback.format_exception_only(type(exc), exc)).strip()
        else:
            verdict = workload.verdict(item, out)
        if verdict == "ok":
            return
        self.failed += 1
        if verdict != "known_fault":
            self.problems.append(verdict)


def run_round(workload, items, tally: Tally, tracer=None, probe=None) -> int:
    """Run one round, timing each operation; returns the summed op time.
    With a probe, it runs after every PROBE_EVERY operations of the run."""
    total = 0
    for item in items:
        if probe is not None and len(tally.times_ns) % PROBE_EVERY == 0:
            probe()
        exc = out = None
        t0 = time.perf_counter_ns()
        try:
            if tracer is None:
                out = workload.run(item)
            else:
                with tracer.span("bench.op"):
                    out = workload.run(item)
        except Exception as e:  # an operation that raises fails; the run goes on
            exc = e
        dt = time.perf_counter_ns() - t0
        total += dt
        tally.times_ns.append(dt)
        tally.judge(workload, item, out, exc)
    return total


def _percentile(sorted_values, q: float):
    return sorted_values[min(len(sorted_values) - 1, int(q * len(sorted_values)))]


def _timings(setup_s: float, times_ns) -> dict:
    times = sorted(times_ns)
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(times) / (sum(times) / 1e9), "1/s"),
        "op_p50_ms": (statistics.median(times) / 1e6, "ms"),
        "op_p90_ms": (_percentile(times, 0.9) / 1e6, "ms"),
    }


def untraced(cls, seed: int, seconds: float, import_s: float):
    from probe import Probe
    setup_probe, ops_probe = Probe(), Probe()
    builds = []
    workload = None
    for _ in range(SETUPS):
        workload = None
        gc.collect()
        setup_probe(SETUP_PROBES)
        t0 = time.perf_counter()
        workload = cls(seed)
        builds.append(time.perf_counter() - t0)
        setup_probe(SETUP_PROBES)
    gc.collect()
    gc.freeze()
    tally = Tally()
    deadline = time.perf_counter() + seconds
    round_s = []
    while not round_s or time.perf_counter() < deadline:
        round_s.append(run_round(workload, workload.round(len(round_s)), tally,
                                 probe=ops_probe) / 1e9)
    tally.problems += workload.final_checks()
    # scaled by all the probes around the builds: those around a single
    # build are too few to follow the machine through it
    setup_s = import_s + statistics.median(builds)
    scales = ops_probe.local_scales(PROBE_WINDOW)
    metrics = _timings(setup_s * setup_probe.scale(),
                       [t * scales[i // PROBE_EVERY]
                        for i, t in enumerate(tally.times_ns)])
    metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    wall = {k: v for k, (v, _) in _timings(setup_s, tally.times_ns).items()}
    return workload, tally, metrics, {
        "round_s": round_s, "setup_builds_s": builds, "wall_clock": wall,
        "probe_mean_ms": {"setup": setup_probe.mean_ns() / 1e6,
                          "ops": ops_probe.mean_ns() / 1e6,
                          "count": len(ops_probe.times_ns)}}


def traced(cls, seed: int, name: str):
    """Set-up and TRACE_ROUNDS rounds with spans.  Each operation also runs
    untraced, on its own copy of the inputs, right before or after its
    traced run (alternating), so that both timings see the same machine."""
    from tracing import Tracer, layer_metrics
    tracer = Tracer()
    tracer.install()
    with tracer.span("bench.setup"):
        workload = cls(seed)
    tracer.uninstall()
    gc.collect()
    gc.freeze()
    rounds = range(cls.TRACE_ROUNDS)
    plain_items = [x for k in rounds for x in workload.round(k, fresh=True)]
    traced_items = [x for k in rounds for x in workload.round(k, fresh=True)]
    plain, tally = Tally(), Tally()
    plain_ns = traced_ns = ops_self_ns = valuations = 0
    glue0 = tracer.self_ns.get("bench.op", 0)
    for i, (plain_item, traced_item) in enumerate(zip(plain_items, traced_items)):
        for traced_turn in ((False, True) if i % 2 == 0 else (True, False)):
            if not traced_turn:
                plain_ns += run_round(workload, [plain_item], plain)
                continue
            self0, vals0 = tracer.total_self_ns, workload.valuations
            tracer.install()
            traced_ns += run_round(workload, [traced_item], tally, tracer)
            tracer.uninstall()
            ops_self_ns += tracer.total_self_ns - self0
            valuations += workload.valuations - vals0
    tally.problems += plain.problems + workload.final_checks()
    metrics = layer_metrics(tracer, valuations)
    metrics["trace.overhead_s"] = ((traced_ns - plain_ns) / 1e9, "s")
    metrics["trace.ops_s"] = (plain_ns / 1e9, "s")
    metrics["trace.ops_self_s"] = (ops_self_ns / 1e9, "s")
    metrics["trace.unattributed_s"] = (
        (tracer.self_ns.get("bench.op", 0) - glue0) / 1e9, "s")
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"trace-{name}-seed{seed}.json")
    adds_up = abs(ops_self_ns - plain_ns) <= traced_ns - plain_ns
    return workload, tally, metrics, {"self_times_add_up": adds_up}


def run_one(name: str, seed: int, seconds: float, trace: int) -> int:
    import_s = _import_library()
    from workloads import WORKLOADS
    cls = WORKLOADS[name]
    if trace:
        workload, tally, metrics, extra = traced(cls, seed, name)
    else:
        workload, tally, metrics, extra = untraced(cls, seed, seconds, import_s)
    for problem in tally.problems[:20]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    result = {
        "correct": not tally.problems,
        "attempted": len(tally.times_ns),
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{name}-seed{seed}-trace{trace}.json", "w") as fh:
        json.dump(dict(result, workload=name, seed=seed, seconds=seconds,
                       problems=tally.problems, **workload.notes(), **extra),
                  fh, indent=1)
    print(f"workload {name} seed {seed} trace {trace}: "
          f"attempted {result['attempted']} failed {result['failed']} "
          f"correct {result['correct']}")
    for k, (v, u) in metrics.items():
        print(f"  {k:34s} {v:14.6g} {u}")
    if not trace:
        print("  (times at the reference speed; wall clock: " + ", ".join(
            f"{k} {v:.6g}" for k, v in extra["wall_clock"].items())
            + f"; mean probe {extra['probe_mean_ms']['ops']:.4g} ms)")
    if trace:
        print("  layer self times add up to the untraced op time within the "
              f"overhead: {extra['self_times_add_up']}")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS is its own."""
    results = {}
    for name in NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited with {proc.returncode}",
                  file=sys.stderr)
            return 1
        results[name] = json.loads(lines[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{k}": v for name, r in results.items()
                    for k, v in r["metrics"].items()},
    }))
    return 0


def main(argv=None) -> int:
    args = _parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
