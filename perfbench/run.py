"""craftfaces benchmark.

    python3 perfbench/run.py --workload order-sweep --seed 1 --seconds 15 --trace 0

With ``--trace 0`` it measures the end-to-end metrics: ``wall_s`` (seconds
of one full run, artifact written, after set-up and a warm-up run; the
fastest run, since other tenants of the machine only ever add time),
``setup_s`` (median cold set-up over fresh processes) and ``peak_mem_mib``
(tracemalloc peak of one separate run). With ``--trace 1`` it alternates
untraced and traced runs and reports the per-layer metrics of the traced
ones, plus ``trace.overhead_s``. Every run's output is checked, and every
run of one invocation, traced or not, must write byte-identical artifacts.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give the same figures for a reader, with sample counts and the run
environment. Artifacts, spans and a result file go to ``perfbench/out``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import subprocess
import sys
import tracemalloc
from pathlib import Path
from statistics import median
from time import perf_counter

import checkout

SETUP_PROBES = 7
PROBE_TIMEOUT_S = 60
MIN_TIMED_RUNS = 3


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


class Runner:
    """Runs one workload repeatedly on fixed inputs, checking each run."""

    def __init__(self, workload, inputs, out_dir: Path):
        self.workload = workload
        self.inputs = inputs
        self.path = out_dir / workload.artifact
        self.attempted = 0
        self.failed = 0
        self.deterministic = True
        self.digests: set[str] = set()
        self.observations: list[dict] = []

    def attempt(self) -> float:
        """One full run; returns its wall seconds (measured whatever the outcome)."""
        self.attempted += 1
        self.path.unlink(missing_ok=True)
        wall = None
        t0 = perf_counter()
        try:
            result = self.workload.run(self.inputs, self.path)
            wall = perf_counter() - t0
            problems = self.workload.check(self.inputs, result, self.path)
            self.digests.add(hashlib.sha256(self.path.read_bytes()).hexdigest())
            self.observations.append(self.workload.observe(result))
        except Exception as exc:  # a failing run is counted, not fatal
            if wall is None:
                wall = perf_counter() - t0
            problems = [f"raised {type(exc).__name__}: {exc}"]
        if problems:
            self.failed += 1
            print(f"run {self.attempted} failed its output check:", file=sys.stderr)
            for p in problems[:10]:
                print(f"  {p}", file=sys.stderr)
        return wall


def _timed_loop(seconds: float, step) -> None:
    """Call ``step`` until the next call would overrun ``seconds``."""
    start = perf_counter()
    done = 0
    last = 0.0
    while done < MIN_TIMED_RUNS or perf_counter() - start + last <= seconds:
        t = perf_counter()
        step()
        last = perf_counter() - t
        done += 1


def _setup_samples(workload: str, seed: int) -> list[float]:
    probe = Path(__file__).with_name("setup_probe.py")
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(probe), workload, str(seed)],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
        )
        samples.append(json.loads(done.stdout.splitlines()[-1])["setup_s"])
    return samples


def _peak_mem_mib(runner: Runner) -> float:
    tracemalloc.start()
    try:
        runner.attempt()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / 2**20


def _distribution(walls: list[float]) -> str:
    """Median, and the highest percentile with ten runs above it."""
    s = sorted(walls)
    text = f"median {median(s):.6g} s"
    if len(s) > 10:
        text += f", p{100 * (len(s) - 10) / len(s):.0f} {s[-11]:.6g} s"
    return text


def _end_to_end(runner: Runner, args) -> tuple[dict, dict]:
    setup = _setup_samples(args.workload, args.seed)
    runner.attempt()  # warm-up
    walls: list[float] = []
    _timed_loop(args.seconds, lambda: walls.append(runner.attempt()))
    peak = _peak_mem_mib(runner)
    metrics = {
        "wall_s": (min(walls), "s", len(walls)),
        "setup_s": (median(setup), "s", len(setup)),
        "peak_mem_mib": (peak, "MiB", 1),
    }
    samples = {"wall_s": walls, "setup_s": setup, "peak_mem_mib": [peak]}
    return metrics, samples


def _per_layer(runner: Runner, args, out_dir: Path) -> tuple[dict, dict]:
    from layers import PER_LAYER_UNITS, layer_counts, layer_times, trace_targets
    from tracer import Tracer

    functions, methods = trace_targets()
    units = runner.workload.units()
    plain: list[float] = []
    traced: list[float] = []
    times: list[dict] = []
    counts: list[dict] = []
    first: list[Tracer] = []  # the first traced run, whose spans are written out

    def pair():
        plain.append(runner.attempt())
        tr = Tracer()
        with tr.installed(functions, methods):
            traced.append(runner.attempt())
        times.append(layer_times(tr))
        counts.append(layer_counts(tr, units))
        if not first:
            first.append(tr)

    runner.attempt()  # warm-up
    _timed_loop(args.seconds, pair)
    first[0].write_spans(out_dir / f"spans-seed{args.seed}.csv")
    if any(c != counts[0] for c in counts):
        runner.deterministic = False
        print("call counts differ between traced runs at one seed", file=sys.stderr)
    values = {
        **counts[0],
        **{k: median(t[k] for t in times) for k in times[0]},
        "trace.overhead_s": median(traced) - median(plain),
    }
    metrics = {k: (values[k], unit, len(traced)) for k, unit in PER_LAYER_UNITS.items()}
    samples = {"untraced_wall_s": plain, "traced_wall_s": traced}
    return metrics, samples


def main(argv=None) -> int:
    args = _parse(argv)
    checkout.pin_blas_threads()
    checkout.import_craftfaces()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    out_dir = checkout.OUT / workload.name
    out_dir.mkdir(parents=True, exist_ok=True)
    env = checkout.environment()

    runner = Runner(workload, workload.setup(args.seed), out_dir)
    if args.trace:
        metrics, samples = _per_layer(runner, args, out_dir)
    else:
        metrics, samples = _end_to_end(runner, args)

    if len(runner.digests) > 1:
        runner.deterministic = False
        print(f"runs at one seed wrote {len(runner.digests)} different artifacts", file=sys.stderr)
    if not runner.deterministic:  # no run's output can be trusted
        runner.failed = runner.attempted
    error_rate = runner.failed / runner.attempted

    print(f"perfbench {workload.name} seed={args.seed} trace={args.trace}")
    print(f"env {json.dumps(env, sort_keys=True)}")
    for name, (value, unit, n) in metrics.items():
        print(f"  {name:<42} {value:>14.6g} {unit:<6} n={n}")
    if "wall_s" in samples:
        print(f"  {'wall_s distribution':<42} {_distribution(samples['wall_s'])}")
    print(f"  {'error_rate':<42} {error_rate:>14.6g} {'ratio':<6} "
          f"{runner.failed} failed of {runner.attempted}")
    print(f"  artifact sha256 {sorted(runner.digests)}")
    if runner.observations and runner.observations[0]:
        print(f"  observed {runner.observations[0]}")
    if args.trace:
        for name, expected in workload.BASELINE.items():
            got = metrics[name][0]
            print(f"  per-unit {name:<34} {got:>10.6g} seed-code baseline {expected:<8} "
                  f"{'same' if got == expected else 'DIFFERENT'}")

    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }
    record = {
        **result,
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "env": env, "samples": samples, "error_rate": error_rate,
        "artifact_sha256": sorted(runner.digests), "observations": runner.observations,
    }
    (out_dir / f"BENCH_seed{args.seed}_trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
