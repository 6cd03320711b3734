#!/usr/bin/env python3
"""Benchmark for the pga library: seeded workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload chain_integral --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

A single process with one thread drives the library in a closed loop: the
next item starts only after the previous one returns.  ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` wraps the public functions of every
layer (see spans.py) and reports the per-layer metrics instead.  Times are
scaled to a nominal machine speed (see speed.py).  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import speed
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MIN_ITEMS = 100  # so that p90 has at least ten samples beyond it
MAX_MEASURE_S = 120.0  # stop adding rounds past this, whatever MIN_ITEMS says
SETUP_FIRST = 3  # set-up samples before the first round
SETUP_PER_ROUND = 1  # and after each round

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "item_ms_p50": "ms",
    "item_ms_p90": "ms",
    "peak_rss_mb": "MB",
}

SETUP_CHILD = """\
import time
import speed
before = [speed.kernel_s() for _ in range(3)]
start = time.perf_counter()
import pga.cli
for p in {ps!r}:
    pga.qarith.make_context(p)
elapsed = time.perf_counter() - start
after = [speed.kernel_s() for _ in range(3)]
print(repr(elapsed), repr(speed.scale(before + after)))
"""


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def measure_setup(ps, count: int) -> list[tuple[float, float]]:
    """(normalized, raw) seconds of ``import pga.cli`` plus make_context(p) for each p,
    each timed in a fresh process that also times the speed kernel around it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), str(Path(__file__).resolve().parent), env.get("PYTHONPATH")])
    )
    code = SETUP_CHILD.format(ps=tuple(ps))
    samples = []
    for _ in range(count):
        done = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=120, check=True,
        )
        raw, factor = map(float, done.stdout.split())
        samples.append((raw * factor, raw))
    return samples


class Pass:
    """Timed items: latencies at nominal speed and as measured, walls per round, failures."""

    def __init__(self):
        self.latencies: list[float] = []
        self.raw_latencies: list[float] = []
        self.round_walls: list[float] = []
        self.raw_round_walls: list[float] = []
        self.failures: list[str] = []

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    def run_round(self, workload, items) -> None:
        kernels = [speed.kernel_s()]
        raw = []
        for item in items:
            start = time.perf_counter()
            try:
                result = workload.run(item)
            except (Exception, SystemExit) as exc:  # counted, then on to the next item
                elapsed = time.perf_counter() - start
                error = f"{item!r}: raised {type(exc).__name__}: {exc}"
            else:
                elapsed = time.perf_counter() - start
                error = workload.check(item, result)
            raw.append(elapsed)
            if error:
                self.failures.append(error)
            kernels.append(speed.kernel_s())
        # item j ran between kernels[j] and kernels[j + 1]; take two on each side
        norm = [t * speed.scale(kernels[max(0, j - 1): j + 3]) for j, t in enumerate(raw)]
        self.latencies += norm
        self.raw_latencies += raw
        self.round_walls.append(sum(norm))
        self.raw_round_walls.append(sum(raw))


def end_to_end(workload, seed: int, seconds: float) -> tuple[Pass, dict, list[str]]:
    measure_setup(workload.ps, 1)  # warms the bytecode cache; not a sample
    setup = measure_setup(workload.ps, SETUP_FIRST)
    pga = workloads.load_pga()
    for p in workload.ps:
        pga.qarith.make_context(p)
    wl = workload(pga)
    rng = random.Random(seed)
    timed = Pass()
    begin = time.perf_counter()
    while True:
        timed.run_round(wl, wl.make_round(rng))
        setup += measure_setup(workload.ps, SETUP_PER_ROUND)
        if sum(timed.raw_round_walls) >= seconds and timed.attempted >= MIN_ITEMS:
            break
        if time.perf_counter() - begin > MAX_MEASURE_S:
            break

    def p90(values):
        return statistics.quantiles(values, n=10)[8] if len(values) > 1 else values[0]

    lat_ms = [1000.0 * t for t in timed.latencies]
    raw_ms = [1000.0 * t for t in timed.raw_latencies]
    metrics = {
        "setup_s": statistics.median(s for s, _ in setup),
        "wall_s": statistics.median(timed.round_walls),
        "item_ms_p50": statistics.median(lat_ms),
        "item_ms_p90": p90(lat_ms),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    n, rounds = timed.attempted, len(timed.round_walls)
    beyond = sum(t > metrics["item_ms_p90"] for t in lat_ms)
    notes = {
        "setup_s": f"median of {len(setup)} fresh processes (import pga.cli, make_context(p) "
                   f"for p in {tuple(workload.ps)}); raw {statistics.median(r for _, r in setup):.4f}",
        "wall_s": f"median of {rounds} rounds of {n // rounds} items, checks excluded; "
                  f"raw {statistics.median(timed.raw_round_walls):.4f}",
        "item_ms_p50": f"n={n}; raw {statistics.median(raw_ms):.4f}",
        "item_ms_p90": f"n={n}, {beyond} beyond; raw {p90(raw_ms):.4f}",
        "peak_rss_mb": "ru_maxrss of this process",
    }
    lines = [f"{k:<13} {v:>12.4f} {END_TO_END_UNITS[k]:<3} {notes[k]}" for k, v in metrics.items()]
    return timed, metrics, lines


def traced(workload, seed: int, seconds: float):
    """Traced set-up, then rounds of the same items, untraced and traced in turn."""
    pga = workloads.load_pga()
    targets = spans.targets(pga)
    setup = spans.Tracer()
    with setup.installed(targets):
        for p in workload.ps:  # the lazy set-up, traced from a cold start
            pga.qarith.make_context(p)
    wl = workload(pga)
    items = wl.make_round(random.Random(seed))
    rounds = spans.Tracer()
    without_trace, with_trace = Pass(), Pass()
    while True:
        without_trace.run_round(wl, items)
        with rounds.installed(targets):
            with_trace.run_round(wl, items)
        if sum(without_trace.raw_round_walls) + sum(with_trace.raw_round_walls) >= seconds:
            break
    count = len(with_trace.round_walls)
    overhead = sum(with_trace.round_walls) / sum(without_trace.round_walls)
    values = spans.layer_values([(setup, 1.0), (rounds, 1.0 / count)], overhead)
    units = {name: unit for name, (unit, _) in spans.LAYER_METRICS.items()}
    lines = [f"{k:<46} {v!r:>24} {units[k]}" for k, v in values.items()]
    lines.append(f"(traced set-up, then per traced round: {count} rounds of {len(items)} items, "
                 f"each also run untraced for the overhead ratio)")
    missing = spans.missing_predictions(workload.name, values)
    return [without_trace, with_trace], values, units, lines, missing


def run_one(args) -> int:
    workload = workloads.WORKLOADS[args.workload]
    print(f"pga benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    problems: list[str] = []
    if args.trace:
        passes, values, units, lines, missing = traced(workload, args.seed, args.seconds)
        problems += [f"{name} is predicted non-zero on {args.workload} but reads 0" for name in missing]
    else:
        timed, values, lines = end_to_end(workload, args.seed, args.seconds)
        passes, units = [timed], END_TO_END_UNITS

    import numpy

    attempted = sum(p.attempted for p in passes)
    failures = [f for p in passes for f in p.failures]
    env = {
        "seed": args.seed,
        "items": {args.workload: attempted},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "speed_kernel_ms": 1000.0 * statistics.median(speed.kernel_s() for _ in range(5)),
        "speed_nominal_ms": 1000.0 * speed.NOMINAL_S,
    }
    print("env: " + json.dumps(env))
    for line in lines:
        print(line)
    print(f"fail_ratio    {len(failures)}/{attempted} = {len(failures) / attempted:g}")
    for message in (failures + problems)[:20]:
        print("FAIL: " + message, file=sys.stderr)

    correct = not failures and not problems
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload, each in its own process, one after the other."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
        sys.stderr.write(done.stderr)
        out = done.stdout.strip().splitlines()
        if not out:
            print(f"{name}: no output, exit {done.returncode}", file=sys.stderr)
            return 1
        print("\n".join(out[:-1]))
        result = json.loads(out[-1])
        summary["correct"] = summary["correct"] and result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        summary["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if not (SRC / "pga" / "__init__.py").is_file():
        print(f"error: the pga sources are not at {SRC / 'pga'}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
