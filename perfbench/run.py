#!/usr/bin/env python3
"""Run one benchmark workload and print its result as the last line of stdout.

    python3 perfbench/run.py --workload cold-fit --seed 1 --seconds 15 --trace 0

Run from the repository root.  The program is imported from src/ of the same
tree.  With --trace 0 the result holds the end-to-end metrics; with --trace 1
it holds the per-layer metrics of a traced run, whose spans are written to
perfbench/runs/.  Untraced times are given at the nominal host speed of
hostclock.py; the raw figures go to standard error.  Metric names and units come from BENCHMARK.json.  See
perfbench/README.md for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostclock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = HERE / "runs"
SETUP_REPEATS = 3  # setup_s is the median of this many fresh set-ups
# A run's first pass is the slowest; with one pass alone, a cold-fit run whose
# first pass outlasts --seconds would report it unbalanced.
MIN_PASSES = 2
SETUP_TIMEOUT_S = 60
SHOWN_PROBLEMS = 20


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set the workload up and exit; used to time set-up")
    return parser.parse_args(argv)


def _load_program():
    src = ROOT / "src"
    if not (src / "grover_ite_lab" / "__init__.py").is_file():
        sys.exit(f"perfbench: no grover_ite_lab sources under {src}")
    sys.path.insert(0, str(src))


def _tree_digest(path: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(path.glob("*"))}


def _time_setup(args, clock) -> float:
    """Wall time, at nominal host speed, of a fresh interpreter that imports the
    program and sets the workload up.

    The host's speed is taken just before and just after the child runs: the
    child cannot be sampled from inside without timing its own start.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", "0"]
    before = clock.spot_speed()
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          text=True, timeout=SETUP_TIMEOUT_S)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"set-up failed ({proc.returncode}): {proc.stderr.strip()}")
    return elapsed * (before + clock.spot_speed()) / 2.0


def _no_region(name, kind):
    return contextlib.nullcontext()


def main(argv=None) -> int:
    args = _parse(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    _load_program()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}")
    workdir = RUNS / f"{args.workload}-{args.seed}-{os.getpid()}"
    if args.setup_only:
        try:
            workloads.WORKLOADS[args.workload](args.seed, workdir, ROOT).setup()
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        return 0

    committed_cache = _tree_digest(ROOT / ".fit_cache")
    clock = hostclock.HostClock(workloads.WORKLOADS[args.workload].REFERENCE)
    setup_s = statistics.median(_time_setup(args, clock) for _ in range(SETUP_REPEATS))

    tracer = None
    if args.trace:
        import layers
        from tracer import Tracer

        tracer = Tracer("perfbench")
        layers.instrument(tracer)

    walls, cpus, speeds = [], [], []
    attempted = errors = wrong = 0
    digits, problems = [], []
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir, ROOT)
        workload.setup()
        workload.prepare_checks()
        while len(walls) < MIN_PASSES or sum(walls) < args.seconds:
            index = len(walls)
            installed = tracer.installed() if tracer else clock.sampling()
            region = tracer.region if tracer else _no_region
            with installed:
                wall0, cpu0 = time.perf_counter(), time.process_time()
                outputs = workload.run_pass(index, region)
                wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
            if not tracer:
                wall, cpu = wall - clock.spent_wall, cpu - clock.spent_cpu
                speeds.append(clock.speed())
            walls.append(wall)
            cpus.append(cpu)
            check = workload.check_pass(index, outputs)
            attempted += check.attempted
            errors += check.errors
            wrong += check.wrong
            digits += check.digits
            problems += check.problems
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if _tree_digest(ROOT / ".fit_cache") != committed_cache:
        problems.append("the committed .fit_cache/ changed during the run")
        wrong += 1
    for line in problems[:SHOWN_PROBLEMS]:
        print(f"perfbench: {line}", file=sys.stderr)

    if not digits:
        sys.exit("perfbench: no operation completed")
    if tracer:
        wall_s, cpu_s = statistics.median(walls), statistics.median(cpus)
        values = layers.layer_metrics(tracer.spans, len(walls))
        values["trace.wall_s"] = sum(walls) / len(walls)  # a mean, as the layer metrics are
        values["process.extra_thread_cpu_s"] = cpu_s - wall_s
        declared = spec["per_layer"]
        trace_path = RUNS / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.dump(trace_path, {"workload": args.workload, "seed": args.seed,
                                 "passes": len(walls), "pass_wall_s": walls,
                                 "pass_cpu_s": cpus})
    else:
        wall_s = statistics.median(w * q for w, q in zip(walls, speeds))
        cpu_s = statistics.median(c * q for c, q in zip(cpus, speeds))
        print(f"perfbench: {len(walls)} passes; raw pass wall median {statistics.median(walls):.4f} s, "
              f"cpu median {statistics.median(cpus):.4f} s; host speed {min(speeds):.3f} to "
              f"{max(speeds):.3f} of nominal, median {statistics.median(speeds):.3f}",
              file=sys.stderr)
        values = {
            "setup_s": setup_s,
            "wall_s": wall_s,
            "ops_per_s": (attempted - errors - wrong) / len(walls) / wall_s,
            "cpu_s": cpu_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "fit_digits": min(digits),
        }
        declared = spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(values) != set(units):
        sys.exit(f"perfbench: metrics {sorted(set(values) ^ set(units))} "
                 "differ from BENCHMARK.json")
    result = {
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": errors + wrong,
        "metrics": {name: {"value": float(values[name]), "unit": units[name]}
                    for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
