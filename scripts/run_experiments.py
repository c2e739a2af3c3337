#!/usr/bin/env python3
"""Regenerate the checked benchmark CSVs (one per bench.CHECKS entry) into results/.

Phase fits are cached (GROVER_ITE_CACHE_DIR), so reruns are fast and
bitwise-identical for a fixed seed.  Exits 3, as ``bench --strict`` does, when
any check misses its thresholds.
"""

import argparse
import sys
import time
from pathlib import Path

from grover_ite_lab import bench


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out-dir", type=Path, default=Path("results"))
    parser.add_argument(
        "--only", choices=sorted(bench.RUNNERS), default=None,
        help="run a single experiment instead of every checked one",
    )
    args = parser.parse_args(argv)
    args.out_dir.mkdir(parents=True, exist_ok=True)

    experiments = [args.only] if args.only else list(bench.CHECKS)
    missed = False
    for name in experiments:
        config = bench.ExperimentConfig.for_experiment(name, seed=args.seed)
        start = time.time()
        text, rows = bench.RUNNERS[name](config)
        path = args.out_dir / f"{name.replace('-', '_')}.csv"
        path.write_text(text)
        line = f"{name}: {path} ({len(text.splitlines()) - 1} lines, {time.time()-start:.1f}s)"
        if name in bench.CHECKS:
            ok, message = bench.CHECKS[name](config, rows)
            line += f"  [{'ok' if ok else 'THRESHOLD MISS'}: {message}]"
            missed = missed or not ok
        print(line)
    return 3 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
