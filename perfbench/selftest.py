#!/usr/bin/env python3
"""Self-test of the benchmark's checks: each accepts the program's output and
rejects the same output perturbed.

    python3 perfbench/selftest.py

Run from the repository root; exits 0 when every check behaves.  It perturbs
outputs, never phases: the references start from the same phases, so a
perturbed phase list would move both sides of a check.
"""

from __future__ import annotations

import contextlib
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from grover_ite_lab import bench  # noqa: E402

OFFSET = 1e-6


def _no_region(name, kind):
    return contextlib.nullcontext()


class Report:
    def __init__(self):
        self.failures = 0

    def expect(self, what: str, rejected: bool, should_reject: bool):
        ok = rejected == should_reject
        self.failures += not ok
        verdict = "rejects" if rejected else "accepts"
        print(f"{'ok  ' if ok else 'FAIL'} {verdict} {what}")


def _perturb_csv(path: Path, pick, column: int):
    """Add OFFSET to one value of the first data row that ``pick`` selects."""
    lines = path.read_text().splitlines()
    for i, line in enumerate(lines):
        fields = line.split(",")
        if not line.startswith("#") and pick(fields):
            fields[column] = repr(float(fields[column]) + OFFSET)
            lines[i] = ",".join(fields)
            break
    else:
        raise LookupError(f"no row to perturb in {path}")
    path.write_text("\n".join(lines) + "\n")


def flow_checks(report: Report):
    """The cold-fit checks, on a committed phase list."""
    s, n = 1.0, 8
    phases = bench.fitted_ite_phases(s, 16, workloads.FIT_SEED)
    rows = [(m, inf) for m, _, inf in bench._ite_infidelities(phases, s, n)]
    reference = checks.flow_reference(phases, s, n)
    dense = checks.dense_sample(phases, s, n, [(0, 1, 2), tuple(range(0, 256, 2))])
    report.expect("flow-target rows", bool(checks.check_flow_rows(rows, reference, "")), False)
    report.expect("dense-state sample", bool(checks.check_dense_sample(rows, dense, "")), False)
    for m in (1, 3, 128):
        bad = [(mm, inf + OFFSET if mm == m else inf) for mm, inf in rows]
        report.expect(f"a flow-target row off by {OFFSET:g} (M={m}) against the 2x2 product",
                      bool(checks.check_flow_rows(bad, reference, "")), True)
        report.expect(f"a flow-target row off by {OFFSET:g} (M={m}) against the dense state",
                      bool(checks.check_dense_sample(bad, dense, "")), m in dense)


def warm_figures(report: Report, workdir: Path):
    """The warm-figures checks, through the workload's own pass and CSV files."""
    workload = workloads.WarmFigures(0, workdir, ROOT)
    workload.setup()
    workload.prepare_checks()
    outputs = workload.run_pass(0, _no_region)
    report.expect("the four figure CSVs", workload.check_pass(0, outputs).wrong > 0, False)
    cases = (
        ("fig-a", lambda f: f[1] == "77", 3, "a fig-a row"),
        ("fig-b", lambda f: f[0] == "6", 2, "a fig-b mean row"),
        ("fig-c", lambda f: f[0] == "2.0", 1, "a fig-c mean row"),
        ("fixed-point", lambda f: f[0] == "fixed-point-chebyshev" and f[1] == "200", 3,
         "a Chebyshev row"),
        ("fixed-point", lambda f: f[0] == "original-pi" and f[1] == "5", 3,
         "an original-pi row"),
    )
    for exp, pick, column, what in cases:
        path = workload._out(exp)
        saved = path.read_text()
        _perturb_csv(path, pick, column)
        report.expect(f"{what} off by {OFFSET:g}", workload.check_pass(0, outputs).wrong > 0, True)
        path.write_text(saved)


def dense_operators(report: Report):
    """The dense-operators checks, on one real pass with one output changed."""
    workload = workloads.DenseOperators(0, None, ROOT)
    workload.setup()
    outputs = workload.run_pass(0, _no_region)
    report.expect("the dense-operator results", workload.check_pass(0, outputs).wrong > 0, False)
    errors, slopes = outputs
    (_, bound), _ = errors[7]
    raised = list(errors)
    raised[7] = ((bound * (1.0 + OFFSET), bound), None)
    report.expect("a measured error raised above its bound",
                  workload.check_pass(0, (raised, slopes)).wrong > 0, True)
    shifted = list(slopes)
    shifted[-1] = (slopes[-1][0] + 2 * checks.ORDER_TOL, None)
    report.expect("an order fit shifted by twice its tolerance",
                  workload.check_pass(0, (errors, shifted)).wrong > 0, True)


def main() -> int:
    workdir = HERE / "runs" / f"selftest-{os.getpid()}"
    report = Report()
    try:
        shutil.copytree(ROOT / ".fit_cache", workdir / "fit_cache")
        os.environ[bench.CACHE_ENV_VAR] = str(workdir / "fit_cache")
        flow_checks(report)
        warm_figures(report, workdir / "warm")
        dense_operators(report)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"{report.failures} check(s) misbehaved")
    return 1 if report.failures else 0


if __name__ == "__main__":
    sys.exit(main())
