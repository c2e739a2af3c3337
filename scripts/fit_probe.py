#!/usr/bin/env python3
"""Fit a fixed probe set and write its phases, costs and target series as exact JSON.

A change meant to leave the fits and the Chebyshev-series builders untouched
(a faster kernel, a refactor of the fit driver or of the series builders) can
be checked by running this on both sides and comparing bytes:

    PYTHONPATH=src python scripts/fit_probe.py before.json   # on the old tree
    PYTHONPATH=src python scripts/fit_probe.py after.json    # on the new tree
    cmp before.json after.json

Floats are written with ``repr``, which round-trips exactly, so equal files
mean bit-for-bit equal fits.  Compare runs made in the same environment: a
different numpy/scipy/BLAS build or thread count may move the last digits.
Each probe's time, least-squares solves and residual evaluations go to
standard error, so a change to the fit driver's stop rules shows there: the
K=8 flow probes at s=2 and s=3 end at a restart that refinds the best
minimum, s=5 on the stall limit after restart 1 improves on the formula, and
s=1, K=16 at its goal.  The probe set takes about 1.9 s on a 2-vCPU x86-64
host (the whole script), most of it start-up, the first scipy import and the
N=6 sign fit.
"""

import argparse
import json
import sys
import time
from pathlib import Path

from grover_ite_lab import qsp_engine
from grover_ite_lab.qsp_engine import (
    ChebyshevPoly,
    fit_ite_phases,
    fit_phases,
    fixed_point_via_sign,
    jacobi_anger,
    sign_poly,
    target_ite_component,
)


def _fit(phases_and_cost):
    phases, cost = phases_and_cost
    return {"phases": [repr(p) for p in phases.phases], "cost": repr(cost)}


def _series(coeffs):
    return {"coeffs": [repr(float(c)) for c in coeffs]}


def _schedule(schedule):
    return {"pairs": [[repr(a), repr(b)] for a, b in schedule.grover_pairs()]}


PROBES = {
    "jacobi_anger cos s=1 eps=1e-8": lambda: _series(jacobi_anger("cos", 1.0, 1e-8).coeffs),
    "jacobi_anger sin s=2 eps=1e-9": lambda: _series(jacobi_anger("sin", 2.0, 1e-9).coeffs),
    "jacobi_anger cos s=20 eps=1e-3": lambda: _series(jacobi_anger("cos", 20.0, 1e-3).coeffs),
    "target_ite_component s=1 eps=1e-8": lambda: _series(target_ite_component(1.0, 1e-8).coeffs),
    "target_ite_component s=8 eps=1e-6": lambda: _series(target_ite_component(8.0, 1e-6).coeffs),
    "target_ite_component s=32 eps=1e-3": lambda: _series(
        target_ite_component(32.0, 1e-3).coeffs),
    "sign_poly eta=0.1 cap=0.05": lambda: _series(sign_poly(0.1, 0.05).coeffs),
    "fixed-point sign target N=6 eta=0.35 cap=0.05": lambda: _series(
        qsp_engine._sign_series(0.35, 0.05, 1.0, 11)),
    "fit_phases linear K=1 seed=5": lambda: _fit(
        fit_phases(ChebyshevPoly((0.0, 1.0), "odd"), 1, seed=5, restarts=4)),
    "fit_phases (0.5,0,0.5) K=2 seed=11": lambda: _fit(
        fit_phases(ChebyshevPoly((0.5, 0.0, 0.5), "even"), 2, seed=11, restarts=3)),
    "fit_phases (0.3,0,0.5) K=2 seed=11": lambda: _fit(
        fit_phases(ChebyshevPoly((0.3, 0.0, 0.5), "even"), 2, seed=11, restarts=3)),
    "fit_phases sign_poly(0.3,0.2) K=9 seed=0": lambda: _fit(
        fit_phases(sign_poly(0.3, 0.2), 9, seed=0, restarts=2)),
    "fit_ite_phases s=0.5 K=8": lambda: _fit(fit_ite_phases(0.5, 8)),
    "fit_ite_phases s=2 K=8": lambda: _fit(fit_ite_phases(2.0, 8)),
    "fit_ite_phases s=3 K=8": lambda: _fit(fit_ite_phases(3.0, 8)),
    "fit_ite_phases s=5 K=8": lambda: _fit(fit_ite_phases(5.0, 8)),
    "fit_ite_phases s=2 K=4 seed=3": lambda: _fit(fit_ite_phases(2.0, 4, seed=3)),
    "fit_ite_phases s=1 K=16": lambda: _fit(fit_ite_phases(1.0, 16)),
    "fixed_point_via_sign N=6 eta=0.35 cap=0.05 seed=3": lambda: _schedule(
        fixed_point_via_sign(6, 0.35, 0.05, seed=3)),
}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("out", type=Path, help="where to write the JSON")
    args = parser.parse_args(argv)
    solves, solve = [], qsp_engine._lsq_solve

    def counted(*solve_args, **kwargs):
        res = solve(*solve_args, **kwargs)
        solves.append(res.nfev)
        return res

    qsp_engine._lsq_solve = counted
    results = {}
    for name, probe in PROBES.items():
        solves.clear()
        start = time.perf_counter()
        results[name] = probe()
        print(f"{name}: {time.perf_counter() - start:.2f}s, {len(solves)} solves, "
              f"{sum(solves)} evaluations", file=sys.stderr)
    args.out.write_text(json.dumps(results, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
