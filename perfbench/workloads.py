"""The benchmark's workloads.

Each is a closed loop with one client in one process: it runs one operation
at a time, in passes made of the same operations, and checks the outputs of
every pass against the references in checks.py.  The workload seed makes the
inputs; the program receives only those inputs.

The phase fits always use seed 0, the default of every figure command and
the seed of the committed .fit_cache/: the cost of a fit at K >= 16 depends
several-fold on its seed (4.3 s to 36.4 s for s=1, K=16 over seeds 0-3), so a
fit seed taken from the workload seed would make runs incomparable.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
from grover_ite_lab import bench, cli, geometry, pf_compiler
from grover_ite_lab.pf_compiler import (
    FiveCopies,
    GroupCommutator,
    JeanKoseleff,
    ThirdOrder,
    TwoCopies,
)
from grover_ite_lab.search_core import SearchInstance

FIT_SEED = 0


@dataclass
class PassCheck:
    """Operation accounting and check results of one pass."""

    attempted: int = 0
    errors: int = 0  # operations the program did not complete
    wrong: int = 0  # completed operations whose output failed a check
    digits: list[float] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)

    def error(self, label: str, message: str):
        self.attempted += 1
        self.errors += 1
        self.problems.append(f"{label}: {message}")

    def done(self, problems: list[str], digits: float | None = None):
        self.attempted += 1
        self.wrong += bool(problems)
        self.problems += problems
        if digits is not None:
            self.digits.append(digits)


def _attempt(fn):
    """(result, None) or (None, traceback): one failing operation must not end the run."""
    try:
        return fn(), None
    except Exception:
        return None, traceback.format_exc(limit=3)


def _exit_code(command, argv) -> int:
    """Run a click command in process, as its console script would, and return its exit code."""
    try:
        command(argv, standalone_mode=False)
    except SystemExit as exc:
        return exc.code or 0
    return 0


def _marked_sets(rng, n: int, sizes) -> list[tuple[int, ...]]:
    return [tuple(int(i) for i in rng.choice(1 << n, m, replace=False)) for m in sizes]


class ColdFit:
    """Fresh phase fits through bench.fitted_ite_phases into an empty cache.

    One operation fits a flow target, writes it into the cache and computes
    its rows at n=8.  s <= 1 is one rung that one restart settles; s > 1 runs
    a ladder with restarts past the first and the stall rule.  At K=8 the
    solves converge; at K=16 every solve stops at the iteration cap.  A fit at
    K=32 (s=0.5, 14 s) would double the pass and leave one pass per run.
    """

    REFERENCE = "numpy-calls"  # the host-speed reference, see hostclock.py

    TARGETS = ((2.0, 4), (3.0, 4), (1.0, 8))  # (s, iterations); K = 2 * iterations
    N_QUBITS = 8
    DENSE_CHECKS = 3  # marked counts per target run on the dense state

    def __init__(self, seed: int, workdir: Path, root: Path):
        self.rng = np.random.default_rng(seed)
        self.workdir = workdir

    def setup(self):
        self.cache_root = self.workdir / "cache"
        self.cache_root.mkdir(parents=True)

    def prepare_checks(self):
        big_n = 1 << self.N_QUBITS
        sizes = self.rng.choice(np.arange(1, big_n), self.DENSE_CHECKS, replace=False)
        self.sample = _marked_sets(self.rng, self.N_QUBITS, sizes)

    def _cache(self, index: int) -> Path:
        return self.cache_root / f"pass-{index}"

    def run_pass(self, index: int, region):
        # a directory that does not exist yet: the program creates its cache
        os.environ[bench.CACHE_ENV_VAR] = str(self._cache(index))
        outputs = []
        for s, iterations in self.TARGETS:
            def op():
                phases = bench.fitted_ite_phases(s, iterations, FIT_SEED)
                return phases, bench._ite_infidelities(phases, s, self.N_QUBITS)

            with region(f"fit s={s} K={2 * iterations}", "op"):
                outputs.append(_attempt(op))
        return outputs

    def check_pass(self, index: int, outputs) -> PassCheck:
        result = PassCheck()
        cache = self._cache(index)
        cached = [json.loads(p.read_text())["phases"] for p in sorted(cache.glob("*.json"))]
        for (s, iterations), (out, error) in zip(self.TARGETS, outputs):
            label = f"cold-fit s={s} K={2 * iterations}"
            if error:
                result.error(label, error)
                continue
            phases, rows = out
            by_m = [(m, inf) for m, _, inf in rows]
            problems = checks.check_flow_rows(
                by_m, checks.flow_reference(phases, s, self.N_QUBITS), label)
            problems += checks.check_dense_sample(
                by_m, checks.dense_sample(phases, s, self.N_QUBITS, self.sample), label)
            if list(phases.phases) not in cached:
                problems.append(f"{label}: fit not written to the cache")
            result.done(problems, checks.p95_digits([inf for _, inf in by_m]))
        shutil.rmtree(cache, ignore_errors=True)
        return result


class WarmFigures:
    """The four default experiments through the CLI, on a copy of .fit_cache/.

    One operation is ``grover-ite-lab bench <exp> --strict --out <file>``, run
    in process.  No fit runs: every phase list is a cache hit.
    """

    REFERENCE = "numpy-calls"

    EXPERIMENTS = ("fig-a", "fig-b", "fig-c", "fixed-point")
    HEADERS = {"fig-a": ["s", "M", "e0", "infidelity"], "fig-b": ["n", "s", "mean_infidelity"],
               "fig-c": ["s", "mean_infidelity"],
               "fixed-point": ["schedule", "M", "e0", "final_overlap"]}
    DENSE_CHECKS = 2  # marked counts per fig-a phase list run on the dense state

    def __init__(self, seed: int, workdir: Path, root: Path):
        self.rng = np.random.default_rng(seed)
        self.workdir = workdir
        self.committed_cache = root / ".fit_cache"

    def setup(self):
        if not any(self.committed_cache.glob("*.json")):
            raise FileNotFoundError(f"no committed phase cache at {self.committed_cache}")
        cache = self.workdir / "fit_cache"
        shutil.copytree(self.committed_cache, cache)
        os.environ[bench.CACHE_ENV_VAR] = str(cache)
        self.order = [self.EXPERIMENTS[i] for i in self.rng.permutation(len(self.EXPERIMENTS))]
        self.run_pass(-1, lambda name, kind: contextlib.nullcontext())  # warm-up, untimed

    def _out(self, exp: str) -> Path:
        return self.workdir / f"{exp}.csv"

    def run_pass(self, index: int, region):
        outputs = []
        for exp in self.order:
            argv = ["bench", exp, "--strict", "--out", str(self._out(exp))]
            messages = io.StringIO()
            with region(f"bench {exp}", "op"), contextlib.redirect_stderr(messages):
                code, error = _attempt(lambda: _exit_code(cli.main, argv))
            outputs.append((exp, code, error or messages.getvalue()))
        return outputs

    def prepare_checks(self):
        """Reference rows from the cached phase lists, computed apart from the program."""
        self.refs, self.dense, self.configs = {}, {}, {}
        for exp in self.EXPERIMENTS:
            self.configs[exp] = bench.ExperimentConfig.for_experiment(exp, seed=FIT_SEED)
        for exp in ("fig-a", "fig-b", "fig-c"):
            config = self.configs[exp]
            for s in config.s_values:
                phases = bench.fitted_ite_phases(s, config.iterations, FIT_SEED)
                for n in config.n_qubits:
                    self.refs[exp, s, n] = checks.flow_reference(phases, s, n)
                if exp == "fig-a":
                    n = config.n_qubits[0]
                    sizes = self.rng.choice(np.arange(1, 1 << n), self.DENSE_CHECKS, replace=False)
                    sample = _marked_sets(self.rng, n, sizes)
                    self.dense[s] = checks.dense_sample(phases, s, n, sample)

    def check_pass(self, index: int, outputs) -> PassCheck:
        result = PassCheck()
        checkers = {"fig-a": self._check_fig_a, "fig-b": self._check_means,
                    "fig-c": self._check_means, "fixed-point": self._check_fixed_point}
        for exp, code, messages in outputs:
            label = f"warm-figures {exp}"
            if code != 0:
                result.error(label, f"exit code {code}: {messages.strip()}")
                continue
            header, rows = _read_csv(self._out(exp))
            if header != self.HEADERS[exp]:
                result.done([f"{label} header {header}"])
                continue
            digits, problems = checkers[exp](exp, rows)
            result.done([f"{label} {p}" for p in problems], digits)
        return result

    def _check_fig_a(self, exp, rows):
        config = self.configs[exp]
        n = config.n_qubits[0]
        problems, digits = [], []
        for s in config.s_values:
            by_m = [(int(m), float(inf)) for ss, m, _, inf in rows if float(ss) == s]
            problems += checks.check_flow_rows(by_m, self.refs[exp, s, n], f"s={s}")
            problems += checks.check_dense_sample(by_m, self.dense[s], f"s={s}")
            if by_m:
                digits.append(checks.p95_digits([inf for _, inf in by_m]))
        if len(rows) != len(config.s_values) * ((1 << n) - 1):
            problems.append(f"{len(rows)} rows")
        return min(digits, default=None), problems

    def _check_means(self, exp, rows):
        """fig-b rows (n, s, mean) and fig-c rows (s, mean) against the 2x2 product."""
        config = self.configs[exp]
        problems, seen = [], set()
        for row in rows:
            n = int(row[0]) if len(row) == 3 else config.n_qubits[0]
            s, mean = float(row[-2]), float(row[-1])
            if (exp, s, n) not in self.refs:
                problems.append(f"unexpected row {row}")
                continue
            seen.add((exp, s, n))
            problems += checks.check_mean_row(mean, self.refs[exp, s, n], f"n={n} s={s}")
        missing = {key for key in self.refs if key[0] == exp} - seen
        if missing:
            problems.append(f"missing rows {sorted(missing)}")
        return None, problems

    def _check_fixed_point(self, exp, rows):
        config = self.configs[exp]
        by = {}
        for name, _, e0, ov in rows:
            by.setdefault(name, []).append((float(e0), float(ov)))
        iters, delta2 = config.iterations, config.delta2
        problems = checks.check_closed_form(
            by.get("fixed-point-chebyshev", []),
            lambda e0: checks.chebyshev_overlap(e0, iters, delta2), "fixed-point-chebyshev")
        problems += checks.check_closed_form(
            by.get("original-pi", []),
            lambda e0: checks.original_pi_overlap(e0, iters), "original-pi")
        sign = [ov for _, ov in by.get("sign-qsp", [])]
        if not sign or not all(-checks.TOL <= ov <= 1.0 + checks.TOL for ov in sign):
            problems.append("sign-qsp overlaps missing or outside [0, 1]")
        return None, problems


def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    lines = [line for line in path.read_text().splitlines() if not line.startswith("#")]
    table = [line.split(",") for line in lines]
    return table[0], table[1:]


class DenseOperators:
    """Dense operator checks at n=9 (N=512), the largest size the order fit takes.

    One operation is either one group-commutator error against its bound, or
    the empirical order of one formula kind.  The seed places the marked
    items; the results depend only on their number.
    """

    REFERENCE = "dense-matmul"

    N_QUBITS = 9
    S_VALUES = (0.1, 0.5, 1.0, 2.0, math.pi ** 2)
    KINDS = (GroupCommutator(), ThirdOrder(), TwoCopies(GroupCommutator()),
             JeanKoseleff(GroupCommutator()), FiveCopies(GroupCommutator()),
             JeanKoseleff(ThirdOrder()))
    ORDER_GRID = np.logspace(-3, -1, 8)

    def __init__(self, seed: int, workdir: Path, root: Path):
        self.rng = np.random.default_rng(seed)

    def setup(self):
        big_n = 1 << self.N_QUBITS
        sizes = (1, big_n // 4, big_n // 2, big_n - 1)
        self.points = [(SearchInstance(self.N_QUBITS, marked), s)
                       for marked in _marked_sets(self.rng, self.N_QUBITS, sizes)
                       for s in self.S_VALUES]
        self.order_instance = SearchInstance(
            self.N_QUBITS, _marked_sets(self.rng, self.N_QUBITS, (1,))[0])
        geometry.measured_gci_error(*self.points[0])  # starts the BLAS threads

    def prepare_checks(self):
        pass

    def run_pass(self, index: int, region):
        """(measured error, bound) per point, then the fitted slope per formula kind."""
        errors, slopes = [], []
        for inst, s in self.points:
            with region(f"gci M={inst.n_marked} s={s:g}", "op"):
                errors.append(_attempt(lambda: (
                    geometry.measured_gci_error(inst, s), geometry.gci_error_bound(inst, s))))
        for kind in self.KINDS:
            with region(f"order {kind}", "op"):
                slopes.append(_attempt(lambda: pf_compiler.fit_order(
                    pf_compiler.measure_formula_error(self.order_instance, kind, self.ORDER_GRID))))
        return errors, slopes

    def check_pass(self, index: int, outputs) -> PassCheck:
        errors, slopes = outputs
        result = PassCheck()
        for (inst, s), (out, error) in zip(self.points, errors):
            label = f"dense-operators M={inst.n_marked} s={s:g}"
            if error:
                result.error(label, error)
            else:
                result.done(checks.check_under_bound(*out, label))
        deviations = []
        for kind, (slope, error) in zip(self.KINDS, slopes):
            label = f"dense-operators order of {kind}"
            if error:
                result.error(label, error)
                continue
            claimed = pf_compiler.formula_order(kind) / 2.0
            deviations.append(abs(slope - claimed))
            result.done(checks.check_order(slope, claimed, label))
        if deviations:
            # the order-fit agreement stands in for fit quality on this workload
            result.digits.append(-math.log10(max(deviations)))
        return result


WORKLOADS = {"cold-fit": ColdFit, "warm-figures": WarmFigures, "dense-operators": DenseOperators}
