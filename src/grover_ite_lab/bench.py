"""Benchmark harness: deterministic experiment sweeps with CSV output.

Every run writes a diff-able CSV: first a comment line

    # grover-ite-lab v<semver> config=<sha256-prefix> seed=<u64>

then a header row and data rows with floats in shortest round-trip form.
Row order is canonical (sorted sweep keys), so identical config + seed gives
bitwise-identical bytes within one environment (the output path is not part of
the config hash).  Phase fits are cached on disk keyed by the fit inputs; the
cache stores the phase-list JSON, whose floats round-trip exactly, so warm runs
reproduce the run that filled the cache bit for bit.  A cold refit under a
different numpy/scipy/BLAS build or thread count may differ in the last digits.

EXPERIMENTS is the one place where an experiment is defined: config defaults,
row function, CSV layout (header, rows, trailing comments) and optional
``--strict`` check.  ``run(config)`` returns the CSV text and what the row
function returned, which the check reads instead of recomputing it.

Experiments:

* fig-a  -- infidelity of the fitted 2N-reflection sequence against the flow
            target, swept over the marked count at fixed n.
* fig-b  -- the same infidelity averaged over marked counts, swept over n,
            demonstrating system-size independence (phases are shared).
* fig-c  -- averaged infidelity against the flow duration s at fixed budget,
            showing degradation for large s.
* fixed-point -- terminal overlap of the original pi schedule, the
            quasi-Chebyshev fixed-point schedule, and the sign-route schedule.
* custom -- generic sweep over the same row schemas.
"""

from __future__ import annotations

import hashlib
import json
import operator
import math
import os
import tempfile
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from . import __version__
from .errors import ConfigInvalid, DomainError
# run_schedule stays importable from here: perfbench's traced run wraps bench.run_schedule
from .grover_engine import NamedSchedule, run_reduced, run_schedule  # noqa: F401
from .pf_compiler import AngleSchedule
from .qsp_engine import (
    QspPhases,
    _dr_forward,
    fit_ite_phases,
    fixed_point_via_sign,
    grover_to_qsp,
    phases_to_dr_angles,
    qsp_to_grover,
)

CACHE_ENV_VAR = "GROVER_ITE_CACHE_DIR"
# Signal points of every flow fit; a fit of K = 2 * iterations angles needs K <= FLOW_GRID.
FLOW_GRID = 50
# Marks the fit algorithm in both cache kinds; bumped whenever a fit's output may move.
FIT_ALGO = "infidelity-v1"


def _number(value, kind):
    if isinstance(value, (str, bytes)):  # float("0.5") would pass a quoted number
        raise TypeError(f"expected a number, got {value!r}")
    return operator.index(value) if kind is int else float(value)


def _numbers(values, kind) -> tuple:
    if isinstance(values, (str, bytes)):
        raise TypeError(f"expected a list, got {values!r}")
    return tuple(_number(v, kind) for v in values)


def _optional_str(value):
    if not isinstance(value, (str, type(None))):
        raise TypeError(f"expected a string, got {value!r}")
    return value


# How each config field is coerced; JSON configs can carry any type.
_COERCE = {
    "n_qubits": lambda v: _numbers(v, int),
    "iterations": lambda v: _number(v, int),
    "s_values": lambda v: _numbers(v, float),
    "delta2": lambda v: _number(v, float),
    "seed": lambda v: _number(v, int),
    "out": _optional_str,
    "schedule": _optional_str,
    "marked_counts": lambda v: None if v is None else _numbers(v, int),
    "eta": lambda v: _number(v, float),
    "restarts": lambda v: _number(v, int),
}


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    n_qubits: tuple[int, ...]
    iterations: int
    s_values: tuple[float, ...]
    delta2: float = 0.1
    seed: int = 0
    out: str | None = None
    schedule: str | None = None
    marked_counts: tuple[int, ...] | None = None
    eta: float = 0.1
    restarts: int = 8

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ConfigInvalid(f"unknown experiment {self.experiment!r}")
        for name, coerce in _COERCE.items():
            try:
                object.__setattr__(self, name, coerce(getattr(self, name)))
            except (TypeError, ValueError) as exc:
                raise ConfigInvalid(f"{name}: {exc}") from None
        if self.iterations < 1:
            raise ConfigInvalid("iterations must be >= 1")
        if not 0.0 < self.delta2 < 1.0:
            raise ConfigInvalid("delta2 must be in (0, 1)")
        if self.seed < 0:
            raise ConfigInvalid("seed must be a nonnegative integer")
        if self.restarts < 1:
            raise ConfigInvalid("restarts must be >= 1")
        if not self.n_qubits:
            raise ConfigInvalid("n_qubits must list at least one qubit count")
        if any(n < 1 or n > 14 for n in self.n_qubits):
            raise ConfigInvalid("n_qubits entries must be in 1..14")
        if not all(0.0 <= s < math.inf for s in self.s_values):
            raise ConfigInvalid("s_values must be finite and nonnegative")
        if self.s_values and 2 * self.iterations > FLOW_GRID:
            raise ConfigInvalid(
                f"iterations must be <= {FLOW_GRID // 2} when s_values is non-empty: flow fits "
                f"use a {FLOW_GRID}-point grid, got {self.iterations}")
        if not math.isfinite(self.eta):
            raise ConfigInvalid("eta must be finite")

    @classmethod
    def for_experiment(cls, experiment: str, **overrides) -> "ExperimentConfig":
        if experiment not in EXPERIMENTS:
            raise ConfigInvalid(f"unknown experiment {experiment!r}")
        params = dict(EXPERIMENTS[experiment].defaults)
        params.update({k: v for k, v in overrides.items() if v is not None})
        known = set(cls.__dataclass_fields__)
        unknown = set(params) - known
        if unknown:
            raise ConfigInvalid(f"unknown config fields: {sorted(unknown)}")
        return cls(experiment=experiment, **params)

    def to_dict(self) -> dict:
        return asdict(self)

    def config_hash(self) -> str:
        """Hash of the fields that shape the rows; the output path is not one."""
        fields = dict(self.to_dict(), out=None)
        text = json.dumps(fields, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode()).hexdigest()[:12]


def cache_dir() -> Path:
    override = os.environ.get(CACHE_ENV_VAR)
    base = Path(override) if override else Path.home() / ".cache" / "grover-ite-lab"
    base.mkdir(parents=True, exist_ok=True)
    return base


def _cache_key(payload: dict) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:32]


def _cached_phases(payload: dict, compute) -> QspPhases:
    """Cached phase list, or a fresh fit written atomically into the cache.

    An entry that does not parse (say, one cut short by a crash) is refitted
    and overwritten.  Entries are readable by all (mode 0644), so a cache
    directory can be shared between users.
    """
    path = cache_dir() / f"{_cache_key(payload)}.json"
    if path.exists():
        try:
            return QspPhases.from_json(path.read_text())
        except (ValueError, KeyError, TypeError):
            pass
    phases = compute()
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.stem}-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(phases.to_json())
        os.chmod(tmp, 0o644)  # mkstemp creates 0600
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return phases


def fitted_ite_phases(s: float, iterations: int, seed: int, restarts: int = 8) -> QspPhases:
    """Phase list for the flow target at duration s, disk-cached."""
    k = 2 * iterations
    payload = {
        "target": "ite-cos", "algo": FIT_ALGO, "s": repr(float(s)), "k": k,
        "n_d": FLOW_GRID, "seed": seed, "restarts": restarts,
    }
    return _cached_phases(payload, lambda: fit_ite_phases(
        s, k, n_d=FLOW_GRID, seed=seed, restarts=restarts)[0])


def fitted_sign_schedule(iterations: int, eta: float, delta_cap: float, seed: int,
                         restarts: int = 8) -> AngleSchedule:
    """Sign-route fixed-point schedule, disk-cached via its phase list."""
    payload = {
        "target": "sign", "algo": FIT_ALGO, "eta": repr(float(eta)),
        "cap": repr(float(delta_cap)), "iters": iterations, "seed": seed,
        "restarts": restarts,
    }

    def compute():
        sched = fixed_point_via_sign(iterations, eta, delta_cap, seed=seed, restarts=restarts)
        return grover_to_qsp(sched)

    return qsp_to_grover(_cached_phases(payload, compute))


# ---------------------------------------------------------------------------
# Row computations


def _ite_infidelities(phases: QspPhases, s: float, n: int) -> list[tuple[int, float, float]]:
    """(M, e0, infidelity) over all marked counts for one fitted phase list."""
    big_n = 1 << n
    ms = np.arange(1, big_n)
    e0s = ms / big_n
    xs = np.sqrt(e0s)
    a = phases_to_dr_angles(phases)
    state = _dr_forward(a, xs)[-1]
    theta = s * xs * np.sqrt(1.0 - xs ** 2)
    overlap = np.cos(theta) * state[0] + np.sin(theta) * state[1]
    inf = 1.0 - np.abs(overlap) ** 2
    return [(int(m), float(e), float(i)) for m, e, i in zip(ms, e0s, inf)]


def _flow_sweep(config: ExperimentConfig, ns) -> list[tuple]:
    """(n, s, infidelities) for each n in ns, then each swept s; one phase fetch per s."""
    s_values = sorted(config.s_values)
    phases = {s: fitted_ite_phases(s, config.iterations, config.seed, config.restarts)
              for s in s_values}
    return [(n, s, _ite_infidelities(phases[s], s, n)) for n in ns for s in s_values]


def fig_a_rows(config: ExperimentConfig) -> list[tuple]:
    return [(s, m, e0, inf) for _, s, infs in _flow_sweep(config, config.n_qubits[:1])
            for m, e0, inf in infs]


def fig_b_rows(config: ExperimentConfig) -> list[tuple]:
    return [(n, s, float(np.mean([inf for _, _, inf in infs])))
            for n, s, infs in _flow_sweep(config, sorted(config.n_qubits))]


def _pav_nondecreasing(y: np.ndarray) -> np.ndarray:
    """Pool-adjacent-violators fit of a nondecreasing sequence."""
    vals = [float(v) for v in y]
    weights = [1.0] * len(vals)
    i = 0
    while i < len(vals) - 1:
        if vals[i] > vals[i + 1] + 1e-15:
            merged = (vals[i] * weights[i] + vals[i + 1] * weights[i + 1]) / (
                weights[i] + weights[i + 1]
            )
            vals[i] = merged
            weights[i] += weights[i + 1]
            del vals[i + 1], weights[i + 1]
            i = max(i - 1, 0)
        else:
            i += 1
    out = []
    for v, w in zip(vals, weights):
        out.extend([v] * int(w))
    return np.array(out)


def fig_c_rows(config: ExperimentConfig):
    """Rows (s, mean infidelity) plus the isotonic-trend flag on s >= 1."""
    sweep = _flow_sweep(config, config.n_qubits[:1])
    rows = [(s, float(np.mean([inf for _, _, inf in infs]))) for _, s, infs in sweep]
    tail = np.array([inf for s, inf in rows if s >= 1.0])
    if len(tail) >= 2 and tail.max() > tail.min():
        fit = _pav_nondecreasing(tail)
        residual = float(np.sqrt(np.mean((tail - fit) ** 2)))
        trend_ok = residual <= 0.1 * float(tail.max() - tail.min())
    else:
        trend_ok = True
    return rows, trend_ok


def resolve_schedule(token: str, config: ExperimentConfig):
    """Schedule object for a name or a schedule-JSON path."""
    if token in ("original-pi", "pi-over-three"):
        return NamedSchedule(token, config.iterations)
    if token == "fixed-point-chebyshev":
        return NamedSchedule(token, config.iterations, delta2=config.delta2)
    if token == "sign-qsp":
        return fitted_sign_schedule(
            config.iterations, config.eta, config.delta2 / 2.0, config.seed, config.restarts
        )
    if token.endswith(".json") and Path(token).exists():
        try:
            return AngleSchedule.from_json(Path(token).read_text())
        # unreadable file (OSError), bad JSON, generator or number (ValueError),
        # missing key (KeyError), wrong JSON type (TypeError), NaN angle (DomainError)
        except (OSError, ValueError, KeyError, TypeError, DomainError) as exc:
            raise ConfigInvalid(f"malformed schedule file {token!r}: {exc!r}") from None
    raise ConfigInvalid(f"unknown schedule {token!r}")


def _marked_counts(config: ExperimentConfig) -> list[int]:
    """The swept marked counts in order: config.marked_counts, or 1..N-1."""
    big_n = 1 << config.n_qubits[0]
    ms = config.marked_counts or range(1, big_n)
    if any(not 1 <= m <= big_n - 1 for m in ms):
        raise ConfigInvalid("marked_counts must lie in 1..N-1")
    return sorted(ms)


def _overlap_rows(config: ExperimentConfig, names: list[str]) -> list[tuple]:
    ms = _marked_counts(config)
    e0s = [m / (1 << config.n_qubits[0]) for m in ms]
    rows = []
    for name in sorted(names):
        _, trace = run_reduced(resolve_schedule(name, config), e0s)
        if not len(trace):
            raise ConfigInvalid(f"schedule {name!r} has no steps")
        rows += [(name, m, e0, float(ov)) for m, e0, ov in zip(ms, e0s, trace[-1])]
    return rows


def fixed_point_rows(config: ExperimentConfig):
    """Rows (schedule, M, e0, final overlap) plus the Chebyshev valid range."""
    rows = _overlap_rows(
        config, ["original-pi", "fixed-point-chebyshev", "sign-qsp"]
    )
    cheb = [(m, ov) for name, m, _, ov in rows if name == "fixed-point-chebyshev"]
    level = 1.0 - config.delta2
    valid_from = None
    overlaps = [ov for _, ov in cheb]
    for i in range(len(overlaps)):
        if all(ov >= level - 1e-9 for ov in overlaps[i:]):
            valid_from = cheb[i][0] / (1 << config.n_qubits[0])
            break
    return rows, valid_from


def custom_rows(config: ExperimentConfig):
    """Generic sweep: schedule-overlap rows, or flow-infidelity rows, or empty."""
    if config.schedule is not None:
        return "overlap", _overlap_rows(config, [config.schedule])
    wanted = set(_marked_counts(config))
    return "infidelity", [row for row in fig_a_rows(config) if row[1] in wanted]


# ---------------------------------------------------------------------------
# CSV assembly


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def render_csv(config: ExperimentConfig, header: list[str], rows: list[tuple],
               trailing_comments: list[str] | None = None) -> str:
    lines = [
        f"# grover-ite-lab v{__version__} config={config.config_hash()} seed={config.seed}",
        ",".join(header),
    ]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    lines.extend(trailing_comments or [])
    return "\n".join(lines) + "\n"


def run(config: ExperimentConfig):
    """CSV text of one experiment and what its row function returned."""
    experiment = EXPERIMENTS[config.experiment]
    # by name at call time, so a wrapper on the module attribute (perfbench) sees the call
    result = globals()[experiment.rows](config)
    return render_csv(config, *experiment.layout(result)), result


# ---------------------------------------------------------------------------
# Threshold checks for --strict runs, on the rows their runner returned


def check_fig_a(config: ExperimentConfig, rows) -> tuple[bool, str]:
    problems = []
    for s in sorted(config.s_values):
        infs = np.array([inf for ss, _, _, inf in rows if ss == s])
        med, p95 = float(np.median(infs)), float(np.quantile(infs, 0.95))
        if med > 1e-2 or p95 > 2e-2:
            problems.append(f"s={s}: median={med:.3e} p95={p95:.3e}")
    return (not problems, "; ".join(problems) or "fig-a thresholds met")


def check_fig_b(config: ExperimentConfig, rows) -> tuple[bool, str]:
    problems = []
    for s in sorted(config.s_values):
        means = [mean for _, ss, mean in rows if ss == s]
        lo, hi = min(means), max(means)
        if hi - lo > 10.0 * lo:
            problems.append(f"s={s}: spread {hi - lo:.3e} > 10x min {lo:.3e}")
    return (not problems, "; ".join(problems) or "fig-b spread within 10x of min")


def check_fig_c(config: ExperimentConfig, result) -> tuple[bool, str]:
    """Infidelity at the largest s must exceed that at s=1 (else the smallest s)."""
    by_s = dict(result[0])
    if not by_s:
        return False, "no fig-c rows"
    s_max = max(by_s)
    s_ref = 1.0 if 1.0 in by_s else min(by_s)
    ok = by_s[s_max] > by_s[s_ref]
    return ok, f"infidelity(s={s_max})={by_s[s_max]:.3e} vs s={s_ref:g} {by_s[s_ref]:.3e}"


def check_fixed_point(config: ExperimentConfig, result) -> tuple[bool, str]:
    rows, valid_from = result
    if valid_from is None:
        return False, "chebyshev schedule has no valid range"
    level = 1.0 - config.delta2
    by = {}
    for name, m, e0, ov in rows:
        by.setdefault(name, []).append((e0, ov))
    cheb_ok = all(ov >= level - 1e-9 for e0, ov in by["fixed-point-chebyshev"] if e0 >= valid_from)
    pi_overshoot = any(ov < 0.5 for _, ov in by["original-pi"])
    sign_valid = [ov for e0, ov in by["sign-qsp"] if e0 >= valid_from]
    sign_ok = bool(np.mean([ov >= 0.85 for ov in sign_valid]) >= 0.9)
    ok = cheb_ok and pi_overshoot and sign_ok
    return ok, (
        f"cheb>= {level} on e0>={valid_from}: {cheb_ok}; "
        f"pi overshoot: {pi_overshoot}; sign>=0.85 on 90% of range: {sign_ok}"
    )


# ---------------------------------------------------------------------------
# The experiments


@dataclass(frozen=True)
class Experiment:
    """One experiment; ``layout`` maps its rows' result to (header, rows, trailing comments)."""

    defaults: dict
    rows: str  # name of the row function in this module
    layout: Callable[..., tuple]
    check: Callable | None = None


_INFIDELITY = ["s", "M", "e0", "infidelity"]
_OVERLAP = ["schedule", "M", "e0", "final_overlap"]

EXPERIMENTS = {
    "fig-a": Experiment(
        dict(n_qubits=(8,), iterations=16, s_values=(0.5, 1.0, 3.0)),
        "fig_a_rows", lambda rows: (_INFIDELITY, rows, []), check_fig_a),
    "fig-b": Experiment(
        dict(n_qubits=(4, 6, 8), iterations=8, s_values=(1.0, 3.0, 4.0)),
        "fig_b_rows", lambda rows: (["n", "s", "mean_infidelity"], rows, []), check_fig_b),
    "fig-c": Experiment(
        # a harness choice, not a quoted setting: K=40 runs out of budget past s=8
        dict(n_qubits=(6,), iterations=20, s_values=(0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0)),
        "fig_c_rows",
        lambda result: (["s", "mean_infidelity"], result[0],
                        [f"# monotone_trend_s_ge_1={result[1]}"]),
        check_fig_c),
    "fixed-point": Experiment(
        dict(n_qubits=(8,), iterations=20, s_values=()),
        "fixed_point_rows",
        lambda result: (_OVERLAP, result[0], [
            f"# chebyshev_valid_e0_min={'none' if result[1] is None else _fmt(result[1])}"]),
        check_fixed_point),
    "custom": Experiment(
        dict(n_qubits=(8,), iterations=16, s_values=()),
        "custom_rows",
        lambda result: (_OVERLAP if result[0] == "overlap" else _INFIDELITY, result[1], [])),
}

# The CLI and scripts/run_experiments.py call through these views, and
# perfbench's traced run wraps their entries one by one.
RUNNERS = {name: run for name in EXPERIMENTS}
CHECKS = {name: e.check for name, e in EXPERIMENTS.items() if e.check is not None}
