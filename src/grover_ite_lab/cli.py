"""Command-line interface.

Subcommands: ``bench fig-a|fig-b|fig-c|fixed-point|custom``, ``simulate``,
``compile``, ``qsp fit|map|check``, ``geodesic``.  Exit codes: 0 success,
2 configuration error, 3 numerical-contract violation under ``--strict``.
The phase-fit cache location honors the GROVER_ITE_CACHE_DIR environment
variable.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import click

from . import __version__, bench
from .errors import ConfigInvalid, GroverIteError
from .geometry import (
    QUERY_BOUND_CONSTANT,
    instance_fs_distance,
    query_bound,
    su_geodesic_length,
)
from .ite_flow import optimal_duration
from .pf_compiler import (
    AngleSchedule,
    FiveCopies,
    GroupCommutator,
    JeanKoseleff,
    ThirdOrder,
    TwoCopies,
    compile_formula,
)
from .qsp_engine import (
    ChebyshevPoly,
    QspPhases,
    check_achievability,
    convert_convention,
    fit_phases,
    grover_to_qsp,
    qsp_to_grover,
    sign_poly,
)
from .search_core import SearchInstance


def _fail(code: int, message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _parse_marked(text: str, n: int) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(",") if tok.strip() != "")
    except ValueError:
        raise ConfigInvalid(f"cannot parse marked set {text!r}")


def _target_params(target: str, *names: str) -> list[float]:
    """The float fields ``names`` of a "kind:name=<float>,..." target, in that order."""
    kind, _, body = target.partition(":")
    params = dict(tok.strip().partition("=")[::2] for tok in body.split(","))
    try:
        return [float(params[name]) for name in names]
    except (KeyError, ValueError):
        form = ",".join(f"{name}=<float>" for name in names)
        raise ConfigInvalid(f"{kind} target needs {form}, got {target!r}") from None


def _emit(text: str, out: str | None):
    if out:
        Path(out).write_text(text)
    else:
        click.echo(text, nl=False)


@click.group()
@click.version_option(__version__, prog_name="grover-ite-lab")
def main():
    """Search-as-flow laboratory: flows, schedules, sequence fits, benchmarks."""


# ---------------------------------------------------------------------------
# bench


def _bench_options(fn):
    for opt in reversed(
        [
            click.option("--n", "n_qubits", type=int, multiple=True, help="qubit counts"),
            click.option("--iters", type=int, default=None, help="iterate count"),
            click.option("--s", "s_values", type=float, multiple=True, help="flow durations"),
            click.option("--delta2", type=float, default=None, help="target infidelity"),
            click.option("--seed", type=int, default=0, show_default=True),
            click.option("--restarts", type=int, default=None, help="fit restarts"),
            click.option("--out", type=click.Path(), default=None, help="output CSV path"),
            click.option("--json-config", type=click.Path(exists=True), default=None,
                         help="JSON file overriding config fields"),
            click.option("--strict", is_flag=True, help="exit 3 if thresholds are missed"),
        ]
    ):
        fn = opt(fn)
    return fn


def _build_config(experiment, n_qubits, iters, s_values, delta2, seed, restarts,
                  out, json_config):
    overrides = {
        "n_qubits": tuple(n_qubits) if n_qubits else None,
        "iterations": iters,
        "s_values": tuple(s_values) if s_values else None,
        "delta2": delta2,
        "seed": seed,
        "restarts": restarts,
        "out": out,
    }
    if json_config:
        try:
            loaded = json.loads(Path(json_config).read_text())
        except ValueError as exc:
            raise ConfigInvalid(f"--json-config is not valid JSON: {exc}") from None
        if not isinstance(loaded, dict):
            raise ConfigInvalid("--json-config must hold a JSON object")
        loaded.pop("experiment", None)
        overrides.update(loaded)
    return bench.ExperimentConfig.for_experiment(experiment, **overrides)


@main.group(name="bench")
def bench_group():
    """Reproduce the numerical experiments as CSV."""


def _make_bench_command(experiment: str):
    @bench_group.command(name=experiment)
    @_bench_options
    def _cmd(n_qubits, iters, s_values, delta2, seed, restarts, out, json_config, strict):
        try:
            config = _build_config(
                experiment, n_qubits, iters, s_values, delta2, seed, restarts, out, json_config
            )
            text, rows = bench.RUNNERS[experiment](config)
        except ConfigInvalid as exc:
            _fail(2, str(exc))
        except GroverIteError as exc:
            _fail(2, f"{type(exc).__name__}: {exc}")
        _emit(text, config.out)
        if strict and experiment in bench.CHECKS:
            ok, message = bench.CHECKS[experiment](config, rows)
            if not ok:
                _fail(3, f"contract violation: {message}")
            click.echo(f"strict: {message}", err=True)

    _cmd.__name__ = f"bench_{experiment.replace('-', '_')}"
    return _cmd


for _exp in bench.EXPERIMENTS:
    _make_bench_command(_exp)


# ---------------------------------------------------------------------------
# simulate


@main.command()
@click.option("--n", type=int, required=True)
@click.option("--marked", type=str, required=True, help="comma-separated indices")
@click.option("--schedule", "schedule_token", type=str, default="original-pi",
              show_default=True, help="name or schedule-JSON path")
@click.option("--iters", type=int, default=8, show_default=True)
@click.option("--delta2", type=float, default=0.1, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--mode", type=click.Choice(["full", "reduced"]), default="full",
              show_default=True)
@click.option("--out", type=click.Path(), default=None)
def simulate(n, marked, schedule_token, iters, delta2, seed, mode, out):
    """Run a schedule from the uniform state; CSV trace of success probability."""
    try:
        inst = SearchInstance(n, _parse_marked(marked, n))
        config = bench.ExperimentConfig.for_experiment(
            "custom", n_qubits=(n,), iterations=iters, delta2=delta2, seed=seed,
            schedule=schedule_token,
        )
        schedule = bench.resolve_schedule(schedule_token, config)
        from .grover_engine import run_schedule

        _, trace = run_schedule(inst, schedule, mode=mode)
    except (ConfigInvalid, ValueError) as exc:
        _fail(2, str(exc))
    except GroverIteError as exc:
        _fail(2, f"{type(exc).__name__}: {exc}")
    lines = [
        f"# grover-ite-lab v{__version__} config={config.config_hash()} seed={seed}",
        "step,success_probability",
    ]
    lines += [f"{i + 1},{p!r}" for i, p in enumerate(trace)]
    _emit("\n".join(lines) + "\n", out)


# ---------------------------------------------------------------------------
# compile


def parse_formula(text: str):
    token = text.strip().lower()
    if token in ("gc", "group-commutator"):
        return GroupCommutator()
    if token in ("third", "third-order"):
        return ThirdOrder()
    for name, cls in (
        ("two-copies", TwoCopies),
        ("jean-koseleff", JeanKoseleff),
        ("five-copies", FiveCopies),
    ):
        if token.startswith(name + "(") and token.endswith(")"):
            return cls(parse_formula(token[len(name) + 1 : -1]))
    raise ConfigInvalid(f"cannot parse formula kind {text!r}")


@main.command(name="compile")
@click.option("--kind", type=str, default="gc", show_default=True,
              help="gc | third | two-copies(K) | jean-koseleff(K) | five-copies(K)")
@click.option("--s", type=float, required=True, help="flow duration")
@click.option("--fragments", type=int, default=1, show_default=True)
@click.option("--out", type=click.Path(), default=None)
def compile_cmd(kind, s, fragments, out):
    """Compile a pulse schedule approximating the commutator exponential."""
    try:
        sched = compile_formula(parse_formula(kind), s, fragments)
    except (ConfigInvalid, GroverIteError) as exc:
        _fail(2, str(exc))
    _emit(sched.to_json() + "\n", out)


# ---------------------------------------------------------------------------
# qsp


@main.group()
def qsp():
    """Phase fitting, Grover <-> sequence mapping, achievability checks."""


@qsp.command()
@click.option("--target", type=str, required=True,
              help='"ite-cos:s=<f>" | "sign:eta=<f>,cap=<f>" | polynomial JSON path')
@click.option("--k", type=int, required=True, help="signal-operator count")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--restarts", type=int, default=8, show_default=True)
@click.option("--out", type=click.Path(), default=None)
def fit(target, k, seed, restarts, out):
    """Fit sequence phases to a target; prints the phase-list JSON."""
    try:
        if target.startswith("ite-cos:"):
            from .qsp_engine import fit_ite_phases

            phases, cost = fit_ite_phases(*_target_params(target, "s"), k, seed=seed,
                                          restarts=restarts)
            click.echo(f"# cost={cost!r}", err=True)
            _emit(phases.to_json() + "\n", out)
            return
        if target.startswith("sign:"):
            goal = sign_poly(*_target_params(target, "eta", "cap"))
        elif Path(target).exists():
            goal = ChebyshevPoly.from_json(Path(target).read_text())
        else:
            raise ConfigInvalid(f"cannot resolve target {target!r}")
        phases, cost = fit_phases(goal, k, seed=seed, restarts=restarts)
    except (ConfigInvalid, GroverIteError, KeyError, ValueError) as exc:
        _fail(2, str(exc))
    click.echo(f"# cost={cost!r}", err=True)
    _emit(phases.to_json() + "\n", out)


@qsp.command(name="map")
@click.option("--from-schedule", "schedule_path", type=click.Path(exists=True), default=None)
@click.option("--from-phases", "phases_path", type=click.Path(exists=True), default=None)
@click.option("--out", type=click.Path(), default=None)
def map_cmd(schedule_path, phases_path, out):
    """Convert a Grover schedule to sequence phases, or back."""
    if (schedule_path is None) == (phases_path is None):
        _fail(2, "pass exactly one of --from-schedule / --from-phases")
    try:
        if schedule_path:
            sched = AngleSchedule.from_json(Path(schedule_path).read_text())
            _emit(grover_to_qsp(sched).to_json() + "\n", out)
        else:
            phases = QspPhases.from_json(Path(phases_path).read_text())
            if phases.convention == "W":
                phases = convert_convention(phases)
            _emit(qsp_to_grover(phases).to_json() + "\n", out)
    except (GroverIteError, ValueError, KeyError) as exc:
        _fail(2, str(exc))


@qsp.command()
@click.option("--poly", "poly_path", type=click.Path(exists=True), required=True)
@click.option("--k", type=int, required=True)
def check(poly_path, k):
    """Report the five sequence-realizability verdicts for a polynomial."""
    try:
        poly = ChebyshevPoly.from_json(Path(poly_path).read_text())
        report = check_achievability(poly, k)
    except (GroverIteError, ValueError, KeyError) as exc:
        _fail(2, str(exc))
    for v in report.verdicts:
        witness = "-" if math.isnan(v.witness_x) else f"{v.witness_x:.6g}"
        click.echo(
            f"{'PASS' if v.satisfied else 'FAIL'}  {v.condition}  "
            f"(worst x: {witness}, margin: {v.margin:.3e})"
        )
    click.echo(f"overall: {'achievable' if report.all_pass else 'not achievable'}")


# ---------------------------------------------------------------------------
# geodesic


@main.command()
@click.option("--n", type=int, required=True)
@click.option("--marked", type=str, required=True, help="comma-separated indices")
@click.option("--epsilon", type=float, default=1.0, show_default=True)
def geodesic(n, marked, epsilon):
    """Print the distance, optimal duration, and sufficient query count."""
    try:
        inst = SearchInstance(n, _parse_marked(marked, n))
        d = instance_fs_distance(inst)
        s_opt = optimal_duration(inst)
        length = su_geodesic_length(inst)
        count = query_bound(epsilon, d)
    except (GroverIteError, ValueError) as exc:
        _fail(2, str(exc))
    click.echo(f"e0 = {inst.e0!r}")
    click.echo(f"fs_distance = {d!r}")
    click.echo(f"optimal_duration = {s_opt!r}")
    click.echo(f"su_geodesic_length = {length!r}")
    click.echo(
        f"query_bound(epsilon={epsilon}) = {count} "
        f"(sufficient count, constant {QUERY_BOUND_CONSTANT!r}; +1 for odd targets)"
    )


if __name__ == "__main__":
    main()
