import importlib.util
import json
import re
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from grover_ite_lab import bench
from grover_ite_lab.bench import ExperimentConfig, custom_rows, fig_a_rows, resolve_schedule
from grover_ite_lab.cli import main, parse_formula
from grover_ite_lab.errors import ConfigInvalid
from grover_ite_lab.pf_compiler import (
    AngleSchedule,
    FiveCopies,
    Generator,
    GroupCommutator,
    Pulse,
    TwoCopies,
)
from grover_ite_lab.qsp_engine import ChebyshevPoly, QspPhases


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv(bench.CACHE_ENV_VAR, str(tmp_path / "cache"))
    return tmp_path


CHEAP = dict(n_qubits=(4,), iterations=2, s_values=(0.5,), seed=3)


def test_config_validation():
    with pytest.raises(ConfigInvalid):
        ExperimentConfig.for_experiment("fig-z")
    with pytest.raises(ConfigInvalid):
        ExperimentConfig.for_experiment("custom", bogus_field=1)
    with pytest.raises(ConfigInvalid):
        ExperimentConfig.for_experiment("custom", n_qubits=(20,))
    with pytest.raises(ConfigInvalid):
        ExperimentConfig.for_experiment("custom", delta2=2.0)
    for bad in (dict(n_qubits=8), dict(iterations=2.5), dict(s_values="12"),
                dict(delta2="0.1"), dict(schedule=5)):
        with pytest.raises(ConfigInvalid, match=next(iter(bad))):
            ExperimentConfig.for_experiment("custom", **bad)


@pytest.mark.parametrize("field, value", [
    ("s_values", (float("nan"),)),
    ("s_values", (0.5, float("inf"))),
    ("eta", float("nan")),
    ("eta", float("-inf")),
    ("restarts", 0),
    ("restarts", -2),
])
def test_config_rejects_non_finite_values_and_no_restarts(field, value):
    with pytest.raises(ConfigInvalid, match=field):
        ExperimentConfig.for_experiment("fig-a", **{field: value})


@pytest.mark.parametrize("args", [
    ["--iters", "1", "--s", "nan"],
    ["--iters", "1", "--s", "inf"],
    ["--restarts", "0"],
    ["--restarts", "-2"],
])
def test_cli_non_finite_duration_or_no_restarts_exits_2(args):
    res = CliRunner().invoke(main, ["bench", "fig-a", *args])
    _assert_exit_2(res)
    assert ("restarts" if "--restarts" in args else "s_values") in res.output


def test_cli_flow_iterations_beyond_fifty_angles_exit_0():
    """A flow fit of K = 2 * iterations angles runs on max(50, K + 1) nodes, so
    no iteration count is out of reach; 26 iterates once exited 2."""
    res = CliRunner().invoke(main, ["bench", "custom", "--iters", "26", "--s", "16", "--n", "4"])
    assert res.exit_code == 0, res.output
    rows = res.output.splitlines()[2:]  # after the version comment and the header
    assert len(rows) == 15
    assert all(float(row.split(",")[-1]) < 1e-6 for row in rows)


def test_unknown_schedule_token_carries_token():
    cfg = ExperimentConfig.for_experiment("custom", schedule="who-dis", **CHEAP)
    with pytest.raises(ConfigInvalid, match="who-dis"):
        custom_rows(cfg)


def test_empty_sweep_header_only():
    cfg = ExperimentConfig.for_experiment("custom", n_qubits=(4,), iterations=2,
                                          s_values=(), seed=0)
    text, _ = bench.run(cfg)
    lines = text.strip().split("\n")
    assert len(lines) == 2
    assert lines[1] == "s,M,e0,infidelity"


def test_csv_header_comment_format():
    cfg = ExperimentConfig.for_experiment("custom", **CHEAP)
    text, _ = bench.run(cfg)
    first = text.split("\n", 1)[0]
    assert re.fullmatch(r"# grover-ite-lab v0\.1\.0 config=[0-9a-f]{12} seed=3", first)


def test_seed_determinism_bitwise_and_cache_warm():
    cfg = ExperimentConfig.for_experiment("custom", **CHEAP)
    cold, _ = bench.run(cfg)
    warm, _ = bench.run(cfg)  # second run hits the phase cache
    assert cold == warm
    assert (Path(bench.cache_dir())).exists()
    assert list(Path(bench.cache_dir()).glob("*.json"))


def test_truncated_cache_entry_is_refitted():
    first = bench.fitted_ite_phases(0.5, 2, seed=3)
    (entry,) = Path(bench.cache_dir()).glob("*.json")
    entry.write_text(entry.read_text()[:20])  # a write cut short
    assert bench.fitted_ite_phases(0.5, 2, seed=3) == first
    assert QspPhases.from_json(entry.read_text()) == first
    assert list(Path(bench.cache_dir()).iterdir()) == [entry]  # no temporary file left


@pytest.mark.parametrize("text", [
    '{"convention": "R", "phases": [NaN, 0.1, 0.2, 0.3, 0.4]}',
    '{"convention": "R", "phases": []}',
    '{"convention": "R", "phases": null}',
], ids=["nan-phase", "no-phases", "null-phases"])
def test_rejected_cache_entry_is_refitted(text):
    first = bench.fitted_ite_phases(0.5, 2, seed=3)
    (entry,) = Path(bench.cache_dir()).glob("*.json")
    entry.write_text(text)
    assert bench.fitted_ite_phases(0.5, 2, seed=3) == first
    assert QspPhases.from_json(entry.read_text()) == first


def test_nan_rows_fail_the_figure_checks():
    nan = float("nan")
    cfg_a = ExperimentConfig.for_experiment("fig-a", s_values=(0.5,))
    rows_a = [(0.5, 1, 0.25, 1e-6), (0.5, 2, 0.5, nan), (0.5, 3, 0.75, 1e-6)]
    assert not bench.check_fig_a(cfg_a, rows_a)[0]
    assert bench.check_fig_a(cfg_a, [r for r in rows_a if r[1] != 2])[0]
    cfg_b = ExperimentConfig.for_experiment("fig-b", s_values=(1.0,))
    for rows_b in ([(4, 1.0, 1e-6), (6, 1.0, nan)], [(4, 1.0, nan), (6, 1.0, 1e-6)]):
        assert not bench.check_fig_b(cfg_b, rows_b)[0]
    assert bench.check_fig_b(cfg_b, [(4, 1.0, 1e-6), (6, 1.0, 2e-6)])[0]


def test_config_hash_ignores_output_path():
    a = ExperimentConfig.for_experiment("fig-a", out="a.csv")
    b = ExperimentConfig.for_experiment("fig-a", out="b.csv")
    assert a.config_hash() == b.config_hash() == ExperimentConfig.for_experiment("fig-a").config_hash()


def test_custom_single_point_matches_fig_a_row():
    fig_cfg = ExperimentConfig.for_experiment(
        "fig-a", n_qubits=(4,), iterations=2, s_values=(0.5,), seed=3
    )
    fig = {(s, m): (e0, inf) for s, m, e0, inf in fig_a_rows(fig_cfg)}
    cus_cfg = ExperimentConfig.for_experiment("custom", marked_counts=(5,), **CHEAP)
    kind, rows = custom_rows(cus_cfg)
    assert kind == "infidelity"
    assert len(rows) == 1
    s, m, e0, inf = rows[0]
    assert (e0, inf) == fig[(s, m)]


def test_fig_a_row_cardinality_cheap():
    cfg = ExperimentConfig.for_experiment(
        "fig-a", n_qubits=(4,), iterations=2, s_values=(0.5, 1.0), seed=3
    )
    rows = fig_a_rows(cfg)
    assert len(rows) == 2 * 15
    assert all(inf >= 0.0 for _, _, _, inf in rows)


def test_fig_b_rows_shape_cheap():
    cfg = ExperimentConfig.for_experiment(
        "fig-b", n_qubits=(3, 4), iterations=2, s_values=(0.5, 1.0), seed=3
    )
    rows = bench.fig_b_rows(cfg)
    assert len(rows) == 4
    assert all(np.isfinite(v) and v >= 0 for _, _, v in rows)


def test_fig_c_rows_and_flag_cheap():
    cfg = ExperimentConfig.for_experiment(
        "fig-c", n_qubits=(4,), iterations=2, s_values=(0.5, 1.0), seed=3
    )
    rows, trend = bench.fig_c_rows(cfg)
    assert isinstance(trend, bool)
    assert all(0.0 <= inf <= 1.0 + 1e-12 for _, inf in rows)
    text, _ = bench.run(cfg)
    assert "# monotone_trend_s_ge_1=" in text


def test_fixed_point_rows_cheap():
    cfg = ExperimentConfig.for_experiment(
        "fixed-point", n_qubits=(5,), iterations=6, delta2=0.1, eta=0.35, seed=3
    )
    rows, valid_from = bench.fixed_point_rows(cfg)
    names = sorted(set(name for name, *_ in rows))
    assert names == ["fixed-point-chebyshev", "original-pi", "sign-qsp"]
    assert len(rows) == 3 * 31
    assert valid_from is not None
    level = 1.0 - cfg.delta2
    cheb = [(e0, ov) for name, _, e0, ov in rows if name == "fixed-point-chebyshev"]
    assert all(ov >= level - 1e-9 for e0, ov in cheb if e0 >= valid_from)
    text, _ = bench.run(cfg)
    assert "# chebyshev_valid_e0_min=" in text


def test_fixed_point_rows_match_closed_forms():
    # original pi: sin^2((2N+1) arcsin sqrt e0); quasi-Chebyshev (Yoder, Low &
    # Chuang 2014): 1 - delta^2 T_L(gamma sqrt(1 - e0))^2, L = 2N+1
    n_iter, delta2 = 6, 0.1
    cfg = ExperimentConfig.for_experiment(
        "fixed-point", n_qubits=(5,), iterations=n_iter, delta2=delta2, eta=0.35, seed=3
    )
    rows, _ = bench.fixed_point_rows(cfg)
    big_l = 2 * n_iter + 1
    gamma = np.cosh(np.arccosh(1.0 / np.sqrt(delta2)) / big_l)

    def chebyshev_t(x):
        return np.cos(big_l * np.arccos(x)) if x <= 1.0 else np.cosh(big_l * np.arccosh(x))

    closed = {
        "original-pi": lambda e0: np.sin(big_l * np.arcsin(np.sqrt(e0))) ** 2,
        "fixed-point-chebyshev":
            lambda e0: 1.0 - delta2 * chebyshev_t(gamma * np.sqrt(1.0 - e0)) ** 2,
    }
    checked = 0
    for name, m, e0, overlap in rows:
        assert e0 == m / 32
        if name in closed:
            assert abs(overlap - closed[name](e0)) < 1e-10
            checked += 1
    assert checked == 2 * 31


def test_resolve_schedule_json_path(tmp_path):
    cfg = ExperimentConfig.for_experiment("custom", **CHEAP)
    sched = AngleSchedule.from_json(
        '{"s_target": 0.0, "claimed_order": 0, "pulses": '
        '[{"g": "O", "theta": 3.14}, {"g": "D", "theta": 3.14}]}'
    )
    path = tmp_path / "sched.json"
    path.write_text(sched.to_json())
    loaded = resolve_schedule(str(path), cfg)
    assert loaded == sched
    assert resolve_schedule("original-pi", cfg).kind == "original-pi"


def test_parse_formula_grammar():
    assert parse_formula("gc") == GroupCommutator()
    assert parse_formula("two-copies(gc)") == TwoCopies(GroupCommutator())
    assert parse_formula("five-copies(two-copies(gc))") == FiveCopies(TwoCopies(GroupCommutator()))
    with pytest.raises(ConfigInvalid):
        parse_formula("sixth(gc)")


# ---------------------------------------------------------------------------
# CLI surface


def test_cli_geodesic():
    res = CliRunner().invoke(main, ["geodesic", "--n", "4", "--marked", "3"])
    assert res.exit_code == 0
    assert "fs_distance" in res.output
    assert "query_bound" in res.output


def test_cli_geodesic_rejects_bad_instance():
    res = CliRunner().invoke(main, ["geodesic", "--n", "4", "--marked", ""])
    assert res.exit_code == 2


def test_cli_compile_and_simulate(tmp_path):
    out = tmp_path / "sched.json"
    res = CliRunner().invoke(
        main, ["compile", "--kind", "jean-koseleff(gc)", "--s", "0.3", "--out", str(out)]
    )
    assert res.exit_code == 0
    sched = AngleSchedule.from_json(out.read_text())
    assert sched.claimed_order == 4

    res2 = CliRunner().invoke(
        main,
        ["simulate", "--n", "3", "--marked", "1,5", "--schedule", str(out), "--mode", "reduced"],
    )
    assert res2.exit_code == 0
    assert res2.output.splitlines()[1] == "step,success_probability"

    res3 = CliRunner().invoke(main, ["compile", "--kind", "nope", "--s", "0.3"])
    assert res3.exit_code == 2


def test_cli_bench_custom_and_errors(tmp_path):
    out = tmp_path / "rows.csv"
    res = CliRunner().invoke(
        main,
        ["bench", "custom", "--n", "4", "--iters", "2", "--s", "0.5", "--seed", "3",
         "--out", str(out)],
    )
    assert res.exit_code == 0
    assert out.read_text().startswith("# grover-ite-lab")
    res2 = CliRunner().invoke(main, ["bench", "custom", "--n", "40"])
    assert res2.exit_code == 2


def test_cli_bench_json_config(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"n_qubits": [4], "iterations": 2, "s_values": [0.5]}))
    res = CliRunner().invoke(
        main, ["bench", "custom", "--seed", "3", "--json-config", str(cfg_path)]
    )
    assert res.exit_code == 0
    assert "0.5,1," in res.output


def test_cli_qsp_fit_map_check(tmp_path):
    poly_path = tmp_path / "poly.json"
    poly_path.write_text(ChebyshevPoly((0.0, 1.0), "odd").to_json())
    phases_path = tmp_path / "phases.json"
    res = CliRunner().invoke(
        main,
        ["qsp", "fit", "--target", str(poly_path), "--k", "1", "--seed", "2",
         "--out", str(phases_path)],
    )
    assert res.exit_code == 0
    payload = json.loads(phases_path.read_text())
    assert payload["convention"] == "R"
    assert len(payload["phases"]) == 2

    sched_path = tmp_path / "sched.json"
    res2 = CliRunner().invoke(
        main, ["compile", "--kind", "gc", "--s", "0.2", "--out", str(sched_path)]
    )
    assert res2.exit_code == 0
    mapped = tmp_path / "mapped.json"
    res3 = CliRunner().invoke(
        main, ["qsp", "map", "--from-schedule", str(sched_path), "--out", str(mapped)]
    )
    assert res3.exit_code == 0
    back = tmp_path / "back.json"
    res4 = CliRunner().invoke(
        main, ["qsp", "map", "--from-phases", str(mapped), "--out", str(back)]
    )
    assert res4.exit_code == 0
    orig = AngleSchedule.from_json(sched_path.read_text())
    round_tripped = AngleSchedule.from_json(back.read_text())
    assert round_tripped.grover_pairs() == pytest.approx(orig.grover_pairs())

    res5 = CliRunner().invoke(main, ["qsp", "check", "--poly", str(poly_path), "--k", "1"])
    assert res5.exit_code == 0
    assert "overall: achievable" in res5.output

    res6 = CliRunner().invoke(main, ["qsp", "map"])
    assert res6.exit_code == 2


def test_cli_qsp_check_negative_k_exits_2(tmp_path):
    poly_path = tmp_path / "p.json"
    poly_path.write_text(ChebyshevPoly((0.0, 1.0), "odd").to_json())
    res = CliRunner().invoke(main, ["qsp", "check", "--poly", str(poly_path), "--k", "-2"])
    _assert_exit_2(res)
    assert "k must be an integer >= 0" in res.output


@pytest.mark.parametrize("target, form", [
    ("ite-cos:x=1", "ite-cos target needs s=<float>"),
    ("ite-cos:s", "ite-cos target needs s=<float>"),
    ("sign:eta=0.3", "sign target needs eta=<float>,cap=<float>"),
])
def test_cli_qsp_fit_names_the_target_form(target, form):
    res = CliRunner().invoke(main, ["qsp", "fit", "--target", target, "--k", "4"])
    _assert_exit_2(res)
    assert form in res.output


def test_cli_strict_exit_code_on_threshold_miss():
    # iters=2 gives a 4-reflection budget, far too small for s=4 (median
    # infidelity 0.052 against the bound 1e-2): the fig-a thresholds must fail
    # and --strict turns that into exit code 3
    res = CliRunner().invoke(
        main,
        ["bench", "fig-a", "--n", "4", "--iters", "2", "--s", "4.0", "--seed", "3",
         "--strict"],
    )
    assert res.exit_code == 3


def test_cli_bench_same_bytes_at_two_paths(tmp_path):
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for path in paths:
        res = CliRunner().invoke(
            main, ["bench", "custom", "--n", "4", "--iters", "2", "--s", "0.5", "--seed", "3",
                   "--out", str(path)],
        )
        assert res.exit_code == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_cli_strict_fig_c_without_unit_duration(tmp_path):
    # the trend check falls back to the smallest s when s=1 is not swept
    res = CliRunner().invoke(
        main, ["bench", "fig-c", "--n", "4", "--iters", "2", "--s", "0.5", "--s", "2.0",
               "--strict"],
    )
    assert res.exit_code in (0, 3)
    assert res.exception is None or isinstance(res.exception, SystemExit)
    assert "vs s=0.5 " in res.output
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"n_qubits": [4], "iterations": 2, "s_values": []}))
    res2 = CliRunner().invoke(main, ["bench", "fig-c", "--json-config", str(cfg_path), "--strict"])
    assert res2.exit_code == 3
    assert "no fig-c rows" in res2.output


def test_cli_strict_passes_on_met_thresholds():
    res = CliRunner().invoke(
        main,
        ["bench", "fig-b", "--n", "3", "--n", "4", "--iters", "2", "--s", "0.5",
         "--seed", "3", "--strict"],
    )
    assert res.exit_code == 0


def test_cli_empty_n_qubits_exits_2(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"n_qubits": [], "iterations": 2, "s_values": [0.5]}))
    res = CliRunner().invoke(main, ["bench", "fig-a", "--json-config", str(cfg_path)])
    assert res.exit_code == 2
    assert res.exception is None or isinstance(res.exception, SystemExit)
    assert "n_qubits" in res.output
    with pytest.raises(ConfigInvalid, match="n_qubits"):
        ExperimentConfig.for_experiment("fig-c", n_qubits=())


@pytest.mark.parametrize("text", [
    "{not json",
    json.dumps([4, 2]),
    json.dumps({"n_qubits": 8}),
    json.dumps({"s_values": ["x"]}),
    json.dumps({"iterations": True}),
    json.dumps({"s_values": [True]}),
])
def test_cli_malformed_json_config_exits_2(tmp_path, text):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(text)
    res = CliRunner().invoke(main, ["bench", "custom", "--json-config", str(cfg_path)])
    assert res.exit_code == 2
    assert res.exception is None or isinstance(res.exception, SystemExit)
    assert "error:" in res.output
    assert "Traceback" not in res.output


def _invoke_custom_schedule(tmp_path, schedule_text):
    sched_path = tmp_path / "sched.json"
    sched_path.write_text(schedule_text)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"n_qubits": [3], "schedule": str(sched_path)}))
    return CliRunner().invoke(main, ["bench", "custom", "--json-config", str(cfg_path)])


def _assert_exit_2(res):
    assert res.exit_code == 2
    assert res.exception is None or isinstance(res.exception, SystemExit)
    assert "error:" in res.output
    assert "Traceback" not in res.output


@pytest.mark.parametrize("schedule", [
    AngleSchedule(()),
    AngleSchedule((Pulse(Generator.ORACLE, 0.3), Pulse(Generator.ORACLE, -0.3))),  # cancels
])
def test_schedule_without_steps_is_config_error(tmp_path, schedule):
    _assert_exit_2(_invoke_custom_schedule(tmp_path, schedule.to_json()))
    path = tmp_path / "sched.json"
    cfg = ExperimentConfig.for_experiment("custom", n_qubits=(3,), schedule=str(path))
    with pytest.raises(ConfigInvalid, match="no steps"):
        custom_rows(cfg)


@pytest.mark.parametrize("text", [
    "{not json",
    json.dumps([1, 2]),
    json.dumps({"s_target": 0.0, "pulses": []}),  # no claimed_order
    json.dumps({"s_target": 0.0, "claimed_order": 0, "pulses": [{"g": "X", "theta": 0.1}]}),
    json.dumps({"s_target": 0.0, "claimed_order": 0, "pulses": [{"g": "O", "theta": "x"}]}),
    json.dumps({"s_target": 0.0, "claimed_order": 0, "pulses": [{"g": "O", "theta": None}]}),
    '{"s_target": 0.0, "claimed_order": 0, "pulses": [{"g": "O", "theta": NaN}]}',
])
def test_malformed_schedule_file_is_config_error(tmp_path, text):
    _assert_exit_2(_invoke_custom_schedule(tmp_path, text))
    cfg = ExperimentConfig.for_experiment("custom", **CHEAP)
    with pytest.raises(ConfigInvalid, match="sched.json"):
        resolve_schedule(str(tmp_path / "sched.json"), cfg)


def test_unreadable_schedule_file_is_config_error(tmp_path):
    (tmp_path / "dir.json").mkdir()
    cfg = ExperimentConfig.for_experiment("custom", **CHEAP)
    with pytest.raises(ConfigInvalid, match="dir.json"):
        resolve_schedule(str(tmp_path / "dir.json"), cfg)


def _load_script(name):
    path = Path(__file__).resolve().parent.parent / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("ok, code", [(True, 0), (False, 3)])
def test_run_experiments_exit_code_on_threshold_miss(tmp_path, monkeypatch, capsys, ok, code):
    script = _load_script("run_experiments")
    monkeypatch.setitem(bench.RUNNERS, "fig-b", lambda config: ("# stub\n", []))
    monkeypatch.setitem(bench.CHECKS, "fig-b", lambda config, rows: (ok, "stub check"))
    assert script.main(["--only", "fig-b", "--out-dir", str(tmp_path / "out")]) == code
    assert ("THRESHOLD MISS" in capsys.readouterr().out) is not ok
