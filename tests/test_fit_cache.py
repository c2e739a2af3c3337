"""The committed .fit_cache/ against the program: it serves the default figures,
holds nothing else, and a cold refit reproduces its entries."""

import stat

import numpy as np
import pytest

from grover_ite_lab import bench, qsp_engine
from grover_ite_lab.qsp_engine import (QspPhases, _dr_forward, chebyshev_nodes, fit_ite_phases,
                                       fit_points, flow_state, phases_to_dr_angles)

FLOW_EXPERIMENTS = ("fig-a", "fig-b", "fig-c")


@pytest.mark.parametrize("name", list(bench.CHECKS))
def test_committed_cache_serves_default_figures(committed_cache, monkeypatch, name):
    def no_fit(*args, **kwargs):
        raise AssertionError(f"{name}: cache miss for a fit with arguments {args} {kwargs}")

    monkeypatch.setattr(bench, "fit_ite_phases", no_fit)
    monkeypatch.setattr(bench, "fixed_point_via_sign", no_fit)
    before = sorted(committed_cache.iterdir())
    config = bench.ExperimentConfig.for_experiment(name)
    _, result = bench.RUNNERS[name](config)
    ok, message = bench.CHECKS[name](config, result)
    assert ok, message
    assert sorted(committed_cache.iterdir()) == before


def test_committed_cache_holds_only_what_the_default_figures_read(committed_cache, monkeypatch):
    """A stray entry, or one orphaned by a forgotten algo-tag bump, fails here."""
    committed = sorted(path.name for path in committed_cache.iterdir())
    read, cache_key = set(), bench._cache_key

    def recorded_key(payload):
        key = cache_key(payload)
        read.add(f"{key}.json")
        return key

    monkeypatch.setattr(bench, "_cache_key", recorded_key)
    for name in bench.CHECKS:
        bench.RUNNERS[name](bench.ExperimentConfig.for_experiment(name))
    assert committed == sorted(read)


def test_fresh_cache_entry_is_readable_by_all(tmp_path, monkeypatch):
    monkeypatch.setenv(bench.CACHE_ENV_VAR, str(tmp_path))
    bench._cached_phases({"probe": 1}, lambda: QspPhases((0.0, 0.5)))
    (entry,) = tmp_path.iterdir()
    assert entry.stat().st_mode & (stat.S_IRGRP | stat.S_IROTH) == stat.S_IRGRP | stat.S_IROTH


def test_cold_refit_matches_committed_entry(committed_cache):
    """fig-a's first fit (s=0.5, K=32, seed 0), refitted, against its cache entry.

    On the 2-CPU x86-64 host that filled the cache (numpy 2.4.6, scipy 1.17.1)
    the refit is bit for bit the same and takes about 0.01 s, one solve from
    the product formula; other numpy/scipy/BLAS builds may move the last
    digits, hence the tolerance.
    """
    config = bench.ExperimentConfig.for_experiment("fig-a")
    s = min(config.s_values)
    before = sorted(committed_cache.iterdir())
    cached = bench.fitted_ite_phases(s, config.iterations, config.seed, config.restarts)
    assert sorted(committed_cache.iterdir()) == before  # a hit, not a fresh fit
    cold, _ = fit_ite_phases(s, 2 * config.iterations, seed=config.seed, restarts=config.restarts)
    assert cold.phases == pytest.approx(cached.phases, abs=1e-9, rel=0)


def test_cold_refit_of_the_entry_that_a_stop_rule_decides(committed_cache, monkeypatch):
    """fig-c's s=32, K=40 fit, refitted, against its cache entry.

    It is the one committed entry whose winner a stop rule other than the
    goal decides: restart 1 improves on the formula start, and the three
    restarts after it land in worse minima, so the stall limit ends the fit
    after five solves.  The refit takes about 1.4 s on a 2-CPU x86-64 host.
    """
    config = bench.ExperimentConfig.for_experiment("fig-c")
    s = max(config.s_values)
    cached = bench.fitted_ite_phases(s, config.iterations, config.seed, config.restarts)
    costs, solve = [], qsp_engine._lsq_solve

    def record(*args, **kwargs):
        res = solve(*args, **kwargs)
        costs.append(res.fun)
        return res

    monkeypatch.setattr(qsp_engine, "_lsq_solve", record)
    cold, cost = fit_ite_phases(s, 2 * config.iterations, seed=config.seed,
                                restarts=config.restarts)
    assert cold.phases == pytest.approx(cached.phases, abs=1e-9, rel=0)
    assert len(costs) == 5
    assert cost == min(costs) == costs[1]


def _flow_infidelity(phases, s, xs):
    """1 - |<(cos theta, sin theta)|v>|^2 at each x, as |<(-sin theta, cos theta)|v>|^2."""
    v = _dr_forward(phases_to_dr_angles(phases), xs)[-1]
    target = flow_state(s, xs)
    return np.abs(target[:, 0] * v[1] - target[:, 1] * v[0]) ** 2


def test_committed_flow_fits_hold_off_their_nodes(committed_cache):
    """Each committed flow fit, on 4001 uniform x in [0, 1], stays within 10x of its cost.

    The cost is the mean infidelity on the fit's own fit_points(K) Chebyshev
    nodes.  A fit on 50 uniform points missed the curve between them at large
    s: fig-c's s=16 entry cost 7.5e-9 on its grid yet reached 6.8e-3 between
    grid points.
    """
    dense = np.linspace(0.0, 1.0, 4001)
    problems = []
    for name in FLOW_EXPERIMENTS:
        config = bench.ExperimentConfig.for_experiment(name)
        nodes = chebyshev_nodes(fit_points(2 * config.iterations))
        for s in config.s_values:
            phases = bench.fitted_ite_phases(s, config.iterations, config.seed, config.restarts)
            cost = float(np.mean(_flow_infidelity(phases, s, nodes)))
            worst = float(np.max(_flow_infidelity(phases, s, dense)))
            if worst > 10.0 * cost:
                problems.append(f"{name} s={s}: dense max {worst:.2e} vs cost {cost:.2e}")
    assert not problems, "; ".join(problems)
