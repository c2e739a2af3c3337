"""The committed .fit_cache/ against the program: it serves the default figures,
holds nothing else, and a cold refit reproduces its entries."""

import stat

import pytest

from grover_ite_lab import bench
from grover_ite_lab.qsp_engine import QspPhases, fit_ite_phases


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
    the refit is bit for bit the same and takes about 0.4 s; other
    numpy/scipy/BLAS builds may move the last digits, hence the tolerance.
    """
    config = bench.ExperimentConfig.for_experiment("fig-a")
    s = min(config.s_values)
    before = sorted(committed_cache.iterdir())
    cached = bench.fitted_ite_phases(s, config.iterations, config.seed, config.restarts)
    assert sorted(committed_cache.iterdir()) == before  # a hit, not a fresh fit
    cold, _ = fit_ite_phases(s, 2 * config.iterations, seed=config.seed, restarts=config.restarts)
    assert cold.phases == pytest.approx(cached.phases, abs=1e-9, rel=0)
