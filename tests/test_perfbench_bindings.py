"""The traced benchmark run wraps names the package binds; each must exist.

``perfbench/run.py --trace 1`` plans its wrappers in perfbench/layers.py and
installs them all before the first pass, so a cleanup that deletes a wrapped
name (say ``qsp_engine._lbfgs`` or ``bench.RUNNERS``) fails that run with an
AttributeError.  This check installs and restores every wrapper without
running a workload.
"""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _get(owner, attr):
    return owner[attr] if isinstance(owner, dict) else getattr(owner, attr)


def test_traced_run_installs_and_restores_every_wrapper(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layers = importlib.import_module("layers")
    tracer = importlib.import_module("tracer").Tracer("perfbench")
    layers.instrument(tracer)
    targets = [(owner, attr) for owner, attr, *_ in tracer._plan]
    assert targets

    originals = [_get(owner, attr) for owner, attr in targets]
    with tracer.installed():
        wrapped = [_get(owner, attr) for owner, attr in targets]
    assert all(w is not o for w, o in zip(wrapped, originals))
    assert all(_get(owner, attr) is o for (owner, attr), o in zip(targets, originals))
