import shutil
from pathlib import Path

import numpy as np
import pytest

from grover_ite_lab import bench
from grover_ite_lab.search_core import SearchInstance

REPO_ROOT = Path(__file__).resolve().parent.parent


def family(max_n=8):
    """Instances spanning n and the M classes {1, N/4, N/2, N-1}."""
    out = []
    for n in range(2, max_n + 1):
        big_n = 1 << n
        for m in sorted({1, big_n // 4, big_n // 2, big_n - 1}):
            if 1 <= m <= big_n - 1:
                out.append(SearchInstance(n, tuple(range(m))))
    return out


@pytest.fixture(scope="session")
def instance_family():
    return family()


@pytest.fixture(scope="session")
def small_family():
    return family(max_n=5)


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(scope="module")
def committed_cache(tmp_path_factory):
    """The phase cache pointed at a temporary copy of the committed .fit_cache/.

    A cache miss writes into the copy, never into the repository.
    """
    cache = tmp_path_factory.mktemp("fit_cache") / "cache"
    shutil.copytree(REPO_ROOT / ".fit_cache", cache)
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv(bench.CACHE_ENV_VAR, str(cache))
        yield cache
