import numpy as np
import pytest

from susy_pt import ModelParams, build_eigenfunction

FIXTURE_EPSILONS = (0.5, 1.0, 2.0)
FIXTURE_KS = (1.5, 2.0, 3.7, 10.0)
BATTERY = tuple(
    ModelParams(1.0, eps, k) for eps in FIXTURE_EPSILONS for k in FIXTURE_KS
)


@pytest.fixture(scope="session")
def build_cached():
    """Session-wide cache of normalized eigenfunctions; construction is
    pure so sharing across tests is safe."""
    cache = {}

    def get(params, n):
        key = (params, n)
        if key not in cache:
            cache[key] = build_eigenfunction(params, n)
        return cache[key]

    return get


def oracle_coeffs(seed=6, per_size=4):
    """Seeded trimmed coefficient arrays of sizes 1..18 with exact +-0.0
    entries; every other array has a negative leading term.  Inputs for
    the bitwise comparisons with numpy.polynomial."""
    rng = np.random.default_rng(seed)
    out = []
    for size in range(1, 19):
        for i in range(per_size):
            p = rng.uniform(-2.0, 2.0, size)
            p[rng.random(size) < 0.25] = 0.0
            p[rng.random(size) < 0.25] = -0.0
            lead = abs(p[-1]) or 1.0
            p[-1] = -lead if i % 2 else lead
            out.append(p)
    return out
