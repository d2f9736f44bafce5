import tracemalloc

import pytest

from ncdomains import lanczos
from ncdomains.corpus import builtin_corpus, mixed_spec
from ncdomains.weights import hyperball_spec, weights_by_factorization


@pytest.fixture(scope="session")
def ball2_table():
    """q = Z_1 + Z_2, m = 2, depth 5."""
    return weights_by_factorization(hyperball_spec(2, 2), 5)


@pytest.fixture(scope="session")
def ball1_table():
    """q = Z_1 + Z_2, m = 1, depth 5."""
    return weights_by_factorization(hyperball_spec(2, 1), 5)


@pytest.fixture(scope="session")
def mixed_table():
    """q = Z_1 + Z_2 + Z_1 Z_2, m = 1, depth 5."""
    return weights_by_factorization(mixed_spec(1), 5)


@pytest.fixture(scope="session")
def deep_table():
    """mixed_n2_m2 at depth 8 (D = 511), the benchmark's deep session."""
    return weights_by_factorization(builtin_corpus()["mixed_n2_m2"], 8)


@pytest.fixture
def traced_peak():
    """traced_peak(fn, *args) calls fn(*args) under tracemalloc and returns
    (peak traced bytes during the call, fn's result)."""
    def run(fn, *args):
        tracemalloc.start()
        try:
            result = fn(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak, result
    return run


@pytest.fixture
def krylov_runs(monkeypatch):
    """The results of lanczos.top_singular_value, None where it did not
    converge (and its caller fell back to a dense path), recorded per call."""
    runs = []
    helper = lanczos.top_singular_value

    def spy(*args):
        runs.append(helper(*args))
        return runs[-1]

    monkeypatch.setattr(lanczos, "top_singular_value", spy)
    return runs
