"""Fixtures shared by the test modules."""

import pytest

from edgeideals.enumeration import enumerate_graphs

from benchmark_runs import run_workload


@pytest.fixture(scope="session")
def benchmark_run(tmp_path_factory):
    """benchmark_run(name): the `run_workload` result of benchmark workload name, run once per
    session however many tests read it."""
    runs = {}

    def run(name):
        if name not in runs:
            runs[name] = run_workload(name, tmp_path_factory.mktemp(name))
        return runs[name]

    return run


@pytest.fixture(scope="session")
def classes8():
    """graph6 strings of every isomorphism class with n <= 8, as `enumerate_graphs(8, min_n=0)`
    lists them: n = 8 takes seconds to enumerate, so a session does it once."""
    return enumerate_graphs(8, min_n=0)
