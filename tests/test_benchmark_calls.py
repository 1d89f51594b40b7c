"""The benchmark (perfbench/run.py) exits without a result when a traced name that a workload
lists in `Workload.called` receives no call in its traced run.  This reads each workload's
in-process run (`benchmark_runs.run_workload`, once per session), with every (module, name) of
the tracer's `WRAPS` counting its calls, and checks that each listed name is called and that
stdout matches the workload's reference digest."""

import hashlib

import pytest

from benchmark_runs import RUN


@pytest.mark.parametrize("name", list(RUN.WORKLOADS))
def test_each_workload_calls_every_name_the_benchmark_expects(name, benchmark_run):
    run = benchmark_run(name)
    digest = RUN.reference(name)["stdout_sha256"]
    # a warm-cache workload is traced over the fill and one warm run
    assert len(run.outs) == (2 if RUN.WORKLOADS[name].warm_cache else 1)
    for code, out in zip(run.codes, run.outs):
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
    assert [n for n in RUN.WORKLOADS[name].called if not run.calls[n]] == []
