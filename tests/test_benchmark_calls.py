"""The benchmark (perfbench/run.py) exits without a result when a traced name that a workload
lists in `Workload.called` receives no call in its traced run.  This runs each workload's argv
in-process, as a benchmark child does, with every (module, name) of the tracer's `WRAPS`
counting its calls, and checks that each listed name is called and that stdout matches the
workload's reference digest.  It reads the benchmark's tables and changes nothing under
perfbench/."""

import collections
import functools
import hashlib
import importlib.util
import sys
from pathlib import Path

import pytest

from edgeideals import cli, resolutions

RUN_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"


def _run_module():
    # run.py puts perfbench/ on sys.path to import its tracer; the path is restored after.
    # Its dataclasses look their module up in sys.modules
    path = list(sys.path)
    spec = importlib.util.spec_from_file_location("perfbench_run", RUN_PATH)
    run = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(run)
    finally:
        sys.path[:] = path
    return run


RUN = _run_module()


def _counting(calls, name, fn):
    @functools.wraps(fn)
    def counted(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)

    return counted


def count_traced_calls(monkeypatch) -> collections.Counter:
    """Calls per traced name from now on, counted in every module the tracer patches."""
    tracer, calls = RUN.tracer, collections.Counter()
    for _, name, modules in tracer.WRAPS:
        counted = _counting(calls, name, getattr(*tracer._resolve(modules[0], name)))
        for module in modules:
            monkeypatch.setattr(*tracer._resolve(module, name), counted)
    return calls


@pytest.mark.parametrize("name", list(RUN.WORKLOADS))
def test_each_workload_calls_every_name_the_benchmark_expects(name, monkeypatch, capsys, tmp_path):
    workload = RUN.WORKLOADS[name]
    argv = [*workload.argv, "--jobs", "1"]
    if workload.warm_cache:
        argv += ["--cache-dir", str(tmp_path)]
    monkeypatch.delenv(RUN.CACHE_ENV, raising=False)
    # a fresh process starts with empty complex memos, so a memo hit cannot hide a call
    for memo in ("_COMPLEX_MEMO", "_RANKS", "_GATHERS"):
        monkeypatch.setattr(resolutions, memo, {})
    calls = count_traced_calls(monkeypatch)
    digest = RUN.reference(name)["stdout_sha256"]
    # a warm-cache workload is traced over the fill and one warm run
    for _ in range(2 if workload.warm_cache else 1):
        assert cli.main(argv) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
    assert [n for n in workload.called if not calls[n]] == []
