"""The benchmark's workloads (perfbench/run.py) run in-process, as a benchmark child runs them,
with every (module, name) of the tracer's `WRAPS` counting its calls.  It reads the benchmark's
tables and changes nothing under perfbench/."""

import collections
import contextlib
import functools
import importlib.util
import io
import sys
from pathlib import Path
from typing import NamedTuple

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


class WorkloadRun(NamedTuple):
    """The exit code and stdout of each `cli.main` call of one workload, and the calls per
    traced name over all of them."""

    codes: list
    outs: list
    calls: collections.Counter


def run_workload(name: str, cache_dir: Path) -> WorkloadRun:
    """Run the argv of workload name with `--jobs 1` and no `EDGEIDEALS_CACHE`, starting from
    empty complex memos and no kept box, as a fresh benchmark child does, so a memo hit cannot
    hide a call.  A warm-cache workload runs twice in cache_dir, the fill and one warm run, as
    its traced run does.  Every patch is undone on return."""
    workload = RUN.WORKLOADS[name]
    argv = [*workload.argv, "--jobs", "1"]
    if workload.warm_cache:
        argv += ["--cache-dir", str(cache_dir)]
    codes, outs = [], []
    with pytest.MonkeyPatch.context() as mp:
        mp.delenv(RUN.CACHE_ENV, raising=False)
        for memo in ("_COMPLEX_MEMO", "_RANKS", "_GATHERS", "_LAST_BOX"):
            mp.setattr(resolutions, memo, {})
        calls = count_traced_calls(mp)
        for _ in range(2 if workload.warm_cache else 1):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                codes.append(cli.main(argv))
            outs.append(out.getvalue())
    return WorkloadRun(codes, outs, calls)
