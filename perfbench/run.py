"""Benchmark of the edgeideals CLI: end-to-end numbers per workload, per-layer numbers from a traced run.

Run from the repository root:

    python3 perfbench/run.py --workload squarefree-n7 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

Each workload is one `edgeideals verify` argv with `--jobs 1`.  Every run
of it is a fresh interpreter (`perfbench/child.py`) that imports
`edgeideals.cli` from `src/` and calls `cli.main(argv)` once with stdout
captured; one child runs at a time, a closed loop with one client.  The stdout
of every child is hashed and compared with the digest in
`perfbench/reference.json`.

`--trace 0` repeats the workload until `--seconds` is spent, at least twice,
and reports the medians of `wall_s`, `setup_s` and `peak_rss_mb`, each with
its sample count.  `--trace 1` runs the workload once with every function in
`tracer.WRAPS` wrapped, and reports the per-layer numbers of that run; on
cache-gf2-warm the fill and one warm child are traced and their numbers
summed.  The last line on stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.

The workloads are fixed graph families, so `--seed` does not change what is
computed: it sets the children's PYTHONHASHSEED, which orders the engine's
sets and dicts.  Exit code 0 when every child exited 0 and matched its digest;
1 when one did not, which includes a traced child whose tracer found a name
missing; 2 when the benchmark itself cannot run (no package under `src/`, a
traced name that received no call), and then no result is printed.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

CACHE_ENV = "EDGEIDEALS_CACHE"
SETUP_PROBES = 10
CHILD_TIMEOUT_S = 150

sys.path.insert(0, str(BENCH))
import tracer  # noqa: E402


class BenchError(Exception):
    """The benchmark cannot produce a result; exits 2 without one."""


@dataclass(frozen=True)
class Workload:
    argv: tuple
    # An untimed child of each run fills a new cache dir that every timed
    # child then reads.  Cold cache passes are not timed: on a 2-CPU ext4 VM,
    # each deleted cache dir made the next pass's writes slower, so cold-pass
    # times drifted upward over a series of runs.
    warm_cache: bool
    # traced names that must receive calls; a rename then fails the traced run
    called: tuple


_ENGINE = ("lcm_lattice", "betti_table", "mask_homology_ranks", "run_statement", "graph_to_graph6")
_FAMILY = ("regularity", "enumerate_graphs", "graph_from_graph6")
_GF2_BOUNDS = ("verify", "--statement", "bounds", "--max-n", "7", "--field", "GF(2)")
_GF2_NAMES = _ENGINE + _FAMILY + ("ResultCache.get", "ResultCache.put") + (
    "mod_p_rank",
    "induced_matching_number",
    "matching_number",
)

WORKLOADS = {
    # Every table is a new squarefree ideal over Q: the rank and complex layers
    # do most of the work and the memo never hits.
    "squarefree-n7": Workload(
        ("verify", "--statement", "froberg", "--max-n", "7"),
        False,
        _ENGINE + _FAMILY + ("ResultCache.get", "ResultCache.put", "bareiss_rank", "complement", "is_chordal"),
    ),
    # The paper's main theorem on powers: the lcm lattice and the memo
    # dominate, the rank layer barely shows.
    "powers-main2": Workload(
        ("verify", "--statement", "main2", "--builder", "anticycle:5", "--kmax", "3"),
        False,
        _ENGINE
        + ("graph_from_graph6", "ResultCache.get", "ResultCache.put", "bareiss_rank")
        + ("ideal_power", "ideal_product", "intersect", "minimalize")
        + ("is_gap_free", "independent_sets", "s_suspension"),
    ),
    # The complexes of squarefree-n7 reduced mod 2: rank runs through the
    # other field.
    "bounds-gf2": Workload(_GF2_BOUNDS, False, _GF2_NAMES),
    # The same argv answered from a disk cache: enumeration, graph6 and cache
    # reads are most of the timed work, and no statement runs.  The traced run
    # also traces the fill, which writes the cache.
    "cache-gf2-warm": Workload(_GF2_BOUNDS, True, _GF2_NAMES),
}
MIN_SAMPLES = 2


@functools.cache
def _load_json(path: Path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as e:
        raise BenchError(f"cannot read {path}: {e}") from e


def benchmark() -> dict:
    return _load_json(ROOT / "BENCHMARK.json")


def reference(name: str) -> dict:
    return _load_json(BENCH / "reference.json")[name]


def steal_jiffies():
    """Steal time of all CPUs from /proc/stat, or None where it cannot be read."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
        return int(fields[8])
    except (OSError, IndexError, ValueError):
        return None


def spawn(argv, seed: int, trace_out=None) -> dict:
    """Run one child to completion; its record, or {"error": ...} if it failed."""
    env = {k: v for k, v in os.environ.items() if k != CACHE_ENV}
    env["PYTHONHASHSEED"] = str(seed % 2**32)
    steal0 = steal_jiffies()
    spawned = time.monotonic()
    spec = {
        "spawned": spawned,
        "src": str(SRC),
        "argv": argv,
        "trace_out": str(trace_out) if trace_out else None,
    }
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "child.py"), json.dumps(spec)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
        cwd=ROOT,
    )
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return {"error": f"child exceeded {CHILD_TIMEOUT_S} s"}
    child_wall_s = time.monotonic() - spawned
    steal1 = steal_jiffies()
    if proc.returncode != 0:
        tail = err.decode("utf-8", "replace").strip().splitlines()[-5:]
        return {"error": f"child exited {proc.returncode}: " + " | ".join(tail)}
    record = json.loads(out.decode("utf-8").splitlines()[-1])
    record["child_wall_s"] = child_wall_s
    record["steal_jiffies"] = None if steal0 is None or steal1 is None else steal1 - steal0
    return record


def _tree_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def run_child(name: str, seed: int, tag: str, cache_dir=None, span_file=None) -> dict:
    """One child running the workload's argv, its output checked against the reference digest."""
    argv = list(WORKLOADS[name].argv) + ["--jobs", "1"]
    if cache_dir is not None:
        argv += ["--cache-dir", str(cache_dir)]
        before = _tree_bytes(cache_dir)
    rec = spawn(argv, seed, span_file)
    rec["tag"] = tag
    rec["errors"] = []
    if "error" in rec:
        rec["errors"].append(rec.pop("error"))
        return rec
    if cache_dir is not None:
        rec["cache_bytes_written"] = _tree_bytes(cache_dir) - before
    if rec["rc"] != 0:
        rec["errors"].append(f"exited {rec['rc']}")
    digest = reference(name)["stdout_sha256"]
    if rec["sha256"] != digest:
        rec["errors"].append(f"stdout sha256 {rec['sha256'][:12]} != reference {digest[:12]}")
    return rec


def _host_line(name: str, rec: dict) -> str:
    parts = [f"{name} {rec['tag']}:"]
    if "seconds" in rec:
        steal = rec["steal_jiffies"]
        parts.append(
            f"wall_s={rec['seconds']:.4f} setup_s={rec['setup_s']:.4f} peak_rss_mb={rec['max_rss_mb']:.1f}"
            f" child_wall_s={rec['child_wall_s']:.3f} cpu_s={rec['cpu_s']:.3f} sys_s={rec['sys_s']:.3f}"
            f" steal_jiffies={'n/a' if steal is None else f'+{steal}'}"
        )
    if "cache_bytes_written" in rec:
        parts.append(f"cache_bytes_written={rec['cache_bytes_written']}")
    parts.append("ok" if not rec["errors"] else "FAILED: " + "; ".join(rec["errors"]))
    return " ".join(parts)


def _median_metric(values, unit: str):
    if not values:
        return None
    return {"value": statistics.median(values), "unit": unit, "samples": len(values)}


def measure(name: str, seed: int, seconds: int, trace: bool) -> dict:
    """All runs of one workload; returns counts, metrics and the record of every child."""
    begun = time.monotonic()
    probe = spawn(None, seed)
    if "error" in probe:
        raise BenchError(f"cannot import edgeideals.cli from {SRC}: {probe['error']}")
    setups = []
    if not trace:
        for _ in range(SETUP_PROBES):
            probe = spawn(None, seed)
            if "error" in probe:
                raise BenchError(f"setup probe failed: {probe['error']}")
            setups.append(probe["setup_s"])
    children = []
    timed = []
    warm = WORKLOADS[name].warm_cache
    with tempfile.TemporaryDirectory(prefix=f"cache-{name}-", dir=WORK) as tmp:

        def child(tag):
            span_file = WORK / f"{name}-{tag}.spans" if trace else None
            rec = run_child(name, seed, tag, Path(tmp) if warm else None, span_file)
            rec["span_file"] = span_file
            children.append(rec)
            print(_host_line(name, rec), flush=True)
            return rec

        metrics = {}
        filled = not warm or not child("fill")["errors"]
        if filled and trace:
            if not child("traced")["errors"]:
                metrics = per_layer(name, children)
        elif filled:
            while True:
                t0 = time.monotonic()
                rec = child(f"run {len(timed) + 1}")
                if rec["errors"]:
                    break
                timed.append(rec)
                setups.append(rec["setup_s"])
                now = time.monotonic()
                if len(timed) >= MIN_SAMPLES and now + (now - t0) > begun + seconds:
                    break
            metrics = {
                "wall_s": _median_metric([r["seconds"] for r in timed], "s"),
                "setup_s": _median_metric(setups, "s"),
                "peak_rss_mb": _median_metric([r["max_rss_mb"] for r in timed], "MB"),
            }
    for rec in children:
        span_file = rec.pop("span_file")
        if span_file is not None:
            span_file.unlink(missing_ok=True)
    failed = sum(1 for rec in children if rec["errors"])
    return {
        "attempted": len(children),
        "failed": failed,
        "metrics": {} if failed else metrics,
        "children": children,
    }


def per_layer(name: str, children: list) -> dict:
    """Per-layer metrics summed over the traced children, after the tracer self-check."""
    values, calls = tracer.summarize([rec["span_file"] for rec in children])
    silent = [n for n in WORKLOADS[name].called if calls[n] == 0]
    if silent:
        raise BenchError(f"traced names received no call on {name}: {', '.join(silent)}")
    values["cache.bytes_written"] = (sum(rec.get("cache_bytes_written", 0) for rec in children), "B")
    return {k: {"value": v, "unit": unit} for k, (v, unit) in values.items()}


def _check_declared(metrics: dict, trace: bool) -> None:
    """The metrics must be exactly those BENCHMARK.json declares, in the declared units."""
    declared = {m["name"]: m["unit"] for m in benchmark()["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in metrics.items()}
    if got != declared:
        raise BenchError(f"metrics {sorted(got.items())} differ from BENCHMARK.json {sorted(declared.items())}")


def _report(name: str, result: dict, trace: bool) -> None:
    for key, m in result["metrics"].items():
        value = m["value"]
        shown = f"{value}" if isinstance(value, int) else f"{value:.6g}"
        basis = f" (median of {m['samples']} samples)" if "samples" in m else " (traced run)"
        print(f"{name} {key} = {shown} {m['unit']}{basis}")
    print(f"{name} failed_ratio = {result['failed']}/{result['attempted']} = "
          f"{result['failed'] / result['attempted']:.6g} ratio")
    if trace:
        for key, seed_value in reference(name)["seed_counts"].items():
            if key in result["metrics"]:
                print(f"{name} {key} = {result['metrics'][key]['value']} (seed_counts: {seed_value})")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    trace = bool(args.trace)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        if not (SRC / "edgeideals" / "cli.py").is_file():
            raise BenchError(f"no edgeideals package under {SRC}")
        WORK.mkdir(exist_ok=True)
        results = {}
        for name in names:
            result = measure(name, args.seed, args.seconds, trace)
            with open(WORK / f"{name}-seed{args.seed}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
                json.dump(result, fh, indent=1, default=str)
            _report(name, result, trace)
            if not result["failed"]:
                _check_declared(result["metrics"], trace)
            results[name] = result
    except BenchError as e:
        sys.stderr.write(f"perfbench: {e}\n")
        return 2
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()}
    metrics = {k: {"value": v["value"], "unit": v["unit"]} for k, v in metrics.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
