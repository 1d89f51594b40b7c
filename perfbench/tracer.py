"""Span tracer for the benchmark: wraps package functions from outside `src/`.

`Tracer.install()` replaces each name in `WRAPS` with a wrapper in every
namespace its callers look it up in, so no call slips past the spans.  Each
wrapped call appends one span (function, start, end, parent span, two size
fields) to in-memory arrays.  `Tracer.dump` writes them out once the run has
ended, with the measured cost of one span, and `summarize` turns the span
files of one traced run into per-layer numbers.

Self time is a span's duration minus the time its direct child spans cover.
The tracing overhead is the span count times the cost of one span, timed on a
wrapped no-op in the traced process itself, so host speed swings between two
runs do not enter it.  It leaves out the size probes of a few names.
"""

from __future__ import annotations

import functools
import importlib
import marshal
import statistics
import time
from array import array

_GRAPH_NAMES = (
    "complement",
    "is_chordal",
    "induced_matching_number",
    "matching_number",
    "is_gap_free",
    "independent_sets",
    "s_suspension",
)
_MONOMIAL_NAMES = ("ideal_power", "ideal_product", "intersect", "colon", "minimalize")

# (layer, name, modules of edgeideals whose globals the callers read the name from)
WRAPS = (
    ("resolutions.lattice", "lcm_lattice", ("resolutions",)),
    ("resolutions.betti", "betti_table", ("resolutions", "verification")),
    ("resolutions.betti", "regularity", ("verification",)),
    ("complexes", "mask_homology_ranks", ("resolutions",)),
    # Field.matrix_rank resolves both rank functions as linalg globals.
    ("linalg.bareiss", "bareiss_rank", ("linalg",)),
    ("linalg.modp", "mod_p_rank", ("linalg",)),
    *(("monomials", name, ("verification",)) for name in _MONOMIAL_NAMES),
    *(("graphs", name, ("verification",)) for name in _GRAPH_NAMES),
    ("enumeration", "enumerate_graphs", ("cli",)),
    ("graph6", "graph_to_graph6", ("cli", "verification")),
    ("graph6", "graph_from_graph6", ("cli",)),
    ("verification", "run_statement", ("cli",)),
    ("cache", "ResultCache.get", ("cache",)),
    ("cache", "ResultCache.put", ("cache",)),
)
NAMES = tuple(name for _, name, _ in WRAPS)
LAYERS = tuple(dict.fromkeys(layer for layer, _, _ in WRAPS))


def _lattice_size(args, kwargs, result):
    # the engine always passes caps; a call without them fails the traced run
    caps = args[1] if len(args) > 1 else kwargs["caps"]
    return len(result), caps.lattice_max


def _matrix_size(args, kwargs, result):
    rows = args[0]
    return len(rows), (len(rows[0]) if rows else 0)


# name -> probe(args, kwargs, result) giving the span's two size fields
_PROBES = {
    "lcm_lattice": _lattice_size,
    "mask_homology_ranks": lambda args, kwargs, result: (len(args[0]), 0),
    "bareiss_rank": _matrix_size,
    "mod_p_rank": _matrix_size,
    "enumerate_graphs": lambda args, kwargs, result: (len(result), 0),
    # 1 disk hit, 0 disk miss, -1 cache disabled
    "ResultCache.get": lambda args, kwargs, result: (
        -1 if args[0].root is None else int(result is not None),
        0,
    ),
}


def _resolve(module: str, name: str):
    """Owner object and attribute for `name` as seen from edgeideals.<module>."""
    owner = importlib.import_module(f"edgeideals.{module}")
    *path, attr = name.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """In-memory span store; one per traced process."""

    def __init__(self):
        self.fid = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.size_a = array("q")
        self.size_b = array("q")
        self.stack: list = []

    @classmethod
    def install(cls) -> "Tracer":
        """Wrap every name in `WRAPS`; raise before patching anything if one is missing.

        A name that no longer exists, or that a namespace binds to a different
        object than the first one does, is an error: a renamed function must
        fail the traced run rather than report zero calls.
        """
        tracer = cls()
        plan = []
        for fid, (_, name, modules) in enumerate(WRAPS):
            targets = []
            for module in modules:
                owner, attr = _resolve(module, name)
                if not hasattr(owner, attr):
                    raise LookupError(f"traced name {name!r} is missing from edgeideals.{module}")
                targets.append((owner, attr, getattr(owner, attr)))
            original = targets[0][2]
            for owner, attr, fn in targets[1:]:
                if fn is not original:
                    raise LookupError(
                        f"edgeideals.{modules[0]} and {owner.__name__} bind {name!r} to different objects"
                    )
            plan.append((targets, tracer._wrap(fid, original, _PROBES.get(name))))
        for targets, wrapper in plan:
            for owner, attr, _ in targets:
                setattr(owner, attr, wrapper)
        return tracer

    def _wrap(self, fid: int, fn, probe):
        fids, parents, starts, ends = self.fid, self.parent, self.start, self.end
        size_a, size_b, stack = self.size_a, self.size_b, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(fids)
            fids.append(fid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            size_a.append(0)
            size_b.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if probe is not None:
                size_a[idx], size_b[idx] = probe(args, kwargs, result)
            return result

        return traced

    def dump(self, path, wall_s: float) -> None:
        """Write the spans, `wall_s` (the traced `cli.main` duration) and the cost of one span."""
        record = {"names": list(NAMES), "wall_s": wall_s, "span_cost_s": span_cost()}
        for field in ("fid", "parent", "start", "end", "size_a", "size_b"):
            arr = getattr(self, field)
            record[field] = (arr.typecode, arr.tobytes())
        with open(path, "wb") as fh:
            marshal.dump(record, fh)


def span_cost(calls: int = 20000, repeats: int = 5) -> float:
    """Seconds a wrapped call adds to a direct one: median over `repeats` loops of `calls` no-op calls."""

    def noop():
        return None

    wrapped = Tracer()._wrap(0, noop, None)
    clock = time.perf_counter
    costs = []
    for _ in range(repeats):
        t0 = clock()
        for _ in range(calls):
            wrapped()
        t1 = clock()
        for _ in range(calls):
            noop()
        t2 = clock()
        costs.append(((t1 - t0) - (t2 - t1)) / calls)
    return statistics.median(costs)


def _load(path) -> dict:
    with open(path, "rb") as fh:
        record = marshal.load(fh)
    out = {k: record.pop(k) for k in ("names", "wall_s", "span_cost_s")}
    for field, (typecode, raw) in record.items():
        arr = array(typecode)
        arr.frombytes(raw)
        out[field] = arr
    return out


def _quantile(values, q: int) -> float:
    # a warm run answers every graph from the disk cache and runs no statement
    if len(values) <= 1:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def summarize(span_files) -> tuple:
    """Per-layer metrics and per-name call counts, summed over the span files of one traced run.

    The part of the traced `cli.main` durations that no root span covers is
    reported as `cli.self_s`.
    """
    calls = dict.fromkeys(NAMES, 0)
    busy = dict.fromkeys(NAMES, 0.0)
    self_s = dict.fromkeys(LAYERS, 0.0)
    rank_sizes = {name: [0, 0, 0] for name in ("bareiss_rank", "mod_p_rank")}
    roots = 0.0
    elements = faces = cones = graphs = hits = misses = 0
    max_frac = 0.0
    items_ms = []
    wall_s = overhead_s = 0.0
    for path in span_files:
        spans = _load(path)
        if spans["names"] != list(NAMES):
            raise ValueError(f"{path} was written for another set of traced names")
        fid, parent = spans["fid"], spans["parent"]
        start, end = spans["start"], spans["end"]
        size_a, size_b = spans["size_a"], spans["size_b"]
        child_s = [0.0] * len(fid)
        ranked = set()
        for idx, f in enumerate(fid):
            up = parent[idx]
            dur = end[idx] - start[idx]
            if up < 0:
                roots += dur
            else:
                child_s[up] += dur
                if NAMES[f] in rank_sizes:
                    ranked.add(up)
        for idx, f in enumerate(fid):
            layer, name, _ = WRAPS[f]
            dur = end[idx] - start[idx]
            calls[name] += 1
            busy[name] += dur
            self_s[layer] += dur - child_s[idx]
            a, b = size_a[idx], size_b[idx]
            if name == "lcm_lattice":
                elements += a
                max_frac = max(max_frac, a / b)
            elif name == "mask_homology_ranks":
                faces += a
                cones += idx not in ranked
            elif name in rank_sizes:
                sizes = rank_sizes[name]
                sizes[0] += a * b
                sizes[1] = max(sizes[1], a)
                sizes[2] = max(sizes[2], b)
            elif name == "enumerate_graphs":
                graphs += a
            elif name == "ResultCache.get" and a >= 0:
                hits += a
                misses += 1 - a
            elif name == "run_statement":
                items_ms.append(dur * 1000.0)
        wall_s += spans["wall_s"]
        overhead_s += spans["span_cost_s"] * len(fid)
    betti_calls = calls["betti_table"]
    complexes = calls["mask_homology_ranks"]
    metrics = {
        "resolutions.lattice.self_s": (self_s["resolutions.lattice"], "s"),
        "resolutions.lattice.calls": (calls["lcm_lattice"], "count"),
        "resolutions.lattice.elements": (elements, "count"),
        "resolutions.lattice.max_frac": (max_frac, "ratio"),
        "resolutions.betti.self_s": (self_s["resolutions.betti"], "s"),
        "resolutions.betti.calls": (betti_calls, "count"),
        "resolutions.memo.hit_ratio": (
            1 - calls["lcm_lattice"] / betti_calls if betti_calls else 0.0,
            "ratio",
        ),
        "complexes.self_s": (self_s["complexes"], "s"),
        "complexes.calls": (complexes, "count"),
        "complexes.faces": (faces, "count"),
        "complexes.cone_ratio": (cones / complexes if complexes else 0.0, "ratio"),
    }
    for layer, name in (("linalg.bareiss", "bareiss_rank"), ("linalg.modp", "mod_p_rank")):
        entries, max_rows, max_cols = rank_sizes[name]
        metrics[f"{layer}.self_s"] = (self_s[layer], "s")
        metrics[f"{layer}.calls"] = (calls[name], "count")
        metrics[f"{layer}.entries"] = (entries, "count")
        metrics[f"{layer}.max_rows"] = (max_rows, "count")
        metrics[f"{layer}.max_cols"] = (max_cols, "count")
    metrics.update(
        {
            "monomials.self_s": (self_s["monomials"], "s"),
            "monomials.calls": (sum(calls[n] for n in _MONOMIAL_NAMES), "count"),
            "graphs.self_s": (self_s["graphs"], "s"),
            "graphs.calls": (sum(calls[n] for n in _GRAPH_NAMES), "count"),
            "enumeration.self_s": (self_s["enumeration"], "s"),
            "enumeration.graphs": (graphs, "count"),
            "graph6.self_s": (self_s["graph6"], "s"),
            "cache.get_s": (busy["ResultCache.get"], "s"),
            "cache.put_s": (busy["ResultCache.put"], "s"),
            "cache.hits": (hits, "count"),
            "cache.misses": (misses, "count"),
            "verification.self_s": (self_s["verification"], "s"),
            "verification.item_ms.p50": (_quantile(items_ms, 50), "ms"),
            "verification.item_ms.p99": (_quantile(items_ms, 99), "ms"),
            "cli.self_s": (wall_s - roots, "s"),
            "trace.overhead_s": (overhead_s, "s"),
        }
    )
    return metrics, calls
