"""Command line front end: betti, suspend, extend, verify, scan.

stdout carries machine output only (JSON, JSON-lines, graph6, CSV); stderr
carries human diagnostics.  Exit codes: 0 success / no fail verdicts, 1 fail
verdicts found, 2 input or precondition errors, 3 engine cap overruns,
4 oracle mismatch under --oracle, 5 internal errors.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import hashlib
import json
import operator
import os
import sys

from . import __version__
from .cache import ResultCache
from .complexes import CapExceeded
from .enumeration import CLASS_COUNTS, FAMILY_SHA256, enumerate_graphs
from .graph6 import graph_from_graph6, graph_to_graph6, iter_graph6
from .graphs import (
    Graph,
    anticycle,
    complete,
    cycle,
    independent_sets,
    one_vertex_extensions,
    path,
    s_suspension,
)
from .linalg import Field
from .monomials import edge_ideal, ideal_power, parse_ideal, parse_monomial
from .resolutions import (
    DEFAULT_CAPS,
    EngineCaps,
    betti_table,
    taylor_betti_oracle,
)
from .verification import (
    _REGISTRY,
    CONJECTURES,
    FAIL,
    PASS,
    SKIPPED,
    STATEMENTS,
    InvariantStore,
    check_s_suspension_invariance,
    enumerate_im_reg_extensions,
    run_statement,
    statement_params,
    summarize_reports,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_CAP = 3
EXIT_ORACLE = 4
EXIT_INTERNAL = 5

CACHE_ENV = "EDGEIDEALS_CACHE"

_BUILDERS = {"cycle": cycle, "anticycle": anticycle, "path": path, "complete": complete}

# dest of a flag of verify or scan -> the statement parameter it gives
_PARAMS = {
    "set": "sets", "cover": "covers", "k": "k", "kmax": "k_max", "reg_filter": "reg_filter", "cg": "c_g"
}
# the ideal inputs that the registry's statements read, and --nvars
_IDEAL_FLAGS = (*dict.fromkeys(name for entry in _REGISTRY.values() for name in entry.ideals), "nvars")
# the graph-source, cache and worker flags of verify and scan, which only graph statements read
_FAMILY_FLAGS = ("builder", "graph6", "graph6_file", "max_n", "jobs", "cache_dir", "no_cache")

# EngineCaps field -> its flag; a command has the flags of the caps it reads, no others
_CAP_FLAGS = {
    "lattice_max": "--lattice-cap",
    "taylor_max_generators": "--taylor-cap",
    "quotients_max_generators": "--lq-cap",
    "quotients_time_budget": "--time-budget",
}


# json.dumps would build a new encoder on each call, for the same bytes
_encode = json.JSONEncoder(sort_keys=True).encode


def _json_line(obj) -> str:
    return _encode(obj) + "\n"


def _loads(raw: bytes):
    """The JSON value of a cache log line, or None if it is not UTF-8 JSON (json.loads alone
    would also take UTF-16 and UTF-32) or nests too deep to decode."""
    try:
        return json.loads(raw.decode("utf-8"))
    except (ValueError, RecursionError):
        return None


def _emit(obj) -> None:
    sys.stdout.write(_json_line(obj))


def _flag(dest: str) -> str:
    return _CAP_FLAGS.get(dest, "--" + dest.replace("_", "-"))


def _build_graph(spec: str) -> Graph:
    name, _, arg = spec.partition(":")
    if name not in _BUILDERS or not arg:
        raise ValueError(f"unknown builder {spec!r} (use cycle:n|anticycle:n|path:n|complete:n)")
    return _BUILDERS[name](int(arg))


def _parse_vertex_set(text: str) -> frozenset:
    s = text.strip()
    return frozenset(int(t) for t in s.split(",")) if s else frozenset()


def _one_set(text: str) -> list:
    """A --set or --cover value as the one-element list of sets that the statements read."""
    return [tuple(sorted(_parse_vertex_set(text)))]


def _single_graph(args) -> Graph:
    if getattr(args, "builder", None):
        return _build_graph(args.builder)
    if getattr(args, "graph6", None):
        return graph_from_graph6(args.graph6)
    raise ValueError("need a graph: --builder or --graph6")


def _is_family(value, max_n: int) -> bool:
    """True for a decoded cache line that is exactly the list `_family` appends for --max-n max_n.

    Its strings, joined by newlines, hash to `FAMILY_SHA256[max_n]`; as many
    strings as the family has leave no room for a newline inside one.
    """
    if not isinstance(value, list) or not all(isinstance(s, str) and s.isascii() for s in value):
        return False
    if max_n >= len(FAMILY_SHA256) or len(value) != sum(CLASS_COUNTS[1 : max_n + 1]) - max_n:
        return False
    return hashlib.sha256("\n".join(value).encode("ascii")).hexdigest() == FAMILY_SHA256[max_n]


def _family(args, cache: ResultCache) -> list:
    """graph6 strings of the family; a --max-n family is the first line of its cache log that
    passes `_is_family`, or is enumerated and appended."""
    if getattr(args, "max_n", None):
        parts = {"op": "family", "max_n": args.max_n, "version": __version__}
        key = ResultCache.key_of(parts) if cache.root else None
        for line in cache.get(key) or ():
            if _is_family(value := _loads(line), args.max_n):
                return value
        family = enumerate_graphs(args.max_n, require_edge=True)
        cache.put(key, _json_line(family))
        return family
    if getattr(args, "graph6_file", None):
        with open(args.graph6_file, "r", encoding="ascii") as fh:
            return [graph_to_graph6(g) for g in iter_graph6(fh)]
    return [graph_to_graph6(_single_graph(args))]


def _caps(args) -> EngineCaps:
    """DEFAULT_CAPS with the values of the cap flags given."""
    given = {cap: getattr(args, cap) for cap in _CAP_FLAGS if getattr(args, cap, None) is not None}
    return dataclasses.replace(DEFAULT_CAPS, **given)


def _cache(args) -> ResultCache:
    if getattr(args, "no_cache", False):
        return ResultCache(None)
    root = getattr(args, "cache_dir", None) or os.environ.get(CACHE_ENV)
    return ResultCache(root)


def _header(command: str, field: Field, caps: EngineCaps, **extra) -> dict:
    return {"header": {"command": command, "field": field.token(), "caps": caps.to_json(), **extra}}


def _add_graph_flags(p, family: bool = False):
    """The graph-source flags, of which a run takes at most one; returns their group."""
    source = p.add_mutually_exclusive_group()
    source.add_argument("--builder", help="builder spec, e.g. cycle:5")
    source.add_argument("--graph6", help="inline graph6 string")
    if family:
        source.add_argument("--graph6-file", help="file with one graph6 string per line")
        source.add_argument("--max-n", type=int, help="internal exhaustive family up to n vertices")
    return source


def _add_engine_flags(p, *caps):
    """--field and the flags of the EngineCaps fields `caps`, typed as their defaults."""
    # no defaults, so that _statement sees whether these were given; _caps fills them in
    p.add_argument("--field", help="coefficient field: Q (default) or GF(p)")
    for cap in caps:
        p.add_argument(_CAP_FLAGS[cap], dest=cap, type=type(getattr(DEFAULT_CAPS, cap)))


def _add_cache_flags(p):
    p.add_argument("--cache-dir", help=f"result cache directory (or ${CACHE_ENV})")
    # no defaults, so that _statement sees whether these were given
    p.add_argument("--no-cache", action="store_true", default=None, help="disable the result cache")
    p.add_argument("--jobs", type=int, help="parallel workers over family items (default 1)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="edgeideals",
        description="Betti tables, regularity and suspension constructions for edge ideals",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("betti", help="Betti table of an edge ideal or a given monomial ideal")
    ideal_help = 'JSON array of monomial strings, e.g. \'["x0*x1","x1^2"]\''
    _add_graph_flags(p).add_argument("--ideal", help=ideal_help)
    p.add_argument("--nvars", type=int, help="ambient variable count for --ideal")
    p.add_argument("--power", type=int, default=1, help="compute the k-th power first")
    p.add_argument("--oracle", action="store_true", help="cross-check with the Taylor strand oracle")
    p.add_argument("--multi", action="store_true", help="include the multigraded refinement")
    _add_engine_flags(p, "lattice_max", "taylor_max_generators")

    p = sub.add_parser("suspend", help="one-vertex suspensions over independent sets")
    _add_graph_flags(p)
    p.add_argument("--set", dest="sset", help="comma-separated independent set (empty string for the cone)")
    p.add_argument("--all", action="store_true", help="suspend over every proper independent set")
    p.add_argument("--verify", action="store_true", help="emit JSON lines with im/reg invariance checks")
    _add_engine_flags(p, "lattice_max")

    p = sub.add_parser("extend", help="one-vertex extensions, filtered to invariant ones by default")
    _add_graph_flags(p)
    p.add_argument("--all", action="store_true", help="emit all 2^n - 1 extensions, unfiltered")
    p.add_argument("--json", action="store_true", help="emit JSON lines with im/reg data")
    _add_engine_flags(p, "lattice_max")

    p = sub.add_parser("verify", help="run a named statement over a graph family or an ideal instance")
    p.add_argument("--statement", required=True, help=", ".join(STATEMENTS))
    _add_graph_flags(p, family=True)
    p.add_argument("--set", type=_one_set, help="independent set for suspension/main1/main2")
    p.add_argument("--cover", type=_one_set, help="vertex cover for keylemma")
    p.add_argument("--k", type=int, help="power index (keylemma, blemma, main1)")
    p.add_argument("--kmax", type=int, help="largest power to check")
    p.add_argument("--ideal", help="JSON array of monomial strings (splitting/doublelinear/colon/abc)")
    p.add_argument("--part-j", help="JSON array: first part of the splitting, or the sub-ideal for abc")
    p.add_argument("--part-k", help="JSON array: second part of the splitting")
    p.add_argument("--monomial", help="monomial for the colon bound, e.g. x0")
    p.add_argument("--nvars", type=int, help="ambient variable count for ideal inputs")
    _add_engine_flags(p, "lattice_max", "quotients_max_generators", "quotients_time_budget")
    _add_cache_flags(p)

    p = sub.add_parser("scan", help="scan a graph family for conjecture counterexamples")
    p.add_argument("--conjecture", required=True, choices=CONJECTURES)
    _add_graph_flags(p, family=True)
    p.add_argument("--kmax", type=int, help="largest power to check (default 2)")
    p.add_argument("--reg-filter", type=int, help="only graphs with this regularity (np default: 3)")
    p.add_argument("--cg", type=int, help="power threshold c_G for newconj2 (default 2)")
    p.add_argument("--summary", help="write a per-statement CSV summary to this path")
    _add_engine_flags(p, "lattice_max")
    _add_cache_flags(p)

    return ap


# -- subcommands -----------------------------------------------------------------


def _ideal_inputs(args, command: str, names) -> list:
    """The ideal inputs of command named in names, parsed from their flags in that order: the
    monomial of --monomial, each other one a JSON list of monomial strings in --nvars variables."""
    missing = [_flag(name) for name in (*names, "nvars") if getattr(args, name) is None]
    if missing:
        raise ValueError(f"{command} needs " + ", ".join(missing))
    nv = args.nvars
    return [
        parse_monomial(args.monomial, nv) if name == "monomial"
        else parse_ideal(json.loads(getattr(args, name)), nv)
        for name in names
    ]


def _cmd_betti(args, field: Field, caps: EngineCaps) -> int:
    if args.ideal:
        [ideal] = _ideal_inputs(args, "betti", ("ideal",))
    else:
        ideal = edge_ideal(_single_graph(args))
    if args.power != 1:
        ideal = ideal_power(ideal, args.power)
    table = betti_table(ideal, field, caps)
    if args.oracle:
        oracle = taylor_betti_oracle(ideal, field, caps)
        if oracle != table:
            sys.stderr.write("oracle mismatch between the lattice engine and the Taylor strands\n")
            sys.stderr.write(f"primary: {json.dumps(table.to_json(True), sort_keys=True)}\n")
            sys.stderr.write(f"oracle:  {json.dumps(oracle.to_json(True), sort_keys=True)}\n")
            return EXIT_ORACLE
    _emit(table.to_json(include_multi=args.multi))
    return EXIT_OK


def _cmd_suspend(args, field: Field, caps: EngineCaps) -> int:
    g = _single_graph(args)
    if args.all:
        sets = [frozenset(s) for s in independent_sets(g) if len(s) < g.n]
    elif args.sset is not None:
        sets = [_parse_vertex_set(args.sset)]
    else:
        raise ValueError("suspend needs --set or --all")
    if not args.verify:
        for s in sets:
            sys.stdout.write(graph_to_graph6(s_suspension(g, s)) + "\n")
        return EXIT_OK
    suspensions = [s_suspension(g, s) for s in sets]
    reports = check_s_suspension_invariance(g, sets, field, caps, suspensions)
    for s, gs, rep in zip(sets, suspensions, reports):
        _emit(
            {
                "graph6": graph_to_graph6(gs),
                "set": sorted(s),
                "verdict": rep.verdict,
                "im_reg": rep.data,
            }
        )
    return EXIT_OK


def _cmd_extend(args, field: Field, caps: EngineCaps) -> int:
    g = _single_graph(args)
    if args.all:
        exts = one_vertex_extensions(g)
        invariant = set(enumerate_im_reg_extensions(g, field, caps, exts)) if args.json else set()
    else:
        exts = enumerate_im_reg_extensions(g, field, caps)
        invariant = set(exts)
    for ext in exts:
        if args.json:
            _emit(
                {
                    "graph6": graph_to_graph6(ext),
                    "z_neighborhood": sorted(ext.neighbors(g.n)),
                    "invariant": ext in invariant,
                }
            )
        else:
            sys.stdout.write(graph_to_graph6(ext) + "\n")
    return EXIT_OK


def _check_ranges(args) -> None:
    """Reject a negative power index, a largest power, family size or job count below 1 and a
    cap that is not positive, before any output."""
    for name, low in (("k", 0), ("kmax", 1), ("max_n", 1), ("jobs", 1)):
        value = getattr(args, name, None)
        if value is not None and value < low:
            raise ValueError(f"{_flag(name)} must be at least {low}, got {value}")
    for cap, flag in _CAP_FLAGS.items():
        value = getattr(args, cap, None)
        if value is not None and not value > 0:
            raise ValueError(f"{flag} must be positive, got {value}")


def _statement(args, statement: str):
    """The registry entry of statement; raises ValueError naming the first flag given that
    the statement does not read.  A graph statement reads the family flags, an ideal one its
    ideal inputs and --nvars, and one with `engine` set --field and the cap flags."""
    entry = _REGISTRY[statement]
    reads = {dest for dest, name in _PARAMS.items() if name in entry.params}
    reads.update((*entry.ideals, "nvars") if entry.ideals else _FAMILY_FLAGS)
    if entry.engine:
        reads.update(("field", *_CAP_FLAGS))
    for dest in (*_PARAMS, *_IDEAL_FLAGS, *_FAMILY_FLAGS, "field", *_CAP_FLAGS):
        if getattr(args, dest, None) is not None and dest not in reads:
            raise ValueError(f"{statement} does not read {_flag(dest)}")
    return entry


def _is_report_list(value) -> bool:
    """True for the JSON report list of a cache record, as `_run_family` writes it."""
    return isinstance(value, list) and all(
        isinstance(r, dict)
        and isinstance(r.get("statement"), str)
        and isinstance(r.get("instance"), str)
        and r.get("verdict") in (PASS, FAIL, SKIPPED)
        for r in value
    )


def _report_line(rep: dict) -> tuple:
    """(statement, instance, JSON line, verdict) of a report dict, the form a run holds it in."""
    return rep["statement"], rep["instance"], _json_line(rep), rep["verdict"]


def _graph_reports(run, g6: str, store: InvariantStore) -> list:
    """`_report_line`s of `run` on the graph of g6."""
    return [_report_line(r.to_json()) for r in run(graph_from_graph6(g6), store=store)]


# the InvariantStore of a --jobs worker process, built by the pool initializer
_worker_store = None


def _start_worker() -> None:
    global _worker_store
    _worker_store = InvariantStore()


def _worker_item(item, g6: str) -> list:
    return item(g6, _worker_store)


def _run_family(args, statement: str, field, caps) -> tuple:
    """(params, `_report_line`s over the family, sorted) of a graph statement whose flags
    `_statement` has checked; params hold the flags given and the defaults of the others.

    The graphs share one cache log keyed by the command, the statement, params, the field and
    caps if the statement reads them, and the version, but not the run's `InvariantStore`.  A
    graph's record is appended once its reports reach this process, so a run cut short keeps
    what it finished; --jobs workers only compute, a chunk of graphs per task, with a store each."""
    given = {_PARAMS[dest]: getattr(args, dest) for dest in _PARAMS if getattr(args, dest, None) is not None}
    params = statement_params(statement, given)
    cache = _cache(args)
    family = _family(args, cache)
    run = functools.partial(run_statement, statement, params=params, field=field, caps=caps)
    parts = dict(op=args.command, statement=statement, params=params, version=__version__)
    if _REGISTRY[statement].engine:
        parts.update(field=field.token(), caps=caps.to_json())
    key = ResultCache.key_of(parts) if cache.root else None
    # the first record of each family graph that holds a report list; no other line is decoded
    wanted, done = {g6.encode("ascii"): g6 for g6 in family}, {}
    for line in cache.get(key) or ():
        g6, _, value = line.partition(b" ")
        if g6 in wanted and _is_report_list(value := _loads(value)):
            done[wanted.pop(g6)] = [_report_line(r) for r in value]
    todo = list(wanted.values())
    item = functools.partial(_graph_reports, run)
    if (args.jobs or 1) <= 1 or len(todo) <= 1:
        store = InvariantStore()
        computed, pool = ((g6, item(g6, store)) for g6 in todo), contextlib.nullcontext()
    else:
        import multiprocessing

        # the chunks pool.map makes: a task of one graph costs about 0.2 ms of pool overhead
        chunk = -(-len(todo) // (4 * args.jobs))
        pool = multiprocessing.Pool(args.jobs, _start_worker)
        computed = zip(todo, pool.imap(functools.partial(_worker_item, item), todo, chunk))
    with pool:
        for g6, reports in computed:
            # a list of dicts encodes as their encodings joined by ", ": no report is encoded again
            cache.put(key, f"{g6} [{', '.join(line[:-1] for _, _, line, _ in reports)}]\n")
            done[g6] = reports
    return params, sorted((rep for g6 in family for rep in done[g6]), key=operator.itemgetter(0, 1))


def _emit_reports(reports) -> int:
    """Print the line of each `_report_line`; EXIT_FAIL when any verdict is fail."""
    sys.stdout.writelines(line for _, _, line, _ in reports)
    return EXIT_FAIL if any(verdict == FAIL for *_, verdict in reports) else EXIT_OK


def _cmd_verify(args, field: Field, caps: EngineCaps) -> int:
    statement = args.statement
    if statement not in STATEMENTS:
        raise ValueError(f"unknown statement {statement!r}")
    entry = _statement(args, statement)
    if entry.ideals:
        # run directly, so that a cap overrun exits 3 and is not a skipped report
        inputs = _ideal_inputs(args, statement, entry.ideals)
        reports = [_report_line(entry.run(*inputs, field, caps).to_json())]
    else:
        _, reports = _run_family(args, statement, field, caps)
    # the header follows the checks, so that an error a check raises leaves stdout empty
    _emit(_header("verify", field, caps, statement=statement))
    return _emit_reports(reports)


def _cmd_scan(args, field: Field, caps: EngineCaps) -> int:
    _statement(args, args.conjecture)
    params, reports = _run_family(args, args.conjecture, field, caps)
    # the header follows the checks, as in verify
    _emit(_header("scan", field, caps, conjecture=args.conjecture, k_max=params["k_max"]))
    code = _emit_reports(reports)
    if args.summary:
        # imported here: only --summary writes CSV, and loading csv and its C extension
        # costs every other run about 128 KB of resident memory (CPython 3.11, Linux)
        import csv

        with open(args.summary, "w", encoding="utf-8", newline="") as fh:
            w = csv.DictWriter(fh, fieldnames=["statement", "instances", "pass", "fail", "skipped"])
            w.writeheader()
            w.writerows(summarize_reports({"statement": st, "verdict": v} for st, _, _, v in reports))
    return code


_COMMANDS = {
    "betti": _cmd_betti,
    "suspend": _cmd_suspend,
    "extend": _cmd_extend,
    "verify": _cmd_verify,
    "scan": _cmd_scan,
}


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return EXIT_INPUT if e.code not in (0, None) else EXIT_OK
    try:
        _check_ranges(args)
        field = Field.from_token("Q" if args.field is None else args.field)
        return _COMMANDS[args.command](args, field, _caps(args))
    except CapExceeded as e:
        sys.stderr.write(f"cap overrun: {e}\n")
        return EXIT_CAP
    except (ValueError, OSError, json.JSONDecodeError) as e:
        sys.stderr.write(f"error: {e}\n")
        return EXIT_INPUT
    except Exception as e:
        sys.stderr.write(f"internal error: {e!r}\n")
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
