"""Command line front end: betti, suspend, extend, verify, scan.

stdout carries machine output only (JSON, JSON-lines, graph6, CSV); stderr
carries human diagnostics.  Exit codes: 0 success / no fail verdicts, 1 fail
verdicts found, 2 input or precondition errors, 3 engine cap overruns,
4 oracle mismatch under --oracle, 5 internal errors.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import hashlib
import json
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
    CONJECTURES,
    FAIL,
    PASS,
    SKIPPED,
    STATEMENTS,
    check_abc_bound,
    check_betti_splitting,
    check_colon_reg_bound,
    check_doublelinear,
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
_IDEAL_FLAGS = ("ideal", "part_j", "part_k", "monomial", "nvars")
# the ideal statements of verify -> the ideal flags each reads
_IDEAL_STATEMENTS = {
    "splitting": ("ideal", "part_j", "part_k", "nvars"),
    "doublelinear": ("ideal", "part_j", "part_k", "nvars"),
    "colon": ("ideal", "monomial", "nvars"),
    "abc": ("ideal", "part_j", "nvars"),
}
# the graph-source, cache and worker flags of verify and scan, which only graph statements read
_FAMILY_FLAGS = ("builder", "graph6", "graph6_file", "max_n", "jobs", "cache_dir", "no_cache")

# EngineCaps field -> its flag; a command has the flags of the caps it reads, no others
_CAP_FLAGS = {
    "lattice_max": "--lattice-cap",
    "taylor_max_generators": "--taylor-cap",
    "quotients_max_generators": "--lq-cap",
    "quotients_time_budget": "--time-budget",
}


def _emit(obj) -> None:
    sys.stdout.write(json.dumps(obj, sort_keys=True) + "\n")


def _build_graph(spec: str) -> Graph:
    name, _, arg = spec.partition(":")
    if name not in _BUILDERS or not arg:
        raise ValueError(f"unknown builder {spec!r} (use cycle:n|anticycle:n|path:n|complete:n)")
    return _BUILDERS[name](int(arg))


def _parse_vertex_set(text: str) -> frozenset:
    s = text.strip()
    if not s:
        return frozenset()
    return frozenset(int(t) for t in s.split(","))


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
    """True for a cache entry that is exactly the list `_family` stores for --max-n max_n.

    Its strings, joined by newlines, hash to `FAMILY_SHA256[max_n]`; as many
    strings as the family has leave no room for a newline inside one.
    """
    if not isinstance(value, list) or not all(isinstance(s, str) and s.isascii() for s in value):
        return False
    if max_n >= len(FAMILY_SHA256) or len(value) != sum(CLASS_COUNTS[1 : max_n + 1]) - max_n:
        return False
    return hashlib.sha256("\n".join(value).encode("ascii")).hexdigest() == FAMILY_SHA256[max_n]


def _family(args, cache: ResultCache) -> list:
    """graph6 strings of the family; a --max-n family is one cache entry, enumerated on a miss."""
    if getattr(args, "max_n", None):
        key = {"op": "family", "max_n": args.max_n, "version": __version__}
        hit = cache.get(key)
        if _is_family(hit, args.max_n):
            return hit
        family = [graph_to_graph6(g) for g in enumerate_graphs(args.max_n, require_edge=True)]
        cache.put(key, family)
        return family
    if getattr(args, "graph6_file", None):
        with open(args.graph6_file, "r", encoding="ascii") as fh:
            graphs = iter_graph6(fh)
    else:
        graphs = [_single_graph(args)]
    return [graph_to_graph6(g) for g in graphs]


def _caps(args) -> EngineCaps:
    """DEFAULT_CAPS with the values of the cap flags the command has."""
    given = {cap: getattr(args, cap) for cap in _CAP_FLAGS if hasattr(args, cap)}
    return dataclasses.replace(DEFAULT_CAPS, **given)


def _cache(args) -> ResultCache:
    if getattr(args, "no_cache", False):
        return ResultCache(None)
    root = getattr(args, "cache_dir", None) or os.environ.get(CACHE_ENV)
    return ResultCache(root)


def _header(command: str, args, field: Field, caps: EngineCaps, **extra) -> dict:
    head = {"command": command, "field": field.token(), "caps": caps.to_json()}
    head.update(extra)
    return {"header": head}


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
    """--field and the flags of the EngineCaps fields `caps`, with their defaults and types."""
    p.add_argument("--field", default="Q", help="coefficient field: Q (default) or GF(p)")
    for cap in caps:
        default = getattr(DEFAULT_CAPS, cap)
        p.add_argument(_CAP_FLAGS[cap], dest=cap, type=type(default), default=default)


def _add_cache_flags(p):
    p.add_argument("--cache-dir", help=f"result cache directory (or ${CACHE_ENV})")
    # no defaults, so that _reject_unread sees whether these were given
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
    p.add_argument("--statement", required=True, help=", ".join(STATEMENTS + tuple(_IDEAL_STATEMENTS)))
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


def _cmd_betti(args, field: Field, caps: EngineCaps) -> int:
    if args.ideal:
        gens = json.loads(args.ideal)
        nvars = args.nvars
        if nvars is None:
            raise ValueError("--ideal needs --nvars")
        ideal = parse_ideal(gens, nvars)
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


def _ideal_report(args, field: Field, caps: EngineCaps):
    """The report of an ideal statement on its parsed inputs; the check validates them."""
    if args.nvars is None:
        raise ValueError(f"--statement {args.statement} needs --nvars")
    nv = args.nvars
    if args.statement in ("splitting", "doublelinear"):
        if not (args.ideal and args.part_j and args.part_k):
            raise ValueError("splitting statements need --ideal, --part-j and --part-k")
        parts = [parse_ideal(json.loads(t), nv) for t in (args.ideal, args.part_j, args.part_k)]
        fn = check_betti_splitting if args.statement == "splitting" else check_doublelinear
        return fn(*parts, field, caps)
    if args.statement == "colon":
        if not (args.ideal and args.monomial):
            raise ValueError("colon needs --ideal and --monomial")
        ideal = parse_ideal(json.loads(args.ideal), nv)
        return check_colon_reg_bound(ideal, parse_monomial(args.monomial, nv), field, caps)
    if not (args.ideal and args.part_j):
        raise ValueError("abc needs --ideal (ambient I) and --part-j (sub-ideal J)")
    ambient = parse_ideal(json.loads(args.ideal), nv)
    sub = parse_ideal(json.loads(args.part_j), nv)
    return check_abc_bound(sub, ambient, field, caps)


def _check_ranges(args) -> None:
    """Reject a negative power index, a largest power, family size or job count below 1 and a
    cap that is not positive, before any output."""
    for name, low in (("k", 0), ("kmax", 1), ("max_n", 1), ("jobs", 1)):
        value = getattr(args, name, None)
        if value is not None and value < low:
            raise ValueError(f"--{name.replace('_', '-')} must be at least {low}, got {value}")
    for cap, flag in _CAP_FLAGS.items():
        value = getattr(args, cap, None)
        if value is not None and not value > 0:
            raise ValueError(f"{flag} must be positive, got {value}")


def _reject_unread(args, statement: str, reads) -> None:
    """Raise ValueError naming the first parameter, ideal or family flag given that statement
    does not read."""
    for dest in (*_PARAMS, *_IDEAL_FLAGS, *_FAMILY_FLAGS):
        if getattr(args, dest, None) is not None and dest not in reads:
            raise ValueError(f"{statement} does not read --{dest.replace('_', '-')}")


def _graph_inputs(args, statement: str) -> tuple:
    """(params, cache, family) of a graph statement, all checked before any output: its
    parameters from the flags given, with defaults filled in, and the family's graph6 strings."""
    defaults = statement_params(statement, {})
    reads = [dest for dest, name in _PARAMS.items() if name in defaults]
    _reject_unread(args, statement, (*reads, *_FAMILY_FLAGS))
    given = {_PARAMS[dest]: getattr(args, dest) for dest in reads if getattr(args, dest) is not None}
    params = statement_params(statement, given)
    cache = _cache(args)
    return params, cache, _family(args, cache)


def _is_report_list(value) -> bool:
    """True for a cache entry of the shape `_family_item` stores."""
    return isinstance(value, list) and all(
        isinstance(r, dict)
        and isinstance(r.get("statement"), str)
        and isinstance(r.get("instance"), str)
        and r.get("verdict") in (PASS, FAIL, SKIPPED)
        for r in value
    )


def _family_item(base_key: dict, run, cache: ResultCache, g6: str) -> list:
    """Report dicts of `run` on one graph, cached; an entry of the wrong shape is a miss."""
    key = dict(base_key, graph6=g6, version=__version__)
    hit = cache.get(key)
    if _is_report_list(hit):
        return hit
    reports = [r.to_json() for r in run(graph_from_graph6(g6))]
    cache.put(key, reports)
    return reports


def _run_family(args, cache: ResultCache, family: list, statement: str, params: dict, field, caps) -> list:
    """Report dicts of `statement` over the family, sorted; --jobs workers use the cache themselves.

    The cache key of a graph's reports holds the command, the statement, its parameters with
    defaults filled in, the field, caps, graph and version."""
    run = functools.partial(run_statement, statement, params=params, field=field, caps=caps)
    base_key = dict(op=args.command, statement=statement, params=params)
    base_key.update(field=field.token(), caps=caps.to_json())
    item = functools.partial(_family_item, base_key, run, cache)
    if (args.jobs or 1) <= 1 or len(family) <= 1:
        chunks = [item(g6) for g6 in family]
    else:
        import multiprocessing

        with multiprocessing.Pool(args.jobs) as pool:
            chunks = pool.map(item, family)
    reports = [rep for chunk in chunks for rep in chunk]
    reports.sort(key=lambda r: (r["statement"], r["instance"]))
    return reports


def _emit_reports(reports) -> int:
    """Print one JSON line per report dict; EXIT_FAIL when any verdict is fail."""
    for rep in reports:
        _emit(rep)
    return EXIT_FAIL if any(rep["verdict"] == FAIL for rep in reports) else EXIT_OK


def _cmd_verify(args, field: Field, caps: EngineCaps) -> int:
    statement = args.statement
    if statement in _IDEAL_STATEMENTS:
        _reject_unread(args, statement, _IDEAL_STATEMENTS[statement])
        reports = [_ideal_report(args, field, caps).to_json()]
    elif statement in STATEMENTS:
        params, cache, family = _graph_inputs(args, statement)
        reports = _run_family(args, cache, family, statement, params, field, caps)
    else:
        raise ValueError(f"unknown statement {statement!r}")
    # the header follows the checks, so that an error a check raises leaves stdout empty
    _emit(_header("verify", args, field, caps, statement=statement))
    return _emit_reports(reports)


def _cmd_scan(args, field: Field, caps: EngineCaps) -> int:
    params, cache, family = _graph_inputs(args, args.conjecture)
    reports = _run_family(args, cache, family, args.conjecture, params, field, caps)
    # the header follows the checks, as in verify
    _emit(_header("scan", args, field, caps, conjecture=args.conjecture, k_max=params["k_max"]))
    code = _emit_reports(reports)
    if args.summary:
        with open(args.summary, "w", encoding="utf-8", newline="") as fh:
            w = csv.DictWriter(fh, fieldnames=["statement", "instances", "pass", "fail", "skipped"])
            w.writeheader()
            w.writerows(summarize_reports(reports))
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
        return _COMMANDS[args.command](args, Field.from_token(args.field), _caps(args))
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
