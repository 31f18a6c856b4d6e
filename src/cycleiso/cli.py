"""Command-line front end.

Subcommands cover every library capability: verifying candidate isolating
sets, exact isolation numbers, the constructive bound with its case trace,
building and recognising the extremal family, tree and connected-graph
enumeration, and bound surveys over graph streams.

Exit codes: 0 success, 1 usage or parse error, 2 survey found violations,
3 solver node budget exhausted.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import re
import sys
import time
from itertools import chain
from typing import Iterable, Optional

from .constructive import bound_value, construct
from .family import Tree, build, enumerate_trees, recognize
from .graphs import (
    Graph,
    bits,
    encode_graph6,
    mask_of,
    parse_edge_list,
    parse_graph6,
)
from .isolation import BudgetExceededError, iota_exact, verify
from .survey import (
    ENUMERATION_MAX_N,
    ENUMERATION_RANGE_ERROR,
    BoundSpec,
    IngestFailure,
    SurveyReport,
    conjecture_bound,
    enumerate_connected,
    check_graph,
    ingest_graph6,
    survey,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VIOLATIONS = 2
EXIT_BUDGET = 3
#: exit code by record status, a violation taking precedence
_STATUS_EXIT = {"violation": EXIT_VIOLATIONS, "budget_exhausted": EXIT_BUDGET}


class CliError(Exception):
    pass


def _parse_bound(text: str, k: int) -> BoundSpec:
    """Parse "a*n+b*m+c/d" with integer coefficients, e.g. "m+1/6" or "n/4"."""
    body = text.replace(" ", "")
    if "/" not in body:
        raise CliError(f"bound {text!r} lacks a denominator")
    num, _, den = body.rpartition("/")
    if num.startswith("(") and num.endswith(")"):
        num = num[1:-1]
    # int() alone would also take "1_0" and non-ASCII digits
    if not re.fullmatch(r"[+-]?[0-9]+", den):
        raise CliError(f"bound denominator {den!r} is not an integer")
    d = int(den)
    terms = re.findall(r"[+-]?[^+-]+", num)
    if not terms or "".join(terms) != num:
        # an empty numerator, or a sign with no term after it
        raise CliError(f"bad bound numerator {num!r}")
    a = b = c = 0
    for term in terms:
        sign = -1 if term.startswith("-") else 1
        term = term.lstrip("+-")
        # ASCII digits, then at most one "*" before the variable
        if not re.fullmatch(r"[0-9]+|([0-9]+\*?)?[nm]", term):
            raise CliError(f"bad bound term {term!r}")
        var = term[-1] if term.endswith(("n", "m")) else ""
        coeff = sign * int(term.rstrip("nm*") or "1")
        if var == "n":
            a += coeff
        elif var == "m":
            b += coeff
        else:
            c += coeff
    return BoundSpec(k=k, a=a, b=b, c=c, d=d)


def _read_text(path: Optional[str]) -> str:
    """The named file's text, or all of stdin when path is None.  Undecodable
    file bytes become U+FFFD, never a valid graph6 byte.  Only "\n" ends a
    line, as in parse_edge_list, ingest_graph6 and sys.stdin, which CPython
    sets up that way on POSIX systems."""
    if path is None:
        return sys.stdin.read()
    try:
        with open(path, encoding="ascii", errors="replace", newline="\n") as fh:
            return fh.read()
    except OSError as exc:
        raise CliError(str(exc)) from None


def _load_graph(args) -> Graph:
    if args.graph6 is not None:
        return parse_graph6(args.graph6)
    if args.file is not None:
        text = _read_text(args.file)
        if _looks_like_graph6(text):
            return parse_graph6(text)
        return parse_edge_list(text)
    line = sys.stdin.readline()
    if not line.strip():
        raise CliError("no graph on stdin")
    return parse_graph6(line)


def _looks_like_graph6(text: str) -> bool:
    """A lone token of graph6 bytes (63..126) on the first non-blank line."""
    first = next((ln.split() for ln in text.split("\n") if ln.strip()), [])
    if len(first) != 1:
        return False
    token = first[0].removeprefix(">>graph6<<")
    return bool(token) and all(63 <= ord(ch) <= 126 for ch in token)


def _parse_vertex_set(text: str) -> int:
    if not text.strip():
        return 0
    try:
        return mask_of(_integer(part.strip()) for part in text.split(","))
    except (ValueError, argparse.ArgumentTypeError):
        raise CliError(f"bad vertex set {text!r}; expected comma-separated ids") from None


def _emit(args, payload: dict, text_lines: list[str]) -> None:
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _cmd_verify(args) -> int:
    g = _load_graph(args)
    d = _parse_vertex_set(args.set)
    cert = verify(g, d, args.k)
    payload = {
        "k": args.k,
        "set": list(cert.vertices),
        "valid": cert.valid,
        "residual_components": [list(bits(mask)) for mask in cert.residual],
    }
    _emit(
        args,
        payload,
        [
            f"valid: {str(cert.valid).lower()}",
            f"set: {','.join(map(str, cert.vertices)) or '-'}",
            f"residual components: {len(cert.residual)}",
        ],
    )
    return EXIT_OK


def _cmd_exact(args) -> int:
    g = _load_graph(args)
    res = iota_exact(g, args.k, args.budget)
    payload = {
        "k": args.k,
        "iota": res.iota,
        "witness": list(res.vertices),
        "explored": res.explored,
    }
    _emit(
        args,
        payload,
        [
            f"iota: {res.iota}",
            f"witness: {','.join(map(str, res.vertices)) or '-'}",
            f"explored: {res.explored}",
        ],
    )
    return EXIT_OK


def _cmd_construct(args) -> int:
    if args.k != 4:
        raise CliError("the constructive bound is implemented for k=4 only")
    g = _load_graph(args)
    d, trace = construct(g)
    size = d.bit_count()
    limit = bound_value(g.m)
    payload = {
        "set": list(bits(d)),
        "size": size,
        "bound": [limit.numerator, limit.denominator],
        "trace": [
            {
                "label": s.label,
                "working": list(s.working),
                "increment": list(s.increment),
                "recursed": [list(p) for p in s.recursed],
            }
            for s in trace.steps
        ],
        "fallback": trace.used_fallback(),
    }
    lines = [
        f"set: {','.join(map(str, bits(d))) or '-'}",
        f"size: {size} (bound (m+1)/6 = {limit})",
    ]
    lines.extend(f"trace: {s.label}" for s in trace.steps)
    _emit(args, payload, lines)
    return EXIT_OK


def _cmd_cons(args) -> int:
    tg = parse_edge_list(_read_text(args.tree))
    tree = Tree(tg.n, tuple(tg.edges()))
    g, decomp = build(tree, args.k)
    code = encode_graph6(g)
    payload = {
        "graph6": code,
        "n": g.n,
        "m": g.m,
        "connection_vertices": list(bits(decomp.connection_vertices)),
        "constituents": [
            {
                "connection": c.connection,
                "attachment": c.attachment,
                "cycle": list(c.cycle),
            }
            for c in decomp.constituents
        ],
    }
    _emit(
        args,
        payload,
        [
            f"graph6: {code}",
            f"n: {g.n}  m: {g.m}",
            f"connection vertices: {','.join(map(str, bits(decomp.connection_vertices)))}",
        ],
    )
    return EXIT_OK


def _cmd_recognize(args) -> int:
    g = _load_graph(args)
    decomp = recognize(g, args.k)
    if decomp is None:
        _emit(args, {"member": False}, ["member: false"])
        return EXIT_OK
    payload = {
        "member": True,
        "connection_vertices": list(bits(decomp.connection_vertices)),
        "tree_edges": [list(e) for e in decomp.tree_edges],
        "canonical_isolating_set": list(bits(decomp.connection_vertices)),
    }
    _emit(
        args,
        payload,
        [
            "member: true",
            f"connection vertices: {','.join(map(str, bits(decomp.connection_vertices)))}",
        ],
    )
    return EXIT_OK


def _cmd_trees(args) -> int:
    trees = enumerate_trees(args.n)
    payload = {"n": args.n, "count": len(trees), "trees": [[list(e) for e in t.edges] for t in trees]}
    lines = [f"count: {len(trees)}"]
    lines.extend(" ".join(f"{u}-{v}" for u, v in t.edges) or "K1" for t in trees)
    _emit(args, payload, lines)
    return EXIT_OK


def _cmd_enumerate(args) -> int:
    for g in enumerate_connected(args.n):
        print(encode_graph6(g))
    return EXIT_OK


def _survey_spec(args) -> BoundSpec:
    presets = [bool(args.bound), args.bound_c3, args.bound_c4, args.conjecture]
    if sum(presets) > 1:
        raise CliError("give only one bound specification")
    if args.bound:
        spec = _parse_bound(args.bound, args.k)
    else:  # --bound-c3 and --bound-c4 are the (m+1)/(k+2) bound at k = 3 and 4
        spec = conjecture_bound(3 if args.bound_c3 else 4 if args.bound_c4 else args.k)
    if args.exclude is not None:
        try:
            lines = [ln.strip() for ln in _read_text(args.exclude).split("\n")]
            list(ingest_graph6(lines))  # a bad record fails here, citing its file line
            spec = dataclasses.replace(spec, exclusions=tuple(filter(None, lines)))
        except (CliError, ValueError) as exc:
            raise CliError(f"bad exclusion list: {exc}") from None
    return spec


def _survey_graphs(args) -> Iterable[Graph]:
    if args.enumerate is not None:
        if args.graph6 is not None or args.file is not None:
            raise CliError("--enumerate conflicts with --graph6/--file input")
        if args.enumerate < 1:
            raise CliError("--enumerate needs N >= 1")
        if args.enumerate > ENUMERATION_MAX_N:
            raise CliError(ENUMERATION_RANGE_ERROR)
        orders = [enumerate_connected(order) for order in range(1, args.enumerate + 1)]
        # pulling each order's first graph builds its classes before any graph is solved
        return chain.from_iterable([chain([next(order)], order) for order in orders])
    source = args.graph6 if args.graph6 is not None else _read_text(args.file)
    failures: list[IngestFailure] = []
    graphs = list(ingest_graph6(source, failures if args.skip_bad else None))
    for failure in failures:
        print(f"skipped line {failure.line_no}: {failure.error}", file=sys.stderr)
    return graphs


def _report_body(args, report: SurveyReport) -> str:
    """The survey's output without timing: CSV, one JSON line, or text."""
    if args.format == "csv":
        return report.to_csv()
    if args.format == "json":
        return json.dumps(report.to_json_dict(), sort_keys=True) + "\n"
    totals = report.totals()
    lines = [f"records: {totals['records']}"]
    lines.extend(f"  {status}: {count}" for status, count in totals["by_status"].items())
    lines.extend(
        f"violation: {rec.graph6} iota={rec.iota} bound={rec.bound}" for rec in report.violations
    )
    lines.extend(
        f"equality: {rec.graph6} iota={rec.iota} class={rec.extremal_class or '-'}"
        for rec in report.equalities
    )
    return "".join(line + "\n" for line in lines)


def _cmd_survey(args) -> int:
    spec = _survey_spec(args)
    started = time.perf_counter()
    graphs = _survey_graphs(args)
    loaded = time.perf_counter()
    report = survey(graphs, spec, node_budget=args.budget, rows=args.format == "csv")
    solved = time.perf_counter()
    body = _report_body(args, report)
    formatted = time.perf_counter()
    if args.timing:
        timing = {
            "enumerate_s" if args.enumerate is not None else "ingest_s": loaded - started,
            "solve_s": solved - loaded,
            "format_s": formatted - solved,
        }
        timing["wall_time_s"] = sum(timing.values())
        if args.format == "json":
            payload = report.to_json_dict()
            payload["metadata"] = timing
            body = json.dumps(payload, sort_keys=True) + "\n"
        else:
            lines = "".join(
                f"{key.removesuffix('_s').replace('_', ' ')}: {seconds:.3f}s\n"
                for key, seconds in timing.items()
            )
            if args.format == "text":
                body += lines
            else:  # the CSV stays a plain table, so its times go to stderr
                sys.stderr.write(lines)
    sys.stdout.write(body)
    return next((code for s, code in _STATUS_EXIT.items() if s in report.by_status), EXIT_OK)


def _cmd_check(args) -> int:
    spec = _survey_spec(args)
    g = _load_graph(args)
    rec = check_graph(g, spec, node_budget=args.budget)
    if args.format == "csv":
        print(rec.CSV_HEADER)
        print(rec.csv_row())
    else:
        _emit(
            args,
            rec.to_dict(),
            [
                f"graph6: {rec.graph6}",
                f"status: {rec.status}",
                f"iota: {rec.iota if rec.iota is not None else '-'} vs bound {rec.bound}",
                f"class: {rec.extremal_class or '-'}",
            ],
        )
    return _STATUS_EXIT.get(rec.status, EXIT_OK)


def _integer(text: str) -> int:
    """argparse type of every integer option: an optional "-", then ASCII
    digits; int() alone would also take "1_0", "+3" and non-ASCII digits."""
    if not (text.isascii() and text.removeprefix("-").isdigit()):
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return int(text)


def _node_budget(text: str) -> int:
    """argparse type of --budget: a node count N >= 0."""
    budget = _integer(text)
    if budget < 0:
        raise argparse.ArgumentTypeError("node budget must be at least 0")
    return budget


def _add_graph_input(p: argparse.ArgumentParser) -> None:
    p.add_argument("--graph6", help="inline graph6 record")
    p.add_argument("--file", help="edge-list file ('n <count>' header) or graph6 file")


def _add_common(p: argparse.ArgumentParser, formats: tuple[str, ...] = ("text", "json")) -> None:
    p.add_argument("-k", type=_integer, default=4, help="cycle length")
    p.add_argument("--format", choices=formats, default="text")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cycleiso",
        description="cycle-isolation numbers: exact values, constructive bounds, surveys",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="check whether a vertex set is cycle-isolating")
    _add_graph_input(p)
    _add_common(p)
    p.add_argument("--set", required=True, help="comma-separated vertex ids")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("exact", help="exact isolation number with an optimal witness")
    _add_graph_input(p)
    _add_common(p)
    p.add_argument("--budget", type=_node_budget, help="search node budget")
    p.set_defaults(fn=_cmd_exact)

    p = sub.add_parser("construct", help="constructive isolating set within (m+1)/6")
    _add_graph_input(p)
    _add_common(p)
    p.set_defaults(fn=_cmd_construct)

    p = sub.add_parser("cons", help="attach a cycle to every vertex of a tree")
    p.add_argument("--tree", help="tree edge-list file (default: stdin)")
    _add_common(p)
    p.set_defaults(fn=_cmd_cons)

    p = sub.add_parser("recognize", help="recognise membership in the extremal family")
    _add_graph_input(p)
    _add_common(p)
    p.set_defaults(fn=_cmd_recognize)

    p = sub.add_parser("trees", help="enumerate trees up to isomorphism")
    p.add_argument("-n", type=_integer, required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(fn=_cmd_trees)

    p = sub.add_parser("enumerate", help="enumerate connected graphs as graph6")
    p.add_argument("-n", type=_integer, required=True)
    p.set_defaults(fn=_cmd_enumerate)

    for name in ("survey", "check"):
        p = sub.add_parser(
            name,
            help="evaluate a bound over a graph stream"
            if name == "survey"
            else "evaluate a bound for one graph",
        )
        _add_graph_input(p)
        _add_common(p, ("text", "json", "csv"))
        p.add_argument("--bound", help='bound expression "a*n+b*m+c/d", e.g. "m+1/6"')
        p.add_argument(
            "--bound-c3", action="store_true", help="preset: k=3 bound (m+1)/5"
        )
        p.add_argument(
            "--bound-c4", action="store_true", help="preset: k=4 bound (m+1)/6"
        )
        p.add_argument(
            "--conjecture", action="store_true", help="preset: (m+1)/(k+2) for the given k"
        )
        p.add_argument("--exclude", help="file of graph6 records exempt from the bound")
        p.add_argument("--budget", type=_node_budget, help="solver node budget per graph")
        if name == "survey":
            p.add_argument(
                "--enumerate",
                type=_integer,
                default=None,
                metavar="N",
                help="survey every connected graph with at most N vertices",
            )
            p.add_argument("--skip-bad", action="store_true", help="skip malformed graph6 lines")
            p.add_argument(
                "--timing", action="store_true", help="report input, solve, format and wall time"
            )
            p.set_defaults(fn=_cmd_survey)
        else:
            p.set_defaults(fn=_cmd_check)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    if getattr(args, "k", 3) < 3:
        print("error: cycle length must be at least 3", file=sys.stderr)
        return EXIT_USAGE
    try:
        # every command that reads --graph6 or --file takes one of them at most
        if getattr(args, "graph6", None) is not None and getattr(args, "file", None) is not None:
            raise CliError("give at most one of --graph6 and --file")
        code = args.fn(args)
        sys.stdout.flush()  # so a reader that left early is met here, not at exit
        return code
    except BrokenPipeError:
        # the reader closed stdout: point it at devnull so the flush at exit stays silent
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_USAGE
    except BudgetExceededError as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (CliError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
