"""Command line front end.

Every subcommand reads the text formats documented in the diagram and
ribbon modules ("-" reads standard input) and prints canonical text, or a
JSON report with --json.  Exit codes: 0 success (and identities equal),
1 an identity check failed, 2 malformed or unsuitable input, 3 the
diagram cannot be made alternating where that was required, 4 an internal
error (a one-line message, no traceback), 141 standard output was closed
before everything was written (128 + SIGPIPE, as a shell reports it).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import fixtures
from .build import (
    NotColorableError,
    build_ribbon,
    build_signed,
    edge_of_crossing,
    find_switch_set,
)
from .diagram import (
    apply_switches,
    bracket_routes,
    is_alternating,
    jones,
    jones_via_bracket,
    kauffman_bracket,
    parse_diagram,
    format_diagram,
    writhe,
)
from .limits import BYTES_PER_FREE_LOOP, check_memory
from .randgen import MAX_RANDOM_CROSSINGS, random_diagram
from .ribbon import (
    br_poly,
    br_poly_routes,
    format_ribbon,
    genus,
    graph_stats,
    parse_ribbon,
    tutte_via_br,
)
from .verify import (
    bracket_from_graph,
    bracket_via_rank_poly,
    jones_from_graph,
    jones_via_rank_poly,
    verify_jones,
    verify_main,
    verify_signed,
)

# DiagramError, RibbonError, PolyError, SizeLimitError and
# NotAlternatingError are all ValueErrors.
_INPUT_ERRORS = (ValueError, OSError)
_VERIFY = {"main": verify_main, "signed": verify_signed, "jones": verify_jones}


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def _diagram(path: str):
    return parse_diagram(_read(path))


def _ribbon(path: str):
    return parse_ribbon(_read(path))


def _cmd_bracket(args):
    poly = kauffman_bracket(_diagram(args.file))
    return 0, {"bracket": str(poly)}, [str(poly)]


def _cmd_jones(args):
    poly = jones(_diagram(args.file))
    return 0, {"jones": str(poly)}, [str(poly)]


def _cmd_colorable(args):
    switches = find_switch_set(_diagram(args.file))
    if switches is None:
        return 3, {"colorable": False}, ["not colorable"]
    text = "colorable; switches: " + (" ".join(map(str, switches)) or "none")
    return 0, {"colorable": True, "switches": list(switches)}, [text]


def _graph_payload(g, switches=None):
    text = format_ribbon(g)
    mapping = {str(i): edge_of_crossing(i) for i in range(g.edge_count)}
    payload = {"graph": text, "map": mapping, "stats": graph_stats(g)}
    if switches is not None:
        payload["switches"] = list(switches)
    return payload


def _emit_graph(args, g, switches=None):
    payload = _graph_payload(g, switches)
    map_lines = [f"{i} {edge_of_crossing(i)}" for i in range(g.edge_count)]
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(payload["graph"])
        map_path = args.output + ".map"
        with open(map_path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(map_lines) + ("\n" if map_lines else ""))
        payload["written"] = [args.output, map_path]
        lines = [f"wrote {args.output}", f"wrote {map_path}"]
    else:
        lines = [payload["graph"].rstrip("\n")]
        lines += [f"# crossing {line}" for line in map_lines]
    if switches:
        lines.append("# switched: " + " ".join(map(str, switches)))
    return 0, payload, lines


def _graph_sized(d):
    """d, once the graph to print fits in memory: each free loop becomes a
    dart-less vertex, held and printed one by one."""
    check_memory(BYTES_PER_FREE_LOOP * d.free_loops,
                 f"ribbon graph of a diagram with {d.free_loops} free loops")
    return d


def _cmd_build_ribbon(args):
    return _emit_graph(args, build_ribbon(_graph_sized(_diagram(args.file))))


def _cmd_build_signed(args):
    g, switches = build_signed(_graph_sized(_diagram(args.file)))
    return _emit_graph(args, g, switches)


def _cmd_br_poly(args):
    g = _ribbon(args.file)
    poly = br_poly(g, signed=args.signed)
    payload = {"br_poly": str(poly), "signed": bool(args.signed), "stats": graph_stats(g)}
    return 0, payload, [str(poly)]


def _cmd_tutte(args):
    g = _ribbon(args.file)
    poly = tutte_via_br(g)
    return 0, {"tutte": str(poly), "stats": graph_stats(g)}, [str(poly)]


def _cmd_genus(args):
    g = _ribbon(args.file)
    value = genus(g)
    return 0, {"genus": value, "stats": graph_stats(g)}, [str(value)]


def _cmd_verify(args):
    report = _VERIFY[args.mode](_diagram(args.file))
    left, right = str(report.left), str(report.right)
    payload = {
        "mode": args.mode,
        "left": left,
        "right": right,
        "equal": report.equal,
        "r": report.r,
        "n": report.n,
        "k": report.k,
        "switches": list(report.switches),
        "stats": report.stats,
    }
    lines = [
        f"left:  {left}",
        f"right: {right}",
        f"equal: {'yes' if report.equal else 'NO'} (r={report.r}, n={report.n}, k={report.k})",
    ]
    if report.switches:
        lines.append("switched: " + " ".join(map(str, report.switches)))
    return (0 if report.equal else 1), payload, lines


def _cmd_random(args):
    kind = "alternating" if args.alternating else "colorable" if args.colorable else "any"
    d = random_diagram(args.n, args.seed, kind=kind)
    text = format_diagram(d)
    payload = {"diagram": text, "n": args.n, "seed": args.seed, "kind": kind}
    return 0, payload, [text.rstrip("\n")]


def _selftest_diagrams():
    for name, text in fixtures.DIAGRAMS.items():
        yield name, parse_diagram(text)
    # No bundled fixture needs a switch, so this is the one signed graph
    # here with a negative edge.
    yield "switched-trefoil", apply_switches(parse_diagram(fixtures.TREFOIL), (1,))


def _selftest_cases():
    for name, d in _selftest_diagrams():
        colorable = find_switch_set(d) is not None
        routes = [bracket_routes(d)]
        if colorable:
            g = build_signed(d)[0]
            routes.append(br_poly_routes(g, signed=True))
        yield f"{name}: frontier route equals sweep", all(a == b for a, b in routes)
        if colorable:
            yield (
                f"{name}: graph side equals substituted rank polynomial",
                bracket_from_graph(g, signed=True) == bracket_via_rank_poly(g, signed=True)
                and jones_from_graph(g, writhe(d)) == jones_via_rank_poly(g, writhe(d)),
            )
            yield f"{name}: Jones at its point equals substituted bracket", (
                jones(d) == jones_via_bracket(d)
            )
        if name == "virtual-hopf":
            yield f"{name}: reports not colorable", not colorable
            continue
        if is_alternating(d):
            yield f"{name}: bracket identity", verify_main(d).equal
        yield f"{name}: signed identity", verify_signed(d).equal
        yield f"{name}: both Jones routes agree", verify_jones(d).equal
    d = parse_diagram(fixtures.SAMPLE_KNOT)
    yield (
        "sample-knot: bracket value",
        str(kauffman_bracket(d)) == "A^3 + 3*A^2*B*d + A*B^2*d^2 + 2*A*B^2 + B^3*d",
    )
    yield "sample-knot: Jones value", str(jones(d)) == "1"
    g = parse_ribbon(fixtures.SAMPLE_RIBBON)
    yield (
        "sample-ribbon: rank polynomial",
        str(br_poly(g)) == "x*y + x + y^2*z^2 + 3*y + 2",
    )
    yield "sample-ribbon: genus", genus(g) == 1
    frontier, sweep = br_poly_routes(g, signed=True)
    yield "sample-ribbon: frontier route equals sweep", frontier == sweep


def _cmd_selftest(args):
    results = [{"name": name, "ok": ok} for name, ok in _selftest_cases()]
    all_ok = all(item["ok"] for item in results)
    lines = [f"{item['name']}: {'ok' if item['ok'] else 'FAIL'}" for item in results]
    lines.append(f"{sum(item['ok'] for item in results)}/{len(results)} checks passed")
    return (0 if all_ok else 1), {"results": results, "ok": all_ok}, lines


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vkbr",
        description=(
            "Bracket and Jones polynomials of virtual link diagrams, their "
            "ribbon graphs, rank polynomials, and identity checks."
        ),
    )
    parser.add_argument(
        "--json", action="store_true", help="emit a JSON report instead of text"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def diagram_cmd(name, handler, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("file", help="diagram file, or - for stdin")
        p.set_defaults(handler=handler)
        return p

    def ribbon_cmd(name, handler, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("file", help="ribbon graph file, or - for stdin")
        p.set_defaults(handler=handler)
        return p

    diagram_cmd("bracket", _cmd_bracket, "Kauffman bracket of a diagram")
    diagram_cmd("jones", _cmd_jones, "Jones polynomial of a diagram")
    diagram_cmd(
        "colorable", _cmd_colorable, "report the switch set making a diagram alternate"
    )
    p = diagram_cmd("build-ribbon", _cmd_build_ribbon, "ribbon graph of an alternating diagram")
    p.add_argument("-o", "--output", help="write the graph here and the crossing map to OUTPUT.map")
    p = diagram_cmd("build-signed", _cmd_build_signed, "signed ribbon graph of a colorable diagram")
    p.add_argument("-o", "--output", help="write the graph here and the crossing map to OUTPUT.map")
    p = ribbon_cmd("br-poly", _cmd_br_poly, "rank polynomial of a ribbon graph")
    p.add_argument("--signed", action="store_true", help="use the edge signs")
    ribbon_cmd("tutte", _cmd_tutte, "Tutte polynomial of the underlying graph")
    ribbon_cmd("genus", _cmd_genus, "genus of a ribbon graph")
    p = diagram_cmd("verify", _cmd_verify, "check a bracket or Jones identity both ways")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument(
        "--main", dest="mode", action="store_const", const="main",
        help="unsigned bracket identity (default)",
    )
    mode.add_argument(
        "--signed", dest="mode", action="store_const", const="signed",
        help="signed bracket identity",
    )
    mode.add_argument(
        "--jones", dest="mode", action="store_const", const="jones",
        help="Jones assembly identity",
    )
    p.set_defaults(mode="main")
    p = sub.add_parser("random", help="generate a seeded random diagram")
    p.add_argument("-n", type=int, required=True, help=f"crossings, 0..{MAX_RANDOM_CROSSINGS}")
    p.add_argument("--seed", type=int, required=True)
    kind = p.add_mutually_exclusive_group()
    kind.add_argument("--alternating", action="store_true")
    kind.add_argument("--colorable", action="store_true")
    p.set_defaults(handler=_cmd_random)
    p = sub.add_parser("selftest", help="run the bundled examples end to end")
    p.set_defaults(handler=_cmd_selftest)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        code, payload, lines = args.handler(args)
    except NotColorableError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a fault of vkbr, not of the input
        print(f"error: internal: {exc!r}", file=sys.stderr)
        return 4
    try:
        if args.json:
            payload["command"] = args.command
            print(json.dumps(payload, sort_keys=True))
        else:
            for line in lines:
                print(line)
        if sys.stdout is not None:  # None when started with descriptor 1 closed
            sys.stdout.flush()
    except BrokenPipeError:
        # The reader has gone.  Send what is still buffered to the null
        # device, so that the interpreter's last flush does not fail too.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    return code


if __name__ == "__main__":
    sys.exit(main())
