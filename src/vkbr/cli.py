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

from . import diagram, fixtures, ribbon
from .build import (
    NotColorableError,
    build_ribbon,
    build_signed,
    edge_of_crossing,
    find_switch_set,
)
from .diagram import (
    BRACKET_VARS,
    _bracket_sum,
    apply_switches,
    is_alternating,
    jones,
    jones_via_bracket,
    kauffman_bracket,
    parse_diagram,
    format_diagram,
    writhe,
)
from .laurent import LaurentPoly
from .limits import SizeLimitError
from .randgen import MAX_RANDOM_CROSSINGS, random_diagram
from .ribbon import (
    _rank_poly,
    br_poly,
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
# verify mode -> (check, help text of its flag); "main" is the default.
_VERIFY = {
    "main": (verify_main, "unsigned bracket identity (default)"),
    "signed": (verify_signed, "signed bracket identity"),
    "jones": (verify_jones, "Jones assembly identity"),
}


def _load(kind: str, path: str):
    """The diagram or ribbon graph, as kind says, in the file at path, "-"
    for stdin.

    The parsers are looked up when called, so that a wrapper installed
    on this module's globals sees every call."""
    if path == "-":
        if sys.stdin is None:  # None when started with descriptor 0 closed
            raise OSError("standard input is closed")
        text = sys.stdin.read()
    else:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    return parse_diagram(text) if kind == "diagram" else parse_ribbon(text)


def _cmd_bracket(args, d):
    text = str(kauffman_bracket(d))
    return 0, {"bracket": text}, [text]


def _cmd_jones(args, d):
    text = str(jones(d))
    return 0, {"jones": text}, [text]


def _cmd_colorable(args, d):
    switches = find_switch_set(d)
    if switches is None:
        return 3, {"colorable": False}, ["not colorable"]
    text = "colorable; switches: " + (" ".join(map(str, switches)) or "none")
    return 0, {"colorable": True, "switches": list(switches)}, [text]


def _emit_graph(args, g, switches=None):
    mapping = {str(i): edge_of_crossing(i) for i in range(g.edge_count)}
    payload = {"graph": format_ribbon(g), "map": mapping, "stats": graph_stats(g)}
    if switches is not None:
        payload["switches"] = list(switches)
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


def _output_option(parser):
    parser.add_argument(
        "-o", "--output", help="write the graph here and the crossing map to OUTPUT.map"
    )


def _cmd_build_ribbon(args, d):
    return _emit_graph(args, build_ribbon(d))


def _cmd_build_signed(args, d):
    g, switches = build_signed(d)
    return _emit_graph(args, g, switches)


def _cmd_br_poly(args, g):
    text = str(br_poly(g, signed=args.signed))
    payload = {"br_poly": text, "signed": bool(args.signed), "stats": graph_stats(g)}
    return 0, payload, [text]


def _signed_option(parser):
    parser.add_argument("--signed", action="store_true", help="use the edge signs")


def _cmd_tutte(args, g):
    text = str(tutte_via_br(g))
    return 0, {"tutte": text, "stats": graph_stats(g)}, [text]


def _cmd_genus(args, g):
    stats = graph_stats(g)
    return 0, {"genus": stats["genus"], "stats": stats}, [str(stats["genus"])]


def _cmd_verify(args, d):
    report = _VERIFY[args.mode][0](d)
    left = str(report.left)
    right = left if report.equal else str(report.right)
    payload = {"mode": args.mode, "left": left, "right": right, "equal": report.equal,
               "r": report.r, "n": report.n, "k": report.k,
               "switches": list(report.switches), "stats": report.stats}
    lines = [
        f"left:  {left}",
        f"right: {right}",
        f"equal: {'yes' if report.equal else 'NO'} (r={report.r}, n={report.n}, k={report.k})",
    ]
    if report.switches:
        lines.append("switched: " + " ".join(map(str, report.switches)))
    return (0 if report.equal else 1), payload, lines


def _verify_modes(parser):
    mode = parser.add_mutually_exclusive_group()
    for name, (_, help_text) in _VERIFY.items():
        mode.add_argument(
            f"--{name}", dest="mode", action="store_const", const=name, help=help_text
        )
    parser.set_defaults(mode="main")


def _cmd_random(args, _):
    kind = "alternating" if args.alternating else "colorable" if args.colorable else "any"
    d = random_diagram(args.n, args.seed, kind=kind)
    text = format_diagram(d)
    payload = {"diagram": text, "n": args.n, "seed": args.seed, "kind": kind}
    return 0, payload, [text.rstrip("\n")]


def _random_options(parser):
    parser.add_argument(
        "-n", type=int, required=True, help=f"crossings, 0..{MAX_RANDOM_CROSSINGS}"
    )
    parser.add_argument("--seed", type=int, required=True)
    flavour = parser.add_mutually_exclusive_group()
    flavour.add_argument("--alternating", action="store_true")
    flavour.add_argument("--colorable", action="store_true")


def _selftest_diagrams():
    for name, text in fixtures.DIAGRAMS.items():
        yield name, parse_diagram(text)
    # No bundled fixture needs a switch, so this is the one signed graph
    # here with a negative edge.
    yield "switched-trefoil", apply_switches(parse_diagram(fixtures.TREFOIL), (1,))


def _selftest_cases():
    """(name, check) of each selftest line, check() being true when the
    line holds.  Each check is called before the next pair is made."""
    # A and B exchanged, d kept.
    swap = dict(zip(BRACKET_VARS, (LaurentPoly.variable(BRACKET_VARS, var) for var in "BAd")))
    for name, d in _selftest_diagrams():
        colorable = find_switch_set(d) is not None
        g = build_signed(d)[0] if colorable else None
        yield f"{name}: frontier route equals traces", lambda: (
            kauffman_bracket(d)
            == _bracket_sum(len(d.crossings), diagram._trace_rows(d), d.free_loops)
            and (g is None or br_poly(g, signed=True)
                 == _rank_poly(g, ribbon._trace_rows(g), g.negative_mask()))
        )
        if colorable:
            yield f"{name}: graph side equals substituted rank polynomial", lambda: (
                bracket_from_graph(g) == bracket_via_rank_poly(g)
                and jones_from_graph(g, writhe(d)) == jones_via_rank_poly(g, writhe(d))
            )
            yield f"{name}: Jones at its point equals substituted bracket", lambda: (
                jones(d) == jones_via_bracket(d)
            )
        if colorable and d.crossings:
            # Switching every crossing gives the signed graph of the other
            # checkerboard colouring, on which A- and B-splittings trade places.
            yield f"{name}: other colour's graph gives the bracket with A and B swapped", lambda: (
                bracket_from_graph(build_signed(apply_switches(d, range(len(d.crossings))))[0])
                .substitute(swap, BRACKET_VARS) == kauffman_bracket(d)
            )
        if name == "virtual-hopf":
            yield f"{name}: reports not colorable", lambda: not colorable
            continue
        if is_alternating(d):
            yield f"{name}: bracket identity", lambda: verify_main(d).equal
        yield f"{name}: signed identity", lambda: verify_signed(d).equal
        yield f"{name}: both Jones routes agree", lambda: verify_jones(d).equal
    d = parse_diagram(fixtures.SAMPLE_KNOT)
    yield "sample-knot: bracket value", lambda: (
        str(kauffman_bracket(d)) == "A^3 + 3*A^2*B*d + A*B^2*d^2 + 2*A*B^2 + B^3*d"
    )
    yield "sample-knot: Jones value", lambda: str(jones(d)) == "1"
    g = parse_ribbon(fixtures.SAMPLE_RIBBON)
    yield "sample-ribbon: rank polynomial", lambda: (
        str(br_poly(g)) == "x*y + x + y^2*z^2 + 3*y + 2"
    )
    yield "sample-ribbon: genus", lambda: genus(g) == 1
    yield "sample-ribbon: frontier route equals traces", lambda: (
        br_poly(g, signed=True)
        == _rank_poly(g, ribbon._trace_rows(g), g.negative_mask())
    )


def _cmd_selftest(args, _):
    """Each check on its own: one that raises fails its line, with the
    exception, and the rest still run.  A SizeLimitError still ends the
    run, as on any command."""
    results = []
    for name, check in _selftest_cases():
        try:
            results.append({"name": name, "ok": check()})
        except SizeLimitError:
            raise
        except Exception as exc:  # a fault the check found
            results.append({"name": name, "ok": False,
                            "error": f"{type(exc).__name__}: {exc}"})
    all_ok = all(item["ok"] for item in results)
    lines = [f"{item['name']}: {'ok' if item['ok'] else 'FAIL'}"
             + (f" ({item['error']})" if "error" in item else "") for item in results]
    lines.append(f"{sum(item['ok'] for item in results)}/{len(results)} checks passed")
    return (0 if all_ok else 1), {"results": results, "ok": all_ok}, lines


# name -> (handler, input kind, help text, options), in the order of
# vkbr --help.  A command with an input kind takes a file argument, which
# main reads and parses before it calls handler(args, input); one without
# gets None.  options(parser), where given, adds the command's others.
_COMMANDS = {
    "bracket": (_cmd_bracket, "diagram", "Kauffman bracket of a diagram", None),
    "jones": (_cmd_jones, "diagram", "Jones polynomial of a diagram", None),
    "colorable": (_cmd_colorable, "diagram",
                  "report the switch set making a diagram alternate", None),
    "build-ribbon": (_cmd_build_ribbon, "diagram",
                     "ribbon graph of an alternating diagram", _output_option),
    "build-signed": (_cmd_build_signed, "diagram",
                     "signed ribbon graph of a colorable diagram", _output_option),
    "br-poly": (_cmd_br_poly, "ribbon graph", "rank polynomial of a ribbon graph", _signed_option),
    "tutte": (_cmd_tutte, "ribbon graph", "Tutte polynomial of the underlying graph", None),
    "genus": (_cmd_genus, "ribbon graph", "genus of a ribbon graph", None),
    "verify": (_cmd_verify, "diagram",
               "check a bracket or Jones identity both ways", _verify_modes),
    "random": (_cmd_random, None, "generate a seeded random diagram", _random_options),
    "selftest": (_cmd_selftest, None, "run the bundled examples end to end", None),
}


def _named_command(argv):
    """The command argv names, found as argparse finds it: the first word
    that does not start with "-", since the options before it, --json and
    -h, take no value.  None when that word is no command, or there is none."""
    word = next((arg for arg in argv if not arg.startswith("-")), None)
    return word if word in _COMMANDS else None


def _build_parser(named=None) -> argparse.ArgumentParser:
    """The parser of vkbr.  Every command is in it, for --help, the usage
    line and the list of choices, but only the command `named` gets its
    -h, defaults and arguments, or every command when named is None.  main
    names the command its argv names, so that a call builds no argument of
    a command it does not run."""
    parser = argparse.ArgumentParser(
        prog="vkbr",
        description=(
            "Bracket and Jones polynomials of virtual link diagrams, their "
            "ribbon graphs, rank polynomials, and identity checks."
        ),
    )
    parser.add_argument("--json", action="store_true", help="emit a JSON report instead of text")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, kind, help_text, options) in _COMMANDS.items():
        if named not in (None, name):
            sub.add_parser(name, help=help_text, add_help=False)
            continue
        command = sub.add_parser(name, help=help_text)
        command.set_defaults(handler=handler, kind=kind)
        if kind is not None:
            command.add_argument("file", help=f"{kind} file, or - for stdin")
        if options is not None:
            options(command)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _build_parser(_named_command(argv)).parse_args(argv)
    try:
        source = _load(args.kind, args.file) if args.kind else None
        code, payload, lines = args.handler(args, source)
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
