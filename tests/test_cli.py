"""Command line behavior: outputs, exit codes, JSON reports, files."""

import importlib.util
import io
import json
import os
import re
import shutil
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vkbr
from helpers import production_calls, torus_braid
from reference import add_kernel_fault
from vkbr import fixtures, limits, verify
from vkbr.build import build_signed, find_switch_set
from vkbr.cli import _COMMANDS, _build_parser, _named_command, main
from vkbr.diagram import apply_switches, format_diagram, is_alternating, parse_diagram
from vkbr.randgen import KINDS, random_diagram
from vkbr.ribbon import format_ribbon, parse_ribbon, tutte_via_br


@pytest.fixture
def sample_knot(tmp_path):
    path = tmp_path / "knot.txt"
    path.write_text(fixtures.SAMPLE_KNOT)
    return str(path)


@pytest.fixture
def sample_ribbon(tmp_path):
    path = tmp_path / "graph.txt"
    path.write_text(fixtures.SAMPLE_RIBBON)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPolynomialCommands:
    def test_stdin_dash(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO(fixtures.NEGATIVE_KINK))
        code, out, _ = run(capsys, "bracket", "-")
        assert code == 0 and out.strip() == "A + B*d"

    def test_br_poly_signed(self, capsys, tmp_path):
        path = tmp_path / "neg.txt"
        path.write_text("V u : a1 a2\nE a : a1 a2 sign=-\n")
        code, out, _ = run(capsys, "br-poly", "--signed", str(path))
        assert code == 0 and out.strip() == "x^(1/2)*y^(1/2) + x^(-1/2)*y^(1/2)"

    def test_tutte(self, capsys, sample_ribbon):
        code, out, _ = run(capsys, "tutte", sample_ribbon)
        assert code == 0
        assert out.strip() == str(tutte_via_br(parse_ribbon(fixtures.SAMPLE_RIBBON)))

    def test_genus(self, capsys, sample_ribbon):
        code, out, _ = run(capsys, "genus", sample_ribbon)
        assert code == 0 and out.strip() == "1"


class TestDartlessVertices:
    """40000 dart-less vertices once overflowed the sweep's int16 counts."""

    @pytest.fixture
    def bare(self, tmp_path):
        path = tmp_path / "bare.txt"
        path.write_text("".join(f"V u{i} :\n" for i in range(40000)))
        return str(path)

    @pytest.mark.parametrize("command", ["br-poly", "tutte"])
    def test_polynomial_is_one(self, capsys, bare, command):
        code, out, err = run(capsys, command, bare)
        assert (code, out, err) == (0, "1\n", "")

    def test_signed_polynomial_is_one(self, capsys, bare):
        code, out, _ = run(capsys, "br-poly", "--signed", bare)
        assert (code, out) == (0, "1\n")


class TestEmptyDiagram:
    """Every diagram command on an empty file: (exit code, first line of
    stdout, first line of stderr)."""

    NO_JONES = "error: the empty diagram has no Jones polynomial (its bracket is d^-1)"
    EXPECTED = {
        ("bracket",): (0, "d^-1", ""),
        ("jones",): (2, "", NO_JONES),
        ("colorable",): (0, "colorable; switches: none", ""),
        ("build-ribbon",): (0, "", ""),
        ("build-signed",): (0, "", ""),
        ("verify", "--main"): (0, "left:  d^-1", ""),
        ("verify", "--signed"): (0, "left:  d^-1", ""),
        ("verify", "--jones"): (2, "", NO_JONES),
    }

    @pytest.mark.parametrize("argv", sorted(EXPECTED), ids=" ".join)
    def test_first_line_and_exit_code(self, capsys, tmp_path, argv):
        path = tmp_path / "empty.txt"
        path.write_text("")
        code, out, err = run(capsys, *argv, str(path))
        first = (out.splitlines() or [""])[0], (err.splitlines() or [""])[0]
        assert (code, *first) == self.EXPECTED[argv]

    def test_verify_keeps_the_bracket_of_no_curves(self, capsys, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        code, out, _ = run(capsys, "verify", "--signed", str(path))
        assert code == 0
        assert out.splitlines()[1:] == ["right: d^-1", "equal: yes (r=0, n=0, k=0)"]


class TestColorable:
    def test_alternating(self, capsys, sample_knot):
        code, out, _ = run(capsys, "colorable", sample_knot)
        assert code == 0 and out.strip() == "colorable; switches: none"

    def test_switched(self, capsys, tmp_path):
        d = parse_diagram(fixtures.SAMPLE_KNOT)
        from vkbr.diagram import apply_switches, format_diagram

        path = tmp_path / "d.txt"
        path.write_text(format_diagram(apply_switches(d, (1,))))
        code, out, _ = run(capsys, "colorable", str(path))
        assert code == 0 and out.strip() == "colorable; switches: 1"

    def test_not_colorable_exits_3(self, capsys, tmp_path):
        path = tmp_path / "vh.txt"
        path.write_text(fixtures.VIRTUAL_HOPF)
        code, out, _ = run(capsys, "colorable", str(path))
        assert code == 3 and out.strip() == "not colorable"


def _switched_closed_braid(n, switched):
    """The closed 2-braid sigma_1^n with the given crossings switched.

    One strand passes crossings 0..n-1 twice (n odd), alternately under
    and over, so every crossing lands in one parity group.
    """
    return format_diagram(apply_switches(parse_diagram(torus_braid(2, n)), switched))


class TestLongStrands:
    """A 4001-crossing single strand once overflowed the recursion limit."""

    N = 4001
    SWITCHED = tuple(range(0, N, 3))

    @pytest.fixture
    def braid(self, tmp_path):
        path = tmp_path / "braid.txt"
        path.write_text(_switched_closed_braid(self.N, self.SWITCHED))
        return str(path)

    def test_colorable(self, capsys, braid):
        code, out, _ = run(capsys, "--json", "colorable", braid)
        assert code == 0
        switches = json.loads(out)["switches"]
        assert switches == list(self.SWITCHED)
        d = parse_diagram(_switched_closed_braid(self.N, self.SWITCHED))
        assert is_alternating(apply_switches(d, switches))

    def test_build_signed(self, capsys, braid):
        code, out, _ = run(capsys, "build-signed", braid)
        assert code == 0
        g = parse_ribbon(out)
        assert (g.vertex_count, g.edge_count) == (2, self.N)
        negative = {i for i, edge in enumerate(g.edges) if edge.sign < 0}
        assert negative == set(self.SWITCHED)


class TestBuildCommands:
    def test_build_ribbon_stdout(self, capsys, sample_knot):
        code, out, _ = run(capsys, "build-ribbon", sample_knot)
        assert code == 0
        g = parse_ribbon(out)
        assert (g.vertex_count, g.edge_count) == (2, 3)
        assert "# crossing 0 e0" in out

    def test_build_ribbon_to_file(self, capsys, sample_knot, tmp_path):
        out_path = tmp_path / "g.txt"
        code, out, _ = run(capsys, "build-ribbon", sample_knot, "-o", str(out_path))
        assert code == 0
        assert f"wrote {out_path}" in out
        g = parse_ribbon(out_path.read_text())
        assert g.edge_count == 3
        assert (tmp_path / "g.txt.map").read_text().splitlines() == [
            "0 e0",
            "1 e1",
            "2 e2",
        ]

    def test_build_signed(self, capsys, tmp_path):
        from vkbr.diagram import apply_switches, format_diagram

        d = apply_switches(parse_diagram(fixtures.SAMPLE_KNOT), (1,))
        path = tmp_path / "d.txt"
        path.write_text(format_diagram(d))
        code, out, _ = run(capsys, "build-signed", str(path))
        assert code == 0
        assert "sign=-" in out
        assert "# switched: 1" in out

    def test_build_ribbon_rejects_non_alternating(self, capsys, tmp_path):
        path = tmp_path / "vh.txt"
        path.write_text(fixtures.VIRTUAL_HOPF)
        code, _, err = run(capsys, "build-ribbon", str(path))
        assert code == 2 and "error" in err

    def test_build_signed_not_colorable_exits_3(self, capsys, tmp_path):
        path = tmp_path / "vh.txt"
        path.write_text(fixtures.VIRTUAL_HOPF)
        code, _, err = run(capsys, "build-signed", str(path))
        assert code == 3 and "error" in err


class TestFreeLoopMemory:
    """The graph commands print a dart-less vertex per free loop, and
    refuse before building them when they would not fit; verify counts
    them instead."""

    @pytest.fixture
    def loops(self, tmp_path):
        path = tmp_path / "loops.txt"
        path.write_text("O 10000\n")
        return str(path)

    @pytest.mark.parametrize("command", ["build-ribbon", "build-signed"])
    def test_refused_past_physical_memory(self, capsys, monkeypatch, loops, command):
        monkeypatch.setattr(limits, "physical_memory", lambda: 10**6)
        code, out, err = run(capsys, command, loops)
        assert (code, out) == (2, "")
        assert err == ("error: ribbon graph of a diagram with 10000 free loops: it needs "
                       "about 3000000 bytes, more than the 1000000 bytes of physical memory\n")

    def test_refused_past_the_address_space_limit(self, capsys, monkeypatch, loops):
        import resource

        monkeypatch.setattr(limits, "physical_memory", lambda: 10**12)
        monkeypatch.setattr(resource, "getrlimit", lambda _: (2 * 10**6, resource.RLIM_INFINITY))
        code, _, err = run(capsys, "build-ribbon", loops)
        assert code == 2 and err.endswith("than the 2000000 bytes of the address-space limit\n")

    def test_built_when_they_fit(self, capsys, loops):
        code, out, _ = run(capsys, "build-ribbon", loops)
        assert code == 0 and parse_ribbon(out).vertex_count == 10000

    def test_verify_counts_them(self, capsys, monkeypatch, loops):
        monkeypatch.setattr(limits, "physical_memory", lambda: 10**6)
        code, out, _ = run(capsys, "--json", "verify", "--signed", loops)
        payload = json.loads(out)
        assert code == 0 and payload["right"] == "d^9999"
        assert payload["stats"] == {"v": 10000, "e": 0, "k": 10000, "r": 0, "n": 0,
                                    "bc": 10000, "genus": 0}


class TestVerify:
    def test_main_mode(self, capsys, sample_knot):
        code, out, _ = run(capsys, "verify", "--main", sample_knot)
        assert code == 0
        assert "equal: yes (r=1, n=2, k=1)" in out

    def test_default_mode_is_main(self, capsys, sample_knot):
        code, out, _ = run(capsys, "verify", sample_knot)
        assert code == 0 and "equal: yes" in out

    def test_signed_mode(self, capsys, tmp_path):
        from vkbr.diagram import apply_switches, format_diagram

        d = apply_switches(parse_diagram(fixtures.SAMPLE_KNOT), (0,))
        path = tmp_path / "d.txt"
        path.write_text(format_diagram(d))
        code, out, _ = run(capsys, "verify", "--signed", str(path))
        assert code == 0
        assert "switched: 0" in out

    def test_jones_mode(self, capsys, sample_knot):
        code, out, _ = run(capsys, "verify", "--jones", sample_knot)
        assert code == 0
        assert "left:  1" in out and "right: 1" in out

    def test_main_mode_rejects_non_alternating(self, capsys, tmp_path):
        path = tmp_path / "vh.txt"
        path.write_text(fixtures.VIRTUAL_HOPF)
        code, _, err = run(capsys, "verify", "--main", str(path))
        assert code == 2 and "alternate" in err

    def test_signed_mode_not_colorable_exits_3(self, capsys, tmp_path):
        path = tmp_path / "vh.txt"
        path.write_text(fixtures.VIRTUAL_HOPF)
        code, _, _ = run(capsys, "verify", "--signed", str(path))
        assert code == 3


class TestRandom:
    def test_deterministic(self, capsys):
        code1, out1, _ = run(capsys, "random", "-n", "5", "--seed", "9")
        code2, out2, _ = run(capsys, "random", "-n", "5", "--seed", "9")
        assert code1 == code2 == 0 and out1 == out2
        assert len(parse_diagram(out1).crossings) == 5

    def test_alternating_flag(self, capsys):
        from vkbr.diagram import is_alternating

        _, out, _ = run(capsys, "random", "-n", "6", "--seed", "2", "--alternating")
        assert is_alternating(parse_diagram(out))

    def test_crossing_free(self, capsys):
        _, out, _ = run(capsys, "random", "-n", "0", "--seed", "0")
        assert out.strip() == "O 1"

    def test_out_of_range_is_an_input_error(self, capsys):
        code, _, err = run(capsys, "random", "-n", "99", "--seed", "0")
        assert code == 2 and "error" in err


class TestJson:
    def test_bracket_payload(self, capsys, sample_knot):
        code, out, _ = run(capsys, "--json", "bracket", sample_knot)
        assert code == 0
        payload = json.loads(out)
        assert payload["command"] == "bracket"
        assert payload["bracket"].startswith("A^3")

    def test_build_payload_lists_map(self, capsys, sample_knot):
        _, out, _ = run(capsys, "--json", "build-ribbon", sample_knot)
        payload = json.loads(out)
        assert payload["map"] == {"0": "e0", "1": "e1", "2": "e2"}
        assert parse_ribbon(payload["graph"]).edge_count == 3

    def test_output_is_byte_stable(self, capsys, sample_knot):
        _, out1, _ = run(capsys, "--json", "verify", sample_knot)
        _, out2, _ = run(capsys, "--json", "verify", sample_knot)
        assert out1 == out2


class TestErrorsAndSelftest:
    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "bracket", "/nonexistent/path.txt")
        assert code == 2 and "error" in err

    def test_garbage_diagram(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("X a b o=1\n")
        code, _, err = run(capsys, "bracket", str(path))
        assert code == 2 and "line 1" in err

    def test_non_ascii_loop_count_names_its_line(self, capsys, tmp_path):
        # str.isdigit accepts superscript digits, which int() refuses.
        path = tmp_path / "bad.txt"
        path.write_text("X a b b a o=1\nO \u00b2\n")
        code, out, err = run(capsys, "jones", str(path))
        assert (code, out) == (2, "")
        assert err == "error: line 2: O needs one nonnegative integer, got 'O \u00b2'\n"

    def test_unexpected_exception_exits_4_in_one_line(self, capsys, monkeypatch, sample_knot):
        def broken(_):
            raise RuntimeError("boom\nsecond line")

        monkeypatch.setattr(vkbr.cli, "kauffman_bracket", broken)
        code, out, err = run(capsys, "bracket", sample_knot)
        assert (code, out) == (4, "")
        assert err.startswith("error: internal: ") and "boom" in err
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_cap_names_the_computation(self, capsys, monkeypatch, tmp_path):
        # No command sweeps, so the refusal names what was asked for.
        monkeypatch.delenv("VKBR_MAX_CROSSINGS", raising=False)
        darts = [f"a{i}" for i in range(50)]
        path = tmp_path / "loops.txt"
        path.write_text(f"V u : {' '.join(darts)}\n" + "".join(
            f"E e{i} : {darts[2 * i]} {darts[2 * i + 1]}\n" for i in range(25)))
        code, out, err = run(capsys, "br-poly", str(path))
        assert (code, out) == (2, "")
        assert "rank polynomial of a 25-edge ribbon graph" in err
        assert "sweep" not in err

    def test_cap_names_the_jones_polynomial(self, capsys, monkeypatch, tmp_path):
        # Both Jones routes refuse T(2,25) as a Jones computation, not a bracket.
        monkeypatch.delenv("VKBR_MAX_CROSSINGS", raising=False)
        path = tmp_path / "t225.txt"
        path.write_text(torus_braid(2, 25))
        for argv in (["jones"], ["verify", "--jones"]):
            code, out, err = run(capsys, *argv, str(path))
            assert (code, out) == (2, "")
            assert "Jones polynomial of a 25-crossing diagram" in err
            assert "bracket" not in err
        g, _ = build_signed(parse_diagram(torus_braid(2, 25)))
        with pytest.raises(limits.SizeLimitError, match="^Jones polynomial of a 25-edge ribbon"):
            verify.jones_from_graph(g, 25)

    def test_selftest_passes(self, capsys):
        code, out, _ = run(capsys, "selftest")
        assert code == 0
        assert "checks passed" in out
        assert "FAIL" not in out

    def test_selftest_json(self, capsys):
        code, out, _ = run(capsys, "--json", "selftest")
        payload = json.loads(out)
        assert code == 0 and payload["ok"] is True
        assert all(item["ok"] for item in payload["results"])

    def test_selftest_sees_a_wrong_edge_sign(self, capsys, monkeypatch):
        # A graph side that counts every edge as positive agrees on every
        # fixture's graph, which has none negative; the switched trefoil's
        # graph has one.
        plan = verify._identity_plan

        def ignore_signs(g, what):
            mate, steps, _, bare = plan(g, what)
            return mate, [1] * len(steps), 0, bare

        monkeypatch.setattr(verify, "_identity_plan", ignore_signs)
        code, out, _ = run(capsys, "selftest")
        assert code == 1
        assert "switched-trefoil: graph side equals substituted rank polynomial: FAIL" in out
        assert "switched-trefoil: signed identity: FAIL" in out

    def test_selftest_reports_a_check_that_raises(self, capsys, monkeypatch):
        # A kernel fault: a chosen join that closes 2 or more loops counts
        # one more.  The positive kink's bracket then has no inverse at
        # the Jones point, so jones_via_bracket raises; that check fails
        # on its own line, the others still run, and selftest exits 1.
        add_kernel_fault(monkeypatch)
        code, out, err = run(capsys, "selftest")
        lines = out.splitlines()
        assert (code, err) == (1, "")
        assert len(lines) == 55 and lines[-1].endswith("/54 checks passed")
        assert "trefoil: frontier route equals traces: FAIL" in lines
        assert "trefoil: other colour's graph gives the bracket with A and B swapped: FAIL" in lines
        assert ("positive-kink: Jones at its point equals substituted bracket: FAIL "
                "(PolyError: power -1 of a 2-term polynomial is not a Laurent polynomial)") in lines
        code, out, _ = run(capsys, "--json", "selftest")
        results = json.loads(out)["results"]
        assert code == 1 and len(results) == 54
        # verify's point check fails the identity lines of the fixtures
        # whose brackets the fault changes at A = B = 1, d = -2.
        errors = [item["error"] for item in results if "error" in item]
        assert [error for error in errors if not error.startswith("RuntimeError: point check")] == [
            "PolyError: power -1 of a 2-term polynomial is not a Laurent polynomial"
        ]

    def test_selftest_size_limit_exits_2(self, capsys, monkeypatch):
        # A refused size is no fault of a check: it ends the run as on any
        # command.  The trefoil's state table is past a cap of 2.
        monkeypatch.setenv("VKBR_MAX_CROSSINGS", "2")
        code, out, err = run(capsys, "selftest")
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "3-crossing" in err


def _help_block(lines):
    return "".join(line + "\n" for line in lines)


def _file_help(command, kind):
    return _help_block([
        f"usage: vkbr {command} [-h] file",
        "",
        "positional arguments:",
        f"  file        {kind} file, or - for stdin",
        "",
        "options:",
        "  -h, --help  show this help message and exit",
    ])


def _build_help(command):
    return _help_block([
        f"usage: vkbr {command} [-h] [-o OUTPUT] file",
        "",
        "positional arguments:",
        "  file                  diagram file, or - for stdin",
        "",
        "options:",
        "  -h, --help            show this help message and exit",
        "  -o OUTPUT, --output OUTPUT",
        "                        write the graph here and the crossing map to",
        "                        OUTPUT.map",
    ])


COMMAND_LIST = (
    "{bracket,jones,colorable,build-ribbon,build-signed,br-poly,tutte,genus,verify,random,selftest}"
)

# argv before --help -> the help text, as argparse prints it 80 columns wide.
HELP = {
    (): _help_block([
        "usage: vkbr [-h] [--json]",
        f"            {COMMAND_LIST}",
        "            ...",
        "",
        "Bracket and Jones polynomials of virtual link diagrams, their ribbon graphs,",
        "rank polynomials, and identity checks.",
        "",
        "positional arguments:",
        f"  {COMMAND_LIST}",
        "    bracket             Kauffman bracket of a diagram",
        "    jones               Jones polynomial of a diagram",
        "    colorable           report the switch set making a diagram alternate",
        "    build-ribbon        ribbon graph of an alternating diagram",
        "    build-signed        signed ribbon graph of a colorable diagram",
        "    br-poly             rank polynomial of a ribbon graph",
        "    tutte               Tutte polynomial of the underlying graph",
        "    genus               genus of a ribbon graph",
        "    verify              check a bracket or Jones identity both ways",
        "    random              generate a seeded random diagram",
        "    selftest            run the bundled examples end to end",
        "",
        "options:",
        "  -h, --help            show this help message and exit",
        "  --json                emit a JSON report instead of text",
    ]),
    ("bracket",): _file_help("bracket", "diagram"),
    ("jones",): _file_help("jones", "diagram"),
    ("colorable",): _file_help("colorable", "diagram"),
    ("build-ribbon",): _build_help("build-ribbon"),
    ("build-signed",): _build_help("build-signed"),
    ("br-poly",): _help_block([
        "usage: vkbr br-poly [-h] [--signed] file",
        "",
        "positional arguments:",
        "  file        ribbon graph file, or - for stdin",
        "",
        "options:",
        "  -h, --help  show this help message and exit",
        "  --signed    use the edge signs",
    ]),
    ("tutte",): _file_help("tutte", "ribbon graph"),
    ("genus",): _file_help("genus", "ribbon graph"),
    ("verify",): _help_block([
        "usage: vkbr verify [-h] [--main | --signed | --jones] file",
        "",
        "positional arguments:",
        "  file        diagram file, or - for stdin",
        "",
        "options:",
        "  -h, --help  show this help message and exit",
        "  --main      unsigned bracket identity (default)",
        "  --signed    signed bracket identity",
        "  --jones     Jones assembly identity",
    ]),
    ("random",): _help_block([
        "usage: vkbr random [-h] -n N --seed SEED [--alternating | --colorable]",
        "",
        "options:",
        "  -h, --help     show this help message and exit",
        "  -n N           crossings, 0..12",
        "  --seed SEED",
        "  --alternating",
        "  --colorable",
    ]),
    ("selftest",): _help_block([
        "usage: vkbr selftest [-h]",
        "",
        "options:",
        "  -h, --help  show this help message and exit",
    ]),
}
if sys.version_info >= (3, 13):
    # 3.13 keeps "{...} ..." on one usage line, and prints an option that
    # takes a value as "-o, --output OUTPUT", in narrower columns.
    HELP[()] = HELP[()].replace(f"{COMMAND_LIST}\n            ...\n", f"{COMMAND_LIST} ...\n")
    for command in ("build-ribbon", "build-signed"):
        HELP[command,] = _help_block([
            f"usage: vkbr {command} [-h] [-o OUTPUT] file",
            "",
            "positional arguments:",
            "  file                 diagram file, or - for stdin",
            "",
            "options:",
            "  -h, --help           show this help message and exit",
            "  -o, --output OUTPUT  write the graph here and the crossing map to OUTPUT.map",
        ])


def call(capsys, monkeypatch, argv, stdin=""):
    """(exit code, stdout, stderr) of one main call, argparse's exits included."""
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestHelpText:
    """The help of vkbr and of each command, byte for byte.  Python 3.10
    heads the options "optional arguments:", which reads here as 3.11's
    "options:", and HELP holds 3.13's own text where it differs."""

    @pytest.mark.parametrize("argv", sorted(HELP), ids=lambda argv: " ".join(argv) or "vkbr")
    def test_help(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("COLUMNS", "80")
        code, out, err = call(capsys, monkeypatch, [*argv, "--help"])
        assert (code, err) == (0, "")
        assert out.replace("optional arguments:", "options:") == HELP[argv]

    def test_every_command_has_its_help(self):
        commands = {argv[0] for argv in HELP if argv}
        assert commands == set(COMMAND_LIST.strip("{}").split(","))


def _same_output_tool():
    path = Path(__file__).resolve().parents[1] / "tools" / "same_output.py"
    spec = importlib.util.spec_from_file_location("same_output", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def _named_parser_corpus():
    """Every command in use, with and without --json; each with -h, with
    --json and -h and with a missing file; same_output's malformed argv;
    -- before a command; -h after the file; two command words; and option
    prefixes."""
    tool = _same_output_tool()
    commands = [*tool.DIAGRAM_COMMANDS, *tool.GRAPH_COMMANDS,
                ["build-ribbon", "-o", "out.txt"], ["build-signed", "-o", "out.txt"]]
    calls = [[*command, "-"] for command in commands] + [["selftest"]]
    calls += [["random", "-n", "3", "--seed", "1", *flag]
              for flag in ([], ["--alternating"], ["--colorable"])]
    calls += [["--json", *argv] for argv in calls]
    for name in _COMMANDS:
        calls += [[name, "-h"], ["--json", name, "-h"], [name, "missing.txt"]]
    calls += [list(argv) for argv in tool.BAD_ARGV]
    return calls + [["--json", "--", "verify", "-"], ["verify", "-", "-h"],
                    ["verify", "genus", "-h"], ["verify", "--sig", "-"], ["br-poly", "--s", "-"]]


class TestNamedParser:
    """main gives arguments only to the command argv names; on every argv
    that parser reads what the parser with every command's arguments reads."""

    @pytest.mark.parametrize("argv", _named_parser_corpus(), ids=lambda argv: " ".join(argv))
    def test_same_namespace_or_same_exit(self, capsys, argv):
        results = []
        for named in (_named_command(argv), None):
            try:
                results.append(_build_parser(named).parse_args(argv))
            except SystemExit as exc:
                captured = capsys.readouterr()
                results.append((exc.code, captured.out, captured.err))
        assert results[0] == results[1]

    @pytest.mark.parametrize("argv, named", [
        (["--json", "--", "verify", "-"], "verify"),
        (["-h", "random"], "random"),
        (["bracket", "genus"], "bracket"),
        (["--help"], None),
        (["nonsense", "bracket"], None),
        ([], None),
    ])
    def test_the_named_command(self, argv, named):
        assert _named_command(argv) == named

    def test_other_commands_take_no_arguments(self, capsys):
        with pytest.raises(SystemExit):
            _build_parser("bracket").parse_args(["jones", "knot.txt"])
        assert capsys.readouterr().err.endswith("error: unrecognized arguments: knot.txt\n")
        # Nor their own -h, while the named and the full parser print the
        # same help for each command.
        for b in _COMMANDS:
            for a in _COMMANDS.keys() - {b}:
                with pytest.raises(SystemExit) as exc:
                    _build_parser(a).parse_args([b, "-h"])
                err = capsys.readouterr().err
                assert exc.value.code == 2 and err.endswith("error: unrecognized arguments: -h\n")
            helps = []
            for named in (b, None):
                with pytest.raises(SystemExit) as exc:
                    _build_parser(named).parse_args([b, "-h"])
                helps.append((exc.value.code, capsys.readouterr()))
            assert helps[0] == helps[1] and helps[0][0] == 0 and helps[0][1].out


def test_main_repeats_itself_in_one_process(capsys, monkeypatch, tmp_path):
    """Every command twice, interleaved with the others in one process,
    gives the same exit code, stdout and stderr both times."""
    switched = format_diagram(apply_switches(parse_diagram(fixtures.SAMPLE_KNOT), (1,)))
    calls = [(argv, stdin) for argv, stdin, _ in production_calls(switched)]
    calls += [(["--json", *argv], stdin) for argv, stdin in calls]
    calls += [
        (["build-ribbon", "-o", str(tmp_path / "g.txt"), "-"], fixtures.SAMPLE_KNOT),
        (["verify", "-"], fixtures.SAMPLE_KNOT),
        (["random", "-n", "5", "--seed", "3", "--colorable"], ""),
        (["random", "-n", "99", "--seed", "3"], ""),
        (["selftest"], ""),
        (["bracket", "-"], "X a b\n"),
        (["br-poly", "-"], "V u : a1\n"),
        (["verify", "--main", "--jones", "-"], ""),
        (["build-signed", "-"], fixtures.VIRTUAL_HOPF),
        (["nonsense"], ""),
    ]
    rounds = [[call(capsys, monkeypatch, argv, stdin) for argv, stdin in calls]
              for _ in range(2)]
    assert rounds[0] == rounds[1]
    assert {code for code, _, _ in rounds[0]} == {0, 2, 3}


PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def child_env(bin_dir=None):
    """Environment for a child that runs the vkbr tree this suite imported.

    The directory holding that ``vkbr`` package goes first on ``PYTHONPATH``,
    and ``bin_dir``, if given, first on ``PATH``.
    """
    env = dict(os.environ)
    src = str(Path(vkbr.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    if bin_dir is not None:
        env["PATH"] = os.pathsep.join(filter(None, [str(bin_dir), env.get("PATH")]))
    return env


def write_console_scripts(bin_dir):
    """Write the launcher for each ``[project.scripts]`` entry into ``bin_dir``.

    Each ``name = "module:attr"`` becomes an executable ``name``, as an
    installer writes it: it imports ``attr`` from ``module`` with this
    interpreter and exits with what ``attr()`` returns.  The declared entry
    points thus run without installing the project.
    """
    tomllib = pytest.importorskip("tomllib")
    with PYPROJECT.open("rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    bin_dir.mkdir()
    for name, target in scripts.items():
        module, _, attr = target.partition(":")
        launcher = bin_dir / name
        launcher.write_text(
            f"#!{sys.executable}\n"
            "import sys\n"
            f"from {module} import {attr}\n"
            f"sys.exit({attr}())\n"
        )
        launcher.chmod(0o755)


class TestInstalledEntryPoint:
    def test_console_script_runs(self, tmp_path):
        bin_dir = tmp_path / "bin"
        write_console_scripts(bin_dir)
        path = tmp_path / "knot.txt"
        path.write_text(fixtures.SAMPLE_KNOT)
        proc = subprocess.run(
            ["vkbr", "jones", str(path)],
            capture_output=True,
            text=True,
            env=child_env(bin_dir),
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == "1"

    def test_module_invocation(self, tmp_path):
        path = tmp_path / "knot.txt"
        path.write_text(fixtures.SAMPLE_KNOT)
        proc = subprocess.run(
            [sys.executable, "-m", "vkbr.cli", "--json", "bracket", str(path)],
            capture_output=True,
            text=True,
            env=child_env(),
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["command"] == "bracket"


def test_closed_stdout_exits_141_without_a_traceback():
    """A reader that stops after one line of a long graph ends the run
    with 128 + SIGPIPE, as a shell reports it, and nothing on stderr."""
    with subprocess.Popen(
        [sys.executable, "-m", "vkbr.cli", "build-signed", "-"],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=child_env(),
    ) as proc:
        proc.stdin.write(b"O 200000\n")
        proc.stdin.close()
        assert proc.stdout.readline() == b"V v0 :\n"
        proc.stdout.close()
        code = proc.wait(timeout=60)
        assert (code, proc.stderr.read()) == (141, b"")


def test_no_stdout_at_all_is_not_an_error():
    """Started with descriptor 1 closed, Python has no sys.stdout, print
    writes nothing, and the run succeeds."""
    proc = subprocess.run(
        ["/bin/sh", "-c", '"$0" -m vkbr.cli random -n 3 --seed 1 >&-', sys.executable],
        stderr=subprocess.PIPE,
        env=child_env(),
    )
    assert (proc.returncode, proc.stderr) == (0, b"")


@pytest.mark.parametrize("argv", [["bracket", "-"], ["--json", "genus", "-"]])
def test_closed_stdin_is_an_input_error(capsys, monkeypatch, argv):
    """Started with descriptor 0 closed, Python has no sys.stdin, and a
    command that reads "-" exits 2 with one error line."""
    monkeypatch.setattr(sys, "stdin", None)
    assert run(capsys, *argv) == (2, "", "error: standard input is closed\n")


# The exit-code contract under token-level mutations of the fixtures, of
# random diagrams and of their graphs, each run through every command
# form that reads a file, in text and with --json.
FORMS = [argv for argv, _, _ in production_calls(fixtures.SAMPLE_KNOT)]
FORMS += [["--json", *argv] for argv in FORMS]
_DIAGRAMS = list(fixtures.DIAGRAMS.values()) + [
    format_diagram(random_diagram(n, 0, kind)) for kind in KINDS for n in range(1, 7)
]
MUTATION_BASES = _DIAGRAMS + [fixtures.SAMPLE_RIBBON] + [
    format_ribbon(build_signed(d)[0])
    for d in map(parse_diagram, _DIAGRAMS) if find_switch_set(d) is not None
]
STRAYS = ["o=0", "o=2", "o=3", "o=", "o=x", "O", "X", "V", "E", ":", "sign=-", "sign=x",
          "-1", "\n", "9" * 20, "9" * 5000]


def mutate(text, edits, cut, bad):
    """text with each (edit, i, j, stray) of edits applied to its tokens,
    newlines counted as tokens, then cut to its first cut bytes and bad
    bytes put in at a position, where cut and bad are not None."""
    tokens = re.findall(r"\S+|\n", text)
    for edit, i, j, stray in edits:
        if not tokens:
            break
        i, j = i % len(tokens), j % len(tokens)
        if edit == "delete":
            del tokens[i]
        elif edit == "duplicate":
            tokens.insert(i, tokens[i])
        elif edit == "swap":
            tokens[i], tokens[j] = tokens[j], tokens[i]
        else:
            tokens[i] = stray
    data = re.sub(r" ?\n ?", "\n", " ".join(tokens)).encode()
    if cut is not None:
        data = data[:cut % (len(data) + 1)]
    if bad is not None:
        at, byte = bad[0] % (len(data) + 1), bad[1]
        data = data[:at] + byte + data[at:]
    return data


def run_in_process(argv, data):
    """(exit code, stdout, stderr) of main on argv with data on a UTF-8
    standard input."""
    out, err = io.StringIO(), io.StringIO()
    stdin = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")
    with mock.patch.object(sys, "stdin", stdin), redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=80, deadline=None)
@given(
    base=st.sampled_from(MUTATION_BASES),
    edits=st.lists(st.tuples(st.sampled_from(["delete", "duplicate", "swap", "stray"]),
                             st.integers(0, 1 << 16), st.integers(0, 1 << 16),
                             st.sampled_from(STRAYS)), max_size=4),
    cut=st.none() | st.integers(0, 1 << 16),
    bad=st.none() | st.tuples(st.integers(0, 1 << 16),
                              st.sampled_from([b"\xff", b"\xc3", b"\x80"])),
)
def test_mutated_input_keeps_the_exit_code_contract(base, edits, cut, bad):
    """main returns 0, 2 or 3, and 1 only from verify.  Exit 2 or 3 comes
    with exactly one error line on stderr, except colorable's answer "not
    colorable", which goes to stdout."""
    data = mutate(base, edits, cut, bad)
    for argv in FORMS:
        code, out, err = run_in_process(argv, data)
        command = argv[argv[0] == "--json"]
        assert code in ((0, 1, 2, 3) if command == "verify" else (0, 2, 3)), (argv, data, err)
        if code == 3 and command == "colorable":
            assert err == "" and out.rstrip() in (
                "not colorable", '{"colorable": false, "command": "colorable"}')
        elif code in (2, 3):
            assert err.startswith("error: ") and err.count("\n") == 1, (argv, data, err)


class TestStartup:
    """Importing the command line leaves numpy unloaded: its import alone
    would take about 150 ms of a call.  vkbr has no dependencies, and
    tests/test_imports.py finds no import of numpy in any of its modules,
    so no command can load it either."""

    def test_import_leaves_numpy_unloaded(self):
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, vkbr.cli; print('numpy' in sys.modules)"],
            capture_output=True,
            text=True,
            env=child_env(),
        )
        assert proc.returncode == 0 and proc.stdout.strip() == "False"


class TestSameOutput:
    """tools/same_output.py, on a small corpus: the checkout against itself,
    and against a copy whose one help text differs."""

    TOOL = Path(__file__).resolve().parents[1] / "tools" / "same_output.py"
    SRC = Path(vkbr.__file__).resolve().parent.parent

    def same_output(self, old):
        argv = [sys.executable, str(self.TOOL), "--old", str(old), "--new", str(self.SRC),
                "--max-n", "2", "--seeds", "1"]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=300)
        return proc.returncode, proc.stdout.splitlines(), proc.stderr

    def test_the_checkout_matches_itself(self):
        code, lines, err = self.same_output(self.SRC)
        assert (code, err) == (0, "")
        assert lines[-1].endswith(" calls, 0 differ") and len(lines) == 1

    def test_a_changed_help_text_is_reported(self, tmp_path):
        copy = tmp_path / "src" / "vkbr"
        shutil.copytree(self.SRC / "vkbr", copy, ignore=shutil.ignore_patterns("__pycache__"))
        cli = copy / "cli.py"
        cli.write_text(cli.read_text().replace('"genus of a ribbon graph"', '"genus"'))
        code, lines, _ = self.same_output(copy.parent)
        assert code == 1 and lines[-1].endswith(" calls, 1 differ")
        assert json.loads(lines[0])["argv"] == ["--help"]
