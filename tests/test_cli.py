"""Command line behavior: outputs, exit codes, JSON reports, files."""

import io
import json
import subprocess
import sys

import pytest

from vkbr import fixtures
from vkbr.cli import main
from vkbr.diagram import apply_switches, format_diagram, is_alternating, parse_diagram
from vkbr.ribbon import parse_ribbon, tutte_via_br


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
    def test_bracket(self, capsys, sample_knot):
        code, out, _ = run(capsys, "bracket", sample_knot)
        assert code == 0
        assert out.strip() == "A^3 + 3*A^2*B*d + A*B^2*d^2 + 2*A*B^2 + B^3*d"

    def test_jones(self, capsys, sample_knot):
        code, out, _ = run(capsys, "jones", sample_knot)
        assert code == 0 and out.strip() == "1"

    def test_stdin_dash(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO(fixtures.NEGATIVE_KINK))
        code, out, _ = run(capsys, "bracket", "-")
        assert code == 0 and out.strip() == "A + B*d"

    def test_br_poly(self, capsys, sample_ribbon):
        code, out, _ = run(capsys, "br-poly", sample_ribbon)
        assert code == 0 and out.strip() == "x*y + x + y^2*z^2 + 3*y + 2"

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
    text = "".join(
        f"X w{(c - 1) % n} u{(c - 1) % n} u{c} w{c} o=1\n" for c in range(n)
    )
    return format_diagram(apply_switches(parse_diagram(text), switched))


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

    def test_verify_payload_carries_stats(self, capsys, sample_knot):
        _, out, _ = run(capsys, "--json", "verify", "--jones", sample_knot)
        payload = json.loads(out)
        assert payload["equal"] is True
        assert payload["stats"] == {
            "v": 2, "e": 3, "k": 1, "r": 1, "n": 2, "bc": 1, "genus": 1,
        }

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


class TestInstalledEntryPoint:
    def test_console_script_runs(self, tmp_path):
        path = tmp_path / "knot.txt"
        path.write_text(fixtures.SAMPLE_KNOT)
        proc = subprocess.run(
            ["vkbr", "jones", str(path)], capture_output=True, text=True
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
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["command"] == "bracket"
