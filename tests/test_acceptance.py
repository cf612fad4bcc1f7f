"""End-to-end acceptance checks, one per shipped guarantee.

Each check is an ordinary pytest test; running this file directly prints
one PASS or FAIL line per check instead:

    python tests/test_acceptance.py
"""

import contextlib
import io
import itertools
import json
import os
import random
import sys
import tempfile

sys.path.insert(0, os.path.dirname(__file__))

from helpers import end_vertices, random_ribbon, tutte_whitney
from vkbr import diagram, fixtures
from vkbr.build import build_ribbon, build_signed, find_switch_set
from vkbr.cli import main as cli_main
from vkbr.diagram import (
    BRACKET_VARS,
    apply_switches,
    is_alternating,
    jones,
    kauffman_bracket,
    parse_diagram,
    split_stats,
    state_table,
    writhe,
)
from vkbr.laurent import parse_poly
from vkbr.randgen import random_diagram
from vkbr.ribbon import (
    BR_VARS,
    br_poly,
    genus,
    parse_ribbon,
    subgraph_stats,
    tutte_via_br,
)
from vkbr.verify import (
    bracket_from_graph,
    jones_via_tutte,
    verify_jones,
    verify_main,
    verify_signed,
)

CHECKS = []


def criterion(fn):
    CHECKS.append(fn)
    return fn


def _run_cli(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli_main(list(argv))
    return code, out.getvalue()


@contextlib.contextmanager
def _as_file(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input.txt")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        yield path


@criterion
def test_sample_knot_bracket_command_gives_the_pinned_value():
    with _as_file(fixtures.SAMPLE_KNOT) as path:
        code, out = _run_cli("bracket", path)
    assert code == 0
    assert out.strip() == "A^3 + 3*A^2*B*d + A*B^2*d^2 + 2*A*B^2 + B^3*d"
    reordered = "A^3 + 3*A^2*B*d + 2*A*B^2 + A*B^2*d^2 + B^3*d"
    assert parse_poly(out.strip(), BRACKET_VARS) == parse_poly(reordered, BRACKET_VARS)


@criterion
def test_sample_knot_jones_command_gives_one_pinning_the_writhe():
    with _as_file(fixtures.SAMPLE_KNOT) as path:
        code, out = _run_cli("jones", path)
    assert code == 0 and out.strip() == "1"
    assert writhe(parse_diagram(fixtures.SAMPLE_KNOT)) == 1


@criterion
def test_sample_knot_state_table_multiset():
    # ((alpha, delta), count) over the states; beta is 3 - alpha.
    rows = diagram._trace_rows(parse_diagram(fixtures.SAMPLE_KNOT))
    assert rows == [((0, 2), 1), ((1, 1), 2), ((1, 3), 1), ((2, 2), 3), ((3, 1), 1)]


@criterion
def test_sample_ribbon_rank_polynomial_and_subgraph_rows():
    with _as_file(fixtures.SAMPLE_RIBBON) as path:
        code, out = _run_cli("br-poly", path)
    assert code == 0
    assert out.strip() == "x*y + x + y^2*z^2 + 3*y + 2"
    reordered = "y^2*z^2 + 3*y + 2 + x*y + x"
    assert parse_poly(out.strip(), BR_VARS) == parse_poly(reordered, BR_VARS)
    g = parse_ribbon(fixtures.SAMPLE_RIBBON)
    rows = {
        subset: (s.k, s.r, s.n, s.bc)
        for subset in range(8)
        for s in [subgraph_stats(g, subset)]
    }
    assert rows == {
        0b000: (2, 0, 0, 2),
        0b001: (1, 1, 0, 1),
        0b010: (1, 1, 0, 1),
        0b011: (1, 1, 1, 2),
        0b100: (2, 0, 1, 3),
        0b101: (1, 1, 1, 2),
        0b110: (1, 1, 1, 2),
        0b111: (1, 1, 2, 1),
    }


@criterion
def test_bracket_identity_verifies_on_the_sample_knot_with_its_prefactor():
    report = verify_main(parse_diagram(fixtures.SAMPLE_KNOT))
    assert report.equal
    assert (report.r, report.n, report.k) == (1, 2, 1)
    with _as_file(fixtures.SAMPLE_KNOT) as path:
        code, out = _run_cli("--json", "verify", "--main", path)
    payload = json.loads(out)
    assert code == 0 and payload["equal"] is True
    assert (payload["r"], payload["n"], payload["k"]) == (1, 2, 1)


@criterion
def test_bracket_identity_verifies_on_200_random_alternating_diagrams():
    for seed in range(200):
        d = random_diagram(1 + seed % 8, seed, kind="alternating")
        assert verify_main(d).equal, f"seed {seed}"


@criterion
def test_signed_identity_verifies_on_200_random_colorable_diagrams():
    for seed in range(200):
        d = random_diagram(1 + seed % 8, seed, kind="colorable")
        assert verify_signed(d).equal, f"seed {seed}"
    checked = 0
    for seed in range(1000):
        if checked == 20:
            break
        d = random_diagram(4 + seed % 2, seed, kind="colorable")
        n = len(d.crossings)
        valid = [
            combo
            for size in range(n + 1)
            for combo in itertools.combinations(range(n), size)
            if is_alternating(apply_switches(d, combo))
        ]
        if len(valid) < 2:
            continue
        checked += 1
        bracket = kauffman_bracket(d)
        for combo in valid:
            g, _ = build_signed(d, switches=combo)
            assert bracket_from_graph(g) == bracket, (seed, combo)
    assert checked == 20


@criterion
def test_jones_routes_agree_on_200_random_colorable_diagrams():
    for seed in range(200):
        d = random_diagram(1 + seed % 8, seed, kind="colorable")
        assert verify_jones(d).equal, f"seed {seed}"
    planar = 0
    for seed in range(200):
        d = random_diagram(1 + seed % 8, seed, kind="alternating")
        g = build_ribbon(d)
        if genus(g) != 0:
            continue
        planar += 1
        assert jones_via_tutte(g, writhe(d)) == jones(d), f"seed {seed}"
    assert planar >= 20


@criterion
def test_structural_invariants_hold_across_generated_objects():
    rng = random.Random(99)
    for seed in range(30):
        d = random_diagram(1 + seed % 8, seed, kind="any")
        n = len(d.crossings)
        for st in state_table(d):
            assert st.alpha + st.beta == n
        terms = kauffman_bracket(d).terms()
        assert all(ea + eb == n for (ea, eb, _), _ in terms)
        assert sum(coeff for _, coeff in terms) == 2**n
    for _ in range(30):
        g = random_ribbon(rng, rng.randint(1, 4), rng.randint(0, 7))
        for subset in range(1 << g.edge_count):
            s = subgraph_stats(g, subset)
            assert s.k + s.r == g.vertex_count
            assert s.r + s.n == bin(subset).count("1")
            assert (s.k - s.bc + s.n) >= 0
            assert (s.k - s.bc + s.n) % 2 == 0
        if genus(g) == 0:
            assert all(c == 0 for (_, _, c), _ in br_poly(g).terms())
    checked_ten = False
    for _ in range(8):
        edges = rng.randint(3, 10)
        g = random_ribbon(rng, rng.randint(1, 4), edges)
        checked_ten = checked_ten or edges == 10
        assert tutte_via_br(g) == tutte_whitney(g.vertex_count, end_vertices(g))
    if not checked_ten:
        g = random_ribbon(rng, 3, 10)
        assert tutte_via_br(g) == tutte_whitney(g.vertex_count, end_vertices(g))
    rng = random.Random(13)
    for _ in range(15):
        g = random_ribbon(rng, rng.randint(1, 4), rng.randint(0, 6))
        assert tutte_via_br(g) == tutte_whitney(g.vertex_count, end_vertices(g))


@criterion
def test_state_subgraph_bijection_is_exhaustive_up_to_ten_crossings():
    texts = [fixtures.NEGATIVE_KINK, fixtures.POSITIVE_KINK, fixtures.TREFOIL,
             fixtures.HOPF_LINK, fixtures.SAMPLE_KNOT]
    diagrams = [parse_diagram(text) for text in texts]
    diagrams += [random_diagram(n, n, kind="alternating") for n in range(1, 11)]
    diagrams += [random_diagram(6, seed, kind="alternating") for seed in range(15)]
    for d in diagrams:
        g = build_ribbon(d)
        n = len(d.crossings)
        full = (1 << n) - 1
        assert g.vertex_count == split_stats(d, full).delta
        for state in range(1 << n):
            kept = full & ~state
            st = split_stats(d, state)
            stats = subgraph_stats(g, kept)
            assert st.delta == stats.bc
            assert st.alpha == bin(kept).count("1")


@criterion
def test_colorability_verdicts_on_the_bundled_diagrams():
    assert find_switch_set(parse_diagram(fixtures.VIRTUAL_HOPF)) is None
    assert find_switch_set(parse_diagram(fixtures.SAMPLE_KNOT)) == ()
    with _as_file(fixtures.VIRTUAL_HOPF) as path:
        code, out = _run_cli("colorable", path)
    assert code == 3 and out.strip() == "not colorable"
    with _as_file(fixtures.SAMPLE_KNOT) as path:
        code, out = _run_cli("colorable", path)
    assert code == 0 and out.strip() == "colorable; switches: none"


if __name__ == "__main__":
    failures = 0
    for check in CHECKS:
        label = check.__name__.removeprefix("test_").replace("_", " ")
        try:
            check()
        except Exception as exc:  # noqa: BLE001 - report and continue
            failures += 1
            print(f"FAIL: {label} ({exc})")
        else:
            print(f"PASS: {label}")
    print(f"{len(CHECKS) - failures}/{len(CHECKS)} acceptance checks passed")
    sys.exit(1 if failures else 0)
