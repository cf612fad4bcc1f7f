"""Run one corpus of command lines through vkbr.cli.main under two source
trees and print every call whose exit code, stdout or stderr differ.

Run from the root of a checkout, against another checkout of the same
repository (a `git worktree` of the parent commit, say):

    python3 tools/same_output.py --old ../parent/src --new src

Each tree runs the whole corpus in one child process, which imports
`vkbr` from that tree alone, with COLUMNS=80 so that help text wraps the
same way, and with VKBR_MAX_CROSSINGS unset.  The corpus is every
subcommand, in text and with --json, on every bundled fixture, on the
torus knot T(2, 25), one past the default crossing cap of 24 whatever
--max-n is, on `random_diagram(n, seed, kind)` for every kind, n <=
--max-n and seeds 0 .. --seeds - 1, and on the signed ribbon graphs of
the colourable ones; `random` on the same (n, seed, kind); each
--help; and malformed files, malformed arguments and missing files.  The
`-o` calls record the files they write too.  The inputs are built with
the --new tree.

One line per difference gives the argv, the stdin and both results; the
last line counts the calls and the differences.  Exit 0 when no call
differs, 1 when some do, 2 when a tree cannot be run.
"""

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile

DIAGRAM_COMMANDS = (
    ["bracket"], ["jones"], ["colorable"], ["build-ribbon"], ["build-signed"],
    ["verify"], ["verify", "--main"], ["verify", "--signed"], ["verify", "--jones"],
)
GRAPH_COMMANDS = (["br-poly"], ["br-poly", "--signed"], ["tutte"], ["genus"])
BAD_DIAGRAMS = (
    "X a b\n", "X a b c d o=5\n", "X a b c d o=1\n", "X a a a a o=1\n", "O -1\n",
    "O ²\n", "Q a b\n", "X a b b a o=1\nX a b b a o=1\n", "X a! b b a o=1\n",
    "X a b b a o=2\n", "X\ta b b a o=1 # c\n",
)
BAD_GRAPHS = (
    "V u : a1\n", "E a : a1 a2\n", "V u : a1 a2\nE a : a1 a1\n", "V u : a1 a2\nV u : b1\n",
    "V u : a1 a2\nE a : a1 a2 sign=0\n", "nonsense\n", "V u- : a1 a2\nE a : a1 a2\n",
    "V u : a-1\n", "V u : a1 a2\nE a- : a1 a2\n", "V u : a1 a2\nE a : a1 a2 sign=x\n",
)
BAD_ARGV = (
    [], ["nonsense"], ["bracket"], ["--json"], ["random", "--seed", "1"],
    ["random", "-n", "x", "--seed", "1"], ["random", "-n", "13", "--seed", "1"],
    ["random", "-n", "-1", "--seed", "1"],
    ["random", "-n", "2", "--seed", "1", "--alternating", "--colorable"],
)


def closed_two_braid(q):
    """Diagram text of the closed 2-braid sigma_1^q, the torus link T(2, q)."""
    return "".join(f"X a{i} b{i} b{(i + 1) % q} a{(i + 1) % q} o=1\n" for i in range(q))


def build_corpus(workdir, max_n, seeds):
    """[argv, stdin] for every call, the inputs written under workdir."""
    from vkbr import fixtures
    from vkbr.build import build_signed, find_switch_set
    from vkbr.diagram import format_diagram, parse_diagram
    from vkbr.randgen import KINDS, random_diagram
    from vkbr.ribbon import format_ribbon

    # T(2, 25) is past the default cap of 24, so the commands that sum over
    # its states or its graph's subgraphs refuse it.
    diagrams = [*fixtures.DIAGRAMS.values(), closed_two_braid(25)]
    for kind in KINDS:
        for n in range(max_n + 1):
            diagrams += [format_diagram(random_diagram(n, s, kind)) for s in range(seeds)]
    diagrams = list(dict.fromkeys(diagrams))
    graphs = [fixtures.SAMPLE_RIBBON]
    for text in diagrams:
        d = parse_diagram(text)
        if find_switch_set(d) is not None:
            graphs.append(format_ribbon(build_signed(d)[0]))
    graphs = list(dict.fromkeys(graphs))

    def path_of(text, name):
        path = os.path.join(workdir, name)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        return path

    calls = []

    def both(argv, stdin=""):
        calls.extend([[argv, stdin], [["--json", *argv], stdin]])

    for i, text in enumerate(diagrams + list(BAD_DIAGRAMS) + [""]):
        path = path_of(text, f"d{i}.txt")
        for command in DIAGRAM_COMMANDS:
            both([*command, path])
    for i, text in enumerate(graphs + list(BAD_GRAPHS) + [""]):
        path = path_of(text, f"g{i}.txt")
        for command in GRAPH_COMMANDS:
            both([*command, path])
    for text in fixtures.DIAGRAMS.values():
        for command in DIAGRAM_COMMANDS:
            both([*command, "-"], text)
        for command in (["build-ribbon"], ["build-signed"]):
            both([*command, "-o", os.path.join(workdir, "out.txt"), "-"], text)
    for command in GRAPH_COMMANDS:
        both([*command, "-"], fixtures.SAMPLE_RIBBON)
    for flag in ([], ["--alternating"], ["--colorable"]):
        for n in range(max_n + 1):
            for seed in range(seeds):
                both(["random", "-n", str(n), "--seed", str(seed), *flag])
    both(["selftest"])
    calls.append([["--help"], ""])
    names = [command[0] for command in DIAGRAM_COMMANDS + GRAPH_COMMANDS]
    for command in dict.fromkeys(names + ["random", "selftest"]):
        calls.append([[command, "--help"], ""])
        calls.append([[command, os.path.join(workdir, "missing.txt")], ""])
    calls += [[argv, ""] for argv in BAD_ARGV]
    calls.append([["verify", "--main", "--jones", path_of("", "empty.txt")], ""])
    return calls


def run_corpus(corpus_path, results_path):
    """In a child: every call of the corpus, as [exit code, stdout, stderr,
    files written by -o]."""
    import vkbr.cli

    with open(corpus_path, encoding="utf-8") as handle:
        corpus = json.load(handle)
    results = []
    for argv, stdin in corpus:
        sys.stdin = io.StringIO(stdin)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = vkbr.cli.main(argv)
            except SystemExit as exc:
                code = exc.code
        written = []
        if "-o" in argv:
            target = argv[argv.index("-o") + 1]
            for path in (target, target + ".map"):
                if os.path.exists(path):
                    with open(path, encoding="utf-8") as handle:
                        written.append(handle.read())
                    os.remove(path)
        results.append([code, out.getvalue(), err.getvalue(), written])
    with open(results_path, "w", encoding="utf-8") as handle:
        json.dump({"vkbr": vkbr.__file__, "results": results}, handle)


def run_tree(tree, corpus_path, results_path):
    """Start the child that runs the corpus under tree."""
    env = dict(os.environ, PYTHONPATH=tree, COLUMNS="80")
    env.pop("VKBR_MAX_CROSSINGS", None)
    argv = [sys.executable, os.path.abspath(__file__), "--run", corpus_path, results_path]
    return subprocess.Popen(argv, env=env, stderr=subprocess.PIPE, text=True)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--old", help="source tree holding the vkbr package to compare against")
    parser.add_argument("--new", help="source tree holding the vkbr package to check")
    parser.add_argument("--max-n", type=int, default=12, help="most crossings of a random input")
    parser.add_argument("--seeds", type=int, default=10, help="seeds per (n, kind)")
    parser.add_argument("--run", nargs=2, metavar=("CORPUS", "RESULTS"),
                        help="run a corpus file in this process (the child's side)")
    args = parser.parse_args(argv)
    if args.run:
        run_corpus(*args.run)
        return 0
    if not (args.old and args.new):
        parser.error("--old and --new are required")
    trees = [os.path.abspath(args.old), os.path.abspath(args.new)]
    for tree in trees:
        if not os.path.isfile(os.path.join(tree, "vkbr", "__init__.py")):
            print(f"no vkbr package under {tree}", file=sys.stderr)
            return 2
    sys.path.insert(0, trees[1])
    with tempfile.TemporaryDirectory(prefix="same-output-") as workdir:
        corpus = build_corpus(workdir, args.max_n, args.seeds)
        corpus_path = os.path.join(workdir, "corpus.json")
        with open(corpus_path, "w", encoding="utf-8") as handle:
            json.dump(corpus, handle)
        results = []
        for side, tree in zip(("old", "new"), trees):
            # Sequential, so that the -o files of one side are gone before
            # the other side writes them.
            results_path = os.path.join(workdir, f"{side}.json")
            child = run_tree(tree, corpus_path, results_path)
            _, stderr = child.communicate()
            if child.returncode != 0:
                print(f"the {side} tree failed:\n{stderr}", file=sys.stderr)
                return 2
            with open(results_path, encoding="utf-8") as handle:
                ran = json.load(handle)
            if os.path.dirname(os.path.dirname(ran["vkbr"])) != tree:
                print(f"the {side} side imported {ran['vkbr']}, not from {tree}", file=sys.stderr)
                return 2
            results.append(ran["results"])
    differ = 0
    for (argv, stdin), old, new in zip(corpus, *results):
        if old != new:
            differ += 1
            print(json.dumps({"argv": argv, "stdin": stdin, "old": old, "new": new}))
    print(f"{len(corpus)} calls, {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
