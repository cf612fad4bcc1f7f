"""Benchmark of the vkbr command line, end to end and per layer.

Run from the root of a vkbr source checkout:

    python3 perfbench/run.py --workload braid-jones --seed 1 --seconds 20 --trace 0

Workloads (see BENCHMARK.json for why each exists):

  braid-jones     verify --jones on closed 2-braids T(2, n), n = 13 and 15
  virtual-signed  verify --signed on random colourable virtual diagrams
  small-mixed     seven subcommands over random diagrams of 0-7 crossings
  all             each of the above in its own process, one after another

Each workload runs closed loop with one client: items are calls of the
console entry point vkbr.cli.main(argv), one after another, with stdout
captured.  Passes over the seeded corpus repeat for --seconds; then every
distinct output is checked by an independent route (oracle.py).

--trace 0 measures with tracing off and reports the end-to-end metrics:
set-up time of fresh processes, warm corpus time, item latencies and
peak RSS.  --trace 1 alternates untraced passes with passes that record spans
around vkbr's layers (tracing.py) and reports per-layer metrics per pass.
Both modes print a readable report, then one JSON line:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
The metric names and units come from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from time import perf_counter, process_time

HERE = os.path.dirname(os.path.abspath(__file__))
# Fresh processes timed for setup_s, after one that writes bytecode caches.
SETUP_LAUNCHES = 7
SETUP_ARGV = ["--json", "verify", "--jones", "-"]


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _run_conditions(root: str) -> dict:
    import numpy
    from vkbr import _accel

    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for base, dirs, files in sorted(os.walk(src)):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, src).encode() + b"\0")
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return {
        "kernel_jit": _accel.JIT_ENABLED,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "git_revision": _git_revision(root),
        "src_sha256": digest.hexdigest()[:16],
    }


def _git_revision(root: str):
    """HEAD of the checkout's .git directory, or None outside git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref), encoding="utf-8") as handle:
                return handle.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs"), encoding="utf-8") as handle:
                for line in handle:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return None


def _measure_setup(root: str):
    """Seconds to the first verified result in fresh processes, and failures."""
    src = os.path.join(root, "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    from vkbr.fixtures import TREFOIL

    times, failures = [], 0
    for launch in range(SETUP_LAUNCHES + 1):
        start = perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "vkbr.cli", *SETUP_ARGV],
            input=TREFOIL, capture_output=True, text=True, env=env, cwd=root, timeout=60,
        )
        elapsed = perf_counter() - start
        if launch:
            times.append(elapsed)
            failures += _check_setup(proc.returncode, proc.stdout) is not None
    return times, failures


def _check_setup(code, out):
    import oracle

    try:
        payload = json.loads(out)
        if code != 0 or payload["equal"] is not True:
            return f"setup: exit {code}, equal={payload['equal']}"
        expected = oracle.torus_jones(3, -3)
        for side in ("left", "right"):
            if oracle.read_poly(payload[side], oracle.JONES_VARS) != expected:
                return f"setup: {side} is not the trefoil's Jones polynomial"
    except (ValueError, KeyError, TypeError) as exc:
        return f"setup: unreadable report ({exc})"
    return None


def _one_pass(items, tracer=None):
    """Latency and (exit code, stdout) of every item, in order."""
    import vkbr.cli as cli
    from tracing import ROOT

    latencies, results = [], []
    saved = sys.stdin, sys.stdout, sys.stderr
    for item in items:
        out = io.StringIO()
        sys.stdin, sys.stdout, sys.stderr = io.StringIO(item.stdin), out, io.StringIO()
        start = perf_counter()
        span = tracer.enter(ROOT) if tracer else None
        try:
            code = cli.main(item.argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a traceback is a wrong answer, judged later
            code = f"raised {type(exc).__name__}: {exc}"
        finally:
            if tracer:
                tracer.exit(span)
            latencies.append(perf_counter() - start)
            sys.stdin, sys.stdout, sys.stderr = saved
        results.append((code, out.getvalue()))
    return latencies, results


def _repeat(seconds: float, step) -> None:
    """Call step() until the next call would end more than half a call late."""
    calls = 0
    start = perf_counter()
    while True:
        step()
        calls += 1
        elapsed = perf_counter() - start
        if elapsed + 0.5 * elapsed / calls > seconds:
            return


def _judge(items, passes):
    """Failed item runs, and the first few reasons.

    Each distinct (exit code, output) of an item is checked once by its
    oracle; every run printing the same text shares that verdict.
    """
    failed, reasons = 0, []
    for i, item in enumerate(items):
        verdicts = {}
        for _, results in passes:
            result = results[i]
            if result not in verdicts:
                code, out = result
                try:
                    verdicts[result] = (
                        item.check(code, out) if isinstance(code, int) else f"{item.label}: {code}"
                    )
                except ValueError as exc:
                    verdicts[result] = f"{item.label}: unreadable output ({exc})"
            if verdicts[result]:
                failed += 1
                if len(reasons) < 5:
                    reasons.append(verdicts[result][:200])
    return failed, reasons


def _quantile(values, q: float) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def _end_to_end(passes, setup_times, peak_rss_mb):
    latencies = [t for lat, _ in passes for t in lat]
    return {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.median(sum(lat) for lat, _ in passes),
        "item_p50_s": statistics.median(latencies),
        "item_p90_s": _quantile(latencies, 0.9),
        "peak_rss_mb": peak_rss_mb,
    }


def _per_layer(untraced, traced, summary, cpu_s):
    from tracing import LAYERS, ROOT, ROOT_METRIC

    self_s, calls, counts = summary
    per_pass = 1.0 / len(traced)
    metrics = {ROOT_METRIC: self_s.get(ROOT, 0.0) * per_pass}
    for span, (metric, _) in LAYERS.items():
        metrics[metric] = self_s.get(span, 0.0) * per_pass
        metrics[f"{span}.calls"] = calls.get(span, 0) * per_pass
    for name in (
        "kernels.state_sweep.states",
        "kernels.subgraph_sweep.subgraphs",
        "kernels.out_bytes",
    ):
        metrics[name] = counts.get(name, 0) * per_pass
    states = metrics["kernels.state_sweep.states"]
    subgraphs = metrics["kernels.subgraph_sweep.subgraphs"]
    metrics["kernels.ns_per_state"] = 1e9 * metrics["kernels.state_sweep_s"] / max(states, 1)
    metrics["kernels.ns_per_subgraph"] = 1e9 * metrics["kernels.subgraph_sweep_s"] / max(subgraphs, 1)
    untraced_wall = statistics.fmean(sum(lat) for lat, _ in untraced)
    metrics["trace.wall_s"] = statistics.fmean(sum(lat) for lat, _ in traced)
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - untraced_wall
    metrics["proc.cpu_s"] = cpu_s / len(untraced)
    return metrics


def _warm_up():
    """Run each subcommand once on the bundled examples, untimed."""
    import vkbr.cli as cli
    from vkbr import fixtures

    saved = sys.stdin, sys.stdout
    try:
        for argv, text in (
            (["verify", "--jones", "-"], fixtures.TREFOIL),
            (["verify", "--signed", "-"], fixtures.SAMPLE_KNOT),
            (["colorable", "-"], fixtures.VIRTUAL_HOPF),
            (["jones", "-"], fixtures.HOPF_LINK),
            (["br-poly", "--signed", "-"], fixtures.SAMPLE_RIBBON),
            (["tutte", "-"], fixtures.SAMPLE_RIBBON),
            (["genus", "-"], fixtures.SAMPLE_RIBBON),
        ):
            sys.stdin, sys.stdout = io.StringIO(text), io.StringIO()
            cli.main(argv)
    finally:
        sys.stdin, sys.stdout = saved


def _run_all(args, spec) -> int:
    """Each workload in a child process; a table of every metric at the end."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in spec["workloads"]:
        name = workload["name"]
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return _fail(f"workload {name} exited {proc.returncode}")
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(merged, sort_keys=True))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "vkbr", "__init__.py")):
        return _fail(f"no vkbr sources under {src}; run from the root of a checkout")
    try:
        with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as handle:
            spec = json.load(handle)
    except (OSError, ValueError) as exc:
        return _fail(f"cannot read BENCHMARK.json: {exc}")
    sys.path[:0] = [src, HERE]
    import vkbr

    if os.path.dirname(os.path.abspath(vkbr.__file__)) != os.path.join(src, "vkbr"):
        return _fail(f"imported vkbr from {vkbr.__file__}, not from {src}")
    if args.workload == "all":
        return _run_all(args, spec)

    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        return _fail(f"unknown workload {args.workload!r}; have {sorted(workloads.WORKLOADS)}")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    conditions = _run_conditions(root)
    setup_times, setup_failed = [], 0
    if not args.trace:
        setup_times, setup_failed = _measure_setup(root)
    items = workloads.WORKLOADS[args.workload](args.seed)
    _warm_up()
    if args.trace:
        untraced, traced, cpu_s = [], [], []
        tracer = tracing.Tracer()

        def pair():  # alternate so both kinds of pass see the same machine load
            cpu_start = process_time()
            untraced.append(_one_pass(items))
            cpu_s.append(process_time() - cpu_start)
            restore = tracing.instrument(tracer)
            try:
                traced.append(_one_pass(items, tracer))
            finally:
                restore()

        _repeat(args.seconds, pair)
        passes = untraced + traced
        values = _per_layer(untraced, traced, tracer.summary(), sum(cpu_s))
    else:
        passes = []
        _repeat(args.seconds, lambda: passes.append(_one_pass(items)))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        values = _end_to_end(passes, setup_times, peak_rss_mb)

    failed, reasons = _judge(items, passes)
    failed += setup_failed
    attempted = len(items) * len(passes) + len(setup_times)
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        return _fail(f"BENCHMARK.json names metrics this run does not compute: {missing}")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"{len(items)} items x {len(passes)} passes")
    print("conditions " + json.dumps(conditions, sort_keys=True))
    for metric in wanted:
        print(f"  {metric['name']:<34} {values[metric['name']]:>16.6f} {metric['unit']}")
    latencies = [t for lat, _ in passes for t in lat]
    if args.trace:
        layer_sum = sum(
            values[m] for m in [tracing.ROOT_METRIC] + [m for m, _ in tracing.LAYERS.values()]
        )
        kernel_share = (values["kernels.state_sweep_s"] + values["kernels.subgraph_sweep_s"]) / values["trace.wall_s"]
        print(f"  self times sum to {layer_sum:.6f} s of trace.wall_s {values['trace.wall_s']:.6f} s; "
              f"kernels take {100 * kernel_share:.2f}% of it")
    else:
        beyond = sum(t > values["item_p90_s"] for t in latencies)
        print(f"  item latencies: {len(latencies)} samples, {beyond} beyond p90"
              + ("" if beyond >= 10 else " (too few for a tail estimate)"))
        print(f"  setup_s: median of {len(setup_times)} fresh processes")
    print(f"  fail_frac {failed / attempted:.6f} ({failed}/{attempted})")
    for reason in reasons:
        print(f"  FAILED {reason}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps(
        {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    ))
    return 0


if __name__ == "__main__":
    sys.exit(main())
