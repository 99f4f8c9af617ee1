"""Benchmark of poisson-atlas: end-to-end metrics per workload, per-layer when traced.

Usage, from the repository root:

    python3 perfbench/run.py --workload scan --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 35

One process, one thread, one caller in a closed loop: each op starts when the
previous one has returned.  A run measures whole passes over its workload's
request set (see workloads.py), as many as take about `--seconds` at the
reference speed; each request's latency is its median over the passes.
Every op's report is checked against golden.json.

`--trace 0` prints the end-to-end metrics: setup_s, ops_per_s, op_p50_ms,
op_tail_ms and peak_rss_mb.  Times are at the reference speed: each op's wall
time is scaled by a reference kernel timed around it (workloads.SpeedGauge),
because a shared machine's speed drifts by up to 1.5x between runs; the wall
figures are printed too.  `--trace 1` runs one pass untraced and one pass
with the layer tracer installed (tracer.py) and prints the per-layer metrics
(self times in wall ms), including the tracing overhead in ops per second at
the reference speed, and checks the predictions
in predictions.json; the traced pass's spans go to
spans/<workload>-seed<n>.jsonl.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.

An op counts as failed when its report differs from the golden record or it
raised.  Requests whose golden record is itself a non-zero exit are known
defects of the program (`catalog file c-theta` / `d-phi` write files the
parser rejects): they count toward the printed fail_share, but not as failed,
since their output is the recorded one.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import resource
import statistics
import subprocess
import sys
import time

import workloads as wl

SETUP_SAMPLES = 7
BUILD_ENTRIES = (
    "import poisson_atlas\n"
    "from poisson_atlas.catalog import catalog_names, get_entry\n"
    "entries = [get_entry(n) for n in catalog_names()]\n"
)
PARSE_FILES = (
    "import poisson_atlas\n"
    "from poisson_atlas.errors import ParseError\n"
    "from poisson_atlas.presfile import parse_presentation\n"
    "for path in {paths!r}:\n"
    "    try:\n"
    "        parse_presentation(open(path, encoding='utf-8').read())\n"
    "    except ParseError:\n"
    "        pass\n"
)
KERNEL_RUNS = 3
KERNEL_TIMING = (
    "import gc\n"
    "import time\n"
    "from fractions import Fraction\n"
    "{kernel}"
    "kernel_ms = []\n"
    "for _ in range({runs}):\n"
    "    t0 = time.perf_counter()\n"
    "    reference_kernel()\n"
    "    kernel_ms.append((time.perf_counter() - t0) * 1e3)\n"
    "print(sum(kernel_ms), sorted(kernel_ms)[len(kernel_ms) // 2])\n"
)
SPANS_DIR = wl.HERE / "spans"
E2E_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms",
             "peak_rss_mb": "MB"}


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def child_env():
    env = dict(os.environ)
    src = str(wl.ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def setup_seconds(workload: str, requests) -> float:
    """Median time, at the reference speed, of a fresh interpreter that imports
    the package and builds this workload's inputs (catalog entries or parsed
    files).

    The child then times the reference kernel KERNEL_RUNS times and prints the
    total and the median; the total is taken off its wall time and the median
    scales the rest, since right after a child exits the parent's own kernel
    timings swing widely."""
    if workload == "catalog":
        code = BUILD_ENTRIES
    else:
        code = PARSE_FILES.format(paths=sorted({r.argv[1] for r in requests}))
    code += KERNEL_TIMING.format(kernel=inspect.getsource(wl.reference_kernel), runs=KERNEL_RUNS)
    cmd = [sys.executable, "-c", code]
    times = []
    for k in range(SETUP_SAMPLES + 1):  # the first run only warms the bytecode cache
        t0 = time.perf_counter()
        # no timeout: with one, Popen.wait polls in steps of up to 50 ms
        proc = subprocess.run(cmd, cwd=wl.ROOT, env=child_env(), check=True,
                              capture_output=True, text=True)
        wall_ms = (time.perf_counter() - t0) * 1e3
        kernel_total_ms, kernel_ms = map(float, proc.stdout.split())
        if k:
            times.append((wall_ms - kernel_total_ms) * wl.REFERENCE_KERNEL_MS / kernel_ms / 1e3)
    return statistics.median(times)


class Runner:
    """Runs passes of one workload and keeps their outcomes."""

    def __init__(self, workload: str, seed: int):
        from poisson_atlas import cli

        self.workload, self.seed = workload, seed
        self.requests = wl.requests_for(workload)
        self.golden = wl.load_golden()[workload]
        self.main = cli.main
        self.passes = []  # (outcomes, wall seconds)

    def run_pass(self, pass_no: int, tracer=None):
        from poisson_atlas.catalog import RunConfig

        order = wl.pass_order(self.requests, self.workload, self.seed, pass_no)
        t0 = time.perf_counter()
        if self.workload == "catalog":
            wrap = None
            if tracer is not None:
                def wrap(fn):
                    return tracer.op(tracer.wrap("catalog.fact", fn))
            config = RunConfig(seed=wl.catalog_run_seed(self.seed, pass_no))
            outcomes = wl.run_catalog_pass(order, self.golden, config, wrap)
        else:
            main = tracer.op(self.main) if tracer is not None else self.main
            outcomes = wl.run_cli_pass(order, self.golden["requests"], main)
        wall = time.perf_counter() - t0
        self.passes.append((outcomes, wall))
        return outcomes, wall

    def run_for(self, seconds: float):
        """As many whole passes as take about `seconds` at the reference speed.

        The count depends only on `seconds`, never on the speed measured, so
        every commit and every seed runs the same work."""
        for pass_no in range(wl.passes_for(self.workload, seconds)):
            self.run_pass(pass_no)

    def totals(self):
        outcomes = [o for outs, _ in self.passes for o in outs]
        failed = sum(o.status == wl.FAILED for o in outcomes)
        known = sum(o.status == wl.KNOWN for o in outcomes)
        return len(outcomes), failed, known

    def print_requests(self):
        """One line per request: its input properties and median latency (wall
        and at the reference speed)."""
        by_request = {}
        for outcomes, _ in self.passes:
            for o in outcomes:
                by_request.setdefault(o.request, []).append(o)
        props = self.golden["props"]
        for name in sorted(by_request):
            outs = by_request[name]
            ms = statistics.median(o.ms for o in outs)
            ref_ms = statistics.median(o.ref_ms for o in outs)
            status = ",".join(sorted({o.status for o in outs}))
            print(f"request {self.workload} | {name} | {json.dumps(props.get(name, {}), sort_keys=True)}"
                  f" | ms={ms:.3f} ref_ms={ref_ms:.3f} | {status}")


def end_to_end(runner: Runner, setup_s: float) -> dict:
    outcomes = [outs for outs, _ in runner.passes]
    stats, wall = wl.run_stats(outcomes), wl.run_stats(outcomes, "ms")
    walls = ", ".join(f"{w:.3f}" for _, w in runner.passes)
    print(f"passes = {len(runner.passes)} ({walls} s); successful requests = {stats['ops']}; "
          f"op_tail_ms is p{stats['tail_pct']:.1f} (10 requests beyond it); "
          "latency = median over passes; quantiles are Harrell-Davis estimates")
    print("wall-clock figures, not scaled to the reference speed: " + ", ".join(
        f"{k} = {wall[k]:.6g}" for k in ("ops_per_s", "op_p50_ms", "op_tail_ms")))
    return {
        "setup_s": setup_s,
        "ops_per_s": stats["ops_per_s"],
        "op_p50_ms": stats["op_p50_ms"],
        "op_tail_ms": stats["op_tail_ms"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def check_predictions(workload: str, metrics: dict):
    """Print whether each prediction in predictions.json holds on this run."""
    with open(wl.HERE / "predictions.json", encoding="utf-8") as fh:
        checks = json.load(fh)["checks"]
    for check in checks:
        if check["workload"] != workload:
            continue
        value = sum(metrics[m][0] for m in check["sum"])
        if check.get("over"):
            value = value / metrics[check["over"]][0] if metrics[check["over"]][0] else 0.0
        holds = check.get("min", -float("inf")) <= value <= check.get("max", float("inf"))
        print(f"prediction {'holds' if holds else 'FAILS'}: {check['claim']} "
              f"(measured {value:.4g})")


def write_spans(tracer, path):
    """The kept spans as JSON lines: a header naming the fields, then one list per span."""
    path.parent.mkdir(exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(["id", "parent", "name", "start", "end", "op"]) + "\n")
        for span in tracer.spans:
            fh.write(json.dumps(span) + "\n")


def traced_run(runner: Runner, seed: int, spans_path=None) -> dict:
    import tracer as tr

    untraced, _ = runner.run_pass(0)
    untraced_rate = wl.run_stats([untraced])["ops_per_s"]
    q_ns, ext_ns = tr.scalar_microkernel(seed)
    tracer = tr.Tracer()
    tracer.install()
    try:
        traced, _ = runner.run_pass(0, tracer)  # the untraced pass's order and config
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    metrics["scalars.mul_q.ns"] = (q_ns, "ns")
    metrics["scalars.mul_ext.ns"] = (ext_ns, "ns")
    traced_rate = wl.run_stats([traced])["ops_per_s"]
    metrics["trace.overhead_ops_per_s"] = (traced_rate - untraced_rate, "1/s")
    print(f"untraced ops_per_s = {untraced_rate:.4f}; traced ops_per_s = {traced_rate:.4f}; "
          f"spans kept = {len(tracer.spans)} of {tracer.next_id}")
    if spans_path is not None:
        write_spans(tracer, spans_path)
        print(f"spans written to {spans_path.relative_to(wl.ROOT)}")
    check_predictions(runner.workload, metrics)
    return metrics


def run_workload(args) -> int:
    runner = Runner(args.workload, args.seed)
    if args.trace:
        spans = SPANS_DIR / f"{args.workload}-seed{args.seed}.jsonl"
        metrics = traced_run(runner, args.seed, spans)
    else:
        setup_s = setup_seconds(args.workload, runner.requests)
        runner.run_for(args.seconds)
        metrics = {k: (v, E2E_UNITS[k]) for k, v in end_to_end(runner, setup_s).items()}
    attempted, failed, known = runner.totals()
    runner.print_requests()
    print(f"fail_share = {(failed + known) / attempted:.6f} (share) "
          f"[{failed} differ from golden, {known} known-defect exits, of {attempted}]")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process (so peak_rss_mb is its own), then a table."""
    results, correct = {}, True
    for workload in wl.WORKLOADS:
        cmd = [sys.executable, str(wl.HERE / "run.py"), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=wl.ROOT, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return fail(f"workload {workload} exited with {proc.returncode}")
        lines = proc.stdout.splitlines()
        result = json.loads(lines[-1])
        share = next(line for line in lines if line.startswith("fail_share = "))
        results[workload] = result
        correct = correct and result["correct"]
        print(f"{workload}: {share}")
        for name, m in result["metrics"].items():
            print(f"{workload}: {name} = {m['value']:.6g} {m['unit']}")
    merged = {
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": m for w, r in results.items() for k, m in r["metrics"].items()},
    }
    print(json.dumps(merged))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=wl.WORKLOADS)
    parser.add_argument("--all", action="store_true", help="run every workload, untraced")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.all and not args.workload:
        parser.error("give --workload NAME or --all")
    if not (wl.ROOT / "src" / "poisson_atlas" / "__init__.py").is_file():
        return fail(f"no poisson_atlas sources under {wl.ROOT / 'src'}")
    if not wl.GOLDEN.is_file() or not wl.INPUTS.is_dir():
        return fail("golden.json or inputs/ missing; run perfbench/make_golden.py")
    os.chdir(wl.ROOT)
    sys.path.insert(0, str(wl.ROOT / "src"))
    import poisson_atlas

    if not poisson_atlas.__file__.startswith(str(wl.ROOT / "src")):
        return fail(f"imported poisson_atlas from {poisson_atlas.__file__}, not this checkout")
    return run_all(args) if args.all else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
