"""Request sets, seeded pass order, one-op execution and golden checks.

Three workloads drive the public entry points of `poisson_atlas`:

- ``catalog``: every fact of ``catalog run-all`` through ``catalog.run_entry``;
  one op is one fact.
- ``scan``: ``classify FILE --box-num N --box-den D --format machine`` through
  ``cli.main`` over the serialized catalog files in ``inputs/``.
- ``modules``: ``module`` and ``verify`` requests at the sl2-type points of
  those files, for every dimension from 2 to ``MODULE_DIM_CAP``.

Every pass runs the whole finite request set of its workload in an order drawn
from the seed, so runs with different seeds measure the same work.  Each op's
report is compared with the bytes recorded in ``golden.json``.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import math
import random
import re
import statistics
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
INPUTS = HERE / "inputs"
GOLDEN = HERE / "golden.json"

WORKLOADS = ("catalog", "scan", "modules")
SCAN_BOXES = ((4, 2), (5, 2), (6, 3))
# abelian(3) is Poisson at every box point, so lie/classify run per point; one
# 6/3 request alone would take most of a pass, so it is drawn at 4/2 only.
SINGLE_BOX_FILES = ("abelian(3)",)
MODULE_DIM_CAP = 5
# The 18 sl2-type points of the catalog files (classify reports "sl2" there).
SL2_POINTS = (
    ("kirillov-kostant-sl2", "(0, 0, 0)"),
    ("kleinian-a1", "(0, 0, 0)"),
    ("kleinian-an(2)", "(0, 0, 0)"),
    ("laurent-inv", "(0, 0, -2)"),
    ("laurent-inv", "(0, 0, 2)"),
    ("torus-so3", "(-2, -2, 2)"),
    ("torus-so3", "(-2, 2, -2)"),
    ("torus-so3", "(0, 0, 0)"),
    ("torus-so3", "(2, -2, -2)"),
    ("torus-so3", "(2, 2, 2)"),
    ("uqsl2-4hom", "(0, 0, -sqrt(-1))"),
    ("uqsl2-4hom", "(0, 0, sqrt(-1))"),
    ("uqsl2-4hom", "(0, 0, -1)"),
    ("uqsl2-4hom", "(0, 0, 1)"),
    ("uqsl2-equitable", "(-1, -1, -1)"),
    ("uqsl2-equitable", "(1, 1, 1)"),
    ("uqsl2", "(0, 0, -1)"),
    ("uqsl2", "(0, 0, 1)"),
)

OK, KNOWN, FAILED = "ok", "known-defect", "failed"


@dataclass(frozen=True)
class Request:
    """One CLI request (scan, modules) or one catalog entry (catalog)."""

    id: str
    argv: tuple = ()
    props: dict = field(default_factory=dict, compare=False, hash=False)


@dataclass
class Outcome:
    """One op: its request, wall latency, latency at the reference speed, and
    status against the golden record."""

    request: str
    ms: float
    ref_ms: float
    status: str


def input_path(name: str) -> str:
    """Path of a serialized catalog file, relative to the repository root."""
    return (INPUTS / f"{name}.pa").relative_to(ROOT).as_posix()


def input_names():
    return sorted(p.stem for p in INPUTS.glob("*.pa"))


def file_props(name: str) -> dict:
    """Variable count, Laurent count, explicit points and scalar domain of a file.

    Read from the text, not the parser, so files the parser rejects still have
    their properties recorded.
    """
    text = (INPUTS / f"{name}.pa").read_text(encoding="utf-8")
    head = re.search(r"^vars ([^;]*);", text, re.M).group(1)
    laurent = re.search(r"laurent\(([^)]*)\)", head)
    names = head[: laurent.start()] if laurent else head
    nvars = len([n for n in names.split(",") if n.strip()])
    nlaurent = len(laurent.group(1).split(",")) if laurent else 0
    roots = sorted(set(re.findall(r"sqrt\((-?\d+)\)", text)))
    return {
        "nvars": nvars,
        "laurent": nlaurent,
        "explicit_points": len(re.findall(r"^point ", text, re.M)),
        "domain": f"Q(sqrt({roots[0]}))" if roots else "Q",
    }


def box_candidates(props: dict, num: int, den: int) -> int:
    """Grid points the ideal scan tests for a box, plus the explicit points."""
    values = {Fraction(p, q) for q in range(1, den + 1) for p in range(-num, num + 1)}
    n, nl = props["nvars"], props["laurent"]
    return len(values) ** (n - nl) * (len(values) - 1) ** nl + props["explicit_points"]


def scan_requests():
    out = []
    for name in input_names():
        props = file_props(name)
        boxes = SCAN_BOXES
        if props["nvars"] == 4 or name in SINGLE_BOX_FILES:
            boxes = SCAN_BOXES[:1]
        for num, den in boxes:
            argv = ("classify", input_path(name), "--box-num", str(num),
                    "--box-den", str(den), "--format", "machine")
            req_props = dict(props, file=name, box=f"{num}/{den}",
                             candidates=box_candidates(props, num, den))
            out.append(Request(f"classify {name} {num}/{den}", argv, req_props))
    return out


def module_requests():
    out = []
    for name, point in SL2_POINTS:
        props = file_props(name)
        for dim in range(2, MODULE_DIM_CAP + 1):
            for cmd in ("module", "verify"):
                argv = (cmd, input_path(name), "--point", point, "--dim", str(dim),
                        "--format", "machine")
                req_props = dict(nvars=props["nvars"], file=name, point=point, dim=dim)
                out.append(Request(f"{cmd} {name} {point} d={dim}", argv, req_props))
    return out


def catalog_requests():
    from poisson_atlas.catalog import catalog_names

    return [Request(name) for name in catalog_names()]


def requests_for(workload: str):
    return {"catalog": catalog_requests, "scan": scan_requests,
            "modules": module_requests}[workload]()


# Seconds one pass took at the commit that recorded golden.json (2 vCPU Xeon,
# Python 3.11).  A run of `--seconds` makes round(seconds / PASS_SECONDS) passes,
# at least one: a fixed amount of work, so a faster program is not measured on
# more passes than a slower one.
PASS_SECONDS = {"catalog": 6.5, "scan": 27.0, "modules": 21.0}


def passes_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds / PASS_SECONDS[workload]))


def pass_order(requests, workload: str, seed: int, pass_no: int):
    """The pass's requests in the order drawn from (workload, seed, pass)."""
    order = list(requests)
    random.Random(f"{workload}:{seed}:{pass_no}").shuffle(order)
    return order


def catalog_run_seed(seed: int, pass_no: int) -> int:
    """The `RunConfig.seed` of a catalog pass.  It picks the random polynomials
    the axiom checker tries, whose size moves some facts' cost by up to 2x, so
    each pass draws its own and a run reports the median over them."""
    return random.Random(f"catalog-config:{seed}:{pass_no}").randrange(1, 2**32)


def load_golden():
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


# -- machine speed -----------------------------------------------------------------

# The reference kernel's time, in ms, on the machine the benchmark was defined on
# (2 vCPU Xeon, Python 3.11) when it ran at its fast speed.
REFERENCE_KERNEL_MS = 3.0


def reference_kernel():
    """A fixed pure-Python Fraction loop that uses no poisson_atlas code.  The
    cycle collector is paused while it runs, so that collecting the program's
    garbage is not charged to the machine's speed."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        total = Fraction(0)
        for i in range(1, 400):
            total += Fraction(i, i + 1) * Fraction(3, 7)
        return total
    finally:
        if enabled:
            gc.enable()


class SpeedGauge:
    """Converts wall time to time at the reference speed.

    A shared machine runs the same code up to 1.5 times slower for seconds or
    minutes at a time.  The gauge times the reference kernel between ops; an
    op's time is scaled by REFERENCE_KERNEL_MS over the mean kernel time just
    before and just after it, so the machine's speed cancels and the program's
    does not (a change to poisson_atlas cannot change the kernel)."""

    def __init__(self):
        self.last = self.sample()

    @staticmethod
    def sample() -> float:
        t0 = time.perf_counter()
        reference_kernel()
        return (time.perf_counter() - t0) * 1e3

    def factor(self) -> float:
        """Scale for the op that ended just now."""
        before, self.last = self.last, self.sample()
        return 2 * REFERENCE_KERNEL_MS / (before + self.last)


# -- one op ----------------------------------------------------------------------


def digest(rc, stdout: str, stderr: str) -> str:
    blob = f"rc={rc}\n{stdout}\0{stderr}".encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def call_cli(main, argv):
    """Run one CLI request in-process; returns (ms, rc, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(list(argv))
    except (Exception, SystemExit) as exc:  # a crashed request is a failed op
        rc = f"raised {type(exc).__name__}: {exc}"
    ms = (time.perf_counter() - t0) * 1e3
    return ms, rc, out.getvalue(), err.getvalue()


def cli_status(golden_entry, rc, stdout, stderr) -> str:
    if golden_entry is None or digest(rc, stdout, stderr) != golden_entry["sha256"]:
        return FAILED
    return OK if golden_entry["rc"] == 0 else KNOWN


def run_cli_pass(order, golden, main):
    """Run every request of a scan or modules pass; one Outcome per request."""
    outcomes, gauge = [], SpeedGauge()
    for req in order:
        ms, rc, stdout, stderr = call_cli(main, req.argv)
        status = cli_status(golden.get(req.id), rc, stdout, stderr)
        outcomes.append(Outcome(req.id, ms, ms * gauge.factor(), status))
    return outcomes


# -- catalog -----------------------------------------------------------------------


def fact_record(entry_name: str, result):
    """The (key, value) record `catalog run-all` reports for one fact."""
    mark = "pass" if result.ok else "FAIL"
    detail = f" -- {result.detail}" if result.detail else ""
    return f"{entry_name}.{result.key}", f"{mark} [{result.cite}]{detail}"


def fact_line(entry_name: str, result) -> str:
    return "%s = %s" % fact_record(entry_name, result)


def catalog_report(names, reports, config) -> str:
    """The `catalog run-all --format machine` report, with its seed record removed."""
    from poisson_atlas.cli import Report

    report = Report("catalog run-all")
    report.add("trials", config.trials)
    report.add("seed", config.seed)
    for name in names:
        entry_report = reports[name]
        for result in entry_report.results:
            report.add(*fact_record(name, result))
        for note in entry_report.notes:
            report.add(f"{name}.note", note)
    if not all(reports[name].ok for name in names):
        report.fail()
    text = report.render("machine")
    return "".join(line for line in text.splitlines(True) if not line.startswith("seed = "))


def run_catalog_pass(order, golden, config, wrap_fact=None):
    """Run every entry in `order` through `run_entry`, timing each fact as one op.

    `wrap_fact`, when given, wraps each fact function (the traced run uses it
    to open its op and `catalog.fact` spans).
    """
    from poisson_atlas.catalog import catalog_names, get_entry, run_entry

    outcomes, reports, gauge = [], {}, SpeedGauge()
    for req in order:
        entry = get_entry(req.id)
        times = []  # (wall ms, ms at the reference speed) per fact

        def timed(fn):
            def run(ctx, cfg):
                t0 = time.perf_counter()
                try:
                    return fn(ctx, cfg)
                finally:
                    ms = (time.perf_counter() - t0) * 1e3
                    times.append((ms, ms * gauge.factor()))
            return run

        entry.checks = [
            (key, cite, timed(wrap_fact(fn) if wrap_fact else fn))
            for key, cite, fn in entry.checks
        ]
        entry_report = run_entry(entry, config)
        reports[req.id] = entry_report
        for result, (ms, ref_ms) in zip(entry_report.results, times):
            fact = f"{req.id}.{result.key}"
            ok = golden["facts"].get(fact) == fact_line(req.id, result)
            outcomes.append(Outcome(fact, ms, ref_ms, OK if ok else FAILED))
    names = [n for n in catalog_names() if n in reports]
    if len(names) == len(catalog_names()):
        text = catalog_report(names, reports, config)
        if hashlib.sha256(text.encode("utf-8")).hexdigest() != golden["report_sha256"]:
            # the facts matched but the assembled report did not: fail them all
            outcomes = [Outcome(o.request, o.ms, o.ref_ms, FAILED) for o in outcomes]
    return outcomes


# -- pass statistics ---------------------------------------------------------------


def hd_quantile(values, p: float, steps: int = 8) -> float:
    """Harrell-Davis estimate of the p-quantile of `values`.

    A mean of all order statistics weighted by the Beta((n+1)p, (n+1)(1-p))
    mass of each rank's interval (Harrell and Davis, Biometrika 69, 1982).  A
    single order statistic takes the full noise of the one op at that rank; the
    weighted mean spreads it over the neighbouring ranks.
    """
    xs = sorted(values)
    n = len(xs)
    a, b = (n + 1) * p, (n + 1) * (1 - p)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)

    def density(x):
        if x <= 0.0 or x >= 1.0:
            return 0.0
        return math.exp(log_norm + (a - 1) * math.log(x) + (b - 1) * math.log1p(-x))

    weights = []
    for i in range(n):  # Simpson's rule on [i/n, (i+1)/n]
        lo, h = i / n, 1 / (n * steps)
        inner = sum((4 if k % 2 else 2) * density(lo + k * h) for k in range(1, steps))
        weights.append((density(lo) + inner + density(lo + steps * h)) * h / 3)
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def tail_level(n: int) -> float:
    """The highest quantile level with at least ten of `n` samples beyond it
    (the lowest order statistic's level when there are ten or fewer)."""
    return max(1, n - 10) / n


def run_stats(passes, field: str = "ref_ms") -> dict:
    """End-to-end figures of a run from the outcomes of its passes.

    `field` picks the latency: "ref_ms" (at the reference speed) or "ms"
    (wall).  Each request's latency is its median over the passes that ran
    it.  ops_per_s is the successful requests divided by the sum of those
    latencies.  Requests that did not succeed are left out and counted apart
    (failed, or known-defect exits)."""
    runs = {}
    for outcomes in passes:
        for o in outcomes:
            if o.status == OK:
                runs.setdefault(o.request, []).append(getattr(o, field))
    lat = [statistics.median(v) for v in runs.values()]
    level = tail_level(len(lat))
    return {
        "ops": len(lat),
        "ops_per_s": 1e3 * len(lat) / sum(lat),
        "op_p50_ms": hd_quantile(lat, 0.5),
        "op_tail_ms": hd_quantile(lat, level),
        "tail_pct": 100 * level,
    }
