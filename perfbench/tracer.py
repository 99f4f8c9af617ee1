"""Layer tracing from outside the program: spans and counts around public calls.

`Tracer.install()` replaces each traced function with a wrapper, at every
binding of it across the loaded `poisson_atlas.*` modules (a function imported
by name into another module is patched there too) and, for methods, on their
class.  A wrapper opens a span (name, start, end, parent, op id); a layer's self
time is its spans' time minus the time of the spans they enclose.  Scalar
arithmetic is counted but not spanned: its time stays with the caller.
`Tracer.uninstall()` puts every original back.
"""

from __future__ import annotations

import functools
import random
import statistics
import sys
import time
from collections import Counter, defaultdict
from fractions import Fraction

SPAN_CAP = 200_000  # spans kept in memory per traced pass; later ones are only summed

# span name -> (module, qualified name) of every function it wraps
SPANNED = {
    "poly.evaluate": [("poly", "LaurentPoly.evaluate")],
    "poly.mul": [("poly", "LaurentPoly.__mul__")],
    "poly.substitute": [("poly", "LaurentPoly.substitute")],
    "linalg.rref": [("linalg", "rref")],
    "linalg.span_add": [("linalg", "IncrementalSpan.add")],
    "linalg.hull": [("linalg", "associative_hull_is_full")],
    "linalg.matmul": [("linalg", "Matrix.__mul__")],
    "linalg.eigen": [("linalg", "eigen_small")],
    "brackets.bracket": [("brackets", "bracket")],
    "brackets.verify_jacobi": [("brackets", "verify_jacobi")],
    "ideals.find": [("ideals", "find_poisson_maximal")],
    "lie.from_point": [("lie", "lie_from_point")],
    "lie.from_invariants": [("lie", "lie_from_invariants")],
    "classify.recognize": [("classify", "recognize")],
    "classify.sl2_triple": [("classify", "find_sl2_triple")],
    "classify.homogeneity": [("classify", "homogeneity_report")],
    "modules.lift": [("modules", "lift_module")],
    "modules.verify": [("modules", "verify_poisson_axioms")],
    "modules.simple": [("modules", "is_simple_module")],
    "modules.submodules": [("modules", "analyze_submodules")],
    "modules.isomorphic": [
        ("modules", "find_isomorphism"),
        ("modules", "lie_reps_isomorphic"),
        ("modules", "poisson_modules_isomorphic"),
    ],
    "presfile.parse": [("presfile", "parse_presentation")],
    "cli.render": [("cli", "Report.render")],
}

# metric name -> span whose call count it reports
CALLS = [
    "poly.evaluate", "poly.mul", "linalg.rref", "linalg.span_add", "linalg.hull",
    "linalg.matmul", "brackets.bracket", "ideals.find", "lie.from_point",
    "lie.from_invariants", "classify.recognize", "classify.sl2_triple",
    "modules.verify", "modules.simple", "presfile.parse",
]
SELF_MS = [
    "poly.evaluate", "poly.mul", "poly.substitute", "linalg.rref", "linalg.span_add",
    "linalg.hull", "linalg.matmul", "linalg.eigen", "brackets.bracket",
    "brackets.verify_jacobi", "ideals.find", "lie.from_point", "lie.from_invariants",
    "classify.recognize", "classify.sl2_triple", "classify.homogeneity",
    "modules.lift", "modules.verify", "modules.simple", "modules.submodules",
    "modules.isomorphic", "presfile.parse", "catalog.fact", "cli.render",
]


def _resolve(module: str, qualname: str):
    """(owner object, attribute, original function) for a module-level name."""
    owner = sys.modules[f"poisson_atlas.{module}"]
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr, vars(owner)[attr]


class Tracer:
    """Spans and counters for one traced pass; install, run, uninstall, read."""

    def __init__(self):
        self.stack = []  # open spans: [span id, start, time of enclosed spans]
        self.spans = []  # (span id, parent id, name, start, end, op id)
        self.self_s = defaultdict(float)  # span name -> time minus enclosed spans
        self.total_s = defaultdict(float)  # span name -> time, enclosed spans included
        self.calls = Counter()
        self.counts = Counter()
        self.op_id = 0
        self.next_id = 0
        self._undo = []

    # -- spans -----------------------------------------------------------------

    def wrap(self, name, fn, on_result=None):
        """`fn` inside a span named `name`; `on_result(result)` sees each result."""
        stack, spans, calls = self.stack, self.spans, self.calls
        self_s, total_s = self.self_s, self.total_s
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            calls[name] += 1
            span_id = self.next_id
            self.next_id += 1
            parent = stack[-1][0] if stack else None
            frame = [span_id, clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                total = end - frame[1]
                self_s[name] += total - frame[2]
                total_s[name] += total
                if stack:
                    stack[-1][2] += total
                if len(spans) < SPAN_CAP:
                    spans.append((span_id, parent, name, frame[1], end, self.op_id))
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def op(self, fn):
        """`fn` as one op: a new op id and a root span named `op`."""
        inner = self.wrap("op", fn)

        def run(*args, **kwargs):
            self.op_id += 1
            return inner(*args, **kwargs)

        return run

    # -- patching --------------------------------------------------------------

    def _patch_everywhere(self, original, replacement, owner, attr):
        """Replace `original` at `owner.attr` and at every other binding of it."""
        targets = [(owner, attr)]
        if isinstance(owner, type):  # aliases such as __rmul__ = __mul__
            targets += [(owner, k) for k, v in vars(owner).items() if v is original and k != attr]
        else:
            for name, mod in list(sys.modules.items()):
                if name == "poisson_atlas" or name.startswith("poisson_atlas."):
                    targets += [(mod, k) for k, v in vars(mod).items()
                                if v is original and mod is not owner]
        for obj, key in targets:
            self._undo.append((obj, key, original))
            setattr(obj, key, replacement)

    def install(self):
        hooks = self._hooks()
        for name, targets in SPANNED.items():
            for module, qualname in targets:
                owner, attr, original = _resolve(module, qualname)
                inner = self._scan_counter(original) if name == "ideals.find" else original
                self._patch_everywhere(original, self.wrap(name, inner, hooks.get(name)),
                                       owner, attr)

        from poisson_atlas.poly import PointP
        from poisson_atlas.scalars import Scalar

        counts = self.counts
        mul, power, point_init = Scalar.__mul__, Scalar.__pow__, PointP.__init__

        def counted_mul(a, b):
            counts["scalars.mul"] += 1
            if a.d or getattr(b, "d", 0):
                counts["scalars.mul_ext"] += 1
            return mul(a, b)

        def counted_pow(a, n):
            counts["scalars.pow"] += 1
            return power(a, n)

        def counted_point(pt, varset, values):
            if counts["in_scan"]:
                counts["ideals.points"] += 1
            point_init(pt, varset, values)

        self._patch_everywhere(mul, counted_mul, Scalar, "__mul__")
        self._patch_everywhere(power, counted_pow, Scalar, "__pow__")
        self._patch_everywhere(point_init, counted_point, PointP, "__init__")

    def _scan_counter(self, find):
        """The ideal scan, counting the candidate points it builds and its hits."""
        counts = self.counts

        def scan(*args, **kwargs):
            counts["in_scan"] += 1
            try:
                found = find(*args, **kwargs)
            finally:
                counts["in_scan"] -= 1
            counts["ideals.hits"] += len(found)
            return found

        return scan

    def _hooks(self):
        counts = self.counts

        def span_added(grew):
            counts["linalg.span_add.grew"] += bool(grew)

        def verified(report):
            counts["modules.verify.checks"] += report.checks

        return {"linalg.span_add": span_added, "modules.verify": verified}

    def uninstall(self):
        while self._undo:
            obj, key, original = self._undo.pop()
            setattr(obj, key, original)

    # -- metrics -----------------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metrics of everything traced so far: name -> (value, unit)."""
        c, calls = self.counts, self.calls
        out = {f"{name}.calls": (calls[name], "count") for name in CALLS}
        out.update({f"{name}.self_ms": (self.self_s[name] * 1e3, "ms") for name in SELF_MS})
        out.update({
            "scalars.mul.calls": (c["scalars.mul"], "count"),
            "scalars.mul.ext_share": (_ratio(c["scalars.mul_ext"], c["scalars.mul"]), "ratio"),
            "scalars.pow.calls": (c["scalars.pow"], "count"),
            "linalg.span_add.useful_ratio": (
                _ratio(c["linalg.span_add.grew"], calls["linalg.span_add"]), "ratio"),
            "modules.verify.checks": (c["modules.verify.checks"], "count"),
            "ideals.points_tested": (c["ideals.points"], "count"),
            "ideals.hit_ratio": (_ratio(c["ideals.hits"], c["ideals.points"]), "ratio"),
            "ideals.points_per_s": (
                _ratio(c["ideals.points"], self.total_s["ideals.find"]), "1/s"),
            "trace.op_ms": (self.total_s["op"] * 1e3, "ms"),
        })
        return out


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def scalar_microkernel(seed: int, n: int = 20_000, repeats: int = 5):
    """Nanoseconds per Scalar multiplication over Q and over Q(sqrt(-1)).

    Operands are drawn from the seed: p/q with |p| <= 50 and 1 <= q <= 20, and
    a + b*sqrt(-1) with such a and b.  Reports the median of `repeats` timings.
    """
    from poisson_atlas.scalars import Scalar

    rng = random.Random(f"scalars:{seed}")

    def frac():
        return Fraction(rng.randint(-50, 50), rng.randint(1, 20))

    q = [(Scalar(frac()), Scalar(frac())) for _ in range(n)]
    ext = [(Scalar(frac(), frac() or 1, -1), Scalar(frac(), frac() or 1, -1)) for _ in range(n)]

    def per_mul(pairs):
        runs = []
        for _ in range(repeats):
            t0 = time.perf_counter_ns()
            for a, b in pairs:
                a * b
            runs.append((time.perf_counter_ns() - t0) / len(pairs))
        return statistics.median(runs)

    return per_mul(q), per_mul(ext)
