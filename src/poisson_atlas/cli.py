"""Command-line front end.

Reports are deterministic for fixed inputs and seed: text format for humans,
machine format as greppable `key = value` lines under the version header
`poisson-atlas-report v1`, with scalars rendered exactly (`p/q`,
`a+b*sqrt(d)`).  Each subcommand returns its report and `main` alone prints it.
Exit codes: 0 success, 1 a report with status `fail` (a failed verification or
catalog fact) or an error, 2 parse error, 3 unsupported computation (e.g. an
extension beyond quadratic).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import re
import sys

from .classify import find_sl2_triple, homogeneity_report, recognize, recognize_points
from .errors import AtlasError, ExtensionRequiredError, ParseError
from .ideals import SearchBox, _potential_of, find_poisson_maximal, leaf_report
from .lie import lie_from_point
from .modules import (
    DEFAULT_SEED,
    DEFAULT_TRIALS,
    analyze_submodules,
    is_simple_module,
    lift_module,
    restrict_to_subalgebra,
    sl2_irrep,
    solvable_character_module,
    twist,
    verify_poisson_axioms,
)
from .presfile import _Parser, lincomb_text, parse_presentation, serialize_presentation
from .scalars import Scalar

HEADER = "poisson-atlas-report v1"


class Report:
    """Ordered key-value records rendered as text or machine lines.  A record
    is kept as its line with NUL for the separator, which no argument or
    parsed name holds, so `render` writes each format's separator in one
    replace over the joined lines."""

    def __init__(self, command: str):
        self.command = command
        self.lines = []
        self.status = "ok"

    def add(self, key: str, value):
        self.lines.append(f"{key}\0{value}")

    def fail(self):
        self.status = "fail"

    def render(self, fmt: str) -> str:
        head, sep = ((f"{HEADER}\ncommand = {self.command}", " = ") if fmt == "machine"
                     else (f"# {self.command}", ": "))
        return "\n".join([head, *self.lines, f"status\0{self.status}\n"]).replace("\0", sep)


def _load_file(path: str):
    with open(path, "r", encoding="utf-8-sig") as fh:
        return parse_presentation(fh.read())


def _flag_value(pf, flag: str, text: str, read):
    """read(parser, varset, names) on the whole text of a flag, with the file's
    parser and names; an error names the flag and a column of its text."""
    try:
        parser = _Parser(text)
        value = read(parser, pf.varset, pf.bound)
        if not parser.at(""):
            raise parser.error(f"unexpected token {parser.peek()!r}", parser.pos)
    except ParseError as exc:
        raise ParseError(f"{flag}, col {exc.column}: {exc.message}") from None
    return value


def _add_actions(report, names, mats):
    """One `action.{name}` record per generator, its matrix as `[(row); ...]`."""
    for name, m in zip(names, mats):
        report.add(f"action.{name}", "[" + "; ".join(
            "(" + ", ".join(str(x) for x in row) + ")" for row in m.rows) + "]")


def _point_arg(parser):
    parser.add_argument("--point", required=True, help='point, e.g. "(0, 0, 1)"')


def _trial_flags(parser):
    parser.add_argument("--trials", type=_at_least(0), default=DEFAULT_TRIALS)
    parser.add_argument("--seed", type=_seed, default=DEFAULT_SEED)


def _seed(text: str) -> int:
    """The argument type of --seed: what `int(text, 0)` reads, a negative or
    an `0x` seed too, from ASCII letters and digits after an optional '-'."""
    if re.fullmatch(r"-?[0-9A-Za-z]+", text):
        with contextlib.suppress(ValueError):
            return int(text, 0)
    raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")


def _at_least(low: int):
    """The argument type of an integer >= low: a box bound or a module
    dimension (low 1), a trial count (low 0); anything else, ASCII digits
    after an optional '-' aside, is a usage error."""

    def parse(text: str) -> int:
        value = int(text) if re.fullmatch(r"-?[0-9]+", text) else low - 1
        if value < low:
            raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {text!r}")
        return value

    return parse


def _box_flags(parser):
    """The search box of a subcommand that scans for Poisson-maximal points."""
    parser.add_argument("--box-num", type=_at_least(1), default=SearchBox.num,
                        help="box numerator bound")
    parser.add_argument("--box-den", type=_at_least(1), default=SearchBox.den,
                        help="box denominator bound")
    return parser


def _box_points(pf, args):
    """The Poisson points of the search box `--box-num`/`--box-den` plus the
    file's `point` clauses, in order."""
    box = SearchBox(args.box_num, args.box_den, tuple(pf.points))
    return find_poisson_maximal(pf.presentation, box)


def _module_at(pf, args):
    """(point, module, recognition): the canonical simple module of dimension
    `--dim` at `--point`, a `--character` for solvable g(J).  Where the Levi
    factor is sl2, the radical acts by zero, a simple module for every k, and
    a `--character` is refused."""
    point = _flag_value(pf, "--point", args.point, _Parser.parse_point)
    lie = lie_from_point(pf.presentation, point)
    rec = recognize(lie)
    if rec.levi_dim and args.character is not None:
        raise ParseError(f"--character needs a solvable g(J), and g(J) is {rec.describe()}")
    if rec.levi_dim == 3:
        rep = sl2_irrep(lie, args.dim, find_sl2_triple(lie, rec), rec.radical_basis)
        return point, lift_module(pf.presentation, point, rep), rec
    if rec.levi_dim != 0:
        raise AtlasError(
            f"g(J) is {rec.describe()}: modules are built only for a Levi factor 0 or sl2"
        )
    if args.dim != 1:
        raise AtlasError(
            f"g(J) is {rec.describe()}: only one-dimensional simple modules exist"
        )
    if args.character is None:
        beta = [Scalar(0)] * len(pf.varset)
    else:
        beta = _flag_value(pf, "--character", args.character, _Parser.scalar_list)
    return point, solvable_character_module(pf.presentation, point, beta), rec


def cmd_ideals(args) -> Report:
    pf = _load_file(args.file)
    report = Report("ideals")
    report.add("file", args.file)
    points = _box_points(pf, args)
    potential = _potential_of(pf.presentation)
    report.add("ideal.count", len(points))
    for k, pt in enumerate(points, 1):
        report.add(f"ideal.{k}.point", pt)
        if potential is not None:
            report.add(f"ideal.{k}.lambda", potential.evaluate(pt))
    return report


def cmd_leaves(args) -> Report:
    pf = _load_file(args.file)
    if _potential_of(pf.presentation) is None:
        raise AtlasError("leaves needs an exact or scaled bracket (one with a potential)")
    report = Report("leaves")
    report.add("file", args.file)
    by_lambda = leaf_report(pf.presentation, _box_points(pf, args))
    lambdas = ", ".join(str(lam) for lam in by_lambda)
    report.add("singular.lambdas", lambdas)
    for lam, pts in by_lambda.items():
        report.add(f"singular.{lam}.points", "; ".join(str(p) for p in pts))
    report.add("stratum", f"smooth surfaces: S_lambda for lambda outside {{{lambdas}}}")
    for lam, pts in by_lambda.items():
        listed = ", ".join(str(p) for p in pts)
        report.add("stratum", f"punctured singular surface: S_{lam} minus {{{listed}}}")
        report.add("stratum", f"singular points on S_{lam}: {listed}")
    return report


def cmd_lie(args) -> Report:
    pf = _load_file(args.file)
    point = _flag_value(pf, "--point", args.point, _Parser.parse_point)
    lie = lie_from_point(pf.presentation, point)
    report = Report("lie")
    report.add("point", point)
    report.add("basis", ", ".join(f"{n} - pt" for n in lie.labels))
    for (i, j), row in lie.structure_table().items():
        report.add(
            f"bracket.[{lie.labels[i]},{lie.labels[j]}]",
            lincomb_text(lie.labels, row),
        )
    return report


def cmd_classify(args) -> Report:
    pf = _load_file(args.file)
    report = Report("classify")
    report.add("file", args.file)
    points = _box_points(pf, args)
    report.add("ideal.count", len(points))
    texts = {}  # id of a shared recognition -> the values of its three records
    for k, (pt, rec) in enumerate(zip(points, recognize_points(pf.presentation, points)), 1):
        text = texts.get(id(rec))
        if text is None:
            text = texts[id(rec)] = (rec.describe(), str(rec.derived_dims), rec.simple_modules())
        report.lines.append(f"ideal.{k}.point\0{pt}\nideal.{k}.recognition\0{text[0]}\n"
                            f"ideal.{k}.derived_dims\0{text[1]}\n"
                            f"ideal.{k}.simple_modules\0{text[2]}")
    return report


def cmd_module(args) -> Report:
    pf = _load_file(args.file)
    point, module, rec = _module_at(pf, args)
    report = Report("module")
    report.add("point", point)
    report.add("dim", args.dim)
    report.add("recognition", rec.describe())
    _add_actions(report, pf.varset.names, module.mats)
    report.add("simple", is_simple_module(module))
    return report


def cmd_verify(args) -> Report:
    pf = _load_file(args.file)
    point, module, _ = _module_at(pf, args)
    result = verify_poisson_axioms(module, args.trials, args.seed)
    report = Report("verify")
    report.add("point", point)
    report.add("dim", args.dim)
    report.add("trials", args.trials)
    report.add("seed", args.seed)
    report.add("checks", result.checks)
    if result.ok:
        report.add("axioms", "pass")
    else:
        report.fail()
        for axiom, witness in result.failures:
            report.add("violation", f"{axiom}: {witness}")
    return report


def cmd_twist(args) -> Report:
    pf = _load_file(args.file)
    if args.auto not in pf.autos:
        raise AtlasError(f"no automorphism named {args.auto!r} in the file")
    point, module, _ = _module_at(pf, args)
    twisted = twist(module, pf.autos[args.auto])
    report = Report("twist")
    report.add("auto", args.auto)
    report.add("point", point)
    report.add("twisted.point", twisted.point)
    report.add("simple.preserved", is_simple_module(twisted) == is_simple_module(module))
    _add_actions(report, pf.varset.names, twisted.mats)
    return report


def cmd_restrict(args) -> Report:
    pf = _load_file(args.file)
    if args.embed not in pf.embeds:
        raise AtlasError(f"no embedding named {args.embed!r} in the file")
    emb, sub_pres = pf.embeds[args.embed]
    if sub_pres is None:
        raise AtlasError(f"embedding {args.embed!r} carries no sub-presentation bracket")
    point, module, _ = _module_at(pf, args)
    restricted = restrict_to_subalgebra(module, emb, sub_pres)
    report = Report("restrict")
    report.add("embed", args.embed)
    report.add("point", point)
    report.add("sub.point", restricted.point)
    _add_actions(report, sub_pres.varset.names, restricted.mats)
    analysis = analyze_submodules(restricted.mats, restricted.dim)
    report.add("simple", analysis.simple)
    if analysis.semisimple is True:
        dims = sorted(len(s) for s in analysis.decomposition)
        report.add("semisimple", f"yes, summand dims {dims}")
    elif analysis.semisimple is False:
        report.add("semisimple", "no")
    else:
        report.add("semisimple", "lattice not fully enumerated")
    return report


def cmd_homogeneity(args) -> Report:
    pf = _load_file(args.file)
    report = Report("homogeneity")
    report.add("file", args.file)
    points = _box_points(pf, args)
    relation = (_flag_value(pf, "--relation", args.relation, _Parser.parse_expr)
                if args.relation else None)
    rep = homogeneity_report(pf.presentation, points, relation)
    if args.relation:
        report.add("relation", args.relation)
    report.add("ideals.considered", len(rep.ideals))
    for k, (pt, tag) in enumerate(zip(rep.ideals, rep.tags), 1):
        report.add(f"ideal.{k}", f"{pt} [{tag.describe()}]")
    for d, count in rep.count_formula().items():
        report.add(f"classes.{d}", count)
    report.add("verdict", rep.verdict)
    return report


def cmd_catalog(args):
    """The report of `list`, `run` or `run-all`; for `file`, the serialized text.
    Only this subcommand reads the catalog, so only it loads the module."""
    from .catalog import RunConfig, catalog_names, get_entry, run_entry

    if args.action in ("file", "run") and not args.name:
        raise AtlasError(f"catalog {args.action} needs an entry name")
    if args.action in ("list", "run-all") and args.name:
        raise AtlasError(f"catalog {args.action} takes no entry name")
    if args.action == "list":
        report = Report("catalog list")
        for name in catalog_names():
            report.add("entry", name)
        return report
    if args.action == "file":
        pf = get_entry(args.name).presentation_file()
        if pf is None:
            raise AtlasError(f"{args.name} has no ambient presentation to serialize")
        return serialize_presentation(pf)
    config = RunConfig(args.trials, args.seed)
    report = Report(f"catalog {args.action}")
    report.add("trials", config.trials)
    report.add("seed", config.seed)
    for name in [args.name] if args.action == "run" else catalog_names():
        entry_report = run_entry(get_entry(name), config)
        for result in entry_report.results:
            mark = "pass" if result.ok else "FAIL"
            detail = f" -- {result.detail}" if result.detail else ""
            report.add(f"{name}.{result.key}", f"{mark} [{result.cite}]{detail}")
        for note in entry_report.notes:
            report.add(f"{name}.note", note)
        if not entry_report.ok:
            report.fail()
    return report


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="poisson-atlas",
        description="Classify and construct finite-dimensional simple Poisson "
        "modules over affine Poisson algebras, exactly.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, needs_file=True):
        p = sub.add_parser(name)
        if needs_file:
            p.add_argument("file", help="presentation file")
        p.add_argument("--format", choices=("text", "machine"), default="text")
        p.set_defaults(fn=fn)
        return p

    def add_module(name, fn):
        """A subcommand on the module that `_module_at` builds."""
        p = add(name, fn)
        _point_arg(p)
        p.add_argument("--dim", type=_at_least(1), required=True)
        p.add_argument("--character", help="comma-separated scalars for solvable g(J)")
        return p

    _box_flags(add("ideals", cmd_ideals))
    _box_flags(add("leaves", cmd_leaves))
    _point_arg(add("lie", cmd_lie))
    _box_flags(add("classify", cmd_classify))
    add_module("module", cmd_module)
    _trial_flags(add_module("verify", cmd_verify))
    add_module("twist", cmd_twist).add_argument("--auto", required=True)
    add_module("restrict", cmd_restrict).add_argument("--embed", required=True)
    p = _box_flags(add("homogeneity", cmd_homogeneity))
    p.add_argument("--relation", help="expression; restrict to ideals containing it")
    p = add("catalog", cmd_catalog, needs_file=False)
    p.add_argument("action", choices=("list", "run", "run-all", "file"))
    p.add_argument("name", nargs="?")
    _trial_flags(p)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of `main`, built on its first call and reused after."""
    return build_parser()


def main(argv=None) -> int:
    """Run one subcommand and print what it returns: a report, whose status
    `fail` exits 1, or the text of `catalog file`."""
    args = _parser().parse_args(argv)
    try:
        result = args.fn(args)
        if isinstance(result, str):
            print(result, end="")
            return 0
        print(result.render(args.format), end="")
        return 1 if result.status == "fail" else 0
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except ExtensionRequiredError as exc:
        print(f"unsupported computation: {exc}", file=sys.stderr)
        return 3
    except AtlasError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
