"""Command line driver.

Every subcommand prints a small deterministic report: a header naming
the command and the input (basename plus content digest, never a
timestamp or an absolute path), one line per check tagged [pass],
[fail] or [info], and a final result line.  Exit codes: 0 all checks
passed, 1 at least one failed (including a FALSE answer from the
saturation predicate), 2 unusable input or bad invocation.

`main` loads and validates the input into a fresh report, runs the
subcommand's `cmd_*` function, which only adds entries, then renders the
report and sets the exit code; an invalid system skips the command.
It parses with one argparse tree per process, built on the first call.
The tree holds the names of each subcommand's loader and handler, never
the functions: `main` looks them up in this module on every call, so a
handler rebound here later (as a tracer does) is the one that runs.

Inputs are looked up on disk first, then among the bundled examples
(`eulersym examples` lists them), so `eulersym order epr.sys` works
from any directory.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import random
import sys
from fractions import Fraction
from importlib import resources
from math import comb
from pathlib import Path

from . import sampling
from .errors import (
    AlgebraError,
    DegreeCapExceeded,
    ImmersionError,
    InvalidSymbolSystem,
    ParseError,
    SaturationPreconditionError,
)
from .groebner import graded_component, saturate_ideal
from .jets import Parametrization, cartan_check, extract_fundamental_forms
from .model import (
    EulerModel,
    build_model,
    euler_act,
    group_act,
    implicitize,
    orbit_curve_degree,
    phi_eval,
    pullback,
    random_ambient_point,
)
from .poly import format_polynomial
from .spaces import FormSpace, vanishing_space
from .specfiles import (MAX_AMBIENT, MAX_TRIALS, _parse_rational_list, parse_param_file,
                        parse_point_file, system_from_file)
from .systems import SymbolSystem, is_saturated, order, prolong


class Unusable(Exception):
    """An invocation that cannot run on a valid input (exit 2)."""


class Report:
    def __init__(self, command: str, seed: int | None = None):
        self.command = command
        self.input_name: str | None = None
        self.digest: str | None = None
        self.seed = seed
        self.entries: list[tuple[str, str, str]] = []

    def add(self, status: str, tag: str, detail: str):
        self.entries.append((status, tag, detail))

    @property
    def failed(self) -> bool:
        return any(status == "fail" for status, _, _ in self.entries)

    def render(self, as_json: bool) -> str:
        result = "FAIL" if self.failed else "PASS"
        if as_json:
            doc = {"command": self.command}
            if self.input_name is not None:
                doc["input"] = self.input_name
                doc["sha256"] = self.digest
            if self.seed is not None:
                doc["seed"] = self.seed
            doc["entries"] = [
                {"status": s, "tag": t, "detail": d} for s, t, d in self.entries
            ]
            doc["result"] = result
            return json.dumps(doc, indent=2)
        lines = [f"command: {self.command}"]
        if self.input_name is not None:
            lines.append(f"input: {self.input_name} sha256:{self.digest}")
        if self.seed is not None:
            lines.append(f"seed: {self.seed}")
        lines.extend(f"[{s}] {t}: {d}" for s, t, d in self.entries)
        lines.append(f"result: {result}")
        return "\n".join(lines)


def bundled_names() -> list[str]:
    root = resources.files("eulersym.data")
    return sorted(e.name for e in root.iterdir()
                  if e.name.endswith((".sys", ".par")))


def bundled_text(name: str) -> str:
    return resources.files("eulersym.data").joinpath(name).read_text()


def _read_source(arg: str) -> tuple[str, str, str]:
    """Resolve a path or bundled-example name to (basename, text, digest)."""
    p = Path(arg)
    if p.exists():
        data = p.read_bytes()
        name = p.name
    elif arg in bundled_names():
        data = resources.files("eulersym.data").joinpath(arg).read_bytes()
        name = arg
    else:
        raise FileNotFoundError(
            f"{arg}: not a file and not a bundled example "
            f"(try 'eulersym examples')")
    try:
        text = data.decode()
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        col = exc.start - data.rfind(b"\n", 0, exc.start)
        raise ParseError(f"{name} is not UTF-8 text (byte 0x{data[exc.start]:02x})",
                         line, col) from None
    return name, text, hashlib.sha256(data).hexdigest()[:12]


def _read_input(args, report: Report, parse):
    """`parse` applied to the text of `args.file`, with the input named in
    the report header; None, with the report failed, on an invalid system."""
    report.input_name, text, report.digest = _read_source(args.file)
    try:
        return parse(text)
    except InvalidSymbolSystem as exc:
        for d in exc.diagnostics:
            report.add("fail", "structure", d)
        return None


def _load_system(args, report: Report) -> SymbolSystem | None:
    system = _read_input(args, report, system_from_file)
    if system is not None:
        report.add("pass", "structure",
                   f"valid symbol system of rank {system.rank}, "
                   f"component dims {_dims(system.dims)}")
    return system


def _chart(model: EulerModel) -> Parametrization:
    """The graph chart of a model as a parametrization."""
    return Parametrization(model.system.context, tuple(model.chart_functions()))


def _load_parametrization(args, report: Report) -> Parametrization | None:
    """A `.par` input, or under --chart the graph chart of a system's model."""
    def parse(text: str) -> Parametrization:
        if args.chart:
            return _chart(build_model(system_from_file(text)))
        return parse_param_file(text)
    return _read_input(args, report, parse)


def _dims(dims) -> str:
    return "(" + ", ".join(str(d) for d in dims) + ")"


def _vec(v) -> str:
    return "(" + ", ".join(str(Fraction(c)) for c in v) + ")"


def _span(space: FormSpace) -> str:
    if space.is_zero():
        return "0"
    return "span(" + ", ".join(format_polynomial(b) for b in space.basis) + ")"


# ---------------------------------------------------------------- commands


def cmd_validate(args, report: Report, system: SymbolSystem):
    for k in range(system.rank + 1):
        report.add("info", f"F{k}", _span(system.component(k)))


def cmd_prolong(args, report: Report, system: SymbolSystem):
    if args.degree is not None and args.degree > system.rank:
        raise Unusable(f"--degree {args.degree} is out of range 1..{system.rank}")
    degrees = [args.degree] if args.degree is not None else list(range(1, system.rank + 1))
    for k in degrees:
        p = prolong(system.component(k))
        report.add("info", f"prolong-F{k}", f"dim {p.dim} = {_span(p)}")
        nxt = system.component(k + 1)
        report.add("info", f"prolong-F{k}-vs-F{k + 1}",
                   "equal" if p == nxt else
                   f"differ (prolongation dim {p.dim}, component dim {nxt.dim})")


def cmd_order(args, report: Report, system: SymbolSystem):
    for k in range(1, system.rank + 1):
        report.add("info", f"base-locus-F{k}",
                   "empty" if system.base_locus_empty(k) else "nonempty")
    report.add("info", "order", str(order(system)))


def cmd_baselocus(args, report: Report, system: SymbolSystem):
    m = order(system)
    report.add("info", "order", str(m))
    if m == system.rank or system.component(m + 1).is_zero():
        report.add("info", "base-ideal",
                   f"F{m + 1} is zero, so the base locus is all of projective space")
        return
    gb = saturate_ideal(system.ideal(m + 1))
    report.add("info", "base-ideal",
               "saturated ideal of F%d = (%s)" % (
                   m + 1, ", ".join(format_polynomial(g) for g in gb.polys)))


def cmd_saturated(args, report: Report, system: SymbolSystem):
    m = order(system)
    if m != 1:
        report.add("fail", "order",
                   f"the saturation predicate is defined for order 1, "
                   f"this system has order {m}")
        return
    report.add("info", "order", "1")
    try:
        res = is_saturated(system)
    except SaturationPreconditionError:
        report.add("fail", "F2", "the saturation predicate needs a nonzero F2, "
                                 "this system has F2 = 0")
        return
    report.add("info", "base-ideal",
               "(" + ", ".join(format_polynomial(g) for g in res.base_ideal.polys) + ")")
    report.add("pass" if res.degree2_matches else "fail", "degree-2-slice",
               "degree-2 part of the saturated base ideal equals F2"
               if res.degree2_matches else
               "degree-2 part of the saturated base ideal differs from F2: "
               + _span(graded_component(res.base_ideal, 2)))
    report.add("pass" if res.prolongation_exact else "fail", "prolongation-exactness",
               "every component is the prolongation of the one below"
               if res.prolongation_exact else "; ".join(res.diagnostics))
    report.add("info", "saturated", "TRUE" if res.saturated else "FALSE")
    if args.points:
        _cross_check_points(args.points, system, report)


def _cross_check_points(path: str, system: SymbolSystem, report: Report):
    name, text, _ = _read_source(path)
    points = parse_point_file(text, system.context.n)
    if not points:
        report.add("fail", "point-cross-check", f"{name}: no points given")
        return
    off = [pt for pt in points
           if any(b(pt) != 0 for b in system.component(2).basis)]
    if off:
        report.add("fail", "point-cross-check",
                   f"{len(off)} of {len(points)} points do not lie on the "
                   f"base locus, e.g. {_vec(off[0])}")
        return
    cut = vanishing_space(system.context, 2, points)
    f2 = system.component(2)
    if cut == f2:
        report.add("pass", "point-cross-check",
                   f"degree-2 forms through the {len(points)} supplied points "
                   f"are exactly F2")
    else:
        report.add("info", "point-cross-check",
                   f"degree-2 forms through the supplied points have dim "
                   f"{cut.dim}, F2 has dim {f2.dim}; more points would be "
                   f"needed to cut the space down")


def cmd_model(args, report: Report, system: SymbolSystem):
    model = build_model(system)
    report.add("info", "ambient",
               f"projective space of dimension {model.ambient_dim - 1} "
               f"({model.ambient_dim} coordinates)")
    for k in range(model.rank + 1):
        start, stop = model.block_bounds[k]
        names = " ".join(model.ambient.names[start:stop])
        weight = f"torus weight {k}"
        report.add("info", f"block-{k}", f"{names or '-'} ({weight})")


def _action_counts(model: EulerModel, rng: random.Random, trials: int) -> dict[str, int]:
    """Exact successes of each action identity over seeded random instances."""
    n = model.system.context.n
    checks = {
        "group-law": 0,
        "translation-equivariance": 0,
        "euler-scaling": 0,
        "torus-normalization": 0,
    }
    for _ in range(trials):
        v = sampling.vector(rng, n)
        u = sampling.vector(rng, n)
        z = random_ambient_point(model, rng)
        lam = sampling.nonzero_rational(rng)
        t = sampling.nonzero_rational(rng)
        w = sampling.vector(rng, n)
        if group_act(model, v, group_act(model, u, z)) == \
                group_act(model, [a + b for a, b in zip(v, u)], z):
            checks["group-law"] += 1
        if group_act(model, v, phi_eval(model, t, w)) == \
                phi_eval(model, t, [wi + t * vi for wi, vi in zip(w, v)]):
            checks["translation-equivariance"] += 1
        if euler_act(model, lam, phi_eval(model, t, w)) == \
                phi_eval(model, t, [lam * wi for wi in w]):
            checks["euler-scaling"] += 1
        if euler_act(model, lam, group_act(model, v, z)) == \
                group_act(model, [lam * vi for vi in v], euler_act(model, lam, z)):
            checks["torus-normalization"] += 1
    return checks


def _orbit_degrees(model: EulerModel, rng: random.Random, trials: int) -> list[int]:
    """Orbit-curve degrees along seeded sparse random directions."""
    n = model.system.context.n
    return [orbit_curve_degree(model, sampling.sparse_direction(rng, n))
            for _ in range(trials)]


def _bound_status(sampled: int, bound: int, m: int, rank: int) -> str:
    """Every orbit degree lies in [order m, rank]: Bs(F^m) is empty, so F^m(w) != 0,
    and F^k = 0 above the rank.  A sampled degree outside fails, one that attains
    `bound` passes, and any other is a sampling miss, not a defect."""
    if not m <= sampled <= rank:
        return "fail"
    return "pass" if sampled == bound else "info"


def cmd_act_check(args, report: Report, system: SymbolSystem):
    checks = _action_counts(build_model(system), random.Random(args.seed), args.trials)
    for tag, good in checks.items():
        report.add("pass" if good == args.trials else "fail", tag,
                   f"{good}/{args.trials} random instances exact")


def cmd_curve_degrees(args, report: Report, system: SymbolSystem):
    degrees = _orbit_degrees(build_model(system), random.Random(args.seed), args.trials)
    hist = {}
    for d in degrees:
        hist[d] = hist.get(d, 0) + 1
    report.add("info", "degree-histogram",
               ", ".join(f"degree {d}: {hist[d]} directions" for d in sorted(hist)))
    m = order(system)
    lo, hi = min(degrees), max(degrees)
    report.add(_bound_status(hi, system.rank, m, system.rank), "max-degree",
               f"largest sampled orbit degree {hi}, rank {system.rank}")
    report.add(_bound_status(lo, m, m, system.rank), "min-degree",
               f"smallest sampled orbit degree {lo}, order {m}" + (
                   "" if lo == m else
                   " (sampling may have missed the base locus; raise --trials "
                   "or note that the minimizing directions may be irrational)"))


def cmd_implicitize(args, report: Report, system: SymbolSystem):
    model = build_model(system)
    size = comb(model.ambient_dim + args.degree - 1, args.degree)
    if size > MAX_AMBIENT:
        raise Unusable(f"--degree {args.degree}: {size} monomials of degree {args.degree} "
                       f"in {model.ambient_dim} coordinates exceed the cap {MAX_AMBIENT}")
    space = implicitize(model, args.degree)
    report.add("info", "relations",
               f"forms of degree {args.degree} vanishing on the model: dim {space.dim}")
    for i, b in enumerate(space.basis, start=1):
        report.add("info", f"generator-{i}", format_polynomial(b))
    bad = [i for i, b in enumerate(space.basis, start=1)
           if not pullback(model, b).is_zero()]
    report.add("fail" if bad else "pass", "verification",
               "not zero on the chart: " + ", ".join(f"generator-{i}" for i in bad)
               if bad else
               "every generator pulls back through the chart to the zero polynomial")


def cmd_ff(args, report: Report, param: Parametrization):
    base = None
    if args.at is not None:
        n, given = param.context.n, len(args.at.split(",")) if args.at else 0
        if given != n:
            raise ParseError(f"--at needs {n} coordinates, got {given}", 1, 1)
        # the grammar of a .par `at:` line, with its caps
        base = _parse_rational_list(args.at, 1, 1)
    try:
        ffs = extract_fundamental_forms(param, base)
    except ImmersionError as exc:
        report.add("fail", "extraction", str(exc))
        return
    report.add("info", "base-point", _vec(ffs.base_point))
    report.add("info", "filtration",
               f"dims by vanishing order {_dims(ffs.filtration_dims)}")
    for d in range(ffs.rank + 1):
        comp = ffs.component(d)
        report.add("info", f"G{d}", f"dim {comp.dim} = {_span(comp)}")
    if ffs.is_symbol_system:
        report.add("pass", "closure",
                   f"the graded pieces form a symbol system of rank {ffs.rank}")
    else:
        for d in ffs.closure_diagnostics:
            report.add("fail", "closure", d)


def cmd_cartan(args, report: Report, param: Parametrization):
    cr = cartan_check(param, trials=args.trials, seed=args.seed)
    for i, entry in enumerate(cr.entries, start=1):
        detail = f"base {_vec(entry.base_point)}: dims {_dims(entry.dims)}"
        if not entry.passed:
            detail += "; " + "; ".join(entry.diagnostics)
        report.add("pass" if entry.passed else "fail", f"point-{i}", detail)
    if cr.skipped:
        report.add("info", "skipped",
                   f"{cr.skipped} degenerate base points were skipped")


def cmd_report(args, report: Report, system: SymbolSystem):
    m = order(system)
    report.add("info", "order", str(m))
    try:
        res = is_saturated(system)
    except SaturationPreconditionError:
        why = f"at order {m}" if m != 1 else "for F2 = 0"
        report.add("info", "saturated", f"predicate not defined {why}, skipped")
    else:
        report.add("info", "saturated", "TRUE" if res.saturated else "FALSE")
        for d in res.diagnostics:
            report.add("info", "saturation-detail", d)
    model = build_model(system)
    report.add("info", "ambient",
               f"projective space of dimension {model.ambient_dim - 1}")
    rng = random.Random(args.seed)
    good = min(_action_counts(model, rng, 10).values())
    report.add("pass" if good == 10 else "fail", "actions",
               f"{good}/10 random instances of every action identity exact")
    degrees = _orbit_degrees(model, rng, 40)
    report.add(_bound_status(max(degrees), system.rank, m, system.rank), "max-degree",
               f"largest sampled orbit degree {max(degrees)}, rank {system.rank}")
    space = implicitize(model, 2)
    report.add("info", "relations",
               f"degree-2 forms vanishing on the model: dim {space.dim}")
    param = _chart(model)
    ffs = extract_fundamental_forms(param)
    same = (ffs.dims == system.dims and
            all(ffs.component(k) == system.component(k)
                for k in range(system.rank + 1)))
    report.add("pass" if same else "fail", "chart-extraction",
               "graded pieces at the origin of the model chart reproduce the "
               "input system" if same else
               f"graded pieces at the origin have dims {_dims(ffs.dims)}, "
               f"input has {_dims(system.dims)}")
    cr = cartan_check(param, trials=3, seed=args.seed)
    report.add("pass" if cr.passed else "fail", "cartan",
               f"{sum(e.passed for e in cr.entries)}/{len(cr.entries)} random "
               f"base points give valid symbol systems")


def cmd_examples(args) -> int:
    if args.name is None:
        for name in bundled_names():
            first = bundled_text(name).splitlines()[0].lstrip("# ").strip()
            print(f"{name:16} {first}")
        return 0
    if args.name not in bundled_names():
        print(f"error: no bundled example named {args.name!r}", file=sys.stderr)
        return 2
    sys.stdout.write(bundled_text(args.name))
    return 0


# ---------------------------------------------------------------- parser


def _count(least: int, most: int | None = None):
    """argparse type: an integer no smaller than `least` (nor larger than `most`)."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid integer {text!r}") from None
        if value < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}, got {value}")
        if most is not None and value > most:
            raise argparse.ArgumentTypeError(f"must be at most {most}, got {value}")
        return value
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eulersym",
        description="Exact computations with symbol systems of symmetric "
                    "forms and their projective models.")
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true",
                        help="emit the report as JSON")

    def add(name, handler, help_text, chart=False, trials=None, seed=False):
        """A subcommand that loads one input file; `main` runs the function
        named `handler` on it."""
        p = sub.add_parser(name, help=help_text, parents=[common])
        p.set_defaults(handler=handler,
                       load="_load_parametrization" if chart else "_load_system")
        if chart:
            p.add_argument("file", help="a parametrization file, or a system file "
                                        "with --chart")
            p.add_argument("--chart", action="store_true",
                           help="treat the input as a system file and use the "
                                "graph chart of its model")
        else:
            p.add_argument("file")
        if trials is not None:
            p.add_argument("--trials", type=_count(1, MAX_TRIALS), default=trials)
        if seed:
            p.add_argument("--seed", type=int, default=0)
        return p

    add("validate", "cmd_validate", "check the axioms on a system file")

    p = add("prolong", "cmd_prolong", "prolongation spaces of the components")
    p.add_argument("--degree", type=_count(1), default=None,
                   help="single degree instead of the full range")

    add("order", "cmd_order", "largest degree whose base locus is empty")
    add("baselocus", "cmd_baselocus", "saturated ideal of the first nonempty base locus")

    p = add("saturated", "cmd_saturated",
            "saturation predicate for order-1 systems (FALSE exits 1)")
    p.add_argument("--points", default=None,
                   help="file of rational points for an independent "
                        "cross-check of the degree-2 slice")

    add("model", "cmd_model", "ambient coordinates and block layout")
    add("act-check", "cmd_act_check",
        "verify the translation and torus actions on random input", trials=20, seed=True)
    add("curve-degrees", "cmd_curve_degrees",
        "orbit-curve degrees along sampled directions", trials=40, seed=True)

    p = add("implicitize", "cmd_implicitize",
            "forms of a given degree vanishing on the model")
    p.add_argument("--degree", type=_count(0), required=True)

    p = add("ff", "cmd_ff", "jet filtration and fundamental forms at a point", chart=True)
    p.add_argument("--at", default=None,
                   help="base point as comma-separated rationals")

    add("cartan", "cmd_cartan", "test the closure axiom at random base points",
        chart=True, trials=5, seed=True)
    add("report", "cmd_report", "consolidated battery on a system file", seed=True)

    p = sub.add_parser("examples", help="list or print the bundled inputs",
                       parents=[common])
    p.set_defaults(handler="cmd_examples", load=None)
    p.add_argument("name", nargs="?", default=None)

    return parser


_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    handler = globals()[args.handler]
    try:
        if args.load is None:
            return handler(args)
        report = Report(args.command, seed=getattr(args, "seed", None))
        subject = globals()[args.load](args, report)
        if subject is not None:
            handler(args, report, subject)
        print(report.render(args.json))
        return 1 if report.failed else 0
    except (ParseError, OSError, DegreeCapExceeded, AlgebraError, Unusable) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
