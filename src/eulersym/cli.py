"""Command line driver.

Every subcommand prints a small deterministic report: a header naming
the command and the input (basename plus content digest, never a
timestamp or an absolute path), one line per check tagged [pass],
[fail] or [info], and a final result line.  Exit codes: 0 all checks
passed, 1 at least one failed (including a FALSE answer from the
saturation predicate), 2 unusable input or bad invocation.

Inputs are looked up on disk first, then among the bundled examples
(`eulersym examples` lists them), so `eulersym order epr.sys` works
from any directory.
"""

from __future__ import annotations

import argparse
import dataclasses
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
    TruncationError,
)
from .groebner import graded_component, saturate_ideal
from .jets import Parametrization, cartan_check, extract_fundamental_forms, jet_filtration
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
from .specfiles import MAX_AMBIENT, parse_param_file, parse_point_file, system_from_file
from .systems import SymbolSystem, is_saturated, order, prolong


class Report:
    def __init__(self, command: str, input_name: str | None = None,
                 digest: str | None = None, seed: int | None = None):
        self.command = command
        self.input_name = input_name
        self.digest = digest
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

    def emit(self, as_json: bool) -> int:
        print(self.render(as_json))
        return 1 if self.failed else 0


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


def _load_system(arg: str, report: Report) -> SymbolSystem | None:
    """Parse and validate; on failure fill the report and return None."""
    name, text, digest = _read_source(arg)
    report.input_name = name
    report.digest = digest
    try:
        system = system_from_file(text)
    except InvalidSymbolSystem as exc:
        for d in exc.diagnostics:
            report.add("fail", "structure", d)
        return None
    report.add("pass", "structure",
               f"valid symbol system of rank {system.rank}, "
               f"component dims {_dims(system.dims)}")
    return system


def _dims(dims) -> str:
    return "(" + ", ".join(str(d) for d in dims) + ")"


def _vec(v) -> str:
    return "(" + ", ".join(str(Fraction(c)) for c in v) + ")"


def _span(space: FormSpace) -> str:
    if space.is_zero():
        return "0"
    return "span(" + ", ".join(format_polynomial(b) for b in space.basis) + ")"


# ---------------------------------------------------------------- commands


def cmd_validate(args) -> int:
    report = Report("validate")
    system = _load_system(args.file, report)
    if system is not None:
        for k in range(system.rank + 1):
            report.add("info", f"F{k}", _span(system.component(k)))
    return report.emit(args.json)


def cmd_prolong(args) -> int:
    report = Report("prolong")
    system = _load_system(args.file, report)
    if system is None:
        return report.emit(args.json)
    if args.degree is not None and args.degree > system.rank:
        print(f"error: --degree {args.degree} is out of range 1..{system.rank}",
              file=sys.stderr)
        return 2
    degrees = [args.degree] if args.degree is not None else list(range(1, system.rank + 1))
    for k in degrees:
        p = prolong(system.component(k))
        report.add("info", f"prolong-F{k}", f"dim {p.dim} = {_span(p)}")
        nxt = system.component(k + 1)
        report.add("info", f"prolong-F{k}-vs-F{k + 1}",
                   "equal" if p == nxt else
                   f"differ (prolongation dim {p.dim}, component dim {nxt.dim})")
    return report.emit(args.json)


def cmd_order(args) -> int:
    report = Report("order")
    system = _load_system(args.file, report)
    if system is None:
        return report.emit(args.json)
    from .groebner import is_zero_dimensional
    for k in range(1, system.rank + 1):
        empty = is_zero_dimensional(system.component(k))
        report.add("info", f"base-locus-F{k}", "empty" if empty else "nonempty")
    report.add("info", "order", str(order(system)))
    return report.emit(args.json)


def cmd_baselocus(args) -> int:
    report = Report("baselocus")
    system = _load_system(args.file, report)
    if system is None:
        return report.emit(args.json)
    m = order(system)
    report.add("info", "order", str(m))
    if m == system.rank or system.component(m + 1).is_zero():
        report.add("info", "base-ideal",
                   f"F{m + 1} is zero, so the base locus is all of projective space")
        return report.emit(args.json)
    gb = saturate_ideal(list(system.component(m + 1).basis))
    report.add("info", "base-ideal",
               "saturated ideal of F%d = (%s)" % (
                   m + 1, ", ".join(format_polynomial(g) for g in gb.polys)))
    return report.emit(args.json)


def cmd_saturated(args) -> int:
    report = Report("saturated")
    system = _load_system(args.file, report)
    if system is None:
        return report.emit(args.json)
    m = order(system)
    if m != 1:
        report.add("fail", "order",
                   f"the saturation predicate is defined for order 1, "
                   f"this system has order {m}")
        return report.emit(args.json)
    report.add("info", "order", "1")
    res = is_saturated(system)
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
    return report.emit(args.json)


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


def cmd_model(args) -> int:
    report = Report("model")
    system = _load_system(args.file, report)
    if system is None:
        return report.emit(args.json)
    model = build_model(system)
    report.add("info", "ambient",
               f"projective space of dimension {model.ambient_dim - 1} "
               f"({model.ambient_dim} coordinates)")
    for k in range(model.rank + 1):
        start, stop = model.block_bounds[k]
        names = " ".join(model.ambient.names[start:stop])
        weight = f"torus weight {k}"
        report.add("info", f"block-{k}", f"{names or '-'} ({weight})")
    return report.emit(args.json)


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


def cmd_act_check(args) -> int:
    report = Report("act-check", seed=args.seed)
    system = _load_system(args.file, report)
    if system is None:
        return report.emit(args.json)
    checks = _action_counts(build_model(system), random.Random(args.seed), args.trials)
    for tag, good in checks.items():
        report.add("pass" if good == args.trials else "fail", tag,
                   f"{good}/{args.trials} random instances exact")
    return report.emit(args.json)


def cmd_curve_degrees(args) -> int:
    report = Report("curve-degrees", seed=args.seed)
    system = _load_system(args.file, report)
    if system is None:
        return report.emit(args.json)
    degrees = _orbit_degrees(build_model(system), random.Random(args.seed), args.trials)
    hist = {}
    for d in degrees:
        hist[d] = hist.get(d, 0) + 1
    report.add("info", "degree-histogram",
               ", ".join(f"degree {d}: {hist[d]} directions" for d in sorted(hist)))
    m = order(system)
    lo, hi = min(degrees), max(degrees)
    report.add("pass" if hi == system.rank else "fail", "max-degree",
               f"largest sampled orbit degree {hi}, rank {system.rank}")
    report.add("pass" if lo == m else "fail", "min-degree",
               f"smallest sampled orbit degree {lo}, order {m}" + (
                   "" if lo == m else
                   " (sampling may have missed the base locus; raise --trials "
                   "or note that the minimizing directions may be irrational)"))
    return report.emit(args.json)


def cmd_implicitize(args) -> int:
    report = Report("implicitize")
    system = _load_system(args.file, report)
    if system is None:
        return report.emit(args.json)
    model = build_model(system)
    size = comb(model.ambient_dim + args.degree - 1, args.degree)
    if size > MAX_AMBIENT:
        print(f"error: --degree {args.degree}: {size} monomials of degree {args.degree} "
              f"in {model.ambient_dim} coordinates exceed the cap {MAX_AMBIENT}",
              file=sys.stderr)
        return 2
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
    return report.emit(args.json)


def _load_parametrization(args, report: Report) -> Parametrization | None:
    """Parse a parametrization (or a system's chart); on failure fill the
    report and return None."""
    name, text, digest = _read_source(args.file)
    report.input_name = name
    report.digest = digest
    if args.chart:
        try:
            system = system_from_file(text)
        except InvalidSymbolSystem as exc:
            for d in exc.diagnostics:
                report.add("fail", "structure", d)
            return None
        model = build_model(system)
        param = Parametrization(system.context, tuple(model.chart_functions()))
    else:
        pf = parse_param_file(text)
        param = Parametrization(pf.context, pf.coords, base_point=pf.base_point)
    if getattr(args, "degree", None) is not None:
        param = dataclasses.replace(param, truncation_degree=args.degree)
    return param


def _parse_at(text: str, n: int) -> tuple[Fraction, ...]:
    parts = [chunk.strip() for chunk in text.split(",")]
    if len(parts) != n:
        raise ParseError(f"--at needs {n} coordinates, got {len(parts)}", 1, 1)
    try:
        return tuple(Fraction(p) for p in parts)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"--at: bad rational in {text!r}", 1, 1) from None


def cmd_ff(args) -> int:
    report = Report("ff")
    param = _load_parametrization(args, report)
    if param is None:
        return report.emit(args.json)
    base = _parse_at(args.at, param.context.n) if args.at else None
    try:
        filt = jet_filtration(param, base)
        ffs = extract_fundamental_forms(param, base)
    except (ImmersionError, TruncationError) as exc:
        report.add("fail", "extraction", str(exc))
        return report.emit(args.json)
    report.add("info", "base-point", _vec(ffs.base_point))
    report.add("info", "filtration",
               f"dims by vanishing order {_dims(filt.dims)}")
    for d in range(ffs.rank + 1):
        comp = ffs.component(d)
        report.add("info", f"G{d}", f"dim {comp.dim} = {_span(comp)}")
    if ffs.is_symbol_system:
        report.add("pass", "closure",
                   f"the graded pieces form a symbol system of rank {ffs.rank}")
    else:
        for d in ffs.closure_diagnostics:
            report.add("fail", "closure", d)
    return report.emit(args.json)


def cmd_cartan(args) -> int:
    report = Report("cartan", seed=args.seed)
    param = _load_parametrization(args, report)
    if param is None:
        return report.emit(args.json)
    cr = cartan_check(param, trials=args.trials, seed=args.seed)
    for i, entry in enumerate(cr.entries, start=1):
        detail = f"base {_vec(entry.base_point)}: dims {_dims(entry.dims)}"
        if not entry.passed:
            detail += "; " + "; ".join(entry.diagnostics)
        report.add("pass" if entry.passed else "fail", f"point-{i}", detail)
    if cr.skipped:
        report.add("info", "skipped",
                   f"{cr.skipped} degenerate base points were skipped")
    return report.emit(args.json)


def _chart_extraction_matches(system: SymbolSystem, report: Report):
    model = build_model(system)
    param = Parametrization(system.context, tuple(model.chart_functions()))
    ffs = extract_fundamental_forms(param)
    same = (ffs.dims == system.dims and
            all(ffs.component(k) == system.component(k)
                for k in range(system.rank + 1)))
    report.add("pass" if same else "fail", "chart-extraction",
               "graded pieces at the origin of the model chart reproduce the "
               "input system" if same else
               f"graded pieces at the origin have dims {_dims(ffs.dims)}, "
               f"input has {_dims(system.dims)}")
    return param


def cmd_report(args) -> int:
    report = Report("report", seed=args.seed)
    system = _load_system(args.file, report)
    if system is None:
        return report.emit(args.json)
    m = order(system)
    report.add("info", "order", str(m))
    if m == 1:
        res = is_saturated(system)
        report.add("info", "saturated", "TRUE" if res.saturated else "FALSE")
        for d in res.diagnostics:
            report.add("info", "saturation-detail", d)
    else:
        report.add("info", "saturated",
                   f"predicate not defined at order {m}, skipped")
    model = build_model(system)
    report.add("info", "ambient",
               f"projective space of dimension {model.ambient_dim - 1}")
    rng = random.Random(args.seed)
    good = min(_action_counts(model, rng, 10).values())
    report.add("pass" if good == 10 else "fail", "actions",
               f"{good}/10 random instances of every action identity exact")
    degrees = _orbit_degrees(model, rng, 40)
    report.add("pass" if max(degrees) == system.rank else "fail", "max-degree",
               f"largest sampled orbit degree {max(degrees)}, rank {system.rank}")
    space = implicitize(model, 2)
    report.add("info", "relations",
               f"degree-2 forms vanishing on the model: dim {space.dim}")
    param = _chart_extraction_matches(system, report)
    cr = cartan_check(param, trials=3, seed=args.seed)
    report.add("pass" if cr.passed else "fail", "cartan",
               f"{sum(e.passed for e in cr.entries)}/{len(cr.entries)} random "
               f"base points give valid symbol systems")
    return report.emit(args.json)


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


def _count(least: int):
    """argparse type: an integer no smaller than `least`."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid integer {text!r}") from None
        if value < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}, got {value}")
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

    def add(name, handler, help_text, parents=(common,)):
        p = sub.add_parser(name, help=help_text, parents=list(parents))
        p.set_defaults(handler=handler)
        return p

    p = add("validate", cmd_validate, "check the axioms on a system file")
    p.add_argument("file")

    p = add("prolong", cmd_prolong, "prolongation spaces of the components")
    p.add_argument("file")
    p.add_argument("--degree", type=_count(1), default=None,
                   help="single degree instead of the full range")

    p = add("order", cmd_order, "largest degree whose base locus is empty")
    p.add_argument("file")

    p = add("baselocus", cmd_baselocus,
            "saturated ideal of the first nonempty base locus")
    p.add_argument("file")

    p = add("saturated", cmd_saturated,
            "saturation predicate for order-1 systems (FALSE exits 1)")
    p.add_argument("file")
    p.add_argument("--points", default=None,
                   help="file of rational points for an independent "
                        "cross-check of the degree-2 slice")

    p = add("model", cmd_model, "ambient coordinates and block layout")
    p.add_argument("file")

    p = add("act-check", cmd_act_check,
            "verify the translation and torus actions on random input")
    p.add_argument("file")
    p.add_argument("--trials", type=_count(1), default=20)
    p.add_argument("--seed", type=int, default=0)

    p = add("curve-degrees", cmd_curve_degrees,
            "orbit-curve degrees along sampled directions")
    p.add_argument("file")
    p.add_argument("--trials", type=_count(1), default=40)
    p.add_argument("--seed", type=int, default=0)

    p = add("implicitize", cmd_implicitize,
            "forms of a given degree vanishing on the model")
    p.add_argument("file")
    p.add_argument("--degree", type=_count(0), required=True)

    p = add("ff", cmd_ff, "jet filtration and fundamental forms at a point")
    p.add_argument("file", help="a parametrization file, or a system file "
                                "with --chart")
    p.add_argument("--chart", action="store_true",
                   help="treat the input as a system file and use the "
                        "graph chart of its model")
    p.add_argument("--at", default=None,
                   help="base point as comma-separated rationals")
    p.add_argument("--degree", type=_count(1), default=None,
                   help="truncation degree for the jet expansion")

    p = add("cartan", cmd_cartan,
            "test the closure axiom at random base points")
    p.add_argument("file")
    p.add_argument("--chart", action="store_true",
                   help="treat the input as a system file and use the "
                        "graph chart of its model")
    p.add_argument("--trials", type=_count(1), default=5)
    p.add_argument("--seed", type=int, default=0)

    p = add("report", cmd_report, "consolidated battery on a system file")
    p.add_argument("file")
    p.add_argument("--seed", type=int, default=0)

    p = add("examples", cmd_examples, "list or print the bundled inputs")
    p.add_argument("name", nargs="?", default=None)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ParseError, OSError, DegreeCapExceeded, AlgebraError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
