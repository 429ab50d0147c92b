"""The three workloads, as passes of jobs generated from the workload seed.

A pass is the workload's fixed mix of jobs.  Every pass draws fresh inputs
from (seed, pass index): Segre frames are redrawn until unused in the run
(`Run.claim`), and model and cli inputs carry pass-specific variable names
or files, so no job repeats another job's exact input and memoizing whole
answers cannot win.  Pass 0 of `model` and `cli` runs the bundled inputs as
shipped, where answers are compared with digests recorded on the seed
commit (expected.json); later passes run them in seeded monomial frames,
where answers are mapped back to the shipped frame before comparing.

Jobs pass only the arguments a user must pass: no `samples=`/`--samples`,
and no sampling seed for `implicitize`.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from pathlib import Path
from typing import Any, Callable

import oracle as O

HERE = Path(__file__).resolve().parent
SYSTEMS = ["epr.sys", "quadric.sys", "rnc.sys", "triple.sys", "veronese.sys"]
PARAMS = ["cubiccurve.par", "quadric.par"]


@dataclass
class Job:
    slot: str  # place in the pass mix, the same in every pass
    key: str  # the exact input
    run: Callable[[], Any]
    check: Callable[[Any], bool]


class Run:
    """Per-run state: seed, bundled data, recorded answers, used inputs."""

    def __init__(self, root: Path, seed: int, work: Path):
        self.seed = seed
        self.data = root / "src" / "eulersym" / "data"
        self.work = work
        self.expected = json.loads((HERE / "expected.json").read_text())
        self.keys: set[str] = set()

    def rng(self, p: int) -> random.Random:
        return random.Random(f"{self.seed}:{p}")

    def claim(self, key: str) -> bool:
        if key in self.keys:
            return False
        self.keys.add(key)
        return True

    def text(self, name: str) -> str:
        return (self.data / name).read_text()


def rational(rng, lo=-20, hi=20, den=10):
    return Fraction(rng.randint(lo, hi), rng.randint(1, den))


def nonzero(rng):
    while True:
        q = rational(rng)
        if q:
            return q


def vector(rng, n, generic=False):
    return tuple(nonzero(rng) if generic else rational(rng) for _ in range(n))


def monomial_frame(rng, n):
    perm = list(range(n))
    rng.shuffle(perm)
    return perm, [rng.choice([-4, -3, -2, -1, 1, 2, 3, 4]) for _ in range(n)]


def names_for(p, n):
    """Variable names of pass p: the shipped x1..xn on pass 0, fresh after."""
    return [f"x{i}" if p == 0 else f"p{p}x{i}" for i in range(1, n + 1)]


def as_dicts(polys):
    return [dict(q.terms) for q in polys]


def summarize(answer) -> str:
    """Comparable text of an answer, for traced-versus-untraced checks."""
    if hasattr(answer, "components") and hasattr(answer, "dims"):
        return repr([repr(c) for c in answer.components])
    return repr(answer)


# ------------------------------------------------------------------ segre

# (n, frame) per instance; P1^n is the system of x1*...*xn.  A monomial
# frame only rescales x1*...*xn, so its jobs cost the same for every seed.
# The 28 cheap P1^3 instances make the pass's latency quantiles land inside
# runs of such jobs (p50 among the prolong-F2 jobs, p90 among the
# is_saturated jobs) instead of in the gaps between the seed-dependent costs
# of the generic frames, and they are spread over the pass so that they
# sample the host's speed across the whole run.
_P13 = [(3, "monomial")] * 7
SEGRE_MIX = _P13 + [(5, "monomial")] + _P13 + [(3, "generic"), (4, "monomial")] + \
    _P13 + [(4, "generic")] + _P13 + [(3, "generic")]


def segre_forms(rng, n, frame):
    if frame == "monomial":
        # rational scales: x1*...*xn only sees their product, which must
        # take enough values to stay fresh over many passes
        perm = list(range(n))
        rng.shuffle(perm)
        return [O.linear_form([nonzero(rng) if j == perm[i] else 0 for j in range(n)])
                for i in range(n)]
    while True:
        forms = [O.linear_form([rng.randint(-2, 2) for _ in range(n)]) for _ in range(n)]
        if len(O.canonical(forms)) == n:
            return forms


def segre_pass(run: Run, p: int) -> list[Job]:
    import eulersym as E
    rng = run.rng(p)
    jobs = []
    for idx, (n, frame) in enumerate(SEGRE_MIX):
        for _ in range(1000):
            forms = segre_forms(rng, n, frame)
            top = O.product(forms, n)
            given = f"{n} {sorted(top.items())}"
            if run.claim("segre " + given):
                break
        else:
            raise RuntimeError(f"no fresh P1^{n} input left in this run")
        poly = E.Polynomial(E.context(*names_for(0, n)), top)
        jobs.extend(_segre_jobs(E, f"P1^{n}/{frame}/{idx}", n, frame, forms, poly, given))
    return jobs


def _segre_jobs(E, slot, n, frame, forms, poly, given):
    state = {}
    expected = {}

    def component(k):  # F^k of the Segre system in this frame, by the oracle
        if k not in expected:
            if k == 1:
                expected[k] = O.canonical([{O.unit(n, i): 1} for i in range(n)])
            else:
                expected[k] = O.canonical(O.products_of(forms, k)) if k <= n else ()
        return expected[k]

    def prolonged(k):  # prolong(F^k) by the oracle; all quadrics for k = 1
        if k == 1:
            return O.canonical([{m: 1} for m in O.monomials(n, 2)])
        return component(k + 1)

    def build():
        state["S"] = E.from_polynomial(poly)
        return state["S"]

    def check_build(S):
        return (S.dims == tuple(comb(n, k) for k in range(n + 1))
                and all(O.canonical(as_dicts(S.component(k).basis)) == component(k)
                        for k in range(1, n + 1)))

    def check_saturated(res):
        ok = bool(res) and res.degree2_matches and res.prolongation_exact
        if ok and frame == "monomial":
            # the base ideal is generated by the squarefree quadrics
            ok = O.canonical(as_dicts(res.base_ideal.polys)) == O.canonical(
                [{m: 1} for m in O.monomials(n, 2, squarefree=True)])
        return ok

    jobs = [
        Job(slot + "/build", "build " + given, build, check_build),
        Job(slot + "/order", "order " + given, lambda: E.order(state["S"]), lambda m: m == 1),
        Job(slot + "/saturated", "saturated " + given, lambda: E.is_saturated(state["S"]),
            check_saturated),
    ]
    for k in range(1, n + 1):
        jobs.append(Job(
            f"{slot}/prolong-F{k}", f"prolong-F{k} {given}",
            lambda k=k: E.prolong(state["S"].component(k)),
            lambda P, k=k: O.canonical(as_dicts(P.basis)) == prolonged(k)))
    return jobs


# ------------------------------------------------------------------ model

# full_system(n, r) models with ambient dimension C(n+r, n) from 10 to 35.
# full(3,3) gets two action jobs: 25 jobs a pass put p50 in the middle of
# the 13th-cheapest job's samples (an action job) and p90 in the middle of
# the 23rd's (an implicitize job), not on the edge between two jobs whose
# costs differ by a quarter or more.
FULL_ACTION = [(2, 3), (3, 2), (2, 4), (4, 2), (3, 3), (3, 3), (2, 5), (5, 2), (6, 2),
               (2, 6), (4, 3), (3, 4)]
FULL_IMPLICIT = [(2, 2), (2, 3), (3, 2)]


def veronese_relations(n, r):
    """dim of degree-2 forms on the Veronese model of full_system(n, r)."""
    ambient = comb(n + r, n)
    return comb(ambient + 1, 2) - comb(n + 2 * r, n)


def model_pass(run: Run, p: int) -> list[Job]:
    import eulersym as E
    rng = run.rng(p)
    exp = run.expected["model"]
    jobs = []
    for n, r in sorted(set(FULL_ACTION) | set(FULL_IMPLICIT)):
        ctx = E.context(*names_for(p, n))
        label = f"full({n},{r})"
        given = f"{label} {ctx.names}"
        make = lambda ctx=ctx, n=n, r=r: E.full_system(n, r, ctx)  # noqa: E731
        for trial in range(FULL_ACTION.count((n, r))):
            jobs.append(_action_job(E, rng, label, given, n, r, make, comb(n + r, n),
                                    trial=trial))
        if (n, r) in FULL_IMPLICIT:
            jobs.append(_implicit_job(E, label, given, make, veronese_relations(n, r),
                                      exp["implicitize"][label]))
    for name in SYSTEMS:
        names, rank, graded = O.read_system(run.text(name))
        if p:
            perm, scale = monomial_frame(rng, len(names))
            graded = {k: [O.substitute(g, perm, scale) for g in gens]
                      for k, gens in graded.items()}
        ctx = E.context(*names_for(p, len(names)))
        polys = {k: [E.Polynomial(ctx, g) for g in gens] for k, gens in graded.items()}
        given = f"{name} {ctx.names} {sorted(graded.items())}"
        make = lambda ctx=ctx, rank=rank, polys=polys: E.assemble(ctx, rank, polys)  # noqa: E731
        ambient = exp["ambient"][name]
        anchor = None
        if p == 0:
            anchor = (*anchor_input(ambient, len(names)), exp["anchor"][name])
        jobs.append(_action_job(E, rng, name, given, len(names), rank, make, ambient, anchor))
        jobs.append(_implicit_job(E, name, given, make, exp["relations"][name],
                                  exp["implicitize"][name] if p == 0 else None))
    return jobs


IDENTITIES = ("group-law", "equivariance", "euler-scaling", "normalization")


def _action_job(E, rng, label, given, n, r, make, ambient, anchor=None, trial=0):
    """Build the model; one trial of each action identity; orbit degrees.

    On pass 0 the bundled models also translate a fixed point, whose
    normalized value is compared with the recorded digest.
    """
    z = E.ProjectivePoint(_ambient_point(rng, ambient))
    v, u, w = vector(rng, n), vector(rng, n), vector(rng, n)
    t, lam = nonzero(rng), nonzero(rng)
    dirs = [vector(rng, n, generic=True) for _ in range(6)]

    def run():
        M = E.build_model(make())
        out = {
            "ambient": M.ambient_dim,
            "group-law": (E.group_act(M, v, E.group_act(M, u, z)),
                          E.group_act(M, [a + b for a, b in zip(v, u)], z)),
            "equivariance": (E.group_act(M, v, E.phi_eval(M, t, w)),
                             E.phi_eval(M, t, [wi + t * vi for wi, vi in zip(w, v)])),
            "euler-scaling": (E.euler_act(M, lam, E.phi_eval(M, t, w)),
                              E.phi_eval(M, t, [lam * wi for wi in w])),
            "normalization": (E.euler_act(M, lam, E.group_act(M, v, z)),
                              E.group_act(M, [lam * vi for vi in v], E.euler_act(M, lam, z))),
            "orbit-degrees": [E.orbit_curve_degree(M, d) for d in dirs],
        }
        if anchor is not None:
            out["anchor"] = E.group_act(M, anchor[0], E.ProjectivePoint(anchor[1]))
        return out

    def check(out):
        return (out["ambient"] == ambient
                and all(out[k][0] == out[k][1] for k in IDENTITIES)
                and max(out["orbit-degrees"]) == r
                and (anchor is None or O.point_digest(out["anchor"].coords) == anchor[2]))

    slot = label + "/actions" + (f"-{trial + 1}" if trial else "")
    return Job(slot, f"actions {given} {v} {u} {w} {z} {t} {lam} {dirs}",
               run, check)


def _implicit_job(E, label, given, make, relations, digest):
    """Build the model and find its degree-2 relations."""
    state = {}

    def run():
        state["M"] = E.build_model(make())
        return E.implicitize(state["M"], 2)

    def check(space):
        if space.dim != relations:
            return False
        if digest is not None and O.digest(as_dicts(space.basis)) != digest:
            return False
        rng = random.Random(given)
        points = [_chart_point(state["M"], rng) for _ in range(2)]
        return all(O.evaluate(dict(g.terms), pt) == 0 for g in space.basis for pt in points)

    return Job(label + "/implicitize", "implicitize " + given, run, check)


def _ambient_point(rng, dim):
    while True:
        z = vector(rng, dim)
        if any(z):
            return z


def _chart_point(model, rng):
    """[1 : w : F^2 basis at w : ...], a point of the model, by the oracle."""
    system = model.system
    w = vector(rng, system.context.n)
    coords = [Fraction(1), *w]
    for k in range(2, system.rank + 1):
        coords.extend(O.evaluate(dict(b.terms), w) for b in system.component(k).basis)
    return coords


def anchor_input(dim, n):
    """Fixed translation vector and ambient point for the digest anchors."""
    z = [Fraction((-1) ** i * (i + 1), i % 3 + 1) for i in range(dim)]
    v = [Fraction(1, i + 2) * (-1) ** i for i in range(n)]
    return v, z


# -------------------------------------------------------------------- cli

SYS_COMMANDS = [["validate"], ["prolong"], ["order"], ["baselocus"], ["saturated"],
                ["model"], ["act-check", "SEED"], ["curve-degrees", "SEED"],
                ["implicitize", "--degree", "2"], ["ff", "--chart"],
                ["cartan", "--chart", "SEED"], ["report", "SEED"]]
PAR_COMMANDS = [["ff"], ["ff", "AT"], ["cartan", "SEED"]]

_LINE = re.compile(r"^\[(\w+)\] (.+?): (.*)$")


def command_key(cmd, name):
    """Key of a (subcommand, bundled input) pair in expected.json."""
    flags = " ".join("--at" if a == "AT" else a for a in cmd[1:] if a != "SEED")
    return f"{cmd[0]}{' ' + flags if flags else ''}|{name}"


def report_entries(stdout, as_json):
    """(result or None, {tag: detail}) from a report; wording is never compared."""
    if as_json:
        doc = json.loads(stdout)
        return doc.get("result"), {e["tag"]: e["detail"] for e in doc["entries"]}
    entries = {}
    for line in stdout.splitlines():
        m = _LINE.match(line)
        if m:
            entries[m.group(2)] = m.group(3)
    return None, entries


def polys_in(tag, detail):
    """Text of the polynomial list a report entry carries, or None."""
    if tag.startswith("generator-"):
        return detail
    m = re.search(r"span\((.*)\)\s*$", detail) or re.search(r"\(([^()]*)\)\s*$", detail)
    if m:
        return m.group(1)
    if re.search(r"(^|= )0\s*$", detail):
        return ""
    return None


DIGEST_TAG = re.compile(r"^(F\d+|prolong-F\d+|G\d+|base-ideal|generator-\d+)$")


def math_outputs(entries, names, back=None):
    """{tag: (dim, digest)} of the canonical spans a report prints.

    `back` maps a polynomial of a framed input back to the shipped frame;
    implicitize generators (ambient coordinates) cannot be mapped and are
    pooled under "generators" with their count only when `back` is given.
    """
    out = {}
    gens = []
    for tag, detail in entries.items():
        if not DIGEST_TAG.match(tag):
            continue
        text = polys_in(tag, detail)
        if text is None:
            continue
        if tag.startswith("generator-"):
            gens.append(text)
            continue
        polys = O.parse_list(text, names)
        if back is not None:
            polys = [back(q) for q in polys]
        out[tag] = [len(O.canonical(polys)), O.digest(polys)]
    if gens:
        ambient = sorted(set(re.findall(r"[A-Za-z_]\w*", " ".join(gens))), key=_natural)
        polys = [O.parse(g, ambient) for g in gens]
        out["generators"] = [len(O.canonical(polys)), None if back else O.digest(polys)]
    return out


def _natural(name):
    return [int(t) if t.isdigit() else t for t in re.split(r"(\d+)", name)]


def cli_pass(run: Run, p: int) -> list[Job]:
    from eulersym import cli
    rng = run.rng(p)
    exp = run.expected["cli"]
    jobs = []
    for name in SYSTEMS + PARAMS:
        names = read_names(name, run.text(name))
        arg, back = name, None
        if p:
            arg, names, back = _framed_input(run, rng, p, name, names)
        commands = SYS_COMMANDS if name.endswith(".sys") else PAR_COMMANDS
        for cmd in commands:
            argv = [cmd[0], arg]
            for a in cmd[1:]:
                if a == "SEED":
                    argv += ["--seed", str(rng.randrange(10 ** 6))]
                elif a == "AT":
                    # "=" keeps argparse from reading a leading minus as an option
                    argv.append("--at=" + ",".join(str(c) for c in vector(rng, len(names), True)))
                else:
                    argv.append(a)
            as_json = rng.random() < 1 / 3
            if as_json:
                argv.append("--json")
            key = command_key(cmd, name)
            jobs.append(Job(key, " ".join(argv), lambda argv=argv: call_main(cli, argv),
                            _cli_check(exp[key], names, back, as_json)))
    return jobs


def read_names(name, text):
    return (O.read_system(text) if name.endswith(".sys") else O.read_param(text))[0]


def _framed_input(run, rng, p, name, names):
    """Write `name` in a seeded monomial frame; return (path, names, map back)."""
    n = len(names)
    perm, scale = monomial_frame(rng, n)
    new = names_for(p, n)
    text = run.text(name)
    if name.endswith(".sys"):
        _, rank, graded = O.read_system(text)
        lines = [f"vars: {' '.join(new)}", f"rank: {rank}"]
        for k, gens in sorted(graded.items()):
            framed = [O.format_poly(O.substitute(g, perm, scale), new) for g in gens]
            lines.append(f"F{k}: {', '.join(framed)}")
        inv, inv_scale = O.invert_frame(perm, scale)
        back = lambda q: O.substitute(q, inv, inv_scale)  # noqa: E731
    else:
        # fundamental forms are read after re-coordinatizing by the linear
        # part, so a monomial change of parameters leaves them unchanged
        _, coords = O.read_param(text)
        framed = [O.format_poly(O.substitute(c, perm, scale), new) for c in coords]
        lines = [f"vars: {' '.join(new)}", f"coords: {', '.join(framed)}"]
        back = lambda q: q  # noqa: E731
    path = run.work / f"p{p}-{name}"
    path.write_text("\n".join(lines) + "\n")
    return str(path), new, back


def call_main(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the invocation
            rc = exc.code
    return rc, out.getvalue()


def _cli_check(expected, names, back, as_json):
    def check(answer):
        rc, stdout = answer
        if rc != expected["exit"]:
            return False
        result, entries = report_entries(stdout, as_json)
        if as_json and result != ("PASS" if rc == 0 else "FAIL"):
            return False
        got = math_outputs(entries, names, back)
        for tag, (dim, digest) in expected["outputs"].items():
            if tag not in got or got[tag][0] != dim:
                return False
            if got[tag][1] is not None and got[tag][1] != digest:
                return False
        return True
    return check


WORKLOADS = {"segre": segre_pass, "model": model_pass, "cli": cli_pass}
# Fewest jobs a run may time, so that at least ten samples lie beyond p90.
MIN_JOBS = 110
