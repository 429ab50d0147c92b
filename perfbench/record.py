"""Record the answers the benchmark compares against into expected.json.

    python3 perfbench/record.py      # from the root of a source tree

Run once on the commit that defines the benchmark.  The recorded values
are canonical mathematical outputs (RREF bases, reduced Groebner bases,
normalized projective points, via oracle digests) and exit codes; report
wording is never recorded.  Re-recording on a later commit would hide a
regression, so do it only when a value is shown to be wrong, and say so.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import oracle as O
import workloads as W

REGRESSION_ONLY = {
    "prolong|epr.sys": {
        "prolong-F2": "disputed value: the acceptance test asserts dim 4, the library "
                      "gives dim 3; checked only against the recording commit, "
                      "not as the true value"},
}


def main() -> int:
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    import eulersym as E
    from eulersym import cli

    data = root / "src" / "eulersym" / "data"
    model = {"ambient": {}, "relations": {}, "implicitize": {}, "anchor": {}}
    for name in W.SYSTEMS:
        names, rank, graded = O.read_system((data / name).read_text())
        ctx = E.context(*names)
        system = E.assemble(ctx, rank, {k: [E.Polynomial(ctx, g) for g in gens]
                                        for k, gens in graded.items()})
        M = E.build_model(system)
        space = E.implicitize(M, 2)
        v, z = W.anchor_input(M.ambient_dim, len(names))
        model["ambient"][name] = M.ambient_dim
        model["relations"][name] = space.dim
        model["implicitize"][name] = O.digest(W.as_dicts(space.basis))
        model["anchor"][name] = O.point_digest(E.group_act(M, v, E.ProjectivePoint(z)).coords)
    for n, r in W.FULL_IMPLICIT:
        space = E.implicitize(E.build_model(E.full_system(n, r)), 2)
        model["implicitize"][f"full({n},{r})"] = O.digest(W.as_dicts(space.basis))

    expected_cli = {}
    for name in W.SYSTEMS + W.PARAMS:
        text = (data / name).read_text()
        names = W.read_names(name, text)
        commands = W.SYS_COMMANDS if name.endswith(".sys") else W.PAR_COMMANDS
        for cmd in commands:
            argv = [cmd[0], name]
            for a in cmd[1:]:
                argv += (["--seed", "0"] if a == "SEED" else
                         ["--at=" + ",".join(str(i + 2) for i in range(len(names)))]
                         if a == "AT" else [a])
            rc, stdout = W.call_main(cli, argv)
            _, entries = W.report_entries(stdout, False)
            key = W.command_key(cmd, name)
            expected_cli[key] = {"exit": rc, "outputs": W.math_outputs(entries, names)}
    doc = {"_note": "canonical answers on the commit that defined the benchmark; "
                    "see record.py",
           "regression_only": REGRESSION_ONLY, "model": model, "cli": expected_cli}
    (W.HERE / "expected.json").write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
