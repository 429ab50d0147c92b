"""The CLI transcript, byte for byte.

Every bundled input goes through every subcommand that reads it, in text
and in --json, and the outputs, error lines and exit codes must equal
`tests/golden/cli.txt`.  Regenerate the file only when an output change
is meant and an independent oracle backs the new answer:

    PYTHONPATH=src python tests/test_golden.py > tests/golden/cli.txt
"""

import io
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from eulersym.cli import bundled_names, main

GOLDEN = Path(__file__).parent / "golden" / "cli.txt"

SYSTEM_COMMANDS = [
    ["validate"], ["prolong"], ["order"], ["baselocus"], ["saturated"], ["model"],
    ["implicitize", "--degree", "2"], ["report"], ["act-check", "--trials", "3"],
]
PARAM_COMMANDS = [["ff"], ["cartan", "--trials", "3"]]


def invocations() -> list[list[str]]:
    out = []
    for name in bundled_names():
        commands = SYSTEM_COMMANDS if name.endswith(".sys") else PARAM_COMMANDS
        for command, *options in commands:
            for fmt in ([], ["--json"]):
                out.append([command, name, *options, *fmt])
    return out


def transcript() -> str:
    chunks = []
    for argv in invocations():
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
        chunks.append(f"$ eulersym {' '.join(argv)}\n{out.getvalue()}")
        if err.getvalue():
            chunks.append(f"stderr:\n{err.getvalue()}")
        chunks.append(f"exit: {code}\n")
    return "".join(chunks)


def test_cli_transcript_matches_golden():
    expected = GOLDEN.read_text().splitlines()
    got = transcript().splitlines()
    diff = [(i + 1, want, have) for i, (want, have) in enumerate(zip(expected, got))
            if want != have]
    assert not diff, f"first differing line {diff[0][0]}: {diff[0][1]!r} != {diff[0][2]!r}"
    assert len(got) == len(expected)


if __name__ == "__main__":
    sys.stdout.write(transcript())
