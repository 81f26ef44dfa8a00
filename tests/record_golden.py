"""Append CLI calls to the golden transcript, recorded at the current checkout.

    python tests/record_golden.py "check k3.lp --route both --machine" "verify-aw2 k3.lp"

Each argument is one CLI call, split like a shell command line and run
in-process in ``tests/data`` (where the instance files live), against the
lpkit sources of this checkout.  A call not yet in ``data/golden_cli.json``
is appended with its exit code, stdout and stderr.  A call already there is
run again and must reproduce its entry byte for byte: the script never
rewrites an entry.  If any call differs, it prints the difference, writes
nothing and exits 1.
"""
from __future__ import annotations

import contextlib
import difflib
import io
import json
import os
import pathlib
import shlex
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"
TRANSCRIPT = DATA / "golden_cli.json"
sys.path.insert(0, str(ROOT / "src"))

from lpkit.cli import main as cli_main  # noqa: E402


def record(argv: list[str]) -> dict:
    """The transcript entry of one CLI call: argv, exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    return {"argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _difference(old: dict, new: dict) -> str:
    lines = lambda entry: json.dumps(entry, indent=1).splitlines(keepends=True)  # noqa: E731
    return "".join(difflib.unified_diff(lines(old), lines(new), "recorded", "now"))


def main(calls: list[str]) -> int:
    entries = json.loads(TRANSCRIPT.read_text(encoding="utf-8"))
    known = {tuple(e["argv"]): e for e in entries}
    os.chdir(DATA)
    added, differs = [], False
    for call in calls:
        entry = record(shlex.split(call))
        old = known.get(tuple(entry["argv"]))
        if old is None:
            added.append(entry)
            known[tuple(entry["argv"])] = entry
        elif old != entry:
            differs = True
            print(f"refusing to rewrite the entry of {call!r}:\n{_difference(old, entry)}")
    if differs:
        return 1
    if added:
        TRANSCRIPT.write_text(json.dumps(entries + added, indent=1) + "\n", encoding="utf-8")
    print(f"{len(added)} entries appended, {len(calls) - len(added)} already recorded")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
