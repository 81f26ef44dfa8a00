"""Golden CLI transcript: exit codes and the exact bytes on stdout and stderr.

``data/golden_cli.json`` lists CLI calls on the instance files in ``data/``
with the exit code and output each produced when it was recorded.  Any
change to what a user sees, ``gen random``'s output included, fails here.
"""
from __future__ import annotations

import json
import pathlib

import pytest

from lpkit.cli import main

DATA = pathlib.Path(__file__).resolve().parent / "data"
TRANSCRIPT = json.loads((DATA / "golden_cli.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("call", TRANSCRIPT, ids=[" ".join(c["argv"]) for c in TRANSCRIPT])
def test_cli_output_matches_transcript(call, capsys, monkeypatch):
    monkeypatch.chdir(DATA)
    code = main(call["argv"])
    out, err = capsys.readouterr()
    assert (code, out, err) == (call["exit"], call["stdout"], call["stderr"])
