"""Golden CLI transcript: exit codes and the exact bytes on stdout and stderr.

``data/golden_cli.json`` lists CLI calls on the instance files in ``data/``
with the exit code and output each produced when it was recorded.  Any
change to what a user sees, ``gen random``'s output included, fails here.
``record_golden.py`` appends new calls and never rewrites a recorded one.
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


def test_verify_aw2_and_rebase_replay_without_the_idempotent_factors(capsys, monkeypatch):
    # only compute_spectrum's factor stage builds the dagger diagonal; these two stop before it
    import lpkit.system
    from test_cli import _no_factors

    monkeypatch.setattr(lpkit.system, "_dagger_diagonal", _no_factors)
    monkeypatch.chdir(DATA)
    calls = [c for c in TRANSCRIPT if c["argv"][0] in ("verify-aw2", "rebase")]
    # counted from the transcript, so appended entries need no edit here; never fewer than 9 and 17
    assert [c["argv"][0] for c in calls].count("verify-aw2") >= 9 and len(calls) >= 17
    for call in calls:
        code = main(call["argv"])
        assert (code, *capsys.readouterr()) == (call["exit"], call["stdout"], call["stderr"])


def test_record_golden_appends_and_refuses_to_rewrite(tmp_path, monkeypatch, capsys):
    import record_golden

    transcript = tmp_path / "golden_cli.json"
    transcript.write_text(json.dumps(TRANSCRIPT[:1], indent=1) + "\n", encoding="utf-8")
    monkeypatch.setattr(record_golden, "TRANSCRIPT", transcript)
    monkeypatch.chdir(DATA)  # restored afterwards; the script works in DATA
    call = "check k3.lp --machine"
    assert record_golden.main([call, call]) == 0
    entries = json.loads(transcript.read_text(encoding="utf-8"))
    assert entries == TRANSCRIPT[:1] + [c for c in TRANSCRIPT if c["argv"] == call.split()]
    forged = dict(entries[1], stdout="forged\n")
    transcript.write_text(json.dumps([entries[0], forged], indent=1) + "\n", encoding="utf-8")
    assert record_golden.main(["check k2.lp", call]) == 1
    assert json.loads(transcript.read_text(encoding="utf-8")) == [entries[0], forged]
    assert "refusing to rewrite the entry of 'check k3.lp --machine'" in capsys.readouterr().out
