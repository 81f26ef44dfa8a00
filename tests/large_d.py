"""Timings of the root search and of four CLI calls at large d; prints one JSON object.

    PYTHONPATH=src python tests/large_d.py [--repeat 3]

Not a test: pytest collects only ``test_*.py``.  Two families, each timed in
this process as the best of ``--repeat`` calls, in milliseconds:

- Q, d = 16, 32, 64, 128: the Krawtchouk pair of diameter d under
  a -> 3a + 7 (b and c times 3) and theta* -> -5 theta*/3 + 1/2, whose
  eigenvalues are 3 theta + 7.  ``rational_roots`` runs on ``char_form``'s
  q as Fractions.
- GF(2^61 - 1), d = 32, 64, 128: ``gen_random(d, GF(2^61 - 1), 1)``, its
  hint the eigenvalues that ``compute_spectrum`` finds.
  ``prime_field_roots`` runs on ``char_form``'s q.

For both, ``check_both`` is ``cli.main(['check', FILE, '--route', 'both',
'--machine'])`` on the instance written without a theta hint;
``verify_aw2`` is ``verify-aw2 FILE --machine`` and ``rebase_search`` is
``rebase FILE --search -o OUT``, each on the file without the hint and, as
``..._hinted``, with it.  The exit code of every CLI call is reported
under the same key as its time.  Only the public functions named here are
used, so the script also times an older checkout put first on PYTHONPATH.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys
import tempfile
import time
from fractions import Fraction

from lpkit.cli import main
from lpkit.exactmath import GF
from lpkit.instances import Instance, affine_transform, gen_krawtchouk, gen_random, serialize_instance
from lpkit.modular import prime_field_roots, rational_roots
from lpkit.system import char_form, compute_spectrum

M61 = 2**61 - 1


def best_ms(call, repeat: int) -> float:
    times = []
    for _ in range(repeat):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return round(min(times) * 1000, 3)


def time_cli(inst: Instance, tmp: str, argv: list[str], repeat: int) -> tuple[float, int]:
    """Best time of the CLI call argv on inst written to tmp/instance.lp, and its exit code.

    argv holds the subcommand and its options; the file goes second, and
    every other file name is taken inside tmp.
    """
    path = os.path.join(tmp, "instance.lp")
    with open(path, "w") as handle:
        handle.write(serialize_instance(inst))
    argv = argv[:1] + [path] + [os.path.join(tmp, a) if a.endswith(".lp") else a for a in argv[1:]]
    codes = []

    def call():
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            codes.append(main(argv))

    return best_ms(call, repeat), codes[0]


CALLS = {
    "check_both": ["check", "--route", "both", "--machine"],
    "verify_aw2": ["verify-aw2", "--machine"],
    "rebase_search": ["rebase", "--search", "-o", "out.lp"],
}


def time_calls(ms: dict, exits: dict, tag: str, system, theta, tmp: str, repeat: int) -> None:
    for name, argv in CALLS.items():
        hints = {"": None} if name == "check_both" else {"": None, "_hinted": theta}
        for suffix, hint in hints.items():
            key = f"{name}_{tag}{suffix}"
            ms[key], exits[key] = time_cli(Instance(system, hint), tmp, argv, repeat)


def series(repeat: int) -> dict:
    ms, exits = {}, {}
    with tempfile.TemporaryDirectory() as tmp:
        for d in (16, 32, 64, 128):
            krawtchouk, theta = gen_krawtchouk(d)
            image = affine_transform(krawtchouk, 3, 7, Fraction(-5, 3), Fraction(1, 2))
            q = [Fraction(c) for c in char_form(image)[0]]
            ms[f"rational_roots_Q_{d}"] = best_ms(lambda: rational_roots(q), repeat)
            hint = tuple(image.field.scalar(3 * t.value + 7) for t in theta)
            time_calls(ms, exits, f"Q_{d}", image, hint, tmp, repeat)
        for d in (32, 64, 128):
            system = gen_random(d, GF(M61), 1)
            q = char_form(system)[0]
            ms[f"prime_field_roots_M61_{d}"] = best_ms(lambda: prime_field_roots(q, M61), repeat)
            time_calls(ms, exits, f"M61_{d}", system, compute_spectrum(system).theta, tmp, repeat)
    return {"repeat": repeat, "ms": ms, "exit": exits}


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=3)
    json.dump(series(parser.parse_args().repeat), sys.stdout, indent=1)
    print()
