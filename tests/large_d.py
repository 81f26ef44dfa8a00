"""Timings of the eigenvalue stage and of four CLI calls at large d; prints one JSON object.

    PYTHONPATH=src python tests/large_d.py [--repeat 3]

Not a test: pytest collects only ``test_*.py``.  Four families, each timed
in this process as the best of ``--repeat`` calls, in milliseconds:

- Q, d = 16, 32, 64, 128: the Krawtchouk pair of diameter d under
  a -> 3a + 7 (b and c times 3) and theta* -> -5 theta*/3 + 1/2, whose
  eigenvalues are 3 theta + 7.
- GF(2^61 - 1), d = 32, 64, 128: ``gen_random(d, GF(2^61 - 1), 1)``, its
  hint the eigenvalues that ``compute_spectrum`` finds.
- PA(5/2), d = 16, 24, 32, 40, and Racah, d = 32, 64: the Leonard systems
  of ``parameter_arrays``, their hint the array's theta.  The diagonal of
  PA(5/2) has many different denominators.  The rows stop at d = 40: the
  squarefree test of the Q root search takes minutes on PA(5/2) from
  d = 61 on.

For every row, ``eigenvalues_...`` is ``system.eigenvalues`` without a
hint, and ``check_both`` is ``cli.main(['check', FILE, '--route', 'both',
'--machine'])`` on the instance written without a theta hint;
``verify_aw2`` is ``verify-aw2 FILE --machine`` and ``rebase_search`` is
``rebase FILE --search -o OUT``, each on the file without the hint and, as
``..._hinted``, with it.  The exit code of every CLI call is reported
under the same key as its time, and the script exits 1 if any of them is 2
(an error).  Only the public functions named here are used, so the script
also times an older checkout put first on PYTHONPATH.
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
from lpkit.exactmath import GF, RATIONALS
from lpkit.instances import Instance, affine_transform, gen_krawtchouk, gen_random, serialize_instance
from lpkit.system import compute_spectrum, eigenvalues, make_system
from parameter_arrays import FAMILIES, leonard_system

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


def time_row(ms: dict, exits: dict, tag: str, system, theta, tmp: str, repeat: int) -> None:
    ms[f"eigenvalues_{tag}"] = best_ms(lambda: eigenvalues(system), repeat)
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
            hint = tuple(image.field.scalar(3 * t.value + 7) for t in theta)
            time_row(ms, exits, f"Q_{d}", image, hint, tmp, repeat)
        for d in (32, 64, 128):
            system = gen_random(d, GF(M61), 1)
            time_row(ms, exits, f"M61_{d}", system, compute_spectrum(system).theta, tmp, repeat)
        for name, degrees in (("pa52", (16, 24, 32, 40)), ("racah", (32, 64))):
            for d in degrees:
                theta, theta_star = FAMILIES[name](d)
                system = make_system(RATIONALS, *leonard_system(theta, theta_star), theta_star)
                hint = tuple(RATIONALS.scalar(t) for t in theta)
                time_row(ms, exits, f"{name}_{d}", system, hint, tmp, repeat)
    return {"repeat": repeat, "ms": ms, "exit": exits}


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=3)
    result = series(parser.parse_args().repeat)
    json.dump(result, sys.stdout, indent=1)
    print()
    sys.exit(1 if 2 in result["exit"].values() else 0)
