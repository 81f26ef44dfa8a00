"""Timings of the root search and of ``check --route both`` at large d; prints one JSON object.

    PYTHONPATH=src python tests/large_d.py [--repeat 3]

Not a test: pytest collects only ``test_*.py``.  Two families, each timed in
this process as the best of ``--repeat`` calls, in milliseconds:

- Q, d = 16, 32, 64, 128: the Krawtchouk pair of diameter d under
  a -> 3a + 7 (b and c times 3) and theta* -> -5 theta*/3 + 1/2.
  ``rational_roots`` runs on ``char_form``'s q as Fractions.
- GF(2^61 - 1), d = 32, 64, 128: ``gen_random(d, GF(2^61 - 1), 1)``.
  ``prime_field_roots`` runs on ``char_form``'s q.

For both, ``check_both`` is ``cli.main(['check', FILE, '--route', 'both',
'--machine'])`` on the instance written without a theta hint; its exit code
is reported beside the times.  Only the public functions named here are
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
from lpkit.system import char_form

M61 = 2**61 - 1


def best_ms(call, repeat: int) -> float:
    times = []
    for _ in range(repeat):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return round(min(times) * 1000, 3)


def time_check(system, path: str, repeat: int) -> tuple[float, int]:
    """Best time of check --route both on system written to path, and its exit code."""
    with open(path, "w") as handle:
        handle.write(serialize_instance(Instance(system)))
    argv = ["check", path, "--route", "both", "--machine"]
    codes = []

    def call():
        with contextlib.redirect_stdout(io.StringIO()):
            codes.append(main(argv))

    return best_ms(call, repeat), codes[0]


def series(repeat: int) -> dict:
    ms, exits = {}, {}
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "instance.lp")
        for d in (16, 32, 64, 128):
            image = affine_transform(gen_krawtchouk(d)[0], 3, 7, Fraction(-5, 3), Fraction(1, 2))
            q = [Fraction(c) for c in char_form(image)[0]]
            ms[f"rational_roots_Q_{d}"] = best_ms(lambda: rational_roots(q), repeat)
            ms[f"check_both_Q_{d}"], exits[f"Q_{d}"] = time_check(image, path, repeat)
        for d in (32, 64, 128):
            system = gen_random(d, GF(M61), 1)
            q = char_form(system)[0]
            ms[f"prime_field_roots_M61_{d}"] = best_ms(lambda: prime_field_roots(q, M61), repeat)
            ms[f"check_both_M61_{d}"], exits[f"M61_{d}"] = time_check(system, path, repeat)
    return {"repeat": repeat, "ms": ms, "check_exit": exits}


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=3)
    json.dump(series(parser.parse_args().repeat), sys.stdout, indent=1)
    print()
