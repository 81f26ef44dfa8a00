"""The three workloads: which CLI calls they make, on which files, and how each output is checked.

A workload yields *units*: one ``check`` call, or one toolchain group of ten
calls on twins of one base instance.  ``units(seed, tag, variant)`` is
deterministic; every unit writes its own files, so no instance repeats within
a process.  Twins (``variant`` 0 and 1) have the same shape (d, field,
family) and different numbers; the traced run pairs them to measure the
tracing overhead.  A check returns None when the output is right, else the
reason it is wrong.
"""
from __future__ import annotations

import os
import random
from dataclasses import dataclass
from itertools import count
from typing import Callable, Iterator, Optional

from . import known as K

Check = Callable[[int, str], Optional[str]]   # (exit code, stdout) -> error or None


@dataclass
class Op:
    kind: str
    argv: list
    check: Check
    meta: dict      # manifest entry: field, p, d, family, expected verdict


def _write(path: str, text: str) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def _read(path: str, field: K.Field) -> dict:
    with open(path, encoding="utf-8") as fh:
        return K.parse(fh.read(), field)


def _fields(line: str) -> dict:
    return dict(tok.split("=", 1) for tok in line.split() if "=" in tok)


CHECK_PRIMES = (10007, 10009, 10037, 10039)


# --- check-rational / check-prime -------------------------------------------

def _check_verdict(inst: K.Instance) -> Check:
    want_code = 0 if inst.expected else 1
    want = str(inst.expected).lower()
    order = ",".join(str(i) for i in K.path_order(inst)) if inst.expected else None

    def check(code: int, out: str) -> Optional[str]:
        if code != want_code:
            return f"exit {code}, expected {want_code}"
        lines = {f.get("route"): f for f in map(_fields, out.splitlines()) if "qpoly" in f}
        if sorted(lines) != ["direct", "theorem"]:
            return f"routes reported: {sorted(lines)}"
        if any(f["qpoly"] != want for f in lines.values()):
            return f"verdict differs from expected qpoly={want}"
        if lines["direct"].get("order") != order:
            return f"order={lines['direct'].get('order')}, expected {order}"
        return None
    return check


def _check_unit(inst: K.Instance, path: str) -> list:
    _write(path, inst.text(hint=False))
    return [Op("check", ["check", path, "--route", "both", "--machine"], _check_verdict(inst),
               inst.manifest())]


# (d, negative) per slot: each d four times, five negatives in twenty.  The
# negatives sit at d = 4, 4, 5, 5, 8, so the median call falls inside the
# d = 6 cluster and the tail inside the d = 8 positives for 3 to 6 cycles.
RATIONAL_CYCLE = ((8, False), (4, True), (6, False), (5, False), (7, False),
                  (4, False), (6, False), (5, True), (7, False), (8, False),
                  (4, True), (6, False), (5, False), (7, False), (8, True),
                  (4, False), (6, False), (5, True), (7, False), (8, False))


def check_rational(rng: random.Random, slot: int, variant: int, path: str) -> list:
    d, negative = RATIONAL_CYCLE[slot % len(RATIONAL_CYCLE)]
    inst = K.random_image(rng, K.krawtchouk(K.Field(), d))
    if negative:
        inst = K.mutate(rng, inst)
    return _check_unit(inst, path + ".txt")


PRIME_CYCLE = 12


def check_prime(rng: random.Random, slot: int, variant: int, path: str) -> list:
    """d cycles 4..6 over four primes near 10^4; one slot in four is a Krawtchouk image."""
    d = 4 + slot % 3
    field = K.Field(CHECK_PRIMES[(slot // 3) % 4])
    if slot % 4 == 1:
        inst = K.random_image(rng, K.krawtchouk(field, d))
    else:
        inst = K.random_split(rng, field, d)
    return _check_unit(inst, path + ".txt")


# --- toolchain --------------------------------------------------------------

# (field, family, d) of the base instance of each group in a cycle.  Every d
# and family appears; the costs are spread so that the median call falls
# between two groups of similar cost, and the tail inside the d = 8 group.
TOOLCHAIN_CYCLE = (("Q", "krawtchouk", 8), ("GF", "mutated", 4), ("GF", "krawtchouk", 7),
                   ("Q", "krawtchouk", 5), ("Q", "mutated", 6), ("GF", "random", 6))


def _prime_from(n: int) -> int:
    while any(n % q == 0 for q in range(2, int(n ** 0.5) + 1)):
        n += 1
    return n


def _base(rng: random.Random, slot: int) -> K.Instance:
    where, family, d = TOOLCHAIN_CYCLE[slot % len(TOOLCHAIN_CYCLE)]
    field = K.Field() if where == "Q" else K.Field(CHECK_PRIMES[slot % 4])
    if family == "random":
        return K.random_split(rng, field, d)
    inst = K.krawtchouk(field, d)
    return K.mutate(rng, inst) if family == "mutated" else inst


def _check_gen_krawtchouk(path: str, field: K.Field, d: int) -> Check:
    want = K.krawtchouk(field, d)

    def check(code: int, out: str) -> Optional[str]:
        if code != 0:
            return f"exit {code}"
        got = _read(path, field)
        if got.get("field") != field.header().split(" ", 1)[1] or got.get("d") != d:
            return "wrong field or d"
        for key, vec in (("a", want.a), ("b", want.b), ("c", want.c),
                         ("theta_star", want.theta_star), ("theta", want.theta)):
            if got.get(key) != list(vec):
                return f"wrong {key}"
        return None
    return check


def _check_gen_random(path: str, field: K.Field, d: int) -> Check:
    def check(code: int, out: str) -> Optional[str]:
        if code != 0:
            return f"exit {code}"
        got = _read(path, field)
        if got.get("d") != d or [len(got.get(k, ())) for k in ("a", "b", "c")] != [d + 1, d, d]:
            return "wrong shape"
        ts = got.get("theta_star", [])
        if len(set(ts)) != d + 1 or 0 in got["b"] or 0 in got["c"]:
            return "theta* not distinct, or a zero off-diagonal entry"
        if not K.splits(field, got["a"], got["b"], got["c"]):
            return "A has fewer than d+1 distinct eigenvalues in the field"
        return None
    return check


def _check_delta(inst: K.Instance, state: dict) -> Check:
    def check(code: int, out: str) -> Optional[str]:
        if code != 0:
            return f"exit {code}"
        lines = dict(ln.split(" ", 1) if " " in ln else (ln, "") for ln in out.splitlines())
        edges = {tuple(sorted(map(int, e.split("-")))) for e in lines.get("edges", "").split()}
        degrees = [int(x) for x in lines.get("degrees", "").split()]
        if degrees != [sum(v in e for e in edges) for v in range(inst.d + 1)]:
            return "degrees do not match edges"
        if inst.expected and edges != {(i, i + 1) for i in range(inst.d)}:
            return "a positive's graph is not the path 0-1-..-d"
        state["edges"] = edges
        return None
    return check


def _check_rebase(inst: K.Instance, r: int, path: str) -> Check:
    f = inst.field

    def check(code: int, out: str) -> Optional[str]:
        if code != 0:
            return f"exit {code}"
        got = _read(path, f)
        if (got.get("a") != list(inst.a) or got.get("theta_star") != list(inst.theta_star)
                or got.get("theta") != list(inst.theta)):
            return "rebase changed a, theta* or the hint"
        b, c = got.get("b", []), got.get("c", [])
        if [f.norm(x * y) for x, y in zip(b, c)] != [f.norm(x * y) for x, y in zip(inst.b, inst.c)]:
            return "rebase changed the products b_{i-1} c_i"
        sums = [f.norm((c[i - 1] if i else 0) + inst.a[i] + (b[i] if i < inst.d else 0))
                for i in range(inst.d + 1)]
        if sums != [inst.theta[r]] * (inst.d + 1):
            return f"row sums {sums}, expected all {inst.theta[r]}"
        return None
    return check


def _check_leaf(state: dict, r: int, s: int) -> Check:
    def check(code: int, out: str) -> Optional[str]:
        edges = state.get("edges")
        if edges is None:
            return "no graph from delta to compare with"
        want = {e for e in edges if r in e} == {tuple(sorted((r, s)))}
        if code != (0 if want else 1):
            return f"exit {code}, graph says confirmed={want}"
        if _fields(out.splitlines()[0] if out else "").get("confirmed") != str(want).lower():
            return "printed verdict differs from exit code"
        return None
    return check


def _check_aw2(expected: bool) -> Check:
    def check(code: int, out: str) -> Optional[str]:
        if expected:
            return None if code == 0 and "identity holds" in out else f"exit {code}"
        # negatives break (ii), so no recurrence witness exists
        return None if code == 1 and out.startswith("denied") else f"exit {code}"
    return check


_LEAF_METHODS = ("subspace", "recurrence", "ratio", "appendix-a")


def toolchain(rng: random.Random, slot: int, variant: int, path: str) -> list:
    """Ten calls on random images of one hinted base instance; see README.md.

    The images share the base's graph and vertex labels (the hint keeps the
    eigenvalue order), so each call reads its own file and the leaf verdicts
    can still be compared with the graph that ``delta`` printed.
    """
    base = _base(rng, slot)
    d, field = base.d, base.field
    r = K.rebase_index(base)
    s = (r + (1, 2, d)[slot % 3]) % (d + 1)
    state: dict = {}
    # a distinct (d, p) per gen call; prime gaps near 10^4 are far below 50
    gen_field = K.Field(_prime_from(10007 + 50 * (2 * slot + variant)))
    rand_field = K.Field(CHECK_PRIMES[(slot + 1) % 4])
    ops = [
        Op("gen-krawtchouk", ["gen", "krawtchouk", "--d", str(d), "--field", str(gen_field.p),
                              "-o", path + "-genk.txt"],
           _check_gen_krawtchouk(path + "-genk.txt", gen_field, d),
           {"field": "GF", "p": gen_field.p, "d": d, "family": "krawtchouk", "expected": None}),
        Op("gen-random", ["gen", "random", "--d", str(d), "--field", str(rand_field.p),
                          "--seed", str(rng.randrange(2 ** 31)), "-o", path + "-genr.txt"],
           _check_gen_random(path + "-genr.txt", rand_field, d),
           {"field": "GF", "p": rand_field.p, "d": d, "family": "random", "expected": None}),
    ]
    twin = K.random_image(rng, base)
    ops.append(Op("delta", ["delta", _write(path + "-delta.txt", twin.text(hint=True)),
                            "--machine"], _check_delta(twin, state), twin.manifest()))
    twin = K.random_image(rng, base)
    rebased = path + "-rebased.txt"
    ops.append(Op("rebase", ["rebase", _write(path + "-rebase.txt", twin.text(hint=True)),
                             "--search", "-o", rebased], _check_rebase(twin, r, rebased),
                  twin.manifest()))
    twin = K.random_image(rng, base)
    ops.append(Op("verify-aw2", ["verify-aw2", _write(path + "-aw2.txt", twin.text(hint=True)),
                                 "--machine"], _check_aw2(base.expected), twin.manifest()))
    pair = ["--r", str(r), "--s", str(s), "--machine"]
    for method in _LEAF_METHODS:
        twin = K.random_image(rng, base)
        file = _write(f"{path}-{method}.txt", twin.text(hint=True))
        ops.append(Op("leaf-" + method, ["leaf", file, "--method", method] + pair,
                      _check_leaf(state, r, s), twin.manifest()))
    ops.append(Op("leaf-appendix-b", ["leaf", rebased, "--method", "appendix-b"] + pair,
                  _check_leaf(state, r, s), ops[3].meta))
    return ops


# workload -> (function making one unit, units per cycle); a cycle holds each of the
# workload's shapes once, so runs that stop at cycle ends measure the same mix
WORKLOADS = {"check-rational": (check_rational, len(RATIONAL_CYCLE)),
             "check-prime": (check_prime, PRIME_CYCLE),
             "toolchain": (toolchain, len(TOOLCHAIN_CYCLE))}


def units(workload: str, seed: int, workdir: str, tag: str, variant: int = 0,
          start: int = 0) -> Iterator[list]:
    """Units of slots start, start+1, ...; files go to workdir/tag-v<variant>/."""
    build = WORKLOADS[workload][0]
    folder = os.path.join(workdir, f"{tag}-v{variant}")
    os.makedirs(folder, exist_ok=True)
    for slot in count(start):
        rng = random.Random(f"{workload}:{seed}:{tag}:{variant}:{slot}")
        yield build(rng, slot, variant, os.path.join(folder, f"{slot:05d}"))
