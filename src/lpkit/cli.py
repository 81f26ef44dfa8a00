"""Command-line front end: check, delta, leaf, gen, verify-aw2, rebase.

Exit codes follow one contract everywhere: 0 means true/confirmed/success,
1 means false/denied, 2 means error or violated precondition (including
usage errors).  With ``check --route both`` a disagreement between the two
routes exits 2 — it signals an implementation bug, never a valid verdict.
"""
from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from typing import Optional, Sequence

from .cosine import rebase_to_row_sum
from .delta import build_delta
from .errors import (CosineVanishes, InternalInconsistency, LpkitError, NotAnEigenvalue,
                     ParseError, PreconditionViolated, RouteUnavailable)
from .exactmath import GF, RATIONALS
from .instances import Instance, gen_krawtchouk, gen_random, parse_instance, serialize_instance
from .leaf import appendix_a, appendix_b, leaf_by_ratio, leaf_by_recurrence, leaf_by_subspace
from .qpoly import QPolyVerdict, RecurrenceWitness, is_q_polynomial, solve_witness, verify_aw2
from .system import compute_spectrum, eigenvalues

__all__ = ["main"]

_LEAF_METHODS = {
    "subspace": leaf_by_subspace,
    "recurrence": leaf_by_recurrence,
    "ratio": leaf_by_ratio,
    "appendix-a": appendix_a,
    "appendix-b": appendix_b,
}


def _read(path: str) -> Instance:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_instance(fh.read())
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text (byte 0x{exc.object[exc.start]:02x})") from exc


def _emit(inst: Instance, out: Optional[str]) -> None:
    text = serialize_instance(inst)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _witness_lines(w: Optional[RecurrenceWitness], machine: bool) -> list[str]:
    if w is None:
        return []
    if machine:
        return [f"witness beta={w.beta} gamma_star={w.gamma_star} gamma={w.gamma} "
                f"omega={w.omega} eta_star={w.eta_star} delta_star={w.delta_star}"]
    return [
        f"  beta       = {w.beta}",
        f"  gamma*     = {w.gamma_star}",
        f"  gamma      = {w.gamma}",
        f"  omega      = {w.omega}",
        f"  eta*       = {w.eta_star}",
        f"  delta*     = {w.delta_star}",
        "  theta* ext = " + " ".join(str(x) for x in w.theta_star_ext),
    ]


def _report_check(verdict: QPolyVerdict, machine: bool) -> None:
    if machine:
        line = f"qpoly={str(verdict.qpoly).lower()} route={verdict.route}"
        if verdict.failed_condition:
            line += f" failed_condition={verdict.failed_condition}"
        if verdict.leonard_order:
            line += " order=" + ",".join(str(i) for i in verdict.leonard_order)
        print(line)
        for ln in _witness_lines(verdict.witness, True):
            print(ln)
        return
    tag = "Q-polynomial" if verdict.qpoly else "not Q-polynomial"
    print(f"verdict ({verdict.route} route): {tag}")
    if verdict.failed_condition:
        print(f"  failed condition: ({verdict.failed_condition})")
    if verdict.leonard_order:
        print("  Leonard ordering: " + " ".join(str(i) for i in verdict.leonard_order))
    for ln in _witness_lines(verdict.witness, False):
        print(ln)


def _cmd_check(args) -> int:
    inst = _read(args.file)
    spec = compute_spectrum(inst.system, theta_hint=inst.theta)
    verdicts = []
    routes = ("direct", "theorem") if args.route == "both" else (args.route,)
    for route in routes:
        try:
            verdicts.append(is_q_polynomial(inst.system, spec, route=route))
        except RouteUnavailable as exc:
            if args.route == "both":
                print(f"note: theorem route unavailable ({exc}); using direct route only")
                continue
            print(f"error: {exc}", file=sys.stderr)
            return 2
    if len(verdicts) == 2 and verdicts[0].qpoly != verdicts[1].qpoly:
        print("error: direct and theorem routes disagree (implementation bug)",
              file=sys.stderr)
        return 2
    # a positive direct verdict is printed with the witness, from the theorem route if it ran
    first = verdicts[0]
    if first.route == "direct" and first.qpoly and inst.system.d >= 3:
        witness = verdicts[1].witness if len(verdicts) == 2 else solve_witness(inst.system)
        verdicts[0] = dataclasses.replace(first, witness=witness)
    for v in verdicts:
        _report_check(v, args.machine)
    return 0 if verdicts[0].qpoly else 1


def _cmd_delta(args) -> int:
    inst = _read(args.file)
    g = build_delta(inst.system, compute_spectrum(inst.system, theta_hint=inst.theta))
    edges = g.edges()
    degrees = [g.degree(i) for i in range(g.n)]
    if args.machine:
        print("edges " + " ".join(f"{i}-{j}" for i, j in edges))
        print("degrees " + " ".join(str(x) for x in degrees))
    else:
        print(f"vertices: 0..{g.n - 1}")
        print("edges: " + (" ".join(f"{i}-{j}" for i, j in edges) or "(none)"))
        print("degree sequence: " + " ".join(str(x) for x in degrees))
    return 0


def _cmd_leaf(args) -> int:
    inst = _read(args.file)
    spec = compute_spectrum(inst.system, theta_hint=inst.theta)
    method = _LEAF_METHODS[args.method]
    kwargs = {"paranoid": True} if (args.paranoid and args.method == "appendix-a") else {}
    try:
        verdict = method(inst.system, spec, args.r, args.s, **kwargs)
    except PreconditionViolated as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return 2
    if args.machine:
        line = f"confirmed={str(verdict.confirmed).lower()} method={verdict.method}"
        if verdict.kappa is not None:
            line += f" kappa={verdict.kappa}"
        if verdict.failing_index is not None:
            line += f" failing_index={verdict.failing_index}"
        print(line)
    else:
        tag = "confirmed" if verdict.confirmed else "denied"
        print(f"pair ({args.r}, {args.s}) {tag} by {verdict.method}")
        if verdict.kappa is not None:
            print(f"  kappa = {verdict.kappa}")
        if verdict.failing_index is not None:
            print(f"  first failing index = {verdict.failing_index}")
    return 0 if verdict.confirmed else 1


def _cmd_gen(args) -> int:
    if args.d < 1:
        print(f"error: --d must be at least 1, got {args.d}", file=sys.stderr)
        return 2
    field = RATIONALS
    if args.field is not None:
        try:
            field = GF(args.field)
        except ValueError:
            print(f"error: --field {args.field} is not a prime", file=sys.stderr)
            return 2
    if args.family == "krawtchouk":
        system, theta = gen_krawtchouk(args.d, field)
        inst = Instance(system, theta, label=f"krawtchouk-{args.d}")
    else:
        if args.field is None:
            print("error: gen random requires --field", file=sys.stderr)
            return 2
        seed = args.seed
        if seed is None:
            env = os.environ.get("LPKIT_SEED", "0")
            try:
                seed = int(env)
            except ValueError:
                print(f"error: LPKIT_SEED must be an integer, got {env!r}", file=sys.stderr)
                return 2
        system = gen_random(args.d, field, seed)
        inst = Instance(system, None, label=f"random-d{args.d}-p{args.field}-s{seed}")
    _emit(inst, args.output)
    return 0


def _cmd_verify_aw2(args) -> int:
    """Solve the recurrence witness and re-confirm the cubic identity with it.

    The identity's entries are the conditions that ``solve_witness`` has
    just solved, so a witness found always passes: a failure is an internal
    error and exits 2.  No witness from elsewhere is checked.  Only the
    eigenvalue stage runs before it, so hint and multiplicity errors exit 2
    as in ``check``, and no idempotent factor is built.
    """
    inst = _read(args.file)
    eigenvalues(inst.system, inst.theta)
    witness = solve_witness(inst.system)
    if witness is None:
        print("denied: no recurrence witness exists")
        return 1
    if not verify_aw2(inst.system, witness):
        raise InternalInconsistency("identity fails for the solved recurrence witness")
    for ln in _witness_lines(witness, args.machine):
        print(ln)
    print("identity holds")
    return 0


def _cmd_rebase(args) -> int:
    inst = _read(args.file)
    thetas = eigenvalues(inst.system, inst.theta)  # hint and multiplicity errors exit 2 first
    field = inst.system.field
    if args.search:
        for theta in thetas:  # hint order if the file has a hint, canonical order otherwise
            try:
                rebased = rebase_to_row_sum(inst.system, theta)
            except CosineVanishes:
                continue
            print(f"rebased to row sum {theta}", file=sys.stderr)
            _emit(Instance(rebased, inst.theta, inst.label), args.output)
            return 0
        print("denied: every eigenvalue has a vanishing cosine", file=sys.stderr)
        return 1
    theta = field.parse_scalar(args.theta)
    try:
        rebased = rebase_to_row_sum(inst.system, theta)
    except CosineVanishes as exc:
        print(f"denied: cosine vanishes at index {exc.index}", file=sys.stderr)
        return 1
    except NotAnEigenvalue as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _emit(Instance(rebased, inst.theta, inst.label), args.output)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="lpkit",
                                     description="Exact Q-polynomial checker for "
                                                 "tridiagonal/diagonal pairs")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="decide Q-polynomiality")
    p.add_argument("file")
    p.add_argument("--route", choices=("direct", "theorem", "both"), default="both")
    p.add_argument("--machine", action="store_true")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("delta", help="print the adjacency graph")
    p.add_argument("file")
    p.add_argument("--machine", action="store_true")
    p.set_defaults(func=_cmd_delta)

    p = sub.add_parser("leaf", help="run one leaf decider on a pair (r, s)")
    p.add_argument("file")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--method", choices=sorted(_LEAF_METHODS), required=True)
    p.add_argument("--paranoid", action="store_true",
                   help="re-check the implied final relation (appendix-a only)")
    p.add_argument("--machine", action="store_true")
    p.set_defaults(func=_cmd_leaf)

    p = sub.add_parser("gen", help="emit an instance file")
    p.add_argument("family", choices=("krawtchouk", "random"))
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--field", type=int, help="prime modulus (default: rationals)")
    p.add_argument("--seed", type=int, help="random family only; default LPKIT_SEED or 0")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("verify-aw2", help="check the cubic operator identity")
    p.add_argument("file")
    p.add_argument("--machine", action="store_true")
    p.set_defaults(func=_cmd_verify_aw2)

    p = sub.add_parser("rebase", help="rescale to a constant-row-sum basis")
    p.add_argument("file")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--theta", help="target row sum (must be an eigenvalue)")
    group.add_argument("--search", action="store_true",
                       help="try eigenvalues in hint order, or in canonical "
                            "order when the file has no hint")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_rebase)
    return parser


_PARSER = _build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        # argparse uses 2 for usage errors, matching the exit-code contract
        return int(exc.code or 0)
    try:
        return args.func(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except LpkitError as exc:
        print(f"error: {exc.__class__.__name__}: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # an internal bug must never read as exit 1 ("false")
        print(f"error: unexpected {exc.__class__.__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
