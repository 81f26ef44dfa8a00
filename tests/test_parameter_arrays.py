"""Leonard systems built from parameter arrays: known positives with mixed denominators.

``parameter_arrays`` builds the Leonard system of a parameter array without
lpkit.  On both of its families (PA(5/2) and Racah) at d = 4, 8 and 16,
over Q and reduced into GF(10007) and GF(2^61 - 1): ``check --route both``
accepts the system with the order 0, 1, ..., d on both routes, the
eigenvalues are the array's theta, and a theta*-mutant that breaks the
three-term recurrence is negative on both routes.
"""
from __future__ import annotations

import pytest

from lpkit.cli import main
from lpkit.exactmath import GF, RATIONALS
from lpkit.instances import Instance, serialize_instance
from lpkit.system import eigenvalues, make_system
from parameter_arrays import FAMILIES, leonard_system, mutant, parameter_array, recurrence_holds, residues

_CASES = [(name, d, p) for name in FAMILIES for d in (4, 8, 16) for p in (None, 10007, 2**61 - 1)]
_IDS = [f"{name}-d{d}-{p or 'Q'}" for name, d, p in _CASES]


def _system(name, d, p, mutated=False):
    """The array's system and theta, over Q or reduced into GF(p)."""
    theta, theta_star = FAMILIES[name](d)
    a, b, c = leonard_system(theta, theta_star)
    if mutated:
        theta_star = mutant(theta_star)
    lists = [a, b, c, theta_star, theta]
    field = RATIONALS
    if p is not None:
        # no denominator vanishes mod p, and PA1 and PA2 still hold there
        field, lists = GF(p), [residues(x, p) for x in lists]
        phi, varphi = parameter_array(*FAMILIES[name](d))
        assert None not in lists and all(residues(phi + varphi, p))
        assert all(len(set(x)) == d + 1 for x in (lists[3], lists[4]))
    system = make_system(field, *lists[:4])
    return system, tuple(field.scalar(t) for t in lists[4])


def _check(tmp_path, capsys, system, theta):
    """check --route both --machine on the system, hinted over GF(p): the exit code and lines."""
    path = tmp_path / "instance.lp"
    hint = theta if system.field.is_prime_field else None
    path.write_text(serialize_instance(Instance(system, hint)), encoding="utf-8")
    code = main(["check", str(path), "--route", "both", "--machine"])
    return code, capsys.readouterr().out.splitlines()


@pytest.mark.parametrize("name,d,p", _CASES, ids=_IDS)
def test_both_routes_accept_the_array_in_its_order(name, d, p, tmp_path, capsys):
    code, lines = _check(tmp_path, capsys, *_system(name, d, p))
    assert code == 0
    assert lines[0] == "qpoly=true route=direct order=" + ",".join(map(str, range(d + 1)))
    assert lines[2] == "qpoly=true route=theorem" and lines[1] == lines[3]


@pytest.mark.parametrize("name,d,p", _CASES, ids=_IDS)
def test_the_eigenvalues_are_the_arrays_theta(name, d, p):
    system, theta = _system(name, d, p)
    found = eigenvalues(system)
    assert sorted(found, key=lambda t: t.sort_key()) == list(found)
    assert set(found) == set(theta) and eigenvalues(system, theta) == theta
    if p is None:  # theta is increasing in both families, and so is its canonical order over Q
        assert found == theta


@pytest.mark.parametrize("name,d,p", _CASES, ids=_IDS)
def test_a_theta_star_mutant_is_negative_on_both_routes(name, d, p, tmp_path, capsys):
    assert recurrence_holds(FAMILIES[name](d)[1]) and not recurrence_holds(mutant(FAMILIES[name](d)[1]))
    code, lines = _check(tmp_path, capsys, *_system(name, d, p, mutated=True))
    assert code == 1
    assert lines[0] == "qpoly=false route=direct" and lines[1].startswith("qpoly=false route=theorem")
