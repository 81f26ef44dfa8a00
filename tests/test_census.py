"""Every pair over GF(5) at d = 3, up to the normalizations that change no verdict.

A is normalized by a diagonal similarity (b = 1) and an affine map (a_0 = 0),
A* by an affine map (theta*_0 = 0, first nonzero theta*_i = 1).  That leaves
5^3 diagonals times 4^3 subdiagonals for A, and 31 dual eigenvalue lists.
Each A that is not multiplicity-free is skipped once; every other A meets
every theta*.  On each pair the two routes must agree, and each of the five
leaf deciders must match the adjacency graph on every ordered pair wherever
its preconditions hold.
"""
from __future__ import annotations

import itertools
from collections import Counter

from lpkit.errors import NotMultiplicityFree, PreconditionViolated
from lpkit.exactmath import GF
from lpkit.leaf import appendix_a, appendix_b, leaf_by_ratio, leaf_by_recurrence, leaf_by_subspace
from lpkit.qpoly import is_q_polynomial
from lpkit.system import compute_spectrum, eigenvalues, make_system
from test_leaf import _pair_truth

DECIDERS = (leaf_by_subspace, leaf_by_recurrence, leaf_by_ratio, appendix_a, appendix_b)


def _dual_eigenvalue_lists(p, d):
    """theta* with theta*_0 = 0 and its first nonzero entry 1."""
    for tail in itertools.product(range(p), repeat=d):
        nonzero = [t for t in tail if t]
        if nonzero and nonzero[0] == 1:
            yield [0, *tail]


def test_gf5_d3_census():
    p, d = 5, 3
    field = GF(p)
    duals = list(_dual_eigenvalue_lists(p, d))
    seen = Counter()
    for diag in itertools.product(range(p), repeat=d):
        for sub in itertools.product(range(1, p), repeat=d):
            seen["A"] += 1
            a, b, c = [0, *diag], [1] * d, list(sub)
            try:
                theta = eigenvalues(make_system(field, a, b, c, [0] * (d + 1)))
            except NotMultiplicityFree:
                continue
            seen["multiplicity-free A"] += 1
            for theta_star in duals:
                sys_ = make_system(field, a, b, c, theta_star)
                spec = compute_spectrum(sys_, theta_hint=theta)
                direct = is_q_polynomial(sys_, spec, route="direct")
                theorem = is_q_polynomial(sys_, spec, route="theorem")
                assert direct.qpoly == theorem.qpoly, (a, c, theta_star)
                seen[theorem.failed_condition or "positive"] += 1
                for (r, s), expected in _pair_truth(sys_, spec).items():
                    for decide in DECIDERS:
                        try:
                            confirmed = decide(sys_, spec, r, s).confirmed
                        except PreconditionViolated:
                            seen["precondition exit"] += 1
                            continue
                        assert confirmed == expected, (decide.__name__, a, c, theta_star, r, s)
                        seen["decider agrees"] += 1
    assert seen == {"A": 8000, "multiplicity-free A": 30, "positive": 32, "i": 746, "ii": 40,
                    "iii": 104, "iv": 8, "decider agrees": 39288, "precondition exit": 16512}
