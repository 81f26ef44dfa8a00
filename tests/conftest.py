"""Shared corpus fixtures: the Krawtchouk family and random prime-field instances."""
from __future__ import annotations

import pytest

from lpkit.exactmath import GF, RATIONALS
from lpkit.instances import gen_krawtchouk, gen_random
from lpkit.system import compute_spectrum


@pytest.fixture(scope="session")
def k2():
    sys_, theta = gen_krawtchouk(2)
    return sys_, compute_spectrum(sys_, theta_hint=theta)


@pytest.fixture(scope="session")
def k3():
    sys_, theta = gen_krawtchouk(3)
    return sys_, compute_spectrum(sys_, theta_hint=theta)


@pytest.fixture(scope="session")
def krawtchouk_corpus():
    """(system, spectrum) for the Krawtchouk family, d = 2..8 over the rationals."""
    out = []
    for d in range(2, 9):
        sys_, theta = gen_krawtchouk(d)
        out.append((sys_, compute_spectrum(sys_, theta_hint=theta)))
    return out


@pytest.fixture(scope="session")
def random_corpus():
    """200 random multiplicity-free instances over GF(101) and GF(10007), d <= 6."""
    out = []
    seed = 0
    for p, count in ((101, 150), (10007, 50)):
        field = GF(p)
        for k in range(count):
            d = 2 + (k % 5)  # cycle d through 2..6
            sys_ = gen_random(d, field, seed)
            seed += 1
            out.append((sys_, compute_spectrum(sys_)))
    return out


@pytest.fixture(scope="session")
def full_corpus(krawtchouk_corpus, random_corpus):
    return krawtchouk_corpus + random_corpus
