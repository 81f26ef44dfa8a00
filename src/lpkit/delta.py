"""The adjacency graph on eigenspace indices induced by the diagonal operator.

Vertices are 0..d; vertices i != j are adjacent exactly when
E_i Astar E_j != 0.  The graph is symmetric (the antiautomorphism argument),
and its shape decides everything: the pair is Q-polynomial precisely when
the graph is a path.  With E_i = v_i (K v_i)^T / n_i the product is
v_i (sum_k K_k theta*_k v_i[k] v_j[k]) (K v_j)^T / (n_i n_j), so only that
scalar form needs a zero test.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .errors import IndexOutOfRange
from .exactmath import Matrix, rank
from .system import Spectrum, TridiagonalSystem

__all__ = [
    "DeltaGraph",
    "build_delta",
    "is_connected",
    "path_order",
    "astar_invariance",
]


@dataclass(frozen=True)
class DeltaGraph:
    """Symmetric loop-free adjacency on vertices 0..n-1."""

    n: int
    adj: tuple[tuple[bool, ...], ...]

    def __post_init__(self):
        for i in range(self.n):
            if self.adj[i][i]:
                raise ValueError("loops are not allowed")
            for j in range(self.n):
                if self.adj[i][j] != self.adj[j][i]:
                    raise ValueError("adjacency must be symmetric")

    def degree(self, i: int) -> int:
        return sum(self.adj[i])

    def neighbors(self, i: int) -> list[int]:
        return [j for j in range(self.n) if self.adj[i][j]]

    def edges(self) -> list[tuple[int, int]]:
        return [(i, j) for i in range(self.n) for j in range(i + 1, self.n)
                if self.adj[i][j]]


def build_delta(sys: TridiagonalSystem, spec: Spectrum) -> DeltaGraph:
    """Adjacency from exact zero tests of the forms sum_k K_k theta*_k v_i[k] v_j[k].

    All forms are the entries of one Gram product V (D V^T), where row i of V
    is v_i and D = diag(K theta*): O(d^3) for the whole graph.
    """
    n = sys.d + 1
    weights = [kk * t for kk, t in zip(spec.k, sys.theta_star)]
    rows = Matrix(sys.field, n, n, [x for v in spec.v for x in v])
    cols = Matrix(sys.field, n, n, [w * v[k] for k, w in enumerate(weights) for v in spec.v])
    gram = rows @ cols
    adj = tuple(tuple(i != j and not gram.at(i, j).is_zero() for j in range(n))
                for i in range(n))
    return DeltaGraph(n, adj)


def is_connected(g: DeltaGraph) -> bool:
    if g.n == 0:
        return True
    seen = {0}
    stack = [0]
    while stack:
        v = stack.pop()
        for w in g.neighbors(v):
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == g.n


def path_order(g: DeltaGraph) -> Optional[tuple[int, ...]]:
    """Vertex order along the graph when it is a path, else None.

    Of the two endpoint-starting orders, the one starting at the smaller
    vertex label is returned.  A single vertex is trivially a path.
    """
    if g.n == 1:
        return (0,)
    if not is_connected(g):
        return None
    if len(g.edges()) != g.n - 1:
        return None
    degrees = [g.degree(i) for i in range(g.n)]
    if any(deg > 2 for deg in degrees):
        return None
    endpoints = [i for i, deg in enumerate(degrees) if deg == 1]
    if len(endpoints) != 2:
        return None
    order = [min(endpoints)]
    prev = None
    while len(order) < g.n:
        nxt = [w for w in g.neighbors(order[-1]) if w != prev]
        if len(nxt) != 1:
            return None
        prev = order[-1]
        order.append(nxt[0])
    return tuple(order)


def astar_invariance(sys: TridiagonalSystem, spec: Spectrum, s: Iterable[int]) -> bool:
    """Decide whether Astar maps the span of the E_h eigenspaces (h in s) into itself.

    E_h V is spanned by v_h, so this compares rank [v_h] with rank [v_h | Astar v_h].
    """
    s = sorted(set(s))
    if not s:
        return True
    if s[0] < 0 or s[-1] > sys.d:
        raise IndexOutOfRange(f"index set {s} not within 0..{sys.d}")
    n = sys.d + 1
    basis = Matrix(sys.field, n, len(s), [spec.v[h][k] for k in range(n) for h in s])
    image = Matrix(sys.field, n, len(s),
                   [t * spec.v[h][k] for k, t in enumerate(sys.theta_star) for h in s])
    return rank(basis) == rank(basis.hstack(image))
