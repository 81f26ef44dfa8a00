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


def path_order(g: DeltaGraph) -> Optional[tuple[int, ...]]:
    """Vertex order along the graph when it is a path, else None.

    One walk from the smallest vertex of degree 1, each step to the only
    neighbour other than the vertex it came from.  Every vertex the walk
    passes has degree 2, so it never returns to one it has visited; the
    graph is a path exactly when the walk ends at a second vertex of
    degree 1 after visiting all n vertices.  So the order starts at the
    smaller endpoint.  A single vertex is trivially a path.
    """
    ends = [i for i in range(g.n) if g.degree(i) == 1]
    if not ends:
        return (0,) if g.n == 1 else None
    order = [ends[0]]
    step = g.neighbors(ends[0])
    while len(step) == 1:
        order.append(step[0])
        step = [w for w in g.neighbors(step[0]) if w != order[-2]]
    return tuple(order) if not step and len(order) == g.n else None


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
    rows = [[spec.v[h][k] for h in s] for k in range(n)]
    basis = Matrix(sys.field, n, len(s), [x for row in rows for x in row])
    augmented = Matrix(sys.field, n, 2 * len(s),
                       [x for row, t in zip(rows, sys.theta_star) for x in row + [t * y for y in row]])
    return rank(basis) == rank(augmented)
