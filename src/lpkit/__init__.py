"""Exact-arithmetic toolkit for recognizing Q-polynomial tridiagonal/diagonal pairs.

The package decides, for a pair given by tridiagonal data (a, b, c) and dual
eigenvalues theta*, whether it is Q-polynomial — that is, whether the
eigenspace adjacency graph is a path, so the pair forms a Leonard system
under reordering.  Everything is exact: rationals or a prime field, no
floating point anywhere.
"""
from __future__ import annotations

from .cosine import (constant_row_sum, cosine_sequence, rebase_to_row_sum,
                     rescale_superdiagonal, u_polys)
from .delta import DeltaGraph, astar_invariance, build_delta, path_order
from .errors import LpkitError
from .exactmath import GF, RATIONALS, FieldSpec, Matrix, Poly, Scalar, rank
from .instances import (Instance, affine_transform, gen_krawtchouk,
                        gen_random, mutate_theta_star, parse_instance,
                        serialize_instance)
from .leaf import (LeafVerdict, appendix_a, appendix_b, leaf_by_ratio,
                   leaf_by_recurrence, leaf_by_subspace)
from .qpoly import (QPolyVerdict, RecurrenceWitness, is_q_polynomial,
                    solve_witness, verify_aw2)
from .system import (Spectrum, TridiagonalSystem, compute_spectrum, dual_a, eigenvalues,
                     make_system, realize_matrices, validate_system)

__version__ = "0.1.0"
