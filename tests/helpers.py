"""Input builders and exact oracles that only the tests use.

They were once part of the package; the program itself never calls them.
"""

from fractions import Fraction

import numpy as np

from hodgecheck.errors import DimensionMismatch
from hodgecheck.linalg import LinSubspace, sym_dim
from hodgecheck.sampling import random_subspace
from hodgecheck.symmaps import V_SAMPLE_BOUND, RationalSymMap, _random_int_vector


def random_symmetric_complex(g: int, rng: np.random.Generator) -> np.ndarray:
    a = rng.standard_normal((g, g)) + 1j * rng.standard_normal((g, g))
    return (a + a.T) / 2


def random_plane_sg(g: int, k: int, rng: np.random.Generator) -> LinSubspace:
    """Random complex k-plane of symmetric matrices, in flattened coordinates."""
    return random_subspace(sym_dim(g), k, rng, "Sg")


def contains(subspace: LinSubspace, v, tol: float = 1e-10) -> bool:
    """Whether v lies in the subspace, to tol relative to max(1, |v|)."""
    v = np.asarray(v, dtype=complex)
    scale = max(1.0, float(np.linalg.norm(v)))
    return np.linalg.norm(v - subspace.projector() @ v) <= tol * scale


def frac_matrix(rows) -> list[list[Fraction]]:
    return [[Fraction(x) for x in row] for row in rows]


def random_rational_vector(g: int, rng, bound: int = V_SAMPLE_BOUND) -> list[Fraction]:
    return [Fraction(x) for x in _random_int_vector(g, rng, bound)]


def apply_map(m: RationalSymMap, v) -> list[Fraction]:
    """The exact product M v of a symmetric map with a vector of length g."""
    if len(v) != m.g:
        raise DimensionMismatch(f"vector of length {len(v)} for a genus-{m.g} map")
    return [sum((a * x for a, x in zip(r, v)), Fraction(0)) / m.den for r in m.num]


def eval_matrix_exact(basis: list[RationalSymMap], v) -> list[list[Fraction]]:
    """The rows M v of each map of the basis: the evaluation matrix e_v."""
    return [apply_map(m, v) for m in basis]
