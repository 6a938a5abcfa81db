"""Deterministic random sampling helpers.

One master seed drives everything.  Independent streams are derived through
SeedSequence spawn keys computed from stable string or integer labels, so a
given (seed, label) pair yields the same draws no matter which other suites
ran before it or in what order.
"""

from __future__ import annotations

import zlib

import numpy as np

from .linalg import LinSubspace, SiegelPoint, _orthonormal_stack, sym_dim


def _key_part(part) -> int:
    if isinstance(part, (int, np.integer)):
        return int(part) & 0xFFFFFFFF
    return zlib.crc32(str(part).encode("utf8"))


def derive_rng(seed: int, *key) -> np.random.Generator:
    """A generator tied to (seed, key...); stable across runs and schedules."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(_key_part(p) for p in key))
    return np.random.default_rng(ss)


def random_symmetric_real(g: int, rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
    a = rng.standard_normal((g, g)) * scale
    return (a + a.T) / 2


def random_symmetric_complex(g: int, rng: np.random.Generator) -> np.ndarray:
    a = rng.standard_normal((g, g)) + 1j * rng.standard_normal((g, g))
    return (a + a.T) / 2


def random_siegel_point(g: int, rng: np.random.Generator, spread: float = 0.8,
                        y_lo: float = 0.5, y_hi: float = 2.0) -> SiegelPoint:
    """Random point with well-conditioned imaginary part (eigenvalues in [y_lo, y_hi])."""
    x = random_symmetric_real(g, rng, spread)
    q, _ = np.linalg.qr(rng.standard_normal((g, g)))
    ev = rng.uniform(y_lo, y_hi, size=g)
    y = q @ np.diag(ev) @ q.T
    y = (y + y.T) / 2
    return SiegelPoint(x + 1j * y)


def random_unit_vector(metric: np.ndarray, rng: np.random.Generator, n: int) -> np.ndarray:
    """n uniform draws from the unit sphere of the Hermitian metric, as rows.

    With metric = L L^*, the map z -> L^{-*} z is an isometry from C^g with
    the standard inner product onto C^g with the metric.  A standard complex
    Gaussian z is unitarily invariant, so z / |z| is uniform on the Euclidean
    unit sphere, and its image v = L^{-*} z / |z| is uniform on the metric
    sphere, with v^* metric v = 1.

    The n vectors come from one (n, 2, g) normal draw (real, then imaginary
    parts of each vector in turn), one Cholesky factor and one solve.
    """
    g = metric.shape[0]
    parts = rng.standard_normal((n, 2, g))
    z = parts[:, 0] + 1j * parts[:, 1]
    ell = np.linalg.cholesky(metric)
    return np.linalg.solve(ell.conj().T, z.T).T / np.linalg.norm(z, axis=1)[:, None]


def random_subspace(ambient_dim: int, dim: int, rng: np.random.Generator,
                    ambient_tag: str) -> LinSubspace:
    """Random complex dim-plane; more rows than ambient_dim raise BadDimension."""
    return LinSubspace(_random_planes(ambient_dim, dim, 1, rng)[0], ambient_tag)


def _random_planes(ambient_dim: int, dim: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """count random dim-planes as one (count, dim, ambient_dim) array of orthonormal rows."""
    parts = rng.standard_normal((count, 2, dim, ambient_dim))
    return _orthonormal_stack(parts[:, 0] + 1j * parts[:, 1])


def random_plane_sg(g: int, k: int, rng: np.random.Generator) -> LinSubspace:
    """Random complex k-plane of symmetric matrices, in flattened coordinates."""
    return random_subspace(sym_dim(g), k, rng, "Sg")
