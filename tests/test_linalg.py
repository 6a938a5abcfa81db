import numpy as np
import pytest

from hodgecheck.errors import (
    BadDimension,
    BadParameters,
    DimensionMismatch,
    NotPositiveDefinite,
    NotSymmetric,
)
from hodgecheck.linalg import (
    LinSubspace,
    _orthonormal_stack,
    SymMap,
    make_siegel_point,
    rank_with_kernel,
    subspace_distance,
    sym_basis,
    sym_dim,
    sym_index_pairs,
    sym_pair_table,
    sym_to_vec,
    vec_to_sym,
)
from hodgecheck.sampling import derive_rng
from helpers import contains


def test_siegel_point_identity():
    p = make_siegel_point(np.zeros((2, 2)), np.eye(2))
    assert np.array_equal(p.tau, 1j * np.eye(2))
    assert p.g == 2


def test_siegel_point_scalar():
    p = make_siegel_point(np.array([[0.0]]), np.array([[2.0]]))
    assert p.tau[0, 0] == 2j


def test_siegel_point_rejects_indefinite():
    with pytest.raises(NotPositiveDefinite):
        make_siegel_point(np.zeros((2, 2)), np.diag([1.0, -1.0]))


def test_siegel_point_rejects_asymmetric():
    x = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(NotSymmetric):
        make_siegel_point(x, np.eye(2))


def test_siegel_point_shape_mismatch():
    with pytest.raises(DimensionMismatch):
        make_siegel_point(np.zeros((2, 2)), np.eye(3))


def test_siegel_point_symmetrizes_roundoff():
    x = np.array([[0.0, 0.5], [0.5 + 1e-14, 0.0]])
    p = make_siegel_point(x, np.eye(2))
    # stored matrix is exactly symmetric after absorbing roundoff
    assert np.array_equal(p.tau, p.tau.T)


def test_symmap_symmetrized_and_callable():
    m = SymMap(np.array([[1.0, 2.0], [2.0, 3.0]]))
    assert np.array_equal(m.m, m.m.T)
    assert np.allclose(m([1.0, 0.0]), [1.0, 2.0])
    with pytest.raises(NotSymmetric):
        SymMap(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_rank_identity():
    rank, kernel, image = rank_with_kernel(np.eye(3))
    assert rank == 3
    assert kernel.dim == 0
    assert image.dim == 3


def test_rank_outer_product():
    v = np.array([1.0, 2.0, -1.0])
    rank, kernel, image = rank_with_kernel(np.outer(v, v))
    assert rank == 1
    assert kernel.dim == 2
    assert contains(image, v / np.linalg.norm(v))


def test_rank_constructed_from_factors():
    rng = derive_rng(3, "rank-factors")
    a = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
    b = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
    rank, kernel, image = rank_with_kernel(a @ b)
    assert rank == 2
    assert kernel.dim == 2
    # kernel really is annihilated
    for row in kernel.basis:
        assert np.linalg.norm((a @ b) @ row) < 1e-10


def test_rank_scale_invariant():
    rng = derive_rng(4, "rank-scale")
    m = rng.standard_normal((4, 2)) @ rng.standard_normal((2, 4))
    r0 = rank_with_kernel(m)[0]
    for c in (1e-8, 1e8, 2.7j):
        assert rank_with_kernel(c * m)[0] == r0


def test_rank_zero_matrix():
    rank, kernel, image = rank_with_kernel(np.zeros((3, 3)))
    assert rank == 0
    assert kernel.dim == 3
    assert image.dim == 0


def test_rank_rejects_bad_tolerance():
    with pytest.raises(BadParameters):
        rank_with_kernel(np.eye(2), tol=0.0)


def test_subspace_distance_values():
    e1 = LinSubspace(np.array([[1.0, 0.0]]), "V")
    e2 = LinSubspace(np.array([[0.0, 1.0]]), "V")
    diag = LinSubspace(np.array([[1.0, 1.0]]) / np.sqrt(2), "V")
    assert subspace_distance(e1, e1) == 0.0
    assert abs(subspace_distance(e1, e2) - 1.0) < 1e-12
    assert abs(subspace_distance(e1, diag) - 1 / np.sqrt(2)) < 1e-12


def test_subspace_distance_symmetric_and_triangle():
    rng = derive_rng(5, "dist")
    for _ in range(10):
        spans = [
            LinSubspace.from_spanning(
                rng.standard_normal((2, 5)) + 1j * rng.standard_normal((2, 5)), "V"
            )
            for _ in range(3)
        ]
        a, b, c = spans
        dab = subspace_distance(a, b)
        assert abs(dab - subspace_distance(b, a)) < 1e-12
        assert dab <= subspace_distance(a, c) + subspace_distance(c, b) + 1e-10


def test_subspace_distance_mismatch():
    a = LinSubspace(np.array([[1.0, 0.0]]), "V")
    b = LinSubspace(np.array([[1.0, 0.0, 0.0]]), "V")
    c = LinSubspace(np.array([[1.0, 0.0]]), "Sg")
    with pytest.raises(DimensionMismatch):
        subspace_distance(a, b)
    with pytest.raises(DimensionMismatch):
        subspace_distance(a, c)


def test_subspace_rejects_non_orthonormal():
    with pytest.raises(BadDimension):
        LinSubspace(np.array([[1.0, 1.0]]), "V")


def test_from_spanning_drops_dependent_rows():
    rows = np.array([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    s = LinSubspace.from_spanning(rows, "V")
    assert s.dim == 2
    p = s.projector()
    assert np.allclose(p @ p, p)
    assert contains(s, [3.0, -4.0, 0.0])
    assert not contains(s, [0.0, 0.0, 1.0])


def test_stacked_spanning_sets_keep_from_spanning_bases_and_refuse_dependent_rows():
    rng = derive_rng(64, "spanning-stack")
    rows = rng.standard_normal((4, 3, 6)) + 1j * rng.standard_normal((4, 3, 6))
    bases = _orthonormal_stack(rows)
    assert bases.tobytes() == np.array([LinSubspace.from_spanning(r, "Sg").basis
                                        for r in rows]).tobytes()
    rows[2, 1] = 2 * rows[2, 0]
    # one plane at a time, the dependent row is dropped: the 2-plane that is left
    # gives a (3, 3)-form the value 0, which a floor check would pass vacuously
    assert LinSubspace.from_spanning(rows[2], "Sg").dim == 2
    with pytest.raises(BadDimension, match="dependent rows"):
        _orthonormal_stack(rows)
    with pytest.raises(BadDimension, match="dependent rows"):
        _orthonormal_stack(np.zeros((2, 1, 3)))
    with pytest.raises(BadDimension):
        _orthonormal_stack(rng.standard_normal((2, 4, 3)))  # more rows than the ambient


def test_sym_flattening_roundtrip_and_isometry():
    rng = derive_rng(6, "flatten")
    g = 3
    for _ in range(5):
        a = rng.standard_normal((g, g)) + 1j * rng.standard_normal((g, g))
        a = a + a.T
        b = rng.standard_normal((g, g)) + 1j * rng.standard_normal((g, g))
        b = b + b.T
        va, vb = sym_to_vec(a), sym_to_vec(b)
        assert np.allclose(vec_to_sym(va, g), a)
        # coordinate inner product equals the Frobenius pairing
        frob = np.sum(np.conj(a) * b)
        assert abs(np.vdot(va, vb) - frob) < 1e-12


def test_vec_to_sym_shape_check():
    with pytest.raises(DimensionMismatch):
        vec_to_sym(np.zeros(4), 3)


def test_sym_basis_orthonormal():
    for g in (1, 2, 3):
        basis = sym_basis(g)
        n = sym_dim(g)
        assert basis.shape == (n, g, g)
        gram = np.einsum("aij,bij->ab", np.conj(basis), basis)
        assert np.allclose(gram, np.eye(n))


# Per-matrix loops that defined the coordinates before they were batched:
# the batched gathers and scatters must reproduce them bit for bit.
def _pairs_loop(g):
    return [(a, b) for a in range(g) for b in range(a, g)]


def _sym_to_vec_loop(a):
    g = a.shape[0]
    out = np.empty(sym_dim(g), dtype=complex)
    for i, (p, q) in enumerate(_pairs_loop(g)):
        out[i] = a[p, q] * (1.0 if p == q else np.sqrt(2.0))
    return out


def _vec_to_sym_loop(v, g):
    out = np.zeros((g, g), dtype=complex)
    for i, (p, q) in enumerate(_pairs_loop(g)):
        if p == q:
            out[p, q] = v[i]
        else:
            out[p, q] = out[q, p] = v[i] / np.sqrt(2.0)
    return out


def _random_sym_stack(rng, shape, g):
    a = rng.standard_normal(shape + (g, g)) + 1j * rng.standard_normal(shape + (g, g))
    return a + np.swapaxes(a, -1, -2)


@pytest.mark.parametrize("g", [1, 2, 3, 4, 5])
def test_batched_flattening_matches_the_per_matrix_loop_bitwise(g):
    rng = derive_rng(10, "flatten-batch", g)
    n = sym_dim(g)
    single = _random_sym_stack(rng, (), g)
    assert sym_to_vec(single).tobytes() == _sym_to_vec_loop(single).tobytes()
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    assert vec_to_sym(v, g).tobytes() == _vec_to_sym_loop(v, g).tobytes()
    for shape in [(4,), (2, 3)]:
        stack = _random_sym_stack(rng, shape, g)
        flat = stack.reshape((-1, g, g))
        want = np.array([_sym_to_vec_loop(m) for m in flat]).reshape(shape + (n,))
        got = sym_to_vec(stack)
        assert got.shape == shape + (n,) and got.tobytes() == want.tobytes()
        vs = rng.standard_normal(shape + (n,)) + 1j * rng.standard_normal(shape + (n,))
        want = np.array([_vec_to_sym_loop(x, g) for x in vs.reshape((-1, n))])
        got = vec_to_sym(vs, g)
        assert got.shape == shape + (g, g)
        assert got.tobytes() == want.reshape(shape + (g, g)).tobytes()
        # the round trip returns the input, up to the sqrt(2) rounding
        assert np.allclose(vec_to_sym(sym_to_vec(stack), g), stack, rtol=0, atol=1e-14)
        assert np.allclose(sym_to_vec(vec_to_sym(vs, g)), vs, rtol=0, atol=1e-14)
    assert sym_to_vec([single, single]).tobytes() == np.array([sym_to_vec(single)] * 2).tobytes()


def test_stacks_get_the_errors_of_single_inputs():
    asym = np.array([[1.0, 2.0], [0.0, 1.0]])
    for bad, error in [(np.zeros((2, 3)), DimensionMismatch), (asym, NotSymmetric)]:
        with pytest.raises(error):
            sym_to_vec(bad)
        with pytest.raises(error):
            sym_to_vec(np.array([np.zeros_like(bad), bad]))
        with pytest.raises(error):
            sym_to_vec(np.broadcast_to(bad, (2, 3) + bad.shape))
    for shape in [(4,), (2, 4), (2, 3, 7), ()]:
        with pytest.raises(DimensionMismatch):
            vec_to_sym(np.zeros(shape), 3)


@pytest.mark.parametrize("g", [1, 2, 3, 4, 5])
def test_pair_table_agrees_with_the_pair_order(g):
    t = sym_pair_table(g)
    pairs = _pairs_loop(g)
    assert sym_index_pairs(g) == pairs
    assert list(zip(t.rows.tolist(), t.cols.tolist())) == pairs
    for i, (a, b) in enumerate(pairs):
        # pairs (a, a), ..., (a, g-1) start at offset a*g - a(a-1)/2
        assert t.index[a, b] == t.index[b, a] == i == a * g - a * (a - 1) // 2 + (b - a)
        assert t.frob[i] == (1.0 if a == b else 2.0)
        assert t.root[i] == (1.0 if a == b else np.sqrt(2.0))
    assert sym_pair_table(g) is t
    for a in t:
        assert not a.flags.writeable
    basis = np.zeros((len(pairs), g, g), dtype=complex)
    for i, (a, b) in enumerate(pairs):
        basis[i, a, b] = basis[i, b, a] = 1.0 if a == b else 1.0 / np.sqrt(2.0)
    assert sym_basis(g).tobytes() == basis.tobytes()
