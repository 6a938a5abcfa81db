import numpy as np
import pytest

from hodgecheck import symmaps
from hodgecheck.errors import NotInWperp, NotSymmetric
from hodgecheck.linalg import (
    LinSubspace,
    make_siegel_point,
    rank_with_kernel,
    subspace_distance,
    sym_to_vec,
)
from hodgecheck.sampling import derive_rng, random_siegel_point, random_subspace
from hodgecheck.slices import (
    AffineSlice,
    OutOfDomain,
    check_embedded_subspace_invariance,
    complex_structure,
    embedded_subspace,
    embedding_matrix,
    multiplication_by_i,
    random_slice_member,
    real_embedding,
    slice_member,
    standard_symplectic,
)
from hodgecheck.symmaps import wperp
from helpers import contains


def span_e1(g):
    row = np.zeros(g)
    row[0] = 1.0
    return LinSubspace(row[None, :], "V")


def test_slice_dimension():
    tau0 = make_siegel_point(np.zeros((3, 3)), np.eye(3))
    sl = AffineSlice(tau0, span_e1(3))
    # codim 2 annihilator
    assert sl.dim == 3


def test_zero_direction_returns_base():
    tau0 = make_siegel_point(np.zeros((2, 2)), np.eye(2))
    sl = AffineSlice(tau0, span_e1(2))
    member = slice_member(sl, np.zeros(sl.dim))
    assert np.allclose(member.tau, tau0.tau)


def test_member_difference_stays_in_annihilator():
    rng = derive_rng(60, "member-diff")
    for g, wdim in ((2, 1), (3, 1), (3, 2), (4, 2)):
        tau0 = random_siegel_point(g, rng)
        w = random_subspace(g, wdim, rng, "V")
        sl = AffineSlice(tau0, w)
        x = wperp(w)
        for _ in range(5):
            m = random_slice_member(sl, rng)
            diff = m.tau - tau0.tau
            assert np.max(np.abs(diff @ w.basis.T)) < 1e-12
            assert contains(x, sym_to_vec(diff), tol=1e-10)


def test_member_window_and_out_of_domain():
    tau0 = make_siegel_point(np.zeros((2, 2)), np.eye(2))
    sl = AffineSlice(tau0, span_e1(2))
    # directions are multiples of e2 x e2 here; push the imaginary part down
    e22 = np.zeros((2, 2), dtype=complex)
    e22[1, 1] = 1.0
    small = slice_member(sl, 0.5j * e22)
    assert small is not OutOfDomain
    assert np.allclose(small.tau.imag, np.diag([1.0, 1.5]))
    out = slice_member(sl, -2.0j * e22)
    assert out is OutOfDomain
    assert not out


def test_member_rejects_directions_outside():
    tau0 = make_siegel_point(np.zeros((2, 2)), np.eye(2))
    sl = AffineSlice(tau0, span_e1(2))
    bad = np.zeros((2, 2))
    bad[0, 0] = 1.0
    with pytest.raises(NotInWperp):
        slice_member(sl, bad)


def test_member_refuses_an_asymmetric_direction():
    tau0 = make_siegel_point(np.zeros((3, 3)), np.eye(3))
    sl = AffineSlice(tau0, span_e1(3))
    lopsided = np.array([[0, 0, 0], [0, 0.1, 0.2], [0, 0, 0.1]])
    with pytest.raises(NotSymmetric):
        slice_member(sl, lopsided)
    member = slice_member(sl, lopsided + np.triu(lopsided, 1).T)
    assert np.array_equal(member.tau - tau0.tau, lopsided + np.triu(lopsided, 1).T)


def test_real_embedding_scalar_case():
    m = make_siegel_point(np.array([[0.0]]), np.array([[1.0]]))
    assert np.allclose(real_embedding(m, np.array([1.0 + 0j])), [1.0, 0.0])
    assert np.allclose(real_embedding(m, np.array([1j])), [0.0, 1.0])


def test_real_embedding_linear_and_injective():
    rng = derive_rng(61, "embed")
    for g in (1, 2, 3):
        m = random_siegel_point(g, rng)
        x = rng.standard_normal(g) + 1j * rng.standard_normal(g)
        y = rng.standard_normal(g) + 1j * rng.standard_normal(g)
        lhs = real_embedding(m, x + y)
        rhs = real_embedding(m, x) + real_embedding(m, y)
        assert np.allclose(lhs, rhs)
        f = embedding_matrix(m)
        assert abs(np.linalg.det(f)) > 1e-10


def test_structure_matrices():
    assert np.array_equal(multiplication_by_i(1), np.array([[0.0, -1.0],
                                                            [1.0, 0.0]]))
    s = standard_symplectic(2)
    assert np.array_equal(s, -s.T)
    assert np.array_equal(s @ s, -np.eye(4))


def test_complex_structure_scalar_pin():
    m = make_siegel_point(np.array([[0.0]]), np.array([[1.0]]))
    j = complex_structure(m)
    assert np.allclose(j, [[0.0, -1.0], [1.0, 0.0]], atol=1e-14)


def test_complex_structure_invariants():
    rng = derive_rng(62, "J")
    for g in (1, 2, 3):
        for _ in range(5):
            m = random_siegel_point(g, rng)
            j = complex_structure(m)
            s = standard_symplectic(g)
            assert np.max(np.abs(j @ j + np.eye(2 * g))) < 1e-10
            assert np.max(np.abs(j.T @ s @ j - s)) < 1e-10
            taming = (s @ j + (s @ j).T) / 2
            assert np.linalg.eigvalsh(taming).min() > 0


def test_embedded_full_space():
    rng = derive_rng(63, "full")
    g = 2
    w = LinSubspace(np.eye(g), "V")
    tau0 = random_siegel_point(g, rng)
    sl = AffineSlice(tau0, w)
    assert sl.dim == 0
    img = embedded_subspace(tau0, w)
    assert img.dim == 2 * g
    other = random_siegel_point(g, rng)
    assert subspace_distance(img, embedded_subspace(other, w)) < 1e-12


def test_embedded_image_member_independent():
    rng = derive_rng(64, "img")
    for g, wdim in ((2, 1), (3, 2)):
        tau0 = random_siegel_point(g, rng)
        w = random_subspace(g, wdim, rng, "V")
        sl = AffineSlice(tau0, w)
        base_img = embedded_subspace(tau0, w)
        assert base_img.dim == 2 * wdim
        for _ in range(5):
            m = random_slice_member(sl, rng)
            assert subspace_distance(base_img, embedded_subspace(m, w)) < 1e-10


def test_invariance_report_measures_a_wrong_direction_dimension(monkeypatch):
    """An SVD kernel one row short gives a slice of c(c+1)/2 - 1 directions: a failed check."""
    def one_kernel_row_fewer(m, tol=symmaps.DEFAULT_RANK_TOL):
        rank, kernel, image = rank_with_kernel(m, tol)
        return rank, LinSubspace(kernel.basis[1:], "V"), image

    monkeypatch.setattr(symmaps, "rank_with_kernel", one_kernel_row_fewer)
    tau0 = random_siegel_point(3, derive_rng(66, "short-kernel"))
    rep = check_embedded_subspace_invariance(tau0, span_e1(3), n_members=4, seed=4)
    checks = {c["name"]: c for c in rep.to_dict()["checks"]}
    assert checks["direction-space-dimension"]["measured"] == 1.0
    assert not checks["direction-space-dimension"]["passed"]
    assert not rep.passed


def test_invariance_report():
    rng = derive_rng(65, "inv-rep")
    tau0 = random_siegel_point(2, rng)
    rep = check_embedded_subspace_invariance(tau0, span_e1(2), n_members=8,
                                             seed=4)
    assert rep.passed
    names = [c["name"] for c in rep.to_dict()["checks"]]
    assert "embedded-image-constant" in names
    assert "complex-structure-squares" in names
    assert "taming-positivity" in names
