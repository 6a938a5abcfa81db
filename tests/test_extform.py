import numpy as np
import pytest

from hodgecheck.errors import (
    DimensionMismatch,
    GenusMismatch,
    NotUnitScalar,
    OddComponent,
)
from hodgecheck.extform import (
    ExtForm,
    FormMatrix,
    conjugate,
    contract,
    inverse_even,
    pair_index,
    restrict_to_plane,
    wedge,
)
from hodgecheck.linalg import LinSubspace, sym_dim, sym_to_vec
from hodgecheck.sampling import derive_rng, random_plane_sg, random_symmetric_complex


def e(g, a, b):
    return ExtForm.generator(g, a, b)


def ebar(g, a, b):
    return ExtForm.generator(g, a, b, conjugated=True)


def random_form(g, rng, n_terms=8, max_deg=4):
    """Sparse random form with a handful of random-bidegree terms."""
    n = sym_dim(g)
    terms = {}
    for _ in range(n_terms):
        p = int(rng.integers(0, min(max_deg, n) + 1))
        q = int(rng.integers(0, min(max_deg, n) + 1))
        s = sum(1 << int(i) for i in rng.choice(n, size=p, replace=False)) if p else 0
        t = sum(1 << int(i) for i in rng.choice(n, size=q, replace=False)) if q else 0
        terms[(s, t)] = complex(rng.standard_normal(), rng.standard_normal())
    return ExtForm(g, terms)


def test_generator_squares_to_zero():
    a = e(2, 0, 0)
    assert a.wedge(a).is_zero()


def test_one_form_anticommutation():
    a, b = e(2, 0, 0), e(2, 0, 1)
    assert a.wedge(b).max_coeff_diff(b.wedge(a) * (-1.0)) == 0.0


def test_symmetric_index_generator():
    # (a, b) and (b, a) address the same generator
    assert e(3, 0, 2).max_coeff_diff(e(3, 2, 0)) == 0.0
    assert pair_index(3, 0, 2) == pair_index(3, 2, 0)


def test_even_product_expansion():
    g = 2
    w1 = e(g, 0, 0).wedge(ebar(g, 0, 0))
    w2 = e(g, 1, 1).wedge(ebar(g, 1, 1))
    prod = (ExtForm.one(g) + w1).wedge(ExtForm.one(g) + w2)
    expected = ExtForm.one(g) + w1 + w2 + w1.wedge(w2)
    assert prod.max_coeff_diff(expected) == 0.0
    # even forms commute
    assert prod.max_coeff_diff((ExtForm.one(g) + w2).wedge(ExtForm.one(g) + w1)) == 0.0


def test_wedge_associative_and_graded_commutative():
    rng = derive_rng(7, "assoc")
    g = 2
    for _ in range(10):
        a, b, c = (random_form(g, rng) for _ in range(3))
        lhs = a.wedge(b).wedge(c)
        rhs = a.wedge(b.wedge(c))
        assert lhs.max_coeff_diff(rhs) < 1e-12
    # homogeneous sign rule
    a = e(g, 0, 0).wedge(e(g, 0, 1))          # degree 2
    b = e(g, 1, 1)                            # degree 1
    assert a.wedge(b).max_coeff_diff(b.wedge(a)) == 0.0
    c = ebar(g, 0, 0)                         # degree 1, odd against b
    assert b.wedge(c).max_coeff_diff(c.wedge(b) * (-1.0)) == 0.0


def test_wedge_genus_mismatch():
    with pytest.raises(GenusMismatch):
        wedge(e(1, 0, 0), e(2, 0, 0))


def test_wedge_degree_cap_is_plain_truncation():
    rng = derive_rng(8, "cap")
    g = 2
    for cap in (2, 4, 6):
        a, b = random_form(g, rng), random_form(g, rng)
        capped = a.wedge(b, max_degree=cap)
        full = a.wedge(b)
        trunc = ExtForm(g, {
            (s, t): c for (s, t), c in full.terms().items()
            if bin(s).count("1") + bin(t).count("1") <= cap
        })
        assert capped.max_coeff_diff(trunc) == 0.0


def test_inverse_of_one():
    assert inverse_even(ExtForm.one(2)).max_coeff_diff(ExtForm.one(2)) == 0.0


def test_inverse_geometric_series():
    g = 2
    om = e(g, 0, 0).wedge(ebar(g, 0, 0)) * 0.7
    inv = inverse_even(ExtForm.one(g) + om)
    # alternating powers of a single nilpotent term
    expected = ExtForm.one(g) - om + om.wedge(om) - om.wedge(om).wedge(om)
    assert inv.max_coeff_diff(expected) < 1e-15
    assert (ExtForm.one(g) + om).wedge(inv).max_coeff_diff(ExtForm.one(g)) < 1e-15


def test_inverse_roundtrip_random_even():
    rng = derive_rng(9, "inv")
    g = 3
    n = sym_dim(g)
    for _ in range(5):
        u = ExtForm.zero(g)
        for _ in range(10):
            p = int(rng.integers(1, 3))
            s = sum(1 << int(i) for i in rng.choice(n, size=p, replace=False))
            t = sum(1 << int(i) for i in rng.choice(n, size=p, replace=False))
            u = u + ExtForm(g, {(s, t): complex(rng.standard_normal(),
                                                rng.standard_normal())})
        a = ExtForm.one(g) + u
        b = inverse_even(a)
        assert a.wedge(b).max_coeff_diff(ExtForm.one(g)) < 1e-12
        assert b.wedge(a).max_coeff_diff(ExtForm.one(g)) < 1e-12


def test_inverse_rejects_bad_scalar():
    with pytest.raises(NotUnitScalar):
        inverse_even(ExtForm.one(2) * 2.0)
    with pytest.raises(OddComponent):
        inverse_even(ExtForm.one(2) + e(2, 0, 0))


def test_conjugate_basics():
    g = 2
    assert conjugate(e(g, 0, 0)).max_coeff_diff(ebar(g, 0, 0)) == 0.0
    # a real (1,1)-form is fixed
    om = e(g, 0, 0).wedge(ebar(g, 0, 0)) * 1j
    assert conjugate(om).max_coeff_diff(om) == 0.0


def test_conjugate_involution():
    rng = derive_rng(10, "conj")
    for _ in range(10):
        a = random_form(2, rng)
        assert conjugate(conjugate(a)).max_coeff_diff(a) < 1e-15


def test_contract_single_generator():
    g = 2
    m = random_symmetric_complex(g, derive_rng(11, "c1"))
    assert abs(contract(e(g, 0, 0), [m], []) - m[0, 0]) < 1e-15
    assert abs(contract(e(g, 0, 1), [m], []) - m[0, 1]) < 1e-15


def test_contract_mixed_pair():
    g = 2
    rng = derive_rng(12, "c2")
    m = random_symmetric_complex(g, rng)
    n = random_symmetric_complex(g, rng)
    form = e(g, 0, 1).wedge(ebar(g, 0, 1))
    got = contract(form, [m], [n])
    assert abs(got - m[0, 1] * np.conj(n[0, 1])) < 1e-15


def test_contract_determinant_expansion():
    g = 2
    rng = derive_rng(13, "c3")
    m = random_symmetric_complex(g, rng)
    n = random_symmetric_complex(g, rng)
    form = e(g, 0, 0).wedge(e(g, 1, 1))
    got = contract(form, [m, n], [])
    want = m[0, 0] * n[1, 1] - m[1, 1] * n[0, 0]
    assert abs(got - want) < 1e-14
    # swapping the vectors flips the sign
    assert abs(contract(form, [n, m], []) + want) < 1e-14


def test_contract_degree_mismatch_is_zero():
    form = e(2, 0, 0).wedge(ebar(2, 0, 0))
    assert contract(form, [], []) == 0
    assert contract(form, [np.eye(2)], [np.eye(2), np.eye(2)]) == 0


def test_restrict_zero_form():
    y = random_plane_sg(2, 2, derive_rng(14, "r0"))
    assert restrict_to_plane(ExtForm.zero(2), y) == 0.0


def test_restrict_positive_line():
    # (i/2) e ^ ebar is the standard positive form on a one-dim space
    g = 1
    form = e(g, 0, 0).wedge(ebar(g, 0, 0)) * 0.5j
    y = LinSubspace(np.array([[1.0]]), "Sg")
    val = restrict_to_plane(form, y)
    assert val > 0


def test_restrict_sign_is_basis_independent():
    rng = derive_rng(15, "rb")
    g = 2
    kahler = ExtForm.zero(g)
    for a in range(sym_dim(g)):
        s = 1 << a
        kahler = kahler + ExtForm(g, {(s, s): (0.3 + 0.1 * a) * 1j})
    form = kahler.wedge(kahler)
    for _ in range(5):
        y = random_plane_sg(g, 2, rng)
        v0 = restrict_to_plane(form, y)
        # re-express the same plane in a random unitary frame
        q = np.linalg.qr(rng.standard_normal((2, 2))
                         + 1j * rng.standard_normal((2, 2)))[0]
        y2 = LinSubspace(q @ y.basis, "Sg")
        v1 = restrict_to_plane(form, y2)
        assert np.sign(v0) == np.sign(v1)
        assert abs(v0) > 0


def test_restrict_offdegree_component_is_zero():
    # a (1,1)-form has no (2,2) part, so a 2-plane sees zero
    form = e(2, 0, 0).wedge(ebar(2, 0, 0))
    y = random_plane_sg(2, 2, derive_rng(16, "rd"))
    assert restrict_to_plane(form, y) == 0.0


def test_restrict_ambient_mismatch():
    form = e(2, 0, 0).wedge(ebar(2, 0, 0))
    wrong_tag = LinSubspace(np.array([[1.0, 0.0, 0.0]]), "V")
    with pytest.raises(DimensionMismatch):
        restrict_to_plane(form, wrong_tag)
    wrong_dim = LinSubspace(np.array([[1.0, 0.0]]), "Sg")
    with pytest.raises(DimensionMismatch):
        restrict_to_plane(form, wrong_dim)


def test_formmatrix_trace_and_identity():
    g = 2
    ident = FormMatrix.identity(g)
    tr = ident.trace()
    assert abs(tr.scalar_part - g) < 1e-15
    zero = ident - ident
    assert zero.det().is_zero()
    assert ident.det().max_coeff_diff(ExtForm.one(g)) == 0.0
