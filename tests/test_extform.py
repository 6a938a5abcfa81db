import math
from fractions import Fraction
from itertools import combinations, permutations, product

import numpy as np
import pytest

import hodgecheck.extform as extform
from hodgecheck.errors import (
    DimensionMismatch,
    GenusMismatch,
    NotSymmetric,
    NotUnitScalar,
    OddComponent,
)
from hodgecheck.extform import (
    ExtForm,
    FormMatrix,
    _minors,
    conjugate,
    contract,
    inverse_even,
    pair_index,
    restrict_to_plane,
    wedge,
)
from hodgecheck.linalg import LinSubspace, sym_dim
from hodgecheck.sampling import derive_rng
from helpers import random_plane_sg, random_symmetric_complex


def e(g, a, b):
    return ExtForm.generator(sym_dim(g), a, b)


def ebar(g, a, b):
    return ExtForm.generator(sym_dim(g), a, b, conjugated=True)


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
    return ExtForm(n, terms)


def reference_wedge(a, b):
    """a ^ b term by term, without split tables.

    Each monomial is written as its word of generators, holomorphic ones as
    their index and antiholomorphic ones as n + index, so the canonical order
    is ascending order; the product's sign is the parity of the inversions of
    the concatenated word.
    """
    n = a.n

    def word(s, t):
        return [i for i in range(n) if s >> i & 1] + [n + i for i in range(n) if t >> i & 1]

    out = {}
    for (s1, t1), c1 in a.terms().items():
        for (s2, t2), c2 in b.terms().items():
            if s1 & s2 or t1 & t2:
                continue
            w = word(s1, t1) + word(s2, t2)
            inversions = sum(x > y for i, x in enumerate(w) for y in w[i + 1:])
            key = (s1 | s2, t1 | t2)
            out[key] = out.get(key, 0.0) + (-1) ** inversions * c1 * c2
    return ExtForm(a.n, out)


def homogeneous_form(n, rng, degree, n_terms=6, exact=False):
    """Random form on n generators of one total degree, with mixed bidegrees.

    An exact form has Python-int coefficients in object blocks.
    """
    terms = {}
    for _ in range(n_terms if degree <= 2 * n else 0):
        p = int(rng.integers(max(0, degree - n), min(degree, n) + 1))
        s = sum(1 << int(i) for i in rng.choice(n, size=p, replace=False))
        t = sum(1 << int(i) for i in rng.choice(n, size=degree - p, replace=False))
        terms[(s, t)] = (int(rng.integers(-9, 10)) if exact
                         else complex(rng.standard_normal(), rng.standard_normal()))
    return ExtForm(n, terms)


def python_ints(form):
    """Whether every stored coefficient of form is a Python int in an object block."""
    blocks = [form.block(*k) for k in form.bidegrees()]
    return all(b.dtype == object and all(type(c) is int for c in b.flat) for b in blocks)


@pytest.mark.parametrize("g", [1, 2, 3])
def test_wedge_matches_reference_on_mixed_and_odd_forms(g):
    rng = derive_rng(17, "reference-wedge", g)
    for _ in range(12):
        a, b = random_form(g, rng), random_form(g, rng)
        want = reference_wedge(a, b)
        assert a.wedge(b).max_coeff_diff(want) <= 1e-12 * max(want.norm_inf(), 1.0)
    for da in (1, 3):
        for db in (1, 2):
            a, b = homogeneous_form(sym_dim(g), rng, da), homogeneous_form(sym_dim(g), rng, db)
            want = reference_wedge(a, b)
            assert a.wedge(b).max_coeff_diff(want) <= 1e-12 * max(want.norm_inf(), 1.0)


def test_algebra_laws_hold_on_random_forms():
    """The laws on n = 1..6 generators, 2, 4 and 5 being no genus's count.

    Complex forms hold them to roundoff; exact forms, Python ints in object
    blocks, hold them exactly and keep Python ints through every product.
    """
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=12, deadline=None, database=None, derandomize=True)
    @hypothesis.given(seed=st.integers(0, 2**32 - 1), degrees=st.tuples(*[st.integers(0, 4)] * 3))
    def laws(n, exact, seed, degrees):
        rng = np.random.default_rng(seed)
        a, b, c = (homogeneous_form(n, rng, d, exact=exact) for d in degrees)
        da, db = degrees[:2]
        tol = 0 if exact else 1e-11
        abc, ba, conj = a.wedge(b).wedge(c), b.wedge(a), conjugate(a.wedge(b))
        assert abc.max_coeff_diff(a.wedge(b.wedge(c))) <= tol
        assert a.wedge(b).max_coeff_diff(ba * (-1) ** (da * db)) <= tol
        assert conj.max_coeff_diff(conjugate(a).wedge(conjugate(b))) <= tol
        assert ExtForm(n, a.terms()).max_coeff_diff(a) == 0.0
        even = sum((homogeneous_form(n, rng, d, exact=exact) for d in (2, 4)), ExtForm.one(n))
        inverse = inverse_even(even)
        assert (even.wedge(inverse) - 1).norm_inf() <= (0 if exact else 1e-10)
        assert not exact or all(python_ints(f) for f in (abc, ba, conj, inverse))

    for n in range(1, 7):
        for exact in (False, True):
            laws(n, exact)


def test_integer_coefficients_never_wrap():
    big = ExtForm(3, {(1, 1): 2**40})
    product = big.wedge(ExtForm(3, {(2, 2): 2**40}))
    assert product.terms() == {(3, 3): -2**80} and python_ints(product)
    narrow = ExtForm(3, {(1, 0): np.uint8(200), (0, 0): np.uint8(200)})
    assert (narrow * 2).terms() == {(1, 0): 400, (0, 0): 400}
    assert (narrow + np.uint8(100)).scalar_part == 300
    stored = ExtForm.from_blocks(3, {(0, 0): np.array([[2**40]])})  # an int64 block
    assert stored.block(0, 0).dtype == np.int64
    for form in (stored.wedge(stored), stored * 2**40, stored + ExtForm.scalar(3, 2**63)):
        assert python_ints(form)
    assert stored.wedge(stored).scalar_part == (stored * 2**40).scalar_part == 2**80
    square = FormMatrix.from_blocks(1, 3, {(0, 0): np.full((1, 1, 1, 1), 2**40)})
    entry = square.matmul(square)[0, 0]
    assert python_ints(entry) and entry.scalar_part == 2**80


def test_exact_forms_divide_into_fractions():
    exact = ExtForm(3, {(1, 1): 3, (0, 0): 1})
    half = exact / 2
    assert all(type(c) is Fraction for c in half.terms().values())
    assert half.terms() == {(1, 1): Fraction(3, 2), (0, 0): Fraction(1, 2)}
    assert (half * 2).max_coeff_diff(exact) == 0
    assert (half / np.int64(3)).scalar_part == Fraction(1, 6)
    inexact = ExtForm(3, {(1, 1): 3 + 1j, (0, 0): 1})
    assert (inexact / 2).block(1, 1).dtype == complex
    assert (inexact / 2).terms() == (inexact * 0.5).terms()


def test_exact_cancellation_leaves_no_block():
    g = 2
    om = e(g, 0, 0).wedge(ebar(g, 0, 1)) * (0.5 - 1.5j)
    for zero in (om - om, e(g, 0, 1).wedge(e(g, 0, 1)), om * 0.0):
        assert zero.is_zero()
        assert zero.bidegrees() == set()
        assert len(zero) == 0
    mixed = om + e(g, 0, 0).wedge(e(g, 1, 1)) - om
    assert mixed.bidegrees() == {(2, 0)}
    assert len(mixed) == 1
    # an odd part that cancels exactly does not block inversion
    unit = ExtForm.one(sym_dim(g)) + om.wedge(conjugate(om)) + e(g, 0, 0) - e(g, 0, 0)
    assert unit.is_even()
    assert unit.wedge(inverse_even(unit)).max_coeff_diff(ExtForm.one(sym_dim(g))) == 0.0


def test_from_blocks_checks_shapes_and_drops_zero_blocks():
    g = 2
    form = ExtForm.from_blocks(sym_dim(g), {(1, 1): np.eye(3), (2, 0): np.zeros((3, 1))})
    assert form.bidegrees() == {(1, 1)}
    assert form.coefficient(0b10, 0b10) == 1.0
    # block reads back the stored array, and zeros for an absent bidegree
    assert np.array_equal(form.block(1, 1), np.eye(3))
    assert form.block(2, 0).shape == (3, 1) and not form.block(2, 0).any()
    with pytest.raises(DimensionMismatch):
        ExtForm.from_blocks(sym_dim(g), {(1, 1): np.eye(2)})


def test_negative_generator_count_is_rejected():
    with pytest.raises(DimensionMismatch):
        ExtForm(-1)


def test_masks_outside_the_generators_are_rejected():
    for mask in ((-1, 0), (0, -2), (1 << 3, 0)):
        with pytest.raises(DimensionMismatch):
            ExtForm(3, {mask: 1.0})


def test_negative_bidegrees_are_rejected():
    with pytest.raises(DimensionMismatch):
        ExtForm.from_blocks(3, {(-1, 0): np.ones((0, 1))})
    with pytest.raises(DimensionMismatch):
        FormMatrix.from_blocks(2, 3, {(0, -1): np.ones((2, 2, 1, 0))})


def test_counts_of_no_genus_reject_only_the_matrix_operations():
    form = ExtForm(4, {(0b1, 0b10): 2, (0b1100, 0): -1})
    assert repr(form) == "ExtForm(n=4, (2)*dt[0]^dtbar[1] + (-1)*dt[2]^dt[3])"
    assert repr(e(2, 0, 1)) == "ExtForm(n=3, (1)*dt(0, 1))"
    with pytest.raises(DimensionMismatch):
        ExtForm.generator(4, 0, 0)
    with pytest.raises(DimensionMismatch):
        contract(form, [np.eye(2)], [np.eye(2)])
    with pytest.raises(DimensionMismatch):
        restrict_to_plane(form.wedge(conjugate(form)), LinSubspace(np.eye(4)[:2], "Sg"))


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
    one = ExtForm.one(sym_dim(g))
    prod = (one + w1).wedge(one + w2)
    expected = one + w1 + w2 + w1.wedge(w2)
    assert prod.max_coeff_diff(expected) == 0.0
    # even forms commute
    assert prod.max_coeff_diff((one + w2).wedge(one + w1)) == 0.0


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
        trunc = ExtForm(sym_dim(g), {
            (s, t): c for (s, t), c in full.terms().items()
            if bin(s).count("1") + bin(t).count("1") <= cap
        })
        assert capped.max_coeff_diff(trunc) == 0.0


def test_inverse_of_one():
    assert inverse_even(ExtForm.one(sym_dim(2))).max_coeff_diff(ExtForm.one(sym_dim(2))) == 0.0


def test_inverse_geometric_series():
    g = 2
    om = e(g, 0, 0).wedge(ebar(g, 0, 0)) * 0.7
    one = ExtForm.one(sym_dim(g))
    inv = inverse_even(one + om)
    # alternating powers of a single nilpotent term
    expected = one - om + om.wedge(om) - om.wedge(om).wedge(om)
    assert inv.max_coeff_diff(expected) < 1e-15
    assert (one + om).wedge(inv).max_coeff_diff(one) < 1e-15


def test_inverse_roundtrip_random_even():
    rng = derive_rng(9, "inv")
    g = 3
    n = sym_dim(g)
    for _ in range(5):
        u = ExtForm.zero(sym_dim(g))
        for _ in range(10):
            p = int(rng.integers(1, 3))
            s = sum(1 << int(i) for i in rng.choice(n, size=p, replace=False))
            t = sum(1 << int(i) for i in rng.choice(n, size=p, replace=False))
            u = u + ExtForm(sym_dim(g), {(s, t): complex(rng.standard_normal(),
                                                rng.standard_normal())})
        a = ExtForm.one(sym_dim(g)) + u
        b = inverse_even(a)
        assert a.wedge(b).max_coeff_diff(ExtForm.one(sym_dim(g))) < 1e-12
        assert b.wedge(a).max_coeff_diff(ExtForm.one(sym_dim(g))) < 1e-12


def test_inverse_rejects_bad_scalar():
    with pytest.raises(NotUnitScalar):
        inverse_even(ExtForm.one(sym_dim(2)) * 2.0)
    with pytest.raises(OddComponent):
        inverse_even(ExtForm.one(sym_dim(2)) + e(2, 0, 0))


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


@pytest.mark.parametrize("n", [1, 3, 6, 10])
@pytest.mark.parametrize("k", [0, 1, 2, 3, 4])
@pytest.mark.parametrize("batch", [(), (5,)])
def test_minors_match_a_determinant_per_column_subset(n, k, batch):
    rng = derive_rng(18, "minors", n, k, len(batch))
    rows = rng.standard_normal((k, n, *batch)) + 1j * rng.standard_normal((k, n, *batch))
    got = _minors(rows)
    subsets = list(combinations(range(n), k))
    assert got.shape == (len(subsets), *batch)
    if k > n:
        return  # no column k-subsets: the result is empty
    # batch axes moved to the front for np.linalg.det
    stack = np.moveaxis(rows, (0, 1), (-2, -1))
    for t, cols in enumerate(subsets):
        want = np.linalg.det(stack[..., list(cols)]) if k else np.ones(batch)
        assert np.allclose(got[t], want, rtol=1e-12, atol=1e-12)


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


def test_contract_one_stack_on_both_sides_matches_two_stacks():
    # restrict_to_plane passes one stack as both; it is validated once and
    # the anti minors are the conjugated hol minors
    rng = derive_rng(17, "shared-stack")
    nonzero = 0
    for g in (2, 3):
        for k in (1, 2, 3):
            form = homogeneous_form(sym_dim(g), rng, 2 * k, n_terms=12)
            stack = np.array([random_symmetric_complex(g, rng) for _ in range(k)])
            shared = contract(form, stack, stack)
            assert shared == contract(form, stack, stack.copy())
            assert shared == contract(form, list(stack), list(stack))
            nonzero += shared != 0
    assert nonzero >= 4
    with pytest.raises(NotSymmetric):
        contract(form, [np.triu(np.ones((3, 3)))] * 2, [np.triu(np.ones((3, 3)))] * 2)


def test_stacked_sets_contract_as_each_set_alone():
    rng = derive_rng(18, "stacked-contract")
    for g in (2, 3):
        for p, q in ((1, 1), (2, 1), (2, 2), (3, 3)):
            form = homogeneous_form(sym_dim(g), rng, p + q, n_terms=12)
            hol = np.array([[random_symmetric_complex(g, rng) for _ in range(p)] for _ in range(7)])
            anti = np.array([[random_symmetric_complex(g, rng) for _ in range(q)] for _ in range(7)])
            got = contract(form, hol, anti)
            assert got.shape == (7,)
            assert got.tolist() == [contract(form, h, a) for h, a in zip(hol, anti)]
            shared = contract(form, hol, hol)
            assert shared.tolist() == [contract(form, h, h) for h in hol]
    assert contract(ExtForm.zero(sym_dim(g)), hol[:, :1], hol[:, :1]).tolist() == [0j] * 7
    with pytest.raises(DimensionMismatch):
        contract(form, hol, anti[:3])


def test_restrict_zero_form():
    y = random_plane_sg(2, 2, derive_rng(14, "r0"))
    assert restrict_to_plane(ExtForm.zero(sym_dim(2)), y) == 0.0


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
    kahler = ExtForm.zero(sym_dim(g))
    for a in range(sym_dim(g)):
        s = 1 << a
        kahler = kahler + ExtForm(sym_dim(g), {(s, s): (0.3 + 0.1 * a) * 1j})
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
    # a stack of bases is (T, k, n): one bare basis, or rows of the wrong n, is refused
    with pytest.raises(DimensionMismatch):
        restrict_to_plane(form, np.eye(3)[:1])
    with pytest.raises(DimensionMismatch):
        restrict_to_plane(form, np.eye(2)[None, :1])


def test_formmatrix_trace_and_identity():
    g = 2
    ident = FormMatrix.identity(g, sym_dim(g))
    tr = ident.trace()
    assert abs(tr.scalar_part - g) < 1e-15
    zero = ident - ident
    assert zero.det().is_zero()
    assert ident.det().max_coeff_diff(ExtForm.one(sym_dim(g))) == 0.0


def test_scalar_addition_accepts_what_multiplication_does():
    form = e(2, 0, 1).wedge(ebar(2, 1, 1)) + 0.5
    one = ExtForm.one(sym_dim(2))
    for c in (1, 1.0, 1 + 0j, np.int64(1), np.uint8(1), np.float32(1.0), np.complex128(1)):
        assert (form + c).terms() == (c + form).terms() == (form + one).terms()
        assert (form - c).terms() == (form - one).terms()
        assert (c - form).terms() == (one - form).terms()
    for bad in ("1", [1], None, FormMatrix.identity(2, sym_dim(2))):
        for op in (lambda: form + bad, lambda: bad + form,
                   lambda: form - bad, lambda: bad - form):
            with pytest.raises(TypeError):
                op()
    with pytest.raises(GenusMismatch):
        form + ExtForm.one(sym_dim(3))


def random_grid(g, rng, keys=None):
    """A g x g grid of random forms; with keys, dense blocks of those bidegrees in that order."""
    if keys is None:
        return [[random_form(g, rng, n_terms=3, max_deg=1) for _ in range(g)] for _ in range(g)]
    n = sym_dim(g)

    def dense(p, q):
        shape = (math.comb(n, p), math.comb(n, q))
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return [[ExtForm.from_blocks(sym_dim(g), {k: dense(*k) for k in keys}) for _ in range(g)]
            for _ in range(g)]


def grid_matmul(a, b, g, max_degree=None):
    """a b on grids: k first, then the entries' bidegree pairs in sorted order, one wedge each."""
    out = [[ExtForm.zero(sym_dim(g)) for _ in range(g)] for _ in range(g)]
    for i in range(g):
        for j in range(g):
            for k in range(g):
                for s in sorted(a[i][k].bidegrees()):
                    for t in sorted(b[k][j].bidegrees()):
                        out[i][j] = out[i][j] + a[i][k].component(*s).wedge(
                            b[k][j].component(*t), max_degree=max_degree)
    return out


def grid_det(grid, g):
    """The determinant on a grid of forms by Laplace expansion along rows, sharing minors.

    The minor of rows 0..m on each column subset C is the sum over C's j-th
    column c of (-1)^(m + j) (minor of rows 0..m-1 on C without c) ^ grid[m][c].
    """
    minors = {(): ExtForm.one(sym_dim(g))}
    for m in range(g):
        minors = {cols: sum((minors[cols[:j] + cols[j + 1:]].wedge(grid[m][c]) if m else grid[m][c])
                            * (-1) ** (m + j) for j, c in enumerate(cols))
                  for cols in combinations(range(g), m + 1)}
    return minors[tuple(range(g))]


def leibniz_det(grid, max_degree=None):
    """The Leibniz determinant on a square grid of forms: a signed product per permutation."""
    n, g = grid[0][0].n, len(grid)
    acc = ExtForm.zero(n)
    for perm in permutations(range(g)):
        prod = ExtForm.one(n)
        for i in range(g):
            prod = prod.wedge(grid[i][perm[i]], max_degree=max_degree)
        acc = acc + prod * (-1) ** sum(a > b for i, a in enumerate(perm) for b in perm[i + 1:])
    return acc


def same_entries(m, grid, g):
    return all(m[i, j].terms() == grid[i][j].terms() for i in range(g) for j in range(g))


@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_stacked_formmatrix_matches_grid_oracle_to_the_bit(g):
    rng = derive_rng(43, "stacked-formmatrix", g)
    a, b = random_grid(g, rng), random_grid(g, rng)
    ma, mb = FormMatrix(sym_dim(g), a), FormMatrix(sym_dim(g), b)
    assert same_entries(ma, a, g)
    for cap in (None, 3):
        assert same_entries(ma.matmul(mb, max_degree=cap), grid_matmul(a, b, g, cap), g)
    assert ma.trace().terms() == sum((a[i][i] for i in range(g)), ExtForm.zero(sym_dim(g))).terms()
    assert same_entries(ma + mb, [[x + y for x, y in zip(r, s)] for r, s in zip(a, b)], g)
    assert same_entries(ma - mb, [[x - y for x, y in zip(r, s)] for r, s in zip(a, b)], g)
    c = 0.7 - 1.3j
    assert same_entries(ma.scale(c), [[x * c for x in r] for r in a], g)
    assert ma.max_coeff_diff(mb) == max(
        x.max_coeff_diff(y) for r, s in zip(a, b) for x, y in zip(r, s))
    # det of I - G, with G's entries even and their blocks sorted as the stack keeps them
    gm, n = random_grid(g, rng, keys=[(0, 0), (1, 1)]), sym_dim(g)
    want = grid_det([[(ExtForm.one(n) if i == j else ExtForm.zero(n)) - gm[i][j]
                      for j in range(g)] for i in range(g)], g)
    assert (FormMatrix.identity(g, n) - FormMatrix(n, gm)).det().terms() == want.terms()


def integer_grid(g, n, rng):
    """A g x g grid of even forms on n generators with Python-int coefficients, a quarter zero."""
    def entry():
        if rng.random() < 0.25:
            return ExtForm.zero(n)
        return (ExtForm.scalar(n, int(rng.integers(-3, 4))) + homogeneous_form(n, rng, 2, exact=True)
                + homogeneous_form(n, rng, 4, n_terms=2, exact=True))
    return [[entry() for _ in range(g)] for _ in range(g)]


@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_det_equals_leibniz_exactly_on_integer_grids(g):
    rng, n = derive_rng(45, "integer-det", g), 4
    for _ in range(4):
        grid = integer_grid(g, n, rng)
        for cap in (None, 0, 2, 3, 4, 6):
            got = FormMatrix(n, grid).det(max_degree=cap)
            assert got.terms() == leibniz_det(grid, cap).terms()
            assert python_ints(got)
        if g > 1:  # two equal rows: every term cancels exactly
            assert FormMatrix(n, [grid[0]] + grid[:-1]).det().is_zero()


def test_det_of_the_empty_matrix_is_one():
    for n in (1, 3):
        for empty in (FormMatrix(n, []), FormMatrix.from_blocks(0, n, {})):
            det = empty.det()
            assert det.terms() == {(0, 0): 1} and python_ints(det)
            assert empty.det(max_degree=0).terms() == {(0, 0): 1}


@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_det_wedges_each_entry_once_per_column_subset(monkeypatch, g):
    """g (2^(g-1) - 1) entry wedges, against g g! for Leibniz: row 0's minors are its entries."""
    rng, n = derive_rng(47, "det-count", g), sym_dim(g)
    grid = random_grid(g, rng, keys=[(0, 0), (1, 1)])
    calls, wedge = [], ExtForm.wedge

    def counted(self, other, max_degree=None):
        calls.append(1)
        return wedge(self, other, max_degree)

    monkeypatch.setattr(ExtForm, "wedge", counted)
    FormMatrix(n, grid).det()
    assert len(calls) == g * (2 ** (g - 1) - 1)
    calls.clear()
    grid[0][0] = ExtForm.zero(n)  # a zero entry and the minors it zeroes are skipped
    FormMatrix(n, grid).det()
    assert len(calls) < max(g * (2 ** (g - 1) - 1), 1)


def split_loop_block(a, b, n, dtype, p1, q1, p2, q2):
    """A wedge block as a zeros array plus each hol split's weighted sum, signed after it."""
    hol_first, hol_rest, hol_sign = extform._split_table(n, p1, p2)
    anti_first, anti_rest, anti_sign = extform._split_table(n, q1, q2)
    weights = -anti_sign if (q1 * p2) % 2 else anti_sign
    out = np.zeros((len(hol_first), len(anti_first)), dtype)
    a, b = a.astype(dtype, copy=False), b.astype(dtype, copy=False)
    for j, sign in enumerate(hol_sign):
        terms = a.take(hol_first[:, j], axis=0).take(anti_first, axis=1)
        terms *= b.take(hol_rest[:, j], axis=0).take(anti_rest, axis=1)
        out += sign * (terms @ weights)
    return out


@pytest.mark.parametrize("n", [3, 6])
def test_wedge_block_equals_the_split_loop_to_the_bit(n):
    """Every bidegree pair that fits, complex, Python-int and mixed, (0, 0) factors included.

    A third of the complex entries are zero, so a zero product's sign shows.
    """
    rng = derive_rng(46, "wedge-block", n)

    def block(p, q, exact):
        shape = (math.comb(n, p), math.comb(n, q))
        if exact:
            return rng.integers(-9, 10, shape).astype(object)
        values = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        return np.where(rng.random(shape) < 1 / 3, 0, values)

    degrees = [(p, q) for p in range(n + 1) for q in range(n + 1)]
    for (p1, q1), (p2, q2) in product(degrees, repeat=2):
        if p1 + p2 > n or q1 + q2 > n:
            continue
        for exact_a, exact_b in ((False, False), (True, True), (True, False)):
            a, b = block(p1, q1, exact_a), block(p2, q2, exact_b)
            dtype = extform._common_dtype(a, b)
            got = extform._wedge_block(a, b, n, dtype, p1, q1, p2, q2)
            want = split_loop_block(a, b, n, dtype, p1, q1, p2, q2)
            assert got.dtype == want.dtype and got.shape == want.shape
            if dtype == object:
                assert got.tolist() == want.tolist() and all(type(c) is int for c in got.flat)
            else:
                assert got.tobytes() == want.tobytes()


def test_matmul_wedges_only_pairs_of_nonzero_blocks(monkeypatch):
    g, n = 3, sym_dim(3)
    rng = derive_rng(44, "sparse-formmatrix")
    zero = ExtForm.zero(n)
    a = random_grid(g, rng)
    a = [[x if i == k else zero for k, x in enumerate(r)] for i, r in enumerate(a)]
    b = random_grid(g, rng)
    b[1] = [zero] * g
    want = grid_matmul(a, b, g)
    calls = []
    wedge_block = extform._wedge_block
    monkeypatch.setattr(extform, "_wedge_block",
                        lambda *args: calls.append(1) or wedge_block(*args))
    assert same_entries(FormMatrix(n, a).matmul(FormMatrix(n, b)), want, g)
    assert len(calls) == sum(len(a[i][k].bidegrees()) * len(b[k][j].bidegrees())
                             for i in range(g) for j in range(g) for k in range(g))


def test_formmatrix_entries_are_views_without_zero_blocks():
    g = 3
    eye = np.eye(g, dtype=complex).reshape(g, g, 1, 1)
    ident = FormMatrix.from_blocks(g, sym_dim(g), {(0, 0): eye, (1, 1): np.zeros((g, g, 6, 6))})
    assert ident[0, 0].bidegrees() == {(0, 0)} and ident[0, 1].is_zero()
    assert np.shares_memory(ident[1, 1].block(0, 0), eye)
    assert (ident - ident)[0, 0].is_zero()


def test_formmatrix_constructors_reject_bad_input():
    g = 2
    n = sym_dim(g)
    with pytest.raises(DimensionMismatch):
        FormMatrix.from_blocks(g, n, {(1, 1): np.ones((g, g, n, n + 1))})
    with pytest.raises(DimensionMismatch):
        FormMatrix.from_blocks(g, n, {(1, 1): np.ones((n, n))})
    with pytest.raises(GenusMismatch):
        FormMatrix(n, [[ExtForm.one(n), ExtForm.one(n)], [ExtForm.one(n), ExtForm.one(sym_dim(3))]])
    with pytest.raises(DimensionMismatch):
        FormMatrix(n, [[ExtForm.one(n), 1.0], [ExtForm.one(n), ExtForm.one(n)]])
    with pytest.raises(DimensionMismatch):  # the grid's size is its own, but it must be square
        FormMatrix(n, [[ExtForm.one(n), ExtForm.one(n)]])
