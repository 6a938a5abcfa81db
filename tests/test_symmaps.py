import inspect
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from hodgecheck import symmaps
from hodgecheck.errors import (
    BadDimension,
    BadParameters,
    BadSampleCount,
    DimensionMismatch,
    InputNotRankOne,
    NotIndependent,
    NotSymmetric,
)
from hodgecheck.linalg import LinSubspace, sym_dim, sym_pair_table, sym_to_vec
from hodgecheck.sampling import derive_rng, random_subspace
from hodgecheck.symmaps import (
    RationalSymMap,
    annihilator_rigidity_suite,
    check_evaluation_degeneracy,
    find_rank_ones,
    _find_witness,
    _first_witness,
    _int_nullspace,
    _int_vectors,
    _integer_rows,
    _minor_derivatives,
    _random_int_vector,
    _random_rational_w,
    frac_nullspace,
    frac_rank,
    frac_rref,
    pencil_rank_profile,
    random_rank_k_symmap,
    random_rational_symmap,
    rank_locus_tangent_check,
    rational_span_to_subspace,
    tangent_direction,
    wperp,
    wperp_exact,
)
from helpers import apply_map, eval_matrix_exact, frac_matrix, random_rational_vector, verdict


def line(g, j):
    row = np.zeros(g)
    row[j] = 1.0
    return LinSubspace(row[None, :], "V")


def test_wperp_dimensions():
    # codim c annihilator has dimension c(c+1)/2
    assert wperp(line(3, 0)).dim == 3
    full = LinSubspace(np.eye(3), "V")
    assert wperp(full).dim == 0
    trivial = LinSubspace(np.zeros((0, 3)), "V")
    assert wperp(trivial).dim == sym_dim(3)


def test_wperp_members_annihilate():
    rng = derive_rng(50, "wperp")
    for g, wdim in ((3, 1), (4, 2), (5, 3)):
        w = random_subspace(g, wdim, rng, "V")
        x = wperp(w)
        assert x.dim == (g - wdim) * (g - wdim + 1) // 2
        from hodgecheck.linalg import vec_to_sym
        for row in x.basis:
            m = vec_to_sym(row, g)
            assert np.max(np.abs(m @ w.basis.T)) < 1e-10


def test_wperp_exact_kernel():
    w_rows = [[Fraction(1), Fraction(2), Fraction(0), Fraction(-1)]]
    basis = wperp_exact(w_rows, 4)
    assert len(basis) == 6
    for m in basis:
        out = apply_map(m, [Fraction(1), Fraction(2), Fraction(0), Fraction(-1)])
        assert all(v == 0 for v in out)
    # integer rows give the same maps
    assert [(m.num, m.den) for m in wperp_exact([[1, 2, 0, -1]], 4)] == \
        [(m.num, m.den) for m in basis]


def test_wperp_exact_rejects_rows_of_the_wrong_length():
    # the third entry used to be ignored
    with pytest.raises(DimensionMismatch):
        wperp_exact([[1, 2, 3]], 2)
    with pytest.raises(DimensionMismatch):
        wperp_exact([[1, 2, 0], [1]], 3)


def test_rational_apply_rejects_a_vector_of_the_wrong_length():
    # a short vector used to be zipped away: [1, 0] for the map below
    m = RationalSymMap([[1, 0], [0, 0]])
    with pytest.raises(DimensionMismatch):
        apply_map(m, [1])
    with pytest.raises(DimensionMismatch):
        apply_map(m, [1, 0, 0])
    assert apply_map(m, [3, 5]) == [3, 0]


def test_rank_locus_tangent_check_rejects_mixed_genus():
    # the exact path used to return agree=True, the float path a bare ValueError
    m = RationalSymMap([[1, 0], [0, 0]])
    n = RationalSymMap([[0, 0, 1], [0, 0, 0], [1, 0, 0]])
    for a, b in ((m, n), (m.as_float(), n.as_float())):
        with pytest.raises(DimensionMismatch):
            rank_locus_tangent_check(a, b)
        with pytest.raises(DimensionMismatch):
            rank_locus_tangent_check(b, a)


def test_rational_symmap_validation():
    with pytest.raises(NotSymmetric):
        RationalSymMap([[Fraction(0), Fraction(1)], [Fraction(0), Fraction(0)]])
    with pytest.raises(DimensionMismatch):
        RationalSymMap([[Fraction(0), Fraction(1)]])
    with pytest.raises(NotSymmetric):
        RationalSymMap([[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 4), Fraction(0)]])
    with pytest.raises(DimensionMismatch):
        RationalSymMap([[1, 2], [2, 3]]).add(RationalSymMap([[1]]))
    m = RationalSymMap([[Fraction(1), Fraction(1, 2)],
                        [Fraction(1, 2), Fraction(3)]])
    assert m.as_float()[0, 1] == 0.5
    assert not m.is_zero()
    # what the constructor accepted before the integer store
    m = RationalSymMap([[0.5, "1/3"], [Fraction(1, 3), np.int64(2)]])
    assert m.rows == ((Fraction(1, 2), Fraction(1, 3)), (Fraction(1, 3), Fraction(2)))
    assert (m.num, m.den) == (((3, 2), (2, 12)), 6)


# ---------------------------------------------------------------------------
# The integer store of RationalSymMap against plain Fraction matrices.
# ---------------------------------------------------------------------------


def random_fraction_sym(rng, g, den=7):
    m = [[Fraction(0)] * g for _ in range(g)]
    for a, b in itertools.combinations_with_replacement(range(g), 2):
        m[a][b] = m[b][a] = Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, den + 1)))
    return m


def sym_cases():
    rng = derive_rng(60, "int-store")
    cases = [[], [[Fraction(0)]], [[Fraction(0)] * 3] * 3, [[Fraction(-5, 6)]],
             [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 3), Fraction(4)]]]
    cases += [random_fraction_sym(rng, g, den) for g in (1, 2, 3, 4) for den in (1, 7)]
    return cases


def assert_normalized(m):
    assert m.den > 0
    assert math.gcd(m.den, *(x for r in m.num for x in r)) == 1
    assert all(type(x) is int for r in m.num for x in r)
    assert type(m.den) is int
    dens = [x.denominator for r in m.rows for x in r]
    assert m.den == math.lcm(*dens)


def test_integer_store_is_normalized():
    for rows in sym_cases():
        m = RationalSymMap(rows)
        assert_normalized(m)
        assert m.rows == tuple(tuple(r) for r in rows)
        assert all(x * m.den == a for r, nr in zip(m.rows, m.num) for x, a in zip(r, nr))
    assert any(RationalSymMap(rows).den > 1 for rows in sym_cases())
    assert RationalSymMap([[Fraction(0)] * 2] * 2).den == 1


def test_integer_store_matches_fraction_results():
    rng = derive_rng(61, "int-store-ops")
    cases = sym_cases()
    for rows in cases:
        g = len(rows)
        m = RationalSymMap(rows)
        pairs = [(a, b) for a in range(g) for b in range(a, g)]
        assert m.flatten() == [rows[a][b] for a, b in pairs]
        assert m.g == g and m.is_zero() == all(x == 0 for r in rows for x in r)
        want_float = np.array([[float(x) for x in r] for r in rows], dtype=complex)
        assert np.array_equal(m.as_float(), want_float)
        v = [Fraction(int(x), int(d)) for x, d in
             zip(rng.integers(-9, 10, size=g), rng.integers(1, 5, size=g))]
        assert apply_map(m, v) == [sum((a * b for a, b in zip(r, v)), Fraction(0)) for r in rows]
        for c in (Fraction(3), Fraction(-2, 9), Fraction(0), -1, Fraction(7, 4)):
            scaled = m.scale(c)
            assert_normalized(scaled)
            assert scaled.rows == tuple(tuple(x * c for x in r) for r in rows)
        for other_rows in cases:
            if len(other_rows) != g:
                continue
            total = m.add(RationalSymMap(other_rows))
            assert_normalized(total)
            assert total.rows == tuple(tuple(a + b for a, b in zip(r1, r2))
                                       for r1, r2 in zip(rows, other_rows))
        # x - x is zero, with denominator 1
        zero = m.add(m.scale(-1))
        assert zero.is_zero() and zero.den == 1 and zero.rows == tuple(
            (Fraction(0),) * g for _ in range(g))


def test_integer_store_never_holds_fixed_width_integers():
    big = 2 ** 62 + 3
    entries = np.array([[big, -big], [-big, big - 7]], dtype=np.int64)
    coords = np.array([big, -big, big - 7], dtype=np.int64)  # laid out by the pair table
    built = [RationalSymMap(entries),
             RationalSymMap(entries.tolist()).scale(Fraction(1, 3)),
             RationalSymMap(coords[sym_pair_table(2).index])]
    for m in built:
        assert all(type(x) is int for r in m.num for x in r)
    m = built[0]
    want = [[Fraction(int(x)) for x in r] for r in entries.tolist()]
    # int64 arithmetic would wrap here: 4 * big and big * big exceed 2**63
    doubled = m.add(m).add(m.add(m))
    assert doubled.rows == tuple(tuple(4 * x for x in r) for r in want)
    squared = m.scale(big)
    assert squared.rows == tuple(tuple(big * x for x in r) for r in want)
    assert all(type(x) is int for mm in (doubled, squared) for r in mm.num for x in r)
    assert apply_map(m, [big, 1]) == [sum(a * b for a, b in zip(r, [big, 1])) for r in want]
    rng = derive_rng(62, "int-types")
    for g in (1, 3, 4):
        maps = [random_rational_symmap(g, rng), random_rank_k_symmap(g, 1, rng)[0]]
        maps.append(tangent_direction([random_rational_vector(g, rng)], g, rng))
        maps += wperp_exact([random_rational_vector(g, rng, bound=9)], g)
        for mm in maps:
            assert_normalized(mm)


def frac_minor_derivative_oracle(m, n):
    """Max |d/dt det((M + t N)[rows, cols])| over (k+1)-minors, in Fractions."""
    mm, nn = m.rows, n.rows
    g = len(mm)
    k = frac_rank(mm)
    worst = Fraction(0)
    for rows in itertools.combinations(range(g), k + 1):
        for cols in itertools.combinations(range(g), k + 1):
            d = sum(gj_det([[(nn if ri == r_n else mm)[ri][ci] for ci in cols]
                            for ri in rows]) for r_n in rows)
            worst = max(worst, abs(d))
    return k, worst


def test_rank_locus_minors_with_denominators_match_fraction_oracle():
    rng = derive_rng(63, "tan-den")
    seen_nonzero = 0
    for g, k in ((2, 1), (3, 1), (3, 2), (4, 2), (4, 3)):
        for m_scale, n_scale in ((Fraction(1, 101), Fraction(-2, 103)),
                                 (Fraction(-5, 97), Fraction(1, 89))):
            m, factors = random_rank_k_symmap(g, k, rng)
            m = m.scale(m_scale)
            for n in (random_rational_symmap(g, rng).scale(n_scale),
                      tangent_direction(factors, g, rng).scale(n_scale)):
                assert m.den > 1 and n.den > 1
                res = rank_locus_tangent_check(m, n)
                want_k, want = frac_minor_derivative_oracle(m, n)
                assert res.rank == want_k == k
                assert res.max_minor_derivative == float(want)
                assert res.minors_vanish == (want == 0)
                assert res.agree
                seen_nonzero += want != 0
    assert seen_nonzero >= 5


def fraction_rref(mat):
    """frac_rref's integer rows over their common pivot: the reduced form in Fractions."""
    rows, pivots, last = frac_rref(mat)
    assert all(type(x) is int for r in rows for x in r)
    return [[Fraction(x, last) for x in r] for r in rows], pivots


def test_frac_helpers():
    ident = frac_matrix([[1, 0], [0, 1]])
    assert frac_rank(ident) == 2
    m = frac_matrix([[1, 2], [2, 4]])
    assert frac_rank(m) == 1
    null = frac_nullspace(m, 2)
    assert len(null) == 1
    v = null[0]
    assert m[0][0] * v[0] + m[0][1] * v[1] == 0
    rows, pivots = fraction_rref(frac_matrix([[0, 1, 2], [0, 0, 3]]))
    assert pivots == [1, 2]


def test_frac_rank_matches_float_rank():
    rng = derive_rng(51, "crosscheck")
    for _ in range(10):
        a = rng.integers(-5, 6, size=(4, 2))
        b = rng.integers(-5, 6, size=(2, 4))
        prod = a @ b
        want = np.linalg.matrix_rank(prod)
        assert frac_rank(frac_matrix(prod.tolist())) == want


# ---------------------------------------------------------------------------
# Oracle: plain Gauss-Jordan over Fraction, independent of the fraction-free
# integer kernel in symmaps.
# ---------------------------------------------------------------------------


def gj_rref(mat):
    rows = [[Fraction(x) for x in r] for r in mat]
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, pivots


def gj_det(mat):
    rows = [[Fraction(x) for x in r] for r in mat]
    m = len(rows)
    det = Fraction(1)
    for c in range(m):
        pivot = next((i for i in range(c, m) if rows[i][c] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            rows[c], rows[pivot] = rows[pivot], rows[c]
            det = -det
        det *= rows[c][c]
        for i in range(c + 1, m):
            f = rows[i][c] / rows[c][c]
            rows[i] = [a - f * b for a, b in zip(rows[i], rows[c])]
    return det


def random_rational_matrix(rng, nrows, ncols, rank=None, zero_cols=(),
                           zero_rows=(), den=7):
    """Random rational matrix with given rank (via a product), zeroed columns
    (which then carry no pivot) and zeroed rows."""
    def entry():
        return Fraction(int(rng.integers(-6, 7)), int(rng.integers(1, den + 1)))

    if rank is None:
        m = [[entry() for _ in range(ncols)] for _ in range(nrows)]
    else:
        a = [[entry() for _ in range(rank)] for _ in range(nrows)]
        b = [[entry() for _ in range(ncols)] for _ in range(rank)]
        m = [[sum((a[i][t] * b[t][j] for t in range(rank)), Fraction(0))
              for j in range(ncols)] for i in range(nrows)]
    for i in range(nrows):
        for j in range(ncols):
            if i in zero_rows or j in zero_cols:
                m[i][j] = Fraction(0)
    return m


def oracle_cases():
    rng = derive_rng(53, "oracle")
    cases = [[], [[]], [[Fraction(0)]], [[Fraction(3, 4)]],
             [[Fraction(0), Fraction(2, 3), Fraction(-1, 5)]],
             [[Fraction(0)] * 4] * 3,
             frac_matrix([[0, 1, 2], [0, 0, 3]])]
    for nrows, ncols in ((1, 5), (3, 3), (4, 4), (5, 3), (3, 6), (6, 6)):
        for rank in (None, 1, 2, min(nrows, ncols)):
            if rank is not None and rank > min(nrows, ncols):
                continue
            cases.append(random_rational_matrix(rng, nrows, ncols, rank))
            # columns without a pivot in the middle, and zero rows
            cases.append(random_rational_matrix(
                rng, nrows, ncols, rank, zero_cols={0, ncols // 2},
                zero_rows={nrows - 1}))
            cases.append(random_rational_matrix(
                rng, nrows, ncols, rank, zero_cols={1}, den=1))
    return cases


def assert_matches_oracle(m):
    ncols = len(m[0]) if m else 0
    want_rows, want_pivots = gj_rref(m)
    rows, pivots = fraction_rref(m)
    assert pivots == want_pivots
    assert frac_rank(m) == len(want_pivots)
    # the oracle stops once every row holds a pivot; both are then reduced
    assert rows == want_rows
    null = frac_nullspace(m, ncols)
    assert len(null) == ncols - len(want_pivots)
    for v in null:
        assert all(sum((a * b for a, b in zip(r, v)), Fraction(0)) == 0 for r in m)


def test_fraction_free_kernel_matches_gauss_jordan_oracle():
    cases = oracle_cases()
    assert len(cases) > 60
    for m in cases:
        assert_matches_oracle(m)


def _fraction_nullspace(mat, ncols):
    """frac_nullspace as it was before it wrapped the integer routine."""
    if not mat:
        return [[Fraction(int(i == j)) for j in range(ncols)] for i in range(ncols)]
    rows, pivots = fraction_rref(mat)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -rows[r][fc]
        basis.append(v)
    return basis


def test_integer_kernel_is_the_fraction_kernel_times_the_common_pivot():
    negative = 0
    for m in oracle_cases():
        ncols = len(m[0]) if m else 0
        basis, last = _int_nullspace(m, ncols)
        assert type(last) is int and all(type(x) is int for v in basis for x in v)
        negative += last < 0
        want = _fraction_nullspace(m, ncols)
        assert frac_nullspace(m, ncols) == want
        assert [[Fraction(x, last) for x in v] for v in basis] == want
        # rank_locus_tangent_check's rows: the lcm-scaled vectors, up to sign
        for v, w in zip(basis, _integer_rows(want)[0]):
            assert [x // math.gcd(*v) for x in v] in (w, [-x for x in w])
    assert negative


def test_wperp_exact_maps_are_the_fraction_route_maps():
    rng = derive_rng(57, "wperp-integer")
    for g in (2, 3, 4):
        n = sym_dim(g)
        index = [[min(r, c) * g - min(r, c) * (min(r, c) - 1) // 2 + abs(r - c)
                  for c in range(g)] for r in range(g)]
        for wdim in range(1, g):
            w_rows = _random_rational_w(g, wdim, rng)
            eqs = []
            for w in w_rows:
                for r in range(g):
                    row = [Fraction(0)] * n
                    for c in range(g):
                        row[index[r][c]] += w[c]
                    eqs.append(row)
            want = [RationalSymMap([[v[i] for i in r] for r in index])
                    for v in _fraction_nullspace(eqs, n)]
            assert [(m.num, m.den) for m in wperp_exact(w_rows, g)] == \
                [(m.num, m.den) for m in want]
    # a negative common pivot moves its sign to the numerator
    neg = RationalSymMap._from_int([[2, -4], [-4, 6]], -6)
    assert (neg.num, neg.den) == (((-1, 2), (2, -3)), 3)


def test_frac_helpers_accept_integers():
    m = [[0, 2, 4], [0, 1, 2], [3, 0, 1]]
    assert frac_rank(m) == 2
    assert fraction_rref(m) == gj_rref(m)


def test_find_witness_matches_rational_evaluation():
    g = 4
    for seed in range(4):
        rng = derive_rng(55, "witness-basis", seed)
        basis = [random_rational_symmap(g, rng).scale(Fraction(1, seed + 2 + j))
                 for j in range(3)]
        ours, ref = derive_rng(56, seed), derive_rng(56, seed)
        v, rank = _find_witness(basis, 3, _int_vectors(g, 20, ours))
        for _ in range(20):  # the same search in Fraction arithmetic
            want_v = random_rational_vector(g, ref)
            want_rows = eval_matrix_exact(basis, want_v)
            want_rank = len(gj_rref(want_rows)[1])
            if want_rank >= 3:
                break
        assert ours.bit_generator.state == ref.bit_generator.state
        assert (v, rank) == (want_v, want_rank)


def per_draw_witness(basis, i, ws):
    """First (index, rank) in ws with rank(e_w) >= i, each draw eliminated alone in Fractions."""
    for s, w in enumerate(ws):
        rank = frac_rank(eval_matrix_exact(basis, [Fraction(x) for x in w]))
        if rank >= i:
            return s, rank
    return None


def off_coordinate_maps(g, skip, count, rng):
    """count random integer maps whose row and column skip are zero."""
    maps = []
    for _ in range(count):
        rows = [list(r) for r in random_rational_symmap(g, rng).num]
        for a in range(g):
            rows[a][skip] = rows[skip][a] = 0
        maps.append(RationalSymMap(rows))
    return maps


def test_first_witness_matches_per_draw_elimination():
    """The stacked search gives the per-draw search's first index and rank on explicit stacks."""
    rng = derive_rng(64, "stacked-witness")
    cases = []  # (basis, i, ws, expected index or None)

    def draws(g, count=30):
        return [_random_int_vector(g, rng) for _ in range(count)]

    # annihilator spaces have no witness, with dim <= g and dim > g (i = 4), and with
    # entries so large that a float or int64 expansion would not cancel to zero
    for g, i, bound in ((3, 3, 9), (4, 3, 9), (5, 3, 9), (4, 4, 9), (5, 5, 9), (4, 3, 10**6)):
        w = [rng.integers(-bound, bound + 1, size=g).tolist() for _ in range(g - i + 1)]
        cases.append((wperp_exact(w, g), i, draws(g), None))
    # generic spaces: dim <= g, and dim > g so the transposed e_w is expanded
    for g, dim, i in ((4, 3, 3), (5, 3, 3), (3, 6, 3), (4, 6, 4)):
        cases.append(([random_rational_symmap(g, rng) for _ in range(dim)], i, draws(g), 0))
    # every nonzero minor sits outside the first row subset: three dependent leading
    # maps (dim <= g), or maps that vanish on coordinate 2 (dim > g, transposed)
    a, b, c, e = (random_rational_symmap(4, rng) for _ in range(4))
    cases.append(([a, b, a.add(b), c], 3, draws(4), 0))
    cases.append((off_coordinate_maps(4, 2, 6, rng), 3, draws(4), 0))
    # and, with dim > g, rank i needs maps past the first g
    cases.append(([a, a.scale(2), a.scale(3), b, c, e], 4, draws(4), 0))
    # a perturbed annihilator copy on a stack that starts with vectors of W: there
    # e_w has rank <= 1, so the first witness comes after them
    for g, i in ((4, 3), (4, 4), (5, 3)):
        w = _random_rational_w(g, g - i + 1, rng)
        perp = wperp_exact(w, g)
        perturbed = [perp[0].add(random_rational_symmap(g, rng))] + perp[1:]
        lead = w + [[x + y for x, y in zip(w[0], w[-1])]]
        cases.append((perturbed, i, lead + draws(g), len(lead)))

    for basis, i, ws, index in cases:
        want = per_draw_witness(basis, i, ws)
        assert (want and want[0]) == index
        got = _first_witness(basis, i, ws)
        assert got == (want and (ws[want[0]], want[1]))
        assert got == _find_witness(basis, i, ws)
        assert got is None or (type(got[1]) is int and all(type(x) is int for x in got[0]))
    assert _first_witness(cases[0][0], 3, []) is None


def test_find_witness_draws_only_up_to_the_witness():
    """_find_witness takes draws one at a time from its iterable and stops at the witness."""
    rng = derive_rng(67, "lazy-witness")
    for g, i in ((4, 3), (4, 4), (5, 3)):
        w = _random_rational_w(g, g - i + 1, rng)
        perp = wperp_exact(w, g)
        perturbed = [perp[0].add(random_rational_symmap(g, rng))] + perp[1:]
        # vectors of W give e_w rank <= 1, so the witness is the first draw after them
        ws = w + [_random_int_vector(g, rng) for _ in range(10)]
        for basis, index in ((perturbed, len(w)), (perp, None)):
            pulled = []

            def counting():
                for v in ws:
                    pulled.append(v)
                    yield v

            hit = _find_witness(basis, i, counting())
            want = per_draw_witness(basis, i, ws)
            assert (want and want[0]) == index
            assert hit == (want and (ws[index], want[1]))
            assert len(pulled) == (len(ws) if index is None else index + 1)


def test_first_witness_draws_only_up_to_the_chunk_of_the_witness():
    """_first_witness takes draws in chunks of 1, 2, 4, ... and stops at the chunk of the witness.

    A witness at draw 0 takes one draw; one at draw 3 takes the chunks
    1 + 2 + 4; a space without a witness takes every draw.
    """
    rng = derive_rng(68, "chunked-witness")
    for g, i in ((4, 3), (4, 4), (5, 3)):
        w = _random_rational_w(g, g - i + 1, rng)
        perp = wperp_exact(w, g)
        perturbed = [perp[0].add(random_rational_symmap(g, rng))] + perp[1:]
        draws = [_random_int_vector(g, rng) for _ in range(20)]
        # multiples of a vector of W give e_w rank <= 1, so the witness is draw 3
        lead = [[k * x for x in w[0]] for k in (1, 2, 3)] + draws
        for basis, ws, pulls in ((perturbed, draws, 1), (perturbed, lead, 7),
                                 (perp, lead, len(lead))):
            pulled = []

            def counting():
                for v in ws:
                    pulled.append(v)
                    yield v

            assert _first_witness(basis, i, counting()) == _find_witness(basis, i, ws)
            assert len(pulled) == pulls


@pytest.mark.parametrize("g", [3, 4, 5])
def test_degeneracy_search_matches_the_sequential_search(g, monkeypatch):
    """check_evaluation_degeneracy gives _find_witness's verdict, v and rank on its stream.

    At g = 5 the annihilator spaces for i = 4 and 5 (6 and 10 maps) are past the
    cost rule, so their draws are eliminated in turn and never reach _first_witness.
    Every other i is searched by _first_witness alone, all draws in one call.
    """
    expanded, eliminated = set(), set()

    def spy(basis, i, ws):
        expanded.add(i)
        return _first_witness(basis, i, ws)

    def eliminating_spy(basis, i, ws):
        eliminated.add(i)
        return _find_witness(basis, i, ws)

    monkeypatch.setattr(symmaps, "_first_witness", spy)
    monkeypatch.setattr(symmaps, "_find_witness", eliminating_spy)
    rng = derive_rng(65, "stacked-degeneracy", g)
    late = 0
    for i in range(3, g + 1):
        for seed in range(3):
            stream = derive_rng(seed, "degeneracy", i)
            first_draws = [_random_int_vector(g, stream) for _ in range(2)]
            w = _random_rational_w(g, g - i + 1, rng)
            perp = wperp_exact(w, g)
            # a W holding the stream's first draws makes them non-witnesses of the copy
            w_lead = (first_draws + w)[:g - i + 1]
            assert frac_rank(w_lead) == len(w_lead)
            lead = wperp_exact(w_lead, g)
            noise = random_rational_symmap(g, rng)
            spaces = (perp, [perp[0].add(noise)] + perp[1:],
                      [lead[0].add(noise)] + lead[1:],
                      [random_rational_symmap(g, rng) for _ in range(len(perp))])
            for basis in spaces:
                rep = check_evaluation_degeneracy(basis, i, n_v_samples=25, seed=seed)
                draws = _int_vectors(g, 25, derive_rng(seed, "degeneracy", i))
                hit = _find_witness(basis, i, draws)
                assert rep.satisfied == (hit is None)
                if hit is not None:
                    assert (rep.witness.v, rep.witness.rank) == hit
                    late += hit[0] != first_draws[0]
    assert late >= 3 * (g - 2)  # each leading-W copy is witnessed after the first draw
    past_rule = {i for i in range(3, g + 1) if (g, i) in ((5, 4), (5, 5))}
    assert expanded == set(range(3, g + 1)) - past_rule
    assert eliminated == past_rule


def det_minor_derivatives(m, n, k):
    """_minor_derivatives by one gj_det per (minor, row taken from n), nested lists."""
    g = len(m)
    subsets = list(itertools.combinations(range(g), k))
    return [[sum(gj_det([[(n if ri == rn else m)[ri][ci] for ci in cols] for ri in rows])
                 for rn in rows) for rows in subsets] for cols in subsets]


def test_minor_derivatives_match_per_minor_determinants():
    rng = derive_rng(66, "minor-derivatives")
    for g in range(2, 6):
        for k in range(g):
            m = random_rank_k_symmap(g, k, rng)[0].scale(Fraction(1, 7)) if k else \
                RationalSymMap([[0] * g] * g)
            n = random_rational_symmap(g, rng).scale(Fraction(-3, 11))
            assert n.den > 1 and (m.den > 1 or not k)
            got = _minor_derivatives(np.array(m.num, dtype=object),
                                     np.array(n.num, dtype=object), k + 1)
            assert got.tolist() == det_minor_derivatives(m.num, n.num, k + 1)
            assert all(type(x) is int for x in got.flat)
    # past 2^53 the derivatives along a tangent direction cancel only in integers
    for g, k in ((3, 1), (3, 2), (4, 2), (4, 3)):
        factors = [[x * 10**9 + 1 for x in _random_int_vector(g, rng)] for _ in range(k)]
        rows = [[sum((-1) ** j * u[a] * u[b] for j, u in enumerate(factors)) for b in range(g)]
                for a in range(g)]
        m = RationalSymMap(rows)
        res = rank_locus_tangent_check(m, tangent_direction(factors, g, rng))
        assert res.rank == k and res.predicate_holds and res.minors_vanish and res.agree
        assert res.max_minor_derivative == 0.0


def test_kernel_property_against_oracle():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=150, deadline=None, database=None, derandomize=True)
    @hypothesis.given(st.integers(0, 5).flatmap(lambda ncols: st.lists(
        st.lists(st.fractions(max_denominator=6, min_value=-4, max_value=4)
                 | st.just(Fraction(0)), min_size=ncols, max_size=ncols),
        max_size=5)))
    def check(m):
        assert_matches_oracle(m)

    check()


def test_eval_matrix_symmetry():
    # x(v)(u) = x(u)(v) for symmetric maps
    rng = derive_rng(52, "eval-sym")
    g = 4
    maps = [random_rational_symmap(g, rng) for _ in range(3)]
    u = random_rational_vector(g, rng, bound=20)
    v = random_rational_vector(g, rng, bound=20)
    ev = eval_matrix_exact(maps, v)
    eu = eval_matrix_exact(maps, u)
    for j in range(3):
        lhs = sum(ev[j][i] * u[i] for i in range(g))
        rhs = sum(eu[j][i] * v[i] for i in range(g))
        assert lhs == rhs


def test_degeneracy_annihilator_never_witnessed():
    rng = derive_rng(53, "deg")
    for g in (3, 4):
        w_rows = [random_rational_vector(g, rng, bound=9) for _ in range(g - 2)]
        basis = wperp_exact(w_rows, g)
        rep = check_evaluation_degeneracy(basis, 3, n_v_samples=30, seed=1)
        assert rep.satisfied
        assert rep.witness is None
        rep_f = check_evaluation_degeneracy(rational_span_to_subspace(basis), 3,
                                            n_v_samples=30, seed=1)
        assert rep_f.satisfied


def test_degeneracy_generic_space_witnessed():
    rng = derive_rng(54, "deg-gen")
    g = 3
    maps = [random_rational_symmap(g, rng) for _ in range(3)]
    rep = check_evaluation_degeneracy(maps, 3, n_v_samples=30, seed=2)
    assert not rep.satisfied
    assert rep.witness is not None
    assert rep.witness.rank >= 3


def test_degeneracy_float_path_reads_rational_maps():
    # the float branch takes the same list of exact maps and agrees with the
    # exact verdict, on an annihilator basis and on a generic space
    rng = derive_rng(57, "deg-float")
    g = 4
    annihilator = wperp_exact([random_rational_vector(g, rng, bound=9) for _ in range(2)], g)
    generic = [random_rational_symmap(g, rng) for _ in range(3)]
    for maps, satisfied in ((annihilator, True), (generic, False)):
        reps = [check_evaluation_degeneracy(ms, 3, n_v_samples=30, seed=3)
                for ms in (maps, [m.as_float() for m in maps])]
        assert [rep.satisfied for rep in reps] == [satisfied, satisfied]
        assert [rep.exact for rep in reps] == [True, False]


def test_degeneracy_rank_one_case():
    # any nonzero map has vectors outside its kernel
    rng = derive_rng(55, "deg-r1")
    maps = [random_rational_symmap(3, rng)]
    rep = check_evaluation_degeneracy(maps, 1, n_v_samples=10, seed=0)
    assert not rep.satisfied


def test_degeneracy_dimension_guard():
    rng = derive_rng(56, "deg-guard")
    maps = [random_rational_symmap(3, rng)]
    with pytest.raises(BadDimension):
        check_evaluation_degeneracy(maps, 2, n_v_samples=5, seed=0)


def test_degeneracy_needs_a_sample():
    # zero draws would read "no witness" on any space, with failure bound (i/2001)^0 = 1
    maps = [random_rational_symmap(3, derive_rng(56, "deg-n0")) for _ in range(3)]
    for ms in (maps, [m.as_float() for m in maps]):
        with pytest.raises(BadSampleCount):
            check_evaluation_degeneracy(ms, 1, n_v_samples=0, seed=0)


def test_no_witness_notes_state_the_miss_bound_of_the_sample_box():
    bound = symmaps.V_SAMPLE_BOUND
    assert symmaps._miss_bound(3, 20) == f"(3/{2 * bound + 1})^20" == "(3/2001)^20"
    assert inspect.signature(_random_int_vector).parameters["bound"].default == bound
    perp = wperp_exact([[1, 2, 3]], 3)  # every evaluation lands in a plane: rank <= 2
    rep = check_evaluation_degeneracy(perp, 3, n_v_samples=20, seed=0)
    assert rep.satisfied and "<= (3/2001)^20 when a witness exists" in rep.notes
    # the float route draws complex Gaussian vectors, not from the box: it states no box bound
    rep = check_evaluation_degeneracy([m.as_float() for m in perp], 3, n_v_samples=20, seed=0)
    assert rep.satisfied and not rep.exact
    assert "20 complex Gaussian draws" in rep.notes and "2001" not in rep.notes
    checks = annihilator_rigidity_suite(3, 3, trials=2, n_v_samples=20, seed=0)
    assert any("<= (3/2001)^20 per space" in c.notes for c in checks)


def test_tangent_full_rank_always():
    rng = derive_rng(57, "tan-full")
    g = 3
    m, factors = random_rank_k_symmap(g, g, rng)
    n = random_rational_symmap(g, rng)
    res = rank_locus_tangent_check(m, n)
    assert res.predicate_holds and res.minors_vanish and res.agree
    assert res.max_minor_derivative == 0.0


def test_tangent_explicit_two_by_two():
    e11 = RationalSymMap([[Fraction(1), Fraction(0)],
                          [Fraction(0), Fraction(0)]])
    e22 = RationalSymMap([[Fraction(0), Fraction(0)],
                          [Fraction(0), Fraction(1)]])
    off = RationalSymMap([[Fraction(0), Fraction(1)],
                          [Fraction(1), Fraction(0)]])
    bad = rank_locus_tangent_check(e11, e22)
    assert not bad.predicate_holds
    assert bad.agree
    assert bad.max_minor_derivative > 0
    good = rank_locus_tangent_check(e11, off)
    assert good.predicate_holds and good.minors_vanish and good.agree
    assert good.max_minor_derivative == 0.0


def test_tangent_predicate_reads_every_kernel_vector():
    # ker M = span(e2, e3): N e2 = e1 stays in im M = span(e1), N e3 = e3 leaves it
    m = RationalSymMap([[1, 0, 0], [0, 0, 0], [0, 0, 0]])
    n = RationalSymMap([[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    for res in (rank_locus_tangent_check(m, n),
                rank_locus_tangent_check(m.as_float(), n.as_float())):
        assert res.rank == 1
        assert not res.predicate_holds and not res.minors_vanish and res.agree


def test_tangent_constructed_directions_recognized():
    rng = derive_rng(58, "tan-dir")
    for g, k in ((3, 1), (3, 2), (4, 2)):
        m, factors = random_rank_k_symmap(g, k, rng)
        n = tangent_direction(factors, g, rng)
        res = rank_locus_tangent_check(m, n)
        assert res.predicate_holds and res.agree
        res_f = rank_locus_tangent_check(m.as_float(), n.as_float())
        assert res_f.predicate_holds and res_f.agree


def test_mixed_pairs_take_the_float_route():
    # only the first argument used to pick the route, so a mixed pair read .num off an array
    rng = derive_rng(59, "tan-mixed")
    g = 3
    m, factors = random_rank_k_symmap(g, 2, rng)
    for n in (tangent_direction(factors, g, rng), random_rational_symmap(g, rng)):
        want = rank_locus_tangent_check(m.as_float(), n.as_float())
        assert not want.exact
        assert rank_locus_tangent_check(m, n.as_float()) == want
        assert rank_locus_tangent_check(m.as_float(), n) == want

    annihilator = wperp_exact([random_rational_vector(g, rng, bound=9)], g)
    generic = [random_rational_symmap(g, rng) for _ in range(3)]
    for maps, satisfied in ((annihilator, True), (generic, False)):
        floats = [x.as_float() for x in maps]
        want = check_evaluation_degeneracy(floats, 3, n_v_samples=30, seed=4)
        assert want.satisfied == satisfied and not want.exact
        for mixed in ([maps[0]] + floats[1:], floats[:-1] + [maps[-1]]):
            got = check_evaluation_degeneracy(mixed, 3, n_v_samples=30, seed=4)
            assert (got.satisfied, got.exact, got.dim, got.notes) == (
                want.satisfied, want.exact, want.dim, want.notes)
            if not satisfied:
                assert got.witness.rank == want.witness.rank
                assert np.array_equal(got.witness.v, want.witness.v)


def test_perturbed_annihilator_keeps_its_dimension():
    """perp[0] + eps * noise with noise outside span(perp) leaves a basis of rank d.

    annihilator_rigidity_suite perturbs its annihilator bases this way and
    relies on this fact instead of re-checking the rank of every copy.
    """
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=40, deadline=None, database=None, derandomize=True)
    @hypothesis.given(gi=st.sampled_from([(3, 3), (4, 3), (4, 4), (5, 3), (5, 4)]),
                      seed=st.integers(0, 2**32 - 1),
                      eps=st.fractions(min_value=-2, max_value=2, max_denominator=1000)
                      .filter(lambda x: x != 0))
    def check(gi, seed, eps):
        g, i = gi
        d = i * (i - 1) // 2
        rng = derive_rng(seed, "perturbed-rank", g, i)
        perp = wperp_exact(_random_rational_w(g, g - i + 1, rng), g)
        assert len(perp) == d
        while True:
            noise = random_rational_symmap(g, rng)
            if frac_rank([m.flatten() for m in perp] + [noise.flatten()]) == d + 1:
                break
        perturbed = [perp[0].add(noise.scale(eps))] + perp[1:]
        assert frac_rank([m.flatten() for m in perturbed]) == d

    check()


def test_pencil_profile():
    e11 = np.diag([1.0, 0.0])
    e22 = np.diag([0.0, 1.0])
    prof = pencil_rank_profile(e11, e22)
    assert prof.max_rank == 2
    assert prof.rank_two_achieved
    with pytest.raises(NotIndependent):
        pencil_rank_profile(e11, 2.0 * e11)
    with pytest.raises(InputNotRankOne):
        pencil_rank_profile(np.eye(2), e22)


def test_find_rank_ones_explicit():
    # maps killing e1, intersected against v = e2, leave multiples of e3 x e3
    x = wperp(line(3, 0))
    found = find_rank_ones(x, np.array([0.0, 1.0, 0.0]))
    assert found
    for m in found:
        arr = m.m
        assert np.linalg.matrix_rank(arr, tol=1e-8) == 1
        assert np.max(np.abs(arr[:2, :])) < 1e-8 * np.max(np.abs(arr))


def test_find_rank_ones_generic_empty():
    rng = derive_rng(59, "fr1")
    m = np.eye(3) + 0.1 * rng.standard_normal((3, 3))
    m = m + m.T
    x = LinSubspace.from_spanning(sym_to_vec(m)[None, :], "Sg")
    found = find_rank_ones(x, np.array([0.3, -1.0, 0.7]))
    assert found == []


def test_find_rank_ones_dimension_guard():
    # v inside W leaves the whole 3-dim annihilator, too big to search
    x = wperp(line(3, 0))
    with pytest.raises(BadDimension):
        find_rank_ones(x, np.array([1.0, 0.0, 0.0]))


def test_sg_coordinates_of_no_symmetric_matrix_are_rejected():
    x = LinSubspace(np.eye(4)[:2], "Sg")
    with pytest.raises(DimensionMismatch, match="no symmetric matrix"):
        check_evaluation_degeneracy(x, 1)
    with pytest.raises(DimensionMismatch, match="no symmetric matrix"):
        find_rank_ones(x, np.ones(2))


@pytest.mark.parametrize("g", [3, 4, 5, 6])
def test_find_rank_ones_recovers_both_generators_of_a_pencil(g):
    """u u^T and w w^T with u.v = w.v = 0 span a pencil annihilating v; both come back.

    The span is handed over as two generic combinations of the generators, so
    neither member of the pencil is a generator.  In the second case row 1 of
    both generators is zero, so every quadratic of row pair (0, 1) vanishes and
    the roots come from a later row pair.
    """
    for seed in range(20):
        rng = derive_rng(68, "pencil-recovery", g, seed)
        for zero_row in (False, True):
            u, w = rng.standard_normal((2, g))
            if zero_row:
                u[1] = w[1] = 0.0
            v = np.linalg.svd(np.array([u, w]))[2][-1]
            gens = [np.outer(u, u), np.outer(w, w)]
            c = rng.standard_normal((2, 2))
            span = LinSubspace.from_spanning(
                sym_to_vec([c[0, 0] * gens[0] + c[0, 1] * gens[1],
                            c[1, 0] * gens[0] + c[1, 1] * gens[1]]), "Sg")
            found = find_rank_ones(span, v)
            assert len(found) == 2
            for gen in gens:
                gen = gen.reshape(-1) / np.linalg.norm(gen)
                assert max(abs(np.vdot(f.m.reshape(-1), gen)) for f in found) > 1 - 1e-9


def test_rigidity_suite_small():
    records = annihilator_rigidity_suite(3, 3, trials=4, n_v_samples=20, seed=3)
    assert verdict(records)
    checks = {c.name: c.to_dict() for c in records}
    assert checks["annihilator-dimension"]["passed"]
    assert checks["perturbed-witness-eps-unit"]["passed"]
    assert checks["generic-same-dim-witness"]["passed"]
    assert checks["rank-1-always-witnessed"]["passed"]
    assert checks["rank-2-always-witnessed"]["passed"]


def test_rigidity_suite_measures_a_wrong_annihilator_dimension(monkeypatch):
    """A kernel with one vector repeated reads d + 1 maps: the check fails, nothing raises."""
    def one_vector_twice(mat, ncols):
        basis, last = _int_nullspace(mat, ncols)
        return basis + basis[:1], last

    monkeypatch.setattr(symmaps, "_int_nullspace", one_vector_twice)
    records = annihilator_rigidity_suite(3, 3, trials=4, n_v_samples=20, seed=3)
    checks = {c.name: c.to_dict() for c in records}
    assert checks["annihilator-dimension"]["measured"] == 1.0
    assert not checks["annihilator-dimension"]["passed"]
    assert verdict(records) is False


def test_rigidity_suite_needs_a_trial():
    # no trials would pass every perturbed and generic check without searching a space
    with pytest.raises(BadParameters):
        annihilator_rigidity_suite(3, 3, trials=0, n_v_samples=20, seed=3)


@pytest.mark.parametrize("g,i", [(3, 3), (4, 4)])
def test_rigidity_suite_measures_a_short_annihilator_basis(monkeypatch, g, i):
    """A kernel one vector short reads d - 1 maps: the suite ends, and the check fails.

    At (3, 3) the short space has fewer than i maps.  At (4, 4) noise lifts
    the stacked rank of the short space to d at most, so a redraw loop that
    waits for d + 1 would never end; a cap on the map draws turns it into an
    error.
    """
    def drop_last(mat, ncols):
        basis, last = _int_nullspace(mat, ncols)
        return basis[:-1], last

    calls = itertools.count(1)

    def capped_symmap(genus, rng):
        if next(calls) > 10_000:
            raise RuntimeError("10,000 map draws: the noise loop does not end")
        return random_rational_symmap(genus, rng)

    monkeypatch.setattr(symmaps, "_int_nullspace", drop_last)
    monkeypatch.setattr(symmaps, "random_rational_symmap", capped_symmap)
    records = annihilator_rigidity_suite(g, i, trials=4, n_v_samples=20, seed=3)
    checks = {c.name: c.to_dict() for c in records}
    assert checks["annihilator-dimension"]["measured"] == 1.0
    assert not checks["annihilator-dimension"]["passed"]
    assert verdict(records) is False


@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_random_rational_symmap_is_the_map_of_its_draw(g):
    # the draw fills integer rows directly; it must equal the general
    # coordinate path on the same integers and leave the stream where it was
    rng, ref = derive_rng(21, "symmap", g), derive_rng(21, "symmap", g)
    for _ in range(5):
        m = random_rational_symmap(g, rng)
        want = RationalSymMap(ref.integers(-9, 10, size=sym_dim(g))[sym_pair_table(g).index])
        assert (m.num, m.den, m.g) == (want.num, want.den, want.g)
        assert all(type(x) is int for r in m.num for x in r)
    assert rng.integers(1 << 30) == ref.integers(1 << 30)
