import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import linalg_reference
from quasicyc.cyclic import apply_rows
from quasicyc import linalg
from quasicyc.linalg import LaurentScalars
from quasicyc.scalars import RingMismatch, Scalar, Unit


def sparse(rows):
    """The nonzero entries of dense rows as (col, value) pairs."""
    return [[(j, x) for j, x in enumerate(r) if x] for r in rows]


def rank_kernel(rows):
    """linalg.rank_kernel of a dense matrix, given as sparse rows."""
    return linalg.rank_kernel(linalg.row_set(sparse(rows), len(rows[0]) if rows else 0))


def M(rows):
    return [[Scalar.rational(x) for x in row] for row in rows]


def dense_apply(rows, vec):
    """Dense rows applied through the sparse row applier."""
    return apply_rows(linalg.row_set([list(enumerate(r)) for r in rows], len(vec)), vec, Scalar.zero())


def bareiss_rank_kernel(rows):
    """Reference: dense fraction-free Bareiss elimination with first-nonzero
    pivoting, then back-substitution for the kernel vector of each free column."""
    m = len(rows)
    n = len(rows[0]) if m else 0
    a = [list(r) for r in rows]
    one = Scalar.one()

    pivots = []  # (row, col) in elimination order
    prev = one
    r = 0
    for c in range(n):
        p = next((i for i in range(r, m) if not a[i][c].is_zero()), None)
        if p is None:
            continue
        if p != r:
            a[r], a[p] = a[p], a[r]
        piv = a[r][c]
        for i in range(r + 1, m):
            if all(a[i][j].is_zero() for j in range(c, n)):
                continue
            f = a[i][c]
            for j in range(c, n):
                a[i][j] = (piv * a[i][j] - f * a[r][j]) / prev
        pivots.append((r, c))
        prev = piv
        r += 1
        if r == m:
            break

    pivot_cols = [c for _, c in pivots]
    kernel = []
    zero = Scalar.zero()
    for f in (c for c in range(n) if c not in pivot_cols):
        x = [zero] * n
        x[f] = one
        for r, c in reversed(pivots):
            s = zero
            for j in range(c + 1, n):
                if not x[j].is_zero():
                    s = s + a[r][j] * x[j]
            x[c] = -s / a[r][c]
        kernel.append(x)
    return len(pivots), kernel


def dense_rational(rng, m, n, lo=-4, hi=4):
    return M([[rng.randint(lo, hi) for _ in range(n)] for _ in range(m)])


def b_like(rng, m, n):
    """Tall, sparse +-1 rows with a few entries each, like a face-sum b."""
    rows = []
    for _ in range(m):
        row = [0] * n
        for _ in range(rng.randint(0, 4)):
            row[rng.randrange(n)] += rng.choice((1, -1))
        rows.append(row)
    return M(rows)


def roots_of_unity(rng, N, m, n, density=0.5):
    """Sums of N-th roots of unity, with ±1 and 0 mixed in."""
    def entry():
        if rng.random() > density:
            return Scalar.zero()
        x = Scalar.root_of_unity(N, rng.randrange(N))
        if rng.random() < 0.3:
            x = x - Scalar.root_of_unity(N, rng.randrange(N))
        return x
    return [[entry() for _ in range(n)] for _ in range(m)]


def with_zero_lines(rng, rows):
    """Zero out one random row and one random column."""
    rows = [list(r) for r in rows]
    if rows and rows[0]:
        rows[rng.randrange(len(rows))] = [Scalar.zero()] * len(rows[0])
        j = rng.randrange(len(rows[0]))
        for r in rows:
            r[j] = Scalar.zero()
    return rows


def seeded_cases():
    rng = random.Random(20)
    cases = [[], [[]], [[]] * 3, M([[0] * 4]), M([[0], [0], [0]])]
    for _ in range(12):
        cases.append(dense_rational(rng, rng.randint(1, 6), rng.randint(1, 6)))
    cases.append(dense_rational(rng, 3, 7))  # m < n
    cases.append(dense_rational(rng, 7, 3))  # m > n
    for m, n in ((8, 4), (16, 8), (27, 9), (32, 16), (64, 16)):
        cases.append(b_like(rng, m, n))
    for N in (3, 8):
        for m, n in ((3, 3), (4, 6), (6, 4), (9, 9)):
            cases.append(roots_of_unity(rng, N, m, n))
    for rows in list(cases[5:]):
        cases.append(with_zero_lines(rng, rows))
    return cases


@pytest.mark.parametrize("rows", seeded_cases())
def test_matches_bareiss_reference(rows):
    assert rank_kernel(rows) == bareiss_rank_kernel(rows)


def mixed_entries(rng, N, m, n, density=0.6):
    """Units (roots of unity, +-1, 2), Scalars (+-1, 2, 1+z, 2+z, a random
    power-basis vector, a Unit sum that cancels to zero) and zeros over
    Q(zeta_N), N = 1 meaning Q."""
    z = Scalar.root_of_unity(N, 1)
    makers = [
        lambda: Unit.root_of_unity(N, rng.randrange(N)) * rng.choice((1, -1)),
        lambda: Unit(rng.choice((1, -1, 2))),
        lambda: Scalar.rational(rng.choice((1, -1, 2))),
        lambda: Scalar.one() + z,
        lambda: z + 2,
        lambda: Scalar.cyclotomic(N, [rng.randint(-2, 2) for _ in range(N)]),
        lambda: Unit.root_of_unity(N, 1) + Unit.root_of_unity(N, 1) * -1,
    ]
    return [
        [rng.choice(makers)() if rng.random() < density else Scalar.zero() for _ in range(n)]
        for _ in range(m)
    ]


def with_dependent_row(rng, N, rows):
    """Append u*r1 + v*r2 for two rows and unit factors u, v, so that
    elimination cancels it to zero."""
    r1, r2 = rng.sample(rows, 2)
    u = Unit.root_of_unity(N, rng.randrange(N))
    v = Unit(rng.choice((1, -1)), N, rng.randrange(N))
    return rows + [[u * a + v * b for a, b in zip(r1, r2)]]


def with_non_unit_column(rng, N, rows):
    """Make column 0 hold only 2 or 1+z, so its pivot cannot be a Unit."""
    z = Scalar.root_of_unity(N, 1)
    return [[rng.choice((Scalar.rational(2), Scalar.one() + z))] + r[1:] for r in rows]


def mixed_cases():
    rng = random.Random(31)
    cases = []
    for N in (1, 3, 4, 8):
        for m, n in ((3, 3), (4, 6), (6, 4), (8, 8), (12, 6), (5, 9)):
            rows = mixed_entries(rng, N, m, n)
            cases.append(rows)
            cases.append(with_dependent_row(rng, N, rows))
            cases.append(with_non_unit_column(rng, N, with_dependent_row(rng, N, rows)))
            cases.append(with_zero_lines(rng, rows))
    return cases


@pytest.mark.parametrize("rows", mixed_cases())
def test_matches_gauss_jordan_reference(rows):
    rank, ker = rank_kernel(rows)
    assert (rank, ker) == linalg_reference.rank_kernel(rows)
    assert (rank, ker) == linalg_reference.echelon_rank_kernel(sparse(rows), len(rows[0]))
    assert all(type(v) is Scalar for vec in ker for v in vec)
    assert linalg.rank(linalg.row_set(sparse(rows), len(rows[0]))) == rank


def fraction_entry(rng, N):
    """A Scalar with Fraction coordinates, or a Unit with a Fraction
    coefficient."""
    if rng.random() < 0.5:
        return Unit(Fraction(rng.choice((1, -1)), rng.choice((2, 3))), N, rng.randrange(N))
    coords = [Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3, 4))) for _ in range(N)]
    coords[0] = Fraction(rng.choice((1, -1)), rng.choice((2, 3)))
    return Scalar.cyclotomic(N, coords)


def pair_entry(rng, N):
    z = Scalar.root_of_unity(N, 1)
    return rng.choice([
        lambda: rng.choice((1, -1)),
        lambda: Unit(rng.choice((1, -1)), N, rng.randrange(N)),
        lambda: Unit(2, N, rng.randrange(N)),
        lambda: z + 1,
        lambda: fraction_entry(rng, N),
    ])()


def sparse_case(rng, N, m, n):
    """Sparse (col, value) rows over Q(zeta_N) mixing ints, Units and
    Scalars with Fraction coordinates: column 0 holds no unit monomial
    (2, 2 + z, 1/2 + z), so its pivot takes a fraction-free step; repeated
    columns cancel or sum; rows are empty or hold only zeros; one row is
    dependent."""
    z = Scalar.root_of_unity(N, 1)
    rows = []
    for _ in range(m):
        row = [(j, pair_entry(rng, N)) for j in range(1, n) if rng.random() < 0.5]
        row.append((0, rng.choice((Scalar.rational(2), z + 2, z + Fraction(1, 2)))))
        if row and rng.random() < 0.4:
            j, x = rng.choice(row)
            row += [(j, x), (j, x * -1)]  # cancels
        if rng.random() < 0.3:
            j = rng.randrange(n)
            u = Unit.root_of_unity(N, rng.randrange(N))
            row += [(j, u), (j, u)]  # sums to 2u
        rng.shuffle(row)
        rows.append(row)
    rows.append([])
    rows.append([(rng.randrange(n), 0), (rng.randrange(n), Scalar.zero())])
    u = Unit(rng.choice((1, -1)), N, rng.randrange(N))
    rows.append(rows[0] + [(j, u * x) for j, x in rows[1]])  # rows[0] + u rows[1]
    rng.shuffle(rows)
    return rows, n


def sparse_cases():
    rng = random.Random(47)
    return [sparse_case(rng, N, m, n)
            for N in (1, 3, 4, 8)
            for m, n in ((2, 2), (4, 3), (5, 6), (8, 5), (6, 9), (12, 8))]


def dense(pairs, n):
    """The dense Scalar rows of sparse (col, value) rows."""
    out = []
    for row in pairs:
        vec = [Scalar.zero()] * n
        for j, x in row:
            vec[j] = vec[j] + x
        out.append(vec)
    return out


@pytest.mark.parametrize("pairs, n", sparse_cases())
def test_rank_matches_references_on_sparse_rows(pairs, n):
    before = [list(r) for r in pairs]
    expect = linalg_reference.echelon_rank_kernel(pairs, n)
    assert linalg.rank_kernel(linalg.row_set(pairs, n)) == expect
    assert linalg.rank(linalg.row_set(pairs, n)) == expect[0] == linalg_reference.rank_kernel(dense(pairs, n))[0]
    assert pairs == before


def test_rank_over_a_large_field_needs_no_table_of_unit_products():
    # the ring tables take O(N phi(N)) ints; a table of all (2N)^2 unit
    # products would take about 2 GB at N = 512
    N = 512
    rows = [
        [(0, Unit.root_of_unity(N, 1)), (1, Unit.root_of_unity(N, N - 3))],
        [(0, Unit.root_of_unity(N, 5)), (1, 1)],
    ]
    linalg._ring.cache_clear()
    tracemalloc.start()
    try:
        assert linalg.rank(linalg.row_set(rows, 2)) == 2
        assert linalg.rank(linalg.row_set(rows[:1] + rows[:1], 2)) == 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


@pytest.mark.parametrize("pairs, n", sparse_cases()[-6:])
def test_products_memo_stays_within_its_bound(monkeypatch, pairs, n):
    monkeypatch.setattr(linalg, "_MEMO_COORDS", 8)
    linalg._ring.cache_clear()
    try:
        assert linalg.rank_kernel(linalg.row_set(pairs, n)) == linalg_reference.echelon_rank_kernel(pairs, n)
        assert len(linalg._ring(8)[2]) <= 8 // 4
    finally:
        linalg._ring.cache_clear()


@st.composite
def field_matrices(draw):
    N = draw(st.sampled_from((1, 3, 4, 8)))
    m, n = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    z = Scalar.root_of_unity(N, 1)
    values = st.sampled_from([
        Scalar.zero(), Scalar.zero(), Scalar.one(), Scalar.rational(-1), Scalar.rational(2),
        Scalar.rational(1, 2), z, z * -1, z + 1, z * z, z * Fraction(2, 3) + Fraction(1, 2),
    ])
    return draw(st.lists(st.lists(values, min_size=n, max_size=n), min_size=m, max_size=m))


@settings(max_examples=150, deadline=None)
@given(field_matrices())
def test_rank_equals_transpose_rank_and_reference(rows):
    transpose = [list(col) for col in zip(*rows)]
    expect = linalg_reference.rank_kernel(rows)[0]
    assert linalg.rank(linalg.row_set(sparse(rows), len(rows[0]))) == expect
    assert linalg.rank(linalg.row_set(sparse(transpose), len(rows))) == expect


def test_identity():
    rank, ker = rank_kernel(M([[1, 0, 0], [0, 1, 0], [0, 0, 1]]))
    assert rank == 3 and ker == []


def test_zero_matrix():
    rank, ker = rank_kernel(M([[0] * 5, [0] * 5]))
    assert rank == 0 and len(ker) == 5


def test_known_rank():
    rank, ker = rank_kernel(M([[1, 2, 3], [2, 4, 6], [1, 1, 1]]))
    assert rank == 2
    assert len(ker) == 1


def test_kernel_annihilates_random():
    rng = random.Random(11)
    cases = [dense_rational(rng, rng.randint(1, 6), rng.randint(1, 6)) for _ in range(25)]
    cases += [b_like(rng, 32, 16), roots_of_unity(rng, 8, 5, 7), roots_of_unity(rng, 3, 7, 5)]
    for rows in cases:
        rank, ker = rank_kernel(rows)
        assert rank + len(ker) == len(rows[0])
        for k in ker:
            assert all(v.is_zero() for v in dense_apply(rows, k))


def test_rank_equals_transpose_rank():
    rng = random.Random(12)
    cases = [dense_rational(rng, rng.randint(1, 5), rng.randint(1, 5), -3, 3) for _ in range(25)]
    cases += [b_like(rng, 16, 8), roots_of_unity(rng, 8, 4, 6)]
    for rows in cases:
        rt = [list(col) for col in zip(*rows)]
        assert rank_kernel(rows)[0] == rank_kernel(rt)[0]


def test_cyclotomic_entries():
    z = Scalar.root_of_unity(3, 1)
    rows = [[z, z * z], [z * z, Scalar.one()]]
    # second row is z times the first, so rank 1
    rank, ker = rank_kernel(rows)
    assert rank == 1
    assert len(ker) == 1
    for k in ker:
        assert all(v.is_zero() for v in dense_apply(rows, k))


def test_laurent_rejected():
    with pytest.raises(LaurentScalars):
        rank_kernel([[Scalar.q_power(1)]])


@pytest.mark.parametrize("shape", ["diagonal", "column"])
def test_mixed_cyclotomic_orders_rejected(shape):
    z3, z4 = Scalar.root_of_unity(3, 1), Scalar.root_of_unity(4, 1)
    zero = Scalar.zero()
    rows = [[z3, zero], [zero, z4]] if shape == "diagonal" else [[z3], [z4]]
    with pytest.raises(RingMismatch):
        rank_kernel(rows)


@pytest.mark.parametrize("rows, error", [
    ([[Unit.q_power(1)]], LaurentScalars),
    ([[Unit.root_of_unity(3, 1)], [Scalar.root_of_unity(4, 1)]], RingMismatch),
    ([[Unit.root_of_unity(3, 1), Unit.root_of_unity(4, 1)]], RingMismatch),
])
def test_unit_entries_checked_like_scalars(rows, error):
    with pytest.raises(error):
        rank_kernel(rows)


def test_column_out_of_range_rejected():
    one = Scalar.one()
    for col in (2, 5, -1):
        with pytest.raises(ValueError):
            linalg.row_set([[(0, one)], [(col, one)]], 2)


@pytest.mark.parametrize("row, error", [
    ([(1, Scalar.q_power(1))], LaurentScalars),
    ([(1, Unit.q_power(1))], LaurentScalars),
    ([(0, Unit.root_of_unity(3, 1)), (1, Scalar.root_of_unity(4, 1))], RingMismatch),
    ([(1, 0.5)], TypeError),
    ([(1, Fraction(1, 2))], TypeError),
    ([(1, True)], TypeError),
    ([(2, 1)], ValueError),
], ids=["laurent", "laurent_unit", "two_fields", "float", "fraction", "bool", "column"])
def test_rank_and_rank_kernel_reject_alike(row, error):
    rows = [[(0, Scalar.one())], row]
    for fn in (linalg.rank, linalg.rank_kernel):
        with pytest.raises(error):
            fn(linalg.row_set(rows, 2))


def test_sparse_rows_sum_repeated_columns_and_read_ints_as_units():
    z = Unit.root_of_unity(4, 1)
    rows = [
        [(0, 1), (2, -1), (0, 1)],        # 2 at column 0
        [(1, z), (1, z * -1), (2, 0)],    # cancels to an empty row
        [(1, 2), (2, Scalar.zero()), (0, -1)],
        [(2, z), (2, z)],
    ]
    two = Scalar.rational(2)
    zero = Scalar.zero()
    dense = [
        [two, zero, Scalar.rational(-1)],
        [zero, zero, zero],
        [Scalar.rational(-1), two, zero],
        [zero, zero, z + z],
    ]
    assert linalg.rank_kernel(linalg.row_set(rows, 3)) == linalg_reference.rank_kernel(dense)
    assert linalg.rank_kernel(linalg.row_set(rows, 3))[0] == 3


def test_rows_are_not_mutated():
    rng = random.Random(14)
    for rows in (b_like(rng, 16, 8), roots_of_unity(rng, 8, 5, 7)):
        stored = linalg.row_set(sparse(rows), len(rows[0]))
        before = [dict(r) for r in stored]
        first = linalg.rank_kernel(stored)
        assert list(stored) == before
        assert linalg.rank_kernel(stored) == first


def test_determinism():
    rng = random.Random(13)
    for rows in (dense_rational(rng, 4, 4, -3, 3), b_like(rng, 16, 8), roots_of_unity(rng, 8, 4, 4)):
        assert rank_kernel(rows) == rank_kernel([list(r) for r in rows])
