"""Exact linear algebra over Q(zeta_N) on operator rows in one integer form.

A matrix is a RowSet: a list of {col: entry} rows that knows its field
order N (1 for Q), its column count n and its row denominators.  An entry
of Z[zeta_N] is a unit +-zeta_N^a as its code e in Z/2N, the exponent of
z = zeta_2N (+zeta_N^a is 2a, -zeta_N^a is 2a + N), so a product of units
adds codes and an inverse negates; any other entry is its power-basis tuple
of phi(N) ints.  Every unit is a code, so equal row sets compare equal.
Row i stands for its dict over dens[i] (dens None when all are 1).

A row set is validated once, where it is built: cyclic's row store writes
its rows with table_rows from the pull tables and conjugates them with
conjugated, after fixing N; row_set, the one conversion function, reads
(col, value) rows from anywhere else.  A Q row set meets one over
Q(zeta_N) with its codes 0, 1 read as 0, N.  rank, rank_kernel, apply_rows
and composite_witness read a row set as it is and never mutate it.

rank and rank_kernel copy the dicts and run one forward elimination,
_echelon: codes multiply by addition, other products are scalars._cyc_mul,
memoized per N in a bounded memo.  Columns are taken in order, and zeros
are never stored.  The pivot p of a column is a remaining row whose entry
there is a unit u, the one with the fewest entries; a row r with entry f
there becomes r - (f u^-1) p, with no division.  Only when no row has such
a unit is p the shortest row that holds the column, with entry e; then r
becomes e r - f p, a fraction-free step in the manner of Bareiss (valid
because e != 0 in a domain), and is divided by the gcd of its coordinates.
Pivot rows are cleared from the remaining rows only.  rank stops there, and
forms no Scalar; rank_kernel back-substitutes each kernel vector from its
free column on that integer echelon, converting the pivot rows to Scalars.

So ranks and kernels are those of the elimination on Scalars that this one
replaced (kept in tests/linalg_reference.py): a row scaled by a nonzero
integer, or replaced by e r - f p, spans the same line over the field, and
neither output depends on which row is taken as pivot, nor on how a row is
scaled.  The pivot columns are the lexicographically first set of
independent columns, which any exact column-ordered elimination finds, and
the kernel vector with a 1 in free column f and 0 in every other free
column is unique, so it is the one read off the reduced row echelon form.
The Unit-row readers these kernels replaced are in tests/unit_rows_reference.py.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import add, neg, sub

from .scalars import CYCLOTOMIC, LAURENT, RingMismatch, Scalar, Unit, _cyc_mul, _cyc_reduce, _cyc_value


class LaurentScalars(TypeError):
    """Matrix entries must live in a field; Laurent scalars are not one."""


def field_order(values) -> int:
    """The order N of the one field Q(zeta_N) of the values (ints, Units or
    Scalars), 1 for Q.  A Laurent value raises LaurentScalars, two
    cyclotomic fields RingMismatch, another type (a float, a Fraction, a
    bool) TypeError."""
    orders = set()
    for x in values:
        cls = x.__class__
        if cls is int:
            continue
        unit = cls is Unit
        if not unit and not isinstance(x, Scalar):
            raise TypeError(f"matrix entries must be Scalars or Units, got {cls.__name__}")
        if x.b if unit else x.tag == LAURENT:
            raise LaurentScalars("matrix entries must be rational or cyclotomic")
        if x.n > 1:  # a cyclotomic Scalar or non-rational Unit; Q has n <= 1
            orders.add(x.n)
    return _common_order(*orders)


def _common_order(*orders) -> int:
    big = sorted({N for N in orders if N > 1})
    if len(big) > 1:
        raise RingMismatch(f"cannot combine Q(zeta_{big[0]}) with Q(zeta_{big[1]})")
    return big[0] if big else 1


# the products memo of one ring holds at most this many coordinates, and
# is emptied when full
_MEMO_COORDS = 1 << 14


@lru_cache(maxsize=16)
def _ring(N: int):
    """(units, codes, products) of Z[zeta_N]: units[e] is the tuple of code
    e (None for odd e when N is even), codes maps a unit's tuple to its
    code, and products memoizes _cyc_mul on pairs.  O(N phi(N)) ints."""
    zeta, power = _cyc_reduce(N, [0, 1]), _cyc_reduce(N, [1])
    units = [None] * (2 * N)
    for a in range(N):
        units[2 * a], units[(2 * a + N) % (2 * N)] = power, _neg(power)
        power = _cyc_mul(N, zeta, power)
    return units, {u: e for e, u in enumerate(units) if u is not None}, {}


def _neg(v: tuple) -> tuple:
    return tuple(map(neg, v))


def _multiplier(N: int):
    """mul(a, b), the product of two power-basis tuples in Z[zeta_N], read
    from or written to the ring's bounded products memo."""
    units, _, products = _ring(N)
    room = _MEMO_COORDS // len(units[0])

    def mul(a, b):
        p = products.get((a, b))
        if p is None:
            if len(products) >= room:
                products.clear()
            p = products[a, b] = _cyc_mul(N, a, b)
        return p

    return mul


def entry(x, N: int):
    """x, an int, Unit or Scalar of Q(zeta_N) or Q, as an entry: its code
    when it is a unit +-zeta_N^a, else its power-basis tuple, whose
    coordinates may be Fractions; None for zero."""
    units, codes, _ = _ring(N)
    if x.__class__ is Unit:
        v = tuple([x.c * y for y in units[2 * x.a]])  # a = 0 when n = 1
    elif not x:
        return None
    else:
        v = (x,) if x.__class__ is int else x.payload if x.tag == CYCLOTOMIC else (x.payload,)
        v += units[0][len(v):]
    return codes.get(v, v)


def _den(vs) -> int:
    """The lcm of the denominators of the Fraction coordinates of vs."""
    return lcm(*(y.denominator for v in vs for y in v if y.__class__ is Fraction))


def _scaled(v: tuple, den: int) -> tuple:
    """The tuple v times den, a multiple of every denominator in it, as ints."""
    return tuple([y * den if y.__class__ is int else y.numerator * (den // y.denominator) for y in v])


def _tuple(v, N: int) -> tuple:
    """The power-basis tuple of the entry v."""
    return _ring(N)[0][v] if v.__class__ is int else v


def _summed(pairs, N: int) -> dict:
    """The {col: entry} row of (col, entry) pairs, entries meeting in one
    column summed into a canonical entry and dropped when zero."""
    row = dict(pairs)
    if len(row) < len(pairs):
        row = {}
        for j, x in pairs:
            v = row.pop(j, None)
            if v is not None:
                x = tuple(map(add, _tuple(v, N), _tuple(x, N)))
                if not any(x):
                    continue
                x = _ring(N)[1].get(x, x)
            row[j] = x
    return row


def _finish(row: dict, N: int):
    """(row, den): the row's tuples, which may hold Fractions, as ints
    scaled by den, the lcm of its denominators, with units as codes."""
    if all(v.__class__ is int or all(y.__class__ is int for y in v) for v in row.values()):
        return row, 1
    den, codes = _den([v for v in row.values() if v.__class__ is tuple]), _ring(N)[1]
    scaled = [(j, _scaled(_tuple(v, N), den)) for j, v in row.items()]
    return {j: codes.get(v, v) for j, v in scaled}, den


class RowSet(list):
    """Rows in the integer form of the module docstring, with N, the column
    count n and dens; rs + other stacks two row sets of one field on the
    same columns."""

    __slots__ = ("N", "n", "dens")

    def __init__(self, rows, N: int, n: int, dens=None):
        super().__init__(rows)
        self.N, self.n = N, n
        self.dens = dens if dens is not None and any(d != 1 for d in dens) else None

    def __add__(self, other):
        if not isinstance(other, RowSet) or (other.N, other.n) != (self.N, self.n):
            raise ValueError("stacked row sets need one field and the same columns")
        dens = None
        if self.dens is not None or other.dens is not None:
            dens = (self.dens or [1] * len(self)) + (other.dens or [1] * len(other))
        return RowSet(list.__add__(self, other), self.N, self.n, dens)

    def __eq__(self, other):
        return isinstance(other, RowSet) and [self.N, self.n, self.dens, *self] == [
            other.N, other.n, other.dens, *other]

    def __ne__(self, other):
        return not self == other


def _lifted(rows: RowSet, N: int) -> RowSet:
    """rows read over Q(zeta_N): a Q row set's codes 0, 1 become 0, N."""
    if rows.N == N:
        return rows
    if rows.N != 1:
        raise RingMismatch(f"cannot combine Q(zeta_{rows.N}) with Q(zeta_{N})")
    pad = _ring(N)[0][0][1:]
    lifted = [{j: e * N if e.__class__ is int else e + pad for j, e in row.items()} for row in rows]
    return RowSet(lifted, N, rows.n, rows.dens)


def row_set(rows, n: int, N: int | None = None) -> RowSet:
    """The RowSet of sparse rows of (col, value) pairs on n columns, values
    ints, Units or Scalars read over Q(zeta_N) (by default their own
    field); a column named twice in a row is summed.  Every value is
    checked first: a column outside 0..n-1 raises ValueError, a bad value
    as field_order says."""
    rows = [list(row) for row in rows]
    bad = [j for row in rows for j, _ in row if not 0 <= j < n]
    if bad:
        raise ValueError(f"column {bad[0]} outside 0..{n - 1}")
    N = _common_order(field_order(x for row in rows for _, x in row), N or 1)
    read = ([(j, v) for j, x in row if (v := entry(x, N)) is not None] for row in rows)
    out = [_finish(_summed(pairs, N), N) for pairs in read]
    return RowSet([row for row, _ in out], N, n, [den for _, den in out])


def table_rows(columns, N: int, n: int) -> RowSet:
    """The RowSet on n columns of a sum of operators with one entry per
    row: columns holds (idx, entries) pairs, row r of one holding entries[r]
    (a code or an int tuple) in column idx[r]."""
    if any(idx and not 0 <= min(idx) <= max(idx) < n for idx, _ in columns):
        raise ValueError(f"column outside 0..{n - 1}")
    return RowSet([_summed(pairs, N) for pairs in zip(*[zip(idx, e) for idx, e in columns])], N, n)


def conjugated(rows: RowSet, left, right, N: int) -> RowSet:
    """The RowSet over Q(zeta_N) of D_left X D_right, X rows without
    denominators and D_v the diagonal of the entries v: the entry x in row
    r and column col becomes left[r] x right[col].  When every left and
    right entry is a code, codes add; otherwise entries multiply as tuples
    and each row is scaled by the lcm of its denominators."""
    rows, (units, codes, _), mul, M = _lifted(rows, N), _ring(N), _multiplier(N), 2 * N
    if all(e.__class__ is int for e in left) and all(e.__class__ is int for e in right):
        return RowSet([{col: (p + x + right[col]) % M if x.__class__ is int
                         else mul(units[(p + right[col]) % M], x) for col, x in row.items()}
                        for p, row in zip(left, rows)], N, rows.n)
    out = [_finish({col: codes.get(v, v) for col, x in row.items() for v in [
        _cyc_mul(N, _cyc_mul(N, _tuple(p, N), _tuple(x, N)), _tuple(right[col], N))]}, N)
        for p, row in zip(left, rows)]
    return RowSet([row for row, _ in out], N, rows.n, [den for _, den in out])


def apply_rows(rows: RowSet, vec, zero):
    """Apply a row set to a vector of ints or Scalars (Units pass too) of its
    field or Q, on power-basis tuples scaled by the lcm of the vector's
    denominators: the codes of +-1 add or subtract, other entries multiply.
    An output sum is zero, or divided by both scales a Scalar, or an int
    when the vector is ints and the entries the row reads are integers."""
    if len(vec) != rows.n:
        raise ValueError(f"vector has {len(vec)} entries, the rows {rows.n} columns")
    N = _common_order(rows.N, field_order(vec))
    rows, units, mul = _lifted(rows, N), _ring(N)[0], _multiplier(N)
    ivec = [units[v] if (v := entry(x, N)).__class__ is int else v for x in vec]
    vden = _den([v for v in ivec if v is not None])
    if vden > 1:
        ivec = [None if v is None else _scaled(v, vden) for v in ivec]
    ints = all(x.__class__ is int for x in vec)
    out = []
    for i, row in enumerate(rows):
        acc = None
        whole = ints  # an int vector, and only rational entries read so far
        for col, e in row.items():
            x = ivec[col]
            if x is None:
                continue
            if e == 0:
                p = x
            elif e == N:
                p = _neg(x)
            elif e.__class__ is int:
                p, whole = mul(units[e], x), False
            else:
                p, whole = mul(e, x), whole and not any(e[1:])
            acc = p if acc is None else tuple(map(add, acc, p))
        den = vden if rows.dens is None else vden * rows.dens[i]
        if acc is None or not any(acc):
            out.append(zero)
        elif whole and den == 1:
            out.append(acc[0])
        else:
            if den > 1:
                acc = tuple([Fraction(y, den) if y % den else y // den for y in acc])
            out.append(_cyc_value(N, acc))
    return out


def composite_witness(terms):
    """Decide whether sum_t sign_t (outer_t after inner_t) is the zero
    operator, exactly: None when it is, else (row, col), the first output
    row and in it the smallest input column whose coefficient did not
    cancel.

    terms are (sign, outer, inner) triples of row sets, sign +-1, outer's
    columns indexing inner's rows and inner None the identity.  An entry
    at column col is read as monomials q z^r, z = zeta_2N, keyed col * N + r,
    0 <= r < N: a code e is z^e = -z^(e-N), a tuple its power-basis
    monomials c zeta_N^i = c z^(2i).  A product adds codes and multiplies
    counts; a row's sum adds counts in one dict.  Roots of unity cancel
    without equal codes (1 + zeta_3 + zeta_3^2 = 0), so a column whose
    counts are not all zero is reduced modulo Phi_2N first."""
    N = _common_order(*(rs.N for _, outer, inner in terms for rs in (outer, inner) if rs is not None))
    for _, outer, inner in terms:
        if inner is not None and outer.n != len(inner):
            raise ValueError(f"outer rows read {outer.n} columns, inner has {len(inner)} rows")

    def monomials(rows, i):
        out = []
        for col, e in rows[i].items():
            key = col * N
            if e.__class__ is int:
                out.append((key + e, 1) if e < N else (key + e - N, -1))
                continue
            for r, c in enumerate(e):
                if c:
                    r *= 2
                    out.append((key + r, c) if r < N else (key + r - N, -c))
        if rows.dens is not None and rows.dens[i] != 1:
            out = [(key, Fraction(c, rows.dens[i])) for key, c in out]
        return out

    # inner's row j times z^r at index j * N + r, built when first asked for
    tables = {id(inner): (_lifted(inner, N), [None] * (len(inner) * N))
              for _, _, inner in terms if inner is not None}
    steps = [(sign, _lifted(outer, N), None if inner is None else tables[id(inner)])
             for sign, outer, inner in terms]
    for i in range(len(terms[0][1])):
        acc = {}
        get = acc.get
        for sign, outer, table in steps:
            for key, q in monomials(outer, i):
                if sign < 0:
                    q = -q
                if table is None:
                    acc[key] = get(key, 0) + q
                    continue
                inner, shifted = table
                row = shifted[key]
                if row is None:
                    r = key % N
                    row = shifted[key - r]
                    if row is None:
                        row = shifted[key - r] = monomials(inner, key // N)
                    if r:
                        row = shifted[key] = [
                            (k + r, c) if k % N + r < N else (k + r - N, -c) for k, c in row
                        ]
                if q == 1:
                    for k, c in row:
                        acc[k] = get(k, 0) + c
                elif q == -1:
                    for k, c in row:
                        acc[k] = get(k, 0) - c
                else:
                    for k, c in row:
                        acc[k] = get(k, 0) + q * c
        if not any(acc.values()):
            continue
        cols = {}
        for key, c in acc.items():
            if c:
                cols.setdefault(key // N, [0] * N)[key % N] = c
        for col in sorted(cols):
            if any(_cyc_reduce(2 * N, cols[col])):
                return i, col
    return None


def _echelon(rows, N: int) -> dict:
    """Forward-eliminate the nonempty {col: entry} rows in place; return
    {pivot col: (pivot entry, pivot row without that entry)}, in column
    order.  An entry is a code or a tuple of ints, as in a RowSet."""
    units, codes, _ = _ring(N)
    M = 2 * N
    mul = _multiplier(N)
    live = rows
    pivots: dict = {}
    for c in sorted({j for r in rows for j in r}):
        if not live:
            break
        holders = [r for r in live if c in r]
        if not holders:
            continue
        prow = min([r for r in holders if r[c].__class__ is int or r[c] in codes] or holders, key=len)
        e = prow.pop(c)
        unit = e.__class__ is int or e in codes
        if unit:
            e = codes.get(e, e)
        for r in holders:
            if r is prow:
                continue
            f = r.pop(c)
            if not prow:
                continue
            if unit:  # r <- r - f*e^-1*prow
                f = (f - e) % M if f.__class__ is int else mul(f, units[-e % M])
            else:  # r <- e*r - f*prow, then divided by its content
                for j, x in r.items():
                    r[j] = mul(e, units[x] if x.__class__ is int else x)
            code = f.__class__ is int
            for j, x in prow.items():
                if x.__class__ is int:
                    x = (f + x) % M if code else mul(f, units[x])
                elif not code:
                    x = mul(f, x)
                elif f:
                    x = mul(units[f], x)
                v = r.get(j)
                if v is None:
                    r[j] = (x + N) % M if x.__class__ is int else _neg(x)
                elif v.__class__ is int and v == x:
                    del r[j]
                else:
                    s = tuple(map(sub, units[v] if v.__class__ is int else v,
                                  units[x] if x.__class__ is int else x))
                    if any(s):
                        r[j] = s
                    else:
                        del r[j]
            if not unit and r and all(v.__class__ is tuple for v in r.values()):  # a code has content 1
                g = gcd(*(y for v in r.values() for y in v))
                if g > 1:
                    for j, v in r.items():
                        r[j] = tuple([y // g for y in v])
        live = [r for r in live if r and r is not prow]
        pivots[c] = (e, prow)
    return pivots


def rank(rows: RowSet) -> int:
    """Rank of the matrix of a row set; the rows are copied, never
    mutated."""
    return len(_echelon([dict(r) for r in rows if r], rows.N))


def rank_kernel(rows: RowSet) -> tuple[int, list[list[Scalar]]]:
    """Rank and a kernel basis of the matrix of a row set; the rows are
    copied, never mutated.

    Kernel vectors have a 1 in their free column, hold Scalars, and are
    returned in column order; rank + len(kernel) == rows.n.
    """
    N, n = rows.N, rows.n
    pivots = _echelon([dict(r) for r in rows if r], N)
    free = [f for f in range(n) if f not in pivots]
    if not free:
        return len(pivots), []

    def scalar(v):
        return Scalar.cyclotomic(N, _tuple(v, N))

    back = [  # (pivot col, pivot row as Scalars, 1/pivot entry or None for 1)
        (c, [(j, scalar(v)) for j, v in prow.items()], None if e == 0 else scalar(e).inverse())
        for c, (e, prow) in reversed(pivots.items())
    ]
    zero = Scalar.zero()
    kernel = []
    for f in free:
        x = {f: Scalar.one()}
        for c, prow, einv in back:
            if c > f:
                continue
            s = None
            for j, v in prow:
                y = x.get(j)
                if y is not None:
                    s = v * y if s is None else s + v * y
            if s:
                x[c] = -s if einv is None else -s * einv
        vec = [zero] * n
        for j, v in x.items():
            vec[j] = v
        kernel.append(vec)
    return len(pivots), kernel
