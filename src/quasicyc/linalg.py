"""Exact linear algebra over field scalars (rational or cyclotomic).

rank, rank_kernel and apply_rows take a matrix as sparse rows, each a list
of (col, value) pairs, the form in which `cyclic.OperatorCache` stores
operator rows.  The values are ints, `scalars.Unit`s or Scalars of one field
Q(zeta_N) (Q being N = 1); a column named twice in one row is summed, and
zeros are dropped.  The rows are read, never mutated, so a stored row set
can be eliminated or applied again, or stacked with others.

All three work on integer coefficient vectors in Z[zeta_N], and N is read
once per call by _field_order, which rejects Laurent entries and a second
cyclotomic field.  One entry reader, _reader, turns a value into its
power-basis tuple of phi(N) coordinates: the payload of a Scalar (a 1-tuple
on Q), and c * zeta^a of an int or a Unit, +-zeta^a read from the ring's
tables.  A row whose entries have Fraction coordinates is scaled by the lcm
of their denominators.  Tuples are multiplied by scalars._cyc_mul, whose
products are memoized per N as they are first asked for, in a bounded memo;
a +-1 int entry needs no reader and no product.

apply_rows, the one applier of operator rows (cyclic re-exports it), reads
the vector the same way, scaled by one lcm of its denominators, adds or
subtracts the vector's tuple at a +-1 entry and multiplies at every other,
and divides each nonzero output sum back by both scales once, into a
Scalar; ints stay ints under ints.  tests/dims_reference.py keeps a
Scalar applier that its results are tested against.

rank and rank_kernel run one forward elimination on the rows so read.
A row's scaling leaves its span unchanged.  Columns are taken in order,
and zeros are never stored.  The pivot p of a column is a remaining row
whose entry there is a unit u = +-zeta^a, the one with the fewest entries;
a row r with entry f there becomes r - (f u^-1) p, with no division, since
u^-1 = +-zeta^-a.
Only when no row has such a unit is p the shortest row that holds the
column, with entry e; then r becomes e r - f p, a fraction-free step in the
manner of Bareiss (valid because e != 0 in a domain), and is divided by the
gcd of its coordinates.  Pivot rows are cleared from the remaining rows
only.  rank stops there: the rank is the number of pivots, and no Scalar is
formed.  rank_kernel back-substitutes each kernel vector from its free
column on that integer echelon, converting the pivot rows to Scalars only
for this.

So ranks and kernels are those of the elimination on Scalars that this one
replaced (kept in tests/linalg_reference.py): a row scaled by a nonzero
integer, or replaced by e r - f p, spans the same line over the field, and
neither output depends on which row is taken as pivot, nor on how a row is
scaled.  The pivot columns are the lexicographically first set of
independent columns, which any exact column-ordered elimination finds, and
the kernel vector with a 1 in free column f and 0 in every other free
column is unique, so it is the one read off the reduced row echelon form.
Arithmetic is exact, so the result is bit-for-bit deterministic for a given
matrix.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import chain
from math import gcd, lcm
from operator import add, neg, sub

from .scalars import CYCLOTOMIC, LAURENT, RingMismatch, Scalar, Unit, _cyc_mul, _cyc_reduce, _cyc_value


class LaurentScalars(TypeError):
    """Matrix entries must live in a field; Laurent scalars are not one."""


def _field_order(rows, n: int) -> int:
    """Validate every (col, value) pair before any elimination; return the
    order N of the one cyclotomic field the entries share, 1 for Q.

    Cyclotomic entries must share one order N: two different cyclotomic
    fields have no common ring here, whether or not their entries would
    ever meet during elimination."""
    orders = set()
    for row in rows:
        for j, x in row:
            if not 0 <= j < n:
                raise ValueError(f"column {j} outside 0..{n - 1}")
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
    if len(orders) > 1:
        a, b = sorted(orders)[:2]
        raise RingMismatch(f"cannot combine Q(zeta_{a}) with Q(zeta_{b})")
    return orders.pop() if orders else 1


# the products memo of one ring holds at most this many coordinates, and
# is emptied when full
_MEMO_COORDS = 1 << 14


@lru_cache(maxsize=16)
def _ring(N: int):
    """(powers, negated, inverses, products) of Z[zeta_N]: powers[a] and
    negated[a] are the tuples of zeta^a and -zeta^a, inverses maps the tuple
    of each unit +-zeta^a to its inverse's, and products memoizes _cyc_mul
    on pairs of tuples, filled as products are asked for.  The tables take
    O(N phi(N)) ints, built one multiplication by zeta at a time."""
    zeta = _cyc_reduce(N, [0, 1])
    powers = [_cyc_reduce(N, [1])]
    for _ in range(1, N):
        powers.append(_cyc_mul(N, zeta, powers[-1]))
    negated = [_neg(p) for p in powers]
    inverses = {}
    for a, p in enumerate(powers):
        inverses[p] = powers[-a % N]
        inverses[negated[a]] = negated[-a % N]
    return powers, negated, inverses, {}


def _neg(v: tuple) -> tuple:
    return tuple(map(neg, v))


def _reader(N: int):
    """The entry reader of Z[zeta_N], which rank and apply_rows share:
    read(x) is None for a zero x, else the power-basis tuple of x.  An int c
    and a Unit c * zeta^a read as c * zeta^a (+-1 and +-zeta^a from the
    ring's tables), a Scalar as its payload.  Only a Scalar, or a Unit whose
    c is a Fraction, gives Fraction coordinates."""
    powers, negated = _ring(N)[:2]
    one, minus = powers[0], negated[0]
    pad = one[1:]

    def read(x):
        cls = x.__class__
        if cls is Unit:
            c = x.c
            if c == 1:
                return powers[x.a]
            if c == -1:
                return negated[x.a]
            return tuple([c * y for y in powers[x.a]])
        if cls is int:
            if not x:
                return None
            return one if x == 1 else minus if x == -1 else (x,) + pad
        if not x:
            return None
        return x.payload if x.tag == CYCLOTOMIC else (x.payload,) + pad

    return read


def _multiplier(N: int):
    """mul(a, b), the product of two power-basis tuples in Z[zeta_N], read
    from or written to the ring's bounded products memo."""
    powers, _, _, products = _ring(N)
    room = _MEMO_COORDS // len(powers[0])

    def mul(a, b):
        p = products.get((a, b))
        if p is None:
            if len(products) >= room:
                products.clear()
            p = products[a, b] = _cyc_mul(N, a, b)
        return p

    return mul


def _scaled(v: tuple, den: int) -> tuple:
    """The tuple v times den, a multiple of every denominator in it, as a
    tuple of ints."""
    return tuple([y * den if y.__class__ is int else y.numerator * (den // y.denominator) for y in v])


def _den(vs) -> int:
    """The lcm of the denominators of the Fraction coordinates of vs."""
    return lcm(*(y.denominator for v in vs for y in v if y.__class__ is Fraction))


def _int_rows(rows, N: int) -> list[dict]:
    """The nonempty rows as {col: power-basis tuple} dicts of ints, each
    entry read by _reader, a repeated column summed, zeros dropped, and a
    row with a Fraction coordinate scaled by the lcm of the denominators.
    Every rank reads every entry, so +-1 and +-zeta^a, the entries of plain
    and root-of-unity twisted rows, are looked up here as the reader would
    (a call per entry made rank about 4% slower on the dims matrices)."""
    read = _reader(N)
    powers, negated = _ring(N)[:2]
    one, minus = powers[0], negated[0]
    out = []
    for row in rows:
        acc = {}
        frac = False
        for j, x in row:
            cls = x.__class__
            if cls is int and (x == 1 or x == -1):
                v = one if x == 1 else minus
            elif cls is Unit and (x.c == 1 or x.c == -1):
                v = (powers if x.c == 1 else negated)[x.a]
            else:
                v = read(x)
                if v is None:
                    continue
                frac = frac or cls is not int  # a Scalar, or a Unit c * zeta^a
            prev = acc.get(j)
            if prev is not None:
                v = tuple(map(add, prev, v))
                if not any(v):
                    del acc[j]
                    continue
            acc[j] = v
        if frac:
            den = _den(acc.values())
            if den > 1:
                acc = {j: _scaled(v, den) for j, v in acc.items()}
        if acc:
            out.append(acc)
    return out


def apply_rows(rows, vec, zero):
    """Apply sparse rows to a vector of ints or Scalars (Units pass too),
    exactly, on integer power-basis vectors in Z[zeta_N].

    N is read once from the rows and the vector, as linalg.rank reads it: a
    Laurent entry raises LaurentScalars, two cyclotomic fields RingMismatch.
    The vector is read as payload tuples scaled by the lcm of its
    denominators.  A +-1 int entry adds or subtracts the vector's tuple;
    every other entry is read by linalg's entry reader and multiplied
    through the ring's products memo, a row whose read entries have Fraction
    coordinates scaled by the lcm of their denominators first.  An output
    entry whose sum is zero is zero; otherwise the sum, divided by both
    scales, is a Scalar, or an int when the vector and every entry its row
    read are ints."""
    N = _field_order(chain(rows, (enumerate(vec),)), len(vec))
    read, mul = _reader(N), _multiplier(N)
    powers, negated = _ring(N)[:2]
    one, minus = powers[0], negated[0]
    ivec = [read(x) for x in vec]
    vden = _den([v for v in ivec if v is not None])
    if vden > 1:
        ivec = [None if v is None else _scaled(v, vden) for v in ivec]
    ints = all(x.__class__ is int for x in vec)
    out = []
    for row in rows:
        acc = None  # the row's sum, first over its +-1 entries
        rest = []  # (entry's tuple, vector's tuple) over its other entries
        whole = ints  # an int vector, and only int entries read so far
        for col, c in row:
            x = ivec[col]
            if x is None:
                continue
            if c.__class__ is not int or not (c == 1 or c == -1):
                v = read(c)
                if v is None:
                    continue
                if v != one and v != minus:
                    whole = whole and c.__class__ is int
                    rest.append((v, x))
                    continue
                c = 1 if v == one else -1
            if acc is None:
                acc = x if c == 1 else _neg(x)
            else:
                acc = tuple(map(add if c == 1 else sub, acc, x))
        den = vden
        if rest:
            rden = _den([v for v, _ in rest])
            if rden > 1:
                rest = [(_scaled(v, rden), x) for v, x in rest]
                if acc is not None:
                    acc = tuple([rden * y for y in acc])
                den *= rden
            for v, x in rest:
                p = mul(v, x)
                acc = p if acc is None else tuple(map(add, acc, p))
        if acc is None or not any(acc):
            out.append(zero)
        elif whole:
            out.append(acc[0])
        else:
            if den > 1:
                acc = tuple([Fraction(y, den) if y % den else y // den for y in acc])
            out.append(_cyc_value(N, acc))
    return out


def _echelon(rows, N: int) -> dict:
    """Forward-eliminate the nonempty {col: tuple} rows in place; return
    {pivot col: (pivot entry, pivot row without that entry)}, in column
    order."""
    powers, _, inverses, _ = _ring(N)
    one = powers[0]
    mul = _multiplier(N)
    live = rows
    pivots: dict = {}
    for c in sorted({j for r in rows for j in r}):
        if not live:
            break
        holders = [r for r in live if c in r]
        if not holders:
            continue
        prow = min([r for r in holders if r[c] in inverses] or holders, key=len)
        e = prow.pop(c)
        inv = inverses.get(e)
        for r in holders:
            if r is prow:
                continue
            f = r.pop(c)
            if not prow:
                continue
            if inv is None:  # r <- e*r - f*prow, then divided by its content
                for j, x in r.items():
                    r[j] = mul(e, x)
            else:  # r <- r - f*e^-1*prow
                f = mul(f, inv)
            for j, x in prow.items():
                if f != one:
                    x = mul(f, x)
                v = r.get(j)
                if v is None:
                    r[j] = _neg(x)
                else:
                    v = tuple(map(sub, v, x))
                    if any(v):
                        r[j] = v
                    else:
                        del r[j]
            if inv is None and r:
                g = gcd(*(y for v in r.values() for y in v))
                if g > 1:
                    for j, v in r.items():
                        r[j] = tuple([y // g for y in v])
        live = [r for r in live if r and r is not prow]
        pivots[c] = (e, prow)
    return pivots


def rank(rows, n: int) -> int:
    """Rank of the matrix with n columns given by sparse rows of (col,
    value) pairs; the rows are read, never mutated."""
    N = _field_order(rows, n)
    return len(_echelon(_int_rows(rows, N), N))


def rank_kernel(rows, n: int) -> tuple[int, list[list[Scalar]]]:
    """Rank and a kernel basis of the matrix with n columns given by sparse
    rows of (col, value) pairs; the rows are read, never mutated.

    Kernel vectors have a 1 in their free column, hold Scalars, and are
    returned in column order; rank + len(kernel) == n.
    """
    N = _field_order(rows, n)
    pivots = _echelon(_int_rows(rows, N), N)
    free = [f for f in range(n) if f not in pivots]
    if not free:
        return len(pivots), []

    def scalar(v):
        return Scalar.cyclotomic(N, v)

    one = _ring(N)[0][0]
    back = [  # (pivot col, pivot row as Scalars, 1/pivot entry or None for 1)
        (c, [(j, scalar(v)) for j, v in prow.items()], None if e == one else scalar(e).inverse())
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
