"""Exact linear algebra over field scalars (rational or cyclotomic).

rank and rank_kernel take a matrix as sparse rows, each a list of (col,
value) pairs, the form in which `cyclic.OperatorCache` stores operator rows.
The values are ints, `scalars.Unit`s or Scalars of one field Q(zeta_N) (Q
being N = 1); a column named twice in one row is summed, and zeros are
dropped.  The rows are read, never mutated, so a stored row set can be
eliminated again or stacked with others.

Both run one forward elimination, on integer coefficient vectors in
Z[zeta_N]: an entry is its power-basis tuple of phi(N) ints, the payload of
a cyclotomic Scalar (a 1-tuple on Q), multiplied by scalars._cyc_mul, whose
products are memoized per N as they are first asked for, in a bounded memo.
A row with Fraction coordinates is first scaled by the lcm of their
denominators, which leaves its span unchanged.  Columns are taken in order,
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
from math import gcd, lcm
from operator import add, neg, sub

from .scalars import CYCLOTOMIC, LAURENT, RingMismatch, Scalar, Unit, _cyc_mul, _cyc_reduce


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


def _int_rows(rows, N: int) -> list[dict]:
    """The nonempty rows as {col: power-basis tuple} dicts of ints: ints and
    Units read as c * zeta^a, a Scalar as its payload, a repeated column
    summed, zeros dropped, and a row with a Fraction coordinate scaled by
    the lcm of the denominators."""
    powers, negated = _ring(N)[:2]
    one, minus = powers[0], negated[0]
    pad = one[1:]
    out = []
    for row in rows:
        acc = {}
        frac = False
        for j, x in row:
            cls = x.__class__
            if cls is int:
                if not x:
                    continue
                v = one if x == 1 else minus if x == -1 else (x,) + pad
            elif cls is Unit:
                c = x.c
                if c == 1:
                    v = powers[x.a]
                elif c == -1:
                    v = negated[x.a]
                else:
                    frac |= c.__class__ is not int
                    v = tuple([c * y for y in powers[x.a]])
            elif not x:
                continue
            elif x.tag == CYCLOTOMIC:
                v = x.payload
                frac |= any(y.__class__ is not int for y in v)
            else:
                v = (x.payload,) + pad
                frac |= x.payload.__class__ is not int
            prev = acc.get(j)
            if prev is not None:
                v = tuple(map(add, prev, v))
                if not any(v):
                    del acc[j]
                    continue
            acc[j] = v
        if frac:
            den = lcm(*(y.denominator for v in acc.values() for y in v if y.__class__ is Fraction))
            acc = {j: tuple([int(y * den) for y in v]) for j, v in acc.items()}
        if acc:
            out.append(acc)
    return out


def _echelon(rows, N: int) -> dict:
    """Forward-eliminate the nonempty {col: tuple} rows in place; return
    {pivot col: (pivot entry, pivot row without that entry)}, in column
    order."""
    powers, _, inverses, products = _ring(N)
    one = powers[0]
    room = _MEMO_COORDS // len(one)

    def mul(a, b):
        p = products.get((a, b))
        if p is None:
            if len(products) >= room:
                products.clear()
            p = products[a, b] = _cyc_mul(N, a, b)
        return p

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
