"""Exact linear algebra over field scalars (rational or cyclotomic).

rank_kernel takes a matrix as sparse rows, each a list of (col, value)
pairs, the form in which `cyclic.OperatorCache` stores operator rows.  The
values are Scalars, `scalars.Unit`s or ints: an int becomes a Unit, a
column named twice in one row is summed, and zeros are dropped.  The rows
are copied into {col: value} dicts, so a stored row set is never mutated
and can be eliminated again or stacked with others.

It runs one sparse forward elimination: columns are taken in order, and
zeros are never stored.  The pivot of a column is a remaining
row whose entry there is a Unit, the one with the fewest entries; only when
no row has a Unit there is it the shortest row that holds the column.  A
Unit's inverse negates its exponent, so the arithmetic of unit-monomial rows
stays integral, and a Scalar forms only where a sum does.  The pivot row is
scaled to a leading 1 and cleared from the remaining rows, never from earlier
pivot rows; each kernel vector is then found by back-substitution from its
free column.

The output does not depend on which row is taken as pivot.  The pivot
columns are the lexicographically first set of independent columns, which
any exact column-ordered elimination finds, and the kernel vector with a 1
in free column f and 0 in every other free column is unique, so it is the
one read off the reduced row echelon form.  Arithmetic is exact, so the
result is bit-for-bit deterministic for a given matrix.
"""

from __future__ import annotations

from .scalars import LAURENT, RingMismatch, Scalar, Unit


class LaurentScalars(TypeError):
    """Matrix entries must live in a field; Laurent scalars are not one."""


def _check_field(rows):
    """Validate the nonzero entries before any elimination.

    Cyclotomic entries must share one order N: two different cyclotomic
    fields have no common ring here, whether or not their entries would
    ever meet during elimination."""
    orders = set()
    for row in rows:
        for x in row.values():
            unit = x.__class__ is Unit
            if not unit and not isinstance(x, Scalar):
                raise TypeError(f"matrix entries must be Scalars or Units, got {type(x).__name__}")
            if x.b if unit else x.tag == LAURENT:
                raise LaurentScalars("matrix entries must be rational or cyclotomic")
            if x.n > 1:  # a cyclotomic Scalar or non-rational Unit; Q has n <= 1
                orders.add(x.n)
    if len(orders) > 1:
        a, b = sorted(orders)[:2]
        raise RingMismatch(f"cannot combine Q(zeta_{a}) with Q(zeta_{b})")


def _echelon(rows, n: int) -> dict:
    """Forward-eliminate the sparse rows (nonzero values only) in place;
    return {pivot col: pivot row scaled to a leading 1, without that entry},
    in column order."""
    live = [r for r in rows if r]
    pivots: dict = {}
    for c in range(n):
        if not live:
            break
        holders = [i for i, r in enumerate(live) if c in r]
        if not holders:
            continue
        p = min(holders, key=lambda i: (live[i][c].__class__ is not Unit, len(live[i])))
        holders.remove(p)
        prow = live[p]
        inv = prow.pop(c).inverse()
        for j in prow:
            prow[j] = prow[j] * inv
        for i in holders:
            r = live[i]
            f = r.pop(c)
            for j, x in prow.items():
                v = r.get(j)
                v = -(f * x) if v is None else v - f * x
                if v:
                    r[j] = v
                else:
                    del r[j]
        live = [r for i, r in enumerate(live) if r and i != p]
        pivots[c] = prow
    return pivots


_INT_UNITS = {1: Unit.one(), -1: Unit(-1)}


def _row_dict(row, n: int) -> dict:
    """{col: value} of (col, value) pairs: ints become Units, a repeated
    column is summed, zeros are dropped."""
    out = {}
    for j, x in row:
        if not 0 <= j < n:
            raise ValueError(f"column {j} outside 0..{n - 1}")
        if x.__class__ is int:
            if not x:
                continue
            x = _INT_UNITS.get(x) or Unit(x)
        elif x.__class__ is Scalar and not x:
            continue
        prev = out.get(j)
        if prev is not None:
            x = prev + x
            if not x:
                del out[j]
                continue
        out[j] = x
    return out


def rank_kernel(rows, n: int) -> tuple[int, list[list[Scalar]]]:
    """Rank and a kernel basis of the matrix with n columns given by sparse
    rows of (col, value) pairs; the rows are read, never mutated.

    Kernel vectors have a 1 in their free column, hold Scalars, and are
    returned in column order; rank + len(kernel) == n.
    """
    sparse = [_row_dict(r, n) for r in rows]
    _check_field(sparse)
    pivots = _echelon(sparse, n)

    zero, one = Scalar.zero(), Unit.one()
    back = list(reversed(pivots.items()))
    kernel = []
    for f in range(n):
        if f in pivots:
            continue
        x = {f: one}
        for c, prow in back:
            if c > f:
                continue
            s = None
            for j, v in prow.items():
                y = x.get(j)
                if y is not None:
                    s = v * y if s is None else s + v * y
            if s:
                x[c] = -s
        vec = [zero] * n
        for j, v in x.items():
            vec[j] = v.scalar() if v.__class__ is Unit else v
        kernel.append(vec)
    return len(pivots), kernel
