"""Exact linear algebra over field scalars (rational or cyclotomic).

rank_kernel runs sparse Gauss-Jordan elimination: rows are {col: value}
dicts, columns are taken in order, the pivot of a column is the first
remaining row that holds it, and only rows holding the pivot column are
touched.  Each pivot costs one field inverse; every other step is a
multiply-subtract, and zeros are never stored.

The output does not depend on the elimination scheme.  The pivot columns
are the lexicographically first set of independent columns, which any
exact column-ordered elimination finds, and the kernel vector with a 1 in
free column f and 0 in every other free column is unique, so it is the
one read off the reduced row echelon form.  Arithmetic is exact, so the
result is bit-for-bit deterministic for a given matrix.
"""

from __future__ import annotations

from .scalars import CYCLOTOMIC, LAURENT, RingMismatch, Scalar


class LaurentScalars(TypeError):
    """Matrix entries must live in a field; Laurent scalars are not one."""


def _check_field(rows):
    """Validate the entries before any elimination.

    Cyclotomic entries must share one order N: two different cyclotomic
    fields have no common ring here, whether or not their entries would
    ever meet during elimination."""
    orders = set()
    for row in rows:
        for x in row:
            if not isinstance(x, Scalar):
                raise TypeError(f"matrix entries must be Scalars, got {type(x).__name__}")
            if x.tag == LAURENT:
                raise LaurentScalars("matrix entries must be rational or cyclotomic")
            if x.tag == CYCLOTOMIC:
                orders.add(x.n)
    if len(orders) > 1:
        a, b = sorted(orders)[:2]
        raise RingMismatch(f"cannot combine Q(zeta_{a}) with Q(zeta_{b})")


def _rref(rows, n: int) -> dict:
    """Reduce the sparse rows (nonzero values only) in place; return
    {pivot col: reduced row without its pivot entry}, whose entries all sit
    in non-pivot columns."""
    live = [r for r in rows if r]
    pivots: dict = {}
    for c in range(n):
        if not live:
            break
        p = next((i for i, r in enumerate(live) if c in r), None)
        if p is None:
            continue
        prow = live.pop(p)
        inv = prow.pop(c).inverse()
        for j in prow:
            prow[j] = prow[j] * inv
        for group in (live, pivots.values()):
            for r in group:
                f = r.pop(c, None)
                if f is None:
                    continue
                for j, x in prow.items():
                    v = r.get(j)
                    v = -(f * x) if v is None else v - f * x
                    if v:
                        r[j] = v
                    else:
                        del r[j]
        live = [r for r in live if r]
        pivots[c] = prow
    return pivots


def rank_kernel(rows: list[list[Scalar]]) -> tuple[int, list[list[Scalar]]]:
    """Rank and a kernel basis of the matrix given as a list of rows.

    Kernel vectors have a 1 in their free column and are returned in
    column order; rank + len(kernel) == number of columns.
    """
    _check_field(rows)
    m = len(rows)
    n = len(rows[0]) if m else 0
    if any(len(r) != n for r in rows):
        raise ValueError("ragged matrix")
    pivots = _rref([{j: x for j, x in enumerate(r) if x} for r in rows], n)

    zero, one = Scalar.zero(), Scalar.one()
    kernel = []
    for f in range(n):
        if f in pivots:
            continue
        x = [zero] * n
        x[f] = one
        for c, prow in pivots.items():
            v = prow.get(f)
            if v is not None:
                x[c] = -v
        kernel.append(x)
    return len(pivots), kernel
