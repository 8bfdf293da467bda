"""Two eliminations that linalg's integer elimination replaced, kept as
references.

rank_kernel is the sparse Gauss-Jordan form: the pivot of a column is the
first remaining row that holds it, whatever its entry, each pivot costs one
Scalar inverse, and the pivot column is cleared from every row, earlier
pivot rows included, so the kernel is read off the reduced row echelon
form.  It takes dense rows of Scalars and Units; Unit entries are converted
before elimination.

echelon_rank_kernel is the unit-pivot echelon form on Scalars and Units that
replaced it, with the same sparse-row input as linalg.rank_kernel: ints
become Units, a repeated column is summed as Scalars, and each column's
pivot is a row whose entry there is a Unit, the one with the fewest
entries, else the shortest row that holds the column.  The pivot row is
scaled to a leading 1 by its entry's inverse and cleared from the remaining
rows only; each kernel vector is back-substituted from its free column.
"""

from quasicyc.linalg import LaurentScalars
from quasicyc.scalars import LAURENT, RingMismatch, Scalar, Unit


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


def rank_kernel(rows):
    """Rank and the kernel basis with a 1 in each free column, in column
    order, of a matrix of Scalars and Units."""
    n = len(rows[0]) if rows else 0
    sparse = [
        {j: x.scalar() if x.__class__ is Unit else x for j, x in enumerate(r) if x}
        for r in rows
    ]
    pivots = _rref(sparse, n)

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


def echelon_rank_kernel(rows, n: int) -> tuple[int, list[list[Scalar]]]:
    """Rank and the kernel basis with a 1 in each free column, in column
    order, of the matrix with n columns given by sparse rows of (col, value)
    pairs; the rows are read, never mutated."""
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
