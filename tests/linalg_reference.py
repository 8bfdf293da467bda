"""The sparse Gauss-Jordan rank_kernel that the unit-pivot echelon form
replaced, kept as the reference: the pivot of a column is the first remaining
row that holds it, whatever its entry, each pivot costs one Scalar inverse,
and the pivot column is cleared from every row, earlier pivot rows included,
so the kernel is read off the reduced row echelon form.  It takes Scalars
only; Unit entries are converted before elimination.
"""

from quasicyc.scalars import Scalar, Unit


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
