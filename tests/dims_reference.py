"""The cohomology_dims that the shared row store replaced, kept as the
reference, with the dense-input rank_kernel it called, the atom_rows
that pulled every output tuple through every atom, before rows were built
from pullback tables, and the applier apply_rows that summed Scalars,
before rows were applied on integer vectors in Z[zeta_N].

Each call rebuilds its b and lambda - id rows from the atoms; a twisted
call wraps every atom with twist.conjugator, so each entry is pulled
through P and P^{-1}; rows are expanded to dense Scalar/Unit rows; and the
hc rank is the rank of the b-images of a kernel basis of lambda - id.
"""

from functools import lru_cache

from quasicyc.cyclic import (
    b_atoms as plain_b_atoms,
    full_tuples,
    identity_pull,
    lambda_pull,
    space_dim,
)
from quasicyc.linalg import LaurentScalars
from quasicyc.scalars import LAURENT, RingMismatch, Scalar, Unit


@lru_cache(maxsize=None)
def _places(group) -> dict:
    return {g: i for i, g in enumerate(group.elements())}


def _index(group, tail) -> int:
    """Vector index of a support tuple's tail (g1..gk): its digits in base
    |G|, each element's place in group.elements()."""
    pos = _places(group)
    out = 0
    for g in tail:
        out = out * len(pos) + pos[g]
    return out


def atom_rows(group, atoms, out_degree):
    """Yield the sparse row [(col, coeff)] of the sum of the (coeff, pulls)
    atoms at each output tuple, in vector order, each atom's tuple of
    pulls applied pull by pull, outermost first; +1/-1 as ints, other
    values as they come."""
    for full in full_tuples(group, out_degree):
        row = []
        for coeff, pulls in atoms:
            t_in, c = full, Unit.one()
            for pull in pulls:
                t_in, ci = pull(t_in)
                c = c * ci
            v = c if coeff == 1 else coeff * c
            if v == 1:
                row.append((_index(group, t_in[1:]), 1))
            elif v == -1:
                row.append((_index(group, t_in[1:]), -1))
            else:
                row.append((_index(group, t_in[1:]), v))
        yield row


def apply_rows(rows, vec, zero):
    """Apply sparse rows to a vector of ints or Scalars; each output entry
    starts from zero.  Under +-1 rows an int vector stays an int vector."""
    out = []
    for row in rows:
        acc = zero
        for col, c in row:
            x = vec[col]
            if not x:
                continue
            if c == 1:
                acc = acc + x
            elif c == -1:
                acc = acc - x
            else:
                acc = acc + c * x
        out.append(acc)
    return out


def _check_field(rows):
    orders = set()
    for row in rows:
        for x in row:
            unit = x.__class__ is Unit
            if not unit and not isinstance(x, Scalar):
                raise TypeError(f"matrix entries must be Scalars or Units, got {type(x).__name__}")
            if x.b if unit else x.tag == LAURENT:
                raise LaurentScalars("matrix entries must be rational or cyclotomic")
            if x.n > 1:
                orders.add(x.n)
    if len(orders) > 1:
        a, b = sorted(orders)[:2]
        raise RingMismatch(f"cannot combine Q(zeta_{a}) with Q(zeta_{b})")


def _echelon(rows, n: int) -> dict:
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


def rank_kernel(rows):
    """Rank and kernel basis of a dense matrix of Scalars and Units: the
    unit-pivot echelon form on dense input."""
    _check_field(rows)
    m = len(rows)
    n = len(rows[0]) if m else 0
    if any(len(r) != n for r in rows):
        raise ValueError("ragged matrix")
    pivots = _echelon([{j: x for j, x in enumerate(r) if x} for r in rows], n)

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


def dense(rows, dim):
    """Dense rows: +-1 become Units, a repeated column sums."""
    zero = Scalar.zero()
    units = {1: Unit.one(), -1: Unit(-1)}
    out = []
    for row in rows:
        d = [zero] * dim
        for col, c in row:
            c = units[c] if c.__class__ is int else c
            d[col] = c if d[col] is zero else d[col] + c
        out.append(d)
    return out


def b_atoms(group, chi, k, wrap=None):
    """cyclic.b_atoms with each primitive pull wrapped, as the reference
    built them."""
    atoms = plain_b_atoms(group, chi, k)
    return atoms if wrap is None else [(c, tuple(map(wrap, pulls))) for c, pulls in atoms]


def lambda_minus_id_atoms(group, chi, k, wrap=None):
    lam = lambda_pull(group, chi, k)
    ident = identity_pull
    if wrap is not None:
        lam = wrap(lam)
        ident = wrap(ident)
    return [(1, (lam,)), (-1, (ident,))]


def cohomology_dims(group, chi, degree_max, which, twist=None):
    chi = group.check_weight(chi)
    wrap = None
    if twist is not None:
        from quasicyc.twist import conjugator

        wrap = conjugator(twist)

    def b_rows(k):
        return atom_rows(group, b_atoms(group, chi, k, wrap), k + 1)

    out = []
    prev_rank = 0
    for k in range(degree_max + 1):
        dim_k = space_dim(group, k)
        if which == "hh":
            dim_c = dim_k
            rank_out, _ = rank_kernel(dense(b_rows(k), dim_k))
        else:
            lam = atom_rows(group, lambda_minus_id_atoms(group, chi, k, wrap), k)
            _, inv_basis = rank_kernel(dense(lam, dim_k))
            dim_c = len(inv_basis)
            rank_out = 0
            if dim_c:
                rows = list(b_rows(k))
                images = [apply_rows(rows, v, Scalar.zero()) for v in inv_basis]
                rank_out, _ = rank_kernel([list(r) for r in zip(*images)])
        out.append({
            "degree": k,
            "dim_C": dim_c,
            "rank_b_in": prev_rank,
            "rank_b_out": rank_out,
            "dim": (dim_c - rank_out) - prev_rank,
        })
        prev_rank = rank_out
    return out


def cyclic_cocycle_basis(group, chi, degree):
    """Kernel basis of the stacked (lambda - id, b) map on C^degree."""
    chi = group.check_weight(chi)
    dim = space_dim(group, degree)
    lam_rows = dense(atom_rows(group, lambda_minus_id_atoms(group, chi, degree), degree), dim)
    b_rows = dense(atom_rows(group, b_atoms(group, chi, degree), degree + 1), dim)
    return rank_kernel(lam_rows + b_rows)[1]


def conjugated_rows(group, chi, F, op, k):
    """Rows of P op P^{-1} on C^k for op in b, lambda, lambda_minus_id,
    built by wrapping every atom with twist.conjugator."""
    from quasicyc.twist import conjugator

    wrap = conjugator(F)
    if op == "b":
        return list(atom_rows(group, b_atoms(group, chi, k, wrap), k + 1))
    if op == "lambda":
        return list(atom_rows(group, [(1, (wrap(lambda_pull(group, chi, k)),))], k))
    return list(atom_rows(group, lambda_minus_id_atoms(group, chi, k, wrap), k))
