"""The Unit-row readers that linalg's integer row form replaced, kept as
the reference, with the kernels that read them and the row builders of
the store before it.

Rows here are lists of (col, value) pairs: ints, `scalars.Unit`s or
Scalars of one field.  _field_order validates every entry of every block
on each call and finds N; _int_rows reads each entry into a power-basis
tuple for the elimination, _reader does so inside apply_rows, and
_monomials reads each entry as root-of-unity monomials for
composite_witness.  rank, rank_kernel, apply_rows and composite_witness
are the kernels as they read those rows, with the elimination _echelon on
tuples they ran.  atom_rows writes plain rows from the pull tables with
_row_coeff (+-1 as ints, other coefficients as Units), and conjugate
scales them by the transport prefactor, one Unit product per entry, as the
row store did; stored_rows gives the Unit rows the store held for one
operator.  pairs reads a linalg.RowSet back as (col, value) rows, for the
Scalar references of composite_reference.  tests/test_row_form.py checks
linalg's kernels on stored row sets against these.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import chain
from math import gcd, lcm
from operator import add, neg, sub

from quasicyc import cyclic
from quasicyc.cyclic import _ONE, pull_table
from quasicyc.linalg import LaurentScalars
from quasicyc.scalars import CYCLOTOMIC, LAURENT, RingMismatch, Scalar, Unit, _cyc_mul, _cyc_reduce, _cyc_value


def _field_order(*blocks) -> int:
    """Validate every (col, value) pair of the (rows, n) blocks, n bounding
    the columns of rows, before any arithmetic; return the order N of the
    one cyclotomic field the entries share, 1 for Q.

    Cyclotomic entries must share one order N: two different cyclotomic
    fields have no common ring here, whether or not their entries would
    ever meet during elimination."""
    orders = set()
    for rows, n in blocks:
        for j, x in chain.from_iterable(rows):
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
    N = _field_order((chain(rows, (enumerate(vec),)), len(vec)))
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


def _monomials(rows, N: int) -> list[list]:
    """Each row as (key, q) monomials q z^r at column col, key = col * N + r,
    z = zeta_2N and 0 <= r < N: an entry c z^e, e its code in Z/2N, is 0
    for an int c, 2a for a Unit c zeta_N^a (a = 0 in Q) and 2i for each
    power-basis monomial c zeta_N^i of a Scalar; z^e = -z^(e-N) for e >= N."""
    out = []
    for row in rows:
        mono = [(col * N, x) for col, x in row if x.__class__ is int]
        if len(mono) < len(row):
            for col, x in row:
                cls = x.__class__
                if cls is int:
                    continue
                if cls is Unit:
                    codes = ((2 * x.a, x.c),)
                elif x.tag == CYCLOTOMIC:
                    codes = [(2 * i, c) for i, c in enumerate(x.payload) if c]
                else:
                    codes = ((0, x.payload),)
                for e, c in codes:
                    mono.append((col * N + e - N, -c) if e >= N else (col * N + e, c))
        out.append(mono)
    return out


def composite_witness(terms, n: int):
    """Decide whether sum_t sign_t (outer_t after inner_t) is the zero
    operator on n input columns, exactly: None when it is, else (row, col),
    the first output row and in it the smallest input column whose
    coefficient did not cancel.

    terms are (sign, outer, inner) triples, sign +-1, outer's columns
    indexing inner's rows and inner None the identity.  N is read once by
    _field_order and every entry once by _monomials, so a product of
    monomials adds codes and multiplies counts, and a row's sum adds counts
    (ints on +-1 and +-zeta^a entries) in one dict keyed as _monomials
    keys.  Roots of unity cancel without equal codes (1 + zeta_3 + zeta_3^2
    = 0), so a column whose counts are not all zero is reduced modulo
    Phi_2N, and is zero only if nothing is left."""
    blocks = []
    for _, outer, inner in terms:
        blocks.append((outer, n if inner is None else len(inner)))
        if inner is not None:
            blocks.append((inner, n))
    N = _field_order(*blocks)
    read, tables = {}, {}
    for rows, _ in blocks:
        if id(rows) not in read:
            read[id(rows)] = _monomials(rows, N)
    for _, _, inner in terms:
        # inner's row j times z^r at index j * N + r, built when first asked for
        if inner is not None and id(inner) not in tables:
            table = tables[id(inner)] = [None] * (len(inner) * N)
            table[::N] = read[id(inner)]
    steps = [(sign, read[id(outer)], None if inner is None else tables[id(inner)])
             for sign, outer, inner in terms]
    for i in range(len(terms[0][1])):
        acc = {}
        get = acc.get
        for sign, outer, table in steps:
            for key, q in outer[i]:
                if sign < 0:
                    q = -q
                if table is None:
                    acc[key] = get(key, 0) + q
                    continue
                row = table[key]
                if row is None:
                    r = key % N
                    row = table[key] = [
                        (k + r, c) if k % N + r < N else (k + r - N, -c) for k, c in table[key - r]
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
    N = _field_order((rows, n))
    return len(_echelon(_int_rows(rows, N), N))


def rank_kernel(rows, n: int) -> tuple[int, list[list[Scalar]]]:
    """Rank and a kernel basis of the matrix with n columns given by sparse
    rows of (col, value) pairs; the rows are read, never mutated.

    Kernel vectors have a 1 in their free column, hold Scalars, and are
    returned in column order; rank + len(kernel) == n.
    """
    N = _field_order((rows, n))
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


def _row_coeff(coeff, c):
    if c is _ONE and coeff in (1, -1):
        return coeff
    v = c if coeff == 1 else coeff * c
    return 1 if v == 1 else -1 if v == -1 else v


def atom_rows(group, atoms, out_degree, memo=None):
    """The sparse rows [(col, coeff)] of the sum of the (coeff, pulls)
    atoms, one per output tuple in vector order, an entry per atom in atom
    order; coefficients +-1 as ints, the others as Units."""
    if memo is None:
        memo = {}
    columns = []
    for coeff, pulls in atoms:
        idx, coef, _ = pull_table(group, pulls, out_degree, memo)
        columns.append(zip(idx, [_row_coeff(coeff, c) for c in coef]))
    return [list(row) for row in zip(*columns)]


def conjugate(prefactor, rows, out_degree, in_degree):
    """Rows of P X P^{-1} from the rows of X: entry (col, c) of row r
    becomes P(out_r) c P^{-1}(in_col), one product per entry."""
    inv = [p.inverse() for p in prefactor.values(in_degree)]
    return [
        [(col, p * (c * inv[col])) for col, c in row]
        for p, row in zip(prefactor.values(out_degree), rows)
    ]


ATOMS = {
    "b": cyclic.b_atoms, "B": cyclic.B_atoms, "N": cyclic.n_atoms, "S": cyclic.s_atoms,
    "lambda_minus_id": cyclic.lambda_minus_id_atoms,
}


def stored_rows(group, chi, op, degree, twist=None):
    """The Unit rows the store held for op on C^degree: atom_rows of the
    store's atoms, conjugated under a twist."""
    chi = group.check_weight(chi)
    if op == "lambda":
        atoms = [(1, (cyclic.lambda_pull(group, chi, degree),))]
    else:
        atoms = ATOMS[op](group, chi, degree)
    out_degree = degree + cyclic.OperatorCache.OPS[op]
    rows = atom_rows(group, atoms, out_degree, {})
    if twist is None:
        return rows
    return conjugate(cyclic.TransportPrefactor(twist), rows, out_degree, degree)


def pairs(rows):
    """The (col, value) rows of a linalg.RowSet: a code e as the Unit
    z^e, z = zeta_2N (+zeta_N^(e/2) for even e, -zeta_N^((e-N)/2) for odd),
    a tuple as its Scalar, each divided by the row's denominator."""
    N = rows.N
    out = []
    for i, row in enumerate(rows):
        den = 1 if rows.dens is None else rows.dens[i]
        line = []
        for col, e in row.items():
            if e.__class__ is int:
                x = Unit(1, N, e // 2) if e % 2 == 0 else Unit(-1, N, (e - N) // 2)
            else:
                x = Scalar.cyclotomic(N, e)
            line.append((col, x if den == 1 else x * Fraction(1, den)))
        out.append(line)
    return out
