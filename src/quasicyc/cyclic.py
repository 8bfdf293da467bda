"""Cyclic cochains on a finite abelian group and the full operator suite.

A degree-k cochain is a map on (k+1)-tuples supported on g0...gk = e, so it
is stored densely over the (g1..gk) index (g0 is determined), dimension
|G|^k.  The grading character chi enters the top coface and the cyclic
operator:

    (d_i phi)(g0..g_{k+1}) = phi(.., g_i g_{i+1}, ..)            i <= k
    (d_{k+1} phi)(g0..g_{k+1}) = chi(g_{k+1}) phi(g_{k+1} g0, g1, .., g_k)
    (lambda phi)(g0..g_k) = (-1)^k chi(g_k) phi(g_k, g0, .., g_{k-1})
    (s_i phi)(g0..g_k) = phi(g0, .., g_i, e, g_{i+1}, .., g_k)

Every operator here is a sum of one-point pullbacks: a map sending the full
output tuple to one input tuple and a unit coefficient, a `scalars.Unit`
(the characters' values, and under a twist the transport prefactors), so
composing pullbacks adds exponents.  On a finite group a pullback is a
fixed map between the support tuples of two degrees: pull_table writes it
as a table, the full_tuples index of the pulled tuple and the coefficient
at each output tuple.  A composite pullback is plain data, the tuple of
its primitive pulls, outermost first (the empty tuple is the identity),
and an atom is a (coefficient, composite) pair.  A primitive's table is
built by pulling each tuple once, and a composite's table is its
primitives' tables composed by indexing.  Operator identities are checked
pointwise on pullbacks, which is equivalent to checking them against
every cochain and much cheaper: on a finite group identity_suite compares
the two sides' composite tables; on a group with a free part it folds
each side's primitives at every sampled tuple, each evaluated at most
once per tuple in a call, from a memo keyed by (kind, degree, index) that
it drops on return.  Operators act on vectors only as row sets in
linalg's integer form (a unit +-zeta_N^a as its code in Z/2N), written by
OperatorCache.atom_rows from the atoms' tables and applied by the one
applier apply_rows (linalg's).  An operator identity on a finite group is
decided exactly, for every cochain, as a signed sum of composites of
stored row sets by linalg.composite_witness, on integer root-of-unity
counts; operator_counterexample names the support tuples of the first
coefficient that does not cancel.  mixed_complex_report decides
the mixed-complex laws that way, and twist.verify_transport the
intertwining b^F T = T b on the twisted b rows that cohomology_dims
reads.  lambda^{k+1} = id is decided by identity_suite.

Stored rows live in one store per (group, chi, twist), an OperatorCache
from operators(), one lru_cache of plain and twisted stores bounded at
two, so the hh and hc dims of one family, plain and twisted, build each
row once.  cohomology_dims, cyclic_cocycle_basis, mixed_complex_report,
periodicity_report and the apply_b/lambda/N/B/S functions read it.  A
store fixes its field Q(zeta_N) from chi's table and the twist's values
when it builds its first row set (never, on a group with a free part), and
checks each row set once, there.  A plain store keeps the tables of its
primitive pulls, which identity_suite reads too; a twisted store keeps the
twist's TransportPrefactor, and its rows are P X P^{-1}, the plain rows
scaled by P and P^{-1}, codes added where P is a unit.  The hc rank of b on
the lambda-invariant part is rank[lambda - id; b] - rank(lambda - id).

The extra degeneracy is s_{-1} = (-1)^n s_0 lambda^{-1} and the
mixed-complex operators are

    b = sum_i (-1)^i d_i      N = sum_{i=0}^k lambda^i
    B = (-1)^n N (s_{-1} - s_n)   with n = k-1 on degree-k input
    S = (-1/(n(n+1))) sum_{1<=i<=j<=n} (-1)^{i+j} d_{i-1} d_{j-1},
        n = input degree + 1

B^2 = 0 forces the relative sign inside B (bB + Bb = 0 holds with either):
a plus breaks B^2 from degree 3 on Z3, Z4 and on Z2 or Z2^2 with nontrivial
chi, but only from degree 4 on Z2 with trivial chi, and not through degree
3 on Z2^2 with trivial chi, so a low-degree report may not tell them apart.
b, B and N are validated through those identities and N(lambda - id) = 0
rather than through any chain-level picture.
"""

from __future__ import annotations

import itertools
import random
from functools import lru_cache

from .cochains import LawReport
from .groups import GroupSpec, InfiniteGroup, SpecMismatch
from .linalg import apply_rows, composite_witness, conjugated, entry, field_order
from .linalg import rank, rank_kernel, table_rows
from .scalars import Scalar, Unit


class IndexOutOfRange(ValueError):
    """Face or degeneracy index outside the valid range for the degree."""


class DegreeTooLow(ValueError):
    """Operator needs a positive-degree cochain, or a report a degree_max
    >= 0: below degree 0 it would pass over zero cases."""


def _check_degree_max(degree_max: int) -> None:
    if degree_max < 0:
        raise DegreeTooLow(f"degree_max must be >= 0, got {degree_max}")


@lru_cache(maxsize=None)
def _els(group: GroupSpec) -> tuple:
    return tuple(group.elements())


class _LazyMul:
    """Products on a group with a free part, computed per lookup."""

    __slots__ = ("_group",)

    def __init__(self, group):
        self._group = group

    def __getitem__(self, key):
        return self._group.mul(*key)


# chi reads only the torsion coordinates, so its table is keyed by them on
# every group: the elements themselves on a finite group, one entry on Z^s;
# the top face and lambda look up cv[g[:ntor]] on reduced tuples.  Products
# stay an eager table on a finite group (GroupSpec.mul in its place raised
# the certs workload's median latency by 27%) and are computed per lookup
# on a free one, so these process-wide caches stay bounded.
@lru_cache(maxsize=None)
def _chi_table(group: GroupSpec, weight: tuple) -> dict:
    free = (0,) * group.free_rank
    return {
        tor: group.char_eval(weight, tor + free)
        for tor in itertools.product(*(range(m) for m in group.cyclic_orders))
    }


@lru_cache(maxsize=None)
def _mul_table(group: GroupSpec):
    if group.free_rank:
        return _LazyMul(group)
    els = _els(group)
    return {(a, b): group.mul(a, b) for a in els for b in els}


# the most entries a cochain file may give its vector (|G|^degree) or its
# product table (|G|^2), and the largest space a CLI --degree-max may need
# on a finite group: Z2^3 at degree 6, about 70 MB once read
MAX_FILE_DIM = 1 << 18


def space_dim(group: GroupSpec, degree: int) -> int:
    return len(_els(group)) ** degree


@lru_cache(maxsize=128)
def full_tuples(group: GroupSpec, degree: int) -> tuple:
    """All support tuples (g0, g1..gk) in vector order, the tails (g1..gk)
    in itertools.product order over the elements, g0 determined."""
    mul, e = _mul_table(group), group.identity()
    out = []
    for tail in itertools.product(_els(group), repeat=degree):
        g = e
        for h in tail:
            g = mul[g, h]
        out.append((group.inv(g),) + tail)
    return tuple(out)


@lru_cache(maxsize=128)
def _positions(group: GroupSpec, degree: int) -> dict:
    """Support tuple of the degree -> its index in full_tuples order."""
    return {t: i for i, t in enumerate(full_tuples(group, degree))}


class CyclicCochain:
    __slots__ = ("group", "chi", "degree", "vec")

    def __init__(self, group: GroupSpec, chi, degree: int, vec):
        if group.free_rank:
            raise InfiniteGroup("cyclic cochains need a finite group")
        if degree < 0:
            raise ValueError("degree must be >= 0")
        self.group = group
        self.chi = group.check_weight(chi)
        self.degree = degree
        self.vec = list(vec)
        if len(self.vec) != space_dim(group, degree):
            raise ValueError(
                f"vector has {len(self.vec)} entries, space dimension is "
                f"{space_dim(group, degree)}"
            )

    @classmethod
    def zero(cls, group, chi, degree) -> "CyclicCochain":
        return cls(group, chi, degree, [Scalar.zero()] * space_dim(group, degree))

    @classmethod
    def basis(cls, group, chi, degree, idx: int) -> "CyclicCochain":
        vec = [Scalar.zero()] * space_dim(group, degree)
        vec[idx] = Scalar.one()
        return cls(group, chi, degree, vec)

    def value(self, gs) -> Scalar:
        gs = tuple(self.group.reduce(g) for g in gs)
        if len(gs) != self.degree + 1:
            raise ValueError(
                f"need {self.degree + 1} elements for a degree-{self.degree} cochain"
            )
        idx = _positions(self.group, self.degree).get(gs)
        return Scalar.zero() if idx is None else self.vec[idx]

    def is_zero(self) -> bool:
        return all(v.is_zero() for v in self.vec)

    def __add__(self, other: "CyclicCochain") -> "CyclicCochain":
        self._check(other)
        return CyclicCochain(
            self.group, self.chi, self.degree,
            [a + b for a, b in zip(self.vec, other.vec)],
        )

    def __sub__(self, other: "CyclicCochain") -> "CyclicCochain":
        self._check(other)
        return CyclicCochain(
            self.group, self.chi, self.degree,
            [a - b for a, b in zip(self.vec, other.vec)],
        )

    def __rmul__(self, scalar) -> "CyclicCochain":
        scalar = Scalar._coerce_operand(scalar)
        if scalar is None:
            return NotImplemented
        return CyclicCochain(
            self.group, self.chi, self.degree, [scalar * v for v in self.vec]
        )

    def __neg__(self):
        return (-1) * self

    def __eq__(self, other):
        return (
            isinstance(other, CyclicCochain)
            and self.group == other.group
            and self.chi == other.chi
            and self.degree == other.degree
            and self.vec == other.vec
        )

    def _check(self, other):
        if (self.group, self.chi, self.degree) != (other.group, other.chi, other.degree):
            raise ValueError("cochains live in different spaces")

    def to_json(self) -> dict:
        entries = [
            [[list(g) for g in full[1:]], v.to_text()]
            for full, v in zip(full_tuples(self.group, self.degree), self.vec)
            if not v.is_zero()
        ]
        return {
            "group": {
                "cyclic_orders": list(self.group.cyclic_orders),
                "free_rank": self.group.free_rank,
            },
            "chi": list(self.chi),
            "degree": self.degree,
            "entries": entries,
        }

    @classmethod
    def from_json(cls, data: dict) -> "CyclicCochain":
        """The cochain of a to_json object.  A missing or mistyped field, a
        tail of the wrong length, a scalar that does not parse, a repeated
        support tuple or a space beyond MAX_FILE_DIM raises a ValueError
        naming the field."""
        from .presets import FieldError, _field, _int_list, _scalar, _typed

        if not isinstance(data, dict):
            raise ValueError(f"a cochain must be a JSON object, got {type(data).__name__}")
        try:
            grp = _field(data, "group", dict)
            group = GroupSpec(
                _int_list(_field(grp, "group.cyclic_orders", list), "group.cyclic_orders"),
                _field(grp, "group.free_rank", int, 0),
            )
            degree = _field(data, "degree", int)
            if degree < 0:
                raise FieldError(f"field 'degree' must be >= 0, got {degree}")
            n = group.order()  # before any allocation; |G| >= 2 caps the exponent
            if n and n ** min(max(degree, 2), MAX_FILE_DIM.bit_length()) > MAX_FILE_DIM:
                raise FieldError(f"field 'degree' {degree} on a group of order {n} "
                                 f"exceeds |G|^max(degree, 2) <= {MAX_FILE_DIM}")
            phi = cls.zero(group, _int_list(_field(data, "chi", list), "chi"), degree)
            pos, seen = _positions(group, degree), {}
            for i, entry in enumerate(_field(data, "entries", list)):
                path = f"entries[{i}]"
                if len(_typed(entry, path, list)) != 2:
                    raise FieldError(f"field {path!r} must be a [tail, scalar] pair")
                tail = []
                for j, g in enumerate(_typed(entry[0], f"{path}[0]", list)):
                    g = _int_list(g, f"{path}[0][{j}]")
                    if len(g) != group.rank:
                        raise FieldError(
                            f"field '{path}[0][{j}]' must have {group.rank} coordinates"
                        )
                    tail.append(group.reduce(g))
                if len(tail) != degree:
                    raise FieldError(f"field '{path}[0]' must list {degree} elements")
                idx = pos[(group.inv(group.mul_all(tail)),) + tuple(tail)]
                if idx in seen:
                    raise FieldError(f"field {path!r} repeats the tuple of entries[{seen[idx]}]")
                seen[idx] = i
                phi.vec[idx] = _scalar(entry[1], f"{path}[1]")
        except FieldError as exc:
            raise FieldError(f"cochain {exc}") from None
        return phi


# ---------------------------------------------------------------------------
# one-point pullbacks

_ONE = Unit.one()


def identity_pull(t):
    return t, _ONE


# The primitive pulls are shared per arguments, so a store's tables, keyed
# by pull, build each primitive's table once.
@lru_cache(maxsize=None)
def face_pull(group: GroupSpec, chi, k: int, i: int):
    """Pullback of d_i: C^k -> C^{k+1}; argument is the full output tuple."""
    if not 0 <= i <= k + 1:
        raise IndexOutOfRange(f"face index {i} not in 0..{k + 1}")
    mul = _mul_table(group)
    if i <= k:
        def pull(t):
            return t[:i] + (mul[t[i], t[i + 1]],) + t[i + 2:], _ONE
    else:
        cv, ntor = _chi_table(group, chi), group.torsion_rank

        def pull(t):
            return (mul[t[k + 1], t[0]],) + t[1:k + 1], cv[t[k + 1][:ntor]]
    return pull


@lru_cache(maxsize=None)
def degeneracy_pull(group: GroupSpec, k: int, i: int):
    """Pullback of s_i: C^{k+1} -> C^k; argument is the full output tuple."""
    if not 0 <= i <= k:
        raise IndexOutOfRange(f"degeneracy index {i} not in 0..{k}")
    e = group.identity()

    def pull(t):
        return t[:i + 1] + (e,) + t[i + 1:], _ONE

    return pull


@lru_cache(maxsize=None)
def lambda_pull(group: GroupSpec, chi, k: int):
    """Pullback of the signed cyclic operator on C^k: the sign (-1)^k is
    read from a negated copy of the character table for odd k."""
    cv = _chi_table(group, chi)
    if k % 2:
        cv = {g: -c for g, c in cv.items()}
    ntor = group.torsion_rank

    def pull(t):
        return (t[k],) + t[:k], cv[t[k][:ntor]]
    return pull


def lambda_power_pull(group, chi, k, j):
    return (lambda_pull(group, chi, k),) * j


# ---------------------------------------------------------------------------
# pullback tables on a finite group
#
# A table (idx, coef, in_degree) lists, for each support tuple of the output
# degree in full_tuples order, the full_tuples index of its pulled tuple in
# C^in_degree and the coefficient, _ONE where the coefficient is 1.

def _pulled_table(group, pull, out_degree):
    """Table of a pull, each support tuple pulled once."""
    pulled = [pull(t) for t in full_tuples(group, out_degree)]
    in_degree = len(pulled[0][0]) - 1
    pos = _positions(group, in_degree)
    return tuple([pos[t] for t, _ in pulled]), tuple([c for _, c in pulled]), in_degree


def _compose_tables(outer, inner):
    """Table of the composite pull: outer's pull, then inner's."""
    o_idx, o_coef, _ = outer
    i_idx, i_coef, in_degree = inner
    # tested here, not left to the product: 2-7% of a cold certs round (in-process A/B)
    coef = tuple([
        d if c is _ONE else c if d is _ONE else c * d
        for c, d in zip(o_coef, map(i_coef.__getitem__, o_idx))
    ])
    return tuple(map(i_idx.__getitem__, o_idx)), coef, in_degree


def pull_table(group, pulls, out_degree, memo):
    """Table on C^out_degree of the composite pulls, a tuple of primitive
    pulls read outermost first: their tables composed by indexing, the
    empty tuple being identity_pull's table; each primitive's table is
    built once per memo, keyed by (pull, out_degree)."""
    table = None
    for prim in pulls or (identity_pull,):
        key = (prim, out_degree if table is None else table[2])
        part = memo.get(key)
        if part is None:
            part = memo[key] = _pulled_table(group, *key)
        table = part if table is None else _compose_tables(table, part)
    return table


# ---------------------------------------------------------------------------
# operator application

def _apply_atoms(phi: CyclicCochain, atoms, out_degree: int) -> CyclicCochain:
    """Sum of coeff * (pullback phi) over atoms, as a new cochain."""
    rows = operators(phi.group, phi.chi).atom_rows(atoms, out_degree, phi.degree)
    vec = apply_rows(rows, phi.vec, Scalar.zero())
    return CyclicCochain(phi.group, phi.chi, out_degree, vec)


def apply_face(phi: CyclicCochain, i: int) -> CyclicCochain:
    pull = face_pull(phi.group, phi.chi, phi.degree, i)
    return _apply_atoms(phi, [(1, (pull,))], phi.degree + 1)


def apply_degeneracy(phi: CyclicCochain, i: int) -> CyclicCochain:
    if phi.degree < 1:
        raise DegreeTooLow("degeneracy needs degree >= 1")
    pull = degeneracy_pull(phi.group, phi.degree - 1, i)
    return _apply_atoms(phi, [(1, (pull,))], phi.degree - 1)


def _apply_stored(phi: CyclicCochain, op: str, twist=None) -> CyclicCochain:
    """op, conjugated by twist if given, applied to phi through the store."""
    rows = operators(phi.group, phi.chi, twist).rows(op, phi.degree)
    vec = apply_rows(rows, phi.vec, Scalar.zero())
    return CyclicCochain(phi.group, phi.chi, phi.degree + OperatorCache.OPS[op], vec)


def apply_lambda(phi: CyclicCochain) -> CyclicCochain:
    return _apply_stored(phi, "lambda")


def apply_extra_degeneracy(phi: CyclicCochain) -> CyclicCochain:
    """s_{-1} = (-1)^n s_0 lambda^{-1} on C^k, n = k-1: one atom, the sign
    its coefficient and lambda^{-1} = lambda^k."""
    k = phi.degree
    if k < 1:
        raise DegreeTooLow("extra degeneracy needs degree >= 1")
    pulls = (degeneracy_pull(phi.group, k - 1, 0),) + lambda_power_pull(phi.group, phi.chi, k, k)
    return _apply_atoms(phi, [((-1) ** (k - 1), pulls)], k - 1)


def b_atoms(group, chi, k: int):
    """Atoms of the Hochschild coboundary b: C^k -> C^{k+1}."""
    return [((-1) ** i, (face_pull(group, chi, k, i),)) for i in range(k + 2)]


def apply_b(phi: CyclicCochain) -> CyclicCochain:
    return _apply_stored(phi, "b")


def n_atoms(group, chi, k: int):
    return [(1, lambda_power_pull(group, chi, k, i)) for i in range(k + 1)]


def apply_N(phi: CyclicCochain) -> CyclicCochain:
    return _apply_stored(phi, "N")


def B_atoms(group, chi, k: int):
    """Atoms of B: C^k -> C^{k-1}; the (-1)^n prefactor cancels against the
    one inside s_{-1}, leaving lambda^i s_0 lambda^{-1} - (-1)^n lambda^i s_n."""
    n = k - 1
    sign_n = -1 if n % 2 else 1
    out = []
    for i in range(n + 1):
        lam_i = lambda_power_pull(group, chi, n, i)
        s_0 = (degeneracy_pull(group, n, 0),) + lambda_power_pull(group, chi, k, k)
        out += [(1, lam_i + s_0), (-sign_n, lam_i + (degeneracy_pull(group, n, n),))]
    return out


def apply_B(phi: CyclicCochain) -> CyclicCochain:
    if phi.degree < 1:
        raise DegreeTooLow("B needs degree >= 1")
    return _apply_stored(phi, "B")


def s_atoms(group, chi, m: int):
    """Atoms of the periodicity operator S: C^m -> C^{m+2}, n = m + 1.
    The -1/(n(n+1)) factor is applied by apply_S, not stored in the atoms
    or in the rows."""
    n = m + 1
    out = []
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            pulls = (face_pull(group, chi, m + 1, i - 1), face_pull(group, chi, m, j - 1))
            out.append(((-1) ** (i + j), pulls))
    return out


def apply_S(phi: CyclicCochain) -> CyclicCochain:
    n = phi.degree + 1
    return Scalar.rational(-1, n * (n + 1)) * _apply_stored(phi, "S")


def operator_counterexample(group, in_degree, out_degree, terms):
    """None when the operator C^in_degree -> C^out_degree that terms
    compose (linalg.composite_witness's (sign, outer, inner) triples) is
    zero, else "degree k output ... input ..." naming the support tuples
    of its first coefficient that did not cancel."""
    bad = composite_witness(terms)
    if bad is None:
        return None
    i, col = bad
    return (
        f"degree {in_degree} output {full_tuples(group, out_degree)[i]!r} "
        f"input {full_tuples(group, in_degree)[col]!r}"
    )


# ---------------------------------------------------------------------------
# the transport prefactor of a twist and the row store

def _check_same_group(F, group: GroupSpec):
    if F.group != group:
        raise SpecMismatch("cochain and twist live on different groups")


class TransportPrefactor:
    """Memoized evaluator of the left-to-right transport prefactor of a
    2-cochain F (see the twist module) and of its inverse, one memo each,
    and on a finite group its list over the support tuples of a degree,
    one per degree."""

    __slots__ = ("F", "_mul", "_memo", "_inverse", "_lists")

    def __init__(self, F):
        self.F = F
        self._mul = _mul_table(F.group)
        self._memo = {}
        self._inverse = {}
        self._lists = {}  # k -> values(k)

    def value(self, gs: tuple):
        """P at the tuple gs, its elements reduced."""
        return self._at(gs)

    def _at(self, gs: tuple):
        # P(g0, g1, ..) = F(g0, g1) P(g0g1, ..), recursing here rather than
        # through value, so that a traced value counts the caller's lookups
        out = self._memo.get(gs)
        if out is None:
            if len(gs) < 2:
                out = _ONE
            else:
                g0, g1 = gs[0], gs[1]
                out = self.F.value(g0, g1) * self._at((self._mul[g0, g1],) + gs[2:])
            self._memo[gs] = out
        return out

    def inverse_value(self, gs: tuple):
        out = self._inverse.get(gs)
        if out is None:
            out = self._inverse[gs] = self._at(gs).inverse()
        return out

    def values(self, k: int) -> list:
        """P at each support tuple of degree k, in full_tuples order."""
        out = self._lists.get(k)
        if out is None:
            out = self._lists[k] = [self.value(t) for t in full_tuples(self.F.group, k)]
        return out

    def wrap(self, pull):
        """pull conjugated by transport: the coefficient c of t -> t_in
        becomes P(t) c P^{-1}(t_in).  Coefficients telescope under
        composition, so wrapping each primitive conjugates the composite."""
        def wrapped(t):
            t_in, c = pull(t)
            return t_in, self.value(t) * c * self.inverse_value(t_in)

        return wrapped


class OperatorCache:
    """Rows of b, B, lambda, N, lambda - id and S (without its -1/(n(n+1))
    factor) per degree for one (group, chi) pair, or under a twist F of
    their conjugates P X P^{-1}, each a linalg.RowSet over Q(zeta_N) built
    on first use.  Plain rows come from the tables of the atoms'
    primitive pulls; twisted rows are the plain store's, conjugated.  OPS
    maps an operator to the degree shift of its output."""

    OPS = {"b": 1, "B": -1, "N": 0, "lambda": 0, "lambda_minus_id": 0, "S": 2}

    def __init__(self, group, chi, twist=None):
        self.group = group
        self.chi = group.check_weight(chi)
        self.prefactor = None if twist is None else TransportPrefactor(twist)
        self._rows = {}
        self.tables = {}  # pull_table's memo of primitive tables
        self._N = None
        self._entries = {}  # k -> P on C^k as linalg entries; ~k -> P^{-1}

    @property
    def N(self) -> int:
        """The order of the rows' field, 1 for Q, fixed on first use."""
        if self._N is None:  # _els raises on a free group before F is read
            values = list(_chi_table(self.group, self.chi).values())
            if self.prefactor is not None:
                value, els = self.prefactor.F.value, _els(self.group)
                values += [value(g, h) for g in els for h in els]
            self._N = field_order(values)
        return self._N

    def rows(self, op: str, degree: int):
        """Stored rows of op on C^degree, built on first use."""
        key = (op, degree)
        out = self._rows.get(key)
        if out is not None:
            return out
        grp, chi = self.group, self.chi
        if op not in self.OPS:
            raise ValueError(f"unknown operator {op!r}")
        out_degree = degree + self.OPS[op]
        if self.prefactor is not None:
            out = conjugated(operators(grp, chi).rows(op, degree), self._prefactor_entries(out_degree),
                             self._prefactor_entries(~degree), self.N)
        else:
            atoms = {"b": b_atoms, "B": B_atoms, "N": n_atoms, "lambda_minus_id": lambda_minus_id_atoms,
                     "S": s_atoms, "lambda": lambda_atoms}[op](grp, chi, degree)
            out = self.atom_rows(atoms, out_degree, degree)
        self._rows[key] = out
        return out

    def atom_rows(self, atoms, out_degree: int, in_degree: int):
        """The row set C^in_degree -> C^out_degree of the sum of the (sign,
        pulls) atoms, from their pull tables, each distinct coefficient of a
        table read once."""
        columns = []
        for sign, pulls in atoms:
            idx, coef, _ = pull_table(self.group, pulls, out_degree, self.tables)
            read = {k: entry(sign * c, self.N) for k, c in dict(zip(map(id, coef), coef)).items()}
            columns.append((idx, list(map(read.__getitem__, map(id, coef)))))
        return table_rows(columns, self.N, space_dim(self.group, in_degree))

    def _prefactor_entries(self, k: int) -> list:
        """P at the support tuples of degree k, in full_tuples order, as
        linalg entries over the store's field; for ~k, P^{-1}."""
        out = self._entries.get(k)
        if out is None:
            values = self.prefactor.values(k if k >= 0 else ~k)
            out = self._entries[k] = [entry(p if k >= 0 else p.inverse(), self.N) for p in values]
        return out


def operators(group: GroupSpec, chi, twist=None) -> OperatorCache:
    """The shared row store of (group, chi), or under twist, a 2-cochain on
    group, of its conjugate by the twist's prefactor.  chi is normalized by
    check_weight and the key passed on positionally, so every call form of
    one (group, chi, twist) reaches one store.

    Plain and twisted stores share one cache of the two most recent: a dims
    family reads its plain store and its twisted one back to back (hh and hc,
    plain and twisted, then periodicity on the plain one), and a twist
    certificate the same two.  A third entry serves only a certs job that
    returns to a store two others have evicted, and adds resident rows."""
    chi = group.check_weight(chi)
    if twist is not None:
        _check_same_group(twist, group)
    return _operator_store(group, chi, twist)


@lru_cache(maxsize=2)
def _operator_store(group: GroupSpec, chi: tuple, twist) -> OperatorCache:
    return OperatorCache(group, chi, twist)


def mixed_complex_report(
    group: GroupSpec, chi, degree_max: int, count: int = 50, seed: int = 0
) -> list[LawReport]:
    """b^2 = 0, B^2 = 0, bB + Bb = 0 and N(lambda - id) = 0 on C^k for
    k <= degree_max, decided exactly by operator_counterexample on signed
    sums of composites of the stored rows, b^2 as [(1, b_{k+1}, b_k)] and
    N(lambda - id) as [(1, N, lambda), (-1, N, None)], so a pass holds for
    every cochain.  A failure names the degree and the output and input
    support tuples of a coefficient that did not cancel.  lambda^(k+1) = id
    is identity_suite's lambda_order.  count and seed are not read; they
    remain so that callers passing them still work.
    """
    _check_degree_max(degree_max)
    rows = operators(group, chi).rows
    domain = f"exact: every cochain, degrees <= {degree_max}"
    fails = {}

    def check(law, k, out_degree, *terms):
        bad = operator_counterexample(group, k, out_degree, terms)
        if bad is not None:
            fails.setdefault(law, bad)

    for k in range(degree_max + 1):
        check("b_squared", k, k + 2, (1, rows("b", k + 1), rows("b", k)))
        check("N_lambda", k, k, (1, rows("N", k), rows("lambda", k)), (-1, rows("N", k), None))
        if k >= 1:
            check("bB_plus_Bb", k, k, (1, rows("b", k - 1), rows("B", k)),
                  (1, rows("B", k + 1), rows("b", k)))
        if k >= 2:
            check("B_squared", k, k - 2, (1, rows("B", k - 1), rows("B", k)))

    return [
        LawReport(law, domain, law not in fails, fails.get(law))
        for law in ("b_squared", "B_squared", "bB_plus_Bb", "N_lambda")
    ]


def cyclic_cocycle_basis(group: GroupSpec, chi, degree: int):
    """Kernel basis of the stacked (lambda - id, b) map on C^degree, as
    scalar vectors."""
    rows = operators(group, chi).rows
    stacked = rows("lambda_minus_id", degree) + rows("b", degree)
    return rank_kernel(stacked)[1]


def periodicity_report(
    group: GroupSpec, chi, degree_max: int
) -> list[LawReport]:
    """S maps lambda-invariant b-cocycles to lambda-invariant b-cocycles,
    checked on a kernel basis per degree; the domain names how many basis
    vectors each degree has, so a degree with none shows as 0.  S is applied
    from its stored rows without apply_S's factor -1/(n(n+1)): a nonzero
    scalar multiple of a vector is lambda-invariant and b-closed exactly
    when the vector is."""
    _check_degree_max(degree_max)
    chi = group.check_weight(chi)
    bases = [cyclic_cocycle_basis(group, chi, m) for m in range(degree_max + 1)]
    domain = (
        f"cocycle bases, degrees <= {degree_max}: "
        f"{' + '.join(str(len(basis)) for basis in bases)} vectors"
    )
    for m, basis in enumerate(bases):
        for j, v in enumerate(basis):
            out = _apply_stored(CyclicCochain(group, chi, m, v), "S")
            if apply_lambda(out).vec != out.vec:
                return [LawReport(
                    "S_preserves_cocycles", domain, False,
                    f"degree {m} basis vector {j}: lambda invariance",
                )]
            if not apply_b(out).is_zero():
                return [LawReport(
                    "S_preserves_cocycles", domain, False,
                    f"degree {m} basis vector {j}: b closedness",
                )]
    return [LawReport("S_preserves_cocycles", domain, True)]


# ---------------------------------------------------------------------------
# pointwise identity suite

def sample_tuples(group: GroupSpec, degree: int, window, samples: int, seed) -> list:
    """Support tuples of the given degree for a pointwise check.

    A finite group gives every support tuple and ignores the window.  An
    infinite group gives the identity tuple plus `samples` tuples whose
    tails are drawn from window_elements(window), seeded by seed and degree.
    """
    if not group.free_rank:
        return list(full_tuples(group, degree))
    if window is None:
        raise InfiniteGroup("sampling an infinite group needs a window")
    wels = tuple(group.window_elements(window))
    rng = random.Random(f"{seed}:{degree}")
    out = [(group.identity(),) * (degree + 1)]
    for _ in range(samples):
        tail = tuple(rng.choice(wels) for _ in range(degree))
        out.append((group.inv(group.mul_all(tail)),) + tail)
    return out


def _fold(pulls, t):
    """The pulled tuple and coefficient of the composite pulls at t, the
    primitives applied outermost first."""
    c = _ONE
    for p in pulls:
        t, ci = p(t)
        c = c * ci
    return t, c


def _sides_equal(tuples, lhs, rhs):
    """The first of tuples at which the two signed composites differ, or
    None; both signs are +-1, as for _tables_differ."""
    (sign1, pulls1), (sign2, pulls2) = lhs, rhs
    for full in tuples:
        t1, c1 = _fold(pulls1, full)
        t2, c2 = _fold(pulls2, full)
        if t1 != t2 or c1 != (c2 if sign1 == sign2 else -c2):
            return full
    return None


def _tables_differ(group, out_degree, lhs, rhs, memo):
    """The first support tuple of out_degree at which the tables of the two
    signed composites differ, or None; memo as for pull_table."""
    (sign1, pulls1), (sign2, pulls2) = lhs, rhs
    idx1, coef1, _ = pull_table(group, pulls1, out_degree, memo)
    idx2, coef2, _ = pull_table(group, pulls2, out_degree, memo)
    if sign1 != sign2:  # both +-1: sign1 c1 == sign2 c2 iff c1 == -c2
        coef2 = tuple([-c for c in coef2])
    if idx1 == idx2 and coef1 == coef2:
        return None
    tuples = full_tuples(group, out_degree)
    for j, (i1, c1, i2, c2) in enumerate(zip(idx1, coef1, idx2, coef2)):
        if i1 != i2 or c1 != c2:
            return tuples[j]


def _memoized(pull):
    """pull evaluated at most once per tuple, for as long as the returned
    pull lives."""
    seen = {}

    def at(t):
        out = seen.get(t)
        if out is None:
            out = seen[t] = pull(t)
        return out

    return at


def identity_suite(
    group: GroupSpec,
    chi,
    degree_max: int,
    wrap=None,
    window: int | None = None,
    samples: int = 40,
    seed: int = 0,
) -> list[LawReport]:
    """Check the six cocyclic identity families pointwise on pullbacks.

    wrap(pull) -> pull conjugates each primitive pull, of which the two
    sides' tuples are made; used by the twist module to run the same
    suite on the twisted operators.
    The tuples are those of sample_tuples: every support tuple on a finite
    group, the identity tuple plus `samples` seeded tuples from the window
    on an infinite one.  Each face, degeneracy and lambda atom is built
    and wrapped once per call.  On a finite group a case compares the
    tables of its two sides (pull_table), composed from the store's tables
    without a wrap, and from tables built per call under one, so each
    atom is pulled once per tuple.  On an infinite group each atom is
    memoized for the call, so it is evaluated at most once per sampled
    tuple.
    """
    _check_degree_max(degree_max)
    chi = group.check_weight(chi)
    if group.free_rank and window is None:
        raise InfiniteGroup("identity suite on an infinite group needs a window")
    domain = f"pointwise, degrees <= {degree_max}"
    if group.free_rank:
        domain += f", window({window}) x{samples}"
    pool = {}

    def tuples_for(out_degree):
        if out_degree not in pool:
            pool[out_degree] = sample_tuples(group, out_degree, window, samples, seed)
        return pool[out_degree]

    finite = not group.free_rank
    tables = operators(group, chi).tables if finite and wrap is None else {}
    atoms = {}  # (kind, degree, index) -> the atom, wrapped, memoized if infinite

    def atom(key, make, *args):
        out = atoms.get(key)
        if out is None:
            pull = make(*args) if wrap is None else wrap(make(*args))
            out = atoms[key] = pull if finite else _memoized(pull)
        return out

    def F(k, i):
        return atom(("d", k, i), face_pull, group, chi, k, i)

    def S_(k_out, i):
        return atom(("s", k_out, i), degeneracy_pull, group, k_out, i)

    def L(k):
        return atom(("lambda", k, 0), lambda_pull, group, chi, k)

    reports = []

    def check(name, cases):
        for out_degree, lhs, rhs in cases:
            if finite:
                bad = _tables_differ(group, out_degree, lhs, rhs, tables)
            else:
                bad = _sides_equal(tuples_for(out_degree), lhs, rhs)
            if bad is not None:
                reports.append(LawReport(name, domain, False, bad))
                return
        reports.append(LawReport(name, domain, True))

    # d_j d_i = d_i d_{j-1} for i < j
    cases = []
    for k in range(degree_max + 1):
        for j in range(1, k + 3):
            for i in range(min(j, k + 2)):
                cases.append(
                    (k + 2,
                     (1, (F(k + 1, j), F(k, i))),
                     (1, (F(k + 1, i), F(k, j - 1))))
                )
    check("face_face", cases)

    # s_j s_i = s_i s_{j+1} for i <= j
    cases = []
    for k in range(2, degree_max + 1):
        for j in range(k - 1):
            for i in range(j + 1):
                cases.append(
                    (k - 2,
                     (1, (S_(k - 2, j), S_(k - 1, i))),
                     (1, (S_(k - 2, i), S_(k - 1, j + 1))))
                )
    check("deg_deg", cases)

    # s_j d_i three-case identity
    cases = []
    for k in range(degree_max + 1):
        for i in range(k + 2):
            for j in range(k + 1):
                lhs = (1, (S_(k, j), F(k, i)))
                if i < j:
                    rhs = (1, (F(k - 1, i), S_(k - 1, j - 1)))
                elif i in (j, j + 1):
                    rhs = (1, ())
                else:
                    rhs = (1, (F(k - 1, i - 1), S_(k - 1, j)))
                cases.append((k, lhs, rhs))
    check("deg_face", cases)

    # lambda d_i = -d_{i-1} lambda (i >= 1); lambda d_0 = (-1)^{k+1} d_{k+1}
    cases = []
    for k in range(degree_max + 1):
        cases.append(
            (k + 1,
             (1, (L(k + 1), F(k, 0))),
             ((-1) ** (k + 1), (F(k, k + 1),)))
        )
        for i in range(1, k + 2):
            cases.append(
                (k + 1,
                 (1, (L(k + 1), F(k, i))),
                 (-1, (F(k, i - 1), L(k))))
            )
    check("lambda_face", cases)

    # lambda s_i = -s_{i-1} lambda (i >= 1); lambda s_0 = (-1)^{k-1} s_{k-1} lambda^2
    cases = []
    for k in range(1, degree_max + 1):
        cases.append(
            (k - 1,
             (1, (L(k - 1), S_(k - 1, 0))),
             ((-1) ** (k - 1), (S_(k - 1, k - 1), L(k), L(k))))
        )
        for i in range(1, k):
            cases.append(
                (k - 1,
                 (1, (L(k - 1), S_(k - 1, i))),
                 (-1, (S_(k - 1, i - 1), L(k))))
            )
    check("lambda_deg", cases)

    # lambda^{k+1} = id
    cases = []
    for k in range(degree_max + 1):
        cases.append((k, (1, (L(k),) * (k + 1)), (1, ())))
    check("lambda_order", cases)

    return reports


# ---------------------------------------------------------------------------
# cohomology dimensions

def lambda_atoms(group, chi, k):
    return [(1, (lambda_pull(group, chi, k),))]


def lambda_minus_id_atoms(group, chi, k):
    return [(1, (lambda_pull(group, chi, k),)), (-1, ())]


def cohomology_dims(
    group: GroupSpec,
    chi,
    degree_max: int,
    which: str,
    twist=None,
) -> list[dict]:
    """Exact braided Hochschild (hh) or cyclic (hc) cohomology dimensions.

    dim H^k = dim ker(b on C^k) - rank(b from C^{k-1}), with C^k replaced
    by its lambda-invariant part ker(lambda - id) for hc.  b restricted to
    that part has rank rank[lambda - id; b] - rank(lambda - id), the
    stacked rows less the invariance rows, so every rank is taken on
    stored sparse rows: b for hh, lambda - id and [lambda - id; b] for hc.
    Each is a linalg.rank, an elimination on integer vectors in Z[zeta_N]
    that forms no kernel vector and no Scalar.  twist conjugates b and
    lambda by the transport prefactor of the given 2-cochain: the rows of
    its twisted store, the plain rows scaled once per twist.
    """
    if which not in ("hh", "hc"):
        raise ValueError(f"unknown cohomology kind {which!r}")
    _check_degree_max(degree_max)
    if group.free_rank:
        raise InfiniteGroup("cohomology dimensions need a finite group")
    rows = operators(group, chi, twist).rows

    out = []
    prev_rank = 0
    for k in range(degree_max + 1):
        dim_k = space_dim(group, k)
        if which == "hh":
            dim_c = dim_k
            rank_out = rank(rows("b", k))
        else:
            lam = rows("lambda_minus_id", k)
            rank_lam = rank(lam)
            dim_c = dim_k - rank_lam
            rank_out = 0
            if dim_c:
                rank_out = rank(lam + rows("b", k)) - rank_lam
        out.append({
            "degree": k,
            "dim_C": dim_c,
            "rank_b_in": prev_rank,
            "rank_b_out": rank_out,
            "dim": (dim_c - rank_out) - prev_rank,
        })
        prev_rank = rank_out
    return out
