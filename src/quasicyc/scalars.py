"""Exact scalar arithmetic in the three coefficient rings of the kernel.

A Scalar is a tagged value in one of:

  * the rationals Q (arbitrary precision, lowest terms),
  * a cyclotomic field Q(zeta_N), stored on the power basis
    zeta^0 .. zeta^{phi(N)-1} fully reduced modulo the N-th cyclotomic
    polynomial, so equality is coefficient-wise; a nonzero a is inverted
    as a^-1 = c / Nm(a), c the product of its Galois conjugates
    sigma_k(a) (zeta -> zeta^k, 1 < k < N, gcd(k, N) = 1) and
    Nm(a) = a * c their rational norm,
  * the Laurent ring Q[q, q^-1] in one formal variable q (an integral
    domain, not a field; only monomials are invertible).

Rationals embed losslessly into the other two rings and auto-promote in
mixed arithmetic.  Values that are rational in content (a constant
cyclotomic payload, a bare q^0 Laurent term) normalize down to the
rational tag, so canonical form is unique across tags.  No floats.

Every coefficient (the rational payload itself, each power-basis
coordinate, each Laurent coefficient) is a Python int when it is integral
and otherwise a lowest-terms Fraction with denominator > 1; never a bool or
a float.  `_coef` enforces this wherever coefficients are produced.  The
kernel's values are products of roots of unity (characters, cochain values,
transport prefactors) with integer coordinates, so their arithmetic stays
in int operations.  The representation is still unique per value, and since
an integral Fraction compares and hashes equal to its int, equality,
hashing and the text form are those of an all-Fraction representation.
Division always goes through Fraction, so it stays exact.

A Unit is a unit monomial c * zeta_n^a * q^b: c a nonzero coefficient (an
int, or a Fraction only when needed), n >= 1, a mod n, b an integer.  Cochain
values, characters, transport prefactors and pull coefficients are Units, so
their products and inverses are additions of exponents.  Its form is
canonical: for even n the sign is folded in (zeta_n^(n/2) = -1), so
a < n/2; a = 0 means n = 1, the rational tag of a Scalar; a != 0 together
with b != 0 raises RingMismatch, as a Scalar product of the two rings does.
The unit one is one shared object, `Unit.one()`, by whatever path it forms
(a constructor, product, inverse, negation or unpickling).  Most products the
laws form have a factor one, so a product with it or with the int 1 returns
the other factor, and `==` answers an identical operand before any field.
A Unit equals, hashes and prints like the equal Scalar.  Scalars form only
where a sum does: + and - convert a Unit through `scalar()`, and
`Unit.times(x)` scales a Scalar x by a rational factor, a Laurent shift or a
power-basis rotation, without the general product.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd


class RingMismatch(TypeError):
    """Arithmetic between scalars of incompatible ring tags."""


class NonUnitLaurent(ArithmeticError):
    """Inverse of a Laurent element that is not a single monomial."""


RATIONAL = "rational"
CYCLOTOMIC = "cyclotomic"
LAURENT = "laurent"


# ---------------------------------------------------------------------------
# integer polynomial helpers (coefficient lists, low degree first)

def _divisors(n: int) -> list[int]:
    out = [d for d in range(1, n + 1) if n % d == 0]
    return out


def _int_poly_div_exact(num: list[int], den: list[int]) -> list[int]:
    # den is monic; division is exact by construction
    num = list(num)
    dn, dd = len(num) - 1, len(den) - 1
    quo = [0] * (dn - dd + 1)
    for k in range(dn - dd, -1, -1):
        c = num[k + dd]
        quo[k] = c
        if c:
            for i, dc in enumerate(den):
                num[k + i] -= c * dc
    assert all(c == 0 for c in num), "inexact cyclotomic division"
    return quo


@lru_cache(maxsize=None)
def cyclotomic_poly(N: int) -> tuple[int, ...]:
    """Coefficients of Phi_N, low degree first, monic of degree phi(N)."""
    if N < 1:
        raise ValueError("N must be >= 1")
    if N == 1:
        return (-1, 1)
    poly = [-1] + [0] * (N - 1) + [1]  # x^N - 1
    for d in _divisors(N):
        if d < N:
            poly = _int_poly_div_exact(poly, list(cyclotomic_poly(d)))
    return tuple(poly)


def _coef(x):
    """Canonical exact coefficient: an int when integral, else a lowest-terms
    Fraction with denominator > 1.  Rejects floats; bools become ints."""
    if type(x) is int:
        return x
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    if isinstance(x, int):
        return int(x)
    raise TypeError(f"not an exact coefficient: {x!r}")


def _div(a, b):
    # exact quotient; `a / b` on two ints would give a float
    return _coef(Fraction(a, b))


def _cyc_reduce(N: int, coeffs) -> tuple:
    """Reduce a coefficient list modulo Phi_N to degree < phi(N)."""
    phi = cyclotomic_poly(N)
    k = len(phi) - 1
    a = list(coeffs)
    for deg in range(len(a) - 1, k - 1, -1):
        c = a.pop()
        if c:
            for i in range(k):
                if phi[i]:
                    a[deg - k + i] -= c * phi[i]
    if len(a) < k:
        a.extend([0] * (k - len(a)))
    return tuple([c if type(c) is int else _coef(c) for c in a])


def _cyc_mul(N: int, a: tuple, b: tuple) -> tuple:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] += ai * bj
    return _cyc_reduce(N, out)


def _cyc_inverse(N: int, a: tuple) -> tuple:
    """Inverse modulo Phi_N through the Galois conjugates sigma_k: zeta ->
    zeta^k, gcd(k, N) = 1.  With c the product of sigma_k(a) over 1 < k < N,
    a * c is the norm of a, the product of all its conjugates: a rational,
    nonzero for a != 0 since Phi_N is irreducible.  So a^-1 = c / (a * c)_0."""
    if not any(a):
        raise ZeroDivisionError("scalar inverse of zero")
    conj = (1,)
    for k in range(2, N):
        if gcd(k, N) == 1:
            spread = [0] * N
            for i, x in enumerate(a):
                spread[i * k % N] += x
            conj = _cyc_mul(N, conj, _cyc_reduce(N, spread))
    norm = _cyc_mul(N, a, conj)[0]
    return tuple([_div(x, norm) for x in conj])


# ---------------------------------------------------------------------------

class Scalar:
    """Immutable exact scalar; see module docstring for the three rings."""

    __slots__ = ("tag", "n", "payload")

    def __init__(self, tag, n, payload, _raw=False):
        # not the public entry point; use the class-method constructors
        if not _raw:
            raise TypeError("use Scalar.rational / .cyclotomic / .laurent")
        object.__setattr__(self, "tag", tag)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "payload", payload)

    def __setattr__(self, *_):
        raise AttributeError("Scalar is immutable")

    def __reduce__(self):
        # the default slot restore would go through the blocked __setattr__
        return (Scalar, (self.tag, self.n, self.payload, True))

    # -- constructors -------------------------------------------------------

    @classmethod
    def rational(cls, p, q=1) -> "Scalar":
        return _make(RATIONAL, 0, _div(p, q) if q != 1 else _coef(p))

    @classmethod
    def zero(cls) -> "Scalar":
        return _ZERO

    @classmethod
    def one(cls) -> "Scalar":
        return _ONE

    @classmethod
    def cyclotomic(cls, N: int, coeffs) -> "Scalar":
        return _cyc_value(N, _cyc_reduce(N, [_coef(c) for c in coeffs]))

    @classmethod
    def root_of_unity(cls, N: int, k: int) -> "Scalar":
        """Canonical representative of zeta_N^k, shared between calls."""
        return Unit.root_of_unity(N, k).scalar()

    @classmethod
    def laurent(cls, terms) -> "Scalar":
        """terms: mapping or iterable of (exponent, coefficient) pairs."""
        acc = {}
        items = terms.items() if hasattr(terms, "items") else terms
        for e, c in items:
            acc[e] = acc.get(e, 0) + _coef(c)
        return _laurent_value(acc)

    @classmethod
    def q_power(cls, k: int, coeff=1) -> "Scalar":
        return _laurent_value({k: _coef(coeff)})

    @classmethod
    def _coerce_operand(cls, x):
        if isinstance(x, Scalar):
            return x
        if x.__class__ is Unit:
            return x.scalar()
        if isinstance(x, (int, Fraction)):
            return cls.rational(x)
        return None

    # -- ring structure ------------------------------------------------------

    def _promote(self, other: "Scalar"):
        """Return (tag, n, payload_self, payload_other) in a common ring."""
        a, b = self, other
        if a.tag == b.tag and a.n == b.n:
            return a.tag, a.n, a.payload, b.payload
        if a.tag == RATIONAL:
            if b.tag == CYCLOTOMIC:
                k = len(b.payload)
                return CYCLOTOMIC, b.n, (a.payload,) + (0,) * (k - 1), b.payload
            if b.tag == LAURENT:
                return LAURENT, 0, ((0, a.payload),) if a.payload else (), b.payload
        if b.tag == RATIONAL:
            tag, n, pb, pa = other._promote(a)
            return tag, n, pa, pb
        raise RingMismatch(f"cannot combine {a.ring_name()} with {b.ring_name()}")

    def ring_name(self) -> str:
        if self.tag == CYCLOTOMIC:
            return f"Q(zeta_{self.n})"
        if self.tag == LAURENT:
            return "Q[q,q^-1]"
        return "Q"

    def is_zero(self) -> bool:
        return self.tag == RATIONAL and self.payload == 0

    def is_rational(self) -> bool:
        return self.tag == RATIONAL

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __add__(self, other):
        if other.__class__ is Scalar and other.tag == self.tag and other.n == self.n:
            tag, n, pa, pb = self.tag, self.n, self.payload, other.payload
        else:
            other = Scalar._coerce_operand(other)
            if other is None:
                return NotImplemented
            tag, n, pa, pb = self._promote(other)
        if tag == RATIONAL:
            return _make(RATIONAL, 0, _coef(pa + pb))
        if tag == CYCLOTOMIC:
            return _cyc_value(n, _cyc_reduce(n, [x + y for x, y in zip(pa, pb)]))
        acc = dict(pa)
        for e, c in pb:
            acc[e] = acc.get(e, 0) + c
        return _laurent_value(acc)

    __radd__ = __add__

    def __neg__(self):
        if self.tag == RATIONAL:
            return _make(RATIONAL, 0, -self.payload)
        if self.tag == CYCLOTOMIC:
            return _make(CYCLOTOMIC, self.n, tuple(-c for c in self.payload))
        return _make(LAURENT, 0, tuple((e, -c) for e, c in self.payload))

    def __sub__(self, other):
        other = Scalar._coerce_operand(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = Scalar._coerce_operand(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        if other.__class__ is Scalar and other.tag == self.tag and other.n == self.n:
            tag, n, pa, pb = self.tag, self.n, self.payload, other.payload
        elif other.__class__ is Unit:
            return other.times(self)
        else:
            other = Scalar._coerce_operand(other)
            if other is None:
                return NotImplemented
            tag, n, pa, pb = self._promote(other)
        if tag == RATIONAL:
            return _make(RATIONAL, 0, _coef(pa * pb))
        if tag == CYCLOTOMIC:
            return _cyc_value(n, _cyc_mul(n, pa, pb))
        acc = {}
        for e1, c1 in pa:
            for e2, c2 in pb:
                e = e1 + e2
                acc[e] = acc.get(e, 0) + c1 * c2
        return _laurent_value(acc)

    __rmul__ = __mul__

    def inverse(self) -> "Scalar":
        if self.tag == RATIONAL:
            if self.payload == 0:
                raise ZeroDivisionError("scalar inverse of zero")
            return _make(RATIONAL, 0, _div(1, self.payload))
        if self.tag == CYCLOTOMIC:
            return _cyc_value(self.n, _cyc_inverse(self.n, self.payload))
        if len(self.payload) != 1:
            raise NonUnitLaurent(f"not a unit in Q[q,q^-1]: {self}")
        (e, c), = self.payload
        return _laurent_value({-e: _div(1, c)})

    def __truediv__(self, other):
        other = Scalar._coerce_operand(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = Scalar._coerce_operand(other)
        if other is None:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        base = self
        if k < 0:
            base = self.inverse()
            k = -k
        out = Scalar.one()
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, Scalar):
            return (self.tag, self.n, self.payload) == (other.tag, other.n, other.payload)
        if isinstance(other, (int, Fraction)):
            # a plain number equals only a rational of the same value
            return self.tag == RATIONAL and self.payload == other
        return NotImplemented

    def __hash__(self):
        if self.tag == RATIONAL:
            return hash(self.payload)
        return hash((self.tag, self.n, self.payload))

    # -- text form -----------------------------------------------------------

    def __str__(self):
        return self.render()

    def __repr__(self):
        return f"Scalar({self.render()!r})"

    def render(self) -> str:
        """Canonical text form without ring header; see parse_scalar."""
        if self.tag == RATIONAL:
            return str(self.payload)
        if self.tag == CYCLOTOMIC:
            return _render_terms(
                [(c, "z", e) for e, c in enumerate(self.payload) if c != 0]
            )
        return _render_terms([(c, "q", e) for e, c in self.payload])

    def to_text(self) -> str:
        """Text form with the ring header where the ring is not implied."""
        if self.tag == CYCLOTOMIC:
            return f"Q(zeta_{self.n}): {self.render()}"
        return self.render()


_new = object.__new__
_set_tag = Scalar.tag.__set__
_set_n = Scalar.n.__set__
_set_payload = Scalar.payload.__set__


def _make(tag: str, n: int, payload) -> Scalar:
    """Scalar around an already canonical payload; every internal producer
    builds through here instead of the validating public constructors."""
    s = _new(Scalar)
    _set_tag(s, tag)
    _set_n(s, n)
    _set_payload(s, payload)
    return s


_ZERO = _make(RATIONAL, 0, 0)
_ONE = _make(RATIONAL, 0, 1)


def _cyc_value(N: int, vec: tuple) -> Scalar:
    # vec is reduced and canonical; a constant one is a rational
    if any(vec[1:]):
        return _make(CYCLOTOMIC, N, vec)
    return _make(RATIONAL, 0, vec[0])


def _laurent_value(acc: dict) -> Scalar:
    terms = tuple(sorted([(e, c if type(c) is int else _coef(c)) for e, c in acc.items() if c]))
    if not terms:
        return _ZERO
    if len(terms) == 1 and terms[0][0] == 0:
        return _make(RATIONAL, 0, terms[0][1])
    return _make(LAURENT, 0, terms)


# ---------------------------------------------------------------------------
# unit monomials

class Unit:
    """Immutable unit monomial c * zeta_n^a * q^b in canonical form; see the
    module docstring."""

    __slots__ = ("c", "n", "a", "b")

    def __new__(cls, c, n: int = 1, a: int = 0, b: int = 0):
        c = _coef(c)
        if not c or n < 1:
            raise ValueError("a unit needs c != 0 and n >= 1")
        return _unit(c, n, a % n, b)

    def __setattr__(self, *_):
        raise AttributeError("Unit is immutable")

    def __reduce__(self):
        return (Unit, (self.c, self.n, self.a, self.b))

    @classmethod
    def one(cls) -> "Unit":
        return _UNIT_ONE

    @classmethod
    def root_of_unity(cls, N: int, k: int) -> "Unit":
        """zeta_N^k, shared between calls."""
        if N < 1:
            raise ValueError("N must be >= 1")
        return _root_unit(N, k % N)

    @classmethod
    def q_power(cls, k: int) -> "Unit":
        return _unit(1, 1, 0, k)

    @classmethod
    def of(cls, x: Scalar):
        """The Unit equal to the Scalar x, or None when x is not c*zeta^a*q^b."""
        if x.tag == RATIONAL:
            return _unit(x.payload, 1, 0, 0) if x.payload else None
        if x.tag == LAURENT:
            return _unit(x.payload[0][1], 1, 0, x.payload[0][0]) if len(x.payload) == 1 else None
        for a in range(1, x.n):
            y = _unit(1, x.n, x.n - a, 0).times(x)  # x * zeta^-a
            if y.tag == RATIONAL:
                return _unit(y.payload, x.n, a, 0)
        return None

    def scalar(self) -> Scalar:
        """The equal Scalar."""
        if self.n > 1:
            return _cyc_unit_scalar(self.c, self.n, self.a)
        if self.b:
            return _make(LAURENT, 0, ((self.b, self.c),))
        return _make(RATIONAL, 0, self.c)

    def times(self, x: Scalar) -> Scalar:
        """x * self for a Scalar x: x itself for the one, else a rational
        scaling, a Laurent exponent shift or a power-basis rotation, never
        the general product."""
        if self is _UNIT_ONE:
            return x
        c, n, a, b = self.c, self.n, self.a, self.b
        if x.tag == RATIONAL:
            return _unit(_coef(c * x.payload), n, a, b).scalar() if x.payload else x
        if x.tag == LAURENT and not a:
            return _laurent_value({e + b: c * v for e, v in x.payload})
        if x.tag == LAURENT or b or n not in (1, x.n):
            raise RingMismatch(f"cannot combine {x.ring_name()} with {self.scalar().ring_name()}")
        return _cyc_value(x.n, _cyc_reduce(x.n, [0] * a + [c * v for v in x.payload]))

    def __mul__(self, other):
        if other.__class__ is Unit:
            if other is _UNIT_ONE:
                return self
            if self is _UNIT_ONE:
                return other
            n = self.n if other.n == 1 else other.n
            if self.n not in (1, n):
                raise RingMismatch(f"cannot combine Q(zeta_{self.n}) with Q(zeta_{n})")
            c = self.c * other.c
            return _unit(c if type(c) is int else _coef(c), n, (self.a + other.a) % n, self.b + other.b)
        if other.__class__ is Scalar:
            return self.times(other)
        if isinstance(other, (int, Fraction)):
            if other == 1:
                return self
            return _unit(_coef(self.c * other), self.n, self.a, self.b) if other else _ZERO
        return NotImplemented

    __rmul__ = __mul__

    def inverse(self) -> "Unit":
        c = self.c if self.c in (1, -1) else _div(1, self.c)
        return _unit(c, self.n, -self.a % self.n, -self.b)

    def __neg__(self):
        return _unit(-self.c, self.n, self.a, self.b)

    def __add__(self, other):
        return self.scalar() + other

    __radd__ = __add__

    def __sub__(self, other):
        return self.scalar() - other

    def __rsub__(self, other):
        return other - self.scalar()

    def is_zero(self) -> bool:
        return False

    def is_rational(self) -> bool:
        return self.n == 1 and not self.b

    def __eq__(self, other):
        if other is self:
            return True
        if other.__class__ is Unit:
            return (self.c, self.n, self.a, self.b) == (other.c, other.n, other.a, other.b)
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.c == other
        return self.scalar() == other if isinstance(other, Scalar) else NotImplemented

    def __hash__(self):
        return hash(self.scalar())

    def render(self) -> str:
        return self.scalar().render()

    __str__ = render

    def to_text(self) -> str:
        return self.scalar().to_text()

    def __repr__(self):
        return f"Unit({self.render()!r})"


_set_c, _set_un, _set_a, _set_b = (Unit.c.__set__, Unit.n.__set__, Unit.a.__set__, Unit.b.__set__)


def _unit(c, n: int, a: int, b: int) -> Unit:
    """The Unit c * zeta_n^a * q^b from a canonical c != 0 and 0 <= a < n,
    in canonical form: the even-n sign folded, n = 1 when a = 0, and the
    shared Unit.one() when that form is 1."""
    if a and not n & 1 and 2 * a >= n:
        a -= n >> 1
        c = -c
    if not a:
        if c == 1 and not b:
            return _UNIT_ONE
        n = 1
    elif b:
        raise RingMismatch(f"cannot combine Q(zeta_{n}) with Q[q,q^-1]")
    u = _new(Unit)
    _set_c(u, c)
    _set_un(u, n)
    _set_a(u, a)
    _set_b(u, b)
    return u


_UNIT_ONE = _new(Unit)
_set_c(_UNIT_ONE, 1), _set_un(_UNIT_ONE, 1), _set_a(_UNIT_ONE, 0), _set_b(_UNIT_ONE, 0)
_root_unit = lru_cache(maxsize=4096)(lambda N, k: _unit(1, N, k, 0))


@lru_cache(maxsize=4096)
def _cyc_unit_scalar(c, n: int, a: int) -> Scalar:
    # bounded, and shared: Scalar.root_of_unity and every Unit that meets a
    # sum hand out one immutable instance per (c, n, a)
    return Scalar.cyclotomic(n, [0] * a + [c])


def _render_terms(terms) -> str:
    # terms: list of (coeff, symbol, exponent), already ordered
    out = []
    for c, sym, e in terms:
        mag = -c if c < 0 else c
        if e == 0:
            body = str(mag)
        else:
            pw = sym if e == 1 else f"{sym}^{e}"
            body = pw if mag == 1 else f"{mag}*{pw}"
        out.append(f"-{body}" if c < 0 else body)
    return join_terms(out)


def join_terms(terms) -> str:
    """Rendered terms, each with an optional leading "-", joined as
    "a + b - c"; no terms is "0"."""
    signed = " ".join(f"- {t[1:]}" if t.startswith("-") else f"+ {t}" for t in terms)
    if not signed:
        return "0"
    return signed[2:] if signed[0] == "+" else f"-{signed[2:]}"


# ---------------------------------------------------------------------------
# parsing

# largest N a "Q(zeta_N):" header may name; Phi_N up to it is built in
# about 10 ms, where N = 9240 takes seconds
MAX_HEADER_ORDER = 512


def parse_scalar(text: str, ring: str = RATIONAL, N: int = 0) -> Scalar:
    """Parse the canonical text form back into a Scalar.

    `ring`/`N` give the expected ring when the text has no header and no
    variable occurrence would disambiguate it.  A "Q(zeta_M):" header names
    the ring itself: M must lie in 1..MAX_HEADER_ORDER and, when the caller
    expects an N >= 1, equal it.  A z^e exponent may be any integer; it is
    read mod N.
    """
    s = text.strip()
    if s.startswith("Q(zeta_"):
        head, _, rest = s.partition(":")
        if not head.endswith(")"):
            raise ValueError(f"unclosed ring header: {text!r}")
        M = int(head[len("Q(zeta_"):-1])
        if not 1 <= M <= MAX_HEADER_ORDER:
            raise ValueError(f"Q(zeta_{M}) is outside Q(zeta_1) .. Q(zeta_{MAX_HEADER_ORDER})")
        if N >= 1 and M != N:
            raise ValueError(f"Q(zeta_{M}) where Q(zeta_{N}) is expected")
        N, ring = M, CYCLOTOMIC
        s = rest.strip()
    if "q" in s:
        ring = LAURENT
    if s == "":
        raise ValueError("empty scalar text")
    terms = _split_terms(s)
    if ring == LAURENT:
        acc: dict[int, Fraction] = {}
        for sign, term in terms:
            c, e = _parse_term(term, "q")
            acc[e] = acc.get(e, 0) + sign * c
        return Scalar.laurent(acc)
    if "z" in s or ring == CYCLOTOMIC:
        if N < 1:
            raise ValueError(f"cyclotomic text without ring header: {text!r}")
        # zeta^N = 1, and Phi_N divides x^N - 1: exponents are read mod N
        coeffs = [0] * N
        for sign, term in terms:
            c, e = _parse_term(term, "z")
            coeffs[e % N] += sign * c
        return Scalar.cyclotomic(N, coeffs)
    total = 0
    for sign, term in terms:
        c, e = _parse_term(term, None)
        total += sign * c
    return Scalar.rational(total)


def _split_terms(s: str) -> list[tuple[int, str]]:
    """Split on top-level + and -; signs after '^' belong to exponents."""
    out = []
    sign, buf, prev = 1, [], ""
    for ch in s:
        if ch in "+-" and prev != "^" and prev != "":
            if "".join(buf).strip():
                out.append((sign, "".join(buf).strip()))
            sign, buf = (1 if ch == "+" else -1), []
            prev = ""
            continue
        if ch == "-" and prev == "":
            sign = -sign
            continue
        buf.append(ch)
        if not ch.isspace():
            prev = ch
    if "".join(buf).strip():
        out.append((sign, "".join(buf).strip()))
    return out


def _parse_term(term: str, sym) -> tuple[Fraction, int]:
    """One product term 'c', 'c*v^e', 'v^e', or 'v'; returns (coeff, exp)."""
    t = term.replace(" ", "")
    if sym is None or sym not in t:
        return Fraction(t), 0
    coeff_s, _, var_s = t.rpartition("*")
    if not coeff_s:
        coeff = Fraction(1)
    else:
        coeff = Fraction(coeff_s)
    if not var_s.startswith(sym):
        raise ValueError(f"bad scalar term: {term!r}")
    rest = var_s[len(sym):]
    if rest == "":
        e = 1
    elif rest.startswith("^"):
        e = int(rest[1:])
    else:
        raise ValueError(f"bad scalar term: {term!r}")
    return coeff, e
