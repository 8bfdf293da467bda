"""Finitely generated abelian groups Z_{m1} x .. x Z_{mr} x Z^s.

Elements are plain coordinate tuples in additive notation: torsion
coordinates live in {0..m_t-1}, free coordinates in Z.  Multiplicative
rendering (u, v, w, powers) exists only at the text boundary.

Element arithmetic is one pass over the coordinates: `reduce` takes a
torsion coordinate mod its order and a free one through `int`; `mul` and
`inv` compute (a + b) mod m, -a mod m on torsion coordinates and
int(a) + int(b), -int(a) on free ones directly, without reducing their
inputs first.  Both agree with reducing the inputs, combining and reducing
again.  The torsion length and the rank are stored once per spec, outside
the dataclass fields, so equality, hashing, repr and pickling see only
`cyclic_orders` and `free_rank`.

Characters are weight vectors on the torsion part; their values are
roots of unity of order N = lcm(cyclic orders), returned by `char_eval` as
`scalars.Unit`s.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from math import lcm
from operator import add, mod, neg

from .scalars import Unit


class SpecMismatch(ValueError):
    """Element or weight vector does not fit the group spec."""


class InfiniteGroup(ValueError):
    """Exhaustive enumeration requested for a group with free part."""


_GEN_NAMES = ("u", "v", "w")

Element = tuple  # coordinate tuple; torsion first, then free


@dataclass(frozen=True)
class GroupSpec:
    cyclic_orders: tuple[int, ...]
    free_rank: int = 0

    def __post_init__(self):
        object.__setattr__(self, "cyclic_orders", tuple(self.cyclic_orders))
        if any(m < 2 for m in self.cyclic_orders):
            raise SpecMismatch("cyclic orders must be >= 2")
        if self.free_rank < 0 or len(self.cyclic_orders) + self.free_rank < 1:
            raise SpecMismatch("need at least one coordinate")
        # not fields: ==, hash, repr and replace() see only the two above
        object.__setattr__(self, "_ntor", len(self.cyclic_orders))
        object.__setattr__(self, "_rank", self._ntor + self.free_rank)

    # -- structure -----------------------------------------------------------

    @property
    def rank(self) -> int:
        return self._rank

    @property
    def torsion_rank(self) -> int:
        return self._ntor

    @property
    def exponent(self) -> int:
        """N = lcm of the cyclic orders (1 for a free group)."""
        return lcm(*self.cyclic_orders) if self.cyclic_orders else 1

    def order(self):
        if self.free_rank:
            return None
        out = 1
        for m in self.cyclic_orders:
            out *= m
        return out

    # -- element arithmetic ----------------------------------------------------

    def _mismatch(self, coords) -> SpecMismatch:
        return SpecMismatch(
            f"element has {len(coords)} coordinates, spec wants {self._rank}"
        )

    # reduce and mul run once per cochain lookup or product, so they take
    # the all-torsion and all-free shapes without building an empty part
    # (against the last, general expression alone: window jobs_per_s +9%,
    # certs +4%, 2-vCPU host); the general expression is right for every
    # shape and is the only one inv uses
    def reduce(self, coords) -> Element:
        if type(coords) is not tuple:
            coords = tuple(coords)
        if len(coords) != self._rank:
            raise self._mismatch(coords)
        n = self._ntor
        if n == self._rank:
            return tuple(map(mod, coords, self.cyclic_orders))
        if not n:
            return tuple(map(int, coords))
        return tuple(map(mod, coords, self.cyclic_orders)) + tuple(map(int, coords[n:]))

    def identity(self) -> Element:
        return (0,) * self._rank

    def mul(self, g: Element, h: Element) -> Element:
        if not isinstance(g, (tuple, list)):
            g = self.reduce(g)
        if not isinstance(h, (tuple, list)):
            h = self.reduce(h)
        if len(g) != self._rank:
            raise self._mismatch(g)
        if len(h) != self._rank:
            raise self._mismatch(h)
        n = self._ntor
        if n == self._rank:
            return tuple(map(mod, map(add, g, h), self.cyclic_orders))
        if not n:
            return tuple(map(add, map(int, g), map(int, h)))
        return tuple(map(mod, map(add, g, h), self.cyclic_orders)) + tuple(
            map(add, map(int, g[n:]), map(int, h[n:]))
        )

    def inv(self, g: Element) -> Element:
        if not isinstance(g, (tuple, list)):
            g = self.reduce(g)
        if len(g) != self._rank:
            raise self._mismatch(g)
        return tuple(map(mod, map(neg, g), self.cyclic_orders)) + tuple(
            map(neg, map(int, g[self._ntor:]))
        )

    def mul_all(self, gs) -> Element:
        out = self.identity()
        for g in gs:
            out = self.mul(out, g)
        return out

    def is_identity(self, g: Element) -> bool:
        return all(c == 0 for c in self.reduce(g))

    # -- enumeration -----------------------------------------------------------

    def elements(self) -> list[Element]:
        """All elements, lexicographic; the basis order for linear algebra."""
        if self.free_rank:
            raise InfiniteGroup("group has a free part; use window_elements")
        return [tuple(g) for g in itertools.product(*(range(m) for m in self.cyclic_orders))]

    def window_elements(self, b: int) -> list[Element]:
        """Torsion coordinates in full, free coordinates in [-b, b]; lexicographic."""
        ranges = [range(m) for m in self.cyclic_orders]
        ranges += [range(-b, b + 1)] * self.free_rank
        return [tuple(g) for g in itertools.product(*ranges)]

    # -- characters --------------------------------------------------------------

    def check_weight(self, w) -> tuple[int, ...]:
        w = tuple(w)
        if len(w) != self.torsion_rank:
            raise SpecMismatch(
                f"weight has {len(w)} entries, torsion rank is {self.torsion_rank}"
            )
        return tuple(wi % m for wi, m in zip(w, self.cyclic_orders))

    def char_eval(self, w, g: Element) -> Unit:
        """zeta_N^{sum_t w_t g_t N/m_t} as a Unit; multiplicative in g,
        trivial at e."""
        w = self.check_weight(w)
        g = self.reduce(g)
        N = self.exponent
        e = 0
        for t, m in enumerate(self.cyclic_orders):
            e += w[t] * g[t] * (N // m)
        return Unit.root_of_unity(N, e)

    def combine_weights(self, weights) -> tuple[int, ...]:
        """Weight of the pointwise product of the given characters."""
        total = [0] * self.torsion_rank
        for w in weights:
            w = self.check_weight(w)
            total = [(a + b) % m for a, b, m in zip(total, w, self.cyclic_orders)]
        return tuple(total)

    # -- text form -----------------------------------------------------------------

    def render_element(self, g: Element) -> str:
        g = self.reduce(g)
        if all(c == 0 for c in g):
            return "e"
        if self.rank <= len(_GEN_NAMES):
            parts = []
            for name, c in zip(_GEN_NAMES, g):
                if c == 1:
                    parts.append(name)
                elif c != 0:
                    parts.append(f"{name}^{c}")
            return "*".join(parts)
        return "(" + ",".join(str(c) for c in g) + ")"

    def parse_element(self, text: str) -> Element:
        s = text.strip()
        if not s:
            raise SpecMismatch("empty element text")
        if s.startswith("("):
            if not s.endswith(")"):
                raise SpecMismatch(f"unbalanced coordinate form: {text!r}")
            parts = s[1:-1].split(",") if s[1:-1].strip() else []
            coords = [_COORD_RE.fullmatch(p.strip()) for p in parts]
            if not all(coords):
                raise SpecMismatch(f"bad coordinate form: {text!r}")
            return self.reduce([int(m[0]) for m in coords])
        if s == "e":
            return self.identity()
        coords = [0] * self.rank
        for name, power in _iter_generator_factors(s, text):
            try:
                idx = _GEN_NAMES.index(name)
            except ValueError:
                raise SpecMismatch(f"unknown generator {name!r} in {text!r}") from None
            if idx >= self.rank:
                raise SpecMismatch(f"generator {name!r} out of range in {text!r}")
            coords[idx] += power
        return self.reduce(coords)


# digits are ASCII 0-9 only: int() would also read other scripts' digits and "_"
_FACTOR_RE = re.compile(r"([a-z])(\^(-?[0-9]+))?")
_COORD_RE = re.compile(r"[-+]?[0-9]+")


def _iter_generator_factors(s: str, original: str = ""):
    pos = 0
    s = s.replace(" ", "")
    while pos < len(s):
        if s[pos] == "*":
            pos += 1
            continue
        m = _FACTOR_RE.match(s, pos)
        if not m:
            raise SpecMismatch(f"bad element text at position {pos}: {s!r}")
        yield m.group(1), int(m.group(3)) if m.group(3) else 1
        pos = m.end()
