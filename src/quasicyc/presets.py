"""Built-in and JSON-loaded presets bundling a group, a twist and a calculus.

Three built-ins:

  octonion    Z2^3 with the sign-valued twist whose quasialgebra is the
              octonions, three sign characters, 3-dimensional calculus
  torus       Z^2 with the q-valued twist (noncommutative torus relations),
              derivations calculus
  z2_trivial  Z2 untwisted with the sign character; baseline preset

The JSON schema mirrors the Preset fields:

  {"name": ..., "group": {"cyclic_orders": [...], "free_rank": n},
   "scalars": "rational"|"cyclotomic"|"laurent",
   "cochain_F": {"expr": ..., "base": "root_of_unity", "order": N}
              | {"expr": ..., "base": "laurent"}
              | {"table": [[[g coords], [h coords], "scalar"], ...]},
   "calculus": {"kind": "characters", "weights": [[...], ...]}
             | {"kind": "derivations"},
   "cochain_order": N,         # optional; the Q(zeta_N) of table scalars,
                               # defaults to the group's exponent
   "ribbon": [...]}            # optional; defaults to the sum of weights

A table scalar's "Q(zeta_M):" header must name M = cochain_order, and a
table names each pair (g, h) once, after reduction in the group.  A given
cochain_F.order or cochain_order is at most MAX_HEADER_ORDER, the bound on
headers.  The calculus and the ribbon weight are built when the Preset is,
so a preset whose calculus is malformed is rejected by every command.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .calculus import CalculusSpec
from .cochains import Cochain2
from .groups import GroupSpec
from .scalars import MAX_HEADER_ORDER, parse_scalar

OCTONION_EXPR = "i1*(j1+j2+j3)+i2*(j2+j3)+i3*j3+j1*i2*i3+i1*j2*i3+i1*i2*j3"
TORUS_EXPR = "i2*j1"

_RING_NAMES = ("rational", "cyclotomic", "laurent")


@dataclass(frozen=True)
class Preset:
    name: str
    group: GroupSpec
    scalars: str
    cochain_spec: tuple
    calculus_kind: str
    weights: tuple = ()
    ribbon: tuple | None = None

    def __post_init__(self):
        if self.scalars not in _RING_NAMES:
            raise ValueError(f"unknown scalar ring {self.scalars!r}")
        # built once, outside the fields, so == and hash are unchanged; the
        # ribbon defaults to the sum of the weights (none for derivations)
        calculus = CalculusSpec(self.group, self.calculus_kind, tuple(self.weights))
        ribbon = self.weights if self.ribbon is None else (self.ribbon,)
        object.__setattr__(self, "_calculus", calculus)
        object.__setattr__(self, "_ribbon", self.group.combine_weights(ribbon))

    def cochain(self) -> Cochain2:
        kind = self.cochain_spec[0]
        if kind == "expr":
            _, base, expr = self.cochain_spec
            return Cochain2.from_expr(self.group, base, expr)
        _, entries = self.cochain_spec
        return Cochain2.from_table(self.group, entries)

    def calculus(self) -> CalculusSpec:
        return self._calculus

    def ribbon_weight(self) -> tuple[int, ...]:
        return self._ribbon


def builtin(name: str) -> Preset:
    if name == "octonion":
        return Preset(
            name="octonion",
            group=GroupSpec((2, 2, 2)),
            scalars="rational",
            cochain_spec=("expr", ("root_of_unity", 2), OCTONION_EXPR),
            calculus_kind="characters",
            weights=((1, 0, 0), (0, 1, 0), (0, 0, 1)),
        )
    if name == "torus":
        return Preset(
            name="torus",
            group=GroupSpec((), free_rank=2),
            scalars="laurent",
            cochain_spec=("expr", ("laurent",), TORUS_EXPR),
            calculus_kind="derivations",
        )
    if name == "z2_trivial":
        return Preset(
            name="z2_trivial",
            group=GroupSpec((2,)),
            scalars="rational",
            cochain_spec=("expr", ("root_of_unity", 2), "0"),
            calculus_kind="characters",
            weights=((1,),),
        )
    raise KeyError(f"no built-in preset {name!r}")


BUILTIN_NAMES = ("octonion", "torus", "z2_trivial")


_MISSING = object()
_JSON_KINDS = {dict: "an object", list: "a list", str: "a string", int: "an integer"}


class FieldError(ValueError):
    """A JSON field that is missing or malformed, named by its path; the
    loader of a document prefixes the document's kind to the message.
    _field, _typed, _int_list and _scalar check the preset and cochain files."""


def _field(obj: dict, path: str, kind, default=_MISSING):
    """The entry of obj named by the last key of a dotted path; it must
    have the given JSON type, and may be absent only given a default."""
    key = path.rpartition(".")[2]
    if key not in obj:
        if default is _MISSING:
            raise FieldError(f"field {path!r} is missing")
        return default
    return _typed(obj[key], path, kind)


def _typed(value, path: str, kind):
    """value, which must have the given JSON type at that path."""
    if not isinstance(value, kind) or isinstance(value, bool):
        raise FieldError(
            f"field {path!r} must be {_JSON_KINDS[kind]}, got {type(value).__name__}"
        )
    return value


def _order(obj: dict, path: str, default=_MISSING) -> int:
    """A root-of-unity order N at that path, at most MAX_HEADER_ORDER as in
    a "Q(zeta_N):" header (an N < 1 is left to the ring to reject); a
    default is taken as it is."""
    key = path.rpartition(".")[2]
    if key not in obj and default is not _MISSING:
        return default
    N = _field(obj, path, int)
    if N > MAX_HEADER_ORDER:
        raise FieldError(f"field {path!r} must be at most {MAX_HEADER_ORDER}, got {N}")
    return N


def _int_list(value, path: str) -> tuple:
    """A JSON list of integers, as a tuple; a bad entry is named by index."""
    return tuple(_typed(v, f"{path}[{i}]", int) for i, v in enumerate(_typed(value, path, list)))


def _scalar(value, path: str, *ring):
    """The scalar text at that path, parsed by parse_scalar in ring."""
    text = _typed(value, path, str)
    try:
        return parse_scalar(text, *ring)
    except ZeroDivisionError:
        raise FieldError(f"field {path!r} divides by zero: {text!r}") from None
    except ValueError as exc:
        raise FieldError(f"field {path!r} is not a scalar: {exc}") from None


def from_dict(data: dict) -> Preset:
    if not isinstance(data, dict):
        raise ValueError(f"a preset must be a JSON object, got {type(data).__name__}")
    try:
        return _from_fields(data)
    except FieldError as exc:
        raise FieldError(f"preset {exc}") from None


def _from_fields(data: dict) -> Preset:
    grp = _field(data, "group", dict)
    group = GroupSpec(
        _int_list(_field(grp, "group.cyclic_orders", list, []), "group.cyclic_orders"),
        _field(grp, "group.free_rank", int, 0),
    )
    scalars = _field(data, "scalars", str)
    cf = _field(data, "cochain_F", dict)
    if "expr" in cf:
        kind = _field(cf, "cochain_F.base", str)
        if kind == "root_of_unity":
            base = ("root_of_unity", _order(cf, "cochain_F.order"))
        elif kind == "laurent":
            base = ("laurent",)
        else:
            raise ValueError(f"unknown cochain base {kind!r}")
        cochain_spec = ("expr", base, _field(cf, "cochain_F.expr", str))
    elif "table" in cf:
        order = _order(data, "cochain_order", group.exponent)
        entries, seen = [], {}
        for i, row in enumerate(_field(cf, "cochain_F.table", list)):
            path = f"cochain_F.table[{i}]"
            if len(_typed(row, path, list)) != 3:
                raise FieldError(f"field {path!r} must be a [g, h, scalar] triple")
            g, h = _int_list(row[0], f"{path}[0]"), _int_list(row[1], f"{path}[1]")
            pair = (group.reduce(g), group.reduce(h))
            if pair in seen:
                raise FieldError(f"field {path!r} repeats {seen[pair]!r}")
            seen[pair] = path
            entries.append((g, h, _scalar(row[2], f"{path}[2]", scalars, order)))
        cochain_spec = ("table", tuple(entries))
    else:
        raise ValueError("cochain_F needs an expr or a table")
    calc = _field(data, "calculus", dict)
    ribbon = _field(data, "ribbon", list, None)
    return Preset(
        name=_field(data, "name", str),
        group=group,
        scalars=scalars,
        cochain_spec=cochain_spec,
        calculus_kind=_field(calc, "calculus.kind", str),
        weights=tuple(
            _weight(w, f"calculus.weights[{i}]", group)
            for i, w in enumerate(_field(calc, "calculus.weights", list, []))
        ),
        ribbon=_weight(ribbon, "ribbon", group) if ribbon is not None else None,
    )


def _weight(value, path: str, group: GroupSpec) -> tuple:
    """A character weight at that path: one integer per torsion coordinate."""
    w = _int_list(value, path)
    if len(w) != group.torsion_rank:
        raise FieldError(
            f"field {path!r} has {len(w)} entries, torsion rank is {group.torsion_rank}"
        )
    return w


def read_json(path: str, kind: str):
    """The JSON document in the file at path; a document nested too deeply
    for the parser raises a ValueError naming its kind."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError(f"{kind} file {path!r} nests too deeply to parse") from None


def load(name_or_path: str) -> Preset:
    """Built-in preset name, or a path to a preset JSON file."""
    if name_or_path in BUILTIN_NAMES:
        return builtin(name_or_path)
    return from_dict(read_json(name_or_path, "preset"))
