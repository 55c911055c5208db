"""Runtime values for the abstract datatypes: the value types, zero
values, the flat form and its conversions, and the partial operations on
the flat form that the two fast routes share.

Integers and naturals are unbounded Python ints; booleans are Python bools;
addresses are opaque interned strings. A partial operation raises Undef,
which callers surface as an undefined outcome (never as a crash). The
boxed rules that the oracle and the cascade run (arithmetic, moves, issue,
burn, the token merge and the timer operations) are the reference
runtime's, in `machine`.

Values are never changed in place: an update of a map, sequence or tuple
returns a new container, so states, letters and bindings share values
without copying them, and every value hashes consistently with its
equality.

The distinguished address ADDR_NONE ("none") names no one. Contract
instances use their instance name as self address.
"""
from __future__ import annotations

from dataclasses import dataclass

from .ast_nodes import SemType


class Undef(Exception):
    """An operation is undefined at the current values."""


ADDR_NONE = "none"


@dataclass(frozen=True)
class Coin:
    value: int  # >= 0 always


@dataclass(frozen=True)
class Tok:
    kind: str | None  # issuer instance address; None iff value == 0
    value: int


@dataclass(frozen=True)
class Timer:
    state: str  # "off" | "active" | "fired"
    k: int = 0  # remaining units, > 0 iff active


TIMER_OFF = Timer("off")
TIMER_FIRED = Timer("fired")


class MapVal:
    """Mapping from key values to values, with an optional declared default.
    It owns the dict it is built from; `put` returns an updated map."""

    __slots__ = ("d", "default")

    def __init__(self, d=None, default=None):
        self.d = {} if d is None else d
        self.default = default

    def get(self, key):
        if key in self.d:
            return self.d[key]
        if self.default is None:
            raise Undef(f"map has no entry for {key!r} and no default")
        return self.default

    def has(self, key) -> bool:
        return key in self.d

    def put(self, key, value) -> "MapVal":
        return MapVal({**self.d, key: value}, self.default)

    def __eq__(self, other):
        return isinstance(other, MapVal) and self.d == other.d and self.default == other.default

    def __hash__(self):
        return hash((frozenset(self.d.items()), self.default))

    def __repr__(self):
        return f"MapVal({self.d!r}, default={self.default!r})"


class _Items:
    """A sequence or tuple. It owns the list it is built from; `put`
    returns an updated one."""

    __slots__ = ("items",)

    def __init__(self, items=None):
        self.items = [] if items is None else items

    def put(self, i: int, value):
        return type(self)([*self.items[:i], value, *self.items[i + 1:]])

    def __eq__(self, other):
        return type(other) is type(self) and self.items == other.items

    def __hash__(self):
        return hash((type(self), tuple(self.items)))

    def __repr__(self):
        return f"{type(self).__name__}({self.items!r})"


class SeqVal(_Items):
    __slots__ = ()


class TupVal(_Items):
    __slots__ = ()


def zero_value(t: SemType, default=None):
    """Initial value of a declared type: coins/tokens empty, timers off,
    maps empty (with declared default), numbers zero."""
    if t.kind in ("int", "nat"):
        return 0
    if t.kind == "bool":
        return False
    if t.kind == "address":
        return ADDR_NONE
    if t.kind == "coin":
        return Coin(0)
    if t.kind == "token":
        return Tok(None, 0)
    if t.kind == "timer":
        return TIMER_OFF
    if t.kind == "map":
        return MapVal({}, default)
    if t.kind == "seq":
        return SeqVal()
    if t.kind == "tuple":
        return TupVal([zero_value(a) for a in t.args])
    raise ValueError(f"no zero value for {t}")


# ---------------------------------------------------------------------------
# The flat form, held by the discharge engine's valuations and the IR
# interpreter's storage: a coin is its amount, a token (kind, amount), a
# timer (state, k), a sequence or tuple a tuple, a map a dict of entries.
# Its partial operations below are shared by the engine's generated code
# (compile.PRELUDE) and the IR interpreter, and raise Undef where the
# reference runtime's boxed rules in `machine` do. The oracle and the
# cascade run those, so each fast route keeps an independent reference.
# ---------------------------------------------------------------------------


ABSENT = object()  # a map entry missing from a flat valuation


def flat(v):
    """The flat form of a runtime value; runtime values are tagged, so no
    type is needed."""
    if isinstance(v, Coin):
        return v.value
    if isinstance(v, Tok):
        return (v.kind, v.value)
    if isinstance(v, Timer):
        return (v.state, v.k)
    if isinstance(v, MapVal):
        return {k: flat(x) for k, x in v.d.items()}
    if isinstance(v, _Items):
        return tuple(map(flat, v.items))
    return v


def boxed(t: SemType, x, default=None):
    """The runtime value of type t whose flat form is x; `default` is a
    map's declared default."""
    k = t.kind
    if k == "coin":
        return Coin(x)
    if k == "token":
        return Tok(*x)
    if k == "timer":
        return Timer(*x)
    if k == "map":
        return MapVal({key: boxed(t.args[1], v) for key, v in x.items()}, default)
    if k == "seq":
        return SeqVal([boxed(t.args[0], v) for v in x])
    if k == "tuple":
        return TupVal([boxed(a, v) for a, v in zip(t.args, x)])
    return x


def has_type(v, t: SemType) -> bool:
    """Whether the runtime value v is a value of type t."""
    k = t.kind
    if k in ("int", "nat"):
        return type(v) is int and (k == "int" or v >= 0)
    if k == "map":
        return isinstance(v, MapVal) and all(
            has_type(key, t.args[0]) and has_type(x, t.args[1]) for key, x in v.d.items())
    if k == "seq":
        return isinstance(v, SeqVal) and all(has_type(x, t.args[0]) for x in v.items)
    if k == "tuple":
        return isinstance(v, TupVal) and len(v.items) == len(t.args) and all(
            map(has_type, v.items, t.args))
    return type(v) is {"bool": bool, "address": str, "coin": Coin, "token": Tok,
                       "timer": Timer}[k]


def nat_sub(a: int, b: int) -> int:
    if a < b:
        raise Undef("nat subtraction below zero")
    return a - b


def div(a: int, b: int) -> int:
    if b == 0:
        raise Undef("division by zero")
    return a // b


def mod(a: int, b: int) -> int:
    if b == 0:
        raise Undef("modulo by zero")
    return a % b


def seq_get(s: tuple, i: int):
    if not (0 <= i < len(s)):
        raise Undef("sequence index out of bounds")
    return s[i]


def timer_read(t: tuple) -> int:  # Timer.value
    if t[0] != "active":
        raise Undef("Timer.value on a non-active timer")
    return t[1]


def timer_start(t: tuple, k: int) -> tuple:  # Timer.set
    if t[0] != "off" or k <= 0:
        raise Undef("Timer.set on a running timer or for a non-positive duration")
    return ("active", k)


def timer_tick(t: tuple, d: int) -> tuple:
    """A timer d units later: fired iff d >= its remaining units."""
    if t[0] != "active":
        return t
    return ("active", t[1] - d) if t[1] > d else ("fired", 0)


def coin_cut(src: int, k: int) -> int:
    """The source of a move of k, after the move."""
    if k < 0 or src < k:
        raise Undef("move exceeds source value")
    return src - k


def token_cut(src: tuple, k: int) -> tuple:
    return (src[0] if src[1] > k else None, coin_cut(src[1], k))


def token_merge(dst: tuple, kind, amount: int) -> tuple:
    """dst after adding `amount` tokens of `kind`, refusing kind mixes."""
    if amount and dst[1] and dst[0] != kind:
        raise Undef("mixing token kinds")
    return (kind, dst[1] + amount) if amount else dst


def token_burn(src: tuple, k: int, issuer: str) -> tuple:
    if k > 0 and src[0] != issuer:
        raise Undef("burning a foreign token")
    return token_cut(src, k)


def issue_supply(n: int, remaining: int | None) -> int | None:
    """The token supply left after issuing n; None is unlimited."""
    if n < 0 or remaining is not None and n > remaining:
        raise Undef("negative issue or supply exhausted")
    return None if remaining is None else remaining - n


# ---------------------------------------------------------------------------
# JSON encoding for traces (stable field names)
# ---------------------------------------------------------------------------


def to_json(v):
    if isinstance(v, bool):
        return v
    if isinstance(v, int):
        return v
    if isinstance(v, str):
        return {"addr": v}
    if isinstance(v, Coin):
        return {"coin": v.value}
    if isinstance(v, Tok):
        return {"token": v.value, "kind": v.kind}
    if isinstance(v, Timer):
        return {"timer": v.state, "k": v.k}
    if isinstance(v, MapVal):
        return {"map": [[to_json(k), to_json(val)] for k, val in sorted(v.d.items(), key=repr)]}
    if isinstance(v, SeqVal):
        return {"seq": [to_json(x) for x in v.items]}
    if isinstance(v, TupVal):
        return {"tuple": [to_json(x) for x in v.items]}
    raise TypeError(f"not a runtime value: {v!r}")


def coin_content(v) -> int:
    """Total coin value stored in a value (recursing through containers)."""
    if isinstance(v, Coin):
        return v.value
    if isinstance(v, MapVal):
        return sum(coin_content(x) for x in v.d.values())
    if isinstance(v, (SeqVal, TupVal)):
        return sum(coin_content(x) for x in v.items)
    return 0


def token_content(v) -> int:
    if isinstance(v, Tok):
        return v.value
    if isinstance(v, MapVal):
        return sum(token_content(x) for x in v.d.values())
    if isinstance(v, (SeqVal, TupVal)):
        return sum(token_content(x) for x in v.items)
    return 0
