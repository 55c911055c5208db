"""Runtime values for the abstract datatypes, with mathematical arithmetic.

Integers and naturals are unbounded Python ints; booleans are Python bools;
addresses are opaque interned strings. Partial operations raise Undef, which
callers surface as the Undefined outcome (never as a crash).

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
    """Mapping from key values to values, with an optional declared default."""

    __slots__ = ("d", "default")

    def __init__(self, d=None, default=None):
        self.d = dict(d) if d else {}
        self.default = default

    def get(self, key):
        if key in self.d:
            return self.d[key]
        if self.default is None:
            raise Undef(f"map has no entry for {key!r} and no default")
        return copy_value(self.default)

    def has(self, key) -> bool:
        return key in self.d

    def set(self, key, value):
        self.d[key] = value

    def copy(self) -> "MapVal":
        return MapVal({k: copy_value(v) for k, v in self.d.items()}, self.default)

    def __eq__(self, other):
        return isinstance(other, MapVal) and self.d == other.d and self.default == other.default

    def __repr__(self):
        return f"MapVal({self.d!r}, default={self.default!r})"


class SeqVal:
    __slots__ = ("items",)

    def __init__(self, items=()):
        self.items = list(items)

    def copy(self) -> "SeqVal":
        return SeqVal([copy_value(v) for v in self.items])

    def __eq__(self, other):
        return isinstance(other, SeqVal) and self.items == other.items

    def __repr__(self):
        return f"SeqVal({self.items!r})"


class TupVal:
    __slots__ = ("items",)

    def __init__(self, items):
        self.items = list(items)

    def copy(self) -> "TupVal":
        return TupVal([copy_value(v) for v in self.items])

    def __eq__(self, other):
        return isinstance(other, TupVal) and self.items == other.items

    def __repr__(self):
        return f"TupVal({self.items!r})"


def copy_value(v):
    if isinstance(v, (MapVal, SeqVal, TupVal)):
        return v.copy()
    return v  # ints, bools, strings, Coin, Tok, Timer are immutable


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
# Coin / token primitives (value level; lvalue plumbing lives in machine.py)
# ---------------------------------------------------------------------------


def merge_tokens(dst: Tok, kind: str | None, amount: int) -> Tok:
    """Add `amount` tokens of `kind` to a container, refusing kind mixes."""
    if amount == 0:
        return dst
    if dst.value == 0:
        return Tok(kind, amount)
    if dst.kind != kind:
        raise Undef(f"mixing token kinds {dst.kind!r} and {kind!r}")
    return Tok(dst.kind, dst.value + amount)


def token_burn_value(src: Tok, k: int) -> Tok:
    if k < 0:
        raise Undef("negative burn amount")
    if src.value < k:
        raise Undef(f"burn of {k} from container holding {src.value}")
    return Tok(src.kind if src.value > k else None, src.value - k)


# ---------------------------------------------------------------------------
# Timers
# ---------------------------------------------------------------------------


def timer_set(t: Timer, k: int) -> Timer:
    if t.state != "off":
        raise Undef("Timer.set on a timer that is not Off")
    if k <= 0:
        raise Undef("Timer.set requires a positive duration")
    return Timer("active", k)


def timer_reset(t: Timer) -> Timer:
    return TIMER_OFF


def timer_value(t: Timer) -> int:
    if t.state != "active":
        raise Undef("Timer.value on a timer that is not Active")
    return t.k


def timer_advance(t: Timer, delta: int) -> Timer:
    """Fired iff delta >= remaining units; Off and Fired are unchanged."""
    if t.state != "active":
        return t
    if delta >= t.k:
        return TIMER_FIRED
    return Timer("active", t.k - delta)


# ---------------------------------------------------------------------------
# Arithmetic (mathematical, partial)
# ---------------------------------------------------------------------------


def arith(op: str, a: int, b: int, nat: bool) -> int:
    if op == "+":
        return a + b
    if op == "-":
        r = a - b
        if nat and r < 0:
            raise Undef(f"nat subtraction {a} - {b} is negative")
        return r
    if op == "*":
        return a * b
    if op == "/":
        if b == 0:
            raise Undef("division by zero")
        return a // b
    if op == "%":
        if b == 0:
            raise Undef("modulo by zero")
        return a % b
    raise ValueError(f"unknown arithmetic op {op}")


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
