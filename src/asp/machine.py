"""The reference runtime: expression evaluation and the labeled
transition step of a single contract instance, over boxed values. It is
the one home of the reference's partial rules (arithmetic, moves, issue,
burn, the token merge, the timer operations), which the oracle and the
cascade run; the fast routes run the flat operations of `values` instead.

A step executes one (normalized or source-level) transition's action
atomically over mathematical semantics. If any operation is undefined the
step is not a transition of the system: callers receive None and the
input instance is unchanged. Sends transfer the entire value of coin/token
arguments, zeroing their source containers.

The evaluator walks the AST through dispatch tables (`_EVAL` by node
class, `_BINOPS` by operator, `_BUILTINS`, `_OPS` by `(ns, op)`, `_STMTS`
by statement class); a missing entry is a TypeError. Both operands of a
binary operator are evaluated, left first, so the connectives are strict.
A name is a binding, else `owner`, `creator`, a variable, else undefined.
"""
from __future__ import annotations

import json
import operator
from dataclasses import dataclass

from .ast_nodes import Assign, Binop, Builtin, Expr, If, Lit, OpStmt, Quant, Send, Stmt, Unop, Var
from .typecheck import TypedContract, TypedTransition, is_lvalue
from .values import (
    ADDR_NONE, TIMER_FIRED, TIMER_OFF, Coin, SeqVal, Tok, Timer, Undef, coin_content, to_json,
    token_content, zero_value,
)


@dataclass(slots=True)
class InputLetter:
    msg: str
    sender: str
    args: tuple

    def to_json(self):
        return {"kind": "input", "msg": self.msg, "sender": self.sender,
                "args": [to_json(a) for a in self.args]}


@dataclass(slots=True)
class OutputLetter:
    msg: str
    dest: str
    args: tuple

    def matching(self, sender: str) -> InputLetter:
        """The input letter this output synchronizes with."""
        return InputLetter(self.msg, sender, self.args)

    def to_json(self):
        return {"kind": "output", "msg": self.msg, "dest": self.dest,
                "args": [to_json(a) for a in self.args]}


@dataclass(slots=True)
class InstanceState:
    contract: str
    skeleton: str
    env: dict[str, object]
    creator: str
    owner: str
    self_addr: str
    token_remaining: int | None = None

    def clone(self) -> "InstanceState":
        """A copy that shares every (immutable) value with this instance."""
        return InstanceState(
            self.contract, self.skeleton, dict(self.env),
            self.creator, self.owner, self.self_addr, self.token_remaining,
        )

    def coin_total(self) -> int:
        return sum(coin_content(v) for v in self.env.values())

    def token_total(self) -> int:
        return sum(token_content(v) for v in self.env.values())

    def snapshot(self):
        """A canonical JSON view of the instance, which tests compare; the
        state searches key an instance by `prove.FiniteModel.key`."""
        return json.dumps(
            {"skeleton": self.skeleton, "owner": self.owner,
             "env": {k: to_json(v) for k, v in sorted(self.env.items())},
             "remaining": self.token_remaining},
            sort_keys=True)


def init_instance(tc: TypedContract, self_addr: str, args: dict[str, object],
                  creator: str) -> InstanceState:
    """Fresh instance: parameters bound, coins empty, timers off, maps
    empty with their declared defaults. The where clause is checked by
    the system constructor, not here."""
    env: dict[str, object] = {}
    for pname, _ptyp in tc.params:
        env[pname] = args[pname]
    inst = InstanceState(tc.name, tc.initial, env, creator, creator, self_addr,
                         tc.issue_limit if tc.issues else None)
    for v in tc.vars.values():
        if v.init is not None:
            env[v.name] = _eval(v.init, inst, {})  # raises Undef on bad init
        else:
            env[v.name] = zero_value(v.typ, v.default)
    return inst


# ---------------------------------------------------------------------------
# Expression evaluation
# ---------------------------------------------------------------------------


def eval_expr(e: Expr, inst: InstanceState, bindings: dict[str, object]):
    """The value of e, or None when e is undefined there. No well-typed
    expression evaluates to None, so None means undefined."""
    try:
        return _eval(e, inst, bindings)
    except Undef:
        return None


def all_true(exprs, inst: InstanceState, bindings: dict[str, object]) -> bool:
    """Whether every expression is True; an undefined one does not hold."""
    try:
        for e in exprs:
            if _eval(e, inst, bindings) is not True:
                return False
    except Undef:
        return False
    return True


class _Table(dict):
    """A dispatch table; a key it lacks is a TypeError."""

    def __missing__(self, key):
        raise TypeError(f"no rule for {key!r}")


def _eval(e: Expr, inst: InstanceState, b: dict[str, object]):
    return _EVAL[type(e)](e, inst, b)


def _eval_var(e: Var, inst, b):
    name = e.name
    if name in b:
        return b[name]
    if name == "owner":
        return inst.owner
    if name == "creator":
        return inst.creator
    if name not in inst.env:
        raise Undef(f"unknown name {name!r}")
    return inst.env[name]


def _eval_unop(e: Unop, inst, b):
    v = _eval(e.operand, inst, b)
    return (not v) if e.op == "!" else -v


def _eval_binop(e: Binop, inst, b):
    """Both operands, left first, each dispatched here to spare a frame."""
    l, r = e.left, e.right
    return _BINOPS[e.op](_EVAL[type(l)](l, inst, b), _EVAL[type(r)](r, inst, b))


def _eval_quant(e: Quant, inst, b):
    raise Undef("quantifiers are not evaluated by the runtime")


def _map_in(args, inst, b):
    key = _eval(args[0], inst, b)
    return _eval(args[1], inst, b).has(key)


def _seq_get(args, inst, b):
    seq, i = _eval(args[0], inst, b), _eval(args[1], inst, b)
    if not (0 <= i < len(seq.items)):
        raise Undef(f"sequence index {i} out of bounds")
    return seq.items[i]


def _map_get(args, inst, b):  # a read through a ref is a plain get
    m, k = args
    return _EVAL[type(m)](m, inst, b).get(_EVAL[type(k)](k, inst, b))


def _tuple_get(args, inst, b):
    return _eval(args[0], inst, b).items[_eval(args[1], inst, b)]


def _undef(message: str):
    raise Undef(message)


def _timer_value(args, inst, b):
    t = _eval(args[0], inst, b)
    return t.k if t.state == "active" else _undef("Timer.value on a timer that is not Active")


_EVAL = _Table({
    Lit: lambda e, inst, b: e.value, Var: _eval_var, Unop: _eval_unop,
    Binop: _eval_binop, Quant: _eval_quant,
    Builtin: lambda e, inst, b: _BUILTINS[e.ns, e.op](e.args, inst, b),
})
_BINOPS = _Table({
    "&&": lambda l, r: l and r, "||": lambda l, r: l or r,
    "==>": lambda l, r: (not l) or r,
    "==": operator.eq, "!=": operator.ne, "<": operator.lt, "<=": operator.le,
    ">": operator.gt, ">=": operator.ge,
    "+": operator.add, "-": operator.sub, "*": operator.mul,
    "/": lambda l, r: l // r if r != 0 else _undef("division by zero"),
    "%": lambda l, r: l % r if r != 0 else _undef("modulo by zero"),
    "-nat": lambda l, r: l - r if l >= r else _undef(f"nat subtraction {l} - {r} is negative"),
})
_BUILTINS = _Table({
    ("Address", "none"): lambda args, inst, b: ADDR_NONE,
    ("Address", "self"): lambda args, inst, b: inst.self_addr,
    ("Coin", "value"): lambda args, inst, b: _eval(args[0], inst, b).value,
    ("Token", "value"): lambda args, inst, b: _eval(args[0], inst, b).value,
    ("Timer", "is_off"): lambda args, inst, b: _eval(args[0], inst, b).state == "off",
    ("Timer", "is_active"): lambda args, inst, b: _eval(args[0], inst, b).state == "active",
    ("Timer", "has_fired"): lambda args, inst, b: _eval(args[0], inst, b).state == "fired",
    ("Timer", "value"): _timer_value,
    ("Map", "get"): _map_get, ("Map", "ref"): _map_get, ("Map", "in"): _map_in,
    ("Seq", "get"): _seq_get, ("Seq", "ref"): _seq_get,
    ("Seq", "len"): lambda args, inst, b: len(_eval(args[0], inst, b).items),
    ("Tuple", "get"): _tuple_get, ("Tuple", "ref"): _tuple_get,
})


# ---------------------------------------------------------------------------
# Lvalue slots
# ---------------------------------------------------------------------------


class Slot:
    """A writable location: a state/binder variable or a container entry."""

    __slots__ = ("read", "write")

    def __init__(self, read, write):
        self.read = read
        self.write = write


def resolve_slot(e: Expr, inst: InstanceState, b: dict[str, object],
                 materialize: str | None = None) -> Slot:
    """Resolve an lvalue to a slot. Map.ref on an absent key takes the
    declared default; a coin/token move materializes an empty container
    for the entry it writes (so new entries can be created without
    fabricating value), never for an entry under it; otherwise the access
    is undefined."""
    if isinstance(e, Var):
        name = e.name
        if name in b:
            return Slot(lambda: b[name], lambda v: b.__setitem__(name, v))
        if name not in inst.env:
            raise Undef(f"no such location {name!r}")
        return Slot(lambda: inst.env[name], lambda v: inst.env.__setitem__(name, v))
    assert isinstance(e, Builtin) and e.op == "ref"
    # an entry is read and written through its container's slot, so two
    # slots into one container see each other's writes
    base = resolve_slot(e.args[0], inst, b)
    if e.ns == "Map":
        key = _eval(e.args[1], inst, b)
        m = base.read()
        if not m.has(key):
            if m.default is not None:
                base.write(m.put(key, m.default))
            elif materialize == "coin":
                base.write(m.put(key, Coin(0)))
            elif materialize == "token":
                base.write(m.put(key, Tok(None, 0)))
            else:
                raise Undef(f"map has no entry for {key!r}")
        return Slot(lambda: base.read().d[key],
                    lambda v: base.write(base.read().put(key, v)))
    if e.ns == "Seq":
        i = _eval(e.args[1], inst, b)
        if not (0 <= i < len(base.read().items)):
            raise Undef(f"sequence index {i} out of bounds")
    else:
        i = e.args[1].value
    return Slot(lambda: base.read().items[i],
                lambda v: base.write(base.read().put(i, v)))


# ---------------------------------------------------------------------------
# Statement execution
# ---------------------------------------------------------------------------


class StepContext:
    """One step's working instance and bindings, and the letters it sends."""

    __slots__ = ("inst", "bindings", "sender", "outputs", "logs")

    def __init__(self, inst: InstanceState, bindings: dict[str, object], sender: str | None):
        self.inst = inst
        self.bindings = bindings
        self.sender = sender  # input letter sender, for Address.change_owner
        self.outputs: list[OutputLetter] = []
        self.logs: list[OutputLetter] = []


def _as_coin(v) -> Coin:
    if isinstance(v, Coin):
        return v
    raise Undef("expected a coin container")


def _as_token(v) -> Tok:
    if isinstance(v, Tok):
        return v
    raise Undef("expected a token container")


def _merge_tokens(dst: Tok, kind: str | None, amount: int) -> Tok:
    """Add `amount` tokens of `kind` to a container, refusing kind mixes."""
    if amount == 0:
        return dst
    if dst.value == 0:
        return Tok(kind, amount)
    if dst.kind != kind:
        raise Undef(f"mixing token kinds {dst.kind!r} and {kind!r}")
    return Tok(dst.kind, dst.value + amount)


def _exec_stmt(s: Stmt, ctx: StepContext):
    _STMTS[type(s)](s, ctx)


def _exec_assign(s: Assign, ctx: StepContext):
    ctx.inst.env[s.target] = _eval(s.value, ctx.inst, ctx.bindings)


def _exec_if(s: If, ctx: StepContext):
    for t in (s.then if _eval(s.cond, ctx.inst, ctx.bindings) else s.els):
        _exec_stmt(t, ctx)


# Moves write the source before reading the destination so that a move
# whose operands alias the same container conserves value.
def _coin_move(s: OpStmt, inst, b, sender):
    src = resolve_slot(s.args[0], inst, b, "coin")
    have = _as_coin(src.read()).value
    k = _eval(s.args[1], inst, b) if s.op == "move" else have
    if k < 0 or have < k:
        raise Undef(f"coin move of {k} from container holding {have}")
    src.write(Coin(have - k))
    dst = resolve_slot(s.args[-1], inst, b, "coin")
    dst.write(Coin(_as_coin(dst.read()).value + k))


def _token_issue(s: OpStmt, inst, b, sender):
    n = _eval(s.args[0], inst, b)
    if n < 0:
        raise Undef("negative issue amount")
    if inst.token_remaining is not None:
        if n > inst.token_remaining:
            raise Undef(f"issuing {n} tokens but only {inst.token_remaining} remain")
        inst.token_remaining -= n
    dst = resolve_slot(s.args[1], inst, b, "token")
    dst.write(_merge_tokens(_as_token(dst.read()), inst.self_addr, n))


def _token_burn(s: OpStmt, inst, b, sender):
    src = resolve_slot(s.args[0], inst, b, "token")
    k = _eval(s.args[1], inst, b)
    cur = _as_token(src.read())
    if k > 0 and cur.kind != inst.self_addr:
        raise Undef("burning tokens of a different issuer")
    if k < 0:
        raise Undef("negative burn amount")
    if cur.value < k:
        raise Undef(f"burn of {k} from container holding {cur.value}")
    src.write(Tok(cur.kind if cur.value > k else None, cur.value - k))


def _token_move(s: OpStmt, inst, b, sender):
    src = resolve_slot(s.args[0], inst, b, "token")
    before = _as_token(src.read())
    k = _eval(s.args[1], inst, b) if s.op == "move" else before.value
    if k < 0 or before.value < k:
        raise Undef(f"token move of {k} from container holding {before.value}")
    src.write(Tok(before.kind if before.value > k else None, before.value - k))
    dst = resolve_slot(s.args[-1], inst, b, "token")
    dst.write(_merge_tokens(_as_token(dst.read()), before.kind, k))


def _timer_set(s: OpStmt, inst, b, sender):
    slot = resolve_slot(s.args[0], inst, b)
    k = _eval(s.args[1], inst, b)
    if slot.read().state != "off":
        raise Undef("Timer.set on a timer that is not Off")
    if k <= 0:
        raise Undef("Timer.set requires a positive duration")
    slot.write(Timer("active", k))


def _timer_reset(s: OpStmt, inst, b, sender):
    resolve_slot(s.args[0], inst, b).write(TIMER_OFF)


def _map_set(s: OpStmt, inst, b, sender):
    slot = resolve_slot(s.args[0], inst, b)
    k = _eval(s.args[1], inst, b)
    slot.write(slot.read().put(k, _eval(s.args[2], inst, b)))


def _entry_set(s: OpStmt, inst, b, sender):
    slot = resolve_slot(Builtin(s.ns, "ref", s.args[:2]), inst, b)
    slot.write(_eval(s.args[2], inst, b))


def _seq_append(s: OpStmt, inst, b, sender):
    slot = resolve_slot(s.args[0], inst, b)
    slot.write(SeqVal(slot.read().items + [_eval(s.args[1], inst, b)]))


def _change_owner(s: OpStmt, inst, b, sender):
    if sender is None or sender != inst.owner:
        raise Undef("change_owner requires a message from the current owner")
    new = _eval(s.args[0], inst, b)
    if new == ADDR_NONE:
        raise Undef("cannot transfer ownership to Address.none")
    inst.owner = new


_OPS = _Table({
    ("Coin", "move"): _coin_move, ("Coin", "moveall"): _coin_move,
    ("Token", "issue"): _token_issue, ("Token", "burn"): _token_burn,
    ("Token", "move"): _token_move, ("Token", "moveall"): _token_move,
    ("Timer", "set"): _timer_set, ("Timer", "reset"): _timer_reset,
    ("Map", "set"): _map_set, ("Seq", "set"): _entry_set, ("Tuple", "set"): _entry_set,
    ("Seq", "append"): _seq_append, ("Address", "change_owner"): _change_owner,
})


def _exec_send(s: Send, ctx: StepContext):
    inst, b = ctx.inst, ctx.bindings
    dest = ADDR_NONE if s.dest is None else _eval(s.dest, inst, b)
    out_args = []
    for a in s.args:
        if is_lvalue(a):
            slot = resolve_slot(a, inst, b)
            v = slot.read()
            if isinstance(v, Coin):
                slot.write(Coin(0))
                out_args.append(v)
                continue
            if isinstance(v, Tok):
                slot.write(Tok(None, 0))
                out_args.append(v)
                continue
        out_args.append(_eval(a, inst, b))
    letter = OutputLetter(s.msg, dest, tuple(out_args))
    if s.is_log:
        ctx.logs.append(letter)
    else:
        ctx.outputs.append(letter)


_STMTS = _Table({
    Assign: _exec_assign, If: _exec_if, Send: _exec_send,
    OpStmt: lambda s, ctx: _OPS[s.ns, s.op](s, ctx.inst, ctx.bindings, ctx.sender),
})


# ---------------------------------------------------------------------------
# Guards and stepping
# ---------------------------------------------------------------------------


def match_input(t: TypedTransition, inst: InstanceState, letter: InputLetter):
    """Bindings if the input guard matches the letter at this instance,
    else None. Guards that are undefined do not enable."""
    if t.input is None or t.msg != letter.msg:
        return None
    if len(letter.args) != len(t.param_types):
        return None
    bindings = dict(zip(t.binders, (letter.sender, *letter.args)))
    return t.action_view(bindings) if all_true(t.guards, inst, bindings) else None


def enabled_transitions(tc: TypedContract, inst: InstanceState,
                        letter: InputLetter | None = None):
    """Normalized transitions enabled at the instance for the given input
    letter (None: internal/tau transitions), with their bindings."""
    out = []
    if letter is None:
        for t in tc.reception_table.get((inst.skeleton, None), ()):
            if all_true(t.guards, inst, {}):
                out.append((t, {}))
        return out
    for t in tc.reception_table.get((inst.skeleton, letter.msg), ()):
        b = match_input(t, inst, letter)
        if b is not None:
            out.append((t, b))
    return out


def step_instance(tc: TypedContract, inst: InstanceState, t: TypedTransition,
                  bindings: dict[str, object], sender: str | None = None):
    """Execute one transition: (inst', outputs, logs), or None when its
    action is undefined (the input instance is then unchanged)."""
    work = inst.clone()
    ctx = StepContext(work, dict(bindings), sender)
    try:
        for s in t.action:
            _exec_stmt(s, ctx)
        # Received coins/tokens must have been fully transferred; leftover
        # value in a dropped binder would break conservation.
        for name, v in ctx.bindings.items():
            if isinstance(v, (Coin, Tok)) and v.value != 0:
                raise Undef(f"received {name!r} retains value at end of action")
    except Undef:
        return None
    work.skeleton = t.target
    return work, tuple(ctx.outputs), tuple(ctx.logs)


def receptions(tc: TypedContract, inst: InstanceState,
               letter: InputLetter | None):
    """(t, inst', outputs, logs) for each normalized transition that the
    letter enables at the instance (the taus when it is None) and whose
    action is defined, in transition order."""
    return defined_steps(tc, inst, enabled_transitions(tc, inst, letter),
                         None if letter is None else letter.sender)


def defined_steps(tc: TypedContract, inst: InstanceState, enabled_pairs, sender):
    """(t, inst', outputs, logs) for each enabled (t, bindings) whose
    action is defined at the instance, in order."""
    out = []
    for t, b in enabled_pairs:
        res = step_instance(tc, inst, t, b, sender)
        if res is not None:
            out.append((t, *res))
    return out


def advance_instance(inst: InstanceState, delta: int) -> InstanceState:
    """Advance every timer of the instance by the same delta >= 1: an
    active one fires iff delta >= its remaining units; Off and Fired are
    unchanged."""
    out = inst.clone()
    for k, v in out.env.items():
        if isinstance(v, Timer) and v.state == "active":
            out.env[k] = Timer("active", v.k - delta) if v.k > delta else TIMER_FIRED
    return out


def has_active_timer(inst: InstanceState) -> bool:
    return any(isinstance(v, Timer) and v.state == "active"
               for v in inst.env.values())
