"""Single contract instance: expression evaluation and the labeled
transition step.

A step executes one (normalized or source-level) transition's action
atomically over mathematical semantics. If any operation is undefined the
step is not a transition of the system: callers receive UNDEFINED and the
input instance is unchanged. Sends transfer the entire value of coin/token
arguments, zeroing their source containers.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .ast_nodes import Assign, Binop, Builtin, Expr, If, Lit, OpStmt, Quant, Send, Stmt, Unop, Var
from .typecheck import TypedContract, TypedTransition, is_lvalue
from .values import (
    ADDR_NONE, Coin, MapVal, SeqVal, Tok, TupVal, Timer, Undef, arith,
    copy_value, merge_tokens, timer_advance, timer_reset, timer_set,
    timer_value, token_burn_value, zero_value,
)


class Undefined:
    """Singleton outcome of an undefined operation."""

    def __repr__(self):
        return "UNDEFINED"

    def __bool__(self):
        return False


UNDEFINED = Undefined()


@dataclass(frozen=True)
class InputLetter:
    msg: str
    sender: str
    args: tuple

    def to_json(self):
        from .values import to_json
        return {"kind": "input", "msg": self.msg, "sender": self.sender,
                "args": [to_json(a) for a in self.args]}


@dataclass(frozen=True)
class OutputLetter:
    msg: str
    dest: str
    args: tuple

    def matching(self, sender: str) -> InputLetter:
        """The input letter this output synchronizes with."""
        return InputLetter(self.msg, sender, self.args)

    def to_json(self):
        from .values import to_json
        return {"kind": "output", "msg": self.msg, "dest": self.dest,
                "args": [to_json(a) for a in self.args]}


@dataclass
class InstanceState:
    contract: str
    skeleton: str
    env: dict[str, object]
    creator: str
    owner: str
    self_addr: str
    token_remaining: int | None = None

    def clone(self) -> "InstanceState":
        return InstanceState(
            self.contract, self.skeleton,
            {k: copy_value(v) for k, v in self.env.items()},
            self.creator, self.owner, self.self_addr, self.token_remaining,
        )

    def coin_total(self) -> int:
        from .values import coin_content
        return sum(coin_content(v) for v in self.env.values())

    def token_total(self) -> int:
        from .values import token_content
        return sum(token_content(v) for v in self.env.values())

    def snapshot(self):
        """Hashable-ish canonical view (for search and golden tests)."""
        from .values import to_json
        import json
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
    """Public evaluation: returns a value or UNDEFINED."""
    try:
        return _eval(e, inst, bindings)
    except Undef:
        return UNDEFINED


def _eval(e: Expr, inst: InstanceState, b: dict[str, object]):
    if isinstance(e, Lit):
        return e.value
    if isinstance(e, Var):
        if e.name in b:
            return b[e.name]
        if e.name == "owner":
            return inst.owner
        if e.name == "creator":
            return inst.creator
        if e.name not in inst.env:
            raise Undef(f"unknown name {e.name!r}")
        return inst.env[e.name]
    if isinstance(e, Unop):
        v = _eval(e.operand, inst, b)
        return (not v) if e.op == "!" else -v
    if isinstance(e, Binop):
        l = _eval(e.left, inst, b)
        r = _eval(e.right, inst, b)
        op = e.op
        if op == "&&":
            return l and r
        if op == "||":
            return l or r
        if op == "==>":
            return (not l) or r
        if op == "==":
            return l == r
        if op == "!=":
            return l != r
        if op == "<":
            return l < r
        if op == "<=":
            return l <= r
        if op == ">":
            return l > r
        if op == ">=":
            return l >= r
        if op == "-nat":
            return arith("-", l, r, nat=True)
        return arith(op, l, r, nat=False)
    if isinstance(e, Builtin):
        return _eval_builtin(e, inst, b)
    if isinstance(e, Quant):
        raise Undef("quantifiers are not evaluated by the runtime")
    raise TypeError(f"unknown expr {e!r}")


def _eval_builtin(e: Builtin, inst, b):
    key = (e.ns, e.op)
    if key == ("Address", "none"):
        return ADDR_NONE
    if key == ("Address", "self"):
        return inst.self_addr
    args = [_eval(a, inst, b) for a in e.args]
    if key == ("Coin", "value"):
        return args[0].value
    if key == ("Token", "value"):
        return args[0].value
    if key == ("Timer", "is_off"):
        return args[0].state == "off"
    if key == ("Timer", "is_active"):
        return args[0].state == "active"
    if key == ("Timer", "has_fired"):
        return args[0].state == "fired"
    if key == ("Timer", "value"):
        return timer_value(args[0])
    if key == ("Map", "get"):
        return args[0].get(args[1])
    if key == ("Map", "in"):
        return args[1].has(args[0])
    if key == ("Map", "ref"):
        return args[0].get(args[1])  # read through a ref is a plain get
    if key == ("Seq", "get") or key == ("Seq", "ref"):
        seq, i = args
        if not (0 <= i < len(seq.items)):
            raise Undef(f"sequence index {i} out of bounds")
        return seq.items[i]
    if key == ("Seq", "len"):
        return len(args[0].items)
    if key == ("Tuple", "get") or key == ("Tuple", "ref"):
        return args[0].items[args[1]]
    raise TypeError(f"unknown builtin {e.ns}.{e.op}")


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
    declared default; coin/token move targets may materialize an empty
    container instead (so new entries can be created without fabricating
    value); otherwise the access is undefined."""
    if isinstance(e, Var):
        name = e.name
        if name in b:
            return Slot(lambda: b[name], lambda v: b.__setitem__(name, v))
        if name not in inst.env:
            raise Undef(f"no such location {name!r}")
        return Slot(lambda: inst.env[name], lambda v: inst.env.__setitem__(name, v))
    assert isinstance(e, Builtin) and e.op == "ref"
    base = resolve_slot(e.args[0], inst, b, materialize).read()
    if e.ns == "Map":
        key = _eval(e.args[1], inst, b)
        m: MapVal = base
        if not m.has(key):
            if m.default is not None:
                m.set(key, copy_value(m.default))
            elif materialize == "coin":
                m.set(key, Coin(0))
            elif materialize == "token":
                m.set(key, Tok(None, 0))
            else:
                raise Undef(f"map has no entry for {key!r}")
        return Slot(lambda: m.d[key], lambda v: m.d.__setitem__(key, v))
    if e.ns == "Seq":
        i = _eval(e.args[1], inst, b)
        s: SeqVal = base
        if not (0 <= i < len(s.items)):
            raise Undef(f"sequence index {i} out of bounds")
        return Slot(lambda: s.items[i], lambda v: s.items.__setitem__(i, v))
    t: TupVal = base
    i = e.args[1].value
    return Slot(lambda: t.items[i], lambda v: t.items.__setitem__(i, v))


# ---------------------------------------------------------------------------
# Statement execution
# ---------------------------------------------------------------------------


@dataclass
class StepContext:
    inst: InstanceState
    bindings: dict[str, object]
    sender: str | None  # input letter sender, for Address.change_owner
    outputs: list[OutputLetter] = field(default_factory=list)
    logs: list[OutputLetter] = field(default_factory=list)


def _as_coin(v) -> Coin:
    if isinstance(v, Coin):
        return v
    raise Undef("expected a coin container")


def _as_token(v) -> Tok:
    if isinstance(v, Tok):
        return v
    raise Undef("expected a token container")


def _exec_stmt(s: Stmt, ctx: StepContext):
    inst, b = ctx.inst, ctx.bindings
    if isinstance(s, Assign):
        inst.env[s.target] = copy_value(_eval(s.value, inst, b))
        return
    if isinstance(s, If):
        branch = s.then if _eval(s.cond, inst, b) else s.els
        for t in branch:
            _exec_stmt(t, ctx)
        return
    if isinstance(s, Send):
        _exec_send(s, ctx)
        return
    assert isinstance(s, OpStmt)
    key = (s.ns, s.op)
    # Moves write the source before reading the destination so that a move
    # whose operands alias the same container conserves value.
    if key == ("Coin", "move"):
        src = resolve_slot(s.args[0], inst, b, "coin")
        dst = resolve_slot(s.args[2], inst, b, "coin")
        k = _eval(s.args[1], inst, b)
        before = _as_coin(src.read())
        if k < 0 or before.value < k:
            raise Undef(f"coin move of {k} from container holding {before.value}")
        src.write(Coin(before.value - k))
        dst.write(Coin(_as_coin(dst.read()).value + k))
        return
    if key == ("Coin", "moveall"):
        src = resolve_slot(s.args[0], inst, b, "coin")
        dst = resolve_slot(s.args[1], inst, b, "coin")
        amount = _as_coin(src.read()).value
        src.write(Coin(0))
        dst.write(Coin(_as_coin(dst.read()).value + amount))
        return
    if key == ("Token", "issue"):
        n = _eval(s.args[0], inst, b)
        if n < 0:
            raise Undef("negative issue amount")
        if inst.token_remaining is not None:
            if n > inst.token_remaining:
                raise Undef(
                    f"issuing {n} tokens but only {inst.token_remaining} remain")
            inst.token_remaining -= n
        dst = resolve_slot(s.args[1], inst, b, "token")
        cur = _as_token(dst.read())
        merged = merge_tokens(cur, inst.self_addr, n)
        dst.write(merged)
        return
    if key == ("Token", "burn"):
        src = resolve_slot(s.args[0], inst, b, "token")
        k = _eval(s.args[1], inst, b)
        cur = _as_token(src.read())
        if k > 0 and cur.kind != inst.self_addr:
            raise Undef("burning tokens of a different issuer")
        src.write(token_burn_value(cur, k))
        return
    if key == ("Token", "move"):
        src = resolve_slot(s.args[0], inst, b, "token")
        dst = resolve_slot(s.args[2], inst, b, "token")
        k = _eval(s.args[1], inst, b)
        before = _as_token(src.read())
        if k < 0 or before.value < k:
            raise Undef(f"token move of {k} from container holding {before.value}")
        src.write(Tok(before.kind if before.value > k else None, before.value - k))
        dst.write(merge_tokens(_as_token(dst.read()), before.kind, k))
        return
    if key == ("Token", "moveall"):
        src = resolve_slot(s.args[0], inst, b, "token")
        dst = resolve_slot(s.args[1], inst, b, "token")
        before = _as_token(src.read())
        src.write(Tok(None, 0))
        dst.write(merge_tokens(_as_token(dst.read()), before.kind, before.value))
        return
    if key == ("Timer", "set"):
        slot = resolve_slot(s.args[0], inst, b)
        k = _eval(s.args[1], inst, b)
        slot.write(timer_set(slot.read(), k))
        return
    if key == ("Timer", "reset"):
        slot = resolve_slot(s.args[0], inst, b)
        slot.write(timer_reset(slot.read()))
        return
    if key == ("Map", "set"):
        m = resolve_slot(s.args[0], inst, b).read()
        m.set(_eval(s.args[1], inst, b), copy_value(_eval(s.args[2], inst, b)))
        return
    if key == ("Seq", "set"):
        seq = resolve_slot(s.args[0], inst, b).read()
        i = _eval(s.args[1], inst, b)
        if not (0 <= i < len(seq.items)):
            raise Undef(f"sequence index {i} out of bounds")
        seq.items[i] = copy_value(_eval(s.args[2], inst, b))
        return
    if key == ("Seq", "append"):
        seq = resolve_slot(s.args[0], inst, b).read()
        seq.items.append(copy_value(_eval(s.args[1], inst, b)))
        return
    if key == ("Tuple", "set"):
        t = resolve_slot(s.args[0], inst, b).read()
        t.items[s.args[1].value] = copy_value(_eval(s.args[2], inst, b))
        return
    if key == ("Address", "change_owner"):
        if ctx.sender is None or ctx.sender != inst.owner:
            raise Undef("change_owner requires a message from the current owner")
        new = _eval(s.args[0], inst, b)
        if new == ADDR_NONE:
            raise Undef("cannot transfer ownership to Address.none")
        inst.owner = new
        return
    raise TypeError(f"unknown op {s.ns}.{s.op}")


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
        out_args.append(copy_value(_eval(a, inst, b)))
    letter = OutputLetter(s.msg, dest, tuple(out_args))
    if s.is_log:
        ctx.logs.append(letter)
    else:
        ctx.outputs.append(letter)


# ---------------------------------------------------------------------------
# Guards and stepping
# ---------------------------------------------------------------------------


def match_input(t: TypedTransition, inst: InstanceState, letter: InputLetter):
    """Bindings if the input guard matches the letter at this instance,
    else None. Guards that evaluate to Undefined do not enable."""
    if t.input is None or t.msg != letter.msg:
        return None
    if len(letter.args) != len(t.param_types):
        return None
    values = (letter.sender,) + tuple(copy_value(v) for v in letter.args)
    bindings = dict(zip(t.binders, values))
    return t.action_view(bindings) if _enabled(t, inst, bindings) else None


def _enabled(t: TypedTransition, inst, bindings) -> bool:
    try:
        return all(_eval(g, inst, bindings) is True for g in t.guards)
    except Undef:
        return False


def enabled_transitions(tc: TypedContract, inst: InstanceState,
                        letter: InputLetter | None = None,
                        normalized: bool = False):
    """Transitions enabled at the instance for the given input letter
    (None: internal/tau transitions), with their bindings."""
    out = []
    for t in tc.transitions_from(inst.skeleton, normalized):
        if letter is None:
            if t.input is None and _enabled(t, inst, {}):
                out.append((t, {}))
        else:
            b = match_input(t, inst, letter)
            if b is not None:
                out.append((t, b))
    return out


def step_instance(tc: TypedContract, inst: InstanceState, t: TypedTransition,
                  bindings: dict[str, object], sender: str | None = None):
    """Execute one transition. Returns (inst', outputs, logs) or UNDEFINED
    (in which case the input instance is unchanged)."""
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
        return UNDEFINED
    work.skeleton = t.target
    return work, tuple(ctx.outputs), tuple(ctx.logs)


def receptions(tc: TypedContract, inst: InstanceState,
               letter: InputLetter | None):
    """(t, inst', outputs, logs) for each normalized transition that the
    letter enables at the instance (the taus when it is None) and whose
    action is defined, in transition order."""
    sender = None if letter is None else letter.sender
    out = []
    for t, b in enabled_transitions(tc, inst, letter, normalized=True):
        res = step_instance(tc, inst, t, b, sender)
        if res is not UNDEFINED:
            out.append((t, *res))
    return out


def advance_instance(inst: InstanceState, delta: int) -> InstanceState:
    """Advance every timer of the instance by the same delta >= 1."""
    out = inst.clone()
    for k, v in out.env.items():
        if isinstance(v, Timer):
            out.env[k] = timer_advance(v, delta)
    return out


def has_active_timer(inst: InstanceState) -> bool:
    return any(isinstance(v, Timer) and v.state == "active"
               for v in inst.env.values())
