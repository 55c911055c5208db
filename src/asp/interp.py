"""Interpreter for the method-form IR with word-bounded arithmetic.

Models target-platform execution: one transaction invokes a public method;
sends run as synchronous calls into other contracts; every arithmetic
result is range-checked against the configured word size. Any overflow,
failed dispatch, failed defensive check, undefined operation, or
reentrancy-limit breach reverts the whole transaction atomically (storage
is restored bit-for-bit). Dispatch -- the no-contract and reentrancy checks
and the arms' guards -- writes nothing, so a transaction is snapshotted only
once an arm is chosen, and one that reverts at dispatch needs no restore.

Within a tau closure, a callee refusing a message (no arm, guard false, or
an undefined operation in its dispatch arm) is a soft failure: the calling
tau arm rolls back and alternatives are tried, mirroring the abstract
semantics where such a transition simply does not exist. An undefined
operation raises Undef and reverts with UndefinedOp. Overflow and
reentrancy breaches are hard: the abstract semantics has no such notion,
so the defensive code cancels the transaction.

Storage holds each value in its flat form (values.flat), the form the
discharge engine's valuations use: a coin is its amount, a token
(kind, amount), a timer (state, k), a sequence or tuple a tuple, a map a
dict. Stored values are never changed in place: a write into a map,
sequence or tuple stores an updated container in its slot, so a snapshot
copies each storage's variable dict and shares the values.

Each contract is turned into closures once, when a Machine is built, and
its forks share them (Feeley & Lapalme, "Using closures for code
generation", 1987): an expression becomes a function of (storage,
bindings), a statement a function of (storage, bindings, sender, letters,
pending), a slot a function that resolves an lvalue to a location. Each
closure holds the word bounds and the contract's map defaults, and knows
statically which names are bound. A dispatch arm has one guard closure
(the sender match, `when`, then the access guard) and one body closure; a
tau arm has a guard and a body. Operands are evaluated strictly, left
first. The rule for each node class, operator, builtin and statement
operation is a row of `_EXPRS`, `_BINOPS`/`_WORD_OPS`, `_BUILTINS`,
`_STMTS` or `_OPS`.

The partial operations on flat values are values' shared ones, which the
engine's generated code runs too; this module's own are the expression
closures, arm matching and the word-width checks applied after each shared
operation. The abstract machine in machine.py, with values' boxed
operations, is the independent oracle the differential tests compare
against.
"""
from __future__ import annotations

import copy
import hashlib
import json
import operator
from dataclasses import dataclass

from .ast_nodes import Assign, Binop, Builtin, If, Lit, OpStmt, Send, Unop, Var
from .lower import ContractIR, SystemIR
from .values import (
    ADDR_NONE, Undef, coin_cut, div, flat, issue_supply, mod, nat_sub, seq_get,
    timer_read, timer_start, timer_tick, token_burn, token_cut, token_merge, zero_value,
)

REASONS = ("GuardFailed", "DefensiveCheckFailed", "Overflow", "UndefinedOp",
           "ReentrancyLimit")


class TxRevert(Exception):
    """Hard failure: cancels the entire transaction."""

    def __init__(self, reason: str, detail: str = ""):
        super().__init__(f"{reason}: {detail}")
        self.reason = reason
        self.detail = detail


class CallFailed(Exception):
    """Soft failure of a callee's dispatch: no arm takes the message, so
    the corresponding abstract transition does not exist; the caller tries
    alternatives."""

    reason = "GuardFailed"


@dataclass
class Storage:
    contract: str
    addr: str
    state: str
    vars: dict
    owner: str
    creator: str
    counter: int = 0  # active entries (reentrancy counter)
    ledger: int = 0  # coins received minus coins sent (defensive)
    remaining: int | None = None

    def clone(self) -> "Storage":
        return Storage(self.contract, self.addr, self.state,
                       dict(self.vars), self.owner, self.creator,
                       self.counter, self.ledger, self.remaining)


def init_storage(code: _Contract, addr: str, args: dict, creator: str) -> Storage:
    ir = code.ir
    st = Storage(ir.name, addr, ir.initial, {}, creator, creator,
                 remaining=ir.issue_limit if ir.issues else None)
    for pname, _ in ir.params:
        st.vars[pname] = flat(args[pname])
    for name, init, typ in code.inits:
        st.vars[name] = flat(zero_value(typ)) if init is None else init(st, {})
    return st


@dataclass
class Letter:
    kind: str  # "send" | "log"
    msg: str
    dest: str
    args: tuple


@dataclass
class TxResult:
    status: str  # "committed" | "reverted"
    reason: str | None = None
    letters: list | tuple = ()  # a committed transaction's, in order

    @property
    def committed(self) -> bool:
        return self.status == "committed"


_FAILURES = (CallFailed, TxRevert, Undef)


def _reverted(e: Exception) -> TxResult:
    return TxResult("reverted", "UndefinedOp" if isinstance(e, Undef) else e.reason)


# ---------------------------------------------------------------------------
# Closures, built once per contract
# ---------------------------------------------------------------------------


class _Builder:
    """Turns one contract's IR into closures. `scope` is the set of names
    the bindings hold where the closure runs: the arm's binders."""

    def __init__(self, ir: ContractIR, word_bits: int):
        self.ir = ir
        # a word's unsigned maximum, and its signed maximum and minimum
        umax, imax = (1 << word_bits) - 1, (1 << (word_bits - 1)) - 1
        imin = -imax - 1
        self.umax, self.imin = umax, imin

        def unsigned(n: int) -> int:
            if n > umax:
                raise TxRevert("Overflow", f"value {n} exceeds the word size")
            if n < 0:
                raise Undef("negative natural")
            return n

        def signed(n: int) -> int:
            if n > imax or n < imin:
                raise TxRevert("Overflow", f"value {n} exceeds the signed word")
            return n

        self.unsigned, self.signed = unsigned, signed

    def expr(self, e, scope):
        return _EXPRS[type(e)](self, e, scope)

    def block(self, stmts, scope):
        run = tuple(_STMTS[type(s)](self, s, scope) for s in stmts)
        if len(run) == 1:
            return run[0]

        def block(st, b, sender, letters, pending):
            for f in run:
                f(st, b, sender, letters, pending)
        return block

    def slot(self, a, scope, materialize: str | None = None):
        """A closure that resolves the lvalue `a` to its location
        (holder, key, path): the entry reached by `path` inside
        `holder[key]`, where holder is the storage's variables or the
        bindings. An absent map entry takes the declared default; a
        coin/token move materializes an empty container for the entry it
        writes, never for an entry under it; otherwise the access is
        undefined. An entry is read and written through its container's
        holder, so two locations in one container see each other's
        writes."""
        if isinstance(a, Var):
            name = a.name
            if name in scope:
                return lambda st, b: (b, name, ())
            return lambda st, b: (st.vars, name, ())
        assert isinstance(a, Builtin) and a.op == "ref"
        base = self.slot(a.args[0], scope)
        if a.ns == "Map":
            key = self.expr(a.args[1], scope)
            fill = _default(self.ir, a.args[0])
            if fill is None:
                fill = {"coin": 0, "token": (None, 0)}.get(materialize)

            def entry(st, b):
                holder, name, path = base(st, b)
                k = key(st, b)
                m = _read(holder, name, path)
                if k not in m:
                    if fill is None:
                        raise Undef("missing map entry")
                    _write(holder, name, path, {**m, k: fill})
                return holder, name, (*path, k)
            return entry
        if a.ns == "Seq":
            index = self.expr(a.args[1], scope)

            def element(st, b):
                holder, name, path = base(st, b)
                i = index(st, b)
                seq_get(_read(holder, name, path), i)  # undefined out of bounds
                return holder, name, (*path, i)
            return element
        i = a.args[1].value

        def component(st, b):
            holder, name, path = base(st, b)
            return holder, name, (*path, i)
        return component

    def merge(self, dst):
        """A closure adding `amount` tokens of `kind` to the location that
        dst resolves, within the word."""
        unsigned = self.unsigned

        def merge(st, b, kind, amount):
            loc = dst(st, b)
            kind, held = token_merge(_read(*loc), kind, amount)
            _write(*loc, (kind, unsigned(held)))
        return merge


def _read(holder: dict, name: str, path: tuple):
    v = holder[name]
    for k in path:
        v = v[k]
    return v


def _write(holder: dict, name: str, path: tuple, v):
    holder[name] = _put(holder[name], path, v) if path else v


def _put(c, path: tuple, v):
    """The container c with the entry at path replaced by v."""
    k, rest = path[0], path[1:]
    if rest:
        v = _put(c[k], rest, v)
    if isinstance(c, dict):
        return {**c, k: v}
    return (*c[:k], v, *c[k + 1:])


def _rule(table: dict, *keys):
    """Register the decorated builder under each key of the table."""
    def put(f):
        for k in keys:
            table[k] = f
        return f
    return put


# -- expressions: closures of (storage, bindings) --

_EXPRS: dict = {}  # node class -> builder
_BUILTINS: dict = {}  # (ns, op) -> builder
# operators on two values; both operands are evaluated, left first
_BINOPS = {
    "&&": lambda l, r: l and r, "||": lambda l, r: l or r,
    "==>": lambda l, r: (not l) or r,
    "==": operator.eq, "!=": operator.ne, "<": operator.lt, "<=": operator.le,
    ">": operator.gt, ">=": operator.ge,
    "-nat": nat_sub, "/": div, "%": mod,
}
# operators whose result is checked against the word: the widest bound per
# operation, the unsigned word above zero and the signed one below it;
# declared-type bounds apply where values are stored
_WORD_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul}


@_rule(_EXPRS, Lit)
def _lit(bd, e: Lit, scope):
    v = e.value
    return lambda st, b: v


@_rule(_EXPRS, Var)
def _var(bd, e: Var, scope):
    """A binding, else `owner`, else `creator`, else a variable."""
    name = e.name
    if name in scope:
        return lambda st, b: b[name]
    if name == "owner":
        return lambda st, b: st.owner
    if name == "creator":
        return lambda st, b: st.creator

    def var(st, b):
        try:
            return st.vars[name]
        except KeyError:
            raise Undef(f"unknown name {name}") from None
    return var


@_rule(_EXPRS, Unop)
def _unop(bd, e: Unop, scope):
    f = bd.expr(e.operand, scope)
    if e.op == "!":
        return lambda st, b: not f(st, b)
    signed = bd.signed
    return lambda st, b: signed(-f(st, b))


@_rule(_EXPRS, Binop)
def _binop(bd, e: Binop, scope):
    l, r = bd.expr(e.left, scope), bd.expr(e.right, scope)
    if e.op not in _WORD_OPS:
        fn = _BINOPS[e.op]
        return lambda st, b: fn(l(st, b), r(st, b))
    fn = _WORD_OPS[e.op]
    umax, imin = bd.umax, bd.imin

    def word(st, b):
        n = fn(l(st, b), r(st, b))
        if n > umax or n < imin:
            raise TxRevert("Overflow", f"value {n} exceeds the word size")
        return n
    return word


@_rule(_EXPRS, Builtin)
def _builtin(bd, e: Builtin, scope):
    return _BUILTINS[e.ns, e.op](bd, e, *(bd.expr(a, scope) for a in e.args))


def _unary(fn):
    """A builtin of one evaluated argument."""
    return lambda bd, e, a: lambda st, b: fn(a(st, b))


_BUILTINS.update({
    ("Address", "none"): lambda bd, e: lambda st, b: ADDR_NONE,
    ("Address", "self"): lambda bd, e: lambda st, b: st.addr,
    ("Coin", "value"): lambda bd, e, a: a,
    ("Token", "value"): _unary(lambda t: t[1]),
    ("Timer", "is_off"): _unary(lambda t: t[0] == "off"),
    ("Timer", "is_active"): _unary(lambda t: t[0] == "active"),
    ("Timer", "has_fired"): _unary(lambda t: t[0] == "fired"),
    ("Timer", "value"): _unary(timer_read),
    ("Seq", "len"): _unary(len),
    ("Map", "in"): lambda bd, e, k, m: lambda st, b: k(st, b) in m(st, b),
    ("Seq", "get"): lambda bd, e, s, i: lambda st, b: seq_get(s(st, b), i(st, b)),
    ("Tuple", "get"): lambda bd, e, t, i: lambda st, b: t(st, b)[i(st, b)],
})
_BUILTINS["Seq", "ref"] = _BUILTINS["Seq", "get"]
_BUILTINS["Tuple", "ref"] = _BUILTINS["Tuple", "get"]


@_rule(_BUILTINS, ("Map", "get"), ("Map", "ref"))
def _map_get(bd, e: Builtin, m, k):
    """An absent entry is the map's declared default, else undefined."""
    default = _default(bd.ir, e.args[0])

    def get(st, b):
        d, key = m(st, b), k(st, b)
        if key in d:
            return d[key]
        if default is None:
            raise Undef("missing map entry")
        return default
    return get


# -- statements: closures of (storage, bindings, sender, letters, pending) --

_STMTS: dict = {}  # statement class -> builder
_OPS: dict = {}  # OpStmt (ns, op) -> builder


@_rule(_STMTS, Assign)
def _assign(bd, s: Assign, scope):
    name = s.target
    vi = bd.ir.vars.get(name)
    value = bd.expr(s.value, scope)
    check = _check_store(bd, vi and vi.typ)

    def assign(st, b, sender, letters, pending):
        st.vars[name] = check(value(st, b))
    return assign


@_rule(_STMTS, If)
def _if(bd, s: If, scope):
    cond = bd.expr(s.cond, scope)
    then, els = bd.block(s.then, scope), bd.block(s.els, scope)

    def if_(st, b, sender, letters, pending):
        (then if cond(st, b) is True else els)(st, b, sender, letters, pending)
    return if_


@_rule(_STMTS, OpStmt)
def _opstmt(bd, s: OpStmt, scope):
    return _OPS[s.ns, s.op](bd, s, scope)


@_rule(_STMTS, Send)
def _send(bd, s: Send, scope):
    """The destination, then each argument in order: a drained coin or
    token leaves its location empty. A tau arm's send is left pending, to
    run after its body; a log, and a normalized dispatch arm sends nothing
    else, goes out at once."""
    dest = (lambda st, b: ADDR_NONE) if s.dest is None else bd.expr(s.dest, scope)
    parts = tuple((kind, bd.expr(a, scope) if kind is None else bd.slot(a, scope))
                  for a, kind in zip(s.args, s.kinds, strict=True))
    is_log, msg = s.dest is None, s.msg

    def send(st, b, sender, letters, pending):
        d = dest(st, b)
        out_args = []
        coin_out = 0
        for kind, f in parts:
            if kind is None:
                out_args.append(f(st, b))
                continue
            loc = f(st, b)
            v = _read(*loc)
            _write(*loc, 0 if kind == "coin" else (None, 0))
            if kind == "coin":
                coin_out += v
            out_args.append(v)
        st.ledger -= coin_out
        letter = Letter("log" if is_log else "send", msg, d, tuple(out_args))
        (letters if is_log or pending is None else pending).append(letter)
    return send


@_rule(_OPS, ("Coin", "move"), ("Coin", "moveall"))
def _coin_move(bd, s: OpStmt, scope):
    """The source is resolved and written before the destination is
    resolved."""
    src, dst = bd.slot(s.args[0], scope, "coin"), bd.slot(s.args[-1], scope, "coin")
    amount = bd.expr(s.args[1], scope) if s.op == "move" else None
    unsigned = bd.unsigned

    def move(st, b, sender, letters, pending):
        loc = src(st, b)
        n = _read(*loc) if amount is None else amount(st, b)
        _write(*loc, coin_cut(_read(*loc), n))
        loc = dst(st, b)
        _write(*loc, unsigned(_read(*loc) + n))
    return move


@_rule(_OPS, ("Token", "move"), ("Token", "moveall"))
def _token_move(bd, s: OpStmt, scope):
    src = bd.slot(s.args[0], scope, "token")
    merge = bd.merge(bd.slot(s.args[-1], scope, "token"))
    amount = bd.expr(s.args[1], scope) if s.op == "move" else None

    def move(st, b, sender, letters, pending):
        loc = src(st, b)
        moved = _read(*loc)
        n = moved[1] if amount is None else amount(st, b)
        _write(*loc, token_cut(moved, n))
        merge(st, b, moved[0], n)
    return move


@_rule(_OPS, ("Token", "issue"))
def _token_issue(bd, s: OpStmt, scope):
    amount = bd.expr(s.args[0], scope)
    merge = bd.merge(bd.slot(s.args[1], scope, "token"))

    def issue(st, b, sender, letters, pending):
        n = amount(st, b)
        st.remaining = issue_supply(n, st.remaining)
        merge(st, b, st.addr, n)
    return issue


@_rule(_OPS, ("Token", "burn"))
def _token_burn(bd, s: OpStmt, scope):
    src, amount = bd.slot(s.args[0], scope, "token"), bd.expr(s.args[1], scope)

    def burn(st, b, sender, letters, pending):
        loc = src(st, b)
        _write(*loc, token_burn(_read(*loc), amount(st, b), st.addr))
    return burn


@_rule(_OPS, ("Timer", "set"))
def _timer_set(bd, s: OpStmt, scope):
    name, duration, unsigned = s.args[0].name, bd.expr(s.args[1], scope), bd.unsigned

    def set_(st, b, sender, letters, pending):
        k = duration(st, b)
        started = timer_start(st.vars[name], k)
        unsigned(k)
        st.vars[name] = started
    return set_


@_rule(_OPS, ("Timer", "reset"))
def _timer_reset(bd, s: OpStmt, scope):
    name = s.args[0].name

    def reset(st, b, sender, letters, pending):
        st.vars[name] = ("off", 0)
    return reset


@_rule(_OPS, ("Map", "set"))
def _map_set(bd, s: OpStmt, scope):
    slot = bd.slot(s.args[0], scope)
    key, value = bd.expr(s.args[1], scope), bd.expr(s.args[2], scope)
    check = _check_store(bd, _elem_type(bd.ir, s.args[0]))

    def map_set(st, b, sender, letters, pending):
        loc = slot(st, b)
        k = key(st, b)
        v = check(value(st, b))
        _write(*loc, {**_read(*loc), k: v})
    return map_set


@_rule(_OPS, ("Seq", "set"), ("Tuple", "set"))
def _entry_set(bd, s: OpStmt, scope):
    ref = Builtin(s.ns, "ref", s.args[:2])
    slot, value = bd.slot(ref, scope), bd.expr(s.args[2], scope)
    check = _check_store(bd, _loc_type(bd.ir, ref))

    def entry_set(st, b, sender, letters, pending):
        loc = slot(st, b)
        _write(*loc, check(value(st, b)))
    return entry_set


@_rule(_OPS, ("Seq", "append"))
def _seq_append(bd, s: OpStmt, scope):
    slot, value = bd.slot(s.args[0], scope), bd.expr(s.args[1], scope)
    check = _check_store(bd, _elem_type(bd.ir, s.args[0]))

    def append(st, b, sender, letters, pending):
        loc = slot(st, b)
        v = check(value(st, b))
        _write(*loc, (*_read(*loc), v))
    return append


@_rule(_OPS, ("Address", "change_owner"))
def _change_owner(bd, s: OpStmt, scope):
    new_owner = bd.expr(s.args[0], scope)

    def change_owner(st, b, sender, letters, pending):
        if sender is None or sender != st.owner:
            raise Undef("change_owner not by the owner")
        new = new_owner(st, b)
        if new == ADDR_NONE:
            raise Undef("owner cannot become none")
        st.owner = new
    return change_owner


# -- arms and contracts --


@dataclass(slots=True)
class _Arm:
    """A dispatch arm: `guard(storage, sender, args)` gives the arm's
    bindings, or None when it does not take the message; `body` runs its
    action. A tau arm's guard is `guard(storage)`, a bool."""

    target: str
    guard: object
    body: object
    coins_at: tuple = ()  # the indices of the coin arguments
    drained: tuple = ()  # (name, "coin" | "token") of the binders to drain


def _dispatch_arm(bd: _Builder, arm) -> _Arm:
    """The sender match (a binding, or the variable it names equal to the
    sender), the arity, then `when`, then the access guard; an undefined
    `when` or access guard leaves the arm disabled."""
    params, sender_name, fresh = arm.input.params, arm.input.sender, arm.sender_fresh
    scope = frozenset((*params, sender_name) if fresh else params)
    who = None if fresh else bd.expr(Var(sender_name), frozenset())
    when = None if arm.when is None else bd.expr(arm.when, scope)
    by, access = (None, None) if arm.access is None else \
        (arm.access[0], bd.expr(arm.access[1], scope))

    def guard(st, sender, args):
        b = {}
        if fresh:
            b[sender_name] = sender
        elif who(st, b) != sender:
            return None
        if len(args) != len(params):
            return None
        b.update(zip(params, args))
        try:
            if when is not None and when(st, b) is not True:
                return None
            if access is not None:
                v = access(st, b)
                if by == "by" and sender != v or by == "notby" and sender == v:
                    return None
        except Undef:
            return None
        return b

    kinds = [t.kind for t in arm.param_types]
    return _Arm(arm.target, guard, bd.block(arm.action, scope),
                tuple(i for i, k in enumerate(kinds) if k == "coin"),
                tuple((n, k) for n, k in zip(params, kinds) if k in ("coin", "token")))


def _tau_arm(bd: _Builder, arm) -> _Arm:
    """A tau arm's guard and body; an undefined guard does not hold."""
    when = None if arm.when is None else bd.expr(arm.when, frozenset())

    def guard(st):
        try:
            return when is None or when(st, {}) is True
        except Undef:
            return False
    return _Arm(arm.target, guard, bd.block(arm.action, frozenset()))


class _Contract:
    """One contract's closures: variable initializers, the constructor
    constraint, dispatch arms per (message, state) and tau arms per state,
    in order."""

    def __init__(self, ir: ContractIR, word_bits: int):
        bd = _Builder(ir, word_bits)
        self.ir = ir
        self.unsigned = bd.unsigned
        self.inits = tuple((v.name, None if v.init is None else bd.expr(v.init, frozenset()),
                            v.typ) for v in ir.vars.values())
        self.where = None if ir.where is None else bd.expr(ir.where, frozenset())
        self.methods: dict[tuple[str, str], list[_Arm]] = {}
        for msg, arms in ir.methods.items():
            for arm in arms:
                self.methods.setdefault((msg, arm.source), []).append(_dispatch_arm(bd, arm))
        self.taus = {s: tuple(_tau_arm(bd, arm) for arm in arms)
                     for s, arms in ir.taus.items()}
        self.timers = tuple(v.name for v in ir.vars.values() if v.typ.kind == "timer")
        self.coin_vars = tuple(v for v in ir.vars.values() if _holds_coin(v.typ))


# ---------------------------------------------------------------------------
# Transaction machine
# ---------------------------------------------------------------------------


class Machine:
    """One system of lowered contracts plus its committed storage."""

    def __init__(self, system: SystemIR,
                 instantiations: list[tuple[str, str, dict, str]]):
        self.system = system
        self.storages: dict[str, Storage] = {}
        self.order: list[str] = []
        # per contract, its closures; forks share them
        self.code = {cname: _Contract(ir, system.word_bits)
                     for cname, ir in system.contracts.items()}
        for inst in instantiations:
            self.deploy(*inst)

    def deploy(self, name: str, cname: str, args: dict, creator: str):
        """Add instance `name` of contract `cname` at its initial storage;
        TxRevert if an initializer overflows the word or the constructor
        constraint does not hold."""
        code = self.code[cname]
        st = init_storage(code, name, args, creator)
        if code.where is not None and code.where(st, {}) is not True:
            raise TxRevert("GuardFailed", "constructor constraint")
        self.storages[name] = st
        self.order.append(name)

    def fork(self) -> "Machine":
        """A machine over copies of this one's storages, the copies a
        snapshot makes: transactions on either leave the other as it is."""
        twin = copy.copy(self)
        twin.storages = self._snapshot()
        twin.order = list(self.order)
        return twin

    def _snapshot(self) -> dict:
        return {k: v.clone() for k, v in self.storages.items()}

    def _restore(self, snap: dict):
        # in place: call frames up the stack hold references to the live
        # Storage objects, so identity must survive a rollback
        for name, saved in snap.items():
            live = self.storages[name]
            live.state = saved.state
            live.vars = saved.vars
            live.owner = saved.owner
            live.creator = saved.creator
            live.counter = saved.counter
            live.ledger = saved.ledger
            live.remaining = saved.remaining

    # -- public transaction interface --

    def transact(self, target: str, msg: str, sender: str, args: tuple) -> TxResult:
        """Run one externally invoked method to completion; commit on
        success, restore storage on any failure. Dispatch writes nothing,
        so a transaction that no arm takes reverts without a snapshot."""
        try:
            chosen = self._select(target, msg, sender, args)
        except _FAILURES as e:
            return _reverted(e)
        snapshot = self._snapshot()
        letters: list[Letter] = []
        try:
            self._run_arm(chosen, sender, args, letters)
        except _FAILURES as e:
            self._restore(snapshot)
            return _reverted(e)
        return TxResult("committed", letters=letters)

    def advance(self, delta: int) -> bool:
        """Timer advance between transactions; False if no timer is active."""
        if delta < 1:
            return False
        timers = [(st, n) for st in self.storages.values()
                  for n in self.code[st.contract].timers]
        if not any(st.vars[n][0] == "active" for st, n in timers):
            return False
        for st, n in timers:
            st.vars[n] = timer_tick(st.vars[n], delta)
        return True

    def wake(self) -> list[TxResult]:
        """Run tau closures enabled by a timer advance, one committed
        pseudo-transaction per instance (mirrors the cascade harness). An
        instance with no enabled tau arm is skipped before its snapshot."""
        results = []
        for name in self.order:
            snapshot = None  # none while only guards have run
            letters: list[Letter] = []
            try:
                if next(self._enabled_taus(name), None) is None:
                    continue
                snapshot = self._snapshot()
                if self._tau_closure(name, letters):
                    results.append(TxResult("committed", letters=letters))
            except _FAILURES as e:
                if snapshot is not None:
                    self._restore(snapshot)
                results.append(_reverted(e))
        return results

    def storage_hash(self) -> str:
        blob = json.dumps(
            {name: [st.state, st.owner, st.ledger, st.remaining,
                    _canon(st.vars)]
             for name, st in sorted(self.storages.items())},
            sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()

    # -- internals --

    def _call(self, target: str, msg: str, sender: str, args: tuple,
              letters: list):
        self._run_arm(self._select(target, msg, sender, args), sender, args, letters)

    def _select(self, target: str, msg: str, sender: str, args: tuple):
        """Dispatch: the first arm of target's method for msg whose guard
        holds at its current state, as (target, code, storage, arm,
        bindings). Writes nothing. CallFailed if no arm takes the message;
        TxRevert past the reentrancy limit or when a guard overflows."""
        if target not in self.storages:
            raise CallFailed(f"no contract at {target}")
        st = self.storages[target]
        if st.counter > self.system.reentrancy_limit:
            raise TxRevert("ReentrancyLimit",
                           f"{target} already has {st.counter} active entries")
        code = self.code[st.contract]
        for arm in code.methods.get((msg, st.state), ()):
            binds = arm.guard(st, sender, args)
            if binds is not None:
                return target, code, st, arm, binds
        raise CallFailed(f"{msg} not receivable at {st.state}")

    def _run_arm(self, chosen, sender: str, args: tuple, letters: list):
        """Run the arm _select chose: its body, its defensive checks and
        the tau closure after it."""
        target, code, st, arm, binds = chosen
        st.counter += 1
        try:
            # credit incoming coins before running the body
            st.ledger = code.unsigned(st.ledger + sum(args[i] for i in arm.coins_at))
            arm.body(st, binds, sender, letters, None)
            # defensive: received resources fully transferred
            for name, kind in arm.drained:
                v = binds[name]
                if (v if kind == "coin" else v[1]) != 0:
                    raise TxRevert("DefensiveCheckFailed",
                                   f"{kind} binder {name} not drained")
            st.state = arm.target
            self._tau_closure(target, letters)
            self._conservation(code, st)
        finally:
            st.counter -= 1

    def _enabled_taus(self, addr: str):
        """The tau arms at addr's current state whose guard holds, in
        order, each tested when the one before it is passed over."""
        st = self.storages[addr]
        for arm in self.code[st.contract].taus.get(st.state, ()):
            if arm.guard(st):
                yield arm

    def _tau_closure(self, addr: str, letters: list) -> bool:
        """Repeat internal transitions until none is enabled, and return
        whether any ran; a tau arm whose body is undefined or whose send is
        refused rolls back and the next arm is tried."""
        st = self.storages[addr]
        code = self.code[st.contract]
        for steps in range(10_000):
            for arm in self._enabled_taus(addr):
                snapshot = self._snapshot()
                marker = len(letters)
                try:
                    # run the whole body first (its logs included), move
                    # to the target state, and only then perform the send:
                    # re-entering callers observe the sender's
                    # post-transition state, exactly as the
                    # synchronized-push rule prescribes
                    pending: list = []
                    arm.body(st, {}, None, letters, pending)
                    st.state = arm.target
                    for letter in pending:
                        if letter.dest in self.storages:
                            self._call(letter.dest, letter.msg, addr, letter.args, letters)
                        else:
                            letters.append(letter)
                    self._conservation(code, st)
                    break
                except (CallFailed, Undef):
                    self._restore(snapshot)
                    del letters[marker:]
            else:
                return steps > 0
        raise TxRevert("DefensiveCheckFailed", "tau closure diverges")

    def _conservation(self, code: _Contract, st: Storage):
        total = sum(_coins_in(v.typ, st.vars[v.name]) for v in code.coin_vars)
        if total != st.ledger:
            raise TxRevert("DefensiveCheckFailed",
                           f"coin ledger {st.ledger} != holdings {total}")


def _default(ir: ContractIR, m):
    """The declared default of a map variable, or None."""
    vi = ir.vars.get(m.name) if isinstance(m, Var) else None
    return vi and vi.default


def _loc_type(ir: ContractIR, e):
    """The declared type of a storage location; None under a binder."""
    if isinstance(e, Var):
        vi = ir.vars.get(e.name)
        return vi and vi.typ
    t = _loc_type(ir, e.args[0])
    return t and t.args[e.args[1].value if e.ns == "Tuple" else -1]


def _elem_type(ir: ContractIR, container):
    """The declared type of a map's values or a sequence's elements."""
    t = _loc_type(ir, container)
    return t and t.args[-1]


def _check_store(bd: _Builder, typ):
    """The declared-width check at a store site: ints fit the signed word,
    nats/coins the unsigned word; nothing under a binder (typ None)."""
    if typ is not None and typ.kind == "int":
        return bd.signed
    if typ is not None and typ.kind in ("nat", "coin"):
        return bd.unsigned
    return _same


def _same(v):
    return v


def _coins_in(typ, v) -> int:
    """Type-directed coin content (plain ints are ambiguous at this level)."""
    k = typ.kind
    if k == "coin":
        return v
    if k == "map":
        return sum(_coins_in(typ.args[1], x) for x in v.values())
    if k == "seq":
        return sum(_coins_in(typ.args[0], x) for x in v)
    if k == "tuple":
        return sum(_coins_in(a, x) for a, x in zip(typ.args, v))
    return 0


def _holds_coin(typ) -> bool:
    return typ.kind == "coin" or any(_holds_coin(a) for a in typ.args)


def _canon(v):
    if isinstance(v, dict):
        return sorted((repr(k), _canon(x)) for k, x in v.items())
    if isinstance(v, tuple):
        return [_canon(x) for x in v]
    return repr(v)
