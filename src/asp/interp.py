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

The partial operations on flat values are values' shared ones, which the
engine's generated code runs too; this module's own are the expression
walk, arm matching and the word-width checks applied after each shared
operation. The abstract machine in machine.py, with values' boxed
operations, is the independent oracle the differential tests compare
against.
"""
from __future__ import annotations

import copy
import hashlib
import json
from dataclasses import dataclass, field
from functools import cache

from .ast_nodes import Assign, Binop, Builtin, Expr, If, Lit, OpStmt, Quant, Send, Stmt, Unop, Var
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


def init_storage(ir: ContractIR, addr: str, args: dict, creator: str,
                 word_bits: int) -> Storage:
    st = Storage(ir.name, addr, ir.initial, {}, creator, creator,
                 remaining=ir.issue_limit if ir.issues else None)
    for pname, _ in ir.params:
        st.vars[pname] = flat(args[pname])
    ev = _Eval(None, st, {}, word_bits)
    for v in ir.vars.values():
        if v.init is not None:
            st.vars[v.name] = ev.eval(v.init)
        else:
            st.vars[v.name] = flat(zero_value(v.typ))
    return st


@dataclass
class Letter:
    kind: str  # "send" | "log"
    msg: str
    dest: str
    args: tuple

    def to_json(self):
        return {"kind": self.kind, "msg": self.msg, "dest": self.dest,
                "args": [list(a) if isinstance(a, tuple) else a for a in self.args]}


@dataclass
class TxResult:
    status: str  # "committed" | "reverted"
    reason: str | None = None
    letters: list = field(default_factory=list)

    @property
    def committed(self) -> bool:
        return self.status == "committed"


_FAILURES = (CallFailed, TxRevert, Undef)


def _reverted(e: Exception) -> TxResult:
    return TxResult("reverted", "UndefinedOp" if isinstance(e, Undef) else e.reason)


# ---------------------------------------------------------------------------
# Bounded evaluation
# ---------------------------------------------------------------------------


@cache
def _word_bounds(word_bits: int) -> tuple[int, int, int]:
    """The unsigned maximum, signed minimum and signed maximum of a word."""
    return (1 << word_bits) - 1, -(1 << (word_bits - 1)), (1 << (word_bits - 1)) - 1


class _Eval:
    def __init__(self, ir: ContractIR | None, st: Storage, binds: dict,
                 word_bits: int):
        self.ir = ir
        self.st = st
        self.binds = binds
        self.umax, self.imin, self.imax = _word_bounds(word_bits)

    def check_unsigned(self, n: int) -> int:
        if n > self.umax:
            raise TxRevert("Overflow", f"value {n} exceeds the word size")
        if n < 0:
            raise Undef("negative natural")
        return n

    def check_signed(self, n: int) -> int:
        if n > self.imax or n < self.imin:
            raise TxRevert("Overflow", f"value {n} exceeds the signed word")
        return n

    def eval(self, e: Expr):
        if isinstance(e, Lit):
            return e.value
        if isinstance(e, Var):
            if e.name in self.binds:
                return self.binds[e.name]
            if e.name == "owner":
                return self.st.owner
            if e.name == "creator":
                return self.st.creator
            if e.name not in self.st.vars:
                raise Undef(f"unknown name {e.name}")
            return self.st.vars[e.name]
        if isinstance(e, Unop):
            v = self.eval(e.operand)
            return (not v) if e.op == "!" else self.check_signed(-v)
        if isinstance(e, Binop):
            l = self.eval(e.left)
            r = self.eval(e.right)
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
            if op == "+":
                return self._range(l + r)
            if op == "-":
                return self._range(l - r)
            if op == "-nat":
                return nat_sub(l, r)
            if op == "*":
                return self._range(l * r)
            if op == "/":
                return div(l, r)
            if op == "%":
                return mod(l, r)
            raise ValueError(op)
        if isinstance(e, Builtin):
            return self._builtin(e)
        if isinstance(e, Quant):
            raise Undef("quantifier in executable code")
        raise ValueError(e)

    def _range(self, n: int) -> int:
        # widest per-operation bound: non-negative results fit the unsigned
        # word, negative ones the signed word; declared-type bounds apply
        # where values are stored
        if n > self.umax or n < self.imin:
            raise TxRevert("Overflow", f"value {n} exceeds the word size")
        return n

    def _builtin(self, e: Builtin):
        key = (e.ns, e.op)
        if key == ("Address", "none"):
            return ADDR_NONE
        if key == ("Address", "self"):
            return self.st.addr
        args = [self.eval(a) for a in e.args]
        if key == ("Coin", "value"):
            return args[0]
        if key == ("Token", "value"):
            return args[0][1]
        if key == ("Timer", "is_off"):
            return args[0][0] == "off"
        if key == ("Timer", "is_active"):
            return args[0][0] == "active"
        if key == ("Timer", "has_fired"):
            return args[0][0] == "fired"
        if key == ("Timer", "value"):
            return timer_read(args[0])
        if key in (("Map", "get"), ("Map", "ref")):
            m, k = args
            if k in m:
                return m[k]
            d = _default(self.ir, e.args[0])
            if d is None:
                raise Undef("missing map entry")
            return d
        if key == ("Map", "in"):
            return args[0] in args[1]
        if key in (("Seq", "get"), ("Seq", "ref")):
            return seq_get(*args)
        if key == ("Seq", "len"):
            return len(args[0])
        if key in (("Tuple", "get"), ("Tuple", "ref")):
            return args[0][args[1]]
        raise ValueError(key)


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
        # per contract, the variables whose type holds a coin
        self.coin_vars = {cname: tuple(v for v in ir.vars.values() if _holds_coin(v.typ))
                          for cname, ir in system.contracts.items()}
        for inst in instantiations:
            self.deploy(*inst)

    def deploy(self, name: str, cname: str, args: dict, creator: str):
        """Add instance `name` of contract `cname` at its initial storage;
        TxRevert if an initializer overflows the word or the constructor
        constraint does not hold."""
        ir = self.system.contracts[cname]
        st = init_storage(ir, name, args, creator, self.system.word_bits)
        if ir.where is not None:
            ok = _Eval(ir, st, {}, self.system.word_bits).eval(ir.where)
            if ok is not True:
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

    def ir_of(self, addr: str) -> ContractIR:
        return self.system.contracts[self.storages[addr].contract]

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
        timers = [(st, v.name) for name, st in self.storages.items()
                  for v in self.ir_of(name).vars.values() if v.typ.kind == "timer"]
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
        """Dispatch: the first arm of target's method for msg whose guards
        hold at its current state, as (target, ir, storage, arm, bindings).
        Writes nothing. CallFailed if no arm takes the message; TxRevert
        past the reentrancy limit or when a guard overflows."""
        if target not in self.storages:
            raise CallFailed(f"no contract at {target}")
        ir = self.ir_of(target)
        st = self.storages[target]
        if st.counter > self.system.reentrancy_limit:
            raise TxRevert("ReentrancyLimit",
                           f"{target} already has {st.counter} active entries")
        for arm in ir.methods.get(msg, ()):
            if arm.source != st.state:
                continue
            binds = {}
            if arm.sender_fresh:
                binds[arm.input.sender] = sender
            elif _Eval(ir, st, binds, self.system.word_bits).eval(
                    Var(arm.input.sender)) != sender:
                continue
            if len(args) != len(arm.input.params):
                continue
            for name, value in zip(arm.input.params, args):
                binds[name] = value
            ev = _Eval(ir, st, binds, self.system.word_bits)
            try:
                if arm.when is not None and ev.eval(arm.when) is not True:
                    continue
                if arm.access is not None:
                    kind, e = arm.access
                    v = ev.eval(e)
                    if kind == "by" and sender != v:
                        continue
                    if kind == "notby" and sender == v:
                        continue
            except Undef:
                continue  # guard undefined: arm not enabled
            return target, ir, st, arm, binds
        raise CallFailed(f"{msg} not receivable at {st.state}")

    def _run_arm(self, chosen, sender: str, args: tuple, letters: list):
        """Run the arm _select chose: its body, its defensive checks and
        the tau closure after it."""
        target, ir, st, arm, binds = chosen
        st.counter += 1
        try:
            # credit incoming coins before running the body
            incoming = sum(a for a, t in zip(args, arm.param_types)
                           if t.kind == "coin")
            ev = _Eval(ir, st, binds, self.system.word_bits)
            st.ledger = ev.check_unsigned(st.ledger + incoming)
            self._exec(ir, st, binds, sender, arm.action, letters)
            # defensive: received resources fully transferred
            for name, t in zip(arm.input.params, arm.param_types):
                if t.kind == "coin" and binds.get(name, 0) != 0:
                    raise TxRevert("DefensiveCheckFailed",
                                   f"coin binder {name} not drained")
                if t.kind == "token" and binds.get(name, (None, 0))[1] != 0:
                    raise TxRevert("DefensiveCheckFailed",
                                   f"token binder {name} not drained")
            st.state = arm.target
            self._tau_closure(target, letters)
            self._conservation(ir, st)
        finally:
            st.counter -= 1

    def _enabled_taus(self, addr: str):
        """The tau arms at addr's current state whose guard holds, in
        order, each tested when the one before it is passed over; an
        undefined guard does not hold."""
        ir = self.ir_of(addr)
        st = self.storages[addr]
        for arm in ir.taus.get(st.state, ()):
            try:
                if arm.when is not None and \
                        _Eval(ir, st, {}, self.system.word_bits).eval(arm.when) is not True:
                    continue
            except Undef:
                continue
            yield arm

    def _tau_closure(self, addr: str, letters: list) -> bool:
        """Repeat internal transitions until none is enabled, and return
        whether any ran; a tau arm whose body is undefined or whose send is
        refused rolls back and the next arm is tried."""
        ir = self.ir_of(addr)
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
                    self._exec(ir, self.storages[addr], {}, None, arm.action,
                               letters, pending=pending)
                    self.storages[addr].state = arm.target
                    for letter in pending:
                        if letter.dest in self.storages:
                            self._call(letter.dest, letter.msg, addr, letter.args, letters)
                        else:
                            letters.append(letter)
                    self._conservation(ir, self.storages[addr])
                    break
                except (CallFailed, Undef):
                    self._restore(snapshot)
                    del letters[marker:]
            else:
                return steps > 0
        raise TxRevert("DefensiveCheckFailed", "tau closure diverges")

    def _conservation(self, ir: ContractIR, st: Storage):
        total = sum(_coins_in(v.typ, st.vars[v.name]) for v in self.coin_vars[ir.name])
        if total != st.ledger:
            raise TxRevert("DefensiveCheckFailed",
                           f"coin ledger {st.ledger} != holdings {total}")

    # -- statement execution --

    def _exec(self, ir, st, binds, sender, stmts, letters, pending=None):
        for s in stmts:
            self._stmt(ir, st, binds, sender, s, letters, pending)

    def _stmt(self, ir, st, binds, sender, s: Stmt, letters, pending=None):
        ev = _Eval(ir, st, binds, self.system.word_bits)
        if isinstance(s, Assign):
            vi = ir.vars.get(s.target)
            st.vars[s.target] = _check_store(ev, vi and vi.typ, ev.eval(s.value))
            return
        if isinstance(s, If):
            branch = s.then if ev.eval(s.cond) is True else s.els
            self._exec(ir, st, binds, sender, branch, letters, pending)
            return
        if isinstance(s, Send):
            self._send(ir, st, binds, s, letters, pending)
            return
        assert isinstance(s, OpStmt)
        key = (s.ns, s.op)
        if key in (("Coin", "move"), ("Coin", "moveall")):
            src = _slot(ir, st, binds, ev, s.args[0], "coin")
            amount = ev.eval(s.args[1]) if s.op == "move" else src.read()
            src.write(coin_cut(src.read(), amount))
            dst = _slot(ir, st, binds, ev, s.args[-1], "coin")
            dst.write(ev.check_unsigned(dst.read() + amount))
            return
        if key in (("Token", "move"), ("Token", "moveall")):
            src = _slot(ir, st, binds, ev, s.args[0], "token")
            moved = src.read()
            amount = ev.eval(s.args[1]) if s.op == "move" else moved[1]
            src.write(token_cut(moved, amount))
            _merge(ev, _slot(ir, st, binds, ev, s.args[-1], "token"), moved[0], amount)
            return
        if key == ("Token", "issue"):
            n = ev.eval(s.args[0])
            st.remaining = issue_supply(n, st.remaining)
            _merge(ev, _slot(ir, st, binds, ev, s.args[1], "token"), st.addr, n)
            return
        if key == ("Token", "burn"):
            src = _slot(ir, st, binds, ev, s.args[0], "token")
            src.write(token_burn(src.read(), ev.eval(s.args[1]), st.addr))
            return
        if key == ("Timer", "set"):
            name = s.args[0].name
            k = ev.eval(s.args[1])
            started = timer_start(st.vars[name], k)
            ev.check_unsigned(k)
            st.vars[name] = started
            return
        if key == ("Timer", "reset"):
            st.vars[s.args[0].name] = ("off", 0)
            return
        if key == ("Map", "set"):
            slot = _slot(ir, st, binds, ev, s.args[0])
            k = ev.eval(s.args[1])
            v = _check_store(ev, _elem_type(ir, s.args[0]), ev.eval(s.args[2]))
            slot.write({**slot.read(), k: v})
            return
        if key in (("Seq", "set"), ("Tuple", "set")):
            ref = Builtin(s.ns, "ref", s.args[:2])
            slot = _slot(ir, st, binds, ev, ref)
            slot.write(_check_store(ev, _loc_type(ir, ref), ev.eval(s.args[2])))
            return
        if key == ("Seq", "append"):
            slot = _slot(ir, st, binds, ev, s.args[0])
            v = _check_store(ev, _elem_type(ir, s.args[0]), ev.eval(s.args[1]))
            slot.write((*slot.read(), v))
            return
        if key == ("Address", "change_owner"):
            if sender is None or sender != st.owner:
                raise Undef("change_owner not by the owner")
            new = ev.eval(s.args[0])
            if new == ADDR_NONE:
                raise Undef("owner cannot become none")
            st.owner = new
            return
        raise ValueError(key)

    def _send(self, ir, st, binds, s: Send, letters, pending=None):
        ev = _Eval(ir, st, binds, self.system.word_bits)
        dest = ADDR_NONE if s.dest is None else ev.eval(s.dest)
        out_args = []
        coin_out = 0
        for a, kind in zip(s.args, s.kinds, strict=True):
            if kind is None:
                out_args.append(ev.eval(a))
                continue
            slot = _slot(ir, st, binds, ev, a)
            v = slot.read()
            slot.write(0 if kind == "coin" else (None, 0))
            if kind == "coin":
                coin_out += v
            out_args.append(v)
        st.ledger -= coin_out
        letter = Letter("log" if s.dest is None else "send", s.msg, dest, tuple(out_args))
        if s.dest is not None and pending is not None:
            pending.append(letter)  # a tau arm's send runs after its body
        else:  # a log; normalized dispatch arms send nothing else
            letters.append(letter)


class _SlotRef:
    __slots__ = ("read", "write")

    def __init__(self, read, write):
        self.read = read
        self.write = write


def _slot(ir, st, binds, ev, a: Expr, materialize: str | None = None) -> _SlotRef:
    """The slot of an lvalue. An absent map entry takes the declared
    default; a coin/token move materializes an empty container for the
    entry it writes, never for an entry under it; otherwise the access is
    undefined."""
    if isinstance(a, Var):
        name = a.name
        if name in binds:
            return _SlotRef(lambda: binds[name],
                            lambda v: binds.__setitem__(name, v))
        return _SlotRef(lambda: st.vars[name],
                        lambda v: st.vars.__setitem__(name, v))
    assert isinstance(a, Builtin) and a.op == "ref"
    # an entry is read and written through its container's slot, so two
    # slots into one container see each other's writes
    base = _slot(ir, st, binds, ev, a.args[0])
    if a.ns == "Map":
        k = ev.eval(a.args[1])
        if k not in base.read():
            if (d := _default(ir, a.args[0])) is not None:
                base.write({**base.read(), k: d})
            elif materialize is not None:
                base.write({**base.read(), k: (None, 0) if materialize == "token" else 0})
            else:
                raise Undef("missing map entry")
        return _SlotRef(lambda: base.read()[k],
                        lambda v: base.write({**base.read(), k: v}))
    if a.ns == "Seq":
        i = ev.eval(a.args[1])
        seq_get(base.read(), i)  # undefined out of bounds
    else:
        i = a.args[1].value
    return _SlotRef(lambda: base.read()[i],
                    lambda v: base.write((*base.read()[:i], v, *base.read()[i + 1:])))


def _default(ir: ContractIR | None, m: Expr):
    """The declared default of a map variable, or None."""
    vi = ir.vars.get(m.name) if ir is not None and isinstance(m, Var) else None
    return vi and vi.default


def _merge(ev: _Eval, dst: _SlotRef, kind, amount: int):
    """Add `amount` tokens of `kind` to the slot dst, within the word."""
    kind, held = token_merge(dst.read(), kind, amount)
    dst.write((kind, ev.check_unsigned(held)))


def _loc_type(ir: ContractIR, e: Expr):
    """The declared type of a storage location; None under a binder."""
    if isinstance(e, Var):
        vi = ir.vars.get(e.name)
        return vi and vi.typ
    t = _loc_type(ir, e.args[0])
    return t and t.args[e.args[1].value if e.ns == "Tuple" else -1]


def _elem_type(ir: ContractIR, container: Expr):
    """The declared type of a map's values or a sequence's elements."""
    t = _loc_type(ir, container)
    return t and t.args[-1]


def _check_store(ev: _Eval, typ, v):
    """Declared-width check at store sites: ints fit the signed word,
    nats/coins the unsigned word; nothing under a binder (typ None)."""
    if typ is None:
        return v
    if typ.kind == "int":
        return ev.check_signed(v)
    if typ.kind in ("nat", "coin"):
        return ev.check_unsigned(v)
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
