"""Interpreter for the method-form IR with word-bounded arithmetic.

Models target-platform execution: one transaction invokes a public method;
sends run as synchronous calls into other contracts; every arithmetic
result is range-checked against the configured word size. Any overflow,
failed dispatch, failed defensive check, undefined operation, or
reentrancy-limit breach reverts the whole transaction atomically (storage
is restored bit-for-bit).

Within a tau closure, a callee refusing a message (no arm, guard false, or
an undefined operation in its dispatch arm) is a soft failure: the calling
tau arm rolls back and alternatives are tried, mirroring the abstract
semantics where such a transition simply does not exist. Overflow and
reentrancy breaches are hard: the abstract semantics has no such notion,
so the defensive code cancels the transaction.

This module deliberately reimplements evaluation over its own storage
representation; the abstract machine in machine.py is the independent
oracle the differential tests compare against.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

from .ast_nodes import Assign, Binop, Builtin, Expr, If, Lit, OpStmt, Quant, Send, Stmt, Unop, Var
from .lower import ContractIR, SystemIR

REASONS = ("GuardFailed", "DefensiveCheckFailed", "Overflow", "UndefinedOp",
           "ReentrancyLimit")


class TxRevert(Exception):
    """Hard failure: cancels the entire transaction."""

    def __init__(self, reason: str, detail: str = ""):
        super().__init__(f"{reason}: {detail}")
        self.reason = reason
        self.detail = detail


class CallFailed(Exception):
    """Soft failure of a callee's dispatch: the corresponding abstract
    transition does not exist; the caller tries alternatives."""

    def __init__(self, reason: str, detail: str = ""):
        super().__init__(f"{reason}: {detail}")
        self.reason = reason
        self.detail = detail


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
                       _deep_copy(self.vars), self.owner, self.creator,
                       self.counter, self.ledger, self.remaining)


def _deep_copy(v):
    if isinstance(v, dict):
        return {k: _deep_copy(x) for k, x in v.items()}
    if isinstance(v, list):
        return [_deep_copy(x) for x in v]
    return v


def _zero(typ):
    k = typ.kind
    if k in ("int", "nat", "coin", "token"):
        return 0 if k != "token" else (None, 0)
    if k == "bool":
        return False
    if k == "address":
        return "none"
    if k == "timer":
        return ("off", 0)
    if k == "map":
        return {}
    if k == "seq":
        return []
    if k == "tuple":
        return [_zero(a) for a in typ.args]
    raise ValueError(k)


def init_storage(ir: ContractIR, addr: str, args: dict, creator: str,
                 word_bits: int) -> Storage:
    st = Storage(ir.name, addr, ir.initial, {}, creator, creator,
                 remaining=ir.issue_limit if ir.issues else None)
    for pname, _ in ir.params:
        st.vars[pname] = args[pname]
    ev = _Eval(None, st, {}, word_bits)
    for v in ir.vars.values():
        if v.init is not None:
            st.vars[v.name] = ev.eval(v.init)
        else:
            st.vars[v.name] = _zero(v.typ)
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


# ---------------------------------------------------------------------------
# Bounded evaluation
# ---------------------------------------------------------------------------


class _Eval:
    def __init__(self, ir: ContractIR | None, st: Storage, binds: dict,
                 word_bits: int):
        self.ir = ir
        self.st = st
        self.binds = binds
        self.umax = (1 << word_bits) - 1
        self.imin = -(1 << (word_bits - 1))
        self.imax = (1 << (word_bits - 1)) - 1

    def check_unsigned(self, n: int) -> int:
        if n > self.umax:
            raise TxRevert("Overflow", f"value {n} exceeds the word size")
        if n < 0:
            raise CallFailed("UndefinedOp", "negative natural")
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
                raise CallFailed("UndefinedOp", f"unknown name {e.name}")
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
                if l < r:
                    raise CallFailed("UndefinedOp", "nat subtraction below zero")
                return l - r
            if op == "*":
                return self._range(l * r)
            if op in ("/", "%"):
                if r == 0:
                    raise CallFailed("UndefinedOp", "division by zero")
                return l // r if op == "/" else l % r
            raise ValueError(op)
        if isinstance(e, Builtin):
            return self._builtin(e)
        if isinstance(e, Quant):
            raise CallFailed("UndefinedOp", "quantifier in executable code")
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
            return "none"
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
            if args[0][0] != "active":
                raise CallFailed("UndefinedOp", "Timer.value on non-active timer")
            return args[0][1]
        if key in (("Map", "get"), ("Map", "ref")):
            m, k = args
            if k in m:
                return m[k]
            d = self._default_of(e.args[0])
            if d is None:
                raise CallFailed("UndefinedOp", "missing map entry")
            return d
        if key == ("Map", "in"):
            return args[0] in args[1]
        if key in (("Seq", "get"), ("Seq", "ref")):
            s, i = args
            if not (0 <= i < len(s)):
                raise CallFailed("UndefinedOp", "sequence index out of bounds")
            return s[i]
        if key == ("Seq", "len"):
            return len(args[0])
        if key in (("Tuple", "get"), ("Tuple", "ref")):
            return args[0][args[1]]
        raise ValueError(key)

    def _default_of(self, map_expr: Expr):
        if isinstance(map_expr, Var) and self.ir is not None:
            vi = self.ir.vars.get(map_expr.name)
            if vi is not None and vi.default is not None:
                return vi.default
        return None


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
        for name, cname, args, creator in instantiations:
            ir = system.contracts[cname]
            st = init_storage(ir, name, args, creator, system.word_bits)
            if ir.where is not None:
                ok = _Eval(ir, st, {}, system.word_bits).eval(ir.where)
                if ok is not True:
                    raise TxRevert("GuardFailed", "constructor constraint")
            self.storages[name] = st
            self.order.append(name)

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
        success, restore storage on any failure."""
        snapshot = self._snapshot()
        letters: list[Letter] = []
        try:
            self._call(target, msg, sender, args, letters)
        except CallFailed as e:
            self._restore(snapshot)
            return TxResult("reverted", e.reason)
        except TxRevert as e:
            self._restore(snapshot)
            return TxResult("reverted", e.reason)
        return TxResult("committed", letters=letters)

    def advance(self, delta: int) -> bool:
        """Timer advance between transactions; False if no timer is active."""
        if delta < 1:
            return False
        timers = []
        for name, st in self.storages.items():
            ir = self.ir_of(name)
            for v in ir.vars.values():
                if v.typ.kind == "timer":
                    timers.append((st, v.name))
        if not any(st.vars[n][0] == "active" for st, n in timers):
            return False
        for st, n in timers:
            state, k = st.vars[n]
            if state == "active":
                st.vars[n] = ("active", k - delta) if k > delta else ("fired", 0)
        return True

    def wake(self) -> list[TxResult]:
        """Run tau closures enabled by a timer advance, one committed
        pseudo-transaction per instance (mirrors the cascade harness)."""
        results = []
        for name in self.order:
            ir = self.ir_of(name)
            st = self.storages[name]
            if not self._some_tau_enabled(ir, st):
                continue
            snapshot = self._snapshot()
            letters: list[Letter] = []
            try:
                self._tau_closure(name, letters)
            except (CallFailed, TxRevert) as e:
                self._restore(snapshot)
                results.append(TxResult("reverted", e.reason))
                continue
            results.append(TxResult("committed", letters=letters))
        return results

    def storage_hash(self) -> str:
        blob = json.dumps(
            {name: [st.state, st.owner, st.ledger, st.remaining,
                    _canon(st.vars)]
             for name, st in sorted(self.storages.items())},
            sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()

    # -- internals --

    def _some_tau_enabled(self, ir: ContractIR, st: Storage) -> bool:
        for arm in ir.taus.get(st.state, ()):
            try:
                ev = _Eval(ir, st, {}, self.system.word_bits)
                if arm.when is None or ev.eval(arm.when) is True:
                    return True
            except (CallFailed, TxRevert):
                continue
        return False

    def _call(self, target: str, msg: str, sender: str, args: tuple,
              letters: list):
        if target not in self.storages:
            raise CallFailed("GuardFailed", f"no contract at {target}")
        ir = self.ir_of(target)
        st = self.storages[target]
        if st.counter > self.system.reentrancy_limit:
            raise TxRevert("ReentrancyLimit",
                           f"{target} already has {st.counter} active entries")
        st.counter += 1
        try:
            arms = [a for a in ir.methods.get(msg, ()) if a.state == st.state]
            err = CallFailed("GuardFailed", f"{msg} not receivable at {st.state}")
            for arm in arms:
                ev = _Eval(ir, st, {}, self.system.word_bits)
                binds = {}
                if arm.sender_match is not None:
                    if ev.eval(Var(arm.sender_match)) != sender:
                        continue
                if arm.sender_bind is not None:
                    binds[arm.sender_bind] = sender
                if len(args) != len(arm.params):
                    continue
                for name, value in zip(arm.params, args):
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
                except CallFailed:
                    continue  # guard undefined: arm not enabled
                # credit incoming coins before running the body
                incoming = sum(a for a, t in zip(args, arm.param_types)
                               if t.kind == "coin")
                st.ledger = ev.check_unsigned(st.ledger + incoming)
                try:
                    self._exec(ir, st, binds, sender, arm.body, letters)
                except CallFailed as e2:
                    raise CallFailed("UndefinedOp", e2.detail) from None
                # defensive: received resources fully transferred
                for name, t in zip(arm.params, arm.param_types):
                    if t.kind == "coin" and binds.get(name, 0) != 0:
                        raise TxRevert("DefensiveCheckFailed",
                                       f"coin binder {name} not drained")
                    if t.kind == "token" and binds.get(name, (None, 0))[1] != 0:
                        raise TxRevert("DefensiveCheckFailed",
                                       f"token binder {name} not drained")
                st.state = arm.target
                self._tau_closure(target, letters)
                self._conservation(ir, st)
                return
            raise err
        finally:
            st.counter -= 1

    def _tau_closure(self, addr: str, letters: list):
        """Repeat internal transitions until none is enabled; a tau arm
        whose send is refused rolls back and the next arm is tried."""
        ir = self.ir_of(addr)
        steps = 0
        while True:
            steps += 1
            if steps > 10_000:
                raise TxRevert("DefensiveCheckFailed", "tau closure diverges")
            st = self.storages[addr]
            progressed = False
            for arm in ir.taus.get(st.state, ()):
                ev = _Eval(ir, st, {}, self.system.word_bits)
                try:
                    if arm.when is not None and ev.eval(arm.when) is not True:
                        continue
                except CallFailed:
                    continue
                snapshot = self._snapshot()
                marker = len(letters)
                try:
                    # run the whole body first, move to the target state,
                    # and only then perform the send: re-entering callers
                    # observe the sender's post-transition state, exactly
                    # as the synchronized-push rule prescribes
                    pending: list = []
                    self._exec(ir, self.storages[addr], {}, None, arm.body,
                               letters, pending=pending)
                    self.storages[addr].state = arm.target
                    for kind, msg, dest, out_args in pending:
                        if kind == "log":
                            letters.append(Letter("log", msg, addr, out_args))
                        elif dest in self.storages:
                            self._call(dest, msg, addr, out_args, letters)
                        else:
                            letters.append(Letter("send", msg, dest, out_args))
                    self._conservation(ir, self.storages[addr])
                    progressed = True
                    break
                except CallFailed:
                    self._restore(snapshot)
                    del letters[marker:]
                    continue
            if not progressed:
                return

    def _conservation(self, ir: ContractIR, st: Storage):
        total = storage_coin_total(ir, st)
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
            v = ev.eval(s.value)
            vi = ir.vars.get(s.target)
            if vi is not None:
                v = _check_store(ev, vi.typ, v)
            st.vars[s.target] = _deep_copy(v)
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
            src = _slot(ir, st, binds, ev, s.args[0])
            amount = ev.eval(s.args[1]) if s.op == "move" else src.read()
            if amount < 0 or src.read() < amount:
                raise CallFailed("UndefinedOp", "insufficient coin value")
            src.write(src.read() - amount)
            dst = _slot(ir, st, binds, ev, s.args[2 if s.op == "move" else 1])
            dst.write(ev.check_unsigned(dst.read() + amount))
            return
        if key in (("Token", "move"), ("Token", "moveall")):
            src = _slot(ir, st, binds, ev, s.args[0], token=True)
            kind, held = src.read()
            amount = ev.eval(s.args[1]) if s.op == "move" else held
            if amount < 0 or held < amount:
                raise CallFailed("UndefinedOp", "insufficient token value")
            src.write((kind if held > amount else None, held - amount))
            dst = _slot(ir, st, binds, ev, s.args[2 if s.op == "move" else 1],
                        token=True)
            dkind, dheld = dst.read()
            if amount:
                if dheld and dkind != kind:
                    raise CallFailed("UndefinedOp", "mixing token kinds")
                dst.write((kind, ev.check_unsigned(dheld + amount)))
            return
        if key == ("Token", "issue"):
            n = ev.eval(s.args[0])
            if n < 0:
                raise CallFailed("UndefinedOp", "negative issue")
            if st.remaining is not None:
                if n > st.remaining:
                    raise CallFailed("UndefinedOp", "token supply exhausted")
                st.remaining -= n
            dst = _slot(ir, st, binds, ev, s.args[1], token=True)
            dkind, dheld = dst.read()
            if n:
                if dheld and dkind != st.addr:
                    raise CallFailed("UndefinedOp", "mixing token kinds")
                dst.write((st.addr, ev.check_unsigned(dheld + n)))
            return
        if key == ("Token", "burn"):
            src = _slot(ir, st, binds, ev, s.args[0], token=True)
            kind, held = src.read()
            n = ev.eval(s.args[1])
            if n < 0 or held < n:
                raise CallFailed("UndefinedOp", "insufficient tokens to burn")
            if n > 0 and kind != st.addr:
                raise CallFailed("UndefinedOp", "burning a foreign token")
            src.write((kind if held > n else None, held - n))
            return
        if key == ("Timer", "set"):
            name = s.args[0].name
            cur = st.vars[name]
            if cur[0] != "off":
                raise CallFailed("UndefinedOp", "Timer.set on a running timer")
            k = ev.eval(s.args[1])
            if k <= 0:
                raise CallFailed("UndefinedOp", "non-positive timer duration")
            st.vars[name] = ("active", ev.check_unsigned(k))
            return
        if key == ("Timer", "reset"):
            st.vars[s.args[0].name] = ("off", 0)
            return
        if key == ("Map", "set"):
            m = st.vars[s.args[0].name]
            v = ev.eval(s.args[2])
            vi = ir.vars.get(s.args[0].name)
            if vi is not None:
                v = _check_store(ev, vi.typ.args[1], v)
            m[ev.eval(s.args[1])] = _deep_copy(v)
            return
        if key == ("Seq", "set"):
            seq = st.vars[s.args[0].name]
            i = ev.eval(s.args[1])
            if not (0 <= i < len(seq)):
                raise CallFailed("UndefinedOp", "sequence index out of bounds")
            seq[i] = _deep_copy(ev.eval(s.args[2]))
            return
        if key == ("Seq", "append"):
            st.vars[s.args[0].name].append(_deep_copy(ev.eval(s.args[1])))
            return
        if key == ("Tuple", "set"):
            st.vars[s.args[0].name][s.args[1].value] = _deep_copy(ev.eval(s.args[2]))
            return
        if key == ("Address", "change_owner"):
            if sender is None or sender != st.owner:
                raise CallFailed("UndefinedOp", "change_owner not by the owner")
            new = ev.eval(s.args[0])
            if new == "none":
                raise CallFailed("UndefinedOp", "owner cannot become none")
            st.owner = new
            return
        raise ValueError(key)

    def _send(self, ir, st, binds, s: Send, letters, pending=None):
        ev = _Eval(ir, st, binds, self.system.word_bits)
        dest = st.addr if s.dest is None else ev.eval(s.dest)
        out_args = []
        coin_out = 0
        for a, kind in zip(s.args, s.kinds, strict=True):
            if kind is None:
                out_args.append(_deep_copy(ev.eval(a)))
                continue
            slot = _slot(ir, st, binds, ev, a, token=kind == "token")
            v = slot.read()
            slot.write(0 if kind == "coin" else (None, 0))
            if kind == "coin":
                coin_out += v
            out_args.append(v)
        st.ledger -= coin_out
        letter = ("log" if s.dest is None else "send", s.msg, dest, tuple(out_args))
        if pending is not None:
            pending.append(letter)
        else:  # normalized dispatch arms hold only log sends
            letters.append(Letter(*letter))


class _SlotRef:
    __slots__ = ("read", "write")

    def __init__(self, read, write):
        self.read = read
        self.write = write


def _slot(ir, st, binds, ev, a: Expr, token: bool = False) -> _SlotRef:
    if isinstance(a, Var):
        name = a.name
        if name in binds:
            return _SlotRef(lambda: binds[name],
                            lambda v: binds.__setitem__(name, v))
        return _SlotRef(lambda: st.vars[name],
                        lambda v: st.vars.__setitem__(name, v))
    assert isinstance(a, Builtin) and a.op == "ref"
    if a.ns == "Map":
        base = _slot(ir, st, binds, ev, a.args[0], token).read()
        k = ev.eval(a.args[1])
        if k not in base:
            vi = ir.vars.get(a.args[0].name) if isinstance(a.args[0], Var) else None
            if vi is not None and vi.default is not None:
                base[k] = _deep_copy(vi.default)
            else:
                base[k] = (None, 0) if token else 0
        return _SlotRef(lambda: base[k], lambda v: base.__setitem__(k, v))
    if a.ns == "Seq":
        base = _slot(ir, st, binds, ev, a.args[0], token).read()
        i = ev.eval(a.args[1])
        if not (0 <= i < len(base)):
            raise CallFailed("UndefinedOp", "sequence index out of bounds")
        return _SlotRef(lambda: base[i], lambda v: base.__setitem__(i, v))
    base = _slot(ir, st, binds, ev, a.args[0], token).read()
    i = a.args[1].value
    return _SlotRef(lambda: base[i], lambda v: base.__setitem__(i, v))


def _check_store(ev: _Eval, typ, v):
    """Declared-width check at store sites: ints fit the signed word,
    nats/coins the unsigned word."""
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


def storage_coin_total(ir: ContractIR, st: Storage) -> int:
    return sum(_coins_in(v.typ, st.vars[v.name]) for v in ir.vars.values())


def _canon(v):
    if isinstance(v, dict):
        return sorted((repr(k), _canon(x)) for k, x in v.items())
    if isinstance(v, (list, tuple)):
        return [_canon(x) for x in v]
    return repr(v)
