"""Solidity source emission from the method-form IR.

Deterministic, byte-stable text: a state enum, one public function per
message with a skeleton-state dispatch that reverts when no arm matches,
a private tau closure, a reentrancy counter checked on entry, defensive
coin-ledger checks, low-level calls for sends, and events for log sends.
The emitted source is golden-tested as text; the interpretable IR carries
the verification weight.
"""
from __future__ import annotations

from .ast_nodes import (
    Assign, Binop, Builtin, Expr, If, Lit, OpStmt, Send, SemType, Stmt, Unop, Var, walk_stmts,
)
from .diagnostics import CompileError
from .lower import ContractIR, SystemIR

# the type of each kind but map and seq, whose types are built from their
# arguments
_TYPES = {"int": "int256", "nat": "uint256", "bool": "bool", "address": "address payable",
          "coin": "uint256",  # balance held by this contract
          "token": "uint256",  # amount of this system's token kind
          "timer": "Timer"}
# operators that Solidity spells otherwise, over their operands' texts;
# the rest keep their spelling
_SPELLING = {"-nat": "({} - {})", "==>": "(!{} || {})"}
_TIMER_PHASES = {("Timer", "is_off"): "Off", ("Timer", "is_active"): "Active",
                 ("Timer", "has_fired"): "Fired"}


def _sol_type(t: SemType) -> str:
    if t.kind == "map":
        return f"mapping({_abi_type(t.args[0])} => {_sol_type(t.args[1])})"
    if t.kind == "seq":
        return f"{_sol_type(t.args[0])}[]"
    if t.kind not in _TYPES:
        raise CompileError(f"no Solidity layout for {t}")
    return _TYPES[t.kind]


def _abi_type(t: SemType) -> str:
    """The type as the ABI names it: addresses without `payable`."""
    return _sol_type(t).replace("address payable", "address")


class _Gen:
    def __init__(self, ir: ContractIR, msg_universe: dict[str, tuple[SemType, ...]]):
        self.ir = ir
        self.msg_universe = msg_universe
        self.lines: list[str] = []

    def w(self, indent: int, text: str = ""):
        self.lines.append(("    " * indent + text).rstrip())

    # -- expressions --

    def expr(self, e: Expr) -> str:
        if isinstance(e, Lit):
            if isinstance(e.value, bool):
                return "true" if e.value else "false"
            return str(e.value)
        if isinstance(e, Var):
            if e.name == "owner":
                return "ownerAddr"
            if e.name == "creator":
                return "creatorAddr"
            return _ident(e.name)
        if isinstance(e, Unop):
            return f"(!{self.expr(e.operand)})" if e.op == "!" \
                else f"(-{self.expr(e.operand)})"
        if isinstance(e, Binop):
            l, r = self.expr(e.left), self.expr(e.right)
            return _SPELLING[e.op].format(l, r) if e.op in _SPELLING else f"({l} {e.op} {r})"
        if isinstance(e, Builtin):
            return self._builtin(e)
        raise ValueError(e)

    def _builtin(self, e: Builtin) -> str:
        key = (e.ns, e.op)
        if key == ("Address", "none"):
            return "payable(address(0))"
        if key == ("Address", "self"):
            return "payable(address(this))"
        if key in (("Coin", "value"), ("Token", "value")):
            return self.expr(e.args[0])
        if key in _TIMER_PHASES:
            return f"({self.expr(e.args[0])}.phase == TimerPhase.{_TIMER_PHASES[key]})"
        if key == ("Timer", "value"):
            return f"timerValue({self.expr(e.args[0])})"
        if key in (("Map", "get"), ("Map", "ref"), ("Seq", "get"), ("Seq", "ref")):
            return f"{self.expr(e.args[0])}[{self.expr(e.args[1])}]"
        if key == ("Map", "in"):
            return f"{_ident(e.args[1].name)}Has[{self.expr(e.args[0])}]"
        if key == ("Seq", "len"):
            return f"{self.expr(e.args[0])}.length"
        raise ValueError(key)

    # -- statements --

    def stmt(self, s: Stmt, ind: int):
        if isinstance(s, Assign):
            self.w(ind, f"{_ident(s.target)} = {self.expr(s.value)};")
            return
        if isinstance(s, If):
            self.w(ind, f"if ({self.expr(s.cond)}) {{")
            for b in s.then:
                self.stmt(b, ind + 1)
            if s.els:
                self.w(ind, "} else {")
                for b in s.els:
                    self.stmt(b, ind + 1)
            self.w(ind, "}")
            return
        if isinstance(s, Send):
            self._send(s, ind)
            return
        assert isinstance(s, OpStmt)
        key = (s.ns, s.op)
        a = [self.expr(x) for x in s.args]
        if key in (("Coin", "move"), ("Token", "move")):
            self.w(ind, f"require({a[0]} >= {a[1]}, \"insufficient {s.ns.lower()}s\");")
            self.w(ind, f"{a[0]} -= {a[1]};")
            self.w(ind, f"{a[2]} += {a[1]};")
        elif key in (("Coin", "moveall"), ("Token", "moveall")):
            self.w(ind, f"{a[1]} += {a[0]};")
            self.w(ind, f"{a[0]} = 0;")
        elif key == ("Token", "issue"):
            self.w(ind, f"requireSupply({a[0]});")
            self.w(ind, f"{a[1]} += {a[0]};")
        elif key == ("Token", "burn"):
            self.w(ind, f"require({a[0]} >= {a[1]}, \"insufficient tokens\");")
            self.w(ind, f"{a[0]} -= {a[1]};")
        elif key == ("Timer", "set"):
            self.w(ind, f"timerSet({a[0]}, {a[1]});")
        elif key == ("Timer", "reset"):
            self.w(ind, f"{a[0]} = Timer(TimerPhase.Off, 0);")
        elif key == ("Map", "set"):
            self.w(ind, f"{a[0]}[{a[1]}] = {a[2]};")
            if s.args[0].name in self.ir.vars:
                self.w(ind, f"{_ident(s.args[0].name)}Has[{a[1]}] = true;")
        elif key == ("Seq", "set"):
            self.w(ind, f"{a[0]}[{a[1]}] = {a[2]};")
        elif key == ("Seq", "append"):
            self.w(ind, f"{a[0]}.push({a[1]});")
        elif key == ("Address", "change_owner"):
            self.w(ind, "require(msg.sender == ownerAddr, \"owner only\");")
            self.w(ind, f"ownerAddr = {a[0]};")
        else:
            raise ValueError(key)

    def _send(self, s: Send, ind: int):
        if s.dest is None:
            args = ", ".join(self.expr(a) for a in s.args)
            self.w(ind, f"emit {_event_name(s.msg)}({args});")
            return
        # Coins travel as msg.value, which the receiver does not declare as a
        # parameter; tokens travel as amounts in the payload. Both are
        # drained before the call, so token amounts are read first.
        coins, tokens, payload = [], [], []
        for i, (a, kind) in enumerate(zip(s.args, s.kinds, strict=True)):
            if kind == "coin":
                coins.append(self.expr(a))
            elif kind == "token":
                tokens.append((f"tokens{i}", self.expr(a)))
                payload.append(f"tokens{i}")
            else:
                payload.append(self.expr(a))
        value = " + ".join(coins) if coins else "0"
        params = [_abi_type(t) for t in self.msg_universe[s.msg] if t.kind != "coin"]
        sig = f"{s.msg}({','.join(params)})"
        self.w(ind, f"{{")
        self.w(ind + 1, f"uint256 callValue = {value};")
        for tmp, text in tokens:
            self.w(ind + 1, f"uint256 {tmp} = {text};")
        for v in coins + [text for _, text in tokens]:
            self.w(ind + 1, f"{v} = 0;")
        self.w(ind + 1, "coinLedger -= callValue;")
        encode = f"abi.encodeWithSignature(\"{sig}\"{''.join(', ' + p for p in payload)})"
        self.w(ind + 1,
               f"(bool ok, ) = {self.expr(s.dest)}.call{{value: callValue}}({encode});")
        self.w(ind + 1, "require(ok, \"message refused\");")
        self.w(ind, f"}}")


def _ident(name: str) -> str:
    return name.replace("__", "z_")


def _event_name(msg: str) -> str:
    return "Log" + msg[:1].upper() + msg[1:]


def emit_solidity(ir: ContractIR, R: int,
                  msg_universe: dict[str, tuple[SemType, ...]]) -> str:
    """Byte-stable Solidity source for one lowered contract; sends call the
    receiver's function as `msg_universe` declares the message."""
    g = _Gen(ir, msg_universe)
    w = g.w
    w(0, "// SPDX-License-Identifier: MIT")
    w(0, f"// Generated from the {ir.name} state machine; do not edit.")
    w(0, "pragma solidity ^0.8.19;")
    w(0)
    w(0, f"contract {ir.name} {{")
    states = ", ".join(ir.states)
    w(1, f"enum State {{ {states} }}")
    w(1, "enum TimerPhase { Off, Active, Fired }")
    w(1, "struct Timer { TimerPhase phase; uint256 remaining; }")
    w(0)
    w(1, "State public skeleton;")
    w(1, "uint256 private reentrancyCounter;")
    w(1, "uint256 private coinLedger;")
    w(1, "address payable public ownerAddr;")
    w(1, "address payable public immutable creatorAddr;")
    if ir.issues and ir.issue_limit is not None:
        w(1, f"uint256 public tokenSupplyRemaining = {ir.issue_limit};")
    for pname, ptyp in ir.params:
        w(1, f"{_sol_type(ptyp)} private {_ident(pname)};")
    for v in ir.vars.values():
        w(1, f"{_sol_type(v.typ)} private {_ident(v.name)};")
        if v.typ.kind == "map":
            w(1, f"mapping({_abi_type(v.typ.args[0])} => bool) private {_ident(v.name)}Has;")
    w(0)
    log_msgs = sorted(_collect_logs(ir))
    for msg, arity in log_msgs:
        params = ", ".join(f"uint256 a{i}" for i in range(arity))
        w(1, f"event {_event_name(msg)}({params});")
    if log_msgs:
        w(0)
    w(1, f"modifier defended() {{")
    w(2, f"require(reentrancyCounter <= {R}, \"reentrancy limit\");")
    w(2, "reentrancyCounter += 1;")
    w(2, "_;")
    w(2, "reentrancyCounter -= 1;")
    w(2, "require(heldCoins() == coinLedger, \"coin conservation\");")
    w(1, "}")
    w(0)
    ctor_params = ", ".join(f"{_sol_type(t)} p_{_ident(n)}" for n, t in ir.params)
    w(1, f"constructor({ctor_params}) {{")
    w(2, "ownerAddr = payable(msg.sender);")
    w(2, "creatorAddr = payable(msg.sender);")
    for pname, _ in ir.params:
        w(2, f"{_ident(pname)} = p_{_ident(pname)};")
    if ir.where is not None:
        w(2, f"require({g.expr(ir.where)}, \"constructor constraint\");")
    w(2, f"skeleton = State.{ir.initial};")
    w(1, "}")
    w(0)
    w(1, "function heldCoins() private view returns (uint256 total) {")
    for v in ir.vars.values():
        if v.typ.kind == "coin":
            w(2, f"total += {_ident(v.name)};")
    w(2, "// coins inside maps are accounted for at their move sites")
    w(1, "}")
    w(0)
    if any(v.typ.kind == "timer" for v in ir.vars.values()):
        w(1, "function timerSet(Timer storage t, uint256 k) private {")
        w(2, "require(t.phase == TimerPhase.Off && k > 0, \"timer misuse\");")
        w(2, "t.phase = TimerPhase.Active;")
        w(2, "t.remaining = k;")
        w(1, "}")
        w(1, "function timerValue(Timer storage t) private view returns (uint256) {")
        w(2, "require(t.phase == TimerPhase.Active, \"timer not active\");")
        w(2, "return t.remaining;")
        w(1, "}")
        w(0)
    if ir.issues:
        w(1, "function requireSupply(uint256 n) private {")
        if ir.issue_limit is not None:
            w(2, "require(tokenSupplyRemaining >= n, \"supply exhausted\");")
            w(2, "tokenSupplyRemaining -= n;")
        else:
            w(2, "// unlimited issuance")
        w(1, "}")
        w(0)

    for msg in ir.msg_sigs:
        arms = ir.methods.get(msg, [])
        sig = ir.msg_sigs[msg]
        params = []
        payable = any(t.kind == "coin" for t in sig)
        for i, t in enumerate(sig):
            if t.kind == "coin":
                continue  # carried by msg.value
            params.append(f"{_sol_type(t)} m{i}")
        mods = "external payable defended" if payable else "external defended"
        w(1, f"function {msg}({', '.join(params)}) {mods} {{")
        if payable:
            w(2, "coinLedger += msg.value;")
        for arm in arms:
            sender = arm.input.sender
            cond = [f"skeleton == State.{arm.source}"]
            if not arm.sender_fresh:
                cond.append(f"payable(msg.sender) == {g.expr(Var(sender))}")
            w(2, f"if ({' && '.join(cond)}) {{")
            if arm.sender_fresh:
                w(3, f"address payable {_ident(sender)} = payable(msg.sender);")
            for i, (p, t) in enumerate(zip(arm.input.params, arm.param_types)):
                if t.kind == "coin":
                    w(3, f"uint256 {_ident(p)} = msg.value;")
                else:
                    w(3, f"{_sol_type(t)} {_ident(p)} = m{i};")
            guards = []
            if arm.when is not None:
                guards.append(g.expr(arm.when))
            if arm.access is not None:
                kind, e = arm.access
                op = "==" if kind == "by" else "!="
                guards.append(f"payable(msg.sender) {op} {g.expr(e)}")
            body_ind = 3
            if guards:
                w(3, f"if ({' && '.join(guards)}) {{")
                body_ind = 4
            for s in arm.action:
                g.stmt(s, body_ind)
            for p, t in zip(arm.input.params, arm.param_types):
                if t.kind == "coin":
                    w(body_ind, f"require({_ident(p)} == 0, \"coins not banked\");")
            w(body_ind, f"skeleton = State.{arm.target};")
            w(body_ind, "tauClosure();")
            w(body_ind, "return;")
            if guards:
                w(3, "}")
            w(2, "}")
        w(2, "revert(\"no transition enabled\");")
        w(1, "}")
        w(0)

    w(1, "function tauClosure() private {")
    w(2, "bool progressed = true;")
    w(2, "while (progressed) {")
    w(3, "progressed = false;")
    for state, arms in ir.taus.items():
        for arm in arms:
            cond = [f"skeleton == State.{state}"]
            if arm.when is not None:
                cond.append(g.expr(arm.when))
            w(3, f"if ({' && '.join(cond)}) {{")
            for s in arm.action:
                g.stmt(s, 4)
            w(4, f"skeleton = State.{arm.target};")
            w(4, "progressed = true;")
            w(4, "continue;")
            w(3, "}")
    w(2, "}")
    w(1, "}")
    w(0)
    w(1, "receive() external payable {")
    w(2, "revert(\"direct transfers are not part of the protocol\");")
    w(1, "}")
    w(0, "}")
    return "\n".join(g.lines) + "\n"


def _collect_logs(ir: ContractIR):
    arms = [a for group in (*ir.methods.values(), *ir.taus.values()) for a in group]
    return {(s.msg, len(s.args)) for a in arms for s in walk_stmts(a.action)
            if isinstance(s, Send) and s.dest is None}


def emit_system(system: SystemIR) -> dict[str, str]:
    out = {}
    for name, ir in system.contracts.items():
        try:
            out[name] = emit_solidity(ir, system.reentrancy_limit, system.msg_universe)
        except CompileError as e:
            raise CompileError(f"contract {name}: {e.message}") from None
    return out
