"""Type checking, ghost discipline, coin linearity, and normalization.

typecheck() validates a parsed Program and returns a TypedProgram whose
contracts carry both the source transitions (used by the proof modules,
which treat each transition's action atomically) and the normalized
transitions (used by the cascade semantics and the compiler), where every
transition either has an input guard and no sends, or is an internal
transition with at most one send. Splitting a transition introduces fresh
intermediate states and hidden stash variables that carry input binders
across the split.

Checked expressions are returned in annotated form: the only rewrite is
"-" -> "-nat" when both operands are naturals, which makes the partiality
of nat subtraction visible to the evaluators without re-typing at run time.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

from .ast_nodes import (
    ADDRESS, BOOL, INT, NAT, Assign, Binop, Builtin, ContractDecl, Expr, If,
    InputGuard, Lit, OpStmt, Program, Quant, Send, SemType, Stmt, Transition,
    Unop, Var, children, contains_resource, contains_timer, map_children,
    stmt_exprs, walk_stmts,
)
from .diagnostics import NOPOS, Pos, TypecheckError

RESERVED = ("owner", "creator", "log", "self", "none", "true", "false")

# expression builtins: (ns, op) -> (arg type kinds, result)
_EXPR_BUILTINS = {
    ("Coin", "value"): (("coin",), NAT),
    ("Token", "value"): (("token",), NAT),
    ("Timer", "is_off"): (("timer",), BOOL),
    ("Timer", "is_active"): (("timer",), BOOL),
    ("Timer", "has_fired"): (("timer",), BOOL),
    ("Timer", "value"): (("timer",), NAT),
    ("Seq", "len"): (("seq",), NAT),
}

# statement builtins: (ns, op) -> (arity, indexes of written lvalue args)
_STMT_BUILTINS = {
    ("Coin", "move"): (3, (0, 2)),
    ("Coin", "moveall"): (2, (0, 1)),
    ("Token", "issue"): (2, (1,)),
    ("Token", "burn"): (2, (0,)),
    ("Token", "move"): (3, (0, 2)),
    ("Token", "moveall"): (2, (0, 1)),
    ("Timer", "set"): (2, (0,)),
    ("Timer", "reset"): (1, (0,)),
    ("Map", "set"): (3, (0,)),
    ("Seq", "set"): (3, (0,)),
    ("Seq", "append"): (2, (0,)),
    ("Tuple", "set"): (3, (0,)),
    ("Address", "change_owner"): (1, ()),
}


def err(code: str, message: str, pos: Pos = NOPOS):
    raise TypecheckError(code, message, pos)


@dataclass(frozen=True)
class VarInfo:
    name: str
    typ: SemType
    ghost: bool = False
    default: object = None  # runtime default value for map types
    init: Expr | None = None
    synthetic: bool = False  # normalization stash variable


@dataclass(frozen=True)
class TypedTransition:
    source: str
    target: str
    input: InputGuard | None
    msg: str | None
    sender_fresh: bool  # True: sender name binds; False: equality match
    sender_var: str  # canonical sender name for proof existentials ("" if tau)
    param_types: tuple[SemType, ...]
    when: Expr | None
    access: tuple[str, Expr] | None
    action: tuple[Stmt, ...]
    idx: int  # textual order within the contract
    pos: Pos = NOPOS

    def label(self) -> str:
        if self.msg:
            return f"{self.msg}@{self.source}#{self.idx}"
        return f"tau@{self.source}#{self.idx}"

    @cached_property
    def binders(self) -> dict[str, SemType]:
        """The transition's existentials with their types: the canonical
        sender first, then the message parameters (none for a tau)."""
        if self.input is None:
            return {}
        return {self.sender_var: ADDRESS,
                **dict(zip(self.input.params, self.param_types))}

    @cached_property
    def guards(self) -> tuple[Expr, ...]:
        """The enabling conjuncts over the pre-state and the binders: the
        matched-sender equality, `when`, then the access guard."""
        out: list[Expr] = []
        if self.input is not None and not self.sender_fresh:
            out.append(Binop("==", Var(self.sender_var), Var(self.input.sender)))
        if self.when is not None:
            out.append(self.when)
        if self.access is not None:
            kind, e = self.access
            out.append(Binop("==" if kind == "by" else "!=", Var(self.sender_var), e))
        return tuple(out)

    def action_view(self, bindings: dict) -> dict:
        """The bindings the action sees: a matched sender names an existing
        variable, so its canonical binder is dropped."""
        if self.sender_fresh:
            return dict(bindings)
        return {n: v for n, v in bindings.items() if n != self.sender_var}


@dataclass
class TypedContract:
    name: str
    decl: ContractDecl
    params: tuple[tuple[str, SemType], ...]
    where: Expr | None
    issues: bool
    issue_limit: int | None
    msg_sigs: dict[str, tuple[SemType, ...]]  # receivable messages
    vars: dict[str, VarInfo]  # declaration order; stash vars last
    initial: str
    source_states: tuple[str, ...]
    transitions: tuple[TypedTransition, ...]
    norm_states: tuple[str, ...] = ()
    norm_transitions: tuple[TypedTransition, ...] = ()

    def state_scope(self) -> dict[str, SemType]:
        scope = {n: v.typ for n, v in self.vars.items()}
        scope.update(self.params)
        scope["owner"] = ADDRESS
        scope["creator"] = ADDRESS
        return scope

    def ghost_names(self) -> frozenset[str]:
        return frozenset(n for n, v in self.vars.items() if v.ghost)

    def transitions_from(self, state: str, normalized: bool = False):
        pool = self.norm_transitions if normalized else self.transitions
        return [t for t in pool if t.source == state]

    def has_timers(self) -> bool:
        return any(v.typ.kind == "timer" for v in self.vars.values())


@dataclass
class TypedProgram:
    contracts: dict[str, TypedContract]
    msg_universe: dict[str, tuple[SemType, ...]]  # all messages, incl. send-only

    def contract(self, name: str) -> TypedContract:
        return self.contracts[name]


# ---------------------------------------------------------------------------
# Expression typing
# ---------------------------------------------------------------------------


def _numeric(t: SemType) -> bool:
    return t.kind in ("int", "nat")


def assignable(expected: SemType, actual: SemType) -> bool:
    if expected == actual:
        return True
    return expected.kind == "int" and actual.kind == "nat"


class ExprChecker:
    """Infers expression types and returns the annotated copy."""

    def __init__(self, scope: dict[str, SemType], allow_quant: bool = False,
                 allow_ref: bool = False):
        self.scope = scope
        self.allow_quant = allow_quant
        self.allow_ref = allow_ref

    def infer(self, e: Expr) -> SemType:
        return self.check(e)[0]

    def check(self, e: Expr) -> tuple[SemType, Expr]:
        if isinstance(e, Lit):
            if isinstance(e.value, bool):
                return BOOL, e
            return (NAT if e.value >= 0 else INT), e
        if isinstance(e, Var):
            t = self.scope.get(e.name)
            if t is None:
                err("TypeError", f"unknown name {e.name!r}", e.pos)
            return t, e
        if isinstance(e, Unop):
            t, inner = self.check(e.operand)
            if e.op == "!":
                if t.kind != "bool":
                    err("TypeError", "! applies to bool", e.pos)
                return BOOL, replace(e, operand=inner)
            if not _numeric(t):
                err("TypeError", "unary - applies to numbers", e.pos)
            return INT, replace(e, operand=inner)
        if isinstance(e, Binop):
            return self._binop(e)
        if isinstance(e, Builtin):
            return self._builtin(e)
        if isinstance(e, Quant):
            if not self.allow_quant:
                err("TypeError", "quantifiers are not allowed in contract code", e.pos)
            if e.typ.kind not in ("address", "int", "nat", "bool"):
                err("TypeError", f"cannot quantify over {e.typ}", e.pos)
            inner = ExprChecker({**self.scope, e.var: e.typ}, True, self.allow_ref)
            bt, body = inner.check(e.body)
            if bt.kind != "bool":
                err("TypeError", "quantifier body must be bool", e.pos)
            return BOOL, replace(e, body=body)
        raise TypeError(f"unknown expr {e!r}")

    def _binop(self, e: Binop) -> tuple[SemType, Expr]:
        lt, left = self.check(e.left)
        rt, right = self.check(e.right)
        op = e.op
        out = replace(e, left=left, right=right)
        if op in ("&&", "||", "==>"):
            if lt.kind != "bool" or rt.kind != "bool":
                err("TypeError", f"{op} applies to bools", e.pos)
            return BOOL, out
        if op in ("+", "-", "*", "/", "%"):
            if not (_numeric(lt) and _numeric(rt)):
                err("TypeError", f"{op} applies to numbers", e.pos)
            if lt.kind == "nat" and rt.kind == "nat":
                if op == "-":  # partial: undefined below zero
                    return NAT, replace(out, op="-nat")
                return NAT, out
            return INT, out
        if op in ("<", "<=", ">", ">="):
            if not (_numeric(lt) and _numeric(rt)):
                err("TypeError", f"{op} applies to numbers", e.pos)
            return BOOL, out
        if op in ("==", "!="):
            ok = (_numeric(lt) and _numeric(rt)) or lt == rt
            if not ok or lt.kind in ("map", "seq", "coin", "token", "timer"):
                err("TypeError", f"cannot compare {lt} with {rt}", e.pos)
            return BOOL, out
        raise TypeError(f"unknown binop {op}")

    def _builtin(self, e: Builtin) -> tuple[SemType, Expr]:
        key = (e.ns, e.op)
        if key in (("Address", "none"), ("Address", "self")):
            if e.args:
                err("TypeError", f"{e.ns}.{e.op} takes no arguments", e.pos)
            return ADDRESS, e
        if key == ("Map", "get"):
            self._arity(e, 2)
            mt, m = self.check(e.args[0])
            if mt.kind != "map":
                err("TypeError", "Map.get applies to a map", e.pos)
            kt, k = self.check(e.args[1])
            if not assignable(mt.args[0], kt):
                err("TypeError", "Map.get key type mismatch", e.pos)
            return mt.args[1], replace(e, args=(m, k))
        if key == ("Map", "in"):
            self._arity(e, 2)
            kt, k = self.check(e.args[0])
            mt, m = self.check(e.args[1])
            if mt.kind != "map":
                err("TypeError", "Map.in applies to (key, map)", e.pos)
            if not assignable(mt.args[0], kt):
                err("TypeError", "Map.in key type mismatch", e.pos)
            return BOOL, replace(e, args=(k, m))
        if key == ("Seq", "get"):
            self._arity(e, 2)
            st, s0 = self.check(e.args[0])
            it, i0 = self.check(e.args[1])
            if st.kind != "seq" or not _numeric(it):
                err("TypeError", "Seq.get applies to (seq, index)", e.pos)
            return st.args[0], replace(e, args=(s0, i0))
        if key == ("Tuple", "get"):
            self._arity(e, 2)
            tt, t0 = self.check(e.args[0])
            idx = e.args[1]
            if tt.kind != "tuple" or not isinstance(idx, Lit) or isinstance(idx.value, bool):
                err("TypeError", "Tuple.get applies to (tuple, literal index)", e.pos)
            if not (0 <= idx.value < len(tt.args)):
                err("TypeError", f"tuple index {idx.value} out of range", e.pos)
            return tt.args[idx.value], replace(e, args=(t0, idx))
        if e.op == "ref" and e.ns in ("Map", "Seq", "Tuple"):
            if not self.allow_ref:
                err("RefRequired",
                    f"{e.ns}.ref is only allowed as a move operand or send argument", e.pos)
            return self._ref(e)
        if key in _EXPR_BUILTINS:
            kinds, result = _EXPR_BUILTINS[key]
            self._arity(e, len(kinds))
            new_args = []
            for a, kind in zip(e.args, kinds):
                at, a2 = self.check(a)
                if at.kind != kind:
                    err("TypeError", f"{e.ns}.{e.op} expects {kind}, got {at}", e.pos)
                new_args.append(a2)
            return result, replace(e, args=tuple(new_args))
        err("TypeError", f"unknown operation {e.ns}.{e.op}", e.pos)

    def _ref(self, e: Builtin) -> tuple[SemType, Expr]:
        self._arity(e, 2)
        bt, base = self.check(e.args[0])
        if e.ns == "Map":
            if bt.kind != "map":
                err("TypeError", "Map.ref applies to a map", e.pos)
            kt, k = self.check(e.args[1])
            if not assignable(bt.args[0], kt):
                err("TypeError", "Map.ref key type mismatch", e.pos)
            return bt.args[1], replace(e, args=(base, k))
        if e.ns == "Seq":
            if bt.kind != "seq":
                err("TypeError", "Seq.ref applies to a sequence", e.pos)
            it, i0 = self.check(e.args[1])
            if not _numeric(it):
                err("TypeError", "Seq.ref index must be numeric", e.pos)
            return bt.args[0], replace(e, args=(base, i0))
        idx = e.args[1]
        if bt.kind != "tuple" or not isinstance(idx, Lit):
            err("TypeError", "Tuple.ref applies to (tuple, literal index)", e.pos)
        if not (0 <= idx.value < len(bt.args)):
            err("TypeError", f"tuple index {idx.value} out of range", e.pos)
        return bt.args[idx.value], e

    def _arity(self, e: Builtin, n: int):
        if len(e.args) != n:
            err("TypeError", f"{e.ns}.{e.op} takes {n} argument(s)", e.pos)


def is_lvalue(e: Expr) -> bool:
    if isinstance(e, Var):
        return True
    if isinstance(e, Builtin) and e.op == "ref" and e.ns in ("Map", "Seq", "Tuple"):
        return is_lvalue(e.args[0])
    return False


def lvalue_root(e: Expr) -> str:
    while not isinstance(e, Var):
        e = e.args[0]
    return e.name


def expr_reads(e: Expr, names: frozenset[str]) -> bool:
    if isinstance(e, Var):
        return e.name in names
    if isinstance(e, Quant):
        names = names - {e.var}
    return any(expr_reads(c, names) for c in children(e))


def free_vars(e: Expr) -> set[str]:
    if isinstance(e, Var):
        return {e.name}
    out: set[str] = set()
    for c in children(e):
        out |= free_vars(c)
    if isinstance(e, Quant):
        out.discard(e.var)
    return out


# ---------------------------------------------------------------------------
# Program entry
# ---------------------------------------------------------------------------


def typecheck(program: Program) -> TypedProgram:
    seen: set[str] = set()
    msg_universe: dict[str, tuple[SemType, ...]] = {}
    msg_origin: dict[str, str] = {}
    contracts: dict[str, TypedContract] = {}
    for decl in program.contracts:
        if decl.name in seen:
            err("TypeError", f"duplicate contract {decl.name}", decl.pos)
        seen.add(decl.name)
        contracts[decl.name] = _check_contract(decl, msg_universe, msg_origin)
    for tc in contracts.values():
        _check_sends(tc, msg_universe, msg_origin)
    for tc in contracts.values():
        _normalize_contract(tc)
    return TypedProgram(contracts, msg_universe)


def _register_msg(name, sig, where, universe, origin, pos):
    if name in universe:
        if universe[name] != sig:
            err("SignatureMismatch",
                f"message {name!r} is {_sig_str(name, universe[name])} "
                f"in {origin[name]} but {_sig_str(name, sig)} in {where}", pos)
    else:
        universe[name] = tuple(sig)
        origin[name] = where


def _sig_str(name, sig):
    return f"{name}({', '.join(str(t) for t in sig)})"


def _check_contract(decl: ContractDecl, msg_universe, msg_origin) -> TypedContract:
    seen: set[str] = set()
    for pname, ptyp in decl.params:
        if pname in seen or pname in RESERVED:
            err("TypeError", f"bad parameter name {pname!r}", decl.pos)
        seen.add(pname)
        if ptyp.kind not in ("int", "nat", "bool", "address"):
            err("TypeError",
                f"constructor parameter {pname!r} has non-scalar type {ptyp}", decl.pos)
    param_scope = dict(decl.params)
    where = None
    if decl.where is not None:
        wt, where = ExprChecker(param_scope).check(decl.where)
        if wt.kind != "bool":
            err("TypeError", "where clause must be bool", decl.pos)

    issue_limit = None
    if decl.issue_limit is not None:
        if not isinstance(decl.issue_limit, Lit) or isinstance(decl.issue_limit.value, bool):
            err("TypeError", "token issue limit must be a literal nat", decl.pos)
        issue_limit = decl.issue_limit.value

    vars_: dict[str, VarInfo] = {}
    init_scope = dict(param_scope)
    init_scope["owner"] = ADDRESS
    init_scope["creator"] = ADDRESS
    for v in decl.vars:
        if v.name in vars_ or v.name in seen or v.name in RESERVED:
            err("TypeError", f"duplicate or reserved variable {v.name!r}", v.pos)
        if contains_timer(v.typ) and v.typ.kind != "timer":
            err("TypeError", "timers may not be nested in containers", v.pos)
        if v.ghost and (contains_resource(v.typ) or contains_timer(v.typ)):
            err("GhostLeak",
                f"ghost variable {v.name!r} may not hold coins, tokens, or timers", v.pos)
        default = None
        if v.default is not None:
            if v.typ.kind != "map":
                err("TypeError", "default applies to map variables", v.pos)
            default = _literal_value(v.default, v.typ.args[1], v.pos)
        init = None
        if v.init is not None:
            if contains_resource(v.typ) or v.typ.kind in ("timer", "map", "seq"):
                err("TypeError", f"{v.typ} variables cannot take initializers", v.pos)
            it, init = ExprChecker(init_scope).check(v.init)
            if not assignable(v.typ, it):
                err("TypeError",
                    f"initializer for {v.name!r} has type {it}, expected {v.typ}", v.pos)
        vars_[v.name] = VarInfo(v.name, v.typ, v.ghost, default, init)

    msg_sigs: dict[str, tuple[SemType, ...]] = {}
    for m in decl.messages:
        if m.name in msg_sigs:
            err("TypeError", f"message {m.name!r} declared twice", m.pos)
        for pt in m.params:
            if pt.kind not in ("coin", "token") and contains_resource(pt):
                err("TypeError",
                    f"message {m.name!r} carries coins/tokens inside a container", m.pos)
            if contains_timer(pt):
                err("TypeError", f"message {m.name!r} carries a timer", m.pos)
        msg_sigs[m.name] = m.params
        _register_msg(m.name, m.params, decl.name, msg_universe, msg_origin, m.pos)

    state_names: list[str] = []
    for s in decl.states:
        if s.name in state_names:
            err("TypeError", f"duplicate state {s.name!r}", s.pos)
        state_names.append(s.name)
    if decl.initial not in state_names:
        err("UnknownState", f"initial state {decl.initial!r} is not declared", decl.pos)

    tc = TypedContract(
        name=decl.name, decl=decl, params=decl.params, where=where,
        issues=decl.issues, issue_limit=issue_limit, msg_sigs=msg_sigs,
        vars=vars_, initial=decl.initial, source_states=tuple(state_names),
        transitions=(),
    )

    transitions: list[TypedTransition] = []
    idx = 0
    for s in decl.states:
        for tr in s.transitions:
            transitions.append(_check_transition(tc, tr, idx))
            idx += 1
    tc.transitions = tuple(transitions)

    ghost = tc.ghost_names()
    for t in tc.transitions:
        _check_ghost_discipline(t, ghost)
        _check_coin_linearity(t)
    return tc


def _literal_value(e: Expr, typ: SemType, pos: Pos):
    from . import values

    if isinstance(e, Lit) and not isinstance(e.value, bool) and typ.kind in ("int", "nat"):
        if typ.kind == "nat" and e.value < 0:
            err("TypeError", "nat default must be non-negative", pos)
        return e.value
    if isinstance(e, Lit) and isinstance(e.value, bool) and typ.kind == "bool":
        return e.value
    if isinstance(e, Builtin) and (e.ns, e.op) == ("Address", "none") and typ.kind == "address":
        return values.ADDR_NONE
    if isinstance(e, Unop) and e.op == "-" and isinstance(e.operand, Lit) and typ.kind == "int":
        return -e.operand.value
    err("TypeError", f"default must be a literal of type {typ}", pos)


def _check_transition(tc: TypedContract, tr: Transition, idx: int) -> TypedTransition:
    if tr.target not in tc.source_states:
        err("UnknownState",
            f"transition targets undeclared state {tr.target!r}", tr.pos)
    scope = tc.state_scope()
    ghost = tc.ghost_names()
    sender_fresh = False
    sender_var = ""
    param_types: tuple[SemType, ...] = ()
    msg = None
    if tr.input is not None:
        msg = tr.input.msg
        if msg not in tc.msg_sigs:
            err("TypeError",
                f"contract {tc.name} does not declare receivable message {msg!r}", tr.pos)
        sig = tc.msg_sigs[msg]
        if len(tr.input.params) != len(sig):
            err("SignatureMismatch",
                f"input guard for {msg!r} binds {len(tr.input.params)} parameter(s), "
                f"signature has {len(sig)}", tr.pos)
        sname = tr.input.sender
        if sname in scope:
            # equality match against an existing address-typed name
            if scope[sname].kind != "address":
                err("TypeError", f"sender match {sname!r} is not address-typed", tr.pos)
            if sname in ghost:
                err("GhostLeak", "ghost state used to match a sender", tr.pos)
            sender_fresh = False
            sender_var = _fresh_sender_name(scope, tr.input.params)
        else:
            sender_fresh = True
            sender_var = sname
            scope[sname] = ADDRESS
        for pname, ptyp in zip(tr.input.params, sig):
            if pname in scope or pname in RESERVED:
                err("TypeError",
                    f"message binder {pname!r} shadows an existing name", tr.pos)
            scope[pname] = ptyp
        param_types = sig
    elif tr.access is not None:
        err("TypeError", "access guards require an input guard", tr.pos)

    checker = ExprChecker(scope)
    when = None
    if tr.when is not None:
        if expr_reads(tr.when, ghost):
            err("GhostLeak", "ghost state used in a transition guard", tr.pos)
        wt, when = checker.check(tr.when)
        if wt.kind != "bool":
            err("TypeError", "when guard must be bool", tr.pos)
    access = None
    if tr.access is not None:
        if expr_reads(tr.access[1], ghost):
            err("GhostLeak", "ghost state used in an access guard", tr.pos)
        at, ax = checker.check(tr.access[1])
        if at.kind != "address":
            err("TypeError", f"{tr.access[0]} guard must be an address", tr.pos)
        access = (tr.access[0], ax)

    action = tuple(_check_stmt(tc, s, scope) for s in tr.action)

    return TypedTransition(
        source=tr.source, target=tr.target, input=tr.input, msg=msg,
        sender_fresh=sender_fresh, sender_var=sender_var,
        param_types=param_types, when=when, access=access,
        action=action, idx=idx, pos=tr.pos,
    )


def _fresh_sender_name(scope, params) -> str:
    name = "a"
    while name in scope or name in params or name in RESERVED:
        name += "_"
    return name


def _check_stmt(tc: TypedContract, s: Stmt, scope: dict[str, SemType]) -> Stmt:
    checker = ExprChecker(scope)
    if isinstance(s, Assign):
        if s.target in dict(tc.params) or s.target in RESERVED:
            err("TypeError", f"cannot assign to {s.target!r}", s.pos)
        if s.target not in tc.vars:
            err("TypeError", f"assignment to undeclared variable {s.target!r}", s.pos)
        vt = tc.vars[s.target].typ
        if vt.kind in ("coin", "token", "timer"):
            err("TypeError",
                f"{vt.kind} variables change only through their abstract operations", s.pos)
        at, value = checker.check(s.value)
        if not assignable(vt, at):
            err("TypeError", f"cannot assign {at} to {s.target}: {vt}", s.pos)
        return replace(s, value=value)
    if isinstance(s, Send):
        dest = None
        if s.dest is not None:
            dt, dest = checker.check(s.dest)
            if dt.kind != "address":
                err("TypeError", "send destination must be an address", s.pos)
        new_args, kinds = [], []
        for a in s.args:
            at, a2 = ExprChecker(scope, allow_ref=True).check(a)
            if at.kind in ("coin", "token"):
                if s.dest is None:
                    err("TypeError", "log messages cannot carry coins or tokens", s.pos)
                if not is_lvalue(a):
                    err("RefRequired",
                        "coin/token message arguments must be variables or refs", s.pos)
            elif contains_resource(at) or contains_timer(at):
                err("TypeError", "message argument carries nested resources", s.pos)
            new_args.append(a2)
            kinds.append(at.kind if at.kind in ("coin", "token") else None)
        return replace(s, dest=dest, args=tuple(new_args), kinds=tuple(kinds))
    if isinstance(s, If):
        ct, cond = checker.check(s.cond)
        if ct.kind != "bool":
            err("TypeError", "if condition must be bool", s.pos)
        return replace(
            s, cond=cond,
            then=tuple(_check_stmt(tc, b, scope) for b in s.then),
            els=tuple(_check_stmt(tc, b, scope) for b in s.els),
        )
    if isinstance(s, OpStmt):
        return _check_opstmt(tc, s, scope)
    raise TypeError(f"unknown stmt {s!r}")


def _check_opstmt(tc: TypedContract, s: OpStmt, scope) -> Stmt:
    key = (s.ns, s.op)
    if key not in _STMT_BUILTINS:
        err("TypeError", f"{s.ns}.{s.op} is not a statement", s.pos)
    arity, _ = _STMT_BUILTINS[key]
    if len(s.args) != arity:
        err("TypeError", f"{s.ns}.{s.op} takes {arity} argument(s)", s.pos)
    ref_checker = ExprChecker(scope, allow_ref=True)
    plain = ExprChecker(scope)
    args = list(s.args)

    def resource(i: int, kind: str):
        a = s.args[i]
        if not is_lvalue(a):
            err("RefRequired",
                f"{s.ns}.{s.op} operand must be a variable or a Map/Seq/Tuple ref "
                f"(container copies cannot be moved)", s.pos)
        at, a2 = ref_checker.check(a)
        if at.kind != kind:
            err("TypeError", f"{s.ns}.{s.op} operand has type {at}, expected {kind}", s.pos)
        args[i] = a2

    def numeric(i: int, what: str):
        at, a2 = plain.check(s.args[i])
        if not _numeric(at):
            err("TypeError", f"{what} must be numeric", s.pos)
        args[i] = a2

    if s.ns == "Coin":
        resource(0, "coin")
        if s.op == "move":
            numeric(1, "Coin.move amount")
            resource(2, "coin")
        else:
            resource(1, "coin")
        return replace(s, args=tuple(args))
    if s.ns == "Token":
        if s.op in ("issue", "burn") and not tc.issues:
            err("TypeError",
                f"contract {tc.name} does not issue tokens ({s.op} unavailable)", s.pos)
        if s.op == "issue":
            numeric(0, "Token.issue amount")
            resource(1, "token")
        elif s.op == "burn":
            resource(0, "token")
            numeric(1, "Token.burn amount")
        elif s.op == "move":
            resource(0, "token")
            numeric(1, "Token.move amount")
            resource(2, "token")
        else:
            resource(0, "token")
            resource(1, "token")
        return replace(s, args=tuple(args))
    if s.ns == "Timer":
        a = s.args[0]
        if not isinstance(a, Var) or plain.infer(a).kind != "timer":
            err("TypeError", f"Timer.{s.op} applies to a timer variable", s.pos)
        if s.op == "set":
            numeric(1, "Timer.set duration")
        return replace(s, args=tuple(args))
    if key == ("Map", "set"):
        mt, m = plain.check(s.args[0])
        if mt.kind != "map" or not isinstance(s.args[0], Var):
            err("TypeError", "Map.set applies to a map variable", s.pos)
        if contains_resource(mt.args[1]):
            err("RefRequired",
                "coin/token map entries change through moves on Map.ref", s.pos)
        kt, k = plain.check(s.args[1])
        if not assignable(mt.args[0], kt):
            err("TypeError", "Map.set key type mismatch", s.pos)
        vt, v = plain.check(s.args[2])
        if not assignable(mt.args[1], vt):
            err("TypeError", "Map.set value type mismatch", s.pos)
        return replace(s, args=(m, k, v))
    if key == ("Seq", "set"):
        st, sq = plain.check(s.args[0])
        if st.kind != "seq" or not isinstance(s.args[0], Var):
            err("TypeError", "Seq.set applies to a sequence variable", s.pos)
        if contains_resource(st.args[0]):
            err("RefRequired", "coin/token entries change through moves on Seq.ref", s.pos)
        it, i0 = plain.check(s.args[1])
        if not _numeric(it):
            err("TypeError", "Seq.set index must be numeric", s.pos)
        vt, v = plain.check(s.args[2])
        if not assignable(st.args[0], vt):
            err("TypeError", "Seq.set value type mismatch", s.pos)
        return replace(s, args=(sq, i0, v))
    if key == ("Seq", "append"):
        st, sq = plain.check(s.args[0])
        if st.kind != "seq" or not isinstance(s.args[0], Var):
            err("TypeError", "Seq.append applies to a sequence variable", s.pos)
        if contains_resource(st.args[0]):
            err("RefRequired", "cannot append resource copies to a sequence", s.pos)
        vt, v = plain.check(s.args[1])
        if not assignable(st.args[0], vt):
            err("TypeError", "Seq.append value type mismatch", s.pos)
        return replace(s, args=(sq, v))
    if key == ("Tuple", "set"):
        tt, tp = plain.check(s.args[0])
        idx = s.args[1]
        if tt.kind != "tuple" or not isinstance(s.args[0], Var) or not isinstance(idx, Lit):
            err("TypeError", "Tuple.set applies to (tuple variable, literal index, value)", s.pos)
        if not (0 <= idx.value < len(tt.args)):
            err("TypeError", f"tuple index {idx.value} out of range", s.pos)
        comp = tt.args[idx.value]
        if contains_resource(comp):
            err("RefRequired", "coin/token components change through moves on Tuple.ref", s.pos)
        vt, v = plain.check(s.args[2])
        if not assignable(comp, vt):
            err("TypeError", "Tuple.set value type mismatch", s.pos)
        return replace(s, args=(tp, idx, v))
    if key == ("Address", "change_owner"):
        at, a = plain.check(s.args[0])
        if at.kind != "address":
            err("TypeError", "Address.change_owner takes an address", s.pos)
        return replace(s, args=(a,))
    raise AssertionError(key)


# ---------------------------------------------------------------------------
# Ghost discipline
# ---------------------------------------------------------------------------


def stmt_written_roots(s: Stmt) -> set[str]:
    if isinstance(s, Assign):
        return {s.target}
    if isinstance(s, OpStmt):
        _, written = _STMT_BUILTINS[(s.ns, s.op)]
        return {lvalue_root(s.args[i]) for i in written if is_lvalue(s.args[i])}
    return set()


def stmt_is_ghost(s: Stmt, ghost: frozenset[str]) -> bool:
    """True if the statement only writes ghost state."""
    if isinstance(s, If):
        branches = s.then + s.els
        return bool(branches) and all(stmt_is_ghost(b, ghost) for b in branches)
    if isinstance(s, Send):
        return False
    roots = stmt_written_roots(s)
    return bool(roots) and roots <= ghost


def _check_ghost_discipline(t: TypedTransition, ghost: frozenset[str]):
    def check(stmts):
        for s in stmts:
            if isinstance(s, If):
                if not stmt_is_ghost(s, ghost) and expr_reads(s.cond, ghost):
                    err("GhostLeak",
                        "ghost state controls a branch with non-ghost effects", s.pos)
                check(s.then)
                check(s.els)
                continue
            if isinstance(s, Send):
                reads = ([s.dest] if s.dest is not None else []) + list(s.args)
                for e in reads:
                    if expr_reads(e, ghost):
                        err("GhostLeak", "ghost state flows into a message", s.pos)
                continue
            if stmt_is_ghost(s, ghost):
                continue  # ghost updates may read anything
            exprs: list[Expr] = []
            if isinstance(s, Assign):
                exprs = [s.value]
            elif isinstance(s, OpStmt):
                if stmt_written_roots(s) & ghost:
                    err("GhostLeak", "operation mixes ghost and non-ghost targets", s.pos)
                exprs = list(s.args)
            for e in exprs:
                if expr_reads(e, ghost):
                    err("GhostLeak", "ghost state flows into non-ghost state", s.pos)

    check(t.action)


# ---------------------------------------------------------------------------
# Coin linearity: received coins/tokens are consumed on every path
# ---------------------------------------------------------------------------


def _consumes(s: Stmt, param: str) -> bool:
    if isinstance(s, OpStmt) and (s.ns, s.op) in (("Coin", "moveall"), ("Token", "moveall")):
        a = s.args[0]
        return isinstance(a, Var) and a.name == param
    if isinstance(s, Send) and s.dest is not None:
        return any(isinstance(a, Var) and a.name == param for a in s.args)
    return False


def _all_paths_consume(stmts: tuple[Stmt, ...], param: str) -> bool:
    if not stmts:
        return False
    s, rest = stmts[0], tuple(stmts[1:])
    if _consumes(s, param):
        return True
    if isinstance(s, If):
        return (_all_paths_consume(s.then + rest, param)
                and _all_paths_consume(s.els + rest, param))
    return _all_paths_consume(rest, param)


def _check_coin_linearity(t: TypedTransition):
    if t.input is None:
        return
    for pname, ptyp in zip(t.input.params, t.param_types):
        if ptyp.kind in ("coin", "token"):
            if not _all_paths_consume(t.action, pname):
                err("CoinDropped",
                    f"received {ptyp.kind} {pname!r} is not transferred to state "
                    f"on every path of {t.label()}", t.pos)


# ---------------------------------------------------------------------------
# Send signature resolution (messages shared across contracts)
# ---------------------------------------------------------------------------


def _check_sends(tc: TypedContract, universe, origin):
    for t in tc.transitions:
        scope = tc.state_scope()
        scope.update(t.action_view(t.binders))
        checker = ExprChecker(scope, allow_ref=True)
        for s in walk_stmts(t.action):
            if not isinstance(s, Send) or s.dest is None:
                continue  # log events carry no synchronizing signature
            sig = tuple(checker.infer(a) for a in s.args)
            if s.msg in universe:
                declared = universe[s.msg]
                if len(declared) != len(sig) or not all(
                        assignable(d, a) for d, a in zip(declared, sig)):
                    err("SignatureMismatch",
                        f"send {_sig_str(s.msg, sig)} in {tc.name} does not match "
                        f"{_sig_str(s.msg, declared)} declared in {origin[s.msg]}", s.pos)
            else:
                universe[s.msg] = sig
                origin[s.msg] = f"{tc.name} (send site)"


# ---------------------------------------------------------------------------
# Substitution (for normalization stashes)
# ---------------------------------------------------------------------------


def subst_expr(e: Expr, sub: dict[str, str]) -> Expr:
    if isinstance(e, Var):
        return Var(sub.get(e.name, e.name), e.pos)
    if isinstance(e, Quant):
        sub = {k: v for k, v in sub.items() if k != e.var}
    return map_children(e, lambda c: subst_expr(c, sub))


def subst_stmt(s: Stmt, sub: dict[str, str]) -> Stmt:
    if isinstance(s, Assign):
        return replace(s, target=sub.get(s.target, s.target),
                       value=subst_expr(s.value, sub))
    if isinstance(s, OpStmt):
        return replace(s, args=tuple(subst_expr(a, sub) for a in s.args))
    if isinstance(s, Send):
        dest = subst_expr(s.dest, sub) if s.dest is not None else None
        return replace(s, dest=dest, args=tuple(subst_expr(a, sub) for a in s.args))
    if isinstance(s, If):
        return replace(s, cond=subst_expr(s.cond, sub),
                       then=tuple(subst_stmt(b, sub) for b in s.then),
                       els=tuple(subst_stmt(b, sub) for b in s.els))
    raise TypeError(f"unknown stmt {s!r}")


def _contains_send(s: Stmt) -> bool:
    return any(isinstance(b, Send) and not b.is_log for b in walk_stmts((s,)))


def _stmts_read(stmts, names: frozenset[str]) -> bool:
    return any(expr_reads(e, names) for e in stmt_exprs(stmts))


def _max_sends(stmts) -> int:
    """Maximum number of non-log sends over the paths of stmts."""
    n = 0
    for s in stmts:
        if isinstance(s, Send) and not s.is_log:
            n += 1
        elif isinstance(s, If):
            n += max(_max_sends(s.then), _max_sends(s.els))
    return n


# ---------------------------------------------------------------------------
# Normalization into the at-most-one-output form
# ---------------------------------------------------------------------------


def _normalize_contract(tc: TypedContract):
    norm: list[TypedTransition] = []
    fresh_states: list[str] = []
    counter = [0]
    nidx = [0]
    stash_vars: dict[str, VarInfo] = {}

    def fresh_state(base: str) -> str:
        counter[0] += 1
        name = f"{base}__step{counter[0]}"
        fresh_states.append(name)
        return name

    def emit(source, target, *, input_=None, msg=None, sender_fresh=False,
             sender_var="", param_types=(), when=None, access=None,
             stmts=(), pos=NOPOS):
        norm.append(TypedTransition(
            source=source, target=target, input=input_, msg=msg,
            sender_fresh=sender_fresh, sender_var=sender_var,
            param_types=tuple(param_types), when=when, access=access,
            action=tuple(stmts), idx=nidx[0], pos=pos,
        ))
        nidx[0] += 1

    def emit_chain(source, when, stmts, target, base, pos):
        cur: list[Stmt] = []
        sent = False
        rest = list(stmts)
        while rest:
            s = rest.pop(0)
            if isinstance(s, If) and _contains_send(s):
                if cur or when is not None:
                    hop = fresh_state(base)
                    emit(source, hop, when=when, stmts=cur, pos=pos)
                else:
                    hop = source
                neg = Unop("!", s.cond, s.pos)
                emit_chain(hop, s.cond, list(s.then) + rest, target, base, pos)
                emit_chain(hop, neg, list(s.els) + rest, target, base, pos)
                return
            if isinstance(s, Send) and not s.is_log and sent:
                hop = fresh_state(base)
                emit(source, hop, when=when, stmts=cur, pos=pos)
                source, when, cur, sent = hop, None, [s], True
                continue
            if isinstance(s, Send) and not s.is_log:
                sent = True
            cur.append(s)
        emit(source, target, when=when, stmts=cur, pos=pos)

    for t in tc.transitions:
        total = _max_sends(t.action)
        if t.input is None and total <= 1:
            emit(t.source, t.target, when=t.when, stmts=t.action, pos=t.pos)
            continue
        if t.input is not None and total == 0:
            emit(t.source, t.target, input_=t.input, msg=t.msg,
                 sender_fresh=t.sender_fresh, sender_var=t.sender_var,
                 param_types=t.param_types, when=t.when, access=t.access,
                 stmts=t.action, pos=t.pos)
            continue

        base = f"{t.source}_{t.msg or 'tau'}{t.idx}"
        if t.input is not None:
            # Head segment: everything before the first send; stash binders
            # that the remainder still needs into hidden state variables.
            head: list[Stmt] = []
            rest = list(t.action)
            while rest and not (isinstance(rest[0], Send) and not rest[0].is_log) \
                    and not (isinstance(rest[0], If) and _contains_send(rest[0])):
                head.append(rest.pop(0))
            sub: dict[str, str] = {}
            for bname, btyp in t.action_view(t.binders).items():
                if not _stmts_read(rest, frozenset({bname})):
                    continue
                stash = f"__{base}_{bname}"
                stash_vars[stash] = VarInfo(stash, btyp, synthetic=True)
                sub[bname] = stash
                if btyp.kind == "coin":
                    head.append(OpStmt("Coin", "moveall", (Var(bname), Var(stash)), t.pos))
                elif btyp.kind == "token":
                    head.append(OpStmt("Token", "moveall", (Var(bname), Var(stash)), t.pos))
                else:
                    head.append(Assign(stash, Var(bname), t.pos))
            rest = [subst_stmt(s, sub) for s in rest]
            hop = fresh_state(base)
            emit(t.source, hop, input_=t.input, msg=t.msg,
                 sender_fresh=t.sender_fresh, sender_var=t.sender_var,
                 param_types=t.param_types, when=t.when, access=t.access,
                 stmts=head, pos=t.pos)
            emit_chain(hop, None, rest, t.target, base, t.pos)
        else:
            emit_chain(t.source, t.when, list(t.action), t.target, base, t.pos)

    tc.vars.update(stash_vars)
    tc.norm_states = tc.source_states + tuple(fresh_states)
    tc.norm_transitions = tuple(norm)


# ---------------------------------------------------------------------------
# Ghost erasure
# ---------------------------------------------------------------------------


def strip_ghost(stmts, ghost: frozenset[str]) -> tuple[Stmt, ...]:
    """The statements without those that only write ghost state."""
    out = []
    for s in stmts:
        if stmt_is_ghost(s, ghost):
            continue
        if isinstance(s, If):
            s = replace(s, then=strip_ghost(s.then, ghost),
                        els=strip_ghost(s.els, ghost))
        out.append(s)
    return tuple(out)


def erase_ghosts(program: Program) -> Program:
    """Delete ghost declarations and ghost statements; the result of a
    well-typed program is well-typed and behaviourally identical."""
    contracts = []
    for c in program.contracts:
        ghost = frozenset(v.name for v in c.vars if v.ghost)
        states = tuple(
            replace(st, transitions=tuple(
                replace(t, action=strip_ghost(t.action, ghost))
                for t in st.transitions))
            for st in c.states
        )
        contracts.append(replace(
            c, vars=tuple(v for v in c.vars if not v.ghost), states=states))
    return Program(tuple(contracts))
