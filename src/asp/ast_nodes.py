"""AST for Asp contracts: types, expressions, statements, declarations.

Nodes are plain dataclasses; positions are kept for diagnostics. Semantic
information (resolved types, ghost flags, normalization) is attached by
the typechecker, which returns wrapped Typed* structures.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import reduce
from operator import is_

from .diagnostics import NOPOS, Pos

# ---------------------------------------------------------------------------
# Semantic types
# ---------------------------------------------------------------------------

PRIM_TYPES = ("int", "nat", "bool", "address", "coin", "token", "timer")


@dataclass(frozen=True)
class SemType:
    kind: str  # one of PRIM_TYPES or "map" | "seq" | "tuple"
    args: tuple["SemType", ...] = ()

    def __str__(self):
        if self.kind == "map":
            return f"map[{self.args[0]}, {self.args[1]}]"
        if self.kind == "seq":
            return f"seq[{self.args[0]}]"
        if self.kind == "tuple":
            return "tuple[" + ", ".join(map(str, self.args)) + "]"
        return self.kind


INT = SemType("int")
NAT = SemType("nat")
BOOL = SemType("bool")
ADDRESS = SemType("address")


def contains_resource(t: SemType) -> bool:
    """Does t contain coin or token anywhere?"""
    if t.kind in ("coin", "token"):
        return True
    return any(contains_resource(a) for a in t.args)


def contains_timer(t: SemType) -> bool:
    if t.kind == "timer":
        return True
    return any(contains_timer(a) for a in t.args)


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Expr:
    pass


@dataclass(frozen=True)
class Lit(Expr):
    value: object  # int or bool
    pos: Pos = field(default=NOPOS, compare=False)


@dataclass(frozen=True)
class Var(Expr):
    name: str  # includes the specials: owner, creator
    pos: Pos = field(default=NOPOS, compare=False)


@dataclass(frozen=True)
class Unop(Expr):
    op: str  # "!" | "-"
    operand: Expr
    pos: Pos = field(default=NOPOS, compare=False)


@dataclass(frozen=True)
class Binop(Expr):
    op: str  # + - * / % == != < <= > >= && || ==>
    left: Expr
    right: Expr
    pos: Pos = field(default=NOPOS, compare=False)


@dataclass(frozen=True)
class Builtin(Expr):
    """Namespaced builtin in expression position, e.g. Coin.value(c),
    Map.get(m, k), Timer.is_active(t), Address.none."""

    ns: str
    op: str
    args: tuple[Expr, ...] = ()
    pos: Pos = field(default=NOPOS, compare=False)


@dataclass(frozen=True)
class Quant(Expr):
    kind: str  # "forall" | "exists"
    var: str
    typ: SemType
    body: Expr
    pos: Pos = field(default=NOPOS, compare=False)


def chain(op: str, parts) -> Expr:
    """The parts joined by a binary operator and nested to the left, as the
    parser nests `a && b && c`; `parts` is not empty."""
    return reduce(lambda left, right: Binop(op, left, right), parts)


def children(e: Expr) -> tuple[Expr, ...]:
    """The direct subexpressions of e, left to right."""
    if isinstance(e, Unop):
        return (e.operand,)
    if isinstance(e, Binop):
        return (e.left, e.right)
    if isinstance(e, Builtin):
        return e.args
    if isinstance(e, Quant):
        return (e.body,)
    return ()


def map_children(e: Expr, f) -> Expr:
    """e with f applied to each direct subexpression: e itself when f
    returns every child unchanged (the same object), else a copy that
    shares the unchanged children. Walkers that scope quantified names
    handle Quant themselves before calling."""
    if isinstance(e, Unop):
        operand = f(e.operand)
        return e if operand is e.operand else replace(e, operand=operand)
    if isinstance(e, Binop):
        left, right = f(e.left), f(e.right)
        return e if left is e.left and right is e.right else \
            replace(e, left=left, right=right)
    if isinstance(e, Builtin):
        args = tuple(f(a) for a in e.args)
        return e if all(map(is_, args, e.args)) else replace(e, args=args)
    if isinstance(e, Quant):
        body = f(e.body)
        return e if body is e.body else replace(e, body=body)
    return e


def membership_maps(exprs) -> set[str]:
    """Names of the map variables that some `Map.in` tests."""
    found: set[str] = set()
    stack = list(exprs)
    while stack:
        e = stack.pop()
        if isinstance(e, Builtin) and (e.ns, e.op) == ("Map", "in") \
                and isinstance(e.args[1], Var):
            found.add(e.args[1].name)
        stack.extend(children(e))
    return found


# ---------------------------------------------------------------------------
# Statements (loop-free by construction: no loop node exists)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Stmt:
    pass


@dataclass(frozen=True)
class Assign(Stmt):
    target: str
    value: Expr
    pos: Pos = field(default=NOPOS, compare=False)


@dataclass(frozen=True)
class OpStmt(Stmt):
    """Namespaced builtin in statement position: Coin.move, Coin.moveall,
    Token.issue/burn/move/moveall, Timer.set/reset, Map.set, Seq.set,
    Seq.append, Tuple.set, Address.change_owner."""

    ns: str
    op: str
    args: tuple[Expr, ...]
    pos: Pos = field(default=NOPOS, compare=False)


@dataclass(frozen=True)
class Send(Stmt):
    dest: Expr | None  # None for log sends
    msg: str
    args: tuple[Expr, ...]
    pos: Pos = field(default=NOPOS, compare=False)
    # set by the typechecker: per argument, "coin" or "token" if the send
    # drains it (its whole value leaves and its source becomes empty), else
    # None; every back end reads this one rule
    kinds: tuple[str | None, ...] = field(default=(), compare=False)

    @property
    def is_log(self) -> bool:
        return self.dest is None


@dataclass(frozen=True)
class If(Stmt):
    cond: Expr
    then: tuple[Stmt, ...]
    els: tuple[Stmt, ...] = ()
    pos: Pos = field(default=NOPOS, compare=False)


def walk_stmts(stmts):
    """Every statement, each `If` followed by the statements of its then
    and else branches, in source order."""
    for s in stmts:
        yield s
        if isinstance(s, If):
            yield from walk_stmts(s.then + s.els)


def stmt_exprs(stmts) -> list[Expr]:
    """Every expression the statements evaluate, branch conditions
    included, in source order."""
    out: list[Expr] = []
    for s in walk_stmts(stmts):
        if isinstance(s, Assign):
            out.append(s.value)
        elif isinstance(s, OpStmt):
            out.extend(s.args)
        elif isinstance(s, Send):
            if s.dest is not None:
                out.append(s.dest)
            out.extend(s.args)
        elif isinstance(s, If):
            out.append(s.cond)
    return out


# ---------------------------------------------------------------------------
# Declarations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InputGuard:
    sender: str  # binder name or existing variable (equality match)
    msg: str
    params: tuple[str, ...]
    pos: Pos = field(default=NOPOS, compare=False)


@dataclass(frozen=True)
class Transition:
    source: str
    input: InputGuard | None
    when: Expr | None
    access: tuple[str, Expr] | None  # ("by" | "notby", expr)
    target: str
    action: tuple[Stmt, ...]
    pos: Pos = field(default=NOPOS, compare=False)


@dataclass(frozen=True)
class StateDecl:
    name: str
    transitions: tuple[Transition, ...]
    pos: Pos = field(default=NOPOS, compare=False)


@dataclass(frozen=True)
class VarDecl:
    name: str
    typ: SemType
    ghost: bool = False
    default: Expr | None = None  # map value default literal
    init: Expr | None = None
    pos: Pos = field(default=NOPOS, compare=False)


@dataclass(frozen=True)
class MsgSig:
    name: str
    params: tuple[SemType, ...]
    pos: Pos = field(default=NOPOS, compare=False)


@dataclass(frozen=True)
class ContractDecl:
    name: str
    params: tuple[tuple[str, SemType], ...]
    where: Expr | None
    issues: bool
    issue_limit: Expr | None  # literal; None means unlimited
    messages: tuple[MsgSig, ...]
    vars: tuple[VarDecl, ...]
    initial: str
    states: tuple[StateDecl, ...]
    pos: Pos = field(default=NOPOS, compare=False)

    def state_names(self) -> tuple[str, ...]:
        return tuple(s.name for s in self.states)

    def transitions(self) -> tuple[Transition, ...]:
        out = []
        for s in self.states:
            out.extend(s.transitions)
        return tuple(out)


@dataclass(frozen=True)
class Program:
    contracts: tuple[ContractDecl, ...] = field(default_factory=tuple)
