"""Recursive-descent parser for Asp contracts and shared expression syntax.

The grammar is documented in README.md (it is reconstructed to cover every
construct in the sample contracts shipped under corpus/).
"""
from __future__ import annotations

from .ast_nodes import (
    ContractDecl, Expr, If, InputGuard, Lit, MsgSig, OpStmt, Program,
    Quant, Send, SemType, StateDecl, Stmt, Transition, Unop, Var, VarDecl,
    Assign, Binop, Builtin, PRIM_TYPES,
)
from .diagnostics import ParseError
from .lexer import Token, tokenize

# The binary operators by level, loosest first, with each level's
# associativity: "right" nests `a op b op c` to the right, "left" to the
# left, and a "none" level takes no operand of its own level unless it is
# parenthesized, so `a < b < c` stops before the second operator.
LEVELS = (
    ("right", ("==>",)),
    ("left", ("||",)),
    ("left", ("&&",)),
    ("none", ("==", "!=", "<", "<=", ">", ">=")),
    ("left", ("+", "-")),
    ("left", ("*", "/", "%")),
)
# operator -> (level, associativity); level 1 binds loosest, and the
# printer reads 0 as no enclosing operator and len(LEVELS) + 1 as unary.
BINARY = {op: (level, assoc)
          for level, (assoc, ops) in enumerate(LEVELS, 1) for op in ops}


class TokenStream:
    def __init__(self, tokens: list[Token]):
        self.toks = tokens
        self.i = 0

    def peek(self, ahead: int = 0) -> Token:
        j = min(self.i + ahead, len(self.toks) - 1)
        return self.toks[j]

    def next(self) -> Token:
        t = self.peek()
        if t.kind != "eof":
            self.i += 1
        return t

    def at(self, kind: str, text: str | None = None) -> bool:
        t = self.peek()
        return t.kind == kind and (text is None or t.text == text)

    def at_kw(self, word: str) -> bool:
        return self.at("ident", word)

    def accept(self, kind: str, text: str | None = None) -> Token | None:
        if self.at(kind, text):
            return self.next()
        return None

    def expect(self, kind: str, text: str | None = None) -> Token:
        if self.at(kind, text):
            return self.next()
        got = self.peek()
        want = text or kind
        raise ParseError(
            f"expected {want!r}, found {got.text or got.kind!r}",
            got.pos, expected=(want,),
        )

    def expect_kw(self, word: str) -> Token:
        return self.expect("ident", word)

    def ident(self) -> str:
        return self.expect("ident").text

    def comma_list(self, item, closer: str | None = None) -> tuple:
        """`item ("," item)*`, each item read by `item(self)`; empty when
        the next token is `closer`, which is left for the caller."""
        if closer is not None and self.at(closer):
            return ()
        out = [item(self)]
        while self.accept(","):
            out.append(item(self))
        return tuple(out)


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


def parse_expr(ts: TokenStream, lowest: int = 1) -> Expr:
    """An expression whose binary operators are all of level `lowest` or
    above, by precedence climbing over LEVELS. After an operator of level
    L the loop takes only operators of level L or below (below L for a
    "none" level), so a comparison never takes a comparison as its left
    operand, even where an enclosing loop would."""
    left = _unary(ts)
    highest = len(LEVELS)
    while True:
        tok = ts.peek()
        level, assoc = BINARY.get(tok.kind, (0, None))
        if not lowest <= level <= highest:
            return left
        ts.next()
        right = parse_expr(ts, level if assoc == "right" else level + 1)
        left = Binop(tok.kind, left, right, tok.pos)
        highest = level - 1 if assoc == "none" else level


def _unary(ts) -> Expr:
    if ts.at("!") or ts.at("-"):
        tok = ts.next()
        return Unop(tok.kind, _unary(ts), tok.pos)
    return _primary(ts)


def _primary(ts) -> Expr:
    tok = ts.next()
    if tok.kind == "number":
        return Lit(int(tok.text), tok.pos)
    if tok.kind == "(":
        e = parse_expr(ts)
        ts.expect(")")
        return e
    if tok.kind == "ident":
        if tok.text in ("true", "false"):
            return Lit(tok.text == "true", tok.pos)
        if tok.text in ("forall", "exists"):
            var = ts.ident()
            ts.expect(":")
            typ = parse_type(ts)
            ts.expect(":")
            body = parse_expr(ts)
            return Quant(tok.text, var, typ, body, tok.pos)
        if ts.accept("."):
            op = ts.ident()
            args: tuple[Expr, ...] = ()
            if ts.accept("("):
                args = ts.comma_list(parse_expr, ")")
                ts.expect(")")
            return Builtin(tok.text, op, args, tok.pos)
        return Var(tok.text, tok.pos)
    raise ParseError(
        f"expected expression, found {tok.text or tok.kind!r}", tok.pos,
        expected=("expression",),
    )


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------


def parse_type(ts: TokenStream) -> SemType:
    tok = ts.expect("ident")
    name = tok.text
    if name in PRIM_TYPES:
        return SemType(name)
    if name == "map":
        ts.expect("[")
        k = parse_type(ts)
        ts.expect(",")
        v = parse_type(ts)
        ts.expect("]")
        return SemType("map", (k, v))
    if name == "seq":
        ts.expect("[")
        e = parse_type(ts)
        ts.expect("]")
        return SemType("seq", (e,))
    if name == "tuple":
        ts.expect("[")
        items = ts.comma_list(parse_type)
        ts.expect("]")
        return SemType("tuple", items)
    raise ParseError(f"unknown type {name!r}", tok.pos, expected=PRIM_TYPES)


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


def parse_stmt(ts: TokenStream) -> Stmt:
    tok = ts.peek()
    if ts.accept("ident", "if"):
        cond = parse_expr(ts)
        ts.expect_kw("then")
        then = _stmt_or_block(ts)
        els: tuple[Stmt, ...] = ()
        if ts.accept("ident", "else"):
            els = _stmt_or_block(ts)
        return If(cond, then, els, tok.pos)
    # Everything else starts as an expression, then dispatches on what
    # follows: "=" assignment, "!!" send, or a bare namespaced operation.
    e = parse_expr(ts)
    if ts.accept("="):
        if not isinstance(e, Var):
            raise ParseError("assignment target must be a variable", tok.pos)
        return Assign(e.name, parse_expr(ts), tok.pos)
    if ts.accept("!!"):
        msg = ts.ident()
        args: tuple[Expr, ...] = ()
        if ts.accept("("):
            args = ts.comma_list(parse_expr, ")")
            ts.expect(")")
        dest = None if isinstance(e, Var) and e.name == "log" else e
        return Send(dest, msg, args, tok.pos)
    if isinstance(e, Builtin):
        return OpStmt(e.ns, e.op, e.args, tok.pos)
    raise ParseError(
        f"expression is not a statement", tok.pos, expected=("=", "!!"),
    )


def _stmt_or_block(ts) -> tuple[Stmt, ...]:
    if ts.at("{"):
        return parse_block(ts)
    return (parse_stmt(ts),)


def parse_block(ts: TokenStream) -> tuple[Stmt, ...]:
    ts.expect("{")
    stmts: list[Stmt] = []
    while not ts.at("}"):
        stmts.append(parse_stmt(ts))
        if not ts.accept(";"):
            break
    ts.expect("}")
    return tuple(stmts)


# ---------------------------------------------------------------------------
# Contract declarations
# ---------------------------------------------------------------------------


def parse_contract(ts: TokenStream) -> ContractDecl:
    pos = ts.expect_kw("contract").pos
    name = ts.ident()
    ts.expect("(")
    params = ts.comma_list(_param, ")")
    ts.expect(")")

    issues = False
    issue_limit: Expr | None = None
    where: Expr | None = None
    while True:
        if ts.accept("ident", "issues"):
            ts.expect_kw("Token")
            ts.expect("(")
            if not ts.at(")"):
                issue_limit = parse_expr(ts)
            ts.expect(")")
            issues = True
        elif ts.accept("ident", "where"):
            where = parse_expr(ts)
        else:
            break

    ts.expect("{")
    messages: list[MsgSig] = []
    vars_: list[VarDecl] = []
    initial: str | None = None
    states: list[StateDecl] = []
    while not ts.at("}"):
        if ts.accept("ident", "msg"):
            messages.extend(ts.comma_list(_msg_sig))
            ts.expect(";")
        elif ts.at_kw("var") or (ts.at_kw("ghost") and ts.peek(1).text == "var"):
            ghost = ts.accept("ident", "ghost") is not None
            ts.expect_kw("var")
            for group, vtyp, default, init in ts.comma_list(_var_group):
                vars_.extend(VarDecl(vname, vtyp, ghost, default, init, vpos)
                             for vpos, vname in group)
            ts.expect(";")
        elif ts.accept("ident", "initial"):
            initial = ts.ident()
            ts.expect(";")
        elif ts.at_kw("state"):
            states.append(_parse_state(ts))
        else:
            got = ts.peek()
            raise ParseError(
                f"expected contract item, found {got.text or got.kind!r}",
                got.pos, expected=("msg", "var", "ghost", "initial", "state"),
            )
    ts.expect("}")
    if initial is None:
        raise ParseError(f"contract {name} declares no initial state", pos)
    return ContractDecl(
        name, params, where, issues, issue_limit,
        tuple(messages), tuple(vars_), initial, tuple(states), pos,
    )


def _param(ts: TokenStream) -> tuple[str, SemType]:
    name = ts.ident()
    ts.expect(":")
    return name, parse_type(ts)


def _msg_sig(ts: TokenStream) -> MsgSig:
    pos = ts.peek().pos
    name = ts.ident()
    params: tuple[SemType, ...] = ()
    if ts.accept("("):
        params = ts.comma_list(parse_type)
        ts.expect(")")
    return MsgSig(name, params, pos)


def _var_group(ts: TokenStream):
    """One group of a var declaration, `name ("," name)* ":" type
    ["default" literal] [":=" expr]`, as (positioned names, type, default,
    init). A "," continues the names only when a name and then "," or ":"
    follow it; otherwise it starts the next group."""
    group = [(ts.peek().pos, ts.ident())]
    while ts.at(",") and ts.peek(1).kind == "ident" and \
            ts.peek(2).kind in (",", ":"):
        ts.next()
        group.append((ts.peek().pos, ts.ident()))
    ts.expect(":")
    vtyp = parse_type(ts)
    default = _unary(ts) if ts.accept("ident", "default") else None
    init = parse_expr(ts) if ts.accept(":=") else None
    return group, vtyp, default, init


def _parse_state(ts: TokenStream) -> StateDecl:
    pos = ts.expect_kw("state").pos
    name = ts.ident()
    ts.expect(":")
    transitions: list[Transition] = []
    while ts.at("|"):
        transitions.append(_parse_transition(ts, name))
    return StateDecl(name, tuple(transitions), pos)


def _parse_transition(ts: TokenStream, source: str) -> Transition:
    pos = ts.expect("|").pos
    input_guard: InputGuard | None = None
    # Input guard: IDENT ?? IDENT [(binders)]
    if ts.at("ident") and ts.peek(1).kind == "??":
        sender = ts.ident()
        ts.expect("??")
        msg = ts.ident()
        binders: tuple[str, ...] = ()
        if ts.accept("("):
            binders = ts.comma_list(TokenStream.ident)
            ts.expect(")")
        input_guard = InputGuard(sender, msg, binders, pos)
    when = None
    access = None
    while True:
        if ts.accept("ident", "when"):
            when = parse_expr(ts)
        elif ts.at_kw("by") or ts.at_kw("notby"):
            access = (ts.next().text, parse_expr(ts))
        else:
            break
    ts.expect("->")
    target = ts.ident()
    action: tuple[Stmt, ...] = ()
    if ts.at("{"):
        action = parse_block(ts)
    return Transition(source, input_guard, when, access, target, action, pos)


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def parse_program(source: str) -> Program:
    ts = TokenStream(tokenize(source))
    contracts = []
    while not ts.at("eof"):
        contracts.append(parse_contract(ts))
    return Program(tuple(contracts))


def parse_expression(source: str) -> Expr:
    """Parse a standalone expression (scripts, sketches, tests)."""
    ts = TokenStream(tokenize(source))
    e = parse_expr(ts)
    ts.expect("eof")
    return e
