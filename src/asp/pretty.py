"""Canonical pretty-printer; reparsing its output reproduces the AST."""
from __future__ import annotations

from .ast_nodes import (
    Assign, Binop, Builtin, ContractDecl, Expr, If, Lit, OpStmt, Program,
    Quant, Send, Stmt, Transition, Unop, Var,
)
from .parser import BINARY, LEVELS

# The parser's levels, and the typechecker's nat subtraction, printed "-".
_PREC = {**BINARY, "-nat": BINARY["-"]}
_UNARY = len(LEVELS) + 1


def fmt_expr(e: Expr, parent_prec: int = 0) -> str:
    if isinstance(e, Lit):
        if isinstance(e.value, bool):
            return "true" if e.value else "false"
        return str(e.value)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Unop):
        operand = fmt_expr(e.operand, _UNARY)
        # "!!" lexes as a send, so a negated negation keeps a space.
        return f"{e.op} {operand}" if e.op + operand[0] == "!!" else e.op + operand
    if isinstance(e, Binop):
        prec, assoc = _PREC[e.op]
        op = "-" if e.op == "-nat" else e.op
        # An operand is read one level up on the side its level does not
        # associate to; a "none" level is also parenthesized at its own
        # level, which includes the right operand of the level below it.
        lp = prec + (assoc == "right")
        rp = prec + (assoc != "right")
        s = f"{fmt_expr(e.left, lp)} {op} {fmt_expr(e.right, rp)}"
        own = assoc == "none" and prec == parent_prec
        return f"({s})" if prec < parent_prec or own else s
    if isinstance(e, Builtin):
        if not e.args:
            return f"{e.ns}.{e.op}"
        return f"{e.ns}.{e.op}({', '.join(fmt_expr(a) for a in e.args)})"
    if isinstance(e, Quant):
        body = fmt_expr(e.body)
        s = f"{e.kind} {e.var}: {e.typ} : {body}"
        return f"({s})" if parent_prec > 0 else s
    raise TypeError(f"unknown expr {e!r}")


def fmt_stmt(s: Stmt, indent: str) -> list[str]:
    if isinstance(s, Assign):
        return [f"{indent}{s.target} = {fmt_expr(s.value)};"]
    if isinstance(s, OpStmt):
        args = ", ".join(fmt_expr(a) for a in s.args)
        return [f"{indent}{s.ns}.{s.op}({args});"]
    if isinstance(s, Send):
        dest = "log" if s.is_log else fmt_expr(s.dest, _UNARY)
        args = f"({', '.join(fmt_expr(a) for a in s.args)})" if s.args else ""
        return [f"{indent}{dest}!!{s.msg}{args};"]
    if isinstance(s, If):
        lines = [f"{indent}if {fmt_expr(s.cond)} then {{"]
        for t in s.then:
            lines.extend(fmt_stmt(t, indent + "  "))
        if s.els:
            lines.append(f"{indent}}} else {{")
            for t in s.els:
                lines.extend(fmt_stmt(t, indent + "  "))
        lines.append(f"{indent}}}")
        return lines
    raise TypeError(f"unknown stmt {s!r}")


def fmt_transition(t: Transition, indent: str) -> list[str]:
    head = f"{indent}| "
    if t.input:
        params = f"({', '.join(t.input.params)})" if t.input.params else ""
        head += f"{t.input.sender}??{t.input.msg}{params} "
    if t.when is not None:
        head += f"when {fmt_expr(t.when)} "
    if t.access is not None:
        head += f"{t.access[0]} {fmt_expr(t.access[1])} "
    head += f"-> {t.target}"
    if not t.action:
        return [head]
    lines = [head + " {"]
    for s in t.action:
        lines.extend(fmt_stmt(s, indent + "  "))
    lines.append(indent + "}")
    return lines


def fmt_contract(c: ContractDecl) -> str:
    lines = []
    params = ", ".join(f"{n}: {t}" for n, t in c.params)
    head = f"contract {c.name}({params})"
    if c.issues:
        limit = fmt_expr(c.issue_limit) if c.issue_limit is not None else ""
        head += f" issues Token({limit})"
    if c.where is not None:
        head += f" where {fmt_expr(c.where)}"
    lines.append(head + " {")
    for m in c.messages:
        sig = f"({', '.join(str(p) for p in m.params)})" if m.params else ""
        lines.append(f"  msg {m.name}{sig};")
    for v in c.vars:
        decl = f"  {'ghost ' if v.ghost else ''}var {v.name}: {v.typ}"
        if v.default is not None:
            decl += f" default {fmt_expr(v.default)}"
        if v.init is not None:
            decl += f" := {fmt_expr(v.init)}"
        lines.append(decl + ";")
    lines.append(f"  initial {c.initial};")
    for st in c.states:
        lines.append("")
        lines.append(f"  state {st.name}:")
        for t in st.transitions:
            lines.extend(fmt_transition(t, "  "))
    lines.append("}")
    return "\n".join(lines)


def fmt_program(p: Program) -> str:
    return "\n\n".join(fmt_contract(c) for c in p.contracts) + "\n"
