"""Line-oriented simulation scripts.

Directives:
    new <name> = <Contract>(<literals>) by <creator>
    input <instance> <msg>(<literals>) from <addr>
    advance <delta>
    expect-reject            # marks the next input/advance
    assert <instance> @<State>
    assert <expr>            # instance variables as <instance>.<var>

Literals: numbers, true/false, none, bare names (addresses), coin(<n>),
and token(<issuer>, <n>). Blank lines and // comments are ignored.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .ast_nodes import Builtin, Expr, Var
from .cascade import (
    ChoicePolicy, Config, Rejected, System, TraceEvent, env_input,
    init_system, time_advance, wake_internal,
)
from .diagnostics import Pos, ScriptError
from .lexer import tokenize
from .machine import InputLetter, InstanceState, eval_expr
from .parser import TokenStream, parse_expr
from .typecheck import TypedProgram
from .values import ADDR_NONE, Coin, Tok


@dataclass(frozen=True)
class NewItem:
    name: str
    contract: str
    args: tuple
    creator: str
    line: int


@dataclass(frozen=True)
class InputItem:
    instance: str
    msg: str
    args: tuple
    sender: str
    line: int
    expect_reject: bool = False


@dataclass(frozen=True)
class AdvanceItem:
    delta: int
    line: int
    expect_reject: bool = False


@dataclass(frozen=True)
class AssertStateItem:
    instance: str
    state: str
    line: int


@dataclass(frozen=True)
class AssertExprItem:
    expr: Expr
    line: int


def _parse_literal(ts: TokenStream):
    tok = ts.peek()
    if tok.kind == "number":
        ts.next()
        return int(tok.text)
    if tok.kind == "-":
        ts.next()
        return -int(ts.expect("number").text)
    if tok.kind == "ident":
        ts.next()
        if tok.text in ("true", "false"):
            return tok.text == "true"
        if tok.text == "coin":
            ts.expect("(")
            n = int(ts.expect("number").text)
            ts.expect(")")
            return Coin(n)
        if tok.text == "token":
            ts.expect("(")
            issuer = ts.ident()
            ts.expect(",")
            n = int(ts.expect("number").text)
            ts.expect(")")
            return Tok(issuer if n else None, n)
        return tok.text  # address by name; "none" is the none address
    raise ScriptError(f"bad literal {tok.text!r}", tok.pos)


def _parse_args(ts: TokenStream):
    args = []
    if ts.accept("("):
        if not ts.at(")"):
            args.append(_parse_literal(ts))
            while ts.accept(","):
                args.append(_parse_literal(ts))
        ts.expect(")")
    return tuple(args)


def parse_script(text: str):
    """Returns (instantiations, items)."""
    news: list[NewItem] = []
    items: list = []
    pending_reject = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("//")[0].strip()
        if not line:
            continue
        ts = TokenStream(tokenize(line))
        head = ts.ident()
        if head == "new":
            name = ts.ident()
            ts.expect("=")
            contract = ts.ident()
            args = _parse_args(ts)
            ts.expect("ident", "by")
            creator = ts.ident()
            news.append(NewItem(name, contract, args, creator, lineno))
        elif head == "input":
            inst = ts.ident()
            msg = ts.ident()
            args = _parse_args(ts)
            ts.expect("ident", "from")
            sender = ts.ident()
            items.append(InputItem(inst, msg, args, sender, lineno, pending_reject))
            pending_reject = False
        elif head == "advance":
            delta = int(ts.expect("number").text)
            items.append(AdvanceItem(delta, lineno, pending_reject))
            pending_reject = False
        elif head == "expect" and ts.accept("-"):
            ts.expect("ident", "reject")
            pending_reject = True
        elif head == "assert":
            if ts.at("ident") and ts.peek(1).kind == "@":
                inst = ts.ident()
                ts.expect("@")
                state = ts.ident()
                items.append(AssertStateItem(inst, state, lineno))
            else:
                e = parse_expr(ts)
                items.append(AssertExprItem(e, lineno))
        else:
            raise ScriptError(f"unknown directive {head!r}", Pos(lineno, 1))
        if not ts.at("eof"):
            raise ScriptError(f"trailing input on script line", Pos(lineno, 1))
    return news, items


def _resolve_literal(v, system: System):
    if isinstance(v, str):
        return ADDR_NONE if v == "none" else v
    return v


def eval_script_expr(e: Expr, system: System, config: Config):
    """Evaluate an assertion over the whole system: bare names are
    addresses, <instance>.<var> reads that instance's variable."""
    from dataclasses import replace

    from .ast_nodes import Binop, Quant, Unop

    bindings: dict[str, object] = {}

    def rewrite(x: Expr) -> Expr:
        if isinstance(x, Var):
            if x.name not in bindings:
                bindings[x.name] = ADDR_NONE if x.name == "none" else x.name
            return x
        if isinstance(x, Builtin) and x.ns in system.names and not x.args:
            idx = system.index_of_addr(x.ns)
            inst = config.states[idx]
            key = f"{x.ns}.{x.op}"
            if x.op == "owner":
                bindings[key] = inst.owner
            elif x.op == "creator":
                bindings[key] = inst.creator
            elif x.op == "self":
                bindings[key] = inst.self_addr
            elif x.op in inst.env:
                bindings[key] = inst.env[x.op]
            else:
                raise ScriptError(f"{x.ns} has no variable {x.op!r}")
            return Var(key)
        if isinstance(x, Builtin):
            return replace(x, args=tuple(rewrite(a) for a in x.args))
        if isinstance(x, Unop):
            return replace(x, operand=rewrite(x.operand))
        if isinstance(x, Binop):
            return replace(x, left=rewrite(x.left), right=rewrite(x.right))
        if isinstance(x, Quant):
            raise ScriptError("quantifiers are not allowed in script assertions")
        return x

    rewritten = rewrite(e)
    dummy = InstanceState("<script>", "", {}, "env", "env", "env")
    return eval_expr(rewritten, dummy, bindings)


@dataclass
class ScriptResult:
    system: System
    config: Config
    events: list[TraceEvent] = field(default_factory=list)


def instantiations(program: TypedProgram, news: list[NewItem]):
    """(name, contract, args, creator) of each `new` line, for
    init_system; a ScriptError for an unknown contract or a wrong number
    of arguments."""
    out = []
    for n in news:
        if n.contract not in program.contracts:
            raise ScriptError(f"unknown contract {n.contract!r}", Pos(n.line, 1))
        tc = program.contract(n.contract)
        if len(n.args) != len(tc.params):
            raise ScriptError(
                f"{n.contract} takes {len(tc.params)} argument(s)", Pos(n.line, 1))
        args = {pname: _resolve_literal(v, None)
                for (pname, _), v in zip(tc.params, n.args)}
        out.append((n.name, n.contract, args, n.creator))
    return out


def run_script(program: TypedProgram, news: list[NewItem], items: list, R: int,
               policy: ChoicePolicy | None = None,
               step_limit: int = 10_000) -> ScriptResult:
    """Deterministic replay under the given policy. Aborts with a
    position-tagged ScriptError on the first Rejected item not marked
    expect-reject, and on the first failed assertion."""
    system, config = init_system(program, instantiations(program, news), R,
                                 policy, step_limit)
    result = ScriptResult(system, config)

    for item in items:
        if isinstance(item, InputItem):
            idx = system.index_of_addr(item.instance)
            if idx is None:
                raise ScriptError(f"unknown instance {item.instance!r}",
                                  Pos(item.line, 1))
            letter = InputLetter(
                item.msg, _resolve_literal(item.sender, system),
                tuple(_resolve_literal(a, system) for a in item.args))
            try:
                config, events = env_input(system, result.config, idx, letter)
            except Rejected as e:
                if item.expect_reject:
                    continue
                raise ScriptError(f"line {item.line}: {e.message}", Pos(item.line, 1))
            if item.expect_reject:
                raise ScriptError(
                    f"line {item.line}: input was accepted but marked expect-reject",
                    Pos(item.line, 1))
            result.config = config
            result.events.extend(events)
        elif isinstance(item, AdvanceItem):
            try:
                config, ev = time_advance(system, result.config, item.delta)
            except Rejected as e:
                if item.expect_reject:
                    continue
                raise ScriptError(f"line {item.line}: {e.message}", Pos(item.line, 1))
            if item.expect_reject:
                raise ScriptError(
                    f"line {item.line}: advance succeeded but marked expect-reject",
                    Pos(item.line, 1))
            config, wake_events = wake_internal(system, config)
            result.config = config
            result.events.append(ev)
            result.events.extend(wake_events)
        elif isinstance(item, AssertStateItem):
            idx = system.index_of_addr(item.instance)
            if idx is None:
                raise ScriptError(f"unknown instance {item.instance!r}",
                                  Pos(item.line, 1))
            actual = result.config.states[idx].skeleton
            if actual != item.state:
                raise ScriptError(
                    f"line {item.line}: {item.instance} is at {actual}, "
                    f"expected {item.state}", Pos(item.line, 1))
        elif isinstance(item, AssertExprItem):
            v = eval_script_expr(item.expr, system, result.config)
            if v is not True:
                raise ScriptError(
                    f"line {item.line}: assertion evaluated to {v!r}",
                    Pos(item.line, 1))
        else:
            raise ScriptError(f"unhandled item {item!r}")
    return result


def run_script_text(program: TypedProgram, text: str, R: int,
                    policy: ChoicePolicy | None = None,
                    step_limit: int = 10_000) -> ScriptResult:
    news, items = parse_script(text)
    return run_script(program, news, items, R, policy, step_limit)
