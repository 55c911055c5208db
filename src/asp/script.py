"""Line-oriented simulation scripts.

Directives:
    new <name> = <Contract>(<literals>) by <creator>
    input <instance> <msg>(<literals>) from <addr>
    advance <delta>
    expect-reject            # marks the input/advance on the next line
    assert <instance> @<State>
    assert <expr>            # instance variables as <instance>.<var>

Literals: numbers, true/false, none, bare names (addresses), coin(<n>),
and token(<issuer>, <n>); an input's literals must have the types of its
message's parameters. Blank lines and // comments are ignored. An
expect-reject marker must directly precede an input or advance.

Each `assert <expr>` is typed by `check_assertions` before any item runs,
and is evaluated in the form the checker returns (so `nat - nat` is
undefined below zero, as in contract code).
`check_item` says what an item means, and both `asp simulate`
(`run_script`) and `asp diff` (`diff.run_differential`) honour it: a false
assertion, or an expect-reject item the cascade accepts, is a ScriptError
at the item's line. Only `asp simulate` also fails on an unmarked item the
cascade rejects; `asp diff` compares that with the target's revert.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import NoReturn

from .ast_nodes import ADDRESS, BOOL, Builtin, Expr, Quant, SemType, Var, map_children
from .cascade import (
    CascadeLimit, Config, Rejected, System, TraceEvent, WhereClauseViolated,
    env_input, init_system, time_advance, wake_internal,
)
from .diagnostics import AspError, Pos, ScriptError
from .lexer import tokenize
from .machine import InputLetter, InstanceState, eval_expr
from .parser import TokenStream, parse_expr
from .typecheck import ExprChecker, TypedProgram, free_vars
from .values import ADDR_NONE, Coin, Tok, has_type


@dataclass(frozen=True)
class NewItem:
    name: str
    contract: str
    args: tuple
    creator: str
    line: int


@dataclass(slots=True)
class InputItem:
    instance: str
    msg: str
    args: tuple
    sender: str
    line: int
    expect_reject: bool = False

    @property
    def letter(self) -> InputLetter:
        return InputLetter(self.msg, self.sender, self.args)


@dataclass(slots=True)
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


def _address(name: str) -> str:
    """A bare name in a script is an address; `none` is the none address."""
    return ADDR_NONE if name == "none" else name


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
        return _address(tok.text)
    raise ScriptError(f"bad literal {tok.text!r}", tok.pos)


def _parse_args(ts: TokenStream):
    if not ts.accept("("):
        return ()
    args = ts.comma_list(_parse_literal, ")")
    ts.expect(")")
    return args


def _misplaced_marker(line: int) -> ScriptError:
    return ScriptError(
        f"line {line}: expect-reject must directly precede an input or advance",
        Pos(line, 1))


def parse_script(text: str):
    """Returns (instantiations, items)."""
    news: list[NewItem] = []
    items: list = []
    marker = 0  # line of the expect-reject waiting for its item, 0 if none
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("//")[0].strip()
        if not line:
            continue
        ts = TokenStream(tokenize(line))
        head = ts.ident()
        if marker and head not in ("input", "advance"):
            raise _misplaced_marker(marker)
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
            sender = _address(ts.ident())
            items.append(InputItem(inst, msg, args, sender, lineno, bool(marker)))
            marker = 0
        elif head == "advance":
            delta = int(ts.expect("number").text)
            items.append(AdvanceItem(delta, lineno, bool(marker)))
            marker = 0
        elif head == "expect" and ts.accept("-"):
            ts.expect("ident", "reject")
            marker = lineno
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
    if marker:
        raise _misplaced_marker(marker)
    return news, items


def _over_system(e: Expr, names) -> Expr:
    """An assertion as an expression over the whole system: each
    `<instance>.<var>` read, an argument-free `Ns.op` other than
    `Address.none` and `Address.self`, becomes the variable named so. A
    ScriptError for a quantifier, or a read of an instance not in `names`."""
    if isinstance(e, Quant):
        raise ScriptError("quantifiers are not allowed in script assertions")
    if isinstance(e, Builtin) and not e.args and e.ns != "Address":
        if e.ns not in names:
            raise ScriptError(f"unknown instance {e.ns!r}")
        return Var(f"{e.ns}.{e.op}", e.pos)
    return map_children(e, lambda x: _over_system(x, names))


def check_assertions(program: TypedProgram, news: list[NewItem], items: list) -> list:
    """Type each assertion of a script before any item runs. A bare name
    is an address; `<instance>.<var>` has the declared type of the
    instance's variable or parameter, and `.owner`, `.creator` and `.self`
    are addresses. An unknown instance or variable, or an assertion that
    is ill-typed or not a bool, is a ScriptError at its line. Returns the
    items with each assertion in the form the checker returns, over the
    whole system: the form `eval_script_expr` evaluates, in which `nat -
    nat` is undefined below zero as in contract code."""
    scope: dict[str, SemType] = {}
    for n in news:
        own = {**program.contract(n.contract).state_scope(), "self": ADDRESS}
        scope.update({f"{n.name}.{v}": t for v, t in own.items()})
    names = {n.name for n in news}
    checked = list(items)
    for i, item in enumerate(items):
        if not isinstance(item, AssertExprItem):
            continue
        try:
            e = _over_system(item.expr, names)
            bare = {}
            for name in free_vars(e):
                inst, dot, var = name.partition(".")
                if not dot:
                    bare[name] = ADDRESS
                elif name not in scope:
                    raise ScriptError(f"{inst} has no variable {var!r}")
            t, e = ExprChecker({**scope, **bare}).check(e)
        except AspError as err:
            _fail(item, err.message)
        if t != BOOL:
            _fail(item, f"assertion has type {t}, expected bool")
        checked[i] = AssertExprItem(e, item.line)
    return checked


def eval_script_expr(e: Expr, system: System, config: Config):
    """The value of an assertion in the form `check_assertions` returns,
    over the whole system, or None when it is undefined there."""
    bindings: dict[str, object] = {}
    for name in free_vars(e):
        inst_name, dot, var = name.partition(".")
        if not dot:
            bindings[name] = _address(name)
            continue
        inst = config.states[system.index_of_addr(inst_name)]
        if var == "owner":
            bindings[name] = inst.owner
        elif var == "creator":
            bindings[name] = inst.creator
        elif var == "self":
            bindings[name] = inst.self_addr
        else:
            bindings[name] = inst.env[var]
    dummy = InstanceState("<script>", "", {}, "env", "env", "env")
    return eval_expr(e, dummy, bindings)


def instance_index(system: System, name: str, line: int) -> int:
    """The index of the instance a script item names; a ScriptError at
    the item's line if there is none."""
    idx = system.index_of_addr(name)
    if idx is None:
        raise ScriptError(f"unknown instance {name!r}", Pos(line, 1))
    return idx


def _fail(item, message: str) -> NoReturn:
    raise ScriptError(f"line {item.line}: {message}", Pos(item.line, 1))


def input_target(system: System, item: InputItem) -> int:
    """The index of the instance an input names, once its literals are
    checked against the message's parameter types. An undeclared message
    or a wrong number of arguments is left to the cascade, which rejects
    the input."""
    idx = instance_index(system, item.instance, item.line)
    sig = system.contracts[idx].msg_sigs.get(item.msg, ())
    if len(sig) == len(item.args):
        for i, (v, t) in enumerate(zip(item.args, sig), start=1):
            if not has_type(v, t):
                _fail(item, f"argument {i} of {item.msg!r} is {v!r}, expected {t}")
    return idx


def check_item(item, system: System, config: Config):
    """The meaning of a script item the cascade did not reject, on the
    configuration it leaves: an assertion must hold there, and an input
    or advance must not be marked expect-reject. Both runners call it after
    their own cascade step, or for an assertion instead of one."""
    if isinstance(item, AssertStateItem):
        actual = config.states[instance_index(system, item.instance, item.line)].skeleton
        if actual != item.state:
            _fail(item, f"{item.instance} is at {actual}, expected {item.state}")
    elif isinstance(item, AssertExprItem):
        v = eval_script_expr(item.expr, system, config)
        if v is None:
            _fail(item, "assertion is undefined")
        if v is not True:
            _fail(item, f"assertion evaluated to {v!r}")
    elif item.expect_reject:
        _fail(item, "the cascade accepts an item marked expect-reject")


@dataclass
class ScriptResult:
    system: System
    config: Config
    events: list[TraceEvent] = field(default_factory=list)


def instantiations(program: TypedProgram, news: list[NewItem]):
    """(name, contract, args, creator) of each `new` line, for
    init_system; a ScriptError for an unknown contract, a wrong number of
    arguments or a literal of the wrong type."""
    out = []
    for n in news:
        if n.contract not in program.contracts:
            raise ScriptError(f"unknown contract {n.contract!r}", Pos(n.line, 1))
        tc = program.contract(n.contract)
        if len(n.args) != len(tc.params):
            raise ScriptError(
                f"{n.contract} takes {len(tc.params)} argument(s)", Pos(n.line, 1))
        for i, ((_, t), v) in enumerate(zip(tc.params, n.args), start=1):
            if not has_type(v, t):
                _fail(n, f"argument {i} of {n.contract!r} is {v!r}, expected {t}")
        args = {pname: v for (pname, _), v in zip(tc.params, n.args)}
        out.append((n.name, n.contract, args, n.creator))
    return out


def at_new_line(e: WhereClauseViolated, news: list[NewItem]) -> WhereClauseViolated:
    """e, from init_system, at the `new` line of the instantiation it
    names."""
    return WhereClauseViolated(e.message, Pos(news[e.index].line, 1))


def run_script(program: TypedProgram, news: list[NewItem], items: list, R: int,
               rng: random.Random | None = None) -> ScriptResult:
    """Replay, choosing among enabled moves with `rng` (see `System.pick`).
    Aborts with a position-tagged ScriptError where `check_item` does, and
    on the first item the cascade rejects that is not marked expect-reject,
    or whose cascade does not quiesce; a `new` that init_system refuses is
    reported at its line."""
    try:
        system, config = init_system(program, instantiations(program, news), R, rng)
    except WhereClauseViolated as e:
        raise at_new_line(e, news) from None
    items = check_assertions(program, news, items)
    result = ScriptResult(system, config)
    for item in items:
        events = []
        try:
            if isinstance(item, InputItem):
                config, events = env_input(
                    system, config, input_target(system, item), item.letter)
            elif isinstance(item, AdvanceItem):
                config, ev = time_advance(system, config, item.delta)
                config, events = wake_internal(system, config)
                events = [ev, *events]
        except Rejected as e:
            if not item.expect_reject:
                _fail(item, e.message)
            continue
        except CascadeLimit as e:
            _fail(item, e.message)
        check_item(item, system, config)
        result.events.extend(events)
    result.config = config
    return result


def run_script_text(program: TypedProgram, text: str, R: int,
                    rng: random.Random | None = None) -> ScriptResult:
    news, items = parse_script(text)
    return run_script(program, news, items, R, rng)
