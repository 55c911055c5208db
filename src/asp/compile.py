"""Compilation of predicates, actions, and ranks into Python closures for
the bounded discharge engine.

Proof verdicts come from two independent routes. The engine prunes,
propagates and checks its high-volume leaves with the code generated
here; its oracle (raw enumeration) and counterexample replay evaluate
everything with the runtime evaluator (machine.eval_expr over boxed
instances). Leaf obligations outside the compiled fragment (initiality,
the game-rule obligations) use the runtime evaluator on both routes.

The engine's hot loop touches hundreds of thousands of valuations, so
hypothesis conjuncts, their equality-forcing targets, transition
relations, ranks and conclusions are compiled once per discharge into
generated Python functions over a flat "exploded" environment:

    scalars            E["maxBid"]        (coins are plain ints here)
    map entries        E[("bidded", k)]   (ABSENT marks a missing key)
    timers             (code, remaining)  code: 0 off, 1 active, 2 fired
    tokens             (kind | None, amount)
    sequences, tuples  tuples of element values

Missing dict keys mean "not yet assigned" and surface as KeyError, which
the enumeration uses to defer conjuncts; genuinely undefined operations
raise Undef.
"""
from __future__ import annotations

from .ast_nodes import Assign, Binop, Builtin, Expr, If, Lit, OpStmt, Quant, Send, Stmt, Unop, Var
from .values import Undef

ABSENT = object()  # absent map entry (shared with discharge)

T_OFF, T_ACTIVE, T_FIRED = 0, 1, 2


# ---------------------------------------------------------------------------
# Prelude helpers referenced by generated code
# ---------------------------------------------------------------------------


def _u(msg):
    raise Undef(msg)


def _div(a, b):
    if b == 0:
        raise Undef("division by zero")
    return a // b


def _mod(a, b):
    if b == 0:
        raise Undef("modulo by zero")
    return a % b


def _nsub(a, b):
    r = a - b
    if r < 0:
        raise Undef("nat subtraction below zero")
    return r


def _sand(a, b):
    return a and b


def _sor(a, b):
    return a or b


def _simp(a, b):
    return (not a) or b


def _tval(t):
    if t[0] != T_ACTIVE:
        raise Undef("Timer.value on a non-active timer")
    return t[1]


def _sget(s, i):
    if not (0 <= i < len(s)):
        raise Undef("sequence index out of bounds")
    return s[i]


def _tset(t, k):
    if t[0] != T_OFF:
        raise Undef("Timer.set on a non-off timer")
    if k <= 0:
        raise Undef("Timer.set requires a positive duration")
    return (T_ACTIVE, k)


def _tick1(t, d):
    if t[0] != T_ACTIVE:
        return t
    return (T_ACTIVE, t[1] - d) if t[1] > d else (T_FIRED, 0)


def _xget(E, m, k, default, keys):
    if k not in keys:
        if default is None:
            raise Undef("map key outside the bounded domain")
        return default
    v = E[(m, k)]  # KeyError: unassigned
    if v is ABSENT:
        if default is None:
            raise Undef("map has no entry")
        return default
    return v


def _xin(E, m, k, keys):
    if k not in keys:
        return False
    return E[(m, k)] is not ABSENT


def _xref(E, m, k, default, keys, zero):
    """Read a map entry for a move operand, materializing the default or an
    empty container for absent keys."""
    if k not in keys:
        raise Undef("map key outside the bounded domain")
    v = E[(m, k)]
    if v is ABSENT:
        return default if default is not None else zero
    return v


def _ckmove(src, k):
    if k < 0 or src < k:
        raise Undef("coin move exceeds source value")
    return src - k


def _tokmerge(dst, kind, amount):
    if amount == 0:
        return dst
    if dst[1] == 0:
        return (kind, amount)
    if dst[0] != kind:
        raise Undef("mixing token kinds")
    return (dst[0], dst[1] + amount)


def _tokcut(src, k):
    if k < 0 or src[1] < k:
        raise Undef("token move exceeds source value")
    return (src[0] if src[1] > k else None, src[1] - k)


PRELUDE = {
    "_u": _u, "_div": _div, "_mod": _mod, "_nsub": _nsub,
    "_sand": _sand, "_sor": _sor, "_simp": _simp,
    "_tval": _tval, "_sget": _sget, "_tset": _tset, "_tick1": _tick1,
    "_xget": _xget, "_xin": _xin, "_xref": _xref,
    "_ckmove": _ckmove, "_tokmerge": _tokmerge, "_tokcut": _tokcut,
    "ABSENT": ABSENT, "Undef": Undef,
}


class CannotCompile(Exception):
    """Construct outside the compiled fragment: a leaf obligation falls
    back to the runtime evaluator; a hypothesis conjunct makes the VC
    Unknown."""


class Compiler:
    """Compiles expressions/statements against a contract's variable layout.
    map_meta gives (unboxed default, keyset constant name) per map variable."""

    def __init__(self, map_meta: dict[str, tuple], self_addr: str,
                 timer_vars: tuple[str, ...]):
        self.map_meta = map_meta  # name -> (default, keyset const name)
        self.self_addr = self_addr
        self.timer_vars = timer_vars
        self.consts: dict[str, object] = {}

    def const(self, value) -> str:
        name = f"_c{len(self.consts)}"
        self.consts[name] = value
        return name

    # -- expressions --

    def expr(self, e: Expr, env: str = "E") -> str:
        if isinstance(e, Lit):
            return repr(e.value)
        if isinstance(e, Var):
            return f"{env}[{e.name!r}]"
        if isinstance(e, Unop):
            inner = self.expr(e.operand, env)
            return f"(not {inner})" if e.op == "!" else f"(-{inner})"
        if isinstance(e, Binop):
            l, r = self.expr(e.left, env), self.expr(e.right, env)
            op = e.op
            if op == "&&":
                return f"_sand({l}, {r})"
            if op == "||":
                return f"_sor({l}, {r})"
            if op == "==>":
                return f"_simp({l}, {r})"
            if op == "/":
                return f"_div({l}, {r})"
            if op == "%":
                return f"_mod({l}, {r})"
            if op == "-nat":
                return f"_nsub({l}, {r})"
            return f"({l} {op} {r})"
        if isinstance(e, Builtin):
            return self._builtin(e, env)
        if isinstance(e, Quant):
            raise CannotCompile("quantifier (expand first)")
        raise CannotCompile(repr(e))

    def _map_args(self, base: Expr):
        if not isinstance(base, Var) or base.name not in self.map_meta:
            raise CannotCompile("non-variable map expression")
        default, keyset_name = self.map_meta[base.name]
        return base.name, repr(default), keyset_name

    def _builtin(self, e: Builtin, env: str) -> str:
        key = (e.ns, e.op)
        if key == ("Address", "none"):
            return "'none'"
        if key == ("Address", "self"):
            return repr(self.self_addr)
        if key in (("Coin", "value"),):
            return self.expr(e.args[0], env)  # coins are plain ints
        if key == ("Token", "value"):
            return f"({self.expr(e.args[0], env)})[1]"
        if key == ("Timer", "is_off"):
            return f"(({self.expr(e.args[0], env)})[0] == {T_OFF})"
        if key == ("Timer", "is_active"):
            return f"(({self.expr(e.args[0], env)})[0] == {T_ACTIVE})"
        if key == ("Timer", "has_fired"):
            return f"(({self.expr(e.args[0], env)})[0] == {T_FIRED})"
        if key == ("Timer", "value"):
            return f"_tval({self.expr(e.args[0], env)})"
        if key in (("Map", "get"), ("Map", "ref")):
            m, default, keys = self._map_args(e.args[0])
            k = self.expr(e.args[1], env)
            return f"_xget({env}, {m!r}, {k}, {default}, {keys})"
        if key == ("Map", "in"):
            m, _, keys = self._map_args(e.args[1])
            k = self.expr(e.args[0], env)
            return f"_xin({env}, {m!r}, {k}, {keys})"
        if key == ("Seq", "len"):
            return f"len({self.expr(e.args[0], env)})"
        if key == ("Seq", "get"):
            return f"_sget({self.expr(e.args[0], env)}, {self.expr(e.args[1], env)})"
        if key == ("Tuple", "get"):
            return f"({self.expr(e.args[0], env)})[{self.expr(e.args[1], env)}]"
        raise CannotCompile(f"{e.ns}.{e.op}")

    def predicate(self, exprs, env: str = "E"):
        """Conjunction of exprs as a callable E -> bool (Undef propagates)."""
        if not exprs:
            return lambda E: True
        parts = [self.expr(e, env) for e in exprs]
        return self.function(
            f"def _f({env}):\n    return " + " and ".join(f"({p} is True)" for p in parts))

    def value(self, e: Expr):
        """The value of e as a callable E -> value (Undef propagates)."""
        return self.function(f"def _f(E):\n    return {self.expr(e)}")

    # -- statements (the transition relation) --

    def _lvalue_slots(self, e: Expr, env: str, kind: str):
        """(read_code, write_fn) for coin/token move operands."""
        if isinstance(e, Var):
            read = f"{env}[{e.name!r}]"
            write = lambda val: f"{env}[{e.name!r}] = {val}"
            return read, write
        if isinstance(e, Builtin) and e.op == "ref" and e.ns == "Map":
            m, default, keys = self._map_args(e.args[0])
            k = self.expr(e.args[1], env)
            zero = "0" if kind == "coin" else "(None, 0)"
            read = f"_xref({env}, {m!r}, {k}, {default}, {keys}, {zero})"
            write = lambda val, m=m, k=k: f"{env}[({m!r}, {k})] = {val}"
            return read, write
        raise CannotCompile("sequence/tuple refs in compiled relations")

    def stmts(self, body: list[str], stmts, env: str, indent: str):
        for s in stmts:
            self.stmt(body, s, env, indent)

    def stmt(self, body: list[str], s: Stmt, env: str, indent: str):
        if isinstance(s, Assign):
            body.append(f"{indent}{env}[{s.target!r}] = {self.expr(s.value, env)}")
            return
        if isinstance(s, If):
            body.append(f"{indent}if ({self.expr(s.cond, env)}) is True:")
            if s.then:
                self.stmts(body, s.then, env, indent + "    ")
            else:
                body.append(f"{indent}    pass")
            if s.els:
                body.append(f"{indent}else:")
                self.stmts(body, s.els, env, indent + "    ")
            return
        if isinstance(s, Send):
            # argument evaluation keeps the definedness constraint; coin and
            # token arguments are drained into the letter
            for a, kind in zip(s.args, s.kinds, strict=True):
                if kind is not None:
                    read, write = self._lvalue_slots(a, env, kind)
                    body.append(f"{indent}_ = {read}")
                    body.append(f"{indent}" + write("0" if kind == "coin" else "(None, 0)"))
                else:
                    body.append(f"{indent}_ = {self.expr(a, env)}")
            if s.dest is not None:
                body.append(f"{indent}_ = {self.expr(s.dest, env)}")
            return
        assert isinstance(s, OpStmt)
        key = (s.ns, s.op)
        # moves write the source before reading the destination so aliased
        # operands conserve value (mirrors the runtime)
        if key == ("Coin", "move"):
            sr, sw = self._lvalue_slots(s.args[0], env, "coin")
            dr, dw = self._lvalue_slots(s.args[2], env, "coin")
            k = self.expr(s.args[1], env)
            n = len(body)
            body.append(f"{indent}_k{n} = {k}")
            body.append(f"{indent}" + sw(f"_ckmove({sr}, _k{n})"))
            body.append(f"{indent}" + dw(f"{dr} + _k{n}"))
            return
        if key == ("Coin", "moveall"):
            sr, sw = self._lvalue_slots(s.args[0], env, "coin")
            dr, dw = self._lvalue_slots(s.args[1], env, "coin")
            n = len(body)
            body.append(f"{indent}_a{n} = {sr}")
            body.append(f"{indent}" + sw("0"))
            body.append(f"{indent}" + dw(f"{dr} + _a{n}"))
            return
        if key == ("Token", "move"):
            sr, sw = self._lvalue_slots(s.args[0], env, "token")
            dr, dw = self._lvalue_slots(s.args[2], env, "token")
            k = self.expr(s.args[1], env)
            n = len(body)
            body.append(f"{indent}_a{n} = {sr}")
            body.append(f"{indent}_k{n} = {k}")
            body.append(f"{indent}" + sw(f"_tokcut(_a{n}, _k{n})"))
            body.append(f"{indent}" + dw(f"_tokmerge({dr}, _a{n}[0], _k{n})"))
            return
        if key == ("Token", "moveall"):
            sr, sw = self._lvalue_slots(s.args[0], env, "token")
            dr, dw = self._lvalue_slots(s.args[1], env, "token")
            n = len(body)
            body.append(f"{indent}_a{n} = {sr}")
            body.append(f"{indent}" + sw("(None, 0)"))
            body.append(f"{indent}" + dw(f"_tokmerge({dr}, _a{n}[0], _a{n}[1])"))
            return
        if key == ("Token", "issue"):
            n = self.expr(s.args[0], env)
            dr, dw = self._lvalue_slots(s.args[1], env, "token")
            tmp = f"_p{len(body)}"
            body.append(f"{indent}{tmp} = {n}")
            body.append(f"{indent}if {tmp} < 0: _u('negative issue')")
            body.append(f"{indent}if '__remaining' in {env}:")
            body.append(f"{indent}    if {tmp} > {env}['__remaining']: _u('supply exhausted')")
            body.append(f"{indent}    {env}['__remaining'] -= {tmp}")
            body.append(f"{indent}" + dw(f"_tokmerge({dr}, {self.self_addr!r}, {tmp})"))
            return
        if key == ("Token", "burn"):
            sr, sw = self._lvalue_slots(s.args[0], env, "token")
            k = self.expr(s.args[1], env)
            tmp = f"_p{len(body)}"
            body.append(f"{indent}{tmp} = {sr}")
            body.append(f"{indent}_k = {k}")
            body.append(f"{indent}if _k < 0 or {tmp}[1] < _k: _u('burn exceeds holdings')")
            body.append(f"{indent}if _k > 0 and {tmp}[0] != {self.self_addr!r}: _u('foreign token')")
            body.append(f"{indent}" + sw(f"({tmp}[0] if {tmp}[1] > _k else None, {tmp}[1] - _k)"))
            return
        if key == ("Timer", "set"):
            assert isinstance(s.args[0], Var)
            t = s.args[0].name
            body.append(f"{indent}{env}[{t!r}] = _tset({env}[{t!r}], {self.expr(s.args[1], env)})")
            return
        if key == ("Timer", "reset"):
            t = s.args[0].name
            body.append(f"{indent}{env}[{t!r}] = ({T_OFF}, 0)")
            return
        if key == ("Map", "set"):
            m, _, keys = self._map_args(s.args[0])
            k = self.expr(s.args[1], env)
            v = self.expr(s.args[2], env)
            body.append(f"{indent}_k = {k}")
            body.append(f"{indent}if _k not in {keys}: _u('map key outside bounded domain')")
            body.append(f"{indent}{env}[({m!r}, _k)] = {v}")
            return
        if key == ("Address", "change_owner"):
            body.append(f"{indent}if {env}.get('__sender') != {env}.get('owner'): "
                        f"_u('change_owner not by owner')")
            body.append(f"{indent}_k = {self.expr(s.args[0], env)}")
            body.append(f"{indent}if _k == 'none': _u('owner cannot become none')")
            body.append(f"{indent}{env}['owner'] = _k")
            return
        raise CannotCompile(f"{s.ns}.{s.op}")

    def relation(self, stmts, sender_key: str | None):
        """Compile an action into E -> post-E (a fresh dict) or None when
        the step is undefined. Timers tick by E2['__delta'] if present."""
        body = ["def _rel(E):", "    E2 = dict(E)", "    try:"]
        if sender_key:
            body.append(f"        E2['__sender'] = E2.get({sender_key!r})")
        inner: list[str] = []
        self.stmts(inner, stmts, "E2", "        ")
        body.extend(inner or ["        pass"])
        if self.timer_vars:
            body.append("        _d = E2.get('__delta')")
            body.append("        if _d is not None:")
            for t in self.timer_vars:
                body.append(f"            E2[{t!r}] = _tick1(E2[{t!r}], _d)")
        body.append("    except Undef:")
        body.append("        return None")
        body.append("    return E2")
        return self.function("\n".join(body), name="_rel")

    def rank(self, cases):
        """Compile rank cases (pairs of (exprs, cond)) into E -> tuple|None."""
        if cases is None:
            return lambda E: None
        lines = ["def _rank(E):", "    try:"]
        for exprs, cond in cases:
            tup = ", ".join(self.expr(x) for x in exprs)
            if cond is None:
                lines.append(f"        return ({tup},)")
                break
            lines.append(f"        if ({self.expr(cond)}) is True:")
            lines.append(f"            return ({tup},)")
        else:
            lines.append("        return None")
        lines.append("    except Undef:")
        lines.append("        return None")
        lines.append("    return None")
        return self.function("\n".join(lines), name="_rank")

    def function(self, source: str, name: str = "_f"):
        ns = dict(PRELUDE)
        ns.update(self.consts)
        exec(source, ns)  # generated from the checked AST only
        fn = ns[name]
        fn._source = source
        return fn
