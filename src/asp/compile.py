"""Compilation of predicates, actions, and ranks into Python closures for
the bounded discharge engine.

Proof verdicts come from two independent routes. The engine prunes,
propagates and checks every leaf with the code generated here; its
oracle (raw enumeration) and counterexample replay evaluate everything
with the runtime evaluator (machine.eval_expr over boxed instances). A
VC with a construct outside the compiled fragment (`CannotCompile`) is
Unknown on the engine route.

The engine's hot loop touches hundreds of thousands of valuations, so
hypothesis conjuncts, their equality-forcing targets, transition
relations, ranks and conclusions are compiled once per discharge into
generated Python functions over an "exploded" environment of values in
their flat form (`values.flat`, the form the IR interpreter stores too):

    scalars            E["maxBid"]        (coins are plain ints here)
    map entries        E[("bidded", k)]   (ABSENT marks a missing key)
    timers             (state, remaining) state: "off", "active" or "fired"
    tokens             (kind | None, amount)
    sequences, tuples  tuples of element values

Missing dict keys mean "not yet assigned" and surface as KeyError, which
the enumeration uses to defer conjuncts; genuinely undefined operations
raise Undef. A map entry whose key lies outside the bounded key domain is
never enumerated: it is absent until a relation writes it, as the runtime
evaluator writes any key, and it is read with `E.get`.

This code runs at every node and leaf of the search, so map reads and
connectives are emitted inline, not as prelude calls. A map read is a
conditional expression on the entry, with fresh walrus temporaries; a
literal key has its domain test decided here. `&&`, `||` and `==>` become
`&`, `|` and `(not l) | r` on bools: like the runtime evaluator they
evaluate both operands, left to right, so an undefined right side stays
undefined whatever the left one is, and the first KeyError, which the
engine records as the key a pending conjunct is blocked on, is the same.
Short-circuit `and`/`or` would change both.
"""
from __future__ import annotations

import itertools

from .ast_nodes import Assign, Binop, Builtin, Expr, If, Lit, OpStmt, Quant, Send, Stmt, Unop, Var
from .values import (
    ABSENT, Undef, coin_cut, div, issue_supply, mod, nat_sub, seq_get, timer_read,
    timer_start, timer_tick, token_burn, token_cut, token_merge,
)


# ---------------------------------------------------------------------------
# Prelude referenced by generated code. The partial operations on flat
# values are values' shared ones, which the IR interpreter runs too; only
# the entry write `_sput` is the engine's own.
# ---------------------------------------------------------------------------


def _u(msg):
    raise Undef(msg)


def _sput(s: tuple, i: int, v) -> tuple:
    """The sequence or tuple s with entry i replaced by v."""
    seq_get(s, i)  # undefined out of bounds
    return s[:i] + (v,) + s[i + 1:]


PRELUDE = {
    "_u": _u, "_div": div, "_mod": mod, "_nsub": nat_sub,
    "_tval": timer_read, "_sget": seq_get, "_sput": _sput, "_tset": timer_start,
    "_tick1": timer_tick,
    "_ckmove": coin_cut, "_tokmerge": token_merge, "_tokcut": token_cut,
    "_tokburn": token_burn, "_issue": issue_supply,
    "ABSENT": ABSENT, "Undef": Undef,
}


# operators that are not Python's own; the connectives stay strict
_BINOPS = {"&&": "({} & {})", "||": "({} | {})", "==>": "((not {}) | {})",
           "/": "_div({}, {})", "%": "_mod({}, {})", "-nat": "_nsub({}, {})"}
_TIMER_TESTS = {("Timer", "is_off"): "off", ("Timer", "is_active"): "active",
                ("Timer", "has_fired"): "fired"}


class CannotCompile(Exception):
    """Construct outside the compiled fragment: the VC whose hypothesis or
    leaf obligation holds it is Unknown; no leaf falls back to the runtime
    evaluator."""


class Compiler:
    """Compiles expressions/statements against a contract's variable layout.
    `maps` gives (flat default, key set) per map variable, and `timer_vars`
    the timers a relation ticks. `code` maps each generated source to its
    code object: the discharge engine passes the one table of a VC's
    store (`vcgen.Store`), which lives as long as the VCs of one
    generation, so that their compilers compile a source once. Each
    function still gets a namespace of its own."""

    def __init__(self, maps: dict[str, tuple], self_addr: str,
                 timer_vars: tuple[str, ...], code: dict):
        self.self_addr = self_addr
        self.timer_vars = timer_vars
        self.code = code
        self.consts: dict[str, object] = {}
        # name -> (default, keyset const name)
        self.map_meta = {name: (default, self.const(frozenset(keys)))
                         for name, (default, keys) in maps.items()}
        # walrus locals, never reused: a read in the value of a Map.set
        # must not rebind the key it writes
        self.temps = itertools.count()

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
            if e.op in _BINOPS:
                return _BINOPS[e.op].format(l, r)
            return f"({l} {e.op} {r})"
        if isinstance(e, Builtin):
            return self._builtin(e, env)
        if isinstance(e, Quant):
            raise CannotCompile("quantifier (expand first)")
        raise CannotCompile(repr(e))

    def _map_args(self, base: Expr):
        if not isinstance(base, Var) or base.name not in self.map_meta:
            raise CannotCompile("non-variable map expression")
        default, keyset_name = self.map_meta[base.name]
        return base.name, default, keyset_name

    def _map_read(self, base: Expr, key: Expr, env: str) -> str:
        """Inline Map.get/Map.ref of base[key]."""
        m, default, keys = self._map_args(base)
        absent = "_u('map has no entry')" if default is None else repr(default)
        v = f"_r{next(self.temps)}"
        return f"({v} if ({v} := {self._entry(m, keys, key, env)}) is not ABSENT else {absent})"

    def _map_in(self, base: Expr, key: Expr, env: str) -> str:
        m, _, keys = self._map_args(base)
        return f"({self._entry(m, keys, key, env)} is not ABSENT)"

    def _entry(self, m: str, keys: str, key: Expr, env: str) -> str:
        """The entry of map m under key, ABSENT when it has none. A key in
        the bounded domain reads E[(m, k)], so a pending entry raises
        KeyError; one outside it has an entry only where the relation
        wrote one. For a literal key, `key in keys` is resolved here."""
        if isinstance(key, Lit):
            mk = (m, key.value)
            return f"{env}[{mk!r}]" if key.value in self.consts[keys] else \
                f"{env}.get({mk!r}, ABSENT)"
        k = f"_r{next(self.temps)}"
        return (f"({env}[({m!r}, {k})] if ({k} := {self.expr(key, env)}) in {keys}"
                f" else {env}.get(({m!r}, {k}), ABSENT))")

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
        if key in _TIMER_TESTS:
            return f"(({self.expr(e.args[0], env)})[0] == {_TIMER_TESTS[key]!r})"
        if key == ("Timer", "value"):
            return f"_tval({self.expr(e.args[0], env)})"
        if key in (("Map", "get"), ("Map", "ref")):
            return self._map_read(e.args[0], e.args[1], env)
        if key == ("Map", "in"):
            return self._map_in(e.args[1], e.args[0], env)
        if key == ("Seq", "len"):
            return f"len({self.expr(e.args[0], env)})"
        if key in (("Seq", "get"), ("Seq", "ref")):
            return f"_sget({self.expr(e.args[0], env)}, {self.expr(e.args[1], env)})"
        if key in (("Tuple", "get"), ("Tuple", "ref")):
            return f"({self.expr(e.args[0], env)})[{self.expr(e.args[1], env)}]"
        raise CannotCompile(f"{e.ns}.{e.op}")

    def predicate(self, exprs):
        """Conjunction of exprs as a callable E -> bool (Undef propagates)."""
        if not exprs:
            return lambda E: True
        parts = [self.expr(e) for e in exprs]
        return self.function(
            "def _f(E):\n    return " + " and ".join(f"({p} is True)" for p in parts))

    def value(self, e: Expr):
        """The value of e as a callable E -> value (Undef propagates)."""
        return self.function(f"def _f(E):\n    return {self.expr(e)}")

    # -- statements (the transition relation) --

    def _let(self, body: list[str], indent: str, code: str) -> str:
        """Bind code's value to a fresh local; its name."""
        name = f"_t{next(self.temps)}"
        body.append(f"{indent}{name} = {code}")
        return name

    def slot(self, body: list[str], e: Expr, env: str, indent: str, zero=None):
        """(read code, write) of the lvalue e, in the shape of
        `interp._Builder.slot` and `machine.resolve_slot`: a variable, an entry of
        a map variable, or a `Seq.ref`/`Tuple.ref` over a slot, nested to
        any depth. Its keys and indices are bound once, here; an entry is
        read and written through its container's slot, whatever its key.
        An absent map entry reads as the map's default, else as `zero` (the
        empty coin or token of the entry a move writes; no entry under it),
        else is undefined."""
        if isinstance(e, Var):
            loc = f"{env}[{e.name!r}]"
            return loc, lambda v: f"{loc} = {v}"
        if not (isinstance(e, Builtin) and e.op == "ref"):
            raise CannotCompile(f"not a location: {e!r}")
        if e.ns == "Map":
            m, default, keys = self._map_args(e.args[0])
            k = self._let(body, indent, self.expr(e.args[1], env))
            loc = f"{env}[({m!r}, {k})]"
            entry = f"({loc} if {k} in {keys} else {env}.get(({m!r}, {k}), ABSENT))"
            absent = repr(default) if default is not None else zero or "_u('map has no entry')"
            v = f"_r{next(self.temps)}"
            return (f"({v} if ({v} := {entry}) is not ABSENT else {absent})",
                    lambda x: f"{loc} = {x}")
        read, write = self.slot(body, e.args[0], env, indent)
        i = self._let(body, indent, self.expr(e.args[1], env))
        return f"_sget({read}, {i})", lambda x: write(f"_sput({read}, {i}, {x})")

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
            # the destination and every argument must be defined (a send
            # of an absent map entry is not); coin and token arguments are
            # drained into the letter
            if s.dest is not None:
                body.append(f"{indent}_ = {self.expr(s.dest, env)}")
            for a, kind in zip(s.args, s.kinds, strict=True):
                if kind is None:
                    body.append(f"{indent}_ = {self.expr(a, env)}")
                    continue
                read, write = self.slot(body, a, env, indent)
                body.append(f"{indent}_ = {read}")
                body.append(indent + write("0" if kind == "coin" else "(None, 0)"))
            return
        assert isinstance(s, OpStmt)
        key = (s.ns, s.op)
        zero = "0" if s.ns == "Coin" else "(None, 0)"
        # moves write the source before resolving the destination so
        # aliased operands conserve value (mirrors the runtime)
        if s.op in ("move", "moveall"):
            coin = s.ns == "Coin"
            read, write = self.slot(body, s.args[0], env, indent, zero)
            a = self._let(body, indent, read)
            k = self._let(body, indent, self.expr(s.args[1], env) if s.op == "move"
                          else a if coin else f"{a}[1]")
            body.append(indent + write(f"_ckmove({a}, {k})" if coin else f"_tokcut({a}, {k})"))
            read, write = self.slot(body, s.args[-1], env, indent, zero)
            body.append(indent + write(f"{read} + {k}" if coin
                                       else f"_tokmerge({read}, {a}[0], {k})"))
            return
        if key == ("Token", "issue"):
            n = self._let(body, indent, self.expr(s.args[0], env))
            body.append(f"{indent}_s = _issue({n}, {env}.get('__remaining'))")
            body.append(f"{indent}if _s is not None: {env}['__remaining'] = _s")
            read, write = self.slot(body, s.args[1], env, indent, zero)
            body.append(indent + write(f"_tokmerge({read}, {self.self_addr!r}, {n})"))
            return
        if key == ("Token", "burn"):
            read, write = self.slot(body, s.args[0], env, indent, zero)
            body.append(indent + write(
                f"_tokburn({read}, {self.expr(s.args[1], env)}, {self.self_addr!r})"))
            return
        if s.ns == "Timer":
            read, write = self.slot(body, s.args[0], env, indent)
            body.append(indent + write("('off', 0)" if s.op == "reset"
                                       else f"_tset({read}, {self.expr(s.args[1], env)})"))
            return
        if s.op == "set":  # Map.set, Seq.set, Tuple.set: write the entry
            _, write = self.slot(body, Builtin(s.ns, "ref", s.args[:2]), env, indent)
            body.append(indent + write(self.expr(s.args[2], env)))
            return
        if key == ("Seq", "append"):
            read, write = self.slot(body, s.args[0], env, indent)
            body.append(indent + write(f"{read} + ({self.expr(s.args[1], env)},)"))
            return
        if key == ("Address", "change_owner"):
            body.append(f"{indent}if {env}.get('__sender') != {env}.get('owner'): "
                        f"_u('change_owner not by owner')")
            k = self._let(body, indent, self.expr(s.args[0], env))
            body.append(f"{indent}if {k} == 'none': _u('owner cannot become none')")
            body.append(f"{indent}{env}['owner'] = {k}")
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
        """Compile rank cases (sketch `RankCase`s) into E -> tuple|None:
        the first case whose condition is true (an undefined condition
        skips its case) gives the rank, which is undefined when a
        component is undefined or below zero."""
        if cases is None:
            return lambda E: None
        lines = ["def _rank(E):"]
        for case in cases:
            tup = ", ".join(self.expr(x) for x in case.exprs)
            ret = ["try:", f"    return _t if min(_t := ({tup},)) >= 0 else None",
                   "except Undef:", "    return None"]
            if case.cond is None:
                lines.extend("    " + line for line in ret)
                break
            lines.extend(["    try:", f"        _k = ({self.expr(case.cond)}) is True",
                          "    except Undef:", "        _k = False", "    if _k:"])
            lines.extend("        " + line for line in ret)
        lines.append("    return None")
        return self.function("\n".join(lines), name="_rank")

    def function(self, source: str, name: str = "_f"):
        ns = dict(PRELUDE)
        ns.update(self.consts)
        code = self.code.get(source)
        if code is None:
            code = self.code[source] = compile(source, "<string>", "exec")
        exec(code, ns)  # generated from the checked AST only
        return ns.pop(name)  # a function left in its own globals is a cycle
