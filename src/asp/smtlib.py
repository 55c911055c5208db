"""SMT-LIB 2 export of verification conditions.

Encoding: addresses are an uninterpreted sort (distinct declared
constants), nats are Ints with >=0 side conditions, coins are their Int
values, maps are Arrays (paired with a Bool membership array only where
Map.in is used), timers are a three-constructor datatype. Each script
asserts hypothesis && relation && !conclusion, so `unsat` means the VC is
valid. Rank tuples compare lexicographically through expanded orderings.

Constructs outside this fragment (sequence/tuple state, token-kind
reasoning, the game-rule inner quantifications) raise EmitUnsupported and
the VC is reported as exported-unsupported; the bounded engine remains the
reference discharge route.
"""
from __future__ import annotations

import subprocess
from dataclasses import dataclass

from .ast_nodes import Assign, Binop, Builtin, Expr, If, Lit, OpStmt, Quant, Send, Unop, Var, membership_maps, stmt_exprs
from .diagnostics import UsageError
from .typecheck import TypedContract
from .vcgen import VC, time_guard


class EmitUnsupported(Exception):
    pass


@dataclass
class SmtScript:
    vc: str
    text: str
    filename: str


def _sanitize(name: str) -> str:
    return "".join(ch if ch.isalnum() or ch in "_" else "_" for ch in name)


class _Emitter:
    def __init__(self, vc: VC):
        self.vc = vc
        self.tc: TypedContract = vc.tc
        self.decls: list[str] = []
        self.asserts: list[str] = []
        self.defined: list[str] = []  # definedness side conditions
        self.addr_consts: dict[str, str] = {}
        self.membership: set[str] = set()  # maps that need a has-array
        self._declared: set[str] = set()
        self._fresh = 0

    # -- declarations --

    def fresh(self, prefix: str) -> str:
        self._fresh += 1
        return f"{prefix}_{self._fresh}"

    def addr(self, name: str) -> str:
        if name not in self.addr_consts:
            c = f"addr_{_sanitize(name)}"
            self.addr_consts[name] = c
        return self.addr_consts[name]

    def declare(self, name: str, sort: str, nonneg: bool = False):
        if name in self._declared:
            return
        self._declared.add(name)
        self.decls.append(f"(declare-const {name} {sort})")
        if nonneg:
            self.asserts.append(f"(assert (>= {name} 0))")

    def sort_of(self, typ) -> str:
        k = typ.kind
        if k in ("int", "nat"):
            return "Int"
        if k == "bool":
            return "Bool"
        if k == "address":
            return "Addr"
        if k == "coin":
            return "Int"
        if k == "token":
            return "Int"  # the amount; kinds are outside the fragment
        if k == "timer":
            return "Timer"
        if k == "map":
            return f"(Array {self.sort_of(typ.args[0])} {self.sort_of(typ.args[1])})"
        raise EmitUnsupported(f"no SMT sort for {typ}")

    def declare_var(self, name: str, typ, suffix: str = "") -> str:
        sym = f"v_{_sanitize(name)}{suffix}"
        if sym in self._declared:
            return sym
        k = typ.kind
        self.declare(sym, self.sort_of(typ), nonneg=k in ("nat", "coin", "token"))
        if k == "timer":
            self.asserts.append(
                f"(assert (=> ((_ is T_Active) {sym}) (> (t_rem {sym}) 0)))")
        if k == "map" and name in self.membership:
            self.declare(f"{sym}_has", f"(Array {self.sort_of(typ.args[0])} Bool)")
        return sym

    # -- expression translation against a symbolic environment --

    def expr(self, e: Expr, env: dict[str, str]) -> str:
        if isinstance(e, Lit):
            if isinstance(e.value, bool):
                return "true" if e.value else "false"
            if isinstance(e.value, str):
                return self.addr(e.value)
            if e.value < 0:
                return f"(- {-e.value})"
            return str(e.value)
        if isinstance(e, Var):
            if e.name not in env:
                raise EmitUnsupported(f"unbound name {e.name!r}")
            return env[e.name]
        if isinstance(e, Unop):
            inner = self.expr(e.operand, env)
            return f"(not {inner})" if e.op == "!" else f"(- {inner})"
        if isinstance(e, Binop):
            l, r = self.expr(e.left, env), self.expr(e.right, env)
            op = e.op
            if op == "&&":
                return f"(and {l} {r})"
            if op == "||":
                return f"(or {l} {r})"
            if op == "==>":
                return f"(=> {l} {r})"
            if op == "==":
                return f"(= {l} {r})"
            if op == "!=":
                return f"(distinct {l} {r})"
            if op == "/":
                self.defined.append(f"(distinct {r} 0)")
                return f"(div {l} {r})"
            if op == "%":
                self.defined.append(f"(distinct {r} 0)")
                return f"(mod {l} {r})"
            if op == "-nat":
                self.defined.append(f"(>= {l} {r})")
                return f"(- {l} {r})"
            if op == "-":
                return f"(- {l} {r})"
            return f"({op} {l} {r})"
        if isinstance(e, Builtin):
            return self._builtin(e, env)
        if isinstance(e, Quant):
            sort = self.sort_of(e.typ)
            sym = f"q_{_sanitize(e.var)}"
            inner = dict(env)
            inner[e.var] = sym
            body = self.expr(e.body, inner)
            side = f"(>= {sym} 0) " if e.typ.kind == "nat" else ""
            quant = "forall" if e.kind == "forall" else "exists"
            if side:
                conn = "=>" if e.kind == "forall" else "and"
                body = f"({conn} {side.strip()} {body})"
            return f"({quant} (({sym} {sort})) {body})"
        raise EmitUnsupported(repr(e))

    def _builtin(self, e: Builtin, env) -> str:
        key = (e.ns, e.op)
        if key == ("Address", "none"):
            return self.addr("none")
        if key == ("Address", "self"):
            return self.addr("@self")
        if key in (("Coin", "value"), ("Token", "value")):
            return self.expr(e.args[0], env)
        if key == ("Timer", "is_off"):
            return f"((_ is T_Off) {self.expr(e.args[0], env)})"
        if key == ("Timer", "is_active"):
            return f"((_ is T_Active) {self.expr(e.args[0], env)})"
        if key == ("Timer", "has_fired"):
            return f"((_ is T_Fired) {self.expr(e.args[0], env)})"
        if key == ("Timer", "value"):
            t = self.expr(e.args[0], env)
            self.defined.append(f"((_ is T_Active) {t})")
            return f"(t_rem {t})"
        if key in (("Map", "get"), ("Map", "ref")):
            base = e.args[0]
            if not isinstance(base, Var):
                raise EmitUnsupported("nested map expressions")
            m = self.expr(base, env)
            k = self.expr(e.args[1], env)
            default = self._map_default(base.name)
            if base.name in self.membership:
                has = env.get(base.name + "!has", f"{m}_has")
                if default is None:
                    self.defined.append(f"(select {has} {k})")
                    return f"(select {m} {k})"
                return f"(ite (select {has} {k}) (select {m} {k}) {default})"
            if default is None:
                raise EmitUnsupported(
                    f"Map.get on {base.name} without a default needs Map.in "
                    f"membership reasoning")
            return f"(select {m} {k})"
        if key == ("Map", "in"):
            base = e.args[1]
            if not isinstance(base, Var):
                raise EmitUnsupported("nested map expressions")
            m = self.expr(base, env)
            has = env.get(base.name + "!has", f"{m}_has")
            return f"(select {has} {self.expr(e.args[0], env)})"
        raise EmitUnsupported(f"{e.ns}.{e.op}")

    def _map_default(self, name: str):
        v = self.tc.vars.get(name)
        if v is None or v.default is None:
            return None
        d = v.default
        if isinstance(d, bool):
            return "true" if d else "false"
        if isinstance(d, int):
            return str(d) if d >= 0 else f"(- {-d})"
        if isinstance(d, str):
            return self.addr(d)
        raise EmitUnsupported("non-scalar map default")

    # -- symbolic execution of a loop-free action --

    def exec_action(self, stmts, env: dict[str, str], path: list[str]):
        """Yields (path_conditions, post_env); definedness side conditions
        accumulate globally (they join the hypothesis side)."""
        if not stmts:
            yield list(path), dict(env)
            return
        s, rest = stmts[0], stmts[1:]
        if isinstance(s, If):
            cond = self.expr(s.cond, env)
            yield from self.exec_action(list(s.then) + list(rest), dict(env),
                                        path + [cond])
            yield from self.exec_action(list(s.els) + list(rest), dict(env),
                                        path + [f"(not {cond})"])
            return
        env = dict(env)
        if isinstance(s, Assign):
            env[s.target] = self.expr(s.value, env)
        elif isinstance(s, Send):
            for a, kind in zip(s.args, s.kinds, strict=True):
                if kind is None:
                    self.expr(a, env)  # definedness only
                else:
                    self._slot(a, env)[1]("0")  # drained into the letter
            if s.dest is not None:
                self.expr(s.dest, env)
        elif isinstance(s, OpStmt):
            self._op(s, env)
        else:
            raise EmitUnsupported(repr(s))
        yield from self.exec_action(rest, env, path)

    def _slot(self, a: Expr, env):
        """(read_term, write) for coin/token move operands."""
        if isinstance(a, Var):
            return env[a.name], lambda term: env.__setitem__(a.name, term)
        if isinstance(a, Builtin) and a.op == "ref" and a.ns == "Map":
            base = a.args[0]
            if not isinstance(base, Var):
                raise EmitUnsupported("nested refs")
            k = self.expr(a.args[1], env)
            name = base.name
            if name in self.membership:
                raise EmitUnsupported("moves into membership-tracked maps")
            default = self._map_default(name)
            if default is None:
                # moves materialize an empty container for absent keys; with
                # a total-array encoding absence is already the default 0
                default = "0"
            read = f"(select {env[name]} {k})"
            def write(term, name=name, k=k):
                env[name] = f"(store {env[name]} {k} {term})"
            return read, write
        raise EmitUnsupported("sequence/tuple refs")

    def _op(self, s: OpStmt, env):
        key = (s.ns, s.op)
        if key == ("Coin", "move"):
            sr, sw = self._slot(s.args[0], env)
            k = self.expr(s.args[1], env)
            self.defined.append(f"(>= {sr} {k})")
            self.defined.append(f"(>= {k} 0)")
            sw(f"(- {sr} {k})")
            dr, dw = self._slot(s.args[2], env)
            dw(f"(+ {dr} {k})")
            return
        if key == ("Coin", "moveall"):
            sr, sw = self._slot(s.args[0], env)
            sw("0")
            dr, dw = self._slot(s.args[1], env)
            dw(f"(+ {dr} {sr})")
            return
        if key in (("Token", "move"), ("Token", "moveall"), ("Token", "issue"),
                   ("Token", "burn")):
            raise EmitUnsupported("token supply reasoning")
        if key == ("Timer", "set"):
            t = s.args[0].name
            k = self.expr(s.args[1], env)
            self.defined.append(f"((_ is T_Off) {env[t]})")
            self.defined.append(f"(> {k} 0)")
            env[t] = f"(T_Active {k})"
            return
        if key == ("Timer", "reset"):
            env[s.args[0].name] = "T_Off"
            return
        if key == ("Map", "set"):
            base = s.args[0]
            if not isinstance(base, Var):
                raise EmitUnsupported("nested maps")
            k = self.expr(s.args[1], env)
            v = self.expr(s.args[2], env)
            env[base.name] = f"(store {env[base.name]} {k} {v})"
            if base.name in self.membership:
                has = env[base.name + "!has"]
                env[base.name + "!has"] = f"(store {has} {k} true)"
            return
        raise EmitUnsupported(f"{s.ns}.{s.op}")

    def tick(self, env, delta: str):
        for v in self.tc.vars.values():
            if v.typ.kind != "timer" or v.name not in env:
                continue
            t = env[v.name]
            env[v.name] = (
                f"(ite ((_ is T_Active) {t}) "
                f"(ite (> (t_rem {t}) {delta}) (T_Active (- (t_rem {t}) {delta})) T_Fired) "
                f"{t})")

    # -- rank encoding --

    def initial_term(self, v, env) -> str:
        """The declared initial value of a state variable, symbolically."""
        if v.init is not None:
            return self.expr(v.init, env)
        k = v.typ.kind
        if k in ("int", "nat", "coin", "token"):
            return "0"
        if k == "bool":
            return "false"
        if k == "address":
            return self.addr("none")
        if k == "timer":
            return "T_Off"
        if k == "map":
            default = self._map_default(v.name)
            ks = self.sort_of(v.typ.args[0])
            vs = self.sort_of(v.typ.args[1])
            return f"((as const (Array {ks} {vs})) {default if default is not None else '0'})"
        raise EmitUnsupported(f"initial term for {v.typ}")

    def rank_defined(self, cases, env) -> str:
        if not cases:
            return "false"
        conds = []
        prior: list[str] = []
        for case in cases:
            c = "true" if case.cond is None else self.expr(case.cond, env)
            guard = c if not prior else f"(and {' '.join(f'(not {p})' for p in prior)} {c})"
            conds.append(guard)
            prior.append(c)
        return f"(or {' '.join(conds)})" if len(conds) > 1 else conds[0]

    def rank_component(self, cases, i: int, env) -> str:
        term = "0"
        for case in reversed(cases):
            val = self.expr(case.exprs[i], env)
            if case.cond is None:
                term = val
            else:
                term = f"(ite {self.expr(case.cond, env)} {val} {term})"
        return term

    def lex_less(self, post: list[str], pre: list[str]) -> str:
        if len(post) == 1:
            return f"(< {post[0]} {pre[0]})"
        rest = self.lex_less(post[1:], pre[1:])
        return (f"(or (< {post[0]} {pre[0]}) "
                f"(and (= {post[0]} {pre[0]}) {rest}))")


def emit_smtlib(vc: VC) -> SmtScript:
    """Emit one VC as an SMT-LIB 2 script; (check-sat) answering unsat
    establishes the obligation."""
    em = _Emitter(vc)
    tc = vc.tc
    kind = vc.kind
    if kind in ("PlayerMove", "OpponentTotal", "Enabledness"):
        raise EmitUnsupported(
            f"{kind} obligations embed existential transition search; use "
            f"the bounded engine")

    pool = list(vc.hypothesis) + list(vc.conclusion)
    em.membership = membership_maps(pool + stmt_exprs(vc.action))

    env: dict[str, str] = {}
    for pname, ptyp in tc.params:
        env[pname] = em.declare_var(pname, ptyp)
    from .ast_nodes import ADDRESS
    env["owner"] = em.declare_var("owner", ADDRESS)
    env["creator"] = em.declare_var("creator", ADDRESS)

    if kind == "Initiality":
        # the initial state is computed, not free: variables take their
        # declared zero values / initializers symbolically
        em.asserts.append(f"(assert (= {env['owner']} {env['creator']}))")
        for v in tc.vars.values():
            if v.synthetic:
                continue
            env[v.name] = em.initial_term(v, env)
            if v.typ.kind == "map" and v.name in em.membership:
                ks = em.sort_of(v.typ.args[0])
                env[v.name + "!has"] = f"((as const (Array {ks} Bool)) false)"
        if tc.where is not None:
            em.asserts.append(f"(assert {em.expr(tc.where, env)})")
        em.asserts.append(
            f"(assert (distinct {env['creator']} {em.addr('none')}))")
        concl = [em.expr(e, env) for e in vc.conclusion]
        body = f"(and {' '.join(concl)})" if len(concl) != 1 else concl[0]
        em.asserts.append(f"(assert (not {body}))")
        for d in em.defined:
            em.asserts.append(f"(assert {d})")
        return _finish(em, vc)

    for v in tc.vars.values():
        if v.synthetic:
            continue
        env[v.name] = em.declare_var(v.name, v.typ)
        if v.typ.kind == "map" and v.name in em.membership:
            env[v.name + "!has"] = f"v_{_sanitize(v.name)}_has"
    if vc.transition is not None and vc.transition.input is not None:
        t = vc.transition
        env[t.sender_var] = em.declare_var(t.sender_var, ADDRESS)
        em.asserts.append(
            f"(assert (distinct {env[t.sender_var]} {em.addr('none')}))")
        for name, typ in zip(t.input.params, t.param_types):
            env[name] = em.declare_var(name, typ)

    # hypothesis (theta, guards, constructor constraint, ambient axioms)
    hyp_terms = []
    if tc.where is not None:
        hyp_terms.append(em.expr(tc.where, env))
    for h in vc.hypothesis:
        hyp_terms.append(em.expr(h, env))
    em.asserts.append(f"(assert (distinct {env['owner']} {em.addr('none')}))")
    em.asserts.append(f"(assert (distinct {env['creator']} {em.addr('none')}))")

    # relation
    needs_delta = tc.has_timers() and (vc.transition is not None or vc.is_time)
    delta = None
    if needs_delta:
        delta = em.fresh("delta")
        em.declare(delta, "Int")
        em.asserts.append(f"(assert (>= {delta} 1))")

    paths = []
    if vc.is_time or vc.transition is not None:
        base_env = dict(env)
        action = vc.action if vc.transition is not None else ()
        for conds, post in em.exec_action(list(action), base_env, []):
            if delta is not None:
                em.tick(post, delta)
            paths.append((conds, post))
    if vc.is_time:
        hyp_terms.append(em.expr(time_guard(tc), env))

    # conclusion per kind
    if kind in ("Inductiveness", "Sufficiency"):
        negs = []
        for conds, post in (paths or [([], dict(env))]):
            target_env = post if kind == "Inductiveness" else env
            concl = [em.expr(e, target_env) for e in vc.conclusion]
            body = f"(and {' '.join(concl)})" if len(concl) != 1 else concl[0]
            if not concl:
                body = "true"
            if conds:
                body = f"(=> (and {' '.join(conds)}) {body})"
            negs.append(body)
        whole = f"(and {' '.join(negs)})" if len(negs) != 1 else negs[0]
        em.asserts.append(f"(assert (not {whole}))")
    elif kind == "RankDefined":
        cases = vc.sketch.rank.get(vc.state, ())
        em.asserts.append(f"(assert (not {em.rank_defined(cases, env)}))")
    elif kind == "RankDecrease":
        target = vc.state if vc.is_time else vc.transition.target
        pre_cases = vc.sketch.rank.get(vc.state, ())
        post_cases = vc.sketch.rank.get(target, ())
        if not pre_cases:
            raise EmitUnsupported("no rank at the source state")
        pre = [em.rank_component(pre_cases, i, env)
               for i in range(vc.sketch.rank_len)]
        hyp_terms.append(em.rank_defined(pre_cases, env))
        oks = []
        for conds, post in paths:
            parts = []
            goal = vc.sketch.goal_at(target)
            if goal is not None:
                g = [em.expr(e, post) for e in goal]
                parts.append(f"(and {' '.join(g)})" if len(g) != 1 else g[0])
            theta = [em.expr(e, post) for e in vc.sketch.theta(target)]
            ranked = em.rank_defined(post_cases, post)
            post_rank = [em.rank_component(post_cases, i, post)
                         for i in range(vc.sketch.rank_len)]
            dec = em.lex_less(post_rank, pre)
            both = " ".join(theta + [ranked, dec])
            parts.append(f"(and {both})")
            ok = f"(or {' '.join(parts)})" if len(parts) > 1 else parts[0]
            if conds:
                ok = f"(=> (and {' '.join(conds)}) {ok})"
            oks.append(ok)
        whole = f"(and {' '.join(oks)})" if len(oks) != 1 else oks[0]
        em.asserts.append(f"(assert (not {whole}))")
    else:
        raise EmitUnsupported(kind)

    for h in hyp_terms:
        em.asserts.append(f"(assert {h})")
    for d in em.defined:
        em.asserts.append(f"(assert {d})")
    return _finish(em, vc)


def _finish(em: _Emitter, vc: VC) -> SmtScript:
    lines = [
        f"; VC {vc.name} ({vc.kind}) over contract {vc.tc.name}",
        "(set-logic ALL)",
        "(declare-sort Addr 0)",
        "(declare-datatypes ((Timer 0)) "
        "(((T_Off) (T_Active (t_rem Int)) (T_Fired))))",
    ]
    for c in em.addr_consts.values():
        lines.append(f"(declare-const {c} Addr)")
    if len(em.addr_consts) > 1:
        lines.append(f"(assert (distinct {' '.join(em.addr_consts.values())}))")
    lines.extend(em.decls)
    lines.extend(em.asserts)
    lines.append("(check-sat)")
    if vc.transition is not None:
        trans = vc.transition.label()
    elif vc.is_time:
        trans = f"time_{vc.state}"
    elif vc.state is not None:
        trans = vc.state
    else:
        trans = "init"
    fname = f"{_sanitize(vc.sketch.name)}.{vc.kind}.{_sanitize(trans)}.smt2"
    return SmtScript(vc.name, "\n".join(lines) + "\n", fname)


def run_solver(solver: str, script_path: str, timeout_ms: int = 30000) -> str:
    """Invoke an external solver on a script file; returns its first
    sat/unsat/unknown token, "unknown" on a timeout. Raises UsageError when
    the solver cannot be started."""
    try:
        proc = subprocess.run(
            [solver, script_path], capture_output=True, text=True,
            timeout=timeout_ms / 1000)
    except subprocess.TimeoutExpired:
        return "unknown"
    except OSError as e:
        raise UsageError(f"--solver: cannot run {solver}: {e}") from None
    for token in (proc.stdout + proc.stderr).split():
        if token in ("sat", "unsat", "unknown"):
            return token
    return "unknown"
