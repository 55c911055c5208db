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

from .ast_nodes import ADDRESS, Assign, Binop, Builtin, Expr, If, Lit, OpStmt, Quant, Send, Unop, Var, membership_maps
from .diagnostics import UsageError
from .typecheck import ExprChecker, TypedContract, reads_of
from .vcgen import VC


class EmitUnsupported(Exception):
    pass


@dataclass
class SmtScript:
    vc: str
    text: str
    filename: str


def _sanitize(name: str) -> str:
    return "".join(ch if ch.isalnum() or ch in "_" else "_" for ch in name)


# the sort of each kind but map; a token is its amount (kinds are outside
# the fragment)
_SORTS = {"int": "Int", "nat": "Int", "bool": "Bool", "address": "Addr", "coin": "Int",
          "token": "Int", "timer": "Timer"}
# the zero term of each kind but address and map
_ZEROS = {"int": "0", "nat": "0", "coin": "0", "token": "0", "bool": "false", "timer": "T_Off"}
# operators that SMT-LIB spells otherwise (the rest keep their spelling),
# with the definedness condition each raises over its operands
_BINOPS = {"&&": ("and", None), "||": ("or", None), "==>": ("=>", None), "==": ("=", None),
           "!=": ("distinct", None), "/": ("div", "(distinct {r} 0)"),
           "%": ("mod", "(distinct {r} 0)"), "-nat": ("-", "(>= {l} {r})")}
_TIMER_TESTERS = {("Timer", "is_off"): "T_Off", ("Timer", "is_active"): "T_Active",
                  ("Timer", "has_fired"): "T_Fired"}


def _and(terms) -> str:
    """The conjunction of SMT terms; `true` for none, as the Core theory's
    `and` takes at least two arguments."""
    if not terms:
        return "true"
    return terms[0] if len(terms) == 1 else f"(and {' '.join(terms)})"


class _Emitter:
    def __init__(self, vc: VC):
        self.vc = vc
        self.tc: TypedContract = vc.tc
        self.decls: list[str] = []
        self.asserts: list[str] = []
        self.defined: list[str] = []  # assumed definedness side conditions
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
        if typ.kind == "map":
            return f"(Array {self.sort_of(typ.args[0])} {self.sort_of(typ.args[1])})"
        if typ.kind not in _SORTS:
            raise EmitUnsupported(f"no SMT sort for {typ}")
        return _SORTS[typ.kind]

    def declare_var(self, name: str, typ) -> str:
        sym = f"v_{_sanitize(name)}"
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
            op, defined = _BINOPS.get(e.op, (e.op, None))
            if defined is not None:
                self.defined.append(defined.format(l=l, r=r))
            return f"({op} {l} {r})"
        if isinstance(e, Builtin):
            return self._builtin(e, env)
        if isinstance(e, Quant):
            # expansion evaluates every instance, so one undefined instance
            # leaves the quantifier undefined: it raises its body's
            # conditions closed under its own binder, forall or exists
            sym = f"q_{_sanitize(e.var)}"
            bind = f"(({sym} {self.sort_of(e.typ)}))"
            body, raised = self._raised(lambda: self.expr(e.body, {**env, e.var: sym}))
            nat = e.typ.kind == "nat"
            if raised:
                d = _and(raised)
                self.defined.append(f"(forall {bind} {f'(=> (>= {sym} 0) {d})' if nat else d})")
            if nat:
                body = f"({'=>' if e.kind == 'forall' else 'and'} (>= {sym} 0) {body})"
            return f"({e.kind} {bind} {body})"
        raise EmitUnsupported(repr(e))

    def _builtin(self, e: Builtin, env) -> str:
        key = (e.ns, e.op)
        if key == ("Address", "none"):
            return self.addr("none")
        if key == ("Address", "self"):
            return self.addr("@self")
        if key in (("Coin", "value"), ("Token", "value")):
            return self.expr(e.args[0], env)
        if key in _TIMER_TESTERS:
            return f"((_ is {_TIMER_TESTERS[key]}) {self.expr(e.args[0], env)})"
        if key == ("Timer", "value"):
            t = self.expr(e.args[0], env)
            self.defined.append(f"((_ is T_Active) {t})")
            return f"(t_rem {t})"
        if e.ns == "Map" and e.op in ("get", "ref", "in"):
            key_arg, base = e.args if e.op == "in" else e.args[::-1]
            if not isinstance(base, Var):
                raise EmitUnsupported("nested map expressions")
            m, k = self.expr(base, env), self.expr(key_arg, env)
            has = env.get(base.name + "!has")  # None where membership is untracked
            if e.op == "in":
                return f"(select {has} {k})"
            default = self._map_default(base.name)
            if has is not None and default is not None:
                return f"(ite (select {has} {k}) (select {m} {k}) {default})"
            if has is not None:
                self.defined.append(f"(select {has} {k})")
            elif default is None:
                raise EmitUnsupported(
                    f"Map.get on {base.name} without a default needs Map.in "
                    f"membership reasoning")
            return f"(select {m} {k})"
        raise EmitUnsupported(f"{e.ns}.{e.op}")

    def _raised(self, run):
        """run's result, and the definedness conditions raised while it
        ran, taken off `defined`. Each captured set has one placement:
        required by `holds`, assumed under its path by `exec_action`, or
        bound by its quantifier (`expr`). What no capture takes is assumed."""
        mark = len(self.defined)
        out = run()
        raised = self.defined[mark:]
        del self.defined[mark:]
        return out, raised

    def holds(self, exprs, env) -> list[str]:
        """The conjuncts of "every expression holds": the definedness
        conditions of exprs, then their terms. An undefined expression does
        not hold (`machine.all_true`), so its conditions are required."""
        terms, raised = self._raised(lambda: [self.expr(e, env) for e in exprs])
        return raised + terms

    def _map_default(self, name: str):
        v = self.tc.vars.get(name)
        if v is None or v.default is None:
            return None
        return self.expr(Lit(v.default), {})

    # -- symbolic execution of a loop-free action --

    def exec_action(self, stmts, env: dict[str, str], path: list[str]):
        """Yields (path_conditions, post_env). The definedness conditions
        that a statement raises are assumed (they join the hypothesis side)
        under its path, as (=> PATH DEF), since only that path evaluates it."""
        if not stmts:
            yield list(path), dict(env)
            return
        s, rest = stmts[0], list(stmts[1:])
        env = dict(env)
        cond, raised = self._raised(lambda: self._step(s, env))
        self.defined += [f"(=> {_and(path)} {d})" for d in raised] if path else raised
        if isinstance(s, If):
            yield from self.exec_action(list(s.then) + rest, env, path + [cond])
            yield from self.exec_action(list(s.els) + rest, env, path + [f"(not {cond})"])
        else:
            yield from self.exec_action(rest, env, path)

    def _step(self, s, env):
        """Translate one statement into env; an `if`'s condition term."""
        if isinstance(s, If):
            return self.expr(s.cond, env)
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
            read = f"(select {env[name]} {k})"
            def write(term, name=name, k=k):
                env[name] = f"(store {env[name]} {k} {term})"
            return read, write
        raise EmitUnsupported("sequence/tuple refs")

    def _op(self, s: OpStmt, env):
        key = (s.ns, s.op)
        if key in (("Coin", "move"), ("Coin", "moveall")):
            # the source is written before the destination is read
            sr, sw = self._slot(s.args[0], env)
            k = self.expr(s.args[1], env) if s.op == "move" else sr
            if s.op == "move":
                self.defined += [f"(>= {sr} {k})", f"(>= {k} 0)"]
            sw(f"(- {sr} {k})" if s.op == "move" else "0")
            dr, dw = self._slot(s.args[-1], env)
            dw(f"(+ {dr} {k})")
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
        for name in self.tc.timers:
            t = env[name]
            env[name] = (
                f"(ite ((_ is T_Active) {t}) "
                f"(ite (> (t_rem {t}) {delta}) (T_Active (- (t_rem {t}) {delta})) T_Fired) "
                f"{t})")

    # -- rank encoding --

    def initial_term(self, v, env) -> str:
        """The declared initial value of a state variable, symbolically."""
        if v.init is not None:
            return self.expr(v.init, env)
        k = v.typ.kind
        if k == "address":
            return self.addr("none")
        if k == "map":
            default = self._map_default(v.name)
            return f"((as const {self.sort_of(v.typ)}) {default if default is not None else '0'})"
        if k not in _ZEROS:
            raise EmitUnsupported(f"initial term for {v.typ}")
        return _ZEROS[k]

    def rank_defined(self, cases, env) -> str:
        """The first case whose condition holds exists, and its components
        are defined and, where typed int, not below zero."""
        if not cases:
            return "false"
        checker = ExprChecker({**self.tc.state_scope(), "__player": ADDRESS}, allow_quant=True)
        conds = []
        prior: list[str] = []
        for case in cases:
            c = "true" if case.cond is None else _and(self.holds([case.cond], env))
            vals, defined = self._raised(lambda: [self.expr(x, env) for x in case.exprs])
            nonneg = [f"(>= {v} 0)" for v, x in zip(vals, case.exprs)
                      if checker.infer(x).kind == "int"]
            conds.append(_and([f"(not {p})" for p in prior] + [c] + defined + nonneg))
            prior.append(c)
        return f"(or {' '.join(conds)})" if len(conds) > 1 else conds[0]

    def rank_component(self, cases, i: int, env) -> str:
        """Component i of the rank. Its definedness is rank_defined's, which
        every obligation requires beside it."""
        term = "0"
        for case in reversed(cases):
            val, _ = self._raised(lambda: self.expr(case.exprs[i], env))
            if case.cond is None:
                term = val
            else:
                term = f"(ite {_and(self.holds([case.cond], env))} {val} {term})"
        return term

    def lex_less(self, post: list[str], pre: list[str]) -> str:
        if len(post) == 1:
            return f"(< {post[0]} {pre[0]})"
        rest = self.lex_less(post[1:], pre[1:])
        return (f"(or (< {post[0]} {pre[0]}) "
                f"(and (= {post[0]} {pre[0]}) {rest}))")


def emit_smtlib(vc: VC) -> SmtScript:
    """Emit one VC as an SMT-LIB 2 script; (check-sat) answering unsat
    establishes the obligation. Every kind has one shape: after the
    context, (assert (not (and REQUIRED... (=> CONDS CONCL(post))...)))
    with one term per path of the step, then the hypothesis, then the
    definedness conditions that the hypothesis and the step raise. A tested
    term requires its own (`holds`), and a quantifier binds its body's."""
    em = _Emitter(vc)
    tc = vc.tc
    kind = vc.kind
    if kind in ("PlayerMove", "OpponentTotal", "Enabledness"):
        raise EmitUnsupported(
            f"{kind} obligations embed existential transition search; use "
            f"the bounded engine")
    em.membership = membership_maps(vc.reads)

    env: dict[str, str] = {}
    for pname, ptyp in tc.params:
        env[pname] = em.declare_var(pname, ptyp)
    env["owner"] = em.declare_var("owner", ADDRESS)
    env["creator"] = em.declare_var("creator", ADDRESS)
    # the adversarial player, some actor, wherever the VC reads it
    if "__player" in reads_of(vc.reads):
        env["__player"] = em.declare_var("__player", ADDRESS)
        em.asserts.append(f"(assert (distinct {env['__player']} {em.addr('none')}))")

    hyp: list[str] = []  # theta, guards, constructor constraint
    paths = [([], env)]  # (path conditions, post-state env) per path
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
    else:
        for v in tc.vars.values():
            if v.synthetic:
                continue
            env[v.name] = em.declare_var(v.name, v.typ)
            if v.typ.kind == "map" and v.name in em.membership:
                env[v.name + "!has"] = f"v_{_sanitize(v.name)}_has"
        t = vc.transition
        for name, typ in ({} if t is None else t.binders).items():
            env[name] = em.declare_var(name, typ)
            if name == t.sender_var:
                em.asserts.append(f"(assert (distinct {env[name]} {em.addr('none')}))")
        if tc.where is not None:
            hyp.append(em.expr(tc.where, env))
        hyp += [em.expr(h, env) for h in vc.hypothesis]
        em.asserts.append(f"(assert (distinct {env['owner']} {em.addr('none')}))")
        em.asserts.append(f"(assert (distinct {env['creator']} {em.addr('none')}))")
        if t is not None:
            # the step, composed with a tick of delta >= 1 units
            delta = None
            if tc.has_timers():
                delta = em.fresh("delta")
                em.declare(delta, "Int")
                em.asserts.append(f"(assert (>= {delta} 1))")
            paths = list(em.exec_action(list(t.action), dict(env), []))
            for _, post in paths:
                if delta is not None:
                    em.tick(post, delta)

    terms: list[str] = []  # REQUIRED, then one term per path
    if kind == "RankDecrease":
        pre_cases = vc.sketch.rank.get(vc.state, ())
        if not pre_cases:
            raise EmitUnsupported("no rank at the source state")
        pre = [em.rank_component(pre_cases, i, env)
               for i in range(vc.sketch.rank_len)]
        terms.append(em.rank_defined(pre_cases, env))  # both routes require it

    def concl(post) -> str:
        if kind == "RankDefined":
            return em.rank_defined(vc.sketch.rank.get(vc.state, ()), post)
        if kind != "RankDecrease":
            return _and(em.holds(vc.conclusion, post))
        # the goal holds after the step, or theta does and the rank is
        # defined and strictly below the pre-state's
        target = vc.target
        goal = vc.sketch.goal_at(target)
        parts = [] if goal is None else [_and(em.holds(goal, post))]
        theta = em.holds(vc.sketch.theta(target), post)
        post_cases = vc.sketch.rank.get(target, ())
        ranked = em.rank_defined(post_cases, post)
        post_rank = [em.rank_component(post_cases, i, post)
                     for i in range(vc.sketch.rank_len)]
        parts.append(_and(theta + [ranked, em.lex_less(post_rank, pre)]))
        return f"(or {' '.join(parts)})" if len(parts) > 1 else parts[0]

    for conds, post in paths:
        c = concl(post)
        terms.append(f"(=> {_and(conds)} {c})" if conds else c)
    em.asserts.append(f"(assert (not {_and(terms)}))")
    em.asserts.extend(f"(assert {h})" for h in hyp + em.defined)
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
    trans = vc.transition.label() if vc.transition is not None else vc.state or "init"
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
