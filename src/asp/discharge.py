"""Bounded brute-force discharge of verification conditions.

Every context variable is finitized by DomainBounds: addresses become a
small enumerated set (plus `none`), nats 0..N, timers Off/Fired/Active(k<=N),
maps become one enumeration variable per key over the bounded key set.
Validity means no valuation satisfies hypothesis && relation && !conclusion.

Each verdict has two independent routes:

- the engine (discharge_bounded), a pruning DFS over an unboxed
  environment: hypothesis conjuncts (quantifiers pre-expanded) are checked
  as soon as their variables are assigned, an equality with a single
  unknown forces its value, and the leaf obligations run as code generated
  by the compile module. Pruning and forcing run compiled code only;
- the raw-enumeration oracle (discharge_naive) and counterexample replay,
  which evaluate hypothesis conjuncts and leaf obligations with the
  runtime evaluator over boxed instances, without propagation.

Leaf obligations outside the compiled fragment (initiality, the game-rule
obligations, whose inner searches are tiny) use the runtime evaluator on
both routes.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, replace as dc_replace

from .ast_nodes import (
    ADDRESS, Binop, Builtin, Expr, Lit, Quant, SemType, Var, children,
    map_children, membership_maps, stmt_exprs,
)
from .compile import ABSENT, CannotCompile, Compiler, T_ACTIVE, T_FIRED, T_OFF
from .machine import (
    InstanceState, UNDEFINED, advance_instance, eval_expr, init_instance,
    step_instance,
)
from .typecheck import TypedTransition, free_vars, subst_expr
from .values import ADDR_NONE, Coin, MapVal, SeqVal, Timer, Tok, TupVal, Undef
from .vcgen import VC, guard_conjuncts, time_guard, transition_binders

_TCODE = {"off": T_OFF, "active": T_ACTIVE, "fired": T_FIRED}
_TSTATE = {v: k for k, v in _TCODE.items()}


# ---------------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------------


@dataclass
class Valid:
    vc: str
    checked: int = 0  # hypothesis-satisfying valuations examined

    status = "valid"


@dataclass
class Counterexample:
    vc: str
    valuation: dict
    message: str

    status = "counterexample"


@dataclass
class Unknown:
    vc: str
    reason: str

    status = "unknown"


DischargeResult = Valid | Counterexample | Unknown


# ---------------------------------------------------------------------------
# Domain bounds (unboxed value domains)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DomainBounds:
    addresses: int = 3  # named actors besides `none`
    nat_max: int = 4
    timer_max: int = 4
    seq_max: int = 1

    @property
    def delta_max(self) -> int:
        return self.timer_max + 1

    def address_values(self):
        return (ADDR_NONE,) + self.actor_values()

    def actor_values(self):
        return tuple(f"P{i}" for i in range(self.addresses))

    def int_values(self):
        # state/ghost accounting in the corpus is non-negative; documented
        return tuple(range(0, self.nat_max + 1))

    def timer_values(self):
        return ((T_OFF, 0), (T_FIRED, 0)) + tuple(
            (T_ACTIVE, k) for k in range(1, self.timer_max + 1))

    def coin_values(self):
        return tuple(range(0, self.nat_max + 1))

    def token_values(self, issuer: str = "@issuer"):
        return ((None, 0),) + tuple(
            (issuer, v) for v in range(1, self.nat_max + 1))

    @staticmethod
    def parse(text: str) -> "DomainBounds":
        """Parse the CLI form: addr=3,nat=4,timer=5. Raises ValueError on
        an unknown key, a non-integer or a value below the key's minimum:
        0, except addr, which needs the creator P0."""
        kw = {}
        names = {"addr": "addresses", "nat": "nat_max", "timer": "timer_max",
                 "seq": "seq_max"}
        for part in text.split(","):
            if not part.strip():
                continue
            key, _, val = part.partition("=")
            key = key.strip()
            if key not in names:
                raise ValueError(f"unknown bound {key!r}; expected one of "
                                 f"{', '.join(names)}")
            try:
                n = int(val)
            except ValueError:
                raise ValueError(f"bound {key} needs an integer, got {val!r}") from None
            least = 1 if key == "addr" else 0
            if n < least:
                raise ValueError(f"bound {key} must be at least {least}, got {n}")
            kw[names[key]] = n
        return DomainBounds(**kw)


class Unfinitizable(Exception):
    pass


def scalar_domain(typ: SemType, bounds: DomainBounds, issuer: str = "@issuer"):
    if typ.kind in ("int", "nat"):
        return bounds.int_values()
    if typ.kind == "bool":
        return (False, True)
    if typ.kind == "address":
        return bounds.address_values()
    if typ.kind == "coin":
        return bounds.coin_values()
    if typ.kind == "token":
        return bounds.token_values(issuer)
    if typ.kind == "timer":
        return bounds.timer_values()
    if typ.kind == "tuple":
        parts = [scalar_domain(a, bounds, issuer) for a in typ.args]
        return tuple(tuple(c) for c in itertools.product(*parts))
    if typ.kind == "seq":
        elem = scalar_domain(typ.args[0], bounds, issuer)
        out = []
        for n in range(0, bounds.seq_max + 1):
            out.extend(tuple(c) for c in itertools.product(elem, repeat=n))
        return tuple(out)
    raise Unfinitizable(f"cannot finitize {typ}")


def box_value(typ: SemType, v):
    """Unboxed engine value -> runtime value."""
    if v is ABSENT:
        return ABSENT
    k = typ.kind
    if k in ("int", "nat", "bool", "address"):
        return v
    if k == "coin":
        return Coin(v)
    if k == "token":
        return Tok(v[0], v[1])
    if k == "timer":
        return Timer(_TSTATE[v[0]], v[1])
    if k == "tuple":
        return TupVal([box_value(a, x) for a, x in zip(typ.args, v)])
    if k == "seq":
        return SeqVal([box_value(typ.args[0], x) for x in v])
    raise Unfinitizable(f"cannot box {typ}")


# ---------------------------------------------------------------------------
# Quantifier expansion
# ---------------------------------------------------------------------------


def _subst_value(e: Expr, name: str, value) -> Expr:
    if isinstance(e, Var):
        return Lit(value) if e.name == name else e
    if isinstance(e, Quant) and e.var == name:
        return e
    return map_children(e, lambda c: _subst_value(c, name, value))


def expand_quants(e: Expr, bounds: DomainBounds) -> Expr:
    """Replace bounded quantifiers by finite conjunctions/disjunctions.
    Only scalar-comparable types quantify, so substituted values are plain
    literals (ints, bools, address strings)."""
    e = map_children(e, lambda c: expand_quants(c, bounds))
    if not isinstance(e, Quant):
        return e
    parts = [_subst_value(e.body, e.var, v) for v in scalar_domain(e.typ, bounds)]
    if not parts:
        return Lit(e.kind == "forall")
    op = "&&" if e.kind == "forall" else "||"
    out = parts[0]
    for p in parts[1:]:
        out = Binop(op, out, p)
    return out


def split_conjuncts(e: Expr) -> list[Expr]:
    if isinstance(e, Binop) and e.op == "&&":
        return split_conjuncts(e.left) + split_conjuncts(e.right)
    return [e]


@dataclass
class MapSpec:
    name: str
    typ: SemType
    keys: tuple
    values: tuple  # may include ABSENT
    default: object  # unboxed


# ---------------------------------------------------------------------------
# Expanded sketch context shared by leaf checks (interpreted side)
# ---------------------------------------------------------------------------


class _Ctx:
    """Caches bounds-expanded sketch pieces; evaluates them through the
    runtime evaluator over boxed instances. The VC is needed only by the
    leaf checks; the state searches work from the sketch alone."""

    def __init__(self, tc, sketch, bounds: DomainBounds, vc: VC | None = None):
        self.vc = vc
        self.tc = tc
        self.sketch = sketch
        self.bounds = bounds
        self._theta: dict[str, tuple] = {}
        self._goal: dict[str, object] = {}
        self._rank: dict[str, object] = {}
        self._wit: dict[str, object] = {}
        self._guards: dict[int, list] = {}
        self._concl: tuple | None = None
        self.self_addr = "@" + self.tc.name
        self.extra: dict[str, object] = {}  # e.g. the adversarial player

    def ex(self, e: Expr) -> Expr:
        return expand_quants(e, self.bounds)

    def theta(self, state: str):
        if state not in self._theta:
            self._theta[state] = tuple(self.ex(e) for e in self.sketch.theta(state))
        return self._theta[state]

    def goal(self, state: str):
        if state not in self._goal:
            g = getattr(self.sketch, "goal_at", lambda s: None)(state)
            self._goal[state] = None if g is None else tuple(self.ex(e) for e in g)
        return self._goal[state]

    def rank(self, state: str):
        if state not in self._rank:
            cases = getattr(self.sketch, "rank", {}).get(state)
            if cases is None:
                self._rank[state] = None
            else:
                self._rank[state] = tuple(
                    (tuple(self.ex(x) for x in c.exprs),
                     None if c.cond is None else self.ex(c.cond))
                    for c in cases)
        return self._rank[state]

    def witness(self, state: str):
        if state not in self._wit:
            w = getattr(self.sketch, "witness", {}).get(state)
            self._wit[state] = None if w is None else self.ex(w)
        return self._wit[state]

    def conclusion(self):
        if self._concl is None:
            self._concl = tuple(self.ex(e) for e in self.vc.conclusion)
        return self._concl

    # -- boxed-instance evaluation --

    def build_instance(self, state: str, env: dict) -> InstanceState:
        from .values import zero_value
        ienv = {}
        map_entries: dict[str, dict] = {}
        for key, val in env.items():
            if isinstance(key, tuple):
                map_entries.setdefault(key[0], {})[key[1]] = val
        for pname, ptyp in self.tc.params:
            if pname in env:
                ienv[pname] = box_value(ptyp, env[pname])
            else:
                ienv[pname] = zero_value(ptyp)
        for v in self.tc.vars.values():
            if v.name in env:
                ienv[v.name] = box_value(v.typ, env[v.name])
            elif v.name in map_entries:
                d = {k: box_value(v.typ.args[1], x)
                     for k, x in map_entries[v.name].items() if x is not ABSENT}
                ienv[v.name] = MapVal(d, v.default)
            else:
                ienv[v.name] = zero_value(v.typ, v.default)
        creator = env.get("creator", "P0")
        owner = env.get("owner", creator)
        remaining = env.get("__remaining",
                            self.tc.issue_limit if self.tc.issues else None)
        return InstanceState(self.tc.name, state, ienv, creator, owner,
                             self.self_addr, remaining)

    def all_true(self, exprs, inst, bindings=None) -> bool:
        b = dict(self.extra)
        if bindings:
            b.update(bindings)
        for e in exprs:
            if eval_expr(e, inst, b) is not True:
                return False
        return True

    def ev(self, expr, inst, bindings=None):
        b = dict(self.extra)
        if bindings:
            b.update(bindings)
        return eval_expr(expr, inst, b)

    def rank_of(self, state: str, inst) -> tuple | None:
        cases = self.rank(state)
        if cases is None:
            return None
        for exprs, cond in cases:
            if cond is not None and self.ev(cond, inst) is not True:
                continue
            vals = []
            for x in exprs:
                v = self.ev(x, inst)
                if v is UNDEFINED or not isinstance(v, int) or v < 0:
                    return None
                vals.append(v)
            return tuple(vals)
        return None

    def run_inner(self, t: TypedTransition, inst, bindings, sender, delta,
                  action=None):
        pseudo = t if action is None else dc_replace(t, action=action)
        res = step_instance(self.tc, inst, pseudo, dict(bindings), sender)
        if res is UNDEFINED:
            return None
        post = res[0]
        if delta is not None and self.tc.has_timers():
            post = advance_instance(post, delta)
        return post

    def guards_pass(self, t: TypedTransition, inst, bindings) -> bool:
        if id(t) not in self._guards:
            self._guards[id(t)] = [self.ex(g) for g in guard_conjuncts(t)]
        for g in self._guards[id(t)]:
            if self.ev(g, inst, bindings) is not True:
                return False
        return True

    def binder_domains(self, t: TypedTransition, boxed: bool):
        names, doms = [], []
        for name, typ in transition_binders(t).items():
            names.append(name)
            if name == t.sender_var:
                doms.append(self.bounds.actor_values())
            else:
                dom = scalar_domain(typ, self.bounds, self.self_addr)
                if boxed:
                    dom = tuple(box_value(typ, v) for v in dom)
                doms.append(dom)
        return names, doms

    def deltas(self):
        if self.tc.has_timers():
            return tuple(range(1, self.bounds.delta_max + 1))
        return (None,)

    def defined_slice(self, t: TypedTransition):
        from .vcgen import slice_action
        return slice_action(t, set(), self.tc)[0]

    def progress_slice(self, t: TypedTransition):
        from .vcgen import slice_action
        needed = set()
        for e in self.theta(t.target):
            needed |= free_vars(e)
        for e in self.goal(t.target) or ():
            needed |= free_vars(e)
        cases = getattr(self.sketch, "rank", {}).get(t.target, ())
        for c in cases:
            for x in c.exprs:
                needed |= free_vars(x)
            if c.cond is not None:
                needed |= free_vars(c.cond)
        return slice_action(t, needed, self.tc)[0]


# ---------------------------------------------------------------------------
# Interpreted leaf checks (game obligations, oracle, replay)
# ---------------------------------------------------------------------------


def _check_initiality(cx: _Ctx, env: dict):
    args = {}
    for p, ptyp in cx.tc.params:
        if p in env:
            args[p] = box_value(ptyp, env[p])
        else:
            args[p] = box_value(ptyp, scalar_domain(ptyp, cx.bounds)[-1])
    creator = env.get("creator", "P0")
    try:
        inst = init_instance(cx.tc, cx.self_addr, args, creator)
    except Undef:
        return None  # no such initial state
    if not cx.all_true(cx.conclusion(), inst):
        return "assertion fails at the initial state"
    return None


def _check_inductive(cx: _Ctx, env: dict):
    inst = cx.build_instance(cx.vc.state, env)
    if cx.vc.is_time:
        post = advance_instance(inst, env.get("__delta", 1))
    else:
        t = cx.vc.transition
        bindings = {}
        sender = None
        if t.input is not None:
            sender = env.get(t.sender_var)
            if t.sender_fresh:
                bindings[t.input.sender] = sender
            for name, typ in zip(t.input.params, t.param_types):
                bindings[name] = box_value(typ, env[name])
        post = cx.run_inner(t, inst, bindings, sender, env.get("__delta"),
                            cx.vc.action)
        if post is None:
            return None  # the step is not a transition at this valuation
    if not cx.all_true(cx.conclusion(), post):
        return "assertion is not preserved"
    return None


def _check_sufficiency(cx: _Ctx, env: dict):
    inst = cx.build_instance(cx.vc.state, env)
    if not cx.all_true(cx.conclusion(), inst):
        return "reject predicate holds at an invariant state"
    return None


def _check_rank_defined(cx: _Ctx, env: dict):
    inst = cx.build_instance(cx.vc.state, env)
    if cx.rank_of(cx.vc.state, inst) is None:
        return "rank is undefined"
    return None


def _check_enabledness(cx: _Ctx, env: dict):
    inst = cx.build_instance(cx.vc.state, env)
    for t in cx.tc.transitions_from(cx.vc.state):
        if t.input is None:
            if cx.guards_pass(t, inst, {}) and \
                    cx.run_inner(t, inst, {}, None, None,
                                 cx.defined_slice(t)) is not None:
                return None
            continue
        wit = cx.witness(cx.vc.state)
        if wit is None:
            continue  # no way to discharge this transition's existential
        names, doms = cx.binder_domains(t, boxed=True)
        for combo in itertools.product(*doms):
            bindings = dict(zip(names, combo))
            if cx.ev(wit, inst, bindings) is not True:
                continue
            if not cx.guards_pass(t, inst, bindings):
                continue
            sender = bindings[t.sender_var]
            step_b = {n: v for n, v in bindings.items()
                      if t.sender_fresh or n != t.sender_var}
            if cx.run_inner(t, inst, step_b, sender, None,
                            cx.defined_slice(t)) is not None:
                return None
    if cx.tc.has_timers():
        if cx.ev(cx.ex(time_guard(cx.tc)), inst) is True:
            return None
    return "no transition is enabled"


def _progress_ok(cx: _Ctx, target: str, post, pre_rank) -> bool:
    goal = cx.goal(target)
    if goal is not None and cx.all_true(goal, post):
        return True
    if not cx.all_true(cx.theta(target), post):
        return False
    post_rank = cx.rank_of(target, post)
    return post_rank is not None and post_rank < pre_rank


def _check_rank_decrease(cx: _Ctx, env: dict):
    inst = cx.build_instance(cx.vc.state, env)
    pre_rank = cx.rank_of(cx.vc.state, inst)
    if pre_rank is None:
        return "rank is undefined at the source state"
    if cx.vc.is_time:
        post = advance_instance(inst, env.get("__delta", 1))
        target = cx.vc.state
    else:
        t = cx.vc.transition
        bindings = {}
        sender = None
        if t.input is not None:
            sender = env.get(t.sender_var)
            if t.sender_fresh:
                bindings[t.input.sender] = sender
            for name, typ in zip(t.input.params, t.param_types):
                bindings[name] = box_value(typ, env[name])
        post = cx.run_inner(t, inst, bindings, sender, env.get("__delta"),
                            cx.vc.action)
        target = t.target
        if post is None:
            return None
    if not _progress_ok(cx, target, post, pre_rank):
        return "rank does not decrease strictly"
    return None


def _check_player_move(cx: _Ctx, env: dict):
    x = env["__player"]
    inst = cx.build_instance(cx.vc.state, env)
    pre_rank = cx.rank_of(cx.vc.state, inst)
    if pre_rank is None:
        return "rank is undefined"
    wit = cx.witness(cx.vc.state)
    for t in cx.tc.transitions_from(cx.vc.state):
        if t.input is None:
            continue  # tau moves belong to the Opponent (the contract)
        if not t.sender_fresh:
            expected = cx.ev(Var(t.input.sender), inst)
            if expected is UNDEFINED or expected != x:
                continue  # the matched sender is not the Player here
        names, doms = cx.binder_domains(t, boxed=True)
        spaces = [(x,) if n == t.sender_var else d for n, d in zip(names, doms)]
        for combo in itertools.product(*spaces):
            bindings = dict(zip(names, combo))
            if wit is not None and cx.ev(wit, inst, bindings) is not True:
                continue
            if not cx.guards_pass(t, inst, bindings):
                continue
            step_b = {n: v for n, v in bindings.items()
                      if t.sender_fresh or n != t.sender_var}
            ok = True
            for delta in cx.deltas():
                post = cx.run_inner(t, inst, step_b, x, delta,
                                    cx.progress_slice(t))
                if post is None or not _progress_ok(cx, t.target, post, pre_rank):
                    ok = False
                    break
            if ok:
                return None
    return "no Player move makes progress"


def _check_opponent_total(cx: _Ctx, env: dict):
    x = env["__player"]
    inst = cx.build_instance(cx.vc.state, env)
    pre_rank = cx.rank_of(cx.vc.state, inst)
    if pre_rank is None:
        return "rank is undefined"
    # (a) an opponent move is guaranteed: only the contract's own tau
    # transitions and the time transition are inevitable (other agents may
    # simply never act).
    inevitable = False
    taus = [t for t in cx.tc.transitions_from(cx.vc.state) if t.input is None]
    for t in taus:
        if cx.guards_pass(t, inst, {}) and \
                cx.run_inner(t, inst, {}, None, None,
                             cx.defined_slice(t)) is not None:
            inevitable = True
            break
    time_on = cx.tc.has_timers() and \
        cx.ev(cx.ex(time_guard(cx.tc)), inst) is True
    if not inevitable and time_on:
        inevitable = True
    if not inevitable:
        return "no Opponent transition is guaranteed"
    # (b) every opponent move (tau, time, other agents' inputs) stays in
    # theta and strictly decreases the rank, or lands in the goal.
    for t in taus:
        if not cx.guards_pass(t, inst, {}):
            continue
        for delta in cx.deltas():
            post = cx.run_inner(t, inst, {}, None, delta, cx.progress_slice(t))
            if post is None:
                continue
            if not _progress_ok(cx, t.target, post, pre_rank):
                return f"opponent move {t.label()} escapes the proof"
    if time_on:
        for delta in cx.deltas():
            post = advance_instance(inst, delta)
            if not _progress_ok(cx, cx.vc.state, post, pre_rank):
                return "time transition escapes the proof"
    for t in cx.tc.transitions_from(cx.vc.state):
        if t.input is None:
            continue
        names, doms = cx.binder_domains(t, boxed=True)
        for combo in itertools.product(*doms):
            bindings = dict(zip(names, combo))
            if bindings[t.sender_var] == x:
                continue  # the Player's own moves are not Opponent moves
            if not t.sender_fresh:
                expected = cx.ev(Var(t.input.sender), inst)
                if expected is UNDEFINED or expected != bindings[t.sender_var]:
                    continue
            if not cx.guards_pass(t, inst, bindings):
                continue
            sender = bindings[t.sender_var]
            step_b = {n: v for n, v in bindings.items()
                      if t.sender_fresh or n != t.sender_var}
            for delta in cx.deltas():
                post = cx.run_inner(t, inst, step_b, sender, delta,
                                    cx.progress_slice(t))
                if post is None:
                    continue
                if not _progress_ok(cx, t.target, post, pre_rank):
                    return f"opponent move {t.label()} escapes the proof"
    return None


_CHECKS = {
    "Initiality": _check_initiality,
    "Inductiveness": _check_inductive,
    "Sufficiency": _check_sufficiency,
    "RankDefined": _check_rank_defined,
    "Enabledness": _check_enabledness,
    "RankDecrease": _check_rank_decrease,
    "PlayerMove": _check_player_move,
    "OpponentTotal": _check_opponent_total,
}

# boxed instances are expensive; these high-volume kinds get compiled checks
_COMPILED_KINDS = ("Inductiveness", "Sufficiency", "RankDefined", "RankDecrease")


# ---------------------------------------------------------------------------
# Problem construction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Conjunct:
    """One hypothesis conjunct: the expression, which the oracle and replay
    evaluate at runtime, and the engine's compiled forms of it."""
    expr: Expr
    holds: object  # exploded env -> bool; KeyError while pending
    force: tuple | None  # (guards, targets) for _forced, if an equality


@dataclass
class _Problem:
    vc: VC
    bounds: DomainBounds
    scalars: list  # (name, values, SemType | None)
    maps: dict[str, MapSpec]
    conjuncts: list[_Conjunct]
    check: object  # callable(exploded env) -> str | None
    order: list
    boundary: int = 10**9  # index where hypothesis-only variables start
    trivial: bool = False  # conclusion is syntactically untouched


def _action_writes(stmts) -> set[str]:
    from .ast_nodes import If, Send
    from .typecheck import stmt_written_roots
    out: set[str] = set()
    for s in stmts:
        if isinstance(s, If):
            out |= _action_writes(s.then + s.els)
        elif isinstance(s, Send):
            from .typecheck import is_lvalue, lvalue_root
            for a in s.args:
                if is_lvalue(a):
                    out.add(lvalue_root(a))
        else:
            from .ast_nodes import OpStmt
            if isinstance(s, OpStmt) and (s.ns, s.op) == ("Address", "change_owner"):
                out.add("owner")
            out |= stmt_written_roots(s)
    return out


def _uses_self(e: Expr) -> bool:
    if isinstance(e, Builtin) and (e.ns, e.op) == ("Address", "self"):
        return True
    return any(_uses_self(c) for c in children(e))


def _compile_conjunct(comp: Compiler, maps: dict[str, MapSpec],
                      e: Expr) -> _Conjunct:
    """Compile a conjunct and, when it is a chain of `==>` guards ending in
    an `==`, its unit propagation: each side that names a variable or a
    map entry is a target for the value of the other side."""
    guards = []
    body = e
    while isinstance(body, Binop) and body.op == "==>":
        guards.append(comp.predicate((body.left,)))
        body = body.right
    targets = []
    if isinstance(body, Binop) and body.op == "==":
        for a, b in ((body.left, body.right), (body.right, body.left)):
            target = _target(comp, maps, a)
            if target is not None:
                targets.append((target, comp.value(b)))
    force = (tuple(guards), tuple(targets)) if targets else None
    return _Conjunct(e, comp.predicate((e,)), force)


def _target(comp: Compiler, maps: dict[str, MapSpec], e: Expr):
    """E -> the unassigned variable or in-domain map entry that e names,
    or None; KeyError/Undef while its key is pending or undefined."""
    if isinstance(e, Var):
        name = e.name
        return lambda E: None if name in E else name
    if isinstance(e, Builtin) and (e.ns, e.op) in (("Map", "get"), ("Map", "ref")) \
            and isinstance(e.args[0], Var) and e.args[0].name in maps:
        m = e.args[0].name
        keys = maps[m].keys
        key_fn = comp.value(e.args[1])

        def entry(E):
            k = key_fn(E)
            return (m, k) if k in keys and (m, k) not in E else None
        return entry
    return None


def _definedness_hints(vc: VC) -> list[Expr]:
    """Guards implied by the relation's definedness, hoisted into the
    hypothesis to prune before the leaf: e.g. Timer.set on the unmodified
    timer requires it to be Off. Pure pruning aid; never changes verdicts."""
    from .ast_nodes import OpStmt
    hints: list[Expr] = []
    written: set[str] = set()
    from .typecheck import stmt_written_roots
    for s in vc.action:
        if isinstance(s, OpStmt) and (s.ns, s.op) == ("Timer", "set"):
            t = s.args[0]
            if isinstance(t, Var) and t.name not in written:
                hints.append(Builtin("Timer", "is_off", (t,)))
        try:
            written |= stmt_written_roots(s)
        except KeyError:
            break
        if not isinstance(s, OpStmt):
            break  # conditionals etc.: stop hoisting
    return hints


def _vc_expr_pool(vc: VC, cx: _Ctx) -> list[Expr]:
    """Every expression whose free variables the context must cover."""
    pool = list(vc.hypothesis) + list(vc.conclusion)
    if vc.tc.where is not None:
        pool.append(vc.tc.where)
    sk = vc.sketch
    states: set[str] = set()
    if vc.state:
        states.add(vc.state)
    if vc.transition is not None:
        states.add(vc.transition.target)
        pool.extend(stmt_exprs(vc.action))
    if vc.kind in ("Enabledness", "PlayerMove", "OpponentTotal"):
        for t in vc.tc.transitions_from(vc.state):
            pool.extend(guard_conjuncts(t))
            if vc.kind == "Enabledness":
                pool.extend(stmt_exprs(cx.defined_slice(t)))
            else:
                pool.extend(stmt_exprs(cx.progress_slice(t)))
                states.add(t.target)
        w = getattr(sk, "witness", {}).get(vc.state)
        if w is not None:
            pool.append(w)
        if vc.tc.has_timers():
            pool.append(time_guard(vc.tc))
    if vc.kind in ("RankDefined", "RankDecrease", "PlayerMove", "OpponentTotal"):
        for st in states:
            for c in getattr(sk, "rank", {}).get(st, ()):
                pool.extend(c.exprs)
                if c.cond is not None:
                    pool.append(c.cond)
            g = sk.goal_at(st) if hasattr(sk, "goal_at") else None
            pool.extend(g or ())
            pool.extend(sk.theta(st))
    return pool


def _build_problem(vc: VC, bounds: DomainBounds,
                   allow_trivial: bool = True) -> _Problem:
    cx = _Ctx(vc.tc, vc.sketch, bounds, vc)
    tc = vc.tc

    pool = _vc_expr_pool(vc, cx)
    reads: set[str] = set()
    for e in pool:
        reads |= free_vars(e)
    player_name = getattr(vc.sketch, "player", None)

    # Preservation shortcut: an inductiveness obligation whose conclusion
    # conjuncts are all hypothesis conjuncts over variables the relation
    # never writes (nor ticks) holds outright.
    if vc.kind == "Inductiveness":
        writes = _action_writes(vc.action)
        if tc.has_timers():
            writes |= {v.name for v in tc.vars.values() if v.typ.kind == "timer"}
        concl_free: set[str] = set()
        for e in vc.conclusion:
            concl_free |= free_vars(e)
        hyp_set = set(vc.hypothesis)
        if allow_trivial and not (concl_free & writes) and \
                all(e in hyp_set for e in vc.conclusion):
            return _Problem(vc, bounds, [], {}, [], lambda env: None, [],
                            trivial=True)

    own_binders: dict[str, SemType] = {}
    if vc.transition is not None:
        own_binders = transition_binders(vc.transition)
    map_in_names = membership_maps(pool)

    scalars: list = []
    maps: dict[str, MapSpec] = {}

    def add_scalar(name, values, typ=None):
        scalars.append((name, tuple(values), typ))

    if vc.kind == "Initiality":
        # the initial state is computed from the parameters; nothing else
        # is free in this obligation
        for pname, ptyp in tc.params:
            add_scalar(pname, scalar_domain(ptyp, bounds, cx.self_addr), ptyp)
        add_scalar("creator", bounds.actor_values(), None)
        comp = Compiler({}, cx.self_addr, ())
        conjuncts = []
        if tc.where is not None:
            conjuncts = [_compile_conjunct(comp, {}, e) for e in
                         split_conjuncts(expand_quants(tc.where, bounds))]
        check = _make_check(vc, cx, None, bounds)
        order = [name for name, _, _ in scalars]
        return _Problem(vc, bounds, scalars, {}, conjuncts, check, order)

    for pname, ptyp in tc.params:
        if pname in reads:
            add_scalar(pname, scalar_domain(ptyp, bounds, cx.self_addr), ptyp)
    for v in tc.vars.values():
        if v.name not in reads or v.name in own_binders or v.synthetic:
            continue
        if v.typ.kind == "map":
            key_dom = scalar_domain(v.typ.args[0], bounds, cx.self_addr)
            val_dom = scalar_domain(v.typ.args[1], bounds, cx.self_addr)
            if v.default is not None and v.name not in map_in_names:
                entry_values = tuple(val_dom)  # absence == default here
            else:
                entry_values = (ABSENT,) + tuple(val_dom)
            maps[v.name] = MapSpec(v.name, v.typ, tuple(key_dom), entry_values,
                                   v.default)
        else:
            add_scalar(v.name, scalar_domain(v.typ, bounds, cx.self_addr), v.typ)
    for name, typ in own_binders.items():
        if name == vc.transition.sender_var:
            add_scalar(name, bounds.actor_values(), ADDRESS)
        else:
            add_scalar(name, scalar_domain(typ, bounds, cx.self_addr), typ)
    if "owner" in reads:
        add_scalar("owner", bounds.actor_values(), ADDRESS)
    if "creator" in reads or vc.kind == "Initiality":
        add_scalar("creator", bounds.actor_values(), ADDRESS)
    if any(_uses_self(e) for e in pool):
        add_scalar("__self", (cx.self_addr,), ADDRESS)

    timer_vars = tuple(v.name for v in tc.vars.values() if v.typ.kind == "timer")
    if tc.has_timers() and (vc.transition is not None or vc.is_time):
        post_reads: set[str] = set()
        for e in vc.conclusion:
            post_reads |= free_vars(e)
        if vc.kind == "RankDecrease":
            tgt = vc.state if vc.is_time else vc.transition.target
            for c in getattr(vc.sketch, "rank", {}).get(tgt, ()):
                for x in c.exprs:
                    post_reads |= free_vars(x)
                if c.cond is not None:
                    post_reads |= free_vars(c.cond)
            g = vc.sketch.goal_at(tgt) if hasattr(vc.sketch, "goal_at") else None
            for e in g or ():
                post_reads |= free_vars(e)
            for e in vc.sketch.theta(tgt):
                post_reads |= free_vars(e)
        if post_reads & set(timer_vars):
            add_scalar("__delta", tuple(range(1, bounds.delta_max + 1)))
    if vc.kind in ("PlayerMove", "OpponentTotal") or (
            player_name is not None and player_name in reads):
        add_scalar("__player", bounds.actor_values(), ADDRESS)

    def _action_issues(stmts):
        from .ast_nodes import If as IfS, OpStmt
        for s in stmts:
            if isinstance(s, OpStmt) and s.ns == "Token" and s.op in ("issue", "burn"):
                return True
            if isinstance(s, IfS) and _action_issues(s.then + s.els):
                return True
        return False

    if tc.issues and tc.issue_limit is not None and _action_issues(vc.action):
        add_scalar("__remaining",
                   tuple(range(0, min(tc.issue_limit, bounds.nat_max) + 1)))

    # hypothesis: expand quantifiers, split conjunctions, substitute the
    # player, then add the constructor constraint restricted to read vars
    subst = {player_name: "__player"} if player_name and ("__player" in
            {n for n, _, _ in scalars}) else {}
    hyp_exprs: list[Expr] = []
    for e in vc.hypothesis:
        e2 = subst_expr(e, subst) if subst else e
        hyp_exprs.extend(split_conjuncts(expand_quants(e2, bounds)))
    hyp_exprs.extend(expand_quants(h, bounds) for h in _definedness_hints(vc))
    ctx_names = {n for n, _, _ in scalars} | set(maps)
    if tc.where is not None:
        for w in split_conjuncts(expand_quants(tc.where, bounds)):
            if free_vars(w) <= ctx_names:
                hyp_exprs.append(w)

    # compiled artifacts
    comp = Compiler(
        {m.name: (m.default, "") for m in maps.values()},
        cx.self_addr, timer_vars,
        {v.name: v.typ for v in tc.vars.values()},
    )
    for m in maps.values():
        comp.map_meta[m.name] = (m.default, comp.const(frozenset(m.keys)))

    conjuncts = [_compile_conjunct(comp, maps, e) for e in hyp_exprs]
    check = _make_check(vc, cx, comp, bounds)

    # Variables no leaf obligation reads only constrain the hypothesis:
    # they are deferred behind `boundary` and resolved by a satisfiability
    # probe instead of full enumeration.
    leaf_reads = _leaf_reads(vc, cx)
    order: list = []
    deferred: list = []
    for name, _, _ in scalars:
        if leaf_reads is None or name in leaf_reads or name in own_binders \
                or name.startswith("__"):
            order.append(name)
        else:
            deferred.append(name)
    for m in maps.values():
        order.extend((m.name, k) for k in m.keys)
    boundary = len(order)
    order.extend(deferred)
    return _Problem(vc, bounds, scalars, maps, conjuncts, check, order,
                    boundary=boundary)


def _leaf_reads(vc: VC, cx: _Ctx):
    """Variables the leaf obligation can read; None means everything."""
    if vc.kind in ("Enabledness", "PlayerMove", "OpponentTotal", "Initiality"):
        return None
    out: set[str] = set()
    for e in vc.conclusion:
        out |= free_vars(e)
    for e in stmt_exprs(vc.action):
        out |= free_vars(e)
    out |= _action_writes(vc.action)
    if "owner" in _action_writes(vc.action):
        out.add("owner")  # change_owner compares the sender to the owner
    states = set()
    if vc.kind in ("RankDefined", "RankDecrease"):
        states.add(vc.state)
    if vc.kind == "RankDecrease":
        states.add(vc.state if vc.is_time else vc.transition.target)
    for st in states:
        for c in getattr(vc.sketch, "rank", {}).get(st, ()):
            for x in c.exprs:
                out |= free_vars(x)
            if c.cond is not None:
                out |= free_vars(c.cond)
        g = vc.sketch.goal_at(st) if hasattr(vc.sketch, "goal_at") else None
        for e in g or ():
            out |= free_vars(e)
        if vc.kind == "RankDecrease":
            for e in vc.sketch.theta(st):
                out |= free_vars(e)
    return out


def _make_check(vc: VC, cx: _Ctx, comp: Compiler, bounds: DomainBounds):
    """Leaf obligation: compiled for the flat high-volume kinds, the
    runtime evaluator otherwise."""
    if vc.kind in _COMPILED_KINDS:
        try:
            return _compiled_check(vc, cx, comp, bounds)
        except CannotCompile:
            pass
    return _interpreted_check(vc, cx)


def _interpreted_check(vc: VC, cx: _Ctx):
    """Leaf obligation through the runtime evaluator: env -> message or
    None. The sketch's player name reads the `__player` variable."""
    check_fn = _CHECKS[vc.kind]
    player_name = getattr(vc.sketch, "player", None)

    def interpreted(env):
        if "__player" in env and player_name:
            env = dict(env)
            env[player_name] = env["__player"]
            cx.extra = {player_name: env["__player"]}
        return check_fn(cx, env)

    return interpreted


def _compiled_check(vc: VC, cx: _Ctx, comp: Compiler, bounds: DomainBounds):
    ex = lambda e: expand_quants(e, bounds)
    if vc.kind == "Sufficiency":
        concl = comp.predicate([ex(e) for e in vc.conclusion])

        def check_suff(E):
            try:
                return None if concl(E) is True else \
                    "reject predicate holds at an invariant state"
            except Undef:
                return "reject predicate is undefined at an invariant state"
        return check_suff

    if vc.kind == "RankDefined":
        rank_fn = comp.rank(cx.rank(vc.state))

        def check_rd(E):
            return None if rank_fn(E) is not None else "rank is undefined"
        return check_rd

    sender_key = None
    if vc.transition is not None and vc.transition.input is not None:
        sender_key = vc.transition.sender_var
    rel = comp.relation(() if vc.is_time else vc.action, sender_key)

    if vc.kind == "Inductiveness":
        concl = comp.predicate([ex(e) for e in vc.conclusion])

        def check_ind(E):
            E2 = rel(E)
            if E2 is None:
                return None
            try:
                return None if concl(E2) is True else "assertion is not preserved"
            except Undef:
                return "assertion is undefined after the step"
        return check_ind

    assert vc.kind == "RankDecrease"
    target = vc.state if vc.is_time else vc.transition.target
    rank_src = comp.rank(cx.rank(vc.state))
    rank_tgt = comp.rank(cx.rank(target))
    goal_tgt = cx.goal(target)
    goal_fn = None if goal_tgt is None else comp.predicate(list(goal_tgt))
    theta_fn = comp.predicate(list(cx.theta(target)))

    def check_dec(E):
        pre = rank_src(E)
        if pre is None:
            return "rank is undefined at the source state"
        E2 = rel(E)
        if E2 is None:
            return None
        try:
            if goal_fn is not None and goal_fn(E2) is True:
                return None
        except Undef:
            pass
        try:
            if theta_fn(E2) is not True:
                return "rank does not decrease strictly"
        except Undef:
            return "rank does not decrease strictly"
        post = rank_tgt(E2)
        if post is None or not post < pre:
            return "rank does not decrease strictly"
        return None
    return check_dec


# ---------------------------------------------------------------------------
# The engine
# ---------------------------------------------------------------------------


def _domain_of(prob: _Problem, key):
    if isinstance(key, tuple):
        return prob.maps[key[0]].values
    for name, values, _ in prob.scalars:
        if name == key:
            return values
    raise KeyError(key)


def _json_value(v):
    if v is ABSENT or v is None:
        return None
    if isinstance(v, tuple):
        return list(v)
    return v


def _json_valuation(env: dict) -> dict:
    out = {}
    for key, v in env.items():
        name = f"{key[0]}[{key[1]}]" if isinstance(key, tuple) else str(key)
        out[name] = _json_value(v)
    return out


def _pending(conjuncts: list[_Conjunct], env: dict) -> list | None:
    """The conjuncts still waiting on unassigned variables, or None when
    one is false or undefined under env."""
    still = []
    for c in conjuncts:
        try:
            if not c.holds(env):
                return None
        except KeyError:
            still.append(c)
        except Undef:
            return None
    return still


def _forced(force: tuple, env: dict):
    """(key, value) a pending conjunct forces under env, or None: its
    guards hold and one side of its equality names an unassigned variable
    or map entry while the other side is already defined."""
    guards, targets = force
    try:
        if not all(g(env) for g in guards):
            return None
    except (KeyError, Undef):
        return None
    for target, value in targets:
        try:
            key = target(env)
            if key is not None:
                return key, value(env)
        except (KeyError, Undef):
            pass
    return None


def _complete(prob: _Problem, env: dict, pending: list, pos: int) -> bool:
    """Find one assignment of the remaining (hypothesis-only) variables
    satisfying the pending conjuncts; leaves it in env on success."""
    still = _pending(pending, env)
    if still is None:
        return False
    while pos < len(prob.order) and prob.order[pos] in env:
        pos += 1
    if not still:
        while pos < len(prob.order):  # unconstrained: any value works
            key = prob.order[pos]
            if key not in env:
                env[key] = _domain_of(prob, key)[0]
            pos += 1
        return True
    if pos == len(prob.order):
        return False  # pending conjuncts but nothing left to assign
    key = prob.order[pos]
    for value in _domain_of(prob, key):
        env[key] = value
        if _complete(prob, env, still, pos + 1):
            return True
    del env[key]
    return False


def _dfs(prob: _Problem, env: dict, pending: list, pos: int, stats: dict):
    still = _pending(pending, env)
    if still is None:
        return None
    for c in still:
        f = None if c.force is None else _forced(c.force, env)
        if f is None:
            continue
        key, value = f
        if value not in _domain_of(prob, key):
            return None
        env[key] = value
        r = _dfs(prob, env, still, pos, stats)
        del env[key]
        return r
    while pos < len(prob.order) and prob.order[pos] in env:
        pos += 1
    if pos >= prob.boundary and pos < len(prob.order):
        # only hypothesis-only variables remain: one witness suffices
        before = set(env)
        try:
            if not _complete(prob, env, still, pos):
                return None
            stats["leaves"] += 1
            msg = prob.check(env)
            if msg is not None:
                return Counterexample(prob.vc.name, _json_valuation(env), msg)
            return None
        finally:
            for k in set(env) - before:
                del env[k]
    if pos == len(prob.order):
        stats["leaves"] += 1
        msg = prob.check(env)
        if msg is not None:
            return Counterexample(prob.vc.name, _json_valuation(env), msg)
        return None
    key = prob.order[pos]
    for value in _domain_of(prob, key):
        env[key] = value
        r = _dfs(prob, env, still, pos + 1, stats)
        if r is not None:
            del env[key]
            return r
    del env[key]
    return None


def _run_problem(prob: _Problem):
    if prob.trivial:
        return None, 0
    stats = {"leaves": 0}
    r = _dfs(prob, {}, list(prob.conjuncts), 0, stats)
    return r, stats["leaves"]


def discharge_bounded(vc: VC, bounds: DomainBounds) -> DischargeResult:
    """Exhaustively enumerate the finitized context; Valid iff no valuation
    satisfies hypothesis && relation && !conclusion."""
    try:
        prob = _build_problem(vc, bounds)
        r, leaves = _run_problem(prob)
    except (Unfinitizable, CannotCompile) as e:
        return Unknown(vc.name, str(e))
    if r is not None:
        return r
    return Valid(vc.name, leaves)


def _runtime_hypothesis(prob: _Problem, cx: _Ctx):
    """(exprs, env) -> True iff every expr holds under the runtime
    evaluator, on the instance built from env with the binders boxed."""
    vc = prob.vc
    own = transition_binders(vc.transition) if vc.transition is not None else {}
    binders = [(name, typ) for name, _, typ in prob.scalars
               if name in own or name == "__player"]

    def holds(exprs, env) -> bool:
        inst = cx.build_instance(vc.state, env)
        b = {name: box_value(typ, env[name]) for name, typ in binders if name in env}
        return all(eval_expr(e, inst, b) is True for e in exprs)

    return holds


def _hypothesis_schedule(prob: _Problem) -> list[list[Expr]]:
    """For each enumeration depth d, the hypothesis conjuncts whose reads
    are all among the first d keys of the order. A conjunct reads its free
    variables, every entry of the maps among them, and `__self` when it
    uses Address.self."""
    index = {key: i for i, key in enumerate(prob.order)}
    at: list[list[Expr]] = [[] for _ in range(len(prob.order) + 1)]
    for c in prob.conjuncts:
        reads: set = set()
        for name in free_vars(c.expr):
            if name in prob.maps:
                reads.update((name, k) for k in prob.maps[name].keys)
            else:
                reads.add(name)
        if _uses_self(c.expr):
            reads.add("__self")
        at[max((index[r] + 1 for r in reads), default=0)].append(c.expr)
    return at


def discharge_naive(vc: VC, bounds: DomainBounds) -> DischargeResult:
    """Raw-enumeration oracle: no propagation and no compiled code; the
    runtime evaluator checks each hypothesis conjunct once, at the first
    enumeration prefix that binds all its reads, and every leaf. Prefix
    filtering drops only valuations the full product would reject, so the
    `checked` count and the first counterexample are those of the raw
    product in the engine's variable order."""
    try:
        prob = _build_problem(vc, bounds, allow_trivial=False)
        cx = _Ctx(vc.tc, vc.sketch, bounds, vc)
        hyp = _runtime_hypothesis(prob, cx)
        leaf = _interpreted_check(vc, cx)
        at = _hypothesis_schedule(prob)
        keys = prob.order
        domains = [_domain_of(prob, k) for k in keys]
        env: dict = {}
        checked = 0

        def enumerate_from(d: int):
            nonlocal checked
            if at[d] and not hyp(at[d], env):
                return None
            if d == len(keys):
                checked += 1
                msg = leaf(env)
                return None if msg is None else \
                    Counterexample(vc.name, _json_valuation(env), msg)
            for value in domains[d]:
                env[keys[d]] = value
                r = enumerate_from(d + 1)
                if r is not None:
                    return r
            env.pop(keys[d], None)
            return None

        r = enumerate_from(0)
    except (Unfinitizable, CannotCompile) as e:
        return Unknown(vc.name, str(e))
    return r if r is not None else Valid(vc.name, checked)


def replay_counterexample(vc: VC, bounds: DomainBounds,
                          cex: Counterexample) -> bool:
    """Re-run a counterexample valuation through the runtime evaluator:
    hypothesis and leaf check. True if the violation reproduces."""
    prob = _build_problem(vc, bounds, allow_trivial=False)
    env: dict = {}
    for key, values, _ in prob.scalars:
        if str(key) in cex.valuation:
            env[key] = _value_from_json(cex.valuation[str(key)], values)
    for m in prob.maps.values():
        for k in m.keys:
            name = f"{m.name}[{k}]"
            if name in cex.valuation:
                v = cex.valuation[name]
                env[(m.name, k)] = ABSENT if v is None else \
                    _value_from_json(v, m.values)
    cx = _Ctx(vc.tc, vc.sketch, bounds, vc)
    if not _runtime_hypothesis(prob, cx)([c.expr for c in prob.conjuncts], env):
        return False
    return _interpreted_check(vc, cx)(env) is not None


def _value_from_json(j, domain):
    for v in domain:
        if v is not ABSENT and _json_value(v) == j:
            return v
    raise ValueError(f"value {j!r} not in domain")
