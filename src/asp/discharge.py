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
  runtime evaluator over boxed instances, without propagation. They share
  the engine's finitization (`_finitize`) but never its compiled code.

Leaf obligations outside the compiled fragment (initiality, the game-rule
obligations, whose inner searches are tiny) use the runtime evaluator on
both routes. The game-rule checks enumerate a state's moves with
`_Ctx.moves`, the same enumerator the state searches of the prove module
use, so guards, binder domains and action slices are described once.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, fields, replace as dc_replace

from .ast_nodes import (
    ADDRESS, Binop, Builtin, Expr, Lit, OpStmt, Quant, SemType, Send, Var,
    children, map_children, membership_maps, stmt_exprs, walk_stmts,
)
from .compile import ABSENT, CannotCompile, Compiler, T_ACTIVE, T_FIRED, T_OFF
from .machine import (
    InstanceState, UNDEFINED, advance_instance, eval_expr, init_instance,
    step_instance,
)
from .typecheck import (
    TypedTransition, free_vars, lvalue_root, stmt_written_roots,
    subst_expr,
)
from .values import ADDR_NONE, Coin, MapVal, SeqVal, Timer, Tok, TupVal, Undef
from .vcgen import VC, progress_slice, reads_of, slice_action, time_guard

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

    def __post_init__(self):
        """Every bound is an integer of at least 0, except addresses: the
        model needs the creator P0."""
        for f in fields(self):
            n = getattr(self, f.name)
            least = 1 if f.name == "addresses" else 0
            if isinstance(n, bool) or not isinstance(n, int):
                raise ValueError(f"bound {f.name} needs an integer, got {n!r}")
            if n < least:
                raise ValueError(f"bound {f.name} must be at least {least}, got {n}")

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
        an unknown key, a non-integer or a value below the bound's
        minimum."""
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
                kw[names[key]] = int(val)
            except ValueError:
                raise ValueError(f"bound {key} needs an integer, got {val!r}") from None
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
# The proof model, interpreted: expanded sketch pieces and the moves of a
# state, shared by the leaf checks and the state searches
# ---------------------------------------------------------------------------


class _Ctx:
    """Caches bounds-expanded sketch pieces and, per transition, the
    expanded guards, boxed binder domains and action slices; evaluates them
    through the runtime evaluator over boxed instances. `moves` is the one
    enumeration of a state's moves. The VC is needed only by the leaf
    checks; the state searches work from the sketch alone."""

    def __init__(self, tc, sketch, bounds: DomainBounds, vc: VC | None = None):
        self.vc = vc
        self.tc = tc
        self.sketch = sketch
        self.bounds = bounds
        self._memo: dict = {}
        self.self_addr = "@" + self.tc.name
        self.extra: dict[str, object] = {}  # e.g. the adversarial player

    def _cached(self, key, make):
        if key not in self._memo:
            self._memo[key] = make()
        return self._memo[key]

    def ex(self, e: Expr) -> Expr:
        return expand_quants(e, self.bounds)

    def theta(self, state: str):
        return self._cached(("theta", state), lambda: tuple(
            self.ex(e) for e in self.sketch.theta(state)))

    def goal(self, state: str):
        g = self.sketch.goal_at(state)
        return self._cached(("goal", state), lambda: None if g is None else tuple(
            self.ex(e) for e in g))

    def rank(self, state: str):
        cases = self.sketch.rank.get(state)
        return self._cached(("rank", state), lambda: None if cases is None else tuple(
            (tuple(self.ex(x) for x in c.exprs),
             None if c.cond is None else self.ex(c.cond))
            for c in cases))

    def witness(self, state: str):
        w = self.sketch.witness.get(state)
        return self._cached(("witness", state),
                            lambda: None if w is None else self.ex(w))

    def conclusion(self):
        return self._cached(("conclusion",), lambda: tuple(
            self.ex(e) for e in self.vc.conclusion))

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

    # -- the moves of a state --

    def guards_pass(self, t: TypedTransition, inst, bindings) -> bool:
        guards = self._cached(("guards", id(t)), lambda: [
            self.ex(g) for g in t.guards])
        for g in guards:
            if self.ev(g, inst, bindings) is not True:
                return False
        return True

    def binder_domains(self, t: TypedTransition):
        """Names and boxed domains of t's binders; the sender ranges over
        the actors."""
        def make():
            names, doms = [], []
            for name, typ in t.binders.items():
                names.append(name)
                if name == t.sender_var:
                    doms.append(self.bounds.actor_values())
                else:
                    doms.append(tuple(
                        box_value(typ, v) for v in
                        scalar_domain(typ, self.bounds, self.self_addr)))
            return names, doms
        return self._cached(("binders", id(t)), make)

    def moves(self, inst, senders=None, taus: bool = True, witness=None):
        """(t, sender, step bindings) for each move from inst whose guards
        pass, in transition and binder order: the tau moves when `taus`,
        and the input moves from `senders` (every actor when None) whose
        binders satisfy `witness`, when one is given. A matched sender is
        one of the guards."""
        for t in self.tc.transitions_from(inst.skeleton):
            if t.input is None:
                if taus and self.guards_pass(t, inst, {}):
                    yield t, None, {}
                continue
            names, doms = self.binder_domains(t)
            if senders is not None:
                doms = [tuple(a for a in d if a in senders)
                        if n == t.sender_var else d for n, d in zip(names, doms)]
            for combo in itertools.product(*doms):
                bindings = dict(zip(names, combo))
                if witness is not None and \
                        self.ev(witness, inst, bindings) is not True:
                    continue
                if not self.guards_pass(t, inst, bindings):
                    continue
                yield t, bindings[t.sender_var], t.action_view(bindings)

    def time_enabled(self, inst) -> bool:
        """Whether the time transition can fire: some timer is active."""
        if not self.tc.has_timers():
            return False
        guard = self._cached(("time",), lambda: self.ex(time_guard(self.tc)))
        return self.ev(guard, inst) is True

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

    def deltas(self):
        if self.tc.has_timers():
            return tuple(range(1, self.bounds.delta_max + 1))
        return (None,)

    def defined_slice(self, t: TypedTransition):
        """t's action sliced to what its definedness needs."""
        return self._cached(("defined", id(t)),
                            lambda: slice_action(t, set(), self.tc)[0])

    def progress_slice(self, t: TypedTransition):
        """t's action sliced to what the proof reads at its target."""
        return self._cached(("progress", id(t)),
                            lambda: progress_slice(t, self.sketch, self.tc))


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


def _vc_step(cx: _Ctx, inst, env: dict):
    """The post-state of the VC's step from inst under env, None when the
    step is not a transition at this valuation."""
    vc = cx.vc
    if vc.is_time:
        return advance_instance(inst, env.get("__delta", 1))
    t = vc.transition
    bindings = {name: box_value(typ, env[name]) for name, typ in t.binders.items()}
    return cx.run_inner(t, inst, t.action_view(bindings), bindings.get(t.sender_var),
                        env.get("__delta"), vc.action)


def _check_inductive(cx: _Ctx, env: dict):
    post = _vc_step(cx, cx.build_instance(cx.vc.state, env), env)
    if post is None:
        return None
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
    wit = cx.witness(cx.vc.state)
    # without a witness an input transition's existential cannot be
    # discharged: only tau moves count then
    for t, sender, step_b in cx.moves(inst, None if wit is not None else (),
                                      witness=wit):
        if cx.run_inner(t, inst, step_b, sender, None,
                        cx.defined_slice(t)) is not None:
            return None
    if cx.time_enabled(inst):
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
    post = _vc_step(cx, inst, env)
    if post is None:
        return None
    if not _progress_ok(cx, cx.vc.target, post, pre_rank):
        return "rank does not decrease strictly"
    return None


def _check_player_move(cx: _Ctx, env: dict):
    x = env["__player"]
    inst = cx.build_instance(cx.vc.state, env)
    pre_rank = cx.rank_of(cx.vc.state, inst)
    if pre_rank is None:
        return "rank is undefined"
    # tau moves belong to the Opponent (the contract)
    for t, _, step_b in cx.moves(inst, (x,), taus=False,
                                 witness=cx.witness(cx.vc.state)):
        posts = (cx.run_inner(t, inst, step_b, x, delta, cx.progress_slice(t))
                 for delta in cx.deltas())
        if all(post is not None and _progress_ok(cx, t.target, post, pre_rank)
               for post in posts):
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
    taus = list(cx.moves(inst, ()))
    time_on = cx.time_enabled(inst)
    if not time_on and all(
            cx.run_inner(t, inst, {}, None, None, cx.defined_slice(t)) is None
            for t, _, _ in taus):
        return "no Opponent transition is guaranteed"

    # (b) every opponent move (tau, time, other agents' inputs) stays in
    # theta and strictly decreases the rank, or lands in the goal.
    def escape(moves):
        for t, sender, step_b in moves:
            for delta in cx.deltas():
                post = cx.run_inner(t, inst, step_b, sender, delta,
                                    cx.progress_slice(t))
                if post is not None and \
                        not _progress_ok(cx, t.target, post, pre_rank):
                    return f"opponent move {t.label()} escapes the proof"
        return None

    msg = escape(taus)
    if msg is not None:
        return msg
    if time_on:
        for delta in cx.deltas():
            post = advance_instance(inst, delta)
            if not _progress_ok(cx, cx.vc.state, post, pre_rank):
                return "time transition escapes the proof"
    others = tuple(a for a in cx.bounds.actor_values() if a != x)
    return escape(cx.moves(inst, others, taus=False))


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
# Finitization: the context of a VC, shared by the engine, the oracle and
# replay
# ---------------------------------------------------------------------------


@dataclass
class _Problem:
    """A VC over finite domains: its context variables, hypothesis
    conjuncts (quantifiers expanded) and enumeration order."""
    vc: VC
    cx: _Ctx
    scalars: list  # (name, values, SemType | None)
    maps: dict[str, MapSpec]
    hypothesis: list[Expr]
    order: list
    boundary: int = 10**9  # index where hypothesis-only variables start


def _action_writes(stmts) -> set[str]:
    out: set[str] = set()
    for s in walk_stmts(stmts):
        if isinstance(s, Send):
            out |= {lvalue_root(a)
                    for a, kind in zip(s.args, s.kinds, strict=True) if kind}
        elif isinstance(s, OpStmt) and (s.ns, s.op) == ("Address", "change_owner"):
            out.add("owner")
        out |= stmt_written_roots(s)
    return out


def _uses_self(e: Expr) -> bool:
    if isinstance(e, Builtin) and (e.ns, e.op) == ("Address", "self"):
        return True
    return any(_uses_self(c) for c in children(e))


def _definedness_hints(vc: VC) -> list[Expr]:
    """Guards implied by the relation's definedness, hoisted into the
    hypothesis to prune before the leaf: e.g. Timer.set on the unmodified
    timer requires it to be Off. Pure pruning aid; never changes verdicts."""
    hints: list[Expr] = []
    written: set[str] = set()
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
    states: set[str] = set()
    if vc.state:
        states.add(vc.state)
    if vc.transition is not None:
        states.add(vc.transition.target)
        pool.extend(stmt_exprs(vc.action))
    if vc.kind in ("Enabledness", "PlayerMove", "OpponentTotal"):
        for t in vc.tc.transitions_from(vc.state):
            pool.extend(t.guards)
            if vc.kind == "Enabledness":
                pool.extend(stmt_exprs(cx.defined_slice(t)))
            else:
                pool.extend(stmt_exprs(cx.progress_slice(t)))
                states.add(t.target)
        w = vc.sketch.witness.get(vc.state)
        if w is not None:
            pool.append(w)
        if vc.tc.has_timers():
            pool.append(time_guard(vc.tc))
    if vc.kind in ("RankDefined", "RankDecrease", "PlayerMove", "OpponentTotal"):
        for st in states:
            pool.extend(vc.sketch.reads_at(st))
    return pool


def _timer_vars(tc) -> tuple[str, ...]:
    return tuple(v.name for v in tc.vars.values() if v.typ.kind == "timer")


def _preserved(vc: VC) -> bool:
    """An inductiveness obligation whose conclusion conjuncts are all
    hypothesis conjuncts over variables the relation never writes (nor
    ticks) holds outright."""
    if vc.kind != "Inductiveness":
        return False
    writes = _action_writes(vc.action)
    if vc.tc.has_timers():
        writes |= set(_timer_vars(vc.tc))
    return not (reads_of(vc.conclusion) & writes) and \
        set(vc.conclusion) <= set(vc.hypothesis)


def _finitize(vc: VC, bounds: DomainBounds) -> _Problem:
    cx = _Ctx(vc.tc, vc.sketch, bounds, vc)
    tc = vc.tc
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
        hyp = [] if tc.where is None else \
            split_conjuncts(expand_quants(tc.where, bounds))
        return _Problem(vc, cx, scalars, {}, hyp,
                        [name for name, _, _ in scalars])

    pool = _vc_expr_pool(vc, cx)
    reads = reads_of(pool)
    own_binders = {} if vc.transition is None else vc.transition.binders
    map_in_names = membership_maps(pool)

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
    if "creator" in reads:
        add_scalar("creator", bounds.actor_values(), ADDRESS)
    if any(_uses_self(e) for e in pool):
        add_scalar("__self", (cx.self_addr,), ADDRESS)

    if tc.has_timers() and (vc.transition is not None or vc.is_time):
        post_reads = reads_of(vc.conclusion)
        if vc.kind == "RankDecrease":
            post_reads |= reads_of(vc.sketch.reads_at(vc.target))
        if post_reads & set(_timer_vars(tc)):
            add_scalar("__delta", tuple(range(1, bounds.delta_max + 1)))
    player = vc.sketch.player
    if vc.kind in ("PlayerMove", "OpponentTotal") or (
            player is not None and player in reads):
        add_scalar("__player", bounds.actor_values(), ADDRESS)

    if tc.issues and tc.issue_limit is not None and any(
            isinstance(s, OpStmt) and s.ns == "Token" and s.op in ("issue", "burn")
            for s in walk_stmts(vc.action)):
        add_scalar("__remaining",
                   tuple(range(0, min(tc.issue_limit, bounds.nat_max) + 1)))

    # hypothesis: expand quantifiers, split conjunctions, substitute the
    # player, then add the constructor constraint restricted to read vars
    names = {n for n, _, _ in scalars}
    subst = {player: "__player"} if player and "__player" in names else {}
    hyp: list[Expr] = []
    for e in vc.hypothesis:
        e2 = subst_expr(e, subst) if subst else e
        hyp.extend(split_conjuncts(expand_quants(e2, bounds)))
    hyp.extend(expand_quants(h, bounds) for h in _definedness_hints(vc))
    if tc.where is not None:
        for w in split_conjuncts(expand_quants(tc.where, bounds)):
            if free_vars(w) <= names | set(maps):
                hyp.append(w)

    # Variables no leaf obligation reads only constrain the hypothesis:
    # they are deferred behind `boundary` and resolved by a satisfiability
    # probe instead of full enumeration.
    leaf_reads = _leaf_reads(vc)
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
    return _Problem(vc, cx, scalars, maps, hyp, order, boundary)


def _leaf_reads(vc: VC):
    """Variables the leaf obligation can read; None means everything.
    RankDefined leaves out theta, which only constrains the hypothesis."""
    if vc.kind in ("Enabledness", "PlayerMove", "OpponentTotal", "Initiality"):
        return None
    # writes count as reads: e.g. change_owner compares sender and owner
    out = reads_of(vc.conclusion) | reads_of(stmt_exprs(vc.action)) | \
        _action_writes(vc.action)
    if vc.kind == "RankDefined":
        out |= reads_of(vc.sketch.reads_at(vc.state, theta=False))
    elif vc.kind == "RankDecrease":
        for st in {vc.state, vc.target}:
            out |= reads_of(vc.sketch.reads_at(st))
    return out


# ---------------------------------------------------------------------------
# The engine's compiled forms of a problem
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Conjunct:
    """One hypothesis conjunct, compiled: its predicate and, for an
    equality, its unit propagation."""
    holds: object  # exploded env -> bool; KeyError while pending
    force: tuple | None  # (guards, targets) for _forced, if an equality


def _compile(prob: _Problem):
    """(compiled hypothesis conjuncts, leaf check) of a problem."""
    comp = Compiler({m.name: (m.default, "") for m in prob.maps.values()},
                    prob.cx.self_addr, _timer_vars(prob.vc.tc))
    for m in prob.maps.values():
        comp.map_meta[m.name] = (m.default, comp.const(frozenset(m.keys)))
    conjuncts = [_compile_conjunct(comp, prob.maps, e) for e in prob.hypothesis]
    return conjuncts, _make_check(prob.vc, prob.cx, comp)


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
    return _Conjunct(comp.predicate((e,)), force)


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


def _make_check(vc: VC, cx: _Ctx, comp: Compiler):
    """Leaf obligation: compiled for the flat high-volume kinds, the
    runtime evaluator otherwise."""
    if vc.kind in _COMPILED_KINDS:
        try:
            return _compiled_check(vc, cx, comp)
        except CannotCompile:
            pass
    return _interpreted_check(vc, cx)


def _interpreted_check(vc: VC, cx: _Ctx):
    """Leaf obligation through the runtime evaluator: env -> message or
    None. The sketch's player name reads the `__player` variable."""
    check_fn = _CHECKS[vc.kind]
    player_name = vc.sketch.player

    def interpreted(env):
        if "__player" in env and player_name:
            env = dict(env)
            env[player_name] = env["__player"]
            cx.extra = {player_name: env["__player"]}
        return check_fn(cx, env)

    return interpreted


def _compiled_check(vc: VC, cx: _Ctx, comp: Compiler):
    if vc.kind == "Sufficiency":
        concl = comp.predicate(list(cx.conclusion()))

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
        concl = comp.predicate(list(cx.conclusion()))

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
    target = vc.target
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


def _dfs(prob: _Problem, check, env: dict, pending: list, pos: int,
         stats: dict):
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
        r = _dfs(prob, check, env, still, pos, stats)
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
            msg = check(env)
            if msg is not None:
                return Counterexample(prob.vc.name, _json_valuation(env), msg)
            return None
        finally:
            for k in set(env) - before:
                del env[k]
    if pos == len(prob.order):
        stats["leaves"] += 1
        msg = check(env)
        if msg is not None:
            return Counterexample(prob.vc.name, _json_valuation(env), msg)
        return None
    key = prob.order[pos]
    for value in _domain_of(prob, key):
        env[key] = value
        r = _dfs(prob, check, env, still, pos + 1, stats)
        if r is not None:
            del env[key]
            return r
    del env[key]
    return None


def discharge_bounded(vc: VC, bounds: DomainBounds) -> DischargeResult:
    """Exhaustively enumerate the finitized context; Valid iff no valuation
    satisfies hypothesis && relation && !conclusion."""
    if _preserved(vc):
        return Valid(vc.name, 0)
    stats = {"leaves": 0}
    try:
        prob = _finitize(vc, bounds)
        conjuncts, check = _compile(prob)
        r = _dfs(prob, check, {}, conjuncts, 0, stats)
    except (Unfinitizable, CannotCompile) as e:
        return Unknown(vc.name, str(e))
    return r if r is not None else Valid(vc.name, stats["leaves"])


def _runtime_hypothesis(prob: _Problem):
    """(exprs, env) -> True iff every expr holds under the runtime
    evaluator, on the instance built from env with the binders boxed."""
    vc, cx = prob.vc, prob.cx
    own = {} if vc.transition is None else vc.transition.binders
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
    for e in prob.hypothesis:
        reads: set = set()
        for name in free_vars(e):
            if name in prob.maps:
                reads.update((name, k) for k in prob.maps[name].keys)
            else:
                reads.add(name)
        if _uses_self(e):
            reads.add("__self")
        at[max((index[r] + 1 for r in reads), default=0)].append(e)
    return at


def discharge_naive(vc: VC, bounds: DomainBounds) -> DischargeResult:
    """Raw-enumeration oracle: no propagation and no compiled code; the
    runtime evaluator checks each hypothesis conjunct once, at the first
    enumeration prefix that binds all its reads, and every leaf. Prefix
    filtering drops only valuations the full product would reject, so the
    `checked` count and the first counterexample are those of the raw
    product in the engine's variable order."""
    try:
        prob = _finitize(vc, bounds)
        hyp = _runtime_hypothesis(prob)
        leaf = _interpreted_check(vc, prob.cx)
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
    except Unfinitizable as e:
        return Unknown(vc.name, str(e))
    return r if r is not None else Valid(vc.name, checked)


def replay_counterexample(vc: VC, bounds: DomainBounds,
                          cex: Counterexample) -> bool:
    """Re-run a counterexample valuation through the runtime evaluator:
    hypothesis and leaf check. True if the violation reproduces."""
    prob = _finitize(vc, bounds)
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
    if not _runtime_hypothesis(prob)(prob.hypothesis, env):
        return False
    return _interpreted_check(vc, prob.cx)(env) is not None


def _value_from_json(j, domain):
    for v in domain:
        if v is not ABSENT and _json_value(v) == j:
            return v
    raise ValueError(f"value {j!r} not in domain")
