"""Bounded brute-force discharge of verification conditions.

Every context variable is finitized by DomainBounds: addresses become a
small enumerated set (plus `none`), nats 0..N, timers Off/Fired/Active(k<=N),
maps become one enumeration variable per key over the bounded key set.
Validity means no valuation satisfies hypothesis && relation && !conclusion.

`_finitize` derives each VC's finite problem (`_Problem`, immutable) once
per bounds and keeps it on the VC (`_problem`), so the engine, the oracle
and replay read one problem. The VCs of one generation share a store
(`vcgen.Store`) of the sketch expanded at each bounds and of the code
object of each generated source, which is compiled once per generation:

- the engine (discharge_bounded) reads the problem alone. It is a pruning
  DFS over an environment of flat values (values.flat): a hypothesis
  conjunct is checked again only once the key it blocked on is assigned
  (Chaff's lazy watches), an equality with a single unknown forces its
  value, variables only the hypothesis reads get one witness per prefix
  (the conjuncts over them alone are solved once per VC), and pruning,
  forcing and every leaf obligation (`_Leaf`) run as code generated by the
  compile module. The actors that nothing holds yet are interchangeable
  (the scalarset symmetry of Ip & Dill, in the least-number form of finite
  model finders): a node tries only the first of them, which cannot change
  the first counterexample (see `_search`), so a Valid's `checked` counts
  the leaves of the reduced search;
- the raw-enumeration oracle (discharge_naive) and counterexample replay
  build a `_Ctx` from the problem and evaluate hypothesis conjuncts and
  leaf obligations with the runtime evaluator over instances of boxed
  values (values.boxed; the oracle keeps one per enumeration depth),
  without propagation, symmetry cut or compiled code, so the oracle's
  `checked` stays the size of the raw product.

A VC outside the compiled fragment (`CannotCompile`) is Unknown: no engine
leaf falls back to the runtime evaluator. A step of the proof model, the
time self-loop included, is a transition that vcgen built and sliced, so
no check here special-cases time or slices an action. The move checks
(Enabledness, PlayerMove, OpponentTotal) enumerate the VC's `moves` in
step and binder order over the binder domains of `flat_binder_domains`:
the oracle's with `_Ctx.moves`, which boxes them and which the state
searches of the prove module run on the full steps, and the engine's with
`_Leaf.moves` over the flat env.

The module holds, in this order, what both routes read, the oracle, and
the engine.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, fields, replace
from functools import cached_property
from types import MappingProxyType

from .ast_nodes import (
    Assign, Binop, Builtin, Expr, Lit, OpStmt, Quant, SemType, Var,
    chain, children, map_children, membership_maps, stmt_exprs,
)
from .compile import CannotCompile, Compiler
from .machine import (
    InstanceState, advance_instance, all_true, eval_expr, init_instance, step_instance,
)
from .typecheck import TypedTransition, free_vars, reads_of, subst_expr, writes_of
from .values import ABSENT, ADDR_NONE, Undef, boxed, flat, zero_value
from .vcgen import VC


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
# Domain bounds, value domains in the flat form (values.flat), and
# quantifier expansion
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

    def address_values(self):
        return (ADDR_NONE,) + self.actor_values()

    def actor_values(self):
        return tuple(f"P{i}" for i in range(self.addresses))

    @staticmethod
    def parse(text: str) -> "DomainBounds":
        """Parse the CLI form: addr=3,nat=4,timer=5. Raises ValueError on
        an unknown or repeated key, a non-integer or a value below the
        bound's minimum."""
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
            if names[key] in kw:
                raise ValueError(f"bound {key} given twice")
            try:
                kw[names[key]] = int(val)
            except ValueError:
                raise ValueError(f"bound {key} needs an integer, got {val!r}") from None
        return DomainBounds(**kw)


class Unfinitizable(Exception):
    pass


def scalar_domain(typ: SemType, bounds: DomainBounds, issuer: str | None):
    """The flat values of a type at the bounds; a token is the contract's
    own (`issuer`) or the empty one."""
    amounts = tuple(range(0, bounds.nat_max + 1))
    if typ.kind in ("int", "nat", "coin"):
        # state/ghost accounting in the corpus is non-negative; documented
        return amounts
    if typ.kind == "bool":
        return (False, True)
    if typ.kind == "address":
        return bounds.address_values()
    if typ.kind == "token":
        return ((None, 0),) + tuple((issuer, v) for v in amounts[1:])
    if typ.kind == "timer":
        return (("off", 0), ("fired", 0)) + tuple(
            ("active", k) for k in range(1, bounds.timer_max + 1))
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


def expand_quants(e: Expr, bounds: DomainBounds) -> Expr:
    """Replace bounded quantifiers by finite conjunctions/disjunctions.
    Only scalar-comparable types quantify, so substituted values are plain
    literals (ints, bools, address strings)."""
    e = map_children(e, lambda c: expand_quants(c, bounds))
    if not isinstance(e, Quant):
        return e
    parts = [subst_expr(e.body, {e.var: Lit(v)}) for v in scalar_domain(e.typ, bounds, None)]
    return chain("&&" if e.kind == "forall" else "||", parts)


def split_conjuncts(e: Expr) -> list[Expr]:
    if isinstance(e, Binop) and e.op == "&&":
        return split_conjuncts(e.left) + split_conjuncts(e.right)
    return [e]


# ---------------------------------------------------------------------------
# Finitization: the problem of a VC, which both routes read
# ---------------------------------------------------------------------------


def flat_binder_domains(t: TypedTransition, bounds: DomainBounds, self_addr: str) -> dict:
    """Name -> flat domain of each of t's binders, in binder order: the
    sender ranges over the actors, every other binder over its type."""
    return {name: bounds.actor_values() if name == t.sender_var
            else scalar_domain(typ, bounds, self_addr)
            for name, typ in t.binders.items()}


def tick_deltas(tc, bounds: DomainBounds) -> tuple:
    """The ticks a step composes with: 1 to one past the timer bound (a
    step then fires every active timer), or (None,) without timers."""
    return tuple(range(1, bounds.timer_max + 2)) if tc.has_timers() else (None,)


@dataclass(frozen=True)
class _Problem:
    """A VC over finite domains, derived once per VC and bounds by
    `_finitize` and kept on the VC (`_problem`); the engine reads it
    alone, and the oracle and replay build their `_Ctx` from it. It is
    immutable, so that neither route can change what the other reads.
    `domains` maps each key, a scalar name or a map entry `(map, key)`, to
    its flat values, and `layout` each map the VC reads to its (default,
    key domain). Only `order` is enumerated, and the keys from `boundary`
    on are read by the hypothesis (quantifiers expanded) alone."""
    vc: VC  # its conclusion expanded
    bounds: DomainBounds
    self_addr: str
    deltas: tuple  # the ticks a step composes with (tick_deltas)
    remaining: int | None  # the supply left to issue, unless a key holds it
    domains: MappingProxyType
    layout: MappingProxyType  # map name -> (default, key domain)
    hypothesis: tuple[Expr, ...]
    order: tuple
    boundary: int

    @cached_property
    def sketch(self):
        """The sketch with its quantifiers expanded, on first use: the
        compiled safety leaves never read it. The VCs of a store share
        one per bounds, since a generation has one sketch."""
        sketches = self.vc.store.sketches
        if self.bounds not in sketches:
            sketches[self.bounds] = self.vc.sketch.map_exprs(
                lambda e: expand_quants(e, self.bounds))
        return sketches[self.bounds]


def _problem(vc: VC, bounds: DomainBounds) -> _Problem:
    """The problem of vc at bounds, finitized on first use and kept on the
    VC: the engine, the oracle and replay read the same one."""
    if bounds not in vc.problems:
        vc.problems[bounds] = _finitize(vc, bounds)
    return vc.problems[bounds]


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
        if not isinstance(s, OpStmt):
            break  # conditionals etc.: stop hoisting
        if (s.ns, s.op) == ("Timer", "set") and s.args[0].name not in written:
            hints.append(Builtin("Timer", "is_off", (s.args[0],)))
        written |= writes_of((s,))
    return hints


def _finitize(vc: VC, bounds: DomainBounds) -> _Problem:
    # expanding the conclusion changes none of the names, maps and
    # Address.self uses that these read
    pool = vc.reads
    reads = reads_of(pool)
    vc = replace(vc, conclusion=tuple(
        expand_quants(e, bounds) for e in vc.conclusion))
    tc = vc.tc
    self_addr = "@" + tc.name
    deltas = tick_deltas(tc, bounds)
    scalars: dict = {}
    layout: dict[str, tuple] = {}
    entries: dict = {}  # (map, key) -> values

    own_binders = {} if vc.transition is None else vc.transition.binders
    map_in_names = membership_maps(pool)
    uses_self = any(_uses_self(e) for e in pool)
    initiality = vc.kind == "Initiality"

    for pname, ptyp in tc.params:
        if pname in reads or initiality:
            scalars[pname] = scalar_domain(ptyp, bounds, self_addr)
    for v in tc.vars.values():
        if v.name not in reads or v.name in own_binders or v.synthetic:
            continue
        if v.typ.kind == "map":
            key_dom = scalar_domain(v.typ.args[0], bounds, self_addr)
            if uses_self and v.typ.args[0].kind == "address":
                key_dom += (self_addr,)  # Address.self can be a key
            val_dom = scalar_domain(v.typ.args[1], bounds, self_addr)
            if v.default is not None and v.name not in map_in_names:
                entry_values = tuple(val_dom)  # absence == default here
            else:
                entry_values = (ABSENT,) + tuple(val_dom)
            layout[v.name] = (v.default, tuple(key_dom))
            entries.update(((v.name, k), entry_values) for k in key_dom)
        elif not initiality:
            scalars[v.name] = scalar_domain(v.typ, bounds, self_addr)

    def problem(hypothesis, order, boundary):
        return _Problem(vc, bounds, self_addr, deltas, tc.issue_limit if tc.issues else None,
                        MappingProxyType({**scalars, **entries}), MappingProxyType(layout),
                        tuple(hypothesis), tuple(order), boundary)

    if initiality:
        # the initial state is computed from the parameters and the
        # creator; the maps the obligation reads are laid out (every entry
        # starts absent) but not enumerated
        scalars["creator"] = bounds.actor_values()
        if "__player" in reads:
            scalars["__player"] = bounds.actor_values()
        return problem(() if tc.where is None else split_conjuncts(tc.where),
                       scalars, len(scalars))
    if vc.transition is not None:
        scalars.update(flat_binder_domains(vc.transition, bounds, self_addr))
    if "owner" in reads:
        scalars["owner"] = bounds.actor_values()
    if "creator" in reads:
        scalars["creator"] = bounds.actor_values()

    if tc.timers and vc.transition is not None:
        post_reads = reads_of(vc.conclusion)
        if vc.kind == "RankDecrease":
            post_reads |= reads_of(vc.sketch.reads_at(vc.target))
        if post_reads & set(tc.timers):
            scalars["__delta"] = deltas
    if vc.kind in ("PlayerMove", "OpponentTotal") or "__player" in reads:
        scalars["__player"] = bounds.actor_values()

    if tc.issues and tc.issue_limit is not None and "__remaining" in reads:
        scalars["__remaining"] = tuple(range(0, min(tc.issue_limit, bounds.nat_max) + 1))

    # hypothesis: expand quantifiers, split conjunctions, then add the
    # constructor constraint restricted to read vars
    hyp: list[Expr] = []
    for e in vc.hypothesis:
        hyp.extend(split_conjuncts(expand_quants(e, bounds)))
    hyp.extend(_definedness_hints(vc))
    if tc.where is not None:
        for w in split_conjuncts(tc.where):
            if free_vars(w) <= scalars.keys() | layout.keys():
                hyp.append(w)

    # Variables no leaf obligation reads only constrain the hypothesis:
    # they are deferred behind `boundary` and resolved by a satisfiability
    # probe instead of full enumeration.
    leaf_reads = _leaf_reads(vc)
    order: list = []
    deferred: list = []
    for name in scalars:
        if leaf_reads is None or name in leaf_reads or name in own_binders \
                or name.startswith("__"):
            order.append(name)
        else:
            deferred.append(name)
    order.extend(entries)
    boundary = len(order)
    order.extend(deferred)
    return problem(hyp, order, boundary)


def _leaf_reads(vc: VC):
    """Variables the leaf obligation can read; None means everything.
    RankDefined leaves out theta, which only constrains the hypothesis."""
    if vc.kind in ("Enabledness", "PlayerMove", "OpponentTotal", "Initiality"):
        return None
    # writes count as reads: e.g. change_owner compares sender and owner
    out = reads_of(vc.conclusion) | reads_of(stmt_exprs(vc.action)) | \
        writes_of(vc.action)
    if vc.kind == "RankDefined":
        out |= reads_of(vc.sketch.reads_at(vc.state, theta=False))
    elif vc.kind == "RankDecrease":
        for st in {vc.state, vc.target}:
            out |= reads_of(vc.sketch.reads_at(st))
    return out


def _json_value(v):
    if v is ABSENT or v is None:
        return None
    if isinstance(v, tuple):
        return list(v)
    return v


def _json_name(key) -> str:
    """A scalar's name, or `m[k]` for the entry k of map m."""
    return f"{key[0]}[{key[1]}]" if isinstance(key, tuple) else str(key)


def _json_valuation(env: dict) -> dict:
    return {_json_name(key): _json_value(v) for key, v in env.items()}


def _value_from_json(j, domain):
    """The value of the domain that reads back as j (null: an absent map
    entry)."""
    for v in domain:
        if _json_value(v) == j:
            return v
    raise ValueError(f"value {j!r} not in domain")


# ---------------------------------------------------------------------------
# The oracle: the proof model, interpreted over boxed instances
# ---------------------------------------------------------------------------


class _Ctx:
    """The runtime evaluator's side of the proof model: it builds boxed
    instances from flat valuations and evaluates steps and sketch pieces
    on them through the runtime evaluator. `moves` is the one enumeration
    of a state's moves, which the oracle's leaf checks (`_CHECKS`) and the
    state searches of `prove.FiniteModel` run; it caches, per transition,
    the boxed binder domains. The oracle and replay build it from a VC's
    problem (`of`), the searches from the contract and the bounds."""

    def __init__(self, tc, bounds: DomainBounds, self_addr: str,
                 binders: dict | None = None, owner_key: bool = False):
        self.tc = tc
        self.bounds = bounds
        self.self_addr = self_addr
        self.binders = binders or {}  # the VC's step binders and their types
        self.owner_key = owner_key  # whether `owner` is enumerated
        self.types = {**dict(tc.params), **{v.name: v.typ for v in tc.vars.values()}}
        self._binders: dict[str, tuple] = {}  # label -> binder_domains

    @classmethod
    def of(cls, prob: _Problem) -> "_Ctx":
        """The context of a VC's problem."""
        t = prob.vc.transition
        return cls(prob.vc.tc, prob.bounds, prob.self_addr,
                   {} if t is None else t.binders, "owner" in prob.domains)

    # -- boxed-instance evaluation --

    def bind_key(self, inst: InstanceState, bindings: dict, key, value) -> None:
        """Put one flat key of a valuation into inst or bindings, the one
        rule for both: a binder of the VC's step goes into the bindings, a
        parameter or variable is boxed by its type, a map entry is put into
        its map unless ABSENT, `creator` also sets `owner` unless `owner` is
        enumerated, `owner`, `__remaining` and `__player` set their fields,
        and `__delta` sets nothing."""
        if isinstance(key, tuple):
            if value is not ABSENT:
                m, k = key
                inst.env[m] = inst.env[m].put(k, boxed(self.types[m].args[1], value))
        elif key in self.binders:
            bindings[key] = boxed(self.binders[key], value)
        elif key in self.types:
            inst.env[key] = boxed(self.types[key], value)
        elif key == "creator":
            inst.creator = value
            if not self.owner_key:
                inst.owner = value
        elif key == "owner":
            inst.owner = value
        elif key == "__remaining":
            inst.token_remaining = value
        elif key == "__player":
            inst.env[key] = value

    def build_instance(self, state: str, env: dict, bindings: dict | None = None
                       ) -> InstanceState:
        """The zero instance at state (parameters and variables at their
        zero values, `P0` the creator and owner, the whole supply left) with
        `bind_key` folded over env; the step's binders go into `bindings`."""
        tc = self.tc
        ienv = {p: zero_value(t) for p, t in tc.params}
        ienv.update((v.name, zero_value(v.typ, v.default)) for v in tc.vars.values())
        inst = InstanceState(tc.name, state, ienv, "P0", "P0", self.self_addr,
                             tc.issue_limit if tc.issues else None)
        bindings = {} if bindings is None else bindings
        for key, value in env.items():
            self.bind_key(inst, bindings, key, value)
        return inst

    # -- the moves of a state --

    def binder_domains(self, t: TypedTransition):
        """Names and boxed domains of t's binders: `flat_binder_domains`,
        boxed."""
        key = t.label()
        if key not in self._binders:
            doms = flat_binder_domains(t, self.bounds, self.self_addr)
            self._binders[key] = list(doms), [
                tuple(boxed(t.binders[name], v) for v in dom) for name, dom in doms.items()]
        return self._binders[key]

    def moves(self, inst, steps, senders=None, taus: bool = True, witness=None):
        """(t, sender, step bindings) for each of the steps from inst whose
        guards pass, in step and binder order: the taus (the time
        self-loop among them) when `taus`, and the input moves from
        `senders` (every actor when None) whose binders satisfy `witness`,
        when one is given. A matched sender is one of the guards."""
        for t in steps:
            if t.input is None:
                if taus and all_true(t.guards, inst, {}):
                    yield t, None, {}
                continue
            names, doms = self.binder_domains(t)
            if senders is not None:
                doms = [tuple(a for a in d if a in senders)
                        if n == t.sender_var else d for n, d in zip(names, doms)]
            for combo in itertools.product(*doms):
                bindings = dict(zip(names, combo))
                if witness is not None and \
                        eval_expr(witness, inst, bindings) is not True:
                    continue
                if not all_true(t.guards, inst, bindings):
                    continue
                yield t, bindings[t.sender_var], t.action_view(bindings)

    def run_inner(self, t: TypedTransition, inst, bindings, sender, delta):
        """The post-state of step t from inst, ticked by delta unless it
        is None; None when t's action is undefined there."""
        res = step_instance(self.tc, inst, t, bindings, sender)
        if res is None:
            return None
        post = res[0]
        if delta is not None and self.tc.has_timers():
            post = advance_instance(post, delta)
        return post


# the oracle's leaf checks: (problem, context, env, the instance that env
# builds) -> message or None
def _check_initiality(prob: _Problem, cx: _Ctx, env: dict, inst):
    tc = prob.vc.tc
    args = {p: boxed(ptyp, env[p]) for p, ptyp in tc.params}
    try:
        inst = init_instance(tc, prob.self_addr, args, env["creator"])
    except Undef:
        return None  # no such initial state
    if "__player" in env:
        inst.env["__player"] = env["__player"]
    if not all_true(prob.vc.conclusion, inst, {}):
        return "assertion fails at the initial state"
    return None


def _vc_step(prob: _Problem, cx: _Ctx, inst, env: dict):
    """The post-state of the VC's step from inst under env, None when the
    step is not a transition at this valuation."""
    t = prob.vc.transition
    bindings = {name: boxed(typ, env[name]) for name, typ in t.binders.items()}
    return cx.run_inner(t, inst, t.action_view(bindings), bindings.get(t.sender_var),
                        env.get("__delta"))


def _check_inductive(prob: _Problem, cx: _Ctx, env: dict, inst):
    post = _vc_step(prob, cx, inst, env)
    if post is None:
        return None
    if not all_true(prob.vc.conclusion, post, {}):
        return "assertion is not preserved"
    return None


def _check_sufficiency(prob: _Problem, cx: _Ctx, env: dict, inst):
    if not all_true(prob.vc.conclusion, inst, {}):
        return "reject predicate holds at an invariant state"
    return None


def _rank_of(prob: _Problem, state: str, inst) -> tuple | None:
    """The rank of inst at state: the first case whose condition is true
    gives it, undefined (None) when a component is undefined or below
    zero."""
    for case in prob.sketch.rank.get(state, ()):
        if case.cond is not None and eval_expr(case.cond, inst, {}) is not True:
            continue
        vals = []
        for x in case.exprs:
            v = eval_expr(x, inst, {})
            if v is None or v < 0:
                return None
            vals.append(v)
        return tuple(vals)
    return None


def _check_rank_defined(prob: _Problem, cx: _Ctx, env: dict, inst):
    if _rank_of(prob, prob.vc.state, inst) is None:
        return "rank is undefined"
    return None


def _check_enabledness(prob: _Problem, cx: _Ctx, env: dict, inst):
    vc = prob.vc
    wit = prob.sketch.witness.get(vc.state)
    # without a witness an input transition's existential cannot be
    # discharged: only tau moves count then
    for t, sender, step_b in cx.moves(inst, vc.moves,
                                      None if wit is not None else (), witness=wit):
        if cx.run_inner(t, inst, step_b, sender, None) is not None:
            return None
    return "no transition is enabled"


def _progress_ok(prob: _Problem, cx: _Ctx, target: str, post, pre_rank) -> bool:
    goal = prob.sketch.goal_at(target)
    if goal is not None and all_true(goal, post, {}):
        return True
    if not all_true(prob.sketch.theta(target), post, {}):
        return False
    post_rank = _rank_of(prob, target, post)
    return post_rank is not None and post_rank < pre_rank


def _check_rank_decrease(prob: _Problem, cx: _Ctx, env: dict, inst):
    pre_rank = _rank_of(prob, prob.vc.state, inst)
    if pre_rank is None:
        return "rank is undefined at the source state"
    post = _vc_step(prob, cx, inst, env)
    if post is None:
        return None
    if not _progress_ok(prob, cx, prob.vc.target, post, pre_rank):
        return "rank does not decrease strictly"
    return None


def _check_player_move(prob: _Problem, cx: _Ctx, env: dict, inst):
    vc = prob.vc
    x = env["__player"]
    pre_rank = _rank_of(prob, vc.state, inst)
    if pre_rank is None:
        return "rank is undefined"
    # tau moves belong to the Opponent (the contract)
    for t, _, step_b in cx.moves(inst, vc.moves, (x,), taus=False,
                                 witness=prob.sketch.witness.get(vc.state)):
        posts = (cx.run_inner(t, inst, step_b, x, delta) for delta in prob.deltas)
        if all(post is not None and _progress_ok(prob, cx, t.target, post, pre_rank)
               for post in posts):
            return None
    return "no Player move makes progress"


def _check_opponent_total(prob: _Problem, cx: _Ctx, env: dict, inst):
    vc = prob.vc
    x = env["__player"]
    pre_rank = _rank_of(prob, vc.state, inst)
    if pre_rank is None:
        return "rank is undefined"
    # (a) an opponent move is guaranteed: only the contract's own taus
    # (the time self-loop among them) are inevitable (other agents may
    # simply never act). A slice keeps every partial statement, so it is
    # defined exactly where the full action is.
    taus = list(cx.moves(inst, vc.moves, ()))
    if all(cx.run_inner(t, inst, {}, None, None) is None for t, _, _ in taus):
        return "no Opponent transition is guaranteed"

    # (b) every opponent move (taus, other agents' inputs) stays in theta
    # and strictly decreases the rank, or lands in the goal.
    def escape(moves):
        for t, sender, step_b in moves:
            for delta in prob.deltas:
                post = cx.run_inner(t, inst, step_b, sender, delta)
                if post is not None and \
                        not _progress_ok(prob, cx, t.target, post, pre_rank):
                    return f"opponent move {t.label()} escapes the proof"
        return None

    others = tuple(a for a in prob.bounds.actor_values() if a != x)
    return escape(taus) or escape(cx.moves(inst, vc.moves, others, taus=False))


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


def _hypothesis_schedule(prob: _Problem) -> list[list[Expr]]:
    """For each enumeration depth d, the hypothesis conjuncts whose reads
    are all among the first d keys of the order, so that each conjunct is
    checked once, as soon as what it reads is bound (Korat's pruning by the
    fields a predicate read). A conjunct reads its free variables. Of a map
    m, `Map.get`/`Map.ref(m, k)` and `Map.in(k, m)` with k a literal read
    the entry (m, k) alone, and nothing when k is outside the key domain;
    any other mention of m reads every entry."""
    index = {key: i for i, key in enumerate(prob.order)}
    at: list[list[Expr]] = [[] for _ in range(len(prob.order) + 1)]
    for e in prob.hypothesis:
        at[max((index[key] + 1 for key in _reads(e, prob.layout, index)), default=0)].append(e)
    return at


def _reads(e: Expr, layout, index) -> set:
    """The keys of `index` that e reads, as `_hypothesis_schedule` says."""
    if isinstance(e, Builtin) and e.ns == "Map" and e.op in ("get", "ref", "in"):
        k, m = e.args if e.op == "in" else e.args[::-1]
        if isinstance(m, Var) and m.name in layout and isinstance(k, Lit):
            return {(m.name, k.value)} & index.keys()
    if isinstance(e, Var):
        return {(e.name, k) for k in layout[e.name][1]} if e.name in layout else {e.name}
    return set().union(*(_reads(c, layout, index) for c in children(e)))


def discharge_naive(vc: VC, bounds: DomainBounds) -> DischargeResult:
    """Raw-enumeration oracle: no propagation and no compiled code. It
    enumerates the problem's order depth by depth and keeps one boxed
    instance and bindings per depth, its parent's clone with the new key
    bound (`_Ctx.bind_key`). The runtime evaluator checks each hypothesis
    conjunct once, on the pair of the first depth that binds all its reads
    (`_hypothesis_schedule`), and each leaf check (`_CHECKS`) runs on the
    last depth's instance. Prefix filtering drops only valuations the full
    product would reject, so the `checked` count and the first
    counterexample are those of the raw product in the engine's variable
    order."""
    try:
        prob = _problem(vc, bounds)
        cx = _Ctx.of(prob)
        leaf = _CHECKS[vc.kind]
        at = _hypothesis_schedule(prob)
        keys = prob.order
        domains = [prob.domains[k] for k in keys]
        env: dict = {}
        checked = 0

        def enumerate_from(d: int, inst: InstanceState, bindings: dict):
            nonlocal checked
            if at[d] and not all_true(at[d], inst, bindings):
                return None
            if d == len(keys):
                checked += 1
                msg = leaf(prob, cx, env, inst)
                return None if msg is None else \
                    Counterexample(vc.name, _json_valuation(env), msg)
            key = keys[d]
            for value in domains[d]:
                env[key] = value
                child, child_b = inst.clone(), dict(bindings)
                cx.bind_key(child, child_b, key, value)
                r = enumerate_from(d + 1, child, child_b)
                if r is not None:
                    return r
            env.pop(key, None)
            return None

        r = enumerate_from(0, cx.build_instance(vc.state, {}), {})
        del enumerate_from  # free the self-referencing closure without the collector
    except Unfinitizable as e:
        return Unknown(vc.name, str(e))
    return r if r is not None else Valid(vc.name, checked)


def replay_counterexample(vc: VC, bounds: DomainBounds,
                          cex: Counterexample) -> bool:
    """Re-run a counterexample valuation through the runtime evaluator:
    hypothesis and leaf check. True if the violation reproduces."""
    prob = _problem(vc, bounds)
    cx = _Ctx.of(prob)
    env: dict = {}
    for key, values in prob.domains.items():
        name = _json_name(key)
        if name in cex.valuation:
            env[key] = _value_from_json(cex.valuation[name], values)
    bindings: dict = {}
    inst = cx.build_instance(vc.state, env, bindings)
    if not all_true(prob.hypothesis, inst, bindings):
        return False
    return _CHECKS[vc.kind](prob, cx, env, inst) is not None


# ---------------------------------------------------------------------------
# The engine: compiled forms of a problem, and the search
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Conjunct:
    """One hypothesis conjunct, compiled: its predicate and, for an
    equality, its unit propagation."""
    holds: object  # exploded env -> bool; KeyError while pending
    force: tuple | None  # (guards, targets) for _forced, if an equality


def _compile(prob: _Problem):
    """(compiled hypothesis conjuncts, leaf check) of a problem, with the
    code objects of the VC's store. A relation ticks only the timers that
    the problem enumerates: the others stay as the boxed instance has
    them, off, which a tick leaves alone."""
    comp = Compiler(prob.layout, prob.self_addr,
                    tuple(t for t in prob.vc.tc.timers if t in prob.domains),
                    prob.vc.store.code)
    conjuncts = [_compile_conjunct(comp, prob.layout, e) for e in prob.hypothesis]
    leaf = _Leaf(prob, comp)
    return conjuncts, getattr(leaf, leaf._METHODS[prob.vc.kind])


def _compile_conjunct(comp: Compiler, layout: dict[str, tuple],
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
            target = _target(comp, layout, a)
            if target is not None:
                targets.append((target, comp.value(b)))
    force = (tuple(guards), tuple(targets)) if targets else None
    return _Conjunct(comp.predicate((e,)), force)


def _target(comp: Compiler, layout: dict[str, tuple], e: Expr):
    """E -> the unassigned variable or in-domain map entry that e names,
    or None; KeyError/Undef while its key is pending or undefined."""
    if isinstance(e, Var):
        name = e.name
        return lambda E: None if name in E else name
    if isinstance(e, Builtin) and (e.ns, e.op) in (("Map", "get"), ("Map", "ref")) \
            and isinstance(e.args[0], Var) and e.args[0].name in layout:
        m = e.args[0].name
        keys = layout[m][1]
        if isinstance(e.args[1], Lit):  # (m, k) and `k in keys` known here
            mk = (m, e.args[1].value)
            if mk[1] not in keys:
                return lambda E: None  # never hits; the conjunct still forces
            return lambda E: None if mk in E else mk
        key_fn = comp.value(e.args[1])

        def entry(E):
            k = key_fn(E)
            return (m, k) if k in keys and (m, k) not in E else None
        return entry
    return None


def _holds(pred, E) -> bool:
    """Whether a compiled predicate holds at E; an undefined one does not,
    as under the runtime evaluator."""
    try:
        return pred(E) is True
    except Undef:
        return False


def _witnessed(pred, E) -> bool:
    """Whether a witness holds at E. One that is undefined, or names a
    binder of another move (a name E lacks), does not: the runtime
    evaluator reads that name as undefined and skips the move."""
    try:
        return pred(E) is True
    except (Undef, KeyError):
        return False


@dataclass(frozen=True)
class _Move:
    """A step of a state obligation's moves, compiled: its binders' flat
    domains (`flat_binder_domains`), guards and relation."""
    t: TypedTransition
    doms: dict
    guards: object
    rel: object


class _Leaf:
    """The leaf obligation of a VC as code generated over the flat env:
    its check, env -> message or None, is the method named as its runtime
    twin in `_CHECKS` (`_METHODS`), with that twin's messages and order;
    `_compile` returns it bound, and the leaf keeps no reference to it, so
    that freeing a VC's compiled code needs no cycle collector. Built once per
    VC from what its kind reads: Initiality the initializers as a relation
    from the zero state, the state obligations each step of `VC.moves` and
    the state's witness, and the ranked kinds the source rank and, per
    target state, the goal, theta and rank."""

    _METHODS = {"Initiality": "initiality", "Inductiveness": "inductive",
                "Sufficiency": "sufficiency", "RankDefined": "rank_defined",
                "Enabledness": "enabledness", "RankDecrease": "rank_decrease",
                "PlayerMove": "player_move", "OpponentTotal": "opponent_total"}

    def __init__(self, prob: _Problem, comp: Compiler):
        vc = prob.vc
        kind = vc.kind
        self.actors = prob.bounds.actor_values()
        self.deltas = prob.deltas
        self.remaining = prob.remaining
        if kind in ("Initiality", "Inductiveness", "Sufficiency"):
            self.concl = comp.predicate(vc.conclusion)
        if kind == "Initiality":
            # init_instance's state: every variable zero, every map empty,
            # the creator as owner and the full supply; the initializers
            # read only the parameters, owner and creator (init_scope)
            self.start = {v.name: flat(zero_value(v.typ)) for v in vc.tc.vars.values()
                          if v.typ.kind != "map"}
            self.start.update((k, ABSENT) for k in prob.domains if isinstance(k, tuple))
            self.start["__remaining"] = self.remaining
            self.rel = comp.relation([Assign(v.name, v.init) for v in vc.tc.vars.values()
                                      if v.init is not None], None)
        if kind in ("Inductiveness", "RankDecrease"):
            self.target = vc.target  # RankDecrease's
            self.rel = comp.relation(vc.action, vc.transition.sender_var)
        if kind in ("Enabledness", "PlayerMove", "OpponentTotal"):
            wit = prob.sketch.witness.get(vc.state)
            self.witness = None if wit is None else comp.predicate((wit,))
            self.steps = [_Move(t, flat_binder_domains(t, prob.bounds, prob.self_addr),
                                comp.predicate(t.guards), comp.relation(t.action, t.sender_var))
                          for t in vc.moves]
        if kind in ("RankDefined", "RankDecrease", "PlayerMove", "OpponentTotal"):
            self.rank = comp.rank(prob.sketch.rank.get(vc.state))
        if kind in ("RankDecrease", "PlayerMove", "OpponentTotal"):
            self.targets = {}
            for target in dict.fromkeys([vc.target] if kind == "RankDecrease"
                                        else [t.target for t in vc.moves]):
                goal = prob.sketch.goal_at(target)
                self.targets[target] = (
                    None if goal is None else comp.predicate(list(goal)),
                    comp.predicate(list(prob.sketch.theta(target))),
                    comp.rank(prob.sketch.rank.get(target)))

    def initiality(self, E):
        post = self.rel({**self.start, **E, "owner": E["creator"]})
        if post is None or _holds(self.concl, post):
            return None  # no such initial state, or the assertion holds
        return "assertion fails at the initial state"

    def inductive(self, E):
        post = self.rel(E)
        return None if post is None or _holds(self.concl, post) else \
            "assertion is not preserved"

    def sufficiency(self, E):
        return None if _holds(self.concl, E) else \
            "reject predicate holds at an invariant state"

    def rank_defined(self, E):
        return None if self.rank(E) is not None else "rank is undefined"

    def rank_decrease(self, E):
        pre_rank = self.rank(E)
        if pre_rank is None:
            return "rank is undefined at the source state"
        post = self.rel(E)
        if post is None or self.progress(self.target, post, pre_rank):
            return None
        return "rank does not decrease strictly"

    def moves(self, E, senders=None, taus: bool = True, witness=None):
        """(move, env) for each step from E whose guards hold, in step and
        binder order, as `_Ctx.moves`: the taus when `taus`, and the input
        moves from `senders` (every actor when None) whose binders satisfy
        `witness`, when one is given. Each env is a fresh copy of E with
        the move's binders bound."""
        for m in self.steps:
            if m.t.input is None:
                if taus and _holds(m.guards, E):
                    yield m, dict(E)
                continue
            doms = m.doms.values()
            if senders is not None:
                doms = [tuple(a for a in d if a in senders)
                        if n == m.t.sender_var else d for n, d in m.doms.items()]
            for combo in itertools.product(*doms):
                E2 = dict(E)
                E2.update(zip(m.doms, combo))
                if witness is not None and not _witnessed(witness, E2):
                    continue
                if _holds(m.guards, E2):
                    yield m, E2

    def post(self, m: _Move, E2: dict, delta):
        """The env after move m from E2, ticked by delta unless it is
        None; None when the move's action is undefined there. The supply
        left to issue is the contract's limit unless a key holds it, as on
        the boxed instance."""
        E2["__delta"] = delta
        E2.setdefault("__remaining", self.remaining)
        return m.rel(E2)

    def progress(self, target: str, post: dict, pre_rank: tuple) -> bool:
        """`_progress_ok` on the flat env: the goal holds at the target,
        or theta holds and the rank strictly decreases."""
        goal, theta, rank = self.targets[target]
        if goal is not None and _holds(goal, post):
            return True
        if not _holds(theta, post):
            return False
        post_rank = rank(post)
        return post_rank is not None and post_rank < pre_rank

    def enabledness(self, E):
        senders = None if self.witness is not None else ()
        for m, E2 in self.moves(E, senders, witness=self.witness):
            if self.post(m, E2, None) is not None:
                return None
        return "no transition is enabled"

    def player_move(self, E):
        x = E["__player"]
        pre_rank = self.rank(E)
        if pre_rank is None:
            return "rank is undefined"
        for m, E2 in self.moves(E, (x,), taus=False, witness=self.witness):
            if all(post is not None and self.progress(m.t.target, post, pre_rank)
                   for post in (self.post(m, E2, d) for d in self.deltas)):
                return None
        return "no Player move makes progress"

    def opponent_total(self, E):
        x = E["__player"]
        pre_rank = self.rank(E)
        if pre_rank is None:
            return "rank is undefined"
        taus = list(self.moves(E, ()))
        if all(self.post(m, E2, None) is None for m, E2 in taus):
            return "no Opponent transition is guaranteed"
        others = tuple(a for a in self.actors if a != x)
        for m, E2 in itertools.chain(taus, self.moves(E, others, taus=False)):
            for delta in self.deltas:
                post = self.post(m, E2, delta)
                if post is not None and not self.progress(m.t.target, post, pre_rank):
                    return f"opponent move {m.t.label()} escapes the proof"
        return None



def _pending(pending: list, env: dict) -> list | None:
    """The entries (conjunct, blocked, watch) still waiting on unassigned
    keys, or None when one is false or undefined under env. `blocked` is
    the key the conjunct's last `holds` raised KeyError on (None: never
    evaluated); `watch` holds the keys its last failed force did (None:
    try again; empty: it cannot force on this path). Compiled code reads
    an enumerated key only through E[key] (E.get reads only map entries
    outside the key domain, which no path assigns), and along a path the
    env only grows, so only an entry whose key is now assigned can change."""
    still = []
    for entry in pending:
        key = entry[1]
        if key is None or key in env:
            c = entry[0]
            try:
                if not c.holds(env):
                    return None
                continue
            except KeyError as e:
                entry = (c, e.args[0], entry[2])
            except Undef:
                return None
        still.append(entry)
    return still


def _forced(force: tuple, env: dict):
    """((key, value) | None, watch) for a pending conjunct's force under
    env: a hit when its guards hold and one side of its equality names an
    unassigned variable or map entry while the other side is defined;
    after a miss, the keys whose assignment can turn it into a hit."""
    guards, targets = force
    try:
        for g in guards:
            if not g(env):
                return None, ()
    except KeyError as e:
        return None, (e.args[0],)
    except Undef:
        return None, ()
    blocked = ()
    for target, value in targets:
        try:
            key = target(env)
            if key is not None:
                return (key, value(env)), None
        except KeyError as e:
            blocked += (e.args[0],)
        except Undef:
            pass
    return None, blocked


def _actors_in(x, actors) -> set:
    """The actors of `actors` in a value or a map-entry key (nested tuples
    included), or among an expression's literals."""
    if isinstance(x, Expr):
        parts = (x.value,) if isinstance(x, Lit) else children(x)
    elif isinstance(x, tuple):
        parts = x
    else:
        return {x} if x in actors else set()
    return set().union(*(_actors_in(p, actors) for p in parts))


def _narrow(free: tuple, gone) -> tuple:
    """free without the actors in gone; () once at most one is left, since
    a single free actor has no twin to stand for."""
    if not gone:
        return free
    left = tuple(a for a in free if a not in gone)
    return left if len(left) > 1 else ()


def _search(name: str, order: list, boundary: int, domains: dict,
            conjuncts, check, free: tuple = ()):
    """The engine's DFS over `order`: (Counterexample | None, leaves).
    Before `boundary` it enumerates every valuation, forcing the first
    pending conjunct (in hypothesis order) whose force hits; from there on
    only hypothesis-only variables remain, and an existential search,
    which does not force, looks for one witness per prefix. Each complete
    valuation (one per prefix past the boundary) is a leaf for `check`.

    `free` holds the actors the VC does not name (`_free_actors`), in
    domain order. One stays free at a node while neither the env (a key
    or a value) nor the key being enumerated holds it. The node tries
    every value but the free actors, and of those only the first: for a
    later one b, swapping it with that first one a fixes the env, the key,
    every domain, the hypothesis and the leaf, so b's subtree holds a
    counterexample (or, past the boundary, a witness) iff a's does. As a
    comes first in domain order, the search returns the same first
    counterexample and witness as without the cut; only `leaves` drops."""
    n = len(order)
    leaves = 0
    # the free actors that assigning a key, or a value, makes used
    key_used, value_used = {}, {}
    if free:
        key_used = {k: _actors_in(k[1], free) for k in domains if isinstance(k, tuple)}
        value_used = {v: hit for dom in domains.values() for v in dom
                      if (hit := _actors_in(v, free))}

    def dfs(env, pending, pos, exists, free):
        nonlocal leaves
        still = _pending(pending, env)
        if still is None:
            return None
        for i, (c, blocked, watch) in enumerate(() if exists else still):
            if watch is not None:
                for k in watch:
                    if k in env:
                        break
                else:
                    continue
            hit, watch = _forced(c.force, env)
            if hit is None:
                still[i] = (c, blocked, watch)
                continue
            key, value = hit
            if value not in domains[key]:
                return None
            env[key] = value
            r = dfs(env, still, pos, False, free and _narrow(
                _narrow(free, key_used.get(key)), value_used.get(value)))
            del env[key]
            return r
        while pos < n and order[pos] in env:
            pos += 1
        if pos == n:
            if exists and still:
                return None  # pending conjuncts but nothing left to assign
            leaves += 1
            msg = check(env)
            if msg is not None:
                return Counterexample(name, _json_valuation(env), msg)
            return True if exists else None  # True: the witness is found
        key = order[pos]
        inner = exists or pos >= boundary
        free = free and _narrow(free, key_used.get(key))
        tried = False  # a free actor, the stand-in for all of them
        for value in domains[key]:
            if value in free:
                if tried:
                    continue
                tried = True
            env[key] = value
            r = dfs(env, still, pos + 1, inner,
                    free and _narrow(free, value_used.get(value)))
            if r is not None:
                del env[key]
                return None if r is True and not exists else r
        del env[key]
        return None

    r = dfs({}, [(c, None, None if c.force else ()) for c in conjuncts], 0, False,
            free)
    del dfs  # free the self-referencing closure without the collector
    return r, leaves


def _free_actors(vc: VC, prob: _Problem, domains: dict) -> tuple:
    """The actors the VC does not name, in domain order, when two or more
    are left (else ()). The VC names an actor that is a literal of one of
    its expressions before quantifier expansion, or the value of a domain
    pinned to one value (an independent-tail witness). Every other domain
    is closed under permuting the actors, and compiled code reads no
    default actor (`creator` and `owner`, which the boxed side defaults to
    P0, are read only when they are keys), so swapping two free actors
    maps the domains and the compiled hypothesis onto themselves.

    It maps each leaf check (`_Leaf`) onto itself too. Inductiveness,
    Sufficiency, RankDefined and RankDecrease read the env alone.
    Initiality runs the initializers from a start state that is fixed but
    for `owner`, a copy of the key `creator` (no actor is a default here),
    and whose map entries cover every key; the initializers read only the
    parameters, `owner` and `creator` (typecheck's `init_scope`), and
    contract code has no actor literal. The move obligations also
    enumerate moves: the sender
    over all actors, every other address binder over `none` and the
    actors, and for OpponentTotal the other actors, all actors but the
    value of the key `__player`. A swap of two actors that the env does
    not hold maps each of these sets, and so each step's binder combos,
    onto itself. Each check asks whether some or every combo of a step
    passes, step by step, and a failure's message names at most the step,
    which the swap fixes; so its answer is the same."""
    actors = prob.bounds.actor_values()
    named = set()
    for e in vc.reads:
        named |= _actors_in(e, actors)
    for dom in domains.values():
        if len(dom) == 1:
            named |= _actors_in(dom[0], actors)
    return _narrow(actors, named)


def _independent_tail(prob: _Problem, conjuncts: list) -> dict[int, set]:
    """Index -> reads of the conjuncts that read only deferred scalars,
    force nothing and share no variable with the other conjuncts: their
    witness is the same for every prefix."""
    deferred = set(prob.order[prob.boundary:])
    reads = [free_vars(e) for e in prob.hypothesis]
    tail = {i: reads[i] for i, c in enumerate(conjuncts)
            if c.force is None and reads[i] <= deferred}
    while True:
        shared = set().union(*(r for i, r in enumerate(reads) if i not in tail))
        keep = {i: r for i, r in tail.items() if not r & shared}
        if keep == tail:
            return tail
        tail = keep



def _preserved(vc: VC) -> bool:
    """An inductiveness obligation whose conclusion conjuncts are all
    hypothesis conjuncts over variables the relation never writes (nor
    ticks) holds outright."""
    if vc.kind != "Inductiveness":
        return False
    writes = writes_of(vc.action) | set(vc.tc.timers)
    return not (reads_of(vc.conclusion) & writes) and \
        set(vc.conclusion) <= set(vc.hypothesis)


def discharge_bounded(vc: VC, bounds: DomainBounds) -> DischargeResult:
    """Exhaustively enumerate the finitized context; Valid iff no valuation
    satisfies hypothesis && relation && !conclusion. The independent tail
    is solved once, first, and its witness pins its variables. The VCs of
    one store compile each generated source once."""
    if _preserved(vc):
        return Valid(vc.name, 0)
    try:
        prob = _problem(vc, bounds)
        conjuncts, check = _compile(prob)
        domains = dict(prob.domains)
        tail = _independent_tail(prob, conjuncts)
        if tail:
            keys = set().union(*tail.values())
            witness: dict = {}
            if _search(vc.name, [k for k in prob.order if k in keys], 0, domains,
                       [conjuncts[i] for i in tail], witness.update)[1] == 0:
                return Valid(vc.name, 0)
            domains.update((k, (v,)) for k, v in witness.items())
            conjuncts = [c for i, c in enumerate(conjuncts) if i not in tail]
        r, leaves = _search(vc.name, prob.order, prob.boundary, domains,
                            conjuncts, check, _free_actors(vc, prob, domains))
    except (Unfinitizable, CannotCompile) as e:
        return Unknown(vc.name, str(e))
    return r if r is not None else Valid(vc.name, leaves)
