"""Verification-condition generation for the three proof rules.

Proofs work over SOURCE transitions: each transition's action is one atomic
relation (the checker builds one obligation per contract transition, so
compiler-introduced intermediate states never appear in proofs). In a
contract with timers the proof model adds, per state, a `time` self-loop
(`time_step`): a tau with no action, enabled whenever some timer is active.
Every step composes with an implicit >=1-unit timer tick: timers measure
block progress, which advances whenever any transaction runs and on its own
between transactions. Each step of the model is a TypedTransition
(`steps_from`), and the obligations carry them sliced: a VC's `transition`
is its step with the action sliced to what the conclusion reads, and a
state obligation's `moves` are the state's steps, sliced once.

Rule-to-VC map:
  safety         Initiality, Inductiveness (per step),
                 Sufficiency (only with a `reject =` clause)
  reachability   Initiality, RankDefined, Enabledness (per state),
                 RankDecrease (per step)
  adversarial    Initiality, Inductiveness (invariance), RankDefined,
                 and per state the PlayerMove / OpponentTotal alternatives
                 (a state's progress obligation holds if either does, or if
                 the goal covers it).
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

from .ast_nodes import (
    Assign, Binop, Builtin, Expr, If, Lit, OpStmt, Quant, Send, Stmt, Unop, Var, chain,
    stmt_exprs, walk_stmts,
)
from .diagnostics import SketchError
from .sketch import ProofSketch
from .typecheck import TypedContract, TypedProgram, TypedTransition, reads_of, writes_of


# the obligations on a state's moves
_MOVE_KINDS = ("Enabledness", "PlayerMove", "OpponentTotal")


@dataclass(eq=False)
class Store:
    """The set-up that the VCs of one `generate_vcs` call share, filled on
    first use by the discharge module: `code`, one code object per
    generated source (`compile.Compiler`), and `sketches`, the sketch with
    its quantifiers expanded, per bounds. It lives as long as the VCs that
    hold it: one proof check, or one generation of a benchmark pass."""
    code: dict = field(default_factory=dict)
    sketches: dict = field(default_factory=dict)


@dataclass
class VC:
    """One proof obligation: hypothesis over the pre-state, a step of the
    proof model (a source transition or a state's time self-loop, its
    action sliced to what the obligation reads; none for an obligation on
    a state alone), and a kind-specific conclusion. `store` is the set-up
    it shares with the other VCs of its generation; a VC built alone has
    one of its own, and `dataclasses.replace` keeps it. `problems` holds
    its own finite problem per bounds, which the engine, the oracle and
    replay all read; a `replace` copy starts without. It is kept here, not
    in the store: a problem reaches the store through its VC, so a store
    holding problems would be a reference cycle, which only the cycle
    collector frees."""

    name: str
    kind: str  # Initiality | Inductiveness | Sufficiency | RankDefined |
    #            Enabledness | RankDecrease | PlayerMove | OpponentTotal
    tc: TypedContract
    sketch: ProofSketch
    state: str | None  # pre-state skeleton (None: initial-state obligation)
    transition: TypedTransition | None = None  # the sliced step
    hypothesis: tuple[Expr, ...] = ()  # conjuncts over the pre-state
    conclusion: tuple[Expr, ...] = ()  # post-state conjuncts (kind-dependent)
    store: Store = field(default_factory=Store, compare=False, repr=False)
    problems: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    @property
    def action(self) -> tuple[Stmt, ...]:
        """The sliced action the step executes."""
        return () if self.transition is None else self.transition.action

    @property
    def target(self) -> str:
        """The state after the VC's step."""
        return self.transition.target

    @cached_property
    def moves(self) -> tuple[TypedTransition, ...]:
        """A state obligation's moves: the steps from its state, each
        sliced to what its definedness needs (Enabledness) or to what the
        proof reads at its target (PlayerMove, OpponentTotal)."""
        if self.kind not in _MOVE_KINDS:
            return ()
        steps = steps_from(self.tc, self.state)
        if self.kind == "Enabledness":
            return tuple(sliced(t, set(), self.tc) for t in steps)
        return tuple(progress_slice(t, self.sketch, self.tc) for t in steps)

    @cached_property
    def reads(self) -> tuple[Expr, ...]:
        """Every expression the obligation reads: hypothesis, conclusion,
        the constructor constraint, its step's action (or, for a state's
        obligation, each move's guards and action, and the witness) and
        what the proof reads at the states it visits, and `__remaining`,
        the token supply left to issue, when one of the steps issues or
        burns. The one rule for what finitization enumerates, which actors
        a VC names and which maps the SMT-LIB export tracks membership
        of."""
        pool = list(self.hypothesis) + list(self.conclusion)
        if self.tc.where is not None:
            pool.append(self.tc.where)
        states: set[str] = {self.state} if self.state else set()
        steps = list(self.moves)
        if self.transition is not None:
            steps.append(self.transition)
        for t in steps:
            states.add(t.target)
            pool.extend(t.guards)
            pool.extend(stmt_exprs(t.action))
            if "owner" in writes_of(t.action):
                pool.append(Var("owner"))  # change_owner compares it with the sender
            if any(isinstance(s, OpStmt) and s.ns == "Token" and s.op in ("issue", "burn")
                   for s in walk_stmts(t.action)):
                pool.append(Var("__remaining"))
        w = self.sketch.witness.get(self.state)
        if w is not None and self.kind in _MOVE_KINDS:
            pool.append(w)
        if self.kind in ("RankDefined", "RankDecrease", "PlayerMove", "OpponentTotal"):
            for st in states:
                pool.extend(self.sketch.reads_at(st))
        return tuple(pool)


def _neg(e: Expr) -> Expr:
    return Unop("!", e)


def _not_goal(goal_conjs) -> tuple[Expr, ...]:
    """Conjuncts expressing that the goal does NOT hold at a state; the
    goal defaults to false, where the negation is vacuous."""
    if goal_conjs is None:
        return ()
    return (_neg(chain("&&", goal_conjs)),)


def time_guard(tc: TypedContract) -> Expr:
    """Some timer is active (the time transition's enabling condition)."""
    return chain("||", [Builtin("Timer", "is_active", (Var(n),)) for n in tc.timers])


def time_step(tc: TypedContract, state: str) -> TypedTransition:
    """The time self-loop at a state of a contract with timers: a tau
    with no action, enabled while some timer is active. Like every step
    of the model it composes with a tick."""
    return TypedTransition(state, state, when=time_guard(tc), is_time=True)


def steps_from(tc: TypedContract, state: str) -> list[TypedTransition]:
    """The steps of the proof model from a state: its transitions in
    order, then its time self-loop when the contract has timers."""
    steps = tc.transitions_from(state)
    return steps + [time_step(tc, state)] if tc.has_timers() else steps


# ---------------------------------------------------------------------------
# Action slicing (drop total statements that cannot influence the
# conclusion; keeps relation execution and enumeration contexts small)
# ---------------------------------------------------------------------------


def _expr_total(e: Expr, tc: TypedContract) -> bool:
    if isinstance(e, (Lit, Var)):
        return True
    if isinstance(e, Unop):
        return _expr_total(e.operand, tc)
    if isinstance(e, Binop):
        if e.op in ("/", "%", "-nat"):
            return False
        return _expr_total(e.left, tc) and _expr_total(e.right, tc)
    if isinstance(e, Quant):
        return _expr_total(e.body, tc)
    if isinstance(e, Builtin):
        key = (e.ns, e.op)
        if key in (("Timer", "value"), ("Seq", "get"), ("Seq", "ref"),
                   ("Map", "ref"), ("Tuple", "ref")):
            return False
        if key == ("Map", "get"):
            base = e.args[0]
            if not (isinstance(base, Var) and base.name in tc.vars
                    and tc.vars[base.name].default is not None):
                return False
        return all(_expr_total(a, tc) for a in e.args)
    return False


def _stmt_total(s: Stmt, tc: TypedContract) -> bool:
    if isinstance(s, Assign):
        return _expr_total(s.value, tc)
    if isinstance(s, OpStmt) and (s.ns, s.op) == ("Map", "set"):
        return all(_expr_total(a, tc) for a in s.args)
    return False


def sliced(t: TypedTransition, needed: set[str], tc: TypedContract) -> TypedTransition:
    """t with its action backward-sliced to what `needed` reads: total
    statements whose writes cannot reach it are dropped. Dropping a
    partial statement would weaken the relation's definedness
    constraint, so those are always kept."""
    kept: list[Stmt] = []
    need = set(needed)
    for s in reversed(t.action):
        if isinstance(s, (If, Send)):
            kept.append(s)
            need |= reads_of(stmt_exprs((s,)))
            continue
        if writes_of((s,)) & need or not _stmt_total(s, tc):
            if isinstance(s, Assign):
                need.discard(s.target)
            kept.append(s)
            need |= reads_of(stmt_exprs((s,)))
        # else: dead and total: dropped
    kept.reverse()
    return replace(t, action=tuple(kept))


def progress_slice(t: TypedTransition, sketch: ProofSketch, tc: TypedContract):
    """t sliced to what the proof reads at its target: theta, the goal and
    the rank."""
    return sliced(t, reads_of(sketch.reads_at(t.target)), tc)


# ---------------------------------------------------------------------------
# Invariance: Initiality and Inductiveness (safety and adversarial)
# ---------------------------------------------------------------------------


def _initiality_vc(tc: TypedContract, sketch: ProofSketch) -> VC:
    return VC(
        name=f"initiality[{tc.name}.{tc.initial}]",
        kind="Initiality", tc=tc, sketch=sketch, state=None,
        conclusion=sketch.theta(tc.initial),
    )


def _invariance_vcs(tc: TypedContract, sketch: ProofSketch) -> list[VC]:
    """theta holds initially and is preserved by every step of the model:
    an invariant of the whole contract. The transitions come first, then
    the time self-loops."""
    vcs = [_initiality_vc(tc, sketch)]
    steps = list(tc.transitions)
    if tc.has_timers():
        steps += [time_step(tc, state) for state in tc.source_states]
    for t in steps:
        theta_post = sketch.theta(t.target)
        vcs.append(VC(
            name=f"inductive[{tc.name}.{t.label()}]",
            kind="Inductiveness", tc=tc, sketch=sketch, state=t.source,
            transition=sliced(t, reads_of(theta_post), tc),
            hypothesis=sketch.theta(t.source) + t.guards,
            conclusion=theta_post,
        ))
    return vcs


# ---------------------------------------------------------------------------
# Safety
# ---------------------------------------------------------------------------


def gen_safety_vcs(tc: TypedContract, sketch: ProofSketch) -> list[VC]:
    vcs = _invariance_vcs(tc, sketch)
    if sketch.reject is not None:
        for state in tc.source_states:
            vcs.append(VC(
                name=f"sufficiency[{tc.name}.{state}]",
                kind="Sufficiency", tc=tc, sketch=sketch, state=state,
                hypothesis=sketch.theta(state),
                conclusion=(_neg(sketch.reject),),
            ))
    return vcs


# ---------------------------------------------------------------------------
# Reachability
# ---------------------------------------------------------------------------


def gen_reachability_vcs(tc: TypedContract, sketch: ProofSketch) -> list[VC]:
    vcs = [_initiality_vc(tc, sketch)]
    for state in tc.source_states:
        pending = sketch.theta(state) + _not_goal(sketch.goal_at(state))
        vcs.append(VC(
            name=f"rank_defined[{tc.name}.{state}]",
            kind="RankDefined", tc=tc, sketch=sketch, state=state,
            hypothesis=pending,
        ))
        has_tau = any(t.input is None for t in tc.transitions_from(state))
        if state not in sketch.witness and not has_tau and not tc.has_timers() \
                and any(t.input is not None for t in tc.transitions_from(state)) \
                and sketch.goal_at(state) is None:
            raise SketchError(
                f"no witness at @{state}: the enabledness existential over "
                f"input transitions cannot be discharged")
        vcs.append(VC(
            name=f"enabled[{tc.name}.{state}]",
            kind="Enabledness", tc=tc, sketch=sketch, state=state,
            hypothesis=pending,
        ))
        for t in steps_from(tc, state):
            vcs.append(VC(
                name=f"rank_decrease[{tc.name}.{t.label()}]",
                kind="RankDecrease", tc=tc, sketch=sketch, state=state,
                transition=progress_slice(t, sketch, tc),
                hypothesis=pending + t.guards,
            ))
    return vcs


# ---------------------------------------------------------------------------
# Adversarial liveness
# ---------------------------------------------------------------------------


def gen_adversarial_vcs(tc: TypedContract, sketch: ProofSketch) -> list[VC]:
    vcs = _invariance_vcs(tc, sketch)
    for state in tc.source_states:
        vcs.append(VC(
            name=f"rank_defined[{tc.name}.{state}]",
            kind="RankDefined", tc=tc, sketch=sketch, state=state,
            hypothesis=sketch.theta(state),
        ))
        # progress: Q holds, or the Player moves, or all Opponent moves
        # converge; Q is folded into both alternatives' hypotheses.
        pending = sketch.theta(state) + _not_goal(sketch.goal_at(state))
        vcs.append(VC(
            name=f"player_move[{tc.name}.{state}]",
            kind="PlayerMove", tc=tc, sketch=sketch, state=state,
            hypothesis=pending,
        ))
        vcs.append(VC(
            name=f"opponent_total[{tc.name}.{state}]",
            kind="OpponentTotal", tc=tc, sketch=sketch, state=state,
            hypothesis=pending,
        ))
    return vcs


_GENERATORS = {"safety": gen_safety_vcs, "reachability": gen_reachability_vcs,
               "adversarial": gen_adversarial_vcs}


def generate_vcs(program: TypedProgram, sketch: ProofSketch) -> list[VC]:
    """The VCs of the sketch's rule, all holding one new `Store`."""
    vcs = _GENERATORS[sketch.kind](program.contract(sketch.contract), sketch)
    store = Store()
    for vc in vcs:
        vc.store = store
    return vcs
