"""Verification-condition generation for the three proof rules.

Proofs work over SOURCE transitions: each transition's action is one atomic
relation (the checker builds one obligation per contract transition, so
compiler-introduced intermediate states never appear in proofs). The proof
model additionally composes every transition with an implicit >=1-unit
timer tick, and adds a self-loop `time` transition enabled whenever some
timer is active: timers measure block progress, which advances whenever any
transaction runs and on its own between transactions.

Rule-to-VC map:
  safety         Initiality, Inductiveness (per transition + time),
                 Sufficiency (only with a `reject =` clause)
  reachability   Initiality, RankDefined, Enabledness (per state),
                 RankDecrease (per transition + time)
  adversarial    Initiality, Inductiveness (invariance), RankDefined,
                 and per state the PlayerMove / OpponentTotal alternatives
                 (a state's progress obligation holds if either does, or if
                 the goal covers it).
"""
from __future__ import annotations

from dataclasses import dataclass

from .ast_nodes import Binop, Builtin, Expr, If, Lit, OpStmt, Quant, Send, Stmt, Unop, Var, stmt_exprs
from .diagnostics import SketchError
from .sketch import ProofSketch
from .typecheck import TypedContract, TypedProgram, TypedTransition, free_vars

TIME = "time"  # relation tag for the implicit time transition


@dataclass
class VC:
    """One proof obligation: hypothesis over the pre-state, a relation
    (one source transition, the time transition, or none), and a
    kind-specific conclusion."""

    name: str
    kind: str  # Initiality | Inductiveness | Sufficiency | RankDefined |
    #            Enabledness | RankDecrease | PlayerMove | OpponentTotal
    tc: TypedContract
    sketch: ProofSketch
    state: str | None  # pre-state skeleton (None: initial-state obligation)
    transition: TypedTransition | None = None
    is_time: bool = False
    hypothesis: tuple[Expr, ...] = ()  # conjuncts over the pre-state
    conclusion: tuple[Expr, ...] = ()  # post-state conjuncts (kind-dependent)
    action: tuple[Stmt, ...] = ()  # sliced action actually executed

    def label(self) -> str:
        return self.name

    @property
    def target(self) -> str:
        """The state after the VC's step: the transition's target, or the
        VC's own state for the time transition."""
        return self.state if self.is_time else self.transition.target


def _neg(e: Expr) -> Expr:
    return Unop("!", e)


def _conj(exprs) -> Expr:
    exprs = list(exprs)
    if not exprs:
        return Lit(True)
    out = exprs[0]
    for e in exprs[1:]:
        out = Binop("&&", out, e)
    return out


def _not_goal(goal_conjs) -> tuple[Expr, ...]:
    """Conjuncts expressing that the goal does NOT hold at a state; the
    goal defaults to false, where the negation is vacuous."""
    if goal_conjs is None:
        return ()
    return (_neg(_conj(goal_conjs)),)


def time_guard(tc: TypedContract) -> Expr:
    """Some timer is active (the time transition's enabling condition)."""
    timers = [v.name for v in tc.vars.values() if v.typ.kind == "timer"]
    if not timers:
        return Lit(False)
    parts = [Builtin("Timer", "is_active", (Var(n),)) for n in timers]
    out = parts[0]
    for p in parts[1:]:
        out = Binop("||", out, p)
    return out


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


def _stmt_reads(s: Stmt) -> set[str]:
    out: set[str] = set()
    for e in stmt_exprs((s,)):
        out |= free_vars(e)
    return out


def _stmt_total(s: Stmt, tc: TypedContract) -> bool:
    from .ast_nodes import Assign
    if isinstance(s, Assign):
        return _expr_total(s.value, tc)
    if isinstance(s, OpStmt) and (s.ns, s.op) == ("Map", "set"):
        return all(_expr_total(a, tc) for a in s.args)
    return False


def slice_action(t: TypedTransition, needed: set[str], tc: TypedContract):
    """Backward slice: drop total statements whose writes cannot reach the
    conclusion. Dropping a partial statement would weaken the relation's
    definedness constraint, so those are always kept."""
    from .ast_nodes import Assign
    from .typecheck import stmt_written_roots

    kept: list[Stmt] = []
    need = set(needed)
    for s in reversed(t.action):
        if isinstance(s, (If, Send)):
            kept.append(s)
            need |= _stmt_reads(s)
            continue
        writes = stmt_written_roots(s)
        if writes & need or not _stmt_total(s, tc):
            if isinstance(s, Assign):
                need.discard(s.target)
            kept.append(s)
            need |= _stmt_reads(s)
        # else: dead and total: dropped
    kept.reverse()
    return tuple(kept), need


def reads_of(exprs) -> set[str]:
    """The free variables of the expressions."""
    out: set[str] = set()
    for e in exprs:
        out |= free_vars(e)
    return out


def progress_slice(t: TypedTransition, sketch: ProofSketch, tc: TypedContract):
    """t's action sliced to what the proof reads at its target: theta, the
    goal and the rank."""
    return slice_action(t, reads_of(sketch.reads_at(t.target)), tc)[0]


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
    """theta holds initially and is preserved by every transition and by
    the time transition: an invariant of the whole contract."""
    vcs = [_initiality_vc(tc, sketch)]
    for t in tc.transitions:
        theta_post = sketch.theta(t.target)
        action, _ = slice_action(t, reads_of(theta_post), tc)
        vcs.append(VC(
            name=f"inductive[{tc.name}.{t.label()}]",
            kind="Inductiveness", tc=tc, sketch=sketch, state=t.source,
            transition=t,
            hypothesis=sketch.theta(t.source) + t.guards,
            conclusion=theta_post,
            action=action,
        ))
    if tc.has_timers():
        for state in tc.source_states:
            vcs.append(VC(
                name=f"inductive[{tc.name}.time@{state}]",
                kind="Inductiveness", tc=tc, sketch=sketch, state=state,
                is_time=True,
                hypothesis=sketch.theta(state) + (time_guard(tc),),
                conclusion=sketch.theta(state),
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
        for t in tc.transitions_from(state):
            vcs.append(VC(
                name=f"rank_decrease[{tc.name}.{t.label()}]",
                kind="RankDecrease", tc=tc, sketch=sketch, state=state,
                transition=t,
                hypothesis=pending + t.guards,
                action=progress_slice(t, sketch, tc),
            ))
        if tc.has_timers():
            vcs.append(VC(
                name=f"rank_decrease[{tc.name}.time@{state}]",
                kind="RankDecrease", tc=tc, sketch=sketch, state=state,
                is_time=True,
                hypothesis=pending + (time_guard(tc),),
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
    return _GENERATORS[sketch.kind](program.contract(sketch.contract), sketch)
