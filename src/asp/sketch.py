"""Proof sketches: declarative outlines for safety, reachability, and
adversarial-liveness proofs, keyed by skeleton state.

Surface forms:

    safety <name> [contract <C>] {
      always <assertion>
      @State <assertion>
      reject = <assertion>          // optional; enables Sufficiency checks
    }

    reachability <name>(<rank-len>) [contract <C>] {
      goal = { @State <assertion> ... }        // default false
      invariant = { @State <assertion> ... }   // default true
      rank = { @State | (<e>, ...) [if <cond>] ... }  // first match wins
      witness = { @State <predicate over input binders> ... }
    }

    adversarial <name>(<rank-len>) [contract <C>] {
      player = <x>
      goal / invariant / rank / witness as above
    }
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .ast_nodes import ADDRESS, Expr
from .diagnostics import Pos, SketchError
from .lexer import tokenize
from .parser import TokenStream, parse_expr
from .typecheck import ExprChecker, TypedContract, TypedProgram

TRUE_DEFAULT = "true"
FALSE_DEFAULT = "false"


@dataclass(frozen=True)
class RankCase:
    exprs: tuple[Expr, ...]
    cond: Expr | None  # None: unconditional
    pos: Pos = field(default=Pos(), compare=False)


@dataclass
class ProofSketch:
    """A proof sketch of any of the three rules, in one shape. Safety
    sketches leave the ranked fields empty (no goal, rank, witness or
    player); reachability sketches have no player."""
    name: str
    contract: str
    kind: str  # safety | reachability | adversarial
    at: dict[str, tuple[Expr, ...]]  # per-state assertions (the invariant)
    always: tuple[Expr, ...] = ()
    reject: Expr | None = None  # safety: enables Sufficiency checks
    rank_len: int = 0
    player: str | None = None
    goal: dict[str, tuple[Expr, ...]] = field(default_factory=dict)
    rank: dict[str, tuple[RankCase, ...]] = field(default_factory=dict)
    witness: dict[str, Expr] = field(default_factory=dict)

    def theta(self, state: str) -> tuple[Expr, ...]:
        """Per-state assertion family: always clauses plus @state clauses."""
        return self.always + self.at.get(state, ())

    def goal_at(self, state: str) -> tuple[Expr, ...] | None:
        """Conjuncts of the goal at a state; None means goal is false there."""
        return self.goal.get(state)

    def reads_at(self, state: str, theta: bool = True) -> list[Expr]:
        """The expressions a proof reads at a state: theta (unless left
        out), the goal, and every rank case's components and condition."""
        out = list(self.theta(state)) if theta else []
        out.extend(self.goal.get(state, ()))
        for case in self.rank.get(state, ()):
            out.extend(case.exprs)
            if case.cond is not None:
                out.append(case.cond)
        return out


def _witness_scope(tc: TypedContract, state: str) -> dict:
    """Scope for a witness predicate: state scope plus the binders of every
    input transition from the state (the canonical sender name for
    equality-matched senders)."""
    scope = tc.state_scope()
    for t in tc.transitions_from(state):
        for name, typ in t.binders.items():
            scope.setdefault(name, typ)
    return scope


def _state_assertion(ts: TokenStream, tc: TypedContract, scope, what: str):
    """One `@State <bool expr>` entry: (state, checked expr), the
    expression checked in `scope(state)`."""
    ts.expect("@")
    state = ts.ident()
    if state not in tc.source_states:
        raise SketchError(f"{what}: unknown state label {state!r}", ts.peek().pos)
    t, e = ExprChecker(scope(state), allow_quant=True).check(parse_expr(ts))
    if t.kind != "bool":
        raise SketchError(f"{what}: assertion at @{state} is not bool", ts.peek().pos)
    return state, e


def _parse_state_entries(ts: TokenStream, tc: TypedContract, scope_extra: dict,
                         what: str):
    """Parse `@State expr` entries until '}'. Returns {state: (exprs...)}."""
    scope = {**tc.state_scope(), **scope_extra}
    out: dict[str, list[Expr]] = {}
    ts.expect("{")
    while not ts.at("}"):
        state, e = _state_assertion(ts, tc, lambda _: scope, what)
        out.setdefault(state, []).append(e)
    ts.expect("}")
    return {k: tuple(v) for k, v in out.items()}


def _parse_witness_entries(ts: TokenStream, tc: TypedContract, scope_extra: dict):
    out: dict[str, Expr] = {}
    ts.expect("{")
    while not ts.at("}"):
        state, e = _state_assertion(
            ts, tc, lambda st: {**_witness_scope(tc, st), **scope_extra}, "witness")
        if state in out:
            raise SketchError(f"duplicate witness for @{state}", ts.peek().pos)
        out[state] = e
    ts.expect("}")
    return out


def _parse_rank_entries(ts: TokenStream, tc: TypedContract, rank_len: int,
                        scope_extra: dict):
    """rank = { @State | (e, ...) [if cond] ... }; declaration order is
    significant: the first matching case defines the rank."""
    out: dict[str, list[RankCase]] = {}
    ts.expect("{")
    state = None
    while not ts.at("}"):
        if ts.at("@"):
            ts.next()
            state = ts.ident()
            if state not in tc.source_states:
                raise SketchError(f"rank: unknown state label {state!r}", ts.peek().pos)
            out.setdefault(state, [])
            continue
        pos = ts.expect("|").pos
        if state is None:
            raise SketchError("rank case before any @State label", pos)
        ts.expect("(")
        exprs = [parse_expr(ts)]
        while ts.accept(","):
            exprs.append(parse_expr(ts))
        ts.expect(")")
        if len(exprs) != rank_len:
            raise SketchError(
                f"rank case at @{state} has {len(exprs)} component(s), "
                f"declared length is {rank_len}", pos)
        cond = None
        if ts.at_kw("if"):
            ts.next()
            cond = parse_expr(ts)
        scope = dict(tc.state_scope())
        scope.update(scope_extra)
        checker = ExprChecker(scope, allow_quant=True)
        checked = []
        for e in exprs:
            t, e2 = checker.check(e)
            if t.kind not in ("int", "nat"):
                raise SketchError(f"rank component at @{state} is not numeric", pos)
            checked.append(e2)
        if cond is not None:
            ct, cond = checker.check(cond)
            if ct.kind != "bool":
                raise SketchError(f"rank case condition at @{state} is not bool", pos)
        out[state].append(RankCase(tuple(checked), cond, pos))
    ts.expect("}")
    return {k: tuple(v) for k, v in out.items()}


def _pick_contract(ts: TokenStream, program: TypedProgram) -> TypedContract:
    if ts.at_kw("contract"):
        ts.next()
        name = ts.ident()
        if name not in program.contracts:
            raise SketchError(f"unknown contract {name!r}", ts.peek().pos)
        return program.contract(name)
    if len(program.contracts) != 1:
        raise SketchError(
            "sketch must name its contract (program has several): "
            "use `contract <Name>` after the sketch header")
    return next(iter(program.contracts.values()))


def parse_proof_sketch(text: str, program: TypedProgram) -> ProofSketch:
    """Parse and resolve one proof sketch against the typed program."""
    ts = TokenStream(tokenize(text))
    head = ts.peek()
    if head.kind != "ident" or head.text not in ("safety", "reachability", "adversarial"):
        raise SketchError("expected safety, reachability, or adversarial sketch",
                          head.pos)
    ts.next()
    name = ts.ident()
    rank_len = 0
    if head.text in ("reachability", "adversarial"):
        ts.expect("(")
        rank_len = int(ts.expect("number").text)
        ts.expect(")")
        if rank_len < 1:
            raise SketchError("rank length must be at least 1", head.pos)
    tc = _pick_contract(ts, program)

    if head.text == "safety":
        sketch = _parse_safety(ts, name, tc)
    else:
        sketch = _parse_ranked(ts, head.text, name, rank_len, tc)
    ts.expect("eof")
    return sketch


def _parse_safety(ts: TokenStream, name: str, tc: TypedContract) -> ProofSketch:
    always: list[Expr] = []
    at: dict[str, list[Expr]] = {}
    reject = None
    scope = tc.state_scope()
    checker = ExprChecker(scope, allow_quant=True)
    ts.expect("{")
    while not ts.at("}"):
        if ts.at_kw("always"):
            pos = ts.next().pos
            t, e = checker.check(parse_expr(ts))
            if t.kind != "bool":
                raise SketchError("always assertion is not bool", pos)
            always.append(e)
        elif ts.at("@"):
            state, e = _state_assertion(ts, tc, lambda _: scope, "safety")
            at.setdefault(state, []).append(e)
        elif ts.at_kw("reject"):
            pos = ts.next().pos
            ts.expect("=")
            t, reject = checker.check(parse_expr(ts))
            if t.kind != "bool":
                raise SketchError("reject predicate is not bool", pos)
        else:
            raise SketchError(
                f"expected always, @State, or reject, found {ts.peek().text!r}",
                ts.peek().pos)
    ts.expect("}")
    if not always and not at:
        raise SketchError(f"safety sketch {name!r} has no assertions")
    return ProofSketch(name, tc.name, "safety",
                       {k: tuple(v) for k, v in at.items()}, tuple(always), reject)


def _parse_ranked(ts: TokenStream, kind: str, name: str, rank_len: int,
                  tc: TypedContract):
    player = None
    goal = invariant = rank = witness = None
    scope_extra: dict = {}
    ts.expect("{")
    # player must come first so later sections can reference it
    while not ts.at("}"):
        section = ts.ident()
        ts.expect("=")
        if section == "player":
            player = ts.ident()
            if player in tc.state_scope() or player in ("none", "log"):
                raise SketchError(f"player name {player!r} shadows an existing name")
            scope_extra = {player: ADDRESS}
        elif section == "goal":
            goal = _parse_state_entries(ts, tc, scope_extra, "goal")
        elif section == "invariant":
            invariant = _parse_state_entries(ts, tc, scope_extra, "invariant")
        elif section == "rank":
            rank = _parse_rank_entries(ts, tc, rank_len, scope_extra)
        elif section == "witness":
            witness = _parse_witness_entries(ts, tc, scope_extra)
        else:
            raise SketchError(f"unknown sketch section {section!r}")
    ts.expect("}")
    if goal is None:
        raise SketchError(f"{kind} sketch {name!r} has no goal")
    if rank is None:
        raise SketchError(f"{kind} sketch {name!r} has no rank")
    if kind == "reachability":
        player = None  # a reachability proof has no game
    elif player is None:
        raise SketchError(f"adversarial sketch {name!r} names no player")
    return ProofSketch(name, tc.name, kind, invariant or {}, rank_len=rank_len,
                       player=player, goal=goal, rank=rank,
                       witness=witness or {})

