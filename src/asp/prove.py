"""Proof checking: generate the rule's VCs, discharge each, aggregate.

Also hosts two independent oracles over the finitized single-instance
model (the same model the VCs quantify over: the steps of
`vcgen.steps_from`, the `time` self-loop among them, each composed with a
>=1 timer tick). Their moves come from `_Ctx.moves`, the enumerator of the
game-rule checks, run on full actions rather than slices. Both explore the
model once (`FiniteModel.explore`) and then solve a reachability game by
one least fixpoint (`least_fixpoint`):

  reach_search  - every maximal path reaches the goal (no dead ends, no
                  goal-avoiding cycles): goal states absorb, and a state
                  wins when it has a move and every move wins;
  game_solve    - the lockout game: from every reachable state, every actor
                  must have a winning strategy (stalling is the Opponent's
                  privilege whenever no tau or time move is guaranteed).
"""
from __future__ import annotations

import json
import time as _time
from dataclasses import dataclass, field

from .discharge import (
    Counterexample, DischargeResult, DomainBounds, Unknown, Valid, _Ctx,
    discharge_bounded,
)
from .sketch import ProofSketch
from .typecheck import TypedProgram
from .vcgen import VC, generate_vcs, steps_from


@dataclass
class VCResult:
    vc: VC
    result: DischargeResult
    millis: float

    @property
    def ok(self) -> bool:
        return isinstance(self.result, Valid)


@dataclass
class ProofReport:
    sketch: str
    contract: str
    kind: str
    results: list[VCResult] = field(default_factory=list)
    failed_states: list[str] = field(default_factory=list)  # adversarial

    @property
    def valid(self) -> bool:
        if self.kind != "adversarial":
            return all(r.ok for r in self.results)
        core_ok = all(r.ok for r in self.results
                      if r.vc.kind not in ("PlayerMove", "OpponentTotal"))
        return core_ok and not self.failed_states

    def to_json(self) -> str:
        per_vc = []
        for r in self.results:
            entry = {
                "name": r.vc.name,
                "kind": r.vc.kind,
                "status": r.result.status,
                "millis": round(r.millis, 3),
            }
            if isinstance(r.result, Valid):
                entry["checked"] = r.result.checked
            if isinstance(r.result, Counterexample):
                entry["counterexample"] = r.result.valuation
                entry["message"] = r.result.message
            if isinstance(r.result, Unknown):
                entry["reason"] = r.result.reason
            per_vc.append(entry)
        return json.dumps({
            "sketch": self.sketch,
            "contract": self.contract,
            "rule": self.kind,
            "valid": self.valid,
            "failed_obligations": self.failed_states,
            "vcs": per_vc,
        }, indent=2)


def check_proof(program: TypedProgram, sketch: ProofSketch,
                bounds: DomainBounds) -> ProofReport:
    """Generate the rule-appropriate VC set and discharge every VC with the
    bounded engine. For adversarial proofs, a state's progress obligation
    holds if its goal covers it or either the PlayerMove or OpponentTotal
    group is valid; everything else must be valid outright."""
    vcs = generate_vcs(program, sketch)
    report = ProofReport(sketch.name, sketch.contract, sketch.kind)
    by_state: dict[str, dict[str, VCResult]] = {}
    for vc in vcs:
        t0 = _time.perf_counter()
        res = discharge_bounded(vc, bounds)
        ms = (_time.perf_counter() - t0) * 1000
        r = VCResult(vc, res, ms)
        report.results.append(r)
        if vc.kind in ("PlayerMove", "OpponentTotal"):
            by_state.setdefault(vc.state, {})[vc.kind] = r
    if sketch.kind == "adversarial":
        for state, group in sorted(by_state.items()):
            if not any(r.ok for r in group.values()):
                report.failed_states.append(state)
    return report


# ---------------------------------------------------------------------------
# Finitized single-instance model (shared by both searches)
# ---------------------------------------------------------------------------


class FiniteModel:
    """All transitions of one finitized instance of the sketch's contract.
    States are canonical snapshots; moves carry (kind, sender, successor)."""

    def __init__(self, program: TypedProgram, sketch: ProofSketch,
                 bounds: DomainBounds, params: dict, creator: str = "P0"):
        from .machine import init_instance
        self.tc = program.contract(sketch.contract)
        self.bounds = bounds
        self.cx = _Ctx(self.tc, sketch, bounds)
        self.steps = {s: steps_from(self.tc, s) for s in self.tc.source_states}
        self.initial = init_instance(self.tc, "@" + sketch.contract, params,
                                     creator)

    def key(self, inst) -> str:
        return inst.snapshot()

    def is_goal(self, inst, bindings=None) -> bool:
        """The goal holds at the instance (under `bindings`: the player)."""
        g = self.cx.sketch.goal_at(inst.skeleton)
        return g is not None and self.cx.all_true(g, inst, bindings)

    def _clamp(self, inst):
        """Saturating finitization: numbers stick at +-nat_max, and coin
        and token amounts at nat_max, so the explored state space stays
        finite. It is exact only along paths whose values stay within the
        bound; past it, a successor is a saturated state that the contract
        need not reach. The valid `auction.asp` has 24 of its 198 reachable
        states at 3/3/3 violating the refund invariant when clamped, and
        none unclamped, so a search answer is no claim about a clamped
        state."""
        from .values import Coin, MapVal, Tok
        n = self.bounds.nat_max

        def cl(v):
            if isinstance(v, bool):
                return v
            if isinstance(v, int):
                return max(-n, min(n, v))
            if isinstance(v, Coin):
                return Coin(min(v.value, n))
            if isinstance(v, Tok):
                return Tok(v.kind, min(v.value, n))
            if isinstance(v, MapVal):
                return MapVal({k: cl(x) for k, x in v.d.items()}, v.default)
            return v

        for k in inst.env:
            inst.env[k] = cl(inst.env[k])
        return inst

    def successors(self, inst):
        """(kind, sender, post) for every finitized move: inputs over
        bounded binder domains and taus (the time self-loop among them),
        each composed with every tick. The moves are those of the proof
        obligations (`_Ctx.moves`), run on the full action."""
        cx = self.cx
        out = []
        for t, sender, step_b in cx.moves(inst, self.steps[inst.skeleton]):
            kind = "tau" if t.input is None else "input"
            for delta in cx.deltas():
                post = cx.run_inner(t, inst, step_b, sender, delta)
                if post is not None:
                    out.append((kind, sender, self._clamp(post)))
        return out

    def explore(self, state_limit: int, absorbing=lambda inst: False):
        """The reachable states in discovery order, keyed by snapshot, and
        each state's moves as (kind, sender, successor key). Absorbing
        states are not expanded; their moves are None."""
        k0 = self.key(self.initial)
        states = {k0: self.initial}
        moves: dict[str, list | None] = {}
        frontier = [(k0, self.initial)]
        while frontier:
            k, inst = frontier.pop()
            if absorbing(inst):
                moves[k] = None
                continue
            moves[k] = []
            for kind, sender, post in self.successors(inst):
                pk = self.key(post)
                moves[k].append((kind, sender, pk))
                if pk not in states:
                    if len(states) > state_limit:
                        raise StateLimit(len(states))
                    states[pk] = post
                    frontier.append((pk, post))
        return states, moves


class StateLimit(RuntimeError):
    """The finitized model has more states than the search allows."""

    def __init__(self, states: int):
        super().__init__(f"state limit hit at {states} states")
        self.states = states


def least_fixpoint(states, wins) -> set[str]:
    """The least set W of states such that every state k with wins(k, W)
    is in W: the attractor of a reachability game (Thomas, STACS 1995)."""
    won: set[str] = set()
    changed = True
    while changed:
        changed = False
        for k in states:
            if k not in won and wins(k, won):
                won.add(k)
                changed = True
    return won


@dataclass
class SearchReport:
    ok: bool
    states: int
    reason: str = ""
    witness_state: str | None = None


def reach_search(program: TypedProgram, sketch, bounds: DomainBounds,
                 params: dict, creator: str = "P0",
                 state_limit: int = 200_000) -> SearchReport:
    """Explicit-state confirmation of a reachability claim: every maximal
    path from the initial state reaches the goal. Fails on a reachable dead
    end or a goal-avoiding cycle. Goal states absorb; a state wins when it
    is a goal, or it has a move and every move wins."""
    model = FiniteModel(program, sketch, bounds, params, creator)
    try:
        states, moves = model.explore(state_limit, model.is_goal)
    except StateLimit as e:
        return SearchReport(False, e.states, "state limit hit")
    won = least_fixpoint(states, lambda k, won: moves[k] is None or (
        bool(moves[k]) and all(pk in won for _, _, pk in moves[k])))
    lost = [k for k in states if k not in won]
    if not lost:
        return SearchReport(True, len(states))
    dead = [k for k in lost if not moves[k]]
    if dead:
        return SearchReport(False, len(states), "reachable dead end before the goal",
                            states[dead[0]].skeleton)
    return SearchReport(False, len(states), "goal-avoiding cycle",
                        states[lost[0]].skeleton)


@dataclass
class GameReport:
    ok: bool
    states: int
    losing_state: str | None = None  # skeleton of a reachable losing state
    losing_player: str | None = None


def game_solve(program: TypedProgram, sketch: ProofSketch,
               bounds: DomainBounds, params: dict, creator: str = "P0",
               state_limit: int = 100_000) -> GameReport:
    """Solve the lockout game on the finitized model: for every reachable
    state and every actor x, x must be able to force the goal. Player moves
    are x's own inputs; the Opponent resolves everything else and may stall
    unless a tau/time move is guaranteed. A state wins for x when it is a
    goal, or one of x's moves wins, or a tau/time move exists and every
    Opponent move wins."""
    model = FiniteModel(program, sketch, bounds, params, creator)
    states, moves = model.explore(state_limit)

    for x in bounds.actor_values():
        goal = {k for k, inst in states.items()
                if model.is_goal(inst, {"__player": x})}

        def wins(k, won):
            if k in goal:
                return True
            player = [pk for kind, s, pk in moves[k] if kind == "input" and s == x]
            opponent = [pk for kind, s, pk in moves[k] if kind != "input" or s != x]
            forced = any(kind != "input" for kind, _, _ in moves[k])
            return any(pk in won for pk in player) or \
                (forced and all(pk in won for pk in opponent))

        won = least_fixpoint(states, wins)
        for k, inst in states.items():
            if k not in won:
                return GameReport(False, len(states), inst.skeleton, x)
    return GameReport(True, len(states))
