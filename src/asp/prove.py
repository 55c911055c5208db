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
    discharge_bounded, expand_quants, tick_deltas,
)
from .machine import advance_instance, all_true, init_instance
from .sketch import ProofSketch
from .typecheck import TypedProgram
from .values import Coin, MapVal, Timer, Tok
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
    group is valid; everything else must be valid outright. The VCs share
    the set-up store of their generation (`vcgen.Store`), so a generated
    source is compiled once per call."""
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
    A state is keyed by a hashable tuple (`key`) and numbered by discovery
    (`explore`); a move carries (kind, sender, successor number)."""

    def __init__(self, program: TypedProgram, sketch: ProofSketch,
                 bounds: DomainBounds, params: dict, creator: str = "P0"):
        self.tc = program.contract(sketch.contract)
        self.bounds = bounds
        self.sketch = sketch.map_exprs(lambda e: expand_quants(e, bounds))
        self.deltas = tick_deltas(self.tc, bounds)
        self.cx = _Ctx(self.tc, bounds, "@" + self.tc.name)
        self.steps = {s: steps_from(self.tc, s) for s in self.tc.source_states}
        self.initial = init_instance(self.tc, self.cx.self_addr, params, creator)

    @staticmethod
    def key(inst) -> tuple:
        """What tells two instances of the model apart, as `snapshot`
        does: the contract, creator and self address are fixed, and a
        step neither adds nor reorders env names, so the values in env
        order stand for the names."""
        return (inst.skeleton, inst.owner, inst.token_remaining,
                tuple(inst.env.values()))

    def is_goal(self, inst, bindings=None) -> bool:
        """The goal holds at the instance (under `bindings`: the player)."""
        g = self.sketch.goal_at(inst.skeleton)
        return g is not None and all_true(g, inst, bindings or {})

    def _clamp(self, inst):
        """Saturating finitization, in place on a step's fresh result:
        numbers stick at +-nat_max, and coin and token amounts at nat_max,
        so the explored state space stays finite. Only an out-of-range
        value (or a map holding one) is replaced; timers never are, so
        clamping commutes with the tick. It is exact only along paths
        whose values stay within the bound; past it, a successor is a
        saturated state that the contract need not reach. The valid
        `auction.asp` has 24 of its 198 reachable states at 3/3/3
        violating the refund invariant when clamped, and none unclamped,
        so a search answer is no claim about a clamped state."""
        n = self.bounds.nat_max
        env = inst.env
        for k, v in env.items():
            c = _saturate(v, n)
            if c is not v:
                env[k] = c
        return inst

    def successors(self, inst):
        """(kind, sender, post) for every finitized move: inputs over
        bounded binder domains and taus (the time self-loop among them),
        each composed with every tick that gives a distinct instance. The
        moves are those of the proof obligations (`_Ctx.moves`), run on
        the full action: one step per move, clamped, then ticked, since
        whether a step is defined does not depend on the tick that follows
        it. A tick leaves a step with no active timer as it is, and every
        tick of at least the longest active timer's units fires them all,
        so the ticks past that one repeat it."""
        cx, deltas = self.cx, self.deltas
        out = []
        for t, sender, step_b in cx.moves(inst, self.steps[inst.skeleton]):
            post = cx.run_inner(t, inst, step_b, sender, None)
            if post is None:
                continue
            post = self._clamp(post)
            kind = "tau" if t.input is None else "input"
            longest = max((v.k for v in post.env.values()
                           if type(v) is Timer and v.state == "active"), default=0)
            if longest:
                out.extend((kind, sender, advance_instance(post, d)) for d in deltas[:longest])
            else:
                out.append((kind, sender, post))
        return out

    def explore(self, absorbing=lambda inst: False):
        """(states, moves): the reachable states in discovery order, and
        for the state numbered i, moves[i] lists its moves as (kind,
        sender, successor number). States are expanded last discovered
        first. Absorbing states are not expanded; their moves are None.
        Raises StateLimit past `STATE_LIMIT` states."""
        states = [self.initial]
        index = {self.key(self.initial): 0}
        moves: list[list | None] = [None]
        frontier = [0]
        while frontier:
            i = frontier.pop()
            inst = states[i]
            if absorbing(inst):
                continue
            out = moves[i] = []
            for kind, sender, post in self.successors(inst):
                pk = self.key(post)
                j = index.get(pk)
                if j is None:
                    if len(states) > STATE_LIMIT:
                        raise StateLimit(len(states))
                    j = index[pk] = len(states)
                    states.append(post)
                    moves.append(None)
                    frontier.append(j)
                out.append((kind, sender, j))
        return states, moves


def _saturate(v, n: int):
    """v with every number beyond +-n, and every coin or token amount
    beyond n, cut to the bound; v itself when nothing is."""
    tv = type(v)
    if tv is int:
        return max(-n, min(n, v))  # v itself when in range
    if tv is Coin:
        return v if v.value <= n else Coin(n)
    if tv is Tok:
        return v if v.value <= n else Tok(v.kind, n)
    if tv is MapVal:
        d = None
        for k, x in v.d.items():
            c = _saturate(x, n)
            if c is not x:
                if d is None:
                    d = dict(v.d)
                d[k] = c
        return v if d is None else MapVal(d, v.default)
    return v


STATE_LIMIT = 200_000


class StateLimit(RuntimeError):
    """The finitized model has more states than `STATE_LIMIT` allows."""

    def __init__(self, states: int):
        super().__init__(f"state limit hit at {states} states")
        self.states = states


def least_fixpoint(n: int, wins) -> list[bool]:
    """won[i] for the least set W of the states 0..n-1 such that every
    state i with wins(i, won) is in W: the attractor of a reachability
    game (Thomas, STACS 1995)."""
    won = [False] * n
    changed = True
    while changed:
        changed = False
        for i in range(n):
            if not won[i] and wins(i, won):
                won[i] = True
                changed = True
    return won


@dataclass
class SearchReport:
    ok: bool
    states: int
    reason: str = ""
    witness_state: str | None = None


def reach_search(program: TypedProgram, sketch, bounds: DomainBounds,
                 params: dict, creator: str = "P0") -> SearchReport:
    """Explicit-state confirmation of a reachability claim: every maximal
    path from the initial state reaches the goal. Fails on a reachable dead
    end or a goal-avoiding cycle, or past `STATE_LIMIT` states. Goal states
    absorb; a state wins when it is a goal, or it has a move and every move
    wins."""
    model = FiniteModel(program, sketch, bounds, params, creator)
    try:
        states, moves = model.explore(model.is_goal)
    except StateLimit as e:
        return SearchReport(False, e.states, "state limit hit")
    won = least_fixpoint(len(states), lambda i, won: moves[i] is None or (
        bool(moves[i]) and all(won[j] for _, _, j in moves[i])))
    lost = [i for i in range(len(states)) if not won[i]]
    if not lost:
        return SearchReport(True, len(states))
    dead = [i for i in lost if not moves[i]]
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
               bounds: DomainBounds, params: dict, creator: str = "P0") -> GameReport:
    """Solve the lockout game on the finitized model: for every reachable
    state and every actor x, x must be able to force the goal. Player moves
    are x's own inputs; the Opponent resolves everything else and may stall
    unless a tau/time move is guaranteed. A state wins for x when it is a
    goal, or one of x's moves wins, or a tau/time move exists and every
    Opponent move wins. Past `STATE_LIMIT` states the game fails with no
    losing state."""
    model = FiniteModel(program, sketch, bounds, params, creator)
    try:
        states, moves = model.explore()
    except StateLimit as e:
        return GameReport(False, e.states)

    forced = [any(kind != "input" for kind, _, _ in ms) for ms in moves]
    for x in bounds.actor_values():
        goal = [model.is_goal(inst, {"__player": x}) for inst in states]
        player = [[j for kind, s, j in ms if kind == "input" and s == x]
                  for ms in moves]
        opponent = [[j for kind, s, j in ms if kind != "input" or s != x]
                    for ms in moves]

        def wins(i, won):
            return goal[i] or any(won[j] for j in player[i]) or \
                (forced[i] and all(won[j] for j in opponent[i]))

        won = least_fixpoint(len(states), wins)
        for i, inst in enumerate(states):
            if not won[i]:
                return GameReport(False, len(states), inst.skeleton, x)
    return GameReport(True, len(states))
