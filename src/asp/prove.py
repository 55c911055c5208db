"""Proof checking: generate the rule's VCs, discharge each, aggregate.

Also hosts two independent oracles over the finitized single-instance
model (the same model the VCs quantify over: contract transitions compose
with a >=1 timer tick; `time` self-loops when a timer is active). Their
moves come from `_Ctx.moves`, the enumerator of the game-rule checks, run
on full actions rather than slices:

  reach_search  - explicit-state check that every maximal path reaches the
                  goal (no dead ends, no goal-avoiding cycles);
  game_solve    - least-fixpoint solution of the lockout game: from every
                  reachable state, every actor must have a winning strategy
                  (stalling is the Opponent's privilege whenever no tau or
                  time move is guaranteed).
"""
from __future__ import annotations

import json
import time as _time
from dataclasses import dataclass, field

from .discharge import (
    Counterexample, DischargeResult, DomainBounds, Unknown, Valid, _Ctx,
    discharge_bounded,
)
from .machine import advance_instance
from .sketch import ProofSketch
from .typecheck import TypedProgram
from .vcgen import VC, generate_vcs


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
    States are canonical snapshots; successors carry (label, kind, sender)."""

    def __init__(self, program: TypedProgram, sketch: ProofSketch,
                 bounds: DomainBounds, params: dict, creator: str = "P0"):
        from .machine import init_instance
        self.tc = program.contract(sketch.contract)
        self.bounds = bounds
        self.cx = _Ctx(self.tc, sketch, bounds)
        self.initial = init_instance(self.tc, "@" + sketch.contract, params,
                                     creator)

    def key(self, inst) -> str:
        return inst.snapshot()

    def _clamp(self, inst):
        """Saturating finitization: numeric values stick at the bound so
        the explored state space stays finite. Exact whenever guards and
        assertions only compare values below the bound (the corpus)."""
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
        """(kind, label, sender, post) for every finitized move: inputs over
        bounded binder domains, taus, each composed with every tick; plus
        the pure time transition. The moves are those of the proof
        obligations (`_Ctx.moves`), run on the full action."""
        cx = self.cx
        out = []
        for t, sender, step_b in cx.moves(inst):
            kind = "tau" if t.input is None else "input"
            for delta in cx.deltas():
                post = cx.run_inner(t, inst, step_b, sender, delta)
                if post is not None:
                    out.append((kind, t.label(), sender, self._clamp(post)))
        if cx.time_enabled(inst):
            for delta in cx.deltas():
                out.append(("time", "time", None, advance_instance(inst, delta)))
        return out


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
    end or a goal-avoiding cycle."""
    model = FiniteModel(program, sketch, bounds, params, creator)
    cx = model.cx

    def is_goal(inst) -> bool:
        g = cx.goal(inst.skeleton)
        return g is not None and cx.all_true(g, inst)

    # iterative depth-first search with back-edge detection: a GRAY
    # successor closes a goal-avoiding cycle
    WHITE, GRAY, BLACK = 0, 1, 2
    color: dict[str, int] = {}
    succs_cache: dict[str, list] = {}
    stack = [(model.initial, 0)]
    while stack:
        inst, idx = stack.pop()
        k = model.key(inst)
        if idx == 0:
            if color.get(k, WHITE) != WHITE:
                continue
            if is_goal(inst):
                color[k] = BLACK  # absorbing: maximal paths stop here
                continue
            if len(color) > state_limit:
                return SearchReport(False, len(color), "state limit hit")
            color[k] = GRAY
            succ = model.successors(inst)
            if not succ:
                return SearchReport(False, len(color),
                                    "reachable dead end before the goal",
                                    inst.skeleton)
            succs_cache[k] = succ
        succ = succs_cache[k]
        if idx < len(succ):
            stack.append((inst, idx + 1))
            nxt = succ[idx][3]
            nk = model.key(nxt)
            c = color.get(nk, WHITE)
            if c == GRAY:
                return SearchReport(False, len(color),
                                    "goal-avoiding cycle", nxt.skeleton)
            if c == WHITE:
                stack.append((nxt, 0))
        else:
            color[k] = BLACK
            succs_cache.pop(k, None)
    return SearchReport(True, len(color))


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
    unless a tau/time move is guaranteed."""
    model = FiniteModel(program, sketch, bounds, params, creator)
    cx = model.cx

    # reachable state space (all moves)
    reach: dict[str, object] = {}
    frontier = [model.initial]
    reach[model.key(model.initial)] = model.initial
    succs: dict[str, list] = {}
    while frontier:
        inst = frontier.pop()
        k = model.key(inst)
        succ = model.successors(inst)
        succs[k] = succ
        for _, _, _, post in succ:
            pk = model.key(post)
            if pk not in reach:
                if len(reach) > state_limit:
                    raise RuntimeError("game state limit hit")
                reach[pk] = post
                frontier.append(post)

    def is_goal(inst, x) -> bool:
        cx.extra = {sketch.player: x}
        g = cx.goal(inst.skeleton)
        ok = g is not None and cx.all_true(g, inst)
        cx.extra = {}
        return ok

    for x in bounds.actor_values():
        # least fixpoint of: Q | <Player>W | (<forced>true & [Opponent]W)
        win: set[str] = set()
        for k, inst in reach.items():
            if is_goal(inst, x):
                win.add(k)
        changed = True
        while changed:
            changed = False
            for k, inst in reach.items():
                if k in win:
                    continue
                player_moves = [s for s in succs[k]
                                if s[0] == "input" and s[2] == x]
                opp_moves = [s for s in succs[k]
                             if s[0] in ("tau", "time")
                             or (s[0] == "input" and s[2] != x)]
                forced = any(s[0] in ("tau", "time") for s in succs[k])
                if any(model.key(s[3]) in win for s in player_moves):
                    win.add(k)
                    changed = True
                    continue
                if forced and opp_moves and \
                        all(model.key(s[3]) in win for s in opp_moves):
                    win.add(k)
                    changed = True
        for k, inst in reach.items():
            if k not in win:
                return GameReport(False, len(reach), inst.skeleton, x)
    return GameReport(True, len(reach))
