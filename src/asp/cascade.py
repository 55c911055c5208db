"""Multi-instance cascading semantics with pushdown stack and recurrence
limit R.

A cascade starts at a quiescent configuration (empty stack) with an
environment input and runs single-threadedly: the top-of-stack contract
makes local tau moves, synchronizes outputs with ready receivers (pushing
them, subject to the occurrence limit), emits environment-directed
outputs, and is popped when nothing is enabled. Each contract index occurs
at most R+1 times on the stack in any reachable configuration.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

from .diagnostics import AspError
from .machine import (
    InputLetter, InstanceState, OutputLetter, advance_instance,
    has_active_timer, init_instance, receptions,
)
from .typecheck import TypedContract, TypedProgram
from .values import Undef


class Rejected(AspError):
    """Environment input not receivable / time advance not enabled."""
    code = "Rejected"


class WhereClauseViolated(AspError):
    code = "WhereClauseViolated"


class CascadeLimit(AspError):
    """Step ceiling exceeded (the semantics admits unbounded tau suffixes)."""
    code = "CascadeLimit"


@dataclass(frozen=True)
class Config:
    states: tuple[InstanceState, ...]
    stack: tuple[int, ...] = ()  # left end is the top

    @property
    def quiescent(self) -> bool:
        return not self.stack


@dataclass(frozen=True)
class TraceEvent:
    rule: str  # LocalTau | SyncPush | EnvOutput | Pop | EnvInput | TimeAdvance
    actor: object  # contract index, or "env"
    letter: object  # Input/OutputLetter or None
    stack_after: tuple[int, ...]
    delta: int | None = None
    logs: tuple[OutputLetter, ...] = ()

    def to_json(self) -> str:
        return json.dumps({
            "rule": self.rule,
            "actor": self.actor,
            "letter": self.letter.to_json() if self.letter else None,
            "stack_after": list(self.stack_after),
            "delta": self.delta,
            "logs": [l.to_json() for l in self.logs],
        })


class ChoicePolicy:
    """Resolves nondeterminism among simultaneously available moves."""

    def pick(self, options: list):
        raise NotImplementedError


class FixedPolicy(ChoicePolicy):
    """Deterministic default: local tau moves before synchronized pushes
    before environment outputs; textually first transition within a class."""

    def pick(self, options):
        return options[0]


class RandomPolicy(ChoicePolicy):
    def __init__(self, seed: int):
        self.rng = random.Random(seed)

    def pick(self, options):
        return self.rng.choice(options)


@dataclass
class System:
    program: TypedProgram
    names: tuple[str, ...]  # instance names; also their addresses
    contracts: tuple[TypedContract, ...]
    R: int
    policy: ChoicePolicy = field(default_factory=FixedPolicy)
    step_limit: int = 10_000

    def index_of_addr(self, addr: str) -> int | None:
        try:
            return self.names.index(addr)
        except ValueError:
            return None

    def contract_of(self, idx: int) -> TypedContract:
        return self.contracts[idx]


def init_system(program: TypedProgram,
                instantiations: list[tuple[str, str, dict, str]],
                R: int, policy: ChoicePolicy | None = None,
                step_limit: int = 10_000) -> tuple[System, Config]:
    """instantiations: (instance name, contract name, args, creator addr).
    Instance names double as self addresses and must be unique."""
    names: list[str] = []
    contracts: list[TypedContract] = []
    states: list[InstanceState] = []
    for name, cname, args, creator in instantiations:
        if name in names:
            raise WhereClauseViolated(f"duplicate instance name {name!r}")
        tc = program.contract(cname)
        try:
            inst = init_instance(tc, name, args, creator)
        except Undef as e:
            raise WhereClauseViolated(f"initializing {name!r}: {e}")
        if tc.where is not None:
            from .machine import eval_expr
            ok = eval_expr(tc.where, inst, {})
            if ok is not True:
                raise WhereClauseViolated(
                    f"constructor constraint of {cname} fails for {name!r}")
        names.append(name)
        contracts.append(tc)
        states.append(inst)
    sys = System(program, tuple(names), tuple(contracts), R,
                 policy or FixedPolicy(), step_limit)
    return sys, Config(tuple(states))


# ---------------------------------------------------------------------------
# Configuration transitions
# ---------------------------------------------------------------------------

_RULE_RANK = {"LocalTau": 0, "SyncPush": 1, "EnvOutput": 2}


def _candidates(system: System, config: Config):
    """Enabled configuration moves for the top-of-stack contract."""
    k = config.stack[0]
    inst = config.states[k]
    tc = system.contract_of(k)
    out = []
    for t, inst2, outputs, logs in receptions(tc, inst, None):
        assert len(outputs) <= 1, "normalization guarantees at most one output"
        if not outputs:
            out.append(("LocalTau", t, inst2, None, logs, None))
            continue
        letter = outputs[0]
        l = system.index_of_addr(letter.dest)
        if l is None:
            out.append(("EnvOutput", t, inst2, letter, logs, None))
            continue
        # Synchronized push: receiver must be under the occurrence limit and
        # have a matching, defined input transition at its current state.
        if config.stack.count(l) > system.R:
            continue
        steps = receptions(system.contract_of(l), config.states[l],
                           letter.matching(sender=inst.self_addr))
        if steps:
            out.append(("SyncPush", t, inst2, letter, logs, (l, steps)))
    out.sort(key=lambda c: (_RULE_RANK[c[0]], c[1].idx))
    return out


def cascade_step(system: System, config: Config) -> tuple[Config, TraceEvent]:
    """Apply exactly one of the four mid-cascade rules at the top of stack.
    Pop applies when nothing else is enabled. The stack must be non-empty."""
    if config.quiescent:
        raise ValueError("cascade_step on a quiescent configuration")
    k = config.stack[0]
    options = _candidates(system, config)
    if not options:
        ev = TraceEvent("Pop", k, None, config.stack[1:])
        return Config(config.states, config.stack[1:]), ev
    rule, t, inst2, letter, logs, sync = system.policy.pick(options)
    states = list(config.states)
    states[k] = inst2
    if rule == "SyncPush":
        l, steps = sync
        _, rinst, routs, rlogs = system.policy.pick(steps)
        assert not routs, "normalized input transitions emit nothing"
        states[l] = rinst
        stack = (l,) + config.stack
        ev = TraceEvent("SyncPush", k, letter, stack, logs=logs + rlogs)
        return Config(tuple(states), stack), ev
    ev = TraceEvent(rule, k, letter, config.stack, logs=logs)
    return Config(tuple(states), config.stack), ev


def run_cascade(system: System, config: Config) -> tuple[Config, list[TraceEvent]]:
    """Drive cascade_step until quiescence (bounded by the step ceiling)."""
    events: list[TraceEvent] = []
    while not config.quiescent:
        if len(events) > system.step_limit:
            raise CascadeLimit(
                f"cascade exceeded {system.step_limit} steps without quiescing")
        config, ev = cascade_step(system, config)
        events.append(ev)
    return config, events


def env_input(system: System, config: Config, target: int,
              letter: InputLetter) -> tuple[Config, list[TraceEvent]]:
    """Start a cascade with an environment input at a quiescent
    configuration and run it to quiescence. Raises Rejected if the message
    is not receivable at the target's current state."""
    if not config.quiescent:
        raise ValueError("environment input on a non-quiescent configuration")
    inst = config.states[target]
    steps = receptions(system.contract_of(target), inst, letter)
    if not steps:
        raise Rejected(
            f"{letter.msg!r} is not receivable by {system.names[target]!r} "
            f"at state {inst.skeleton!r}")
    _, inst2, outs, logs = system.policy.pick(steps)
    assert not outs
    states = list(config.states)
    states[target] = inst2
    config = Config(tuple(states), (target,))
    events = [TraceEvent("EnvInput", "env", letter, (target,), logs=logs)]
    config, rest = run_cascade(system, config)
    return config, events + rest


def time_advance(system: System, config: Config, delta: int) -> tuple[Config, TraceEvent]:
    """Advance every timer of every instance by the same delta >= 1. Enabled
    only at quiescence and only if some timer is active. Skeleton states do
    not change; newly enabled internal transitions run via wake_internal."""
    if not config.quiescent:
        raise ValueError("time advance on a non-quiescent configuration")
    if delta < 1:
        raise Rejected("time advances by at least one unit")
    if not any(has_active_timer(s) for s in config.states):
        raise Rejected("no active timer in the system")
    states = tuple(advance_instance(s, delta) for s in config.states)
    ev = TraceEvent("TimeAdvance", "env", None, (), delta=delta)
    return Config(states), ev


def wake_internal(system: System, config: Config) -> tuple[Config, list[TraceEvent]]:
    """Run cascades for instances left with enabled internal moves (this
    only happens right after a time advance fires a timer at quiescence,
    e.g. a timeout transition waiting on Timer.has_fired)."""
    events: list[TraceEvent] = []
    for idx in range(len(config.states)):
        if receptions(system.contract_of(idx), config.states[idx], None):
            config, evs = run_cascade(system, Config(config.states, (idx,)))
            events.extend(evs)
    return config, events


# ---------------------------------------------------------------------------
# Trace-level accounting helpers (used by invariant checks)
# ---------------------------------------------------------------------------


def system_coin_total(config: Config) -> int:
    return sum(s.coin_total() for s in config.states)
