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
from dataclasses import dataclass

from .diagnostics import AspError
from .machine import (
    InputLetter, InstanceState, OutputLetter, advance_instance, all_true, defined_steps,
    enabled_transitions, has_active_timer, init_instance, receptions,
)
from .typecheck import TypedContract, TypedProgram
from .values import Undef


class Rejected(AspError):
    """Environment input not receivable / time advance not enabled."""
    code = "Rejected"


class WhereClauseViolated(AspError):
    """An instantiation that init_system cannot take: its instance name is
    taken, or its initializers or constructor constraint are undefined or
    false. `index` is its place among the instantiations."""
    code = "WhereClauseViolated"
    index: int | None = None


class CascadeLimit(AspError):
    """Step ceiling exceeded (the semantics admits unbounded tau suffixes).
    From wake_internal it carries the configuration and events of the
    wakes that quiesced."""
    code = "CascadeLimit"
    config: Config | None = None
    events: tuple = ()


STEP_LIMIT = 10_000  # the most steps one cascade runs before CascadeLimit


@dataclass(slots=True)
class Config:
    states: tuple[InstanceState, ...]
    stack: tuple[int, ...] = ()  # left end is the top

    @property
    def quiescent(self) -> bool:
        return not self.stack


@dataclass(slots=True)
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


@dataclass
class System:
    names: tuple[str, ...]  # instance names; also their addresses
    contracts: tuple[TypedContract, ...]
    R: int
    rng: random.Random | None = None

    def index_of_addr(self, addr: str) -> int | None:
        try:
            return self.names.index(addr)
        except ValueError:
            return None

    def pick(self, options: list):
        """The move that runs among simultaneously enabled ones: a draw
        from `rng`, or without one the first (local tau moves before
        synchronized pushes before environment outputs; textually first
        transition within a class)."""
        return options[0] if self.rng is None else self.rng.choice(options)


def init_system(program: TypedProgram,
                instantiations: list[tuple[str, str, dict, str]],
                R: int, rng: random.Random | None = None) -> tuple[System, Config]:
    """instantiations: (instance name, contract name, args, creator addr).
    Instance names double as self addresses and must be unique."""
    names: list[str] = []
    contracts: list[TypedContract] = []
    states: list[InstanceState] = []

    def violated(message: str) -> WhereClauseViolated:
        e = WhereClauseViolated(message)
        e.index = len(names)
        return e

    for name, cname, args, creator in instantiations:
        if name in names:
            raise violated(f"duplicate instance name {name!r}")
        tc = program.contract(cname)
        try:
            inst = init_instance(tc, name, args, creator)
        except Undef as e:
            raise violated(f"initializing {name!r}: {e}")
        if tc.where is not None and not all_true((tc.where,), inst, {}):
            raise violated(f"constructor constraint of {cname} fails for {name!r}")
        names.append(name)
        contracts.append(tc)
        states.append(inst)
    sys = System(tuple(names), tuple(contracts), R, rng)
    return sys, Config(tuple(states))


# ---------------------------------------------------------------------------
# Configuration transitions
# ---------------------------------------------------------------------------

_RULE_RANK = {"LocalTau": 0, "SyncPush": 1, "EnvOutput": 2}


def _candidates(system: System, config: Config):
    """Enabled configuration moves for the top-of-stack contract."""
    k = config.stack[0]
    inst = config.states[k]
    tc = system.contracts[k]
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
        steps = receptions(system.contracts[l], config.states[l],
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
    rule, t, inst2, letter, logs, sync = system.pick(options)
    states = list(config.states)
    states[k] = inst2
    if rule == "SyncPush":
        l, steps = sync
        _, rinst, routs, rlogs = system.pick(steps)
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
        if len(events) > STEP_LIMIT:
            raise CascadeLimit(f"cascade exceeded {STEP_LIMIT} steps without quiescing")
        config, ev = cascade_step(system, config)
        events.append(ev)
    return config, events


def env_input(system: System, config: Config, target: int,
              letter: InputLetter) -> tuple[Config, list[TraceEvent]]:
    """Start a cascade with an environment input at a quiescent
    configuration and run it to quiescence. Raises Rejected if the message
    is not receivable at the target's current state, or its action is
    undefined there."""
    if not config.quiescent:
        raise ValueError("environment input on a non-quiescent configuration")
    inst = config.states[target]
    tc = system.contracts[target]
    # the receptions, keeping the enabled pairs for the diagnostic
    enabled_pairs = enabled_transitions(tc, inst, letter)
    steps = defined_steps(tc, inst, enabled_pairs, letter.sender)
    if not steps:
        where = f"by {system.names[target]!r} at state {inst.skeleton!r}"
        if enabled_pairs:
            raise Rejected(f"{letter.msg!r} is receivable {where}, "
                           f"but its action is undefined")
        raise Rejected(f"{letter.msg!r} is not receivable {where}")
    _, inst2, outs, logs = system.pick(steps)
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
    e.g. a timeout transition waiting on Timer.has_fired). Each instance's
    wake is its own cascade: one that never quiesces is not taken, the
    others are, and the first CascadeLimit is then raised with them."""
    events: list[TraceEvent] = []
    runaway = None
    for idx in range(len(config.states)):
        if receptions(system.contracts[idx], config.states[idx], None):
            try:
                config, evs = run_cascade(system, Config(config.states, (idx,)))
            except CascadeLimit as e:
                runaway = runaway or e
                continue
            events.extend(evs)
    if runaway is not None:
        runaway.config, runaway.events = config, tuple(events)
        raise runaway
    return config, events


# ---------------------------------------------------------------------------
# Trace-level accounting helpers (used by invariant checks)
# ---------------------------------------------------------------------------


def system_coin_total(config: Config) -> int:
    return sum(s.coin_total() for s in config.states)
