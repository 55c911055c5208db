"""Defensive lowering: state machines turned inside-out into method form.

Every receivable message becomes a public method holding a dispatch table
over skeleton states; sends become synchronous calls; internal transitions
run in a private tau closure after each method body until no internal
transition is enabled. Ghost variables and ghost statements are not
compiled. The arms are the normalized transitions with their ghost code
stripped, so each dispatch arm is send-free and each tau arm carries at
most one send.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

from .ast_nodes import Expr, SemType
from .typecheck import TypedContract, TypedProgram, TypedTransition, VarInfo, strip_ghost


@dataclass
class ContractIR:
    name: str
    params: tuple[tuple[str, SemType], ...]
    where: Expr | None
    vars: dict[str, VarInfo]  # ghost-free layout, stash slots included
    states: tuple[str, ...]
    initial: str
    methods: dict[str, list[TypedTransition]]  # one public method per message
    taus: dict[str, list[TypedTransition]]  # per state, textual order
    msg_sigs: dict[str, tuple[SemType, ...]]
    issues: bool = False
    issue_limit: int | None = None


@dataclass
class SystemIR:
    contracts: dict[str, ContractIR]
    reentrancy_limit: int
    word_bits: int
    msg_universe: dict[str, tuple[SemType, ...]]  # every message's declared signature


def lower_contract(tc: TypedContract) -> ContractIR:
    ghost = tc.ghost_names()
    methods: dict[str, list[TypedTransition]] = {m: [] for m in tc.msg_sigs}
    taus: dict[str, list[TypedTransition]] = {s: [] for s in tc.norm_states}
    for t in tc.norm_transitions:
        arms = methods[t.msg] if t.input is not None else taus[t.source]
        arms.append(replace(t, action=strip_ghost(t.action, ghost)))
    layout = {n: v for n, v in tc.vars.items() if not v.ghost}
    return ContractIR(
        name=tc.name, params=tc.params, where=tc.where, vars=layout,
        states=tc.norm_states, initial=tc.initial, methods=methods, taus=taus,
        msg_sigs=dict(tc.msg_sigs), issues=tc.issues,
        issue_limit=tc.issue_limit,
    )


def lower(program: TypedProgram, R: int = 1, word_bits: int = 256) -> SystemIR:
    return SystemIR(
        {name: lower_contract(tc) for name, tc in program.contracts.items()},
        reentrancy_limit=R, word_bits=word_bits,
        msg_universe=program.msg_universe,
    )
