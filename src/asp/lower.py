"""Defensive lowering: state machines turned inside-out into method form.

Every receivable message becomes a public method holding a dispatch table
over skeleton states; sends become synchronous calls; internal transitions
run in a private tau closure after each method body until no internal
transition is enabled. Ghost variables and ghost statements are not
compiled. Lowering consumes the normalized transitions, so each dispatch
arm is send-free and each tau arm carries at most one send.
"""
from __future__ import annotations

from dataclasses import dataclass

from .ast_nodes import Expr, SemType, Stmt
from .typecheck import TypedContract, TypedProgram, VarInfo, strip_ghost


@dataclass(frozen=True)
class ArmIR:
    """One dispatch arm of a public method: an input transition compiled
    at a specific skeleton state."""
    state: str
    target: str
    when: Expr | None
    access: tuple[str, Expr] | None
    sender_match: str | None  # existing variable the sender must equal
    sender_bind: str | None  # fresh binder receiving the sender
    params: tuple[str, ...]
    param_types: tuple[SemType, ...]
    body: tuple[Stmt, ...]
    label: str


@dataclass(frozen=True)
class TauArmIR:
    state: str
    target: str
    when: Expr | None
    body: tuple[Stmt, ...]  # contains at most one send
    label: str


@dataclass
class ContractIR:
    name: str
    params: tuple[tuple[str, SemType], ...]
    where: Expr | None
    vars: dict[str, VarInfo]  # ghost-free layout, stash slots included
    states: tuple[str, ...]
    initial: str
    methods: dict[str, list[ArmIR]]  # one public method per message
    taus: dict[str, list[TauArmIR]]  # per state, textual order
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
    methods: dict[str, list[ArmIR]] = {m: [] for m in tc.msg_sigs}
    taus: dict[str, list[TauArmIR]] = {s: [] for s in tc.norm_states}
    for t in tc.norm_transitions:
        body = strip_ghost(t.action, ghost)
        if t.input is not None:
            methods[t.msg].append(ArmIR(
                state=t.source, target=t.target, when=t.when, access=t.access,
                sender_match=None if t.sender_fresh else t.input.sender,
                sender_bind=t.input.sender if t.sender_fresh else None,
                params=t.input.params, param_types=t.param_types,
                body=body, label=t.label(),
            ))
        else:
            taus[t.source].append(TauArmIR(
                state=t.source, target=t.target, when=t.when, body=body,
                label=t.label(),
            ))
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
