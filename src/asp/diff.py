"""Differential testing: the compiled-form interpreter against the cascade
semantics.

For every transaction: a committed transaction must be an accepted cascade
with the same abstracted post-state and the same emitted letters; a
reverted transaction must correspond to a rejected cascade, except that
reverts for Overflow are the permitted inclusion gap (ideal arithmetic
defines steps the bounded target cannot take). Anything else is a
divergence and is reported with a reproduction script.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

from .cascade import (
    Config, FixedPolicy, Rejected, env_input, init_system, time_advance,
    wake_internal,
)
from .interp import Machine, TxResult
from .lower import lower
from .machine import InputLetter
from .script import (
    AdvanceItem, InputItem, NewItem, check_item, instance_index, instantiations,
)
from .typecheck import TypedProgram
from .values import ADDR_NONE, Coin, MapVal, SeqVal, Timer, Tok, TupVal


@dataclass
class Divergence:
    item: dict
    kind: str
    detail: str
    script: list[dict] = field(default_factory=list)


@dataclass
class DiffReport:
    trials: int = 0
    items: int = 0
    committed: int = 0
    reverted: int = 0
    overflow_gaps: int = 0
    divergences: list[Divergence] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.divergences

    def to_json(self) -> str:
        return json.dumps({
            "trials": self.trials,
            "items": self.items,
            "committed": self.committed,
            "reverted": self.reverted,
            "overflow_gaps": self.overflow_gaps,
            "divergences": [
                {"kind": d.kind, "detail": d.detail, "item": d.item,
                 "script": d.script}
                for d in self.divergences
            ],
        }, indent=2)


# ---------------------------------------------------------------------------
# State abstraction: bounded IR storage vs abstract instance
# ---------------------------------------------------------------------------


def _abstract_eq(typ, iv, av) -> bool:
    """IR value (bounded representation) vs abstract runtime value."""
    k = typ.kind
    if k in ("int", "nat", "bool", "address"):
        return iv == av
    if k == "coin":
        return isinstance(av, Coin) and av.value == iv
    if k == "token":
        return isinstance(av, Tok) and (av.kind, av.value) == (iv[0], iv[1])
    if k == "timer":
        return isinstance(av, Timer) and (av.state, av.k) == (iv[0], iv[1])
    if k == "map":
        if not isinstance(av, MapVal):
            return False
        keys = set(iv) | set(av.d)
        for key in keys:
            a = av.d.get(key)
            i = iv.get(key)
            if a is None or i is None:
                # one side materialized a default entry the other did not
                from .values import zero_value
                if a is None:
                    a = av.default if av.default is not None else zero_value(typ.args[1])
                if i is None:
                    from .interp import _zero
                    i = _zero(typ.args[1])
                    vi_default = av.default
                    if vi_default is not None:
                        i = vi_default
            if not _abstract_eq(typ.args[1], i, a):
                return False
        return True
    if k == "seq":
        return isinstance(av, SeqVal) and len(av.items) == len(iv) and all(
            _abstract_eq(typ.args[0], i, a) for i, a in zip(iv, av.items))
    if k == "tuple":
        return isinstance(av, TupVal) and all(
            _abstract_eq(t, i, a) for t, i, a in zip(typ.args, iv, av.items))
    raise ValueError(k)


def compare_states(program: TypedProgram, machine: Machine,
                   config: Config) -> str | None:
    """None if every instance matches under the value abstraction."""
    for idx, inst in enumerate(config.states):
        name = inst.self_addr
        st = machine.storages[name]
        if st.state != inst.skeleton:
            return f"{name}: state {st.state} != {inst.skeleton}"
        if st.owner != inst.owner:
            return f"{name}: owner {st.owner} != {inst.owner}"
        tc = program.contract(inst.contract)
        for v in tc.vars.values():
            if v.ghost:
                continue  # ghosts are not compiled
            if not _abstract_eq(v.typ, st.vars[v.name], inst.env[v.name]):
                return (f"{name}.{v.name}: {st.vars[v.name]!r} != "
                        f"{inst.env[v.name]!r}")
        if st.remaining != inst.token_remaining:
            return f"{name}: token supply {st.remaining} != {inst.token_remaining}"
    return None


def _letters_of_trace(events) -> list[tuple]:
    out = []
    for ev in events:
        if ev.rule == "EnvOutput":
            out.append(("send", ev.letter.msg, ev.letter.dest,
                        _abstract_args(ev.letter.args)))
        for log in ev.logs:
            out.append(("log", log.msg, log.dest, _abstract_args(log.args)))
    return out


def _abstract_args(args) -> tuple:
    out = []
    for a in args:
        if isinstance(a, Coin):
            out.append(("coin", a.value))
        elif isinstance(a, Tok):
            out.append(("token", a.kind, a.value))
        else:
            out.append(a)
    return tuple(out)


def _letters_of_tx(program: TypedProgram, res: TxResult) -> list[tuple]:
    out = []
    for l in res.letters:
        sig = program.msg_universe.get(l.msg, ())
        tagged = []
        for a, t in zip(l.args, sig):
            if t.kind == "coin":
                tagged.append(("coin", a))
            elif t.kind == "token":
                tagged.append(("token", a[0], a[1]))
            else:
                tagged.append(a)
        kind = "log" if l.kind == "log" else "send"
        out.append((kind, l.msg, l.dest, tuple(tagged)))
    return out


# ---------------------------------------------------------------------------
# Driving one script on both sides
# ---------------------------------------------------------------------------


def _ir_tx_args(letter: InputLetter) -> tuple:
    """A letter's arguments as the IR takes them: coins and tokens unboxed."""
    return tuple(a.value if isinstance(a, Coin) else
                 (a.kind, a.value) if isinstance(a, Tok) else a
                 for a in letter.args)


def run_differential(program: TypedProgram, news: list[NewItem], items: list,
                     R: int, word_bits: int,
                     report: DiffReport | None = None,
                     atomicity_log: list | None = None) -> DiffReport:
    """Run one script against both semantics, recording divergences; its
    items are checked on the cascade side by `script.check_item`."""
    return _run_script(program, lower(program, R, word_bits),
                       instantiations(program, news), items, R, report,
                       atomicity_log)


def _run_script(program: TypedProgram, system_ir, insts: list, items: list,
                R: int, report: DiffReport | None,
                atomicity_log: list | None) -> DiffReport:
    """run_differential on an already lowered system and checked
    instantiations. The run ends at its first divergence: past it, the
    two sides no longer start from the same state."""
    report = report or DiffReport()
    system, config = init_system(program, insts, R, FixedPolicy())
    machine = Machine(system_ir, insts)
    script_so_far: list[dict] = []
    report.trials += 1

    for item in items:
        if not isinstance(item, (InputItem, AdvanceItem)):
            check_item(item, system, config)  # an assertion, on the cascade
            continue
        report.items += 1
        found = None  # (kind, detail) of a divergence at this item
        if isinstance(item, InputItem):
            desc = {"input": item.instance, "msg": item.msg,
                    "args": [repr(a) for a in item.args], "from": item.sender}
            script_so_far.append(desc)
            letter = item.letter
            try:
                new_config, events = env_input(
                    system, config, instance_index(system, item.instance, item.line),
                    letter)
            except Rejected:
                accepted = False
            else:
                accepted = True
                check_item(item, system, new_config)
            if atomicity_log is not None:
                pre_hash = machine.storage_hash()
            res = machine.transact(item.instance, item.msg,
                                   letter.sender, _ir_tx_args(letter))
            if res.committed:
                report.committed += 1
                if not accepted:
                    found = ("committed-but-rejected",
                             "transaction committed but the cascade rejects it")
                else:
                    config = new_config
                    mismatch = compare_states(program, machine, config)
                    want = _letters_of_trace(events)
                    got = _letters_of_tx(program, res)
                    if mismatch:
                        found = ("state-mismatch", mismatch)
                    elif want != got:
                        found = ("letter-mismatch",
                                 f"cascade emitted {want}, target emitted {got}")
            else:
                report.reverted += 1
                if atomicity_log is not None:
                    atomicity_log.append(pre_hash == machine.storage_hash())
                # a rejected cascade and a reverted transaction agree, and
                # an overflow is the permitted gap
                if accepted and res.reason == "Overflow":
                    report.overflow_gaps += 1
                elif accepted:
                    found = ("reverted-but-accepted",
                             f"reverted with {res.reason} but the cascade "
                             f"accepts the input")
        else:
            desc = {"advance": item.delta}
            script_so_far.append(desc)
            try:
                new_config, ev = time_advance(system, config, item.delta)
            except Rejected:
                cascade_ok = False
            else:
                cascade_ok = True
                check_item(item, system, new_config)
            ir_ok = machine.advance(item.delta)
            if cascade_ok != ir_ok:
                found = ("advance-mismatch",
                         f"cascade={'ok' if cascade_ok else 'rejected'} "
                         f"target={'ok' if ir_ok else 'rejected'}")
            elif cascade_ok:
                new_config, _wake_events = wake_internal(system, new_config)
                bad = [r for r in machine.wake() if not r.committed
                       and r.reason != "Overflow"]
                config = new_config
                mismatch = compare_states(program, machine, config)
                if bad:
                    found = ("wake-failure", f"timer wake-up reverted: {bad[0].reason}")
                elif mismatch:
                    found = ("state-mismatch", mismatch)
        if found:
            report.divergences.append(Divergence(desc, *found, list(script_so_far)))
            return report
    return report


# ---------------------------------------------------------------------------
# Random scripts and the top-level differential entry
# ---------------------------------------------------------------------------


def random_items(program: TypedProgram, news: list[NewItem], rng: random.Random,
                 length: int = 12, coin_max: int = 9) -> list:
    """Type-driven random message sequence over the instantiated system."""
    actors = ["alice", "bob", "carol"]
    instance_names = [n.name for n in news]
    addr_pool = actors + instance_names + [ADDR_NONE]
    targets = []
    has_timers = False
    for n in news:
        tc = program.contract(n.contract)
        has_timers = has_timers or tc.has_timers()
        for msg in tc.msg_sigs:
            targets.append((n.name, msg, tc.msg_sigs[msg], n.creator))
    items: list = []
    for i in range(length):
        if has_timers and rng.random() < 0.15:
            items.append(AdvanceItem(rng.randint(1, 6), i, expect_reject=False))
            continue
        name, msg, sig, creator = rng.choice(targets)
        args = []
        for t in sig:
            if t.kind == "coin":
                args.append(Coin(rng.randint(0, coin_max)))
            elif t.kind == "token":
                args.append(Tok(None, 0))
            elif t.kind in ("int", "nat"):
                args.append(rng.randint(0, coin_max))
            elif t.kind == "bool":
                args.append(rng.random() < 0.5)
            elif t.kind == "address":
                args.append(rng.choice(addr_pool))
            else:
                args.append(Coin(0))
        sender = rng.choice(actors + [creator])
        items.append(InputItem(name, msg, tuple(args), sender, i,
                               expect_reject=False))
    return items


def differential_check(program: TypedProgram, news: list[NewItem], R: int,
                       word_bits: int, trials: int, seed: int = 0,
                       length: int = 12, coin_max: int = 9,
                       atomicity_log: list | None = None) -> DiffReport:
    """`trials` random scripts compared transaction-for-transaction."""
    report = DiffReport()
    rng = random.Random(seed)
    cap = min(coin_max, (1 << word_bits) - 1)
    insts = instantiations(program, news)
    system_ir = lower(program, R, word_bits)
    for _ in range(trials):
        items = random_items(program, news, rng, length, cap)
        _run_script(program, system_ir, insts, items, R, report, atomicity_log)
    return report
