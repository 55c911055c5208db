"""Differential testing: the compiled-form interpreter against the cascade
semantics.

For every transaction: a committed transaction must be an accepted cascade,
and the target's storage and emitted letters must be the flat form
(values.flat) of the cascade's post-state and letters; a reverted
transaction must correspond to a rejected cascade, except that reverts
for Overflow are the permitted inclusion gap (ideal arithmetic
defines steps the bounded target cannot take). Anything else is a
divergence and is reported with a reproduction script.

A check has one start: the cascade system, its initial configuration and
the target machine at its initial storages, built once. Each script runs
on a fork of that machine, over copies of its storages, and from the
shared configuration as it is. Sharing it is safe because every cascade
step (step_instance, advance_instance) clones an instance before writing
it and runtime values are immutable, so no script changes the start.
"""
from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass, field, fields
from pathlib import Path

from .cascade import (
    CascadeLimit, Config, Rejected, System, WhereClauseViolated, env_input, init_system,
    time_advance, wake_internal,
)
from .diagnostics import Pos, ScriptError
from .interp import Machine, TxRevert
from .lower import SystemIR, lower
from .script import (
    AdvanceItem, InputItem, NewItem, at_new_line, check_assertions, check_item, input_target,
    instantiations,
)
from .typecheck import TypedProgram
from .values import ADDR_NONE, Coin, flat, zero_value


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
# Comparison: IR storage and letters against the flat form of the cascade's
# ---------------------------------------------------------------------------


def compare_states(program: TypedProgram, machine: Machine,
                   config: Config) -> str | None:
    """None if every instance's storage is the flat form of its cascade
    state. A map entry present on one side only is a mismatch: `Map.in`
    can tell it apart from an absent one."""
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
            if st.vars[v.name] != flat(inst.env[v.name]):
                return (f"{name}.{v.name}: {st.vars[v.name]!r} != "
                        f"{inst.env[v.name]!r}")
        if st.remaining != inst.token_remaining:
            return f"{name}: token supply {st.remaining} != {inst.token_remaining}"
    return None


def _letters_of_trace(events) -> list[tuple]:
    """The letters of cascade events in the target's order: each event's
    logs, then its send to the environment."""
    out = []
    for ev in events:
        for log in ev.logs:
            out.append(("log", log.msg, log.dest, tuple(map(flat, log.args))))
        if ev.rule == "EnvOutput":
            out.append(("send", ev.letter.msg, ev.letter.dest,
                        tuple(map(flat, ev.letter.args))))
    return out


def _mismatch(program: TypedProgram, machine: Machine, config: Config,
              events, results) -> tuple[str, str] | None:
    """A state-mismatch or letter-mismatch between the cascade, at config
    after events, and the target after its transactions' results."""
    mismatch = compare_states(program, machine, config)
    if mismatch:
        return ("state-mismatch", mismatch)
    want = _letters_of_trace(events)
    got = [(l.kind, l.msg, l.dest, l.args) for r in results for l in r.letters]
    if want != got:
        return ("letter-mismatch", f"cascade emitted {want}, target emitted {got}")
    return None


# ---------------------------------------------------------------------------
# Driving one script on both sides
# ---------------------------------------------------------------------------


def run_differential(program: TypedProgram, news: list[NewItem], items: list,
                     R: int, word_bits: int,
                     report: DiffReport | None = None,
                     atomicity_log: list | None = None) -> DiffReport:
    """Run one script against both semantics, recording divergences; its
    assertions are typed before it runs, and its items are checked on the
    cascade side by `script.check_item`."""
    start = _start(program, lower(program, R, word_bits), news, R)
    items = check_assertions(program, news, items)
    return _run_script(program, start, items, report, atomicity_log)


def _start(program: TypedProgram, system_ir: SystemIR, news: list[NewItem],
           R: int) -> tuple[System, Config, Machine]:
    """What every script of a check starts from: the cascade system, its
    initial configuration and a target machine at its initial storages.
    A ScriptError at the `new` line of an instance that the cascade
    accepts but the target cannot deploy, and the cascade's refusal of a
    `new` at its line."""
    insts = instantiations(program, news)
    try:
        system, config = init_system(program, insts, R)
    except WhereClauseViolated as e:
        raise at_new_line(e, news) from None
    machine = Machine(system_ir, [])
    for n, inst in zip(news, insts):
        try:
            machine.deploy(*inst)
        except TxRevert as e:
            raise ScriptError(f"the target cannot deploy {n.name!r} with "
                              f"{system_ir.word_bits}-bit words: {e}",
                              Pos(n.line, 1)) from None
    return system, config, machine


def _describe(item) -> dict:
    """An input or advance item as a divergence report shows it."""
    if isinstance(item, InputItem):
        return {"input": item.instance, "msg": item.msg,
                "args": [repr(a) for a in item.args], "from": item.sender}
    return {"advance": item.delta}


def _run_script(program: TypedProgram, start: tuple[System, Config, Machine],
                items: list, report: DiffReport | None,
                atomicity_log: list | None) -> DiffReport:
    """run_differential from a start that _start built, on a fork of its
    machine. The run ends at its first divergence: past it, the two sides
    no longer start from the same state.

    A cascade that never quiesces takes nothing. An input whose cascade
    runs away is a rejection, which the target's revert matches. An
    instance's wake after an advance that runs away is not taken, and the
    target's wake of it, which reverts with DefensiveCheckFailed (its tau
    closure diverges), agrees: the run goes on from the wakes of the other
    instances, and their reverts are still wake-failures."""
    report = report or DiffReport()
    system, config, machine = start
    machine = machine.fork()
    report.trials += 1

    for pos, item in enumerate(items):
        if not isinstance(item, (InputItem, AdvanceItem)):
            check_item(item, system, config)  # an assertion, on the cascade
            continue
        report.items += 1
        found = None  # (kind, detail) of a divergence at this item
        if isinstance(item, InputItem):
            letter = item.letter
            try:
                new_config, events = env_input(
                    system, config, input_target(system, item), letter)
            except (Rejected, CascadeLimit):
                accepted = False  # a cascade that never quiesces accepts nothing
            else:
                accepted = True
                check_item(item, system, new_config)
            if atomicity_log is not None:
                pre_hash = machine.storage_hash()
            res = machine.transact(item.instance, item.msg,
                                   letter.sender, tuple(map(flat, letter.args)))
            if res.committed:
                report.committed += 1
                if not accepted:
                    found = ("committed-but-rejected",
                             "transaction committed but the cascade rejects it")
                else:
                    config = new_config
                    found = _mismatch(program, machine, config, events, [res])
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
                results = machine.wake()
                try:
                    config, events = wake_internal(system, new_config)
                except CascadeLimit as e:  # a wake that never quiesces is not taken
                    config, events = e.config, e.events
                    # nor on the target, whose tau closure diverges
                    results = [r for r in results if r.reason != "DefensiveCheckFailed"]
                bad = [r for r in results if not r.committed
                       and r.reason != "Overflow"]
                if bad:
                    found = ("wake-failure", f"timer wake-up reverted: {bad[0].reason}")
                else:
                    found = _mismatch(program, machine, config, events, results)
        if found:
            script = [_describe(i) for i in items[:pos + 1]
                      if isinstance(i, (InputItem, AdvanceItem))]
            report.divergences.append(Divergence(script[-1], *found, script))
            return report
    return report


# ---------------------------------------------------------------------------
# Random scripts and the top-level differential entry
# ---------------------------------------------------------------------------


def _draw_plan(program: TypedProgram, news: list[NewItem]) -> tuple[list, list, bool]:
    """What every random script over the system draws from: its targets,
    each (instance, message, parameter types, senders), the address pool,
    and whether any instance has a timer to advance."""
    actors = ["alice", "bob", "carol"]
    addr_pool = actors + [n.name for n in news] + [ADDR_NONE]
    targets = []
    has_timers = False
    for n in news:
        tc = program.contract(n.contract)
        has_timers = has_timers or tc.has_timers()
        senders = actors + [n.creator]
        for msg, sig in tc.msg_sigs.items():
            targets.append((n.name, msg, sig, senders))
    if not targets:
        raise ScriptError("no instance receives a message: there is nothing to send")
    return targets, addr_pool, has_timers


def random_items(program: TypedProgram, news: list[NewItem], rng: random.Random,
                 length: int = 12, coin_max: int = 9, plan: tuple | None = None) -> list:
    """Type-driven random message sequence over the instantiated system.
    `plan` is `_draw_plan(program, news)`, for a caller that draws many."""
    targets, addr_pool, has_timers = plan or _draw_plan(program, news)
    items: list = []
    for i in range(length):
        if has_timers and rng.random() < 0.15:
            items.append(AdvanceItem(rng.randint(1, 6), i))
            continue
        name, msg, sig, senders = rng.choice(targets)
        args = []
        for t in sig:
            if t.kind == "coin":
                args.append(Coin(rng.randint(0, coin_max)))
            elif t.kind in ("int", "nat"):
                args.append(rng.randint(0, coin_max))
            elif t.kind == "bool":
                args.append(rng.random() < 0.5)
            elif t.kind == "address":
                args.append(rng.choice(addr_pool))
            else:
                args.append(zero_value(t))
        items.append(InputItem(name, msg, tuple(args), rng.choice(senders), i))
    return items


def differential_check(program: TypedProgram, news: list[NewItem], R: int,
                       word_bits: int, trials: int, seed: int = 0,
                       length: int = 12, coin_max: int = 9,
                       atomicity_log: list | None = None) -> DiffReport:
    """`trials` random scripts compared transaction-for-transaction.

    The scripts are split into contiguous shares, one per usable CPU
    (`_usable_cpus`): this process runs the first and a forked child each
    other one. Every share draws the scripts before its own from its own
    `random.Random(seed)`, so it runs the scripts a serial loop runs, and
    the shares are merged in order: the report and `atomicity_log` are
    those of one serial run. A share whose child sends no result is run
    here, so a failure is raised as a serial run raises it."""
    report = DiffReport()
    cap = min(coin_max, (1 << word_bits) - 1)
    start = _start(program, lower(program, R, word_bits), news, R)
    plan = _draw_plan(program, news)

    def run_share(share: range, report: DiffReport, log: list | None):
        rng = random.Random(seed)
        for i in range(share.stop):
            items = random_items(program, news, rng, length, cap, plan)
            if i >= share.start:
                _run_script(program, start, items, report, log)

    n = max(1, min(trials, _usable_cpus())) if hasattr(os, "fork") else 1
    shares = [range(trials * k // n, trials * (k + 1) // n) for k in range(n)]
    import pickle  # here, not at the top: every set-up imports this module
    import signal

    def run_child(share):
        part = (DiffReport(), None if atomicity_log is None else [])
        run_share(share, *part)
        return pickle.dumps(part)

    children = []  # (share, pid, read end) of each child not yet collected
    try:
        for share in shares[1:]:
            _fork(run_child, share, children)
        run_share(shares[0], report, atomicity_log)
        while children:
            share, pid, fd = children.pop(0)
            got = _collect(pid, fd)
            if got is None:  # no result: run the share here, as a serial run would
                run_share(share, report, atomicity_log)
            else:
                _merge(report, atomicity_log, *pickle.loads(got))
    finally:  # stop the children of shares not collected, then reap them
        for _, pid, _ in children:
            if pid is not None:
                os.kill(pid, signal.SIGKILL)
        for _, pid, fd in children:
            _collect(pid, fd)
    return report


MAX_SHARES = 4  # every share repeats the draw before it; more were not measured


def _usable_cpus() -> int:
    """The CPUs this process may run on, no more than a cgroup CPU quota
    allows and at most MAX_SHARES, or 1 where the affinity cannot be read."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        return 1
    return max(1, min(cpus, _cpu_quota(), MAX_SHARES))


def _cpu_quota(root: str = "/sys/fs/cgroup") -> float:
    """The CPUs, rounded up, that the cgroup CPU quota under root allows:
    cgroup v2's `cpu.max`, or v1's `cpu.cfs_quota_us` over
    `cpu.cfs_period_us`. Infinite where no quota is set or read."""
    try:
        quota, period = Path(root, "cpu.max").read_text().split()
    except (OSError, ValueError):
        try:
            quota = Path(root, "cpu", "cpu.cfs_quota_us").read_text().strip()
            period = Path(root, "cpu", "cpu.cfs_period_us").read_text().strip()
        except OSError:
            return math.inf
    if quota in ("max", "-1"):
        return math.inf
    return -(-int(quota) // int(period))


def _fork(run, share, children: list) -> None:
    """Append `(share, pid, read end)` for a child that writes `run(share)`,
    a bytes object, to a pipe and exits 0, or exits 1 having written
    nothing if run raises; it never returns into the caller. Where no
    process can be made, append `(share, None, None)`. Signals are held
    from the fork until the child is on the list, so no interrupt loses it."""
    import signal
    r, w = os.pipe()
    held = signal.pthread_sigmask(signal.SIG_BLOCK, signal.valid_signals())
    try:
        pid = os.fork()
    except OSError:
        os.close(r)
        pid = r = None
    if pid == 0:
        status = 1
        try:
            signal.pthread_sigmask(signal.SIG_SETMASK, held)
            os.close(r)
            with open(w, "wb") as out:
                out.write(run(share))
            status = 0
        finally:
            os._exit(status)
    children.append((share, pid, r))
    signal.pthread_sigmask(signal.SIG_SETMASK, held)
    os.close(w)


def _collect(pid: int | None, fd: int | None) -> bytes | None:
    """What a child from _fork wrote, once it has exited 0, or None. Closes
    the read end and reaps the child, killing it first if the read is
    interrupted."""
    if pid is None:
        return None
    import signal
    data = None
    try:
        with open(fd, "rb") as f:
            data = f.read()
    finally:
        if data is None:
            os.kill(pid, signal.SIGKILL)
        _, status = os.waitpid(pid, 0)
    return data if os.waitstatus_to_exitcode(status) == 0 else None


def _merge(report: DiffReport, atomicity_log: list | None,
           part: DiffReport, part_log: list | None) -> None:
    """Add a later share's report and atomicity entries to the merged ones:
    every field of a DiffReport adds, the counts as sums and the
    divergences in order."""
    for f in fields(part):
        setattr(report, f.name, getattr(report, f.name) + getattr(part, f.name))
    if atomicity_log is not None:
        atomicity_log.extend(part_log)
