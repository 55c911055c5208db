"""Spans around the toolchain's public entry points, for the traced run.

`Tracer.install` replaces each entry point in `ENTRY_POINTS` with a wrapper,
at the module attribute where its caller looks it up (`asp.prove.discharge_bounded`
for `check_proof`, `asp.diff.env_input` for `run_differential`, ...). Nothing
in the toolchain changes: the wrappers live here and `uninstall` restores the
originals. Each wrapper records a span (name, start, end, parent, pass) in
flat arrays and adds the counts it reads from the return value to the
current pass's counter. `layer_metrics` turns spans and counts into the
per-layer metrics.
"""
from __future__ import annotations

import importlib
import statistics
import time
from array import array
from collections import Counter

SETUP = -1  # pass id of spans recorded during set-up


def _stack_peak(events, c):
    for ev in events:
        c["cascade.steps"] += 1
        c["cascade.events." + ev.rule] += 1
        if ev.stack_after:
            occ = max(ev.stack_after.count(i) for i in set(ev.stack_after))
            if occ > c["cascade.peak_stack_occ"]:
                c["cascade.peak_stack_occ"] = occ


def _on_env_input(r, c, dt):
    c["cascade.accepted"] += 1
    _stack_peak(r[1], c)


def _on_tx(r, c, dt):
    if r.committed:
        c["interp.committed"] += 1
    else:
        c["interp.reverts." + r.reason] += 1


def _on_wake(results, c, dt):
    for r in results:
        if not r.committed:
            c["interp.reverts." + r.reason] += 1


def _on_discharge(r, c, dt):
    if r.status == "valid":
        c["discharge.leaves"] += r.checked
    elif r.status == "counterexample":
        c["discharge.refuted"] += 1
        c["discharge.refute_s"] += dt


def _on_naive(r, c, dt):
    if r.status == "valid":
        c["oracle.checked"] += r.checked


def _on_diff(r, c, dt):
    c["diff.items"] += r.items
    c["diff.committed"] += r.committed
    c["diff.overflow_gaps"] += r.overflow_gaps
    c["diff.divergences"] += len(r.divergences)


def _add(key, f):
    def hook(r, c, dt):
        c[key] += f(r)
    return hook


# (layer, module, attribute, count hook). Entries that share a function
# but differ in the module their caller reads it from get one wrapper each.
ENTRY_POINTS = (
    ("frontend", "asp.parser", "parse_program", _add("parser.contracts", lambda r: len(r.contracts))),
    ("frontend", "asp.typecheck", "typecheck", _add("typecheck.contracts", lambda r: len(r.contracts))),
    ("frontend", "asp.sketch", "parse_proof_sketch", _add("sketch.sketches", lambda r: 1)),
    ("vcgen", "asp.vcgen", "generate_vcs", _add("vcgen.vcs", len)),
    ("vcgen", "asp.prove", "generate_vcs", _add("vcgen.vcs", len)),
    ("discharge", "asp.discharge", "discharge_bounded", _on_discharge),
    ("discharge", "asp.prove", "discharge_bounded", _on_discharge),
    ("discharge", "asp.discharge", "replay_counterexample", None),
    ("oracle", "asp.discharge", "discharge_naive", _on_naive),
    ("smtlib", "asp.smtlib", "emit_smtlib", _add("smtlib.bytes", lambda r: len(r.text.encode()))),
    ("prove", "asp.prove", "check_proof", None),
    ("prove", "asp.prove", "reach_search", _add("prove.reach_states", lambda r: r.states)),
    ("prove", "asp.prove", "game_solve", _add("prove.game_states", lambda r: r.states)),
    ("cascade", "asp.diff", "env_input", _on_env_input),
    ("cascade", "asp.diff", "time_advance", lambda r, c, dt: _stack_peak((r[1],), c)),
    ("cascade", "asp.diff", "wake_internal", lambda r, c, dt: _stack_peak(r[1], c)),
    ("cascade", "asp.diff", "init_system", None),
    ("lower", "asp.diff", "lower", None),
    ("lower", "asp.lower", "lower", None),
    ("interp", "asp.interp", "Machine.transact", _on_tx),
    ("interp", "asp.interp", "Machine.storage_hash", None),
    ("interp", "asp.interp", "Machine.advance", None),
    ("interp", "asp.interp", "Machine.wake", _on_wake),
    ("diff", "asp.diff", "differential_check", _on_diff),
    ("diff", "asp.diff", "run_differential", None),
    ("diff", "asp.diff", "compare_states", None),
    ("diff", "asp.diff", "random_items", None),
    ("solidity", "asp.solidity", "emit_system",
     _add("solidity.bytes", lambda r: sum(len(t.encode()) for t in r.values()))),
)

LAYERS = ("frontend", "vcgen", "discharge", "oracle", "smtlib", "prove",
          "cascade", "lower", "interp", "diff", "solidity")


def _owner(module: str, attr: str):
    obj = importlib.import_module(module)
    *path, name = attr.split(".")
    for p in path:
        obj = getattr(obj, p)
    return obj, name


def span_name(fn) -> str:
    return f"{fn.__module__.removeprefix('asp.')}.{fn.__qualname__}"


class Tracer:
    """In-memory span recorder. Spans are kept in flat arrays (about 28
    bytes each) so that a traced `diff_fuzz` pass, ~215k spans, stays small."""

    def __init__(self):
        self.names: list[str] = []  # span name per name id
        self.layer_of: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("l")
        self.pass_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.current = SETUP
        self.counts: dict[int, Counter] = {SETUP: Counter()}
        self._saved: list = []

    def begin_pass(self, pass_no: int):
        self.current = pass_no
        self.counts[pass_no] = Counter()

    def _name_id(self, name: str, layer: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.layer_of.append(layer)
        return self._ids[name]

    def _wrap(self, fn, layer, hook):
        nid = self._name_id(span_name(fn), layer)
        clock = time.perf_counter
        stack = self.stack

        def traced(*args, **kwargs):
            idx = len(self.name)
            self.name.append(nid)
            self.parent.append(stack[-1])
            self.pass_id.append(self.current)
            self.start.append(0.0)
            self.end.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            if hook is not None:
                hook(result, self.counts[self.current], t1 - t0)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        for layer, module, attr, hook in ENTRY_POINTS:
            owner, name = _owner(module, attr)
            fn = getattr(owner, name)
            self._saved.append((owner, name, fn))
            setattr(owner, name, self._wrap(fn, layer, hook))

    def uninstall(self):
        while self._saved:
            owner, name, fn = self._saved.pop()
            setattr(owner, name, fn)

    def write_tsv(self, path):
        """One line per span: id, name, parent id, pass, start, end."""
        with open(path, "w", encoding="utf-8") as f:
            f.write("id\tname\tparent\tpass\tstart\tend\n")
            for i in range(len(self.name)):
                f.write(f"{i}\t{self.names[self.name[i]]}\t{self.parent[i]}\t"
                        f"{self.pass_id[i]}\t{self.start[i]!r}\t{self.end[i]!r}\n")

    def aggregate(self, passes: set[int]) -> dict:
        """Per span name over the given passes: calls, total and self
        seconds, busy seconds (spans whose parent is in another layer) and
        the durations. Self time is a span's duration minus the time its
        child spans cover."""
        n = len(self.name)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        covered = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                covered[p] += dur[i]
        out: dict = {}
        for i in range(n):
            if self.pass_id[i] not in passes:
                continue
            nid = self.name[i]
            a = out.get(self.names[nid])
            if a is None:
                a = out[self.names[nid]] = {"layer": self.layer_of[nid], "calls": 0,
                                            "total": 0.0, "self": 0.0, "busy": 0.0,
                                            "durations": []}
            a["calls"] += 1
            a["total"] += dur[i]
            a["self"] += dur[i] - covered[i]
            a["durations"].append(dur[i])
            p = self.parent[i]
            if p < 0 or self.layer_of[self.name[p]] != a["layer"]:
                a["busy"] += dur[i]
        return out


def _ms_per(seconds: float, calls: int) -> float:
    return 1000 * seconds / calls if calls else 0.0


def _per_s(count: float, seconds: float) -> float:
    return count / seconds if seconds else 0.0


def layer_metrics(tr: Tracer, traced: list[int], traced_s: list[float],
                  untraced_s: list[float], reasons: tuple[str, ...]) -> dict:
    """Per-layer metrics of the traced passes, per pass, as {name: (value, unit)}."""
    k = len(traced)
    spans = tr.aggregate(set(traced))
    setup = tr.aggregate({SETUP})
    counts = Counter()
    for p in traced:
        counts.update(tr.counts[p])
    counts = {key: v / k for key, v in counts.items()}
    cs = tr.counts[SETUP]
    pass_s = statistics.median(traced_s)
    mean_pass_s = sum(traced_s) / k  # shares divide per-pass means by this

    def span(name):
        return spans.get(name, {}).get("total", 0.0)

    def calls(name):
        return spans.get(name, {}).get("calls", 0) / k

    def layer(name, field):
        src = setup if name == "frontend" else spans
        total = sum(a[field] for a in src.values() if a["layer"] == name)
        return total if name == "frontend" else total / k

    def med_ms(name):
        d = spans.get(name, {}).get("durations", [])
        return 1000 * statistics.median(d) if d else 0.0

    m: dict = {}
    for name in LAYERS:
        m[f"{name}.self_s"] = (layer(name, "self"), "s")
        if name != "frontend":
            m[f"{name}.share"] = (layer(name, "self") / mean_pass_s, "ratio")
    m["parser.parse_ms"] = (_ms_per(setup.get("parser.parse_program", {}).get("total", 0.0),
                                    cs["parser.contracts"]), "ms")
    m["typecheck.check_ms"] = (_ms_per(setup.get("typecheck.typecheck", {}).get("total", 0.0),
                                       cs["typecheck.contracts"]), "ms")
    m["sketch.parse_ms"] = (_ms_per(setup.get("sketch.parse_proof_sketch", {}).get("total", 0.0),
                                    cs["sketch.sketches"]), "ms")
    m["vcgen.generate_ms"] = (med_ms("vcgen.generate_vcs"), "ms")
    m["vcgen.vcs"] = (counts.get("vcgen.vcs", 0), "count")

    discharge_busy = layer("discharge", "busy")
    bounded_s = span("discharge.discharge_bounded") / k
    m["discharge.busy_s"] = (discharge_busy, "s")
    m["discharge.vc_ms.p50"] = (med_ms("discharge.discharge_bounded"), "ms")
    m["discharge.leaves"] = (counts.get("discharge.leaves", 0), "count")
    m["discharge.leaves_per_s"] = (_per_s(counts.get("discharge.leaves", 0), bounded_s), "1/s")
    m["discharge.refute_ms"] = (_ms_per(counts.get("discharge.refute_s", 0.0),
                                        counts.get("discharge.refuted", 0)), "ms")
    m["discharge.replay_ms"] = (med_ms("discharge.replay_counterexample"), "ms")

    oracle_busy = layer("oracle", "busy")
    m["oracle.busy_s"] = (oracle_busy, "s")
    m["oracle.checked"] = (counts.get("oracle.checked", 0), "count")
    m["oracle.checked_per_s"] = (_per_s(counts.get("oracle.checked", 0), oracle_busy), "1/s")

    m["smtlib.emit_ms"] = (_ms_per(span("smtlib.emit_smtlib") / k, calls("smtlib.emit_smtlib")), "ms")
    m["smtlib.bytes"] = (counts.get("smtlib.bytes", 0), "count")

    for search, fn in (("reach", "prove.reach_search"), ("game", "prove.game_solve")):
        states = counts.get(f"prove.{search}_states", 0)
        m[f"prove.{search}_states"] = (states, "count")
        m[f"prove.{search}_states_per_s"] = (_per_s(states, span(fn) / k), "1/s")

    cascade_busy = layer("cascade", "busy")
    steps = counts.get("cascade.steps", 0)
    m["cascade.busy_s"] = (cascade_busy, "s")
    m["cascade.steps"] = (steps, "count")
    m["cascade.steps_per_s"] = (_per_s(steps, cascade_busy), "1/s")
    env_calls = calls("cascade.env_input")
    m["cascade.accept_ratio"] = (counts.get("cascade.accepted", 0) / env_calls
                                 if env_calls else 0.0, "ratio")
    m["cascade.peak_stack_occ"] = (max((tr.counts[p]["cascade.peak_stack_occ"]
                                        for p in traced), default=0), "count")
    for rule in ("EnvInput", "SyncPush", "Pop", "LocalTau", "EnvOutput", "TimeAdvance"):
        m[f"cascade.events.{rule}"] = (counts.get(f"cascade.events.{rule}", 0), "count")

    m["lower.busy_s"] = (layer("lower", "busy"), "s")
    m["lower.calls"] = (calls("lower.lower"), "count")

    tx_calls = calls("interp.Machine.transact")
    m["interp.busy_s"] = (layer("interp", "busy"), "s")
    m["interp.tx_per_s"] = (_per_s(tx_calls, span("interp.Machine.transact") / k), "1/s")
    m["interp.commit_ratio"] = (counts.get("interp.committed", 0) / tx_calls
                                if tx_calls else 0.0, "ratio")
    m["interp.hash_busy_s"] = (span("interp.Machine.storage_hash") / k, "s")
    m["interp.hash_share"] = (span("interp.Machine.storage_hash") / k / mean_pass_s, "ratio")
    for reason in reasons:
        m[f"interp.reverts.{reason}"] = (counts.get(f"interp.reverts.{reason}", 0), "count")

    m["diff.compare_busy_s"] = (span("diff.compare_states") / k, "s")
    m["diff.gen_busy_s"] = (span("diff.random_items") / k, "s")
    m["diff.items"] = (counts.get("diff.items", 0), "count")
    m["diff.overflow_gaps"] = (counts.get("diff.overflow_gaps", 0), "count")
    m["diff.divergences"] = (counts.get("diff.divergences", 0), "count")

    m["solidity.emit_ms"] = (_ms_per(span("solidity.emit_system") / k,
                                     calls("solidity.emit_system")), "ms")
    m["solidity.bytes"] = (counts.get("solidity.bytes", 0), "count")

    m["trace.spans"] = (sum(a["calls"] for a in spans.values()) / k, "count")
    m["trace.pass_s"] = (pass_s, "s")
    m["trace.untraced_pass_s"] = (statistics.median(untraced_s), "s")
    m["trace.overhead"] = (pass_s / statistics.median(untraced_s) - 1, "ratio")
    return m

