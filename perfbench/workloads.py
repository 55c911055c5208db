"""The benchmark's four workloads.

Each workload does its set-up (parse, typecheck, proof-sketch parse) in its
constructor and one pass of work in `run_pass`, which returns a `PassOutcome`.
Every outcome is checked against the pinned table (`pinned.json`); a
mismatch or an exception counts as a failed operation and never aborts the
run.

All calls into the toolchain go through module attributes (`_prove.check_proof`,
`_diff.differential_check`, ...) so that the traced run can wrap them.
"""
from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from pathlib import Path

from asp import diff as _diff
from asp import discharge as _discharge
from asp import lower as _lower
from asp import parser as _parser
from asp import prove as _prove
from asp import sketch as _sketch
from asp import smtlib as _smtlib
from asp import solidity as _solidity
from asp import vcgen as _vcgen
from asp.discharge import Counterexample, DomainBounds, Valid
from asp.script import NewItem
from asp.smtlib import EmitUnsupported

# `asp.typecheck` names the function re-exported by the package, not the module
_typecheck = importlib.import_module("asp.typecheck")

# Sizes per profile. "full" is the benchmark; "smoke" is the self-test size.
PROFILES = {
    "full": {"proof_bounds": DomainBounds(3, 4, 4),
             "search_bounds": DomainBounds(3, 4, 4),
             "oracle_bounds": DomainBounds(2, 1, 2),
             "trials": (1000, 250)},
    "smoke": {"proof_bounds": DomainBounds(2, 2, 1),
              "search_bounds": DomainBounds(2, 2, 2),
              "oracle_bounds": DomainBounds(2, 0, 1),
              "trials": (20, 5)},
}

SCRIPT_LENGTH = 12  # items per differential script
R = 1  # reentrancy limit of every differential run
WORD_BITS = (256, 8)
COIN_MAX_8BIT = 120

# The criterion-9 pairs: every corpus proof with its contract.
ORACLE_PAIRS = (("auction.asp", "auction_refunds.aspproof"),
                ("auction.asp", "auction_closed.aspproof"),
                ("auction_norefund.asp", "auction_refunds.aspproof"),
                ("vending_fixed.asp", "vending_lockout.aspproof"),
                ("vending_machine.asp", "vending_lockout_original.aspproof"))

DIFF_SYSTEMS = (
    ("auction.asp", (NewItem("auction", "SimpleAuction", ("bene", 10), "alice", 0),)),
    ("etherstore_attack.asp", (NewItem("estore", "Etherstore", (), "deployer", 0),
                               NewItem("attacker", "Attacker", ("estore",), "mallory", 0))),
    ("vending_fixed.asp", (NewItem("vm", "VendingMachine", (), "own", 0),)),
    ("basic_coin.asp", (NewItem("bank", "BasicCoin", (), "own", 0),)),
)


@dataclass
class PassOutcome:
    items: int = 0  # verdicts or differential items checked
    attempted: int = 0  # operations checked against the pinned table
    failures: list[str] = field(default_factory=list)  # one entry per failed operation
    counts: dict = field(default_factory=dict)  # deterministic counts of the pass

    def fail(self, message: str, weight: int = 1):
        self.failures.extend([message] * weight)


def job_key(contract: str, proof: str) -> str:
    return f"{contract} + {proof}"


class Workload:
    name = ""

    def __init__(self, corpus: Path, profile: str, seed: int, pinned: dict):
        self.corpus = corpus
        self.sizes = PROFILES[profile]
        self.seed = seed
        self.pinned = pinned[profile][self.name]
        self._programs: dict = {}
        self._sketches: dict = {}

    def text(self, name: str) -> str:
        return (self.corpus / name).read_text(encoding="utf-8")

    def program(self, name: str):
        if name not in self._programs:
            self._programs[name] = _typecheck.typecheck(
                _parser.parse_program(self.text(name)))
        return self._programs[name]

    def sketch(self, contract: str, proof: str):
        key = (contract, proof)
        if key not in self._sketches:
            self._sketches[key] = _sketch.parse_proof_sketch(
                self.text(proof), self.program(contract))
        return self._sketches[key]

    def run_pass(self) -> PassOutcome:
        raise NotImplementedError

    def emitted_bytes(self) -> int:
        """Size of the code the workload generates."""
        raise NotImplementedError


class _ProofWorkload(Workload):
    """`check_proof` on each job, then the explicit-state searches."""
    jobs: tuple = ()
    replay = False

    def __init__(self, corpus, profile, seed, pinned):
        super().__init__(corpus, profile, seed, pinned)
        self.job_inputs = [(job_key(c, p), self.program(c), self.sketch(c, p))
                           for c, p in self.jobs]
        self.search_inputs = self.searches()
        self.last_vcs: list = []

    def searches(self) -> list:
        return []

    def run_pass(self) -> PassOutcome:
        out = PassOutcome()
        bounds = self.sizes["proof_bounds"]
        leaves = vcs = refuted = 0
        self.last_vcs = []
        for key, prog, sk in self.job_inputs:
            want = self.pinned["jobs"][key]
            out.attempted += 1 + len(want["vcs"])
            try:
                report = _prove.check_proof(prog, sk, bounds)
            except Exception as e:  # the run goes on; the job's checks fail
                out.fail(f"{key}: {type(e).__name__}: {e}", 1 + len(want["vcs"]))
                continue
            got = {r.vc.name: r.result.status for r in report.results}
            self.last_vcs.extend(r.vc for r in report.results)
            vcs += len(got)
            out.items += len(got)
            leaves += sum(r.result.checked for r in report.results
                          if isinstance(r.result, Valid))
            if (report.valid, report.failed_states) != \
                    (want["valid"], want["failed_states"]):
                out.fail(f"{key}: valid={report.valid} failed_states="
                         f"{report.failed_states}")
            for name, status in want["vcs"].items():
                if got.get(name) != status:
                    out.fail(f"{key} / {name}: {got.get(name)} != {status}")
            if len(got) != len(want["vcs"]):
                out.fail(f"{key}: {len(got)} VCs != {len(want['vcs'])}")
            if not self.replay:
                continue
            for r in report.results:
                if not isinstance(r.result, Counterexample):
                    continue
                refuted += 1
                out.attempted += 1
                out.items += 1
                try:
                    if not _discharge.replay_counterexample(r.vc, bounds, r.result):
                        out.fail(f"{key} / {r.vc.name}: counterexample does not replay")
                except Exception as e:
                    out.fail(f"{key} / {r.vc.name}: replay {type(e).__name__}: {e}")
        out.counts = {"vcs": vcs, "leaves": leaves}
        if self.replay:
            out.counts["replays"] = refuted
        for label, run in self.search_inputs:
            want = self.pinned["searches"][label]
            out.attempted += 1
            out.items += 1
            try:
                rep = run()
            except Exception as e:
                out.fail(f"{label}: {type(e).__name__}: {e}")
                continue
            verdict = {"ok": rep.ok,
                       "losing_state": getattr(rep, "losing_state", None)}
            if verdict != want:
                out.fail(f"{label}: {verdict} != {want}")
            out.counts[f"states.{label}"] = rep.states
        return out

    def emitted_bytes(self) -> int:
        """SMT-LIB for every exportable VC of the last pass (untimed)."""
        total = 0
        for vc in self.last_vcs:
            try:
                total += len(_smtlib.emit_smtlib(vc).text.encode())
            except EmitUnsupported:
                pass
        return total


class ProveSafety(_ProofWorkload):
    name = "prove_safety"
    jobs = (("auction.asp", "auction_refunds.aspproof"),
            ("auction_norefund.asp", "auction_refunds.aspproof"))
    replay = True


class ProveLiveness(_ProofWorkload):
    name = "prove_liveness"
    jobs = (("auction.asp", "auction_closed.aspproof"),
            ("vending_fixed.asp", "vending_lockout.aspproof"),
            ("vending_machine.asp", "vending_lockout_original.aspproof"))

    def searches(self) -> list:
        bounds = self.sizes["search_bounds"]
        auction = self.program("auction.asp")
        closed = self.sketch("auction.asp", "auction_closed.aspproof")
        fixed = self.program("vending_fixed.asp")
        fixed_sk = self.sketch("vending_fixed.asp", "vending_lockout.aspproof")
        orig = self.program("vending_machine.asp")
        orig_sk = self.sketch("vending_machine.asp",
                              "vending_lockout_original.aspproof")
        # criterion-5 parameters for the auction search
        return [
            ("reach.auction_closed", lambda: _prove.reach_search(
                auction, closed, bounds,
                {"beneficiary": "P0", "bidding_time": 3}, creator="P1")),
            ("game.vending_fixed", lambda: _prove.game_solve(
                fixed, fixed_sk, bounds, {})),
            ("game.vending_machine", lambda: _prove.game_solve(
                orig, orig_sk, bounds, {})),
        ]


class OracleAgree(Workload):
    """Engine and raw-enumeration oracle on every VC of the criterion-9
    pairs, plus SMT-LIB export of every exportable VC."""
    name = "oracle_agree"

    def __init__(self, corpus, profile, seed, pinned):
        super().__init__(corpus, profile, seed, pinned)
        self.inputs = [(job_key(c, p), self.program(c), self.sketch(c, p))
                       for c, p in ORACLE_PAIRS]
        self.smt_bytes = 0

    def run_pass(self) -> PassOutcome:
        out = PassOutcome()
        bounds = self.sizes["oracle_bounds"]
        want_all = self.pinned["vcs"]
        c = {"vcs": 0, "valid": 0, "refuted": 0, "leaves": 0,
             "oracle_checked": 0, "exported": 0, "smtlib_bytes": 0}
        for key, prog, sk in self.inputs:
            try:
                vcs = _vcgen.generate_vcs(prog, sk)
            except Exception as e:
                n = sum(1 for k in want_all if k.startswith(key + " / "))
                out.attempted += n
                out.fail(f"{key}: generate_vcs {type(e).__name__}: {e}", n)
                continue
            for vc in vcs:
                name = f"{key} / {vc.name}"
                out.attempted += 1
                out.items += 1
                c["vcs"] += 1
                want = want_all.get(name)
                try:
                    fast = _discharge.discharge_bounded(vc, bounds)
                    slow = _discharge.discharge_naive(vc, bounds)
                    try:
                        size = len(_smtlib.emit_smtlib(vc).text.encode())
                    except EmitUnsupported:
                        size = None
                except Exception as e:
                    out.fail(f"{name}: {type(e).__name__}: {e}")
                    continue
                c["valid" if isinstance(fast, Valid) else "refuted"] += 1
                if isinstance(fast, Valid):
                    c["leaves"] += fast.checked
                if isinstance(slow, Valid):
                    c["oracle_checked"] += slow.checked
                if size is not None:
                    c["exported"] += 1
                    c["smtlib_bytes"] += size
                got = {"status": fast.status, "exportable": size is not None}
                if fast.status != slow.status:
                    out.fail(f"{name}: engine {fast.status} != oracle {slow.status}")
                elif got != want:
                    out.fail(f"{name}: {got} != {want}")
        if c["vcs"] != len(want_all):
            out.fail(f"{c['vcs']} VCs != {len(want_all)} pinned")
        self.smt_bytes = c["smtlib_bytes"]
        out.counts = c
        return out

    def emitted_bytes(self) -> int:
        return self.smt_bytes


class DiffFuzz(Workload):
    """Criterion-7 differential traffic, then Solidity for each system."""
    name = "diff_fuzz"

    def __init__(self, corpus, profile, seed, pinned):
        super().__init__(corpus, profile, seed, pinned)
        self.systems = [(c, self.program(c), list(news)) for c, news in DIFF_SYSTEMS]
        # contract name -> golden Solidity text
        self.golden = {name: self.text(path)
                       for name, path in self.pinned["golden"].items()}
        self.sol_bytes = 0

    def run_pass(self) -> PassOutcome:
        out = PassOutcome()
        c = {"items": 0, "committed": 0, "reverted": 0, "overflow_gaps": 0,
             "divergences": 0, "solidity_bytes": 0}
        # seed 42, the default, reproduces criterion 7 (seeds 42 and 43)
        runs = ((WORD_BITS[0], self.sizes["trials"][0], self.seed, 9),
                (WORD_BITS[1], self.sizes["trials"][1], self.seed + 1, COIN_MAX_8BIT))
        for contract, prog, news in self.systems:
            for bits, trials, seed, coin_max in runs:
                n = trials * SCRIPT_LENGTH
                out.attempted += n
                try:
                    rep = _diff.differential_check(
                        prog, news, R=R, word_bits=bits, trials=trials,
                        seed=seed, length=SCRIPT_LENGTH, coin_max=coin_max)
                except Exception as e:
                    out.fail(f"{contract} word_bits={bits}: {type(e).__name__}: {e}", n)
                    continue
                out.items += rep.items
                for key in ("items", "committed", "reverted", "overflow_gaps"):
                    c[key] += getattr(rep, key)
                c["divergences"] += len(rep.divergences)
                for d in rep.divergences:
                    out.fail(f"{contract} word_bits={bits}: {d.kind}: {d.detail}")
                if bits == WORD_BITS[0] and rep.overflow_gaps:
                    out.fail(f"{contract}: {rep.overflow_gaps} overflow gaps "
                             f"at word_bits={bits}", rep.overflow_gaps)
            out.attempted += 1
            try:
                sol = _solidity.emit_system(_lower.lower(prog, R, WORD_BITS[0]))
            except Exception as e:
                out.fail(f"{contract}: emit_system {type(e).__name__}: {e}")
                continue
            c["solidity_bytes"] += sum(len(t.encode()) for t in sol.values())
            for name in sol.keys() & self.golden.keys():
                out.attempted += 1
                if sol[name] != self.golden[name]:
                    out.fail(f"{name}: Solidity differs from {self.pinned['golden'][name]}")
        self.sol_bytes = c["solidity_bytes"]
        out.counts = c
        return out

    def emitted_bytes(self) -> int:
        return self.sol_bytes


WORKLOADS = {w.name: w for w in (ProveSafety, ProveLiveness, OracleAgree, DiffFuzz)}
