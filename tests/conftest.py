import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

CORPUS = ROOT / "corpus"


# The (contract, proof) pairs whose VCs criterion 9 checks, 59 in all.
CRITERION_9_PAIRS = [
    ("auction.asp", "auction_refunds.aspproof"),
    ("auction.asp", "auction_closed.aspproof"),
    ("auction_norefund.asp", "auction_refunds.aspproof"),
    ("vending_fixed.asp", "vending_lockout.aspproof"),
    ("vending_machine.asp", "vending_lockout_original.aspproof"),
]


def load(name: str) -> str:
    return (CORPUS / name).read_text(encoding="utf-8")


def typed(name: str):
    from asp.parser import parse_program
    from asp.typecheck import typecheck
    return typecheck(parse_program(load(name)))


@pytest.fixture(scope="session")
def auction():
    return typed("auction.asp")


@pytest.fixture(scope="session")
def etherstore():
    return typed("etherstore_attack.asp")


@pytest.fixture(scope="session")
def vending_fixed():
    return typed("vending_fixed.asp")


@pytest.fixture(scope="session")
def vending_original():
    return typed("vending_machine.asp")


@pytest.fixture(scope="session")
def basic_coin():
    return typed("basic_coin.asp")


ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
