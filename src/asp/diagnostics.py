"""Positions, diagnostics, and the toolchain error hierarchy.

Machine-readable output is JSON lines: one object per diagnostic with
stable field names (severity, code, line, col, message, file).
"""
from __future__ import annotations

import json
from dataclasses import dataclass


@dataclass(frozen=True)
class Pos:
    line: int = 0  # 1-based; 0 = unknown
    col: int = 0

    def __str__(self):
        return f"{self.line}:{self.col}"


NOPOS = Pos()


@dataclass
class Diagnostic:
    severity: str  # "error" | "warning"
    code: str
    message: str
    pos: Pos = NOPOS
    file: str | None = None

    def to_json(self) -> str:
        return json.dumps(
            {
                "severity": self.severity,
                "code": self.code,
                "line": self.pos.line,
                "col": self.pos.col,
                "message": self.message,
                "file": self.file,
            }
        )


class AspError(Exception):
    """Base for all front-end and harness errors carrying a diagnostic."""

    code = "error"

    def __init__(self, message: str, pos: Pos = NOPOS):
        super().__init__(message)
        self.message = message
        self.pos = pos

    def diagnostic(self, file: str | None = None) -> Diagnostic:
        return Diagnostic("error", self.code, self.message, self.pos, file)


class LexError(AspError):
    code = "LexError"


class ParseError(AspError):
    code = "ParseError"

    def __init__(self, message: str, pos: Pos = NOPOS, expected: tuple = ()):
        super().__init__(message, pos)
        self.expected = tuple(expected)


class TypecheckError(AspError):
    """Carries the error taxonomy in `code`: GhostLeak, CoinDropped,
    RefRequired, SignatureMismatch, UnknownState, or TypeError."""

    def __init__(self, code: str, message: str, pos: Pos = NOPOS):
        super().__init__(message, pos)
        self.code = code


class UsageError(AspError):
    """A bad flag, configuration value or external tool: exit code 2."""
    code = "UsageError"


class InputError(UsageError):
    """An input file that cannot be read: exit code 2."""
    code = "IOError"


class CompileError(AspError):
    """A contract the Solidity back end has no layout for."""
    code = "CompileError"


class SketchError(AspError):
    code = "SketchError"


class ScriptError(AspError):
    code = "ScriptError"
