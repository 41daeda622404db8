"""Diagnostics shared by the parsers, translators and engine, and the error
the engine raises, which the CLI reports as a diagnostic.

Codes are short stable identifiers; the documented set lives in the README.
"""

from __future__ import annotations

from .node import Node

ERROR = "error"
WARNING = "warning"
INFO = "info"


class Diagnostic(Node):
    # severity is one of ERROR, WARNING, INFO; location is (line, column)
    __slots__ = ("severity", "code", "message", "location")
    _defaults = (None,)

    def _validate(self):
        if self.severity not in (ERROR, WARNING, INFO):
            raise ValueError(f"bad severity: {self.severity!r}")

    def __str__(self):
        """The line the CLI prints: ``severity: code: message at line:col``."""
        loc = f" at {self.location[0]}:{self.location[1]}" if self.location else ""
        return f"{self.severity}: {self.code}: {self.message}{loc}"


def has_errors(diagnostics) -> bool:
    return any(d.severity == ERROR for d in diagnostics)


class EngineError(Exception):
    """The engine refuses a program or a goal; ``code`` is the diagnostic
    code it reports under."""

    def __init__(self, code: str, message: str):
        super().__init__(f"{code}: {message}")
        self.code = code
        self.message = message
