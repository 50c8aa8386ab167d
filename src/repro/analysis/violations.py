"""The finding record shared by every simlint rule."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Violation:
    """One rule hit, anchored to a file:line with the offending source text.

    ``line_text`` (stripped) is part of the fingerprint instead of the line
    number so that unrelated edits above a finding keep its identity.
    """

    rule: str
    path: str  # posix-style path relative to the lint root
    line: int  # 1-based
    col: int  # 0-based, as reported by ast
    message: str
    line_text: str = ""

    @property
    def fingerprint(self) -> str:
        return "{}|{}|{}".format(self.rule, self.path, self.line_text.strip())

    def render(self) -> str:
        return "{}:{}:{}: {} {}".format(
            self.path, self.line, self.col + 1, self.rule, self.message
        )

    def to_dict(self) -> dict:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "line_text": self.line_text,
            "fingerprint": self.fingerprint,
        }


def sort_key(violation: Violation) -> tuple:
    return (violation.path, violation.line, violation.col, violation.rule)
