"""Shared exception types."""

from __future__ import annotations

__all__ = ["GuardError", "EdgeListFormatError"]


class GuardError(RuntimeError):
    """A job was refused because its predicted cost exceeds a budget.

    estimate holds the predicted figures and the budgets they were checked
    against, so a caller can report what the job would have cost.
    """

    def __init__(self, message: str, estimate: dict | None = None):
        super().__init__(message)
        self.estimate = dict(estimate or {})


class EdgeListFormatError(ValueError):
    """Malformed edge-list text; reports the offending line."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line
