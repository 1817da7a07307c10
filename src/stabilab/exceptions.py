"""Exception types shared across the package."""

from __future__ import annotations


class DomainError(ValueError):
    """An input lies outside the certified domain of a loss model."""


class ConvergenceError(RuntimeError):
    """An iterative solver stopped before reaching its tolerance.

    Carries the certificate value that was achieved so callers can decide
    whether the partial answer is usable, and for a stacked solve the row
    that did not converge.
    """

    def __init__(self, message: str, achieved: float, row: int | None = None):
        where = "" if row is None else f" in row {row}"
        super().__init__(f"{message}{where} (achieved certificate {achieved:.3e})")
        self.message = message
        self.achieved = achieved
        self.row = row


class NonFiniteIterateError(RuntimeError):
    """An optimization iterate became NaN or infinite."""

    def __init__(self, step: int):
        super().__init__(f"iterate became non-finite at step {step}")
        self.step = step
