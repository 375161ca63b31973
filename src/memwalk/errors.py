"""Exception types shared across the package.

The CLI maps these onto distinct process exit codes, so raising the right
class matters: ValidationError (and subclasses) for malformed inputs,
ConstraintViolationError for coin-shift tables that would break unitarity,
NumericalCheckError for runtime numerical checks that fail.
"""

from __future__ import annotations

__all__ = [
    "MemwalkError",
    "ValidationError",
    "InvalidGraphError",
    "FactorizationError",
    "ConstraintViolationError",
    "NumericalCheckError",
]


class MemwalkError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(MemwalkError, ValueError):
    """Malformed or unsupported input: bad graph parameters, bad specs."""


class InvalidGraphError(ValidationError):
    """Graph construction arguments that cannot yield a simple regular digraph."""


class FactorizationError(ValidationError):
    """A proposed arc-class decomposition is not a dicycle factorization."""


class ConstraintViolationError(MemwalkError):
    """A coin-shift table violates the per-target permutation constraint.

    Carries the list of target vertices whose incoming coin labels fail to
    form a permutation, so callers can report exactly where unitarity breaks.
    """

    def __init__(self, message: str, violations: list[int] | None = None):
        super().__init__(message)
        self.violations = violations or []


class NumericalCheckError(MemwalkError):
    """A runtime numerical invariant (norm drift, residual bound) failed."""
