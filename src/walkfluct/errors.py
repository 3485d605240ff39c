"""Exception and warning types shared across the package."""

from __future__ import annotations

__all__ = [
    "WalkfluctError", "DomainError", "PoleError", "UnsupportedModel", "InvalidSpec",
    "NoConvergence", "EvalError", "ZeroOnContour", "NonIntegerWinding",
    "CountMismatch", "PreconditionViolated", "StabilityError", "ParseError",
    "HoelderSuspect",
]


class WalkfluctError(Exception):
    """Base class for all package-specific errors."""


class DomainError(WalkfluctError):
    """Evaluation point lies outside the guaranteed analyticity region."""


class PoleError(WalkfluctError):
    """Transform argument hits a pole of a rational kernel."""


class UnsupportedModel(WalkfluctError):
    """The model or engine lacks what the call needs: kernel, sampler or route."""


class InvalidSpec(WalkfluctError):
    """Model construction parameters violate a structural requirement."""


class NoConvergence(WalkfluctError):
    """Truncation ladder failed to stabilise within the requested tolerance."""

    def __init__(self, message: str, best: complex | None = None,
                 abs_err: float | None = None):
        super().__init__(message)
        self.best = best
        self.abs_err = abs_err


class EvalError(WalkfluctError):
    """Density evaluation failed at a quadrature node."""


class ZeroOnContour(WalkfluctError):
    """Winding-number contour passes through (or too near) a zero."""


class NonIntegerWinding(WalkfluctError):
    """Accumulated argument does not close to an integer multiple of 2 pi."""


class CountMismatch(WalkfluctError):
    """Located roots disagree with the argument-principle count."""


class PreconditionViolated(WalkfluctError):
    """Arguments fall outside the regime where the kernel-zero count is known."""


class StabilityError(WalkfluctError):
    """Operation at z = 1 requires a stable walk (negative drift)."""


class ParseError(WalkfluctError):
    """Model file is malformed."""

    def __init__(self, message: str, line: int | None = None,
                 field: str | None = None):
        loc = []
        if line is not None:
            loc.append(f"line {line}")
        if field is not None:
            loc.append(f"field {field!r}")
        if loc:
            message = f"{message} ({', '.join(loc)})"
        super().__init__(message)
        self.line = line
        self.field = field


class HoelderSuspect(UserWarning):
    """Boundary density looks rougher than the smoothness the quadrature assumes."""
