"""Exception hierarchy for operator, lattice, context, and history checks."""

from __future__ import annotations


class QpropsError(Exception):
    """Base class for every error raised by this package."""


class DimensionMismatch(QpropsError):
    """Operands act on Hilbert spaces of different dimensions."""


class InvariantViolation(QpropsError):
    """A domain type's defining invariant failed at construction."""


class NonHermitianInput(InvariantViolation):
    """Matrix expected to be self-adjoint is not, beyond tolerance."""


class NonUnitDirection(InvariantViolation):
    """Direction vector is not unit length within tolerance."""


class ZeroSpan(QpropsError):
    """All spanning vectors are numerically zero."""


class UncoveredEigenvalue(QpropsError):
    """An eigenvalue of the observable lies in no spectral window."""


class OverlappingWindows(QpropsError):
    """Two spectral windows of one partition overlap."""


class NoConvergence(QpropsError):
    """Iteration budget exhausted before the limit stabilized."""


class FrameMismatch(QpropsError):
    """Property classes carry different dynamical frames (time, H, hbar)."""


class ContextViolation(QpropsError):
    """A proposed atom family fails the single-time context laws.

    ``violations`` holds structured residual data; subclasses fix its shape.
    """

    def __init__(self, message: str, violations=()):
        super().__init__(message)
        self.violations = tuple(violations)


class ExclusivityViolation(ContextViolation):
    """Atom pair with non-zero product; violations are (i, j, residual)."""


class CompletenessViolation(ContextViolation):
    """Atom sum differs from identity; violations are (residual,)."""


class TimeOrderViolation(QpropsError):
    """Times are not strictly increasing, or precede the initial time."""


class IncompatibleContexts(QpropsError):
    """Translated atoms from different contexts fail to commute.

    ``pairs`` lists every offending pair as
    ``((context_index_a, label_a), (context_index_b, label_b), residual)``.
    ``gap`` is the eigenbasis certificate's gap (above 1/4) when every pair
    passed and ``pairs`` holds the worst pair of each context pair, else None.
    """

    def __init__(self, message: str, pairs=(), gap: float | None = None):
        super().__init__(message)
        self.pairs = tuple(pairs)
        self.gap = gap


class ForeignProperty(QpropsError):
    """Composite property does not belong to the given generalized context."""


class ConditionOnNull(QpropsError):
    """Conditioning event has probability below the null threshold."""


class InconsistentFamily(QpropsError):
    """Operation requires a family that passes its consistency check."""


class ParseError(QpropsError):
    """System description file is malformed."""


class ValidationError(QpropsError):
    """System description parsed but violates a semantic constraint."""
