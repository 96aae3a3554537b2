"""Tolerance configuration shared by every numerical check in the package."""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

from .errors import InvariantViolation


@dataclass(frozen=True)
class Tolerances:
    """Numerical thresholds for operator invariants and compatibility checks.

    Thresholds bound max-entry magnitudes unless stated otherwise.  Exact
    algebraic identities become thresholded comparisons in floating point;
    the defaults keep genuine violations (order one in the worked spin-1/2
    cases) many orders of magnitude above rounding noise.
    """

    herm: float = 1e-10     # self-adjointness residual
    unit: float = 1e-10     # unitarity residual U U^dag - I
    proj: float = 1e-10     # idempotence / exclusivity / completeness residual
    trace: float = 1e-10    # density-operator trace deviation from 1
    psd: float = 1e-10      # density-operator eigenvalue floor (>= -psd)
    rank: float = 1e-8      # rank-revealing cutoff and eigenvalue clustering
    equiv: float = 1e-9     # property-class representative comparison
    incl: float = 1e-9      # subspace-inclusion residual Q P - P
    commute: float = 1e-9   # cross-context commutator threshold
    consist: float = 1e-9   # history consistency trace threshold
    prob: float = 1e-10     # probability clamping / null-condition threshold

    def __post_init__(self):
        # a NaN or +inf threshold would let every `residual > tol` check
        # pass; a negative one only makes checks fail, and stays allowed
        for name, value in self.as_dict().items():
            if not math.isfinite(value):
                raise InvariantViolation(
                    f"tolerance {name!r} must be finite, got {value!r}"
                )

    def updated(self, **overrides: float) -> Tolerances:
        """Return a copy with the given fields replaced."""
        return dataclasses.replace(self, **overrides)

    def as_dict(self) -> dict[str, float]:
        # the fields are floats: no deep copy (``dataclasses.asdict``) needed
        return {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}

    @classmethod
    def field_names(cls) -> tuple[str, ...]:
        return tuple(f.name for f in dataclasses.fields(cls))


DEFAULT_TOLERANCES = Tolerances()
