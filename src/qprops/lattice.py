"""Time-tagged properties and the lattice of their translation classes.

A property at one time and its image under unitary time translation are
physically the same property; the equivalence classes of (projector, time)
pairs under that relation form an orthocomplemented, generally
non-distributive lattice.  Every class here is stored through one canonical
representative at a declared reference time, together with the dynamics
(Hamiltonian and hbar) that defines the translation.  Operations across
different dynamical frames are rejected rather than silently re-translated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOLERANCES, Tolerances
from .errors import DimensionMismatch, FrameMismatch, InvariantViolation
from .linop import (
    DensityOperator,
    HermitianOperator,
    Projector,
    evolution_operator,
    max_entry_norm,
    subspace_inclusion,
    subspace_intersection,
)

__all__ = [
    "TimedProperty",
    "PropertyClass",
    "translate",
    "class_of",
    "equivalent",
    "class_implies",
    "class_meet",
    "class_join",
    "class_negate",
    "class_born_probability",
]


@dataclass(frozen=True)
class TimedProperty:
    """A projector asserted at a specific time."""

    projector: Projector
    time: float


@dataclass(frozen=True, eq=False)
class PropertyClass:
    """Translation class of a timed property, stored by one representative.

    ``representative`` is the member projector at ``ref_time``; together with
    the dynamical frame (``hamiltonian``, ``hbar``) it determines every other
    member.
    """

    representative: Projector
    ref_time: float
    hamiltonian: HermitianOperator
    hbar: float

    @property
    def dim(self) -> int:
        return self.representative.dim


def _require_same_frame(c1: PropertyClass, c2: PropertyClass) -> None:
    if c1.ref_time != c2.ref_time:
        raise FrameMismatch(
            f"reference times differ: {c1.ref_time!r} vs {c2.ref_time!r}"
        )
    if c1.hbar != c2.hbar:
        raise FrameMismatch(f"hbar differs: {c1.hbar!r} vs {c2.hbar!r}")
    if not np.array_equal(c1.hamiltonian.matrix, c2.hamiltonian.matrix):
        raise FrameMismatch("Hamiltonians differ")


def translate(
    p: TimedProperty,
    t_to: float,
    hamiltonian: HermitianOperator,
    hbar: float = 1.0,
) -> TimedProperty:
    """Move a property to another time by conjugating with the evolution.

    Returns the projector U(t_to, t) P U(t_to, t)^-1 tagged with ``t_to``;
    the rank is preserved.  Conjugation by a unitary maps a projector to a
    projector, so the result is not checked again and no tolerance is read.
    """
    if p.projector.dim != hamiltonian.dim:
        raise DimensionMismatch(
            f"projector dim {p.projector.dim} vs Hamiltonian dim {hamiltonian.dim}"
        )
    u = evolution_operator(hamiltonian, p.time, t_to, hbar)
    return TimedProperty(Projector._derived(u.transform(p.projector.matrix)), t_to)


def class_of(
    p: TimedProperty,
    ref_time: float,
    hamiltonian: HermitianOperator,
    hbar: float = 1.0,
) -> PropertyClass:
    """Translation class of ``p``, canonicalized at ``ref_time``."""
    rep = translate(p, ref_time, hamiltonian, hbar).projector
    return PropertyClass(rep, ref_time, hamiltonian, hbar)


def equivalent(
    p1: TimedProperty,
    p2: TimedProperty,
    hamiltonian: HermitianOperator,
    hbar: float = 1.0,
    *,
    tols: Tolerances = DEFAULT_TOLERANCES,
) -> bool:
    """True iff the two timed properties translate into each other."""
    moved = translate(p2, p1.time, hamiltonian, hbar)
    return (
        max_entry_norm(moved.projector.matrix - p1.projector.matrix) <= tols.equiv
    )


def class_implies(
    c1: PropertyClass, c2: PropertyClass, *, tols: Tolerances = DEFAULT_TOLERANCES
) -> bool:
    """Order relation: inclusion of the representatives' ranges."""
    _require_same_frame(c1, c2)
    return subspace_inclusion(c1.representative, c2.representative, tols=tols)


def class_meet(
    c1: PropertyClass, c2: PropertyClass, *, tols: Tolerances = DEFAULT_TOLERANCES
) -> PropertyClass:
    """Greatest lower bound: the class of the range intersection."""
    _require_same_frame(c1, c2)
    rep = subspace_intersection(c1.representative, c2.representative, tols=tols)
    return PropertyClass(rep, c1.ref_time, c1.hamiltonian, c1.hbar)


def class_join(
    c1: PropertyClass, c2: PropertyClass, *, tols: Tolerances = DEFAULT_TOLERANCES
) -> PropertyClass:
    """Least upper bound, via the complement of the meet of complements."""
    _require_same_frame(c1, c2)
    meet = subspace_intersection(
        c1.representative.complement(), c2.representative.complement(), tols=tols
    )
    return PropertyClass(meet.complement(), c1.ref_time, c1.hamiltonian, c1.hbar)


def class_negate(c: PropertyClass) -> PropertyClass:
    """Orthocomplement: the class of the complementary projector."""
    return PropertyClass(
        c.representative.complement(), c.ref_time, c.hamiltonian, c.hbar
    )


def class_born_probability(
    rho: DensityOperator,
    c: PropertyClass,
    *,
    tols: Tolerances = DEFAULT_TOLERANCES,
) -> float:
    """Born probability Tr(rho P) of the class, with rho given at ref_time.

    The value is identical for every member of the class when the state is
    evolved consistently.  Results outside [0, 1] by more than ``tols.prob``
    indicate an invalid state/projector pair and raise; smaller excursions
    are clamped.
    """
    if rho.dim != c.dim:
        raise DimensionMismatch(f"state dim {rho.dim} vs class dim {c.dim}")
    value = float(np.trace(rho.matrix @ c.representative.matrix).real)
    if value < -tols.prob or value > 1.0 + tols.prob:
        raise InvariantViolation(
            f"Born value {value!r} lies outside [0, 1] beyond {tols.prob:.1e}"
        )
    return min(1.0, max(0.0, value))
