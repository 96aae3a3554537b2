"""Spin-1/2 case study: direction-parameterized projectors and searches.

Given a fixed measurement direction at a later time and a prepared spin
state, three nested searches scan candidate directions for an intermediate
time: directions whose translated projectors commute with the later pair,
directions passing the pairwise trace condition, and directions passing the
two-time real-part condition.  With free dynamics the three answers are the
single axis, the preparation/measurement axes, and two full great-circle
planes, respectively.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .config import DEFAULT_TOLERANCES, Tolerances
from .contexts import Context
from .errors import NonUnitDirection
from .histories import HistoryFamily, gmh_check, griffiths_check
from .linop import (
    DensityOperator,
    HermitianOperator,
    Projector,
    commutator_residuals,
    evolution_operator,
)

__all__ = [
    "Direction",
    "PAULI_X",
    "PAULI_Y",
    "PAULI_Z",
    "AXIS_DIRECTIONS",
    "spin_projectors",
    "direction_context",
    "sphere_grid",
    "coplanarity_defect",
    "compatible_directions",
    "gmh_directions",
    "griffiths_directions",
    "antipodal_pairs",
]

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=np.complex128)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=np.complex128)

_UNIT_NORM_TOL = 1e-12


@dataclass(frozen=True)
class Direction:
    """Unit vector on the Bloch sphere."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        norm = math.sqrt(self.x**2 + self.y**2 + self.z**2)
        if abs(norm - 1.0) > _UNIT_NORM_TOL:
            raise NonUnitDirection(f"|({self.x}, {self.y}, {self.z})| = {norm!r}")

    @classmethod
    def normalized(cls, x: float, y: float, z: float) -> "Direction":
        norm = math.sqrt(x * x + y * y + z * z)
        if norm == 0.0:
            raise NonUnitDirection("cannot normalize the zero vector")
        return cls(x / norm, y / norm, z / norm)

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z])

    def antipode(self) -> "Direction":
        return Direction(-self.x, -self.y, -self.z)


X_PLUS = Direction(1.0, 0.0, 0.0)
Y_PLUS = Direction(0.0, 1.0, 0.0)
Z_PLUS = Direction(0.0, 0.0, 1.0)

AXIS_DIRECTIONS = (
    X_PLUS,
    X_PLUS.antipode(),
    Y_PLUS,
    Y_PLUS.antipode(),
    Z_PLUS,
    Z_PLUS.antipode(),
)


def spin_projectors(
    n: Direction, *, tols: Tolerances = DEFAULT_TOLERANCES
) -> tuple[Projector, Projector]:
    """Rank-1 projector pair (I +/- n.sigma)/2 onto the spin-up/down states."""
    pointing = n.x * PAULI_X + n.y * PAULI_Y + n.z * PAULI_Z
    eye = np.eye(2, dtype=np.complex128)
    return (
        Projector((eye + pointing) / 2.0, tols=tols),
        Projector((eye - pointing) / 2.0, tols=tols),
    )


def direction_context(
    n: Direction,
    time: float,
    labels: Sequence[str] = ("+", "-"),
    *,
    tols: Tolerances = DEFAULT_TOLERANCES,
) -> Context:
    """Binary context of the spin values along ``n`` at the given time."""
    return Context(time, spin_projectors(n, tols=tols), labels, tols=tols)


def sphere_grid(count: int = 2000, include_axes: bool = True) -> tuple[Direction, ...]:
    """Quasi-uniform direction sample: six axes plus a spiral lattice.

    The axes come first so the special directions of the worked cases are
    always present; the remaining ``count`` points follow the golden-angle
    spiral.
    """
    points: list[Direction] = list(AXIS_DIRECTIONS) if include_axes else []
    golden_angle = math.pi * (3.0 - math.sqrt(5.0))
    for i in range(count):
        z = 1.0 - 2.0 * (i + 0.5) / count
        radius = math.sqrt(max(0.0, 1.0 - z * z))
        theta = golden_angle * i
        points.append(
            Direction.normalized(radius * math.cos(theta), radius * math.sin(theta), z)
        )
    return tuple(points)


def coplanarity_defect(n0: Direction, n1: Direction, n2: Direction) -> float:
    """Scalar (n0 x n1) . (n1 x n2); zero iff the three directions are coplanar."""
    return float(
        np.dot(
            np.cross(n0.as_array(), n1.as_array()),
            np.cross(n1.as_array(), n2.as_array()),
        )
    )


def _pure_state_along(n: Direction, tols: Tolerances) -> DensityOperator:
    return DensityOperator(spin_projectors(n, tols=tols)[0].matrix, tols=tols)


def compatible_directions(
    n2: Direction,
    grid: Sequence[Direction],
    hamiltonian: HermitianOperator | None = None,
    hbar: float = 1.0,
    t1: float = 1.0,
    t2: float = 2.0,
    t0: float = 0.0,
    *,
    tols: Tolerances = DEFAULT_TOLERANCES,
) -> list[Direction]:
    """Grid directions whose translated pair commutes with the pair along n2.

    Both binary families are translated to ``t0``; a direction is kept when
    all four cross commutators stay below ``tols.commute``.  The verdict
    never consults a state.  Output order follows the grid.
    """
    if hamiltonian is None:
        hamiltonian = HermitianOperator.zero(2)
    u1 = evolution_operator(hamiltonian, t1, t0, hbar, tols=tols)
    u2 = evolution_operator(hamiltonian, t2, t0, hbar, tols=tols)
    fixed = u2.transform(np.stack([p.matrix for p in spin_projectors(n2, tols=tols)]))
    pairs = np.empty((len(grid), 2, 2, 2), dtype=np.complex128)
    for k, n1 in enumerate(grid):
        pairs[k] = [p.matrix for p in spin_projectors(n1, tols=tols)]
    moved = u1.transform(pairs)
    # one fixed atom at a time keeps the temporaries at the size of ``moved``
    residuals = np.max(
        [commutator_residuals(moved, f).max(axis=1) for f in fixed], axis=0
    )
    return [n1 for n1, residual in zip(grid, residuals) if residual <= tols.commute]


def _direction_search(check, n0, n2, grid, rho, hamiltonian, hbar, t0, t1, t2, tols):
    if hamiltonian is None:
        hamiltonian = HermitianOperator.zero(2)
    if rho is None:
        rho = _pure_state_along(n0, tols)
    fixed = direction_context(n2, t2, tols=tols)
    kept = []
    for n1 in grid:
        family = HistoryFamily(
            [direction_context(n1, t1, tols=tols), fixed],
            hamiltonian,
            t0,
            rho,
            hbar,
            tols=tols,
        )
        if check(family, tols=tols).verdict:
            kept.append(n1)
    return kept


def gmh_directions(
    n0: Direction,
    n2: Direction,
    grid: Sequence[Direction],
    rho: DensityOperator | None = None,
    hamiltonian: HermitianOperator | None = None,
    hbar: float = 1.0,
    t0: float = 0.0,
    t1: float = 1.0,
    t2: float = 2.0,
    *,
    tols: Tolerances = DEFAULT_TOLERANCES,
) -> list[Direction]:
    """Grid directions whose two-time family passes the pairwise trace check.

    ``rho`` defaults to the pure state along ``n0``.
    """
    return _direction_search(
        gmh_check, n0, n2, grid, rho, hamiltonian, hbar, t0, t1, t2, tols
    )


def griffiths_directions(
    n0: Direction,
    n2: Direction,
    grid: Sequence[Direction],
    rho: DensityOperator | None = None,
    hamiltonian: HermitianOperator | None = None,
    hbar: float = 1.0,
    t0: float = 0.0,
    t1: float = 1.0,
    t2: float = 2.0,
    *,
    tols: Tolerances = DEFAULT_TOLERANCES,
) -> list[Direction]:
    """Grid directions whose two-time family passes the real-part check.

    ``rho`` defaults to the pure state along ``n0``.  For free dynamics the
    accepted set coincides pointwise with the vanishing of
    ``coplanarity_defect(n0, n1, n2)``.
    """
    return _direction_search(
        griffiths_check, n0, n2, grid, rho, hamiltonian, hbar, t0, t1, t2, tols
    )


def antipodal_pairs(
    directions: Sequence[Direction], tol: float = 1e-9
) -> list[tuple[int, int]]:
    """Index pairs of opposite directions; both members describe one context."""
    pairs = []
    for i in range(len(directions)):
        for j in range(i + 1, len(directions)):
            gap = directions[i].as_array() + directions[j].as_array()
            if float(np.max(np.abs(gap))) <= tol:
                pairs.append((i, j))
    return pairs
