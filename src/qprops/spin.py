"""Spin-1/2 case study: direction-parameterized projectors and searches.

Given a fixed measurement direction at a later time and a prepared spin
state, three nested searches scan candidate directions for an intermediate
time: directions whose translated projectors commute with the later pair,
directions passing the pairwise trace condition, and directions passing the
two-time real-part condition.  With free dynamics the three answers are the
single axis, the preparation/measurement axes, and two full great-circle
planes, respectively.

A search grid is either a sequence of ``Direction`` objects or, cheaper, a
read-only (N, 3) array of unit rows such as ``sphere_points`` returns
(``sphere_grid`` is the same grid as ``Direction`` objects).  An array grid
is checked for unit rows in one pass.  Either way the search runs on the
(N, 3) rows, and only the accepted rows become ``Direction`` objects in the
answer.

The searches are batched, and no per-direction matrix is formed.  The pair
(I +/- n.sigma)/2 of a row n is affine in n: its weights over the basis
B = (I, sigma_x, sigma_y, sigma_z) are w_+/-(n) = (1, +/-n)/2, and time
translation is linear, so only the four basis matrices are moved to the
initial time (``UnitaryOperator.transform`` of one evolution operator).
Each residual is then a linear form (``commute``) or a quadratic form
(``gmh``, ``griffiths``) in (1, n), whose small coefficient arrays come from
``linop.commutators`` and ``consistency_traces`` (the entries the checks
read), and the whole grid is scored by one GEMM of its (N, 4) weights
against them.  The pairs are not checked as
projectors or as contexts: for a row within ``_UNIT_NORM_TOL`` of unit norm
the pair is exactly Hermitian, its idempotence, exclusivity and
completeness residuals are at most (|n|^2 - 1)/4, about 5e-13, and
conjugation by a checked unitary keeps all of this.  No per-direction
``Projector``, ``Context`` or ``HistoryFamily`` is built, yet every verdict
is the one those objects would give, up to rounding (the forms sum the same
terms in another order) and, for ``gmh``, up to the bound of about 5e-13
that ``_search_residuals`` derives from that defect of the fixed pair.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .config import DEFAULT_TOLERANCES, Tolerances
from .contexts import Context
from .errors import (
    DimensionMismatch,
    InvariantViolation,
    NonUnitDirection,
    TimeOrderViolation,
)
from .linop import (
    DensityOperator,
    HermitianOperator,
    Projector,
    commutators,
    evolution_operator,
    stack_matmul,
)

__all__ = [
    "Direction",
    "PAULI_X",
    "PAULI_Y",
    "PAULI_Z",
    "AXIS_DIRECTIONS",
    "spin_projectors",
    "direction_context",
    "sphere_points",
    "sphere_grid",
    "coplanarity_defect",
    "compatible_directions",
    "gmh_directions",
    "griffiths_directions",
    "antipodal_pairs",
    "consistency_traces",
]

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=np.complex128)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=np.complex128)

_PAULI = np.stack([PAULI_X, PAULI_Y, PAULI_Z])
_SIGNS = np.array([1.0, -1.0])[:, None, None]
_LABELS = ("+", "-")

# B = (I, sigma_x, sigma_y, sigma_z), and the signs that turn the weights
# (1, n)/2 of (I + n.sigma)/2 over B into those of the pair, (1, +/-n)/2,
# one row per projector of the pair
_BASIS = np.stack([np.eye(2, dtype=np.complex128), PAULI_X, PAULI_Y, PAULI_Z])
_PAIR_SIGNS = np.array([[1.0, 1.0, 1.0, 1.0], [1.0, -1.0, -1.0, -1.0]])

_UNIT_NORM_TOL = 1e-12


@dataclass(frozen=True)
class Direction:
    """Unit vector on the Bloch sphere."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        norm = math.sqrt(self.x**2 + self.y**2 + self.z**2)
        if not abs(norm - 1.0) <= _UNIT_NORM_TOL:
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


SearchGrid = Sequence[Direction] | np.ndarray

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
_AXIS_POINTS = np.array([(n.x, n.y, n.z) for n in AXIS_DIRECTIONS])


def _spin_pairs(points: np.ndarray) -> np.ndarray:
    """(..., 2, 2, 2) stack of (I + n.sigma)/2, (I - n.sigma)/2 per (..., 3) row."""
    pointing = np.einsum("...k,kij->...ij", points, _PAULI)[..., None, :, :]
    return (np.eye(2) + _SIGNS * pointing) / 2.0


def spin_projectors(
    n: Direction, *, tols: Tolerances = DEFAULT_TOLERANCES
) -> tuple[Projector, Projector]:
    """Rank-1 projector pair (I +/- n.sigma)/2 onto the spin-up/down states."""
    plus, minus = _spin_pairs(n.as_array())
    return Projector(plus, tols=tols), Projector(minus, tols=tols)


def direction_context(
    n: Direction,
    time: float,
    labels: Sequence[str] = _LABELS,
    *,
    tols: Tolerances = DEFAULT_TOLERANCES,
) -> Context:
    """Binary context of the spin values along ``n`` at the given time."""
    return Context(time, spin_projectors(n, tols=tols), labels, tols=tols)


@functools.lru_cache(maxsize=8)
def sphere_points(count: int = 2000) -> np.ndarray:
    """Quasi-uniform direction sample as a read-only (N, 3) array of unit rows.

    The six axes come first so the special directions of the worked cases
    are always present; the remaining ``count`` points follow the
    golden-angle spiral, each row normalized as ``Direction.normalized``
    would.  The cosines and sines come from ``math``, like the scalar
    formula, so every row equals the ``Direction`` of ``sphere_grid`` bit
    for bit.  The array is read-only, so the last few grids are cached and
    a repeated call returns the same array.
    """
    index = np.arange(max(count, 0))
    z = 1.0 - 2.0 * (index + 0.5) / count
    radius = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    theta = (math.pi * (3.0 - math.sqrt(5.0)) * index).tolist()
    x = radius * np.array(list(map(math.cos, theta)), dtype=float)
    y = radius * np.array(list(map(math.sin, theta)), dtype=float)
    norm = np.sqrt(x * x + y * y + z * z)
    spiral = np.stack([x / norm, y / norm, z / norm], axis=1)
    points = np.concatenate([_AXIS_POINTS, spiral])
    points.setflags(write=False)
    return points


def sphere_grid(count: int = 2000) -> tuple[Direction, ...]:
    """``sphere_points`` as ``Direction`` objects, one per row."""
    return tuple(Direction(*row) for row in sphere_points(count).tolist())


def coplanarity_defect(n0: Direction, n1: Direction, n2: Direction) -> float:
    """Scalar (n0 x n1) . (n1 x n2), equal to (n0.n1)(n1.n2) - n0.n2.

    The second form is (a x b).(c x d) = (a.c)(b.d) - (a.d)(b.c).  Despite
    the name this is not a coplanarity test: for fixed n0 and n2 its zero
    set is a conic in n1, two great circles (n1 . n0 = 0 or n1 . n2 = 0)
    when n0 is orthogonal to n2.  So x, (x+z)/sqrt 2, z, all in one plane,
    give 0.5, and x, (x+y)/sqrt 2, z give 0.  Under free dynamics the
    real-part residual of ``griffiths_directions`` is a quarter of its
    magnitude.
    """
    return float(
        np.dot(
            np.cross(n0.as_array(), n1.as_array()),
            np.cross(n1.as_array(), n2.as_array()),
        )
    )


def _grid_points(grid: SearchGrid) -> np.ndarray:
    """(N, 3) rows of a search grid; array rows get the ``Direction`` check.

    ``Direction`` objects were checked when built; an array is checked for
    its shape and for unit rows here, in one pass.
    """
    if not isinstance(grid, np.ndarray):
        return np.array([(n.x, n.y, n.z) for n in grid], dtype=float).reshape(-1, 3)
    if grid.ndim != 2 or grid.shape[1] != 3:
        raise InvariantViolation(f"grid must have shape (N, 3), got {grid.shape}")
    points = np.asarray(grid, dtype=float)
    x, y, z = points.T
    norm = np.sqrt(x**2 + y**2 + z**2)
    bad = np.flatnonzero(~(np.abs(norm - 1.0) <= _UNIT_NORM_TOL))
    if bad.size:
        row = bad[0]
        raise NonUnitDirection(f"grid row {row} has norm {float(norm[row])!r}")
    return points


def consistency_traces(e1, e1_bar, e2, rho) -> np.ndarray:
    """Complex Tr(E1 rho E1c E2) for each entry of broadcast (..., d, d) stacks.

    The product is formed left to right; a single (d, d) ``rho`` or ``e2``
    multiplies the stack as one GEMM (``linop.stack_matmul``).  For an
    idempotent E2 it is, by cyclicity, the decoherence functional
    Tr(C_a rho C_b^dag) of the histories C_a = E2 E1 and C_b = E2 E1c
    (Gell-Mann and Hartle): the entry that the scan of ``histories.gmh_check``
    and ``griffiths_check`` reads for that pair.  The ``gmh`` and
    ``griffiths`` searches build their trace forms from it.
    """
    product = stack_matmul(stack_matmul(e1, rho) @ e1_bar, e2)
    return np.trace(product, axis1=-2, axis2=-1)


def _real_gemm(weights: np.ndarray, coefficients: np.ndarray) -> np.ndarray:
    """Real (M, k) weights times complex (k, ...) coefficients, as (M, m).

    One real GEMM on the (k, 2m) float view of the coefficients; numpy's
    ``@`` on a real and a complex operand took about 14 times as long at
    the (2006, 4) @ (4, 16) size of a 2006-point commute search.
    """
    flat = np.ascontiguousarray(coefficients).reshape(len(coefficients), -1)
    return (weights @ flat.view(np.float64)).view(np.complex128)


def _search_residuals(
    mode: str,
    n0: Direction | None,
    n2: Direction,
    points: np.ndarray,
    rho: DensityOperator | None,
    hamiltonian: HermitianOperator | None,
    hbar: float,
    t0: float,
    t1: float,
    t2: float,
    tols: Tolerances,
) -> np.ndarray:
    """Residual of every row of a checked (N, 3) grid (``_grid_points``)
    under one search, as one (N,) array.

    The basis B is moved from ``t1`` to ``t0`` and the pair F_+/- along n2
    from ``t2`` to ``t0``.  The row's pair P_s (s = +/-) then moves to
    sum_j x_j S_js B_j, with x = (1, n)/2 and the signs S of
    ``_PAIR_SIGNS``, so every residual is a linear or a quadratic form in x
    whose coefficients fold in S:

    - ``commute``: the largest entry magnitude of the four cross
      commutators [P_s, F_b] = sum_j x_j S_js [B_j, F_b] (the signed
      ``linop.commutators``), one (N, 4) @ (4, 16) GEMM.
    - ``gmh`` and ``griffiths`` read one complex form per fixed outcome b,
      q_b(x) = Tr(P_+ rho P_- F_b) = x^T K_b x with
      K_b[j, l] = S_l- Tr(B_j rho B_l F_b), both b at once from
      ``consistency_traces``: one (16, 4) @ (4, N) GEMM gives
      the rows of x^T K_b, transposed, and four multiply-adds with x finish
      the forms.
    - ``griffiths``: |Re q_+|.  ``griffiths_check`` takes the largest |Re D|
      of the gram below, max_b |Re q_b| within E, and q_+ + q_- =
      Tr(rho P_- P_+) = (1 - |n|^2)/4, so it lies within about 1e-12 of
      |Re q_+|.  Re K_+ is the griffiths conic in the homogeneous
      coordinates (1, n): for free dynamics and rho along n0 the form is
      ((n0.n2) - (n0.n)(n.n2))/4, minus a quarter of ``coplanarity_defect``.
    - ``gmh``: max_b |q_b|.  ``gmh_check`` would take the largest
      off-diagonal magnitude of the 4x4 gram of the histories F_b P_s,
      D[(s, b), (t, c)] = Tr(F_b P_s rho P_t F_c) = Tr(F_c F_b P_s rho P_t).
      With F_b = U (I + b m.sigma) U^dag / 2 (b = +/-1, m = n2),
      (I + c m.sigma)(I + b m.sigma) = (1 + bc|m|^2) I + (b + c) m.sigma
      gives F_c F_b = [b = c] F_b + e_bc I with |e_bc| = |1 - |m|^2|/4
      exactly, and conjugation by U keeps it.  So the four cross-outcome
      entries (b != c) are e_bc Tr(P_s rho P_t), and the two same-outcome
      entries with s != t are q_b + e_bb Tr(P_+ rho P_-) by cyclicity (the
      (-, b), (+, b) entry is the conjugate).  P_s has the eigenvalues
      (1 +/- |n|)/2, so for a density rho
      |Tr(P_s rho P_t)| = |Tr(rho P_t P_s)| <= ((1 + |n|)/2)^2, and every
      gram residual, hence the largest, lies within
      E = |1 - |m|^2| / 4 * ((1 + |n|)/2)^2 of this form, plus rounding.
      With n and m within ``_UNIT_NORM_TOL`` of unit norm, E is at most
      about 5e-13.

    The search keeps the directions whose residual lies within its
    tolerance.
    """
    if hamiltonian is None:
        hamiltonian = HermitianOperator.zero(2)
    if hamiltonian.dim != 2:
        raise DimensionMismatch("state/Hamiltonian dimension differs from atoms")
    basis = evolution_operator(hamiltonian, t1, t0, hbar).transform(_BASIS)
    fixed = evolution_operator(hamiltonian, t2, t0, hbar).transform(
        _spin_pairs(n2.as_array())
    )
    count = len(points)
    x = np.concatenate([np.full((count, 1), 0.5), points * 0.5], axis=1)
    if mode == "commute":
        signs = _PAIR_SIGNS.T  # [j, s]
        brackets = commutators(basis[:, None], fixed)  # [B_j, F_b] at [j, b]
        form = signs[:, :, None, None, None] * brackets[:, None]
        return np.abs(_real_gemm(x, form)).max(axis=1)
    # the checks a per-direction ``HistoryFamily`` would make
    if not t0 < t1 < t2:
        raise TimeOrderViolation(
            f"history times must satisfy t0 < t1 < t2, got {[t0, t1, t2]}"
        )
    if rho is None:
        if n0 is None:
            raise InvariantViolation(f"the {mode} search needs a state: give rho or n0")
        # a checked rank-1 projector is a state: not checked again as one
        rho = DensityOperator._derived(spin_projectors(n0, tols=tols)[0].matrix)
    if rho.dim != 2:
        raise DimensionMismatch("state/Hamiltonian dimension differs from atoms")
    # K_b[j, l] at [j, l, b]
    traces = consistency_traces(
        basis[:, None, None], basis[None, :, None], fixed, rho.matrix
    )
    form = traces * _PAIR_SIGNS[1][:, None]
    # [l, (b, re/im), n]: the real and imaginary parts of (x^T K_b)_l, from
    # one (16, 4) @ (4, N) GEMM, so the dot with x is four multiply-adds of
    # contiguous (4, N) blocks
    weights = np.ascontiguousarray(x.T)
    rows = (form.reshape(4, -1).view(np.float64).T @ weights).reshape(4, 4, count)
    forms = weights[0] * rows[0]
    for l in range(1, 4):
        forms += weights[l] * rows[l]
    if mode == "griffiths":
        return np.abs(forms[0])
    magnitudes = np.abs(np.ascontiguousarray(forms.T).view(np.complex128))
    return np.maximum(magnitudes[:, 0], magnitudes[:, 1])


def _kept(points: np.ndarray, residuals: np.ndarray, tol: float) -> list[Direction]:
    """The grid rows within ``tol``, each as a ``Direction``."""
    return [Direction(*row) for row in points[residuals <= tol].tolist()]


def compatible_directions(
    n2: Direction,
    grid: SearchGrid,
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
    points = _grid_points(grid)
    residuals = _search_residuals(
        "commute", None, n2, points, None, hamiltonian, hbar, t0, t1, t2, tols
    )
    return _kept(points, residuals, tols.commute)


def gmh_directions(
    n0: Direction | None,
    n2: Direction,
    grid: SearchGrid,
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

    ``rho`` defaults to the pure state along ``n0``, and ``n0`` is read
    only then: a given ``rho``, mixed or pure, takes ``n0=None``.  The
    verdict per direction is that of ``gmh_check`` on the family of the
    direction's context at ``t1`` and the n2 context at ``t2``, read as
    max_b |Tr(P_+ rho P_- F_b)| with P_+/- the direction's pair and F_b the
    n2 pair, all moved to ``t0``.  The n2 pair is exclusive and idempotent
    up to (|n2|^2 - 1)/4, so the largest off-diagonal gram entry is this
    value within about 5e-13 (derived in ``_search_residuals``).
    """
    points = _grid_points(grid)
    residuals = _search_residuals(
        "gmh", n0, n2, points, rho, hamiltonian, hbar, t0, t1, t2, tols
    )
    return _kept(points, residuals, tols.consist)


def griffiths_directions(
    n0: Direction | None,
    n2: Direction,
    grid: SearchGrid,
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

    ``rho`` and ``n0`` as in ``gmh_directions``.  The verdict per direction
    is that of ``griffiths_check``, whose largest residual is
    |Re Tr(P_+ rho P_- F_+)| within about 1e-12 (``_search_residuals``),
    read off the trace form of ``gmh_directions``.  For free dynamics the
    residual is |``coplanarity_defect(n0, n1, n2)``| / 4, so a direction
    is kept when |(n0.n1)(n1.n2) - n0.n2| <= 4 ``tols.consist``; for n0
    orthogonal to n2 that is a thin band around the two great circles
    orthogonal to n0 and to n2.
    """
    points = _grid_points(grid)
    residuals = _search_residuals(
        "griffiths", n0, n2, points, rho, hamiltonian, hbar, t0, t1, t2, tols
    )
    return _kept(points, residuals, tols.consist)


def antipodal_pairs(directions: Sequence[Direction]) -> list[tuple[int, int]]:
    """Index pairs (i < j) of opposite directions; both describe one context.

    A pair counts when every component of n_i + n_j is within 1e-9.
    """
    points = np.array([(n.x, n.y, n.z) for n in directions], dtype=float)
    pairs = []
    for i in range(len(points) - 1):
        gaps = np.abs(points[i + 1 :] + points[i]).max(axis=1)
        pairs.extend((i, i + 1 + int(j)) for j in np.flatnonzero(gaps <= 1e-9))
    return pairs
