"""Dense complex operator algebra on a finite-dimensional Hilbert space.

Operator types validate their defining invariants at construction and are
immutable afterwards; one the package derives from checked ones has them by
construction and is not checked again (``Operator._derived``).  Spectral
routines are built on Hermitian eigendecomposition, which is exact (to
rounding) for the matrix exponentials and spectral projectors needed here;
nothing in this module is intended for dimensions beyond a few dozen.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .config import DEFAULT_TOLERANCES, Tolerances
from .errors import (
    DimensionMismatch,
    InvariantViolation,
    NoConvergence,
    NonHermitianInput,
    OverlappingWindows,
    UncoveredEigenvalue,
    ZeroSpan,
)

__all__ = [
    "Operator",
    "HermitianOperator",
    "Projector",
    "UnitaryOperator",
    "DensityOperator",
    "SpectralWindow",
    "EigenSpace",
    "spectral_decompose",
    "spectral_projectors",
    "evolution_operator",
    "projector_from_span",
    "subspace_intersection",
    "alternating_projection_limit",
    "commutators",
    "commutator_residuals",
    "stack_matmul",
    "ordered_products",
    "kept_products",
    "frobenius_squares",
    "subspace_inclusion",
    "max_entry_norm",
]


def _as_square_complex(matrix) -> np.ndarray:
    arr = np.array(matrix, dtype=np.complex128)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise InvariantViolation(f"expected a square matrix, got shape {arr.shape}")
    return arr


def max_entry_norm(matrix) -> float:
    """Largest entry magnitude of a matrix (zero for empty input)."""
    arr = np.asarray(matrix)
    return float(np.max(np.abs(arr))) if arr.size else 0.0


def _hermitian_part(matrix: np.ndarray) -> np.ndarray:
    return 0.5 * (matrix + matrix.conj().T)


class Operator:
    """Immutable dense complex matrix acting on C^dim."""

    def __init__(self, matrix):
        arr = _as_square_complex(matrix)
        # every residual compared with a tolerance is NaN for such input
        if not np.all(np.isfinite(arr)):
            raise InvariantViolation("matrix has non-finite (NaN or infinite) entries")
        arr.setflags(write=False)
        self._matrix = arr

    @classmethod
    def _derived(cls, matrix):
        """A ``cls`` for a matrix the package built to have the invariants
        of ``cls`` by construction: only the finite check and the read-only
        copy of ``Operator`` run, not the checks of ``cls`` that a tolerance
        could fail.  Outside input takes ``cls(matrix)``."""
        op = cls.__new__(cls)
        Operator.__init__(op, matrix)
        return op

    @property
    def matrix(self) -> np.ndarray:
        """The underlying (read-only) complex matrix."""
        return self._matrix

    @property
    def dim(self) -> int:
        return self._matrix.shape[0]

    def __repr__(self) -> str:
        return f"{type(self).__name__}(dim={self.dim})"


class HermitianOperator(Operator):
    """Operator constrained to be self-adjoint within ``tols.herm``.

    The eigendecomposition is computed on first use and kept: the matrix is
    read-only, so every evolution and spectral decomposition of one operator
    shares a single ``eigh``.
    """

    def __init__(self, matrix, *, tols: Tolerances = DEFAULT_TOLERANCES):
        super().__init__(matrix)
        residual = max_entry_norm(self._matrix - self._matrix.conj().T)
        if not residual <= tols.herm:
            raise NonHermitianInput(
                f"matrix deviates from self-adjointness by {residual:.3e} "
                f"(tolerance {tols.herm:.1e})"
            )

    @classmethod
    def zero(cls, dim: int) -> "HermitianOperator":
        return cls(np.zeros((dim, dim), dtype=np.complex128))

    @functools.cached_property
    def eigensystem(self) -> tuple[np.ndarray, np.ndarray]:
        """Ascending eigenvalues and orthonormal eigenvectors (as columns)."""
        w, v = np.linalg.eigh(self._matrix)
        w.setflags(write=False)
        v.setflags(write=False)
        return w, v


class Projector(HermitianOperator):
    """Orthogonal projector: Hermitian and idempotent; rank is its trace."""

    def __init__(self, matrix, *, tols: Tolerances = DEFAULT_TOLERANCES):
        super().__init__(matrix, tols=tols)
        residual = max_entry_norm(self._matrix @ self._matrix - self._matrix)
        if not residual <= tols.proj:
            raise InvariantViolation(
                f"matrix is not idempotent: |P^2 - P| = {residual:.3e} "
                f"(tolerance {tols.proj:.1e})"
            )

    @functools.cached_property
    def rank(self) -> int:
        return int(round(float(np.trace(self._matrix).real)))

    @classmethod
    def identity(cls, dim: int) -> "Projector":
        return cls(np.eye(dim, dtype=np.complex128))

    def complement(self) -> "Projector":
        """Projector I - P onto the orthogonal complement of the range, not
        checked again."""
        return Projector._derived(np.eye(self.dim) - self._matrix)

    def __repr__(self) -> str:
        return f"Projector(dim={self.dim}, rank={self.rank})"


class UnitaryOperator(Operator):
    """Operator with U U^dag = I within ``tols.unit``."""

    def __init__(self, matrix, *, tols: Tolerances = DEFAULT_TOLERANCES):
        super().__init__(matrix)
        residual = max_entry_norm(
            self._matrix @ self._matrix.conj().T - np.eye(self.dim)
        )
        if not residual <= tols.unit:
            raise InvariantViolation(
                f"matrix is not unitary: |U U^dag - I| = {residual:.3e} "
                f"(tolerance {tols.unit:.1e})"
            )

    def transform(self, matrices) -> np.ndarray:
        """U M U^dag for one matrix or each matrix of a (..., d, d) stack."""
        return self._matrix @ matrices @ self._matrix.conj().T


class DensityOperator(HermitianOperator):
    """State operator: self-adjoint, unit trace, positive semidefinite."""

    def __init__(self, matrix, *, tols: Tolerances = DEFAULT_TOLERANCES):
        super().__init__(matrix, tols=tols)
        tr = float(np.trace(self._matrix).real)
        if abs(tr - 1.0) > tols.trace:
            raise InvariantViolation(
                f"state trace is {tr!r}, deviates from 1 beyond {tols.trace:.1e}"
            )
        lowest = float(np.linalg.eigvalsh(self._matrix)[0])
        if lowest < -tols.psd:
            raise InvariantViolation(
                f"state has negative eigenvalue {lowest:.3e} "
                f"(floor {-tols.psd:.1e})"
            )

    @classmethod
    def from_state_vector(
        cls, vector, *, tols: Tolerances = DEFAULT_TOLERANCES
    ) -> "DensityOperator":
        """Pure state |v><v| / <v|v> from a nonzero vector."""
        v = np.asarray(vector, dtype=np.complex128).reshape(-1)
        norm2 = float(np.vdot(v, v).real)
        if norm2 <= 0.0:
            raise ZeroSpan("state vector is numerically zero")
        return cls(np.outer(v, v.conj()) / norm2, tols=tols)

    @classmethod
    def maximally_mixed(cls, dim: int) -> "DensityOperator":
        return cls(np.eye(dim, dtype=np.complex128) / dim)

    def evolved(self, unitary: UnitaryOperator) -> "DensityOperator":
        """Conjugated state U rho U^dag, not checked again: conjugation by a
        unitary keeps self-adjointness, trace and spectrum."""
        return DensityOperator._derived(unitary.transform(self._matrix))


@dataclass(frozen=True)
class SpectralWindow:
    """Half-open interval [lo, hi) on the eigenvalue axis with a label."""

    label: str
    lo: float
    hi: float

    def __post_init__(self):
        if not self.lo < self.hi:
            raise InvariantViolation(
                f"window {self.label!r} has lo={self.lo} >= hi={self.hi}"
            )

    def contains(self, value: float) -> bool:
        return self.lo <= value < self.hi

    def overlaps(self, other: "SpectralWindow") -> bool:
        return self.lo < other.hi and other.lo < self.hi


class EigenSpace(NamedTuple):
    """One clustered eigenvalue with an orthonormal basis of its eigenspace."""

    eigenvalue: float
    vectors: np.ndarray  # shape (dim, multiplicity), orthonormal columns


def spectral_decompose(
    A: HermitianOperator, *, tols: Tolerances = DEFAULT_TOLERANCES
) -> list[EigenSpace]:
    """Eigendecomposition of a Hermitian operator with degeneracy clustering.

    Eigenvalues closer than ``tols.rank`` are merged into a single eigenspace
    (reported eigenvalue is the cluster mean), so that near-degenerate levels
    yield one projector instead of an arbitrary split.

    Returns eigenspaces in ascending eigenvalue order.
    """
    w, v = A.eigensystem
    spaces: list[EigenSpace] = []
    start = 0
    for i in range(1, len(w) + 1):
        if i == len(w) or w[i] - w[i - 1] > tols.rank:
            block = v[:, start:i]
            spaces.append(EigenSpace(float(np.mean(w[start:i])), block))
            start = i
    return spaces


def spectral_projectors(
    A: HermitianOperator,
    partition: Sequence[SpectralWindow],
    *,
    tols: Tolerances = DEFAULT_TOLERANCES,
) -> list[Projector]:
    """Projectors onto the eigenspaces selected by a spectral partition.

    Each window collects every (clustered) eigenvalue it contains; the
    returned projectors follow the partition order, are mutually exclusive,
    and sum to the identity.

    Raises
    ------
    OverlappingWindows
        If any two windows intersect.
    UncoveredEigenvalue
        If some eigenvalue of ``A`` lies in no window.
    """
    windows = list(partition)
    if not windows:
        raise InvariantViolation("partition must contain at least one window")
    for i in range(len(windows)):
        for j in range(i + 1, len(windows)):
            if windows[i].overlaps(windows[j]):
                raise OverlappingWindows(
                    f"windows {windows[i].label!r} and {windows[j].label!r} overlap"
                )
    spaces = spectral_decompose(A, tols=tols)
    dim = A.dim
    blocks: list[np.ndarray] = [np.zeros((dim, dim), dtype=np.complex128) for _ in windows]
    for space in spaces:
        hits = [k for k, win in enumerate(windows) if win.contains(space.eigenvalue)]
        if not hits:
            raise UncoveredEigenvalue(
                f"eigenvalue {space.eigenvalue!r} lies in no window"
            )
        blocks[hits[0]] += space.vectors @ space.vectors.conj().T
    return [Projector(block, tols=tols) for block in blocks]


def evolution_operator(
    H: HermitianOperator,
    t_from: float,
    t_to: float,
    hbar: float = 1.0,
) -> UnitaryOperator:
    """Unitary exp(-i H (t_to - t_from) / hbar) via ``_evolution_stack``.

    ``eigh`` gives orthonormal eigenvectors and every finite phase has unit
    modulus, so the result is unitary to rounding: it is built by
    ``Operator._derived``, whose finite check catches a phase that
    overflowed (NaN), and no tolerance is consulted.
    """
    return UnitaryOperator._derived(_evolution_stack(H, (t_from,), t_to, hbar)[0])


def _evolution_stack(
    H: HermitianOperator, times_from: Sequence[float], t_to: float, hbar: float
) -> np.ndarray:
    """exp(-i H (t_to - t) / hbar) for each t of ``times_from`` via the cached
    eigensystem of H, as one (T, d, d) stack: one array of phases, then one
    stacked (v * phases) @ v^dag, which numpy multiplies one matrix at a
    time, so each U has the bits of its own product.  Each U takes
    ``UnitaryOperator._derived`` and its finite check from the caller."""
    # written so that NaN fails: an infinite hbar would give U = I
    if not (hbar > 0.0 and math.isfinite(hbar)):
        raise InvariantViolation(f"hbar must be positive and finite, got {hbar!r}")
    for t_from in (*times_from, t_to):  # t_to is checked with no times_from too
        if not (math.isfinite(t_from) and math.isfinite(t_to)):
            raise InvariantViolation(f"times must be finite, got {t_from!r}, {t_to!r}")
    w, v = H.eigensystem
    phases = np.exp(-1j * w * (t_to - np.array(times_from, dtype=float))[:, None] / hbar)
    return (v * phases[:, None, :]) @ v.conj().T


def projector_from_span(
    vectors: Sequence, *, tols: Tolerances = DEFAULT_TOLERANCES
) -> Projector:
    """Orthogonal projector onto the span of the given vectors.

    Rank is decided by a relative singular-value cutoff at ``tols.rank``.
    Raises ``ZeroSpan`` when every vector is numerically zero.  The kept
    singular vectors are orthonormal: the result is not checked again.
    """
    cols = np.array([np.asarray(v, dtype=np.complex128).reshape(-1) for v in vectors]).T
    if cols.size == 0:
        raise ZeroSpan("no spanning vectors given")
    if not np.all(np.isfinite(cols)):
        raise InvariantViolation("vectors have non-finite (NaN or infinite) entries")
    u, s, _ = np.linalg.svd(cols, full_matrices=False)
    if s[0] <= tols.rank:
        raise ZeroSpan("spanning vectors are numerically zero")
    keep = s > s[0] * tols.rank
    basis = u[:, keep]
    return Projector._derived(basis @ basis.conj().T)


def _require_same_dim(a: Operator, b: Operator) -> None:
    if a.dim != b.dim:
        raise DimensionMismatch(f"dimensions differ: {a.dim} vs {b.dim}")


def subspace_intersection(
    P: Projector, Q: Projector, *, tols: Tolerances = DEFAULT_TOLERANCES
) -> Projector:
    """Projector onto range(P) ∩ range(Q) by exact subspace geometry.

    The intersection is the kernel of (I - P) + (I - Q); kernel vectors are
    read off a Hermitian eigendecomposition with eigenvalues below
    ``tols.rank``; they are orthonormal (none gives the zero projector), so
    the result is not checked again.
    """
    _require_same_dim(P, Q)
    w, v = np.linalg.eigh(P.complement().matrix + Q.complement().matrix)
    kernel = v[:, w < tols.rank]
    return Projector._derived(kernel @ kernel.conj().T)


def alternating_projection_limit(
    P: Projector,
    Q: Projector,
    tol: float = 1e-12,
    max_iter: int = 200,
) -> Projector:
    """Limit of (P Q)^n, realized by repeated squaring of the product.

    Each step squares the current power, so step ``k`` holds (P Q)^(2^k);
    iteration stops once the Hermitian part of the power stabilizes below
    ``tol`` in max-entry norm.  The stabilized power is symmetrized and
    snapped to the nearest projector by rounding its eigenvalues to {0, 1}:
    the kept eigenvectors are orthonormal, so it is not checked again.

    For commuting inputs the first step already fixes P Q.  Raises
    ``NoConvergence`` if ``max_iter`` squarings do not stabilize the power,
    or if the stabilized power is not within 0.1 of a projector spectrum.
    """
    _require_same_dim(P, Q)
    power = P.matrix @ Q.matrix
    limit = None
    for _ in range(max_iter):
        squared = power @ power
        delta = max_entry_norm(_hermitian_part(squared) - _hermitian_part(power))
        if delta <= tol:
            limit = squared
            break
        power = squared
    if limit is None:
        raise NoConvergence(
            f"power of the projector product did not stabilize within "
            f"{max_iter} squarings (tol {tol:.1e})"
        )
    w, v = np.linalg.eigh(_hermitian_part(limit))
    if np.any((w > 0.1) & (w < 0.9)):
        raise NoConvergence(
            "stabilized power has eigenvalues far from {0, 1}; "
            "the limit is not yet a projector"
        )
    kept = v[:, w >= 0.5]
    return Projector._derived(kept @ kept.conj().T)


def stack_matmul(stack, b) -> np.ndarray:
    """``stack @ b``, as one GEMM when ``b`` is one (d, d) matrix.

    numpy's ``@`` on an (..., d, d) stack calls BLAS once per matrix, which
    for small d costs far more than the arithmetic.  With one right factor
    the stack is reshaped to its (n d, d) rows and multiplied in a single
    call.  The product is the same up to rounding, but which BLAS kernel
    runs, and so the last bits, depends on the library, the CPU and the
    matrix shape.  With numpy's bundled OpenBLAS 0.3.31, complex stacks at
    d = 2 (the state and fixed-atom products of the spin search forms) matched
    the per-matrix ``@`` bit for bit under every x86-64 kernel it ships
    (SkylakeX, Haswell, also used on Zen, Sandybridge, Nehalem, Katmai); at
    larger d the Haswell kernel differed from d = 4 on, Sandybridge and
    Nehalem at odd d >= 5.  So ``UnitaryOperator.transform``, the one
    conjugation kernel, whose results must equal a per-matrix product bit
    for bit, does not use it.  Only right factors are stacked: ``b @ stack``
    as one GEMM multiplies ``b`` by the (d, n d) column block of the stack,
    and that changed last bits even at d = 2.  Any other shape of ``b``
    falls back to ``@``.
    """
    stack, b = np.asarray(stack), np.asarray(b)
    if stack.ndim <= 2 or b.ndim != 2:
        return stack @ b
    rows = stack.reshape(-1, stack.shape[-1])
    return (rows @ b).reshape(stack.shape[:-1] + b.shape[-1:])


# The largest Frobenius norm at which ``ordered_products`` may drop a prefix,
# whatever the tolerance: a zero product of projectors rounds to entries
# near 1e-16, and a nonzero projector has Frobenius norm at least 1.
PRUNE_CEILING = 1e-10


def ordered_products(stacks, *, tol=0.0):
    """Every ordered product of one matrix from each (..., k_t, d, d) stack.

    The product grows one stack at a time, each later factor on the left,
    as in a history operator (latest time leftmost).  Products come in
    ``itertools.product`` order over the stacks; leading axes broadcast.

    With ``tol > 0`` and (k_t, d, d) stacks of projectors, a prefix whose
    Frobenius norm is below ``min(tol, PRUNE_CEILING) / 2`` is dropped with
    every extension of it.  Each later factor has operator norm at most
    one, so the prefix norm bounds the Frobenius norm of each extension,
    and with it every entry, row and column, on either side.  A dropped
    product is thus zero within half the tolerance, and a nonzero projector
    (Frobenius norm at least 1) is never dropped.  ``tol <= 0`` drops
    nothing.  Each prefix costs O(d^2) to bound, against O(d^3) to form.

    Returns the kept products and their ascending positions in the full
    ``itertools.product`` order.
    """
    product, index = stacks[0], None  # None until a prefix is dropped
    for level, later in enumerate(stacks):
        if level:
            product = later[..., None, :, :, :] @ product[..., :, None, :, :]
            lead, (m, k, d, _) = product.shape[:-4], product.shape[-4:]
            product = product.reshape(lead + (m * k, d, d))
            if index is not None:
                index = (index[:, None] * k + np.arange(k)).reshape(-1)
        keep = kept_products(product, tol)
        if keep is not None:
            product = product[keep]
            index = keep if index is None else index[keep]
    return product, np.arange(product.shape[-3]) if index is None else index


def kept_products(products, tol):
    """Positions of the (n, d, d) products that ``ordered_products`` keeps at
    ``tol`` (Frobenius norm not below ``min(tol, PRUNE_CEILING) / 2``), or
    None when it keeps every one of them, as always at ``tol <= 0`` and for
    no products (a single history whose prefix was dropped)."""
    cut = min(tol, PRUNE_CEILING) / 2
    if not (cut > 0 and len(products)):
        return None
    keep = np.flatnonzero(~(frobenius_squares(products) < cut**2))
    return keep if keep.size < len(products) else None


def frobenius_squares(matrices) -> np.ndarray:
    """Squared Frobenius norm of each matrix of an (n, d, d) complex stack,
    one einsum over its float view."""
    parts = np.ascontiguousarray(matrices).reshape(len(matrices), -1).view(np.float64)
    return np.einsum("ij,ij->i", parts, parts)


def commutators(a, b) -> np.ndarray:
    """A B - B A per pair of broadcast (..., d, d) stacks."""
    return a @ b - b @ a


def commutator_residuals(a, b) -> np.ndarray:
    """Max-entry magnitude of A B - B A per pair of broadcast (..., d, d) stacks."""
    return np.abs(commutators(a, b)).max(axis=(-2, -1))


def subspace_inclusion(
    P: Projector, Q: Projector, *, tols: Tolerances = DEFAULT_TOLERANCES
) -> bool:
    """True iff range(P) is contained in range(Q), i.e. Q P = P."""
    _require_same_dim(P, Q)
    return max_entry_norm(Q.matrix @ P.matrix - P.matrix) <= tols.incl
