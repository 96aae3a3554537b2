"""Random operator generators shared across the test modules."""

from __future__ import annotations

import numpy as np

from qprops.contexts import Context, GeneralizedContext
from qprops.linop import (
    DensityOperator,
    HermitianOperator,
    Projector,
    evolution_operator,
)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)

KET_Z_PLUS = np.array([1.0, 0.0], dtype=complex)
KET_Z_MINUS = np.array([0.0, 1.0], dtype=complex)
KET_X_PLUS = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
KET_X_MINUS = np.array([1.0, -1.0], dtype=complex) / np.sqrt(2.0)


def outer(vec) -> np.ndarray:
    v = np.asarray(vec, dtype=complex).reshape(-1)
    return np.outer(v, v.conj())


def spin_pair(n) -> tuple[Projector, Projector]:
    """Projector pair (I +/- n.sigma)/2 built from explicit Pauli algebra."""
    nx, ny, nz = n
    pointing = nx * SX + ny * SY + nz * SZ
    return (
        Projector((np.eye(2) + pointing) / 2),
        Projector((np.eye(2) - pointing) / 2),
    )


def random_hermitian(rng, dim, scale=1.0) -> HermitianOperator:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return HermitianOperator(scale * 0.5 * (g + g.conj().T))


def random_unitary(rng, dim) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    # fix the phase ambiguity of QR so output depends only on g
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_projector(rng, dim, rank=None) -> Projector:
    if rank is None:
        rank = int(rng.integers(1, dim))
    basis = random_unitary(rng, dim)[:, :rank]
    return Projector(basis @ basis.conj().T)


def random_density(rng, dim, pure=False) -> DensityOperator:
    if pure:
        v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        return DensityOperator.from_state_vector(v)
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return DensityOperator(rho / np.trace(rho).real)


def random_partition(rng, dim, parts=None) -> list[list[int]]:
    """Shuffle 0..dim-1 and cut it into ``parts`` nonempty groups."""
    if parts is None:
        parts = int(rng.integers(2, dim + 1)) if dim > 1 else 1
    order = list(rng.permutation(dim))
    cuts = sorted(rng.choice(np.arange(1, dim), size=parts - 1, replace=False)) if parts > 1 else []
    bounds = [0, *cuts, dim]
    return [order[bounds[k]:bounds[k + 1]] for k in range(parts)]


def shared_basis_contexts(rng, dim, n_times, hamiltonian, hbar=1.0, t0=0.0, parts=None):
    """Contexts at distinct times whose atoms commute when pulled back to t0.

    Atoms are built from one random orthonormal basis at t0 (grouped by a
    random partition per time, into ``parts`` atoms when given) and then
    pushed forward to their own times, so translating them back to t0
    recovers commuting projectors.
    """
    basis = random_unitary(rng, dim)
    times = t0 + np.cumsum(rng.uniform(0.3, 1.2, size=n_times))
    contexts = []
    for t in times:
        u = evolution_operator(hamiltonian, t0, t, hbar).matrix
        atoms = []
        for group in random_partition(rng, dim, parts):
            block = basis[:, group]
            atom0 = block @ block.conj().T
            atoms.append(Projector(u @ atom0 @ u.conj().T))
        contexts.append(Context(float(t), atoms))
    return contexts


def random_generalized_context(rng, dim=None, n_times=None, t0=0.0, hbar=1.0):
    if dim is None:
        dim = int(rng.integers(2, 7))
    if n_times is None:
        n_times = int(rng.integers(2, 4))
    hamiltonian = random_hermitian(rng, dim)
    contexts = shared_basis_contexts(rng, dim, n_times, hamiltonian, hbar, t0)
    return GeneralizedContext(contexts, t0, hamiltonian, hbar)
