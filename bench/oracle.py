"""Expected answers computed without qprops.

The spin searches are predicted from Bloch-sphere geometry; every other
verdict and probability comes from the atoms the generator built at the
reference time, so nothing here translates, validates or checks through
the library under test.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

PAULI = np.array(
    [[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]], dtype=np.complex128
)

# A residual below CLEAR_PASS is a pass and above CLEAR_FAIL a fail for
# every tolerance qprops ships (all sit near 1e-9); generators redraw any
# input whose residual falls in between, so no verdict hangs on rounding.
CLEAR_PASS = 1e-11
CLEAR_FAIL = 1e-6
PROB_TOL = 1e-9


def verdict(residual: float) -> bool | None:
    """True for a clear pass, False for a clear fail, None in between."""
    if residual < CLEAR_PASS:
        return True
    if residual > CLEAR_FAIL:
        return False
    return None


# --- spin-1/2 geometry -----------------------------------------------------


def sphere_grid(count: int) -> np.ndarray:
    """The six axes followed by ``count`` golden-angle spiral points, (N, 3)."""
    axes = np.array(
        [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]],
        dtype=float,
    )
    i = np.arange(count)
    z = 1.0 - 2.0 * (i + 0.5) / count
    radius = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    theta = math.pi * (3.0 - math.sqrt(5.0)) * i
    spiral = np.stack([radius * np.cos(theta), radius * np.sin(theta), z], axis=1)
    spiral /= np.linalg.norm(spiral, axis=1, keepdims=True)
    return np.concatenate([axes, spiral])


def bloch_rotation(field: np.ndarray, tau: float) -> np.ndarray:
    """Rotation taking n to the Bloch vector of exp(iH tau)(n.sigma)exp(-iH tau).

    For H = h0 + field.sigma the Heisenberg equation is dn/dtau = -2 field x n,
    a rotation about the field by the angle -2 |field| tau.
    """
    strength = float(np.linalg.norm(field))
    if strength == 0.0:
        return np.eye(3)
    k = field / strength
    angle = -2.0 * strength * tau
    cross = np.array([[0, -k[2], k[1]], [k[2], 0, -k[0]], [-k[1], k[0], 0]])
    return (
        math.cos(angle) * np.eye(3)
        + (1.0 - math.cos(angle)) * np.outer(k, k)
        + math.sin(angle) * cross
    )


def search_residuals(mode, n0, n1_moved, n2_moved) -> np.ndarray:
    """Geometric residual of each candidate, all vectors in the t0 frame.

    commute keeps n1 parallel to +-n2; gmh keeps n1 parallel to +-n0 or +-n2;
    griffiths keeps n1 coplanar with n0 and n2.
    """
    along_n2 = np.linalg.norm(np.cross(n1_moved, n2_moved), axis=1)
    if mode == "commute":
        return along_n2
    if mode == "gmh":
        along_n0 = np.linalg.norm(np.cross(n1_moved, n0), axis=1)
        return np.minimum(along_n0, along_n2)
    if mode == "griffiths":
        return np.abs(
            np.einsum(
                "ij,ij->i", np.cross(n0, n1_moved), np.cross(n1_moved, n2_moved)
            )
        )
    raise ValueError(f"unknown search mode {mode!r}")


def antipodal_pairs(points: np.ndarray, tol: float = 1e-9) -> list[list[int]]:
    """Index pairs i < j of opposite unit vectors."""
    if len(points) < 2:
        return []
    gap = np.abs(points[:, None, :] + points[None, :, :]).max(axis=2)
    i, j = np.nonzero(np.triu(gap <= tol, k=1))
    return [[int(a), int(b)] for a, b in zip(i, j)]


def spin_projector_pair(n) -> list[np.ndarray]:
    pointing = np.einsum("k,kij->ij", np.asarray(n, dtype=float), PAULI)
    eye = np.eye(2)
    return [(eye + pointing) / 2.0, (eye - pointing) / 2.0]


def as_pairs(matrix) -> list:
    """Nested rows of [re, im] entries, as spec files write complex matrices."""
    return [[[float(z.real), float(z.imag)] for z in row] for row in matrix]


# --- finite-dimensional descriptions given by their reference-time atoms ----


def random_unitary(rng, dim: int) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_hermitian(rng, dim: int) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (g + g.conj().T) / (2.0 * math.sqrt(dim))


def random_density(rng, dim: int) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def evolution(hamiltonian: np.ndarray, dt: float, hbar: float = 1.0) -> np.ndarray:
    """exp(-i H dt / hbar)."""
    w, v = np.linalg.eigh(hamiltonian)
    return (v * np.exp(-1j * w * dt / hbar)) @ v.conj().T


def random_groups(rng, dim: int, parts: int) -> list[np.ndarray]:
    """A shuffled 0..dim-1 cut into ``parts`` non-empty groups."""
    order = rng.permutation(dim)
    cuts = np.sort(rng.choice(np.arange(1, dim), size=parts - 1, replace=False))
    return [np.sort(g) for g in np.split(order, cuts)]


def group_atoms(basis: np.ndarray, groups) -> list[np.ndarray]:
    return [basis[:, g] @ basis[:, g].conj().T for g in groups]


def max_commutator(atoms_ref) -> float:
    """Largest |entry| of [A, B] over atom pairs from different times."""
    worst = 0.0
    for a, b in itertools.combinations(range(len(atoms_ref)), 2):
        for x in atoms_ref[a]:
            for y in atoms_ref[b]:
                worst = max(worst, float(np.max(np.abs(x @ y - y @ x))))
    return worst


def history_gram(atoms_ref, rho):
    """Index tuples of every history and the matrix Tr(C_a rho C_b^dag).

    C is the time-ordered product of reference-time atoms, latest leftmost.
    """
    grid = list(itertools.product(*(range(len(ctx)) for ctx in atoms_ref)))
    ops = []
    for choice in grid:
        c = atoms_ref[0][choice[0]]
        for k in range(1, len(choice)):
            c = atoms_ref[k][choice[k]] @ c
        ops.append(c)
    ops = np.stack(ops)
    n, d = ops.shape[0], ops.shape[1]
    gram = (ops @ rho).reshape(n, d * d) @ ops.reshape(n, d * d).conj().T
    return grid, gram


def max_off_diagonal(gram: np.ndarray) -> float:
    n = gram.shape[0]
    if n < 2:
        return 0.0
    return float(np.max(np.abs(gram[~np.eye(n, dtype=bool)])))


def griffiths_residual(atoms_ref, rho) -> float:
    """|Re Tr(E1 rho E1c E2)| for two times with two atoms each."""
    (e1, e1c), (e2, _) = atoms_ref
    return abs(float(np.trace(e1 @ rho @ e1c @ e2).real))


def rank(matrix: np.ndarray) -> int:
    """Rank of a positive semidefinite sum of projectors (eigenvalues >= 0)."""
    return int(np.sum(np.linalg.eigvalsh(matrix) > CLEAR_FAIL))


def lattice_answer(op: str, a: np.ndarray, b: np.ndarray | None):
    """Rank of meet/join/neg, or the truth of 'a implies b', from range sums."""
    dim = a.shape[0]
    if op == "neg":
        return dim - rank(a)
    span = rank(a + b)
    if op == "join":
        return span
    if op == "meet":
        return rank(a) + rank(b) - span
    if op == "implies":
        return span == rank(b)
    raise ValueError(f"unknown lattice op {op!r}")


def probabilities_differ(got: dict, want: dict, tol: float = PROB_TOL) -> list[str]:
    """Problems found comparing two probability tables keyed alike."""
    if set(got) != set(want):
        return [f"table keys differ: {sorted(set(got) ^ set(want))[:4]}"]
    bad = [k for k in want if not abs(got[k] - want[k]) <= tol]
    return [f"probability {k}: got {got[k]!r}, want {want[k]!r}" for k in bad[:4]]
