"""Single-time contexts and their multi-time generalization.

A context is a complete family of mutually exclusive atomic projectors at one
time; it generates a boolean sublattice on which Born probabilities are well
defined.  Contexts at several times form a generalized context when all their
atoms commute after translation to a common reference time; they are then
one context at that time, whose atoms ("composed atoms", the joint
eigenspaces of the translated contexts) carry the probabilities of
multi-time conjunctions.
"""

from __future__ import annotations

import functools
import itertools
import math
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .config import DEFAULT_TOLERANCES, Tolerances
from .errors import (
    CompletenessViolation,
    DimensionMismatch,
    ExclusivityViolation,
    ForeignProperty,
    IncompatibleContexts,
    InvariantViolation,
    TimeOrderViolation,
)
from .linop import (
    DensityOperator,
    HermitianOperator,
    Projector,
    UnitaryOperator,
    _evolution_stack,
    commutator_residuals,
    frobenius_squares,
    max_entry_norm,
)

__all__ = [
    "Context",
    "GeneralizedContext",
    "CompositeProperty",
    "translate_contexts",
    "build_generalized_context",
    "composite_probability",
    "composite_meet",
    "composite_join",
    "composite_negate",
    "conditional_probability",
    "property_projector",
]

LabelTuple = tuple[str, ...]


class Context:
    """A time plus a complete, mutually exclusive family of atomic projectors.

    Construction checks the laws of the (k, d, d) atom stack in one pass:
    row i forms P_i P_j for every j >= i as one product, and with P_i taken
    from its first entry gives the idempotence residual |P_i^2 - P_i| and
    the exclusivity residuals |P_i P_j|, j > i, as max entry.  Exclusivity
    is checked first, then completeness (the deviation of the atom sum
    from I).  A failure raises ``ExclusivityViolation`` with (i, j,
    residual) per offending pair, in ``itertools.combinations`` order, or
    ``CompletenessViolation`` with (residual,).  Hermiticity is measured,
    not checked.
    """

    def __init__(
        self,
        time: float,
        atoms: Sequence[Projector],
        labels: Sequence[str] | None = None,
        *,
        tols: Tolerances = DEFAULT_TOLERANCES,
    ):
        time = float(time)
        if not math.isfinite(time):
            raise InvariantViolation(f"context time must be finite, got {time!r}")
        atoms = tuple(atoms)
        if not atoms:
            raise InvariantViolation("a context needs at least one atom")
        dim = atoms[0].dim
        for atom in atoms[1:]:
            if atom.dim != dim:
                raise DimensionMismatch("context atoms act on different dimensions")
        if labels is None:
            labels = tuple(str(i) for i in range(len(atoms)))
        else:
            labels = tuple(str(l) for l in labels)
            if len(labels) != len(atoms):
                raise InvariantViolation(
                    f"{len(labels)} labels for {len(atoms)} atoms"
                )
            if len(set(labels)) != len(labels):
                raise InvariantViolation("atom labels must be unique")

        matrices = np.stack([atom.matrix for atom in atoms])
        # rows[i][j - i]: |P_i P_j|, or |P_i^2 - P_i| at j = i
        rows = []
        for i, atom in enumerate(matrices):
            products = atom @ matrices[i:]
            products[0] -= atom
            rows.append(np.abs(products).max(axis=(1, 2)).tolist())
        pairs = [(i, j, rows[i][j - i]) for i, j in itertools.combinations(range(len(rows)), 2)]
        exclusivity = [pair for pair in pairs if not pair[2] <= tols.proj]
        if exclusivity:
            worst = max(exclusivity, key=lambda v: v[2])
            raise ExclusivityViolation(
                f"atoms {labels[worst[0]]!r} and {labels[worst[1]]!r} have "
                f"non-zero product (residual {worst[2]:.3e}); "
                f"{len(exclusivity)} offending pair(s) in total",
                exclusivity,
            )
        residual = max_entry_norm(matrices.sum(axis=0) - np.eye(dim))
        if not residual <= tols.proj:
            raise CompletenessViolation(
                f"atom sum deviates from identity by {residual:.3e}",
                (residual,),
            )
        squares = float(np.max([row[0] for row in rows]))
        hermiticity = max_entry_norm(matrices - np.swapaxes(matrices, -1, -2).conj())
        matrices.setflags(write=False)

        self._time = time
        self._matrices = matrices
        self._labels = labels
        self._law_residual = max(residual, squares, hermiticity, *(pair[2] for pair in pairs))

    @property
    def time(self) -> float:
        return self._time

    @property
    def atoms(self) -> tuple[Projector, ...]:
        """The atoms as new ``Projector``s, one per row of the checked
        (k, d, d) stack that the context keeps, not checked again."""
        return tuple(Projector._derived(atom) for atom in self._matrices)

    @property
    def labels(self) -> tuple[str, ...]:
        return self._labels

    @property
    def dim(self) -> int:
        return self._matrices.shape[-1]

    @property
    def law_residual(self) -> float:
        """delta: the largest of the exclusivity, completeness, idempotence
        and Hermiticity residuals measured at construction, as max entry."""
        return self._law_residual

    def __len__(self) -> int:
        return len(self._matrices)

    def translated(
        self,
        t_to: float,
        hamiltonian: HermitianOperator,
        hbar: float = 1.0,
    ) -> np.ndarray:
        """The atoms moved to ``t_to`` as one read-only (k, d, d) stack: the
        one-context case of ``translate_contexts``, with its checks."""
        return translate_contexts((self,), t_to, hamiltonian, hbar)[1][0]

    def __repr__(self) -> str:
        return f"Context(time={self._time}, atoms={len(self)}, dim={self.dim})"


def translate_contexts(
    contexts: Sequence[Context],
    t_to: float,
    hamiltonian: HermitianOperator,
    hbar: float = 1.0,
) -> tuple[tuple[Context, ...], tuple[np.ndarray, ...]]:
    """Check contexts at several times and move each one's atoms to ``t_to``.

    The list must be non-empty, have strictly increasing times and act on
    the Hamiltonian's dimension.  One array of phases gives every U
    (``linop._evolution_stack``) and ``UnitaryOperator.transform`` moves
    each context.  Returns the contexts as a tuple and one read-only (k, d, d)
    stack per context, not checked again: conjugation by a unitary maps
    projectors to projectors and a complete exclusive family to one.
    """
    contexts = tuple(contexts)
    if not contexts:
        raise InvariantViolation("need at least one context")
    times = [ctx.time for ctx in contexts]
    if any(t2 <= t1 for t1, t2 in zip(times, times[1:])):
        raise TimeOrderViolation(
            f"context times must be strictly increasing, got {times}"
        )
    if any(ctx.dim != hamiltonian.dim for ctx in contexts):
        raise DimensionMismatch("context and Hamiltonian dimensions differ")
    unitaries = _evolution_stack(hamiltonian, times, t_to, hbar)
    translated = tuple(
        UnitaryOperator._derived(u).transform(ctx._matrices) for u, ctx in zip(unitaries, contexts)
    )
    for moved in translated:
        moved.setflags(write=False)
    return contexts, translated


_EPS = float(np.finfo(float).eps)


# The pairwise commutation check takes one atom of context a at a time when
# the broadcast call's four (k_a, k_b, d, d) temporaries would each hold more
# entries than this (1 MiB): below it the one broadcast call is faster,
# above it the temporaries leave the cache.  Measured crossover between
# 63 504 and 82 944 entries, see ROADMAP.md.
_BROADCAST_MAX_ENTRIES = 2**16


def _gemm_rounding(dim: int) -> float:
    """g = 4 (d + 2) eps: fl(A B) of d x d matrices is within g |A|_F |B|_F
    of A B in Frobenius norm and within g |row| |column| in each entry."""
    return 4 * (dim + 2) * _EPS


class _JointBasis(NamedTuple):
    """One ``eigh`` of Z and what it certifies (``_joint_atoms``): the
    context pairs that commute, how far each composed atom sits from its
    product, and, through f, how far the atoms E_p = V D_p V^dag are from
    exclusive (E_q E_p = V D_q (V^dag V - I) D_p V^dag) and idempotent.  A
    ``GeneralizedContext`` keeps the basis its atoms came from, and a gmh
    check of that context's history family reads its consistency from it
    (``_history_bound``)."""

    vectors: np.ndarray  # the eigenvectors of Z, one per column
    positions: np.ndarray  # their eigenvalues rounded to integers, ascending
    pairs: list[float]  # per context pair, >= every residual of the pairwise check
    gap: float  # >= |E_p - fl(A_p)| for every label position p
    overlap: float  # f >= |V^dag V - I|, which E_q E_p and E_p^2 - E_p inherit

    def atoms(self) -> tuple[np.ndarray, np.ndarray]:
        """The kept atoms E_p, each the sum of the outer products of the
        eigenvectors at position p, and their positions, ascending."""
        starts = np.flatnonzero(np.diff(self.positions, prepend=-1.0))
        outer = self.vectors.T[:, :, None] * self.vectors.T.conj()[:, None, :]
        return np.add.reduceat(outer, starts, axis=0), self.positions[starts].astype(np.int64)


def _label_sum(coefficients: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """sum_i c_i S_i of a (k, d, d) stack: the (1, k) by (k, d^2) ``np.dot``
    that ``np.tensordot(c, S, axes=1)`` makes, without its Python."""
    return np.dot(coefficients[None], stack.reshape(len(stack), -1)).reshape(stack.shape[1:])


def _joint_atoms(stacks: Sequence[np.ndarray]) -> _JointBasis:
    """The joint eigenbasis of translated (k_t, d, d) stacks S_{t,i} and the
    certificate that reads their composed atoms from it.

    Z = sum_t W_t X_t with X_t = sum_i i S_{t,i} and W_t the product of the
    later sizes k_s.  On a joint eigenvector of an exactly commuting family,
    Z reads pos(a) = sum_t W_t a_t, the position of label a in
    ``itertools.product`` order, so the digit of context t at position p is
    a_t(p) = floor(p / W_t) mod k_t.  One ``eigh`` of Z gives V, and its
    eigenvalues rounded to integers give each column m a position p_m.  The
    kept atoms E_p (``_JointBasis.atoms``) sum the outer products of the
    columns at p: Hermitian, idempotent, exclusive and complete by
    construction.  Whether they are the atoms of these stacks is measured,
    not derived (``_basis_bounds``).
    """
    sizes = [len(stack) for stack in stacks]
    weights = np.cumprod([1, *sizes[:0:-1]])[::-1].tolist()
    every = np.concatenate(stacks)
    coefficients = np.concatenate([w * np.arange(k) for w, k in zip(weights, sizes)])
    values, vectors = np.linalg.eigh(_label_sum(coefficients, every))
    positions = np.rint(values)
    return _JointBasis(vectors, positions, *_basis_bounds(every, sizes, vectors, positions))


def _basis_bounds(
    every: np.ndarray, sizes: Sequence[int], vectors: np.ndarray, positions: np.ndarray
) -> tuple[list[float], float, float]:
    """The certificate of a basis V (``vectors``) whose columns carry label
    ``positions``, for the translated stacks concatenated in ``every``, k_t
    atoms each: the pair bounds, the atom gap and f of ``_JointBasis``.

    Below |.| is the operator and |.|_F the Frobenius norm, D_{t,i} the 0/1
    diagonal of the columns whose digit a_t is i, and g = 4 (d + 2) eps.

    1. Measured, each with the rounding of its norm: f >= |V^dag V - I|
       from its largest absolute row sum (which bounds the operator norm of
       a Hermitian matrix), one GEMM plus d g (1 + f) for its rounding, as
       |V|_F^2 <= d (1 + f) = u^2; and the norm m_{t,i} of the computed
       S_{t,i} V - V D_{t,i}, one GEMM of all stacks by V.
    2. With f < 1, |V| <= sqrt(1 + f) and |V^-1| <= w = 1 / sqrt(1 - f).
       The GEMM rounds by g |S|_F u, and |S|_F <= (r + u) w for
       r = |S V - V D|_F, so r <= (m + g u^2 w) / (1 - g u w).  The
       P'_{t,i} = V D_{t,i} V^-1 commute exactly, |P'| <= c =
       sqrt((1 + f) / (1 - f)), and S_{t,i} - P'_{t,i} =
       (S_{t,i} V - V D_{t,i}) V^-1 has |.|_F <= rho_t = w max_i r_{t,i}.
    3. Pairs.  With S = P' + E and T = Q' + F, [S, T] = [E, Q'] + [P', F]
       + [E, F], so |[S_i, T_j]|_max <= |[S_i, T_j]|_F <=
       2 (c (rho_a + rho_b) + rho_a rho_b).  The pairwise check's own
       products round by g |S| |T| in each entry, |S| <= c + rho, so a pair
       bound within ``tols.commute`` means that check would pass every
       residual of the pair.
    4. Atoms.  A position p < N names one label a, and P'_{1,a_1} ...
       P'_{T,a_T} = V D_p V^-1, D_p the columns at p (zero where none
       sits).  Telescoping, the product A_p = S_{1,a_1} ... S_{T,a_T} is
       within T s^(T-1) max rho of it, s = c + max rho, in either factor
       order, as the P' commute; and
       |V D_p V^dag - V D_p V^-1| <= |V| |V^dag V - I| |V^-1| <= f c.
       Formed one factor at a time, as ``linop.ordered_products`` forms a
       history, A_p rounds by at most 1.01 (T - 1) d g s^T, and the sums
       of outer products round E_p by (d + 4) eps d (1 + f).  The gap adds
       these four terms: every kept E_p is within it of fl(A_p), and the
       product of a position without an eigenvector within it of zero.

    A position that is not finite or not in [0, N), or f >= 1, certifies
    nothing: both bounds are infinite.  A final 1 + 16 eps covers the
    rounding of the pairwise check's subtraction and of the bounds.
    """
    n_times, dim = len(sizes), every.shape[-1]
    g = _gemm_rounding(dim)
    overlap = np.abs(vectors.conj().T @ vectors - np.eye(dim)).sum(axis=1).max()
    f = ((1 + (dim + 8) * _EPS) * float(overlap) + dim * g) / (1 - dim * g)
    # written so that NaN fails; the positions are ascending
    if not (f < 1 and 0 <= positions[0] and positions[-1] < math.prod(sizes)):
        return [math.inf] * (n_times * (n_times - 1) // 2), math.inf, f
    weights = np.cumprod([1, *sizes[:0:-1]])[::-1]
    digits = positions.astype(np.int64) // weights[:, None] % np.array(sizes)[:, None]
    starts = np.cumsum([0, *sizes[:-1]])
    # rows[t, m]: the atom of context t that the digit of column m names
    rows = starts[:, None] + digits
    defects = (every.reshape(-1, dim) @ vectors).reshape(every.shape)
    defects[rows, :, np.arange(dim)] -= vectors.T
    squares = frobenius_squares(defects).tolist()
    sigma = 1 + (2 * dim * dim + 2) * _EPS
    u, w = math.sqrt(dim * (1 + f)), 1 / math.sqrt(1 - f)
    rho = [
        w * (sigma * math.sqrt(max(squares[t : t + k])) + g * u * u * w) / (1 - g * u * w)
        for t, k in zip(starts.tolist(), sizes)
    ]
    c = math.sqrt((1 + f) / (1 - f))
    pairs = [
        (1 + 16 * _EPS) * (2 * (c * (a + b) + a * b) + 2 * g * (c + a) * (c + b))
        for a, b in itertools.combinations(rho, 2)
    ]
    s = c + max(rho)
    gap = (1 + 16 * _EPS) * (
        n_times * s ** (n_times - 1) * max(rho)
        + f * c
        + 1.01 * (n_times - 1) * dim * g * s**n_times
        + (dim + 4) * _EPS * dim * (1 + f)
    )
    return pairs, gap, f


def _history_bound(basis: _JointBasis, rho: np.ndarray) -> float:
    """A bound B on every off-diagonal gram entry ``gmh_check`` would compute
    for the history family of a generalized context whose atoms came from
    ``basis``, and on how far each history's weight there can sit from its
    composed atom's weight Re ``vdot``(fl(E_p), rho).

    Below |.| is the operator norm, |.|_F the Frobenius norm, g = 4 (d + 2)
    eps, gamma the certificate's ``gap`` and f its ``overlap``
    (``_basis_bounds``); E_p = V D_p V^dag for the computed
    eigenvectors V, so |E_p| <= 1 + f.

    1. Histories.  The P'_{t,i} = V D_{t,i} V^-1 commute exactly, so the
       telescoping of the certificate's step 4 holds in either factor
       order: every computed history C_p (latest time leftmost, a label p
       without an eigenvector included, E_p = 0) is within gamma of E_p.
    2. Exactness.  For p != q, D_q D_p = 0 gives
       E_q E_p = V D_q (V^dag V - I) D_p V^dag, |.| <= f (1 + f), and
       E_p^2 - E_p = V D_p (V^dag V - I) D_p V^dag likewise.  With
       C = E + Delta, |Delta| <= gamma, C_q^dag C_p lies within
       f (1 + f) + 2 (1 + f) gamma + gamma^2 of 0 (p != q) or of E_p
       (p = q), and E_p within (d + 4) eps d (1 + f) <= gamma of the computed
       atom.  So |D(p, q)| and |D(p, p) - Tr(fl(E_p) rho)| are at most
       (f (1 + f) + (3 + 2 f) gamma + gamma^2) |rho|_tr, with
       |rho|_tr <= sqrt(d) |rho|_F whatever tolerances the state was
       checked with.
    3. Rounding.  |C_p|_F <= c = sqrt(d) (1 + f + gamma).  As in step 2 of
       ``histories._cross_block_bound``, the gram rounds each entry by
       (g + 2 (d^2 + 2) eps (1 + g)) c^2 |rho|_F, and the ``vdot`` of a
       weight by no more; both are added.

    A bound within ``tols.consist`` thus means the gram route finds no
    violation, with every probability within B of the weight.  B is
    positive, so ``tols.consist <= 0`` never clears, and a NaN clears
    nothing.
    """
    dim = rho.shape[-1]
    gap, f = basis.gap, basis.overlap
    g = _gemm_rounding(dim)
    frobenius = float(np.linalg.norm(rho))
    exact = f * (1 + f) + (3 + 2 * f) * gap + gap * gap
    rounding = (g + 2 * (dim * dim + 2) * _EPS * (1 + g)) * dim * (1 + f + gap) ** 2
    return (1 + 16 * _EPS) * frobenius * (math.sqrt(dim) * exact + 2 * rounding)


def _pair_residuals(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The (k_a, k_b) commutator residuals of every atom pair of stacks a and
    b: one broadcast call, or one atom of a at a time when its temporaries
    would exceed ``_BROADCAST_MAX_ENTRIES`` entries (the same bits)."""
    if a.size * len(b) <= _BROADCAST_MAX_ENTRIES:
        return commutator_residuals(a[:, None], b[None, :])
    return np.stack([commutator_residuals(atom, b) for atom in a])


def _worst_pairs(
    contexts: Sequence[Context], stacks: Sequence[np.ndarray]
) -> list[tuple[tuple[int, str], tuple[int, str], float]]:
    """The translated atom pair with the largest commutator residual of
    every context pair (``_pair_residuals``)."""
    worst = []
    for a, b in itertools.combinations(range(len(stacks)), 2):
        residuals = _pair_residuals(stacks[a], stacks[b])
        i, j = np.unravel_index(np.argmax(residuals), residuals.shape)
        worst.append(
            ((a, contexts[a].labels[i]), (b, contexts[b].labels[j]), float(residuals[i, j]))
        )
    return worst


def _commutation_failures(
    contexts: Sequence[Context],
    stacks: Sequence[np.ndarray],
    tols: Tolerances,
) -> tuple[list[tuple[tuple[int, str], tuple[int, str], float]], _JointBasis | None]:
    """Every translated atom pair whose commutator exceeds ``tols.commute``,
    and the joint basis (``_joint_atoms``) when it was taken.

    With X_t = sum_i i S_{t,i}, an exactly commuting family has
    [X_a, X_b] = 0, so only when every |[X_a, X_b]|_F is within
    ``tols.commute`` is the ``eigh`` taken here: a family that fails at the
    label sums never pays for it.  A context pair whose certificate bound
    is within ``tols.commute`` has no failing pair.  Every other pair runs
    the pairwise check (``_pair_residuals``).
    """
    # X_t = sum_i i S_{t,i}
    sums = [_label_sum(np.arange(len(stack), dtype=float), stack) for stack in stacks]
    pairs = list(itertools.combinations(range(len(stacks)), 2))

    def label_commutator(a, b):
        commutator = sums[a] @ sums[b] - sums[b] @ sums[a]
        return math.sqrt(np.vdot(commutator, commutator).real)

    basis = None
    if all(label_commutator(a, b) <= tols.commute for a, b in pairs):
        basis = _joint_atoms(stacks)
    bounds = [math.inf] * len(pairs) if basis is None else basis.pairs
    failures = []
    for (a, b), bound in zip(pairs, bounds):
        if bound <= tols.commute:
            continue
        residuals = _pair_residuals(stacks[a], stacks[b])
        failures += [
            ((a, contexts[a].labels[i]), (b, contexts[b].labels[j]), float(residuals[i, j]))
            for i, j in zip(*np.nonzero(residuals > tols.commute))
        ]
    return failures, basis


class GeneralizedContext:
    """Contexts at several times whose atoms commute at a common time.

    Construction translates every atom to ``ref_time`` in one call of
    ``translate_contexts`` and requires all cross-context commutators to
    vanish within ``tols.commute`` (``_commutation_failures``).  The
    commuting translated contexts are then one context at ``ref_time``: its
    composed atoms, labelled in the ``itertools.product`` order of the
    context labels, are the spectral projectors of one observable, from a
    single ``eigh`` (``_joint_atoms``), which carries a measured certificate:
    how far each context's atoms are from being diagonal in its eigenbasis.
    That bounds every cross-context commutator, so a context pair it clears
    skips the pairwise check, and how far each composed atom sits from the
    product of its translated atoms.  The atoms are projectors, exclusive
    and complete by construction, so none of these laws is checked again.
    When that certified distance exceeds 1/4, or an eigenvalue is not
    finite or does not round to a label position (the gap reads infinite),
    the contexts are not one context: ``IncompatibleContexts`` names the
    worst translated atom pair of each context pair and the gap.  That
    takes a loosened ``commute`` (x then z at ``commute`` >= 0.5).

    There are prod |ctx| composed atoms, but their ranks sum to d, so most
    of them are zero: only the positions that carry an eigenvalue are kept.
    A dropped atom reads exactly zero: ``composite_probability`` and
    ``property_projector`` skip it and ``composed_atoms`` maps it to a zero
    projector.

    The verdict does not depend on ``ref_time``: moving every atom to another
    time conjugates each commutator by one unitary V, so a commutator that
    vanishes at one time vanishes at all of them.  Since
    |V X V^dag|_max <= d |X|_max, only a residual within a factor d of
    ``tols.commute`` could read differently at another time.
    """

    def __init__(
        self,
        contexts: Sequence[Context],
        ref_time: float,
        hamiltonian: HermitianOperator,
        hbar: float = 1.0,
        *,
        tols: Tolerances = DEFAULT_TOLERANCES,
    ):
        contexts, translated = translate_contexts(contexts, ref_time, hamiltonian, hbar)
        failures, basis = _commutation_failures(contexts, translated, tols)
        if failures:
            raise IncompatibleContexts(
                f"{len(failures)} translated atom pair(s) fail to commute "
                f"at t={ref_time!r}; worst residual "
                f"{max(f[2] for f in failures):.3e}",
                failures,
            )

        if basis is None:
            basis = _joint_atoms(translated)
        # written so that NaN fails
        if not basis.gap <= 0.25:
            raise IncompatibleContexts(
                f"the joint eigenbasis at t={ref_time!r} places the composed "
                f"atoms up to {basis.gap:.3e} from the translated products, "
                f"beyond 1/4",
                _worst_pairs(contexts, translated),
                gap=basis.gap,
            )
        atoms, kept = basis.atoms()
        atoms.setflags(write=False)

        self._contexts = contexts
        self._ref_time = float(ref_time)
        self._hamiltonian = hamiltonian
        self._hbar = float(hbar)
        self._translated = translated
        self._atoms = atoms
        # the joint basis the atoms came from
        self._basis = basis
        self._labels = tuple(itertools.product(*(ctx.labels for ctx in contexts)))
        # label tuple -> row of its kept atom, None for a dropped one
        rows = dict(zip(kept.tolist(), range(len(kept))))
        self._index = {label: rows.get(k) for k, label in enumerate(self._labels)}

    def _certified_probabilities(
        self, rho: DensityOperator, tol: float
    ) -> dict[LabelTuple, float] | None:
        """The gmh probabilities of this context's history family for the
        state ``rho`` at the reference time, when the eigenbasis certificate
        places every off-diagonal entry of its gram, and each history's
        weight's distance from its composed atom's, within ``tol``
        (``_history_bound``); None otherwise.  Each label reads
        Re ``vdot``(E, rho) of its kept atom E, as ``composite_probability``
        sums them, clipped below at 0, and a label without a kept atom reads
        0."""
        if not _history_bound(self._basis, rho.matrix) <= tol:
            return None
        # Re Tr(rho E) = Re Tr(E^dag rho) for Hermitian rho: O(d^2), no product
        weights = [float(np.vdot(atom, rho.matrix).real) for atom in self._atoms]
        return {
            label: 0.0 if row is None else max(0.0, weights[row])
            for label, row in self._index.items()
        }

    @property
    def contexts(self) -> tuple[Context, ...]:
        return self._contexts

    @property
    def ref_time(self) -> float:
        return self._ref_time

    @property
    def hamiltonian(self) -> HermitianOperator:
        return self._hamiltonian

    @property
    def hbar(self) -> float:
        return self._hbar

    @property
    def dim(self) -> int:
        return self._contexts[0].dim

    @property
    def translated_atoms(self) -> tuple[np.ndarray, ...]:
        """Per-context (k, d, d) atom stacks translated to the reference time."""
        return self._translated

    @functools.cached_property
    def composed_atoms(self) -> Mapping[LabelTuple, Projector]:
        """Each composed atom as a ``Projector``, as a read-only mapping.

        The ``Projector`` objects are built on the first access only; later
        accesses return the same mapping.  Every dropped atom maps to one
        shared zero ``Projector``; each kept one holds its own copy of its
        atom, which is a projector by construction and is not checked again.
        """
        zero = Projector.zero(self.dim)
        kept = [Projector._derived(atom) for atom in self._atoms]
        return MappingProxyType(
            {
                label: zero if row is None else kept[row]
                for label, row in self._index.items()
            }
        )

    @property
    def label_tuples(self) -> tuple[LabelTuple, ...]:
        return self._labels

    def property(self, selected: Iterable[LabelTuple]) -> "CompositeProperty":
        return CompositeProperty(self, selected)

    def __repr__(self) -> str:
        return (
            f"GeneralizedContext(times={[c.time for c in self._contexts]}, "
            f"ref_time={self._ref_time}, dim={self.dim})"
        )


def build_generalized_context(
    contexts: Sequence[Context],
    ref_time: float,
    hamiltonian: HermitianOperator,
    hbar: float = 1.0,
    *,
    tols: Tolerances = DEFAULT_TOLERANCES,
) -> GeneralizedContext:
    """Validate compatibility of the contexts and assemble the composed atoms.

    Raises ``IncompatibleContexts`` carrying every non-commuting translated
    atom pair, or, when the joint eigenbasis does not certify the composed
    atoms, the worst pair of each context pair and the certificate's gap;
    ``TimeOrderViolation`` for unsorted context times.
    """
    return GeneralizedContext(contexts, ref_time, hamiltonian, hbar, tols=tols)


class CompositeProperty:
    """A disjunction of composed atoms of one generalized context."""

    def __init__(self, parent: GeneralizedContext, selected: Iterable[LabelTuple]):
        selected = frozenset([tuple(map(str, tup)) for tup in selected])
        rows = [parent._index.get(label, -1) for label in selected]
        if -1 in rows:
            unknown = sorted(tup for tup in selected if tup not in parent._index)
            raise InvariantViolation(f"label tuples not in the generalized context: {unknown}")
        self._parent = parent
        self._selected = selected
        # kept-atom rows of the selection in ascending (grid) order, so every
        # sum over a selection adds its atoms in one fixed order; a dropped
        # atom (row None) is zero and adds nothing
        self._rows = sorted(row for row in rows if row is not None)

    @property
    def parent(self) -> GeneralizedContext:
        return self._parent

    @property
    def selected(self) -> frozenset[LabelTuple]:
        return self._selected

    def __repr__(self) -> str:
        return f"CompositeProperty({sorted(self._selected)})"


def _require_same_parent(a: CompositeProperty, b: CompositeProperty) -> None:
    if a.parent is not b.parent:
        raise ForeignProperty(
            "composite properties belong to different generalized contexts"
        )


def property_projector(prop: CompositeProperty) -> Projector:
    """Projector represented by the property: the sum of its composed atoms,
    which are exclusive projectors, so the sum is not checked again."""
    gc = prop.parent
    total = np.zeros((gc.dim, gc.dim), dtype=np.complex128)
    for row in prop._rows:
        total += gc._atoms[row]
    return Projector._derived(total)


def composite_probability(
    gc: GeneralizedContext,
    prop: CompositeProperty,
    rho: DensityOperator,
    *,
    tols: Tolerances = DEFAULT_TOLERANCES,
) -> float:
    """Born probability of a composite property, state given at ref_time.

    Sums Tr(rho Pi) over the selected composed atoms; additive over disjoint
    selections, and the full selection carries probability one.  Each
    atom's term is Re ``vdot``(Pi, rho), the same float a certified gmh
    report of the context's family reads for its label
    (``GeneralizedContext._certified_probabilities``).
    """
    if prop.parent is not gc:
        raise ForeignProperty("property does not belong to this generalized context")
    if rho.dim != gc.dim:
        raise DimensionMismatch(f"state dim {rho.dim} vs context dim {gc.dim}")
    value = 0.0
    for row in prop._rows:
        # Re Tr(rho Pi) = Re Tr(Pi^dag rho) for Hermitian rho: O(d^2), no product
        value += float(np.vdot(gc._atoms[row], rho._matrix).real)
    if value < -tols.prob or value > 1.0 + tols.prob:
        raise InvariantViolation(
            f"probability {value!r} lies outside [0, 1] beyond {tols.prob:.1e}"
        )
    return min(1.0, max(0.0, value))


def composite_meet(a: CompositeProperty, b: CompositeProperty) -> CompositeProperty:
    """Conjunction: intersection of the selected label tuples."""
    _require_same_parent(a, b)
    return CompositeProperty(a.parent, a.selected & b.selected)


def composite_join(a: CompositeProperty, b: CompositeProperty) -> CompositeProperty:
    """Disjunction: union of the selected label tuples."""
    _require_same_parent(a, b)
    return CompositeProperty(a.parent, a.selected | b.selected)


def composite_negate(a: CompositeProperty) -> CompositeProperty:
    """Complement within the parent's label-tuple grid."""
    return CompositeProperty(a.parent, set(a.parent.label_tuples) - a.selected)


def conditional_probability(
    gc: GeneralizedContext,
    a: CompositeProperty,
    b: CompositeProperty,
    rho: DensityOperator,
    *,
    tols: Tolerances = DEFAULT_TOLERANCES,
) -> float | None:
    """Pr(b | a) = Pr(b and a) / Pr(a), or None when Pr(a) is null.

    A conditioning probability below ``tols.prob`` leaves the ratio
    undefined; that case is flagged by returning None rather than raising.
    """
    _require_same_parent(a, b)
    if a.parent is not gc:
        raise ForeignProperty("properties do not belong to this generalized context")
    p_a = composite_probability(gc, a, rho, tols=tols)
    if p_a < tols.prob:
        return None
    p_ab = composite_probability(gc, composite_meet(a, b), rho, tols=tols)
    return p_ab / p_a
