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
import operator
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
    check_projector_stack,
    commutator_residuals,
    evolution_operator,
    max_entry_norm,
    ordered_products,
)

__all__ = [
    "Context",
    "GeneralizedContext",
    "check_context_laws",
    "CompositeProperty",
    "validate_context",
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


def check_context_laws(
    atoms: np.ndarray,
    labels: Sequence[str],
    *,
    tols: Tolerances = DEFAULT_TOLERANCES,
) -> float:
    """Exclusivity and completeness of a (k, d, d) atom family, as ``Context``
    checks its atoms.

    Raises ``ExclusivityViolation`` with (i, j, residual) per offending atom
    pair, or ``CompletenessViolation`` with the deviation of the atom sum
    from I.  Otherwise returns the family's law residual: the largest of
    the exclusivity, completeness, idempotence (P_i^2 - P_i, from the k
    diagonal products) and Hermiticity residuals, as max entry.
    """
    pairs = [
        (i, j, max_entry_norm(atoms[i] @ atoms[j]))
        for i, j in itertools.combinations(range(len(atoms)), 2)
    ]
    exclusivity = [pair for pair in pairs if not pair[2] <= tols.proj]
    if exclusivity:
        worst = max(exclusivity, key=lambda v: v[2])
        raise ExclusivityViolation(
            f"atoms {labels[worst[0]]!r} and {labels[worst[1]]!r} have "
            f"non-zero product (residual {worst[2]:.3e}); "
            f"{len(exclusivity)} offending pair(s) in total",
            exclusivity,
        )
    residual = max_entry_norm(atoms.sum(axis=0) - np.eye(atoms.shape[-1]))
    if not residual <= tols.proj:
        raise CompletenessViolation(
            f"atom sum deviates from identity by {residual:.3e}",
            (residual,),
        )
    squares = max_entry_norm(atoms @ atoms - atoms)
    hermiticity = max_entry_norm(atoms - np.swapaxes(atoms, -1, -2).conj())
    return max(residual, squares, hermiticity, *(pair[2] for pair in pairs))


class Context:
    """A time plus a complete, mutually exclusive family of atomic projectors."""

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
        law_residual = check_context_laws(matrices, labels, tols=tols)
        matrices.setflags(write=False)

        self._time = time
        self._atoms = atoms
        self._matrices = matrices
        self._labels = labels
        self._law_residual = law_residual

    @property
    def time(self) -> float:
        return self._time

    @property
    def atoms(self) -> tuple[Projector, ...]:
        return self._atoms

    @property
    def labels(self) -> tuple[str, ...]:
        return self._labels

    @property
    def dim(self) -> int:
        return self._atoms[0].dim

    @property
    def law_residual(self) -> float:
        """delta: the largest law residual measured at construction
        (``check_context_laws``), as max entry."""
        return self._law_residual

    def __len__(self) -> int:
        return len(self._atoms)

    def translated(
        self,
        t_to: float,
        hamiltonian: HermitianOperator,
        hbar: float = 1.0,
    ) -> np.ndarray:
        """The atoms moved to ``t_to`` by one evolution operator, as a
        read-only (k, d, d) stack that is not checked again: conjugation by
        a checked unitary maps projectors to projectors and a complete
        exclusive family to one (U P U^dag U Q U^dag = U P Q U^dag)."""
        if self.dim != hamiltonian.dim:
            raise DimensionMismatch("context and Hamiltonian dimensions differ")
        u = evolution_operator(hamiltonian, self._time, t_to, hbar)
        moved = u.transform(self._matrices)
        moved.setflags(write=False)
        return moved

    def __repr__(self) -> str:
        return f"Context(time={self._time}, atoms={len(self._atoms)}, dim={self.dim})"


def validate_context(
    atoms: Sequence[Projector],
    time: float = 0.0,
    labels: Sequence[str] | None = None,
    *,
    tols: Tolerances = DEFAULT_TOLERANCES,
) -> Context:
    """Check the exclusivity and completeness laws and return the context.

    On failure raises ``ExclusivityViolation`` or ``CompletenessViolation``
    whose ``violations`` attribute names the offending pairs/sum with their
    residual magnitudes.
    """
    return Context(time, atoms, labels, tols=tols)


def translate_contexts(
    contexts: Sequence[Context],
    t_to: float,
    hamiltonian: HermitianOperator,
    hbar: float = 1.0,
) -> tuple[tuple[Context, ...], tuple[np.ndarray, ...]]:
    """Check contexts at several times and move each one's atoms to ``t_to``.

    The list must be non-empty and have strictly increasing times, and
    ``Context.translated`` rejects a context off the Hamiltonian's
    dimension.  Returns the contexts as a tuple and one
    ``Context.translated`` stack per context.
    """
    contexts = tuple(contexts)
    if not contexts:
        raise InvariantViolation("need at least one context")
    times = [ctx.time for ctx in contexts]
    if any(t2 <= t1 for t1, t2 in zip(times, times[1:])):
        raise TimeOrderViolation(
            f"context times must be strictly increasing, got {times}"
        )
    translated = tuple(
        ctx.translated(t_to, hamiltonian, hbar) for ctx in contexts
    )
    return contexts, translated


def _exclusivity_residual(mats: np.ndarray, tol: float) -> float:
    """max |P_a P_b - delta_ab P_a|_max over the pairs of an (n, d, d) stack
    that a row/column-norm bound cannot place within ``tol``.

    By Cauchy-Schwarz |(P_a P_b)_ik| <= r_a c_b, with r_a the largest row
    2-norm of P_a and c_b the largest column 2-norm of P_b.  A row a with
    r_a max(c) <= tol, or a column b with c_b max(r) <= tol, therefore has
    every off-diagonal product within ``tol`` without being formed, and its
    diagonal term P_a^2 - P_a was bounded by ``tol`` when the stack was checked
    as projectors.  ``slack`` covers the rounding of the norms and of the
    products themselves, so no pair the full n^2 product check would flag is
    cleared.  The rest is one GEMM, (n_r d, d) @ (d, n_c d); for a valid
    family only the atoms of nonzero rank remain, at most d of them.
    """
    dim = mats.shape[-1]
    squares = mats.real**2 + mats.imag**2
    rows = np.sqrt(squares.sum(axis=2).max(axis=1))
    cols = np.sqrt(squares.sum(axis=1).max(axis=1))
    slack = 1.0 + 4 * (dim + 2) * np.finfo(float).eps
    left = np.flatnonzero(~(rows * (cols.max() * slack) <= tol))
    right = np.flatnonzero(~(cols * (rows.max() * slack) <= tol))
    if not (left.size and right.size):
        return 0.0
    lhs = mats[left].reshape(-1, dim)
    rhs = mats[right].transpose(1, 0, 2).reshape(dim, -1)
    # blocks[x, y] = P_left[x] @ P_right[y], a view into the GEMM output
    blocks = (lhs @ rhs).reshape(left.size, dim, right.size, dim).transpose(0, 2, 1, 3)
    _, x, y = np.intersect1d(left, right, assume_unique=True, return_indices=True)
    blocks[x, y] -= mats[left[x]]
    return max_entry_norm(blocks)


_EPS = float(np.finfo(float).eps)


# The per-context paths (the commutation screen here, the last-atom grams of
# ``histories.gmh_check``) run from this dimension on.  Each replaces one
# broadcast call by a few dozen small numpy calls, which costs more than it
# saves below it: measured crossover between d = 16 and d = 32 on the
# multi_time shapes, see ROADMAP.md.
_PER_CONTEXT_MIN_DIM = 24


def _gemm_rounding(dim: int) -> float:
    """g = 4 (d + 2) eps: fl(A B) of d x d matrices is within g |A|_F |B|_F
    of A B in Frobenius norm and within g |row| |column| in each entry."""
    return 4 * (dim + 2) * _EPS


def _translated_laws(dim: int, delta: float) -> float:
    """l = 1.01 d delta' + 16 d g, delta' = (1 + 4 eps) delta + 3 g: a bound in
    operator norm on every law residual (|S - S^dag|, |S^2 - S|, |S_i S_j|
    within one context, |sum_i S_i - I|) of translated atom stacks whose
    input contexts measured theirs within delta in max entry; see
    ``_joint_atoms``."""
    g = _gemm_rounding(dim)
    return 1.01 * dim * ((1 + 4 * _EPS) * delta + 3 * g) + 16 * dim * g


def _frobenius(matrices: np.ndarray) -> np.ndarray:
    """Frobenius norm of each matrix of an (n, d, d) stack."""
    flat = np.ascontiguousarray(matrices).reshape(len(matrices), -1).view(np.float64)
    return np.sqrt(np.einsum("ij,ij->i", flat, flat))


def _label_sums(stacks: Sequence[np.ndarray]) -> list[np.ndarray]:
    """X_t = sum_i i S_{t,i} of each translated (k_t, d, d) stack."""
    return [
        (np.arange(len(stack), dtype=float) @ stack.reshape(len(stack), -1)).reshape(
            stack.shape[1:]
        )
        for stack in stacks
    ]


class _ScreenTerms(NamedTuple):
    """Step 2 of ``_screen_bound`` for one translated stack."""

    x: float  # >= |X - c I|_F
    w: float  # >= |X|_F
    xi: float  # >= |X - X^|_F and >= the rounding of X^ - c I
    eta: float
    eps: float  # >= |H_i - E_i| for every atom
    h: float
    kappa: float
    s: float  # >= |S_i|_F for every atom


def _screen_terms(stack: np.ndarray, total: np.ndarray) -> _ScreenTerms | None:
    """Step 2 of ``_screen_bound`` for one translated (k, d, d) stack and its
    label sum X^, or None when its laws are too loose for the step.  Costs
    one GEMM, the defect S_i (X^ - c) - (i - c) S_i of every atom."""
    k, dim = len(stack), stack.shape[-1]
    g = _gemm_rounding(dim)
    c = (k - 1) / 2
    shifted = total - c * np.eye(dim)
    defects = (stack.reshape(k * dim, dim) @ shifted).reshape(stack.shape)
    defects -= (np.arange(k) - c)[:, None, None] * stack
    sigma = 1 + 2 * dim * dim * _EPS
    sizes = (sigma * _frobenius(stack)).tolist()
    defect = sigma * float(_frobenius(defects).max())
    h = sigma * float(_frobenius(stack - stack.conj().swapaxes(1, 2)).max())
    x_hat, w_hat, loss = (
        sigma * _frobenius(np.stack([shifted, total, stack.sum(axis=0) - np.eye(dim)]))
    ).tolist()
    s = max(sizes)
    xi = k * _EPS * sum(i * v for i, v in enumerate(sizes)) + _EPS * x_hat
    x, w = x_hat + xi, w_hat + xi
    loss += k * _EPS * sum(sizes)
    kappa = k * c
    phi = (
        (1 + _EPS) * defect
        + s * (xi + g * x + k * _EPS)
        + h / 2 * (x + c + kappa * (s + 2 * h))
    )
    eta = k * phi / (1 - loss)
    # written so that NaN fails
    if not (loss < 0.5 and eta <= 0.25):
        return None
    eps = loss + (_label_spread(k) + 3) * phi / (1 - eta)
    return _ScreenTerms(x, w, xi, eta, eps, h, kappa, s)


def _label_spread(k: int) -> float:
    """max_i sum_{n != i} 1 / |n - i| over labels i < k, reached at the middle."""
    return sum(1 / m for m in range(1, k - k // 2)) + sum(1 / m for m in range(1, k // 2 + 1))


def _screen_bound(commutator: float, a: _ScreenTerms, b: _ScreenTerms, dim: int) -> float:
    """The commutation screen of two translated stacks S_i (context a) and
    T_j (context b): from the measured |[X^_a, X^_b]|_F, a bound
    on every [S_i, T_j] in Frobenius, hence in operator and max-entry norm,
    and on every residual ``commutator_residuals`` computes for them.  It
    costs one commutator of two d x d matrices per context pair and one
    GEMM per stack (``_screen_terms``), against 2 k_a k_b products.

    Below S_i (i < k) is one stack as stored, X = sum_i i S_i summed
    exactly, X^ its ``_label_sums`` matrix, c = (k - 1)/2, |.| the operator
    and |.|_F the Frobenius norm, and g = 4 (d + 2) eps, so fl(A B) is within
    g |A|_F |B|_F of A B in |.|_F and within g |row| |column| in each entry.
    Measured norms carry a factor 1 + 2 d^2 eps for their rounding.

    1. Exact families.  For a Hermitian Y with every eigenvalue within
       eta < 1/2 of an integer, let E_i project onto those near i.  In Y's
       eigenbasis the entries of [E_i, M] and [Y, M] are (f(y) - f(y')) M
       and (y - y') M, with f the indicator of i, which only changes across
       a gap of at least 1 - 2 eta, so |[E_i, M]|_F <= |[Y, M]|_F / (1 - 2 eta)
       for every M.  An exact family has Y = X, eta = 0 and E_i = S_i, and
       applied once per side, |[P_i, Q_j]|_max <= |[P_i, Q_j]|_F <=
       |[X_a, Q_j]|_F <= |[X_a, X_b]|_F.  Gaps below 1 (weights i/2) break it.
    2. One stack as stored (``_screen_terms``).  Let H_i be the Hermitian
       parts, X_H = sum_i i H_i, h >= |S_i - S_i^dag| and
       l >= |sum_i S_i - I| (measured in |.|_F, l with the rounding of the
       sum), s >= |S_i|_F, kappa = k (k - 1)/2, and phi >= |F_i| for
       F_i = H_i X_H - i H_i = H_i (X_H - c) - (i - c) H_i.  phi is measured
       as the largest |.|_F of S_i (X^ - c) - (i - c) S_i, one GEMM on the
       stack, plus s (xi + g |X - c|_F + k eps) for its rounding, where
       xi = k eps sum_i i |S_i|_F + eps |X^ - c|_F bounds that of X^, plus
       h/2 (|X - c|_F + c + kappa (s + 2 h)) for the Hermitian parts.  Then
       - X_H v = lambda v, |v| = 1, gives (lambda - i) H_i v = F_i v, and
         |H_i v| >= (1 - l)/k for some i, so every eigenvalue of X_H is
         within eta = k phi / (1 - l) of an integer in [0, k);
       - X_H - n is invertible on the range of E_m, m != n, so
         H_n E_m = F_n (X_H - n)^-1 E_m has |H_n E_m| <= phi / (|n - m| - eta),
         and likewise |H_i (I - E_i)| <= phi / (1 - eta);
       - E_i H_i E_i = E_i + E_i (sum_n H_n - I) E_i - sum_{n != i} E_i H_n E_i,
         and 1 / (m - eta) <= 1 / (m (1 - eta)) for m >= 1, so with
         h_k = max_i sum_{n != i} 1 / |n - i|, every |H_i - E_i| is within
         eps = l + (h_k + 3) phi / (1 - eta).
       With |S_i - H_i| <= h/2, |X - X_H| <= kappa h/2 and step 1 for X_H,
         |[S_i, M]|_F <= (|[X, M]|_F + kappa h |M|_F) / (1 - 2 eta)
                         + (2 eps + h) |M|_F          for every M.
       The step needs eta <= 1/4 and l < 1/2; a stack beyond that clears
       nothing.
    3. Two stacks.  The measured commutator is within 2 g |X_a|_F |X_b|_F
       + 2 (xi_a |X_b|_F + |X_a|_F xi_b) of |[X_a, X_b]|_F, which is also
       |[X_a - c_a I, X_b]|_F.  Step 2 for b with M = X_a - c_a I bounds
       tau >= |[T_j, X_a]|_F for every j, and step 2 for a with M = T_j
       bounds every |[S_i, T_j]|_F from tau.
    4. The check's own rounding.  fl(S_i T_j) is within g |S_i| |T_j| of
       S_i T_j in each entry, |S_i| <= 1 + eps + h/2, so the residual the
       check computes is at most (1 + 2 eps)(|[S_i, T_j]|_max +
       2 g |S_i| |T_j|): a pair within ``tols.commute`` here passes it.
    """
    g = _gemm_rounding(dim)
    exact = (
        (1 + 2 * dim * dim * _EPS) * commutator
        + 2 * g * a.w * b.w
        + 2 * (a.xi * b.w + a.w * b.xi)
    )
    tau = (exact + b.kappa * b.h * a.x) / (1 - 2 * b.eta) + (2 * b.eps + b.h) * a.x
    pair = (tau + a.kappa * a.h * b.s) / (1 - 2 * a.eta) + (2 * a.eps + a.h) * b.s
    norms = (1 + a.eps + a.h / 2) * (1 + b.eps + b.h / 2)
    return (1 + 2 * _EPS) * (pair + 2 * g * norms)


def _commutation_failures(
    contexts: Sequence[Context],
    stacks: Sequence[np.ndarray],
    tols: Tolerances,
) -> tuple[list[tuple[tuple[int, str], tuple[int, str], float]], float]:
    """Every translated atom pair whose commutator exceeds ``tols.commute``,
    and, when there is none, a bound e on every cross-context commutator in
    operator norm.

    From d = ``_PER_CONTEXT_MIN_DIM`` on, a context pair that the screen
    (``_screen_bound``, from the measured defects of both stacks,
    ``_screen_terms``, once per stack) clears within ``tols.commute`` has no
    failing pair and adds its screen value to e.  The screen is at least the
    measured |[X_a, X_b]|_F, so only a pair with that within
    ``tols.commute`` is screened.  Every other pair runs the pairwise
    check, from that d on one atom of context a at a time against the whole
    stack of b, which avoids four (k_a, k_b, d, d) temporaries: the
    residuals are those of one broadcast check, bit for bit.  e takes
    d ((1 + 4 eps) r + 3 g) from the largest residual r of a checked pair
    (the check's rounding, ``_screen_bound`` step 4).
    """
    dim = stacks[0].shape[-1]
    screened = dim >= _PER_CONTEXT_MIN_DIM
    sums = _label_sums(stacks) if screened else None
    measured: dict[int, _ScreenTerms | None] = {}
    failures, bound = [], 0.0
    for a, b in itertools.combinations(range(len(stacks)), 2):
        if not screened:
            residuals = commutator_residuals(stacks[a][:, None], stacks[b][None, :])
        else:
            commutator = sums[a] @ sums[b] - sums[b] @ sums[a]
            commutator = math.sqrt(np.vdot(commutator, commutator).real)
            if commutator <= tols.commute:
                for t in (a, b):
                    if t not in measured:
                        measured[t] = _screen_terms(stacks[t], sums[t])
                if measured[a] is not None and measured[b] is not None:
                    screen = _screen_bound(commutator, measured[a], measured[b], dim)
                    if screen <= tols.commute:
                        bound = max(bound, screen)
                        continue
            residuals = np.stack([commutator_residuals(atom, stacks[b]) for atom in stacks[a]])
        for i, j in zip(*np.nonzero(residuals > tols.commute)):
            failures.append(
                (
                    (a, contexts[a].labels[i]),
                    (b, contexts[b].labels[j]),
                    float(residuals[i, j]),
                )
            )
        if not failures:
            worst = float(residuals.max())
            bound = max(bound, dim * ((1 + 4 * _EPS) * worst + 3 * _gemm_rounding(dim)))
    return failures, bound


def _joint_atoms(
    stacks: Sequence[np.ndarray], commutator: float, delta: float
) -> tuple[np.ndarray, np.ndarray] | None:
    """The composed atoms of commuting translated (k_t, d, d) stacks as the
    spectral projectors of one observable, or None when the bound below
    does not place its spectrum on the label positions.

    Z = sum_t W_t X_t with X_t = sum_i i S_{t,i} and W_t the product of the
    later sizes k_s.  On a joint eigenvector of an
    exactly commuting family, Z reads pos(a) = sum_t W_t a_t, the position
    of label a in ``itertools.product`` order.  One ``eigh`` of Z,
    eigenvalues rounded to the nearest integer, gives the kept positions
    (ascending) and their atoms, each the sum of the outer products of its
    adjacent eigenvectors: Hermitian, idempotent, exclusive and complete by
    construction.  None is returned when eta (step 2 below, from the
    ``commutator`` bound e of ``_commutation_failures`` and the largest
    context law residual ``delta``) exceeds 1/4, or when an eigenvalue is
    not finite or lies more than 1/4 from a position in [0, N),
    N = prod k_t.

    How close this comes to the products A_a = S_{1,a_1} ... S_{T,a_T}.
    Below |.| is the operator norm, e a bound on every cross-context
    commutator in it, l a bound on every law residual of the stacks in
    operator norm (|S - S^dag|, |S^2 - S|, |S_i S_j| within one context,
    |sum_i S_i - I|; conjugation by a checked unitary keeps the laws of
    the input contexts, so l <= 1.01 d delta' + 16 d g for input residuals
    measured as delta in max entry, delta' = (1 + 4 eps) delta + 3 g, with
    g = 4 (d + 2) eps), s = (1 + 3 l)^T a bound on the norm of a product,
    kappa_t = k_t (k_t - 1)/2 and K = sum_t W_t kappa_t <= max k (N - 1)/2.

    1. Residual.  Moving X_t leftwards past S_{T,a_T}, ..., S_{t+1,a_{t+1}}
       costs at most kappa_t e per factor, and S_{t,a_t} X_t is a_t S_{t,a_t}
       within kappa_t l.  ``eigh`` reads the Hermitian matrix Z' given by
       Z's lower triangle, within sqrt(d) |Z - Z^dag| <= sqrt(d) K l of Z,
       and forming Z rounds by at most rho = 2 d (sum_t k_t) K eps.
       So |A_a Z' - pos(a) A_a| <= r = s K ((T - 1) e + (1 + sqrt(d)) l) + rho.
    2. Eigenvalues.  The nested sums give sum_a A_a^dag A_a >= (1 - phi) I
       with phi = T (2.01 max k + 1) l.  For Z' v = lambda v, |v| = 1,
       (pos(a) - lambda) A_a v = (pos(a) A_a - A_a Z') v, so
       sum_a (pos(a) - lambda)^2 |A_a v|^2 <= N r^2, and some label has
       |pos(a) - lambda| <= eta = r sqrt(N / (1 - phi)) + d g N, the last
       term the backward error of ``eigh`` on a matrix of norm about N.
    3. Atoms.  With eta <= 1/4, let E_p project onto the eigenvalues within
       1/4 of p = pos(a).  Every other eigenvalue lies at least m - eta from
       p, m >= 1 the distance of its position, so |A_a (I - E_p)| <=
       r / (1 - eta) and |A_b E_p| <= r / (|pos(b) - p| - eta) for b != a
       (each m occurs at most twice).  With E_p = sum_b A_b E_p +
       (I - sum_b A_b) E_p and |sum_b A_b - I| <= 1.01 T l,

           |E_p - A_a| <= 4/3 r (3 + 2 ln N) + 1.01 T l,

       and rounding adds 4 d g N (the eigenvectors, over a gap of at least
       1/2) and 1.02 (T - 1) d g (the products of ``ordered_products``).
       Each probability Tr(rho E_p) then moves by at most as much.

    Only with eta <= 1/4 do the rounded eigenvalues name the labels, so a
    larger eta takes the products, whatever the spectrum: at a loosened
    ``commute`` a non-commuting family can have every eigenvalue of Z
    within 1/4 of a position (z then a direction 150 degrees away: Z's
    eigenvalues are 2.13 and 0.87).  At the default tolerances eta stays
    far below 1/4 on every multi_time shape, d <= 32 with N <= 81, and on
    9^4 atoms at d = 32 with commutators near rounding.
    """
    sizes = [len(stack) for stack in stacks]
    dim, n_times = stacks[0].shape[-1], len(sizes)
    count = math.prod(sizes)
    g = _gemm_rounding(dim)
    weights = np.cumprod([1, *sizes[:0:-1]])[::-1].tolist()
    laws = _translated_laws(dim, delta)
    pairs = sum(w * k * (k - 1) / 2 for w, k in zip(weights, sizes))
    residual = (1 + 3 * laws) ** n_times * pairs * (
        (n_times - 1) * commutator + (1 + math.sqrt(dim)) * laws
    ) + 2 * dim * sum(sizes) * pairs * _EPS
    spread = n_times * (2.01 * max(sizes) + 1) * laws
    # written so that NaN fails
    if not (
        spread < 1
        and residual * math.sqrt(count / (1 - spread)) + dim * g * count <= 0.25
    ):
        return None
    coefficients = np.concatenate([w * np.arange(k) for w, k in zip(weights, sizes)])
    values, vectors = np.linalg.eigh(
        np.tensordot(coefficients, np.concatenate(stacks), axes=1)
    )
    positions = np.rint(values)
    if not (
        np.all(np.abs(values - positions) <= 0.25)
        and 0 <= positions[0]
        and positions[-1] < count
    ):
        return None
    starts = np.flatnonzero(np.diff(positions, prepend=-1.0))
    outer = vectors.T[:, :, None] * vectors.T.conj()[:, None, :]
    return np.add.reduceat(outer, starts, axis=0), positions[starts].astype(np.int64)


class GeneralizedContext:
    """Contexts at several times whose atoms commute at a common time.

    Construction translates every atom to ``ref_time`` and requires all
    cross-context commutators to vanish within ``tols.commute``: from
    d = ``_PER_CONTEXT_MIN_DIM`` on, a context pair is cleared by one
    commutator of its label sums where the screen's bound allows, and every
    other pair is checked atom pair by atom pair
    (``_commutation_failures``).  The
    commuting translated contexts are then one context at ``ref_time``: its
    composed atoms, labelled in the ``itertools.product`` order of the
    context labels, are the spectral projectors of one observable, taken
    from a single ``eigh`` (``_joint_atoms``, which also bounds how far they
    sit from the products of the translated atoms, earliest time leftmost).
    They are projectors, exclusive and complete by construction, so none of
    these laws is checked again.

    There are prod |ctx| composed atoms, but their ranks sum to d, so most
    of them are zero: only the positions that carry an eigenvalue are kept.
    A dropped atom reads exactly zero: ``composite_probability`` and
    ``property_projector`` skip it and ``composed_atoms`` maps it to a zero
    projector.

    Only when the derived eta of ``_joint_atoms`` exceeds 1/4, or an
    eigenvalue is not finite or lies more than 1/4 from every label
    position (which that bound rules out at the default tolerances for 81
    atoms at d = 32, and which in practice takes a loosened ``commute``),
    are the atoms built as products instead.
    ``linop.ordered_products`` builds them one context at a time and drops a
    prefix whose Frobenius norm is below
    ``min(tols.proj, tols.herm, linop.PRUNE_CEILING) / 2`` with all its
    extensions (no atom of nonzero rank is dropped, and a tolerance <= 0
    drops nothing); the kept products are then checked as projectors, for
    completeness and for exclusivity, as ``_verify_family_laws`` describes.

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
        failures, commutator = _commutation_failures(contexts, translated, tols)
        if failures:
            raise IncompatibleContexts(
                f"{len(failures)} translated atom pair(s) fail to commute "
                f"at t={ref_time!r}; worst residual "
                f"{max(f[2] for f in failures):.3e}",
                failures,
            )

        delta = max(ctx.law_residual for ctx in contexts)
        joint = _joint_atoms(translated, commutator, delta)
        if joint is None:
            # left-nested ((P_0 P_1) P_2)..., in itertools.product order
            joint = ordered_products(translated, tol=min(tols.proj, tols.herm))
            total = functools.reduce(
                operator.matmul, [s.sum(axis=0) for s in translated]
            )
            self._verify_family_laws(joint[0], total, tols)
        atoms, kept = joint
        atoms.setflags(write=False)

        self._contexts = contexts
        self._ref_time = float(ref_time)
        self._hamiltonian = hamiltonian
        self._hbar = float(hbar)
        self._tols = tols
        self._translated = translated
        self._atoms = atoms
        self._labels = tuple(itertools.product(*(ctx.labels for ctx in contexts)))
        # label tuple -> row of its kept atom, None for a dropped one
        rows = dict(zip(kept.tolist(), range(len(kept))))
        self._index = {label: rows.get(k) for k, label in enumerate(self._labels)}

    @staticmethod
    def _verify_family_laws(
        mats: np.ndarray, total: np.ndarray, tols: Tolerances
    ) -> None:
        """Projector laws, completeness, then exclusivity of a composed-atom stack.

        ``total`` is the sum of the whole family, dropped atoms included,
        whose distance from I is the completeness residual: by
        distributivity it is the product of the per-context atom sums.
        Exclusivity asks |P_a P_b - delta_ab P_a|_max <= ``tols.proj`` for
        every pair, but only the pairs ``_exclusivity_residual`` cannot
        clear by its norm bound are multiplied; see there.
        """
        check_projector_stack(mats, tols=tols)
        residual = max_entry_norm(total - np.eye(total.shape[-1]))
        if residual > tols.proj:
            raise InvariantViolation(
                f"composed atoms do not sum to identity (residual {residual:.3e})"
            )
        residual = _exclusivity_residual(mats, tols.proj)
        if residual > tols.proj:
            raise InvariantViolation(
                f"composed atoms are not mutually exclusive "
                f"(residual {residual:.3e})"
            )

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

        The ``Projector`` objects are built and checked on the first access
        only; later accesses return the same mapping.  Every dropped atom
        maps to one shared zero ``Projector``; each kept one holds its own
        copy of its atom.
        """
        zero = Projector.zero(self.dim)
        kept = [Projector(atom, tols=self._tols) for atom in self._atoms]
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

    def full_property(self) -> "CompositeProperty":
        return CompositeProperty(self, self.label_tuples)

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
    atom pair, or ``TimeOrderViolation`` for unsorted context times.
    """
    return GeneralizedContext(contexts, ref_time, hamiltonian, hbar, tols=tols)


class CompositeProperty:
    """A disjunction of composed atoms of one generalized context."""

    def __init__(self, parent: GeneralizedContext, selected: Iterable[LabelTuple]):
        selected = frozenset(tuple(str(x) for x in tup) for tup in selected)
        unknown = {tup for tup in selected if tup not in parent._index}
        if unknown:
            raise InvariantViolation(
                f"label tuples not in the generalized context: {sorted(unknown)}"
            )
        self._parent = parent
        self._selected = selected

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


def _kept_rows(prop: CompositeProperty) -> list[int]:
    """Kept-atom rows of the selected label tuples in ascending (grid) order,
    so every sum over a selection adds its atoms in one fixed order; a
    dropped atom is zero and adds nothing."""
    rows = (prop.parent._index[label] for label in prop.selected)
    return sorted(row for row in rows if row is not None)


def property_projector(
    prop: CompositeProperty, *, tols: Tolerances = DEFAULT_TOLERANCES
) -> Projector:
    """Projector represented by the property: the sum of its composed atoms."""
    gc = prop.parent
    total = np.zeros((gc.dim, gc.dim), dtype=np.complex128)
    for row in _kept_rows(prop):
        total += gc._atoms[row]
    return Projector(total, tols=tols)


def composite_probability(
    gc: GeneralizedContext,
    prop: CompositeProperty,
    rho: DensityOperator,
    *,
    tols: Tolerances = DEFAULT_TOLERANCES,
) -> float:
    """Born probability of a composite property, state given at ref_time.

    Sums Tr(rho Pi) over the selected composed atoms; additive over disjoint
    selections, and the full selection carries probability one.
    """
    if prop.parent is not gc:
        raise ForeignProperty("property does not belong to this generalized context")
    if rho.dim != gc.dim:
        raise DimensionMismatch(f"state dim {rho.dim} vs context dim {gc.dim}")
    value = 0.0
    for row in _kept_rows(prop):
        # Re Tr(rho Pi) = Re Tr(Pi^dag rho) for Hermitian rho: O(d^2), no product
        value += float(np.vdot(gc._atoms[row], rho.matrix).real)
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
