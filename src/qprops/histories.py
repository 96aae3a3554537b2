"""History operators, their probabilities, and consistency conditions.

A history picks one atom per time from per-time projector families; its
operator is the time-ordered product of the atoms conjugated into the
Heisenberg picture at the initial time.  History probabilities are only
well defined (positive, normalized, additive) when the family passes a
consistency condition: either the pairwise trace condition of Gell-Mann and
Hartle, or, for two-time binary families, the weaker necessary-and-sufficient
real-part condition of Griffiths.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .config import DEFAULT_TOLERANCES, Tolerances
from .contexts import Context, GeneralizedContext, LabelTuple, translate_contexts
from .errors import (
    ConditionOnNull,
    DimensionMismatch,
    InconsistentFamily,
    InvariantViolation,
    TimeOrderViolation,
    UnsupportedShape,
)
from .lattice import TimedProperty, translate
from .linop import (
    DensityOperator,
    HermitianOperator,
    Operator,
    Projector,
    ordered_products,
    stack_matmul,
)

__all__ = [
    "HistoryFamily",
    "History",
    "ConsistencyReport",
    "heisenberg_projector",
    "history_operator",
    "history_probability",
    "gmh_check",
    "griffiths_check",
    "history_operators",
    "decoherence_gram",
    "gmh_residuals",
    "real_part_residuals",
    "family_from_generalized_context",
    "omnes_implies",
]


def heisenberg_projector(
    E: Projector,
    event_time: float,
    ref_time: float,
    hamiltonian: HermitianOperator,
    hbar: float = 1.0,
    *,
    tols: Tolerances = DEFAULT_TOLERANCES,
) -> Projector:
    """Conjugate an atom into the Heisenberg picture at the reference time.

    Returns exp(+iH(t-t0)/hbar) E exp(-iH(t-t0)/hbar), which is
    ``lattice.translate`` of the property from its event time to the
    reference time.
    """
    return translate(
        TimedProperty(E, event_time), ref_time, hamiltonian, hbar, tols=tols
    ).projector


class HistoryFamily:
    """Per-time projector families with an initial state and dynamics.

    Times must be strictly increasing and all later than the initial time at
    which the state is given.  Atoms are conjugated into the Heisenberg
    picture at the initial time once, at construction, one stack per time.
    """

    def __init__(
        self,
        contexts: Sequence[Context],
        hamiltonian: HermitianOperator,
        initial_time: float,
        initial_state: DensityOperator,
        hbar: float = 1.0,
        *,
        tols: Tolerances = DEFAULT_TOLERANCES,
    ):
        contexts, atoms_ref = translate_contexts(
            contexts, initial_time, hamiltonian, hbar, tols=tols
        )
        self._setup(contexts, atoms_ref, hamiltonian, initial_time, initial_state, hbar)

    def _setup(
        self, contexts, atoms_ref, hamiltonian, initial_time, initial_state, hbar
    ):
        """Check the state and the time order, and keep the family; the
        contexts come checked and translated by ``translate_contexts``."""
        if initial_state.dim != hamiltonian.dim:
            raise DimensionMismatch("state/Hamiltonian dimension differs from atoms")
        if contexts[0].time <= initial_time:
            raise TimeOrderViolation(
                f"family times must follow the initial time {initial_time!r}"
            )

        self._contexts = contexts
        self._hamiltonian = hamiltonian
        self._hbar = float(hbar)
        self._initial_time = float(initial_time)
        self._initial_state = initial_state
        self._atoms_ref = atoms_ref

    @property
    def contexts(self) -> tuple[Context, ...]:
        return self._contexts

    @property
    def times(self) -> tuple[float, ...]:
        return tuple(ctx.time for ctx in self._contexts)

    @property
    def hamiltonian(self) -> HermitianOperator:
        return self._hamiltonian

    @property
    def hbar(self) -> float:
        return self._hbar

    @property
    def initial_time(self) -> float:
        return self._initial_time

    @property
    def initial_state(self) -> DensityOperator:
        return self._initial_state

    @property
    def dim(self) -> int:
        return self._contexts[0].dim

    @property
    def heisenberg_atoms(self) -> tuple[np.ndarray, ...]:
        """Per-time (k, d, d) atom stacks conjugated to the initial time."""
        return self._atoms_ref

    @property
    def label_grid(self) -> tuple[LabelTuple, ...]:
        """Every elementary history as a tuple of per-time labels."""
        return tuple(
            itertools.product(*(ctx.labels for ctx in self._contexts))
        )

    def history(self, choices: Sequence[str]) -> "History":
        return History(self, tuple(str(c) for c in choices))

    def _choice_indices(self, choices: LabelTuple) -> tuple[int, ...]:
        if len(choices) != len(self._contexts):
            raise InvariantViolation(
                f"history needs {len(self._contexts)} choices, got {len(choices)}"
            )
        indices = []
        for ctx, label in zip(self._contexts, choices):
            if label not in ctx.labels:
                raise InvariantViolation(
                    f"label {label!r} is not an atom of the family at t={ctx.time}"
                )
            indices.append(ctx.labels.index(label))
        return tuple(indices)

    def _operator_matrix(self, choices: LabelTuple) -> np.ndarray:
        indices = self._choice_indices(choices)
        return history_operators(
            [atoms[i : i + 1] for atoms, i in zip(self._atoms_ref, indices)]
        )[0]

    def __repr__(self) -> str:
        return (
            f"HistoryFamily(times={list(self.times)}, dim={self.dim}, "
            f"initial_time={self._initial_time})"
        )


@dataclass(frozen=True, eq=False)
class History:
    """One atom choice per time of a history family."""

    family: HistoryFamily
    choices: LabelTuple

    def __post_init__(self):
        self.family._choice_indices(self.choices)


def history_operator(h: History) -> Operator:
    """Ordered product of the Heisenberg atoms, latest time leftmost.

    The product of non-commuting projectors is generally not a projector.
    """
    return Operator(h.family._operator_matrix(h.choices))


def history_probability(h: History) -> float:
    """Probability weight Tr(C rho C^dag) of one history.

    Non-negative by construction, but only additive and bounded by one when
    the family passes a consistency check.
    """
    c = h.family._operator_matrix(h.choices)
    rho = h.family.initial_state.matrix
    value = float(np.trace(c @ rho @ c.conj().T).real)
    return max(0.0, value)


@dataclass(frozen=True)
class ConsistencyReport:
    """Outcome of a consistency check over a history family.

    ``violations`` holds (choices_a, choices_b, residual) for every history
    pair whose consistency trace exceeds the threshold; the verdict is true
    exactly when that list is empty.  ``probabilities`` maps every elementary
    history to its probability weight.
    """

    criterion: str
    verdict: bool
    violations: tuple[tuple[LabelTuple, LabelTuple, float], ...]
    probabilities: dict[LabelTuple, float]

    def max_residual(self) -> float:
        return max((v[2] for v in self.violations), default=0.0)


def history_operators(atoms: Sequence[np.ndarray]) -> np.ndarray:
    """Every history operator from per-time (..., k_t, d, d) atom stacks.

    Returns the (..., k_1 * ... * k_T, d, d) stack of time-ordered products,
    latest atom leftmost, in ``itertools.product`` order over the per-time
    atoms (the ``label_grid`` order): ``linop.ordered_products`` without
    pruning.  Leading axes broadcast.
    """
    return ordered_products(atoms, later_left=True)[0]


def decoherence_gram(histories: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Cross-history traces Tr(C_a rho C_b^dag) of a (..., n, d, d) stack.

    Returns the (..., n, n) gram matrices; the diagonal holds the history
    probability weights.
    """
    lead, n, d = histories.shape[:-3], histories.shape[-3], histories.shape[-1]
    weighted = stack_matmul(histories, rho).reshape(lead + (n, d * d))
    flat = histories.reshape(lead + (n, d * d))
    return weighted @ np.swapaxes(flat.conj(), -1, -2)


def gmh_residuals(gram: np.ndarray) -> np.ndarray:
    """Magnitudes |gram[a, b]| for every a < b of (..., n, n) gram matrices.

    The last axis runs over the pairs in row-major order; the swapped trace
    is the complex conjugate, so each unordered pair appears once.
    """
    a, b = np.triu_indices(gram.shape[-1], 1)
    pairs = gram[..., a, b]
    # hypot rounds like the scalar abs(); numpy's vectorized complex abs can
    # differ from it in the last bit
    return np.hypot(pairs.real, pairs.imag)


def real_part_residuals(e1, e1_bar, e2, rho) -> np.ndarray:
    """|Re Tr(E1 rho E1c E2)| for each entry of broadcast (..., d, d) stacks.

    The product is formed left to right; a single (d, d) ``rho`` or ``e2``
    multiplies the stack as one GEMM (``linop.stack_matmul``).
    """
    product = stack_matmul(stack_matmul(e1, rho) @ e1_bar, e2)
    return np.abs(np.trace(product, axis1=-2, axis2=-1).real)


def gmh_check(
    family: HistoryFamily, *, tols: Tolerances = DEFAULT_TOLERANCES
) -> ConsistencyReport:
    """Pairwise trace condition: Tr(C_a rho C_b^dag) = 0 for all a != b.

    Each unordered pair is evaluated once (the swapped trace is the complex
    conjugate) and reported with the magnitude of its trace.

    The histories come from ``linop.ordered_products``, latest time
    leftmost, which drops every prefix whose Frobenius norm is below
    ``c = min(tols.consist, linop.PRUNE_CEILING) / 2``, with all its
    extensions.  A dropped history C_a has weight
    D(a, a) = Tr(C_a rho C_a^dag) <= |C_a|_F^2 < c^2, and since the
    decoherence functional is positive semidefinite (Gell-Mann and Hartle,
    Phys. Rev. D 47, 3345, 1993), |D(a, b)| <= sqrt(D(a, a) D(b, b)) < c
    for every b, as D(b, b) <= 1: no pair with a dropped history can be a
    violation.  The
    gram covers the kept histories only, and a dropped history's
    probability reads exactly 0 (its true weight is below
    ``PRUNE_CEILING**2 / 4``).  ``tols.consist <= 0`` drops nothing.
    """
    grid = family.label_grid
    histories, kept = ordered_products(
        family.heisenberg_atoms, later_left=True, tol=tols.consist
    )
    gram = decoherence_gram(histories, family.initial_state.matrix)
    residuals = gmh_residuals(gram)
    labels = [grid[k] for k in kept.tolist()]
    a, b = np.triu_indices(len(labels), 1)
    flagged = np.flatnonzero(residuals > tols.consist)
    violations = [
        (labels[i], labels[j], residual)
        for i, j, residual in zip(
            a[flagged].tolist(), b[flagged].tolist(), residuals[flagged].tolist()
        )
    ]
    probabilities = dict.fromkeys(grid, 0.0)
    for choices, weight in zip(labels, gram.diagonal().real.tolist()):
        probabilities[choices] = max(0.0, weight)
    return ConsistencyReport("gmh", not violations, tuple(violations), probabilities)


def griffiths_check(
    family: HistoryFamily, *, tols: Tolerances = DEFAULT_TOLERANCES
) -> ConsistencyReport:
    """Two-time binary condition: the real part of the consistency trace.

    Evaluates Re Tr(E1 rho E1c E2), with E1/E1c the two first-time atoms and
    E2 the first second-time atom, all in the Heisenberg picture; the verdict
    does not depend on which atom of each pair is taken first.

    Only defined for families with exactly two times and two atoms per time;
    anything else raises ``UnsupportedShape``.  The reported violation pair
    is the pair of histories that differ in their first-time choice.
    """
    if len(family.contexts) != 2 or any(len(ctx) != 2 for ctx in family.contexts):
        raise UnsupportedShape(
            "the real-part condition is defined for two times with "
            "two atoms per time"
        )
    (e1, e1_bar), (e2, _) = family.heisenberg_atoms
    residual = float(real_part_residuals(e1, e1_bar, e2, family.initial_state.matrix))
    labels1, labels2 = (ctx.labels for ctx in family.contexts)
    violations = []
    if residual > tols.consist:
        violations.append(
            ((labels1[0], labels2[0]), (labels1[1], labels2[0]), float(residual))
        )
    probabilities = {
        choices: history_probability(History(family, choices))
        for choices in family.label_grid
    }
    return ConsistencyReport(
        "griffiths", not violations, tuple(violations), probabilities
    )


def family_from_generalized_context(
    gc: GeneralizedContext,
    rho: DensityOperator,
    *,
    tols: Tolerances = DEFAULT_TOLERANCES,
) -> HistoryFamily:
    """History family with the generalized context's per-time atom families.

    The family reuses the context times, dynamics, and reference time; the
    state is taken at the reference time, which must precede the first
    context time.  Its Heisenberg atoms are the context's
    ``translated_atoms``: the same contexts moved to the same time by the
    same Hamiltonian, so translating again would give the same bits, and
    ``tols`` is not consulted.
    """
    family = HistoryFamily.__new__(HistoryFamily)
    family._setup(
        gc.contexts, gc.translated_atoms, gc.hamiltonian, gc.ref_time, rho, gc.hbar
    )
    return family


def _normalize_history_set(
    family: HistoryFamily, selection: Iterable[LabelTuple]
) -> frozenset[LabelTuple]:
    grid = set(family.label_grid)
    chosen = frozenset(tuple(str(x) for x in tup) for tup in selection)
    unknown = chosen - grid
    if unknown:
        raise InvariantViolation(
            f"history choices not in the family grid: {sorted(unknown)}"
        )
    return chosen


def omnes_implies(
    family: HistoryFamily,
    a: Iterable[LabelTuple],
    b: Iterable[LabelTuple],
    *,
    criterion: str = "gmh",
    tols: Tolerances = DEFAULT_TOLERANCES,
) -> bool:
    """Probabilistic implication between history sets: Pr(b | a) = 1.

    History sets are subsets of the elementary-history grid and intersect as
    sets.  The family must pass the selected consistency check; conditioning
    on a set of probability below ``tols.prob`` raises ``ConditionOnNull``.
    """
    set_a = _normalize_history_set(family, a)
    set_b = _normalize_history_set(family, b)
    if criterion == "gmh":
        report = gmh_check(family, tols=tols)
    elif criterion == "griffiths":
        report = griffiths_check(family, tols=tols)
    else:
        raise InvariantViolation(f"unknown consistency criterion {criterion!r}")
    if not report.verdict:
        raise InconsistentFamily(
            f"family fails the {criterion} condition "
            f"(max residual {report.max_residual():.3e})"
        )
    pr_a = sum(report.probabilities[choices] for choices in set_a)
    if pr_a <= tols.prob:
        raise ConditionOnNull(
            f"conditioning set has probability {pr_a!r} below {tols.prob:.1e}"
        )
    pr_ab = sum(report.probabilities[choices] for choices in set_a & set_b)
    return abs(pr_ab / pr_a - 1.0) <= tols.prob
