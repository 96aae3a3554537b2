"""History families, their probabilities, and consistency conditions.

A history picks one atom per time from per-time projector families; its
operator is the time-ordered product of the atoms conjugated into the
Heisenberg picture at the initial time (``contexts.translate_contexts``).
History probabilities are only well defined (positive, normalized,
additive) when the family passes a consistency condition: either the
pairwise trace condition of Gell-Mann and Hartle, or the weaker real-part
condition of Griffiths, for any family.  Both checks read one scan of the
decoherence functional (``_scan``), ``history_probability`` the weights.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .config import DEFAULT_TOLERANCES, Tolerances
from .contexts import (
    _EPS,
    Context,
    GeneralizedContext,
    LabelTuple,
    _gemm_rounding,
    translate_contexts,
)
from .errors import (
    ConditionOnNull,
    DimensionMismatch,
    InconsistentFamily,
    InvariantViolation,
    TimeOrderViolation,
)
from .linop import (
    DensityOperator,
    HermitianOperator,
    kept_products,
    ordered_products,
    stack_matmul,
)

__all__ = [
    "HistoryFamily",
    "ConsistencyReport",
    "history_probability",
    "gmh_check",
    "griffiths_check",
    "decoherence_gram",
    "family_from_generalized_context",
    "omnes_implies",
]


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
    ):
        contexts, atoms_ref = translate_contexts(
            contexts, initial_time, hamiltonian, hbar
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
        # the generalized context this family was built from
        # (``family_from_generalized_context``), else None
        self._context: GeneralizedContext | None = None

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

    def __repr__(self) -> str:
        return (
            f"HistoryFamily(times={list(self.times)}, dim={self.dim}, "
            f"initial_time={self._initial_time})"
        )


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


def decoherence_gram(histories: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Cross-history traces Tr(C_a rho C_b^dag) of a (..., n, d, d) stack.

    Returns the (..., n, n) gram matrices; the diagonal holds the history
    probability weights.
    """
    lead, n, d = histories.shape[:-3], histories.shape[-3], histories.shape[-1]
    weighted = stack_matmul(histories, rho).reshape(lead + (n, d * d))
    flat = histories.reshape(lead + (n, d * d))
    return weighted @ np.swapaxes(flat.conj(), -1, -2)


def _pair_magnitudes(gram: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Magnitudes |gram[..., a, b]| of (..., n, n) gram matrices for the index
    pairs (a, b) of ``np.triu_indices(n, 1)``: the last axis runs over the
    pairs in row-major order, and since the swapped trace is the complex
    conjugate, each unordered pair appears once."""
    pairs = gram[..., a, b]
    # hypot rounds like the scalar abs(); numpy's vectorized complex abs can
    # differ from it in the last bit
    return np.hypot(pairs.real, pairs.imag)


# ``_scan`` forms the grams of the histories that share a last atom, one
# last atom at a time, from this dimension on.  Each block costs a few dozen
# small numpy calls where the full gram is one or two, which costs more than
# it saves below it: measured crossover between d = 16 and d = 32 on the
# multi_time shapes, see ROADMAP.md.
_PER_CONTEXT_MIN_DIM = 24


def _translated_laws(dim: int, delta: float) -> float:
    """l = 1.01 d delta' + 16 d g, delta' = (1 + 4 eps) delta + 3 g: a bound in
    operator norm on every law residual (|S - S^dag|, |S^2 - S|, |S_i S_j|
    within one context, |sum_i S_i - I|) of translated atom stacks whose
    input contexts measured theirs within delta in max entry: conjugation by
    a checked unitary keeps the laws of the input contexts, up to its
    rounding."""
    g = _gemm_rounding(dim)
    return 1.01 * dim * ((1 + 4 * _EPS) * delta + 3 * g) + 16 * dim * g


def _cross_block_bound(dim: int, times: int, delta: float, rho: np.ndarray) -> float:
    """A bound on every gram entry ``_scan`` would compute for two
    histories that end in different atoms Q_j, Q_j' of the last context.

    Below |.| is the operator norm, |.|_F the Frobenius norm,
    g = 4 (d + 2) eps (``contexts._gemm_rounding``), and l
    (``_translated_laws`` of delta, the largest context law
    residual) bounds every law residual of the translated atoms in |.|, so
    |Q| <= 1 + 3 l and a computed prefix A = fl(P_{T-1} ... P_1) has
    |A| <= p = ((1 + 3 l)(1 + d g))^(T - 1).

    1. Exactness.  C_a = Q_j A and C_b = Q_j' B give
       D(a, b) = Tr(Q_j A rho B^dag Q_j'^dag) = Tr(Q_j'^dag Q_j A rho B^dag),
       and |Q_j'^dag Q_j| <= |Q_j' Q_j| + |Q_j'^dag - Q_j'| |Q_j| <= 2 l + 3 l^2,
       so |D(a, b)| <= (2 l + 3 l^2) p^2 |rho|_tr, |rho|_tr <= sqrt(d) |rho|_F.
    2. Rounding.  fl(Q_j A) is within g q a of Q_j A in |.|_F, with
       q = sqrt(d) (1 + 3 l) >= |Q_j|_F and a = sqrt(d) p >= |A|_F, so each
       history has |C|_F <= c = (1 + 3 l) a + g q a, and replacing both
       factors moves D by at most (2 g q a c + (g q a)^2) |rho|_F.  The gram
       itself rounds fl(C_a rho) by g c |rho|_F in |.|_F and the dot product
       of its d^2 entries with C_b's by 2 (d^2 + 2) eps (1 + g) c^2 |rho|_F.

    The exclusivity law makes these entries vanish for an exact family, so
    a bound within ``tols.consist`` certifies that none of them is a
    violation.  It is at most about 2e-10 for every d <= 32 and T <= 4 at
    delta near rounding; it is positive, so ``tols.consist <= 0`` never
    clears, and a NaN clears nothing.
    """
    g = _gemm_rounding(dim)
    laws = _translated_laws(dim, delta)
    prefix = ((1 + 3 * laws) * (1 + dim * g)) ** (times - 1)
    atom = math.sqrt(dim) * (1 + 3 * laws)
    span = math.sqrt(dim) * prefix
    history = (1 + 3 * laws) * span + g * atom * span
    moved = g * atom * span
    return (1 + 2 * _EPS) * float(np.linalg.norm(rho)) * (
        (2 * laws + 3 * laws**2) * prefix**2 * math.sqrt(dim)
        + 2 * moved * history
        + moved**2
        + g * history**2
        + 2 * (dim * dim + 2) * _EPS * (1 + g) * history**2
    )


def _last_atom_blocks(
    stacks: Sequence[np.ndarray], tol: float
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The kept histories of ``ordered_products`` at ``tol``, bit for bit,
    one block per last atom Q_j with the label-grid positions of its rows:
    Q_j times each pruned earlier prefix, one per-matrix product each, pruned
    by the same rule (``linop.kept_products``).  One time is one block.
    ``_scan`` and ``history_probability`` read it one block at a time."""
    *earlier, last = stacks
    if not earlier:
        yield ordered_products(stacks, tol=tol)
        return
    prefixes, first = ordered_products(earlier, tol=tol)
    for j, atom in enumerate(last):
        block, rows = atom @ prefixes, first
        keep = kept_products(block, tol)
        if keep is not None:
            block, rows = block[keep], first[keep]
        yield block, rows * len(last) + j


def history_probability(
    family: HistoryFamily,
    choices: Sequence[str] | None = None,
    *,
    tols: Tolerances = DEFAULT_TOLERANCES,
) -> dict[LabelTuple, float]:
    """Weights Tr(C rho C^dag) of every history of the family by label
    tuple, or with ``choices`` (one atom label per time) of that one.

    The histories C are ``_last_atom_blocks`` at ``tols.consist``, each
    weight its own per-matrix product and trace; ``choices`` narrows each
    time's stack to the chosen atom.  A pruned history reads exactly 0: its
    weight is below ``min(tols.consist, linop.PRUNE_CEILING)**2 / 4``.
    Weights are non-negative, but only additive and bounded by one when the
    family passes a consistency check.
    """
    stacks, grid = family.heisenberg_atoms, family.label_grid
    if choices is not None:
        grid = (tuple(str(c) for c in choices),)
        indices = family._choice_indices(grid[0])
        stacks = [atoms[i : i + 1] for atoms, i in zip(stacks, indices)]
    rho = family.initial_state.matrix
    probabilities = dict.fromkeys(grid, 0.0)
    for block, rows in _last_atom_blocks(stacks, tols.consist):
        weighted = block @ rho @ block.conj().swapaxes(-1, -2)
        weights = np.trace(weighted, axis1=-2, axis2=-1).real
        for k, weight in zip(rows.tolist(), weights.tolist()):
            probabilities[grid[k]] = max(0.0, weight)
    return probabilities


def _scan(
    family: HistoryFamily, tols: Tolerances, criterion: str
) -> ConsistencyReport:
    """The report of ``gmh_check`` (pair residual |D(a, b)|) or
    ``griffiths_check`` (|Re D(a, b)|) from one scan of the decoherence
    functional D(a, b) = Tr(C_a rho C_b^dag), each unordered pair once (the
    swapped entry is its conjugate).  Each bound below is on |D|, so it
    holds for |Re D| <= |D| too.

    The histories come from ``linop.ordered_products``, latest time
    leftmost, which drops every prefix whose Frobenius norm is below
    ``c = min(tols.consist, linop.PRUNE_CEILING) / 2``, with all its
    extensions.  A dropped history C_a has weight
    D(a, a) = Tr(C_a rho C_a^dag) <= |C_a|_F^2 < c^2, and since the
    decoherence functional is positive semidefinite (Gell-Mann and Hartle,
    Phys. Rev. D 47, 3345, 1993), |D(a, b)| <= sqrt(D(a, a) D(b, b)) < c
    for every b, as D(b, b) <= 1: no pair with a dropped history can be a
    violation.  The gram covers the kept histories only, and a dropped
    history's probability reads exactly 0 (its true weight is below
    ``PRUNE_CEILING**2 / 4``).  ``tols.consist <= 0`` drops nothing.

    Histories that end in different atoms of the last context have a
    vanishing functional for an exclusive last family.  From
    d = ``_PER_CONTEXT_MIN_DIM`` on, with two times or more, when
    ``_cross_block_bound`` places every such entry within ``tols.consist``,
    the scan forms the gram of each ``_last_atom_blocks`` block in turn (one
    held at a time, k_T m^2 entries instead of (k_T m)^2 for m prefixes);
    otherwise the gram of all kept histories of ``ordered_products``.
    Violations come in the same order either way: by the pair's positions
    in the label grid.

    A family built by ``family_from_generalized_context`` is consistent by
    the paper's theorem, and its context's eigenbasis certificate says by
    how much: when ``contexts._history_bound`` is within ``tols.consist``,
    the report passes with no violations and its probabilities are the
    composed atoms' weights (``GeneralizedContext._certified_probabilities``),
    within that bound of the gram's; no history or gram is formed.
    """
    gc = family._context
    if gc is not None:
        certified = gc._certified_probabilities(family.initial_state, tols.consist)
        if certified is not None:
            return ConsistencyReport(criterion, True, (), certified)
    grid, stacks = family.label_grid, family.heisenberg_atoms
    rho = family.initial_state.matrix
    delta = max(ctx.law_residual for ctx in family.contexts)
    blocked = (
        family.dim >= _PER_CONTEXT_MIN_DIM
        and len(stacks) >= 2
        and _cross_block_bound(family.dim, len(stacks), delta, rho) <= tols.consist
    )
    if blocked:
        blocks = _last_atom_blocks(stacks, tols.consist)
    else:
        blocks = [ordered_products(stacks, tol=tols.consist)]
    pairs: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    violations = []
    probabilities = dict.fromkeys(grid, 0.0)
    for histories, kept in blocks:
        gram = decoherence_gram(histories, rho)
        if len(kept) not in pairs:
            pairs[len(kept)] = np.triu_indices(len(kept), 1)
        a, b = pairs[len(kept)]
        if criterion == "gmh":
            residuals = _pair_magnitudes(gram, a, b)
        else:
            residuals = np.abs(gram[a, b].real)
        flagged = np.flatnonzero(residuals > tols.consist)
        violations += zip(
            kept[a[flagged]].tolist(),
            kept[b[flagged]].tolist(),
            residuals[flagged].tolist(),
        )
        for k, weight in zip(kept.tolist(), gram.diagonal().real.tolist()):
            probabilities[grid[k]] = max(0.0, weight)
    if blocked:
        # by the pairs' positions in the label grid, as one gram lists them
        violations.sort()
    violations = tuple([(grid[i], grid[j], residual) for i, j, residual in violations])
    return ConsistencyReport(criterion, not violations, violations, probabilities)


def gmh_check(
    family: HistoryFamily, *, tols: Tolerances = DEFAULT_TOLERANCES
) -> ConsistencyReport:
    """Pairwise trace condition: Tr(C_a rho C_b^dag) = 0 for all a != b,
    each pair reported with the magnitude of its trace (``_scan``)."""
    return _scan(family, tols, "gmh")


def griffiths_check(
    family: HistoryFamily, *, tols: Tolerances = DEFAULT_TOLERANCES
) -> ConsistencyReport:
    """Real-part condition (Griffiths): Re Tr(C_a rho C_b^dag) = 0 for all
    a != b, for any family, each pair reported with the magnitude of the
    real part of its trace; same scan and probabilities as ``gmh_check``
    (``_scan``).  With two atoms E1, E1c at the first time and E2, E2c at
    the second, the two pairs that share a last atom read
    +/- Re Tr(E1 rho E1c E2) (``spin.consistency_traces``), and a failing
    family lists both."""
    return _scan(family, tols, "griffiths")


def family_from_generalized_context(
    gc: GeneralizedContext,
    rho: DensityOperator,
) -> HistoryFamily:
    """History family with the generalized context's per-time atom families.

    The family reuses the context times, dynamics, and reference time; the
    state is taken at the reference time, which must precede the first
    context time.  Its Heisenberg atoms are the context's
    ``translated_atoms``: the same contexts moved to the same time by the
    same Hamiltonian, so translating again would give the same bits.  The
    family keeps the context, whose eigenbasis certificate ``_scan``
    reads instead of forming the histories and their gram when it clears.
    """
    family = HistoryFamily.__new__(HistoryFamily)
    family._setup(
        gc.contexts, gc.translated_atoms, gc.hamiltonian, gc.ref_time, rho, gc.hbar
    )
    family._context = gc
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
    if pr_a < tols.prob:
        raise ConditionOnNull(
            f"conditioning set has probability {pr_a!r} below {tols.prob:.1e}"
        )
    pr_ab = sum(report.probabilities[choices] for choices in set_a & set_b)
    return abs(pr_ab / pr_a - 1.0) <= tols.prob
