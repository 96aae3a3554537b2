"""History families, their probabilities, and consistency conditions.

A history picks one atom per time from per-time projector families; its
operator is the time-ordered product of the atoms conjugated into the
Heisenberg picture at the initial time (``contexts.translate_contexts``).
History probabilities are only well defined (positive, normalized,
additive) when the family passes a consistency condition: either the
pairwise trace condition of Gell-Mann and Hartle, or the weaker real-part
condition of Griffiths, for any family.  Both checks read one scan of the
decoherence functional (``_scan``), through the last context's eigenframe
in larger dimensions; ``history_probability`` reads the weights, and
``omnes_implies`` the coarse family that two history sets generate.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import FrozenInstanceError
from typing import Iterable, Iterator, Sequence

import numpy as np

from .config import DEFAULT_TOLERANCES, Tolerances
from .contexts import (
    _EPS,
    Context,
    GeneralizedContext,
    LabelTuple,
    _gemm_rounding,
    _joint_atoms,
    _JointBasis,
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
    PRUNE_CEILING,
    DensityOperator,
    HermitianOperator,
    frobenius_squares,
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


class ConsistencyReport:
    """Outcome of a consistency check over a history family.

    ``violations`` holds (choices_a, choices_b, residual) for every history
    pair whose consistency trace exceeds the threshold, by the pair's
    positions in the label grid; the verdict is true exactly when that list
    is empty.  ``probabilities`` maps every elementary history to its
    probability weight.  A scan passes its label ``grid`` and, as
    ``violations``, one (a, b, residual) triple of grid-position and
    residual arrays per gram, decoded when ``violations`` is first read.
    A report is immutable.
    """

    def __init__(self, criterion: str, verdict: bool, violations, probabilities, grid=None):
        vars(self).update(criterion=criterion, verdict=verdict, probabilities=probabilities)
        vars(self).update(_found=tuple(violations), _grid=grid)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    @functools.cached_property
    def violations(self) -> tuple[tuple[LabelTuple, LabelTuple, float], ...]:
        if self._grid is None:
            return self._found
        flagged = sorted(zip(*(np.concatenate(column).tolist() for column in zip(*self._found))))
        return tuple([(self._grid[a], self._grid[b], r) for a, b, r in flagged])

    def max_residual(self) -> float:
        return max((v[2] for v in self.violations), default=0.0)

    def _fields(self) -> tuple:
        return self.criterion, self.verdict, self.violations, self.probabilities

    def __eq__(self, other) -> bool:
        return isinstance(other, ConsistencyReport) and self._fields() == other._fields()

    def __repr__(self) -> str:
        return f"ConsistencyReport{self._fields()!r}"


def decoherence_gram(histories: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Cross-history traces Tr(C_a rho C_b^dag) of a (..., n, d, d) stack.

    Returns the (..., n, n) gram matrices; the diagonal holds the history
    probability weights.
    """
    lead, n, d = histories.shape[:-3], histories.shape[-3], histories.shape[-1]
    weighted = stack_matmul(histories, rho).reshape(lead + (n, d * d))
    flat = histories.reshape(lead + (n, d * d))
    return weighted @ np.swapaxes(flat.conj(), -1, -2)


def _pair_magnitudes(gram: np.ndarray, a, b, criterion: str = "gmh") -> np.ndarray:
    """Pair residuals |gram[..., a, b]| (gmh) or |Re gram[..., a, b]|
    (griffiths) of (..., n, n) gram matrices for the index pairs (a, b) of
    ``np.triu_indices(n, 1)``: the last axis runs over the pairs in
    row-major order, and since the swapped trace is the complex conjugate,
    each unordered pair appears once."""
    pairs = gram[..., a, b]
    if criterion != "gmh":
        return np.abs(pairs.real)
    # hypot rounds like the scalar abs(); numpy's vectorized complex abs can
    # differ from it in the last bit
    return np.hypot(pairs.real, pairs.imag)


# ``_scan`` reads the histories of two times or more from the last context's
# eigenframe from this dimension on.  Its eigh and certificate cost more than
# the frame saves below it: measured slower at d <= 8, mixed at d = 10 and
# faster from d = 12 on for rejected multi_time shapes, see ROADMAP.md.
_PER_CONTEXT_MIN_DIM = 12


def _frame_bound(frame: _JointBasis, prefix: float, rho: np.ndarray) -> float:
    """A bound B on every gram entry ``_scan`` computes for two histories
    that end in different atoms Q_j, Q_j' of the last context, and on how
    far each entry and weight read from that context's eigenframe G
    (``contexts._joint_atoms`` of it alone) sits from the full gram's.  |.|
    is the operator norm, |.|_F the Frobenius norm, g = 4 (d + 2) eps, gamma
    the frame's ``gap`` >= |G_j G_j^dag - Q_j|, f its ``overlap`` >=
    |G^dag G - I|, and a = ``prefix`` (1 + (2 d^2 + 2) eps) >= |A|_F for
    every computed prefix A.

    1. Exactness.  P_j = G_j G_j^dag has |P_j' P_j|, |P_j^2 - P_j| <=
       f (1 + f), so with |Q_j - P_j| <= gamma, Q_j'^dag Q_j (j' != j) and
       Q_j^dag Q_j - P_j are within e = f (1 + f) + 2 (1 + f) gamma +
       gamma^2.  The full gram has D(a, b) = Tr(Q_j'^dag Q_j A rho B^dag),
       the frame Tr(K_a rho K_b^dag) = Tr(P_j A rho B^dag) for K = G_j^dag A:
       cross entries and differences are at most e a^2 sqrt(d) |rho|_F.
    2. Rounding.  fl(Q_j A) is within m = g sqrt(d) (1 + f + gamma) a of
       Q_j A in |.|_F, |C|_F <= h = (1 + f + gamma) a + m, and D moves by
       (2 m h + m^2) |rho|_F, then as in step 3 of ``contexts._history_bound``
       with h for c; fl(G^dag A) and its gram, within the same factors,
       round by no more, which the factor 2 covers.

    B is positive, so ``tols.consist <= 0`` never clears, and a NaN (an
    infinite gap with no prefix) clears nothing.
    """
    dim, gap, f = rho.shape[-1], frame.gap, frame.overlap
    g, norm = _gemm_rounding(dim), 1 + f + gap
    a = (1 + (2 * dim * dim + 2) * _EPS) * prefix
    exact = f * (1 + f) + 2 * (1 + f) * gap + gap * gap
    moved = g * math.sqrt(dim) * norm * a
    history = norm * a + moved
    gram = g + 2 * (dim * dim + 2) * _EPS * (1 + g)
    rounding = 2 * moved * history + moved**2 + gram * history**2
    return (1 + 16 * _EPS) * float(np.linalg.norm(rho)) * (
        math.sqrt(dim) * exact * a * a + 2 * rounding
    )


def history_probability(
    family: HistoryFamily,
    choices: Sequence[str] | None = None,
    *,
    tols: Tolerances = DEFAULT_TOLERANCES,
) -> dict[LabelTuple, float]:
    """Weights Tr(C rho C^dag) of every history of the family by label
    tuple, or with ``choices`` (one atom label per time) of that one.

    The kept histories of ``ordered_products`` at ``tols.consist``, bit for
    bit, one last atom Q_j at a time: Q_j times each pruned prefix of the
    earlier times (the identity for one time), pruned by the same rule
    (``linop.kept_products``), each weight its own per-matrix product and
    trace; ``choices`` narrows each time's stack to the chosen atom.  A
    pruned history reads exactly 0: its weight is below
    ``min(tols.consist, linop.PRUNE_CEILING)**2 / 4``.  Weights are
    non-negative, but only additive and bounded by one when the family
    passes a consistency check.
    """
    stacks, grid = family.heisenberg_atoms, family.label_grid
    if choices is not None:
        grid = (tuple(str(c) for c in choices),)
        indices = family._choice_indices(grid[0])
        stacks = [atoms[i : i + 1] for atoms, i in zip(stacks, indices)]
    rho = family.initial_state.matrix
    probabilities = dict.fromkeys(grid, 0.0)
    *earlier, last = stacks
    prefixes, first = ordered_products(earlier or [np.eye(family.dim)[None]], tol=tols.consist)
    for j, atom in enumerate(last):
        block, rows = atom @ prefixes, first
        keep = kept_products(block, tols.consist)
        if keep is not None:
            block, rows = block[keep], first[keep]
        weights = np.trace(block @ rho @ block.conj().swapaxes(-1, -2), axis1=-2, axis2=-1).real
        for k, weight in zip((rows * len(last) + j).tolist(), weights.tolist()):
            probabilities[grid[k]] = max(0.0, weight)
    return probabilities


def _frame_grams(
    prefixes: np.ndarray, first: np.ndarray, last: np.ndarray, rho: np.ndarray, tol: float
) -> Iterator[tuple[np.ndarray, np.ndarray]] | None:
    """The gram of the kept histories that end in each atom j of the
    ``last`` stack, one j at a time, with their label-grid positions, read
    from the eigenframe G of the last context (``contexts._joint_atoms`` of
    it alone: its columns grouped by rounded eigenvalue, so each G_j is a
    column range); None when ``_frame_bound`` exceeds ``tol``.  Each pruned
    prefix A of the earlier times (``ordered_products`` of them, at grid
    positions ``first``) gives K = G^dag A, one product per prefix, and the
    gram of j is Tr(K_a rho K_b^dag) over the rows of G_j; a history is
    dropped when |G_j^dag A|_F is below the pruning cut."""
    frame = _joint_atoms([last])
    prefix = math.sqrt(frobenius_squares(prefixes).max(initial=0.0))
    if not _frame_bound(frame, prefix, rho) <= tol:
        return None
    chains = frame.vectors.conj().T @ prefixes
    weighted, adjoint, parts = stack_matmul(chains, rho), chains.conj(), chains.view(np.float64)
    positions, dim = frame.positions, rho.shape[-1]
    starts = [0, *(np.flatnonzero(positions[1:] != positions[:-1]) + 1).tolist()]
    # |G_j^dag A|_F^2 not below the cut, per prefix (row) and last atom (column)
    squares = np.add.reduceat(np.einsum("mij,mij->mi", parts, parts), starts, axis=1)
    kept = ~(squares < (min(tol, PRUNE_CEILING) / 2) ** 2)
    labels, first = positions[starts].astype(np.int64).tolist(), first * len(last)
    # a last atom whose histories are all kept skips the boolean gather
    whole = kept.all(0)

    def grams():
        for column, (lo, hi, j) in enumerate(zip(starts, [*starts[1:], dim], labels)):
            rows, left, right = first, weighted[:, lo:hi], adjoint[:, lo:hi]
            if not whole[column]:
                keep = kept[:, column]
                rows, left, right = first[keep], left[keep], right[keep]
            shape = len(rows), (hi - lo) * dim
            yield left.reshape(shape) @ right.reshape(shape).T, rows + j

    return grams()


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
    vanishing functional for an exclusive last family.  From d =
    ``_PER_CONTEXT_MIN_DIM`` on, with two times or more and a last context
    whose ``law_residual`` is below ``tols.consist`` (so ``consist`` > 0),
    when ``_frame_bound`` is within ``tols.consist``, the scan forms the
    gram of one last atom at a time from that context's eigenframe
    (``_frame_grams``); otherwise the gram of all kept histories of
    ``ordered_products``.  A history at the pruning cut may be kept by one
    route only; it weighs below c^2 plus the bound either way.  Violations
    are listed by the pair's positions in the label grid.

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
    grid, stacks, tol = family.label_grid, family.heisenberg_atoms, tols.consist
    rho, blocks = family.initial_state.matrix, None
    # the frame's exactness term bounds the last context's law residuals, so
    # with laws that hold to no better than ``tol`` its bound would as good
    # as never clear: the full gram runs without the eigh
    if family.dim >= _PER_CONTEXT_MIN_DIM and len(stacks) >= 2:
        if family.contexts[-1].law_residual < tol:
            prefixes, first = ordered_products(stacks[:-1], tol=tol)
            blocks = _frame_grams(prefixes, first, stacks[-1], rho, tol)
    if blocks is None:
        histories, kept = ordered_products(stacks, tol=tol)
        blocks = [(decoherence_gram(histories, rho), kept)]
    pairs: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    found = []
    probabilities = dict.fromkeys(grid, 0.0)
    for gram, kept in blocks:
        if len(kept) not in pairs:
            pairs[len(kept)] = np.triu_indices(len(kept), 1)
        a, b = pairs[len(kept)]
        residuals = _pair_magnitudes(gram, a, b, criterion)
        flagged = residuals > tol
        found.append((kept[a[flagged]], kept[b[flagged]], residuals[flagged]))
        for k, weight in zip(kept.tolist(), gram.diagonal().real.tolist()):
            probabilities[grid[k]] = max(0.0, weight)
    return ConsistencyReport(criterion, not any(len(f[2]) for f in found), found, probabilities, grid)


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

    History sets are subsets of the elementary-history grid.  Only the
    coarse family they generate (Griffiths; Omnes) must pass the selected
    condition against ``tols.consist``: the classes A & B, A - B, B - A and
    the rest, each the unpruned sum of its histories from
    ``ordered_products`` (an empty class is zero), by their 4 x 4 gram.
    Pr(A) is D(A, A); conditioning on a set of probability below
    ``tols.prob`` raises ``ConditionOnNull``.
    """
    set_a = _normalize_history_set(family, a)
    set_b = _normalize_history_set(family, b)
    if criterion not in ("gmh", "griffiths"):
        raise InvariantViolation(f"unknown consistency criterion {criterion!r}")
    # 0: A & B, 1: A - B, 2: B - A, 3: the rest
    classes = np.array([(h not in set_a) * 2 + (h not in set_b) for h in family.label_grid])
    histories = ordered_products(family.heisenberg_atoms)[0]
    operators = np.stack([histories[classes == k].sum(axis=0) for k in range(4)])
    gram = decoherence_gram(operators, family.initial_state.matrix)
    residual = _pair_magnitudes(gram, *np.triu_indices(4, 1), criterion).max()
    if not residual <= tols.consist:
        raise InconsistentFamily(
            f"the coarse family of the two sets fails the {criterion} condition "
            f"(max residual {residual:.3e})"
        )
    pr_a = max(0.0, float(gram[:2, :2].sum().real))
    if pr_a < tols.prob:
        raise ConditionOnNull(
            f"conditioning set has probability {pr_a!r} below {tols.prob:.1e}"
        )
    pr_ab = max(0.0, float(gram[0, 0].real))
    return abs(pr_ab / pr_a - 1.0) <= tols.prob
