"""Single-time contexts and their multi-time generalization.

A context is a complete family of mutually exclusive atomic projectors at one
time; it generates a boolean sublattice on which Born probabilities are well
defined.  Contexts at several times form a generalized context when all their
atoms commute after translation to a common reference time; the pairwise
products of the translated atoms ("composed atoms") are then again a complete
exclusive family, and carry the probabilities of multi-time conjunctions.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

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
) -> None:
    """Exclusivity and completeness of a (k, d, d) atom family, as ``Context``
    checks its atoms.

    Raises ``ExclusivityViolation`` with (i, j, residual) per offending atom
    pair, or ``CompletenessViolation`` with the deviation of the atom sum
    from I.
    """
    exclusivity = []
    for i, j in itertools.combinations(range(len(atoms)), 2):
        residual = max_entry_norm(atoms[i] @ atoms[j])
        if not residual <= tols.proj:
            exclusivity.append((i, j, residual))
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
        check_context_laws(matrices, labels, tols=tols)
        matrices.setflags(write=False)

        self._time = time
        self._atoms = atoms
        self._matrices = matrices
        self._labels = labels

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

    def __len__(self) -> int:
        return len(self._atoms)

    def translated(
        self,
        t_to: float,
        hamiltonian: HermitianOperator,
        hbar: float = 1.0,
        *,
        tols: Tolerances = DEFAULT_TOLERANCES,
    ) -> np.ndarray:
        """The atoms moved to ``t_to`` by one evolution operator, as a
        read-only (k, d, d) stack that is not checked again: conjugation by
        a checked unitary maps projectors to projectors and a complete
        exclusive family to one (U P U^dag U Q U^dag = U P Q U^dag)."""
        if self.dim != hamiltonian.dim:
            raise DimensionMismatch("context and Hamiltonian dimensions differ")
        u = evolution_operator(hamiltonian, self._time, t_to, hbar, tols=tols)
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
    *,
    tols: Tolerances = DEFAULT_TOLERANCES,
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
        ctx.translated(t_to, hamiltonian, hbar, tols=tols) for ctx in contexts
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


def _commutation_failures(
    contexts: Sequence[Context],
    stacks: Sequence[np.ndarray],
    tols: Tolerances,
) -> list[tuple[tuple[int, str], tuple[int, str], float]]:
    failures = []
    for a in range(len(contexts)):
        for b in range(a + 1, len(contexts)):
            residuals = commutator_residuals(stacks[a][:, None], stacks[b][None, :])
            for i, j in zip(*np.nonzero(residuals > tols.commute)):
                failures.append(
                    (
                        (a, contexts[a].labels[i]),
                        (b, contexts[b].labels[j]),
                        float(residuals[i, j]),
                    )
                )
    return failures


class GeneralizedContext:
    """Contexts at several times whose atoms commute at a common time.

    Construction translates every atom to ``ref_time``, requires all
    cross-context commutators to vanish within ``tols.commute``, and builds
    the composed atoms, earliest time leftmost, in the ``itertools.product``
    order of the labels.

    There are prod |ctx| composed atoms, but their ranks sum to d, so most
    of them are zero.  The grid is built by ``linop.ordered_products`` one
    context at a time, and a prefix whose Frobenius norm is below
    ``min(tols.proj, tols.herm, linop.PRUNE_CEILING) / 2`` is dropped with
    all its extensions: that norm bounds every entry, row and column of
    each extension, so a dropped atom would pass the Hermiticity,
    idempotence and pairwise exclusivity checks against any kept atom.  A dropped atom
    reads exactly zero: ``composite_probability`` and ``property_projector``
    skip it and ``composed_atoms`` maps it to a zero projector.  No atom of
    nonzero rank is dropped, whatever the tolerances, and ``tols.proj <= 0``
    or ``tols.herm <= 0`` drops nothing.

    The kept atoms are checked as projectors and for pairwise exclusivity,
    which multiplies only the pairs a row/column-norm bound cannot clear
    (``_exclusivity_residual``).  Completeness is checked on the sum of all
    prod |ctx| atoms, dropped ones included: by distributivity it is the
    product of the per-context atom sums, so it is formed without the grid.

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
        contexts, translated = translate_contexts(
            contexts, ref_time, hamiltonian, hbar, tols=tols
        )
        failures = _commutation_failures(contexts, translated, tols)
        if failures:
            raise IncompatibleContexts(
                f"{len(failures)} translated atom pair(s) fail to commute "
                f"at t={ref_time!r}; worst residual "
                f"{max(f[2] for f in failures):.3e}",
                failures,
            )

        # left-nested ((P_0 P_1) P_2)..., in itertools.product order
        atoms, kept = ordered_products(translated, tol=min(tols.proj, tols.herm))
        total = functools.reduce(operator.matmul, [s.sum(axis=0) for s in translated])
        self._verify_family_laws(atoms, total, tols)
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

        ``total`` is the sum of the whole family, whose distance from I is
        the completeness residual.  Exclusivity asks
        |P_a P_b - delta_ab P_a|_max <= ``tols.proj`` for every pair, but
        only the pairs ``_exclusivity_residual`` cannot clear by its norm
        bound are multiplied; see there.
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
        value += float(np.trace(rho.matrix @ gc._atoms[row]).real)
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
