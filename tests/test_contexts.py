import itertools

import numpy as np
import pytest

from helpers import (
    KET_X_MINUS,
    KET_X_PLUS,
    outer,
    random_density,
    random_generalized_context,
    random_hermitian,
    random_projector,
    shared_basis_contexts,
)
from qprops import contexts as contexts_module
from qprops.config import DEFAULT_TOLERANCES
from qprops.contexts import (
    Context,
    GeneralizedContext,
    build_generalized_context,
    composite_join,
    composite_meet,
    composite_negate,
    composite_probability,
    conditional_probability,
    property_projector,
)
from qprops.errors import (
    CompletenessViolation,
    DimensionMismatch,
    ExclusivityViolation,
    ForeignProperty,
    IncompatibleContexts,
    InvariantViolation,
    TimeOrderViolation,
)
from qprops.lattice import TimedProperty, class_meet, class_negate, class_of, translate
from qprops.linop import (
    PRUNE_CEILING,
    DensityOperator,
    HermitianOperator,
    Projector,
    evolution_operator,
    max_entry_norm,
    projector_from_span,
)

H0 = HermitianOperator.zero(2)

Z_PLUS = Projector(np.diag([1.0, 0.0]))
Z_MINUS = Projector(np.diag([0.0, 1.0]))


def x_pair():
    return projector_from_span([KET_X_PLUS]), projector_from_span([KET_X_MINUS])


def z_context(time, labels=("z+", "z-")):
    return Context(time, [Z_PLUS, Z_MINUS], labels)


def x_context(time, labels=("x+", "x-")):
    return Context(time, list(x_pair()), labels)


class TestValidateContext:
    def test_z_pair_is_valid(self):
        ctx = Context(1.0, [Z_PLUS, Z_MINUS], ["z+", "z-"])
        assert ctx.labels == ("z+", "z-")
        assert ctx.time == 1.0

    def test_mixed_directions_fail_exclusivity(self):
        x_minus = x_pair()[1]
        with pytest.raises(ExclusivityViolation) as err:
            Context(0.0, [Z_PLUS, x_minus])
        (i, j, residual) = err.value.violations[0]
        assert (i, j) == (0, 1)
        assert residual == pytest.approx(0.5, abs=1e-12)

    def test_identity_alone_is_a_valid_context(self):
        ctx = Context(0.0, [Projector.identity(3)])
        assert len(ctx) == 1

    def test_incomplete_family_fails(self):
        with pytest.raises(CompletenessViolation) as err:
            Context(0.0, [Z_PLUS])
        assert err.value.violations[0] == pytest.approx(1.0)

    def test_default_labels_are_indices(self):
        ctx = Context(0.0, [Z_PLUS, Z_MINUS])
        assert ctx.labels == ("0", "1")

    def test_duplicate_labels_rejected(self):
        with pytest.raises(InvariantViolation):
            Context(0.0, [Z_PLUS, Z_MINUS], ["a", "a"])

    @pytest.mark.parametrize("time", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_time_rejected(self, time):
        with pytest.raises(InvariantViolation, match="finite"):
            Context(time, [Z_PLUS, Z_MINUS])


class TestBuildGeneralizedContext:
    def test_matching_bases_at_two_times_are_compatible(self):
        gc = build_generalized_context([z_context(1.0), z_context(2.0)], 0.0, H0)
        atoms = gc.composed_atoms
        assert set(atoms) == {("z+", "z+"), ("z+", "z-"), ("z-", "z+"), ("z-", "z-")}
        assert max_entry_norm(atoms[("z+", "z+")].matrix - Z_PLUS.matrix) < 1e-12
        assert max_entry_norm(atoms[("z-", "z-")].matrix - Z_MINUS.matrix) < 1e-12
        assert atoms[("z+", "z-")].rank == 0
        assert atoms[("z-", "z+")].rank == 0

    def test_skew_bases_are_incompatible(self):
        with pytest.raises(IncompatibleContexts) as err:
            build_generalized_context([x_context(1.0), z_context(2.0)], 0.0, H0)
        assert len(err.value.pairs) == 4
        residuals = [pair[2] for pair in err.value.pairs]
        assert min(residuals) == pytest.approx(0.5, abs=1e-12)

    def test_single_context_is_trivially_compatible(self, rng):
        h = random_hermitian(rng, 2)
        gc = build_generalized_context([z_context(1.0)], 0.0, h)
        moved = translate(TimedProperty(Z_PLUS, 1.0), 0.0, h)
        assert max_entry_norm(
            gc.composed_atoms[("z+",)].matrix - moved.projector.matrix
        ) < 1e-12

    def test_unsorted_times_rejected(self):
        with pytest.raises(TimeOrderViolation):
            build_generalized_context([z_context(2.0), z_context(1.0)], 0.0, H0)

    def test_hamiltonian_of_another_dimension_rejected(self):
        with pytest.raises(DimensionMismatch, match="context and Hamiltonian"):
            build_generalized_context(
                [z_context(1.0), z_context(2.0)], 0.0, HermitianOperator.zero(3)
            )

    def test_family_laws_hold_for_random_constructions(self, rng):
        for _ in range(15):
            gc = random_generalized_context(rng)
            mats = [p.matrix for p in gc.composed_atoms.values()]
            total = sum(mats)
            assert max_entry_norm(total - np.eye(gc.dim)) < 1e-10
            for i in range(len(mats)):
                for j in range(i + 1, len(mats)):
                    assert max_entry_norm(mats[i] @ mats[j]) < 1e-10

    def test_verdict_is_independent_of_the_reference_time(self, rng):
        ref_times = (-1.3, 0.0, 0.8, 4.5)
        for k in range(12):
            dim = int(rng.integers(2, 6))
            h = random_hermitian(rng, dim)
            if k % 2:
                contexts = shared_basis_contexts(rng, dim, 3, h)
            else:
                contexts = []
                for t in (1.0, 2.0, 3.0):
                    p = random_projector(rng, dim)
                    contexts.append(Context(t, [p, p.complement()]))
            outcomes = set()
            for ref_time in ref_times:
                try:
                    build_generalized_context(contexts, ref_time, h)
                except IncompatibleContexts as err:
                    outcomes.add(tuple((a, b) for a, b, _ in err.pairs))
                else:
                    outcomes.add("accepted")
            assert len(outcomes) == 1
            assert (outcomes == {"accepted"}) == bool(k % 2)

    def test_composed_product_order_is_irrelevant(self, rng):
        for _ in range(10):
            gc = random_generalized_context(rng, n_times=2)
            first, second = gc.translated_atoms
            for (i, a), (j, b) in itertools.product(
                enumerate(first), enumerate(second)
            ):
                label = (gc.contexts[0].labels[i], gc.contexts[1].labels[j])
                forward = gc.composed_atoms[label].matrix
                reverse = b @ a
                assert max_entry_norm(forward - reverse) < 1e-10


def per_atom_grid(gc):
    """Composed atoms by the per-atom route: each atom moved on its own, then
    every label combination multiplied out left to right, earliest first."""
    moved = []
    for ctx in gc.contexts:
        u = evolution_operator(gc.hamiltonian, ctx.time, gc.ref_time, gc.hbar)
        moved.append([u.transform(atom.matrix) for atom in ctx.atoms])
    grid = {}
    for combo in itertools.product(*(range(len(ctx)) for ctx in gc.contexts)):
        product = moved[0][combo[0]]
        for k in range(1, len(combo)):
            product = product @ moved[k][combo[k]]
        grid[tuple(ctx.labels[c] for ctx, c in zip(gc.contexts, combo))] = product
    return grid


class TestComposedGrid:
    def test_matches_per_atom_products_within_the_bound(self, rng):
        # the joint atoms keep the label order and exactly the products of
        # nonzero rank, each within the certified gap of ``_joint_atoms``; dropped
        # ones read exactly zero, their products within the pruning bound
        cut = min(DEFAULT_TOLERANCES.proj, DEFAULT_TOLERANCES.herm, PRUNE_CEILING) / 2
        grids = [random_generalized_context(rng) for _ in range(15)]
        for dim, n_times in BENCH_SHAPES:
            parts = max(k for k in range(1, dim + 1) if k**n_times <= 81)
            h = random_hermitian(rng, dim)
            contexts = shared_basis_contexts(rng, dim, n_times, h, parts=parts)
            grids.append(build_generalized_context(contexts, 0.0, h))
        dropped = 0
        for gc in grids:
            reference = per_atom_grid(gc)
            bound = contexts_module._joint_atoms(gc.translated_atoms).gap
            composed = gc.composed_atoms
            assert list(composed) == list(reference) == list(gc.label_tuples)
            for label, atom in composed.items():
                nonzero = np.trace(reference[label]).real > 0.5
                assert (gc._index[label] is not None) == nonzero
                if nonzero:
                    assert np.linalg.norm(atom.matrix - reference[label], 2) <= bound
                else:
                    dropped += 1
                    assert not atom.matrix.any()
                    assert np.linalg.norm(reference[label]) < cut
            for ctx, stack in zip(gc.contexts, gc.translated_atoms):
                assert stack.shape == (len(ctx), gc.dim, gc.dim)
                assert not stack.flags.writeable
        assert dropped > 0

    def test_loose_commute_tolerance_is_caught_by_the_grid_check(self):
        # x and z atoms pass a commutator threshold of 1, but Z's
        # eigenvectors diagonalize neither context: the build fails on the
        # certificate's gap, naming the worst pair
        loose = DEFAULT_TOLERANCES.updated(commute=1.0)
        with pytest.raises(IncompatibleContexts) as err:
            build_generalized_context(
                [x_context(1.0), z_context(2.0)], 0.0, H0, tols=loose
            )
        assert err.value.gap > 0.25
        assert f"{err.value.gap:.3e}" in str(err.value)
        [(a, b, residual)] = err.value.pairs
        assert (a, b) == ((0, "x+"), (1, "z+"))
        assert residual == pytest.approx(0.5, abs=1e-12)

    def test_composed_atoms_use_the_context_tolerances(self):
        # loose proj and herm do not admit x then z, whose products such as
        # x+ z+ are not even Hermitian: the build fails as at commute alone
        loose = DEFAULT_TOLERANCES.updated(commute=10.0, proj=10.0, herm=10.0)
        with pytest.raises(IncompatibleContexts) as err:
            build_generalized_context(
                [x_context(1.0), z_context(2.0)], 0.0, H0, tols=loose
            )
        assert err.value.gap > 0.25 and len(err.value.pairs) == 1
        # an accepted build's atoms are projectors at the default
        # tolerances, whatever tolerances the build was given
        gc = build_generalized_context(
            [x_context(1.0), x_context(2.0)], 0.0, H0, tols=loose
        )
        for atom in gc.composed_atoms.values():
            Projector(atom.matrix)

    def test_non_finite_spectrum_fails_the_build(self, monkeypatch):
        stack = np.stack([Z_PLUS.matrix, Z_MINUS.matrix])
        for bad in (np.nan, np.inf):
            broken = stack.copy()
            broken[0, 0, 0] = bad
            with np.errstate(invalid="ignore"):
                basis = contexts_module._joint_atoms([stack, broken])
            # certifies nothing: no pair is cleared, no atom is taken
            assert basis.gap == np.inf and basis.pairs == [np.inf]
        # an eigenvalue that reads NaN is not accepted: the build fails with
        # the worst pair of each context pair and an infinite gap
        H0.eigensystem  # cached before eigh is patched
        eigh = np.linalg.eigh

        def nan_eigh(matrix):
            w, v = eigh(matrix)
            return np.full_like(w, np.nan), v

        monkeypatch.setattr(np.linalg, "eigh", nan_eigh)
        with pytest.raises(IncompatibleContexts) as err:
            build_generalized_context([z_context(1.0), z_context(2.0)], 0.0, H0)
        assert err.value.gap == np.inf
        assert err.value.pairs == (((0, "z+"), (1, "z+"), 0.0),)

    @pytest.mark.parametrize(
        "case",
        ["loose-commute", "loose-proj", "zero-proj", "negative-herm"],
    )
    def test_grid_checks_run_when_the_bound_does_not_clear(self, case):
        # the bound is the certified gap of Z's eigenbasis, at most 1/4:
        # the build fails exactly when it does not clear
        contexts = [z_context(1.0), z_context(2.0)]
        if case == "loose-commute":
            # x then z pass a commutator threshold of 1, but Z's eigenvectors
            # diagonalize neither context (certified gap about 2.6)
            tols = DEFAULT_TOLERANCES.updated(commute=1.0)
            contexts = [x_context(1.0), z_context(2.0)]
        elif case == "loose-proj":
            # atoms idempotent to 1e-8 only: valid at proj = 1e-6
            tols = DEFAULT_TOLERANCES.updated(proj=1e-6)
            bump = 1e-4 * np.array([[0.0, 1.0], [1.0, 0.0]])
            atoms = [
                Projector(Z_PLUS.matrix + bump, tols=tols),
                Projector(Z_MINUS.matrix - bump, tols=tols),
            ]
            contexts = [Context(t, atoms, ["a", "b"], tols=tols) for t in (1.0, 2.0)]
        elif case == "zero-proj":
            tols = DEFAULT_TOLERANCES.updated(proj=0.0)
        else:
            tols = DEFAULT_TOLERANCES.updated(herm=-1.0)
        if case == "loose-commute":
            with pytest.raises(IncompatibleContexts) as err:
                build_generalized_context(contexts, 0.0, H0, tols=tols)
            assert err.value.gap > 0.25
        else:
            # the joint atoms are projectors by construction: no tolerance
            # on proj or herm is consulted, and none fails the build
            gc = build_generalized_context(contexts, 0.0, H0, tols=tols)
            kept = [label for label, row in gc._index.items() if row is not None]
            assert len(kept) == 2 and all(a == b for a, b in kept)

    def test_composed_atoms_are_built_once_and_read_only(self, rng):
        h = random_hermitian(rng, 6)
        contexts = shared_basis_contexts(rng, 6, 3, h, parts=3)
        gc = build_generalized_context(contexts, 0.0, h)
        first, second = gc.composed_atoms, gc.composed_atoms
        kept = sum(row is not None for row in gc._index.values())
        # one Projector per kept atom and one zero shared by the dropped ones
        assert len({id(atom) for atom in first.values()}) == kept + 1
        assert len(first) == int(np.prod([len(ctx) for ctx in contexts])) == 27
        assert first is second
        label = gc.label_tuples[0]
        with pytest.raises(TypeError):
            first[label] = Z_PLUS
        with pytest.raises(TypeError):
            del first[label]


# (d, number of times) of the multi-time benchmark, with as many atoms per
# context as keep the composed grid at most 81
BENCH_SHAPES = ((2, 2), (2, 3), (2, 4), (6, 2), (6, 3), (6, 4),
                (16, 2), (16, 3), (16, 4), (32, 2), (32, 4))


class TestExclusivityCheck:
    def test_625_atom_grid_at_dimension_32(self, rng):
        # the full product check would hold 625^2 * 32^2 complex values (6.4 GB)
        h = random_hermitian(rng, 32)
        contexts = shared_basis_contexts(rng, 32, 4, h, parts=5)
        gc = build_generalized_context(contexts, 0.0, h)
        ranks = [atom.rank for atom in gc.composed_atoms.values()]
        assert len(ranks) == 625
        assert sum(ranks) == 32


class TestCompositeProbability:
    @pytest.fixture
    def zz(self):
        return build_generalized_context([z_context(1.0), z_context(2.0)], 0.0, H0)

    @pytest.fixture
    def rho_x(self):
        return DensityOperator(outer(KET_X_PLUS))

    def test_full_selection_is_certain(self, zz, rho_x):
        full = zz.property(zz.label_tuples)
        assert composite_probability(zz, full, rho_x) == pytest.approx(1.0, abs=1e-12)

    def test_empty_selection_is_impossible(self, zz, rho_x):
        assert composite_probability(zz, zz.property([]), rho_x) == 0.0

    def test_repeated_outcome_probability(self, zz, rho_x):
        prop = zz.property([("z+", "z+")])
        assert composite_probability(zz, prop, rho_x) == pytest.approx(0.5, abs=1e-12)

    def test_foreign_property_rejected(self, zz, rho_x):
        other = build_generalized_context([z_context(1.0), z_context(2.0)], 0.0, H0)
        prop = other.property([("z+", "z+")])
        with pytest.raises(ForeignProperty):
            composite_probability(zz, prop, rho_x)

    def test_probability_axioms_on_random_contexts(self, rng):
        for _ in range(8):
            gc = random_generalized_context(rng)
            tuples = list(gc.label_tuples)
            for _ in range(4):
                rho = random_density(rng, gc.dim)
                total = composite_probability(gc, gc.property(gc.label_tuples), rho)
                assert total == pytest.approx(1.0, abs=1e-10)
                k = int(rng.integers(0, len(tuples) + 1))
                chosen = [tuples[i] for i in rng.permutation(len(tuples))[:k]]
                split = int(rng.integers(0, k + 1)) if k else 0
                left, right = chosen[:split], chosen[split:]
                pr_union = composite_probability(gc, gc.property(chosen), rho)
                pr_parts = composite_probability(
                    gc, gc.property(left), rho
                ) + composite_probability(gc, gc.property(right), rho)
                assert pr_union == pytest.approx(pr_parts, abs=1e-10)
                assert pr_union >= 0.0


class TestCompositeLattice:
    @pytest.fixture
    def zz(self):
        return build_generalized_context([z_context(1.0), z_context(2.0)], 0.0, H0)

    def test_meet_with_full_is_identity_map(self, zz):
        p = zz.property([("z+", "z+"), ("z-", "z-")])
        assert composite_meet(zz.property(zz.label_tuples), p).selected == p.selected

    def test_negate_is_involutive(self, zz):
        p = zz.property([("z+", "z-")])
        assert composite_negate(composite_negate(p)).selected == p.selected

    def test_join_recovers_first_time_marginal(self, zz):
        joined = composite_join(
            zz.property([("z+", "z+")]), zz.property([("z+", "z-")])
        )
        assert joined.selected == frozenset({("z+", "z+"), ("z+", "z-")})
        marginal = property_projector(joined)
        moved = translate(TimedProperty(Z_PLUS, 1.0), 0.0, H0)
        assert max_entry_norm(marginal.matrix - moved.projector.matrix) < 1e-12

    def test_set_distributivity_is_exact(self, zz):
        tuples = list(zz.label_tuples)
        props = [
            zz.property(sel)
            for sel in [
                [],
                [tuples[0]],
                [tuples[1], tuples[2]],
                tuples,
                [tuples[0], tuples[3]],
            ]
        ]
        for a, b, c in itertools.product(props, repeat=3):
            lhs = composite_meet(a, composite_join(b, c))
            rhs = composite_join(composite_meet(a, b), composite_meet(a, c))
            assert lhs.selected == rhs.selected

    def test_agrees_with_class_lattice_on_projectors(self, rng):
        for _ in range(5):
            gc = random_generalized_context(rng, n_times=2)
            tuples = list(gc.label_tuples)
            half = max(1, len(tuples) // 2)
            sel_a = tuples[:half]
            sel_b = tuples[half - 1 :]
            a, b = gc.property(sel_a), gc.property(sel_b)
            cls = lambda prop: class_of(
                TimedProperty(property_projector(prop), gc.ref_time),
                gc.ref_time,
                gc.hamiltonian,
                gc.hbar,
            )
            meet_proj = property_projector(composite_meet(a, b))
            meet_cls = class_meet(cls(a), cls(b))
            assert max_entry_norm(meet_proj.matrix - meet_cls.representative.matrix) < 1e-8
            neg_proj = property_projector(composite_negate(a))
            neg_cls = class_negate(cls(a))
            assert max_entry_norm(neg_proj.matrix - neg_cls.representative.matrix) < 1e-10

    def test_foreign_parent_rejected(self, zz):
        other = build_generalized_context([z_context(1.0), z_context(2.0)], 0.0, H0)
        with pytest.raises(ForeignProperty):
            composite_meet(zz.property(zz.label_tuples), other.property(other.label_tuples))

    def test_unknown_tuple_rejected(self, zz):
        with pytest.raises(InvariantViolation):
            zz.property([("up", "down")])


class TestConditionalProbability:
    @pytest.fixture
    def zz(self):
        return build_generalized_context([z_context(1.0), z_context(2.0)], 0.0, H0)

    @pytest.fixture
    def rho_x(self):
        return DensityOperator(outer(KET_X_PLUS))

    def test_conditioning_on_itself(self, zz, rho_x):
        a = zz.property([("z+", "z+")])
        assert conditional_probability(zz, a, a, rho_x) == pytest.approx(1.0)

    def test_conditioning_on_complement(self, zz, rho_x):
        a = zz.property([("z+", "z+")])
        b = composite_negate(a)
        assert conditional_probability(zz, a, b, rho_x) == pytest.approx(0.0)

    def test_certain_refinement(self, zz, rho_x):
        a = zz.property([("z+", "z+"), ("z+", "z-")])
        b = zz.property([("z+", "z+")])
        assert conditional_probability(zz, a, b, rho_x) == pytest.approx(1.0)

    def test_condition_at_the_null_threshold_is_not_null(self, zz, rho_x):
        # "below tols.prob" is null; Pr(a) = tols.prob is not
        a = zz.property([("z+", "z+")])
        p_a = composite_probability(zz, a, rho_x)
        assert 0.0 < p_a < 1.0
        tols = DEFAULT_TOLERANCES.updated(prob=p_a)
        assert conditional_probability(zz, a, a, rho_x, tols=tols) == 1.0
        above = tols.updated(prob=np.nextafter(p_a, 1.0))
        assert conditional_probability(zz, a, a, rho_x, tols=above) is None

    def test_null_condition_flagged_as_none(self, zz, rho_x):
        a = zz.property([("z+", "z-")])  # zero composed atom
        b = zz.property([("z+", "z+")])
        assert conditional_probability(zz, a, b, rho_x) is None
