import dataclasses
import math

import numpy as np
import pytest

from helpers import (
    KET_X_PLUS,
    SZ,
    outer,
    random_density,
    random_generalized_context,
    random_hermitian,
    random_projector,
    shared_basis_contexts,
    spin_pair,
)
from qprops.config import DEFAULT_TOLERANCES, Tolerances
from qprops.contexts import (
    Context,
    build_generalized_context,
    composite_probability,
)
from qprops.errors import (
    ConditionOnNull,
    DimensionMismatch,
    InconsistentFamily,
    IncompatibleContexts,
    InvariantViolation,
    TimeOrderViolation,
)
from qprops.histories import (
    ConsistencyReport,
    HistoryFamily,
    family_from_generalized_context,
    gmh_check,
    griffiths_check,
    history_probability,
    omnes_implies,
)
from qprops.lattice import TimedProperty, translate
from qprops.linop import (
    DensityOperator,
    HermitianOperator,
    Projector,
    max_entry_norm,
    ordered_products,
    projector_from_span,
)

H0 = HermitianOperator.zero(2)
HZ = HermitianOperator(SZ)
RHO_X = DensityOperator(outer(KET_X_PLUS))

Z_PLUS = Projector(np.diag([1.0, 0.0]))
Z_MINUS = Projector(np.diag([0.0, 1.0]))


def pair_context(time, n, prefix):
    plus, minus = spin_pair(n)
    return Context(time, [plus, minus], [prefix + "+", prefix + "-"])


def history_matrix(family, choices):
    """One history operator: its row of the unpruned ``ordered_products`` of
    the family's Heisenberg atoms, which come in label-grid order."""
    products, _ = ordered_products(family.heisenberg_atoms)
    return products[family.label_grid.index(tuple(choices))]


def two_time_family(n1, rho=RHO_X, hamiltonian=H0, t1=1.0, t2=2.0, t0=0.0):
    return HistoryFamily(
        [pair_context(t1, n1, "a"), pair_context(t2, (0, 0, 1), "z")],
        hamiltonian,
        t0,
        rho,
    )


class TestHeisenbergProjector:
    def test_free_dynamics_fixes_atom(self, rng):
        e = random_projector(rng, 3)
        moved = translate(TimedProperty(e, 2.0), 0.0, HermitianOperator.zero(3)).projector
        assert max_entry_norm(moved.matrix - e.matrix) < 1e-14

    def test_equal_times_fix_atom(self, rng):
        e = random_projector(rng, 3)
        moved = translate(TimedProperty(e, 1.5), 1.5, random_hermitian(rng, 3)).projector
        assert max_entry_norm(moved.matrix - e.matrix) < 1e-12

    def test_diagonal_hamiltonian_counterrotates(self):
        # oracle: conjugation by the diagonal phases, applied to the vector
        e = projector_from_span([KET_X_PLUS])
        moved = translate(TimedProperty(e, np.pi / 4), 0.0, HZ, 1.0).projector
        v = np.array([np.exp(1j * np.pi / 4), np.exp(-1j * np.pi / 4)]) / np.sqrt(2)
        assert max_entry_norm(moved.matrix - outer(v)) < 1e-12

    def test_coincides_with_lattice_translation(self, rng):
        # the atoms a family moves to its initial time, one context at a time
        for _ in range(10):
            dim = int(rng.integers(2, 6))
            h = random_hermitian(rng, dim)
            e = random_projector(rng, dim)
            t_event, t_ref = rng.uniform(-2, 2, size=2)
            lhs = Context(float(t_event), [e, e.complement()]).translated(float(t_ref), h)
            rhs = translate(TimedProperty(e, float(t_event)), float(t_ref), h)
            assert max_entry_norm(lhs[0] - rhs.projector.matrix) < 1e-12


class TestHistoryOperator:
    def test_single_time_history_is_the_heisenberg_atom(self, rng):
        h = random_hermitian(rng, 2)
        family = HistoryFamily(
            [Context(1.0, [Z_PLUS, Z_MINUS], ["z+", "z-"])], h, 0.0, RHO_X
        )
        op = history_matrix(family, ["z+"])
        expect = translate(TimedProperty(Z_PLUS, 1.0), 0.0, h).projector
        assert max_entry_norm(op - expect.matrix) < 1e-12

    def test_identity_atoms_compose_to_identity(self, rng):
        h = random_hermitian(rng, 3)
        eye = Context(1.0, [Projector.identity(3)], ["all"])
        eye2 = Context(2.0, [Projector.identity(3)], ["all"])
        family = HistoryFamily([eye, eye2], h, 0.0, DensityOperator.maximally_mixed(3))
        op = history_matrix(family, ["all", "all"])
        assert max_entry_norm(op - np.eye(3)) < 1e-12

    def test_free_dynamics_product_order(self):
        # oracle: direct product of the two atoms, latest leftmost
        family = two_time_family((1, 0, 0))
        op = history_matrix(family, ["a+", "z+"])
        expect = Z_PLUS.matrix @ outer(KET_X_PLUS)
        assert max_entry_norm(op - expect) < 1e-13

    def test_rejects_unknown_choice(self):
        family = two_time_family((1, 0, 0))
        with pytest.raises(InvariantViolation):
            history_probability(family, ("nope", "z+"))
        with pytest.raises(InvariantViolation):
            history_probability(family, ("a+",))

    def test_rejects_time_order_violations(self):
        ctx = pair_context(1.0, (0, 0, 1), "z")
        with pytest.raises(TimeOrderViolation):
            HistoryFamily([ctx], H0, 1.0, RHO_X)
        with pytest.raises(TimeOrderViolation):
            HistoryFamily(
                [pair_context(2.0, (0, 0, 1), "z"), pair_context(1.5, (1, 0, 0), "x")],
                H0,
                0.0,
                RHO_X,
            )

    def test_rejects_a_hamiltonian_of_another_dimension(self):
        ctx = pair_context(1.0, (0, 0, 1), "z")
        with pytest.raises(DimensionMismatch, match="context and Hamiltonian"):
            HistoryFamily([ctx], HermitianOperator.zero(3), 0.0, RHO_X)


class TestHistoryProbability:
    def test_x_then_z_weight_is_half(self):
        family = two_time_family((1, 0, 0))
        pr = history_probability(family, ["a+", "z+"])
        assert pr == {("a+", "z+"): pytest.approx(0.5, abs=1e-13)}

    def test_zero_operator_history(self):
        family = two_time_family((0, 0, 1))
        pr = history_probability(family, ["a+", "z-"])
        assert pr == {("a+", "z-"): pytest.approx(0.0, abs=1e-13)}

    def test_history_after_a_dropped_prefix_weighs_zero(self):
        # a+ then b-, orthogonal atoms of one direction, leave no prefix for
        # the third time to extend
        n = (0.6, 0.0, 0.8)
        family = HistoryFamily(
            [pair_context(t, n, p) for t, p in ((1.0, "a"), (2.0, "b"), (3.0, "c"))],
            H0,
            0.0,
            RHO_X,
        )
        table = history_probability(family)
        assert table[("a+", "b-", "c+")] == 0.0
        assert history_probability(family, ["a+", "b-", "c+"]) == {("a+", "b-", "c+"): 0.0}
        assert history_probability(family, ["a+", "b+", "c+"]) == {
            ("a+", "b+", "c+"): table[("a+", "b+", "c+")]
        }

    def test_single_time_born_rule(self):
        family = HistoryFamily(
            [Context(2.0, [Z_PLUS, Z_MINUS], ["z+", "z-"])], H0, 0.0, RHO_X
        )
        pr = history_probability(family, ["z+"])
        assert pr == {("z+",): pytest.approx(0.5, abs=1e-13)}


class TestGmhCheck:
    def test_x_then_z_is_consistent(self):
        report = gmh_check(two_time_family((1, 0, 0)))
        assert report.criterion == "gmh"
        assert report.verdict
        assert report.probabilities[("a+", "z+")] == pytest.approx(0.5, abs=1e-12)

    def test_z_then_z_is_consistent(self):
        report = gmh_check(two_time_family((0, 0, 1)))
        assert report.verdict
        assert report.probabilities[("a+", "z+")] == pytest.approx(0.5, abs=1e-12)
        assert report.probabilities[("a+", "z-")] == pytest.approx(0.0, abs=1e-12)

    def test_diagonal_direction_fails(self):
        n1 = (1 / np.sqrt(2), 1 / np.sqrt(2), 0.0)
        report = gmh_check(two_time_family(n1))
        assert not report.verdict
        # oracle: evaluate the cross trace directly from explicit matrices
        e1, e1c = (p.matrix for p in spin_pair(n1))
        e2 = Z_PLUS.matrix
        trace = np.trace(e1 @ RHO_X.matrix @ e1c @ e2)
        assert abs(trace) == pytest.approx(1.0 / (4.0 * np.sqrt(2.0)), abs=1e-12)
        assert report.max_residual() == pytest.approx(abs(trace), abs=1e-12)

    def test_report_is_immutable_and_decodes_its_violations_once(self):
        report = gmh_check(two_time_family((1 / np.sqrt(2), 1 / np.sqrt(2), 0.0)))
        for name in ("verdict", "violations", "probabilities"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(report, name, None)
        violations = report.violations
        assert report.violations is violations
        # the two pairs that share a last atom, in label-grid order
        assert [v[:2] for v in violations] == [
            (("a+", "z+"), ("a-", "z+")),
            (("a+", "z-"), ("a-", "z-")),
        ]
        decoded = ConsistencyReport("gmh", False, violations, report.probabilities)
        assert decoded == report and repr(decoded) == repr(report)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_tolerance_cannot_pass_a_failing_family(self, value):
        family = two_time_family((1 / np.sqrt(2), 1 / np.sqrt(2), 0.0))
        assert not gmh_check(family).verdict
        # every `residual > consist` is False for NaN and +inf
        with pytest.raises(InvariantViolation, match="must be finite"):
            Tolerances(consist=value)
        with pytest.raises(InvariantViolation, match="must be finite"):
            DEFAULT_TOLERANCES.updated(consist=value)

    def test_tolerances_as_dict_keeps_every_field_in_order(self):
        tols = DEFAULT_TOLERANCES.updated(consist=2e-9, proj=-1.0)
        assert tols.as_dict() == dataclasses.asdict(tols)
        assert list(tols.as_dict()) == list(Tolerances.field_names())

    def test_consistent_family_has_additive_normalized_weights(self, rng):
        family = two_time_family((1, 0, 0))
        report = gmh_check(family)
        weights = report.probabilities
        assert sum(weights.values()) == pytest.approx(1.0, abs=1e-12)
        assert all(w >= 0.0 for w in weights.values())
        grid = list(weights)
        for _ in range(10):
            k = int(rng.integers(0, len(grid) + 1))
            chosen = [grid[i] for i in rng.permutation(len(grid))[:k]]
            union_pr = sum(weights[c] for c in chosen)
            split = k // 2
            parts_pr = sum(weights[c] for c in chosen[:split]) + sum(
                weights[c] for c in chosen[split:]
            )
            assert union_pr == pytest.approx(parts_pr, abs=1e-12)


class TestGriffithsCheck:
    def test_y_direction_is_consistent(self):
        report = griffiths_check(two_time_family((0, 1, 0)))
        assert report.criterion == "griffiths"
        assert report.verdict

    def test_z_direction_is_consistent(self):
        report = griffiths_check(two_time_family((0, 0, 1)))
        assert report.verdict

    def test_xz_diagonal_fails(self):
        n1 = (1 / np.sqrt(2), 0.0, 1 / np.sqrt(2))
        report = griffiths_check(two_time_family(n1))
        assert not report.verdict
        # oracle: the real part of the directly evaluated trace
        e1, e1c = (p.matrix for p in spin_pair(n1))
        expected = abs(np.trace(e1 @ RHO_X.matrix @ e1c @ Z_PLUS.matrix).real)
        assert expected == pytest.approx(0.125, abs=1e-12)
        assert report.max_residual() == pytest.approx(expected, abs=1e-12)

    def test_families_of_any_shape_are_checked(self):
        one_time = HistoryFamily(
            [Context(1.0, [Z_PLUS, Z_MINUS], ["z+", "z-"])], H0, 0.0, RHO_X
        )
        report = griffiths_check(one_time)
        assert report.verdict and report.violations == ()
        assert report.probabilities[("z+",)] == pytest.approx(0.5, abs=1e-12)
        triple = HistoryFamily(
            [
                Context(1.0, [Projector.identity(2)], ["all"]),
                pair_context(2.0, (0, 0, 1), "z"),
            ],
            H0,
            0.0,
            RHO_X,
        )
        assert griffiths_check(triple).verdict

    def test_three_time_family_fails_on_every_shared_last_atom_pair(self):
        # x, z, x on z+: each pair of histories that end in the same x atom
        # and differ earlier reads Re D = +/-1/8
        family = HistoryFamily(
            [
                pair_context(1.0, (1, 0, 0), "x"),
                pair_context(2.0, (0, 0, 1), "z"),
                pair_context(3.0, (1, 0, 0), "x"),
            ],
            H0,
            0.0,
            DensityOperator(Z_PLUS.matrix),
        )
        report = griffiths_check(family)
        assert not report.verdict
        assert len(report.violations) == 12
        assert all(a[-1] == b[-1] for a, b, _ in report.violations)
        assert report.max_residual() == pytest.approx(0.125, abs=1e-12)
        assert report.probabilities == gmh_check(family).probabilities

    def test_gmh_implies_griffiths_on_sampled_directions(self, rng):
        for _ in range(40):
            v = rng.normal(size=3)
            n1 = tuple(v / np.linalg.norm(v))
            family = two_time_family(n1)
            if gmh_check(family).verdict:
                assert griffiths_check(family).verdict


class TestFamilyFromGeneralizedContext:
    def test_matching_spin_bases_reproduce_born_weights(self):
        gc = build_generalized_context(
            [pair_context(1.0, (0, 0, 1), "z"), pair_context(2.0, (0, 0, 1), "z")],
            0.0,
            H0,
        )
        family = family_from_generalized_context(gc, RHO_X)
        report = gmh_check(family)
        assert report.verdict
        expected = {
            ("z+", "z+"): 0.5,
            ("z+", "z-"): 0.0,
            ("z-", "z+"): 0.0,
            ("z-", "z-"): 0.5,
        }
        for choices, value in expected.items():
            assert report.probabilities[choices] == pytest.approx(value, abs=1e-12)

    def test_single_context_reduces_to_born_rule(self, rng):
        h = random_hermitian(rng, 2)
        gc = build_generalized_context(
            [Context(1.0, [Z_PLUS, Z_MINUS], ["z+", "z-"])], 0.0, h
        )
        family = family_from_generalized_context(gc, RHO_X)
        moved = gc.composed_atoms[("z+",)]
        expected = float(np.trace(RHO_X.matrix @ moved.matrix).real)
        assert history_probability(family, ["z+"])[("z+",)] == pytest.approx(
            expected, abs=1e-12
        )

    def test_maximally_mixed_state_counts_ranks(self, rng):
        gc = random_generalized_context(rng, dim=4, n_times=2)
        rho = DensityOperator.maximally_mixed(4)
        family = family_from_generalized_context(gc, rho)
        report = gmh_check(family)
        assert report.verdict
        for choices, atom in gc.composed_atoms.items():
            assert report.probabilities[choices] == pytest.approx(
                atom.rank / 4.0, abs=1e-10
            )

    def test_one_eigendecomposition_per_hamiltonian(self, rng, monkeypatch):
        setup_h = random_hermitian(rng, 4)
        contexts = shared_basis_contexts(rng, 4, 3, setup_h)
        rho = random_density(rng, 4)
        h = HermitianOperator(setup_h.matrix)
        calls = []
        eigh = np.linalg.eigh

        def counted_eigh(matrix, *args, **kwargs):
            calls.append(np.array(matrix))
            return eigh(matrix, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
        gc = build_generalized_context(contexts, 0.0, h)
        assert gmh_check(family_from_generalized_context(gc, rho)).verdict
        # H's, shared by every translation, then the joint atoms' Z
        assert len(calls) == 2
        assert np.array_equal(calls[0], h.matrix)
        sizes = [len(stack) for stack in gc.translated_atoms]
        z = sum(
            math.prod(sizes[t + 1:]) * np.tensordot(np.arange(k), stack, axes=1)
            for t, (k, stack) in enumerate(zip(sizes, gc.translated_atoms))
        )
        assert max_entry_norm(calls[1] - z) < 1e-12

    def test_no_projector_objects_are_built(self, rng, monkeypatch):
        h = random_hermitian(rng, 4)
        accepted = shared_basis_contexts(rng, 4, 3, h)
        rejected = []
        for t in (1.0, 2.0):
            p = random_projector(rng, 4)
            rejected.append(Context(t, [p, p.complement()]))
        rho = random_density(rng, 4)
        built = []
        init = Projector.__init__

        def counted_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Projector, "__init__", counted_init)
        gc = build_generalized_context(accepted, 0.0, h)
        assert gmh_check(family_from_generalized_context(gc, rho)).verdict
        with pytest.raises(IncompatibleContexts):
            build_generalized_context(rejected, 0.0, h)
        gmh_check(HistoryFamily(rejected, h, 0.0, rho))
        griffiths_check(HistoryFamily(rejected, h, 0.0, rho))
        assert built == []

    def test_theorem_on_random_generalized_contexts(self, rng):
        for _ in range(20):
            gc = random_generalized_context(rng, t0=0.0)
            rho = random_density(rng, gc.dim)
            family = family_from_generalized_context(gc, rho)
            report = gmh_check(family)
            assert report.verdict
            # the gram route: a family built from the contexts alone
            direct = gmh_check(
                HistoryFamily(gc.contexts, gc.hamiltonian, gc.ref_time, rho, gc.hbar)
            )
            assert direct.verdict
            for choices in gc.label_tuples:
                composite = composite_probability(gc, gc.property([choices]), rho)
                assert report.probabilities[choices] == pytest.approx(
                    composite, abs=1e-10
                )
                assert direct.probabilities[choices] == pytest.approx(
                    composite, abs=1e-10
                )


class TestOmnesImplies:
    def test_subset_implies_superset(self):
        family = two_time_family((1, 0, 0))
        a = [("a+", "z+")]
        b = [("a+", "z+"), ("a-", "z+")]
        assert omnes_implies(family, a, b)

    def test_complement_not_implied(self):
        family = two_time_family((1, 0, 0))
        a = [("a+", "z+"), ("a+", "z-")]
        b = [("a-", "z+"), ("a-", "z-")]
        assert not omnes_implies(family, a, b)

    def test_certain_set_implied_by_everything(self):
        family = two_time_family((1, 0, 0))
        full = list(family.label_grid)
        a = [("a+", "z+"), ("a+", "z-")]  # first-time x+ marginal, weight one
        assert omnes_implies(family, full, a)

    def test_null_condition_raises(self):
        family = two_time_family((0, 0, 1))
        with pytest.raises(ConditionOnNull):
            omnes_implies(family, [("a+", "z-")], [("a+", "z+")])

    def test_condition_at_the_null_threshold_is_not_null(self):
        # "below tols.prob" is null; Pr(a) = tols.prob is not
        family = two_time_family((1, 0, 0))
        a = [("a+", "z+")]
        pr_a = gmh_check(family).probabilities[a[0]]
        assert 0.0 < pr_a < 1.0
        tols = DEFAULT_TOLERANCES.updated(prob=pr_a)
        assert omnes_implies(family, a, a, tols=tols)
        with pytest.raises(ConditionOnNull):
            omnes_implies(family, a, a, tols=tols.updated(prob=math.nextafter(pr_a, 1.0)))

    def test_inconsistent_family_raises(self):
        n1 = (1 / np.sqrt(2), 1 / np.sqrt(2), 0.0)
        family = two_time_family(n1)
        with pytest.raises(InconsistentFamily):
            omnes_implies(family, [("a+", "z+")], [("a+", "z-")])

    def test_unknown_history_rejected(self):
        family = two_time_family((1, 0, 0))
        with pytest.raises(InvariantViolation):
            omnes_implies(family, [("bad", "z+")], [("a+", "z+")])

    def test_griffiths_criterion(self):
        a = [("a+", "z+"), ("a+", "z-")]
        # n0 = x, n1 in the xy plane, n2 = z: real-part consistent only; a
        # single history and the rest form a coarse family that fails gmh
        # (a, "a+ at t = 1", and the rest are one time's atoms: consistent)
        single = [("a+", "z+")]
        family = two_time_family((1 / np.sqrt(2), 1 / np.sqrt(2), 0.0))
        with pytest.raises(InconsistentFamily, match="gmh"):
            omnes_implies(family, single, single)
        assert omnes_implies(family, a, a)
        assert omnes_implies(family, a, a + [("a-", "z+")], criterion="griffiths")
        assert not omnes_implies(
            family, a, [("a+", "z+"), ("a-", "z+")], criterion="griffiths"
        )
        family = two_time_family((1 / np.sqrt(2), 0.0, 1 / np.sqrt(2)))
        with pytest.raises(InconsistentFamily, match="griffiths"):
            omnes_implies(family, single, single, criterion="griffiths")

    def test_tautology_on_a_consistent_coarse_family(self):
        # x at t = 1, z at t = 2, H = 0, state z+: the finest family fails
        # gmh at 0.25, but "z+ at t = 2" and its negation are a consistent
        # coarse family, D(A, not A) = 0, so A implies A
        rho = DensityOperator(np.diag([1.0, 0.0]).astype(complex))
        family = two_time_family((1, 0, 0), rho=rho)
        assert gmh_check(family).max_residual() == pytest.approx(0.25, abs=1e-12)
        z_up = [("a+", "z+"), ("a-", "z+")]
        assert omnes_implies(family, z_up, z_up)
        # "x+ at t = 1" splits both classes, and that family fails
        with pytest.raises(InconsistentFamily, match="0.25|2.500e-01"):
            omnes_implies(family, z_up, [("a+", "z+"), ("a+", "z-")])

    def test_griffiths_criterion_on_three_times(self):
        # the family above with z measured again at t = 3: real-part
        # consistent only, and the two z outcomes agree
        s = 1 / np.sqrt(2)
        family = HistoryFamily(
            [
                pair_context(1.0, (s, s, 0.0), "a"),
                pair_context(2.0, (0, 0, 1), "z"),
                pair_context(3.0, (0, 0, 1), "w"),
            ],
            H0,
            0.0,
            RHO_X,
        )
        z_up = [("a+", "z+", "w+"), ("a+", "z+", "w-")]
        with pytest.raises(InconsistentFamily, match="gmh"):
            omnes_implies(family, z_up, z_up)
        w_up = [("a+", "z+", "w+"), ("a-", "z+", "w+")]
        assert omnes_implies(family, z_up, w_up, criterion="griffiths")
        agree = [("a+", "z+", "w+"), ("a+", "z-", "w-")]
        assert not omnes_implies(family, agree, w_up, criterion="griffiths")

    def test_unknown_criterion_rejected(self):
        family = two_time_family((1, 0, 0))
        with pytest.raises(InvariantViolation, match="unknown consistency criterion"):
            omnes_implies(family, [("a+", "z+")], [("a+", "z+")], criterion="bogus")


class TestDiscontinuityExhibit:
    def test_intermediate_time_weight_is_half_but_contexts_are_rejected(self):
        for t1 in (0.1, 1.0, 1.9):
            family = two_time_family((1, 0, 0), t1=t1)
            assert gmh_check(family).verdict
            pr = history_probability(family, ["a+", "z+"])[("a+", "z+")]
            assert pr == pytest.approx(0.5, abs=1e-12)
            with pytest.raises(IncompatibleContexts):
                build_generalized_context(
                    [pair_context(t1, (1, 0, 0), "x"), pair_context(2.0, (0, 0, 1), "z")],
                    0.0,
                    H0,
                )
