import numpy as np
import pytest

from helpers import (
    KET_X_MINUS,
    KET_X_PLUS,
    SX,
    SZ,
    outer,
    random_hermitian,
    random_projector,
)
from qprops.errors import (
    DimensionMismatch,
    InvariantViolation,
    NoConvergence,
    NonHermitianInput,
    OverlappingWindows,
    UncoveredEigenvalue,
    ZeroSpan,
)
from qprops.linop import (
    DensityOperator,
    HermitianOperator,
    Projector,
    SpectralWindow,
    UnitaryOperator,
    alternating_projection_limit,
    commutator_residuals,
    evolution_operator,
    max_entry_norm,
    projector_from_span,
    spectral_decompose,
    spectral_projectors,
    subspace_inclusion,
    subspace_intersection,
)


class TestTypeInvariants:
    def test_operator_requires_square(self):
        with pytest.raises(InvariantViolation):
            HermitianOperator(np.zeros((2, 3)))

    def test_operator_matrix_is_readonly(self):
        op = HermitianOperator(SZ)
        with pytest.raises(ValueError):
            op.matrix[0, 0] = 5.0

    def test_hermitian_rejects_non_hermitian(self):
        with pytest.raises(NonHermitianInput):
            HermitianOperator([[0, 1], [0, 0]])

    def test_projector_rejects_non_idempotent(self):
        with pytest.raises(InvariantViolation):
            Projector(0.5 * SZ + 0.5 * np.eye(2) + 0.2 * SX)

    @pytest.mark.parametrize(
        "cls", [HermitianOperator, Projector, DensityOperator, UnitaryOperator]
    )
    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
    def test_non_finite_entries_rejected(self, cls, bad):
        matrix = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
        matrix[1, 1] = bad
        with pytest.raises(InvariantViolation, match="non-finite"):
            cls(matrix)

    def test_projector_rank_is_rounded_trace(self, rng):
        for dim in (2, 3, 5):
            p = random_projector(rng, dim)
            assert p.rank == round(np.trace(p.matrix).real)

    def test_unitary_rejects_non_unitary(self):
        with pytest.raises(InvariantViolation):
            UnitaryOperator(2.0 * np.eye(2))

    def test_unitary_rejects_a_finite_matrix_whose_residual_overflows(self):
        # U U^dag overflows to inf - inf, so |U U^dag - I| reads NaN
        big = 1e200 * np.array([[1 + 1j, 1], [1, -1 - 1j]])
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            InvariantViolation, match="not unitary"
        ):
            UnitaryOperator(big)

    def test_density_rejects_wrong_trace(self):
        with pytest.raises(InvariantViolation):
            DensityOperator(np.eye(2))

    def test_density_rejects_negative_eigenvalue(self):
        with pytest.raises(InvariantViolation):
            DensityOperator(np.diag([1.5, -0.5]))

    def test_density_from_state_vector(self):
        rho = DensityOperator.from_state_vector([3.0, 4.0j])
        assert np.allclose(np.trace(rho.matrix), 1.0)

    def test_spectral_window_requires_order(self):
        with pytest.raises(InvariantViolation):
            SpectralWindow("bad", 1.0, 1.0)


class TestSpectralDecompose:
    def test_identity_single_cluster(self):
        spaces = spectral_decompose(HermitianOperator(np.eye(2)))
        assert len(spaces) == 1
        assert spaces[0].eigenvalue == pytest.approx(1.0)
        assert spaces[0].vectors.shape == (2, 2)

    def test_pauli_z_standard_basis(self):
        spaces = spectral_decompose(HermitianOperator(SZ))
        assert [s.eigenvalue for s in spaces] == pytest.approx([-1.0, 1.0])
        assert abs(spaces[0].vectors[1, 0]) == pytest.approx(1.0)
        assert abs(spaces[1].vectors[0, 0]) == pytest.approx(1.0)

    def test_pauli_x_eigenpairs_satisfy_eigenvalue_equation(self):
        # oracle: apply the matrix directly to each reported eigenvector
        spaces = spectral_decompose(HermitianOperator(SX))
        assert [s.eigenvalue for s in spaces] == pytest.approx([-1.0, 1.0])
        for space in spaces:
            for col in space.vectors.T:
                assert np.allclose(SX @ col, space.eigenvalue * col, atol=1e-12)

    def test_near_degenerate_values_cluster(self):
        h = HermitianOperator(np.diag([1.0, 1.0 + 1e-10, 2.0]))
        spaces = spectral_decompose(h)
        assert len(spaces) == 2
        assert spaces[0].vectors.shape == (3, 2)

    def test_random_orthonormality_and_reconstruction(self, rng):
        for _ in range(30):
            dim = int(rng.integers(2, 7))
            h = random_hermitian(rng, dim)
            spaces = spectral_decompose(h)
            recon = np.zeros((dim, dim), dtype=complex)
            for space in spaces:
                v = space.vectors
                assert max_entry_norm(v.conj().T @ v - np.eye(v.shape[1])) < 1e-10
                # reconstruction uses the unclustered spectral data
                recon += v @ np.diag([space.eigenvalue] * v.shape[1]) @ v.conj().T
            assert max_entry_norm(recon - h.matrix) < 1e-8


class TestSpectralProjectors:
    def test_pauli_z_windows(self):
        projs = spectral_projectors(
            HermitianOperator(SZ),
            [SpectralWindow("up", 0.5, 1.5), SpectralWindow("down", -1.5, -0.5)],
        )
        assert np.allclose(projs[0].matrix, np.diag([1.0, 0.0]))
        assert np.allclose(projs[1].matrix, np.diag([0.0, 1.0]))

    def test_identity_single_window(self):
        projs = spectral_projectors(
            HermitianOperator(np.eye(2)), [SpectralWindow("all", 0.5, 1.5)]
        )
        assert len(projs) == 1
        assert np.allclose(projs[0].matrix, np.eye(2))

    def test_x_component_matches_span_construction(self):
        # oracle: independent construction from the known eigenvectors
        projs = spectral_projectors(
            HermitianOperator(SX),
            [SpectralWindow("+", 0.5, 1.5), SpectralWindow("-", -1.5, -0.5)],
        )
        expect_plus = projector_from_span([KET_X_PLUS])
        expect_minus = projector_from_span([KET_X_MINUS])
        assert max_entry_norm(projs[0].matrix - expect_plus.matrix) < 1e-12
        assert max_entry_norm(projs[1].matrix - expect_minus.matrix) < 1e-12

    def test_uncovered_eigenvalue(self):
        with pytest.raises(UncoveredEigenvalue):
            spectral_projectors(
                HermitianOperator(SZ), [SpectralWindow("up", 0.5, 1.5)]
            )

    def test_overlapping_windows(self):
        with pytest.raises(OverlappingWindows):
            spectral_projectors(
                HermitianOperator(SZ),
                [SpectralWindow("a", -2.0, 1.0), SpectralWindow("b", 0.0, 2.0)],
            )

    def test_random_families_are_exclusive_and_complete(self, rng):
        for _ in range(25):
            dim = int(rng.integers(2, 7))
            h = random_hermitian(rng, dim)
            w = np.linalg.eigvalsh(h.matrix)
            cuts = np.sort(rng.choice(w, size=min(dim - 1, 2), replace=False))
            edges = [w[0] - 1.0, *[c + 1e-12 for c in cuts], w[-1] + 1.0]
            windows = [
                SpectralWindow(str(k), edges[k], edges[k + 1])
                for k in range(len(edges) - 1)
            ]
            projs = spectral_projectors(h, windows)
            total = sum(p.matrix for p in projs)
            assert max_entry_norm(total - np.eye(dim)) < 1e-10
            for i in range(len(projs)):
                for j in range(i + 1, len(projs)):
                    assert max_entry_norm(projs[i].matrix @ projs[j].matrix) < 1e-10


class TestEvolutionOperator:
    def test_zero_hamiltonian_gives_identity(self):
        u = evolution_operator(HermitianOperator.zero(3), 0.0, 2.7)
        assert np.allclose(u.matrix, np.eye(3))

    def test_zero_interval_gives_identity(self, rng):
        for _ in range(100):
            dim = int(rng.integers(2, 7))
            h = random_hermitian(rng, dim)
            t = float(rng.uniform(-5, 5))
            u = evolution_operator(h, t, t)
            assert max_entry_norm(u.matrix - np.eye(dim)) < 1e-12

    def test_diagonal_phases(self):
        # oracle: exponential of a diagonal matrix, computed entrywise
        u = evolution_operator(HermitianOperator(SZ), 0.0, np.pi / 2, 1.0)
        expect = np.diag([np.exp(-1j * np.pi / 2), np.exp(1j * np.pi / 2)])
        assert max_entry_norm(u.matrix - expect) < 1e-12

    def test_hbar_scales_the_phase(self):
        u = evolution_operator(HermitianOperator(SZ), 0.0, np.pi, 2.0)
        expect = np.diag([np.exp(-1j * np.pi / 2), np.exp(1j * np.pi / 2)])
        assert max_entry_norm(u.matrix - expect) < 1e-12

    def test_composition_law(self, rng):
        for _ in range(20):
            dim = int(rng.integers(2, 7))
            h = random_hermitian(rng, dim)
            t1, t2, t3 = sorted(rng.uniform(-2, 2, size=3))
            left = evolution_operator(h, t2, t3).matrix @ evolution_operator(h, t1, t2).matrix
            direct = evolution_operator(h, t1, t3).matrix
            assert max_entry_norm(left - direct) < 1e-10

    def test_rejects_nonpositive_hbar(self):
        with pytest.raises(InvariantViolation):
            evolution_operator(HermitianOperator(SZ), 0.0, 1.0, 0.0)

    @pytest.mark.parametrize(
        "t_from, t_to, hbar",
        [
            (0.0, 1.0, np.inf),  # would give U = I
            (0.0, 1.0, np.nan),
            (np.nan, 1.0, 1.0),
            (-np.inf, 1.0, 1.0),
            (0.0, np.nan, 1.0),
            (0.0, np.inf, 1.0),
        ],
    )
    def test_rejects_non_finite_hbar_and_times(self, t_from, t_to, hbar):
        # not the later "non-finite entries" check of the unitary
        with pytest.raises(InvariantViolation, match="(hbar|times) must be"):
            evolution_operator(HermitianOperator(SZ), t_from, t_to, hbar)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_phase_is_caught_by_the_finite_check(self):
        # both times finite, their difference not: every phase is NaN
        with pytest.raises(InvariantViolation, match="non-finite"):
            evolution_operator(HermitianOperator(SZ), -1e308, 1e308)


class TestProjectorFromSpan:
    def test_single_basis_vector(self):
        p = projector_from_span([[1.0, 0.0]])
        assert np.allclose(p.matrix, np.diag([1.0, 0.0]))

    def test_full_basis(self):
        p = projector_from_span([[1.0, 0.0], [0.0, 1.0]])
        assert np.allclose(p.matrix, np.eye(2))

    def test_diagonal_direction_outer_product(self):
        # oracle: outer product of the normalized spanning vector
        p = projector_from_span([KET_X_PLUS])
        assert max_entry_norm(p.matrix - outer(KET_X_PLUS)) < 1e-12

    def test_dependent_vectors_do_not_inflate_rank(self):
        p = projector_from_span([[1.0, 0.0], [2.0, 0.0], [1e-12, 0.0]])
        assert p.rank == 1

    def test_zero_span(self):
        with pytest.raises(ZeroSpan):
            projector_from_span([[0.0, 0.0], [1e-15, 0.0]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
    def test_non_finite_entries_rejected(self, bad):
        with pytest.raises(InvariantViolation, match="non-finite"):
            projector_from_span([[bad, 1.0]])


class TestSubspaceIntersection:
    def test_equal_projectors(self, rng):
        p = random_projector(rng, 4)
        meet = subspace_intersection(p, p)
        assert max_entry_norm(meet.matrix - p.matrix) < 1e-10

    def test_distinct_lines_meet_in_zero(self):
        p = Projector(np.diag([1.0, 0.0]))
        q = projector_from_span([KET_X_PLUS])
        meet = subspace_intersection(p, q)
        assert meet.rank == 0

    def test_identity_absorbs(self, rng):
        q = random_projector(rng, 5)
        meet = subspace_intersection(Projector.identity(5), q)
        assert max_entry_norm(meet.matrix - q.matrix) < 1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            subspace_intersection(Projector.identity(2), Projector.identity(3))


class TestAlternatingProjectionLimit:
    def test_commuting_inputs_fix_the_product(self):
        p = Projector(np.diag([1.0, 1.0, 0.0]))
        q = Projector(np.diag([0.0, 1.0, 1.0]))
        limit = alternating_projection_limit(p, q)
        assert max_entry_norm(limit.matrix - p.matrix @ q.matrix) < 1e-12

    def test_nonorthogonal_lines_drain_to_zero(self):
        p = Projector(np.diag([1.0, 0.0]))
        q = projector_from_span([KET_X_PLUS])
        limit = alternating_projection_limit(p, q)
        assert limit.rank == 0
        # cross-check against the exact-geometry route
        oracle = subspace_intersection(p, q)
        assert max_entry_norm(limit.matrix - oracle.matrix) < 1e-8

    def test_equal_projectors(self, rng):
        p = random_projector(rng, 3)
        limit = alternating_projection_limit(p, p)
        assert max_entry_norm(limit.matrix - p.matrix) < 1e-10

    def test_no_convergence_on_tiny_budget(self):
        eps = 1e-2
        v = np.array([1.0, eps]) / np.sqrt(1.0 + eps * eps)
        p = Projector(np.diag([1.0, 0.0]))
        q = projector_from_span([v])
        with pytest.raises(NoConvergence):
            alternating_projection_limit(p, q, tol=1e-12, max_iter=4)
        # with a real budget the same pair drains to the zero projector
        limit = alternating_projection_limit(p, q)
        assert limit.rank == 0

    def test_matches_exact_intersection_on_random_pairs(self, rng):
        for _ in range(40):
            dim = int(rng.integers(2, 9))
            p = random_projector(rng, dim)
            q = random_projector(rng, dim)
            limit = alternating_projection_limit(p, q)
            oracle = subspace_intersection(p, q)
            assert max_entry_norm(limit.matrix - oracle.matrix) < 1e-8


class TestCommutatorNorm:
    def test_self_commutator_vanishes(self, rng):
        p = random_projector(rng, 3)
        assert commutator_residuals(p.matrix, p.matrix) == 0.0

    def test_diagonal_operators_commute(self):
        assert commutator_residuals(np.diag([1.0, 2.0]), np.diag([3.0, 4.0])) == 0.0

    def test_pauli_x_z_value(self):
        # oracle: direct 2x2 products
        expect = max_entry_norm(SX @ SZ - SZ @ SX)
        assert expect == pytest.approx(2.0)
        assert commutator_residuals(SX, SZ) == pytest.approx(2.0)


class TestSubspaceInclusion:
    def test_identity_contains_everything(self, rng):
        p = random_projector(rng, 4)
        assert subspace_inclusion(p, Projector.identity(4))

    def test_identity_not_inside_proper_projector(self, rng):
        q = random_projector(rng, 4, rank=2)
        assert not subspace_inclusion(Projector.identity(4), q)

    def test_different_lines_not_included(self):
        p = Projector(np.diag([1.0, 0.0]))
        q = projector_from_span([KET_X_PLUS])
        assert not subspace_inclusion(p, q)

    def test_agrees_with_intersection_characterization(self, rng):
        for _ in range(30):
            dim = int(rng.integers(2, 7))
            if rng.uniform() < 0.5:
                q = random_projector(rng, dim)
                p = random_projector(rng, dim)
            else:
                # build a nested pair: p spans a subset of q's basis
                q = random_projector(rng, dim, rank=int(rng.integers(2, dim + 1)))
                w, v = np.linalg.eigh(q.matrix)
                basis = v[:, w > 0.5]
                take = int(rng.integers(1, basis.shape[1] + 1))
                p = projector_from_span(list(basis[:, :take].T))
            included = subspace_inclusion(p, q)
            meet = subspace_intersection(p, q)
            meet_is_p = max_entry_norm(meet.matrix - p.matrix) < 1e-8
            assert included == meet_is_p
