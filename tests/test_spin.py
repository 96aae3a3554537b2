import numpy as np
import pytest

from helpers import SX, random_density, spin_pair
from qprops.config import DEFAULT_TOLERANCES
from qprops.contexts import build_generalized_context
from qprops.errors import IncompatibleContexts, InvariantViolation, NonUnitDirection
from qprops.histories import HistoryFamily, gmh_check, griffiths_check
from qprops.lattice import TimedProperty, translate
from qprops.linop import (
    DensityOperator,
    HermitianOperator,
    Projector,
    UnitaryOperator,
    commutator_residuals,
    evolution_operator,
    max_entry_norm,
)
from qprops.spin import (
    AXIS_DIRECTIONS,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    Direction,
    _grid_points,
    _search_residuals,
    antipodal_pairs,
    compatible_directions,
    coplanarity_defect,
    direction_context,
    gmh_directions,
    griffiths_directions,
    sphere_grid,
    sphere_points,
    spin_projectors,
)

X = Direction(1.0, 0.0, 0.0)
Y = Direction(0.0, 1.0, 0.0)
Z = Direction(0.0, 0.0, 1.0)
H0 = HermitianOperator.zero(2)


class TestDirection:
    def test_rejects_non_unit(self):
        with pytest.raises(NonUnitDirection):
            Direction(1.0, 1.0, 0.0)

    @pytest.mark.parametrize(
        "components",
        [(np.nan, 0.0, 0.0), (0.0, 0.0, np.nan), (np.inf, 0.0, 0.0)],
        ids=["nan-x", "nan-z", "inf-x"],
    )
    def test_rejects_non_finite(self, components):
        with pytest.raises(NonUnitDirection):
            Direction(*components)

    def test_normalized_constructor(self):
        d = Direction.normalized(3.0, 0.0, 4.0)
        assert d.x == pytest.approx(0.6)
        assert d.z == pytest.approx(0.8)

    def test_normalized_rejects_zero(self):
        with pytest.raises(NonUnitDirection):
            Direction.normalized(0.0, 0.0, 0.0)

    def test_antipode(self):
        assert Z.antipode() == Direction(0.0, 0.0, -1.0)


class TestSpinProjectors:
    def test_z_axis_gives_standard_basis(self):
        plus, minus = spin_projectors(Z)
        assert np.allclose(plus.matrix, np.diag([1.0, 0.0]))
        assert np.allclose(minus.matrix, np.diag([0.0, 1.0]))

    def test_pair_sums_to_identity(self, rng):
        for _ in range(20):
            v = rng.normal(size=3)
            n = Direction.normalized(*v)
            plus, minus = spin_projectors(n)
            assert max_entry_norm(plus.matrix + minus.matrix - np.eye(2)) < 1e-14

    def test_x_axis_entries(self):
        plus, minus = spin_projectors(X)
        assert np.allclose(plus.matrix, (np.eye(2) + SX) / 2)
        assert np.allclose(minus.matrix, (np.eye(2) - SX) / 2)

    def test_matches_independent_pauli_expansion(self, rng):
        for _ in range(10):
            n = Direction.normalized(*rng.normal(size=3))
            plus, minus = spin_projectors(n)
            ref_plus, ref_minus = spin_pair((n.x, n.y, n.z))
            assert max_entry_norm(plus.matrix - ref_plus.matrix) < 1e-14
            assert max_entry_norm(minus.matrix - ref_minus.matrix) < 1e-14


class TestSphereGrid:
    def test_axes_come_first(self):
        grid = sphere_grid(50)
        assert grid[:6] == AXIS_DIRECTIONS
        assert len(grid) == 56

    def test_all_points_unit_norm(self):
        for d in sphere_grid(200):
            assert abs(np.linalg.norm(d.as_array()) - 1.0) < 1e-12

    def test_points_are_the_grid_as_a_read_only_array(self):
        points = sphere_points(300)
        assert points.shape == (306, 3)
        assert not points.flags.writeable
        assert [Direction(*row) for row in points.tolist()] == list(sphere_grid(300))

    def test_repeat_call_returns_the_cached_grid(self):
        first = sphere_points(2000)
        assert sphere_points(2000) is first
        assert not first.flags.writeable
        fresh = sphere_points.__wrapped__(2000)
        assert fresh is not first
        assert fresh.tobytes() == first.tobytes()

    @pytest.mark.parametrize(
        "rows, error",
        [
            ([[1.0, 1.0, 0.0]], NonUnitDirection),
            ([[0.0, 0.0, 1.0], [float("nan"), 0.0, 0.0]], NonUnitDirection),
            ([[1.0, 0.0]], InvariantViolation),
        ],
        ids=["non-unit", "nan", "shape"],
    )
    def test_array_grid_rows_are_checked(self, rows, error):
        for search in (compatible_directions, lambda n, g: gmh_directions(X, n, g)):
            with pytest.raises(error):
                search(Z, np.array(rows))


class TestCompatibleDirections:
    def test_z_axis_is_the_only_survivor(self):
        grid = sphere_grid(300)
        kept = compatible_directions(Z, grid)
        assert kept == [Z, Z.antipode()]

    def test_self_commutation(self):
        n = Direction.normalized(1.0, 2.0, 3.0)
        assert compatible_directions(n, [n]) == [n]

    def test_orthogonal_axis_rejected(self):
        assert compatible_directions(Z, [X]) == []

    def test_empty_grid(self):
        assert compatible_directions(Z, []) == []
        assert gmh_directions(X, Z, []) == []
        assert griffiths_directions(X, Z, []) == []

    def test_state_never_enters_the_verdict(self, rng):
        grid = sphere_grid(100)
        baseline = compatible_directions(Z, grid)
        for _ in range(5):
            random_density(rng, 2)  # draw states; the search cannot see them
            assert compatible_directions(Z, grid) == baseline

    def test_agrees_with_generalized_context_builder(self, rng):
        grid = [Z, Z.antipode(), X, Y, Direction.normalized(1.0, 1.0, 1.0)]
        kept = compatible_directions(Z, grid)
        for n1 in grid:
            contexts = [direction_context(n1, 1.0), direction_context(Z, 2.0)]
            if n1 in kept:
                build_generalized_context(contexts, 0.0, H0)
            else:
                with pytest.raises(IncompatibleContexts):
                    build_generalized_context(contexts, 0.0, H0)


class TestGmhDirections:
    def test_preparation_and_measurement_axes_survive(self):
        grid = sphere_grid(300)
        kept = gmh_directions(X, Z, grid)
        assert set(
            (d.x, d.y, d.z) for d in kept
        ) == {(1.0, 0.0, 0.0), (-1.0, 0.0, 0.0), (0.0, 0.0, 1.0), (0.0, 0.0, -1.0)}

    def test_grid_without_special_axes_is_empty(self):
        grid = [Y, Direction.normalized(1.0, 1.0, 0.0), Direction.normalized(1.0, 0.0, 1.0)]
        assert gmh_directions(X, Z, grid) == []

    def test_y_axis_passes_griffiths_but_not_gmh(self):
        assert gmh_directions(X, Z, [Y]) == []
        assert griffiths_directions(X, Z, [Y]) == [Y]

    def test_no_state_and_no_n0_is_a_named_error(self):
        with pytest.raises(InvariantViolation) as err:
            gmh_directions(None, Z, sphere_points(10))
        assert str(err.value) == "the gmh search needs a state: give rho or n0"


class TestGriffithsDirections:
    def test_accepted_set_is_the_two_planes(self):
        grid = sphere_grid(400)
        kept = set(
            (d.x, d.y, d.z) for d in griffiths_directions(X, Z, grid)
        )
        for d in grid:
            in_planes = abs(d.x * d.z) <= 1e-9
            assert ((d.x, d.y, d.z) in kept) == in_planes

    def test_preparation_direction_accepted(self):
        assert griffiths_directions(X, Z, [X]) == [X]

    def test_no_state_and_no_n0_is_a_named_error(self):
        with pytest.raises(InvariantViolation) as err:
            griffiths_directions(None, Z, sphere_points(10))
        assert str(err.value) == "the griffiths search needs a state: give rho or n0"

    def test_xz_diagonal_rejected_and_defect_value(self):
        n1 = Direction.normalized(1.0, 0.0, 1.0)
        assert griffiths_directions(X, Z, [n1]) == []
        assert coplanarity_defect(X, n1, Z) == pytest.approx(0.5, abs=1e-12)

    def test_agrees_with_coplanarity_predicate_pointwise(self):
        grid = sphere_grid(500)
        kept = set(griffiths_directions(X, Z, grid))
        for d in grid:
            assert (d in kept) == (abs(coplanarity_defect(X, d, Z)) <= 1e-9)


class TestCoplanarityDefect:
    def test_equals_the_dot_product_form(self, rng):
        # (a x b).(c x d) = (a.c)(b.d) - (a.d)(b.c) with a, b, c, d = n0, n1, n1, n2
        for _ in range(200):
            rows = rng.normal(size=(3, 3))
            rows /= np.linalg.norm(rows, axis=1)[:, None]
            n0, n1, n2 = (Direction(*row) for row in rows.tolist())
            want = (rows[0] @ rows[1]) * (rows[1] @ rows[2]) - rows[0] @ rows[2]
            assert coplanarity_defect(n0, n1, n2) == pytest.approx(want, abs=1e-14)

    def test_zero_set_is_not_coplanarity(self):
        # all three in the xz plane, yet far from zero
        in_plane = Direction.normalized(1.0, 0.0, 1.0)
        assert coplanarity_defect(X, in_plane, Z) == pytest.approx(0.5, abs=1e-15)
        # out of every common plane, yet exactly zero
        out_of_plane = Direction.normalized(1.0, 1.0, 0.0)
        assert coplanarity_defect(X, out_of_plane, Z) == 0.0


class TestInclusionChain:
    def test_search_results_are_nested(self):
        grid = sphere_grid(250)
        commute = set(compatible_directions(Z, grid))
        gmh = set(gmh_directions(X, Z, grid))
        griff = set(griffiths_directions(X, Z, grid))
        assert commute <= gmh <= griff


# A negative consistency tolerance makes every history pair a violation, so
# ``max_residual()`` is the largest trace whatever its size.
REPORT_EVERY_PAIR = DEFAULT_TOLERANCES.updated(consist=-1.0)
TOLERANCE = {
    "commute": DEFAULT_TOLERANCES.commute,
    "gmh": DEFAULT_TOLERANCES.consist,
    "griffiths": DEFAULT_TOLERANCES.consist,
}


def run_search(mode, n0, n2, grid, rho, h, t0, t1, t2):
    if mode == "commute":
        return compatible_directions(n2, grid, h, 1.0, t1, t2, t0)
    search = gmh_directions if mode == "gmh" else griffiths_directions
    return search(n0, n2, grid, rho, h, 1.0, t0, t1, t2)


def per_point_residual(mode, n0, n2, n1, rho, h, t0, t1, t2):
    """One grid direction the unbatched way: objects built and checked per point."""
    if mode == "commute":
        moved = [translate(TimedProperty(p, t1), t0, h) for p in spin_projectors(n1)]
        fixed = [translate(TimedProperty(p, t2), t0, h) for p in spin_projectors(n2)]
        return max(
            float(commutator_residuals(a.projector.matrix, b.projector.matrix))
            for a in moved
            for b in fixed
        )
    family = HistoryFamily(
        [direction_context(n1, t1), direction_context(n2, t2)], h, t0, rho
    )
    check = gmh_check if mode == "gmh" else griffiths_check
    return check(family, tols=REPORT_EVERY_PAIR).max_residual()


def bloch_direction(matrix):
    return Direction.normalized(
        *(float(np.trace(matrix @ s).real) for s in (PAULI_X, PAULI_Y, PAULI_Z))
    )


def planted_case(rng, grid, driven):
    """State and fixed direction that put two grid points on the preparation
    and measurement axes after translation to t0, so no search comes back empty."""
    h = H0
    if driven:
        field = rng.normal(size=3)
        h = HermitianOperator(
            rng.uniform(-0.5, 0.5) * np.eye(2)
            + sum(c * s for c, s in zip(field, (PAULI_X, PAULI_Y, PAULI_Z)))
        )
    t0, t1 = 0.0, float(rng.uniform(0.5, 1.5))
    t2 = t1 + float(rng.uniform(0.5, 1.5))
    u1 = evolution_operator(h, t1, t0)
    back2 = UnitaryOperator(evolution_operator(h, t2, t0).matrix.conj().T)
    g0, g2 = (grid[k] for k in rng.choice(len(grid), size=2, replace=False))
    n0 = bloch_direction(u1.transform(spin_projectors(g0)[0].matrix))
    n2 = bloch_direction(back2.transform(u1.transform(spin_projectors(g2)[0].matrix)))
    rho = DensityOperator(spin_projectors(n0)[0].matrix)
    return n0, n2, rho, h, t0, t1, t2


class TestBatchedSearchesMatchPerPoint:
    # float64 rounding on 2x2 products stays far below this bound
    RESIDUAL_ATOL = 1e-13
    # verdicts are compared only where the oracle is clear of the tolerance
    MARGIN = 1e-12

    @pytest.mark.parametrize("driven", [False, True], ids=["free", "driven"])
    def test_residuals_and_verdicts(self, rng, driven):
        grid = sphere_grid(2000)
        n0, n2, rho, h, t0, t1, t2 = planted_case(rng, grid, driven)
        for mode, tol in TOLERANCE.items():
            batched = _search_residuals(
                mode, n0, n2, _grid_points(grid), rho, h, 1.0, t0, t1, t2, DEFAULT_TOLERANCES
            )
            oracle = np.array(
                [per_point_residual(mode, n0, n2, n1, rho, h, t0, t1, t2) for n1 in grid]
            )
            assert np.max(np.abs(batched - oracle)) <= self.RESIDUAL_ATOL, mode
            kept = set(run_search(mode, n0, n2, grid, rho, h, t0, t1, t2))
            got = np.array([n1 in kept for n1 in grid])
            clear = np.abs(oracle - tol) > self.MARGIN
            assert np.array_equal(got[clear], (oracle <= tol)[clear]), mode
            assert got.any(), mode

    def test_projector_count_does_not_grow_with_the_grid(self, monkeypatch):
        built = []
        init = Projector.__init__

        def counted_init(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Projector, "__init__", counted_init)
        for mode in TOLERANCE:
            counts = []
            for count in (400, 2000):
                grid = sphere_grid(count)
                built.clear()
                run_search(mode, X, Z, grid, None, H0, 0.0, 1.0, 2.0)
                counts.append(len(built))
            assert counts[0] == counts[1], mode


def antipodal_pairs_by_double_loop(directions):
    """The unvectorized pair scan, kept as the reference."""
    pairs = []
    for i in range(len(directions)):
        for j in range(i + 1, len(directions)):
            gap = directions[i].as_array() + directions[j].as_array()
            if float(np.max(np.abs(gap))) <= 1e-9:
                pairs.append((i, j))
    return pairs


class TestAntipodalPairs:
    def test_axis_grid_pairs(self):
        pairs = antipodal_pairs(list(AXIS_DIRECTIONS))
        assert pairs == [(0, 1), (2, 3), (4, 5)]

    def test_no_pairs_without_antipodes(self):
        assert antipodal_pairs([X, Y, Z]) == []

    def test_short_inputs(self):
        assert antipodal_pairs([]) == []
        assert antipodal_pairs([X]) == []

    def test_matches_double_loop_with_planted_antipodes(self, rng):
        base = [Direction.normalized(*rng.normal(size=3)) for _ in range(120)]
        planted = [d.antipode() for d in base[::4]]
        # just inside and just outside the tolerance of their base direction
        nudged = [
            Direction.normalized(-d.x + offset, -d.y, -d.z)
            for d, offset in zip(base[1::9], [0.5e-9, 2e-9, 5e-7, 2e-6] * 4)
        ]
        directions = base + planted + nudged + planted[:5]
        order = rng.permutation(len(directions))
        directions = [directions[k] for k in order]
        pairs = antipodal_pairs(directions)
        assert pairs == antipodal_pairs_by_double_loop(directions)
        assert len(pairs) >= len(planted)
