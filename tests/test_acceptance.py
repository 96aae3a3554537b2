"""Acceptance suite: one test per release criterion, at pinned tolerances.

Each test prints a single ``[acceptance N] PASS/FAIL`` line (visible with
``pytest -s``) and then asserts, so the suite both reports and gates.
"""

import itertools
import json
import time

import numpy as np
import pytest
import yaml

from helpers import (
    KET_X_PLUS,
    outer,
    random_density,
    random_generalized_context,
    random_hermitian,
    random_projector,
)
from qprops.cli import main
from qprops.contexts import (
    build_generalized_context,
    composite_join,
    composite_meet,
    composite_probability,
)
from qprops.histories import (
    HistoryFamily,
    family_from_generalized_context,
    gmh_check,
    history_probability,
)
from qprops.lattice import (
    TimedProperty,
    class_born_probability,
    class_join,
    class_meet,
    class_negate,
    class_of,
)
from qprops.linop import (
    DensityOperator,
    HermitianOperator,
    Projector,
    alternating_projection_limit,
    evolution_operator,
    max_entry_norm,
    projector_from_span,
    subspace_intersection,
)
from qprops.spin import (
    Direction,
    coplanarity_defect,
    direction_context,
    gmh_directions,
    griffiths_directions,
    sphere_grid,
)
from qprops.specio import matrix_to_pairs

X_DIR = Direction(1.0, 0.0, 0.0)
Z_DIR = Direction(0.0, 0.0, 1.0)
H0 = HermitianOperator.zero(2)
RHO_X = DensityOperator(outer(KET_X_PLUS))


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"[acceptance {num:02d}] {'PASS' if ok else 'FAIL'} {detail}")


@pytest.fixture(scope="module")
def random_gcs():
    """100 generalized contexts from shared eigenbases, dims 2-6, random H."""
    rng = np.random.default_rng(515253)
    return [random_generalized_context(rng, t0=0.0) for _ in range(100)]


def test_criterion_1_repeated_measurement_weight():
    start = time.perf_counter()
    failures = []
    for t1 in (0.5, 1.0, 1.5):
        contexts = [direction_context(X_DIR, t1), direction_context(Z_DIR, 2.0)]
        family = HistoryFamily(contexts, H0, 0.0, RHO_X)
        pr = history_probability(family, ["+", "+"])[("+", "+")]
        if abs(pr - 0.5) > 1e-12:
            failures.append((t1, pr))
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 1.0
    _report(1, ok, f"x+ then z+ weight 1/2 at three times ({elapsed:.3f}s)")
    assert not failures, failures
    assert elapsed < 1.0


def test_criterion_2_commute_search_state_independent(tmp_path, capsys):
    rng = np.random.default_rng(61626)
    start = time.perf_counter()
    payloads = []
    for k in range(20):
        rho = random_density(rng, 2)
        doc = {
            "dimension": 2,
            "hbar": 1.0,
            "initial_time": 0.0,
            "initial_state": matrix_to_pairs(rho.matrix),
            "contexts": [{"time": 2.0, "direction": [0.0, 0.0, 1.0]}],
        }
        path = tmp_path / f"search_{k}.yaml"
        path.write_text(yaml.safe_dump(doc))
        code = main(["spin-search", str(path), "--mode", "commute", "--format", "json"])
        out = capsys.readouterr().out
        assert code == 0
        payloads.append(json.loads(out)["results"])
    elapsed = time.perf_counter() - start
    expected = [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]
    all_expected = all(p["accepted"] == expected for p in payloads)
    all_identical = all(p["accepted"] == payloads[0]["accepted"] for p in payloads)
    right_grid = all(p["grid_points"] == 2006 for p in payloads)
    ok = all_expected and all_identical and right_grid and elapsed < 5.0
    with capsys.disabled():
        _report(
            2,
            ok,
            f"commute search keeps exactly +z/-z for 20 states ({elapsed:.2f}s)",
        )
    assert all_expected and all_identical and right_grid
    assert elapsed < 5.0


def test_criterion_3_gmh_direction_set():
    grid = sphere_grid(2000)
    kept = gmh_directions(X_DIR, Z_DIR, grid)
    got = {(d.x, d.y, d.z) for d in kept}
    expected = {
        (1.0, 0.0, 0.0),
        (-1.0, 0.0, 0.0),
        (0.0, 0.0, 1.0),
        (0.0, 0.0, -1.0),
    }
    ok = got == expected
    _report(3, ok, f"pairwise-trace search keeps exactly +/-x and +/-z on {len(grid)} points")
    assert got == expected


def test_criterion_4_real_part_condition_matches_coplanarity():
    grid = sphere_grid(2000)
    kept = set(griffiths_directions(X_DIR, Z_DIR, grid))
    disagreements = []
    for d in grid:
        by_search = d in kept
        by_predicate = abs(coplanarity_defect(X_DIR, d, Z_DIR)) <= 1e-9
        if by_search != by_predicate:
            disagreements.append((d, by_search, by_predicate))
    ok = not disagreements and len(grid) >= 2000
    _report(4, ok, f"real-part search agrees with the coplanarity scalar on {len(grid)} points")
    assert not disagreements, disagreements[:5]


def test_criterion_5_multi_time_descriptions_are_consistent_histories(random_gcs):
    rng = np.random.default_rng(71727)
    failures = []
    for gc in random_gcs:
        rho = random_density(rng, gc.dim)
        family = family_from_generalized_context(gc, rho)
        check = gmh_check(family)
        if not check.verdict:
            failures.append((gc, "consistency", check.max_residual()))
            continue
        # a family built from the contexts alone forms every history and the
        # gram, so the theorem is not checked against the weights it reads
        direct = gmh_check(HistoryFamily(gc.contexts, gc.hamiltonian, gc.ref_time, rho, gc.hbar))
        if not direct.verdict:
            failures.append((gc, "gram consistency", direct.max_residual()))
            continue
        for choices in gc.label_tuples:
            lhs = check.probabilities[choices]
            rhs = composite_probability(gc, gc.property([choices]), rho)
            if abs(lhs - rhs) > 1e-10:
                failures.append((gc, choices, abs(lhs - rhs)))
            gram = direct.probabilities[choices]
            if abs(gram - rhs) > 1e-10:
                failures.append((gc, ("gram", choices), abs(gram - rhs)))
    ok = not failures
    _report(5, ok, f"100 random multi-time descriptions double as consistent families")
    assert not failures, failures[:3]


def test_criterion_6_probability_axioms(random_gcs):
    rng = np.random.default_rng(81828)
    failures = []
    for gc in random_gcs:
        tuples = list(gc.label_tuples)
        for _ in range(10):
            rho = random_density(rng, gc.dim)
            values = {
                t: composite_probability(gc, gc.property([t]), rho) for t in tuples
            }
            if any(v < 0.0 for v in values.values()):
                failures.append((gc, "positivity"))
            total = composite_probability(gc, gc.property(gc.label_tuples), rho)
            if abs(total - 1.0) > 1e-10:
                failures.append((gc, "normalization", total))
            for _ in range(5):
                k = int(rng.integers(0, len(tuples) + 1))
                chosen = [tuples[i] for i in rng.permutation(len(tuples))[:k]]
                split = int(rng.integers(0, k + 1)) if k else 0
                left, right = chosen[:split], chosen[split:]
                whole = composite_probability(gc, gc.property(chosen), rho)
                parts = composite_probability(
                    gc, gc.property(left), rho
                ) + composite_probability(gc, gc.property(right), rho)
                if abs(whole - parts) > 1e-10:
                    failures.append((gc, "additivity", abs(whole - parts)))
    ok = not failures
    _report(6, ok, "positivity, normalization, additivity on 1000 state draws")
    assert not failures, failures[:3]


def test_criterion_7_meet_routes_and_lattice_laws():
    rng = np.random.default_rng(91929)
    failures = []
    for _ in range(200):
        dim = int(rng.integers(2, 9))
        p = random_projector(rng, dim)
        q = random_projector(rng, dim)
        limit = alternating_projection_limit(p, q)
        oracle = subspace_intersection(p, q)
        gap = max_entry_norm(limit.matrix - oracle.matrix)
        if gap > 1e-8:
            failures.append(("meet-route", dim, gap))

    def close(c1, c2):
        return max_entry_norm(c1.representative.matrix - c2.representative.matrix) <= 1e-8

    for _ in range(100):
        dim = int(rng.integers(2, 7))
        h = random_hermitian(rng, dim)
        a, b, c = (
            class_of(TimedProperty(random_projector(rng, dim), t), 0.0, h)
            for t in (0.4, 1.1, 1.8)
        )
        laws = {
            "meet-idempotent": close(class_meet(a, a), a),
            "join-idempotent": close(class_join(a, a), a),
            "meet-commutative": close(class_meet(a, b), class_meet(b, a)),
            "join-commutative": close(class_join(a, b), class_join(b, a)),
            "meet-associative": close(
                class_meet(class_meet(a, b), c), class_meet(a, class_meet(b, c))
            ),
            "join-associative": close(
                class_join(class_join(a, b), c), class_join(a, class_join(b, c))
            ),
            "absorb-meet": close(class_meet(a, class_join(a, b)), a),
            "absorb-join": close(class_join(a, class_meet(a, b)), a),
            "demorgan-meet": close(
                class_negate(class_meet(a, b)),
                class_join(class_negate(a), class_negate(b)),
            ),
            "demorgan-join": close(
                class_negate(class_join(a, b)),
                class_meet(class_negate(a), class_negate(b)),
            ),
        }
        for name, holds in laws.items():
            if not holds:
                failures.append((name, dim))
    ok = not failures
    _report(7, ok, "meet routes agree on 200 pairs; lattice laws on 100 triples")
    assert not failures, failures[:5]


def test_criterion_8_distributivity_boundary():
    a = class_of(TimedProperty(Projector(np.diag([1.0, 0.0])), 1.0), 0.0, H0)
    b = class_of(
        TimedProperty(projector_from_span([np.array([1.0, 1.0]) / np.sqrt(2)]), 1.0),
        0.0,
        H0,
    )
    c = class_of(
        TimedProperty(projector_from_span([np.array([1.0, -1.0]) / np.sqrt(2)]), 1.0),
        0.0,
        H0,
    )
    lhs = class_meet(a, class_join(b, c))
    rhs = class_join(class_meet(a, b), class_meet(a, c))
    residual = float(
        np.linalg.norm(lhs.representative.matrix - rhs.representative.matrix, 2)
    )
    witness_ok = residual >= 0.9 and max_entry_norm(
        lhs.representative.matrix - a.representative.matrix
    ) < 1e-10 and rhs.representative.rank == 0

    gc = build_generalized_context(
        [direction_context(Z_DIR, 1.0, ("z+", "z-")), direction_context(Z_DIR, 2.0, ("z+", "z-"))],
        0.0,
        H0,
    )
    tuples = list(gc.label_tuples)
    subsets = [
        frozenset(tuples[i] for i in range(len(tuples)) if mask & (1 << i))
        for mask in range(2 ** len(tuples))
    ]
    props = {sel: gc.property(sel) for sel in subsets}
    grid_failures = 0
    for sa, sb, sc in itertools.product(subsets, repeat=3):
        lhs_set = composite_meet(props[sa], composite_join(props[sb], props[sc])).selected
        rhs_set = composite_join(
            composite_meet(props[sa], props[sb]), composite_meet(props[sa], props[sc])
        ).selected
        if lhs_set != rhs_set:
            grid_failures += 1
    ok = witness_ok and grid_failures == 0
    _report(
        8,
        ok,
        f"class triple breaks distributivity (gap {residual:.3f}); "
        f"all {len(subsets)**3} composite triples satisfy it",
    )
    assert witness_ok
    assert grid_failures == 0


def test_criterion_9_probability_is_a_class_invariant():
    rng = np.random.default_rng(101112)
    failures = []
    for _ in range(100):
        dim = int(rng.integers(2, 7))
        h = random_hermitian(rng, dim)
        p = random_projector(rng, dim)
        rho_t = random_density(rng, dim)
        t, t_prime = (float(x) for x in rng.uniform(-2.0, 2.0, size=2))
        pr_t = class_born_probability(rho_t, class_of(TimedProperty(p, t), t, h))
        u = evolution_operator(h, t, t_prime)
        rho_tp = rho_t.evolved(u)
        pr_tp = class_born_probability(
            rho_tp, class_of(TimedProperty(p, t), t_prime, h)
        )
        if abs(pr_t - pr_tp) > 1e-12:
            failures.append((dim, abs(pr_t - pr_tp)))
    ok = not failures
    _report(9, ok, "Born value agrees across time frames on 100 draws")
    assert not failures, failures[:5]
