"""Property tests over generated inputs (Hypothesis; profile in conftest.py).

The stacked right-factor product must reproduce numpy's per-matrix ``@`` up
to rounding (its last bits depend on the BLAS kernel, see
``linop.stack_matmul``), and the spin searches must give the same answers
from the ``sphere_points`` array as from the ``sphere_grid`` tuple, with
residuals equal bit for bit to a plain-``@`` evaluation of the same formulas.
Every generalized context must be a consistent history family with the same
probabilities (criterion 5), and the parser must turn any mutated document
into a spec, a ``ParseError`` or a ``ValidationError``.  Translated contexts
and translated spin pairs must pass the projector and context checks that
their construction makes unnecessary, and the Born probability and the class
of a property must not depend on the time frame (criterion 9).  The pruned
ordered-product kernel must keep every product it does not drop bit for bit,
drop only products within its bound, and leave the GMH verdict, violations
and probabilities (up to GEMM rounding) as the unpruned gram gives them; and
``evolution_operator`` must be unitary without its removed re-check.
"""

import copy
import functools
import itertools
import json
import operator
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
from hypothesis import example, given
from hypothesis import strategies as st

from helpers import (
    random_density,
    random_hermitian,
    random_partition,
    random_projector,
    random_unitary,
    shared_basis_contexts,
)
from qprops.config import DEFAULT_TOLERANCES
from qprops.contexts import (
    Context,
    build_generalized_context,
    check_context_laws,
    composite_probability,
    translate_contexts,
)
from qprops.errors import ParseError, ValidationError
from qprops.histories import (
    HistoryFamily,
    decoherence_gram,
    family_from_generalized_context,
    gmh_check,
    gmh_residuals,
    history_operator,
    history_operators,
    history_probability,
)
from qprops.lattice import TimedProperty, class_born_probability, class_of, translate
from qprops.linop import (
    PRUNE_CEILING,
    DensityOperator,
    HermitianOperator,
    Projector,
    check_projector_stack,
    evolution_operator,
    max_entry_norm,
    ordered_products,
    stack_matmul,
)
from qprops.specio import SystemSpec, parse_system_spec
from qprops.spin import (
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    Direction,
    _grid_points,
    _search_residuals,
    _spin_pairs,
    compatible_directions,
    gmh_directions,
    griffiths_directions,
    sphere_grid,
    sphere_points,
    spin_projectors,
)

LEADING = st.sampled_from([(), (1,), (5,), (0,), (3, 2), (2, 4), (1, 2, 3)])
STACK_VIEW = st.sampled_from(["plain", "transposed", "every_other", "cropped"])
FACTOR_VIEW = st.sampled_from(["plain", "transposed", "dagger", "cropped"])


def random_matrices(seed, shape, complex_entries):
    gen = np.random.default_rng(seed)
    values = gen.normal(size=shape)
    if complex_entries:
        values = values + 1j * gen.normal(size=shape)
    return values


def stack_view(seed, lead, d, view, complex_entries):
    """A (*lead, d, d) stack, contiguous or as a strided view of a larger one."""
    if view == "every_other" and lead:
        shape = (2 * lead[0],) + lead[1:] + (d, d)
        return random_matrices(seed, shape, complex_entries)[::2]
    if view == "cropped":
        larger = random_matrices(seed, lead + (d + 1, d + 2), complex_entries)
        return larger[..., 1:, :d]
    stack = random_matrices(seed, lead + (d, d), complex_entries)
    return np.swapaxes(stack, -1, -2) if view == "transposed" else stack


def factor_view(seed, d, view, complex_entries):
    if view == "cropped":
        return random_matrices(seed, (d + 2, d + 1), complex_entries)[1 : d + 1, :d]
    b = random_matrices(seed, (d, d), complex_entries)
    if view == "transposed":
        return b.T
    return b.conj().T if view == "dagger" else b


@given(
    d=st.integers(1, 33),
    lead=LEADING,
    stack_kind=STACK_VIEW,
    factor_kind=FACTOR_VIEW,
    complex_stack=st.booleans(),
    complex_factor=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_stack_matmul_equals_per_matrix_products_up_to_rounding(
    d, lead, stack_kind, factor_kind, complex_stack, complex_factor, seed
):
    stack = stack_view(seed, lead, d, stack_kind, complex_stack)
    b = factor_view(seed + 1, d, factor_kind, complex_factor)
    got, want = stack_matmul(stack, b), stack @ b
    assert got.shape == want.shape and got.dtype == want.dtype
    # both lie within the dot-product rounding bound of the exact product
    bound = 4 * (d + 2) * np.finfo(float).eps * (np.abs(stack) @ np.abs(b))
    assert np.all(np.abs(got - want) <= bound)


def plain_residuals(mode, n2, points, rho, h, t0, t1, t2):
    """The search formulas with numpy's per-matrix ``@`` throughout."""
    u1 = evolution_operator(h, t1, t0).matrix
    u2 = evolution_operator(h, t2, t0).matrix
    moved = u1 @ _spin_pairs(points) @ u1.conj().T
    fixed = u2 @ _spin_pairs(n2.as_array()) @ u2.conj().T
    if mode == "commute":
        residuals = [np.abs(moved @ f - f @ moved).max(axis=(-2, -1)) for f in fixed]
        return np.max([r.max(axis=1) for r in residuals], axis=0)
    if mode == "gmh":
        histories = history_operators([moved, fixed])
        n = histories.shape[-3]
        weighted = (histories @ rho).reshape(-1, n, 4)
        flat = histories.reshape(-1, n, 4)
        return gmh_residuals(weighted @ np.swapaxes(flat.conj(), -1, -2)).max(axis=-1)
    product = moved[:, 0] @ rho @ moved[:, 1] @ fixed[0]
    return np.abs(np.trace(product, axis1=-2, axis2=-1).real)


def exact(directions):
    """Components as text, so -0.0 and 0.0 differ."""
    return [repr((n.x, n.y, n.z)) for n in directions]


VECTORS = st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(
    lambda v: sum(c * c for c in v) > 1e-2
)
FIELDS = st.one_of(
    st.just((0.0, 0.0, 0.0)), st.tuples(*[st.floats(-1.5, 1.5)] * 3)
)


@given(
    field=FIELDS,
    offset=st.floats(-0.5, 0.5),
    state=VECTORS,
    fixed=VECTORS,
    t1=st.floats(0.1, 2.0),
    gap=st.floats(0.1, 2.0),
    count=st.integers(0, 60),
    default_state=st.booleans(),
)
def test_searches_on_point_array_match_the_direction_grid(
    field, offset, state, fixed, t1, gap, count, default_state
):
    pauli = (PAULI_X, PAULI_Y, PAULI_Z)
    h = HermitianOperator(offset * np.eye(2) + sum(c * s for c, s in zip(field, pauli)))
    n0, n2 = Direction.normalized(*state), Direction.normalized(*fixed)
    t0, t2 = 0.0, t1 + gap
    rho = DensityOperator(spin_projectors(n0)[0].matrix)
    points, grid = sphere_points(count), sphere_grid(count)
    for mode in ("commute", "gmh", "griffiths"):
        residuals = _search_residuals(
            mode, n0, n2, points, rho, h, 1.0, t0, t1, t2, DEFAULT_TOLERANCES
        )
        want = plain_residuals(mode, n2, points, rho.matrix, h, t0, t1, t2)
        assert residuals.tobytes() == want.tobytes(), mode
    passed_rho = None if default_state else rho
    kept = compatible_directions(n2, points, h, 1.0, t1, t2, t0)
    assert exact(kept) == exact(compatible_directions(n2, grid, h, 1.0, t1, t2, t0))
    for search in (gmh_directions, griffiths_directions):
        kept = search(n0, n2, points, passed_rho, h, 1.0, t0, t1, t2)
        assert all(type(n) is Direction for n in kept)
        assert exact(kept) == exact(
            search(n0, n2, grid, passed_rho, h, 1.0, t0, t1, t2)
        )


def loop_history_operator(family, label):
    """Heisenberg atoms of one history multiplied one by one, latest leftmost."""
    product = None
    for atoms, ctx, choice in zip(family.heisenberg_atoms, family.contexts, label):
        atom = atoms[ctx.labels.index(choice)]
        product = atom if product is None else atom @ product
    return product


@given(
    d=st.integers(2, 6),
    n_times=st.integers(2, 3),
    pure=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_generalized_context_is_a_consistent_family(d, n_times, pure, seed):
    rng = np.random.default_rng(seed)
    h = random_hermitian(rng, d)
    gc = build_generalized_context(shared_basis_contexts(rng, d, n_times, h), 0.0, h)
    rho = random_density(rng, d, pure=pure)
    family = family_from_generalized_context(gc, rho)
    assert gmh_check(family).verdict
    for label in gc.label_tuples:
        history = family.history(label)
        composite = composite_probability(gc, gc.property([label]), rho)
        assert abs(history_probability(history) - composite) <= 1e-9
        want = loop_history_operator(family, label)
        assert history_operator(history).matrix.tobytes() == want.tobytes()


TIMES = st.floats(-50.0, 50.0)


@given(
    d=st.sampled_from([2, 6, 16, 32]),
    t=TIMES,
    t_to=TIMES,
    seed=st.integers(0, 2**32 - 1),
)
def test_translated_context_keeps_the_context_laws(d, t, t_to, seed):
    rng = np.random.default_rng(seed)
    basis = random_unitary(rng, d)
    atoms = [
        Projector(basis[:, group] @ basis[:, group].conj().T)
        for group in random_partition(rng, d)
    ]
    ctx = Context(t, atoms)
    moved = ctx.translated(t_to, random_hermitian(rng, d))
    check_projector_stack(moved, tols=DEFAULT_TOLERANCES)
    check_context_laws(moved, ctx.labels, tols=DEFAULT_TOLERANCES)


@given(
    rows=st.lists(VECTORS, min_size=1, max_size=20),
    stretch=st.lists(st.floats(-9e-13, 9e-13), min_size=20, max_size=20),
    field=FIELDS,
    t_from=TIMES,
    t_to=TIMES,
)
def test_translated_spin_pairs_keep_the_context_laws(rows, stretch, field, t_from, t_to):
    # rows up to 9e-13 off unit norm, all of which the grid check admits
    rows = np.array(rows)
    scale = (1.0 + np.array(stretch[: len(rows)])) / np.linalg.norm(rows, axis=1)
    points = _grid_points(rows * scale[:, None])
    h = HermitianOperator(sum(c * s for c, s in zip(field, (PAULI_X, PAULI_Y, PAULI_Z))))
    u = evolution_operator(h, t_from, t_to)
    for pairs in (_spin_pairs(points), u.transform(_spin_pairs(points))):
        check_projector_stack(pairs, tols=DEFAULT_TOLERANCES)
        for pair in pairs:
            check_context_laws(pair, ("+", "-"), tols=DEFAULT_TOLERANCES)


@given(
    d=st.integers(2, 6),
    t=st.floats(-10.0, 10.0),
    member_time=st.floats(-10.0, 10.0),
    refs=st.tuples(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0)),
    seed=st.integers(0, 2**32 - 1),
)
def test_probability_and_class_are_frame_invariant(d, t, member_time, refs, seed):
    rng = np.random.default_rng(seed)
    h = random_hermitian(rng, d)
    p = TimedProperty(random_projector(rng, d), t)
    rho = random_density(rng, d)  # the state at time t
    members = (p, translate(p, member_time, h))
    want = float(np.trace(rho.matrix @ p.projector.matrix).real)
    representatives = []
    for ref in refs:
        rho_ref = rho.evolved(evolution_operator(h, t, ref))
        classes = [class_of(member, ref, h) for member in members]
        for c in classes:
            assert abs(class_born_probability(rho_ref, c) - want) <= 1e-12
        representatives.append(classes[0].representative)
    moved = translate(TimedProperty(representatives[0], refs[0]), refs[1], h)
    assert max_entry_norm(moved.projector.matrix - representatives[1].matrix) <= 1e-12


@given(
    d=st.sampled_from([2, 6, 16, 32]),
    t_from=st.floats(-1e6, 1e6),
    t_to=st.floats(-1e6, 1e6),
    hbar=st.floats(1e-3, 1e3),
    seed=st.integers(0, 2**32 - 1),
)
def test_evolution_operator_is_unitary_by_construction(d, t_from, t_to, hbar, seed):
    # the guarantee that lets evolution_operator skip the U U^dag - I check
    h = random_hermitian(np.random.default_rng(seed), d)
    u = evolution_operator(h, t_from, t_to, hbar).matrix
    for product in (u @ u.conj().T, u.conj().T @ u):
        assert max_entry_norm(product - np.eye(d)) <= DEFAULT_TOLERANCES.unit


def independent_contexts(rng, d, n_times, parts):
    """Contexts at increasing times, each from its own random basis."""
    contexts = []
    for t in np.cumsum(rng.uniform(0.3, 1.2, size=n_times)):
        basis = random_unitary(rng, d)
        atoms = [
            Projector(basis[:, group] @ basis[:, group].conj().T)
            for group in random_partition(rng, d, parts)
        ]
        contexts.append(Context(float(t), atoms))
    return contexts


def drawn_contexts(d, n_times, shared, seed):
    """Shared-basis (compatible) or independent contexts, at most 4 atoms
    per time, so no unpruned grid exceeds 256 products."""
    rng = np.random.default_rng(seed)
    h = random_hermitian(rng, d)
    parts = int(rng.integers(1, min(d, 4) + 1))
    if shared:
        return rng, h, shared_basis_contexts(rng, d, n_times, h, parts=parts)
    return rng, h, independent_contexts(rng, d, n_times, parts)


def loop_products(stacks, later_left):
    """Every ordered product by per-matrix ``@``, in ``itertools.product`` order."""
    products = []
    for combo in itertools.product(*(range(len(s)) for s in stacks)):
        product = stacks[0][combo[0]]
        for stack, k in zip(stacks[1:], combo[1:]):
            product = stack[k] @ product if later_left else product @ stack[k]
        products.append(product)
    return products


PRUNED_CASE = dict(
    d=st.integers(2, 8),
    n_times=st.integers(2, 4),
    shared=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)


@given(later_left=st.booleans(), **PRUNED_CASE)
def test_pruned_products_match_the_unpruned_ones(d, n_times, shared, seed, later_left):
    _, h, contexts = drawn_contexts(d, n_times, shared, seed)
    _, stacks = translate_contexts(contexts, 0.0, h)
    tol = DEFAULT_TOLERANCES.proj
    kept, index = ordered_products(stacks, later_left=later_left, tol=tol)
    reference = loop_products(stacks, later_left)
    assert np.all(np.diff(index) > 0)
    for product, k in zip(kept, index.tolist()):
        assert product.tobytes() == reference[k].tobytes()
    for k in set(range(len(reference))) - set(index.tolist()):
        # within the bound of its dropped prefix
        assert np.linalg.norm(reference[k]) < min(tol, PRUNE_CEILING) / 2
    unpruned, every = ordered_products(stacks, later_left=later_left)
    assert every.tolist() == list(range(len(reference)))
    assert unpruned.tobytes() == np.stack(reference).tobytes()


@given(
    d=st.integers(2, 8),
    n_times=st.integers(2, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_pruned_composed_atoms_are_the_nonzero_products(d, n_times, seed):
    _, h, contexts = drawn_contexts(d, n_times, True, seed)
    gc = build_generalized_context(contexts, 0.0, h)
    cut = min(DEFAULT_TOLERANCES.proj, DEFAULT_TOLERANCES.herm, PRUNE_CEILING) / 2
    reference = loop_products(gc.translated_atoms, later_left=False)
    for (label, atom), product in zip(gc.composed_atoms.items(), reference):
        if gc._index[label] is None:
            assert atom.rank == 0 and not atom.matrix.any()
            assert np.linalg.norm(product) < cut
        else:
            assert atom.matrix.tobytes() == product.tobytes()
    assert sum(atom.rank for atom in gc.composed_atoms.values()) == d


def unpruned_gmh(family, tols):
    """Violation pairs and probabilities from the gram of every history, and
    per history how far another GEMM may round its weight.

    A weight is a dot product of the d^2 entries of C rho and of C, within
    2 (d^2 + 2) eps sum |(C rho)_k| |C_k| of the exact value, so a gram of
    another shape can differ by twice that.
    """
    grid = family.label_grid
    histories = history_operators(family.heisenberg_atoms)
    rho = family.initial_state.matrix
    gram = decoherence_gram(histories, rho)
    a, b = np.triu_indices(len(grid), 1)
    flagged = np.flatnonzero(gmh_residuals(gram) > tols.consist)
    violations = {(grid[a[k]], grid[b[k]]) for k in flagged}
    probabilities = {c: max(0.0, float(gram[k, k].real)) for k, c in enumerate(grid)}
    terms = np.abs(stack_matmul(histories, rho)) * np.abs(histories)
    k = histories.shape[-1] ** 2
    slack = 4 * (k + 2) * np.finfo(float).eps * terms.sum(axis=(-2, -1))
    return violations, probabilities, dict(zip(grid, slack.tolist()))


def low_rank_density(rng, d, rank):
    g = rng.normal(size=(d, rank)) + 1j * rng.normal(size=(d, rank))
    rho = g @ g.conj().T
    return DensityOperator(rho / np.trace(rho).real)


@given(rank=st.integers(1, 8), **PRUNED_CASE)
# kept weights 3 ulps apart: the smaller gram is a GEMM of another shape
@example(rank=5, d=5, n_times=2, shared=True, seed=1588042)
def test_pruned_gmh_check_matches_the_unpruned_gram(d, n_times, shared, seed, rank):
    rng, h, contexts = drawn_contexts(d, n_times, shared, seed)
    family = HistoryFamily(contexts, h, 0.0, low_rank_density(rng, d, min(rank, d)))
    report = gmh_check(family)
    violations, probabilities, slack = unpruned_gmh(family, DEFAULT_TOLERANCES)
    assert report.verdict == (not violations)
    assert {(a, b) for a, b, _ in report.violations} == violations
    assert list(report.probabilities) == list(probabilities)
    cut = min(DEFAULT_TOLERANCES.consist, PRUNE_CEILING) / 2
    for label, want in probabilities.items():
        got = report.probabilities[label]
        # a dropped history reads 0 and weighs below the square of its bound
        assert abs(got - want) <= slack[label] or (got == 0.0 and want < cut**2)
    assert report.verdict or not shared


def test_negative_consist_prunes_nothing(rng):
    h = random_hermitian(rng, 4)
    contexts = shared_basis_contexts(rng, 4, 3, h, parts=2)
    family = HistoryFamily(contexts, h, 0.0, random_density(rng, 4))
    every_pair = DEFAULT_TOLERANCES.updated(consist=-1.0)
    report = gmh_check(family, tols=every_pair)
    violations, probabilities, _ = unpruned_gmh(family, every_pair)
    assert len(report.violations) == len(violations) == 8 * 7 // 2
    assert report.probabilities == probabilities


def test_loose_projector_tolerance_keeps_every_nonzero_atom(rng):
    h = random_hermitian(rng, 6)
    contexts = shared_basis_contexts(rng, 6, 3, h, parts=3)
    loose = DEFAULT_TOLERANCES.updated(proj=10.0, herm=10.0)
    gc = build_generalized_context(contexts, 0.0, h, tols=loose)
    reference = loop_products(gc.translated_atoms, later_left=False)
    for (label, row), product in zip(gc._index.items(), reference):
        # kept exactly when of nonzero rank, whatever the tolerance
        assert (row is not None) == (np.trace(product).real > 0.5)
    assert sum(atom.rank for atom in gc.composed_atoms.values()) == 6


LARGE_GRID = """
import json, resource
import numpy as np
from helpers import random_density, random_hermitian, shared_basis_contexts
from qprops.contexts import build_generalized_context
from qprops.histories import family_from_generalized_context, gmh_check

rng = np.random.default_rng(32)
h = random_hermitian(rng, 32)
gc = build_generalized_context(shared_basis_contexts(rng, 32, 4, h, parts=9), 0.0, h)
report = gmh_check(family_from_generalized_context(gc, random_density(rng, 32)))
print(json.dumps({
    "verdict": report.verdict,
    "histories": len(report.probabilities),
    "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
}))
"""


def test_6561_atom_grid_at_dimension_32_stays_small():
    # unpruned, the gram alone held 6561^2 complex entries (about 1.7 GB peak)
    tests = Path(__file__).resolve().parent
    paths = [str(tests.parent / "src"), str(tests), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    child = subprocess.run(
        [sys.executable, "-c", LARGE_GRID],
        env=env, capture_output=True, text=True, timeout=300, check=True,
    )
    result = json.loads(child.stdout)
    assert result["verdict"] and result["histories"] == 9**4
    assert result["maxrss_kib"] < 300 * 1024


STATE = [[0.5, 0.5], [0.5, 0.5]]
VALID_DOCUMENTS = (
    {
        "dimension": 2,
        "hbar": 1.0,
        "hamiltonian": [[[0.0, 0.0], [0.3, 0.0]], [[0.3, 0.0], [0.0, 0.0]]],
        "initial_time": 0.0,
        "reference_time": 0.0,
        "initial_state": STATE,
        "contexts": [
            {"time": 1.0, "direction": [1.0, 0.0, 0.0], "labels": ["x+", "x-"]},
            {"time": 2.0, "direction": [0.0, 0.0, 1.0]},
        ],
    },
    {
        "dimension": 2,
        "initial_time": 0.0,
        "initial_state": STATE,
        "contexts": [
            {
                "time": 1.0,
                "atoms": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 1.0]]],
                "labels": ["up", "down"],
            },
            {
                "time": 2.0,
                "observable": [[1.0, 0.0], [0.0, -1.0]],
                "windows": [
                    {"label": "up", "lo": 0.0, "hi": float("inf")},
                    {"label": "down", "lo": -1.5, "hi": 0.0},
                ],
            },
        ],
    },
)
ODD_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.just(10**400),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=3),
    st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=3),
    st.sampled_from([[], {}, [[1.0, 0.0], [0.0]], [[1.0, 0.0], [0.0, 1.0]]]),
)


def _paths(node, prefix=()):
    """The key path of every node below the root of a nested document."""
    children = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ()
    )
    for key, child in children:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


@given(base=st.sampled_from(VALID_DOCUMENTS), data=st.data())
def test_parser_returns_a_spec_or_raises_a_spec_error(base, data):
    doc = copy.deepcopy(base)
    for _ in range(data.draw(st.integers(1, 3))):
        paths = list(_paths(doc))
        if not paths:
            break
        path = data.draw(st.sampled_from(paths))
        parent = functools.reduce(operator.getitem, path[:-1], doc)
        if data.draw(st.booleans()):
            del parent[path[-1]]
        else:
            # a copy, so later mutations leave the strategy's own lists alone
            parent[path[-1]] = copy.deepcopy(data.draw(ODD_VALUES))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            spec = parse_system_spec(doc)
        except (ParseError, ValidationError):
            return
    assert isinstance(spec, SystemSpec)
