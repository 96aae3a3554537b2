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
of a property must not depend on the time frame (criterion 9).
"""

import copy
import functools
import operator
import warnings

import numpy as np
from hypothesis import given
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
)
from qprops.errors import ParseError, ValidationError
from qprops.histories import (
    family_from_generalized_context,
    gmh_check,
    gmh_residuals,
    history_operator,
    history_operators,
    history_probability,
)
from qprops.lattice import TimedProperty, class_born_probability, class_of, translate
from qprops.linop import (
    DensityOperator,
    HermitianOperator,
    Projector,
    check_projector_stack,
    evolution_operator,
    max_entry_norm,
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
