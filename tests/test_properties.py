"""Property tests over generated inputs (Hypothesis; profile in conftest.py).

The stacked right-factor product must reproduce numpy's per-matrix ``@`` up
to rounding (its last bits depend on the BLAS kernel, see
``linop.stack_matmul``), and the spin searches must give the same answers
from the ``sphere_points`` array as from the ``sphere_grid`` tuple, with
residuals equal bit for bit to a plain-``@`` evaluation of the same forms
over the Pauli basis, and within 1e-14 of the per-pair formulas on the
stack of translated pairs (with the same verdicts away from the tolerance).
Every generalized context must be a consistent history family with the same
probabilities (criterion 5), and the parser must turn any mutated document
into a spec, a ``ParseError`` or a ``ValidationError``.  Translated contexts
and translated spin pairs must pass the projector and context checks that
their construction makes unnecessary, ``Context`` must give a per-pair
reference's law residual, violations and message, and the Born probability and the class
of a property must not depend on the time frame (criterion 9).  The pruned
ordered-product kernel must keep every product it does not drop bit for bit,
drop only products within its bound, and leave the GMH verdict, violations
and probabilities (up to GEMM rounding) as the unpruned gram gives them;
every history weight must equal the per-history formula bit for bit, or read
0 where its history was dropped; and
``evolution_operator`` must be unitary without its removed re-check.  Every
near-commuting family that passes the commutation check must be accepted,
with the product grid's nonzero-rank labels and joint atoms within their
certified gap of the products, and the class lattice must keep its laws
(criterion 7) and its non-distributivity witness (criterion 8) on generated
classes.  The eigenbasis certificate must bound every pairwise residual and
leave the failing pairs of the broadcast check as they are, the last-atom
certificate must bound every gram entry between different last atoms, and
``gmh_check`` in last-atom blocks must give the full gram's answers, and
at any tolerances an accepted generalized context must be a context whose
atoms lie within 1/4 of the translated products.  The
history bound of a context-built family must cover every off-diagonal entry
of its unpruned gram, so that the report read from the certificate has the
gram's verdict and violations and probabilities within the bound, and its f
and rounding terms must each cover the gram of the atoms of a basis off
unitary or exact.  Every projector and state the package derives without
checking it again must pass the checks it skips, and the CLI must keep its
exit and report contract on drawn specs and command lines.  The
real-part check must read the gmh scan: pass wherever gmh passes, flag a
subset of its pairs, give its probabilities bit for bit, and on two atoms at
each of two times keep the verdict of the one trace it used to read.
"""

import contextlib
import copy
import functools
import io
import itertools
import json
import math
import operator
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml
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
from qprops import cli
from qprops import contexts as contexts_module
from qprops import histories as histories_module
from qprops.config import DEFAULT_TOLERANCES
from qprops.contexts import (
    Context,
    GeneralizedContext,
    _commutation_failures,
    _joint_atoms,
    _JointBasis,
    build_generalized_context,
    composite_probability,
    property_projector,
    translate_contexts,
)
from qprops.errors import (
    CompletenessViolation,
    ContextViolation,
    ExclusivityViolation,
    IncompatibleContexts,
    ParseError,
    ValidationError,
)
from qprops.histories import (
    HistoryFamily,
    _pair_magnitudes,
    decoherence_gram,
    family_from_generalized_context,
    gmh_check,
    griffiths_check,
    history_probability,
)
from qprops.lattice import (
    TimedProperty,
    class_born_probability,
    class_implies,
    class_join,
    class_meet,
    class_negate,
    class_of,
    translate,
)
from qprops.linop import (
    PRUNE_CEILING,
    DensityOperator,
    HermitianOperator,
    Projector,
    alternating_projection_limit,
    commutator_residuals,
    commutators,
    evolution_operator,
    max_entry_norm,
    ordered_products,
    projector_from_span,
    stack_matmul,
    subspace_intersection,
)
from qprops.specio import SystemSpec, parse_system_spec
from qprops.spin import (
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    _UNIT_NORM_TOL,
    Direction,
    _grid_points,
    _search_residuals,
    _spin_pairs,
    compatible_directions,
    consistency_traces,
    direction_context,
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


BASIS = np.stack([np.eye(2, dtype=complex), PAULI_X, PAULI_Y, PAULI_Z])
PAIR_SIGNS = np.array([[1.0, 1.0, 1.0, 1.0], [1.0, -1.0, -1.0, -1.0]])


def complex_forms(weights, coefficients):
    """Real weights times complex coefficients on their float view, by ``@``."""
    flat = coefficients.reshape(len(coefficients), -1).view(float)
    return (weights @ flat).view(complex)


def plain_residuals(mode, n2, points, rho, h, t0, t1, t2):
    """The search forms over (I, sigma_x, sigma_y, sigma_z), each product by
    numpy's per-matrix ``@``."""
    u1 = evolution_operator(h, t1, t0).matrix
    u2 = evolution_operator(h, t2, t0).matrix
    basis = u1 @ BASIS @ u1.conj().T
    fixed = u2 @ _spin_pairs(n2.as_array()) @ u2.conj().T
    count = len(points)
    x = np.concatenate([np.full((count, 1), 0.5), points * 0.5], axis=1)
    signs = PAIR_SIGNS.T
    if mode == "commute":
        brackets = basis[:, None] @ fixed - fixed @ basis[:, None]
        form = signs[:, :, None, None, None] * brackets[:, None]
        return np.abs(complex_forms(x, form)).max(axis=1)
    # [j, l, b]: S_l- Tr(B_j rho B_l F_b)
    product = basis[:, None, None] @ rho @ basis[None, :, None] @ fixed
    form = np.trace(product, axis1=-2, axis2=-1) * signs[:, 1, None]
    # [l, (b, re/im), n], from the transposed product
    weights = np.ascontiguousarray(x.T)
    rows = (form.reshape(4, -1).view(float).T @ weights).reshape(4, 4, count)
    # [(b, re/im), n]: q_b = Tr(P_+ rho P_- F_b), summed over l in order
    forms = weights[0] * rows[0] + weights[1] * rows[1]
    forms = forms + weights[2] * rows[2]
    forms = forms + weights[3] * rows[3]
    if mode == "gmh":
        return np.abs(np.ascontiguousarray(forms.T).view(complex)).max(axis=1)
    return np.abs(forms[0])


def einsum_residuals(mode, n2, points, rho, h, t0, t1, t2):
    """The gmh or griffiths forms in their earlier order, an (N, 4) @ (4, 16)
    GEMM then a row-wise ``einsum`` with x, and per point the sum of the
    magnitudes of their terms, which bounds the rounding of either order."""
    u1 = evolution_operator(h, t1, t0).matrix
    u2 = evolution_operator(h, t2, t0).matrix
    basis = u1 @ BASIS @ u1.conj().T
    fixed = u2 @ _spin_pairs(n2.as_array()) @ u2.conj().T
    count = len(points)
    x = np.concatenate([np.full((count, 1), 0.5), points * 0.5], axis=1)
    product = basis[:, None, None] @ rho @ basis[None, :, None] @ fixed
    form = np.trace(product, axis1=-2, axis2=-1) * PAIR_SIGNS.T[:, 1, None]
    rows = complex_forms(x, form).view(float).reshape(count, 4, 4)
    forms = np.einsum("nl,nlk->nk", x, rows)
    terms = np.abs(x) @ np.abs(form.reshape(4, -1).view(float))
    scale = np.einsum("nl,nlk->nk", np.abs(x), terms.reshape(count, 4, 4)).max(axis=1)
    if mode == "gmh":
        return np.abs(forms.view(complex)).max(axis=1), scale
    return np.abs(forms[:, 0]), scale


def pair_stack_residuals(mode, n2, points, rho, h, t0, t1, t2):
    """The per-pair formulas on the (N, 2, 2, 2) stack of translated pairs,
    per-matrix ``@`` throughout: the reference for the forms."""
    u1 = evolution_operator(h, t1, t0).matrix
    u2 = evolution_operator(h, t2, t0).matrix
    moved = u1 @ _spin_pairs(points) @ u1.conj().T
    fixed = u2 @ _spin_pairs(n2.as_array()) @ u2.conj().T
    if mode == "commute":
        residuals = [np.abs(moved @ f - f @ moved).max(axis=(-2, -1)) for f in fixed]
        return np.max([r.max(axis=1) for r in residuals], axis=0)
    if mode == "gmh":
        histories = ordered_products([moved, fixed])[0]
        n = histories.shape[-3]
        weighted = (histories @ rho).reshape(-1, n, 4)
        flat = histories.reshape(-1, n, 4)
        gram = weighted @ np.swapaxes(flat.conj(), -1, -2)
        return _pair_magnitudes(gram, *np.triu_indices(n, 1)).max(axis=-1)
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
SEARCH_CASE = dict(
    field=FIELDS,
    offset=st.floats(-0.5, 0.5),
    state=VECTORS,
    fixed=VECTORS,
    t1=st.floats(0.1, 2.0),
    gap=st.floats(0.1, 2.0),
)


def search_case(field, offset, state, fixed, t1, gap):
    pauli = (PAULI_X, PAULI_Y, PAULI_Z)
    h = HermitianOperator(offset * np.eye(2) + sum(c * s for c, s in zip(field, pauli)))
    n0, n2 = Direction.normalized(*state), Direction.normalized(*fixed)
    rho = DensityOperator(spin_projectors(n0)[0].matrix)
    return h, n0, n2, rho, 0.0, t1, t1 + gap


@given(count=st.integers(0, 60), default_state=st.booleans(), **SEARCH_CASE)
def test_searches_on_point_array_match_the_direction_grid(count, default_state, **case):
    h, n0, n2, rho, t0, t1, t2 = search_case(**case)
    points, grid = sphere_points(count), sphere_grid(count)
    for mode in ("commute", "gmh", "griffiths"):
        residuals = _search_residuals(
            mode, n0, n2, points, rho, h, 1.0, t0, t1, t2, DEFAULT_TOLERANCES
        )
        want = plain_residuals(mode, n2, points, rho.matrix, h, t0, t1, t2)
        assert residuals.tobytes() == want.tobytes(), mode
        if mode != "commute":
            # the reordered sum stays within a few rounding units of its terms
            # of the earlier order, under every BLAS kernel
            before, scale = einsum_residuals(mode, n2, points, rho.matrix, h, t0, t1, t2)
            assert np.all(np.abs(residuals - before) <= 16 * np.finfo(float).eps * scale)
    passed_rho = None if default_state else rho
    kept = compatible_directions(n2, points, h, 1.0, t1, t2, t0)
    assert exact(kept) == exact(compatible_directions(n2, grid, h, 1.0, t1, t2, t0))
    for search in (gmh_directions, griffiths_directions):
        kept = search(n0, n2, points, passed_rho, h, 1.0, t0, t1, t2)
        assert all(type(n) is Direction for n in kept)
        assert exact(kept) == exact(
            search(n0, n2, grid, passed_rho, h, 1.0, t0, t1, t2)
        )


@given(count=st.integers(0, 2000), **SEARCH_CASE)
def test_search_forms_match_the_pair_stack_formulas(count, **case):
    h, n0, n2, rho, t0, t1, t2 = search_case(**case)
    points = sphere_points(count)
    tols = DEFAULT_TOLERANCES
    limits = {"commute": tols.commute, "gmh": tols.consist, "griffiths": tols.consist}
    for mode, tol in limits.items():
        got = _search_residuals(mode, n0, n2, points, rho, h, 1.0, t0, t1, t2, tols)
        want = pair_stack_residuals(mode, n2, points, rho.matrix, h, t0, t1, t2)
        assert np.max(np.abs(got - want)) <= 1e-14, mode
        clear = np.abs(want - tol) > 1e-12
        assert np.array_equal((got <= tol)[clear], (want <= tol)[clear]), mode


# grid rows and n2 scaled by up to this much off unit norm, still accepted
UNIT_EDGE = 0.999 * _UNIT_NORM_TOL


@given(
    count=st.integers(0, 500),
    row_seed=st.integers(0, 2**32 - 1),
    fixed_scale=st.floats(-UNIT_EDGE, UNIT_EDGE),
    **SEARCH_CASE,
)
@example(
    count=0,
    row_seed=0,
    fixed_scale=UNIT_EDGE,
    field=(0.0, 0.0, 0.0),
    offset=0.0,
    state=(1.0, 0.0, 0.0),
    fixed=(0.0, 0.0, 1.0),
    t1=1.0,
    gap=1.0,
)
def test_search_forms_hold_their_bound_at_the_unit_norm_edge(
    count, row_seed, fixed_scale, **case
):
    h, n0, n2, rho, t0, t1, t2 = search_case(**case)
    n2 = Direction(*(n2.as_array() * (1.0 + fixed_scale)).tolist())
    points = sphere_points(count)
    offsets = np.random.default_rng(row_seed).uniform(-1.0, 1.0, len(points))
    points = _grid_points(points * (1.0 + UNIT_EDGE * offsets)[:, None])
    # ``_search_residuals``: the gmh form is within E of the gram residual,
    # the other forms sum the per-pair terms in another order
    norms = np.linalg.norm(points, axis=1)
    edge = abs(1.0 - float(n2.as_array() @ n2.as_array())) / 4 * ((1 + norms) / 2) ** 2
    tols = DEFAULT_TOLERANCES
    limits = {"commute": tols.commute, "gmh": tols.consist, "griffiths": tols.consist}
    for mode, tol in limits.items():
        got = _search_residuals(mode, n0, n2, points, rho, h, 1.0, t0, t1, t2, tols)
        want = pair_stack_residuals(mode, n2, points, rho.matrix, h, t0, t1, t2)
        bound = (edge if mode == "gmh" else 0.0) + 1e-14
        assert np.all(np.abs(got - want) <= bound), mode
        clear = np.abs(want - tol) > bound
        assert np.array_equal((got <= tol)[clear], (want <= tol)[clear]), mode


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
    # the gram route: a family built from the contexts alone
    direct = gmh_check(HistoryFamily(gc.contexts, gc.hamiltonian, gc.ref_time, rho, gc.hbar))
    assert direct.verdict
    weights = history_probability(family)
    histories, _ = ordered_products(family.heisenberg_atoms)
    for label, history in zip(family.label_grid, histories):
        composite = composite_probability(gc, gc.property([label]), rho)
        assert abs(weights[label] - composite) <= 1e-9
        assert abs(direct.probabilities[label] - composite) <= 1e-9
        assert history.tobytes() == loop_history_operator(family, label).tobytes()


def loop_weight(family, label):
    """A history's weight by the per-history formula: Tr(C rho C^dag) of
    ``loop_history_operator``, a negative rounding read as 0."""
    c = loop_history_operator(family, label)
    value = float(np.trace(c @ family.initial_state.matrix @ c.conj().T).real)
    return max(0.0, value)


@given(
    d=st.integers(2, 8),
    n_times=st.integers(1, 4),
    kind=st.sampled_from(["commuting", "near-commuting", "independent"]),
    turn_exponent=st.integers(-12, -3),
    consist=st.sampled_from([DEFAULT_TOLERANCES.consist, 0.0]),
    pure=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_history_weights_match_the_per_history_formula(
    d, n_times, kind, turn_exponent, consist, pure, seed
):
    # every kept weight equals the per-history formula bit for bit; a
    # pruned one reads 0 and weighs below the square of the pruning bound
    rng = np.random.default_rng(seed)
    parts = int(rng.integers(1, min(d, 4) + 1))
    h = random_hermitian(rng, d)
    if kind == "commuting":
        contexts = shared_basis_contexts(rng, d, n_times, h, parts=parts)
    elif kind == "near-commuting":
        h, contexts = near_commuting_contexts(
            rng, d, n_times, parts, 10.0**turn_exponent, 0.0
        )
    else:
        contexts = independent_contexts(rng, d, n_times, parts)
    family = HistoryFamily(contexts, h, 0.0, random_density(rng, d, pure=pure))
    tols = DEFAULT_TOLERANCES.updated(consist=consist)
    cut = min(consist, PRUNE_CEILING) / 2
    weights = history_probability(family, tols=tols)
    assert list(weights) == list(family.label_grid)
    for label, got in weights.items():
        want = loop_weight(family, label)
        assert got == want or (got == 0.0 and want < cut**2), (label, got, want)
        assert history_probability(family, label, tols=tols) == {label: got}


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
    for atom in moved:
        Projector(atom, tols=DEFAULT_TOLERANCES)
    Context(t_to, [Projector(atom) for atom in moved], ctx.labels, tols=DEFAULT_TOLERANCES)


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
        for pair in pairs:
            for atom in pair:
                Projector(atom, tols=DEFAULT_TOLERANCES)
            Context(t_to, [Projector(atom) for atom in pair], ("+", "-"), tols=DEFAULT_TOLERANCES)


def _per_pair_context_laws(atoms, labels, tols):
    """The context laws of a (k, d, d) family, one product per atom pair:
    the error type, violations and message of a failed check, or the law
    residual of a passed one."""
    pairs = [
        (i, j, max_entry_norm(atoms[i] @ atoms[j]))
        for i, j in itertools.combinations(range(len(atoms)), 2)
    ]
    exclusivity = [pair for pair in pairs if not pair[2] <= tols.proj]
    if exclusivity:
        i, j, worst = max(exclusivity, key=lambda v: v[2])
        return (
            ExclusivityViolation,
            tuple(exclusivity),
            f"atoms {labels[i]!r} and {labels[j]!r} have non-zero product "
            f"(residual {worst:.3e}); {len(exclusivity)} offending pair(s) in total",
        )
    residual = max_entry_norm(atoms.sum(axis=0) - np.eye(atoms.shape[-1]))
    if not residual <= tols.proj:
        return (
            CompletenessViolation,
            (residual,),
            f"atom sum deviates from identity by {residual:.3e}",
        )
    squares = max_entry_norm(atoms @ atoms - atoms)
    hermiticity = max_entry_norm(atoms - np.swapaxes(atoms, -1, -2).conj())
    return max(residual, squares, hermiticity, *(pair[2] for pair in pairs))


@given(
    d=st.integers(2, 32),
    k=st.integers(1, 9),
    tilt=st.sampled_from([0.0, 1e-12, 1e-9, 1e-6]),
    drop=st.booleans(),
    proj=st.sampled_from([1e-10, 1e-8]),
    seed=st.integers(0, 2**32 - 1),
)
def test_context_laws_match_the_per_pair_reference(d, k, tilt, drop, proj, seed):
    # about half the atoms turned by exp(-i tilt H) each, so that at a
    # large enough tilt some pairs fail; dropping an atom breaks completeness
    rng = np.random.default_rng(seed)
    basis = random_unitary(rng, d)
    stack = np.stack(
        [basis[:, group] @ basis[:, group].conj().T for group in random_partition(rng, d, min(k, d))]
    )
    for i in np.flatnonzero(rng.random(len(stack)) < 0.5):
        stack[i] = evolution_operator(random_hermitian(rng, d), 0.0, tilt).transform(stack[i])
    if drop and len(stack) > 1:
        stack = stack[:-1]
    labels = [f"a{i}" for i in range(len(stack))]
    tols = DEFAULT_TOLERANCES.updated(proj=proj)
    try:
        ctx = Context(1.0, [Projector(atom, tols=tols) for atom in stack], labels, tols=tols)
    except ContextViolation as err:
        got = (type(err), err.violations, str(err))
    else:
        got = ctx.law_residual
    assert got == _per_pair_context_laws(stack, labels, tols)


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


@given(
    d=st.integers(2, 8),
    shared=st.integers(0, 3),
    t=st.floats(-10.0, 10.0),
    t_to=st.floats(-10.0, 10.0),
    pure=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_derived_operators_pass_the_checks_they_skip(d, shared, t, t_to, pure, seed):
    # the guarantees that let derived projectors and states skip their checks
    rng = np.random.default_rng(seed)
    h = random_hermitian(rng, d)
    common = random_unitary(rng, d)[:, : min(shared, d - 1)]

    def drawn_projector():
        extra = random_unitary(rng, d)[:, : int(rng.integers(1, d - common.shape[1] + 1))]
        return projector_from_span(np.concatenate([common, extra], axis=1).T)

    p, q = drawn_projector(), drawn_projector()
    gc = build_generalized_context(shared_basis_contexts(rng, d, 2, h), 0.0, h)
    selected = [label for label in gc.label_tuples if rng.random() < 0.5]
    derived = [
        p,
        q,
        translate(TimedProperty(p, t), t_to, h).projector,
        p.complement(),
        subspace_intersection(p, q),
        alternating_projection_limit(p, q),
        property_projector(gc.property(selected)),
        *gc.contexts[0].atoms,
    ]
    for op in derived:
        Projector(op.matrix, tols=DEFAULT_TOLERANCES)
    rho = random_density(rng, d, pure=pure).evolved(evolution_operator(h, t, t_to))
    DensityOperator(rho.matrix, tols=DEFAULT_TOLERANCES)


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


@given(**PRUNED_CASE)
def test_pruned_products_match_the_unpruned_ones(d, n_times, shared, seed):
    _, h, contexts = drawn_contexts(d, n_times, shared, seed)
    _, stacks = translate_contexts(contexts, 0.0, h)
    tol = DEFAULT_TOLERANCES.proj
    kept, index = ordered_products(stacks, tol=tol)
    reference = loop_products(stacks, later_left=True)
    assert np.all(np.diff(index) > 0)
    for product, k in zip(kept, index.tolist()):
        assert product.tobytes() == reference[k].tobytes()
    for k in set(range(len(reference))) - set(index.tolist()):
        # within the bound of its dropped prefix
        assert np.linalg.norm(reference[k]) < min(tol, PRUNE_CEILING) / 2
    unpruned, every = ordered_products(stacks)
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
    bound = _joint_atoms(gc.translated_atoms).gap
    for (label, atom), product in zip(gc.composed_atoms.items(), reference):
        # kept exactly when the product has nonzero rank
        if gc._index[label] is None:
            assert atom.rank == 0 and not atom.matrix.any()
            assert np.linalg.norm(product) < cut
            assert np.linalg.norm(product, 2) <= bound
        else:
            assert atom.rank == round(np.trace(product).real) > 0
            assert np.linalg.norm(atom.matrix - product, 2) <= bound
    assert sum(atom.rank for atom in gc.composed_atoms.values()) == d


def unpruned_gmh(family, tols):
    """Violation pairs and probabilities from the gram of every history, and
    per history how far another GEMM may round its weight.

    A weight is a dot product of the d^2 entries of C rho and of C, within
    2 (d^2 + 2) eps sum |(C rho)_k| |C_k| of the exact value, so a gram of
    another shape can differ by twice that.
    """
    grid = family.label_grid
    histories = ordered_products(family.heisenberg_atoms)[0]
    rho = family.initial_state.matrix
    gram = decoherence_gram(histories, rho)
    a, b = np.triu_indices(len(grid), 1)
    flagged = np.flatnonzero(_pair_magnitudes(gram, a, b) > tols.consist)
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
import json
import numpy as np
from helpers import random_density, random_hermitian, shared_basis_contexts
from qprops.contexts import build_generalized_context
from qprops.histories import HistoryFamily, family_from_generalized_context, gmh_check

rng = np.random.default_rng(32)
h = random_hermitian(rng, 32)
gc = build_generalized_context(shared_basis_contexts(rng, 32, 4, h, parts=9), 0.0, h)
rho = random_density(rng, 32)
report = gmh_check(family_from_generalized_context(gc, rho))
# built from the contexts alone, the family takes the pruned gram
direct = gmh_check(HistoryFamily(gc.contexts, h, 0.0, rho))
# the child's own peak: ru_maxrss would start at the parent's high-water mark
with open("/proc/self/status") as status:
    peak = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
print(json.dumps({
    "verdict": report.verdict,
    "histories": len(report.probabilities),
    "direct_verdict": direct.verdict,
    "direct_histories": len(direct.probabilities),
    "peak_kib": peak,
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
    assert result["direct_verdict"] and result["direct_histories"] == 9**4
    assert result["peak_kib"] < 300 * 1024


def near_commuting_contexts(rng, d, n_times, parts, turn, bump):
    """Contexts whose atoms, translated to t0 = 0, commute only to about
    ``turn``, with context laws that hold only to about ``bump``.

    One shared basis is turned by exp(-i s K) per time, with |K| = 1 and
    |s| < ``turn`` / 2, so that every commutator is within about ``turn``
    (|[P, [K, Q]]| <= |K| for projectors P, Q); each atom gets a Hermitian
    perturbation of max-entry size ``bump`` and is pushed forward to its own
    time.
    """
    h = random_hermitian(rng, d)
    k = random_hermitian(rng, d).matrix
    generator = HermitianOperator(k / np.linalg.norm(k, 2))
    basis = random_unitary(rng, d)
    contexts = []
    for t in np.cumsum(rng.uniform(0.3, 1.2, size=n_times)):
        turned = evolution_operator(generator, 0.0, turn * rng.uniform(-0.45, 0.45)).matrix
        push = evolution_operator(h, 0.0, float(t)).matrix
        atoms = []
        for group in random_partition(rng, d, parts):
            block = turned @ basis[:, group]
            noise = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            noise = noise + noise.conj().T
            atom = block @ block.conj().T + bump * noise / max_entry_norm(noise)
            atoms.append(Projector(push @ atom @ push.conj().T))
        contexts.append(Context(float(t), atoms))
    return h, contexts


@given(
    d=st.integers(2, 16),
    n_times=st.integers(2, 4),
    turn=st.sampled_from([1.0, 3.0]).flatmap(
        lambda m: st.integers(-16, -9).map(lambda x: m * 10.0**x)
    ),
    bump_exponent=st.one_of(st.none(), st.integers(-16, -12)),
    seed=st.integers(0, 2**32 - 1),
)
# the largest shapes, which the derandomized draws may miss
@example(d=16, n_times=4, turn=1e-9, bump_exponent=None, seed=1)
@example(d=16, n_times=4, turn=1e-15, bump_exponent=-12, seed=2)
@example(d=2, n_times=4, turn=1e-10, bump_exponent=-16, seed=3)
# commuting within 1e-9, with products that are not projectors within 1e-10
# (also the first example)
@example(d=16, n_times=4, turn=3e-9, bump_exponent=None, seed=0)
def test_near_commuting_families_are_accepted_within_the_bound(
    d, n_times, turn, bump_exponent, seed
):
    # every family that passes the commutation check is accepted, keeps the
    # product grid's nonzero-rank labels, and its atoms lie within the
    # certified gap of ``contexts._joint_atoms`` of the products, the
    # dropped products within it of zero
    rng = np.random.default_rng(seed)
    parts = min(d, 3 if n_times < 4 else 2)
    bump = 0.0 if bump_exponent is None else 10.0**bump_exponent
    h, contexts = near_commuting_contexts(rng, d, n_times, parts, turn, bump)
    tols = DEFAULT_TOLERANCES
    contexts, stacks = translate_contexts(contexts, 0.0, h)
    if _commutation_failures(contexts, stacks, tols)[0]:
        with pytest.raises(IncompatibleContexts):
            build_generalized_context(contexts, 0.0, h)
        return
    gc = build_generalized_context(contexts, 0.0, h)
    bound = _joint_atoms(stacks).gap
    assert bound <= 0.25
    products = loop_products(stacks, later_left=False)
    nonzero = [np.trace(p).real > 0.5 for p in products]
    assert [row is not None for row in gc._index.values()] == nonzero
    kept = [p for p, keep in zip(products, nonzero) if keep]
    gap = max(np.linalg.norm(a - p, 2) for a, p in zip(gc._atoms, kept))
    assert gap <= bound, (gap, bound)
    for p, keep in zip(products, nonzero):
        assert keep or np.linalg.norm(p, 2) <= bound


LOOSE_TOLERANCE_SETS = (
    DEFAULT_TOLERANCES,
    DEFAULT_TOLERANCES.updated(commute=1e-4, proj=1e-8),
    DEFAULT_TOLERANCES.updated(commute=10.0, proj=10.0, herm=10.0),
)


@given(
    d=st.integers(2, 8),
    n_times=st.integers(2, 4),
    turn=st.integers(-12, 0).map(lambda x: 10.0**x),
    tols=st.sampled_from(LOOSE_TOLERANCE_SETS),
    seed=st.integers(0, 2**32 - 1),
)
# a turn of 1 at the loosest set passes every pair, but the gap exceeds 1/4
@example(d=2, n_times=2, turn=1.0, tols=LOOSE_TOLERANCE_SETS[2], seed=0)
def test_accepted_generalized_context_is_a_context(d, n_times, turn, tols, seed):
    # whatever the tolerances, a build either fails or gives atoms that are
    # projectors, sum to I and lie within 1/4 of their translated products
    rng = np.random.default_rng(seed)
    parts = min(d, 3 if n_times < 4 else 2)
    h, contexts = near_commuting_contexts(rng, d, n_times, parts, turn, 0.0)
    try:
        gc = build_generalized_context(contexts, 0.0, h, tols=tols)
    except IncompatibleContexts:
        return
    products = loop_products(gc.translated_atoms, later_left=False)
    kept = [
        (gc.composed_atoms[label].matrix, products[k])
        for k, (label, row) in enumerate(gc._index.items())
        if row is not None
    ]
    for atom, product in kept:
        Projector(atom)
        assert np.linalg.norm(atom - product, 2) <= 0.25
    total = sum(atom for atom, _ in kept)
    assert max_entry_norm(total - np.eye(d)) <= DEFAULT_TOLERANCES.proj


def frobenius_commutators(a, b):
    """Frobenius norm of [A_i, B_j] for every pair of two (k, d, d) stacks."""
    return np.linalg.norm(commutators(a[:, None], b[None, :]), axis=(-2, -1))


@given(
    d=st.integers(2, 16),
    n_times=st.integers(2, 4),
    turn=st.sampled_from([1.0, 3.0]).flatmap(
        lambda m: st.integers(-16, -2).map(lambda x: m * 10.0**x)
    ),
    bump_exponent=st.one_of(st.none(), st.integers(-16, -11)),
    seed=st.integers(0, 2**32 - 1),
)
# the largest shape with nine atoms, and commutators far above rounding
@example(d=16, n_times=2, turn=1e-9, bump_exponent=-13, seed=4)
@example(d=2, n_times=2, turn=1e-6, bump_exponent=None, seed=5)
def test_certificate_bounds_every_pairwise_residual(
    d, n_times, turn, bump_exponent, seed
):
    # the eigenbasis certificate bounds every atom pair's commutator, also
    # with perturbed context laws, and from any basis of the same columns:
    # scaled by 1/10, the basis is far from unitary and f carries the bound
    rng = np.random.default_rng(seed)
    parts = min(d, 9 if n_times == 2 else 3)
    bump = 0.0 if bump_exponent is None else 10.0**bump_exponent
    h, contexts = near_commuting_contexts(rng, d, n_times, parts, turn, bump)
    _, stacks = translate_contexts(contexts, 0.0, h)
    basis = _joint_atoms(stacks)
    sizes = [len(s) for s in stacks]
    scaled, *_ = contexts_module._basis_bounds(
        np.concatenate(stacks), sizes, basis.vectors / 10, basis.positions
    )
    pairs = itertools.combinations(range(n_times), 2)
    for (a, b), bound, loose in zip(pairs, basis.pairs, scaled):
        residuals = commutator_residuals(stacks[a][:, None], stacks[b][None, :])
        frobenius = frobenius_commutators(stacks[a], stacks[b]).max()
        for value in (bound, loose):
            assert residuals.max() <= value, (residuals.max(), value)
            assert frobenius <= value
    if turn <= 1e-12 and bump <= 1e-13:
        # the labels are read right: a commuting family clears every pair
        assert max(basis.pairs, default=0.0) <= DEFAULT_TOLERANCES.commute


def reference_failures(contexts, stacks, tols):
    """The failing pairs of one broadcast check of every context pair."""
    failures = []
    for a, b in itertools.combinations(range(len(stacks)), 2):
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


@given(
    d=st.integers(2, 8),
    n_times=st.integers(2, 4),
    turn=st.sampled_from([1e-12, 1e-9, 3e-9, 1e-6, 1.0]),
    bump_exponent=st.one_of(st.none(), st.integers(-14, -11)),
    seed=st.integers(0, 2**32 - 1),
)
def test_certified_commutation_check_matches_the_broadcast_check(
    d, n_times, turn, bump_exponent, seed
):
    # with the one-atom-at-a-time check forced on at every size, the pairs
    # the certificate leaves to it give the failing pairs and residuals of
    # one broadcast check of every pair, bit for bit
    rng = np.random.default_rng(seed)
    bump = 0.0 if bump_exponent is None else 10.0**bump_exponent
    h, contexts = near_commuting_contexts(rng, d, n_times, min(d, 3), turn, bump)
    contexts, stacks = translate_contexts(contexts, 0.0, h)
    tols = DEFAULT_TOLERANCES
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(contexts_module, "_BROADCAST_MAX_ENTRIES", 0)
        failures, _ = _commutation_failures(contexts, stacks, tols)
    assert failures == reference_failures(contexts, stacks, tols)


@given(
    d=st.integers(2, 8),
    n_times=st.integers(2, 4),
    turn=st.sampled_from([1e-12, 1e-6, 1e-2, 1.0]),
    bump_exponent=st.one_of(st.none(), st.integers(-14, -11)),
    seed=st.integers(0, 2**32 - 1),
)
def test_cross_last_atom_entries_lie_within_the_block_certificate(
    d, n_times, turn, bump_exponent, seed
):
    # entries of the full gram between histories that end in different last
    # atoms, with perturbed context laws, stay within the certificate
    rng = np.random.default_rng(seed)
    bump = 0.0 if bump_exponent is None else 10.0**bump_exponent
    h, contexts = near_commuting_contexts(rng, d, n_times, min(d, 3), turn, bump)
    rho = random_density(rng, d)
    family = HistoryFamily(contexts, h, 0.0, rho)
    gram = decoherence_gram(ordered_products(family.heisenberg_atoms)[0], rho.matrix)
    last = np.arange(len(gram)) % len(contexts[-1])
    cross = np.abs(gram[last[:, None] != last[None, :]]).max()
    delta = max(ctx.law_residual for ctx in contexts)
    bound = histories_module._cross_block_bound(d, n_times, delta, rho.matrix)
    assert cross <= bound, (cross, bound)


def full_gram_report(family, tols, monkeypatch):
    """``gmh_check`` with the last-atom certificate refused: the full gram."""
    with monkeypatch.context() as patch:
        patch.setattr(histories_module, "_cross_block_bound", lambda *args: np.inf)
        return gmh_check(family, tols=tols)


@given(rank=st.integers(1, 8), **PRUNED_CASE)
def test_blocked_gmh_check_matches_the_full_gram(d, n_times, shared, seed, rank):
    rng, h, contexts = drawn_contexts(d, n_times, shared, seed)
    family = HistoryFamily(contexts, h, 0.0, low_rank_density(rng, d, min(rank, d)))
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(histories_module, "_PER_CONTEXT_MIN_DIM", 0)
        full = full_gram_report(family, DEFAULT_TOLERANCES, monkeypatch)
        blocked = gmh_check(family)
    assert blocked.verdict == full.verdict
    assert [v[:2] for v in blocked.violations] == [v[:2] for v in full.violations]
    _, _, slack = unpruned_gmh(family, DEFAULT_TOLERANCES)
    for (_, _, got), (_, _, want), (a, b, _) in zip(
        blocked.violations, full.violations, full.violations
    ):
        assert abs(got - want) <= slack[a] + slack[b]
    assert list(blocked.probabilities) == list(full.probabilities)
    for label, want in full.probabilities.items():
        assert abs(blocked.probabilities[label] - want) <= slack[label]


@pytest.mark.parametrize(
    "case", ["default", "negative-consist", "loose-last-context", "below-the-dimension"]
)
def test_last_atom_blocks_need_the_certificate(case, rng, monkeypatch):
    # the gram is taken in last-atom blocks only from d =
    # ``histories._PER_CONTEXT_MIN_DIM`` on and when the certificate clears
    h = random_hermitian(rng, 4)
    contexts = shared_basis_contexts(rng, 4, 3, h, parts=2)
    tols = DEFAULT_TOLERANCES
    if case != "below-the-dimension":
        monkeypatch.setattr(histories_module, "_PER_CONTEXT_MIN_DIM", 4)
    if case == "negative-consist":
        tols = tols.updated(consist=-1.0)
    elif case == "loose-last-context":
        # a last context idempotent and exclusive to 1e-8 only (the square
        # of the bump): valid at proj = 1e-6
        loose = tols.updated(proj=1e-6)
        upper = np.diag([1.0, 1.0, 0.0, 0.0]).astype(complex)
        upper[0, 2] = upper[2, 0] = 1e-4
        atoms = [Projector(upper, tols=loose), Projector(np.eye(4) - upper, tols=loose)]
        contexts[-1] = Context(contexts[-1].time, atoms, tols=loose)
    family = HistoryFamily(contexts, h, 0.0, random_density(rng, 4))
    lengths = []
    original = histories_module.ordered_products

    def spy(stacks, **kwargs):
        lengths.append(len(stacks))
        return original(stacks, **kwargs)

    monkeypatch.setattr(histories_module, "ordered_products", spy)
    report = gmh_check(family, tols=tols)
    assert lengths == ([2] if case == "default" else [3])
    full = full_gram_report(family, tols, monkeypatch)
    if case == "default":
        # GEMMs of another shape: the weights agree up to their rounding
        assert report.verdict and full.verdict
        assert report.probabilities == pytest.approx(full.probabilities, abs=1e-15)
    else:
        # the same route, bit for bit
        assert report.violations == full.violations
        assert report.probabilities == full.probabilities


def test_accepted_large_grid_is_certified_without_the_checks(monkeypatch):
    # the LARGE_GRID family: its gmh report is read from the eigenbasis
    # certificate and the composed atoms' weights, so no history or gram is
    # formed
    def refuse(*args, **kwargs):
        raise AssertionError("a certified context needs no history or gram")

    for name in ("ordered_products", "decoherence_gram", "_last_atom_blocks"):
        monkeypatch.setattr(histories_module, name, refuse)
    rng = np.random.default_rng(32)
    h = random_hermitian(rng, 32)
    gc = build_generalized_context(shared_basis_contexts(rng, 32, 4, h, parts=9), 0.0, h)
    assert sum(row is not None for row in gc._index.values()) >= 32
    rho = random_density(rng, 32)
    report = gmh_check(family_from_generalized_context(gc, rho))
    assert report.verdict and report.violations == ()
    weights = [float(np.vdot(atom, rho.matrix).real) for atom in gc._atoms]
    assert report.probabilities == {
        label: 0.0 if row is None else max(0.0, weights[row])
        for label, row in gc._index.items()
    }


def gram_route_report(family, tols):
    """``gmh_check`` with the certified report refused: the gram route."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(GeneralizedContext, "_certified_probabilities", lambda *args: None)
        return gmh_check(family, tols=tols)


@given(
    d=st.integers(2, 16),
    n_times=st.integers(2, 4),
    turn=st.sampled_from([1.0, 3.0]).flatmap(
        lambda m: st.integers(-16, -9).map(lambda x: m * 10.0**x)
    ),
    bump_exponent=st.one_of(st.none(), st.integers(-16, -12)),
    pure=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
# the largest shape at the loosest turn and bump the strategy draws
@example(d=16, n_times=4, turn=3e-9, bump_exponent=-12, pure=False, seed=0)
@example(d=16, n_times=2, turn=1e-16, bump_exponent=None, pure=True, seed=1)
def test_certified_gmh_report_matches_the_gram(d, n_times, turn, bump_exponent, pure, seed):
    # the history bound covers every off-diagonal entry of the unpruned
    # gram; where it clears, the report has the gram's verdict and
    # violations and each probability lies within the bound of the gram's
    # weight, and where it does not, the gram route runs bit for bit
    rng = np.random.default_rng(seed)
    parts = min(d, 3 if n_times < 4 else 2)
    bump = 0.0 if bump_exponent is None else 10.0**bump_exponent
    h, contexts = near_commuting_contexts(rng, d, n_times, parts, turn, bump)
    try:
        gc = build_generalized_context(contexts, 0.0, h)
    except IncompatibleContexts:
        return
    rho = random_density(rng, d, pure=pure)
    family = family_from_generalized_context(gc, rho)
    tols = DEFAULT_TOLERANCES
    report = gmh_check(family)
    assert gc._basis is not None  # a default build takes the eigh atoms
    bound = contexts_module._history_bound(gc._basis, rho.matrix)
    gram = decoherence_gram(ordered_products(family.heisenberg_atoms)[0], rho.matrix)
    off_diagonal = np.abs(gram[~np.eye(len(gram), dtype=bool)]).max()
    assert off_diagonal <= bound, (off_diagonal, bound)
    if not bound <= tols.consist:
        assert report == gram_route_report(family, tols)
        return
    violations, probabilities, slack = unpruned_gmh(family, tols)
    assert report.verdict and not violations and report.violations == ()
    assert list(report.probabilities) == list(probabilities)
    for label, want in probabilities.items():
        got = report.probabilities[label]
        assert abs(got - want) <= bound + slack[label], (label, got, want, bound)


def hadamard_basis(d):
    """The Sylvester-Hadamard basis, columns scaled to unit norm: exact in
    floating point for d = 4 and 16 (entries +-1/2, +-1/4)."""
    matrix = np.ones((1, 1))
    while len(matrix) < d:
        matrix = np.block([[matrix, matrix], [matrix, -matrix]])
    return (matrix / math.sqrt(d)).astype(complex)


@given(
    d=st.sampled_from([4, 16]),
    parts=st.integers(2, 4),
    exponent=st.one_of(st.none(), st.integers(-12, -3)),
    seed=st.integers(0, 2**32 - 1),
)
def test_history_bound_covers_the_atoms_of_any_basis(d, parts, exponent, seed):
    # the atoms E_p = V D_p V^dag taken as their own histories, which sit
    # from E_p by only the rounding of their sums: the gram of an exact
    # Hadamard basis is all rounding, which the bound's rounding term must
    # carry, and off unitary by about 10^exponent, E_q E_p is of the size
    # of f, which the bound's f term must carry
    rng = np.random.default_rng(seed)
    basis = hadamard_basis(d)
    positions = np.sort(rng.integers(0, parts, size=d)).astype(float)
    if exponent is not None:
        noise = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        basis = basis + 10.0**exponent * noise
    atoms, _ = _JointBasis(basis, positions, [], 0.0, 0.0).atoms()
    if exponent is None:
        # V^dag V = I exactly, and the atoms' sums of +-1/d are exact
        assert np.array_equal(basis.conj().T @ basis, np.eye(d))
        gap, overlap = 0.0, 0.0
    else:
        # f as the certificate measures it, and the rounding of the sums
        *_, overlap = contexts_module._basis_bounds(atoms, [len(atoms)], basis, positions)
        gap = (1 + 16 * np.finfo(float).eps) * (d + 4) * np.finfo(float).eps * d * (1 + overlap)
    rho = random_density(rng, d)
    bound = contexts_module._history_bound(
        _JointBasis(basis, positions, [], gap, overlap), rho.matrix
    )
    gram = decoherence_gram(atoms, rho.matrix)
    off_diagonal = np.abs(gram[~np.eye(len(gram), dtype=bool)]).max(initial=0.0)
    assert off_diagonal <= bound, (off_diagonal, bound)
    weights = np.array([np.vdot(atom, rho.matrix).real for atom in atoms])
    assert np.abs(gram.diagonal().real - weights).max() <= bound


@pytest.mark.parametrize(
    "case", ["zero-consist", "negative-consist", "product-route", "direct"]
)
def test_gmh_check_takes_the_gram_route_without_a_certificate(case, rng, monkeypatch):
    # a context-built family at consist <= 0 and a family built from the
    # contexts alone form their histories and gram, and report what the
    # gram route gives; x then z at loose tolerances (``product-route``)
    # give no context at all
    tols = DEFAULT_TOLERANCES
    if case == "product-route":
        contexts = [
            direction_context(Direction(1.0, 0.0, 0.0), 1.0),
            direction_context(Direction(0.0, 0.0, 1.0), 2.0),
        ]
        loose = tols.updated(commute=10.0, proj=10.0, herm=10.0)
        with pytest.raises(IncompatibleContexts) as err:
            build_generalized_context(contexts, 0.0, HermitianOperator.zero(2), tols=loose)
        assert err.value.gap > 0.25
        return
    h = random_hermitian(rng, 4)
    gc = build_generalized_context(shared_basis_contexts(rng, 4, 3, h, parts=2), 0.0, h)
    rho = random_density(rng, gc.dim)
    family = family_from_generalized_context(gc, rho)
    if case == "direct":
        family = HistoryFamily(gc.contexts, h, 0.0, rho)
    elif case.endswith("consist"):
        tols = tols.updated(consist=0.0 if case == "zero-consist" else -1.0)
    calls = []
    original = histories_module.ordered_products

    def spy(stacks, **kwargs):
        calls.append(len(stacks))
        return original(stacks, **kwargs)

    monkeypatch.setattr(histories_module, "ordered_products", spy)
    report = gmh_check(family, tols=tols)
    assert calls
    assert report == gram_route_report(family, tols)


def griffiths_trace_residual(family):
    """|Re Tr(E1 rho E1c E2)| of a family with two atoms at each of two
    times: the one trace the real-part condition read before it shared the
    gmh scan."""
    (e1, e1_bar), (e2, _) = family.heisenberg_atoms
    trace = consistency_traces(e1, e1_bar, e2, family.initial_state.matrix)
    return abs(float(trace.real))


@given(
    d=st.integers(2, 8),
    n_times=st.integers(1, 4),
    parts=st.integers(1, 4),
    kind=st.sampled_from(["commuting", "context-built", "near-commuting", "independent"]),
    consist=st.sampled_from([DEFAULT_TOLERANCES.consist, 0.0]),
    blocks=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
# two atoms at each of two times, where the trace is the reference
@example(d=2, n_times=2, parts=2, kind="independent", consist=1e-10, blocks=False, seed=0)
@example(d=5, n_times=2, parts=2, kind="independent", consist=0.0, blocks=True, seed=1)
@example(d=2, n_times=2, parts=2, kind="near-commuting", consist=1e-10, blocks=True, seed=2)
@example(d=8, n_times=2, parts=2, kind="near-commuting", consist=0.0, blocks=False, seed=3)
@example(d=4, n_times=2, parts=2, kind="commuting", consist=1e-10, blocks=True, seed=4)
@example(d=3, n_times=2, parts=2, kind="context-built", consist=0.0, blocks=False, seed=5)
def test_griffiths_check_reads_the_gmh_scan(d, n_times, parts, kind, consist, blocks, seed):
    rng = np.random.default_rng(seed)
    parts = min(parts, d)
    if kind == "near-commuting":
        h, contexts = near_commuting_contexts(rng, d, n_times, parts, 1e-6, 0.0)
    elif kind == "independent":
        h = random_hermitian(rng, d)
        contexts = independent_contexts(rng, d, n_times, parts)
    else:
        h = random_hermitian(rng, d)
        contexts = shared_basis_contexts(rng, d, n_times, h, parts=parts)
    rho = random_density(rng, d, pure=bool(rng.integers(2)))
    if kind == "context-built":
        gc = build_generalized_context(contexts, 0.0, h)
        family = family_from_generalized_context(gc, rho)
    else:
        family = HistoryFamily(contexts, h, 0.0, rho)
    tols = DEFAULT_TOLERANCES.updated(consist=consist)
    with pytest.MonkeyPatch.context() as monkeypatch:
        if blocks:
            # the last-atom grams from d = 2 on, wherever their bound clears
            monkeypatch.setattr(histories_module, "_PER_CONTEXT_MIN_DIM", 0)
        gmh = gmh_check(family, tols=tols)
        griffiths = griffiths_check(family, tols=tols)
    assert griffiths.verdict or not gmh.verdict
    assert {v[:2] for v in griffiths.violations} <= {v[:2] for v in gmh.violations}
    assert list(griffiths.probabilities) == list(gmh.probabilities)
    weights = [np.array(list(r.probabilities.values())) for r in (griffiths, gmh)]
    assert weights[0].tobytes() == weights[1].tobytes()
    if n_times == 2 and parts == 2:
        residual = griffiths_trace_residual(family)
        if abs(residual - consist) > 1e-12:
            assert griffiths.verdict == (residual <= consist)
        if residual > consist + 1e-12:
            # the two pairs that share a last atom read +/- the trace
            assert griffiths.max_residual() == pytest.approx(residual, abs=1e-12)


def random_class(rng, d, h, rank=None, t=None):
    """Translation class at t0 = 0 of a random projector at a random time."""
    t = float(rng.uniform(-2.0, 2.0)) if t is None else t
    return class_of(TimedProperty(random_projector(rng, d, rank), t), 0.0, h)


def same_class(c1, c2):
    return max_entry_norm(c1.representative.matrix - c2.representative.matrix) <= 1e-8


@given(
    d=st.integers(2, 8),
    shared=st.integers(0, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_meet_routes_agree(d, shared, seed):
    # criterion 7: the alternating-projection limit equals the geometric
    # intersection, also when the ranges share a subspace
    rng = np.random.default_rng(seed)
    basis = random_unitary(rng, d)
    common = min(shared, d - 1)
    ranges = []
    for _ in range(2):
        extra = int(rng.integers(0, d - common + 1))
        other = random_unitary(rng, d - common)[:, :extra]
        vectors = np.concatenate([basis[:, :common], basis[:, common:] @ other], axis=1)
        ranges.append(
            Projector(vectors @ vectors.conj().T) if vectors.shape[1] else Projector.zero(d)
        )
    p, q = ranges
    limit = alternating_projection_limit(p, q)
    oracle = subspace_intersection(p, q)
    assert max_entry_norm(limit.matrix - oracle.matrix) <= 1e-8
    assert oracle.rank >= common


@given(d=st.integers(2, 6), seed=st.integers(0, 2**32 - 1))
def test_orthocomplement_de_morgan_and_absorption(d, seed):
    # criterion 7 on generated classes of one dynamical frame
    rng = np.random.default_rng(seed)
    h = random_hermitian(rng, d)
    a, b = random_class(rng, d, h), random_class(rng, d, h)
    top = class_of(TimedProperty(Projector.identity(d), 0.0), 0.0, h)
    bottom = class_of(TimedProperty(Projector.zero(d), 0.0), 0.0, h)
    assert same_class(class_negate(class_negate(a)), a)
    assert same_class(class_meet(a, class_negate(a)), bottom)
    assert same_class(class_join(a, class_negate(a)), top)
    assert same_class(
        class_negate(class_meet(a, b)), class_join(class_negate(a), class_negate(b))
    )
    assert same_class(
        class_negate(class_join(a, b)), class_meet(class_negate(a), class_negate(b))
    )
    assert same_class(class_meet(a, class_join(a, b)), a)
    assert same_class(class_join(a, class_meet(a, b)), a)
    assert class_implies(class_meet(a, b), a) and class_implies(a, class_join(a, b))


@given(
    d=st.integers(2, 6),
    angles=st.tuples(st.floats(0.2, 1.4), st.floats(0.2, 1.4)),
    seed=st.integers(0, 2**32 - 1),
)
def test_non_distributivity_witness(d, angles, seed):
    # criterion 8: three rank-1 classes in one plane, none parallel, at
    # different times: a ^ (b v c) = a but (a ^ b) v (a ^ c) = 0
    rng = np.random.default_rng(seed)
    h = random_hermitian(rng, d)
    plane = random_unitary(rng, d)[:, :2]
    members = [plane[:, 0]] + [
        plane @ np.array([np.cos(phi), np.sin(phi) * (-1) ** k])
        for k, phi in enumerate(angles)
    ]
    a, b, c = (
        class_of(translate(TimedProperty(projector_from_span([v]), 0.0), t, h), 0.0, h)
        for v, t in zip(members, (0.5, 1.0, 1.5))
    )
    lhs = class_meet(a, class_join(b, c))
    rhs = class_join(class_meet(a, b), class_meet(a, c))
    assert same_class(lhs, a) and lhs.representative.rank == 1
    assert rhs.representative.rank == 0
    gap = lhs.representative.matrix - rhs.representative.matrix
    assert np.linalg.norm(gap, 2) >= 0.9


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


def mutated_document(base, data, count):
    """A copy of ``base`` with ``count`` drawn nodes deleted or replaced by
    odd values."""
    doc = copy.deepcopy(base)
    for _ in range(count):
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
    return doc


@given(base=st.sampled_from(VALID_DOCUMENTS), data=st.data())
def test_parser_returns_a_spec_or_raises_a_spec_error(base, data):
    doc = mutated_document(base, data, data.draw(st.integers(1, 3)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            spec = parse_system_spec(doc)
        except (ParseError, ValidationError):
            return
    assert isinstance(spec, SystemSpec)


TOL_VALUES = st.one_of(
    st.floats(-1.0, 1.0).map(repr),
    st.sampled_from(["0", "-0.0", "-1e-10", "1e-300", "10", "1e300", "nan", "abc"]),
)
# per subcommand, its options and their drawn values
CLI_OPTIONS = {
    "validate-context": {},
    "gc-check": {},
    "history-prob": {"--choices": st.sampled_from(["x+,z+", "up,up", "x-,z-", "x+", "bad,z-"])},
    "consistency": {"--criterion": st.sampled_from(["gmh", "griffiths", "bogus"])},
    "lattice": {
        "--op": st.sampled_from(["meet", "join", "neg", "implies", "bogus"]),
        "--left": st.sampled_from(["0:0", "1:1", "0:1", "2:0", "0:-1", "x", "0:0:0"]),
        "--right": st.sampled_from(["1:0", "0:1", "1:1", "1:5", ":"]),
    },
    "spin-search": {
        "--mode": st.sampled_from(["commute", "gmh", "griffiths", "bogus"]),
        "--grid-count": st.one_of(
            st.integers(-2, 40).map(str), st.sampled_from(["abc", "1.5", "1e3", "10001"])
        ),
        "--t1": st.one_of(
            st.floats(-1.0, 3.0).map(repr), st.sampled_from(["nan", "inf", "abc"])
        ),
    },
}


def run_cli(argv):
    """Exit code, stdout and stderr of one in-process ``cli.main`` call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def report_lines(node, depth):
    """The lines ``cli.render_text`` gives a JSON report's fields at
    ``depth``: ``key: value`` for each mapping key and ``- value`` for each
    list entry, the value ``cli._format_value`` of the JSON scalar, or
    ``(none)`` for an empty container under a key; a line that opens a
    container ends at ``key:`` or ``-``, and its entries follow."""
    pad = "  " * depth
    if isinstance(node, dict):
        for key, value in node.items():
            start = f"{pad}{cli._format_value(key)}:"
            if isinstance(value, (dict, list)) and value:
                yield start
                yield from report_lines(value, depth + 1)
            else:
                flat = "(none)" if isinstance(value, (dict, list)) else value
                yield f"{start} {cli._format_value(flat)}"
    else:
        for value in node:
            if isinstance(value, (dict, list)):
                yield f"{pad}-"
                yield from report_lines(value, depth + 1)
            else:
                yield f"{pad}- {cli._format_value(value)}"


@given(base=st.sampled_from(VALID_DOCUMENTS), data=st.data())
def test_cli_keeps_its_exit_and_report_contract(base, data):
    # exit 0 with a pass or no verdict, 1 with a fail, 2 with one error line
    # and no report; the text report has the JSON report's fields and values
    doc = mutated_document(base, data, data.draw(st.sampled_from([0, 0, 1, 2])))
    with tempfile.TemporaryDirectory() as scratch:
        spec = os.path.join(scratch, "system.yaml")
        with open(spec, "w") as handle:
            yaml.safe_dump(doc, handle)
        for command, flags in CLI_OPTIONS.items():
            argv = [command, spec]
            for _ in range(data.draw(st.sampled_from([0, 0, 1, 2]))):
                name = data.draw(st.sampled_from([*DEFAULT_TOLERANCES.field_names(), "bogus"]))
                argv += ["--tol", f"{name}={data.draw(TOL_VALUES)}"]
            for flag, values in flags.items():
                # --op and --mode are required, so they are always given
                if flag in ("--op", "--mode") or data.draw(st.booleans()):
                    argv += [flag, data.draw(values)]
            code, text, err = run_cli([*argv, "--format", "text"])
            assert code in (0, 1, 2), (argv, code, err)
            code_json, payload, err_json = run_cli([*argv, "--format", "json"])
            assert (code_json, err_json) == (code, err), argv
            if code == 2:
                assert text == payload == "" and err.startswith("error:"), (argv, err)
                assert err.count("\n") == 1, (argv, err)
                continue
            report = json.loads(payload)
            assert report.get("verdict") in (("fail",) if code else (None, "pass")), argv
            verdict = [f"verdict: {report['verdict'].upper()}"] if "verdict" in report else []
            assert text.splitlines() == [
                f"command: {cli._format_value(report['command'])}",
                *verdict,
                "results:",
                *report_lines(report["results"], 1),
                "tolerances:",
                *report_lines(report["tolerances"], 1),
            ], argv
