"""Property tests over generated inputs (Hypothesis; profile in conftest.py).

The stacked right-factor product must reproduce numpy's per-matrix ``@`` up
to rounding (its last bits depend on the BLAS kernel, see
``linop.stack_matmul``), and the spin searches must give the same answers
from the ``sphere_points`` array as from the ``sphere_grid`` tuple, with
residuals equal bit for bit to a plain-``@`` evaluation of the same formulas.
"""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from qprops.config import DEFAULT_TOLERANCES
from qprops.histories import gmh_residuals, history_operators
from qprops.linop import (
    DensityOperator,
    HermitianOperator,
    evolution_operator,
    stack_matmul,
)
from qprops.spin import (
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    Direction,
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
