"""Tests for the numerical substrate.

Derived expectations are computed by independent oracles kept in this file:
closed-form 2x2 singular values / eigendecompositions and a Gaussian
elimination rank count, none of which share code with the library.
"""

import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cstarcat import linalg
from cstarcat.errors import (
    InvalidMatrix,
    MissingShape,
    NotHermitian,
    NotSquare,
    ShapeMismatch,
    SingularOperand,
)
from cstarcat.linalg import (
    Subspace,
    Tolerance,
    as_matrix,
    find_invertible,
    herm_funcalc,
    kron_stack,
    matrix_from_json,
    matrix_to_json,
    op_norm,
    stack_matrices,
    subspace_span,
)

# ---------------------------------------------------------------------------
# Oracles


def singular_values_2x2(a):
    """Singular values of a 2x2 complex matrix from the quadratic formula
    applied to the characteristic polynomial of a*a."""
    g = a.conj().T @ a
    tr = (g[0, 0] + g[1, 1]).real
    det = (g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0]).real
    disc = math.sqrt(max(tr * tr - 4.0 * det, 0.0))
    lo, hi = (tr - disc) / 2.0, (tr + disc) / 2.0
    return math.sqrt(max(lo, 0.0)), math.sqrt(max(hi, 0.0))


def eig_2x2_real_symmetric(a):
    """Eigenpairs of a real symmetric 2x2 matrix, by hand."""
    p, q, r = a[0, 0].real, a[0, 1].real, a[1, 1].real
    disc = math.sqrt((p - r) ** 2 + 4 * q * q)
    lam1, lam2 = (p + r - disc) / 2.0, (p + r + disc) / 2.0
    if abs(q) < 1e-15:
        v1, v2 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        if p > r:
            lam1, lam2 = r, p
            v1, v2 = v2, v1
    else:
        v1 = np.array([lam1 - r, q])
        v2 = np.array([lam2 - r, q])
        v1, v2 = v1 / np.linalg.norm(v1), v2 / np.linalg.norm(v2)
    return (lam1, v1), (lam2, v2)


def rank_by_elimination(rows, tol=1e-9):
    """Row-reduction rank of a stack of flattened matrices."""
    m = [list(r) for r in rows]
    rank, col, nrows = 0, 0, len(m)
    ncols = len(m[0]) if m else 0
    while rank < nrows and col < ncols:
        pivot = max(range(rank, nrows), key=lambda i: abs(m[i][col]))
        if abs(m[pivot][col]) <= tol:
            col += 1
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for i in range(nrows):
            if i != rank and abs(m[i][col]) > 0:
                f = m[i][col] / m[rank][col]
                m[i] = [x - f * y for x, y in zip(m[i], m[rank])]
        rank += 1
        col += 1
    return rank


# ---------------------------------------------------------------------------
# Strategies

complexes = st.builds(
    complex,
    st.floats(-3, 3, allow_nan=False),
    st.floats(-3, 3, allow_nan=False),
)


def matrices(rows, cols):
    return st.lists(
        st.lists(complexes, min_size=cols, max_size=cols),
        min_size=rows,
        max_size=rows,
    ).map(lambda ls: np.array(ls, dtype=np.complex128))


# ---------------------------------------------------------------------------
# op_norm


def test_op_norm_zero_and_identity():
    assert op_norm(np.zeros((1, 1))) == 0.0
    for n in (1, 2, 5):
        assert abs(op_norm(np.eye(n)) - 1.0) <= 1e-12


def test_op_norm_nilpotent_against_svd_oracle():
    a = np.array([[0, 1], [0, 0]], dtype=np.complex128)
    lo, hi = singular_values_2x2(a)
    assert (lo, hi) == (0.0, 1.0)
    assert abs(op_norm(a) - hi) <= 1e-12


@given(matrices(2, 2))
def test_op_norm_matches_2x2_oracle(a):
    _, hi = singular_values_2x2(a)
    assert abs(op_norm(a) - hi) <= 1e-9 * max(1.0, hi)


@given(matrices(2, 3), matrices(3, 2))
def test_op_norm_submultiplicative(a, b):
    assert op_norm(a @ b) <= op_norm(a) * op_norm(b) + 1e-9


@given(matrices(3, 2))
def test_cstar_identity_and_adjoint_isometry(a):
    n = op_norm(a)
    assert abs(op_norm(a.conj().T @ a) - n * n) <= 1e-9 * max(1.0, n * n)
    assert abs(op_norm(a.conj().T) - n) <= 1e-9 * max(1.0, n)


def test_op_norm_rejects_non_finite():
    with pytest.raises(InvalidMatrix):
        op_norm(np.array([[np.nan, 0], [0, 1]]))


# ---------------------------------------------------------------------------
# herm_funcalc


def test_funcalc_diagonal_cases():
    h = np.diag([4.0, 9.0]).astype(np.complex128)
    expect = np.diag([0.5, 1.0 / 3.0])
    assert np.linalg.norm(herm_funcalc(h) - expect) <= 1e-12
    assert np.linalg.norm(herm_funcalc(np.eye(3)) - np.eye(3)) <= 1e-12


def test_funcalc_inv_sqrt_against_eig_oracle():
    h = np.array([[2.0, 1.0], [1.0, 2.0]], dtype=np.complex128)
    (l1, v1), (l2, v2) = eig_2x2_real_symmetric(h)
    assert (abs(l1 - 1.0) < 1e-12 and abs(l2 - 3.0) < 1e-12)
    expect = np.outer(v1, v1) / math.sqrt(l1) + np.outer(v2, v2) / math.sqrt(l2)
    got = herm_funcalc(h)
    assert np.linalg.norm(got - expect) <= 1e-10
    # inv_sqrt(H) @ inv_sqrt(H) @ H is the identity
    assert np.linalg.norm(got @ got @ h - np.eye(2)) <= 1e-10


def test_funcalc_rejects_non_hermitian_and_singular():
    with pytest.raises(NotHermitian):
        herm_funcalc(np.array([[0, 1], [0, 0]], dtype=complex))
    with pytest.raises(NotHermitian):
        herm_funcalc(np.ones((2, 3), dtype=complex))
    with pytest.raises(SingularOperand):
        herm_funcalc(np.diag([1.0, 0.0]).astype(complex))
    with pytest.raises(SingularOperand):
        herm_funcalc(np.diag([1.0, 1e-12]).astype(complex))
    with pytest.raises(SingularOperand):
        herm_funcalc(np.diag([1.0, -1.0]).astype(complex))


# ---------------------------------------------------------------------------
# subspace_span


def test_span_dependent_inputs():
    eye = np.eye(2, dtype=complex)
    s = subspace_span([eye, 2 * eye])
    assert s.dim == 1
    assert s.contains(eye, linalg.DEFAULT_TOL) and s.contains(5j * eye, linalg.DEFAULT_TOL)


def test_span_empty_needs_shape():
    s = subspace_span([], ambient_shape=(2, 2))
    assert s.dim == 0 and s.shape == (2, 2)
    with pytest.raises(MissingShape):
        subspace_span([])


def test_span_matrix_units_matches_rank_oracle():
    units = []
    for i in range(2):
        for j in range(2):
            m = np.zeros((2, 2), dtype=complex)
            m[i, j] = 1.0
            units.append(m)
    assert rank_by_elimination([u.ravel() for u in units]) == 4
    s = subspace_span(units)
    assert s.dim == 4
    for u in units:
        assert s.contains(u, linalg.DEFAULT_TOL)


def test_span_rank_oracle_on_overcomplete_family(rng):
    mats = [rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
            for _ in range(4)]
    mats.append(mats[0] + mats[1])
    mats.append(2j * mats[2])
    expected = rank_by_elimination([m.ravel() for m in mats])
    assert subspace_span(mats).dim == expected


@given(st.lists(matrices(2, 2), min_size=1, max_size=5))
def test_span_idempotent(mats):
    s = subspace_span(mats)
    again = subspace_span(s.basis, ambient_shape=s.shape)
    assert again.dim == s.dim
    assert all(again.contains(b, linalg.DEFAULT_TOL) for b in s.basis)
    assert all(s.contains(b, linalg.DEFAULT_TOL) for b in again.basis)


def test_span_shape_mismatch():
    with pytest.raises(Exception):
        subspace_span([np.eye(2), np.eye(3)])


@pytest.mark.parametrize("shape", [(7, 4), (2, 5), (4, 4)])
def test_kernel_rows_against_rank_oracle(rng, shape):
    # rank 2 by construction; the wide (2, 5) case has its kernel in the rows
    # of V* that a thin SVD leaves out
    rows, cols = shape
    left = rng.standard_normal((rows, 2)) + 1j * rng.standard_normal((rows, 2))
    right = rng.standard_normal((2, cols)) + 1j * rng.standard_normal((2, cols))
    m = left @ right
    kernel, top = linalg.kernel_rows(m, Tolerance())
    assert kernel.shape == (cols - rank_by_elimination(m), cols)
    assert abs(top - linalg.op_norm(m)) <= 1e-9 * top
    assert np.allclose(kernel @ kernel.conj().T, np.eye(len(kernel)))
    assert np.linalg.norm(m @ kernel.T) <= 1e-9


# ---------------------------------------------------------------------------
# find_invertible


def test_find_invertible_scalar_line():
    s = subspace_span([np.eye(2, dtype=complex)])
    m = find_invertible(s, seed=1)
    assert m is not None
    off = m - (m[0, 0] / 1.0) * np.eye(2)
    assert np.linalg.norm(off) <= 1e-9


def test_find_invertible_nilpotent_line_is_none():
    s = subspace_span([np.array([[0, 1], [0, 0]], dtype=complex)])
    assert find_invertible(s, seed=3) is None


def test_find_invertible_full_matrix_space():
    # determinant-polynomial oracle: some +-1 combination of the basis is
    # invertible, so the space certainly contains invertible elements
    units = [np.zeros((2, 2), dtype=complex) for _ in range(4)]
    for k, (i, j) in enumerate(itertools.product(range(2), range(2))):
        units[k][i, j] = 1.0
    combos = itertools.product([-1.0, 0.0, 1.0], repeat=4)
    assert any(
        abs(np.linalg.det(sum(c * u for c, u in zip(cs, units)))) > 0.5
        for cs in combos
    )
    s = subspace_span(units)
    m = find_invertible(s, seed=7)
    assert m is not None
    assert s.contains(m, linalg.DEFAULT_TOL)
    assert linalg.smallest_singular_value(m) > 1e-9


def test_find_invertible_requires_square():
    s = subspace_span([np.ones((2, 3), dtype=complex)])
    with pytest.raises(NotSquare):
        find_invertible(s, seed=0)


# ---------------------------------------------------------------------------
# serialization and tolerances


def test_matrix_json_round_trip():
    eye = np.eye(2, dtype=complex)
    assert matrix_to_json(eye) == [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
    m = np.array([[1 + 2j, 0.25], [-1j, 3.5]])
    assert np.array_equal(matrix_from_json(matrix_to_json(m)), m)


def matrix_to_json_by_entry(m):
    """The entry-by-entry layout that ``matrix_to_json`` must reproduce."""
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(m)]


@pytest.mark.parametrize("m", [
    np.array([[1.5, -2.0], [0.0, 3.25]]),
    np.array([[1, -2, 3], [4, 5, 2**40]]),
    np.array([[1 + 2j, -0.5j], [3, 1e-300 - 1e300j]]),
    np.arange(12, dtype=float).reshape(3, 4) * (1 - 1j),
    np.array([[-0.0, 0.0], [complex(-0.0, -0.0), complex(0.0, -0.0)]]),
    np.array([[-0.0]]),
    np.zeros((2, 0)),
    np.arange(6, dtype=np.float32).reshape(2, 3) / 7,
    (np.arange(9).reshape(3, 3) + 1j).T,
    np.eye(3, dtype=complex)[np.newaxis][0],
])
def test_matrix_to_json_matches_entrywise_layout(m):
    got, want = matrix_to_json(m), matrix_to_json_by_entry(m)
    # repr tells -0.0 from 0.0 and 1 from 1.0, which == does not
    assert repr(got) == repr(want)


def test_tolerance_validation():
    for eps in (0.0, float("inf")):
        with pytest.raises(ValueError):
            Tolerance(eps_abs=eps)
    t = Tolerance()
    assert t.bound(5.0) == 5.0e-9
    assert t.bound(0.5) == 1.0e-9


def test_tolerance_has_one_field_and_one_derived_bound():
    assert [f.name for f in dataclasses.fields(Tolerance)] == ["eps_abs"]
    assert Tolerance().composite == 1e-8
    assert Tolerance(1e-6).composite == 10 * 1e-6


def test_unitary_and_isometry_predicates():
    assert linalg.is_unitary(np.diag([1.0, -1.0]).astype(complex))
    col = np.array([[1.0], [0.0]], dtype=complex)
    assert np.allclose(col.conj().T @ col, np.eye(1))  # an isometry
    assert not linalg.is_unitary(col)
    assert not linalg.is_unitary(2 * np.eye(2, dtype=complex))


def test_subspace_holds_its_basis_once_and_read_only():
    s = subspace_span([np.eye(2), np.diag([1.0, -1.0])])
    assert s.basis.shape == (2, 2, 2) and s.basis.dtype == np.complex128
    assert s._rows.shape == (2, 4) and np.shares_memory(s.basis, s._rows)
    assert not s.basis.flags.writeable and not s._rows.flags.writeable
    with pytest.raises(ValueError):
        s.basis[0] = 0
    empty = Subspace(2, 3)
    assert empty.basis.shape == (0, 2, 3) and empty._rows.shape == (0, 6)


def test_subspace_checks_each_element_before_stacking():
    with pytest.raises(InvalidMatrix):
        Subspace(2, 2, [np.eye(2), np.ones(2)])
    with pytest.raises(ShapeMismatch):
        Subspace(2, 2, [np.eye(2), np.eye(3)])


def raised(call):
    """(type, message) of the exception ``call()`` raises."""
    with pytest.raises(Exception) as info:
        call()
    return info.type, str(info.value)


def bad_stacks():
    """(name, matrices) of 2 x 2 stacks that ``stack_matrices`` must reject."""
    eye = np.eye(2)
    nan = np.eye(2, dtype=complex)
    nan[1, 0] = np.nan
    return [
        ("non_finite_third", [eye, 2 * eye, nan]),
        ("wrong_shape_second", [eye, np.eye(3), eye]),
        ("one_d_entry", [eye, np.ones(2)]),
        ("ragged_lists", [[[1, 0], [0, 1]], [[1, 0], [0]]]),
        ("non_numeric", [eye, [["a", 0], [0, 1]]]),
    ]


@pytest.mark.parametrize("name, mats", bad_stacks())
def test_stack_check_raises_what_the_per_matrix_check_raises(name, mats):
    want = raised(lambda: [as_matrix(m, 2, 2) for m in mats])
    assert raised(lambda: stack_matrices(mats, 2, 2)) == want


def test_a_read_only_stack_is_shared_and_a_writable_one_copied(rng):
    stack = rng.standard_normal((3, 2, 4)) + 1j * rng.standard_normal((3, 2, 4))
    copied = stack_matrices(stack, 2, 4)
    assert not np.shares_memory(copied, stack) and np.array_equal(copied, stack)
    assert stack.flags.writeable and not copied.flags.writeable
    assert stack_matrices(copied, 2, 4) is copied
    stack.flags.writeable = False
    assert np.shares_memory(stack_matrices(stack, 2, 4), stack)


def test_a_read_only_stack_with_a_nan_is_rejected():
    stack = np.zeros((2, 2, 2), dtype=complex)
    stack[1, 0, 1] = np.nan
    stack.flags.writeable = False
    with pytest.raises(InvalidMatrix, match="non-finite"):
        stack_matrices(stack, 2, 2)


def test_an_empty_stack_has_the_given_shape():
    for mats in ([], (), np.zeros((0, 2, 3), dtype=complex)):
        stack = stack_matrices(mats, 2, 3)
        assert stack.shape == (0, 2, 3) and not stack.flags.writeable


@pytest.mark.parametrize("n1, shape1, n2, shape2", [
    (3, (2, 2), 2, (3, 3)),
    (2, (2, 3), 3, (4, 1)),
    (1, (1, 1), 1, (1, 1)),
    (1, (3, 2), 4, (2, 2)),
    (0, (2, 2), 3, (2, 2)),
    (2, (2, 2), 0, (1, 3)),
])
def test_kron_stack_equals_a_loop_of_np_kron(rng, n1, shape1, n2, shape2):
    first = rng.standard_normal((n1, *shape1)) + 1j * rng.standard_normal((n1, *shape1))
    second = rng.standard_normal((n2, *shape2)) + 1j * rng.standard_normal((n2, *shape2))
    rows, cols = shape1[0] * shape2[0], shape1[1] * shape2[1]
    loop = np.array([np.kron(a, b) for a in first for b in second]).reshape(-1, rows, cols)
    out = kron_stack(first, second)
    assert out.shape == (n1 * n2, rows, cols) and not out.flags.writeable
    assert np.array_equal(out, loop)


# ---------------------------------------------------------------------------
# residual-first comparisons


def scaled_pairs(rng, count):
    """Pairs (a, b) of random matrices with operand norms between 0.1 and
    1000 and residuals spread from far below ``eps_abs`` to far above
    ``eps_abs * scale``, half of them in (eps_abs, eps_abs * scale]."""
    eps = Tolerance().eps_abs
    pairs = []
    for k in range(count):
        a = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        a *= 10.0 ** rng.uniform(-1, 3) / np.linalg.norm(a)
        step = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        scale = max(1.0, float(np.linalg.norm(a)))
        # even k: a residual between eps and eps * scale; odd k: anywhere
        size = rng.uniform(eps, eps * scale) if k % 2 == 0 else 10.0 ** rng.uniform(-13, -5)
        pairs.append((a, a + size * step / np.linalg.norm(step)))
    return pairs


def test_close_agrees_with_the_scale_first_formula(rng):
    tol = Tolerance()
    between = 0
    for a, b in scaled_pairs(rng, 400):
        residual = float(np.linalg.norm(a - b))
        scale = max(float(np.linalg.norm(a)), float(np.linalg.norm(b)))
        assert tol.close(a, b) == (residual <= tol.bound(scale))
        between += tol.eps_abs < residual <= tol.bound(scale) and scale > 1
    assert between >= 150
    assert not tol.close(np.eye(2), np.eye(3))


def test_contains_agrees_with_the_scale_first_formula(rng):
    tol = Tolerance()
    space = subspace_span([rng.standard_normal((3, 4)) for _ in range(2)])
    project = lambda m: space.from_coords(space.coords(m))  # noqa: E731
    between = 0
    for a, b in scaled_pairs(rng, 400):
        # an element of the norm of a, moved off the space by |b - a|
        inside, off = project(a), (b - a) - project(b - a)
        m = inside * (np.linalg.norm(a) / np.linalg.norm(inside)) + \
            off * (np.linalg.norm(b - a) / np.linalg.norm(off))
        residual = space.residual(m)
        want = residual <= tol.bound(linalg.hs_norm(m))
        assert space.contains(m, tol) == want
        between += tol.eps_abs < residual <= tol.bound(linalg.hs_norm(m)) and \
            linalg.hs_norm(m) > 1
    assert between >= 150


def test_a_residual_within_eps_abs_reads_no_operand_norm(monkeypatch):
    # a residual at most eps_abs passes whatever the scales are, so the
    # operands' norms are never taken
    norms = []
    real_norm = np.linalg.norm

    def counted(x, *args, **kwargs):
        norms.append(x)
        return real_norm(x, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", counted)
    assert Tolerance().close(np.eye(3), np.eye(3) + 1e-12)
    assert len(norms) == 1
    norms.clear()
    assert Tolerance().close(1e6 * np.eye(3), 1e6 * np.eye(3) + 1e-7)
    assert len(norms) == 3
