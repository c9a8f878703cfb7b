import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curlstokes.analysis import trace_constant_n
from curlstokes.cases import get_case
from curlstokes.experiments import _spaces, build_essential_system, build_saddle_system
from curlstokes.forms import (assemble_b, assemble_curl_curl,
                              assemble_divergence_rhs, assemble_mass,
                              assemble_mean_vector, assemble_nitsche,
                              assemble_rhs, assemble_stiffness,
                              assemble_velocity_block, merge_triplets)
from curlstokes.mesh import (generate_unit_square, jitter, refine_uniform,
                             two_triangle_square)
from curlstokes.spaces import build_edge_space, build_nodal_space
from mesh_strategies import jittered_meshes
from oracles import (gradient_coefficients, interpolate_edge, interpolate_nodal,
                     solve_fields)


def zero_g(x, y):
    return np.zeros((np.size(x), 2))


def rot_field(x, y):
    return np.column_stack([-np.asarray(y, float), np.asarray(x, float)])


def test_merge_triplets_is_order_independent():
    rows = np.array([0, 1, 0, 1, 0])
    cols = np.array([0, 1, 0, 0, 1])
    vals = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    a = merge_triplets(rows, cols, vals, (2, 2)).toarray()
    perm = [3, 0, 4, 2, 1]
    b = merge_triplets(rows[perm], cols[perm], vals[perm], (2, 2)).toarray()
    assert np.array_equal(a, b)
    assert np.array_equal(a, [[4.0, 5.0], [4.0, 2.0]])


@pytest.mark.parametrize("order", [1, 2])
def test_curl_curl_kernel_contains_gradients(order):
    m = jitter(generate_unit_square(2), seed=2)
    V = build_edge_space(m, order)
    Q = build_nodal_space(m, order)
    K = assemble_curl_curl(V).matrix
    G = gradient_coefficients(V, Q).toarray()
    assert np.abs(K @ G).max() <= 1e-11


def test_curl_curl_quadratic_form_of_rotation():
    # curl(-y, x) = 2, so the curl-curl energy equals 4 * area
    m = generate_unit_square(2)
    V = build_edge_space(m, 1)
    K = assemble_curl_curl(V).matrix
    c = interpolate_edge(V, rot_field)
    assert float(c @ (K @ c)) == pytest.approx(4.0, abs=1e-12)


def test_essential_coupling_row_matches_hand_computation():
    # one interior edge dof against the four P1 hats: (0, -1/3, 0, 1/3)
    system = build_essential_system(*_spaces(two_triangle_square(), 1))
    assert np.allclose(system.B.toarray(), [[0.0, -1 / 3, 0.0, 1 / 3]], atol=1e-14)
    assert np.allclose(system.A.toarray(), [[4.0]], atol=1e-13)


def test_b_of_gradient_equals_stiffness_energy():
    m = jitter(generate_unit_square(2), seed=8)
    for order in (1, 2):
        V = build_edge_space(m, order)
        Q = build_nodal_space(m, order)
        B = assemble_b(V, Q).matrix
        S = assemble_stiffness(Q).matrix
        G = gradient_coefficients(V, Q).toarray()
        qc = np.random.default_rng(1).standard_normal(Q.dof_count)
        lhs = float((G @ qc) @ (B @ qc))
        rhs = float(qc @ (S @ qc))
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-13)


def test_b_constant_field_against_hats():
    m = generate_unit_square(2)
    V = build_edge_space(m, 1)
    Q = build_nodal_space(m, 1)
    B = assemble_b(V, Q).matrix
    c = interpolate_edge(V, lambda x, y: np.column_stack(
        [np.ones_like(x), np.zeros_like(x)]))
    got = B.T @ c
    # independent oracle: (1, grad q) = sum over triangles of area * dq/dx
    areas = m.areas
    expected = np.zeros(Q.dof_count)
    for t in range(m.triangle_count):
        for slot, dof in enumerate(Q.cell_dofs[t]):
            expected[dof] += areas[t] * m.grads[t, slot, 0]
    assert np.abs(got - expected).max() <= 1e-13


def test_nitsche_penalty_block_by_linearity():
    # sympy oracle: the Whitney tangential trace is 1/L on its own edge, so
    # the penalty self-entry per unit C_w is (1/h) * integral (w.t)^2 = 1/h
    tt = two_triangle_square()
    V = build_edge_space(tt, 1)
    h = tt.h_max
    n1 = assemble_nitsche(V, 1.0).matrix.toarray()
    n2 = assemble_nitsche(V, 2.0).matrix.toarray()
    n3 = assemble_nitsche(V, 3.0).matrix.toarray()
    penalty = n2 - n1
    assert np.allclose(n3 - n2, penalty, atol=1e-13)           # linear in C_w
    consistency = n1 - penalty
    assert np.allclose(n2 - 2 * penalty, consistency, atol=1e-13)
    for e in tt.boundary_edges:
        assert penalty[e, e] == pytest.approx(1.0 / h, abs=1e-13)
    # penalty block is positive semidefinite
    assert np.linalg.eigvalsh(penalty).min() >= -1e-13


def test_nitsche_vanishes_on_interior_bubble_gradient():
    # the gradient of the interior hat has zero boundary trace and zero curl
    m = generate_unit_square(2)
    V = build_edge_space(m, 1)
    Q = build_nodal_space(m, 1)
    N = assemble_nitsche(V, 10.0).matrix
    G = gradient_coefficients(V, Q).toarray()
    center = int(np.nonzero((m.vertices == [0.5, 0.5]).all(axis=1))[0][0])
    g = G[:, center]
    assert np.abs(N @ g).max() <= 1e-13


meshes = jittered_meshes(12, [3, 6])


@pytest.mark.parametrize("order", [1, 2])
@settings(max_examples=10, deadline=None)
@given(mesh=meshes, cw=st.floats(1.0, 100.0))
def test_velocity_block_symmetric(order, mesh, cw):
    V = build_edge_space(mesh, order)
    A = assemble_velocity_block(V, cw).matrix
    assert abs(A - A.T).max() <= 1e-14 * abs(A).max()
    M = assemble_mass(V).matrix.toarray()
    assert np.linalg.eigvalsh(M).min() > 0


@settings(max_examples=10, deadline=None)
@given(mesh=meshes)
def test_linear_case_reproduced_on_jittered_meshes(mesh):
    # the order-1 spaces contain the linear solution, so the solve returns it
    case = get_case("linear")
    report, V, Q = solve_fields(mesh, 1, case)
    assert not report.singular
    u = interpolate_edge(V, case.u)
    p = interpolate_nodal(Q, case.p)
    mean = assemble_mean_vector(Q)
    p -= (mean @ p) / mean.sum()
    assert np.abs(report.u - u).max() <= 1e-10
    assert np.abs(report.p - p).max() <= 1e-10


def test_rhs_zero_data():
    m = generate_unit_square(2)
    V = build_edge_space(m, 1)
    rhs = assemble_rhs(V, lambda x, y: np.zeros((np.size(x), 2)), zero_g, 10.0)
    assert np.abs(rhs).max() == 0.0


def test_rhs_constant_forcing_oracle():
    m = generate_unit_square(2)
    V = build_edge_space(m, 1)
    rhs = assemble_rhs(V, lambda x, y: np.column_stack(
        [np.ones_like(x), np.zeros_like(x)]), zero_g, 10.0)
    # independent oracle: (e_x, w_i) through the mass matrix applied to the
    # interpolated constant field
    M = assemble_mass(V).matrix
    c = interpolate_edge(V, lambda x, y: np.column_stack(
        [np.ones_like(x), np.zeros_like(x)]))
    assert np.abs(rhs - M @ c).max() <= 1e-13


def test_rhs_linear_in_penalty():
    case = get_case("linear")
    m = generate_unit_square(2)
    V = build_edge_space(m, 1)
    f0 = lambda x, y: np.zeros((np.size(x), 2))
    r1 = assemble_rhs(V, f0, case.u, 1.0)
    r2 = assemble_rhs(V, f0, case.u, 2.0)
    r3 = assemble_rhs(V, f0, case.u, 3.0)
    assert np.allclose(r3 - r2, r2 - r1, atol=1e-13)


def test_divergence_rhs():
    m = generate_unit_square(2)
    Q = build_nodal_space(m, 1)
    # tangential stream-function field: g . n = 0 on the whole boundary
    tangential = lambda x, y: np.column_stack(
        [x * (1 - x) * (1 - 2 * y), -(1 - 2 * x) * y * (1 - y)])
    assert np.abs(assemble_divergence_rhs(Q, tangential)).max() <= 1e-15
    # constant field against the constant pressure: divergence theorem
    const = lambda x, y: np.column_stack([np.ones_like(x), np.zeros_like(x)])
    rhs = assemble_divergence_rhs(Q, const)
    assert float(rhs.sum()) == pytest.approx(0.0, abs=1e-14)
    # star data has nonzero normal trace
    star = get_case("star")
    assert np.abs(assemble_divergence_rhs(Q, star.u)).max() > 1e-3


@pytest.mark.parametrize("seed", [None, 13])
@pytest.mark.parametrize("cw", [10.0, 100.0])
def test_exact_consistency_residual(seed, cw):
    # interpolating an exactly representable solution must close the system
    case = get_case("linear")
    m = generate_unit_square(2)
    m = refine_uniform(m)
    if seed is not None:
        m = jitter(m, seed)
    V = build_edge_space(m, 1)
    Q = build_nodal_space(m, 1)
    A = assemble_velocity_block(V, cw).matrix
    B = assemble_b(V, Q).matrix
    l = assemble_rhs(V, case.f, case.u, cw)
    rq = assemble_divergence_rhs(Q, case.u)
    u = interpolate_edge(V, case.u)
    p = interpolate_nodal(Q, case.p)
    assert np.abs(l - A @ u - B @ p).max() <= 1e-10
    assert np.abs(B.T @ u - rq).max() <= 1e-10


def test_coercivity_on_divergence_free_complement():
    m = generate_unit_square(2)
    V = build_edge_space(m, 1)
    Q = build_nodal_space(m, 1)
    # the default penalty, or just above the coercivity threshold C_n^2
    cw = max(10.0, 1.01 * trace_constant_n(V) ** 2)
    A = assemble_velocity_block(V, cw).matrix.toarray()
    B = assemble_b(V, Q).matrix.toarray()
    _, s, vt = np.linalg.svd(B.T)
    rank = int((s > 1e-10 * s.max()).sum())
    X = vt[rank:].T
    rng = np.random.default_rng(12)
    for _ in range(1000):
        v = X @ rng.standard_normal(X.shape[1])
        assert v @ (A @ v) >= -1e-10 * (v @ v)


def test_mean_vector():
    m = generate_unit_square(2)
    Q = build_nodal_space(m, 1)
    mvec = assemble_mean_vector(Q)
    assert float(mvec.sum()) == pytest.approx(1.0, abs=1e-13)  # (1, 1) = area
    p = interpolate_nodal(Q, lambda x, y: x - 0.5)
    assert float(mvec @ p) == pytest.approx(0.0, abs=1e-14)


def test_saddle_system_rejects_bad_penalty():
    V, Q = _spaces(generate_unit_square(2), 1)
    for bad in (-1.0, 0.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="penalty constant"):
            build_saddle_system(V, Q, get_case("star"), bad)


def test_mismatched_meshes_rejected():
    mesh = generate_unit_square(2)
    V = build_edge_space(mesh, 1)
    for Q in (build_nodal_space(generate_unit_square(3), 1), build_nodal_space(mesh, 2)):
        with pytest.raises(ValueError, match="share a mesh and an order"):
            assemble_b(V, Q)

