import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curlstokes.analysis import estimate_trace_constants
from curlstokes.cases import linear_case, star_case
from curlstokes.experiments import build_saddle_system
from curlstokes.forms import (BoundaryData, assemble_b, assemble_curl_curl,
                              assemble_divergence_rhs, assemble_mass,
                              assemble_mean_vector, assemble_nitsche,
                              assemble_rhs, assemble_stiffness,
                              assemble_velocity_block, boundary_trace_norms,
                              merge_triplets)
from curlstokes.mesh import (generate_unit_square, jitter, refine_uniform,
                             two_triangle_square)
from curlstokes.solver import solve
from curlstokes.spaces import (DiscreteField, build_edge_space,
                               build_nodal_space, gradient_coefficients,
                               interpolate_edge, interpolate_nodal)
from mesh_strategies import jittered_meshes


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
    c = interpolate_edge(V, rot_field).coefficients
    assert float(c @ (K @ c)) == pytest.approx(4.0, abs=1e-12)


def test_essential_coupling_row_matches_hand_computation():
    # one interior edge dof against the four P1 hats: (0, -1/3, 0, 1/3)
    system = build_saddle_system(two_triangle_square(), 1, linear_case(), essential=True)
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
        [np.ones_like(x), np.zeros_like(x)])).coefficients
    got = B.T @ c
    # independent oracle: (1, grad q) = sum over triangles of area * dq/dx
    areas = m.signed_areas()
    expected = np.zeros(Q.dof_count)
    for t in range(m.triangle_count):
        for slot, dof in enumerate(Q.cell_dofs[t]):
            expected[dof] += areas[t] * Q.grads[t, slot, 0]
    assert np.abs(got - expected).max() <= 1e-13


def test_nitsche_penalty_block_by_linearity():
    # sympy oracle: the Whitney tangential trace is 1/L on its own edge, so
    # the penalty self-entry per unit C_w is (1/h) * integral (w.t)^2 = 1/h
    tt = two_triangle_square()
    V = build_edge_space(tt, 1)
    h = tt.h_max
    n1 = assemble_nitsche(V, BoundaryData(zero_g, C_w=1.0)).matrix.toarray()
    n2 = assemble_nitsche(V, BoundaryData(zero_g, C_w=2.0)).matrix.toarray()
    n3 = assemble_nitsche(V, BoundaryData(zero_g, C_w=3.0)).matrix.toarray()
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
    N = assemble_nitsche(V, BoundaryData(zero_g, C_w=10.0)).matrix
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
    A = assemble_velocity_block(V, BoundaryData(star_case().g, C_w=cw)).matrix
    assert abs(A - A.T).max() <= 1e-14 * abs(A).max()
    M = assemble_mass(V).matrix.toarray()
    assert np.linalg.eigvalsh(M).min() > 0


@settings(max_examples=10, deadline=None)
@given(mesh=meshes)
def test_linear_case_reproduced_on_jittered_meshes(mesh):
    # the order-1 spaces contain the linear solution, so the solve returns it
    case = linear_case()
    report = solve(build_saddle_system(mesh, 1, case))
    assert not report.singular
    u = interpolate_edge(report.u.space, case.u).coefficients
    Q = report.p.space
    p = interpolate_nodal(Q, case.p).coefficients
    mean = assemble_mean_vector(Q)
    p -= (mean @ p) / mean.sum()
    assert np.abs(report.u.coefficients - u).max() <= 1e-10
    assert np.abs(report.p.coefficients - p).max() <= 1e-10


def test_rhs_zero_data():
    m = generate_unit_square(2)
    V = build_edge_space(m, 1)
    bd = BoundaryData(zero_g, C_w=10.0)
    rhs = assemble_rhs(V, lambda x, y: np.zeros((np.size(x), 2)), bd)
    assert np.abs(rhs).max() == 0.0


def test_rhs_constant_forcing_oracle():
    m = generate_unit_square(2)
    V = build_edge_space(m, 1)
    bd = BoundaryData(zero_g, C_w=10.0)
    rhs = assemble_rhs(V, lambda x, y: np.column_stack(
        [np.ones_like(x), np.zeros_like(x)]), bd)
    # independent oracle: (e_x, w_i) through the mass matrix applied to the
    # interpolated constant field
    M = assemble_mass(V).matrix
    c = interpolate_edge(V, lambda x, y: np.column_stack(
        [np.ones_like(x), np.zeros_like(x)])).coefficients
    assert np.abs(rhs - M @ c).max() <= 1e-13


def test_rhs_linear_in_penalty():
    case = linear_case()
    m = generate_unit_square(2)
    V = build_edge_space(m, 1)
    f0 = lambda x, y: np.zeros((np.size(x), 2))
    r1 = assemble_rhs(V, f0, BoundaryData(case.g, C_w=1.0))
    r2 = assemble_rhs(V, f0, BoundaryData(case.g, C_w=2.0))
    r3 = assemble_rhs(V, f0, BoundaryData(case.g, C_w=3.0))
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
    star = star_case()
    assert np.abs(assemble_divergence_rhs(Q, star.g)).max() > 1e-3


def test_boundary_trace_norms_oracle():
    # sympy oracle on the unit square: the rotation field has
    # ||gamma_par||^2 = 2 and ||gamma_curl||^2 = 4 * perimeter = 16
    m = generate_unit_square(2)
    gpar, gcurl = boundary_trace_norms(
        rot_field, m, curl=lambda x, y: np.full(np.size(x), 2.0))
    assert gpar ** 2 == pytest.approx(2.0, rel=1e-12)
    assert gcurl ** 2 == pytest.approx(16.0, rel=1e-12)
    V = build_edge_space(m, 1)
    fld = interpolate_edge(V, rot_field)
    gpar_d, gcurl_d = boundary_trace_norms(fld, m)
    assert gpar_d == pytest.approx(gpar, abs=1e-10)
    assert gcurl_d == pytest.approx(gcurl, abs=1e-10)
    gz, cz = boundary_trace_norms(
        lambda x, y: np.zeros((np.size(x), 2)), m,
        curl=lambda x, y: np.zeros(np.size(x)))
    assert gz == 0.0 and cz == 0.0


@pytest.mark.parametrize("seed", [None, 13])
@pytest.mark.parametrize("cw", [10.0, 100.0])
def test_exact_consistency_residual(seed, cw):
    # interpolating an exactly representable solution must close the system
    case = linear_case()
    m = generate_unit_square(2)
    m = refine_uniform(m)
    if seed is not None:
        m = jitter(m, seed)
    V = build_edge_space(m, 1)
    Q = build_nodal_space(m, 1)
    bd = BoundaryData(case.g, C_w=cw)
    A = assemble_velocity_block(V, bd).matrix
    B = assemble_b(V, Q).matrix
    l = assemble_rhs(V, case.f, bd)
    rq = assemble_divergence_rhs(Q, case.g)
    u = interpolate_edge(V, case.u).coefficients
    p = interpolate_nodal(Q, case.p).coefficients
    assert np.abs(l - A @ u - B @ p).max() <= 1e-10
    assert np.abs(B.T @ u - rq).max() <= 1e-10


def test_coercivity_on_divergence_free_complement():
    m = generate_unit_square(2)
    V = build_edge_space(m, 1)
    Q = build_nodal_space(m, 1)
    # the default penalty, or just above the coercivity threshold C_n^2
    cw = max(10.0, 1.01 * estimate_trace_constants(V).c_n ** 2)
    bd = BoundaryData(zero_g, C_w=cw)
    A = assemble_velocity_block(V, bd).matrix.toarray()
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
    p = interpolate_nodal(Q, lambda x, y: x - 0.5).coefficients
    assert float(mvec @ p) == pytest.approx(0.0, abs=1e-14)


def test_boundary_data_validation():
    for bad in (-1.0, 0.0, np.nan, np.inf):
        with pytest.raises(ValueError):
            BoundaryData(zero_g, C_w=bad)


def test_mismatched_meshes_rejected():
    V = build_edge_space(generate_unit_square(2), 1)
    Q = build_nodal_space(generate_unit_square(3), 1)
    with pytest.raises(ValueError):
        assemble_b(V, Q)

