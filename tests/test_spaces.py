import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curlstokes.experiments import _spaces, build_essential_system
from curlstokes.forms import assemble_b
from curlstokes.mesh import (generate_l_shape, generate_square_with_hole,
                             generate_unit_square, jitter, two_triangle_square)
from curlstokes.quadrature import edge_rule, triangle_rule
from curlstokes.spaces import (_edge_field, _nodal_field, _tabulate_edge, _tabulate_nodal,
                               build_edge_space, build_nodal_space)
from mesh_strategies import jittered_meshes
from oracles import (grad_inclusion_check, gradient_coefficients,
                     interpolate_edge, interpolate_nodal)


def rot_field(x, y):
    return np.column_stack([-np.asarray(y, float), np.asarray(x, float)])


def smooth_field(x, y):
    return np.column_stack([np.sin(2 * x + y), x * np.cos(3 * y)])


meshes = jittered_meshes(4, [3])


def on_cell(kernel, *args):
    """A batched kernel of ``spaces``, ``on_cell(kernel, *kernel_args, t, bary)``,
    on triangle ``t`` alone at barycentric points (k, 3): its outputs without
    the cell axis."""
    *objs, t, bary = args
    return tuple(out[0] for out in kernel(*objs, np.asarray(bary, dtype=float), [t]))


def loop_interpolate(space, eval_on_triangle):
    """Edge-moment interpolation edge by edge and triangle by triangle, from
    a per-triangle evaluator ``eval_on_triangle(t, bary) -> (k, 2)``."""
    mesh = space.mesh
    degree = 2 * space.order + 2
    erule = edge_rule(degree)
    leg = 2.0 * erule.points - 1.0
    full = np.zeros(space.dof_count)
    for e in range(mesh.edge_count):
        t = int(mesh.edge_triangles[e, 0])
        a, b = mesh.edges[e]
        xa, xb = mesh.vertices[a], mesh.vertices[b]
        length = float(np.hypot(*(xb - xa)))
        tri = mesh.triangles[t]
        bary = np.zeros((erule.points.size, 3))
        bary[:, int(np.nonzero(tri == a)[0][0])] = 1.0 - erule.points
        bary[:, int(np.nonzero(tri == b)[0][0])] = erule.points
        trace = eval_on_triangle(t, bary) @ ((xb - xa) / length)
        if space.order == 1:
            full[e] = length * (erule.weights @ trace)
        else:
            full[2 * e] = length * (erule.weights @ trace)
            full[2 * e + 1] = length * ((erule.weights * leg) @ trace)
    if space.order == 2:
        trule = triangle_rule(degree)
        areas = mesh.areas
        for t in range(mesh.triangle_count):
            vals = eval_on_triangle(t, trule.points)
            w = 2.0 * areas[t] * trule.weights
            full[space.cell_dofs[t, 6]] = w @ vals[:, 0]
            full[space.cell_dofs[t, 7]] = w @ vals[:, 1]
    return full


def essential_velocity_count(mesh, order):
    return build_essential_system(*_spaces(mesh, order)).n_u


def test_edge_space_dof_counts():
    tt = two_triangle_square()
    assert build_edge_space(tt, 1).dof_count == 5
    assert essential_velocity_count(tt, 1) == 1
    m = generate_unit_square(2)
    # order 2 in 2D: two dofs per edge plus two interior dofs per triangle;
    # the strong constraint deletes both moments of the 8 boundary edges
    assert build_edge_space(m, 2).dof_count == 2 * 16 + 2 * 8
    assert essential_velocity_count(m, 2) == 48 - 2 * 8


def test_essential_space_keeps_the_interior_edge():
    tt = two_triangle_square()
    V, Q = build_edge_space(tt, 1), build_nodal_space(tt, 1)
    full_b = assemble_b(V, Q).matrix.toarray()
    kept_b = build_essential_system(V, Q).B.toarray()
    interior = [e for e in range(tt.edge_count) if tuple(tt.edges[e]) == (1, 3)]
    assert len(interior) == 1
    assert np.array_equal(kept_b, full_b[interior])


LAYOUT_MESHES = {"structured": generate_unit_square(3),
                 "jittered": jitter(generate_unit_square(4), 3),
                 "punctured": generate_square_with_hole(3), "lshape": generate_l_shape(2)}


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("name", sorted(LAYOUT_MESHES))
def test_dof_layout(name, order):
    # vertex dofs, then edge dofs, then triangle dofs, each entity's consecutive
    mesh = LAYOUT_MESHES[name]
    V, Q = build_edge_space(mesh, order), build_nodal_space(mesh, order)
    ne, nf = mesh.edge_count, mesh.triangle_count
    for space in (V, Q):
        assert np.array_equal(np.unique(space.cell_dofs), np.arange(space.dof_count))
        assert space.cell_dofs.dtype == np.int64
    if order == 1:
        assert np.array_equal(V.cell_dofs, mesh.triangle_edges)
        assert np.array_equal(Q.cell_dofs, mesh.triangles)
    else:
        assert np.array_equal(V.edge_dofs, np.arange(2 * ne).reshape(ne, 2))
        assert np.array_equal(V.cell_dofs[:, 6:], 2 * ne + np.arange(2 * nf).reshape(nf, 2))
        assert np.array_equal(Q.cell_dofs, np.hstack([mesh.triangles,
                                                      mesh.vertex_count + mesh.triangle_edges]))
    assert V.edge_dofs.shape == (ne, order)
    for k in range(3):
        assert np.array_equal(V.cell_dofs[:, k * order:(k + 1) * order],
                              V.edge_dofs[mesh.triangle_edges[:, k]])
    removed = V.edge_dofs[mesh.boundary_edges].size
    assert build_essential_system(V, Q).n_u == V.dof_count - removed
    assert not V.edge_dofs.flags.writeable


def test_nodal_space_dof_counts():
    tt = two_triangle_square()
    assert build_nodal_space(tt, 1).dof_count == 4
    m = generate_unit_square(2)
    assert build_nodal_space(m, 2).dof_count == 9 + 16


def test_unsupported_orders():
    tt = two_triangle_square()
    with pytest.raises(ValueError):
        build_edge_space(tt, 3)
    with pytest.raises(ValueError):
        build_nodal_space(tt, 0)


def test_whitney_value_and_curl():
    # triangle (0,0)-(1,0)-(0,1), edge between the first two vertices:
    # basis at the barycenter is (2/3, 1/3) and its curl is 2 (sympy oracle)
    tt = two_triangle_square()
    V = build_edge_space(tt, 1)
    vals, curls = on_cell(_tabulate_edge, V, 0, [[1 / 3, 1 / 3, 1 / 3]])
    slot = next(k for k in range(3)
                if tuple(tt.edges[tt.triangle_edges[0, k]]) == (0, 1))
    assert np.allclose(vals[0, slot], [2 / 3, 1 / 3], atol=1e-14)
    assert curls[0, slot] == pytest.approx(2.0, abs=1e-14)


def test_whitney_edge_duality():
    m = generate_unit_square(2)
    V = build_edge_space(m, 1)
    rule = edge_rule(4)
    for t in range(m.triangle_count):
        for slot in range(3):
            e = m.triangle_edges[t, slot]
            a, b = m.edges[e]
            for other in range(3):
                eo = m.triangle_edges[t, other]
                ao, bo = m.edges[eo]
                xa, xb = m.vertices[ao], m.vertices[bo]
                length = np.hypot(*(xb - xa))
                tang = (xb - xa) / length
                tri = m.triangles[t]
                la = int(np.nonzero(tri == ao)[0][0])
                lb = int(np.nonzero(tri == bo)[0][0])
                bary = np.zeros((rule.points.size, 3))
                bary[:, la] = 1 - rule.points
                bary[:, lb] = rule.points
                vals, _ = on_cell(_tabulate_edge, V, t, bary)
                moment = length * (rule.weights @ (vals[:, slot, :] @ tang))
                assert moment == pytest.approx(1.0 if other == slot else 0.0, abs=1e-12)


@pytest.mark.parametrize("order", [1, 2])
def test_tangential_continuity(order):
    m = jitter(generate_unit_square(3), seed=5)
    V = build_edge_space(m, order)
    rng = np.random.default_rng(0)
    coeffs = rng.standard_normal(V.dof_count)
    rule = edge_rule(2 * order + 2)
    for e in range(m.edge_count):
        t0, t1 = m.edge_triangles[e]
        if t1 < 0:
            continue
        a, b = m.edges[e]
        xa, xb = m.vertices[a], m.vertices[b]
        tang = (xb - xa) / np.hypot(*(xb - xa))
        traces = []
        for t in (t0, t1):
            tri = m.triangles[t]
            la = int(np.nonzero(tri == a)[0][0])
            lb = int(np.nonzero(tri == b)[0][0])
            bary = np.zeros((rule.points.size, 3))
            bary[:, la] = 1 - rule.points
            bary[:, lb] = rule.points
            vals, _ = on_cell(_edge_field, V, coeffs, int(t), bary)
            traces.append(vals @ tang)
        assert np.abs(traces[0] - traces[1]).max() <= 1e-12


def test_nodal_basis_values():
    tt = two_triangle_square()
    Q = build_nodal_space(tt, 1)
    vals, grads = on_cell(_tabulate_nodal, Q, 0, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert np.allclose(vals, np.eye(3), atol=1e-14)
    assert np.allclose(grads[0, 0], [-1.0, -1.0], atol=1e-14)
    Q2 = build_nodal_space(tt, 2)
    vals2, _ = on_cell(_tabulate_nodal, Q2, 0, [[0.5, 0.5, 0.0]])
    assert vals2[0, 3] == pytest.approx(1.0, abs=1e-14)   # midpoint bubble at its node


@pytest.mark.parametrize("order", [1, 2])
def test_partition_of_unity(order):
    m = jitter(generate_unit_square(2), seed=1)
    Q = build_nodal_space(m, order)
    bary = np.random.default_rng(2).dirichlet([1, 1, 1], size=20)
    for t in range(m.triangle_count):
        vals, grads = on_cell(_tabulate_nodal, Q, t, bary)
        assert np.abs(vals.sum(axis=1) - 1).max() <= 1e-12
        assert np.abs(grads.sum(axis=1)).max() <= 1e-11


def test_interpolation_reproduces_constants_and_rotation():
    m = generate_unit_square(1)
    V = build_edge_space(m, 1)
    const = interpolate_edge(V, lambda x, y: np.column_stack([np.ones_like(x), np.zeros_like(x)]))
    rot = interpolate_edge(V, rot_field)
    pts = np.random.default_rng(3).dirichlet([1, 1, 1], size=10)
    for t in range(m.triangle_count):
        phys = pts @ m.vertices[m.triangles[t]]
        cv, _ = on_cell(_edge_field, V, const, t, pts)
        rv, rc = on_cell(_edge_field, V, rot, t, pts)
        assert np.abs(cv - [1.0, 0.0]).max() <= 1e-12
        assert np.abs(rv - rot_field(phys[:, 0], phys[:, 1])).max() <= 1e-12
        assert np.abs(rc - 2.0).max() <= 1e-12


def test_gradient_field_not_in_whitney_space():
    # grad(xy) = (y, x) lies outside the lowest-order space but inside order 2
    m = generate_unit_square(2)
    field = lambda x, y: np.column_stack([y, x])
    V1 = build_edge_space(m, 1)
    f1 = interpolate_edge(V1, field)
    worst = 0.0
    pts = np.random.default_rng(4).dirichlet([1, 1, 1], size=8)
    for t in range(m.triangle_count):
        phys = pts @ m.vertices[m.triangles[t]]
        vals, _ = on_cell(_edge_field, V1, f1, t, pts)
        worst = max(worst, np.abs(vals - field(phys[:, 0], phys[:, 1])).max())
    assert worst > 1e-3
    V2 = build_edge_space(m, 2)
    f2 = interpolate_edge(V2, field)
    for t in range(m.triangle_count):
        phys = pts @ m.vertices[m.triangles[t]]
        vals, _ = on_cell(_edge_field, V2, f2, t, pts)
        assert np.abs(vals - field(phys[:, 0], phys[:, 1])).max() <= 1e-12


@pytest.mark.parametrize("order", [1, 2])
@settings(max_examples=10, deadline=None)
@given(mesh=meshes, seed=st.integers(0, 2 ** 16))
def test_interpolation_projection_property(order, mesh, seed):
    V = build_edge_space(mesh, order)
    coeffs = np.random.default_rng(seed).standard_normal(V.dof_count)
    again = interpolate_edge(V, coeffs)
    assert np.abs(again - coeffs).max() <= 1e-12 * max(1, np.abs(coeffs).max())


def test_interpolation_rejects_foreign_fields():
    m = generate_unit_square(2)
    V = build_edge_space(m, 1)
    Q = build_nodal_space(m, 1)
    with pytest.raises(ValueError):
        interpolate_edge(V, np.zeros(Q.dof_count))


@pytest.mark.parametrize("order", [1, 2])
@settings(max_examples=10, deadline=None)
@given(mesh=meshes, seed=st.integers(0, 2 ** 16))
def test_interpolation_matches_loop_reference(order, mesh, seed):
    V = build_edge_space(mesh, order)
    field = np.random.default_rng(seed).standard_normal(V.dof_count)

    def on_triangle(t, bary):
        pts = bary @ mesh.vertices[mesh.triangles[t]]
        return smooth_field(pts[:, 0], pts[:, 1])

    for got, ref in [
            (interpolate_edge(V, smooth_field), loop_interpolate(V, on_triangle)),
            (interpolate_edge(V, field),
             loop_interpolate(V, lambda t, bary: on_cell(_edge_field, V, field, t, bary)[0]))]:
        assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()


@pytest.mark.parametrize("order", [1, 2])
@settings(max_examples=10, deadline=None)
@given(mesh=meshes, seed=st.integers(0, 2 ** 16))
def test_interpolated_gradient_is_gradient_coefficients(order, mesh, seed):
    # gradient inclusion: for p in P_r, Pi_h grad p = G (Lagrange interpolant of p)
    c = np.random.default_rng(seed).standard_normal(6)
    if order == 1:
        c[3:] = 0.0
    p = lambda x, y: c[0] + c[1] * x + c[2] * y + c[3] * x * x + c[4] * x * y + c[5] * y * y
    grad_p = lambda x, y: np.column_stack([c[1] + 2 * c[3] * x + c[4] * y,
                                           c[2] + c[4] * x + 2 * c[5] * y])
    V = build_edge_space(mesh, order)
    Q = build_nodal_space(mesh, order)
    got = interpolate_edge(V, grad_p)
    ref = gradient_coefficients(V, Q) @ interpolate_nodal(Q, p)
    assert np.abs(got - ref).max() <= 1e-12 * max(1, np.abs(ref).max())


@pytest.mark.parametrize("mesh,order,tol", [
    (two_triangle_square(), 1, 1e-12),
    (generate_unit_square(2), 1, 1e-12),
    (generate_unit_square(2), 2, 1e-10),
    (generate_square_with_hole(3), 2, 1e-10),
])
def test_grad_inclusion(mesh, order, tol):
    V = build_edge_space(mesh, order)
    Q = build_nodal_space(mesh, order)
    assert grad_inclusion_check(V, Q) <= tol


@pytest.mark.parametrize("order", [1, 2])
def test_gradient_coefficients_exact(order):
    m = jitter(generate_unit_square(2), seed=11)
    V = build_edge_space(m, order)
    Q = build_nodal_space(m, order)
    G = gradient_coefficients(V, Q).toarray()
    rng = np.random.default_rng(6)
    qc = rng.standard_normal(Q.dof_count)
    pts = rng.dirichlet([1, 1, 1], size=6)
    for t in range(m.triangle_count):
        gv, gc = on_cell(_edge_field, V, G @ qc, t, pts)
        _, pg = on_cell(_nodal_field, Q, qc, t, pts)
        assert np.abs(gv - pg).max() <= 1e-11
        assert np.abs(gc).max() <= 1e-11     # gradients are curl-free


def test_interpolate_nodal():
    m = generate_unit_square(2)
    Q = build_nodal_space(m, 2)
    f = lambda x, y: x ** 2 - 3 * y + 1
    field = interpolate_nodal(Q, f)
    # quadratic functions are reproduced exactly by the order-2 space
    pts = np.random.default_rng(7).dirichlet([1, 1, 1], size=5)
    for t in range(m.triangle_count):
        phys = pts @ m.vertices[m.triangles[t]]
        vals, _ = on_cell(_nodal_field, Q, field, t, pts)
        assert np.abs(vals - f(phys[:, 0], phys[:, 1])).max() <= 1e-12
