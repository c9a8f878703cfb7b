from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curlstokes.mesh import (Mesh, MeshConnectivityError, MeshError,
                             MeshFormatError, MeshOrientationError,
                             build_mesh, generate_l_shape,
                             generate_square_with_hole, generate_unit_square,
                             jitter, refine_uniform, two_triangle_square)

# validate_mesh's bound on |n . t| and on | |n| - 1 |, | |t| - 1 |
UNIT_TOL = 1e-12


def validate_mesh(mesh: Mesh) -> None:
    """Check every structural invariant; raise MeshError on the first failure."""
    if (mesh.areas <= 0).any():
        raise MeshOrientationError("non-positive triangle area")
    counts = np.bincount(mesh.triangle_edges.ravel(), minlength=mesh.edge_count)
    if not np.isin(counts, (1, 2)).all():
        raise MeshConnectivityError("edge shared by an invalid number of triangles")
    if not np.array_equal(np.nonzero(counts == 1)[0], mesh.boundary_edges):
        raise MeshConnectivityError("boundary edge list does not match adjacency counts")
    n = mesh.boundary_normals
    t = mesh.boundary_tangents
    if n.size:
        if np.abs((n * t).sum(axis=1)).max() > UNIT_TOL:
            raise MeshError("boundary normal and tangent are not orthogonal")
        if np.abs(np.hypot(n[:, 0], n[:, 1]) - 1).max() > UNIT_TOL:
            raise MeshError("boundary normal is not unit length")
        if np.abs(np.hypot(t[:, 0], t[:, 1]) - 1).max() > UNIT_TOL:
            raise MeshError("boundary tangent is not unit length")
        # geometric oracle: the normal points from the centroid of the edge's
        # triangle towards the edge midpoint
        mid = mesh.vertices[mesh.edges[mesh.boundary_edges]].mean(axis=1)
        tri = mesh.triangles[mesh.edge_triangles[mesh.boundary_edges, 0]]
        inward = np.nonzero(((mid - mesh.vertices[tri].mean(axis=1)) * n).sum(axis=1) <= 0)[0]
        if inward.size:
            raise MeshError(
                f"boundary normal of edge {mesh.boundary_edges[inward[0]]} points inward")
    # signed local edges must close the triangle boundary cycle: per triangle,
    # the signed edge ends summed per vertex all vanish
    ends = mesh.edges[mesh.triangle_edges]                             # (F, 3, 2)
    signs = mesh.triangle_edge_signs.astype(np.int64)[:, :, None]
    keys = np.arange(mesh.triangle_count)[:, None, None] * mesh.vertex_count + ends
    chain_keys, slot = np.unique(keys.ravel(), return_inverse=True)
    chain = np.zeros(chain_keys.size, dtype=np.int64)
    np.add.at(chain, slot, (np.array([-1, 1]) * signs).ravel())
    if chain.any():
        tri = chain_keys[np.nonzero(chain)[0][0]] // mesh.vertex_count
        raise MeshError(f"edge signs of triangle {tri} do not form a cycle")


ALL_GENERATORS = [
    lambda: generate_unit_square(3),
    lambda: generate_square_with_hole(3),
    lambda: generate_l_shape(2),
    two_triangle_square,
]


def test_unit_square_counts():
    m = generate_unit_square(1)
    assert (m.vertex_count, m.triangle_count, m.edge_count) == (4, 2, 5)
    assert len(m.boundary_edges) == 4
    m = generate_unit_square(2)
    assert (m.vertex_count, m.triangle_count, m.edge_count) == (9, 8, 16)
    assert len(m.boundary_edges) == 8
    assert m.euler_characteristic() == 1


def test_unit_square_hmax():
    m = generate_unit_square(4)
    assert m.h_max == pytest.approx(np.sqrt(2.0) / 4, abs=1e-14)


def test_unit_square_rejects_zero():
    with pytest.raises(ValueError):
        generate_unit_square(0)


def test_hole_euler_characteristic_and_boundary():
    m = generate_square_with_hole(3)
    assert m.euler_characteristic() == 0   # one hole: V - E + F = 1 - b1
    mids = 0.5 * (m.vertices[m.edges[m.boundary_edges][:, 0]]
                  + m.vertices[m.edges[m.boundary_edges][:, 1]])
    inner = ((mids > 1 / 3 - 1e-12) & (mids < 2 / 3 + 1e-12)).all(axis=1)
    assert len(m.boundary_edges) == 16
    assert inner.sum() == 4
    assert (~inner).sum() == 12


def test_hole_requires_multiple_of_three():
    for n in (1, 2, 4, 7):
        with pytest.raises(ValueError):
            generate_square_with_hole(n)
    m = generate_square_with_hole(6)
    assert (m.areas > 0).all()


def test_l_shape():
    m = generate_l_shape(1)
    assert m.triangle_count == 6
    assert any((m.vertices == 0.0).all(axis=1))
    m2 = generate_l_shape(2)
    assert m2.euler_characteristic() == 1
    assert any((m2.vertices == 0.0).all(axis=1))


def test_two_triangle_square():
    m = two_triangle_square()
    assert np.array_equal(m.vertices, [[0, 0], [1, 0], [1, 1], [0, 1]])
    interior = [e for e in range(m.edge_count) if e not in m.boundary_edges]
    assert len(interior) == 1
    assert tuple(m.edges[interior[0]]) == (1, 3)
    assert np.allclose(m.areas, 0.5)
    # outward normal of the bottom edge
    for k, e in enumerate(m.boundary_edges):
        if tuple(m.edges[e]) == (0, 1):
            assert np.allclose(m.boundary_normals[k], [0.0, -1.0], atol=1e-14)
            assert np.allclose(m.boundary_tangents[k], [1.0, 0.0], atol=1e-14)


def test_refine_uniform():
    m = two_triangle_square()
    r = refine_uniform(m)
    assert r.triangle_count == 8
    assert r.h_max == pytest.approx(m.h_max / 2, abs=1e-12)
    validate_mesh(r)
    assert r.euler_characteristic() == m.euler_characteristic()
    rh = refine_uniform(generate_square_with_hole(3))
    assert rh.euler_characteristic() == 0


@pytest.mark.parametrize("make", ALL_GENERATORS)
def test_invariants(make):
    validate_mesh(make())


@pytest.mark.parametrize("make", ALL_GENERATORS)
def test_outward_normals(make):
    m = make()
    for k, e in enumerate(m.boundary_edges):
        a, b = m.edges[e]
        mid = 0.5 * (m.vertices[a] + m.vertices[b])
        tri = m.edge_triangles[e, 0]
        centroid = m.vertices[m.triangles[tri]].mean(axis=0)
        assert np.dot(mid - centroid, m.boundary_normals[k]) > 0
        n, t = m.boundary_normals[k], m.boundary_tangents[k]
        assert abs(np.dot(n, t)) <= 1e-12
        assert abs(np.hypot(*n) - 1) <= 1e-12
        assert abs(np.hypot(*t) - 1) <= 1e-12


def test_determinism():
    a = generate_square_with_hole(6)
    b = generate_square_with_hole(6)
    assert np.array_equal(a.vertices, b.vertices)
    assert np.array_equal(a.triangles, b.triangles)
    assert np.array_equal(a.triangle_edge_signs, b.triangle_edge_signs)


def test_jitter():
    m = generate_unit_square(4)
    j1 = jitter(m, seed=42)
    j2 = jitter(m, seed=42)
    assert np.array_equal(j1.vertices, j2.vertices)
    validate_mesh(j1)
    boundary = m.boundary_vertex_mask()
    assert np.array_equal(j1.vertices[boundary], m.vertices[boundary])
    interior = ~boundary
    assert (np.abs(j1.vertices[interior] - m.vertices[interior]).max(axis=1) > 0).all()


def test_jitter_preserves_topology_under_refinement():
    m = jitter(generate_square_with_hole(3), seed=3)
    assert m.euler_characteristic() == 0
    validate_mesh(refine_uniform(m))


def test_load_bad_vertex_index():
    with pytest.raises(MeshConnectivityError):
        build_mesh([[0, 0], [1, 0], [0, 1], [1, 1]], [[0, 1, 99]])


def test_load_clockwise_triangle():
    with pytest.raises(MeshOrientationError, match="triangle 0"):
        build_mesh([[0, 0], [1, 0], [0, 1]], [[0, 2, 1]])


def test_mesh_errors_are_value_errors():
    # the input-error family the command line maps to exit code 2
    with pytest.raises(ValueError):
        build_mesh([[0, 0], [1, 0], [0, 1]], [[0, 2, 1]])


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_non_finite_vertex_rejected(bad):
    # a non-finite area is not <= 0, so the orientation check lets it through
    with pytest.raises(MeshFormatError, match="vertex 2"):
        build_mesh([[0, 0], [1, 0], [bad, 1]], [[0, 1, 2]])


@pytest.mark.parametrize("vertices, triangles", [
    ([[0, 0], [1, 0], [0, 1]], [[0, 1, 2], [0, 1, 2]]),                # no boundary edge
    ([[0, 0], [1, 0], [0, 1], [0.5, 0.5]], [[0, 1, 2], [0, 1, 3]]),    # folded pair
], ids=["duplicate", "folded"])
def test_shared_edge_traversed_twice_in_one_direction_rejected(vertices, triangles):
    # each triangle is counterclockwise, but both run along edge (0, 1) from 0
    # to 1, so they overlap; the duplicate would read Betti number -1
    with pytest.raises(MeshOrientationError, match=r"edge \(0, 1\)"):
        build_mesh(vertices, triangles)


def test_nonconforming_edge_rejected():
    vertices = [[0, 0], [1, 0], [0, 1], [1, 1], [-1, 1]]
    triangles = [[0, 1, 2], [0, 1, 3], [0, 1, 4]]  # edge (0,1) shared by three triangles
    with pytest.raises(MeshConnectivityError):
        build_mesh(np.array(vertices, float), np.array(triangles))


def test_edge_signs_close_cycles():
    m = generate_l_shape(2)
    for t in range(m.triangle_count):
        chain = np.zeros(m.vertex_count, int)
        for k in range(3):
            a, b = m.edges[m.triangle_edges[t, k]]
            s = int(m.triangle_edge_signs[t, k])
            chain[a] -= s
            chain[b] += s
        assert not chain.any()


def test_mesh_arrays_immutable():
    m = generate_unit_square(2)
    with pytest.raises(ValueError):
        m.vertices[0, 0] = 5.0
    with pytest.raises(ValueError):
        m.triangles[0, 0] = 0
    for name in ("areas", "grads", "diameters"):
        with pytest.raises(ValueError):
            getattr(m, name)[0] = 1.0


# -- loop reference for the array operations in mesh.py ----------------------
#
# build_mesh's per-triangle geometry, edge adjacency and boundary normals,
# refine_uniform and
# validate_mesh's normal and cycle checks were per-triangle / per-edge loops.
# The loops below are that reference; every Mesh array must stay
# np.array_equal to them, and validate_mesh must reject what they reject.

def loop_adjacency(m):
    edge_triangles = np.full((m.edge_count, 2), -1, dtype=np.int64)
    slot = np.zeros(m.edge_count, dtype=np.int64)
    for t in range(m.triangle_count):
        for e in m.triangle_edges[t]:
            edge_triangles[e, slot[e]] = t
            slot[e] += 1
    normals = np.zeros((m.boundary_edges.size, 2))
    tangents = np.zeros_like(normals)
    for k, e in enumerate(m.boundary_edges):
        a, b = m.edges[e]
        mid = 0.5 * (m.vertices[a] + m.vertices[b])
        centroid = m.vertices[m.triangles[edge_triangles[e, 0]]].mean(axis=0)
        d = m.vertices[b] - m.vertices[a]
        n = np.array([d[1], -d[0]])
        if np.dot(mid - centroid, n) < 0:
            n = -n
        n /= np.hypot(n[0], n[1])
        normals[k] = n
        tangents[k] = [-n[1], n[0]]
    return edge_triangles, normals, tangents


def loop_geometry(m):
    """Per triangle: signed area, barycentric gradients (with their own
    determinant) and longest edge."""
    areas = np.empty(m.triangle_count)
    grads = np.empty((m.triangle_count, 3, 2))
    diameters = np.empty(m.triangle_count)
    for t in range(m.triangle_count):
        a, b, c = m.vertices[m.triangles[t]]
        areas[t] = 0.5 * ((b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0]))
        det = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
        grads[t, 1] = [(c[1] - a[1]) / det, -(c[0] - a[0]) / det]
        grads[t, 2] = [-(b[1] - a[1]) / det, (b[0] - a[0]) / det]
        grads[t, 0] = -grads[t, 1] - grads[t, 2]
        diameters[t] = max(np.sqrt(((q - p) ** 2).sum()) for p, q in ((a, b), (b, c), (c, a)))
    return areas, grads, diameters


def loop_refined_triangles(m):
    nv = m.vertex_count
    tris = np.empty((4 * m.triangle_count, 3), dtype=np.int64)
    for t in range(m.triangle_count):
        v0, v1, v2 = m.triangles[t]
        m01, m12, m20 = nv + m.triangle_edges[t]
        tris[4 * t + 0] = (v0, m01, m20)
        tris[4 * t + 1] = (v1, m12, m01)
        tris[4 * t + 2] = (v2, m20, m12)
        tris[4 * t + 3] = (m01, m12, m20)
    return tris


def loop_grid_mesh(xs, ys, keep_cell):
    """Criss-cross mesh over a tensor grid, cell by cell, keeping the cells
    where ``keep_cell(i, j)``."""
    nx = xs.size - 1
    X, Y = np.meshgrid(xs, ys, indexing="xy")
    vertices = np.column_stack([X.ravel(), Y.ravel()])
    tris = []
    for j in range(ys.size - 1):
        for i in range(nx):
            if keep_cell(i, j):
                a, b = j * (nx + 1) + i, j * (nx + 1) + i + 1
                c, d = b + nx + 1, a + nx + 1
                tris += [(a, b, d), (b, c, d)]
    triangles = np.array(tris, dtype=np.int64)
    used = np.unique(triangles.ravel())
    remap = -np.ones(vertices.shape[0], dtype=np.int64)
    remap[used] = np.arange(used.size)
    return build_mesh(vertices[used], remap[triangles])


def loop_first_fault(m):
    """The message validate_mesh's normal and cycle loops raised, or None."""
    for k, e in enumerate(m.boundary_edges):
        a, b = m.edges[e]
        mid = 0.5 * (m.vertices[a] + m.vertices[b])
        centroid = m.vertices[m.triangles[m.edge_triangles[e, 0]]].mean(axis=0)
        if np.dot(mid - centroid, m.boundary_normals[k]) <= 0:
            return f"boundary normal of edge {e} points inward"
    for tri in range(m.triangle_count):
        chain = np.zeros(m.vertex_count, dtype=np.int64)
        for k in range(3):
            a, b = m.edges[m.triangle_edges[tri, k]]
            s = m.triangle_edge_signs[tri, k]
            chain[a] -= s
            chain[b] += s
        if chain.any():
            return f"edge signs of triangle {tri} do not form a cycle"
    return None


def _validate_message(m):
    try:
        validate_mesh(m)
    except MeshError as exc:
        return str(exc)
    return None


mesh_inputs = st.one_of(
    st.builds(generate_unit_square, st.integers(1, 4)),
    st.builds(generate_square_with_hole, st.sampled_from([3, 6])),
    st.builds(generate_l_shape, st.integers(1, 2)),
    st.just(two_triangle_square()))


@settings(max_examples=20, deadline=None)
@given(mesh=mesh_inputs, seed=st.one_of(st.none(), st.integers(0, 2 ** 16)),
       refine=st.booleans())
def test_mesh_arrays_equal_loop_reference(mesh, seed, refine):
    if seed is not None:
        mesh = jitter(mesh, seed)
    if refine:
        refined = refine_uniform(mesh)
        assert np.array_equal(refined.triangles, loop_refined_triangles(mesh))
        mesh = refined
    edge_triangles, normals, tangents = loop_adjacency(mesh)
    assert np.array_equal(mesh.edge_triangles, edge_triangles)
    areas, grads, diameters = loop_geometry(mesh)
    assert np.array_equal(mesh.areas, areas)
    assert np.array_equal(mesh.grads, grads)
    assert np.array_equal(mesh.diameters, diameters)
    assert mesh.h_max == mesh.diameters.max()
    assert np.array_equal(mesh.boundary_normals, normals)
    assert np.array_equal(mesh.boundary_tangents, tangents)
    assert _validate_message(mesh) is None and loop_first_fault(mesh) is None


@pytest.mark.parametrize("n", range(1, 13))
def test_generators_equal_grid_loop_reference(n):
    square = np.arange(n + 1) / n
    hole = np.arange(3 * n + 1) / (3 * n)
    lshape = -1.0 + np.arange(2 * n + 1) / n
    pairs = [
        (generate_unit_square(n), loop_grid_mesh(square, square, lambda i, j: True)),
        (generate_square_with_hole(3 * n), loop_grid_mesh(hole, hole, lambda i, j: not (
            n <= i < 2 * n and n <= j < 2 * n))),
        (generate_l_shape(n), loop_grid_mesh(lshape, lshape, lambda i, j: not (
            i >= n and j < n))),
    ]
    for got, ref in pairs:
        for f in fields(Mesh):
            assert np.array_equal(getattr(got, f.name), getattr(ref, f.name)), f.name


@settings(max_examples=20, deadline=None)
@given(mesh=mesh_inputs, data=st.data())
def test_validate_rejects_what_the_loops_reject(mesh, data):
    # flip one boundary normal (and its tangent, so they stay orthonormal)
    k = data.draw(st.integers(0, mesh.boundary_edges.size - 1))
    normals, tangents = mesh.boundary_normals.copy(), mesh.boundary_tangents.copy()
    normals[k] *= -1.0
    tangents[k] *= -1.0
    flipped = replace(mesh, boundary_normals=normals, boundary_tangents=tangents)
    assert _validate_message(flipped) == loop_first_fault(flipped) is not None
    # flip a local edge sign in two triangles: the first one is reported
    t = data.draw(st.integers(0, mesh.triangle_count - 2))
    signs = mesh.triangle_edge_signs.copy()
    signs[t, data.draw(st.integers(0, 2))] *= -1
    signs[-1, 0] *= -1
    broken = replace(mesh, triangle_edge_signs=signs)
    assert _validate_message(broken) == loop_first_fault(broken) is not None
