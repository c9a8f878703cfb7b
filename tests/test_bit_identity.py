"""The batched assembly must reproduce a per-triangle loop bit for bit.

The loop reference below is the element-by-element formulation the batched
kernels replaced: one basis tabulation, one contraction and one scatter per
triangle or boundary edge. It scatters through ``lexsort_merge``, its own
copy of the original merge, which sums every (row, col) pair's terms in
ascending order of value after a three-key sort; ``merge_triplets`` is
checked against that copy too. The reported errors react to a single ulp in
the assembled system (see the ``forms`` module docstring), so every
comparison is exact: matrices by their canonical CSR arrays, explicit zeros
and the bits of every value included.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import sparse

from curlstokes.cases import get_case
from curlstokes.forms import (_boundary_gram, assemble_b, assemble_mass,
                              assemble_mean_vector, assemble_rhs, assemble_stiffness,
                              assemble_velocity_block, merge_triplets, tabulate_boundary,
                              tabulate_volume)
from curlstokes.mesh import generate_square_with_hole, generate_unit_square, jitter
from curlstokes.quadrature import edge_rule, triangle_rule
from curlstokes.spaces import build_edge_space, build_nodal_space

_LOCAL_EDGES = ((0, 1), (1, 2), (2, 0))


# -- loop reference ---------------------------------------------------------

def _mono(xh, yh):
    m = np.zeros((xh.shape[0], 8, 2))
    m[:, 0, 0] = 1.0
    m[:, 1, 0] = xh
    m[:, 2, 0] = yh
    m[:, 3, 1] = 1.0
    m[:, 4, 1] = xh
    m[:, 5, 1] = yh
    m[:, 6, 0] = xh * yh
    m[:, 6, 1] = -xh * xh
    m[:, 7, 0] = yh * yh
    m[:, 7, 1] = -xh * yh
    return m


def _mono_curls(xh, yh, scale):
    c = np.zeros((xh.shape[0], 8))
    c[:, 2] = -1.0
    c[:, 4] = 1.0
    c[:, 6] = -3.0 * xh
    c[:, 7] = -3.0 * yh
    return c / scale


def loop_coefficients(mesh):
    erule = edge_rule(4)
    trule = triangle_rule(3)
    areas, scales = mesh.areas, mesh.diameters
    coeff = np.empty((mesh.triangle_count, 8, 8))
    s = erule.points
    leg = 2.0 * s - 1.0
    for t in range(mesh.triangle_count):
        corners = mesh.vertices[mesh.triangles[t]]
        centroid = corners.mean(axis=0)
        d = np.empty((8, 8))
        for k in range(3):
            a, b = mesh.edges[mesh.triangle_edges[t, k]]
            xa, xb = mesh.vertices[a], mesh.vertices[b]
            length = float(np.hypot(*(xb - xa)))
            tang = (xb - xa) / length
            pts = xa[None, :] + s[:, None] * (xb - xa)[None, :]
            mono = _mono((pts[:, 0] - centroid[0]) / scales[t],
                         (pts[:, 1] - centroid[1]) / scales[t])
            trace = mono @ tang
            d[2 * k] = length * (erule.weights @ trace)
            d[2 * k + 1] = length * ((erule.weights * leg) @ trace)
        pts = trule.points @ corners
        mono = _mono((pts[:, 0] - centroid[0]) / scales[t],
                     (pts[:, 1] - centroid[1]) / scales[t])
        w = 2.0 * areas[t] * trule.weights
        d[6] = w @ mono[:, :, 0]
        d[7] = w @ mono[:, :, 1]
        coeff[t] = np.linalg.inv(d)
    return coeff


def loop_edge_basis(V, t, bary):
    mesh = V.mesh
    g = mesh.grads[t]
    if V.order == 1:
        vals = np.empty((bary.shape[0], 3, 2))
        curls = np.empty((bary.shape[0], 3))
        for slot, (p, q) in enumerate(_LOCAL_EDGES):
            sgn = mesh.triangle_edge_signs[t, slot]
            vals[:, slot, :] = sgn * (bary[:, p, None] * g[q] - bary[:, q, None] * g[p])
            curls[:, slot] = sgn * 2.0 * (g[p, 0] * g[q, 1] - g[p, 1] * g[q, 0])
        return vals, curls
    corners = mesh.vertices[mesh.triangles[t]]
    pts = bary @ corners
    centroid, scale = corners.mean(axis=0), mesh.diameters[t]
    xh = (pts[:, 0] - centroid[0]) / scale
    yh = (pts[:, 1] - centroid[1]) / scale
    c = V.coeff[t]      # checked against loop_coefficients before use
    return (np.einsum("kjd,ji->kid", _mono(xh, yh), c),
            _mono_curls(xh, yh, scale) @ c)


def loop_nodal_basis(Q, t, bary):
    g = Q.mesh.grads[t]
    if Q.order == 1:
        return bary.copy(), np.broadcast_to(g, (bary.shape[0], 3, 2)).copy()
    vals = np.empty((bary.shape[0], 6))
    grads = np.empty((bary.shape[0], 6, 2))
    for i in range(3):
        vals[:, i] = bary[:, i] * (2.0 * bary[:, i] - 1.0)
        grads[:, i, :] = (4.0 * bary[:, i, None] - 1.0) * g[i]
    for slot, (p, q) in enumerate(_LOCAL_EDGES):
        vals[:, 3 + slot] = 4.0 * bary[:, p] * bary[:, q]
        grads[:, 3 + slot, :] = 4.0 * (bary[:, p, None] * g[q] + bary[:, q, None] * g[p])
    return vals, grads


def loop_edge_points(mesh, e, t, s):
    a, b = mesh.edges[e]
    tri = mesh.triangles[t]
    bary = np.zeros((s.size, 3))
    bary[:, int(np.nonzero(tri == a)[0][0])] = 1.0 - s
    bary[:, int(np.nonzero(tri == b)[0][0])] = s
    return bary


def loop_boundary(V, rule):
    mesh = V.mesh
    for k, e in enumerate(mesh.boundary_edges):
        t = int(mesh.edge_triangles[e, 0])
        a, b = mesh.edges[e]
        length = float(np.hypot(*(mesh.vertices[b] - mesh.vertices[a])))
        phi, curls = loop_edge_basis(V, t, loop_edge_points(mesh, e, t, rule.points))
        yield k, e, t, length, phi @ mesh.boundary_tangents[k], curls


def lexsort_merge(rows, cols, vals, shape):
    """The original ``merge_triplets``: a (row, col, value) lexsort, then one
    ``np.add.reduceat`` over each pair's terms in ascending order."""
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    vals = np.asarray(vals, dtype=float)
    order = np.lexsort((vals, cols, rows))
    r, c, v = rows[order], cols[order], vals[order]
    if r.size == 0:
        return sparse.csr_array(shape)
    new = np.nonzero((r[1:] != r[:-1]) | (c[1:] != c[:-1]))[0] + 1
    starts = np.concatenate([[0], new])
    sums = np.add.reduceat(v, starts)
    return sparse.csr_array((sums, (r[starts], c[starts])), shape=shape)


def _merge(blocks, shape):
    rows, cols, vals = zip(*blocks)
    return lexsort_merge(np.concatenate(rows), np.concatenate(cols),
                          np.concatenate(vals), shape)


def _block(row_dofs, col_dofs, local):
    return (np.repeat(row_dofs, col_dofs.size), np.tile(col_dofs, row_dofs.size),
            local.ravel())


def loop_cell_matrix(row_space, col_space, basis, rule, subscripts, shape):
    """One cell form: ``basis(t) -> (left, right)`` contracted by ``subscripts``."""
    areas = row_space.mesh.areas
    blocks = []
    for t in range(row_space.mesh.triangle_count):
        left, right = basis(t)
        w = 2.0 * areas[t] * rule.weights
        blocks.append(_block(row_space.cell_dofs[t], col_space.cell_dofs[t],
                             np.einsum(subscripts, w, left, right)))
    return _merge(blocks, shape)


def loop_velocity_block(V, C_w):
    rule = triangle_rule(2 * V.order + 2)
    n = V.dof_count
    curl = lambda t: (loop_edge_basis(V, t, rule.points)[1],) * 2
    k = loop_cell_matrix(V, V, curl, rule, "k,ki,kj->ij", (n, n))
    brule = edge_rule(2 * V.order + 2)
    blocks = []
    for _, _, t, length, trace, curls in loop_boundary(V, brule):
        w = length * brule.weights
        pen = (C_w / V.mesh.h_max) * np.einsum("k,ki,kj->ij", w, trace, trace)
        cons = -np.einsum("k,ki,kj->ij", w, trace, curls)
        blocks.append(_block(V.cell_dofs[t], V.cell_dofs[t], pen + cons + cons.T))
    return (k + _merge(blocks, (n, n))).tocsr()


def loop_boundary_grams(V):
    """The tangential and the curl boundary Gram, unscaled."""
    rule = edge_rule(2 * V.order + 2)
    t_par, t_curl = [], []
    for _, _, t, length, trace, curls in loop_boundary(V, rule):
        w = length * rule.weights
        dofs = V.cell_dofs[t]
        t_par.append(_block(dofs, dofs, np.einsum("k,ki,kj->ij", w, trace, trace)))
        t_curl.append(_block(dofs, dofs, np.einsum("k,ki,kj->ij", w, curls, curls)))
    return _merge(t_par, (V.dof_count,) * 2), _merge(t_curl, (V.dof_count,) * 2)


def loop_rhs(V, f, g, C_w):
    mesh = V.mesh
    rule = triangle_rule(2 * V.order + 2)
    areas = mesh.areas
    full = np.zeros(V.dof_count)
    for t in range(mesh.triangle_count):
        phi, _ = loop_edge_basis(V, t, rule.points)
        pts = rule.points @ mesh.vertices[mesh.triangles[t]]
        fv = np.asarray(f(pts[:, 0], pts[:, 1]), dtype=float)
        w = 2.0 * areas[t] * rule.weights
        np.add.at(full, V.cell_dofs[t], np.einsum("k,kd,kid->i", w, fv, phi))
    brule = edge_rule(2 * V.order + 2)
    for k, e, t, length, trace, curls in loop_boundary(V, brule):
        a, b = mesh.edges[e]
        pts = mesh.vertices[a][None, :] + brule.points[:, None] * (
            mesh.vertices[b] - mesh.vertices[a])[None, :]
        gt = np.asarray(g(pts[:, 0], pts[:, 1]), dtype=float) @ mesh.boundary_tangents[k]
        w = length * brule.weights
        np.add.at(full, V.cell_dofs[t],
                  (C_w / V.mesh.h_max) * np.einsum("k,k,ki->i", w, gt, trace)
                  - np.einsum("k,k,ki->i", w, gt, curls))
    return full


def loop_divergence_rhs(Q, g):
    mesh = Q.mesh
    rule = edge_rule(2 * Q.order + 2)
    out = np.zeros(Q.dof_count)
    for k, e in enumerate(mesh.boundary_edges):
        t = int(mesh.edge_triangles[e, 0])
        a, b = mesh.edges[e]
        length = float(np.hypot(*(mesh.vertices[b] - mesh.vertices[a])))
        pts = mesh.vertices[a][None, :] + rule.points[:, None] * (
            mesh.vertices[b] - mesh.vertices[a])[None, :]
        gn = np.asarray(g(pts[:, 0], pts[:, 1]), dtype=float) @ mesh.boundary_normals[k]
        q, _ = loop_nodal_basis(Q, t, loop_edge_points(mesh, e, t, rule.points))
        w = length * rule.weights
        np.add.at(out, Q.cell_dofs[t], np.einsum("k,k,ki->i", w, gn, q))
    return out


def loop_mean_vector(Q):
    rule = triangle_rule(2 * Q.order + 2)
    areas = Q.mesh.areas
    m = np.zeros(Q.dof_count)
    for t in range(Q.mesh.triangle_count):
        q, _ = loop_nodal_basis(Q, t, rule.points)
        np.add.at(m, Q.cell_dofs[t], (2.0 * areas[t] * rule.weights) @ q)
    return m


# -- comparison -------------------------------------------------------------

def _same(a, b) -> bool:
    """Equal canonical CSR arrays: shape, indptr, indices and the bits of
    data, explicit zeros included."""
    return (a.format == b.format == "csr" and a.shape == b.shape
            and a.has_canonical_format and b.has_canonical_format
            and np.array_equal(a.indptr, b.indptr) and np.array_equal(a.indices, b.indices)
            and np.array_equal(a.data.view(np.uint64), b.data.view(np.uint64)))


@st.composite
def triplets(draw):
    """Triplets of 1 to 8 terms per (row, col) pair, in shuffled order, with
    values drawn from a small pool and its negatives, so that values repeat
    and sums cancel exactly; the pool spans 40 decades, so that the order of
    a sum of three or more terms changes its bits."""
    shape = (draw(st.integers(1, 5)), draw(st.integers(1, 5)))
    cells = st.tuples(st.integers(0, shape[0] - 1), st.integers(0, shape[1] - 1))
    pairs = draw(st.lists(cells, unique=True, max_size=10))
    pool = draw(st.lists(st.floats(-1e20, 1e20, allow_nan=False), min_size=1, max_size=4))
    terms = st.sampled_from(pool + [-x for x in pool])
    flat = [(r, c, v) for r, c in pairs for v in draw(st.lists(terms, min_size=1, max_size=8))]
    flat = draw(st.permutations(flat))
    return (np.array([t[0] for t in flat], dtype=np.int64),
            np.array([t[1] for t in flat], dtype=np.int64),
            np.array([t[2] for t in flat], dtype=float), shape)


@settings(max_examples=300, deadline=None)
@given(triplets())
@example((np.array([0, 0, 1, 1, 1]), np.array([1, 1, 0, 0, 0]),
          np.array([2.5, -2.5, 1e16, 1.0, -1e16]), (2, 2)))
@example((np.zeros(0, np.int64), np.zeros(0, np.int64), np.zeros(0), (3, 2)))
def test_merge_triplets_matches_the_lexsort_merge(data):
    rows, cols, vals, shape = data
    merged = merge_triplets(rows, cols, vals, shape)
    assert _same(merged, lexsort_merge(rows, cols, vals, shape))
    # an exact cancellation stays an explicit zero
    assert merged.nnz == len(set(zip(rows.tolist(), cols.tolist())))


meshes = st.one_of(
    st.builds(generate_unit_square, st.integers(1, 4)),
    st.builds(generate_square_with_hole, st.sampled_from([3, 6])))


@settings(max_examples=12, deadline=None)
@given(mesh=meshes, seed=st.one_of(st.none(), st.integers(0, 2 ** 16)))
def test_batched_assembly_is_bit_identical_to_loops(mesh, seed):
    if seed is not None:
        mesh = jitter(mesh, seed)
    case = get_case("star")
    for order in (1, 2):
        V = build_edge_space(mesh, order)
        Q = build_nodal_space(mesh, order)
        if order == 2:
            assert np.array_equal(V.coeff, loop_coefficients(mesh))
        nv, nq = V.dof_count, Q.dof_count
        rule = triangle_rule(2 * order + 2)
        edge = lambda t: loop_edge_basis(V, t, rule.points)
        nodal = lambda t: loop_nodal_basis(Q, t, rule.points)
        v, q, boundary = tabulate_volume(V), tabulate_volume(Q), tabulate_boundary(V)

        assert _same(assemble_velocity_block(V, 10.0, v, boundary).matrix,
                     loop_velocity_block(V, 10.0))
        for batched, loop in zip(_boundary_gram(V, boundary), loop_boundary_grams(V)):
            assert _same(batched, loop)
        assert _same(assemble_b(V, Q, v, q).matrix, loop_cell_matrix(
            V, Q, lambda t: (edge(t)[0], nodal(t)[1]), rule, "k,kid,kjd->ij", (nv, nq)))
        assert _same(assemble_mass(V, v).matrix, loop_cell_matrix(
            V, V, lambda t: (edge(t)[0],) * 2, rule, "k,kid,kjd->ij", (nv, nv)))
        assert _same(assemble_stiffness(Q, q).matrix, loop_cell_matrix(
            Q, Q, lambda t: (nodal(t)[1],) * 2, rule, "k,kid,kjd->ij", (nq, nq)))
        rhs_u, rhs_q = assemble_rhs(V, Q, case.f, case.u, 10.0, v, boundary)
        assert np.array_equal(rhs_u, loop_rhs(V, case.f, case.u, 10.0))
        assert np.array_equal(rhs_q, loop_divergence_rhs(Q, case.u))
        assert np.array_equal(assemble_mean_vector(Q, q), loop_mean_vector(Q))
