"""The batched assembly must reproduce a per-triangle loop bit for bit, and
the thin-SVD Hodge decomposition the full-SVD one.

The loop reference below is the element-by-element formulation the batched
kernels replaced: one basis tabulation, one contraction and one scatter per
triangle or boundary edge. The reported errors react to a single ulp in the
assembled system (see the ``forms`` module docstring), so every comparison
is ``np.array_equal``, not a tolerance. The Hodge reference forms the full
left singular factor of the curl split; ``hodge_decompose`` forms none, it
takes the SVD of the R of a QR. ``harmonic.json`` is checked to 1e-10
against a roundoff-sized ratio, so its bases must not move by a bit either.
"""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from curlstokes.analysis import _boundary_gram, _curl_factor, hodge_decompose
from curlstokes.cases import star_case
from curlstokes.forms import (BoundaryData, assemble_b, assemble_divergence_rhs,
                              assemble_mass, assemble_mass_nodal,
                              assemble_mean_vector, assemble_rhs,
                              assemble_stiffness, assemble_velocity_block,
                              merge_triplets)
from curlstokes.mesh import (generate_l_shape, generate_square_with_hole,
                             generate_unit_square, jitter)
from curlstokes.quadrature import edge_rule, triangle_rule
from curlstokes.solver import KERNEL_RANK_RTOL
from curlstokes.spaces import (build_edge_space, build_nodal_space,
                               gradient_coefficients)

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


def loop_coefficients(mesh, centroids, scales):
    erule = edge_rule(4)
    trule = triangle_rule(3)
    areas = mesh.signed_areas()
    coeff = np.empty((mesh.triangle_count, 8, 8))
    s = erule.points
    leg = 2.0 * s - 1.0
    for t in range(mesh.triangle_count):
        d = np.empty((8, 8))
        for k in range(3):
            a, b = mesh.edges[mesh.triangle_edges[t, k]]
            xa, xb = mesh.vertices[a], mesh.vertices[b]
            length = float(np.hypot(*(xb - xa)))
            tang = (xb - xa) / length
            pts = xa[None, :] + s[:, None] * (xb - xa)[None, :]
            mono = _mono((pts[:, 0] - centroids[t, 0]) / scales[t],
                         (pts[:, 1] - centroids[t, 1]) / scales[t])
            trace = mono @ tang
            d[2 * k] = length * (erule.weights @ trace)
            d[2 * k + 1] = length * ((erule.weights * leg) @ trace)
        pts = trule.points @ mesh.vertices[mesh.triangles[t]]
        mono = _mono((pts[:, 0] - centroids[t, 0]) / scales[t],
                     (pts[:, 1] - centroids[t, 1]) / scales[t])
        w = 2.0 * areas[t] * trule.weights
        d[6] = w @ mono[:, :, 0]
        d[7] = w @ mono[:, :, 1]
        coeff[t] = np.linalg.inv(d)
    return coeff


def loop_edge_basis(V, t, bary):
    g = V.grads[t]
    if V.order == 1:
        vals = np.empty((bary.shape[0], 3, 2))
        curls = np.empty((bary.shape[0], 3))
        for slot, (p, q) in enumerate(_LOCAL_EDGES):
            sgn = V.cell_signs[t, slot]
            vals[:, slot, :] = sgn * (bary[:, p, None] * g[q] - bary[:, q, None] * g[p])
            curls[:, slot] = sgn * 2.0 * (g[p, 0] * g[q, 1] - g[p, 1] * g[q, 0])
        return vals, curls
    pts = bary @ V.mesh.vertices[V.mesh.triangles[t]]
    xh = (pts[:, 0] - V.centroids[t, 0]) / V.scales[t]
    yh = (pts[:, 1] - V.centroids[t, 1]) / V.scales[t]
    c = V.coeff[t]      # checked against loop_coefficients before use
    return (np.einsum("kjd,ji->kid", _mono(xh, yh), c),
            _mono_curls(xh, yh, V.scales[t]) @ c)


def loop_nodal_basis(Q, t, bary):
    g = Q.grads[t]
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


def _merge(blocks, shape):
    rows, cols, vals = zip(*blocks)
    return merge_triplets(np.concatenate(rows), np.concatenate(cols),
                          np.concatenate(vals), shape)


def _block(row_dofs, col_dofs, local):
    return (np.repeat(row_dofs, col_dofs.size), np.tile(col_dofs, row_dofs.size),
            local.ravel())


def loop_cell_matrix(row_space, col_space, basis, rule, subscripts, shape):
    """One cell form: ``basis(t) -> (left, right)`` contracted by ``subscripts``."""
    areas = row_space.mesh.signed_areas()
    blocks = []
    for t in range(row_space.mesh.triangle_count):
        left, right = basis(t)
        w = 2.0 * areas[t] * rule.weights
        blocks.append(_block(row_space.cell_dofs[t], col_space.cell_dofs[t],
                             np.einsum(subscripts, w, left, right)))
    return _merge(blocks, shape)


def loop_velocity_block(V, bd):
    rule = triangle_rule(2 * V.order + 2)
    n = V.dof_count
    curl = lambda t: (loop_edge_basis(V, t, rule.points)[1],) * 2
    k = loop_cell_matrix(V, V, curl, rule, "k,ki,kj->ij", (n, n))
    brule = edge_rule(2 * V.order + 2)
    blocks = []
    for _, _, t, length, trace, curls in loop_boundary(V, brule):
        w = length * brule.weights
        pen = (bd.C_w / V.mesh.h_max) * np.einsum("k,ki,kj->ij", w, trace, trace)
        cons = -np.einsum("k,ki,kj->ij", w, trace, curls)
        blocks.append(_block(V.cell_dofs[t], V.cell_dofs[t], pen + cons + cons.T))
    return (k + _merge(blocks, (n, n))).tocsr()


def loop_boundary_gram(V, c_par, c_curl):
    rule = edge_rule(2 * V.order + 2)
    blocks = []
    for _, _, t, length, trace, curls in loop_boundary(V, rule):
        w = length * rule.weights
        local = (c_par * np.einsum("k,ki,kj->ij", w, trace, trace)
                 + c_curl * np.einsum("k,ki,kj->ij", w, curls, curls))
        blocks.append(_block(V.cell_dofs[t], V.cell_dofs[t], local))
    return _merge(blocks, (V.dof_count,) * 2)


def loop_rhs(V, f, bd):
    mesh = V.mesh
    rule = triangle_rule(2 * V.order + 2)
    areas = mesh.signed_areas()
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
        gt = np.asarray(bd.g(pts[:, 0], pts[:, 1]), dtype=float) @ mesh.boundary_tangents[k]
        w = length * brule.weights
        np.add.at(full, V.cell_dofs[t],
                  (bd.C_w / V.mesh.h_max) * np.einsum("k,k,ki->i", w, gt, trace)
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
    areas = Q.mesh.signed_areas()
    m = np.zeros(Q.dof_count)
    for t in range(Q.mesh.triangle_count):
        q, _ = loop_nodal_basis(Q, t, rule.points)
        np.add.at(m, Q.cell_dofs[t], (2.0 * areas[t] * rule.weights) @ q)
    return m


def full_svd_hodge(V, Q):
    """Grad, Z_h and harmonic bases with the full SVD of the curl split."""
    m = assemble_mass(V).matrix.toarray()
    b = assemble_b(V, Q).matrix.toarray()
    g = gradient_coefficients(V, Q).toarray()
    w, vecs = np.linalg.eigh(g.T @ m @ g)
    keep = w > KERNEL_RANK_RTOL * w.max()
    grad_basis = g @ (vecs[:, keep] / np.sqrt(w[keep]))
    _, s, vt = np.linalg.svd(b.T, full_matrices=True)
    rank = int((s > KERNEL_RANK_RTOL * s.max()).sum()) if s.size else 0
    x = vt[rank:].T
    chol = np.linalg.cholesky(x.T @ m @ x)
    x = scipy.linalg.solve_triangular(chol, x.T, lower=True).T
    _, s, vt = np.linalg.svd(_curl_factor(V) @ x, full_matrices=True)
    smax = s.max(initial=0.0)
    ranks = int((s > KERNEL_RANK_RTOL * smax).sum()) if smax > 0 else 0
    return grad_basis, x @ vt[:ranks].T, x @ vt[ranks:].T


# -- comparison -------------------------------------------------------------

def _same(a, b) -> bool:
    return a.shape == b.shape and np.array_equal(a.toarray(), b.toarray())


meshes = st.one_of(
    st.builds(generate_unit_square, st.integers(1, 4)),
    st.builds(generate_square_with_hole, st.sampled_from([3, 6])))


@settings(max_examples=12, deadline=None)
@given(mesh=meshes, seed=st.one_of(st.none(), st.integers(0, 2 ** 16)))
def test_batched_assembly_is_bit_identical_to_loops(mesh, seed):
    if seed is not None:
        mesh = jitter(mesh, seed)
    case = star_case()
    bd = BoundaryData(g=case.g, C_w=10.0)
    for order in (1, 2):
        V = build_edge_space(mesh, order)
        Q = build_nodal_space(mesh, order)
        if order == 2:
            assert np.array_equal(V.coeff, loop_coefficients(mesh, V.centroids, V.scales))
        nv, nq = V.dof_count, Q.dof_count
        rule = triangle_rule(2 * order + 2)
        edge = lambda t: loop_edge_basis(V, t, rule.points)
        nodal = lambda t: loop_nodal_basis(Q, t, rule.points)

        assert _same(assemble_velocity_block(V, bd).matrix, loop_velocity_block(V, bd))
        h = mesh.h_max
        assert _same(_boundary_gram(V, 1 / h, h), loop_boundary_gram(V, 1 / h, h))
        assert _same(assemble_b(V, Q).matrix, loop_cell_matrix(
            V, Q, lambda t: (edge(t)[0], nodal(t)[1]), rule, "k,kid,kjd->ij", (nv, nq)))
        assert _same(assemble_mass(V).matrix, loop_cell_matrix(
            V, V, lambda t: (edge(t)[0],) * 2, rule, "k,kid,kjd->ij", (nv, nv)))
        assert _same(assemble_mass_nodal(Q).matrix, loop_cell_matrix(
            Q, Q, lambda t: (nodal(t)[0],) * 2, rule, "k,ki,kj->ij", (nq, nq)))
        assert _same(assemble_stiffness(Q).matrix, loop_cell_matrix(
            Q, Q, lambda t: (nodal(t)[1],) * 2, rule, "k,kid,kjd->ij", (nq, nq)))
        assert np.array_equal(assemble_rhs(V, case.f, bd), loop_rhs(V, case.f, bd))
        assert np.array_equal(assemble_divergence_rhs(Q, case.g),
                              loop_divergence_rhs(Q, case.g))
        assert np.array_equal(assemble_mean_vector(Q), loop_mean_vector(Q))


@pytest.mark.parametrize("make, order", [
    (lambda: generate_unit_square(2), 1),
    (lambda: generate_unit_square(2), 2),
    (lambda: generate_l_shape(1), 1),
    (lambda: generate_square_with_hole(3), 1),
    (lambda: generate_square_with_hole(3), 2),
    (lambda: generate_square_with_hole(6), 1),
    (lambda: generate_square_with_hole(6), 2),
    (lambda: jitter(generate_square_with_hole(6), 7), 1),
    # harmonic --n 18's input: 577 columns, most of them through dgeqrf's
    # blocked code (the cases above reach 193); the full-SVD reference here
    # takes about 4 s and 600 MB
    (lambda: generate_square_with_hole(18), 1),
], ids=["square2-o1", "square2-o2", "lshape1-o1", "hole3-o1", "hole3-o2",
        "hole6-o1", "hole6-o2", "hole6-jitter7-o1", "hole18-o1"])
def test_hodge_decomposition_is_bit_identical_to_full_svd(make, order):
    mesh = make()
    V = build_edge_space(mesh, order)
    Q = build_nodal_space(mesh, order)
    dec = hodge_decompose(V, Q)
    grad_basis, z_basis, harmonic_basis = full_svd_hodge(V, Q)
    assert np.array_equal(dec.grad_basis, grad_basis)
    assert np.array_equal(dec.z_basis, z_basis)
    assert np.array_equal(dec.harmonic_basis, harmonic_basis)
