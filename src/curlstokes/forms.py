"""Assembly of the discrete operators of the weak no-slip formulation.

The velocity block combines the curl-curl form with boundary terms that
impose the tangential data weakly: a symmetric consistency pair and a
penalty scaled by C_w/h. In two dimensions the curl is scalar and the
boundary pairing of curl against tangential traces is realized as

    <gamma_curl(u), gamma_par(v)> = -int_Gamma curl(u) (v . t) ds

with t = rotate90(n) counterclockwise; the sign is pinned by requiring the
integration-by-parts identity (and hence exact consistency) to close.

Every form takes three steps on all cells (or boundary edges) at once:
read the basis tabulated by the batched kernels of ``spaces`` at the points
of its quadrature, contract with one ``einsum``/``matmul``, and scatter. Two
functions tabulate and their caller owns the result, so a driver tabulates
each basis once per rule: ``tabulate_volume(space)`` at the volume rule (the
argument ``v`` of the velocity forms, ``q`` of the pressure forms) and
``tabulate_boundary(V)``, the velocity traces at the boundary rule (the
argument ``boundary``; ``assemble_rhs`` tabulates Q at its points itself).
Matrices are scattered through ``merge_triplets``: one compressed-sparse
conversion (a counting sort by row) groups the triplets and sums each
(row, col) pair. The few pairs of more than two terms, whose sum depends on
the order (the vertex diagonals of the pressure forms; in the boundary
forms only on meshes as coarse as the two-triangle square), are summed
again in ascending order of value, so no sum depends on element processing
order. Vectors are scattered with ``np.add.at`` in triangle order, volume
terms before boundary terms.

The assembled system is bit-identical to a per-triangle loop, and it has to
be: one ulp of noise in A, the load vectors or the mean vector moves the
pressure errors of a jittered order-1 star run (n = 64) by 1e-10 to 9e-10,
and order-2 errors at n = 32 by up to 7e-9, beyond the 1e-10 tolerance of
the reference reports. The rule that keeps the arithmetic identical: where
the per-triangle form used ``@``, the batched one uses stacked ``np.matmul``
on the same operand shapes; where it used ``einsum``, the same subscripts
with a leading cell axis. ``_local_matrix`` serves every local matrix: a
scalar field takes a unit trailing axis, which keeps einsum's arithmetic.
``tests/test_bit_identity.py`` holds the loop reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import sparse

from .quadrature import edge_rule, triangle_rule
from .spaces import (EdgeSpace, NodalSpace, _boundary_points, _cell_weights, _sample,
                     _tabulate_edge, _tabulate_nodal)

#: the Nitsche penalty C_w unless one is given; above the order-1 coercivity
#: threshold C_n^2 (at most 7.71 at n = 64), below the order-2 one (see README)
DEFAULT_C_W = 10.0


@dataclass
class SparseOperator:
    """Assembled bilinear form in compressed sparse form."""

    matrix: sparse.csr_array


def merge_triplets(rows, cols, vals, shape) -> sparse.csr_array:
    """Sum duplicate triplets in a content-determined order.

    One compressed-sparse conversion groups the triplets by (row, col): the
    real parts sum each pair's terms in whatever order, the imaginary parts
    count them. A sum of one or two terms does not depend on the order, as
    fl(a + b) = fl(b + a); the pairs of more terms are summed again with
    their terms in ascending order of value."""
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    vals = np.asarray(vals, dtype=float)
    terms = vals.astype(complex)      # vals + 1j would turn -0.0 into 0.0
    terms.imag = 1.0
    merged = sparse.coo_array((terms, (rows, cols)), shape=shape).tocsr()
    out = sparse.csr_array((merged.data.real.copy(), merged.indices, merged.indptr), shape=shape)
    many = np.flatnonzero(merged.data.imag > 2)
    if many.size:
        # their triplets, found by the key row * ncols + col of each pair
        keys = (np.repeat(np.arange(shape[0]), np.diff(out.indptr))[many] * shape[1]
                + out.indices[many])
        key = rows * shape[1] + cols
        slot = np.minimum(np.searchsorted(keys, key), many.size - 1)
        mine = keys[slot] == key
        slot, values = slot[mine], vals[mine]
        order = np.lexsort((values, slot))
        starts = np.flatnonzero(np.diff(slot[order], prepend=-1))
        out.data[many] = np.add.reduceat(values[order], starts)
    return out


def _assemble_cells(row_dofs: np.ndarray, col_dofs: np.ndarray, local: np.ndarray,
                    shape) -> sparse.csr_array:
    """Scatter local matrices (F', m, n) on cells with dofs (F', m) and (F', n)."""
    rows = np.broadcast_to(row_dofs[:, :, None], local.shape)
    cols = np.broadcast_to(col_dofs[:, None, :], local.shape)
    return merge_triplets(rows.ravel(), cols.ravel(), local.ravel(), shape)


def _volume_rule(space: EdgeSpace | NodalSpace):
    return triangle_rule(2 * space.order + 2)


def _boundary_rule(space: EdgeSpace | NodalSpace):
    return edge_rule(2 * space.order + 2)


def tabulate_volume(space: EdgeSpace | NodalSpace):
    """The weights (F, k) of ``_volume_rule(space)`` on every cell and the
    basis tabulated at its points: values and curls of an edge space
    (``_tabulate_edge``), values and gradients of a nodal one."""
    rule = _volume_rule(space)
    tabulate = _tabulate_edge if isinstance(space, EdgeSpace) else _tabulate_nodal
    return (_cell_weights(space.mesh, rule), *tabulate(space, rule.points))


def _local_matrix(w: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Local matrices sum_k w[f, k] a[f, k, i, :] . b[f, k, j, :], (F', m, n),
    of cells or boundary edges; scalar fields carry a unit trailing axis."""
    return np.einsum("fk,fkid,fkjd->fij", w, a, b)


def assemble_mass(V: EdgeSpace, v) -> SparseOperator:
    """Velocity mass matrix (v_i, v_j)."""
    w, phi, _ = v
    local = _local_matrix(w, phi, phi)
    return SparseOperator(_assemble_cells(V.cell_dofs, V.cell_dofs, local, (V.dof_count,) * 2))


def assemble_curl_curl(V: EdgeSpace, v) -> SparseOperator:
    """Curl-curl matrix (curl v_i, curl v_j); discrete gradients lie in its kernel."""
    w, _, curls = v
    local = _local_matrix(w, curls[..., None], curls[..., None])
    return SparseOperator(_assemble_cells(V.cell_dofs, V.cell_dofs, local, (V.dof_count,) * 2))


def tabulate_boundary(V: EdgeSpace):
    """``_boundary_points`` of ``_boundary_rule(V)`` (triangle, weights,
    barycentric and physical points), then the tangential traces (Bn, k, nloc)
    and curls (Bn, k, nloc) of the basis there."""
    tri, w, bary, pts = _boundary_points(V.mesh, _boundary_rule(V))
    phi, curls = _tabulate_edge(V, bary, tri)
    trace = np.matmul(phi, V.mesh.boundary_tangents[:, None, :, None])[..., 0]
    return tri, w, bary, pts, trace, curls


def assemble_nitsche(V: EdgeSpace, C_w: float, boundary) -> SparseOperator:
    """Boundary part of the velocity form: consistency, symmetry and penalty
    C_w/h, h the mesh's ``h_max`` (coercive for C_w > C_n^2, see README)."""
    tri, w, _, _, trace, curls = boundary
    trace = trace[..., None]
    pen = C_w / V.mesh.h_max * _local_matrix(w, trace, trace)
    cons = -_local_matrix(w, trace, curls[..., None])
    local = pen + cons + cons.transpose(0, 2, 1)
    dofs = V.cell_dofs[tri]
    return SparseOperator(_assemble_cells(dofs, dofs, local, (V.dof_count,) * 2))


def _boundary_gram(V: EdgeSpace, boundary):
    """Sparse boundary Grams <v . t, w . t>_Gamma and <curl v, curl w>_Gamma,
    from one tabulation of the boundary traces."""
    tri, w, _, _, trace, curls = boundary
    dofs = V.cell_dofs[tri]
    return tuple(_assemble_cells(dofs, dofs, _local_matrix(w, f, f), (V.dof_count,) * 2)
                 for f in (trace[..., None], curls[..., None]))


def assemble_b(V: EdgeSpace, Q: NodalSpace, v, q) -> SparseOperator:
    """Coupling matrix B[i, j] = (v_i, grad q_j)."""
    if V.mesh is not Q.mesh or V.order != Q.order:
        raise ValueError("velocity and pressure spaces must share a mesh and an order")
    w, phi, _ = v
    _, _, gq = q
    local = _local_matrix(w, phi, gq)
    return SparseOperator(_assemble_cells(V.cell_dofs, Q.cell_dofs, local,
                                          (V.dof_count, Q.dof_count)))


def assemble_stiffness(Q: NodalSpace, q) -> SparseOperator:
    """Pressure stiffness matrix (grad q_i, grad q_j)."""
    w, _, gq = q
    local = _local_matrix(w, gq, gq)
    return SparseOperator(_assemble_cells(Q.cell_dofs, Q.cell_dofs, local, (Q.dof_count,) * 2))


def assemble_mean_vector(Q: NodalSpace, q) -> np.ndarray:
    """Vector of (q_j, 1), used to pin the pressure mean at solve time."""
    w, vals, _ = q
    m = np.zeros(Q.dof_count)
    np.add.at(m, Q.cell_dofs, np.matmul(w[:, None, :], vals)[:, 0])
    return m


def assemble_rhs(V: EdgeSpace, Q: NodalSpace, f: Callable, g: Callable, C_w: float,
                 v, boundary) -> tuple[np.ndarray, np.ndarray]:
    """Both load vectors, (f, v) + C_w/h <g, gamma_par(v)> + <g, gamma_curl(v)>
    and <g . n, q>, from one sampling of the boundary velocity g(x, y), whose
    tangential part the traces select."""
    if V.mesh is not Q.mesh or V.order != Q.order:
        raise ValueError("velocity and pressure spaces must share a mesh and an order")
    mesh = V.mesh
    w, phi, _ = v
    fv = _sample(f, np.matmul(_volume_rule(V).points, mesh.vertices[mesh.triangles]))
    rhs_u = np.zeros(V.dof_count)
    np.add.at(rhs_u, V.cell_dofs, np.einsum("fk,fkd,fkid->fi", w, fv, phi))
    tri, w, bary, pts, trace, curls = boundary
    gv = _sample(g, pts)
    gt = np.matmul(gv, mesh.boundary_tangents[:, :, None])[..., 0]
    np.add.at(rhs_u, V.cell_dofs[tri],
              C_w / mesh.h_max * np.einsum("ek,ek,eki->ei", w, gt, trace)
              - np.einsum("ek,ek,eki->ei", w, gt, curls))
    gn = np.matmul(gv, mesh.boundary_normals[:, :, None])[..., 0]
    q, _ = _tabulate_nodal(Q, bary, tri)
    rhs_q = np.zeros(Q.dof_count)
    np.add.at(rhs_q, Q.cell_dofs[tri], np.einsum("ek,ek,eki->ei", w, gn, q))
    return rhs_u, rhs_q


def assemble_velocity_block(V: EdgeSpace, C_w: float, v, boundary) -> SparseOperator:
    """Full velocity operator: curl-curl plus the boundary terms."""
    k = assemble_curl_curl(V, v)
    n = assemble_nitsche(V, C_w, boundary)
    return SparseOperator((k.matrix + n.matrix).tocsr())
