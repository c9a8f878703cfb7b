"""Assembly of the discrete operators of the weak no-slip formulation.

The velocity block combines the curl-curl form with boundary terms that
impose the tangential data weakly: a symmetric consistency pair and a
penalty scaled by C_w/h. In two dimensions the curl is scalar and the
boundary pairing of curl against tangential traces is realized as

    <gamma_curl(u), gamma_par(v)> = -int_Gamma curl(u) (v . t) ds

with t = rotate90(n) counterclockwise; the sign is pinned by requiring the
integration-by-parts identity (and hence exact consistency) to close.

Every form takes three steps on all cells (or boundary edges) at once:
tabulate the basis with the batched kernels of ``spaces``, contract with one
``einsum``/``matmul``, and scatter. Matrices are scattered through
``merge_triplets``, whose fixed (row, col, value) sort makes them independent
of element processing order; vectors are scattered with ``np.add.at`` in
triangle order, volume terms before boundary terms.

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
from .spaces import (EdgeSpace, NodalSpace, _edge_points, _sample, _tabulate_edge,
                     _tabulate_nodal)

#: the Nitsche penalty C_w unless one is given; above the order-1 coercivity
#: threshold C_n^2 (at most 7.71 at n = 64), below the order-2 one (see README)
DEFAULT_C_W = 10.0


@dataclass
class SparseOperator:
    """Assembled bilinear form in compressed sparse form."""

    matrix: sparse.csr_array


def merge_triplets(rows, cols, vals, shape) -> sparse.csr_array:
    """Sum duplicate triplets in a content-determined order."""
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


def _cell_weights(mesh, rule) -> np.ndarray:
    """Physical quadrature weights per triangle, (F, k)."""
    return 2.0 * mesh.areas[:, None] * rule.weights


def _local_matrix(w: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Local matrices sum_k w[f, k] a[f, k, i, :] . b[f, k, j, :], (F', m, n),
    of cells or boundary edges; scalar fields carry a unit trailing axis."""
    return np.einsum("fk,fkid,fkjd->fij", w, a, b)


def assemble_mass(V: EdgeSpace) -> SparseOperator:
    """Velocity mass matrix (v_i, v_j)."""
    rule = _volume_rule(V)
    phi, _ = _tabulate_edge(V, rule.points)
    local = _local_matrix(_cell_weights(V.mesh, rule), phi, phi)
    return SparseOperator(_assemble_cells(V.cell_dofs, V.cell_dofs, local, (V.dof_count,) * 2))


def assemble_curl_curl(V: EdgeSpace) -> SparseOperator:
    """Curl-curl matrix (curl v_i, curl v_j); discrete gradients lie in its kernel."""
    rule = _volume_rule(V)
    _, curls = _tabulate_edge(V, rule.points)
    local = _local_matrix(_cell_weights(V.mesh, rule), curls[..., None], curls[..., None])
    return SparseOperator(_assemble_cells(V.cell_dofs, V.cell_dofs, local, (V.dof_count,) * 2))


def _boundary_edge_data(V: EdgeSpace, rule):
    """Per boundary edge: adjacent triangle, length, physical points, and the
    tangential traces (Bn, k, nloc) and curls (Bn, k, nloc) of the basis."""
    mesh = V.mesh
    tri, length, bary, pts = _edge_points(mesh, mesh.boundary_edges, rule.points)
    phi, curls = _tabulate_edge(V, bary, tri)
    trace = np.matmul(phi, mesh.boundary_tangents[:, None, :, None])[..., 0]
    return tri, length, pts, trace, curls


def assemble_nitsche(V: EdgeSpace, C_w: float) -> SparseOperator:
    """Boundary part of the velocity form: consistency, symmetry and penalty
    C_w/h, h the mesh's ``h_max`` (coercive for C_w > C_n^2, see README)."""
    rule = _boundary_rule(V)
    tri, length, _, trace, curls = _boundary_edge_data(V, rule)
    w = length[:, None] * rule.weights
    trace = trace[..., None]
    pen = C_w / V.mesh.h_max * _local_matrix(w, trace, trace)
    cons = -_local_matrix(w, trace, curls[..., None])
    local = pen + cons + cons.transpose(0, 2, 1)
    dofs = V.cell_dofs[tri]
    return SparseOperator(_assemble_cells(dofs, dofs, local, (V.dof_count,) * 2))


def assemble_b(V: EdgeSpace, Q: NodalSpace) -> SparseOperator:
    """Coupling matrix B[i, j] = (v_i, grad q_j)."""
    if V.mesh is not Q.mesh or V.order != Q.order:
        raise ValueError("velocity and pressure spaces must share a mesh and an order")
    rule = _volume_rule(V)
    phi, _ = _tabulate_edge(V, rule.points)
    _, gq = _tabulate_nodal(Q, rule.points)
    local = _local_matrix(_cell_weights(V.mesh, rule), phi, gq)
    return SparseOperator(_assemble_cells(V.cell_dofs, Q.cell_dofs, local,
                                          (V.dof_count, Q.dof_count)))


def assemble_mass_nodal(Q: NodalSpace) -> SparseOperator:
    """Pressure mass matrix (q_i, q_j)."""
    rule = _volume_rule(Q)
    q, _ = _tabulate_nodal(Q, rule.points)
    local = _local_matrix(_cell_weights(Q.mesh, rule), q[..., None], q[..., None])
    return SparseOperator(_assemble_cells(Q.cell_dofs, Q.cell_dofs, local, (Q.dof_count,) * 2))


def assemble_stiffness(Q: NodalSpace) -> SparseOperator:
    """Pressure stiffness matrix (grad q_i, grad q_j)."""
    rule = _volume_rule(Q)
    _, gq = _tabulate_nodal(Q, rule.points)
    local = _local_matrix(_cell_weights(Q.mesh, rule), gq, gq)
    return SparseOperator(_assemble_cells(Q.cell_dofs, Q.cell_dofs, local, (Q.dof_count,) * 2))


def assemble_mean_vector(Q: NodalSpace) -> np.ndarray:
    """Vector of (q_j, 1), used to pin the pressure mean at solve time."""
    rule = _volume_rule(Q)
    q, _ = _tabulate_nodal(Q, rule.points)
    w = _cell_weights(Q.mesh, rule)
    m = np.zeros(Q.dof_count)
    np.add.at(m, Q.cell_dofs, np.matmul(w[:, None, :], q)[:, 0])
    return m


def assemble_rhs(V: EdgeSpace, f: Callable, g: Callable, C_w: float) -> np.ndarray:
    """Load vector (f, v) + C_w/h <g, gamma_par(v)> + <g, gamma_curl(v)>; g(x, y)
    is the full boundary velocity, whose tangential part the traces select."""
    mesh = V.mesh
    rule = _volume_rule(V)
    phi, _ = _tabulate_edge(V, rule.points)
    fv = _sample(f, np.matmul(rule.points, mesh.vertices[mesh.triangles]))
    out = np.zeros(V.dof_count)
    np.add.at(out, V.cell_dofs,
              np.einsum("fk,fkd,fkid->fi", _cell_weights(mesh, rule), fv, phi))
    brule = _boundary_rule(V)
    tri, length, pts, trace, curls = _boundary_edge_data(V, brule)
    gt = np.matmul(_sample(g, pts), mesh.boundary_tangents[:, :, None])[..., 0]
    w = length[:, None] * brule.weights
    np.add.at(out, V.cell_dofs[tri],
              C_w / V.mesh.h_max * np.einsum("ek,ek,eki->ei", w, gt, trace)
              - np.einsum("ek,ek,eki->ei", w, gt, curls))
    return out


def assemble_divergence_rhs(Q: NodalSpace, g: Callable) -> np.ndarray:
    """Boundary consistency term <g . n, q_j> for nonzero normal data."""
    mesh = Q.mesh
    rule = _boundary_rule(Q)
    tri, length, bary, pts = _edge_points(mesh, mesh.boundary_edges, rule.points)
    gn = np.matmul(_sample(g, pts), mesh.boundary_normals[:, :, None])[..., 0]
    q, _ = _tabulate_nodal(Q, bary, tri)
    w = length[:, None] * rule.weights
    out = np.zeros(Q.dof_count)
    np.add.at(out, Q.cell_dofs[tri], np.einsum("ek,ek,eki->ei", w, gn, q))
    return out


def assemble_velocity_block(V: EdgeSpace, C_w: float) -> SparseOperator:
    """Full velocity operator: curl-curl plus the boundary terms."""
    k = assemble_curl_curl(V)
    n = assemble_nitsche(V, C_w)
    return SparseOperator((k.matrix + n.matrix).tocsr())
