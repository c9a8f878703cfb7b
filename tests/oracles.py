"""Exact-structure oracles of the discrete spaces, read only by the tests.

Moment interpolation into the edge space, pointwise Lagrange interpolation,
the exact edge-space coefficients of the nodal basis gradients, the L2
distance of those gradients to the edge space (the gradient inclusion, which
sits at roundoff when it holds), and the three-block Hodge decomposition by
full SVDs of the coupling and of the dense curl factor, whose harmonic block
spans what ``analysis.harmonic_fields`` computes. ``solve_fields`` runs the Nitsche solve of a case on one mesh, as
``experiments.run_convergence`` solves a level, and returns the report with
the spaces its coefficient arrays belong to; ``probe_infsup`` measures
beta_h from the blocks that ``experiments.run_probe`` assembles.
"""
from __future__ import annotations

from typing import Callable

import numpy as np
import scipy.linalg
from scipy.sparse import csr_array
from scipy.sparse.linalg import splu

from curlstokes.analysis import _boundary_gram
from curlstokes.experiments import _spaces, build_saddle_system
from curlstokes.forms import (DEFAULT_C_W, _cell_weights, _volume_rule, assemble_b,
                              assemble_curl_curl, assemble_mass, assemble_mean_vector,
                              assemble_stiffness)
from curlstokes.quadrature import edge_rule, triangle_rule
from curlstokes.solver import KERNEL_RANK_RTOL, SolveReport, estimate_infsup, solve
from curlstokes.spaces import (_ALL, EdgeSpace, NodalSpace, _cell_moments, _edge_field,
                               _edge_moments, _edge_points, _sample, _tabulate_edge,
                               _tabulate_nodal)


def interpolate_edge(space: EdgeSpace, field: Callable | np.ndarray) -> np.ndarray:
    """Coefficients in ``space`` of the interpolant of a vector field by its
    edge (and, at order 2, interior) moments.

    ``field`` is either a callable ``field(x, y) -> (k, 2)`` or a
    coefficient array of ``space``. Edge moments are taken from the first
    adjacent triangle; this is well defined for tangentially continuous
    fields.
    """
    mesh = space.mesh
    discrete = not callable(field)
    if discrete and np.shape(field) != (space.dof_count,):
        raise ValueError(f"coefficient shape {np.shape(field)} does not match "
                         f"the {space.dof_count} dofs of the edge space")

    def values(bary, cells, pts):
        return _edge_field(space, field, bary, cells)[0] if discrete else _sample(field, pts)

    degree = 2 * space.order + 2
    erule = edge_rule(degree)
    tri, length, bary, pts = _edge_points(mesh, np.arange(mesh.edge_count), erule.points)
    tang = np.diff(mesh.vertices[mesh.edges], axis=1)[:, 0] / length[:, None]
    trace = np.matmul(values(bary, tri, pts), tang[:, :, None])          # (E, k, 1)
    coeffs = np.empty(space.dof_count)
    coeffs[space.edge_dofs] = _edge_moments(erule, length, trace)[:, :space.order, 0]
    if space.order == 2:
        trule = triangle_rule(degree)
        vals = values(trule.points, _ALL, np.matmul(trule.points, mesh.vertices[mesh.triangles]))
        w = 2.0 * mesh.areas[:, None] * trule.weights
        coeffs[space.cell_dofs[:, 6:]] = _cell_moments(w, vals[:, :, None])[..., 0]
    return coeffs


def interpolate_nodal(space: NodalSpace, f: Callable) -> np.ndarray:
    """Coefficients in ``space`` of the pointwise Lagrange interpolant of a
    scalar field ``f(x, y) -> (k,)``."""
    mesh = space.mesh
    coeffs = np.empty(space.dof_count)
    coeffs[:mesh.vertex_count] = f(mesh.vertices[:, 0], mesh.vertices[:, 1])
    if space.order == 2:
        mids = 0.5 * (mesh.vertices[mesh.edges[:, 0]] + mesh.vertices[mesh.edges[:, 1]])
        coeffs[mesh.vertex_count:] = f(mids[:, 0], mids[:, 1])
    return coeffs


def grad_inclusion_check(edge_space: EdgeSpace, nodal_space: NodalSpace) -> float:
    """Largest L2 distance of a nodal basis gradient to the edge space.

    Solves the least-squares projection through the velocity mass matrix and
    integrates the pointwise residual field by quadrature, so the result sits
    at roundoff (not at sqrt(roundoff)) when the gradient inclusion holds.
    """
    if edge_space.order != nodal_space.order:
        raise ValueError("gradient inclusion requires matching orders")
    m = assemble_mass(edge_space).matrix
    b = assemble_b(edge_space, nodal_space).matrix
    lu = splu(m.tocsc())
    x = lu.solve(b.toarray())          # best-approximation coefficients per column

    # residual field of every column at every quadrature point, (F, k, nq, 2)
    rule = triangle_rule(2 * edge_space.order + 2)
    phi, _ = _tabulate_edge(edge_space, rule.points)
    _, gq = _tabulate_nodal(nodal_space, rule.points)
    diff = np.einsum("fkid,fij->fkjd", phi, x[edge_space.cell_dofs])
    nf, k = phi.shape[:2]
    diff[np.arange(nf)[:, None, None], np.arange(k)[:, None],
         nodal_space.cell_dofs[:, None, :]] -= gq
    w = 2.0 * edge_space.mesh.areas[:, None] * rule.weights
    return float(np.sqrt(np.einsum("fk,fkjd->j", w, diff ** 2).max()))


def gradient_coefficients(edge_space: EdgeSpace, nodal_space: NodalSpace) -> csr_array:
    """Exact velocity-space representation of every nodal basis gradient.

    Returns a sparse (edge dof, nodal dof) matrix whose column j holds
    the edge-space coefficients of grad(q_j). Requires matching orders.
    """
    if edge_space.order != nodal_space.order:
        raise ValueError("gradient representation requires matching orders")
    mesh = edge_space.mesh
    if edge_space.order == 1:
        ne = mesh.edge_count
        rows = np.repeat(np.arange(ne), 2)
        cols = mesh.edges.ravel()
        vals = np.tile([-1.0, 1.0], ne)
        return csr_array((vals, (rows, cols)), shape=(ne, nodal_space.dof_count))

    erule = edge_rule(4)
    trule = triangle_rule(2)
    # edge moments of the tangential trace, from the first adjacent triangle
    tri, length, bary, _ = _edge_points(mesh, np.arange(mesh.edge_count), erule.points)
    tang = np.diff(mesh.vertices[mesh.edges], axis=1)[:, 0] / length[:, None]
    _, grads = _tabulate_nodal(nodal_space, bary, tri)                  # (E, k, 6, 2)
    trace = np.matmul(grads, tang[:, None, :, None])[..., 0]           # (E, k, 6)
    _, cell_grads = _tabulate_nodal(nodal_space, trule.points)         # (F, k, 6, 2)
    w = 2.0 * mesh.areas[:, None] * trule.weights
    # one block per edge and per triangle: 2 moment rows by 6 nodal columns
    vals = np.concatenate([_edge_moments(erule, length, trace),
                           _cell_moments(w, cell_grads)])               # (E + F, 2, 6)
    row_dofs = np.concatenate([edge_space.edge_dofs, edge_space.cell_dofs[:, 6:]])
    col_dofs = np.concatenate([nodal_space.cell_dofs[tri], nodal_space.cell_dofs])
    rows = np.broadcast_to(row_dofs[:, :, None], vals.shape)
    cols = np.broadcast_to(col_dofs[:, None, :], vals.shape)
    return csr_array((vals.ravel(), (rows.ravel(), cols.ravel())),
                     shape=(edge_space.dof_count, nodal_space.dof_count))


def _curl_factor(V: EdgeSpace) -> np.ndarray:
    """Dense square-root factor C of the curl-curl matrix: C^T C = K.

    Rows are sqrt-weighted curl evaluations at the assembly quadrature
    points; kernel vectors of C are curl-free to full precision, unlike
    eigenvectors of the squared operator.
    """
    rule = _volume_rule(V)
    _, curls = _tabulate_edge(V, rule.points)                   # (F, k, nloc)
    nf, npts = curls.shape[:2]
    w = np.sqrt(_cell_weights(V.mesh, rule))
    out = np.zeros((nf * npts, V.dof_count))
    out[np.arange(nf * npts).reshape(nf, npts, 1), V.cell_dofs[:, None, :]] = w[..., None] * curls
    return out


def full_svd_hodge(V: EdgeSpace, Q: NodalSpace):
    """Gradient, Z_h and harmonic bases, each M-orthonormal, with full SVDs
    of the coupling and of the whole curl split."""
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


def solve_fields(mesh, order: int, case, C_w: float = DEFAULT_C_W
                 ) -> tuple[SolveReport, EdgeSpace, NodalSpace]:
    """The solve report of a case's Nitsche system on one mesh, and the
    spaces the system was assembled on, which ``report.u`` and ``report.p``
    are coefficient arrays of."""
    V, Q = _spaces(mesh, order)
    return solve(build_saddle_system(V, Q, case, C_w)), V, Q


def probe_infsup(V: EdgeSpace, Q: NodalSpace) -> float:
    """beta_h as ``run_probe`` measures it: the #-norm Gram
    H = M + K + T_par / h + h T_curl against the pressure stiffness."""
    h = V.mesh.h_max
    t_par, t_curl = _boundary_gram(V)
    hash_gram = assemble_mass(V).matrix + assemble_curl_curl(V).matrix + t_par / h + h * t_curl
    return estimate_infsup(hash_gram, assemble_b(V, Q).matrix, assemble_stiffness(Q).matrix,
                           assemble_mean_vector(Q))
