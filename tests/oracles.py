"""Exact-structure oracles of the discrete spaces, read only by the tests.

Moment interpolation into the edge space, pointwise Lagrange interpolation,
and the L2 distance of the nodal basis gradients to the edge space (the
gradient inclusion, which sits at roundoff when it holds).
"""
from __future__ import annotations

from typing import Callable

import numpy as np
from scipy.sparse.linalg import splu

from curlstokes.forms import assemble_b, assemble_mass
from curlstokes.quadrature import edge_rule, triangle_rule
from curlstokes.spaces import (_ALL, DiscreteField, EdgeSpace, NodalSpace,
                               _cell_moments, _edge_field, _edge_moments,
                               _edge_points, _sample, _tabulate_edge,
                               _tabulate_nodal)


def interpolate_edge(space: EdgeSpace, field: Callable | DiscreteField) -> DiscreteField:
    """Interpolate a vector field by its edge (and, at order 2, interior) moments.

    ``field`` is either a callable ``field(x, y) -> (k, 2)`` or a
    DiscreteField on an edge space over the same mesh. Edge moments are
    taken from the first adjacent triangle; this is well defined for
    tangentially continuous fields.
    """
    mesh = space.mesh
    discrete = isinstance(field, DiscreteField)
    if discrete and (field.space.mesh is not mesh or not isinstance(field.space, EdgeSpace)):
        raise ValueError("field must be an edge field on the same mesh")

    def values(bary, cells, pts):
        return _edge_field(field, bary, cells)[0] if discrete else _sample(field, pts)

    degree = 2 * space.order + 2
    erule = edge_rule(degree)
    tri, length, bary, pts = _edge_points(mesh, np.arange(mesh.edge_count), erule.points)
    tang = np.diff(mesh.vertices[mesh.edges], axis=1)[:, 0] / length[:, None]
    trace = np.matmul(values(bary, tri, pts), tang[:, :, None])          # (E, k, 1)
    coeffs = _edge_moments(erule, length, trace).ravel()
    if space.order == 1:
        coeffs = coeffs[0::2]
    else:
        trule = triangle_rule(degree)
        vals = values(trule.points, _ALL, np.matmul(trule.points, mesh.vertices[mesh.triangles]))
        w = 2.0 * mesh.signed_areas()[:, None] * trule.weights
        coeffs = np.concatenate([coeffs, _cell_moments(w, vals[:, :, None]).ravel()])
    return DiscreteField(space, coeffs)


def interpolate_nodal(space: NodalSpace, f: Callable) -> DiscreteField:
    """Pointwise Lagrange interpolation of a scalar field ``f(x, y) -> (k,)``."""
    mesh = space.mesh
    coeffs = np.empty(space.dof_count)
    coeffs[:mesh.vertex_count] = f(mesh.vertices[:, 0], mesh.vertices[:, 1])
    if space.order == 2:
        mids = 0.5 * (mesh.vertices[mesh.edges[:, 0]] + mesh.vertices[mesh.edges[:, 1]])
        coeffs[mesh.vertex_count:] = f(mids[:, 0], mids[:, 1])
    return DiscreteField(space, coeffs)


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
    w = 2.0 * edge_space.mesh.signed_areas()[:, None] * rule.weights
    return float(np.sqrt(np.einsum("fk,fkjd->j", w, diff ** 2).max()))
