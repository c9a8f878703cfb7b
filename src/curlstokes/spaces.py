"""Discrete spaces: Nedelec edge elements (first kind) and Lagrange elements.

Velocity lives in an edge-based space conforming in H(curl): order 1 is the
Whitney 1-form family (one degree of freedom per edge), order 2 adds a second
moment per edge and two interior moments per triangle. Pressure lives in the
standard Lagrange space of matching order. Gradients of pressure functions
are exactly representable in the velocity space, which is the structural
property everything downstream relies on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .mesh import Mesh
from .quadrature import edge_rule, triangle_rule

# cycle-order local edges, matching mesh.triangle_edges
_LOCAL_EDGES = ((0, 1), (1, 2), (2, 0))


# monomial basis of the local order-2 space in shifted-scaled coordinates:
# (P1)^2 plus the two homogeneous fields orthogonal to the position vector
def _n2_monomials(xh: np.ndarray, yh: np.ndarray) -> np.ndarray:
    m = np.zeros(xh.shape + (8, 2))
    m[..., 0, 0] = 1.0
    m[..., 1, 0] = xh
    m[..., 2, 0] = yh
    m[..., 3, 1] = 1.0
    m[..., 4, 1] = xh
    m[..., 5, 1] = yh
    m[..., 6, 0] = xh * yh
    m[..., 6, 1] = -xh * xh
    m[..., 7, 0] = yh * yh
    m[..., 7, 1] = -xh * yh
    return m


def _n2_monomial_curls(xh: np.ndarray, yh: np.ndarray, scale) -> np.ndarray:
    c = np.zeros(xh.shape + (8,))
    c[..., 2] = -1.0
    c[..., 4] = 1.0
    c[..., 6] = -3.0 * xh
    c[..., 7] = -3.0 * yh
    return c / scale


@dataclass(frozen=True)
class EdgeSpace:
    """Degree-of-freedom layout for the H(curl)-conforming velocity space."""

    mesh: Mesh
    order: int
    dof_count: int
    cell_dofs: np.ndarray     # (F, nloc) global dof indices
    edge_dofs: np.ndarray     # (E, order) the dofs each edge owns
    coeff: np.ndarray | None  # (F, 8, 8) order-2 nodal-basis coefficients


@dataclass(frozen=True)
class NodalSpace:
    """Degree-of-freedom layout for the Lagrange pressure space."""

    mesh: Mesh
    order: int
    dof_count: int
    cell_dofs: np.ndarray


def _layout(mesh: Mesh, per_vertex: int, per_edge: int, per_triangle: int):
    """The dof numbering of every space: vertex dofs first, then edge dofs,
    then triangle dofs, each entity's dofs consecutive. Returns the dof
    count, the read-only cell dofs (a triangle's vertices' dofs, its edges'
    in local edge order, then its own) and the read-only (E, per_edge) dofs
    each edge owns."""
    owned, start = [], 0
    for count, per in ((mesh.vertex_count, per_vertex), (mesh.edge_count, per_edge),
                       (mesh.triangle_count, per_triangle)):
        owned.append(start + np.arange(count * per, dtype=np.int64).reshape(count, per))
        start += count * per
    nf = mesh.triangle_count
    cell_dofs = np.hstack([owned[0][mesh.triangles].reshape(nf, -1),
                           owned[1][mesh.triangle_edges].reshape(nf, -1), owned[2]])
    cell_dofs.flags.writeable = owned[1].flags.writeable = False
    return start, cell_dofs, owned[1]


def build_edge_space(mesh: Mesh, order: int) -> EdgeSpace:
    if order not in (1, 2):
        raise ValueError(f"unsupported edge-element order {order}")
    coeff = _build_n2_coefficients(mesh) if order == 2 else None
    return EdgeSpace(mesh, order, *_layout(mesh, 0, order, 2 * order - 2), coeff)


def _edge_moments(rule, length: np.ndarray, trace: np.ndarray) -> np.ndarray:
    """Edge degrees of freedom: moments of tangential traces (..., k, m),
    sampled at ``rule.points`` along edges of lengths (...), against 1 and
    2s - 1. Returns (..., 2, m)."""
    leg = 2.0 * rule.points - 1.0
    return length[..., None, None] * np.stack(
        [np.matmul(rule.weights, trace), np.matmul(rule.weights * leg, trace)], axis=-2)


def _cell_moments(w: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """Interior degrees of freedom of order 2: moments of fields (F, k, m, 2)
    against the two constant fields, with physical weights (F, k). Returns
    (F, 2, m)."""
    return np.stack([np.matmul(w[:, None, :], vals[..., 0])[:, 0],
                     np.matmul(w[:, None, :], vals[..., 1])[:, 0]], axis=1)


def _build_n2_coefficients(mesh: Mesh):
    """Per-triangle coefficients of the order-2 dual basis via moment matrices."""
    erule = edge_rule(4)
    trule = triangle_rule(3)
    verts = mesh.vertices[mesh.triangles]
    centroids, scales = verts.mean(axis=1), mesh.diameters

    def monomials(pts):   # (F, ..., 2) -> (F, ..., 8, 2)
        cell = (slice(None),) + (None,) * (pts.ndim - 2)
        xh = (pts - centroids[cell]) / scales[cell][..., None]
        return _n2_monomials(xh[..., 0], xh[..., 1])

    # edge moments along the global edge orientation, rows 2k and 2k + 1
    ends = mesh.vertices[mesh.edges[mesh.triangle_edges]]          # (F, 3, 2, 2)
    xa, vec = ends[:, :, 0], ends[:, :, 1] - ends[:, :, 0]
    length = np.hypot(vec[..., 0], vec[..., 1])                    # (F, 3)
    tang = vec / length[..., None]
    pts = xa[:, :, None, :] + erule.points[:, None] * vec[:, :, None, :]
    trace = np.matmul(monomials(pts), tang[:, :, None, :, None])[..., 0]   # (F, 3, k, 8)
    moments = np.empty((mesh.triangle_count, 8, 8))
    moments[:, :6] = _edge_moments(erule, length, trace).reshape(-1, 6, 8)
    w = 2.0 * mesh.areas[:, None] * trule.weights
    moments[:, 6:] = _cell_moments(w, monomials(np.matmul(trule.points, verts)))
    return np.linalg.inv(moments)


def build_nodal_space(mesh: Mesh, order: int) -> NodalSpace:
    if order not in (1, 2):
        raise ValueError(f"unsupported Lagrange order {order}")
    return NodalSpace(mesh, order, *_layout(mesh, 1, order - 1, 0)[:2])


# Batched kernels. ``bary`` holds barycentric points shared by every cell,
# (k, 3), or one set per cell, (F', k, 3); ``cells`` selects the triangles
# (all of them by default). They are private so that the tracer in ``bench/``
# records one span per form rather than one per kernel call.
_ALL = slice(None)


def _tabulate_edge(V: EdgeSpace, bary: np.ndarray, cells=_ALL) -> tuple[np.ndarray, np.ndarray]:
    """Basis values (F', k, nloc, 2) and curls (F', k, nloc) in the local dof
    order of ``V.cell_dofs``."""
    mesh = V.mesh
    g = mesh.grads[cells]
    nf, k = g.shape[0], bary.shape[-2]
    if V.order == 1:
        signs = mesh.triangle_edge_signs[cells]
        vals = np.empty((nf, k, 3, 2))
        curls = np.empty((nf, k, 3))
        for slot, (p, q) in enumerate(_LOCAL_EDGES):
            sgn = signs[:, slot, None]
            vals[:, :, slot] = sgn[..., None] * (bary[..., p, None] * g[:, None, q]
                                                 - bary[..., q, None] * g[:, None, p])
            curls[:, :, slot] = sgn * 2.0 * (g[:, p, 0] * g[:, q, 1]
                                             - g[:, p, 1] * g[:, q, 0])[:, None]
        return vals, curls
    corners = mesh.vertices[mesh.triangles[cells]]
    pts = np.matmul(bary, corners)
    centroids, scales = corners.mean(axis=1), mesh.diameters[cells]
    xh = (pts[..., 0] - centroids[:, 0, None]) / scales[:, None]
    yh = (pts[..., 1] - centroids[:, 1, None]) / scales[:, None]
    c = V.coeff[cells]
    vals = np.einsum("fkjd,fji->fkid", _n2_monomials(xh, yh), c)
    curls = np.matmul(_n2_monomial_curls(xh, yh, scales[:, None, None]), c)
    return vals, curls


def _tabulate_nodal(Q: NodalSpace, bary: np.ndarray, cells=_ALL) -> tuple[np.ndarray, np.ndarray]:
    """Lagrange basis values (F', k, nloc) and gradients (F', k, nloc, 2)."""
    g = Q.mesh.grads[cells]
    nf, k = g.shape[0], bary.shape[-2]
    if Q.order == 1:
        vals = np.broadcast_to(bary, (nf, k, 3)).copy()
        grads = np.broadcast_to(g[:, None], (nf, k, 3, 2)).copy()
        return vals, grads
    vals = np.empty((nf, k, 6))
    grads = np.empty((nf, k, 6, 2))
    for i in range(3):
        vals[..., i] = bary[..., i] * (2.0 * bary[..., i] - 1.0)
        grads[..., i, :] = (4.0 * bary[..., i, None] - 1.0) * g[:, None, i]
    for slot, (p, q) in enumerate(_LOCAL_EDGES):
        vals[..., 3 + slot] = 4.0 * bary[..., p] * bary[..., q]
        grads[..., 3 + slot, :] = 4.0 * (bary[..., p, None] * g[:, None, q]
                                         + bary[..., q, None] * g[:, None, p])
    return vals, grads


def _edge_field(V: EdgeSpace, u: np.ndarray, bary: np.ndarray,
                cells=_ALL) -> tuple[np.ndarray, np.ndarray]:
    """Values (F', k, 2) and curls (F', k) of the velocity u, coefficients in V."""
    local = u[V.cell_dofs[cells]]
    vals, curls = _tabulate_edge(V, bary, cells)
    return np.einsum("fkid,fi->fkd", vals, local), np.matmul(curls, local[..., None])[..., 0]


def _nodal_field(Q: NodalSpace, p: np.ndarray, bary: np.ndarray,
                 cells=_ALL) -> tuple[np.ndarray, np.ndarray]:
    """Values (F', k) and gradients (F', k, 2) of the pressure p, coefficients in Q."""
    local = p[Q.cell_dofs[cells]]
    vals, grads = _tabulate_nodal(Q, bary, cells)
    return np.matmul(vals, local[..., None])[..., 0], np.einsum("fkid,fi->fkd", grads, local)


def _edge_points(mesh: Mesh, edges: np.ndarray, s: np.ndarray):
    """Points at parameters ``s`` along each of ``edges``, from its first vertex.

    Returns the adjacent triangle (E',), the edge length (E',), the
    barycentric coordinates inside that triangle (E', k, 3) and the physical
    points (E', k, 2).
    """
    tri = mesh.edge_triangles[edges, 0]
    a, b = mesh.edges[edges].T
    xa = mesh.vertices[a]
    d = mesh.vertices[b] - xa
    length = np.hypot(d[:, 0], d[:, 1])
    corners = mesh.triangles[tri]
    rows = np.arange(tri.size)
    bary = np.zeros((tri.size, s.size, 3))
    bary[rows, :, np.argmax(corners == a[:, None], axis=1)] = 1.0 - s
    bary[rows, :, np.argmax(corners == b[:, None], axis=1)] = s
    pts = xa[:, None, :] + s[:, None] * d[:, None, :]
    return tri, length, bary, pts


def _sample(fn: Callable, pts: np.ndarray) -> np.ndarray:
    """``fn(x, y)`` at points (..., 2), shaped (...) or (..., 2)."""
    out = np.asarray(fn(pts[..., 0].ravel(), pts[..., 1].ravel()), dtype=float)
    return out.reshape(pts.shape[:-1] + out.shape[1:])
