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
from typing import Callable, Union

import numpy as np
from scipy.sparse import csr_array
from scipy.sparse.linalg import splu

from .mesh import Mesh
from .quadrature import edge_rule, triangle_rule

# cycle-order local edges, matching mesh.triangle_edges
_LOCAL_EDGES = ((0, 1), (1, 2), (2, 0))


def _barycentric_gradients(mesh: Mesh) -> np.ndarray:
    """Gradients of the three barycentric coordinates per triangle, (F, 3, 2)."""
    a = mesh.vertices[mesh.triangles[:, 0]]
    b = mesh.vertices[mesh.triangles[:, 1]]
    c = mesh.vertices[mesh.triangles[:, 2]]
    det = (b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1]) - (b[:, 1] - a[:, 1]) * (c[:, 0] - a[:, 0])
    grads = np.empty((mesh.triangle_count, 3, 2))
    grads[:, 1, 0] = (c[:, 1] - a[:, 1]) / det
    grads[:, 1, 1] = -(c[:, 0] - a[:, 0]) / det
    grads[:, 2, 0] = -(b[:, 1] - a[:, 1]) / det
    grads[:, 2, 1] = (b[:, 0] - a[:, 0]) / det
    grads[:, 0] = -grads[:, 1] - grads[:, 2]
    return grads


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
    cell_signs: np.ndarray    # (F, nloc) orientation factors
    grads: np.ndarray         # (F, 3, 2) barycentric gradients
    coeff: np.ndarray | None  # (F, 8, 8) order-2 nodal-basis coefficients
    centroids: np.ndarray | None
    scales: np.ndarray | None


@dataclass(frozen=True)
class NodalSpace:
    """Degree-of-freedom layout for the Lagrange pressure space."""

    mesh: Mesh
    order: int
    dof_count: int
    cell_dofs: np.ndarray
    grads: np.ndarray


@dataclass
class DiscreteField:
    """Coefficient vector bound to a space."""

    space: Union[EdgeSpace, NodalSpace]
    coefficients: np.ndarray

    def __post_init__(self):
        self.coefficients = np.asarray(self.coefficients, dtype=float)
        if self.coefficients.shape != (self.space.dof_count,):
            raise ValueError(
                f"coefficient length {self.coefficients.shape} does not match "
                f"space dof count {self.space.dof_count}")


def build_edge_space(mesh: Mesh, order: int) -> EdgeSpace:
    if order not in (1, 2):
        raise ValueError(f"unsupported edge-element order {order}")
    grads = _barycentric_gradients(mesh)
    ne = mesh.edge_count
    nf = mesh.triangle_count
    if order == 1:
        dof = ne
        cell_dofs = mesh.triangle_edges.copy()
        cell_signs = mesh.triangle_edge_signs.astype(float)
        coeff = centroids = scales = None
    else:
        dof = 2 * ne + 2 * nf
        cell_dofs = np.empty((nf, 8), dtype=np.int64)
        for k in range(3):
            cell_dofs[:, 2 * k] = 2 * mesh.triangle_edges[:, k]
            cell_dofs[:, 2 * k + 1] = 2 * mesh.triangle_edges[:, k] + 1
        cell_dofs[:, 6] = 2 * ne + 2 * np.arange(nf)
        cell_dofs[:, 7] = 2 * ne + 2 * np.arange(nf) + 1
        cell_signs = np.ones((nf, 8))
        coeff, centroids, scales = _build_n2_coefficients(mesh)

    cell_dofs.flags.writeable = False
    cell_signs.flags.writeable = False
    return EdgeSpace(mesh, order, dof, cell_dofs, cell_signs, grads, coeff, centroids, scales)


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
    areas = mesh.signed_areas()
    verts = mesh.vertices[mesh.triangles]
    centroids = verts.mean(axis=1)
    edge_vecs = mesh.vertices[mesh.triangles[:, [1, 2, 0]]] - verts
    scales = np.sqrt((edge_vecs ** 2).sum(axis=2)).max(axis=1)

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
    w = 2.0 * areas[:, None] * trule.weights
    moments[:, 6:] = _cell_moments(w, monomials(np.matmul(trule.points, verts)))
    return np.linalg.inv(moments), centroids, scales


def build_nodal_space(mesh: Mesh, order: int) -> NodalSpace:
    if order not in (1, 2):
        raise ValueError(f"unsupported Lagrange order {order}")
    grads = _barycentric_gradients(mesh)
    if order == 1:
        dof = mesh.vertex_count
        cell_dofs = mesh.triangles.copy()
    else:
        dof = mesh.vertex_count + mesh.edge_count
        cell_dofs = np.hstack([mesh.triangles,
                               mesh.vertex_count + mesh.triangle_edges])
    cell_dofs.flags.writeable = False
    return NodalSpace(mesh, order, dof, cell_dofs, grads)


# Batched kernels. ``bary`` holds barycentric points shared by every cell,
# (k, 3), or one set per cell, (F', k, 3); ``cells`` selects the triangles
# (all of them by default). They are private so that the tracer in ``bench/``
# records one span per form rather than one per kernel call.
_ALL = slice(None)


def _tabulate_edge(V: EdgeSpace, bary: np.ndarray, cells=_ALL) -> tuple[np.ndarray, np.ndarray]:
    """Basis values (F', k, nloc, 2) and curls (F', k, nloc) in the local dof
    order of ``V.cell_dofs``."""
    g = V.grads[cells]
    nf, k = g.shape[0], bary.shape[-2]
    if V.order == 1:
        signs = V.cell_signs[cells]
        vals = np.empty((nf, k, 3, 2))
        curls = np.empty((nf, k, 3))
        for slot, (p, q) in enumerate(_LOCAL_EDGES):
            sgn = signs[:, slot, None]
            vals[:, :, slot] = sgn[..., None] * (bary[..., p, None] * g[:, None, q]
                                                 - bary[..., q, None] * g[:, None, p])
            curls[:, :, slot] = sgn * 2.0 * (g[:, p, 0] * g[:, q, 1]
                                             - g[:, p, 1] * g[:, q, 0])[:, None]
        return vals, curls
    mesh = V.mesh
    pts = np.matmul(bary, mesh.vertices[mesh.triangles[cells]])
    centroids, scales = V.centroids[cells], V.scales[cells]
    xh = (pts[..., 0] - centroids[:, 0, None]) / scales[:, None]
    yh = (pts[..., 1] - centroids[:, 1, None]) / scales[:, None]
    c = V.coeff[cells]
    vals = np.einsum("fkjd,fji->fkid", _n2_monomials(xh, yh), c)
    curls = np.matmul(_n2_monomial_curls(xh, yh, scales[:, None, None]), c)
    return vals, curls


def _tabulate_nodal(Q: NodalSpace, bary: np.ndarray, cells=_ALL) -> tuple[np.ndarray, np.ndarray]:
    """Lagrange basis values (F', k, nloc) and gradients (F', k, nloc, 2)."""
    g = Q.grads[cells]
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


def _edge_field(field: DiscreteField, bary: np.ndarray, cells=_ALL) -> tuple[np.ndarray, np.ndarray]:
    """Values (F', k, 2) and curls (F', k) of a velocity field."""
    space: EdgeSpace = field.space
    local = field.coefficients[space.cell_dofs[cells]]
    vals, curls = _tabulate_edge(space, bary, cells)
    return np.einsum("fkid,fi->fkd", vals, local), np.matmul(curls, local[..., None])[..., 0]


def _nodal_field(field: DiscreteField, bary: np.ndarray, cells=_ALL) -> tuple[np.ndarray, np.ndarray]:
    """Values (F', k) and gradients (F', k, 2) of a pressure field."""
    space: NodalSpace = field.space
    local = field.coefficients[space.cell_dofs[cells]]
    vals, grads = _tabulate_nodal(space, bary, cells)
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
    w = 2.0 * mesh.signed_areas()[:, None] * trule.weights
    # one block per edge and per triangle: 2 moment rows by 6 nodal columns
    vals = np.concatenate([_edge_moments(erule, length, trace),
                           _cell_moments(w, cell_grads)])               # (E + F, 2, 6)
    row_dofs = np.concatenate([2 * np.arange(mesh.edge_count)[:, None] + [0, 1],
                               edge_space.cell_dofs[:, 6:]])
    col_dofs = np.concatenate([nodal_space.cell_dofs[tri], nodal_space.cell_dofs])
    rows = np.broadcast_to(row_dofs[:, :, None], vals.shape)
    cols = np.broadcast_to(col_dofs[:, None, :], vals.shape)
    return csr_array((vals.ravel(), (rows.ravel(), cols.ravel())),
                     shape=(edge_space.dof_count, nodal_space.dof_count))


def grad_inclusion_check(edge_space: EdgeSpace, nodal_space: NodalSpace) -> float:
    """Largest L2 distance of a nodal basis gradient to the edge space.

    Solves the least-squares projection through the velocity mass matrix and
    integrates the pointwise residual field by quadrature, so the result sits
    at roundoff (not at sqrt(roundoff)) when the gradient inclusion holds.
    """
    from .forms import assemble_b, assemble_mass

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
