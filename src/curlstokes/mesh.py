"""2D conforming triangle meshes with oriented edges and boundary data.

Meshes are immutable after construction. Edges carry a global low-to-high
vertex-index orientation; per-triangle edge signs record the local traversal
direction relative to it. Boundary detection is purely combinatorial (an edge
with a single adjacent triangle lies on the boundary).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# largest jitter offset per coordinate, as a fraction of the shortest incident
# edge; up to 0.2 keeps every triangle positively oriented
JITTER_MAGNITUDE = 0.2


class MeshError(ValueError):
    """Base class for mesh construction errors."""


class MeshFormatError(MeshError):
    """Vertex or triangle arrays of the wrong shape, or non-finite coordinates."""


class MeshConnectivityError(MeshError):
    """Out-of-range or unused vertices, or non-conforming edge sharing."""


class MeshOrientationError(MeshError):
    """A triangle with non-positive signed area, or two triangles that
    traverse their shared edge in the same direction."""


@dataclass(frozen=True)
class Mesh:
    """Immutable 2D simplicial complex.

    vertices            (V, 2) coordinates
    triangles           (F, 3) vertex indices, counterclockwise
    edges               (E, 2) vertex indices, low index first
    triangle_edges      (F, 3) edge index of local edges (v0,v1), (v1,v2), (v2,v0)
    triangle_edge_signs (F, 3) +1 when local traversal matches global edge
                        orientation, else -1
    edge_triangles      (E, 2) adjacent triangle indices, -1 when absent
    boundary_edges      (Bn,) indices of edges with a single adjacent triangle
    boundary_normals    (Bn, 2) outward unit normals
    boundary_tangents   (Bn, 2) unit tangents, t = rotate90(n) (counterclockwise)
    areas               (F,) triangle areas, positive
    grads               (F, 3, 2) gradients of the three barycentric coordinates
    diameters           (F,) longest edge of each triangle
    h_max               maximum triangle diameter
    """

    vertices: np.ndarray
    triangles: np.ndarray
    edges: np.ndarray
    triangle_edges: np.ndarray
    triangle_edge_signs: np.ndarray
    edge_triangles: np.ndarray
    boundary_edges: np.ndarray
    boundary_normals: np.ndarray
    boundary_tangents: np.ndarray
    areas: np.ndarray
    grads: np.ndarray
    diameters: np.ndarray
    h_max: float

    @property
    def vertex_count(self) -> int:
        return self.vertices.shape[0]

    @property
    def triangle_count(self) -> int:
        return self.triangles.shape[0]

    @property
    def edge_count(self) -> int:
        return self.edges.shape[0]

    def euler_characteristic(self) -> int:
        return self.vertex_count - self.edge_count + self.triangle_count

    def boundary_vertex_mask(self) -> np.ndarray:
        mask = np.zeros(self.vertex_count, dtype=bool)
        mask[self.edges[self.boundary_edges].ravel()] = True
        return mask


def _freeze(*arrays: np.ndarray) -> None:
    for a in arrays:
        a.flags.writeable = False


def build_mesh(vertices, triangles) -> Mesh:
    """Derive connectivity from vertices and counterclockwise triangles."""
    vertices = np.ascontiguousarray(vertices, dtype=float)
    triangles = np.ascontiguousarray(triangles, dtype=np.int64)
    if vertices.ndim != 2 or vertices.shape[1] != 2:
        raise MeshFormatError("vertices must be an array of 2D coordinates")
    if triangles.ndim != 2 or triangles.shape[1] != 3 or not triangles.size:
        raise MeshFormatError("triangles must be a non-empty array of vertex triples")
    finite = np.isfinite(vertices).all(axis=1)
    if not finite.all():
        raise MeshFormatError(f"vertex {int(np.argmin(finite))} has a non-finite coordinate")
    nv = vertices.shape[0]
    if triangles.min() < 0 or triangles.max() >= nv:
        bad = int(np.argmax((triangles < 0) | (triangles >= nv)) // 3)
        raise MeshConnectivityError(
            f"triangle {bad} references a vertex outside [0, {nv})")
    unused = np.bincount(triangles.ravel(), minlength=nv) == 0
    if unused.any():
        raise MeshConnectivityError(f"vertex {int(np.argmax(unused))} belongs to no triangle")

    # edge vectors v1 - v0, v2 - v1, v0 - v2 of each triangle
    edge_vec = vertices[triangles[:, [1, 2, 0]]] - vertices[triangles]
    d1, d2 = edge_vec[:, 0], -edge_vec[:, 2]                  # v1 - v0, v2 - v0
    areas = 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])
    nonpos = np.nonzero(areas <= 0.0)[0]
    if nonpos.size:
        raise MeshOrientationError(
            f"triangle {int(nonpos[0])} has non-positive signed area {areas[nonpos[0]]:g}")

    # local edges in cycle order; global edges sorted low->high
    local = np.stack([triangles[:, [0, 1]], triangles[:, [1, 2]],
                      triangles[:, [2, 0]]], axis=1)          # (F, 3, 2)
    lo = local.min(axis=2)
    hi = local.max(axis=2)
    keys = lo.astype(np.int64) * nv + hi
    edges_sorted, inverse = np.unique(keys.ravel(), return_inverse=True)
    edges = np.column_stack([edges_sorted // nv, edges_sorted % nv])
    triangle_edges = inverse.reshape(-1, 3).astype(np.int64)
    triangle_edge_signs = np.where(local[:, :, 0] == lo, 1, -1).astype(np.int8)

    ne = edges.shape[0]
    counts = np.bincount(triangle_edges.ravel(), minlength=ne)
    if counts.max(initial=0) > 2:
        bad = int(np.argmax(counts > 2))
        raise MeshConnectivityError(
            f"edge {tuple(edges[bad])} is shared by {counts[bad]} triangles")
    # counterclockwise neighbours traverse their shared edge in opposite directions
    folded = (counts == 2) & (np.bincount(triangle_edges.ravel(), triangle_edge_signs.ravel()) != 0)
    if folded.any():
        raise MeshOrientationError(f"edge {tuple(edges[np.argmax(folded)].tolist())} is traversed "
                                   "in the same direction by both its triangles")

    # adjacent triangles of each edge in increasing triangle order
    order = np.argsort(triangle_edges.ravel(), kind="stable")
    by_edge = triangle_edges.ravel()[order]
    slot = np.arange(by_edge.size) - (np.cumsum(counts) - counts)[by_edge]
    edge_triangles = np.full((ne, 2), -1, dtype=np.int64)
    edge_triangles[by_edge, slot] = order // 3

    boundary_edges = np.nonzero(counts == 1)[0]
    # a counterclockwise triangle traverses its edges with the domain on the
    # left, so the outward normal of a boundary edge traversed along s d is
    # s (d_y, -d_x); a boundary edge has one triangle and so one sign
    edge_signs = np.empty(ne, dtype=np.int8)
    edge_signs[triangle_edges] = triangle_edge_signs
    d = vertices[edges[boundary_edges, 1]] - vertices[edges[boundary_edges, 0]]
    normals = edge_signs[boundary_edges, None] * np.column_stack([d[:, 1], -d[:, 0]])
    normals /= np.hypot(normals[:, 0], normals[:, 1])[:, None]
    tangents = np.column_stack([-normals[:, 1], normals[:, 0]])

    # the gradient of a barycentric coordinate is the rotated opposite edge
    # over twice the area; the three sum to zero
    det = 2.0 * areas
    grads = np.empty((triangles.shape[0], 3, 2))
    grads[:, 1, 0] = d2[:, 1] / det
    grads[:, 1, 1] = -d2[:, 0] / det
    grads[:, 2, 0] = -d1[:, 1] / det
    grads[:, 2, 1] = d1[:, 0] / det
    grads[:, 0] = -grads[:, 1] - grads[:, 2]
    diameters = np.sqrt((edge_vec ** 2).sum(axis=2)).max(axis=1)

    _freeze(vertices, triangles, edges, triangle_edges, triangle_edge_signs,
            edge_triangles, boundary_edges, normals, tangents, areas, grads, diameters)
    return Mesh(vertices, triangles, edges, triangle_edges, triangle_edge_signs,
                edge_triangles, boundary_edges, normals, tangents, areas, grads,
                diameters, float(diameters.max()))


def _grid_mesh(xs: np.ndarray, ys: np.ndarray, keep: np.ndarray) -> Mesh:
    """Criss-cross mesh over a tensor grid, keeping the cells where the
    (ny, nx) boolean mask ``keep`` is set; two triangles per cell, row by row."""
    nx = xs.size - 1
    X, Y = np.meshgrid(xs, ys, indexing="xy")
    vertices = np.column_stack([X.ravel(), Y.ravel()])
    j, i = np.nonzero(keep)
    a = j * (nx + 1) + i               # lower-left corner; b, c, d counterclockwise
    b, c, d = a + 1, a + nx + 2, a + nx + 1
    triangles = np.column_stack([a, b, d, b, c, d]).reshape(-1, 3).astype(np.int64)

    used = np.unique(triangles.ravel())
    remap = -np.ones(vertices.shape[0], dtype=np.int64)
    remap[used] = np.arange(used.size)
    return build_mesh(vertices[used], remap[triangles])


def generate_unit_square(n: int) -> Mesh:
    """Structured mesh of [0, 1]^2 with 2 n^2 triangles."""
    if n < 1:
        raise ValueError("subdivision count must be >= 1")
    coords = np.arange(n + 1) / n
    return _grid_mesh(coords, coords, np.ones((n, n), dtype=bool))


def generate_square_with_hole(n: int) -> Mesh:
    """Mesh of [0, 1]^2 minus [1/3, 2/3]^2; n must be a positive multiple of 3."""
    if n < 3 or n % 3 != 0:
        raise ValueError("subdivision count must be a positive multiple of 3")
    coords = np.arange(n + 1) / n
    third = n // 3
    keep = np.ones((n, n), dtype=bool)
    keep[third:2 * third, third:2 * third] = False
    return _grid_mesh(coords, coords, keep)


def generate_l_shape(n: int) -> Mesh:
    """Mesh of (-1, 1)^2 minus the quadrant [0, 1) x (-1, 0]; n cells per unit edge.

    The re-entrant corner sits exactly at the origin (a grid vertex).
    """
    if n < 1:
        raise ValueError("subdivision count must be >= 1")
    coords = -1.0 + np.arange(2 * n + 1) / n
    keep = np.ones((2 * n, 2 * n), dtype=bool)
    keep[:n, n:] = False               # rows are y, columns x
    return _grid_mesh(coords, coords, keep)


def two_triangle_square() -> Mesh:
    """The unit square split along the (1,0)-(0,1) diagonal into two triangles."""
    vertices = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    triangles = np.array([[0, 1, 3], [1, 2, 3]])
    return build_mesh(vertices, triangles)


def refine_uniform(mesh: Mesh) -> Mesh:
    """Split every triangle into 4 congruent children through edge midpoints."""
    nv = mesh.vertex_count
    midpoints = 0.5 * (mesh.vertices[mesh.edges[:, 0]] + mesh.vertices[mesh.edges[:, 1]])
    vertices = np.vstack([mesh.vertices, midpoints])
    # columns v0, v1, v2, m01, m12, m20; children (v0, m01, m20), (v1, m12, m01),
    # (v2, m20, m12), (m01, m12, m20)
    corners = np.hstack([mesh.triangles, nv + mesh.triangle_edges])
    tris = corners[:, [[0, 3, 5], [1, 4, 3], [2, 5, 4], [3, 4, 5]]].reshape(-1, 3)
    return build_mesh(vertices, tris)


def jitter(mesh: Mesh, seed: int) -> Mesh:
    """Perturb interior vertices by a seeded uniform offset.

    Each interior vertex moves by at most ``JITTER_MAGNITUDE`` times its
    shortest incident edge per coordinate, which keeps all triangles
    positively oriented. Boundary vertices stay put.
    """
    lengths = np.hypot(*(mesh.vertices[mesh.edges[:, 1]] - mesh.vertices[mesh.edges[:, 0]]).T)
    local = np.full(mesh.vertex_count, np.inf)
    for k in range(2):
        np.minimum.at(local, mesh.edges[:, k], lengths)
    interior = ~mesh.boundary_vertex_mask()
    rng = np.random.default_rng(seed)
    offsets = rng.uniform(-1.0, 1.0, size=(mesh.vertex_count, 2))
    vertices = mesh.vertices.copy()
    vertices[interior] += JITTER_MAGNITUDE * local[interior, None] * offsets[interior]
    return build_mesh(vertices, mesh.triangles)
