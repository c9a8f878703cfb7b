"""Error norms, convergence rates, Hodge decomposition and stability probes.

The velocity error is measured in the mesh-dependent norm

    |||v|||^2 = ||v||^2 + ||curl v||^2 + (1/h) ||v . t||^2_Gamma + h ||curl v||^2_Gamma,

whose boundary contributions make weak tangential data controllable. The
trace and inf-sup probes are local or sparse eigensolves, so they serve every
mesh the solver factors; dual boundary norms are replaced by computable L2
surrogates throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.sparse.linalg import LinearOperator, eigsh

from .forms import (assemble_b, assemble_curl_curl, assemble_mass,
                    assemble_mean_vector, assemble_stiffness, _assemble_cells,
                    _boundary_edge_data, _boundary_rule, _cell_weights,
                    _local_matrix, _volume_rule)
from .mesh import Mesh
from .quadrature import edge_rule, triangle_rule
from .solver import KERNEL_RANK_RTOL, SaddleSystem, _augmented, _factor, _guard_size
from .spaces import (DiscreteField, EdgeSpace, NodalSpace, _edge_field,
                     _edge_points, _nodal_field, _sample, _tabulate_edge,
                     gradient_coefficients)

#: bundle attribute -> report/CSV column name
NORM_COLUMNS = {
    "err_u_l2": "err_u_l2",
    "err_u_curl_seminorm": "err_u_curl",
    "err_u_hash": "err_u_hash",
    "err_gpar_boundary": "err_gpar",
    "err_gcurl_boundary": "err_gcurl",
    "err_p_l2": "err_p_l2",
    "err_p_h1_seminorm": "err_p_h1",
}

RATE_WINDOW = 3


@dataclass(frozen=True)
class ErrorBundle:
    """Errors of one solve against the analytic solution."""

    err_u_l2: float
    err_u_curl_seminorm: float
    err_u_hcurl: float
    err_u_hash: float
    err_gpar_boundary: float
    err_gcurl_boundary: float
    err_p_l2: float
    err_p_h1_seminorm: float
    h: float
    dofs_u: int
    dofs_p: int


@dataclass(frozen=True)
class HodgeDecomposition:
    """Coefficient bases of the three orthogonal blocks of the velocity space."""

    grad_basis: np.ndarray      # (n, dim grad Q_h)
    z_basis: np.ndarray         # (n, dim Z_h)
    harmonic_basis: np.ndarray  # (n, dim harmonic)


@dataclass(frozen=True)
class TraceConstants:
    c_n: float
    c_par: float

    @property
    def recommended_cw(self) -> float:
        """Twice the coercivity threshold C_n^2 of the velocity block."""
        return 2.0 * self.c_n ** 2


def compute_errors(u_h: DiscreteField, p_h: DiscreteField, case, mesh: Mesh) -> ErrorBundle:
    """Volume and boundary errors of a discrete pair against the case data.

    The analytic pressure is shifted by its quadrature mean over the mesh so
    that both representatives have zero mean.
    """
    order = u_h.space.order
    rule = triangle_rule(min(2 * order + 4, 10))
    w = _cell_weights(mesh, rule)
    pts = np.matmul(rule.points, mesh.vertices[mesh.triangles])
    p_exact = _sample(case.p, pts)
    p_mean = float((w * p_exact).sum()) / float(mesh.signed_areas().sum())

    uh, ch = _edge_field(u_h, rule.points)
    ph, gph = _nodal_field(p_h, rule.points)
    u_sq = float((w * ((_sample(case.u, pts) - uh) ** 2).sum(axis=-1)).sum())
    curl_sq = float((w * (_sample(case.curl_u, pts) - ch) ** 2).sum())
    p_sq = float((w * (p_exact - p_mean - ph) ** 2).sum())
    gp_sq = float((w * ((_sample(case.grad_p, pts) - gph) ** 2).sum(axis=-1)).sum())

    erule = edge_rule(min(2 * order + 4, 12))
    tri, length, bary, pts = _edge_points(mesh, mesh.boundary_edges, erule.points)
    w = length[:, None] * erule.weights
    uh, ch = _edge_field(u_h, bary, tri)
    du_t = np.einsum("ekd,ed->ek", _sample(case.u, pts) - uh, mesh.boundary_tangents)
    gpar_sq = float((w * du_t ** 2).sum())
    gcurl_sq = float((w * (_sample(case.curl_u, pts) - ch) ** 2).sum())

    h = mesh.h_max
    hcurl_sq = u_sq + curl_sq
    hash_sq = hcurl_sq + gpar_sq / h + h * gcurl_sq
    return ErrorBundle(
        err_u_l2=float(np.sqrt(u_sq)),
        err_u_curl_seminorm=float(np.sqrt(curl_sq)),
        err_u_hcurl=float(np.sqrt(hcurl_sq)),
        err_u_hash=float(np.sqrt(hash_sq)),
        err_gpar_boundary=float(np.sqrt(gpar_sq)),
        err_gcurl_boundary=float(np.sqrt(gcurl_sq)),
        err_p_l2=float(np.sqrt(p_sq)),
        err_p_h1_seminorm=float(np.sqrt(gp_sq)),
        h=h,
        dofs_u=u_h.space.dof_count,
        dofs_p=p_h.space.dof_count,
    )


def compute_eoc(bundles: list[ErrorBundle]) -> dict[str, list[float]]:
    """Pairwise EOCs: log(e_k / e_{k+1}) / log(h_k / h_{k+1}) per norm."""
    if len(bundles) < 2:
        raise ValueError("EOC requires at least two refinement levels")
    out: dict[str, list[float]] = {}
    for attr, column in NORM_COLUMNS.items():
        seq = []
        for k in range(len(bundles) - 1):
            e0, e1 = getattr(bundles[k], attr), getattr(bundles[k + 1], attr)
            h0, h1 = bundles[k].h, bundles[k + 1].h
            seq.append(float(np.log(e0 / e1) / np.log(h0 / h1)))
        out[column] = seq
    return out


def least_squares_rates(bundles: list[ErrorBundle]) -> dict[str, float]:
    """Log-log least-squares slope over the last ``RATE_WINDOW`` levels per norm."""
    bundles = bundles[-RATE_WINDOW:]
    if len(bundles) < 2:
        raise ValueError("rate fit requires at least two levels")
    hs = np.log([b.h for b in bundles])
    out = {}
    for attr, column in NORM_COLUMNS.items():
        es = np.log([getattr(b, attr) for b in bundles])
        out[column] = float(np.polyfit(hs, es, 1)[0])
    return out


def _boundary_gram(V: EdgeSpace, c_par: float, c_curl: float):
    """Sparse c_par <v . t, w . t>_Gamma + c_curl <curl v, curl w>_Gamma."""
    rule = _boundary_rule(V)
    tri, length, _, trace, curls = _boundary_edge_data(V, rule)
    w = length[:, None] * rule.weights
    trace, curls = trace[..., None], curls[..., None]
    local = c_par * _local_matrix(w, trace, trace) + c_curl * _local_matrix(w, curls, curls)
    dofs = V.cell_dofs[tri]
    return _assemble_cells(dofs, dofs, local, (V.dof_count,) * 2)


def _curl_factor(V: EdgeSpace) -> np.ndarray:
    """Dense square-root factor C of the curl-curl matrix: C^T C = K.

    Rows are sqrt-weighted curl evaluations at the assembly quadrature
    points; kernel vectors of C are curl-free to full precision, unlike
    eigenvectors of the squared operator.
    """
    rule = _volume_rule(V)
    _, curls = _tabulate_edge(V, rule.points)                   # (F, k, nloc)
    nf, npts = curls.shape[:2]
    w = np.sqrt(2.0 * V.mesh.signed_areas()[:, None] * rule.weights)
    out = np.zeros((nf * npts, V.dof_count))
    out[np.arange(nf * npts).reshape(nf, npts, 1), V.cell_dofs[:, None, :]] = w[..., None] * curls
    return out


def hodge_decompose(V: EdgeSpace, Q: NodalSpace) -> HodgeDecomposition:
    """Split the velocity space into gradients, curl-carrying fields and
    discrete harmonic fields, mutually orthogonal in L2. The harmonic fields
    are the null right singular vectors of the curl factor on X_h; that factor
    is tall, so its thin SVD has them all (a wide one fails the sum check).

    The curl factor has m >= 11n/6 rows for its n columns (about 9 per column
    at order 1, 5 at order 2), and for such a matrix LAPACK's gesdd runs
    dgeqrf and then the SVD of the triangular factor R. Taking the SVD of
    np.linalg.qr(..., mode="r") runs that same arithmetic, so the bases are
    bit-identical to the whole factor's SVD, but never builds the m x n left
    factor that nothing reads."""
    _guard_size(V.dof_count + Q.dof_count)
    m = assemble_mass(V).matrix.toarray()
    b = assemble_b(V, Q).matrix.toarray()
    n = V.dof_count

    g = gradient_coefficients(V, Q).toarray()
    gram = g.T @ m @ g
    w, vecs = np.linalg.eigh(gram)
    keep = w > KERNEL_RANK_RTOL * w.max()
    grad_basis = g @ (vecs[:, keep] / np.sqrt(w[keep]))

    # X_h = kernel of the divergence constraint B^T v = 0
    _, s, vt = np.linalg.svd(b.T, full_matrices=True)
    rank = int((s > KERNEL_RANK_RTOL * s.max()).sum()) if s.size else 0
    x = vt[rank:].T
    # orthonormalize with respect to the mass inner product
    chol = np.linalg.cholesky(x.T @ m @ x)
    x = scipy.linalg.solve_triangular(chol, x.T, lower=True).T

    cx = _curl_factor(V) @ x
    _, s, vt = np.linalg.svd(np.linalg.qr(cx, mode="r"), full_matrices=False)
    smax = s.max(initial=0.0)
    ranks = int((s > KERNEL_RANK_RTOL * smax).sum()) if smax > 0 else 0
    z_basis = x @ vt[:ranks].T
    harmonic_basis = x @ vt[ranks:].T

    if grad_basis.shape[1] + z_basis.shape[1] + harmonic_basis.shape[1] != n:
        raise RuntimeError("decomposition dimensions do not sum to the space dimension")
    return HodgeDecomposition(grad_basis=grad_basis, z_basis=z_basis,
                              harmonic_basis=harmonic_basis)


def betti_number(mesh: Mesh) -> int:
    return 1 - mesh.euler_characteristic()


def estimate_trace_constants(V: EdgeSpace) -> TraceConstants:
    """Constants of the discrete trace inequalities.

    C_par^2, the top eigenvalue of the pencil (h T_par, M), bounds
    h ||v . t||^2_Gamma by ||v||^2. C_n^2 bounds h ||curl v||^2_Gamma by
    ||curl v||^2; the curl maps onto broken P_{r-1}, so C_n^2 is h times the
    top eigenvalue of (boundary mass, cell mass) of P_{r-1} on a triangle.
    """
    mesh, h = V.mesh, V.mesh.h_max
    basis = np.eye(3) if V.order == 2 else np.ones((3, 1))   # P_{r-1} from barycentrics
    rule = _boundary_rule(V)
    tri, length, bary, _ = _edge_points(mesh, mesh.boundary_edges, rule.points)
    bnd = np.zeros((mesh.triangle_count,) + (basis.shape[1],) * 2)
    np.add.at(bnd, tri, np.einsum("ek,eki,ekj->eij", length[:, None] * rule.weights,
                                  bary @ basis, bary @ basis))
    tri, rule = np.unique(tri), _volume_rule(V)
    cell = np.einsum("fk,ki,kj->fij", _cell_weights(mesh, rule)[tri],
                     rule.points @ basis, rule.points @ basis)
    c_n_sq = h * np.linalg.eigvals(np.linalg.solve(cell, bnd[tri])).real.max()
    c_par_sq = eigsh(_boundary_gram(V, h, 0.0), k=1, M=assemble_mass(V).matrix, which="LA",
                     v0=np.random.default_rng(0).standard_normal(V.dof_count),
                     return_eigenvectors=False)[0]
    return TraceConstants(c_n=float(np.sqrt(c_n_sq)), c_par=float(np.sqrt(c_par_sq)))


def estimate_infsup(V: EdgeSpace, Q: NodalSpace) -> float:
    """Smallest scaled singular value of the coupling form.

    beta_h = min over zero-mean q of max over v of b(v, q) / (|q|_1 |||v|||);
    the theory predicts beta_h ~ h. beta_h^2 is the bottom eigenvalue of the
    pencil (B^T H^-1 B, S), H the #-norm Gram matrix and S the pressure
    stiffness, with the first pressure dof pinned (both vanish on constants),
    by shift-invert Lanczos through an LU factor of the solver's augmented
    matrix with H in place of A.
    """
    h = V.mesh.h_max
    hash_gram = assemble_mass(V).matrix + assemble_curl_curl(V).matrix + _boundary_gram(V, 1 / h, h)
    n_u, n_q = V.dof_count, Q.dof_count
    lu = _factor(_augmented(SaddleSystem(hash_gram, assemble_b(V, Q).matrix, np.zeros(n_u),
                                         np.zeros(n_q), assemble_mean_vector(Q)))[0])

    def pinned_inverse(r):   # zero-sum data: zero multiplier, zero-mean y
        y = lu.solve(np.concatenate([np.zeros(n_u), [-r.sum()], r, [0.0]]))[n_u:n_u + n_q]
        return y[0] - y[1:]

    # in shift-invert mode eigsh reads only the shape of A; OPinv applies A^-1
    op = LinearOperator((n_q - 1,) * 2, matvec=pinned_inverse, dtype=float)
    theta = eigsh(op, k=1, M=assemble_stiffness(Q).matrix[1:, 1:], sigma=0.0, OPinv=op,
                  v0=np.random.default_rng(0).standard_normal(n_q - 1),
                  return_eigenvectors=False)[0]
    return float(np.sqrt(max(theta, 0.0)))
