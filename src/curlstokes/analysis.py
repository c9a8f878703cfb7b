"""Error norms, convergence rates, Hodge decomposition and stability probes.

The velocity error is measured in the mesh-dependent norm

    |||v|||^2 = ||v||^2 + ||curl v||^2 + (1/h) ||v . t||^2_Gamma + h ||curl v||^2_Gamma,

whose boundary contributions make weak tangential data controllable. Probes
for the discrete trace constants and the inf-sup constant use dense
generalized eigensolves and are gated to small systems; dual boundary norms
are replaced by computable L2 surrogates throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .forms import (assemble_b, assemble_curl_curl, assemble_mass,
                    assemble_mean_vector, assemble_stiffness, _assemble_cells,
                    _boundary_edge_data, _boundary_rule, _cell_weights,
                    _volume_rule)
from .mesh import Mesh
from .quadrature import edge_rule, triangle_rule
from .solver import KERNEL_SIZE_GUARD, KERNEL_RANK_RTOL, SizeGuardError
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


@dataclass
class ConvergenceReport:
    """Per-refinement errors plus pairwise experimental orders of convergence."""

    bundles: list[ErrorBundle]

    @property
    def eoc(self) -> dict[str, list[float]]:
        return compute_eoc(self)


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
        return 4.0 * self.c_n


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


def compute_eoc(report: ConvergenceReport) -> dict[str, list[float]]:
    """Pairwise EOCs: log(e_k / e_{k+1}) / log(h_k / h_{k+1}) per norm."""
    bundles = report.bundles if isinstance(report, ConvergenceReport) else list(report)
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


def least_squares_rates(report: ConvergenceReport, window: int = 3) -> dict[str, float]:
    """Log-log least-squares slope over the last ``window`` levels per norm."""
    bundles = report.bundles[-window:]
    if len(bundles) < 2:
        raise ValueError("rate fit requires at least two levels")
    hs = np.log([b.h for b in bundles])
    out = {}
    for attr, column in NORM_COLUMNS.items():
        es = np.log([getattr(b, attr) for b in bundles])
        out[column] = float(np.polyfit(hs, es, 1)[0])
    return out


def _guard(V: EdgeSpace, Q: NodalSpace | None = None) -> None:
    n = V.dof_count + (Q.dof_count if Q is not None else 0)
    if n > KERNEL_SIZE_GUARD:
        raise SizeGuardError(f"dense probe limited to {KERNEL_SIZE_GUARD} unknowns, got {n}")


def boundary_gram_matrices(V: EdgeSpace) -> tuple[np.ndarray, np.ndarray]:
    """Dense boundary Gram matrices of tangential traces and curl traces."""
    rule = _boundary_rule(V)
    n = V.full_dof_count
    tri, length, _, trace, curls = _boundary_edge_data(V, rule)
    w = length[:, None] * rule.weights
    dofs = V.cell_dofs[tri]
    t_par = _assemble_cells(dofs, dofs, np.einsum("ek,eki,ekj->eij", w, trace, trace),
                            (n, n)).toarray()
    t_curl = _assemble_cells(dofs, dofs, np.einsum("ek,eki,ekj->eij", w, curls, curls),
                             (n, n)).toarray()
    if V.essential_bc:
        t_par = t_par[np.ix_(V.free, V.free)]
        t_curl = t_curl[np.ix_(V.free, V.free)]
    return t_par, t_curl


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
    out = np.zeros((nf * npts, V.full_dof_count))
    out[np.arange(nf * npts).reshape(nf, npts, 1), V.cell_dofs[:, None, :]] = w[..., None] * curls
    return out[:, V.free] if V.essential_bc else out


def hodge_decompose(V: EdgeSpace, Q: NodalSpace) -> HodgeDecomposition:
    """Split the velocity space into gradients, curl-carrying fields and
    discrete harmonic fields, mutually orthogonal in L2."""
    if V.essential_bc:
        raise ValueError("decomposition is defined on the unconstrained space")
    _guard(V, Q)
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

    # split X_h along the curl square-root factor: its null vectors are the
    # discrete harmonic fields
    cx = _curl_factor(V) @ x
    _, s, vt = np.linalg.svd(cx, full_matrices=True)
    smax = s.max(initial=0.0)
    ranks = int((s > KERNEL_RANK_RTOL * smax).sum()) if smax > 0 else 0
    z_basis = x @ vt[:ranks].T
    harmonic_basis = x @ vt[ranks:].T

    if grad_basis.shape[1] + z_basis.shape[1] + harmonic_basis.shape[1] != n:
        raise RuntimeError("decomposition dimensions do not sum to the space dimension")
    return HodgeDecomposition(grad_basis=grad_basis, z_basis=z_basis,
                              harmonic_basis=harmonic_basis)


def harmonic_dimension(V: EdgeSpace, Q: NodalSpace) -> int:
    return hodge_decompose(V, Q).harmonic_basis.shape[1]


def betti_number(mesh: Mesh) -> int:
    return 1 - mesh.euler_characteristic()


def estimate_trace_constants(V: EdgeSpace) -> TraceConstants:
    """Constants of the discrete trace inequalities, by generalized eigensolve.

    C_par^2 bounds h ||v . t||^2_Gamma by ||v||^2; C_n^2 bounds
    h ||curl v||^2_Gamma by ||curl v||^2 over fields with nonzero curl.
    """
    _guard(V)
    h = V.mesh.h_max
    t_par, t_curl = boundary_gram_matrices(V)
    m = assemble_mass(V).matrix.toarray()
    k = assemble_curl_curl(V).matrix.toarray()

    c_par_sq = scipy.linalg.eigh(h * t_par, m, eigvals_only=True)[-1]

    w, vecs = np.linalg.eigh(k)
    keep = w > KERNEL_RANK_RTOL * w.max()
    basis = vecs[:, keep]
    kk = basis.T @ k @ basis
    tc = basis.T @ t_curl @ basis
    c_n_sq = scipy.linalg.eigh(h * tc, kk, eigvals_only=True)[-1]
    return TraceConstants(c_n=float(np.sqrt(max(c_n_sq, 0.0))),
                          c_par=float(np.sqrt(max(c_par_sq, 0.0))))


def estimate_infsup(V: EdgeSpace, Q: NodalSpace) -> float:
    """Smallest scaled singular value of the coupling form.

    beta_h = min over zero-mean q of max over v of b(v, q) / (|q|_1 |||v|||),
    computed densely; the theory predicts beta_h ~ h.
    """
    _guard(V, Q)
    h = V.mesh.h_max
    t_par, t_curl = boundary_gram_matrices(V)
    m = assemble_mass(V).matrix.toarray()
    k = assemble_curl_curl(V).matrix.toarray()
    hash_gram = m + k + t_par / h + h * t_curl
    b = assemble_b(V, Q).matrix.toarray()
    s_mat = assemble_stiffness(Q).matrix.toarray()
    mean = assemble_mean_vector(Q)

    _, _, vt = np.linalg.svd(mean[None, :])
    z = vt[1:].T
    bz = b @ z
    sz = z.T @ s_mat @ z
    hinv_bz = np.linalg.solve(hash_gram, bz)
    gram = bz.T @ hinv_bz
    vals = scipy.linalg.eigh(gram, sz, eigvals_only=True)
    return float(np.sqrt(max(vals[0], 0.0)))


def harmonic_boundary_ratio(V: EdgeSpace, Q: NodalSpace) -> float:
    """Surrogate for the harmonic-field boundary bound: ||h||_curl / ||h.t||_Gamma.

    Uses the L2 boundary norm in place of the dual norm; meaningful only on
    domains with nontrivial topology.
    """
    from .forms import boundary_trace_norms

    dec = hodge_decompose(V, Q)
    if dec.harmonic_basis.shape[1] == 0:
        raise ValueError("domain has no discrete harmonic fields")
    coeffs = dec.harmonic_basis[:, 0]
    field = DiscreteField(V, coeffs)
    m = assemble_mass(V).matrix
    k = assemble_curl_curl(V).matrix
    curl_norm = float(np.sqrt(coeffs @ (m @ coeffs) + coeffs @ (k @ coeffs)))
    gpar, _ = boundary_trace_norms(field, V.mesh)
    return curl_norm / gpar
