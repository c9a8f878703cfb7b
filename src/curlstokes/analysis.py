"""Error norms, convergence rates, discrete harmonic fields and trace constants.

The velocity error is measured in the mesh-dependent norm

    |||v|||^2 = ||v||^2 + ||curl v||^2 + (1/h) ||v . t||^2_Gamma + h ||curl v||^2_Gamma,

whose boundary contributions make weak tangential data controllable. The
trace probes are local or sparse eigensolves (the inf-sup probe is
``solver.estimate_infsup``); L2 norms stand in for dual boundary norms.
"""

from __future__ import annotations

import os

import numpy as np
import scipy.linalg
import scipy.linalg.blas
from scipy.sparse.linalg import eigsh

from .forms import (assemble_b, _assemble_cells, _boundary_edge_data,
                    _boundary_rule, _cell_weights, _local_matrix, _volume_rule)
from .mesh import Mesh
from .quadrature import edge_rule, triangle_rule
from .solver import KERNEL_RANK_RTOL
from .spaces import (EdgeSpace, NodalSpace, _edge_field, _edge_points, _nodal_field,
                     _sample, _tabulate_edge)

#: the error norms of the reports, rates and CSV columns, each a key of a
#: level record's ``errors``: u in L2, curl seminorm and #-norm; the L2 errors
#: of the tangential and the curl trace on the boundary; p in L2 and H1 seminorm
NORMS = ("err_u_l2", "err_u_curl", "err_u_hash", "err_gpar", "err_gcurl",
         "err_p_l2", "err_p_h1")

RATE_WINDOW = 3


def compute_errors(V: EdgeSpace, u: np.ndarray, Q: NodalSpace, p: np.ndarray, case) -> dict:
    """The level record of ``report.json``: volume and boundary errors of the
    discrete pair (u, p), coefficient arrays in V and Q, against the case
    data, keyed by ``NORMS`` under ``errors``; the H(curl) error
    ``err_u_hcurl``; and the #-norm ``norm_u_hash`` of u, the stability
    monitor, from the same tabulation (both rules are exact for its
    polynomial integrands).

    The analytic pressure is shifted by its quadrature mean over the mesh so
    that both representatives have zero mean.
    """
    mesh, order, h = V.mesh, V.order, V.mesh.h_max
    rule = triangle_rule(2 * order + 4)
    w = _cell_weights(mesh, rule)
    pts = np.matmul(rule.points, mesh.vertices[mesh.triangles])
    p_exact = _sample(case.p, pts)
    p_mean = float((w * p_exact).sum()) / float(mesh.areas.sum())

    uh, ch = _edge_field(V, u, rule.points)
    ph, gph = _nodal_field(Q, p, rule.points)
    u_sq = float((w * ((_sample(case.u, pts) - uh) ** 2).sum(axis=-1)).sum())
    curl_sq = float((w * (_sample(case.curl_u, pts) - ch) ** 2).sum())
    p_sq = float((w * (p_exact - p_mean - ph) ** 2).sum())
    gp_sq = float((w * ((_sample(case.grad_p, pts) - gph) ** 2).sum(axis=-1)).sum())
    norm_sq = float((w * ((uh ** 2).sum(axis=-1) + ch ** 2)).sum())

    erule = edge_rule(2 * order + 4)
    tri, length, bary, pts = _edge_points(mesh, mesh.boundary_edges, erule.points)
    w = length[:, None] * erule.weights
    uh, ch = _edge_field(V, u, bary, tri)
    du_t = np.einsum("ekd,ed->ek", _sample(case.u, pts) - uh, mesh.boundary_tangents)
    gpar_sq = float((w * du_t ** 2).sum())
    gcurl_sq = float((w * (_sample(case.curl_u, pts) - ch) ** 2).sum())
    u_t = np.einsum("ekd,ed->ek", uh, mesh.boundary_tangents)
    norm_sq += float((w * (u_t ** 2 / h + h * ch ** 2)).sum())

    hcurl_sq = u_sq + curl_sq
    hash_sq = hcurl_sq + gpar_sq / h + h * gcurl_sq
    squares = {"err_u_l2": u_sq, "err_u_curl": curl_sq, "err_u_hash": hash_sq,
               "err_gpar": gpar_sq, "err_gcurl": gcurl_sq, "err_p_l2": p_sq, "err_p_h1": gp_sq}
    return {"h": h, "dofs_u": V.dof_count, "dofs_p": Q.dof_count,
            "errors": {norm: float(np.sqrt(sq)) for norm, sq in squares.items()},
            "err_u_hcurl": float(np.sqrt(hcurl_sq)), "norm_u_hash": float(np.sqrt(norm_sq))}


def compute_eoc(records: list[dict]) -> dict[str, list[float]]:
    """Pairwise EOCs of level records: log(e_k / e_{k+1}) / log(h_k / h_{k+1})
    per norm."""
    if len(records) < 2:
        raise ValueError("EOC requires at least two refinement levels")
    out: dict[str, list[float]] = {}
    for norm in NORMS:
        seq = []
        for r0, r1 in zip(records, records[1:]):
            e0, e1 = r0["errors"][norm], r1["errors"][norm]
            seq.append(float(np.log(e0 / e1) / np.log(r0["h"] / r1["h"])))
        out[norm] = seq
    return out


def least_squares_rates(records: list[dict]) -> dict[str, float]:
    """Log-log least-squares slope over the last ``RATE_WINDOW`` level records
    per norm."""
    records = records[-RATE_WINDOW:]
    if len(records) < 2:
        raise ValueError("rate fit requires at least two levels")
    hs = np.log([r["h"] for r in records])
    out = {}
    for norm in NORMS:
        es = np.log([r["errors"][norm] for r in records])
        out[norm] = float(np.polyfit(hs, es, 1)[0])
    return out


def _boundary_gram(V: EdgeSpace):
    """Sparse boundary Grams <v . t, w . t>_Gamma and <curl v, curl w>_Gamma,
    from one tabulation of the boundary traces."""
    rule = _boundary_rule(V)
    tri, length, _, trace, curls = _boundary_edge_data(V, rule)
    w = length[:, None] * rule.weights
    trace, curls = trace[..., None], curls[..., None]
    dofs = V.cell_dofs[tri]
    return tuple(_assemble_cells(dofs, dofs, _local_matrix(w, f, f), (V.dof_count,) * 2)
                 for f in (trace, curls))


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


def _physical_memory() -> int:
    """Bytes of physical memory of this machine."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _mass_orthonormal_kernel(V: EdgeSpace, Q: NodalSpace, M) -> np.ndarray:
    """Mass-orthonormal basis of X_h, the kernel of the divergence constraint
    B^T v = 0. B's kernel is the constants on a connected mesh, so B^T has
    rank Q.dof_count - 1; any other rank raises RuntimeError. The dense mass
    and coupling factors end with this call, before the curl factor is built."""
    m = M.toarray()
    _, s, vt = np.linalg.svd(assemble_b(V, Q).matrix.toarray().T, full_matrices=True)
    rank = int((s > KERNEL_RANK_RTOL * s.max()).sum())
    if rank != Q.dof_count - 1:
        raise RuntimeError(f"the coupling block has rank {rank}, "
                           f"not {Q.dof_count - 1} = pressure dofs - 1")
    x = vt[rank:].T
    chol = np.linalg.cholesky(x.T @ m @ x)
    return scipy.linalg.solve_triangular(chol, x.T, lower=True).T


def _curl_r(V: EdgeSpace, x: np.ndarray) -> np.ndarray:
    """The triangular factor R of a QR of the curl product C x; dgemm returns
    (C x)^T in column-major order, and dgeqrf overwrites one Fortran copy."""
    a = np.asfortranarray(scipy.linalg.blas.dgemm(1.0, x.T, _curl_factor(V).T).T)
    return scipy.linalg.qr(a, overwrite_a=True, mode="raw", check_finite=False)[1]


def _check_hodge_memory(V: EdgeSpace, Q: NodalSpace) -> None:
    """Refuse a Hodge decomposition whose dense working set (curl factor,
    product and its copy, the E x E mass and coupling factors), computed
    from the shapes alone, exceeds the physical memory: MemoryError before
    anything is assembled or allocated. This is the only limit on the size
    of ``hodge_decompose``'s input."""
    n, k = V.dof_count, V.dof_count - Q.dof_count + 1     # k = dim X_h
    rows = V.mesh.triangle_count * len(_volume_rule(V).weights)
    need, have = 8 * (rows * n + 2 * rows * k + 2 * n * n), _physical_memory()
    if need > have:
        raise MemoryError(f"the dense Hodge decomposition needs {need / 2 ** 30:.1f} GiB, "
                          f"more than the {have / 2 ** 30:.1f} GiB of physical memory")


def hodge_decompose(V: EdgeSpace, Q: NodalSpace, M) -> np.ndarray:
    """Basis (n, dim) of the discrete harmonic fields: the fields of X_h, the
    L2-orthogonal complement of the discrete gradients, whose curl vanishes.
    M is the assembled velocity mass matrix, which defines that inner product,
    and the basis is M-orthonormal. The harmonic fields are the null right
    singular vectors of the curl factor on X_h; that factor is tall, so its
    thin SVD has them all.

    The curl factor has m >= 11n/6 rows for its n columns (about 9 per column
    at order 1, 5 at order 2), and for such a matrix LAPACK's gesdd runs
    dgeqrf and then the SVD of the triangular factor R. Taking the SVD of the
    R of dgeqrf runs that same arithmetic, so the basis is bit-identical to
    the whole factor's SVD, but never builds the m x n left factor that
    nothing reads.

    The product and the QR run in scipy's BLAS and LAPACK. For C-contiguous
    C and x, numpy's C @ x is a row-major GEMM that OpenBLAS runs as the
    column-major dgemm of x^T and C^T, so dgemm(1, x.T, C.T) makes that same
    call and returns the same bits. np.linalg.qr(..., mode="r") copies its
    operand twice (astype, then its Fortran buffer) and calls dgeqrf after a
    workspace query; scipy's qr makes the same dgeqrf call in place on one
    Fortran copy, so the product is held twice at most, not three times.

    ``_check_hodge_memory`` bounds the dense working set that this call
    allocates; callers run it before they assemble M."""
    x = _mass_orthonormal_kernel(V, Q, M)
    _, s, vt = np.linalg.svd(_curl_r(V, x), full_matrices=False)
    smax = s.max(initial=0.0)
    ranks = int((s > KERNEL_RANK_RTOL * smax).sum()) if smax > 0 else 0
    return x @ vt[ranks:].T


def betti_number(mesh: Mesh) -> int:
    return 1 - mesh.euler_characteristic()


def trace_constant_n(V: EdgeSpace) -> float:
    """C_n^2 bounds h ||curl v||^2_Gamma by ||curl v||^2; the curl maps onto
    broken P_{r-1}, so C_n^2 is h times the top eigenvalue of (boundary
    mass, cell mass) of P_{r-1} on a boundary triangle."""
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
    return float(np.sqrt(c_n_sq))


def trace_constant_par(V: EdgeSpace, M, t_par) -> float:
    """C_par^2, the top eigenvalue of the pencil (h T_par, M), bounds
    h ||v . t||^2_Gamma by ||v||^2; M is the assembled velocity mass matrix
    and t_par the tangential boundary Gram T_par of ``_boundary_gram``."""
    c_par_sq = eigsh(V.mesh.h_max * t_par, k=1, M=M, which="LA",
                     v0=np.random.default_rng(0).standard_normal(V.dof_count),
                     return_eigenvectors=False)[0]
    return float(np.sqrt(c_par_sq))
