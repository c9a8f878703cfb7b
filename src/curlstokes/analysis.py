"""Error norms, convergence rates, discrete harmonic fields and stability probes.

The velocity error is measured in the mesh-dependent norm

    |||v|||^2 = ||v||^2 + ||curl v||^2 + (1/h) ||v . t||^2_Gamma + h ||curl v||^2_Gamma,

whose boundary contributions make weak tangential data controllable.
``stability_probes`` measures the trace and inf-sup constants by local or
sparse eigensolves; L2 norms stand in for dual boundary norms. It assembles
nothing: the quadrature comes from ``spaces``, the operators from ``forms``.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import eigsh

from .forms import (assemble_b, assemble_curl_curl, assemble_mass, assemble_stiffness,
                    tabulate_boundary, tabulate_volume, _boundary_gram, _boundary_rule,
                    _volume_rule)
from .mesh import Mesh
from .quadrature import edge_rule, triangle_rule
from .solver import KERNEL_RANK_RTOL, estimate_infsup, project_off_gradients
from .spaces import (EdgeSpace, NodalSpace, _boundary_points, _cell_weights, _edge_field,
                     _nodal_field, _sample)

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

    tri, w, bary, pts = _boundary_points(mesh, edge_rule(2 * order + 4))
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


def _cut_cochains(mesh: Mesh) -> np.ndarray:
    """Closed, non-exact edge cochains (E, k), one per inner boundary loop (a
    component of the boundary edges; the outer one holds the lexicographically
    smallest vertex): the signed indicator of the edges that a dual path, a
    chain of triangles, crosses from that loop to the outer loop. c = 1 on the
    inner edge, and c[e_out] = -s_in s_out c[e_in] zeroes each triangle's sum."""
    from scipy.sparse.csgraph import breadth_first_order, connected_components

    bnd, nv, nf = mesh.boundary_edges, mesh.vertex_count, mesh.triangle_count
    a, b = mesh.edges[bnd].T
    labels = connected_components(sparse.coo_array((np.ones(bnd.size), (a, b)), shape=(nv, nv)))[1]
    loop, outer = labels[a], labels[np.lexsort(mesh.vertices.T[::-1])[0]]
    tri = mesh.edge_triangles[bnd, 0]
    on_outer = np.isin(np.arange(nf), tri[loop == outer])
    pairs = mesh.edge_triangles[mesh.edge_triangles[:, 1] >= 0].T
    dual = sparse.coo_array((np.ones(pairs.shape[1]), tuple(pairs)), shape=(nf, nf))
    cochains = np.zeros((mesh.edge_count, 0))
    for label in np.unique(loop[loop != outer]):
        start = np.argmax(loop == label)
        order, pred = breadth_first_order(dual, tri[start], directed=False)
        if not on_outer[order].any():
            raise ValueError("the mesh is not connected")
        path = [order[on_outer[order]][0]]
        while path[-1] != tri[start]:
            path.append(pred[path[-1]])
        te, sgn = mesh.triangle_edges[path[::-1]], mesh.triangle_edge_signs[path[::-1]]
        shared = te[:-1][(te[:-1, :, None] == te[1:, None, :]).any(axis=2)]
        crossed = np.concatenate([bnd[[start]], shared,
                                  bnd[[np.argmax((loop == outer) & (tri == path[0]))]]])
        c = np.zeros(mesh.edge_count)
        s_in, s_out = sgn[te == crossed[:-1, None]], sgn[te == crossed[1:, None]]
        c[crossed] = np.cumprod(np.concatenate([[1.0], -s_in * s_out]))
        cochains = np.column_stack([cochains, c])
    return cochains


def harmonic_fields(V: EdgeSpace, M, B, S) -> np.ndarray:
    """M-orthonormal basis (n, dim) of the discrete harmonic fields, the curl-free
    fields of V M-orthogonal to the discrete gradients (M the velocity mass, B
    the coupling, S the pressure stiffness):
    the cut cochains' Whitney fields projected off the gradients, orthonormalized
    by a Cholesky factor of their Gram; a Gram rank (relative to the cochains'
    M-norms) below full raises RuntimeError. Numpy sums, not BLAS dots, form it."""
    mesh, cut = V.mesh, _cut_cochains(V.mesh)
    c = np.zeros((V.dof_count, cut.shape[1]))
    c[V.edge_dofs[:, 0]] = cut                      # edge moments (c_e, 0)
    if V.order == 2:
        # interior moments: l_p grad l_q - l_q grad l_p integrates to |T| (grad l_q - grad l_p) / 3
        c[V.cell_dofs[:, -2:]] = np.einsum(
            "f,fs,fsk,fsd->fdk", mesh.areas / 3.0, mesh.triangle_edge_signs,
            cut[mesh.triangle_edges], mesh.grads[:, [1, 2, 0]] - mesh.grads)
    if not cut.shape[1]:
        return c
    h = project_off_gradients(M, B, S, c)
    gram = (h[:, :, None] * (M @ h)[:, None, :]).sum(axis=0)
    s = np.sqrt(np.abs(np.linalg.eigvalsh(gram)))
    if (s <= KERNEL_RANK_RTOL * np.sqrt((c * (M @ c)).sum(axis=0).max())).any():
        raise RuntimeError("the cut cochains' harmonic fields are linearly dependent")
    return (h[:, None, :] * np.linalg.inv(np.linalg.cholesky(gram))).sum(axis=-1)


def betti_number(mesh: Mesh) -> int:
    return 1 - mesh.euler_characteristic()


def trace_constant_n(V: EdgeSpace) -> float:
    """C_n^2 bounds h ||curl v||^2_Gamma by ||curl v||^2; the curl maps onto
    broken P_{r-1}, so C_n^2 is h times the top eigenvalue of (boundary
    mass, cell mass) of P_{r-1} on a boundary triangle."""
    mesh, h = V.mesh, V.mesh.h_max
    basis = np.eye(3) if V.order == 2 else np.ones((3, 1))   # P_{r-1} from barycentrics
    tri, w, bary, _ = _boundary_points(mesh, _boundary_rule(V))
    bnd = np.zeros((mesh.triangle_count,) + (basis.shape[1],) * 2)
    np.add.at(bnd, tri, np.einsum("ek,eki,ekj->eij", w, bary @ basis, bary @ basis))
    tri, rule = np.unique(tri), _volume_rule(V)
    cell = np.einsum("fk,ki,kj->fij", _cell_weights(mesh, rule)[tri],
                     rule.points @ basis, rule.points @ basis)
    c_n_sq = h * np.linalg.eigvals(np.linalg.solve(cell, bnd[tri])).real.max()
    return float(np.sqrt(c_n_sq))


def stability_probes(V: EdgeSpace, Q: NodalSpace) -> dict:
    """One ``probe.json`` row, less its level: C_n; C_par, whose square, the
    top eigenvalue of the pencil (h T_par, M), bounds h ||v . t||^2_Gamma by
    ||v||^2; the penalty 2 C_n^2, twice the coercivity threshold; and beta_h
    of B against the #-norm Gram H = M + K + T_par / h + h T_curl."""
    h = V.mesh.h_max
    v, q = tabulate_volume(V), tabulate_volume(Q)
    M, K = assemble_mass(V, v).matrix, assemble_curl_curl(V, v).matrix
    B, S = assemble_b(V, Q, v, q).matrix, assemble_stiffness(Q, q).matrix
    del v, q
    t_par, t_curl = _boundary_gram(V, tabulate_boundary(V))
    c_n = trace_constant_n(V)
    c_par_sq = eigsh(h * t_par, k=1, M=M, which="LA",
                     v0=np.random.default_rng(0).standard_normal(V.dof_count),
                     return_eigenvectors=False)[0]
    hash_gram = M + K + t_par / h + h * t_curl
    beta = estimate_infsup(hash_gram, B, S)
    return {"h": h, "C_n": c_n, "C_par": float(np.sqrt(c_par_sq)),
            "recommended_C_w": 2.0 * c_n ** 2, "beta_h": beta, "beta_over_h": beta / h}
