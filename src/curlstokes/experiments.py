"""Experiment drivers shared by the command-line interface and the test suite."""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import mesh as meshmod
from .analysis import (ConvergenceReport, ErrorBundle, betti_number,
                       compute_eoc, compute_errors, estimate_infsup,
                       estimate_trace_constants, harmonic_boundary_ratio,
                       hodge_decompose, least_squares_rates)
from .cases import ManufacturedCase, get_case
from .forms import (BoundaryData, assemble_b, assemble_curl_curl,
                    assemble_divergence_rhs, assemble_mass,
                    assemble_mean_vector, assemble_rhs,
                    assemble_velocity_block, boundary_trace_norms, _cell_weights,
                    _volume_rule)
from .mesh import Mesh
from .solver import SaddleSystem, SolveReport, kernel_probe, solve
from .spaces import (DiscreteField, _edge_field, build_edge_space,
                     build_nodal_space)


def thread_count() -> int:
    """Level-parallelism requested through CURLSTOKES_THREADS (default 1)."""
    try:
        return max(1, int(os.environ.get("CURLSTOKES_THREADS", "1")))
    except ValueError:
        return 1


def build_saddle_system(mesh: Mesh, order: int, case: ManufacturedCase,
                        C_w: float = 10.0, per_edge_h: bool = False,
                        essential: bool = False) -> SaddleSystem:
    """Assemble the discrete system for a case on one mesh.

    With ``essential`` the tangential boundary dofs are removed and no
    boundary terms are assembled: the (ill-posed) strong-imposition variant.
    """
    V = build_edge_space(mesh, order, essential_bc=essential)
    Q = build_nodal_space(mesh, order)
    if essential:
        A = assemble_curl_curl(V)
        rhs_u = np.zeros(V.dof_count)
        rhs_q = np.zeros(Q.dof_count)
    else:
        bd = BoundaryData(g=case.g, C_w=C_w, h=mesh.h_max, per_edge_h=per_edge_h)
        A = assemble_velocity_block(V, bd)
        rhs_u = assemble_rhs(V, case.f, bd)
        rhs_q = assemble_divergence_rhs(Q, case.g)
    return SaddleSystem(A.matrix, assemble_b(V, Q).matrix, rhs_u, rhs_q,
                        assemble_mean_vector(Q), V, Q)


def discrete_hash_norm(u_h: DiscreteField) -> float:
    """Mesh-dependent velocity norm of a discrete field (stability monitor)."""
    mesh = u_h.space.mesh
    rule = _volume_rule(u_h.space)
    vals, curls = _edge_field(u_h, rule.points)
    vol = float((_cell_weights(mesh, rule) * ((vals ** 2).sum(axis=-1) + curls ** 2)).sum())
    gpar, gcurl = boundary_trace_norms(u_h, mesh)
    h = mesh.h_max
    return float(np.sqrt(vol + gpar ** 2 / h + h * gcurl ** 2))


def level_mesh(case: ManufacturedCase, base_n: int, level: int,
               jitter_seed: int | None) -> Mesh:
    """Uniformly refined mesh for one level, optionally jittered at its own scale."""
    mesh = case.build_mesh(base_n)
    for _ in range(level):
        mesh = meshmod.refine_uniform(mesh)
    if jitter_seed is not None:
        mesh = meshmod.jitter(mesh, jitter_seed)
    return mesh


@dataclass
class ConvergenceRun:
    report: ConvergenceReport
    hash_norms: list[float]
    config: dict


def run_convergence(case_name: str, order: int, levels: int, C_w: float = 10.0,
                    base_n: int | None = None, jitter_seed: int | None = None,
                    per_edge_h: bool = False) -> ConvergenceRun:
    """Solve a refinement sequence and collect errors and rates."""
    if levels < 2:
        raise ValueError("a convergence study needs at least two levels")
    case = get_case(case_name)
    if base_n is None:
        base_n = case.default_n

    def solve_level(k: int) -> tuple[ErrorBundle, float]:
        mesh = level_mesh(case, base_n, k, jitter_seed)
        system = build_saddle_system(mesh, order, case, C_w, per_edge_h)
        rep = solve(system)
        if rep.singular:
            raise SingularLevelError(k)
        bundle = compute_errors(rep.u, rep.p, case, mesh)
        return bundle, discrete_hash_norm(rep.u)

    workers = thread_count()
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(solve_level, range(levels)))
    else:
        results = [solve_level(k) for k in range(levels)]
    bundles = [r[0] for r in results]
    config = {
        "command": "convergence", "case": case_name, "order": order,
        "levels": levels, "C_w": C_w, "base_n": base_n,
        "jitter_seed": jitter_seed, "per_edge_h": per_edge_h,
    }
    return ConvergenceRun(report=ConvergenceReport(bundles),
                          hash_norms=[r[1] for r in results], config=config)


class SingularLevelError(Exception):
    """A convergence level produced a singular system."""

    def __init__(self, level: int):
        super().__init__(f"singular system at refinement level {level}")
        self.level = level


def run_counterexample() -> dict:
    """Reproduce the ill-posedness of strong tangential boundary conditions.

    The strongly constrained Whitney/P1 pair on the two-triangle square has a
    two-dimensional kernel containing the hat-function witness; the weak
    formulation on the same mesh is nonsingular.
    """
    case = get_case("linear")   # data irrelevant; the probe inspects operators
    base = meshmod.two_triangle_square()

    sys_ess = build_saddle_system(base, 1, case, essential=True)
    probe = kernel_probe(sys_ess)
    # hat-function witness: vertex values of lambda_1 - 1/6 at the four corners
    witness_p = np.array([5.0, -1.0, -1.0, -1.0]) / 6.0
    witness_u = np.zeros(sys_ess.n_u)
    res_u = sys_ess.A @ witness_u + sys_ess.B @ witness_p
    res_q = sys_ess.B.T @ witness_u
    witness_residual = float(max(np.abs(res_u).max(), np.abs(res_q).max()))
    span = np.stack([np.concatenate([wu, wp]) for wu, wp in probe.witnesses], axis=1)
    target = np.concatenate([witness_u, witness_p])
    coeffs, *_ = np.linalg.lstsq(span, target, rcond=None)
    in_span_residual = float(np.linalg.norm(span @ coeffs - target))

    refined = meshmod.refine_uniform(base)
    probe_refined = kernel_probe(build_saddle_system(refined, 1, case, essential=True))

    sys_nitsche = build_saddle_system(base, 1, case, C_w=10.0)
    probe_nitsche = kernel_probe(sys_nitsche)

    solve_report = solve(sys_ess)
    return {
        "schema_version": 1,
        "essential": {
            "kernel_dimension": probe.dimension,
            "witness_pressure": witness_p.tolist(),
            "witness_residual": witness_residual,
            "witness_in_span_residual": in_span_residual,
            "solver_flags_singular": bool(solve_report.singular),
        },
        "essential_refined": {"kernel_dimension": probe_refined.dimension},
        "nitsche": {"C_w": 10.0, "kernel_dimension": probe_nitsche.dimension},
    }


def run_harmonic(case_name: str = "hole", n: int | None = None, order: int = 1) -> dict:
    """Extract the discrete harmonic field basis and its diagnostics."""
    case = get_case(case_name)
    mesh = case.build_mesh(n)
    V = build_edge_space(mesh, order)
    Q = build_nodal_space(mesh, order)
    dec = hodge_decompose(V, Q)
    dim = dec.harmonic_basis.shape[1]
    betti = betti_number(mesh)
    samples = []
    curl_ratio = None
    ratio = None
    if dim:
        field = DiscreteField(V, dec.harmonic_basis[:, 0])
        k_mat = assemble_curl_curl(V).matrix
        m_mat = assemble_mass(V).matrix
        c = field.coefficients
        curl_ratio = float(np.sqrt(max(c @ (k_mat @ c), 0.0) / (c @ (m_mat @ c))))
        ratio = harmonic_boundary_ratio(V, Q)
        center = np.array([[1.0, 1.0, 1.0]]) / 3.0
        pts = np.matmul(center, mesh.vertices[mesh.triangles])[:, 0]
        vals = _edge_field(field, center)[0][:, 0]
        samples = np.hstack([pts, vals]).tolist()
    return {
        "schema_version": 1,
        "case": case_name,
        "n": n if n is not None else case.default_n,
        "order": order,
        "dimension": dim,
        "betti_number": betti,
        "curl_over_mass_ratio": curl_ratio,
        "curl_norm_over_boundary_trace": ratio,
        "samples": samples,
    }


def run_probe(case_name: str, levels: int = 3, order: int = 1,
              C_w: float = 10.0, base_n: int | None = None) -> dict:
    """Trace-constant and inf-sup probes across a refinement sequence."""
    case = get_case(case_name)
    if base_n is None:
        base_n = min(case.default_n, 3 if case_name == "hole" else 2)
    rows = []
    for k in range(levels):
        mesh = level_mesh(case, base_n, k, None)
        V = build_edge_space(mesh, order)
        Q = build_nodal_space(mesh, order)
        tc = estimate_trace_constants(V)
        beta = estimate_infsup(V, Q)
        rows.append({
            "level": k,
            "h": mesh.h_max,
            "C_n": tc.c_n,
            "C_par": tc.c_par,
            "recommended_C_w": tc.recommended_cw,
            "beta_h": beta,
            "beta_over_h": beta / mesh.h_max,
        })
    return {
        "schema_version": 1,
        "case": case_name,
        "order": order,
        "C_w_used": C_w,
        "levels": rows,
    }
