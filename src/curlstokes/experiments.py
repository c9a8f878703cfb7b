"""Experiment drivers shared by the command-line interface and the test suite."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import mesh as meshmod
from .analysis import (ErrorBundle, betti_number, compute_errors,
                       estimate_infsup, estimate_trace_constants,
                       hodge_decompose)
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


def build_saddle_system(mesh: Mesh, order: int, case: ManufacturedCase,
                        C_w: float = 10.0, essential: bool = False) -> SaddleSystem:
    """Assemble the discrete system for a case on one mesh.

    By default the tangential data enter weakly through the Nitsche terms of
    ``forms``, and the system carries its velocity and pressure spaces. With
    ``essential`` no boundary terms are assembled: the rows and columns of
    the tangential boundary dofs (both moments of every boundary edge at
    order 2) are deleted from the curl-curl and coupling blocks, and the data
    are zero. This is the ill-posed strong-imposition variant; its velocity
    block no longer matches the edge space, so the system carries no spaces.
    """
    V = build_edge_space(mesh, order)
    Q = build_nodal_space(mesh, order)
    if essential:
        be = mesh.boundary_edges
        keep = np.ones(V.dof_count, dtype=bool)
        keep[be if order == 1 else np.concatenate([2 * be, 2 * be + 1])] = False
        A = assemble_curl_curl(V).matrix[keep][:, keep]
        return SaddleSystem(A, assemble_b(V, Q).matrix[keep], np.zeros(A.shape[0]),
                            np.zeros(Q.dof_count), assemble_mean_vector(Q))
    bd = BoundaryData(g=case.g, C_w=C_w)
    A = assemble_velocity_block(V, bd).matrix
    rhs_u, rhs_q = assemble_rhs(V, case.f, bd), assemble_divergence_rhs(Q, case.g)
    return SaddleSystem(A, assemble_b(V, Q).matrix, rhs_u, rhs_q, assemble_mean_vector(Q), V, Q)


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
    bundles: list[ErrorBundle]
    hash_norms: list[float]
    config: dict


def run_convergence(case_name: str, order: int, levels: int, C_w: float = 10.0,
                    base_n: int | None = None, jitter_seed: int | None = None) -> ConvergenceRun:
    """Solve a refinement sequence and collect errors and rates."""
    if levels < 2:
        raise ValueError("a convergence study needs at least two levels")
    case = get_case(case_name)
    if base_n is None:
        base_n = case.default_n

    bundles = []
    hash_norms = []
    for k in range(levels):
        mesh = level_mesh(case, base_n, k, jitter_seed)
        rep = solve(build_saddle_system(mesh, order, case, C_w))
        if rep.singular:
            raise SingularLevelError(k)
        bundles.append(compute_errors(rep.u, rep.p, case, mesh))
        hash_norms.append(discrete_hash_norm(rep.u))
    config = {
        "command": "convergence", "case": case_name, "order": order,
        "levels": levels, "C_w": C_w, "base_n": base_n,
        "jitter_seed": jitter_seed,
    }
    return ConvergenceRun(bundles=bundles, hash_norms=hash_norms, config=config)


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
        # curl_norm_over_boundary_trace is a surrogate for the harmonic-field
        # boundary bound, ||h||_curl / ||h.t||_Gamma, with the L2 boundary
        # norm in place of the dual norm
        c = dec.harmonic_basis[:, 0]
        field = DiscreteField(V, c)
        mc = c @ (assemble_mass(V).matrix @ c)
        kc = c @ (assemble_curl_curl(V).matrix @ c)
        curl_ratio = float(np.sqrt(max(kc, 0.0) / mc))
        gpar, _ = boundary_trace_norms(field, mesh)
        ratio = float(np.sqrt(mc + kc)) / gpar
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
              base_n: int | None = None) -> dict:
    """Trace-constant and inf-sup probes across a refinement sequence."""
    if levels < 1:
        raise ValueError("a probe needs at least one level")
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
        "levels": rows,
    }
