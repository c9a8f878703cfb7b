"""Experiment drivers shared by the command-line interface and the test suite.

The drivers build the finite-element spaces, assemble a system on them and
measure the solver's coefficient arrays on those spaces; each returns the
JSON document its command writes. Two systems come out of the same spaces:
``build_saddle_system``, the Nitsche formulation with weak tangential data,
and ``build_essential_system``, the strongly imposed variant whose
singularity ``run_counterexample`` exhibits.
"""

from __future__ import annotations

import numpy as np

from . import mesh as meshmod
from .analysis import (betti_number, compute_eoc, compute_errors, harmonic_fields,
                       least_squares_rates, trace_constant_n, trace_constant_par, _boundary_gram)
from .cases import ManufacturedCase, get_case
from .forms import (DEFAULT_C_W, assemble_b, assemble_curl_curl,
                    assemble_divergence_rhs, assemble_mass,
                    assemble_mean_vector, assemble_rhs, assemble_stiffness,
                    assemble_velocity_block)
from .mesh import Mesh
from .solver import SaddleSystem, estimate_infsup, kernel_probe, solve
from .spaces import (EdgeSpace, NodalSpace, _edge_field, build_edge_space,
                     build_nodal_space)

#: the ``schema_version`` of every JSON document the commands write
SCHEMA_VERSION = 1


def build_saddle_system(V: EdgeSpace, Q: NodalSpace, case: ManufacturedCase,
                        C_w: float = DEFAULT_C_W) -> SaddleSystem:
    """Assemble the Nitsche system of a case on the spaces V and Q: the case
    velocity enters weakly through the boundary terms of ``forms``."""
    if not (np.isfinite(C_w) and C_w > 0):
        raise ValueError("penalty constant must be positive and finite")
    A = assemble_velocity_block(V, C_w).matrix
    rhs_u, rhs_q = assemble_rhs(V, case.f, case.u, C_w), assemble_divergence_rhs(Q, case.u)
    return SaddleSystem(A, assemble_b(V, Q).matrix, rhs_u, rhs_q, assemble_mean_vector(Q))


def build_essential_system(V: EdgeSpace, Q: NodalSpace) -> SaddleSystem:
    """The strong-imposition variant on V and Q: no boundary terms, the rows
    and columns of the tangential boundary dofs, ``V.edge_dofs`` of the
    boundary edges (both moments at order 2), deleted from the curl-curl and
    coupling blocks, and zero data. Ill-posed at order 1: a kernel of
    dimension 2 on 2 and 8 triangles, which ``solve`` flags singular. At
    order 2 ``solve`` does not; ROADMAP item 11 finds no kernel past 2
    triangles, inf-sup constant ~0.058."""
    keep = np.ones(V.dof_count, dtype=bool)
    keep[V.edge_dofs[V.mesh.boundary_edges]] = False
    A = assemble_curl_curl(V).matrix[keep][:, keep]
    return SaddleSystem(A, assemble_b(V, Q).matrix[keep], np.zeros(A.shape[0]),
                        np.zeros(Q.dof_count), assemble_mean_vector(Q))


def _spaces(mesh: Mesh, order: int) -> tuple[EdgeSpace, NodalSpace]:
    return build_edge_space(mesh, order), build_nodal_space(mesh, order)


def level_mesh(case: ManufacturedCase, base_n: int, level: int,
               jitter_seed: int | None) -> Mesh:
    """Uniformly refined mesh for one level, optionally jittered at its own scale."""
    mesh = case.mesh_builder(base_n)
    for _ in range(level):
        mesh = meshmod.refine_uniform(mesh)
    if jitter_seed is not None:
        mesh = meshmod.jitter(mesh, jitter_seed)
    return mesh


def run_convergence(case_name: str, order: int, levels: int, C_w: float = DEFAULT_C_W,
                    base_n: int | None = None, jitter_seed: int | None = None) -> dict:
    """Solve a refinement sequence and return the ``report.json`` document:
    the configuration, each level's ``compute_errors`` record with its
    ``cw_over_cn2`` = C_w / C_n^2 (above 1 the velocity block is
    guaranteed coercive), and the rates."""
    if levels < 2:
        raise ValueError("a convergence study needs at least two levels")
    if jitter_seed is not None and jitter_seed < 0:
        raise ValueError(f"the jitter seed must be non-negative, not {jitter_seed}")
    case = get_case(case_name)
    if base_n is None:
        base_n = case.default_n

    records = []
    for k in range(levels):
        V, Q = _spaces(level_mesh(case, base_n, k, jitter_seed), order)
        rep = solve(build_saddle_system(V, Q, case, C_w))
        if rep.singular:
            raise SingularLevelError(f"singular system at refinement level {k}")
        records.append(compute_errors(V, rep.u, Q, rep.p, case)
                       | {"cw_over_cn2": C_w / trace_constant_n(V) ** 2})
    return {
        "schema_version": SCHEMA_VERSION,
        "config": {"command": "convergence", "case": case_name, "order": order,
                   "levels": levels, "C_w": C_w, "base_n": base_n, "jitter_seed": jitter_seed},
        "levels": [{"level": k, **rec} for k, rec in enumerate(records)],
        "eoc": compute_eoc(records),
        "eoc_least_squares_last3": least_squares_rates(records),
    }


class SingularLevelError(Exception):
    """A convergence level produced a singular system."""


def run_counterexample() -> dict:
    """Reproduce the ill-posedness of strong tangential boundary conditions.

    The strongly constrained Whitney/P1 pair on the two-triangle square has a
    two-dimensional kernel containing the hat-function witness; the weak
    formulation on the same mesh is nonsingular.
    """
    base = meshmod.two_triangle_square()
    V, Q = _spaces(base, 1)

    sys_ess = build_essential_system(V, Q)
    kernel = kernel_probe(sys_ess)
    # hat-function witness, a pure pressure mode: vertex values of lambda_1 - 1/6
    # at the four corners and zero velocity, so its residual is B witness_p
    witness_p = np.array([5.0, -1.0, -1.0, -1.0]) / 6.0
    witness_residual = float(np.abs(sys_ess.B @ witness_p).max())
    target = np.concatenate([np.zeros(sys_ess.n_u), witness_p])
    # the kernel columns are orthonormal: project onto their span
    in_span_residual = float(np.linalg.norm(target - kernel @ (kernel.T @ target)))

    refined = meshmod.refine_uniform(base)
    kernel_refined = kernel_probe(build_essential_system(*_spaces(refined, 1)))
    # data irrelevant; the probe inspects operators
    kernel_nitsche = kernel_probe(build_saddle_system(V, Q, get_case("linear")))

    solve_report = solve(sys_ess)
    return {
        "schema_version": SCHEMA_VERSION,
        "essential": {
            "kernel_dimension": kernel.shape[1],
            "witness_pressure": witness_p.tolist(),
            "witness_residual": witness_residual,
            "witness_in_span_residual": in_span_residual,
            "solver_flags_singular": bool(solve_report.singular),
        },
        "essential_refined": {"kernel_dimension": kernel_refined.shape[1]},
        "nitsche": {"C_w": DEFAULT_C_W, "kernel_dimension": kernel_nitsche.shape[1]},
    }


def run_harmonic(case_name: str = "hole", n: int | None = None, order: int = 1) -> dict:
    """Extract the discrete harmonic field basis and its diagnostics."""
    case = get_case(case_name)
    n = case.default_n if n is None else n
    mesh = case.mesh_builder(n)
    V, Q = _spaces(mesh, order)
    M = assemble_mass(V).matrix
    basis = harmonic_fields(V, Q, M)
    samples, curl_ratio, ratio = [], None, None
    if basis.shape[1]:
        # curl_norm_over_boundary_trace is a surrogate for the harmonic-field
        # boundary bound, ||h||_curl / ||h.t||_Gamma, with the L2 boundary
        # norm in place of the dual norm; numpy sums keep it thread-independent
        c = basis[:, 0]
        mc = (c * (M @ c)).sum()
        kc = (c * (assemble_curl_curl(V).matrix @ c)).sum()
        tc = (c * (_boundary_gram(V)[0] @ c)).sum()
        curl_ratio = float(np.sqrt(max(kc, 0.0) / mc))
        ratio = float(np.sqrt(mc + kc) / np.sqrt(tc))
        center = np.array([[1.0, 1.0, 1.0]]) / 3.0
        pts = np.matmul(center, mesh.vertices[mesh.triangles])[:, 0]
        vals = _edge_field(V, c, center)[0][:, 0]
        samples = np.hstack([pts, vals]).tolist()
    return {
        "schema_version": SCHEMA_VERSION,
        "case": case_name,
        "n": n,
        "order": order,
        "dimension": basis.shape[1],
        "betti_number": betti_number(mesh),
        "curl_over_mass_ratio": curl_ratio,
        "curl_norm_over_boundary_trace": ratio,
        "samples": samples,
    }


def run_probe(case_name: str, levels: int = 3, order: int = 1) -> dict:
    """Trace-constant and inf-sup probes across a refinement sequence from
    the coarsest mesh of the case (n = 3 for ``hole``, 2 otherwise)."""
    if levels < 1:
        raise ValueError("a probe needs at least one level")
    case = get_case(case_name)
    base_n = 3 if case_name == "hole" else 2
    rows = []
    for k in range(levels):
        mesh = level_mesh(case, base_n, k, None)
        V, Q = _spaces(mesh, order)
        M = assemble_mass(V).matrix
        t_par, t_curl = _boundary_gram(V)
        c_n, c_par = trace_constant_n(V), trace_constant_par(V, M, t_par)
        h = mesh.h_max
        hash_gram = M + assemble_curl_curl(V).matrix + t_par / h + h * t_curl
        beta = estimate_infsup(hash_gram, assemble_b(V, Q).matrix, assemble_stiffness(Q).matrix,
                               assemble_mean_vector(Q))
        rows.append({
            "level": k,
            "h": h,
            "C_n": c_n,
            "C_par": c_par,
            "recommended_C_w": 2.0 * c_n ** 2,   # twice the coercivity threshold
            "beta_h": beta,
            "beta_over_h": beta / h,
        })
    return {
        "schema_version": SCHEMA_VERSION,
        "case": case_name,
        "order": order,
        "levels": rows,
    }
