"""Experiment drivers shared by the command-line interface and the test suite.

The drivers build the finite-element spaces, assemble a system on them and
measure the solver's coefficient arrays (``run_probe`` maps
``analysis.stability_probes``); each returns the JSON document its command
writes, and only the parser holds defaults. Two systems come out of the
same spaces: ``build_saddle_system``, the Nitsche formulation with weak
tangential data, and ``build_essential_system``, the strongly imposed
variant whose singularity ``run_counterexample`` exhibits.

``run_convergence`` forks one helper process (POSIX only; SuperLU holds the
GIL) that solves the coarser levels while this one solves the finest; the
lowest failing level is raised first.
"""

from __future__ import annotations

import multiprocessing
from collections.abc import Iterator

import numpy as np

from . import mesh as meshmod
from .analysis import (betti_number, compute_eoc, compute_errors, harmonic_fields,
                       least_squares_rates, stability_probes, trace_constant_n)
from .cases import ManufacturedCase, get_case
from .forms import (DEFAULT_C_W, assemble_b, assemble_curl_curl, assemble_mass,
                    assemble_mean_vector, assemble_rhs, assemble_stiffness,
                    assemble_velocity_block, tabulate_boundary, tabulate_volume,
                    _boundary_gram)
from .mesh import Mesh
from .solver import SaddleSystem, kernel_probe, solve
from .spaces import (EdgeSpace, NodalSpace, _edge_field, build_edge_space,
                     build_nodal_space)

#: the ``schema_version`` of every JSON document the commands write
SCHEMA_VERSION = 1


def build_saddle_system(V: EdgeSpace, Q: NodalSpace, case: ManufacturedCase,
                        C_w: float) -> SaddleSystem:
    """Assemble the Nitsche system of a case on the spaces V and Q: the case
    velocity enters weakly through the boundary terms of ``forms``. A C_w that
    is not positive, or that overflows the velocity block, is rejected. Each
    basis is tabulated once per rule; the tabulations die with this call."""
    v, q = tabulate_volume(V), tabulate_volume(Q)
    B = assemble_b(V, Q, v, q).matrix
    mean = assemble_mean_vector(Q, q)
    del q           # dropped before the boundary tabulation, so fewer coexist
    boundary = tabulate_boundary(V)
    with np.errstate(over="ignore", invalid="ignore"):
        A = assemble_velocity_block(V, C_w, v, boundary).matrix
    if not (C_w > 0 and np.isfinite(A.data).all()):
        raise ValueError("penalty constant must be positive and finite")
    rhs_u, rhs_q = assemble_rhs(V, Q, case.f, case.u, C_w, v, boundary)
    return SaddleSystem(A, B, rhs_u, rhs_q, mean)


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
    v, q = tabulate_volume(V), tabulate_volume(Q)
    A = assemble_curl_curl(V, v).matrix[keep][:, keep]
    return SaddleSystem(A, assemble_b(V, Q, v, q).matrix[keep], np.zeros(A.shape[0]),
                        np.zeros(Q.dof_count), assemble_mean_vector(Q, q))


def _spaces(mesh: Mesh, order: int) -> tuple[EdgeSpace, NodalSpace]:
    return build_edge_space(mesh, order), build_nodal_space(mesh, order)


def level_meshes(case: ManufacturedCase, base_n: int, levels: int,
                 jitter_seed: int | None) -> Iterator[Mesh]:
    """The meshes of a refinement study: each level refines the previous
    unjittered mesh once and is then, optionally, jittered at its own scale."""
    mesh = case.mesh_builder(base_n)
    for k in range(levels):
        if k:
            mesh = meshmod.refine_uniform(mesh)
        yield mesh if jitter_seed is None else meshmod.jitter(mesh, jitter_seed)


def run_convergence(case_name: str, order: int, levels: int, C_w: float,
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

    study = (case, order, C_w, base_n, jitter_seed)
    fork = multiprocessing.get_context("fork")      # fork pickles nothing: a closure runs
    reader, writer = fork.Pipe(duplex=False)
    with reader, writer:
        helper = fork.Process(target=lambda: writer.send(_solve_levels(*study, 0, levels - 1)))
        helper.start()
        try:
            writer.close()      # the helper's copy alone is left: its exit is EOF here
            finest, failure = _solve_levels(*study, levels - 1, levels)
            try:
                coarse, coarse_failure = reader.recv()
            except EOFError:
                helper.join()
                raise MemoryError(f"levels 0 to {levels - 2}: their process ended with "
                                  f"exit code {helper.exitcode} and no result") from None
        finally:
            helper.terminate()  # it has sent by now, unless this call is leaving early
            helper.join()
    if coarse_failure or failure:
        raise coarse_failure or failure
    records = coarse + finest
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


def _solve_levels(case: ManufacturedCase, order: int, C_w: float, base_n: int,
                  jitter_seed: int | None, first: int, stop: int) -> tuple[list, Exception | None]:
    """Solve levels first to stop - 1 of a study in order, on meshes built here: their
    records with ``cw_over_cn2``, and the exception that stopped them, or None."""
    records = []
    try:
        for k, mesh in enumerate(level_meshes(case, base_n, stop, jitter_seed)):
            if k < first:
                continue
            V, Q = _spaces(mesh, order)
            try:
                rep = solve(build_saddle_system(V, Q, case, C_w))
            except MemoryError as exc:
                raise MemoryError(f"level {k} (n={base_n * 2 ** k}): {exc}") from exc
            if rep.singular:
                raise SingularLevelError(f"singular system at refinement level {k}")
            records.append(compute_errors(V, rep.u, Q, rep.p, case)
                           | {"cw_over_cn2": C_w / trace_constant_n(V) ** 2})
    except Exception as exc:
        return records, exc
    return records, None


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
    kernel_nitsche = kernel_probe(build_saddle_system(V, Q, get_case("linear"), DEFAULT_C_W))

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


def run_harmonic(case_name: str, n: int | None, order: int) -> dict:
    """Extract the discrete harmonic field basis and its diagnostics; n of
    None is the case's default size."""
    case = get_case(case_name)
    n = case.default_n if n is None else n
    mesh = case.mesh_builder(n)
    V, Q = _spaces(mesh, order)
    v, q = tabulate_volume(V), tabulate_volume(Q)
    B, S = assemble_b(V, Q, v, q).matrix, assemble_stiffness(Q, q).matrix
    del q           # dropped before M and K: repeated runs then peak lower
    M, K = assemble_mass(V, v).matrix, assemble_curl_curl(V, v).matrix
    del v           # no tabulation is held while harmonic_fields factors
    basis = harmonic_fields(V, M, B, S)
    samples, curl_ratio, ratio = [], None, None
    if basis.shape[1]:
        # curl_norm_over_boundary_trace is a surrogate for the harmonic-field
        # boundary bound, ||h||_curl / ||h.t||_Gamma, with the L2 boundary
        # norm in place of the dual norm; numpy sums keep it thread-independent
        c = basis[:, 0]
        mc = (c * (M @ c)).sum()
        kc = (c * (K @ c)).sum()
        tc = (c * (_boundary_gram(V, tabulate_boundary(V))[0] @ c)).sum()
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


def run_probe(case_name: str, levels: int, order: int) -> dict:
    """``analysis.stability_probes`` on each level of a refinement sequence
    from the coarsest mesh of the case (n = 3 for ``hole``, 2 otherwise)."""
    if levels < 1:
        raise ValueError("a probe needs at least one level")
    base_n = 3 if case_name == "hole" else 2
    meshes = level_meshes(get_case(case_name), base_n, levels, None)
    return {
        "schema_version": SCHEMA_VERSION,
        "case": case_name,
        "order": order,
        "levels": [{"level": k, **stability_probes(*_spaces(mesh, order))}
                   for k, mesh in enumerate(meshes)],
    }
