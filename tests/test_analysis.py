import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from curlstokes import analysis, experiments
from curlstokes.analysis import (betti_number, compute_eoc, compute_errors,
                                 harmonic_fields, least_squares_rates,
                                 trace_constant_n, trace_constant_par, _boundary_gram)
from curlstokes.cases import ManufacturedCase, get_case
from curlstokes.experiments import run_harmonic, run_probe
from curlstokes.forms import (_assemble_cells, _boundary_edge_data,
                              _boundary_rule, assemble_b, assemble_curl_curl,
                              assemble_mass, assemble_mean_vector, assemble_stiffness,
                              assemble_velocity_block)
from curlstokes.mesh import (_grid_mesh, generate_l_shape, generate_square_with_hole,
                             generate_unit_square, jitter, two_triangle_square)
from curlstokes.spaces import build_edge_space, build_nodal_space

from mesh_strategies import jittered_meshes
from oracles import (full_svd_hodge, interpolate_edge, interpolate_nodal, probe_infsup,
                     solve_fields)


# Dense oracles for the trace-constant and inf-sup probes: full generalized
# eigensolves on the dense Gram matrices, restricted to the range of the curl
# and to zero-mean pressures by explicit bases.

def dense_boundary_grams(V):
    """Dense boundary Gram matrices of tangential traces and curl traces."""
    rule = _boundary_rule(V)
    n = V.dof_count
    tri, length, _, trace, curls = _boundary_edge_data(V, rule)
    w = length[:, None] * rule.weights
    dofs = V.cell_dofs[tri]
    t_par = _assemble_cells(dofs, dofs, np.einsum("ek,eki,ekj->eij", w, trace, trace),
                            (n, n)).toarray()
    t_curl = _assemble_cells(dofs, dofs, np.einsum("ek,eki,ekj->eij", w, curls, curls),
                             (n, n)).toarray()
    return t_par, t_curl


def dense_trace_constants(V):
    """(C_n, C_par) from dense eigensolves; C_n over the range of the curl."""
    h = V.mesh.h_max
    t_par, t_curl = dense_boundary_grams(V)
    m = assemble_mass(V).matrix.toarray()
    k = assemble_curl_curl(V).matrix.toarray()
    c_par_sq = scipy.linalg.eigh(h * t_par, m, eigvals_only=True)[-1]
    w, vecs = np.linalg.eigh(k)
    basis = vecs[:, w > 1e-10 * w.max()]
    c_n_sq = scipy.linalg.eigh(h * basis.T @ t_curl @ basis, basis.T @ k @ basis,
                               eigvals_only=True)[-1]
    return float(np.sqrt(c_n_sq)), float(np.sqrt(c_par_sq))


def dense_infsup(V, Q):
    """beta_h from a dense solve and eigensolve on the zero-mean pressures."""
    h = V.mesh.h_max
    t_par, t_curl = dense_boundary_grams(V)
    hash_gram = (assemble_mass(V).matrix.toarray() + assemble_curl_curl(V).matrix.toarray()
                 + t_par / h + h * t_curl)
    b = assemble_b(V, Q).matrix.toarray()
    _, _, vt = np.linalg.svd(assemble_mean_vector(Q)[None, :])
    z = vt[1:].T
    bz = b @ z
    gram = bz.T @ np.linalg.solve(hash_gram, bz)
    vals = scipy.linalg.eigh(gram, z.T @ assemble_stiffness(Q).matrix.toarray() @ z,
                             eigvals_only=True)
    return float(np.sqrt(max(vals[0], 0.0)))


def test_errors_vanish_for_reproduced_solution():
    case = get_case("linear")
    mesh = generate_unit_square(2)
    V = build_edge_space(mesh, 1)
    Q = build_nodal_space(mesh, 1)
    rec = compute_errors(V, interpolate_edge(V, case.u), Q, interpolate_nodal(Q, case.p), case)
    e = rec["errors"]
    assert e["err_u_l2"] <= 1e-10
    assert e["err_u_curl"] <= 1e-10
    assert e["err_u_hash"] <= 1e-9
    assert e["err_gpar"] <= 1e-10
    assert e["err_gcurl"] <= 1e-10
    assert e["err_p_l2"] <= 1e-12
    assert e["err_p_h1"] <= 1e-12


def test_hash_norm_identity():
    case = get_case("star")
    mesh = generate_unit_square(4)
    rep, V, Q = solve_fields(mesh, 1, case, 10.0)
    rec = compute_errors(V, rep.u, Q, rep.p, case)
    e, hcurl = rec["errors"], rec["err_u_hcurl"]
    h = mesh.h_max
    recomposed = (hcurl ** 2 + e["err_gpar"] ** 2 / h
                  + h * e["err_gcurl"] ** 2)
    assert e["err_u_hash"] ** 2 == pytest.approx(recomposed, rel=1e-12)
    assert e["err_u_hash"] ** 2 >= hcurl ** 2 - 1e-12
    assert hcurl ** 2 == pytest.approx(
        e["err_u_l2"] ** 2 + e["err_u_curl"] ** 2, rel=1e-12)


def _zero_case():
    """Zero analytic data: every error of compute_errors is a norm of u, p."""
    vec = lambda x, y: np.zeros((np.size(x), 2))
    scalar = lambda x, y: np.zeros(np.size(x))
    return ManufacturedCase(mesh_builder=generate_unit_square, default_n=2,
                            u=vec, p=scalar, curl_u=scalar, grad_p=vec, f=vec)


def _velocity_errors(V, u):
    """``compute_errors`` of the velocity u in V, with zero pressure and data."""
    Q = build_nodal_space(V.mesh, V.order)
    return compute_errors(V, u, Q, np.zeros(Q.dof_count), _zero_case())


def test_hash_norm_oracle_rotation_field():
    # sympy oracle on the unit square: the rotation field (-y, x) lies in the
    # Whitney space and has ||v||^2 = 2/3, ||curl v||^2 = 4,
    # ||v . t||^2_Gamma = 2 and ||curl v||^2_Gamma = 4 * perimeter = 16
    m = generate_unit_square(2)
    V = build_edge_space(m, 1)
    rot = lambda x, y: np.column_stack([-np.asarray(y, float), np.asarray(x, float)])
    rec = _velocity_errors(V, interpolate_edge(V, rot))
    e = rec["errors"]
    h = m.h_max
    assert e["err_gpar"] ** 2 == pytest.approx(2.0, rel=1e-12)
    assert e["err_gcurl"] ** 2 == pytest.approx(16.0, rel=1e-12)
    assert rec["norm_u_hash"] ** 2 == pytest.approx(2 / 3 + 4.0 + 2.0 / h + 16.0 * h, rel=1e-12)
    assert rec["norm_u_hash"] == pytest.approx(e["err_u_hash"], rel=1e-14)
    zero = _velocity_errors(V, np.zeros(V.dof_count))
    assert zero["norm_u_hash"] == 0.0 and zero["errors"]["err_u_hash"] == 0.0


@settings(max_examples=10, deadline=None)
@given(mesh=jittered_meshes(6, [3, 6]), order=st.sampled_from((1, 2)),
       seed=st.integers(0, 2 ** 16))
def test_hash_norm_matches_gram_of_infsup_probe(mesh, order, seed):
    # the #-norm that compute_errors reports is the quadratic form of the
    # Gram matrix H = M + K + T_par / h + h T_curl of the inf-sup probe
    V = build_edge_space(mesh, order)
    c = np.random.default_rng(seed).standard_normal(V.dof_count)
    h = mesh.h_max
    t_par, t_curl = _boundary_gram(V)
    gram = assemble_mass(V).matrix + assemble_curl_curl(V).matrix + t_par / h + h * t_curl
    rec = _velocity_errors(V, c)
    assert rec["norm_u_hash"] == pytest.approx(np.sqrt(c @ (gram @ c)), rel=1e-12)


def _record(err, h):
    """A level record of ``compute_errors`` with every norm equal to err."""
    return {"h": h, "dofs_u": 1, "dofs_p": 1, "errors": dict.fromkeys(analysis.NORMS, err),
            "err_u_hcurl": err, "norm_u_hash": 1.0}


def test_eoc_formula():
    rep = [_record(1.0, 1.0), _record(0.5, 0.5)]
    assert compute_eoc(rep)["err_u_l2"] == [pytest.approx(1.0)]
    rep = [_record(1.0, 1.0), _record(0.25, 0.5)]
    assert compute_eoc(rep)["err_u_l2"] == [pytest.approx(2.0)]
    rep = [_record(1.0, 1.0), _record(np.sqrt(2) / 2, 0.5)]
    assert compute_eoc(rep)["err_u_l2"] == [pytest.approx(0.5)]


def test_eoc_requires_two_levels():
    with pytest.raises(ValueError):
        compute_eoc([_record(1.0, 1.0)])


def test_least_squares_rates():
    records = [_record(2.0 * 0.5 ** (2 * k), 0.5 ** k) for k in range(4)]
    rates = least_squares_rates(records)
    assert rates["err_u_l2"] == pytest.approx(2.0, abs=1e-12)
    # each norm has one name, in one order: the key of a level record's
    # errors and of every rate
    mesh = generate_unit_square(2)
    V, Q = build_edge_space(mesh, 1), build_nodal_space(mesh, 1)
    rec = compute_errors(V, np.zeros(V.dof_count), Q, np.zeros(Q.dof_count), get_case("star"))
    assert tuple(rec["errors"]) == analysis.NORMS
    assert tuple(rates) == analysis.NORMS
    assert tuple(compute_eoc(records)) == analysis.NORMS


@pytest.mark.parametrize("order,jitter_seed", [(1, 7), (2, None)])
def test_report_levels_are_compute_errors_records(order, jitter_seed):
    # each report.json level is compute_errors' record of that level's solve,
    # plus the penalty over the coercivity threshold, C_w / C_n^2, recomputed
    # here from trace_constant_n
    case, C_w = get_case("star"), 10.0
    report = experiments.run_convergence("star", order, 2, C_w=C_w, base_n=4,
                                         jitter_seed=jitter_seed)
    assert len(report["levels"]) == 2
    for k, level in enumerate(report["levels"]):
        rep, V, Q = solve_fields(experiments.level_mesh(case, 4, k, jitter_seed), order, case, C_w)
        assert level == {"level": k, **compute_errors(V, rep.u, Q, rep.p, case),
                         "cw_over_cn2": C_w / trace_constant_n(V) ** 2}


def check_harmonic_complements_oracle(V, Q, M, basis):
    """The harmonic basis is M-orthogonal to the oracle's gradient and curl
    blocks, and the three blocks span the velocity space."""
    grad_basis, z_basis, _ = full_svd_hodge(V, Q)
    assert grad_basis.shape[1] + z_basis.shape[1] + basis.shape[1] == V.dof_count
    for block in (grad_basis, z_basis):
        if block.size and basis.size:
            assert np.abs(block.T @ (M @ basis)).max() <= 1e-10


@pytest.mark.parametrize("order", [1, 2])
def test_hodge_square(order):
    mesh = generate_unit_square(2)
    V = build_edge_space(mesh, order)
    Q = build_nodal_space(mesh, order)
    M = assemble_mass(V).matrix
    basis = harmonic_fields(V, Q, M)
    assert basis.shape[1] == 0
    check_harmonic_complements_oracle(V, Q, M, basis)


def test_hodge_orthogonality_and_hole_dimension():
    mesh = generate_square_with_hole(3)
    V = build_edge_space(mesh, 1)
    Q = build_nodal_space(mesh, 1)
    M = assemble_mass(V).matrix
    basis = harmonic_fields(V, Q, M)
    assert basis.shape[1] == 1
    check_harmonic_complements_oracle(V, Q, M, basis)


def test_harmonic_fields_check_the_gram_rank(monkeypatch):
    # a rank tolerance of 1 counts the projected cochain, shorter in the
    # M-norm than the cochain itself, as numerically zero
    mesh = generate_square_with_hole(3)
    V = build_edge_space(mesh, 1)
    Q = build_nodal_space(mesh, 1)
    monkeypatch.setattr(analysis, "KERNEL_RANK_RTOL", 1.0)
    with pytest.raises(RuntimeError, match="linearly dependent"):
        harmonic_fields(V, Q, assemble_mass(V).matrix)


def _mass_projector(M, basis):
    """The M-orthogonal projector onto the span of an M-orthonormal basis."""
    return basis @ (M @ basis).T


@pytest.mark.parametrize("order, n", [(1, 3), (1, 6), (1, 18), (2, 3), (2, 6), (2, 12)])
def test_harmonic_span_matches_full_svd_oracle(order, n):
    # the cut-cochain fields and the oracle's null curl vectors may differ by
    # sign (and, past one hole, by rotation): their projectors must agree
    mesh = generate_square_with_hole(n)
    V = build_edge_space(mesh, order)
    Q = build_nodal_space(mesh, order)
    M = assemble_mass(V).matrix
    basis, oracle = harmonic_fields(V, Q, M), full_svd_hodge(V, Q)[2]
    assert basis.shape[1] == oracle.shape[1] == 1
    assert np.abs(_mass_projector(M, basis) - _mass_projector(M, oracle)).max() <= 1e-10


@pytest.mark.parametrize("order", [1, 2])
def test_two_holes_carry_two_harmonic_fields(order):
    # two separated square holes in a 9 x 9 grid; no case has more than one
    coords = np.arange(10) / 9
    keep = np.ones((9, 9), dtype=bool)
    keep[2:4, 2:4] = keep[5:7, 5:7] = False
    mesh = _grid_mesh(coords, coords, keep)
    V = build_edge_space(mesh, order)
    Q = build_nodal_space(mesh, order)
    M = assemble_mass(V).matrix
    basis = harmonic_fields(V, Q, M)
    assert basis.shape[1] == betti_number(mesh) == 2
    assert np.abs(basis.T @ (M @ basis) - np.eye(2)).max() <= 1e-12
    check_harmonic_complements_oracle(V, Q, M, basis)


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmRSS and VmHWM")
def test_harmonic_peak_rss(tmp_path):
    # a fresh interpreter's peak RSS above its post-import RSS during
    # harmonic --n 18: 123.8 MiB when a dense Hodge split held its mass and
    # coupling factors and np.linalg.qr held the curl product three times,
    # 96.7 MiB with one in-place dgeqrf copy, about 10 MiB with the sparse
    # projection of the cut cochain (2-core box, OpenBLAS 0.3.30/31).
    # The peak is the process's VmHWM, not ru_maxrss, which a child started
    # by subprocess inherits from this (larger) test process.
    script = ("import re, sys\n"
              "from curlstokes.cli import main\n"
              "def kib(key):\n"
              "    with open('/proc/self/status') as f:\n"
              "        return int(re.search(key + r':\\s+(\\d+)', f.read()).group(1))\n"
              "base = kib('VmRSS')\n"
              "assert main(['harmonic', '--n', '18', '--out', sys.argv[1]]) == 0\n"
              "print(kib('VmHWM') - base)\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", script, str(tmp_path / "h")], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert int(out.split()[-1]) < 110 * 1024


def test_harmonic_basis_size_equals_betti():
    for make, betti in [(lambda: generate_unit_square(2), 0),
                        (lambda: generate_square_with_hole(3), 1),
                        (lambda: generate_l_shape(1), 0)]:
        mesh = make()
        assert betti_number(mesh) == betti
        V = build_edge_space(mesh, 1)
        Q = build_nodal_space(mesh, 1)
        assert harmonic_fields(V, Q, assemble_mass(V).matrix).shape[1] == betti


def test_harmonic_curl_over_trace_bounded_across_levels():
    # computable surrogate with the L2 boundary norm in place of the dual norm;
    # n = 6 is the uniform refinement of n = 3
    ratios = [run_harmonic("hole", n)["curl_norm_over_boundary_trace"] for n in (3, 6)]
    assert ratios[0] > 0 and ratios[1] > 0
    assert max(ratios) / min(ratios) <= 3.0


def test_harmonic_run_decomposes_once(monkeypatch):
    calls = []

    def counted(V, Q, M):
        calls.append(V)
        return harmonic_fields(V, Q, M)

    for module in (analysis, experiments):
        monkeypatch.setattr(module, "harmonic_fields", counted)
    data = run_harmonic("hole", 3)
    assert data["dimension"] == 1 and data["curl_norm_over_boundary_trace"] > 0
    assert len(calls) == 1


def _count_mass_assemblies(monkeypatch) -> list:
    """Record every assemble_mass call, in every curlstokes module that binds it."""
    calls = []

    def counted(V):
        calls.append(V)
        return assemble_mass(V)

    for name, module in list(sys.modules.items()):
        if name.startswith("curlstokes.") and getattr(module, "assemble_mass", None) is assemble_mass:
            monkeypatch.setattr(module, "assemble_mass", counted)
    return calls


def test_probe_assembles_mass_once_per_level(monkeypatch):
    calls = _count_mass_assemblies(monkeypatch)
    run_probe("star", levels=2)
    assert len(calls) == 2


def test_probe_tabulates_boundary_traces_once_per_level(monkeypatch):
    # both probes scale the same two boundary Grams
    calls = []

    def counted(V, rule):
        calls.append(V)
        return _boundary_edge_data(V, rule)

    monkeypatch.setattr(analysis, "_boundary_edge_data", counted)
    run_probe("star", levels=2, order=2)
    assert len(calls) == 2


def test_harmonic_assembles_mass_once(monkeypatch):
    # the gradient projection and c.M.c read the same matrix
    calls = _count_mass_assemblies(monkeypatch)
    run_harmonic("hole", 6)
    assert len(calls) == 1


def test_trace_constants_stable_under_refinement():
    consts = []
    for n in (2, 4):
        V = build_edge_space(generate_unit_square(n), 1)
        consts.append((trace_constant_n(V),
                       trace_constant_par(V, assemble_mass(V).matrix, _boundary_gram(V)[0])))
    for a, b in zip(*consts):
        assert a > 0 and b > 0
        assert abs(a - b) / max(a, b) <= 0.25
    level = run_probe("star", levels=1)["levels"][0]
    assert level["recommended_C_w"] == pytest.approx(2 * level["C_n"] ** 2)


def test_recommended_penalty_keeps_velocity_block_semidefinite():
    # coercivity needs C_w > C_n^2; on this order-2 mesh C_n^2 = 16.57 lies
    # above 4 C_n = 16.28, a penalty that leaves two negative eigenvalues
    V = build_edge_space(jitter(generate_unit_square(6), 0), 2)
    ev = np.linalg.eigvalsh(assemble_velocity_block(V, 2.0 * trace_constant_n(V) ** 2)
                            .matrix.toarray())
    assert ev.min() >= -1e-12 * ev.max()


# hole n = 3 is where ARPACK, on the augmented pencil (K_aug, diag(0, S, 0)),
# returned anything from 0.051 to the true beta_h = 0.2699 depending on its
# random start
ORACLE_MESHES = {"hole3": lambda: generate_square_with_hole(3),
                 "two_triangles": two_triangle_square,
                 "jitter6_seed0": lambda: jitter(generate_unit_square(6), 0)}


def check_probes_match_dense_oracle(mesh, order):
    V = build_edge_space(mesh, order)
    Q = build_nodal_space(mesh, order)
    M, t_par = assemble_mass(V).matrix, _boundary_gram(V)[0]
    c_n, c_par = dense_trace_constants(V)
    assert trace_constant_n(V) == pytest.approx(c_n, rel=1e-12, abs=0)
    assert trace_constant_par(V, M, t_par) == pytest.approx(c_par, rel=1e-12, abs=0)
    assert probe_infsup(V, Q) == pytest.approx(dense_infsup(V, Q), rel=1e-9, abs=0)


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("name", sorted(ORACLE_MESHES))
def test_probes_match_dense_oracle(name, order):
    check_probes_match_dense_oracle(ORACLE_MESHES[name](), order)


@settings(max_examples=10, deadline=None)
@given(mesh=jittered_meshes(6, [3, 6]), order=st.sampled_from((1, 2)))
def test_probes_match_dense_oracle_on_jittered_meshes(mesh, order):
    check_probes_match_dense_oracle(mesh, order)


@settings(max_examples=10, deadline=None)
@given(mesh=jittered_meshes(6, [3, 6]), order=st.sampled_from((1, 2)))
def test_velocity_block_coercive_above_local_trace_threshold(mesh, order):
    # a(v, v) >= x^2 - 2 C_n x y + C_w y^2 with x = ||curl v|| and
    # y = h^-1/2 ||v . t||_Gamma, which is nonnegative for C_w >= C_n^2. The
    # bound is not sharp, so nothing is asserted below the threshold.
    V = build_edge_space(mesh, order)
    ev = np.linalg.eigvalsh(assemble_velocity_block(V, 1.01 * trace_constant_n(V) ** 2)
                            .matrix.toarray())
    assert ev.min() >= -1e-12 * ev.max()


def test_infsup_scales_linearly_in_h():
    ratios = []
    for n in (2, 4, 8):
        mesh = generate_unit_square(n)
        V = build_edge_space(mesh, 1)
        Q = build_nodal_space(mesh, 1)
        beta = probe_infsup(V, Q)
        assert beta > 0
        ratios.append(beta / mesh.h_max)
    assert max(ratios) / min(ratios) <= 3.0


def test_hash_norm_monitor():
    case = get_case("star")
    norms = []
    for n in (4, 8, 16):
        mesh = generate_unit_square(n)
        rep, V, Q = solve_fields(mesh, 1, case, 10.0)
        norms.append(compute_errors(V, rep.u, Q, rep.p, case)["norm_u_hash"])
    # stability: no blow-up under refinement
    assert max(norms) / min(norms) <= 2.0


def test_star_errors_decrease_under_refinement():
    case = get_case("star")
    errs = []
    for n in (4, 8, 16):
        mesh = generate_unit_square(n)
        rep, V, Q = solve_fields(mesh, 1, case, 10.0)
        errs.append(compute_errors(V, rep.u, Q, rep.p, case)["errors"]["err_u_l2"])
    assert errs[0] > errs[1] > errs[2]
