"""Acceptance suite: one test per criterion, printing one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s``.

Criteria 3 and 4 check the a priori estimate at penalty C_w = 10. For
order r the estimate bounds the error in the mesh-dependent #-norm by
h^(r-1/2); the curl seminorm is only bounded by that norm, so its EOC is
at least r - 1/2 and at most the best-approximation rate r (observed: r on
the test windows). The pressure L2 and H1 errors converge at r - 1/2 and
r - 3/2. The order-1 pressure reaches those rates only on fine meshes, so
the order-1 windows run to n = 128 (square) and n = 192 (punctured square).
studies/deep_rates.txt follows the square study to n = 256 and a finer
punctured-square family to n = 288 and shows the pressure rates staying in
their bands; see README, "Numerical behavior".
"""

import time

import numpy as np
import pytest

from curlstokes.analysis import betti_number, compute_eoc, compute_errors, harmonic_fields
from curlstokes.cases import ManufacturedCase, get_case
from curlstokes.experiments import level_meshes, run_convergence, run_counterexample, run_probe
from curlstokes.mesh import (generate_l_shape, generate_square_with_hole,
                             generate_unit_square, jitter)
from curlstokes.quadrature import edge_rule, triangle_rule
from curlstokes.spaces import build_edge_space, build_nodal_space
from oracles import full_svd_hodge, grad_inclusion_check, hodge_operators, solve_fields

JITTER_SEED = 7   # fixed seed of the unstructuredness emulation (order 1 runs)
TOL = 0.15        # half-width of a rate band around its target


def _report(num: int, violations: list[str], detail: str, elapsed: float) -> None:
    status = "PASS" if not violations else "FAIL"
    print(f"\nACCEPTANCE {num} {status} ({elapsed:.1f}s): {detail}")
    for v in violations:
        print(f"  - {v}")
    assert not violations, f"criterion {num}: " + "; ".join(violations)


def _study(case_name: str, order: int, base_n: int, levels: int, jitter_seed=None):
    """The level records of a ``run_convergence`` study at C_w = 10 and its final EOCs."""
    doc = run_convergence(case_name, order, levels, C_w=10.0, base_n=base_n,
                          jitter_seed=jitter_seed)
    return doc["levels"], {k: v[-1] for k, v in doc["eoc"].items()}


def _check_band(violations, label, value, low, high):
    if not (low <= value <= high):
        violations.append(f"{label}: final EOC {value:+.3f} outside [{low:.2f}, {high:.2f}]")


def test_criterion_1_counterexample():
    t0 = time.time()
    violations = []
    data = run_counterexample()
    ess = data["essential"]
    if ess["kernel_dimension"] < 1:
        violations.append("essential pair has no kernel")
    if ess["witness_residual"] > 1e-12:
        violations.append(f"hat witness residual {ess['witness_residual']:.2e} > 1e-12")
    if ess["witness_in_span_residual"] > 1e-10:
        violations.append("hat witness not in the computed kernel span")
    if data["nitsche"]["kernel_dimension"] != 0:
        violations.append("weak-form system on the two-triangle mesh is singular")
    elapsed = time.time() - t0
    if elapsed >= 1.0:
        violations.append(f"runtime {elapsed:.2f}s exceeds 1s")
    _report(1, violations,
            f"essential kernel dim {ess['kernel_dimension']}, witness residual "
            f"{ess['witness_residual']:.1e}, weak-form kernel dim "
            f"{data['nitsche']['kernel_dimension']}", elapsed)


def test_criterion_2_exact_reproduction():
    t0 = time.time()
    violations = []
    worst_u = worst_p = 0.0
    case = get_case("linear")
    for mesh in level_meshes(case, 2, 4, None):
        rep, V, Q = solve_fields(mesh, 1, case, 10.0)
        e = compute_errors(V, rep.u, Q, rep.p, case)["errors"]
        worst_u = max(worst_u, e["err_u_l2"])
        worst_p = max(worst_p, e["err_p_l2"])
    if worst_u > 1e-8:
        violations.append(f"velocity error {worst_u:.2e} > 1e-8")
    if worst_p > 1e-8:
        violations.append(f"pressure error {worst_p:.2e} > 1e-8")
    elapsed = time.time() - t0
    if elapsed >= 10.0:
        violations.append(f"runtime {elapsed:.1f}s exceeds 10s")
    _report(2, violations,
            f"worst errors over 4 levels: u {worst_u:.2e}, p {worst_p:.2e}", elapsed)


def _affine_case() -> ManufacturedCase:
    """u = (x + 2y, -y), p = x^2 - y^2: curl u = -2 and curl curl u = 0, so
    f = grad p. u lies in the order-2 edge space but not in Whitney's, and p
    in P2 but not in P1."""
    def u(x, y):
        x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        return np.column_stack([x + 2 * y, -y])

    def grad_p(x, y):
        return np.column_stack([2 * np.asarray(x, dtype=float), -2 * np.asarray(y, dtype=float)])

    return ManufacturedCase(mesh_builder=generate_unit_square, default_n=2, u=u,
                            p=lambda x, y: np.asarray(x) ** 2 - np.asarray(y) ** 2,
                            curl_u=lambda x, y: np.full(np.shape(x), -2.0),
                            grad_p=grad_p, f=grad_p)


AFFINE_MESHES = [generate_unit_square(2), jitter(generate_unit_square(4), 3),
                 jitter(generate_unit_square(8), 3), jitter(generate_unit_square(16), 7)]


def _affine_errors(order: int) -> np.ndarray:
    """The u and p L2 errors (runs, 2) of the affine case on AFFINE_MESHES
    at C_w = 10 and 35."""
    case = _affine_case()
    errors = []
    for mesh in AFFINE_MESHES:
        for C_w in (10.0, 35.0):
            rep, V, Q = solve_fields(mesh, order, case, C_w)
            e = compute_errors(V, rep.u, Q, rep.p, case)["errors"]
            errors.append((e["err_u_l2"], e["err_p_l2"]))
    return np.array(errors)


def test_criterion_2_exact_reproduction_order_2():
    # the order-2-only parts (second edge moments, interior dofs, P2
    # pressure, order-2 boundary terms) reproduce what they can represent
    t0 = time.time()
    worst_u, worst_p = _affine_errors(2).max(axis=0)
    violations = [f"{name} error {err:.2e} > 1e-8"
                  for name, err in (("velocity", worst_u), ("pressure", worst_p)) if err > 1e-8]
    _report(2, violations, f"order 2, affine case: worst errors u {worst_u:.2e}, "
            f"p {worst_p:.2e}", time.time() - t0)


def test_affine_case_is_not_in_the_order_1_spaces():
    # negative control: the order-2 oracle above is not vacuous
    assert _affine_errors(1).min() > 1e-2


def test_criterion_3_star_rates():
    t0 = time.time()
    violations = []
    # order 1 on seeded-jitter meshes (n = 8, 16, 32, 64, 128); the pressure
    # L2 EOC reaches r - 1/2 on the last pair (0.63) and keeps it on the next
    # one (0.58 at n = 256, studies/deep_rates.txt)
    _, eoc1 = _study("star", 1, 8, 5, jitter_seed=JITTER_SEED)
    _check_band(violations, "r=1 u L2", eoc1["err_u_l2"], 1.0 - TOL, 1.0 + TOL)
    # curl: from the #-norm bound r - 1/2 up to best approximation r
    _check_band(violations, "r=1 curl", eoc1["err_u_curl"], 0.5 - TOL, 1.0 + TOL)
    _check_band(violations, "r=1 p L2", eoc1["err_p_l2"], 0.5 - TOL, 0.5 + TOL)
    if eoc1["err_p_h1"] > 0.1:
        violations.append(
            f"r=1 p H1: final EOC {eoc1['err_p_h1']:+.3f} > 0.1 (no convergence expected)")
    # order 2 on the structured family: at this order the default C_w = 10
    # lies below the coercivity threshold C_n^2 (13.38 structured, up to 16.9
    # jittered), and the jittered rates are artefacts of that indefinite
    # velocity block (ROADMAP item 1)
    _, eoc2 = _study("star", 2, 8, 4, jitter_seed=None)
    _check_band(violations, "r=2 u L2", eoc2["err_u_l2"], 2.0 - TOL, 2.0 + TOL)
    _check_band(violations, "r=2 curl", eoc2["err_u_curl"], 1.5 - TOL, 2.0 + TOL)
    _check_band(violations, "r=2 p L2", eoc2["err_p_l2"], 1.5 - TOL, 1.5 + TOL)
    _check_band(violations, "r=2 p H1", eoc2["err_p_h1"], 0.5 - TOL, 0.5 + TOL)
    elapsed = time.time() - t0
    if elapsed >= 300.0:
        violations.append(f"runtime {elapsed:.0f}s exceeds 5min")
    _report(3, violations,
            "final EOCs r=1 " + " ".join(f"{k}={v:+.3f}" for k, v in eoc1.items())
            + " | r=2 " + " ".join(f"{k}={v:+.3f}" for k, v in eoc2.items()), elapsed)


def test_curl_band_rejects_unscaled_penalty():
    """The curl band of criterion 3 still fails a broken boundary penalty.

    A penalty C_w * h_max passed per level cancels the 1/h of the Nitsche
    penalty C_w / h, as a fault dropping that scaling would. On criterion 3's
    order-1 study the velocity L2 rate survives this (about 1.0); the curl
    rate falls to about -0.7, below the band's lower edge r - 1/2 - 0.15.
    """
    case = get_case("star")
    records = []
    for mesh in level_meshes(case, 8, 5, JITTER_SEED):
        rep, V, Q = solve_fields(mesh, 1, case, 10.0 * mesh.h_max)
        records.append(compute_errors(V, rep.u, Q, rep.p, case))
    curl_eoc = compute_eoc(records)["err_u_curl"][-1]
    violations = []
    _check_band(violations, "r=1 curl", curl_eoc, 0.5 - TOL, 1.0 + TOL)
    assert curl_eoc < 0.5 - TOL and violations, f"curl EOC {curl_eoc:+.3f} passed"


def test_criterion_4_hole_rates():
    t0 = time.time()
    violations = []
    # n = 3, 6, ..., 192; the pressure L2 EOC reaches r - 1/2 on the last
    # pair (0.505). n = 384 needs about 5 GB even in the deep study, whose
    # n = 9 * 2^k family ends 0.69, 0.57 at n = 144, 288 (studies/deep_rates.txt)
    _, eoc = _study("hole", 1, 3, 7, jitter_seed=JITTER_SEED)
    _check_band(violations, "u L2", eoc["err_u_l2"], 1.0 - TOL, 1.0 + TOL)
    _check_band(violations, "curl", eoc["err_u_curl"], 0.5 - TOL, 1.0 + TOL)
    _check_band(violations, "p L2", eoc["err_p_l2"], 0.5 - TOL, 0.5 + TOL)
    if eoc["err_p_h1"] > 0.1:
        violations.append(
            f"p H1: final EOC {eoc['err_p_h1']:+.3f} > 0.1 (no convergence expected)")
    # harmonic dimension = Betti number on every level of the study, n = 3
    # to 192 (about 3 s together on a 2-core box)
    dims, bettis = [], []
    for mesh in level_meshes(get_case("hole"), 3, 7, JITTER_SEED):
        V = build_edge_space(mesh, 1)
        Q = build_nodal_space(mesh, 1)
        dims.append(harmonic_fields(V, *hodge_operators(V, Q)).shape[1])
        bettis.append(betti_number(mesh))
    if dims != bettis or bettis != [1] * 7:
        violations.append(f"harmonic dimensions {dims} != Betti numbers {bettis}")
    elapsed = time.time() - t0
    if elapsed >= 300.0:
        violations.append(f"runtime {elapsed:.0f}s exceeds 5min")
    _report(4, violations,
            "final EOCs " + " ".join(f"{k}={v:+.3f}" for k, v in eoc.items())
            + f", harmonic dims {dims}", elapsed)


def test_criterion_5_lshape_qualitative():
    t0 = time.time()
    violations = []
    records, eoc = _study("lshape", 1, 2, 4)
    u_errors = [r["errors"]["err_u_l2"] for r in records]
    p_errors = [r["errors"]["err_p_l2"] for r in records]
    if not all(a > b for a, b in zip(u_errors, u_errors[1:])):
        violations.append(f"velocity errors not monotone: {u_errors}")
    if not all(a > b for a, b in zip(p_errors, p_errors[1:])):
        violations.append(f"pressure errors not monotone: {p_errors}")
    if not 0.3 <= eoc["err_u_l2"] <= 1.2:
        violations.append(f"u L2 EOC {eoc['err_u_l2']:+.3f} outside [0.3, 1.2]")
    elapsed = time.time() - t0
    if elapsed >= 180.0:
        violations.append(f"runtime {elapsed:.0f}s exceeds 3min")
    _report(5, violations,
            f"u errors {['%.3e' % e for e in u_errors]}, "
            f"final EOC(u L2) {eoc['err_u_l2']:+.3f}", elapsed)


def test_criterion_6_structure_invariants():
    t0 = time.time()
    violations = []
    # gradient inclusion
    for mesh, order in [(generate_unit_square(4), 1), (generate_unit_square(2), 2),
                        (generate_square_with_hole(3), 1)]:
        res = grad_inclusion_check(build_edge_space(mesh, order),
                                   build_nodal_space(mesh, order))
        if res > 1e-10:
            violations.append(f"gradient inclusion residual {res:.2e} > 1e-10 "
                              f"(order {order})")
    # Hodge decomposition: the harmonic basis is orthogonal to the oracle's
    # gradient and curl blocks, the three span the space, harmonic = Betti
    for make, betti in [(lambda: generate_unit_square(2), 0),
                        (lambda: generate_l_shape(1), 0),
                        (lambda: generate_square_with_hole(3), 1)]:
        mesh = make()
        V = build_edge_space(mesh, 1)
        Q = build_nodal_space(mesh, 1)
        M, B, S = hodge_operators(V, Q)
        harmonic_basis = harmonic_fields(V, M, B, S)
        grad_basis, z_basis, _ = full_svd_hodge(V, Q)
        if grad_basis.shape[1] + z_basis.shape[1] + harmonic_basis.shape[1] != V.dof_count:
            violations.append("Hodge dimensions do not sum to dof count")
        if harmonic_basis.shape[1] != betti_number(mesh):
            violations.append("harmonic dimension != Betti number")
        for block in (grad_basis, z_basis):
            if block.size and harmonic_basis.size:
                off = np.abs(block.T @ (M @ harmonic_basis)).max()
                if off > 1e-10:
                    violations.append(f"Hodge orthogonality {off:.2e} > 1e-10")
    # quadrature exactness at the advertised degrees
    import math
    for deg in (1, 4, 7, 10):
        rule = triangle_rule(deg)
        x, y = rule.points[:, 1], rule.points[:, 2]
        for a in range(deg + 1):
            for b in range(deg + 1 - a):
                exact = math.factorial(a) * math.factorial(b) / math.factorial(a + b + 2)
                if abs(float(rule.weights @ (x ** a * y ** b)) - exact) > 1e-13 * exact:
                    violations.append(f"triangle rule degree {deg} inexact at x^{a} y^{b}")
    for deg in (1, 6, 12):
        rule = edge_rule(deg)
        for k in range(deg + 1):
            if abs(float(rule.weights @ rule.points ** k) - 1 / (k + 1)) > 1e-13 / (k + 1):
                violations.append(f"edge rule degree {deg} inexact at s^{k}")
    # mesh-dependent norm identity
    case = get_case("star")
    mesh = generate_unit_square(4)
    rep, V, Q = solve_fields(mesh, 1, case, 10.0)
    rec = compute_errors(V, rep.u, Q, rep.p, case)
    e = rec["errors"]
    recomposed = (rec["err_u_hcurl"] ** 2 + e["err_gpar"] ** 2 / mesh.h_max
                  + mesh.h_max * e["err_gcurl"] ** 2)
    if abs(e["err_u_hash"] ** 2 - recomposed) > 1e-12 * recomposed:
        violations.append("#-norm identity violated")
    elapsed = time.time() - t0
    if elapsed >= 30.0:
        violations.append(f"runtime {elapsed:.0f}s exceeds 30s")
    _report(6, violations, "gradient inclusion, Hodge structure, quadrature "
            "exactness and #-norm identity checked", elapsed)


def test_criterion_7_stability_probes():
    t0 = time.time()
    violations = []
    rows = run_probe("star", 3, 1)["levels"]          # n = 2, 4, 8
    for row in rows:
        if min(row["beta_h"], row["C_n"], row["C_par"]) <= 0:
            violations.append(f"level {row['level']}: beta_h, C_n or C_par is not positive")
        if row["recommended_C_w"] != pytest.approx(2.0 * row["C_n"] ** 2):
            violations.append(f"level {row['level']}: recommended C_w is not 2 C_n^2")
    betas, c_n, c_par = ([row[key] for row in rows] for key in ("beta_over_h", "C_n", "C_par"))
    if not violations:
        if max(betas) / min(betas) > 3.0:
            violations.append(f"beta_h/h varies by {max(betas) / min(betas):.2f}x > 3x")
        for name, values in (("C_n", c_n), ("C_par", c_par)):
            if 1.0 - min(values) / max(values) > 0.25:
                violations.append(f"{name} varies by {1.0 - min(values) / max(values):.0%} > 25%")
    elapsed = time.time() - t0
    if elapsed >= 60.0:
        violations.append(f"runtime {elapsed:.0f}s exceeds 1min")
    _report(7, violations,
            f"beta_h/h = {[f'{b:.3f}' for b in betas]}, C_n = "
            f"{'/'.join(f'{c:.3f}' for c in c_n)}, C_par = "
            f"{'/'.join(f'{c:.3f}' for c in c_par)}", elapsed)
