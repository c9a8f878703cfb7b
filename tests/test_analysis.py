import numpy as np
import pytest

from curlstokes.analysis import (ConvergenceReport, betti_number, compute_eoc,
                                 compute_errors, estimate_infsup,
                                 estimate_trace_constants, harmonic_boundary_ratio,
                                 harmonic_dimension, hodge_decompose,
                                 least_squares_rates)
from curlstokes.cases import get_case, linear_case
from curlstokes.experiments import build_saddle_system, discrete_hash_norm
from curlstokes.forms import assemble_mass
from curlstokes.mesh import (generate_l_shape, generate_square_with_hole,
                             generate_unit_square, refine_uniform,
                             two_triangle_square)
from curlstokes.solver import solve
from curlstokes.spaces import (build_edge_space, build_nodal_space,
                               interpolate_edge, interpolate_nodal)


def test_errors_vanish_for_reproduced_solution():
    case = linear_case()
    mesh = generate_unit_square(2)
    V = build_edge_space(mesh, 1)
    Q = build_nodal_space(mesh, 1)
    u_h = interpolate_edge(V, case.u)
    p_h = interpolate_nodal(Q, case.p)
    e = compute_errors(u_h, p_h, case, mesh)
    assert e.err_u_l2 <= 1e-10
    assert e.err_u_curl_seminorm <= 1e-10
    assert e.err_u_hash <= 1e-9
    assert e.err_gpar_boundary <= 1e-10
    assert e.err_gcurl_boundary <= 1e-10
    assert e.err_p_l2 <= 1e-12
    assert e.err_p_h1_seminorm <= 1e-12


def test_hash_norm_identity():
    case = get_case("star")
    mesh = generate_unit_square(4)
    rep = solve(build_saddle_system(mesh, 1, case, 10.0))
    e = compute_errors(rep.u, rep.p, case, mesh)
    h = mesh.h_max
    recomposed = (e.err_u_hcurl ** 2 + e.err_gpar_boundary ** 2 / h
                  + h * e.err_gcurl_boundary ** 2)
    assert e.err_u_hash ** 2 == pytest.approx(recomposed, rel=1e-12)
    assert e.err_u_hash ** 2 >= e.err_u_hcurl ** 2 - 1e-12
    assert e.err_u_hcurl ** 2 == pytest.approx(
        e.err_u_l2 ** 2 + e.err_u_curl_seminorm ** 2, rel=1e-12)


def _bundle(err, h):
    from curlstokes.analysis import ErrorBundle

    return ErrorBundle(err, err, err, err, err, err, err, err, h, 1, 1)


def test_eoc_formula():
    rep = ConvergenceReport([_bundle(1.0, 1.0), _bundle(0.5, 0.5)])
    assert compute_eoc(rep)["err_u_l2"] == [pytest.approx(1.0)]
    rep = ConvergenceReport([_bundle(1.0, 1.0), _bundle(0.25, 0.5)])
    assert compute_eoc(rep)["err_u_l2"] == [pytest.approx(2.0)]
    rep = ConvergenceReport([_bundle(1.0, 1.0), _bundle(np.sqrt(2) / 2, 0.5)])
    assert compute_eoc(rep)["err_u_l2"] == [pytest.approx(0.5)]


def test_eoc_requires_two_levels():
    with pytest.raises(ValueError):
        compute_eoc(ConvergenceReport([_bundle(1.0, 1.0)]))


def test_least_squares_rates():
    bundles = [_bundle(2.0 * 0.5 ** (2 * k), 0.5 ** k) for k in range(4)]
    rates = least_squares_rates(ConvergenceReport(bundles))
    assert rates["err_u_l2"] == pytest.approx(2.0, abs=1e-12)


@pytest.mark.parametrize("order", [1, 2])
def test_hodge_square(order):
    mesh = generate_unit_square(2)
    V = build_edge_space(mesh, order)
    Q = build_nodal_space(mesh, order)
    dec = hodge_decompose(V, Q)
    assert dec.harmonic_basis.shape[1] == 0
    assert dec.grad_basis.shape[1] == Q.dof_count - 1
    total = dec.grad_basis.shape[1] + dec.z_basis.shape[1] + dec.harmonic_basis.shape[1]
    assert total == V.dof_count


def test_hodge_orthogonality_and_hole_dimension():
    mesh = generate_square_with_hole(3)
    V = build_edge_space(mesh, 1)
    Q = build_nodal_space(mesh, 1)
    dec = hodge_decompose(V, Q)
    assert dec.harmonic_basis.shape[1] == 1
    m = assemble_mass(V).matrix.toarray()
    blocks = [dec.grad_basis, dec.z_basis, dec.harmonic_basis]
    for i in range(3):
        for j in range(i + 1, 3):
            if blocks[i].size and blocks[j].size:
                gram = blocks[i].T @ m @ blocks[j]
                assert np.abs(gram).max() <= 1e-10


def test_harmonic_dimension_equals_betti():
    for make, betti in [(lambda: generate_unit_square(2), 0),
                        (lambda: generate_square_with_hole(3), 1),
                        (lambda: generate_l_shape(1), 0)]:
        mesh = make()
        assert betti_number(mesh) == betti
        V = build_edge_space(mesh, 1)
        Q = build_nodal_space(mesh, 1)
        assert harmonic_dimension(V, Q) == betti


def test_harmonic_boundary_ratio_bounded_across_levels():
    # computable surrogate with the L2 boundary norm in place of the dual norm
    ratios = []
    mesh = generate_square_with_hole(3)
    for _ in range(2):
        V = build_edge_space(mesh, 1)
        Q = build_nodal_space(mesh, 1)
        ratios.append(harmonic_boundary_ratio(V, Q))
        mesh = refine_uniform(mesh)
    assert ratios[0] > 0 and ratios[1] > 0
    assert max(ratios) / min(ratios) <= 3.0


def test_trace_constants_stable_under_refinement():
    consts = []
    for n in (2, 4):
        V = build_edge_space(generate_unit_square(n), 1)
        consts.append(estimate_trace_constants(V))
    for attr in ("c_n", "c_par"):
        a, b = getattr(consts[0], attr), getattr(consts[1], attr)
        assert a > 0 and b > 0
        assert abs(a - b) / max(a, b) <= 0.25
    assert consts[0].recommended_cw == pytest.approx(4 * consts[0].c_n)


def test_infsup_scales_linearly_in_h():
    ratios = []
    for n in (2, 4, 8):
        mesh = generate_unit_square(n)
        V = build_edge_space(mesh, 1)
        Q = build_nodal_space(mesh, 1)
        beta = estimate_infsup(V, Q)
        assert beta > 0
        ratios.append(beta / mesh.h_max)
    assert max(ratios) / min(ratios) <= 3.0


def test_infsup_vanishes_for_essential_counterexample():
    tt = two_triangle_square()
    V = build_edge_space(tt, 1, essential_bc=True)
    Q = build_nodal_space(tt, 1)
    assert estimate_infsup(V, Q) <= 1e-10


def test_hash_norm_monitor():
    case = get_case("star")
    norms = []
    for n in (4, 8, 16):
        mesh = generate_unit_square(n)
        rep = solve(build_saddle_system(mesh, 1, case, 10.0))
        norms.append(discrete_hash_norm(rep.u))
    # stability: no blow-up under refinement
    assert max(norms) / min(norms) <= 2.0


def test_star_errors_decrease_under_refinement():
    case = get_case("star")
    errs = []
    for n in (4, 8, 16):
        mesh = generate_unit_square(n)
        rep = solve(build_saddle_system(mesh, 1, case, 10.0))
        errs.append(compute_errors(rep.u, rep.p, case, mesh).err_u_l2)
    assert errs[0] > errs[1] > errs[2]
