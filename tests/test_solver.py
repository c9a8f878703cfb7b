import numpy as np
import pytest
from scipy import sparse

from curlstokes.analysis import compute_errors
from curlstokes.cases import linear_case
from curlstokes.experiments import build_saddle_system
from curlstokes.mesh import generate_unit_square, refine_uniform, two_triangle_square
from curlstokes.solver import (SaddleSystem, SizeGuardError, kernel_probe,
                               solve)

HAT_WITNESS = np.array([5.0, -1.0, -1.0, -1.0]) / 6.0   # lambda_1 - 1/6 at the corners


@pytest.fixture
def essential_system():
    return build_saddle_system(two_triangle_square(), 1, linear_case(), essential=True)


@pytest.fixture
def nitsche_system():
    return build_saddle_system(two_triangle_square(), 1, linear_case(), C_w=10.0)


def test_essential_system_is_singular(essential_system):
    report = solve(essential_system)
    assert report.singular
    assert report.kernel is not None
    assert report.kernel.dimension == 2


def test_kernel_contains_hat_witness(essential_system):
    probe = kernel_probe(essential_system)
    assert probe.dimension == 2
    z = np.zeros(essential_system.n_u)
    res_u = essential_system.A @ z + essential_system.B @ HAT_WITNESS
    res_q = essential_system.B.T @ z
    assert max(np.abs(res_u).max(), np.abs(res_q).max()) <= 1e-12
    # the witness lies in the span of the computed kernel basis
    span = np.stack([np.concatenate([wu, wp]) for wu, wp in probe.witnesses], axis=1)
    target = np.concatenate([z, HAT_WITNESS])
    coeffs, *_ = np.linalg.lstsq(span, target, rcond=None)
    assert np.linalg.norm(span @ coeffs - target) <= 1e-10
    # all kernel members carry zero velocity
    for wu, _ in probe.witnesses:
        assert np.abs(wu).max() <= 1e-10


def test_refined_essential_kernel_persists():
    mesh = refine_uniform(two_triangle_square())
    probe = kernel_probe(build_saddle_system(mesh, 1, linear_case(), essential=True))
    assert probe.dimension >= 1


def test_nitsche_system_nonsingular(nitsche_system):
    assert kernel_probe(nitsche_system).dimension == 0
    zero = SaddleSystem(nitsche_system.A, nitsche_system.B,
                        np.zeros(nitsche_system.n_u), np.zeros(nitsche_system.n_q),
                        nitsche_system.mean_vector,
                        nitsche_system.velocity_space, nitsche_system.pressure_space)
    report = solve(zero)
    assert not report.singular
    assert np.abs(report.u.coefficients).max() <= 1e-12
    assert np.abs(report.p.coefficients).max() <= 1e-12


def test_exact_reproduction_linear_case():
    case = linear_case()
    mesh = generate_unit_square(2)
    system = build_saddle_system(mesh, 1, case, C_w=10.0)
    report = solve(system)
    assert not report.singular
    assert report.residual <= 1e-10
    errors = compute_errors(report.u, report.p, case, mesh)
    assert errors.err_u_l2 <= 1e-9
    assert errors.err_p_l2 <= 1e-9


def test_pressure_mean_is_zero():
    case = linear_case()
    mesh = generate_unit_square(4)
    system = build_saddle_system(mesh, 1, case, C_w=10.0)
    report = solve(system)
    assert abs(system.mean_vector @ report.p.coefficients) <= 1e-10


def test_solve_is_deterministic():
    case = linear_case()
    mesh = generate_unit_square(3)
    a = solve(build_saddle_system(mesh, 1, case, C_w=10.0))
    b = solve(build_saddle_system(mesh, 1, case, C_w=10.0))
    assert np.array_equal(a.u.coefficients, b.u.coefficients)
    assert np.array_equal(a.p.coefficients, b.p.coefficients)


def test_sparse_path_matches_dense():
    # a mesh large enough to cross the dense cutoff
    case = linear_case()
    mesh = generate_unit_square(12)
    system = build_saddle_system(mesh, 1, case, C_w=10.0)
    report = solve(system)
    assert report.residual <= 1e-10
    errors = compute_errors(report.u, report.p, case, mesh)
    assert errors.err_u_l2 <= 1e-8


def test_minres_path():
    case = linear_case()
    mesh = generate_unit_square(3)
    system = build_saddle_system(mesh, 1, case, C_w=10.0)
    report = solve(system, tol=1e-8, method="minres")
    assert not report.singular
    assert report.iterations is not None and report.iterations > 0
    errors = compute_errors(report.u, report.p, case, mesh)
    assert errors.err_u_l2 <= 1e-6


def test_size_guard():
    n = 30000
    big = sparse.csr_array((n, n))
    with pytest.raises(SizeGuardError):
        kernel_probe(SaddleSystem(big, sparse.csr_array((n, 4)),
                                  np.zeros(n), np.zeros(4), np.ones(4)))


def test_dimension_validation():
    a = sparse.csr_array((3, 3))
    b = sparse.csr_array((3, 2))
    with pytest.raises(ValueError):
        SaddleSystem(a, b, np.zeros(3), np.zeros(2), np.ones(3))
    with pytest.raises(ValueError):
        SaddleSystem(a, b, np.zeros(2), np.zeros(2), np.ones(2))


def test_invalid_tolerance():
    sys_ = build_saddle_system(two_triangle_square(), 1, linear_case(), C_w=10.0)
    with pytest.raises(ValueError):
        solve(sys_, tol=0.0)


@pytest.mark.parametrize("method", ["", "Direct", "lu", "gmres"])
def test_unknown_method_rejected(nitsche_system, method):
    with pytest.raises(ValueError, match="unknown solve method"):
        solve(nitsche_system, method=method)
