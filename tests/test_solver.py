import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import sparse

from curlstokes import experiments
from curlstokes.analysis import compute_errors
from curlstokes.cases import get_case
from curlstokes.experiments import (_spaces, build_essential_system,
                                    build_saddle_system, run_counterexample)
from curlstokes.forms import (_assemble_cells, _local_matrix, assemble_b, assemble_curl_curl,
                              assemble_mean_vector, assemble_rhs, tabulate_boundary,
                              tabulate_volume)
from curlstokes.mesh import (build_mesh, generate_l_shape, generate_square_with_hole,
                             generate_unit_square, jitter, refine_uniform, two_triangle_square)
from curlstokes.solver import (KERNEL_RANK_RTOL, SaddleSystem, _augmented, _column_max_abs,
                               kernel_probe, pinned_solve, solve)
from curlstokes.spaces import build_edge_space

from mesh_strategies import jittered_meshes
from oracles import solve_fields

HAT_WITNESS = np.array([5.0, -1.0, -1.0, -1.0]) / 6.0   # lambda_1 - 1/6 at the corners


def dense_svd_solve(system):
    """Reference: rank-revealing dense SVD solve of the augmented system,
    with the pressure shifted to zero mean."""
    a, b, m = system.A.toarray(), system.B.toarray(), system.mean_vector[:, None]
    n_u, n_q = system.n_u, system.n_q
    k = np.block([[a, b, np.zeros((n_u, 1))],
                  [b.T, np.zeros((n_q, n_q)), m],
                  [np.zeros((1, n_u)), m.T, np.zeros((1, 1))]])
    rhs = np.concatenate([system.rhs_u, system.rhs_q, [0.0]])
    u_svd, s, vt = np.linalg.svd(k)
    assert s[-1] > KERNEL_RANK_RTOL * s[0], "the reference system is singular"
    z = vt.T @ ((u_svd.T @ rhs) / s)
    p = z[n_u:n_u + n_q]
    return z[:n_u], p - (system.mean_vector @ p) / system.mean_vector.sum()


@pytest.fixture
def essential_system():
    return build_essential_system(*_spaces(two_triangle_square(), 1))


@pytest.fixture
def nitsche_system():
    return build_saddle_system(*_spaces(two_triangle_square(), 1), get_case("linear"), C_w=10.0)


def test_essential_system_is_singular(essential_system):
    report = solve(essential_system)
    assert report.singular
    assert np.isnan(report.u).all() and np.isnan(report.p).all()
    assert report.residual == np.inf


def test_kernel_contains_hat_witness(essential_system):
    kernel = kernel_probe(essential_system)
    assert kernel.shape[1] == 2
    z = np.zeros(essential_system.n_u)
    res_u = essential_system.A @ z + essential_system.B @ HAT_WITNESS
    res_q = essential_system.B.T @ z
    assert max(np.abs(res_u).max(), np.abs(res_q).max()) <= 1e-12
    # the witness lies in the span of the computed kernel basis
    target = np.concatenate([z, HAT_WITNESS])
    coeffs, *_ = np.linalg.lstsq(kernel, target, rcond=None)
    assert np.linalg.norm(kernel @ coeffs - target) <= 1e-10
    # all kernel members carry zero velocity
    assert np.abs(kernel[:essential_system.n_u]).max() <= 1e-10


@pytest.mark.parametrize("n", [16, 32])
def test_essential_system_flagged_on_sparse_path(n):
    # the LU factor of this singular system exists, and its zero data gives
    # the zero "solution" with residual 0; only the seeded probe flags it
    system = build_essential_system(*_spaces(generate_unit_square(n), 1))
    assert solve(system).singular
    assert pinned_solve(system).singular
    assert kernel_probe(system).shape[1] == 2


@settings(max_examples=10, deadline=None)
@given(n=st.integers(2, 16), seed=st.integers(0, 2 ** 16))
def test_jittered_essential_systems_stay_flagged(n, seed):
    # the row-scaled probe reads at least 0.24 through solve() and 6.4e12
    # through pinned_solve() on these systems (n <= 32, seeds 0-5), and at
    # most 4.5e-10 and 1.7e-11 on the well-posed bench systems
    system = build_essential_system(*_spaces(jitter(generate_unit_square(n), seed), 1))
    assert solve(system).singular
    assert pinned_solve(system).singular


def graded_lshape_system(n: int, mu: float, C_w: float) -> SaddleSystem:
    """Order-2 Nitsche system on the L-shape graded towards the re-entrant
    corner by x -> x |x|_inf^(1/mu - 1), with the local penalty C_w / h_T,
    a smooth load and zero boundary data."""
    base = generate_l_shape(n)
    x = base.vertices
    V, Q = _spaces(build_mesh(x * np.abs(x).max(axis=1, keepdims=True) ** (1 / mu - 1),
                              base.triangles), 2)
    v, q, boundary = tabulate_volume(V), tabulate_volume(Q), tabulate_boundary(V)
    tri, w, _, _, trace, curls = boundary
    trace = trace[..., None]
    pen = (C_w / V.mesh.diameters[tri])[:, None, None] * _local_matrix(w, trace, trace)
    cons = -_local_matrix(w, trace, curls[..., None])
    dofs = V.cell_dofs[tri]
    A = assemble_curl_curl(V, v).matrix + _assemble_cells(
        dofs, dofs, pen + cons + cons.transpose(0, 2, 1), (V.dof_count,) * 2)
    load = lambda x, y: np.column_stack([np.sin(y), np.cos(x)])
    zero = lambda x, y: np.zeros((np.size(x), 2))
    return SaddleSystem(A.tocsr(), assemble_b(V, Q, v, q).matrix,
                        assemble_rhs(V, Q, load, zero, C_w, v, boundary)[0],
                        np.zeros(Q.dof_count), assemble_mean_vector(Q, q))


def test_graded_system_is_not_flagged_singular():
    # element diameters spread from 3.5e-4 to 0.59: the unscaled probe
    # residual reads 2.6e-5, above the 1e-6 verdict, the row-scaled one 5.6e-9
    # (6.3e-9 through pinned_solve)
    system = graded_lshape_system(8, 0.25, 35.0)
    for report in (solve(system), pinned_solve(system)):
        assert not report.singular
        assert report.residual <= 1e-10


@pytest.mark.parametrize("mesh", [two_triangle_square(),
                                  refine_uniform(two_triangle_square()),
                                  generate_unit_square(16)],
                         ids=["counterexample", "counterexample-refined", "unit16"])
def test_kernel_witnesses_are_zero_mean_kernel_vectors(mesh):
    system = build_essential_system(*_spaces(mesh, 1))
    kernel = kernel_probe(system)
    assert kernel.shape[1] >= 1
    scale = max(np.abs(system.A).max(), np.abs(system.B).max())
    for wu, wp in zip(kernel[:system.n_u].T, kernel[system.n_u:].T):
        assert abs(system.mean_vector @ wp) <= 1e-12 * np.linalg.norm(wp)
        res_u = system.A @ wu + system.B @ wp
        res_q = system.B.T @ wu
        assert max(np.abs(res_u).max(), np.abs(res_q).max()) <= 1e-10 * scale
        assert np.linalg.norm(np.concatenate([wu, wp])) == pytest.approx(1.0)


# meshes of at most 400 unknowns, the size the dense SVD used to solve:
# order -> (largest unit-square n, square-with-hole n)
REFERENCE_MESHES = {1: (9, (3, 6)), 2: (5, (3,))}
ORDER_MESHES = st.sampled_from((1, 2)).flatmap(
    lambda order: st.tuples(st.just(order), jittered_meshes(*REFERENCE_MESHES[order])))


def assert_matches_dense_svd(system, report, order):
    reference = dense_svd_solve(system)
    assert not report.singular
    for name, got, want in zip("up", (report.u, report.p), reference):
        diff, size = np.linalg.norm(got - want), np.linalg.norm(want)
        assert diff <= 1e-10 * size, f"order {order}: {name} differs by {diff / size:.2e} relative"


@settings(max_examples=12, deadline=None)
@given(order_mesh=ORDER_MESHES)
# Known failure, pinned so that it does not depend on the example database: on
# this mesh the order-2 C_n^2 is 14.81, above the default C_w = 10, so the
# velocity block has 10 eigenvalues below -1e-10 max|lambda|, and p differs
# from the reference by 1.3e-10 relative (3.4e-12 at C_w = 20).
@example(order_mesh=(2, jitter(generate_unit_square(4), 145)))
def test_solve_matches_dense_svd_reference(order_mesh):
    order, mesh = order_mesh
    system = build_saddle_system(*_spaces(mesh, order), get_case("star"), C_w=10.0)
    assert system.n_u + system.n_q + 1 <= 400
    assert_matches_dense_svd(system, solve(system), order)


@settings(max_examples=12, deadline=None)
@given(order_mesh=ORDER_MESHES)
@example(order_mesh=(2, jitter(generate_unit_square(4), 145)))
def test_pinned_solve_matches_dense_svd_reference(order_mesh):
    # at penalties above C_n^2, where the velocity block is coercive; the
    # pinned mesh is the one on which solve() misses at C_w = 10
    order, mesh = order_mesh
    system = build_saddle_system(*_spaces(mesh, order), get_case("star"),
                                 C_w={1: 10.0, 2: 35.0}[order])
    report = pinned_solve(system)
    assert_matches_dense_svd(system, report, order)
    assert report.fill > 0


@pytest.mark.parametrize("order", [1, 2])
def test_augmented_matrix_matches_block_array(order):
    # SuperLU's column ordering reads the structure, so the saddle matrix
    # must hold block_array's canonical CSC arrays exactly, for the Nitsche
    # system and for the strong one, whose blocks are sliced
    V, Q = _spaces(jitter(generate_square_with_hole(6), 11), order)
    for system in (build_saddle_system(V, Q, get_case("hole"), 10.0),
                   build_essential_system(V, Q)):
        A, B, m = system.A, system.B, system.mean_vector
        n_q = B.shape[1]
        col = sparse.csr_array((m, (np.arange(n_q), np.zeros(n_q, dtype=np.int64))),
                               shape=(n_q, 1))
        oracle = sparse.block_array([[A, B, None], [B.T, None, col], [None, col.T, None]],
                                    format="csc")
        k = _augmented(A, B, m)
        assert k.format == "csc" and k.shape == oracle.shape and k.has_canonical_format
        assert np.array_equal(k.indptr, oracle.indptr)
        assert np.array_equal(k.indices, oracle.indices)
        assert np.array_equal(k.data.view(np.uint64), oracle.data.view(np.uint64))
        # the verdict's row scaling, read off the CSC data column by column
        assert np.array_equal(_column_max_abs(k), abs(oracle).max(axis=0).toarray())
    # an empty column, the last one included, reads 0
    empty = sparse.csc_array(np.array([[0.0, -3.0, 0.0], [0.0, 2.0, 0.0]]))
    assert np.array_equal(_column_max_abs(empty), [0.0, 3.0, 0.0])


def test_kernel_probe_refuses_a_spectrum_without_a_gap():
    # order 1 keeps an exact kernel; the order-2 strong pair keeps two
    # eigenvalues at 1.7e-11 max|lambda|, only 82 times below the next one
    mesh = generate_unit_square(6)
    assert kernel_probe(build_essential_system(*_spaces(mesh, 1))).shape[1] == 2
    with pytest.raises(RuntimeError, match="no clear spectral gap"):
        kernel_probe(build_essential_system(*_spaces(mesh, 2)))


def test_singular_verdict_computes_no_kernel(monkeypatch):
    # the verdict costs one LU factor; the dense kernel SVD is left to callers
    def refuse(_):
        raise AssertionError("solve() must not run the dense kernel probe")

    monkeypatch.setattr("curlstokes.solver.kernel_probe", refuse)
    system = build_essential_system(*_spaces(generate_unit_square(16), 1))
    assert solve(system).singular


@pytest.mark.parametrize("solver_call", [solve, pinned_solve], ids=["solve", "pinned_solve"])
@pytest.mark.parametrize("message,singular", [("Factor is exactly singular", True),
                                              ("gssv: unexpected status", False)])
def test_only_an_exactly_singular_factor_reads_singular(monkeypatch, solver_call,
                                                        message, singular):
    # any other RuntimeError from SuperLU is a fault, not a verdict on the system
    def splu(matrix, **options):
        raise RuntimeError(message)

    system = build_saddle_system(*_spaces(two_triangle_square(), 1), get_case("linear"),
                                 C_w=10.0)
    monkeypatch.setattr("curlstokes.solver.splu", splu)
    if singular:
        assert solver_call(system).singular
    else:
        with pytest.raises(RuntimeError, match=message):
            solver_call(system)


def test_refined_essential_kernel_persists():
    mesh = refine_uniform(two_triangle_square())
    assert kernel_probe(build_essential_system(*_spaces(mesh, 1))).shape[1] >= 1


def test_counterexample_builds_each_edge_space_once(monkeypatch):
    # the essential and Nitsche systems on the base mesh share its spaces
    triangles = []

    def counted(mesh, order):
        triangles.append(mesh.triangle_count)
        return build_edge_space(mesh, order)

    monkeypatch.setattr(experiments, "build_edge_space", counted)
    run_counterexample()
    assert triangles == [2, 8]


def test_nitsche_system_nonsingular(nitsche_system):
    assert kernel_probe(nitsche_system).shape[1] == 0
    zero = SaddleSystem(nitsche_system.A, nitsche_system.B,
                        np.zeros(nitsche_system.n_u), np.zeros(nitsche_system.n_q),
                        nitsche_system.mean_vector)
    report = solve(zero)
    assert not report.singular
    assert np.abs(report.u).max() <= 1e-12
    assert np.abs(report.p).max() <= 1e-12


def test_exact_reproduction_linear_case():
    case = get_case("linear")
    report, V, Q = solve_fields(generate_unit_square(2), 1, case, C_w=10.0)
    assert not report.singular
    assert report.residual <= 1e-10
    errors = compute_errors(V, report.u, Q, report.p, case)["errors"]
    assert errors["err_u_l2"] <= 1e-9
    assert errors["err_p_l2"] <= 1e-9


def test_pressure_mean_is_zero():
    case = get_case("linear")
    mesh = generate_unit_square(4)
    system = build_saddle_system(*_spaces(mesh, 1), case, C_w=10.0)
    report = solve(system)
    assert abs(system.mean_vector @ report.p) <= 1e-10


def test_solve_is_deterministic():
    case = get_case("linear")
    mesh = generate_unit_square(3)
    a = solve(build_saddle_system(*_spaces(mesh, 1), case, C_w=10.0))
    b = solve(build_saddle_system(*_spaces(mesh, 1), case, C_w=10.0))
    assert np.array_equal(a.u, b.u)
    assert np.array_equal(a.p, b.p)


def test_sparse_path_matches_dense():
    case = get_case("linear")
    report, V, Q = solve_fields(generate_unit_square(12), 1, case, C_w=10.0)
    assert report.residual <= 1e-10
    errors = compute_errors(V, report.u, Q, report.p, case)["errors"]
    assert errors["err_u_l2"] <= 1e-8


def test_dimension_validation():
    a = sparse.csr_array((3, 3))
    b = sparse.csr_array((3, 2))
    with pytest.raises(ValueError):
        SaddleSystem(a, b, np.zeros(3), np.zeros(2), np.ones(3))
    with pytest.raises(ValueError):
        SaddleSystem(a, b, np.zeros(2), np.zeros(2), np.ones(2))


@pytest.mark.parametrize("total", [0.0, -1.0, np.nan, np.inf])
def test_mean_vector_sum_validation(total):
    # the mean vector integrates the pressure basis: it sums to the area
    a = sparse.csr_array((3, 3))
    b = sparse.csr_array((3, 2))
    with pytest.raises(ValueError, match="mean vector sum"):
        SaddleSystem(a, b, np.zeros(3), np.zeros(2), np.array([total, 0.0]))
