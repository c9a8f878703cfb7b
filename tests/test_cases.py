import numpy as np
import pytest

from curlstokes.cases import (CASES, LSHAPE_LAMBDA, ManufacturedCase,
                              SingularPointError, get_case)

# validate_case: sample points, their seed, and the largest finite-difference
# residuals of the divergence and of the momentum identity
VALIDATE_POINTS = 50
VALIDATE_SEED = 1234
DIV_TOL = 1e-6
MOMENTUM_TOL = 1e-8


def _sample_points(name: str, case: ManufacturedCase, count: int,
                   rng: np.random.Generator) -> np.ndarray:
    """Random interior points of the case domain, away from any singularity."""
    m = case.mesh_builder(case.default_n)
    pts = np.empty((0, 2))
    while pts.shape[0] < count:
        tris = rng.integers(0, m.triangle_count, size=2 * count)
        bary = rng.dirichlet([1.0, 1.0, 1.0], size=2 * count)
        cand = np.einsum("kj,kjd->kd", bary, m.vertices[m.triangles[tris]])
        if name == "lshape":
            cand = cand[np.hypot(cand[:, 0], cand[:, 1]) >= 0.2]
        pts = np.vstack([pts, cand])
    return pts[:count]


def validate_case(name: str, case: ManufacturedCase) -> None:
    """Finite-difference checks of the case invariants; raises on failure."""
    rng = np.random.default_rng(VALIDATE_SEED)
    pts = _sample_points(name, case, VALIDATE_POINTS, rng)
    x, y = pts[:, 0], pts[:, 1]
    d = 1e-6

    div = ((case.u(x + d, y)[:, 0] - case.u(x - d, y)[:, 0])
           + (case.u(x, y + d)[:, 1] - case.u(x, y - d)[:, 1])) / (2 * d)
    worst = float(np.abs(div).max())
    if worst > DIV_TOL:
        raise AssertionError(f"case {name}: divergence residual {worst:.3e}")

    curl_curl = np.column_stack([
        (case.curl_u(x, y + d) - case.curl_u(x, y - d)) / (2 * d),
        -(case.curl_u(x + d, y) - case.curl_u(x - d, y)) / (2 * d),
    ])
    res = case.f(x, y) - curl_curl - case.grad_p(x, y)
    worst = float(np.abs(res).max())
    if worst > MOMENTUM_TOL:
        raise AssertionError(f"case {name}: momentum residual {worst:.3e}")


@pytest.mark.parametrize("name", ["star", "hole", "lshape", "linear"])
def test_case_invariants(name):
    validate_case(name, get_case(name))


def test_unknown_case():
    with pytest.raises(ValueError):
        get_case("vortex")


def test_get_case_returns_one_shared_value():
    for name in CASES:
        assert get_case(name) is get_case(name)
    star, hole = get_case("star"), get_case("hole")
    for field in ("u", "p", "curl_u", "grad_p", "f"):
        assert getattr(hole, field) is getattr(star, field)


def test_star_values():
    case = get_case("star")
    u = case.u(np.array([np.pi / 8]), np.array([0.0]))
    assert np.allclose(u, [[-1.0, 0.0]], atol=1e-14)
    x = np.array([0.3])
    y = np.array([0.7])
    assert case.curl_u(x, y)[0] == pytest.approx(-8 * np.sin(1.2) * np.sin(2.8), rel=1e-14)
    # momentum identity in closed form: f = 32 u + grad p
    f = case.f(x, y)
    expected = 32 * case.u(x, y) + case.grad_p(x, y)
    assert np.allclose(f, expected, atol=1e-13)


def test_star_divergence_free_closed_form():
    case = get_case("star")
    rng = np.random.default_rng(0)
    x, y = rng.uniform(0, 1, 50), rng.uniform(0, 1, 50)
    d = 1e-6
    div = ((case.u(x + d, y)[:, 0] - case.u(x - d, y)[:, 0])
           + (case.u(x, y + d)[:, 1] - case.u(x, y - d)[:, 1])) / (2 * d)
    assert np.abs(div).max() <= 1e-9


def test_hole_case_shares_star_fields():
    star = get_case("star")
    hole = get_case("hole")
    x, y = np.array([0.11, 0.84]), np.array([0.21, 0.9])
    assert np.array_equal(star.u(x, y), hole.u(x, y))
    assert np.array_equal(star.p(x, y), hole.p(x, y))
    mesh = hole.mesh_builder(hole.default_n)
    assert mesh.euler_characteristic() == 0   # first Betti number 1
    assert isinstance(mesh.vertices, np.ndarray)


def test_linear_case():
    case = get_case("linear")
    x, y = np.array([0.25, 0.5]), np.array([0.0, 1.0])
    assert np.allclose(case.f(x, y), [[1.0, 0.0], [1.0, 0.0]])
    assert np.allclose(case.curl_u(x, y), 2.0)
    # mean of x - 1/2 over the unit square vanishes
    xs, ys = np.meshgrid(np.linspace(0, 1, 101), np.linspace(0, 1, 101))
    assert abs(case.p(xs.ravel(), ys.ravel()).mean()) <= 1e-12
    # nonzero normal trace on the bottom edge drives the divergence data
    u = case.u(np.array([0.5]), np.array([0.0]))
    assert abs(u[0] @ np.array([0.0, -1.0])) > 0.1


def test_lshape_lambda_full_precision():
    assert LSHAPE_LAMBDA == 0.54448373678246


def test_lshape_frozen_reference_values():
    # 50-digit mpmath oracle values
    case = get_case("lshape")
    x = np.array([0.5, -0.375])
    y = np.array([0.25, -0.8])
    u = case.u(x, y)
    assert u[0] == pytest.approx([0.8478616003894236, 0.10573610499113455], rel=1e-13)
    assert u[1] == pytest.approx([0.11978498725195043, 1.0232619802636898], rel=1e-13)
    assert case.p(x, y) == pytest.approx([-4.515618198658272, 3.70173394407048], rel=1e-13)
    assert case.curl_u(x, y) == pytest.approx(
        [-3.871189264697268, -3.1001303168291865], rel=1e-13)
    gp = case.grad_p(x, y)
    assert gp[0] == pytest.approx([1.8803883103016918, 4.466973491276358], rel=1e-12)
    assert gp[1] == pytest.approx([2.257233405333218, 1.049671858285693], rel=1e-12)


def test_lshape_forcing_is_zero():
    case = get_case("lshape")
    f = case.f(np.array([0.3, -0.5]), np.array([0.4, 0.9]))
    assert np.abs(f).max() == 0.0


def test_lshape_velocity_vanishes_on_corner_legs():
    case = get_case("lshape")
    r = np.array([0.2, 0.5, 0.9])
    on_leg1 = case.u(r, np.zeros(3))            # positive x-axis
    on_leg2 = case.u(np.zeros(3), -r)           # negative y-axis
    assert np.abs(on_leg1).max() <= 1e-12
    assert np.abs(on_leg2).max() <= 1e-12


def test_lshape_singularity_handling():
    case = get_case("lshape")
    zero = np.array([0.0])
    u0 = case.u(zero, zero)
    assert np.array_equal(u0, [[0.0, 0.0]])
    for fn in (case.p, case.curl_u, case.grad_p):
        with pytest.raises(SingularPointError):
            fn(zero, zero)


def test_lshape_divergence_free_away_from_origin():
    case = get_case("lshape")
    rng = np.random.default_rng(1)
    pts = []
    while len(pts) < 50:
        x, y = rng.uniform(-1, 1), rng.uniform(-1, 1)
        if (x < 0 or y > 0) and np.hypot(x, y) >= 0.2:
            pts.append((x, y))
    x, y = np.array(pts).T
    d = 1e-6
    div = ((case.u(x + d, y)[:, 0] - case.u(x - d, y)[:, 0])
           + (case.u(x, y + d)[:, 1] - case.u(x, y - d)[:, 1])) / (2 * d)
    assert np.abs(div).max() <= 1e-8


def test_default_meshes():
    assert get_case("star").mesh_builder(4).triangle_count == 32
    hole = get_case("hole")
    assert hole.mesh_builder(hole.default_n).euler_characteristic() == 0
    assert get_case("lshape").mesh_builder(1).triangle_count == 6
