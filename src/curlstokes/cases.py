"""Manufactured and special-purpose problem setups with analytic data.

Every case bundles the analytic velocity, pressure, their derivatives and
the matching volume/boundary data, together with a domain builder. The
boundary velocity g always equals the analytic velocity restricted to the
boundary. ``validate_case`` checks the divergence constraint and the identity
f = curl(curl u) + grad p by finite differences; only the test suite
(``tests/test_cases.py``) runs it, no command does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import mesh as meshmod
from .mesh import Mesh

# smallest positive exponent of the corner singularity on the 3*pi/2 sector
LSHAPE_LAMBDA = 0.54448373678246
LSHAPE_OMEGA = 1.5 * np.pi

# validate_case: sample points, their seed, and the largest finite-difference
# residuals of the divergence and of the momentum identity
VALIDATE_POINTS = 50
VALIDATE_SEED = 1234
DIV_TOL = 1e-6
MOMENTUM_TOL = 1e-8


class SingularPointError(ValueError):
    """Evaluation of a singular quantity exactly at the corner."""


@dataclass(frozen=True)
class ManufacturedCase:
    """Analytic problem bundle; all callbacks are vectorized over points."""

    name: str
    mesh_builder: Callable[[int], Mesh]
    default_n: int
    u: Callable
    p: Callable
    curl_u: Callable
    grad_p: Callable
    f: Callable

    @property
    def g(self) -> Callable:
        """Boundary velocity: the analytic velocity restricted to the boundary."""
        return self.u

    def build_mesh(self, n: int | None = None) -> Mesh:
        return self.mesh_builder(self.default_n if n is None else n)


def star_case() -> ManufacturedCase:
    """Smooth trigonometric solution on the unit square."""

    def u(x, y):
        return np.column_stack([-np.sin(4 * x) * np.cos(4 * y),
                                np.cos(4 * x) * np.sin(4 * y)])

    def p(x, y):
        return np.cos(4 * np.pi * x) + np.cos(4 * np.pi * y)

    def curl_u(x, y):
        return -8.0 * np.sin(4 * x) * np.sin(4 * y)

    def grad_p(x, y):
        return np.column_stack([-4 * np.pi * np.sin(4 * np.pi * x),
                                -4 * np.pi * np.sin(4 * np.pi * y)])

    def f(x, y):
        return 32.0 * u(x, y) + grad_p(x, y)

    return ManufacturedCase(
        name="star", mesh_builder=meshmod.generate_unit_square, default_n=8,
        u=u, p=p, curl_u=curl_u, grad_p=grad_p, f=f)


def hole_case() -> ManufacturedCase:
    """The star-case fields on the punctured square, which carries one harmonic field."""
    base = star_case()
    return ManufacturedCase(
        name="hole", mesh_builder=meshmod.generate_square_with_hole, default_n=3,
        u=base.u, p=base.p, curl_u=base.curl_u, grad_p=base.grad_p, f=base.f)


def linear_case() -> ManufacturedCase:
    """Rigid rotation with linear pressure; lies in the discrete spaces for r = 1."""

    def u(x, y):
        return np.column_stack([-np.asarray(y, dtype=float),
                                np.asarray(x, dtype=float)])

    def p(x, y):
        return np.asarray(x, dtype=float) - 0.5

    def curl_u(x, y):
        return np.full(np.shape(np.asarray(x)), 2.0)

    def grad_p(x, y):
        k = np.shape(np.asarray(x))
        out = np.zeros(k + (2,))
        out[..., 0] = 1.0
        return out

    def f(x, y):
        return grad_p(x, y)

    return ManufacturedCase(
        name="linear", mesh_builder=meshmod.generate_unit_square, default_n=2,
        u=u, p=p, curl_u=curl_u, grad_p=grad_p, f=f)


def _lshape_angular(phi):
    """The angular profile and its first four derivatives."""
    lam = LSHAPE_LAMBDA
    clo = np.cos(lam * LSHAPE_OMEGA)
    a = 1.0 + lam
    b = 1.0 - lam
    psi = np.sin(a * phi) * clo / a - np.cos(a * phi) - np.sin(b * phi) * clo / b + np.cos(b * phi)
    psi1 = clo * np.cos(a * phi) + a * np.sin(a * phi) - clo * np.cos(b * phi) - b * np.sin(b * phi)
    psi2 = -clo * a * np.sin(a * phi) + a ** 2 * np.cos(a * phi) \
        + clo * b * np.sin(b * phi) - b ** 2 * np.cos(b * phi)
    psi3 = -clo * a ** 2 * np.cos(a * phi) - a ** 3 * np.sin(a * phi) \
        + clo * b ** 2 * np.cos(b * phi) + b ** 3 * np.sin(b * phi)
    psi4 = clo * a ** 3 * np.sin(a * phi) - a ** 4 * np.cos(a * phi) \
        - clo * b ** 3 * np.sin(b * phi) + b ** 4 * np.cos(b * phi)
    return psi, psi1, psi2, psi3, psi4


def _polar(x, y):
    """Polar coordinates with the angle in [0, 2 pi).

    The L-shaped domain occupies phi in [0, 3 pi / 2], measured
    counterclockwise from the positive x-axis; both legs of the re-entrant
    corner are angle levels where the velocity vanishes.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    r = np.hypot(x, y)
    phi = np.arctan2(y, x)
    phi = np.where(phi < 0, phi + 2 * np.pi, phi)
    return r, phi


def lshape_case() -> ManufacturedCase:
    """Corner singularity on the L-shaped domain; homogeneous volume forcing.

    u is not in H^2 and p is not in H^1, so every rate is reduced and limited
    by the regularity rather than by the order.
    """
    lam = LSHAPE_LAMBDA

    def u(x, y):
        r, phi = _polar(x, y)
        psi, psi1, _, _, _ = _lshape_angular(phi)
        rl = np.where(r > 0, r ** lam, 0.0)
        u1 = rl * ((1 + lam) * np.sin(phi) * psi + np.cos(phi) * psi1)
        u2 = rl * (np.sin(phi) * psi1 - (1 + lam) * np.cos(phi) * psi)
        return np.column_stack([np.where(r > 0, u1, 0.0), np.where(r > 0, u2, 0.0)])

    def p(x, y):
        r, phi = _polar(x, y)
        if np.any(r == 0):
            raise SingularPointError("pressure is singular at the corner")
        _, psi1, _, psi3, _ = _lshape_angular(phi)
        return -(r ** (lam - 1)) * ((1 + lam) ** 2 * psi1 + psi3) / (1 - lam)

    def curl_u(x, y):
        r, phi = _polar(x, y)
        if np.any(r == 0):
            raise SingularPointError("curl is singular at the corner")
        psi, _, psi2, _, _ = _lshape_angular(phi)
        return -(r ** (lam - 1)) * ((1 + lam) ** 2 * psi + psi2)

    def grad_p(x, y):
        r, phi = _polar(x, y)
        if np.any(r == 0):
            raise SingularPointError("pressure gradient is singular at the corner")
        _, psi1, psi2, psi3, psi4 = _lshape_angular(phi)
        chi = ((1 + lam) ** 2 * psi1 + psi3) / (1 - lam)
        chi1 = ((1 + lam) ** 2 * psi2 + psi4) / (1 - lam)
        p_r = -(lam - 1) * r ** (lam - 2) * chi
        p_phi = -(r ** (lam - 1)) * chi1
        return np.column_stack([np.cos(phi) * p_r - np.sin(phi) * p_phi / r,
                                np.sin(phi) * p_r + np.cos(phi) * p_phi / r])

    def f(x, y):
        k = np.shape(np.asarray(x))
        return np.zeros(k + (2,))

    return ManufacturedCase(
        name="lshape", mesh_builder=meshmod.generate_l_shape, default_n=2,
        u=u, p=p, curl_u=curl_u, grad_p=grad_p, f=f)


CASES = {
    "star": star_case,
    "hole": hole_case,
    "lshape": lshape_case,
    "linear": linear_case,
}


def get_case(name: str) -> ManufacturedCase:
    try:
        return CASES[name]()
    except KeyError:
        raise ValueError(f"unknown case {name!r}; choose from {sorted(CASES)}") from None


def _sample_points(case: ManufacturedCase, count: int, rng: np.random.Generator) -> np.ndarray:
    """Random interior points of the case domain, away from any singularity."""
    m = case.build_mesh()
    pts = np.empty((0, 2))
    while pts.shape[0] < count:
        tris = rng.integers(0, m.triangle_count, size=2 * count)
        bary = rng.dirichlet([1.0, 1.0, 1.0], size=2 * count)
        cand = np.einsum("kj,kjd->kd", bary, m.vertices[m.triangles[tris]])
        if case.name == "lshape":
            cand = cand[np.hypot(cand[:, 0], cand[:, 1]) >= 0.2]
        pts = np.vstack([pts, cand])
    return pts[:count]


def validate_case(case: ManufacturedCase) -> None:
    """Finite-difference checks of the case invariants; raises on failure."""
    rng = np.random.default_rng(VALIDATE_SEED)
    pts = _sample_points(case, VALIDATE_POINTS, rng)
    x, y = pts[:, 0], pts[:, 1]
    d = 1e-6

    div = ((case.u(x + d, y)[:, 0] - case.u(x - d, y)[:, 0])
           + (case.u(x, y + d)[:, 1] - case.u(x, y - d)[:, 1])) / (2 * d)
    worst = float(np.abs(div).max())
    if worst > DIV_TOL:
        raise AssertionError(f"case {case.name}: divergence residual {worst:.3e}")

    curl_curl = np.column_stack([
        (case.curl_u(x, y + d) - case.curl_u(x, y - d)) / (2 * d),
        -(case.curl_u(x + d, y) - case.curl_u(x - d, y)) / (2 * d),
    ])
    res = case.f(x, y) - curl_curl - case.grad_p(x, y)
    worst = float(np.abs(res).max())
    if worst > MOMENTUM_TOL:
        raise AssertionError(f"case {case.name}: momentum residual {worst:.3e}")
