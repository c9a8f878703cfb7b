"""Manufactured and special-purpose problem setups with analytic data.

Every case bundles the analytic velocity, pressure, their derivatives and
the volume forcing, together with a domain builder. The boundary data is u
itself, which the assembly samples on the boundary. The divergence
constraint and the identity f = curl(curl u) + grad p are checked by finite
differences in ``tests/test_cases.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from . import mesh as meshmod
from .mesh import Mesh

# smallest positive exponent of the corner singularity on the 3*pi/2 sector
LSHAPE_LAMBDA = 0.54448373678246
LSHAPE_OMEGA = 1.5 * np.pi


class SingularPointError(ValueError):
    """Evaluation of a singular quantity exactly at the corner."""


@dataclass(frozen=True)
class ManufacturedCase:
    """Analytic problem bundle; all callbacks are vectorized over points."""

    mesh_builder: Callable[[int], Mesh]
    default_n: int
    u: Callable
    p: Callable
    curl_u: Callable
    grad_p: Callable
    f: Callable


# star: smooth trigonometric solution on the unit square

def _star_u(x, y):
    return np.column_stack([-np.sin(4 * x) * np.cos(4 * y),
                            np.cos(4 * x) * np.sin(4 * y)])


def _star_p(x, y):
    return np.cos(4 * np.pi * x) + np.cos(4 * np.pi * y)


def _star_curl_u(x, y):
    return -8.0 * np.sin(4 * x) * np.sin(4 * y)


def _star_grad_p(x, y):
    return np.column_stack([-4 * np.pi * np.sin(4 * np.pi * x),
                            -4 * np.pi * np.sin(4 * np.pi * y)])


def _star_f(x, y):
    return 32.0 * _star_u(x, y) + _star_grad_p(x, y)


# linear: rigid rotation with linear pressure; lies in the discrete spaces for r = 1

def _linear_u(x, y):
    return np.column_stack([-np.asarray(y, dtype=float),
                            np.asarray(x, dtype=float)])


def _linear_p(x, y):
    return np.asarray(x, dtype=float) - 0.5


def _linear_curl_u(x, y):
    return np.full(np.shape(np.asarray(x)), 2.0)


def _linear_grad_p(x, y):
    k = np.shape(np.asarray(x))
    out = np.zeros(k + (2,))
    out[..., 0] = 1.0
    return out


# lshape: corner singularity on the L-shaped domain, homogeneous volume
# forcing. u is not in H^2 and p is not in H^1, so every rate is reduced and
# limited by the regularity rather than by the order.

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


def _polar(x, y, singular: str | None = None):
    """Polar coordinates with the angle in [0, 2 pi); with ``singular``
    naming the quantity, a SingularPointError at the corner r = 0.

    The L-shaped domain occupies phi in [0, 3 pi / 2], measured
    counterclockwise from the positive x-axis; both legs of the re-entrant
    corner are angle levels where the velocity vanishes.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    r = np.hypot(x, y)
    phi = np.arctan2(y, x)
    phi = np.where(phi < 0, phi + 2 * np.pi, phi)
    if singular is not None and np.any(r == 0):
        raise SingularPointError(f"{singular} is singular at the corner")
    return r, phi


def _lshape_u(x, y):
    lam = LSHAPE_LAMBDA
    r, phi = _polar(x, y)
    psi, psi1, _, _, _ = _lshape_angular(phi)
    rl = np.where(r > 0, r ** lam, 0.0)
    u1 = rl * ((1 + lam) * np.sin(phi) * psi + np.cos(phi) * psi1)
    u2 = rl * (np.sin(phi) * psi1 - (1 + lam) * np.cos(phi) * psi)
    return np.column_stack([np.where(r > 0, u1, 0.0), np.where(r > 0, u2, 0.0)])


def _lshape_p(x, y):
    lam = LSHAPE_LAMBDA
    r, phi = _polar(x, y, "pressure")
    _, psi1, _, psi3, _ = _lshape_angular(phi)
    return -(r ** (lam - 1)) * ((1 + lam) ** 2 * psi1 + psi3) / (1 - lam)


def _lshape_curl_u(x, y):
    lam = LSHAPE_LAMBDA
    r, phi = _polar(x, y, "curl")
    psi, _, psi2, _, _ = _lshape_angular(phi)
    return -(r ** (lam - 1)) * ((1 + lam) ** 2 * psi + psi2)


def _lshape_grad_p(x, y):
    lam = LSHAPE_LAMBDA
    r, phi = _polar(x, y, "pressure gradient")
    _, psi1, psi2, psi3, psi4 = _lshape_angular(phi)
    chi = ((1 + lam) ** 2 * psi1 + psi3) / (1 - lam)
    chi1 = ((1 + lam) ** 2 * psi2 + psi4) / (1 - lam)
    p_r = -(lam - 1) * r ** (lam - 2) * chi
    p_phi = -(r ** (lam - 1)) * chi1
    return np.column_stack([np.cos(phi) * p_r - np.sin(phi) * p_phi / r,
                            np.sin(phi) * p_r + np.cos(phi) * p_phi / r])


def _lshape_f(x, y):
    return np.zeros(np.shape(np.asarray(x)) + (2,))


_STAR = ManufacturedCase(
    mesh_builder=meshmod.generate_unit_square, default_n=8,
    u=_star_u, p=_star_p, curl_u=_star_curl_u, grad_p=_star_grad_p, f=_star_f)
CASES = {
    "star": _STAR,
    # the star fields on the punctured square, which carries one harmonic field
    "hole": replace(_STAR, mesh_builder=meshmod.generate_square_with_hole, default_n=3),
    "lshape": ManufacturedCase(
        mesh_builder=meshmod.generate_l_shape, default_n=2, u=_lshape_u, p=_lshape_p,
        curl_u=_lshape_curl_u, grad_p=_lshape_grad_p, f=_lshape_f),
    # curl curl u = 0, so the forcing is grad p
    "linear": ManufacturedCase(
        mesh_builder=meshmod.generate_unit_square, default_n=2, u=_linear_u, p=_linear_p,
        curl_u=_linear_curl_u, grad_p=_linear_grad_p, f=_linear_grad_p),
}


def get_case(name: str) -> ManufacturedCase:
    try:
        return CASES[name]
    except KeyError:
        raise ValueError(f"unknown case {name!r}; choose from {sorted(CASES)}") from None
