"""Fixed quadrature rules on the reference triangle and the reference edge.

Triangle rules are collapsed (conical) products of the Gauss-Legendre and
Gauss-Jacobi rules that ``scipy.special`` computes: all weights positive,
all points strictly inside the element, exact for polynomials up to the
advertised total degree. Edge rules are plain Gauss-Legendre on [0, 1].
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

TRIANGLE_MAX_DEGREE = 10
EDGE_MAX_DEGREE = 12


@dataclass(frozen=True)
class QuadRule:
    """Quadrature points and weights on a reference element.

    For triangles, ``points`` holds barycentric triples (k, 3) and the
    weights sum to 1/2. For edges, ``points`` holds parameters in (0, 1)
    of shape (k,) and the weights sum to 1.
    """

    points: np.ndarray
    weights: np.ndarray


@functools.cache
def triangle_rule(degree: int) -> QuadRule:
    """Rule on the reference triangle, exact for total degree <= ``degree``."""
    # imported here: scipy.special adds about 70 ms to the CLI's import time
    from scipy.special import roots_jacobi, roots_sh_legendre
    if not 1 <= degree <= TRIANGLE_MAX_DEGREE:
        raise ValueError(f"triangle rule degree must be in [1, {TRIANGLE_MAX_DEGREE}], got {degree}")
    m = (degree + 2) // 2
    s, ws = roots_sh_legendre(m)
    # Gauss-Jacobi for the (1 - t) Jacobian of the collapsed map, mapped to [0, 1]
    t, wt = roots_jacobi(m, 1.0, 0.0)
    t, wt = (t + 1) / 2, wt / 4
    S, T = np.meshgrid(s, t, indexing="ij")
    x = (S * (1.0 - T)).ravel()
    y = T.ravel()
    w = np.outer(ws, wt).ravel()
    bary = np.column_stack([1.0 - x - y, x, y])
    bary.flags.writeable = False
    w.flags.writeable = False
    return QuadRule(points=bary, weights=w)


@functools.cache
def edge_rule(degree: int) -> QuadRule:
    """Rule on [0, 1], exact for polynomials of degree <= ``degree``."""
    # imported here: scipy.special adds about 70 ms to the CLI's import time
    from scipy.special import roots_sh_legendre
    if not 1 <= degree <= EDGE_MAX_DEGREE:
        raise ValueError(f"edge rule degree must be in [1, {EDGE_MAX_DEGREE}], got {degree}")
    t, w = roots_sh_legendre((degree + 2) // 2)
    t.flags.writeable = False
    w.flags.writeable = False
    return QuadRule(points=t, weights=w)
