"""Saddle-point solver with zero-mean pressure, kernel and inf-sup probes.

The discrete system couples the velocity operator A with the pressure
gradient B; the pressure mean is pinned through a scalar Lagrange
multiplier rather than by eliminating a degree of freedom, which would
perturb the inf-sup structure. The module is linear algebra only: blocks go
in, coefficient arrays come out, and the caller reads them on its spaces.

``solve`` has one path at every size: a sparse LU factor of the augmented
matrix, whose singularity a seeded, row-scaled random right-hand side
exposes, and a true relative residual of 1e-10 that the solution must
reach. A singular system is reported, not raised, at the cost of the solve
itself: ``solve`` has no iterative fallback and never computes a kernel.
Kernel dimensions and witnesses come only from ``kernel_probe``, a dense
symmetric eigensolve of the same augmented matrix on the counterexample's
meshes of 2 and 8 triangles; ``estimate_infsup`` factors it with a Gram
matrix in place of A.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import LinearOperator, eigsh, splu

KERNEL_RANK_RTOL = 1e-10
#: row-scaled relative residual of the seeded probe solve above which a
#: factored system counts as singular; well-posed systems, graded meshes
#: included, read at most about 4e-8, singular ones at least 2
_PROBE_RTOL = 1e-6
#: relative residual of the solution above which a solve counts as singular
_RESIDUAL_RTOL = 1e-10


@dataclass
class SaddleSystem:
    """Assembled blocks of the velocity-pressure system."""

    A: sparse.csr_array
    B: sparse.csr_array
    rhs_u: np.ndarray
    rhs_q: np.ndarray
    mean_vector: np.ndarray

    def __post_init__(self):
        n_u, n_q = self.B.shape
        if self.A.shape != (n_u, n_u):
            raise ValueError("A block does not match the coupling block")
        if self.rhs_u.shape != (n_u,) or self.rhs_q.shape != (n_q,):
            raise ValueError("right-hand side lengths do not match the blocks")
        if self.mean_vector.shape != (n_q,):
            raise ValueError("mean vector length does not match the pressure block")

    @property
    def n_u(self) -> int:
        return self.B.shape[0]

    @property
    def n_q(self) -> int:
        return self.B.shape[1]


@dataclass
class SolveReport:
    """Outcome of ``solve``. A singular system has ``singular=True``, NaN
    fields and an infinite residual, and carries no kernel."""

    u: np.ndarray
    p: np.ndarray
    residual: float
    singular: bool


def _augmented(A, B, mean: np.ndarray) -> sparse.csc_array:
    """The saddle matrix [[A, B, 0], [B^T, 0, m], [0, m^T, 0]], whose last
    row and column pin the pressure mean through a Lagrange multiplier."""
    n_q = B.shape[1]
    m = sparse.csr_array((mean, (np.arange(n_q), np.zeros(n_q, dtype=np.int64))),
                         shape=(n_q, 1))
    return sparse.block_array([
        [A, B, None],
        [B.T, None, m],
        [None, m.T, None],
    ], format="csc")


def solve(system: SaddleSystem) -> SolveReport:
    """Solve the augmented symmetric indefinite system.

    Returns a report whose pressure has zero mean. A singular operator is
    reported, not raised; its kernel is left to ``kernel_probe``.
    """
    k = _augmented(system.A, system.B, system.mean_vector)
    rhs = np.concatenate([system.rhs_u, system.rhs_q, [0.0]])
    try:
        lu = _factor(k)
        z = lu.solve(rhs)
        # a singular operator can still factor and, with zero data, return the
        # zero "solution"; a seeded random right-hand side solved with the same
        # factor exposes it. Data and residual carry the row scaling
        # d = 1 / sqrt(max_j |K_ij|) (K is symmetric: its column maxima), so a
        # wide spread of element sizes does not read as singularity
        d = 1.0 / np.sqrt(abs(k).max(axis=0).toarray())
        xi = np.random.default_rng(0).standard_normal(k.shape[0])
        probe_res = np.linalg.norm(d * (k @ lu.solve(xi / d)) - xi) / np.linalg.norm(xi)
        singular = not probe_res <= _PROBE_RTOL
    except RuntimeError:    # SuperLU: factor is exactly singular
        singular = True

    if not singular:
        scale = max(float(np.linalg.norm(rhs)), 1.0)
        residual = float(np.linalg.norm(k @ z - rhs) / scale)
        singular = not (np.isfinite(z).all() and residual <= _RESIDUAL_RTOL)
    if singular:
        return SolveReport(u=np.full(system.n_u, np.nan), p=np.full(system.n_q, np.nan),
                           residual=np.inf, singular=True)

    u = z[:system.n_u]
    p = z[system.n_u:system.n_u + system.n_q]
    total = float(system.mean_vector.sum())
    if total > 0:
        p = p - (system.mean_vector @ p) / total
    return SolveReport(u=u, p=p, residual=residual, singular=False)


def _factor(matrix: sparse.csc_array):
    """Sparse LU; SuperLU running out of memory is raised as MemoryError."""
    try:
        return splu(matrix)
    except SystemError as exc:
        if "MemType" not in str(exc):
            raise
        raise MemoryError(f"sparse LU factorization: {exc}") from exc


def project_off_gradients(M, B, S, c: np.ndarray) -> np.ndarray:
    """h = c - M^-1 B phi, S phi = B^T c: the fields c (columns) less their
    M-projection G phi onto the discrete gradients, as B = M G and S = G^T M G
    for mass M, coupling B, pressure stiffness S and gradient coefficients G.
    S and B^T c vanish on constants, so phi's first dof is pinned to zero."""
    phi = np.zeros((S.shape[0], c.shape[1]))
    phi[1:] = _factor(S[1:, 1:].tocsc()).solve((B.T @ c)[1:])
    return c - _factor(M.tocsc()).solve(B @ phi)


def kernel_probe(system: SaddleSystem) -> np.ndarray:
    """Orthonormal basis (n_u + n_q, dim) of the nullspace of the saddle
    matrix restricted to zero-mean pressures.

    Dense symmetric eigensolve of the augmented matrix with threshold
    1e-10 * max|lambda|; a RuntimeError when the smallest dropped |lambda|
    is below 1e6 times the largest kept one, as no exact kernel leaves so
    small a gap. Because B maps constants to zero and the mean vector has a
    positive sum, every kernel vector of the augmented matrix has a zero
    multiplier and a zero-mean pressure, so the two kernels coincide. Each
    witness column stacks the velocity coefficients over the pressure
    coefficients in the full pressure coordinates.
    """
    lam, vecs = np.linalg.eigh(_augmented(system.A, system.B, system.mean_vector).toarray())
    size = np.abs(lam)
    null_mask = size <= KERNEL_RANK_RTOL * size.max(initial=0.0)
    kept, dropped = size[null_mask].max(initial=0.0), size[~null_mask].min(initial=np.inf)
    if dropped < 1e6 * kept:
        raise RuntimeError(f"kernel_probe: no clear spectral gap: {kept:.3g} kept, {dropped:.3g} dropped")
    return vecs[:system.n_u + system.n_q, null_mask]


def estimate_infsup(H, B, S, mean: np.ndarray) -> float:
    """beta_h = min over zero-mean q of max over v of v.Bq / (|v|_H |q|_S),
    H and S the Gram matrices of a velocity norm and a pressure seminorm.
    beta_h^2 is the bottom eigenvalue of the pencil (B^T H^-1 B, S), by
    shift-invert Lanczos through an LU factor of the augmented matrix with H
    in place of A. The pencil pins the first pressure dof, which is sound only
    because both of its forms vanish on constants: B^T H^-1 B does, S must."""
    n_u, n_q = B.shape
    lu = _factor(_augmented(H, B, mean))

    def pinned_inverse(r):   # zero-sum data: zero multiplier, zero-mean y
        y = lu.solve(np.concatenate([np.zeros(n_u), [-r.sum()], r, [0.0]]))[n_u:n_u + n_q]
        return y[0] - y[1:]

    # in shift-invert mode eigsh reads only the shape of A; OPinv applies A^-1
    op = LinearOperator((n_q - 1,) * 2, matvec=pinned_inverse, dtype=float)
    theta = eigsh(op, k=1, M=S[1:, 1:], sigma=0.0, OPinv=op,
                  v0=np.random.default_rng(0).standard_normal(n_q - 1),
                  return_eigenvectors=False)[0]
    return float(np.sqrt(max(theta, 0.0)))
