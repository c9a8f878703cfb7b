"""Saddle-point solver with zero-mean pressure, kernel and inf-sup probes.

The discrete system couples the velocity operator A with the pressure
gradient B; the solves fix the pressure mean through a scalar Lagrange
multiplier. The module is linear algebra only: blocks go in, coefficient
arrays come out, and the caller reads them on its spaces.

``solve`` factors the augmented matrix by a pivoting sparse LU at every size,
``pinned_solve`` the saddle matrix with the first pressure dof pinned in place
of the multiplier, whose dense row and column fill the factor. Both share
``_factor`` and one verdict on the augmented matrix: a seeded, row-scaled
random right-hand side exposes a singular operator, and the solution must
reach a true relative residual of 1e-10. A singular system is reported; no
solve computes a kernel. Kernel dimensions and witnesses come only from
``kernel_probe``, a dense symmetric eigensolve of the same augmented matrix
on the counterexample's meshes of 2 and 8 triangles. ``estimate_infsup``
factors the pinned matrix with a Gram matrix in place of A.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import LinearOperator, eigsh, splu

KERNEL_RANK_RTOL = 1e-10
#: row-scaled relative residual of the seeded probe solve above which a factored system
#: counts as singular. Through solve / pinned_solve, well-posed systems read at most
#: 4.5e-10 / 1.7e-11 (a graded mesh 5.6e-9 / 6.3e-9), singular ones at least 0.24 / 6.4e12
_PROBE_RTOL = 1e-6
#: relative residual of the solution above which a solve counts as singular
_RESIDUAL_RTOL = 1e-10
_EXACTLY_SINGULAR = "Factor is exactly singular"    # SuperLU's zero pivot


@dataclass
class SaddleSystem:
    """Assembled blocks of the velocity-pressure system; the mean vector
    integrates the pressure basis, so it sums to the domain's area."""

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
        if not 0.0 < self.mean_vector.sum() < np.inf:
            raise ValueError("mean vector sum must be positive and finite")

    @property
    def n_u(self) -> int:
        return self.B.shape[0]

    @property
    def n_q(self) -> int:
        return self.B.shape[1]


@dataclass
class SolveReport:
    """Outcome of a solve. A singular system has ``singular=True``, NaN fields,
    an infinite residual and no kernel. ``fill`` counts SuperLU's stored factor
    entries, padding included."""

    u: np.ndarray
    p: np.ndarray
    residual: float
    singular: bool
    fill: int = 0


def _augmented(A, B, mean: np.ndarray) -> sparse.csc_array:
    """The saddle matrix [[A, B, 0], [B^T, 0, m], [0, m^T, 0]], whose last
    row and column pin the pressure mean through a Lagrange multiplier, in
    canonical CSC written straight from the canonical blocks' arrays: a
    velocity column holds A's column, then B's row; a pressure column B's
    column, then m's entry; the last column m."""
    n_u, n_q = B.shape
    blocks = (A.tocsc(), B.tocsr(), B.tocsc())
    a, bt, b = sizes = [np.diff(block.indptr) for block in blocks]    # entries per column
    indptr = np.concatenate([[0], np.cumsum(np.concatenate([a + bt, b + 1, [n_q]]))])
    indices, data = np.empty(indptr[-1], dtype=np.int64), np.empty(indptr[-1])
    starts = (indptr[:n_u], indptr[:n_u] + a, indptr[n_u:-2])
    for block, size, start, shift in zip(blocks, sizes, starts, (0, n_u, 0)):
        # entry e of column j goes to start[j] + e - block.indptr[j]
        at = np.repeat(start - block.indptr[:-1], size) + np.arange(block.nnz)
        indices[at], data[at] = block.indices + shift, block.data
    m_at = indptr[n_u + 1:-1] - 1       # the last entry of each pressure column
    indices[m_at], data[m_at] = n_u + n_q, mean
    indices[indptr[-2]:], data[indptr[-2]:] = np.arange(n_u, n_u + n_q), mean
    return sparse.csc_array((data, indices, indptr), shape=(n_u + n_q + 1,) * 2)


def _pinned(A, B) -> sparse.csc_array:
    """The saddle matrix [[A, B_1], [B_1^T, 0]], B_1 being B less its first
    column: the first pressure dof pinned to zero. Sound only where B
    annihilates the constants, as the pinned dof then loses no solution."""
    b_1 = B.tocsc()[:, 1:]
    return sparse.block_array([[A, b_1], [b_1.T, None]], format="csc")


def solve(system: SaddleSystem) -> SolveReport:
    """Solve the augmented symmetric indefinite system by a pivoting sparse
    LU; the report's pressure has zero mean."""
    k = _augmented(system.A, system.B, system.mean_vector)
    try:
        lu = _factor(k)
    except RuntimeError as exc:
        if _EXACTLY_SINGULAR not in str(exc):
            raise
        return _verdict(system, k, None)
    return _verdict(system, k, lu.solve, fill=lu.nnz)


def pinned_solve(system: SaddleSystem) -> SolveReport:
    """``solve``'s solution and verdict through a pivoting sparse LU of
    ``_pinned(A, B)``, which fills less than the multiplier's dense row and
    column. For data (f, q, c): B annihilates the constants, so B^T u sums to
    zero, the multiplier is sum(q) / sum(m), and a constant shifts p to m.p = c."""
    A, B, m, n_u = system.A, system.B, system.mean_vector, system.n_u
    k = _augmented(A, B, m)
    try:
        lu = _factor(_pinned(A, B))
    except RuntimeError as exc:
        if _EXACTLY_SINGULAR not in str(exc):
            raise
        return _verdict(system, k, None)

    def inverse(r):
        lam = r[n_u:-1].sum() / m.sum()
        z = lu.solve(np.concatenate([r[:n_u], (r[n_u:-1] - lam * m)[1:]]))
        p = np.concatenate([[0.0], z[n_u:]])
        return np.concatenate([z[:n_u], p + (r[-1] - m @ p) / m.sum(), [lam]])

    return _verdict(system, k, inverse, fill=lu.nnz)


def _verdict(system: SaddleSystem, k: sparse.csc_array, inverse, fill: int = 0) -> SolveReport:
    """Solve k z = (f, q, 0) with ``inverse`` (None: k did not factor) and judge
    z. A singular k can factor and, with zero data, give z = 0; a seeded random
    right-hand side exposes it. Its data and residual carry the row scaling
    d = 1 / sqrt(max_j |K_ij|), so a spread of element sizes is not singularity."""
    rhs = np.concatenate([system.rhs_u, system.rhs_q, [0.0]])
    z = np.full(k.shape[0], np.nan) if inverse is None else inverse(rhs)
    residual = float(np.linalg.norm(k @ z - rhs) / max(float(np.linalg.norm(rhs)), 1.0))
    if np.isfinite(z).all() and residual <= _RESIDUAL_RTOL:
        d = 1.0 / np.sqrt(_column_max_abs(k))
        xi = np.random.default_rng(0).standard_normal(k.shape[0])
        if np.linalg.norm(d * (k @ inverse(xi / d)) - xi) / np.linalg.norm(xi) <= _PROBE_RTOL:
            p, m = z[system.n_u:system.n_u + system.n_q], system.mean_vector
            return SolveReport(z[:system.n_u], p - (m @ p) / m.sum(), residual, False, fill)
    return SolveReport(np.full(system.n_u, np.nan), np.full(system.n_q, np.nan), np.inf, True, fill)


def _column_max_abs(k: sparse.csc_array) -> np.ndarray:
    """max_i |K_ij| of every column j, 0 for an empty one; a max is exact."""
    top = np.zeros(k.shape[1])
    stored = np.diff(k.indptr) > 0
    top[stored] = np.maximum.reduceat(np.abs(k.data), k.indptr[:-1][stored])
    return top


def _factor(matrix: sparse.csc_array, **options):
    """Sparse LU with the caller's ``splu`` options; out of memory names what
    it factored. SuperLU runs out as a MemoryError, a SystemError (past about
    2 GB as "invalid arguments", which no caller passes: square CSC, fixed
    options) or a RuntimeError naming SUPERLU_MALLOC."""
    try:
        return splu(matrix, **options)
    except (MemoryError, SystemError, RuntimeError) as exc:
        if isinstance(exc, RuntimeError) and "SUPERLU_MALLOC" not in str(exc):
            raise
        raise MemoryError(f"sparse LU factor of {matrix.shape[0]} unknowns "
                          f"and {matrix.nnz} nonzeros") from exc


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


def estimate_infsup(H, B, S) -> float:
    """beta_h = min over zero-mean q of max over v of v.Bq / (|v|_H |q|_S),
    H and S the Gram matrices of a velocity norm and a pressure seminorm.
    beta_h^2 is the bottom eigenvalue of the pencil (B^T H^-1 B, S), by
    shift-invert Lanczos through an LU factor of ``_pinned(H, B)``. Pinning the
    first pressure dof is sound only because both forms of the pencil vanish
    on constants: B^T H^-1 B does, S must."""
    n_u, n_q = B.shape
    lu = _factor(_pinned(H, B))

    # in shift-invert mode eigsh reads only the shape of A; OPinv applies A^-1,
    # the negated pressure of the factor's solve with data (0, r)
    op = LinearOperator((n_q - 1,) * 2, dtype=float,
                        matvec=lambda r: -lu.solve(np.concatenate([np.zeros(n_u), r]))[n_u:])
    theta = eigsh(op, k=1, M=S[1:, 1:], sigma=0.0, OPinv=op,
                  v0=np.random.default_rng(0).standard_normal(n_q - 1),
                  return_eigenvectors=False)[0]
    return float(np.sqrt(max(theta, 0.0)))
