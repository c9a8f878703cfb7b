"""Saddle-point solver with zero-mean pressure and kernel diagnostics.

The discrete system couples the velocity operator A with the pressure
gradient B; the pressure mean is pinned through a scalar Lagrange
multiplier rather than by eliminating a degree of freedom, which would
perturb the inf-sup structure. The default path is a direct sparse
factorization (dense for tiny systems); kernel_probe exposes a dense
rank-revealing analysis for the ill-posedness counterexample.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import MatrixRankWarning, minres, splu

from .spaces import DiscreteField, EdgeSpace, NodalSpace

KERNEL_SIZE_GUARD = 20000
KERNEL_RANK_RTOL = 1e-10
_DENSE_CUTOFF = 400
#: relative residual of the seeded probe solve above which a factored system
#: counts as singular; well-posed systems reach about 1e-10, singular ones 1e3
#: to 1e16
_PROBE_RTOL = 1e-6


class SolverError(Exception):
    """Linear solve failed to reach the requested residual."""


class SizeGuardError(Exception):
    """Dense diagnostic requested on a system above the size guard."""


@dataclass
class SaddleSystem:
    """Assembled blocks of the velocity-pressure system."""

    A: sparse.csr_array
    B: sparse.csr_array
    rhs_u: np.ndarray
    rhs_q: np.ndarray
    mean_vector: np.ndarray
    velocity_space: EdgeSpace | None = None
    pressure_space: NodalSpace | None = None

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
class KernelReport:
    dimension: int
    witnesses: list[tuple[np.ndarray, np.ndarray]] = field(default_factory=list)


@dataclass
class SolveReport:
    u: DiscreteField | np.ndarray
    p: DiscreteField | np.ndarray
    residual: float
    iterations: int | None
    singular: bool
    kernel: KernelReport | None = None


def _augmented(system: SaddleSystem) -> tuple[sparse.csc_array, np.ndarray]:
    n_u, n_q = system.n_u, system.n_q
    m = sparse.csr_array((system.mean_vector, (np.arange(n_q), np.zeros(n_q, dtype=np.int64))),
                         shape=(n_q, 1))
    k = sparse.block_array([
        [system.A, system.B, None],
        [system.B.T, None, m],
        [None, m.T, None],
    ], format="csc")
    rhs = np.concatenate([system.rhs_u, system.rhs_q, [0.0]])
    return k, rhs


def solve(system: SaddleSystem, tol: float = 1e-10, method: str = "direct") -> SolveReport:
    """Solve the augmented symmetric indefinite system.

    Returns a report whose pressure has zero mean; when the operator is
    singular the report carries the kernel analysis instead of raising.
    """
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    if method not in ("direct", "minres"):
        raise ValueError(f"unknown solve method {method!r}; use 'direct' or 'minres'")
    k, rhs = _augmented(system)
    n = k.shape[0]
    iterations = None
    singular = False
    z = None
    with warnings.catch_warnings():
        warnings.simplefilter("error", MatrixRankWarning)
        try:
            if method == "minres":
                z, iterations = _solve_minres(system, k, rhs, tol)
            elif n <= _DENSE_CUTOFF:
                # rank-revealing path: a singular operator with zero data would
                # otherwise sneak through as the zero solution
                u_svd, s, vt = np.linalg.svd(k.toarray())
                if s.size and s[-1] <= KERNEL_RANK_RTOL * s[0]:
                    singular = True
                else:
                    z = vt.T @ ((u_svd.T @ rhs) / s)
            else:
                lu = _factor(k)
                z = lu.solve(rhs)
                # a singular operator can still factor and, with zero data,
                # return the zero "solution"; a seeded random right-hand side
                # solved with the same factor exposes it
                probe = np.random.default_rng(0).standard_normal(n)
                probe_res = np.linalg.norm(k @ lu.solve(probe) - probe) / np.linalg.norm(probe)
                singular = not probe_res <= _PROBE_RTOL
        except (np.linalg.LinAlgError, MatrixRankWarning, RuntimeError):
            singular = True

    if z is not None and not np.isfinite(z).all():
        singular = True
    scale = max(float(np.linalg.norm(rhs)), 1.0)
    residual = float(np.linalg.norm(k @ z - rhs) / scale) if z is not None else np.inf
    if not singular and residual > tol:
        if method == "minres":
            raise SolverError(f"iterative solve stalled at relative residual {residual:.3e}")
        singular = True

    kernel = None
    if singular:
        if system.n_u + system.n_q <= KERNEL_SIZE_GUARD:
            kernel = kernel_probe(system)
        u = np.full(system.n_u, np.nan)
        p = np.full(system.n_q, np.nan)
        residual = np.inf
    else:
        u = z[:system.n_u]
        p = z[system.n_u:system.n_u + system.n_q]
        total = float(system.mean_vector.sum())
        if total > 0:
            p = p - (system.mean_vector @ p) / total

    if system.velocity_space is not None and not singular:
        u = DiscreteField(system.velocity_space, u)
    if system.pressure_space is not None and not singular:
        p = DiscreteField(system.pressure_space, p)
    return SolveReport(u=u, p=p, residual=residual,
                       iterations=iterations, singular=singular, kernel=kernel)


def _factor(matrix: sparse.csc_array):
    """Sparse LU; SuperLU running out of memory is raised as MemoryError."""
    try:
        return splu(matrix)
    except SystemError as exc:
        if "MemType" not in str(exc):
            raise
        raise MemoryError(f"sparse LU factorization: {exc}") from exc


def _solve_minres(system: SaddleSystem, k: sparse.csc_array, rhs: np.ndarray, tol: float):
    """Symmetric indefinite iterative fallback with a block-diagonal preconditioner.

    The velocity block is preconditioned by the full velocity operator plus
    the mass matrix, the pressure block by the h^2-scaled stiffness (shifted
    by the mass matrix to control the constant mode that the multiplier row
    pins). The true residual is checked outside minres's own recurrence.
    """
    from .forms import assemble_mass, assemble_mass_nodal, assemble_stiffness

    if system.velocity_space is None or system.pressure_space is None:
        precond = None
    else:
        mass = assemble_mass(system.velocity_space).matrix
        stiff = assemble_stiffness(system.pressure_space).matrix
        mass_q = assemble_mass_nodal(system.pressure_space).matrix
        h = system.velocity_space.mesh.h_max
        pu = _factor((system.A + mass).tocsc())
        pq = _factor((h ** 2 * (stiff + mass_q)).tocsc())

        def apply(v):
            out = np.empty_like(v)
            out[:system.n_u] = pu.solve(v[:system.n_u])
            out[system.n_u:system.n_u + system.n_q] = pq.solve(
                v[system.n_u:system.n_u + system.n_q])
            out[-1] = v[-1]
            return out

        precond = sparse.linalg.LinearOperator(k.shape, matvec=apply, dtype=float)

    count = {"n": 0}

    def cb(_):
        count["n"] += 1

    scale = max(float(np.linalg.norm(rhs)), 1.0)
    z = np.zeros_like(rhs)
    rtol = tol
    for _ in range(8):
        z, info = minres(k, rhs, x0=z, rtol=rtol, maxiter=100 * k.shape[0],
                         M=precond, callback=cb)
        if info != 0:
            break
        if np.linalg.norm(k @ z - rhs) / scale <= tol:
            return z, count["n"]
        rtol *= 1e-2
    raise SolverError(f"minres stalled after {count['n']} iterations")


def kernel_probe(system: SaddleSystem) -> KernelReport:
    """Nullspace of the saddle matrix restricted to zero-mean pressures.

    Dense rank-revealing SVD with threshold 1e-10 * sigma_max; witnesses are
    returned as (velocity, pressure) coefficient pairs in the full pressure
    coordinates.
    """
    n_u, n_q = system.n_u, system.n_q
    if n_u + n_q > KERNEL_SIZE_GUARD:
        raise SizeGuardError(
            f"kernel probe limited to {KERNEL_SIZE_GUARD} unknowns, got {n_u + n_q}")
    m = system.mean_vector
    if np.linalg.norm(m) == 0:
        z_basis = np.eye(n_q)
    else:
        _, _, vt = np.linalg.svd(m[None, :])
        z_basis = vt[1:].T          # (n_q, n_q - 1), orthonormal, orthogonal to m
    a = system.A.toarray()
    bz = system.B.toarray() @ z_basis
    k = np.block([[a, bz], [bz.T, np.zeros((z_basis.shape[1],) * 2)]])
    u_svd, s, _ = np.linalg.svd(k)
    smax = s.max(initial=0.0)
    null_mask = s <= KERNEL_RANK_RTOL * smax if smax > 0 else np.ones_like(s, dtype=bool)
    dim = int(null_mask.sum())
    witnesses = []
    for idx in np.nonzero(null_mask)[0]:
        vec = u_svd[:, idx]
        witnesses.append((vec[:n_u].copy(), z_basis @ vec[n_u:]))
    return KernelReport(dimension=dim, witnesses=witnesses)
