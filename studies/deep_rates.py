"""Refinement study on meshes past the reach of the library's direct solve.

``solver.solve`` factors the indefinite saddle matrix with SuperLU, which
runs out of memory near 250k unknowns. This study solves each level through
the augmented-Lagrangian reformulation instead (ROADMAP item 2):

    A_g = A + g B W^-1 B^T      (SPD; W = diagonal of the pressure mass)
    S p = B^T A_g^-1 (f + g B W^-1 q) - q,   S = B^T A_g^-1 B,

factoring only A_g (no pivoting) and solving the zero-mean Schur system by
CG preconditioned with g W^-1. The added term vanishes at the solution, so
the discrete solution is that of the original system. The study exits
non-zero at the first level whose saddle residual exceeds
``solver._RESIDUAL_RTOL``, the bound ``solve`` holds itself to.
``--check-below`` also compares both solves on the small levels and exits
non-zero when they disagree or ``solve`` reports a singular system.

Prints the errors of every level and the pairwise EOCs of
``analysis.compute_eoc``:

    PYTHONPATH=src python studies/deep_rates.py --case star --order 1 \\
        --base-n 8 --levels 6 --jitter 7 --check-below 20000
"""

import argparse

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import LinearOperator, cg, splu

from curlstokes.analysis import compute_eoc, compute_errors
from curlstokes.cases import get_case
from curlstokes.experiments import build_saddle_system, level_meshes
from curlstokes.forms import DEFAULT_C_W, assemble_mass_nodal
from curlstokes.solver import _RESIDUAL_RTOL, solve
from curlstokes.spaces import build_edge_space, build_nodal_space

GAMMA = 1e3   # augmentation weight relative to the two blocks' mean diagonals
#: largest difference from ``solver.solve``, relative to the largest direct-solve
#: coefficient, that ``--check-below`` accepts. Agreeing solves differ by at most
#: 1.1e-10 against max |p| >= 2 at the CI sizes, and by 3e-8 at order 2, n = 32.
CHECK_RTOL = 1e-6


def augmented_solve(system, W, tol=1e-12):
    """(u, p, CG iterations, nnz(L+U), relative residual of the saddle system);
    W is the pressure mass matrix, whose diagonal weights the augmentation."""
    A, B, f, q = system.A, system.B, system.rhs_u, system.rhs_q
    w_inv = 1.0 / W.diagonal()
    bwb = B @ sparse.diags(w_inv) @ B.T
    gamma = GAMMA * A.diagonal().mean() / bwb.diagonal().mean()
    lu = splu((A + gamma * bwb).tocsc(), permc_spec="MMD_AT_PLUS_A",
              diag_pivot_thresh=0.0, options=dict(SymmetricMode=True))
    load = f + gamma * (B @ (w_inv * q))

    def zero_mean(v):
        return v - v.mean()       # B annihilates the constants

    n_q = len(q)
    schur = LinearOperator((n_q, n_q), dtype=float,
                           matvec=lambda v: zero_mean(B.T @ lu.solve(B @ zero_mean(v))))
    precond = LinearOperator((n_q, n_q), dtype=float,
                             matvec=lambda v: zero_mean(gamma * w_inv * zero_mean(v)))
    count = [0]
    p, info = cg(schur, zero_mean(B.T @ lu.solve(load) - q), rtol=tol, maxiter=200,
                 M=precond, callback=lambda _: count.__setitem__(0, count[0] + 1))
    if info != 0:
        raise RuntimeError(f"Schur CG did not converge (info {info})")
    u = lu.solve(load - B @ p)
    m = system.mean_vector
    p = p - (m @ p) / m.sum()
    res = np.hypot(np.linalg.norm(A @ u + B @ p - f), np.linalg.norm(B.T @ u - q))
    res /= max(np.hypot(np.linalg.norm(f), np.linalg.norm(q)), 1.0)
    return u, p, count[0], lu.L.nnz + lu.U.nnz, float(res)


def check_against_solve(system, u, p, where):
    """Compare with ``solver.solve``; exit non-zero when it reports the system
    singular or either field differs by more than CHECK_RTOL of its largest
    direct-solve coefficient."""
    ref = solve(system)
    if ref.singular:
        raise SystemExit(f"{where}: solve() reports the system singular")
    diffs = {name: (np.abs(direct - mine).max(), np.abs(direct).max())
             for name, direct, mine in (("u", ref.u, u), ("p", ref.p, p))}
    print("  direct solve: " + ", ".join(f"max |d{name}| {d:.1e}"
                                         for name, (d, _) in diffs.items()), flush=True)
    for name, (d, size) in diffs.items():
        if not d <= CHECK_RTOL * size:
            raise SystemExit(f"{where}: max |d{name}| {d:.1e} exceeds {CHECK_RTOL:g} "
                             f"of the direct solve's max |{name}| {size:.1e}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--case", required=True)
    ap.add_argument("--order", type=int, choices=(1, 2), default=1)
    ap.add_argument("--base-n", type=int, required=True)
    ap.add_argument("--levels", type=int, required=True)
    ap.add_argument("--jitter", type=int, default=None, metavar="SEED")
    ap.add_argument("--check-below", type=int, default=0, metavar="UNKNOWNS",
                    help="also run solver.solve on levels with fewer unknowns "
                         "and exit non-zero if the two solves disagree")
    args = ap.parse_args()
    case = get_case(args.case)
    print(f"case={args.case} order={args.order} base_n={args.base_n} "
          f"jitter={args.jitter} C_w={DEFAULT_C_W}", flush=True)
    records = []
    for k, mesh in enumerate(level_meshes(case, args.base_n, args.levels, args.jitter)):
        V, Q = build_edge_space(mesh, args.order), build_nodal_space(mesh, args.order)
        system = build_saddle_system(V, Q, case, DEFAULT_C_W)
        u, p, iters, fill, res = augmented_solve(system, assemble_mass_nodal(Q).matrix)
        rec = compute_errors(V, u, Q, p, case)
        records.append(rec)
        e = rec["errors"]
        print(f"n={args.base_n * 2 ** k} dofs={rec['dofs_u']}+{rec['dofs_p']} "
              f"u_l2={e['err_u_l2']:.6e} curl={e['err_u_curl']:.6e} hash={e['err_u_hash']:.6e} "
              f"p_l2={e['err_p_l2']:.6e} p_h1={e['err_p_h1']:.6e} "
              f"cg={iters} nnz_lu={fill} residual={res:.1e}", flush=True)
        where = f"level {k} (n={args.base_n * 2 ** k})"
        if not res <= _RESIDUAL_RTOL:
            raise SystemExit(f"{where}: saddle residual {res:.1e} exceeds {_RESIDUAL_RTOL:g}")
        if system.n_u + system.n_q < args.check_below:
            check_against_solve(system, u, p, where)
    print("pairwise EOCs, each at the finer level of its pair:")
    for key, vals in compute_eoc(records).items():
        print(f"  {key:11s}" + "".join(f" {v:+.3f}" for v in vals))


if __name__ == "__main__":
    main()
