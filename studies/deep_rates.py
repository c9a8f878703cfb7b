"""Refinement study on meshes past the reach of the library's direct solve.

``solver.solve`` factors the indefinite saddle matrix with SuperLU, which
runs out of memory near 250k unknowns. This study solves each level by
``solver.pinned_solve`` (ROADMAP item 21) and exits non-zero at the first
level it reports singular. ``--check-below`` also compares both solves on the
small levels and exits non-zero when they disagree or ``solve`` reports a
singular system. Prints each level's errors, the entries SuperLU stores for
its factor (``superlu_nnz``, supernode padding included) and saddle residual,
and the pairwise EOCs of ``analysis.compute_eoc``:

    PYTHONPATH=src python studies/deep_rates.py --case star --order 1 \\
        --base-n 8 --levels 6 --jitter 7 --check-below 20000
"""

import argparse

import numpy as np

from curlstokes.analysis import compute_eoc, compute_errors
from curlstokes.cases import get_case
from curlstokes.experiments import build_saddle_system, level_meshes
from curlstokes.forms import DEFAULT_C_W
from curlstokes.solver import pinned_solve, solve
from curlstokes.spaces import build_edge_space, build_nodal_space

#: largest difference from ``solver.solve``, relative to the largest direct-solve
#: coefficient, that ``--check-below`` accepts. Agreeing solves differ by at most
#: 4.8e-8 at order 1 (n <= 72) and 3.6e-7 at order 2, n = 32, against max |p| >= 2.
CHECK_RTOL = 1e-6


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
        report = pinned_solve(system)
        where = f"level {k} (n={args.base_n * 2 ** k})"
        if report.singular:
            raise SystemExit(f"{where}: pinned_solve() reports the system singular")
        rec = compute_errors(V, report.u, Q, report.p, case)
        records.append(rec)
        e = rec["errors"]
        print(f"n={args.base_n * 2 ** k} dofs={rec['dofs_u']}+{rec['dofs_p']} "
              f"u_l2={e['err_u_l2']:.6e} curl={e['err_u_curl']:.6e} hash={e['err_u_hash']:.6e} "
              f"p_l2={e['err_p_l2']:.6e} p_h1={e['err_p_h1']:.6e} "
              f"superlu_nnz={report.fill} residual={report.residual:.1e}", flush=True)
        if system.n_u + system.n_q < args.check_below:
            check_against_solve(system, report.u, report.p, where)
    print("pairwise EOCs, each at the finer level of its pair:")
    for key, vals in compute_eoc(records).items():
        print(f"  {key:11s}" + "".join(f" {v:+.3f}" for v in vals))


if __name__ == "__main__":
    main()
