"""Command-line interface: convergence studies, the ill-posedness
counterexample, harmonic-field extraction, and stability probes.

Outputs are deterministic: identical configuration (and jitter seed) yields
byte-identical CSV and JSON files. Exit codes: 0 success, 2 configuration
error, 3 solver singularity (outside the counterexample command), 4 size
guard exceeded, 5 out of memory, 6 harmonic dimension differs from the
Betti number.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .analysis import NORM_COLUMNS, compute_eoc, least_squares_rates
from .cases import CASES
from .experiments import (ConvergenceRun, SingularLevelError, run_convergence,
                          run_counterexample, run_harmonic, run_probe)
from .solver import SizeGuardError
from .svgplot import loglog_chart

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SINGULAR = 3
EXIT_SIZE_GUARD = 4
EXIT_MEMORY = 5
EXIT_BETTI_MISMATCH = 6

CSV_COLUMNS = ["level", "h", "dofs_u", "dofs_p", *NORM_COLUMNS.values()]
EOC_COLUMNS = [col.replace("err_", "eoc_", 1) for col in NORM_COLUMNS.values()]


def _json_dump(data, path: Path) -> None:
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def _write_errors_csv(run: ConvergenceRun, path: Path) -> None:
    eoc = compute_eoc(run.bundles)
    lines = [",".join(CSV_COLUMNS + EOC_COLUMNS)]
    for k, b in enumerate(run.bundles):
        row = [str(k), repr(b.h), str(b.dofs_u), str(b.dofs_p)]
        row += [repr(getattr(b, attr)) for attr in NORM_COLUMNS]
        row += ["" if k == 0 else repr(eoc[col][k - 1]) for col in NORM_COLUMNS.values()]
        lines.append(",".join(row))
    path.write_text("\n".join(lines) + "\n")


def _write_report_json(run: ConvergenceRun, path: Path) -> None:
    eoc = compute_eoc(run.bundles)
    data = {
        "schema_version": SCHEMA_VERSION,
        "config": run.config,
        "levels": [
            {
                "level": k,
                "h": b.h,
                "dofs_u": b.dofs_u,
                "dofs_p": b.dofs_p,
                "errors": {col: getattr(b, attr) for attr, col in NORM_COLUMNS.items()},
                "err_u_hcurl": b.err_u_hcurl,
                "norm_u_hash": run.hash_norms[k],
            }
            for k, b in enumerate(run.bundles)
        ],
        "eoc": eoc,
        "eoc_least_squares_last3": least_squares_rates(run.bundles),
    }
    _json_dump(data, path)


def _write_svgs(run: ConvergenceRun, outdir: Path) -> None:
    bundles = run.bundles
    hs = [b.h for b in bundles]
    r = run.config["order"]
    groups = {
        "convergence_velocity.svg": ("velocity errors", "err_u_", (float(r), r - 0.5)),
        "convergence_boundary.svg": ("boundary trace errors", "err_g", (float(r),)),
        "convergence_pressure.svg": ("pressure errors", "err_p_", (r - 0.5,)),
    }
    for fname, (title, prefix, slopes) in groups.items():
        series = {col: [getattr(b, attr) for b in bundles]
                  for attr, col in NORM_COLUMNS.items() if col.startswith(prefix)}
        (outdir / fname).write_text(loglog_chart(
            f"{run.config['case']} order {r}: {title}", hs, series, slopes))


def _cmd_convergence(args) -> int:
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    try:
        run = run_convergence(args.case, args.order, args.levels, C_w=args.cw,
                              base_n=args.base_n, jitter_seed=args.jitter)
    except SingularLevelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SINGULAR
    _write_errors_csv(run, outdir / "errors.csv")
    _write_report_json(run, outdir / "report.json")
    _write_svgs(run, outdir)
    eoc = compute_eoc(run.bundles)
    final = {k: v[-1] for k, v in eoc.items()}
    print(f"convergence {args.case} order {args.order}: final EOC "
          + " ".join(f"{k}={v:.3f}" for k, v in final.items()))
    return EXIT_OK


def _cmd_counterexample(args) -> int:
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    data = run_counterexample()
    _json_dump(data, outdir / "counterexample.json")
    print(f"essential kernel dimension {data['essential']['kernel_dimension']} "
          f"(refined: {data['essential_refined']['kernel_dimension']}), "
          f"weak-form kernel dimension {data['nitsche']['kernel_dimension']}")
    return EXIT_OK


def _cmd_harmonic(args) -> int:
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    data = run_harmonic(args.case, args.n, args.order)
    samples = data.pop("samples")
    _json_dump(data, outdir / "harmonic.json")
    lines = ["x,y,hx,hy"] + [",".join(repr(v) for v in row) for row in samples]
    (outdir / "harmonic.csv").write_text("\n".join(lines) + "\n")
    if data["dimension"] != data["betti_number"]:
        print("error: harmonic dimension does not equal the Betti number",
              file=sys.stderr)
        return EXIT_BETTI_MISMATCH
    print(f"harmonic dimension {data['dimension']} (Betti {data['betti_number']})")
    return EXIT_OK


def _cmd_probe(args) -> int:
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    data = run_probe(args.case, args.levels, args.order, base_n=args.base_n)
    _json_dump(data, outdir / "probe.json")
    last = data["levels"][-1]
    print(f"probe {args.case}: C_n={last['C_n']:.4f} C_par={last['C_par']:.4f} "
          f"recommended C_w={last['recommended_C_w']:.4f} "
          f"beta_h={last['beta_h']:.6f} beta/h={last['beta_over_h']:.4f}")
    return EXIT_OK


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="curlstokes",
        description="2D curl-curl Stokes solver with weakly imposed no-slip "
                    "boundary conditions")
    sub = parser.add_subparsers(dest="command", required=True)

    conv = sub.add_parser("convergence", help="run a refinement study")
    conv.add_argument("--case", choices=sorted(CASES), required=True)
    conv.add_argument("--order", type=int, choices=(1, 2), default=1)
    conv.add_argument("--levels", type=int, default=4)
    conv.add_argument("--cw", type=float, default=10.0)
    conv.add_argument("--base-n", type=int, default=None,
                      help="base subdivision (default: per-case)")
    conv.add_argument("--jitter", type=int, default=None, metavar="SEED",
                      help="perturb interior vertices with this seed")
    conv.add_argument("--out", required=True)
    conv.set_defaults(func=_cmd_convergence)

    ce = sub.add_parser("counterexample",
                        help="reproduce the strong-imposition ill-posedness")
    ce.add_argument("--out", required=True)
    ce.set_defaults(func=_cmd_counterexample)

    har = sub.add_parser("harmonic", help="extract discrete harmonic fields")
    har.add_argument("--case", choices=sorted(CASES), default="hole")
    har.add_argument("--n", type=int, default=None)
    har.add_argument("--order", type=int, choices=(1, 2), default=1)
    har.add_argument("--out", required=True)
    har.set_defaults(func=_cmd_harmonic)

    pr = sub.add_parser("probe", help="trace-constant and inf-sup probes")
    pr.add_argument("--case", choices=sorted(CASES), default="star")
    pr.add_argument("--levels", type=int, default=3)
    pr.add_argument("--order", type=int, choices=(1, 2), default=1)
    pr.add_argument("--base-n", type=int, default=None)
    pr.add_argument("--out", required=True)
    pr.set_defaults(func=_cmd_probe)
    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SizeGuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SIZE_GUARD
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_MEMORY
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
