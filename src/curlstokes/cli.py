"""Command-line interface: convergence studies, the ill-posedness
counterexample, harmonic-field extraction, and stability probes.

Each command runs its driver in ``experiments`` and returns the files it
writes (name -> text, read off the driver's document), its summary line and
its exit code; ``main`` alone checks ``--out``, before any driver runs, and
writes. Outputs are deterministic: identical configuration (and jitter seed)
yields byte-identical CSV and JSON files; past CI's sizes, the BLAS thread
count moves the last bits of the larger probes (README). Exit codes: 0
success, 2 configuration error or unusable ``--out``, 3 solver singularity
(outside the counterexample command), 5 out of memory, 6 harmonic dimension
differs from the Betti number. Code 4 is unused.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .analysis import NORMS
from .cases import CASES
from .experiments import (SingularLevelError, run_convergence, run_counterexample,
                          run_harmonic, run_probe)
from .forms import DEFAULT_C_W
from .svgplot import loglog_chart

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SINGULAR = 3
EXIT_MEMORY = 5
EXIT_BETTI_MISMATCH = 6

CSV_COLUMNS = ["level", "h", "dofs_u", "dofs_p", *NORMS]
EOC_COLUMNS = [norm.replace("err_", "eoc_", 1) for norm in NORMS]


def _json_text(data) -> str:
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def _errors_csv(report: dict) -> str:
    eoc = report["eoc"]
    lines = [",".join(CSV_COLUMNS + EOC_COLUMNS)]
    for k, level in enumerate(report["levels"]):
        row = [str(k), repr(level["h"]), str(level["dofs_u"]), str(level["dofs_p"])]
        row += [repr(level["errors"][norm]) for norm in NORMS]
        row += ["" if k == 0 else repr(eoc[norm][k - 1]) for norm in NORMS]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def _svgs(report: dict) -> dict[str, str]:
    levels = report["levels"]
    hs = [level["h"] for level in levels]
    r = report["config"]["order"]
    groups = {
        "convergence_velocity.svg": ("velocity errors", "err_u_", (float(r), r - 0.5)),
        "convergence_boundary.svg": ("boundary trace errors", "err_g", (float(r),)),
        "convergence_pressure.svg": ("pressure errors", "err_p_", (r - 0.5,)),
    }
    return {fname: loglog_chart(f"{report['config']['case']} order {r}: {title}", hs,
                                {norm: [level["errors"][norm] for level in levels]
                                 for norm in NORMS if norm.startswith(prefix)}, slopes)
            for fname, (title, prefix, slopes) in groups.items()}


def _cmd_convergence(args):
    report = run_convergence(args.case, args.order, args.levels, C_w=args.cw,
                             base_n=args.base_n, jitter_seed=args.jitter)
    final = " ".join(f"{k}={v[-1]:.3f}" for k, v in report["eoc"].items())
    files = {"errors.csv": _errors_csv(report), "report.json": _json_text(report),
             **_svgs(report)}
    return files, f"convergence {args.case} order {args.order}: final EOC {final}", EXIT_OK


def _cmd_counterexample(args):
    data = run_counterexample()
    summary = (f"essential kernel dimension {data['essential']['kernel_dimension']} "
               f"(refined: {data['essential_refined']['kernel_dimension']}), "
               f"weak-form kernel dimension {data['nitsche']['kernel_dimension']}")
    return {"counterexample.json": _json_text(data)}, summary, EXIT_OK


def _cmd_harmonic(args):
    data = run_harmonic(args.case, args.n, args.order)
    lines = ["x,y,hx,hy"] + [",".join(repr(v) for v in row) for row in data.pop("samples")]
    files = {"harmonic.json": _json_text(data), "harmonic.csv": "\n".join(lines) + "\n"}
    if data["dimension"] != data["betti_number"]:
        return files, "harmonic dimension does not equal the Betti number", EXIT_BETTI_MISMATCH
    return files, f"harmonic dimension {data['dimension']} (Betti {data['betti_number']})", EXIT_OK


def _cmd_probe(args):
    data = run_probe(args.case, args.levels, args.order)
    last = data["levels"][-1]
    summary = (f"probe {args.case}: C_n={last['C_n']:.4f} C_par={last['C_par']:.4f} "
               f"recommended C_w={last['recommended_C_w']:.4f} "
               f"beta_h={last['beta_h']:.6f} beta/h={last['beta_over_h']:.4f}")
    return {"probe.json": _json_text(data)}, summary, EXIT_OK


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
    conv.add_argument("--cw", type=float, default=DEFAULT_C_W)
    conv.add_argument("--base-n", type=int, default=None,
                      help="base subdivision (default: per-case)")
    conv.add_argument("--jitter", type=int, default=None, metavar="SEED",
                      help="perturb interior vertices with this seed")
    conv.set_defaults(func=_cmd_convergence)

    ce = sub.add_parser("counterexample",
                        help="reproduce the strong-imposition ill-posedness")
    ce.set_defaults(func=_cmd_counterexample)

    har = sub.add_parser("harmonic", help="extract discrete harmonic fields")
    har.add_argument("--case", choices=sorted(CASES), default="hole")
    har.add_argument("--n", type=int, default=None)
    har.add_argument("--order", type=int, choices=(1, 2), default=1)
    har.set_defaults(func=_cmd_harmonic)

    pr = sub.add_parser("probe", help="trace-constant and inf-sup probes")
    pr.add_argument("--case", choices=sorted(CASES), default="star")
    pr.add_argument("--levels", type=int, default=3)
    pr.add_argument("--order", type=int, choices=(1, 2), default=1)
    pr.set_defaults(func=_cmd_probe)
    for command in (conv, ce, har, pr):
        command.add_argument("--out", required=True)
    return parser


def _finish(message: str, code: int) -> int:
    """Print a command's one line, as ``error: ...`` on stderr unless it succeeded."""
    print(message if code == EXIT_OK else f"error: {message}",
          file=sys.stdout if code == EXIT_OK else sys.stderr)
    return code


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    if not args.out:    # Path("") is the current directory
        return _finish("--out is empty", EXIT_CONFIG)
    outdir = Path(args.out)
    existing = next((p for p in (outdir, *outdir.parents) if os.path.exists(p)), Path("."))
    if not os.path.isdir(existing):
        return _finish(f"--out {outdir}: {existing} is not a directory", EXIT_CONFIG)
    try:
        files, summary, code = args.func(args)
    except SingularLevelError as exc:
        return _finish(str(exc), EXIT_SINGULAR)
    except MemoryError as exc:
        return _finish(f"out of memory: {exc}", EXIT_MEMORY)
    except ValueError as exc:
        return _finish(str(exc), EXIT_CONFIG)
    path = outdir
    try:
        outdir.mkdir(parents=True, exist_ok=True)
        for name, text in files.items():
            path = outdir / name
            path.write_text(text)
    except OSError as exc:
        return _finish(f"cannot write {path}: {exc.strerror or exc}", EXIT_CONFIG)
    return _finish(summary, code)


if __name__ == "__main__":
    sys.exit(main())
