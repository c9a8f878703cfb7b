"""Run one benchmark workload in this fresh process and write a JSON result.

Usage (from run.py, with the checkout's ``src`` on PYTHONPATH):

    python3 bench/worker.py --variants JSON --seconds S --trace 0|1
        --out DIR --result FILE

``--variants`` is a JSON list of input variants, each a list of curlstokes
argument lists; each argument list is passed to ``curlstokes.cli.main`` with
``--out`` appended. Repetition ``i`` runs variant ``i`` modulo their number,
and repetitions continue until ``--seconds`` have passed, at least once.
With ``--trace 1`` untraced and traced repetitions alternate, in pairs, so
that the per-layer numbers and the tracing overhead come from the same
process.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import sys
import time
import traceback
from pathlib import Path

from tracer import Tracer, layer_metrics

ROOT = Path(__file__).resolve().parent.parent


def blas_threads() -> dict[str, int]:
    """Thread count of every OpenBLAS library this process has loaded."""
    threads = {}
    with open("/proc/self/maps") as maps:
        libs = {line.split()[-1] for line in maps if "openblas" in line.split()[-1]}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                threads[Path(path).name] = fn()
                break
    return threads


def read_outputs(argv: list[str], outdir: Path) -> dict:
    """The values the benchmark checks, read back from a command's output files."""
    if argv[0] == "convergence":
        raw = (outdir / "report.json").read_bytes()
        report = json.loads(raw)
        return {"report_sha256": hashlib.sha256(raw).hexdigest(),
                "errors": [level["errors"] for level in report["levels"]],
                "eoc": report["eoc"]}
    data = json.loads((outdir / "harmonic.json").read_text())
    return {key: data[key] for key in ("dimension", "betti_number", "curl_over_mass_ratio",
                                       "curl_norm_over_boundary_trace")}


def run_iteration(cli, commands: list[list[str]], outdir: Path) -> dict:
    records, wall = [], 0.0
    for k, argv in enumerate(commands):
        cmd_out = outdir / f"cmd{k}"
        record = {"argv": argv, "exit_code": None, "error": None, "outputs": None}
        start = time.perf_counter()
        try:
            record["exit_code"] = cli.main(argv + ["--out", str(cmd_out)])
        except Exception:   # a crashing command is a failed operation, not a crashed benchmark
            record["error"] = traceback.format_exc(limit=3)
        wall += time.perf_counter() - start
        if record["exit_code"] == 0:
            try:
                record["outputs"] = read_outputs(argv, cmd_out)
            except (OSError, KeyError, ValueError) as exc:
                record["error"] = f"unreadable output: {exc!r}"
        records.append(record)
    return {"wall_s": wall, "commands": records}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--variants", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args()
    variants = json.loads(args.variants)

    import numpy
    import scipy

    import curlstokes.cli as cli
    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"curlstokes imported from {cli.__file__}, not this checkout", file=sys.stderr)
        return 2

    iterations = []
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(iterations) % 2 == 1
        tracer = Tracer(run=len(iterations)) if traced else None
        if tracer:
            tracer.install()
        try:
            it = run_iteration(cli, variants[len(iterations) % len(variants)],
                               Path(args.out) / f"iter{len(iterations)}")
        finally:
            if tracer:
                tracer.uninstall()
        it["traced"] = traced
        if tracer:
            it["layers"] = layer_metrics(tracer, it["wall_s"])
        iterations.append(it)
        pairs_done = not args.trace or len(iterations) % 2 == 0
        if pairs_done and time.perf_counter() - start >= args.seconds:
            break

    env = {"nproc": os.cpu_count(), "blas_threads": blas_threads(),
           "CURLSTOKES_THREADS": os.environ.get("CURLSTOKES_THREADS"),
           "python": platform.python_version(), "numpy": numpy.__version__,
           "scipy": scipy.__version__}
    Path(args.result).write_text(json.dumps({"iterations": iterations, "env": env}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
