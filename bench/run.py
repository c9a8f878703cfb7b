"""Benchmark of the curlstokes command-line tool.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Each run

1. times ``SETUP_PROBES`` fresh interpreters from start until
   ``curlstokes.cli`` is imported (``setup_s``, the median);
2. runs the workload's curlstokes commands through ``curlstokes.cli.main``
   in one fresh worker process (``worker.py``), repeating them for
   ``--seconds`` (closed loop, one client, library defaults:
   ``CURLSTOKES_THREADS`` unset). ``--seed`` becomes ``--jitter`` of the
   jittered commands; untraced repetitions cycle through the jitter seeds
   ``seed, seed + 1, ...`` (``JITTER_SEEDS`` of them), so that one run's
   median and peak cover several meshes. Other commands ignore the seed;
3. checks every output: at the reference jitter seed, errors and EOCs of
   ``report.json`` and the ``harmonic.json`` values must match the committed
   references in ``bench/reference`` to 1e-10 relative; at every seed no level
   may be singular or have a non-finite error, the harmonic dimension must
   equal the Betti number, and ``report.json`` must be byte-identical across
   repetitions of the same command;
4. prints the metrics by name and unit, then, as the last line, one JSON
   object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

An operation is one convergence level or one harmonic command. With
``--trace 0`` the metrics are ``wall_s`` (median time to solution of the
workload's commands, after import), ``setup_s`` and ``peak_rss_mb`` (peak RSS
of the worker). With ``--trace 1`` the worker alternates untraced and traced
repetitions on the seed's own inputs and the metrics are the per-layer
numbers of ``tracer.py``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import EXACT_COUNTS, layer_unit

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
REFERENCE_SEED = 7
REL_TOL = 1e-10
SETUP_PROBES = 5
JITTER_SEEDS = 3
WORKER_TIMEOUT_S = 160

# name -> commands for a seed; the purpose of each is recorded in BENCHMARK.json.
# star2 stops at 3 levels and harmonic at n = 18 so that a run holds several
# repetitions: at 4 levels and n = 24 one repetition takes 33-35 s on a 2-core
# box, and single repetitions spread by more than 10% from run to run there.
WORKLOADS = {
    "star1-jitter": lambda seed: [
        ["convergence", "--case", "star", "--order", "1", "--levels", "4",
         "--jitter", str(seed)]],
    "star2": lambda seed: [
        ["convergence", "--case", "star", "--order", "2", "--levels", "3"]],
    "hole-harmonic": lambda seed: [
        ["convergence", "--case", "hole", "--order", "1", "--levels", "4",
         "--jitter", str(seed)],
        ["harmonic", "--case", "hole", "--n", "18"]],
}
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("CURLSTOKES_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    return env


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def setup_times(env: dict[str, str]) -> list[float]:
    """Seconds from starting an interpreter until curlstokes.cli is imported."""
    times = []
    for _ in range(SETUP_PROBES + 1):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", "import time, curlstokes.cli; print(time.perf_counter())"],
            env=env, capture_output=True, text=True, check=True, timeout=60)
        times.append(float(proc.stdout) - start)
    return times[1:]   # the first probe also fills the bytecode cache


def input_variants(workload: str, seed: int, trace: bool) -> list[list[list[str]]]:
    """The distinct command lists a run cycles through."""
    variants = []
    for jitter in range(seed, seed + (1 if trace else JITTER_SEEDS)):
        commands = WORKLOADS[workload](jitter)
        if commands not in variants:
            variants.append(commands)
    return variants


def run_worker(variants: list[list[list[str]]], seconds: float, trace: bool,
               env: dict[str, str], workdir: Path) -> tuple[dict | None, float, str]:
    """Run worker.py; return its result (None if it aborted), its wall time
    and its standard error."""
    result_file = workdir / "result.json"
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), "--variants", json.dumps(variants),
             "--seconds", str(seconds), "--trace", str(int(trace)),
             "--out", str(workdir / "out"), "--result", str(result_file)],
            env=env, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
        stderr, ok = proc.stderr, proc.returncode == 0
    except subprocess.TimeoutExpired:
        stderr, ok = f"worker killed after {WORKER_TIMEOUT_S} s", False
    elapsed = time.perf_counter() - start
    if ok and result_file.is_file():
        return json.loads(result_file.read_text()), elapsed, stderr
    return None, elapsed, stderr


def operations(argv: list[str]) -> int:
    return int(argv[argv.index("--levels") + 1]) if argv[0] == "convergence" else 1


def _close(a, b) -> bool:
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=0.0)
    return a == b


def check_command(record: dict, ref: dict | None, first_sha: str | None) -> tuple[int, set, list]:
    """Operations of one command, the failed ones, and why they failed."""
    ops = operations(record["argv"])
    everything = set(range(ops))
    if record["exit_code"] != 0 or record["error"]:
        return ops, everything, [f"exit code {record['exit_code']}, {record['error'] or 'no error'}"]
    out = record["outputs"]
    if record["argv"][0] == "harmonic":
        problems = []
        if out["dimension"] != out["betti_number"]:
            problems.append("harmonic dimension differs from the Betti number")
        if ref is not None:
            problems += [f"{key} {out[key]!r} != reference {ref[key]!r}"
                         for key in ref if not _close(out[key], ref[key])]
        return ops, everything if problems else set(), problems

    if first_sha is not None and out["report_sha256"] != first_sha:
        return ops, everything, ["report.json differs between repetitions"]
    failed, problems = set(range(len(out["errors"]), ops)), []
    for k, errors in enumerate(out["errors"]):
        for name, value in errors.items():
            if not math.isfinite(value):
                failed.add(k)
                problems.append(f"level {k}: {name} = {value}")
            elif ref is not None and not _close(value, ref["errors"][k][name]):
                failed.add(k)
                problems.append(f"level {k}: {name} {value!r} != reference "
                                f"{ref['errors'][k][name]!r}")
    for name, values in (out["eoc"].items() if ref is not None else ()):
        for j, value in enumerate(values):
            if not _close(value, ref["eoc"][name][j]):
                failed.add(j + 1)
                problems.append(f"level {j + 1}: eoc {name} {value!r} != reference "
                                f"{ref['eoc'][name][j]!r}")
    return ops, failed, problems


def load_reference(workload: str) -> dict:
    return json.loads((BENCH / "reference" / f"{workload}.json").read_text())


def check_outputs(result: dict, workload: str) -> tuple[int, int, list[str]]:
    """Attempted and failed operations over all repetitions, and the problems.
    A command is compared with the reference taken with the same arguments."""
    reference = load_reference(workload)
    refs = {tuple(argv): out for argv, out in zip(reference["argv"], reference["commands"])}
    attempted, failed, problems, first_sha = 0, 0, [], {}
    for it in result["iterations"]:
        for record in it["commands"]:
            argv = tuple(record["argv"])
            sha = (record["outputs"] or {}).get("report_sha256")
            ops, bad, why = check_command(record, refs.get(argv), first_sha.get(argv))
            first_sha.setdefault(argv, sha)
            attempted += ops
            failed += len(bad)
            problems += [f"{' '.join(argv)}: {w}" for w in why]
    return attempted, failed, problems


def layer_summary(result: dict) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics: medians over the traced repetitions, with the
    tracing overhead taken against the untraced ones."""
    traced = [it for it in result["iterations"] if it["traced"]]
    plain = [it["wall_s"] for it in result["iterations"] if not it["traced"]]
    problems = [f"{name} changed between traced repetitions"
                for name in EXACT_COUNTS if len({it["layers"][name] for it in traced}) > 1]
    metrics = {name: statistics.median(it["layers"][name] for it in traced)
               for name in traced[0]["layers"]}
    metrics["trace.overhead_s"] = (statistics.median(it["wall_s"] for it in traced)
                                   - statistics.median(plain))
    return metrics, problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "curlstokes" / "cli.py").is_file():
        print(f"error: no curlstokes sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    variants = input_variants(args.workload, args.seed, bool(args.trace))
    env = child_env()
    workdir = BENCH / ".work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        setup = setup_times(env)
        result, elapsed, stderr = run_worker(variants, args.seconds, bool(args.trace),
                                             env, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024

    for commands in variants:
        print(f"workload {args.workload}: "
              + "; ".join("curlstokes " + " ".join(argv) for argv in commands))
    jittered = any("--jitter" in argv for argv in variants[0])
    print(f"seed {args.seed}: " + ("passed as --jitter" if jittered
                                   else "unused, the workload is not jittered"))
    if result is None:
        print(f"error: the worker aborted after {elapsed:.1f} s\n{stderr[-2000:]}",
              file=sys.stderr)
        attempted = sum(operations(argv) for argv in variants[0])
        failed, problems, metrics, env_record = attempted, ["worker aborted"], {}, {}
        if not args.trace:
            metrics = {"wall_s": elapsed, "setup_s": statistics.median(setup),
                       "peak_rss_mb": peak_rss_mb}
    else:
        attempted, failed, problems = check_outputs(result, args.workload)
        env_record = result["env"]
        if args.trace:
            metrics, count_problems = layer_summary(result)
            problems += count_problems
        else:
            metrics = {"wall_s": statistics.median(it["wall_s"] for it in result["iterations"]),
                       "setup_s": statistics.median(setup), "peak_rss_mb": peak_rss_mb}
    env_record.update(commit=git_commit(), seed=args.seed, seed_used=jittered,
                      repetition_wall_s=[it["wall_s"] for it in result["iterations"]]
                      if result else [])
    print("environment " + json.dumps(env_record, sort_keys=True))
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)

    named = {}
    for name, value in metrics.items():
        unit = END_TO_END_UNITS.get(name) or layer_unit(name)
        named[name] = {"value": value, "unit": unit}
        print(f"{name} = {value:.6g} {unit}")
    print(f"failed_frac = {failed / attempted:.6g} ({failed} of {attempted} operations)")
    print(json.dumps({"correct": failed == 0 and not problems, "attempted": attempted,
                      "failed": failed, "metrics": named}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
