"""Self-check of the benchmark's traced pass.

    python3 bench/selfcheck.py [WORKLOAD ...]     (default: star1-jitter)

For each workload, runs the traced pass twice at the reference seed and
fails unless every exact count (``tracer.EXACT_COUNTS``) repeats exactly,
the outputs pass their checks, at least 90% of the traced time falls in
named layer spans other than ``cli``, and the metrics printed are exactly
the ``per_layer`` metrics of ``BENCHMARK.json``, with their units.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

from run import BENCH, REFERENCE_SEED, ROOT, WORKLOADS, check_outputs, child_env, run_worker
from tracer import EXACT_COUNTS, layer_unit

MIN_ATTRIBUTED = 0.9


def traced_pass(name: str) -> dict[str, float]:
    workdir = BENCH / ".work" / f"selfcheck-{name}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        result, _, stderr = run_worker([WORKLOADS[name](REFERENCE_SEED)], 0, True,
                                       child_env(), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if result is None:
        raise SystemExit(f"{name}: the worker aborted\n{stderr}")
    _, failed, problems = check_outputs(result, name)
    if failed or problems:
        raise SystemExit(f"{name}: {failed} failed operations: {problems}")
    return next(it["layers"] for it in result["iterations"] if it["traced"])


def main(names: list[str]) -> int:
    declared = {m["name"]: m["unit"] for m in
                json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    errors = []
    for name in names or ["star1-jitter"]:
        first, second = traced_pass(name), traced_pass(name)
        errors += [f"{name}: {count} {first[count]} then {second[count]}"
                   for count in EXACT_COUNTS if first[count] != second[count]]
        errors += [f"{name}: attributed_frac {run['trace.attributed_frac']:.3f}"
                   for run in (first, second) if run["trace.attributed_frac"] < MIN_ATTRIBUTED]
        # run.py adds trace.overhead_s, which needs the untraced repetitions
        printed = {m: layer_unit(m) for m in [*first, "trace.overhead_s"]}
        if printed != declared:
            errors.append(f"{name}: metrics {printed} differ from BENCHMARK.json {declared}")
        print(f"{name}: " + " ".join(f"{c}={first[c]}" for c in EXACT_COUNTS))
    for error in errors:
        print(f"error: {error}", file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
