"""Write the reference outputs that run.py compares against.

    python3 bench/make_reference.py [WORKLOAD ...]

Runs each workload once at the reference seed and stores, per command, the
``report.json`` errors and EOCs or the checked ``harmonic.json`` values in
``bench/reference/<workload>.json``. Only regenerate them for a version whose
outputs are meant to change.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

from run import BENCH, REFERENCE_SEED, WORKLOADS, child_env, run_worker


def main(names: list[str]) -> int:
    for name in names or sorted(WORKLOADS):
        workdir = BENCH / ".work" / f"reference-{name}-{os.getpid()}"
        workdir.mkdir(parents=True)
        try:
            result, _, stderr = run_worker([WORKLOADS[name](REFERENCE_SEED)], 0, False,
                                           child_env(), workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        records = result["iterations"][0]["commands"] if result else []
        if not records or any(r["exit_code"] != 0 or r["error"] for r in records):
            print(f"error: {name} did not run cleanly\n{stderr}", file=sys.stderr)
            return 1
        commands = [{k: v for k, v in r["outputs"].items() if k != "report_sha256"}
                    for r in records]
        path = BENCH / "reference" / f"{name}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps({"seed": REFERENCE_SEED, "argv": [r["argv"] for r in records],
                                    "commands": commands}, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
