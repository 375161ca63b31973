"""Record the sha256 digests of every workload's outputs at the default seed.

    python3 perfbench/record_golden.py

Writes perfbench/golden.json.  Outputs of invocations the workload seed
does not reach are recorded under "*" and checked at every seed; the rest
under the default seed.  Re-record only when a change to the program's
outputs is intended and stated.
"""

from __future__ import annotations

import json
import shutil
import sys
import time

import run
import workloads


def main() -> int:
    work = run.ROOT / ".perfbench"
    work.mkdir(exist_ok=True)
    golden: dict = {}
    for name, build in workloads.BUILDERS.items():
        wl = build(workloads.DEFAULT_SEED)
        bench = run.Run(wl, 0, work)
        shutil.rmtree(bench.out_root, ignore_errors=True)
        wl.write_configs(bench.out_root)
        report = run.run_child(bench.job(True), work, time.monotonic() + run.HARD_LIMIT_S)
        failed, problems, _ = run.score(wl, report, bench.out_root)
        if failed:
            print(f"{name}: outputs fail their checks: {problems}", file=sys.stderr)
            return 1
        for inv in wl.invocations:
            key = str(wl.seed) if inv.seeded else "*"
            for f in inv.files:
                digest = workloads.sha256(bench.out_root / inv.name / f)
                golden.setdefault(name, {}).setdefault(key, {})[f"{inv.name}/{f}"] = digest
        shutil.rmtree(bench.out_root, ignore_errors=True)
    workloads.GOLDEN_PATH.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    print(f"wrote {workloads.GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
