"""Self-test of the trace: two traced runs on one seed must count the same work.

    python3 bench/selftest.py

For each workload, runs `run.py --trace 1` twice on the reference seed with
the shortest run length and compares every `calls` and `out_size_*` counter
of every traced function, and the job list digest. Exits 1 on any difference.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from checks import REFERENCE_SEED  # noqa: E402
from jobs import WORKLOADS  # noqa: E402

PREFIX = "per-layer, all functions (first traced round): "


def traced_counters(workload: str):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(REFERENCE_SEED),
         "--seconds", "1", "--trace", "1"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: run.py exited {proc.returncode}\n{proc.stdout}{proc.stderr}")
    lines = proc.stdout.splitlines()
    full = json.loads(next(line for line in lines if line.startswith(PREFIX))[len(PREFIX):])
    digest = next(line for line in lines if line.startswith("job list sha256: "))
    counters = {k: v for k, v in full.items() if k.endswith(".calls") or ".out_size_" in k}
    return digest, counters


def main() -> int:
    ok = True
    for workload in WORKLOADS:
        first, second = traced_counters(workload), traced_counters(workload)
        diffs = [k for k in sorted(set(first[1]) | set(second[1])) if first[1].get(k) != second[1].get(k)]
        same_jobs = first[0] == second[0]
        print(f"{workload}: {len(first[1])} counters, {len(diffs)} differ, "
              f"job lists {'match' if same_jobs else 'DIFFER'}")
        for k in diffs:
            print(f"  {k}: {first[1].get(k)} != {second[1].get(k)}")
        ok = ok and not diffs and same_jobs
    print("trace self-test " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
