"""Self-test: two traced runs report identical deterministic counts.

Runs ``run.py --trace 1`` twice per workload on one seed and asserts that
every count in ``run.DETERMINISTIC`` (matvecs, orthogonalizations,
preconditioner applies, iterations, faults injected, detections,
collectives, store appends, ...) is exactly equal across the two runs,
and that both runs are correct.  From the repository root::

    python3 perfbench/selftest.py            # all workloads, ~3 minutes
    python3 perfbench/selftest.py solve-large

Exits 0 when every check holds, 1 otherwise.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402


def traced_run(workload: str, seed: int) -> dict:
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=os.path.dirname(HERE), capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise SystemExit(f"{workload}: run.py exited {done.returncode}\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv) -> int:
    ok = True
    for workload in argv or workloads.WORKLOADS:
        first, second = traced_run(workload, 1), traced_run(workload, 1)
        for result in (first, second):
            if not result["correct"]:
                print(f"FAIL {workload}: run not correct ({result['failed']} failed)")
                ok = False
        for name in run.DETERMINISTIC:
            a = first["metrics"][name]["value"]
            b = second["metrics"][name]["value"]
            if a != b:
                print(f"FAIL {workload}: {name} {a} != {b}")
                ok = False
        print(f"{workload}: {len(run.DETERMINISTIC)} deterministic counts compared")
    print("selftest", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
