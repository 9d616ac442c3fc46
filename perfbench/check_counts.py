"""Check that the traced run's counters repeat exactly.

    python3 perfbench/check_counts.py --workload probe --seed 1 --seconds 9

Runs the traced benchmark twice at ``--seed`` and once at ``--seed + 1``.
The two runs at one seed must report identical counts (every per-layer
metric except self times and the tracing overhead), and every run must
come back correct.  Counts that pass this check may be cited as counts.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def traced_run(workload, seed, seconds):
    cmd = [
        sys.executable,
        os.path.join(HERE, "run.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", "1",
    ]
    proc = subprocess.run(cmd, cwd=os.path.dirname(HERE), capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def counts(result):
    return {
        name: m["value"]
        for name, m in result["metrics"].items()
        if m["unit"] == "count" or name.endswith("_ratio")
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=9)
    args = parser.parse_args()
    first = traced_run(args.workload, args.seed, args.seconds)
    second = traced_run(args.workload, args.seed, args.seconds)
    other = traced_run(args.workload, args.seed + 1, args.seconds)
    ok = True
    for label, result in (("first", first), ("second", second), ("next seed", other)):
        if not result["correct"]:
            print(f"{label} run at {args.workload} is not correct")
            ok = False
    a, b = counts(first), counts(second)
    for name in sorted(set(a) | set(b)):
        if a.get(name) != b.get(name):
            print(f"{name}: {a.get(name)} then {b.get(name)}")
            ok = False
    print(f"{args.workload} seed {args.seed}: {len(a)} counters "
          + ("repeat exactly" if ok else "DO NOT repeat"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
