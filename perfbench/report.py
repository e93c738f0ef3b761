"""Run every workload and print each metric with its unit and op count.

    python3 perfbench/report.py [--seed N] [--seconds S] [--trace]

Each workload runs in its own `run.py` process, so peak RSS is per
workload; the output checks run inside it.  The summary each run writes to
stderr is printed: op count, failed ratio, every declared metric and the
wall-clock figures.  With --trace, a traced run of
each workload follows and its per-layer metrics are printed too.  Exits
non-zero when a run fails or reports an incorrect output.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("classify-miss", "iso-pairs", "draw")


def run(workload: str, seed: int, seconds: float, trace: int):
    """The run's result object, or None after printing why it failed."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        print(f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stderr}")
        return None
    print(proc.stderr, end="")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1) if args.trace else (0,):
            result = run(workload, args.seed, args.seconds, trace)
            if result is None:
                ok = False
                continue
            ok &= result["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
