r"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workload two-layer-60 [--first-seed 1]

Runs the benchmark ``RUNS`` times for the ``run_seconds`` of
``BENCHMARK.json``, each with another seed and in its own process, and prints
per metric the median, the quartiles and the spread (distance between first
and third quartile as a share of the median), next to the bound in
``BENCHMARK.json``.  A benchmark is steady when every spread
except that of ``setup_s`` is below a third of its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = 10


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    values: dict = {}
    for seed in range(args.first_seed, args.first_seed + RUNS):
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            capture_output=True, text=True, cwd=ROOT, check=True)
        result = json.loads(proc.stdout.splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: incorrect result", file=sys.stderr)
            return 1
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + " ".join(
            f"{k}={m['value']:.4g}" for k, m in result["metrics"].items()),
            flush=True)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    print(f"{'metric':<18} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound/3':>8}")
    for name, vals in values.items():
        q1, q2, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / q2
        flag = "" if spread < bounds[name] / 3 else "  <-- wide"
        print(f"{name:<18} {q2:>12.5g} {q1:>12.5g} {q3:>12.5g} "
              f"{spread:>8.4f} {bounds[name] / 3:>8.4f}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
