"""Run the benchmark once per seed and report each metric's spread.

    python3 perfbench/spread.py --workload small-search --seeds 1-10 --seconds 20

For every metric of the result line, and for the raw ``wall_s`` from each
run's record, it prints the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``) and the distance between them as a
share of the median, and it writes every run's result line to
``.perfbench/spread-<workload>[-<label>].json``.  Runs are sequential, one
process at a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        first, last = (int(x) for x in text.split("-"))
        return list(range(first, last + 1))
    return [int(x) for x in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--label", default="", help="suffix of the output file")
    args = parser.parse_args()

    runs = []
    for seed in args.seeds:
        started = time.perf_counter()
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, check=True, capture_output=True, text=True, timeout=900)
        line = json.loads(out.stdout.strip().splitlines()[-1])
        line["seed"] = seed
        line["run_s"] = time.perf_counter() - started
        record = ROOT / ".perfbench" / f"{args.workload}-seed{seed}-trace{args.trace}.json"
        line["wall_s"] = json.loads(record.read_text())["end_to_end"]["wall_s"]
        runs.append(line)
        print(f"seed {seed}: correct={line['correct']} attempted={line['attempted']} "
              f"failed={line['failed']} run_s={line['run_s']:.1f}", flush=True)

    print(f"{'metric':<36} {'median':>14} {'q1':>14} {'q3':>14} {'iqr/median':>10}")
    for name in [*runs[0]["metrics"], "wall_s"]:
        values = [r["wall_s"] if name == "wall_s" else r["metrics"][name]["value"]
                  for r in runs]
        med = statistics.median(values)
        q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                     else (values[0],) * 3)
        share = (q3 - q1) / med if med else float("nan")
        print(f"{name:<36} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} {share:>10.4f}")
    suffix = f"-{args.label}" if args.label else ""
    path = ROOT / ".perfbench" / f"spread-{args.workload}{suffix}.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(runs, indent=1) + "\n")
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
