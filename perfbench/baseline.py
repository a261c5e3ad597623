"""Write baseline.json from two sets of seed runs and the traced runs.

    python3 perfbench/spread.py --workload <w> --seeds 1-10 --label A   # each workload
    python3 perfbench/spread.py --workload <w> --seeds 1-10 --label B   # each workload
    python3 perfbench/run.py --workload <w> --seed <1|2> --trace 1      # each workload
    python3 perfbench/baseline.py

Reads ``.perfbench/spread-<workload>-{A,B}.json``, the seed-1 untraced
record and the seed-1 and seed-2 traced records, and writes
``perfbench/baseline.json``.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

from layers import EXACT_COUNTS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
HOW = ("python3 perfbench/spread.py --workload <w> --seeds 1-10 --seconds 20 "
       "--label A, then again with --label B; seed-1 and seed-2 traced runs "
       "with --trace 1; python3 perfbench/baseline.py")


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "iqr_share": (q3 - q1) / median}


def load(path: Path):
    return json.loads(path.read_text())


def main() -> None:
    bench = load(ROOT / "BENCHMARK.json")
    names = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: (m["unit"], m["bound"]) for m in bench["end_to_end"]}
    bounds["wall_s"] = ("s", None)
    out = {"how": HOW, "workloads": {}}
    for name in names:
        sets = {label: load(WORK / f"spread-{name}-{label}.json") for label in "AB"}
        e2e = {}
        for metric, (unit, bound) in bounds.items():
            entry = {"unit": unit, "bound": bound}
            if metric == "wall_s":
                entry["note"] = "raw host wall time; record and human output only"
            for label, runs in sets.items():
                entry[f"set{label}"] = summary(
                    [r[metric] if metric == "wall_s" else r["metrics"][metric]["value"]
                     for r in runs])
            entry["median_change_b_vs_a"] = (entry["setB"]["median"]
                                             / entry["setA"]["median"] - 1)
            e2e[metric] = entry
        e2e["run_s"] = {"unit": "s", "note": "wall time of one whole run, set-up included",
                        **{f"set{label}": summary([r["run_s"] for r in runs])
                           for label, runs in sets.items()}}
        seed1 = load(WORK / f"{name}-seed1-trace0.json")
        workload = {"end_to_end": e2e, "seed1": {
            "costs": seed1["costs"],
            "ops_failed_frac": seed1["ops_failed_frac"],
            "wall_s_samples": seed1["wall_s_samples"],
            "work_s_samples": seed1["work_s_samples"],
            "import_s_samples": seed1["import_s_samples"],
            "setup_build_s_samples": seed1["setup_build_s_samples"],
            "setup_s_raw": seed1["setup_s_raw"],
            "outputs": seed1["outputs"],
            "known_failures": sorted({op["name"] for op in seed1["ops"]
                                      if op["expected_failure"]}),
        }}
        for seed in (1, 2):
            traced = load(WORK / f"{name}-seed{seed}-trace1.json")
            workload[f"traced_seed{seed}"] = {
                "correct": traced["result"]["correct"],
                "counts": {k: traced["per_layer"][k] for k in EXACT_COUNTS},
                "per_layer": traced["per_layer"],
            }
        out["workloads"][name] = workload
        out["host"] = seed1["host"]
    (HERE / "baseline.json").write_text(json.dumps(out, indent=1) + "\n")


if __name__ == "__main__":
    main()
