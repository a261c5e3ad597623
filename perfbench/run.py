"""podrepo benchmark: one workload, closed loop, one client.

    python3 perfbench/run.py --workload medium-compare --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout and imports ``podrepo`` from its
``src/``.  The body of the workload repeats back to back, each repeat
starting after the previous one ends, until ``--seconds`` have passed (at
least twice).  With ``--trace 0`` the end-to-end metrics are measured; with
``--trace 1`` untraced and traced bodies alternate and the per-layer metrics
come from the traced ones.  Every import, set-up and body is metered for
CPU contention from outside the process (see contention.py), and the
end-to-end times are reported at a fixed reference CPU speed next to the
raw wall time.  Human-readable lines come first; the last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  A full record (host facts, every metric, every
op) goes to ``.perfbench/`` in the checkout, and the spans of a traced run
to a JSON-lines file beside it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

from contention import SpeedMeter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
WORKLOAD_NAMES = ("medium-compare", "small-search", "seasonal-study")
IMPORT_PROBES = 3
MIN_BODIES = 2

# times ``import podrepo`` in a fresh interpreter, metered like a body
IMPORT_PROBE = ("import json, sys; sys.path[:0] = sys.argv[1:]; "
                "from contention import SpeedMeter; meter = SpeedMeter()\n"
                "with meter:\n    import podrepo\n"
                "print(json.dumps(meter.blocks[0]))")


def import_blocks() -> list:
    """Metered blocks of ``IMPORT_PROBES`` imports, one fresh interpreter each."""
    blocks = []
    for _ in range(IMPORT_PROBES):
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC), str(HERE)],
                             check=True, capture_output=True, text=True, timeout=60)
        blocks.append(json.loads(out.stdout))
    return blocks


def host_facts() -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        commit = out.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "podrepo").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"git_commit": commit, "source_sha256": digest.hexdigest(),
            "cpu_model": cpu, "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def tail_percentile(samples: list[float]):
    """The highest percentile with at least ten samples above it, as
    (percentile, value), or None when there are fewer than eleven samples."""
    n = len(samples)
    if n < 11:
        return None
    k = n - 11
    return 100.0 * (k + 1) / n, sorted(samples)[k]


def run_ops(workload, inputs, seed: int, work: Path) -> dict:
    results = {}
    for name, thunk in workload.ops(inputs, seed, work):
        try:
            results[name] = thunk(results)
        except Exception as err:  # a failed op is counted, not fatal
            results[name] = err
    return results


def run_bodies(workload, inputs, seed: int, seconds: float, work: Path,
               tracer, meter: SpeedMeter) -> tuple[list, list]:
    """Repeat the body until ``seconds`` have passed, each one metered.
    With a tracer, untraced and traced bodies come in pairs that alternate
    which goes first; spans of body ``i`` carry run id ``i + 1``.  Returns
    whether each body was traced, and its checked results."""
    traced_flags, checked = [], []
    step = 2 if tracer else 1
    started = time.perf_counter()
    while len(checked) < MIN_BODIES * step or time.perf_counter() - started < seconds:
        for _ in range(step):
            body = len(checked)
            with_trace = tracer is not None and (body % 2 == 1) != (body // 2 % 2 == 1)
            with meter:
                if with_trace:
                    tracer.run = body + 1
                    with tracer:
                        results = run_ops(workload, inputs, seed, work)
                else:
                    results = run_ops(workload, inputs, seed, work)
            traced_flags.append(with_trace)
            checked.append(workload.check(inputs, results, seed, work))
            expected = {op.name for op in checked[-1].ops if op.expected_failure}
            for name, res in results.items():
                if isinstance(res, Exception) and name not in expected:
                    print(f"# op {name} raised:\n"
                          + "".join(traceback.format_exception(res)), file=sys.stderr)
    return traced_flags, checked


def run_workload(workload, seed: int, seconds: float, traced: bool) -> dict:
    from layers import EXACT_COUNTS, layer_metrics
    from spans import Tracer

    work = WORK / workload.name
    work.mkdir(parents=True, exist_ok=True)
    problems: list[str] = []
    tracer = Tracer() if traced else None
    meter = SpeedMeter()
    meter.blocks.extend(import_blocks())

    # a traced run traces one set-up; an untraced one repeats it untraced
    fingerprints = set()
    setups = 1 if traced else workload.setup_repeats
    for _ in range(setups):
        with meter:
            if traced:
                with tracer:
                    inputs, fingerprint = workload.setup(seed, work)
            else:
                inputs, fingerprint = workload.setup(seed, work)
        fingerprints.add(fingerprint)
    if len(fingerprints) > 1:
        problems.append("set-up produced different inputs on repeats")

    traced_flags, checked = run_bodies(workload, inputs, seed, seconds, work,
                                       tracer, meter)
    for attr in ("costs", "outputs"):
        if any(getattr(c, attr) != getattr(checked[0], attr) for c in checked):
            problems.append(f"deterministic {attr} differ between repeats"
                            + (" (traced and untraced)" if traced else ""))

    # blocks in order: imports, set-ups, bodies; raw and corrected times
    first_body = IMPORT_PROBES + setups
    raw = [end - start for start, end, _ in meter.blocks]
    fixed = meter.corrected()

    def split(times):
        bodies = times[first_body:]
        return (statistics.median(times[:IMPORT_PROBES])
                + statistics.median(times[IMPORT_PROBES:first_body]),
                {flag: [t for t, f in zip(bodies, traced_flags) if f == flag]
                 for flag in (False, True)})

    setup_raw, walls = split(raw)
    setup_s, busy = split(fixed)

    per_layer = None
    if traced:
        setup_spans = [s for s in tracer.spans if s.run == 0]
        per_body = [layer_metrics(setup_spans + [s for s in tracer.spans if s.run == run])
                    for run in sorted({s.run for s in tracer.spans} - {0})]
        per_layer = {k: statistics.median(m[k] for m in per_body) for k in per_body[0]}
        per_layer["trace.overhead_s"] = (statistics.median(busy[True])
                                         - statistics.median(busy[False]))
        for k in EXACT_COUNTS:
            if any(m[k] != per_body[0][k] for m in per_body):
                problems.append(f"count {k} differs between traced repeats")
        tracer.dump(WORK / f"{workload.name}-seed{seed}-spans.jsonl")

    ops = [op for c in checked for op in c.ops]
    unexpected = [op for op in ops if not op.ok and not op.expected_failure]
    known = [op for op in ops if op.expected_failure]
    costs = checked[0].costs
    record = {
        "workload": workload.name, "seed": seed, "trace": int(traced),
        "seconds": seconds, "host": host_facts(),
        "end_to_end": {
            "wall_s": statistics.median(walls[False]),
            "work_s": statistics.median(busy[False]),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "cost.sum": sum(costs.get(k, 0.0) for k in workload.cost_keys),
        },
        "wall_s_samples": walls[False],
        "wall_s_tail": tail_percentile(walls[False]),
        "work_s_samples": busy[False],
        "traced_wall_s_samples": walls[True],
        "traced_work_s_samples": busy[True],
        "setup_s_raw": setup_raw,
        "import_s_samples": raw[:IMPORT_PROBES],
        "setup_build_s_samples": raw[IMPORT_PROBES:first_body],
        "ops_failed_frac": (len(unexpected) + len(known)) / len(ops),
        "costs": costs,
        "outputs": checked[0].outputs,
        "ops": [vars(op) for op in ops if not op.ok or op.detail],
        "problems": problems,
        "per_layer": per_layer,
        "result": {"correct": not unexpected and not problems,
                   "attempted": len(ops) - len(known), "failed": len(unexpected)},
    }
    path = WORK / f"{workload.name}-seed{seed}-trace{int(traced)}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    record["path"] = str(path.relative_to(ROOT))
    return record


def report(record: dict) -> None:
    e2e = record["end_to_end"]
    walls = record["wall_s_samples"]
    print(f"== {record['workload']}  seed={record['seed']}  trace={record['trace']}")
    print("host  " + "  ".join(f"{k}={v}" for k, v in record["host"].items()))
    tail = record["wall_s_tail"]
    tail_text = (f"p{tail[0]:.0f} {tail[1]:.4f} s" if tail
                 else "no percentile has ten samples above it")
    print(f"wall_s          {e2e['wall_s']:.4f} s   median of {len(walls)} "
          f"untraced bodies, max {max(walls):.4f} s, {tail_text}")
    print(f"work_s          {e2e['work_s']:.4f} s   median of the same bodies at "
          f"reference CPU speed (see contention.py)")
    print(f"setup_s         {e2e['setup_s']:.4f} s")
    print(f"peak_rss_mb     {e2e['peak_rss_mb']:.1f} MB")
    res = record["result"]
    print(f"ops_failed_frac {record['ops_failed_frac']:.4f}   "
          f"({res['failed']} failed of {res['attempted']} ops, known failures "
          f"counted too)")
    for key, value in sorted(record["costs"].items()):
        print(f"{key:<22} {value:.6f}")
    print(f"cost.sum               {e2e['cost.sum']:.6f}")
    notes = Counter((op["ok"], op["expected_failure"], op["name"], op["detail"])
                    for op in record["ops"])
    for (ok, expected, name, detail), times in notes.items():
        tag = "NOTE" if ok else "KNOWN FAILURE" if expected else "FAILED"
        print(f"{tag}  {name} ({times}x): {detail}")
    for problem in record["problems"]:
        print(f"CHECK FAILED  {problem}")
    if record["per_layer"]:
        from layers import METRICS
        for key, value in record["per_layer"].items():
            print(f"{key:<36} {value:.6g} {METRICS[key][0]}")
    print(f"record  {record['path']}")


def result_line(record: dict, traced: bool, prefix: str = "") -> dict:
    from layers import METRICS
    if traced:
        units = {k: unit for k, (unit, _) in METRICS.items()}
        values = record["per_layer"]
    else:
        units = {"work_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "cost.sum": "cost"}
        values = record["end_to_end"]
    return {prefix + k: {"value": values[k], "unit": units[k]} for k in units}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "podrepo" / "__init__.py").is_file():
        print(f"error: no podrepo sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import podrepo
    if Path(podrepo.__file__).resolve().parent != SRC / "podrepo":
        print(f"error: imported podrepo from {podrepo.__file__}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    traced = bool(args.trace)
    records = []
    for name in names:
        records.append(run_workload(WORKLOADS[name], args.seed, args.seconds, traced))
        report(records[-1])
    metrics = {}
    for rec in records:
        prefix = rec["workload"] + "/" if len(records) > 1 else ""
        metrics.update(result_line(rec, traced, prefix))
    print(json.dumps({
        "correct": all(r["result"]["correct"] for r in records),
        "attempted": sum(r["result"]["attempted"] for r in records),
        "failed": sum(r["result"]["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
