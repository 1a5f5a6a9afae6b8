"""protoverify benchmark: generate a seed-pinned workload, run the CLI on
it in a closed loop, check every verdict, print the metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload deep-path --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer metrics from a separate traced run; ``--workload all`` runs
every workload both ways and prints every metric. Each metric is printed
by name with its unit; the last stdout line is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

``correct`` is false when a call could not be checked because its
engine-independent reference is unknown. A call whose output is wrong
(wrong, missing or extra verdict, wrong exit code, ``oracleAgrees``
false), that raises, or that exceeds the per-call limit is a failed call:
it is counted in ``failed`` and never stops the run.

Layout: ``workloads.py`` writes the inputs and references,
``setup_probe.py`` times one set-up in a fresh interpreter, and
``client.py`` is the measured process.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "_work")

SETUP_PROBES = 7
PROBE_TIMEOUT_S = 60
CHILD_TIMEOUT_S = 150


def measure_setup(plan) -> tuple[float, float, float, float]:
    """Median over fresh interpreters of import + load time in
    reference-host seconds, with the median import and load parts and the
    median raw wall time."""
    import calibration

    args = [p for inst in plan.instances for p in (inst.server, inst.protocol, inst.db)]
    totals, imports, loads, walls = [], [], [], []
    after = calibration.calibration_ms()
    for _ in range(SETUP_PROBES):
        before = after
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "setup_probe.py"), *args],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
        )
        after = calibration.calibration_ms()
        factor = calibration.scale(before, after)
        imp, load = (float(x) for x in out.stdout.split())
        totals.append((imp + load) * factor)
        imports.append(imp * factor)
        loads.append(load * factor)
        walls.append(imp + load)
    return (statistics.median(totals), statistics.median(imports),
            statistics.median(loads), statistics.median(walls))


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    import workloads

    work = os.path.join(WORK, workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    t0 = time.perf_counter()
    plan = workloads.generate(workload, seed, work)
    generated_s = time.perf_counter() - t0
    plan_path = os.path.join(work, "plan.json")
    with open(plan_path, "w", encoding="utf-8") as fh:
        json.dump(plan.to_json(), fh)

    notes = [f"{len(plan.calls)} distinct calls over {len(plan.instances)} "
             f"input sets, generated in {generated_s:.2f} s"]
    setup = None
    if trace == 0:
        setup = measure_setup(plan)
    child = subprocess.run(
        [sys.executable, os.path.join(HERE, "client.py"), plan_path,
         "--seconds", str(seconds), "--trace", str(trace),
         "--spans", os.path.join(work, "spans.json")],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT,
    )
    if child.returncode != 0:
        raise RuntimeError(f"measuring process failed:\n{child.stderr}")
    result = json.loads(child.stdout.strip().splitlines()[-1])
    metrics = result["metrics"]
    if setup is not None:
        metrics = {"setup_s": {"value": setup[0], "unit": "s"}, **metrics}
        notes.append(f"setup_s: median of {SETUP_PROBES} fresh interpreters "
                     f"(import {setup[1]:.4f} s, load {setup[2]:.4f} s; "
                     f"wall {setup[3]:.4f} s)")
        extra = result["extra"]
        notes.append(f"call_ms_tail: p{extra['tail_percentile']} of "
                     f"{extra['samples']} samples")
        notes.append(f"wall time before host-speed scaling: p50 "
                     f"{extra['wall_ms_p50']:.3f} ms, tail {extra['wall_ms_tail']:.3f} ms")
    else:
        extra = result["extra"]
        notes.append(f"{extra['untraced_calls']} untraced and "
                     f"{extra['traced_calls']} traced calls; spans in {work}/spans.json")
    known = extra["known_defects"]
    if known["attempted"]:
        notes.append(f"known defects: {known['failed']} of {known['attempted']} untimed "
                     f"calls failed, error_rate {known['failed'] / known['attempted']:.4f} "
                     f"{known['failures'] or ''}")
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "correct": plan.unknown_references == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "failures": result["failures"],
        "metrics": metrics,
        "notes": notes,
    }


def print_summary(r: dict):
    rate = r["failed"] / r["attempted"]
    print(f"# {r['workload']} seed={r['seed']} trace={r['trace']}: "
          f"{r['attempted']} calls, {r['failed']} failed, error_rate {rate:.4f} "
          f"{r['failures'] or ''}")
    for note in r["notes"]:
        print(f"#   {note}")
    for name, m in r["metrics"].items():
        print(f"#   {name:30s} {m['value']:14.6f} {m['unit']}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="protoverify benchmark")
    ap.add_argument("--workload", required=True,
                    choices=("deep-path", "long-protocol", "step-replay",
                             "oracle-crosscheck", "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(SRC, "protoverify", "cli.py")):
        print(f"error: no protoverify sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)

    if args.workload != "all":
        r = run_workload(args.workload, args.seed, args.seconds, args.trace)
        print_summary(r)
        print(json.dumps({k: r[k] for k in ("correct", "attempted", "failed", "metrics")}))
        return 0

    import workloads

    results = []
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            r = run_workload(workload, args.seed, args.seconds, trace)
            print_summary(r)
            results.append(r)
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {f"{r['workload']}/{name}": m
                    for r in results for name, m in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
