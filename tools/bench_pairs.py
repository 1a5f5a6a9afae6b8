"""Paired benchmark runs of two checkouts, summarised per metric.

Usage, from the repository root::

    python3 tools/bench_pairs.py --base ../parent --change . \\
        --workload long-protocol --seeds 301-310 --seconds 20

For each seed of the range, ``perfbench/run.py --trace 0`` (or
``--trace 1``) runs once in each checkout, on that seed and workload,
one after the other. The order alternates from pair to pair (base first,
then change first), so a drift of the host during the runs falls on
both sides alike. Each run's last stdout line is run.py's JSON result.

For each metric the summary prints the base's median and its quartiles,
the change's median and the relative difference of the medians, the
pairs in which the change is better (as ``BENCHMARK.json`` of the change
says which direction is better; lower where it does not say) and those
in which it is worse, ties counting for neither. A metric that
``BENCHMARK.json`` gives a relative ``bound`` also gets a verdict:

- ``worse``: the change's median is worse than the base's median by
  more than the bound;
- ``unresolved``: the base's interquartile spread is wider than the
  bound and not every change run beats every base run, so the pairs
  cannot tell a regression from noise;
- ``ok`` otherwise.

Last come the failed calls of each side. Only the standard library is
used.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(checkout: str, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """run.py's JSON result for one run in ``checkout``."""
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True, check=True,
    ).stdout
    return json.loads(out.strip().splitlines()[-1])


def verdict(base: list[float], change: list[float], sign: int, bound: float) -> str:
    """``worse``, ``unresolved`` or ``ok`` for one metric's runs, as the
    module docstring defines them; ``sign`` is 1 when lower is better
    and -1 when higher is."""
    q1, median, q3 = statistics.quantiles(base, n=4, method="inclusive")
    if sign * (statistics.median(change) - median) > bound * abs(median):
        return "worse"
    if q3 - q1 > bound * abs(median) and not all(
            sign * (c - b) < 0 for c in change for b in base):
        return "unresolved"
    return "ok"


def summarize(pairs: list[tuple[dict, dict]], better: dict[str, str],
              bounds: dict[str, float] | None = None) -> list[dict]:
    """One row per metric that both sides of every pair report.

    ``pairs`` holds (base, change) metric values by name; ``better`` maps
    a metric to "lower" or "higher" (lower when absent), and ``bounds``
    a metric to its relative bound, which adds a ``verdict`` to its row.
    The quartiles are ``statistics.quantiles(..., n=4, method="inclusive")``.
    """
    bounds = bounds or {}
    names = [n for n in pairs[0][0] if all(n in b and n in c for b, c in pairs)]
    rows = []
    for name in names:
        base = [b[name] for b, _ in pairs]
        change = [c[name] for _, c in pairs]
        sign = -1 if better.get(name, "lower") == "higher" else 1
        q1, median, q3 = statistics.quantiles(base, n=4, method="inclusive")
        changed = statistics.median(change)
        rows.append({
            "name": name,
            "base_median": median,
            "base_q1": q1,
            "base_q3": q3,
            "change_median": changed,
            "delta": (changed - median) / median if median else 0.0,
            "wins": sum(sign * (c - b) < 0 for b, c in zip(base, change)),
            "losses": sum(sign * (c - b) > 0 for b, c in zip(base, change)),
            "pairs": len(pairs),
        })
        if name in bounds:
            rows[-1]["verdict"] = verdict(base, change, sign, bounds[name])
    return rows


def format_row(row: dict) -> str:
    return (f"{row['name']:30s} {row['base_median']:12.4f} "
            f"[{row['base_q1']:.4f}-{row['base_q3']:.4f}] -> {row['change_median']:12.4f} "
            f"({row['delta']:+.1%})  wins {row['wins']}/{row['pairs']}, "
            f"losses {row['losses']}" + (f"  {row['verdict']}" if "verdict" in row else ""))


def _seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def _metrics(checkout: str) -> tuple[dict[str, str], dict[str, float]]:
    """Each metric's direction and each bounded metric's bound, from the
    checkout's ``BENCHMARK.json``."""
    with open(os.path.join(checkout, "BENCHMARK.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    metrics = doc.get("end_to_end", []) + doc.get("per_layer", [])
    return ({m["name"]: m["better"] for m in metrics},
            {m["name"]: m["bound"] for m in metrics if "bound" in m})


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True, help="checkout to compare against")
    ap.add_argument("--change", required=True, help="checkout under test")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, type=_seeds,
                    help="inclusive range FIRST-LAST; one pair per seed")
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if len(args.seeds) < 2:
        ap.error("--seeds must name at least two seeds")
    pairs, failed = [], {"base": 0, "change": 0}
    for i, seed in enumerate(args.seeds):
        sides = ("base", "change") if i % 2 == 0 else ("change", "base")
        result = {}
        for side in sides:
            result[side] = run_once(getattr(args, side), args.workload, seed,
                                    args.seconds, args.trace)
            failed[side] += result[side]["failed"]
        values = [{n: m["value"] for n, m in result[s]["metrics"].items()}
                  for s in ("base", "change")]
        pairs.append((values[0], values[1]))
        print(f"# pair {i + 1}/{len(args.seeds)} seed {seed} ({sides[0]} first)", flush=True)
    for row in summarize(pairs, *_metrics(args.change)):
        print(format_row(row))
    print(f"failed calls: base {failed['base']}, change {failed['change']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
