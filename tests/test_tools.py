"""Tests of the scripts under ``tools/``: ``output_digest.py``, run as
its users run it, and the summary of ``bench_pairs.py``."""

import importlib.util
import os
import pathlib
import subprocess
import sys

import pytest

TOOLS = pathlib.Path(__file__).resolve().parent.parent / "tools"
SCRIPT = TOOLS / "output_digest.py"

# The digest lines of seed 7 under PYTHONHASHSEED=0. A change to them is
# a change to what the CLI prints on these benchmark inputs.
PINNED = {
    "deep-path": "deep-path 3c6cae41cf055961e3c2d969b8dcda26bf5672d15f98ec49af5cbf550265cc67"
                 " (4 calls; escaped: none)",
    "long-protocol": "long-protocol fa7633fc8ca2bb12fda34618d71e1f177fe59dbc28583a09bdcf72e16dbd86ff"
                     " (4 calls; escaped: none)",
    "step-replay": "step-replay d2b986a5d4e6f497165382b9b0443ddf684ac8771ed371e2fee3a1ab56e3a3c9"
                   " (78 calls; escaped: none)",
}


def digest(workload, **env):
    base = {k: v for k, v in os.environ.items() if k != "PYTHONHASHSEED"}
    return subprocess.run(
        [sys.executable, str(SCRIPT), "--seed", "7", "--workload", workload],
        env={**base, **env}, capture_output=True, text=True, timeout=120,
    )


def test_output_digest_refuses_a_random_hash_seed():
    result = digest("deep-path")
    assert result.returncode == 2
    assert "PYTHONHASHSEED" in result.stderr
    assert result.stdout == ""


@pytest.mark.parametrize("workload", sorted(PINNED))
def test_output_digest_lines_are_pinned(workload):
    result = digest(workload, PYTHONHASHSEED="0")
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout == PINNED[workload] + "\n"


def _bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOLS / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_pairs_summary_counts_wins_and_quartiles():
    """Five pairs: ties count for neither side, the direction of
    "better" comes from the metric, and the quartiles are the base's."""
    bench_pairs = _bench_pairs()
    base = [10.0, 11.0, 12.0, 13.0, 14.0]
    change = [9.0, 11.0, 11.0, 12.0, 15.0]
    pairs = [({"call_ms_p50": b, "verdicts_per_s": b, "only_base": 1.0},
              {"call_ms_p50": c, "verdicts_per_s": c})
             for b, c in zip(base, change)]
    rows = bench_pairs.summarize(pairs, {"verdicts_per_s": "higher"})
    assert [row["name"] for row in rows] == ["call_ms_p50", "verdicts_per_s"]
    lower, higher = rows
    assert (lower["base_q1"], lower["base_median"], lower["base_q3"]) == (11.0, 12.0, 13.0)
    assert lower["change_median"] == 11.0
    assert lower["delta"] == pytest.approx(-1 / 12)
    assert (lower["wins"], lower["losses"], lower["pairs"]) == (3, 1, 5)
    assert (higher["wins"], higher["losses"]) == (1, 3)
    assert bench_pairs.format_row(lower) == (
        "call_ms_p50                         12.0000 [11.0000-13.0000] ->      11.0000"
        " (-8.3%)  wins 3/5, losses 1"
    )


@pytest.mark.parametrize("base, change, better, expected", [
    # The median rose by 30%, past the 24% bound.
    ([10.0, 10.0, 10.0, 10.0, 10.0], [13.0, 13.0, 13.0, 13.0, 13.0], "lower", "worse"),
    ([10.0, 10.0, 10.0, 10.0, 10.0], [7.0, 7.0, 7.0, 7.0, 7.0], "higher", "worse"),
    # The base spreads 4.0 around 10.0, wider than the bound, and one
    # change run is worse than one base run.
    ([8.0, 9.0, 10.0, 13.0, 14.0], [8.5, 9.0, 9.5, 10.0, 10.5], "lower", "unresolved"),
    # Every change run beats every base run, so the spread cannot hide it.
    ([8.0, 9.0, 10.0, 13.0, 14.0], [5.0, 6.0, 7.0, 7.5, 7.9], "lower", "ok"),
    ([8.0, 9.0, 10.0, 13.0, 14.0], [14.5, 15.0, 16.0, 17.0, 18.0], "higher", "ok"),
    # 20% worse, within the bound, and the base's quartiles are both 10.0.
    ([9.5, 10.0, 10.0, 10.0, 10.5], [11.0, 11.5, 12.0, 12.0, 12.5], "lower", "ok"),
])
def test_bench_pairs_verdict(base, change, better, expected):
    bench_pairs = _bench_pairs()
    pairs = [({"m": b}, {"m": c}) for b, c in zip(base, change)]
    (row,) = bench_pairs.summarize(pairs, {"m": better}, {"m": 0.24})
    assert row["verdict"] == expected
    assert bench_pairs.format_row(row).endswith(f"losses {row['losses']}  {expected}")
