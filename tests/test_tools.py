"""Smoke test of ``tools/output_digest.py``, run as its users run it."""

import os
import pathlib
import subprocess
import sys

import pytest

SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "tools" / "output_digest.py"

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
