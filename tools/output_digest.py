"""Digest of everything the protoverify CLI prints on the benchmark's inputs.

Usage, from the repository root::

    PYTHONHASHSEED=0 python3 tools/output_digest.py --seed 7
    PYTHONHASHSEED=0 python3 tools/output_digest.py --seed 7 --workload deep-path
    PYTHONHASHSEED=0 python3 tools/output_digest.py --seed 7 --against ../other

For each workload, ``perfbench/workloads.py`` writes the seed's inputs
into a temporary directory. ``cli.main`` then runs in this process on:

* every timed and known-defect call of the workload's plan;
* each ``verify-db`` and ``step`` call again with ``--paper-disjunction``;
* ``parse`` in text and in JSON on every protocol of the plan.

One SHA-256 per workload is printed over each call's argv, stdout,
stderr, exit code and escaped exception (class and message), with the
temporary directory's path replaced by a fixed name. Two source trees
that print the same digests for a seed behave byte-identically on these
calls. Python's hash seed can reach the output through set order, so
the caller fixes ``PYTHONHASHSEED``; the script refuses to run without it.

``--against DIR`` also runs ``DIR``'s own copy of this script, in a
child process with the same seed, workloads and ``PYTHONHASHSEED``, and
compares: each workload whose line differs is printed with the other
tree's line, and the exit code is 1 if any differs.

Only the standard library, ``perfbench/workloads.py`` and the
``protoverify`` sources of this checkout are used; nothing is written
outside the temporary directory.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
sys.path.insert(0, os.path.join(ROOT, "src"))

from protoverify import cli  # noqa: E402

import workloads  # noqa: E402

MODE_COMMANDS = ("verify-db", "step")


def _argvs(plan: workloads.Plan):
    """The digest's calls for one plan, in a fixed order."""
    protocols = []
    for call in plan.calls + plan.defect_calls:
        yield call.argv
        if call.argv[0] in MODE_COMMANDS:
            yield call.argv + ["--paper-disjunction"]
        protocol = call.argv[call.argv.index("--protocol") + 1]
        if protocol not in protocols:
            protocols.append(protocol)
    for protocol in protocols:
        yield ["parse", "--protocol", protocol]
        yield ["parse", "--protocol", protocol, "--format", "json"]


def _run(argv: list[str]) -> tuple[str, str, int | None, str | None]:
    out, err = io.StringIO(), io.StringIO()
    escaped = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception as exc:  # an escaped exception is part of the output
            code, escaped = None, f"{type(exc).__name__}: {exc}"
    return out.getvalue(), err.getvalue(), code, escaped


def digest(workload: str, seed: int) -> tuple[str, int, dict[str, int]]:
    """(SHA-256, number of calls, escaped exceptions by class)."""
    h = hashlib.sha256()
    calls = 0
    escaped: dict[str, int] = {}
    with tempfile.TemporaryDirectory() as work:
        plan = workloads.generate(workload, seed, work)
        for argv in _argvs(plan):
            stdout, stderr, code, exc = _run(argv)
            record = repr((argv, stdout, stderr, code, exc)).replace(work, "<work>")
            h.update(record.encode("utf-8") + b"\n")
            calls += 1
            if exc is not None:
                name = exc.split(":", 1)[0]
                escaped[name] = escaped.get(name, 0) + 1
    return h.hexdigest(), calls, escaped


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workload", choices=(*workloads.WORKLOADS, "all"), default="all")
    ap.add_argument("--against", metavar="DIR",
                    help="compare with the digests of the checkout in DIR")
    args = ap.parse_args(argv)
    if os.environ.get("PYTHONHASHSEED", "random") == "random":
        ap.error("set PYTHONHASHSEED to a fixed value; the digest depends on it")
    chosen = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    lines = {}
    for workload in chosen:
        sha, calls, escaped = digest(workload, args.seed)
        detail = ", ".join(f"{n} {name}" for name, n in sorted(escaped.items()))
        lines[workload] = f"{workload} {sha} ({calls} calls; escaped: {detail or 'none'})"
        print(lines[workload], flush=True)
    if args.against is None:
        return 0
    theirs = _lines_of(args.against, args.seed, args.workload)
    differ = [w for w in chosen if theirs.get(w) != lines[w]]
    for workload in differ:
        print(f"differs from {args.against}: {theirs.get(workload, workload + ' (missing)')}")
    if not differ:
        print(f"identical to {args.against}")
    return 1 if differ else 0


def _lines_of(tree: str, seed: int, workload: str) -> dict[str, str]:
    """Workload -> digest line, as the other tree's own script prints it."""
    script = os.path.join(tree, "tools", "output_digest.py")
    out = subprocess.run(
        [sys.executable, script, "--seed", str(seed), "--workload", workload],
        cwd=tree, capture_output=True, text=True, check=True,
    ).stdout
    return {line.split(" ", 1)[0]: line for line in out.splitlines() if line}


if __name__ == "__main__":
    sys.exit(main())
