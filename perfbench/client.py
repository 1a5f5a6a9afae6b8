"""The measured process: one client calling the protoverify CLI in a
closed loop, in-process, with no threads.

Usage::

    python3 perfbench/client.py PLAN.json --seconds S --trace 0|1 --spans OUT.json

Each call starts only after the previous one returns. Every call's
stdout and exit code are checked against the plan's references; a call
fails on a wrong, missing or extra verdict, ``oracleAgrees`` false where
required, a wrong exit code, an escaped exception, or exceeding
``CALL_LIMIT_S``. Failures are counted, never fatal. The plan's known-defect calls are
made once each after the timed loop, untimed, checked the same way, and
reported apart from the timed calls.

With ``--trace 0`` the whole run times ``cli.main``. With ``--trace 1``
half the run times ``cli.main`` (for the tracing overhead) and half runs
it traced: the functions through which ``cli.main`` enters each layer are
wrapped to record a span around every call. Spans are kept in memory and
written to ``--spans`` at the end.

Prints one JSON object on its last stdout line.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import signal
import statistics
import sys
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from protoverify import cli, consistency, oracle, spuriousness  # noqa: E402

import calibration  # noqa: E402
import workloads  # noqa: E402

CALL_LIMIT_S = 10.0
CALIBRATE_EVERY_S = 0.1
CONSERVATIVE_NOTE = "reported conservatively"


class CallTimeout(BaseException):
    """Raised by SIGALRM inside a call that exceeds CALL_LIMIT_S.

    A BaseException, so no handler inside the program swallows it."""


def _on_alarm(signum, frame):
    raise CallTimeout()


@dataclass
class Outcome:
    wall_ms: float
    code: int | None
    stdout: str
    error: str | None = None


# --- tracing ---

# The functions through which cli.main enters each layer, as
# (module, attribute, layer). cli imports the three loaders by name, so
# they are replaced in cli's namespace; the others are looked up on their
# module at call time.
LAYER_CALLS = (
    (cli, "load_ontology", "ontology"),
    (cli, "parse_protocol", "protocol"),
    (cli, "load_database", "relstore"),
    (consistency, "check_consistency", "consistency"),
    (spuriousness, "parse_trace", "spuriousness"),
    (spuriousness, "step_verify", "spuriousness"),
    (spuriousness, "verify_all", "spuriousness"),
    (oracle, "is_reachable", "oracle"),
)


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    call_id: int


class Tracer:
    """In-memory span recorder; spans of one call share its call id.

    While ``installed``, every function in LAYER_CALLS is replaced by a
    wrapper that records a span around it and keeps its arguments and
    return value (by function name) for the work counts."""

    def __init__(self):
        self.spans: list[Span | None] = []
        self._open: list[int] = []
        self.call_id = 0
        self.returned: dict[str, tuple] = {}

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        index = len(self.spans)
        self.spans.append(None)
        self._open.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._open.pop()
            self.spans[index] = Span(name, start, end, parent, self.call_id)

    def _wrap(self, layer: str, fn):
        def traced(*args, **kwargs):
            with self.span(layer):
                result = fn(*args, **kwargs)
            self.returned[fn.__name__] = (args, result)
            return result
        return traced

    @contextlib.contextmanager
    def installed(self):
        saved = [getattr(module, attr) for module, attr, _ in LAYER_CALLS]
        for (module, attr, layer), fn in zip(LAYER_CALLS, saved):
            setattr(module, attr, self._wrap(layer, fn))
        try:
            yield
        finally:
            for (module, attr, _), fn in zip(LAYER_CALLS, saved):
                setattr(module, attr, fn)

    def self_times(self, scales: list[float]) -> dict[str, float]:
        """Seconds per span name, minus the time its child spans cover,
        each scaled by its call's reference-host factor."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.end - s.start
        out: dict[str, float] = {}
        for s, covered in zip(self.spans, child):
            own = ((s.end - s.start) - covered) * scales[s.call_id]
            out[s.name] = out.get(s.name, 0.0) + own
        return out

    def write(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([
                {"name": s.name, "start": s.start, "end": s.end,
                 "parent": s.parent, "callId": s.call_id}
                for s in self.spans
            ], fh)


# --- one call ---

def _timed(fn) -> Outcome:
    """Run fn() -> (exit code, stdout) under the per-call time limit."""
    signal.setitimer(signal.ITIMER_REAL, CALL_LIMIT_S)
    t0 = time.perf_counter()
    try:
        code, stdout = fn()
        error = None
    except CallTimeout:
        code, stdout, error = None, "", "timeout"
    except Exception as exc:  # an escaped exception is a counted failure
        code, stdout, error = None, "", f"exception {type(exc).__name__}"
    t1 = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, 0)
    return Outcome((t1 - t0) * 1000.0, code, stdout, error)


def _cli(argv: list[str], tracer: Tracer | None = None) -> tuple[int, str]:
    """``cli.main(argv)`` with stdout and stderr captured; with a tracer,
    inside one ``cli`` span."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        if tracer is None:
            code = cli.main(argv)
        else:
            with tracer.span("cli"):
                code = cli.main(argv)
    return code, out.getvalue()


def untraced_call(call: workloads.Call) -> Outcome:
    return _timed(lambda: _cli(call.argv))


def traced_call(call: workloads.Call, tracer: Tracer, call_id: int) -> tuple[Outcome, dict]:
    """The call with the layer wrappers installed (see Tracer.installed),
    and its work counts, derived after the timed region from what the
    layers were given and returned."""
    tracer.call_id = call_id
    tracer.returned = {}
    outcome = _timed(lambda: _cli(call.argv, tracer))
    return outcome, work_counts(tracer.returned)


def work_counts(returned: dict[str, tuple]) -> dict:
    """Counts from the layer calls that returned. A layer that raised
    contributes none, so the spuriousness counts cover only the calls
    the engine finished."""
    counts: dict = {}
    if "parse_protocol" in returned:
        ast = returned["parse_protocol"][1]
        counts["protocol.queries"] = len(ast.queries())
        counts["protocol.branches"] = len(ast.branches())
    if "load_database" in returned:
        db = returned["load_database"][1]
        counts["relstore.rows"] = sum(len(t.rows) for t in db.tables.values())
    if "check_consistency" in returned:
        counts["consistency.mismatches"] = len(returned["check_consistency"][1])
    verified = returned.get("verify_all") or returned.get("step_verify")
    if verified is not None:
        args, report = verified
        conflicts = {m.query_id for m in args[3]}
        counts.update({
            "spuriousness.conflicts": len(conflicts),
            "spuriousness.realizable": sum(
                e.verdict == spuriousness.REALIZABLE for e in report.entries),
            "spuriousness.pruned": len(conflicts) - len(report.entries),
            "spuriousness.noted": sum(
                CONSERVATIVE_NOTE in (e.note or "") for e in report.entries),
        })
    return counts


def check(call: workloads.Call, outcome: Outcome) -> tuple[str | None, int]:
    """(failure reason or None, number of verdicts printed)."""
    if outcome.error:
        return outcome.error, 0
    try:
        payload = json.loads(outcome.stdout)
        got = {e["queryId"]: e["verdict"] for e in payload}
    except (ValueError, TypeError, KeyError):
        return f"unparsable output (exit {outcome.code})", 0
    if len(got) != len(payload):
        return "duplicate verdict", len(payload)
    if set(got) != set(call.expected):
        return "missing or extra conflict", len(payload)
    if got != call.expected:
        return "wrong verdict", len(payload)
    if call.oracle_agrees and not all(e.get("oracleAgrees") is True for e in payload):
        return "oracleAgrees false", len(payload)
    if outcome.code != workloads.expected_exit(call):
        return f"exit code {outcome.code}", len(payload)
    return None, len(payload)


# --- closed loop ---

@dataclass
class Sample:
    wall_ms: float
    failure: str | None
    verdicts: int
    scale: float = 1.0

    @property
    def ms(self) -> float:
        """Reference-host milliseconds (see calibration.py)."""
        return self.wall_ms * self.scale


def closed_loop(calls, seconds: float, one_call, full_pass: bool = False) -> list[Sample]:
    """Cycle through the calls until ``seconds`` have passed (and, with
    ``full_pass``, every call has run at least once).

    A calibration runs first, last, and between two calls once
    CALIBRATE_EVERY_S has passed since the previous one; each call is
    scaled by the calibrations just before and just after it."""
    samples: list[Sample] = []
    before: list[int] = []
    calibrations = [calibration.calibration_ms()]
    start = last = time.perf_counter()
    i = 0
    while (i == 0 or time.perf_counter() - start < seconds
           or (full_pass and i < len(calls))):
        if time.perf_counter() - last >= CALIBRATE_EVERY_S:
            calibrations.append(calibration.calibration_ms())
            last = time.perf_counter()
        call = calls[i % len(calls)]
        outcome = one_call(call, i)
        failure, verdicts = check(call, outcome)
        samples.append(Sample(outcome.wall_ms, failure, verdicts))
        before.append(len(calibrations) - 1)
        i += 1
    calibrations.append(calibration.calibration_ms())
    for sample, b in zip(samples, before):
        sample.scale = calibration.scale(calibrations[b], calibrations[b + 1])
    return samples


def tail(ms: list[float]) -> tuple[float, int]:
    """(value, percentile) of the highest percentile with at least ten
    samples beyond it; the maximum when there are ten samples or fewer."""
    ordered = sorted(ms)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100
    return ordered[n - 11], (100 * (n - 10)) // n


def failures(reasons) -> dict[str, int]:
    out: dict[str, int] = {}
    for reason in reasons:
        if reason:
            out[reason] = out.get(reason, 0) + 1
    return out


def known_defects(calls: list[workloads.Call]) -> dict:
    """Each known-defect call made once, untimed, and checked."""
    reasons = [check(call, untraced_call(call))[0] for call in calls]
    return {"attempted": len(reasons), "failed": sum(r is not None for r in reasons),
            "failures": failures(reasons)}


def peak_rss_mb() -> float:
    """This process's own resident-memory high-water mark (``VmHWM``),
    which starts afresh at exec. ``getrusage``'s ``ru_maxrss`` would start
    at the peak of the process that started this one."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def end_to_end(samples: list[Sample]) -> tuple[dict, dict]:
    ms = [s.ms for s in samples]
    tail_ms, pct = tail(ms)
    wall = [s.wall_ms for s in samples]
    metrics = {
        "call_ms_p50": {"value": statistics.median(ms), "unit": "ms"},
        "call_ms_tail": {"value": tail_ms, "unit": "ms"},
        "verdicts_per_s": {
            "value": sum(s.verdicts for s in samples) / (sum(ms) / 1000.0), "unit": "1/s"},
        "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
    }
    return metrics, {"tail_percentile": pct, "samples": len(ms),
                     "wall_ms_p50": statistics.median(wall), "wall_ms_tail": tail(wall)[0]}


COUNT_KEYS = ("protocol.queries", "protocol.branches", "relstore.rows",
              "consistency.mismatches", "spuriousness.conflicts",
              "spuriousness.realizable", "spuriousness.pruned", "spuriousness.noted")


def per_layer(untraced: list[Sample], traced: list[Sample], tracer: Tracer,
              counts: list[dict], plan: workloads.Plan) -> dict:
    """Per-layer metrics: self time per traced call and work counts per
    distinct call (see work_counts)."""
    calls = len(traced)
    self_s = tracer.self_times([s.scale for s in traced])

    def ms_per_call(name):
        return {"value": self_s.get(name, 0.0) * 1000.0 / calls, "unit": "ms"}

    def total(key):
        return sum(d.get(key, 0) for d in counts)

    distinct = len(counts)
    conflicts = total("spuriousness.conflicts")
    conflicts_traced = sum(counts[i % distinct].get("spuriousness.conflicts", 0)
                           for i in range(calls))
    metrics = {
        "cli.self_ms": ms_per_call("cli"),
        "ontology.load_ms": ms_per_call("ontology"),
        "protocol.parse_ms": ms_per_call("protocol"),
        "relstore.load_ms": ms_per_call("relstore"),
        "consistency.check_ms": ms_per_call("consistency"),
        "spuriousness.verify_ms": ms_per_call("spuriousness"),
        "oracle.reachable_ms": ms_per_call("oracle"),
        "spuriousness.ms_per_conflict": {
            "value": self_s.get("spuriousness", 0.0) * 1000.0 / max(1, conflicts_traced),
            "unit": "ms"},
        "trace.overhead_ms": {
            "value": statistics.median(s.ms for s in traced)
            - statistics.median(s.ms for s in untraced),
            "unit": "ms"},
    }
    for key in COUNT_KEYS:
        metrics[key] = {"value": total(key) / distinct, "unit": "count"}
    metrics["spuriousness.exact_share"] = {
        "value": 1.0 - total("spuriousness.noted") / conflicts if conflicts else 1.0,
        "unit": "ratio"}
    metrics["oracle.traces"] = {"value": plan.counts["oracle.traces"], "unit": "count"}
    metrics["oracle.truncated"] = {"value": plan.counts["oracle.truncated"], "unit": "count"}
    everything = untraced + traced
    metrics["error_rate"] = {
        "value": sum(s.failure is not None for s in everything) / len(everything),
        "unit": "ratio"}
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("plan")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--spans", required=True)
    args = ap.parse_args(argv)
    with open(args.plan, encoding="utf-8") as fh:
        plan = workloads.Plan.from_json(json.load(fh))
    signal.signal(signal.SIGALRM, _on_alarm)
    calls = plan.calls

    def plain(call, _i):
        return untraced_call(call)

    # Untimed warm-up: the first call pays lazy imports no later call does.
    untraced_call(calls[0])
    if args.trace == 0:
        samples = closed_loop(calls, args.seconds, plain)
        metrics, extra = end_to_end(samples)
    else:
        untraced = closed_loop(calls, args.seconds / 2, plain)
        tracer = Tracer()
        counts: list[dict] = [{} for _ in calls]

        def traced(call, i):
            outcome, counts[i % len(calls)] = traced_call(call, tracer, i)
            return outcome

        with tracer.installed():
            traced_samples = closed_loop(calls, args.seconds / 2, traced, full_pass=True)
        tracer.write(args.spans)
        metrics = per_layer(untraced, traced_samples, tracer, counts, plan)
        samples = untraced + traced_samples
        extra = {"traced_calls": len(traced_samples), "untraced_calls": len(untraced)}
    # After the timed loop and the peak-RSS reading, so neither sees them.
    known = extra["known_defects"] = known_defects(plan.defect_calls)
    if args.trace == 1:
        metrics["known_defects.error_rate"] = {
            "value": known["failed"] / known["attempted"] if known["attempted"] else 0.0,
            "unit": "ratio"}
    result = {
        "attempted": len(samples),
        "failed": sum(s.failure is not None for s in samples),
        "failures": failures(s.failure for s in samples),
        "metrics": metrics,
        "extra": extra,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
