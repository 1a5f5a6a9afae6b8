"""Checks of the benchmark's own references and verdict checker.

Run with ``PYTHONPATH=src python -m pytest perfbench``.
"""

import json
import random

import pytest

import client
import workloads
from protoverify.oracle import enumerate_reaching_traces


@pytest.mark.parametrize("seed", range(8))
def test_deep_path_closed_form_matches_oracle(tmp_path, seed):
    rng = random.Random(seed)
    # Smallest shape: two queries over a four-row table; guards drawn from
    # the whole a1 domain, so both verdicts occur across seeds.
    rows, present, absent = workloads.deep_path_table(rng, 4, repeats=rng.choice((1, 2)))
    domain = present + [absent]
    guards = [rng.choice(domain), rng.choice(domain)]
    inst, conflicts = workloads.write_deep_instance(str(tmp_path), rows, 2, guards)
    verdicts, traces = workloads.deep_path_reference(rows, 2, guards)
    ast, db = workloads._load(inst)
    for qid, verdict, count in zip(conflicts, verdicts, traces):
        result = enumerate_reaching_traces(ast, db, qid)
        assert not result.truncated
        assert len(result.traces) == count
        assert verdict == (workloads.REALIZABLE if result.traces else workloads.SPURIOUS)


def test_step_reference_prunes_and_reaches(tmp_path):
    rng = random.Random(3)
    rows, present, _ = workloads.deep_path_table(rng, 4)
    stmts = workloads.step_protocol([present[0], present[-1]])
    text, conflicts = workloads.render(stmts)
    inst = workloads.write_instance(
        str(tmp_path), *workloads._deep_classes(),
        {"T": [{"a1": a, "a2": b} for a, b in rows]}, text)
    ast, db = workloads._load(inst)
    by_conflict = {q: [t.entries for t in enumerate_reaching_traces(ast, db, q).traces]
                   for q in conflicts}

    # The empty prefix is the static question.
    expected, _ = workloads.step_reference(stmts, conflicts, by_conflict, ())
    assert expected == {q: workloads.REALIZABLE if by_conflict[q] else workloads.SPURIOUS
                        for q in conflicts}

    # A whole execution decides both guards: one conflict per guard stays,
    # the first one already reached, the second one reachable.
    execution = by_conflict[conflicts[2]][0] if by_conflict[conflicts[2]] else \
        by_conflict[conflicts[3]][0]
    expected, _ = workloads.step_reference(stmts, conflicts, by_conflict, execution)
    assert len(expected) == 2
    assert set(expected.values()) == {workloads.REALIZABLE}
    reached, decided = workloads.replay_prefix(stmts, execution)
    assert set(decided) == {1, 2}
    assert len(reached & set(conflicts)) == 1


def _outcome(payload, code):
    return client.Outcome(1.0, code, json.dumps(payload))


@pytest.mark.parametrize("payload, code, reason", [
    ([{"queryId": 3, "verdict": "realizable"}], 1, None),
    ([{"queryId": 3, "verdict": "spurious"}], 0, "wrong verdict"),
    ([], 0, "missing or extra conflict"),
    ([{"queryId": 3, "verdict": "realizable"}, {"queryId": 4, "verdict": "spurious"}], 1,
     "missing or extra conflict"),
    ([{"queryId": 3, "verdict": "realizable"}], 0, "exit code 0"),
])
def test_check_classifies_outputs(payload, code, reason):
    call = workloads.Call(["verify-db"], {3: workloads.REALIZABLE})
    assert client.check(call, _outcome(payload, code))[0] == reason


def test_check_counts_errors_and_oracle_disagreement():
    call = workloads.Call(["verify-db"], {3: workloads.SPURIOUS}, oracle_agrees=True)
    crashed = client.Outcome(1.0, None, "", "exception KeyError")
    assert client.check(call, crashed) == ("exception KeyError", 0)
    disagree = _outcome([{"queryId": 3, "verdict": "spurious", "oracleAgrees": False}], 0)
    assert client.check(call, disagree)[0] == "oracleAgrees false"


def test_tail_has_ten_samples_beyond():
    ms = [float(i) for i in range(1, 101)]
    value, pct = client.tail(ms)
    assert sum(1 for x in ms if x > value) == 10
    assert pct == 90
    assert client.tail([5.0, 1.0]) == (5.0, 100)


def test_traced_call_spans_every_layer_and_restores(tmp_path):
    rng = random.Random(1)
    rows, present, absent = workloads.deep_path_table(rng, 4)
    inst, conflicts = workloads.write_deep_instance(str(tmp_path), rows, 2, [present[0], absent])
    call = workloads.Call(workloads.verify_argv(inst, "--oracle"),
                          dict(zip(conflicts, [workloads.REALIZABLE, workloads.SPURIOUS])))
    originals = [getattr(m, a) for m, a, _ in client.LAYER_CALLS]
    tracer = client.Tracer()
    with tracer.installed():
        outcome, counts = client.traced_call(call, tracer, 0)
    assert [getattr(m, a) for m, a, _ in client.LAYER_CALLS] == originals
    assert client.check(call, outcome) == (None, 2)
    names = {s.name for s in tracer.spans}
    assert names == {"cli", "ontology", "protocol", "relstore", "consistency",
                     "spuriousness", "oracle"}
    assert all(s.parent == 0 for s in tracer.spans[1:])
    assert counts == {
        "protocol.queries": 4, "protocol.branches": 2, "relstore.rows": 4,
        "consistency.mismatches": 2, "spuriousness.conflicts": 2,
        "spuriousness.realizable": 1, "spuriousness.pruned": 0, "spuriousness.noted": 0,
    }


def test_cross_defect_flag_marks_reads_of_v3_after_the_join():
    data = random.Random(0)
    flagged = 0
    for i in range(200):
        gen = workloads._CrossGen(random.Random(f"oracle-crosscheck-shape:{i}"), data, False)
        text, _ = workloads.render(gen.protocol())
        lines = text.splitlines()
        q4 = next(line for line in lines if " from Base where " in line)
        g2 = [line for line in lines if line.startswith("if ")][1]
        assert gen.reads_joined == ("v3" in q4.split(" where ")[1] or "v3" in g2)
        flagged += gen.reads_joined
    assert 0 < flagged < 100


def test_plan_round_trips_defect_calls():
    call = workloads.Call(["verify-db"], {3: workloads.SPURIOUS}, oracle_agrees=True)
    plan = workloads.Plan("oracle-crosscheck", 1, [], [], defect_calls=[call])
    again = workloads.Plan.from_json(json.loads(json.dumps(plan.to_json())))
    assert again.defect_calls == [call]
    assert again.calls == []
