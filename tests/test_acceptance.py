"""Acceptance suite: one test per shipped guarantee, each printing a
single pass/fail line.

The random-instance checks pin their seeds so failures reproduce.
"""

import functools
import random
import time

import conftest
from conftest import canonical_rows, with_tables

from protoverify.consistency import check_consistency
from protoverify.oracle import _answers, is_reachable
from protoverify.protocol import Query, eval_condition
from protoverify.relstore import (
    Relation,
    extent_tables,
    natural_join,
    project,
    relation,
    select,
)
from protoverify.protocol import Condition, Lit, Var
from protoverify.spuriousness import (
    NO_ANSWER,
    _variable_tags,
    step_verify,
    verify_all,
)

from instgen import make_instance, mutation_cases, random_mutation_protocol
from test_consistency import audit_mismatch


def _emit(line):
    conftest.CRITERION_LINES.append(line)
    print(line)


def _criterion(num, desc):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                _emit(f"criterion {num} ({desc}): FAIL")
                raise
            _emit(f"criterion {num} ({desc}): PASS")

        return run

    return wrap


@_criterion(1, "first publications protocol reproduction")
def test_criterion_1_pub_protocol(protocol1, pub_server):
    start = time.perf_counter()
    ms = check_consistency(protocol1, pub_server)
    elapsed = time.perf_counter() - start
    assert len(ms) == 1
    (m,) = ms
    assert m.kind == "SpecializationMismatch"
    assert m.query_id == 3
    assert m.failed_name() == "Proceedings"
    assert elapsed < 0.1


@_criterion(2, "vehicle protocol reproduction")
def test_criterion_2_auto_protocol(protocol2, auto_server):
    start = time.perf_counter()
    ms = check_consistency(protocol2, auto_server)
    elapsed = time.perf_counter() - start
    assert len(ms) == 1
    (m,) = ms
    assert m.kind == "UnmatchedVariables"
    assert m.query_id == 2
    assert dict(m.variables) == {"Color": "col"}
    assert elapsed < 0.1


@_criterion(3, "spuriousness pair with oracle-checked verdicts")
def test_criterion_3_spuriousness_pair(
    protocol1, pub_server, pub_db_spurious, pub_db_realizable
):
    ms = check_consistency(protocol1, pub_server)
    for db, expected in (
        (pub_db_spurious, "spurious"),
        (pub_db_realizable, "realizable"),
    ):
        assert sum(len(t.rows) for t in db.tables.values()) <= 10
        start = time.perf_counter()
        report = verify_all(protocol1, pub_server, db, ms)
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0
        assert report.verdict_for(3) == expected
        assert is_reachable(protocol1, db, 3) == (expected == "realizable")
        if expected == "realizable":
            (entry,) = report.entries
            from protoverify.oracle import enumerate_reaching_traces

            traces = enumerate_reaching_traces(protocol1, db, 3).traces
            assert any(
                all(t.env_dict().get(k) == v for k, v in entry.witness.items())
                for t in traces
            )


@_criterion(4, "engine and oracle agree on 200 random instances")
def test_criterion_4_oracle_equivalence():
    rng = random.Random(40400)
    start = time.perf_counter()
    checked = 0
    disagreements = []
    while checked < 200:
        inst = make_instance(rng)
        conflicts = check_consistency(inst.ast, inst.server)
        report = verify_all(inst.ast, inst.server, inst.db, conflicts)
        engine = report.verdict_for(inst.conflict_qid) == "realizable"
        oracle = is_reachable(inst.ast, inst.db, inst.conflict_qid)
        if engine != oracle:
            disagreements.append(inst.text)
        checked += 1
    elapsed = time.perf_counter() - start
    assert not disagreements, disagreements[:2]
    assert elapsed < 60.0


def _all_mutation_cases(protocol1, pub_client, protocol2, auto_client, protocol3):
    from protoverify.ontology import parse_ontology

    stock = parse_ontology(
        {
            "classes": [
                {
                    "name": "StockItem",
                    "dataProperties": ["ItemName", "Quality", "Available", "Price"],
                }
            ]
        }
    )
    fixture_pairs = [
        (protocol1, pub_client),
        (protocol2, auto_client),
        (protocol3, stock),
    ]
    cases = []
    for ast, server in fixture_pairs:
        assert check_consistency(ast, server) == []
        for mutated, kind in mutation_cases(ast, server):
            cases.append((ast, mutated, kind))
    rng = random.Random(50500)
    while len(cases) < 24:
        ast, server = random_mutation_protocol(rng)
        assert check_consistency(ast, server) == []
        for mutated, kind in mutation_cases(ast, server):
            cases.append((ast, mutated, kind))
    return cases


@_criterion(5, "single mutations are always detected with the right kind")
def test_criterion_5_mutation_completeness(
    protocol1, pub_client, protocol2, auto_client, protocol3
):
    cases = _all_mutation_cases(
        protocol1, pub_client, protocol2, auto_client, protocol3
    )
    assert len(cases) >= 20
    for ast, mutated, kind in cases:
        ms = check_consistency(ast, mutated)
        assert any(m.kind == kind for m in ms), (kind, [m.kind for m in ms])


@_criterion(6, "every emitted mismatch survives a direct graph re-query")
def test_criterion_6_soundness_audit(
    protocol1,
    pub_server,
    pub_client,
    protocol2,
    auto_server,
    auto_client,
    protocol3,
):
    audited = 0
    for ast, server in ((protocol1, pub_server), (protocol2, auto_server)):
        for m in check_consistency(ast, server):
            audit_mismatch(m, ast, server)
            audited += 1
    rng = random.Random(60600)
    for _ in range(100):
        inst = make_instance(rng)
        for m in check_consistency(inst.ast, inst.server):
            audit_mismatch(m, inst.ast, inst.server)
            audited += 1
    for ast, mutated, _kind in _all_mutation_cases(
        protocol1, pub_client, protocol2, auto_client, protocol3
    ):
        for m in check_consistency(ast, mutated):
            audit_mismatch(m, ast, mutated)
            audited += 1
    assert audited >= 100


def _random_relation(rng):
    cols = rng.sample(["a", "b", "c", "d"], rng.randint(1, 3))
    rows = {
        tuple(rng.randint(0, 3) for _ in cols)
        for _ in range(rng.randint(0, 5))
    }
    return relation("", cols, ["int"] * len(cols), rows)


@_criterion(7, "algebra laws hold on 1000 random relations")
def test_criterion_7_algebra_laws():
    rng = random.Random(70700)
    for _ in range(1000):
        r, s, t = (_random_relation(rng) for _ in range(3))
        assert canonical_rows(natural_join(r, s)) == canonical_rows(
            natural_join(s, r)
        )
        assert canonical_rows(
            natural_join(natural_join(r, s), t)
        ) == canonical_rows(natural_join(r, natural_join(s, t)))
        narrower = list(r.columns[:1])
        assert (
            project(project(r, list(r.columns)), narrower).rows
            == project(r, narrower).rows
        )
        c1 = Condition(Var(r.columns[0]), ">", Lit(rng.randint(0, 3)))
        c2 = Condition(Var(r.columns[-1]), "<", Lit(rng.randint(0, 3)))
        assert select(r, [c1, c2]).rows == select(select(r, [c1]), [c2]).rows


def _deciding_trace(inst, toward):
    """A valid conversation prefix through the top-level queries whose
    last entry claims the outermost branch on the conflict's path, taken
    toward the conflict or away from it, and the values it binds; None
    when no execution decides that way."""
    p, db = inst.ast, inst.db
    top = [s for s in p.statements if isinstance(s, Query)]
    branch, conflict_arm = p.arms(inst.conflict_qid)[0]

    def rec(i, env, entries):
        if i == len(top):
            decision = all(eval_condition(c, env) for c in branch.conditions)
            if (decision == conflict_arm) != toward:
                return None
            done = list(entries)
            qid, answer, _, tags = done[-1]
            done[-1] = (qid, answer, [(branch.id, decision)], tags)
            return done, env
        q = top[i]
        answers = _answers(q, env, db, {})
        options = answers if answers else [NO_ANSWER]
        for a in options:
            env2 = dict(env)
            if a is NO_ANSWER:
                for v in q.output_variables():
                    if v not in env:
                        env2[v] = None
            else:
                env2.update(a)
            found = rec(i + 1, env2, entries + [(q.id, a, [], _variable_tags(q, db))])
            if found is not None:
                return found
        return None

    return rec(0, {}, [])


@_criterion(8, "step mode: empty trace matches static; branch-away trace clears")
def test_criterion_8_step_consistency():
    """Also: a trace toward the conflict prunes it only on a guard that
    reads a variable; behind guards over literals alone it keeps a
    verdict, on which the oracle searching from the trace agrees."""
    rng = random.Random(80800)
    checked = away_checked = toward_checked = free_kept = 0
    while checked < 50:
        inst = make_instance(rng, force_branch=True, free_guards=True)
        p, qid = inst.ast, inst.conflict_qid
        conflicts = check_consistency(p, inst.server)
        static = verify_all(p, inst.server, inst.db, conflicts)
        stepped = step_verify(p, inst.server, inst.db, conflicts, [])
        assert stepped.to_json_text() == static.to_json_text()
        checked += 1
        away = _deciding_trace(inst, toward=False)
        if away is not None:
            report = step_verify(p, inst.server, inst.db, conflicts, away[0])
            assert report.entries == ()
            away_checked += 1
        toward = _deciding_trace(inst, toward=True)
        if toward is None:
            continue
        trace, env = toward
        report = step_verify(p, inst.server, inst.db, conflicts, trace)
        outcomes = [(all(eval_condition(c, env) for c in b.conditions) == arm,
                     any(c.variables() for c in b.conditions)) for b, arm in p.arms(qid)]
        kept = all(taken for taken, reads in outcomes if reads)
        assert [e.query_id for e in report.entries] == ([qid] if kept else [])
        if kept:
            prefix = [(q, None if a is NO_ANSWER else a) for q, a, _, _ in trace]
            assert (report.entries[0].verdict == "realizable") == is_reachable(
                p, inst.db, qid, prefix=prefix)
            free_kept += not all(taken for taken, _ in outcomes)
        toward_checked += 1
    assert away_checked >= 20
    assert toward_checked >= 20
    assert free_kept >= 3


def _first_binding(p, variable):
    """Id of the first query, in document order, that binds the variable."""
    return next((q.id for q in p.queries() if variable in q.output_variables()), None)


def _chain_tables(inst, needed):
    p, db = inst.ast, inst.db
    qids = set()
    frontier = {_first_binding(p, v) for v in needed}
    while frontier:
        qid = frontier.pop()
        qids.add(qid)
        q = p.query(qid)
        # The query's prior variables: those it reads that another query binds.
        for v in set(q.output_variables()).union(*(c.variables() for c in q.where)):
            nxt = _first_binding(p, v)
            if nxt != qid and nxt not in qids:
                frontier.add(nxt)
    tables = set()
    for qid in qids:
        for ref in p.query(qid).class_refs:
            node = db.ontology.find_match(ref.names[-1])
            if node:
                tables |= set(extent_tables(db, node.name))
    return tables


def _delete_matching(db, attr_values):
    tables = {}
    for name, t in db.tables.items():
        keep = frozenset(
            row
            for row in t.rows
            if not any(
                row[t.index(attr)] == value
                for attr, value in attr_values
                if attr in t.columns
            )
        )
        tables[name] = Relation(t.columns, t.tags, keep, t.name)
    return with_tables(db, tables)


@_criterion(9, "row deletion is monotone toward spurious")
def test_criterion_9_monotonicity():
    rng = random.Random(90900)
    realizable_seen = 0
    while realizable_seen < 50:
        inst = make_instance(rng, force_branch=True, then_only=True)
        conflicts = check_consistency(inst.ast, inst.server)
        report = verify_all(inst.ast, inst.server, inst.db, conflicts)
        entry = next(
            e for e in report.entries if e.query_id == inst.conflict_qid
        )
        if entry.verdict != "realizable":
            continue
        realizable_seen += 1

        # Deleting the rows behind the witness never un-spuriouses
        # anything: the engine must keep tracking the oracle.
        attr_values = set()
        for q in inst.ast.queries():
            for attr, var in q.bindings:
                if var and entry.witness.get(var) is not None:
                    attr_values.add((attr, entry.witness[var]))
        pruned = _delete_matching(inst.db, attr_values)
        after = verify_all(inst.ast, inst.server, pruned, conflicts)
        engine = after.verdict_for(inst.conflict_qid) == "realizable"
        assert engine == is_reachable(inst.ast, pruned, inst.conflict_qid)

        # Emptying every table the gating variables depend on starves the
        # path conditions and must flip the verdict to spurious.
        needed = set()
        for branch, _arm in inst.ast.arms(inst.conflict_qid):
            for cond in branch.conditions:
                needed |= cond.variables()
        doomed = _chain_tables(inst, needed)
        assert doomed
        emptied = with_tables(
            inst.db,
            {
                name: Relation(
                    inst.db.tables[name].columns,
                    inst.db.tables[name].tags,
                    frozenset(),
                    name,
                )
                for name in doomed
            }
        )
        starved = verify_all(inst.ast, inst.server, emptied, conflicts)
        assert starved.verdict_for(inst.conflict_qid) == "spurious"
        assert not is_reachable(inst.ast, emptied, inst.conflict_qid)
