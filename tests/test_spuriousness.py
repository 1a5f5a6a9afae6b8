"""Tests for the database-level spuriousness engine."""

import gc
import hashlib
import random
import weakref

import pytest

from conftest import FIXTURES, with_tables
from instgen import make_instance
from test_oracle import MEMO_PROTOCOLS, _memo_database, _outcome
from protoverify import values
from protoverify.consistency import check_consistency
from protoverify.errors import (
    IncomparableTagsError,
    InconsistentTraceError,
    UncoveredBindingError,
    UnresolvableClassError,
)
from protoverify.ontology import load_ontology, parse_ontology
from protoverify.oracle import enumerate_reaching_traces, is_reachable
from protoverify.protocol import parse_protocol, print_protocol
from protoverify.relstore import (
    Database,
    Relation,
    class_extent,
    load_database,
    relation,
    select,
)
from protoverify import protocol, spuriousness
from protoverify.spuriousness import (
    CONJUNCTION,
    DISJUNCTION,
    VerifyContext,
    _decide_conflict,
    _reaching_states,
    generate_assignable_set,
    parse_trace,
    step_verify,
    verify_all,
)


def conflicts_for(p, server):
    return check_consistency(p, server)


def test_generate_q1_singleton(protocol1, pub_db_spurious):
    rel = generate_assignable_set(protocol1.query(1), pub_db_spurious)
    assert set(rel.columns) == {"t1", "a", "d1"}
    assert len(rel.rows) == 1
    row = dict(zip(rel.columns, next(iter(rel.rows))))
    assert row["t1"] == "ManualName" and row["a"] == "Knuth"


def test_generate_empty_extent(protocol1, pub_db_spurious):
    empty_book = Relation(
        ("author", "title"), ("str", "str"), frozenset(), "Book"
    )
    db = with_tables(
        pub_db_spurious,
        {
            "Book": empty_book,
            "Monograph": empty_book,
            "Proceedings": Relation(
                ("author", "date", "title"),
                ("str", "date", "str"),
                frozenset(),
                "Proceedings",
            ),
        }
    )
    rel = generate_assignable_set(protocol1.query(2), db)
    assert not rel.rows


def test_generate_unresolvable_class(pub_db_spurious):
    p = parse_protocol("get (title: t) from Pamphlet;")
    with pytest.raises(UnresolvableClassError):
        generate_assignable_set(p.query(1), pub_db_spurious)


def test_generate_uncovered_binding(pub_db_spurious):
    p = parse_protocol("get (pages: n) from Book;")
    with pytest.raises(UncoveredBindingError):
        generate_assignable_set(p.query(1), pub_db_spurious)


def test_generate_repeated_variable_equates(pub_db_spurious):
    p = parse_protocol("get (title: x, author: x) from Book;")
    rel = generate_assignable_set(p.query(1), pub_db_spurious)
    assert not rel.rows


def test_split_assignable_set():
    """Path conditions filter an assignable relation; no conditions keep
    it whole."""
    delta = relation("d", ["c1"], ["int"], [(5000,), (20000,)])
    p = parse_protocol("get (a: c1) from K where (c1 > 10000);")
    cond = p.query(1).where[0]
    out = select(delta, [cond])
    assert out.rows == frozenset({(20000,)})
    assert select(delta, []).rows == delta.rows


def test_verify_conflict_spurious(protocol1, pub_db_spurious):
    ctx = VerifyContext()
    verdict = _decide_conflict(3, ctx, protocol1, pub_db_spurious, CONJUNCTION)
    assert verdict.verdict == "spurious"
    assert verdict.emptied_at == ("t2",)


def test_verify_conflict_realizable(protocol1, pub_db_realizable):
    ctx = VerifyContext()
    verdict = _decide_conflict(3, ctx, protocol1, pub_db_realizable, CONJUNCTION)
    assert verdict.verdict == "realizable"
    assert verdict.witness["t2"] == "TAOCP"
    assert ctx.answers[2].buckets


def test_verify_conflict_memoizes(protocol1, pub_db_realizable):
    ctx = VerifyContext()
    _decide_conflict(3, ctx, protocol1, pub_db_realizable, CONJUNCTION)
    first = ctx.answers[2]
    _decide_conflict(3, ctx, protocol1, pub_db_realizable, CONJUNCTION)
    assert ctx.answers[2] is first


def test_verify_all_spurious(protocol1, pub_server, pub_db_spurious):
    ms = conflicts_for(protocol1, pub_server)
    report = verify_all(protocol1, pub_server, pub_db_spurious, ms)
    assert report.to_json() == [
        {
            "queryId": 3,
            "verdict": "spurious",
            "emptiedAt": ["t2"],
            "mode": "static",
        }
    ]


def test_verify_all_realizable(protocol1, pub_server, pub_db_realizable):
    ms = conflicts_for(protocol1, pub_server)
    report = verify_all(protocol1, pub_server, pub_db_realizable, ms)
    (entry,) = report.to_json()
    assert entry["verdict"] == "realizable"
    assert entry["witness"] == {
        "a": "Knuth",
        "d1": "1973-01-01",
        "t1": "ManualName",
        "t2": "TAOCP",
    }


def test_verify_all_conflict_free(protocol1, pub_client, pub_db_spurious):
    report = verify_all(protocol1, pub_client, pub_db_spurious, [])
    assert report.entries == ()


def test_unguarded_conflict_realizable(pub_server, pub_db_spurious):
    p = parse_protocol("get (title: t) from Pamphlet;")
    ms = conflicts_for(p, pub_server)
    report = verify_all(p, pub_server, pub_db_spurious, ms)
    assert report.verdict_for(1) == "realizable"


def test_constant_false_guard_spurious(pub_server, pub_db_realizable):
    p = parse_protocol("if (1 = 0) { get (title: t) from Pamphlet; }")
    ms = conflicts_for(p, pub_server)
    report = verify_all(p, pub_server, pub_db_realizable, ms)
    assert report.verdict_for(1) == "spurious"


def test_verdicts_match_oracle_on_fixtures(
    protocol1, pub_server, pub_db_spurious, pub_db_realizable
):
    ms = conflicts_for(protocol1, pub_server)
    for db, reachable in (
        (pub_db_spurious, False),
        (pub_db_realizable, True),
    ):
        report = verify_all(protocol1, pub_server, db, ms)
        assert (report.verdict_for(3) == "realizable") == reachable
        assert is_reachable(protocol1, db, 3) == reachable


def test_disjunction_mode_weaker(pub_server, pub_db_spurious):
    text = (
        "get (title: t1, author: a) from Manual where (t1 = 'ManualName');\n"
        "if (a = 'Knuth') {\n"
        "  if (a = 'Nobody') {\n"
        "    get (title: t3) from Book.Proceedings;\n"
        "  }\n"
        "}\n"
    )
    p = parse_protocol(text)
    ms = conflicts_for(p, pub_server)
    strict = verify_all(p, pub_server, pub_db_spurious, ms)
    loose = verify_all(p, pub_server, pub_db_spurious, ms, combination=DISJUNCTION)
    assert strict.verdict_for(2) == "spurious"
    assert loose.verdict_for(2) == "realizable"


def test_cache_coherence(protocol1, pub_db_realizable):
    """Cached answers equal those built fresh, and reusing them leaves
    the execution states unchanged."""
    def contents(states):
        return states.columns, states.live, states.smallest

    ctx = VerifyContext()
    first = _reaching_states(protocol1, pub_db_realizable, 3, ctx, {"t2"})
    assert set(ctx.answers) == {1, 2}
    fresh_states = _reaching_states(protocol1, pub_db_realizable, 3, VerifyContext(), {"t2"})
    assert contents(first) == contents(fresh_states)
    # Steps cleared, answers still cached: the steps are rebuilt from them.
    ctx.steps.clear()
    again = _reaching_states(protocol1, pub_db_realizable, 3, ctx, {"t2"})
    assert again is not first
    assert contents(again) == contents(fresh_states)
    for qid, answers in ctx.answers.items():
        fresh = generate_assignable_set(protocol1.query(qid), pub_db_realizable)
        assert answers.columns == fresh.columns
        assert {row for rows in answers.buckets.values() for row in rows} == {
            row for row in fresh.rows if None not in (row[i] for i in answers.shared)
        }


def straight_titles(k):
    """k straight-line Book lookups, then a conflict guarded by t0."""
    return (
        "".join(f"get (title: t{i}) from Book;\n" for i in range(k))
        + "if (t0 != null) { get (title: c) from Book.Proceedings; }\n"
    )


def test_states_are_projected_onto_live_variables(pub_server, pub_db_realizable):
    """Only t0 is read after the lookups, so the three Book titles give
    at most three states where the full relation has 3^12."""
    p = parse_protocol(straight_titles(12))
    states = _reaching_states(p, pub_db_realizable, 13, VerifyContext(), {"t0"})
    assert states.live == ("t0",)
    assert len(states.smallest) <= 3
    assert states.columns == tuple(f"t{i}" for i in range(12))
    # Every execution reaches the conflict, so the witness takes the
    # least Book title for every variable.
    books = class_extent(pub_db_realizable, "Book")
    least = min(row[books.index("title")] for row in books.rows)
    report = verify_all(p, pub_server, pub_db_realizable, conflicts_for(p, pub_server))
    assert report.entries[0].witness == {f"t{i}": least for i in range(12)}
    # The oracle enumerates every execution (3^k of them), so it checks
    # the same shape at k = 6.
    small = parse_protocol(straight_titles(6))
    entry = verify_all(
        small, pub_server, pub_db_realizable, conflicts_for(small, pub_server)
    ).entries[0]
    traces = enumerate_reaching_traces(small, pub_db_realizable, 7).traces
    assert entry.verdict == "realizable" and traces
    assert entry.witness == smallest_env(traces, entry.witness)


def smallest_env(traces, witness):
    """The least arrival environment over the witness's columns."""
    cols = list(witness)
    envs = [tuple(t.env_dict()[c] for c in cols) for t in traces]
    least = min(envs, key=lambda env: tuple(values.sort_key(v) for v in env))
    return dict(zip(cols, least))


def test_witness_is_smallest_oracle_execution():
    """The engine's verdict is the oracle's, and a realizable witness is
    the least arrival environment over all reaching executions."""
    checked = 0
    for seed in range(400):
        inst = make_instance(random.Random(seed), force_branch=seed % 2 == 1)
        conflicts = conflicts_for(inst.ast, inst.server)
        report = verify_all(inst.ast, inst.server, inst.db, conflicts)
        entry = next(e for e in report.entries if e.query_id == inst.conflict_qid)
        traces = enumerate_reaching_traces(inst.ast, inst.db, inst.conflict_qid).traces
        assert (entry.verdict == "realizable") == bool(traces), inst.text
        if traces and entry.witness:
            assert entry.witness == smallest_env(traces, entry.witness), inst.text
            checked += 1
    assert checked > 100


SHARED_PREFIX = (
    "get (title: t1, author: a) from Manual where (t1 = 'ManualName');\n"
    "get (title: t2, author: a) from Book;\n"
    "if (t2 != null) { get (title: t3) from Book.Proceedings; }\n"
    "if (a = 'Knuth') { get (title: t4) from Book.Proceedings; }\n"
    "if (t1 = 'Other') { get (title: t5) from Book.Proceedings; }\n"
)


def test_verify_all_builds_each_answer_once(
    monkeypatch, pub_server, pub_db_realizable
):
    p = parse_protocol(SHARED_PREFIX)
    ms = conflicts_for(p, pub_server)
    assert len({m.query_id for m in ms}) == 3
    built = []
    real = spuriousness._answer_rows

    def counting(q, db):
        built.append(q.id)
        return real(q, db)

    monkeypatch.setattr(spuriousness, "_answer_rows", counting)
    report = verify_all(p, pub_server, pub_db_realizable, ms)
    assert sorted(built) == [1, 2]
    assert [e.verdict for e in report.entries] == [
        "realizable", "realizable", "spurious"
    ]
    for qid in (3, 4, 5):
        assert (report.verdict_for(qid) == "realizable") == is_reachable(
            p, pub_db_realizable, qid
        )


def test_monotonicity_on_fixture(protocol1, pub_server, pub_db_realizable):
    ms = conflicts_for(protocol1, pub_server)
    emptied = with_tables(
        pub_db_realizable,
        {
            name: Relation(t.columns, t.tags, frozenset(), t.name)
            for name, t in pub_db_realizable.tables.items()
        }
    )
    report = verify_all(protocol1, pub_server, emptied, ms)
    assert report.verdict_for(3) == "spurious"


# --- step mode ---

def test_step_empty_trace_equals_static(
    protocol1, pub_server, pub_db_spurious, pub_db_realizable
):
    ms = conflicts_for(protocol1, pub_server)
    for db in (pub_db_spurious, pub_db_realizable):
        static = verify_all(protocol1, pub_server, db, ms)
        stepped = step_verify(protocol1, pub_server, db, ms, [])
        assert stepped.to_json_text() == static.to_json_text()


def q1_answer():
    return {"t1": "ManualName", "a": "Knuth", "d1": "1973-01-01"}


def test_step_pruned_branch(protocol1, pub_server, pub_db_realizable):
    ms = conflicts_for(protocol1, pub_server)
    raw = [
        {"queryId": 1, "answer": q1_answer()},
        {"queryId": 2, "answer": None, "branch": {"index": 1, "taken": False}},
    ]
    trace = parse_trace(raw, protocol1, pub_db_realizable)
    report = step_verify(protocol1, pub_server, pub_db_realizable, ms, trace)
    assert report.entries == ()
    assert report.mode == "step"


def test_step_seeded_answer(protocol1, pub_server, pub_db_realizable):
    ms = conflicts_for(protocol1, pub_server)
    raw = [
        {"queryId": 1, "answer": q1_answer()},
        {
            "queryId": 2,
            "answer": {"t2": "TAOCP", "a": "Knuth"},
            "branch": {"index": 1, "taken": True},
        },
    ]
    trace = parse_trace(raw, protocol1, pub_db_realizable)
    report = step_verify(protocol1, pub_server, pub_db_realizable, ms, trace)
    assert report.verdict_for(3) == "realizable"


def test_verification_builds_no_cycle_holding_the_ast(protocol1):
    """Loading, parsing, static and step verification leave no reference
    cycle that holds the ontology or the AST, so dropping them frees them
    at once rather than at the next cyclic collection, and a call adds
    neither to the collector's work."""
    text = print_protocol(protocol1)
    raw = [{"queryId": 1, "answer": q1_answer()}]
    gc.collect()
    gc.disable()
    try:
        server = load_ontology(FIXTURES / "pub-server.json")
        db = load_database(FIXTURES / "pub-db-realizable", server)
        ast = parse_protocol(text)
        refs = [
            weakref.ref(ast), weakref.ref(ast.query(3)),
            weakref.ref(server), weakref.ref(server.classes["Book"]),
        ]
        ms = conflicts_for(ast, server)
        verify_all(ast, server, db, ms)
        trace = parse_trace(raw, ast, db)
        step_verify(ast, server, db, ms, trace)
        del server, db, ast, ms, trace
        assert [ref() for ref in refs] == [None] * 4
    finally:
        gc.enable()


def test_step_no_answer_prunes(protocol1, pub_server, pub_db_spurious):
    """An unanswered second query leaves t2 null, which already decides
    the null-test branch against the conflict; it is pruned."""
    ms = conflicts_for(protocol1, pub_server)
    raw = [
        {"queryId": 1, "answer": q1_answer()},
        {"queryId": 2, "answer": None},
    ]
    trace = parse_trace(raw, protocol1, pub_db_spurious)
    report = step_verify(protocol1, pub_server, pub_db_spurious, ms, trace)
    assert report.entries == ()


def test_step_inconsistent_where(protocol1, pub_server, pub_db_spurious):
    ms = conflicts_for(protocol1, pub_server)
    raw = [
        {
            "queryId": 1,
            "answer": {"t1": "WrongTitle", "a": "Knuth", "d1": "1973-01-01"},
        }
    ]
    trace = parse_trace(raw, protocol1, pub_db_spurious)
    with pytest.raises(InconsistentTraceError):
        step_verify(protocol1, pub_server, pub_db_spurious, ms, trace)


def test_step_contradicted_branch(protocol1, pub_server, pub_db_realizable):
    ms = conflicts_for(protocol1, pub_server)
    raw = [
        {"queryId": 1, "answer": q1_answer()},
        {
            "queryId": 2,
            "answer": {"t2": "TAOCP", "a": "Knuth"},
            "branch": {"index": 1, "taken": False},
        },
    ]
    trace = parse_trace(raw, protocol1, pub_db_realizable)
    with pytest.raises(InconsistentTraceError):
        step_verify(protocol1, pub_server, pub_db_realizable, ms, trace)


def test_step_wrong_variable_set(protocol1, pub_server, pub_db_spurious):
    raw = [{"queryId": 1, "answer": {"t1": "ManualName"}}]
    trace = parse_trace(raw, protocol1, pub_db_spurious)
    with pytest.raises(InconsistentTraceError):
        step_verify(protocol1, pub_server, pub_db_spurious, [], trace)


def test_step_out_of_order(protocol1, pub_server, pub_db_spurious):
    raw = [{"queryId": 2, "answer": None}]
    trace = parse_trace(raw, protocol1, pub_db_spurious)
    with pytest.raises(InconsistentTraceError):
        step_verify(protocol1, pub_server, pub_db_spurious, [], trace)


@pytest.mark.parametrize(
    "branch",
    [
        {"taken": False},
        {"index": 1},
        "1",
        [{"index": 1, "taken": True}, 1],
        {"index": "1", "taken": True},
        {"index": 1, "taken": "no"},
    ],
)
def test_parse_trace_malformed_branch(protocol1, pub_db_spurious, branch):
    raw = [{"queryId": 1, "answer": q1_answer(), "branch": branch}]
    with pytest.raises(InconsistentTraceError, match="'branch'"):
        parse_trace(raw, protocol1, pub_db_spurious)


@pytest.mark.parametrize(
    "raw",
    [
        {"queryId": 1},
        [1],
        [{"answer": None}],
        [{"queryId": 1, "answer": 5}],
        [{"queryId": 1, "answer": {"t1": "T", "a": "A", "d1": "not a date"}}],
        [{"queryId": 1, "answer": {"t1": "T", "a": "A", "d1": True}}],
        [{"queryId": 1, "answer": {"t1": "T", "a": "A", "d1": [1]}}],
        [{"queryId": 1, "answer": {"t1": "T", "a": "A", "d1": 19730101}}],
        [{"queryId": 1, "answer": {"t1": 5, "a": "A", "d1": "1973-01-01"}}],
        [{"queryId": 1, "answer": {"t1": "T", "a": False, "d1": "1973-01-01"}}],
        [{"queryId": True, "answer": None}],
        [{"queryId": 1.0, "answer": None}],
        [{"queryId": [1], "answer": None}],
        [{"queryId": "1", "answer": None}],
    ],
)
def test_parse_trace_malformed_entry(protocol1, pub_db_spurious, raw):
    with pytest.raises(InconsistentTraceError):
        parse_trace(raw, protocol1, pub_db_spurious)


@pytest.mark.parametrize(
    "raw, tag, expected",
    [
        (5, "int", 5),
        (5, "decimal", 5.0),
        (3.5, "decimal", 3.5),
        ("5", "str", "5"),
        ("2009-01-31", "date", values.parse_date("2009-01-31")),
        (None, "int", None),
        (True, "int", TypeError),
        (3.5, "int", TypeError),
        ("5", "int", TypeError),
        (False, "decimal", TypeError),
        ("3.5", "decimal", TypeError),
        (5, "str", TypeError),
        (True, "date", TypeError),
        ([1], "date", TypeError),
        ("31/01/2009", "date", ValueError),
        (float("nan"), "decimal", ValueError),
        (float("-inf"), "decimal", ValueError),
    ],
)
def test_value_from_json_accepts_only_the_tags_kind(raw, tag, expected):
    if isinstance(expected, type):
        with pytest.raises(expected):
            values.value_from_json(raw, tag)
    else:
        decoded = values.value_from_json(raw, tag)
        assert decoded == expected and type(decoded) is type(expected)


ENTRY_1 = {"queryId": 1, "answer": q1_answer()}
TAOCP = {"t2": "TAOCP", "a": "Knuth"}


@pytest.mark.parametrize(
    "raw, message",
    [
        ([ENTRY_1, 5], "trace entry 1 must be an object with a queryId"),
        ([ENTRY_1, {"queryId": "2"}],
         "trace entry 1: queryId '2' must be an integer"),
        ([ENTRY_1, {"queryId": 9, "answer": None}],
         "trace entry 1 answers query 9, which the protocol does not have"),
        ([ENTRY_1, {"queryId": 2, "answer": 5}],
         "trace entry 1 for query 2: 'answer' must be an object or null"),
        ([ENTRY_1, {"queryId": 2, "answer": {"t2": 5, "a": "Knuth"}}],
         "trace entry 1 for query 2: value of 't2' is not a str"),
        ([ENTRY_1, {"queryId": 2, "answer": None, "branch": {"index": 1}}],
         "trace entry 1 for query 2: 'branch' must be an object"),
        ([ENTRY_1, {"queryId": 2, "answer": None,
                    "branch": {"index": 9, "taken": True}}],
         "trace entry 1 decides branch 9, which the protocol does not have"),
        ([ENTRY_1, {"queryId": 3, "answer": None}],
         "trace entry 1 answers query 3 but query 2 executes next"),
        ([ENTRY_1, {"queryId": 2, "answer": {"t2": "TAOCP"}}],
         "trace entry 1 for query 2: answer must bind exactly ['a', 't2']"),
        ([ENTRY_1, {"queryId": 2, "answer": {"t2": "TAOCP", "a": "Other"}}],
         "trace entry 1 for query 2: answer rebinds instantiated variable 'a' "
         "inconsistently"),
        ([{"queryId": 1, "answer": {**q1_answer(), "t1": "Wrong"}}],
         "trace entry 0 for query 1: answer violates its where clause "
         "(t1 = 'ManualName')"),
        ([ENTRY_1, {"queryId": 2, "answer": TAOCP,
                    "branch": {"index": 1, "taken": False}}],
         "trace entry 1 decides branch 1 as False but the seeded values force True"),
        ([ENTRY_1, {"queryId": 2, "answer": None},
          {"queryId": 3, "answer": None}],
         "trace entry 2 for query 3 never executes"),
        ([{**ENTRY_1, "branch": {"index": 1, "taken": False}}],
         "trace entry 0 decides branch 1, which the trace never reaches"),
        ([{**ENTRY_1, "branch": {"index": 1, "taken": True}},
          {"queryId": 2, "answer": TAOCP, "branch": {"index": 1, "taken": False}}],
         "trace entry 1 decides branch 1 as False but the seeded values force True"),
        ([{**ENTRY_1, "branch": {"index": 1, "taken": False}},
          {"queryId": 2, "answer": TAOCP, "branch": {"index": 1, "taken": True}}],
         "trace entry 0 decides branch 1 as False but the seeded values force True"),
    ],
    ids=[
        "not-an-object", "queryId-not-int", "unknown-query", "answer-not-object", "value-of-wrong-kind",
        "malformed-decision", "unknown-branch", "out-of-order", "wrong-variables",
        "inconsistent-rebinding", "where-violated", "contradicted-branch",
        "never-executes", "unreached-branch", "later-claim-contradicts",
        "earlier-claim-contradicts",
    ],
)
def test_trace_errors_name_their_entry(protocol1, pub_server, pub_db_realizable,
                                       raw, message):
    ms = conflicts_for(protocol1, pub_server)
    with pytest.raises(InconsistentTraceError) as exc:
        trace = parse_trace(raw, protocol1, pub_db_realizable)
        step_verify(protocol1, pub_server, pub_db_realizable, ms, trace)
    assert str(exc.value).startswith(message)


def test_answer_of_wrong_tag_names_its_entry(protocol1, pub_server, pub_db_realizable):
    """Values decoded by ``parse_trace`` always carry their column's tag;
    a trace built directly may not."""
    trace = [(1, {"t1": "ManualName", "a": "Knuth", "d1": 5}, [],
              {"t1": "str", "a": "str", "d1": "date"})]
    with pytest.raises(InconsistentTraceError) as exc:
        step_verify(protocol1, pub_server, pub_db_realizable, [], trace)
    assert str(exc.value) == (
        "trace entry 0 for query 1: answer value for 'd1' has tag 'int', "
        "expected 'date'"
    )


def test_parse_trace_decimal_out_of_range():
    p = parse_protocol("get (price: x) from Base;")
    db = Database({}, None, {"price": "decimal"})
    with pytest.raises(InconsistentTraceError, match="'x'"):
        parse_trace([{"queryId": 1, "answer": {"x": 10**400}}], p, db)


def long_shaped_instance(blocks=6):
    """Key lookups, where-clauses over earlier variables and nested
    if/else blocks with multi-condition and null guards, over int tables:
    the shape of the long-protocol benchmark workload, scaled down."""
    server = parse_ontology({"classes": [
        {"name": "Entity", "dataProperties": ["id", "val"]},
        {"name": "Person", "superclasses": ["Entity"], "dataProperties": ["age"]},
        {"name": "Org", "superclasses": ["Entity"], "dataProperties": ["size"]},
    ]})

    def table(name, columns, cell):
        rows = frozenset(tuple(cell(c, i) for c in columns) for i in range(30))
        return Relation(columns, ("int",) * len(columns), rows, name)

    def cell(column, i):
        if column == "id":
            return i
        if (i + len(column)) % 7 == 0:
            return None
        return {"val": i * 7 % 50, "age": i * 3 % 40, "size": i * 11 % 25}[column]

    tables = {
        "Entity": table("Entity", ("id", "val"), cell),
        "Person": table("Person", ("age", "id", "val"), cell),
        "Org": table("Org", ("id", "size", "val"), cell),
    }
    db = Database(tables, server, {c: "int" for c in ("id", "val", "age", "size")})
    lines = []
    for b in range(blocks):
        lines += [
            f"get (id: k{b}, val: v{b}, age: w{b}) from Person where (k{b} = {b * 3 % 30});",
            f"get (id: j{b}, val: u{b}) from Entity where (j{b} = {b * 5 % 30}) (u{b} >= v{b});",
            f"if (v{b} > 10) (u{b} != null) {{",
            f"  get (id: m{b}, size: s{b}) from Org where (m{b} = {b * 4 % 30});",
            f"  if (s{b} < 20) {{ get (ghost: g{b}) from Missing; }}",
            f"  else {{ get (id: n{b}, val: x{b}) from Entity.Person where (x{b} = v{b}); }}",
            "} else {",
            f"  get (ghost: h{b}) from Missing;",
            "}",
        ]
    return server, parse_protocol("\n".join(lines)), db


def test_static_verification_uses_compiled_conditions_only(
    monkeypatch, protocol1, protocol3, pub_server, pub_db_spurious, pub_db_realizable
):
    """With dict-based condition evaluation disabled, static verification
    still gives the verdicts it gives with it, which the oracle confirms."""
    server, long_shaped, long_db = long_shaped_instance()
    cases = [(long_shaped, server, long_db)] + [
        (p, pub_server, db)
        for p in (protocol1, protocol3)
        for db in (pub_db_spurious, pub_db_realizable)
    ]
    expected = []
    for p, srv, db in cases:
        conflicts = conflicts_for(p, srv)
        for combination in (CONJUNCTION, DISJUNCTION):
            expected.append(verify_all(p, srv, db, conflicts, combination))
        assert [e.verdict == "realizable" for e in expected[-2].entries] == [
            is_reachable(p, db, e.query_id) for e in expected[-2].entries
        ]
    verdicts = {e.verdict for e in expected[0].entries}
    assert verdicts == {"realizable", "spurious"}

    def refuse(cond, env):
        raise AssertionError("condition evaluated through a dict")

    monkeypatch.setattr(protocol, "eval_condition", refuse)
    monkeypatch.setattr(spuriousness, "eval_condition", refuse)
    got = []
    for p, srv, db in cases:
        conflicts = conflicts_for(p, srv)
        for combination in (CONJUNCTION, DISJUNCTION):
            got.append(verify_all(p, srv, db, conflicts, combination))
    assert got == expected


# --- shared steps and key lookups ---

def count_steps(monkeypatch, blocks):
    """Extension steps one ``verify_all`` computes on the long shape."""
    server, p, db = long_shaped_instance(blocks)
    steps = []
    real = spuriousness._extend

    def counting(*args):
        steps.append(args)
        return real(*args)

    monkeypatch.setattr(spuriousness, "_extend", counting)
    conflicts = conflicts_for(p, server)
    verify_all(p, server, db, conflicts)
    monkeypatch.undo()
    # Shared steps give each conflict the states a context of its own
    # would build for it alone, keyed by the same live columns.
    shared = VerifyContext()
    for qid in sorted({m.query_id for m in conflicts}):
        needed = set().union(*(
            c.variables() for branch, _arm in p.arms(qid) for c in branch.conditions
        ))
        got = _reaching_states(p, db, qid, shared, needed)
        alone = _reaching_states(p, db, qid, VerifyContext(), needed)
        assert (got.columns, got.live, got.smallest) == (
            alone.columns, alone.live, alone.smallest
        )
    return len(steps)


def test_extension_steps_grow_linearly_with_the_protocol(monkeypatch):
    """Conflicts share the steps of their common path prefix, so a
    protocol twice as long takes about twice as many steps, not four
    times as many as rebuilding every conflict's path would."""
    eight, sixteen = count_steps(monkeypatch, 8), count_steps(monkeypatch, 16)
    assert eight <= 4 * 8
    assert sixteen <= 2 * eight + 1


def test_key_lookup_probes_the_table_index(monkeypatch):
    """``k = 5.0`` finds the int key 5 through the Person table's index
    and runs the where predicate on that row only; ``from Entity`` reads
    the index of each of its three tables, and builds no extent."""
    _server, _p, db = long_shaped_instance()
    calls = []
    real = spuriousness.compile_condition

    def counting(cond, columns):
        pred = real(cond, columns)
        return lambda row: calls.append(row) or pred(row)

    monkeypatch.setattr(spuriousness, "compile_condition", counting)
    p = parse_protocol("get (id: k, val: v) from Person where (k = 5.0);")
    rel = generate_assignable_set(p.query(1), db)
    assert rel.rows == frozenset({(5, 35)})
    assert calls == [(5, 35)]
    assert list(db.indexes) == [("Person", "id")]
    assert all(isinstance(rows, list) for rows in db.indexes["Person", "id"].values())
    p = parse_protocol("get (id: k, val: v) from Entity where (k = 5);")
    assert generate_assignable_set(p.query(1), db).rows == frozenset({(5, 35)})
    assert sorted(db.indexes) == [("Entity", "id"), ("Org", "id"), ("Person", "id")]
    assert db.extents == {}


def test_verify_all_builds_no_class_extent():
    """Verification reads the tables, not class extents, even for
    ``from Entity``, whose extent is the union of three tables."""
    server, p, db = long_shaped_instance()
    assert any(ref.names == ("Entity",) for q in p.queries() for ref in q.class_refs)
    report = verify_all(p, server, db, conflicts_for(p, server))
    assert report.entries
    assert db.extents == {}
    assert class_extent(db, "Entity").rows
    assert list(db.extents) == ["Entity"]


@pytest.mark.parametrize("where", [
    "(k = 'x')",
    "(v = 'x') (k = 4)",
    "(v.year = 2009) (k = 4)",
    "(v < 2009-01-31) (k = 4)",
])
def test_key_lookup_keeps_incomparable_tag_errors(where):
    """When a where condition can raise, the extent is scanned as without
    the index: Person 4's val is null, so a lookup alone would read no
    row that raises."""
    _server, _p, db = long_shaped_instance()
    p = parse_protocol(f"get (id: k, val: v) from Person where {where};")
    with pytest.raises(IncomparableTagsError):
        generate_assignable_set(p.query(1), db)


# --- identity of outcomes ---

def _step_traces(p, db, per_query):
    """Raw step traces: every prefix of the first reaching executions of
    each query, as the oracle enumerates them."""
    out_vars = {q.id: q.output_variables() for q in p.queries()}
    for q in p.queries() if per_query else ():
        for trace in enumerate_reaching_traces(p, db, q.id).traces[:per_query]:
            for length in range(1, len(trace.entries) + 1):
                yield [
                    {"queryId": qid, "answer": None if ans is None else {
                        v: values.value_to_json(x) for v, x in zip(out_vars[qid], ans)
                    }}
                    for qid, ans in trace.entries[:length]
                ]


# Key lookups over long_shaped_instance's int tables: a decimal literal
# that equals an int key, a literal on the left, two lookups in one query,
# a null key test, and literals whose tags an int column cannot compare.
KEY_LOOKUP_PROTOCOLS = (
    "get (id: k, val: v) from Person where (k = 5.0);\n"
    "if (v > 3) { get (ghost: g) from Missing; }\n",
    "get (id: k, val: v) from Entity where (4 = k);\n"
    "get (id: j, age: a) from Person where (j = 7) (a >= v);\n"
    "if (a != null) { get (ghost: g) from Missing; }\n",
    "get (id: k, val: v) from Entity where (k = 2) (v = 14);\n"
    "get (id: j, size: s) from Org where (j = k) (s = null);\n"
    "if (s = null) { get (ghost: g) from Missing; }\n",
    "get (id: k, val: v) from Person where (k = 'x');\n"
    "if (v > 3) { get (ghost: g) from Missing; }\n",
    "get (id: k, val: v) from Person where (k = 3) (v = 2009-01-31);\n"
    "if (v > 3) { get (ghost: g) from Missing; }\n",
    "get (id: k, val: v) from Person where (k = 3) (v.year = 2009);\n"
    "if (v > 3) { get (ghost: g) from Missing; }\n",
    # A known defect: a where-clause and a guard over a variable bound in
    # both arms (KeyError, and the conservative note).
    "get (id: k, val: v) from Entity where (k = 3);\n"
    "if (v > 10) { get (id: j, age: a) from Person where (j = 4); }\n"
    "else { get (age: a) from Person where (a = 6); }\n"
    "get (id: m) from Entity where (m = a);\n"
    "if (a > 1) { get (ghost: g) from Missing; }\n"
    "get (id: n) from Entity where (n = 2);\n"
    "if (a != null) { get (ghost: h) from Missing; }\n",
)


def _engine_cases():
    """(server, protocol, database, step traces per query) in a fixed order."""
    for seed in range(120):
        inst = make_instance(random.Random(seed), force_branch=seed % 2 == 1)
        yield inst.server, inst.ast, inst.db, 2
    server, long_shaped, long_db = long_shaped_instance()
    yield server, long_shaped, long_db, 1
    for text in KEY_LOOKUP_PROTOCOLS:
        yield server, parse_protocol(text), long_db, 0
    for text in MEMO_PROTOCOLS:
        ast = parse_protocol(text)
        for seed in range(20):
            db = _memo_database(random.Random(seed))
            yield db.ontology, ast, db, 2 if seed < 5 else 0


ENGINE_DIGEST = "1386aafbb4e080ef710ad7f62b6ec141dfeaadfdde69f14e73ef565900016439"


def test_engine_outcomes_match_golden_digest():
    """Every static and step verdict, or the exception raised instead,
    under both combinations, over a fixed set of instances and traces."""
    h = hashlib.sha256()
    for server, p, db, per_query in _engine_cases():
        conflicts = conflicts_for(p, server)
        traces = [[]] + list(_step_traces(p, db, per_query))
        for combination in (CONJUNCTION, DISJUNCTION):
            h.update(_outcome(
                lambda: verify_all(p, server, db, conflicts, combination)).encode())
            for raw in traces:
                h.update(_outcome(lambda: step_verify(
                    p, server, db, conflicts, parse_trace(raw, p, db), combination,
                )).encode())
    assert h.hexdigest() == ENGINE_DIGEST


# --- least extension per kept part ---

def _product_extend(states, q, fresh, keep, ctx, db):
    """Reference for ``_extend``: every state paired with every answer
    row of its bucket, with a sort key built for each pair."""
    answers = spuriousness._answers(q, fresh, ctx, db)
    a_cols, buckets, deferred = answers.columns, answers.buckets, answers.deferred
    fresh_at = [i for i, v in enumerate(a_cols) if v in fresh]
    probe_at = [states.live.index(a_cols[i]) for i in answers.shared]
    wide_cols = states.live + fresh
    keep_at = [wide_cols.index(v) for v in keep]
    where = [protocol.compile_condition(c, states.live + a_cols) for c in deferred]
    next_states = {}
    for key, (sort_key, row) in states.smallest.items():
        probe = tuple(key[j] for j in probe_at)
        extensions = set()
        if None not in probe:
            for arow in buckets.get(probe, ()):
                if where and not all(pred(key + arow) for pred in where):
                    continue
                extensions.add(tuple(arow[i] for i in fresh_at))
        if not extensions:
            extensions.add((None,) * len(fresh_at))
        for ext in extensions:
            wide = key + ext
            next_key = tuple(wide[i] for i in keep_at)
            ext_sort_key = sort_key + tuple(values.sort_key(v) for v in ext)
            best = next_states.get(next_key)
            if best is None or ext_sort_key < best[0]:
                next_states[next_key] = (ext_sort_key, row + ext)
    return spuriousness.ReachingStates(states.columns + fresh, keep, next_states)


# Deferred where-conditions over earlier variables, over a table whose
# a2 column holds two ints past 2**53 that differ by one, which a sort key
# through ``float`` would tie.
BIG = 2**53 + 4
TIE_PROTOCOL = (
    "get (a1: x, a2: y) from T;\n"
    "get (a1: u, a2: w) from T where (u >= x) (w != y);\n"
    "if (x = 1) { get (ghost: g) from Missing; }\n"
    "get (a1: z) from T where (z < u);\n"
    "if (z != null) { get (ghost: h) from Missing; }\n"
)


def _tie_database():
    server = parse_ontology({"classes": [{"name": "T", "dataProperties": ["a1", "a2"]}]})
    rows = frozenset({(1, BIG), (1, BIG + 1), (2, BIG + 1), (2, 5), (3, BIG), (None, 4),
                      (10, 0)})
    return Database({"T": Relation(("a1", "a2"), ("int", "int"), rows, "T")},
                    server, {"a1": "int", "a2": "int"})


def _states_or_error(extend, *args):
    try:
        got = extend(*args)
    except Exception as exc:  # the error is part of the step's outcome
        return f"{type(exc).__name__}: {exc}"
    return got.columns, got.live, list(got.smallest.items())


def test_extension_step_matches_the_product_reference(monkeypatch):
    """Each step's states (keys in order, sort keys and rows), or the
    error it raises, are those of pairing every state with every answer
    of its bucket."""
    real = spuriousness._extend
    seen = {"steps": 0, "deferred": 0}
    mismatched = []

    def compare(*args):
        got = _states_or_error(real, *args)
        if got != _states_or_error(_product_extend, *args):
            mismatched.append((args[1], got))
        _states, q, _fresh, _keep, ctx, _db = args
        seen["steps"] += 1
        answers = ctx.answers.get(q.id)
        seen["deferred"] += bool(answers and answers.deferred)
        return real(*args)

    monkeypatch.setattr(spuriousness, "_extend", compare)
    cases = []
    for seed in range(400):
        inst = make_instance(random.Random(seed), force_branch=seed % 2 == 1)
        cases.append((inst.server, inst.ast, inst.db))
    server, long_shaped, long_db = long_shaped_instance()
    cases.append((server, long_shaped, long_db))
    tie_db = _tie_database()
    cases.append((tie_db.ontology, parse_protocol(TIE_PROTOCOL), tie_db))
    for text in MEMO_PROTOCOLS:
        for seed in range(20):
            db = _memo_database(random.Random(seed))
            cases.append((db.ontology, parse_protocol(text), db))
    for server, p, db in cases:
        conflicts = conflicts_for(p, server)
        for combination in (CONJUNCTION, DISJUNCTION):
            _outcome(lambda: verify_all(p, server, db, conflicts, combination))
    assert mismatched == []
    assert seen["steps"] > 1000
    assert seen["deferred"] > 100


def deep_shaped_instance(k=4):
    """k independent ``get (a1: xi, a2: yi) from T`` queries over 12 rows
    (a1 = 0..5, twice each; a2 distinct), then ``if (x0 = v)`` guards
    for v = 2 (twice present) and 9 (absent)."""
    server = parse_ontology({"classes": [{"name": "T", "dataProperties": ["a1", "a2"]}]})
    rows = frozenset((i // 2, 20 + 7 * i % 13) for i in range(12))
    db = Database({"T": Relation(("a1", "a2"), ("int", "int"), rows, "T")},
                  server, {"a1": "int", "a2": "int"})
    text = "".join(f"get (a1: x{i}, a2: y{i}) from T;\n" for i in range(k)) + (
        "if (x0 = 2) { get (ghost: g) from Missing; }\n"
        "if (x0 = 9) { get (ghost: h) from Missing; }\n"
    )
    return server, parse_protocol(text), db, sorted(rows)


def test_extension_work_is_answers_plus_states_times_kept_parts(monkeypatch):
    """A step computes at most one sort key per answer row and meets each
    state once per kept part, where pairing every state with every row
    would take states x rows; the verdicts and the witness are the
    closed form's."""
    server, p, db, rows = deep_shaped_instance()
    calls = []
    steps = []
    real_row_key, real_extend = spuriousness._row_key, spuriousness._extend

    def counting_row_key(row):
        calls.append(row)
        return real_row_key(row)

    def counting_extend(states, q, fresh, keep, ctx, db):
        before = len(calls)
        nxt = real_extend(states, q, fresh, keep, ctx, db)
        answers = ctx.answers[q.id]
        rows = [row for bucket in answers.buckets.values() for row in bucket]
        kept = [answers.columns.index(v) for v in keep if v in fresh]
        parts = {tuple(row[i] for i in kept) for row in rows}
        steps.append((len(calls) - before, len(rows), len(states.smallest), len(parts)))
        return nxt

    monkeypatch.setattr(spuriousness, "_row_key", counting_row_key)
    monkeypatch.setattr(spuriousness, "_extend", counting_extend)
    report = verify_all(p, server, db, conflicts_for(p, server))
    assert len(steps) == 4
    assert sum(n_states for _, _, n_states, _ in steps) > 4
    for n_calls, n_rows, n_states, n_parts in steps:
        assert n_calls <= n_rows + n_states * n_parts
    realizable, spurious = report.entries
    assert (realizable.verdict, spurious.verdict) == ("realizable", "spurious")
    assert spurious.emptied_at == ("x0",)
    least = rows[0]
    y0 = min(a2 for a1, a2 in rows if a1 == 2)
    assert realizable.witness == {"x0": 2, "y0": y0, **{
        f"{c}{i}": v for i in range(1, 4) for c, v in zip("xy", least)
    }}
