"""Tests for the brute-force execution oracle."""

import datetime
import hashlib
import random

import pytest

from instgen import make_instance
from protoverify import oracle
from protoverify.errors import BoundExceededError
from protoverify.ontology import parse_ontology
from protoverify.oracle import enumerate_reaching_traces, is_reachable
from protoverify.protocol import parse_protocol
from protoverify.relstore import Database, Relation, class_extent


def test_spurious_fixture_has_no_traces(protocol1, pub_db_spurious):
    result = enumerate_reaching_traces(protocol1, pub_db_spurious, 3)
    assert not result.traces
    assert not result.truncated
    assert not is_reachable(protocol1, pub_db_spurious, 3)


def test_realizable_fixture_has_traces(protocol1, pub_db_realizable):
    result = enumerate_reaching_traces(protocol1, pub_db_realizable, 3)
    assert result.traces
    assert is_reachable(protocol1, pub_db_realizable, 3)
    for trace in result.traces:
        env = trace.env_dict()
        assert env["t1"] == "ManualName"
        assert env["t2"] is not None


def test_first_query_always_reached(protocol1, pub_db_spurious):
    result = enumerate_reaching_traces(protocol1, pub_db_spurious, 1)
    assert len(result.traces) == 1
    assert result.traces[0].entries == ()


def test_trace_count_matches_answer_choices(protocol1, pub_db_realizable):
    result = enumerate_reaching_traces(protocol1, pub_db_realizable, 2)
    books = class_extent(pub_db_realizable, "Book")
    assert len(result.traces) == 1  # only the Knuth manual row answers query 1
    assert len(books.rows) > 1


def test_empty_answer_continues_with_null(pub_db_spurious):
    p = parse_protocol(
        "get (title: t, author: a) from Book where (t = 'NoSuchTitle');\n"
        "get (title: u) from Manual;\n"
    )
    result = enumerate_reaching_traces(p, pub_db_spurious, 2)
    assert result.traces
    assert all(t.env_dict()["t"] is None for t in result.traces)


def test_constant_false_guard_unreachable(pub_db_spurious):
    p = parse_protocol("if (1 = 0) { get (title: t) from Book; }")
    assert not is_reachable(p, pub_db_spurious, 1)


def test_unresolvable_class_yields_null_bindings(pub_db_spurious):
    p = parse_protocol(
        "get (title: t) from Pamphlet;\n"
        "if (t = null) { get (title: u) from Book; }\n"
    )
    assert is_reachable(p, pub_db_spurious, 2)


def test_shared_variable_equated(pub_db_spurious):
    p = parse_protocol("get (title: x, author: x) from Book;\nget (title: u) from Book;\n")
    result = enumerate_reaching_traces(p, pub_db_spurious, 2)
    assert result.traces
    assert all(t.env_dict()["x"] is None for t in result.traces)


def test_instantiated_variable_propagates(pub_db_spurious):
    p = parse_protocol(
        "get (title: t1, author: a) from Manual;\n"
        "get (title: t2, author: a) from Book;\n"
        "get (date: d) from Manual;\n"
    )
    result = enumerate_reaching_traces(p, pub_db_spurious, 3)
    assert result.traces
    # no Book shares the Manual's author in the spurious database
    assert all(t.env_dict()["t2"] is None for t in result.traces)


def test_determinism(protocol1, pub_db_realizable):
    a = enumerate_reaching_traces(protocol1, pub_db_realizable, 3)
    b = enumerate_reaching_traces(protocol1, pub_db_realizable, 3)
    assert [t.env_dict() for t in a.traces] == [t.env_dict() for t in b.traces]


def test_bound_exceeded(protocol1, pub_db_spurious):
    """Truncated search with nothing found cannot decide reachability."""
    with pytest.raises(BoundExceededError):
        is_reachable(protocol1, pub_db_spurious, 3, bound=1)


def test_truncation_flag(protocol1, pub_db_realizable):
    result = enumerate_reaching_traces(protocol1, pub_db_realizable, 3, bound=1)
    assert result.truncated


def test_branch_outcomes_recorded(protocol1, pub_db_realizable):
    result = enumerate_reaching_traces(protocol1, pub_db_realizable, 3)
    for trace in result.traces:
        assert (1, True) in trace.branches


# --- identity and memoisation ---

# Protocols in which one query is reached with a variable bound on some
# executions and unbound on others (bound in one arm only, or by a query
# that found no answer), over int and decimal columns, nulls, dates and
# multi-class from lists. instgen's straight-line queries never reach a
# query in both states.
MEMO_PROTOCOLS = (
    "get (a1: x, a4: s) from Base;\n"
    "if (s = 1) { get (a2: z) from Kid1 where (z > 1); }\n"
    "get (a2: z, a3: y) from Kid1 where (y >= x);\n"
    "if (z != null) { get (a1: w, a5: d) from Base, Kid2 where (w = y) (d.year > 2000); }\n"
    "get (ghost: g) from Missing;\n",
    "get (a1: x) from Base where (x <= 1);\n"
    "if (x = null) { do Skip(); } else { get (a4: s) from Base where (s = x); }\n"
    "get (a4: s, a1: t) from Base;\n"
    "get (a2: u, a6: *) from Kid1, Kid2 where (u != t);\n"
    "if (s != null) (u = 1) { get (ghost: g) from Missing; }\n",
)


def _memo_database(rng: random.Random) -> Database:
    server = parse_ontology({"classes": [
        {"name": "Base", "dataProperties": ["a1", "a4"]},
        {"name": "Kid1", "superclasses": ["Base"], "dataProperties": ["a2", "a3"]},
        {"name": "Kid2", "superclasses": ["Base"], "dataProperties": ["a5", "a6"]},
    ]})
    tags = {"a1": "int", "a2": "int", "a3": "decimal", "a4": "int",
            "a5": "date", "a6": "str"}
    domains = {"a1": range(3), "a2": range(3), "a3": (0.0, 1.0, 1.5, 2.0),
               "a4": range(3), "a5": (datetime.date(1999, 5, 1), datetime.date(2009, 1, 31)),
               "a6": ("p", "q")}
    tables = {}
    for name in server.classes:
        cols = tuple(sorted(server.effective_properties(name)))
        rows = frozenset(
            tuple(None if rng.random() < 0.15 else rng.choice(domains[c]) for c in cols)
            for _ in range(rng.randint(0, 4))
        )
        tables[name] = Relation(cols, tuple(tags[c] for c in cols), rows, name)
    return Database(tables, server, tags)


def _digest_cases(seeds=120):
    for seed in range(seeds):
        inst = make_instance(random.Random(seed), force_branch=seed % 2 == 1)
        yield inst.ast, inst.db
    for text in MEMO_PROTOCOLS:
        ast = parse_protocol(text)
        for seed in range(30):
            yield ast, _memo_database(random.Random(seed))


def _outcome(fn) -> str:
    try:
        return repr(fn())
    except Exception as exc:  # the exception is part of the outcome
        return f"{type(exc).__name__}: {exc}"


def _digest(bounds) -> str:
    """SHA-256 over every trace, in order, and every reachability outcome
    or exception of the digest cases, for every query and each bound."""
    h = hashlib.sha256()
    for ast, db in _digest_cases():
        for q in ast.queries():
            for bound in bounds:
                h.update(_outcome(
                    lambda: enumerate_reaching_traces(ast, db, q.id, bound)).encode())
                h.update(_outcome(lambda: is_reachable(ast, db, q.id, bound)).encode())
    return h.hexdigest()


ORACLE_DIGEST = "a64c40d944b39a903faa9820d51d1eec41632039b2d890308eb414d701b1de0d"
FULL_BOUND_DIGEST = "e2a49b9eeb438dc108415d1f41bce632c603f2f16ca85af227e792972ac298b3"


def test_oracle_outcomes_match_golden_digest():
    """Every trace, in order, and every reachability outcome or exception
    over a fixed instance set, every query and several step bounds."""
    assert _digest((1, 2, 3, 4, 5, 10**6)) == ORACLE_DIGEST


def test_full_bound_outcomes_match_golden_digest():
    """At the default bound no search is cut, so dropping the executions
    that leave the target's arm changes no trace and no outcome."""
    assert _digest((10**6,)) == FULL_BOUND_DIGEST


def test_bounded_search_agrees_with_the_full_search():
    """A bounded search that returns a reachability answer returns the
    full-bound one. A bounded enumeration finds a prefix of the full
    enumeration's traces, all of them when it is not cut, and raises
    only what the full enumeration raises."""
    decided = cut = 0
    for ast, db in _digest_cases():
        for q in ast.queries():
            full = _outcome(lambda: is_reachable(ast, db, q.id))
            try:
                everything = enumerate_reaching_traces(ast, db, q.id)
            except Exception as exc:  # the exception is part of the outcome
                everything = f"{type(exc).__name__}: {exc}"
            for bound in (1, 2, 3, 4, 5):
                reachable = _outcome(lambda: is_reachable(ast, db, q.id, bound))
                if not reachable.startswith("BoundExceededError"):
                    assert reachable == full
                    decided += 1
                try:
                    result = enumerate_reaching_traces(ast, db, q.id, bound)
                except Exception as exc:
                    assert f"{type(exc).__name__}: {exc}" == everything
                    continue
                if result.truncated:
                    cut += 1
                    if isinstance(everything, str):
                        continue
                    n = len(result.traces)
                    assert result.traces == everything.traces[:n]
                else:
                    assert result == everything
    assert decided and cut


def test_search_drops_executions_that_leave_the_target_arm():
    """Query 1 answers every row; each answer turns away from query 2's
    arm, so the two queries after the branch never run: one step decides
    that query 2 is unreachable. A target the protocol does not have runs
    nothing."""
    db = _memo_database(random.Random(1))
    ast = parse_protocol(
        "get (a1: x) from Base;\n"
        "if (x = 99) { get (ghost: w) from Missing; }\n"
        "get (a1: y) from Base;\n"
        "get (a4: z) from Base;\n")
    answers = oracle._answers(ast.query(1), {}, db, {})
    assert len(answers) > 1
    assert is_reachable(ast, db, 2, bound=len(answers) + 1) is False
    assert is_reachable(ast, db, 2, bound=1) is False
    assert enumerate_reaching_traces(ast, db, 2, bound=1) == oracle.OracleResult((), False)
    assert enumerate_reaching_traces(ast, db, 5, bound=1) == oracle.OracleResult((), False)


def _read_state(q, env) -> tuple:
    reads = set(q.output_variables()).union(*(c.variables() for c in q.where))
    return (q.id, tuple(sorted(
        (v, v in env, type(env.get(v)).__name__, repr(env.get(v))) for v in reads)))


def test_search_builds_each_extent_and_answer_set_once(monkeypatch):
    """Within one search every class extent is derived once and a query's
    answers are computed once per state of the variables it reads."""
    extent_calls, answer_keys = [], []
    real_extent, real_answers = oracle._extent_rows, oracle._answers

    def counting_extent(db, class_name):
        extent_calls.append(class_name)
        return real_extent(db, class_name)

    def counting_answers(q, env, *rest):
        answer_keys.append(_read_state(q, env))
        return real_answers(q, env, *rest)

    monkeypatch.setattr(oracle, "_extent_rows", counting_extent)
    monkeypatch.setattr(oracle, "_answers", counting_answers)

    # Query 2 reads only its own fresh variable, so every answer of
    # query 1 reaches it in the same state.
    db = _memo_database(random.Random(1))
    ast = parse_protocol("get (a1: x) from Base;\nget (a4: y) from Base;\n"
                         "get (ghost: g) from Missing;\n")
    result = enumerate_reaching_traces(ast, db, 3)
    assert len(result.traces) > 1
    assert extent_calls == ["Base"]
    assert [key[0] for key in answer_keys] == [1, 2]

    for text in MEMO_PROTOCOLS:
        ast = parse_protocol(text)
        for seed in range(30):
            db = _memo_database(random.Random(seed))
            for q in ast.queries():
                extent_calls.clear()
                answer_keys.clear()
                enumerate_reaching_traces(ast, db, q.id)
                assert len(extent_calls) == len(set(extent_calls))
                assert len(answer_keys) == len(set(answer_keys))


def test_shared_memo_matches_fresh_memos():
    """Searches that share one memo, over every query and bound in turn,
    give each search the outcome or exception of a search with its own."""
    for ast, db in _digest_cases(400):
        memo = oracle.Memo(ast, db)
        for bound in (1, 2, 3, 4, 5, 10**6):
            for q in ast.queries():
                shared = _outcome(lambda: is_reachable(ast, db, q.id, bound, memo=memo))
                assert shared == _outcome(lambda: is_reachable(ast, db, q.id, bound))


def test_shared_memo_derives_each_extent_and_answer_set_once(monkeypatch):
    """Across the searches that share a memo, every class extent is
    derived once and a query's answers are computed once per state of
    the variables it reads."""
    extent_calls, answer_keys = [], []
    real_extent, real_answers = oracle._extent_rows, oracle._answers
    monkeypatch.setattr(oracle, "_extent_rows", lambda db, class_name: (
        extent_calls.append(class_name), real_extent(db, class_name))[1])
    monkeypatch.setattr(oracle, "_answers", lambda q, env, *rest: (
        answer_keys.append(_read_state(q, env)), real_answers(q, env, *rest))[1])
    for text in MEMO_PROTOCOLS:
        ast = parse_protocol(text)
        for seed in range(30):
            db = _memo_database(random.Random(seed))
            memo = oracle.Memo(ast, db)
            extent_calls.clear()
            answer_keys.clear()
            for q in ast.queries():
                for bound in (3, 10**6):
                    _outcome(lambda: is_reachable(ast, db, q.id, bound, memo=memo))
            assert len(extent_calls) == len(set(extent_calls))
            assert len(answer_keys) == len(set(answer_keys))


def test_memo_of_another_protocol_or_database_is_refused(protocol1, pub_db_spurious,
                                                         pub_db_realizable):
    memo = oracle.Memo(protocol1, pub_db_spurious)
    assert not is_reachable(protocol1, pub_db_spurious, 3, memo=memo)
    other = parse_protocol("get (title: t) from Book;")
    with pytest.raises(ValueError, match="memo"):
        is_reachable(other, pub_db_spurious, 1, memo=memo)
    with pytest.raises(ValueError, match="memo"):
        is_reachable(protocol1, pub_db_realizable, 3, memo=memo)


def test_prefix_search_matches_enumerated_executions():
    """A search from a prefix reaches the target iff some reaching
    execution agrees with the prefix: it extends the prefix, or arrives
    at the target while the prefix is still being replayed. The prefixes
    are cut from the first two reaching executions of each query."""
    checked = reached = 0
    for ast, db in _digest_cases(400):
        out_vars = {q.id: q.output_variables() for q in ast.queries()}
        executions = {}
        for q in ast.queries():
            result = enumerate_reaching_traces(ast, db, q.id)
            assert not result.truncated
            executions[q.id] = [
                tuple((qid, None if ans is None else dict(zip(out_vars[qid], ans)))
                      for qid, ans in t.entries)
                for t in result.traces
            ]
        prefixes = {repr(e[:n]): e[:n] for runs in executions.values()
                    for e in runs[:2] for n in range(len(e) + 1)}
        memo = oracle.Memo(ast, db)
        for prefix in prefixes.values():
            for q in ast.queries():
                expected = any(e[:len(prefix)] == prefix[:len(e)] for e in executions[q.id])
                assert is_reachable(ast, db, q.id, memo=memo, prefix=prefix) == expected
                checked += 1
                reached += expected
    assert 0 < reached < checked


def test_prefix_replay_counts_toward_the_bound(protocol1, pub_db_realizable):
    """Each replayed query is a step, so a bound of one cannot replay a
    one-entry prefix and then run query 2."""
    prefix = [(1, {"t1": "ManualName", "a": "Knuth", "d1": datetime.date(1973, 1, 1)})]
    assert is_reachable(protocol1, pub_db_realizable, 2, bound=1, prefix=prefix)
    assert is_reachable(protocol1, pub_db_realizable, 3, bound=2, prefix=prefix)
    with pytest.raises(BoundExceededError):
        is_reachable(protocol1, pub_db_realizable, 3, bound=1, prefix=prefix)


def test_prefix_answer_is_taken_as_given(protocol1, pub_db_realizable):
    """An answer the database cannot give is still replayed: an author
    with no Book leaves query 3 unreachable, and a prefix that names
    another query than the one that runs next is followed by no
    execution."""
    nobody = {"t1": "ManualName", "a": "Nobody", "d1": datetime.date(1973, 1, 1)}
    assert is_reachable(protocol1, pub_db_realizable, 3)
    assert not is_reachable(protocol1, pub_db_realizable, 3, prefix=[(1, nobody)])
    assert not is_reachable(protocol1, pub_db_realizable, 2, prefix=[(2, None)])
    # An unanswered query 1 nulls its variables, so query 2 finds no Book
    # by a null author and the guard on t2 fails.
    assert not is_reachable(protocol1, pub_db_realizable, 3, prefix=[(1, None)])
