"""End-to-end tests of the command-line interface."""

import gc
import inspect
import json

import pytest

from protoverify import cli, oracle, values
from protoverify.cli import main
from protoverify.protocol import MAX_NESTING

from conftest import FIXTURES

PUB_SERVER = str(FIXTURES / "pub-server.json")
PUB_CLIENT = str(FIXTURES / "pub-client.json")
AUTO_SERVER = str(FIXTURES / "auto-server.json")
PROTOCOL1 = str(FIXTURES / "protocol1.pv")
PROTOCOL2 = str(FIXTURES / "protocol2.pv")
DB_SPURIOUS = str(FIXTURES / "pub-db-spurious")
DB_REALIZABLE = str(FIXTURES / "pub-db-realizable")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_reports_mismatch(capsys):
    code, out, _err = run(
        capsys, "check", "--server", PUB_SERVER, "--protocol", PROTOCOL1
    )
    assert code == 1
    assert "Proceedings" in out


def test_check_json(capsys):
    code, out, _err = run(
        capsys,
        "check",
        "--server",
        PUB_SERVER,
        "--protocol",
        PROTOCOL1,
        "--format",
        "json",
    )
    assert code == 1
    payload = json.loads(out)
    assert payload == [
        {
            "kind": "SpecializationMismatch",
            "queryId": 3,
            "path": "Book.Proceedings",
            "details": {"failedAt": 1, "failedClass": "Proceedings"},
        }
    ]


def test_check_clean_exit_zero(capsys):
    code, _out, _err = run(
        capsys, "check", "--server", PUB_CLIENT, "--protocol", PROTOCOL1
    )
    assert code == 0


def test_check_accepts_client_ontology(capsys):
    code, _out, _err = run(
        capsys,
        "check",
        "--server",
        PUB_SERVER,
        "--client",
        PUB_CLIENT,
        "--protocol",
        PROTOCOL1,
    )
    assert code == 1


def test_check_missing_file_exit_two(capsys):
    code, _out, err = run(
        capsys, "check", "--server", "nope.json", "--protocol", PROTOCOL1
    )
    assert code == 2
    assert err


def test_check_fail_fast(capsys):
    code, out, _err = run(
        capsys,
        "check",
        "--server",
        PUB_SERVER,
        "--protocol",
        PROTOCOL1,
        "--fail-fast",
        "--format",
        "json",
    )
    assert code == 1
    assert len(json.loads(out)) == 1


def test_verify_db_spurious_exit_zero(capsys):
    code, out, _err = run(
        capsys,
        "verify-db",
        "--server",
        PUB_SERVER,
        "--protocol",
        PROTOCOL1,
        "--db",
        DB_SPURIOUS,
        "--format",
        "json",
    )
    assert code == 0
    (entry,) = json.loads(out)
    assert entry["verdict"] == "spurious"
    assert entry["emptiedAt"] == ["t2"]


def test_verify_db_realizable_exit_one(capsys):
    code, out, _err = run(
        capsys,
        "verify-db",
        "--server",
        PUB_SERVER,
        "--protocol",
        PROTOCOL1,
        "--db",
        DB_REALIZABLE,
        "--format",
        "json",
    )
    assert code == 1
    (entry,) = json.loads(out)
    assert entry["verdict"] == "realizable"
    assert entry["witness"]["t2"] == "TAOCP"


def test_verify_db_oracle_agreement(capsys):
    for db in (DB_SPURIOUS, DB_REALIZABLE):
        _code, out, _err = run(
            capsys,
            "verify-db",
            "--server",
            PUB_SERVER,
            "--protocol",
            PROTOCOL1,
            "--db",
            db,
            "--oracle",
            "--format",
            "json",
        )
        (entry,) = json.loads(out)
        assert entry["oracleAgrees"] is True


def test_verify_db_schema_drift_exit_two(capsys, tmp_path):
    import shutil

    shutil.copytree(DB_SPURIOUS, tmp_path / "db")
    (tmp_path / "db" / "Book.csv").write_text("title,author,extra\n")
    code, _out, err = run(
        capsys,
        "verify-db",
        "--server",
        PUB_SERVER,
        "--protocol",
        PROTOCOL1,
        "--db",
        str(tmp_path / "db"),
    )
    assert code == 2
    assert err


def test_json_output_byte_stable(capsys):
    outputs = set()
    for _ in range(2):
        _code, out, _err = run(
            capsys,
            "verify-db",
            "--server",
            PUB_SERVER,
            "--protocol",
            PROTOCOL1,
            "--db",
            DB_REALIZABLE,
            "--format",
            "json",
        )
        outputs.add(out)
    assert len(outputs) == 1


def test_step_empty_trace_matches_verify_db(capsys, tmp_path):
    trace = tmp_path / "trace.json"
    trace.write_text("[]")
    _c1, verify_out, _ = run(
        capsys,
        "verify-db",
        "--server",
        PUB_SERVER,
        "--protocol",
        PROTOCOL1,
        "--db",
        DB_SPURIOUS,
        "--format",
        "json",
    )
    c2, step_out, _ = run(
        capsys,
        "step",
        "--server",
        PUB_SERVER,
        "--protocol",
        PROTOCOL1,
        "--db",
        DB_SPURIOUS,
        "--trace",
        str(trace),
        "--format",
        "json",
    )
    assert c2 == 0
    assert step_out == verify_out


def test_step_pruned_branch_exit_zero(capsys, tmp_path):
    trace = tmp_path / "trace.json"
    trace.write_text(
        json.dumps(
            [
                {
                    "queryId": 1,
                    "answer": {
                        "t1": "ManualName",
                        "a": "Knuth",
                        "d1": "1973-01-01",
                    },
                },
                {
                    "queryId": 2,
                    "answer": None,
                    "branch": {"index": 1, "taken": False},
                },
            ]
        )
    )
    code, out, _err = run(
        capsys,
        "step",
        "--server",
        PUB_SERVER,
        "--protocol",
        PROTOCOL1,
        "--db",
        DB_REALIZABLE,
        "--trace",
        str(trace),
        "--format",
        "json",
    )
    assert code == 0
    assert json.loads(out) == []


def test_step_oracle_replays_the_trace_prefix(capsys, tmp_path):
    """Query 1 answers an author who wrote no Book, so query 3 is
    spurious after this prefix although the database alone can reach it;
    the oracle searches from the prefix and agrees."""
    trace = tmp_path / "trace.json"
    trace.write_text(json.dumps([
        {"queryId": 1, "answer": {"t1": "ManualName", "a": "Nobody", "d1": "1973-01-01"}},
    ]))
    code, out, err = run(
        capsys, "step", "--server", PUB_SERVER, "--protocol", PROTOCOL1,
        "--db", DB_REALIZABLE, "--oracle", "--trace", str(trace),
    )
    assert (code, err) == (0, "")
    assert out == (
        "query 3: spurious (assignable set emptied at ['t2']) [oracle agrees: True]\n"
    )
    # Without the prefix the database reaches query 3.
    trace.write_text("[]")
    _code, out, _err = run(
        capsys, "step", "--server", PUB_SERVER, "--protocol", PROTOCOL1,
        "--db", DB_REALIZABLE, "--oracle", "--trace", str(trace),
    )
    assert out.startswith("query 3: realizable") and "[oracle agrees: True]" in out


def test_step_unanswered_query_nulls_its_unbound_outputs(capsys, tmp_path):
    """Query 3 binds ``y`` in the else arm, although query 2 in the then
    arm binds it first in the text. Unanswered, query 3 leaves ``y``
    null, as in the oracle, so branch 2 is decided false: conflict 4 is
    pruned and query 5, answered in the trace, is already reached."""
    server, db = base_db(tmp_path)
    (tmp_path / "db" / "Base.csv").write_text("a1,a2,name,price\n1,5,x,1.0\n2,5,y,2.5\n")
    protocol = tmp_path / "p.pv"
    protocol.write_text(
        "get (a1: x) from Base;\n"
        "if (x = 1) { get (a2: y) from Base; } else { get (a2: y) from Base; }\n"
        "if (y = 7) { get (ghost: w) from Missing; }\n"
        "get (ghost: w2) from Missing;\n"
    )
    trace = tmp_path / "trace.json"
    trace.write_text(json.dumps([
        {"queryId": 1, "answer": {"x": 2}},
        {"queryId": 3, "answer": None},
        {"queryId": 5, "answer": None},
    ]))
    code, out, err = run(
        capsys, "step", "--server", server, "--protocol", str(protocol),
        "--db", db, "--trace", str(trace), "--oracle",
    )
    assert (code, err) == (1, "")
    assert out == (
        "query 5: realizable (witness {}) [oracle agrees: True]"
        " -- conflicting query already reached in trace\n"
    )


THREE_CONFLICTS = (
    "get (title: t1, author: a) from Book;\n"
    "get (title: t2, date: d) from Book.Proceedings where (t2 = t1);\n"
    "if (t1 != null) { get (title: t3) from Book.Proceedings; }\n"
    "get (title: t4, author: a) from Book.Proceedings;\n"
)


def test_verify_db_oracle_derives_each_extent_once(capsys, tmp_path, monkeypatch):
    """The oracle's searches for one call's three conflicts share one
    memo, so each class extent is derived at most once in the call."""
    derived = []
    real = oracle._extent_rows
    monkeypatch.setattr(oracle, "_extent_rows", lambda db, class_name: (
        derived.append(class_name), real(db, class_name))[1])
    protocol = tmp_path / "three.pv"
    protocol.write_text(THREE_CONFLICTS)
    code, out, _err = run(
        capsys, "verify-db", "--server", PUB_SERVER, "--protocol", str(protocol),
        "--db", DB_REALIZABLE, "--oracle", "--format", "json",
    )
    assert code == 1
    payload = json.loads(out)
    assert [e["queryId"] for e in payload] == [2, 3, 4]
    assert all(e["oracleAgrees"] is True for e in payload)
    assert sorted(derived) == sorted(set(derived)) == ["Book", "Proceedings"]


def test_step_inconsistent_trace_exit_two(capsys, tmp_path):
    trace = tmp_path / "trace.json"
    trace.write_text(
        json.dumps(
            [
                {
                    "queryId": 1,
                    "answer": {
                        "t1": "WrongTitle",
                        "a": "Knuth",
                        "d1": "1973-01-01",
                    },
                }
            ]
        )
    )
    code, _out, err = run(
        capsys,
        "step",
        "--server",
        PUB_SERVER,
        "--protocol",
        PROTOCOL1,
        "--db",
        DB_SPURIOUS,
        "--trace",
        str(trace),
    )
    assert code == 2
    assert err


def test_parse_roundtrip(capsys):
    code, out, _err = run(capsys, "parse", "--protocol", PROTOCOL1)
    assert code == 0
    code2, out2 = run_text(capsys, out)
    assert code2 == 0
    assert out2 == out


def run_text(capsys, text):
    import tempfile

    with tempfile.NamedTemporaryFile("w", suffix=".pv", delete=False) as fh:
        fh.write(text)
        path = fh.name
    return run(capsys, "parse", "--protocol", path)[:2]


def test_parse_syntax_error_exit_two(capsys, tmp_path):
    bad = tmp_path / "bad.pv"
    bad.write_text("get (title t) from Book;")
    code, _out, err = run(capsys, "parse", "--protocol", str(bad))
    assert code == 2
    assert "line 1" in err


def nested_conflict(tmp_path, depth):
    """A conflicting query inside ``depth`` nested ifs."""
    path = tmp_path / f"nested{depth}.pv"
    path.write_text(
        "get (title: t) from Book;\n"
        + "if (t != null) {\n" * depth
        + "get (title: u) from Book.Proceedings;\n"
        + "}\n" * depth
    )
    return str(path)


def test_deep_nesting_exit_two(capsys, tmp_path):
    deep = nested_conflict(tmp_path, 600)
    for argv in (
        ("parse", "--protocol", deep),
        ("verify-db", "--server", PUB_SERVER, "--protocol", deep,
         "--db", DB_REALIZABLE),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "nested" in err and "Traceback" not in err


def test_deepest_nesting_verifies_with_oracle(capsys, tmp_path):
    code, out, _err = run(
        capsys, "verify-db", "--server", PUB_SERVER,
        "--protocol", nested_conflict(tmp_path, MAX_NESTING),
        "--db", DB_REALIZABLE, "--oracle", "--format", "json",
    )
    assert code == 1
    (entry,) = json.loads(out)
    assert entry["verdict"] == "realizable" and entry["oracleAgrees"] is True


def test_parse_json(capsys):
    code, out, _err = run(
        capsys, "parse", "--protocol", PROTOCOL1, "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    kinds = [next(iter(s)) for s in payload]
    assert kinds == ["query", "query", "if"]
    assert payload[0]["query"]["id"] == 1


def test_paper_disjunction_flag_accepted(capsys):
    code, _out, _err = run(
        capsys,
        "verify-db",
        "--server",
        PUB_SERVER,
        "--protocol",
        PROTOCOL1,
        "--db",
        DB_SPURIOUS,
        "--paper-disjunction",
    )
    assert code == 0


def test_check_protocol2(capsys):
    code, out, _err = run(
        capsys,
        "check",
        "--server",
        AUTO_SERVER,
        "--protocol",
        PROTOCOL2,
        "--format",
        "json",
    )
    assert code == 1
    (entry,) = json.loads(out)
    assert entry["kind"] == "UnmatchedVariables"
    assert entry["details"]["variables"] == [
        {"attribute": "Color", "variable": "col"}
    ]


def test_step_decision_for_missing_branch_exit_two(capsys, tmp_path):
    """protocol1 has one branch; a decision for branch 9 is an error
    that names the branch and the trace entry, not a decision ignored."""
    trace = tmp_path / "trace.json"
    trace.write_text(json.dumps(
        [{"queryId": 1, "answer": None, "branch": {"index": 9, "taken": True}}]
    ))
    code, out, err = run(
        capsys, "step", "--server", PUB_SERVER, "--protocol", PROTOCOL1,
        "--db", DB_REALIZABLE, "--trace", str(trace),
    )
    assert (code, out) == (2, "")
    assert "trace entry 0 decides branch 9" in err


def test_step_decision_for_unreached_branch_exit_two(capsys, tmp_path):
    """The trace stops before protocol1's branch, so a decision for it can
    be neither checked nor applied: an error, not a verdict."""
    trace = tmp_path / "trace.json"
    trace.write_text(json.dumps([{
        "queryId": 1,
        "answer": {"t1": "ManualName", "a": "Knuth", "d1": "1973-01-01"},
        "branch": {"index": 1, "taken": False},
    }]))
    code, out, err = run(
        capsys, "step", "--server", PUB_SERVER, "--protocol", PROTOCOL1,
        "--db", DB_REALIZABLE, "--trace", str(trace),
    )
    assert (code, out) == (2, "")
    assert "trace entry 0 decides branch 1, which the trace never reaches" in err


def test_verify_db_duplicate_attribute_exit_two(capsys, tmp_path):
    protocol = tmp_path / "dup.pv"
    protocol.write_text(
        "get (title: x, title: y) from Book;\n"
        "if (x != null) { get (title: c) from Book.Proceedings; }\n"
    )
    code, out, err = run(
        capsys, "verify-db", "--server", PUB_SERVER, "--protocol", str(protocol),
        "--db", DB_REALIZABLE,
    )
    assert (code, out) == (2, "")
    assert "duplicate column in relation 'Book'" in err


def test_step_branch_without_index_exit_two(capsys, tmp_path):
    trace = tmp_path / "trace.json"
    trace.write_text(
        json.dumps(
            [
                {
                    "queryId": 1,
                    "answer": {"t1": "ManualName", "a": "Knuth", "d1": "1973-01-01"},
                },
                {"queryId": 2, "answer": None, "branch": {"taken": False}},
            ]
        )
    )
    code, _out, err = run(
        capsys,
        "step",
        "--server",
        PUB_SERVER,
        "--protocol",
        PROTOCOL1,
        "--db",
        DB_REALIZABLE,
        "--trace",
        str(trace),
    )
    assert code == 2
    assert "'branch'" in err


def test_check_string_data_properties_exit_two(capsys, tmp_path):
    server = tmp_path / "server.json"
    server.write_text(
        json.dumps({"classes": [{"name": "Base", "dataProperties": "abc"}]})
    )
    protocol = tmp_path / "p.pv"
    protocol.write_text("get (a: x, c: y) from Base;")
    code, _out, err = run(
        capsys, "check", "--server", str(server), "--protocol", str(protocol)
    )
    assert code == 2
    assert "dataProperties" in err


@pytest.mark.parametrize(
    "doc, words",
    [
        ({"classes": [{"name": 5}]}, ("class name 5",)),
        ({"classes": [{"name": ["A"]}]}, ("class name ['A']",)),
        ({"classes": [{"name": "Base"}], "aliases": [1]}, ("aliases",)),
        ({"classes": [{"name": "Base"}], "aliases": {"B": 1}}, ("aliases",)),
        ({"classes": [{"name": "Base", "abstract": "no"}]}, ("abstract", "'Base'")),
        ({"classes": [{"name": "A", "objectProperties": {"p": ["A"]}}]},
         ("objectProperties", "'A'")),
        ({"classes": 5}, ("'classes' array",)),
    ],
)
def test_check_malformed_class_fields_exit_two(capsys, tmp_path, doc, words):
    server = tmp_path / "server.json"
    server.write_text(json.dumps(doc))
    assert_input_error(
        run(capsys, "check", "--server", str(server), "--protocol", PROTOCOL1), *words
    )


def base_db(tmp_path):
    """A one-class server whose attributes carry int, decimal and str
    tags, with its data directory."""
    server = tmp_path / "server.json"
    server.write_text(
        json.dumps(
            {"classes": [{"name": "Base", "dataProperties": ["a1", "a2", "name", "price"]}]}
        )
    )
    db = tmp_path / "db"
    db.mkdir()
    (db / "manifest.json").write_text(
        json.dumps(
            {"Base": {"a1": "int", "a2": "int", "name": "str", "price": "decimal"}}
        )
    )
    (db / "Base.csv").write_text("a1,a2,name,price\n1,7,x,1.0\n2,3,y,2.5\n")
    return str(server), str(db)


def verify_rebinding(capsys, tmp_path, attr):
    server, db = base_db(tmp_path)
    protocol = tmp_path / "p.pv"
    protocol.write_text(
        f"get (a1: x) from Base; get ({attr}: x, a2: y) from Base;\n"
        "if (y = 7) { get (ghost: g) from Missing; }\n"
    )
    return run(
        capsys, "verify-db", "--server", server, "--protocol", str(protocol),
        "--db", db, "--oracle", "--format", "json",
    )


def test_verify_db_incomparable_rebinding_exit_two(capsys, tmp_path):
    code, out, err = verify_rebinding(capsys, tmp_path, "name")
    assert code == 2
    assert out == ""
    assert "'x'" in err


def test_verify_db_int_decimal_rebinding_gets_verdict(capsys, tmp_path):
    code, out, _err = verify_rebinding(capsys, tmp_path, "price")
    assert code == 1
    (entry,) = json.loads(out)
    assert entry["verdict"] == "realizable"
    assert entry["oracleAgrees"] is True


def test_verify_db_joins_int_with_decimal_binding(capsys, tmp_path):
    """One query binds ``x`` to an int and a decimal attribute of two
    classes; the join matches 1 with 1.0, as the same binding split over
    two queries does, and the oracle agrees."""
    server, db = base_db(tmp_path)
    (tmp_path / "server.json").write_text(json.dumps({"classes": [
        {"name": "Base", "dataProperties": ["a1", "a2", "name", "price"]},
        {"name": "Other", "dataProperties": ["b1"]},
    ]}))
    (tmp_path / "db" / "manifest.json").write_text(json.dumps({
        "Base": {"a1": "int", "a2": "int", "name": "str", "price": "decimal"},
        "Other": {"b1": "decimal"},
    }))
    (tmp_path / "db" / "Other.csv").write_text("b1\n1.0\n3.5\n")
    protocol = tmp_path / "p.pv"
    for text in ("get (a1: x, b1: x) from Base, Other;",
                 "get (a1: x) from Base; get (b1: x) from Other;"):
        protocol.write_text(text + "\nif (x = 1) { get (ghost: g) from Missing; }\n")
        code, out, err = run(
            capsys, "verify-db", "--server", server, "--protocol", str(protocol),
            "--db", db, "--oracle",
        )
        assert (code, err) == (1, "")
        assert out.endswith(": realizable (witness {'x': 1}) [oracle agrees: True]\n")


def write_instance(tmp_path, classes, tables, protocol):
    """Server, data directory and protocol files for ``classes`` (name ->
    int attributes) and ``tables`` (name -> rows)."""
    server = tmp_path / "server.json"
    server.write_text(json.dumps({"classes": [
        {"name": name, "dataProperties": attrs} for name, attrs in classes.items()
    ]}))
    db = tmp_path / "db"
    db.mkdir()
    (db / "manifest.json").write_text(json.dumps(
        {name: {a: "int" for a in attrs} for name, attrs in classes.items()}))
    for name, rows in tables.items():
        lines = [",".join(classes[name])] + [",".join(map(str, row)) for row in rows]
        (db / f"{name}.csv").write_text("\n".join(lines) + "\n")
    path = tmp_path / "p.pv"
    path.write_text(protocol)
    return ["--server", str(server), "--protocol", str(path), "--db", str(db)]


def test_verify_db_oracle_ignores_executions_that_left_the_conflict_arm(capsys, tmp_path):
    """Guard 2 compares an int with a string, which raises. Every
    execution that evaluates it has already left conflict 2's arm, so the
    oracle never evaluates it and agrees with the spurious verdict."""
    args = write_instance(
        tmp_path, {"Base": ["a1", "a4"]}, {"Base": [(0, 2)]},
        "get (a1: x) from Base; if (x = 7) { get (ghost: w) from Missing; }\n"
        "if (x = 'p') { get (a4: y) from Base; }\n",
    )
    expected = "query 2: spurious (assignable set emptied at ['x'])"
    assert run(capsys, "verify-db", *args) == (0, expected + "\n", "")
    assert run(capsys, "verify-db", *args, "--oracle") == (
        0, expected + " [oracle agrees: True]\n", "")


@pytest.mark.parametrize("b_rows, expected", [
    ([], "query 2: spurious (assignable set emptied at ['x']) [oracle agrees: True]\n"),
    ([(5,)], "query 2: realizable (witness {'x': 1}) [oracle agrees: True]\n"),
], ids=["empty", "one-row"])
def test_verify_db_class_binding_no_variable_joins_by_its_extent(capsys, tmp_path,
                                                                  b_rows, expected):
    """``B`` binds no variable of query 1, so it contributes no column;
    its extent still empties the answers when it has no row."""
    args = write_instance(
        tmp_path, {"A": ["a"], "B": ["b"]}, {"A": [(1,), (2,)], "B": b_rows},
        "get (a: x) from A, B; if (x = 1) { get (ghost: w) from Missing; }\n",
    )
    code, out, err = run(capsys, "verify-db", *args, "--oracle")
    assert (code, out, err) == (1 if b_rows else 0, expected, "")


def test_verify_db_oracle_on_long_protocol(capsys, tmp_path):
    """The oracle walks a 1,200-query protocol without recursing per
    statement, and stops at the first execution reaching the conflict."""
    path = tmp_path / "long.pv"
    path.write_text(
        "".join(f"get (title: t{i}) from Book;\n" for i in range(1200))
        + "if (t0 != null) {\n  get (title: u) from Book.Proceedings;\n}\n"
    )
    code, out, err = run(
        capsys, "verify-db", "--server", PUB_SERVER, "--protocol", str(path),
        "--db", DB_REALIZABLE, "--oracle", "--format", "json",
    )
    assert code == 1
    assert err == ""
    (entry,) = json.loads(out)
    assert entry["verdict"] == "realizable" and entry["oracleAgrees"] is True


def test_main_reuses_its_parser(capsys):
    """Calls in one process, with different subcommands and an argument
    error between them, print what calls made one at a time print."""
    calls = [
        ("parse", "--protocol", PROTOCOL1),
        ("verify-db", "--server", PUB_SERVER, "--protocol", PROTOCOL1,
         "--db", DB_REALIZABLE, "--format", "json"),
        ("check", "--server", PUB_SERVER, "--protocol", PROTOCOL1, "--fail-fast"),
        ("verify-db", "--server", PUB_SERVER, "--protocol", PROTOCOL1,
         "--db", DB_SPURIOUS, "--paper-disjunction"),
        ("check", "--server", PUB_CLIENT, "--protocol", PROTOCOL1),
    ]
    alone = []
    for argv in calls:
        cli._parser.cache_clear()
        alone.append(run(capsys, *argv)[:2])
    assert [code for code, _out in alone] == [0, 1, 1, 0, 0]
    with pytest.raises(SystemExit):
        main(["verify-db", "--server", PUB_SERVER])
    capsys.readouterr()
    together = [run(capsys, *argv)[:2] for argv in calls]
    assert together == alone


@pytest.mark.parametrize("d1", [True, [1], 19730101])
def test_step_trace_value_of_wrong_kind_exit_two(capsys, tmp_path, d1):
    trace = tmp_path / "trace.json"
    trace.write_text(
        json.dumps([{"queryId": 1, "answer": {"t1": "ManualName", "a": "Knuth", "d1": d1}}])
    )
    code, out, err = run(
        capsys, "step", "--server", PUB_SERVER, "--protocol", PROTOCOL1,
        "--db", DB_REALIZABLE, "--trace", str(trace),
    )
    assert code == 2
    assert out == ""
    assert "'d1'" in err and "not a date" in err


# A JSON integer past the interpreter's int-string digit limit, which
# ``json.load`` rejects with a plain ValueError.
HUGE_INT = "9" * 5000


def assert_input_error(result, *words):
    code, out, err = result
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    for word in words:
        assert word in err


def test_check_oversized_integer_in_ontology_exit_two(capsys, tmp_path):
    server = tmp_path / "server.json"
    server.write_text('{"classes": [], "version": ' + HUGE_INT + "}")
    assert_input_error(
        run(capsys, "check", "--server", str(server), "--protocol", PROTOCOL1),
        "malformed ontology document",
    )


def test_verify_db_oversized_integer_in_manifest_exit_two(capsys, tmp_path):
    server, db = base_db(tmp_path)
    (tmp_path / "db" / "manifest.json").write_text(
        '{"Base": {"a1": "int"}, "rows": ' + HUGE_INT + "}"
    )
    protocol = tmp_path / "p.pv"
    protocol.write_text("get (a1: x) from Base;")
    assert_input_error(
        run(capsys, "verify-db", "--server", server, "--protocol", str(protocol),
            "--db", db),
        "malformed manifest.json",
    )


@pytest.mark.parametrize(
    "manifest, words",
    [
        ([{"Base": {"a1": "int"}}], ("manifest.json must be an object",)),
        ({"Base": ["a1", "a2", "name", "price"]}, ("'Base'", "must be an object")),
    ],
)
def test_verify_db_malformed_manifest_exit_two(capsys, tmp_path, manifest, words):
    server, db = base_db(tmp_path)
    (tmp_path / "db" / "manifest.json").write_text(json.dumps(manifest))
    protocol = tmp_path / "p.pv"
    protocol.write_text("get (a1: x) from Base;")
    assert_input_error(
        run(capsys, "verify-db", "--server", server, "--protocol", str(protocol),
            "--db", db),
        *words,
    )


def test_step_oversized_integer_in_trace_exit_two(capsys, tmp_path):
    trace = tmp_path / "trace.json"
    trace.write_text('[{"queryId": 1, "answer": {"t1": ' + HUGE_INT + "}}]")
    assert_input_error(
        run(capsys, "step", "--server", PUB_SERVER, "--protocol", PROTOCOL1,
            "--db", DB_REALIZABLE, "--trace", str(trace)),
        "malformed trace",
    )


@pytest.mark.parametrize(
    "literal, message",
    [
        (HUGE_INT, "integer literal out of range"),
        ("2009-13-45", "invalid date literal"),
        ("9" * 400 + ".5", "decimal literal out of range"),
    ],
    ids=["long-integer", "bad-date", "decimal-overflow"],
)
def test_parse_unconvertible_literal_exit_two(capsys, tmp_path, literal, message):
    path = tmp_path / "p.pv"
    path.write_text(f"get (a: x) from K\n  where (x = {literal});\n")
    assert_input_error(
        run(capsys, "parse", "--protocol", str(path)), message, "line 2, column 14"
    )


def test_parse_non_utf8_protocol_exit_two(capsys, tmp_path):
    path = tmp_path / "latin1.pv"
    path.write_bytes("get (title: t) from Book where (t = 'Café');\n".encode("latin-1"))
    assert_input_error(
        run(capsys, "parse", "--protocol", str(path)), str(path), "byte 40"
    )


def test_verify_db_non_utf8_table_exit_two(capsys, tmp_path):
    import shutil

    shutil.copytree(DB_REALIZABLE, tmp_path / "db")
    book = tmp_path / "db" / "Book.csv"
    size = book.stat().st_size
    with open(book, "ab") as fh:
        fh.write(b"\xe9")
    assert_input_error(
        run(capsys, "verify-db", "--server", PUB_SERVER, "--protocol", PROTOCOL1,
            "--db", str(tmp_path / "db")),
        str(book), f"byte {size}",
    )


def inheritance_chain(tmp_path, length, closed=False):
    """A server of ``length`` classes, each the only subclass of the one
    before; ``closed`` makes the first a subclass of the last."""
    names = [f"C{i}" for i in range(length)]
    classes = [{"name": names[0], "dataProperties": ["p"]}]
    classes += [{"name": b, "superclasses": [a]} for a, b in zip(names, names[1:])]
    if closed:
        classes[0]["superclasses"] = [names[-1]]
    server = tmp_path / "chain.json"
    server.write_text(json.dumps({"classes": classes}))
    protocol = tmp_path / "chain.pv"
    protocol.write_text(f"get (p: x) from {names[-1]};\n")
    return str(server), str(protocol)


def test_check_deep_inheritance_chain(capsys, tmp_path):
    server, protocol = inheritance_chain(tmp_path, 1500)
    code, out, _err = run(capsys, "check", "--server", server, "--protocol", protocol)
    assert code == 0
    assert out == "no ontology-level conflicts\n"


def test_check_deep_inheritance_cycle_exit_two(capsys, tmp_path):
    server, protocol = inheritance_chain(tmp_path, 1500, closed=True)
    assert_input_error(
        run(capsys, "check", "--server", server, "--protocol", protocol),
        "inheritance cycle: C0 -> C1 -> ",
    )


def test_calls_leave_no_protoverify_cycles(capsys, tmp_path):
    """A CLI call leaves no reference cycle that holds a protoverify
    object or function, so the objects it built are freed when it
    returns rather than at the next cyclic collection. Cycles inside the
    standard library's JSON encoder are not counted."""
    trace = tmp_path / "trace.json"
    trace.write_text(json.dumps([{"queryId": 1, "answer": None}]))
    calls = [
        ("check", "--server", PUB_SERVER, "--protocol", PROTOCOL1),
        ("verify-db", "--server", PUB_SERVER, "--protocol", PROTOCOL1,
         "--db", DB_REALIZABLE, "--format", "json"),
        ("step", "--server", PUB_SERVER, "--protocol", PROTOCOL1,
         "--db", DB_REALIZABLE, "--trace", str(trace)),
        ("parse", "--protocol", PROTOCOL1, "--format", "json"),
        ("verify-db", "--server", PUB_SERVER, "--protocol", PROTOCOL1,
         "--db", DB_REALIZABLE, "--oracle"),
        ("step", "--server", PUB_SERVER, "--protocol", PROTOCOL1,
         "--db", DB_REALIZABLE, "--trace", str(trace), "--oracle"),
    ]
    for argv in calls:
        gc.collect()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            run(capsys, *argv)
            gc.collect()
            leaked = [
                obj for obj in gc.garbage
                if type(obj).__module__.startswith("protoverify")
                or (inspect.isfunction(obj)
                    and obj.__module__.startswith("protoverify"))
            ]
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
        assert leaked == [], argv[0]


def decimal_table(tmp_path, a_cells):
    """``Base(a decimal, b int)`` with rows (a_cells[i], i + 1), and a
    conflict guarded by ``y > 0`` that every row reaches."""
    server = tmp_path / "server.json"
    server.write_text(json.dumps({"classes": [{"name": "Base", "dataProperties": ["a", "b"]}]}))
    db = tmp_path / "db"
    db.mkdir()
    (db / "manifest.json").write_text(json.dumps({"Base": {"a": "decimal", "b": "int"}}))
    rows = "".join(f"{a},{i}\n" for i, a in enumerate(a_cells, start=1))
    (db / "Base.csv").write_text("a,b\n" + rows)
    protocol = tmp_path / "p.pv"
    protocol.write_text(
        "get (a: x, b: y) from Base; if (y > 0) { get (ghost: g) from Missing; }\n"
    )
    return ["--server", str(server), "--protocol", str(protocol), "--db", str(db)]


@pytest.mark.parametrize("cell", ["nan", "NaN", "-nan", "inf", "-Infinity", "+INF", "1e999"])
def test_verify_db_non_finite_decimal_cell_exit_two(capsys, tmp_path, cell):
    """A NaN has no place in the witness order and neither it nor an
    infinity is a JSON number, so the table is rejected at its line."""
    args = decimal_table(tmp_path, ["2.0", "1.0", cell, "0.5"])
    assert_input_error(
        run(capsys, "verify-db", *args, "--format", "json"),
        "Base.csv:4:", "column 'a'", "not finite",
    )


def test_verify_db_finite_decimal_witness_is_stable(capsys, tmp_path):
    args = decimal_table(tmp_path, ["2.0", "1.0", "0.5"])
    code, out, _err = run(capsys, "verify-db", *args, "--format", "json")
    assert code == 1
    assert json.loads(out)[0]["witness"] == {"x": 0.5, "y": 3}


@pytest.mark.parametrize("raw", ["NaN", "Infinity", "-Infinity"])
def test_step_non_finite_decimal_answer_exit_two(capsys, tmp_path, raw):
    args = decimal_table(tmp_path, ["2.0", "1.0", "0.5"])
    trace = tmp_path / "trace.json"
    trace.write_text('[{"queryId": 1, "answer": {"x": %s, "y": 1}}]' % raw)
    assert_input_error(
        run(capsys, "step", *args, "--trace", str(trace)),
        "query 1", "'x'", "not finite",
    )


def test_verify_db_witness_orders_ints_past_2_53_exactly(capsys, tmp_path):
    """Three ints past 2**53 that one float holds: the witness is the
    least of them, not the one that set order meets first."""
    big = 2**53 + 3
    assert values.sort_key(big) < values.sort_key(big + 1) < values.sort_key(big + 2)
    args = write_instance(
        tmp_path, {"T": ["a1", "a2"]}, {"T": [("", big + 2), ("", big), ("", big + 1)]},
        "get (a1: x, a2: y) from T; if (y != null) { get (ghost: g) from Missing; }\n",
    )
    assert run(capsys, "verify-db", *args, "--oracle") == (
        1, f"query 2: realizable (witness {{'x': None, 'y': {big}}}) [oracle agrees: True]\n",
        "")


# --- a trace prunes only on values it supplied ---

VARIABLE_FREE_GUARDS = (
    "if (1 = 2) { get (ghost: w) from Missing; }\n"
    "get (a1: x) from Base;\n"
    "if (2 = 2) { get (ghost: v) from Missing; }\n"
)


def step_with_trace(capsys, tmp_path, args, entries):
    trace = tmp_path / "trace.json"
    trace.write_text(json.dumps(entries))
    return run(capsys, "step", *args, "--trace", str(trace), "--oracle")


def test_step_empty_trace_keeps_conflicts_behind_variable_free_guards(capsys, tmp_path):
    """The empty trace decides nothing: query 1, behind a guard that no
    execution takes, gets the static ``spurious`` verdict."""
    args = write_instance(tmp_path, {"Base": ["a1", "a2"]}, {"Base": [(3, 4), (1, 2)]},
                          VARIABLE_FREE_GUARDS)
    expected = (
        "query 1: spurious (assignable set emptied at []) [oracle agrees: True]\n"
        "query 3: realizable (witness {'x': 1}) [oracle agrees: True]\n"
    )
    assert run(capsys, "verify-db", *args, "--oracle") == (1, expected, "")
    assert step_with_trace(capsys, tmp_path, args, []) == (1, expected, "")


def test_step_trace_past_variable_free_guards_keeps_their_conflicts(capsys, tmp_path):
    """A trace that passes both guards, and claims the first one's
    outcome, prunes neither conflict; a wrong claim is still refused."""
    args = write_instance(tmp_path, {"Base": ["a1", "a2"]}, {"Base": [(3, 4), (1, 2)]},
                          VARIABLE_FREE_GUARDS)
    entry = {"queryId": 2, "answer": {"x": 3}, "branch": {"index": 1, "taken": False}}
    assert step_with_trace(capsys, tmp_path, args, [entry]) == (1, (
        "query 1: spurious (assignable set emptied at []) [oracle agrees: True]\n"
        "query 3: realizable (witness {'x': 3}) [oracle agrees: True]\n"
    ), "")
    entry["branch"]["taken"] = True
    assert_input_error(step_with_trace(capsys, tmp_path, args, [entry]),
                       "trace entry 0", "branch 1")


def test_step_trace_keeps_a_nested_variable_free_guard_undecided(capsys, tmp_path):
    """The trace decides branch 1 from ``x``, but branch 2's guard reads
    no variable, so conflict 2 behind it gets a verdict."""
    args = write_instance(
        tmp_path, {"Base": ["a1", "a2"]}, {"Base": [(1, 2)]},
        "get (a1: x) from Base;\n"
        "if (x = 1) { if (3 = 4) { get (ghost: w) from Missing; } }\n",
    )
    assert run(capsys, "verify-db", *args, "--oracle") == (
        0, "query 2: spurious (assignable set emptied at ['x']) [oracle agrees: True]\n", "")
    assert step_with_trace(capsys, tmp_path, args, [{"queryId": 1, "answer": {"x": 1}}]) == (
        0, "query 2: spurious (assignable set emptied at []) [oracle agrees: True]\n", "")
    # A value the trace supplied still prunes.
    assert step_with_trace(capsys, tmp_path, args, [{"queryId": 1, "answer": {"x": 2}}]) == (
        0, "no remaining conflicts\n", "")


def test_incomparable_literal_guard_before_any_query_exit_two_in_both_modes(capsys, tmp_path):
    """Every execution compares 1 with 'a' before its first query, so
    ``verify-db`` rejects the protocol as ``step`` with ``[]`` and the
    oracle do."""
    args = write_instance(
        tmp_path, {"Base": ["a1", "a2"]}, {"Base": [(1, 2)]},
        "if (1 = 'a') { do Skip(); }\n"
        "get (a1: x) from Base; if (x = 1) { get (ghost: g) from Missing; }\n",
    )
    for argv in (["verify-db", *args], ["verify-db", *args, "--oracle"]):
        assert_input_error(run(capsys, *argv), "cannot compare int with str")
    assert_input_error(step_with_trace(capsys, tmp_path, args, []),
                       "cannot compare int with str")
