"""Tests for the relational store and algebra kernel."""

import datetime
import json
import shutil

import pytest
from hypothesis import given, strategies as st

from protoverify.errors import (
    CellParseError,
    NoExtentError,
    SchemaError,
    TagMismatchError,
    UnknownColumnError,
)
from protoverify.protocol import Condition, Lit, Var
from protoverify.relstore import (
    Relation,
    class_extent,
    load_database,
    natural_join,
    project,
    relation,
    select,
)

from conftest import FIXTURES, canonical_rows, with_tables


def rel(cols, tags, rows, name=""):
    return relation(name, cols, tags, rows)


def test_join_shared_column():
    r = rel(["a", "b"], ["int", "int"], [(1, 2)])
    s = rel(["b", "c"], ["int", "int"], [(2, 9), (3, 9)])
    j = natural_join(r, s)
    assert set(j.columns) == {"a", "b", "c"}
    assert canonical_rows(j) == frozenset({(1, 2, 9)})


def test_join_empty_absorbing():
    r = rel(["a", "b"], ["int", "int"], [(1, 2)])
    empty = rel(["a", "b"], ["int", "int"], [])
    assert not natural_join(r, empty).rows


def test_join_disjoint_is_product():
    r = rel(["a"], ["int"], [(1,), (2,)])
    s = rel(["b"], ["int"], [(7,), (8,), (9,)])
    assert len(natural_join(r, s).rows) == 6


def test_join_null_never_matches():
    r = rel(["a"], ["int"], [(None,), (1,)])
    s = rel(["a"], ["int"], [(None,), (1,)])
    assert natural_join(r, s).rows == frozenset({(1,)})


def test_join_tag_mismatch():
    r = rel(["a"], ["int"], [(1,)])
    s = rel(["a"], ["str"], [("x",)])
    with pytest.raises(TagMismatchError):
        natural_join(r, s)


def test_join_int_with_decimal_keeps_left_tag_and_value():
    r = rel(["a", "b"], ["int", "str"], [(1, "p"), (2, "q"), (None, "r")])
    s = rel(["a", "c"], ["decimal", "str"], [(1.0, "u"), (2.5, "v"), (None, "w")])
    joined = natural_join(r, s)
    assert (joined.columns, joined.tags) == (("a", "b", "c"), ("int", "str", "str"))
    assert joined.rows == frozenset({(1, "p", "u")})
    assert all(type(row[0]) is int for row in joined.rows)
    back = natural_join(s, r)
    assert back.tags == ("decimal", "str", "str")
    assert [type(row[0]) for row in back.rows] == [float]


def test_project_dedup():
    r = rel(["a", "b"], ["int", "int"], [(1, 2), (1, 3)])
    assert project(r, ["a"]).rows == frozenset({(1,)})


def test_project_identity():
    r = rel(["a", "b"], ["int", "int"], [(1, 2), (3, 4)])
    assert project(r, ["a", "b"]).rows == r.rows


def test_project_unknown_column():
    r = rel(["a"], ["int"], [(1,)])
    with pytest.raises(UnknownColumnError):
        project(r, ["zz"])


def test_project_book_authors(pub_db_realizable):
    extent = class_extent(pub_db_realizable, "Book")
    assert len(extent.rows) == 3
    authors = project(extent, ["author"])
    assert {row[0] for row in authors.rows} == {"Knuth", "Lamport", "Lynch"}


def test_select_conjunction():
    r = rel(
        ["Brand", "ItemsSold", "Year"],
        ["str", "int", "int"],
        [("A", 20000, 2009), ("B", 5000, 2009), ("C", 20000, 2008)],
    )
    conds = [
        Condition(Var("ItemsSold"), ">", Lit(10000)),
        Condition(Var("Year"), "=", Lit(2009)),
    ]
    out = select(r, conds)
    assert out.rows == frozenset({("A", 20000, 2009)})


def test_select_empty_conds_identity():
    r = rel(["a"], ["int"], [(1,), (2,)])
    assert select(r, []).rows == r.rows


def test_select_null_excluded():
    r = rel(["col"], ["str"], [("Red",), (None,)])
    out = select(r, [Condition(Var("col"), "=", Lit("Red"))])
    assert out.rows == frozenset({("Red",)})


def test_select_null_test():
    r = rel(["col"], ["str"], [("Red",), (None,)])
    assert select(r, [Condition(Var("col"), "=", Lit(None))]).rows == frozenset(
        {(None,)}
    )
    assert select(r, [Condition(Var("col"), "!=", Lit(None))]).rows == frozenset(
        {("Red",)}
    )


def test_select_unknown_column():
    r = rel(["a"], ["int"], [(1,)])
    with pytest.raises(UnknownColumnError):
        select(r, [Condition(Var("zz"), "=", Lit(1))])


def test_select_date_field():
    r = rel(["d"], ["date"], [(datetime.date(2005, 1, 1),), (datetime.date(1999, 1, 1),)])
    out = select(r, [Condition(Var("d", "year"), ">", Lit(2000))])
    assert out.rows == frozenset({(datetime.date(2005, 1, 1),)})


def test_relation_invariants():
    with pytest.raises(SchemaError):
        Relation(("a", "a"), ("int", "int"), frozenset())
    with pytest.raises(SchemaError):
        Relation(("a",), ("int",), frozenset({(1, 2)}))


def test_algebra_results_keep_schema_checks():
    r = relation("r", ["a", "b"], ["int", "int"], [(1, 2)])
    with pytest.raises(SchemaError):
        project(r, ["a", "a"])


def test_load_database_tables(pub_db_spurious):
    assert set(pub_db_spurious.tables) == {
        "Book",
        "Monograph",
        "Manual",
        "Proceedings",
    }


def test_abstract_table_rejected(tmp_path, pub_server):
    src = FIXTURES / "pub-db-spurious"
    shutil.copytree(src, tmp_path / "db")
    (tmp_path / "db" / "Entry.csv").write_text("title,author\n")
    manifest = json.loads((tmp_path / "db" / "manifest.json").read_text())
    manifest["Entry"] = {"title": "str", "author": "str"}
    (tmp_path / "db" / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(SchemaError):
        load_database(tmp_path / "db", pub_server)


def test_schema_drift_rejected(tmp_path, pub_server):
    src = FIXTURES / "pub-db-spurious"
    shutil.copytree(src, tmp_path / "db")
    (tmp_path / "db" / "Book.csv").write_text("title,author,extra\n")
    with pytest.raises(SchemaError):
        load_database(tmp_path / "db", pub_server)


def test_missing_table_rejected(tmp_path, pub_server):
    src = FIXTURES / "pub-db-spurious"
    shutil.copytree(src, tmp_path / "db")
    (tmp_path / "db" / "Proceedings.csv").unlink()
    with pytest.raises(SchemaError):
        load_database(tmp_path / "db", pub_server)


def test_empty_csv_valid(tmp_path, pub_server):
    src = FIXTURES / "pub-db-spurious"
    shutil.copytree(src, tmp_path / "db")
    (tmp_path / "db" / "Proceedings.csv").write_text("author,date,title\n")
    db = load_database(tmp_path / "db", pub_server)
    assert not db.tables["Proceedings"].rows


def test_bad_cell_rejected(tmp_path, pub_server):
    src = FIXTURES / "pub-db-spurious"
    shutil.copytree(src, tmp_path / "db")
    (tmp_path / "db" / "Proceedings.csv").write_text(
        "author,date,title\nX,notadate,Y\n"
    )
    with pytest.raises(CellParseError):
        load_database(tmp_path / "db", pub_server)


def test_empty_cell_is_null(tmp_path, pub_server):
    src = FIXTURES / "pub-db-spurious"
    shutil.copytree(src, tmp_path / "db")
    (tmp_path / "db" / "Proceedings.csv").write_text("author,date,title\nX,,Y\n")
    db = load_database(tmp_path / "db", pub_server)
    row = next(iter(db.tables["Proceedings"].rows))
    assert None in row


def test_class_extent_union(pub_db_spurious):
    books = class_extent(pub_db_spurious, "Book")
    assert set(books.columns) == {"title", "author"}
    assert len(books.rows) == 3


def test_class_extent_leaf(pub_db_spurious):
    mono = class_extent(pub_db_spurious, "Monograph")
    assert canonical_rows(mono) == canonical_rows(pub_db_spurious.tables["Monograph"])


def test_class_extent_abstract(pub_db_spurious):
    entries = class_extent(pub_db_spurious, "Entry")
    total = sum(len(t.rows) for t in pub_db_spurious.tables.values())
    assert len(entries.rows) <= total
    assert set(entries.columns) == {"title", "author"}


def test_class_extent_contains_descendants(pub_db_spurious, pub_server):
    for name in pub_server.classes:
        try:
            parent = class_extent(pub_db_spurious, name)
        except NoExtentError:
            continue
        for d in pub_server.descendants(name):
            if d == name:
                continue
            try:
                child = class_extent(pub_db_spurious, d)
            except NoExtentError:
                continue
            projected = project(child, sorted(parent.columns))
            assert canonical_rows(projected) <= canonical_rows(parent)


def test_class_extent_built_once_per_database(pub_db_realizable):
    """Repeated calls share one extent; a copy with a row deleted builds
    its own, without that row."""
    books = class_extent(pub_db_realizable, "Book")
    assert class_extent(pub_db_realizable, "Book") is books
    table = pub_db_realizable.tables["Book"]
    gone = next(r for r in table.rows if r[table.index("title")] == "TAOCP")
    smaller = with_tables(
        pub_db_realizable,
        {"Book": Relation(table.columns, table.tags, table.rows - {gone}, "Book")}
    )
    fewer = class_extent(smaller, "Book")
    assert len(fewer.rows) == len(books.rows) - 1
    assert all(r[fewer.index("title")] != "TAOCP" for r in fewer.rows)
    assert any(r[books.index("title")] == "TAOCP" for r in books.rows)


def test_no_extent_error(pub_server, tmp_path):
    doc = {"classes": [{"name": "Lone", "abstract": True, "dataProperties": ["x"]}]}
    from protoverify.ontology import parse_ontology

    g = parse_ontology(doc)
    (tmp_path / "manifest.json").write_text("{}")
    db = load_database(tmp_path, g)
    with pytest.raises(NoExtentError):
        class_extent(db, "Lone")


small_rel_st = st.builds(
    lambda cols, rows: rel(
        cols,
        ["int"] * len(cols),
        [tuple(row[: len(cols)]) for row in rows],
    ),
    st.lists(st.sampled_from(["a", "b", "c", "d"]), min_size=1, max_size=3, unique=True),
    st.lists(st.tuples(*[st.integers(0, 3)] * 3), max_size=6),
)


@given(small_rel_st, small_rel_st)
def test_join_commutative(r, s):
    assert canonical_rows(natural_join(r, s)) == canonical_rows(natural_join(s, r))


@given(small_rel_st, small_rel_st, small_rel_st)
def test_join_associative(r, s, t):
    left = natural_join(natural_join(r, s), t)
    right = natural_join(r, natural_join(s, t))
    assert canonical_rows(left) == canonical_rows(right)


@given(small_rel_st, small_rel_st)
def test_join_size_bound(r, s):
    assert len(natural_join(r, s).rows) <= len(r.rows) * len(s.rows)


@given(small_rel_st)
def test_project_idempotent(r):
    wider = list(r.columns)
    narrower = wider[:1]
    assert project(project(r, wider), narrower).rows == project(r, narrower).rows


@given(small_rel_st, st.integers(0, 3), st.integers(0, 3))
def test_select_fusion(r, k1, k2):
    c1 = Condition(Var(r.columns[0]), ">", Lit(k1))
    c2 = Condition(Var(r.columns[-1]), "<", Lit(k2))
    fused = select(r, [c1, c2])
    chained = select(select(r, [c1]), [c2])
    assert fused.rows == chained.rows
