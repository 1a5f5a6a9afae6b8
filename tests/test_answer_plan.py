"""The engine's answer plans against the relational-algebra reference.

``spuriousness.generate_assignable_set`` reads a query's answers in one
pass over the tables behind each class reference. The reference here
builds them as the algebra defines them: each class reference's extent
(``class_extent``), its part over the query's variables, the parts'
``natural_join``, a ``select`` by the where conditions over the query's
own variables and a ``project`` onto its output variables.
"""

import random
import sys

from conftest import FIXTURES, read_protocol, with_tables
from instgen import make_instance
from test_spuriousness import KEY_LOOKUP_PROTOCOLS, long_shaped_instance
from protoverify.errors import (
    NoExtentError,
    UncoveredBindingError,
    UnresolvableClassError,
)
from protoverify.ontology import load_ontology
from protoverify.protocol import parse_protocol
from protoverify.relstore import (
    Relation,
    class_extent,
    load_database,
    natural_join,
    project,
    select,
)
from protoverify.spuriousness import generate_assignable_set

sys.path.insert(0, str(FIXTURES.parent.parent / "perfbench"))
import workloads  # noqa: E402


def reference_answers(q, db) -> Relation:
    """A query's answer relation through the algebra, raising what the
    engine raises where the query cannot be answered."""
    out_vars = q.output_variables()
    non_wildcard = [(attr, var) for attr, var in q.bindings if var is not None]
    parts = []
    covered = set()
    for ref in q.class_refs:
        terminal = ref.names[-1]
        node = db.ontology.find_match(terminal)
        if node is None:
            raise UnresolvableClassError(f"query {q.id}: class {terminal!r} does not resolve")
        try:
            ext = class_extent(db, node.name)
        except NoExtentError as exc:
            raise UnresolvableClassError(str(exc)) from exc
        local = [(attr, var) for attr, var in non_wildcard if attr in ext.columns]
        if not local:
            # A class that binds no variable empties the answers when its
            # extent is empty (the empty relation with no column).
            if not ext.rows:
                parts.append(Relation((), (), frozenset()))
            continue
        covered.update(var for _, var in local)
        # The extent over the bound attributes; a repeated attribute is a
        # duplicate column. Two attributes bound to one variable must hold
        # one non-null value.
        wide = project(ext, [attr for attr, _ in local])
        at = {}
        for i, (_, var) in enumerate(local):
            at.setdefault(var, []).append(i)
        rows = {
            tuple(row[js[0]] for js in at.values()) for row in wide.rows
            if all(row[js[0]] is not None and row[j] == row[js[0]]
                   for js in at.values() for j in js[1:])
        }
        tags = tuple(wide.tags[js[0]] for js in at.values())
        parts.append(Relation(tuple(at), tags, frozenset(rows)))
    missing = [var for _, var in non_wildcard if var not in covered]
    if missing:
        raise UncoveredBindingError(
            f"query {q.id}: no class answers variables {sorted(set(missing))}"
        )
    t = parts[0] if parts else Relation((), (), frozenset([()]))
    for part in parts[1:]:
        t = natural_join(t, part)
    applicable = [c for c in q.where if c.variables() <= set(t.columns)]
    return project(select(t, applicable), out_vars)


def outcome(build, q, db):
    """Columns, tags and rows (each cell with its type, since 1 == 1.0),
    or the class and message of the exception raised instead."""
    try:
        r = build(q, db)
    except Exception as exc:  # the error is part of the outcome
        return type(exc), str(exc)
    return r.columns, r.tags, {tuple((type(v), v) for v in row) for row in r.rows}


# Over long_shaped_instance's tables, where Person's val and age are null
# on the same rows: one variable bound to two attributes, an attribute
# bound twice, a join of classes, and classes that bind no variable (Org
# emptied in one copy).
SHAPES = (
    "get (val: x, age: x) from Person;",
    "get (id: x, id: y) from Person;",
    "get (id: k, val: v) from Entity, Person where (k = 3);",
    "get (id: k, size: s) from Person, Org where (s != null);",
    "get (age: a) from Person, Org;",
    "get (ghost: g) from Org;",
)


def cases(tmp_path, monkeypatch):
    """(protocol, database) pairs: instgen seeds 0-399, the fixture
    protocols over both fixture databases, the key-lookup protocols and
    ``SHAPES`` over int tables, and the first 100 seed-7
    oracle-crosscheck instances.

    The generator writes instance i from the seed's data stream after
    instances 0 to i-1 and before any later one, so asking it for fewer
    timed calls writes the same first 100 instances, only sooner.
    """
    for seed in range(400):
        inst = make_instance(random.Random(seed), force_branch=seed % 2 == 1)
        yield inst.ast, inst.db
    server = load_ontology(FIXTURES / "pub-server.json")
    for name in ("pub-db-realizable", "pub-db-spurious"):
        db = load_database(FIXTURES / name, server)
        for text in ("protocol1.pv", "protocol2.pv", "protocol3.pv"):
            yield parse_protocol(read_protocol(text)), db
    _server, p, db = long_shaped_instance()
    yield p, db
    for text in KEY_LOOKUP_PROTOCOLS:
        yield parse_protocol(text), db
    no_org = with_tables(db, {"Org": Relation(db.tables["Org"].columns,
                                              db.tables["Org"].tags, frozenset(), "Org")})
    for text in SHAPES:
        yield parse_protocol(text), db
        yield parse_protocol(text), no_org
    monkeypatch.setattr(workloads, "CROSS_INSTANCES", 100)
    workloads.generate("oracle-crosscheck", 7, str(tmp_path))
    for i in range(100):
        yield workloads._load(workloads.Instance(
            str(tmp_path / f"i{i}" / "server.json"),
            str(tmp_path / f"i{i}" / "protocol.pv"),
            str(tmp_path / f"i{i}" / "db"),
        ))


def test_answer_plans_match_the_algebra(tmp_path, monkeypatch):
    """Each query's answers, or the exception raised instead, are the
    algebra's: same columns, tags and rows, or same class and message."""
    queries = raised = abstract = 0
    for p, db in cases(tmp_path, monkeypatch):
        for q in p.queries():
            want = outcome(reference_answers, q, db)
            assert outcome(generate_assignable_set, q, db) == want, (q, want)
            queries += 1
            raised += isinstance(want[0], type)
        abstract += any(node.abstract for node in db.ontology.classes.values())
    assert queries > 2000
    assert 0 < raised < queries
    assert abstract >= 50

