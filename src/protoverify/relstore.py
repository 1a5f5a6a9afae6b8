"""In-memory relational store and algebra kernel.

One table per non-abstract ontology class; relations are immutable
values with set semantics (no duplicate rows). The algebra (natural
join, projection, selection) combines the per-class parts of protocol
queries' answer relations. Selection compiles each condition once into
a predicate over row tuples (``protocol.compile_condition``). A relation
the algebra builds gets its schema checked but not the arity of every
row, because its rows come from rows of known arity; a relation built
directly, as loaders and callers do, gets every check.
"""

from __future__ import annotations

import csv
import io
import json
import operator
import os
from dataclasses import dataclass

from . import values
from .errors import (
    CellParseError,
    NoExtentError,
    SchemaError,
    TagMismatchError,
    UnknownColumnError,
)
from .ontology import OntologyGraph
from .protocol import compile_condition


@dataclass(frozen=True)
class Relation:
    """Named schema plus a set of rows.

    ``columns`` and ``tags`` are aligned; rows are tuples in column
    order. Cells are plain values (see values module) or None for null.
    """

    columns: tuple[str, ...]
    tags: tuple[str, ...]
    rows: frozenset[tuple]
    name: str = ""

    def __post_init__(self):
        _check_schema(self.columns, self.tags, self.name)
        for row in self.rows:
            if len(row) != len(self.columns):
                raise SchemaError(
                    f"row arity {len(row)} does not match schema of {self.name!r}"
                )

    @classmethod
    def _derived(cls, columns, tags, rows, name="") -> "Relation":
        """A relation the algebra built from rows of known arity: the
        schema is checked, the rows are not."""
        _check_schema(columns, tags, name)
        r = object.__new__(cls)
        object.__setattr__(r, "columns", columns)
        object.__setattr__(r, "tags", tags)
        object.__setattr__(r, "rows", rows)
        object.__setattr__(r, "name", name)
        return r

    def index(self, column: str) -> int:
        try:
            return self.columns.index(column)
        except ValueError:
            raise UnknownColumnError(
                f"no column {column!r} in relation {self.name!r}"
            ) from None

    def tag(self, column: str) -> str:
        return self.tags[self.index(column)]

    def sorted_rows(self) -> list[tuple]:
        return sorted(self.rows, key=lambda r: tuple(values.sort_key(v) for v in r))


def _check_schema(columns, tags, name):
    if len(columns) != len(set(columns)):
        raise SchemaError(f"duplicate column in relation {name!r}")
    if len(columns) != len(tags):
        raise SchemaError("columns and tags must align")


def relation(name, columns, tags, rows) -> Relation:
    return Relation(tuple(columns), tuple(tags), frozenset(tuple(r) for r in rows), name)


# --- algebra ---

def natural_join(r1: Relation, r2: Relation) -> Relation:
    """Join on all shared column names; null never matches anything.

    A shared column's tags must be comparable (``values.tags_comparable``:
    an int column joins a decimal one, 1 with 1.0); the joined column
    keeps the left relation's tag and value. Disjoint schemas degenerate
    to the Cartesian product.
    """
    shared = [c for c in r1.columns if c in r2.columns]
    for c in shared:
        if not values.tags_comparable(r1.tag(c), r2.tag(c)):
            raise TagMismatchError(
                f"shared column {c!r} has tags {r1.tag(c)!r} and {r2.tag(c)!r}"
            )
    extra = [c for c in r2.columns if c not in r1.columns]
    out_columns = tuple(r1.columns) + tuple(extra)
    out_tags = tuple(r1.tags) + tuple(r2.tag(c) for c in extra)
    i1 = [r1.index(c) for c in shared]
    i2 = [r2.index(c) for c in shared]
    iextra = [r2.index(c) for c in extra]

    buckets: dict[tuple, list[tuple]] = {}
    for row in r2.rows:
        key = tuple(row[i] for i in i2)
        if any(v is None for v in key):
            continue
        buckets.setdefault(key, []).append(row)

    out = set()
    if shared:
        for row in r1.rows:
            key = tuple(row[i] for i in i1)
            if any(v is None for v in key):
                continue
            for other in buckets.get(key, ()):
                out.add(row + tuple(other[i] for i in iextra))
    else:
        for row in r1.rows:
            for other in r2.rows:
                out.add(row + tuple(other[i] for i in iextra))
    return Relation._derived(out_columns, out_tags, frozenset(out))


def project(r: Relation, cols) -> Relation:
    """Restrict to the given columns, eliminating duplicate rows."""
    cols = tuple(cols)
    idx = [r.index(c) for c in cols]
    tags = tuple(r.tags[i] for i in idx)
    if len(idx) > 1:
        rows = frozenset(map(operator.itemgetter(*idx), r.rows))
    else:
        rows = frozenset(tuple(row[i] for i in idx) for row in r.rows)
    return Relation._derived(cols, tags, rows, r.name)


def select(r: Relation, conds) -> Relation:
    """Keep rows satisfying every condition; an empty condition list is
    the identity."""
    conds = list(conds)
    for cond in conds:
        for var in cond.variables():
            r.index(var)  # raises UnknownColumnError
    if not conds:
        return r
    preds = [compile_condition(c, r.columns) for c in conds]
    if len(preds) == 1:
        rows = frozenset(filter(preds[0], r.rows))
    else:
        rows = frozenset(row for row in r.rows if all(pred(row) for pred in preds))
    return Relation._derived(r.columns, r.tags, rows, r.name)


# --- database ---

class Database:
    """Tables for exactly the non-abstract classes of a server ontology.

    Neither the tables nor the ontology change after construction, so
    class extents are built once per instance (see ``class_extent``), and
    so is each hash index on an extent's attribute (see ``extent_index``).
    """

    def __init__(self, tables: dict[str, Relation], ontology: OntologyGraph,
                 property_tags: dict[str, str]):
        self.tables = dict(tables)
        self.ontology = ontology
        self.property_tags = dict(property_tags)
        self.extents: dict[str, Relation] = {}
        self.indexes: dict[tuple[str, str], dict[object, frozenset[tuple]]] = {}


def load_database(source_dir, server: OntologyGraph) -> Database:
    """Load a data directory (one CSV per non-abstract class plus a
    manifest declaring column tags) and validate it against the ontology."""
    manifest_path = os.path.join(source_dir, "manifest.json")
    try:
        with open(manifest_path, encoding="utf-8") as fh:
            manifest = json.load(fh)
    except FileNotFoundError:
        raise SchemaError(f"missing manifest.json in {source_dir}") from None
    except ValueError as exc:  # also integers past the digit limit
        raise SchemaError(f"malformed manifest.json: {exc}") from exc

    if not isinstance(manifest, dict):
        raise SchemaError("manifest.json must be an object mapping classes to column tags")
    property_tags: dict[str, str] = {}
    for cls_name, cols in manifest.items():
        if not isinstance(cols, dict):
            raise SchemaError(
                f"manifest entry for {cls_name!r} must be an object mapping columns to tags"
            )
        node = server.find_match(cls_name)
        if node is None:
            raise SchemaError(f"manifest names unknown class {cls_name!r}")
        for col, tag in cols.items():
            if tag not in values.TAGS:
                raise SchemaError(f"unknown tag {tag!r} for {cls_name}.{col}")
            if property_tags.setdefault(col, tag) != tag:
                raise TagMismatchError(
                    f"property {col!r} declared with conflicting tags"
                )

    non_abstract = {
        name for name, node in server.classes.items() if not node.abstract
    }
    for entry in sorted(os.listdir(source_dir)):
        if not entry.endswith(".csv"):
            continue
        stem = entry[:-4]
        node = server.find_match(stem)
        if node is None:
            raise SchemaError(f"table file {entry!r} names unknown class")
        if node.abstract:
            raise SchemaError(
                f"table file {entry!r} backs abstract class {node.name!r}"
            )

    tables: dict[str, Relation] = {}
    for cls_name in sorted(non_abstract):
        path = os.path.join(source_dir, f"{cls_name}.csv")
        if not os.path.exists(path):
            raise SchemaError(f"missing table file for class {cls_name!r}")
        expected = server.effective_properties(cls_name)
        declared = manifest.get(cls_name, {})
        if set(declared) != set(expected):
            missing = sorted(set(expected) - set(declared))
            extra = sorted(set(declared) - set(expected))
            raise SchemaError(
                f"manifest for {cls_name!r} drifts from ontology "
                f"(missing {missing}, extra {extra})"
            )
        tables[cls_name] = _load_table(path, cls_name, expected, property_tags)
    return Database(tables, server, property_tags)


def _load_table(path, cls_name, expected_cols, property_tags) -> Relation:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise SchemaError(
            f"{path}: byte {exc.start} is not UTF-8 ({exc.reason})"
        ) from None
    # Lines are split and kept as a file opened with newline="" gives them.
    with io.StringIO(text, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError(f"{path}: missing header row") from None
        if set(header) != set(expected_cols) or len(header) != len(set(header)):
            raise SchemaError(
                f"{path}: header {header} does not cover columns "
                f"{sorted(expected_cols)}"
            )
        columns = tuple(sorted(expected_cols))
        tags = tuple(property_tags[c] for c in columns)
        reorder = [header.index(c) for c in columns]
        rows = set()
        for lineno, raw in enumerate(reader, start=2):
            if len(raw) != len(header):
                raise SchemaError(f"{path}:{lineno}: wrong arity")
            cells = []
            for i, col in zip(reorder, columns):
                try:
                    cells.append(values.parse_cell(raw[i], property_tags[col]))
                except ValueError as exc:
                    raise CellParseError(
                        f"{path}:{lineno}: column {col!r}: {exc}"
                    ) from exc
            rows.add(tuple(cells))
    return Relation(columns, tags, frozenset(rows), cls_name)


def class_extent(db: Database, class_name: str) -> Relation:
    """The relation a query ``from C`` scans: the class's own table
    unioned with all non-abstract descendants' tables, projected onto the
    class's effective properties. Built once per database and class."""
    node = db.ontology.find_match(class_name)
    if node is None:
        raise NoExtentError(f"unknown class {class_name!r}")
    if node.name in db.extents:
        return db.extents[node.name]
    columns = tuple(sorted(db.ontology.effective_properties(node.name)))
    contributors = extent_tables(db, node.name)
    if not contributors:
        raise NoExtentError(
            f"class {node.name!r} has no table and no non-abstract descendant"
        )
    tags = tuple(db.property_tags[c] for c in columns)
    rows = set()
    for table_name in contributors:
        table = db.tables[table_name]
        idx = [table.index(c) for c in columns]
        for row in table.rows:
            rows.add(tuple(row[i] for i in idx))
    extent = Relation(columns, tags, frozenset(rows), node.name)
    db.extents[node.name] = extent
    return extent


def extent_index(db: Database, class_name: str, attribute: str) -> dict:
    """The rows of a class's extent grouped by their value of one
    attribute, nulls left out: a lookup finds the rows whose value equals
    the key, as ``=`` compares them (an int key finds an equal decimal).
    Built once per database, class name and attribute."""
    key = (class_name, attribute)
    index = db.indexes.get(key)
    if index is None:
        extent = class_extent(db, class_name)
        i = extent.index(attribute)
        groups: dict[object, list[tuple]] = {}
        for row in extent.rows:
            if row[i] is not None:
                groups.setdefault(row[i], []).append(row)
        index = db.indexes[key] = {
            value: frozenset(rows) for value, rows in groups.items()
        }
    return index


def extent_tables(db: Database, class_name: str) -> list[str]:
    """Names of the tables contributing rows to a class's extent."""
    node = db.ontology.find_match(class_name)
    if node is None:
        raise NoExtentError(f"unknown class {class_name!r}")
    names = {node.name} | set(db.ontology.descendants(node.name))
    return sorted(n for n in names if n in db.tables)
