"""In-memory relational store and algebra kernel.

One table per non-abstract ontology class; relations are immutable
values with set semantics (no duplicate rows). The algebra (class
extents, natural join, projection, selection) defines a protocol
query's answer relation; the spuriousness engine reads the same answers
from the tables directly, through each class's resolved contributing
tables (``class_source``) and per-table hash indexes (``table_index``),
and the tests hold it to the algebra. Selection compiles each condition
once into a predicate over row tuples (``protocol.compile_condition``).
"""

from __future__ import annotations

import csv
import io
import json
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
        if len(self.columns) != len(set(self.columns)):
            raise SchemaError(f"duplicate column in relation {self.name!r}")
        if len(self.columns) != len(self.tags):
            raise SchemaError("columns and tags must align")
        for row in self.rows:
            if len(row) != len(self.columns):
                raise SchemaError(
                    f"row arity {len(row)} does not match schema of {self.name!r}"
                )

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
    # With no shared column every key is (), so every pair matches.
    buckets: dict[tuple, list[tuple]] = {}
    for row in r2.rows:
        key = tuple(row[i] for i in i2)
        if None not in key:
            buckets.setdefault(key, []).append(tuple(row[i] for i in iextra))
    out = frozenset(
        row + other for row in r1.rows
        for other in buckets.get(tuple(row[i] for i in i1), ())
    )
    return Relation(out_columns, out_tags, out)


def project(r: Relation, cols) -> Relation:
    """Restrict to the given columns, eliminating duplicate rows."""
    cols = tuple(cols)
    idx = [r.index(c) for c in cols]
    tags = tuple(r.tags[i] for i in idx)
    rows = frozenset(tuple(row[i] for i in idx) for row in r.rows)
    return Relation(cols, tags, rows, r.name)


def select(r: Relation, conds) -> Relation:
    """Keep rows satisfying every condition; an empty condition list is
    the identity."""
    conds = list(conds)
    for cond in conds:
        for var in cond.variables():
            r.index(var)  # raises UnknownColumnError
    preds = [compile_condition(c, r.columns) for c in conds]
    rows = frozenset(row for row in r.rows if all(pred(row) for pred in preds))
    return Relation(r.columns, r.tags, rows, r.name)


# --- database ---

class Database:
    """Tables for exactly the non-abstract classes of a server ontology.

    Neither the tables nor the ontology change after construction, so
    each class's contributing tables and their columns are resolved once
    per instance (see ``class_source``), and so is each class extent (see
    ``class_extent``) and each hash index on a table's attribute (see
    ``table_index``).
    """

    def __init__(self, tables: dict[str, Relation], ontology: OntologyGraph,
                 property_tags: dict[str, str]):
        self.tables = dict(tables)
        self.ontology = ontology
        self.property_tags = dict(property_tags)
        self.sources: dict[str, ClassSource] = {}
        self.extents: dict[str, Relation] = {}
        self.indexes: dict[tuple[str, str], dict[object, list[tuple]]] = {}


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


@dataclass(frozen=True)
class ClassSource:
    """Where a class's extent comes from: the class's effective
    properties, sorted, each with its position in that order and its tag,
    and each contributing table's name with the position in it of each of
    those properties."""

    name: str
    columns: dict[str, int]
    tags: tuple[str, ...]
    tables: tuple[tuple[str, tuple[int, ...]], ...]


def class_source(db: Database, class_name: str) -> ClassSource:
    """A class's contributing tables and columns, resolved once per
    database and class."""
    node = db.ontology.find_match(class_name)
    if node is None:
        raise NoExtentError(f"unknown class {class_name!r}")
    source = db.sources.get(node.name)
    if source is None:
        columns = tuple(sorted(db.ontology.effective_properties(node.name)))
        contributors = extent_tables(db, node.name)
        if not contributors:
            raise NoExtentError(
                f"class {node.name!r} has no table and no non-abstract descendant"
            )
        tags = tuple(db.property_tags[c] for c in columns)
        tables = tuple(
            (name, tuple(db.tables[name].index(c) for c in columns))
            for name in contributors
        )
        source = db.sources[node.name] = ClassSource(
            node.name, {c: j for j, c in enumerate(columns)}, tags, tables
        )
    return source


def class_extent(db: Database, class_name: str) -> Relation:
    """The relation a query ``from C`` scans: the class's own table
    unioned with all non-abstract descendants' tables, projected onto the
    class's effective properties. Built once per database and class; the
    algebra's reference for the engine, which reads the tables directly."""
    source = class_source(db, class_name)
    extent = db.extents.get(source.name)
    if extent is None:
        rows = {
            tuple(row[i] for i in positions)
            for name, positions in source.tables
            for row in db.tables[name].rows
        }
        extent = db.extents[source.name] = Relation(
            tuple(source.columns), source.tags, frozenset(rows), source.name
        )
    return extent


def table_index(db: Database, table_name: str, attribute: str) -> dict:
    """The rows of a table grouped by their value of one attribute, nulls
    left out: a lookup finds the rows whose value equals the key, as ``=``
    compares them (an int key finds an equal decimal). Built once per
    database, table and attribute."""
    key = (table_name, attribute)
    index = db.indexes.get(key)
    if index is None:
        table = db.tables[table_name]
        i = table.index(attribute)
        index = db.indexes[key] = {}
        for row in table.rows:
            if row[i] is not None:
                index.setdefault(row[i], []).append(row)
    return index


def extent_tables(db: Database, class_name: str) -> list[str]:
    """Names of the tables contributing rows to a class's extent."""
    node = db.ontology.find_match(class_name)
    if node is None:
        raise NoExtentError(f"unknown class {class_name!r}")
    names = {node.name} | set(db.ontology.descendants(node.name))
    return sorted(n for n in names if n in db.tables)
