import pathlib

import pytest

from protoverify.ontology import load_ontology
from protoverify.protocol import parse_protocol
from protoverify.relstore import Database, Relation, load_database

FIXTURES = pathlib.Path(__file__).parent / "fixtures"

# One line per acceptance criterion, printed after the run so they
# survive output capture.
CRITERION_LINES = []


def pytest_terminal_summary(terminalreporter):
    if CRITERION_LINES:
        terminalreporter.section("acceptance criteria")
        for line in CRITERION_LINES:
            terminalreporter.write_line(line)


def read_protocol(name):
    return (FIXTURES / name).read_text()


def canonical_rows(r: Relation) -> frozenset[tuple]:
    """Rows with columns sorted by name; for order-insensitive comparison."""
    order = sorted(range(len(r.columns)), key=lambda i: r.columns[i])
    return frozenset(tuple(row[i] for i in order) for row in r.rows)


def with_tables(db: Database, tables: dict[str, Relation]) -> Database:
    """A new database with some tables replaced; its extents and indexes
    are built afresh."""
    return Database({**db.tables, **tables}, db.ontology, db.property_tags)


@pytest.fixture(scope="session")
def pub_server():
    return load_ontology(FIXTURES / "pub-server.json")


@pytest.fixture(scope="session")
def pub_client():
    return load_ontology(FIXTURES / "pub-client.json")


@pytest.fixture(scope="session")
def auto_server():
    return load_ontology(FIXTURES / "auto-server.json")


@pytest.fixture(scope="session")
def auto_client():
    return load_ontology(FIXTURES / "auto-client.json")


@pytest.fixture(scope="session")
def protocol1():
    return parse_protocol(read_protocol("protocol1.pv"))


@pytest.fixture(scope="session")
def protocol2():
    return parse_protocol(read_protocol("protocol2.pv"))


@pytest.fixture(scope="session")
def protocol3():
    return parse_protocol(read_protocol("protocol3.pv"))


@pytest.fixture(scope="session")
def pub_db_spurious(pub_server):
    return load_database(FIXTURES / "pub-db-spurious", pub_server)


@pytest.fixture(scope="session")
def pub_db_realizable(pub_server):
    return load_database(FIXTURES / "pub-db-realizable", pub_server)
