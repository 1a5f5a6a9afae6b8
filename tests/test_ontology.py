"""Tests for the ontology graph model and its lookups."""

import itertools
import random

import pytest
from hypothesis import given, strategies as st

from protoverify.errors import (
    DanglingReferenceError,
    InheritanceCycleError,
    OntologyFormatError,
    UnknownClassError,
)
from protoverify.ontology import ClassNode, OntologyGraph, parse_ontology


def graph_from(doc):
    return parse_ontology(doc)


def test_auto_server_shape(auto_server):
    assert set(auto_server.classes) == {"SaleStats", "Vehicle", "Car", "Truck", "Bike"}
    assert auto_server.inheritance_edges == frozenset(
        {("Vehicle", "Car"), ("Vehicle", "Truck"), ("Vehicle", "Bike")}
    )
    assert "Color" in auto_server.classes["Car"].data_properties
    assert "Color" in auto_server.classes["Bike"].data_properties
    assert "Color" not in auto_server.classes["Vehicle"].data_properties


def test_empty_document_gives_empty_graph():
    g = graph_from({"classes": []})
    assert not g.classes
    assert not g.inheritance_edges


def test_two_cycle_rejected():
    doc = {
        "classes": [
            {"name": "A", "superclasses": ["B"]},
            {"name": "B", "superclasses": ["A"]},
        ]
    }
    with pytest.raises(InheritanceCycleError) as exc:
        graph_from(doc)
    assert set(exc.value.cycle) >= {"A", "B"}


def test_self_cycle_rejected():
    doc = {"classes": [{"name": "A", "superclasses": ["A"]}]}
    with pytest.raises(InheritanceCycleError):
        graph_from(doc)


def test_dangling_superclass_rejected():
    doc = {"classes": [{"name": "A", "superclasses": ["Ghost"]}]}
    with pytest.raises(DanglingReferenceError):
        graph_from(doc)


def test_dangling_object_property_rejected():
    doc = {"classes": [{"name": "A", "objectProperties": {"owner": "Ghost"}}]}
    with pytest.raises(DanglingReferenceError):
        graph_from(doc)


@pytest.mark.parametrize("field", ["dataProperties", "superclasses"])
@pytest.mark.parametrize("value", ["abc", ["a", 1], {"a": "b"}])
def test_name_list_fields_must_be_string_lists(field, value):
    doc = {"classes": [{"name": "A"}, {"name": "B", field: value}]}
    with pytest.raises(OntologyFormatError, match=field):
        graph_from(doc)


def test_alias_shadowing_rejected():
    doc = {
        "classes": [{"name": "A"}, {"name": "B"}],
        "aliases": {"A": "B"},
    }
    with pytest.raises(OntologyFormatError):
        graph_from(doc)


def test_case_colliding_names_rejected():
    doc = {"classes": [{"name": "Book"}, {"name": "BOOK"}]}
    with pytest.raises(OntologyFormatError):
        graph_from(doc)


def test_find_match_exact(pub_server):
    node = pub_server.find_match("Manual")
    assert node is not None and node.name == "Manual"


def test_find_match_case_insensitive(pub_server):
    node = pub_server.find_match("manual")
    assert node is not None and node.name == "Manual"


def test_find_match_absent(pub_server):
    assert pub_server.find_match("Pamphlet") is None


def test_find_match_alias():
    doc = {
        "classes": [{"name": "Automobile"}],
        "aliases": {"Car": "Automobile"},
    }
    g = graph_from(doc)
    assert g.find_match("car").name == "Automobile"


def test_is_subclass_direct(pub_server):
    assert pub_server.is_subclass("Book", "Monograph")


def test_is_subclass_negative(pub_server):
    assert not pub_server.is_subclass("Book", "Proceedings")


def test_is_subclass_reflexive(pub_server):
    for name in pub_server.classes:
        assert pub_server.is_subclass(name, name)


def test_is_subclass_unknown_class(pub_server):
    with pytest.raises(UnknownClassError):
        pub_server.is_subclass("Book", "Ghost")


def test_is_subclass_transitive_on_fixture(pub_server):
    names = list(pub_server.classes)
    for a, b, c in itertools.product(names, repeat=3):
        if pub_server.is_subclass(a, b) and pub_server.is_subclass(b, c):
            assert pub_server.is_subclass(a, c)


def test_effective_properties_inherited(auto_client):
    assert "Color" in auto_client.effective_properties("Truck")


def test_effective_properties_sibling_only(auto_server):
    assert "Color" not in auto_server.effective_properties("Truck")


def test_effective_properties_no_ancestors():
    g = graph_from({"classes": [{"name": "A", "dataProperties": ["a", "b"]}]})
    assert g.effective_properties("A") == frozenset({"a", "b"})


def test_effective_properties_superset_of_own(pub_server):
    for name, node in pub_server.classes.items():
        assert set(node.data_properties) <= pub_server.effective_properties(name)


def test_roundtrip_serialization(pub_server, auto_server):
    for g in (pub_server, auto_server):
        g2 = parse_ontology(g.to_document())
        assert set(g2.classes) == set(g.classes)
        assert g2.inheritance_edges == g.inheritance_edges
        for name in g.classes:
            assert (
                g2.classes[name].data_properties == g.classes[name].data_properties
            )


names_st = st.lists(
    st.text(alphabet="abcdefgh", min_size=1, max_size=3).map(lambda s: "C" + s),
    min_size=1,
    max_size=6,
    unique_by=lambda s: s.lower(),
)


@given(names_st, st.data())
def test_random_dags_load_and_close_transitively(names, data):
    """Edges drawn from earlier to later names can never form a cycle."""
    classes = []
    for i, name in enumerate(names):
        supers = data.draw(
            st.lists(st.sampled_from(names[:i]), unique=True, max_size=2)
            if i
            else st.just([])
        )
        classes.append({"name": name, "superclasses": supers})
    g = graph_from({"classes": classes})
    for a in names:
        for b in g.descendants(a):
            assert g.is_subclass(a, b)
            assert g.effective_properties(b) >= frozenset(
                g.classes[a].data_properties
            )


def reference_cycle(classes, children):
    """A recursive depth-first cycle search: the reference the iterative
    ``_find_cycle`` must agree with."""
    color = {n: "white" for n in classes}
    path = []

    def visit(n):
        color[n] = "grey"
        path.append(n)
        for child in children[n]:
            if color[child] == "grey":
                return path[path.index(child):] + [child]
            if color[child] == "white":
                found = visit(child)
                if found:
                    return found
        path.pop()
        color[n] = "black"
        return None

    for n in classes:
        if color[n] == "white":
            found = visit(n)
            if found:
                return found
    return None


def test_find_cycle_matches_recursive_reference():
    """On random small digraphs, self-loops included, the iterative walk
    returns the list the recursive one does, over the same child sets."""
    seen = []

    class Recording(OntologyGraph):
        def _find_cycle(self):
            found = super()._find_cycle()
            seen.append((found, reference_cycle(self.classes, self._children)))
            return found

    rng = random.Random(1111)
    cycles = 0
    for _ in range(500):
        names = [f"C{i}" for i in range(rng.randint(1, 7))]
        edges = {
            (rng.choice(names), rng.choice(names))
            for _ in range(rng.randint(0, 2 * len(names)))
        }
        try:
            Recording([ClassNode(n) for n in names], edges)
        except InheritanceCycleError as exc:
            assert exc.cycle == seen[-1][0]
            cycles += 1
        found, expected = seen[-1]
        assert found == expected
    assert 50 < cycles < 450
