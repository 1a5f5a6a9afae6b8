"""Graph model of an ontology: class hierarchy, data properties,
object properties, and equivalence (name/alias) lookup.

The graph is immutable after load, so each class's ancestors and
descendants are found once per graph and kept. Inheritance edges form a
DAG and multiple inheritance is permitted. Class-name lookup is
case-insensitive and may go through an explicit alias table.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .errors import (
    DanglingReferenceError,
    InheritanceCycleError,
    OntologyFormatError,
    UnknownClassError,
)


@dataclass(frozen=True)
class ClassNode:
    name: str
    abstract: bool = False
    data_properties: tuple[str, ...] = ()
    object_properties: tuple[tuple[str, str], ...] = ()

    def __post_init__(self):
        if not self.name:
            raise OntologyFormatError("class name must be non-empty")
        if len(set(self.data_properties)) != len(self.data_properties):
            raise OntologyFormatError(
                f"duplicate data property on class {self.name!r}"
            )


class OntologyGraph:
    """Immutable ontology graph.

    ``inheritance_edges`` is a set of (superclass, subclass) pairs over
    canonical class names.
    """

    def __init__(self, classes, inheritance_edges, aliases=None):
        classes = list(classes)
        self.classes: dict[str, ClassNode] = {c.name: c for c in classes}
        if len(self.classes) != len(classes):
            raise OntologyFormatError("duplicate class name")
        self.inheritance_edges: frozenset[tuple[str, str]] = frozenset(
            inheritance_edges
        )
        self.aliases: dict[str, str] = dict(aliases or {})
        self._by_key: dict[str, ClassNode] = {}
        for node in self.classes.values():
            key = node.name.casefold()
            if key in self._by_key:
                raise OntologyFormatError(
                    f"class names collide case-insensitively: {node.name!r}"
                )
            self._by_key[key] = node
        self._children: dict[str, set[str]] = {n: set() for n in self.classes}
        self._parents: dict[str, set[str]] = {n: set() for n in self.classes}
        self._ancestors: dict[str, frozenset[str]] = {}
        self._descendants: dict[str, frozenset[str]] = {}
        self._validate()

    def _validate(self):
        for sup, sub in self.inheritance_edges:
            if sup not in self.classes or sub not in self.classes:
                raise DanglingReferenceError(
                    f"inheritance edge ({sup!r}, {sub!r}) references unknown class"
                )
            self._children[sup].add(sub)
            self._parents[sub].add(sup)
        cycle = self._find_cycle()
        if cycle is not None:
            raise InheritanceCycleError(cycle)
        for node in self.classes.values():
            for prop, target in node.object_properties:
                if target not in self.classes:
                    raise DanglingReferenceError(
                        f"object property {prop!r} of {node.name!r} targets "
                        f"unknown class {target!r}"
                    )
        for alias, target in self.aliases.items():
            if alias.casefold() in self._by_key:
                raise OntologyFormatError(
                    f"alias {alias!r} shadows a class name"
                )
            if target not in self.classes:
                raise DanglingReferenceError(
                    f"alias {alias!r} targets unknown class {target!r}"
                )

    def _find_cycle(self):
        """The first cycle a depth-first walk meets, ending where it starts,
        or None. A stack of child iterators stands in for recursion, so no
        depth of hierarchy reaches the recursion limit."""
        WHITE, GREY, BLACK = 0, 1, 2
        color = {n: WHITE for n in self.classes}
        for root in self.classes:
            if color[root] != WHITE:
                continue
            color[root] = GREY
            path = [root]
            children = [iter(self._children[root])]
            while children:
                child = next(children[-1], None)
                if child is None:
                    children.pop()
                    color[path.pop()] = BLACK
                elif color[child] == GREY:
                    return path[path.index(child):] + [child]
                elif color[child] == WHITE:
                    color[child] = GREY
                    path.append(child)
                    children.append(iter(self._children[child]))
        return None

    # --- lookups ---

    def find_match(self, class_name: str) -> ClassNode | None:
        """Resolve a class by case-insensitive name or alias; None if absent."""
        key = class_name.casefold()
        node = self._by_key.get(key)
        if node is not None:
            return node
        for alias, target in self.aliases.items():
            if alias.casefold() == key:
                return self.classes[target]
        return None

    def _resolve(self, class_name: str) -> ClassNode:
        node = self.find_match(class_name)
        if node is None:
            raise UnknownClassError(f"unknown class {class_name!r}")
        return node

    def is_subclass(self, ancestor: str, descendant: str) -> bool:
        """Reflexive-transitive subclass test over inheritance edges."""
        a = self._resolve(ancestor).name
        d = self._resolve(descendant).name
        return a == d or d in self.descendants(a)

    def ancestors(self, class_name: str) -> frozenset[str]:
        """Proper ancestors (superclasses at any distance)."""
        return self._reach(class_name, self._parents, self._ancestors)

    def descendants(self, class_name: str) -> frozenset[str]:
        """Proper descendants (subclasses at any distance)."""
        return self._reach(class_name, self._children, self._descendants)

    def _reach(self, class_name: str, edges: dict[str, set[str]],
               memo: dict[str, frozenset[str]]) -> frozenset[str]:
        """The classes reachable from a class over ``edges``, not counting
        itself, found on the first call for the class and kept in ``memo``."""
        start = self._resolve(class_name).name
        found = memo.get(start)
        if found is None:
            seen: set[str] = set()
            frontier = [start]
            while frontier:
                for nxt in edges[frontier.pop()]:
                    if nxt not in seen:
                        seen.add(nxt)
                        frontier.append(nxt)
            found = memo[start] = frozenset(seen)
        return found

    def effective_properties(self, class_name: str) -> frozenset[str]:
        """Own data properties plus those inherited from all ancestors."""
        node = self._resolve(class_name)
        props = set(node.data_properties)
        for anc in self.ancestors(node.name):
            props.update(self.classes[anc].data_properties)
        return frozenset(props)

    # --- serialization ---

    def to_document(self) -> dict:
        classes = []
        for name in sorted(self.classes):
            node = self.classes[name]
            classes.append(
                {
                    "name": node.name,
                    "abstract": node.abstract,
                    "superclasses": sorted(self._parents[name]),
                    "dataProperties": list(node.data_properties),
                    "objectProperties": dict(node.object_properties),
                }
            )
        doc = {"classes": classes}
        if self.aliases:
            doc["aliases"] = dict(sorted(self.aliases.items()))
        return doc


def parse_ontology(doc: dict) -> OntologyGraph:
    """Build a graph from a parsed ontology document."""
    if not isinstance(doc, dict) or not isinstance(doc.get("classes"), list):
        raise OntologyFormatError("ontology document must have a 'classes' array")
    nodes = []
    edges = set()
    for entry in doc["classes"]:
        if not isinstance(entry, dict) or "name" not in entry:
            raise OntologyFormatError("each class entry needs a 'name'")
        name = entry["name"]
        if not isinstance(name, str):
            raise OntologyFormatError(f"class name {name!r} must be a string")
        abstract = entry.get("abstract", False)
        if not isinstance(abstract, bool):
            raise OntologyFormatError(f"abstract of {name!r} must be a boolean")
        obj_props = entry.get("objectProperties", {})
        if not _is_string_map(obj_props):
            raise OntologyFormatError(
                f"objectProperties of {name!r} must be an object mapping names to class names"
            )
        data_props = _string_list(entry, "dataProperties")
        nodes.append(
            ClassNode(
                name=name,
                abstract=abstract,
                data_properties=tuple(data_props),
                object_properties=tuple(sorted(obj_props.items())),
            )
        )
        for sup in _string_list(entry, "superclasses"):
            edges.add((sup, name))
    aliases = doc.get("aliases", {})
    if not _is_string_map(aliases):
        raise OntologyFormatError("aliases must be an object mapping names to class names")
    return OntologyGraph(nodes, edges, aliases)


def _is_string_map(value) -> bool:
    return isinstance(value, dict) and all(
        isinstance(k, str) and isinstance(v, str) for k, v in value.items()
    )


def _string_list(entry: dict, key: str) -> list[str]:
    """An optional list-of-names field of a class entry."""
    items = entry.get(key, [])
    if not isinstance(items, list) or not all(isinstance(i, str) for i in items):
        raise OntologyFormatError(
            f"{key} of {entry['name']!r} must be a list of strings"
        )
    return items


def load_ontology(path) -> OntologyGraph:
    """Load an ontology from a UTF-8 JSON file."""
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:  # also integers past the digit limit
            raise OntologyFormatError(f"malformed ontology document: {exc}") from exc
    return parse_ontology(doc)
