"""Random instance generation for oracle-equivalence and mutation tests.

Instances stay inside the fragment both deciders agree on: straight-line
queries binding fresh variables, single-condition branches without
null-equality guards, conjunction mode, and one unresolvable conflict
query placed last. On request, a guard that reads no variable may
enclose the conflict query directly.
"""

import dataclasses
import random

from protoverify.ontology import OntologyGraph, parse_ontology
from protoverify.protocol import ProtocolAst, parse_protocol
from protoverify.relstore import Database, Relation

ATTRS = ["a1", "a2", "a3", "a4", "a5", "a6"]
DOMAIN = range(0, 5)
OPS = ["=", "!=", "<", ">", "<=", ">="]


@dataclasses.dataclass
class Instance:
    server: OntologyGraph
    ast: ProtocolAst
    text: str
    db: Database
    conflict_qid: int


def _random_ontology(rng: random.Random) -> OntologyGraph:
    attrs = list(ATTRS)
    rng.shuffle(attrs)
    base_abstract = rng.random() < 0.3
    doc = {
        "classes": [
            {
                "name": "Base",
                "abstract": base_abstract,
                "dataProperties": attrs[0:2],
            },
            {"name": "Kid1", "superclasses": ["Base"], "dataProperties": attrs[2:4]},
            {"name": "Kid2", "superclasses": ["Base"], "dataProperties": attrs[4:6]},
        ]
    }
    return parse_ontology(doc)


def _random_database(rng: random.Random, server: OntologyGraph,
                     max_rows: int = 6) -> Database:
    tables = {}
    for name, node in server.classes.items():
        if node.abstract:
            continue
        cols = tuple(sorted(server.effective_properties(name)))
        rows = set()
        for _ in range(rng.randint(0, max_rows)):
            rows.add(
                tuple(
                    None if rng.random() < 0.1 else rng.choice(DOMAIN)
                    for _ in cols
                )
            )
        tables[name] = Relation(cols, ("int",) * len(cols), frozenset(rows), name)
    return Database(tables, server, {a: "int" for a in ATTRS})


def _literal(rng: random.Random) -> str:
    return str(rng.choice(DOMAIN))


def _wrap(rng: random.Random, stmt: str, cond: str, then_only: bool) -> str:
    """``stmt`` in the then-arm of ``if cond``, or in its else-arm."""
    body = "\n".join("  " + line for line in stmt.splitlines())
    if then_only or rng.random() < 0.5:
        return f"if {cond} {{\n{body}\n}}"
    return f"if {cond} {{\n  do Skip();\n}} else {{\n{body}\n}}"


def make_instance(rng: random.Random, force_branch: bool = False,
                  then_only: bool = False, free_guards: bool = False) -> Instance:
    """A random instance. With ``free_guards``, half the instances put
    the conflict query directly inside a guard over two literals, inside
    the other branches; without it, the option draws nothing from
    ``rng``."""
    server = _random_ontology(rng)
    db = _random_database(rng, server)

    lines = []
    bound = []
    fresh_counter = 0
    n_top = rng.randint(1, 3)
    for qid in range(1, n_top + 1):
        cls = rng.choice(["Base", "Kid1", "Kid2"])
        attrs = sorted(server.effective_properties(cls))
        rng.shuffle(attrs)
        n_bind = rng.randint(1, min(2, len(attrs)))
        bindings = []
        own_vars = []
        for attr in attrs[:n_bind]:
            if bound and rng.random() < 0.3:
                var = rng.choice(bound)
            else:
                fresh_counter += 1
                var = f"v{fresh_counter}"
                own_vars.append(var)
            bindings.append(f"{attr}: {var}")
        where = ""
        scope = bound + own_vars
        if scope and rng.random() < 0.4:
            where = f" where ({rng.choice(scope)} {rng.choice(OPS)} {_literal(rng)})"
        lines.append(f"get ({', '.join(bindings)}) from {cls}{where};")
        bound.extend(own_vars)

    conflict_bindings = ["ghostattr: w1"]
    for var in rng.sample(bound, k=min(len(bound), rng.randint(0, 2))):
        conflict_bindings.append(f"{rng.choice(ATTRS)}: {var}")
    conflict = f"get ({', '.join(conflict_bindings)}) from Missing;"

    n_branch = rng.randint(1 if force_branch else 0, 2)
    n_branch = min(n_branch, len(bound))
    stmt = conflict
    if free_guards and rng.random() < 0.5:
        cond = f"({_literal(rng)} {rng.choice(OPS)} {_literal(rng)})"
        stmt = _wrap(rng, stmt, cond, then_only)
    for _ in range(n_branch):
        var = rng.choice(bound)
        if rng.random() < 0.2:
            cond = f"({var} != null)"
        else:
            cond = f"({var} {rng.choice(OPS)} {_literal(rng)})"
        stmt = _wrap(rng, stmt, cond, then_only)
    lines.append(stmt)

    text = "\n".join(lines) + "\n"
    ast = parse_protocol(text)
    return Instance(server, ast, text, db, n_top + 1)


# --- mutation generation (detection-completeness experiments) ---

def used_sequence_edges(ast: ProtocolAst, server: OntologyGraph):
    """Direct inheritance edges a protocol's specialization sequences
    descend through."""
    edges = set()
    for q in ast.queries():
        for ref in q.class_refs:
            for prev, nxt in zip(ref.names, ref.names[1:]):
                a = server.find_match(prev)
                b = server.find_match(nxt)
                if a and b and (a.name, b.name) in server.inheritance_edges:
                    edges.add((a.name, b.name))
    return sorted(edges)


def _without_edge(server: OntologyGraph, edge) -> OntologyGraph:
    sup, sub = edge
    doc = server.to_document()
    for cls in doc["classes"]:
        if cls["name"] == sub:
            cls["superclasses"] = [s for s in cls.get("superclasses", []) if s != sup]
    return parse_ontology(doc)


def _relocated(server: OntologyGraph, owner: str, attr: str) -> OntologyGraph:
    """Move an attribute from its declaring class onto a fresh class off
    every query path."""
    doc = server.to_document()
    for cls in doc["classes"]:
        if cls["name"] == owner:
            cls["dataProperties"] = [a for a in cls.get("dataProperties", []) if a != attr]
    doc["classes"].append({"name": "Elsewhere", "dataProperties": [attr]})
    return parse_ontology(doc)


def _terminal(server: OntologyGraph, ref):
    node = None
    for name in ref.names:
        nxt = server.find_match(name)
        if nxt is None or (node and not server.is_subclass(node.name, nxt.name)):
            return None
        node = nxt
    return node.name


def relocation_candidates(ast: ProtocolAst, server: OntologyGraph):
    """(owner, attribute) pairs whose relocation makes some queried
    attribute unanswerable."""
    out = set()
    for q in ast.queries():
        terminals = [
            t for t in (_terminal(server, ref) for ref in q.class_refs) if t
        ]
        queried = {attr for attr, var in q.bindings if var is not None}
        for attr in queried:
            owners = {
                name
                for name in server.classes
                if attr in server.classes[name].data_properties
            }
            for owner in owners:
                mutated = _relocated(server, owner, attr)
                covered = set()
                for t in terminals:
                    covered |= mutated.effective_properties(t)
                if attr not in covered:
                    out.add((owner, attr))
    return sorted(out)


def mutation_cases(ast: ProtocolAst, server: OntologyGraph):
    """All single mutations of a matching server, paired with the
    mismatch kind each must provoke."""
    cases = []
    for edge in used_sequence_edges(ast, server):
        cases.append((_without_edge(server, edge), "SpecializationMismatch"))
    for owner, attr in relocation_candidates(ast, server):
        cases.append((_relocated(server, owner, attr), "UnmatchedVariables"))
    return cases


def random_mutation_protocol(rng: random.Random):
    """A small matching (protocol, server) pair built around one
    Parent.Child sequence and one inherited attribute."""
    suffix = str(rng.randint(0, 999))
    parent, child, sib = "P" + suffix, "C" + suffix, "S" + suffix
    attr = "shared" + suffix
    doc = {
        "classes": [
            {"name": parent, "dataProperties": [attr]},
            {"name": child, "superclasses": [parent], "dataProperties": ["own"]},
            {"name": sib, "superclasses": [parent], "dataProperties": []},
        ]
    }
    server = parse_ontology(doc)
    text = f"get ({attr}: x, own: y) from {parent}.{child};\n"
    return parse_protocol(text), server
