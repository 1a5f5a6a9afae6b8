"""Seed-pinned workload generators and their engine-independent references.

Each generator writes real input files (server ontology JSON, ``.pv``
protocol, one CSV per class plus ``manifest.json``, and step traces) into
a work directory and returns a :class:`Plan`: the CLI calls to make and,
for every call, the verdicts it must print. The program under test only
ever sees the files; the references come from the generator's own closed
form (``deep-path``) or from the brute-force oracle, never from the
spuriousness engine.

Workload shapes (see ``README.md`` for why each one exists):

* ``deep-path`` -- k straight-line two-column queries over one n-row table,
  then c conflicts behind a one-condition guard on ``x0``/``x1``.
* ``long-protocol`` -- 154 statements of key lookups over four classes,
  if/else nested three deep, a quarter of the queries conflicting.
* ``step-replay`` -- deep-path-shaped instances with conflicts in both
  arms of guards, replayed for every prefix of a few reaching executions.
* ``oracle-crosscheck`` -- small branchy instances over the whole DSL,
  verified with ``--oracle``.
"""

from __future__ import annotations

import csv
import json
import os
import random
from dataclasses import asdict, dataclass, field

REALIZABLE = "realizable"
SPURIOUS = "spurious"

WORKLOADS = ("deep-path", "long-protocol", "step-replay", "oracle-crosscheck")

# deep-path: rows^queries execution states per conflict.
DEEP_ROWS = 12
DEEP_QUERIES = 4

# long-protocol: blocks of 8 queries (2 conflicting) and 3 nested branches.
LONG_BLOCKS = 14
LONG_ROWS = 100

# step-replay: instances x reaching executions x prefix lengths.
STEP_ROWS = 10
STEP_INSTANCES = 3
STEP_EXECUTIONS = 2

# oracle-crosscheck: small branchy instances, enough of them that the
# slowest percent of calls spans several instances, not one or two. This
# many are timed; the known-defect shapes among them are drawn on top.
CROSS_INSTANCES = 768
CROSS_ATTRS = ("a1", "a2", "a3", "a4", "a5", "a6")
CROSS_DOMAIN = range(0, 3)
CROSS_OPS = ("=", "!=", "<", ">", "<=", ">=")


@dataclass
class Instance:
    server: str
    protocol: str
    db: str


@dataclass
class Call:
    """One CLI invocation and what it must print.

    ``expected`` maps every conflicting query id the report must contain
    to its verdict; any other id in the report is an extra conflict.
    """

    argv: list[str]
    expected: dict[int, str]
    oracle_agrees: bool = False


@dataclass
class Plan:
    workload: str
    seed: int
    instances: list[Instance]
    calls: list[Call]
    # Reference-side counts: reaching executions per call and oracle
    # enumerations that hit the step bound.
    counts: dict[str, float] = field(default_factory=dict)
    # Conflicts whose reference is unknown because the oracle hit its
    # step bound before deciding them; their calls cannot be checked.
    unknown_references: int = 0
    # Calls on input shapes that hit known defects of the program. They
    # are made and checked once per run, untimed, and reported apart from
    # the timed calls (see README.md, "Known defects").
    defect_calls: list[Call] = field(default_factory=list)

    def to_json(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_json(doc: dict) -> "Plan":
        def calls(docs):
            return [Call(c["argv"], {int(k): v for k, v in c["expected"].items()},
                         c["oracle_agrees"])
                    for c in docs]
        return Plan(
            workload=doc["workload"],
            seed=doc["seed"],
            instances=[Instance(**i) for i in doc["instances"]],
            calls=calls(doc["calls"]),
            counts=dict(doc["counts"]),
            unknown_references=doc["unknown_references"],
            defect_calls=calls(doc["defect_calls"]),
        )


# --- a small statement model, rendered to DSL text ---

@dataclass
class Q:
    """A query; ``conflict`` marks one the generator made mismatching."""

    bindings: list[tuple[str, str]]
    source: str
    where: list[str] = field(default_factory=list)
    conflict: bool = False
    qid: int = 0


@dataclass
class B:
    conditions: list[str]
    then: list
    orelse: list | None = None
    bid: int = 0


def render(stmts) -> tuple[str, list[int]]:
    """DSL text plus the ids of conflict queries.

    Also stores on every statement the id the parser will give it: queries
    and branches are each numbered from 1 in document order, as the DSL
    defines them.
    """
    lines: list[str] = []
    conflicts: list[int] = []
    counter = [0, 0]

    def emit(block, depth):
        pad = "  " * depth
        for st in block:
            if isinstance(st, Q):
                counter[0] += 1
                st.qid = counter[0]
                if st.conflict:
                    conflicts.append(st.qid)
                binds = ", ".join(f"{a}: {v}" for a, v in st.bindings)
                where = (" where " + " ".join(st.where)) if st.where else ""
                lines.append(f"{pad}get ({binds}) from {st.source}{where};")
            else:
                counter[1] += 1
                st.bid = counter[1]
                lines.append(f"{pad}if {' '.join(st.conditions)} {{")
                emit(st.then, depth + 1)
                if st.orelse is not None:
                    lines.append(f"{pad}}} else {{")
                    emit(st.orelse, depth + 1)
                lines.append(f"{pad}}}")

    emit(stmts, 0)
    return "\n".join(lines) + "\n", conflicts


# --- file writers ---

def _write_json(path, doc):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)


def _effective(classes: list[dict], name: str) -> list[str]:
    by_name = {c["name"]: c for c in classes}
    props: list[str] = []
    stack = [name]
    seen = set()
    while stack:
        cur = stack.pop()
        if cur in seen:
            continue
        seen.add(cur)
        for p in by_name[cur].get("dataProperties", []):
            if p not in props:
                props.append(p)
        stack.extend(by_name[cur].get("superclasses", []))
    return sorted(props)


def write_instance(out_dir: str, classes: list[dict], tags: dict[str, str],
                   tables: dict[str, list[dict]], protocol_text: str) -> Instance:
    """Write server JSON, protocol and data directory; rows are dicts over
    the class's effective properties (None is an empty cell)."""
    os.makedirs(out_dir, exist_ok=True)
    db_dir = os.path.join(out_dir, "db")
    os.makedirs(db_dir, exist_ok=True)
    server = os.path.join(out_dir, "server.json")
    _write_json(server, {"classes": classes})
    manifest = {}
    for cls in classes:
        if cls.get("abstract"):
            continue
        cols = _effective(classes, cls["name"])
        manifest[cls["name"]] = {c: tags[c] for c in cols}
        with open(os.path.join(db_dir, f"{cls['name']}.csv"), "w",
                  newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(cols)
            for row in tables.get(cls["name"], []):
                writer.writerow(["" if row[c] is None else row[c] for c in cols])
    _write_json(os.path.join(db_dir, "manifest.json"), manifest)
    protocol = os.path.join(out_dir, "protocol.pv")
    with open(protocol, "w", encoding="utf-8") as fh:
        fh.write(protocol_text)
    return Instance(server, protocol, db_dir)


def verify_argv(inst: Instance, *extra: str) -> list[str]:
    return ["verify-db", "--server", inst.server, "--protocol", inst.protocol,
            "--db", inst.db, "--format", "json", *extra]


# --- deep-path ---

def deep_path_protocol(k: int, guards: list[int]) -> list:
    """k independent ``get (a1: xi, a2: yi) from T`` queries, then one
    ``if (xj = v) { <conflict> }`` per guard value (j = 0, 1, ...)."""
    stmts: list = [Q([("a1", f"x{i}"), ("a2", f"y{i}")], "T") for i in range(k)]
    for j, v in enumerate(guards):
        stmts.append(B([f"(x{j} = {v})"], [Q([("ghost", f"g{j}")], "Missing", conflict=True)]))
    return stmts


def deep_path_table(rng: random.Random, n: int, repeats: int = 2):
    """n rows (a1, a2): every a1 value present appears exactly ``repeats``
    times, one more value of the a1 domain is absent, and the a2 values
    are distinct. Fixing the repeat count fixes how many states reach a
    satisfiable guard, so every seed asks the verifier for the same work.

    Returns (rows, present a1 values, the absent value)."""
    domain = list(range(n // repeats + 1))
    rng.shuffle(domain)
    absent, present = domain[0], sorted(domain[1:])
    a2 = rng.sample(range(100), n)
    rows = sorted((present[i // repeats], a2[i]) for i in range(n))
    return rows, present, absent


def deep_path_reference(rows, k: int, guards: list[int]):
    """Closed form: the queries are independent, so a guard ``xj = v`` is
    satisfiable iff column a1 holds v; the reaching executions are the
    rows with a1 = v times every row for each of the other k-1 queries."""
    verdicts, traces = [], []
    for v in guards:
        hits = sum(1 for a1, _ in rows if a1 == v)
        verdicts.append(REALIZABLE if hits else SPURIOUS)
        traces.append(hits * len(rows) ** (k - 1))
    return verdicts, traces


def _deep_classes():
    return [{"name": "T", "dataProperties": ["a1", "a2"]}], {"a1": "int", "a2": "int"}


def write_deep_instance(out_dir: str, rows, k: int, guards: list[int]):
    classes, tags = _deep_classes()
    text, conflicts = render(deep_path_protocol(k, guards))
    table = [{"a1": a, "a2": b} for a, b in rows]
    inst = write_instance(out_dir, classes, tags, {"T": table}, text)
    return inst, conflicts


def gen_deep_path(rng: random.Random, work: str) -> Plan:
    rows, present, absent = deep_path_table(rng, DEEP_ROWS)
    # One satisfiable and one unsatisfiable guard per instance, in seeded
    # order, so every run times both verdict paths.
    guards = [rng.choice(present), absent]
    rng.shuffle(guards)
    inst, conflicts = write_deep_instance(os.path.join(work, "i0"), rows, DEEP_QUERIES, guards)
    verdicts, traces = deep_path_reference(rows, DEEP_QUERIES, guards)
    call = Call(verify_argv(inst), dict(zip(conflicts, verdicts)))
    return Plan("deep-path", 0, [inst], [call],
                {"oracle.traces": float(sum(traces)), "oracle.truncated": 0.0})


# --- long-protocol ---

LONG_CLASSES = [
    {"name": "Entity", "abstract": True, "dataProperties": ["id", "val"]},
    {"name": "Person", "superclasses": ["Entity"], "dataProperties": ["age"]},
    {"name": "Org", "superclasses": ["Entity"], "dataProperties": ["size"]},
    {"name": "Doc", "dataProperties": ["did", "pages"]},
]
LONG_TAGS = {"id": "int", "val": "int", "age": "int", "size": "int",
             "did": "int", "pages": "int"}


def _long_tables(rng: random.Random):
    n = LONG_ROWS

    def num():
        return None if rng.random() < 0.05 else rng.randrange(100)
    return {
        "Person": [{"id": i, "val": num(), "age": num()} for i in range(n)],
        "Org": [{"id": n + i, "val": num(), "size": num()} for i in range(n)],
        "Doc": [{"did": i, "pages": num()} for i in range(n)],
    }


class _LongGen:
    def __init__(self, rng: random.Random):
        self.rng = rng
        self.counter = 0
        self.lookups = 0

    def fresh(self, prefix):
        self.counter += 1
        return f"{prefix}{self.counter}"

    def key(self, lo, hi):
        # One lookup in ten misses, so its variables come back null.
        return self.rng.randrange(1000, 2000) if self.rng.random() < 0.1 else self.rng.randrange(lo, hi)

    def lookup(self) -> tuple[Q, str]:
        """A key lookup binding the key and one guardable number.

        Shapes cycle in a fixed order, so every seed scans the same
        extents along the same paths and only the data differ."""
        n = LONG_ROWS
        k, v = self.fresh("k"), self.fresh("v")
        shape = self.lookups % 5
        self.lookups += 1
        if shape == 0:
            q = Q([("id", k), ("val", v), ("age", self.fresh("w"))], "Person",
                  [f"({k} = {self.key(0, n)})"])
        elif shape == 1:
            q = Q([("id", k), ("val", v), ("size", self.fresh("w"))], "Org",
                  [f"({k} = {self.key(n, 2 * n)})"])
        elif shape == 2:
            q = Q([("id", k), ("val", v)], "Entity", [f"({k} = {self.key(0, 2 * n)})"])
        elif shape == 3:
            q = Q([("id", k), ("val", v)], "Entity.Person", [f"({k} = {self.key(0, n)})"])
        else:
            q = Q([("did", k), ("pages", v)], "Doc", [f"({k} = {self.key(0, n)})"])
        return q, v

    def conflict(self) -> Q:
        """A lookup with one of the three mismatch kinds, cycling kinds."""
        kind = ("class", "specialization", "attribute")[self.counter % 3]
        k, g = self.fresh("k"), self.fresh("g")
        where = [f"({k} = {self.rng.randrange(LONG_ROWS)})"]
        if kind == "class":
            return Q([("id", k), ("val", g)], "Vendor", where, conflict=True)
        if kind == "specialization":
            return Q([("id", k), ("val", g)], "Person.Org", where, conflict=True)
        return Q([("id", k), ("colour", g)], "Person", where, conflict=True)

    def guard(self, var, extra=None) -> list[str]:
        rng = self.rng
        r = rng.random()
        if r < 0.1:
            conds = [f"({var} != null)"]
        elif r < 0.15:
            conds = [f"({var} = null)"]
        else:
            # Thresholds near the ends of the 0..99 value range, so most
            # guards hold and the nested conflicts are reachable.
            op = rng.choice(("<", ">", "!="))
            lit = {"<": rng.randrange(70, 100), ">": rng.randrange(0, 30),
                   "!=": rng.randrange(100)}[op]
            conds = [f"({var} {op} {lit})"]
        if extra is not None:
            conds.append(f"({extra} != null)")
        return conds

    def block(self) -> list:
        l1, v1 = self.lookup()
        l2, v2 = self.lookup()
        l3, v3 = self.lookup()
        l4, v4 = self.lookup()
        l5, _ = self.lookup()
        l6, _ = self.lookup()
        depth3 = B(self.guard(v4), [self.conflict()], [l5])
        depth2 = B(self.guard(v3, extra=v2), [l4, depth3], [self.conflict()])
        depth1 = B(self.guard(v1), [l3, depth2], [l6])
        return [l1, l2, depth1]


def gen_long_protocol(rng: random.Random, work: str) -> Plan:
    gen = _LongGen(rng)
    stmts = []
    for _ in range(LONG_BLOCKS):
        stmts.extend(gen.block())
    text, conflicts = render(stmts)
    inst = write_instance(os.path.join(work, "i0"), LONG_CLASSES, LONG_TAGS,
                          _long_tables(rng), text)
    expected, traces, truncated, unknown = oracle_reference(inst, conflicts)
    call = Call(verify_argv(inst), expected)
    return Plan("long-protocol", 0, [inst], [call],
                {"oracle.traces": float(traces), "oracle.truncated": float(truncated)},
                unknown)


def _load(inst: Instance):
    from protoverify.ontology import load_ontology
    from protoverify.protocol import parse_protocol
    from protoverify.relstore import load_database

    server = load_ontology(inst.server)
    with open(inst.protocol, encoding="utf-8") as fh:
        ast = parse_protocol(fh.read())
    return ast, load_database(inst.db, server)


def oracle_reference(inst: Instance, conflicts: list[int]):
    """Verdict per conflict from the brute-force oracle, as
    ``oracle.is_reachable`` decides it. Also returns the reaching-execution
    count, the enumerations that hit the step bound, and the conflicts
    left undecided by it."""
    from protoverify.oracle import enumerate_reaching_traces

    ast, db = _load(inst)
    expected, traces, truncated, unknown = {}, 0, 0, 0
    for qid in conflicts:
        result = enumerate_reaching_traces(ast, db, qid)
        truncated += result.truncated
        unknown += result.truncated and not result.traces
        traces += len(result.traces)
        expected[qid] = REALIZABLE if result.traces else SPURIOUS
    return expected, traces, truncated, unknown


# --- step-replay ---

def step_protocol(guards: list[int]) -> list:
    """Deep-path shape with conflicts in both arms of two guards:

    q(x0) q(x1) if (x0 = v0) {C} else {C} q(x2) q(x3) if (x1 = v1) {C} else {C}
    """
    def query(i):
        return Q([("a1", f"x{i}"), ("a2", f"y{i}")], "T")

    def both_arms(var, v, tag):
        return B([f"({var} = {v})"],
                 [Q([("ghost", f"g{tag}t")], "Missing", conflict=True)],
                 [Q([("ghost", f"g{tag}e")], "Missing", conflict=True)])

    return [query(0), query(1), both_arms("x0", guards[0], 0),
            query(2), query(3), both_arms("x1", guards[1], 1)]


def replay_prefix(stmts, entries) -> tuple[set[int], dict[int, bool]]:
    """Walk a rendered protocol along a trace prefix, as the DSL's
    semantics define it: queries consume entries in order; a branch whose
    guard variables are bound is decided and its arm entered.

    Returns (ids of the queries the prefix answered, branch id -> arm taken
    for every branch the prefix decided). Guards are single ``x = v``
    equalities, which is all :func:`step_protocol` writes.
    """
    env: dict[str, object] = {}
    reached: set[int] = set()
    decided: dict[int, bool] = {}
    pos = 0

    def walk(block) -> bool:
        nonlocal pos
        for st in block:
            if isinstance(st, Q):
                if pos >= len(entries):
                    return False
                entry_qid, answer = entries[pos]
                if entry_qid != st.qid:
                    raise ValueError(f"prefix answers {entry_qid}, query {st.qid} runs next")
                pos += 1
                reached.add(st.qid)
                names = [v for _, v in st.bindings]
                env.update(zip(names, answer if answer is not None else [None] * len(names)))
            else:
                var, _, lit = st.conditions[0].strip("()").split()
                outcome = env[var] is not None and env[var] == int(lit)
                decided[st.bid] = outcome
                if not walk(st.then if outcome else (st.orelse or [])):
                    return False
        return True

    walk(stmts)
    return reached, decided


def _branch_paths(stmts) -> dict[int, list[tuple[int, bool]]]:
    """(branch id, arm) pairs enclosing each query id."""
    out: dict[int, list[tuple[int, bool]]] = {}

    def walk(block, path):
        for st in block:
            if isinstance(st, Q):
                out[st.qid] = list(path)
            else:
                walk(st.then, path + [(st.bid, True)])
                walk(st.orelse or [], path + [(st.bid, False)])

    walk(stmts, [])
    return out


def step_reference(stmts, conflicts, traces_by_conflict, prefix):
    """Verdicts a step call on ``prefix`` must print.

    A conflict on a branch the prefix decided the other way is absent; one
    the prefix already reached is realizable; otherwise it is realizable
    iff some reaching execution the oracle enumerated extends the prefix.
    Returns (expected verdicts, reaching executions extending the prefix).
    """
    reached, decided = replay_prefix(stmts, prefix)
    paths = _branch_paths(stmts)
    expected: dict[int, str] = {}
    extending = 0
    n = len(prefix)
    for qid in conflicts:
        if any(b in decided and decided[b] != arm for b, arm in paths[qid]):
            continue
        if qid in reached:
            expected[qid] = REALIZABLE
            continue
        hits = sum(1 for t in traces_by_conflict[qid] if t[:n] == prefix)
        extending += hits
        expected[qid] = REALIZABLE if hits else SPURIOUS
    return expected, extending


def gen_step_replay(rng: random.Random, work: str) -> Plan:
    from protoverify.oracle import enumerate_reaching_traces

    classes, tags = _deep_classes()
    plan = Plan("step-replay", 0, [], [], {"oracle.traces": 0.0, "oracle.truncated": 0.0})
    traces_total = 0
    for i in range(STEP_INSTANCES):
        rows, present, _ = deep_path_table(rng, STEP_ROWS)
        guards = [rng.choice(present), rng.choice(present)]
        stmts = step_protocol(guards)
        text, conflicts = render(stmts)
        inst = write_instance(os.path.join(work, f"i{i}"), classes, tags,
                              {"T": [{"a1": a, "a2": b} for a, b in rows]}, text)
        plan.instances.append(inst)
        ast, db = _load(inst)
        output_vars = {q.id: q.output_variables() for q in ast.queries()}
        by_conflict: dict[int, list[tuple]] = {}
        for qid in conflicts:
            result = enumerate_reaching_traces(ast, db, qid)
            # Filtering by prefix needs every reaching execution.
            plan.counts["oracle.truncated"] += result.truncated
            plan.unknown_references += result.truncated
            by_conflict[qid] = [t.entries for t in result.traces]
        # Executions to replay: reaching executions of the conflicts after
        # the second guard, which pass through every statement before it.
        deep = [t for qid in conflicts[2:] for t in by_conflict[qid]]
        for e in range(STEP_EXECUTIONS):
            execution = rng.choice(deep)
            for length in range(len(execution) + 1):
                prefix = execution[:length]
                trace_path = os.path.join(work, f"i{i}", f"trace-e{e}-p{length}.json")
                _write_json(trace_path, [
                    {"queryId": q, "answer": None if ans is None else
                     dict(zip(output_vars[q], ans))}
                    for q, ans in prefix
                ])
                expected, extending = step_reference(stmts, conflicts, by_conflict, prefix)
                traces_total += extending
                argv = ["step", "--server", inst.server, "--protocol", inst.protocol,
                        "--db", inst.db, "--trace", trace_path, "--format", "json"]
                plan.calls.append(Call(argv, expected))
    plan.counts["oracle.traces"] = traces_total / len(plan.calls)
    return plan


# --- oracle-crosscheck ---

class _CrossGen:
    """instgen-style ontology (Base with two kids, two attributes each,
    six rows per table) and a ten-statement protocol over the whole DSL::

        get (k1: v1, k1': v2) from Kid1 [where (v1 op lit)];
        if G1 { get (k2: v3) from Kid2 [where (v3 op v1)]; C1 }
        else  { get (b: v3) from Kid1, Kid2; }          -- v3 bound in both arms
        get (b': v4) from Base where (v4 op w);          -- w: v3, v1, v2 or a literal
        if G2 { C2 } else { get (k1'': v5) from Kid1 [where (v5 op lit)]; }
        C3

    G1/G2 are one or two conditions, including ``= null`` / ``!= null``;
    G2 reads v3 in some instances. C1..C3 are conflicts of random kinds.

    ``reads_joined`` is set when the protocol reads v3 after the join, in
    q4's where-clause or in G2. The program has known defects there: a
    where-clause over v3 raises ``KeyError``, and a guard over v3 gives a
    "reported conservatively" verdict that is wrong where the oracle
    proves the conflict unreachable.

    Two random sources: ``shape`` draws the operators, literals, guard
    forms, optional where-clauses and conflict kinds; ``data`` draws the
    attribute names and the table contents. Every column of every table is
    a permutation of the five domain values plus one null, so each query
    answers the same number of tuples whatever the data.
    """

    def __init__(self, shape: random.Random, data: random.Random, abstract_base: bool):
        self.rng = shape
        self.data = data
        attrs = list(CROSS_ATTRS)
        data.shuffle(attrs)
        self.abstract_base = abstract_base
        self.base, self.kid1, self.kid2 = attrs[0:2], attrs[2:4], attrs[4:6]
        self.classes = [
            {"name": "Base", "abstract": abstract_base, "dataProperties": self.base},
            {"name": "Kid1", "superclasses": ["Base"], "dataProperties": self.kid1},
            {"name": "Kid2", "superclasses": ["Base"], "dataProperties": self.kid2},
        ]
        self.props = {"Base": self.base, "Kid1": self.base + self.kid1,
                      "Kid2": self.base + self.kid2}

    def tables(self):
        out = {}
        for cls in ("Base", "Kid1", "Kid2"):
            if cls == "Base" and self.abstract_base:
                continue
            columns = {}
            for attr in self.props[cls]:
                column = [*CROSS_DOMAIN, None]
                self.data.shuffle(column)
                columns[attr] = column
            out[cls] = [{a: columns[a][r] for a in self.props[cls]}
                        for r in range(len(CROSS_DOMAIN) + 1)]
        return out

    def op(self):
        return self.rng.choice(CROSS_OPS)

    def lit(self):
        return str(self.rng.choice(CROSS_DOMAIN))

    def conflict(self, tag: str) -> Q:
        rng = self.rng
        kind = rng.randrange(3)
        if kind == 0:
            return Q([("ghostattr", f"g{tag}")], "Missing", conflict=True)
        if kind == 1:
            return Q([(rng.choice(self.props["Kid1"]), f"g{tag}")], "Kid1.Kid2", conflict=True)
        return Q([(rng.choice(self.kid1), f"g{tag}"), ("ghostattr", f"h{tag}")],
                 "Kid1", conflict=True)

    def guard(self, pool: list[str]) -> list[str]:
        conds = []
        for _ in range(self.rng.randint(1, 2)):
            var = self.rng.choice(pool)
            r = self.rng.random()
            if r < 0.15:
                conds.append(f"({var} = null)")
            elif r < 0.3:
                conds.append(f"({var} != null)")
            else:
                conds.append(f"({var} {self.op()} {self.lit()})")
        return conds

    def maybe_where(self, var: str, rhs: str, p: float) -> list[str]:
        return [f"({var} {self.op()} {rhs})"] if self.rng.random() < p else []

    def protocol(self) -> list:
        rng = self.rng
        k1 = list(self.kid1)
        rng.shuffle(k1)
        q1 = Q([(k1[0], "v1"), (k1[1], "v2")], "Kid1", self.maybe_where("v1", self.lit(), 0.5))
        q2 = Q([(rng.choice(self.kid2), "v3")], "Kid2", self.maybe_where("v3", "v1", 0.3))
        q3 = Q([(rng.choice(self.base), "v3")], "Kid1, Kid2")
        b1 = B(self.guard(["v1", "v2"]), [q2, self.conflict("1")], [q3])
        w = rng.choices(["v3", "v1", "v2", self.lit()], weights=[1, 6, 6, 6])[0]
        q4 = Q([(rng.choice(self.base), "v4")], "Base", [f"(v4 {self.op()} {w})"])
        g2_pool = ["v3"] if rng.random() < 0.15 else ["v4", "v1"]
        self.reads_joined = w == "v3" or g2_pool == ["v3"]
        q5 = Q([(rng.choice(self.kid1), "v5")], "Kid1", self.maybe_where("v5", self.lit(), 0.5))
        b2 = B(self.guard(g2_pool), [self.conflict("2")], [q5])
        return [q1, b1, q4, b2, self.conflict("3")]


def gen_oracle_crosscheck(rng: random.Random, work: str) -> Plan:
    plan = Plan("oracle-crosscheck", 0, [], [], {"oracle.traces": 0.0, "oracle.truncated": 0.0})
    traces_total = 0
    i = 0
    while len(plan.calls) < CROSS_INSTANCES:
        # The seed draws the data; the shapes form a fixed catalogue (each
        # from its own index), so every seed has the same mix of protocol
        # shapes. Shapes that read v3 after the join hit known defects;
        # their calls go to the untimed defect calls. Half the instances
        # have an abstract Base.
        shape = random.Random(f"oracle-crosscheck-shape:{i}")
        gen = _CrossGen(shape, rng, abstract_base=i % 2 == 1)
        text, conflicts = render(gen.protocol())
        inst = write_instance(os.path.join(work, f"i{i}"), gen.classes,
                              {a: "int" for a in CROSS_ATTRS}, gen.tables(), text)
        expected, traces, truncated, unknown = oracle_reference(inst, conflicts)
        plan.counts["oracle.truncated"] += truncated
        plan.unknown_references += unknown
        call = Call(verify_argv(inst, "--oracle"), expected, oracle_agrees=True)
        if gen.reads_joined:
            plan.defect_calls.append(call)
        else:
            traces_total += traces
            plan.instances.append(inst)
            plan.calls.append(call)
        i += 1
    plan.counts["oracle.traces"] = traces_total / len(plan.calls)
    return plan


GENERATORS = {
    "deep-path": gen_deep_path,
    "long-protocol": gen_long_protocol,
    "step-replay": gen_step_replay,
    "oracle-crosscheck": gen_oracle_crosscheck,
}


def generate(workload: str, seed: int, work: str) -> Plan:
    """Write the workload's inputs for this seed under ``work``."""
    rng = random.Random(f"{workload}:{seed}")
    plan = GENERATORS[workload](rng, work)
    plan.seed = seed
    return plan


def expected_exit(call: Call) -> int:
    """The CLI contract: 1 when any verdict is realizable, else 0."""
    return 1 if REALIZABLE in call.expected.values() else 0
