"""Database-level verification of ontological conflicts.

Given the conflicts found by the consistency checker, decide per
conflicting query whether the current back-end database can actually
drive an execution into it (realizable, with a witness tuple) or whether
every correct instantiation avoids it (spurious).

The verdict comes from the execution states of the path to the
conflict: each query on the path extends every state with the answers
the database can give it, a state without a matching answer continues
with null bindings, and each branch on the path must evaluate to the arm
the path takes. States are projected onto the variables that a later
path query or a guard still reads, keeping the smallest full row behind
each projected state for the witness, and each state meets only the
least answer per kept part in its bucket (``_extend`` says why that is
exact). Where conditions over earlier variables and branch guards are
compiled into predicates over tuples (``protocol.compile_condition``).

One verification call shares its work across conflicts. Each path
query's answers are read once per call by an answer plan
(``_answer_rows``): one pass over the tables behind each class
reference, or over the rows a per-table index finds for a
``var = literal`` key lookup when no where condition can raise, with no
class extent and no relation in between. They are bucketed once, by the
variables the query shares with earlier ones. Each distinct extension
step is computed once, and conflicts whose paths share a prefix share
its steps; each conflict keeps only its own live columns.

Step mode replays a conversation prefix: each answered query's answers
are its one answer from the prefix, and conflicts behind branch
decisions the prefix's values already took the other way are pruned.
Static verification is the same with an empty prefix.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass, field

from . import values
from .errors import (
    InconsistentTraceError,
    NoExtentError,
    SchemaError,
    TagMismatchError,
    UncoveredBindingError,
    UnknownQueryError,
    UnresolvableClassError,
)
from .ontology import OntologyGraph
from .protocol import (
    Branch,
    Condition,
    Lit,
    ProtocolAst,
    Query,
    Var,
    compile_condition,
    condition_may_raise,
    eval_condition,
)
from .relstore import Database, Relation, class_source, table_index

CONJUNCTION = "conjunction"
DISJUNCTION = "disjunction"

SPURIOUS = "spurious"
REALIZABLE = "realizable"

# Sentinel answer for a query the trace recorded as unanswered.
NO_ANSWER = object()


# --- answer plans ---

def generate_assignable_set(q: Query, db: Database) -> Relation:
    """The relation of tuples the evaluator could answer for a query
    (see ``_answer_rows``)."""
    columns, tags, rows = _answer_rows(q, db)
    return Relation(columns, tags, frozenset(rows))


def _answer_rows(q: Query, db: Database):
    """(output variables, their tags, set of answer rows) of a query, as
    ``class_extent``, ``natural_join``, ``select`` and ``project`` give
    them, with the same errors, but read from the tables with no
    relation in between.

    Each class reference contributes its tables' rows over its bound
    attributes' variables (``_part_rows``); one that binds no variable
    contributes the unit row, or no row when its tables are empty. The
    parts are joined on their shared variables (null never matches, and
    a variable keeps the value and tag of the first part binding it),
    filtered by the where conditions over the query's own variables and
    put in output-variable order.
    """
    out_vars = q.output_variables()
    non_wildcard = [(attr, var) for attr, var in q.bindings if var is not None]
    lookups = _key_lookups(q, db)
    # The joined variables in order, with their tags and rows (a query
    # with only wildcard bindings has the unit row); a tag mismatch is
    # raised after the errors of every class reference.
    tags: dict[str, str] = {}
    rows: set[tuple] = {()}
    mismatch = None
    for ref in q.class_refs:
        terminal = ref.names[-1]
        node = db.ontology.find_match(terminal)
        if node is None:
            raise UnresolvableClassError(
                f"query {q.id}: class {terminal!r} does not resolve"
            )
        try:
            source = class_source(db, node.name)
        except NoExtentError as exc:
            raise UnresolvableClassError(str(exc)) from exc
        # Each variable's attribute positions in the source, and the key
        # lookup (attribute, literal) that reads it, if any.
        at: dict[str, list[int]] = {}
        key = None
        for attr, var in non_wildcard:
            if attr in source.columns:
                at.setdefault(var, []).append(source.columns[attr])
                if key is None and var in lookups:
                    key = attr, lookups[var]
        bound = [j for js in at.values() for j in js]
        if len(set(bound)) != len(bound):
            raise SchemaError(f"duplicate column in relation {source.name!r}")
        for var, tag in tags.items():
            if var in at and not values.tags_comparable(tag, source.tags[at[var][0]]):
                mismatch = mismatch or (
                    f"shared column {var!r} has tags {tag!r} and {source.tags[at[var][0]]!r}"
                )
        part = _part_rows(db, source, at, key)
        if rows == {()}:
            rows = part
        else:
            joined = tuple(tags)
            left_at = [joined.index(v) for v in at if v in tags]
            right_at = [i for i, v in enumerate(at) if v in tags]
            extra_at = [i for i, v in enumerate(at) if v not in tags]
            buckets: dict[tuple, list[tuple]] = {}
            for row in part:
                probe = tuple(row[i] for i in right_at)
                if None not in probe:
                    buckets.setdefault(probe, []).append(tuple(row[i] for i in extra_at))
            rows = {row + extra for row in rows
                    for extra in buckets.get(tuple(row[i] for i in left_at), ())}
        for var, js in at.items():
            tags.setdefault(var, source.tags[js[0]])

    missing = [var for _, var in non_wildcard if var not in tags]
    if missing:
        raise UncoveredBindingError(
            f"query {q.id}: no class answers variables {sorted(set(missing))}"
        )
    if mismatch:
        raise TagMismatchError(mismatch)
    columns = tuple(tags)
    preds = [compile_condition(c, columns) for c in q.where if c.variables() <= tags.keys()]
    if len(preds) == 1:
        rows = set(filter(preds[0], rows))
    elif preds:
        rows = {row for row in rows if all(pred(row) for pred in preds)}
    if columns != out_vars:
        rows = set(map(operator.itemgetter(*map(columns.index, out_vars)), rows))
    return out_vars, tuple(tags[v] for v in out_vars), rows


def _part_rows(db: Database, source, at, key) -> set[tuple]:
    """A class reference's rows over its variables (``at`` maps each to
    its attributes' positions in ``source``), in one pass over each
    table's rows or over those its per-table index finds for ``key``.
    Two attributes bound to one variable must hold one non-null value;
    with no variable, a table with a row gives the unit row."""
    rows: set[tuple] = set()
    for name, positions in source.tables:
        firsts = [positions[js[0]] for js in at.values()]
        equal = [(positions[js[0]], positions[j]) for js in at.values() for j in js[1:]]
        found = db.tables[name].rows if key is None else (
            table_index(db, name, key[0]).get(key[1], ())
        )
        if equal:
            found = [row for row in found
                     if all(row[f] is not None and row[i] == row[f] for f, i in equal)]
        if len(firsts) > 1:
            rows.update(map(operator.itemgetter(*firsts), found))
        elif firsts:
            rows.update((row[firsts[0]],) for row in found)
        elif found:
            rows.add(())
    return rows


def _key_lookups(q: Query, db: Database) -> dict[str, object]:
    """Variable -> literal for the query's ``var = literal`` conditions,
    or nothing when the manifest tags allow one of its where conditions
    over its own variables to raise. Then the tables are scanned, so the
    error comes from the same row as it would without the lookup."""
    lookups: dict[str, object] = {}
    for cond in q.where:
        if cond.op != "=":
            continue
        for var, lit in ((cond.lhs, cond.rhs), (cond.rhs, cond.lhs)):
            if (isinstance(var, Var) and var.date_field is None
                    and isinstance(lit, Lit) and lit.value is not None):
                lookups.setdefault(var.name, lit.value)
    if not lookups:
        return lookups
    var_tags: dict[str, set] = {}
    for attr, var in q.bindings:
        if var is not None:
            var_tags.setdefault(var, set()).add(db.property_tags.get(attr))
    # Conditions over earlier variables are applied per state, not here.
    for cond in q.where:
        if cond.variables() <= var_tags.keys() and condition_may_raise(cond, var_tags):
            return {}
    return lookups


# --- verification context and driver ---

@dataclass
class VerifyContext:
    """State confined to one verification call.

    ``answers`` maps a query id to the query's ``Answers``: a replayed
    trace's answer as one row (none for an unanswered entry) with no
    conditions left, otherwise the database's, built on first use.
    ``steps`` maps (state set, query id, kept columns) to the state set
    that extension step yields, so conflicts whose paths share a prefix
    share its steps. None of it outlives the call: one protocol may be
    verified against several databases.
    """

    answers: dict[int, "Answers"] = field(default_factory=dict)
    steps: dict[tuple, "ReachingStates"] = field(default_factory=dict)


@dataclass(frozen=True)
class ConflictVerdict:
    query_id: int
    verdict: str
    witness: dict | None = None
    emptied_at: tuple[str, ...] | None = None
    note: str | None = None

    def to_json(self) -> dict:
        out: dict = {"queryId": self.query_id, "verdict": self.verdict}
        if self.verdict == REALIZABLE:
            out["witness"] = {
                k: values.value_to_json(v) for k, v in sorted(self.witness.items())
            }
        else:
            out["emptiedAt"] = list(self.emptied_at or ())
        if self.note:
            out["note"] = self.note
        return out


@dataclass(frozen=True)
class SpuriousnessReport:
    entries: tuple[ConflictVerdict, ...]
    mode: str = "static"

    def to_json(self) -> list[dict]:
        return [dict(e.to_json(), mode=self.mode) for e in self.entries]

    def to_json_text(self) -> str:
        return json.dumps(self.to_json(), indent=2, sort_keys=False)

    def verdict_for(self, query_id: int) -> str | None:
        for e in self.entries:
            if e.query_id == query_id:
                return e.verdict
        return None

    def has_realizable(self) -> bool:
        return any(e.verdict == REALIZABLE for e in self.entries)


def _check_binding_tags(p: ProtocolAst, db: Database):
    """Reject a variable bound to attributes whose declared tags cannot
    be compared, wherever the bindings occur."""
    first: dict[str, tuple[str, str]] = {}
    for q in p.queries():
        for attr, var in q.bindings:
            if var is None or attr not in db.property_tags:
                continue
            tag = db.property_tags[attr]
            first_attr, first_tag = first.setdefault(var, (attr, tag))
            if not values.tags_comparable(first_tag, tag):
                raise TagMismatchError(
                    f"variable {var!r} is bound to {first_attr!r} ({first_tag}) "
                    f"and {attr!r} ({tag}), which cannot be compared"
                )


@dataclass
class Answers:
    """A path query's answers in one call.

    ``columns`` are the query's output variables. ``shared`` holds the
    positions of those an earlier path query binds, and ``buckets`` maps
    the values at those positions to the answer rows carrying them; an
    answer with a null there meets no state and is left out.
    ``deferred`` lists the where conditions that read earlier
    variables, left for per-state evaluation.
    """

    columns: tuple[str, ...]
    shared: tuple[int, ...]
    buckets: dict[tuple, list[tuple]]
    deferred: list[Condition]


def _bucketed(columns, rows, fresh, deferred) -> Answers:
    """``Answers`` over ``rows``, bucketed by the columns not in ``fresh``."""
    shared = tuple(i for i, v in enumerate(columns) if v not in fresh)
    if not shared:
        return Answers(columns, shared, {(): list(rows)} if rows else {}, deferred)
    buckets: dict[tuple, list[tuple]] = {}
    for row in rows:
        probe = tuple(row[i] for i in shared)
        if None not in probe:
            buckets.setdefault(probe, []).append(row)
    return Answers(columns, shared, buckets, deferred)


def _answers(q: Query, fresh: tuple[str, ...], ctx: VerifyContext,
             db: Database) -> Answers:
    """The answers a path query can receive, built at most once per call
    and bucketed by its output variables that are not ``fresh``."""
    answers = ctx.answers.get(q.id)
    if answers is None:
        try:
            columns, _tags, rows = _answer_rows(q, db)
        except (UnresolvableClassError, UncoveredBindingError):
            # The server cannot answer the query; in execution its
            # variables come back null.
            columns, rows = q.output_variables(), ()
        # Conditions over previously instantiated variables are not
        # evaluable inside the query alone; apply them per state.
        deferred = [c for c in q.where if not c.variables() <= set(columns)]
        answers = ctx.answers[q.id] = _bucketed(columns, rows, fresh, deferred)
    return answers


@dataclass(frozen=True, eq=False)
class ReachingStates:
    """The states an execution can be in after a prefix of a path.

    ``columns`` lists every variable the prefix binds, in binding order.
    A state is keyed by its values of ``live``, the columns a later path
    query or a guard still reads; all states with one key extend and
    branch alike. ``smallest`` maps each key to the least full row (in
    ``values.sort_key`` order over ``columns``) among those it stands
    for, as (sort key, row). A state set is compared and hashed by
    identity: it is a node of one call's step memo.
    """

    columns: tuple[str, ...]
    live: tuple[str, ...]
    smallest: dict[tuple, tuple[tuple, tuple]]


# The single empty state before the first query.
_START = ReachingStates((), (), {(): ((), ())})


def _row_key(row) -> tuple:
    return tuple(map(values.sort_key, row))


def _reaching_states(p: ProtocolAst, db: Database, target: int,
                     ctx: VerifyContext, needed: set[str]) -> ReachingStates:
    """The states at the target, extended query by query along its path.

    Only the live variables key a state: those the guard variables in
    ``needed`` or a later path query (its bindings or where conditions)
    read. Keeping the smallest full row per key is exact, because the
    extensions of a row depend only on its key and the least extended
    row is the least row extended by the least extension.

    A step is identified by the state set it extends, the query and the
    bound columns it keeps, so the call computes each distinct step once
    (``ctx.steps``) however many conflicts' paths take it.
    """
    queries = p.path_queries(target)
    last_read: dict[str, int] = {}
    for i, q in enumerate(queries):
        for v in q.read_variables:
            last_read[v] = i
    states = _START
    for i, q in enumerate(queries):
        fresh = p.fresh_variables(q.id)
        keep = tuple(
            v for v in states.live + fresh if v in needed or last_read[v] > i
        )
        step = (states, q.id, keep)
        nxt = ctx.steps.get(step)
        if nxt is None:
            nxt = ctx.steps[step] = _extend(states, q, fresh, keep, ctx, db)
        states = nxt
    return states


def _extend(states: ReachingStates, q: Query, fresh: tuple[str, ...],
            keep: tuple[str, ...], ctx: VerifyContext, db: Database) -> ReachingStates:
    """One extension step: the states after ``q``, keyed by ``keep``.

    Each state extends with the answers that agree on the variables they
    share (null never agrees) and satisfy the query's deferred where
    conditions; a state with no such answer continues with the
    ``fresh`` variables null, mirroring the evaluator's no-answer
    semantics, so there is always at least one state.

    ``keep`` lists the kept live columns, then the kept fresh ones, each
    in its own order, as ``_reaching_states`` builds it. A next key is
    then the state's kept live values followed by the extension's kept
    fresh values, its kept part. Extensions of one state with one kept
    part give one next key, and the least extended row among them is
    the row extended by the least of them: min(sk + esk) = sk + min(esk).
    So each state meets only the least extension per kept part. Without
    deferred conditions a state's extensions depend only on its probe,
    and that least extension is tabled once per probed bucket: the step
    costs answers + states x kept parts, not states x answers. Deferred
    conditions read the state, so those steps filter per state and
    reduce the survivors by the same rule. Either way an extension's
    sort key is computed once per step.
    """
    answers = _answers(q, fresh, ctx, db)
    a_cols, buckets = answers.columns, answers.buckets
    fresh_at = [i for i, v in enumerate(a_cols) if v in fresh]
    probe_at = [states.live.index(a_cols[i]) for i in answers.shared]
    live_at = [j for j, v in enumerate(states.live) if v in keep]
    part_at = [j for j, v in enumerate(fresh) if v in keep]
    sort_keys: dict[tuple, tuple] = {}
    # Deferred conditions read the state's key and the answer row.
    where = [compile_condition(c, states.live + a_cols) for c in answers.deferred]
    # Without them, a state's candidates depend only on its probe.
    table: dict[tuple, list[tuple]] = {}
    null: list[tuple] = []
    next_states: dict[tuple, tuple[tuple, tuple]] = {}
    for key, (sort_key, row) in states.smallest.items():
        probe = tuple(key[j] for j in probe_at)
        if None in probe:
            candidates = []
        elif where:
            candidates = _least_per_part({
                tuple(arow[i] for i in fresh_at) for arow in buckets.get(probe, ())
                if all(pred(key + arow) for pred in where)
            }, part_at, sort_keys)
        else:
            candidates = table.get(probe)
            if candidates is None:
                candidates = table[probe] = _least_per_part({
                    tuple(arow[i] for i in fresh_at) for arow in buckets.get(probe, ())
                }, part_at, sort_keys)
        if not candidates:
            null = null or _least_per_part({(None,) * len(fresh)}, part_at, sort_keys)
            candidates = null
        live_part = tuple(key[j] for j in live_at)
        for part, ext, esk in candidates:
            next_key = live_part + part
            ext_sort_key = sort_key + esk
            best = next_states.get(next_key)
            if best is None or ext_sort_key < best[0]:
                next_states[next_key] = (ext_sort_key, row + ext)
    return ReachingStates(states.columns + fresh, keep, next_states)


def _least_per_part(extensions, part_at, sort_keys) -> list[tuple]:
    """(kept part, extension, sort key) of the least extension per kept
    part. ``sort_keys`` holds the sort keys the step has computed."""
    least: dict[tuple, tuple] = {}
    for ext in extensions:
        esk = sort_keys.get(ext)
        if esk is None:
            esk = sort_keys[ext] = _row_key(ext)
        part = tuple(ext[i] for i in part_at)
        best = least.get(part)
        if best is None or esk < best[2]:
            least[part] = (part, ext, esk)
    return list(least.values())


def _decide_conflict(qid: int, ctx: VerifyContext, p: ProtocolAst, db: Database,
                     combination: str, decided=()) -> ConflictVerdict:
    # (conditions, arm) per branch on the path that the trace has not
    # ``decided``: the branch's conjunction must evaluate to exactly the
    # arm taken.
    pairs = [
        (branch.conditions, arm) for branch, arm in p.arms(qid)
        if branch.id not in decided
    ]
    if not pairs:
        return ConflictVerdict(qid, REALIZABLE, witness={})

    needed: set[str] = set()
    for conds, _arm in pairs:
        for cond in conds:
            needed |= cond.variables()

    states = _reaching_states(p, db, qid, ctx, needed)
    if not needed <= set(states.columns):
        return ConflictVerdict(
            qid, REALIZABLE, witness={},
            note="path condition over variables bound only inside "
                 "branches; reachability reported conservatively",
        )

    guards = [
        ([compile_condition(c, states.live) for c in conds], arm)
        for conds, arm in pairs
    ]
    reaching = []
    for key, smallest in states.smallest.items():
        checks = [all(pred(key) for pred in preds) == arm for preds, arm in guards]
        if all(checks) if combination == CONJUNCTION else any(checks):
            reaching.append(smallest)
    if not reaching:
        return ConflictVerdict(qid, SPURIOUS, emptied_at=tuple(sorted(needed)))
    _sort_key, row = min(reaching, key=operator.itemgetter(0))
    witness = dict(zip(states.columns, row))
    return ConflictVerdict(qid, REALIZABLE, witness=witness)


def verify_all(p: ProtocolAst, server: OntologyGraph, db: Database, conflicts,
               combination: str = CONJUNCTION) -> SpuriousnessReport:
    """One verdict per distinct conflicting query, in query order."""
    return _verify(p, db, conflicts, (), combination)


def step_verify(p: ProtocolAst, server: OntologyGraph, db: Database, conflicts,
                trace, combination: str = CONJUNCTION) -> SpuriousnessReport:
    """Re-verify the remaining conflicts after a conversation prefix.

    Conflicts behind branch decisions the prefix's values already took
    the other way are dropped; an answered query's answers are its one
    answer. An empty trace gives the static verdicts.
    """
    return _verify(p, db, conflicts, trace, combination)


def _verify(p: ProtocolAst, db: Database, conflicts, trace,
            combination: str) -> SpuriousnessReport:
    """The verdicts of both entry points after replaying ``trace``, which
    is empty for static verification. A trace prunes only on values it
    supplied: behind a branch whose guard reads a variable. Each entry
    point calls this function directly, so neither runs inside the other."""
    _check_binding_tags(p, db)
    ctx = VerifyContext()
    decided, reached = _replay_trace(p, db, trace, ctx.answers)
    entries = []
    for qid in sorted({m.query_id for m in conflicts}):
        if decided and any(decided.get(branch.id, arm) != arm
                           for branch, arm in p.arms(qid)):
            continue
        if qid in reached:
            entries.append(
                ConflictVerdict(
                    qid, REALIZABLE, witness={},
                    note="conflicting query already reached in trace",
                )
            )
            continue
        entries.append(_decide_conflict(qid, ctx, p, db, combination, decided))
    return SpuriousnessReport(tuple(entries), mode="step" if trace else "static")


# --- step mode (incremental verification after each exchange) ---

def parse_trace(raw, p: ProtocolAst, db: Database):
    """Decode a JSON trace (list of {queryId, answer, branch?} entries)
    into the internal (queryId, answer-dict | NO_ANSWER, decisions,
    variable tags) form; the tags, from ``_variable_tags``, decode the
    answer and are carried to the replay. A decision must name a branch
    of the protocol. Each error about one entry names the entry's index."""
    if not isinstance(raw, list):
        raise InconsistentTraceError("trace must be a list of entries")
    branch_ids = {branch.id for branch in p.branches()}
    entries = []
    for index, item in enumerate(raw):
        if not isinstance(item, dict) or "queryId" not in item:
            raise InconsistentTraceError(
                f"trace entry {index} must be an object with a queryId"
            )
        qid = item["queryId"]
        if type(qid) is not int:
            raise InconsistentTraceError(
                f"trace entry {index}: queryId {qid!r} must be an integer"
            )
        try:
            q = p.query(qid)
        except UnknownQueryError:
            raise InconsistentTraceError(
                f"trace entry {index} answers query {qid}, which the protocol "
                f"does not have"
            ) from None
        tags = _variable_tags(q, db)
        raw_answer = item.get("answer")
        if raw_answer is None:
            answer = NO_ANSWER
        elif not isinstance(raw_answer, dict):
            raise InconsistentTraceError(
                f"trace entry {index} for query {qid}: 'answer' must be an "
                f"object or null"
            )
        else:
            answer = {}
            for var, raw_val in raw_answer.items():
                tag = tags.get(var, "str")
                try:
                    answer[var] = values.value_from_json(raw_val, tag)
                except (TypeError, ValueError, OverflowError) as exc:
                    raise InconsistentTraceError(
                        f"trace entry {index} for query {qid}: value of {var!r} is "
                        f"not a {tag}: {exc}"
                    ) from exc
        decisions = item.get("branch")
        if decisions is None:
            decisions = []
        elif isinstance(decisions, dict):
            decisions = [decisions]
        if not isinstance(decisions, list) or not all(
            _is_decision(d) for d in decisions
        ):
            raise InconsistentTraceError(
                f"trace entry {index} for query {qid}: 'branch' must be an object, or "
                f"a list of objects, with an integer 'index' and a boolean 'taken'"
            )
        for d in decisions:
            if d["index"] not in branch_ids:
                raise InconsistentTraceError(
                    f"trace entry {index} decides branch {d['index']}, "
                    f"which the protocol does not have"
                )
        entries.append((qid, answer, [(d["index"], d["taken"]) for d in decisions], tags))
    return entries


def _is_decision(d) -> bool:
    return (
        isinstance(d, dict)
        and type(d.get("index")) is int
        and isinstance(d.get("taken"), bool)
    )


def _variable_tags(q: Query, db: Database) -> dict[str, str]:
    tags = {}
    for attr, var in q.bindings:
        if var is not None and attr in db.property_tags:
            tags[var] = db.property_tags[attr]
    return tags


def _replay_trace(p: ProtocolAst, db: Database, trace, answers):
    """Validate a trace against the protocol and database schema.

    Each replayed answer goes into ``answers`` as the query's one answer
    row (no row for an unanswered entry), with no where condition left
    to apply. Returns (the outcomes of the passed branches whose guard
    reads a variable, reached query ids). Raises InconsistentTraceError
    on any violation, naming the trace entry at fault: every decision an
    entry claims must be for a branch the replay passes, and must agree
    with its outcome there.
    """
    entries = list(trace)
    claims: dict[int, list[tuple[int, bool]]] = {}
    for index, (_, _, decisions, _) in enumerate(entries):
        for bid, taken in decisions:
            claims.setdefault(bid, []).append((index, taken))
    env: dict[str, object] = {}
    decided: dict[int, bool] = {}
    passed: set[int] = set()
    reached: set[int] = set()
    pos = 0
    # The statements in execution order, through an explicit stack of
    # the blocks entered; the walk stops where the trace runs out.
    blocks = [iter(p.statements)]
    while blocks:
        st = next(blocks[-1], None)
        if st is None:
            blocks.pop()
        elif isinstance(st, Query):
            if pos >= len(entries):
                break
            qid, answer, _, tags = entries[pos]
            if qid != st.id:
                raise InconsistentTraceError(
                    f"trace entry {pos} answers query {qid} but query "
                    f"{st.id} executes next"
                )
            _apply_answer(st, answer, tags, env, pos)
            pos += 1
            reached.add(st.id)
            columns = st.output_variables()
            rows = [] if answer is NO_ANSWER else [tuple(answer[v] for v in columns)]
            answers[st.id] = _bucketed(columns, rows, p.fresh_variables(st.id), [])
        elif isinstance(st, Branch):
            reads = [v for c in st.conditions for v in c.variables()]
            if not all(v in env for v in reads):
                if pos < len(entries):
                    raise InconsistentTraceError(
                        f"branch {st.id} guard is undecidable but trace "
                        f"entry {pos} continues past it"
                    )
                break
            outcome = all(eval_condition(c, env) for c in st.conditions)
            for index, taken in claims.get(st.id, ()):
                if taken != outcome:
                    raise InconsistentTraceError(
                        f"trace entry {index} decides branch {st.id} as {taken} "
                        f"but the seeded values force {outcome}"
                    )
            passed.add(st.id)
            if reads:
                decided[st.id] = outcome
            if outcome:
                blocks.append(iter(st.then_block))
            elif st.else_block is not None:
                blocks.append(iter(st.else_block))
    if pos < len(entries):
        raise InconsistentTraceError(
            f"trace entry {pos} for query {entries[pos][0]} never executes"
        )
    for index, (_, _, decisions, _) in enumerate(entries):
        for bid, _ in decisions:
            if bid not in passed:
                raise InconsistentTraceError(
                    f"trace entry {index} decides branch {bid}, which the trace "
                    f"never reaches"
                )
    return decided, reached


def _apply_answer(q: Query, answer, tags: dict[str, str], env, index):
    """Bind the answer of trace entry ``index`` to query ``q`` in ``env``;
    ``tags`` are the entry's variable tags.
    An unanswered query's output variables that are still unbound come
    back null, as in the oracle."""
    if answer is NO_ANSWER:
        for var in q.output_variables():
            if var not in env:
                env[var] = None
        return
    entry = f"trace entry {index} for query {q.id}"
    expected = set(q.output_variables())
    if set(answer) != expected:
        raise InconsistentTraceError(
            f"{entry}: answer must bind exactly {sorted(expected)}"
        )
    for var, val in answer.items():
        if val is not None and var in tags:
            if not values.tags_comparable(values.tag_of(val), tags[var]):
                raise InconsistentTraceError(
                    f"{entry}: answer value for {var!r} has tag "
                    f"{values.tag_of(val)!r}, expected {tags[var]!r}"
                )
    for var in expected & set(env):
        prev = env[var]
        if prev is None or answer[var] is None or prev != answer[var]:
            raise InconsistentTraceError(
                f"{entry}: answer rebinds instantiated variable {var!r} "
                f"inconsistently"
            )
    check_env = dict(env)
    check_env.update(answer)
    for cond in q.where:
        if cond.variables() <= set(check_env) and not eval_condition(cond, check_env):
            raise InconsistentTraceError(
                f"{entry}: answer violates its where clause {cond}"
            )
    env.update(answer)
