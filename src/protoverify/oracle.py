"""Brute-force execution oracle for conflict-query reachability.

Exhaustively enumerates protocol executions against the database with
its own nested-loop conjunctive evaluation. Deliberately independent of
the path index, the relational algebra and the engine's execution
states; this is the ground truth the spuriousness engine is tested
against.

A query whose answer set is empty (or that the server cannot interpret
at all) binds its fresh variables to null and execution continues.

The DSL has no loops, so an execution that takes the arm of a branch
that does not hold the target can never arrive at it. Each search first
walks ``p.statements`` for the branches that enclose the target and
drops an execution as soon as it takes the other arm of one of them: no
statement after that branch runs for it, and no later guard or where
clause is evaluated for it. The step bound thus counts only the queries
of executions that can still arrive. A target the protocol does not have
is never arrived at, and its search runs nothing.

A class's extent depends only on the database, and a query's answers
only on the query, the database and the state of the variables the query
reads, so both stay valid across searches over one protocol and one
database. They are kept in a ``Memo`` made for that pair and held by the
caller: a caller that runs several searches (one per conflict of a call)
passes one memo to each, and each extent and each answer set is derived
once. Without a memo a search makes a fresh one. The step bound is per
search either way.

A search may start from a conversation ``prefix``: (query id, answer)
entries, an answer being a dict over the query's output variables or
None for an unanswered query. The search replays the prefix before it
branches: each query the protocol runs takes the next entry's answer as
given (None nulls its unbound output variables), and each branch is
evaluated on the bindings. An execution in which a query other than the
one the next entry names runs does not agree with the prefix and is
dropped. A replayed query counts toward the bound like any other, and a
target the replay arrives at is reached.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from dataclasses import dataclass

from .errors import BoundExceededError
from .protocol import (
    Action,
    Branch,
    ProtocolAst,
    Query,
    eval_condition,
)
from .relstore import Database

DEFAULT_BOUND = 10**6


@dataclass(frozen=True)
class Trace:
    """One execution prefix reaching the target query."""

    entries: tuple[tuple[int, tuple | None], ...]  # (queryId, answer or None)
    branches: tuple[tuple[int, bool], ...]
    env: tuple[tuple[str, object], ...]  # bindings at the moment of arrival

    def env_dict(self) -> dict:
        return dict(self.env)


@dataclass(frozen=True)
class OracleResult:
    traces: tuple[Trace, ...]
    truncated: bool


def _extent_rows(db: Database, class_name: str):
    """Rows of a class and its non-abstract descendants, as attribute
    dicts over the class's effective properties; independent re-derivation
    of extent semantics."""
    graph = db.ontology
    node = graph.find_match(class_name)
    if node is None:
        return None
    attrs = sorted(graph.effective_properties(node.name))
    members = {node.name} | set(graph.descendants(node.name))
    rows = []
    seen = set()
    for member in sorted(members):
        table = db.tables.get(member)
        if table is None:
            continue
        for row in table.sorted_rows():
            d = dict(zip(table.columns, row))
            key = tuple(d[a] for a in attrs)
            if key not in seen:
                seen.add(key)
                rows.append({a: d[a] for a in attrs})
    return rows


class Memo:
    """The work that searches over one protocol and one database share:
    class extents by class name, the variables each query reads, and
    each query's answer options by its id and read state (see
    ``_search``)."""

    def __init__(self, p: ProtocolAst, db: Database):
        self.protocol = p
        self.db = db
        self.extents: dict[str, list | None] = {}
        self.reads: dict[int, tuple[str, ...]] = {}
        self.options: dict[tuple, list] = {}


def _answers(q: Query, env: dict, db: Database, extents: dict):
    """All answer tuples for a query under the current bindings, or []
    when the server cannot produce any (including unresolvable classes
    and unanswerable attributes). ``extents`` memoises ``_extent_rows``
    by class name."""
    per_ref = []
    covered: set[str] = set()
    non_wildcard = [(attr, var) for attr, var in q.bindings if var is not None]
    for ref in q.class_refs:
        name = ref.names[-1]
        if name not in extents:
            extents[name] = _extent_rows(db, name)
        rows = extents[name]
        if rows is None:
            return []
        node = db.ontology.find_match(name)
        attrs = db.ontology.effective_properties(node.name)
        local = [(attr, var) for attr, var in non_wildcard if attr in attrs]
        covered.update(var for _, var in local)
        per_ref.append((local, rows))
    if any(var not in covered for _, var in non_wildcard):
        return []

    out_vars = q.output_variables()
    seen = set()
    answers = []
    for combo in itertools.product(*(rows for _, rows in per_ref)):
        assignment: dict[str, object] = {}
        ok = True
        for (local, _), row in zip(per_ref, combo):
            for attr, var in local:
                val = row[attr]
                if var in env and var not in assignment:
                    # previously instantiated: must propagate the value;
                    # null never matches anything
                    if env[var] is None or val is None or env[var] != val:
                        ok = False
                        break
                    assignment[var] = val
                elif var in assignment:
                    prev = assignment[var]
                    if prev is None or val is None or prev != val:
                        ok = False
                        break
                else:
                    assignment[var] = val
            if not ok:
                break
        if not ok:
            continue
        check_env = dict(env)
        check_env.update(assignment)
        if not all(eval_condition(c, check_env) for c in q.where):
            continue
        tup = tuple(assignment[v] for v in out_vars)
        if tup not in seen:
            seen.add(tup)
            answers.append(dict(zip(out_vars, tup)))
    return answers


def enumerate_reaching_traces(p: ProtocolAst, db: Database, target: int,
                              bound: int = DEFAULT_BOUND) -> OracleResult:
    """All executions (up to the step bound) that arrive at the target
    query, in depth-first order. Arrival counts; the target itself is
    never evaluated."""
    return _search(p, db, target, bound, first_only=False)


def _search(p: ProtocolAst, db: Database, target: int, bound: int,
            first_only: bool, memo: Memo | None = None,
            prefix: Sequence[tuple[int, dict | None]] = ()) -> OracleResult:
    """Depth-first enumeration with an explicit stack, so protocol length
    is bounded by memory rather than by the recursion limit.

    The statements still to run form a linked list ``(statement, rest)``,
    so entering a branch arm shares the continuation behind it. The
    bindings, answers and branch outcomes of the current execution are
    mutated in place and undone when the search backs out of a choice.
    With ``first_only`` the search stops at the first arrival.

    A branch that encloses the target (``_target_arms``) and evaluates to
    the arm without it ends the execution there, so every step is a query
    of an execution that can still arrive.

    A query's answer options are memoised by its id and the state of each
    variable it reads (its output and where-clause variables): unbound, or
    bound to a value of a given type, since ``1 == 1.0``. Presence matters
    because the no-answer option nulls only the unbound output variables.
    Every execution still counts as a step. The memo belongs to ``p`` and
    ``db``; one made for another pair raises ValueError.

    While fewer answers are recorded than the prefix holds, the next
    query replays the prefix entry at that position instead of choosing.
    """
    if bound <= 0:
        raise ValueError("bound must be positive")
    if memo is None:
        memo = Memo(p, db)
    elif memo.protocol is not p or memo.db is not db:
        raise ValueError("the memo belongs to another protocol or database")
    target_arms = _target_arms(p.statements, target)
    if target_arms is None:
        return OracleResult((), False)
    prefix = tuple(prefix)
    traces: list[Trace] = []
    steps = 0
    env: dict[str, object] = {}
    entries: list[tuple[int, tuple | None]] = []
    branches: list[tuple[int, bool]] = []
    extents, reads, options_memo = memo.extents, memo.reads, memo.options
    # Tasks: (_RUN, continuation), (_CHOOSE, query id, options, index,
    # continuation, saved bindings), or (_LEAVE_BRANCH,).
    stack: list[tuple] = [(_RUN, _chain(p.statements, None))]
    while stack:
        task = stack.pop()
        kind = task[0]
        if kind is _LEAVE_BRANCH:
            branches.pop()
        elif kind is _CHOOSE:
            _, qid, options, k, rest, saved = task
            if k:
                # Undo the previous option.
                entries.pop()
                for v, old in saved.items():
                    if old is _MISSING:
                        del env[v]
                    else:
                        env[v] = old
            if k < len(options):
                answer, assignment = options[k]
                env.update(assignment)
                entries.append((qid, answer))
                stack.append((_CHOOSE, qid, options, k + 1, rest, saved))
                stack.append((_RUN, rest))
        else:
            cont = task[1]
            if cont is None:
                continue
            st, rest = cont
            if isinstance(st, Query):
                if st.id == target:
                    traces.append(
                        Trace(tuple(entries), tuple(branches), tuple(sorted(env.items())))
                    )
                    if first_only:
                        break
                    continue
                steps += 1
                if steps > bound:
                    return OracleResult(tuple(traces), True)
                if len(entries) < len(prefix):
                    qid, answer = prefix[len(entries)]
                    if qid != st.id:
                        continue  # this execution leaves the prefix
                    options = [_given(st, answer, env)]
                else:
                    names = reads.get(st.id)
                    if names is None:
                        where_vars = set().union(*(c.variables() for c in st.where))
                        names = reads[st.id] = tuple(
                            where_vars.union(st.output_variables()))
                    key = (st.id, tuple((type(env[v]), env[v]) if v in env else _MISSING
                                        for v in names))
                    options = options_memo.get(key)
                    if options is None:
                        out_vars = st.output_variables()
                        answers = _answers(st, env, db, extents)
                        if answers:
                            options = [(tuple(a[v] for v in out_vars), a) for a in answers]
                        else:
                            options = [_given(st, None, env)]
                        options_memo[key] = options
                saved = {v: env.get(v, _MISSING) for v in options[0][1]}
                stack.append((_CHOOSE, st.id, options, 0, rest, saved))
            elif isinstance(st, Branch):
                outcome = all(eval_condition(c, env) for c in st.conditions)
                if target_arms.get(st.id, outcome) != outcome:
                    continue  # this execution has left the target's arm
                arm = st.then_block if outcome else (st.else_block or ())
                branches.append((st.id, outcome))
                stack.append((_LEAVE_BRANCH,))
                stack.append((_RUN, _chain(arm, rest)))
            elif isinstance(st, Action):
                stack.append((_RUN, rest))
    return OracleResult(tuple(traces), False)


def _given(q: Query, answer: dict | None, env: dict) -> tuple:
    """The option of a query that receives ``answer``: its entry and its
    assignment. With no answer the unbound output variables come back
    null."""
    out_vars = q.output_variables()
    if answer is None:
        return None, {v: None for v in out_vars if v not in env}
    return tuple(answer[v] for v in out_vars), {v: answer[v] for v in out_vars}


def _target_arms(statements, target: int) -> dict[int, bool] | None:
    """The arm (True for then, False for else) of each branch enclosing
    the target query, by branch id; None when no query has the target id.
    An explicit stack of the blocks entered stands in for recursion."""
    blocks = [(iter(statements), {})]
    while blocks:
        block, arms = blocks[-1]
        st = next(block, None)
        if st is None:
            blocks.pop()
        elif isinstance(st, Query):
            if st.id == target:
                return arms
        elif isinstance(st, Branch):
            blocks.append((iter(st.then_block), {**arms, st.id: True}))
            if st.else_block is not None:
                blocks.append((iter(st.else_block), {**arms, st.id: False}))
    return None


def _chain(stmts, rest):
    """The statements prepended to the continuation ``rest``."""
    for st in reversed(stmts):
        rest = (st, rest)
    return rest


_RUN, _CHOOSE, _LEAVE_BRANCH = "run", "choose", "leave-branch"
_MISSING = object()


def is_reachable(p: ProtocolAst, db: Database, target: int,
                 bound: int = DEFAULT_BOUND, memo: Memo | None = None,
                 prefix: Sequence[tuple[int, dict | None]] = ()) -> bool:
    """True iff at least one execution that agrees with the prefix
    reaches the target query; the search stops at the first arrival.
    Executions that leave an arm enclosing the target are dropped at that
    branch, so the bound counts only queries of executions that can still
    arrive; BoundExceededError means the bound ran out before any did."""
    result = _search(p, db, target, bound, first_only=True, memo=memo, prefix=prefix)
    if result.truncated and not result.traces:
        raise BoundExceededError(
            f"enumeration bound {bound} exceeded before reaching query {target}"
        )
    return bool(result.traces)
