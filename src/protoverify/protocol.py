"""Grammar, AST, and parser for the query-protocol DSL, plus the static
variable and path analyses used by both checkers.

Surface syntax::

    get (title: t1, author: a, date: d1) from Manual where (t1 = 'ManualName');
    get (title: t2, author: a) from Book;
    if (t2 != null) {
      get (title: t3, author: a, date: d2) from Book.Proceedings;
    }

Adjacent conditions form a conjunction. ``do Name(args...);`` declares an
opaque external action. Branching is structured if/else only.
"""

from __future__ import annotations

import datetime
import operator
import re
from dataclasses import dataclass, field

from . import values
from .errors import (
    IncomparableTagsError,
    ProtocolSemanticError,
    ProtocolSyntaxError,
    UnknownQueryError,
    UnknownVariableError,
)

UNINSTANTIATED = "uninstantiated"
INSTANTIATED = "instantiated"

COMPARISON_OPS = ("=", "!=", "<", ">", "<=", ">=")

_NEGATED_OP = {"=": "!=", "!=": "=", "<": ">=", ">=": "<", ">": "<=", "<=": ">"}

KEYWORDS = {"get", "from", "where", "if", "else", "do", "null"}

# Deepest ``if`` nesting the parser accepts. The parser and the analyses
# recurse once per level, so this keeps them well inside Python's
# recursion limit.
MAX_NESTING = 100


# --- AST ---

@dataclass(frozen=True)
class ClassRef:
    """A class name or a dot-separated specialization sequence."""

    names: tuple[str, ...]

    def __post_init__(self):
        if not self.names:
            raise ProtocolSemanticError("empty class reference")
        for a, b in zip(self.names, self.names[1:]):
            if a == b:
                raise ProtocolSemanticError(
                    f"repeated consecutive class name {a!r} in sequence"
                )

    def __str__(self):
        return ".".join(self.names)


@dataclass(frozen=True)
class Var:
    """A variable operand, optionally with a date-field accessor."""

    name: str
    date_field: str | None = None

    def __str__(self):
        return self.name if self.date_field is None else f"{self.name}.{self.date_field}"


@dataclass(frozen=True)
class Lit:
    """A literal operand: int, float, str, date, or None (null)."""

    value: object

    def __str__(self):
        v = self.value
        if v is None:
            return "null"
        if isinstance(v, str):
            return f"'{v}'"
        if isinstance(v, datetime.date):
            return v.isoformat()
        return repr(v) if isinstance(v, float) else str(v)


@dataclass(frozen=True)
class Condition:
    lhs: Var | Lit
    op: str
    rhs: Var | Lit

    def variables(self) -> frozenset[str]:
        out = set()
        for side in (self.lhs, self.rhs):
            if isinstance(side, Var):
                out.add(side.name)
        return frozenset(out)

    def negated(self) -> "Condition":
        return Condition(self.lhs, _NEGATED_OP[self.op], self.rhs)

    def is_null_literal_test(self) -> bool:
        return (isinstance(self.rhs, Lit) and self.rhs.value is None) or (
            isinstance(self.lhs, Lit) and self.lhs.value is None
        )

    def __str__(self):
        return f"({self.lhs} {self.op} {self.rhs})"


@dataclass(frozen=True)
class Query:
    id: int
    bindings: tuple[tuple[str, str | None], ...]  # (attribute, var); None = wildcard
    class_refs: tuple[ClassRef, ...]
    where: tuple[Condition, ...] = ()

    def output_variables(self) -> tuple[str, ...]:
        """Non-wildcard bound variables, in binding order, deduplicated."""
        seen = []
        for _, var in self.bindings:
            if var is not None and var not in seen:
                seen.append(var)
        return tuple(seen)

    def bound_attributes(self) -> tuple[str, ...]:
        return tuple(attr for attr, _ in self.bindings)


@dataclass(frozen=True)
class Branch:
    id: int
    conditions: tuple[Condition, ...]
    then_block: tuple["Statement", ...]
    else_block: tuple["Statement", ...] | None = None


@dataclass(frozen=True)
class Action:
    name: str
    args: tuple[Var | Lit, ...] = ()


Statement = Query | Branch | Action


@dataclass(frozen=True)
class ProtocolAst:
    statements: tuple[Statement, ...]
    _queries: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        index = {}
        for q in _walk_queries(self.statements):
            index[q.id] = q
        object.__setattr__(self, "_queries", index)

    def queries(self) -> list[Query]:
        """All queries in document order."""
        return [self._queries[i] for i in sorted(self._queries)]

    def branches(self) -> list[Branch]:
        return list(_walk_branches(self.statements))

    def query(self, query_id: int) -> Query:
        try:
            return self._queries[query_id]
        except KeyError:
            raise UnknownQueryError(f"no query with id {query_id}") from None


def _walk_queries(stmts):
    for st in stmts:
        if isinstance(st, Query):
            yield st
        elif isinstance(st, Branch):
            yield from _walk_queries(st.then_block)
            if st.else_block is not None:
                yield from _walk_queries(st.else_block)


def _walk_branches(stmts):
    for st in stmts:
        if isinstance(st, Branch):
            yield st
            yield from _walk_branches(st.then_block)
            if st.else_block is not None:
                yield from _walk_branches(st.else_block)


# --- lexer ---

_TOKEN_RE = re.compile(
    r"""
    (?P<WS>\s+)
  | (?P<DATE>\d{4}-\d{2}-\d{2})
  | (?P<DECIMAL>\d+\.\d+)
  | (?P<INT>\d+)
  | (?P<STRING>'[^'\n]*')
  | (?P<NAME>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<OP><=|>=|!=|=|<|>)
  | (?P<PUNCT>[(){}:;,.*])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    line: int
    column: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    pos = 0
    line = 1
    line_start = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ProtocolSyntaxError(
                f"unexpected character {text[pos]!r}", line, pos - line_start + 1
            )
        kind = m.lastgroup
        tok_text = m.group()
        if kind != "WS":
            tokens.append(_Token(kind, tok_text, line, pos - line_start + 1))
        newlines = tok_text.count("\n")
        if newlines:
            line += newlines
            line_start = pos + tok_text.rfind("\n") + 1
        pos = m.end()
    tokens.append(_Token("EOF", "", line, pos - line_start + 1))
    return tokens


# --- parser ---

class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.next_query_id = 1
        self.next_branch_id = 1
        self.depth = 0  # blocks enclosing the current statement

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def error(self, message):
        tok = self.peek()
        raise ProtocolSyntaxError(message, tok.line, tok.column)

    def expect(self, kind, text=None) -> _Token:
        tok = self.peek()
        if tok.kind != kind or (text is not None and tok.text != text):
            want = text if text is not None else kind
            raise ProtocolSyntaxError(
                f"expected {want!r}, found {tok.text or 'end of input'!r}",
                tok.line,
                tok.column,
            )
        return self.advance()

    def at_punct(self, text) -> bool:
        tok = self.peek()
        return tok.kind == "PUNCT" and tok.text == text

    def at_keyword(self, word) -> bool:
        tok = self.peek()
        return tok.kind == "NAME" and tok.text == word

    def parse_protocol(self) -> ProtocolAst:
        stmts = self.parse_statements(until="EOF")
        self.expect("EOF")
        return ProtocolAst(tuple(stmts))

    def parse_statements(self, until) -> list[Statement]:
        stmts = []
        while True:
            tok = self.peek()
            if until == "EOF" and tok.kind == "EOF":
                break
            if until == "}" and self.at_punct("}"):
                break
            stmts.append(self.parse_statement())
        return stmts

    def parse_statement(self) -> Statement:
        if self.at_keyword("get"):
            return self.parse_query()
        if self.at_keyword("if"):
            return self.parse_branch()
        if self.at_keyword("do"):
            return self.parse_action()
        self.error("expected 'get', 'if', or 'do'")

    def parse_query(self) -> Query:
        self.expect("NAME", "get")
        self.expect("PUNCT", "(")
        bindings = [self.parse_binding()]
        while self.at_punct(","):
            self.advance()
            bindings.append(self.parse_binding())
        self.expect("PUNCT", ")")
        self.expect("NAME", "from")
        class_refs = [self.parse_class_ref()]
        while self.at_punct(","):
            self.advance()
            class_refs.append(self.parse_class_ref())
        where = ()
        if self.at_keyword("where"):
            self.advance()
            where = tuple(self.parse_condition_list())
        self.expect("PUNCT", ";")
        qid = self.next_query_id
        self.next_query_id += 1
        return Query(qid, tuple(bindings), tuple(class_refs), where)

    def parse_binding(self) -> tuple[str, str | None]:
        attr = self.parse_name("attribute name")
        self.expect("PUNCT", ":")
        if self.at_punct("*"):
            self.advance()
            return (attr, None)
        var = self.parse_name("variable name")
        return (attr, var)

    def parse_name(self, what) -> str:
        tok = self.peek()
        if tok.kind != "NAME" or tok.text in KEYWORDS:
            self.error(f"expected {what}")
        return self.advance().text

    def parse_class_ref(self) -> ClassRef:
        names = [self.parse_name("class name")]
        while self.at_punct("."):
            self.advance()
            names.append(self.parse_name("class name"))
        try:
            return ClassRef(tuple(names))
        except ProtocolSemanticError as exc:
            self.error(str(exc))

    def parse_condition_list(self) -> list[Condition]:
        conds = [self.parse_condition()]
        while self.at_punct("("):
            conds.append(self.parse_condition())
        return conds

    def parse_condition(self) -> Condition:
        self.expect("PUNCT", "(")
        lhs = self.parse_operand()
        tok = self.peek()
        if tok.kind != "OP":
            self.error("expected comparison operator")
        op = self.advance().text
        rhs = self.parse_operand()
        self.expect("PUNCT", ")")
        return Condition(lhs, op, rhs)

    def parse_operand(self) -> Var | Lit:
        tok = self.peek()
        if tok.kind == "INT":
            self.advance()
            return Lit(int(tok.text))
        if tok.kind == "DECIMAL":
            self.advance()
            return Lit(float(tok.text))
        if tok.kind == "STRING":
            self.advance()
            return Lit(tok.text[1:-1])
        if tok.kind == "DATE":
            self.advance()
            return Lit(values.parse_date(tok.text))
        if tok.kind == "NAME":
            if tok.text == "null":
                self.advance()
                return Lit(None)
            if tok.text in KEYWORDS:
                self.error("expected operand")
            name = self.advance().text
            if self.at_punct("."):
                self.advance()
                fld = self.parse_name("date field")
                if fld not in values.DATE_FIELDS:
                    self.error(
                        f"unknown date field {fld!r} (expected year, month, or day)"
                    )
                return Var(name, fld)
            return Var(name)
        self.error("expected operand")

    def parse_branch(self) -> Branch:
        tok = self.expect("NAME", "if")
        if self.depth >= MAX_NESTING:
            raise ProtocolSyntaxError(
                f"'if' nested more than {MAX_NESTING} deep", tok.line, tok.column
            )
        conds = tuple(self.parse_condition_list())
        bid = self.next_branch_id
        self.next_branch_id += 1
        then_block = tuple(self.parse_block())
        else_block = None
        if self.at_keyword("else"):
            self.advance()
            else_block = tuple(self.parse_block())
        return Branch(bid, conds, then_block, else_block)

    def parse_block(self) -> list[Statement]:
        self.expect("PUNCT", "{")
        self.depth += 1
        stmts = self.parse_statements(until="}")
        self.depth -= 1
        self.expect("PUNCT", "}")
        return stmts

    def parse_action(self) -> Action:
        self.expect("NAME", "do")
        name = self.parse_name("action name")
        self.expect("PUNCT", "(")
        args = []
        if not self.at_punct(")"):
            args.append(self.parse_operand())
            while self.at_punct(","):
                self.advance()
                args.append(self.parse_operand())
        self.expect("PUNCT", ")")
        self.expect("PUNCT", ";")
        return Action(name, tuple(args))


def parse_protocol(text: str) -> ProtocolAst:
    """Parse DSL source into an AST and run the static variable checks."""
    ast = _Parser(text).parse_protocol()
    _check_variable_use(ast)
    return ast


# --- printing ---

def print_protocol(p: ProtocolAst) -> str:
    """Canonical pretty-printed form; re-parsing it yields an equal AST."""
    lines: list[str] = []
    _print_statements(p.statements, lines, 0)
    return "\n".join(lines) + ("\n" if lines else "")


def _print_statements(stmts, lines, depth):
    pad = "  " * depth
    for st in stmts:
        if isinstance(st, Query):
            parts = []
            for attr, var in st.bindings:
                parts.append(f"{attr}: {var if var is not None else '*'}")
            text = f"{pad}get ({', '.join(parts)}) from "
            text += ", ".join(str(cr) for cr in st.class_refs)
            if st.where:
                text += " where " + " ".join(str(c) for c in st.where)
            lines.append(text + ";")
        elif isinstance(st, Branch):
            head = f"{pad}if " + " ".join(str(c) for c in st.conditions) + " {"
            lines.append(head)
            _print_statements(st.then_block, lines, depth + 1)
            if st.else_block is not None:
                lines.append(f"{pad}}} else {{")
                _print_statements(st.else_block, lines, depth + 1)
            lines.append(pad + "}")
        else:
            args = ", ".join(str(a) for a in st.args)
            lines.append(f"{pad}do {st.name}({args});")


# --- static analyses ---

def _check_variable_use(p: ProtocolAst):
    """Reject reads of variables that are not definitely bound."""
    first_binding = {}
    for q in p.queries():
        for _, var in q.bindings:
            if var is not None and var not in first_binding:
                first_binding[var] = q.id

    def check_operands(operands, bound, where):
        for operand in operands:
            if isinstance(operand, Var) and operand.name not in bound:
                raise ProtocolSemanticError(
                    f"variable {operand.name!r} read before instantiation ({where})"
                )

    def walk(stmts, bound: frozenset[str]) -> frozenset[str]:
        for st in stmts:
            if isinstance(st, Query):
                own = set(q_var for q_var in st.output_variables())
                for cond in st.where:
                    check_operands(
                        (cond.lhs, cond.rhs),
                        bound | own,
                        f"where clause of query {st.id}",
                    )
                bound = bound | own
            elif isinstance(st, Branch):
                for cond in st.conditions:
                    check_operands(
                        (cond.lhs, cond.rhs), bound, f"branch {st.id} condition"
                    )
                then_out = walk(st.then_block, bound)
                if st.else_block is not None:
                    else_out = walk(st.else_block, bound)
                    bound = then_out & else_out
                # if without else: only previously bound vars are definite
            else:
                check_operands(st.args, bound, f"action {st.name!r}")
        return bound

    walk(p.statements, frozenset())


def classify_variables(p: ProtocolAst) -> dict[tuple[int, str], str]:
    """Per (queryId, variable) occurrence classification.

    The first binding occurrence of a variable (document order) is
    uninstantiated; every later occurrence, binding or condition, is
    instantiated.
    """
    first_binding: dict[str, int] = {}
    for q in p.queries():
        for _, var in q.bindings:
            if var is not None and var not in first_binding:
                first_binding[var] = q.id
    out: dict[tuple[int, str], str] = {}
    for q in p.queries():
        mentioned = set(q.output_variables())
        for cond in q.where:
            mentioned |= cond.variables()
        for var in mentioned:
            if first_binding.get(var) == q.id:
                out[(q.id, var)] = UNINSTANTIATED
            else:
                out[(q.id, var)] = INSTANTIATED
    return out


def instantiating_query(p: ProtocolAst, variable: str) -> int:
    """Id of the query whose bindings introduce the variable."""
    for q in p.queries():
        for _, var in q.bindings:
            if var == variable:
                return q.id
    raise UnknownVariableError(f"variable {variable!r} is never instantiated")


def path_conditions(p: ProtocolAst, target: int) -> list[Condition]:
    """Branch conditions that must hold on the syntactic path from the
    protocol start to the target query; else-branch conditions come back
    negated (operator flipped)."""

    def find(stmts, acc):
        for st in stmts:
            if isinstance(st, Query):
                if st.id == target:
                    return list(acc)
            elif isinstance(st, Branch):
                found = find(st.then_block, acc + list(st.conditions))
                if found is not None:
                    return found
                if st.else_block is not None:
                    negated = [c.negated() for c in st.conditions]
                    found = find(st.else_block, acc + negated)
                    if found is not None:
                        return found
        return None

    found = find(p.statements, [])
    if found is None:
        raise UnknownQueryError(f"no query with id {target}")
    return found


def branch_path(p: ProtocolAst, target: int) -> list[tuple[int, bool]]:
    """(branchId, arm) pairs on the unique syntactic path to the target
    query; arm True means the then-block."""

    def find(stmts, acc):
        for st in stmts:
            if isinstance(st, Query):
                if st.id == target:
                    return list(acc)
            elif isinstance(st, Branch):
                found = find(st.then_block, acc + [(st.id, True)])
                if found is not None:
                    return found
                if st.else_block is not None:
                    found = find(st.else_block, acc + [(st.id, False)])
                    if found is not None:
                        return found
        return None

    found = find(p.statements, [])
    if found is None:
        raise UnknownQueryError(f"no query with id {target}")
    return found


# --- condition evaluation ---

def resolve_operand(operand: Var | Lit, env: dict):
    if isinstance(operand, Lit):
        return operand.value
    value = env[operand.name]
    if operand.date_field is not None:
        if value is None:
            return None
        if not isinstance(value, datetime.date):
            raise IncomparableTagsError(
                f"date-field access on non-date value of {operand.name!r}"
            )
        return getattr(value, operand.date_field)
    return value


def eval_condition(cond: Condition, env: dict) -> bool:
    """Two-valued condition evaluation under the null decision:

    ordering comparisons involving null are false; ``x = null`` holds iff
    x is null; ``x != null`` holds iff x is not; null never equals any
    value, including another null.
    """
    lv = resolve_operand(cond.lhs, env)
    rv = resolve_operand(cond.rhs, env)
    null_literal = (isinstance(cond.rhs, Lit) and cond.rhs.value is None) or (
        isinstance(cond.lhs, Lit) and cond.lhs.value is None
    )
    if cond.op in ("=", "!="):
        if null_literal:
            other = lv if rv is None else rv
            return (other is None) == (cond.op == "=")
        if lv is None or rv is None:
            return False
        _require_comparable(lv, rv)
        return (lv == rv) == (cond.op == "=")
    if lv is None or rv is None:
        return False
    _require_comparable(lv, rv)
    if cond.op == "<":
        return lv < rv
    if cond.op == ">":
        return lv > rv
    if cond.op == "<=":
        return lv <= rv
    return lv >= rv


_COMPARE = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    ">": operator.gt,
    "<=": operator.le,
    ">=": operator.ge,
}


def compile_condition(cond: Condition, columns):
    """A predicate over row tuples aligned with ``columns`` that agrees
    with ``eval_condition(cond, dict(zip(columns, row)))``, including the
    errors it raises and the order it raises them in.

    Operands are resolved to a tuple position or a literal once. A column
    named twice resolves to its last position, as in the dict. A variable
    missing from ``columns`` raises ``KeyError`` only when the predicate
    runs, as the dict lookup would. Cells are only ever int, float, str or
    date, so values of one Python type always have comparable tags and the
    tag check runs only on values of different types.
    """
    position = {name: i for i, name in enumerate(columns)}
    compare = _COMPARE[cond.op]
    lhs, rhs = cond.lhs, cond.rhs
    if (isinstance(lhs, Var) and lhs.date_field is None and lhs.name in position
            and isinstance(rhs, Lit) and rhs.value is not None):
        # The common shape, a column against a literal, without operand calls.
        i, lit = position[lhs.name], rhs.value
        lit_type = type(lit)

        def column_vs_literal(row):
            lv = row[i]
            if lv is None:
                return False
            if type(lv) is not lit_type:
                _require_comparable(lv, lit)
            return compare(lv, lit)

        return column_vs_literal

    lget = _compile_operand(lhs, position)
    rget = _compile_operand(rhs, position)
    # A null literal makes one side null, so only ``= null`` (both sides
    # null) and ``!= null`` (not both null) can hold.
    null_test = None
    if cond.is_null_literal_test() and cond.op in ("=", "!="):
        null_test = cond.op == "="

    def comparison(row):
        lv = lget(row)
        rv = rget(row)
        if lv is None or rv is None:
            return null_test is not None and (lv is None and rv is None) == null_test
        if type(lv) is not type(rv):
            _require_comparable(lv, rv)
        return compare(lv, rv)

    return comparison


def _compile_operand(operand: Var | Lit, position: dict):
    """A function of a row that resolves the operand as
    ``resolve_operand`` resolves it against the row's dict."""
    if isinstance(operand, Lit):
        value = operand.value
        return lambda row: value
    name, date_field = operand.name, operand.date_field
    if name not in position:
        def missing(row):
            raise KeyError(name)

        return missing
    i = position[name]
    if date_field is None:
        return operator.itemgetter(i)

    def date_part(row):
        value = row[i]
        if value is None:
            return None
        if not isinstance(value, datetime.date):
            raise IncomparableTagsError(
                f"date-field access on non-date value of {name!r}"
            )
        return getattr(value, date_field)

    return date_part


def _require_comparable(lv, rv):
    lt, rt = values.tag_of(lv), values.tag_of(rv)
    if not values.tags_comparable(lt, rt):
        raise IncomparableTagsError(f"cannot compare {lt} with {rt}")
