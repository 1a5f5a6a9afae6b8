"""Grammar, AST, and parser for the query-protocol DSL, plus the path
index used by both checkers. The parser also checks that every variable
is definitely bound before it is read.

Surface syntax::

    get (title: t1, author: a, date: d1) from Manual where (t1 = 'ManualName');
    get (title: t2, author: a) from Book;
    if (t2 != null) {
      get (title: t3, author: a, date: d2) from Book.Proceedings;
    }

Adjacent conditions form a conjunction. ``do Name(args...);`` declares an
opaque external action. Branching is structured if/else only.

The lexer is one ``findall`` that yields the token texts, and the parser
reads each token's kind from its text. No offsets are kept: a syntax
error, or a read of a variable that is not yet bound, scans the text
again to find the offset, line and column of the token it reports.
"""

from __future__ import annotations

import datetime
import math
import operator
import re
from dataclasses import dataclass, field
from functools import cached_property

from . import values
from .errors import (
    IncomparableTagsError,
    ProtocolSemanticError,
    ProtocolSyntaxError,
    UnknownQueryError,
)

COMPARISON_OPS = ("=", "!=", "<", ">", "<=", ">=")

KEYWORDS = {"get", "from", "where", "if", "else", "do", "null"}

# Deepest ``if`` nesting the parser accepts. The parser, the path index
# and the printer recurse once per level, so this keeps them well inside
# Python's recursion limit.
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
        if isinstance(v, float):
            text = repr(v)
            if "e" in text:
                # The DSL's decimal literals have no exponent form: print
                # the same digits positionally, with at least one place.
                mantissa, exponent = text.split("e")
                places = len(mantissa.partition(".")[2]) - int(exponent)
                text = format(v, f".{max(places, 1)}f")
            return text
        return str(v)


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

    @cached_property
    def read_variables(self) -> frozenset[str]:
        """The variables the query reads: its bindings and where
        conditions. Computed once per query; it takes no part in
        equality."""
        return frozenset(self.output_variables()).union(
            *(c.variables() for c in self.where)
        )


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
    """A parsed protocol and its path index.

    The index is built once, in one walk, when the AST is: the queries
    and branches by id, each query's predecessor on its own syntactic
    path, the (branch, arm) pairs enclosing each query, and each query's
    path-fresh variables. It takes no part in equality.
    """

    statements: tuple[Statement, ...]
    _queries: dict[int, Query] = field(init=False, compare=False, repr=False)
    _branches: dict[int, Branch] = field(init=False, compare=False, repr=False)
    _previous: dict[int, int | None] = field(init=False, compare=False, repr=False)
    _arms: dict[int, tuple[tuple[Branch, bool], ...]] = field(
        init=False, compare=False, repr=False
    )
    _fresh: dict[int, tuple[str, ...]] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        for name in ("_queries", "_branches", "_previous", "_arms", "_fresh"):
            object.__setattr__(self, name, {})
        self._index_block(self.statements, None, (), set())

    def _index_block(self, stmts, prev, enclosing, bound):
        """Index a block whose first query follows ``prev`` on its path.

        ``prev`` is the last query statement before this point in this
        block or an enclosing one, and ``bound`` the variables the queries
        on the path up to it bind; the block's own bindings are taken out
        of ``bound`` again when it ends. Queries inside an earlier branch
        are not on the syntactic path, although an execution may have run
        them. A method rather than a nested function: a closure that
        calls itself is a reference cycle, which would keep the whole
        AST alive until the cyclic garbage collector runs.
        """
        added = []
        for st in stmts:
            if isinstance(st, Query):
                self._queries[st.id] = st
                self._previous[st.id] = prev
                self._arms[st.id] = enclosing
                fresh = []
                for _, var in st.bindings:
                    if var is not None and var not in bound:
                        bound.add(var)
                        fresh.append(var)
                self._fresh[st.id] = tuple(fresh)
                added += fresh
                prev = st.id
            elif isinstance(st, Branch):
                self._branches[st.id] = st
                self._index_block(st.then_block, prev, enclosing + ((st, True),), bound)
                if st.else_block is not None:
                    self._index_block(st.else_block, prev, enclosing + ((st, False),),
                                      bound)
        bound.difference_update(added)

    def queries(self) -> list[Query]:
        """All queries in document order."""
        return [self._queries[i] for i in sorted(self._queries)]

    def branches(self) -> list[Branch]:
        """All branches in document order, each before those it encloses."""
        return list(self._branches.values())

    def query(self, query_id: int) -> Query:
        try:
            return self._queries[query_id]
        except KeyError:
            raise UnknownQueryError(f"no query with id {query_id}") from None

    def path_queries(self, query_id: int) -> list[Query]:
        """Queries on the unique syntactic path from the start to the
        query, in execution order, excluding the query itself."""
        self.query(query_id)
        out = []
        prev = self._previous[query_id]
        while prev is not None:
            out.append(self._queries[prev])
            prev = self._previous[prev]
        out.reverse()
        return out

    def arms(self, query_id: int) -> tuple[tuple[Branch, bool], ...]:
        """(branch, arm) pairs enclosing the query, outermost first; arm
        True means the then-block."""
        self.query(query_id)
        return self._arms[query_id]

    def fresh_variables(self, query_id: int) -> tuple[str, ...]:
        """The query's output variables that no earlier query on its
        syntactic path binds, in binding order."""
        return self._fresh[query_id]


# --- lexer ---

# One alternative per token kind, in the order tried. Alternatives that
# start with different characters cannot compete, so the common kinds
# come first; where two do compete the longer comes first (``<=`` before
# ``<``, a date before a decimal before an int). No alternative matches
# whitespace, so ``findall`` skips it while searching for the next token.
_TOKEN_KINDS = r"""
    [A-Za-z_][A-Za-z0-9_]*   # name
  | [(){}:;,.*]              # punctuation
  | [<>!]=|[=<>]             # comparison operator
  | '[^'\n]*'                # string
  | \d{4}-\d{2}-\d{2}        # date
  | \d+\.\d+                 # decimal
  | \d+                      # int
"""

# The token kinds, then any other non-space character as a token of its
# own, which the lexer rejects: a token that ``_KIND_RE`` does not match.
_TOKEN_RE = re.compile(_TOKEN_KINDS + r"| \S", re.VERBOSE)
_KIND_RE = re.compile(_TOKEN_KINDS, re.VERBOSE)

_OPERATORS = frozenset(COMPARISON_OPS)


def _line_column(text: str, offset: int) -> tuple[int, int]:
    """The 1-based line and column of a character offset."""
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def _syntax_error(text: str, offset: int, message: str) -> ProtocolSyntaxError:
    """The error at a character offset, with its line and column."""
    return ProtocolSyntaxError(message, *_line_column(text, offset))


def _token_offset(text: str, index: int) -> int:
    """The offset of the index-th token of ``_tokenize(text)``, found by
    scanning again with the same pattern; the end-of-input token is at
    ``len(text)``."""
    for i, m in enumerate(_TOKEN_RE.finditer(text)):
        if i == index:
            return m.start()
    return len(text)


def _tokenize(text: str) -> list[str]:
    """The text of each token, from one ``findall``, then ``""`` for the
    end of input.

    Only a one-character token can be a character that no token kind
    matches, so only the distinct one-character tokens are checked.
    Offsets are not kept: the error path finds the one it reports with
    ``_token_offset``.
    """
    tokens = _TOKEN_RE.findall(text)
    bad = {t for t in set(tokens) if len(t) == 1 and not _KIND_RE.match(t)}
    if bad:
        index = next(i for i, t in enumerate(tokens) if t in bad)
        raise _syntax_error(
            text, _token_offset(text, index), f"unexpected character {tokens[index]!r}"
        )
    tokens.append("")
    return tokens


# --- parser ---

class _Parser:
    """Recursive descent over token texts.

    A token's kind is read from its text: a name is an identifier (it
    starts with an ASCII letter or ``_``), a number starts with a digit
    (a date has a ``-``, a decimal a ``.``), a string starts with ``'``,
    and the end of input is ``""``. Every other token is an operator or
    punctuation and stands for itself.

    ``bound`` holds the variables definitely bound at the current token:
    a query adds its outputs after its bindings, each arm of an ``if``
    starts from the set on entry, and after the ``if`` the set is the
    arms' intersection, or the set on entry when there is no ``else``.
    The first operand that reads an unbound variable is raised once the
    whole text parses, so a syntax error anywhere takes precedence.
    """

    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.next_query_id = 1
        self.next_branch_id = 1
        self.depth = 0  # blocks enclosing the current statement
        self.bound: frozenset[str] = frozenset()
        self.reading = ""  # the statement part whose operands are parsed
        self.unbound_read = None  # (token index, variable, self.reading)

    def error(self, message, index=None):
        """Raise the error at a token, by default the current one."""
        offset = _token_offset(self.text, self.pos if index is None else index)
        raise _syntax_error(self.text, offset, message)

    def expect(self, text):
        tok = self.tokens[self.pos]
        if tok != text:
            self.error(f"expected {text!r}, found {tok or 'end of input'!r}")
        self.pos += 1

    def accept(self, text) -> bool:
        """Step past the current token if it is ``text``."""
        if self.tokens[self.pos] == text:
            self.pos += 1
            return True
        return False

    def parse_protocol(self) -> ProtocolAst:
        stmts = self.parse_statements("")
        if self.unbound_read is not None:
            index, name, reading = self.unbound_read
            line, column = _line_column(self.text, _token_offset(self.text, index))
            raise ProtocolSemanticError(f"variable {name!r} read before instantiation "
                                        f"({reading}) (line {line}, column {column})")
        return ProtocolAst(tuple(stmts))

    def parse_statements(self, until) -> list[Statement]:
        """Statements up to the token ``until``: ``}`` or end of input."""
        stmts = []
        tokens = self.tokens
        while True:
            tok = tokens[self.pos]
            if tok == until:
                return stmts
            if tok == "get":
                stmts.append(self.parse_query())
            elif tok == "if":
                stmts.append(self.parse_branch())
            elif tok == "do":
                stmts.append(self.parse_action())
            else:
                self.error("expected 'get', 'if', or 'do'")

    def parse_query(self) -> Query:
        self.pos += 1  # get
        qid = self.next_query_id
        self.next_query_id += 1
        self.expect("(")
        bindings = [self.parse_binding()]
        while self.accept(","):
            bindings.append(self.parse_binding())
        self.expect(")")
        self.bound = self.bound.union(var for _, var in bindings if var is not None)
        self.expect("from")
        class_refs = [self.parse_class_ref()]
        while self.accept(","):
            class_refs.append(self.parse_class_ref())
        where = ()
        if self.accept("where"):
            self.reading = f"where clause of query {qid}"
            where = tuple(self.parse_condition_list())
        self.expect(";")
        return Query(qid, tuple(bindings), tuple(class_refs), where)

    def parse_binding(self) -> tuple[str, str | None]:
        attr = self.parse_name("attribute name")
        self.expect(":")
        if self.accept("*"):
            return (attr, None)
        return (attr, self.parse_name("variable name"))

    def parse_name(self, what) -> str:
        tok = self.tokens[self.pos]
        if not tok.isidentifier() or tok in KEYWORDS:
            self.error(f"expected {what}")
        self.pos += 1
        return tok

    def parse_class_ref(self) -> ClassRef:
        names = [self.parse_name("class name")]
        while self.accept("."):
            names.append(self.parse_name("class name"))
        try:
            return ClassRef(tuple(names))
        except ProtocolSemanticError as exc:
            self.error(str(exc))

    def parse_condition_list(self) -> list[Condition]:
        conds = [self.parse_condition()]
        while self.tokens[self.pos] == "(":
            conds.append(self.parse_condition())
        return conds

    def parse_condition(self) -> Condition:
        self.expect("(")
        lhs = self.parse_operand()
        op = self.tokens[self.pos]
        if op not in _OPERATORS:
            self.error("expected comparison operator")
        self.pos += 1
        rhs = self.parse_operand()
        self.expect(")")
        return Condition(lhs, op, rhs)

    def parse_operand(self) -> Var | Lit:
        tok = self.tokens[self.pos]
        if tok.isidentifier():
            if tok == "null":
                self.pos += 1
                return Lit(None)
            if tok in KEYWORDS:
                self.error("expected operand")
            if tok not in self.bound and self.unbound_read is None:
                self.unbound_read = (self.pos, tok, self.reading)
            self.pos += 1
            if self.accept("."):
                fld = self.parse_name("date field")
                if fld not in values.DATE_FIELDS:
                    self.error(
                        f"unknown date field {fld!r} (expected year, month, or day)"
                    )
                return Var(tok, fld)
            return Var(tok)
        if tok[:1] == "'":
            self.pos += 1
            return Lit(tok[1:-1])
        if tok[:1].isdecimal():
            return Lit(self.parse_literal(tok))
        self.error("expected operand")

    def parse_literal(self, tok):
        """The value of ``tok``, the current token, a number or date. A
        value that does not convert, or that would not print back as the
        same literal, is a syntax error at the token."""
        if "-" in tok:
            try:
                value = values.parse_date(tok)
            except ValueError as exc:
                self.error(f"invalid date literal {tok!r}: {exc}")
        elif "." in tok:
            value = float(tok)
            if math.isinf(value):
                self.error("decimal literal out of range")
        else:
            try:
                value = int(tok)
            except ValueError:  # past the interpreter's digit limit
                self.error(f"integer literal out of range ({len(tok)} digits)")
        self.pos += 1
        return value

    def parse_branch(self) -> Branch:
        at_if = self.pos
        self.pos += 1  # if
        if self.depth >= MAX_NESTING:
            self.error(f"'if' nested more than {MAX_NESTING} deep", at_if)
        bid = self.next_branch_id
        self.next_branch_id += 1
        self.reading = f"branch {bid} condition"
        conds = tuple(self.parse_condition_list())
        entry = self.bound
        then_block = tuple(self.parse_block())
        else_block = None
        if self.accept("else"):
            then_bound, self.bound = self.bound, entry
            else_block = tuple(self.parse_block())
            entry = then_bound & self.bound
        self.bound = entry
        return Branch(bid, conds, then_block, else_block)

    def parse_block(self) -> list[Statement]:
        self.expect("{")
        self.depth += 1
        stmts = self.parse_statements("}")
        self.depth -= 1
        self.pos += 1  # }
        return stmts

    def parse_action(self) -> Action:
        self.pos += 1  # do
        name = self.parse_name("action name")
        self.expect("(")
        self.reading = f"action {name!r}"
        args = []
        if self.tokens[self.pos] != ")":
            args.append(self.parse_operand())
            while self.accept(","):
                args.append(self.parse_operand())
        self.expect(")")
        self.expect(";")
        return Action(name, tuple(args))


def parse_protocol(text: str) -> ProtocolAst:
    """Parse DSL source into an AST, checking that every variable is
    definitely bound before it is read."""
    return _Parser(text).parse_protocol()


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


def condition_may_raise(cond: Condition, var_tags) -> bool:
    """Whether ``compile_condition(cond, ...)`` may raise on rows whose
    cells of each variable carry one of the tags in ``var_tags[name]``.

    A tag that is not one of ``values.TAGS`` (an undeclared attribute)
    may be anything. The predicate may raise on a variable missing from
    ``var_tags``, on a date field of a value that may not be a date, and
    on two tags that ``_require_comparable`` rejects; a null literal
    compares nothing.
    """
    sides = []
    for operand in (cond.lhs, cond.rhs):
        if isinstance(operand, Lit):
            sides.append(None if operand.value is None
                         else {values.tag_of(operand.value)})
        elif operand.name not in var_tags:
            return True
        elif operand.date_field is None:
            sides.append(var_tags[operand.name])
        elif var_tags[operand.name] == {"date"}:
            sides.append({"int"})
        else:
            return True
    if None in sides:
        return False
    return not all(
        a in values.TAGS and b in values.TAGS and values.tags_comparable(a, b)
        for a in sides[0] for b in sides[1]
    )


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
