"""Tests for the protocol DSL parser and its static analyses."""

import datetime
import hashlib
import itertools
import random
import re

import pytest
from hypothesis import given, strategies as st

from protoverify import protocol, values
from protoverify.errors import (
    IncomparableTagsError,
    ProtocolError,
    ProtocolSemanticError,
    ProtocolSyntaxError,
    UnknownQueryError,
)
from protoverify.protocol import (
    COMPARISON_OPS,
    KEYWORDS,
    MAX_NESTING,
    Branch,
    Condition,
    Lit,
    ProtocolAst,
    Query,
    Var,
    compile_condition,
    condition_may_raise,
    eval_condition,
    parse_protocol,
    print_protocol,
)

from conftest import FIXTURES, read_protocol


def conds_as_text(conds):
    return [str(c) for c in conds]


def test_protocol1_shape(protocol1):
    assert len(protocol1.queries()) == 3
    assert len(protocol1.branches()) == 1
    q3 = protocol1.query(3)
    assert q3.class_refs[0].names == ("Book", "Proceedings")


def test_empty_input():
    assert parse_protocol("") .statements == ()


def test_read_before_instantiation_rejected():
    with pytest.raises(ProtocolSemanticError):
        parse_protocol("get (title: t) from Book where (u = 5);")


def test_branch_on_unbound_variable_rejected():
    with pytest.raises(ProtocolSemanticError):
        parse_protocol("if (x = 1) { do Ping(); }")


def test_if_without_else_does_not_bind():
    text = (
        "get (title: t) from Book;\n"
        "if (t != null) { get (author: a) from Book; }\n"
        "if (a = 'x') { do Ping(); }\n"
    )
    with pytest.raises(ProtocolSemanticError):
        parse_protocol(text)


def test_if_else_intersection_binds():
    text = (
        "get (title: t) from Book;\n"
        "if (t != null) { get (author: a) from Book; }\n"
        "else { get (author: a) from Manual; }\n"
        "if (a = 'x') { do Ping(); }\n"
    )
    p = parse_protocol(text)
    assert len(p.queries()) == 3


@pytest.mark.parametrize("text, message", [
    ("get (title: t) from Book;\nget (author: a) from Book\n  where (a = t) (u = 5);",
     "variable 'u' read before instantiation (where clause of query 2)"
     " (line 3, column 18)"),
    ("get (title: t) from Book;\nif (t != null)\n (1 <\tx.year) { do Ping(); }",
     "variable 'x' read before instantiation (branch 1 condition) (line 3, column 7)"),
    ("if (1 = 1) { get (title: t) from Book; }\ndo Send(t);",
     "variable 't' read before instantiation (action 'Send') (line 2, column 9)"),
], ids=["where", "guard", "action"])
def test_read_before_instantiation_names_the_variable_token(text, message):
    with pytest.raises(ProtocolSemanticError) as exc:
        parse_protocol(text)
    assert str(exc.value) == message


def test_later_syntax_error_wins_over_earlier_unbound_read():
    with pytest.raises(ProtocolSyntaxError) as exc:
        parse_protocol("do Send(x);\nget (title: t) from Book where (t = );")
    assert (exc.value.line, exc.value.column) == (2, 37)


def test_syntax_error_carries_position():
    with pytest.raises(ProtocolSyntaxError) as exc:
        parse_protocol("get (title t) from Book;")
    assert exc.value.line == 1
    assert exc.value.column > 0


def nested_ifs(depth):
    """A query, then ``depth`` nested ifs around a second query."""
    return (
        "get (title: t) from Book;\n"
        + "if (t != null) {\n" * depth
        + "get (title: u) from Book;\n"
        + "}\n" * depth
    )


def test_nesting_bound():
    deepest = parse_protocol(nested_ifs(MAX_NESTING))
    assert len(deepest.arms(2)) == MAX_NESTING
    assert parse_protocol(print_protocol(deepest)) == deepest
    with pytest.raises(ProtocolSyntaxError) as exc:
        parse_protocol(nested_ifs(MAX_NESTING + 1))
    # The first ``if`` is on line 2; the one past the bound is the last.
    assert exc.value.line == MAX_NESTING + 2


@pytest.mark.parametrize(
    "text, message, line, column",
    [
        ("get (title: t) from Book;\n\n   \t @",
         "unexpected character '@'", 3, 6),
        ("get (a: x) from K;\r\nif (x = 1) {\r\n  @",
         "unexpected character '@'", 3, 3),
        ("get (title: t) from Book;\n  get (a: x) from K where (x = 'abc);\n",
         "unexpected character \"'\"", 2, 32),
        ("get (title: t) from Book",
         "expected ';', found 'end of input'", 1, 25),
        ("get (title: t)\n  from Book\n",
         "expected ';', found 'end of input'", 3, 1),
        ("get (title: t) from Book;\nget (from: x) from K;",
         "expected attribute name", 2, 6),
        ("get (title: t) from Book;\nif (t = where) { do P(); }",
         "expected operand", 2, 9),
        ("get (t: x) from Book.Book;",
         "repeated consecutive class name 'Book' in sequence", 1, 26),
        ("\n\nget (a: x) from K where (x.week = 1);",
         "unknown date field 'week' (expected year, month, or day)", 3, 33),
        (nested_ifs(MAX_NESTING + 1),
         f"'if' nested more than {MAX_NESTING} deep", MAX_NESTING + 2, 1),
        ("get (a: x) from K where (x = " + "9" * 5000 + ");",
         "integer literal out of range (5000 digits)", 1, 30),
        ("get (a: x) from K\n  where (x = 2009-13-45);",
         "invalid date literal '2009-13-45': month must be in 1..12", 2, 14),
        ("get (a: x) from K where (x = 2009-02-29);",
         "invalid date literal '2009-02-29': day is out of range for month",
         1, 30),
        ("get (a: x) from K where\n (x = " + "9" * 400 + ".5);",
         "decimal literal out of range", 2, 7),
        ("get (a: xé) from K;", "unexpected character 'é'", 1, 10),
        ("get (a: x) from K where (x ! 1);", "unexpected character '!'", 1, 28),
        ("get (a: x) from K where (x = ²);", "unexpected character '²'", 1, 30),
        ("}", "expected 'get', 'if', or 'do'", 1, 1),
        ("get (a x) from K; @", "unexpected character '@'", 1, 19),
    ],
    ids=[
        "unexpected-after-blank-lines",
        "unexpected-after-crlf",
        "unterminated-string",
        "end-of-input",
        "end-of-input-after-newline",
        "keyword-as-name",
        "keyword-as-operand",
        "repeated-class",
        "unknown-date-field",
        "nesting-bound",
        "long-integer",
        "date-month",
        "date-day",
        "decimal-overflow",
        "non-ascii-letter",
        "bang-without-equals",
        "superscript-digit",
        "top-level-close-brace",
        "unexpected-character-wins-over-syntax",
    ],
)
def test_syntax_error_positions(text, message, line, column):
    with pytest.raises(ProtocolSyntaxError) as exc:
        parse_protocol(text)
    assert (str(exc.value), exc.value.line, exc.value.column) == (
        f"{message} (line {line}, column {column})", line, column
    )


@pytest.mark.parametrize(
    "literal", ["0.00001", "0.000000123456789", "10000000000000000.0",
                "123456789012345678901234.5"]
)
def test_decimal_literal_reprints_as_decimal(literal):
    p = parse_protocol(f"get (a: x) from K where (x = {literal});")
    printed = print_protocol(p)
    assert parse_protocol(printed) == p
    assert "e" not in printed.split("where")[1]


def test_consecutive_repeat_in_sequence_rejected():
    with pytest.raises(ProtocolSyntaxError):
        parse_protocol("get (title: t) from Book.Book;")


def test_literal_kinds():
    text = (
        "get (a: x, b: y, c: z, d: w) from K "
        "where (x = 5) (y = 2.5) (z = 'red') (w = 2009-01-31);\n"
    )
    q = parse_protocol(text).query(1)
    lits = [c.rhs.value for c in q.where]
    assert lits == [5, 2.5, "red", datetime.date(2009, 1, 31)]
    # ``\d`` is any Unicode decimal digit, so an Arabic-Indic three is an int.
    q = parse_protocol("get (a: x) from K where (x = ٣);").query(1)
    assert q.where[0].rhs == Lit(3) and type(q.where[0].rhs.value) is int


class _CountingPattern:
    """A compiled pattern that counts its ``findall`` and ``finditer`` calls."""

    def __init__(self, pattern):
        self.pattern = pattern
        self.calls = {"findall": 0, "finditer": 0}

    def findall(self, *args):
        self.calls["findall"] += 1
        return self.pattern.findall(*args)

    def finditer(self, *args):
        self.calls["finditer"] += 1
        return self.pattern.finditer(*args)


def test_valid_parse_scans_the_text_once(monkeypatch):
    """A valid protocol is tokenized by one ``findall``; offsets are only
    looked for, by ``finditer``, when there is an error to place."""
    counting = _CountingPattern(protocol._TOKEN_RE)
    monkeypatch.setattr(protocol, "_TOKEN_RE", counting)
    parse_protocol(long_nested_protocol(random.Random(0), 8))
    assert counting.calls == {"findall": 1, "finditer": 0}


def test_date_field_access():
    q = parse_protocol("get (d: d1) from K where (d1.year > 2000);").query(1)
    cond = q.where[0]
    assert isinstance(cond.lhs, Var) and cond.lhs.date_field == "year"


def test_wildcard_binding():
    q = parse_protocol("get (title: *, author: a) from Book;").query(1)
    assert q.bindings == (("title", None), ("author", "a"))
    assert q.output_variables() == ("a",)


def test_roundtrip_fixtures(protocol1, protocol2, protocol3):
    for p in (protocol1, protocol2, protocol3):
        printed = print_protocol(p)
        assert print_protocol(parse_protocol(printed)) == printed


def test_query_ids_monotonic(protocol3):
    ids = [q.id for q in protocol3.queries()]
    assert ids == sorted(ids) == list(range(1, len(ids) + 1))


def path_guards(p, qid):
    """The guards on a query's path, as text, each with the arm the path
    takes: the index keeps an else arm as its branch and False rather
    than as negated conditions."""
    return [(conds_as_text(branch.conditions), arm) for branch, arm in p.arms(qid)]


def test_path_conditions_protocol1(protocol1):
    assert path_guards(protocol1, 3) == [(["(t2 != null)"], True)]


def test_path_conditions_no_branch(protocol2):
    assert path_guards(protocol2, 2) == []


def test_path_conditions_else_negated(protocol3):
    assert path_guards(protocol3, 3) == [(["(av1 = 'yes')"], False)]


def test_path_conditions_only_earlier_variables(protocol1, protocol3):
    for p in (protocol1, protocol3):
        for q in p.queries():
            earlier = {
                v
                for prior in p.queries()
                if prior.id < q.id
                for v in prior.output_variables()
            }
            for branch, _arm in p.arms(q.id):
                for cond in branch.conditions:
                    assert cond.variables() <= earlier


def test_path_conditions_unknown_query(protocol1):
    with pytest.raises(UnknownQueryError):
        protocol1.arms(99)
    with pytest.raises(UnknownQueryError):
        protocol1.path_queries(99)


def test_fresh_variables_follow_the_syntactic_path():
    p = parse_protocol(
        "get (a: x) from C;"
        " if (x = 1) { get (a: y, b: x) from C; } else { get (b: y, a: z, c: y) from C; }"
        " get (a: z, b: y, c: w) from C;"
    )
    assert [p.fresh_variables(q.id) for q in p.queries()] == [
        ("x",), ("y",), ("y", "z"), ("z", "y", "w"),
    ]


def test_read_variables_are_bindings_and_where_reads():
    p = parse_protocol(
        "get (a: x) from C; get (a: y, b: *) from C where (y > x) (x.year = 2);"
    )
    assert p.query(1).read_variables == frozenset({"x"})
    assert p.query(2).read_variables == frozenset({"x", "y"})
    assert p.query(2) == parse_protocol(print_protocol(p)).query(2)


def test_eval_condition_null_rules():
    x = Var("x")
    assert eval_condition(Condition(x, "=", Lit(None)), {"x": None})
    assert not eval_condition(Condition(x, "=", Lit(None)), {"x": 3})
    assert eval_condition(Condition(x, "!=", Lit(None)), {"x": 3})
    assert not eval_condition(Condition(x, "<", Lit(5)), {"x": None})
    assert not eval_condition(Condition(x, "=", Var("y")), {"x": None, "y": None})


def test_eval_condition_date_field():
    cond = Condition(Var("d", "year"), ">", Lit(2000))
    assert eval_condition(cond, {"d": datetime.date(2005, 3, 1)})
    assert not eval_condition(cond, {"d": datetime.date(1999, 3, 1)})


def test_eval_condition_int_decimal():
    assert eval_condition(Condition(Var("x"), "<", Lit(2.5)), {"x": 2})


# Cell values of every kind, with an int and a float that are equal, so
# the differential test below meets nulls, equal values of different
# types, and incomparable pairs.
CELLS = [None, 0, 2, 7, 2.0, 2.5, -1.5, "", "a", "b", "2",
         datetime.date(1999, 3, 1), datetime.date(2005, 12, 31)]
COLUMN_NAMES = ["x", "y", "z", "d"]
DATE_FIELDS = [None, None, "year", "month", "day"]


def random_operand(rng):
    if rng.random() < 0.5:
        # "w" never names a column, so the lookup fails as in a dict.
        return Var(rng.choice(COLUMN_NAMES + ["w"]), rng.choice(DATE_FIELDS))
    return Lit(rng.choice(CELLS))


def outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # the same class and message are expected
        return (type(exc), str(exc))


def test_compiled_condition_matches_eval_condition():
    """compile_condition agrees with eval_condition on seeded random
    conditions and rows: every operator with a variable or a literal on
    either side, null literals, date fields, int/decimal mixes,
    incomparable pairs, rows with nulls, missing and repeated columns."""
    rng = random.Random(20101)
    kinds = set()
    for _ in range(4000):
        cond = Condition(
            random_operand(rng), rng.choice(COMPARISON_OPS), random_operand(rng)
        )
        columns = [rng.choice(COLUMN_NAMES) for _ in range(rng.randint(1, 5))]
        pred = compile_condition(cond, columns)
        for _ in range(4):
            row = tuple(rng.choice(CELLS) for _ in columns)
            expected = outcome(eval_condition, cond, dict(zip(columns, row)))
            assert outcome(pred, row) == expected, (cond, columns, row)
            kinds.add(expected if isinstance(expected, bool) else expected[0])
    assert kinds == {True, False, KeyError, IncomparableTagsError}



def test_condition_may_raise_is_sound():
    """Where condition_may_raise answers no, the compiled predicate
    raises on no row whose cells carry the variables' tags; a date field
    of a possibly non-date value may raise even against null."""
    rng = random.Random(20102)
    tag_sets = [{"int"}, {"decimal"}, {"str"}, {"date"}, {"int", "decimal"},
                {"int", "str"}, {None}]
    cells_of = {tag: [c for c in CELLS if c is not None and values.tag_of(c) == tag]
                for tag in values.TAGS}
    cells_of[None] = [c for c in CELLS if c is not None]
    safe = 0
    for _ in range(4000):
        cond = Condition(
            random_operand(rng), rng.choice(COMPARISON_OPS), random_operand(rng)
        )
        var_tags = {name: rng.choice(tag_sets) for name in COLUMN_NAMES}
        if condition_may_raise(cond, var_tags):
            continue
        safe += 1
        pred = compile_condition(cond, COLUMN_NAMES)
        for _ in range(8):
            row = tuple(
                None if rng.random() < 0.2
                else rng.choice(cells_of[rng.choice(sorted(var_tags[name], key=str))])
                for name in COLUMN_NAMES
            )
            pred(row)
    assert safe > 500
    assert condition_may_raise(Condition(Var("x", "year"), "=", Lit(None)), {"x": {"str"}})
    assert not condition_may_raise(Condition(Var("x", "year"), "=", Lit(5.0)),
                                   {"x": {"date"}})
    assert not condition_may_raise(Condition(Var("x"), "=", Lit(5.0)), {"x": {"int"}})
    assert condition_may_raise(Condition(Var("x"), "=", Lit("5")), {"x": {"int"}})

name_st = st.text(alphabet="abcdexyz", min_size=1, max_size=4)
lit_st = st.one_of(
    st.integers(0, 99).map(Lit),
    st.text(alphabet="abc", max_size=3).map(Lit),
    st.just(Lit(None)),
)


@st.composite
def protocol_st(draw, nested=False):
    """A random straight-line protocol, by construction free of
    read-before-instantiation errors. With ``nested``, queries may rebind
    earlier variables and are arranged in nested if/else blocks, and
    reads are no longer checked against the arms."""
    stmts = []
    bound = []
    for qid in range(1, draw(st.integers(1, 8 if nested else 4)) + 1):
        n = draw(st.integers(1, 3))
        bindings = []
        for j in range(n):
            if nested and bound and draw(st.booleans()):
                var = draw(st.sampled_from(bound))
            else:
                var = draw(name_st) + str(qid) + str(j)
            bindings.append(("attr" + str(j), var))
        where = []
        if bound and draw(st.booleans()):
            where.append(Condition(Var(draw(st.sampled_from(bound))), "=", draw(lit_st)))
        stmts.append(
            Query(qid, tuple(bindings), (draw(st.sampled_from(["Book", "Car", "K"])),), tuple(where))
        )
        bound.extend(v for _, v in bindings)
    if nested:
        stmts = nest_in_branches(draw, stmts, 0, itertools.count(1))
    return stmts, bound


def nest_in_branches(draw, queries, depth, branch_ids):
    """The queries, in order, as a block in which runs of them sit inside
    if/else branches up to three deep, numbered in document order."""
    block = []
    i = 0
    while i < len(queries):
        if depth == 3 or not draw(st.booleans()):
            block.append(queries[i])
            i += 1
            continue
        bid = next(branch_ids)
        n = draw(st.integers(1, len(queries) - i))
        split = i + draw(st.integers(0, n))
        then_block = nest_in_branches(draw, queries[i:split], depth + 1, branch_ids)
        else_block = None
        if split < i + n or draw(st.booleans()):
            else_block = tuple(
                nest_in_branches(draw, queries[split:i + n], depth + 1, branch_ids)
            )
        guard = (Condition(Var("g"), "=", Lit(depth)),)
        block.append(Branch(bid, guard, tuple(then_block), else_block))
        i += n
    return block


def reference_index(stmts):
    """Each query's path queries, (branch, arm) pairs and path-fresh
    variables (outputs no earlier path query binds), by a plain
    recursive walk."""
    paths, arms, fresh = {}, {}, {}

    def walk(block, before, enclosing):
        before = list(before)
        for s in block:
            if isinstance(s, Query):
                paths[s.id] = list(before)
                arms[s.id] = enclosing
                bound = {v for q in before for _, v in q.bindings}
                fresh[s.id] = tuple(v for v in s.output_variables() if v not in bound)
                before.append(s)
            else:
                walk(s.then_block, before, enclosing + ((s, True),))
                if s.else_block is not None:
                    walk(s.else_block, before, enclosing + ((s, False),))

    walk(stmts, [], ())
    return paths, arms, fresh


@given(protocol_st(nested=True))
def test_path_index_matches_reference_walk(drawn):
    stmts, _bound = drawn
    p = ProtocolAst(tuple(stmts))
    paths, arms, fresh = reference_index(p.statements)
    assert {q.id: p.path_queries(q.id) for q in p.queries()} == paths
    assert {q.id: p.arms(q.id) for q in p.queries()} == arms
    assert {q.id: p.fresh_variables(q.id) for q in p.queries()} == fresh
    assert [b.id for b in p.branches()] == list(range(1, len(p.branches()) + 1))


@given(protocol_st())
def test_roundtrip_random(drawn):
    stmts, bound = drawn
    lines = []
    for q in stmts:
        parts = ", ".join(f"{a}: {v}" for a, v in q.bindings)
        where = " where " + " ".join(str(c) for c in q.where) if q.where else ""
        lines.append(f"get ({parts}) from {q.class_refs[0]}{where};")
    text = "\n".join(lines)
    p = parse_protocol(text)
    printed = print_protocol(p)
    assert print_protocol(parse_protocol(printed)) == printed
    assert len(p.queries()) == len(stmts)


# --- parse outcomes of mutated texts ---

def long_nested_protocol(rng, blocks):
    """A valid protocol of ``blocks`` blocks: key lookups, where-clauses
    of every literal kind, date fields, wildcards, class sequences,
    actions, and if/else three deep."""
    lines = []
    counter = itertools.count(1)

    def lookup(pad):
        k, v, d = (f"{p}{next(counter)}" for p in "kvd")
        where = f"({k} = {rng.randrange(100)})"
        if rng.random() < 0.5:
            where += f" ({d}.year > 19{rng.randrange(10, 99)})"
        lines.append(f"{pad}get (id: {k}, val: {v}, date: {d}, note: *) "
                     f"from Entity.Person where {where};")
        return v, d

    for _ in range(blocks):
        v1, _ = lookup("")
        v2, d2 = lookup("")
        lines.append(f"if ({v1} != null) ({v2} < {rng.randrange(100)}.5) {{")
        v3, _ = lookup("  ")
        lines.append(f"  if ({d2} = 2009-0{rng.randrange(1, 10)}-15) {{")
        lookup("    ")
        lines.append(f"    if ({v3} >= 'x{rng.randrange(10)}') {{")
        lines.append(f"      do Notify({v3}, 'done', null);")
        lines.append("    }")
        lines.append("  } else {")
        lines.append(f"    do Log({d2}.month);")
        lines.append("  }")
        lines.append("} else {")
        lookup("  ")
        lines.append("}")
    return "\n".join(lines) + "\n"


MUTATION_ALPHABET = (
    ["é", "\u0663", "²", "!", "@", "'", "\r\n", "\t", " ", "\n", "_", "x", "7"]
    + sorted(KEYWORDS) + list(COMPARISON_OPS) + list("(){}:;,.*")
    + ["2009-01-31", "2009-13-45", "12.5", "0.0001", "42", "'abc'", "year"]
)


def mutate(rng, text):
    """The text after one to three random inserts, deletes or replaces."""
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(text) + 1)
        kind = rng.randrange(3)
        if kind == 0:
            text = text[:i] + rng.choice(MUTATION_ALPHABET) + text[i:]
        elif kind == 1:
            text = text[:i] + text[i + rng.randint(1, 4):]
        else:
            text = text[:i] + rng.choice(MUTATION_ALPHABET) + text[i + rng.randint(1, 4):]
    return text


def parse_outcome(text) -> str:
    """The printed AST, or the error's class, message and position."""
    try:
        return print_protocol(parse_protocol(text))
    except ProtocolSyntaxError as exc:
        return f"{type(exc).__name__}|{exc}|{exc.line}|{exc.column}"
    except ProtocolError as exc:
        return f"{type(exc).__name__}|{exc}"


PARSE_DIGEST = "703a73588aa9c5005101119ad54c52d184cf70a9e311a3b019a91c50b84cdb6e"

# The digest of the same outcomes before read-before-instantiation errors
# named a position: with the position stripped from them, the outcomes
# are those of the check that ran after the parse.
UNPLACED_PARSE_DIGEST = "5b6296eecda0de9fbbd82db0929248fb87b1da90dce7448ecc85a14b04cae26c"

_POSITION_SUFFIX = re.compile(r" \(line \d+, column \d+\)$")


def test_parse_outcomes_match_golden_digest():
    """The outcome of parsing each of 5,200 seeded mutations of the
    fixture protocols and of a long nested protocol."""
    sources = [read_protocol(p.name) for p in sorted(FIXTURES.glob("*.pv"))]
    sources.append(long_nested_protocol(random.Random(1), 3))
    rng = random.Random(19)
    h, unplaced = hashlib.sha256(), hashlib.sha256()
    semantic = 0
    for _ in range(1300):
        for source in sources:
            outcome = parse_outcome(mutate(rng, source))
            h.update(outcome.encode() + b"\0")
            if outcome.startswith("ProtocolSemanticError|variable "):
                semantic += 1
                outcome = _POSITION_SUFFIX.sub("", outcome)
            unplaced.update(outcome.encode() + b"\0")
    assert h.hexdigest() == PARSE_DIGEST
    assert unplaced.hexdigest() == UNPLACED_PARSE_DIGEST
    assert semantic == 103
