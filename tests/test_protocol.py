"""Tests for the protocol DSL parser and its static analyses."""

import datetime
import random

import pytest
from hypothesis import given, strategies as st

from protoverify.errors import (
    IncomparableTagsError,
    ProtocolSemanticError,
    ProtocolSyntaxError,
    UnknownQueryError,
    UnknownVariableError,
)
from protoverify.protocol import (
    COMPARISON_OPS,
    MAX_NESTING,
    Branch,
    Condition,
    Lit,
    Query,
    Var,
    branch_path,
    classify_variables,
    compile_condition,
    eval_condition,
    instantiating_query,
    parse_protocol,
    path_conditions,
    print_protocol,
)


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
    assert len(branch_path(deepest, 2)) == MAX_NESTING
    assert parse_protocol(print_protocol(deepest)) == deepest
    with pytest.raises(ProtocolSyntaxError) as exc:
        parse_protocol(nested_ifs(MAX_NESTING + 1))
    # The first ``if`` is on line 2; the one past the bound is the last.
    assert exc.value.line == MAX_NESTING + 2


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


def test_classify_variables_protocol1(protocol1):
    cls = classify_variables(protocol1)
    assert cls[(1, "a")] == "uninstantiated"
    assert cls[(2, "a")] == "instantiated"
    assert cls[(2, "t2")] == "uninstantiated"


def test_classify_variables_single_query():
    p = parse_protocol("get (title: t, author: a) from Book;")
    assert set(classify_variables(p).values()) == {"uninstantiated"}


def test_classify_variables_protocol2(protocol2):
    cls = classify_variables(protocol2)
    assert cls[(2, "b1")] == "instantiated"


def test_exactly_one_uninstantiated_site(protocol1, protocol2, protocol3):
    for p in (protocol1, protocol2, protocol3):
        cls = classify_variables(p)
        fresh = [v for (qid, v), kind in cls.items() if kind == "uninstantiated"]
        assert len(fresh) == len(set(fresh))


def test_path_conditions_protocol1(protocol1):
    assert conds_as_text(path_conditions(protocol1, 3)) == ["(t2 != null)"]


def test_path_conditions_no_branch(protocol2):
    assert path_conditions(protocol2, 2) == []


def test_path_conditions_else_negated(protocol3):
    assert conds_as_text(path_conditions(protocol3, 3)) == ["(av1 != 'yes')"]


def test_path_conditions_only_earlier_variables(protocol1, protocol3):
    for p in (protocol1, protocol3):
        for q in p.queries():
            earlier = {
                v
                for prior in p.queries()
                if prior.id < q.id
                for v in prior.output_variables()
            }
            for cond in path_conditions(p, q.id):
                assert cond.variables() <= earlier


def test_path_conditions_unknown_query(protocol1):
    with pytest.raises(UnknownQueryError):
        path_conditions(protocol1, 99)


def test_branch_path(protocol3):
    assert branch_path(protocol3, 2) == [(1, True)]
    assert branch_path(protocol3, 3) == [(1, False)]


def test_instantiating_query(protocol1, protocol2):
    assert instantiating_query(protocol1, "a") == 1
    assert instantiating_query(protocol1, "t3") == 3
    assert instantiating_query(protocol2, "mod") == 2


def test_instantiating_query_unknown(protocol1):
    with pytest.raises(UnknownVariableError):
        instantiating_query(protocol1, "zz")


def test_negation_involution():
    for op in ("=", "!=", "<", ">", "<=", ">="):
        cond = Condition(Var("x"), op, Lit(1))
        assert cond.negated().negated() == cond


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


name_st = st.text(alphabet="abcdexyz", min_size=1, max_size=4)
lit_st = st.one_of(
    st.integers(0, 99).map(Lit),
    st.text(alphabet="abc", max_size=3).map(Lit),
    st.just(Lit(None)),
)


@st.composite
def protocol_st(draw):
    """A random straight-line protocol with optional branch, by construction
    free of read-before-instantiation errors."""
    stmts = []
    bound = []
    for qid in range(1, draw(st.integers(1, 4)) + 1):
        n = draw(st.integers(1, 3))
        bindings = []
        for j in range(n):
            var = draw(name_st) + str(qid) + str(j)
            bindings.append(("attr" + str(j), var))
        where = []
        if bound and draw(st.booleans()):
            where.append(Condition(Var(draw(st.sampled_from(bound))), "=", draw(lit_st)))
        stmts.append(
            Query(qid, tuple(bindings), (draw(st.sampled_from(["Book", "Car", "K"])),), tuple(where))
        )
        bound.extend(v for _, v in bindings)
    return stmts, bound


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
