"""Guard parsing, evaluation, enumeration, satisfiability."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import recursive_valuations
from suptest.guards import (
    OPERATORS,
    And,
    BoolConst,
    Comparison,
    EnumSort,
    EnumerationOverflow,
    GuardSyntaxError,
    IntSort,
    Not,
    Or,
    SortError,
    VarDecl,
    check_decls,
    enumerate_valuations,
    eval_guard,
    parse_guard,
    print_guard,
    satisfiable,
    sort_from_obj,
)

DECLS = [
    VarDecl("x", IntSort(0, 3)),
    VarDecl("hs", EnumSort(("0", "a", "m"))),
]


class TestParse:
    def test_conjunction(self):
        g = parse_guard("x > 1 and hs = a", DECLS)
        assert g == And(Comparison("x", ">", 1), Comparison("hs", "=", "a"))

    def test_trailing_operator(self):
        with pytest.raises(GuardSyntaxError):
            parse_guard("x > 1 and", DECLS)

    def test_ordering_on_enum_rejected(self):
        with pytest.raises(SortError):
            parse_guard("hs > 1", DECLS)

    def test_undeclared_variable(self):
        with pytest.raises(SortError):
            parse_guard("y = 1", DECLS)

    def test_enum_literal_outside_sort(self):
        with pytest.raises(SortError):
            parse_guard("hs = q", DECLS)

    def test_precedence_and_binds_tighter(self):
        g = parse_guard("x = 0 or x = 1 and hs = a", DECLS)
        assert isinstance(g, Or)
        assert isinstance(g.right, And)

    def test_not_tightest(self):
        g = parse_guard("not x = 0 and hs = a", DECLS)
        assert isinstance(g, And)
        assert isinstance(g.left, Not)

    def test_parentheses_and_whitespace(self):
        g1 = parse_guard("( x>1 )and(hs=a)", DECLS)
        g2 = parse_guard("x > 1 and hs = a", DECLS)
        assert g1 == g2

    def test_enum_numeric_literal(self):
        # the phase literal "0" lexes as a number but names an enum value
        g = parse_guard("hs = 0", DECLS)
        assert g == Comparison("hs", "=", "0")

    def test_syntax_error_position(self):
        with pytest.raises(GuardSyntaxError) as err:
            parse_guard("x > 1 ?", DECLS)
        assert err.value.position == 6

    @pytest.mark.parametrize("text, error, message", [
        ("x = 1 )", GuardSyntaxError, "trailing input ')' (at position 6)"),
        ("x and hs = a", GuardSyntaxError,
         "expected comparison operator, found 'and' (at position 2)"),
        ("x = a", SortError, "integer literal expected for x, found 'a'"),
        ("hs =", GuardSyntaxError, "expected literal, found end of input (at position 4)"),
        ("(x = 1", GuardSyntaxError, "expected ), found 'end of input' (at position 6)"),
    ], ids=["trailing-input", "no-operator", "no-integer", "no-literal", "no-close"])
    def test_refusals(self, text, error, message):
        with pytest.raises(error) as err:
            parse_guard(text, DECLS)
        assert str(err.value) == message

    def test_trailing_whitespace(self):
        assert parse_guard("x = 1 \t ", DECLS) == Comparison("x", "=", 1)


class TestDecls:
    def test_duplicate_declarations_refused(self):
        with pytest.raises(SortError, match="^duplicate variable declarations: x$"):
            check_decls([*DECLS, VarDecl("x", IntSort(0, 1))])

    def test_unknown_sort_refused(self):
        with pytest.raises(ValueError, match=r"^unknown sort: \{'real': \[0, 1\]\}$"):
            sort_from_obj({"real": [0, 1]})


class TestEval:
    def test_true_case(self):
        g = parse_guard("x > 1 and hs = a", DECLS)
        assert eval_guard(g, {"x": 2, "hs": "a"}) is True

    def test_false_case(self):
        g = parse_guard("x > 1 and hs = a", DECLS)
        assert eval_guard(g, {"x": 1, "hs": "a"}) is False

    def test_not_false(self):
        assert eval_guard(Not(BoolConst(False)), {}) is True

    def test_missing_variable(self):
        with pytest.raises(SortError):
            eval_guard(Comparison("x", "=", 1), {"hs": "a"})


class TestOperators:
    @pytest.mark.parametrize("op", OPERATORS)
    def test_negation_is_the_complement(self, op):
        test, negation = OPERATORS[op]
        assert OPERATORS[negation][1] == op
        for x in range(4):
            v = {"x": x}
            assert test(x, 1) == eval_guard(Comparison("x", op, 1), v)
            assert eval_guard(Comparison("x", negation, 1), v) != test(x, 1)


class TestEnumerate:
    def test_two_by_two(self):
        decls = [VarDecl("x", IntSort(0, 1)), VarDecl("y", EnumSort(("0", "a")))]
        vals = list(enumerate_valuations(decls))
        assert vals == [
            {"x": 0, "y": "0"}, {"x": 0, "y": "a"},
            {"x": 1, "y": "0"}, {"x": 1, "y": "a"},
        ]

    def test_single_var_order(self):
        vals = list(enumerate_valuations([VarDecl("x", IntSort(0, 3))]))
        assert [v["x"] for v in vals] == [0, 1, 2, 3]

    def test_empty_declarations(self):
        assert list(enumerate_valuations([])) == [{}]

    def test_overflow_guard(self):
        decls = [VarDecl(f"x{i}", IntSort(0, 9)) for i in range(8)]
        with pytest.raises(EnumerationOverflow):
            list(enumerate_valuations(decls))

    # sorts of one to three values, one-value sorts included; variables
    # named against alphabetical order, so a key order follows declaration
    @given(st.lists(st.one_of(
        st.builds(lambda lo, width: IntSort(lo, lo + width), st.integers(-2, 2),
                  st.integers(0, 2)),
        st.integers(1, 3).map(lambda n: EnumSort(tuple("uvw"[:n]))),
    ), max_size=4).map(lambda sorts: [VarDecl("zyxw"[i], s) for i, s in enumerate(sorts)]))
    @example([])
    @example([VarDecl("z", IntSort(5, 5)), VarDecl("y", EnumSort(("u",)))])
    @settings(max_examples=80, deadline=None)
    def test_equals_recursive_walk(self, decls):
        assert [list(v.items()) for v in enumerate_valuations(decls)] == \
            [list(v.items()) for v in recursive_valuations(decls)]


class TestSatisfiable:
    def test_witness(self):
        g = parse_guard("x > 1 and x = 3", DECLS[:1])
        assert satisfiable(g, DECLS[:1]) == {"x": 3}

    def test_unsatisfiable(self):
        g = parse_guard("x < 2 and x = 3", DECLS[:1])
        assert satisfiable(g, DECLS[:1]) is None

    def test_true_takes_first(self):
        assert satisfiable(BoolConst(True), DECLS[:1]) == {"x": 0}


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------

def exprs(depth=3):
    atom = st.one_of(
        st.sampled_from([BoolConst(True), BoolConst(False)]),
        st.builds(Comparison, st.just("x"),
                  st.sampled_from(["=", "!=", "<", "<=", ">", ">="]),
                  st.integers(0, 3)),
        st.builds(Comparison, st.just("hs"), st.sampled_from(["=", "!="]),
                  st.sampled_from(["0", "a", "m"])),
    )
    return st.recursive(
        atom,
        lambda sub: st.one_of(
            st.builds(Not, sub), st.builds(And, sub, sub), st.builds(Or, sub, sub)
        ),
        max_leaves=8,
    )


valuations = st.fixed_dictionaries(
    {"x": st.integers(0, 3), "hs": st.sampled_from(["0", "a", "m"])}
)


class TestProperties:
    @given(exprs())
    @settings(max_examples=200, deadline=None)
    def test_print_parse_round_trip(self, g):
        assert parse_guard(print_guard(g), DECLS) == g

    @given(exprs(), exprs(), valuations)
    @settings(max_examples=200, deadline=None)
    def test_de_morgan(self, a, b, v):
        assert eval_guard(Not(And(a, b)), v) == eval_guard(Or(Not(a), Not(b)), v)

    @given(exprs())
    @settings(max_examples=100, deadline=None)
    def test_satisfiable_agrees_with_enumeration(self, g):
        witness = satisfiable(g, DECLS)
        everywhere_false = all(
            not eval_guard(g, v) for v in enumerate_valuations(DECLS)
        )
        assert (witness is None) == everywhere_false
        if witness is not None:
            assert eval_guard(g, witness)
