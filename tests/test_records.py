"""The `Record` value classes against their dataclass twins.

Every value class of the toolkit is a `guards.Record` rather than a
dataclass, so that no toolkit process imports `dataclasses` (and with it
`inspect`), and each value is held in slots.  The twins in `helpers` are
those classes as dataclasses, frozen but for `Verdict`'s: construction,
validation, equality, hashing, repr, refused assignment and `replace` must
give what the twins give.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import TWINS, twin_of
from suptest.fsm import Counterexample
from suptest.guards import (
    PHASE_SORT, And, BoolConst, Comparison, EnumSort, IntSort, Not, Or, Record, VarDecl,
)
from suptest.harness import TestReport, Verdict
from suptest.mutation import Mutant, MutationOutcome, MutationReport
from suptest.program import GuardedAction, GuardedActionProgram
from suptest.sfsm import AbstractionMap, InputClass, InputClassPartition, SfsmTransition
from suptest.supervisor import ControllerBehavior, HypothesisReport
from suptest.testgen import CompletenessReport, TestCase, TestSuite

# The value classes of the other modules, which check no field
UNCHECKED = [
    Counterexample, SfsmTransition, InputClass, InputClassPartition, AbstractionMap,
    TestCase, TestSuite, CompletenessReport, Verdict, TestReport, Mutant, MutationOutcome,
    MutationReport, ControllerBehavior, HypothesisReport,
]
CLASSES = {cls.__name__: cls for cls in [
    EnumSort, IntSort, VarDecl, BoolConst, Comparison, Not, And, Or,
    GuardedAction, GuardedActionProgram, *UNCHECKED,
]}


def outcome(fn):
    """What `fn()` gives: ("ok", repr of its result), or the kind of error
    it raises with its message."""
    try:
        return "ok", repr(fn())
    except (AttributeError, TypeError, ValueError) as exc:
        kind = next(k for k in (AttributeError, TypeError, ValueError) if isinstance(exc, k))
        return kind.__name__, str(exc)


def both(value, fn):
    """`fn` applied to `value` and to its twin, as outcomes."""
    return outcome(lambda: fn(value)), outcome(lambda: fn(twin_of(value)))


names = st.sampled_from(["x", "y", "hs", "ack"])
literals = st.one_of(st.integers(-3, 3), st.sampled_from(["0", "a", "m"]))
# Arguments of the sorts, some of them refused: empty or repeated
# literals, an integer range with lo > hi.
enum_sorts = st.lists(st.sampled_from(["0", "a", "m", "u"]), max_size=4).map(
    lambda xs: ("EnumSort", (tuple(xs),)))
int_sorts = st.tuples(st.integers(-3, 3), st.integers(-3, 3)).map(lambda lh: ("IntSort", lh))
sort_args = st.one_of(enum_sorts, int_sorts)
valid_sorts = st.one_of(
    st.just(PHASE_SORT),
    st.lists(st.sampled_from(["0", "a", "m", "u"]), min_size=1, max_size=4,
             unique=True).map(lambda xs: EnumSort(tuple(xs))),
    st.tuples(st.integers(-3, 3), st.integers(0, 3)).map(lambda lw: IntSort(lw[0], lw[0] + lw[1])),
)
# Declarations with any kind, some refused: an unknown kind, or a factor
# whose sort is not the phase sort.
decl_args = st.tuples(
    names, valid_sorts, st.sampled_from(["monitored", "controlled", "factor", "other"]),
).map(lambda args: ("VarDecl", args))
decls = st.tuples(names, valid_sorts, st.sampled_from(["monitored", "controlled"])).map(
    lambda args: VarDecl(*args))

guards = st.recursive(
    st.one_of(
        st.booleans().map(BoolConst),
        st.builds(Comparison, names, st.sampled_from(["=", "!=", "<", ">="]), literals),
    ),
    lambda inner: st.one_of(
        inner.map(Not),
        st.builds(And, inner, inner),
        st.builds(Or, inner, inner),
    ),
    max_leaves=6,
)
risk_states = st.lists(st.tuples(st.sampled_from(["HS", "HC"]), st.sampled_from("0am")),
                       max_size=2, unique_by=lambda fp: fp[0]).map(lambda r: tuple(sorted(r)))
outputs = st.one_of(st.none(), st.dictionaries(names, st.integers(0, 1), max_size=2))
actions = st.builds(GuardedAction, names, guards, risk_states, outputs, risk_states)
programs = st.builds(
    GuardedActionProgram,
    st.lists(decls, max_size=2), st.lists(decls, max_size=1),
    st.lists(st.sampled_from(["HS", "HC"]), max_size=2, unique=True),
    st.dictionaries(st.sampled_from(["HS", "HC"]), st.sampled_from("0am"), max_size=2),
    st.lists(actions, max_size=2),
    st.sampled_from(["error", "complete-with-selfloop"]),
    st.sampled_from(["strict", "first"]),
)
# Field values of the unchecked classes, records among them
plain = st.one_of(st.none(), st.integers(-2, 2), st.text(max_size=2),
                  st.tuples(st.integers(0, 2)), st.lists(st.integers(0, 2), max_size=2),
                  st.dictionaries(st.sampled_from("xy"), st.integers(0, 1), max_size=1))
cases = st.builds(TestCase, plain, plain)
field_values = st.one_of(plain, cases, st.lists(cases, max_size=2))
unchecked = st.sampled_from(UNCHECKED).flatmap(
    lambda cls: st.builds(cls, *[field_values] * len(cls.__slots__)))
values = st.one_of(valid_sorts, decls, guards, actions, programs, unchecked)


def fields(value) -> dict:
    return {name: getattr(value, name) for name in value.__slots__}


class TestConstruction:
    @settings(max_examples=200, deadline=None)
    @given(st.one_of(sort_args, decl_args))
    def test_validation_errors_match(self, spec):
        name, args = spec
        assert (outcome(lambda: CLASSES[name](*args))
                == outcome(lambda: TWINS[name](*twin_of(args))))

    @settings(max_examples=100, deadline=None)
    @given(values)
    def test_by_position_or_keyword(self, value):
        cls, twin = type(value), twin_of(value)
        by_keyword = cls(**fields(value))
        by_position = cls(*fields(value).values())
        assert repr(by_keyword) == repr(by_position) == repr(twin)
        assert by_keyword == by_position == value

    def test_defaults(self):
        sort = IntSort(0, 1)
        assert repr(VarDecl("x", sort)) == repr(TWINS["VarDecl"]("x", twin_of(sort)))
        assert VarDecl("x", sort).kind == "monitored"
        program = GuardedActionProgram([], [], [], {}, [])
        assert repr(program) == repr(twin_of(program))
        assert (program.policy, program.resolution) == ("error", "strict")

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(UNCHECKED), st.lists(plain, max_size=8),
           st.dictionaries(st.sampled_from(["status", "detail", "cases", "mid"]), plain,
                           max_size=2))
    def test_refusals_match(self, cls, args, kwargs):
        ours = outcome(lambda: cls(*args, **kwargs))
        theirs = outcome(lambda: TWINS[cls.__name__](*args, **kwargs))
        # `Record._bind` words a missing or surplus argument otherwise
        assert ours[0] == theirs[0]
        if len(args) <= len(cls.__slots__) and (
                "unexpected keyword" in theirs[1] or "multiple values" in theirs[1]):
            assert ours == theirs

    def test_defaults_of_unchecked_classes(self):
        for value in [Verdict(0, "PASS"), TestSuite([], "h", 2), TestReport("h", 3),
                      CompletenessReport(), MutationOutcome("m0", "KILLED"),
                      MutationReport(), HypothesisReport(1, 1),
                      ControllerBehavior([], [], [], {}, [])]:
            assert repr(value) == repr(twin_of(value))

    def test_hand_built_cases_and_verdicts_skip_bind(self, monkeypatch):
        """`TestCase` and `Verdict` are built once per case, by position."""
        def refuse(cls, args, kwargs):
            raise AssertionError(f"{cls.__name__} bound its arguments")
        monkeypatch.setattr(Record, "_bind", classmethod(refuse))
        assert Verdict(3, "PASS").status == "PASS"
        assert Verdict(3, "FAIL", 0, {"x": 1}, {"y": 0}, {"y": 1}).step_index == 0
        assert TestCase((), ()).inputs == ()
        with pytest.raises(AssertionError, match="TestSuite bound"):
            TestSuite([], "h", 2)

    def test_keyword_errors_match(self):
        for kwargs in [{"lo": 0, "hi": 1, "mid": 0}, {"lo": 0}]:
            assert outcome(lambda: IntSort(**kwargs))[0] == "TypeError"
            assert outcome(lambda: TWINS["IntSort"](**kwargs))[0] == "TypeError"
        assert (outcome(lambda: IntSort(0, lo=1, hi=2))
                == outcome(lambda: TWINS["IntSort"](0, lo=1, hi=2)))
        assert (outcome(lambda: IntSort(lo=0, hi=1, mid=0))
                == outcome(lambda: TWINS["IntSort"](lo=0, hi=1, mid=0)))


class TestValueSemantics:
    @settings(max_examples=200, deadline=None)
    @given(values, st.data())
    def test_equality_and_hash(self, a, data):
        b = data.draw(st.one_of(st.just(a.replace()), values), label="b")
        ta, tb = twin_of(a), twin_of(b)
        assert (a == b, a != b) == (ta == tb, ta != tb)
        assert (a == tuple(fields(a).values())) == (ta == tuple(fields(a).values()))
        ours, theirs = both(a, hash)
        assert ours == theirs  # the same hash, or the same refusal

    @settings(max_examples=100, deadline=None)
    @given(guards, guards)
    def test_and_is_not_or(self, left, right):
        assert And(left, right) != Or(left, right)
        assert TWINS["And"](*twin_of((left, right))) != TWINS["Or"](*twin_of((left, right)))
        assert And(left, right) == And(left, right)

    @settings(max_examples=100, deadline=None)
    @given(values)
    def test_repr(self, value):
        assert repr(value) == repr(twin_of(value))

    @settings(max_examples=100, deadline=None)
    @given(values.filter(lambda v: type(v) is not Verdict), st.data())
    def test_assignment_refused(self, value, data):
        name = data.draw(st.sampled_from(list(value.__slots__) + ["other"]), label="name")
        assert both(value, lambda v: setattr(v, name, 0)) == (
            ("AttributeError", f"cannot assign to field {name!r}"),) * 2
        assert both(value, lambda v: delattr(v, name)) == (
            ("AttributeError", f"cannot delete field {name!r}"),) * 2

    def test_verdict_assignment_as_its_twin(self):
        verdict, twin = Verdict(0, "PASS"), twin_of(Verdict(0, "PASS"))
        for v in (verdict, twin):
            v.status, v.detail = "ERROR", "late"
        assert repr(verdict) == repr(twin)
        assert verdict == Verdict(0, "ERROR", detail="late")
        assert outcome(lambda: setattr(verdict, "other", 0))[0] == "AttributeError"

    @settings(max_examples=100, deadline=None)
    @given(programs)
    def test_program_is_unhashable(self, program):
        assert both(program, hash) == (("TypeError", "unhashable type: 'GuardedActionProgram'"),) * 2


class TestReplace:
    @settings(max_examples=200, deadline=None)
    @given(st.one_of(valid_sorts, decls, actions, programs, unchecked), st.data())
    def test_replace_matches_dataclasses_replace(self, value, data):
        name = data.draw(st.sampled_from(value.__slots__), label="field")
        other = data.draw(st.one_of(
            st.just(getattr(value, name)),
            field_values if type(value) in UNCHECKED else
            {"literals": st.just(()), "lo": st.integers(-3, 3), "hi": st.integers(-3, 3),
             "kind": st.sampled_from(["factor", "other", "controlled"]),
             "guard": guards, "output": outputs, "actions": st.lists(actions, max_size=2),
             "policy": st.text(max_size=3)}.get(name, st.just(getattr(value, name))),
        ), label="new value")
        assert (outcome(lambda: value.replace(**{name: other}))
                == outcome(lambda: dataclasses.replace(twin_of(value),
                                                       **{name: twin_of(other)})))

    def test_replace_checks_the_new_value(self):
        sort = IntSort(0, 1)
        assert outcome(lambda: sort.replace(hi=-1)) == (
            "ValueError", "empty integer range [0, -1]")
        assert outcome(lambda: VarDecl("x", sort).replace(kind="factor")) == (
            "ValueError", "factor variable x must have the phase sort")
        assert outcome(lambda: sort.replace(mid=0))[0] == "TypeError"
