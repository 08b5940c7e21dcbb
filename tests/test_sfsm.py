"""Input-class partitioning, FSM abstraction, concretization, labels."""

import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_sfsm
from suptest.guards import (
    BoolConst,
    EnumSort,
    IntSort,
    VarDecl,
    enumerate_valuations,
    eval_guard,
    parse_guard,
)
from suptest.sfsm import (
    POLICY_SELFLOOP,
    AbstractionMap,
    DeterminismViolation,
    IncompleteState,
    Sfsm,
    SfsmError,
    SfsmTransition,
    abstract_to_fsm,
    concretize_suite,
    export_dot,
    hash_label,
    input_classes,
)
from suptest.testgen import TestCase, TestSuite

DATA = Path(__file__).parent / "data"

X_DECL = [VarDecl("x", IntSort(0, 3))]


def two_guard_sfsm():
    """One state, guards x>1 and x=3 on separate, disjoint-by-value targets."""
    g_mid = parse_guard("x > 1 and x != 3", X_DECL)
    g_top = parse_guard("x = 3", X_DECL)
    g_low = parse_guard("x <= 1", X_DECL)
    y = [VarDecl("y", IntSort(0, 2), "controlled")]
    return Sfsm(
        X_DECL, y, ["r0", "r1"], "r0",
        [
            SfsmTransition("r0", "up", g_mid, {"y": 1}, "r1"),
            SfsmTransition("r0", "top", g_top, {"y": 2}, "r1"),
            SfsmTransition("r0", "stay", g_low, {"y": 0}, "r0"),
            SfsmTransition("r1", "back", BoolConst(True), {"y": 0}, "r0"),
        ],
    )


def one_state_sfsm():
    y = [VarDecl("y", IntSort(0, 1), "controlled")]
    return Sfsm(
        X_DECL, y, ["r0"], "r0",
        [SfsmTransition("r0", "loop", BoolConst(True), {"y": 1}, "r0")],
    )


class TestInputClasses:
    def test_two_guards_three_classes(self):
        g1 = parse_guard("x > 1", X_DECL)
        g2 = parse_guard("x = 3", X_DECL)
        y = [VarDecl("y", IntSort(0, 1), "controlled")]
        r = Sfsm(
            X_DECL, y, ["r0", "r1"], "r0",
            [
                SfsmTransition("r0", "a", g1, {"y": 1}, "r1"),
                SfsmTransition("r1", "b", g2, {"y": 0}, "r0"),
            ],
        )
        p = input_classes(r)
        assert len(p.classes) == 3
        by_sig = {c.signature: c for c in p.classes}
        assert by_sig[(False, False)].size == 2
        assert by_sig[(False, False)].representative == {"x": 0}
        assert by_sig[(True, False)].size == 1
        assert by_sig[(True, False)].representative == {"x": 2}
        assert by_sig[(True, True)].representative == {"x": 3}
        # the unsatisfiable conjunct not(g1) and g2 yields no class
        assert (False, True) not in by_sig

    def test_single_true_guard(self):
        p = input_classes(one_state_sfsm())
        assert len(p.classes) == 1
        assert p.classes[0].size == 4

    def test_enum_guards(self):
        hs = [VarDecl("hs", EnumSort(("0", "a", "m")))]
        y = [VarDecl("y", IntSort(0, 1), "controlled")]
        r = Sfsm(
            hs, y, ["r0"], "r0",
            [
                SfsmTransition("r0", "a", parse_guard("hs = a", hs), {"y": 1}, "r0"),
                SfsmTransition("r0", "m", parse_guard("hs = m", hs), {"y": 0}, "r0"),
            ],
        )
        p = input_classes(r)
        assert [c.representative for c in p.classes] == [
            {"hs": "0"}, {"hs": "a"}, {"hs": "m"}
        ]
        assert all(c.size == 1 for c in p.classes)

    def test_class_ids_stable_first_occurrence(self):
        p = input_classes(two_guard_sfsm())
        assert [c.id for c in p.classes] == [f"c{i}" for i in range(len(p.classes))]
        assert p.classes[0].representative == {"x": 0}


class TestAbstractToFsm:
    def test_one_state_self_loop(self):
        m, amap = abstract_to_fsm(one_state_sfsm())
        assert m.states == ("r0",)
        assert m.inputs == ("c0",)
        assert len(m.outputs) == 1
        assert m.transitions[("r0", "c0")] == ("r0", m.outputs[0])
        assert amap.label_to_output[m.outputs[0]] == {"y": 1}

    def test_two_state_split(self):
        g_up = parse_guard("x > 1", X_DECL)
        g_stay = parse_guard("x <= 1", X_DECL)
        y = [VarDecl("y", IntSort(0, 1), "controlled")]
        r = Sfsm(
            X_DECL, y, ["s", "sp"], "s",
            [
                SfsmTransition("s", "up", g_up, {"y": 1}, "sp"),
                SfsmTransition("s", "stay", g_stay, {"y": 0}, "s"),
                SfsmTransition("sp", "hold", BoolConst(True), {"y": 0}, "sp"),
            ],
        )
        m, _ = abstract_to_fsm(r)
        assert len(m.inputs) == 2
        p = input_classes(r)
        low = next(c for c in p.classes if not c.signature[0]).id
        high = next(c for c in p.classes if c.signature[0]).id
        assert m.transitions[("s", low)][0] == "s"
        assert m.transitions[("s", high)][0] == "sp"

    def test_overlapping_guards_rejected(self):
        g1 = parse_guard("x > 1", X_DECL)
        g2 = parse_guard("x = 3", X_DECL)
        y = [VarDecl("y", IntSort(0, 1), "controlled")]
        r = Sfsm(
            X_DECL, y, ["r0"], "r0",
            [
                SfsmTransition("r0", "a", g1, {"y": 1}, "r0"),
                SfsmTransition("r0", "b", g2, {"y": 0}, "r0"),
            ],
        )
        with pytest.raises(DeterminismViolation) as err:
            abstract_to_fsm(r)
        assert err.value.witness == {"x": 3}

    def test_overlap_outranks_earlier_incomplete_state(self):
        y = [VarDecl("y", IntSort(0, 1), "controlled")]
        r = Sfsm(
            X_DECL, y, ["r0", "r1"], "r0",
            [
                SfsmTransition("r0", "a", parse_guard("x = 0", X_DECL), {"y": 1}, "r1"),
                SfsmTransition("r1", "b", parse_guard("x > 1", X_DECL), {"y": 1}, "r1"),
                SfsmTransition("r1", "c", parse_guard("x = 3", X_DECL), {"y": 0}, "r0"),
            ],
        )
        with pytest.raises(DeterminismViolation) as err:
            abstract_to_fsm(r)
        assert err.value.state == "r1"
        assert err.value.witness == {"x": 3}

    def test_incomplete_state_policies(self):
        g = parse_guard("x = 0", X_DECL)
        y = [VarDecl("y", IntSort(0, 1), "controlled")]
        r = Sfsm(
            X_DECL, y, ["r0"], "r0",
            [SfsmTransition("r0", "a", g, {"y": 1}, "r0")],
        )
        with pytest.raises(IncompleteState):
            abstract_to_fsm(r)
        m, amap = abstract_to_fsm(r, policy=POLICY_SELFLOOP)
        assert "nil" in m.outputs
        assert amap.label_to_output["nil"] is None
        assert m.complete


class TestConcretize:
    def make_partition(self):
        g1 = parse_guard("x > 1", X_DECL)
        g2 = parse_guard("x = 3", X_DECL)
        y = [VarDecl("y", IntSort(0, 1), "controlled")]
        r = Sfsm(
            X_DECL, y, ["r0", "r1"], "r0",
            [
                SfsmTransition("r0", "a", g1, {"y": 1}, "r1"),
                SfsmTransition("r1", "b", g2, {"y": 0}, "r0"),
            ],
        )
        return input_classes(r)

    def test_single_symbol(self):
        p = self.make_partition()
        amap = AbstractionMap({c.id: c.representative for c in p.classes},
                              {"o0": {"y": 1}})
        suite = TestSuite([TestCase(("c0",), ("o0",))], "h", 2, "fp")
        concrete = concretize_suite(suite, p, amap)
        assert concrete.cases[0].inputs == ({"x": 0},)
        assert concrete.cases[0].expected == ({"y": 1},)
        assert concrete.concrete

    def test_empty_suite(self):
        p = self.make_partition()
        amap = AbstractionMap({}, {})
        suite = TestSuite([], "h", 2, "fp")
        assert concretize_suite(suite, p, amap).cases == []

    def test_repeated_symbols(self):
        p = self.make_partition()
        amap = AbstractionMap({c.id: c.representative for c in p.classes},
                              {"o0": {"y": 1}})
        suite = TestSuite([TestCase(("c1", "c1", "c0"), ("o0", "o0", "o0"))],
                          "h", 2, "fp")
        concrete = concretize_suite(suite, p, amap)
        assert concrete.cases[0].inputs == ({"x": 2}, {"x": 2}, {"x": 0})

    def test_names_unknown_class_id(self):
        p = self.make_partition()
        amap = AbstractionMap({c.id: c.representative for c in p.classes},
                              {"o0": {"y": 1}})
        suite = TestSuite([TestCase(("c0", "c99"), ("o0", "o0"))], "h", 2, "fp")
        with pytest.raises(SfsmError, match=r"^unknown class id 'c99'$"):
            concretize_suite(suite, p, amap)


class TestHashLabel:
    def test_deterministic(self):
        assert hash_label({"x": 0}) == hash_label({"x": 0})

    def test_differs_between_valuations(self):
        assert hash_label({"x": 0}) != hash_label({"x": 1})

    def test_key_order_canonicalized(self):
        assert hash_label({"a": 1, "b": 2}) == hash_label({"b": 2, "a": 1})

    def test_64_bit(self):
        assert 0 <= hash_label({"x": 0}) < 2 ** 64


class TestExportDot:
    @pytest.mark.parametrize("name,factory", [
        ("one_state.dot", one_state_sfsm),
        ("two_guard.dot", two_guard_sfsm),
    ])
    def test_golden(self, name, factory):
        expected = (DATA / name).read_text()
        assert export_dot(factory()) == expected

    def test_golden_welding_cell(self, welding_cell):
        from suptest.supervisor import to_test_reference
        expected = (DATA / "welding_cell.dot").read_text()
        assert export_dot(to_test_reference(welding_cell)) == expected


# ---------------------------------------------------------------------------
# Invariants on random SFSMs
# ---------------------------------------------------------------------------

sfsms = st.builds(lambda seed: random_sfsm(random.Random(seed)),
                  seed=st.integers(0, 10_000))


class TestInvariants:
    @given(sfsms)
    @settings(max_examples=40, deadline=None)
    def test_partition_property(self, r):
        p = input_classes(r)
        total = sum(c.size for c in p.classes)
        space = list(enumerate_valuations(r.input_vars))
        assert total == len(space)
        guards = [parse_guard(text, r.input_vars) for text in p.guards]
        for v in space:
            sig = tuple(eval_guard(g, v) for g in guards)
            matches = [c for c in p.classes if c.signature == sig]
            assert len(matches) == 1
            rep_sig = tuple(eval_guard(g, matches[0].representative) for g in guards)
            assert rep_sig == sig

    @given(sfsms)
    @settings(max_examples=40, deadline=None)
    def test_abstraction_soundness_every_member(self, r):
        m, amap = abstract_to_fsm(r)
        p = input_classes(r)
        guards = [parse_guard(text, r.input_vars) for text in p.guards]
        for v in enumerate_valuations(r.input_vars):
            c = p.class_of(v, guards)
            for s in r.states:
                t = r.step(s, v)
                target, label = m.transitions[(s, c.id)]
                assert t is not None
                assert t.target == target
                assert amap.label_to_output[label] == t.output

    @given(sfsms)
    @settings(max_examples=25, deadline=None)
    def test_concretization_replays_through_sfsm(self, r):
        from suptest.testgen import h_method

        m, amap = abstract_to_fsm(r)
        mini = m.minimize()
        if len(mini.states) != len(m.states):
            return  # abstraction need not be minimal; H-Method needs it
        p = input_classes(r)
        suite = h_method(m, len(m.states))
        concrete = concretize_suite(suite, p, amap)
        for abstract_case, case in zip(suite.cases, concrete.cases):
            state = r.initial
            for v, expected in zip(case.inputs, case.expected):
                t = r.step(state, v)
                assert t.output == expected
                state = t.target
