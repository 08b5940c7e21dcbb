"""Mealy machine core: validation, runs, minimization, equivalence."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    brute_access_words,
    brute_distinguishable,
    brute_equivalent,
    brute_first_difference,
    brute_outputs,
    m0,
    random_machine,
)
from suptest.fsm import (
    AlphabetMismatch,
    Counterexample,
    FsmError,
    MealyMachine,
    UndefinedTransition,
)
from suptest.testgen import TestGenError, state_cover


def duplicated_m0():
    """M0 with s1 cloned as s1p and (s0, a) redirected to the clone."""
    m = m0()
    transitions = dict(m.transitions)
    transitions[("s0", "a")] = ("s1p", "1")
    transitions[("s1p", "a")] = ("s0", "0")
    transitions[("s1p", "b")] = ("s1", "1")
    return MealyMachine(["s0", "s1", "s1p"], "s0", m.inputs, m.outputs, transitions)


class TestValidate:
    def test_missing_pair_listed(self):
        m = m0()
        transitions = dict(m.transitions)
        del transitions[("s0", "a")]
        partial = MealyMachine(m.states, m.initial, m.inputs, m.outputs, transitions)
        assert m.complete
        assert not partial.complete
        with pytest.raises(UndefinedTransition) as excinfo:
            partial.step("s0", "a")
        assert (excinfo.value.state, excinfo.value.symbol) == ("s0", "a")

    def test_isolated_state_unreachable(self):
        m = m0()
        transitions = dict(m.transitions)
        transitions[("s2", "a")] = ("s2", "0")
        transitions[("s2", "b")] = ("s2", "0")
        with_extra = MealyMachine(
            ["s0", "s1", "s2"], "s0", m.inputs, m.outputs, transitions
        )
        assert with_extra.complete
        assert "s2" not in with_extra.reachable_states()
        assert set(with_extra.reachable_states()) == {"s0", "s1"}

    def test_duplicate_pair_rejected_on_load(self):
        obj = m0().to_obj()
        obj["transitions"].append({"from": "s0", "input": "a", "to": "s0", "output": "0"})
        with pytest.raises(FsmError):
            MealyMachine.from_obj(obj)


class TestRun:
    def test_empty_word(self):
        outputs, state = m0().run(())
        assert outputs == ()
        assert state == "s0"

    def test_aa(self):
        outputs, state = m0().run(("a", "a"))
        assert outputs == ("1", "0")
        assert state == "s0"

    def test_abb(self):
        outputs, state = m0().run(("a", "b", "b"))
        assert outputs == ("1", "1", "1")
        assert state == "s1"

    @pytest.mark.parametrize("symbol", ["z", ["a"], {"x": 1}], ids=["unknown", "list", "dict"])
    def test_symbol_outside_alphabet_raises(self, symbol):
        # a suite file may hold any JSON value as an input symbol
        with pytest.raises(FsmError, match="not in alphabet"):
            m0().run(("a", symbol))

    def test_partial_machine_raises(self):
        m = m0()
        transitions = dict(m.transitions)
        del transitions[("s1", "a")]
        partial = MealyMachine(m.states, m.initial, m.inputs, m.outputs, transitions)
        with pytest.raises(UndefinedTransition):
            partial.run(("a", "a"))


class TestMinimize:
    def test_already_minimal(self):
        m = m0()
        mini = m.minimize()
        assert mini.states == m.states
        assert mini.transitions == m.transitions

    def test_duplicate_state_merged(self):
        mini = duplicated_m0().minimize()
        assert len(mini.states) == 2
        assert mini.equivalent(m0()) is None

    def test_single_state(self):
        m = MealyMachine(["s"], "s", ["a"], ["0"], {("s", "a"): ("s", "0")})
        mini = m.minimize()
        assert mini.states == ("s",)

    def test_rejects_incomplete(self):
        m = m0()
        transitions = dict(m.transitions)
        del transitions[("s0", "a")]
        partial = MealyMachine(m.states, m.initial, m.inputs, m.outputs, transitions)
        with pytest.raises(FsmError):
            partial.minimize()


class TestEquivalent:
    def test_reflexive(self):
        assert m0().equivalent(m0()) is None

    def test_flipped_output_counterexample(self):
        m = m0()
        transitions = dict(m.transitions)
        transitions[("s1", "b")] = ("s1", "0")
        mutant = MealyMachine(m.states, m.initial, m.inputs, m.outputs, transitions)
        ce = m.equivalent(mutant)
        assert isinstance(ce, Counterexample)
        assert ce.inputs == ("a", "b")
        assert ce.outputs1 != ce.outputs2

    def test_minimized_clone_equivalent(self):
        assert duplicated_m0().equivalent(duplicated_m0().minimize()) is None

    def test_alphabet_mismatch(self):
        m = m0()
        other = MealyMachine(["s"], "s", ["c"], ["0"], {("s", "c"): ("s", "0")})
        with pytest.raises(AlphabetMismatch):
            m.equivalent(other)


class TestDistinguishingTrace:
    def test_m0_pair(self):
        assert m0().distinguishing_trace("s0", "s1") == ("a",)

    def test_same_state(self):
        assert m0().distinguishing_trace("s0", "s0") is None

    def test_clone_indistinguishable(self):
        assert duplicated_m0().distinguishing_trace("s1", "s1p") is None


machines = st.builds(
    lambda seed, n, ni, no: random_machine(random.Random(seed), n, ni, no),
    seed=st.integers(0, 10_000),
    n=st.integers(1, 8),
    ni=st.integers(1, 3),
    no=st.integers(1, 3),
)


class TestProperties:
    @given(machines, st.lists(st.integers(0, 2), max_size=6),
           st.lists(st.integers(0, 2), max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_run_composes(self, m, u_raw, v_raw):
        u = tuple(m.inputs[i % len(m.inputs)] for i in u_raw)
        v = tuple(m.inputs[i % len(m.inputs)] for i in v_raw)
        out_uv, _ = m.run(u + v)
        out_u, mid = m.run(u)
        out_v, _ = m.run_from(mid, v)
        assert out_uv == out_u + out_v

    @given(machines)
    @settings(max_examples=50, deadline=None)
    def test_minimize_preserves_behaviour(self, m):
        assert m.equivalent(m.minimize()) is None

    @given(machines, machines)
    @settings(max_examples=40, deadline=None)
    def test_equivalence_symmetric_and_replayable(self, m1, m2):
        if m1.inputs != m2.inputs:
            return
        ce12 = m1.equivalent(m2)
        ce21 = m2.equivalent(m1)
        assert (ce12 is None) == (ce21 is None)
        if ce12 is not None:
            assert brute_outputs(m1, ce12.inputs) != brute_outputs(m2, ce12.inputs)
            assert m1.run(ce12.inputs)[0] == ce12.outputs1
            assert m2.run(ce12.inputs)[0] == ce12.outputs2
        else:
            assert brute_equivalent(m1, m2, max_len=4)

    @given(st.integers(0, 5_000))
    @settings(max_examples=40, deadline=None)
    def test_distinguishing_matches_partition(self, seed):
        rng = random.Random(seed)
        # non-minimal machines on purpose: draw raw transitions
        n = rng.randint(2, 8)
        inputs = ["a", "b"]
        outputs = ["0", "1"]
        states = [f"s{i}" for i in range(n)]
        transitions = {
            (s, x): (rng.choice(states), rng.choice(outputs))
            for s in states for x in inputs
        }
        m = MealyMachine(states, "s0", inputs, outputs, transitions)
        blocks = m.state_partition()
        block_of = {s: i for i, b in enumerate(blocks) for s in b}
        for s in states:
            for t in states:
                merged = block_of[s] == block_of[t]
                trace = m.distinguishing_trace(s, t)
                assert (trace is None) == merged
                assert brute_distinguishable(m, s, t, max_len=n) == (not merged)


def raw_machine(rng: random.Random, n: int, n_inputs: int, n_outputs: int,
                defined: float = 1.0) -> MealyMachine:
    """Random machine, not necessarily reachable or minimal: each (state,
    input) pair has a transition with probability `defined`."""
    states = [f"s{i}" for i in range(n)]
    inputs = [chr(ord("a") + i) for i in range(n_inputs)]
    outputs = [str(i) for i in range(n_outputs)]
    transitions = {(s, x): (rng.choice(states), rng.choice(outputs))
                   for s in states for x in inputs if rng.random() < defined}
    return MealyMachine(states, "s0", inputs, outputs, transitions)


class TestSearchesAgainstEnumeration:
    """The access-word BFS and the product search against enumeration of
    words by length and then input order: minimal machines from
    `random_machine`, and raw ones, where states may be unreachable or
    indistinguishable and machines equivalent."""

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_distinguishing_trace(self, seed):
        rng = random.Random(seed)
        n, ni = rng.randint(1, 3), rng.randint(1, 2)
        for m in (random_machine(rng, n, 2, 2), raw_machine(rng, n, ni, rng.randint(1, 2))):
            for s in m.states:
                for t in m.states:
                    assert m.distinguishing_trace(s, t) == \
                        brute_first_difference(m, s, m, t, len(m.states) ** 2)

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_equivalent(self, seed):
        rng = random.Random(seed)
        ni, no = rng.randint(1, 2), rng.randint(1, 2)
        pairs = [(random_machine(rng, rng.randint(1, 3), 2, 2),
                  random_machine(rng, rng.randint(1, 3), 2, 2)),
                 (raw_machine(rng, rng.randint(1, 3), ni, no),
                  raw_machine(rng, rng.randint(1, 3), ni, no))]
        for m1, m2 in pairs:
            ce = m1.equivalent(m2)
            assert (ce.inputs if ce else None) == brute_first_difference(
                m1, m1.initial, m2, m2.initial, len(m1.states) * len(m2.states))

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_access_words(self, seed):
        rng = random.Random(seed)
        n, ni = rng.randint(1, 6), rng.randint(1, 3)
        for m in (random_machine(rng, n, 3, 2),
                  raw_machine(rng, n, ni, 1, defined=rng.choice([0.5, 1.0]))):
            expected = brute_access_words(m)
            assert list(m.access_words().items()) == expected
            assert m.reachable_states() == [s for s, _ in expected]
            if len(expected) == len(m.states):
                assert state_cover(m) == [w for _, w in expected]
            else:
                with pytest.raises(TestGenError, match="unreachable states"):
                    state_cover(m)
