"""State cover, H-/W-Method suites, orthogonal completeness checking."""

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import m0, random_machine, scan_check_h_completeness
from suptest import mutation
from suptest.encoding import canonical_dumps
from suptest.fsm import MealyMachine
from suptest.sfsm import abstract_to_fsm
from suptest.supervisor import to_test_reference
from suptest.testgen import (
    TestGenError,
    TestSuite,
    characterization_set,
    check_h_completeness,
    h_method,
    state_cover,
    suite_stats,
    w_method,
)


@pytest.fixture(scope="module")
def welding_fsm(welding_cell):
    return abstract_to_fsm(to_test_reference(welding_cell))[0]


def one_state():
    return MealyMachine(
        ["s"], "s", ["a", "b"], ["0"],
        {("s", "a"): ("s", "0"), ("s", "b"): ("s", "0")},
    )


def chain3():
    """s0 -a-> s1 -a-> s2, b self-loops; outputs make the chain minimal."""
    return MealyMachine(
        ["s0", "s1", "s2"], "s0", ["a", "b"], ["0", "1"],
        {
            ("s0", "a"): ("s1", "0"), ("s0", "b"): ("s0", "0"),
            ("s1", "a"): ("s2", "0"), ("s1", "b"): ("s1", "1"),
            ("s2", "a"): ("s0", "1"), ("s2", "b"): ("s2", "1"),
        },
    )


class TestStateCover:
    def test_m0(self):
        assert state_cover(m0()) == [(), ("a",)]

    def test_one_state(self):
        assert state_cover(one_state()) == [()]

    def test_chain(self):
        assert state_cover(chain3()) == [(), ("a",), ("a", "a")]


class TestHMethod:
    def test_m0_suite_checked_and_kills_all(self):
        m = m0()
        suite = h_method(m, 2)
        assert check_h_completeness(m, 2, suite).ok
        mutants = mutation.generate_mutants(m)
        for mu in mutants:
            # the fault model covers implementations with at most mBound states
            if len(mu.target.minimize().states) > 2:
                continue
            outcome = mutation.classify(m, suite, mu)
            assert outcome.status in (mutation.KILLED, mutation.EQUIVALENT)

    def test_one_state_bound_one(self):
        suite = h_method(one_state(), 1)
        assert {c.inputs for c in suite.cases} == {("a",), ("b",)}

    def test_bound_below_state_count(self):
        with pytest.raises(TestGenError):
            h_method(m0(), 1)

    def test_rejects_incomplete_or_unreachable(self):
        m = m0()
        partial = dict(m.transitions)
        del partial[("s0", "a")]
        with pytest.raises(TestGenError, match="must be complete"):
            h_method(MealyMachine(m.states, m.initial, m.inputs, m.outputs, partial), 2)
        isolated = {**m.transitions, ("s2", "a"): ("s2", "0"), ("s2", "b"): ("s2", "0")}
        with pytest.raises(TestGenError, match="has unreachable states"):
            h_method(MealyMachine(["s0", "s1", "s2"], "s0", m.inputs, m.outputs, isolated), 3)

    def test_rejects_non_minimal(self):
        m = m0()
        transitions = dict(m.transitions)
        transitions[("s2", "a")] = ("s0", "0")
        transitions[("s2", "b")] = ("s1", "1")
        transitions[("s0", "a")] = ("s2", "1")
        bigger = MealyMachine(["s0", "s1", "s2"], "s0", m.inputs, m.outputs,
                              transitions)
        if bigger.is_minimal():
            pytest.skip("construction accidentally minimal")
        with pytest.raises(TestGenError):
            h_method(bigger, 3)

    def test_expected_outputs_from_reference(self):
        m = chain3()
        suite = h_method(m, 3)
        for case in suite.cases:
            assert case.expected == m.run(case.inputs)[0]
            for cut in range(len(case.inputs)):
                prefix_outputs, _ = m.run(case.inputs[:cut])
                assert prefix_outputs == case.expected[:cut]


class TestWMethod:
    def test_m0_expansion(self):
        suite = w_method(m0(), 2)
        assert {c.inputs for c in suite.cases} == {
            ("b", "a"), ("a", "a", "a"), ("a", "b", "a")
        }

    def test_one_state_degenerate_w(self):
        suite = w_method(one_state(), 1)
        assert {c.inputs for c in suite.cases} == {("a",), ("b",)}

    def test_w_not_smaller_than_h(self):
        rng = random.Random(11)
        for _ in range(10):
            m = random_machine(rng, rng.randint(2, 5), rng.randint(2, 3), 2)
            h_size = suite_stats(h_method(m, len(m.states)))["total_input_symbols"]
            w_size = suite_stats(w_method(m, len(m.states)))["total_input_symbols"]
            assert w_size >= h_size


class TestCharacterizationSet:
    def test_m0(self):
        assert characterization_set(m0()) == [("a",)]

    def test_one_state_empty(self):
        assert characterization_set(one_state()) == []

    def test_chain_needs_two(self):
        m = chain3()
        w = characterization_set(m)
        assert len(w) == 2
        for i, s in enumerate(m.states):
            for t in m.states[i + 1:]:
                assert any(m.run_from(s, u)[0] != m.run_from(t, u)[0] for u in w)


class TestCheckCompleteness:
    def test_accepts_h_suites(self):
        rng = random.Random(3)
        for _ in range(8):
            m = random_machine(rng, rng.randint(2, 5), 2, 2)
            for extra in (0, 1):
                bound = len(m.states) + extra
                assert check_h_completeness(m, bound, h_method(m, bound)).ok

    def test_accepts_w_suites(self):
        rng = random.Random(4)
        for _ in range(8):
            m = random_machine(rng, rng.randint(2, 5), 2, 2)
            assert check_h_completeness(m, len(m.states), w_method(m, len(m.states))).ok

    def test_rejects_deleted_trace(self):
        m = m0()
        suite = h_method(m, 2)
        rejected = False
        for drop in range(len(suite.cases)):
            weakened = TestSuite(
                [c for i, c in enumerate(suite.cases) if i != drop],
                suite.method, suite.m_bound,
            )
            report = check_h_completeness(m, 2, weakened)
            if not report.ok:
                rejected = True
                assert report.violations
        assert rejected

    def test_reports_wrong_expected_outputs(self):
        m = m0()
        suite = h_method(m, 2)
        bad_cases = list(suite.cases)
        first = bad_cases[0]
        flipped = tuple("1" if y == "0" else "0" for y in first.expected)
        bad_cases[0] = type(first)(first.inputs, flipped)
        bad = TestSuite(bad_cases, "h", 2)
        report = check_h_completeness(m, 2, bad)
        assert any("disagree" in v for v in report.violations)


class TestSuiteStats:
    def test_empty(self):
        suite = TestSuite([], "h", 2)
        assert suite_stats(suite) == {
            "cases": 0, "total_input_symbols": 0, "max_length": 0
        }

    def test_m0_w_suite(self):
        stats = suite_stats(w_method(m0(), 2))
        assert stats == {"cases": 3, "total_input_symbols": 8, "max_length": 3}

    def test_monotone_under_added_trace(self):
        suite = w_method(m0(), 2)
        bigger = TestSuite(suite.cases + [suite.cases[0]], "w", 2)
        s1, s2 = suite_stats(suite), suite_stats(bigger)
        assert s2["cases"] > s1["cases"]
        assert s2["total_input_symbols"] > s1["total_input_symbols"]


class TestCompletenessSmallScale:
    """Exhaustive fault-model check on a few machines; the acceptance suite
    scales this up to the population sizes required for qualification."""

    def test_no_escapes_and_sound(self):
        rng = random.Random(42)
        for _ in range(6):
            n = rng.randint(2, 4)
            m = random_machine(rng, n, 2, 2)
            bound = n + rng.randint(0, 1)
            suite = h_method(m, bound)
            mutants = mutation.generate_mutants(m, limit=120, seed=1)
            for mu in mutants:
                outcome = mutation.classify(m, suite, mu)
                equivalent = m.equivalent(mu.target) is None
                if equivalent:
                    assert outcome.status == mutation.EQUIVALENT
                elif len(mu.target.minimize().states) <= bound:
                    assert outcome.status == mutation.KILLED


class TestWalkAgainstScan:
    """The checker decides each trace pair by a joint walk of the suite's
    trace set; the scan over the whole set is kept as its oracle."""

    def test_violations_equal_scan_oracle(self):
        rng = random.Random(6)
        rejected = 0
        for _ in range(12):
            n = rng.randint(2, 6)
            m = random_machine(rng, n, 2, rng.randint(2, 3))
            for bound in range(n, n + 3):
                suite = h_method(m, bound)
                for drop in [None, *range(len(suite.cases))]:
                    cases = [c for i, c in enumerate(suite.cases) if i != drop]
                    ts = TestSuite(cases, "h", bound)
                    violations = check_h_completeness(m, bound, ts).violations
                    assert violations == scan_check_h_completeness(m, bound, ts).violations
                    rejected += bool(violations)
        assert rejected > 100  # deletions do make the checker find violations


class TestReachedStateMemo:
    """The generator and the checker read each trace's reached state from
    their own memos; the scan oracle replays every trace from the initial
    state, and must accept every H-suite as well."""

    @given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(2, 3), st.integers(0, 2))
    @settings(max_examples=60, deadline=None)
    def test_both_checkers_accept_h_suites(self, seed, n, n_inputs, extra):
        m = random_machine(random.Random(seed), n, n_inputs, 2)
        suite = h_method(m, n + extra)
        assert check_h_completeness(m, n + extra, suite).ok
        assert scan_check_h_completeness(m, n + extra, suite).ok


def suite_content(suite) -> bytes:
    """A suite's indented canonical encoding, the form its pins hash."""
    return canonical_dumps(suite.to_obj()).encode()


class TestPinnedSuites:
    """SHA-256 of the canonical suite encodings, without the reference
    fingerprint: how the generator decides that a pair is already
    distinguished must not change a suite."""

    @pytest.mark.parametrize("derive, m_bound, digest", [
        (h_method, 7, "aca01b32aa05e09a9e7bebb82267adc0d4c505671088f5f271059602336db0fe"),
        (h_method, 8, "5a08798623c28f5e8da55c7515cb7ea459035fddacbbc286f5c9ea0f48481ade"),
        (w_method, 7, "9022f3142094754752fb1a56fd0bab3b664303163ab6710d3b54658bd1a3bb9f"),
        (w_method, 8, "7c1a4ff00c586c6143be9ff803a9919b68eecc80f8e89e78d3cf8c8b36d32869"),
    ], ids=["h-n", "h-n+1", "w-n", "w-n+1"])
    def test_welding_cell(self, welding_fsm, derive, m_bound, digest):
        assert len(welding_fsm.states) == 7
        encoded = suite_content(derive(welding_fsm, m_bound))
        assert hashlib.sha256(encoded).hexdigest() == digest

    def test_acceptance_population(self):
        # the machines and bounds of tests/test_acceptance.py's population
        h_digest, w_digest = hashlib.sha256(), hashlib.sha256()
        for i in range(200):
            rng = random.Random(1000 + i)
            n = rng.randint(2, 6)
            m = random_machine(rng, n, rng.randint(2, 4), rng.randint(2, 3))
            h_digest.update(suite_content(h_method(m, n + i % 2)))
            w_digest.update(suite_content(w_method(m, n + i % 2)))
        assert h_digest.hexdigest() == (
            "9b6bf4ca59cb06387038c8476f2cc4ba1205ebf2ffbab5f3e92824ced75bb2e9")
        assert w_digest.hexdigest() == (
            "04be86d60d526f868d51ae49972101e0c4cf4ea9aa061c85ab9ccd040f2071f6")

    def test_welding_cell_two_extra_states(self, welding_fsm):
        m_bound = len(welding_fsm.states) + 2
        suite = h_method(welding_fsm, m_bound)
        stats = suite_stats(suite)
        assert (stats["cases"], stats["total_input_symbols"]) == (40_824, 216_240)
        assert check_h_completeness(welding_fsm, m_bound, suite).ok
