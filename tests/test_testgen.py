"""State cover, H-/W-Method suites, orthogonal completeness checking."""

import hashlib
import random

import pytest

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
                suite.method, suite.m_bound, suite.reference_fingerprint,
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
        bad = TestSuite(bad_cases, "h", 2, suite.reference_fingerprint)
        report = check_h_completeness(m, 2, bad)
        assert any("disagree" in v for v in report.violations)


class TestSuiteStats:
    def test_empty(self):
        suite = TestSuite([], "h", 2, "fp")
        assert suite_stats(suite) == {
            "cases": 0, "total_input_symbols": 0, "max_length": 0
        }

    def test_m0_w_suite(self):
        stats = suite_stats(w_method(m0(), 2))
        assert stats == {"cases": 3, "total_input_symbols": 8, "max_length": 3}

    def test_monotone_under_added_trace(self):
        suite = w_method(m0(), 2)
        bigger = TestSuite(
            suite.cases + [suite.cases[0]], "w", 2, suite.reference_fingerprint
        )
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
                    ts = TestSuite(cases, "h", bound, suite.reference_fingerprint)
                    violations = check_h_completeness(m, bound, ts).violations
                    assert violations == scan_check_h_completeness(m, bound, ts).violations
                    rejected += bool(violations)
        assert rejected > 100  # deletions do make the checker find violations


class TestPinnedSuites:
    """SHA-256 of the canonical suite encodings: how the generator decides
    that a pair is already distinguished must not change a suite."""

    @pytest.mark.parametrize("derive, m_bound, digest", [
        (h_method, 7, "e1a8204dedb2e66c0d1fa60c80270f72b9c5046a7041fffeedd2479c47c976a2"),
        (h_method, 8, "ca8e0460edbc833cf544acb31264429d546eaf6a84a0b049c90b4350ec54f048"),
        (w_method, 7, "580ffd532eb732d67e41fde8b8f218aabca10c5f66771a2dbd05c604639ed00e"),
        (w_method, 8, "48194760bdbf0f7da0b6a92a55764d9541c802348c313edd7a0c68e97556544e"),
    ], ids=["h-n", "h-n+1", "w-n", "w-n+1"])
    def test_welding_cell(self, welding_fsm, derive, m_bound, digest):
        assert len(welding_fsm.states) == 7
        encoded = canonical_dumps(derive(welding_fsm, m_bound).to_obj()).encode()
        assert hashlib.sha256(encoded).hexdigest() == digest

    def test_acceptance_population(self):
        # the machines and bounds of tests/test_acceptance.py's population
        h_digest, w_digest = hashlib.sha256(), hashlib.sha256()
        for i in range(200):
            rng = random.Random(1000 + i)
            n = rng.randint(2, 6)
            m = random_machine(rng, n, rng.randint(2, 4), rng.randint(2, 3))
            h_digest.update(canonical_dumps(h_method(m, n + i % 2).to_obj()).encode())
            w_digest.update(canonical_dumps(w_method(m, n + i % 2).to_obj()).encode())
        assert h_digest.hexdigest() == (
            "2569f513b359d9f7773ce9be0b8d4490a6a86564cb96b677c99706e9ea915a38")
        assert w_digest.hexdigest() == (
            "ba78d7f0d5680b95a07f1f23a161539da12a7db73575425cbfd5d5b82948bad9")

    def test_welding_cell_two_extra_states(self, welding_fsm):
        m_bound = len(welding_fsm.states) + 2
        suite = h_method(welding_fsm, m_bound)
        stats = suite_stats(suite)
        assert (stats["cases"], stats["total_input_symbols"]) == (40_824, 216_240)
        assert check_h_completeness(welding_fsm, m_bound, suite).ok
