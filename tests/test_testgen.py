"""State cover, H-/W-Method suites, orthogonal completeness checking."""

import ast
import copy
import hashlib
import json
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    canonical_artifact, m0, random_machine, scan_check_h_completeness, settled, walk_h_method,
    written,
)
from suptest import mutation
from suptest.encoding import canonical_dumps
from suptest.fsm import FsmError, MealyMachine
from suptest.sfsm import abstract_to_fsm
from suptest.supervisor import to_test_reference
from suptest.testgen import (
    TestCase,
    TestGenError,
    TestSuite,
    _require_testable,
    characterization_set,
    check_h_completeness,
    h_method,
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
        assert list(m0().access_words().values()) == [(), ("a",)]

    def test_one_state(self):
        assert list(one_state().access_words().values()) == [()]

    def test_chain(self):
        assert list(chain3().access_words().values()) == [(), ("a",), ("a", "a")]


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


class TestOneAccessSearch:
    """A derivation and a check each search the machine's access words
    once: to refuse an untestable machine, and for the generator's cover."""

    @pytest.mark.parametrize("call", [
        lambda machine, suite: h_method(machine, 3),
        lambda machine, suite: w_method(machine, 3),
        lambda machine, suite: check_h_completeness(machine, 3, suite),
    ], ids=["h_method", "w_method", "check_h_completeness"])
    def test_one_search_per_call(self, monkeypatch, call):
        machine = m0()
        suite = h_method(machine, 3)
        calls = []
        original = MealyMachine.access_words

        def counted(self):
            calls.append(self)
            return original(self)

        monkeypatch.setattr(MealyMachine, "access_words", counted)
        call(machine, suite)
        assert calls == [machine]


class TestFaultDomainBound:
    """A traversal set larger than `ENUM_BOUND` is refused by its size, which
    is worked out before any trace is built."""

    @pytest.mark.parametrize("derive", [
        h_method, w_method, lambda m, k: check_h_completeness(m, k, TestSuite([], "h", k)),
    ], ids=["h", "w", "check"])
    def test_refused_before_enumeration(self, derive):
        # m0 at mBound 20: 2 * (2^20 - 1) traversal traces
        with pytest.raises(TestGenError, match="traversal set of 2097150 traces"):
            derive(m0(), 20)

    def test_depth_past_the_bound_not_summed(self):
        # 2 * (2^(10^9) - 1) traces would take 10^9 bits to write down
        with pytest.raises(TestGenError, match="traversal set of over 4194302 traces"):
            h_method(m0(), 10**9)

    def test_welding_cell_boundary(self, welding_fsm):
        # 7 states and 16 inputs: 489 335 traces at mBound 10, 7 829 367 at 11
        _require_testable(welding_fsm, 10)
        with pytest.raises(TestGenError, match="traversal set of 7829367 traces"):
            _require_testable(welding_fsm, 11)


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

    def test_refuses_untestable_machine(self):
        # w_method refuses these before it asks; a direct caller still gets an error
        twins = MealyMachine(["s", "t"], "s", ["a"], ["0"],
                             {("s", "a"): ("t", "0"), ("t", "a"): ("s", "0")})
        with pytest.raises(TestGenError, match="not distinguishable"):
            characterization_set(twins)
        partial = MealyMachine(["s", "t"], "s", ["a", "b"], ["0", "1"],
                               {("s", "a"): ("t", "0"), ("t", "a"): ("s", "1")})
        with pytest.raises(FsmError, match="complete"):
            characterization_set(partial)


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


def walk_population():
    """(machine, bound, suite): the H-suites of random machines, whole and
    with each one case deleted."""
    rng = random.Random(6)
    for _ in range(12):
        n = rng.randint(2, 6)
        m = random_machine(rng, n, 2, rng.randint(2, 3))
        for bound in range(n, n + 3):
            suite = h_method(m, bound)
            for drop in [None, *range(len(suite.cases))]:
                cases = [c for i, c in enumerate(suite.cases) if i != drop]
                yield m, bound, TestSuite(cases, "h", bound)


def wide_population():
    """(machine, bound, suite): the H-suites of random machines of three or
    four inputs, each whole, with up to five seeded single-case deletions,
    and with one case cut short to half its length."""
    rng = random.Random(7)
    for _ in range(40):
        n = rng.randint(1, 4)
        m = random_machine(rng, n, rng.randint(3, 4), rng.randint(2, 3))
        for bound in (n, n + 1):
            suite = h_method(m, bound)
            cases = suite.cases
            for drop in [None, *rng.sample(range(len(cases)), min(5, len(cases)))]:
                yield m, bound, TestSuite([c for i, c in enumerate(cases) if i != drop],
                                          "h", bound)
            cut = rng.randrange(len(cases))
            half = len(cases[cut].inputs) // 2
            short = TestCase(cases[cut].inputs[:half], cases[cut].expected[:half])
            yield m, bound, TestSuite([short if i == cut else c for i, c in enumerate(cases)],
                                      "h", bound)


def cover_cut_population():
    """(machine, bound, suite): the H-suites of random machines, each with
    every case through one non-empty cover trace deleted, so that the trace
    is missing."""
    rng = random.Random(8)
    for _ in range(12):
        n = rng.randint(2, 5)
        m = random_machine(rng, n, rng.randint(2, 3), rng.randint(2, 3))
        for bound in (n, n + 1):
            suite = h_method(m, bound)
            for v in list(m.access_words().values())[1:]:
                cases = [c for c in suite.cases if c.inputs[:len(v)] != v]
                yield m, bound, TestSuite(cases, "h", bound)


class TestWalkAgainstScan:
    """The checker decides each trace pair by its input masks, and walks the
    suite's trace set from a pair that one input does not tell apart; the
    scan over the whole set is kept as its oracle."""

    def test_violations_equal_scan_oracle(self):
        rejected = 0
        for m, bound, ts in walk_population():
            violations = check_h_completeness(m, bound, ts).violations
            assert violations == scan_check_h_completeness(m, bound, ts).violations
            rejected += bool(violations)
        assert rejected > 100  # deletions do make the checker find violations

    def test_wider_alphabets_equal_scan_oracle(self):
        # 547 suites in about 1 s; keep it under 5 s
        checked = rejected = 0
        for m, bound, ts in wide_population():
            violations = check_h_completeness(m, bound, ts).violations
            assert violations == scan_check_h_completeness(m, bound, ts).violations
            checked += 1
            rejected += bool(violations)
        assert checked == 547 and rejected > 400

    def test_missing_cover_trace_equals_scan_oracle(self):
        checked = 0
        for m, bound, ts in cover_cut_population():
            violations = check_h_completeness(m, bound, ts).violations
            assert violations == scan_check_h_completeness(m, bound, ts).violations
            assert any(line.startswith("H1: cover trace") for line in violations)
            checked += 1
        assert checked == 70

    @pytest.mark.parametrize("symbol", ["z", {"x": 1}], ids=["unknown", "unhashable"])
    def test_refuses_input_outside_alphabet(self, symbol):
        m = m0()
        suite = h_method(m, 2)
        bad = TestSuite(suite.cases + [TestCase(("a", symbol), ("1", "0"))], "h", 2)
        with pytest.raises(FsmError, match=r"input symbol .* not in alphabet"):
            check_h_completeness(m, 2, bad)

    def test_no_violation_line_repeats(self):
        # each trace pair is decided once, and an H3(c) line names a trace
        # and one of its non-empty proper prefixes
        h3c = re.compile(r"H3\(c\): prefix (\(.*?\)) of (\(.*\)) not distinguished")
        for m, bound, ts in walk_population():
            violations = check_h_completeness(m, bound, ts).violations
            assert len(set(violations)) == len(violations)
            for line in violations:
                if line.startswith("H3(c)"):
                    prefix, trace = map(ast.literal_eval, h3c.fullmatch(line).groups())
                    assert 0 < len(prefix) < len(trace) and trace[:len(prefix)] == prefix


class TestGeneratorAgainstWalk:
    """The generator decides each trace pair by its input masks; the walk
    that tries every input at each step is kept as its oracle."""

    @given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(2, 5), st.integers(2, 3),
           st.integers(0, 2))
    @settings(max_examples=80, deadline=None)
    def test_same_cases_in_same_order(self, seed, n, n_inputs, n_outputs, extra):
        m = random_machine(random.Random(seed), n, n_inputs, n_outputs)
        assert h_method(m, n + extra).cases == walk_h_method(m, n + extra).cases


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
        assert hashlib.sha256(suite_content(suite)).hexdigest() == (
            "2712abd23228bb62195717c16c5795248d9b5270b7b238d8babce79c43be9b18")
        assert check_h_completeness(welding_fsm, m_bound, suite).ok


def unshared(suite: TestSuite) -> TestSuite:
    """A copy of `suite` that shares no input or output object, with itself
    or with `suite`."""
    return TestSuite([TestCase(tuple(map(copy.deepcopy, c.inputs)),
                               tuple(map(copy.deepcopy, c.expected))) for c in suite.cases],
                     suite.method, suite.m_bound, suite.concrete)


# Valuations with `1` and `True` apart, non-ASCII names and values, and the
# nil output
scalars = st.one_of(st.integers(-2, 2), st.booleans(), st.sampled_from(["on", "é", "\u2603", ""]))
valuations = st.dictionaries(st.sampled_from(["x", "y", "ä", "zz"]), scalars, max_size=3)
pool_values = st.one_of(st.none(), valuations, st.sampled_from(["c0", "o1", "ø"]))


@st.composite
def shared_suites(draw) -> TestSuite:
    """A suite whose steps are drawn from a small pool of objects, each step
    the pooled object itself or a copy of it; cases may be empty."""
    pool = draw(st.lists(pool_values, min_size=1, max_size=5))
    step = st.tuples(st.integers(0, len(pool) - 1), st.booleans()).map(
        lambda pick: copy.deepcopy(pool[pick[0]]) if pick[1] else pool[pick[0]])
    cases = draw(st.lists(st.lists(st.tuples(step, step), max_size=5), max_size=6))
    return TestSuite([TestCase(tuple(i for i, _ in c), tuple(o for _, o in c)) for c in cases],
                     "h", draw(st.integers(1, 9)), draw(st.booleans()))


class TestSuiteArtifact:
    """`TestSuite.to_artifact` encodes each distinct input and output object
    once: its file must equal the one of a copy that shares no object."""

    @given(shared_suites(), st.none() | st.just({"fsm": "f" * 16}))
    @settings(max_examples=150, deadline=None)
    def test_file_equals_unshared_copy(self, suite, links):
        assert written(suite.to_artifact(), links) == \
            canonical_artifact(unshared(suite).to_obj(), links)
        assert canonical_artifact(settled(suite.to_artifact()), links) == \
            canonical_artifact(unshared(suite).to_obj(), links)

    def test_a_valuation_changed_between_writes(self):
        v = {"x": 1}
        suite = TestSuite([TestCase((v, v), (None, {"y": "é"})), TestCase((), ()),
                           TestCase((v,), (v,))], "h", 2, concrete=True)
        first = written(suite.to_artifact())
        assert first == canonical_artifact(unshared(suite).to_obj())
        v["x"] = True
        second = written(suite.to_artifact())
        assert second != first
        assert second == canonical_artifact(unshared(suite).to_obj())
        assert b'"inputs":[{"x":true},{"x":true}]' in second[0]


def alike(a, b) -> bool:
    """Whether `a` and `b` are equal in value and type: a valuation's names
    with equal values of the same types, in any order."""
    if type(a) is not type(b) or a != b:
        return False
    return not isinstance(a, dict) or all(type(a[k]) is type(b[k]) for k in a)


def hashable(v) -> bool:
    try:
        hash(frozenset(v.items()) if isinstance(v, dict) else v)
    except TypeError:
        return False
    return True


# valuations that cannot be hashed, as a list value makes them
unhashable_valuations = st.dictionaries(st.sampled_from(["x", "y"]),
                                        st.lists(scalars, max_size=2), min_size=1, max_size=2)


# valuations the wire carries: names in either order, ints and strings
wire_valuations = st.dictionaries(
    st.sampled_from(["x", "y", "ä", "zz"]),
    st.one_of(st.integers(-2, 2), st.sampled_from(["1", "on", "é", "\u2603", ""])), max_size=3)
symbols = st.sampled_from(["c0", "o1", "ø"])
# a symbol the wire would carry as two lines
broken_symbols = st.sampled_from(["c0\nIN c1", "o1\r"])


def step_ok(v, concrete: bool, output: bool) -> bool:
    """Whether `v` may be an input (`output` false) or an expected output
    of a concrete or abstract suite: the oracle of the reader's check."""
    if not concrete:
        return type(v) is str and "\n" not in v and "\r" not in v
    if output and v is None:
        return True
    return type(v) is dict and all(type(x) is str or type(x) is int for x in v.values())


def first_stray(doc) -> str | None:
    """Where the first value of `doc` that no suite may hold sits, in the
    order the reader reads it, or None."""
    for i, c in enumerate(doc["cases"]):
        for key, output in (("inputs", False), ("expectedOutputs", True)):
            for j, v in enumerate(c[key]):
                if not step_ok(v, doc["concrete"], output):
                    return f"cases[{i}].{key}[{j}]"
    return None


@st.composite
def suite_documents(draw) -> dict:
    """A suite document as `json` reads it, so no two steps share an object,
    with steps drawn from a small pool: valuations in either order of their
    names and nil for a concrete suite, symbols for an abstract one, and in
    about half the pools a stray that may be neither (`1` beside `True`, a
    symbol, nil, a valuation that cannot be hashed, a symbol with a line
    break).  Its first case expects
    at its second step the value it sends at its first."""
    concrete = draw(st.booleans())
    inputs, outputs = (wire_valuations, wire_valuations | st.none()) if concrete \
        else (symbols, symbols)
    pool = draw(st.lists(inputs | outputs, min_size=1, max_size=4))
    pool += draw(st.lists(pool_values | unhashable_valuations | broken_symbols, max_size=1))
    step = st.tuples(st.sampled_from(pool), st.booleans()).map(
        lambda pick: dict(reversed(pick[0].items())) if pick[1] and isinstance(pick[0], dict)
        else pick[0])
    first, second = draw(inputs), draw(inputs)
    cases = [[(first, draw(outputs)), (second, first)]]
    cases += draw(st.lists(st.lists(st.tuples(step, step), max_size=5), max_size=6))
    doc = {"method": draw(st.sampled_from(["h", "w"])), "mBound": draw(st.integers(1, 9)),
           "concrete": concrete,
           "cases": [{"inputs": [i for i, _ in c], "expectedOutputs": [o for _, o in c]}
                     for c in cases]}
    return json.loads(json.dumps(doc))


class TestSuiteRead:
    """`TestSuite.from_obj` refuses a value no suite may hold, naming where
    it is, and shares the inputs and outputs that are equal in value and
    type, as a concretized suite does, and reads back the document it was
    given."""

    @given(suite_documents())
    @settings(max_examples=150, deadline=None)
    def test_equal_values_shared(self, doc):
        stray = first_stray(doc)
        if stray is not None:
            with pytest.raises(ValueError, match=re.escape(f"{stray} must be ")):
                TestSuite.from_obj(doc)
            return
        suite = TestSuite.from_obj(doc)
        assert suite.to_obj() == doc
        values = [v for c in suite.cases for v in c.inputs + c.expected]
        for a in values:
            for b in values:
                if alike(a, b):
                    assert a is b
        assert suite.cases[0].expected[1] is suite.cases[0].inputs[0]

    @pytest.mark.parametrize("inputs, stray", [
        ([{"x": 1}, {"x": True}], "cases[0].inputs[1] must be a valuation of strings and "
                                  "integers, got {'x': True}"),
        ([{"x": True}, {"x": 1}], "cases[0].inputs[0] must be a valuation of strings and "
                                  "integers, got {'x': True}"),
    ], ids=["int-then-bool", "bool-then-int"])
    def test_a_bool_is_not_shared_with_its_int(self, inputs, stray):
        """`True` equals `1` and hashes alike, so the reader must test it
        apart, not take it for the `1` it met first."""
        doc = {"method": "h", "mBound": 1, "concrete": True,
               "cases": [{"inputs": inputs, "expectedOutputs": [None, None]}]}
        with pytest.raises(ValueError) as refused:
            TestSuite.from_obj(doc)
        assert str(refused.value) == stray
