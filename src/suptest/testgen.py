"""Complete conformance test suites: H-Method, W-Method, completeness check.

Suites store only maximal input traces; every prefix is implicitly part of
the suite because the harness checks all intermediate outputs.  The
generator takes its state cover from `MealyMachine.access_words` and its
distinguishing suffixes from `MealyMachine.distinguishing_trace`.  The
completeness checker calls neither search: it keeps its own breadth-first
state cover and re-verifies the H-conditions with its own walk of the
suite's trace set, written apart from the generator's walk of its closure,
so generator and checker share only the Mealy machine primitives and
cannot mask each other's faults.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

from .fsm import MealyMachine


class TestGenError(Exception):
    __test__ = False  # not a pytest class


@dataclass(frozen=True)
class TestCase:
    __test__ = False  # not a pytest class

    inputs: tuple
    expected: tuple


@dataclass
class TestSuite:
    __test__ = False  # not a pytest class

    cases: list[TestCase]
    method: str  # "h" | "w"
    m_bound: int
    concrete: bool = False

    def to_obj(self) -> dict:
        return {
            "method": self.method,
            "mBound": self.m_bound,
            "concrete": self.concrete,
            "cases": [
                {"inputs": list(c.inputs), "expectedOutputs": list(c.expected)}
                for c in self.cases
            ],
        }

    @classmethod
    def from_obj(cls, obj: dict) -> "TestSuite":
        cases = [TestCase(tuple(c["inputs"]), tuple(c["expectedOutputs"])) for c in obj["cases"]]
        for i, c in enumerate(cases):
            if len(c.inputs) != len(c.expected):
                raise TestGenError(f"case {i} has {len(c.inputs)} inputs but "
                                   f"{len(c.expected)} expected outputs")
        return cls(cases, obj["method"], obj["mBound"], obj.get("concrete", False))


def suite_stats(ts: TestSuite) -> dict:
    lengths = [len(c.inputs) for c in ts.cases]
    return {
        "cases": len(ts.cases),
        "total_input_symbols": sum(lengths),
        "max_length": max(lengths, default=0),
    }


# ---------------------------------------------------------------------------
# Construction helpers
# ---------------------------------------------------------------------------

def _require_testable(m: MealyMachine, m_bound: int) -> None:
    if not m.complete:
        raise TestGenError("reference machine must be complete")
    if len(m.reachable_states()) < len(m.states):
        raise TestGenError("reference machine has unreachable states")
    if not m.is_minimal():
        raise TestGenError("reference machine must be minimal")
    if m_bound < len(m.states):
        raise TestGenError(
            f"mBound {m_bound} is below the reference state count {len(m.states)}"
        )


def state_cover(m: MealyMachine) -> list[tuple]:
    """One shortest access trace per state, BFS with input-order tie-break.

    Contains the empty trace (for the initial state); ordered by discovery.
    """
    access = m.access_words()
    if len(access) < len(m.states):
        missing = [s for s in m.states if s not in access]
        raise TestGenError(f"unreachable states: {', '.join(missing)}")
    return list(access.values())


def _trace_key(m: MealyMachine, trace: tuple) -> tuple:
    return tuple(m.inputs.index(x) for x in trace)


def _maximal_traces(m: MealyMachine, closure: set[tuple]) -> list[tuple]:
    """The traces of `closure` that are no other's parent, in input order."""
    parents = {t[:-1] for t in closure if t}
    index = {x: i for i, x in enumerate(m.inputs)}
    return sorted(closure - parents, key=lambda t: tuple(map(index.__getitem__, t)))


def _close_prefixes(closure: set[tuple], trace: tuple) -> None:
    for i in range(len(trace) + 1):
        closure.add(trace[:i])


def _to_suite(m: MealyMachine, closure: set[tuple], method: str, m_bound: int) -> TestSuite:
    cases = []
    for trace in _maximal_traces(m, closure):
        if not trace:
            continue
        outputs, _ = m.run(trace)
        cases.append(TestCase(trace, outputs))
    return TestSuite(cases, method, m_bound)


# ---------------------------------------------------------------------------
# H-Method
# ---------------------------------------------------------------------------

def h_method(m: MealyMachine, m_bound: int) -> TestSuite:
    """Complete suite for implementations with at most `m_bound` states.

    Starts from a state cover extended by all input words of the traversal
    depth, then adds distinguishing suffixes for the required trace pairs,
    preferring suffixes already present so the suite stays small.
    """
    _require_testable(m, m_bound)
    n = len(m.states)
    k = m_bound - n + 1
    cover = state_cover(m)
    cover_set = set(cover)

    # traversal set V . inputs^{<=k}, ordered deterministically; the cover is
    # prefix-closed, so the traversal set is too and starts the closure
    traversal = []
    for v in cover:
        for length in range(k + 1):
            for word in product(m.inputs, repeat=length):
                traversal.append(v + word)
    traversal.sort(key=lambda t: (len(t), _trace_key(m, t)))
    closure = set(traversal)
    # every pair below is of traversal traces, so the state each reaches is
    # one lookup from its parent's, which comes earlier in length order
    reached = {(): m.initial}
    for t in traversal[1:]:
        reached[t] = m.transitions[(reached[t[:-1]], t[-1])][0]
    gammas: dict[tuple[str, str], tuple | None] = {}  # m.distinguishing_trace per state pair

    def apart(alpha: tuple, beta: tuple, sa: str, sb: str) -> bool:
        # joint walk of the common extensions of alpha and beta in the closure;
        # they are prefix-closed, and once the states meet no output differs
        for x in m.inputs:
            if alpha + (x,) in closure and beta + (x,) in closure:
                (ta, ya), (tb, yb) = m.transitions[(sa, x)], m.transitions[(sb, x)]
                if ya != yb or ta != tb and apart(alpha + (x,), beta + (x,), ta, tb):
                    return True
        return False

    def ensure_distinguished(alpha: tuple, beta: tuple) -> None:
        sa, sb = reached[alpha], reached[beta]
        if sa == sb or apart(alpha, beta, sa, sb):
            return
        if (sa, sb) not in gammas:
            gammas[(sa, sb)] = m.distinguishing_trace(sa, sb)
        gamma = gammas[(sa, sb)]
        if gamma is None:  # minimal machine: cannot happen
            raise TestGenError(f"states {sa!r} and {sb!r} are not distinguishable")
        _close_prefixes(closure, alpha + gamma)
        _close_prefixes(closure, beta + gamma)

    # (a) pairs within the state cover
    for i, alpha in enumerate(cover):
        for beta in cover[i + 1:]:
            ensure_distinguished(alpha, beta)
    # (b) cover trace against proper traversal extension
    for alpha in cover:
        for beta in traversal:
            if beta in cover_set:
                continue
            ensure_distinguished(alpha, beta)
    # (c) distinct non-empty prefixes of each traversal trace
    for omega in traversal:
        for i in range(1, len(omega) + 1):
            for j in range(i + 1, len(omega) + 1):
                ensure_distinguished(omega[:i], omega[:j])

    return _to_suite(m, closure, "h", m_bound)


# ---------------------------------------------------------------------------
# W-Method
# ---------------------------------------------------------------------------

def characterization_set(m: MealyMachine) -> list[tuple]:
    """Trace set distinguishing every pair of states, greedily accumulated."""
    if not m.complete:
        raise TestGenError("characterization_set requires a complete machine")
    if len(m.state_partition()) != len(m.states):
        raise TestGenError("characterization_set requires a minimal machine")
    w: list[tuple] = []
    for i, s in enumerate(m.states):
        for t in m.states[i + 1:]:
            if any(m.run_from(s, word)[0] != m.run_from(t, word)[0] for word in w):
                continue
            gamma = m.distinguishing_trace(s, t)
            if gamma is None:
                raise TestGenError(f"states {s!r} and {t!r} are not distinguishable")
            w.append(gamma)
    return w


def w_method(m: MealyMachine, m_bound: int) -> TestSuite:
    """Classical construction: cover . inputs^{<=k} . characterization set."""
    _require_testable(m, m_bound)
    n = len(m.states)
    k = m_bound - n + 1
    cover = state_cover(m)
    w = characterization_set(m) or [()]
    closure: set[tuple] = set()
    for v in cover:
        for length in range(k + 1):
            for word in product(m.inputs, repeat=length):
                for u in w:
                    _close_prefixes(closure, v + word + u)
    return _to_suite(m, closure, "w", m_bound)


# ---------------------------------------------------------------------------
# Orthogonal completeness checker
# ---------------------------------------------------------------------------

@dataclass
class CompletenessReport:
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        if self.ok:
            return "suite completeness: PASS"
        lines = ["suite completeness: FAIL"]
        lines.extend(f"  {v}" for v in self.violations)
        return "\n".join(lines)


def check_h_completeness(m: MealyMachine, m_bound: int, ts: TestSuite) -> CompletenessReport:
    """Re-verify the H-conditions of a suite by direct enumeration.

    Independent of the generator: membership, pair enumeration, and the
    walk over common suffixes are all recomputed from scratch here.
    """
    _require_testable(m, m_bound)
    report = CompletenessReport()
    n = len(m.states)
    k = m_bound - n + 1

    # the suite as a prefix-closed trace set
    suite_traces: set[tuple] = {()}
    for case in ts.cases:
        expected, _ = m.run(case.inputs)
        if expected != case.expected:
            report.violations.append(
                f"expected outputs of case {case.inputs} disagree with the reference"
            )
        for i in range(len(case.inputs) + 1):
            suite_traces.add(tuple(case.inputs[:i]))

    # own breadth-first state cover
    access: dict[str, tuple] = {m.initial: ()}
    frontier = [m.initial]
    while frontier:
        nxt = []
        for s in frontier:
            for x in m.inputs:
                t = m.transitions[(s, x)][0]
                if t not in access:
                    access[t] = access[s] + (x,)
                    nxt.append(t)
        frontier = nxt
    cover = sorted(access.values(), key=lambda t: (len(t), _trace_key(m, t)))

    for v in cover:
        if v not in suite_traces:
            report.violations.append(f"H1: cover trace {v} missing")

    for v in cover:
        for word in product(m.inputs, repeat=k):
            if v + word not in suite_traces:
                report.violations.append(f"H2: traversal trace {v + word} missing")

    extensions = []
    for v in cover:
        for length in range(k + 1):
            for word in product(m.inputs, repeat=length):
                extensions.append(v + word)

    state_of: dict[tuple, str] = {(): m.initial}  # trace -> reached state, filled on demand

    def reached(trace: tuple) -> str:
        if trace not in state_of:
            state_of[trace] = m.transitions[(reached(trace[:-1]), trace[-1])][0]
        return state_of[trace]

    def distinguished_in_suite(alpha: tuple, beta: tuple) -> bool:
        sa, sb = reached(alpha), reached(beta)
        if sa == sb:
            return True
        pending = [(alpha, beta, sa, sb)]  # common suffixes, extended while states differ
        while pending:
            a, b, sa, sb = pending.pop()
            for x in m.inputs:
                if a + (x,) in suite_traces and b + (x,) in suite_traces:
                    (ta, ya), (tb, yb) = m.transitions[(sa, x)], m.transitions[(sb, x)]
                    if ya != yb:
                        return True
                    if ta != tb:
                        pending.append((a + (x,), b + (x,), ta, tb))
        return False

    cover_set = set(cover)
    for i, alpha in enumerate(cover):
        for beta in cover[i + 1:]:
            if not distinguished_in_suite(alpha, beta):
                report.violations.append(f"H3(a): pair ({alpha}, {beta}) not distinguished")
    for alpha in cover:
        for beta in extensions:
            if beta in cover_set:
                continue
            if not distinguished_in_suite(alpha, beta):
                report.violations.append(f"H3(b): pair ({alpha}, {beta}) not distinguished")
    for omega in extensions:
        for i in range(1, len(omega) + 1):
            for j in range(i + 1, len(omega) + 1):
                if not distinguished_in_suite(omega[:i], omega[:j]):
                    report.violations.append(
                        f"H3(c): prefixes ({omega[:i]}, {omega[:j]}) of {omega} not distinguished"
                    )
    return report
