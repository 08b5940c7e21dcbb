"""Complete conformance test suites: H-Method, W-Method, completeness check.

Suites store only maximal input traces; every prefix is implicitly part of
the suite because the harness checks all intermediate outputs.  The
generator takes its state cover from `MealyMachine.access_words` and its
distinguishing suffixes from `MealyMachine.distinguishing_trace`.  Generator
and checker each list the traversal set once, and check condition H3(c) per
(prefix, trace) pair: a traversal trace against each of its non-empty proper
prefixes, which covers every pair of prefixes of a traversal trace because
the set is prefix-closed.  The completeness checker takes its cover from its
own breadth-first search, in discovery order, and shares only
`_require_testable`, which refuses an untestable machine, with the
generator.  It re-verifies the H-conditions with its own walk of the suite's
trace set, written apart from the generator's walk of its closure, so
generator and checker cannot mask each other's faults.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

from .encoding import Encoded, encode_compact
from .fsm import MealyMachine
from .guards import ENUM_BOUND


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
        return self._document([
            {"inputs": list(c.inputs), "expectedOutputs": list(c.expected)}
            for c in self.cases
        ])

    def to_artifact(self) -> dict:
        """`to_obj()` for `encoding.canonical_artifact`, with the cases as
        one `Encoded` text: a suite repeats few inputs and outputs over many
        steps, so each distinct object among them is encoded once.  The
        cases hold every such object while this runs, so no id is reused."""
        texts: dict[int, str] = {}  # id of an input or output -> its encoding
        get = texts.__getitem__

        def text(v) -> str:
            known = texts.get(id(v))
            if known is None:
                known = texts[id(v)] = encode_compact(v)
            return known

        def listed(values) -> str:
            try:
                return ",".join(map(get, map(id, values)))
            except KeyError:  # an object met for the first time
                return ",".join(map(text, values))

        # a case's keys in sorted order, as the canonical encoding puts them
        cases = ",".join(['{"expectedOutputs":[%s],"inputs":[%s]}'
                          % (listed(c.expected), listed(c.inputs)) for c in self.cases])
        return self._document(Encoded(f"[{cases}]"))

    def _document(self, cases) -> dict:
        return {"method": self.method, "mBound": self.m_bound,
                "concrete": self.concrete, "cases": cases}

    @classmethod
    def from_obj(cls, obj: dict) -> "TestSuite":
        """The suite of the document `obj`, as `json` reads it, checked.

        The suite is shaped like one that `sfsm.concretize_suite` builds:
        inputs and outputs that are equal in value and type are one object,
        so the harness encodes each distinct input once.  `1` and `True`
        stay two objects, and a value that cannot be hashed stays as it is.
        So, as for a concretized suite, no one may change a valuation of the
        suite.  A bare-symbol input that holds a line break is refused: the
        wire would carry it as several lines.
        """
        known: dict = {}  # (value, types) of an input or output -> the first one read
        cases = []
        for i, c in enumerate(obj["cases"]):
            inputs, expected = c["inputs"], c["expectedOutputs"]
            for key, value in (("inputs", inputs), ("expectedOutputs", expected)):
                if not isinstance(value, list):
                    raise TestGenError(f"case {i}: {key} must be a list, got {value!r}")
            if len(inputs) != len(expected):
                raise TestGenError(f"case {i} has {len(inputs)} inputs but "
                                   f"{len(expected)} expected outputs")
            inputs = _shared(inputs, known)
            for v in inputs:
                if isinstance(v, str) and ("\n" in v or "\r" in v):
                    raise TestGenError(f"case {i}: input {v!r} holds a line break")
            cases.append(TestCase(inputs, _shared(expected, known)))
        method, m_bound, concrete = obj["method"], obj["mBound"], obj.get("concrete", False)
        if method not in ("h", "w"):
            raise TestGenError(f'method must be "h" or "w", got {method!r}')
        if not isinstance(m_bound, int) or isinstance(m_bound, bool):
            raise TestGenError(f"mBound must be an int, got {m_bound!r}")
        if not isinstance(concrete, bool):
            raise TestGenError(f"concrete must be a bool, got {concrete!r}")
        return cls(cases, method, m_bound, concrete)


def _shared(values: list, known: dict) -> tuple:
    """`values`, each replaced by the first value of `known` equal to it in
    value and type, and the first such value added to `known`.  A valuation
    is known by its names, their values and the values' types, in any order;
    a value that cannot be hashed is kept as it is."""
    shared = []
    for v in values:
        try:
            key = (frozenset(zip(v, v.values(), map(type, v.values()))) if type(v) is dict
                   else (v, type(v)))
            v = known.setdefault(key, v)
        except TypeError:
            pass
        shared.append(v)
    return tuple(shared)


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

def _require_testable(m: MealyMachine, m_bound: int) -> dict[str, tuple]:
    """Refuse a machine or bound no suite is derived for; otherwise return
    the machine's access words, from its one breadth-first search."""
    if not m.complete:
        raise TestGenError("reference machine must be complete")
    access = m.access_words()
    if len(access) < len(m.states):
        raise TestGenError("reference machine has unreachable states")
    if not m.is_minimal(access):
        raise TestGenError("reference machine must be minimal")
    n = len(m.states)
    if m_bound < n:
        raise TestGenError(f"mBound {m_bound} is below the reference state count {n}")
    # the traversal set cover . inputs^{<=k} has n * sum_{i<=k} |I|^i traces;
    # with two inputs or more, depth 20 is past ENUM_BOUND, so none deeper is summed
    k, width = m_bound - n + 1, len(m.inputs)
    depth = k if width < 2 else min(k, ENUM_BOUND.bit_length())
    size = n * (depth + 1 if width == 1 else (width ** (depth + 1) - 1) // (width - 1))
    if size > ENUM_BOUND:
        raise TestGenError(f"mBound {m_bound} needs a traversal set of "
                           f"{'over ' if depth < k else ''}{size} traces; "
                           f"the bound is {ENUM_BOUND}")
    return access


def _trace_key(m: MealyMachine):
    """Sort key of a trace: its inputs' positions in `m.inputs`."""
    index = {x: i for i, x in enumerate(m.inputs)}.__getitem__
    return lambda trace: tuple(map(index, trace))


def _close_prefixes(closure: set[tuple], trace: tuple) -> None:
    for i in range(len(trace) + 1):
        closure.add(trace[:i])


def _to_suite(m: MealyMachine, closure: set[tuple], method: str, m_bound: int) -> TestSuite:
    """The suite of the traces of `closure` that are no other's parent, in
    input order, with the outputs `m` gives along each.

    `closure` is prefix-closed, so those traces are the leaves of its prefix
    tree, and a depth-first walk of the tree that visits each node's
    children in input order meets them in that order.  The walk carries the
    state and the outputs down the tree, so it takes each transition of the
    tree once.
    """
    children: dict[tuple, list[tuple]] = {}
    for t in closure:
        if t:
            children.setdefault(t[:-1], []).append(t)
    index = {x: i for i, x in enumerate(m.inputs)}

    def last_input(t: tuple) -> int:
        return index[t[-1]]

    cases = []
    stack = [((), m.initial, ())]  # (trace, the state it reaches, its outputs)
    while stack:
        trace, state, outputs = stack.pop()
        below = children.get(trace)
        if below is None:
            if trace:
                cases.append(TestCase(trace, outputs))
            continue
        below.sort(key=last_input, reverse=True)  # the first input on top
        for t in below:
            target, y = m.transitions[(state, t[-1])]
            stack.append((t, target, outputs + (y,)))
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
    cover = list(_require_testable(m, m_bound).values())  # a state cover
    n = len(m.states)
    k = m_bound - n + 1
    cover_set = set(cover)

    # traversal set V . inputs^{<=k}, each trace once, in length then input
    # order; the cover is prefix-closed, so the traversal set is too and
    # starts the closure
    closure = {v + word for v in cover for length in range(k + 1)
               for word in product(m.inputs, repeat=length)}
    key = _trace_key(m)
    traversal = sorted(closure, key=lambda t: (len(t), key(t)))
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
    # (c) each traversal trace against its non-empty proper prefixes; the
    # traversal set is prefix-closed, so these are all pairs of distinct
    # non-empty prefixes of a traversal trace
    for beta in traversal:
        for i in range(1, len(beta)):
            ensure_distinguished(beta[:i], beta)

    return _to_suite(m, closure, "h", m_bound)


# ---------------------------------------------------------------------------
# W-Method
# ---------------------------------------------------------------------------

def characterization_set(m: MealyMachine) -> list[tuple]:
    """Trace set distinguishing every pair of states, greedily accumulated.

    `m` must be complete and minimal, as `w_method` requires before it asks.
    """
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
    cover = list(_require_testable(m, m_bound).values())  # a state cover
    n = len(m.states)
    k = m_bound - n + 1
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

    # own breadth-first state cover, in discovery order: by length, then
    # input order
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
    cover = list(access.values())

    for v in cover:
        if v not in suite_traces:
            report.violations.append(f"H1: cover trace {v} missing")

    # the traversal set V . inputs^{<=k}, each trace once, in first-occurrence
    # order; H2: each cover trace extended by k inputs is in the suite
    traversal: dict[tuple, None] = {}
    for v in cover:
        for length in range(k + 1):
            for word in product(m.inputs, repeat=length):
                traversal[v + word] = None
                if length == k and v + word not in suite_traces:
                    report.violations.append(f"H2: traversal trace {v + word} missing")

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
        for beta in traversal:
            if beta in cover_set:
                continue
            if not distinguished_in_suite(alpha, beta):
                report.violations.append(f"H3(b): pair ({alpha}, {beta}) not distinguished")
    # the traversal set is prefix-closed: a trace against each of its
    # non-empty proper prefixes covers every pair of prefixes of a trace
    for beta in traversal:
        for i in range(1, len(beta)):
            if not distinguished_in_suite(beta[:i], beta):
                report.violations.append(
                    f"H3(c): prefix {beta[:i]} of {beta} not distinguished")
    return report
