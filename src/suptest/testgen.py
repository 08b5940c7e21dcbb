"""Complete conformance test suites: H-Method, W-Method, completeness check.

Suites store only maximal input traces; every prefix is implicitly part of
the suite because the harness checks all intermediate outputs.  The
generator takes its state cover from `MealyMachine.access_words` and its
distinguishing suffixes from `MealyMachine.distinguishing_trace`.  Generator
and checker each list the traversal set once, and check condition H3(c) per
(prefix, trace) pair: a traversal trace against each of its non-empty proper
prefixes, which covers every pair of prefixes of a traversal trace because
the set is prefix-closed.

Each decides a pair of traces by bitmasks over the inputs, input i being
bit i.  A trace of the prefix-closed trace set (the generator's closure,
kept current as suffixes are added, or the checker's suite) has the mask of
the inputs that extend it in the set, and an ordered pair of states has the
masks of the inputs on which their outputs differ and on which their
targets differ.  A pair of traces that reaches two states is told apart by
one input iff its two trace masks and the output mask of its states share a
bit.  Only a pair that fails this test walks on, along the common inputs
that keep the states apart.

The completeness checker takes its cover from its own breadth-first search,
in discovery order, and shares only `_require_testable`, which refuses an
untestable machine, with the generator.  It re-verifies the H-conditions
with its own masks and walk of the suite's trace set, written apart from the
generator's of its closure, so generator and checker cannot mask each
other's faults.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import product

from .encoding import encode_compact, is_wire_valuation, value_at
from .fsm import MealyMachine
from .guards import ENUM_BOUND, Record


# Cases encoded into one text part of a suite's artefact
CASES_PER_PART = 128


class TestGenError(Exception):
    __test__ = False  # not a pytest class


class TestCase(Record):
    __test__ = False  # not a pytest class
    __slots__ = ("inputs", "expected")
    inputs: tuple
    expected: tuple

    def __init__(self, inputs, expected):
        # built once per case: each field is set directly, unchecked
        _set_inputs(self, inputs)
        _set_expected(self, expected)


_set_inputs, _set_expected = TestCase.inputs.__set__, TestCase.expected.__set__


class TestSuite(Record):
    __test__ = False  # not a pytest class
    __slots__ = ("cases", "method", "m_bound", "concrete")
    _defaults = {"concrete": False}
    __hash__ = None
    cases: list[TestCase]
    method: str  # "h" | "w"
    m_bound: int
    concrete: bool

    def to_obj(self) -> dict:
        return self._document([
            {"inputs": list(c.inputs), "expectedOutputs": list(c.expected)}
            for c in self.cases
        ])

    def to_artifact(self) -> dict:
        """`to_obj()` for `cli.write_artifact`, with the cases given lazily
        as the parts of their encoding, `CASES_PER_PART` a part."""
        return self._document(self._case_parts())

    def _case_parts(self) -> Iterator[str]:
        """A suite repeats few inputs and outputs over many steps, so each
        distinct object among them is encoded once.  The cases hold every
        such object while this runs, so no id is reused."""
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

        cases = self.cases
        yield "["
        for start in range(0, len(cases), CASES_PER_PART):
            # a case's keys in sorted order, as the canonical encoding puts them
            part = ",".join(['{"expectedOutputs":[%s],"inputs":[%s]}'
                             % (listed(c.expected), listed(c.inputs))
                             for c in cases[start:start + CASES_PER_PART]])
            yield ("," if start else "") + part
        yield "]"

    def _document(self, cases) -> dict:
        return {"method": self.method, "mBound": self.m_bound,
                "concrete": self.concrete, "cases": cases}

    @classmethod
    def from_obj(cls, obj: dict) -> "TestSuite":
        """The suite of the document `obj`, as `json` reads it, checked.

        A concrete suite's inputs are valuations the wire can carry, and its
        expected outputs such valuations or null; an abstract suite's inputs
        and outputs are symbols, strings.  The suite is shaped like one that
        `sfsm.concretize_suite` builds: inputs and outputs that are equal in
        value and type are one object, so the harness encodes each distinct
        input once, and the reader checks each once.  `1` and `True` stay two
        objects.  So, as for a concretized suite, no one may change a
        valuation of the suite.
        """
        concrete = value_at(obj, "concrete", bool, default=False)
        # one `known` serves inputs and outputs: their tests differ only on
        # null, which is one object, and so is tested wherever it is met
        (inputs_are, outputs_are), known = _VALUES[concrete], {}
        cases = []
        for i, c in enumerate(value_at(obj, "cases", list, dict)):
            try:
                inputs = value_at(c, "inputs", list)
                expected = value_at(c, "expectedOutputs", list)
            except ValueError as exc:
                raise TestGenError(f"case {i}: {exc}") from None
            if len(inputs) != len(expected):
                raise TestGenError(f"case {i} has {len(inputs)} inputs but "
                                   f"{len(expected)} expected outputs")
            cases.append(TestCase(_shared(inputs, known, inputs_are, i, "inputs"),
                                  _shared(expected, known, outputs_are, i, "expectedOutputs")))
        return cls(cases, value_at(obj, "method", ("h", "w")), value_at(obj, "mBound", int),
                   concrete)


# What the inputs and the expected outputs of a suite must be, by whether it
# is concrete: what a refusal calls it, and its test.  A symbol with a line
# break would go out on the wire as several lines, or never come back.
_VALUES = {
    True: (("a valuation of strings and integers", is_wire_valuation),
           ("a valuation of strings and integers or null",
            lambda v: v is None or is_wire_valuation(v))),
    False: (("a string without a line break",
             lambda v: type(v) is str and "\n" not in v and "\r" not in v),) * 2,
}


def _shared(values: list, known: dict, want: tuple, i: int, key: str) -> tuple:
    """`values`, the list `key` of case `i`, each replaced by the first
    value of `known` equal to it in value and type; a value met for the
    first time is added to `known` and refused unless `want`, (what a
    refusal calls it, its test), accepts it.  A valuation is known by its
    names, their values and the values' types, in any order.  A value that
    cannot be hashed is neither a symbol nor a valuation."""
    shared = []
    for v in values:
        try:
            first = known.setdefault(frozenset(zip(v, v.values(), map(type, v.values())))
                                     if type(v) is dict else (v, type(v)), v)
        except TypeError:
            first = v
        if first is v and not want[1](v):  # met for the first time, and refused
            j = [w is v for w in values].index(True)
            raise ValueError(f"cases[{i}].{key}[{j}] must be {want[0]}, got {v!r}")
        shared.append(first)
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


def _close_prefixes(closure: dict[tuple, int], trace: tuple, bit: dict) -> None:
    """Add `trace` and its prefixes to `closure`, a prefix-closed trace set
    that maps each trace to the mask of the inputs (`bit` of each) that
    extend it in the set."""
    if trace in closure:
        return
    closure[trace] = 0
    for i in range(len(trace) - 1, -1, -1):
        prefix = trace[:i]
        if prefix in closure:  # and so are its prefixes, with their masks
            closure[prefix] |= bit[trace[i]]
            return
        closure[prefix] = bit[trace[i]]


def _to_suite(m: MealyMachine, closure: dict[tuple, int], method: str,
              m_bound: int) -> TestSuite:
    """The suite of the traces of `closure` that no input extends, in input
    order, with the outputs `m` gives along each.

    `closure` is a prefix-closed set, each trace with the mask of its
    children's last inputs, so those traces are the leaves of its prefix
    tree, and a depth-first walk of the tree that visits each node's
    children in input order meets them in that order.  The walk carries the
    state and the outputs down the tree, so it takes each transition of the
    tree once.
    """
    inputs = m.inputs
    cases = []
    stack = [((), m.initial, ())]  # (trace, the state it reaches, its outputs)
    while stack:
        trace, state, outputs = stack.pop()
        below = closure[trace]
        if not below:
            if trace:
                cases.append(TestCase(trace, outputs))
            continue
        while below:  # the last input first, so the first is on top
            i = below.bit_length() - 1
            below ^= 1 << i
            target, y = m.transitions[(state, inputs[i])]
            stack.append((trace + (inputs[i],), target, outputs + (y,)))
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
    k = m_bound - len(m.states) + 1
    cover_set = set(cover)
    inputs = m.inputs
    bit = {x: 1 << i for i, x in enumerate(inputs)}
    # states by number; step[s][i] is the target of state s on the i-th
    # input, and differ[s][t] and split[s][t] are the masks of the inputs on
    # which s and t give different outputs and go to different states
    number = {s: i for i, s in enumerate(m.states)}
    rows = [[m.transitions[(s, x)] for x in inputs] for s in m.states]
    step = [[number[t] for t, _ in row] for row in rows]
    differ = [[sum(1 << i for i, (u, v) in enumerate(zip(a, b)) if u[1] != v[1])
               for b in rows] for a in rows]
    split = [[sum(1 << i for i, (u, v) in enumerate(zip(a, b)) if u[0] != v[0])
              for b in rows] for a in rows]

    # the traversal set V . inputs^{<=k}, breadth first with each trace's
    # children in input order, so by length, then input order.  A trace is
    # in it iff it has at most k inputs past its longest prefix in the
    # cover, which is prefix-closed; the traversal set is too, and starts
    # the closure, which maps each trace to the mask of its children's
    # inputs.  Each trace's state is one step from its parent's.
    closure: dict[tuple, int] = {}
    reached = {(): number[m.initial]}
    traversal = []
    layer = [((), 0)]  # (trace, inputs past its longest cover prefix)
    while layer:
        deeper = []
        for t, past in layer:
            s, mask = reached[t], 0
            for i, x in enumerate(inputs):
                u = t + (x,)
                if u in cover_set:
                    deeper.append((u, 0))
                elif past < k:
                    deeper.append((u, past + 1))
                else:
                    continue
                mask |= 1 << i
                reached[u] = step[s][i]
            closure[t] = mask
            traversal.append(t)
        layer = deeper
    gammas: dict[tuple[int, int], tuple | None] = {}  # m.distinguishing_trace per state pair

    def apart(alpha: tuple, beta: tuple, sa: int, sb: int) -> bool:
        # whether a common extension of alpha and beta in the closure, which
        # reach sa != sb, tells them apart: one input of both masks that
        # gives two outputs does; else follow the inputs that keep the states
        # apart, as once the states meet no output differs.  A stack, not
        # recursion: a function that calls itself is a reference cycle, which
        # would keep the closure alive after h_method returns
        stack = [(alpha, beta, sa, sb)]
        while stack:
            alpha, beta, sa, sb = stack.pop()
            common = closure[alpha] & closure[beta]
            if common & differ[sa][sb]:
                return True
            walk = common & split[sa][sb]
            while walk:
                low = walk & -walk
                walk ^= low
                i = low.bit_length() - 1
                x = (inputs[i],)
                stack.append((alpha + x, beta + x, step[sa][i], step[sb][i]))
        return False

    def distinguish(alpha: tuple, beta: tuple, sa: int, sb: int) -> None:
        if apart(alpha, beta, sa, sb):
            return
        if (sa, sb) not in gammas:
            gammas[(sa, sb)] = m.distinguishing_trace(m.states[sa], m.states[sb])
        gamma = gammas[(sa, sb)]
        if gamma is None:  # minimal machine: cannot happen
            raise TestGenError(f"states {m.states[sa]!r} and {m.states[sb]!r} "
                               f"are not distinguishable")
        _close_prefixes(closure, alpha + gamma, bit)
        _close_prefixes(closure, beta + gamma, bit)

    # each loop below tests a pair with one input first: a pair that reaches
    # one state, or that one common input tells apart, needs no walk
    # (a) pairs within the state cover, which reach different states
    for i, alpha in enumerate(cover):
        for beta in cover[i + 1:]:
            distinguish(alpha, beta, reached[alpha], reached[beta])
    # (b) cover trace against proper traversal extension
    for alpha in cover:
        sa, kids, row = reached[alpha], closure[alpha], differ[reached[alpha]]
        for beta in traversal:
            sb = reached[beta]
            if sa == sb or kids & closure[beta] & row[sb] or beta in cover_set:
                continue
            distinguish(alpha, beta, sa, sb)
            kids = closure[alpha]
    # (c) each traversal trace against its non-empty proper prefixes; the
    # traversal set is prefix-closed, so these are all pairs of distinct
    # non-empty prefixes of a traversal trace
    for beta in traversal:
        sb, kids = reached[beta], closure[beta]
        for i in range(1, len(beta)):
            alpha = beta[:i]
            sa = reached[alpha]
            if sa == sb or kids & closure[alpha] & differ[sa][sb]:
                continue
            distinguish(alpha, beta, sa, sb)
            kids = closure[beta]

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
    bit = {x: 1 << i for i, x in enumerate(m.inputs)}
    closure: dict[tuple, int] = {}
    for v in cover:
        for length in range(k + 1):
            for word in product(m.inputs, repeat=length):
                for u in w:
                    _close_prefixes(closure, v + word + u, bit)
    return _to_suite(m, closure, "w", m_bound)


# ---------------------------------------------------------------------------
# Orthogonal completeness checker
# ---------------------------------------------------------------------------

class CompletenessReport(Record):
    __slots__ = ("violations",)
    _defaults = {"violations": ()}
    __hash__ = None
    violations: list[str]

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
    report = CompletenessReport([])
    n = len(m.states)
    k = m_bound - n + 1

    for case in ts.cases:  # refuses an input outside the alphabet
        expected, _ = m.run(case.inputs)
        if expected != case.expected:
            report.violations.append(
                f"expected outputs of case {case.inputs} disagree with the reference"
            )
    # the suite as a prefix-closed trace set: each trace maps to the mask of
    # the inputs that extend it in the suite, input i having bit i
    position = {x: i for i, x in enumerate(m.inputs)}
    extended_by: dict[tuple, int] = {(): 0}
    for case in ts.cases:
        trace = case.inputs
        if trace in extended_by:
            continue
        extended_by[trace] = 0
        for i in reversed(range(len(trace))):
            mask = 1 << position[trace[i]]
            if trace[:i] in extended_by:  # its prefixes are in the set too
                extended_by[trace[:i]] |= mask
                break
            extended_by[trace[:i]] = mask

    # state numbers, and for each pair of states the masks of the inputs on
    # which their outputs differ and on which their targets differ
    index = {s: i for i, s in enumerate(m.states)}
    target = [[index[m.transitions[(s, x)][0]] for x in m.inputs] for s in m.states]
    output = [[m.transitions[(s, x)][1] for x in m.inputs] for s in m.states]
    widths = range(len(m.inputs))
    outputs_differ = [[sum(1 << i for i in widths if ya[i] != yb[i]) for yb in output]
                      for ya in output]
    targets_differ = [[sum(1 << i for i in widths if ta[i] != tb[i]) for tb in target]
                      for ta in target]

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
        if v not in extended_by:
            report.violations.append(f"H1: cover trace {v} missing")

    # the traversal set V . inputs^{<=k}, each trace once, in first-occurrence
    # order, with the number of the state it reaches; H2: each cover trace
    # extended by k inputs is in the suite
    traversal: dict[tuple, int] = {}
    for v, s in zip(cover, access):
        traversal[v] = index[s]
        for length in range(1, k + 1):
            for word in product(m.inputs, repeat=length):
                t = v + word
                traversal[t] = target[traversal[t[:-1]]][position[word[-1]]]
                if length == k and t not in extended_by:
                    report.violations.append(f"H2: traversal trace {t} missing")

    def distinguished_in_suite(alpha: tuple, beta: tuple, sa: int, sb: int) -> bool:
        pending = [(alpha, beta, sa, sb)]  # common suffixes, extended while states differ
        while pending:
            a, b, sa, sb = pending.pop()
            common = extended_by.get(a, 0) & extended_by.get(b, 0)
            if common & outputs_differ[sa][sb]:
                return True
            apart = common & targets_differ[sa][sb]
            while apart:
                i = apart.bit_length() - 1
                apart ^= 1 << i
                x = (m.inputs[i],)
                pending.append((a + x, b + x, target[sa][i], target[sb][i]))
        return False

    # a pair that reaches one state, or that one common input tells apart,
    # is decided before any walk
    cover_set = set(cover)
    for i, alpha in enumerate(cover):
        for beta in cover[i + 1:]:
            if not distinguished_in_suite(alpha, beta, traversal[alpha], traversal[beta]):
                report.violations.append(f"H3(a): pair ({alpha}, {beta}) not distinguished")
    for alpha in cover:
        sa, row = traversal[alpha], outputs_differ[traversal[alpha]]
        mask = extended_by.get(alpha, 0)
        for beta, sb in traversal.items():
            if sa == sb or mask & extended_by.get(beta, 0) & row[sb] or beta in cover_set:
                continue
            if not distinguished_in_suite(alpha, beta, sa, sb):
                report.violations.append(f"H3(b): pair ({alpha}, {beta}) not distinguished")
    # the traversal set is prefix-closed: a trace against each of its
    # non-empty proper prefixes covers every pair of prefixes of a trace
    for beta, sb in traversal.items():
        mask = extended_by.get(beta, 0)
        for i in range(1, len(beta)):
            sa = traversal[beta[:i]]
            if sa == sb or mask & extended_by.get(beta[:i], 0) & outputs_differ[sa][sb]:
                continue
            if not distinguished_in_suite(beta[:i], beta, sa, sb):
                report.violations.append(
                    f"H3(c): prefix {beta[:i]} of {beta} not distinguished")
    return report
