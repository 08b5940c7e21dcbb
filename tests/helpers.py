"""Shared fixtures and independent oracles for the test suite.

The brute-force functions here deliberately reimplement semantics by plain
enumeration so they can serve as oracles for the production code paths.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import make_dataclass
from itertools import product

from suptest.encoding import decode_valuation, encode_step
from suptest.fsm import MealyMachine
from suptest.guards import (
    EnumSort, IntSort, VarDecl, check_valuation, enumerate_valuations, eval_guard,
)
from suptest.sfsm import DeterminismViolation, Sfsm, SfsmTransition
from suptest.guards import And, BoolConst, Comparison, Not, Or, Record
from suptest.program import interpret_step, risk_state_name
from suptest.testgen import CompletenessReport, _require_testable, _trace_key


def m0() -> MealyMachine:
    """Two-state reference machine used across the docs and tests."""
    return MealyMachine(
        states=["s0", "s1"],
        initial="s0",
        inputs=["a", "b"],
        outputs=["0", "1"],
        transitions={
            ("s0", "a"): ("s1", "1"),
            ("s0", "b"): ("s0", "0"),
            ("s1", "a"): ("s0", "0"),
            ("s1", "b"): ("s1", "1"),
        },
    )


def brute_outputs(m: MealyMachine, word) -> tuple:
    """Hand-rolled run: follow the map symbol by symbol."""
    state = m.initial
    outputs = []
    for x in word:
        state, y = m.transitions[(state, x)]
        outputs.append(y)
    return tuple(outputs)


def brute_equivalent(m1: MealyMachine, m2: MealyMachine, max_len: int) -> bool:
    """Exhaustive word enumeration up to max_len; the equivalence oracle's
    oracle.  For product state counts below max_len this is exact."""
    for length in range(1, max_len + 1):
        for word in product(m1.inputs, repeat=length):
            if brute_outputs(m1, word) != brute_outputs(m2, word):
                return False
    return True


def brute_distinguishable(m: MealyMachine, s: str, t: str, max_len: int) -> bool:
    for length in range(1, max_len + 1):
        for word in product(m.inputs, repeat=length):
            state1, state2 = s, t
            for x in word:
                state1, y1 = m.transitions[(state1, x)]
                state2, y2 = m.transitions[(state2, x)]
                if y1 != y2:
                    break
            else:
                continue
            return True
    return False


def brute_first_difference(m1: MealyMachine, s1: str, m2: MealyMachine, s2: str,
                           max_len: int) -> tuple | None:
    """The first word, by length and then input order, on which the runs
    of m1 from s1 and of m2 from s2 give different outputs; None if no word
    up to max_len does."""
    def outputs(m, state, word):
        out = []
        for x in word:
            state, y = m.transitions[(state, x)]
            out.append(y)
        return out

    for length in range(1, max_len + 1):
        for word in product(m1.inputs, repeat=length):
            if outputs(m1, s1, word) != outputs(m2, s2, word):
                return word
    return None


def brute_access_words(m: MealyMachine) -> list[tuple[str, tuple]]:
    """(state, word) for each state some word reaches, in order of the first
    word, by length and then input order, that reaches it."""
    found = {m.initial: ()}
    for length in range(1, len(m.states)):
        for word in product(m.inputs, repeat=length):
            state = m.initial
            for x in word:
                if (state, x) not in m.transitions:
                    break
                state = m.transitions[(state, x)][0]
            else:
                found.setdefault(state, word)
    return list(found.items())


def random_machine(rng: random.Random, n: int, n_inputs: int, n_outputs: int,
                   max_tries: int = 200) -> MealyMachine:
    """Random complete, reachable, minimal machine with exactly n states."""
    if n > 1 and n_outputs < 2:
        n_outputs = 2  # a multi-state machine needs two outputs to be minimal
    inputs = [chr(ord("a") + i) for i in range(n_inputs)]
    outputs = [str(i) for i in range(n_outputs)]
    for _ in range(max_tries):
        states = [f"s{i}" for i in range(n)]
        transitions = {}
        feasible = True
        # spanning edges first: state i gets an inbound edge from some j < i
        for i in range(1, n):
            free = [
                (j, x) for j in range(i) for x in inputs
                if (states[j], x) not in transitions
            ]
            if not free:
                feasible = False
                break
            j, x = rng.choice(free)
            transitions[(states[j], x)] = (states[i], rng.choice(outputs))
        if not feasible:
            continue
        for s in states:
            for x in inputs:
                if (s, x) not in transitions:
                    transitions[(s, x)] = (rng.choice(states), rng.choice(outputs))
        m = MealyMachine(states, "s0", inputs, outputs, transitions)
        if len(m.reachable_states()) != n:
            continue
        if m.is_minimal():
            return m
    raise RuntimeError(f"could not generate a minimal {n}-state machine")


def random_sfsm(rng: random.Random) -> Sfsm:
    """Random deterministic, complete SFSM within the enumeration bound.

    Guards are built as disjunctions of input-class conjuncts over a random
    atom set, so per-state disjointness and completeness hold by
    construction.
    """
    decls = []
    n_vars = rng.randint(1, 3)
    for i in range(n_vars):
        if rng.random() < 0.5:
            decls.append(VarDecl(f"x{i}", IntSort(0, rng.randint(1, 3))))
        else:
            size = rng.randint(2, 3)
            decls.append(VarDecl(f"e{i}", EnumSort(tuple("uvw"[:size]))))
    out_decls = [VarDecl("y", IntSort(0, rng.randint(1, 2)), "controlled")]

    atoms = []
    for d in decls:
        if isinstance(d.sort, IntSort):
            atoms.append(Comparison(d.name, rng.choice(["<", "<=", ">", ">="]),
                                    rng.randint(d.sort.lo, d.sort.hi)))
        else:
            atoms.append(Comparison(d.name, "=", rng.choice(d.sort.literals)))
    atoms = atoms[: rng.randint(1, len(atoms))]

    def conjunct(signature):
        g = None
        for atom, positive in zip(atoms, signature):
            term = atom if positive else Not(atom)
            g = term if g is None else And(g, term)
        return g if g is not None else BoolConst(True)

    signatures = []
    for v in enumerate_valuations(decls):
        sig = tuple(eval_guard(a, v) for a in atoms)
        if sig not in signatures:
            signatures.append(sig)

    n_states = rng.randint(1, 4)
    states = [f"r{i}" for i in range(n_states)]
    outputs = [{"y": y} for y in out_decls[0].sort.values()]
    transitions = []
    for s in states:
        # group the classes randomly; one transition per group
        groups: dict[tuple, list] = {}
        for sig in signatures:
            key = (rng.choice(states), rng.randrange(len(outputs)))
            groups.setdefault(key, []).append(sig)
        for (target, out_index), sigs in groups.items():
            guard = None
            for sig in sigs:
                c = conjunct(sig)
                guard = c if guard is None else Or(guard, c)
            transitions.append(
                SfsmTransition(s, f"t{len(transitions)}", guard,
                               outputs[out_index], target)
            )
    return Sfsm(decls, out_decls, states, states[0], transitions)


def class_of(partition, v, parsed_guards):
    """The class of `partition` whose signature is the truth of
    `parsed_guards` on the valuation `v`."""
    sig = tuple(eval_guard(g, v) for g in parsed_guards)
    for c in partition.classes:
        if c.signature == sig:
            return c
    raise AssertionError(f"no class for valuation {encode_step(v)}")


def valuation_truth_classes(guards, decls) -> list[tuple[tuple[bool, ...], dict, int]]:
    """(signature, least member, size) of each truth class of `guards`, in
    order of least member, found by walking every valuation: the oracle
    for `guards.truth_classes`, which walks one valuation per cell product."""
    classes: dict[tuple[bool, ...], list] = {}
    for v in enumerate_valuations(decls):
        sig = tuple(eval_guard(g, v) for g in guards)
        classes.setdefault(sig, [v, 0])[1] += 1
    return [(sig, rep, size) for sig, (rep, size) in classes.items()]


def valuation_determinism(p) -> None:
    """Walk every input valuation once per risk state with two or more
    actions, raising DeterminismViolation at the first that enables two:
    the oracle for the per-class check of `supervisor.to_guarded_actions`."""
    by_source: dict[tuple, list] = {}
    for a in p.actions:
        by_source.setdefault(a.source, []).append(a)
    for source, actions in by_source.items():
        if len(actions) < 2:
            continue
        for v in enumerate_valuations(p.input_vars):
            enabled = [a for a in actions if eval_guard(a.guard, v)]
            if len(enabled) > 1:
                raise DeterminismViolation(risk_state_name(dict(source), p.factors), v, enabled)


def valuation_program_equivalent(p1, p2) -> bool:
    """Product traversal that steps both programs on every input valuation:
    the oracle for `mutation.program_equivalent`, which steps on one
    representative per truth class."""
    inputs = list(enumerate_valuations(p1.input_vars))
    start = (tuple(sorted(p1.initial.items())), tuple(sorted(p2.initial.items())))
    seen = {start}
    queue = deque([start])
    while queue:
        r1, r2 = queue.popleft()
        for v in inputs:
            o1, n1 = interpret_step(p1, v, dict(r1))
            o2, n2 = interpret_step(p2, v, dict(r2))
            if o1 != o2:
                return False
            pair = (tuple(sorted(n1.items())), tuple(sorted(n2.items())))
            if pair not in seen:
                seen.add(pair)
                queue.append(pair)
    return True


def plain_verdicts(target, ts) -> list[tuple]:
    """(status, step, observed) per case of `ts`, run by a plain loop over
    `brute_outputs` for a machine or `interpret_step` for a program, whose
    inputs are checked against its declaration as the reference SUT checks
    them: the oracle for the harness's shared case loop."""
    results = []
    for case in ts.cases:
        if isinstance(target, MealyMachine):
            observed = brute_outputs(target, case.inputs)
        else:
            r, observed = dict(target.initial), []
            try:
                for v, expected in zip(case.inputs, case.expected):
                    check_valuation(v, target.input_vars)
                    o, r = interpret_step(target, v, r)
                    observed.append(o)
                    if o != expected:
                        break
            except Exception:
                results.append(("ERROR", None, None))
                continue
        step = next((i for i, (o, e) in enumerate(zip(observed, case.expected)) if o != e),
                    None)
        results.append(("PASS", None, None) if step is None else ("FAIL", step, observed[step]))
    return results


def stepwise_replies(program, lines) -> list[str]:
    """The reference SUT's reply to each protocol line, worked out line by
    line with no memo: decode, check, `interpret_step` and encode.  The
    oracle for `program.serve_reference`, which answers a repeated step
    from its memo."""
    r, replies = dict(program.initial), []
    for line in lines:
        line = line.strip()
        if not line:
            continue
        if line == "RESET":
            r = dict(program.initial)
            replies.append("READY")
        elif line.startswith("IN "):
            try:
                v = decode_valuation(line[3:])
                if v is None:
                    raise ValueError("nil is not a valid input")
                check_valuation(v, program.input_vars)
                output, r = interpret_step(program, v, r)
            except Exception as exc:
                replies.append(f"ERR {exc}")
            else:
                replies.append("OUT " + encode_step(output))
        else:
            replies.append(f"ERR unknown command {line!r}")
    return replies


def scan_check_h_completeness(m: MealyMachine, m_bound: int, ts) -> CompletenessReport:
    """H-completeness check that decides each trace pair by scanning the
    whole suite trace set for a common distinguishing suffix: the oracle
    for the joint walk of `testgen.check_h_completeness`."""
    _require_testable(m, m_bound)
    report = CompletenessReport()
    n = len(m.states)
    k = m_bound - n + 1

    suite_traces: set[tuple] = {()}
    for case in ts.cases:
        expected, _ = m.run(case.inputs)
        if expected != case.expected:
            report.violations.append(
                f"expected outputs of case {case.inputs} disagree with the reference"
            )
        for i in range(len(case.inputs) + 1):
            suite_traces.add(tuple(case.inputs[:i]))

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

    def distinguished_in_suite(alpha: tuple, beta: tuple) -> bool:
        sa = m.run(alpha)[1]
        sb = m.run(beta)[1]
        if sa == sb:
            return True
        for t in suite_traces:
            if len(t) <= len(alpha) or t[:len(alpha)] != alpha:
                continue
            gamma = t[len(alpha):]
            if beta + gamma not in suite_traces:
                continue
            if m.run_from(sa, gamma)[0] != m.run_from(sb, gamma)[0]:
                return True
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


# ---------------------------------------------------------------------------
# Frozen-dataclass twins of the `Record` value classes
# ---------------------------------------------------------------------------

def _check_enum_sort(self):
    if not self.literals:
        raise ValueError("empty enumeration sort")
    if len(set(self.literals)) != len(self.literals):
        raise ValueError(f"duplicate enumeration literals: {self.literals}")


def _check_int_sort(self):
    if self.lo > self.hi:
        raise ValueError(f"empty integer range [{self.lo}, {self.hi}]")


def _check_var_decl(self):
    if self.kind not in ("monitored", "controlled", "factor"):
        raise ValueError(f"unknown variable kind: {self.kind}")
    if self.kind == "factor" and self.sort != TWINS["EnumSort"](("0", "a", "m")):
        raise ValueError(f"factor variable {self.name} must have the phase sort")


def _twin(name, fields, check=None, hashable=True):
    namespace = {} if check is None else {"__post_init__": check}
    if not hashable:
        namespace["__hash__"] = None  # kept by dataclass(), as an explicit hash
    return make_dataclass(name, fields, namespace=namespace, frozen=True)


# The guard language's and the program's value classes as frozen
# dataclasses, with the validation they had as such: the oracle for what
# `Record` gives them.  A twin has its class's name, so reprs compare.
TWINS = {twin.__name__: twin for twin in [
    _twin("EnumSort", ["literals"], _check_enum_sort),
    _twin("IntSort", ["lo", "hi"], _check_int_sort),
    _twin("VarDecl", ["name", "sort", ("kind", str, "monitored")], _check_var_decl),
    _twin("BoolConst", ["value"]),
    _twin("Comparison", ["var", "op", "literal"]),
    _twin("Not", ["operand"]),
    _twin("And", ["left", "right"]),
    _twin("Or", ["left", "right"]),
    _twin("GuardedAction", ["name", "guard", "source", "output", "target"]),
    _twin("GuardedActionProgram", [
        "input_vars", "output_vars", "factors", "initial", "actions",
        ("policy", str, "error"), ("resolution", str, "strict")], hashable=False),
]}


def twin_of(x):
    """`x` with every `Record` in it, however nested in lists and tuples,
    rebuilt as its twin from the same field values."""
    if isinstance(x, Record):
        return TWINS[type(x).__name__](*(twin_of(getattr(x, f)) for f in x.__slots__))
    if isinstance(x, (list, tuple)):
        return type(x)(twin_of(item) for item in x)
    return x
