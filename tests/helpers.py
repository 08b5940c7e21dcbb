"""Shared fixtures and independent oracles for the test suite.

The brute-force functions here deliberately reimplement semantics by plain
enumeration so they can serve as oracles for the production code paths.
"""

from __future__ import annotations

import hashlib
import random
import tempfile
from collections import deque
from collections.abc import Iterator
from dataclasses import make_dataclass
from glob import glob
from itertools import product
from pathlib import Path

from suptest.cli import write_artifact
from suptest.encoding import decode_valuation, encode_compact, encode_step
from suptest.fsm import MealyMachine
from suptest.guards import (
    EnumSort, IntSort, VarDecl, check_valuation, decl_from_obj, enumerate_valuations, eval_guard,
    parse_guard,
)
from suptest.sfsm import (
    NIL_LABEL, POLICY_ERROR, POLICY_SELFLOOP, AbstractionMap, DeterminismViolation,
    IncompleteState, Sfsm, SfsmTransition, input_classes,
)
from suptest.guards import And, BoolConst, Comparison, Not, Or, Record
from suptest.program import GuardedAction, GuardedActionProgram, risk_state_name
from suptest.supervisor import derive_action_name
from suptest.testgen import CompletenessReport, TestCase, TestSuite, _require_testable


def child_pids() -> set[int]:
    """The pids of this process's children, running or exited and not yet
    reaped, read from /proc, so that no child is reaped here; empty where
    /proc does not list children."""
    pids = set()
    for path in glob("/proc/self/task/*/children"):
        try:
            with open(path) as f:
                pids.update(map(int, f.read().split()))
        except FileNotFoundError:  # the thread has ended
            pass
    return pids


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


def recursive_valuations(decls) -> list[dict]:
    """All valuations, lexicographic over declaration order and sort order,
    by a recursive walk over one shared accumulator: the oracle for
    `guards.enumerate_valuations`, which walks `itertools.product`."""
    def rec(i: int, acc: dict):
        if i == len(decls):
            yield dict(acc)
            return
        d = decls[i]
        for value in d.sort.values():
            acc[d.name] = value
            yield from rec(i + 1, acc)
        del acc[d.name]

    return list(rec(0, {}))


def indexed_state_partition(m: MealyMachine) -> list[list[str]]:
    """Partition refinement that keeps each block's position in a hand-kept
    index: the oracle for `MealyMachine.state_partition`, which groups by
    dict insertion order."""
    index = {}
    blocks: list[list[str]] = []
    for s in m.states:
        row = tuple(m.transitions[(s, x)][1] for x in m.inputs)
        if row not in index:
            index[row] = len(blocks)
            blocks.append([])
        blocks[index[row]].append(s)
    while True:
        block_of = {s: i for i, b in enumerate(blocks) for s in b}
        new_blocks: list[list[str]] = []
        new_index = {}
        for i, b in enumerate(blocks):
            for s in b:
                sig = (i, tuple(block_of[m.transitions[(s, x)][0]] for x in m.inputs))
                if sig not in new_index:
                    new_index[sig] = len(new_blocks)
                    new_blocks.append([])
                new_blocks[new_index[sig]].append(s)
        if len(new_blocks) == len(blocks):
            return blocks
        blocks = new_blocks


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


def transition_abstract_to_fsm(r: Sfsm, policy: str = POLICY_ERROR):
    """`sfsm.abstract_to_fsm` as it was when `Sfsm.step` returned the
    enabled transition: the oracle for the abstraction that tabulates
    (target, output) through the SFSM's behaviour step."""
    def enabled_transition(state, v):
        enabled = [t for t in r.transitions if t.source == state and eval_guard(t.guard, v)]
        if len(enabled) > 1:
            raise DeterminismViolation(state, v, enabled)
        return enabled[0] if enabled else None

    partition = input_classes(r)
    distinct_outputs = sorted(
        {encode_step(t.output) for t in r.transitions if t.output is not None}
    )
    label_of = {text: f"o{i}" for i, text in enumerate(distinct_outputs)}
    label_to_output = {}
    for t in r.transitions:
        if t.output is not None:
            label_to_output[label_of[encode_step(t.output)]] = t.output

    outputs = [f"o{i}" for i in range(len(distinct_outputs))]
    transitions = {}
    needs_nil = False
    incomplete = None
    for state in r.states:
        for c in partition.classes:
            t = enabled_transition(state, c.representative)
            if t is not None:
                label = NIL_LABEL if t.output is None else label_of[encode_step(t.output)]
                if t.output is None:
                    needs_nil = True
                transitions[(state, c.id)] = (t.target, label)
            elif policy == POLICY_SELFLOOP:
                transitions[(state, c.id)] = (state, NIL_LABEL)
                needs_nil = True
            elif incomplete is None:
                incomplete = IncompleteState(state, c.representative)
    if incomplete is not None:
        raise incomplete
    if needs_nil:
        outputs.append(NIL_LABEL)
        label_to_output[NIL_LABEL] = None

    machine = MealyMachine(
        r.states, r.initial, [c.id for c in partition.classes], outputs, transitions
    )
    amap = AbstractionMap(
        {c.id: c.representative for c in partition.classes}, label_to_output
    )
    return machine, amap


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


def unpruned_program(obj: dict, policy: str = POLICY_ERROR) -> GuardedActionProgram:
    """The program of every transition of the behaviour document `obj`,
    reachable or not, as the reader built it before it pruned the risk
    states that `initial` does not reach: the oracle for the pruned one."""
    decls = [decl_from_obj(d) for d in obj["vars"]]
    inputs = [d for d in decls if d.kind == "monitored"]
    outputs = [d for d in decls if d.kind == "controlled"]
    factors = [d.name for d in decls if d.kind == "factor"]

    def risk_state(r: dict) -> tuple:
        return tuple(sorted(r.items()))

    actions = [GuardedAction(derive_action_name(factors, t["source"], t["target"]),
                             parse_guard(t["guard"], inputs), risk_state(t["source"]),
                             t["output"], risk_state(t["target"]))
               for t in obj["transitions"]]
    return GuardedActionProgram(inputs, outputs, factors, risk_state(obj["initial"]), actions,
                                policy)


def valuation_program_equivalent(p1, p2) -> bool:
    """Product traversal that steps both programs on every input valuation:
    the oracle for `mutation.program_equivalent`, which steps on one
    representative per truth class."""
    inputs = list(enumerate_valuations(p1.input_vars))
    start = (p1.initial, p2.initial)
    seen = {start}
    queue = deque([start])
    while queue:
        r1, r2 = queue.popleft()
        for v in inputs:
            n1, o1 = p1.step((r1, v))
            n2, o2 = p2.step((r2, v))
            if o1 != o2:
                return False
            pair = (n1, n2)
            if pair not in seen:
                seen.add(pair)
                queue.append(pair)
    return True


def start_case(sut, *inputs) -> None:
    """Plan one case of `inputs` on `sut`, and reset it to start that case:
    each `sut.step()` then returns the output of the next of them."""
    sut.plan([TestCase(inputs, (None,) * len(inputs))])
    sut.reset()


def plain_verdicts(target, ts) -> list[tuple]:
    """(status, step, observed) per case of `ts`, run by a plain loop over
    `brute_outputs` for a machine or `GuardedActionProgram.step` for a program, whose
    inputs are checked against its declaration as the reference SUT checks
    them: the oracle for the harness's shared case loop."""
    results = []
    for case in ts.cases:
        if isinstance(target, MealyMachine):
            observed = brute_outputs(target, case.inputs)
        else:
            r, observed = target.initial, []
            try:
                for v, expected in zip(case.inputs, case.expected):
                    check_valuation(v, target.input_vars)
                    r, o = target.step((r, v))
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


def _stepwise(initial, answer, lines) -> list[str]:
    """The reply to each protocol line, worked out line by line with no
    memo; `answer(state, payload)` gives the reply to `IN payload` in
    `state` and the next state."""
    state, replies = initial, []
    for line in lines:
        line = line.strip()
        if not line:
            continue
        if line == "RESET":
            state = initial
            replies.append("READY")
        elif line.startswith("IN "):
            reply, state = answer(state, line[3:])
            replies.append(reply)
        else:
            replies.append(f"ERR unknown command {line!r}")
    return replies


def stepwise_replies(program, lines) -> list[str]:
    """The reference SUT's reply to each protocol line, worked out line by
    line with no memo: decode, check, `GuardedActionProgram.step` and
    encode.  The oracle for `program.serve_reference`, which answers a
    repeated step from its memo."""
    def answer(r, payload):
        try:
            v = decode_valuation(payload)
            if v is None:
                raise ValueError("nil is not a valid input")
            check_valuation(v, program.input_vars)
            r2, output = program.step((r, v))
        except Exception as exc:
            return f"ERR {exc}", r
        return "OUT " + encode_step(output), r2

    return _stepwise(program.initial, answer, lines)


def stepwise_machine_replies(m: MealyMachine, lines) -> list[str]:
    """The symbolic SUT's reply to each protocol line, worked out line by
    line with no memo from the transition map: the oracle for
    `program.serve_machine`, which answers a repeated step from its memo."""
    def answer(s, payload):
        symbol = payload.strip()
        if (s, symbol) not in m.transitions:
            return f"ERR no transition on {symbol!r}", s
        t, y = m.transitions[(s, symbol)]
        return f"OUT {y}", t

    return _stepwise(m.initial, answer, lines)


def walk_h_method(m: MealyMachine, m_bound: int) -> TestSuite:
    """H-suite derived by the generator's algorithm, with each trace pair
    decided by a joint walk that tries every input at each step, and the
    suite listed from sorted child lists: the oracle for
    `testgen.h_method`, which decides a pair by its input masks."""
    cover = list(_require_testable(m, m_bound).values())
    k = m_bound - len(m.states) + 1
    cover_set = set(cover)
    index = {x: i for i, x in enumerate(m.inputs)}

    def close_prefixes(trace: tuple) -> None:
        for i in range(len(trace) + 1):
            closure.add(trace[:i])

    closure = {v + word for v in cover for length in range(k + 1)
               for word in product(m.inputs, repeat=length)}
    traversal = sorted(closure, key=lambda t: (len(t), [index[x] for x in t]))
    reached = {(): m.initial}
    for t in traversal[1:]:
        reached[t] = m.transitions[(reached[t[:-1]], t[-1])][0]
    gammas: dict[tuple[str, str], tuple | None] = {}

    def apart(alpha: tuple, beta: tuple, sa: str, sb: str) -> bool:
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
        close_prefixes(alpha + gammas[(sa, sb)])
        close_prefixes(beta + gammas[(sa, sb)])

    for i, alpha in enumerate(cover):
        for beta in cover[i + 1:]:
            ensure_distinguished(alpha, beta)
    for alpha in cover:
        for beta in traversal:
            if beta not in cover_set:
                ensure_distinguished(alpha, beta)
    for beta in traversal:
        for i in range(1, len(beta)):
            ensure_distinguished(beta[:i], beta)

    # the leaves of the closure's prefix tree, in depth-first input order
    children: dict[tuple, list[tuple]] = {}
    for t in closure:
        if t:
            children.setdefault(t[:-1], []).append(t)
    cases = []
    stack = [((), m.initial, ())]
    while stack:
        trace, state, outputs = stack.pop()
        below = children.get(trace)
        if below is None:
            if trace:
                cases.append(TestCase(trace, outputs))
            continue
        for t in sorted(below, key=lambda t: index[t[-1]], reverse=True):
            target, y = m.transitions[(state, t[-1])]
            stack.append((t, target, outputs + (y,)))
    return TestSuite(cases, "h", m_bound)


def scan_check_h_completeness(m: MealyMachine, m_bound: int, ts) -> CompletenessReport:
    """H-completeness check that decides each trace pair by scanning the
    whole suite trace set for a common distinguishing suffix: the oracle
    for the joint walk of `testgen.check_h_completeness`."""
    _require_testable(m, m_bound)
    report = CompletenessReport([])
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
    cover = list(access.values())

    for v in cover:
        if v not in suite_traces:
            report.violations.append(f"H1: cover trace {v} missing")

    for v in cover:
        for word in product(m.inputs, repeat=k):
            if v + word not in suite_traces:
                report.violations.append(f"H2: traversal trace {v + word} missing")

    extensions = list(dict.fromkeys(
        v + word for v in cover for length in range(k + 1)
        for word in product(m.inputs, repeat=length)))

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
    for beta in extensions:
        for i in range(1, len(beta)):
            if not distinguished_in_suite(beta[:i], beta):
                report.violations.append(f"H3(c): prefix {beta[:i]} of {beta} not distinguished")
    return report


# ---------------------------------------------------------------------------
# The artefact writer that encoded a whole artefact at once
# ---------------------------------------------------------------------------

class Encoded(str):
    """Text in the compact canonical encoding, which `canonical_artifact`
    puts into a file as it is: a member built from parts encoded once."""


def canonical_artifact(payload: dict, links: dict | None = None) -> tuple[bytes, str]:
    """An artefact's file, in UTF-8, and its payload's fingerprint, from one
    encoding of each top-level member of `payload`: the oracle of
    `cli.write_artifact`, which streams both.

    The file is the compact canonical encoding of `payload` with `links`,
    if any, as its `derivedFrom`, and the fingerprint is the blake2b-64 of
    the encoding of `payload`.  A member given as `Encoded` text stands for
    the value that text encodes.
    """
    def member(key, value) -> bytes:  # `"key":value`, as within its object
        if isinstance(value, Encoded):
            return f"{encode_compact(key)}:{value}".encode("utf-8")
        return encode_compact({key: value})[1:-1].encode("utf-8")

    def document() -> bytes:
        return b"{" + b",".join(members[key] for key in sorted(members)) + b"}\n"

    members = {key: member(key, value) for key, value in payload.items()}
    data = document()
    digest = hashlib.blake2b(data, digest_size=8).hexdigest()
    if links:
        members["derivedFrom"] = member("derivedFrom", links)
        data = document()
    return data, digest


def settled(payload: dict) -> dict:
    """`payload` for `canonical_artifact`: each member given lazily, as the
    parts of its encoding, joined into `Encoded` text."""
    return {key: Encoded("".join(value)) if isinstance(value, Iterator) else value
            for key, value in payload.items()}


def written(payload: dict, links: dict | None = None) -> tuple[bytes, str]:
    """The file `cli.write_artifact` writes for `payload` and `links`, and
    the fingerprint it returns."""
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "artefact.json"
        digest = write_artifact(path, payload, links)
        return path.read_bytes(), digest


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


def _twin(name, fields, check=None, hashable=True, frozen=True):
    namespace = {} if check is None else {"__post_init__": check}
    if not hashable:
        namespace["__hash__"] = None  # kept by dataclass(), as an explicit hash
    return make_dataclass(name, fields, namespace=namespace, frozen=frozen)


# The toolkit's value classes as frozen dataclasses, with the validation
# they had as such: the oracle for what `Record` gives them.  A twin has its
# class's name, so reprs compare.
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
    # the value classes of the other modules: those that were mutable
    # dataclasses stay unhashable, and a list that defaulted to a new empty
    # one defaults to the empty tuple
    _twin("Counterexample", ["inputs", "outputs1", "outputs2"]),
    _twin("SfsmTransition", ["source", "action", "guard", "output", "target"]),
    _twin("InputClass", ["id", "signature", "representative", "size"]),
    _twin("InputClassPartition", ["guards", "classes"], hashable=False),
    _twin("AbstractionMap", ["class_to_valuation", "label_to_output"], hashable=False),
    _twin("TestCase", ["inputs", "expected"]),
    _twin("TestSuite", ["cases", "method", "m_bound", ("concrete", bool, False)],
          hashable=False),
    _twin("CompletenessReport", [("violations", object, ())], hashable=False),
    _twin("Verdict", ["case_index", "status", ("step_index", object, None),
                      ("input_sent", object, None), ("expected_output", object, None),
                      ("observed_output", object, None), ("detail", object, None)],
          frozen=False),
    _twin("TestReport", ["method", "m_bound", ("verdicts", object, ()),
                         ("duration", float, 0.0)],
          hashable=False),
    _twin("Mutant", ["id", "operator", "locus", "target"], hashable=False),
    _twin("MutationOutcome", ["mutant_id", "status", ("first_failing_case", object, None),
                              ("detail", object, None)], hashable=False),
    _twin("MutationReport", [("outcomes", object, ())], hashable=False),
    _twin("ControllerBehavior", ["input_vars", "output_vars", "factors", "initial",
                                 "actions", ("states", object, ()), ("warnings", object, ()),
                                 ("fingerprint", object, None)],
          hashable=False),
    _twin("HypothesisReport", ["state_count_program", "state_count_reference",
                               ("difference", object, None)],
          hashable=False),
]}


def twin_of(x):
    """`x` with every `Record` in it, however nested in lists and tuples,
    rebuilt as its twin from the same field values."""
    if isinstance(x, Record):
        return TWINS[type(x).__name__](*(twin_of(getattr(x, f)) for f in x.__slots__))
    if isinstance(x, (list, tuple)):
        return type(x)(twin_of(item) for item in x)
    return x
