"""Mutant generation and classification for tool qualification.

Mutation operates on the Mealy machine and guarded-action IR rather than
on target-language source, keeping the fault model aligned with the
testing theory: output faults, transfer faults, extra states, and guard
flips.  Equivalence is always decided by the product-machine oracle,
never by "passed all tests".
"""

from __future__ import annotations

import random
from contextlib import nullcontext
from itertools import chain

from .encoding import encode_step
from .fsm import MealyMachine, first_difference
from .guards import OPERATORS, And, Comparison, Not, Or, Record, distinct_guards, truth_classes
from .harness import ERROR, PASS, LocalSut, SutAdapter, verdicts
from .program import POLICY_SELFLOOP, GuardedActionProgram

OUTPUT_FAULT = "output-fault"
TRANSFER_FAULT = "transfer-fault"
EXTRA_STATE = "extra-state"
GUARD_FLIP = "guard-literal-flip"

MACHINE_OPERATORS = (OUTPUT_FAULT, TRANSFER_FAULT, EXTRA_STATE)
PROGRAM_OPERATORS = (OUTPUT_FAULT, TRANSFER_FAULT, GUARD_FLIP)

EQUIVALENT = "EQUIVALENT"
KILLED = "KILLED"
ESCAPED = "ESCAPED"


class Mutant(Record):
    __slots__ = ("id", "operator", "locus", "target")
    __hash__ = None
    id: str
    operator: str
    locus: str
    target: object  # MealyMachine | GuardedActionProgram


class MutationOutcome(Record):
    __slots__ = ("mutant_id", "status", "first_failing_case", "detail")
    _defaults = {"first_failing_case": None, "detail": None}
    __hash__ = None
    mutant_id: str
    status: str  # EQUIVALENT | KILLED | ESCAPED | ERROR
    first_failing_case: int | None
    detail: str | None


# ---------------------------------------------------------------------------
# Machine mutants
# ---------------------------------------------------------------------------

def _output_faults(transitions: dict, outputs, s, x):
    """(locus, transitions) for each other output on the transition (s, x)."""
    t, y = transitions[(s, x)]
    for y2 in outputs:
        if y2 != y:
            yield f"({s},{x}) output {y}->{y2}", {**transitions, (s, x): (t, y2)}


def _transfer_faults(transitions: dict, states, s, x):
    """(locus, transitions) for each other target of the transition (s, x)."""
    t, y = transitions[(s, x)]
    for t2 in states:
        if t2 != t:
            yield f"({s},{x}) target {t}->{t2}", {**transitions, (s, x): (t2, y)}


def _machine_mutants(m: MealyMachine, operators) -> list[Mutant]:
    mutants = []

    def emit(operator, locus, states, transitions):
        mid = f"m{len(mutants)}"
        mutants.append(
            Mutant(mid, operator, locus,
                   MealyMachine(states, m.initial, m.inputs, m.outputs, transitions))
        )

    defined = [(s, x) for s in m.states for x in m.inputs if (s, x) in m.transitions]
    if OUTPUT_FAULT in operators:
        for s, x in defined:
            for locus, mutated in _output_faults(m.transitions, m.outputs, s, x):
                emit(OUTPUT_FAULT, locus, m.states, mutated)
    if TRANSFER_FAULT in operators:
        for s, x in defined:
            for locus, mutated in _transfer_faults(m.transitions, m.states, s, x):
                emit(TRANSFER_FAULT, locus, m.states, mutated)
    if EXTRA_STATE in operators:
        for s in m.states:
            clone = s + "__dup"
            states = list(m.states) + [clone]
            for src, x in [sx for sx in defined if m.transitions[sx][0] == s]:
                base = dict(m.transitions)
                base[(src, x)] = (clone, base[(src, x)][1])
                for x2 in m.inputs:
                    base[(clone, x2)] = m.transitions[(s, x2)]
                emit(EXTRA_STATE, f"clone {s} via ({src},{x})", states, base)
                for x2 in m.inputs:
                    for locus, mutated in chain(_output_faults(base, m.outputs, clone, x2),
                                                _transfer_faults(base, states, clone, x2)):
                        emit(EXTRA_STATE, f"clone {s} via ({src},{x}), {locus}", states, mutated)
    return mutants


# ---------------------------------------------------------------------------
# Program mutants
# ---------------------------------------------------------------------------

def _flips(g):
    """`g` with one comparison negated, for each comparison in order."""
    if isinstance(g, Comparison):
        yield Comparison(g.var, OPERATORS[g.op][1], g.literal)
    elif isinstance(g, Not):
        yield from map(Not, _flips(g.operand))
    elif isinstance(g, (And, Or)):
        for left in _flips(g.left):
            yield type(g)(left, g.right)
        for right in _flips(g.right):
            yield type(g)(g.left, right)


def _program_mutants(p: GuardedActionProgram, operators) -> list[Mutant]:
    mutants = []

    def emit(operator, locus, i, **change):
        actions = list(p.actions)
        actions[i] = actions[i].replace(**change)
        mutant = p.replace(actions=actions, policy=POLICY_SELFLOOP, resolution="first")
        mutants.append(Mutant(f"m{len(mutants)}", operator, locus, mutant))

    distinct_outputs = []
    for a in p.actions:
        if a.output not in distinct_outputs:
            distinct_outputs.append(a.output)
    risk_states = p.risk_states()

    if OUTPUT_FAULT in operators:
        for i, a in enumerate(p.actions):
            for out in distinct_outputs:
                if out != a.output:
                    emit(OUTPUT_FAULT,
                         f"action {i} ({a.name}) output -> {encode_step(out)}", i, output=out)
    if TRANSFER_FAULT in operators:
        for i, a in enumerate(p.actions):
            for r in risk_states:
                if r != a.target:
                    emit(TRANSFER_FAULT, f"action {i} ({a.name}) target -> {dict(r)}", i,
                         target=r)
    if GUARD_FLIP in operators:
        for i, a in enumerate(p.actions):
            for n, flipped in enumerate(_flips(a.guard)):
                emit(GUARD_FLIP, f"action {i} ({a.name}) comparison {n} flipped", i,
                     guard=flipped)
    return mutants


# ---------------------------------------------------------------------------
# Generation entry point
# ---------------------------------------------------------------------------

def generate_mutants(
    target,
    operators=None,
    limit: int | None = None,
    seed: int = 0,
) -> list[Mutant]:
    """Enumerate mutants in deterministic order; sample uniformly if a
    limit below the enumeration size is given (fixed seed)."""
    if isinstance(target, MealyMachine):
        mutants = _machine_mutants(target, operators or MACHINE_OPERATORS)
    elif isinstance(target, GuardedActionProgram):
        mutants = _program_mutants(target, operators or PROGRAM_OPERATORS)
    else:
        raise TypeError(f"cannot mutate {type(target).__name__}")
    if limit is not None and limit < len(mutants):
        rng = random.Random(seed)
        keep = sorted(rng.sample(range(len(mutants)), limit))
        mutants = [mutants[i] for i in keep]
    return mutants


# ---------------------------------------------------------------------------
# Program equivalence oracle
# ---------------------------------------------------------------------------

def program_equivalent(p1: GuardedActionProgram, p2: GuardedActionProgram) -> bool:
    """Exact observational equivalence over the full input valuation space.

    `first_difference` over the product of the two programs' risk-state
    spaces.  Both read an input only through the truth of their guards, so
    one representative per truth class of the joint guard set stands for
    every valuation.
    """
    guards = distinct_guards(a.guard for p in (p1, p2) for a in p.actions)
    inputs = [v for _, v, _ in truth_classes(guards, p1.input_vars)]
    return first_difference((p1.initial, p2.initial), inputs, p1.step, p2.step) is None


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------

def classify(reference, suite, mutant: Mutant, via: str = "oracle",
             sut_command=None) -> MutationOutcome:
    """Decide EQUIVALENT / KILLED / ESCAPED for one mutant.

    `oracle` mode runs the suite in-memory; `harness` mode serves the
    mutant over the wire protocol (requires `sut_command`, a callable
    mapping the mutant to an adapter command line).  Either way the suite
    runs only up to the first case that does not pass.  Only a FAIL verdict
    kills: an ERROR verdict is a fault of the set-up, not evidence, and
    makes the outcome ERROR with the verdict's detail.
    """
    machine = isinstance(mutant.target, MealyMachine)
    if suite.concrete == machine:
        raise ValueError("a program mutant needs a concrete suite, "
                         "a machine mutant an abstract one")
    if machine:
        equivalent = reference.equivalent(mutant.target) is None
    else:
        equivalent = program_equivalent(reference, mutant.target)

    if via == "oracle":
        session = nullcontext(LocalSut(mutant.target))
    elif via == "harness":
        if sut_command is None:
            raise ValueError("harness mode needs a sut_command factory")
        session = SutAdapter(sut_command(mutant))
    else:
        raise ValueError(f"unknown classification mode {via!r}")
    with session as sut:
        failing = next((v for v in verdicts(sut, suite) if v.status != PASS), None)

    if failing is None:
        return MutationOutcome(mutant.id, EQUIVALENT if equivalent else ESCAPED)
    if failing.status == ERROR:
        return MutationOutcome(mutant.id, ERROR, failing.case_index, failing.detail)
    if equivalent:
        # a test failing on an equivalent mutant is a tooling fault
        return MutationOutcome(mutant.id, ERROR, failing.case_index,
                               "equivalent mutant failed a test")
    return MutationOutcome(mutant.id, KILLED, failing.case_index)


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------

class MutationReport(Record):
    __slots__ = ("outcomes",)
    _defaults = {"outcomes": ()}
    __hash__ = None
    outcomes: list[MutationOutcome]

    @property
    def counts(self) -> dict:
        c = {EQUIVALENT: 0, KILLED: 0, ESCAPED: 0, ERROR: 0}
        for o in self.outcomes:
            c[o.status] += 1
        return c

    @property
    def score(self) -> float | None:
        c = self.counts
        denominator = c[KILLED] + c[ESCAPED]
        if denominator == 0:
            return None
        return c[KILLED] / denominator

    def to_obj(self) -> dict:
        return {
            "outcomes": [
                {
                    "mutant": o.mutant_id,
                    "status": o.status,
                    "firstFailingCase": o.first_failing_case,
                    "detail": o.detail,
                }
                for o in self.outcomes
            ],
            "counts": self.counts,
            "score": self.score,
        }

    def to_csv(self) -> str:
        lines = ["mutant,status,first_failing_case"]
        for o in self.outcomes:
            case = "" if o.first_failing_case is None else str(o.first_failing_case)
            lines.append(f"{o.mutant_id},{o.status},{case}")
        return "\n".join(lines) + "\n"

    def summary(self) -> str:
        c = self.counts
        score = "n/a" if self.score is None else f"{self.score:.3f}"
        lines = [
            f"mutants: {len(self.outcomes)}  killed: {c[KILLED]}  "
            f"equivalent: {c[EQUIVALENT]}  escaped: {c[ESCAPED]}  "
            f"errors: {c[ERROR]}  score: {score}",
        ]
        for o in self.outcomes:
            if o.status in (ESCAPED, ERROR):
                lines.append(f"  {o.mutant_id}: {o.status} {o.detail or ''}".rstrip())
        return "\n".join(lines)


def mutation_report(outcomes) -> MutationReport:
    return MutationReport(list(outcomes))
