"""Symbolic finite state machines and their FSM abstraction.

An SFSM has guard-labelled transitions over finite-sorted input variables
and concrete output valuations.  Input equivalence classes partition the
input valuation space by the truth signature over the machine's guard set;
each class becomes one atomic input of the abstracted Mealy machine.
"""

from __future__ import annotations

from dataclasses import dataclass

from .encoding import NIL_TEXT, encode_valuation, fingerprint, fnv1a64
from .fsm import MealyMachine
from .guards import (
    GuardExpr,
    Valuation,
    VarDecl,
    check_decls,
    check_valuation,
    decl_from_obj,
    distinct_guards,
    eval_guard,
    guard_vars,
    parse_guard,
    print_guard,
    truth_classes,
)

# Policy for states whose guards do not cover the whole input space.
POLICY_ERROR = "error"
POLICY_SELFLOOP = "complete-with-selfloop"

NIL_LABEL = NIL_TEXT  # reserved FSM output label for policy self-loops


class SfsmError(Exception):
    pass


class DeterminismViolation(SfsmError):
    def __init__(self, state: str, witness: Valuation, enabled: list):
        """`enabled`: transitions or actions enabled together on `witness`."""
        first, second = (print_guard(e.guard) for e in enabled[:2])
        super().__init__(
            f"guards {first!r} and {second!r} of state {state!r} "
            f"overlap on {encode_valuation(witness)}"
        )
        self.state = state
        self.witness = witness


class UnknownClassId(SfsmError):
    """A suite input that the partition has no class for."""


class UnknownOutputLabel(SfsmError):
    """A suite output label that the abstraction map lacks."""


class IncompleteState(SfsmError):
    def __init__(self, state: str, witness: Valuation):
        super().__init__(
            f"no guard of state {state!r} covers input {encode_valuation(witness)}"
        )
        self.state = state
        self.witness = witness


@dataclass(frozen=True)
class SfsmTransition:
    source: str
    action: str
    guard: GuardExpr
    output: Valuation | None  # None is the reserved nil output
    target: str


class Sfsm:
    """Test reference: risk states with guarded, output-labelled transitions."""

    def __init__(self, input_vars, output_vars, states, initial, transitions):
        self.input_vars: list[VarDecl] = list(input_vars)
        self.output_vars: list[VarDecl] = list(output_vars)
        self.states: tuple[str, ...] = tuple(states)
        self.initial: str = initial
        self.transitions: tuple[SfsmTransition, ...] = tuple(transitions)
        check_decls(self.input_vars + self.output_vars)
        if self.initial not in self.states:
            raise SfsmError(f"initial state {self.initial!r} not declared")
        input_names = {d.name for d in self.input_vars}
        for t in self.transitions:
            if t.source not in self.states or t.target not in self.states:
                raise SfsmError(f"transition {t.action!r} uses undeclared state")
            stray = guard_vars(t.guard) - input_names
            if stray:
                raise SfsmError(
                    f"guard of {t.action!r} references non-input variables: {sorted(stray)}"
                )
            if t.output is not None:
                check_valuation(t.output, self.output_vars)

    # -- serialization ------------------------------------------------------

    def to_obj(self) -> dict:
        return {
            "input_vars": [d.to_obj() for d in self.input_vars],
            "output_vars": [d.to_obj() for d in self.output_vars],
            "states": list(self.states),
            "initial": self.initial,
            "transitions": [
                {
                    "from": t.source,
                    "action": t.action,
                    "guard": print_guard(t.guard),
                    "output": t.output,
                    "to": t.target,
                }
                for t in self.transitions
            ],
        }

    @classmethod
    def from_obj(cls, obj: dict) -> "Sfsm":
        input_vars = [decl_from_obj(d) for d in obj["input_vars"]]
        output_vars = [decl_from_obj(d) for d in obj["output_vars"]]
        transitions = [
            SfsmTransition(
                t["from"],
                t["action"],
                parse_guard(t["guard"], input_vars),
                t["output"],
                t["to"],
            )
            for t in obj["transitions"]
        ]
        return cls(input_vars, output_vars, obj["states"], obj["initial"], transitions)

    def fingerprint(self) -> str:
        return fingerprint(self.to_obj())

    # -- helpers ------------------------------------------------------------

    def outgoing(self, state: str) -> list[SfsmTransition]:
        return [t for t in self.transitions if t.source == state]

    def step(self, state: str, v: Valuation) -> SfsmTransition | None:
        """Unique enabled transition at (state, v), or None."""
        enabled = [t for t in self.outgoing(state) if eval_guard(t.guard, v)]
        if len(enabled) > 1:
            raise DeterminismViolation(state, v, enabled)
        return enabled[0] if enabled else None


# ---------------------------------------------------------------------------
# Input equivalence classes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InputClass:
    id: str  # c0, c1, ...
    signature: tuple[bool, ...]  # truth vector over the deduplicated guard list
    representative: Valuation
    size: int


@dataclass
class InputClassPartition:
    guards: list[str]  # canonical guard texts, dedup order
    classes: list[InputClass]

    def class_of(self, v: Valuation, parsed_guards: list[GuardExpr]) -> InputClass:
        sig = tuple(eval_guard(g, v) for g in parsed_guards)
        for c in self.classes:
            if c.signature == sig:
                return c
        raise SfsmError(f"no class for valuation {encode_valuation(v)}")

    def to_obj(self) -> dict:
        return {
            "guards": self.guards,
            "classes": [
                {
                    "id": c.id,
                    "signature": list(c.signature),
                    "representative": c.representative,
                    "size": c.size,
                }
                for c in self.classes
            ],
        }

    @classmethod
    def from_obj(cls, obj: dict) -> "InputClassPartition":
        return cls(
            guards=list(obj["guards"]),
            classes=[
                InputClass(
                    c["id"], tuple(bool(b) for b in c["signature"]),
                    c["representative"], c["size"],
                )
                for c in obj["classes"]
            ],
        )


def input_classes(r: Sfsm) -> InputClassPartition:
    """Partition the input valuation space by guard-truth signature.

    Classes are numbered in the order of `truth_classes`; the representative
    is the lexicographically smallest member.
    """
    guards = distinct_guards(t.guard for t in r.transitions)
    classes = truth_classes(guards, r.input_vars)
    return InputClassPartition([print_guard(g) for g in guards],
                               [InputClass(f"c{i}", *c) for i, c in enumerate(classes)])


# ---------------------------------------------------------------------------
# FSM abstraction
# ---------------------------------------------------------------------------

@dataclass
class AbstractionMap:
    class_to_valuation: dict[str, Valuation]
    label_to_output: dict[str, Valuation | None]

    def to_obj(self) -> dict:
        return {
            "class_to_valuation": self.class_to_valuation,
            "label_to_output": self.label_to_output,
        }

    @classmethod
    def from_obj(cls, obj: dict) -> "AbstractionMap":
        return cls(dict(obj["class_to_valuation"]), dict(obj["label_to_output"]))


def abstract_to_fsm(r: Sfsm, policy: str = POLICY_ERROR) -> tuple[MealyMachine, AbstractionMap]:
    """Abstract the SFSM into a Mealy machine over input-class identifiers.

    States carry over unchanged; each distinct output valuation becomes one
    atomic output label (o0, o1, ... in canonical encoding order).  States
    left uncovered by every guard are handled per `policy`.

    Deciding determinism per class is exact because the classes refine every
    guard; overlaps in every state take precedence over an uncovered input.
    """
    partition = input_classes(r)

    distinct_outputs = sorted(
        {encode_valuation(t.output) for t in r.transitions if t.output is not None}
    )
    label_of = {text: f"o{i}" for i, text in enumerate(distinct_outputs)}
    label_to_output: dict[str, Valuation | None] = {}
    for t in r.transitions:
        if t.output is not None:
            label_to_output[label_of[encode_valuation(t.output)]] = t.output

    outputs = [f"o{i}" for i in range(len(distinct_outputs))]
    transitions = {}
    needs_nil = False
    incomplete = None
    for state in r.states:
        for c in partition.classes:
            t = r.step(state, c.representative)
            if t is not None:
                label = NIL_LABEL if t.output is None else label_of[encode_valuation(t.output)]
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


def concretize_suite(suite, partition: InputClassPartition, amap: AbstractionMap):
    """Substitute class ids by representatives, output labels by valuations.

    Takes and returns a testgen.TestSuite; suite structure and ordering are
    preserved.
    """
    from .testgen import TestCase, TestSuite

    representative = {c.id: c.representative for c in partition.classes}
    cases = []
    for case in suite.cases:
        try:
            inputs = tuple(representative[cid] for cid in case.inputs)
        except KeyError as exc:
            raise UnknownClassId(f"unknown class id {exc.args[0]!r}") from None
        try:
            expected = tuple(amap.label_to_output[label] for label in case.expected)
        except KeyError as exc:
            raise UnknownOutputLabel(
                f"output label {exc.args[0]!r} is not in the abstraction map") from None
        cases.append(TestCase(inputs, expected))
    return TestSuite(
        cases=cases,
        method=suite.method,
        m_bound=suite.m_bound,
        reference_fingerprint=suite.reference_fingerprint,
        concrete=True,
    )


# ---------------------------------------------------------------------------
# Label hashing and DOT export
# ---------------------------------------------------------------------------

def hash_label(v: Valuation | None) -> int:
    """64-bit FNV-1a over the canonical valuation encoding (sorted keys)."""
    return fnv1a64(encode_valuation(v).encode("utf-8"))


def export_dot(r: Sfsm, name: str = "sfsm") -> str:
    """One node per risk state, edges labelled action:h(input-rep)/h(output).

    Full valuation expressions are too long to display, so each edge shows
    the hash of the guard's first satisfying input valuation and the hash
    of the output valuation.  Unsatisfiable guards hash their canonical text.
    """
    from .guards import satisfiable

    lines = [f"digraph {name} {{", "  rankdir=LR;", "  __start [shape=point];",
             f'  __start -> "{r.initial}";']
    for s in r.states:
        lines.append(f'  "{s}" [shape=ellipse];')
    for t in r.transitions:
        rep = satisfiable(t.guard, r.input_vars)
        if rep is None:
            gh = fnv1a64(print_guard(t.guard).encode("utf-8"))
        else:
            gh = hash_label(rep)
        oh = hash_label(t.output)
        lines.append(f'  "{t.source}" -> "{t.target}" [label="{t.action}:{gh}/{oh}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
