"""Symbolic finite state machines and their FSM abstraction.

An SFSM has guard-labelled transitions over finite-sorted input variables
and concrete output valuations.  Input equivalence classes partition the
input valuation space by the truth signature over the machine's guard set;
each class becomes one atomic input of the abstracted Mealy machine.
"""

from __future__ import annotations

from collections import Counter

from .encoding import (
    NIL_TEXT, encode_step, fnv1a64, is_wire_valuation, value_at,
)
from .fsm import MealyMachine
from .guards import (
    GuardExpr,
    Record,
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
    sample_decls,
    truth_classes,
)
from .program import POLICY_ERROR, POLICY_SELFLOOP

NIL_LABEL = NIL_TEXT  # reserved FSM output label for policy self-loops


class SfsmError(Exception):
    pass


class DeterminismViolation(SfsmError):
    def __init__(self, state: str, witness: Valuation, enabled: list):
        """`enabled`: transitions or actions enabled together on `witness`."""
        first, second = (print_guard(e.guard) for e in enabled[:2])
        super().__init__(
            f"guards {first!r} and {second!r} of state {state!r} "
            f"overlap on {encode_step(witness)}"
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
            f"no guard of state {state!r} covers input {encode_step(witness)}"
        )
        self.state = state
        self.witness = witness


class SfsmTransition(Record):
    __slots__ = ("source", "action", "guard", "output", "target")
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
        self._partition = None  # `input_classes(self)`, once it is computed
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
        input_vars = [decl_from_obj(d) for d in value_at(obj, "input_vars", list, dict)]
        output_vars = [decl_from_obj(d) for d in value_at(obj, "output_vars", list, dict)]
        states, initial = value_at(obj, "states", list, str), value_at(obj, "initial", str)
        transitions = [
            SfsmTransition(
                value_at(t, "from", str),
                value_at(t, "action", str),
                parse_guard(t["guard"], input_vars),
                t["output"],
                value_at(t, "to", str),
            )
            for t in value_at(obj, "transitions", list, dict)
        ]
        return cls(input_vars, output_vars, states, initial, transitions)

    def step(self, pair: tuple[str, Valuation]) -> tuple[str, Valuation | None]:
        """Target and output of the unique transition enabled at `pair` =
        (state, v); an overlap and an uncovered input are refused."""
        state, v = pair
        enabled = [t for t in self.transitions if t.source == state and eval_guard(t.guard, v)]
        if len(enabled) > 1:
            raise DeterminismViolation(state, v, enabled)
        if not enabled:
            raise IncompleteState(state, v)
        return enabled[0].target, enabled[0].output


# ---------------------------------------------------------------------------
# Input equivalence classes
# ---------------------------------------------------------------------------

class InputClass(Record):
    __slots__ = ("id", "signature", "representative", "size")
    id: str  # c0, c1, ...
    signature: tuple[bool, ...]  # truth vector over the deduplicated guard list
    representative: Valuation
    size: int


class InputClassPartition(Record):
    __slots__ = ("guards", "classes")
    __hash__ = None
    guards: list[str]  # canonical guard texts, dedup order
    classes: list[InputClass]

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
        classes = [InputClass(value_at(c, "id", str),
                              tuple(value_at(c, "signature", list, bool)),
                              value_at(c, "representative", dict), value_at(c, "size", int))
                   for c in value_at(obj, "classes", list, dict)]
        partition = cls(guards=list(value_at(obj, "guards", list, str)), classes=classes)
        partition.check_representatives()
        return partition

    def check_representatives(self) -> None:
        """Every representative assigns the variables that most of them
        assign, and has its class's signature under the guards."""
        if not self.classes:
            return
        shared = Counter(frozenset(c.representative) for c in self.classes).most_common(1)[0][0]
        sample = next(c.representative for c in self.classes if set(c.representative) == shared)
        decls = sample_decls(sample, self.guards)
        parsed = [parse_guard(text, decls) for text in self.guards]
        for c in self.classes:
            if set(c.representative) != shared:
                raise SfsmError(f"class {c.id}: representative assigns "
                                f"{sorted(c.representative)}, not {sorted(shared)}")
            try:
                own = tuple(eval_guard(g, c.representative) for g in parsed) == c.signature
            except TypeError:  # a value of another type than the sample's
                own = False
            if not own:
                raise SfsmError(f"class {c.id}: representative "
                                f"{encode_step(c.representative)} is not in the class")


def input_classes(r: Sfsm) -> InputClassPartition:
    """Partition the input valuation space by guard-truth signature.

    Classes are numbered in the order of `truth_classes`; the representative
    is the lexicographically smallest member.  The partition is computed
    once per `r` and kept on it, so the hypothesis check, the `classes`
    stage and `abstract_to_fsm` share one walk of the valuation space.
    """
    if r._partition is None:
        guards = distinct_guards(t.guard for t in r.transitions)
        r._partition = InputClassPartition([print_guard(g) for g in guards], [
            InputClass(f"c{i}", *c) for i, c in enumerate(truth_classes(guards, r.input_vars))])
    return r._partition


# ---------------------------------------------------------------------------
# FSM abstraction
# ---------------------------------------------------------------------------

class AbstractionMap(Record):
    __slots__ = ("class_to_valuation", "label_to_output")
    __hash__ = None
    class_to_valuation: dict[str, Valuation]
    label_to_output: dict[str, Valuation | None]

    def to_obj(self) -> dict:
        return {
            "class_to_valuation": self.class_to_valuation,
            "label_to_output": self.label_to_output,
        }

    @classmethod
    def from_obj(cls, obj: dict) -> "AbstractionMap":
        amap = cls(value_at(obj, "class_to_valuation", dict),
                   value_at(obj, "label_to_output", dict))
        for label, v in amap.label_to_output.items():
            if v is not None and not is_wire_valuation(v):
                raise ValueError(f"output label {label!r} maps to {v!r}, "
                                 "not a valuation of strings and integers")
        return amap


def abstract_to_fsm(r: Sfsm, policy: str = POLICY_ERROR) -> tuple[MealyMachine, AbstractionMap]:
    """Abstract the SFSM into a Mealy machine over the identifiers of the
    classes of `input_classes(r)`, the reference's one partition.

    States carry over unchanged, and `r.step` gives each (state, class) on
    its representative; each distinct output valuation becomes one atomic
    output label (o0, o1, ... in canonical encoding order), and an input no
    guard of a state covers is handled per `policy`.

    Deciding determinism per class is exact because the classes refine every
    guard; overlaps in every state take precedence over an uncovered input.
    """
    partition = input_classes(r)
    steps = {}
    incomplete = None
    for state in r.states:
        for c in partition.classes:
            try:
                steps[(state, c.id)] = r.step((state, c.representative))
            except IncompleteState as exc:
                if policy == POLICY_SELFLOOP:
                    steps[(state, c.id)] = (state, None)
                elif incomplete is None:
                    incomplete = exc
    if incomplete is not None:
        raise incomplete

    encoded = {encode_step(t.output): t.output for t in r.transitions if t.output is not None}
    label_of = {text: f"o{i}" for i, text in enumerate(sorted(encoded))}
    label_to_output = {label_of[text]: v for text, v in encoded.items()}
    if any(y is None for _, y in steps.values()):
        label_of[NIL_TEXT] = NIL_LABEL
        label_to_output[NIL_LABEL] = None
    transitions = {key: (target, label_of[encode_step(y)]) for key, (target, y) in steps.items()}

    machine = MealyMachine(r.states, r.initial, [c.id for c in partition.classes],
                           list(label_of.values()), transitions)
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
    return TestSuite(cases, suite.method, suite.m_bound, concrete=True)


# ---------------------------------------------------------------------------
# Label hashing and DOT export
# ---------------------------------------------------------------------------

def hash_label(v: Valuation | None) -> int:
    """64-bit FNV-1a over the canonical valuation encoding (sorted keys)."""
    return fnv1a64(encode_step(v).encode("utf-8"))


def export_dot(r: Sfsm) -> str:
    """One node per risk state, edges labelled action:h(input-rep)/h(output).

    Full valuation expressions are too long to display, so each edge shows
    the hash of the guard's first satisfying input valuation and the hash
    of the output valuation.  Unsatisfiable guards hash their canonical text.
    """
    from .guards import satisfiable

    lines = ["digraph sfsm {", "  rankdir=LR;", "  __start [shape=point];",
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
