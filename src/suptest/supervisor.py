"""Safety-supervisor domain model and translations.

A synthesised controller behaviour (risk-state transitions with guards over
monitored variables and output valuations over controlled variables) is
translated into

* a guarded-action program (`suptest.program`), the executable stand-in
  for generated controller code, and
* a symbolic FSM test reference over the reachable risk states,

plus static hypothesis checks comparing what the two do.
"""

from __future__ import annotations

from .encoding import encode_step, fingerprint, list_at, read_artifact
from .fsm import first_difference
from .guards import (
    CONTROLLED,
    FACTOR,
    MONITORED,
    Record,
    VarDecl,
    check_decls,
    check_valuation,
    decl_from_obj,
    distinct_guards,
    eval_guard,
    parse_guard,
    truth_classes,
)
from .program import (
    POLICY_ERROR,
    POLICY_SELFLOOP,
    GuardedAction,
    GuardedActionProgram,
    SupervisorError,
    _freeze,
    _risk_state_at,
    risk_state_name,
)
from .sfsm import DeterminismViolation, IncompleteState, Sfsm, SfsmTransition

# Factor life-cycle: inactive -> active -> mitigated -> inactive, plus stay.
_ALLOWED_PHASE_STEPS = {("0", "a"), ("a", "m"), ("m", "0")}


class DisjointnessViolation(SupervisorError):
    """A variable is declared in more than one of I, O, F."""


class LifecycleViolation(SupervisorError):
    """A factor phase change outside 0->a->m->0 (with stutter)."""


def check_lifecycle(r: dict, r2: dict, factors: list[str]) -> None:
    for f in factors:
        p, q = r[f], r2[f]
        if p != q and (p, q) not in _ALLOWED_PHASE_STEPS:
            raise LifecycleViolation(f"factor {f}: phase change {p} -> {q} not allowed")


def derive_action_name(factors: list[str], r: dict, r2: dict) -> str:
    """Name from the changed factors: `<factor><newPhase>` segments joined
    by `_` in factor declaration order; `nop` when nothing changes."""
    check_lifecycle(r, r2, factors)
    parts = [f"{f}{r2[f]}" for f in factors if r[f] != r2[f]]
    return "_".join(parts) if parts else "nop"


# ---------------------------------------------------------------------------
# Controller behaviour loading
# ---------------------------------------------------------------------------

class ControllerBehavior(Record):
    """Deserialized controller fragment of the synthesised transition relation."""

    __slots__ = ("input_vars", "output_vars", "factor_vars", "initial", "transitions",
                 "warnings", "fingerprint")
    _defaults = {"warnings": (), "fingerprint": None}
    __hash__ = None
    input_vars: list[VarDecl]
    output_vars: list[VarDecl]
    factor_vars: list[VarDecl]
    initial: dict  # factor name -> phase, as in the file
    transitions: list[dict]  # {source, guard: GuardExpr, output, target}
    warnings: list[str]
    fingerprint: str | None  # of the document it was read from, if any

    @property
    def factors(self) -> list[str]:
        return [d.name for d in self.factor_vars]


def behavior_from_obj(obj: dict) -> ControllerBehavior:
    decls = [decl_from_obj(d) for d in list_at(obj, "vars")]
    kinds_of: dict[str, set[str]] = {}
    for d in decls:
        kinds_of.setdefault(d.name, set()).add(d.kind)
    clashes = sorted(n for n, kinds in kinds_of.items() if len(kinds) > 1)
    if clashes:
        raise DisjointnessViolation(
            f"variables declared with conflicting kinds: {', '.join(clashes)}"
        )
    check_decls(decls)
    by_kind = {MONITORED: [], CONTROLLED: [], FACTOR: []}
    for d in decls:
        by_kind[d.kind].append(d)
    input_vars, output_vars, factor_vars = (
        by_kind[MONITORED], by_kind[CONTROLLED], by_kind[FACTOR]
    )
    factors = [d.name for d in factor_vars]
    initial = _risk_state_at(obj, "initial", factors)
    transitions = []
    for t in list_at(obj, "transitions"):
        source = _risk_state_at(t, "source", factors)
        target = _risk_state_at(t, "target", factors)
        guard = parse_guard(t["guard"], input_vars)
        output = t["output"]
        check_valuation(output, output_vars)
        transitions.append(
            {"source": source, "guard": guard, "output": output, "target": target}
        )
    warnings = []
    if not transitions:
        warnings.append("no transitions")
    return ControllerBehavior(
        input_vars, output_vars, factor_vars, initial, transitions, warnings
    )


def load_behavior(path) -> ControllerBehavior:
    """Parse and validate a `.cb` behaviour file, naming it on failure, and
    record the fingerprint of its document: one read serves both."""
    def from_obj(doc: dict) -> ControllerBehavior:
        return behavior_from_obj(doc).replace(fingerprint=fingerprint(doc))

    return read_artifact(path, from_obj)


# ---------------------------------------------------------------------------
# Translations
# ---------------------------------------------------------------------------

def to_guarded_actions(
    b: ControllerBehavior, policy: str = POLICY_ERROR
) -> GuardedActionProgram:
    """One guarded action per behaviour transition, determinism checked.

    Outputs and risk updates are read directly from the behaviour file and
    validated against the factor life-cycle.
    """
    actions = []
    for t in b.transitions:
        name = derive_action_name(b.factors, t["source"], t["target"])
        actions.append(
            GuardedAction(
                name, t["guard"], _freeze(t["source"]), t["output"], _freeze(t["target"])
            )
        )
    program = GuardedActionProgram(
        b.input_vars, b.output_vars, b.factors, _freeze(b.initial), actions, policy
    )
    _check_program_determinism(program)
    return program


# the least truth-class members of the last program checked for
# determinism, by its guards and inputs: `translate` checks its hypotheses
# next, over the same classes, and so walks them once
_CHECKED: dict = {}


def _check_program_determinism(p: GuardedActionProgram) -> None:
    """Checked per truth class of the program's guards (see `truth_classes`)."""
    by_source: dict[tuple, list[GuardedAction]] = {}
    for a in p.actions:
        by_source.setdefault(a.source, []).append(a)
    shared = [(source, actions) for source, actions in by_source.items() if len(actions) > 1]
    if not shared:
        return
    guards = distinct_guards(a.guard for a in p.actions)
    members = [v for _, v, _ in truth_classes(guards, p.input_vars)]
    _CHECKED.clear()
    _CHECKED[tuple(guards), tuple(p.input_vars)] = members
    for source, actions in shared:
        for v in members:
            enabled = [a for a in actions if eval_guard(a.guard, v)]
            if len(enabled) > 1:
                raise DeterminismViolation(risk_state_name(dict(source), p.factors), v, enabled)


def to_test_reference(b: ControllerBehavior, policy: str = POLICY_ERROR) -> Sfsm:
    """SFSM over the reachable risk states, transitions labelled guard/output.

    Unreachable risk states are pruned; a warning is recorded on `b`.
    `to_guarded_actions` decides whether `b` is deterministic; overlapping
    guards in the SFSM are refused wherever it is stepped.
    `policy` has no effect (an SFSM carries none; `abstract_to_fsm` applies
    it) and stays for callers that pass it by position.
    """
    factors = b.factors
    transitions = [
        SfsmTransition(
            risk_state_name(t["source"], factors),
            derive_action_name(factors, t["source"], t["target"]),
            t["guard"], t["output"], risk_state_name(t["target"], factors),
        )
        for t in b.transitions
    ]
    initial_name = risk_state_name(b.initial, factors)
    # breadth first: the list grows while it is walked, so it is its own queue
    reachable = [initial_name]
    for s in reachable:
        for t in transitions:
            if t.source == s and t.target not in reachable:
                reachable.append(t.target)
    dropped = sorted({n for t in transitions for n in (t.source, t.target)} - set(reachable))
    if dropped:
        b.warnings.append(f"unreachable risk states dropped: {', '.join(dropped)}")
    return Sfsm(b.input_vars, b.output_vars, reachable, initial_name,
                [t for t in transitions if t.source in reachable])


# ---------------------------------------------------------------------------
# Static hypothesis checks
# ---------------------------------------------------------------------------

class HypothesisReport(Record):
    __slots__ = ("state_count_program", "state_count_reference", "difference")
    _defaults = {"difference": None}
    __hash__ = None
    state_count_program: int
    state_count_reference: int
    difference: tuple | None  # a word of valuations on which the two differ

    @property
    def state_count_ok(self) -> bool:
        return self.state_count_program == self.state_count_reference

    @property
    def ok(self) -> bool:
        return self.state_count_ok and self.difference is None

    def summary(self) -> str:
        lines = [
            f"control states: program={self.state_count_program} "
            f"reference={self.state_count_reference} "
            f"[{'PASS' if self.state_count_ok else 'FAIL'}]",
        ]
        if self.difference is not None:
            lines.append("behaviour differs on: "
                         + " ".join(encode_step(v) for v in self.difference))
        lines.append(f"hypotheses: {'PASS' if self.ok else 'FAIL'}")
        return "\n".join(lines)


_REFUSED = object()  # the output of a refused step, which no step gives


def _refusal_as_output(step, refusals, output=_REFUSED):
    """`step`, answering a `refusals` exception with `output` in the same state."""
    def total(pair):
        try:
            return step(pair)
        except refusals:
            return pair[0], output
    return total


def check_hypotheses(p: GuardedActionProgram, r: Sfsm) -> HypothesisReport:
    """Static checks: the same control-state count, and the same behaviour.

    `first_difference` compares the behaviours from their initial states on
    the least member of each truth class of both guard sets: both read an
    input only through their guards, so the search is exact.  A refusal is
    an output that no step gives: the program's (no action or two enabled,
    the `SupervisorError`s of its `step`), and the reference's uncovered
    input, which under `p`'s self-loop policy is a nil self-loop instead.
    """
    guards = distinct_guards([a.guard for a in p.actions] + [t.guard for t in r.transitions])
    inputs = (_CHECKED.get((tuple(guards), tuple(p.input_vars)))
              or [v for _, v, _ in truth_classes(guards, p.input_vars)])
    nil = None if p.policy == POLICY_SELFLOOP else _REFUSED
    difference = first_difference(
        (p.initial, r.initial), inputs,
        _refusal_as_output(p.step, SupervisorError),
        _refusal_as_output(r.step, IncompleteState, nil))
    return HypothesisReport(len(p.risk_states()), len(r.states), difference)
