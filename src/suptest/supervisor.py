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

from .encoding import encode_step, fingerprint, read_artifact, value_at
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
    RiskState,
    SupervisorError,
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


def derive_action_name(factors: list[str], r, r2) -> str:
    """Name from the changed factors of the risk states `r` and `r2` (sorted
    pairs or dicts): `<factor><newPhase>` segments joined by `_` in factor
    declaration order; `nop` when nothing changes.  A change outside the
    factor life cycle is refused."""
    r, r2 = dict(r), dict(r2)
    parts = []
    for f in factors:
        p, q = r[f], r2[f]
        if p != q:
            if (p, q) not in _ALLOWED_PHASE_STEPS:
                raise LifecycleViolation(f"factor {f}: phase change {p} -> {q} not allowed")
            parts.append(f"{f}{q}")
    return "_".join(parts) if parts else "nop"


# ---------------------------------------------------------------------------
# Controller behaviour loading
# ---------------------------------------------------------------------------

class ControllerBehavior(Record):
    """Deserialized controller fragment of the synthesised transition
    relation: one guarded action per transition of the file, read once,
    which both translations consume and neither changes."""

    __slots__ = ("input_vars", "output_vars", "factors", "initial", "actions", "fingerprint")
    _defaults = {"fingerprint": None}
    __hash__ = None
    input_vars: list[VarDecl]
    output_vars: list[VarDecl]
    factors: list[str]  # in declaration order
    initial: RiskState
    actions: list[GuardedAction]
    fingerprint: str | None  # of the document it was read from, if any


def behavior_from_obj(obj: dict) -> ControllerBehavior:
    decls = [decl_from_obj(d) for d in value_at(obj, "vars", list, dict)]
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
    input_vars, output_vars = by_kind[MONITORED], by_kind[CONTROLLED]
    factors = [d.name for d in by_kind[FACTOR]]
    initial = _risk_state_at(obj, "initial", factors)
    actions = []
    for t in value_at(obj, "transitions", list, dict):
        source = _risk_state_at(t, "source", factors)
        target = _risk_state_at(t, "target", factors)
        guard = parse_guard(t["guard"], input_vars)
        output = t["output"]
        check_valuation(output, output_vars)
        actions.append(GuardedAction(
            derive_action_name(factors, source, target), guard, source, output, target))
    return ControllerBehavior(input_vars, output_vars, factors, initial, actions)


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
    """The program of `b`'s guarded actions, determinism checked."""
    program = GuardedActionProgram(
        b.input_vars, b.output_vars, b.factors, b.initial, b.actions, policy
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
                raise DeterminismViolation(risk_state_name(source, p.factors), v, enabled)


def to_test_reference(b: ControllerBehavior, policy: str = POLICY_ERROR) -> Sfsm:
    """SFSM over the reachable risk states, transitions labelled guard/output.

    Unreachable risk states are pruned (`check_hypotheses` warns of them).
    `to_guarded_actions` decides whether `b` is deterministic; overlapping
    guards in the SFSM are refused wherever it is stepped.
    `policy` has no effect (an SFSM carries none; `abstract_to_fsm` applies
    it) and stays for callers that pass it by position.
    """
    factors = b.factors
    transitions = [
        SfsmTransition(risk_state_name(a.source, factors), a.name, a.guard, a.output,
                       risk_state_name(a.target, factors))
        for a in b.actions
    ]
    initial_name = risk_state_name(b.initial, factors)
    # breadth first: the list grows while it is walked, so it is its own queue
    reachable = [initial_name]
    for s in reachable:
        for t in transitions:
            if t.source == s and t.target not in reachable:
                reachable.append(t.target)
    return Sfsm(b.input_vars, b.output_vars, reachable, initial_name,
                [t for t in transitions if t.source in reachable])


# ---------------------------------------------------------------------------
# Static hypothesis checks
# ---------------------------------------------------------------------------

class HypothesisReport(Record):
    __slots__ = ("state_count_program", "state_count_reference", "difference", "warnings")
    _defaults = {"difference": None, "warnings": ()}
    __hash__ = None
    state_count_program: int
    state_count_reference: int
    difference: tuple | None  # a word of valuations on which the two differ
    warnings: list[str]  # what the translation left out, not a failure

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
    The warnings name an empty program and the program's risk states that
    the reference lacks, the unreachable ones `to_test_reference` drops.
    """
    guards = distinct_guards([a.guard for a in p.actions] + [t.guard for t in r.transitions])
    inputs = (_CHECKED.get((tuple(guards), tuple(p.input_vars)))
              or [v for _, v, _ in truth_classes(guards, p.input_vars)])
    nil = None if p.policy == POLICY_SELFLOOP else _REFUSED
    difference = first_difference(
        (p.initial, r.initial), inputs,
        _refusal_as_output(p.step, SupervisorError),
        _refusal_as_output(r.step, IncompleteState, nil))
    warnings = [] if p.actions else ["no transitions"]
    states = p.risk_states()
    dropped = sorted({risk_state_name(s, p.factors) for s in states} - set(r.states))
    if dropped:
        warnings.append(f"unreachable risk states dropped: {', '.join(dropped)}")
    return HypothesisReport(len(states), len(r.states), difference, warnings)
