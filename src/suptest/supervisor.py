"""Safety-supervisor domain model and translations.

A synthesised controller behaviour (risk-state transitions with guards over
monitored variables and output valuations over controlled variables) is
translated into

* a guarded-action program (`suptest.program`), the executable stand-in
  for generated controller code, and
* a symbolic FSM test reference over the reachable risk states,

plus static hypothesis checks comparing what the two do.  The behaviour's
reader decides once which risk states are reachable, and both translations
take its actions, those of the reachable states.
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
from .sfsm import DeterminismViolation, IncompleteState, Sfsm, SfsmTransition, input_classes

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
    relation: one guarded action per transition of the file whose source is
    reachable, read once, which both translations consume and neither
    changes.  The reader decides reachability, and warns of what it left
    out; neither translation decides it again."""

    __slots__ = ("input_vars", "output_vars", "factors", "initial", "actions", "states",
                 "warnings", "fingerprint")
    _defaults = {"states": (), "warnings": (), "fingerprint": None}
    __hash__ = None
    input_vars: list[VarDecl]
    output_vars: list[VarDecl]
    factors: list[str]  # in declaration order
    initial: RiskState
    actions: list[GuardedAction]  # those whose source is reachable, in file order
    states: list[RiskState]  # the reachable ones, breadth first from `initial`
    warnings: list[str]  # what the reader left out, not a failure
    fingerprint: str | None  # of the document it was read from, if any


def behavior_from_obj(obj: dict) -> ControllerBehavior:
    decls = [decl_from_obj(d) for d in value_at(obj, "vars", list, dict)]
    clashes = sorted({d.name for d in decls for e in decls
                      if d.name == e.name and d.kind != e.kind})
    if clashes:
        raise DisjointnessViolation(
            f"variables declared with conflicting kinds: {', '.join(clashes)}")
    check_decls(decls)
    input_vars, output_vars, factor_decls = (
        [d for d in decls if d.kind == kind] for kind in (MONITORED, CONTROLLED, FACTOR))
    factors = [d.name for d in factor_decls]
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
    # breadth first: the list grows while it is walked, so it is its own queue
    states = [initial]
    for s in states:
        for a in actions:
            if a.source == s and a.target not in states:
                states.append(a.target)
    warnings = [] if actions else ["no transitions"]
    dropped = sorted({risk_state_name(r, factors) for a in actions for r in (a.source, a.target)
                      if r not in states})
    if dropped:
        warnings.append(f"unreachable risk states dropped: {', '.join(dropped)}")
    return ControllerBehavior(input_vars, output_vars, factors, initial,
                              [a for a in actions if a.source in states], states, warnings)


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
    """The program of `b`'s guarded actions, those of its reachable risk
    states, once their determinism is checked: per truth class of their
    guards (see `truth_classes`), in each risk state with two actions or
    more."""
    by_source: dict[tuple, list[GuardedAction]] = {}
    for a in b.actions:
        by_source.setdefault(a.source, []).append(a)
    shared = [(source, actions) for source, actions in by_source.items() if len(actions) > 1]
    if shared:
        guards = distinct_guards(a.guard for a in b.actions)
        members = [v for _, v, _ in truth_classes(guards, b.input_vars)]
        for source, actions in shared:
            for v in members:
                enabled = [a for a in actions if eval_guard(a.guard, v)]
                if len(enabled) > 1:
                    raise DeterminismViolation(risk_state_name(source, b.factors), v, enabled)
    return GuardedActionProgram(b.input_vars, b.output_vars, b.factors, b.initial, b.actions,
                                policy)


def to_test_reference(b: ControllerBehavior, policy: str = POLICY_ERROR) -> Sfsm:
    """SFSM over `b`'s risk states, transitions labelled guard/output.

    The reader already pruned the unreachable risk states and their actions
    (`b.warnings` names them), so the states are `b.states`, in its order,
    and the transitions are `b.actions`, the program's own.
    `to_guarded_actions` decides whether `b` is deterministic; overlapping
    guards in the SFSM are refused wherever it is stepped.
    `policy` has no effect (an SFSM carries none; `abstract_to_fsm` applies
    it) and stays for callers that pass it by position.
    """
    name = {s: risk_state_name(s, b.factors) for s in b.states}
    return Sfsm(b.input_vars, b.output_vars, list(name.values()), name[b.initial],
                [SfsmTransition(name[a.source], a.name, a.guard, a.output, name[a.target])
                 for a in b.actions])


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
    input only through their guards, so the search is exact.  Where the
    program's distinct guards are the reference's and both declare the same
    inputs, those members are the representatives of `r`'s partition
    (`input_classes`), which later stages reuse; otherwise, as for a program
    mutant, the joint guards are walked here.  A refusal is an output that
    no step gives: the program's (no action or two enabled, the
    `SupervisorError`s of its `step`), and the reference's uncovered input,
    which under `p`'s self-loop policy is a nil self-loop instead.
    """
    ours = distinct_guards(a.guard for a in p.actions)
    theirs = distinct_guards(t.guard for t in r.transitions)
    if ours == theirs and p.input_vars == r.input_vars:
        inputs = [c.representative for c in input_classes(r).classes]
    else:
        inputs = [v for _, v, _ in truth_classes(distinct_guards(ours + theirs), p.input_vars)]
    nil = None if p.policy == POLICY_SELFLOOP else _REFUSED
    difference = first_difference(
        (p.initial, r.initial), inputs,
        _refusal_as_output(p.step, SupervisorError),
        _refusal_as_output(r.step, IncompleteState, nil))
    return HypothesisReport(len(p.risk_states()), len(r.states), difference)
