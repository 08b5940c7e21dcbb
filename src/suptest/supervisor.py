"""Safety-supervisor domain model and translations.

A synthesised controller behaviour (risk-state transitions with guards over
monitored variables and output valuations over controlled variables) is
translated into

* a guarded-action program, the executable stand-in for generated
  controller code, and
* a symbolic FSM test reference over the reachable risk states,

plus static hypothesis checks comparing the two.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .encoding import encode_valuation, read_artifact
from .guards import (
    CONTROLLED,
    FACTOR,
    MONITORED,
    GuardExpr,
    Valuation,
    VarDecl,
    check_decls,
    check_valuation,
    decl_from_obj,
    distinct_guards,
    eval_guard,
    parse_guard,
    print_guard,
    truth_classes,
)
from .sfsm import (
    POLICY_ERROR,
    POLICY_SELFLOOP,
    DeterminismViolation,
    Sfsm,
    SfsmTransition,
)

PHASES = ("0", "a", "m")

# Factor life-cycle: inactive -> active -> mitigated -> inactive, plus stay.
_ALLOWED_PHASE_STEPS = {("0", "a"), ("a", "m"), ("m", "0")}


class SupervisorError(Exception):
    pass


class DisjointnessViolation(SupervisorError):
    """A variable is declared in more than one of I, O, F."""


class LifecycleViolation(SupervisorError):
    """A factor phase change outside 0->a->m->0 (with stutter)."""


class NoEnabledAction(SupervisorError):
    def __init__(self, risk_state, v):
        super().__init__(
            f"no action enabled in risk state {risk_state} on input {encode_valuation(v)}"
        )
        self.risk_state = risk_state
        self.v = v


class MultipleEnabledActions(SupervisorError):
    pass


RiskState = dict  # factor name -> phase, total over F


def risk_state_name(r: RiskState, factors: list[str]) -> str:
    """Stable readable identifier, e.g. HS0_HCa_HRW0 (factor decl order)."""
    return "_".join(f"{f}{r[f]}" for f in factors)


def check_lifecycle(r: RiskState, r2: RiskState, factors: list[str]) -> None:
    for f in factors:
        p, q = r[f], r2[f]
        if p != q and (p, q) not in _ALLOWED_PHASE_STEPS:
            raise LifecycleViolation(f"factor {f}: phase change {p} -> {q} not allowed")


def derive_action_name(factors: list[str], r: RiskState, r2: RiskState) -> str:
    """Name from the changed factors: `<factor><newPhase>` segments joined
    by `_` in factor declaration order; `nop` when nothing changes."""
    check_lifecycle(r, r2, factors)
    parts = [f"{f}{r2[f]}" for f in factors if r[f] != r2[f]]
    return "_".join(parts) if parts else "nop"


@dataclass(frozen=True)
class GuardedAction:
    name: str
    guard: GuardExpr
    source: tuple  # risk state as sorted (factor, phase) pairs
    output: Valuation | None
    target: tuple

    def source_state(self) -> RiskState:
        return dict(self.source)

    def target_state(self) -> RiskState:
        return dict(self.target)


def _freeze(r: RiskState) -> tuple:
    return tuple(sorted(r.items()))


@dataclass
class GuardedActionProgram:
    """Executable IR of the controller: a deterministic guarded-action list."""

    input_vars: list[VarDecl]
    output_vars: list[VarDecl]
    factors: list[str]
    initial: RiskState
    actions: list[GuardedAction]
    policy: str = POLICY_ERROR
    # "strict" rejects overlapping guards at run time; "first" picks the
    # first enabled action in declaration order (used for mutants, whose
    # perturbed guards may overlap).
    resolution: str = "strict"

    def risk_states(self) -> list[RiskState]:
        """Distinct risk states used by the program (sources, targets,
        initial), in first-occurrence order."""
        seen = []
        for r in [self.initial] + [
            s for a in self.actions for s in (a.source_state(), a.target_state())
        ]:
            if r not in seen:
                seen.append(r)
        return seen

    def to_obj(self) -> dict:
        return {
            "input_vars": [d.to_obj() for d in self.input_vars],
            "output_vars": [d.to_obj() for d in self.output_vars],
            "factors": list(self.factors),
            "initial": dict(self.initial),
            "policy": self.policy,
            "resolution": self.resolution,
            "actions": [
                {
                    "name": a.name,
                    "guard": print_guard(a.guard),
                    "source": dict(a.source),
                    "output": a.output,
                    "target": dict(a.target),
                }
                for a in self.actions
            ],
        }

    @classmethod
    def from_obj(cls, obj: dict) -> "GuardedActionProgram":
        input_vars = [decl_from_obj(d) for d in obj["input_vars"]]
        output_vars = [decl_from_obj(d) for d in obj["output_vars"]]
        actions = [
            GuardedAction(
                a["name"],
                parse_guard(a["guard"], input_vars),
                _freeze(a["source"]),
                a["output"],
                _freeze(a["target"]),
            )
            for a in obj["actions"]
        ]
        return cls(
            input_vars,
            output_vars,
            list(obj["factors"]),
            dict(obj["initial"]),
            actions,
            obj.get("policy", POLICY_ERROR),
            obj.get("resolution", "strict"),
        )


class Interpreter:
    """Steps a guarded-action program; the stand-in for deployed code.

    Holds the current risk state; one instance per SUT session.
    """

    def __init__(self, program: GuardedActionProgram):
        self.program = program
        self.risk_state: RiskState = dict(program.initial)

    def reset(self) -> None:
        self.risk_state = dict(self.program.initial)

    restart = reset  # nothing to respawn in-process

    def step(self, v: Valuation) -> Valuation | None:
        output, self.risk_state = interpret_step(self.program, v, self.risk_state)
        return output


def interpret_step(
    p: GuardedActionProgram, v: Valuation, r: RiskState
) -> tuple[Valuation | None, RiskState]:
    """Output and next risk state of the unique enabled action.

    With the `complete-with-selfloop` policy an uncovered input yields the
    nil output and leaves the risk state unchanged.
    """
    frozen = _freeze(r)
    enabled = [
        a for a in p.actions if a.source == frozen and eval_guard(a.guard, v)
    ]
    if len(enabled) > 1 and p.resolution == "strict":
        raise MultipleEnabledActions(
            f"actions {enabled[0].name!r} and {enabled[1].name!r} both enabled "
            f"in {risk_state_name(r, p.factors)} on {encode_valuation(v)}"
        )
    if not enabled:
        if p.policy == POLICY_SELFLOOP:
            return None, dict(r)
        raise NoEnabledAction(r, v)
    a = enabled[0]
    return a.output, a.target_state()


# ---------------------------------------------------------------------------
# Controller behaviour loading
# ---------------------------------------------------------------------------

@dataclass
class ControllerBehavior:
    """Deserialized controller fragment of the synthesised transition relation."""

    input_vars: list[VarDecl]
    output_vars: list[VarDecl]
    factor_vars: list[VarDecl]
    initial: RiskState
    transitions: list[dict]  # {source, guard: GuardExpr, output, target}
    warnings: list[str] = field(default_factory=list)

    @property
    def factors(self) -> list[str]:
        return [d.name for d in self.factor_vars]


def behavior_from_obj(obj: dict) -> ControllerBehavior:
    decls = [decl_from_obj(d) for d in obj["vars"]]
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
    initial = {str(k): str(v) for k, v in obj["initial"].items()}
    _check_risk_state(initial, factors)
    transitions = []
    for t in obj["transitions"]:
        source = {str(k): str(v) for k, v in t["source"].items()}
        target = {str(k): str(v) for k, v in t["target"].items()}
        _check_risk_state(source, factors)
        _check_risk_state(target, factors)
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


def _check_risk_state(r: RiskState, factors: list[str]) -> None:
    if set(r) != set(factors):
        raise SupervisorError(
            f"risk state {r} does not assign exactly the factors {factors}"
        )
    for f, p in r.items():
        if p not in PHASES:
            raise SupervisorError(f"unknown phase {p!r} for factor {f}")


def load_behavior(path) -> ControllerBehavior:
    """Parse and validate a `.cb` behaviour file, naming it on failure."""
    return read_artifact(path, behavior_from_obj)


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
        b.input_vars, b.output_vars, b.factors, dict(b.initial), actions, policy
    )
    _check_program_determinism(program)
    return program


def _check_program_determinism(p: GuardedActionProgram) -> None:
    """Checked per truth class of the program's guards (see `truth_classes`)."""
    by_source: dict[tuple, list[GuardedAction]] = {}
    for a in p.actions:
        by_source.setdefault(a.source, []).append(a)
    shared = [(source, actions) for source, actions in by_source.items() if len(actions) > 1]
    if not shared:
        return
    classes = truth_classes(distinct_guards(a.guard for a in p.actions), p.input_vars)
    for source, actions in shared:
        for _, v, _ in classes:
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

@dataclass
class HypothesisReport:
    state_count_program: int
    state_count_reference: int
    guard_diffs: list[str] = field(default_factory=list)

    @property
    def state_count_ok(self) -> bool:
        return self.state_count_program == self.state_count_reference

    @property
    def ok(self) -> bool:
        return self.state_count_ok and not self.guard_diffs

    def summary(self) -> str:
        lines = [
            f"control states: program={self.state_count_program} "
            f"reference={self.state_count_reference} "
            f"[{'PASS' if self.state_count_ok else 'FAIL'}]",
        ]
        if self.guard_diffs:
            lines.append("guard diffs:")
            lines.extend(f"  {d}" for d in self.guard_diffs)
        lines.append(f"hypotheses: {'PASS' if self.ok else 'FAIL'}")
        return "\n".join(lines)


def check_hypotheses(p: GuardedActionProgram, r: Sfsm) -> HypothesisReport:
    """Static checks: same control-state count, same guards per state.

    Guards are compared as multisets of canonical texts, per risk state.
    """
    program_states = {
        risk_state_name(s, p.factors) for s in p.risk_states()
    }
    report = HypothesisReport(len(program_states), len(r.states))

    def guard_multiset(guards) -> dict[str, int]:
        counts: dict[str, int] = {}
        for g in guards:
            text = print_guard(g)
            counts[text] = counts.get(text, 0) + 1
        return counts

    for state in sorted(program_states | set(r.states)):
        prog_guards = guard_multiset(
            a.guard
            for a in p.actions
            if risk_state_name(a.source_state(), p.factors) == state
        )
        ref_guards = guard_multiset(t.guard for t in r.outgoing(state))
        if prog_guards != ref_guards:
            only_p = sorted(set(prog_guards) - set(ref_guards))
            only_r = sorted(set(ref_guards) - set(prog_guards))
            detail = []
            if only_p:
                detail.append(f"program only: {only_p}")
            if only_r:
                detail.append(f"reference only: {only_r}")
            if not detail:
                detail.append("multiplicity differs")
            report.guard_diffs.append(f"state {state}: " + "; ".join(detail))
    return report
