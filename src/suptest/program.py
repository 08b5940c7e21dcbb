"""The guarded-action program, its interpreter and the protocol server.

A guarded-action program is the executable stand-in for generated
controller code: per risk state, a list of actions, each a guard over the
monitored variables with an output valuation and a next risk state.  The
interpreter steps it, and `serve_reference` speaks the SUT side of the wire
protocol (see `harness`, the client side) for it on standard streams.

This is what `python -m suptest serve-reference PROGRAM` runs, once per SUT
session.  `__main__` sends that command line straight to `serve_program`,
without `cli` or `argparse`, and `cli` calls the same function, so a failure
ends the same way on both routes (`exit_code`).  This module imports nothing
of the toolkit beyond the encoding and the guard language, and through them
no `dataclasses` and none of the client's process machinery (`subprocess`,
`select`, `shlex`): only `json` and `re` besides `math`, `os`, `sys` and
`typing`.
"""

from __future__ import annotations

import os
import sys

from .encoding import decode_valuation, encode_step, encode_valuation, read_artifact
from .guards import (
    GuardExpr,
    Record,
    Valuation,
    VarDecl,
    check_valuation,
    decl_from_obj,
    eval_guard,
    parse_guard,
    print_guard,
)

# Seconds a SUT may take to answer one line, unless configured otherwise.
DEFAULT_STEP_TIMEOUT = 5.0

DEBUG_ENV = "SUPTEST_DEBUG"  # "1": a failing command raises, with its traceback

# Steps `serve_reference` remembers per session, as (risk state, IN payload)
# pairs; a suite repeats few of them, and past this many it stops storing.
MEMO_SIZE = 4096

# Incomplete-state policies: an input no action covers is refused, or
# answered with the nil output and no change of risk state.
POLICY_ERROR = "error"
POLICY_SELFLOOP = "complete-with-selfloop"


class SupervisorError(Exception):
    pass


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


class GuardedAction(Record):
    __slots__ = ("name", "guard", "source", "output", "target")
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


class GuardedActionProgram(Record):
    """Executable IR of the controller: a deterministic guarded-action list.

    `resolution` "strict" rejects overlapping guards at run time; "first"
    picks the first enabled action in declaration order (used for mutants,
    whose perturbed guards may overlap).  Unhashable, as its fields are
    lists.
    """

    __slots__ = ("input_vars", "output_vars", "factors", "initial", "actions",
                 "policy", "resolution")
    _defaults = {"policy": POLICY_ERROR, "resolution": "strict"}
    __hash__ = None
    input_vars: list[VarDecl]
    output_vars: list[VarDecl]
    factors: list[str]
    initial: RiskState
    actions: list[GuardedAction]
    policy: str
    resolution: str

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

    def reset(self, inputs=()) -> None:
        """Back to the initial risk state; the case's `inputs` are not needed."""
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
# The SUT side of the wire protocol
# ---------------------------------------------------------------------------

def _serve(reset, answer, stdin, stdout) -> None:
    """Protocol loop until EOF: RESET calls `reset`, and `answer` maps an IN
    payload to its reply line."""
    stdin = stdin if stdin is not None else sys.stdin
    stdout = stdout if stdout is not None else sys.stdout

    def reply(line: str) -> None:
        stdout.write(line + "\n")
        stdout.flush()

    for line in stdin:
        line = line.strip()
        if not line:
            continue
        if line == "RESET":
            reset()
            reply("READY")
        elif line.startswith("IN "):
            reply(answer(line[3:]))
        else:
            reply(f"ERR unknown command {line!r}")


def _read_input(program: GuardedActionProgram, text: str) -> tuple[Valuation | None, str | None]:
    """The valuation of `IN text`, checked against the declared inputs, and
    None; or None and the ERR reply that refuses it."""
    try:
        v = decode_valuation(text)
        if v is None:
            raise ValueError("nil is not a valid input")
        check_valuation(v, program.input_vars)
    except Exception as exc:
        return None, f"ERR {exc}"
    return v, None


def _step_reply(program: GuardedActionProgram, state: tuple,
                read: tuple[Valuation | None, str | None]) -> tuple[str, tuple]:
    """The reply to an IN line, `read` by `_read_input`, in the risk state
    whose items are `state`, and the items of the next risk state: `state`
    itself after an ERR reply."""
    v, refusal = read
    if refusal is not None:
        return refusal, state
    try:
        output, r = interpret_step(program, v, dict(state))
    except Exception as exc:
        return f"ERR {exc}", state
    return "OUT " + encode_step(output), tuple(r.items())


def serve_reference(program: GuardedActionProgram, stdin=None, stdout=None) -> None:
    """Speak the wire protocol on standard streams until EOF.

    Malformed input, and input outside the declared variables or their
    sorts, produces an ERR reply and leaves the state unchanged.  A reply
    and the next risk state depend only on the risk state and the payload,
    so the first `MEMO_SIZE` distinct pairs are remembered, and a repeated
    step is answered without decoding, checking, interpreting or encoding.
    Decoding and checking depend on the payload alone, so the first
    `MEMO_SIZE` distinct payloads are read once, whatever risk state they
    arrive in.
    """
    # a risk state is held as its items in order, which an ERR reply may print
    initial = tuple(program.initial.items())
    state = initial
    answered: dict = {}  # (risk state, payload) -> (reply, next risk state)
    read: dict = {}  # payload -> _read_input's result

    def reset() -> None:
        nonlocal state
        state = initial

    def answer(text: str) -> str:
        nonlocal state
        key = (state, text)
        known = answered.get(key)
        if known is None:
            checked = read.get(text)
            if checked is None:
                checked = _read_input(program, text)
                if len(read) < MEMO_SIZE:
                    read[text] = checked
            known = _step_reply(program, state, checked)
            if len(answered) < MEMO_SIZE:
                answered[key] = known
        reply, state = known
        return reply

    _serve(reset, answer, stdin, stdout)


def load_program(path) -> GuardedActionProgram:
    return read_artifact(path, GuardedActionProgram.from_obj)


def serve_program(path) -> int:
    """`serve-reference PROGRAM`: serve the program held in the file `path`
    on standard streams."""
    serve_reference(load_program(path))
    return 0


def exit_code(command, *args) -> int:
    """`command(*args)`, whose result is an exit code; a failure prints one
    `error: ...` line and gives 2, or is raised again with its traceback when
    `SUPTEST_DEBUG=1` is set."""
    try:
        return command(*args)
    except Exception as exc:
        if os.environ.get(DEBUG_ENV) == "1":
            raise
        print(f"error: {exc}", file=sys.stderr)
        return 2
