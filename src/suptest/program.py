"""The guarded-action program, its step function and the protocol server.

A guarded-action program is the executable stand-in for generated
controller code: per risk state, a list of actions, each a guard over the
monitored variables with an output valuation and a next risk state.  A
program is a behaviour, as a Mealy machine is: it has an `initial` state
and a `step` from a (state, input) pair to (next state, output).  The one
server of the wire protocol's SUT side (see `harness` for the client
side), `answerer`, answers any behaviour's lines: a program's
(`reference_answerer`) and a machine's alike.  `serve` speaks it on a pair
of streams, for `serve_reference` and `serve_machine`.

A risk state has one form here: its (factor, phase) pairs sorted by factor
(`RiskState`).  Actions hold it, `step` maps it, the server keys its memo
by it and the mutation oracle compares it.  Both readers, of a behaviour
file (`supervisor.behavior_from_obj`) and of a program file, read a risk
state into it once, by `_risk_state_at`, and a message prints it as a dict.

The reference SUT of a program file answers with `reference_answerer`
on every route: `pipeline`'s default SUT, which `harness.SutAdapter`
serves in-line, handing it the lines it would write to a pipe; the public
`python -m suptest serve-reference PROGRAM`, which `__main__` sends
straight to `serve_program`, without `cli` or `argparse`; and that
subcommand of `cli.main`.  This module imports nothing of the toolkit
beyond the encoding and the guard language, and through them no
`dataclasses`, no `pathlib` and none of the client's process machinery
(`subprocess`, `select`, `shlex`): only `json` and `re` besides `math`,
`os` and `sys`.
"""

from __future__ import annotations

import os
import sys

from .encoding import checked, decode_valuation, encode_step, read_artifact, value_at
from .guards import (
    PHASE_SORT,
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

# Steps `answerer` remembers per session, as (state, IN payload)
# pairs; a suite repeats few of them, and past this many it stops storing.
MEMO_SIZE = 4096

# Incomplete-state policies: an input no action covers is refused, or
# answered with the nil output and no change of risk state.
POLICY_ERROR = "error"
POLICY_SELFLOOP = "complete-with-selfloop"
POLICIES = (POLICY_ERROR, POLICY_SELFLOOP)


class SupervisorError(Exception):
    pass


class NoEnabledAction(SupervisorError):
    def __init__(self, risk_state, v):
        super().__init__(
            f"no action enabled in risk state {dict(risk_state)} "
            f"on input {encode_step(v)}"
        )
        self.risk_state = risk_state
        self.v = v


class MultipleEnabledActions(SupervisorError):
    pass


RiskState = tuple  # (factor, phase) pairs sorted by factor, total over F


def risk_state_name(r: RiskState, factors: list[str]) -> str:
    """Stable readable identifier, e.g. HS0_HCa_HRW0 (factor decl order)."""
    phases = dict(r)
    return "_".join(f"{f}{phases[f]}" for f in factors)


class GuardedAction(Record):
    __slots__ = ("name", "guard", "source", "output", "target")
    name: str
    guard: GuardExpr
    source: RiskState
    output: Valuation | None
    target: RiskState


def _freeze(r: dict) -> RiskState:
    return tuple(sorted(r.items()))


def _risk_state_at(obj: dict, key: str, factors: list[str]) -> RiskState:
    """The risk state `obj[key]`, which assigns each factor a phase."""
    r = value_at(obj, key, dict)
    if set(r) != set(factors):
        raise SupervisorError(
            f"risk state {r} does not assign exactly the factors {factors}"
        )
    for f, p in r.items():
        if checked(p, str, f"phase of factor {f}") not in PHASE_SORT:
            raise SupervisorError(f"unknown phase {p!r} for factor {f}")
    return _freeze(r)


class GuardedActionProgram(Record):
    """Executable IR of the controller: a deterministic guarded-action list.

    `resolution` "strict" rejects overlapping guards at run time; "first"
    picks the first enabled action in declaration order (used for mutants,
    whose perturbed guards may overlap).  `from_obj` refuses any other
    `resolution`, and a `policy` other than the two above.  Unhashable, as
    its fields are lists.
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
        """Distinct risk states used by the program (initial, then sources
        and targets), in first-occurrence order."""
        return list(dict.fromkeys(
            [self.initial] + [r for a in self.actions for r in (a.source, a.target)]))

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
        input_vars = [decl_from_obj(d) for d in value_at(obj, "input_vars", list, dict)]
        output_vars = [decl_from_obj(d) for d in value_at(obj, "output_vars", list, dict)]
        factors = list(value_at(obj, "factors", list, str))
        actions = [
            GuardedAction(
                value_at(a, "name", str),
                parse_guard(a["guard"], input_vars),
                _risk_state_at(a, "source", factors),
                a["output"],
                _risk_state_at(a, "target", factors),
            )
            for a in value_at(obj, "actions", list, dict)
        ]
        for a in actions:
            if a.output is not None:  # the nil output
                check_valuation(a.output, output_vars)
        return cls(
            input_vars,
            output_vars,
            factors,
            _risk_state_at(obj, "initial", factors),
            actions,
            value_at(obj, "policy", POLICIES, default=POLICY_ERROR),
            value_at(obj, "resolution", ("strict", "first"), default="strict"),
        )

    def step(self, pair: tuple[RiskState, Valuation]) -> tuple[RiskState, Valuation | None]:
        """Next risk state and output of the unique action enabled in risk
        state r on input v, for `pair` = (r, v).

        With the `complete-with-selfloop` policy an uncovered input leaves
        the risk state unchanged, with the nil output.
        """
        r, v = pair
        enabled = [a for a in self.actions if a.source == r and eval_guard(a.guard, v)]
        if len(enabled) > 1 and self.resolution == "strict":
            raise MultipleEnabledActions(
                f"actions {enabled[0].name!r} and {enabled[1].name!r} both enabled "
                f"in {risk_state_name(r, self.factors)} on {encode_step(v)}"
            )
        if not enabled:
            if self.policy == POLICY_SELFLOOP:
                return r, None
            raise NoEnabledAction(r, v)
        return enabled[0].target, enabled[0].output


def _read_input(program: GuardedActionProgram, text: str) -> Valuation:
    """The valuation of `IN text`, checked against the declared inputs."""
    v = decode_valuation(text)
    if v is None:
        raise ValueError("nil is not a valid input")
    check_valuation(v, program.input_vars)
    return v


# ---------------------------------------------------------------------------
# The SUT side of the wire protocol
# ---------------------------------------------------------------------------

def answerer(behaviour, read):
    """The SUT side of the wire protocol for `behaviour`: a function from the
    bytes of complete lines, each ended by a newline, to the bytes of their
    replies.  RESET goes back to the behaviour's `initial` state, and
    `IN payload` is answered with the output of its
    `step((state, read(payload)))`, which gives (next state, output); the
    state carries over from one call to the next.

    An exception from `read` or `step` is answered with an ERR reply and
    leaves the state unchanged.  A reply and the next state depend only on
    the state and the line, so the first `MEMO_SIZE` distinct pairs of a
    state and a line other than RESET are remembered, and a repeated line
    is answered without parsing, reading, stepping or encoding.  Reading
    depends on the payload alone, so the first `MEMO_SIZE` distinct
    payloads are read once, whatever state they arrive in.  Lines are read
    as UTF-8, where bytes that are not UTF-8 read as U+FFFD, and a blank
    line gets no reply.
    """
    initial, step = behaviour.initial, behaviour.step
    state = initial
    answered: dict = {}  # (state, line) -> (reply, next state)
    inputs: dict = {}  # payload -> its input, or the exception that refused it

    def work_out(state, line: str) -> tuple[str, object]:
        """The reply to `line` in `state`, empty for a blank line, and the
        next state."""
        line = line.strip()
        if line == "RESET":
            return "READY\n", initial
        if not line.startswith("IN "):
            return (f"ERR unknown command {line!r}\n" if line else ""), state
        text = line[3:]
        if text in inputs:
            x = inputs[text]
        else:
            try:
                x = read(text)
            except Exception as exc:
                x = exc.with_traceback(None)  # its traceback would keep `read`'s frames
            if len(inputs) < MEMO_SIZE:
                inputs[text] = x
        if isinstance(x, Exception):
            return f"ERR {x}\n", state
        try:
            target, output = step((state, x))
        except Exception as exc:
            return f"ERR {exc}\n", state
        return f"OUT {encode_step(output)}\n", target

    def answer(block) -> bytes:
        nonlocal state
        lines = block.decode("utf-8", "replace").split("\n")
        lines.pop()  # what follows the last newline
        replies = []
        for line in lines:
            if line == "RESET":
                state = initial
                replies.append("READY\n")
                continue
            key = (state, line)
            known = answered.get(key)
            if known is None:
                known = work_out(*key)
                if len(answered) < MEMO_SIZE:
                    answered[key] = known
            reply, state = known
            replies.append(reply)
        return "".join(replies).encode("utf-8", "backslashreplace")

    return answer


def reference_answerer(program: GuardedActionProgram):
    """`answerer` of `program`: malformed input, and input outside the
    declared variables or their sorts, produces an ERR reply and leaves the
    state unchanged."""
    return answerer(program, lambda text: _read_input(program, text))


def serve(answer, stdin=None, stdout=None) -> None:
    """Speak the wire protocol with the `answerer` function `answer` until
    EOF, on the binary streams `stdin` and `stdout`, by default the buffers
    of the standard streams.

    Each pass hands `answer` every complete line that one `read1` returned
    and writes the replies with one write and a flush before it reads
    again, so a client that sends one line and waits gets its reply, and a
    client that sends many gets theirs in few writes.  A carriage return
    ends a line as a newline does, and so does the end of input.
    """
    stdin = stdin if stdin is not None else sys.stdin.buffer
    stdout = stdout if stdout is not None else sys.stdout.buffer
    rest = b""  # the start of a line whose end is still to come
    while True:
        data = stdin.read1(65536)
        text = (rest + (data or b"\n")).replace(b"\r", b"\n")
        end = text.rfind(b"\n") + 1
        rest = text[end:]
        block = answer(text[:end])
        if block:
            stdout.write(block)
            stdout.flush()
        if not data:
            return


def serve_reference(program: GuardedActionProgram, stdin=None, stdout=None) -> None:
    """Serve `program` over the wire protocol on standard streams until EOF."""
    serve(reference_answerer(program), stdin, stdout)


def serve_machine(machine, stdin=None, stdout=None) -> None:
    """Serve a Mealy machine over the wire protocol with bare symbols."""
    serve(answerer(machine, str.strip), stdin, stdout)


def load_program(path) -> GuardedActionProgram:
    return read_artifact(path, GuardedActionProgram.from_obj)


def serve_program(path) -> int:
    """`serve-reference PROGRAM`: serve the program held in the file `path`
    on the standard streams."""
    serve_reference(load_program(path))
    return 0


def exit_code(command, *args) -> int:
    """`command(*args)`, whose result is an exit code; a failure writes one
    `error: ...` line to the standard error and gives 2, or is raised again
    with its traceback when `SUPTEST_DEBUG=1` is set."""
    try:
        return command(*args)
    except Exception as exc:
        if os.environ.get(DEBUG_ENV) == "1":
            raise
        print(f"error: {exc}", file=sys.stderr)
        return 2
