"""Test execution against a system under test: the client side of the wire protocol.

Wire protocol (UTF-8, newline-delimited):

    harness -> SUT:  RESET            | IN <valuation>
    SUT -> harness:  READY            | OUT <valuation> | ERR <message>

where <valuation> is the canonical single-line encoding with keys sorted
ascending (or the bare token ``nil``).  The adapter boundary is a pair of
pipes, so any generated controller can be wrapped regardless of language.
A behaviour, a program or a Mealy machine, is anything with an `initial`
state and a `step` from a (state, input) pair to (next state, output); one
runs in-process as `LocalSut(behaviour)`, or as a SUT that answers by
`program.answerer(behaviour, read)`, the SUT side, which serves a program
(`serve_reference`) and a machine (`serve_machine`) alike.  A SUT given as
a command line is exec'd as a child process.  The reference SUT of a
program file is served in-line instead: the adapter reads the program
from the file and hands the lines it would write to a pipe straight to
its `program.reference_answerer`, so that it starts no process.

A SUT is given a suite's cases once, by `plan(cases)`, and runs them in
that order: `reset()` starts the next case, and `step()` returns the
output of its next input.

A SUT answers every line, in order.  The harness sends RESET and all of a
case's IN lines before it reads the first reply, and the lines of the cases
that follow while they fit in `WINDOW` bytes (64 KiB, about what one pipe
holds) past the current case, so a SUT may receive later cases' lines
before it has answered the current one, and a session costs the SUT's own
work rather than one round trip per step or per case.  It writes them
without blocking while it reads, so a case may be longer than a pipe holds.
The replies that follow a case's first mismatch are read and discarded; a
SUT restarted after it exited, answered ERR or timed out is sent again the
cases that were in flight past the current one.
"""

from __future__ import annotations

import os
import select
import shlex
import subprocess
import tempfile
import time
from collections import deque
from collections.abc import Iterator

from .encoding import NIL_TEXT, ArtifactError, decode_step, encode_compact, encode_step
from .guards import Record
from .program import (
    DEBUG_ENV,
    DEFAULT_STEP_TIMEOUT,
    MEMO_SIZE,
    GuardedActionProgram,
    load_program,
    reference_answerer,
)

# Lines of a SUT's standard error quoted when it fails to start.
STDERR_TAIL_LINES = 5

PASS = "PASS"
FAIL = "FAIL"
ERROR = "ERROR"


class HarnessError(Exception):
    pass


class SutStartError(HarnessError):
    """A freshly started SUT exited or answered its first RESET with
    something other than READY: no case can run, so the run ends instead of
    yielding verdicts."""


class Verdict(Record):
    """One case's outcome.  Unlike other records its fields can be assigned,
    as a dataclass's can: it is built once per case, and a record that
    refuses assignment must set each field through a call, at about three
    times the cost."""

    __slots__ = ("case_index", "status", "step_index", "input_sent", "expected_output",
                 "observed_output", "detail")
    __hash__ = None
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    case_index: int
    status: str  # PASS | FAIL | ERROR
    step_index: int | None
    input_sent: dict | None
    expected_output: dict | None
    observed_output: dict | None
    detail: str | None

    def __init__(self, case_index, status, step_index=None, input_sent=None,
                 expected_output=None, observed_output=None, detail=None):
        self.case_index = case_index
        self.status = status
        self.step_index = step_index
        self.input_sent = input_sent
        self.expected_output = expected_output
        self.observed_output = observed_output
        self.detail = detail

    def to_obj(self) -> dict:
        return {
            "case": self.case_index,
            "status": self.status,
            "step": self.step_index,
            "input": self.input_sent,
            "expected": self.expected_output,
            "observed": self.observed_output,
            "detail": self.detail,
        }


# Verdicts encoded by one call of the encoder, one text part of a report
VERDICTS_PER_PART = 512


class TestReport(Record):
    __test__ = False  # not a pytest class
    __slots__ = ("method", "m_bound", "verdicts", "duration")
    _defaults = {"verdicts": (), "duration": 0.0}
    __hash__ = None
    method: str
    m_bound: int
    verdicts: list[Verdict]
    duration: float

    @property
    def counts(self) -> dict:
        c = {PASS: 0, FAIL: 0, ERROR: 0}
        for v in self.verdicts:
            c[v.status] += 1
        return c

    @property
    def complete_pass(self) -> bool:
        return bool(self.verdicts) and all(v.status == PASS for v in self.verdicts)

    def to_obj(self) -> dict:
        return self._document([v.to_obj() for v in self.verdicts])

    def to_artifact(self) -> dict:
        """`to_obj()` for `cli.write_artifact`, with the verdicts given
        lazily as the parts of their encoding, `VERDICTS_PER_PART` a part."""
        return self._document(self._verdict_parts())

    def _verdict_parts(self) -> Iterator[str]:
        verdicts = self.verdicts
        yield "["
        for start in range(0, len(verdicts), VERDICTS_PER_PART):
            part = [v.to_obj() for v in verdicts[start:start + VERDICTS_PER_PART]]
            yield ("," if start else "") + encode_compact(part)[1:-1]
        yield "]"

    def _document(self, verdicts) -> dict:
        return {"method": self.method, "mBound": self.m_bound, "verdicts": verdicts,
                "counts": self.counts, "completePass": self.complete_pass}

    def summary(self) -> str:
        c = self.counts
        lines = [
            f"cases: {len(self.verdicts)}  pass: {c[PASS]}  "
            f"fail: {c[FAIL]}  error: {c[ERROR]}",
        ]
        for v in self.verdicts:
            if v.status == FAIL:
                lines.append(
                    f"  case {v.case_index} FAIL at step {v.step_index}: "
                    f"sent {encode_step(v.input_sent)}, "
                    f"expected {encode_step(v.expected_output)}, "
                    f"observed {encode_step(v.observed_output)}"
                )
            elif v.status == ERROR:
                lines.append(f"  case {v.case_index} ERROR: {v.detail}")
        lines.append("verdict: " + ("COMPLETE PASS" if self.complete_pass else "NOT CONFORMING"))
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# SUTs: anything with plan(cases, abstract), reset(), step() and restart()
# ---------------------------------------------------------------------------

class LocalSut:
    """A behaviour, a program or a machine, stepped in-process by its `step`,
    which maps a (state, input) pair to (next state, output): `reset()`
    starts the planned cases' next one, and `step()` steps on its next
    input."""

    def __init__(self, behaviour):
        self.initial = self.state = behaviour.initial
        self._step = behaviour.step
        self._cases = iter(())

    def plan(self, cases, abstract: bool = False) -> None:
        """Nothing goes out ahead in-process, and outputs need no decoding."""
        self._cases = iter(cases)

    def reset(self) -> None:
        case = next(self._cases, None)
        if case is None:
            raise HarnessError("no planned case left")
        self.state = self.initial
        self._inputs = iter(case.inputs)

    def restart(self) -> None:
        """Nothing to respawn in-process."""

    def step(self):
        self.state, output = self._step((self.state, next(self._inputs)))
        return output


# Bytes of lines the adapter sends past the case being run, about what one
# pipe holds: a case goes out ahead while the lines past the current case fit,
# so a SUT that fails a case early is sent at most this much more.
WINDOW = 64 * 1024


class SutAdapter:
    """Starts and talks to one SUT; restarted after protocol errors.

    The SUT is `command`, a command line exec'd for each session, or, when
    there is none, the reference SUT of the program file `program`, served
    in-line: each session reads the file into a `program.reference_answerer`,
    and the lines queued for the SUT are handed to it instead of a pipe.

    `plan(cases)` gives the cases to run, in order; each `reset()` starts
    the next of them, and each `step()` reads the reply to its next input.
    A case's RESET and IN lines are queued together, and a case goes out
    before its `reset` as long as the lines queued past the current case
    fit in `WINDOW` bytes: the SUT may receive later cases' lines before it
    has answered the current one.  While it waits for a reply, the adapter
    writes as much of the queue as the SUT's input pipe takes, without
    blocking, so a case longer than a pipe holds goes out as the SUT reads
    it, and `step_timeout` bounds the write as well as the wait.  Replies a
    case leaves unread, because it stopped at a mismatch, are read and
    discarded at the next `reset`, and so are those of the cases in flight
    when a new plan is given; a SUT that exits, answers ERR or times out
    meanwhile is restarted, which changes no verdict.  A restarted SUT is
    sent again every case that was in flight past the current one.

    A freshly started SUT that exits, stays silent, or answers its first
    RESET with anything but READY raises SutStartError naming the command,
    the failure and the end of the SUT's standard error, which goes to a
    temporary file so that no pipe can fill up.  A program file that cannot
    be read raises SutStartError at `start`, with the reader's own error
    when `SUPTEST_DEBUG=1` is set.

    A suite repeats few distinct inputs and replies, so the adapter encodes
    the IN line of each distinct input object of the plan once, and knows
    it by identity: the plan holds the input, so that its id is not reused,
    and the planned cases must not change while they run.  A suite built in
    memory (`sfsm.concretize_suite`) or read from a file
    (`TestSuite.from_obj`) holds one object for each distinct valuation.
    The adapter decodes each distinct OUT line once and remembers the first
    `MEMO_SIZE`; a decoded reply is handed to every step that reads the same
    line, so no one may change it.
    """

    def __init__(self, command: str | list[str] | None = None,
                 step_timeout: float = DEFAULT_STEP_TIMEOUT, *, program=None):
        if command is not None:
            self.command = shlex.split(command) if isinstance(command, str) else list(command)
            self.name = shlex.join(self.command)
        elif program is not None:
            self.command = None
            self.name = f"serving {program} in-line"
        else:
            raise ValueError("a SUT needs a command line or a program file")
        self.program = program
        self.step_timeout = step_timeout
        self.process: subprocess.Popen | None = None
        self._answer = None  # the in-line SUT: its lines -> its replies
        self._stderr = None  # the SUT's standard error, a temporary file
        self._fresh = False  # started, and not yet answered READY
        self._in_ids: dict[int, bytes] = {}  # id of an input of the plan -> its IN line
        self._outputs: dict[str, dict | str | None] = {}  # OUT payload -> its value
        self._plan: list = []  # the cases `plan` announced
        self._planned = 0  # index in the plan of the first case not yet queued
        self._ahead: deque[tuple] = deque()  # (inputs, lines) queued past the current case
        self._ahead_bytes = 0
        self._clear()

    def _clear(self) -> None:
        self._outbox = bytearray()  # lines queued, not yet written
        self._unread = 0  # replies owed before the next case's READY
        self._replies: deque[str] = deque()  # replies read, not yet taken
        self._partial = b""  # the start of a reply whose newline is still to come

    def start(self) -> None:
        """A fresh SUT in place of the running one, if any, sent every case
        queued past the current one."""
        self.stop()
        if self.command is None:
            try:
                self._answer = reference_answerer(load_program(self.program))
            except ArtifactError as exc:
                if os.environ.get(DEBUG_ENV) == "1":
                    raise
                raise SutStartError(f"SUT {self.name} did not start: {exc}") from None
        else:
            self._stderr = tempfile.TemporaryFile()
            try:
                self.process = subprocess.Popen(
                    self.command,
                    stdin=subprocess.PIPE,
                    stdout=subprocess.PIPE,
                    stderr=self._stderr,
                )
            except OSError as exc:
                self.stop()  # closes the temporary file
                raise HarnessError(f"cannot start SUT {self.name}: {exc}") from exc
            os.set_blocking(self.process.stdin.fileno(), False)
            self._fresh = True  # an in-line SUT answers its first RESET with READY
        for _, lines in self._ahead:
            self._outbox += lines

    def stop(self) -> None:
        if self.process is not None:
            try:
                self.process.stdin.close()
            except OSError:
                pass
            self.process.terminate()
            try:
                self.process.wait(timeout=2.0)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
            self.process.stdout.close()
            self.process = None
        self._answer = None
        if self._stderr is not None:
            self._stderr.close()
            self._stderr = None
        self._clear()

    def restart(self) -> None:
        self.start()

    def _receive(self) -> str:
        """The next reply, waiting at most `step_timeout` for it and writing
        the queued lines meanwhile; an in-line SUT is handed them all."""
        if self._replies:
            return self._replies.popleft()
        if self._answer is not None:  # it answers every line queued, each with one reply
            self._take(self._answer(self._outbox))
            self._outbox.clear()
            return self._replies.popleft()
        if self.process is None:
            raise HarnessError("SUT process not running")
        sut_in, sut_out = self.process.stdin.fileno(), self.process.stdout.fileno()
        deadline = time.monotonic() + self.step_timeout
        while not self._replies:
            if self._outbox:
                try:
                    del self._outbox[:os.write(sut_in, self._outbox)]
                except BlockingIOError:
                    pass  # the pipe is full
                except OSError:  # its input is closed; what it wrote still counts
                    self._outbox.clear()
            readable, writable, _ = select.select(
                [sut_out], [sut_in] if self._outbox else [], [],
                max(0.0, deadline - time.monotonic()))
            if not readable:
                if writable and time.monotonic() < deadline:
                    continue  # room for more of the queue
                raise HarnessError(f"SUT did not answer within {self.step_timeout}s")
            data = os.read(sut_out, 65536)
            if not data and not self._partial:
                raise self._gone()
            # at the end of output, a last reply without its newline still counts
            self._take(data or b"\n")
        return self._replies.popleft()

    def _take(self, data: bytes) -> None:
        """Queue the replies that `data`, the SUT's next output, completes."""
        complete, newline, self._partial = (self._partial + data).rpartition(b"\n")
        if newline:
            text = complete.decode("utf-8", "replace")
            lines = text.split("\n")
            self._replies.extend([line.rstrip("\r") for line in lines] if "\r" in text
                                 else lines)

    def _discard(self, count: int) -> bool:
        """Read and drop the next `count` replies; False if the SUT exited,
        answered ERR or timed out meanwhile."""
        try:
            for _ in range(count):
                if self._receive().startswith("ERR "):
                    return False
        except HarnessError:
            return False
        return True

    def _gone(self) -> HarnessError:
        """The error for a SUT whose pipes have closed, naming its exit code."""
        try:
            code = self.process.wait(timeout=self.step_timeout)
        except subprocess.TimeoutExpired:
            return HarnessError("SUT closed its pipes but did not exit")
        return HarnessError(f"SUT exited with code {code}")

    def _start_failure(self, cause: str) -> SutStartError:
        """The error for a fresh SUT that failed its first RESET with `cause`,
        quoting the last lines of its standard error."""
        self._stderr.seek(0, os.SEEK_END)
        self._stderr.seek(max(0, self._stderr.tell() - 4096))
        lines = self._stderr.read().decode("utf-8", "replace").splitlines()
        tail = [line for line in lines if line.strip()][-STDERR_TAIL_LINES:]
        quoted = "".join("\n  " + line for line in tail) if tail else " (nothing)"
        return SutStartError(f"SUT {self.name} did not start: {cause}; "
                             f"its standard error ends with:{quoted}")

    def plan(self, cases, abstract: bool = False) -> None:
        """Run `cases`, each with its `inputs`, in this order: each `reset`
        starts the next of them.  The IN line of each distinct input object
        of the cases is encoded now, once.  The replies of the cases queued
        past the current one for an earlier plan are read and discarded at
        the next `reset`.  The cases of an `abstract` suite expect FSM
        labels, so `OUT nil` is read as the label `nil` (`sfsm.NIL_LABEL`)
        instead of the nil output (None) of a concrete suite."""
        self._outputs[NIL_TEXT] = NIL_TEXT if abstract else None
        self._plan, self._planned = cases, 0
        self._unread += sum(1 + len(inputs) for inputs, _ in self._ahead)
        self._ahead.clear()
        self._ahead_bytes = 0
        inputs = {id(v): v for case in cases for v in case.inputs}
        self._in_ids = {key: f"IN {encode_step(v)}\n".encode() for key, v in inputs.items()}

    def _upcoming(self) -> tuple | None:
        """(inputs, lines) of the first planned case not yet queued, if any:
        its inputs, and its RESET and IN lines, encoded."""
        if self._planned == len(self._plan):
            return None
        inputs = self._plan[self._planned].inputs
        return inputs, b"RESET\n" + b"".join(map(self._in_ids.__getitem__, map(id, inputs)))

    def _fill(self) -> None:
        """Queue planned cases past the current one while their lines fit in
        `WINDOW` bytes."""
        while (case := self._upcoming()) is not None \
                and self._ahead_bytes + len(case[1]) <= WINDOW:
            self._ahead.append(case)
            self._ahead_bytes += len(case[1])
            self._outbox += case[1]
            self._planned += 1

    def reset(self) -> None:
        """RESET, to start the plan's next case, with the cases that follow
        sent ahead."""
        case = self._ahead[0] if self._ahead else self._upcoming()
        if case is None:
            raise HarnessError("no planned case left")
        if not self._discard(self._unread):  # what the current case left unread
            self.restart()
        if self._ahead:  # the case went out ahead
            self._ahead.popleft()
            self._ahead_bytes -= len(case[1])
        else:  # longer than the window allows ahead
            self._outbox += case[1]
            self._planned += 1
        self._unread = len(case[0])
        self._fill()
        try:
            reply = self._receive()
            if reply != "READY":
                raise HarnessError(f"expected READY after RESET, got {reply!r}")
        except HarnessError as exc:
            if self._fresh:
                raise self._start_failure(str(exc)) from None
            raise
        self._fresh = False

    def step(self) -> dict | str | None:
        """The reply to the current case's next input, decoded."""
        if not self._unread:
            raise HarnessError("the case has no input left")
        self._unread -= 1
        reply = self._receive()
        if reply.startswith("OUT "):
            payload = reply[4:]
            if payload in self._outputs:
                return self._outputs[payload]
            try:
                output = decode_step(payload)
            except ValueError:
                raise HarnessError(f"malformed SUT reply {reply!r}") from None
            if len(self._outputs) < MEMO_SIZE:
                self._outputs[payload] = output
            return output
        if reply.startswith("ERR "):
            raise HarnessError(f"SUT error reply: {reply[4:]}")
        raise HarnessError(f"unexpected SUT reply {reply!r}")

    def __enter__(self):
        self.start()
        return self

    def __exit__(self, *exc):
        self.stop()


# ---------------------------------------------------------------------------
# Suite execution
# ---------------------------------------------------------------------------

def verdicts(sut, ts) -> Iterator[Verdict]:
    """Run a suite case by case, yielding each case's verdict as it is consumed.

    `sut` is any object with plan(cases, abstract), reset(), step() and
    restart().  The run gives it the suite's cases first, and whether the
    suite is abstract; then each case resets it, which starts the case, and
    checks the output of every step on the case's inputs; a case stops at
    its first mismatch.  An exception from the SUT yields ERROR with its
    text, then a restart; a SUT that cannot start (SutStartError) ends the
    run instead.
    """
    sut.plan(ts.cases, not ts.concrete)
    for index, case in enumerate(ts.cases):
        try:
            sut.reset()
            verdict = Verdict(index, PASS)
            for step_index, expected in enumerate(case.expected):
                observed = sut.step()
                if observed != expected:
                    verdict = Verdict(index, FAIL, step_index, case.inputs[step_index],
                                      expected, observed)
                    break
        except SutStartError:
            raise
        except Exception as exc:
            verdict = Verdict(index, ERROR, detail=str(exc))
            sut.restart()
        yield verdict


def run_suite(sut, ts) -> TestReport:
    """Every case's verdict against `sut`, collected into a report."""
    started = time.monotonic()
    found = list(verdicts(sut, ts))
    return TestReport(ts.method, ts.m_bound, found, time.monotonic() - started)


def run_suite_offline(program: GuardedActionProgram, ts) -> TestReport:
    """Interpret the program directly, bypassing the protocol layer.

    Used to cross-check the harness: verdicts must agree with run_suite
    against the same program served as a reference SUT.
    """
    if not ts.concrete:
        raise HarnessError("run_suite_offline needs a concrete suite")
    return run_suite(LocalSut(program), ts)
