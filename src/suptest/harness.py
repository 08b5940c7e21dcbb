"""Test execution against a system under test: the client side of the wire protocol.

Wire protocol (UTF-8, newline-delimited):

    harness -> SUT:  RESET            | IN <valuation>
    SUT -> harness:  READY            | OUT <valuation> | ERR <message>

where <valuation> is the canonical single-line encoding with keys sorted
ascending (or the bare token ``nil``).  The adapter boundary is a child
process, so any generated controller can be wrapped regardless of language.
The SUT side, `serve_reference` and its loop, lives in `program`, so that
a spawned reference SUT loads none of this module.

A SUT answers every line, in order.  The harness may send RESET and all of
a case's IN lines before it reads the first reply, so a session costs the
SUT's own work rather than one round trip per step; it writes them without
blocking while it reads, so a case may be longer than a pipe holds.  The
replies that follow a case's first mismatch are read and discarded.
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
from dataclasses import dataclass, field

from .encoding import decode_step, encode_step, encode_valuation
from .program import DEFAULT_STEP_TIMEOUT, MEMO_SIZE, GuardedActionProgram, Interpreter, _serve

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


@dataclass
class Verdict:
    case_index: int
    status: str  # PASS | FAIL | ERROR
    step_index: int | None = None
    input_sent: dict | None = None
    expected_output: dict | None = None
    observed_output: dict | None = None
    detail: str | None = None

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


@dataclass
class TestReport:
    __test__ = False  # not a pytest class

    method: str
    m_bound: int
    verdicts: list[Verdict] = field(default_factory=list)
    duration: float = 0.0

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
        return {
            "method": self.method,
            "mBound": self.m_bound,
            "verdicts": [v.to_obj() for v in self.verdicts],
            "counts": self.counts,
            "completePass": self.complete_pass,
        }

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
                    f"sent {encode_valuation(v.input_sent)}, "
                    f"expected {encode_valuation(v.expected_output)}, "
                    f"observed {encode_valuation(v.observed_output)}"
                )
            elif v.status == ERROR:
                lines.append(f"  case {v.case_index} ERROR: {v.detail}")
        lines.append("verdict: " + ("COMPLETE PASS" if self.complete_pass else "NOT CONFORMING"))
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# SUTs: anything with reset(inputs), step(input) and restart()
# ---------------------------------------------------------------------------

class MachineSut:
    """A Mealy machine stepped in-process on bare input symbols."""

    def __init__(self, machine):
        self.machine = machine
        self.state = machine.initial

    def reset(self, inputs=()) -> None:
        self.state = self.machine.initial

    restart = reset  # nothing to respawn in-process

    def step(self, symbol: str) -> str:
        entry = self.machine.transitions.get((self.state, symbol))
        if entry is None:
            raise HarnessError(f"no transition on {symbol!r}")
        self.state, output = entry
        return output


# Value types of an input the adapter remembers the encoding of: each
# encodes the same way whenever it is equal in value and type.
_SCALARS = frozenset((str, int, bool))


def _input_key(v):
    """A key that two inputs share only if they encode alike: a bare symbol
    itself, or a valuation's items with the types of its values, when its
    names are strings and its values are of `_SCALARS`; otherwise None."""
    if isinstance(v, str):
        return v
    if not isinstance(v, dict):
        return None
    types = tuple(map(type, v.values()))
    if not _SCALARS.issuperset(types) or not all(type(k) is str for k in v):
        return None
    return tuple(v.items()), types


class SutAdapter:
    """Spawns and talks to one SUT process; restarted after protocol errors.

    `reset(inputs)` announces a case: RESET and the case's IN lines are
    queued together, and each `step` reads the next reply.  While it waits
    for a reply, the adapter writes as much of the queue as the SUT's
    input pipe takes, without blocking, so a case longer than a pipe holds
    goes out as the SUT reads it, and `step_timeout` bounds the write as
    well as the wait.  Replies a case leaves unread, because it stopped at
    a mismatch, are read and discarded at the next `reset`; a SUT that
    exits, answers ERR or times out meanwhile is restarted, which changes
    no verdict.  A `step` with no announced input is sent on its own.

    A freshly started SUT that exits, stays silent, or answers its first
    RESET with anything but READY raises SutStartError naming the command,
    the failure and the end of the SUT's standard error, which goes to a
    temporary file so that no pipe can fill up.

    A suite repeats few distinct inputs and replies, so the adapter encodes
    each distinct input, and decodes each distinct OUT line, once, and
    remembers the first `MEMO_SIZE` of each.  An input is known by its
    values and their types, as `True` and `1` are equal but go out as
    different lines.  A decoded reply is handed to every step that reads
    the same line, so no one may change it.
    """

    def __init__(self, command: str | list[str], step_timeout: float = DEFAULT_STEP_TIMEOUT):
        self.command = shlex.split(command) if isinstance(command, str) else list(command)
        self.step_timeout = step_timeout
        self.process: subprocess.Popen | None = None
        self._stderr = None  # the SUT's standard error, a temporary file
        self._fresh = False  # started, and not yet answered READY
        self._in_lines: dict = {}  # input key -> its IN line, encoded
        self._outputs: dict[str, dict | str | None] = {}  # OUT payload -> its value
        self._clear()

    def _clear(self) -> None:
        self._announced: deque = deque()  # inputs announced at reset, not yet stepped
        self._outbox = bytearray()  # lines queued, not yet written
        self._owed = 0  # replies to the lines queued or written, not yet taken
        self._replies: deque[str] = deque()  # replies read, not yet taken
        self._partial = b""  # the start of a reply whose newline is still to come

    def start(self) -> None:
        self.stop()
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
            raise HarnessError(f"cannot start SUT {shlex.join(self.command)}: {exc}") from exc
        os.set_blocking(self.process.stdin.fileno(), False)
        self._fresh = True

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
        if self._stderr is not None:
            self._stderr.close()
            self._stderr = None
        self._clear()

    def restart(self) -> None:
        self.start()

    def _receive(self) -> str:
        """The next reply, waiting at most `step_timeout` for it and writing
        the queued lines meanwhile."""
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
                except OSError:
                    raise self._gone() from None
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
            *lines, self._partial = (self._partial + (data or b"\n")).split(b"\n")
            self._replies.extend(line.decode("utf-8", "replace").rstrip("\r") for line in lines)
        self._owed -= 1
        return self._replies.popleft()

    def _drain(self) -> bool:
        """Send the rest of the queue, and read and discard every reply still
        owed; False if the SUT exited, answered ERR or timed out meanwhile."""
        self._announced.clear()
        try:
            while self._owed:
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
        return SutStartError(f"SUT {shlex.join(self.command)} did not start: {cause}; "
                             f"its standard error ends with:{quoted}")

    def _in_line(self, v) -> bytes:
        """The line `IN <v>`, encoded; remembered unless `v` has no key."""
        key = _input_key(v)
        if key is None:
            return f"IN {encode_step(v)}\n".encode()
        line = self._in_lines.get(key)
        if line is None:
            line = f"IN {encode_step(v)}\n".encode()
            if len(self._in_lines) < MEMO_SIZE:
                self._in_lines[key] = line
        return line

    def reset(self, inputs=()) -> None:
        """RESET, with the inputs of the case that follows sent ahead."""
        if not self._drain():
            self.restart()
        self._outbox += b"RESET\n" + b"".join(map(self._in_line, inputs))
        self._owed += 1 + len(inputs)
        self._announced.extend(inputs)
        try:
            reply = self._receive()
            if reply != "READY":
                raise HarnessError(f"expected READY after RESET, got {reply!r}")
        except HarnessError as exc:
            if self._fresh:
                raise self._start_failure(str(exc)) from None
            raise
        self._fresh = False

    def step(self, v) -> dict | str | None:
        if not self._announced:
            self._outbox += self._in_line(v)
            self._owed += 1
        elif self._announced.popleft() != v:
            raise HarnessError(f"input {encode_step(v)} is not the one announced at RESET")
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

    `sut` is any object with reset(inputs), step(input) and restart().  Each
    case resets it, announcing the case's inputs, and checks every
    intermediate output; a case stops at its first mismatch.  An exception
    from the SUT yields ERROR with its text, then a restart; a SUT that
    cannot start (SutStartError) ends the run instead.
    """
    for index, case in enumerate(ts.cases):
        try:
            sut.reset(case.inputs)
            verdict = Verdict(index, PASS)
            for step_index, (inp, expected) in enumerate(zip(case.inputs, case.expected)):
                observed = sut.step(inp)
                if observed != expected:
                    verdict = Verdict(index, FAIL, step_index, inp, expected, observed)
                    break
        except SutStartError:
            raise
        except Exception as exc:
            verdict = Verdict(index, ERROR, detail=str(exc))
            sut.restart()
        yield verdict


def run_suite(sut, ts) -> TestReport:
    """Every case's verdict against `sut`, collected into a report."""
    report = TestReport(ts.method, ts.m_bound)
    started = time.monotonic()
    report.verdicts = list(verdicts(sut, ts))
    report.duration = time.monotonic() - started
    return report


def run_suite_offline(program: GuardedActionProgram, ts) -> TestReport:
    """Interpret the program directly, bypassing the protocol layer.

    Used to cross-check the harness: verdicts must agree with run_suite
    against the same program served as a reference SUT.
    """
    if not ts.concrete:
        raise HarnessError("run_suite_offline needs a concrete suite")
    return run_suite(Interpreter(program), ts)


# ---------------------------------------------------------------------------
# Symbolic SUT
# ---------------------------------------------------------------------------

def serve_machine(machine, stdin=None, stdout=None) -> None:
    """Serve a Mealy machine over the wire protocol with bare symbols."""
    sut = MachineSut(machine)

    def answer(text: str) -> str:
        try:
            output = sut.step(text.strip())
        except Exception as exc:
            return f"ERR {exc}"
        return "OUT " + encode_step(output)

    _serve(sut.reset, answer, stdin, stdout)
