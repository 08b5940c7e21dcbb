"""Test execution against a system under test over a line-oriented protocol.

Wire protocol (UTF-8, newline-delimited):

    harness -> SUT:  RESET            | IN <valuation>
    SUT -> harness:  READY            | OUT <valuation> | ERR <message>

where <valuation> is the canonical single-line encoding with keys sorted
ascending (or the bare token ``nil``).  The adapter boundary is a child
process, so any generated controller can be wrapped regardless of language.
"""

from __future__ import annotations

import queue
import shlex
import subprocess
import sys
import threading
import time
from collections.abc import Iterator
from dataclasses import dataclass, field

from .encoding import decode_step, decode_valuation, encode_step, encode_valuation
from .guards import check_valuation
from .supervisor import GuardedActionProgram, Interpreter

DEFAULT_STEP_TIMEOUT = 5.0

PASS = "PASS"
FAIL = "FAIL"
ERROR = "ERROR"


class HarnessError(Exception):
    pass


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
    reference_fingerprint: str
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
            "referenceFingerprint": self.reference_fingerprint,
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
# SUTs: anything with reset(), step(input) and restart()
# ---------------------------------------------------------------------------

class MachineSut:
    """A Mealy machine stepped in-process on bare input symbols."""

    def __init__(self, machine):
        self.machine = machine
        self.state = machine.initial

    def reset(self) -> None:
        self.state = self.machine.initial

    restart = reset  # nothing to respawn in-process

    def step(self, symbol: str) -> str:
        entry = self.machine.transitions.get((self.state, symbol))
        if entry is None:
            raise HarnessError(f"no transition on {symbol!r}")
        self.state, output = entry
        return output


class SutAdapter:
    """Spawns and talks to one SUT process; restarted after protocol errors."""

    def __init__(self, command: str | list[str], step_timeout: float = DEFAULT_STEP_TIMEOUT):
        self.command = shlex.split(command) if isinstance(command, str) else list(command)
        self.step_timeout = step_timeout
        self.process: subprocess.Popen | None = None
        self._lines: queue.Queue = queue.Queue()
        self._reader: threading.Thread | None = None

    def start(self) -> None:
        self.stop()
        try:
            self.process = subprocess.Popen(
                self.command,
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL,
                text=True,
                bufsize=1,
            )
        except OSError as exc:
            raise HarnessError(f"cannot start SUT {shlex.join(self.command)}: {exc}") from exc
        self._lines = queue.Queue()

        def pump(proc, sink):
            for line in proc.stdout:
                sink.put(line.rstrip("\n"))
            sink.put(None)  # end of output: the SUT closed it or exited

        self._reader = threading.Thread(
            target=pump, args=(self.process, self._lines), daemon=True
        )
        self._reader.start()

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
            self.process = None

    def restart(self) -> None:
        self.start()

    def send(self, line: str) -> None:
        if self.process is None or self.process.stdin is None:
            raise HarnessError("SUT process not running")
        try:
            self.process.stdin.write(line + "\n")
            self.process.stdin.flush()
        except OSError:
            raise self._gone() from None

    def receive(self) -> str:
        try:
            line = self._lines.get(timeout=self.step_timeout)
        except queue.Empty:
            raise HarnessError(
                f"SUT did not answer within {self.step_timeout}s"
            ) from None
        if line is None:
            raise self._gone()
        return line

    def _gone(self) -> HarnessError:
        """The error for a SUT whose pipes have closed, naming its exit code."""
        try:
            code = self.process.wait(timeout=self.step_timeout)
        except subprocess.TimeoutExpired:
            return HarnessError("SUT closed its pipes but did not exit")
        return HarnessError(f"SUT exited with code {code}")

    def reset(self) -> None:
        self.send("RESET")
        reply = self.receive()
        if reply != "READY":
            raise HarnessError(f"expected READY after RESET, got {reply!r}")

    def step(self, v) -> dict | str | None:
        self.send("IN " + encode_step(v))
        reply = self.receive()
        if reply.startswith("OUT "):
            try:
                return decode_step(reply[4:])
            except ValueError:
                raise HarnessError(f"malformed SUT reply {reply!r}") from None
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

    `sut` is any object with reset(), step(input) and restart().  Each case
    resets it and checks every intermediate output; a case stops at its
    first mismatch.  An exception from the SUT yields ERROR with its text,
    then a restart.
    """
    for index, case in enumerate(ts.cases):
        try:
            sut.reset()
            verdict = Verdict(index, PASS)
            for step_index, (inp, expected) in enumerate(zip(case.inputs, case.expected)):
                observed = sut.step(inp)
                if observed != expected:
                    verdict = Verdict(index, FAIL, step_index, inp, expected, observed)
                    break
        except Exception as exc:
            verdict = Verdict(index, ERROR, detail=str(exc))
            sut.restart()
        yield verdict


def run_suite(sut, ts) -> TestReport:
    """Every case's verdict against `sut`, collected into a report."""
    report = TestReport(ts.method, ts.m_bound, ts.reference_fingerprint)
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
# Reference SUT
# ---------------------------------------------------------------------------

def _serve(sut, decode, stdin, stdout) -> None:
    """Protocol loop until EOF; `decode` maps IN text to an input or raises for ERR."""
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
            sut.reset()
            reply("READY")
        elif line.startswith("IN "):
            try:
                output = sut.step(decode(line[3:]))
            except Exception as exc:
                reply(f"ERR {exc}")
                continue
            reply("OUT " + encode_step(output))
        else:
            reply(f"ERR unknown command {line!r}")


def serve_reference(program: GuardedActionProgram, stdin=None, stdout=None) -> None:
    """Speak the wire protocol on standard streams until EOF.

    Malformed input, and input outside the declared variables or their
    sorts, produces an ERR reply and leaves the state unchanged.
    """
    def decode(text: str) -> dict:
        v = decode_valuation(text)
        if v is None:
            raise ValueError("nil is not a valid input")
        check_valuation(v, program.input_vars)
        return v

    _serve(Interpreter(program), decode, stdin, stdout)


def serve_machine(machine, stdin=None, stdout=None) -> None:
    """Serve a Mealy machine over the wire protocol with bare symbols."""
    _serve(MachineSut(machine), str.strip, stdin, stdout)
