"""A reference SUT whose first session fails at one line of its input.

    python fault_sut.py PROGRAM K FAULT MARKER

The session that finds no file MARKER creates it and serves the program
file PROGRAM with its standard input failing at line K (`FaultyInput`),
by the fault FAULT: "exit", "hang" or "err".  Later sessions, and every
session when FAULT is "none", serve PROGRAM as `serve-reference` does.
"""

import sys
from pathlib import Path

from suptest.program import load_program, serve_program, serve_reference


class FaultyInput:
    """A SUT's standard input that fails at its `k`-th line: there the SUT
    exits with code 3 (`SystemExit(3)`), hangs, reading its input to the end
    without answering, or reads `FAULT`, which it answers with ERR."""

    def __init__(self, stream, k: int, fault: str):
        self.stream, self.left, self.fault = stream, k - 1, fault  # lines before the k-th
        self.rest = b""  # read from `stream`, not yet handed over

    def read1(self, size: int = -1) -> bytes:
        data, self.rest = self.rest or self.stream.read1(size), b""
        if self.left < 0 or not data:  # the fault is behind, or the input over
            return data
        start = 0  # where the k-th line starts, once `left` is 0
        while self.left and (newline := data.find(b"\n", start)) >= 0:
            start, self.left = newline + 1, self.left - 1
        if self.left:
            return data
        if start:  # the lines before the k-th go first, and are answered
            self.rest = data[start:]
            return data[:start]
        if self.fault == "exit":
            raise SystemExit(3)
        if self.fault == "hang":
            while self.stream.read1(size):
                pass
            return b""
        while b"\n" not in data and (more := self.stream.read1(size)):
            data += more
        self.left, self.rest = -1, data.partition(b"\n")[2]
        return b"FAULT\n"


def main(path: str, k: str, fault: str, marker: str) -> int:
    if fault == "none" or Path(marker).exists():
        return serve_program(path)
    Path(marker).touch()
    serve_reference(load_program(path), FaultyInput(sys.stdin.buffer, int(k), fault))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
