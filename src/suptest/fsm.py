"""Deterministic Mealy machines.

The declared order of states and inputs is significant: breadth-first
traversals, shortest-trace selection, and canonical naming all break ties
by that order, so every operation here is deterministic and suitable for
golden-file testing.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .encoding import fingerprint


class FsmError(Exception):
    pass


class UndefinedTransition(FsmError):
    def __init__(self, state: str, symbol: str):
        super().__init__(f"no transition from state {state!r} on input {symbol!r}")
        self.state = state
        self.symbol = symbol


class AlphabetMismatch(FsmError):
    pass


@dataclass(frozen=True)
class Counterexample:
    """Shortest input sequence on which two machines disagree."""
    inputs: tuple[str, ...]
    outputs1: tuple[str, ...]
    outputs2: tuple[str, ...]


class MealyMachine:
    """Immutable deterministic Mealy machine (states, inputs, outputs, map)."""

    def __init__(self, states, initial, inputs, outputs, transitions):
        """`transitions` maps (state, input) -> (next state, output)."""
        self.states: tuple[str, ...] = tuple(states)
        self.initial: str = initial
        self.inputs: tuple[str, ...] = tuple(inputs)
        self.outputs: tuple[str, ...] = tuple(outputs)
        self.transitions: dict[tuple[str, str], tuple[str, str]] = dict(transitions)
        state_set = set(self.states)
        if len(state_set) != len(self.states):
            raise FsmError("duplicate state identifiers")
        if len(set(self.inputs)) != len(self.inputs):
            raise FsmError("duplicate input symbols")
        if len(set(self.outputs)) != len(self.outputs):
            raise FsmError("duplicate output symbols")
        if self.initial not in state_set:
            raise FsmError(f"initial state {self.initial!r} not declared")
        for (s, x), (t, y) in self.transitions.items():
            if s not in state_set or t not in state_set:
                raise FsmError(f"transition ({s!r},{x!r})->({t!r},{y!r}) uses undeclared state")
            if x not in self.inputs:
                raise FsmError(f"undeclared input symbol {x!r}")
            if y not in self.outputs:
                raise FsmError(f"undeclared output symbol {y!r}")

    # -- structure ----------------------------------------------------------

    @property
    def complete(self) -> bool:
        return len(self.transitions) == len(self.states) * len(self.inputs)

    def step(self, state: str, symbol: str) -> tuple[str, str]:
        try:
            return self.transitions[(state, symbol)]
        except KeyError:
            raise UndefinedTransition(state, symbol) from None

    def reachable_states(self) -> list[str]:
        """States reachable from the initial one, in BFS order."""
        seen = {self.initial}
        order = [self.initial]
        queue = deque([self.initial])
        while queue:
            s = queue.popleft()
            for x in self.inputs:
                nxt = self.transitions.get((s, x))
                if nxt and nxt[0] not in seen:
                    seen.add(nxt[0])
                    order.append(nxt[0])
                    queue.append(nxt[0])
        return order

    def to_obj(self) -> dict:
        return {
            "states": list(self.states),
            "initial": self.initial,
            "inputs": list(self.inputs),
            "outputs": list(self.outputs),
            "transitions": [
                {"from": s, "input": x, "to": t, "output": y}
                for (s, x), (t, y) in sorted(
                    self.transitions.items(),
                    key=lambda kv: (self.states.index(kv[0][0]), self.inputs.index(kv[0][1])),
                )
            ],
        }

    @classmethod
    def from_obj(cls, obj: dict) -> "MealyMachine":
        transitions = {
            (t["from"], t["input"]): (t["to"], t["output"]) for t in obj["transitions"]
        }
        if len(transitions) != len(obj["transitions"]):
            raise FsmError("duplicate (state, input) pair: machine not deterministic")
        return cls(obj["states"], obj["initial"], obj["inputs"], obj["outputs"], transitions)

    def fingerprint(self) -> str:
        return fingerprint(self.to_obj())

    def to_dot(self, name: str = "fsm") -> str:
        lines = [f"digraph {name} {{", "  rankdir=LR;", '  __start [shape=point];',
                 f'  __start -> "{self.initial}";']
        for s in self.states:
            lines.append(f'  "{s}" [shape=circle];')
        for t in self.to_obj()["transitions"]:
            lines.append(
                f'  "{t["from"]}" -> "{t["to"]}" [label="{t["input"]}/{t["output"]}"];'
            )
        lines.append("}")
        return "\n".join(lines) + "\n"

    # -- operations ---------------------------------------------------------

    def run(self, word) -> tuple[tuple[str, ...], str]:
        """Outputs along `word` from the initial state, plus the reached state."""
        return self.run_from(self.initial, word)

    def run_from(self, state: str, word) -> tuple[tuple[str, ...], str]:
        outputs = []
        for x in word:
            if x not in self.inputs:
                raise FsmError(f"input symbol {x!r} not in alphabet")
            state, y = self.step(state, x)
            outputs.append(y)
        return tuple(outputs), state

    def _require_complete(self, op: str) -> None:
        if not self.complete:
            raise FsmError(f"{op} requires a complete machine")

    def state_partition(self) -> list[list[str]]:
        """Observational-equivalence classes of states (partition refinement).

        Blocks are ordered, and ordered internally, by declared state order.
        """
        self._require_complete("state_partition")
        # initial split: identical output rows
        index = {}
        blocks: list[list[str]] = []
        for s in self.states:
            row = tuple(self.transitions[(s, x)][1] for x in self.inputs)
            if row not in index:
                index[row] = len(blocks)
                blocks.append([])
            blocks[index[row]].append(s)
        while True:
            block_of = {s: i for i, b in enumerate(blocks) for s in b}
            new_blocks: list[list[str]] = []
            new_index = {}
            for i, b in enumerate(blocks):
                for s in b:
                    sig = (i, tuple(block_of[self.transitions[(s, x)][0]] for x in self.inputs))
                    if sig not in new_index:
                        new_index[sig] = len(new_blocks)
                        new_blocks.append([])
                    new_blocks[new_index[sig]].append(s)
            if len(new_blocks) == len(blocks):
                return blocks
            blocks = new_blocks

    def minimize(self) -> "MealyMachine":
        """Observationally equivalent machine with pairwise distinct states.

        Each block is named after its first member in declared state order;
        unreachable states are dropped first.
        """
        self._require_complete("minimize")
        reachable = self.reachable_states()
        if len(reachable) < len(self.states):
            trimmed = MealyMachine(
                [s for s in self.states if s in set(reachable)],
                self.initial,
                self.inputs,
                self.outputs,
                {k: v for k, v in self.transitions.items() if k[0] in set(reachable)},
            )
            return trimmed.minimize()
        blocks = self.state_partition()
        rep_of = {}
        for b in blocks:
            for s in b:
                rep_of[s] = b[0]
        states = [b[0] for b in sorted(blocks, key=lambda b: self.states.index(b[0]))]
        transitions = {}
        for s in states:
            for x in self.inputs:
                t, y = self.transitions[(s, x)]
                transitions[(s, x)] = (rep_of[t], y)
        return MealyMachine(states, rep_of[self.initial], self.inputs, self.outputs, transitions)

    def is_minimal(self) -> bool:
        return (
            len(self.reachable_states()) == len(self.states)
            and len(self.state_partition()) == len(self.states)
        )

    def equivalent(self, other: "MealyMachine") -> Counterexample | None:
        """Product BFS; None iff observationally equivalent.

        Returns a shortest distinguishing trace otherwise, lexicographic by
        input order among shortest.
        """
        if self.inputs != other.inputs:
            raise AlphabetMismatch(
                f"input alphabets differ: {self.inputs} vs {other.inputs}"
            )
        self._require_complete("equivalent")
        other._require_complete("equivalent")
        start = (self.initial, other.initial)
        seen = {start}
        queue = deque([(start, ())])
        while queue:
            (s1, s2), prefix = queue.popleft()
            for x in self.inputs:
                t1, y1 = self.transitions[(s1, x)]
                t2, y2 = other.transitions[(s2, x)]
                word = prefix + (x,)
                if y1 != y2:
                    out1, _ = self.run(word)
                    out2, _ = other.run(word)
                    return Counterexample(word, out1, out2)
                if (t1, t2) not in seen:
                    seen.add((t1, t2))
                    queue.append(((t1, t2), word))
        return None

    def distinguishing_trace(self, s: str, t: str) -> tuple[str, ...] | None:
        """Shortest input word telling states s and t apart, or None.

        Ties broken lexicographically over the declared input order.
        """
        self._require_complete("distinguishing_trace")
        if s == t:
            return None
        start = (s, t)
        seen = {start}
        queue = deque([(start, ())])
        while queue:
            (a, b), prefix = queue.popleft()
            for x in self.inputs:
                ta, ya = self.transitions[(a, x)]
                tb, yb = self.transitions[(b, x)]
                if ya != yb:
                    return prefix + (x,)
                if (ta, tb) not in seen:
                    seen.add((ta, tb))
                    queue.append(((ta, tb), prefix + (x,)))
        return None
