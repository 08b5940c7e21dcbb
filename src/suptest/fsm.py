"""Deterministic Mealy machines.

The declared order of states and inputs is significant: breadth-first
traversals, shortest-trace selection, and canonical naming all break ties
by that order, so every operation here is deterministic and suitable for
golden-file testing.

A behaviour is anything with an `initial` state and a `step` that maps a
(state, input) pair to (next state, output): a machine, whose `step`
refuses a pair it has no transition on (`UndefinedTransition`), a
guarded-action program (`program.GuardedActionProgram`), and an SFSM test
reference (`sfsm.Sfsm`), whose `step` refuses an overlap or an uncovered
input.  The in-process SUT (`harness.LocalSut`), the wire server
(`program.answerer`) and `first_difference` take any of them.

Two searches answer the graph questions the toolkit asks of behaviours.
`MealyMachine.access_words`, one BFS from the initial state, gives each
reachable state its least shortest access word: the reachable states and
the generator's state cover.  `first_difference`, one BFS over a product,
gives the least shortest word on which two behaviours differ: of two
machines (`equivalent`), of two states (`distinguishing_trace`), of two
programs (`mutation.program_equivalent`), or of a program and its test
reference (`supervisor.check_hypotheses`).
"""

from __future__ import annotations

from collections import deque

from .encoding import value_at
from .guards import Record


class FsmError(Exception):
    pass


class UndefinedTransition(FsmError):
    def __init__(self, state: str, symbol: str):
        super().__init__(f"no transition on {symbol!r}")
        self.state = state
        self.symbol = symbol


class AlphabetMismatch(FsmError):
    pass


class Counterexample(Record):
    """Shortest input sequence on which two machines disagree."""
    __slots__ = ("inputs", "outputs1", "outputs2")
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
        self._input_set = frozenset(self.inputs)
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

    def step(self, pair: tuple[str, str]) -> tuple[str, str]:
        """(next state, output) of the (state, input) `pair`, if defined."""
        try:
            return self.transitions[pair]
        except KeyError:
            raise UndefinedTransition(*pair) from None

    def access_words(self) -> dict[str, tuple[str, ...]]:
        """Each reachable state's least shortest access word, in BFS order.

        Ties are broken by declared input order, so the words ascend by
        length and then lexicographically, and the set is prefix-closed.
        """
        access = {self.initial: ()}
        queue = deque([self.initial])
        while queue:
            s = queue.popleft()
            for x in self.inputs:
                entry = self.transitions.get((s, x))
                if entry is not None and entry[0] not in access:
                    access[entry[0]] = access[s] + (x,)
                    queue.append(entry[0])
        return access

    def reachable_states(self) -> list[str]:
        """States reachable from the initial one, in BFS order."""
        return list(self.access_words())

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
        rows = value_at(obj, "transitions", list, dict)
        transitions = {(value_at(t, "from", str), value_at(t, "input", str)):
                       (value_at(t, "to", str), value_at(t, "output", str)) for t in rows}
        if len(transitions) != len(rows):
            raise FsmError("duplicate (state, input) pair: machine not deterministic")
        return cls(value_at(obj, "states", list, str), value_at(obj, "initial", str),
                   value_at(obj, "inputs", list, str), value_at(obj, "outputs", list, str),
                   transitions)

    def to_dot(self) -> str:
        lines = ["digraph fsm {", "  rankdir=LR;", '  __start [shape=point];',
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
            try:
                known = x in self._input_set
            except TypeError:  # unhashable, so no symbol
                known = False
            if not known:
                raise FsmError(f"input symbol {x!r} not in alphabet")
            state, y = self.step((state, x))
            outputs.append(y)
        return tuple(outputs), state

    def _require_complete(self, op: str) -> None:
        if not self.complete:
            raise FsmError(f"{op} requires a complete machine")

    def state_partition(self) -> list[list[str]]:
        """Observational-equivalence classes of states (partition refinement).

        Each block lists its states in declared state order, but the blocks
        are not in that order: a block split off in refinement follows the
        block it split from, ahead of every later block, so `s2` split from
        `s0` comes before `s1` (`[['s0'], ['s2'], ['s1']]`).  `minimize`
        sorts the blocks by their first states for this reason.
        """
        self._require_complete("state_partition")
        # initial split: identical output rows; a dict keeps its blocks in
        # order of first member
        rows: dict[tuple, list[str]] = {}
        for s in self.states:
            rows.setdefault(tuple(self.transitions[(s, x)][1] for x in self.inputs), []).append(s)
        blocks = list(rows.values())
        while True:
            block_of = {s: i for i, b in enumerate(blocks) for s in b}
            refined: dict[tuple, list[str]] = {}
            for i, b in enumerate(blocks):
                for s in b:
                    sig = (i, tuple(block_of[self.transitions[(s, x)][0]] for x in self.inputs))
                    refined.setdefault(sig, []).append(s)
            if len(refined) == len(blocks):
                return blocks
            blocks = list(refined.values())

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

    def is_minimal(self, access: dict | None = None) -> bool:
        """Every state reachable and no two equivalent; `access`, the
        machine's `access_words()` when the caller holds them, spares the
        search."""
        reachable = access if access is not None else self.access_words()
        return (
            len(reachable) == len(self.states)
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
        # `step` of a complete machine, without the `try`: hot in classify
        word = first_difference((self.initial, other.initial), self.inputs,
                                self.transitions.__getitem__, other.transitions.__getitem__)
        if word is None:
            return None
        return Counterexample(word, self.run(word)[0], other.run(word)[0])

    def distinguishing_trace(self, s: str, t: str) -> tuple[str, ...] | None:
        """Shortest input word telling states s and t apart, or None.

        Ties broken lexicographically over the declared input order.
        """
        self._require_complete("distinguishing_trace")
        step = self.transitions.__getitem__  # `step` of a complete machine; hot in h_method
        return first_difference((s, t), self.inputs, step, step)


def first_difference(start: tuple, inputs, step1, step2) -> tuple | None:
    """Least shortest word on which two behaviours differ, or None.

    A breadth-first walk of the product from the pair `start`, trying
    `inputs` in order, so the word returned is shortest, and least in
    `inputs` order among the shortest.  `step1` and `step2` are the `step`s
    of two behaviours, each mapping a (state, input) pair to (next state,
    output), and must be defined on every pair the walk reaches; states
    must be hashable.
    """
    seen = {start}
    queue = deque([(start, ())])
    while queue:
        (s1, s2), prefix = queue.popleft()
        for x in inputs:
            t1, y1 = step1((s1, x))
            t2, y2 = step2((s2, x))
            if y1 != y2:
                return prefix + (x,)
            pair = (t1, t2)
            if pair not in seen:
                seen.add(pair)
                queue.append((pair, prefix + (x,)))
    return None
