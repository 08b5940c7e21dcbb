"""Truth classes against the valuation walks they replace.

Determinism and program equivalence are decided on one representative per
truth class of the guards involved; the oracles in `helpers` walk every
valuation.  The welding cell's monitored sorts are widened to [0, 3], so
that there are far fewer classes than valuations, and the
`complete-with-selfloop` policy closes off the inputs that no guard covers.
"""

import json
from dataclasses import replace
from importlib.resources import files

from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import valuation_determinism, valuation_program_equivalent
from suptest.guards import (
    TRUE, And, Comparison, Not, Or, parse_guard, truth_classes, valuation_count,
)
from suptest.mutation import GUARD_FLIP, generate_mutants, program_equivalent
from suptest.sfsm import POLICY_SELFLOOP, DeterminismViolation
from suptest.supervisor import GuardedAction, behavior_from_obj, to_guarded_actions

WIDTH = 3


def widened_behaviour():
    obj = json.loads(files("suptest").joinpath("data/welding-cell.cb").read_text())
    for d in obj["vars"]:
        if d["kind"] == "monitored":
            d["sort"] = {"int": [0, WIDTH]}
    return behavior_from_obj(obj)


BEHAVIOUR = widened_behaviour()
REFERENCE = to_guarded_actions(BEHAVIOUR, POLICY_SELFLOOP)
MUTANTS = generate_mutants(REFERENCE)
MONITORED = [d.name for d in REFERENCE.input_vars]


def double_negated(p, i):
    actions = list(p.actions)
    actions[i] = replace(actions[i], guard=Not(Not(actions[i].guard)))
    return replace(p, actions=actions)


def with_unreachable_action(p, i):
    """One more action, from a risk state that no action enters."""
    unreached = tuple(sorted((f, "m") for f in p.factors))
    extra = GuardedAction("nop", TRUE, unreached, p.actions[i].output, unreached)
    return replace(p, actions=list(p.actions) + [extra])


# Rewrites that keep a program's observable behaviour: applied to the
# reference they give equivalent mutants, which the generator never emits.
REWRITES = {
    "reordered": lambda p, i: replace(p, actions=p.actions[::-1]),
    "double-negated": double_negated,
    "unreachable-action": with_unreachable_action,
}

atoms = st.builds(Comparison, st.sampled_from(MONITORED),
                  st.sampled_from(["=", "!=", "<", "<=", ">", ">="]),
                  st.integers(0, WIDTH))
guards = st.one_of(atoms, st.builds(Not, atoms), st.builds(And, atoms, atoms),
                   st.builds(Or, atoms, atoms))
action_index = st.integers(0, len(REFERENCE.actions) - 1)


def atom(text):
    return parse_guard(text, REFERENCE.input_vars)


def test_fewer_classes_than_valuations():
    classes = truth_classes([a.guard for a in REFERENCE.actions], REFERENCE.input_vars)
    assert sum(size for _, _, size in classes) == valuation_count(REFERENCE.input_vars)
    assert len(classes) < valuation_count(REFERENCE.input_vars)


def with_guards(p, changes):
    """`p` with the guard of action i replaced for each (i, guard); the first
    enabled action wins where the new guards overlap."""
    actions = list(p.actions)
    for i, guard in changes:
        actions[i] = replace(actions[i], guard=guard)
    return replace(p, actions=actions, resolution="first")


class TestProgramEquivalent:
    def test_both_verdicts_agree_with_valuation_walk(self):
        candidates = [rewrite(REFERENCE, 3) for rewrite in REWRITES.values()]
        # differs only on ack = 3, which no guard of the reference separates
        # from ack = 2: the mutant's guards must take part in the classes
        ack_0 = next(i for i, a in enumerate(REFERENCE.actions) if a.guard == atom("ack = 0"))
        candidates.append(with_guards(REFERENCE, [(ack_0, Or(atom("ack = 0"), atom("ack = 3")))]))
        candidates += [m.target for m in MUTANTS[::20]]
        verdicts = [program_equivalent(REFERENCE, p) for p in candidates]
        assert verdicts == [valuation_program_equivalent(REFERENCE, p) for p in candidates]
        assert verdicts[:len(REWRITES)] == [True] * len(REWRITES)
        assert verdicts[len(REWRITES)] is False
        assert False in verdicts[len(REWRITES) + 1:]

    @given(base=st.integers(-1, len(MUTANTS) - 1),
           changes=st.lists(st.tuples(action_index, guards), max_size=2),
           rewrites=st.sets(st.sampled_from(sorted(REWRITES))), i=action_index)
    @settings(max_examples=40, deadline=None)
    def test_mutants_and_rewrites_agree_with_valuation_walk(self, base, changes, rewrites, i):
        p = REFERENCE if base < 0 else MUTANTS[base].target
        if changes:
            p = with_guards(p, changes)
        for name in sorted(rewrites):
            p = REWRITES[name](p, i)
        assert program_equivalent(REFERENCE, p) == valuation_program_equivalent(REFERENCE, p)


def behaviour_of(p):
    """The widened welding cell with the actions of `p` as its transitions."""
    transitions = [
        {"source": a.source_state(), "guard": a.guard, "output": a.output,
         "target": a.target_state()}
        for a in p.actions
    ]
    return replace(BEHAVIOUR, transitions=transitions)


def violation(check, p):
    """(state, witness, message) of the DeterminismViolation `check` raises."""
    try:
        check(p)
    except DeterminismViolation as exc:
        return exc.state, exc.witness, str(exc)
    return None


def translated(p):
    to_guarded_actions(behaviour_of(p), POLICY_SELFLOOP)


class TestDeterminism:
    def test_guard_flips_agree_with_valuation_walk(self):
        programs = [REFERENCE] + [m.target for m in generate_mutants(REFERENCE, [GUARD_FLIP])]
        raised = [violation(translated, p) for p in programs]
        assert raised == [violation(valuation_determinism, p) for p in programs]
        assert raised[0] is None
        assert any(raised[1:])

    @given(st.lists(st.tuples(action_index, guards), min_size=1, max_size=3))
    @settings(max_examples=60, deadline=None)
    def test_random_guards_agree_with_valuation_walk(self, changes):
        p = with_guards(REFERENCE, changes)
        assert violation(translated, p) == violation(valuation_determinism, p)

