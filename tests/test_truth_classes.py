"""Truth classes against the valuation walks they replace.

Truth classes and satisfiability are found over the product of each
variable's literal cells; determinism and program equivalence are decided
on one representative per truth class of the guards involved.  The oracles
in `helpers` walk every valuation.  The welding cell's monitored sorts are
widened to [0, 3], so that there are far fewer classes than valuations, and
the `complete-with-selfloop` policy closes off the inputs that no guard
covers.
"""

import json
from functools import reduce
from importlib.resources import files

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import valuation_determinism, valuation_program_equivalent, valuation_truth_classes
from suptest.guards import (
    TRUE, And, BoolConst, Comparison, EnumerationOverflow, EnumSort, IntSort, Not, Or, VarDecl,
    enumerate_valuations, eval_guard, parse_guard, satisfiable, truth_classes, valuation_count,
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
    actions[i] = actions[i].replace(guard=Not(Not(actions[i].guard)))
    return p.replace(actions=actions)


def with_unreachable_action(p, i):
    """One more action, from a risk state that no action enters."""
    unreached = tuple(sorted((f, "m") for f in p.factors))
    extra = GuardedAction("nop", TRUE, unreached, p.actions[i].output, unreached)
    return p.replace(actions=list(p.actions) + [extra])


# Rewrites that keep a program's observable behaviour: applied to the
# reference they give equivalent mutants, which the generator never emits.
REWRITES = {
    "reordered": lambda p, i: p.replace(actions=p.actions[::-1]),
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


# Declarations of up to three variables: integer sorts of width 1 to 5,
# negative bounds included, and enumeration sorts in any literal order.
int_sorts = st.builds(lambda lo, width: IntSort(lo, lo + width),
                      st.integers(-4, 3), st.integers(0, 4))
enum_sorts = st.lists(st.sampled_from("0amq"), min_size=1, max_size=4,
                      unique=True).map(lambda literals: EnumSort(tuple(literals)))
declarations = st.lists(st.one_of(int_sorts, enum_sorts), max_size=3).map(
    lambda sorts: [VarDecl(f"v{i}", sort) for i, sort in enumerate(sorts)])


def guards_over(decls):
    """Nested guards over `decls`; integer literals reach past the sort."""
    options = [st.builds(BoolConst, st.booleans())]
    for d in decls:
        if isinstance(d.sort, IntSort):
            options.append(st.builds(Comparison, st.just(d.name),
                                     st.sampled_from(["=", "!=", "<", "<=", ">", ">="]),
                                     st.integers(d.sort.lo - 2, d.sort.hi + 2)))
        else:
            options.append(st.builds(Comparison, st.just(d.name), st.sampled_from(["=", "!="]),
                                     st.sampled_from(d.sort.literals)))
    return st.recursive(st.one_of(options), lambda sub: st.one_of(
        st.builds(Not, sub), st.builds(And, sub, sub), st.builds(Or, sub, sub)), max_leaves=6)


guard_sets = declarations.flatmap(
    lambda decls: st.tuples(st.lists(guards_over(decls), max_size=4), st.just(decls)))


class TestCells:
    @given(guard_sets)
    @example(([], []))
    @example(([], [VarDecl("x", IntSort(-2, 1))]))
    @settings(max_examples=120, deadline=None)
    def test_truth_classes_agree_with_valuation_walk(self, case):
        guards, decls = case
        assert truth_classes(guards, decls) == valuation_truth_classes(guards, decls)

    @given(guard_sets)
    @settings(max_examples=60, deadline=None)
    def test_satisfiable_finds_first_satisfying_valuation(self, case):
        guards, decls = case
        for g in guards:
            first = next((v for v in enumerate_valuations(decls) if eval_guard(g, v)), None)
            assert satisfiable(g, decls) == first

    def test_cell_product_past_bound_overflows(self):
        # 112 literals cut each variable into 223 cells: 223^3 > ENUM_BOUND
        decls = [VarDecl(f"x{i}", IntSort(0, 999)) for i in range(3)]
        guards = [Comparison(d.name, "=", c) for d in decls for c in range(0, 1000, 9)]
        with pytest.raises(EnumerationOverflow):
            truth_classes(guards, decls)

    def test_cell_product_overflow_names_cells(self):
        decls = [VarDecl(f"x{i}", IntSort(0, 999)) for i in range(3)]
        guards = [Comparison(d.name, "=", c) for d in decls for c in range(0, 1000, 9)]
        message = r"^11089567 cell products \(of 1000000000 valuations\) exceed bound 1000000$"
        with pytest.raises(EnumerationOverflow, match=message):
            truth_classes(guards, decls)
        with pytest.raises(EnumerationOverflow, match=message):
            satisfiable(reduce(Or, guards), decls)


def with_guards(p, changes):
    """`p` with the guard of action i replaced for each (i, guard); the first
    enabled action wins where the new guards overlap."""
    actions = list(p.actions)
    for i, guard in changes:
        actions[i] = actions[i].replace(guard=guard)
    return p.replace(actions=actions, resolution="first")


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
    return BEHAVIOUR.replace(actions=list(p.actions))


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

