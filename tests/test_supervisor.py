"""Behaviour loading, guarded-action translation, hypothesis checks."""

import json
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from suptest import sfsm
from suptest.fsm import first_difference
from suptest.guards import (
    distinct_guards, enumerate_valuations, parse_guard, print_guard, truth_classes,
)
from suptest.harness import LocalSut
from suptest.mutation import generate_mutants, program_equivalent
from suptest.program import POLICIES, NoEnabledAction, SupervisorError
from suptest.sfsm import (
    POLICY_SELFLOOP,
    DeterminismViolation,
    input_classes,
)
from suptest.supervisor import (
    DisjointnessViolation,
    GuardedActionProgram,
    LifecycleViolation,
    behavior_from_obj,
    check_hypotheses,
    derive_action_name,
    load_behavior,
    risk_state_name,
    to_guarded_actions,
    to_test_reference,
)

from helpers import start_case, unpruned_program

FACTORS = ["HS", "HC", "HRW"]


def single_transition_obj():
    return {
        "vars": [
            {"name": "x", "sort": {"int": [0, 3]}, "kind": "monitored"},
            {"name": "y", "sort": {"int": [0, 1]}, "kind": "controlled"},
            {"name": "F", "sort": {"enum": ["0", "a", "m"]}, "kind": "factor"},
        ],
        "initial": {"F": "0"},
        "transitions": [
            {
                "source": {"F": "0"},
                "guard": "x > 1",
                "output": {"y": 1},
                "target": {"F": "a"},
            },
        ],
    }


class TestLoadBehavior:
    def test_welding_cell_loads(self, welding_cell):
        assert welding_cell.factors == FACTORS
        assert len(welding_cell.actions) == 16
        assert welding_cell.warnings == []

    def test_disjointness_enforced(self):
        obj = single_transition_obj()
        obj["vars"].append(
            {"name": "F", "sort": {"int": [0, 1]}, "kind": "monitored"}
        )
        with pytest.raises(DisjointnessViolation):
            behavior_from_obj(obj)

    def test_empty_transitions_warns(self):
        obj = single_transition_obj()
        obj["transitions"] = []
        b = behavior_from_obj(obj)
        assert "no transitions" in b.warnings

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "b.cb"
        path.write_text(json.dumps(single_transition_obj()))
        b = load_behavior(path)
        assert b.factors == ["F"]


class TestDeriveActionName:
    def test_single_activation(self):
        r = {"HS": "0", "HC": "0", "HRW": "0"}
        r2 = {"HS": "a", "HC": "0", "HRW": "0"}
        assert derive_action_name(FACTORS, r, r2) == "HSa"

    def test_nop(self):
        r = {"HS": "0", "HC": "0", "HRW": "0"}
        assert derive_action_name(FACTORS, r, r) == "nop"

    def test_two_changes_in_declaration_order(self):
        r = {"HS": "a", "HC": "0", "HRW": "a"}
        r2 = {"HS": "m", "HC": "0", "HRW": "m"}
        assert derive_action_name(FACTORS, r, r2) == "HSm_HRWm"

    def test_lifecycle_violation(self):
        r = {"HS": "0", "HC": "0", "HRW": "0"}
        r2 = {"HS": "m", "HC": "0", "HRW": "0"}
        with pytest.raises(LifecycleViolation):
            derive_action_name(FACTORS, r, r2)

    def test_name_determines_target_given_source(self):
        # for a fixed source risk state, the derived name is injective in r'
        from itertools import product
        for r_vals in product("0am", repeat=3):
            r = dict(zip(FACTORS, r_vals))
            seen = {}
            for r2_vals in product("0am", repeat=3):
                r2 = dict(zip(FACTORS, r2_vals))
                try:
                    name = derive_action_name(FACTORS, r, r2)
                except LifecycleViolation:
                    continue
                assert name not in seen, (r, r2, seen[name])
                seen[name] = r2


class TestToGuardedActions:
    def test_single_transition(self):
        b = behavior_from_obj(single_transition_obj())
        p = to_guarded_actions(b)
        assert len(p.actions) == 1
        assert p.actions[0].name == "Fa"
        assert p.actions[0].output == {"y": 1}

    def test_overlapping_guards_rejected(self):
        obj = single_transition_obj()
        obj["transitions"].append(
            {
                "source": {"F": "0"},
                "guard": "x > 0",
                "output": {"y": 0},
                "target": {"F": "0"},
            }
        )
        with pytest.raises(DeterminismViolation) as err:
            to_guarded_actions(behavior_from_obj(obj))
        assert err.value.witness == {"x": 2}

    def test_welding_cell_action_count(self, welding_cell):
        p = to_guarded_actions(welding_cell)
        assert len(p.actions) == len(welding_cell.actions) == 16


class TestInterpretStep:
    def test_enabled_action(self):
        p = to_guarded_actions(behavior_from_obj(single_transition_obj()))
        r2, output = p.step(((("F", "0"),), {"x": 2}))
        assert output == {"y": 1}
        assert r2 == (("F", "a"),)

    def test_policy_selfloop_nil(self):
        b = behavior_from_obj(single_transition_obj())
        p = to_guarded_actions(b, policy=POLICY_SELFLOOP)
        r2, output = p.step(((("F", "0"),), {"x": 0}))
        assert output is None
        assert r2 == (("F", "0"),)

    def test_error_policy_raises(self):
        p = to_guarded_actions(behavior_from_obj(single_transition_obj()))
        with pytest.raises(NoEnabledAction):
            p.step(((("F", "0"),), {"x": 0}))

    def test_matches_reference_on_first_class(self, welding_cell):
        p = to_guarded_actions(welding_cell)
        r = to_test_reference(welding_cell)
        partition = input_classes(r)
        rep = partition.classes[0].representative
        target, reference_output = r.step((r.initial, rep))
        r2, output = p.step((p.initial, rep))
        assert output == reference_output
        assert risk_state_name(dict(r2), p.factors) == target


class TestToTestReference:
    def test_single_transition_two_states(self):
        r = to_test_reference(behavior_from_obj(single_transition_obj()))
        assert len(r.states) == 2

    def test_unreachable_states_pruned(self):
        b = behavior_from_obj(unreachable_obj())
        r = to_test_reference(b)
        assert r.states == ("F0",)
        assert any("unreachable" in w for w in b.warnings)

    def test_translations_leave_the_behaviour_as_read(self):
        b = behavior_from_obj(unreachable_obj())
        for _ in range(2):
            to_test_reference(b)
            to_guarded_actions(b)
        assert b == behavior_from_obj(unreachable_obj())
        assert b.warnings == ["unreachable risk states dropped: Fa, Fm"]

    def test_welding_cell_state_count(self, welding_cell):
        r = to_test_reference(welding_cell)
        assert 4 <= len(r.states) <= 27
        assert r.initial == "HS0_HC0_HRW0"


def unreachable_obj():
    """A behaviour of three risk states, two of them unreachable."""
    obj = single_transition_obj()
    obj["transitions"] = [
        {
            "source": {"F": "0"},
            "guard": "true",
            "output": {"y": 0},
            "target": {"F": "0"},
        },
        {
            "source": {"F": "a"},
            "guard": "true",
            "output": {"y": 1},
            "target": {"F": "m"},
        },
    ]
    return obj


# a factor's phase may stay or take its next step of the life cycle
PHASE_STEPS = {"0": "0a", "a": "am", "m": "m0"}


def behaviour_with_unreachable_states(rng) -> tuple[dict, str]:
    """A deterministic behaviour document over one or two factors and an
    int input `x`, whose transitions leave a random set of risk states, and
    the name of a risk state that has transitions but that no transition of
    another state enters, so that `initial` does not reach it."""
    factors = ["F", "G"][:rng.randint(1, 2)]
    hi = rng.randint(1, 3)
    states = [dict(zip(factors, phases)) for phases in product("0am", repeat=len(factors))]
    initial, unreached = states[0], rng.choice(states[1:])
    sources = rng.sample(states, rng.randint(1, len(states)))
    transitions = []
    for source in sources + ([unreached] if unreached not in sources else []):
        cuts = sorted(rng.sample(range(1, hi + 1), rng.randint(0, hi)))
        for lo, up in zip([0] + cuts, cuts + [hi + 1]):
            target = {f: rng.choice(PHASE_STEPS[p]) for f, p in source.items()}
            if target == unreached and source != unreached:
                target = source
            transitions.append({"source": source, "guard": f"x >= {lo} and x <= {up - 1}",
                                "output": {"y": rng.randint(0, 1)}, "target": target})
    rng.shuffle(transitions)
    obj = {"vars": [{"name": "x", "sort": {"int": [0, hi]}, "kind": "monitored"},
                    {"name": "y", "sort": {"int": [0, 1]}, "kind": "controlled"}]
           + [{"name": f, "sort": {"enum": ["0", "a", "m"]}, "kind": "factor"} for f in factors],
           "initial": initial, "transitions": transitions}
    return obj, "_".join(f"{f}{unreached[f]}" for f in factors)


def refused_as_output(step):
    """`step`, answering a refusal with an output that no step gives."""
    def total(pair):
        try:
            return step(pair)
        except SupervisorError:
            return pair[0], "refused"
    return total


class TestPruning:
    """The reader drops the actions of the risk states that `initial` does
    not reach; the program it gives must behave as the program of every
    transition of the file, `helpers.unpruned_program`."""

    @given(st.randoms(use_true_random=False), st.sampled_from(POLICIES))
    @settings(max_examples=120, deadline=None)
    def test_pruned_program_behaves_as_unpruned(self, rng, policy):
        obj, unreached = behaviour_with_unreachable_states(rng)
        b = behavior_from_obj(obj)
        [warning] = b.warnings
        assert unreached in warning.removeprefix("unreachable risk states dropped: ").split(", ")
        p, oracle = to_guarded_actions(b, policy), unpruned_program(obj, policy)
        assert len(p.actions) < len(oracle.actions)
        # the oracle's actions include the program's, so these are the joint guards
        guards = distinct_guards(a.guard for a in oracle.actions)
        inputs = [v for _, v, _ in truth_classes(guards, p.input_vars)]
        assert first_difference((p.initial, oracle.initial), inputs,
                                refused_as_output(p.step),
                                refused_as_output(oracle.step)) is None
        report = check_hypotheses(p, to_test_reference(b, policy))
        assert report.ok, report.summary()

    @given(st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_one_partition_per_reference(self, rng):
        r = to_test_reference(behavior_from_obj(behaviour_with_unreachable_states(rng)[0]))
        walks = []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(sfsm, "truth_classes",
                          lambda *args: walks.append(args) or truth_classes(*args))
            first = input_classes(r)
            assert input_classes(r) is first
        assert len(walks) == 1
        guards = distinct_guards(t.guard for t in r.transitions)
        assert first.guards == [print_guard(g) for g in guards]
        assert [(c.signature, c.representative, c.size) for c in first.classes] == \
            truth_classes(guards, r.input_vars)


def hypotheses(b):
    """The hypothesis report of `b`'s two translations."""
    return check_hypotheses(to_guarded_actions(b), to_test_reference(b))


class TestCheckHypotheses:
    def test_same_source_passes(self, welding_cell):
        p = to_guarded_actions(welding_cell)
        r = to_test_reference(welding_cell)
        assert check_hypotheses(p, r).ok

    def test_strengthened_guard_fails(self, welding_cell):
        p = to_guarded_actions(welding_cell)
        r = to_test_reference(welding_cell)
        decls = p.input_vars
        weak = next(i for i, a in enumerate(p.actions)
                    if a.name == "HSa")
        actions = list(p.actions)
        actions[weak] = actions[weak].replace(
            guard=parse_guard("hs_det = 1 and ack = 1", decls),
        )
        p2 = GuardedActionProgram(p.input_vars, p.output_vars, p.factors,
                                  p.initial, actions)
        report = check_hypotheses(p2, r)
        assert not report.ok
        # the weak guard's one input that the strengthened one no longer covers
        assert report.difference == ({"hs_det": 1, "hc_det": 0, "hrw_det": 0, "ack": 0},)

    def test_repeated_guard_fails(self, welding_cell):
        p = to_guarded_actions(welding_cell)
        r = to_test_reference(welding_cell)
        p2 = p.replace(actions=[*p.actions, p.actions[0]])
        assert p.actions[0].source == p.initial
        # the least input enabling the repeated action twice, which the
        # program refuses
        assert check_hypotheses(p2, r).difference == (
            {"hs_det": 1, "hc_det": 0, "hrw_det": 0, "ack": 0},)

    def test_agrees_with_program_equivalence_on_every_mutant(self, welding_cell):
        """A mutant passes exactly when it is equivalent to the program, and
        the word reported steps the program and the mutant to different
        outputs."""
        p = to_guarded_actions(welding_cell)
        r = to_test_reference(welding_cell)
        mutants = generate_mutants(p)
        assert len(mutants) == 181
        for mu in mutants:
            report = check_hypotheses(mu.target, r)
            assert report.ok == program_equivalent(p, mu.target), mu.id
            if report.difference is not None:
                assert outputs_along(p, report.difference) != \
                    outputs_along(mu.target, report.difference), mu.id

    def _with_hsa(self, p, **fields):
        actions = [a.replace(**fields) if a.name == "HSa" else a for a in p.actions]
        return p.replace(actions=actions)

    def test_output_edit_fails_on_one_input(self, welding_cell):
        p = to_guarded_actions(welding_cell)
        r = to_test_reference(welding_cell)
        hsa = next(a for a in p.actions if a.name == "HSa")
        assert hsa.output["notify"] == "alert"
        report = check_hypotheses(self._with_hsa(p, output={**hsa.output, "notify": "none"}), r)
        assert report.state_count_ok
        assert report.difference == ({"ack": 0, "hc_det": 0, "hrw_det": 0, "hs_det": 1},)
        assert 'behaviour differs on: {"ack":0,"hc_det":0,"hrw_det":0,"hs_det":1}' \
            in report.summary().splitlines()

    def test_rewritten_guard_passes(self, welding_cell):
        """Another text of the same guard is the same behaviour."""
        p = to_guarded_actions(welding_cell)
        r = to_test_reference(welding_cell)
        report = check_hypotheses(
            self._with_hsa(p, guard=parse_guard("not hs_det = 0", p.input_vars)), r)
        assert report.ok
        assert report.summary() == "control states: program=7 reference=7 [PASS]\n" \
                                   "hypotheses: PASS"

    def test_extra_state_fails(self, welding_cell):
        p = to_guarded_actions(welding_cell)
        r = to_test_reference(welding_cell)
        extra = dict(p.initial)
        extra["HS"] = "m"
        extra["HC"] = "m"
        actions = list(p.actions)
        from suptest.program import GuardedAction, _freeze
        actions.append(
            GuardedAction("ghost", parse_guard("false", p.input_vars),
                          _freeze(extra), actions[0].output, _freeze(extra))
        )
        p2 = GuardedActionProgram(p.input_vars, p.output_vars, p.factors,
                                  p.initial, actions)
        report = check_hypotheses(p2, r)
        assert not report.ok
        assert not report.state_count_ok


class TestSemanticAgreement:
    def test_interpreter_matches_sfsm_everywhere(self, welding_cell):
        p = to_guarded_actions(welding_cell)
        r = to_test_reference(welding_cell)
        for v in enumerate_valuations(r.input_vars):
            for state_name in r.states:
                target, reference_output = r.step((state_name, v))
                risk = tuple(sorted(zip(p.factors, _phases_from_name(state_name, p.factors))))
                r2, output = p.step((risk, v))
                assert output == reference_output
                assert risk_state_name(dict(r2), p.factors) == target

    def test_lifecycle_safety_along_runs(self, welding_cell):
        import random
        p = to_guarded_actions(welding_cell)
        rng = random.Random(7)
        space = list(enumerate_valuations(p.input_vars))
        allowed = {("0", "a"), ("a", "m"), ("m", "0")}
        interp = LocalSut(p)
        start_case(interp, *(rng.choice(space) for _ in range(500)))
        for _ in range(500):
            before = dict(interp.state)
            interp.step()
            after = dict(interp.state)
            for f in p.factors:
                assert before[f] == after[f] or (before[f], after[f]) in allowed


def outputs_along(behaviour, word) -> list:
    """The outputs of `behaviour`, stepped in process along `word`."""
    sut = LocalSut(behaviour)
    start_case(sut, *word)
    return [sut.step() for _ in word]


def _phases_from_name(name: str, factors):
    phases = []
    for part, f in zip(name.split("_"), factors):
        assert part.startswith(f)
        phases.append(part[len(f):])
    return phases
