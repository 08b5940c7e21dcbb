"""Mutant enumeration, equivalence oracle, classification, reporting."""

import hashlib
import json
import sys

import pytest

from helpers import m0
from suptest.encoding import canonical_dumps
from suptest.guards import Comparison, Not, print_guard
from suptest.harness import ERROR
from suptest.mutation import (
    EQUIVALENT,
    ESCAPED,
    EXTRA_STATE,
    GUARD_FLIP,
    KILLED,
    OUTPUT_FAULT,
    TRANSFER_FAULT,
    MutationOutcome,
    classify,
    generate_mutants,
    mutation_report,
    program_equivalent,
)
from suptest.sfsm import abstract_to_fsm, concretize_suite, input_classes
from suptest.supervisor import behavior_from_obj, to_guarded_actions, to_test_reference
from suptest.testgen import TestCase, TestSuite, h_method

from test_harness import behaviour_obj


@pytest.fixture(scope="module")
def program():
    return to_guarded_actions(behavior_from_obj(behaviour_obj()))


class TestMachineMutants:
    def test_output_fault_count(self, m0):
        # 4 transitions x 1 alternative output each
        mutants = generate_mutants(m0, operators=[OUTPUT_FAULT])
        assert len(mutants) == 4
        assert all(mu.operator == OUTPUT_FAULT for mu in mutants)

    def test_transfer_fault_count(self, m0):
        # 4 transitions x 1 alternative target each
        mutants = generate_mutants(m0, operators=[TRANSFER_FAULT])
        assert len(mutants) == 4
        for mu in mutants:
            assert mu.target.states == m0.states
            assert mu.target.transitions != m0.transitions

    def test_extra_state_has_equivalent_clone(self, m0):
        mutants = generate_mutants(m0, operators=[EXTRA_STATE])
        unperturbed = [
            mu for mu in mutants
            if "output" not in mu.locus and "target" not in mu.locus
        ]
        assert unperturbed
        for mu in unperturbed:
            assert len(mu.target.states) == 3
            assert m0.equivalent(mu.target) is None

    def test_limit_zero(self, m0):
        assert generate_mutants(m0, limit=0) == []

    def test_limit_sampling_deterministic(self, m0):
        a = generate_mutants(m0, limit=5, seed=9)
        b = generate_mutants(m0, limit=5, seed=9)
        assert [mu.id for mu in a] == [mu.id for mu in b]
        assert len(a) == 5

    def test_ids_unique(self, m0):
        mutants = generate_mutants(m0)
        assert len({mu.id for mu in mutants}) == len(mutants)

    @pytest.mark.parametrize("name, count, digest", [
        ("m0", 36, "32829c5c80ab98ac558674f9ffc6b923cac72c2b2dc9a9763dade02aa164d57b"),
        ("welding-cell", 20_944,
         "0c172f0aad11b6a91bb91ff6ba277bfda6c97a0f4ab858d1ef4cd1c42602fd4e"),
    ], ids=["m0", "welding-cell"])
    def test_mutants_pinned(self, m0, welding_cell, name, count, digest):
        # SHA-256 over every mutant's id, operator, locus, initial state,
        # states, and the transitions it changes, adds or drops against the
        # reference (the full machines of the 20 944 welding-cell mutants
        # encode to 384 MB of canonical JSON)
        ref = m0 if name == "m0" else abstract_to_fsm(to_test_reference(welding_cell))[0]
        mutants = generate_mutants(ref)
        listing = [
            [mu.id, mu.operator, mu.locus, mu.target.initial, mu.target.states,
             sorted([s, x, t, y] for (s, x), (t, y) in mu.target.transitions.items()
                    if ref.transitions.get((s, x)) != (t, y)),
             sorted(k for k in ref.transitions if k not in mu.target.transitions)]
            for mu in mutants
        ]
        assert len(mutants) == count
        encoded = json.dumps(listing, separators=(",", ":")).encode()
        assert hashlib.sha256(encoded).hexdigest() == digest


class TestProgramMutants:
    def test_operators_present(self, program):
        mutants = generate_mutants(program)
        ops = {mu.operator for mu in mutants}
        assert ops == {OUTPUT_FAULT, TRANSFER_FAULT, GUARD_FLIP}

    def test_mutants_have_total_semantics(self, program):
        from suptest.sfsm import POLICY_SELFLOOP
        for mu in generate_mutants(program, limit=10, seed=0):
            assert mu.target.policy == POLICY_SELFLOOP
            assert mu.target.resolution == "first"

    def test_guard_flip_changes_guard(self, program):
        from suptest.guards import print_guard
        for mu in generate_mutants(program, operators=[GUARD_FLIP]):
            index = int(mu.locus.split()[1])
            assert print_guard(mu.target.actions[index].guard) != \
                print_guard(program.actions[index].guard)

    def test_welding_cell_yields_at_least_100(self, welding_cell):
        p = to_guarded_actions(welding_cell)
        assert len(generate_mutants(p)) >= 100

    def test_welding_cell_mutants_pinned(self, welding_cell):
        # running SHA-256 over each mutant's id, operator, locus and program
        mutants = generate_mutants(to_guarded_actions(welding_cell))
        digest = hashlib.sha256()
        for mu in mutants:
            digest.update(canonical_dumps([mu.id, mu.operator, mu.locus,
                                           mu.target.to_obj()]).encode())
        assert len(mutants) == 181
        assert digest.hexdigest() == \
            "f3e97a94b5990df1ad5e2d9a4cccd2f321c043dd7859330e6b873807642c1b14"


class TestProgramEquivalence:
    def test_reflexive(self, program):
        assert program_equivalent(program, program)

    def test_detects_output_fault(self, program):
        mu = generate_mutants(program, operators=[OUTPUT_FAULT])[0]
        assert not program_equivalent(program, mu.target)

    def test_accepts_renamed_guard(self, program):
        from suptest.guards import parse_guard
        actions = list(program.actions)
        # x != 0 is x = 1 over the [0, 1] sort: semantically identical
        target = next(i for i, a in enumerate(actions)
                      if a.guard is not None)
        rewritten = parse_guard("x != 0", program.input_vars)
        original = actions[target]
        from suptest.guards import eval_guard
        if eval_guard(original.guard, {"x": 1}) and not eval_guard(original.guard, {"x": 0}):
            actions[target] = original.replace(guard=rewritten)
            p2 = program.replace(actions=actions)
            assert program_equivalent(program, p2)


class TestClassify:
    def test_killed_machine_mutant(self, m0):
        suite = h_method(m0, 2)
        mu = generate_mutants(m0, operators=[OUTPUT_FAULT])[0]
        outcome = classify(m0, suite, mu)
        assert outcome.status == KILLED
        assert outcome.first_failing_case is not None

    def test_equivalent_extra_state(self, m0):
        suite = h_method(m0, 2)
        mutants = generate_mutants(m0, operators=[EXTRA_STATE])
        mu = next(mu for mu in mutants
                  if "output" not in mu.locus and "target" not in mu.locus)
        outcome = classify(m0, suite, mu)
        assert outcome.status == EQUIVALENT

    def test_equivalent_mutant_failing_a_test_is_an_error(self, m0):
        suite = h_method(m0, 2)
        first = suite.cases[0]
        flipped = first.expected[:-1] + ("1" if first.expected[-1] == "0" else "0",)
        edited = TestSuite([TestCase(first.inputs, flipped), *suite.cases[1:]], "h", 2)
        mu = next(mu for mu in generate_mutants(m0, operators=[EXTRA_STATE])
                  if "output" not in mu.locus and "target" not in mu.locus)
        assert classify(m0, edited, mu) == MutationOutcome(
            mu.id, ERROR, 0, "equivalent mutant failed a test")

    def test_oracle_and_harness_agree(self, tmp_path, program):
        from suptest.encoding import canonical_dumps
        from suptest.sfsm import abstract_to_fsm, concretize_suite, input_classes
        from suptest.supervisor import to_test_reference

        behaviour = behavior_from_obj(behaviour_obj())
        reference = to_test_reference(behaviour)
        machine, amap = abstract_to_fsm(reference)
        suite = concretize_suite(
            h_method(machine, len(machine.states)),
            input_classes(reference), amap,
        )

        def sut_command(mu):
            path = tmp_path / f"{mu.id}.gap"
            path.write_text(canonical_dumps(mu.target.to_obj()))
            return [sys.executable, "-m", "suptest", "serve-reference", str(path)]

        for mu in generate_mutants(program, limit=6, seed=2):
            via_oracle = classify(program, suite, mu)
            via_harness = classify(program, suite, mu, via="harness",
                                   sut_command=sut_command)
            assert via_oracle.status == via_harness.status

    def test_suite_kind_must_match_target(self, m0, program):
        abstract = h_method(m0, 2)
        with pytest.raises(ValueError, match="concrete suite"):
            classify(program, abstract, generate_mutants(program, limit=1)[0])
        concrete = abstract.replace(concrete=True)
        with pytest.raises(ValueError, match="abstract one"):
            classify(m0, concrete, generate_mutants(m0, limit=1)[0])

    def test_unknown_mode_rejected(self, m0):
        suite = h_method(m0, 2)
        mu = generate_mutants(m0, limit=1)[0]
        with pytest.raises(ValueError):
            classify(m0, suite, mu, via="guesswork")

    def test_harness_mode_needs_a_command_factory(self, m0):
        mu = generate_mutants(m0, limit=1)[0]
        with pytest.raises(ValueError, match="^harness mode needs a sut_command factory$"):
            classify(m0, h_method(m0, 2), mu, via="harness")

    def test_negated_guard_flip(self):
        # the welding cell has no negated guard
        obj = behaviour_obj()
        obj["transitions"][1]["guard"] = "not (x = 1)"
        behaviour = behavior_from_obj(obj)
        p = to_guarded_actions(behaviour)
        reference = to_test_reference(behaviour)
        machine, amap = abstract_to_fsm(reference)
        suite = concretize_suite(h_method(machine, len(machine.states)),
                                 input_classes(reference), amap)
        mu = next(mu for mu in generate_mutants(p, operators=[GUARD_FLIP])
                  if mu.locus.startswith("action 1 "))
        assert mu.target.actions[1].guard == Not(Comparison("x", "!=", 1))
        assert print_guard(mu.target.actions[1].guard) == "(not x != 1)"
        assert not program_equivalent(p, mu.target)
        assert classify(p, suite, mu).status == KILLED


class TestReporting:
    def test_all_killed_scores_one(self, m0):
        suite = h_method(m0, 2)
        outcomes = [
            classify(m0, suite, mu)
            for mu in generate_mutants(m0, operators=[OUTPUT_FAULT])
        ]
        report = mutation_report(outcomes)
        assert report.score == 1.0
        assert report.counts[KILLED] == len(outcomes)

    def test_empty_report_has_no_score(self):
        report = mutation_report([])
        assert report.score is None
        assert "n/a" in report.summary()

    def test_escape_lowers_score(self):
        report = mutation_report([
            MutationOutcome("m0", KILLED, 0),
            MutationOutcome("m1", ESCAPED),
            MutationOutcome("m2", EQUIVALENT),
        ])
        assert report.score == 0.5
        assert "m1" in report.summary()

    def test_csv_shape(self):
        report = mutation_report([MutationOutcome("m0", KILLED, 3)])
        lines = report.to_csv().splitlines()
        assert lines[0] == "mutant,status,first_failing_case"
        assert lines[1] == "m0,KILLED,3"
