"""Wire protocol, SUT adapter, suite execution, offline cross-check."""

import io
import random
import re
import shlex
import sys
import threading
import time
from contextlib import nullcontext
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from suptest import harness as harness_module
from suptest import program as program_module
from suptest.cli import main
from suptest.encoding import ArtifactError, canonical_dumps, encode_step
from suptest.harness import (
    ERROR,
    FAIL,
    PASS,
    WINDOW,
    HarnessError,
    LocalSut,
    SutAdapter,
    SutStartError,
    TestReport,
    Verdict,
    run_suite,
    run_suite_offline,
    verdicts,
)
from suptest.mutation import (
    KILLED, OUTPUT_FAULT, MutationOutcome, classify, generate_mutants,
)
from suptest.guards import parse_guard
from suptest.program import (
    DEFAULT_STEP_TIMEOUT, MEMO_SIZE, GuardedAction, GuardedActionProgram,
    reference_answerer, serve_machine, serve_reference,
)
from suptest.sfsm import (
    POLICY_ERROR, POLICY_SELFLOOP, abstract_to_fsm, concretize_suite, input_classes,
)
from suptest.supervisor import (
    behavior_from_obj, to_guarded_actions, to_test_reference,
)
from suptest.testgen import TestCase, TestSuite, h_method

from helpers import (
    m0, plain_verdicts, random_machine, start_case, stepwise_machine_replies, stepwise_replies,
)

try:
    import fcntl
except ImportError:  # not POSIX
    fcntl = None


def behaviour_obj():
    """Three-state lifecycle controller over a single boolean sensor."""
    def t(phase, guard, y, phase2):
        return {
            "source": {"F": phase},
            "guard": guard,
            "output": {"y": y},
            "target": {"F": phase2},
        }

    return {
        "vars": [
            {"name": "x", "sort": {"int": [0, 1]}, "kind": "monitored"},
            {"name": "y", "sort": {"int": [0, 1]}, "kind": "controlled"},
            {"name": "F", "sort": {"enum": ["0", "a", "m"]}, "kind": "factor"},
        ],
        "initial": {"F": "0"},
        "transitions": [
            t("0", "x = 1", 1, "a"), t("0", "x = 0", 0, "0"),
            t("a", "x = 1", 0, "m"), t("a", "x = 0", 1, "a"),
            t("m", "x = 0", 0, "0"), t("m", "x = 1", 1, "m"),
        ],
    }


@pytest.fixture(scope="module")
def program():
    return to_guarded_actions(behavior_from_obj(behaviour_obj()))


@pytest.fixture(scope="module")
def concrete_suite(program):
    behaviour = behavior_from_obj(behaviour_obj())
    reference = to_test_reference(behaviour)
    machine, amap = abstract_to_fsm(reference)
    partition = input_classes(reference)
    suite = h_method(machine, len(machine.states))
    return concretize_suite(suite, partition, amap)


def serve_lines(program, lines):
    out = io.BytesIO()
    serve_reference(program, stdin=io.BytesIO(("\n".join(lines) + "\n").encode()), stdout=out)
    return out.getvalue().decode().splitlines()


class TestProtocol:
    def test_reset_ready(self, program):
        assert serve_lines(program, ["RESET"]) == ["READY"]

    def test_step_output(self, program):
        replies = serve_lines(program, ["RESET", 'IN {"x": 1}'])
        assert replies == ["READY", 'OUT {"y":1}']

    def test_reset_restores_initial_state(self, program):
        replies = serve_lines(
            program,
            ["RESET", 'IN {"x": 1}', "RESET", 'IN {"x": 1}'],
        )
        assert replies == ["READY", 'OUT {"y":1}', "READY", 'OUT {"y":1}']

    def test_malformed_input_err_state_unchanged(self, program):
        replies = serve_lines(
            program,
            ["RESET", "IN not-json", 'IN {"x": 1}', 'IN {"x": 1}'],
        )
        assert replies[0] == "READY"
        assert replies[1].startswith("ERR ")
        # same outputs as a clean run: the bad line did not advance the state
        assert replies[2:] == ['OUT {"y":1}', 'OUT {"y":0}']

    def test_unknown_command_err(self, program):
        replies = serve_lines(program, ["PING"])
        assert replies[0].startswith("ERR ")

    @pytest.mark.parametrize("policy", [POLICY_ERROR, POLICY_SELFLOOP])
    @pytest.mark.parametrize("line", [
        'IN {"x": 7}',          # outside the sort of x
        'IN {"x": 1, "zz": 3}',  # undeclared variable
        'IN {}',                 # partial valuation
        'IN {"x": true}',       # a bool is not an int
    ])
    def test_input_outside_declaration_err_state_unchanged(self, program, policy, line):
        replies = serve_lines(program.replace(policy=policy),
                              ["RESET", line, 'IN {"x": 1}', 'IN {"x": 1}'])
        assert replies[1].startswith("ERR ")
        assert replies[2:] == ['OUT {"y":1}', 'OUT {"y":0}']

    def test_blank_lines_ignored(self, program):
        out = io.BytesIO()
        serve_reference(program, stdin=io.BytesIO(b"\n\nRESET\n"), stdout=out)
        assert out.getvalue().splitlines() == [b"READY"]

    def test_reset_with_blanks_around_it(self, program):
        # x = 1 answers y = 1 only from the initial risk state
        script = b'RESET\nIN {"x":1}\n  RESET \t\nIN {"x":1}\n'
        expected = b'READY\nOUT {"y":1}\nREADY\nOUT {"y":1}\n'
        out = io.BytesIO()
        serve_reference(program, stdin=io.BytesIO(script), stdout=out)
        assert out.getvalue() == expected
        assert reference_answerer(program)(script) == expected


def two_factor_program(program):
    """`program` with a factor G, declared before F, that never changes
    phase, so that factor order and sorted order differ; and with no action
    for x = 0 in risk state 0."""
    def with_g(r):
        return tuple(sorted(dict(r, G="m").items()))

    return program.replace(
        factors=["G", "F"], initial=with_g(program.initial),
        actions=[a.replace(source=with_g(a.source), target=with_g(a.target))
                 for a in program.actions if (a.name, a.source) != ("nop", (("F", "0"),))])


def memo_programs(program) -> list:
    """Programs whose replies exercise every path of the memo: both
    policies with an uncovered input, a strict overlap, two factors, and
    `first`-resolution mutants."""
    # no action for x = 1 in risk state a
    incomplete = program.replace(actions=[a for a in program.actions if a.name != "Fm"])
    assert len(incomplete.actions) == len(program.actions) - 1
    # two actions enabled by x = 0 in risk state m
    overlap = program.replace(actions=program.actions + [GuardedAction(
        "overlap", parse_guard("x = 0", program.input_vars), (("F", "m"),), {"y": 1},
        (("F", "a"),))])

    variants = [program, incomplete, overlap, two_factor_program(program)]
    return ([p.replace(policy=policy) for p in variants
             for policy in (POLICY_ERROR, POLICY_SELFLOOP)]
            + [mu.target for mu in generate_mutants(program)])


# A small alphabet, so that lines repeat: valid inputs, the same input
# spelt twice, out-of-sort, undeclared, partial and malformed inputs, and
# lines that are not IN lines
MEMO_LINES = ["RESET", 'IN {"x":0}', 'IN {"x":1}', 'IN {"x": 1}', '  IN {"x":0}  ',
              'IN {"x":7}', 'IN {"x":1,"zz":3}', "IN {}", "IN nope", "IN nil", "IN [1]",
              "PING", ""]


class TestServeReferenceMemo:
    """`serve_reference` answers a repeated step from its memo; the oracle
    `helpers.stepwise_replies` works out every line."""

    @given(st.lists(st.sampled_from(MEMO_LINES), max_size=40))
    @settings(max_examples=80, deadline=None)
    def test_replies_match_stepwise_oracle(self, program, lines):
        for target in memo_programs(program):
            assert serve_lines(target, lines) == stepwise_replies(target, lines)

    def test_err_names_a_risk_state_one_way(self, program):
        # read from a file that lists G before F; x = 1, 1, 0 leads from the
        # initial risk state through a and m back to it
        doc = two_factor_program(program).to_obj()
        doc["initial"] = {"G": "m", "F": "0"}
        target = GuardedActionProgram.from_obj(doc)
        lines = ["RESET"] + [f'IN {{"x":{x}}}' for x in (0, 1, 1, 0, 0)]
        replies = serve_lines(target, lines)
        assert replies == stepwise_replies(target, lines)
        assert replies[1] == replies[5] == (
            "ERR no action enabled in risk state {'F': '0', 'G': 'm'} on input {\"x\":0}")

    def test_covers_every_reply_kind(self, program):
        replies = {reply for target in memo_programs(program)
                   for reply in stepwise_replies(target, MEMO_LINES * 3)}
        for expected in ("both enabled", "no action enabled", "OUT nil",
                         "not in sort", "missing variables", "undeclared",
                         "nil is not a valid input", "not a valuation",
                         "Expecting value", "unknown command"):
            assert any(expected in reply for reply in replies), expected

    def test_more_distinct_steps_than_the_memo_holds(self, program, monkeypatch):
        wide = program.replace(policy=POLICY_SELFLOOP, input_vars=[
            d.replace(sort=d.sort.replace(hi=2 * MEMO_SIZE)) for d in program.input_vars])
        # x >= 2 is covered by no action: nil, and risk state 0 stays
        lines = ["RESET"] + [f'IN {{"x":{x}}}' for x in range(2, MEMO_SIZE + 102)]
        expected = stepwise_replies(wide, lines + lines)
        worked = []
        step = GuardedActionProgram.step
        monkeypatch.setattr(GuardedActionProgram, "step",
                            lambda self, pair: worked.append(pair) or step(self, pair))
        replies = serve_lines(wide, lines + lines)
        assert replies == expected
        assert replies[1:len(lines)] == ["OUT nil"] * (MEMO_SIZE + 100)
        # the first MEMO_SIZE steps were stored, the last 100 are worked out again
        assert len(worked) == MEMO_SIZE + 100 + 100

    def test_payload_read_once_across_risk_states(self, program, monkeypatch):
        # x = 1 steps 0 -> a -> m, so the out-of-sort and the malformed
        # payload arrive in each risk state, and x = 0 leads back from m to 0
        lines = ["RESET"] + ['IN {"x":7}', "IN nope", 'IN {"x":1}'] * 3 + ['IN {"x":0}']
        for target in memo_programs(program):
            assert serve_lines(target, lines) == stepwise_replies(target, lines)
        reads = []
        read_input = program_module._read_input
        monkeypatch.setattr(program_module, "_read_input",
                            lambda *args: reads.append(args[1]) or read_input(*args))
        serve_lines(program, lines)
        assert sorted(reads) == ["nope", '{"x":0}', '{"x":1}', '{"x":7}']


# Protocol lines for a machine over the inputs a, b and c: known and unknown
# symbols, a symbol spelt with spaces, blank lines and unknown commands
MACHINE_LINES = ["RESET", "IN a", "IN b", "IN c", "IN  a ", "IN z", "IN nil", "",
                 "  ", "IN", "PING"]


class TestServeMachine:
    """`serve_machine` answers a repeated step from its memo; the oracle
    `helpers.stepwise_machine_replies` works out every line."""

    @given(st.integers(0, 10_000), st.integers(1, 4), st.integers(2, 3),
           st.lists(st.tuples(st.sampled_from(MACHINE_LINES),
                              st.sampled_from(["\n", "\r\n", "\r"])), max_size=40))
    @settings(max_examples=80, deadline=None)
    def test_replies_match_stepwise_oracle(self, seed, n, n_inputs, script):
        machine = random_machine(random.Random(seed), n, n_inputs, 2)
        out = io.BytesIO()
        serve_machine(machine, io.BytesIO("".join(map("".join, script)).encode()), out)
        lines = [line for line, _ in script]
        assert out.getvalue().decode().splitlines() == stepwise_machine_replies(machine, lines)

    def test_bare_symbol_protocol(self, m0):
        out = io.BytesIO()
        serve_machine(m0, stdin=io.BytesIO(b"RESET\nIN a\nIN a\n"), stdout=out)
        assert out.getvalue().splitlines() == [b"READY", b"OUT 1", b"OUT 0"]

    def test_unknown_symbol_err(self, m0):
        out = io.BytesIO()
        serve_machine(m0, stdin=io.BytesIO(b"RESET\nIN z\nIN a\n"), stdout=out)
        replies = out.getvalue().splitlines()
        assert replies[1].startswith(b"ERR ")
        assert replies[2] == b"OUT 1"


def symbolic_reference(policy):
    """The FSM of `behaviour_obj` under `policy`: under the self-loop policy
    with `x` widened to [0, 2], which no guard covers at 2, so that the FSM
    has the `nil` output label."""
    obj = behaviour_obj()
    if policy == POLICY_SELFLOOP:
        obj["vars"][0]["sort"] = {"int": [0, 2]}
    return abstract_to_fsm(to_test_reference(behavior_from_obj(obj)), policy)[0]


def serve_machine_command(tmp_path, machine, name="fsm") -> list[str]:
    """The command line of `python -m suptest serve-machine` serving
    `machine`, written to the file `name.json` in `tmp_path`."""
    path = tmp_path / f"{name}.json"
    path.write_text(canonical_dumps(machine.to_obj()))
    return [sys.executable, "-m", "suptest", "serve-machine", str(path)]


class TestSymbolicSutOverTheWire:
    """An abstract suite expects FSM labels, and the label `nil` is the
    wire token of a concrete suite's nil output."""

    @pytest.mark.parametrize("policy", [POLICY_ERROR, POLICY_SELFLOOP])
    def test_reference_passes_its_own_suite(self, tmp_path, policy):
        machine = symbolic_reference(policy)
        assert ("nil" in machine.outputs) == (policy == POLICY_SELFLOOP)
        suite = h_method(machine, len(machine.states))
        with SutAdapter(serve_machine_command(tmp_path, machine)) as sut:
            report = run_suite(sut, suite)
        assert report.counts == {PASS: len(suite.cases), FAIL: 0, ERROR: 0}

    def test_output_faults_fail_where_the_oracle_does(self, tmp_path):
        machine = symbolic_reference(POLICY_SELFLOOP)
        suite = h_method(machine, len(machine.states))
        mutants = [mu for mu in generate_mutants(machine, operators=[OUTPUT_FAULT])
                   if "nil" in mu.locus]  # to and from the label
        assert len(mutants) == 12

        def command(mu):
            return serve_machine_command(tmp_path, mu.target, mu.id)

        for mu in mutants:
            via_oracle = classify(machine, suite, mu)
            assert via_oracle.status == KILLED
            assert classify(machine, suite, mu, via="harness", sut_command=command) == via_oracle


def program_file(tmp_path, program, name="program.gap"):
    """`program` written to the file `name` in `tmp_path`, for a reference
    SUT to serve."""
    path = tmp_path / name
    path.write_text(canonical_dumps(program.to_obj()))
    return path


FAULT_SUT = Path(__file__).with_name("fault_sut.py")


def fault_sut(path, k: int = 0, fault: str = "none", marker="-") -> list[str]:
    """The command line of the exec'd reference SUT of the program file
    `path` whose first session, the one that finds no file `marker`, fails
    at its `k`-th input line with `fault` (`fault_sut.FaultyInput`); with
    "none", it serves every session as `serve-reference` does."""
    return [sys.executable, str(FAULT_SUT), str(path), str(k), fault, str(marker)]


class TestSutAdapter:
    def test_reset_and_step(self, tmp_path, program):
        with SutAdapter(program=program_file(tmp_path, program)) as sut:
            start_case(sut, {"x": 1}, {"x": 1})
            assert sut.step() == {"y": 1}
            assert sut.step() == {"y": 0}

    def test_timeout_raises(self):
        command = [sys.executable, "-c", "import time; time.sleep(30)"]
        with SutAdapter(command, step_timeout=0.3) as sut:
            with pytest.raises(HarnessError):
                start_case(sut)

    def test_err_reply_raises(self, tmp_path, program):
        with SutAdapter(program=program_file(tmp_path, program)) as sut:
            start_case(sut, "not-a-valuation")
            with pytest.raises(HarnessError):
                sut.step()

    def test_step_past_the_case_raises(self, tmp_path, program):
        with SutAdapter(program=program_file(tmp_path, program)) as sut:
            start_case(sut, {"x": 1})
            assert sut.step() == {"y": 1}
            with pytest.raises(HarnessError, match="^the case has no input left$"):
                sut.step()
            start_case(sut, {"x": 1})
            assert sut.step() == {"y": 1}

    def test_restart_reads_the_program_file_again(self, tmp_path, program):
        path = program_file(tmp_path, program)
        with SutAdapter(program=path) as sut:
            start_case(sut, {"x": 1})
            assert sut.step() == {"y": 1}
            flipped = program.replace(actions=[a.replace(output={"y": 1 - a.output["y"]})
                                               for a in program.actions])
            program_file(tmp_path, flipped)
            start_case(sut, {"x": 1})
            assert sut.step() == {"y": 1}  # read at start
            sut.restart()
            start_case(sut, {"x": 1})
            assert sut.step() == {"y": 0}
            path.unlink()
            with pytest.raises(SutStartError, match=f"^SUT serving {re.escape(str(path))} "
                                                    "in-line did not start: "):
                sut.restart()

    def test_debug_raises_the_readers_error(self, tmp_path, capfd, monkeypatch):
        monkeypatch.setenv("SUPTEST_DEBUG", "1")
        path = tmp_path / "missing.gap"
        with pytest.raises(ArtifactError,
                           match=f"^{re.escape(str(path))}: No such file or directory$"):
            SutAdapter(program=path).start()
        assert capfd.readouterr() == ("", "")

    def test_needs_a_command_or_a_program(self):
        with pytest.raises(ValueError, match="command line or a program file"):
            SutAdapter()


class TestPlan:
    """Each `reset` starts the plan's next case; a plan given while cases
    are in flight has their replies read and discarded first."""

    @pytest.fixture(scope="class")
    def welding_m8(self, welding_cell):
        """The welding cell's program and its concrete H-Method suite for
        m = 8."""
        reference = to_test_reference(welding_cell)
        machine, amap = abstract_to_fsm(reference)
        suite = concretize_suite(h_method(machine, 8), input_classes(reference), amap)
        return to_guarded_actions(welding_cell), suite

    @pytest.mark.parametrize("fault, failing", [(False, 0), (True, 1128)],
                             ids=["reference", "output-fault"])
    def test_replan_with_cases_in_flight(self, tmp_path, welding_m8, fault, failing):
        program, suite = welding_m8
        if fault:
            program = generate_mutants(program, operators=[OUTPUT_FAULT])[0].target
        path = program_file(tmp_path, program)
        with SutAdapter(program=path) as fresh:
            expected = list(verdicts(fresh, suite))
        assert len(suite.cases) == 2556
        assert sum(v.status == FAIL for v in expected) == failing
        with SutAdapter(program=path) as sut:
            answer = sut._answer
            abandoned = verdicts(sut, suite)
            assert [next(abandoned) for _ in range(3)] == expected[:3]
            assert sut._ahead  # cases in flight past the third
            assert list(verdicts(sut, suite)) == expected
            assert sut._answer is answer  # no restart
        assert all(v.status != ERROR for v in expected)

    @pytest.mark.parametrize("local", [False, True], ids=["adapter", "in-process"])
    def test_reset_past_the_plan_raises(self, tmp_path, program, concrete_suite, local):
        cases = concrete_suite.cases[:2]
        with (nullcontext(LocalSut(program)) if local
              else SutAdapter(program=program_file(tmp_path, program))) as sut:
            sut.plan(cases)
            for case in cases:
                sut.reset()
                assert tuple(sut.step() for _ in case.inputs) == case.expected
            with pytest.raises(HarnessError, match="^no planned case left$"):
                sut.reset()


def fake_sut(tmp_path, on_input: str) -> list[str]:
    """Command of a SUT that answers RESET with READY and runs the Python
    statement `on_input` on every other line."""
    path = tmp_path / "fake_sut.py"
    path.write_text(
        "import sys\n"
        "for line in sys.stdin:\n"
        "    if line.strip() == 'RESET':\n"
        "        print('READY', flush=True)\n"
        "    else:\n"
        f"        {on_input}\n"
    )
    return [sys.executable, str(path)]


class TestSutFailures:
    def test_unstartable_command_names_it(self, tmp_path):
        with pytest.raises(HarnessError, match="no-such-sut"):
            SutAdapter([str(tmp_path / "no-such-sut")]).start()

    def test_exit_reports_code_without_timeout(self, tmp_path, concrete_suite):
        suite = concrete_suite.replace(cases=concrete_suite.cases[:3])
        started = time.monotonic()
        with SutAdapter(fake_sut(tmp_path, "sys.exit(3)"), step_timeout=5) as sut:
            report = run_suite(sut, suite)
        assert time.monotonic() - started < 5
        assert [v.status for v in report.verdicts] == [ERROR] * 3
        assert all("code 3" in v.detail for v in report.verdicts)

    def test_closed_pipes_without_exit(self, tmp_path):
        command = fake_sut(tmp_path, "import os, time; os.close(1); time.sleep(30)")
        with SutAdapter(command, step_timeout=0.5) as sut:
            start_case(sut, {"x": 1})
            with pytest.raises(HarnessError, match="^SUT closed its pipes but did not exit$"):
                sut.step()

    def test_sut_that_cannot_start_ends_the_run(self, tmp_path, concrete_suite, capsys):
        script = tmp_path / "broken_sut.py"
        script.write_text("import sys\n"
                          "print('ImportError: no module named suptest', file=sys.stderr)\n"
                          "sys.exit(3)\n")
        path = tmp_path / "suite.json"
        path.write_text(canonical_dumps(concrete_suite.to_obj()))
        started = time.monotonic()
        code = main(["run", str(path), "--sut", shlex.join([sys.executable, str(script)]),
                     "--out", str(tmp_path / "report.json")])
        assert time.monotonic() - started < DEFAULT_STEP_TIMEOUT
        assert code == 2
        err = capsys.readouterr().err
        assert "exited with code 3" in err
        assert "ImportError: no module named suptest" in err
        assert not (tmp_path / "report.json").exists()

    def test_sut_that_dies_kills_no_mutant(self, tmp_path, program, concrete_suite):
        mutant = generate_mutants(program, operators=[OUTPUT_FAULT], limit=1)[0]
        command = fake_sut(tmp_path, "sys.exit(3)")
        outcome = classify(program, concrete_suite, mutant, via="harness",
                           sut_command=lambda mu: command)
        assert outcome == MutationOutcome(mutant.id, ERROR, 0, "SUT exited with code 3")

    @pytest.mark.parametrize("reply", ['OUT {bad', 'OUT {"y":true}', 'OUT {"y":1.0}', 'HELLO'])
    def test_malformed_reply_is_an_error_verdict(self, tmp_path, concrete_suite, reply):
        suite = concrete_suite.replace(cases=concrete_suite.cases[:3])
        command = fake_sut(tmp_path, f"print({reply!r}, flush=True)")
        with SutAdapter(command) as sut:
            report = run_suite(sut, suite)
        assert [v.status for v in report.verdicts] == [ERROR] * 3
        assert all(reply in v.detail for v in report.verdicts)
        path = tmp_path / "suite.json"
        path.write_text(canonical_dumps(suite.to_obj()))
        assert main(["run", str(path), "--sut", shlex.join(command)]) == 1


def echo_suite(*cases) -> TestSuite:
    """A concrete suite over `x` whose cases expect `y` to echo `x`, except
    where a case gives its expected output as `(x, y)`."""
    built = []
    for case in cases:
        steps = [step if isinstance(step, tuple) else (step, step) for step in case]
        built.append(TestCase(tuple({"x": x} for x, _ in steps),
                              tuple({"y": y} for _, y in steps)))
    return TestSuite(built, "h", 2, concrete=True)


ECHO = "print('OUT ' + line[3:].strip().replace('x', 'y'), flush=True)"


class OnePageSutAdapter(SutAdapter):
    """A SutAdapter whose SUT's input and output pipes hold one page each,
    as Linux hands them out once a user passes `pipe-user-pages-soft`."""

    def start(self) -> None:
        super().start()
        for pipe in (self.process.stdin, self.process.stdout):
            fcntl.fcntl(pipe.fileno(), fcntl.F_SETPIPE_SZ, 4096)


one_page_pipes = pytest.mark.skipif(not hasattr(fcntl, "F_SETPIPE_SZ"),
                                    reason="pipe capacity cannot be set here")


def guarded_verdicts(sut, suite, timeout=30) -> list[Verdict]:
    """`verdicts(sut, suite)`, or, if the run is still going after `timeout`
    seconds, deadlocked, the verdicts it gives once the SUT is killed."""
    results = []
    worker = threading.Thread(target=lambda: results.extend(verdicts(sut, suite)),
                              daemon=True)
    worker.start()
    worker.join(timeout=timeout)
    if worker.is_alive():
        sut.process.kill()
        worker.join()
    return results


class TestPipelinedCases:
    """A case's lines go out before its replies are read; replies after a
    mismatch are discarded, and a SUT that fails meanwhile is restarted
    without changing any verdict."""

    def run_with_pids(self, sut, suite) -> tuple[int, list[tuple]]:
        """The SUT's first pid, and (status, step, observed, pid of the SUT
        once the case's verdict is out) per case."""
        first = sut.process.pid
        return first, [(v.status, v.step_index, v.observed_output, sut.process.pid)
                       for v in verdicts(sut, suite)]

    @pytest.mark.parametrize("on_input", [
        # exits right after its mismatching reply
        f"{ECHO}; sys.exit(5) if '9' in line else None",
        # exits on the input after the mismatch
        f"sys.exit(5) if '8' in line else {ECHO}",
        # answers ERR to the input after the mismatch
        f"print('ERR no', flush=True) if '8' in line else {ECHO}",
        # hangs on the input after the mismatch
        f"__import__('time').sleep(30) if '8' in line else {ECHO}",
    ], ids=["exit-after-mismatch", "exit-on-next-input", "err-on-next-input",
            "hang-on-next-input"])
    def test_failure_after_mismatch_restarts_quietly(self, tmp_path, on_input):
        suite = echo_suite([1, (9, 0), 8, 2], [3, 4])
        started = time.monotonic()
        with SutAdapter(fake_sut(tmp_path, on_input), step_timeout=0.5) as sut:
            first, results = self.run_with_pids(sut, suite)
        assert results[0] == (FAIL, 1, {"y": 9}, first)
        assert results[1][:3] == (PASS, None, None) and results[1][3] != first
        assert time.monotonic() - started < 5

    def test_err_mid_case_is_an_error_then_a_restart(self, tmp_path):
        suite = echo_suite([1, 7, 2], [3, 4])
        command = fake_sut(tmp_path, f"print('ERR no', flush=True) if '7' in line else {ECHO}")
        with SutAdapter(command) as sut:
            first, results = self.run_with_pids(sut, suite)
        assert [r[:3] for r in results] == [(ERROR, None, None), (PASS, None, None)]
        assert results[1][3] != first

    def test_mismatch_then_next_case_on_same_sut(self, tmp_path):
        suite = echo_suite([1, (9, 0), 8, 2], [3, 4])
        with SutAdapter(fake_sut(tmp_path, ECHO)) as sut:
            first, results = self.run_with_pids(sut, suite)
        assert results == [(FAIL, 1, {"y": 9}, first), (PASS, None, None, first)]

    def test_program_mutants_match_plain_loop_over_the_wire(
            self, tmp_path, program, concrete_suite):
        for mu in generate_mutants(program):
            with SutAdapter(program=program_file(tmp_path, mu.target, f"{mu.id}.gap")) as sut:
                online = [(v.status, v.step_index, v.observed_output)
                          for v in verdicts(sut, concrete_suite)]
            assert online == plain_verdicts(mu.target, concrete_suite), mu.id

    @pytest.mark.parametrize("adapter", [
        pytest.param(lambda path: SutAdapter(fault_sut(path)), id="default"),
        pytest.param(lambda path: OnePageSutAdapter(fault_sut(path)), id="one-page",
                     marks=one_page_pipes),
        pytest.param(lambda path: SutAdapter(program=path), id="in-line"),
    ])
    def test_case_longer_than_a_pipe_passes(self, tmp_path, adapter):
        # long names: written without reading replies in between, the case
        # fills the pipe of replies, and then the pipe of inputs
        x, y = "x" * 40, "y" * 200
        behaviour = {
            "vars": [
                {"name": x, "sort": {"int": [0, 1]}, "kind": "monitored"},
                {"name": y, "sort": {"int": [0, 1]}, "kind": "controlled"},
                {"name": "F", "sort": {"enum": ["0", "a", "m"]}, "kind": "factor"},
            ],
            "initial": {"F": "0"},
            "transitions": [{"source": {"F": "0"}, "guard": "true",
                             "output": {y: 1}, "target": {"F": "0"}}],
        }
        one_state = to_guarded_actions(behavior_from_obj(behaviour))
        steps = 3_000
        case = TestCase(tuple({x: i % 2} for i in range(steps)), ({y: 1},) * steps)
        suite = TestSuite([case], "h", 1, concrete=True)
        assert sum(len(f"IN {encode_step(v)}\n") for v in case.inputs) > 65_536
        with adapter(program_file(tmp_path, one_state, "one-state.gap")) as sut:
            results = guarded_verdicts(sut, suite)
        assert [v.status for v in results] == [PASS]

    @one_page_pipes
    def test_step_timeout_bounds_writes(self, tmp_path):
        # the SUT stops reading with most of the case unwritten
        suite = echo_suite([1] * 10_000)
        assert sum(len(f"IN {encode_step(v)}\n") for v in suite.cases[0].inputs) > 65_536
        started = time.monotonic()
        command = fake_sut(tmp_path, "__import__('time').sleep(60)")
        with OnePageSutAdapter(command, step_timeout=0.5) as sut:
            results = guarded_verdicts(sut, suite, timeout=10)
        assert [(v.status, v.detail) for v in results] == \
            [(ERROR, "SUT did not answer within 0.5s")]
        assert time.monotonic() - started < 5


class TestRunSuite:
    def test_self_conformance(self, tmp_path, program, concrete_suite):
        with SutAdapter(program=program_file(tmp_path, program)) as sut:
            report = run_suite(sut, concrete_suite)
        assert report.complete_pass
        assert report.counts[PASS] == len(concrete_suite.cases)

    def test_mutant_fails(self, tmp_path, program, concrete_suite):
        mutant = generate_mutants(program, operators=[OUTPUT_FAULT])[0]
        with SutAdapter(program=program_file(tmp_path, mutant.target, "mutant.gap")) as sut:
            report = run_suite(sut, concrete_suite)
        assert not report.complete_pass
        failing = [v for v in report.verdicts if v.status == FAIL]
        assert failing
        first = failing[0]
        assert first.step_index is not None
        assert first.observed_output != first.expected_output

    def test_silent_sut_ends_the_run(self, concrete_suite):
        command = [sys.executable, "-c", "import time; time.sleep(30)"]
        started = time.monotonic()
        with SutAdapter(command, step_timeout=0.5) as sut:
            with pytest.raises(SutStartError, match="did not answer within 0.5s"):
                run_suite(sut, concrete_suite)
        assert time.monotonic() - started < 2.5  # one timeout, not one per case

    def test_agrees_with_offline_run(self, tmp_path, program, concrete_suite):
        mutant = generate_mutants(program, operators=[OUTPUT_FAULT])[2]
        offline = run_suite_offline(mutant.target, concrete_suite)
        with SutAdapter(program=program_file(tmp_path, mutant.target, "mutant.gap")) as sut:
            online = run_suite(sut, concrete_suite)
        assert [v.status for v in offline.verdicts] == \
            [v.status for v in online.verdicts]
        assert [v.step_index for v in offline.verdicts] == \
            [v.step_index for v in online.verdicts]

    def test_one_verdict_per_case(self, tmp_path, program, concrete_suite):
        with SutAdapter(program=program_file(tmp_path, program)) as sut:
            report = run_suite(sut, concrete_suite)
        assert [v.case_index for v in report.verdicts] == \
            list(range(len(concrete_suite.cases)))


def first_not_passing(results) -> int | None:
    return next((i for i, (status, _, _) in enumerate(results) if status != PASS), None)


class TestSharedLoop:
    """The one case loop against the plain loop in `helpers.plain_verdicts`."""

    def test_program_mutants_match_plain_loop(self, program, concrete_suite):
        for mu in generate_mutants(program):
            expected = plain_verdicts(mu.target, concrete_suite)
            offline = run_suite_offline(mu.target, concrete_suite)
            assert [(v.status, v.step_index, v.observed_output)
                    for v in offline.verdicts] == expected, mu.id
            outcome = classify(program, concrete_suite, mu)
            assert outcome.first_failing_case == first_not_passing(expected), mu.id

    def test_machine_mutants_match_plain_loop(self, m0):
        suite = h_method(m0, 3)
        for mu in generate_mutants(m0):
            expected = plain_verdicts(mu.target, suite)
            stream = verdicts(LocalSut(mu.target), suite)
            assert [(v.status, v.step_index, v.observed_output) for v in stream] == expected
            assert classify(m0, suite, mu).first_failing_case == first_not_passing(expected)

    def test_classify_stops_at_first_failing_case(self, monkeypatch, program, concrete_suite):
        mu = generate_mutants(program, operators=[OUTPUT_FAULT])[0]
        expected = plain_verdicts(mu.target, concrete_suite)
        first = first_not_passing(expected)
        assert first is not None and first + 1 < len(concrete_suite.cases)
        steps = []
        step = LocalSut.step
        monkeypatch.setattr(LocalSut, "step", lambda self: steps.append(self) or step(self))
        outcome = classify(program, concrete_suite, mu)
        assert (outcome.status, outcome.first_failing_case) == (KILLED, first)
        before = sum(len(case.inputs) for case in concrete_suite.cases[:first])
        assert len(steps) == before + expected[first][1] + 1


class TestAdapterCaches:
    """`SutAdapter` encodes each distinct input, and decodes each distinct
    OUT line, once; its verdicts against a reference SUT must equal
    `helpers.plain_verdicts`, which encodes and decodes nothing."""

    @pytest.fixture(scope="class")
    def adapter(self, tmp_path_factory, program):
        path = program_file(tmp_path_factory.mktemp("caches"), program)
        with SutAdapter(program=path) as sut:
            yield sut

    @staticmethod
    def expected_outputs(program, inputs, flip):
        """The program's outputs along `inputs`, reading a bool as its int,
        with the output at step `flip` changed, if there is one."""
        r, outputs = program.initial, []
        for i, v in enumerate(inputs):
            r, o = program.step((r, {"x": int(v["x"])}))
            outputs.append({"y": 1 - o["y"]} if i == flip else o)
        return tuple(outputs)

    # one case sends 1 and another True, which is equal to 1 and hashes
    # alike but is not in the int sort; one case expects a wrong output.
    # Each ERR restarts the SUT, so the drawn cases send no True.
    FIXED = [([1], None), ([0, True], None), ([0, 1, 1], 2)]

    # each suite runs as built, one object a step, and as read back from its
    # document, which shares the valuations equal in value and type.  The
    # reader refuses the valuation that holds True, so the read-back
    # document sends 2 there, which the SUT refuses as it refuses True
    @pytest.mark.parametrize("read_back", [False, True], ids=["built", "read-back"])
    @given(st.lists(st.tuples(st.lists(st.sampled_from([0, 1]), min_size=1, max_size=6),
                              st.none() | st.integers(0, 5)), max_size=8),
           st.randoms(use_true_random=False))
    @settings(max_examples=25, deadline=None)
    def test_verdicts_match_plain_loop(self, adapter, program, read_back, drawn, rng):
        steps = self.FIXED + drawn
        rng.shuffle(steps)
        suite = TestSuite([TestCase(tuple({"x": x} for x in xs),
                                    self.expected_outputs(program, [{"x": x} for x in xs], flip))
                           for xs, flip in steps], "h", 3, concrete=True)
        expected = plain_verdicts(program, suite)
        if read_back:
            doc = suite.to_obj()
            with pytest.raises(ValueError, match=re.escape("must be a valuation of strings "
                                                           "and integers, got {'x': True}")):
                TestSuite.from_obj(doc)
            for case in doc["cases"]:
                case["inputs"] = [{"x": 2} if v["x"] is True else v for v in case["inputs"]]
            suite = TestSuite.from_obj(doc)
            assert plain_verdicts(program, suite) == expected
        assert {status for status, _, _ in expected} == {PASS, FAIL, ERROR}
        assert [(v.status, v.step_index, v.observed_output)
                for v in verdicts(adapter, suite)] == expected

    def test_malformed_reply_is_never_remembered(self, tmp_path, monkeypatch):
        decoded = []
        decode = harness_module.decode_step
        monkeypatch.setattr(harness_module, "decode_step",
                            lambda text: decoded.append(text) or decode(text))
        suite = echo_suite([1], [1], [1])
        with SutAdapter(fake_sut(tmp_path, "print('OUT {\"y\":true}', flush=True)")) as sut:
            results = [(v.status, v.detail) for v in verdicts(sut, suite)]
        reply = 'OUT {"y":true}'
        assert results == [(ERROR, f"malformed SUT reply {reply!r}")] * 3
        assert decoded == ['{"y":true}'] * 3


def with_first_session_fault(suite, expected, k: int) -> list[tuple]:
    """`expected`, verdicts of a SUT that does not fail, as they read once
    the SUT's first session fails at its `k`-th line: the case that reads
    the reply to that line is ERROR, and the failure ends the session, as
    does any ERROR verdict before it.  Lines go out case after case, each
    case whole, so the first session's `k`-th line is known."""
    results, sent = [], 0  # lines the first session was sent; None once it has ended
    for case, (status, step, observed) in zip(suite.cases, expected):
        lines = 1 + len(case.inputs)
        if sent is not None and sent < k <= sent + lines:
            # line 0 of a case is RESET, line t + 1 its step t
            if status != FAIL or k - sent - 1 <= step + 1:
                status, step, observed = ERROR, None, None
            sent = None
        elif sent is not None:
            sent = None if status == ERROR else sent + lines
        results.append((status, step, observed))
    return results


class TestWindow:
    """Cases go out ahead of their RESET, up to `WINDOW` bytes past the
    current one, and a restarted SUT is sent again those in flight: the
    verdicts must still equal `helpers.plain_verdicts`, also when the SUT
    fails at a line inside the window."""

    LONG = [1, 0] * 4_000  # a case whose lines alone pass the window

    @staticmethod
    def suite_of(program, steps) -> TestSuite:
        """A suite over `x` of `(xs, flip)` pairs, as in `TestAdapterCaches`."""
        return TestSuite([TestCase(tuple({"x": x} for x in xs),
                                   TestAdapterCaches.expected_outputs(
                                       program, [{"x": x} for x in xs], flip))
                          for xs, flip in steps], "h", 3, concrete=True)

    @staticmethod
    def run_failing(directory, program, suite, k: int, fault: str) -> tuple[list, list]:
        """The verdicts of `suite` against the exec'd reference SUT of
        `program` whose first session fails at line `k` with `fault`, or not
        at all for "none" (`fault_sut`), and those
        `with_first_session_fault` expects."""
        expected = plain_verdicts(program, suite)
        if fault != "none":
            expected = with_first_session_fault(suite, expected, k)
        command = fault_sut(program_file(directory, program), k, fault, directory / "faulted")
        with SutAdapter(command, step_timeout=0.5) as sut:
            results = [(v.status, v.step_index, v.observed_output)
                       for v in verdicts(sut, suite)]
        return results, expected

    @given(st.lists(st.tuples(st.lists(st.sampled_from([0, 1]), max_size=6),
                              st.none() | st.integers(0, 5)), max_size=12),
           st.randoms(use_true_random=False),
           st.sampled_from(["none", "err", "exit", "hang"]),
           st.integers(0, 20), st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_verdicts_match_plain_loop(self, tmp_path_factory, program, drawn, rng,
                                       fault, at_case, at_line):
        steps = TestAdapterCaches.FIXED + [(self.LONG, 3_333)] + drawn
        rng.shuffle(steps)
        suite = self.suite_of(program, steps)
        # a drawn line of a drawn case, never the first RESET, whose failure
        # ends the run (SutStartError)
        at_case %= len(suite.cases)
        before = sum(1 + len(c.inputs) for c in suite.cases[:at_case])
        k = max(2, before + 1 + at_line % (1 + len(suite.cases[at_case].inputs)))
        directory = tmp_path_factory.mktemp("window")
        results, expected = self.run_failing(directory, program, suite, k, fault)
        assert results == expected
        with SutAdapter(program=directory / "program.gap") as sut:  # in-line, without a fault
            assert [(v.status, v.step_index, v.observed_output)
                    for v in verdicts(sut, suite)] == plain_verdicts(program, suite)

    @pytest.mark.parametrize("fault", ["err", "exit", "hang"])
    @pytest.mark.parametrize("at_case, at_step, seen", [
        (2, None, True),   # the RESET of a case sent ahead
        (1, 3, False),     # after the mismatch at step 1: read and discarded
        (3, 7_000, True),  # far into a case longer than the window
    ], ids=["reset-ahead", "after-mismatch", "long-case"])
    def test_failure_inside_the_window(self, tmp_path, program, fault, at_case, at_step,
                                       seen):
        suite = self.suite_of(program, [([1], None), ([0, 1, 1, 0], 1), ([1, 0, 1], None),
                                        (self.LONG, None), ([0, 0], None)])
        k = sum(1 + len(c.inputs) for c in suite.cases[:at_case]) + 1 + (
            0 if at_step is None else at_step + 1)
        results, expected = self.run_failing(tmp_path, program, suite, k, fault)
        assert results == expected
        assert (expected != plain_verdicts(program, suite)) == seen

    def test_replies_written_before_an_exit_count(self, tmp_path, program):
        # the SUT exits at the RESET of case 2, while lines of later cases
        # still wait to be written: its replies to case 0, longer than a
        # pipe holds, and to case 1 are in the pipe and still count
        suite = self.suite_of(program, [(self.LONG, None)] + [([1], None)] * 5_000)
        k = 1 + len(self.LONG) + 2 + 1
        results, expected = self.run_failing(tmp_path, program, suite, k, "exit")
        assert results == expected
        assert results[:3] == [(PASS, None, None)] * 2 + [(ERROR, None, None)]

    def test_killed_mutant_is_sent_at_most_a_window_more(self, tmp_path, program,
                                                        concrete_suite):
        mu = generate_mutants(program, operators=[OUTPUT_FAULT])[0]
        suite = concrete_suite.replace(cases=concrete_suite.cases * 500)
        first = first_not_passing(plain_verdicts(mu.target, suite))
        sizes = [len("RESET\n") + sum(len(f"IN {encode_step(v)}\n") for v in case.inputs)
                 for case in suite.cases]
        through_failing = sum(sizes[:first + 1])
        assert sum(sizes) > through_failing + 2 * WINDOW
        script = tmp_path / "counting_sut.py"
        script.write_text(
            "import sys\n"
            "from suptest.program import load_program, serve_reference\n"
            "class Counting:\n"
            "    def __init__(self, stream, log):\n"
            "        self.stream, self.log, self.received = stream, log, 0\n"
            "    def read1(self, size=-1):\n"
            "        data = self.stream.read1(size)\n"
            "        self.received += len(data)\n"
            "        self.log.seek(0)\n"
            "        self.log.write(str(self.received).encode())\n"
            "        self.log.flush()\n"
            "        return data\n"
            "with open(sys.argv[2], 'wb') as log:\n"
            "    serve_reference(load_program(sys.argv[1]), Counting(sys.stdin.buffer, log), None)\n")
        log = tmp_path / "received"
        path = program_file(tmp_path, mu.target, "mutant.gap")
        outcome = classify(program, suite, mu, via="harness",
                           sut_command=lambda _: [sys.executable, str(script), str(path), str(log)])
        assert (outcome.status, outcome.first_failing_case) == (KILLED, first)
        assert 0 < int(log.read_text()) <= through_failing + WINDOW


class TestOfflineRun:
    def test_requires_concrete_suite(self, program):
        abstract = TestSuite([TestCase(("c0",), ("o0",))], "h", 2)
        with pytest.raises(HarnessError):
            run_suite_offline(program, abstract)

    def test_self_conformance(self, program, concrete_suite):
        assert run_suite_offline(program, concrete_suite).complete_pass

    def test_reference_runs_in_process(self, welding_cell):
        """The test reference steps like every other behaviour, so it runs
        in process, and passes the suite it was abstracted into as the
        program does."""
        program = to_guarded_actions(welding_cell)
        reference = to_test_reference(welding_cell)
        machine, amap = abstract_to_fsm(reference)
        suite = concretize_suite(h_method(machine, len(machine.states)),
                                 input_classes(reference), amap)
        report = run_suite(LocalSut(reference), suite)
        assert report.complete_pass
        assert report.verdicts == run_suite_offline(program, suite).verdicts


class TestReportShape:
    def test_counts_and_complete_pass(self):
        report = TestReport("h", 3, [Verdict(0, PASS), Verdict(1, FAIL, 2)])
        assert report.counts == {PASS: 1, FAIL: 1, ERROR: 0}
        assert not report.complete_pass
        assert "NOT CONFORMING" in report.summary()

    def test_empty_report_is_not_a_pass(self):
        assert not TestReport("h", 3).complete_pass

    def test_summary_shows_values_in_wire_form(self):
        report = TestReport("h", 3, [
            Verdict(0, FAIL, 1, "c1", "o1", "o2"),
            Verdict(1, FAIL, 0, {"x": 1, "m": "a"}, None, {"y": "on"}),
        ])
        assert report.summary().splitlines()[1:3] == [
            "  case 0 FAIL at step 1: sent c1, expected o1, observed o2",
            '  case 1 FAIL at step 0: sent {"m":"a","x":1}, expected nil, '
            'observed {"y":"on"}',
        ]

    def test_to_obj_omits_duration(self):
        report = TestReport("h", 3, [Verdict(0, PASS)], duration=1.23)
        obj = report.to_obj()
        assert "duration" not in obj
        assert obj["completePass"] is True
