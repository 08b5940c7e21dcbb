"""Wire protocol, SUT adapter, suite execution, offline cross-check."""

import io
import shlex
import sys
import threading
import time
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from suptest import harness as harness_module
from suptest import program as program_module
from suptest.cli import main
from suptest.encoding import canonical_dumps, encode_step
from suptest.harness import (
    ERROR,
    FAIL,
    PASS,
    HarnessError,
    MachineSut,
    SutAdapter,
    SutStartError,
    TestReport,
    Verdict,
    run_suite,
    run_suite_offline,
    serve_machine,
    verdicts,
)
from suptest.mutation import (
    KILLED, OUTPUT_FAULT, MutationOutcome, classify, generate_mutants,
)
from suptest.guards import parse_guard
from suptest.program import (
    DEFAULT_STEP_TIMEOUT, MEMO_SIZE, GuardedAction, Interpreter, interpret_step,
    serve_reference,
)
from suptest.sfsm import (
    POLICY_ERROR, POLICY_SELFLOOP, abstract_to_fsm, concretize_suite, input_classes,
)
from suptest.supervisor import (
    behavior_from_obj, to_guarded_actions, to_test_reference,
)
from suptest.testgen import TestCase, TestSuite, h_method

from helpers import m0, plain_verdicts, stepwise_replies

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
    out = io.StringIO()
    serve_reference(program, stdin=io.StringIO("\n".join(lines) + "\n"), stdout=out)
    return out.getvalue().splitlines()


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
        out = io.StringIO()
        serve_reference(program, stdin=io.StringIO("\n\nRESET\n"), stdout=out)
        assert out.getvalue().splitlines() == ["READY"]


def memo_programs(program) -> list:
    """Programs whose replies exercise every path of the memo: both
    policies with an uncovered input, a strict overlap, risk-state items
    out of sorted order, and `first`-resolution mutants."""
    # no action for x = 1 in risk state a
    incomplete = program.replace(actions=[a for a in program.actions if a.name != "Fm"])
    assert len(incomplete.actions) == len(program.actions) - 1
    # two actions enabled by x = 0 in risk state m
    overlap = program.replace(actions=program.actions + [GuardedAction(
        "overlap", parse_guard("x = 0", program.input_vars), (("F", "m"),), {"y": 1},
        (("F", "a"),))])

    def with_g(r):
        return tuple(sorted(dict(r, G="g").items()))

    # no action for x = 0 in risk state 0, whose items are out of sorted
    # order initially and sorted once it is entered again from m
    two_factors = program.replace(
        factors=["G", "F"], initial={"G": "g", "F": "0"},
        actions=[a.replace(source=with_g(a.source), target=with_g(a.target))
                 for a in program.actions if (a.name, a.source) != ("nop", (("F", "0"),))])
    variants = [program, incomplete, overlap, two_factors]
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
        worked = []
        step_reply = program_module._step_reply
        monkeypatch.setattr(program_module, "_step_reply",
                            lambda *args: worked.append(args) or step_reply(*args))
        replies = serve_lines(wide, lines + lines)
        assert replies == stepwise_replies(wide, lines + lines)
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


class TestServeMachine:
    def test_bare_symbol_protocol(self, m0):
        out = io.StringIO()
        serve_machine(m0, stdin=io.StringIO("RESET\nIN a\nIN a\n"), stdout=out)
        assert out.getvalue().splitlines() == ["READY", "OUT 1", "OUT 0"]

    def test_unknown_symbol_err(self, m0):
        out = io.StringIO()
        serve_machine(m0, stdin=io.StringIO("RESET\nIN z\nIN a\n"), stdout=out)
        replies = out.getvalue().splitlines()
        assert replies[1].startswith("ERR ")
        assert replies[2] == "OUT 1"


class TestSutAdapter:
    def sut_command(self, tmp_path, program):
        from suptest.encoding import canonical_dumps
        path = tmp_path / "program.gap"
        path.write_text(canonical_dumps(program.to_obj()))
        return [sys.executable, "-m", "suptest", "serve-reference", str(path)]

    def test_reset_and_step(self, tmp_path, program):
        with SutAdapter(self.sut_command(tmp_path, program)) as sut:
            sut.reset()
            assert sut.step({"x": 1}) == {"y": 1}
            assert sut.step({"x": 1}) == {"y": 0}

    def test_timeout_raises(self):
        command = [sys.executable, "-c", "import time; time.sleep(30)"]
        with SutAdapter(command, step_timeout=0.3) as sut:
            with pytest.raises(HarnessError):
                sut.reset()

    def test_err_reply_raises(self, tmp_path, program):
        with SutAdapter(self.sut_command(tmp_path, program)) as sut:
            sut.reset()
            with pytest.raises(HarnessError):
                sut.step("not-a-valuation")


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
        suite = replace(concrete_suite, cases=concrete_suite.cases[:3])
        started = time.monotonic()
        with SutAdapter(fake_sut(tmp_path, "sys.exit(3)"), step_timeout=5) as sut:
            report = run_suite(sut, suite)
        assert time.monotonic() - started < 5
        assert [v.status for v in report.verdicts] == [ERROR] * 3
        assert all("code 3" in v.detail for v in report.verdicts)

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

    @pytest.mark.parametrize("reply", ['OUT {bad', 'OUT {"y":true}', 'OUT {"y":1.0}'])
    def test_malformed_reply_is_an_error_verdict(self, tmp_path, concrete_suite, reply):
        suite = replace(concrete_suite, cases=concrete_suite.cases[:3])
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
            path = tmp_path / f"{mu.id}.gap"
            path.write_text(canonical_dumps(mu.target.to_obj()))
            command = [sys.executable, "-m", "suptest", "serve-reference", str(path)]
            with SutAdapter(command) as sut:
                online = [(v.status, v.step_index, v.observed_output)
                          for v in verdicts(sut, concrete_suite)]
            assert online == plain_verdicts(mu.target, concrete_suite), mu.id

    @pytest.mark.parametrize("adapter", [
        pytest.param(SutAdapter, id="default"),
        pytest.param(OnePageSutAdapter, id="one-page", marks=one_page_pipes),
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
        path = tmp_path / "one-state.gap"
        path.write_text(canonical_dumps(one_state.to_obj()))
        with adapter([sys.executable, "-m", "suptest", "serve-reference", str(path)]) as sut:
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
    def sut_command(self, tmp_path, program, name="program.gap"):
        from suptest.encoding import canonical_dumps
        path = tmp_path / name
        path.write_text(canonical_dumps(program.to_obj()))
        return [sys.executable, "-m", "suptest", "serve-reference", str(path)]

    def test_self_conformance(self, tmp_path, program, concrete_suite):
        with SutAdapter(self.sut_command(tmp_path, program)) as sut:
            report = run_suite(sut, concrete_suite)
        assert report.complete_pass
        assert report.counts[PASS] == len(concrete_suite.cases)

    def test_mutant_fails(self, tmp_path, program, concrete_suite):
        mutant = generate_mutants(program, operators=[OUTPUT_FAULT])[0]
        with SutAdapter(self.sut_command(tmp_path, mutant.target, "mutant.gap")) as sut:
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
        with SutAdapter(self.sut_command(tmp_path, mutant.target, "mutant.gap")) as sut:
            online = run_suite(sut, concrete_suite)
        assert [v.status for v in offline.verdicts] == \
            [v.status for v in online.verdicts]
        assert [v.step_index for v in offline.verdicts] == \
            [v.step_index for v in online.verdicts]

    def test_one_verdict_per_case(self, tmp_path, program, concrete_suite):
        with SutAdapter(self.sut_command(tmp_path, program)) as sut:
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
            stream = verdicts(MachineSut(mu.target), suite)
            assert [(v.status, v.step_index, v.observed_output) for v in stream] == expected
            assert classify(m0, suite, mu).first_failing_case == first_not_passing(expected)

    def test_classify_stops_at_first_failing_case(self, monkeypatch, program, concrete_suite):
        mu = generate_mutants(program, operators=[OUTPUT_FAULT])[0]
        expected = plain_verdicts(mu.target, concrete_suite)
        first = first_not_passing(expected)
        assert first is not None and first + 1 < len(concrete_suite.cases)
        steps = []
        step = Interpreter.step
        monkeypatch.setattr(Interpreter, "step",
                            lambda self, v: steps.append(v) or step(self, v))
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
        path = tmp_path_factory.mktemp("caches") / "program.gap"
        path.write_text(canonical_dumps(program.to_obj()))
        with SutAdapter([sys.executable, "-m", "suptest", "serve-reference", str(path)]) as sut:
            yield sut

    @staticmethod
    def expected_outputs(program, inputs, flip):
        """The program's outputs along `inputs`, reading a bool as its int,
        with the output at step `flip` changed, if there is one."""
        r, outputs = dict(program.initial), []
        for i, v in enumerate(inputs):
            o, r = interpret_step(program, {"x": int(v["x"])}, r)
            outputs.append({"y": 1 - o["y"]} if i == flip else o)
        return tuple(outputs)

    # one case sends 1 and another True, which is equal to 1 and hashes
    # alike but is not in the int sort; one case expects a wrong output.
    # Each ERR restarts the SUT, so the drawn cases send no True.
    FIXED = [([1], None), ([0, True], None), ([0, 1, 1], 2)]

    @given(st.lists(st.tuples(st.lists(st.sampled_from([0, 1]), min_size=1, max_size=6),
                              st.none() | st.integers(0, 5)), max_size=8),
           st.randoms(use_true_random=False))
    @settings(max_examples=25, deadline=None)
    def test_verdicts_match_plain_loop(self, adapter, program, drawn, rng):
        steps = self.FIXED + drawn
        rng.shuffle(steps)
        suite = TestSuite([TestCase(tuple({"x": x} for x in xs),
                                    self.expected_outputs(program, [{"x": x} for x in xs], flip))
                           for xs, flip in steps], "h", 3, concrete=True)
        expected = plain_verdicts(program, suite)
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


class TestOfflineRun:
    def test_requires_concrete_suite(self, program):
        abstract = TestSuite([TestCase(("c0",), ("o0",))], "h", 2)
        with pytest.raises(HarnessError):
            run_suite_offline(program, abstract)

    def test_self_conformance(self, program, concrete_suite):
        assert run_suite_offline(program, concrete_suite).complete_pass


class TestReportShape:
    def test_counts_and_complete_pass(self):
        report = TestReport("h", 3, [Verdict(0, PASS), Verdict(1, FAIL, 2)])
        assert report.counts == {PASS: 1, FAIL: 1, ERROR: 0}
        assert not report.complete_pass
        assert "NOT CONFORMING" in report.summary()

    def test_empty_report_is_not_a_pass(self):
        assert not TestReport("h", 3).complete_pass

    def test_to_obj_omits_duration(self):
        report = TestReport("h", 3, [Verdict(0, PASS)], duration=1.23)
        obj = report.to_obj()
        assert "duration" not in obj
        assert obj["completePass"] is True
