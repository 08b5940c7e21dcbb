"""End-to-end CLI behaviour: artefacts, exit codes, fingerprint checks."""

import ast
import hashlib
import io
import json
import os
import re
import select
import shlex
import shutil
import subprocess
import sys
import tempfile
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from suptest import guards
from suptest.cli import (
    COMMANDS, WRITE_BATCH, artifact_fingerprint, build_parser, load_machine, main,
    write_artifact,
)
from suptest.encoding import (
    ArtifactError, canonical_dumps, encode_compact, encode_step, fingerprint, read_artifact,
)
from suptest.mutation import OUTPUT_FAULT, generate_mutants
from suptest.harness import (
    ERROR, FAIL, PASS, VERDICTS_PER_PART, SutAdapter, SutStartError, TestReport, Verdict,
)
from suptest.program import load_program, reference_answerer, serve_machine, serve_reference
from suptest.supervisor import behavior_from_obj, load_behavior, to_guarded_actions
from suptest.testgen import CASES_PER_PART, TestCase, TestSuite
from helpers import canonical_artifact, settled, stepwise_replies, written
from test_harness import MEMO_LINES, behaviour_obj
from test_supervisor import single_transition_obj, unreachable_obj


@pytest.fixture()
def behaviour(tmp_path, welding_cell_path):
    dest = tmp_path / "welding-cell.cb"
    shutil.copy(welding_cell_path, dest)
    return dest


@pytest.fixture()
def translated(tmp_path, behaviour):
    out = tmp_path / "artefacts"
    assert main(["translate", str(behaviour), "--out", str(out)]) == 0
    return out


@pytest.fixture()
def abstracted(tmp_path, translated):
    sfsm_path = translated / "reference.sfsm"
    assert main(["abstract", str(sfsm_path), "--out", str(translated)]) == 0
    assert main(["classes", str(sfsm_path),
                 "--out", str(translated / "partition.json")]) == 0
    return translated


def read(path):
    return json.loads(path.read_text())


class TestTranslate:
    def test_writes_program_and_sfsm(self, translated):
        program = read(translated / "program.gap")
        reference = read(translated / "reference.sfsm")
        assert len(program["actions"]) == 16
        assert reference["initial"] == "HS0_HC0_HRW0"
        assert "derivedFrom" in program and "derivedFrom" in reference

    def test_missing_file_exits_2(self, tmp_path, capsys):
        assert main(["translate", str(tmp_path / "nope.cb")]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("content, cause", [
        ('{"vars": []}', "missing key 'initial'"),
        ('{"vars": [], "initial": {}, "transitions": [{}]}', "missing key 'source'"),
        ("[]", "expected a JSON object"),
        ('{"vars": [{"name": "x", "sort": {"int": [0, 1.7]}}]}',
         "int[1] must be an int, got 1.7"),
        ('{"vars": [{"name": "x", "sort": {"int": ["0", "1"]}}]}',
         "int[0] must be an int, got '0'"),
        ('{"vars": [{"name": "x", "sort": {"int": [true, 1]}}]}',
         "int[0] must be an int, got True"),
        ('{"vars": [{"name": "HS", "sort": {"enum": ["0", "a", "m"]}, "kind": "factor"}], '
         '"initial": {"HS": "0"}, "transitions": [{"source": {"HS": "0"}, "guard": "true", '
         '"output": {}, "target": {"HS": "m"}}]}',
         "factor HS: phase change 0 -> m not allowed"),
    ], ids=["top-level-key", "transition-key", "not-object", "float-bound", "string-bounds",
            "bool-bound", "lifecycle"])
    def test_names_the_behaviour_file(self, tmp_path, capsys, content, cause):
        path = tmp_path / "bad.cb"
        path.write_text(content)
        assert main(["translate", str(path), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}: {cause}")

    @pytest.mark.parametrize("bounds", [[0, 1, 2], [0], []], ids=["three", "one", "none"])
    def test_refuses_int_sort_without_two_bounds(self, tmp_path, behaviour, capsys, bounds):
        obj = read(behaviour)
        next(d for d in obj["vars"] if d["kind"] == "monitored")["sort"] = {"int": bounds}
        behaviour.write_text(json.dumps(obj))
        assert main(["translate", str(behaviour), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            f"error: {behaviour}: int must be a list of two bounds, got {bounds!r}\n")

    def test_prunes_unreachable_risk_states(self, tmp_path, capsys):
        """The reader drops the unreachable states' actions, so the program
        and the reference agree and the warning is all that is left."""
        path = tmp_path / "unreachable.cb"
        path.write_text(json.dumps(unreachable_obj()))
        out = tmp_path / "out"
        assert main(["translate", str(path), "--out", str(out)]) == 0
        stdout, stderr = capsys.readouterr()
        assert stderr == "warning: unreachable risk states dropped: Fa, Fm\n"
        assert stdout == ("control states: program=1 reference=1 [PASS]\n"
                          "hypotheses: PASS\n")
        assert [(a["source"], a["target"]) for a in read(out / "program.gap")["actions"]] == [
            ({"F": "0"}, {"F": "0"})]
        assert read(out / "reference.sfsm")["states"] == ["F0"]


    def test_reads_the_behaviour_once(self, tmp_path, behaviour, monkeypatch):
        from suptest import cli, supervisor
        reads = []

        def counted(path, from_obj):
            reads.append(path)
            return read_artifact(path, from_obj)

        for module in (cli, supervisor):
            monkeypatch.setattr(module, "read_artifact", counted)
        out = tmp_path / "once"
        assert main(["translate", str(behaviour), "--out", str(out)]) == 0
        assert reads == [str(behaviour)]
        for name in ("program.gap", "reference.sfsm"):
            assert read(out / name)["derivedFrom"] == {"behaviour": fingerprint(read(behaviour))}


class TestGenerateAndCheck:
    def test_h_suite_round_trip(self, abstracted, capsys):
        fsm = abstracted / "fsm.json"
        suite = abstracted / "suite-h.json"
        assert main(["generate", str(fsm), "--out", str(suite)]) == 0
        assert "h-suite" in capsys.readouterr().out
        assert main(["check-suite", str(fsm), str(suite)]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_m_below_state_count_fails(self, abstracted):
        fsm = abstracted / "fsm.json"
        code = main(["generate", str(fsm), "--m", "1",
                     "--out", str(abstracted / "bad.json")])
        assert code == 2

    def test_check_fails_suite_missing_a_cover_trace(self, abstracted, capsys):
        fsm = abstracted / "fsm.json"
        suite_path = abstracted / "suite-h.json"
        assert main(["generate", str(fsm), "--out", str(suite_path)]) == 0
        cover = list(load_machine(fsm).access_words().values())[1]
        doc = read(suite_path)
        doc["cases"] = [c for c in doc["cases"] if tuple(c["inputs"][:len(cover)]) != cover]
        suite_path.write_text(canonical_dumps(doc))
        capsys.readouterr()
        assert main(["check-suite", str(fsm), str(suite_path)]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "suite completeness: FAIL"
        assert f"  H1: cover trace {cover} missing" in lines

    def test_check_names_the_suite_of_an_unknown_symbol(self, abstracted, capsys):
        fsm = abstracted / "fsm.json"
        suite_path = abstracted / "suite-h.json"
        assert main(["generate", str(fsm), "--out", str(suite_path)]) == 0
        doc = read(suite_path)
        doc["cases"][0]["inputs"][0] = "c99"
        suite_path.write_text(canonical_dumps(doc))
        capsys.readouterr()
        assert main(["check-suite", str(fsm), str(suite_path)]) == 2
        assert capsys.readouterr().err == (
            f"error: {suite_path}: input symbol 'c99' not in alphabet\n")

    def test_check_refuses_foreign_suite(self, abstracted, capsys):
        fsm = abstracted / "fsm.json"
        suite_path = abstracted / "suite-h.json"
        assert main(["generate", str(fsm), "--out", str(suite_path)]) == 0
        doc = read(suite_path)
        doc["derivedFrom"]["fsm"] = "0" * 16
        suite_path.write_text(canonical_dumps(doc))
        assert main(["check-suite", str(fsm), str(suite_path)]) == 2
        assert "different reference" in capsys.readouterr().err

    def test_check_refuses_suite_naming_no_fsm(self, abstracted, capsys):
        fsm = abstracted / "fsm.json"
        suite_path = abstracted / "suite-h.json"
        assert main(["generate", str(fsm), "--out", str(suite_path)]) == 0
        doc = read(suite_path)
        assert "referenceFingerprint" not in doc
        del doc["derivedFrom"]
        suite_path.write_text(canonical_dumps(doc))
        capsys.readouterr()
        assert main(["check-suite", str(fsm), str(suite_path)]) == 2
        assert capsys.readouterr().err == (
            f"error: {suite_path}: suite does not name the FSM it was generated from\n")
        doc["derivedFrom"] = 7
        suite_path.write_text(canonical_dumps(doc))
        assert main(["check-suite", str(fsm), str(suite_path)]) == 2
        assert capsys.readouterr().err == (
            f"error: {suite_path}: derivedFrom must be an object, got 7\n")


class TestConcretize:
    def test_reads_partition_of_enumeration_inputs(self, tmp_path, capsys):
        # `behaviour_obj` with its monitored variable an enumeration
        obj = behaviour_obj()
        obj["vars"][0]["sort"] = {"enum": ["lo", "hi"]}
        for t in obj["transitions"]:
            t["guard"] = t["guard"].replace("x = 1", "x = hi").replace("x = 0", "x = lo")
        path = tmp_path / "enum.cb"
        path.write_text(json.dumps(obj))
        out = tmp_path / "out"
        assert main(["pipeline", str(path), "--out", str(out)]) == 0
        assert {c["representative"]["x"] for c in read(out / "partition.json")["classes"]} == {
            "lo", "hi"}
        assert main(["concretize", str(out / "suite-h.json"), str(out / "partition.json"),
                     str(out / "abstraction.json"), "--out", str(tmp_path / "c.json")]) == 0
        assert (tmp_path / "c.json").read_bytes() == (out / "suite-concrete.json").read_bytes()

    def test_refuses_mismatched_artefacts(self, abstracted, capsys):
        fsm = abstracted / "fsm.json"
        suite = abstracted / "suite-h.json"
        assert main(["generate", str(fsm), "--out", str(suite)]) == 0
        partition = abstracted / "partition.json"
        doc = read(partition)
        doc["derivedFrom"]["sfsm"] = "f" * 16
        partition.write_text(canonical_dumps(doc))
        code = main(["concretize", str(suite), str(partition),
                     str(abstracted / "abstraction.json"),
                     "--out", str(abstracted / "concrete.json")])
        assert code == 2
        assert "different SFSMs" in capsys.readouterr().err

    def test_refuses_suite_of_another_fsm(self, tmp_path, abstracted, behaviour, capsys):
        # the welding cell with one transition's output changed
        obj = read(behaviour)
        obj["transitions"][0]["output"] = obj["transitions"][1]["output"]
        path = tmp_path / "other.cb"
        path.write_text(json.dumps(obj))
        other = tmp_path / "other"
        assert main(["translate", str(path), "--out", str(other)]) == 0
        assert main(["abstract", str(other / "reference.sfsm"), "--out", str(other)]) == 0
        assert main(["classes", str(other / "reference.sfsm"),
                     "--out", str(other / "partition.json")]) == 0
        suite = abstracted / "suite-h.json"
        assert main(["generate", str(abstracted / "fsm.json"), "--out", str(suite)]) == 0
        capsys.readouterr()
        code = main(["concretize", str(suite), str(other / "partition.json"),
                     str(other / "abstraction.json"), "--out", str(other / "concrete.json")])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {suite} and {other / 'abstraction.json'} come from different FSMs\n")
        assert not (other / "concrete.json").exists()

    def test_names_label_missing_from_abstraction(self, tmp_path, abstracted, monkeypatch,
                                                  capsys):
        # a three-state behaviour whose uncovered input closes off with "nil"
        obj = behaviour_obj()
        obj["transitions"] = [t for t in obj["transitions"]
                              if (t["source"]["F"], t["guard"]) != ("0", "x = 0")]
        path = tmp_path / "three.cb"
        path.write_text(json.dumps(obj))
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"policy": "complete-with-selfloop"}))
        monkeypatch.setenv("SUPTEST_CONFIG", str(config))
        out = tmp_path / "three"
        assert main(["translate", str(path), "--out", str(out)]) == 0
        assert main(["abstract", str(out / "reference.sfsm"), "--out", str(out)]) == 0
        assert main(["generate", str(out / "fsm.json"), "--out", str(out / "suite.json")]) == 0
        assert "nil" in read(out / "abstraction.json")["label_to_output"]
        # unlinked, so that the suite of another FSM reaches the label lookup
        doc = read(out / "suite.json")
        del doc["derivedFrom"]
        (out / "suite.json").write_text(canonical_dumps(doc))
        capsys.readouterr()
        code = main(["concretize", str(out / "suite.json"),
                     str(abstracted / "partition.json"), str(abstracted / "abstraction.json"),
                     "--out", str(out / "concrete.json")])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {abstracted / 'abstraction.json'}: "
            "output label 'nil' is not in the abstraction map\n")

    @pytest.mark.parametrize("name, edit, cause", [
        ("partition.json", lambda d: d["classes"].pop(), "unknown class id 'c15'"),
        ("abstraction.json", lambda d: d["label_to_output"].pop("o0"),
         "output label 'o0' is not in the abstraction map"),
    ], ids=["partition", "abstraction"])
    def test_names_the_file_lacking_a_symbol(self, abstracted, capsys, name, edit, cause):
        suite = abstracted / "suite-h.json"
        assert main(["generate", str(abstracted / "fsm.json"), "--out", str(suite)]) == 0
        path = abstracted / name
        doc = read(path)
        edit(doc)
        path.write_text(canonical_dumps(doc))
        capsys.readouterr()
        assert main(["concretize", str(suite), str(abstracted / "partition.json"),
                     str(abstracted / "abstraction.json"),
                     "--out", str(abstracted / "concrete.json")]) == 2
        assert capsys.readouterr().err == f"error: {path}: {cause}\n"

    @pytest.mark.parametrize("edit, cause", [
        (lambda classes: classes[0].update(representative={"zz": 7}),
         "class c0: representative assigns ['zz'], not "),
        (lambda classes: classes[0].update(representative=classes[1]["representative"]),
         "class c0: representative {"),
        (lambda classes: classes[0].update(
            signature=["yes" if b else 0 for b in classes[0]["signature"]]),
         "signature[0] must be a bool, got 0"),
    ], ids=["variables", "signature", "signature-entries"])
    def test_refuses_inconsistent_partition(self, abstracted, capsys, edit, cause):
        suite = abstracted / "suite-h.json"
        assert main(["generate", str(abstracted / "fsm.json"), "--out", str(suite)]) == 0
        path = abstracted / "partition.json"
        doc = read(path)
        edit(doc["classes"])
        path.write_text(canonical_dumps(doc))
        capsys.readouterr()
        assert main(["concretize", str(suite), str(path), str(abstracted / "abstraction.json"),
                     "--out", str(abstracted / "concrete.json")]) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}: {cause}")
        assert not (abstracted / "concrete.json").exists()


class TestRun:
    def concrete_suite(self, abstracted):
        fsm = abstracted / "fsm.json"
        suite = abstracted / "suite-h.json"
        concrete = abstracted / "suite-concrete.json"
        assert main(["generate", str(fsm), "--out", str(suite)]) == 0
        assert main(["concretize", str(suite),
                     str(abstracted / "partition.json"),
                     str(abstracted / "abstraction.json"),
                     "--out", str(concrete)]) == 0
        return concrete

    def test_reference_passes(self, abstracted, capsys):
        concrete = self.concrete_suite(abstracted)
        sut = (f"{sys.executable} -m suptest serve-reference "
               f"{abstracted / 'program.gap'}")
        assert main(["run", str(concrete), "--sut", sut,
                     "--out", str(abstracted / "report.json")]) == 0
        assert "COMPLETE PASS" in capsys.readouterr().out
        assert read(abstracted / "report.json")["completePass"] is True

    def test_mutant_sut_fails(self, abstracted, behaviour, capsys):
        concrete = self.concrete_suite(abstracted)
        program = to_guarded_actions(load_behavior(behaviour))
        mutant = generate_mutants(program, operators=[OUTPUT_FAULT])[0]
        mutant_path = abstracted / "mutant.gap"
        mutant_path.write_text(canonical_dumps(mutant.target.to_obj()))
        sut = f"{sys.executable} -m suptest serve-reference {mutant_path}"
        assert main(["run", str(concrete), "--sut", sut]) == 1
        assert "NOT CONFORMING" in capsys.readouterr().out

    def test_refuses_truncated_case(self, abstracted, capsys):
        concrete = self.concrete_suite(abstracted)
        doc = read(concrete)
        doc["cases"][1]["expectedOutputs"] = []
        concrete.write_text(canonical_dumps(doc))
        sut = (f"{sys.executable} -m suptest serve-reference "
               f"{abstracted / 'program.gap'}")
        capsys.readouterr()
        assert main(["run", str(concrete), "--sut", sut]) == 2
        inputs = len(doc["cases"][1]["inputs"])
        assert capsys.readouterr().err == (
            f"error: {concrete}: case 1 has {inputs} inputs but 0 expected outputs\n")

    @pytest.mark.parametrize("key, value, want", [
        ("inputs", 5, "a valuation of strings and integers"),
        ("inputs", "x", "a valuation of strings and integers"),
        ("inputs", None, "a valuation of strings and integers"),
        ("inputs", {"hs_det": [0]}, "a valuation of strings and integers"),
        ("inputs", {"hs_det": 1.0}, "a valuation of strings and integers"),
        ("expectedOutputs", "x", "a valuation of strings and integers or null"),
        ("expectedOutputs", [], "a valuation of strings and integers or null"),
        ("expectedOutputs", {"robot": False}, "a valuation of strings and integers or null"),
    ], ids=["int", "string", "null", "list-value", "float-value", "out-string", "out-list",
            "out-bool-value"])
    def test_refuses_a_step_that_is_no_valuation(self, abstracted, tmp_path, capsys,
                                                 key, value, want):
        """The reader refuses the file before any SUT starts, naming the value."""
        concrete = self.concrete_suite(abstracted)
        doc = read(concrete)
        doc["cases"][3][key][1] = value
        concrete.write_text(canonical_dumps(doc))
        marker = tmp_path / "started"
        sut = shlex.join([sys.executable, "-c", f"open({str(marker)!r}, 'w')"])
        capsys.readouterr()
        assert main(["run", str(concrete), "--sut", sut]) == 2
        assert capsys.readouterr().err == (
            f"error: {concrete}: cases[3].{key}[1] must be {want}, got {value!r}\n")
        assert not marker.exists()

    @pytest.mark.parametrize("key", ["inputs", "expectedOutputs"])
    @pytest.mark.parametrize("value", [5, None, {"x": 1}, "o0\nOUT o1"])
    def test_abstract_suite_refuses_a_step_that_is_no_symbol(self, abstracted, capsys,
                                                             key, value):
        fsm, suite = abstracted / "fsm.json", abstracted / "suite-h.json"
        assert main(["generate", str(fsm), "--out", str(suite)]) == 0
        doc = read(suite)
        doc["cases"][2][key][0] = value
        suite.write_text(canonical_dumps(doc))
        capsys.readouterr()
        assert main(["check-suite", str(fsm), str(suite)]) == 2
        assert capsys.readouterr().err == (
            f"error: {suite}: cases[2].{key}[0] must be a string without a line break, "
            f"got {value!r}\n")

    @pytest.mark.parametrize("symbol", ["c0\nIN c1", "c0\nRESET\nIN c1", "c0\rIN c1"],
                             ids=["LF", "LF-RESET", "CR"])
    def test_refuses_symbol_with_line_break(self, abstracted, tmp_path, capsys, symbol):
        """A bare symbol holding a line break would go out as several
        protocol lines, so the suite is refused before any SUT starts."""
        suite = abstracted / "suite-h.json"
        assert main(["generate", str(abstracted / "fsm.json"), "--out", str(suite)]) == 0
        doc = read(suite)
        doc["cases"][1]["inputs"][0] = symbol
        suite.write_text(canonical_dumps(doc))
        marker = tmp_path / "started"
        sut = shlex.join([sys.executable, "-c", f"open({str(marker)!r}, 'w')"])
        capsys.readouterr()
        assert main(["run", str(suite), "--sut", sut]) == 2
        assert capsys.readouterr().err == (f"error: {suite}: cases[1].inputs[0] must be "
                                           f"a string without a line break, got {symbol!r}\n")
        assert not marker.exists()


PRINT_MODULES_AT_EXIT = (
    "import atexit, sys\n"
    "atexit.register(lambda: print(sorted(sys.modules), file=sys.stderr))\n"
)

GENERATOR_MODULES = {"suptest.sfsm", "suptest.fsm", "suptest.testgen", "suptest.mutation",
                     "suptest.supervisor"}
CLIENT_MODULES = {"dataclasses", "inspect", "subprocess", "select", "shlex",
                  "suptest.harness", "hashlib", "_hashlib"}


def module_route(program) -> list[str]:
    """`python -m suptest serve-reference PROGRAM`, the public command."""
    return [sys.executable, "-m", "suptest", "serve-reference", str(program)]


def served_modules(path, subcommand="serve-reference") -> set:
    """The modules loaded when a SUT started as `python -m suptest
    SUBCOMMAND PATH`, by default a reference SUT, has answered RESET and
    exits."""
    command = [sys.executable, "-c", PRINT_MODULES_AT_EXIT + (
        "import runpy\n"
        f"sys.argv = ['suptest', {subcommand!r}, {str(path)!r}]\n"
        "runpy.run_module('suptest', run_name='__main__', alter_sys=True)\n")]
    done = subprocess.run(command, input="RESET\n", capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout) == (0, "READY\n")
    return set(ast.literal_eval(done.stderr.strip().splitlines()[-1]))


# A program without variables or actions, with one more key to be filled in
EMPTY_PROGRAM = ('{"input_vars": [], "output_vars": [], "factors": [], "initial": {}, '
                 '"actions": [], %s}')
# a program of two factors whose one action targets the risk state %s
TARGET_PROGRAM = ('{"input_vars": [], "output_vars": [], "factors": ["HS", "HC"], '
                  '"initial": {"HS": "0", "HC": "0"}, "actions": [{"name": "HSa", '
                  '"guard": "true", "source": {"HS": "0", "HC": "0"}, "output": null, '
                  '"target": %s}]}')
# a program without variables or factors whose one action outputs %s
OUTPUT_PROGRAM = ('{"input_vars": [], "output_vars": [], "factors": [], "initial": {}, '
                  '"actions": [{"name": "nop", "guard": "true", "source": {}, "output": %s, '
                  '"target": {}}]}')


class TestServeReference:
    def test_loads_no_generator_module(self, translated):
        loaded = served_modules(translated / "program.gap")
        assert "suptest.program" in loaded
        assert not {"suptest.cli", "argparse"} & loaded
        assert not GENERATOR_MODULES & loaded

    def test_loads_neither_dataclasses_nor_client(self, translated):
        loaded = served_modules(translated / "program.gap")
        assert not CLIENT_MODULES & loaded

    @pytest.mark.parametrize("content, cause", [
        (None, "No such file or directory"),
        ("{", "Expecting property name"),
        ('{"input_vars": []}', "missing key 'output_vars'"),
        (EMPTY_PROGRAM % '"resolution": "Strict"',
         "resolution must be one of 'strict', 'first', got 'Strict'"),
        (EMPTY_PROGRAM % '"resolution": 7', "resolution must be one of 'strict', 'first', got 7"),
        (EMPTY_PROGRAM % '"policy": "selfloop"',
         "policy must be one of 'error', 'complete-with-selfloop', got 'selfloop'"),
        (EMPTY_PROGRAM % '"policy": null',
         "policy must be one of 'error', 'complete-with-selfloop', got None"),
        (TARGET_PROGRAM % '{"HS": "a"}',
         "risk state {'HS': 'a'} does not assign exactly the factors ['HS', 'HC']"),
        (TARGET_PROGRAM % '{"HS": "z", "HC": "0"}', "unknown phase 'z' for factor HS"),
        (OUTPUT_PROGRAM % "5", "not a valuation: 5"),
        (OUTPUT_PROGRAM % '{"zz": 1}', "valuation has undeclared variables: zz"),
    ], ids=["missing", "malformed", "missing-key", "resolution-case", "resolution-int",
            "policy-short", "policy-null", "partial-target", "unknown-phase", "output-int",
            "output-undeclared"])
    def test_both_routes_fail_alike(self, tmp_path, capsys, content, cause):
        path = tmp_path / "program.gap"
        if content is not None:
            path.write_text(content)
        spawned = subprocess.run(module_route(path), input="RESET\n", capture_output=True,
                                 text=True, timeout=60)
        with pytest.raises(SutStartError) as inline:
            SutAdapter(program=path).start()
        capsys.readouterr()
        assert main(["serve-reference", str(path)]) == 2
        assert spawned.returncode == 2
        err = capsys.readouterr().err
        assert spawned.stderr == err
        assert err.startswith(f"error: {path}: {cause}") and err.count("\n") == 1
        assert str(inline.value) == (f"SUT serving {path} in-line did not start: "
                                     + err.removeprefix("error: ").rstrip("\n"))


class TestServeMachineCommand:
    def test_loads_neither_dataclasses_nor_client(self, abstracted):
        loaded = served_modules(abstracted / "fsm.json", "serve-machine")
        assert "suptest.program" in loaded
        assert not CLIENT_MODULES & loaded


def inline_route(path, data: bytes) -> bytes:
    """The replies of the in-line reference SUT of `path`, the route of
    `harness.SutAdapter(program=path)`, handed the complete lines `data`
    at once."""
    return reference_answerer(load_program(path))(data)


class TestReferenceLauncher:
    """`pipeline`'s default SUT, served in-line in the toolkit process: the
    same server as `python -m suptest serve-reference`."""

    def test_keeps_pythondontwritebytecode(self, tmp_path, behaviour):
        # a copy of the package without bytecode, run as the pipeline's SUT
        import suptest
        package = tmp_path / "src" / "suptest"
        shutil.copytree(os.path.dirname(suptest.__file__), package,
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = {**os.environ, "PYTHONPATH": str(package.parent), "PYTHONDONTWRITEBYTECODE": "1"}
        done = subprocess.run([sys.executable, "-m", "suptest", "pipeline", str(behaviour),
                               "--out", str(tmp_path / "out")],
                              capture_output=True, text=True, timeout=120, env=env)
        assert done.returncode == 0 and "COMPLETE PASS" in done.stdout, done.stderr
        assert not list(package.rglob("__pycache__"))

    def test_replies_match_module_route(self, tmp_path):
        # without action Fm, x = 1 in risk state a is refused: ERR on a valid input
        program = to_guarded_actions(behavior_from_obj(behaviour_obj()))
        program = program.replace(actions=[a for a in program.actions if a.name != "Fm"])
        path = tmp_path / "incomplete.gap"
        path.write_text(canonical_dumps(program.to_obj()))
        lines = "".join(f"{line}\n" for line in MEMO_LINES * 3).encode()
        module = subprocess.run(module_route(path), input=lines, capture_output=True, timeout=60)
        assert inline_route(path, lines) == module.stdout
        replies = module.stdout.decode().splitlines()
        assert module.returncode == 0 and len(replies) == 3 * (len(MEMO_LINES) - 1)
        for err in ("ERR no action enabled in risk state {'F': 'a'}",
                    "ERR value 7 not in sort of x", "ERR valuation missing variables: x"):
            assert any(reply.startswith(err) for reply in replies), err


def subcommand_route(program) -> list[str]:
    """The `serve-reference` subcommand of `cli.main`."""
    return [sys.executable, "-m", "suptest.cli", "serve-reference", str(program)]


def read_reply(stream, timeout: float) -> bytes:
    """The next line on `stream`, failing unless it is complete within
    `timeout` seconds."""
    data, deadline = b"", time.monotonic() + timeout
    while not data.endswith(b"\n"):
        ready = select.select([stream], [], [], max(0.0, deadline - time.monotonic()))[0]
        assert ready, f"no reply within {timeout} s, only {data!r}"
        chunk = os.read(stream.fileno(), 4096)
        assert chunk, f"output ended after {data!r}"
        data += chunk
    return data


# Blank lines, a carriage return, an unknown command, bytes that are not
# UTF-8, in a payload and on a line of their own, and a last line without
# its newline
SERVE_SCRIPT = (b'RESET\n\n  \nIN {"x":1}\r\nPING\nIN {"x":\xff}\n\xfe\xfd\n'
                b'RESET\nIN {"x":1}\nIN {"x":1}')


class TestServeLoop:
    """`program.answerer`, the one server: the same replies on every route
    of the reference SUT and under `serve_machine`, and, on the stream
    routes, none held back while it waits for more input."""

    @pytest.fixture()
    def program(self, tmp_path):
        program = to_guarded_actions(behavior_from_obj(behaviour_obj()))
        path = tmp_path / "program.gap"
        path.write_text(canonical_dumps(program.to_obj()))
        return program, path

    def test_script_gives_the_same_replies_on_every_route(self, program):
        program, path = program
        lines = re.split("[\r\n]", SERVE_SCRIPT.decode("utf-8", "replace"))
        expected = "".join(f"{reply}\n" for reply in stepwise_replies(program, lines)).encode()
        out = io.BytesIO()
        serve_reference(program, io.BytesIO(SERVE_SCRIPT), out)
        assert out.getvalue() == expected
        # handed complete lines, as the stream loop hands them over
        assert inline_route(path, SERVE_SCRIPT.replace(b"\r", b"\n") + b"\n") == expected
        for route in (module_route, subcommand_route):
            done = subprocess.run(route(path), input=SERVE_SCRIPT, capture_output=True,
                                  timeout=60)
            assert (done.returncode, done.stdout) == (0, expected), route.__name__
        replies = expected.decode().splitlines()
        assert replies[:3] == ["READY", 'OUT {"y":1}', "ERR unknown command 'PING'"]
        assert replies[4:] == ["ERR unknown command '\ufffd\ufffd'", "READY",
                               'OUT {"y":1}', 'OUT {"y":0}']

    def test_machine_script_replies_alike_in_and_out_of_process(self, abstracted):
        fsm = abstracted / "fsm.json"
        machine = load_machine(fsm)
        x = machine.inputs[0]
        script = f"RESET\n\nIN {x}\r\nPING\nIN \xff\n".encode("latin-1") + f"IN {x}".encode()
        out = io.BytesIO()
        serve_machine(machine, io.BytesIO(script), out)
        done = subprocess.run([sys.executable, "-m", "suptest", "serve-machine", str(fsm)],
                              input=script, capture_output=True, timeout=60)
        assert (done.returncode, done.stdout) == (0, out.getvalue())
        outputs, _ = machine.run((x, x))
        assert out.getvalue().decode().splitlines() == [
            "READY", f"OUT {encode_step(outputs[0])}", "ERR unknown command 'PING'",
            "ERR no transition on '\ufffd'", f"OUT {encode_step(outputs[1])}"]

    @pytest.mark.parametrize("route", ["in-line", "module", "subcommand"])
    def test_lockstep_client_gets_every_reply(self, program, route):
        program, path = program
        lines = ["RESET", 'IN {"x":1}', 'IN {"x":1}', "PING", "RESET", 'IN {"x":0}']
        expected = [f"{reply}\n".encode() for reply in stepwise_replies(program, lines)]
        if route == "in-line":
            answer = reference_answerer(load_program(path))
            assert [answer(f"{line}\n".encode()) for line in lines] == expected
            return
        with tempfile.TemporaryFile() as stderr:
            command = module_route(path) if route == "module" else subcommand_route(path)
            sut = subprocess.Popen(command, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                   stderr=stderr)
            try:
                for line, reply in zip(lines, expected):
                    sut.stdin.write(f"{line}\n".encode())
                    sut.stdin.flush()
                    assert read_reply(sut.stdout, timeout=30) == reply, line
            finally:
                sut.stdin.close()
                code = sut.wait(timeout=30)
                sut.stdout.close()
        assert code == 0


class TestMutate:
    def test_abstract_suite_kills_fsm_mutants(self, abstracted, capsys):
        fsm = abstracted / "fsm.json"
        suite = abstracted / "suite-h.json"
        assert main(["generate", str(fsm), "--out", str(suite)]) == 0
        code = main(["mutate", str(fsm),
                     "--suite", str(suite),
                     "--ops", OUTPUT_FAULT, "--limit", "25",
                     "--csv", str(abstracted / "mutants.csv")])
        assert code == 0
        assert "score: 1.000" in capsys.readouterr().out
        csv = (abstracted / "mutants.csv").read_text().splitlines()
        assert csv[0] == "mutant,status,first_failing_case"
        assert len(csv) == 26

    def test_out_holds_counts_and_score(self, abstracted, capsys):
        fsm = abstracted / "fsm.json"
        suite = abstracted / "suite-h.json"
        out = abstracted / "mutation.json"
        assert main(["generate", str(fsm), "--out", str(suite)]) == 0
        assert main(["mutate", str(fsm), "--suite", str(suite), "--ops", OUTPUT_FAULT,
                     "--limit", "5", "--out", str(out)]) == 0
        doc = read(out)
        assert doc["counts"] == {"EQUIVALENT": 0, "KILLED": 5, "ESCAPED": 0, "ERROR": 0}
        assert doc["score"] == 1.0
        assert [o["status"] for o in doc["outcomes"]] == ["KILLED"] * 5
        assert doc["derivedFrom"] == {"suite": fingerprint(
            {k: v for k, v in read(suite).items() if k != "derivedFrom"})}

    def test_refuses_foreign_suite(self, abstracted, capsys):
        fsm = abstracted / "fsm.json"
        suite_path = abstracted / "suite-h.json"
        assert main(["generate", str(fsm), "--out", str(suite_path)]) == 0
        doc = read(suite_path)
        doc["derivedFrom"]["fsm"] = "0" * 16
        suite_path.write_text(canonical_dumps(doc))
        assert main(["mutate", str(fsm), "--suite", str(suite_path)]) == 2
        assert "different reference" in capsys.readouterr().err

    def test_negative_limit_exits_2(self, abstracted, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["mutate", str(abstracted / "fsm.json"),
                  "--suite", str(abstracted / "suite-h.json"), "--limit", "-1"])
        assert exc.value.code == 2
        assert "argument --limit: must be an int >= 0, got -1" in capsys.readouterr().err

    def test_refuses_symbol_outside_alphabet(self, abstracted, capsys):
        fsm = abstracted / "fsm.json"
        suite_path = abstracted / "suite-h.json"
        assert main(["generate", str(fsm), "--out", str(suite_path)]) == 0
        doc = read(suite_path)
        doc["cases"][0]["inputs"][0] = "c99"
        suite_path.write_text(canonical_dumps(doc))
        capsys.readouterr()
        assert main(["mutate", str(fsm), "--suite", str(suite_path), "--limit", "3"]) == 2
        assert capsys.readouterr() == ("", f"error: {suite_path}: cases[0].inputs[0]: "
                                           "input symbol 'c99' not in alphabet\n")

    @pytest.fixture()
    def piped(self, tmp_path, behaviour):
        """The artefacts of the welding cell's pipeline at m = n."""
        out = tmp_path / "m7"
        assert main(["pipeline", str(behaviour), "--out", str(out)]) == 0
        return out

    def test_program_mutants_against_concrete_suite(self, piped, capsys):
        from suptest.cli import load_suite
        from suptest.mutation import classify, mutation_report
        program = load_program(piped / "program.gap")
        suite = load_suite(piped / "suite-concrete.json")
        expected = mutation_report([classify(program, suite, mu)
                                    for mu in generate_mutants(program, limit=6)])
        capsys.readouterr()
        assert main(["mutate", str(piped / "program.gap"), "--suite",
                     str(piped / "suite-concrete.json"), "--limit", "6",
                     "--out", str(piped / "mutation.json"),
                     "--csv", str(piped / "mutants.csv")]) == 0
        doc = read(piped / "mutation.json")
        assert doc.pop("derivedFrom") == {"suite": fingerprint(
            {k: v for k, v in read(piped / "suite-concrete.json").items() if k != "derivedFrom"})}
        assert doc == expected.to_obj() and expected.counts["KILLED"] == 6
        assert (piped / "mutants.csv").read_text() == expected.to_csv()
        assert capsys.readouterr().out == expected.summary() + "\n"

    @pytest.mark.parametrize("case, step, edit, cause", [
        (0, 0, lambda v: v.update(ack=7), "value 7 not in sort of ack"),
        (3, 1, lambda v: v.pop("ack"), "valuation missing variables: ack"),
        (5, 0, lambda v: v.update(zz=0), "valuation has undeclared variables: zz"),
    ], ids=["out-of-sort", "missing", "undeclared"])
    def test_refuses_input_the_program_does_not_read(self, piped, capsys, case, step, edit,
                                                     cause):
        suite_path = piped / "suite-concrete.json"
        doc = read(suite_path)
        valuation = doc["cases"][case]["inputs"][step]
        edit(valuation)
        suite_path.write_text(canonical_dumps(doc))
        # the reference SUT refuses it on the wire with the same cause
        answer = reference_answerer(load_program(piped / "program.gap"))
        line = f"IN {encode_step(valuation)}\n".encode()
        assert answer(b"RESET\n" + line) == f"READY\nERR {cause}\n".encode()
        capsys.readouterr()
        assert main(["mutate", str(piped / "program.gap"), "--suite", str(suite_path)]) == 2
        assert capsys.readouterr() == (
            "", f"error: {suite_path}: cases[{case}].inputs[{step}]: {cause}\n")


class TestServeMachine:
    def test_answers_symbols_and_refuses_unknown_ones(self, abstracted):
        fsm = abstracted / "fsm.json"
        machine = load_machine(fsm)
        x = machine.inputs[0]
        outputs, _ = machine.run((x, x))
        done = subprocess.run([sys.executable, "-m", "suptest", "serve-machine", str(fsm)],
                              input=f"RESET\nIN {x}\nIN {x}\nIN no-such-symbol\n",
                              capture_output=True, text=True, timeout=60)
        replies = done.stdout.splitlines()
        assert (done.returncode, replies[:3]) == (
            0, ["READY"] + [f"OUT {encode_step(y)}" for y in outputs])
        assert len(replies) == 4 and replies[3].startswith("ERR ")
        assert "no-such-symbol" in replies[3]


class TestArtefactRead:
    @pytest.mark.parametrize("argv, culprit, cause", [
        (["check-suite", "fsm.json", "partition.json"], "partition.json", "missing key 'cases'"),
        (["generate", "partition.json"], "partition.json", "missing key 'transitions'"),
        (["render", "suite-h.json"], "suite-h.json", "missing key 'transitions'"),
        (["generate", "malformed.json"], "malformed.json", "Expecting property name"),
        (["generate", "list.json"], "list.json", "expected a JSON object"),
    ], ids=["check-suite-partition", "generate-partition", "render-suite", "malformed",
            "list"])
    def test_names_the_file(self, abstracted, capsys, argv, culprit, cause):
        assert main(["generate", str(abstracted / "fsm.json"),
                     "--out", str(abstracted / "suite-h.json")]) == 0
        (abstracted / "malformed.json").write_text("{,}")
        (abstracted / "list.json").write_text("[]")
        capsys.readouterr()
        command, *names = argv
        assert main([command, *(str(abstracted / name) for name in names)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {abstracted / culprit}: {cause}")

    # (file, argv naming files in the artefact directory, edit of the
    # file's document, cause); per file a wrong-typed entry, then an entry
    # the format refuses
    READERS = [
        ("welding-cell.cb", ["translate", "welding-cell.cb", "--out", "out"],
         lambda d: d.update(transitions=[1]), "transitions[0] must be an object, got 1"),
        ("welding-cell.cb", ["translate", "welding-cell.cb", "--out", "out"],
         lambda d: d["initial"].update(HS="z"), "unknown phase 'z' for factor HS"),
        ("program.gap", ["mutate", "program.gap", "--suite", "suite-h.json"],
         lambda d: d.update(actions=[1]), "actions[0] must be an object, got 1"),
        ("program.gap", ["mutate", "program.gap", "--suite", "suite-h.json"],
         lambda d: d["actions"][0].update(guard="nope = 1"), "undeclared variable: nope"),
        ("reference.sfsm", ["classes", "reference.sfsm", "--out", "p.json"],
         lambda d: d.update(transitions=[1]), "transitions[0] must be an object, got 1"),
        ("reference.sfsm", ["classes", "reference.sfsm", "--out", "p.json"],
         lambda d: d["transitions"][0].update(guard="nope = 1"), "undeclared variable: nope"),
        ("fsm.json", ["generate", "fsm.json", "--out", "s.json"],
         lambda d: d.update(transitions=[1]), "transitions[0] must be an object, got 1"),
        ("fsm.json", ["generate", "fsm.json", "--out", "s.json"],
         lambda d: d["states"].append(d["states"][0]), "duplicate state identifiers"),
        ("suite-h.json", ["check-suite", "fsm.json", "suite-h.json"],
         lambda d: d.update(cases=5), "cases must be a list, got 5"),
        ("suite-h.json", ["check-suite", "fsm.json", "suite-h.json"],
         lambda d: d["cases"][0].update(expectedOutputs=[]), "case 0 has"),
        ("partition.json", ["concretize", "suite-h.json", "partition.json", "abstraction.json"],
         lambda d: d.update(classes=[1]), "classes[0] must be an object, got 1"),
        ("partition.json", ["concretize", "suite-h.json", "partition.json", "abstraction.json"],
         lambda d: d["classes"][0].pop("representative"), "missing key 'representative'"),
        ("abstraction.json", ["concretize", "suite-h.json", "partition.json", "abstraction.json"],
         lambda d: d.update(label_to_output=5), "label_to_output must be an object, got 5"),
        ("abstraction.json", ["concretize", "suite-h.json", "partition.json", "abstraction.json"],
         lambda d: d.update(class_to_valuation=[["c0"]]),
         "class_to_valuation must be an object, got [['c0']]"),
        ("config.json", ["translate", "welding-cell.cb", "--out", "out"],
         lambda d: d.update(m_extra="1"), "m_extra must be an int >= 0, got '1'"),
        ("config.json", ["translate", "welding-cell.cb", "--out", "out"],
         lambda d: d.update(policy="selfloop"),
         "policy must be one of 'error', 'complete-with-selfloop', got 'selfloop'"),
    ]

    # (id, edit, cause) of suite fields that must have their type
    SUITE_FIELDS = [
        ("mBound-str", lambda d: d.update(mBound="7"), "mBound must be an int, got '7'"),
        ("mBound-bool", lambda d: d.update(mBound=True), "mBound must be an int, got True"),
        ("inputs-str", lambda d: d["cases"][0].update(inputs="c0"),
         "case 0: inputs must be a list, got 'c0'"),
        ("expectedOutputs-str", lambda d: d["cases"][0].update(expectedOutputs="o0"),
         "case 0: expectedOutputs must be a list, got 'o0'"),
        ("concrete-str", lambda d: d.update(concrete="yes"),
         "concrete must be a bool, got 'yes'"),
        ("method-list", lambda d: d.update(method=[5]), "method must be one of 'h', 'w', got [5]"),
    ]

    # (id, edit, cause) of abstraction outputs that are not wire valuations
    OUTPUTS = [
        ("output-int", lambda d: d["label_to_output"].update(o0=5),
         "output label 'o0' maps to 5, not a valuation of strings and integers"),
        ("output-bool", lambda d: d["label_to_output"].update(o0={"y": True}),
         "output label 'o0' maps to {'y': True}, not a valuation of strings and integers"),
    ]

    # (file, argv, id, edit, cause) of what the model a file holds refuses
    # past the format's types: a machine's, an SFSM's and a behaviour's
    # own structure
    GENERATE = ["generate", "fsm.json", "--out", "s.json"]
    CLASSES = ["classes", "reference.sfsm", "--out", "p.json"]
    MODELS = [
        ("fsm.json", GENERATE, "duplicate-inputs",
         lambda d: d["inputs"].append(d["inputs"][0]), "duplicate input symbols"),
        ("fsm.json", GENERATE, "duplicate-outputs",
         lambda d: d["outputs"].append(d["outputs"][0]), "duplicate output symbols"),
        ("fsm.json", GENERATE, "undeclared-initial",
         lambda d: d.update(initial="zz"), "initial state 'zz' not declared"),
        ("fsm.json", GENERATE, "undeclared-target", lambda d: d["transitions"][0].update(to="zz"),
         "transition ('HS0_HC0_HRW0','c0')->('zz','o4') uses undeclared state"),
        ("fsm.json", GENERATE, "undeclared-input",
         lambda d: d["transitions"][0].update(input="zz"), "undeclared input symbol 'zz'"),
        ("fsm.json", GENERATE, "undeclared-output",
         lambda d: d["transitions"][0].update(output="zz"), "undeclared output symbol 'zz'"),
        ("reference.sfsm", CLASSES, "undeclared-initial",
         lambda d: d.update(initial="zz"), "initial state 'zz' not declared"),
        ("reference.sfsm", CLASSES, "undeclared-state",
         lambda d: d["transitions"][0].update(to="zz"), "transition 'HSa' uses undeclared state"),
        ("welding-cell.cb", ["translate", "welding-cell.cb", "--out", "out"], "partial-risk-state",
         lambda d: d["initial"].pop("HS"), "risk state {'HC': '0', 'HRW': '0'} does not "
         "assign exactly the factors ['HS', 'HC', 'HRW']"),
    ]

    # (file, argv, id, edit, cause) of list-valued keys given as a string or
    # as an object, which a reader would take character by character or key
    # by key
    TRANSLATE = ["translate", "welding-cell.cb", "--out", "out"]
    MUTATE = ["mutate", "program.gap", "--suite", "suite-h.json"]
    CHECK = ["check-suite", "fsm.json", "suite-h.json"]
    CONCRETIZE = ["concretize", "suite-h.json", "partition.json", "abstraction.json"]
    LISTS = [
        ("fsm.json", GENERATE, "states-str", lambda d: d.update(states="s0"),
         "states must be a list, got 's0'"),
        ("fsm.json", GENERATE, "inputs-obj", lambda d: d.update(inputs={}),
         "inputs must be a list, got {}"),
        ("fsm.json", GENERATE, "outputs-str", lambda d: d.update(outputs="o0"),
         "outputs must be a list, got 'o0'"),
        ("fsm.json", GENERATE, "transitions-obj", lambda d: d.update(transitions={}),
         "transitions must be a list, got {}"),
        ("reference.sfsm", CLASSES, "input_vars-obj", lambda d: d.update(input_vars={}),
         "input_vars must be a list, got {}"),
        ("reference.sfsm", CLASSES, "output_vars-str", lambda d: d.update(output_vars="y"),
         "output_vars must be a list, got 'y'"),
        ("reference.sfsm", CLASSES, "states-str", lambda d: d.update(states="s0"),
         "states must be a list, got 's0'"),
        ("reference.sfsm", CLASSES, "transitions-obj", lambda d: d.update(transitions={}),
         "transitions must be a list, got {}"),
        ("program.gap", MUTATE, "input_vars-str", lambda d: d.update(input_vars="x"),
         "input_vars must be a list, got 'x'"),
        ("program.gap", MUTATE, "output_vars-obj", lambda d: d.update(output_vars={}),
         "output_vars must be a list, got {}"),
        ("program.gap", MUTATE, "factors-str", lambda d: d.update(factors="HS"),
         "factors must be a list, got 'HS'"),
        ("program.gap", MUTATE, "actions-obj", lambda d: d.update(actions={}),
         "actions must be a list, got {}"),
        ("welding-cell.cb", TRANSLATE, "vars-obj", lambda d: d.update(vars={}),
         "vars must be a list, got {}"),
        ("welding-cell.cb", TRANSLATE, "transitions-str", lambda d: d.update(transitions="t"),
         "transitions must be a list, got 't'"),
        ("welding-cell.cb", TRANSLATE, "enum-str",
         lambda d: d["vars"][4].update(sort={"enum": "runhalt"}),
         "enum must be a list, got 'runhalt'"),
        ("welding-cell.cb", TRANSLATE, "int-obj",
         lambda d: d["vars"][0].update(sort={"int": {"lo": 0}}),
         "int must be a list, got {'lo': 0}"),
        ("partition.json", CONCRETIZE, "guards-str", lambda d: d.update(guards="x"),
         "guards must be a list, got 'x'"),
        ("partition.json", CONCRETIZE, "classes-obj", lambda d: d.update(classes={}),
         "classes must be a list, got {}"),
        ("partition.json", CONCRETIZE, "signature-obj",
         lambda d: d["classes"][0].update(signature={}),
         "signature must be a list, got {}"),
        ("suite-h.json", CHECK, "cases-str", lambda d: d.update(cases="c0"),
         "cases must be a list, got 'c0'"),
        ("suite-h.json", CHECK, "cases-obj", lambda d: d.update(cases={}),
         "cases must be a list, got {}"),
        ("suite-h.json", CHECK, "inputs-obj", lambda d: d["cases"][0].update(inputs={}),
         "case 0: inputs must be a list, got {}"),
        ("suite-h.json", ["run", "suite-h.json", "--sut", "no-such-sut"], "run-cases-obj",
         lambda d: d.update(cases={}), "cases must be a list, got {}"),
    ]

    # (file, argv, id, edit, cause) of object-valued keys given as a list of
    # pairs, which a reader would take as the object or fail on in Python's
    # words
    OBJECTS = [
        ("abstraction.json", CONCRETIZE, "class_to_valuation-pairs",
         lambda d: d.update(class_to_valuation=list(d["class_to_valuation"].items())),
         "class_to_valuation must be an object, got [['c0', {"),
        ("abstraction.json", CONCRETIZE, "label_to_output-pairs",
         lambda d: d.update(label_to_output=list(d["label_to_output"].items())),
         "label_to_output must be an object, got [['o0', {"),
        ("welding-cell.cb", TRANSLATE, "initial-pairs",
         lambda d: d.update(initial=[["HS", "0"], ["HC", "0"], ["HRW", "0"]]),
         "initial must be an object, got [['HS', '0'], ['HC', '0'], ['HRW', '0']]"),
        ("welding-cell.cb", TRANSLATE, "source-pairs",
         lambda d: d["transitions"][0].update(source=[["HS", "0"]]),
         "source must be an object, got [['HS', '0']]"),
        ("welding-cell.cb", TRANSLATE, "target-pairs",
         lambda d: d["transitions"][0].update(target=[["HS", "a"]]),
         "target must be an object, got [['HS', 'a']]"),
        ("program.gap", MUTATE, "initial-pairs",
         lambda d: d.update(initial=[["HS", "0"]]), "initial must be an object, got [['HS', '0']]"),
        ("program.gap", MUTATE, "source-pairs",
         lambda d: d["actions"][0].update(source=[["HS", "0"]]),
         "source must be an object, got [['HS', '0']]"),
        ("program.gap", MUTATE, "target-pairs",
         lambda d: d["actions"][0].update(target=[["HS", "a"]]),
         "target must be an object, got [['HS', 'a']]"),
    ]

    # (file, argv, id, edit, cause) of a valuation that is not an object, a
    # guard that is not a string, which a reader would fail on in Python's
    # words, and a phase or a name that is not a string, which a reader
    # would take as it is or as its text
    VALUES = [
        ("welding-cell.cb", TRANSLATE, "output-null",
         lambda d: d["transitions"][0].update(output=None), "not a valuation: None"),
        ("welding-cell.cb", TRANSLATE, "output-list",
         lambda d: d["transitions"][0].update(output=[]), "not a valuation: []"),
        ("welding-cell.cb", TRANSLATE, "guard-null",
         lambda d: d["transitions"][0].update(guard=None), "a guard must be a string, got None"),
        ("program.gap", MUTATE, "guard-int",
         lambda d: d["actions"][0].update(guard=5), "a guard must be a string, got 5"),
        ("reference.sfsm", CLASSES, "output-int",
         lambda d: d["transitions"][0].update(output=5), "not a valuation: 5"),
        ("welding-cell.cb", TRANSLATE, "phase-int", lambda d: d["initial"].update(HS=0),
         "phase of factor HS must be a string, got 0"),
        ("program.gap", MUTATE, "phase-int", lambda d: d["initial"].update(HS=0),
         "phase of factor HS must be a string, got 0"),
        ("program.gap", MUTATE, "name-list", lambda d: d["actions"][0].update(name=[1]),
         "name must be a string, got [1]"),
        ("reference.sfsm", CLASSES, "action-int",
         lambda d: d["transitions"][0].update(action=5), "action must be a string, got 5"),
    ]

    @pytest.mark.parametrize("name, argv, edit, cause", READERS + [
        ("suite-h.json", ["check-suite", "fsm.json", "suite-h.json"], edit, cause)
        for _, edit, cause in SUITE_FIELDS
    ] + [
        ("abstraction.json", ["concretize", "suite-h.json", "partition.json", "abstraction.json"],
         edit, cause) for _, edit, cause in OUTPUTS
    ] + [(name, argv, edit, cause)
         for name, argv, _, edit, cause in MODELS + LISTS + OBJECTS + VALUES],
        ids=[f"{name}-{kind}" for name, *_ in READERS[::2] for kind in ("type", "domain")]
        + [f"suite-h.json-{field}" for field, *_ in SUITE_FIELDS]
        + [f"abstraction.json-{field}" for field, *_ in OUTPUTS]
        + [f"{name}-{field}" for name, _, field, *_ in MODELS + LISTS + OBJECTS + VALUES])
    def test_every_reader_names_the_file(self, abstracted, behaviour, monkeypatch, capsys,
                                         name, argv, edit, cause):
        assert main(["generate", str(abstracted / "fsm.json"),
                     "--out", str(abstracted / "suite-h.json")]) == 0
        shutil.copy(behaviour, abstracted / "welding-cell.cb")
        path = abstracted / name
        doc = read(path) if path.exists() else {}
        edit(doc)
        path.write_text(json.dumps(doc))
        culprit = path
        if name == "config.json":
            monkeypatch.setenv("SUPTEST_CONFIG", str(path))
            culprit = f"SUPTEST_CONFIG={path}"
        capsys.readouterr()
        command, *rest = argv
        assert main([command, *(a if a.startswith("-") else str(abstracted / a)
                                for a in rest)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {culprit}: {cause}")

    def test_integer_state_ids_refused(self, abstracted, capsys):
        path = abstracted / "reference.sfsm"
        doc = read(path)
        number = {s: i for i, s in enumerate(doc["states"])}
        doc["states"] = list(number.values())
        doc["initial"] = number[doc["initial"]]
        for t in doc["transitions"]:
            t["from"], t["to"] = number[t["from"]], number[t["to"]]
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["abstract", str(path), "--out", str(abstracted / "out")]) == 2
        assert capsys.readouterr().err == f"error: {path}: states[0] must be a string, got 0\n"
        assert not (abstracted / "out").exists()


# Python's own words for a value of the wrong type, which no refusal may use
PYTHON_PHRASES = ("object is not subscriptable", "has no attribute", "unhashable type",
                  "is not iterable")


class TestListItemTypes:
    """In every list a reader walks item by item, the first item swapped for
    a value of another type is refused in the toolkit's words, naming the
    file and the list."""

    # keys of lists whose items a reader takes one by one; `inputs` and
    # `outputs` are the FSM's alphabets only where they are top-level keys
    ITEM_LISTS = {"vars", "input_vars", "output_vars", "transitions", "actions", "cases",
                  "classes", "states", "factors", "guards", "signature", "enum", "int"}
    ALPHABETS = {"inputs", "outputs"}
    SWAPS = (5, "x", [], None)
    COMMANDS = {
        "welding-cell.cb": ["translate", "welding-cell.cb", "--out", "out"],
        "program.gap": ["mutate", "program.gap", "--suite", "suite-concrete.json"],
        "reference.sfsm": ["abstract", "reference.sfsm", "--out", "out"],
        "fsm.json": ["generate", "fsm.json", "--out", "s.json"],
        "partition.json": ["concretize", "suite-h.json", "partition.json", "abstraction.json",
                           "--out", "c.json"],
        "abstraction.json": ["concretize", "suite-h.json", "partition.json",
                             "abstraction.json", "--out", "c.json"],
        "suite-h.json": ["check-suite", "fsm.json", "suite-h.json"],
        "suite-concrete.json": ["run", "suite-concrete.json", "--sut", "no-such-sut"],
    }
    POPULATION = 202  # swaps over the welding cell's `pipeline --m 7` files

    @classmethod
    def item_lists(cls, doc, path=()):
        """Paths in `doc` of the non-empty lists a reader walks item by item;
        a suite's cases are not entered, as their items are valuations or
        symbols of any name."""
        if isinstance(doc, dict):
            for key, value in doc.items():
                if isinstance(value, list) and value and (
                        key in cls.ITEM_LISTS or key in cls.ALPHABETS and not path):
                    yield path + (key,)
                if key != "cases":
                    yield from cls.item_lists(value, path + (key,))
        elif isinstance(doc, list):
            for i, item in enumerate(doc):
                yield from cls.item_lists(item, path + (i,))

    def test_swapped_items_refused(self, tmp_path, behaviour, capsys):
        out = tmp_path / "m7"
        assert main(["pipeline", str(behaviour), "--m", "7", "--out", str(out)]) == 0
        shutil.copy(behaviour, out / "welding-cell.cb")
        assert {p.name for p in out.iterdir() if p.suffix != ".dot"} == set(self.COMMANDS) | {
            "report.json"}  # read by no command
        started, swaps = time.perf_counter(), 0
        for name, argv in self.COMMANDS.items():
            path = out / name
            text = path.read_text()
            for keys in self.item_lists(json.loads(text)):
                for swap in self.SWAPS:
                    doc = json.loads(text)
                    items = doc
                    for key in keys:
                        items = items[key]
                    if type(items[0]) is type(swap):
                        continue
                    items[0] = swap
                    path.write_text(json.dumps(doc))
                    capsys.readouterr()
                    code = main([argv[0], *(a if a.startswith("-") else str(out / a)
                                            for a in argv[1:])])
                    err = capsys.readouterr().err
                    case = (name, keys, swap, err)
                    assert code == 2, case
                    assert err.startswith(f"error: {path}: {keys[-1]}[0] must be "), case
                    assert err.count("\n") == 1, case
                    assert not any(phrase in err for phrase in PYTHON_PHRASES), case
                    swaps += 1
            path.write_text(text)
        elapsed = time.perf_counter() - started
        assert swaps == self.POPULATION
        assert elapsed < 10, f"{swaps} swaps took {elapsed:.1f} s"


class TestRender:
    def test_sfsm_and_fsm_dot(self, abstracted):
        for model in ("reference.sfsm", "fsm.json"):
            out = abstracted / f"{model}.dot"
            assert main(["render", str(abstracted / model),
                         "--out", str(out)]) == 0
            assert out.read_text().startswith("digraph")

    def test_without_out_writes_to_stdout(self, abstracted, capsys):
        for model in ("reference.sfsm", "fsm.json"):
            out = abstracted / f"{model}.dot"
            assert main(["render", str(abstracted / model), "--out", str(out)]) == 0
            capsys.readouterr()
            assert main(["render", str(abstracted / model)]) == 0
            assert capsys.readouterr() == (out.read_text(), "")


# SHA-256 of each JSON artefact of the welding cell's pipeline, re-encoded
# with the indented canonical_dumps and without its fingerprint keys,
# measured when artefacts were still written indented and fingerprinted
# with FNV-1a: the file format and the fingerprints changed, the content
# did not.
PIPELINE_CONTENT = {
    "abstraction.json": "80d3181ffbd80086fab004ea4714cd2434e902885dc427b06436e33840fd3a1e",
    "fsm.json": "b2c565d68e6dd6075f1f2d37339203dc1093e839bb7874fd00d23c830dcdedff",
    "partition.json": "4b03cbab9b4a001b8c4932599863ff037bd8deaae7a13645e9359ec6e33635db",
    "program.gap": "64e4c978902101abb6eb58e25b939477d03a7a96615cfc0c7f0f27869c3d7f73",
    "reference.sfsm": "84d96dd7d0ecb9d892650cee99d41724786e9e337c7f6312e11836f54468d21b",
    "report.json": "1d1867bf8beb3c523556b254d604642302236c2fb876630deb56c66af65e0995",
    "suite-concrete.json": "5ffe9edbd88ef751f7e6124137843db619d76c6fb005eb7617677a02f983178e",
    "suite-h.json": "aca01b32aa05e09a9e7bebb82267adc0d4c505671088f5f271059602336db0fe",
}


def blake2b64(doc: dict) -> str:
    """The fingerprint of an artefact's document: blake2b-64 of the compact
    encoding of all but its `derivedFrom`."""
    payload = {k: v for k, v in doc.items() if k != "derivedFrom"}
    data = canonical_dumps(payload, compact=True).encode()
    return hashlib.blake2b(data, digest_size=8).hexdigest()


def replace_everywhere(monkeypatch, original, replacement) -> None:
    """Replace every alias of the function `original` in the loaded suptest
    modules."""
    for name, module in list(sys.modules.items()):
        if name == "suptest" or name.startswith("suptest."):
            for alias, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, alias, replacement)


class TestWriteArtifact:
    @pytest.mark.parametrize("payload, links", [
        ({}, None),
        ({}, {"fsm": "f"}),
        ({"zz": [1, {"é": None}], "a": "x"}, {"suite": "s"}),
        ({"e": True, "f": 1.5}, {}),
    ])
    def test_file_and_fingerprint_from_one_encoding(self, tmp_path, payload, links):
        path = tmp_path / "artefact.json"
        assert write_artifact(path, payload, links) == fingerprint(payload)
        doc = {**payload, "derivedFrom": links} if links else payload
        assert path.read_bytes() == canonical_dumps(doc, compact=True).encode()


# JSON values with `1` and `True` apart, non-ASCII and escaped text, and
# strings long enough that a member alone spans several write batches
keys = st.text(alphabet="abé\u2603 \"", max_size=3).filter(lambda key: key != "derivedFrom")
scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 2), st.floats(allow_nan=False, allow_infinity=False),
    st.text(alphabet="aé\u2603\"\\\n", max_size=4),
    st.tuples(st.text(alphabet="aé\u2603", min_size=1, max_size=3),
              st.integers(1, 50_000)).map(lambda tr: tr[0] * tr[1]))
json_values = st.recursive(scalars, lambda inner: st.one_of(
    st.lists(inner, max_size=3), st.dictionaries(keys, inner, max_size=3)), max_leaves=8)


def lazily(value, cuts):
    """The parts of `value`'s encoding, cut at the fractions `cuts`."""
    text = encode_compact(value)
    at = sorted({int(cut * len(text)) for cut in cuts})
    return iter([text[i:j] for i, j in zip([0, *at], [*at, len(text)])])


def big_suite(copies: int = 1) -> TestSuite:
    """A concrete suite of several parts and several write batches, with
    `1` and `True` apart, non-ASCII text, empty cases and nil outputs."""
    one, true, snow = {"x": 1, "m": "é"}, {"x": True, "m": "\u2603"}, {"y": "on"}
    cases = [TestCase((one, true, one), (None, snow, {"y": 1})), TestCase((), ()),
             TestCase((true,), (None,)), TestCase((snow, snow), ({"y": True}, None))]
    return TestSuite(cases * (8 * CASES_PER_PART * copies), "h", 9, concrete=True)


def big_report() -> TestReport:
    verdicts = [Verdict(0, PASS), Verdict(1, FAIL, 2, {"x": 1}, {"y": True}, {"y": 1}),
                Verdict(2, ERROR, detail="SUT said \u2603\n"),
                Verdict(3, FAIL, 0, "c1", "o1", None)]
    return TestReport("h", 9, verdicts * (2 * VERDICTS_PER_PART) + [Verdict(4, PASS)], 1.5)


class TestStreamedWriter:
    """`write_artifact` against the writer that encoded a whole artefact at
    once (`helpers.canonical_artifact`): the same file, the same fingerprint."""

    @given(st.data(), st.none() | st.dictionaries(st.sampled_from(["fsm", "suite", "é"]),
                                                  st.text(max_size=3), max_size=2))
    @settings(max_examples=150, deadline=None)
    def test_equals_one_shot_writer(self, data, links):
        payload = data.draw(st.dictionaries(keys, json_values, max_size=4), label="payload")
        lazy = {key: data.draw(st.booleans(), label=f"lazy {key!r}") for key in payload}
        cuts = {key: data.draw(st.lists(st.floats(0, 1), max_size=5), label=f"cuts {key!r}")
                for key in payload}

        def given_payload():
            return {key: lazily(value, cuts[key]) if lazy[key] else value
                    for key, value in payload.items()}

        expected = canonical_artifact(payload, links)
        assert written(given_payload(), links) == expected
        assert artifact_fingerprint(given_payload()) == expected[1] == fingerprint(payload)

    @pytest.mark.parametrize("links", [None, {"fsm": "f" * 16}])
    def test_suite_and_report_larger_than_a_batch(self, links):
        suite, report = big_suite(), big_report()
        for value in (suite, report):
            expected = canonical_artifact(value.to_obj(), links)
            assert len(expected[0]) > 3 * WRITE_BATCH
            assert written(value.to_artifact(), links) == expected
            assert canonical_artifact(settled(value.to_artifact()), links) == expected
            assert artifact_fingerprint(value.to_artifact()) == expected[1]

    def test_unencodable_value_leaves_no_file(self, tmp_path):
        path = tmp_path / "artefact.json"
        with pytest.raises(TypeError, match="not JSON serializable"):
            write_artifact(path, {"a": "x" * (3 * WRITE_BATCH), "b": object()})
        assert list(tmp_path.iterdir()) == []

    def test_failure_past_a_batch_keeps_the_old_file(self, tmp_path):
        path = tmp_path / "artefact.json"
        write_artifact(path, {"old": True})
        before = path.read_bytes()

        def parts():
            yield "[" + ",".join(["1"] * (2 * WRITE_BATCH))
            raise RuntimeError("the SUT went away")

        with pytest.raises(RuntimeError, match="went away"):
            write_artifact(path, {"cases": parts()})
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]

    def test_suite_written_without_a_copy_of_its_file(self, tmp_path):
        """Peak memory of writing a suite's artefact stays below an eighth
        of the file: no whole encoding of it is held."""
        suite, path = big_suite(32), tmp_path / "suite.json"
        tracemalloc.start()
        try:
            write_artifact(path, suite.to_artifact(), {"fsm": "f" * 16})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = path.stat().st_size
        assert size > 8_000_000
        assert peak < size / 8, (peak, size)


class TestPipeline:
    def test_loads_neither_dataclasses_nor_inspect(self, tmp_path, behaviour):
        command = [sys.executable, "-c", PRINT_MODULES_AT_EXIT + (
            "import runpy\n"
            f"sys.argv = ['suptest', 'pipeline', {str(behaviour)!r}, "
            f"'--out', {str(tmp_path / 'out')!r}]\n"
            "runpy.run_module('suptest', run_name='__main__', alter_sys=True)\n")]
        done = subprocess.run(command, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert "verdict: COMPLETE PASS" in done.stdout
        loaded = set(ast.literal_eval(done.stderr.strip().splitlines()[-1]))
        assert "suptest.harness" in loaded
        assert not {"dataclasses", "inspect"} & loaded

    def test_artefacts_compact_with_checked_chain(self, tmp_path, behaviour):
        out = tmp_path / "pipeline"
        assert main(["pipeline", str(behaviour), "--out", str(out)]) == 0
        docs = {}
        for path in sorted(out.iterdir()):
            if path.suffix == ".dot":
                continue
            text = path.read_text(encoding="utf-8")
            doc = docs[path.name] = json.loads(text)
            assert text == canonical_dumps(doc, compact=True), path.name
            content = {k: v for k, v in doc.items()
                       if k not in ("derivedFrom", "referenceFingerprint")}
            digest = hashlib.sha256(canonical_dumps(content).encode()).hexdigest()
            assert digest == PIPELINE_CONTENT[path.name], path.name
        assert set(docs) == set(PIPELINE_CONTENT)
        parent = {"behaviour": read(behaviour), "sfsm": docs["reference.sfsm"],
                  "fsm": docs["fsm.json"]}
        suite_of = {"suite-concrete.json": "suite-h.json", "report.json": "suite-concrete.json"}
        for name, doc in docs.items():
            for key, value in doc["derivedFrom"].items():
                source = docs[suite_of[name]] if key == "suite" else parent[key]
                assert value == blake2b64(source), (name, key)
            if "referenceFingerprint" in doc:
                assert doc["referenceFingerprint"] == blake2b64(docs["fsm.json"]), name

    def test_complete_pass_and_artefacts(self, tmp_path, behaviour, capsys):
        out = tmp_path / "pipeline"
        assert main(["pipeline", str(behaviour), "--out", str(out)]) == 0
        assert "COMPLETE PASS" in capsys.readouterr().out
        for name in ("program.gap", "reference.sfsm", "partition.json",
                     "fsm.json", "abstraction.json", "suite-h.json",
                     "suite-concrete.json", "reference.dot", "fsm.dot",
                     "report.json"):
            assert (out / name).exists(), name

    def test_spaced_paths(self, tmp_path, behaviour, monkeypatch, capsys):
        # the default SUT command is an argv list, not a line split at spaces
        python = tmp_path / "py thon" / "python"
        python.parent.mkdir()
        python.symlink_to(sys.executable)
        monkeypatch.setattr(sys, "executable", str(python))
        out = tmp_path / "sp ace" / "out"
        assert main(["pipeline", str(behaviour), "--out", str(out)]) == 0
        assert "COMPLETE PASS" in capsys.readouterr().out
        assert read(out / "report.json")["completePass"] is True

    def test_repeat_runs_byte_identical(self, tmp_path, behaviour):
        out1 = tmp_path / "run1"
        out2 = tmp_path / "run2"
        assert main(["pipeline", str(behaviour), "--out", str(out1)]) == 0
        assert main(["pipeline", str(behaviour), "--out", str(out2)]) == 0
        for child in sorted(out1.iterdir()):
            assert (out2 / child.name).read_bytes() == child.read_bytes(), child.name

    def test_prints_behaviour_warnings(self, tmp_path, capsys):
        obj = single_transition_obj()
        obj["transitions"] = [
            {"source": {"F": "0"}, "guard": "true", "output": {"y": 0}, "target": {"F": "0"}},
            {"source": {"F": "a"}, "guard": "true", "output": {"y": 1}, "target": {"F": "m"}},
        ]
        path = tmp_path / "unreachable.cb"
        path.write_text(json.dumps(obj))
        assert main(["pipeline", str(path), "--out", str(tmp_path / "pipeline")]) == 0
        out, err = capsys.readouterr()
        assert err == "warning: unreachable risk states dropped: Fa, Fm\n"
        assert "control states: program=1 reference=1 [PASS]" in out

    def test_sort_width_does_not_matter(self, tmp_path, behaviour, monkeypatch, capsys):
        # 10^24 valuations: classes are found over the literals' cells
        obj = read(behaviour)
        for d in obj["vars"]:
            if d["kind"] == "monitored":
                d["sort"] = {"int": [0, 999_999]}
        path = tmp_path / "wide.cb"
        path.write_text(json.dumps(obj))
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"policy": "complete-with-selfloop"}))
        monkeypatch.setenv("SUPTEST_CONFIG", str(config))
        out = tmp_path / "wide"
        assert main(["pipeline", str(path), "--out", str(out)]) == 0
        assert "COMPLETE PASS" in capsys.readouterr().out
        sizes = [c["size"] for c in read(out / "partition.json")["classes"]]
        assert len(sizes) == 81
        assert sum(sizes) == 10 ** 24

    def test_stage_chain_writes_pipeline_artefacts(self, tmp_path, behaviour):
        piped = tmp_path / "pipeline"
        assert main(["pipeline", str(behaviour), "--out", str(piped)]) == 0
        out = tmp_path / "stages"
        ref = out / "reference.sfsm"
        sut = f"{sys.executable} -m suptest serve-reference {out / 'program.gap'}"
        for argv in (
            ["translate", str(behaviour), "--out", str(out)],
            ["classes", str(ref), "--out", str(out / "partition.json")],
            ["abstract", str(ref), "--out", str(out)],
            ["generate", str(out / "fsm.json"), "--out", str(out / "suite-h.json")],
            ["concretize", str(out / "suite-h.json"), str(out / "partition.json"),
             str(out / "abstraction.json"), "--out", str(out / "suite-concrete.json")],
            ["render", str(ref), "--out", str(out / "reference.dot")],
            ["render", str(out / "fsm.json"), "--out", str(out / "fsm.dot")],
            ["run", str(out / "suite-concrete.json"), "--sut", sut,
             "--out", str(out / "report.json")],
        ):
            assert main(argv) == 0, argv
        names = sorted(p.name for p in piped.iterdir())
        assert len(names) == 10
        assert sorted(p.name for p in out.iterdir()) == names
        for name in names:
            assert (out / name).read_bytes() == (piped / name).read_bytes(), name

    def test_walks_valuation_space_once_per_stage(self, tmp_path, behaviour, monkeypatch):
        original = guards.enumerate_valuations
        callers = []

        def counted(*args, **kwargs):
            callers.append(sys._getframe(1).f_code.co_name)
            return original(*args, **kwargs)

        replace_everywhere(monkeypatch, original, counted)
        assert main(["pipeline", str(behaviour), "--out", str(tmp_path / "pipeline")]) == 0
        # translate checks determinism once, and its hypothesis check
        # computes the reference's partition, which `classes` and `abstract`
        # reuse; DOT export's satisfiability search is an early-exit walk
        # and not counted
        assert len([c for c in callers if c != "satisfiable"]) == 2

    def test_names_each_action_once(self, tmp_path, behaviour, monkeypatch):
        from suptest import supervisor
        original = supervisor.derive_action_name
        calls = []

        def counted(*args):
            calls.append(args)
            return original(*args)

        replace_everywhere(monkeypatch, original, counted)
        assert main(["pipeline", str(behaviour), "--out", str(tmp_path / "pipeline")]) == 0
        # the reader names each of the 16 transitions; the translations
        # take the names it gave
        assert len(calls) == 16

    def test_fingerprints_only_the_behaviour(self, tmp_path, behaviour, monkeypatch):
        # every other link is the fingerprint that `write_artifact` took
        # from the encoding it wrote
        fingerprinted = []

        def counted(obj):
            fingerprinted.append(obj)
            return fingerprint(obj)

        replace_everywhere(monkeypatch, fingerprint, counted)
        assert main(["pipeline", str(behaviour), "--out", str(tmp_path / "pipeline")]) == 0
        assert fingerprinted == [read(behaviour)]

    def test_config_env_override(self, tmp_path, behaviour, monkeypatch):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"m_extra": 1}))
        monkeypatch.setenv("SUPTEST_CONFIG", str(config))
        out = tmp_path / "pipeline"
        assert main(["pipeline", str(behaviour), "--out", str(out)]) == 0
        suite = read(out / "suite-h.json")
        fsm = read(out / "fsm.json")
        assert suite["mBound"] == len(fsm["states"]) + 1


class TestConfig:
    @pytest.mark.parametrize("content, cause", [
        (None, "No such file"),
        ("{", "Expecting"),
        ("[]", "expected a JSON object"),
        ('{"m_extr": 1}', "unknown keys ['m_extr']"),
        ('{"policy": "selfloop"}',
         "policy must be one of 'error', 'complete-with-selfloop', got 'selfloop'"),
        ('{"enum_bound": "x"}', "unknown keys ['enum_bound']"),
        ('{"enum_bound": 0}', "unknown keys ['enum_bound']"),
        ('{"enum_bound": true}', "unknown keys ['enum_bound']"),
        ('{"m_extra": -1}', "m_extra must be an int >= 0, got -1"),
        ('{"m_extra": 1.0}', "m_extra must be an int >= 0, got 1.0"),
        ('{"mutation_seed": false}', "mutation_seed must be an int, got False"),
        ('{"mutation_limit": -1}', "unknown keys ['mutation_limit']"),
        ('{"step_timeout": 0}', "step_timeout must be a number > 0, got 0"),
        ('{"step_timeout": "5"}', "step_timeout must be a number > 0, got '5'"),
        ('{"step_timeout": true}', "step_timeout must be a number > 0, got True"),
    ], ids=["missing", "malformed", "not-object", "unknown-key", "unknown-policy",
            "enum-bound-str", "enum-bound-zero", "enum-bound-bool", "m-extra-negative",
            "m-extra-float", "seed-bool", "limit-negative", "timeout-zero", "timeout-str",
            "timeout-bool"])
    def test_bad_config_exits_2(self, tmp_path, behaviour, monkeypatch, capsys,
                                content, cause):
        config = tmp_path / "config.json"
        if content is not None:
            config.write_text(content)
        monkeypatch.setenv("SUPTEST_CONFIG", str(config))
        assert main(["translate", str(behaviour), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: SUPTEST_CONFIG={config}: ")
        assert cause in err


class TestDebug:
    @pytest.mark.parametrize("debug", [None, "0"], ids=["unset", "zero"])
    def test_one_error_line(self, tmp_path, monkeypatch, capsys, debug):
        if debug is None:
            monkeypatch.delenv("SUPTEST_DEBUG", raising=False)
        else:
            monkeypatch.setenv("SUPTEST_DEBUG", debug)
        missing = tmp_path / "nope.cb"
        assert main(["translate", str(missing)]) == 2
        assert capsys.readouterr().err == f"error: {missing}: No such file or directory\n"

    def test_debug_raises_with_traceback(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("SUPTEST_DEBUG", "1")
        missing = tmp_path / "nope.cb"
        with pytest.raises(ArtifactError, match="No such file") as exc:
            main(["translate", str(missing)])
        assert isinstance(exc.value.__cause__, FileNotFoundError)
        assert capsys.readouterr().err == ""


# Each subcommand's required arguments, so that an unknown option after them
# is refused by the top-level parser
REQUIRED_ARGUMENTS = {
    "translate": ["b.cb"], "classes": ["r.sfsm"], "abstract": ["r.sfsm"],
    "generate": ["fsm.json"], "concretize": ["suite.json", "partition.json", "a.json"],
    "check-suite": ["fsm.json", "suite.json"], "run": ["suite.json", "--sut", "x"],
    "serve-reference": ["program.gap"], "serve-machine": ["fsm.json"],
    "mutate": ["fsm.json", "--suite", "suite.json"], "render": ["fsm.json"],
    "pipeline": ["b.cb"],
}


def parsed(parse, argv, capsys) -> tuple:
    """The exit code, standard output and standard error of `parse(argv)`,
    which exits."""
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    return exc.value.code, *capsys.readouterr()


class TestParserPerCommand:
    """`main` builds the parser of the subcommand it is given, alone: its
    help and its refusals read as those of the whole parser."""

    def test_every_command_listed(self):
        assert list(REQUIRED_ARGUMENTS) == list(COMMANDS) and len(COMMANDS) == 12

    @pytest.mark.parametrize("command", list(REQUIRED_ARGUMENTS))
    def test_help_and_usage_error_as_whole_parser(self, command, capsys):
        whole = build_parser().parse_args
        for argv in ([command, "-h"],
                     [command, *REQUIRED_ARGUMENTS[command], "--no-such-option"]):
            alone = parsed(main, argv, capsys)
            assert alone == parsed(whole, argv, capsys)
            assert alone[0] == (0 if argv[-1] == "-h" else 2)
            assert alone[2 if alone[0] else 1]  # help on stdout, a refusal on stderr
        assert "unrecognized arguments: --no-such-option" in alone[2]

    @pytest.mark.parametrize("argv", [[], ["-h"], ["no-such-command"], ["--out", "x"]],
                             ids=["none", "help", "unknown", "option-first"])
    def test_whole_parser_otherwise(self, argv, capsys, monkeypatch):
        built = []
        monkeypatch.setattr("suptest.cli.build_parser",
                            lambda names=COMMANDS: built.append(names) or build_parser(names))
        assert parsed(main, argv, capsys) == parsed(build_parser().parse_args, argv, capsys)
        assert built == [COMMANDS]
