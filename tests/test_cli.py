"""End-to-end CLI behaviour: artefacts, exit codes, fingerprint checks."""

import json
import shutil
import sys

import pytest

from suptest import guards
from suptest.cli import main
from suptest.encoding import canonical_dumps
from suptest.mutation import OUTPUT_FAULT, generate_mutants
from suptest.supervisor import load_behavior, to_guarded_actions
from test_harness import behaviour_obj
from test_supervisor import single_transition_obj


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
    ], ids=["top-level-key", "transition-key", "not-object"])
    def test_names_the_behaviour_file(self, tmp_path, capsys, content, cause):
        path = tmp_path / "bad.cb"
        path.write_text(content)
        assert main(["translate", str(path), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}: {cause}")


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

    def test_check_refuses_foreign_suite(self, abstracted, capsys):
        fsm = abstracted / "fsm.json"
        suite_path = abstracted / "suite-h.json"
        assert main(["generate", str(fsm), "--out", str(suite_path)]) == 0
        doc = read(suite_path)
        doc["referenceFingerprint"] = "0" * 16
        suite_path.write_text(canonical_dumps(doc))
        assert main(["check-suite", str(fsm), str(suite_path)]) == 2
        assert "different reference" in capsys.readouterr().err


class TestConcretize:
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

    def test_refuses_foreign_suite(self, abstracted, capsys):
        fsm = abstracted / "fsm.json"
        suite_path = abstracted / "suite-h.json"
        assert main(["generate", str(fsm), "--out", str(suite_path)]) == 0
        doc = read(suite_path)
        doc["referenceFingerprint"] = "0" * 16
        suite_path.write_text(canonical_dumps(doc))
        assert main(["mutate", str(fsm), "--suite", str(suite_path)]) == 2
        assert "different reference" in capsys.readouterr().err

    def test_negative_limit_exits_2(self, abstracted, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["mutate", str(abstracted / "fsm.json"),
                  "--suite", str(abstracted / "suite-h.json"), "--limit", "-1"])
        assert exc.value.code == 2
        assert "argument --limit: must be an int >= 0, got -1" in capsys.readouterr().err


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
         lambda d: d.update(transitions=[1]), "'int' object is not subscriptable"),
        ("welding-cell.cb", ["translate", "welding-cell.cb", "--out", "out"],
         lambda d: d["initial"].update(HS="z"), "unknown phase 'z' for factor HS"),
        ("program.gap", ["mutate", "program.gap", "--suite", "suite-h.json"],
         lambda d: d.update(actions=[1]), "'int' object is not subscriptable"),
        ("program.gap", ["mutate", "program.gap", "--suite", "suite-h.json"],
         lambda d: d["actions"][0].update(guard="nope = 1"), "undeclared variable: nope"),
        ("reference.sfsm", ["classes", "reference.sfsm", "--out", "p.json"],
         lambda d: d.update(transitions=[1]), "'int' object is not subscriptable"),
        ("reference.sfsm", ["classes", "reference.sfsm", "--out", "p.json"],
         lambda d: d["transitions"][0].update(guard="nope = 1"), "undeclared variable: nope"),
        ("fsm.json", ["generate", "fsm.json", "--out", "s.json"],
         lambda d: d.update(transitions=[1]), "'int' object is not subscriptable"),
        ("fsm.json", ["generate", "fsm.json", "--out", "s.json"],
         lambda d: d["states"].append(d["states"][0]), "duplicate state identifiers"),
        ("suite-h.json", ["check-suite", "fsm.json", "suite-h.json"],
         lambda d: d.update(cases=5), "'int' object is not iterable"),
        ("suite-h.json", ["check-suite", "fsm.json", "suite-h.json"],
         lambda d: d["cases"][0].update(expectedOutputs=[]), "case 0 has"),
        ("partition.json", ["concretize", "suite-h.json", "partition.json", "abstraction.json"],
         lambda d: d.update(classes=[1]), "'int' object is not subscriptable"),
        ("partition.json", ["concretize", "suite-h.json", "partition.json", "abstraction.json"],
         lambda d: d["classes"][0].pop("representative"), "missing key 'representative'"),
        ("abstraction.json", ["concretize", "suite-h.json", "partition.json", "abstraction.json"],
         lambda d: d.update(label_to_output=5), "'int' object is not iterable"),
        ("abstraction.json", ["concretize", "suite-h.json", "partition.json", "abstraction.json"],
         lambda d: d.update(class_to_valuation=[["c0"]]), "dictionary update sequence"),
        ("config.json", ["translate", "welding-cell.cb", "--out", "out"],
         lambda d: d.update(m_extra="1"), "m_extra must be an int >= 0, got '1'"),
        ("config.json", ["translate", "welding-cell.cb", "--out", "out"],
         lambda d: d.update(policy="selfloop"), "unknown policy 'selfloop'"),
    ]

    @pytest.mark.parametrize("name, argv, edit, cause", READERS, ids=[
        f"{name}-{kind}" for name, *_ in READERS[::2] for kind in ("type", "domain")])
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


class TestRender:
    def test_sfsm_and_fsm_dot(self, abstracted):
        for model in ("reference.sfsm", "fsm.json"):
            out = abstracted / f"{model}.dot"
            assert main(["render", str(abstracted / model),
                         "--out", str(out)]) == 0
            assert out.read_text().startswith("digraph")


class TestPipeline:
    def test_complete_pass_and_artefacts(self, tmp_path, behaviour, capsys):
        out = tmp_path / "pipeline"
        assert main(["pipeline", str(behaviour), "--out", str(out)]) == 0
        assert "COMPLETE PASS" in capsys.readouterr().out
        for name in ("program.gap", "reference.sfsm", "partition.json",
                     "fsm.json", "abstraction.json", "suite-h.json",
                     "suite-concrete.json", "reference.dot", "fsm.dot",
                     "report.json"):
            assert (out / name).exists(), name

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
        assert main(["pipeline", str(path), "--out", str(tmp_path / "pipeline")]) == 1
        assert "unreachable risk states dropped" in capsys.readouterr().err

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

        for name, module in list(sys.modules.items()):
            if name == "suptest" or name.startswith("suptest."):
                for alias, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, alias, counted)
        assert main(["pipeline", str(behaviour), "--out", str(tmp_path / "pipeline")]) == 0
        # translate checks determinism once, then `classes` and `abstract`
        # each compute the partition; DOT export's satisfiability search
        # is an early-exit walk and not counted
        assert len([c for c in callers if c != "satisfiable"]) == 3

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
        ('{"policy": "selfloop"}', "unknown policy 'selfloop'"),
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
