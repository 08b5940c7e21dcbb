"""Command-line pipeline: behaviour -> program/reference -> suites -> verdicts.

Each stage is one function that takes in-memory inputs, writes its
artefacts, prints its summary line and returns its result; a subcommand
loads that stage's inputs from files, and `pipeline` chains the stages.
Every artefact is written in the canonical encoding and embeds the
fingerprints of the artefacts it was derived from, so a pipeline run is
reproducible byte for byte.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import harness, mutation, sfsm, supervisor, testgen
from .encoding import ArtifactError, canonical_dumps, fingerprint, read_artifact
from .fsm import MealyMachine
from .sfsm import POLICY_ERROR, POLICY_SELFLOOP, Sfsm

CONFIG_ENV = "SUPTEST_CONFIG"

DEFAULTS = {
    "policy": POLICY_ERROR,
    "m_extra": 0,  # mBound = n + m_extra unless --m given
    "step_timeout": harness.DEFAULT_STEP_TIMEOUT,
    "mutation_seed": 0,
}


# What each numeric setting must be; `type(x) is int` refuses booleans.
CONFIG_TYPES = {
    "m_extra": ("an int >= 0", lambda x: type(x) is int and x >= 0),
    "mutation_seed": ("an int", lambda x: type(x) is int),
    "step_timeout": ("a number > 0", lambda x: type(x) in (int, float) and 0 < x < float("inf")),
}


class CliError(Exception):
    pass


def mutant_count(text: str) -> int:
    """`--limit` value: an int >= 0."""
    count = int(text)
    if count < 0:
        raise argparse.ArgumentTypeError(f"must be an int >= 0, got {count}")
    return count


def config_from_obj(doc: dict) -> dict:
    unknown = sorted(set(doc) - set(DEFAULTS))
    if unknown:
        raise CliError(f"unknown keys {unknown}")
    config = {**DEFAULTS, **doc}
    if config["policy"] not in (POLICY_ERROR, POLICY_SELFLOOP):
        raise CliError(f"unknown policy {config['policy']!r}")
    for key, (want, ok) in CONFIG_TYPES.items():
        if not ok(config[key]):
            raise CliError(f"{key} must be {want}, got {config[key]!r}")
    return config


def load_config() -> dict:
    path = os.environ.get(CONFIG_ENV)
    if not path:
        return dict(DEFAULTS)
    try:
        return read_artifact(path, config_from_obj)
    except ArtifactError as exc:  # its message starts with the path
        raise CliError(f"{CONFIG_ENV}={exc}") from exc


# ---------------------------------------------------------------------------
# Artefact I/O
# ---------------------------------------------------------------------------

def write_artifact(path, payload: dict, inputs: dict | None = None) -> None:
    doc = dict(payload)
    if inputs:
        doc["derivedFrom"] = inputs
    Path(path).write_text(canonical_dumps(doc), encoding="utf-8")


def load_machine(path) -> MealyMachine:
    return read_artifact(path, MealyMachine.from_obj)


def load_sfsm(path) -> Sfsm:
    return read_artifact(path, Sfsm.from_obj)


def load_program(path) -> supervisor.GuardedActionProgram:
    return read_artifact(path, supervisor.GuardedActionProgram.from_obj)


def load_suite(path) -> testgen.TestSuite:
    return read_artifact(path, testgen.TestSuite.from_obj)


def with_sfsm_link(from_obj):
    """`from_obj` that also returns the fingerprint of the SFSM the
    document was derived from, or None."""
    return lambda doc: (from_obj(doc), doc.get("derivedFrom", {}).get("sfsm"))


def by_key(key: str, if_present, otherwise):
    """A `from_obj` that reads a document holding `key` with `if_present`."""
    return lambda doc: (if_present if key in doc else otherwise)(doc)


# ---------------------------------------------------------------------------
# Stages
# ---------------------------------------------------------------------------

def translate(behaviour_path, out: Path, config) -> tuple[Sfsm, supervisor.HypothesisReport]:
    behaviour = supervisor.load_behavior(behaviour_path)
    program = supervisor.to_guarded_actions(behaviour, config["policy"])
    reference = supervisor.to_test_reference(behaviour, config["policy"])
    report = supervisor.check_hypotheses(program, reference)
    for warning in behaviour.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    out.mkdir(parents=True, exist_ok=True)
    behaviour_fp = fingerprint(read_artifact(behaviour_path, dict))
    write_artifact(out / "program.gap", program.to_obj(), {"behaviour": behaviour_fp})
    write_artifact(out / "reference.sfsm", reference.to_obj(), {"behaviour": behaviour_fp})
    print(report.summary())
    return reference, report


def classes(reference: Sfsm, path) -> sfsm.InputClassPartition:
    partition = sfsm.input_classes(reference)
    write_artifact(path, partition.to_obj(), {"sfsm": reference.fingerprint()})
    print(f"{len(partition.classes)} input equivalence classes")
    return partition


def abstract(reference: Sfsm, out: Path, config) -> tuple[MealyMachine, sfsm.AbstractionMap]:
    machine, amap = sfsm.abstract_to_fsm(reference, config["policy"])
    out.mkdir(parents=True, exist_ok=True)
    ref_fp = reference.fingerprint()
    write_artifact(out / "fsm.json", machine.to_obj(), {"sfsm": ref_fp})
    write_artifact(out / "abstraction.json", amap.to_obj(), {"sfsm": ref_fp})
    print(f"FSM: {len(machine.states)} states, {len(machine.inputs)} inputs, "
          f"{len(machine.outputs)} outputs")
    return machine, amap


def generate(machine: MealyMachine, method: str, m_bound, path, config) -> testgen.TestSuite:
    """`m_bound` None means the state count plus the configured `m_extra`."""
    if m_bound is None:
        m_bound = len(machine.states) + config["m_extra"]
    derive = testgen.h_method if method == "h" else testgen.w_method
    suite = derive(machine, m_bound)
    write_artifact(path, suite.to_obj(), {"fsm": machine.fingerprint()})
    stats = testgen.suite_stats(suite)
    print(f"{method}-suite: {stats['cases']} cases, "
          f"{stats['total_input_symbols']} input symbols, "
          f"max length {stats['max_length']}")
    return suite


def require_suite_of(machine: MealyMachine, suite: testgen.TestSuite) -> None:
    if suite.reference_fingerprint != machine.fingerprint():
        raise CliError("suite was generated from a different reference machine")


def check_suite(machine: MealyMachine, suite: testgen.TestSuite) -> testgen.CompletenessReport:
    require_suite_of(machine, suite)
    report = testgen.check_h_completeness(machine, suite.m_bound, suite)
    print(report.summary())
    return report


def concretize(suite: testgen.TestSuite, partition, amap, path) -> testgen.TestSuite:
    concrete = sfsm.concretize_suite(suite, partition, amap)
    write_artifact(path, concrete.to_obj(), {"suite": fingerprint(suite.to_obj())})
    print(f"concretized {len(concrete.cases)} cases")
    return concrete


def run(suite: testgen.TestSuite, sut_command: str, path, config) -> harness.TestReport:
    with harness.SutAdapter(sut_command, config["step_timeout"]) as sut:
        report = harness.run_suite(sut, suite)
    if path:
        write_artifact(path, report.to_obj(), {"suite": fingerprint(suite.to_obj())})
    print(report.summary())
    return report


def render(model: Sfsm | MealyMachine, path) -> None:
    if isinstance(model, Sfsm):
        text = sfsm.export_dot(model)
    else:
        text = model.to_dot()
    if path:
        Path(path).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_translate(args, config) -> int:
    _, report = translate(args.behaviour, Path(args.out or "."), config)
    return 0 if report.ok else 1


def cmd_classes(args, config) -> int:
    classes(load_sfsm(args.sfsm), args.out or "partition.json")
    return 0


def cmd_abstract(args, config) -> int:
    abstract(load_sfsm(args.sfsm), Path(args.out or "."), config)
    return 0


def cmd_generate(args, config) -> int:
    generate(load_machine(args.fsm), args.method, args.m,
             args.out or f"suite-{args.method}.json", config)
    return 0


def cmd_concretize(args, config) -> int:
    partition, p_fp = read_artifact(args.partition,
                                    with_sfsm_link(sfsm.InputClassPartition.from_obj))
    amap, a_fp = read_artifact(args.abstraction, with_sfsm_link(sfsm.AbstractionMap.from_obj))
    if p_fp and a_fp and p_fp != a_fp:
        raise CliError("partition and abstraction map come from different SFSMs")
    suite = load_suite(args.suite)
    try:
        concretize(suite, partition, amap, args.out or "suite-concrete.json")
    except sfsm.UnknownClassId as exc:
        raise CliError(f"{args.partition}: {exc}") from exc
    except sfsm.UnknownOutputLabel as exc:
        raise CliError(f"{args.abstraction}: {exc}") from exc
    return 0


def cmd_check_suite(args, config) -> int:
    report = check_suite(load_machine(args.fsm), load_suite(args.suite))
    return 0 if report.ok else 1


def cmd_run(args, config) -> int:
    report = run(load_suite(args.suite), args.sut, args.out, config)
    return 0 if report.complete_pass else 1


def cmd_serve_reference(args, config) -> int:
    program = load_program(args.program)
    harness.serve_reference(program)
    return 0


def cmd_serve_machine(args, config) -> int:
    machine = load_machine(args.fsm)
    harness.serve_machine(machine)
    return 0


def cmd_mutate(args, config) -> int:
    suite = load_suite(args.suite)
    target = read_artifact(args.target, by_key(
        "actions", supervisor.GuardedActionProgram.from_obj, MealyMachine.from_obj))
    if isinstance(target, MealyMachine):
        require_suite_of(target, suite)
    operators = args.ops.split(",") if args.ops else None
    mutants = mutation.generate_mutants(target, operators, args.limit,
                                        config["mutation_seed"])
    outcomes = [mutation.classify(target, suite, m, via="oracle") for m in mutants]
    report = mutation.mutation_report(outcomes)
    if args.out:
        write_artifact(args.out, report.to_obj(), {"suite": fingerprint(suite.to_obj())})
    if args.csv:
        Path(args.csv).write_text(report.to_csv(), encoding="utf-8")
    print(report.summary())
    return 0 if report.counts[mutation.ESCAPED] == 0 and report.counts["ERROR"] == 0 else 1


def cmd_render(args, config) -> int:
    model = read_artifact(args.model, by_key("input_vars", Sfsm.from_obj, MealyMachine.from_obj))
    render(model, args.out)
    return 0


def cmd_pipeline(args, config) -> int:
    out = Path(args.out or "artefacts")
    reference, hypotheses = translate(args.behaviour, out, config)
    if not hypotheses.ok:
        return 1
    partition = classes(reference, out / "partition.json")
    machine, amap = abstract(reference, out, config)
    suite = generate(machine, "h", args.m, out / "suite-h.json", config)
    if not check_suite(machine, suite).ok:
        return 1
    concrete = concretize(suite, partition, amap, out / "suite-concrete.json")
    render(reference, out / "reference.dot")
    render(machine, out / "fsm.dot")
    sut_command = args.sut or f"{sys.executable} -m suptest serve-reference {out / 'program.gap'}"
    report = run(concrete, sut_command, out / "report.json", config)
    return 0 if report.complete_pass else 1


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="suptest",
        description="Conformance testing toolkit for supervisory safety controllers",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("translate", help="behaviour -> guarded-action program + SFSM")
    p.add_argument("behaviour")
    p.add_argument("--out", help="output directory")
    p.set_defaults(func=cmd_translate)

    p = sub.add_parser("classes", help="input equivalence classes of an SFSM")
    p.add_argument("sfsm")
    p.add_argument("--out")
    p.set_defaults(func=cmd_classes)

    p = sub.add_parser("abstract", help="SFSM -> FSM + abstraction map")
    p.add_argument("sfsm")
    p.add_argument("--out", help="output directory")
    p.set_defaults(func=cmd_abstract)

    p = sub.add_parser("generate", help="derive a complete abstract test suite")
    p.add_argument("fsm")
    p.add_argument("--method", choices=("h", "w"), default="h")
    p.add_argument("--m", type=int, help="assumed max SUT state count")
    p.add_argument("--out")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("concretize", help="refine an abstract suite to valuations")
    p.add_argument("suite")
    p.add_argument("partition")
    p.add_argument("abstraction")
    p.add_argument("--out")
    p.set_defaults(func=cmd_concretize)

    p = sub.add_parser("check-suite", help="orthogonal H-completeness check")
    p.add_argument("fsm")
    p.add_argument("suite")
    p.set_defaults(func=cmd_check_suite)

    p = sub.add_parser("run", help="execute a concrete suite against a SUT")
    p.add_argument("suite")
    p.add_argument("--sut", required=True, help="SUT command line")
    p.add_argument("--out")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("serve-reference", help="run a program as reference SUT")
    p.add_argument("program")
    p.set_defaults(func=cmd_serve_reference)

    p = sub.add_parser("serve-machine", help="run an FSM as a symbolic SUT")
    p.add_argument("fsm")
    p.set_defaults(func=cmd_serve_machine)

    p = sub.add_parser("mutate", help="mutation analysis of a suite")
    p.add_argument("target")
    p.add_argument("--suite", required=True)
    p.add_argument("--ops", help="comma-separated operator names")
    p.add_argument("--limit", type=mutant_count)
    p.add_argument("--out")
    p.add_argument("--csv")
    p.set_defaults(func=cmd_mutate)

    p = sub.add_parser("render", help="DOT export of an SFSM or FSM")
    p.add_argument("model")
    p.add_argument("--out")
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("pipeline", help="full pipeline, one artefact directory")
    p.add_argument("behaviour")
    p.add_argument("--sut", help="SUT command line (default: bundled reference)")
    p.add_argument("--m", type=int)
    p.add_argument("--out", help="artefact directory")
    p.set_defaults(func=cmd_pipeline)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args, load_config())
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
