"""Command-line pipeline: behaviour -> program/reference -> suites -> verdicts.

Each stage is one function that takes in-memory inputs, writes its
artefacts, prints its summary line and returns its result; a subcommand
loads that stage's inputs from files, and `pipeline` chains the stages.
Every artefact is written in the compact canonical encoding and embeds, as
`derivedFrom`, the fingerprints of the artefacts it was derived from, so a
pipeline run is reproducible byte for byte.  This module alone writes and
checks those links: a suite is checked or mutated only against the FSM it
names, and artefacts that name different SFSMs or FSMs are not combined.

`pipeline`'s default SUT is the `program.gap` it wrote, served in-line:
`harness.SutAdapter` reads the file into `program.reference_answerer` and
hands it the lines it would write to a pipe.  The public command
`python -m suptest serve-reference PROGRAM` answers with the same function
on its standard streams (`program.serve_program`), reached from `__main__`
without this module, and the `serve-reference` subcommand calls it too.
Each stage imports the modules it uses, so this module loads neither the
generator stack nor the client harness until a command needs them.

A failing command prints one `error: ...` line and exits 2; with
`SUPTEST_DEBUG=1` set it raises instead, showing the traceback
(`program.exit_code`, shared with the SUT's route).
"""

from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Iterator
from pathlib import Path
from typing import TYPE_CHECKING

from .encoding import ArtifactError, encode_compact, read_artifact, value_at
from .program import (
    DEFAULT_STEP_TIMEOUT,
    POLICIES,
    POLICY_ERROR,
    GuardedActionProgram,
    exit_code,
    load_program,  # beside the other load_* functions; perfbench reads cli.load_program
    serve_program,
)

if TYPE_CHECKING:
    from . import harness, sfsm, supervisor, testgen
    from .fsm import MealyMachine
    from .sfsm import Sfsm

CONFIG_ENV = "SUPTEST_CONFIG"

DEFAULTS = {
    "policy": POLICY_ERROR,
    "m_extra": 0,  # mBound = n + m_extra unless --m given
    "step_timeout": DEFAULT_STEP_TIMEOUT,
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
    value_at(config, "policy", POLICIES)
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

# The writer encodes and writes an artefact in batches of about this many
# characters, so no copy of a whole large artefact is held.
WRITE_BATCH = 1 << 16


def write_artifact(path, payload: dict, inputs: dict | None = None) -> str:
    """Write `payload`, with `inputs` as its `derivedFrom`, and return the
    payload's fingerprint, taken from the same encoding.

    The file is the compact canonical encoding of that document.  It is
    written beside `path` and moved onto it once complete, so a write that
    fails leaves no file at `path`.
    """
    path = Path(path)
    part = path.with_name(f".{path.name}.part")
    try:
        with open(part, "wb") as fh:
            digest = _stream_artifact(payload, inputs, fh.write)
        os.replace(part, path)
    except BaseException:
        part.unlink(missing_ok=True)
        raise
    return digest


def artifact_fingerprint(payload: dict) -> str:
    """The fingerprint `write_artifact` returns for `payload`, from the same
    encoding, with no file written."""
    return _stream_artifact(payload, None, None)


def _stream_artifact(payload: dict, inputs: dict | None, write) -> str:
    """Encode the artefact of `payload` and `inputs` in batches, hand each
    batch to `write` (unless None) and return the blake2b-64 of the
    payload's encoding: the same bytes without the `derivedFrom` member."""
    import hashlib  # here, not above: no SUT route fingerprints

    digest = hashlib.blake2b(digest_size=8)
    batch: list[str] = []
    size, batch_hashed = 0, True

    def flush() -> None:
        data = "".join(batch).encode("utf-8")
        if write is not None:
            write(data)
        if batch_hashed:
            digest.update(data)
        batch.clear()

    for text, hashed in _artifact_parts(payload, inputs):
        if hashed is not batch_hashed or size >= WRITE_BATCH:
            flush()
            size, batch_hashed = 0, hashed
        batch.append(text)
        size += len(text)
    flush()
    return digest.hexdigest()


def _artifact_parts(payload: dict, inputs: dict | None) -> Iterator[tuple[str, bool]]:
    """The artefact's text in file order, in parts, each with whether it
    belongs to the payload's encoding.  A member whose value is an iterator
    is given by it as the parts of its encoding (`TestSuite.to_artifact`)."""
    members = [(key, value, True) for key, value in payload.items()]
    if inputs:
        members.append(("derivedFrom", inputs, False))
    members.sort(key=lambda member: member[0])
    yield "{", True
    hashed_before = False
    for i, (key, value, hashed) in enumerate(members):
        if i:  # the payload's own encoding has no comma before its first member
            yield ",", hashed and hashed_before
        if isinstance(value, Iterator):
            yield encode_compact(key) + ":", hashed
            for text in value:
                yield text, hashed
        else:
            yield encode_compact({key: value})[1:-1], hashed
        hashed_before |= hashed
    yield "}\n", True


def load_machine(path) -> MealyMachine:
    from .fsm import MealyMachine
    return read_artifact(path, MealyMachine.from_obj)


def load_sfsm(path) -> Sfsm:
    from .sfsm import Sfsm
    return read_artifact(path, Sfsm.from_obj)


def load_suite(path) -> testgen.TestSuite:
    from .testgen import TestSuite
    return read_artifact(path, TestSuite.from_obj)


def with_links(from_obj):
    """`from_obj` that also returns the document's `derivedFrom`: the
    fingerprints of the artefacts it was derived from, by kind."""
    def read(doc):
        links = value_at(doc, "derivedFrom", dict, default={})
        return from_obj(doc), links
    return read


def load_suite_of(machine: MealyMachine, path) -> testgen.TestSuite:
    """The suite in `path`, refused unless it names `machine` as the FSM it
    was generated from."""
    from .testgen import TestSuite
    suite, links = read_artifact(path, with_links(TestSuite.from_obj))
    if "fsm" not in links:
        raise CliError(f"{path}: suite does not name the FSM it was generated from")
    if links["fsm"] != artifact_fingerprint(machine.to_obj()):
        raise CliError(f"{path}: suite was generated from a different reference machine")
    return suite


def by_key(key: str, if_present, otherwise):
    """A `from_obj` that reads a document holding `key` with `if_present`."""
    return lambda doc: (if_present if key in doc else otherwise)(doc)


# ---------------------------------------------------------------------------
# Stages
# ---------------------------------------------------------------------------

# A stage that writes an artefact returns its fingerprint too, and a stage
# that links to an input takes the input's fingerprint when its caller holds
# one (`pipeline`), so that no artefact is encoded twice.

def translate(behaviour_path, out: Path, config
              ) -> tuple[Sfsm, str, supervisor.HypothesisReport]:
    from . import supervisor
    behaviour = supervisor.load_behavior(behaviour_path)
    program = supervisor.to_guarded_actions(behaviour, config["policy"])
    reference = supervisor.to_test_reference(behaviour, config["policy"])
    report = supervisor.check_hypotheses(program, reference)
    for warning in behaviour.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    out.mkdir(parents=True, exist_ok=True)
    derived = {"behaviour": behaviour.fingerprint}
    write_artifact(out / "program.gap", program.to_obj(), derived)
    reference_fp = write_artifact(out / "reference.sfsm", reference.to_obj(), derived)
    print(report.summary())
    return reference, reference_fp, report


def classes(reference: Sfsm, path, reference_fp: str | None = None) -> sfsm.InputClassPartition:
    from . import sfsm
    partition = sfsm.input_classes(reference)
    write_artifact(path, partition.to_obj(),
                   {"sfsm": reference_fp or artifact_fingerprint(reference.to_obj())})
    print(f"{len(partition.classes)} input equivalence classes")
    return partition


def abstract(reference: Sfsm, out: Path, config, reference_fp: str | None = None
             ) -> tuple[MealyMachine, str, sfsm.AbstractionMap]:
    from . import sfsm
    machine, amap = sfsm.abstract_to_fsm(reference, config["policy"])
    out.mkdir(parents=True, exist_ok=True)
    reference_fp = reference_fp or artifact_fingerprint(reference.to_obj())
    machine_fp = write_artifact(out / "fsm.json", machine.to_obj(), {"sfsm": reference_fp})
    write_artifact(out / "abstraction.json", amap.to_obj(),
                   {"sfsm": reference_fp, "fsm": machine_fp})
    print(f"FSM: {len(machine.states)} states, {len(machine.inputs)} inputs, "
          f"{len(machine.outputs)} outputs")
    return machine, machine_fp, amap


def generate(machine: MealyMachine, method: str, m_bound, path, config,
             machine_fp: str | None = None) -> tuple[testgen.TestSuite, str]:
    """`m_bound` None means the state count plus the configured `m_extra`."""
    from . import testgen
    if m_bound is None:
        m_bound = len(machine.states) + config["m_extra"]
    derive = testgen.h_method if method == "h" else testgen.w_method
    suite = derive(machine, m_bound)
    suite_fp = write_artifact(path, suite.to_artifact(),
                              {"fsm": machine_fp or artifact_fingerprint(machine.to_obj())})
    stats = testgen.suite_stats(suite)
    print(f"{method}-suite: {stats['cases']} cases, "
          f"{stats['total_input_symbols']} input symbols, "
          f"max length {stats['max_length']}")
    return suite, suite_fp


def check_suite(machine: MealyMachine, suite: testgen.TestSuite) -> testgen.CompletenessReport:
    from . import testgen
    report = testgen.check_h_completeness(machine, suite.m_bound, suite)
    print(report.summary())
    return report


def concretize(suite: testgen.TestSuite, partition, amap, path,
               suite_fp: str | None = None) -> tuple[testgen.TestSuite, str]:
    from . import sfsm
    concrete = sfsm.concretize_suite(suite, partition, amap)
    concrete_fp = write_artifact(path, concrete.to_artifact(),
                                 {"suite": suite_fp or artifact_fingerprint(suite.to_artifact())})
    print(f"concretized {len(concrete.cases)} cases")
    return concrete, concrete_fp


def run(suite: testgen.TestSuite, sut_command: str | list[str] | None, path, config,
        suite_fp: str | None = None, program=None) -> harness.TestReport:
    """Run `suite` against the SUT `sut_command` or, without one, against
    the reference SUT of the program file `program`, served in-line."""
    from . import harness
    with harness.SutAdapter(sut_command, config["step_timeout"], program=program) as sut:
        report = harness.run_suite(sut, suite)
    if path:
        write_artifact(path, report.to_artifact(),
                       {"suite": suite_fp or artifact_fingerprint(suite.to_artifact())})
    print(report.summary())
    return report


def render(model: Sfsm | MealyMachine, path) -> None:
    from . import sfsm
    if isinstance(model, sfsm.Sfsm):
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
    _, _, report = translate(args.behaviour, Path(args.out or "."), config)
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
    from . import sfsm
    from .testgen import TestSuite
    partition, p_links = read_artifact(args.partition,
                                       with_links(sfsm.InputClassPartition.from_obj))
    amap, a_links = read_artifact(args.abstraction, with_links(sfsm.AbstractionMap.from_obj))
    suite, s_links = read_artifact(args.suite, with_links(TestSuite.from_obj))
    # the partition and the map come from one SFSM, the suite and the map from one FSM
    for path, links, key, kind in ((args.partition, p_links, "sfsm", "SFSMs"),
                                   (args.suite, s_links, "fsm", "FSMs")):
        if key in links and key in a_links and links[key] != a_links[key]:
            raise CliError(f"{path} and {args.abstraction} come from different {kind}")
    try:
        concretize(suite, partition, amap, args.out or "suite-concrete.json")
    except sfsm.UnknownClassId as exc:
        raise CliError(f"{args.partition}: {exc}") from exc
    except sfsm.UnknownOutputLabel as exc:
        raise CliError(f"{args.abstraction}: {exc}") from exc
    return 0


def cmd_check_suite(args, config) -> int:
    from .fsm import FsmError
    machine = load_machine(args.fsm)
    try:  # the checker refuses an input outside the machine's alphabet
        return 0 if check_suite(machine, load_suite_of(machine, args.suite)).ok else 1
    except FsmError as exc:
        raise CliError(f"{args.suite}: {exc}") from exc


def cmd_run(args, config) -> int:
    report = run(load_suite(args.suite), args.sut, args.out, config)
    return 0 if report.complete_pass else 1


def cmd_serve_machine(args, config) -> int:
    from .program import serve_machine
    serve_machine(load_machine(args.fsm))
    return 0


def check_inputs(suite, path, check) -> None:
    """Refuse the suite read from `path` unless `check` accepts each of its
    inputs, raising neither ValueError nor SortError, naming where the first
    one it refuses is used.  The suite reader shares equal inputs, so each
    distinct input is checked once."""
    from .guards import SortError
    checked = set()
    for i, case in enumerate(suite.cases):
        for j, x in enumerate(case.inputs):
            if id(x) not in checked:
                try:
                    check(x)
                except (ValueError, SortError) as exc:
                    raise CliError(f"{path}: cases[{i}].inputs[{j}]: {exc}") from exc
                checked.add(id(x))


def cmd_mutate(args, config) -> int:
    from . import mutation
    from .fsm import MealyMachine
    from .guards import check_valuation
    target = read_artifact(args.target, by_key(
        "actions", GuardedActionProgram.from_obj, MealyMachine.from_obj))
    if isinstance(target, MealyMachine):
        suite = load_suite_of(target, args.suite)
        alphabet = set(target.inputs)

        def check(x):
            if not isinstance(x, str) or x not in alphabet:
                raise ValueError(f"input symbol {x!r} not in alphabet")
    else:  # a concrete suite's inputs, as the reference SUT reads them
        suite = load_suite(args.suite)

        def check(x):
            check_valuation(x, target.input_vars)
    check_inputs(suite, args.suite, check)
    operators = args.ops.split(",") if args.ops else None
    mutants = mutation.generate_mutants(target, operators, args.limit,
                                        config["mutation_seed"])
    outcomes = [mutation.classify(target, suite, m, via="oracle") for m in mutants]
    report = mutation.mutation_report(outcomes)
    if args.out:
        write_artifact(args.out, report.to_obj(),
                       {"suite": artifact_fingerprint(suite.to_artifact())})
    if args.csv:
        Path(args.csv).write_text(report.to_csv(), encoding="utf-8")
    print(report.summary())
    return 0 if report.counts[mutation.ESCAPED] == 0 and report.counts["ERROR"] == 0 else 1


def cmd_render(args, config) -> int:
    from .fsm import MealyMachine
    from .sfsm import Sfsm
    model = read_artifact(args.model, by_key("input_vars", Sfsm.from_obj, MealyMachine.from_obj))
    render(model, args.out)
    return 0


def cmd_pipeline(args, config) -> int:
    out = Path(args.out or "artefacts")
    reference, reference_fp, hypotheses = translate(args.behaviour, out, config)
    if not hypotheses.ok:
        return 1
    partition = classes(reference, out / "partition.json", reference_fp)
    machine, machine_fp, amap = abstract(reference, out, config, reference_fp)
    suite, suite_fp = generate(machine, "h", args.m, out / "suite-h.json", config, machine_fp)
    if not check_suite(machine, suite).ok:
        return 1
    concrete, concrete_fp = concretize(suite, partition, amap, out / "suite-concrete.json",
                                       suite_fp)
    render(reference, out / "reference.dot")
    render(machine, out / "fsm.dot")
    report = run(concrete, args.sut, out / "report.json", config, concrete_fp,
                 program=out / "program.gap")
    return 0 if report.complete_pass else 1


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def arg(*names, **options) -> tuple:
    """One `add_argument` call of a subcommand, as its arguments."""
    return names, options


# Each subcommand: its help, its handler and its arguments, in the order
# `suptest -h` lists them.  `serve-reference` has no handler: `main` serves
# the program without reading a configuration.
COMMANDS = {
    "translate": ("behaviour -> guarded-action program + SFSM", cmd_translate, [
        arg("behaviour"), arg("--out", help="output directory")]),
    "classes": ("input equivalence classes of an SFSM", cmd_classes, [
        arg("sfsm"), arg("--out")]),
    "abstract": ("SFSM -> FSM + abstraction map", cmd_abstract, [
        arg("sfsm"), arg("--out", help="output directory")]),
    "generate": ("derive a complete abstract test suite", cmd_generate, [
        arg("fsm"), arg("--method", choices=("h", "w"), default="h"),
        arg("--m", type=int, help="assumed max SUT state count"), arg("--out")]),
    "concretize": ("refine an abstract suite to valuations", cmd_concretize, [
        arg("suite"), arg("partition"), arg("abstraction"), arg("--out")]),
    "check-suite": ("orthogonal H-completeness check", cmd_check_suite, [
        arg("fsm"), arg("suite")]),
    "run": ("execute a concrete suite against a SUT", cmd_run, [
        arg("suite"), arg("--sut", required=True, help="SUT command line"), arg("--out")]),
    "serve-reference": ("run a program as reference SUT", None, [arg("program")]),
    "serve-machine": ("run an FSM as a symbolic SUT", cmd_serve_machine, [arg("fsm")]),
    "mutate": ("mutation analysis of a suite", cmd_mutate, [
        arg("target"), arg("--suite", required=True),
        arg("--ops", help="comma-separated operator names"),
        arg("--limit", type=mutant_count), arg("--out"), arg("--csv")]),
    "render": ("DOT export of an SFSM or FSM", cmd_render, [arg("model"), arg("--out")]),
    "pipeline": ("full pipeline, one artefact directory", cmd_pipeline, [
        arg("behaviour"), arg("--sut", help="SUT command line (default: bundled reference)"),
        arg("--m", type=int), arg("--out", help="artefact directory")]),
}


def build_parser(names=COMMANDS) -> argparse.ArgumentParser:
    """The parser of the subcommands `names`, all of them by default.

    A parser of fewer names lists all of them in its usage line, as the
    whole parser does, so it refuses an argument with the same message.
    """
    parser = argparse.ArgumentParser(
        prog="suptest",
        description="Conformance testing toolkit for supervisory safety controllers",
    )
    every = "{" + ",".join(COMMANDS) + "}"  # as the whole parser names its choices
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar=every if len(names) < len(COMMANDS) else None)
    for name in names:
        text, handler, arguments = COMMANDS[name]
        p = sub.add_parser(name, help=text)
        for flags, options in arguments:
            p.add_argument(*flags, **options)
        if handler is not None:
            p.set_defaults(func=handler)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # a named subcommand needs only its own parser; anything else (help, no
    # or an unknown command, an option first) is answered by the whole one
    names = argv[:1] if argv and argv[0] in COMMANDS else COMMANDS
    args = build_parser(names).parse_args(argv)
    if args.command == "serve-reference":  # takes no setting, as on `__main__`'s route
        return exit_code(serve_program, args.program)
    return exit_code(lambda: args.func(args, load_config()))


if __name__ == "__main__":
    sys.exit(main())
