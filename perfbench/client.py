"""Benchmark client: one fresh interpreter that drives ``suptest`` through
its public functions, either to set a workload up or to measure it.

    python3 perfbench/client.py setup   --workload W --seed N --dir D
    python3 perfbench/client.py measure --workload W --seed N --dir D \
        --seconds S --trace 0|1 --deadline T

``run.py`` starts it with ``PYTHONPATH`` pointing at the checkout's ``src``;
every SUT it or the pipeline spawns inherits that environment.  The measure
loop is closed: the next call starts only when the previous one returned,
and at most one SUT child runs at a time.  Its result is the last line of
standard output, as JSON.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from importlib.resources import files
from pathlib import Path

from suptest import cli, harness, mutation, sfsm, supervisor, testgen
from suptest.encoding import canonical_dumps

BENCH = Path(__file__).resolve().parent
EXPECTED = BENCH / "expected.json"
WORKLOADS = ("deep", "wide", "qualify")

# Upper end of the monitored int sorts (None keeps the bundled [0,1]).
WIDTH = {"deep": None, "wide": 19, "qualify": 9}
POLICY = {"deep": sfsm.POLICY_ERROR, "wide": sfsm.POLICY_SELFLOOP,
          "qualify": sfsm.POLICY_SELFLOOP}
# deep runs the welding cell without its robot-welder hazard: the factor
# HRW and the monitored variable hrw_det are dropped, leaving 5 states and
# 8 input classes.  The whole cell at m = n+1 takes 25-45 s a pipeline on a
# shared host with two virtual CPUs, one sample a run, and ten such runs
# spread by more than the metric's bound; the sub-cell takes about 1 s, so a
# run repeats it some 30 times.
DROPPED_HAZARD = {"deep": ("HRW", "hrw_det")}
# deep is the fault-domain bound m = n+1 (5 states); wide runs at m = n.
PIPELINE_M = {"deep": 6, "wide": None}
# Top-level keys of a JSON artefact that hold fingerprints.  The pinned
# digests leave them out, so a declared change of the fingerprint format
# does not trip them.
FINGERPRINT_KEYS = ("derivedFrom", "referenceFingerprint")


class Stall(BaseException):
    """Raised by the wall-ceiling alarm.  A BaseException, so the ``except
    Exception`` in ``cli.main`` does not turn it into an exit code."""


def _alarm(signum, frame):
    raise Stall()


@contextlib.contextmanager
def ceiling(seconds: float):
    """Abort the block with Stall once `seconds` of wall time have passed."""
    if seconds <= 0:
        raise Stall()
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def serve_command(program_path: Path) -> list[str]:
    return [sys.executable, "-m", "suptest", "serve-reference", str(program_path)]


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------

def drop_hazard(behaviour: dict, factor: str, detector: str) -> dict:
    """The behaviour without one hazard of the welding cell: drop every
    transition that leaves the factor's idle value "0" or needs the detector
    at 1, the detector's ``= 0`` conjuncts, the factor and the detector."""
    transitions = []
    for t in behaviour["transitions"]:
        conjuncts = t["guard"].split(" and ")
        if (t["source"][factor] != "0" or t["target"][factor] != "0"
                or f"{detector} = 1" in conjuncts):
            continue
        transitions.append({
            **t,
            "guard": " and ".join(c for c in conjuncts if c != f"{detector} = 0"),
            "source": {k: v for k, v in t["source"].items() if k != factor},
            "target": {k: v for k, v in t["target"].items() if k != factor},
        })
    return {
        **behaviour,
        "initial": {k: v for k, v in behaviour["initial"].items() if k != factor},
        "transitions": transitions,
        "vars": [v for v in behaviour["vars"] if v["name"] not in (factor, detector)],
    }


def setup(workload: str, d: Path) -> None:
    """Write the workload's inputs into `d`; for qualify also build the
    program, the reference and the concrete m = n suite."""
    d.mkdir(parents=True, exist_ok=True)
    behaviour = json.loads(
        files("suptest").joinpath("data/welding-cell.cb").read_text(encoding="utf-8"))
    if WIDTH[workload] is not None:
        for var in behaviour["vars"]:
            if var["kind"] == "monitored":
                var["sort"] = {"int": [0, WIDTH[workload]]}
    if workload in DROPPED_HAZARD:
        behaviour = drop_hazard(behaviour, *DROPPED_HAZARD[workload])
    (d / "behaviour.cb").write_text(canonical_dumps(behaviour), encoding="utf-8")
    (d / "config.json").write_text(canonical_dumps({"policy": POLICY[workload]}),
                                   encoding="utf-8")
    if workload != "qualify":
        return
    policy = POLICY[workload]
    b = supervisor.load_behavior(d / "behaviour.cb")
    program = supervisor.to_guarded_actions(b, policy)
    reference = supervisor.to_test_reference(b, policy)
    machine, amap = sfsm.abstract_to_fsm(reference, policy)
    suite = sfsm.concretize_suite(testgen.h_method(machine, len(machine.states)),
                                  sfsm.input_classes(reference), amap)
    cli.write_artifact(d / "program.gap", program.to_obj())
    cli.write_artifact(d / "suite-concrete.json", suite.to_obj())


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------

def artefact_digest(path: Path) -> str:
    """SHA-256 of an artefact; of a JSON one without its fingerprint keys."""
    data = path.read_bytes()
    if path.suffix != ".dot":
        doc = json.loads(data)
        for key in FINGERPRINT_KEYS:
            doc.pop(key, None)
        data = canonical_dumps(doc).encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def check_artefacts(workload: str, d: Path, names: list[str] | None = None) -> list[str]:
    """Compare the digests of the artefacts `names` in `d` (by default every
    file there and every pinned name) with those pinned in expected.json."""
    pinned = json.loads(EXPECTED.read_text(encoding="utf-8"))[workload]
    if names is None:
        names = sorted(set(pinned) | {p.name for p in d.iterdir() if p.is_file()})
    problems = []
    for name in names:
        digest = artefact_digest(d / name) if (d / name).is_file() else "missing"
        if digest != pinned.get(name):
            problems.append(f"{name}: digest {digest} != pinned {pinned.get(name)}")
    return problems


def file_bytes(d: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(d.iterdir()) if p.is_file()}


def first_failing(report) -> int | None:
    return next((v.case_index for v in report.verdicts if v.status != harness.PASS), None)


def suite_size(suite) -> tuple[int, int]:
    return len(suite.cases), sum(len(c.inputs) for c in suite.cases)


# ---------------------------------------------------------------------------
# Workloads: run() is the timed operation; check() returns the operations it
# attempted, how many of them failed, and what failed
# ---------------------------------------------------------------------------

class PipelineWorkload:
    """deep / wide: one ``cli.main(["pipeline", ...])`` call per repetition."""

    def __init__(self, workload: str, d: Path):
        self.workload = workload
        self.argv = ["pipeline", str(d / "behaviour.cb")]
        if PIPELINE_M[workload] is not None:
            self.argv += ["--m", str(PIPELINE_M[workload])]

    def run(self, out: Path) -> int:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            return cli.main(self.argv + ["--out", str(out)])

    def check(self, out: Path, rc: int) -> tuple[int, int, list[str]]:
        if rc != 0:
            return 1, 1, [f"pipeline exited {rc}"]
        problems = []
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        if not report["completePass"]:
            problems.append("report.json has no complete pass")
        program = cli.load_program(out / "program.gap")
        suite = cli.load_suite(out / "suite-concrete.json")
        offline = harness.run_suite_offline(program, suite)
        if json.loads(json.dumps([v.to_obj() for v in offline.verdicts])) != report["verdicts"]:
            problems.append("harness verdicts differ from run_suite_offline")
        problems += check_artefacts(self.workload, out)
        cases, symbols = suite_size(suite)
        self.sizes = {"suite_cases": cases, "suite_symbols": symbols,
                      "artefact_bytes": sum(p.stat().st_size for p in out.iterdir())}
        return 1, int(bool(problems)), problems


def sample_mutants(program, seed: int) -> list:
    """One mutant per action of `program`, drawn with `seed` from the mutants
    ``mutation.generate_mutants`` makes of that action.

    A mutant's classification cost depends mostly on the action it mutates
    (0.3-0.8 s on average per action).  From the classification times of
    all 181 mutants of the qualify program, the cost of a 16-mutant sample
    drawn uniformly, as ``generate_mutants(limit=16, seed=...)`` draws it,
    spreads by 15 % (interquartile range over median) across ten seeds; one
    mutant per action brings that to 9 %.
    """
    by_action: dict[int, list] = {}
    for mu in mutation.generate_mutants(program):
        action = next(i for i, (a, b) in enumerate(zip(program.actions, mu.target.actions))
                      if a != b)
        by_action.setdefault(action, []).append(mu)
    rng = random.Random(seed)
    return [rng.choice(by_action[action]) for action in sorted(by_action)]


class QualifyWorkload:
    """qualify: classify a seeded mutant sample in harness mode, one fresh
    SUT per mutant, against the concrete m = n suite built in set-up."""

    def __init__(self, workload: str, d: Path, seed: int):
        self.seed = seed
        self.program = cli.load_program(d / "program.gap")
        self.suite = cli.load_suite(d / "suite-concrete.json")
        self.setup_problems = check_artefacts(workload, d, ["program.gap", "suite-concrete.json"])
        self.outcomes: list = []

    def run(self, out: Path) -> None:
        out.mkdir(parents=True, exist_ok=True)

        def sut_command(mu):
            path = out / f"{mu.id}.gap"
            path.write_text(canonical_dumps(mu.target.to_obj()), encoding="utf-8")
            return serve_command(path)

        self.outcomes = []
        for mu in sample_mutants(self.program, self.seed):
            self.outcomes.append((mu, mutation.classify(
                self.program, self.suite, mu, via="harness", sut_command=sut_command)))
        report = mutation.mutation_report([o for _, o in self.outcomes])
        cli.write_artifact(out / "mutation.json", report.to_obj())

    def check(self, out: Path, rc) -> tuple[int, int, list[str]]:
        problems = list(self.setup_problems)
        failed = 0
        for mu, outcome in self.outcomes:
            known = len(problems)
            offline = first_failing(harness.run_suite_offline(mu.target, self.suite))
            if outcome.status == mutation.KILLED:
                if offline != outcome.first_failing_case:
                    problems.append(f"{mu.id}: harness fails case {outcome.first_failing_case}, "
                                    f"offline run fails case {offline}")
            elif outcome.status == mutation.EQUIVALENT:
                if offline is not None:
                    problems.append(f"{mu.id}: equivalent but offline run fails case {offline}")
            else:
                problems.append(f"{mu.id}: {outcome.status} {outcome.detail or ''}".rstrip())
            failed += len(problems) > known
        cases, symbols = suite_size(self.suite)
        self.sizes = {"suite_cases": cases, "suite_symbols": symbols,
                      "artefact_bytes": sum(p.stat().st_size for p in out.iterdir())}
        return len(self.outcomes), failed, problems


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------

def preflight(d: Path) -> None:
    """One RESET/READY round-trip with a SUT launched the way every run
    launches it; stops the run with the cause if it fails."""
    b = supervisor.load_behavior(files("suptest").joinpath("data/welding-cell.cb"))
    path = d / "preflight.gap"
    cli.write_artifact(path, supervisor.to_guarded_actions(b).to_obj())
    try:
        done = subprocess.run(serve_command(path), input="RESET\n", capture_output=True,
                              text=True, timeout=30)
    except subprocess.TimeoutExpired:
        sys.exit("preflight: SUT gave no answer to RESET within 30 s")
    if done.stdout.splitlines()[:1] != ["READY"]:
        sys.exit(f"preflight: SUT exited {done.returncode} without READY; "
                 f"stderr: {done.stderr.strip()[-2000:]}")


def measure(args) -> dict:
    from tracing import PER_LAYER, Tracer

    d = Path(args.dir)
    os.environ[cli.CONFIG_ENV] = str(d / "config.json")
    preflight(d)
    if args.workload == "qualify":
        work = QualifyWorkload(args.workload, d, args.seed)
    else:
        work = PipelineWorkload(args.workload, d)

    deadline = time.monotonic() + args.deadline
    started = time.monotonic()
    walls: list[float] = []
    attempted = failed = 0
    problems: list[str] = []
    reference_files = None
    tracer = None
    peak_rss_mb = 0.0
    rep = 0
    while True:
        out = d / f"rep{rep}"
        traced = args.trace and rep == 1
        if traced:
            tracer = Tracer(op=rep)
            tracer.install()
        t0 = time.perf_counter()
        try:
            with ceiling(deadline - time.monotonic()):
                rc = work.run(out)
            if rep == 0:  # the operation's own peak, before any check runs
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        except Stall:
            attempted += 1
            failed += 1
            problems.append(f"repetition {rep} hit the wall ceiling of {args.deadline:.0f} s")
            break
        finally:
            wall = time.perf_counter() - t0
            if tracer is not None:
                tracer.uninstall()
        n, bad, rep_problems = work.check(out, rc)
        files_now = file_bytes(out)
        if reference_files is None:
            reference_files = files_now
        elif files_now != reference_files:
            bad = max(bad, 1)
            rep_problems.append(f"artefacts of repetition {rep}{' (traced)' if traced else ''} "
                                "differ from repetition 0")
        attempted += n
        failed += bad
        problems += rep_problems
        if traced:
            break
        walls.append(wall)
        rep += 1
        if not args.trace and time.monotonic() - started >= args.seconds:
            break

    result = {"attempted": attempted, "failed": failed, "problems": problems,
              "wall_s": walls,
              "peak_rss_mb": peak_rss_mb,
              **getattr(work, "sizes", {})}
    if tracer is not None and not problems:
        layers = tracer.metrics()
        layers["trace.overhead_s"] = wall - statistics.median(walls)
        result["per_layer"] = {name: {"value": value, "unit": PER_LAYER[name]}
                               for name, value in layers.items()}
        spans_dir = BENCH / "_work" / "traces"
        spans_dir.mkdir(parents=True, exist_ok=True)
        (spans_dir / f"{args.workload}-seed{args.seed}.json").write_text(
            json.dumps({"spans": tracer.spans, "metrics": layers}, indent=1))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("mode", choices=("setup", "measure"))
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--deadline", type=float, default=150.0)
    args = parser.parse_args(argv)
    if args.mode == "setup":
        setup(args.workload, Path(args.dir))
        return 0
    print(json.dumps(measure(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
