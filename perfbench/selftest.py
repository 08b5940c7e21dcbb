"""Self-test of the benchmark's tracing.

    python3 perfbench/selftest.py [--seed N]

Runs every workload with ``--trace 1`` and checks two things:

- the run is correct, which includes that the traced repetition wrote
  artefacts byte-identical to the untraced one;
- every layer records nonzero work on the workload where it should do most
  of it.  Modules import one another's functions by name, so a wrapper that
  missed an alias would show up here as a zero.

Exits 0 when every check passes.  Takes about a minute on two cores.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"

NONZERO = {
    "deep": [
        "testgen.h_method_s", "testgen.check_h_completeness_s", "testgen.prefix_traces",
        "fsm.run_calls", "fsm.distinguishing_trace_calls", "fsm.is_minimal_s",
        "encoding.canonical_dumps_s", "encoding.fingerprint_s",
        "encoding.fingerprint_calls", "encoding.fingerprint_bytes",
        "harness.spawn_s", "harness.sessions", "harness.round_trips",
        "harness.round_trip_us.p50", "harness.round_trip_us.p99", "harness.run_suite_s",
        "cli.write_artifact_s", "cli.read_artifact_s", "cli.self_s",
    ],
    "wide": [
        "supervisor.to_guarded_actions_s", "supervisor.to_test_reference_s",
        "supervisor.check_hypotheses_s", "supervisor.load_behavior_s",
        "guards.enumerate_calls", "guards.valuations_enumerated", "guards.satisfiable_s",
        "sfsm.check_determinism_s", "sfsm.input_classes_s", "sfsm.abstract_to_fsm_s",
        "sfsm.concretize_suite_s", "sfsm.export_dot_s", "sfsm.classes",
    ],
    "qualify": [
        "mutation.program_equivalent_s", "mutation.classify_s",
        "mutation.generate_mutants_s", "mutation.killed", "mutation.kill_ratio",
        "harness.spawn_s", "harness.sessions", "harness.round_trips",
        "guards.enumerate_calls", "guards.valuations_enumerated",
    ],
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    failures = []
    for workload, names in NONZERO.items():
        done = subprocess.run(
            [sys.executable, str(RUN), "--workload", workload, "--seed", str(args.seed),
             "--seconds", "1", "--trace", "1"],
            capture_output=True, text=True, timeout=200)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            failures.append(f"{workload}: run exited {done.returncode}: {done.stderr[-2000:]}")
            continue
        result = json.loads(lines[-1])
        if not result["correct"]:
            failures.append(f"{workload}: traced run not correct: {done.stderr[-2000:]}")
        metrics = result["metrics"]
        zero = [name for name in names if not metrics.get(name, {}).get("value")]
        if zero:
            failures.append(f"{workload}: zero per-layer metrics {zero}")
        print(f"{workload}: {len(metrics)} per-layer metrics, "
              f"trace.overhead_s {metrics.get('trace.overhead_s', {}).get('value')}")
    for failure in failures:
        print(f"FAIL {failure}")
    print("selftest:", "FAIL" if failures else "PASS")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
