"""suptest benchmark: time to verdict and qualification cost.

    python3 perfbench/run.py --workload deep|wide|qualify --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout.  Workloads:

  deep     bundled welding cell without its robot-welder hazard (5 states,
           8 classes), ``pipeline --m 6`` (m = n+1); testgen-bound
  qualify  monitored sorts [0,9]; a seeded mutant sample classified with
           ``mutation.classify(via="harness")``, a fresh SUT per mutant
  wide     monitored int sorts widened to [0,19], ``complete-with-selfloop``
           policy, m = n; bound by enumeration in supervisor/guards/sfsm.
           Not in BENCHMARK.json: a pipeline takes 9-16 s, so a run holds
           two or three, and ten runs spread by 0.30 (interquartile range
           over median) in two of four sets, past the 0.25 bound.
           ``selftest.py`` still runs it to check the enumeration layers.

The run and everything it starts share one CPU.  Each run sets the workload
up several times in fresh interpreters, then starts one client process that
repeats the timed operation for ``--seconds`` (at least once).  setup_s is
the median of the set-ups, wall_s the mean of the repetitions.  On a shared
host with two virtual CPUs, a virtual CPU ran up to 1.8 times slower for
seconds to minutes at a time; over two sets of ten runs per workload the mean
of a run's repetitions spread less from run to run than their median or
their minimum.  With ``--trace 1`` the client instead runs the operation
once untraced and once traced, and reports per-layer metrics and
trace.overhead_s.

Human-readable detail goes to standard error; the last line of standard
output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CLIENT = BENCH / "client.py"
WORKLOADS = ("deep", "wide", "qualify")
# Set-ups per run; setup_s is their median.  A set-up of deep or wide takes
# about 0.15 s; one of qualify builds the concrete suite and takes about 3 s,
# so it repeats fewer times to keep all runs within the time budget.
SETUPS = {"deep": 15, "wide": 15, "qualify": 3}
# Every run, set-up included, ends within this many seconds; a client still
# busy then has stalled and is stopped.
RUN_LIMIT_S = 170.0

END_TO_END_UNITS = {m["name"]: m["unit"] for m in
                    json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def client_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.pop("SUPTEST_CONFIG", None)
    return env


def pin_to_one_cpu() -> None:
    """Keep this process and every process it starts on one CPU.

    A protocol round trip then is a context switch between client and SUT
    on that CPU, not the wake-up of an idle virtual CPU, whose latency
    follows the load of the host and made harness-bound runs unsteady.
    """
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except (AttributeError, OSError) as exc:
        log(f"perfbench: running unpinned, cannot set CPU affinity: {exc}")


def run_client(argv: list[str], env: dict, timeout: float) -> subprocess.CompletedProcess:
    """Run one client in its own session; on timeout kill it and its SUT."""
    proc = subprocess.Popen([sys.executable, str(CLIENT), *argv], env=env, cwd=ROOT,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return subprocess.CompletedProcess(proc.args, proc.returncode, out, err)


def fail(message: str) -> int:
    log(f"perfbench: {message}")
    return 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    started = time.monotonic()
    if not (SRC / "suptest" / "__init__.py").is_file():
        return fail(f"no suptest package under {SRC}; run from a checkout of the repository")
    work = BENCH / "_work" / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    env = client_env()
    pin_to_one_cpu()

    def remaining() -> float:
        return RUN_LIMIT_S - (time.monotonic() - started)

    setup_s = []
    for k in range(SETUPS[args.workload]):
        t0 = time.perf_counter()
        try:
            done = run_client(["setup", "--workload", args.workload, "--seed", str(args.seed),
                               "--dir", str(work / f"setup{k}")], env, remaining())
        except subprocess.TimeoutExpired:
            return fail("set-up did not finish within the run limit")
        setup_s.append(time.perf_counter() - t0)
        if done.returncode != 0:
            return fail(f"set-up exited {done.returncode}: {done.stderr.strip()[-2000:]}")

    deadline = remaining() - 10.0
    try:
        done = run_client(["measure", "--workload", args.workload, "--seed", str(args.seed),
                           "--dir", str(work / "setup0"), "--seconds", str(args.seconds),
                           "--trace", str(args.trace), "--deadline", str(deadline)],
                          env, remaining())
    except subprocess.TimeoutExpired:
        return fail("client did not stop at its wall ceiling and was killed")
    if done.returncode != 0:
        return fail(f"client exited {done.returncode}: {done.stderr.strip()[-2000:]}")
    result = json.loads(done.stdout.strip().splitlines()[-1])

    for problem in result["problems"]:
        log(f"FAILED: {problem}")
    correct = not result["problems"] and result["failed"] == 0
    if args.trace:
        metrics = result.get("per_layer", {})
    else:
        values = {"wall_s": statistics.fmean(result["wall_s"]) if result["wall_s"] else 0.0,
                  "setup_s": statistics.median(setup_s),
                  **{k: result.get(k, 0) for k in END_TO_END_UNITS
                     if k not in ("wall_s", "setup_s")}}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    log(f"{args.workload} seed {args.seed}: wall_s samples "
        f"{[round(w, 3) for w in result['wall_s']]}, setup_s samples "
        f"{[round(s, 3) for s in setup_s]}, {result['attempted']} attempted, "
        f"{result['failed']} failed")
    for name, metric in metrics.items():
        log(f"  {name:34s} {metric['value']:>14.6g} {metric['unit']}")
    if correct:
        shutil.rmtree(work, ignore_errors=True)
    else:
        log(f"work directory kept: {work}")
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
