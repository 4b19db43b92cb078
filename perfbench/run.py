"""Benchmark of the flow-shop branch-and-bound engines and the solve service.

    python3 perfbench/run.py --workload exact-small --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  The workloads (``worker.py`` has their
definitions and why each was chosen):

* ``exact-small`` - one closed stream of capped exact solves with the
  serial engine's defaults: the single-step loop, where the frontier
  dominates;
* ``gpu-100x20`` - one budgeted GPU-engine solve on the paper's 100x20
  Taillard class: the batch (offload) shape, where the kernel dominates;
* ``service-2c`` - ``repro serve --max-active 2`` driven by two TCP clients
  sending exact-small's instances in lockstep: the whole service path.

Each run sets the workload up ``SETUP_RUNS`` times in fresh processes and
reports the median set-up time, then times the workload's fixed work once
in the last of them and checks every result.  ``--seconds`` sizes that
work (about that many seconds on a 2-core Xeon); it is not a time limit.
``--trace 1`` skips the set-up repeats, runs the work untraced and then
traced, and prints the per-layer metrics, the tracing overhead and the
accounting check instead.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and the metrics named in ``BENCHMARK.json``;
the lines before it record the environment, the deterministic counts
(which change only if the explored tree changes) and the raw samples.
The process exits non-zero, without that line, when the checkout holds
no program to measure or a benchmark process dies.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Set-ups per run; their median is ``setup_s``.
SETUP_RUNS = 5
#: Whole-run deadline, below the 180 s every run must end within.
DEADLINE_S = 170.0
#: One OpenBLAS thread in every measured process.  On the single-step loop
#: a second BLAS thread keeps the other core busy for nothing (CPU/wall
#: 1.6, same wall); on gpu-100x20 two threads are faster but spread more
#: (4.9-5.8 s against 6.4-6.6 s for the search); and the service-2c
#: server is pinned to one core, where a second thread has nowhere to run.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
#: Accounting margin of the traced run: the layers' self times on the
#: search threads must cover at least this share of (threads x wall).  In
#: one process only the benchmark's own loop is left over; in the service
#: the sessions also wait between requests (admission, the wire, the
#: client's turn-around), which no session-thread span covers.
ACCOUNTED_MIN = {"exact-small": 0.98, "gpu-100x20": 0.98, "service-2c": 0.90}


class BenchmarkError(RuntimeError):
    """A benchmark process failed; the run has no result."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(BLAS_ENV)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def start_worker(args, deadline: float, setup_only: bool) -> tuple[subprocess.Popen, float]:
    """Start one worker; return it and its set-up time (start to READY)."""
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
    ]
    if setup_only:
        command.append("--setup-only")
    if args.trace:
        command.append("--trace")
    started = time.perf_counter()
    # its own process group, so that stop() also reaches the server a
    # service worker starts
    worker = subprocess.Popen(command, stdout=subprocess.PIPE, text=True, env=child_env(),
                              cwd=ROOT, start_new_session=True)
    ready = select.select([worker.stdout], [], [], max(deadline - time.monotonic(), 0.0))[0]
    line = worker.stdout.readline() if ready else ""
    setup_s = time.perf_counter() - started
    if line.strip() != "READY":
        stop(worker)
        raise BenchmarkError(f"worker set-up failed (read {line!r})")
    return worker, setup_s


def stop(worker: subprocess.Popen) -> None:
    """Kill the worker's process group and wait until every member is gone."""
    worker.kill()
    worker.wait()
    worker.stdout.close()
    reap(worker)


def reap(worker: subprocess.Popen) -> None:
    """Kill what is left of an exited worker's process group, and wait for it."""
    for _ in range(100):
        try:
            os.killpg(worker.pid, signal.SIGKILL)
        except ProcessLookupError:
            return
        time.sleep(0.05)
    raise BenchmarkError("a benchmark process did not stop")


def finish(worker: subprocess.Popen, deadline: float) -> str:
    try:
        out, _ = worker.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        stop(worker)
        raise BenchmarkError("worker ran past the deadline") from None
    reap(worker)
    if worker.returncode != 0:
        raise BenchmarkError(f"worker exited with code {worker.returncode}")
    return out


def declared_metrics() -> tuple[dict[str, str], dict[str, str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("exact-small", "gpu-100x20", "service-2c"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    end_units, layer_units = declared_metrics()
    deadline = time.monotonic() + DEADLINE_S

    try:
        setups = []
        for _ in range(0 if args.trace else SETUP_RUNS - 1):
            probe, setup_s = start_worker(args, deadline, setup_only=True)
            finish(probe, deadline)
            setups.append(setup_s)
        worker, setup_s = start_worker(args, deadline, setup_only=False)
        setups.append(setup_s)
        result = json.loads(finish(worker, deadline).splitlines()[-1])
    except BenchmarkError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    failures = list(result["failures"])
    problems: list[str] = []
    attempted = result["attempted"]
    print(json.dumps({"env": result["env"]}))
    print(json.dumps({"counts": result["counts"]}))
    print(json.dumps({"items": result["items"]}))
    if args.trace:
        traced = result["traced"]
        failures += traced["failures"]
        attempted += result["attempted"]
        values = traced["metrics"]
        print(json.dumps({"overhead": {"untraced": result["metrics"],
                                       "traced": traced["end_to_end"]}}))
        accounted = values["trace.attributed_frac"]
        if accounted < ACCOUNTED_MIN[args.workload] or accounted > 1.0 + 1e-6:
            problems.append(
                f"accounting: layer self times cover {accounted:.3f} of the traced wall, "
                f"outside [{ACCOUNTED_MIN[args.workload]}, 1]"
            )
        units = layer_units
    else:
        values = dict(result["metrics"])
        values["setup_s"] = statistics.median(setups)
        print(json.dumps({"setup_samples_s": setups}))
        units = end_units
    for failure in failures + problems:
        print(f"FAILED: {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
