"""Smoke check of the benchmark: every workload at tiny size, untraced and traced.

    python3 perfbench/smoke.py

Run from the root of a checkout.  For each workload and trace mode it runs
``run.py --seconds 1`` and asserts that

* the result line names every metric of ``BENCHMARK.json`` for that mode,
  each with its declared unit, and nothing else;
* nothing failed: ``correct`` is true, ``failed`` is 0 and ``ok_frac`` is 1;
* service-2c returns, for every instance on both connections, the makespan
  and ``nodes_bounded`` exact-small's serial solve of the same seed returns
  (service sessions are bit-identical to the serial engine).

Exits non-zero with the first broken assertion; takes about a minute.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("exact-small", "gpu-100x20", "service-2c")
SEED = 3


def run(workload: str, trace: int) -> dict:
    """One tiny run; its output lines keyed by their single top-level key."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert done.returncode == 0, f"{command} exited {done.returncode}:\n{done.stderr}"
    lines = [json.loads(line) for line in done.stdout.splitlines()]
    out = {key: value for line in lines[:-1] for key, value in line.items()}
    out["result"] = lines[-1]
    return out


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    items = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            out = run(workload, trace)
            result = out["result"]
            printed = {name: m["unit"] for name, m in result["metrics"].items()}
            assert printed == declared[trace], (workload, trace, printed)
            assert result["correct"] and result["failed"] == 0, (workload, trace, result)
            assert result["attempted"] >= 1, (workload, trace, result)
            if trace == 0:
                assert result["metrics"]["ok_frac"]["value"] == 1.0, (workload, result)
                assert out["env"]["seed"] == SEED, out["env"]
            items[workload] = out["items"]
            print(f"ok {workload} trace={trace}: {len(result['metrics'])} metrics, "
                  f"{result['attempted']} checked")
    serial = {key: (makespan, bounded) for key, makespan, bounded, _ in items["exact-small"]}
    served = items["service-2c"]
    assert len(served) == 2 * len(serial), (len(served), len(serial))
    for key, makespan, bounded, _ in served:
        assert serial[key] == (makespan, bounded), (key, serial[key], (makespan, bounded))
    print(f"ok service-2c matches exact-small on all {len(serial)} instances, both clients")
    return 0


if __name__ == "__main__":
    sys.exit(main())
