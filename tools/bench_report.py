#!/usr/bin/env python3
"""Aggregate per-benchmark JSON artifacts into one trajectory report.

Each benchmark under ``benchmarks/`` that takes ``--json`` writes a
self-describing result file (``bench_frontier.json``,
``bench_frontier_index.json``, ...).  CI uploads them individually, which
is fine for archaeology but makes the perf trajectory across PRs hard to
eyeball.  This tool folds **all** per-bench JSONs into a single
top-level report (``BENCH_report.json`` in CI) keyed by bench name:

* every input's full result dict is preserved under ``benches.<name>``,
* the headline figures (any key matching ``speedup*`` or ``*_per_s``,
  plus declared floors) are copied up into ``headlines.<name>`` so the
  cross-PR diff is one small dict per bench,
* inputs that are missing are skipped with a warning (a bench that did
  not run should not fail the aggregation of the ones that did).

Usage (mirrors the CI bench-smoke job)::

    python tools/bench_report.py --output BENCH_report.json \
        bench_frontier.json bench_service.json ...

Exit code 0 when at least one input was aggregated; 1 when none were.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

#: result keys copied into the per-bench headline summary (exact match)
HEADLINE_KEYS = ("pending", "smoke", "speedup_floor")
#: result-key patterns copied into the headline summary (substring match)
HEADLINE_PATTERNS = ("speedup", "_per_s")


def headline(results: dict) -> dict:
    """The small cross-PR summary of one bench's full result dict."""
    picked = {}
    for key, value in results.items():
        if key in HEADLINE_KEYS or any(p in key for p in HEADLINE_PATTERNS):
            if isinstance(value, float):
                value = round(value, 3)
            picked[key] = value
    return picked


def bench_name(path: Path, results: dict) -> str:
    """Prefer the self-declared ``bench`` key; fall back to the filename."""
    name = results.get("bench")
    if isinstance(name, str) and name:
        return name
    stem = path.stem
    return stem[len("bench_") :] if stem.startswith("bench_") else stem


def aggregate(paths: list[Path]) -> dict:
    """Fold the readable inputs into the report dict (see module doc)."""
    benches: dict[str, dict] = {}
    headlines: dict[str, dict] = {}
    skipped: list[str] = []
    for path in paths:
        try:
            results = json.loads(path.read_text())
        except (OSError, ValueError) as exc:
            print(f"bench_report: skipping {path}: {exc}", file=sys.stderr)
            skipped.append(str(path))
            continue
        if not isinstance(results, dict):
            print(f"bench_report: skipping {path}: not a JSON object", file=sys.stderr)
            skipped.append(str(path))
            continue
        name = bench_name(path, results)
        benches[name] = results
        headlines[name] = headline(results)
    return {"headlines": headlines, "benches": benches, "skipped_inputs": skipped}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("inputs", nargs="+", help="per-bench JSON result files")
    parser.add_argument(
        "--output",
        default="BENCH_report.json",
        help="aggregated report path (default: %(default)s)",
    )
    args = parser.parse_args(argv)

    report = aggregate([Path(p) for p in args.inputs])
    Path(args.output).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")

    for name in sorted(report["headlines"]):
        print(f"{name}: {report['headlines'][name]}")
    print(f"aggregated {len(report['benches'])} bench(es) -> {args.output}")
    return 0 if report["benches"] else 1


if __name__ == "__main__":
    sys.exit(main())
