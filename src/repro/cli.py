"""Command-line interface.

The sub-commands cover the library's main workflows::

    python -m repro solve      --jobs 20 --machines 10        # solve an instance
    python -m repro solve      --file my_instance.txt --engine gpu
    python -m repro solve      --engine serial --checkpoint run.rpbb --checkpoint-interval 1000
    python -m repro resume     run.rpbb                       # continue a checkpointed solve
    python -m repro autotune   --jobs 200 --machines 20       # pick the pool size
    python -m repro evaluate   --output report.json           # regenerate all tables/figures
    python -m repro serve      --port 7227                    # solve-as-a-service
    python -m repro lint       --format json                  # architecture lint (dev checkouts)

``solve`` accepts Taillard-format or JSON instance files (see
:mod:`repro.flowshop.io`) or generates a Taillard-style instance of the
requested size; engines: ``gpu`` (default), ``serial``, ``multicore``,
``cluster``.  ``solve --checkpoint`` (serial engine) writes crash-consistent
search snapshots that ``resume`` continues bit-identically — same makespan,
permutation, and counters as one uninterrupted run (``docs/ARCHITECTURE.md``,
"Snapshot format").  ``serve`` runs the JSON-lines TCP solve service with
cross-session batched bounding (see ``docs/SERVING.md``).  ``lint`` runs
the repo's AST-based architecture/concurrency checks (``tools/repro_lint``
— requires a source checkout; see "Enforced invariants" in
``docs/ARCHITECTURE.md``).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro.bb.multicore import MulticoreBranchAndBound
from repro.bb.sequential import SequentialBranchAndBound
from repro.core.autotune import PoolSizeAutotuner
from repro.core.cluster import ClusterBranchAndBound, ClusterSpec
from repro.core.config import GpuBBConfig
from repro.core.gpu_bb import GpuBranchAndBound
from repro.experiments.runner import run_all, write_report
from repro.flowshop.bounds import check_int32_total
from repro.flowshop.instance import FlowShopInstance
from repro.flowshop.io import read_json_file, read_taillard_file
from repro.flowshop.taillard import taillard_instance

__all__ = ["build_parser", "main"]


def _positive_int(text: str) -> int:
    """Argparse type of a count flag: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _positive_float(text: str) -> float:
    """Argparse type of a duration flag: a number greater than 0."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not value > 0:  # also refuses nan
        raise argparse.ArgumentTypeError(f"must be greater than 0, got {text}")
    return value


def _load_instance(args: argparse.Namespace) -> FlowShopInstance:
    if args.file:
        path = Path(args.file)
        if not path.exists():
            raise SystemExit(f"instance file not found: {path}")
        reader = read_json_file if path.suffix.lower() == ".json" else read_taillard_file
        instance = reader(path)
    else:
        instance = taillard_instance(args.jobs, args.machines, index=args.index)
    try:
        check_int32_total(instance)
    except ValueError as exc:
        raise SystemExit(f"cannot solve {instance.name or 'the instance'}: {exc}") from None
    return instance


def _solve(args: argparse.Namespace) -> int:
    instance = _load_instance(args)
    engine = args.engine
    if args.checkpoint is not None and engine != "serial":
        raise SystemExit(
            f"--checkpoint is only supported by --engine serial (got {engine!r}); "
            "the service engines checkpoint via `repro serve`"
        )
    if args.checkpoint is None and (
        args.checkpoint_interval is not None or args.checkpoint_seconds is not None
    ):
        raise SystemExit("--checkpoint-interval/--checkpoint-seconds require --checkpoint")
    print(
        f"instance : {instance.name or 'unnamed'} "
        f"({instance.n_jobs} jobs x {instance.n_machines} machines)"
    )
    print(f"engine   : {engine}")

    if engine == "serial":
        result = SequentialBranchAndBound(
            instance,
            max_nodes=args.max_nodes,
            max_time_s=args.max_time,
            max_frontier_nodes=args.max_frontier_nodes,
            checkpoint_path=args.checkpoint,
            checkpoint_every=args.checkpoint_interval,
            checkpoint_seconds=args.checkpoint_seconds,
        ).solve()
    elif engine == "multicore":
        result = MulticoreBranchAndBound(
            instance,
            n_workers=args.workers,
            backend="process",
            decomposition_depth=args.decomposition_depth,
            max_nodes_per_task=args.max_nodes,
            max_time_s=args.max_time,
            max_frontier_nodes=args.max_frontier_nodes,
        ).solve()
    elif engine == "cluster":
        config = GpuBBConfig(
            pool_size=args.pool_size,
            max_nodes=args.max_nodes,
            max_time_s=args.max_time,
            max_frontier_nodes=args.max_frontier_nodes,
        )
        result = ClusterBranchAndBound(instance, ClusterSpec(n_nodes=args.nodes), config).solve()
    else:  # gpu
        config = GpuBBConfig(
            pool_size=args.pool_size,
            max_nodes=args.max_nodes,
            max_time_s=args.max_time,
            max_frontier_nodes=args.max_frontier_nodes,
        )
        result = GpuBranchAndBound(instance, config).solve()

    _print_result(result)
    return 0


def _print_result(result) -> None:
    print(f"makespan : {result.best_makespan}")
    print(f"order    : {' '.join(str(j) for j in result.best_order)}")
    print(f"optimal  : {result.proved_optimal}")
    stats = result.stats
    print(
        f"nodes    : bounded={stats.nodes_bounded} pruned={stats.nodes_pruned} "
        f"pools={stats.pools_evaluated}"
    )
    device_note = (
        f", {stats.simulated_device_time_s * 1e3:.2f}ms simulated device"
        if stats.simulated_device_time_s
        else ""
    )
    print(f"time     : {stats.time_total_s:.3f}s wall" + device_note)


def _resume(args: argparse.Namespace) -> int:
    from repro.bb.snapshot import SnapshotError, load_header

    path = Path(args.snapshot)
    if not path.exists():
        raise SystemExit(f"snapshot file not found: {path}")
    try:
        header = load_header(path)
    except SnapshotError as exc:
        raise SystemExit(f"cannot resume {path}: {exc}") from exc
    engine_conf = header.get("engine") or {}
    print(f"snapshot : {path} (format v{header['format_version']})")
    print(
        f"instance : {header['instance']['name'] or 'unnamed'} "
        f"({header['instance']['n_jobs']} jobs x "
        f"{header['instance']['n_machines']} machines)"
    )
    print(f"engine   : serial ({engine_conf.get('selection', 'best-first')})")
    try:
        result = SequentialBranchAndBound.resume(
            path,
            max_nodes=args.max_nodes,
            max_time_s=args.max_time,
            checkpoint_path=args.checkpoint,
            checkpoint_every=args.checkpoint_interval,
            checkpoint_seconds=args.checkpoint_seconds,
        )
    except SnapshotError as exc:
        raise SystemExit(f"cannot resume {path}: {exc}") from exc
    _print_result(result)
    return 0


def _autotune(args: argparse.Namespace) -> int:
    instance = _load_instance(args)
    tuner = PoolSizeAutotuner(instance, GpuBBConfig(), mode=args.mode)
    report = tuner.run()
    print(f"instance        : {instance.name} ({instance.n_jobs}x{instance.n_machines})")
    print(f"mode            : {report.mode}")
    for sample in report.samples:
        print(
            f"  pool {sample.pool_size:>7}: predicted speed-up x{sample.predicted_speedup:7.1f}"
            f"  ({sample.per_node_s * 1e6:.2f} us/node)"
        )
    print(f"best pool size  : {report.best_pool_size}")
    return 0


def _evaluate(args: argparse.Namespace) -> int:
    report = run_all(include_measured=not args.skip_measured)
    for line in report.summary_lines():
        print(line)
    if args.figures:
        from repro.experiments.ascii_plot import figure_to_text
        from repro.experiments.figure4 import figure4
        from repro.experiments.figure5 import figure5

        print()
        print(figure_to_text("Figure 4 - placement comparison (pool 262144)", figure4()))
        print(figure_to_text("Figure 5 - GPU vs multi-threaded (~500 GFLOPS)", figure5()))
    if args.output:
        path = write_report(report, args.output)
        print(f"full report written to {path}")
    return 0


def _serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.service.dispatch import FlushPolicy
    from repro.service.server import SolveServer
    from repro.service.service import SolveService

    async def run() -> int:
        service = SolveService(
            max_active_sessions=args.max_active,
            max_queued=args.max_queued,
            flush_policy=FlushPolicy(
                max_wait_s=args.max_wait_ms / 1000.0,
                max_batch_nodes=args.max_batch_nodes,
            ),
        )
        async with service:
            server = SolveServer(service, host=args.host, port=args.port)
            await server.start()
            print(f"serving on {args.host}:{server.port} "
                  f"(max_active={args.max_active}, max_queued={args.max_queued})")
            try:
                await server.serve_forever()
            except asyncio.CancelledError:  # pragma: no cover - signal path
                pass
            finally:
                await server.close()
        return 0

    try:
        return asyncio.run(run())
    except KeyboardInterrupt:  # pragma: no cover - interactive path
        return 0


def _find_lint_root(explicit: Optional[str]) -> Optional[Path]:
    """The checkout holding ``tools/repro_lint`` (the suite is not shipped)."""
    if explicit:
        root = Path(explicit).resolve()
        return root if (root / "tools" / "repro_lint" / "framework.py").is_file() else None
    current = Path.cwd().resolve()
    for candidate in (current, *current.parents):
        if (candidate / "tools" / "repro_lint" / "framework.py").is_file():
            return candidate
    return None


def _lint(args: argparse.Namespace) -> int:
    root = _find_lint_root(args.root)
    if root is None:
        print(
            "repro lint: tools/repro_lint not found — run from a source checkout "
            "or pass --root <checkout>",
            file=sys.stderr,
        )
        return 2
    if str(root) not in sys.path:
        sys.path.insert(0, str(root))
    from tools.repro_lint import main as lint_main

    forwarded = ["--root", str(root), "--format", args.format]
    if args.output:
        forwarded += ["--output", args.output]
    if args.baseline:
        forwarded += ["--baseline", args.baseline]
    if args.update_baseline:
        forwarded += ["--update-baseline"]
    return lint_main(forwarded)


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser (exposed for testing and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="GPU-accelerated Branch-and-Bound for the flow-shop problem "
        "(reproduction of Melab et al., CLUSTER 2012)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_instance_arguments(p: argparse.ArgumentParser) -> None:
        p.add_argument("--file", help="instance file (Taillard text or JSON)")
        p.add_argument("--jobs", type=int, default=20, help="jobs of the generated instance")
        p.add_argument(
            "--machines", type=int, default=10, help="machines of the generated instance"
        )
        p.add_argument("--index", type=int, default=1, help="index within the Taillard class")

    solve = sub.add_parser("solve", help="solve one instance to optimality")
    add_instance_arguments(solve)
    solve.add_argument("--engine", choices=("gpu", "serial", "multicore", "cluster"), default="gpu")
    solve.add_argument(
        "--pool-size", type=_positive_int, default=8192, help="GPU off-load pool size"
    )
    solve.add_argument(
        "--n-workers",
        "--workers",
        dest="workers",
        type=_positive_int,
        default=4,
        help="multicore worker count",
    )
    solve.add_argument(
        "--decomposition-depth",
        type=_positive_int,
        default=2,
        help="multicore prefix depth of the sub-tree decomposition (default: 2)",
    )
    solve.add_argument("--nodes", type=_positive_int, default=4, help="cluster node count")
    solve.add_argument(
        "--max-frontier-nodes",
        type=_positive_int,
        default=None,
        help="high-water frontier memory cap — once this many nodes are "
        "pending, best-first selection runs depth-first-restricted and stays there "
        "until the pool drains below the 0.8x-cap low-water mark (hysteresis, no "
        "regime flapping at the boundary); the pool cannot grow unbounded "
        "(default: no cap)",
    )
    solve.add_argument(
        "--max-nodes", type=_positive_int, default=None, help="node exploration budget"
    )
    solve.add_argument(
        "--max-time", type=_positive_float, default=None, help="time budget in seconds"
    )

    def add_checkpoint_arguments(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--checkpoint",
            default=None,
            help="write crash-consistent search snapshots to this file "
            "(serial engine only; resume with `repro resume`)",
        )
        p.add_argument(
            "--checkpoint-interval",
            type=_positive_int,
            default=None,
            help="snapshot every N driver steps (requires --checkpoint)",
        )
        p.add_argument(
            "--checkpoint-seconds",
            type=_positive_float,
            default=None,
            help="snapshot at least every T seconds (requires --checkpoint)",
        )

    add_checkpoint_arguments(solve)
    solve.set_defaults(func=_solve)

    resume = sub.add_parser(
        "resume",
        help="continue a checkpointed solve from a snapshot file (bit-identical)",
    )
    resume.add_argument("snapshot", help="snapshot file written by --checkpoint")
    resume.add_argument(
        "--max-nodes",
        type=_positive_int,
        default=None,
        help="cumulative node budget (counts nodes explored across all segments)",
    )
    resume.add_argument(
        "--max-time",
        type=_positive_float,
        default=None,
        help="time budget for this segment in seconds",
    )
    add_checkpoint_arguments(resume)
    resume.set_defaults(func=_resume)

    autotune = sub.add_parser("autotune", help="pick the off-load pool size for an instance")
    add_instance_arguments(autotune)
    autotune.add_argument("--mode", choices=("model", "measure"), default="model")
    autotune.set_defaults(func=_autotune)

    evaluate = sub.add_parser("evaluate", help="regenerate every table/figure of the paper")
    evaluate.add_argument("--output", help="write the full JSON report to this path")
    evaluate.add_argument(
        "--skip-measured", action="store_true", help="skip the wall-clock measurements (faster)"
    )
    evaluate.add_argument(
        "--figures", action="store_true", help="also render Figures 4 and 5 as text charts"
    )
    evaluate.set_defaults(func=_evaluate)

    serve = sub.add_parser(
        "serve", help="run the JSON-lines solve service (cross-session batched bounding)"
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument("--port", type=int, default=7227, help="bind port (0 picks a free one)")
    serve.add_argument(
        "--max-active", type=_positive_int, default=8, help="sessions solving concurrently"
    )
    serve.add_argument(
        "--max-queued", type=_positive_int, default=64, help="admission queue bound (backpressure)"
    )
    serve.add_argument(
        "--max-wait-ms",
        type=_positive_float,
        default=5.0,
        help="dispatcher flush policy: longest a parked bounding batch waits for peers",
    )
    serve.add_argument(
        "--max-batch-nodes",
        type=_positive_int,
        default=65536,
        help="dispatcher flush policy: fused-launch size cap",
    )
    serve.set_defaults(func=_serve)

    lint = sub.add_parser(
        "lint",
        help="run the repo's AST-based architecture & concurrency checks",
    )
    lint.add_argument("--root", help="repository checkout to lint (default: walk up from CWD)")
    lint.add_argument(
        "--format", choices=("human", "json"), default="human", help="stdout format"
    )
    lint.add_argument("--output", help="also write the JSON report to this path")
    lint.add_argument("--baseline", help="baseline file (default: the committed one)")
    lint.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite the baseline from the current unsuppressed findings",
    )
    lint.set_defaults(func=_lint)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point of ``python -m repro`` (returns the exit code)."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
