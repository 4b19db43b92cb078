"""One benchmark process: set up a workload, time its fixed work, check every result.

``run.py`` starts this file several times per run; by hand it is

    python3 perfbench/worker.py --workload exact-small --seed 1 --seconds 10 --trace

(``--trace`` and ``--setup-only`` optional) with ``PYTHONPATH`` pointing at
the checkout's ``src``.  The process prints
``READY`` right before its first timed operation, so the parent can time
the set-up (interpreter, imports, instance generation, engine construction
or server start plus connections, one warm-up solve) from the outside.
``--setup-only`` stops there.  Otherwise it runs the workload's fixed work
untraced and prints one JSON line with the measurements; with ``--trace``
it then runs the same work again with every layer wrapped
(``tracing.py``) and adds the per-layer metrics.
"""

from __future__ import annotations

import argparse
import asyncio
import ctypes
import hashlib
import json
import os
import platform
import re
import select
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Scratch space inside the checkout (span files); ignored by git.
OUT = ROOT / ".bench_build" / "perfbench"

#: exact-small / service-2c: the instance shapes of the stream, in turn.
SHAPES = ((10, 6), (11, 6), (12, 6), (12, 8), (13, 6))
#: Solves per second of ``--seconds``: 120 at 10 s, so that 12 items lie
#: beyond p90.
ITEMS_PER_SECOND = 12
#: Explored-node cap of each exact-small solve, so one hard instance
#: cannot dominate a run (16 of the 120 solves reach it).
NODE_CAP = 100_000
#: The U(1,99) corpus the seeds relabel.  Fresh random instances per seed
#: differ by +-20% in total search work between seeds at 120 solves, far
#: beyond any bound the benchmark can hold; a job relabeling is a new input
#: (NEH ties, creation order and frontier tie-breaks all change) whose
#: proof takes the same work.
CORPUS_SEED = 2012

#: gpu-100x20: the Taillard 100x20 indices on which the node budget ends
#: after the same three launches (110,155-110,353 bounds).  On 3, 5 and 9
#: the NEH incumbent prunes the second pool and the budget ends after two
#: small launches; 6 needs a fourth.  Either would make the run's work
#: depend on the seed.
GPU_INDICES = (1, 2, 4, 7, 8, 10)
GPU_POOL_SIZE = 1024
#: Explored-node budget per second of ``--seconds`` (1200 at 10 s: three
#: launches of ~37,000 rows on average).
GPU_NODES_PER_SECOND = 120

#: service-2c: sessions solving at once, and client connections.
SERVICE_ACTIVE = 2
SERVICE_CLIENTS = 2
REQUEST_TIMEOUT_S = 60.0
SERVER_START_TIMEOUT_S = 60.0


# --------------------------------------------------------------------------- #
#  environment and checks
# --------------------------------------------------------------------------- #
def blas_threads() -> int | None:
    """Threads the loaded OpenBLAS runs, asked of the library itself."""
    with open("/proc/self/maps") as maps:
        libs = sorted(set(re.findall(r"(/\S*openblas\S*\.so\S*)", maps.read())))
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            query = getattr(handle, symbol, None)
            if query is not None:
                query.restype = ctypes.c_int
                return int(query())
    return None


def pin_to_one_cpu() -> None:
    """Bind this process to the last CPU it may run on (the server does).

    Free to move, the server's session and dispatcher threads hand the
    interpreter lock across both cores of a 2-core host, and runs fall at
    random into a fast or a slow regime: ten service-2c runs took
    22.5-35.0 s (spread 0.36), against 16.0-21.2 s pinned.
    """
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def environment(seed: int) -> dict:
    """The host and library facts every output records."""
    cpu_model = "unknown"
    with open("/proc/cpuinfo") as cpuinfo:
        for line in cpuinfo:
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    config = getattr(np.__config__, "CONFIG", {})
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        # the CPU the service-2c server pins itself to
        "server_cpu": max(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "seed": seed,
    }


def makespan_of(matrix: np.ndarray, order) -> int:
    """Makespan of a permutation, recomputed independently of the program."""
    finish = [0] * matrix.shape[1]
    for job in order:
        ready = 0
        for machine, duration in enumerate(matrix[job].tolist()):
            ready = max(ready, finish[machine]) + duration
            finish[machine] = ready
    return finish[-1]


def check(matrix: np.ndarray, order, makespan) -> str | None:
    """Why a reported solution is wrong, or ``None`` when it is right."""
    if sorted(int(job) for job in order) != list(range(matrix.shape[0])):
        return "order is not a permutation of all jobs"
    recomputed = makespan_of(matrix, order)
    if recomputed != makespan:
        return f"reported makespan {makespan} but the order's makespan is {recomputed}"
    return None


def peak_rss_mb(pid: int | str = "self") -> float:
    """Peak resident set (VmHWM) of a process, in MB."""
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc status")


class Item:
    """One timed solve or request and the result it returned."""

    __slots__ = ("key", "latency_s", "makespan", "bounded", "explored", "proved", "error")

    def __init__(self, key, latency_s, makespan=0, bounded=0, explored=0, proved=False,
                 error=None):
        self.key = key
        self.latency_s = latency_s
        self.makespan = makespan
        self.bounded = bounded
        self.explored = explored
        self.proved = proved
        self.error = error


def solved(key, matrix, latency_s, makespan, order, stats, proved) -> Item:
    return Item(key, latency_s, int(makespan), int(stats["nodes_bounded"]),
                int(stats["nodes_explored"]), bool(proved), check(matrix, order, makespan))


# --------------------------------------------------------------------------- #
#  workloads
# --------------------------------------------------------------------------- #
def exact_small_matrices(seed: int, seconds: int) -> list[np.ndarray]:
    """The seed's relabeling and order of the U(1,99) corpus."""
    count = ITEMS_PER_SECOND * seconds
    corpus_rng = np.random.default_rng(CORPUS_SEED)
    corpus = [
        corpus_rng.integers(1, 100, size=SHAPES[i % len(SHAPES)], dtype=np.int64)
        for i in range(count)
    ]
    rng = np.random.default_rng(seed)
    return [corpus[i][rng.permutation(corpus[i].shape[0])] for i in rng.permutation(count)]


def warm_up_matrix(seed: int) -> np.ndarray:
    return np.random.default_rng([seed, 1]).integers(1, 100, size=(10, 6), dtype=np.int64)


class ExactSmall:
    """A closed stream of capped exact solves with the serial engine's defaults."""

    threads = 1

    def __init__(self, seed: int, seconds: int):
        from repro.bb import SequentialBranchAndBound
        from repro.flowshop import FlowShopInstance

        self.matrices = exact_small_matrices(seed, seconds)
        self.engines = [
            SequentialBranchAndBound(FlowShopInstance(matrix), max_nodes=NODE_CAP)
            for matrix in self.matrices
        ]
        SequentialBranchAndBound(FlowShopInstance(warm_up_matrix(seed)), max_nodes=NODE_CAP).solve()

    def run(self, tracer=None) -> tuple[list[Item], float]:
        items = []
        clock = time.perf_counter
        start = clock()
        for key, (engine, matrix) in enumerate(zip(self.engines, self.matrices)):
            if tracer is not None:
                tracer.set_request(key)
            began = clock()
            try:
                result = engine.solve()
            except Exception as exc:  # a crashing solve is a failed item
                items.append(Item(key, clock() - began, error=repr(exc)))
                continue
            latency = clock() - began
            items.append(solved(key, matrix, latency, result.best_makespan, result.best_order,
                                result.stats.as_dict(), result.proved_optimal))
        return items, clock() - start

    def close(self) -> None:
        pass


class Gpu100x20:
    """One budgeted GPU-engine solve of a Taillard 100x20 instance."""

    threads = 1

    def __init__(self, seed: int, seconds: int):
        from repro.core import GpuBBConfig, GpuBranchAndBound
        from repro.flowshop import taillard_instance

        self.index = GPU_INDICES[seed % len(GPU_INDICES)]
        instance = taillard_instance(100, 20, index=self.index)
        self.matrix = instance.processing_times
        self.engine = GpuBranchAndBound(instance, GpuBBConfig(
            pool_size=GPU_POOL_SIZE, max_nodes=GPU_NODES_PER_SECOND * seconds
        ))
        warm = taillard_instance(20, 20, index=1 + seed % 10)
        GpuBranchAndBound(warm, GpuBBConfig(pool_size=GPU_POOL_SIZE, max_nodes=100)).solve()
        self.simulated_s = 0.0

    def run(self, tracer=None) -> tuple[list[Item], float]:
        if tracer is not None:
            tracer.set_request(self.index)
        clock = time.perf_counter
        start = clock()
        try:
            result = self.engine.solve()
        except Exception as exc:
            return [Item(self.index, clock() - start, error=repr(exc))], clock() - start
        wall = clock() - start
        self.simulated_s = result.simulated_device_time_s
        item = solved(self.index, self.matrix, wall, result.best_makespan, result.best_order,
                      result.stats.as_dict(), result.proved_optimal)
        return [item], wall

    def close(self) -> None:
        pass


class Service2c:
    """Two TCP clients of a ``repro serve --max-active 2`` process, in lockstep.

    Both connections send the same instances in the same order, each one
    request at a time; a connection sends instance i+1 once both have
    their result for i.  Free-running, the two closed loops fall out of
    step at random (five seeds took 25.7-37.7 s, spread 0.33) and fusion
    with them; in lockstep every run fuses ~1.98 requests per launch.
    """

    threads = SERVICE_ACTIVE

    def __init__(self, seed: int, seconds: int, spans_path: Path | None = None):
        from repro.service import InstanceSpec, ServiceClient, SolveParams

        self._client = ServiceClient
        self.matrices = exact_small_matrices(seed, seconds)
        self.specs = [InstanceSpec.explicit(m.tolist()) for m in self.matrices]
        self.params = SolveParams(max_nodes=NODE_CAP)
        self.spans_path = spans_path
        self.window = (0.0, 0.0)
        self.dispatch: dict = {}
        self.server_rss_mb = 0.0
        self.clients: list = []
        self.loop = asyncio.new_event_loop()
        self.server = self._start_server()
        try:
            self.loop.run_until_complete(self._connect(InstanceSpec.explicit(
                warm_up_matrix(seed).tolist()
            )))
        except BaseException:
            self.close()
            raise

    def _start_server(self) -> subprocess.Popen:
        command = [sys.executable, "-u", str(HERE / "serve.py")]
        if self.spans_path is not None:
            command += ["--spans", str(self.spans_path)]
        command += ["--", "serve", "--port", "0", "--max-active", str(SERVICE_ACTIVE)]
        server = subprocess.Popen(command, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        deadline = time.monotonic() + SERVER_START_TIMEOUT_S
        while select.select([server.stdout], [], [], max(deadline - time.monotonic(), 0.0))[0]:
            line = server.stdout.readline()
            if not line:
                break
            found = re.search(r"serving on [\w.]+:(\d+)", line)
            if found:
                self.port = int(found.group(1))
                return server
        server.kill()
        server.wait()
        raise RuntimeError("the server did not report its port")

    async def _connect(self, warm_up) -> None:
        """Open the client connections and send one warm-up solve on each."""
        for _ in range(SERVICE_CLIENTS):
            self.clients.append(await self._client.connect("127.0.0.1", self.port))
        replies = await asyncio.gather(*(
            client.solve(warm_up, self.params, client_id=f"client-{k}", timeout=REQUEST_TIMEOUT_S)
            for k, client in enumerate(self.clients)
        ))
        for reply in replies:
            if reply.type != "result":
                raise RuntimeError(f"warm-up solve answered {reply!r}")

    async def _request(self, k: int, key: int) -> Item:
        """One request on connection ``k``, timed from send to ``result`` reply."""
        clock = time.perf_counter
        began = clock()
        try:
            reply = await self.clients[k].solve(self.specs[key], self.params,
                                                client_id=f"client-{k}", timeout=REQUEST_TIMEOUT_S)
        except (asyncio.TimeoutError, ConnectionError) as exc:
            return Item(key, clock() - began, error=repr(exc))
        latency = clock() - began
        if reply.type != "result" or reply.cancelled:
            return Item(key, latency, error=f"{reply.type} reply: {reply!r}")
        return solved(key, self.matrices[key], latency, reply.makespan, reply.order, reply.stats,
                      reply.proved_optimal)

    async def _measure(self):
        before = (await self.clients[0].status()).dispatcher
        clock = time.perf_counter
        items: list[Item] = []
        start = clock()
        for key in range(len(self.specs)):
            items += await asyncio.gather(
                *(self._request(k, key) for k in range(len(self.clients)))
            )
        end = clock()
        after = (await self.clients[0].status()).dispatcher
        return items, (start, end), before, after

    def run(self, tracer=None) -> tuple[list[Item], float]:
        items, self.window, before, after = self.loop.run_until_complete(self._measure())
        self.server_rss_mb = peak_rss_mb(self.server.pid)

        def delta(key: str) -> float:
            return after[key] - before[key]

        timeouts = after["flush_reasons"].get("timeout", 0)
        timeouts -= before["flush_reasons"].get("timeout", 0)
        self.dispatch = {
            "service.dispatch.requests": delta("n_requests"),
            "service.dispatch.launches": delta("n_launches"),
            "service.dispatch.requests_per_launch": (
                delta("n_requests") / delta("n_launches") if delta("n_launches") else 0.0
            ),
            "service.dispatch.timeout_flushes": timeouts,
            "service.dispatch.retries": delta("n_retries"),
            "service.dispatch.degraded": delta("n_degraded"),
        }
        return items, self.window[1] - self.window[0]

    def close(self) -> None:
        """Disconnect, stop the server with SIGINT and wait for it to exit."""
        for client in self.clients:
            self.loop.run_until_complete(client.close())
        # let the server's connection handlers see EOF before the signal
        self.loop.run_until_complete(asyncio.sleep(0.2))
        self.loop.close()
        self.server.send_signal(signal.SIGINT)
        try:
            self.server.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.server.kill()
            self.server.wait()
        self.server.stdout.close()


WORKLOADS = {"exact-small": ExactSmall, "gpu-100x20": Gpu100x20, "service-2c": Service2c}


# --------------------------------------------------------------------------- #
#  metrics
# --------------------------------------------------------------------------- #
def percentile(values: list[float], q: int) -> float:
    """Harrell-Davis estimate of the ``q``-th percentile.

    A beta-weighted mean of all order statistics, centred on the
    percentile.  One ~0.1 s item sees the host's 10-20% speed jitter
    undamped, so the plain order statistic carries it into the figure;
    the weighted mean averages it over the neighbouring items.  Samples
    too few for the weights fall back to the interpolated order statistic.
    """
    ordered = np.sort(np.asarray(values, dtype=float))
    n = ordered.shape[0]
    a, b = q / 100 * (n + 1), (1 - q / 100) * (n + 1)
    if n == 1:
        return float(ordered[0])
    if min(a, b) < 1:
        return statistics.quantiles(values, n=100, method="inclusive")[q - 1]
    # regularized incomplete beta I_x(a, b) at x = i/n, by the trapezoid rule
    steps = 64
    x = np.linspace(0.0, 1.0, steps * n + 1)
    log_pdf = (a - 1) * np.log(x[1:-1]) + (b - 1) * np.log1p(-x[1:-1])
    pdf = np.concatenate(([0.0], np.exp(log_pdf - log_pdf.max()), [0.0]))
    cdf = np.concatenate(([0.0], np.cumsum(pdf[1:] + pdf[:-1])))
    weights = np.diff(cdf[::steps] / cdf[-1])
    return float(weights @ ordered)


def end_to_end(items: list[Item], wall_s: float, rss_mb: float) -> dict[str, float]:
    latencies_ms = [item.latency_s * 1000.0 for item in items]
    failed = sum(1 for item in items if item.error is not None)
    return {
        "wall_s": wall_s,
        "bounds_per_s": sum(item.bounded for item in items) / wall_s,
        "latency_p50_ms": percentile(latencies_ms, 50),
        "latency_p90_ms": percentile(latencies_ms, 90),
        "requests_per_s": len(items) / wall_s,
        "peak_rss_mb": rss_mb,
        "ok_frac": 1.0 - failed / len(items),
    }


def search_counts(items: list[Item]) -> dict:
    """The deterministic counts of a run: fixed per seed and explored tree."""
    digest = hashlib.sha256()
    for item in items:
        digest.update(f"{item.key}:{item.makespan};".encode())
    return {
        "search.nodes_bounded": sum(item.bounded for item in items),
        "search.nodes_explored": sum(item.explored for item in items),
        "search.proved": sum(1 for item in items if item.proved),
        "search.makespan_sum": sum(item.makespan for item in items),
        "makespan_checksum": digest.hexdigest()[:16],
    }


def traced_pass(workload_name: str, seed: int, seconds: int, untraced_wall: float) -> dict:
    """Run the work again with every layer wrapped; return the per-layer metrics."""
    tracer = tracing.Tracer()
    spans_path = OUT / f"spans-{workload_name}-seed{seed}.jsonl"
    if workload_name == "service-2c":
        workload = Service2c(seed, seconds, spans_path=spans_path)
        try:
            items, wall = workload.run()
        finally:
            workload.close()
        start, end = workload.window
        spans = [s for s in tracing.load_spans(spans_path) if start <= s[2] and s[3] <= end]
        extra = dict(workload.dispatch)
        extra["service.session_restarts"] = json.loads(
            (spans_path.with_suffix(".stats.json")).read_text()
        )["session_restarts"]
    else:
        tracing.install(tracer)
        workload = WORKLOADS[workload_name](seed, seconds)
        tracer.spans.clear()  # drop the warm-up solve's spans
        items, wall = workload.run(tracer)
        tracer.dump(spans_path)
        spans = tracer.spans
        # no service on this workload: its counters are zero
        extra = dict.fromkeys(
            ("service.dispatch.requests", "service.dispatch.launches",
             "service.dispatch.requests_per_launch", "service.dispatch.timeout_flushes",
             "service.dispatch.retries", "service.dispatch.degraded",
             "service.session_restarts"),
            0,
        )
    metrics = tracing.layer_metrics(spans, wall * workload.threads)
    metrics.update(extra)
    metrics["gpu.simulated_s"] = getattr(workload, "simulated_s", 0.0)
    counts = search_counts(items)
    counts.pop("makespan_checksum")
    metrics.update(counts)
    metrics["trace.wall_s"] = wall
    metrics["trace.untraced_wall_s"] = untraced_wall
    metrics["trace.overhead_frac"] = wall / untraced_wall - 1.0
    failures = [item.error for item in items if item.error is not None]
    return {"metrics": metrics, "failures": failures,
            "end_to_end": end_to_end(items, wall, 0.0)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed, args.seconds)
    print("READY", flush=True)
    if args.setup_only:
        workload.close()
        return 0
    try:
        items, wall = workload.run()
    finally:
        workload.close()
    rss = workload.server_rss_mb if args.workload == "service-2c" else peak_rss_mb()
    out = {
        "env": environment(args.seed),
        "metrics": end_to_end(items, wall, rss),
        "counts": search_counts(items),
        "attempted": len(items),
        "failures": [f"item {i.key}: {i.error}" for i in items if i.error is not None],
        "items": [[i.key, i.makespan, i.bounded, i.latency_s] for i in items],
    }
    if args.workload == "service-2c":
        out["counts"]["dispatch"] = workload.dispatch
    if args.workload == "gpu-100x20":
        out["counts"]["gpu.simulated_s"] = workload.simulated_s
        out["counts"]["taillard_index"] = workload.index
    if args.trace:
        out["traced"] = traced_pass(args.workload, args.seed, args.seconds, wall)
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
