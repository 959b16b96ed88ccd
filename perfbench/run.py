"""Wall-clock benchmark of the federated engine.

Run from the repository root:

    python3 perfbench/run.py --workload federation_read --seed 1 \\
        --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run.  The last line of standard output is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  The
line before it (``perfbench-audit {...}``) carries the raw wall and
kernel times behind every normalized figure.  The exit status is 1 when
any op failed verification (the result line is printed all the same),
and non-zero without a result when a run or its traced-run checks
cannot complete.

``--steady N`` instead runs every workload (or ``--workload``) in fresh
processes for seeds 1..N plus seed 1 again, and prints each metric's
median and quartile spread; see ``steady.py``.

Every wall time is normalized to the reference machine speed
(``refclock.py``).  Simulated quantities carry the ``sim_`` label.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import random
import resource
import statistics
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from refclock import NOMINAL_KERNEL_MS, ReferenceClock  # noqa: E402
from tracer import BUCKETS, LayerTally, Tracer  # noqa: E402

#: setups per run; setup_s is their median
SETUP_REPEATS = 3
#: a run never measures fewer chunks than this
MIN_CHUNKS = 12
#: traced-run modes, rotated chunk by chunk
TRACE_MODES = ("plain", "wrapped", "engine_traced")
#: seconds a client thread may wait at a chunk barrier
BARRIER_TIMEOUT_S = 120.0

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p95_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "wire_bytes_per_op": "B/op",
    "round_trips_per_op": "1/op",
    "sim_ms_per_op": "sim_ms/op",
    "ok_frac": "fraction",
}

#: self-time buckets reported per op, each also as a share of op time
TIME_BUCKETS = tuple(dict.fromkeys(BUCKETS.values()))

PER_LAYER_UNITS = {
    "benchmark.traced_op_ms": "ms/op",
    **{name: "ms/op" for name in TIME_BUCKETS},
    **{name[:-3] + "_share": "share" for name in TIME_BUCKETS},
    "sql.parse_calls": "1/op",
    "core.optimize_calls": "1/op",
    "stats.histogram_builds": "1/op",
    "plancache.hit_ratio": "ratio",
    "providers.member_hit_ratio": "ratio",
    "providers.remote_commands": "1/op",
    "execution.rows": "1/op",
    "execution.saved_sim_ms": "sim_ms/op",
    "network.rows_streamed": "1/op",
    "governor.admission_wait_sim_ms": "sim_ms/op",
    "governor.grant_wait_sim_ms": "sim_ms/op",
    "dtc.fsyncs": "1/op",
    "observability.attribution_ratio": "ratio",
    "observability.trace_overhead_ratio": "ratio",
    "benchmark.wrapper_overhead_ratio": "ratio",
}


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------
def _channel_totals(engines) -> dict:
    """Summed counters of every linked-server channel."""
    totals = {"bytes": 0, "round_trips": 0, "simulated_ms": 0.0}
    for engine in engines:
        for server in engine.linked_servers.values():
            stats = server.channel.stats
            totals["bytes"] += stats.bytes_sent + stats.bytes_received
            totals["round_trips"] += stats.round_trips
            totals["simulated_ms"] += stats.simulated_ms
    return totals


class OpRecord:
    """One op's outcome: latency (wall ms), QueryResults and the
    workload's value, or the error it raised."""

    __slots__ = ("op", "wall_ms", "results", "value", "error")

    def __init__(self, op, wall_ms, results, value, error):
        self.op = op
        self.wall_ms = wall_ms
        self.results = results
        self.value = value
        self.error = error


def _run_ops(workload, world, session, ops, tracer=None, op_ids=None) -> list:
    records = []
    for index, op in enumerate(ops):
        root = tracer.op_begin(op_ids[index]) if tracer is not None else None
        started = time.perf_counter()
        try:
            (results, value), error = workload.run_op(world, session, op), None
        except Exception as exc:  # an op that raises counts as failed
            results, value, error = [], None, f"{type(exc).__name__}: {exc}"
        wall_ms = (time.perf_counter() - started) * 1000.0
        if root is not None:
            tracer.op_end(root)
        records.append(OpRecord(op, wall_ms, results, value, error))
    return records


class ChunkRunner:
    """Runs chunks of ops for every client, the kernel between chunks.

    One client runs on the calling thread.  Several clients each get a
    thread and a session; all of them stop at a barrier while the
    reference kernel runs, so the kernel never competes with clients.
    """

    def __init__(self, workload, world, clock):
        self.workload = workload
        self.world = world
        self.clock = clock
        self.clients = workload.clients
        self.threads: list = []
        if self.clients > 1:
            self._start = threading.Barrier(self.clients + 1)
            self._done = threading.Barrier(self.clients + 1)
            self._work: list = [None] * self.clients
            self._out: list = [None] * self.clients
            self._stop = False
            for client in range(self.clients):
                thread = threading.Thread(
                    target=self._client_loop, args=(client,), daemon=True
                )
                thread.start()
                self.threads.append(thread)

    def _client_loop(self, client: int) -> None:
        session = self.world["sessions"][client]
        try:
            while True:
                self._start.wait(BARRIER_TIMEOUT_S)
                if self._stop:
                    return
                ops, tracer, op_ids = self._work[client]
                self._out[client] = _run_ops(
                    self.workload, self.world, session, ops, tracer, op_ids
                )
                self._done.wait(BARRIER_TIMEOUT_S)
        except threading.BrokenBarrierError:
            return

    def run_chunk(self, chunk_ops: list, tracer=None, op_base=0):
        """Run one chunk (one op list per client); returns the timed
        Chunk and one record list per client."""
        ids = [
            [(op_base, client, i) for i in range(len(ops))]
            for client, ops in enumerate(chunk_ops)
        ]
        if self.clients == 1:
            started = self.clock.begin()
            records = _run_ops(
                self.workload, self.world, self.world["sessions"][0],
                chunk_ops[0], tracer, ids[0],
            )
            return self.clock.end(started), [records]
        for client in range(self.clients):
            self._work[client] = (chunk_ops[client], tracer, ids[client])
        self._start.wait(BARRIER_TIMEOUT_S)
        started = self.clock.begin()
        self._done.wait(BARRIER_TIMEOUT_S)
        chunk = self.clock.end(started)
        return chunk, list(self._out)

    def close(self) -> None:
        if self.clients > 1:
            self._stop = True
            try:
                self._start.wait(BARRIER_TIMEOUT_S)
            except threading.BrokenBarrierError:
                pass
            for thread in self.threads:
                thread.join(BARRIER_TIMEOUT_S)
            if any(thread.is_alive() for thread in self.threads):
                raise RuntimeError("client thread did not stop")


def _setup(workload, repeats: int):
    """Build and warm the world ``repeats`` times; keeps the last one.

    Warm-up runs the chunks ``workload.warm_chunks`` gives (clients
    taking turns on the calling thread), each timed like a measured chunk
    by a single-threaded kernel, since set-up is single-threaded work.
    Returns (world, normalized setup seconds per repeat, setup clock)."""
    clock = ReferenceClock(workload.kernel_samples)
    clock.start()
    world, seconds = None, []
    warm_rng = random.Random(workload.seed * 1_000_003 + 17)
    for __ in range(repeats):
        world = None
        gc.collect()
        started = clock.begin()
        world = workload.build()
        total_ms = clock.end(started).normalized_ms
        for chunk_ops in workload.warm_chunks(warm_rng):
            started = clock.begin()
            records = [
                _run_ops(workload, world, world["sessions"][client], ops)
                for client, ops in enumerate(chunk_ops)
            ]
            total_ms += clock.end(started).normalized_ms
            for client_records in records:
                if _verify(workload, world, client_records):
                    raise RuntimeError(f"{workload.name}: warm-up op failed")
        seconds.append(total_ms / 1000.0)
    return world, seconds, clock


def _chunk_count(workload, seconds: float) -> int:
    ops_per_chunk = workload.chunk_ops * workload.clients
    wanted = seconds * workload.ref_ops_per_s / ops_per_chunk
    return max(MIN_CHUNKS, math.ceil(wanted))


def _verify(workload, world, records: list) -> int:
    failed = 0
    for record in records:
        if record.error is not None or not workload.verify(
            world, record.op, record.results, record.value
        ):
            failed += 1
    return failed


# ----------------------------------------------------------------------
# untraced run: end-to-end metrics
# ----------------------------------------------------------------------
def run_end_to_end(workload, seconds: float) -> tuple[dict, dict]:
    world, setup_seconds, setup_clock = _setup(workload, SETUP_REPEATS)
    clock = ReferenceClock(workload.kernel_samples, workload.clients)
    clock.start()
    chunks_ops = workload.make_chunks(
        random.Random(workload.seed), _chunk_count(workload, seconds)
    )
    engines = world["engines"]
    runner = ChunkRunner(workload, world, clock)
    latencies: list[float] = []
    per_op_cost: list[float] = []
    attempted = failed = 0
    saved_sim_ms = 0.0
    normalized_ms = 0.0
    run_chunks = []
    before = _channel_totals(engines)
    try:
        for index, chunk_ops in enumerate(chunks_ops):
            chunk, per_client = runner.run_chunk(chunk_ops, op_base=index)
            run_chunks.append(chunk)
            factor = chunk.factor
            ops_in_chunk = 0
            for records in per_client:
                failed += _verify(workload, world, records)
                for record in records:
                    latencies.append(record.wall_ms * factor)
                    for result in record.results:
                        saved_sim_ms += result.parallel_saved_ms
                ops_in_chunk += len(records)
            attempted += ops_in_chunk
            normalized_ms += chunk.normalized_ms
            per_op_cost.append(chunk.normalized_ms / ops_in_chunk)
    finally:
        runner.close()
    after = _channel_totals(engines)
    failed += workload.final_failures(world)
    tenth = max(1, len(per_op_cost) // 10)
    percentiles = statistics.quantiles(latencies, n=100, method="inclusive")
    metrics = {
        "ops_per_s": attempted / (normalized_ms / 1000.0),
        "op_p50_ms": percentiles[49],
        "op_p95_ms": percentiles[94],
        "setup_s": statistics.median(setup_seconds),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "wire_bytes_per_op": (after["bytes"] - before["bytes"]) / attempted,
        "round_trips_per_op":
            (after["round_trips"] - before["round_trips"]) / attempted,
        "sim_ms_per_op": (
            after["simulated_ms"] - before["simulated_ms"] - saved_sim_ms
        ) / attempted,
        "ok_frac": (attempted - min(failed, attempted)) / attempted,
    }
    audit = {
        "workload": workload.name,
        "seed": workload.seed,
        "ops": attempted,
        "chunks": len(run_chunks),
        "nominal_kernel_ms": NOMINAL_KERNEL_MS,
        "setup_s_each": setup_seconds,
        "setup_chunks": [c.audit() for c in setup_clock.chunks],
        "run_chunks": [c.audit() for c in run_chunks],
        "raw_wall_s": sum(c.wall_ms for c in run_chunks) / 1000.0,
        "drift_first_last_tenth": (
            statistics.fmean(per_op_cost[:tenth])
            / statistics.fmean(per_op_cost[-tenth:])
        ),
    }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": END_TO_END_UNITS[name]}
            for name, value in metrics.items()
        },
    }
    return result, audit


# ----------------------------------------------------------------------
# traced run: per-layer metrics
# ----------------------------------------------------------------------
#: the busiest client's traced op time over the wrapped chunks' wall
#: time, at least
OP_COVERAGE_MIN = 0.95
#: span time owned by no op, as a share of traced op time, at most
ORPHAN_SHARE_MAX = 0.01


def _check_attribution(workload, tally, statements: int, coverage: float):
    """Fails the traced run when its spans miss time or layers.

    * every span kind the workload's layers must produce was seen;
    * each statement parsed once directly under its op (a parse the
      wrapper misses drops this count);
    * in each wrapped chunk the busiest client's op spans cover the
      chunk's wall time (an op the tracer misses drops this);
    * little span time falls outside every op.
    Returns the measured figures for the audit line."""
    missing = sorted(k for k in workload.traced_kinds if not tally.kinds[k])
    figures = {
        "statements": statements,
        "top_parses": tally.top_parses,
        "op_coverage": coverage,
        "orphan_share": tally.orphan_ms / tally.op_ms,
    }
    problems = []
    if missing:
        problems.append(f"no spans of kind {missing}")
    if tally.top_parses != statements:
        problems.append(f"{tally.top_parses} top-level parses "
                        f"for {statements} statements")
    if not OP_COVERAGE_MIN <= figures["op_coverage"] <= 1.0:
        problems.append(f"op spans cover {figures['op_coverage']:.3f} "
                        "of the client wall time")
    if figures["orphan_share"] > ORPHAN_SHARE_MAX:
        problems.append(f"{figures['orphan_share']:.3f} of span time "
                        "belongs to no op")
    if problems:
        raise RuntimeError(f"{workload.name}: traced run: "
                           + "; ".join(problems))
    return figures

def run_traced(workload, seconds: float) -> tuple[dict, dict]:
    world, __, ___ = _setup(workload, 1)
    clock = ReferenceClock(workload.kernel_samples, workload.clients)
    clock.start()
    count = _chunk_count(workload, seconds)
    count += -count % len(TRACE_MODES)
    chunks_ops = workload.make_chunks(random.Random(workload.seed), count)
    engines = world["engines"]
    tracer = Tracer()
    tally = LayerTally()
    runner = ChunkRunner(workload, world, clock)
    mode_ms = dict.fromkeys(TRACE_MODES, 0.0)
    mode_ops = dict.fromkeys(TRACE_MODES, 0)
    sums = dict.fromkeys(
        ("saved", "admission", "grant", "attributed_trips", "channel_trips",
         "wrapped_statements"), 0
    )
    attempted = failed = 0
    covered_ms = 0.0
    try:
        for index, chunk_ops in enumerate(chunks_ops):
            mode = TRACE_MODES[index % len(TRACE_MODES)]
            first_span = len(tracer.spans)
            if mode == "wrapped":
                tracer.install()
            elif mode == "engine_traced":
                for engine in engines:
                    engine.tracing_enabled = True
            before = _channel_totals(engines)
            try:
                chunk, per_client = runner.run_chunk(
                    chunk_ops, tracer if mode == "wrapped" else None, index
                )
            finally:
                tracer.uninstall()
                for engine in engines:
                    engine.tracing_enabled = False
            after = _channel_totals(engines)
            sums["channel_trips"] += after["round_trips"] - before["round_trips"]
            for records in per_client:
                failed += _verify(workload, world, records)
                attempted += len(records)
                mode_ops[mode] += len(records)
                for record in records:
                    if mode == "wrapped":
                        sums["wrapped_statements"] += len(record.results)
                    for result in record.results:
                        sums["saved"] += result.parallel_saved_ms
                        sums["admission"] += result.admission_wait_ms
                        sums["grant"] += result.grant_wait_ms
                        sums["attributed_trips"] += sum(
                            d["round_trips"] for d in result.network.values()
                        )
            mode_ms[mode] += chunk.normalized_ms
            if mode == "wrapped":
                covered_ms += tally.add(tracer.spans[first_span:], chunk.factor)
    finally:
        runner.close()
        tracer.uninstall()
    failed += workload.final_failures(world)

    def cost(mode: str) -> float:
        return mode_ms[mode] / mode_ops[mode]

    coverage = _check_attribution(
        workload, tally, sums["wrapped_statements"],
        covered_ms / mode_ms["wrapped"],
    )

    metrics = tally.metrics()
    metrics.update({
        "execution.saved_sim_ms": sums["saved"] / attempted,
        "governor.admission_wait_sim_ms": sums["admission"] / attempted,
        "governor.grant_wait_sim_ms": sums["grant"] / attempted,
        "observability.attribution_ratio": (
            sums["attributed_trips"] / sums["channel_trips"]
            if sums["channel_trips"] else 1.0
        ),
        "observability.trace_overhead_ratio":
            cost("engine_traced") / cost("plain"),
        "benchmark.wrapper_overhead_ratio": cost("wrapped") / cost("plain"),
    })
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"spans_{workload.name}_seed{workload.seed}.jsonl"
    tracer.write(str(spans_path))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in PER_LAYER_UNITS.items()
        },
    }
    audit = {
        "workload": workload.name,
        "seed": workload.seed,
        "ops": attempted,
        "traced_ops": tally.ops,
        "spans": len(tracer.spans),
        "spans_file": os.path.relpath(spans_path, ROOT),
        "mode_ms_per_op": {mode: cost(mode) for mode in TRACE_MODES},
        "span_kinds": dict(tally.kinds),
        "attribution": coverage,
        "nominal_kernel_ms": NOMINAL_KERNEL_MS,
        "chunks": [c.audit() for c in clock.chunks],
    }
    return result, audit


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steady", type=int, metavar="N",
                        help="steadiness self-check over N seeds")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no engine sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    if args.steady is not None:
        from steady import run_steady

        names = [args.workload] if args.workload else list(WORKLOADS)
        return run_steady(names, args.steady, args.seconds)
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload](args.seed)
    run = run_traced if args.trace else run_end_to_end
    result, audit = run(workload, args.seconds)
    print("perfbench-audit " + json.dumps(audit))
    print(json.dumps(result))
    if result["failed"]:
        print(f"perfbench: {result['failed']} of {result['attempted']} ops "
              "failed verification", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
