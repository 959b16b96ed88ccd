"""Multi-oracle differential execution.

Every generated query runs under several configurations that must agree
row-for-row (as a collation-aware multiset):

=============  ========================================================
``local``      every table in one engine — the semantics reference
               (no network, no remote rules, plain local plans)
``distributed``  tables spread across linked servers, full optimizer
               (remote-query construction, parameterized joins,
               locality grouping, remote spools all enabled)
``ablated``    same topology, remote rules disabled — remote tables
               are fetched whole and all logic runs locally
``faulted``    same topology, plus a seeded FaultInjector on every
               channel and a retry policy that must mask the faults
``traced``     same topology as ``distributed``, with hierarchical
               query tracing AND the Query Store enabled — observers
               must never change answers (no observer effect)
``parallel``   same topology, ``SET PARALLEL_DOP 4`` — exchange
               operators run remote branches in LPT slot order and
               merge sorted ones, which must never change answers
               (DOP invariance)
``cached``     same topology as ``distributed``; every query runs
               *twice* through the same engine — a cold compile, then
               a warm plan-cache hit — and both answers must match
               the reference (a cached plan is not a different plan)
``governed``   same topology, every statement under a constrained
               workload group (small memory pool, MAX_DOP 1, reduced
               grants) — the resource governor may delay or clamp a
               query, never change its answer
=============  ========================================================

The paper's claim under test: DHQP's remote rules participate in
cost-based search *without changing query semantics* — so plans that
ship predicates, build remote queries, probe with parameters, or
retry after transient faults must all return exactly what the
all-local reference returns.

A fifth column, ``partial``, runs when the schema has a remotely-hosted
partitioned view: the first remote member is taken down and
``SET PARTIAL_RESULTS ON`` — for monotonic queries (no TOP, no
aggregation, no direct read of the down member) the degraded answer
must be a *sub-multiset* of the all-local reference: fewer rows is
degradation, different rows is a bug.

A mismatch report carries everything needed to reproduce: the case
seed, the SQL text rendered for each configuration, each
configuration's EXPLAIN output, and the per-server network counters
(retries, backoff, breaker trips/fast-fails) of every configuration
that ran.
"""

from __future__ import annotations

import datetime as dt
import traceback
import zlib
from collections import Counter
from typing import Any, Optional

from repro.engine import Engine, QueryResult, ServerInstance
from repro.core.optimizer import OptimizerOptions
from repro.network.channel import NetworkChannel
from repro.resilience.faults import FaultInjector
from repro.resilience.retry import RetryPolicy
from repro.sql import ast as ast_sql
from repro.testcheck.schema import SchemaSpec, TableSpec, generate_schema
from repro.testcheck.sqlgen import GeneratedQuery, generate_query
from repro.types.collation import DEFAULT_COLLATION
from repro.types.intervals import SortKey

#: configuration names, in the order they run
CONFIGS = (
    "local", "distributed", "ablated", "faulted", "traced", "parallel",
    "cached", "governed",
)


def _stable_hash(text: str) -> int:
    """Process-independent hash (``hash()`` is randomized per run)."""
    return zlib.crc32(text.encode("utf-8"))

#: remote rules switched off for the ``ablated`` oracle
ABLATED_OPTIONS = dict(
    enable_remote_query=False,
    enable_parameterization=False,
    enable_locality_grouping=False,
    enable_spool=False,
)


class OracleWorld:
    """One materialized configuration: engine + name map for rendering."""

    __slots__ = ("name", "engine", "name_map", "channels")

    def __init__(
        self,
        name: str,
        engine: Engine,
        name_map: dict[str, str],
        channels: Optional[dict[str, NetworkChannel]] = None,
    ):
        self.name = name
        self.engine = engine
        self.name_map = name_map
        self.channels = channels or {}

    def run(self, query: GeneratedQuery) -> QueryResult:
        return self.engine.execute(query.render(self.name_map))

    def explain(self, query: GeneratedQuery) -> str:
        try:
            result = self.engine.execute(
                "EXPLAIN " + query.render(self.name_map)
            )
            return "\n".join(row[0] for row in result.rows)
        except Exception as error:  # EXPLAIN must never mask the report
            return f"<explain failed: {type(error).__name__}: {error}>"


def _load_tables(schema: SchemaSpec, host_for) -> dict[str, Engine]:
    """Create and fill every table on its host; returns engines by name."""
    engines: dict[str, Engine] = {"local": Engine("local")}
    for table in schema.tables.values():
        host = host_for(table)
        engine = engines.get(host)
        if engine is None:
            engine = ServerInstance(host)
            engines[host] = engine
        engine.execute(table.ddl())
        storage = engine.catalog.database().table(table.name)
        for row in table.rows:
            storage.insert(row)
    return engines


def _create_view(
    schema: SchemaSpec, local: Engine, host_for
) -> None:
    if schema.view is None:
        return
    branches = []
    for member in schema.view.members:
        host = host_for(member)
        prefix = "" if host == "local" else f"{host}.master.dbo."
        branches.append(f"SELECT * FROM {prefix}{member.name}")
    local.execute(
        f"CREATE VIEW {schema.view.name} AS " + " UNION ALL ".join(branches)
    )


def build_world(
    schema: SchemaSpec,
    config: str,
    fault_seed: int = 0,
    optimizer_options: Optional[OptimizerOptions] = None,
    retry_policy: Optional[RetryPolicy] = None,
) -> OracleWorld:
    """Materialize the schema (tables + data + partitioned view) under
    one oracle configuration."""
    distributed = config != "local"
    host_for = (lambda t: t.host) if distributed else (lambda t: "local")

    if optimizer_options is None and config == "ablated":
        optimizer_options = OptimizerOptions(**ABLATED_OPTIONS)

    engines = _load_tables(schema, host_for)
    local = engines["local"]
    if optimizer_options is not None:
        local.optimizer.options = optimizer_options
    if config == "traced":
        # the observer-effect oracle: full observability on, results
        # must still match the untraced reference row-for-row
        local.tracing_enabled = True
        local.query_store_enabled = True

    channels: dict[str, NetworkChannel] = {}
    if distributed:
        if retry_policy is None and config == "faulted":
            retry_policy = RetryPolicy(
                max_attempts=10, base_backoff_ms=1.0, max_backoff_ms=8.0
            )
        for host, engine in engines.items():
            if host == "local":
                continue
            channel = NetworkChannel(
                f"ch-{host}", latency_ms=0.5, mb_per_second=50
            )
            if config == "faulted":
                channel.fault_injector = FaultInjector(
                    seed=fault_seed + _stable_hash(host) % 1000,
                    transient_rate=0.05,
                    timeout_rate=0.02,
                )
            local.add_linked_server(
                host, engine, channel, retry_policy=retry_policy
            )
            channels[host] = channel
    _create_view(schema, local, host_for)
    if config == "parallel":
        # the DOP-invariance oracle: exchanges above remote branches,
        # answers must still match the serial reference row-for-row
        local.execute("SET PARALLEL_DOP 4")
    if config == "governed":
        # the resource-governor oracle: a constrained group (finite
        # pool, reduced grants, MAX_DOP 1) may delay or clamp every
        # statement but must never change its answer.  The timeout is
        # generous — single-session sequential execution never queues,
        # so nothing can shed.
        local.governor.create_pool(
            "oracle_pool", max_memory_kb=4096.0, max_concurrency=1
        )
        local.governor.create_group(
            "constrained",
            pool="oracle_pool",
            max_dop=1,
            max_memory_grant_pct=50.0,
            request_timeout_ms=10_000.0,
        )
        local.execute("SET WORKLOAD GROUP 'constrained'")

    name_map = {}
    for table in schema.tables.values():
        host = host_for(table)
        name_map[table.name] = (
            table.name if host == "local"
            else f"{host}.master.dbo.{table.name}"
        )
    if schema.view is not None:
        name_map[schema.view.name] = schema.view.name
    return OracleWorld(config, local, name_map, channels)


def build_worlds(
    schema: SchemaSpec, fault_seed: int = 0
) -> dict[str, OracleWorld]:
    return {
        config: build_world(schema, config, fault_seed=fault_seed)
        for config in CONFIGS
    }


# ======================================================================
# the partial-results oracle (degraded-mode subset column)
# ======================================================================

def partial_down_host(schema: SchemaSpec) -> Optional[str]:
    """The partitioned-view member host the partial oracle takes down
    (first remote member host in sorted order), or None when the schema
    has no remotely-hosted view member."""
    if schema.view is None:
        return None
    hosts = sorted(
        {m.host for m in schema.view.members if m.host != "local"}
    )
    return hosts[0] if hosts else None


def build_partial_world(
    schema: SchemaSpec, fault_seed: int = 0
) -> tuple[Optional[OracleWorld], Optional[str]]:
    """A fifth world: distributed topology, one PV member down, and
    ``SET PARTIAL_RESULTS ON`` — its answers must be sub-multisets of
    the all-local reference, never wrong rows."""
    down_host = partial_down_host(schema)
    if down_host is None:
        return None, None
    world = build_world(schema, "partial", fault_seed=fault_seed)
    # warm every member's metadata while healthy: delayed schema
    # validation then lets degraded queries still compile
    world.engine.execute(f"SELECT * FROM {schema.view.name}")
    world.channels[down_host].fault_injector = FaultInjector(
        seed=fault_seed, down=True
    )
    world.engine.execute("SET PARTIAL_RESULTS ON")
    return world, down_host


def eligible_for_partial(
    schema: SchemaSpec, query: GeneratedQuery, down_host: str
) -> bool:
    """The subset property only holds for monotonic queries: no TOP, no
    aggregation (a COUNT over fewer partitions is a *different* number,
    not a subset), and no base table hosted on the down member (those
    reads have no healthy sibling and stay fail-stop)."""
    if query.has_top:
        return False
    stmt = query.stmt
    if stmt.group_by or stmt.having is not None:
        return False
    for item in stmt.items:
        if isinstance(getattr(item, "expr", None), ast_sql.FuncExpr):
            return False
    for name in query.tables:
        table = schema.tables.get(name)
        if table is not None and table.host == down_host:
            return False
    return True


def is_sub_multiset(sub: list[tuple], sup: list[tuple]) -> bool:
    """Canonical multiset inclusion: every row of ``sub`` appears in
    ``sup`` at least as many times."""
    sub_counts = Counter(canonical_rows(sub))
    sup_counts = Counter(canonical_rows(sup))
    return all(
        count <= sup_counts[row] for row, count in sub_counts.items()
    )


# ======================================================================
# collation-aware multiset equality
# ======================================================================

def canonical_value(value: Any) -> tuple:
    """Total-orderable canonical form: NULL < numbers < temporals <
    strings; strings fold per the default collation; floats round to 9
    significant digits so plan-dependent summation order can't produce
    spurious last-ulp mismatches."""
    if value is None:
        return (0, "")
    if isinstance(value, bool):
        return (1, float(int(value)))
    if isinstance(value, (int, float)):
        return (1, float(f"{float(value):.9g}"))
    if isinstance(value, dt.datetime):
        return (2, value.isoformat())
    if isinstance(value, dt.date):
        return (2, value.isoformat())
    if isinstance(value, str):
        return (3, DEFAULT_COLLATION.normalize(value))
    return (4, repr(value))


def canonical_rows(rows: list[tuple]) -> list[tuple]:
    """Sorted canonical multiset of a result rowset."""
    return sorted(
        tuple(canonical_value(v) for v in row) for row in rows
    )


def rowsets_equal(a: list[tuple], b: list[tuple]) -> bool:
    return canonical_rows(a) == canonical_rows(b)


def is_sorted_by(
    rows: list[tuple], order_keys: list[tuple[int, bool]]
) -> bool:
    """Whether ``rows`` respects the ORDER BY keys (ties free)."""
    for previous, current in zip(rows, rows[1:]):
        for ordinal, ascending in order_keys:
            lo, hi = SortKey(previous[ordinal]), SortKey(current[ordinal])
            if lo == hi:
                continue
            if (lo < hi) != ascending:
                return False
            break
    return True


# ======================================================================
# mismatch reporting
# ======================================================================

def _sample(rows: list[tuple], limit: int = 8) -> str:
    shown = [repr(r) for r in rows[:limit]]
    if len(rows) > limit:
        shown.append(f"... ({len(rows)} rows total)")
    return "\n    ".join(shown) if shown else "<empty>"


class Mismatch:
    """One differential failure, with everything needed to reproduce."""

    def __init__(
        self,
        case_id: str,
        kind: str,
        config: str,
        detail: str,
        sql_by_config: dict[str, str],
        explain_by_config: dict[str, str],
        reference_rows: list[tuple],
        actual_rows: list[tuple],
        network_by_config: Optional[dict[str, dict]] = None,
        trace_payload: Optional[dict] = None,
        cache_info: Optional[dict] = None,
    ):
        self.case_id = case_id
        #: 'rows' (multiset differs), 'order' (ORDER BY violated),
        #: 'partial' (degraded answer not a subset of the reference),
        #: 'cache' (warm rerun missed the plan cache or diverged),
        #: 'error' (a configuration raised), or 'atomic' (crash-injected
        #: DML left a partitioned view torn, readable while in doubt,
        #: or unresolved after recovery — see testcheck/atomic.py)
        self.kind = kind
        self.config = config
        self.detail = detail
        self.sql_by_config = sql_by_config
        self.explain_by_config = explain_by_config
        self.reference_rows = reference_rows
        self.actual_rows = actual_rows
        #: per-config network attribution (retries, backoff, breaker
        #: trips/fast-fails per server) — whether a config was retrying
        #: or fast-failing is often the whole story of a mismatch
        self.network_by_config = network_by_config or {}
        #: the traced configuration's span tree (QueryTrace.as_dict()),
        #: when that configuration got far enough to produce one — CI
        #: writes it next to the mismatch report as a trace artifact
        self.trace_payload = trace_payload
        #: the ``cached`` configuration's plan-cache evidence — the
        #: cache key plus the cold/warm hit-miss statuses — so a cache
        #: bug report pins down exactly which entry went wrong
        self.cache_info = cache_info or {}

    def describe(self) -> str:
        lines = [
            f"=== MISMATCH case {self.case_id} "
            f"[{self.kind}] config={self.config} ===",
            self.detail,
            f"repro: python tools/diffcheck.py --repro {self.case_id}",
            "",
        ]
        for config, sql in self.sql_by_config.items():
            lines.append(f"-- SQL [{config}] --")
            lines.append(f"  {sql}")
        lines.append("")
        lines.append(f"reference rows:\n    {_sample(self.reference_rows)}")
        lines.append(
            f"{self.config} rows:\n    {_sample(self.actual_rows)}"
        )
        lines.append("")
        for config, network in self.network_by_config.items():
            for server, stats in network.items():
                interesting = {
                    key: value
                    for key, value in stats.items()
                    if key in (
                        "retries", "backoff_ms",
                        "breaker_trips", "breaker_fast_fails",
                    ) and value
                }
                if interesting:
                    lines.append(
                        f"-- network [{config}/{server}] -- {interesting}"
                    )
        if self.cache_info:
            lines.append(f"-- plan cache [cached] -- {self.cache_info}")
        for config, plan in self.explain_by_config.items():
            lines.append(f"-- EXPLAIN [{config}] --")
            lines.extend(f"  {line}" for line in plan.splitlines())
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"Mismatch({self.case_id}, {self.kind}, {self.config})"


class DiffReport:
    """Outcome of one differential run."""

    def __init__(self) -> None:
        self.cases_run = 0
        self.mismatches: list[Mismatch] = []

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def describe(self) -> str:
        if self.ok:
            return f"diffcheck: {self.cases_run} cases, all oracles agree"
        parts = [
            f"diffcheck: {len(self.mismatches)} mismatch(es) "
            f"in {self.cases_run} cases",
            "",
        ]
        parts += [m.describe() for m in self.mismatches]
        return "\n".join(parts)


# ======================================================================
# the runner
# ======================================================================

#: queries drawn from each generated schema before moving to the next
QUERIES_PER_SCHEMA = 10


def case_id(schema_seed: int, query_index: int) -> str:
    return f"{schema_seed}:{query_index}"


def parse_case_id(text: str) -> tuple[int, int]:
    schema_seed, _, query_index = text.partition(":")
    return int(schema_seed), int(query_index or 0)


class DifferentialRunner:
    """Seeded fuzz driver: schemas -> queries -> oracle matrix."""

    def __init__(
        self,
        seed: int,
        queries_per_schema: int = QUERIES_PER_SCHEMA,
        collect_explains: bool = True,
    ):
        self.seed = seed
        self.queries_per_schema = queries_per_schema
        self.collect_explains = collect_explains

    # -- single case -------------------------------------------------------
    def check_case(
        self,
        worlds: dict[str, OracleWorld],
        query: GeneratedQuery,
        cid: str,
        partial_world: Optional[OracleWorld] = None,
    ) -> Optional[Mismatch]:
        sql_by_config = {
            name: query.render(world.name_map)
            for name, world in worlds.items()
        }
        if partial_world is not None:
            sql_by_config["partial"] = query.render(partial_world.name_map)

        def explains() -> dict[str, str]:
            if not self.collect_explains:
                return {}
            return {
                name: world.explain(query)
                for name, world in worlds.items()
            }

        results: dict[str, QueryResult] = {}

        def networks() -> dict[str, dict]:
            return {
                name: result.network
                for name, result in results.items()
                if result.network
            }

        def traced_trace() -> Optional[dict]:
            result = results.get("traced")
            if result is not None and result.trace is not None:
                return result.trace.as_dict()
            return None

        def cache_info() -> dict:
            """Plan-cache evidence from the ``cached`` configuration's
            runs so far: the cache key plus each run's hit/miss flag."""
            info: dict = {}
            cold = results.get("cached")
            if cold is not None:
                info["cache_key"] = cold.plan_cache_key
                info["cold"] = cold.plan_cache_status
            warm = results.get("cached-warm")
            if warm is not None:
                info["warm"] = warm.plan_cache_status
            return info

        for name, world in worlds.items():
            if name == "faulted":
                # per-case deterministic fault stream, independent of
                # whatever ran before (so --repro replays exactly)
                for channel in world.channels.values():
                    if channel.fault_injector is not None:
                        channel.fault_injector.reset(
                            seed=_stable_hash(f"{cid}/{channel.name}")
                        )
            try:
                results[name] = world.run(query)
            except Exception:
                return Mismatch(
                    cid, "error", name,
                    f"configuration raised:\n{traceback.format_exc()}",
                    sql_by_config, explains(),
                    results.get("local").rows if "local" in results else [],
                    [],
                    network_by_config=networks(),
                    trace_payload=traced_trace(),
                )

        reference = results["local"]
        for name in CONFIGS[1:]:
            actual = results[name]
            if not rowsets_equal(reference.rows, actual.rows):
                return Mismatch(
                    cid, "rows", name,
                    f"result multiset differs from the all-local "
                    f"reference ({len(reference.rows)} vs "
                    f"{len(actual.rows)} rows)",
                    sql_by_config, explains(),
                    reference.rows, actual.rows,
                    network_by_config=networks(),
                    trace_payload=traced_trace(),
                    cache_info=cache_info(),
                )
        if query.order_keys:
            for name, result in results.items():
                if not is_sorted_by(result.rows, query.order_keys):
                    return Mismatch(
                        cid, "order", name,
                        f"rows violate ORDER BY keys "
                        f"{query.order_keys}",
                        sql_by_config, explains(),
                        reference.rows, result.rows,
                        network_by_config=networks(),
                    trace_payload=traced_trace(),
                    )
        if "cached" in worlds:
            # the plan-cache oracle's second leg: the same SQL through
            # the same engine again must (a) hit the shared plan cache
            # and (b) return the reference answer from the cached plan
            try:
                results["cached-warm"] = worlds["cached"].run(query)
            except Exception:
                return Mismatch(
                    cid, "cache", "cached",
                    f"warm rerun through the plan cache raised:\n"
                    f"{traceback.format_exc()}",
                    sql_by_config, explains(),
                    reference.rows, [],
                    network_by_config=networks(),
                    trace_payload=traced_trace(),
                    cache_info=cache_info(),
                )
            warm = results["cached-warm"]
            if warm.plan_cache_status != "hit":
                return Mismatch(
                    cid, "cache", "cached",
                    f"warm rerun did not hit the plan cache "
                    f"(status={warm.plan_cache_status!r})",
                    sql_by_config, explains(),
                    reference.rows, warm.rows,
                    network_by_config=networks(),
                    trace_payload=traced_trace(),
                    cache_info=cache_info(),
                )
            if not rowsets_equal(reference.rows, warm.rows):
                return Mismatch(
                    cid, "cache", "cached",
                    f"cache-hit answer differs from the all-local "
                    f"reference ({len(reference.rows)} vs "
                    f"{len(warm.rows)} rows)",
                    sql_by_config, explains(),
                    reference.rows, warm.rows,
                    network_by_config=networks(),
                    trace_payload=traced_trace(),
                    cache_info=cache_info(),
                )
            if query.order_keys and not is_sorted_by(
                warm.rows, query.order_keys
            ):
                return Mismatch(
                    cid, "cache", "cached",
                    f"cache-hit rows violate ORDER BY keys "
                    f"{query.order_keys}",
                    sql_by_config, explains(),
                    reference.rows, warm.rows,
                    network_by_config=networks(),
                    trace_payload=traced_trace(),
                    cache_info=cache_info(),
                )
        if partial_world is not None:
            try:
                results["partial"] = partial_world.run(query)
            except Exception:
                return Mismatch(
                    cid, "partial", "partial",
                    f"partial-results configuration raised instead of "
                    f"degrading:\n{traceback.format_exc()}",
                    sql_by_config, explains(),
                    reference.rows, [],
                    network_by_config=networks(),
                    trace_payload=traced_trace(),
                )
            degraded = results["partial"]
            if not is_sub_multiset(degraded.rows, reference.rows):
                return Mismatch(
                    cid, "partial", "partial",
                    f"degraded answer is not a sub-multiset of the "
                    f"all-local reference ({len(degraded.rows)} vs "
                    f"{len(reference.rows)} rows)",
                    sql_by_config, explains(),
                    reference.rows, degraded.rows,
                    network_by_config=networks(),
                    trace_payload=traced_trace(),
                )
        return None

    def run_case(self, schema_seed: int, query_index: int) -> Optional[Mismatch]:
        """Build the oracle worlds for one schema and run one query —
        the ``--repro`` path."""
        schema = generate_schema(schema_seed)
        worlds = build_worlds(schema, fault_seed=schema_seed)
        partial_world, down_host = build_partial_world(
            schema, fault_seed=schema_seed
        )
        query = generate_query(
            schema, schema_seed * 10_000 + query_index
        )
        if partial_world is not None and not eligible_for_partial(
            schema, query, down_host
        ):
            partial_world = None
        return self.check_case(
            worlds, query, case_id(schema_seed, query_index),
            partial_world=partial_world,
        )

    # -- batch -------------------------------------------------------------
    def run(self, n_queries: int, progress=None) -> DiffReport:
        report = DiffReport()
        remaining = n_queries
        schema_index = 0
        while remaining > 0:
            schema_seed = self.seed + schema_index
            schema = generate_schema(schema_seed)
            worlds = build_worlds(schema, fault_seed=schema_seed)
            partial_world, down_host = build_partial_world(
                schema, fault_seed=schema_seed
            )
            batch = min(remaining, self.queries_per_schema)
            for query_index in range(batch):
                query = generate_query(
                    schema, schema_seed * 10_000 + query_index
                )
                cid = case_id(schema_seed, query_index)
                eligible = partial_world is not None and eligible_for_partial(
                    schema, query, down_host
                )
                mismatch = self.check_case(
                    worlds, query, cid,
                    partial_world=partial_world if eligible else None,
                )
                report.cases_run += 1
                if mismatch is not None:
                    report.mismatches.append(mismatch)
            if progress is not None:
                progress(schema_seed, report)
            remaining -= batch
            schema_index += 1
        return report
