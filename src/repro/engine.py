"""The engine: a SQL Server instance with a built-in DHQP.

:class:`ServerInstance` is a complete mini SQL Server: catalog, SQL
front end, Cascades optimizer, execution engine, DML, linked servers,
and (optionally) an attached full-text service.  The same class serves
as the *local* engine of Figure 1 and as each simulated *remote* server
— a remote instance is simply another ServerInstance reachable only
through its OLE DB provider over a simulated network channel.

Typical use::

    engine = ServerInstance("local")
    engine.execute("CREATE TABLE t (id int PRIMARY KEY, name varchar(50))")
    engine.execute("INSERT INTO t VALUES (1, 'one')")
    remote = ServerInstance("remote0")
    engine.add_linked_server("remote0", remote,
                             NetworkChannel("wan", latency_ms=5))
    result = engine.execute(
        "SELECT * FROM remote0.master.dbo.customer c WHERE c.id = 3")
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from contextlib import nullcontext
from typing import Any, Callable, Dict, Optional, Sequence

from repro.algebra.logical import LogicalOp
from repro.core.cost import CostModel
from repro.core.linked_server import LinkedServer
from repro.core.optimizer import OptimizationResult, Optimizer, OptimizerOptions
from repro.core.physical import PhysicalOp, plan_fingerprint
from repro.core.rules.normalization import normalize
from repro.dtc.coordinator import TransactionCoordinator
from repro.errors import (
    BindError,
    ExecutionError,
    ServerUnavailableError,
    SqlError,
    UnknownSetOptionError,
)
from repro.execution.context import ExecutionContext
from repro.execution.executor import execute_plan
from repro.execution.plancache import (
    PlanCache,
    PlanCacheEntry,
    plan_references,
)
from repro.fulltext.service import FullTextService
from repro.governor import ResourceGovernor
from repro.network.channel import (
    NetworkChannel,
    attach_statement_scope,
    current_statement_scope,
    restore_statement_scope,
)
from repro.observability.metrics import MetricsRegistry
from repro.observability.profile import PlanProfiler, render_analyze
from repro.observability.querystore import (
    QueryStore,
    normalize_query_text,
    query_hash,
)
from repro.observability.trace import QueryTrace
from repro.observability.views import QueryStatsEntry, system_view
from repro.oledb.datasource import DataSource
from repro.oledb.rowset import MaterializedRowset, Rowset
from repro.providers.sqlserver import SqlServerDataSource
from repro.resilience.degrade import (
    PartialResultsInfo,
    SkippedPartition,
    prune_unavailable_branches,
    pv_member_tables,
)
from repro.resilience.health import CLOSED, HealthRegistry
from repro.resilience.retry import QueryBudget, RetryPolicy
from repro.session import Session
from repro.sql import ast
from repro.sql.binder import Binder, BoundQuery, FullTextBinding
from repro.sql.parser import parse_sql
from repro.storage.catalog import Catalog, Database, DEFAULT_SCHEMA
from repro.storage.constraints import CheckConstraint, UniqueConstraint
from repro.storage.table import Table
from repro.storage.transactions import LocalTransaction
from repro.types.datatypes import SqlType
from repro.types.schema import Column, Schema


class QueryResult:
    """Result of one statement: rows + metadata + telemetry."""

    def __init__(
        self,
        rows: list[tuple],
        columns: list[str],
        plan: Optional[PhysicalOp] = None,
        optimization: Optional[OptimizationResult] = None,
        context: Optional[ExecutionContext] = None,
        rowcount: Optional[int] = None,
    ):
        self.rows = rows
        self.columns = columns
        self.plan = plan
        self.optimization = optimization
        self.context = context
        #: affected-row count for DML statements
        self.rowcount = rowcount if rowcount is not None else len(rows)
        #: per-operator runtime profile (PlanProfiler) when profiling ran
        self.profile: Optional[PlanProfiler] = None
        #: structured trace (QueryTrace) when tracing was enabled
        self.trace: Optional[QueryTrace] = None
        #: per-linked-server network attribution for this statement:
        #: {server_name: {bytes_sent, bytes_received, round_trips,
        #: simulated_ms, retries, backoff_ms, breaker_trips,
        #: breaker_fast_fails}} — only servers with activity appear
        self.network: Dict[str, Dict[str, float]] = {}
        #: wall-clock time for the whole statement
        self.elapsed_ms: float = 0.0
        #: incomplete-result metadata when PARTIAL_RESULTS degraded the
        #: answer; None means the result is complete
        self.partial: Optional[PartialResultsInfo] = None
        #: bounded mid-query re-optimizations taken after a member died
        self.replans: int = 0
        #: simulated network ms hidden by parallel exchanges (0.0 when
        #: the plan had none); elapsed simulated time for a statement is
        #: sum(network simulated_ms) - parallel_saved_ms
        self.parallel_saved_ms: float = 0.0
        #: highest exchange degree of parallelism the plan actually used
        self.dop: int = 1
        #: "hit" when the plan came from the shared plan cache, "miss"
        #: when it was compiled (and possibly cached) by this
        #: statement, None when the statement was uncacheable
        self.plan_cache_status: Optional[str] = None
        #: the cache key (normalized text, settings fingerprint) the
        #: statement looked up, when cacheable
        self.plan_cache_key: Optional[tuple] = None
        #: id of the session the statement ran under
        self.session_id: Optional[int] = None
        #: workload group the statement was classified into (resource
        #: governor); None for statements that bypassed classification
        self.workload_group: Optional[str] = None
        #: memory the governor leased for this statement's plan (KB);
        #: 0.0 for streaming plans that needed no grant
        self.memory_grant_kb: float = 0.0
        #: simulated ms spent waiting for the memory grant
        self.grant_wait_ms: float = 0.0
        #: simulated ms spent waiting in the admission queue
        self.admission_wait_ms: float = 0.0

    @property
    def is_partial(self) -> bool:
        return self.partial is not None and self.partial.is_partial

    def scalar(self) -> Any:
        """First column of the first row (aggregate shortcuts)."""
        if not self.rows:
            return None
        return self.rows[0][0]

    def as_dicts(self) -> list[dict[str, Any]]:
        return [dict(zip(self.columns, row)) for row in self.rows]

    def to_json(self, indent: Optional[int] = None) -> str:
        """Rows plus whatever telemetry this execution captured."""
        payload: Dict[str, Any] = {
            "columns": list(self.columns),
            "rows": [list(row) for row in self.rows],
            "rowcount": self.rowcount,
            "elapsed_ms": round(self.elapsed_ms, 3),
        }
        if self.network:
            payload["network"] = self.network
        if self.is_partial:
            payload["partial"] = self.partial.as_dict()
        if self.replans:
            payload["replans"] = self.replans
        if self.dop > 1 or self.parallel_saved_ms:
            payload["dop"] = self.dop
            payload["parallel_saved_ms"] = round(self.parallel_saved_ms, 3)
        if self.workload_group is not None:
            payload["workload_group"] = self.workload_group
        if self.memory_grant_kb:
            payload["memory_grant_kb"] = round(self.memory_grant_kb, 1)
            payload["grant_wait_ms"] = round(self.grant_wait_ms, 3)
        if self.admission_wait_ms:
            payload["admission_wait_ms"] = round(self.admission_wait_ms, 3)
        if self.profile is not None and self.plan is not None:
            payload["profile"] = self.profile.as_rows(self.plan)
        if self.trace is not None:
            payload["trace"] = self.trace.as_dict()
        return json.dumps(payload, indent=indent, default=str)

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def __repr__(self) -> str:
        return f"QueryResult({len(self.rows)} rows, columns={self.columns})"


class ServerInstance:
    """A complete server: storage + DHQP + execution."""

    def __init__(
        self,
        name: str = "local",
        optimizer_options: Optional[OptimizerOptions] = None,
        cost_model: Optional[CostModel] = None,
        default_database: str = "master",
    ):
        self.name = name
        self.catalog = Catalog(default_database)
        self.linked_servers: Dict[str, LinkedServer] = {}
        self.optimizer = Optimizer(
            {}, cost_model or CostModel(), optimizer_options
        )
        self.fulltext_service: Optional[FullTextService] = None
        self._fulltext_bindings: Dict[tuple, FullTextBinding] = {}
        self._openrowset_providers: Dict[str, Callable[..., DataSource]] = {}
        self._maketable_providers: Dict[str, DataSource] = {}
        #: Halloween protection switch (E14 flips this off to show why
        #: the spool exists)
        self.halloween_protection = True
        #: always-on instrument registry (sys.dm_os_performance_counters)
        self.metrics = MetricsRegistry(name)
        #: structured tracing switch: off by default; when on, every
        #: execute() gets a QueryTrace with parse/bind/optimize/execute
        #: spans, rule firings and network attribution
        self.tracing_enabled = False
        #: per-operator profiling switch (EXPLAIN ANALYZE profiles
        #: regardless of this flag)
        self.profiling_enabled = False
        #: per-statement aggregates (sys.dm_exec_query_stats), bounded
        self.query_stats: Dict[str, QueryStatsEntry] = {}
        #: plan-level runtime history (sys.query_store_* views); off by
        #: default like tracing — when on, every SELECT's execution is
        #: attributed to (query hash, plan fingerprint) and plan pins
        #: are honored by the optimizer
        self.query_store = QueryStore()
        self.query_store_enabled = False
        self.optimizer.plan_pins = self.query_store.forced_plan_for
        #: per-query timeout budget in simulated network ms (None = off);
        #: when set, every statement gets a QueryBudget and remote
        #: traffic beyond it raises RemoteTimeoutError
        self.query_timeout_ms: Optional[float] = None
        #: per-linked-server circuit breakers on a simulated clock; the
        #: clock ticks once per statement so open breakers admit a
        #: half-open probe after a few statements rather than never
        self.health = HealthRegistry(name)
        self.optimizer.health = self.health
        #: the MS DTC role: crash-safe presumed-abort 2PC with a WAL on
        #: the health registry's simulated clock, so coordinator-log
        #: fsyncs and in-doubt ages share the engine's timeline
        self.dtc = TransactionCoordinator(
            name=f"{name}-dtc", clock=self.health.clock, metrics=self.metrics
        )
        #: one bounded re-optimize-and-replan after a mid-query
        #: ServerUnavailableError (the member's breaker has tripped by
        #: then, so the second plan routes around it)
        self.replan_on_failure = True
        #: sessions: every statement runs under exactly one.  The
        #: default session backs the single-user API (``execute``
        #: without an explicit session, plus the legacy
        #: ``engine.partial_results`` / ``engine.parallel_dop``
        #: attributes, which are now views over it).
        self._sessions_lock = threading.RLock()
        self._session_ids = itertools.count(1)
        self._sessions: Dict[int, Session] = {}
        self._default_session = self.create_session("default")
        #: shared compiled-plan cache: optimized SELECT plans keyed by
        #: normalized text × plan-affecting settings, validated against
        #: schema version / stats generation / breaker state at lookup
        self.plan_cache = PlanCache(metrics=self.metrics)
        self.plan_cache_enabled = True
        #: statistics epoch; bumped by refresh_statistics() so plans
        #: costed on stale statistics recompile
        self._stats_generation = 0
        #: serializes bind+optimize — the Cascades memo, the binder's
        #: column registry and the optimizer's per-query attributes are
        #: single-threaded machinery shared by every session
        self._compile_lock = threading.RLock()
        #: serializes local DML/DDL — the storage engine has no row
        #: latching, so writers take turns (readers run latch-free on
        #: materialized snapshots)
        self._write_lock = threading.RLock()
        #: guards the query_stats dict (shared DMV surface)
        self._stats_lock = threading.RLock()
        #: the Resource Governor: workload groups, memory grants and
        #: admission control.  Fresh engines run everything under the
        #: built-in ``default`` group on an unbounded pool, so the
        #: governor is a pass-through until pools/groups are created.
        self.governor = ResourceGovernor(
            self.health.clock, metrics=self.metrics
        )
        #: lifecycle: close() refuses new statements and drains these
        self._closed = False
        self._inflight = 0
        self._inflight_cond = threading.Condition()

    # ==================================================================
    # lifecycle
    # ==================================================================
    def close(self, timeout_s: float = 5.0) -> None:
        """Shut the engine down: refuse new statements, wait for
        in-flight ones to drain (up to ``timeout_s``), and drop the
        plan cache.  Idempotent; execute() after close raises
        ExecutionError."""
        with self._inflight_cond:
            if self._closed:
                return
            self._closed = True
            deadline = time.monotonic() + timeout_s
            while self._inflight > 0:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                self._inflight_cond.wait(timeout=remaining)
        self.plan_cache.clear()
        self.metrics.set_gauge("engine.closed", 1.0)

    @property
    def closed(self) -> bool:
        return self._closed

    def __enter__(self) -> "ServerInstance":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def _enter_statement(self) -> None:
        with self._inflight_cond:
            if self._closed:
                raise ExecutionError(
                    f"engine {self.name!r} is closed"
                )
            self._inflight += 1

    def _exit_statement(self) -> None:
        with self._inflight_cond:
            self._inflight = max(0, self._inflight - 1)
            self._inflight_cond.notify_all()

    # ==================================================================
    # sessions
    # ==================================================================
    def create_session(self, name: str = "") -> Session:
        """Mint an independent session: its settings (PARALLEL_DOP,
        PARTIAL_RESULTS, collation, active txn) never leak into other
        sessions, so many threads can execute concurrently against
        this one engine (one statement at a time per session)."""
        with self._sessions_lock:
            session_id = next(self._session_ids)
            session = Session(self, session_id, name)
            self._sessions[session_id] = session
        self.metrics.set_gauge("engine.sessions", float(len(self._sessions)))
        return session

    def sessions(self) -> list[Session]:
        with self._sessions_lock:
            return list(self._sessions.values())

    @property
    def partial_results(self) -> bool:
        """Legacy engine-level view of the *default session's*
        PARTIAL_RESULTS setting."""
        return self._default_session.partial_results

    @partial_results.setter
    def partial_results(self, value: bool) -> None:
        self._default_session.partial_results = bool(value)

    @property
    def parallel_dop(self) -> int:
        """Legacy engine-level view of the *default session's*
        PARALLEL_DOP setting."""
        return self._default_session.parallel_dop

    @parallel_dop.setter
    def parallel_dop(self, value: int) -> None:
        self._default_session.parallel_dop = int(value)
        self.optimizer.parallel_dop = int(value)

    # ==================================================================
    # linked servers & providers
    # ==================================================================
    def add_linked_server(
        self,
        name: str,
        target: "ServerInstance | DataSource",
        channel: Optional[NetworkChannel] = None,
        retry_policy: Optional[RetryPolicy] = None,
        **provider_kwargs: Any,
    ) -> LinkedServer:
        """Register a linked server (Section 2.1's sp_addlinkedserver).

        ``target`` may be another :class:`ServerInstance` (wrapped in a
        SQL Server provider) or any pre-built OLE DB DataSource.
        ``retry_policy`` overrides the default retry/backoff applied to
        every remote operation against this server.
        """
        if isinstance(target, ServerInstance):
            datasource: DataSource = SqlServerDataSource(
                target,
                channel=channel or NetworkChannel(name),
                **provider_kwargs,
            )
            datasource.initialize()
        else:
            datasource = target
            if not datasource.initialized:
                datasource.initialize()
        server = LinkedServer(name, datasource, retry_policy=retry_policy)
        # fault/retry/timeout counters from this server's channel land
        # in the engine's registry (sys.dm_os_performance_counters)
        datasource.channel.metrics = self.metrics
        # every remote operation on this server is now gated by the
        # engine's circuit breaker for it
        server.health = self.health
        self.linked_servers[name.lower()] = server
        self.optimizer.register_linked_server(server)
        return server

    def linked_server(self, name: str) -> Optional[LinkedServer]:
        return self.linked_servers.get(name.lower())

    def register_openrowset_provider(
        self, provider_name: str, factory: Callable[..., DataSource]
    ) -> None:
        """factory(datasource, user, password) -> initialized DataSource."""
        self._openrowset_providers[provider_name.lower()] = factory

    def register_maketable_provider(
        self, key: str, datasource: DataSource
    ) -> None:
        """Register a MakeTable() provider (Section 2.4), e.g. 'Mail'."""
        if not datasource.initialized:
            datasource.initialize()
        self._maketable_providers[key.lower()] = datasource

    # ==================================================================
    # full-text integration (Sections 2.2-2.3)
    # ==================================================================
    def attach_fulltext_service(self, service: FullTextService) -> None:
        self.fulltext_service = service
        # OPENROWSET('MSIDXS', <catalog>, '<query>') works out of the box
        from repro.providers.fulltext import FullTextDataSource

        def factory(datasource: str, user: str, password: str) -> DataSource:
            ds = FullTextDataSource(service, datasource)
            ds.initialize()
            return ds

        self.register_openrowset_provider("MSIDXS", factory)

    def create_fulltext_index(
        self,
        table_name: str,
        key_column: str,
        text_column: str,
        catalog_name: Optional[str] = None,
        database: Optional[str] = None,
        schema_name: str = DEFAULT_SCHEMA,
    ) -> None:
        """Create and populate a relational full-text catalog over a
        table's text column (Figure 2's indexing-support half)."""
        if self.fulltext_service is None:
            self.attach_fulltext_service(FullTextService())
        assert self.fulltext_service is not None
        db = self.catalog.database(database)
        table = db.table(table_name, schema_name)
        catalog_name = catalog_name or f"ft_{table_name}"
        catalog = self.fulltext_service.create_catalog(
            catalog_name, "relational"
        )
        key_ordinal = table.schema.ordinal_of(key_column)
        text_ordinal = table.schema.ordinal_of(text_column)
        for row in table.rows():
            catalog.index_row(row[key_ordinal], row[text_ordinal])
        binding = FullTextBinding(
            self.fulltext_service, catalog_name, key_column, text_column
        )
        self._fulltext_bindings[
            (db.name.lower(), schema_name.lower(), table_name.lower())
        ] = binding

    def _maintain_fulltext(
        self, database: Database, schema_name: str, table: Table,
        old_row: Optional[tuple], new_row: Optional[tuple],
    ) -> None:
        binding = self._fulltext_bindings.get(
            (database.name.lower(), schema_name.lower(), table.name.lower())
        )
        if binding is None or self.fulltext_service is None:
            return
        catalog = self.fulltext_service.catalog(binding.catalog_name)
        key_ordinal = table.schema.ordinal_of(binding.key_column)
        text_ordinal = table.schema.ordinal_of(binding.text_column)
        if old_row is not None:
            catalog.remove_row(old_row[key_ordinal])
        if new_row is not None:
            catalog.index_row(new_row[key_ordinal], new_row[text_ordinal])

    # ==================================================================
    # BindContext protocol
    # ==================================================================
    def local_database(self, name: Optional[str]) -> Database:
        return self.catalog.database(name)

    def openrowset_datasource(
        self, provider: str, datasource: str, user: str, password: str
    ) -> DataSource:
        factory = self._openrowset_providers.get(provider.lower())
        if factory is None:
            raise BindError(
                f"no OPENROWSET provider registered as {provider!r}"
            )
        return factory(datasource, user, password)

    def maketable_datasource(self, provider_key: str) -> DataSource:
        ds = self._maketable_providers.get(provider_key.lower())
        if ds is None:
            raise BindError(
                f"no MakeTable provider registered as {provider_key!r}"
            )
        return ds

    def fulltext_binding(
        self, database: str, schema_name: str, table_name: str
    ) -> Optional[FullTextBinding]:
        return self._fulltext_bindings.get(
            (database.lower(), schema_name.lower(), table_name.lower())
        )

    def system_view(self, view_name: str) -> Optional[tuple]:
        """``sys.<view_name>`` DMV snapshot for the binder."""
        return system_view(self, view_name)

    # ==================================================================
    # observability
    # ==================================================================
    def _network_snapshot(self) -> Dict[str, Dict[str, float]]:
        return {
            key: server.channel.stats.snapshot()
            for key, server in self.linked_servers.items()
            if server.channel is not None
        }

    def _network_delta(
        self, before: Dict[str, Dict[str, float]]
    ) -> Dict[str, Dict[str, float]]:
        """Per-server traffic since ``before``, omitting idle servers."""
        out: Dict[str, Dict[str, float]] = {}
        for key, server in self.linked_servers.items():
            channel = server.channel
            if channel is None:
                continue
            base = before.get(key)
            delta = (
                channel.stats.delta(base)
                if base is not None
                else channel.stats.snapshot()
            )
            if any(delta.values()):
                out[server.name] = delta
        return out

    #: bound on distinct statement texts kept in query_stats
    MAX_QUERY_STATS = 256

    def _record_query_stats(
        self,
        sql_text: str,
        result: QueryResult,
        elapsed_ms: float,
        network: Dict[str, Dict[str, float]],
    ) -> None:
        entry = self.query_stats.get(sql_text)
        if entry is None:
            if len(self.query_stats) >= self.MAX_QUERY_STATS:
                self.query_stats.pop(next(iter(self.query_stats)))
            entry = QueryStatsEntry(sql_text)
            self.query_stats[sql_text] = entry
        nbytes = sum(
            int(d["bytes_sent"] + d["bytes_received"])
            for d in network.values()
        )
        trips = sum(int(d["round_trips"]) for d in network.values())
        entry.record(len(result.rows), elapsed_ms, nbytes, trips)

    # ==================================================================
    # SqlBackend protocol (what our own OLE DB provider fronts)
    # ==================================================================
    def execute_sql(self, text: str, txn: Optional[LocalTransaction] = None) -> Rowset:
        result = self.execute(text, txn=txn)
        schema = Schema(
            [Column(name, _infer_result_type(result, i)) for i, name in
             enumerate(result.columns)]
        )
        return MaterializedRowset(schema, result.rows)

    def describe_sql(self, text: str) -> Schema:
        """Bind-only schema discovery (used by command describe)."""
        stmt = parse_sql(text)
        if not isinstance(stmt, ast.SelectStmt):
            raise SqlError("describe_sql expects a SELECT")
        bound = Binder(self).bind_select(stmt)
        return Schema(
            [Column(d.name, d.type, d.nullable) for d in bound.output_defs]
        )

    def begin_transaction(self) -> LocalTransaction:
        return LocalTransaction(f"{self.name}-txn")

    # ==================================================================
    # statement execution
    # ==================================================================
    def execute(
        self,
        sql_text: str,
        params: Optional[Dict[str, Any]] = None,
        txn: Optional[LocalTransaction] = None,
        session: Optional[Session] = None,
    ) -> QueryResult:
        """Parse, plan, and run one SQL statement.

        ``txn`` attaches DML effects to a local transaction branch (the
        path distributed transactions arrive through).  ``session``
        selects whose settings the statement runs under; without one
        the engine's default session is used (the single-user API).

        Every statement is timed and its linked-server traffic is
        attributed by snapshot/diff of the channel counters, so the
        result carries exact ``network`` totals; with
        ``tracing_enabled`` it also carries a structured QueryTrace.
        """
        session = session or self._default_session
        if txn is None:
            txn = session.txn
        trace = QueryTrace(sql_text) if self.tracing_enabled else None
        if trace is not None:
            trace.session_id = session.session_id
        budget = (
            QueryBudget(self.query_timeout_ms)
            if self.query_timeout_ms is not None
            else None
        )
        # -- resource governance: classify, then admit ------------------
        # Admission happens before any work (parse included): an
        # overloaded pool sheds with AdmissionTimeoutError having spent
        # nothing but queue time.
        self._enter_statement()
        group = self.governor.classify(session)
        try:
            ticket = self.governor.admit(group, trace=trace)
        except BaseException:
            self._exit_statement()
            raise
        try:
            started = time.perf_counter()
            before = self._network_snapshot()
            # advance the health clock: open breakers measure their
            # re-probe interval in statements, not wall time
            self.health.tick()
            restore = self._attach_statement_scope(trace, budget)
            try:
                if trace is not None:
                    with trace.span("parse"):
                        stmt = parse_sql(sql_text)
                else:
                    stmt = parse_sql(sql_text)
                result = self._dispatch_statement(
                    stmt, params, txn, trace, sql_text, session, group=group
                )
            finally:
                self._restore_statement_scope(restore)
        finally:
            self.governor.complete(group, ticket)
            self._exit_statement()
        result.workload_group = group.name
        result.admission_wait_ms = ticket.wait_ms
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        network = self._network_delta(before)
        result.network = network
        result.elapsed_ms = elapsed_ms
        result.trace = trace
        result.session_id = session.session_id
        session.statement_count += 1
        if trace is not None:
            for server, delta in network.items():
                trace.network(server, delta)
        with self._stats_lock:
            self._record_query_stats(sql_text, result, elapsed_ms, network)
        if (
            self.query_store_enabled
            and result.plan is not None
            and isinstance(stmt, ast.SelectStmt)
        ):
            self.query_store.record(
                sql_text,
                result.plan,
                len(result.rows),
                elapsed_ms,
                network,
                replans=result.replans,
                partial=result.is_partial,
            )
            self.metrics.increment("query_store.executions")
        self.metrics.increment("engine.statements")
        self.metrics.observe("engine.statement_ms", elapsed_ms)
        return result

    def force_plan(self, query_hash_hex: str, plan_fingerprint: str) -> None:
        """Pin a captured plan for a query (the Query Store's
        ``sp_query_store_force_plan``): the optimizer replays the pinned
        plan on the next execution instead of exploring.  Both arguments
        come from the ``sys.query_store_*`` views."""
        self.query_store.force_plan(query_hash_hex, plan_fingerprint)
        # the pin must win over any already-cached plan for the query
        self.plan_cache.invalidate_query(query_hash_hex, reason="pin")
        self.metrics.increment("query_store.plans_forced")

    def unforce_plan(self, query_hash_hex: str) -> None:
        self.query_store.unforce_plan(query_hash_hex)
        # executions while pinned bypass the cache, but a plan cached
        # *before* the pin existed must not resurface after unpinning
        self.plan_cache.invalidate_query(query_hash_hex, reason="pin")

    def refresh_statistics(self) -> None:
        """Refresh optimizer statistics: remote metadata/cardinality
        caches are dropped and the statistics generation is bumped, so
        every cached plan (costed on the old numbers) recompiles on its
        next execution."""
        for server in self.linked_servers.values():
            server.invalidate_metadata()
        self._stats_generation += 1
        self.plan_cache.invalidate_stale(
            schema_version=self.catalog.schema_version,
            stats_generation=self._stats_generation,
        )
        self.metrics.increment("engine.stats_refreshes")

    def _attach_statement_scope(
        self, trace: Optional[QueryTrace], budget: Optional[QueryBudget]
    ) -> Optional[tuple]:
        """Bind this statement's trace and timeout budget to the
        *calling thread*.  Channels resolve their attribution
        thread-locally (:func:`repro.network.channel.attach_statement_scope`),
        so concurrent sessions streaming through the same shared
        channels never charge each other's trace or budget.  A nested
        execute() that brings nothing new keeps the outer scope; one
        that brings only a trace (or only a budget) inherits the other
        half from the outer statement."""
        if trace is None and budget is None:
            return None
        prior_trace, prior_budget = current_statement_scope()
        return attach_statement_scope(
            trace if trace is not None else prior_trace,
            budget if budget is not None else prior_budget,
        )

    @staticmethod
    def _restore_statement_scope(restore: Optional[tuple]) -> None:
        if restore is not None:
            restore_statement_scope(restore)

    def _dispatch_statement(
        self,
        stmt: ast.Statement,
        params: Optional[Dict[str, Any]],
        txn: Optional[LocalTransaction],
        trace: Optional[QueryTrace],
        sql_text: Optional[str] = None,
        session: Optional[Session] = None,
        group: Optional[Any] = None,
    ) -> QueryResult:
        session = session or self._default_session
        if isinstance(stmt, ast.SelectStmt):
            return self._execute_select(
                stmt, params, trace=trace, sql_text=sql_text,
                session=session, group=group,
            )
        if isinstance(stmt, ast.ExplainStmt):
            return self._execute_explain(
                stmt, params, trace=trace, session=session
            )
        if isinstance(stmt, (ast.InsertStmt, ast.UpdateStmt, ast.DeleteStmt)):
            # the DML statement span: distributed-transaction ``txn``
            # spans (federation/dml.py) parent under it
            verb = type(stmt).__name__[:-4].lower()
            span = (
                trace.span("dml", statement=verb)
                if trace is not None
                else nullcontext()
            )
            with span:
                self._fence_in_doubt_write(stmt.table)
                if isinstance(stmt, ast.InsertStmt):
                    with self._write_lock:
                        result = self._execute_insert(stmt, params, txn)
                elif isinstance(stmt, ast.UpdateStmt):
                    with self._write_lock:
                        result = self._execute_update(stmt, params, txn)
                else:
                    with self._write_lock:
                        result = self._execute_delete(stmt, params, txn)
            self._note_local_write(stmt.table)
            return result
        if isinstance(stmt, ast.CreateTableStmt):
            with self._write_lock:
                result = self._execute_create_table(stmt)
            self._note_ddl()
            return result
        if isinstance(stmt, ast.CreateIndexStmt):
            with self._write_lock:
                result = self._execute_create_index(stmt)
            self._note_ddl()
            return result
        if isinstance(stmt, ast.CreateViewStmt):
            with self._write_lock:
                result = self._execute_create_view(stmt)
            self._note_ddl()
            return result
        if isinstance(stmt, ast.CreateDatabaseStmt):
            with self._write_lock:
                self.catalog.create_database(stmt.name)
            self._note_ddl()
            return QueryResult([], [], rowcount=0)
        if isinstance(stmt, ast.DropTableStmt):
            with self._write_lock:
                database, schema_name, table_name = self._table_target(
                    stmt.table
                )
                database.drop_table(table_name, schema_name)
            self._note_ddl()
            return QueryResult([], [], rowcount=0)
        if isinstance(stmt, ast.SetStmt):
            return self._execute_set(stmt, session)
        raise SqlError(f"unsupported statement {type(stmt).__name__}")

    def _fence_in_doubt_write(self, named: ast.NamedTable) -> None:
        """Refuse a write against a table held by an in-doubt
        distributed transaction — its prepared (undecided) effects are
        visible in storage, so further writes would compound torn state.
        PV DML re-checks per member inside :mod:`repro.federation.dml`.
        """
        if self.dtc.has_in_doubt():
            self.dtc.check_accessible(tables={named.parts[-1]})

    def _note_ddl(self) -> None:
        """A schema change happened: purge every cached plan compiled
        under the previous schema version."""
        self.plan_cache.invalidate_stale(
            schema_version=self.catalog.schema_version,
            stats_generation=self._stats_generation,
        )

    def _note_local_write(self, named: ast.NamedTable) -> None:
        """Row counts changed: plans scanning the written table were
        costed on stale cardinalities, so they recompile."""
        self.plan_cache.invalidate_tables(
            {named.parts[-1].lower()}, reason="stats"
        )

    def _execute_set(
        self, stmt: ast.SetStmt, session: Optional[Session] = None
    ) -> QueryResult:
        """Apply a session setting atomically.

        All validation happens *before* any state mutates, and the
        mutation targets the session — never the engine singleton — so
        a failed ``SET`` (or one racing a concurrent session) can
        neither leave half-applied state behind nor leak into another
        session's statements.
        """
        session = session or self._default_session
        if stmt.option == "partial_results":
            if not isinstance(stmt.value, bool):
                raise SqlError("SET PARTIAL_RESULTS expects ON or OFF")
            session.partial_results = stmt.value
            if session is self._default_session:
                self.metrics.set_gauge(
                    "engine.partial_results", 1.0 if stmt.value else 0.0
                )
            return QueryResult([], [], rowcount=0)
        if stmt.option == "parallel_dop":
            dop = stmt.value
            if isinstance(dop, bool) or not isinstance(dop, int) or dop < 1:
                raise SqlError("SET PARALLEL_DOP expects an integer >= 1")
            session.parallel_dop = dop
            if session is self._default_session:
                self.optimizer.parallel_dop = dop
                self.metrics.set_gauge("engine.parallel_dop", float(dop))
            return QueryResult([], [], rowcount=0)
        if stmt.option == "workload_group":
            if not isinstance(stmt.value, str):
                raise SqlError(
                    "SET WORKLOAD GROUP expects a quoted group name"
                )
            name = stmt.value.lower()
            if name not in self.governor.groups:
                raise SqlError(
                    f"unknown workload group {stmt.value!r}; defined "
                    f"groups are: "
                    f"{', '.join(sorted(self.governor.groups))}"
                )
            session.workload_group = name
            return QueryResult([], [], rowcount=0)
        raise UnknownSetOptionError(
            stmt.option,
            supported=("PARALLEL_DOP", "PARTIAL_RESULTS", "WORKLOAD GROUP"),
        )

    def _execute_explain(
        self,
        stmt: ast.ExplainStmt,
        params: Optional[Dict[str, Any]] = None,
        trace: Optional[QueryTrace] = None,
        session: Optional[Session] = None,
    ) -> QueryResult:
        """EXPLAIN [ANALYZE] [VERBOSE] SELECT ...: one plan-tree line
        per row, plus phase telemetry as trailing rows.

        ANALYZE executes the plan under a profiler and annotates each
        operator with actual rows and open/next/close timings plus the
        statement's per-server network traffic; VERBOSE appends memo
        statistics (groups, expressions, per-rule firing counts).
        EXPLAIN always compiles fresh — it never reads or populates the
        plan cache (its job is to show what compilation would do now).
        """
        session = session or self._default_session
        with self._compile_lock:
            prior_dop = self.optimizer.parallel_dop
            self.optimizer.parallel_dop = session.parallel_dop
            try:
                bound = Binder(self).bind_select(stmt.select)
                optimization = self._optimize_traced(bound.root, trace)
            finally:
                self.optimizer.parallel_dop = prior_dop
        ctx: Optional[ExecutionContext] = None
        profiler: Optional[PlanProfiler] = None
        if stmt.analyze:
            profiler = PlanProfiler()
            # ANALYZE always runs under a trace so remote operators can
            # be annotated from their remote_command child spans, even
            # when engine-wide tracing is off (scoped + restored below)
            run_trace = trace if trace is not None else QueryTrace("explain analyze")
            ctx = ExecutionContext(
                params,
                subquery_executor=self._run_subquery,
                profiler=profiler,
                metrics=self.metrics,
                trace=run_trace,
            )
            restore = (
                self._attach_statement_scope(run_trace, None)
                if trace is None
                else None
            )
            before = self._network_snapshot()
            try:
                execute_plan(optimization.plan, ctx)
            finally:
                self._restore_statement_scope(restore)
            network = self._network_delta(before)
            lines = render_analyze(
                optimization.plan, profiler, network, trace=run_trace
            )
            if stmt.verbose:
                verbose_lines = optimization.explain(verbose=True).splitlines()
                lines.extend(
                    verbose_lines[verbose_lines.index("-- memo --"):]
                )
        else:
            lines = optimization.explain(verbose=stmt.verbose).splitlines()
        lines.append("--")
        for phase in optimization.phase_stats:
            lines.append(
                f"phase {phase.phase}: cost={phase.best_cost:.3f} "
                f"rules={phase.rules_fired} groups={phase.groups_optimized}"
            )
        result = QueryResult(
            [(line,) for line in lines],
            ["plan"],
            optimization.plan,
            optimization,
            ctx,
        )
        result.profile = profiler
        return result

    def _optimize_traced(
        self,
        root: LogicalOp,
        trace: Optional[QueryTrace],
        query_key: Optional[str] = None,
    ) -> OptimizationResult:
        """Optimize with rule-firing events routed to ``trace``.

        ``query_key`` (the statement text, when the Query Store is on)
        lets the optimizer consult plan pins before exploration.
        """
        if trace is None:
            return self.optimizer.optimize(root, query_key=query_key)
        self.optimizer.trace = trace
        try:
            with trace.span("optimize"):
                return self.optimizer.optimize(root, query_key=query_key)
        finally:
            self.optimizer.trace = None

    def plan(
        self, sql_text: str, session: Optional[Session] = None
    ) -> OptimizationResult:
        """Optimize a SELECT without executing it (EXPLAIN).  Always
        compiles fresh, bypassing the plan cache."""
        stmt = parse_sql(sql_text)
        if not isinstance(stmt, ast.SelectStmt):
            raise SqlError("plan() expects a SELECT statement")
        session = session or self._default_session
        with self._compile_lock:
            prior_dop = self.optimizer.parallel_dop
            self.optimizer.parallel_dop = session.parallel_dop
            try:
                bound = Binder(self).bind_select(stmt)
                return self.optimizer.optimize(bound.root)
            finally:
                self.optimizer.parallel_dop = prior_dop

    def _partial_route_around(self, allow_probes: bool):
        """Pruning predicate for partial-results planning.

        The initial plan admits at most ONE probe-due open breaker (so
        half-open probes keep running and a recovered member is folded
        back in), routing around every other open breaker.  The replan
        pass admits none — it must route around everything open, or a
        second synchronized probe window would burn the single replan
        and fail the statement.
        """
        if not allow_probes:
            return self.health.is_open
        probing: list[str] = []

        def route_around(server_name: str) -> bool:
            if self.health.should_route_around(server_name):
                return True
            if self.health.is_open(server_name):  # probe-due
                if probing and server_name not in probing:
                    return True  # one probe per statement
                probing.append(server_name)
            return False

        return route_around

    def _plan_select(
        self,
        stmt: ast.SelectStmt,
        trace: Optional[QueryTrace],
        allow_probes: bool = True,
        sql_text: Optional[str] = None,
        session: Optional[Session] = None,
    ) -> tuple[BoundQuery, OptimizationResult, list[SkippedPartition]]:
        """Bind, optionally prune unreachable PV members, optimize.

        Runs under the compile lock: the Cascades memo and the
        optimizer's per-query attributes (trace, parallel_dop) are
        single-threaded machinery shared by every session, so compiles
        are serialized while executions stay concurrent."""
        session = session or self._default_session
        with self._compile_lock:
            prior_dop = self.optimizer.parallel_dop
            self.optimizer.parallel_dop = session.parallel_dop
            try:
                return self._plan_select_locked(
                    stmt, trace, allow_probes, sql_text, session
                )
            finally:
                self.optimizer.parallel_dop = prior_dop

    def _plan_select_locked(
        self,
        stmt: ast.SelectStmt,
        trace: Optional[QueryTrace],
        allow_probes: bool,
        sql_text: Optional[str],
        session: Session,
    ) -> tuple[BoundQuery, OptimizationResult, list[SkippedPartition]]:
        if trace is not None:
            with trace.span("bind"):
                bound = Binder(self).bind_select(stmt)
        else:
            bound = Binder(self).bind_select(stmt)
        root = bound.root
        skipped: list[SkippedPartition] = []
        if session.partial_results:
            # remember which remote tables are PV members while the
            # unions are still intact, then normalize so static pruning
            # drops branches the predicates contradict — a query routed
            # entirely to live members must not be stamped partial,
            # while one collapsed onto a dead member degrades to empty
            members = pv_member_tables(root)
            root = normalize(root, self.optimizer.normalize_options())
            route_around = self._partial_route_around(allow_probes)
            # members fenced by an in-doubt distributed txn degrade
            # exactly like breaker-open ones, stamped "in_doubt"
            in_doubt = self.dtc.in_doubt_branches()

            def unavailable(server_name: str) -> bool:
                return (
                    server_name.lower() in in_doubt
                    or route_around(server_name)
                )

            def skip_reason(server_name: str) -> str:
                if server_name.lower() in in_doubt:
                    return "in_doubt"
                return "circuit_open"

            root, skipped = prune_unavailable_branches(
                root,
                unavailable,
                pv_members=members,
                reason_for=skip_reason,
            )
            if skipped and trace is not None:
                trace.event(
                    "partial_results_prune",
                    skipped=[s.as_dict() for s in skipped],
                )
        # plan pins are honored on the first plan only: a replan runs
        # because the pinned plan's member just died, so replaying the
        # pin would fail the statement a second time
        query_key = (
            sql_text
            if self.query_store_enabled and sql_text and allow_probes
            else None
        )
        optimization = self._optimize_traced(root, trace, query_key)
        return bound, optimization, skipped

    def _settings_fingerprint(self, session: Session) -> tuple:
        """The plan-affecting settings, and only those, for the cache
        key.  The PARALLEL_DOP *value* is deliberately excluded: plan
        fingerprints are DOP-free and exchanges read the session's
        degree at execution time, so one compiled parallel plan serves
        DOP 2 and DOP 8 alike.  Only parallel *eligibility* (DOP > 1)
        is keyed, because a serial compile contains no exchange at all.
        Optimizer feature switches (remote rules on/off, etc.) are
        included because flipping one legitimately changes the plan."""
        return (
            bool(session.partial_results),
            session.parallel_dop > 1,
            session.collation.name,
            tuple(
                sorted(
                    (key, repr(value))
                    for key, value in vars(self.optimizer.options).items()
                )
            ),
        )

    def _unhealthy_servers(self) -> frozenset:
        """Linked servers whose breaker is not closed right now (open
        or half-open both carry cost penalties and routing changes)."""
        return frozenset(
            breaker.name
            for breaker in self.health.breakers()
            if breaker.state != CLOSED
        )

    def _plan_cache_key(self, sql_text: str, session: Session) -> tuple:
        return (normalize_query_text(sql_text), self._settings_fingerprint(session))

    def _cache_compiled_plan(
        self,
        entry_key: tuple,
        sql_text: str,
        optimization: OptimizationResult,
        output_names: list,
        output_cids: list,
    ) -> None:
        servers, tables = plan_references(optimization.plan)
        self.plan_cache.store(
            PlanCacheEntry(
                key=entry_key,
                query_hash=query_hash(sql_text),
                sql_text=sql_text,
                normalized_text=entry_key[0],
                optimization=optimization,
                output_names=list(output_names),
                output_cids=list(output_cids),
                fingerprint=plan_fingerprint(optimization.plan),
                schema_version=self.catalog.schema_version,
                stats_generation=self._stats_generation,
                unhealthy_servers=self._unhealthy_servers() & servers,
                servers=servers,
                tables=tables,
            )
        )

    def _execute_select(
        self,
        stmt: ast.SelectStmt,
        params: Optional[Dict[str, Any]],
        trace: Optional[QueryTrace] = None,
        sql_text: Optional[str] = None,
        session: Optional[Session] = None,
        group: Optional[Any] = None,
    ) -> QueryResult:
        session = session or self._default_session
        if group is None:
            # nested SELECTs (INSERT..SELECT) arrive without the
            # statement's group; classification is cheap and stable
            group = self.governor.classify(session)
        # -- plan-cache lookup ------------------------------------------
        # Uncacheable: statements without text (nested INSERT..SELECT)
        # and partial-results mode (plans depend on this instant's
        # breaker probe schedule).  DMV reads are refused after binding
        # (see BoundQuery.volatile): they never reach the cache, and
        # their lookup counts as neither hit nor miss.
        cacheable = (
            self.plan_cache_enabled
            and sql_text is not None
            and not session.partial_results
        )
        if cacheable and self.query_store_enabled:
            # a Query Store pin always wins over the cache: pinned
            # queries compile through the pin-replay path every time
            if self.query_store.forced_plan_for(sql_text) is not None:
                cacheable = False
        entry_key: Optional[tuple] = None
        cache_status: Optional[str] = None
        optimization: Optional[OptimizationResult] = None
        output_names: list = []
        output_cids: list = []
        skipped: list[SkippedPartition] = []
        if cacheable:
            entry_key = self._plan_cache_key(sql_text, session)
            entry = self.plan_cache.lookup(
                entry_key,
                schema_version=self.catalog.schema_version,
                stats_generation=self._stats_generation,
                unhealthy_servers=self._unhealthy_servers(),
            )
            if entry is not None:
                cache_status = "hit"
                optimization = entry.optimization
                output_names = entry.output_names
                output_cids = entry.output_cids
                self.metrics.increment("optimizer.explorations_skipped")
                if trace is not None:
                    trace.event(
                        "plan_cache_hit",
                        query_hash=entry.query_hash,
                        fingerprint=entry.fingerprint,
                        hits=entry.hits,
                    )
        if optimization is None:
            if cacheable:
                cache_status = "miss"
            bound, optimization, skipped = self._plan_select(
                stmt, trace, sql_text=sql_text, session=session
            )
            output_names = bound.output_names
            output_cids = [d.cid for d in bound.output_defs]
            if bound.volatile:
                # rows materialized at bind time (DMVs): caching the
                # plan would freeze the snapshot
                cacheable = False
                cache_status = None
            elif cacheable:
                self.plan_cache.note_miss()
            # a plan built against pruned PV members is this statement's
            # private degraded plan, never shared
            if cacheable and not skipped:
                assert entry_key is not None
                self._cache_compiled_plan(
                    entry_key, sql_text, optimization,
                    output_names, output_cids,
                )
        # -- in-doubt fence ---------------------------------------------
        # A statement must not observe effects whose commit/abort fate
        # is undecided.  Partial mode already pruned in-doubt PV members
        # from the plan (stamped "in_doubt" in skipped_partitions), so
        # whatever the plan still references is checked here in both
        # modes — in-doubt local tables and non-PV remote reads fail
        # fast with TransactionInDoubtError.
        if self.dtc.has_in_doubt():
            servers, tables = plan_references(optimization.plan)
            self.dtc.check_accessible(servers=servers, tables=tables)
        profiler = PlanProfiler() if self.profiling_enabled else None
        replans = 0
        max_dop = group.max_dop or None
        ctx = ExecutionContext(
            params,
            subquery_executor=self._run_subquery,
            profiler=profiler,
            metrics=self.metrics,
            trace=trace,
            requested_dop=session.parallel_dop,
            max_dop=max_dop,
        )
        # -- memory grant -----------------------------------------------
        # Leased before execution, released unconditionally after; a
        # replan releases the old plan's grant and leases the new one.
        grant = self.governor.acquire_grant(
            optimization.plan, group, session,
            self.optimizer.cost_model, trace=trace, sql_text=sql_text,
        )
        grant_kb = grant.granted_kb if grant is not None else 0.0
        grant_wait_ms = grant.wait_ms if grant is not None else 0.0
        try:
            try:
                if trace is not None:
                    with trace.span("execute", session=session.session_id):
                        rows = execute_plan(optimization.plan, ctx)
                else:
                    rows = execute_plan(optimization.plan, ctx)
            except ServerUnavailableError as error:
                if not self.replan_on_failure:
                    raise
                # one bounded replan: the dead member's breaker tripped
                # inside run_with_retry, so re-optimization now routes
                # around it (and partial mode prunes its PV branches);
                # already-spooled remote results carry over via the shared
                # spool cache.  A second failure propagates fail-stop.
                # A cached plan that hit this path is stale by definition
                # (it references a member whose breaker just opened), so it
                # is evicted rather than fast-failing the next caller.
                replans = 1
                self.metrics.increment("engine.replans")
                if entry_key is not None:
                    self.plan_cache.invalidate_key(entry_key, reason="breaker")
                if trace is not None:
                    trace.event(
                        "replan",
                        server=getattr(error, "server_name", None),
                        error=f"{type(error).__name__}: {error}",
                    )
                bound, optimization, skipped = self._plan_select(
                    stmt, trace, allow_probes=False, session=session
                )
                output_names = bound.output_names
                output_cids = [d.cid for d in bound.output_defs]
                ctx = ExecutionContext(
                    params,
                    subquery_executor=self._run_subquery,
                    profiler=profiler,
                    metrics=self.metrics,
                    trace=trace,
                    spool_cache=ctx.spool_cache,
                    requested_dop=session.parallel_dop,
                    max_dop=max_dop,
                )
                # the replacement plan needs its own grant; release the
                # old lease first so the swap cannot deadlock the pool
                if grant is not None:
                    grant.release()
                grant = self.governor.acquire_grant(
                    optimization.plan, group, session,
                    self.optimizer.cost_model, trace=trace,
                    sql_text=sql_text,
                )
                grant_kb = grant.granted_kb if grant is not None else 0.0
                if grant is not None:
                    grant_wait_ms += grant.wait_ms
                if trace is not None:
                    with trace.span("execute", session=session.session_id):
                        rows = execute_plan(optimization.plan, ctx)
                else:
                    rows = execute_plan(optimization.plan, ctx)
        finally:
            if grant is not None:
                grant.release()
        # align plan output order with the bound output defs
        rows = _reorder_output(rows, optimization.plan, output_cids)
        result = QueryResult(
            rows, output_names, optimization.plan, optimization, ctx
        )
        result.profile = profiler
        result.replans = replans
        result.parallel_saved_ms = ctx.parallel_saved_ms
        result.dop = max(1, ctx.max_dop_used)
        result.plan_cache_status = cache_status
        result.plan_cache_key = entry_key
        result.workload_group = group.name
        result.memory_grant_kb = grant_kb
        result.grant_wait_ms = grant_wait_ms
        if skipped:
            result.partial = PartialResultsInfo(skipped)
        return result

    def _run_subquery(self, root: LogicalOp) -> list[tuple]:
        with self._compile_lock:
            optimization = self.optimizer.optimize(root)
        ctx = ExecutionContext(
            subquery_executor=self._run_subquery,
            metrics=self.metrics,
        )
        rows = execute_plan(optimization.plan, ctx)
        ids = list(optimization.plan.output_ids())
        wanted = list(root.output_ids())
        if ids != wanted:
            positions = [ids.index(cid) for cid in wanted]
            rows = [tuple(row[p] for p in positions) for row in rows]
        return rows

    # ------------------------------------------------------------------
    # DML
    # ------------------------------------------------------------------
    def _table_target(
        self, named: ast.NamedTable
    ) -> tuple[Database, str, str]:
        parts = list(named.parts)
        database_name: Optional[str] = None
        schema_name = DEFAULT_SCHEMA
        if len(parts) == 3:
            database_name, schema_name, table_name = parts
        elif len(parts) == 2:
            schema_name, table_name = parts
        elif len(parts) == 1:
            (table_name,) = parts
        else:
            raise SqlError("DML targets must be local objects")
        return self.catalog.database(database_name), schema_name, table_name

    def _remote_dml_target(
        self, named: ast.NamedTable
    ) -> Optional[tuple[LinkedServer, str, str, str]]:
        """(server, database, schema, table) for a four-part DML target,
        or None when the target is local."""
        if len(named.parts) != 4:
            return None
        server_name, database_name, schema_name, table_name = named.parts
        server = self.linked_server(server_name)
        if server is None:
            raise BindError(f"unknown linked server {server_name!r}")
        if not server.capabilities.is_sql_provider:
            raise SqlError(
                f"linked server {server_name!r} does not accept SQL DML"
            )
        return server, database_name, schema_name or DEFAULT_SCHEMA, table_name

    def _execute_remote_dml(
        self,
        server: LinkedServer,
        sql_text: str,
        tables: list[tuple[Optional[str], str]],
    ) -> QueryResult:
        """Ship a DML statement to a linked server (Section 1: "query
        AND update capabilities ... natively built into the query
        processor"), with delayed schema validation first.

        Dispatch runs under the server's retry policy: transient faults
        are raised by the channel *before* the remote side executes, so
        a retried statement never double-applies.  A down server raises
        :class:`~repro.errors.ServerUnavailableError` here, before any
        local state changes.
        """
        for database_name, table_name in tables:
            server.validate_schema_version(table_name, database_name)
        server.execute_command(sql_text)
        server.invalidate_metadata()  # remote cardinalities changed
        return QueryResult([], [], rowcount=-1)

    def _execute_insert(
        self,
        stmt: ast.InsertStmt,
        params: Optional[Dict[str, Any]],
        txn: Optional[LocalTransaction] = None,
    ) -> QueryResult:
        remote = self._remote_dml_target(stmt.table)
        if remote is not None:
            return self._remote_insert(remote, stmt, params)
        database, schema_name, table_name = self._table_target(stmt.table)
        view = database.maybe_view(table_name, schema_name)
        if view is not None:
            from repro.federation.dml import insert_into_partitioned_view

            count = insert_into_partitioned_view(
                self, database, schema_name, view, stmt, params
            )
            return QueryResult([], [], rowcount=count)
        table = database.table(table_name, schema_name)
        if stmt.select is not None:
            source = self._execute_select(stmt.select, params)
            raw_rows = source.rows
        else:
            assert stmt.rows is not None
            raw_rows = [
                tuple(self._eval_standalone(expr, params) for expr in row)
                for row in stmt.rows
            ]
        count = 0
        for raw in raw_rows:
            full_row = self._arrange_insert_row(table, stmt.columns, raw)
            table.insert(full_row, txn=txn)
            self._maintain_fulltext(
                database, schema_name, table, None,
                table.schema.validate_row(full_row),
            )
            count += 1
        return QueryResult([], [], rowcount=count)

    @staticmethod
    def _arrange_insert_row(
        table: Table, columns: Optional[list[str]], raw: tuple
    ) -> tuple:
        if columns is None:
            return raw
        if len(columns) != len(raw):
            raise ExecutionError(
                f"INSERT specifies {len(columns)} columns but {len(raw)} values"
            )
        by_name = {c.lower(): v for c, v in zip(columns, raw)}
        out = []
        for column in table.schema:
            out.append(by_name.get(column.name.lower()))
        return tuple(out)

    def _bind_table_predicate(
        self, table: Table, where: Optional[ast.Expr]
    ) -> Optional[Callable]:
        """Compile a WHERE clause against a table's own schema."""
        if where is None:
            return None
        from repro.sql.binder import ColumnRegistry, Scope

        registry = ColumnRegistry()
        defs = [
            registry.mint(c.name, c.type, c.nullable, table.name)
            for c in table.schema
        ]
        scope = Scope()
        scope.add(table.name, defs)
        binder = Binder(self)
        binder.registry = registry
        bound = binder._bind_expr(where, scope)
        layout = {d.cid: i for i, d in enumerate(defs)}
        return bound.compile(layout)

    def _execute_update(
        self,
        stmt: ast.UpdateStmt,
        params: Optional[Dict[str, Any]],
        txn: Optional[LocalTransaction] = None,
    ) -> QueryResult:
        remote = self._remote_dml_target(stmt.table)
        if remote is not None:
            return self._remote_update(remote, stmt, params)
        database, schema_name, table_name = self._table_target(stmt.table)
        view = database.maybe_view(table_name, schema_name)
        if view is not None:
            from repro.federation.dml import update_partitioned_view

            count = update_partitioned_view(
                self, database, schema_name, view, stmt, params
            )
            return QueryResult([], [], rowcount=count)
        table = database.table(table_name, schema_name)
        predicate = self._bind_table_predicate(table, stmt.where)
        assignments = []
        for column_name, expr in stmt.assignments:
            ordinal = table.schema.ordinal_of(column_name)
            assignments.append((ordinal, expr))
        matching = self._collect_matching(table, predicate, params)
        count = 0
        for rid, row in matching:
            new_row = list(row)
            for ordinal, expr in assignments:
                new_row[ordinal] = self._eval_row_expr(
                    table, expr, row, params
                )
            old = table.update(rid, tuple(new_row), txn=txn)
            self._maintain_fulltext(
                database, schema_name, table, old,
                table.schema.validate_row(tuple(new_row)),
            )
            count += 1
        return QueryResult([], [], rowcount=count)

    def _execute_delete(
        self,
        stmt: ast.DeleteStmt,
        params: Optional[Dict[str, Any]],
        txn: Optional[LocalTransaction] = None,
    ) -> QueryResult:
        remote = self._remote_dml_target(stmt.table)
        if remote is not None:
            return self._remote_delete(remote, stmt, params)
        database, schema_name, table_name = self._table_target(stmt.table)
        view = database.maybe_view(table_name, schema_name)
        if view is not None:
            from repro.federation.dml import delete_from_partitioned_view

            count = delete_from_partitioned_view(
                self, database, schema_name, view, stmt, params
            )
            return QueryResult([], [], rowcount=count)
        table = database.table(table_name, schema_name)
        predicate = self._bind_table_predicate(table, stmt.where)
        matching = self._collect_matching(table, predicate, params)
        count = 0
        for rid, row in matching:
            old = table.delete(rid, txn=txn)
            self._maintain_fulltext(
                database, schema_name, table, old, None
            )
            count += 1
        return QueryResult([], [], rowcount=count)

    def _remote_insert(
        self,
        target: tuple[LinkedServer, str, str, str],
        stmt: ast.InsertStmt,
        params: Optional[Dict[str, Any]],
    ) -> QueryResult:
        from repro.federation.dml import _render_value

        server, database_name, schema_name, table_name = target
        if stmt.select is not None:
            source = self._execute_select(stmt.select, params)
            raw_rows = source.rows
        else:
            assert stmt.rows is not None
            raw_rows = [
                tuple(self._eval_standalone(expr, params) for expr in row)
                for row in stmt.rows
            ]
        columns_sql = (
            f" ({', '.join(stmt.columns)})" if stmt.columns else ""
        )
        values_sql = ", ".join(
            "(" + ", ".join(_render_value(v) for v in row) + ")"
            for row in raw_rows
        )
        sql_text = (
            f"INSERT INTO {database_name}.{schema_name}.{table_name}"
            f"{columns_sql} VALUES {values_sql}"
        )
        result = self._execute_remote_dml(
            server, sql_text, [(database_name, table_name)]
        )
        result.rowcount = len(raw_rows)
        return result

    def _remote_update(
        self,
        target: tuple[LinkedServer, str, str, str],
        stmt: ast.UpdateStmt,
        params: Optional[Dict[str, Any]],
    ) -> QueryResult:
        from repro.federation.dml import _render_predicate

        server, database_name, schema_name, table_name = target
        set_sql = ", ".join(
            f"{name} = {_render_predicate(self, expr, params)}"
            for name, expr in stmt.assignments
        )
        where_sql = (
            f" WHERE {_render_predicate(self, stmt.where, params)}"
            if stmt.where is not None
            else ""
        )
        sql_text = (
            f"UPDATE {database_name}.{schema_name}.{table_name} "
            f"SET {set_sql}{where_sql}"
        )
        return self._execute_remote_dml(
            server, sql_text, [(database_name, table_name)]
        )

    def _remote_delete(
        self,
        target: tuple[LinkedServer, str, str, str],
        stmt: ast.DeleteStmt,
        params: Optional[Dict[str, Any]],
    ) -> QueryResult:
        from repro.federation.dml import _render_predicate

        server, database_name, schema_name, table_name = target
        where_sql = (
            f" WHERE {_render_predicate(self, stmt.where, params)}"
            if stmt.where is not None
            else ""
        )
        sql_text = (
            f"DELETE FROM {database_name}.{schema_name}.{table_name}"
            f"{where_sql}"
        )
        return self._execute_remote_dml(
            server, sql_text, [(database_name, table_name)]
        )

    def _collect_matching(
        self,
        table: Table,
        predicate: Optional[Callable],
        params: Optional[Dict[str, Any]],
    ) -> list[tuple[int, tuple]]:
        """Rows a DML statement touches.

        With Halloween protection on (the default), the scan result is
        spooled (materialized) before any modification — Section 4.1.4
        notes the framework must manage such protective spools.
        """
        params = params or {}
        scan = (
            (rid, row)
            for rid, row in table.scan()
            if predicate is None or predicate(row, params) is True
        )
        if self.halloween_protection:
            return list(scan)
        return scan  # type: ignore[return-value]

    def _eval_row_expr(
        self,
        table: Table,
        expr: ast.Expr,
        row: tuple,
        params: Optional[Dict[str, Any]],
    ) -> Any:
        from repro.sql.binder import ColumnRegistry, Scope

        registry = ColumnRegistry()
        defs = [
            registry.mint(c.name, c.type, c.nullable, table.name)
            for c in table.schema
        ]
        scope = Scope()
        scope.add(table.name, defs)
        binder = Binder(self)
        binder.registry = registry
        bound = binder._bind_expr(expr, scope)
        layout = {d.cid: i for i, d in enumerate(defs)}
        return bound.compile(layout)(row, params or {})

    def _eval_standalone(
        self, expr: ast.Expr, params: Optional[Dict[str, Any]]
    ) -> Any:
        binder = Binder(self)
        from repro.sql.binder import Scope

        bound = binder._bind_expr(expr, Scope())
        return bound.compile({})((), params or {})

    # ------------------------------------------------------------------
    # DDL
    # ------------------------------------------------------------------
    def _execute_create_table(self, stmt: ast.CreateTableStmt) -> QueryResult:
        database, schema_name, table_name = self._table_target(stmt.table)
        columns = []
        for definition in stmt.columns:
            columns.append(
                Column(
                    definition.name,
                    _type_from_syntax(definition.type_name, definition.type_arg),
                    nullable=not (definition.not_null or definition.primary_key),
                )
            )
        schema = Schema(columns)
        table = database.create_table(table_name, schema, schema_name)
        for definition in stmt.columns:
            if definition.primary_key:
                table.add_constraint(
                    UniqueConstraint([definition.name], primary_key=True)
                )
            if definition.check is not None:
                table.add_constraint(
                    self._build_check(
                        f"ck_{table_name}_{definition.name}",
                        definition.check,
                        schema,
                    )
                )
        for index, (constraint_name, check_expr) in enumerate(stmt.table_checks):
            table.add_constraint(
                self._build_check(
                    constraint_name or f"ck_{table_name}_{index}",
                    check_expr,
                    schema,
                )
            )
        return QueryResult([], [], rowcount=0)

    def _build_check(
        self, name: str, expr: ast.Expr, schema: Schema
    ) -> CheckConstraint:
        """Bind a CHECK body and derive its symbolic domain when the
        expression constrains a single column with constants."""
        from repro.core.constraints import derive_domains, _domain_of_boolean
        from repro.sql.binder import ColumnRegistry, Scope

        registry = ColumnRegistry()
        defs = [
            registry.mint(c.name, c.type, c.nullable, None) for c in schema
        ]
        scope = Scope()
        scope.add("__check__", defs)
        binder = Binder(self)
        binder.registry = registry
        bound = binder._bind_expr(expr, scope)
        layout = {d.cid: i for i, d in enumerate(defs)}
        compiled = bound.compile(layout)

        def predicate(row: Sequence[Any], table_schema: Schema):
            return compiled(row, {})

        column_name: Optional[str] = None
        domain = None
        implied = _domain_of_boolean(bound)
        if implied is not None:
            cid, domain = implied
            definition = next(d for d in defs if d.cid == cid)
            column_name = definition.name
            # normalize endpoint literals to the column's type so
            # routing/pruning compare like with like
            try:
                domain = domain.map_endpoints(definition.type.validate)
            except Exception:
                pass
        return CheckConstraint(name, predicate, column_name, domain)

    def _execute_create_index(self, stmt: ast.CreateIndexStmt) -> QueryResult:
        database, schema_name, table_name = self._table_target(stmt.table)
        table = database.table(table_name, schema_name)
        table.create_index(stmt.index_name, stmt.columns, stmt.unique)
        # create_index mutates the Table directly; bump the version so
        # cached plans compiled without the index recompile
        database.bump_schema_version()
        return QueryResult([], [], rowcount=0)

    def _execute_create_view(self, stmt: ast.CreateViewStmt) -> QueryResult:
        database, schema_name, view_name = self._table_target(stmt.view)
        parsed = parse_sql(stmt.select_sql)
        is_partitioned = (
            isinstance(parsed, ast.SelectStmt) and bool(parsed.union_all)
        )
        database.create_view(
            view_name, stmt.select_sql, schema_name, is_partitioned
        )
        return QueryResult([], [], rowcount=0)

    def __repr__(self) -> str:
        return f"ServerInstance({self.name})"


# convenient alias: the local engine IS the public entry point
Engine = ServerInstance


def _type_from_syntax(type_name: str, type_arg: Optional[int]) -> SqlType:
    from repro.core.linked_server import type_from_name

    if type_arg is not None:
        return type_from_name(f"{type_name}({type_arg})")
    return type_from_name(type_name)


def _infer_result_type(result: QueryResult, ordinal: int) -> SqlType:
    from repro.types.datatypes import infer_type, varchar

    for row in result.rows:
        if row[ordinal] is not None:
            return infer_type(row[ordinal])
    return varchar()


def _reorder_output(
    rows: list[tuple], plan: PhysicalOp, wanted: list
) -> list[tuple]:
    """Plans may emit columns in a different id order than the query's
    output list (``wanted`` column ids); realign by column id."""
    plan_ids = list(plan.output_ids())
    if plan_ids == list(wanted):
        return rows
    positions = [plan_ids.index(cid) for cid in wanted]
    return [tuple(row[p] for p in positions) for row in rows]
