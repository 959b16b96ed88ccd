"""Shared compiled-plan cache for multi-session engines.

One optimized physical plan is expensive to produce (binding, Cascades
exploration, costing) and cheap to re-execute, so the engine keeps the
result of every cacheable ``SELECT`` compilation in a process-wide
:class:`PlanCache`.  The cache is keyed by *normalized query text* ×
*the plan-affecting settings fingerprint* — and only those.  DOP is
deliberately **not** part of the key: plan fingerprints are DOP-free
(PR 6) and exchange insertion happens during optimization, so a plan
compiled at one DOP is re-optimized only when the settings that can
change the plan *shape* change.

Staleness is validated at lookup time rather than baked into the key:

* ``schema_version`` — the catalog bump counter; any DDL makes every
  plan compiled before it unusable (``invalidations_ddl``).
* ``stats_generation`` — bumped by statistics refreshes and remote
  writes; plans costed on stale statistics recompile
  (``invalidations_stats``).
* ``unhealthy_servers`` — the set of linked servers whose circuit
  breaker was *not closed* at compile time.  A plan compiled while a
  member was dark routes around it; once the breaker recovers (or a
  healthy-compile plan later sees an open breaker) the cached plan no
  longer matches reality and must recompile rather than fast-fail
  (``invalidations_breaker``).
* Query Store pinning — ``force_plan``/``unforce_plan`` evict the
  pinned query so the pin (or its removal) always wins over a stale
  cached plan (``invalidations_pin``).

Thread-safety: every public method takes the internal ``RLock``; the
cache is shared by all sessions of one engine.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Iterable, Optional

__all__ = [
    "PlanCacheEntry",
    "PlanCache",
    "plan_references",
]


def plan_references(plan: Any) -> tuple[frozenset, frozenset]:
    """Walk a physical plan and collect ``(servers, tables)`` it touches.

    ``servers`` holds linked-server names (local reads contribute
    nothing); ``tables`` holds lower-cased unqualified table names so
    DML-driven invalidation can match ``INSERT INTO orders`` against a
    plan scanning ``dbo.orders`` on any member.
    """
    servers: set[str] = set()
    tables: set[str] = set()

    def note_table(qualified: Any) -> None:
        # referenced tables appear as "db.schema.name" strings or as
        # (database, name) tuples depending on the node
        if isinstance(qualified, tuple):
            qualified = qualified[-1]
        tables.add(str(qualified).split(".")[-1].lower())

    for node in plan.walk():
        table = getattr(node, "table", None)
        if table is not None and hasattr(table, "qualified_name"):
            note_table(table.qualified_name)
            server = getattr(table, "server", None)
            if server:
                servers.add(server)
        server_obj = getattr(node, "server", None)
        if server_obj is not None and hasattr(server_obj, "name"):
            servers.add(server_obj.name)
        for referenced in getattr(node, "tables_referenced", ()) or ():
            note_table(referenced)
    return frozenset(servers), frozenset(tables)


@dataclass
class PlanCacheEntry:
    """One compiled plan plus everything needed to validate freshness."""

    key: tuple
    query_hash: str
    sql_text: str
    normalized_text: str
    optimization: Any
    output_names: list
    output_cids: list
    fingerprint: str
    schema_version: int
    stats_generation: int
    unhealthy_servers: frozenset = frozenset()
    servers: frozenset = frozenset()
    tables: frozenset = frozenset()
    hits: int = 0

    @property
    def plan(self) -> Any:
        return self.optimization.plan


class PlanCache:
    """Bounded LRU of :class:`PlanCacheEntry`, shared across sessions."""

    def __init__(self, capacity: int = 128, metrics: Any = None):
        if capacity < 1:
            raise ValueError("plan cache capacity must be >= 1")
        self.capacity = capacity
        self.metrics = metrics
        self._lock = threading.RLock()
        self._entries: "OrderedDict[tuple, PlanCacheEntry]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0
        self.invalidations_by_reason: dict[str, int] = {}

    # -- metrics ------------------------------------------------------------
    def _count(self, name: str, amount: float = 1.0) -> None:
        if self.metrics is not None:
            self.metrics.increment(name, amount)

    def _gauge_size(self) -> None:
        if self.metrics is not None:
            self.metrics.set_gauge("plan_cache.size", float(len(self._entries)))

    def _note_invalidation(self, reason: str, count: int = 1) -> None:
        if count <= 0:
            return
        self.invalidations += count
        self.invalidations_by_reason[reason] = (
            self.invalidations_by_reason.get(reason, 0) + count
        )
        self._count("plan_cache.invalidations", count)
        self._count(f"plan_cache.invalidations_{reason}", count)

    # -- core ---------------------------------------------------------------
    def lookup(
        self,
        key: tuple,
        *,
        schema_version: int,
        stats_generation: int,
        unhealthy_servers: frozenset,
    ) -> Optional[PlanCacheEntry]:
        """Return a fresh entry for ``key`` or ``None``.

        A stale entry is evicted on sight and counted under the reason
        that made it stale, so an invalidation is always attributable.
        A ``None`` is not yet a miss: the caller counts one with
        :meth:`note_miss` once binding shows the statement can be cached
        (a DMV read never can).
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return None
            reason = self._staleness(
                entry,
                schema_version=schema_version,
                stats_generation=stats_generation,
                unhealthy_servers=unhealthy_servers,
            )
            if reason is not None:
                del self._entries[key]
                self._note_invalidation(reason)
                self._gauge_size()
                return None
            self._entries.move_to_end(key)
            entry.hits += 1
            self.hits += 1
            self._count("plan_cache.hits")
            return entry

    def note_miss(self) -> None:
        """Count a lookup that fell through to a full compile."""
        with self._lock:
            self.misses += 1
            self._count("plan_cache.misses")

    @staticmethod
    def _staleness(
        entry: PlanCacheEntry,
        *,
        schema_version: int,
        stats_generation: int,
        unhealthy_servers: frozenset,
    ) -> Optional[str]:
        if entry.schema_version != schema_version:
            return "ddl"
        if entry.stats_generation != stats_generation:
            return "stats"
        if entry.unhealthy_servers != (unhealthy_servers & entry.servers):
            # the health picture the plan was costed under has changed
            # for a member it actually touches — recompile, never
            # fast-fail a plan that routes through a dark member.
            return "breaker"
        return None

    def store(self, entry: PlanCacheEntry) -> None:
        with self._lock:
            if entry.key in self._entries:
                del self._entries[entry.key]
            self._entries[entry.key] = entry
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1
                self._count("plan_cache.evictions")
            self._gauge_size()

    # -- invalidation hooks -------------------------------------------------
    def invalidate_all(self, reason: str) -> int:
        with self._lock:
            dropped = len(self._entries)
            self._entries.clear()
            self._note_invalidation(reason, dropped)
            self._gauge_size()
            return dropped

    def invalidate_stale(
        self, *, schema_version: int, stats_generation: int
    ) -> int:
        """Purge entries compiled under an older schema/stats epoch."""
        with self._lock:
            dropped = 0
            for key in list(self._entries):
                entry = self._entries[key]
                if entry.schema_version != schema_version:
                    del self._entries[key]
                    self._note_invalidation("ddl")
                    dropped += 1
                elif entry.stats_generation != stats_generation:
                    del self._entries[key]
                    self._note_invalidation("stats")
                    dropped += 1
            self._gauge_size()
            return dropped

    def invalidate_tables(self, tables: Iterable[str], reason: str) -> int:
        wanted = {t.lower() for t in tables}
        with self._lock:
            dropped = 0
            for key in list(self._entries):
                if self._entries[key].tables & wanted:
                    del self._entries[key]
                    self._note_invalidation(reason)
                    dropped += 1
            self._gauge_size()
            return dropped

    def invalidate_key(self, key: tuple, reason: str) -> bool:
        with self._lock:
            if key in self._entries:
                del self._entries[key]
                self._note_invalidation(reason)
                self._gauge_size()
                return True
            return False

    def invalidate_query(self, query_hash: str, reason: str) -> int:
        with self._lock:
            dropped = 0
            for key in list(self._entries):
                if self._entries[key].query_hash == query_hash:
                    del self._entries[key]
                    self._note_invalidation(reason)
                    dropped += 1
            self._gauge_size()
            return dropped

    # -- introspection ------------------------------------------------------
    def entries(self) -> list[PlanCacheEntry]:
        with self._lock:
            return list(self._entries.values())

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def hit_rate(self) -> float:
        with self._lock:
            total = self.hits + self.misses
            return self.hits / total if total else 0.0

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._gauge_size()
