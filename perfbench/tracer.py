"""Runtime span tracer for the traced benchmark run.

The tracer wraps the public entry points of each layer from outside the
program (attribute patching, undone by :meth:`Tracer.uninstall`), so
``src/`` carries no benchmark code.  Every call becomes a span — kind,
start, end, parent span, op id, thread — held in memory and written out
when the run ends.

Self time: within one thread a span's self time is its interval minus
its same-thread children.  Across threads (exchange workers streaming
member results while the client thread merges) the op's instants are
shared equally among the innermost spans open on each thread at that
instant.  So per op, the self times of all buckets, plus the op root's
own share (``engine.residual_ms``), add up to the op's traced time by
construction.  What that sum cannot show is time no span covers or no
op owns; :class:`LayerTally` keeps the figures that do show it (span
counts per kind, top-level parses, time outside every op) for the
checks in ``run.py``.

Spans opened inside a member's ``ServerInstance.execute_sql`` by the
coordinator-pipeline layers (parse, bind, optimize, plan cache,
governor, execute, metadata, federation DML) count toward
``providers.member_ms``; the shared layers underneath (storage, network,
stats, dtc) keep their own buckets wherever they run.
"""

from __future__ import annotations

import importlib
import json
import sys
import threading
import time
from collections import Counter
from typing import Any, Optional

#: (module, class or None, attribute, span kind).  A module-level
#: function is named in the module that defines it; :meth:`Tracer.install`
#: also patches every ``repro`` module that imported it by name (the
#: engine, the binder and the partitioned-view code each hold their own
#: ``parse_sql``).
TARGETS = (
    ("repro.sql.parser", None, "parse_sql", "parse"),
    ("repro.sql.binder", "Binder", "bind_select", "bind"),
    ("repro.core.optimizer", "Optimizer", "optimize", "optimize"),
    ("repro.execution.plancache", "PlanCache", "lookup", "plancache"),
    ("repro.governor", "ResourceGovernor", "admit", "admit"),
    ("repro.execution.executor", None, "execute_plan", "execute"),
    ("repro.network.channel", "NetworkChannel", "send_command", "send"),
    ("repro.network.channel", "NetworkChannel", "stream_rows", "stream"),
    ("repro.engine", "ServerInstance", "execute_sql", "member"),
    ("repro.core.linked_server", "LinkedServer", "table_info", "metadata"),
    ("repro.core.linked_server", "LinkedServer", "validate_schema_version",
     "metadata"),
    ("repro.stats.table_stats", "TableStatistics", "build", "stats"),
    ("repro.dtc.coordinator", "TransactionCoordinator", "commit", "dtc"),
    ("repro.dtc.log", "CoordinatorLog", "flush", "fsync"),
    ("repro.storage.table", "Table", "insert", "insert"),
    ("repro.federation.dml", None, "insert_into_partitioned_view", "dml"),
)

#: span kind -> self-time bucket (a per-layer metric name)
BUCKETS = {
    "op": "engine.residual_ms",
    "parse": "sql.parse_ms",
    "bind": "sql.bind_ms",
    "optimize": "core.optimize_ms",
    "metadata": "core.metadata_ms",
    "stats": "stats.build_ms",
    "plancache": "plancache.lookup_ms",
    "member": "providers.member_ms",
    "execute": "execution.execute_self_ms",
    "send": "network.send_ms",
    "stream": "network.stream_ms",
    "admit": "governor.admit_ms",
    "dtc": "dtc.commit_ms",
    "fsync": "dtc.commit_ms",
    "dml": "federation.dml_ms",
    "insert": "storage.insert_ms",
}

#: coordinator-pipeline kinds that fold into providers inside a member
FOLDED_IN_MEMBER = frozenset(
    {"parse", "bind", "optimize", "metadata", "plancache", "admit",
     "execute", "dml"}
)

# span record slots (a list per span keeps the hot path allocation-light)
KIND, START, END, PARENT, OP, THREAD, IN_MEMBER, NOTE = range(8)


def _importers(fn, home) -> list:
    """``(module, name)`` for every loaded ``repro`` module other than
    ``home`` that holds ``fn`` under some name."""
    found = []
    for name, module in list(sys.modules.items()):
        if module is home or not name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is fn:
                found.append((module, attr))
    return found


def bucket_of(span: list) -> str:
    if span[IN_MEMBER] and span[KIND] in FOLDED_IN_MEMBER:
        return "providers.member_ms"
    return BUCKETS[span[KIND]]


class Tracer:
    """Collects spans while installed; see the module docstring."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._local = threading.local()
        self._ops_lock = threading.Lock()
        #: op id -> root span, for ops in flight
        self._in_flight: dict[Any, list] = {}
        self._saved: list[tuple] = []

    # -- span bookkeeping ---------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self, kind: str) -> list:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            # a thread with no open span is an exchange worker: it works
            # for the op in flight (one per client thread; unattributed
            # when several are in flight)
            with self._ops_lock:
                in_flight = list(self._in_flight.values())
            parent = in_flight[0] if len(in_flight) == 1 else None
        in_member = parent is not None and (
            parent[IN_MEMBER] or parent[KIND] == "member"
        )
        span = [
            kind, time.perf_counter(), 0.0, parent,
            parent[OP] if parent is not None else None,
            threading.get_ident(), in_member, 0,
        ]
        stack.append(span)
        return span

    def exit(self, span: list) -> None:
        span[END] = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)

    def op_begin(self, op_id: Any) -> list:
        span = ["op", time.perf_counter(), 0.0, None, op_id,
                threading.get_ident(), False, 0]
        self._stack().append(span)
        with self._ops_lock:
            self._in_flight[op_id] = span
        return span

    def op_end(self, span: list) -> None:
        with self._ops_lock:
            del self._in_flight[span[OP]]
        self.exit(span)

    # -- wrappers -----------------------------------------------------------
    def _wrap(self, kind: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            span = tracer.enter(kind)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit(span)
            if kind == "plancache":
                span[NOTE] = result is not None
            elif kind == "stats":
                span[NOTE] = len(result.columns)
            elif kind == "execute":
                span[NOTE] = len(result)
            return result

        return traced

    def _wrap_stream(self, fn):
        tracer = self

        def traced_stream(*args, **kwargs):
            return tracer._timed_rows(fn(*args, **kwargs))

        return traced_stream

    def _timed_rows(self, rows):
        """Re-yield ``rows`` with each ``next`` as one stream span."""
        try:
            while True:
                span = self.enter("stream")
                try:
                    row = next(rows)
                except StopIteration:
                    return
                finally:
                    self.exit(span)
                span[NOTE] = 1
                yield row
        finally:
            rows.close()

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module_name, class_name, attr, kind in TARGETS:
            owner = importlib.import_module(module_name)
            if class_name is not None:
                owner = getattr(owner, class_name)
            raw = owner.__dict__[attr]
            if isinstance(raw, staticmethod):
                patched = staticmethod(self._wrap(kind, raw.__func__))
            elif kind == "stream":
                patched = self._wrap_stream(raw)
            else:
                patched = self._wrap(kind, raw)
            holders = [(owner, attr)]
            if class_name is None:
                holders += _importers(raw, owner)
            for holder, name in holders:
                self._saved.append((holder, name, raw))
                setattr(holder, name, patched)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    # -- output -------------------------------------------------------------
    def write(self, path: str) -> None:
        """One JSON array per span: id, kind, start ms, end ms, parent
        id, op id, thread, in-member flag (times relative to the first
        span)."""
        ids = {id(span): i for i, span in enumerate(self.spans)}
        origin = min((s[START] for s in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as out:
            for i, span in enumerate(self.spans):
                parent = span[PARENT]
                out.write(json.dumps([
                    i, span[KIND],
                    round((span[START] - origin) * 1000.0, 6),
                    round((span[END] - origin) * 1000.0, 6),
                    ids.get(id(parent)) if parent is not None else None,
                    span[OP], span[THREAD], span[IN_MEMBER],
                ]) + "\n")


def self_times(op_span: list, spans: list[list]) -> tuple[dict, float]:
    """Split one op's traced time (seconds) into buckets.

    ``spans`` are the op's spans other than ``op_span``.  Each thread's
    spans are reduced to the segments where each span is innermost on
    that thread; overlapping segments of different threads then share
    their overlap equally.  Everything is clipped to the op interval,
    so the buckets sum to the op's duration; the second value is the
    span time (seconds) that clipping dropped.
    """
    lo, hi = op_span[START], op_span[END]
    children: dict[int, list] = {}
    roots: list[list] = [op_span]
    for span in spans:
        parent = span[PARENT]
        if parent is not None and parent[THREAD] == span[THREAD]:
            children.setdefault(id(parent), []).append(span)
        else:
            roots.append(span)
    segments: list[tuple] = []  # (start, end, bucket)

    def innermost(span: list) -> None:
        cursor = span[START]
        bucket = bucket_of(span)
        for child in sorted(children.get(id(span), ()), key=lambda s: s[START]):
            if child[START] > cursor:
                segments.append((cursor, child[START], bucket))
            innermost(child)
            cursor = max(cursor, child[END])
        if span[END] > cursor:
            segments.append((cursor, span[END], bucket))

    for root in roots:
        innermost(root)
    events = []
    clipped = 0.0
    for index, (start, end, __) in enumerate(segments):
        clipped += end - start
        start, end = max(start, lo), min(end, hi)
        if end > start:
            clipped -= end - start
            events.append((start, 1, index))
            events.append((end, -1, index))
    events.sort()
    out: dict[str, float] = {}
    active: set = set()
    previous: Optional[float] = None
    for at, step, index in events:
        if active and previous is not None and at > previous:
            share = (at - previous) / len(active)
            for seg in active:
                bucket = segments[seg][2]
                out[bucket] = out.get(bucket, 0.0) + share
        previous = at
        if step > 0:
            active.add(index)
        else:
            active.discard(index)
    return out, clipped


class LayerTally:
    """Per-layer totals over the traced ops of a run.

    ``add`` takes the spans one chunk produced and the chunk's
    reference-speed factor; ``metrics`` turns the totals into per-op
    figures.  Counts for the coordinator (parse, optimize, plan cache,
    rows) skip spans inside a member; ``member_*`` count the members'
    own plan-cache lookups.
    """

    def __init__(self) -> None:
        self.ops = 0
        self.op_ms = 0.0
        self.bucket_ms = {name: 0.0 for name in dict.fromkeys(BUCKETS.values())}
        self.counts = dict.fromkeys(
            ("parse", "optimize", "histograms", "lookups", "hits",
             "member_lookups", "member_hits", "member", "rows", "streamed",
             "fsyncs"), 0)
        #: spans per kind, wherever they ran
        self.kinds: Counter = Counter()
        #: coordinator parses directly under an op: one per statement
        self.top_parses = 0
        #: span time (ms) owned by no op, or outside its op's interval
        self.orphan_ms = 0.0

    def add(self, spans: list[list], factor: float) -> float:
        """Tallies one chunk's spans; returns the traced op time (ms) of
        the chunk's busiest client, whose ops span the whole chunk."""
        counts = self.counts
        client_ms: Counter = Counter()
        roots: dict = {}
        by_op: dict = {}
        for span in spans:
            kind, in_member = span[KIND], span[IN_MEMBER]
            if kind == "op":
                roots[span[OP]] = span
                continue
            self.kinds[kind] += 1
            if span[OP] is not None:
                by_op.setdefault(span[OP], []).append(span)
            elif span[PARENT] is None:
                self.orphan_ms += (span[END] - span[START]) * 1000.0 * factor
            if kind == "parse" and not in_member:
                counts["parse"] += 1
                parent = span[PARENT]
                self.top_parses += parent is not None and parent[KIND] == "op"
            elif kind == "optimize" and not in_member:
                counts["optimize"] += 1
            elif kind == "stats":
                counts["histograms"] += span[NOTE]
            elif kind == "plancache":
                prefix = "member_" if in_member else ""
                counts[prefix + "lookups"] += 1
                counts[prefix + "hits"] += int(span[NOTE])
            elif kind == "member":
                counts["member"] += 1
            elif kind == "execute" and not in_member:
                counts["rows"] += span[NOTE]
            elif kind == "stream":
                counts["streamed"] += span[NOTE]
            elif kind == "fsync":
                counts["fsyncs"] += 1
        for op_id, root in roots.items():
            buckets, clipped = self_times(root, by_op.get(op_id, []))
            for bucket, seconds in buckets.items():
                self.bucket_ms[bucket] += seconds * 1000.0 * factor
            self.orphan_ms += clipped * 1000.0 * factor
            op_ms = (root[END] - root[START]) * 1000.0 * factor
            client_ms[op_id[1]] += op_ms
            self.op_ms += op_ms
            self.ops += 1
        return max(client_ms.values(), default=0.0)

    def metrics(self) -> dict[str, float]:
        counts, ops = self.counts, self.ops

        def ratio(hits: int, lookups: int) -> float:
            return hits / lookups if lookups else 0.0

        out = {"benchmark.traced_op_ms": self.op_ms / ops}
        for name, total in self.bucket_ms.items():
            out[name] = total / ops
            out[name[:-3] + "_share"] = total / self.op_ms
        out.update({
            "sql.parse_calls": counts["parse"] / ops,
            "core.optimize_calls": counts["optimize"] / ops,
            "stats.histogram_builds": counts["histograms"] / ops,
            "plancache.hit_ratio": ratio(counts["hits"], counts["lookups"]),
            "providers.member_hit_ratio":
                ratio(counts["member_hits"], counts["member_lookups"]),
            "providers.remote_commands": counts["member"] / ops,
            "execution.rows": counts["rows"] / ops,
            "network.rows_streamed": counts["streamed"] / ops,
            "dtc.fsyncs": counts["fsyncs"] / ops,
        })
        return out
