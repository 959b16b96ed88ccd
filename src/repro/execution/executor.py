"""The plan interpreter: physical operators → row iterators."""

from __future__ import annotations

from itertools import islice
from typing import Any, Dict, Iterator, Optional

from repro.algebra.expressions import ColumnId, ScalarExpr
from repro.core import physical as P
from repro.errors import ExecutionError
from repro.execution.context import ExecutionContext
from repro.execution.exchange import run_gather, run_gather_merge
from repro.execution.joins import (
    run_hash_join,
    run_merge_join,
    run_nl_join,
    run_parameterized_remote_join,
)
from repro.execution.aggregates import run_hash_aggregate, run_stream_aggregate
from repro.execution.scans import (
    run_const_scan,
    run_fulltext_lookup,
    run_index_range,
    run_provider_rowset,
    run_remote_query,
    run_remote_range,
    run_remote_scan,
    run_table_scan,
)
from repro.types.intervals import row_order_key, with_sortkey_fallback

Row = tuple


def layout_of(plan: P.PhysicalOp) -> Dict[ColumnId, int]:
    """Column-id → ordinal mapping of a plan's output rows."""
    return {cid: i for i, cid in enumerate(plan.output_ids())}


def compile_expr(
    expr: ScalarExpr, plan_layout: Dict[ColumnId, int], ctx: ExecutionContext
):
    """Compile an expression against a layout, resolving subqueries."""
    resolved = ctx.resolve_scalar_subqueries(expr)
    return resolved.compile(plan_layout)


def open_plan(plan: P.PhysicalOp, ctx: ExecutionContext) -> Iterator[Row]:
    """Open a physical plan into a fresh iterator (re-openable).

    When the context carries a profiler, every operator's row stream is
    wrapped with per-node row/time accounting; when it carries a trace,
    the stream additionally runs under a per-operator span (created on
    first pull, so the span tree mirrors the plan tree).  Otherwise the
    iterator is returned untouched (one ``is None`` test per open).
    """
    rows = _dispatch(plan, ctx)
    if ctx.profiler is not None:
        rows = ctx.profiler.instrument(plan, rows)
    if ctx.trace is not None:
        rows = ctx.trace.instrument_operator(
            type(plan).__name__, rows, node_id=id(plan)
        )
    return rows


def _dispatch(plan: P.PhysicalOp, ctx: ExecutionContext) -> Iterator[Row]:
    if isinstance(plan, P.TableScan):
        return run_table_scan(plan, ctx)
    if isinstance(plan, P.IndexRange):
        return run_index_range(plan, ctx)
    if isinstance(plan, P.RemoteScan):
        return run_remote_scan(plan, ctx)
    if isinstance(plan, P.RemoteRange):
        return run_remote_range(plan, ctx)
    if isinstance(plan, P.RemoteQuery):
        return run_remote_query(plan, ctx, ())
    if isinstance(plan, P.ProviderRowsetScan):
        return run_provider_rowset(plan, ctx)
    if isinstance(plan, P.ConstScan):
        return run_const_scan(plan, ctx)
    if isinstance(plan, P.FullTextKeyLookup):
        return run_fulltext_lookup(plan, ctx)
    if isinstance(plan, P.Filter):
        return _run_filter(plan, ctx)
    if isinstance(plan, P.StartupFilter):
        return _run_startup_filter(plan, ctx)
    if isinstance(plan, P.ComputeProject):
        return _run_project(plan, ctx)
    if isinstance(plan, P.PhysicalSort):
        return _run_sort(plan, ctx)
    if isinstance(plan, P.PhysicalTop):
        return islice(open_plan(plan.child, ctx), plan.count)
    if isinstance(plan, P.Spool):
        return _run_spool(plan, ctx)
    if isinstance(plan, P.HashJoin):
        return run_hash_join(plan, ctx)
    if isinstance(plan, P.NLJoin):
        return run_nl_join(plan, ctx)
    if isinstance(plan, P.MergeJoin):
        return run_merge_join(plan, ctx)
    if isinstance(plan, P.ParameterizedRemoteJoin):
        return run_parameterized_remote_join(plan, ctx)
    if isinstance(plan, P.HashAggregate):
        return run_hash_aggregate(plan, ctx)
    if isinstance(plan, P.StreamAggregate):
        return run_stream_aggregate(plan, ctx)
    # Gather/GatherMerge subclass Concat — dispatch them first
    if isinstance(plan, P.Gather):
        return run_gather(plan, ctx)
    if isinstance(plan, P.GatherMerge):
        return run_gather_merge(plan, ctx)
    if isinstance(plan, P.Concat):
        return _run_concat(plan, ctx)
    raise ExecutionError(f"no executor for {type(plan).__name__}")


def execute_plan(
    plan: P.PhysicalOp,
    ctx: Optional[ExecutionContext] = None,
) -> list[Row]:
    """Run a plan to completion."""
    ctx = ctx or ExecutionContext()
    rows = list(open_plan(plan, ctx))
    ctx.record_rows_produced(len(rows))
    return rows


# ----------------------------------------------------------------------
# simple unary operators
# ----------------------------------------------------------------------

def _run_filter(plan: P.Filter, ctx: ExecutionContext) -> Iterator[Row]:
    predicate = compile_expr(plan.predicate, layout_of(plan.child), ctx)
    params = ctx.params
    for row in open_plan(plan.child, ctx):
        if predicate(row, params) is True:
            yield row


def _run_startup_filter(
    plan: P.StartupFilter, ctx: ExecutionContext
) -> Iterator[Row]:
    """Evaluate the predicate *before* opening the child (Section 4.1.5:
    "the table scan ... will only be executed if the @customerId
    variable contains a value in the domain")."""
    predicate = compile_expr(plan.predicate, {}, ctx)
    if predicate((), ctx.params) is not True:
        ctx.record_startup_skip(plan)
        return iter(())
    return open_plan(plan.child, ctx)


def _run_project(plan: P.ComputeProject, ctx: ExecutionContext) -> Iterator[Row]:
    child_layout = layout_of(plan.child)
    compiled = [
        compile_expr(expr, child_layout, ctx) for __, expr in plan.outputs
    ]
    params = ctx.params
    for row in open_plan(plan.child, ctx):
        yield tuple(fn(row, params) for fn in compiled)


def _run_sort(plan: P.PhysicalSort, ctx: ExecutionContext) -> Iterator[Row]:
    child_layout = layout_of(plan.child)
    rows = list(open_plan(plan.child, ctx))
    key_ordinals = [(child_layout[key.cid], key.ascending) for key in plan.keys]
    return iter(with_sortkey_fallback(
        lambda value_key: sorted(
            rows, key=row_order_key(key_ordinals, value_key)
        )
    ))


def _run_spool(plan: P.Spool, ctx: ExecutionContext) -> Iterator[Row]:
    # stable key (not id(plan)) so a bounded replan after a mid-query
    # failure can reuse rows already spooled from a now-down member
    cache_key = plan.cache_key()
    cached = ctx.spool_cache.get(cache_key)
    if cached is None:
        cached = list(open_plan(plan.child, ctx))
        ctx.spool_cache[cache_key] = cached
    else:
        ctx.record_spool_rescan(plan)
    return iter(cached)


def _run_concat(plan: P.Concat, ctx: ExecutionContext) -> Iterator[Row]:
    output_ids = plan.output_ids()
    for child, branch_map in zip(plan.children, plan.branch_maps):
        child_layout = layout_of(child)
        ordinals = [child_layout[branch_map[cid]] for cid in output_ids]
        for row in open_plan(child, ctx):
            yield tuple(row[o] for o in ordinals)
