"""Aggregation operators."""

from __future__ import annotations

from typing import Any, Dict, Iterator, Optional

from repro.algebra.expressions import AggregateCall
from repro.core import physical as P
from repro.execution.context import ExecutionContext
from repro.types.intervals import with_sortkey_fallback
from repro.types.values import collation_key

Row = tuple


class _Accumulator:
    """One aggregate's running state."""

    __slots__ = ("call", "count", "total", "minimum", "maximum", "distinct")

    def __init__(self, call: AggregateCall):
        self.call = call
        self.count = 0
        self.total: Any = None
        self.minimum: Any = None
        self.maximum: Any = None
        self.distinct: Optional[set] = set() if call.distinct else None

    def add(self, value: Any) -> None:
        if self.call.argument is None:  # COUNT(*)
            self.count += 1
            return
        if value is None:
            return
        if self.distinct is not None:
            folded = collation_key(value)
            if folded in self.distinct:
                return
            self.distinct.add(folded)
        self.count += 1
        func = self.call.func
        if func == "min":
            if self.minimum is None or _lt(value, self.minimum):
                self.minimum = value
        elif func == "max":
            if self.maximum is None or _lt(self.maximum, value):
                self.maximum = value
        elif self.total is None:
            self.total = value
        else:
            try:
                self.total = self.total + value
            except TypeError:
                pass

    def result(self) -> Any:
        func = self.call.func
        if func == "count":
            return self.count
        if self.count == 0:
            return None
        if func == "sum":
            return self.total
        if func == "avg":
            return self.total / self.count
        if func == "min":
            return self.minimum
        if func == "max":
            return self.maximum
        raise AssertionError(func)


def _lt(a: Any, b: Any) -> bool:
    return with_sortkey_fallback(lambda value_key: value_key(a) < value_key(b))


def _group_key(values: tuple) -> tuple:
    """Grouping key: numeric kinds unify and strings fold to the
    default collation's key, so ``GROUP BY``/``DISTINCT`` merge the
    same values ``=`` equates.  The first-seen raw tuple stays the
    group's representative."""
    out = []
    for value in values:
        if isinstance(value, bool):
            value = int(value)
        if isinstance(value, float) and value.is_integer():
            value = int(value)
        out.append(collation_key(value))
    return tuple(out)


def run_hash_aggregate(
    plan: P.HashAggregate, ctx: ExecutionContext
) -> Iterator[Row]:
    from repro.execution.executor import compile_expr, layout_of, open_plan

    child_layout = layout_of(plan.child)
    key_ordinals = [child_layout[cid] for cid in plan.group_by]
    arg_fns = [
        compile_expr(call.argument, child_layout, ctx)
        if call.argument is not None
        else None
        for call in plan.aggregates
    ]
    params = ctx.params
    groups: Dict[tuple, tuple[tuple, list[_Accumulator]]] = {}
    saw_rows = False
    for row in open_plan(plan.child, ctx):
        saw_rows = True
        raw_key = tuple(row[o] for o in key_ordinals)
        key = _group_key(raw_key)
        entry = groups.get(key)
        if entry is None:
            entry = (raw_key, [_Accumulator(c) for c in plan.aggregates])
            groups[key] = entry
        for accumulator, fn in zip(entry[1], arg_fns):
            value = fn(row, params) if fn is not None else None
            accumulator.add(value)
    if not groups and not plan.group_by:
        # scalar aggregate over empty input yields one row of defaults
        empties = [_Accumulator(c) for c in plan.aggregates]
        yield tuple(a.result() for a in empties)
        return
    for raw_key, accumulators in groups.values():
        yield raw_key + tuple(a.result() for a in accumulators)


def run_stream_aggregate(
    plan: P.StreamAggregate, ctx: ExecutionContext
) -> Iterator[Row]:
    """Aggregation over group-key-sorted input."""
    from repro.execution.executor import compile_expr, layout_of, open_plan

    child_layout = layout_of(plan.child)
    key_ordinals = [child_layout[cid] for cid in plan.group_by]
    arg_fns = [
        compile_expr(call.argument, child_layout, ctx)
        if call.argument is not None
        else None
        for call in plan.aggregates
    ]
    params = ctx.params
    current_key: Optional[tuple] = None
    current_raw: tuple = ()
    accumulators: list[_Accumulator] = []
    saw_rows = False
    for row in open_plan(plan.child, ctx):
        saw_rows = True
        raw_key = tuple(row[o] for o in key_ordinals)
        key = _group_key(raw_key)
        if current_key is None or key != current_key:
            if current_key is not None:
                yield current_raw + tuple(a.result() for a in accumulators)
            current_key = key
            current_raw = raw_key
            accumulators = [_Accumulator(c) for c in plan.aggregates]
        for accumulator, fn in zip(accumulators, arg_fns):
            value = fn(row, params) if fn is not None else None
            accumulator.add(value)
    if current_key is not None:
        yield current_raw + tuple(a.result() for a in accumulators)
    elif not plan.group_by and not saw_rows:
        empties = [_Accumulator(c) for c in plan.aggregates]
        yield tuple(a.result() for a in empties)
