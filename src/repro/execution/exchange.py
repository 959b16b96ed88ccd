"""Exchange operators: the parallel side of the Volcano model.

``run_gather`` and ``run_gather_merge`` execute the
:class:`~repro.core.physical.Gather` / ``GatherMerge`` plan nodes the
optimizer inserts above independent remote / partitioned-view branches
when ``SET PARALLEL_DOP n`` (n > 1) is in effect:

* **Gather** — branches run one after another in LPT slot order
  (:func:`assign_slots`); rows stream in that order (a plain UNION ALL
  has no order contract).
* **GatherMerge** — each branch is produced already sorted on the
  exchange keys; a lazy k-way heap merge over the branch streams
  yields the globally sorted output without a full blocking sort,
  comparing the same precomputed order keys as ``PhysicalSort``.

Parallelism is modelled, not run: every branch executes on the
statement's own thread.  The simulated network charges latency as
counters rather than sleeps, so each pull from a branch runs under
that branch's charge accumulator
(:func:`~repro.network.channel.attach_worker_charges`) and, once every
branch is exhausted, the exchange credits ``saved_ms`` — the sum of
branch times minus the busiest slot of the ``dop``-slot assignment.

Both operators pipeline: rows reach the consumer as soon as a branch
produces them, and abandoning the iterator (TOP, EXISTS) leaves the
remaining branches unopened.  A branch error stops the exchange at once
and propagates unchanged, so the engine's replan-on-unavailable and
partial-results machinery work as for a serial Concat.
"""

from __future__ import annotations

import heapq
import time
from typing import Iterator, List, Sequence

from repro.network.channel import attach_worker_charges
from repro.types.intervals import SortKey, row_order_key


def _effective_dop(plan, ctx) -> int:
    """The degree an exchange actually runs at: the session's current
    PARALLEL_DOP when known (so a shared cached plan adapts to each
    session), else the degree the plan was compiled with — then
    clamped to the workload group's MAX_DOP when the resource governor
    set one."""
    requested = getattr(ctx, "requested_dop", None)
    if requested is not None and requested > 1:
        dop = requested
    else:
        dop = plan.dop
    cap = getattr(ctx, "max_dop", None)
    if cap:
        dop = max(1, min(dop, cap))
    return dop


def assign_slots(costs: Sequence[float], dop: int) -> List[int]:
    """Longest-processing-time assignment of branches onto ``dop``
    slots: branches sorted by descending estimated cost, each placed on
    the least-loaded slot.  Returns the slot index per branch (same
    order as ``costs``)."""
    slots = max(1, min(int(dop), len(costs)))
    loads = [0.0] * slots
    assignment = [0] * len(costs)
    for index in sorted(range(len(costs)), key=lambda i: -costs[i]):
        slot = min(range(slots), key=loads.__getitem__)
        assignment[index] = slot
        loads[slot] += costs[index]
    return assignment


def run_gather(plan, ctx) -> Iterator[tuple]:
    """Execute a Gather: branches in LPT slot order, rows streamed."""
    exchange = _Exchange(plan, ctx, "Gather")
    in_slot_order = sorted(exchange.branches, key=lambda b: b.slot)
    try:
        for branch in in_slot_order:
            yield from branch.rows()
    except Exception:
        exchange.finish()
        raise
    exchange.finish()


def run_gather_merge(plan, ctx) -> Iterator[tuple]:
    """Execute a GatherMerge: a k-way merge of the sorted branches on
    the exchange keys; ties go to the lower branch index."""
    exchange = _Exchange(plan, ctx, "GatherMerge")
    output_ids = list(plan.output_ids())
    key_ordinals = [(output_ids.index(k.cid), k.ascending) for k in plan.keys]
    streams = [branch.rows() for branch in exchange.branches]
    try:
        yield from _merge(streams, key_ordinals)
    except Exception:
        exchange.finish()
        raise
    exchange.finish()


def _merge(streams, key_ordinals) -> Iterator[tuple]:
    # heap entries are (key, branch_index, row) with at most one entry
    # per branch, so equal keys tie-break on the branch index and rows
    # are never compared
    key = row_order_key(key_ordinals)
    heap = []
    for index, stream in enumerate(streams):
        row = next(stream, None)
        if row is not None:
            heap.append((key(row), index, row))
    try:
        heapq.heapify(heap)
    except TypeError:
        key, heap = _rekey(heap, key_ordinals)
    while heap:
        __key, index, row = heap[0]
        yield row
        following = next(streams[index], None)
        if following is None:
            heapq.heappop(heap)
            continue
        try:
            heapq.heapreplace(heap, (key(following), index, following))
        except TypeError:
            key, heap = _rekey(heap, key_ordinals)


def _rekey(heap, key_ordinals):
    """Switch the merge to ``SortKey`` keys once the branches turn out
    to mix kinds Python cannot order (a string against a number), as
    ``with_sortkey_fallback`` does for sites that can rerun.  A failed
    heap operation leaves every entry in the list, in some order, so
    the entries are re-keyed and heapified afresh."""
    key = row_order_key(key_ordinals, SortKey)
    heap = [(key(row), index, row) for __, index, row in heap]
    heapq.heapify(heap)
    return key, heap


class _Exchange:
    """One exchange execution: its branches, their slots, and the
    overlap accounting."""

    def __init__(self, plan, ctx, label: str):
        self.ctx = ctx
        self.label = label
        self.dop = _effective_dop(plan, ctx)
        trace = ctx.trace
        #: the exchange operator's span, which every branch span
        #: parents to
        self.parent_span_id = (
            trace.current_span_id if trace is not None else None
        )
        output_ids = plan.output_ids()
        self.branches = []
        for index, (child, branch_map) in enumerate(
            zip(plan.children, plan.branch_maps)
        ):
            # same ordinal mapping as the serial Concat
            child_layout = {
                cid: pos for pos, cid in enumerate(child.output_ids())
            }
            ordinals = [child_layout[branch_map[cid]] for cid in output_ids]
            self.branches.append(_Branch(self, index, child, ordinals))
        slots = assign_slots([b.child.cost for b in self.branches], self.dop)
        for branch, slot in zip(self.branches, slots):
            branch.slot = slot

    def finish(self) -> None:
        """Credit ``saved_ms`` = sum of branch simulated ms minus the
        busiest slot's load."""
        branch_ms = [branch.charges[0] for branch in self.branches]
        loads: dict = {}
        for branch, ms in zip(self.branches, branch_ms):
            loads[branch.slot] = loads.get(branch.slot, 0.0) + ms
        elapsed = max(loads.values()) if loads else 0.0
        saved = max(0.0, sum(branch_ms) - elapsed)
        self.ctx.record_gather(
            dop=self.dop,
            branches=len(self.branches),
            saved_ms=saved,
            busiest_ms=elapsed,
        )


class _Branch:
    """One exchange input: opened on its first pull; every pull runs
    under the branch's charge accumulator and ``parallel_branch``
    span."""

    __slots__ = ("exchange", "index", "child", "ordinals", "slot", "charges")

    def __init__(self, exchange: _Exchange, index: int, child, ordinals):
        self.exchange = exchange
        self.index = index
        self.child = child
        self.ordinals = ordinals
        self.slot = 0
        self.charges = [0.0]

    def rows(self) -> Iterator[tuple]:
        # deferred import: executor dispatches into this module
        from repro.execution.executor import open_plan

        exchange = self.exchange
        ctx = exchange.ctx
        trace = ctx.trace
        ordinals = self.ordinals
        charges = self.charges
        span = None
        rows = None
        while True:
            prior = attach_worker_charges(charges)
            if trace is not None:
                started = time.perf_counter()
                if span is None:
                    span = trace.begin_span(
                        "parallel_branch",
                        parent_span_id=exchange.parent_span_id,
                        exchange=exchange.label,
                        parallelism=exchange.dop,
                        worker=self.slot,
                        branch=self.index,
                    )
                else:
                    trace.enter_span(span)
            try:
                if rows is None:
                    rows = open_plan(self.child, ctx)
                row = next(rows, None)
            finally:
                attach_worker_charges(prior)
                if span is not None:
                    span.duration_ms += (time.perf_counter() - started) * 1000.0
                    trace.exit_span(span)
            if row is None:
                return
            yield tuple(row[o] for o in ordinals)
