"""Physical operators.

Implementation rules turn logical alternatives into these; the executor
(:mod:`repro.execution`) interprets them.  Each node is a concrete plan
fragment: children are physical nodes, and every node carries its cost
estimate, row estimate, and the sort order it *provides* (the physical
plan property of Section 4.1.1).

Remote access paths mirror Section 4.1.2's implementation rules:
``RemoteQuery`` (build remote query), ``RemoteScan`` / ``RemoteRange``
/ ``RemoteFetch`` (remote table access via scan / index / bookmark),
and ``Spool`` ("spool over remote operation").
"""

from __future__ import annotations

import zlib
from typing import Any, Optional, Sequence

from repro.algebra.expressions import (
    AggregateCall,
    ColumnDef,
    ColumnId,
    ScalarExpr,
)
from repro.algebra.logical import SortKeySpec, TableRef


class PhysicalOp:
    """Base physical plan node."""

    def __init__(self, children: Sequence["PhysicalOp"] = ()):
        self.children = list(children)
        #: filled by the optimizer
        self.cost: float = 0.0
        self.est_rows: float = 0.0
        #: filled by the resource governor before execution (KB of
        #: workspace memory this operator is estimated to materialize)
        self.est_memory_kb: float = 0.0

    def output_ids(self) -> tuple[ColumnId, ...]:
        raise NotImplementedError

    def provided_sort(self) -> tuple[tuple[ColumnId, bool], ...]:
        """(cid, ascending) keys this operator's output is ordered by."""
        return ()

    def fingerprint_atoms(self) -> tuple:
        """Identity attributes for plan fingerprinting.

        Subclasses expose what determines *where and how* the operator
        runs — table names, index names, server names, pushed SQL text,
        join kinds — and nothing volatile: no costs, no row estimates,
        no column ids (the optimizer mints fresh cids per compile, so a
        fingerprint that included them would never match across
        executions of the same statement).
        """
        return ()

    def fingerprint_name(self) -> str:
        """Operator name used in plan fingerprints.

        Defaults to the class name; parallel exchange operators report
        their *serial* shape (``Gather`` → ``Concat``) so fingerprints
        ignore the degree of parallelism — toggling ``PARALLEL_DOP``
        must not read as a plan regression in the Query Store.
        """
        return type(self).__name__

    @property
    def rescan_cost(self) -> float:
        """Cost of producing the rows again (re-open).  Spools override."""
        return self.cost

    def tree_repr(self, indent: int = 0) -> str:
        lines = ["  " * indent + repr(self)]
        for child in self.children:
            lines.append(child.tree_repr(indent + 1))
        return "\n".join(lines)

    def walk(self):
        yield self
        for child in self.children:
            yield from child.walk()

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(rows={self.est_rows:.1f}, "
            f"cost={self.cost:.3f})"
        )


# ----------------------------------------------------------------------
# leaf access paths
# ----------------------------------------------------------------------

class TableScan(PhysicalOp):
    """Sequential scan of a local table."""

    def __init__(self, table: TableRef):
        super().__init__()
        self.table = table

    def output_ids(self) -> tuple[ColumnId, ...]:
        return self.table.column_ids()

    def fingerprint_atoms(self) -> tuple:
        return (self.table.qualified_name,)

    def __repr__(self) -> str:
        return f"TableScan({self.table.qualified_name}, rows={self.est_rows:.1f}, cost={self.cost:.3f})"


class IndexRange(PhysicalOp):
    """Local index seek/range + bookmark fetch; provides key order.

    ``dynamic_probe`` supports parameterized seeks: a (comparison op,
    column-free expression) pair whose value narrows the domain at open
    time, so ``WHERE id = @p`` seeks instead of scanning.
    """

    def __init__(
        self,
        table: TableRef,
        index_name: str,
        key_cid: ColumnId,
        domain: Any,  # IntervalSet
        residual: Optional[ScalarExpr] = None,
        dynamic_probe: Optional[tuple[str, ScalarExpr]] = None,
    ):
        super().__init__()
        self.table = table
        self.index_name = index_name
        self.key_cid = key_cid
        self.domain = domain
        self.residual = residual
        self.dynamic_probe = dynamic_probe

    def output_ids(self) -> tuple[ColumnId, ...]:
        return self.table.column_ids()

    def provided_sort(self) -> tuple[tuple[ColumnId, bool], ...]:
        return ((self.key_cid, True),)

    def fingerprint_atoms(self) -> tuple:
        return (
            self.table.qualified_name,
            self.index_name,
            self.dynamic_probe is not None,
        )

    def __repr__(self) -> str:
        return (
            f"IndexRange({self.table.qualified_name}.{self.index_name}, "
            f"{self.domain!r}, rows={self.est_rows:.1f}, cost={self.cost:.3f})"
        )


class RemoteScan(PhysicalOp):
    """Full scan of a remote table through IOpenRowset ("remote scan is
    simply a sequential scan on remote table")."""

    def __init__(self, table: TableRef):
        super().__init__()
        self.table = table

    def output_ids(self) -> tuple[ColumnId, ...]:
        return self.table.column_ids()

    def fingerprint_atoms(self) -> tuple:
        return (self.table.server, self.table.qualified_name)

    def __repr__(self) -> str:
        return f"RemoteScan({self.table.qualified_name}, rows={self.est_rows:.1f}, cost={self.cost:.3f})"


class RemoteRange(PhysicalOp):
    """Remote index access: IRowsetIndex set-range + IRowsetLocate
    bookmark fetch ("remote range accesses a remote table via indexes,
    and remote fetch accesses a remote table via bookmark")."""

    def __init__(
        self,
        table: TableRef,
        index_name: str,
        key_cid: ColumnId,
        domain: Any,  # IntervalSet
        residual: Optional[ScalarExpr] = None,
    ):
        super().__init__()
        self.table = table
        self.index_name = index_name
        self.key_cid = key_cid
        self.domain = domain
        self.residual = residual

    def output_ids(self) -> tuple[ColumnId, ...]:
        return self.table.column_ids()

    def provided_sort(self) -> tuple[tuple[ColumnId, bool], ...]:
        return ((self.key_cid, True),)

    def fingerprint_atoms(self) -> tuple:
        return (self.table.server, self.table.qualified_name, self.index_name)

    def __repr__(self) -> str:
        return (
            f"RemoteRange({self.table.qualified_name}.{self.index_name}, "
            f"{self.domain!r}, rows={self.est_rows:.1f}, cost={self.cost:.3f})"
        )


class RemoteQuery(PhysicalOp):
    """A SQL statement pushed to a linked server (the "build remote
    query" rule): executes ``sql_text`` via ICommand and consumes the
    rowset.  ``param_exprs`` fill ``?`` markers at open time — for plain
    parameters from the query's parameter bag, for parameterized
    remote joins from the current outer row."""

    def __init__(
        self,
        server: Any,  # LinkedServer
        sql_text: str,
        out_ids: Sequence[ColumnId],
        param_exprs: Sequence[ScalarExpr] = (),
        tables_referenced: Sequence[str] = (),
    ):
        super().__init__()
        self.server = server
        self.sql_text = sql_text
        self.out_ids = tuple(out_ids)
        self.param_exprs = tuple(param_exprs)
        #: remote table names, for delayed schema validation
        self.tables_referenced = tuple(tables_referenced)

    def output_ids(self) -> tuple[ColumnId, ...]:
        return self.out_ids

    def fingerprint_atoms(self) -> tuple:
        return (self.server.name, self.sql_text, len(self.param_exprs))

    def __repr__(self) -> str:
        return (
            f"RemoteQuery({self.server.name}: {self.sql_text!r}, "
            f"rows={self.est_rows:.1f}, cost={self.cost:.3f})"
        )


class ProviderRowsetScan(PhysicalOp):
    """Execute an opaque provider rowset (OPENROWSET / OPENQUERY /
    MakeTable)."""

    def __init__(self, node: Any):  # algebra.logical.ProviderRowset
        super().__init__()
        self.node = node

    def output_ids(self) -> tuple[ColumnId, ...]:
        return self.node.output_ids()

    def fingerprint_atoms(self) -> tuple:
        return (self.node.label,)

    def __repr__(self) -> str:
        return f"ProviderRowsetScan({self.node.label}, rows={self.est_rows:.1f}, cost={self.cost:.3f})"


class ConstScan(PhysicalOp):
    """Constant rows (VALUES) or the empty table."""

    def __init__(
        self,
        rows: Sequence[Sequence[ScalarExpr]],
        column_defs: Sequence[ColumnDef],
    ):
        super().__init__()
        self.rows = [tuple(r) for r in rows]
        self.column_defs = tuple(column_defs)

    def output_ids(self) -> tuple[ColumnId, ...]:
        return tuple(d.cid for d in self.column_defs)

    def __repr__(self) -> str:
        return f"ConstScan({len(self.rows)} rows)"


class FullTextKeyLookup(PhysicalOp):
    """The external search-service lookup of Figure 2: evaluates a
    CONTAINS query against a relational full-text catalog and returns
    (KEY, RANK) rows keyed by ``key_cid``/``rank_cid``."""

    def __init__(self, binding: Any, query_text: str, key_cid: ColumnId, rank_cid: ColumnId):
        super().__init__()
        self.binding = binding
        self.query_text = query_text
        self.key_cid = key_cid
        self.rank_cid = rank_cid

    def output_ids(self) -> tuple[ColumnId, ...]:
        return (self.key_cid, self.rank_cid)

    def fingerprint_atoms(self) -> tuple:
        return (self.query_text,)

    def __repr__(self) -> str:
        return f"FullTextKeyLookup({self.query_text!r}, rows={self.est_rows:.1f})"


# ----------------------------------------------------------------------
# unary operators
# ----------------------------------------------------------------------

class Filter(PhysicalOp):
    def __init__(self, child: PhysicalOp, predicate: ScalarExpr):
        super().__init__([child])
        self.predicate = predicate

    @property
    def child(self) -> PhysicalOp:
        return self.children[0]

    def output_ids(self) -> tuple[ColumnId, ...]:
        return self.child.output_ids()

    def provided_sort(self) -> tuple[tuple[ColumnId, bool], ...]:
        return self.child.provided_sort()

    def __repr__(self) -> str:
        return f"Filter({self.predicate!r}, rows={self.est_rows:.1f}, cost={self.cost:.3f})"


class StartupFilter(PhysicalOp):
    """Runtime pruning (Section 4.1.5): evaluate a column-free predicate
    *before* opening the child; skip the whole subtree when false."""

    def __init__(self, child: PhysicalOp, predicate: ScalarExpr):
        super().__init__([child])
        self.predicate = predicate

    @property
    def child(self) -> PhysicalOp:
        return self.children[0]

    def output_ids(self) -> tuple[ColumnId, ...]:
        return self.child.output_ids()

    def provided_sort(self) -> tuple[tuple[ColumnId, bool], ...]:
        return self.child.provided_sort()

    def __repr__(self) -> str:
        return f"StartupFilter({self.predicate!r}, cost={self.cost:.3f})"


class ComputeProject(PhysicalOp):
    def __init__(
        self,
        child: PhysicalOp,
        outputs: Sequence[tuple[ColumnId, ScalarExpr]],
    ):
        super().__init__([child])
        self.outputs = tuple(outputs)

    @property
    def child(self) -> PhysicalOp:
        return self.children[0]

    def output_ids(self) -> tuple[ColumnId, ...]:
        return tuple(cid for cid, __ in self.outputs)

    def provided_sort(self) -> tuple[tuple[ColumnId, bool], ...]:
        # order survives projection for pass-through columns
        passthrough = {
            expr.cid: cid
            for cid, expr in self.outputs
            if hasattr(expr, "cid")
        }
        out = []
        for cid, ascending in self.child.provided_sort():
            if cid in passthrough:
                out.append((passthrough[cid], ascending))
            elif cid in self.output_ids():
                out.append((cid, ascending))
            else:
                break
        return tuple(out)

    def __repr__(self) -> str:
        return f"ComputeProject({len(self.outputs)} cols, rows={self.est_rows:.1f}, cost={self.cost:.3f})"


class PhysicalSort(PhysicalOp):
    """The sort enforcer's output."""

    def __init__(self, child: PhysicalOp, keys: Sequence[SortKeySpec]):
        super().__init__([child])
        self.keys = tuple(keys)

    @property
    def child(self) -> PhysicalOp:
        return self.children[0]

    def output_ids(self) -> tuple[ColumnId, ...]:
        return self.child.output_ids()

    def provided_sort(self) -> tuple[tuple[ColumnId, bool], ...]:
        return tuple((k.cid, k.ascending) for k in self.keys)

    def fingerprint_atoms(self) -> tuple:
        return tuple(k.ascending for k in self.keys)

    def __repr__(self) -> str:
        return f"Sort({list(self.keys)!r}, rows={self.est_rows:.1f}, cost={self.cost:.3f})"


class PhysicalTop(PhysicalOp):
    def __init__(self, child: PhysicalOp, count: int):
        super().__init__([child])
        self.count = count

    @property
    def child(self) -> PhysicalOp:
        return self.children[0]

    def output_ids(self) -> tuple[ColumnId, ...]:
        return self.child.output_ids()

    def provided_sort(self) -> tuple[tuple[ColumnId, bool], ...]:
        return self.child.provided_sort()

    def fingerprint_atoms(self) -> tuple:
        return (self.count,)

    def __repr__(self) -> str:
        return f"Top({self.count})"


class Spool(PhysicalOp):
    """Materialize once; cheap rescans (Section 4.1.4: "It is often
    beneficial to spool results from a remote source if multiple scans
    of the data are expected").  Also used for Halloween protection in
    update plans."""

    def __init__(self, child: PhysicalOp, reason: str = "rescan"):
        super().__init__([child])
        self.reason = reason
        #: set by the cost model at implementation time
        self.rescan_cost_value: float = 0.0

    @property
    def child(self) -> PhysicalOp:
        return self.children[0]

    def output_ids(self) -> tuple[ColumnId, ...]:
        return self.child.output_ids()

    @property
    def rescan_cost(self) -> float:
        return self.rescan_cost_value

    def cache_key(self):
        """Identity of the spooled data, stable across re-optimization.

        Remote children key on (server, query text / table) so a replan
        after a mid-query failure can reuse rows already spooled from a
        member that has since gone down.  Anything else keys on object
        identity, which never matches across plans — a safe default.
        """
        child = self.child
        if isinstance(child, RemoteQuery):
            return ("spool", child.server.name, child.sql_text)
        if isinstance(child, RemoteScan):
            return ("spool-scan", child.table.server, child.table.qualified_name)
        return id(self)

    def fingerprint_atoms(self) -> tuple:
        return (self.reason,)

    def __repr__(self) -> str:
        return f"Spool[{self.reason}](rows={self.est_rows:.1f}, cost={self.cost:.3f})"


class HashAggregate(PhysicalOp):
    def __init__(
        self,
        child: PhysicalOp,
        group_by: Sequence[ColumnId],
        aggregates: Sequence[AggregateCall],
    ):
        super().__init__([child])
        self.group_by = tuple(group_by)
        self.aggregates = tuple(aggregates)

    @property
    def child(self) -> PhysicalOp:
        return self.children[0]

    def output_ids(self) -> tuple[ColumnId, ...]:
        return self.group_by + tuple(a.output_cid for a in self.aggregates)

    def fingerprint_atoms(self) -> tuple:
        return (len(self.group_by), len(self.aggregates))

    def __repr__(self) -> str:
        return f"HashAggregate(by={self.group_by}, rows={self.est_rows:.1f}, cost={self.cost:.3f})"


class StreamAggregate(PhysicalOp):
    """Aggregation over input sorted by the group keys."""

    def __init__(
        self,
        child: PhysicalOp,
        group_by: Sequence[ColumnId],
        aggregates: Sequence[AggregateCall],
    ):
        super().__init__([child])
        self.group_by = tuple(group_by)
        self.aggregates = tuple(aggregates)

    @property
    def child(self) -> PhysicalOp:
        return self.children[0]

    def output_ids(self) -> tuple[ColumnId, ...]:
        return self.group_by + tuple(a.output_cid for a in self.aggregates)

    def provided_sort(self) -> tuple[tuple[ColumnId, bool], ...]:
        return tuple((cid, True) for cid in self.group_by)

    def fingerprint_atoms(self) -> tuple:
        return (len(self.group_by), len(self.aggregates))

    def __repr__(self) -> str:
        return f"StreamAggregate(by={self.group_by}, rows={self.est_rows:.1f}, cost={self.cost:.3f})"


# ----------------------------------------------------------------------
# joins
# ----------------------------------------------------------------------

class HashJoin(PhysicalOp):
    """Equi-join; right input builds, left probes.  ``kind`` covers
    inner / left_outer / semi / anti_semi."""

    def __init__(
        self,
        left: PhysicalOp,
        right: PhysicalOp,
        kind: str,
        left_keys: Sequence[ScalarExpr],
        right_keys: Sequence[ScalarExpr],
        residual: Optional[ScalarExpr] = None,
    ):
        super().__init__([left, right])
        self.kind = kind
        self.left_keys = tuple(left_keys)
        self.right_keys = tuple(right_keys)
        self.residual = residual

    @property
    def left(self) -> PhysicalOp:
        return self.children[0]

    @property
    def right(self) -> PhysicalOp:
        return self.children[1]

    def output_ids(self) -> tuple[ColumnId, ...]:
        if self.kind in ("semi", "anti_semi"):
            return self.left.output_ids()
        return self.left.output_ids() + self.right.output_ids()

    def provided_sort(self) -> tuple[tuple[ColumnId, bool], ...]:
        return self.left.provided_sort()

    def fingerprint_atoms(self) -> tuple:
        return (self.kind,)

    def __repr__(self) -> str:
        return f"HashJoin[{self.kind}](rows={self.est_rows:.1f}, cost={self.cost:.3f})"


class NLJoin(PhysicalOp):
    """Nested loops; re-opens the inner per outer row (hence the value
    of spooled inners over remote sources)."""

    def __init__(
        self,
        left: PhysicalOp,
        right: PhysicalOp,
        kind: str,
        condition: Optional[ScalarExpr] = None,
    ):
        super().__init__([left, right])
        self.kind = kind
        self.condition = condition

    @property
    def left(self) -> PhysicalOp:
        return self.children[0]

    @property
    def right(self) -> PhysicalOp:
        return self.children[1]

    def output_ids(self) -> tuple[ColumnId, ...]:
        if self.kind in ("semi", "anti_semi"):
            return self.left.output_ids()
        return self.left.output_ids() + self.right.output_ids()

    def provided_sort(self) -> tuple[tuple[ColumnId, bool], ...]:
        return self.left.provided_sort()

    def fingerprint_atoms(self) -> tuple:
        return (self.kind,)

    def __repr__(self) -> str:
        return f"NLJoin[{self.kind}](rows={self.est_rows:.1f}, cost={self.cost:.3f})"


class ParameterizedRemoteJoin(PhysicalOp):
    """The remote parameterization rule (Section 4.1.2): for each outer
    row, execute a parameterized query on the remote source, binding
    outer column values into the ``?`` markers of ``inner_query``."""

    def __init__(
        self,
        left: PhysicalOp,
        inner_query: RemoteQuery,
        kind: str,
        residual: Optional[ScalarExpr] = None,
    ):
        super().__init__([left, inner_query])
        self.kind = kind
        self.residual = residual

    @property
    def left(self) -> PhysicalOp:
        return self.children[0]

    @property
    def inner_query(self) -> RemoteQuery:
        return self.children[1]

    def output_ids(self) -> tuple[ColumnId, ...]:
        if self.kind in ("semi", "anti_semi"):
            return self.left.output_ids()
        return self.left.output_ids() + self.inner_query.output_ids()

    def provided_sort(self) -> tuple[tuple[ColumnId, bool], ...]:
        return self.left.provided_sort()

    def fingerprint_atoms(self) -> tuple:
        return (self.kind,)

    def __repr__(self) -> str:
        return (
            f"ParameterizedRemoteJoin[{self.kind}]("
            f"{self.inner_query.sql_text!r}, rows={self.est_rows:.1f}, cost={self.cost:.3f})"
        )


class MergeJoin(PhysicalOp):
    """Equi-join over inputs sorted on the join keys (single-key)."""

    def __init__(
        self,
        left: PhysicalOp,
        right: PhysicalOp,
        kind: str,
        left_key: ColumnId,
        right_key: ColumnId,
        residual: Optional[ScalarExpr] = None,
    ):
        super().__init__([left, right])
        self.kind = kind
        self.left_key = left_key
        self.right_key = right_key
        self.residual = residual

    @property
    def left(self) -> PhysicalOp:
        return self.children[0]

    @property
    def right(self) -> PhysicalOp:
        return self.children[1]

    def output_ids(self) -> tuple[ColumnId, ...]:
        if self.kind in ("semi", "anti_semi"):
            return self.left.output_ids()
        return self.left.output_ids() + self.right.output_ids()

    def provided_sort(self) -> tuple[tuple[ColumnId, bool], ...]:
        return ((self.left_key, True),)

    def fingerprint_atoms(self) -> tuple:
        return (self.kind,)

    def __repr__(self) -> str:
        return f"MergeJoin[{self.kind}](rows={self.est_rows:.1f}, cost={self.cost:.3f})"


class Concat(PhysicalOp):
    """UNION ALL: concatenate children, remapping each branch's columns
    to the union's output ids."""

    def __init__(
        self,
        children: Sequence[PhysicalOp],
        output_defs: Sequence[ColumnDef],
        branch_maps: Sequence[dict[ColumnId, ColumnId]],
    ):
        super().__init__(children)
        self.output_defs = tuple(output_defs)
        self.branch_maps = [dict(m) for m in branch_maps]

    def output_ids(self) -> tuple[ColumnId, ...]:
        return tuple(d.cid for d in self.output_defs)

    def fingerprint_atoms(self) -> tuple:
        return (len(self.children),)

    def __repr__(self) -> str:
        return f"Concat({len(self.children)} branches, rows={self.est_rows:.1f}, cost={self.cost:.3f})"


class Gather(Concat):
    """Parallel UNION ALL (the Volcano exchange operator): branches are
    costed as spread over ``dop`` slots, and their overlap is credited
    at run time (:mod:`repro.execution.exchange`).  Row semantics are
    identical to :class:`Concat`, and so is the fingerprint —
    parallelism is an execution detail, not a plan identity."""

    def __init__(
        self,
        children: Sequence[PhysicalOp],
        output_defs: Sequence[ColumnDef],
        branch_maps: Sequence[dict[ColumnId, ColumnId]],
        dop: int,
    ):
        super().__init__(children, output_defs, branch_maps)
        self.dop = int(dop)

    def fingerprint_name(self) -> str:
        return "Concat"

    def __repr__(self) -> str:
        return (
            f"Gather(dop={self.dop}, {len(self.children)} branches, "
            f"rows={self.est_rows:.1f}, cost={self.cost:.3f})"
        )


class GatherMerge(Concat):
    """Order-preserving parallel UNION ALL: each branch arrives sorted
    on ``keys`` and a k-way merge keeps the global order without a full
    blocking sort.  The merge strategy is part of the plan's identity
    (its atoms carry the key directions, mirroring ``PhysicalSort``)
    but the degree of parallelism is not."""

    def __init__(
        self,
        children: Sequence[PhysicalOp],
        output_defs: Sequence[ColumnDef],
        branch_maps: Sequence[dict[ColumnId, ColumnId]],
        keys: Sequence[SortKeySpec],
        dop: int,
    ):
        super().__init__(children, output_defs, branch_maps)
        self.keys = tuple(keys)
        self.dop = int(dop)

    def provided_sort(self) -> tuple[tuple[ColumnId, bool], ...]:
        return tuple((k.cid, k.ascending) for k in self.keys)

    def fingerprint_atoms(self) -> tuple:
        return (len(self.children),) + tuple(k.ascending for k in self.keys)

    def __repr__(self) -> str:
        return (
            f"GatherMerge(dop={self.dop}, {len(self.children)} branches, "
            f"{len(self.keys)} keys, rows={self.est_rows:.1f}, "
            f"cost={self.cost:.3f})"
        )


# ----------------------------------------------------------------------
# plan fingerprinting (Query Store hook)
# ----------------------------------------------------------------------

def plan_shape(plan: PhysicalOp) -> str:
    """A normalized s-expression for a physical plan's *shape*.

    Built from operator class names plus each node's
    :meth:`PhysicalOp.fingerprint_atoms` — never costs, row estimates,
    or column ids — so two compilations of the same statement that pick
    the same physical strategy produce the *same* shape, while a plan
    flip (deep pushdown vs fetch-and-filter, hash vs merge, a different
    member) produces a different one.
    """
    atoms = "".join(f" {atom!r}" for atom in plan.fingerprint_atoms())
    inner = "".join(f" {plan_shape(child)}" for child in plan.children)
    return f"({plan.fingerprint_name()}{atoms}{inner})"


def plan_fingerprint(plan: PhysicalOp) -> str:
    """Stable 8-hex-digit fingerprint of a plan's normalized shape —
    the Query Store's plan identity (``sys.query_store_plan``)."""
    shape = plan_shape(plan)
    return format(zlib.crc32(shape.encode("utf-8")) & 0xFFFFFFFF, "08x")
