"""Federated database support (Section 4.1.5).

"A federated database system is a set of loosely coupled database
systems all logically forming a single database store."  This package
builds distributed partitioned views on top of the DHQP: helpers to
define a partitioned view over member tables spread across servers,
and DML that routes rows to the owning member by its CHECK-constraint
domain, wrapped in a distributed transaction (MS DTC, Section 2).

Concurrency contract: :func:`partition_members` holds no mutable state
of its own — member metadata (CHECK-constraint domains, schema
versions) is cached per linked server under that server's metadata
lock, so concurrent sessions scanning different members may trigger
concurrent discovery safely.  Partitioned-view DML is fail-stop and
atomic through the DTC; only read paths ever run under an exchange.
"""

from repro.federation.partitioned_view import (
    PartitionMember,
    create_partitioned_view,
    partition_members,
)
from repro.federation.dml import (
    insert_into_partitioned_view,
    update_partitioned_view,
    delete_from_partitioned_view,
)

__all__ = [
    "PartitionMember",
    "create_partitioned_view",
    "partition_members",
    "insert_into_partitioned_view",
    "update_partitioned_view",
    "delete_from_partitioned_view",
]
