"""Simulated network substrate.

The paper ran against real remote servers; we substitute an in-process
channel that *accounts* for every byte and round trip crossing a
server boundary.  Experiments (notably E5/Figure 4 and E10) validate
plan choices by the bytes the channel records, which is exactly the
quantity the paper's remote cost model minimizes ("It aims at finding
plans with minimal network traffic", Section 4.1.3).

Concurrency contract: one :class:`NetworkChannel` per linked server is
shared by every session of an engine, so all counter mutation in
``NetworkStats`` happens under the channel's internal lock.  Simulated
time charges additionally accumulate into the calling thread's branch
account (:func:`~repro.network.channel.attach_worker_charges`), which an
exchange attaches around each pull from a branch so it can credit how
much per-branch network time a parallel fetch would overlap; the
channel itself never sleeps, blocks, or spawns threads.
"""

from repro.network.channel import (
    LOCAL_CHANNEL,
    NetworkChannel,
    NetworkStats,
    local_channel,
)

__all__ = ["NetworkChannel", "NetworkStats", "LOCAL_CHANNEL", "local_channel"]
