"""Sharded CFCM serving: per-shard trackers stitched by a global Schur complement.

The distributed layer splits one :class:`repro.dynamic.DynamicCFCM`-sized
problem into ``p`` shards.  :func:`partition_graph` assigns every node a
*home* part and promotes a small vertex separator ``T`` (a cover of the
cut edges) out of the parts; each shard then owns the interior of its part
plus a read-only replica of ``T``.  :class:`ShardedCFCM` runs one dynamic
engine (tracker + forest pool) per shard and answers global resistance /
CFCM queries by stitching the per-shard grounded inverses through a dense
Schur complement over the separator — see :mod:`repro.distributed.engine`
for the algebra and :doc:`docs/distributed.md <../../docs/distributed>`
for the full derivation.
"""

from repro.distributed.partition import Partition, partition_graph
from repro.distributed.shard import ShardState
from repro.distributed.engine import ShardedCFCM

__all__ = [
    "Partition",
    "partition_graph",
    "ShardState",
    "ShardedCFCM",
]
