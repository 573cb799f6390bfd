"""Window-synchronised sharded simulation of fleet topologies.

Partitions a fleet at its client access links into client shards plus
a hub (switch + servers), synchronised by conservative lookahead
windows derived from the minimum client link latency, and steps every
world in one process.  Every shard count is bit-identical to the
serial event loop up to
:meth:`~repro.topology.fleet.FleetPointResult.run_fingerprint`.  It is
not a faster way to run a fleet (the serial loop is); it is kept as a
second engine that the equivalence tests and the benchmark check
against the serial one.
"""

from .engine import ShardedFleetOutcome, run_sharded_fleet
from .plan import FleetFaults, ShardPlan, build_plan
from .worlds import BoundaryLink, ClientShardWorld, HubWorld

__all__ = [
    "run_sharded_fleet",
    "ShardedFleetOutcome",
    "FleetFaults",
    "ShardPlan",
    "build_plan",
    "BoundaryLink",
    "ClientShardWorld",
    "HubWorld",
]
