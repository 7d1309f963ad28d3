"""Rank-based distributed runtime — the Repast HPC / MPI substitute.

The paper's stack uses MPI twice:

1. **chiSIM itself** (Repast HPC, 256 processes): "Places are distributed
   among compute processes, and agents are free to move between processes
   ... A spatially partitioned set of locations ... assigns locations to
   compute processes with the objective of minimizing person agent movement
   between processes."
2. **The synthesis pipeline** (SNOW/Rmpi): a master/worker task pool that
   maps per-place work onto workers.

MPI is unavailable here, so this subpackage provides both patterns natively:

* :mod:`repro.distrib.comm` + :mod:`repro.distrib.simcluster` — a BSP
  (bulk-synchronous) communicator with MPI-style collectives, executed by
  an in-process cluster of lock-stepped threads.  Every payload is metered,
  so communication volume (the quantity the spatial partitioning minimizes)
  is a first-class measurable.
* :mod:`repro.distrib.taskpool` — the SNOW-style worker pool (inline for
  one worker, threads otherwise) used by the synthesis pipeline;
  :mod:`repro.distrib.shardsynth` is synthesis across real processes.
* :mod:`repro.distrib.partition` — place→rank partitioning: random and
  round-robin baselines, weighted recursive coordinate bisection, and
  movement-graph refinement.
* :mod:`repro.distrib.dmodel` — the distributed model driver, which must
  reproduce the serial engine's event stream exactly (a test invariant).
"""

from .comm import Communicator, TrafficStats
from .simcluster import SimCluster
from .proccluster import ProcessBspCluster, ProcessCommunicator
from .taskpool import (
    WorkerPool,
    TaskPool,
    RetryPolicy,
    PoolReport,
)
from .partition import (
    PlacePartition,
    random_partition,
    round_robin_partition,
    spatial_partition,
    refine_partition,
    movement_matrix,
    estimate_migration,
)
from .migration import MIGRANT_DTYPE, pack_migrants, unpack_migrants
from .dmodel import DistributedSimulation, DistributedRunResult
from .shardsynth import (
    STRATEGIES,
    ShardPlan,
    ShardSynthesisReport,
    plan_shards,
    shard_synthesize,
)

__all__ = [
    "Communicator",
    "TrafficStats",
    "SimCluster",
    "ProcessBspCluster",
    "ProcessCommunicator",
    "STRATEGIES",
    "ShardPlan",
    "ShardSynthesisReport",
    "plan_shards",
    "shard_synthesize",
    "WorkerPool",
    "TaskPool",
    "RetryPolicy",
    "PoolReport",
    "PlacePartition",
    "random_partition",
    "round_robin_partition",
    "spatial_partition",
    "refine_partition",
    "movement_matrix",
    "estimate_migration",
    "MIGRANT_DTYPE",
    "pack_migrants",
    "unpack_migrants",
    "DistributedSimulation",
    "DistributedRunResult",
]
