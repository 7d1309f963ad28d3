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

* :mod:`repro.distrib.rankstep` — the ranks one process hosts, as one
  table, and the hour kernel that steps them all in one call, hands
  migrants between them and meters what each sends.  In process the
  distributed model hosts every rank and needs no collective.
* :mod:`repro.distrib.proccluster` — BSP (bulk-synchronous) collectives
  — ``alltoall``, ``gather``, ``barrier`` — across forked processes, for
  the model run one rank a process and for
  :mod:`repro.distrib.shardsynth`.
* :mod:`repro.distrib.comm` — what a collective costs: every payload is
  metered into per-rank :class:`TrafficStats`, so communication volume
  (the quantity the spatial partitioning minimizes) is a first-class
  measurable, in process and across processes alike.
* :mod:`repro.distrib.taskpool` — the SNOW-style worker pool (inline for
  one worker, threads otherwise) used by the synthesis pipeline;
  :mod:`repro.distrib.shardsynth` is synthesis across real processes.
* :mod:`repro.distrib.partition` — place→rank partitioning: random and
  round-robin baselines, weighted recursive coordinate bisection, and
  movement-graph refinement.
* :mod:`repro.distrib.dmodel` — the distributed model driver, which must
  reproduce the serial engine's event stream exactly (a test invariant).
"""

from .comm import TrafficStats
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
from .migration import MIGRANT_DTYPE, pack_migrants
from .dmodel import DistributedSimulation, DistributedRunResult
from .shardsynth import (
    ShardPlan,
    ShardSynthesisReport,
    plan_shards,
    shard_synthesize,
)

__all__ = [
    "TrafficStats",
    "ProcessBspCluster",
    "ProcessCommunicator",
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
    "DistributedSimulation",
    "DistributedRunResult",
]
