"""Collocation network synthesis — the paper's primary contribution.

From event-log records to a person collocation network (paper Section IV):

1. **time slicing** (:mod:`repro.core.slicing`) — subset log records to the
   analysis window, clipping activity intervals;
2. **collocation matrices** — per place, a sparse binary matrix *x*
   marking who was present when.  Production builds it over elementary
   segments, many places to an :class:`~repro.core.intervals.IntervalPack`
   (:mod:`repro.core.intervals`); the paper's per-hour ``p × t`` form
   (:mod:`repro.core.colloc`) is the primitive of the test-side oracle;
3. **load balancing** (:mod:`repro.core.balance`) — LPT by pairwise work,
   "crucial to achieve even load balancing" because place sizes "range
   from a single individual to tens of thousands": the ablation's and the
   oracle's; production balances where workers are processes
   (:func:`~repro.distrib.shardsynth.plan_shards`);
4. **adjacency matrices** — per place, ``A_l = x·xᵀ``; the weighted
   network is ``A = Σ_l A_l``, stored upper triangular (the graph is
   undirected): :func:`~repro.core.intervals.fold_packs` in production,
   :mod:`repro.core.adjacency` for the oracle and the accumulation both
   share;
5. **pipeline** (:mod:`repro.core.pipeline`) — the orchestration: one
   pool task per log file, one fold per batch, with the paper's
   independent per-batch log-file processing;
6. **network** (:mod:`repro.core.network`) — the resulting
   :class:`~repro.core.network.CollocationNetwork` object consumed by
   :mod:`repro.analysis`.
"""

from .slicing import slice_records, clip_records, unique_places
from .colloc import CollocationMatrix, build_collocation_matrices, collocation_matrix_for_place
from .intervals import (
    IntervalPack,
    build_interval_pack,
    sum_pack_adjacency,
)
from .balance import balance_by_nnz, balance_by_work, BalanceReport
from .adjacency import place_adjacency, accumulate_adjacency, triu_symmetrize
from .network import CollocationNetwork
from .pipeline import (
    SynthesisReport,
    synthesize_network,
    synthesize_from_logs,
    checkpoint_digest,
    load_checkpoint_manifest,
)
from .streaming import StreamingSynthesizer, WeeklyNetworkSeries
from .tilecache import TileCache, TileCacheStats
from .layers import synthesize_layers, layer_records

__all__ = [
    "slice_records",
    "clip_records",
    "unique_places",
    "CollocationMatrix",
    "build_collocation_matrices",
    "collocation_matrix_for_place",
    "IntervalPack",
    "build_interval_pack",
    "sum_pack_adjacency",
    "balance_by_nnz",
    "balance_by_work",
    "BalanceReport",
    "place_adjacency",
    "accumulate_adjacency",
    "triu_symmetrize",
    "CollocationNetwork",
    "SynthesisReport",
    "synthesize_network",
    "synthesize_from_logs",
    "checkpoint_digest",
    "load_checkpoint_manifest",
    "StreamingSynthesizer",
    "WeeklyNetworkSeries",
    "TileCache",
    "TileCacheStats",
    "synthesize_layers",
    "layer_records",
]
