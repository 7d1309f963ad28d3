"""Place-kind network layers.

The paper's conclusion: "it is likely that an accurate characterization of
the real population social network will require that synthetically
generated networks also match the vertex degree distributions for
population sub-groups such as age or **location type, e.g., work or
school**."

A *layer* is the collocation network restricted to contacts made at one
kind of place (home / school / workplace / other venue).  Layers decompose
the full network exactly — the weighted adjacency is the sum of the four
layer adjacencies, because every log record carries its place and every
place has exactly one kind — which the tests assert.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from ..errors import SynthesisError
from ..evlog.multifile import LogSet
from ..evlog.schema import LOG_DTYPE, LogRecordArray
from ..distrib.taskpool import WorkerPool
from ..obs import start_span
from ..synthpop.places import PlaceKind, PlaceTable
from .network import CollocationNetwork
from .pipeline import check_window, synthesize_network

__all__ = [
    "LAYER_KINDS",
    "synthesize_layers",
    "synthesize_layers_from_logs",
    "layer_caches",
    "layer_records",
]

#: canonical lower-case layer names, in :class:`PlaceKind` order — the
#: vocabulary shared by layer synthesis, the tile caches, and the
#: network-query service's ``layer`` op
LAYER_KINDS: tuple[str, ...] = tuple(kind.name.lower() for kind in PlaceKind)


def layer_records(
    records: LogRecordArray, places: PlaceTable, kind: PlaceKind
) -> LogRecordArray:
    """Records whose place is of the given kind."""
    records = np.asarray(records, dtype=LOG_DTYPE)
    if records.size and int(records["place"].max()) >= len(places):
        raise SynthesisError("records reference places outside the table")
    mask = places.kind[records["place"].astype(np.int64)] == int(kind)
    return records[mask]


def synthesize_layers(
    records: LogRecordArray,
    places: PlaceTable,
    n_persons: int,
    t0: int,
    t1: int,
    pool: WorkerPool | None = None,
) -> dict[str, CollocationNetwork]:
    """One collocation network per place kind, over the same window.

    Returns ``{"home": ..., "school": ..., "workplace": ..., "other": ...}``.
    Kinds with no in-window records yield empty networks of the right
    shape, so layer arithmetic always works.
    """
    check_window(n_persons, t0, t1)
    layers: dict[str, CollocationNetwork] = {}
    for kind in PlaceKind:
        with start_span("layer", attrs={"kind": kind.name.lower()}):
            layers[kind.name.lower()] = _layer_network(
                records, places, kind, n_persons, t0, t1, pool
            )
    return layers


def _layer_network(
    records, places, kind, n_persons, t0, t1, pool
) -> CollocationNetwork:
    subset = layer_records(records, places, kind)
    window = subset[(subset["start"] < t1) & (subset["stop"] > t0)]
    if len(window) == 0:
        from .adjacency import empty_adjacency

        return CollocationNetwork(empty_adjacency(n_persons), t0=t0, t1=t1)
    net, _ = synthesize_network(subset, n_persons, t0, t1, pool=pool)
    return net


def layer_caches(
    log_dir: "str | Path | LogSet",
    places: PlaceTable,
    n_persons: int,
    tile_hours: int = 24,
    budget_nnz: int | None = None,
    cache_dir: "str | Path | None" = None,
    pool: WorkerPool | None = None,
    strict: bool = False,
) -> dict:
    """One :class:`~repro.core.tilecache.TileCache` per place kind.

    Each cache restricts tile construction to records at places of its
    kind (via the cache's ``place_mask``), so repeated layer queries over
    sliding windows reuse per-kind tiles instead of re-filtering records.
    With ``cache_dir``, each kind persists into its own subdirectory.
    ``budget_nnz`` applies per kind.  Close every cache when done.
    """
    from .tilecache import TileCache

    caches: dict[str, TileCache] = {}
    for name in LAYER_KINDS:
        kind = PlaceKind[name.upper()]
        caches[name] = TileCache(
            log_dir,
            n_persons,
            tile_hours=tile_hours,
            budget_nnz=budget_nnz,
            cache_dir=Path(cache_dir) / name if cache_dir is not None else None,
            pool=pool,
            strict=strict,
            place_mask=places.kind == int(kind),
        )
    return caches


def synthesize_layers_from_logs(
    log_dir: "str | Path | LogSet",
    places: PlaceTable,
    n_persons: int,
    t0: int,
    t1: int,
    caches: dict | None = None,
    **cache_kwargs,
) -> tuple[dict[str, CollocationNetwork], dict]:
    """One collocation network per place kind, served from per-kind tile
    caches.

    Returns ``(layers, caches)``; pass ``caches`` back for subsequent
    windows so the per-kind tiles stay warm, and close them when done.
    Layer decomposition stays exact: the four layer adjacencies sum to the
    full-network adjacency over the same window.
    """
    if caches is None:
        caches = layer_caches(log_dir, places, n_persons, **cache_kwargs)
    elif cache_kwargs:
        raise SynthesisError(
            "pass cache construction arguments or existing caches, not both"
        )
    layers = {}
    for name, cache in caches.items():
        with start_span("layer", attrs={"kind": name, "cache": True}):
            layers[name] = cache.query_window(t0, t1)
    return layers, caches
