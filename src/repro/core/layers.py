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

import numpy as np

from ..errors import SynthesisError
from ..evlog.schema import LOG_DTYPE, LogRecordArray
from ..obs import start_span
from ..synthpop.places import PlaceKind, PlaceTable
from .network import CollocationNetwork
from .pipeline import check_window, synthesize_network

__all__ = [
    "LAYER_KINDS",
    "synthesize_layers",
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
            layers[kind.name.lower()], _report = synthesize_network(
                layer_records(records, places, kind), n_persons, t0, t1
            )
    return layers
