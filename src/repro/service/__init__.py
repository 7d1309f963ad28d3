"""Long-lived network-query service: the batch pipeline as infrastructure.

The paper's product is a *queryable* endogenous network; this package
serves it.  A :class:`NetworkQueryService` owns warm
:class:`~repro.core.tilecache.TileCache` instances over a log directory
and answers concurrent window / layer / ego-subgraph / degree-summary
queries from many clients over a length-prefixed frame protocol, with
request coalescing, per-tenant admission control, and graceful drain.
Each cache lives exactly as long as the service.  The resilience layer
adds deadline propagation, priority load shedding, liveness/readiness
probes (:mod:`repro.service.resilience`, :mod:`repro.service.health`), and a
replica-failover client with circuit breakers and request hedging
(:mod:`repro.service.failover`).  See :mod:`repro.service.server` for
the architecture and :mod:`repro.service.protocol` for the wire format.

Start one from the CLI with ``repro serve`` and query it with
``repro client`` or programmatically::

    service = NetworkQueryService(log_dir, pop.n_persons, places=pop.places)
    async with service:
        async with ServiceClient(port=service.port) as client:
            net = await client.query_window(0, 168)
"""

from .admission import AdmissionController, TenantUsage
from .client import EgoResult, QueryMethods, ServiceClient, SyncServiceClient
from .failover import FailoverClient
from .health import HealthMonitor
from .protocol import (
    DEFAULT_PORT,
    MAX_FRAME,
    decode_csr,
    decode_network,
    encode_csr,
    encode_network,
    read_frame,
    write_frame,
)
from .resilience import (
    CircuitBreaker,
    Deadline,
    LoadShedder,
    jittered_backoff,
)
from .server import NetworkQueryService, ServiceConfig, ServiceStats

__all__ = [
    "AdmissionController",
    "TenantUsage",
    "EgoResult",
    "QueryMethods",
    "ServiceClient",
    "SyncServiceClient",
    "FailoverClient",
    "HealthMonitor",
    "CircuitBreaker",
    "Deadline",
    "LoadShedder",
    "jittered_backoff",
    "DEFAULT_PORT",
    "MAX_FRAME",
    "decode_csr",
    "decode_network",
    "encode_csr",
    "encode_network",
    "read_frame",
    "write_frame",
    "NetworkQueryService",
    "ServiceConfig",
    "ServiceStats",
]
