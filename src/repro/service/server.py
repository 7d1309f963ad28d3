"""Async multi-tenant network-query service over warm tile caches.

This is the long-lived front end that turns the batch synthesis pipeline
into infrastructure: one process owns warm
:class:`~repro.core.tilecache.TileCache` instances (the full network plus
lazily created per-place-kind layer caches) and serves concurrent window,
layer, ego-subgraph, and degree-summary queries from many clients over
the length-prefixed frame protocol in :mod:`repro.service.protocol`.

Architecture
------------
* **One event loop, a small executor.**  Connections, framing, admission,
  coalescing, and the ``window``/``layer`` blob encode (one buffer join,
  cheaper than an executor round-trip) run on the asyncio loop;
  compositions, ego extraction and degree summaries run in a bounded
  thread pool.  The tile caches are thread-safe (one lock over cache
  state, composition outside it), so executor threads share them
  directly — no per-query cache, no copies.
* **Request coalescing.**  Identical in-flight compositions are shared:
  the first request for a ``(cache, t0, t1)`` key becomes the *leader*
  and runs the composition; followers await the leader's future and get
  the same immutable :class:`CollocationNetwork` object.  ``degrees``
  requests coalesce with plain ``window`` requests for the same window,
  since they derive from the same composition.  ``ego`` composes
  nothing: it reads the window's cached parts
  (:meth:`~repro.core.tilecache.TileCache.window_parts`) on the executor,
  so there is nothing for it to share.
* **Admission control.**  Every query charges its tenant's
  :class:`~repro.service.admission.AdmissionController` ledger before
  any work happens and releases after its response blob is encoded; an
  over-budget query is rejected with ``retry_after`` instead of growing
  the heap.  Budgets are strictly per tenant.
* **One cache per key, for the server's lifetime.**  The full-network
  cache opens in :meth:`start`, a layer cache on its kind's first
  query, and each is closed exactly once, by :meth:`stop`, after the
  drain.  Nothing swaps a cache under a running server and no work runs
  in the background, so no in-flight work needs to hold a reference on
  one.
* **Deadline propagation.**  A request may carry a ``deadline`` budget
  (seconds) in its frame header; the server converts it to a monotonic
  :class:`~repro.service.resilience.Deadline` on receipt.  Dead-on-
  arrival work is rejected with ``code="expired"`` before it touches the
  queue; a composition whose every registered waiter has expired is
  abandoned at executor dequeue; waiting on a composition or an
  executor-side derivation is bounded by the remaining budget, and the
  budget is checked once more after the blob is encoded, before the
  write (``code="deadline"`` when it runs out mid-flight).  Coalesced peers
  with later deadlines are unaffected — a follower that receives a
  leader's abandonment but still has budget simply recomposes.
* **Load shedding.**  A :class:`~repro.service.resilience.LoadShedder`
  bounds admitted-but-unfinished work server-wide.  Control ops
  (``ping``/``stats``/``metrics``/``live``/``ready``) are never shed;
  queries are
  shed with ``code="overload"`` + ``retry_after`` when depth reaches
  ``queue_limit`` or the oldest in-flight request exceeds
  ``shed_inflight_age``.
* **Slow-client write timeout.**  A response write that cannot drain
  within ``write_timeout`` aborts that connection (counted in
  ``slow_writes``) instead of parking a handler on a stalled socket
  forever.
* **Graceful drain.**  ``stop()`` refuses new work (``shutting-down``
  rejections) while continuing to *answer* — probes and rejections stay
  fast so load balancers fail over cleanly — waits for in-flight
  requests to finish writing on an event signalled at last-inflight-
  exit (no polling), and force-aborts any writer still unfinished at
  the ``drain_timeout`` deadline before closing caches and the
  executor.
* **Telemetry.**  Every non-control request runs inside a ``request``
  span parented to the client's ``header["trace"]`` context, with
  ``admission`` → ``coalesce`` → ``compose`` → ``kernel`` children (the
  composition carries the leader's context into the executor thread;
  an ``ego`` request's analysis kernels hang off the request itself)
  and a closing ``write`` child (attr ``bytes``) covering the socket
  write and drain, and the trace id is echoed in every response.
  Service counters are mirrored into the process metrics registry
  (``service.*``), which also holds a per-op latency histogram
  ``service.op_seconds.<op>`` (receipt to drained reply) and a
  ``service.reply_bytes`` counter; the ``metrics`` op returns a registry
  snapshot; ``trace_log`` streams finished spans to JSONL for
  ``repro trace``.  See :mod:`repro.obs`.
"""

from __future__ import annotations

import asyncio
import logging
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..analysis.degree import degree_distribution
from ..analysis.ego import ego_from_parts
from ..core.tilecache import TileCache
from ..obs import (
    NOOP_SPAN,
    JsonlSpanSink,
    MirroredStats,
    TraceContext,
    count,
    current_context,
    default_registry,
    get_collector,
    observe,
    start_span,
    use_context,
)
from ..errors import (
    AdmissionError,
    ConfigError,
    DeadlineError,
    FrameError,
    OverloadError,
    ReproError,
    ServiceError,
)
from ..synthpop.places import LAYER_KINDS, PlaceKind, PlaceTable
from .admission import AdmissionController
from .health import HealthMonitor
from .resilience import PRIORITY_QUERY, Deadline, LoadShedder
from .protocol import (
    DEFAULT_PORT,
    MAX_FRAME,
    encode_csr,
    encode_network,
    error_response,
    ok_response,
    read_frame,
    write_frame,
)

__all__ = ["ServiceConfig", "ServiceStats", "NetworkQueryService"]

log = logging.getLogger("repro.service")

#: handle key for the full (all place kinds) network cache
_FULL = "full"


@dataclass
class ServiceConfig:
    """Tunables for one :class:`NetworkQueryService`."""

    host: str = "127.0.0.1"
    #: TCP port; 0 binds an ephemeral port (read it from ``service.port``)
    port: int = DEFAULT_PORT
    tile_hours: int = 24
    #: per-cache in-memory LRU budget (stored nonzeros); None = unbounded
    cache_budget_nnz: int | None = None
    #: directory for persisted tiles (one subdirectory per cache)
    cache_dir: str | Path | None = None
    strict: bool = False
    #: per-tenant admission budget in estimated in-flight nnz; None admits all
    tenant_budget_nnz: float | None = None
    #: back-off hint carried by admission rejections, seconds
    retry_after: float = 0.05
    #: admission density prior until completed queries establish one
    assume_nnz_per_hour: float = 0.0
    #: composition/derivation thread pool size
    executor_threads: int = 2
    max_frame: int = MAX_FRAME
    #: seconds stop() waits for in-flight requests before force-closing
    drain_timeout: float = 10.0
    #: default ego-subgraph BFS radius (the paper's figures use 2)
    ego_radius: int = 2
    #: server-side cap applied to every request's deadline budget
    #: (seconds); also the default for requests that carry none.  None
    #: leaves deadline-less requests unbounded.
    default_deadline: float | None = None
    #: abort a connection whose response write cannot drain within this
    #: many seconds (slow/stalled client); None disables
    write_timeout: float | None = 30.0
    #: load shedding: max admitted-but-unfinished queries server-wide;
    #: None never sheds on depth
    queue_limit: int | None = 256
    #: load shedding: reject new work while the oldest in-flight request
    #: is older than this many seconds; None disables the age trigger
    shed_inflight_age: float | None = None
    #: append every finished span (server-side and absorbed worker spans)
    #: to this JSONL file for ``repro trace``; None disables
    trace_log: str | Path | None = None

    def __post_init__(self) -> None:
        for name in (
            "tile_hours", "executor_threads", "queue_limit", "ego_radius"
        ):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ConfigError(f"{name} must be >= 1, got {value}")


@dataclass
class ServiceStats(MirroredStats):
    """Service counters: each :meth:`bump` also counts ``service.<name>``
    in the metrics registry, and :meth:`snapshot` is the ``stats`` op's
    atomic copy."""

    scope = "service"

    connections: int = 0
    requests: int = 0
    #: network-producing queries (window / layer / ego / degrees)
    queries: int = 0
    #: compositions actually executed (coalescing leaders)
    compositions: int = 0
    #: queries that shared an in-flight leader's composition
    coalesced: int = 0
    #: admission-control rejections
    rejections: int = 0
    #: malformed frames (connection closed after each)
    malformed: int = 0
    #: client connections that vanished mid-request/response
    disconnects: int = 0
    #: unexpected internal errors answered with code="internal"
    errors: int = 0
    #: requests whose deadline had already passed on arrival (rejected
    #: with code="expired", never queued)
    expired: int = 0
    #: requests whose deadline ran out mid-flight (code="deadline")
    deadline_timeouts: int = 0
    #: queries shed by the admission queue (code="overload")
    shed: int = 0
    #: connections aborted because a response write stalled past
    #: write_timeout
    slow_writes: int = 0


class _CacheHandle:
    """One tile cache plus the loop-side state that rides along with it."""

    __slots__ = ("cache", "horizon", "inflight")

    def __init__(self, cache: TileCache, horizon: int) -> None:
        self.cache = cache
        self.horizon = horizon
        #: in-flight coalesced compositions keyed by ``(t0, t1)``
        self.inflight: dict[tuple[int, int], _Inflight] = {}


class _Inflight:
    """One coalesced composition: shared future + waiter deadlines.

    Waiters register their deadlines on the event loop; the executor
    job reads them (GIL-ordered against the appends) right before
    composing, so work every waiter has already abandoned is never
    started.  ``no_deadline`` latches when any waiter has no deadline —
    such a composition is never abandoned.
    """

    __slots__ = ("fut", "deadlines", "no_deadline")

    def __init__(self, fut: asyncio.Future) -> None:
        self.fut = fut
        self.deadlines: list[float] = []
        self.no_deadline = False

    def register(self, dl: Deadline) -> None:
        if dl.at is None:
            self.no_deadline = True
        else:
            self.deadlines.append(dl.at)

    def abandoned(self, now: float) -> bool:
        """True iff every registered waiter's deadline has passed."""
        if self.no_deadline or not self.deadlines:
            return False
        return all(at <= now for at in self.deadlines)


def _trace_id() -> str:
    """The current request's trace id, for log correlation."""
    ctx = current_context()
    return ctx.trace_id if ctx is not None else "-"


def _require_int(header: dict, name: str, minimum: int | None = None) -> int:
    value = header.get(name)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ServiceError(f"{name!r} must be an integer", code="bad-request")
    if minimum is not None and value < minimum:
        raise ServiceError(
            f"{name!r} must be >= {minimum}, got {value}", code="bad-request"
        )
    return value


def _window_params(header: dict) -> tuple[int, int]:
    t0 = _require_int(header, "t0", minimum=0)
    t1 = _require_int(header, "t1")
    if t1 <= t0:
        raise ServiceError(
            f"empty query window [{t0}, {t1})", code="bad-request"
        )
    return t0, t1


class NetworkQueryService:
    """Serve network queries over a log directory to many clients.

    Parameters
    ----------
    log_dir:
        Per-rank EVL directory the caches are built over.
    n_persons:
        Population size (matrix dimension).
    places:
        Optional :class:`PlaceTable`; required only for ``layer`` queries
        (and ``degrees`` restricted to a kind).
    config:
        :class:`ServiceConfig` tunables.

    Usage::

        service = NetworkQueryService(log_dir, pop.n_persons,
                                      places=pop.places)
        async with service:           # binds, starts serving
            ...                       # service.port is the bound port
        # stop() drains and closes on exit
    """

    def __init__(
        self,
        log_dir: str | Path,
        n_persons: int,
        places: PlaceTable | None = None,
        config: ServiceConfig | None = None,
    ) -> None:
        self.log_dir = Path(log_dir)
        self.n_persons = int(n_persons)
        self.places = places
        self.config = config or ServiceConfig()
        self.stats = ServiceStats()
        self.admission = AdmissionController(
            budget_nnz=self.config.tenant_budget_nnz,
            retry_after=self.config.retry_after,
            assume_nnz_per_hour=self.config.assume_nnz_per_hour,
        )
        self.shedder = LoadShedder(
            limit=self.config.queue_limit,
            shed_inflight_age=self.config.shed_inflight_age,
            retry_after=self.config.retry_after,
        )
        self.health = HealthMonitor()
        self._handles: dict[str, _CacheHandle] = {}
        self._handle_futures: dict[str, asyncio.Future] = {}
        self._server: asyncio.base_events.Server | None = None
        self._executor: ThreadPoolExecutor | None = None
        self._writers: set[asyncio.StreamWriter] = set()
        self._inflight = 0
        #: set whenever _inflight is zero; stop() waits on it instead of
        #: polling, and the last in-flight exit signals it
        self._idle = asyncio.Event()
        self._idle.set()
        self._draining = False
        self._stopping = False
        self._stopped = asyncio.Event()
        self._started = False
        self._trace_sink: JsonlSpanSink | None = None

    # -- lifecycle ------------------------------------------------------------

    @property
    def port(self) -> int:
        """The actually bound TCP port (after :meth:`start`)."""
        if self._server is None:
            raise ServiceError("service is not started", code="internal")
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> "NetworkQueryService":
        """Open the full-network cache and begin accepting connections."""
        if self._started:
            raise ServiceError("service already started", code="internal")
        self._started = True
        if self.config.trace_log is not None:
            self._trace_sink = JsonlSpanSink(self.config.trace_log)
            get_collector().add_sink(self._trace_sink)
        self._executor = ThreadPoolExecutor(
            max_workers=self.config.executor_threads,
            thread_name_prefix="repro-service",
        )
        await self._get_handle(_FULL)  # fail fast on an unusable log dir
        self._server = await asyncio.start_server(
            self._handle_conn, host=self.config.host, port=self.config.port
        )
        self.health.to_ready()
        return self

    async def stop(self) -> None:
        """Drain in-flight requests, then close everything (idempotent).

        The drain waits on the idle event signalled by the last
        in-flight exit — no polling — bounded by ``drain_timeout``.
        New requests arriving mid-drain are *answered* with
        ``shutting-down`` (the listener stays open until the drain
        completes, so a connection racing the shutdown never hangs on an
        unreachable port with bytes half-sent).  A writer that cannot
        finish by the deadline is force-aborted rather than waited on
        forever.
        """
        if self._stopping:
            await self._stopped.wait()
            return
        self._stopping = True
        self._draining = True
        self.health.to_draining()
        clean = True
        if self._inflight > 0:
            try:
                await asyncio.wait_for(
                    self._idle.wait(), self.config.drain_timeout
                )
            except asyncio.TimeoutError:
                clean = False
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for writer in list(self._writers):
            if clean:
                writer.close()
            else:
                # a stalled response write must not outlive the drain
                # deadline: reset the connection instead of joining it
                try:
                    writer.transport.abort()
                except (AttributeError, RuntimeError):
                    writer.close()
        self._writers.clear()
        for handle in self._handles.values():
            handle.cache.close()
        self._handles.clear()
        if self._executor is not None:
            # after a timed-out drain an executor thread may be wedged in
            # a composition; joining it would hang stop() forever
            self._executor.shutdown(wait=clean, cancel_futures=not clean)
        if self._trace_sink is not None:
            get_collector().remove_sink(self._trace_sink)
            self._trace_sink.close()
            self._trace_sink = None
        self.health.to_stopped()
        self._stopped.set()

    async def wait_stopped(self) -> None:
        """Block until :meth:`stop` has completed (CLI serve loop)."""
        await self._stopped.wait()

    async def __aenter__(self) -> "NetworkQueryService":
        return await self.start()

    async def __aexit__(self, *exc: object) -> None:
        await self.stop()

    # -- cache handles --------------------------------------------------------

    def _build_handle_sync(self, key: str) -> _CacheHandle:
        """Executor side of cache construction (reads every log byte):
        one :class:`TileCache` per key, the layer keys place-masked to
        their kind."""
        cfg = self.config
        place_mask = None
        if key != _FULL:
            assert self.places is not None
            place_mask = self.places.kind == int(PlaceKind[key.upper()])
        cache = TileCache(
            self.log_dir,
            self.n_persons,
            tile_hours=cfg.tile_hours,
            budget_nnz=cfg.cache_budget_nnz,
            cache_dir=(
                Path(cfg.cache_dir) / key if cfg.cache_dir is not None else None
            ),
            strict=cfg.strict,
            place_mask=place_mask,
        )
        return _CacheHandle(cache, horizon=cache.horizon())

    async def _get_handle(self, key: str) -> _CacheHandle:
        """The live handle for ``key``, building its cache at most once
        even under concurrent first requests."""
        handle = self._handles.get(key)
        if handle is not None:
            return handle
        if key != _FULL:
            if key not in LAYER_KINDS:
                raise ServiceError(
                    f"unknown layer kind {key!r}; expected one of "
                    f"{', '.join(LAYER_KINDS)}",
                    code="bad-request",
                )
            if self.places is None:
                raise ServiceError(
                    "layer queries need the service started with a "
                    "population's place table",
                    code="bad-request",
                )
        fut = self._handle_futures.get(key)
        if fut is not None:
            return await fut
        loop = asyncio.get_running_loop()
        fut = loop.create_future()
        self._handle_futures[key] = fut
        try:
            handle = await loop.run_in_executor(
                self._executor, self._build_handle_sync, key
            )
        except Exception as exc:
            fut.set_exception(exc)
            fut.exception()  # mark retrieved: followers may be absent
            raise
        else:
            self._handles[key] = handle
            fut.set_result(handle)
            return handle
        finally:
            self._handle_futures.pop(key, None)

    # -- coalesced composition ------------------------------------------------

    def _start_composition(
        self, handle: _CacheHandle, wkey: tuple[int, int]
    ) -> _Inflight:
        """Launch one composition on the executor.  It outlives any one
        waiter: a waiter timing out leaves it running for its coalesced
        peers."""
        loop = asyncio.get_running_loop()
        entry = _Inflight(loop.create_future())
        handle.inflight[wkey] = entry
        self.stats.bump("compositions")
        t0, t1 = wkey
        # the leader's coalesce-span context, carried into the executor
        # thread so the cache's compose span (and the kernel spans under
        # it) nest in the leader's trace
        ctx = current_context()

        def job():
            # executor-queue expiry: work every waiter has abandoned by
            # dequeue time is rejected, not silently executed
            if entry.abandoned(time.monotonic()):
                raise DeadlineError(
                    f"composition of [{t0}, {t1}) abandoned: every "
                    "waiter's deadline expired before it was dequeued",
                    code="expired",
                )
            with use_context(ctx):
                return handle.cache.query_window(t0, t1)

        exec_fut = loop.run_in_executor(self._executor, job)

        def _done(f: asyncio.Future) -> None:
            # pop before resolving so a waiter retrying on abandonment
            # becomes a fresh leader instead of re-joining this entry
            if handle.inflight.get(wkey) is entry:
                del handle.inflight[wkey]
            exc = f.exception()
            if exc is not None:
                entry.fut.set_exception(exc)
                entry.fut.exception()  # waiters may all be gone
            else:
                entry.fut.set_result(f.result())

        exec_fut.add_done_callback(_done)
        return entry

    async def _coalesced_window(
        self, key: str, t0: int, t1: int, dl: Deadline
    ):
        """One window composition per in-flight ``(cache, t0, t1)``.

        Waiting is bounded by the request's deadline; the composition
        itself is shared and keeps running for coalesced peers even if
        this waiter times out.  A waiter handed a peer-abandonment
        (every *earlier* waiter expired before the build was dequeued)
        recomposes as a new leader while it still has budget.
        """
        while True:
            handle = await self._get_handle(key)
            wkey = (t0, t1)
            entry = handle.inflight.get(wkey)
            with start_span(
                "coalesce",
                attrs={
                    "cache": key,
                    "t0": t0,
                    "t1": t1,
                    "role": "leader" if entry is None else "follower",
                },
            ):
                if entry is None:
                    entry = self._start_composition(handle, wkey)
                else:
                    self.stats.bump("coalesced")
                entry.register(dl)
                try:
                    net = await asyncio.wait_for(
                        asyncio.shield(entry.fut), dl.remaining()
                    )
                except asyncio.TimeoutError:
                    self.stats.bump("deadline_timeouts")
                    raise DeadlineError(
                        f"deadline exceeded composing [{t0}, {t1})"
                    ) from None
                except DeadlineError:
                    if dl.expired:
                        raise
                    # our registration raced the executor's abandonment
                    # check; we still have budget, so compose again
                    continue
                self.admission.observe(t1 - t0, net.n_edges)
                return net

    # -- connection handling --------------------------------------------------

    async def _handle_conn(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.stats.bump("connections")
        self._writers.add(writer)
        try:
            while True:
                try:
                    header, _blob = await read_frame(
                        reader, self.config.max_frame
                    )
                except FrameError as exc:
                    # a broken frame loses stream phase: answer and close
                    self.stats.bump("malformed")
                    try:
                        write_frame(
                            writer,
                            error_response(None, str(exc), "malformed"),
                        )
                        await writer.drain()
                    except (ConnectionError, OSError):
                        pass
                    break
                except (
                    asyncio.IncompleteReadError,
                    ConnectionError,
                    OSError,
                ):
                    break  # peer went away between requests
                self._inflight += 1
                self._idle.clear()
                try:
                    if not await self._serve(header, writer):
                        break
                finally:
                    self._inflight -= 1
                    if self._inflight == 0:
                        self._idle.set()
        finally:
            self._writers.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    #: ops that produce network answers — deadline-checked, sheddable
    _QUERY_OPS = frozenset({"window", "layer", "ego", "degrees"})
    #: control plane — never shed, answered even mid-drain
    _CONTROL_OPS = frozenset({"ping", "stats", "metrics", "live", "ready"})

    def _parse_deadline(self, header: dict) -> Deadline:
        """The request's effective deadline: the client budget capped by
        the server-side default (which also covers budget-less requests)."""
        raw = header.get("deadline")
        if raw is None:
            return Deadline.after(self.config.default_deadline)
        if isinstance(raw, bool) or not isinstance(raw, (int, float)):
            raise ServiceError(
                "'deadline' must be a number of seconds", code="bad-request"
            )
        budget = float(raw)
        if self.config.default_deadline is not None:
            budget = min(budget, self.config.default_deadline)
        return Deadline.after(budget)

    async def _serve(
        self, header: dict, writer: asyncio.StreamWriter
    ) -> bool:
        """Answer one request on its connection; False means the
        connection is finished (stalled or gone) and must be closed.

        A non-control request runs inside a ``request`` span parented to
        the client's ``header["trace"]`` context (when it sent one), so
        the whole server-side tree — admission, coalescing, the executor
        composition, the cache's kernel work, and the ``write`` of the
        reply — hangs off the caller's trace.  The trace id is echoed in
        every response (``trace_id``) so clients can correlate without
        parsing span logs.
        """
        rid = header.get("id")
        op = header.get("op")
        ctx = TraceContext.from_wire(header.get("trace"))
        traced = op in self._OPS and op not in self._CONTROL_OPS
        tic = time.perf_counter()
        span = NOOP_SPAN
        if traced:
            span = start_span(
                "request",
                parent=ctx,
                attrs={"op": op, "tenant": header.get("tenant", "anon")},
            )
        with span:
            resp, blob = await self._dispatch_guarded(rid, op, header)
            if not resp.get("ok", False):
                span.set_status(f"error:{resp.get('code')}")
            tid = span.trace_id or (ctx.trace_id if ctx is not None else None)
            if tid:
                resp.setdefault("trace_id", tid)
            with (start_span("write") if traced else NOOP_SPAN) as wspan:
                n_bytes = write_frame(writer, resp, blob)
                wspan.set_attr("bytes", n_bytes)
                alive = await self._drain(writer)
        if op in self._OPS:  # never a metric per made-up op name
            count("service.reply_bytes", n_bytes)
            observe(f"service.op_seconds.{op}", time.perf_counter() - tic)
        return alive

    async def _drain(self, writer: asyncio.StreamWriter) -> bool:
        """Flush the queued reply, bounded by ``write_timeout``."""
        try:
            await asyncio.wait_for(writer.drain(), self.config.write_timeout)
        except asyncio.TimeoutError:
            # stalled client socket: reset it rather than park this
            # handler (and the drain) forever
            self.stats.bump("slow_writes")
            try:
                writer.transport.abort()
            except (AttributeError, RuntimeError):
                pass
            return False
        except (ConnectionError, OSError):
            self.stats.bump("disconnects")
            return False
        return True

    async def _dispatch_guarded(
        self, rid, op, header: dict
    ) -> tuple[dict, bytes]:
        self.stats.bump("requests")
        if self._draining and op not in self._CONTROL_OPS:
            return (
                error_response(rid, "server is draining", "shutting-down"),
                b"",
            )
        handler = self._OPS.get(op)
        if handler is None:
            return (
                error_response(rid, f"unknown op {op!r}", "bad-request"),
                b"",
            )
        shed_token = None
        try:
            dl = self._parse_deadline(header)
            # dead-on-arrival work is rejected before it can queue
            if dl.expired:
                self.stats.bump("expired")
                log.warning(
                    "expired on arrival: op=%s id=%r trace=%s",
                    op, rid, _trace_id(),
                )
                raise DeadlineError(
                    "deadline already expired on arrival", code="expired"
                )
            if op in self._QUERY_OPS:
                try:
                    shed_token = self.shedder.admit(PRIORITY_QUERY)
                except OverloadError:
                    self.stats.bump("shed")
                    self.health.note_shed()
                    log.warning(
                        "shed under load: op=%s id=%r trace=%s",
                        op, rid, _trace_id(),
                    )
                    raise
            return await handler(self, rid, header, dl)
        except (AdmissionError, OverloadError) as exc:
            if isinstance(exc, AdmissionError):
                self.stats.bump("rejections")
            return (
                error_response(
                    rid, str(exc), exc.code, retry_after=exc.retry_after
                ),
                b"",
            )
        except ServiceError as exc:
            return error_response(rid, str(exc), exc.code), b""
        except ReproError as exc:
            # domain validation (bad window, unknown person, damaged logs)
            return error_response(rid, str(exc), "bad-request"), b""
        except Exception as exc:  # noqa: BLE001 - server must stay up
            self.stats.bump("errors")
            log.exception(
                "internal error: op=%s id=%r trace=%s", op, rid, _trace_id()
            )
            return (
                error_response(
                    rid, f"{type(exc).__name__}: {exc}", "internal"
                ),
                b"",
            )
        finally:
            if shed_token is not None:
                self.shedder.release(shed_token)

    # -- ops ------------------------------------------------------------------

    def _tenant(self, header: dict) -> str:
        tenant = header.get("tenant", "anon")
        if not isinstance(tenant, str) or not tenant:
            raise ServiceError("'tenant' must be a non-empty string",
                               code="bad-request")
        return tenant

    async def _bounded_executor(self, dl: Deadline, fn, *args):
        """Run ``fn`` on the executor, waiting at most the remaining
        deadline budget.  The executor job itself is not interrupted
        (threads cannot be), but this waiter stops holding admission and
        connection state for it the moment the budget runs out."""
        loop = asyncio.get_running_loop()
        fut = loop.run_in_executor(self._executor, fn, *args)
        try:
            return await asyncio.wait_for(asyncio.shield(fut), dl.remaining())
        except asyncio.TimeoutError:
            self.stats.bump("deadline_timeouts")
            fut.add_done_callback(
                lambda f: f.exception()  # abandoned: mark retrieved
            )
            raise DeadlineError(
                "deadline exceeded deriving the response"
            ) from None

    def _admit(self, header: dict):
        """Parse the window and charge the tenant's admission ledger.

        Returns ``(t0, t1, release)`` — the caller must invoke
        ``release()`` once it no longer holds response-sized data.
        """
        t0, t1 = _window_params(header)
        tenant = self._tenant(header)
        self.stats.bump("queries")
        with start_span("admission", attrs={"tenant": tenant}) as span:
            cost = self.admission.admit(tenant, t1 - t0)
            span.set_attr("cost_nnz", cost)
        released = False

        def release() -> None:
            nonlocal released
            if not released:
                released = True
                self.admission.release(tenant, cost)

        return t0, t1, release

    async def _admitted_window(self, header: dict, key: str, dl: Deadline):
        """Parse, admit, compose, encode-release: the shared query core.

        Returns ``(net, t0, t1, release)`` — the caller must invoke
        ``release()`` once it no longer holds response-sized data.
        """
        t0, t1, release = self._admit(header)
        try:
            net = await self._coalesced_window(key, t0, t1, dl)
        except BaseException:
            release()
            raise
        return net, t0, t1, release

    async def _op_ping(self, rid, header, dl) -> tuple[dict, bytes]:
        return ok_response(rid, pong=True, draining=self._draining), b""

    async def _op_live(self, rid, header, dl) -> tuple[dict, bytes]:
        return ok_response(rid, **self.health.liveness()), b""

    async def _op_ready(self, rid, header, dl) -> tuple[dict, bytes]:
        return (
            ok_response(
                rid,
                **self.health.readiness(
                    queue_depth=self.shedder.depth,
                    queue_limit=self.shedder.limit,
                ),
            ),
            b"",
        )

    async def _network_reply(
        self, rid, header, key: str, dl: Deadline, **fields
    ) -> tuple[dict, bytes]:
        """The ``window``/``layer`` answer: compose, encode, describe."""
        net, t0, t1, release = await self._admitted_window(header, key, dl)
        try:
            # on the loop: one buffer join costs less than an executor hop
            blob = encode_network(net)
        finally:
            release()
        if dl.expired:
            self.stats.bump("deadline_timeouts")
            raise DeadlineError("deadline exceeded encoding the response")
        return (
            ok_response(
                rid,
                **fields,
                t0=t0,
                t1=t1,
                n_persons=net.n_persons,
                n_edges=net.n_edges,
                total_weight=net.total_weight,
            ),
            blob,
        )

    async def _op_window(self, rid, header, dl) -> tuple[dict, bytes]:
        return await self._network_reply(rid, header, _FULL, dl)

    async def _op_layer(self, rid, header, dl) -> tuple[dict, bytes]:
        kind = header.get("kind")
        if not isinstance(kind, str):
            raise ServiceError("'kind' must be a string", code="bad-request")
        kind = kind.lower()
        return await self._network_reply(rid, header, kind, dl, kind=kind)

    async def _op_ego(self, rid, header, dl) -> tuple[dict, bytes]:
        person = _require_int(header, "person", minimum=0)
        radius = header.get("radius", self.config.ego_radius)
        if isinstance(radius, bool) or not isinstance(radius, int) or radius < 1:
            raise ServiceError(
                "'radius' must be a positive integer", code="bad-request"
            )
        t0, t1, release = self._admit(header)
        # carried into the executor thread so the analysis kernel spans
        # nest in this request's trace
        ctx = current_context()
        try:
            handle = await self._get_handle(_FULL)

            def _build() -> tuple[bytes, int, int]:
                # work whose waiter gave up before dequeue is not started
                if dl.expired:
                    raise DeadlineError(
                        "ego request expired before it was dequeued",
                        code="expired",
                    )
                with use_context(ctx):
                    parts = handle.cache.window_parts(t0, t1)
                    ego = ego_from_parts(parts, person, radius=radius)
                blob = encode_csr(
                    ego.matrix,
                    persons=ego.persons.astype(np.int64),
                    center=np.array([ego.center], dtype=np.int64),
                    radius=np.array([ego.radius], dtype=np.int64),
                )
                return blob, ego.n_nodes, ego.n_edges

            blob, n_nodes, n_edges = await self._bounded_executor(dl, _build)
        finally:
            release()
        return (
            ok_response(
                rid,
                person=person,
                radius=radius,
                t0=t0,
                t1=t1,
                n_nodes=n_nodes,
                n_edges=n_edges,
            ),
            blob,
        )

    async def _op_degrees(self, rid, header, dl) -> tuple[dict, bytes]:
        kind = header.get("kind")
        if kind is not None and not isinstance(kind, str):
            raise ServiceError(
                "'kind' must be a string when given", code="bad-request"
            )
        key = kind.lower() if kind is not None else _FULL
        net, t0, t1, release = await self._admitted_window(header, key, dl)
        try:
            def _summarize() -> dict:
                dist = degree_distribution(net.degrees())
                return {
                    "t0": t0,
                    "t1": t1,
                    "kind": None if key == _FULL else key,
                    "n_vertices": int(dist.n_vertices),
                    "n_isolated": int(dist.n_isolated),
                    "n_edges": net.n_edges,
                    "total_weight": net.total_weight,
                    "mean_degree": float(dist.mean_degree),
                    "max_degree": (
                        int(dist.degrees.max()) if len(dist.degrees) else 0
                    ),
                    "degrees": dist.degrees.tolist(),
                    "counts": dist.counts.tolist(),
                }

            summary = await self._bounded_executor(dl, _summarize)
        finally:
            release()
        return ok_response(rid, **summary), b""

    async def _op_stats(self, rid, header, dl) -> tuple[dict, bytes]:
        caches = {}
        for key, handle in self._handles.items():
            s = handle.cache.stats
            caches[key] = {
                "digest": handle.cache.digest,
                "horizon": handle.horizon,
                "queries": s.queries,
                "tile_hits": s.tile_hits,
                "fringe_hits": s.fringe_hits,
                "disk_hits": s.disk_hits,
                "tiles_built": s.tiles_built,
                "tiles_merged": s.tiles_merged,
                "evictions": s.evictions,
                "tiles_quarantined": s.tiles_quarantined,
                "cached_nnz": handle.cache.cached_nnz,
                "quarantined": list(handle.cache.quarantined),
                "quarantined_tiles": list(handle.cache.quarantined_tiles),
            }
        return (
            ok_response(
                rid,
                stats=self.stats.snapshot(
                    uptime=round(self.health.uptime, 3),
                    inflight=self._inflight,
                ),
                admission=self.admission.snapshot(),
                shedder=self.shedder.snapshot(),
                health={
                    "state": self.health.state,
                    "uptime": round(self.health.uptime, 3),
                },
                caches=caches,
            ),
            b"",
        )

    async def _op_metrics(self, rid, header, dl) -> tuple[dict, bytes]:
        """Process-wide metrics registry snapshot (counters, gauges,
        histograms) — the same registry ``repro metrics`` renders."""
        return ok_response(rid, metrics=default_registry().snapshot()), b""

    async def _op_shutdown(self, rid, header, dl) -> tuple[dict, bytes]:
        # respond first; the drain starts as soon as this request's
        # response is on the wire (stop() waits for in-flight writes)
        asyncio.get_running_loop().call_soon(
            lambda: asyncio.ensure_future(self.stop())
        )
        return ok_response(rid, stopping=True), b""

    _OPS = {
        "ping": _op_ping,
        "live": _op_live,
        "ready": _op_ready,
        "window": _op_window,
        "layer": _op_layer,
        "ego": _op_ego,
        "degrees": _op_degrees,
        "stats": _op_stats,
        "metrics": _op_metrics,
        "shutdown": _op_shutdown,
    }
