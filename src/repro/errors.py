"""Exception hierarchy for the :mod:`repro` package.

Every error raised intentionally by this library derives from
:class:`ReproError` so callers can catch library failures without also
swallowing programming errors (``TypeError``, ``KeyError``, ...).
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "ConfigError",
    "PopulationError",
    "ScheduleError",
    "SimulationError",
    "CommError",
    "RankFailureError",
    "RankDeadError",
    "PartitionError",
    "TaskRetryError",
    "CheckpointError",
    "LogFormatError",
    "LogTruncatedError",
    "LogCorruptError",
    "SynthesisError",
    "TileCacheError",
    "ServiceError",
    "FrameError",
    "AdmissionError",
    "OverloadError",
    "DeadlineError",
    "ReplicaSetError",
    "AnalysisError",
    "FitError",
    "LayoutError",
]


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigError(ReproError):
    """Invalid or inconsistent configuration values."""


class PopulationError(ReproError):
    """Synthetic population generation failed or produced invalid data."""


class ScheduleError(ReproError):
    """Activity schedule construction or validation failed."""


class SimulationError(ReproError):
    """Agent-based model execution failed."""


class CommError(ReproError):
    """A cluster run failed: a bad payload count, a rank that raised
    (named, its cause chained where it ran in this process) or a run past
    its deadline."""


class RankFailureError(CommError):
    """A rank stopped participating in collectives: it was killed (a
    :class:`RankDeadError` from its fault handle, a forked rank that
    exited without reporting) or its work between two collectives overran
    the heartbeat deadline.

    ``suspects`` lists the ranks found dead.
    """

    def __init__(self, message: str, suspects: list[int] | None = None) -> None:
        super().__init__(message)
        self.suspects: list[int] = suspects or []


class RankDeadError(ReproError):
    """Raised by :meth:`~repro.distrib.dmodel.RankHandle.die` to simulate
    a hard rank kill: the distributed model skips the rank's cleanup
    (leaves its log torn, as a SIGKILL would), closes the other ranks'
    logs and raises :class:`RankFailureError` naming the victim at
    once."""


class PartitionError(ReproError):
    """Place-to-rank or work partitioning failed validation."""


class TaskRetryError(PartitionError):
    """A pool task kept failing after exhausting its retry budget.

    Carries the zero-based ``task_index`` within the failing ``map`` call
    and the number of ``attempts`` made; ``__cause__`` is the last
    underlying exception.
    """

    def __init__(self, message: str, task_index: int, attempts: int) -> None:
        super().__init__(message)
        self.task_index = task_index
        self.attempts = attempts


class CheckpointError(ReproError):
    """A synthesis checkpoint is unusable (missing, damaged, or written by
    a run with a different configuration)."""


class LogFormatError(ReproError):
    """An event-log file is not a valid EVL container."""


class LogTruncatedError(LogFormatError):
    """An event-log file ends mid-chunk (e.g. writer crashed before flush)."""


class LogCorruptError(LogFormatError):
    """An event-log chunk failed its checksum."""


class SynthesisError(ReproError):
    """Collocation network synthesis failed."""


class TileCacheError(SynthesisError):
    """The temporal tile cache was misused or its store is unusable."""


class ServiceError(ReproError):
    """The network-query service failed a request or was misused.

    ``code`` is the wire-protocol error code (``bad-request``,
    ``admission``, ``internal``, ``shutting-down``, ``malformed``) so
    clients can branch without parsing the message text.
    """

    def __init__(self, message: str, code: str = "internal") -> None:
        super().__init__(message)
        self.code = code


class FrameError(ServiceError):
    """A wire frame is malformed (bad length prefix, oversized, not JSON).

    The stream cannot be resynchronized past a broken frame, so the
    server answers once with ``code="malformed"`` and closes the
    connection."""

    def __init__(self, message: str) -> None:
        super().__init__(message, code="malformed")


class AdmissionError(ServiceError):
    """A query was rejected by per-tenant admission control.

    ``retry_after`` is the server's suggested back-off in seconds; the
    request was *not* executed and can be retried verbatim."""

    def __init__(self, message: str, retry_after: float) -> None:
        super().__init__(message, code="admission")
        self.retry_after = float(retry_after)


class OverloadError(ServiceError):
    """The server shed a request to protect itself under overload.

    Unlike :class:`AdmissionError` (one tenant over its own budget), an
    overload rejection is *server-wide*: the admission queue depth or the
    in-flight-age threshold tripped.  ``retry_after`` is the suggested
    back-off; the request was not executed and may be retried verbatim —
    ideally on another replica."""

    def __init__(self, message: str, retry_after: float) -> None:
        super().__init__(message, code="overload")
        self.retry_after = float(retry_after)


class DeadlineError(ServiceError):
    """A request's deadline was (or would be) exceeded.

    ``code="expired"`` means the deadline had already passed when the
    request reached the server (or a queued composition was abandoned
    before it started) — the work was rejected, never executed.
    ``code="deadline"`` means the deadline ran out while the work was in
    progress; partial server-side work continues only to serve coalesced
    peers and is never returned to this caller."""

    def __init__(self, message: str, code: str = "deadline") -> None:
        super().__init__(message, code=code)


class ReplicaSetError(ServiceError):
    """Every replica in a failover set is unusable (connection failures,
    open circuit breakers, or exhausted retries).  ``__cause__`` carries
    the last underlying failure."""

    def __init__(self, message: str) -> None:
        super().__init__(message, code="unavailable")


class AnalysisError(ReproError):
    """Network analysis computation failed."""


class FitError(AnalysisError):
    """Distribution fitting could not converge or was given unusable data."""


class LayoutError(ReproError):
    """Graph layout computation failed."""
