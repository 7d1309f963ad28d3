"""Resilience primitives for the network-query service.

Four small, composable pieces — each is plain synchronous Python so it
can be exercised deterministically (every class takes an injectable
``time_fn``) and shared between the asyncio server, the failover client,
and the chaos tests:

:class:`Deadline`
    A monotonic-clock absolute deadline.  Clients attach a relative
    budget (seconds) to the frame header; the server converts it to a
    :class:`Deadline` on receipt and threads it through admission, the
    executor queue, composition, encoding, and the response write.  A
    ``None`` budget means "no deadline" and costs nothing to check.

:class:`LoadShedder`
    The bounded per-server admission queue.  Work is classed by
    priority — control ops (``ping``/``stats``/``live``/``ready``) are
    never shed, queries are shed when the admitted-but-unfinished depth
    reaches ``limit`` or the oldest in-flight request exceeds
    ``shed_inflight_age`` (the server is presumed stuck, so piling more
    work behind it only grows the heap), and background prefetch is shed
    first, at a fraction of the query limit.  Shedding raises
    :class:`~repro.errors.OverloadError` carrying ``retry_after`` — the
    request is rejected immediately instead of queuing unboundedly.

:class:`CircuitBreaker`
    Per-replica health for the failover client: *closed* (healthy) →
    *open* (recent error rate or latency over threshold; all traffic
    skips the replica) → *half-open* (after ``reset_timeout``, one probe
    is let through; success closes the breaker, failure re-opens it).

:func:`jittered_backoff`
    Decorrelated exponential backoff: ``base·2^attempt`` capped at
    ``cap``, scaled by a uniform jitter in ``[0.5, 1.0]`` so a herd of
    rejected clients does not stampede back in lockstep.
"""

from __future__ import annotations

import random
import time
from collections import deque
from typing import Callable

from ..errors import OverloadError

__all__ = [
    "Deadline",
    "LoadShedder",
    "CircuitBreaker",
    "jittered_backoff",
    "PRIORITY_CONTROL",
    "PRIORITY_QUERY",
    "PRIORITY_PREFETCH",
]

#: admission priority classes, best first (smaller sheds later)
PRIORITY_CONTROL = 0
PRIORITY_QUERY = 1
PRIORITY_PREFETCH = 2

#: prefetch work is admitted only up to this fraction of the query limit,
#: so background warming is shed before any client query is
PREFETCH_HEADROOM = 0.5


class Deadline:
    """An absolute point on the monotonic clock (or no deadline at all).

    Built from a relative budget with :meth:`after`; ``None`` budgets
    produce an inert deadline that never expires, so callers can thread
    one object through unconditionally.
    """

    __slots__ = ("at", "_time")

    def __init__(
        self,
        at: float | None,
        time_fn: Callable[[], float] = time.monotonic,
    ) -> None:
        self.at = at
        self._time = time_fn

    @classmethod
    def after(
        cls,
        seconds: float | None,
        time_fn: Callable[[], float] = time.monotonic,
    ) -> "Deadline":
        """A deadline ``seconds`` from now; ``None`` never expires.

        A non-positive budget yields an *already expired* deadline — the
        caller decides whether that is a rejection (the server does).
        """
        if seconds is None:
            return cls(None, time_fn)
        return cls(time_fn() + float(seconds), time_fn)

    @property
    def expired(self) -> bool:
        return self.at is not None and self._time() >= self.at

    def remaining(self) -> float | None:
        """Seconds left (may be negative); ``None`` for no deadline."""
        if self.at is None:
            return None
        return self.at - self._time()

    def bound(self, seconds: float | None) -> float | None:
        """``min(seconds, remaining)`` treating ``None`` as infinite."""
        rem = self.remaining()
        if rem is None:
            return seconds
        if seconds is None:
            return rem
        return min(seconds, rem)

    def __repr__(self) -> str:
        if self.at is None:
            return "Deadline(none)"
        return f"Deadline({self.remaining():+.3f}s)"


def jittered_backoff(
    attempt: int,
    base: float = 0.05,
    cap: float = 1.0,
    rng: random.Random | None = None,
) -> float:
    """Sleep for retry ``attempt`` (0-based): capped exponential with
    uniform jitter in ``[0.5, 1.0]`` of the capped value."""
    capped = min(float(cap), float(base) * (2.0 ** int(attempt)))
    r = rng.random() if rng is not None else random.random()
    return capped * (0.5 + 0.5 * r)


class LoadShedder:
    """Bounded admission ledger with priority-classed shedding.

    ``admit`` returns a token to pass back to ``release``; both are
    O(1).  The "queue" being bounded is the set of admitted-but-
    unfinished requests — everything parked on the executor or awaiting
    a coalesced composition — which is exactly the state that grows
    without bound when the server is slower than its arrival rate.

    Parameters
    ----------
    limit:
        Maximum admitted-but-unfinished queries; ``None`` never sheds on
        depth.  Prefetch work is capped at ``PREFETCH_HEADROOM · limit``.
    shed_inflight_age:
        If the *oldest* admitted request has been in flight longer than
        this many seconds, new non-control work is shed: a wedged
        composition must not grow an unbounded convoy behind it.
    retry_after:
        Back-off hint carried by the raised :class:`OverloadError`.
    """

    def __init__(
        self,
        limit: int | None = None,
        shed_inflight_age: float | None = None,
        retry_after: float = 0.05,
        time_fn: Callable[[], float] = time.monotonic,
    ) -> None:
        if limit is not None and limit < 1:
            raise ValueError("queue limit must be positive (or None)")
        self.limit = limit
        self.shed_inflight_age = shed_inflight_age
        self.retry_after = float(retry_after)
        self._time = time_fn
        self._seq = 0
        #: token -> (priority, admitted_at); insertion-ordered, so the
        #: first entry is always the oldest in-flight request
        self._inflight: dict[int, tuple[int, float]] = {}

    @property
    def depth(self) -> int:
        return len(self._inflight)

    def oldest_age(self) -> float:
        """Seconds the oldest admitted request has been in flight."""
        if not self._inflight:
            return 0.0
        _prio, started = next(iter(self._inflight.values()))
        return self._time() - started

    def admit(self, priority: int) -> int:
        """Admit one unit of work, or raise :class:`OverloadError`.

        Control-priority work is never shed *and never occupies a
        slot* — probes and stats must keep answering precisely when the
        server is melting, and a probe storm must not eat query
        capacity.  ``depth`` therefore counts only sheddable work.
        """
        self._seq += 1
        if priority <= PRIORITY_CONTROL:
            return self._seq
        if (
            self.shed_inflight_age is not None
            and self.oldest_age() > self.shed_inflight_age
        ):
            raise OverloadError(
                f"oldest in-flight request is {self.oldest_age():.2f}s "
                f"old (limit {self.shed_inflight_age}s); shedding new "
                "work",
                retry_after=self.retry_after,
            )
        if self.limit is not None:
            cap = self.limit
            if priority >= PRIORITY_PREFETCH:
                cap = max(1, int(self.limit * PREFETCH_HEADROOM))
            if len(self._inflight) >= cap:
                raise OverloadError(
                    f"admission queue full ({len(self._inflight)} in "
                    f"flight >= {cap})",
                    retry_after=self.retry_after,
                )
        self._inflight[self._seq] = (priority, self._time())
        return self._seq

    def release(self, token: int) -> None:
        self._inflight.pop(token, None)

    def snapshot(self) -> dict:
        return {
            "limit": self.limit,
            "depth": self.depth,
            "oldest_age": round(self.oldest_age(), 3),
            "shed_inflight_age": self.shed_inflight_age,
        }


class CircuitBreaker:
    """Closed/open/half-open replica health on error rate and latency.

    Outcomes are recorded into a bounded window; once at least
    ``min_samples`` are present and the unhealthy fraction reaches
    ``failure_threshold``, the breaker opens.  A success slower than
    ``latency_threshold`` counts as unhealthy — a replica that answers
    correctly but far too slowly is still the wrong place to send
    traffic.  After ``reset_timeout`` an open breaker lets exactly one
    probe through (*half-open*): probe success closes it with a clean
    window, probe failure re-opens it and re-arms the timer.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"

    def __init__(
        self,
        window: int = 16,
        min_samples: int = 4,
        failure_threshold: float = 0.5,
        latency_threshold: float | None = None,
        reset_timeout: float = 1.0,
        time_fn: Callable[[], float] = time.monotonic,
    ) -> None:
        self.window = int(window)
        self.min_samples = int(min_samples)
        self.failure_threshold = float(failure_threshold)
        self.latency_threshold = latency_threshold
        self.reset_timeout = float(reset_timeout)
        self._time = time_fn
        self._outcomes: deque[bool] = deque(maxlen=self.window)
        self._state = self.CLOSED
        self._opened_at = 0.0
        self._probing = False
        self.opens = 0

    @property
    def state(self) -> str:
        return self._state

    def allow(self) -> bool:
        """May a request be sent now?  (Half-open grants one probe.)"""
        if self._state == self.CLOSED:
            return True
        if self._state == self.OPEN:
            if self._time() - self._opened_at >= self.reset_timeout:
                self._state = self.HALF_OPEN
                self._probing = True
                return True
            return False
        # half-open: one outstanding probe at a time
        if not self._probing:
            self._probing = True
            return True
        return False

    def reopen_in(self) -> float:
        """Seconds until an open breaker will grant its next probe."""
        if self._state != self.OPEN:
            return 0.0
        return max(0.0, self._opened_at + self.reset_timeout - self._time())

    def record_success(self, latency: float | None = None) -> None:
        healthy = (
            latency is None
            or self.latency_threshold is None
            or latency <= self.latency_threshold
        )
        if self._state == self.HALF_OPEN:
            if healthy:
                self._reset()
            else:
                self._trip()
            return
        self._push(healthy)

    def record_failure(self) -> None:
        if self._state == self.HALF_OPEN:
            self._trip()
            return
        self._push(False)

    def _push(self, healthy: bool) -> None:
        self._outcomes.append(healthy)
        if len(self._outcomes) >= self.min_samples:
            bad = sum(1 for ok in self._outcomes if not ok)
            if bad / len(self._outcomes) >= self.failure_threshold:
                self._trip()

    def _trip(self) -> None:
        self._state = self.OPEN
        self._opened_at = self._time()
        self._probing = False
        self._outcomes.clear()
        self.opens += 1

    def _reset(self) -> None:
        self._state = self.CLOSED
        self._probing = False
        self._outcomes.clear()

    def snapshot(self) -> dict:
        return {
            "state": self._state,
            "opens": self.opens,
            "window": list(self._outcomes),
            "reopen_in": round(self.reopen_in(), 3),
        }

    def __repr__(self) -> str:
        return f"CircuitBreaker({self._state}, opens={self.opens})"
