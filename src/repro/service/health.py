"""Liveness and readiness for the network-query service.

Two probes, wired into the frame protocol as the ``live`` and ``ready``
ops (control priority: never shed, answered even mid-drain):

* **Liveness** answers "is the process's event loop turning?" — the act
  of answering *is* the probe, so it only ever reports ``live: true``
  plus the current lifecycle state and uptime.  An operator's probe
  timeout, not a negative answer, is what detects a dead loop.
* **Readiness** answers "should a load balancer send traffic here?" —
  false while starting (caches not yet open), while draining, while the
  admission queue is at its limit, or within ``shed_grace`` seconds of
  the last load-shed (a server that just shed is still under pressure;
  flapping back into rotation immediately re-creates the overload).

The monitor itself is a tiny synchronous state machine so it can be
unit-tested without a server; the server owns the transitions.
"""

from __future__ import annotations

import time
from typing import Callable

__all__ = ["HealthMonitor", "STARTING", "READY", "DRAINING", "STOPPED"]

STARTING = "starting"
READY = "ready"
DRAINING = "draining"
STOPPED = "stopped"


class HealthMonitor:
    """Lifecycle state + shed pressure, feeding the probe ops."""

    def __init__(
        self,
        shed_grace: float = 0.5,
        time_fn: Callable[[], float] = time.monotonic,
    ) -> None:
        self.shed_grace = float(shed_grace)
        self._time = time_fn
        self._born = time_fn()
        self._state = STARTING
        self._last_shed: float | None = None

    @property
    def state(self) -> str:
        return self._state

    @property
    def uptime(self) -> float:
        return self._time() - self._born

    def to_ready(self) -> None:
        self._state = READY

    def to_draining(self) -> None:
        self._state = DRAINING

    def to_stopped(self) -> None:
        self._state = STOPPED

    def note_shed(self) -> None:
        """Record a load-shed; readiness stays false for ``shed_grace``."""
        self._last_shed = self._time()

    def recently_shed(self) -> bool:
        return (
            self._last_shed is not None
            and self._time() - self._last_shed < self.shed_grace
        )

    def liveness(self) -> dict:
        return {
            "live": True,
            "state": self._state,
            "uptime": round(self.uptime, 3),
        }

    def readiness(
        self, queue_depth: int = 0, queue_limit: int | None = None
    ) -> dict:
        """The readiness verdict plus the reasons it is false (if any)."""
        reasons: list[str] = []
        if self._state != READY:
            reasons.append(f"state is {self._state!r}")
        if queue_limit is not None and queue_depth >= queue_limit:
            reasons.append(
                f"admission queue full ({queue_depth}/{queue_limit})"
            )
        if self.recently_shed():
            reasons.append("recently shed load")
        return {
            "ready": not reasons,
            "state": self._state,
            "reasons": reasons,
            "queue_depth": queue_depth,
            "queue_limit": queue_limit,
        }
