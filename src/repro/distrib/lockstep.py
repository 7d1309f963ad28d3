"""Ranks stepped in lockstep by one thread: the model's in-process cluster.

A rank body here is a generator: it runs its rank-private work and yields
at every collective — ``("alltoall", payloads)``, ``("gather", obj,
root)`` or ``("barrier",)`` — receiving the collective's result back.
:class:`LockstepCluster` advances every rank up to the same collective,
performs it as a list transpose and records each rank's
:class:`~repro.distrib.comm.TrafficStats` (each off-diagonal non-empty
payload one message of its size, a gather one message per non-root, a
barrier none); no thread, no barrier, no interpreter-lock hand-off.
:func:`spmd` turns the same body into a ``rank_fn(comm, ...)`` for
:class:`~repro.distrib.proccluster.ProcessBspCluster`, whose
communicator then performs the collectives the body yields and meters
them alike.

Failure semantics follow a real job's, without waiting for a deadline:

* a rank raising :class:`~repro.errors.RankDeadError` (its handle's
  :meth:`LockstepRank.die`) is a hard kill (what cleanup the body skips
  on it is the body's choice), every other rank is closed where it
  waits (a ``GeneratorExit`` at its ``yield``: its ``finally`` blocks
  run), and the run raises :class:`~repro.errors.RankFailureError`
  naming it at once;
* a rank raising anything else fails the run with a
  :class:`~repro.errors.CommError` naming the rank and chaining the cause;
* ``heartbeat_timeout`` bounds a rank's work between two collectives
  (timed with ``time.perf_counter`` around each advance): a rank that
  overruns it is declared dead — :class:`~repro.errors.RankFailureError`
  naming it — as a rank that kept its siblings waiting past the
  deadline would be;
* ranks reaching different collectives (or returning while others wait
  at one) are a :class:`~repro.errors.CommError`, where blocking ranks
  would deadlock.
"""

from __future__ import annotations

import math
import time
from typing import Any, Callable, Generator, Sequence

import numpy as np

from ..errors import CommError, RankDeadError, RankFailureError
from .comm import ClusterRunResult, TrafficStats, payload_nbytes

__all__ = ["LockstepCluster", "LockstepRank", "spmd"]

#: what a rank body yields at a collective, and is sent back
RankBody = Generator[tuple, Any, Any]


class LockstepRank:
    """A lockstep rank's view of its cluster: what a fault hook needs of a
    communicator (``rank``, ``size``, :meth:`die`, ``dead``) and the
    rank's traffic (``stats``)."""

    __slots__ = ("rank", "size", "stats", "dead")

    def __init__(self, rank: int, size: int) -> None:
        self.rank = rank
        self.size = size
        self.stats = TrafficStats()
        #: set by :meth:`die` — lets tests assert which rank was killed
        self.dead = False

    def die(self) -> None:
        """Simulate this rank being hard-killed: raises
        :class:`~repro.errors.RankDeadError`, which the cluster treats as a
        death (no cleanup of this rank), not as an error."""
        self.dead = True
        raise RankDeadError(f"rank {self.rank} killed by fault injection")


def spmd(body_fn: Callable[..., RankBody]) -> Callable[..., Any]:
    """``body_fn`` as a ``rank_fn(comm, *args)`` for a ``run(rank_fn)``
    cluster: each collective the body yields is the communicator method
    of that name, and a collective that raises raises inside the body
    (so its ``finally`` blocks run as they would in a plain function)."""

    def rank_fn(comm: Any, *args: Any) -> Any:
        body = body_fn(comm, *args)
        reply: Any = None
        failure: BaseException | None = None
        while True:
            try:
                op = body.send(reply) if failure is None else body.throw(failure)
            except StopIteration as done:
                return done.value
            try:
                reply, failure = getattr(comm, op[0])(*op[1:]), None
            except BaseException as exc:  # noqa: BLE001 - raised in the body
                reply, failure = None, exc

    return rank_fn


class LockstepCluster:
    """``n_ranks`` generator ranks advanced in lockstep on the calling
    thread.

    Example
    -------
    >>> def body(me):
    ...     got = yield ("alltoall", [me.rank * 10 + j for j in range(me.size)])
    ...     return got
    >>> LockstepCluster(2).run(body).returns
    [[0, 10], [1, 11]]
    """

    def __init__(
        self, n_ranks: int, heartbeat_timeout: float | None = None
    ) -> None:
        if n_ranks < 1:
            raise CommError(f"cluster needs at least one rank, got {n_ranks}")
        if heartbeat_timeout is not None and heartbeat_timeout <= 0:
            raise CommError("heartbeat_timeout must be positive")
        self.n_ranks = n_ranks
        self.heartbeat_timeout = heartbeat_timeout

    def run(
        self,
        body_fn: Callable[..., RankBody],
        rank_args: Sequence[tuple] | None = None,
    ) -> ClusterRunResult:
        """Run ``body_fn(rank, *rank_args[r])`` on every rank ``r``, where
        ``rank`` is its :class:`LockstepRank`; returns what each body
        returned and each rank's traffic."""
        n = self.n_ranks
        if rank_args is not None and len(rank_args) != n:
            raise CommError(
                f"rank_args must have {n} entries, got {len(rank_args)}"
            )
        ranks = [LockstepRank(r, n) for r in range(n)]
        bodies = [
            body_fn(ranks[r], *(rank_args[r] if rank_args is not None else ()))
            for r in range(n)
        ]
        limit = self.heartbeat_timeout or math.inf
        clock = time.perf_counter
        returns: list[Any] = [None] * n
        replies: list[Any] = [None] * n
        try:
            while True:
                ops: list[tuple] = []
                finished = 0
                for r, body in enumerate(bodies):
                    tic = clock()
                    try:
                        ops.append(body.send(replies[r]))
                    except StopIteration as done:
                        returns[r] = done.value
                        finished += 1
                        continue
                    except RankDeadError:
                        raise RankFailureError(
                            f"rank {r} died during the run", suspects=[r]
                        ) from None
                    except Exception as exc:
                        raise CommError(f"rank {r} failed: {exc!r}") from exc
                    toc = clock()
                    if toc - tic > limit:
                        raise RankFailureError(
                            f"rank {r} worked {toc - tic:.3f}s between two "
                            f"collectives, past its {limit}s heartbeat",
                            suspects=[r],
                        )
                if finished == n:
                    return ClusterRunResult(
                        returns=returns, traffic=[rank.stats for rank in ranks]
                    )
                if finished:
                    raise CommError(
                        f"{finished} of {n} ranks returned while the others "
                        f"wait at a {ops[0][0]}"
                    )
                replies = _collective(ops, ranks)
        finally:
            # a rank still waiting at a collective unwinds there: its
            # cleanup runs (a finished or dead rank's generator is done)
            for body in bodies:
                body.close()


def _collective(ops: list[tuple], ranks: list[LockstepRank]) -> list[Any]:
    """Perform the collective every rank yielded; each rank's reply."""
    n = len(ops)
    kind = ops[0][0]
    if any(op[0] != kind for op in ops):
        raise CommError(
            "ranks reached different collectives: "
            + ", ".join(f"rank {r} {op[0]}" for r, op in enumerate(ops))
        )
    if kind == "alltoall":
        rows = [op[1] for op in ops]
        for src, row in enumerate(rows):
            if len(row) != n:
                raise CommError(
                    f"alltoall needs {n} payloads, rank {src} sent {len(row)}"
                )
            sent = n_msg = 0
            for j, payload in enumerate(row):
                if payload is not None and j != src:
                    nbytes = (
                        payload.nbytes
                        if type(payload) is np.ndarray
                        else payload_nbytes(payload)
                    )
                    if nbytes > 0:
                        sent += nbytes
                        n_msg += 1
            ranks[src].stats.record("alltoall", n_msg, sent)
        # rank j receives what every source sent it, by source rank
        return [list(column) for column in zip(*rows)]
    if kind == "gather":
        root = ops[0][2]
        if any(op[2] != root for op in ops) or not 0 <= root < n:
            raise CommError(
                "ranks gather to different roots: "
                + ", ".join(str(op[2]) for op in ops)
            )
        for r, op in enumerate(ops):
            if r == root:
                ranks[r].stats.record("gather", 0, 0)
            else:
                ranks[r].stats.record("gather", 1, payload_nbytes(op[1]))
        replies: list[Any] = [None] * n
        replies[root] = [op[1] for op in ops]
        return replies
    if kind == "barrier":
        for rank in ranks:
            rank.stats.record("barrier", 0, 0)
        return [None] * n
    raise CommError(f"no collective {kind!r} in lockstep")
