"""The synthesis planner: one object owning every synthesis knob.

Before this module, the same knobs — collocation kernel, kernel
backend, batch size, strictness, checkpoint policy — were
threaded as separate keyword arguments through ``pipeline.py``,
``bsp_pipeline.py``, ``streaming.py``, ``layers.py``, the tile cache,
the query service, and the CLI, each with its own defaulting.  A
:class:`SynthesisPlan` resolves and validates them once; every consumer
(single-process synthesis, streaming, layer caches, BSP, the sharded
path in :mod:`repro.distrib.shardsynth`, and the service) accepts a
``plan=`` and builds from it.

The plan is a frozen value object: deriving a variant goes through
:func:`dataclasses.replace` (or :meth:`SynthesisPlan.with_` sugar), so a
plan handed to a service or a shard cluster cannot be mutated behind its
back.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any

from ..errors import SynthesisError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..distrib.taskpool import RetryPolicy, WorkerPool
    from .network import CollocationNetwork
    from .pipeline import SynthesisReport
    from .tilecache import TileCache

__all__ = ["SynthesisPlan", "DEFAULT_PLAN"]

#: pool kinds :meth:`SynthesisPlan.make_pool` accepts
POOL_KINDS = ("serial", "thread", "process")


@dataclass(frozen=True)
class SynthesisPlan:
    """Every knob of one synthesis configuration, resolved once.

    Attributes
    ----------
    kernel:
        Collocation kernel: ``"intervals"`` (default) or ``"dense-hours"``.
    backend:
        Kernel backend (``None``/``"auto"`` resolves to the best
        available; ``"scipy"`` is the bit-identical reference).
    batch_size:
        Log files per independent batch.
    strict:
        ``True`` raises on the first damaged log file instead of
        quarantining it.
    checkpoint / resume:
        Per-batch checkpoint directories (see
        :func:`~repro.core.pipeline.synthesize_from_logs`).
    pool_kind / n_workers:
        Worker pool the plan builds on demand (``make_pool``); consumers
        that receive an explicit pool ignore these.
    tile_hours / cache_budget_nnz / cache_dir:
        Tile-cache sizing for :meth:`build_cache`.
    """

    kernel: str = "intervals"
    backend: str | None = None
    batch_size: int = 16
    strict: bool = False
    checkpoint: str | None = None
    resume: str | None = None
    pool_kind: str = "serial"
    n_workers: int | None = None
    tile_hours: int = 24
    cache_budget_nnz: int | None = None
    cache_dir: str | None = None

    def __post_init__(self) -> None:
        # import here: pipeline imports nothing from this module, so the
        # validation helpers stay single-sourced without a cycle
        from .kernels import resolve_backend
        from .pipeline import _check_kernel

        _check_kernel(self.kernel)
        if self.pool_kind not in POOL_KINDS:
            raise SynthesisError(
                f"unknown pool kind {self.pool_kind!r}; choose from {POOL_KINDS}"
            )
        if self.batch_size < 1:
            raise SynthesisError("batch_size must be >= 1")
        if self.tile_hours < 1:
            raise SynthesisError("tile_hours must be >= 1")
        # resolve eagerly so every consumer sees the same concrete backend
        object.__setattr__(self, "backend", resolve_backend(self.backend))

    def with_(self, **changes: Any) -> "SynthesisPlan":
        """A modified copy (``dataclasses.replace`` sugar)."""
        return dataclasses.replace(self, **changes)

    # ------------------------------------------------------------------
    # factories
    # ------------------------------------------------------------------

    def make_pool(self, retry: "RetryPolicy | None" = None) -> "WorkerPool":
        """Build the worker pool this plan calls for."""
        from ..distrib.taskpool import make_pool

        return make_pool(self.pool_kind, self.n_workers, retry=retry)

    def build_cache(
        self,
        log_dir: str | Path,
        n_persons: int,
        place_mask: Any = None,
        cache_dir: str | Path | None = None,
        pool: "WorkerPool | None" = None,
    ) -> "TileCache":
        """Build a :class:`~repro.core.tilecache.TileCache` under this plan.

        ``cache_dir`` overrides the plan's own (shards persist tiles into
        per-shard subdirectories of one root).
        """
        from .tilecache import TileCache

        if self.kernel != "intervals":
            raise SynthesisError(
                "the tile cache serves interval-kernel synthesis only; "
                f"plan.kernel={self.kernel!r}"
            )
        return TileCache(
            log_dir,
            n_persons,
            tile_hours=self.tile_hours,
            budget_nnz=self.cache_budget_nnz,
            cache_dir=cache_dir if cache_dir is not None else self.cache_dir,
            pool=pool,
            strict=self.strict,
            place_mask=place_mask,
            backend=self.backend,
        )

    def synthesize(
        self,
        log_dir: str | Path,
        n_persons: int,
        t0: int,
        t1: int,
        pool: "WorkerPool | None" = None,
        cache: Any = None,
    ) -> "tuple[CollocationNetwork, SynthesisReport]":
        """Run :func:`~repro.core.pipeline.synthesize_from_logs` under
        this plan (``pool=None`` builds and owns the plan's pool)."""
        from .pipeline import synthesize_from_logs

        return synthesize_from_logs(
            log_dir, n_persons, t0, t1, pool=pool, cache=cache, plan=self
        )

    def describe(self) -> str:
        """One-line human summary (CLI + service logs)."""
        parts = [
            f"kernel={self.kernel}",
            f"backend={self.backend}",
            f"batch={self.batch_size}",
            f"pool={self.pool_kind}",
        ]
        if self.n_workers:
            parts.append(f"workers={self.n_workers}")
        if self.strict:
            parts.append("strict")
        return " ".join(parts)


#: the stock plan: interval kernel, auto backend
DEFAULT_PLAN = SynthesisPlan()
