"""Pluggable kernel backends for the collocation/adjacency hot path.

The ``backend=`` knob sits alongside the existing ``kernel=`` (dense
hours vs. intervals) knob and selects *how the arithmetic runs*, never *what it computes* — every
backend is bit-identical, gated by the equivalence suite:

``scipy``
    the pure-python/scipy reference: full symmetric sparse product,
    upper triangle filtered afterwards.
``masked``
    masked upper-triangular SpGEMM — a row-wise Gustavson kernel that
    computes only the strict upper triangle of ``(Y·diag(w))·Yᵀ``
    directly in local coordinates (half the FLOPs), with preallocated
    pooled workspaces reused across packs and batches, plus a compiled
    interval-pack build.  Runs compiled: the self-built C extension
    (:mod:`.cext`, any system C compiler) or numba-jitted loops
    (:mod:`.numba_backend`, the ``[fast]`` extra) — whichever is
    available.  With neither, ``masked`` degrades to the scipy/numpy
    reference implementation, so it is always safe to request.
``auto`` (default)
    ``masked`` when a compiled implementation is available, else
    ``scipy``.

``REPRO_KERNEL_IMPL`` (``cext`` | ``numba`` | ``numpy``) pins the
masked-backend implementation — CI uses it to gate each implementation
explicitly; ``REPRO_NO_CC=1`` additionally forbids the C build.

The Section V analysis kernels (:mod:`.graph`: per-edge triangle counts,
induced subgraphs) sit beside the backends but take no ``backend=``:
they run in the C extension when it loaded, else in their numpy/scipy
twin, bit-identically.
"""

from __future__ import annotations

import os

from ...errors import SynthesisError
from .workspace import (
    KERNEL_STAGES,
    KernelWorkspace,
    absorb_task_telemetry,
    collect_kernel_timings,
    collect_task_telemetry,
    get_workspace,
    kernel_stage,
    merge_kernel_timings,
    task_span,
)

__all__ = [
    "BACKENDS",
    "DEFAULT_BACKEND",
    "check_backend",
    "resolve_backend",
    "compiled_impl",
    "backend_info",
    "KERNEL_STAGES",
    "KernelWorkspace",
    "absorb_task_telemetry",
    "collect_kernel_timings",
    "collect_task_telemetry",
    "get_workspace",
    "kernel_stage",
    "merge_kernel_timings",
    "task_span",
]

#: selectable kernel backends (``auto`` resolves to one of these)
BACKENDS = ("scipy", "masked")
DEFAULT_BACKEND = "auto"


def check_backend(backend: str) -> None:
    """Reject a backend name outside ``BACKENDS`` + ``"auto"``."""
    if backend not in BACKENDS and backend != "auto":
        raise SynthesisError(
            f"unknown backend {backend!r}; choose from "
            f"{BACKENDS + ('auto',)}"
        )


def compiled_impl() -> str | None:
    """The masked backend's compiled implementation: ``"cext"``,
    ``"numba"``, or None (pure fallback).  ``REPRO_KERNEL_IMPL`` pins
    one explicitly."""
    from .cext import cext_available
    from .numba_backend import numba_available

    forced = os.environ.get("REPRO_KERNEL_IMPL", "").strip().lower()
    if forced == "numpy":
        return None
    if forced == "cext":
        return "cext" if cext_available() else None
    if forced == "numba":
        return "numba" if numba_available() else None
    if cext_available():
        return "cext"
    if numba_available():
        return "numba"
    return None


def resolve_backend(backend: str | None = None) -> str:
    """Resolve a backend request (None/"auto" included) to a concrete
    backend name."""
    if backend is None:
        backend = DEFAULT_BACKEND
    check_backend(backend)
    if backend == "auto":
        return "masked" if compiled_impl() is not None else "scipy"
    return backend


def backend_info() -> dict:
    """What ``auto`` resolves to and why — surfaced by ``repro synth
    --profile`` and useful in bug reports."""
    from .cext import cext_error

    impl = compiled_impl()
    return {
        "default": resolve_backend(None),
        "compiled_impl": impl,
        "cext_error": cext_error(),
        "forced_impl": os.environ.get("REPRO_KERNEL_IMPL") or None,
    }
