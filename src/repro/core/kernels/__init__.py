"""Compiled kernels for the synthesis and analysis hot paths.

There is one arithmetic path and nothing to select.  Each kernel entry
point — the interval-pack build and the masked upper-triangular SpGEMM
(:mod:`.masked`), the per-edge triangle counts and induced subgraphs
(:mod:`.graph`) — runs in the self-built C extension (:mod:`.cext`, any
system C compiler) when it loaded and the input fits its typed layout,
and otherwise in the numpy/scipy twin that sits right below the call,
bit-identically.  ``REPRO_NO_CC=1`` is the deployment switch that
forbids the build; :func:`compiled_impl` says which of the two a
process runs.
"""

from __future__ import annotations

from .cext import cext_error, load_cext
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


def compiled_impl() -> str | None:
    """``"cext"`` when the C extension loaded, None when the numpy/scipy
    twins run."""
    return "cext" if load_cext() is not None else None


def backend_info() -> dict:
    """Whether the C extension loaded and, if not, why — surfaced by
    ``repro synthesize --profile`` and useful in bug reports."""
    return {"compiled_impl": compiled_impl(), "cext_error": cext_error()}
