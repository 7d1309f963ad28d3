"""Process-wide on/off switch for telemetry recording.

Kept in its own tiny module so both :mod:`repro.obs.trace` and
:mod:`repro.obs.metrics` can consult it without import cycles.  Telemetry
is ON by default (the committed overhead benchmark holds the cost under
3%); ``REPRO_TELEMETRY=0`` in the environment or ``configure(False)``
turns every span into a shared no-op and every ``count`` / ``observe``
into a no-op.
"""

from __future__ import annotations

import os

__all__ = ["enabled", "configure"]

_enabled: bool = os.environ.get("REPRO_TELEMETRY", "1") not in ("0", "false", "off")


def enabled() -> bool:
    """Whether telemetry recording is currently on."""
    return _enabled


def configure(enabled: bool) -> bool:
    """Set the switch; returns the previous value."""
    global _enabled
    prev = _enabled
    _enabled = bool(enabled)
    return prev
