"""The fold holds a small multiple of its output.

A multi-week synthesis from logs, traced by ``tracemalloc`` from a cold
kernel workspace, may peak at no more than four times what it reads and
writes: the output CSR plus the window's records at their 20 log bytes
each.  Pack-build scratch is the call's own and freed before the product
runs; the packs store int32 columns and no per-entry ones; the upper
triangle is reduced in bands of person rows straight into the output.
"""

from __future__ import annotations

import tracemalloc

import pytest

import repro
from repro.core import synthesize_from_logs
from repro.core.kernels import compiled_impl, get_workspace
from repro.evlog.schema import LOG_DTYPE

pytestmark = pytest.mark.skipif(
    compiled_impl() is None, reason="the budget is the compiled fold's"
)

#: traced peak / (output CSR bytes + window record bytes)
BUDGET = 4.0


def test_two_week_fold_peak_is_a_small_multiple_of_its_output(
    two_week_logs, small_pop
):
    n = small_pop.n_persons
    synthesize_from_logs(two_week_logs, n, 0, 24)  # imports, extension
    get_workspace().clear()
    tracemalloc.start()
    try:
        net, report = synthesize_from_logs(
            two_week_logs, n, 0, 2 * repro.HOURS_PER_WEEK
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.impl == "cext"
    a = net.adjacency
    output = a.data.nbytes + a.indices.nbytes + a.indptr.nbytes
    records = report.n_sliced_records * LOG_DTYPE.itemsize
    assert a.nnz and records
    assert peak <= BUDGET * (output + records), (
        f"traced peak {peak / 1e6:.1f} MB is "
        f"{peak / (output + records):.2f}x output + records "
        f"({output / 1e6:.2f} + {records / 1e6:.2f} MB)"
    )
