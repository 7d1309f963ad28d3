"""Build and bind the compiled kernel extension at first use.

The container/CI images this project targets ship a system C compiler
but deliberately no build-time python packages, so the extension is
compiled on demand: the embedded source (:mod:`._csrc`) is written next
to a content-addressed cache path, compiled with ``cc -O3 -shared
-fPIC``, and loaded through :mod:`ctypes`.  Every step degrades
gracefully — no compiler, a failing compile, or a failing smoke test
each just report "unavailable" and the callers run their numpy/scipy
twin.

Environment knobs:

``REPRO_NO_CC=1``
    never compile or load the C extension (CI's twin leg); unset, empty
    or ``0`` leaves it enabled.
``REPRO_KERNEL_CC``
    compiler executable to use (default: ``cc`` then ``gcc`` then
    ``clang``, first found on PATH).
``REPRO_KERNEL_CACHE``
    directory for the built shared object (default:
    ``$XDG_CACHE_HOME/repro/kernels`` or ``~/.cache/repro/kernels``).
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from ...obs import default_registry
from ._csrc import C_SOURCE, C_SOURCE_VERSION

__all__ = ["load_cext", "cext_error", "STEP_SLOTS", "STEP_OUT"]

#: ``rk_rank_step``'s argument block, slot by slot (the ``RK_STEP_*``
#: enum of :mod:`._csrc`); ``n_ranks + 2`` output slots follow from
#: ``STEP_OUT`` on: rows kept, then the leaver group bounds
STEP_SLOTS = (
    "table", "count", "plane", "act", "place", "owner", "n_persons",
    "n_places", "n_ranks", "rank", "hour", "records", "leavers", "moved",
    "dest",
)  # fmt: skip
STEP_OUT = len(STEP_SLOTS)

_I64 = ctypes.POINTER(ctypes.c_int64)
_I32 = ctypes.POINTER(ctypes.c_int32)
_U64 = ctypes.POINTER(ctypes.c_uint64)
_U8 = ctypes.POINTER(ctypes.c_uint8)

#: loaded library, or False when loading failed / was disabled; None
#: before the first attempt
_lib: "ctypes.CDLL | bool | None" = None
_error: str | None = None


def _cache_dir() -> Path:
    env = os.environ.get("REPRO_KERNEL_CACHE")
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro" / "kernels"


def _find_cc() -> str | None:
    env = os.environ.get("REPRO_KERNEL_CC")
    candidates = [env] if env else ["cc", "gcc", "clang"]
    for name in candidates:
        if name and shutil.which(name):
            return name
    return None


def _source_key(cc: str) -> str:
    blob = f"v{C_SOURCE_VERSION}|{cc}|{C_SOURCE}".encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _as_ptr(a: np.ndarray, typ) -> "ctypes.pointer":
    return a.ctypes.data_as(typ)


def _part_pointers(parts: list) -> tuple[np.ndarray, np.ndarray]:
    """The address table (every part's indptr, then indices, then data)
    and the stored-entry counts a k-part kernel reads its parts from."""
    ptrs = np.array(
        [p.indptr.ctypes.data for p in parts]
        + [p.indices.ctypes.data for p in parts]
        + [p.data.ctypes.data for p in parts],
        dtype=np.uintp,
    )
    nnzs = np.array([len(p.indices) for p in parts], dtype=np.int64)
    return ptrs, nnzs


class CompiledKernels:
    """ctypes bindings over the built shared object, with array-aware
    wrappers so callers pass numpy arrays, not pointers (``rank_step``
    excepted)."""

    def __init__(self, lib: ctypes.CDLL) -> None:
        self._lib = lib
        lib.rk_col_stats.restype = ctypes.c_int64
        lib.rk_pack_keys.restype = ctypes.c_int64
        lib.rk_boundary_scan.restype = ctypes.c_int64
        lib.rk_range_keys.restype = ctypes.c_int64
        lib.rk_ranges_to_csr.restype = ctypes.c_int64
        lib.rk_expand_entries.restype = ctypes.c_int64
        lib.rk_entries_to_csr.restype = ctypes.c_int64
        lib.rk_csr_to_csc.restype = ctypes.c_int64
        lib.rk_masked_spgemm.restype = ctypes.c_int64
        lib.rk_csc_rewind.restype = ctypes.c_int64
        lib.rk_keys_to_csr.restype = ctypes.c_int64
        lib.rk_fill_values.restype = ctypes.c_int64
        lib.rk_csr_sum.restype = ctypes.c_int64
        lib.rk_csr_sum.argtypes = [
            ctypes.c_int64, ctypes.c_int64, ctypes.c_void_p, _I64,
            _I32, _I32, _I64, _I32, _I64, _I32, _I64,
        ]
        lib.rk_csr_mirror.restype = ctypes.c_int64
        lib.rk_csr_mirror.argtypes = [
            ctypes.c_int64, ctypes.c_int64, _I32, _I32, _I64,
            _I32, _I32, _I64, _I32,
        ]
        lib.rk_induced_sum.restype = ctypes.c_int64
        lib.rk_induced_sum.argtypes = [
            ctypes.c_int64, ctypes.c_int64, ctypes.c_void_p, _I64,
            ctypes.c_int64, _I64, _I32, ctypes.c_int64, _I32, _I32, _I64,
            _I32, _I64, _I32, _I64, _I32, _I64,
        ]
        lib.rk_upper_frontier.restype = ctypes.c_int64
        lib.rk_upper_frontier.argtypes = [
            ctypes.c_int64, ctypes.c_int64, ctypes.c_void_p, _I64,
            _U8, ctypes.c_int64, _U8,
        ]
        lib.rk_edge_triangles.restype = ctypes.c_int64
        lib.rk_edge_triangles.argtypes = [
            ctypes.c_int64, ctypes.c_int64, _I32, _I32, _I32, _I64,
        ]
        lib.rk_rank_step.restype = ctypes.c_int64
        lib.rk_rank_step.argtypes = [ctypes.POINTER(ctypes.c_int64)]
        lib.rk_week_fill.restype = ctypes.c_int64
        lib.rk_week_fill.argtypes = (
            [ctypes.c_int64, ctypes.c_void_p, ctypes.c_int64]
            + [ctypes.c_void_p] * 11
        )

    def col_stats(
        self,
        place: np.ndarray,
        person: np.ndarray,
        start: np.ndarray,
        stop: np.ndarray,
    ) -> tuple[int, int, int, int, int]:
        """``(place_min, place_max, person_min, person_max,
        n_zero_length)`` in one fused pass."""
        out = np.zeros(5, dtype=np.int64)
        self._lib.rk_col_stats(
            ctypes.c_int64(len(place)),
            _as_ptr(place, _I64),
            _as_ptr(person, _I64),
            _as_ptr(start, _I64),
            _as_ptr(stop, _I64),
            _as_ptr(out, _I64),
        )
        return (
            int(out[0]),
            int(out[1]),
            int(out[2]),
            int(out[3]),
            int(out[4]),
        )

    def pack_keys(
        self,
        place: np.ndarray,
        start: np.ndarray,
        stop: np.ndarray,
        t0: int,
        tbits: int,
        ibits: int,
        keys: np.ndarray,
    ) -> None:
        self._lib.rk_pack_keys(
            ctypes.c_int64(len(place)),
            _as_ptr(place, _I64),
            _as_ptr(start, _I64),
            _as_ptr(stop, _I64),
            ctypes.c_int64(t0),
            ctypes.c_int32(tbits),
            ctypes.c_int32(ibits),
            _as_ptr(keys, _I64),
        )

    def boundary_scan(
        self,
        keys: np.ndarray,
        n_rec: int,
        tbits: int,
        ibits: int,
        lo: np.ndarray,
        hi: np.ndarray,
        col_place: np.ndarray,
        col_start: np.ndarray,
        col_weight: np.ndarray,
        place_ids: np.ndarray,
        place_first_col: np.ndarray,
    ) -> tuple[int, int]:
        counts = np.zeros(2, dtype=np.int64)
        self._lib.rk_boundary_scan(
            _as_ptr(keys, _U64),
            ctypes.c_int64(len(keys)),
            ctypes.c_int64(n_rec),
            ctypes.c_int32(tbits),
            ctypes.c_int32(ibits),
            _as_ptr(lo, _I32),
            _as_ptr(hi, _I32),
            _as_ptr(col_place, _I32),
            _as_ptr(col_start, _I32),
            _as_ptr(col_weight, _I32),
            _as_ptr(place_ids, _I32),
            _as_ptr(place_first_col, _I32),
            _as_ptr(counts, _I64),
        )
        return int(counts[0]), int(counts[1])

    def range_keys(
        self,
        n: int,
        person: np.ndarray,
        lo: np.ndarray,
        hi: np.ndarray,
        lbits: int,
        keys: np.ndarray,
    ) -> None:
        self._lib.rk_range_keys(
            ctypes.c_int64(n),
            _as_ptr(person, _I64),
            _as_ptr(lo, _I32),
            _as_ptr(hi, _I32),
            ctypes.c_int32(lbits),
            _as_ptr(keys, _I64),
        )

    def ranges_to_csr(
        self,
        keys: np.ndarray,
        n: int,
        lbits: int,
        n_cols: int,
        indptr: np.ndarray,
        cols: np.ndarray,
        persons: np.ndarray,
        col_counts: np.ndarray,
        cap: int,
    ) -> tuple[int, int]:
        """``(nnz, n_rows)``; nnz is negative when it exceeded ``cap``
        (grow the cols buffer to ``-nnz`` and retry)."""
        counts = np.zeros(2, dtype=np.int64)
        rc = int(
            self._lib.rk_ranges_to_csr(
                _as_ptr(keys, _I64),
                ctypes.c_int64(n),
                ctypes.c_int32(lbits),
                ctypes.c_int64(n_cols),
                _as_ptr(indptr, _I32),
                _as_ptr(cols, _I32),
                _as_ptr(persons, _I64),
                _as_ptr(col_counts, _I32),
                ctypes.c_int64(cap),
                _as_ptr(counts, _I64),
            )
        )
        return (rc if rc < 0 else int(counts[0])), int(counts[1])

    def expand_entries(
        self,
        lo: np.ndarray,
        hi: np.ndarray,
        person: np.ndarray,
        out: np.ndarray,
    ) -> int:
        return int(
            self._lib.rk_expand_entries(
                _as_ptr(lo, _I32),
                _as_ptr(hi, _I32),
                _as_ptr(person, _I64),
                ctypes.c_int64(len(lo)),
                _as_ptr(out, _U64),
                ctypes.c_int64(len(out)),
            )
        )

    def entries_to_csr(
        self,
        keys: np.ndarray,
        n_dup: int,
        n_cols: int,
        indptr: np.ndarray,
        cols: np.ndarray,
        persons: np.ndarray,
        col_counts: np.ndarray,
    ) -> tuple[int, int]:
        counts = np.zeros(2, dtype=np.int64)
        self._lib.rk_entries_to_csr(
            _as_ptr(keys, _U64),
            ctypes.c_int64(n_dup),
            ctypes.c_int64(n_cols),
            _as_ptr(indptr, _I32),
            _as_ptr(cols, _I32),
            _as_ptr(persons, _I64),
            _as_ptr(col_counts, _I32),
            _as_ptr(counts, _I64),
        )
        return int(counts[0]), int(counts[1])

    def csr_to_csc(
        self,
        n_rows: int,
        n_cols: int,
        indptr: np.ndarray,
        cols: np.ndarray,
        cp: np.ndarray,
        ri: np.ndarray,
    ) -> int:
        return int(
            self._lib.rk_csr_to_csc(
                ctypes.c_int64(n_rows),
                ctypes.c_int64(n_cols),
                _as_ptr(indptr, _I32),
                _as_ptr(cols, _I32),
                _as_ptr(cp, _I32),
                _as_ptr(ri, _I32),
            )
        )

    def masked_spgemm(
        self,
        a: int,
        b: int,
        indptr: np.ndarray,
        cols: np.ndarray,
        cp: np.ndarray,
        ri: np.ndarray,
        cur: np.ndarray,
        w: np.ndarray,
        pmap: np.ndarray,
        r0: int,
        cbits: int,
        acc: np.ndarray,
        mark: np.ndarray,
        stamp: int,
        touch: np.ndarray,
        keys: np.ndarray,
        vals: np.ndarray,
        cap: int,
    ) -> tuple[int, int]:
        """``(rows done, triples written)`` for local rows ``[a, b)``."""
        out = np.zeros(1, dtype=np.int64)
        done = self._lib.rk_masked_spgemm(
            ctypes.c_int64(a),
            ctypes.c_int64(b),
            _as_ptr(indptr, _I32),
            _as_ptr(cols, _I32),
            _as_ptr(cp, _I32),
            _as_ptr(ri, _I32),
            _as_ptr(cur, _I32),
            _as_ptr(w, _I32),
            _as_ptr(pmap, _I64),
            ctypes.c_int64(r0),
            ctypes.c_int32(cbits),
            _as_ptr(acc, _I64),
            _as_ptr(mark, _I64),
            ctypes.c_int64(stamp),
            _as_ptr(touch, _I32),
            _as_ptr(keys, _I32),
            _as_ptr(vals, _I64),
            ctypes.c_int64(cap),
            _as_ptr(out, _I64),
        )
        return int(done), int(out[0])

    def csc_rewind(
        self, a: int, b: int, indptr: np.ndarray, cols: np.ndarray, cur: np.ndarray
    ) -> None:
        self._lib.rk_csc_rewind(
            ctypes.c_int64(a),
            ctypes.c_int64(b),
            _as_ptr(indptr, _I32),
            _as_ptr(cols, _I32),
            _as_ptr(cur, _I32),
        )

    def keys_to_csr(
        self,
        keys: np.ndarray,
        n_tr: int,
        n_rows: int,
        cbits: int,
        indptr: np.ndarray,
        cols: np.ndarray,
    ) -> int:
        return int(
            self._lib.rk_keys_to_csr(
                _as_ptr(keys, _I32),
                ctypes.c_int64(n_tr),
                ctypes.c_int64(n_rows),
                ctypes.c_int32(cbits),
                _as_ptr(indptr, _I32),
                _as_ptr(cols, _I32),
            )
        )

    def fill_values(
        self,
        run_lo: np.ndarray,
        run_hi: np.ndarray,
        keys: np.ndarray,
        vals: np.ndarray,
        n_rows: int,
        cbits: int,
        r0: int,
        indptr: np.ndarray,
        cols: np.ndarray,
        acc: np.ndarray,
        mark: np.ndarray,
        cursor: np.ndarray,
        vals_out: np.ndarray,
    ) -> None:
        self._lib.rk_fill_values(
            ctypes.c_int64(len(run_lo)),
            _as_ptr(run_lo, _I64),
            _as_ptr(run_hi, _I64),
            _as_ptr(keys, _I32),
            _as_ptr(vals, _I64),
            ctypes.c_int64(n_rows),
            ctypes.c_int32(cbits),
            ctypes.c_int64(r0),
            _as_ptr(indptr, _I32),
            _as_ptr(cols, _I32),
            _as_ptr(acc, _I64),
            _as_ptr(mark, _I32),
            _as_ptr(cursor, _I64),
            _as_ptr(vals_out, _I64),
        )

    def csr_sum(
        self,
        n: int,
        parts: list,
        out_indptr: np.ndarray,
        out_indices: np.ndarray,
        out_data: np.ndarray,
        sc0: np.ndarray,
        sv0: np.ndarray,
        sc1: np.ndarray,
        sv1: np.ndarray,
    ) -> int:
        """Sum the ``(n, n)`` CSR matrices *parts* (int32 indptr/indices,
        int64 data, canonical) into the output arrays (capacity: their
        summed nnz); ``sc*`` / ``sv*``: int32 / int64 scratch of n slots.
        Returns the output nnz, -1 on a malformed part."""
        ptrs, nnzs = _part_pointers(parts)
        return int(
            self._lib.rk_csr_sum(
                len(parts),
                n,
                ptrs.ctypes.data,
                _as_ptr(nnzs, _I64),
                _as_ptr(out_indptr, _I32),
                _as_ptr(out_indices, _I32),
                _as_ptr(out_data, _I64),
                _as_ptr(sc0, _I32),
                _as_ptr(sv0, _I64),
                _as_ptr(sc1, _I32),
                _as_ptr(sv1, _I64),
            )
        )

    def csr_mirror(
        self,
        n: int,
        indptr: np.ndarray,
        indices: np.ndarray,
        data: np.ndarray,
        out_indptr: np.ndarray,
        out_indices: np.ndarray,
        out_data: np.ndarray,
        cursor: np.ndarray,
    ) -> int:
        """Mirror an ``(n, n)`` canonical strict-upper int32/int64 CSR
        into the output arrays (capacity: twice its nnz; ``cursor``:
        int32[n] scratch).  Returns the output nnz, -1 on a malformed
        input."""
        return int(
            self._lib.rk_csr_mirror(
                n,
                len(indices),
                _as_ptr(indptr, _I32),
                _as_ptr(indices, _I32),
                _as_ptr(data, _I64),
                _as_ptr(out_indptr, _I32),
                _as_ptr(out_indices, _I32),
                _as_ptr(out_data, _I64),
                _as_ptr(cursor, _I32),
            )
        )

    def induced_sum(
        self,
        n: int,
        parts: list,
        persons: np.ndarray,
        local: np.ndarray,
        out_indptr: np.ndarray,
        out_indices: np.ndarray,
        out_data: np.ndarray,
        scratch: list,
    ) -> int:
        """The sum of the ``(n, n)`` strict-upper CSR *parts* (int32
        indptr/indices, int64 data, canonical) induced on ``persons``
        through the column map ``local`` into the output arrays;
        ``scratch``: three (int32, int64) pairs of ``len(persons)``
        slots.  Returns the output nnz, -1 on a malformed part or an
        output overrun."""
        ptrs, nnzs = _part_pointers(parts)
        (fc, fv), (c0, v0), (c1, v1) = scratch
        return int(
            self._lib.rk_induced_sum(
                len(parts),
                n,
                ptrs.ctypes.data,
                _as_ptr(nnzs, _I64),
                len(persons),
                _as_ptr(persons, _I64),
                _as_ptr(local, _I32),
                len(out_indices),
                _as_ptr(out_indptr, _I32),
                _as_ptr(out_indices, _I32),
                _as_ptr(out_data, _I64),
                _as_ptr(fc, _I32),
                _as_ptr(fv, _I64),
                _as_ptr(c0, _I32),
                _as_ptr(v0, _I64),
                _as_ptr(c1, _I32),
                _as_ptr(v1, _I64),
            )
        )

    def upper_frontier(
        self,
        n: int,
        parts: list,
        mark: np.ndarray,
        hi: int,
        near: np.ndarray,
    ) -> int:
        """Set ``near`` (uint8[n]) on every neighbour, in any of the
        ``(n, n)`` strict-upper CSR *parts* (int32 indptr/indices), of a
        vertex marked in ``mark`` (uint8[n]) whose highest marked id is
        ``hi``.  Returns 0, -1 on a malformed part."""
        ptrs, nnzs = _part_pointers(parts)
        return int(
            self._lib.rk_upper_frontier(
                len(parts),
                n,
                ptrs.ctypes.data,
                _as_ptr(nnzs, _I64),
                _as_ptr(mark, _U8),
                hi,
                _as_ptr(near, _U8),
            )
        )

    def edge_triangles(
        self,
        n: int,
        indptr: np.ndarray,
        indices: np.ndarray,
        pos: np.ndarray,
        tri: np.ndarray,
    ) -> int:
        """Per-edge triangle counts of a canonical strict-upper int32
        CSR pattern into ``tri`` int64[nnz] (``pos``: int32[n] scratch);
        -1 when the pattern breaks that contract."""
        return int(
            self._lib.rk_edge_triangles(
                n,
                len(indices),
                _as_ptr(indptr, _I32),
                _as_ptr(indices, _I32),
                _as_ptr(pos, _I32),
                _as_ptr(tri, _I64),
            )
        )

    def rank_step(self, block: "ctypes.Array[ctypes.c_int64]") -> int:
        """``rk_rank_step`` over its argument block (slots: ``STEP_SLOTS``;
        semantics and return codes: the comment above it in :mod:`._csrc`),
        a ``ctypes.c_int64`` array of ``STEP_OUT + n_ranks + 2`` slots
        holding buffer *addresses* (``arr.ctypes.data``) and sizes.  The
        step runs once per rank-hour and ``ndarray.ctypes`` costs
        microseconds an access, so :class:`repro.distrib.rankstep.HostedTable`
        fills the block once per week (week rows, plane) or per growth
        (table, scratch), checks dtype, shape and contiguity there, keeps
        the arrays alive, and rewrites only the ``count`` and ``hour``
        slots per call."""
        return self._lib.rk_rank_step(block)

    def week_fill(
        self,
        household: np.ndarray,
        entries: tuple[np.ndarray, ...],
        act: np.ndarray,
        place: np.ndarray,
        plane: np.ndarray | None,
    ) -> int:
        """``rk_week_fill`` (semantics and return codes: the comment above
        it in :mod:`._csrc`): ``household`` uint32[n], ``entries`` the
        ``(who, days, start, dur, what, where)`` columns (int32, uint8 ×4,
        uint32); writes the hour-major ``(168, n)`` ``act`` / ``place``
        rows and, unless None, the ``(168, n)`` ``plane``.  Arrays that do
        not fit raise ``ValueError`` before any pointer is passed."""
        n, who = len(household), entries[0]
        wanted = [
            (household, np.uint32, (n,)), (act, np.uint8, (168, n)),
            (place, np.uint32, (168, n)),
            *zip(entries, (np.int32, *[np.uint8] * 4, np.uint32), [who.shape] * 6),
        ]
        if plane is not None:
            wanted.append((plane, np.bool_, (168, n)))
        if len(entries) != 6 or not all(
            a.dtype == dtype and a.shape == shape and a.flags.c_contiguous
            for a, dtype, shape in wanted
        ):
            raise ValueError("week_fill: an array has the wrong dtype, shape or layout")
        first = np.empty(len(household) + 1, dtype=np.int32)
        order = np.empty(len(who), dtype=np.int32)
        return int(
            self._lib.rk_week_fill(
                len(household), household.ctypes.data, len(who),
                *(column.ctypes.data for column in entries),
                act.ctypes.data, place.ctypes.data,
                None if plane is None else plane.ctypes.data,
                first.ctypes.data, order.ctypes.data,
            )
        )  # fmt: skip


def _build(cc: str, target: Path) -> None:
    target.parent.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=target.parent) as tmp:
        src = Path(tmp) / "rk.c"
        out = Path(tmp) / "rk.so"
        src.write_text(C_SOURCE)
        subprocess.run(
            [cc, "-O3", "-shared", "-fPIC", "-o", str(out), str(src)],
            check=True,
            capture_output=True,
            timeout=120,
        )
        # atomic publish: concurrent builders race benignly, last wins
        os.replace(out, target)


def _smoke_test(kernels: CompiledKernels) -> None:
    """One tiny end-to-end product checked against the closed form.

    Two persons sharing one 3-hour segment must yield the single pair
    (0, 1) of weight 3, through the transpose, the product and the band
    reduce; a triangle with a
    pendant must yield its edge counts, its induced pair, its mirror and,
    split in two parts, one BFS step and an induced sum; three partials
    must sum with their cancelling entry dropped.  Guards against a
    mis-built or ABI-skewed object before anything trusts it.
    """
    indptr = np.array([0, 1, 2], dtype=np.int32)
    cols = np.array([0, 0], dtype=np.int32)
    cp = np.empty(2, np.int32)
    ri = np.empty(2, np.int32)
    kernels.csr_to_csc(2, 1, indptr, cols, cp, ri)
    w = np.array([3], dtype=np.int32)
    pmap = np.array([0, 1], dtype=np.int64)
    acc = np.empty(2, np.int64)
    mark = np.full(2, -1, np.int64)
    touch = np.empty(2, np.int32)
    keys = np.empty(4, np.int32)
    vals = np.empty(4, np.int64)
    cur = cp[:-1].copy()
    done, n = kernels.masked_spgemm(
        0, 2, indptr, cols, cp, ri, cur, w, pmap, 0, 1, acc, mark, 0, touch,
        keys, vals, 4,
    )
    kernels.csc_rewind(0, 2, indptr, cols, cur)
    # the pair (0, 1) as band key 0 << 1 | 1, then its one-row band
    s_indptr = np.zeros(3, np.int32)
    nnz = kernels.keys_to_csr(keys, n, 2, 1, s_indptr, keys)
    s_vals = np.empty(1, np.int64)
    kernels.fill_values(
        np.array([0], np.int64), np.array([1], np.int64), np.array([1], np.int32),
        vals, 2, 1, 0, s_indptr, keys, np.empty(2, np.int64),
        np.full(2, -1, np.int32), np.empty(1, np.int64), s_vals,
    )
    if (
        (done, n, nnz) != (2, 1, 1)
        or cur.tolist() != [0]
        or s_indptr.tolist() != [0, 1, 1]
        or keys[0] != 1
        or s_vals[0] != 3
    ):
        raise RuntimeError("compiled kernel smoke test failed")
    # graph kernels: a triangle 0-1-2 with a pendant 2-3 (weights 5..8)
    g_indptr = np.array([0, 2, 3, 4, 4], dtype=np.int32)
    g_indices = np.array([1, 2, 2, 3], dtype=np.int32)
    tri = np.full(4, -1, dtype=np.int64)
    ok = kernels.edge_triangles(
        4, g_indptr, g_indices, np.empty(4, np.int32), tri
    )
    sub_indptr = np.empty(3, np.int32)
    sub_indices = np.empty(3, np.int32)
    sub_data = np.empty(3, np.int64)
    graph = SimpleNamespace(
        indptr=g_indptr, indices=g_indices, data=np.array([5, 6, 7, 8], np.int64)
    )
    nnz = kernels.induced_sum(
        4, [graph], np.array([0, 2], dtype=np.int64),
        np.array([0, -1, 1, -1], dtype=np.int32), sub_indptr, sub_indices,
        sub_data, [(np.empty(2, np.int32), np.empty(2, np.int64)) for _ in range(3)],
    )
    if (
        ok != 0
        or tri.tolist() != [1, 1, 1, 0]
        or nnz != 1
        or sub_indptr.tolist() != [0, 1, 1]
        or (sub_indices[0], sub_data[0]) != (1, 6)
    ):
        raise RuntimeError("compiled graph kernel smoke test failed")
    # a 3-way sum over 3 persons: (0, 1) 1 + 2, (0, 2) 3, (1, 2) 5 - 5
    # cancels and is dropped
    parts = [
        SimpleNamespace(
            indptr=np.array(indptr, np.int32),
            indices=np.array(indices, np.int32),
            data=np.array(data, np.int64),
        )
        for indptr, indices, data in (
            ([0, 1, 1, 1], [1], [1]),
            ([0, 1, 2, 2], [1, 2], [2, 5]),
            ([0, 1, 2, 2], [2, 2], [3, -5]),
        )
    ]
    s_indptr = np.empty(4, np.int32)
    s_indices = np.empty(5, np.int32)
    s_data = np.empty(5, np.int64)
    nnz = kernels.csr_sum(
        3, parts, s_indptr, s_indices, s_data,
        np.empty(3, np.int32), np.empty(3, np.int64),
        np.empty(3, np.int32), np.empty(3, np.int64),
    )
    if (
        nnz != 2
        or s_indptr.tolist() != [0, 2, 2, 2]
        or s_indices[:2].tolist() != [1, 2]
        or s_data[:2].tolist() != [3, 3]
    ):
        raise RuntimeError("compiled partial-sum kernel smoke test failed")
    # the triangle-with-pendant above, mirrored; then, split in two
    # parts, one BFS step from vertex 2 (0 and 1 hold it as a column, 3
    # is in its own row) and its sum induced on three of the vertices
    m_indptr = np.empty(5, np.int32)
    m_indices = np.empty(8, np.int32)
    m_data = np.empty(8, np.int64)
    nnz = kernels.csr_mirror(
        4, g_indptr, g_indices, np.array([5, 6, 7, 8], dtype=np.int64),
        m_indptr, m_indices, m_data, np.empty(4, np.int32),
    )
    halves = [
        SimpleNamespace(
            indptr=np.array(indptr, np.int32),
            indices=np.array(indices, np.int32),
            data=np.array(data, np.int64),
        )
        for indptr, indices, data in (
            ([0, 1, 1, 2, 2], [1, 3], [5, 8]),
            ([0, 1, 2, 2, 2], [2, 2], [6, 7]),
        )
    ]
    near = np.zeros(4, np.uint8)
    ok = kernels.upper_frontier(
        4, halves, np.array([0, 0, 1, 0], np.uint8), 2, near
    )
    # the two halves summed on persons {0, 2, 3}: (0, 2) 6 and (2, 3) 8
    i_indptr = np.empty(4, np.int32)
    i_indices = np.empty(4, np.int32)
    i_data = np.empty(4, np.int64)
    i_nnz = kernels.induced_sum(
        4, halves, np.array([0, 2, 3], np.int64),
        np.array([0, -1, 1, 2], np.int32), i_indptr, i_indices, i_data,
        [(np.empty(3, np.int32), np.empty(3, np.int64)) for _ in range(3)],
    )
    if (
        nnz != 8
        or m_indptr.tolist() != [0, 2, 4, 7, 8]
        or m_indices.tolist() != [1, 2, 0, 2, 0, 1, 3, 2]
        or m_data.tolist() != [5, 6, 5, 7, 6, 7, 8, 8]
        or ok != 0
        or near.tolist() != [1, 1, 0, 1]
        or i_nnz != 2
        or i_indptr.tolist() != [0, 1, 2, 2]
        or i_indices[:2].tolist() != [1, 2]
        or i_data[:2].tolist() != [6, 8]
    ):
        raise RuntimeError(
            "compiled mirror / frontier / induced-sum kernel smoke test failed"
        )
    # one rank-hour (hour 1) on rank 0 of 2 over a 3-person world:
    # person 0 moves to place 1 (rank 1's) and leaves, person 1 does not
    # change, person 2 changes activity at place 0 and stays, now second
    # (MIGRANT_DTYPE spelt out: core does not import distrib)
    spell = np.dtype(
        [("person", "<u4"), ("spell_start", "<i8"), ("activity", "<u4"), ("place", "<u4")]
    )
    table = np.array([(0, 0, 0, 0), (1, 0, 0, 0), (2, 0, 0, 0)], dtype=spell)
    changed = np.zeros((168, 3), dtype=np.uint8)  # the week, hour-major
    act = np.zeros((168, 3), dtype=np.uint8)
    place = np.zeros((168, 3), dtype=np.uint32)
    changed[1], act[1], place[1] = [1, 0, 1], [3, 0, 4], [1, 0, 0]
    owner = np.array([0, 1], dtype=np.int32)
    records = np.zeros((3, 5), dtype="<u4")
    leavers, moved = np.zeros(3, dtype=spell), np.zeros(3, dtype=spell)
    dest = np.zeros(3, dtype=np.int32)
    block = (ctypes.c_int64 * (STEP_OUT + 4))(
        table.ctypes.data, 3, changed.ctypes.data, act.ctypes.data,
        place.ctypes.data, owner.ctypes.data, 3, 2, 2, 0, 1,
        records.ctypes.data, leavers.ctypes.data, moved.ctypes.data,
        dest.ctypes.data,
    )  # fmt: skip
    n_rec = kernels.rank_step(block)
    if (
        n_rec != 2
        or block[STEP_OUT : STEP_OUT + 4] != [2, 0, 0, 1]
        or records[:2].tolist() != [[0, 1, 0, 0, 0], [0, 1, 2, 0, 0]]
        or table[:2].tolist() != [(1, 0, 0, 0), (2, 1, 4, 0)]
        or leavers[:1].tolist() != [(0, 1, 3, 1)]
    ):
        raise RuntimeError("compiled rank-step kernel smoke test failed")
    # one week of two persons at home (places 5 and 6): person 1 is at
    # place 7 (activity 2) from 9 to 11 on Tuesday, and at place 8 from
    # 22 to midnight on Monday, cut to 22 by the home hour 23
    week_act = np.empty((168, 2), np.uint8)
    week_place = np.empty((168, 2), np.uint32)
    plane = np.empty((168, 2), np.bool_)
    rc = kernels.week_fill(
        np.array([5, 6], np.uint32),
        (np.array([1, 1], np.int32), np.array([2, 1], np.uint8),
         np.array([9, 22], np.uint8), np.array([2, 5], np.uint8),
         np.array([2, 3], np.uint8), np.array([7, 8], np.uint32)),
        week_act, week_place, plane,
    )  # fmt: skip
    if (
        rc != 0
        or week_place[:, 0].tolist() != [5] * 168
        or np.flatnonzero(week_act[:, 1]).tolist() != [22, 33, 34]
        or week_place[[22, 23, 33, 34, 35], 1].tolist() != [8, 6, 7, 7, 6]
        or np.argwhere(plane).tolist() != [[22, 1], [23, 1], [33, 1], [35, 1]]
    ):
        raise RuntimeError("compiled week-fill kernel smoke test failed")


def _load() -> "tuple[CompiledKernels | bool, str | None]":
    """``(kernels, None)``, or ``(False, why not)``."""
    if os.environ.get("REPRO_NO_CC", "0") not in ("", "0"):
        return False, "disabled by REPRO_NO_CC"
    cc = _find_cc()
    if cc is None:
        return False, "no C compiler on PATH"
    target = _cache_dir() / f"rk-{_source_key(cc)}.so"
    try:
        if not target.is_file():
            _build(cc, target)
        kernels = CompiledKernels(ctypes.CDLL(str(target)))
        _smoke_test(kernels)
    except Exception as exc:  # missing headers, EPERM cache dir, ABI skew...
        return False, f"{type(exc).__name__}: {exc}"
    return kernels, None


def load_cext() -> CompiledKernels | None:
    """The compiled kernels, building them on first call; None when
    unavailable (no compiler, build failure, or ``REPRO_NO_CC=1``).  The
    verdict is published once as the ``kernels.compiled`` gauge."""
    global _lib, _error
    if _lib is None:
        _lib, _error = _load()
        default_registry().gauge("kernels.compiled").set(1 if _lib else 0)
    return _lib or None


def cext_error() -> str | None:
    """Why the extension is unavailable (None when it loaded fine)."""
    load_cext()
    return _error
