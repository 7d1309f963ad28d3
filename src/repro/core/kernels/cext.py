"""Build and bind the compiled kernel extension at first use.

The container/CI images this project targets ship a system C compiler
but deliberately no build-time python packages, so the extension is
compiled on demand: the embedded source (:mod:`._csrc`) is written next
to a content-addressed cache path, compiled with ``cc -O2 -shared
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

import numpy as np

from ...obs import default_registry
from ._csrc import C_SOURCE, C_SOURCE_VERSION

__all__ = ["load_cext", "cext_error"]

_I64 = ctypes.POINTER(ctypes.c_int64)
_I32 = ctypes.POINTER(ctypes.c_int32)
_U64 = ctypes.POINTER(ctypes.c_uint64)

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
        lib.rk_pack_triples.restype = ctypes.c_int64
        lib.rk_keys_to_csr.restype = ctypes.c_int64
        lib.rk_fill_values.restype = ctypes.c_int64
        lib.rk_edge_triangles.restype = ctypes.c_int64
        lib.rk_edge_triangles.argtypes = [
            ctypes.c_int64, ctypes.c_int64, _I32, _I32, _I32, _I64,
        ]
        lib.rk_induced_subgraph.restype = ctypes.c_int64
        lib.rk_induced_subgraph.argtypes = [
            ctypes.c_int64, _I64, ctypes.c_int64, ctypes.c_int64,
            _I32, _I32, _I64, _I32, ctypes.c_int64, _I32, _I32, _I64,
        ]
        lib.rk_rank_step.restype = ctypes.c_int64
        lib.rk_rank_step.argtypes = (
            [ctypes.c_void_p, ctypes.c_int64] + [ctypes.c_void_p] * 3
            + [ctypes.c_int64] * 2 + [ctypes.c_void_p] + [ctypes.c_int64] * 5
            + [ctypes.c_void_p] * 5
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
            _as_ptr(lo, _I64),
            _as_ptr(hi, _I64),
            _as_ptr(col_place, _I64),
            _as_ptr(col_start, _I64),
            _as_ptr(col_weight, _I64),
            _as_ptr(place_ids, _I64),
            _as_ptr(place_first_col, _I64),
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
            _as_ptr(lo, _I64),
            _as_ptr(hi, _I64),
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
                _as_ptr(col_counts, _I64),
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
                _as_ptr(lo, _I64),
                _as_ptr(hi, _I64),
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
            _as_ptr(col_counts, _I64),
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
        qp: np.ndarray,
    ) -> int:
        return int(
            self._lib.rk_csr_to_csc(
                ctypes.c_int64(n_rows),
                ctypes.c_int64(n_cols),
                _as_ptr(indptr, _I32),
                _as_ptr(cols, _I32),
                _as_ptr(cp, _I64),
                _as_ptr(ri, _I32),
                _as_ptr(qp, _I64),
            )
        )

    def masked_spgemm(
        self,
        n_rows: int,
        indptr: np.ndarray,
        cols: np.ndarray,
        qp: np.ndarray,
        cp: np.ndarray,
        ri: np.ndarray,
        w: np.ndarray,
        acc: np.ndarray,
        mark: np.ndarray,
        touch: np.ndarray,
        out_r: np.ndarray,
        out_c: np.ndarray,
        out_v: np.ndarray,
        cap: int,
    ) -> int:
        return int(
            self._lib.rk_masked_spgemm(
                ctypes.c_int64(n_rows),
                _as_ptr(indptr, _I32),
                _as_ptr(cols, _I32),
                _as_ptr(qp, _I64),
                _as_ptr(cp, _I64),
                _as_ptr(ri, _I32),
                _as_ptr(w, _I64),
                _as_ptr(acc, _I64),
                _as_ptr(mark, _I32),
                _as_ptr(touch, _I32),
                _as_ptr(out_r, _I32),
                _as_ptr(out_c, _I32),
                _as_ptr(out_v, _I64),
                ctypes.c_int64(cap),
            )
        )

    def pack_triples(
        self,
        n: int,
        rows: np.ndarray,
        cols: np.ndarray,
        pmap: np.ndarray,
        use_map: int,
        keys: np.ndarray,
    ) -> None:
        self._lib.rk_pack_triples(
            ctypes.c_int64(n),
            _as_ptr(rows, _I32),
            _as_ptr(cols, _I32),
            _as_ptr(pmap, _I64),
            ctypes.c_int32(use_map),
            _as_ptr(keys, _I64),
        )

    def keys_to_csr(
        self,
        keys: np.ndarray,
        n_tr: int,
        n_rows: int,
        indptr: np.ndarray,
        cols_out: np.ndarray,
    ) -> int:
        return int(
            self._lib.rk_keys_to_csr(
                _as_ptr(keys, _I64),
                ctypes.c_int64(n_tr),
                ctypes.c_int64(n_rows),
                _as_ptr(indptr, _I32),
                _as_ptr(cols_out, _I32),
            )
        )

    def fill_values(
        self,
        n_runs: int,
        run_ptr: np.ndarray,
        keys: np.ndarray,
        vals: np.ndarray,
        n_rows: int,
        indptr: np.ndarray,
        cols_out: np.ndarray,
        acc: np.ndarray,
        mark: np.ndarray,
        cursor: np.ndarray,
        vals_out: np.ndarray,
    ) -> None:
        self._lib.rk_fill_values(
            ctypes.c_int64(n_runs),
            _as_ptr(run_ptr, _I64),
            _as_ptr(keys, _I64),
            _as_ptr(vals, _I64),
            ctypes.c_int64(n_rows),
            _as_ptr(indptr, _I32),
            _as_ptr(cols_out, _I32),
            _as_ptr(acc, _I64),
            _as_ptr(mark, _I32),
            _as_ptr(cursor, _I64),
            _as_ptr(vals_out, _I64),
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

    def induced_subgraph(
        self,
        persons: np.ndarray,
        n: int,
        indptr: np.ndarray,
        indices: np.ndarray,
        data: np.ndarray,
        local: np.ndarray,
        out_indptr: np.ndarray,
        out_indices: np.ndarray,
        out_data: np.ndarray,
    ) -> int:
        """Gather the rows ``persons`` of an ``n``-column int32/int64
        CSR through the column map ``local``; returns the nnz written,
        -1 on an index out of range or an output overrun."""
        return int(
            self._lib.rk_induced_subgraph(
                len(persons),
                _as_ptr(persons, _I64),
                n,
                len(indices),
                _as_ptr(indptr, _I32),
                _as_ptr(indices, _I32),
                _as_ptr(data, _I64),
                _as_ptr(local, _I32),
                len(out_indices),
                _as_ptr(out_indptr, _I32),
                _as_ptr(out_indices, _I32),
                _as_ptr(out_data, _I64),
            )
        )

    def rank_step(self, *args: int) -> int:
        """``rk_rank_step`` (arguments and return codes: the comment
        above it in :mod:`._csrc`), called with buffer *addresses*
        (``arr.ctypes.data``), not arrays: the step runs once per
        rank-hour and ``ndarray.ctypes`` costs microseconds an access, so
        :class:`repro.distrib.rankstep.HostedTable` resolves each address
        once per week (grids, plane) or per growth (table, scratch),
        checks dtype, shape and contiguity there, and keeps the arrays
        alive."""
        return self._lib.rk_rank_step(*args)


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

    Two persons sharing one 3-hour segment must yield the single triple
    (0, 1, 3), through the transpose and the product; a triangle with a
    pendant must yield its edge counts and its induced pair.  Guards
    against a mis-built or ABI-skewed object before anything trusts it.
    """
    indptr = np.array([0, 1, 2], dtype=np.int32)
    cols = np.array([0, 0], dtype=np.int32)
    cp = np.empty(2, np.int64)
    ri = np.empty(2, np.int32)
    qp = np.empty(2, np.int64)
    kernels.csr_to_csc(2, 1, indptr, cols, cp, ri, qp)
    w = np.array([3], dtype=np.int64)
    acc = np.empty(2, np.int64)
    mark = np.empty(2, np.int32)
    touch = np.empty(2, np.int32)
    out_r = np.empty(4, np.int32)
    out_c = np.empty(4, np.int32)
    out_v = np.empty(4, np.int64)
    n = kernels.masked_spgemm(
        2, indptr, cols, qp, cp, ri, w, acc, mark, touch, out_r, out_c, out_v, 4
    )
    if n != 1 or out_r[0] != 0 or out_c[0] != 1 or out_v[0] != 3:
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
    nnz = kernels.induced_subgraph(
        np.array([0, 2], dtype=np.int64),
        4,
        g_indptr,
        g_indices,
        np.array([5, 6, 7, 8], dtype=np.int64),
        np.array([0, -1, 1, -1], dtype=np.int32),
        sub_indptr,
        sub_indices,
        sub_data,
    )
    if (
        ok != 0
        or tri.tolist() != [1, 1, 1, 0]
        or nnz != 1
        or sub_indptr.tolist() != [0, 1, 1]
        or (sub_indices[0], sub_data[0]) != (1, 6)
    ):
        raise RuntimeError("compiled graph kernel smoke test failed")
    # one rank-hour (hour 1 of a 2-hour week) on rank 0 of 2: person 0
    # moves to place 1 (rank 1's) and leaves, person 1 does not change,
    # person 2 changes activity at place 0 and stays, now second
    # (MIGRANT_DTYPE spelt out: core does not import distrib)
    spell = np.dtype(
        [("person", "<u4"), ("spell_start", "<i8"), ("activity", "<u4"), ("place", "<u4")]
    )
    table = np.array([(0, 0, 0, 0), (1, 0, 0, 0), (2, 0, 0, 0)], dtype=spell)
    changed = np.array([1, 0, 1], dtype=np.uint8)
    act = np.array([[0, 3], [0, 0], [0, 4]], dtype=np.uint8)
    place = np.array([[0, 1], [0, 0], [0, 0]], dtype=np.uint32)
    owner = np.array([0, 1], dtype=np.int32)
    records = np.zeros((3, 5), dtype="<u4")
    leavers, moved = np.zeros(3, dtype=spell), np.zeros(3, dtype=spell)
    dest, out = np.zeros(3, dtype=np.int32), np.zeros(4, dtype=np.int64)
    n_rec = kernels.rank_step(
        table.ctypes.data, 3, changed.ctypes.data, act.ctypes.data,
        place.ctypes.data, 2, 1, owner.ctypes.data, 3, 2, 2, 0, 1,
        records.ctypes.data, leavers.ctypes.data, moved.ctypes.data,
        dest.ctypes.data, out.ctypes.data,
    )  # fmt: skip
    if (
        n_rec != 2
        or out.tolist() != [2, 0, 0, 1]
        or records[:2].tolist() != [[0, 1, 0, 0, 0], [0, 1, 2, 0, 0]]
        or table[:2].tolist() != [(1, 0, 0, 0), (2, 1, 4, 0)]
        or leavers[:1].tolist() != [(0, 1, 3, 1)]
    ):
        raise RuntimeError("compiled rank-step kernel smoke test failed")


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
