"""C source for the compiled masked-SpGEMM kernel extension.

The source is embedded as a string so the package needs no build step and
no files beyond the python tree: :mod:`repro.core.kernels.cext` compiles
it once with the system C compiler into a cached shared object and binds
it through :mod:`ctypes`.  Everything here is plain C99 with no
dependencies — the arrays come in as raw pointers from numpy.

Functions (all linear passes or cache-sized loops; the only large sorts
happen in numpy, on packed 64-bit keys, between the scans):

``rk_col_stats``
    one fused pass over the four record columns computing every guard
    the pack build needs (id ranges, zero-length record count) — replaces
    four separate numpy reductions.
``rk_pack_keys``
    pack each record's two boundaries into sortable
    ``((place << tb | time) << ib | idx)`` keys in one pass (no numpy
    temporaries).
``rk_boundary_scan``
    walk the sorted packed boundary keys and emit the elementary-segment
    column space plus each record's ``[lo, hi)`` column range — the
    compiled twin of ``np.unique(..., return_inverse=True)`` +
    ``_boundary_space``.
``rk_range_keys``
    pack each record's ``(person, lo-column, range-length)`` into one
    sortable int64 key — one ``np.sort`` over *records* then replaces
    the 3-4x larger per-segment entry sort, and the length rides in the
    key so the emit scan never gathers through a record-index map.
``rk_ranges_to_csr``
    emit the canonical binary CSR straight from the sorted range keys by
    merging each person's (lo-ascending) column intervals — the column
    union of a person's records comes out sorted and duplicate-free
    without materializing the expanded entries at all.  Per-column
    presence counts fall out of range start/end deltas plus one prefix
    sum instead of an increment per emitted entry.
``rk_expand_entries``
    emit one packed ``(person << 32 | col)`` key per covered segment —
    the compiled twin of ``_expand_intervals``, keyed by *global* person
    id so no ``np.unique(person)`` pass is ever needed.  Fallback for
    packs whose ``(person, column, index)`` ranges overflow the 63-bit
    range keys.
``rk_entries_to_csr``
    dedup sorted entry keys into a canonical binary CSR (sorted indices,
    int32), deriving the sorted-unique person row map and per-column
    presence counts in the same pass.
``rk_csr_to_csc``
    counting transpose (rows ascending per column) that also records each
    CSR entry's position inside its CSC column, feeding the SpGEMM.
``rk_masked_spgemm``
    row-wise Gustavson product restricted to the strict upper triangle of
    ``(Y·diag(w))·Yᵀ`` in local coordinates, writing COO triples straight
    into caller-pooled output buffers.
``rk_pack_triples``
    rewrite a pack's local COO triples as packed ``(global_row << 32 |
    global_col)`` sort keys, fusing the local→global gather with the key
    packing.
``rk_keys_to_csr``
    dedup the globally sorted triple keys into the canonical CSR pattern
    in one linear scan.
``rk_fill_values``
    sum duplicate triple values into the canonical value array by
    row-merging the runs through a dense accumulator (every pack's
    triples arrive row-ascending, so no sort-by-row pass exists
    anywhere: the one ``np.sort`` over packed keys replaces it).

Together the last three are the compiled twin of
``coo_matrix(...).tocsr()`` over the concatenated parts.

Two graph kernels serve the Section V analysis (entry points in
:mod:`.graph`):

``rk_edge_triangles``
    the masked product ``(A·A)∘A`` over a strict-upper CSR, one marked
    row against its neighbours' rows: the triangle count of every edge,
    with no wedge intermediate.
``rk_induced_subgraph``
    one gather pass over the listed rows of a CSR matrix through a
    global→local column map — the compiled twin of
    ``m[persons][:, persons]``.

One kernel serves the distributed model (entry point in
:mod:`repro.distrib.rankstep`):

``rk_rank_step``
    one rank-hour over a rank's hosted table: a single scan that reads
    the change plane row, closes the changers' spells as log records,
    opens their next spells from the week grids, looks the new owner up,
    compacts stayers in place and buckets leavers by destination — the
    compiled twin of the numpy step below its call.
"""

from __future__ import annotations

__all__ = ["C_SOURCE", "C_SOURCE_VERSION"]

#: bump when C_SOURCE changes incompatibly; part of the build-cache key
C_SOURCE_VERSION = 7

C_SOURCE = r"""
#include <stdint.h>
#include <string.h>

#define API __attribute__((visibility("default")))

/* One fused guard pass over the record columns.  out receives
   {place_min, place_max, person_min, person_max, n_zero_length}; a
   single linear scan replaces the separate numpy reductions over the
   same memory. */
API int64_t rk_col_stats(
    int64_t n,
    const int64_t *place, const int64_t *person,
    const int64_t *start, const int64_t *stop,
    int64_t *out) {
    int64_t place_min = INT64_MAX, place_max = -1;
    int64_t person_min = INT64_MAX, person_max = INT64_MIN;
    int64_t n_zero = 0;
    for (int64_t i = 0; i < n; i++) {
        if (place[i] < place_min) place_min = place[i];
        if (place[i] > place_max) place_max = place[i];
        if (person[i] < person_min) person_min = person[i];
        if (person[i] > person_max) person_max = person[i];
        if (start[i] >= stop[i]) n_zero++;
    }
    out[0] = place_min;
    out[1] = place_max;
    out[2] = person_min;
    out[3] = person_max;
    out[4] = n_zero;
    return 0;
}

/* Pack both boundaries of every record into sortable keys:
   keys[i]     = ((place << tbits | start - t0) << ibits) | i
   keys[n + i] = ((place << tbits | stop  - t0) << ibits) | (n + i)
   One pass, no intermediate arrays; the caller value-sorts the result. */
API int64_t rk_pack_keys(
    int64_t n,
    const int64_t *place, const int64_t *start, const int64_t *stop,
    int64_t t0, int32_t tbits, int32_t ibits,
    int64_t *keys) {
    for (int64_t i = 0; i < n; i++)
        keys[i] = (((place[i] << tbits) | (start[i] - t0)) << ibits) | i;
    for (int64_t i = 0; i < n; i++)
        keys[n + i] =
            (((place[i] << tbits) | (stop[i] - t0)) << ibits) | (n + i);
    return 0;
}

/* Walk sorted packed boundary keys and build the elementary-segment
   column space.

   keys[i] = ((place << tbits | time) << ibits) | original_index, sorted
   ascending; original indices < n are record starts, >= n are stops.
   Duplicate (place, time) pairs are adjacent.  Boundaries group by
   place; within a place every boundary except the last opens a segment
   (a column).  The column index of boundary b is its unique-serial minus
   the number of completed places before it (each contributes exactly one
   closing boundary).

   Outputs (caller allocates capacity 2n for the col_* arrays, n_rec+1
   for place_*): lo/hi per record (column ranges), col_place/col_start/
   col_weight per column, place_ids and place_first_col per place.
   out_counts receives {n_cols, n_places}.  Returns 0. */
API int64_t rk_boundary_scan(
    const uint64_t *keys, int64_t n2, int64_t n_rec,
    int32_t tbits, int32_t ibits,
    int64_t *lo, int64_t *hi,
    int64_t *col_place, int64_t *col_start, int64_t *col_weight,
    int64_t *place_ids, int64_t *place_first_col,
    int64_t *out_counts) {
    const uint64_t imask = (ibits >= 64) ? ~0ULL : ((1ULL << ibits) - 1ULL);
    const uint64_t tmask = (1ULL << tbits) - 1ULL;
    int64_t u = -1;        /* unique boundary serial */
    int64_t n_places = 0;  /* completed-or-open places */
    int64_t col = 0;       /* column index of the current boundary */
    int64_t prev_place = -1, prev_time = -1;
    for (int64_t i = 0; i < n2; i++) {
        uint64_t k = keys[i];
        int64_t idx = (int64_t)(k & imask);
        uint64_t pt = k >> ibits;
        int64_t t = (int64_t)(pt & tmask);
        int64_t p = (int64_t)(pt >> tbits);
        if (p != prev_place || t != prev_time) {
            u++;
            if (p != prev_place) {
                place_ids[n_places] = p;
                place_first_col[n_places] = u - n_places;
                n_places++;
            } else {
                /* same place: the previous boundary opens the segment
                   [prev_time, t) whose column is (u-1) - place_ordinal */
                int64_t c = u - n_places;
                col_place[c] = p;
                col_start[c] = prev_time;
                col_weight[c] = t - prev_time;
            }
            prev_place = p;
            prev_time = t;
        }
        col = u - (n_places - 1);
        if (idx < n_rec) lo[idx] = col;
        else             hi[idx - n_rec] = col;
    }
    out_counts[0] = (u + 1) - n_places;  /* columns = boundaries - closings */
    out_counts[1] = n_places;
    return 0;
}

/* Pack each record's (person, lo column, range length) into one
   sortable key: keys[r] = (person[r] << 2*lbits) | (lo[r] << lbits) |
   (hi[r] - lo[r]).  The caller guarantees person and two lbits-wide
   fields fit 63 bits together; sorting these n keys replaces sorting
   the ~3-4x larger per-segment entry expansion, and carrying the length
   instead of a record index spares the emit scan a random gather. */
API int64_t rk_range_keys(
    int64_t n, const int64_t *person, const int64_t *lo, const int64_t *hi,
    int32_t lbits, int64_t *keys) {
    for (int64_t r = 0; r < n; r++)
        keys[r] = (person[r] << (2 * lbits)) | (lo[r] << lbits)
                | (hi[r] - lo[r]);
    return 0;
}

/* Emit canonical binary CSR straight from the sorted range keys.  Each
   key decodes to (person, lo, len) and covers the half-open column
   range [lo, lo + len); within a person the keys arrive lo-ascending,
   so every previously processed range starts at or below the current
   lo, the person's covered set above lo is exactly [lo, cur_end), and
   overlapping ranges merge against that running exclusive end — each
   person's column union comes out sorted and duplicate-free with no
   per-segment entry array ever materialized.  persons receives the
   sorted-unique person ids.  col_counts (n_cols + 1 slots, zeroed
   here) receives per-column presence counts via range start/end deltas
   — an overlap charges a compensating delta over [lo, min(h, cur_end))
   — resolved by one prefix sum, instead of an increment per emitted
   entry.  indptr needs n+1 slots, persons n, cols capacity cap.
   out_counts receives {nnz, n_rows}.  Returns 0, or -nnz when nnz
   exceeds cap (the scan keeps counting without writing so the caller
   can grow the pooled buffer and retry). */
API int64_t rk_ranges_to_csr(
    const int64_t *keys, int64_t n, int32_t lbits, int64_t n_cols,
    int32_t *indptr, int32_t *cols, int64_t *persons, int64_t *col_counts,
    int64_t cap, int64_t *out_counts) {
    memset(col_counts, 0, (size_t)(n_cols + 1) * sizeof(int64_t));
    int64_t lmask = (((int64_t)1) << lbits) - 1;
    int64_t nnz = 0;
    int64_t n_rows = 0;
    int64_t prev_person = -1;
    int64_t cur_end = 0;  /* exclusive end of the row's last emitted run */
    indptr[0] = 0;
    for (int64_t t = 0; t < n; t++) {
        int64_t k = keys[t];
        int64_t person = k >> (2 * lbits);
        int64_t lo = (k >> lbits) & lmask;
        int64_t h = lo + (k & lmask);
        if (person != prev_person) {
            prev_person = person;
            persons[n_rows] = person;
            indptr[n_rows] = (int32_t)nnz;
            n_rows++;
            cur_end = 0;
        }
        col_counts[lo]++;
        col_counts[h]--;
        int64_t ov_end = h < cur_end ? h : cur_end;
        if (lo < ov_end) {  /* this person already covered [lo, ov_end) */
            col_counts[lo]--;
            col_counts[ov_end]++;
        }
        int64_t from = lo > cur_end ? lo : cur_end;
        if (h <= from) continue;  /* range fully inside an emitted run */
        if (nnz + (h - from) <= cap) {
            for (int64_t c = from; c < h; c++)
                cols[nnz++] = (int32_t)c;
        } else {
            nnz += h - from;  /* count on, write nothing: sizes the retry */
        }
        cur_end = h;
    }
    indptr[n_rows] = (int32_t)nnz;
    int64_t run = 0;
    for (int64_t c = 0; c < n_cols; c++) {
        run += col_counts[c];
        col_counts[c] = run;
    }
    out_counts[0] = nnz;
    out_counts[1] = n_rows;
    return (nnz > cap) ? -nnz : 0;
}

/* Emit one packed (person << 32 | col) entry key per segment a record
   covers, keyed by global person id (caller guarantees 0 <= person
   < 2^32).  Returns the total entry count, or -total when it exceeds cap
   (so the caller can grow the pooled buffer and retry). */
API int64_t rk_expand_entries(
    const int64_t *lo, const int64_t *hi, const int64_t *person,
    int64_t n_rec, uint64_t *out, int64_t cap) {
    int64_t total = 0;
    for (int64_t r = 0; r < n_rec; r++) total += hi[r] - lo[r];
    if (total > cap) return -total;
    int64_t k = 0;
    for (int64_t r = 0; r < n_rec; r++) {
        uint64_t p = ((uint64_t)person[r]) << 32;
        for (int64_t c = lo[r]; c < hi[r]; c++)
            out[k++] = p | (uint64_t)c;
    }
    return total;
}

/* Dedup sorted (person << 32 | col) entry keys into canonical binary CSR
   (indices ascending per row, int32), deriving the row space on the way:
   persons receives the sorted-unique person ids (every person covers at
   least one segment, so the keys visit each exactly where np.unique
   would).  col_counts (n_cols slots, zeroed here) receives per-column
   presence counts.  indptr needs n_rec+1 slots, persons n_rec, cols
   capacity n_dup.  out_counts receives {nnz, n_rows}.  Returns 0. */
API int64_t rk_entries_to_csr(
    const uint64_t *keys, int64_t n_dup, int64_t n_cols,
    int32_t *indptr, int32_t *cols, int64_t *persons, int64_t *col_counts,
    int64_t *out_counts) {
    memset(col_counts, 0, (size_t)n_cols * sizeof(int64_t));
    int64_t nnz = 0;
    int64_t n_rows = 0;
    uint64_t prev = ~0ULL;
    uint64_t prev_person = ~0ULL;
    indptr[0] = 0;
    for (int64_t i = 0; i < n_dup; i++) {
        uint64_t k = keys[i];
        if (k == prev) continue;
        prev = k;
        uint64_t p = k >> 32;
        if (p != prev_person) {
            prev_person = p;
            persons[n_rows] = (int64_t)p;
            indptr[n_rows] = (int32_t)nnz;
            n_rows++;
        }
        int64_t c = (int64_t)(uint32_t)k;
        cols[nnz++] = (int32_t)c;
        col_counts[c]++;
    }
    indptr[n_rows] = (int32_t)nnz;
    out_counts[0] = nnz;
    out_counts[1] = n_rows;
    return 0;
}

/* Counting transpose of a CSR pattern into CSC with rows ascending per
   column, recording each CSR entry's CSC position in qp (the suffix
   handle the SpGEMM needs).  cp has n_cols+1 slots; ri and qp capacity
   nnz. */
API int64_t rk_csr_to_csc(
    int64_t n_rows, int64_t n_cols,
    const int32_t *indptr, const int32_t *cols,
    int64_t *cp, int32_t *ri, int64_t *qp) {
    int64_t nnz = indptr[n_rows];
    memset(cp, 0, (size_t)(n_cols + 1) * sizeof(int64_t));
    for (int64_t p = 0; p < nnz; p++) cp[cols[p] + 1]++;
    for (int64_t c = 0; c < n_cols; c++) cp[c + 1] += cp[c];
    /* walk rows in order so each column receives its row indices
       ascending; cp temporarily holds write cursors */
    for (int64_t i = 0; i < n_rows; i++) {
        for (int64_t p = indptr[i]; p < indptr[i + 1]; p++) {
            int64_t q = cp[cols[p]]++;
            ri[q] = (int32_t)i;
            qp[p] = q;
        }
    }
    /* restore cp: cursors are now each column's end = next column's start */
    for (int64_t c = n_cols; c > 0; c--) cp[c] = cp[c - 1];
    cp[0] = 0;
    return nnz;
}

/* Masked upper-triangular weighted SpGEMM: the strict upper triangle of
   (Y diag(w) Y^T), emitted as COO triples in local coordinates (unsorted
   within a row; accumulation canonicalizes).

   Y comes in as its CSR pattern (indptr/cols) plus the CSC from
   rk_csr_to_csc (cp/ri ascending rows, qp mapping CSR entry -> CSC
   position).  Row-wise Gustavson over the upper pairs only: for each row
   i and each column c containing i, every later row j in c gains w[c]
   collocated hours with i — ascending rows per column make "later rows"
   the suffix starting right after qp[p].

   Workspaces (caller-pooled): acc int64[nr], mark int32[nr], touch
   int32[nr] (any contents).  Returns triples written, or -needed when
   cap is too small (keeps counting without writing so the caller can
   grow and retry). */
API int64_t rk_masked_spgemm(
    int64_t nr,
    const int32_t *indptr, const int32_t *cols, const int64_t *qp,
    const int64_t *cp, const int32_t *ri, const int64_t *w,
    int64_t *acc, int32_t *mark, int32_t *touch,
    int32_t *out_r, int32_t *out_c, int64_t *out_v, int64_t cap) {
    memset(mark, 0xFF, (size_t)nr * sizeof(int32_t));
    int64_t out_n = 0;
    for (int64_t i = 0; i < nr; i++) {
        int64_t nt = 0;
        for (int64_t p = indptr[i]; p < indptr[i + 1]; p++) {
            int64_t c = cols[p];
            int64_t wc = w[c];
            for (int64_t q = qp[p] + 1; q < cp[c + 1]; q++) {
                int32_t j = ri[q];
                if (mark[j] != (int32_t)i) {
                    mark[j] = (int32_t)i;
                    acc[j] = wc;
                    touch[nt++] = j;
                } else {
                    acc[j] += wc;
                }
            }
        }
        if (out_n + nt <= cap) {
            for (int64_t t = 0; t < nt; t++) {
                int32_t j = touch[t];
                out_r[out_n] = (int32_t)i;
                out_c[out_n] = j;
                out_v[out_n] = acc[j];
                out_n++;
            }
        } else {
            out_n += nt;  /* count on, write nothing: sizes the retry */
        }
    }
    return (out_n > cap) ? -out_n : out_n;
}

/* Rewrite one run's local COO triples as packed global sort keys:
   keys[t] = (global_row << 32) | global_col, with local ids mapped
   through pmap when use_map is nonzero (pmap must then cover every local
   id).  Fuses the local→global gather with the key packing — one pass,
   no intermediate row/col arrays. */
API int64_t rk_pack_triples(
    int64_t n, const int32_t *rows, const int32_t *cols,
    const int64_t *pmap, int32_t use_map, int64_t *keys) {
    if (use_map) {
        for (int64_t t = 0; t < n; t++)
            keys[t] = (pmap[rows[t]] << 32) | pmap[cols[t]];
    } else {
        for (int64_t t = 0; t < n; t++)
            keys[t] = (((int64_t)rows[t]) << 32) | (int64_t)cols[t];
    }
    return 0;
}

/* Dedup globally sorted (row << 32 | col) triple keys into the canonical
   CSR pattern: indptr int32[n_rows+1], cols_out int32 with capacity
   n_tr.  One linear scan — the sort already interleaved every run's
   triples into canonical order.  Returns the deduped nnz. */
API int64_t rk_keys_to_csr(
    const int64_t *keys, int64_t n_tr, int64_t n_rows,
    int32_t *indptr, int32_t *cols_out) {
    int64_t nnz = 0;
    int64_t row = 0;
    int64_t prev = -1;
    indptr[0] = 0;
    for (int64_t i = 0; i < n_tr; i++) {
        int64_t k = keys[i];
        if (k == prev) continue;
        prev = k;
        int64_t r = k >> 32;
        while (row < r) indptr[++row] = (int32_t)nnz;
        cols_out[nnz++] = (int32_t)(k & 0xFFFFFFFF);
    }
    while (row < n_rows) indptr[++row] = (int32_t)nnz;
    return nnz;
}

/* Sum duplicate triple values into the canonical CSR's value array.

   The unsorted keys come as n_runs concatenated runs (run_ptr
   boundaries, one run per pack) with rows NON-DECREASING within each
   run: the SpGEMM emits rows ascending and the pack map is sorted, so
   mapping preserves the order.  Walk the global rows once, draining
   every run's prefix for the current row into the dense accumulator
   (all reads sequential, the accumulator cache-resident), then emit the
   row's values in the canonical column order rk_keys_to_csr fixed.

   Scratch (caller-pooled, any contents): acc int64[n_rows], mark
   int32[n_rows], cursor int64[n_runs]. */
API int64_t rk_fill_values(
    int64_t n_runs, const int64_t *run_ptr,
    const int64_t *keys, const int64_t *vals,
    int64_t n_rows,
    const int32_t *indptr, const int32_t *cols_out,
    int64_t *acc, int32_t *mark, int64_t *cursor,
    int64_t *vals_out) {
    memset(mark, 0xFF, (size_t)n_rows * sizeof(int32_t));
    for (int64_t u = 0; u < n_runs; u++) cursor[u] = run_ptr[u];
    for (int64_t r = 0; r < n_rows; r++) {
        for (int64_t u = 0; u < n_runs; u++) {
            int64_t s = cursor[u];
            const int64_t e = run_ptr[u + 1];
            for (; s < e && (keys[s] >> 32) == r; s++) {
                int64_t c = keys[s] & 0xFFFFFFFF;
                if (mark[c] != (int32_t)r) {
                    mark[c] = (int32_t)r;
                    acc[c] = vals[s];
                } else {
                    acc[c] += vals[s];
                }
            }
            cursor[u] = s;
        }
        for (int64_t k = indptr[r]; k < indptr[r + 1]; k++)
            vals_out[k] = acc[cols_out[k]];
    }
    return 0;
}

/* Triangle count of every edge of an undirected graph, given as its
   strict upper triangle in CSR with ascending, duplicate-free rows:
   tri[e] = |N(i) ∩ N(j)| for the e-th stored edge (i, j).

   Row i's entries are marked by position in pos (int32[n] scratch, any
   contents); for each of its edges (i, j), scanning row j then finds
   every triangle i < j < k exactly once, at its lowest edge, and the
   mark gives the position of (i, k) while the scan is at (j, k), so all
   three counters are bumped on the spot.  Work is the sum over edges
   (i, j) of row j's length; nothing the size of a wedge list exists.

   The input contract is checked on the way (row pointers up front,
   each row as it is reached): returns -1, with tri unspecified, on a
   malformed indptr or a row that is not strictly ascending inside
   (i, n); 0 otherwise. */
API int64_t rk_edge_triangles(
    int64_t n, int64_t nnz, const int32_t *indptr, const int32_t *indices,
    int32_t *pos, int64_t *tri) {
    if (indptr[0] != 0 || indptr[n] != nnz) return -1;
    for (int64_t i = 0; i < n; i++)
        if (indptr[i] > indptr[i + 1]) return -1;
    memset(pos, 0xFF, (size_t)n * sizeof(int32_t));
    memset(tri, 0, (size_t)nnz * sizeof(int64_t));
    for (int64_t i = 0; i < n; i++) {
        const int32_t row = indptr[i], row_end = indptr[i + 1];
        int64_t prev = i;
        for (int32_t e = row; e < row_end; e++) {
            if (indices[e] <= prev || indices[e] >= n) return -1;
            prev = indices[e];
            pos[prev] = e;
        }
        for (int32_t e = row; e < row_end; e++) {
            const int32_t j = indices[e];
            int64_t found = 0;
            for (int32_t q = indptr[j]; q < indptr[j + 1]; q++) {
                const int32_t p = pos[indices[q]];
                if (p >= 0) { tri[p]++; tri[q]++; found++; }
            }
            tri[e] += found;
        }
        for (int32_t e = row; e < row_end; e++) pos[indices[e]] = -1;
    }
    return 0;
}

/* Induced submatrix of an n-column CSR matrix (nnz stored entries) on
   the rows and columns listed in persons (ascending, inside [0, n)):
   local[c] is the position of global column c in persons, or -1.  One
   gather pass into outputs of capacity cap (the summed lengths of the
   listed rows always suffices).  Returns the nnz written, or -1 on a
   row pointer or column index out of range or an overrun of cap. */
API int64_t rk_induced_subgraph(
    int64_t n_sub, const int64_t *persons,
    int64_t n, int64_t nnz,
    const int32_t *indptr, const int32_t *indices, const int64_t *data,
    const int32_t *local, int64_t cap,
    int32_t *out_indptr, int32_t *out_indices, int64_t *out_data) {
    int64_t out = 0;
    out_indptr[0] = 0;
    for (int64_t r = 0; r < n_sub; r++) {
        const int64_t g = persons[r];
        if (indptr[g] < 0 || indptr[g + 1] > nnz) return -1;
        for (int32_t p = indptr[g]; p < indptr[g + 1]; p++) {
            if ((uint32_t)indices[p] >= (uint64_t)n) return -1;
            if (out >= cap) return -1;
            /* write unconditionally, keep only a mapped column: the
               keep/drop branch is unpredictable, this one never taken */
            const int32_t c = local[indices[p]];
            out_indices[out] = c;
            out_data[out] = data[p];
            out += (c >= 0);
        }
        out_indptr[r + 1] = (int32_t)out;
    }
    return out;
}

/* The two 20-byte rows the distributed model moves: an open spell as a
   rank hosts and migrates it (numpy MIGRANT_DTYPE, packed: the int64
   sits at offset 4) and a closed spell as it is logged (LOG_DTYPE). */
typedef struct __attribute__((packed)) {
    uint32_t person; int64_t spell_start; uint32_t activity; uint32_t place;
} rk_spell;
typedef struct {
    uint32_t start, stop, person, activity, place;
} rk_record;
typedef char rk_spell_is_20_bytes[sizeof(rk_spell) == 20 ? 1 : -1];
typedef char rk_record_is_20_bytes[sizeof(rk_record) == 20 ? 1 : -1];

/* One rank-hour of the distributed model: one scan over the n hosted
   rows of table, in hosted order.

   changed is the hour's row of the change plane (one byte per person);
   act / place are the week's (n_persons, width) grids and how the
   hour's column; owner maps a place to its rank.  A row whose person
   did not change stays.  A changer's open spell is closed into records
   (stop = hour), its next spell is read from the grids, and it stays if
   this rank owns the new place, else leaves.  Stayers are compacted to
   the front of table in hosted order; leavers are written to leavers
   grouped by destination rank, hosted order kept within a group.

   Outputs: out[0] = rows still hosted; out[1 .. n_ranks + 1] = group
   bounds (rank r receives leavers[out[1 + r] : out[2 + r]]).  records,
   leavers, moved (scratch rows) and dest (scratch int32) each hold n
   entries.  Returns the number of records written, or, writing nothing
   out of bounds, -1 for a person >= n_persons, -2 for a place >=
   n_places (hosted or in the grid), -3 for an owner outside
   [0, n_ranks), -4 for an open spell that does not start inside
   [0, hour); the table is unspecified after an error. */
API int64_t rk_rank_step(
    rk_spell *table, int64_t n, const uint8_t *changed,
    const uint8_t *act, const uint32_t *place, int64_t width, int64_t how,
    const int32_t *owner,
    int64_t n_persons, int64_t n_places, int64_t n_ranks, int64_t rank,
    int64_t hour,
    rk_record *records, rk_spell *leavers, rk_spell *moved, int32_t *dest,
    int64_t *out) {
    int64_t *bounds = out + 1;
    int64_t kept = 0, n_rec = 0, n_gone = 0;
    for (int64_t r = 0; r <= n_ranks; r++) bounds[r] = 0;
    for (int64_t i = 0; i < n; i++) {
        rk_spell row = table[i];
        if (row.person >= n_persons) return -1;
        if (changed[row.person]) {
            if (row.spell_start < 0 || row.spell_start >= hour) return -4;
            if (row.place >= n_places) return -2;
            rk_record *rec = &records[n_rec++];
            rec->start = (uint32_t)row.spell_start;
            rec->stop = (uint32_t)hour;
            rec->person = row.person;
            rec->activity = row.activity;
            rec->place = row.place;
            const size_t cell = (size_t)row.person * (size_t)width + (size_t)how;
            row.spell_start = hour;
            row.activity = act[cell];
            row.place = place[cell];
            if (row.place >= n_places) return -2;
            const int32_t to = owner[row.place];
            if (to < 0 || to >= n_ranks) return -3;
            if (to != rank) {
                moved[n_gone] = row;
                dest[n_gone++] = to;
                bounds[to + 1]++;
                continue;
            }
        } else if (kept == i) {
            kept++;
            continue;
        }
        table[kept++] = row;
    }
    /* counting sort of the leavers by destination: bounds[r] is the
       write cursor of group r during the scatter and ends on the
       group's end, i.e. the next group's start, so shift back after */
    for (int64_t r = 0; r < n_ranks; r++) bounds[r + 1] += bounds[r];
    for (int64_t k = 0; k < n_gone; k++) leavers[bounds[dest[k]]++] = moved[k];
    for (int64_t r = n_ranks; r > 0; r--) bounds[r] = bounds[r - 1];
    bounds[0] = 0;
    out[0] = kept;
    return n_rec;
}
"""
