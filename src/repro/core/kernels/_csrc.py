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

Two kernels combine or expand partial adjacencies (entry points in
:mod:`.masked`):

``rk_csr_sum``
    the k-way sum of canonical strict-upper CSR partials in one row-wise
    pass, cascading 2-way merges through two row-sized scratch buffers —
    the compiled twin of the pairwise ``csr + csr`` fold.
``rk_csr_mirror``
    a canonical strict-upper CSR expanded to its canonical symmetric form
    by one counting pass and one in-order scatter — the compiled twin of
    scipy's ``adj + adj.T``.

Three graph kernels serve the Section V analysis (entry points in
:mod:`.graph`):

``rk_edge_triangles``
    the masked product ``(A·A)∘A`` over a strict-upper CSR, one marked
    row against its neighbours' rows: the triangle count of every edge,
    with no wedge intermediate.
``rk_induced_sum``
    the sum of k strict-upper parts induced on a vertex list in one pass:
    each listed row gathered from every part through a global→local
    column map and the gathers merged as ``rk_csr_sum`` merges rows — the
    compiled twin of ``sum_partials([p[persons][:, persons] for p in
    parts])``.
``rk_upper_frontier``
    one breadth-first step over k strict-upper parts in one pass over the
    rows up to the highest marked vertex: out-neighbours from the marked
    rows, in-neighbours from every row holding a marked column — so an ego
    network needs neither the composed window nor its symmetric form.

One kernel serves the distributed model (entry point in
:mod:`repro.distrib.rankstep`):

``rk_rank_step``
    one rank-hour over a rank's hosted table: a single scan that reads
    the change plane row, closes the changers' spells as log records,
    opens their next spells from the hour's rows of the week, looks the
    new owner up,
    compacts stayers in place and buckets leavers by destination — the
    compiled twin of the numpy step below its call.

One kernel builds the schedule those steps read (entry point in
:mod:`repro.synthpop.schedule`):

``rk_week_fill``
    a week's ``activity`` / ``place`` grids from its blocks (school and
    work shifts, then the drawn outings, in the order the numpy body
    writes them), the forced home hours, the ``NO_PLACE`` refusal and the
    hour-major change plane, in one call — the compiled twin of
    ``WeeklyScheduleGenerator._fill_twin`` + ``WeekGrid.change_plane``.
"""

from __future__ import annotations

__all__ = ["C_SOURCE", "C_SOURCE_VERSION"]

#: bump when C_SOURCE changes incompatibly; part of the build-cache key
C_SOURCE_VERSION = 11

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

/* Merge two ascending rows into oc/ov, summing equal columns and
   dropping every zero value (as scipy's csr + csr does).  A merged
   strict-upper row holds at most room entries, so more means an input
   row was not ascending: -1.  Writes stay below index room + 1. */
static int64_t rk_merge_rows(
    const int32_t *ac, const int64_t *av, int64_t an,
    const int32_t *bc, const int64_t *bv, int64_t bn,
    int32_t *oc, int64_t *ov, int64_t room) {
    int64_t i = 0, j = 0, m = 0;
    while (i < an && j < bn) {
        if (m > room) return -1;
        /* branch-free: which side(s) the smaller column comes from is a
           coin flip on real rows, so it is masked in, never branched on;
           the add wraps like numpy's int64 add, never C's signed UB */
        const int32_t x = ac[i], y = bc[j];
        const uint64_t ta = x <= y, tb = y <= x;
        const int64_t v = (int64_t)(((uint64_t)av[i] & -ta)
                                    + ((uint64_t)bv[j] & -tb));
        oc[m] = ta ? x : y;
        ov[m] = v;
        m += (v != 0);
        i += ta;
        j += tb;
    }
    for (; i < an; i++) {
        if (m > room) return -1;
        oc[m] = ac[i];
        ov[m] = av[i];
        m += (av[i] != 0);
    }
    for (; j < bn; j++) {
        if (m > room) return -1;
        oc[m] = bc[j];
        ov[m] = bv[j];
        m += (bv[j] != 0);
    }
    return (m > room) ? -1 : m;
}

/* k-way sum of (n, n) partial adjacencies in canonical strict-upper CSR
   (int32 indptr/indices, int64 values), in one pass over the rows.

   ptrs holds 3k addresses — the k indptr arrays, then the k indices
   arrays, then the k value arrays — and nnzs each part's stored-entry
   count.  A row's non-empty part rows fold left to right by a cascade
   of 2-way merges through the scratch pairs (sc0, sv0) and (sc1, sv1),
   n slots each; the first row is merged in place, never copied, and
   the last merge writes straight into out_indices / out_data, whose
   capacity must be the summed nnzs (a merge never outgrows its inputs).
   Zero sums are dropped.

   The canonical flag is the caller's; the pointers are checked here, in
   the row loop: every indptr starts at 0, never decreases and ends at its
   part's nnz, and each non-empty part row starts above the diagonal and
   ends below n.  Returns the output nnz, or -1 — having read and written
   nothing out of bounds — on a violation. */
API int64_t rk_csr_sum(
    int64_t k, int64_t n, const void *const *ptrs, const int64_t *nnzs,
    int32_t *out_indptr, int32_t *out_indices, int64_t *out_data,
    int32_t *sc0, int64_t *sv0, int32_t *sc1, int64_t *sv1) {
    const int32_t *const *ip = (const int32_t *const *)ptrs;
    const int32_t *const *ix = (const int32_t *const *)(ptrs + k);
    const int64_t *const *dx = (const int64_t *const *)(ptrs + 2 * k);
    for (int64_t p = 0; p < k; p++)
        if (ip[p][0] != 0 || ip[p][n] != nnzs[p]) return -1;
    int64_t m = 0;
    for (int64_t i = 0; i < n; i++) {
        out_indptr[i] = (int32_t)m;
        int64_t last = -1;
        for (int64_t p = 0; p < k; p++) {
            const int32_t a = ip[p][i], b = ip[p][i + 1];
            if (b < a || b > nnzs[p]) return -1;
            if (b > a) {
                if (ix[p][a] <= i || ix[p][b - 1] >= n) return -1;
                last = p;
            }
        }
        const int32_t *ac = NULL;
        const int64_t *av = NULL;
        int64_t an = 0;
        int flip = 0;
        for (int64_t p = 0; p <= last; p++) {
            const int32_t a = ip[p][i], b = ip[p][i + 1];
            if (a == b) continue;
            if (ac == NULL && p != last) {  /* a later merge drops its zeros */
                ac = ix[p] + a;
                av = dx[p] + a;
                an = b - a;
                continue;
            }
            int32_t *oc = out_indices + m;
            int64_t *ov = out_data + m;
            if (p != last) {
                oc = flip ? sc1 : sc0;
                ov = flip ? sv1 : sv0;
                flip ^= 1;
            }
            an = rk_merge_rows(
                ac, av, an, ix[p] + a, dx[p] + a, b - a, oc, ov, n - 1 - i);
            if (an < 0) return -1;
            ac = oc;
            av = ov;
        }
        m += an;
    }
    out_indptr[n] = (int32_t)m;
    return m;
}

/* Canonical symmetric form of an (n, n) strict-upper CSR with ascending
   rows (int32 indptr/indices, int64 values): row i of the output is the
   mirrored entries (j, i), j ascending, followed by row i's own.  Zero
   values are dropped, as scipy's adj + adj.T drops them.

   A counting pass sizes every output row in cursor (int32[n] scratch);
   the scatter then walks the rows in order, so when row i is reached
   every mirrored entry it receives (from rows j < i) is already in
   place and its own entries are appended behind them.  Output capacity:
   twice the input nnz.  Every input entry is checked in the counting
   pass — sound indptr, columns strictly ascending inside (i, n) — and a
   violation returns -1 having written nothing out of bounds; otherwise
   the output nnz. */
API int64_t rk_csr_mirror(
    int64_t n, int64_t nnz,
    const int32_t *indptr, const int32_t *indices, const int64_t *data,
    int32_t *out_indptr, int32_t *out_indices, int64_t *out_data,
    int32_t *cursor) {
    if (indptr[0] != 0 || indptr[n] != nnz) return -1;
    memset(cursor, 0, (size_t)n * sizeof(int32_t));
    for (int64_t i = 0; i < n; i++) {
        const int32_t a = indptr[i], b = indptr[i + 1];
        if (b < a || b > nnz) return -1;
        int64_t prev = i;
        for (int32_t q = a; q < b; q++) {
            const int64_t c = indices[q];
            if (c <= prev || c >= n) return -1;
            prev = c;
            const int32_t live = data[q] != 0;
            cursor[i] += live;
            cursor[c] += live;
        }
    }
    out_indptr[0] = 0;
    for (int64_t i = 0; i < n; i++) {
        out_indptr[i + 1] = out_indptr[i] + cursor[i];
        cursor[i] = out_indptr[i];
    }
    for (int64_t i = 0; i < n; i++) {
        const int32_t a = indptr[i], b = indptr[i + 1];
        int32_t own = cursor[i];
        for (int32_t q = a; q < b; q++) {
            const int64_t v = data[q];
            if (v == 0) continue;
            const int32_t c = indices[q];
            out_indices[own] = c;
            out_data[own++] = v;
            const int32_t at = cursor[c]++;
            out_indices[at] = (int32_t)i;
            out_data[at] = v;
        }
    }
    return out_indptr[n];
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

/* The sum of k (n, n) strict-upper CSR parts (ptrs and nnzs laid out as
   for rk_csr_sum), induced on the rows and columns listed in persons
   (ascending, inside [0, n)): local[c] is the position of global column
   c in persons, or -1.  Each listed row is gathered from every part
   through local — an order-preserving relabelling, so every gathered
   row stays ascending above the diagonal — and the gathers are merged as
   rk_csr_sum merges rows, zero values and zero sums dropped: one pass,
   no per-part intermediate.  (fc, fv) hold one gathered part row and
   (sc0, sv0), (sc1, sv1) the running sum, n_sub slots each; out_indices
   / out_data have capacity cap (the summed lengths of the listed rows
   always suffices).  Part row pointers are checked as in rk_csr_sum and
   every column read must lie inside [0, n); returns the output nnz, or
   -1 — having read and written nothing out of bounds — on a violation, a
   gathered row starting on or below the diagonal or outgrowing the
   n_sub - 1 - r slots above it, or an overrun of cap. */
API int64_t rk_induced_sum(
    int64_t k, int64_t n, const void *const *ptrs, const int64_t *nnzs,
    int64_t n_sub, const int64_t *persons, const int32_t *local, int64_t cap,
    int32_t *out_indptr, int32_t *out_indices, int64_t *out_data,
    int32_t *fc, int64_t *fv, int32_t *sc0, int64_t *sv0,
    int32_t *sc1, int64_t *sv1) {
    const int32_t *const *ip = (const int32_t *const *)ptrs;
    const int32_t *const *ix = (const int32_t *const *)(ptrs + k);
    const int64_t *const *dx = (const int64_t *const *)(ptrs + 2 * k);
    for (int64_t p = 0; p < k; p++)
        if (ip[p][0] != 0 || ip[p][n] != nnzs[p]) return -1;
    int64_t m = 0;
    out_indptr[0] = 0;
    for (int64_t r = 0; r < n_sub; r++) {
        const int64_t g = persons[r], room = n_sub - 1 - r;
        int32_t *ac = sc0;
        int64_t *av = sv0;
        int64_t an = 0;
        for (int64_t p = 0; p < k; p++) {
            const int32_t a = ip[p][g], b = ip[p][g + 1];
            if (a < 0 || b < a || b > nnzs[p]) return -1;
            /* the row's first non-empty gather is the running sum itself */
            int32_t *tc = an ? fc : ac;
            int64_t *tv = an ? fv : av;
            int64_t tn = 0;
            for (int32_t q = a; q < b; q++) {
                if ((uint32_t)ix[p][q] >= (uint64_t)n) return -1;
                if (tn > room) return -1;
                const int32_t c = local[ix[p][q]];
                tc[tn] = c;
                tv[tn] = dx[p][q];
                tn += (c >= 0) & (dx[p][q] != 0);
            }
            if (tn == 0) continue;
            if (tc[0] <= r) return -1;
            if (an == 0) {
                an = tn;
                continue;
            }
            int32_t *oc = (ac == sc0) ? sc1 : sc0;
            int64_t *ov = (ac == sc0) ? sv1 : sv0;
            an = rk_merge_rows(ac, av, an, fc, fv, tn, oc, ov, room);
            if (an < 0) return -1;
            ac = oc;
            av = ov;
        }
        if (m + an > cap) return -1;
        memcpy(out_indices + m, ac, (size_t)an * sizeof(int32_t));
        memcpy(out_data + m, av, (size_t)an * sizeof(int64_t));
        m += an;
        out_indptr[r + 1] = (int32_t)m;
    }
    return m;
}

/* One breadth-first step over k strict-upper (n, n) CSR parts (ptrs and
   nnzs laid out as for rk_csr_sum): near[v] = 1 for every v adjacent, in
   any part, to a vertex with mark[v] != 0.  near is only ever set, never
   cleared.

   An edge (i, c), i < c, is stored once, in row i, so a marked row's
   columns are its out-neighbours, and a row holding a marked column is
   an in-neighbour of it.  A row above hi (the highest marked id, < n)
   can be neither, so only rows 0..hi are read, each part's row pointers
   checked as in rk_csr_sum and every entry read held strictly inside
   (i, n).  Rows must be ascending (the canonical flag is the caller's):
   an unmarked row's scan stops at its first marked column or its first
   column above hi, and a row already in near is not scanned.  Returns 0,
   or -1 — having read and written nothing out of bounds — on a
   violation. */
API int64_t rk_upper_frontier(
    int64_t k, int64_t n, const void *const *ptrs, const int64_t *nnzs,
    const uint8_t *mark, int64_t hi, uint8_t *near) {
    const int32_t *const *ip = (const int32_t *const *)ptrs;
    const int32_t *const *ix = (const int32_t *const *)(ptrs + k);
    if (hi < 0 || hi >= n) return -1;
    for (int64_t p = 0; p < k; p++)
        if (ip[p][0] != 0 || ip[p][n] != nnzs[p]) return -1;
    for (int64_t i = 0; i <= hi; i++) {
        const uint64_t room = (uint64_t)(n - i - 1);
        for (int64_t p = 0; p < k; p++) {
            const int32_t a = ip[p][i], b = ip[p][i + 1];
            if (b < a || b > nnzs[p]) return -1;
            const int32_t *col = ix[p];
            if (mark[i]) {
                uint8_t held = 0;
                for (int32_t q = a; q < b; q++) {
                    const int64_t c = col[q];
                    if ((uint64_t)(c - i - 1) >= room) return -1;
                    near[c] = 1;
                    held |= mark[c];
                }
                near[i] |= held != 0;
            } else if (!near[i]) {
                for (int32_t q = a; q < b; q++) {
                    const int64_t c = col[q];
                    if ((uint64_t)(c - i - 1) >= room) return -1;
                    if (c > hi) break;  /* ascending: no marked column left */
                    if (mark[c]) {
                        near[i] = 1;
                        break;
                    }
                }
            }
        }
    }
    return 0;
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

   changed, act and place are the hour's rows of the week, hour-major:
   one byte of the change plane, the activity (uint8) and the place
   (uint32) per person; owner maps a place to its rank.  A row whose person
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
    const uint8_t *act, const uint32_t *place, const int32_t *owner,
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
            row.spell_start = hour;
            row.activity = act[row.person];
            row.place = place[row.person];
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

/* x[0..7]: eight rows of eight bytes; on return byte c of x[r] is what
   byte r of x[c] was (three rounds of block swaps) */
static void rk_transpose8(uint64_t x[8]) {
    static const uint64_t mask[3] = {
        0x00FF00FF00FF00FFull, 0x0000FFFF0000FFFFull, 0x00000000FFFFFFFFull};
    for (int level = 0; level < 3; level++) {
        const int step = 1 << level, shift = 8 << level;
        for (int r = 0; r < 8; r++) {
            if (r & step) continue;
            const uint64_t t = ((x[r] >> shift) ^ x[r + step]) & mask[level];
            x[r + step] ^= t;
            x[r] ^= t << shift;
        }
    }
}

#define RK_DAY_HOURS 24
#define RK_WEEK_HOURS (7 * RK_DAY_HOURS)
#define RK_NO_PLACE 0xFFFFFFFFu
#define RK_TILE 64

/* One week of schedules, one person at a time.

   Person p's row of the (n, 168) act (uint8) / place (uint32) grids
   starts at home: activity 0 at household[p].  Then the entries naming
   p are written in table order: entry k puts (what[k], where[k]) on
   hours [start[k], start[k] + dur[k]) of the day, clipped to the day, on
   every day d whose bit is set in days[k].  Days never overlap, so a
   later entry overwrites an earlier one exactly where the numpy body's
   later block does.  Then hours 0-6 and 23 of every day go home, and the
   row is written out once.

   plane, when given, is the hour-major (168, n) change plane:
   plane[h * n + p] is set where (act, place) of person p at hour h
   differs from hour h - 1; row 0 compares with prev_act[p] /
   prev_place[p] (the previous week's last hour) and is all zero
   without them.  first (n + 1) and order (n_entries) are scratch.

   Returns 0, or -1 when a cell holds NO_PLACE, -2 for an entry whose
   person is outside [0, n), -3 for more entries than int32 counts; the
   grids are unspecified after an error. */
API int64_t rk_week_fill(
    int64_t n, const uint32_t *household, int64_t n_entries,
    const int32_t *who, const uint8_t *days, const uint8_t *start,
    const uint8_t *dur, const uint8_t *what, const uint32_t *where,
    const uint8_t *prev_act, const uint32_t *prev_place,
    uint8_t *act, uint32_t *place, uint8_t *plane,
    int32_t *first, int32_t *order) {
    /* a stable counting sort of the entries by person: person p's are
       order[first[p - 1] .. first[p]) once the scatter has run */
    if (n_entries > INT32_MAX) return -3;
    for (int64_t p = 0; p <= n; p++) first[p] = 0;
    for (int64_t k = 0; k < n_entries; k++) {
        if (who[k] < 0 || who[k] >= n) return -2;
        first[who[k] + 1]++;
    }
    for (int64_t p = 0; p < n; p++) first[p + 1] += first[p];
    for (int64_t k = 0; k < n_entries; k++) order[first[who[k]]++] = (int32_t)k;
    uint8_t a[RK_WEEK_HOURS];
    uint32_t q[RK_WEEK_HOURS];
    /* the change columns of RK_TILE persons, written into the plane as
       8 x 8 byte blocks once the tile is full: one plane row per hour
       and person would touch 168 pages a person */
    uint8_t tile[RK_TILE][RK_WEEK_HOURS];
    int64_t e = 0;
    for (int64_t p = 0; p < n; p++) {
        const uint32_t home = household[p];
        memset(a, 0, sizeof a);
        for (int h = 0; h < RK_WEEK_HOURS; h++) q[h] = home;
        for (; e < first[p]; e++) {
            const int64_t k = order[e];
            const int lo = start[k];
            const int hi = lo + dur[k] < RK_DAY_HOURS ? lo + dur[k] : RK_DAY_HOURS;
            for (unsigned m = days[k] & 0x7F; m; m &= m - 1) {
                const int at = __builtin_ctz(m) * RK_DAY_HOURS;
                for (int h = at + lo; h < at + hi; h++) {
                    a[h] = what[k];
                    q[h] = where[k];
                }
            }
        }
        for (int d = 0; d < 7; d++) {
            for (int h = d * RK_DAY_HOURS; h < d * RK_DAY_HOURS + 7; h++) {
                a[h] = 0;
                q[h] = home;
            }
            a[d * RK_DAY_HOURS + 23] = 0;
            q[d * RK_DAY_HOURS + 23] = home;
        }
        uint32_t missing = 0;
        for (int h = 0; h < RK_WEEK_HOURS; h++) missing |= q[h] == RK_NO_PLACE;
        if (missing) return -1;
        memcpy(act + p * RK_WEEK_HOURS, a, sizeof a);
        memcpy(place + p * RK_WEEK_HOURS, q, sizeof q);
        if (plane == 0) continue;
        const int64_t j = p % RK_TILE;
        uint8_t *changed = tile[j];
        changed[0] = prev_act != 0 && (a[0] != prev_act[p] || q[0] != prev_place[p]);
        /* branch-free, so it vectorizes */
        for (int h = 1; h < RK_WEEK_HOURS; h++)
            changed[h] = ((a[h] ^ a[h - 1]) | (q[h] ^ q[h - 1])) != 0;
        if (j == RK_TILE - 1) {
            for (int i = 0; i < RK_TILE; i += 8) {
                for (int h = 0; h < RK_WEEK_HOURS; h += 8) {
                    uint64_t x[8];
                    for (int r = 0; r < 8; r++) memcpy(&x[r], &tile[i + r][h], 8);
                    rk_transpose8(x);
                    for (int r = 0; r < 8; r++)
                        memcpy(plane + (h + r) * n + p - j + i, &x[r], 8);
                }
            }
        } else if (p == n - 1) {
            for (int h = 0; h < RK_WEEK_HOURS; h++)
                for (int64_t i = 0; i <= j; i++) plane[h * n + p - j + i] = tile[i][h];
        }
    }
    return 0;
}
"""
