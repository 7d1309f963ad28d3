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
    counting transpose (rows ascending per column), feeding the SpGEMM.
``rk_masked_spgemm``
    row-wise Gustavson product restricted to the strict upper triangle of
    ``(Y·diag(w))·Yᵀ`` over one band of rows, writing each row's triples
    as packed int32 band keys ``(global_row - band_start) << cbits |
    global_col`` plus int64 values straight into caller-pooled buffers
    (the local→global gather fused in), and stopping before the first row
    that would overrun them.  Per-column cursors, advanced as rows
    commit, find each row's later partners.
``rk_csc_rewind``
    take committed rows back from the SpGEMM's column cursors, when a
    later pack cut the band short of them.
``rk_keys_to_csr``
    dedup one band's sorted keys into its rows of the canonical CSR
    pattern in one linear scan.
``rk_fill_values``
    sum one band's duplicate triple values into its canonical values by
    row-merging the runs through a dense accumulator (every pack's
    triples arrive row-ascending, so no sort-by-row pass exists
    anywhere: the one ``np.sort`` over a band's keys replaces it).

Together the last three are the compiled twin of
``coo_matrix(...).tocsr()`` over the concatenated parts, one band of
person rows at a time.

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

``rk_lockstep_hour``
    one hour of every rank a process hosts: for each rank, one scan of
    its segment of the hosted table that reads the change plane row,
    closes the changers' spells as log records, opens their next spells
    from the hour's rows of the week, looks the new owner up and compacts
    stayers in place; then each rank's records appended to its log cache
    (or left for the caller when they do not fit), the leavers grouped by
    destination and the local ones appended to their destination's
    segment in source-rank order, and each rank's sent messages and bytes
    metered — the compiled twin of the numpy hour below its call.  It
    takes one preallocated argument block (addresses and sizes resolved
    when the week is bound or the table grows).

One kernel builds the schedule those steps read (entry point in
:mod:`repro.synthpop.schedule`):

``rk_week_fill``
    a week's hour-major ``(168, n)`` ``activity`` / ``place`` rows from
    its blocks (school and work shifts, then the drawn outings, in the
    order the numpy body writes them), the forced home hours, the
    ``NO_PLACE`` refusal and the hour-major change plane, in one call —
    the compiled twin of ``WeeklyScheduleGenerator._fill_twin`` +
    ``WeekGrid.change_plane``.
"""

from __future__ import annotations

__all__ = ["C_SOURCE", "C_SOURCE_VERSION"]

#: bump when C_SOURCE changes incompatibly; part of the build-cache key
C_SOURCE_VERSION = 14

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

   Outputs, int32 (the caller guarantees places, window offsets and 2n
   fit; capacity 2n for the col_* arrays, n_rec+1 for place_*): lo/hi per
   record (column ranges), col_place/col_start/col_weight per column,
   place_ids and place_first_col per place.  out_counts receives
   {n_cols, n_places}.  Returns 0. */
API int64_t rk_boundary_scan(
    const uint64_t *keys, int64_t n2, int64_t n_rec,
    int32_t tbits, int32_t ibits,
    int32_t *lo, int32_t *hi,
    int32_t *col_place, int32_t *col_start, int32_t *col_weight,
    int32_t *place_ids, int32_t *place_first_col,
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
                place_ids[n_places] = (int32_t)p;
                place_first_col[n_places] = (int32_t)(u - n_places);
                n_places++;
            } else {
                /* same place: the previous boundary opens the segment
                   [prev_time, t) whose column is (u-1) - place_ordinal */
                int64_t c = u - n_places;
                col_place[c] = (int32_t)p;
                col_start[c] = (int32_t)prev_time;
                col_weight[c] = (int32_t)(t - prev_time);
            }
            prev_place = p;
            prev_time = t;
        }
        col = u - (n_places - 1);
        if (idx < n_rec) lo[idx] = (int32_t)col;
        else             hi[idx - n_rec] = (int32_t)col;
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
    int64_t n, const int64_t *person, const int32_t *lo, const int32_t *hi,
    int32_t lbits, int64_t *keys) {
    for (int64_t r = 0; r < n; r++)
        keys[r] = (person[r] << (2 * lbits)) | ((int64_t)lo[r] << lbits)
                | (int64_t)(hi[r] - lo[r]);
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
   sorted-unique person ids.  col_counts (int32, n_cols + 1 slots,
   zeroed here) receives per-column presence counts via range start/end deltas
   — an overlap charges a compensating delta over [lo, min(h, cur_end))
   — resolved by one prefix sum, instead of an increment per emitted
   entry.  indptr needs n+1 slots, persons n, cols capacity cap.
   out_counts receives {nnz, n_rows}.  Returns 0, or -nnz when nnz
   exceeds cap (the scan keeps counting without writing so the caller
   can grow the pooled buffer and retry). */
API int64_t rk_ranges_to_csr(
    const int64_t *keys, int64_t n, int32_t lbits, int64_t n_cols,
    int32_t *indptr, int32_t *cols, int64_t *persons, int32_t *col_counts,
    int64_t cap, int64_t *out_counts) {
    memset(col_counts, 0, (size_t)(n_cols + 1) * sizeof(int32_t));
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
    int32_t run = 0;
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
    const int32_t *lo, const int32_t *hi, const int64_t *person,
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
   would).  col_counts (int32, n_cols slots, zeroed here) receives
   per-column presence counts.  indptr needs n_rec+1 slots, persons n_rec, cols
   capacity n_dup.  out_counts receives {nnz, n_rows}.  Returns 0. */
API int64_t rk_entries_to_csr(
    const uint64_t *keys, int64_t n_dup, int64_t n_cols,
    int32_t *indptr, int32_t *cols, int64_t *persons, int32_t *col_counts,
    int64_t *out_counts) {
    memset(col_counts, 0, (size_t)n_cols * sizeof(int32_t));
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
   column.  cp has n_cols+1 slots (the pattern's nnz fits int32, so do
   its offsets); ri capacity nnz. */
API int64_t rk_csr_to_csc(
    int64_t n_rows, int64_t n_cols,
    const int32_t *indptr, const int32_t *cols,
    int32_t *cp, int32_t *ri) {
    int64_t nnz = indptr[n_rows];
    memset(cp, 0, (size_t)(n_cols + 1) * sizeof(int32_t));
    for (int64_t p = 0; p < nnz; p++) cp[cols[p] + 1]++;
    for (int64_t c = 0; c < n_cols; c++) cp[c + 1] += cp[c];
    /* walk rows in order so each column receives its row indices
       ascending; cp temporarily holds write cursors */
    for (int64_t i = 0; i < n_rows; i++)
        for (int64_t p = indptr[i]; p < indptr[i + 1]; p++)
            ri[cp[cols[p]]++] = (int32_t)i;
    /* restore cp: cursors are now each column's end = next column's start */
    for (int64_t c = n_cols; c > 0; c--) cp[c] = cp[c - 1];
    cp[0] = 0;
    return nnz;
}

/* Masked upper-triangular weighted SpGEMM over one band of rows: the
   strict upper triangle of (Y diag(w) Y^T) for local rows [a, b), each
   row's triples emitted as packed band keys
       keys[t] = (pmap[i] - r0) << cbits | pmap[j]
   (global row relative to the band start r0, global column) with their
   summed weights in vals; unsorted within a row, rows ascending.

   Y comes in as its CSR pattern (indptr/cols) plus the CSC from
   rk_csr_to_csc (cp/ri, rows ascending per column).  Row-wise Gustavson
   over the upper pairs only: for each row i and each column c
   containing i, every later row j in c gains w[c] collocated hours with
   i.  cur[c] is the position of the next row to visit in column c, so
   the later rows are the suffix past cur[c]: the caller starts it at
   cp[c] and asks for rows in ascending order; a committed row advances
   its columns' cursors, and rk_csc_rewind takes rows back.

   Scratch (caller-pooled): acc int64[nr] and touch int32[nr] (any
   contents); mark int64[nr] holds stamps, row i stamping stamp + i, so
   a caller whose stamps never repeat (a row recomputed included) fills
   mark once per fold instead of once per call.  Rows are
   all-or-nothing: the scan stops before the first row whose triples
   would overrun cap, its cursors unmoved.  Returns the rows done;
   *out_n receives the triples written. */
API int64_t rk_masked_spgemm(
    int64_t a, int64_t b,
    const int32_t *indptr, const int32_t *cols,
    const int32_t *cp, const int32_t *ri, int32_t *cur, const int32_t *w,
    const int64_t *pmap, int64_t r0, int32_t cbits,
    int64_t *acc, int64_t *mark, int64_t stamp, int32_t *touch,
    int32_t *keys, int64_t *vals, int64_t cap, int64_t *out_n) {
    int64_t n = 0;
    int64_t i = a;
    for (; i < b; i++) {
        const int64_t st = stamp + i;
        int64_t nt = 0;
        for (int64_t p = indptr[i]; p < indptr[i + 1]; p++) {
            const int32_t c = cols[p];
            const int64_t wc = w[c];
            for (int64_t q = cur[c] + 1; q < cp[c + 1]; q++) {
                int32_t j = ri[q];
                if (mark[j] != st) {
                    mark[j] = st;
                    acc[j] = wc;
                    touch[nt++] = j;
                } else {
                    acc[j] += wc;
                }
            }
        }
        if (n + nt > cap) break;
        for (int64_t p = indptr[i]; p < indptr[i + 1]; p++) cur[cols[p]]++;
        const int32_t row = (int32_t)((pmap[i] - r0) << cbits);
        for (int64_t t = 0; t < nt; t++) {
            int32_t j = touch[t];
            keys[n] = row | (int32_t)pmap[j];
            vals[n] = acc[j];
            n++;
        }
    }
    *out_n = n;
    return i - a;
}

/* Take the committed rows [a, b) back from rk_masked_spgemm's column
   cursors, so the next call may start at row a again. */
API int64_t rk_csc_rewind(
    int64_t a, int64_t b, const int32_t *indptr, const int32_t *cols,
    int32_t *cur) {
    for (int64_t p = indptr[a]; p < indptr[b]; p++) cur[cols[p]]--;
    return 0;
}

/* Dedup one band's sorted keys into its rows of the canonical CSR
   pattern: cols receives the distinct columns (it may alias keys: a
   column is written at or below the key it came from), indptr the
   band's n_rows row ends past indptr[0], the band's offset into the
   output, which the caller set.  One linear scan — the sort already
   interleaved every run's triples into canonical order.  Returns the
   band's distinct pairs. */
API int64_t rk_keys_to_csr(
    const int32_t *keys, int64_t n_tr, int64_t n_rows, int32_t cbits,
    int32_t *indptr, int32_t *cols) {
    const int32_t cmask = (int32_t)((1LL << cbits) - 1);
    const int32_t base = indptr[0];
    int64_t nnz = 0;
    int64_t row = 0;
    int64_t prev = -1;
    for (int64_t i = 0; i < n_tr; i++) {
        int32_t k = keys[i];
        if (k == prev) continue;
        prev = k;
        int64_t r = k >> cbits;
        while (row < r) indptr[++row] = (int32_t)(base + nnz);
        cols[nnz++] = k & cmask;
    }
    while (row < n_rows) indptr[++row] = (int32_t)(base + nnz);
    return nnz;
}

/* Sum one band's duplicate triple values into its canonical values.

   The unsorted keys come as n_runs runs [run_lo[u], run_hi[u]), one per
   unit, with rows NON-DECREASING within each run: the SpGEMM emits rows
   ascending and the person map is sorted.  Walk the band's rows once,
   draining every run's prefix for the current row into the dense
   accumulator (all reads sequential, the accumulator cache-resident),
   then emit the row's values in the canonical column order
   rk_keys_to_csr fixed.  Keys of rows past n_rows (a run cut short by a
   later unit's stop) are left undrained.

   indptr / cols are the band's (indptr[0] its output offset), vals_out
   receives the band's values.  Scratch (caller-pooled): acc
   int64[n_persons], cursor int64[n_runs]; mark int32[n_persons] holds
   stamps r0 + row, distinct for every row of a fold, so the caller
   fills it once per fold. */
API int64_t rk_fill_values(
    int64_t n_runs, const int64_t *run_lo, const int64_t *run_hi,
    const int32_t *keys, const int64_t *vals,
    int64_t n_rows, int32_t cbits, int64_t r0,
    const int32_t *indptr, const int32_t *cols,
    int64_t *acc, int32_t *mark, int64_t *cursor,
    int64_t *vals_out) {
    const int32_t cmask = (int32_t)((1LL << cbits) - 1);
    const int64_t base = indptr[0];
    for (int64_t u = 0; u < n_runs; u++) cursor[u] = run_lo[u];
    for (int64_t r = 0; r < n_rows; r++) {
        const int32_t st = (int32_t)(r0 + r);
        for (int64_t u = 0; u < n_runs; u++) {
            int64_t s = cursor[u];
            const int64_t e = run_hi[u];
            for (; s < e && (keys[s] >> cbits) == r; s++) {
                int32_t c = keys[s] & cmask;
                if (mark[c] != st) {
                    mark[c] = st;
                    acc[c] = vals[s];
                } else {
                    acc[c] += vals[s];
                }
            }
            cursor[u] = s;
        }
        for (int64_t k = indptr[r] - base; k < indptr[r + 1] - base; k++)
            vals_out[k] = acc[cols[k]];
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

#define RK_DAY_HOURS 24
#define RK_WEEK_HOURS (7 * RK_DAY_HOURS)
#define RK_NO_PLACE 0xFFFFFFFFu
#define RK_TILE 64

/* One rank-hour of the distributed model: one scan over the n hosted
   rows of table, in hosted order, for rank `rank` of n_ranks.

   changed, act and place are row hour % 168 of the week, hour-major:
   the change plane (one byte a person), activity and place of every
   person.  owner maps a place to its rank.  A row whose person did not
   change stays.  A changer's open spell is closed into records (stop =
   hour), its next spell is read from the week's rows, and it stays if
   `rank` owns the new place, else leaves: its row goes to moved and its
   destination to dest, hosted order kept.  Stayers are compacted to the
   front of table in hosted order.

   Sets *kept (rows still hosted) and *gone (leavers) and returns the
   number of records written, or, writing nothing out of bounds, -1 for a
   person >= n_persons, -2 for a place >= n_places (hosted or in the
   week), -3 for an owner outside [0, n_ranks), -4 for an open spell that
   does not start inside [0, hour); the table is unspecified after an
   error. */
static int64_t rk_scan_rank(
    rk_spell *table, int64_t n, const uint8_t *changed, const uint8_t *act,
    const uint32_t *place, const int32_t *owner, int64_t n_persons,
    int64_t n_places, int64_t n_ranks, int64_t rank, int64_t hour,
    rk_record *records, rk_spell *moved, int32_t *dest,
    int64_t *kept_out, int64_t *gone_out) {
    int64_t kept = 0, n_rec = 0, n_gone = 0;
    for (int64_t i = 0; i < n; i++) {
        /* the hour's rows were last written when the week was built:
           fetch the cells of the person 16 rows ahead, so the reads of
           a changer's plane, activity and place cells hit the cache
           (the row ahead is not yet compacted over) */
        if (i + 16 < n) {
            const uint32_t ahead = table[i + 16].person;
            if (ahead < n_persons) {
                __builtin_prefetch(changed + ahead);
                __builtin_prefetch(act + ahead);
                __builtin_prefetch(place + ahead);
            }
        }
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
                continue;
            }
        } else if (kept == i) {
            kept++;
            continue;
        }
        table[kept++] = row;
    }
    *kept_out = kept;
    *gone_out = n_gone;
    return n_rec;
}

/* The slots of rk_lockstep_hour's argument block (int64 each; an address
   is stored as an integer), and the fields of each local rank's row in
   its rank table RANKS.  The caller fills the block when the table is
   allocated or the week turns and rewrites only HOUR per call; the
   kernel writes the OUT_* slots, the rank rows and, when it lays the
   table out again, swaps TABLE and SPARE. */
enum {
    RK_HOUR_TABLE, RK_HOUR_SPARE, RK_HOUR_CAPACITY, RK_HOUR_RANKS,
    RK_HOUR_FIRST, RK_HOUR_N_LOCAL, RK_HOUR_PLANE, RK_HOUR_ACT,
    RK_HOUR_PLACE, RK_HOUR_OWNER, RK_HOUR_N_PERSONS, RK_HOUR_N_PLACES,
    RK_HOUR_N_RANKS, RK_HOUR_HOUR, RK_HOUR_RECORDS, RK_HOUR_LEAVERS,
    RK_HOUR_MOVED, RK_HOUR_DEST, RK_HOUR_BOUNDS, RK_HOUR_MARK,
    RK_HOUR_SPILLS, RK_HOUR_OUT_RECORDS, RK_HOUR_OUT_GONE,
    RK_HOUR_OUT_REMOTE, RK_HOUR_OUT_RANK, RK_HOUR_SLOTS
};
enum {
    RK_RANK_BASE, RK_RANK_CAP, RK_RANK_COUNT, RK_RANK_REC_LO, RK_RANK_N_REC,
    RK_RANK_LEFT, RK_RANK_SINK, RK_RANK_SINK_CAP, RK_RANK_FILL,
    RK_RANK_CHANGES, RK_RANK_MSGS, RK_RANK_BYTES, RK_RANK_FIELDS
};

/* One hour of every rank a process hosts: ranks FIRST .. FIRST +
   N_LOCAL - 1 of N_RANKS, each a segment of one table.

   TABLE holds CAPACITY rows; local rank i hosts the COUNT rows at BASE
   of its row in RANKS, and may grow to CAP rows there.  Each rank is
   scanned in turn (rk_scan_rank, over row HOUR % 168 of PLANE, ACT and
   PLACE, the week hour-major, and OWNER), its records written to
   RECORDS from REC_LO on (N_REC of them, rank after rank) and its LEFT
   leavers to MOVED / DEST.  Then:

   - records: a rank whose SINK (an address of (k, 5) uint32 rows; 0:
     none) has room, FILL + N_REC < SINK_CAP, gets them appended there
     and FILL advanced; every other rank with records is listed in
     SPILLS, its records left in RECORDS for the caller.  The return
     value is the number listed.
   - leavers: counted by destination rank (BOUNDS, N_RANKS + 1 of them:
     rank d's group is rows BOUNDS[d] .. BOUNDS[d + 1] of the hour's
     leavers in destination order, source rank and hosted order kept
     within a group).  A hosted destination's group is appended to its
     segment (stayers first, then arrivals by source rank, as an alltoall
     receive appends them); when one does not fit, every rank's stayers
     are first copied into SPARE, the slack spread evenly again, and
     TABLE and SPARE swap.  The other groups are written to LEAVERS at
     their bounds for the caller (OUT_REMOTE rows in all).
   - traffic: each rank's MSGS counts the destinations it sent to (MARK,
     N_RANKS tags zeroed once by the caller, tells them apart: a tag is
     unique to an hour and a rank) and BYTES the 20-byte rows it sent;
     CHANGES sums its records.

   OUT_RECORDS and OUT_GONE are the hour's records and leavers.  RECORDS,
   LEAVERS, MOVED and DEST hold CAPACITY entries.  Returns the number of
   ranks listed in SPILLS, or, writing nothing out of bounds, the scan's
   refusal (-1 .. -4, OUT_RANK naming the rank) or -5 when the group's
   agents do not fit in CAPACITY rows (or SPARE is 0 where one is
   needed). */
API int64_t rk_lockstep_hour(int64_t *args) {
    const int64_t capacity = args[RK_HOUR_CAPACITY];
    int64_t *ranks = (int64_t *)(uintptr_t)args[RK_HOUR_RANKS];
    const int64_t first = args[RK_HOUR_FIRST];
    const int64_t n_local = args[RK_HOUR_N_LOCAL];
    const int64_t n_persons = args[RK_HOUR_N_PERSONS];
    const int64_t n_ranks = args[RK_HOUR_N_RANKS];
    const int64_t hour = args[RK_HOUR_HOUR];
    const int64_t row0 = (hour % RK_WEEK_HOURS) * n_persons;
    const uint8_t *changed = (const uint8_t *)(uintptr_t)args[RK_HOUR_PLANE] + row0;
    const uint8_t *act = (const uint8_t *)(uintptr_t)args[RK_HOUR_ACT] + row0;
    const uint32_t *place = (const uint32_t *)(uintptr_t)args[RK_HOUR_PLACE] + row0;
    const int32_t *owner = (const int32_t *)(uintptr_t)args[RK_HOUR_OWNER];
    rk_spell *table = (rk_spell *)(uintptr_t)args[RK_HOUR_TABLE];
    rk_record *records = (rk_record *)(uintptr_t)args[RK_HOUR_RECORDS];
    rk_spell *leavers = (rk_spell *)(uintptr_t)args[RK_HOUR_LEAVERS];
    rk_spell *moved = (rk_spell *)(uintptr_t)args[RK_HOUR_MOVED];
    int32_t *dest = (int32_t *)(uintptr_t)args[RK_HOUR_DEST];
    int64_t *bounds = (int64_t *)(uintptr_t)args[RK_HOUR_BOUNDS];
    int64_t *mark = (int64_t *)(uintptr_t)args[RK_HOUR_MARK];
    int64_t *spills = (int64_t *)(uintptr_t)args[RK_HOUR_SPILLS];
    int64_t n_rec = 0, n_gone = 0, n_spills = 0;
    for (int64_t i = 0; i < n_local; i++) {
        int64_t *me = ranks + i * RK_RANK_FIELDS;
        const int64_t rank = first + i;
        int64_t kept = 0, gone = 0;
        const int64_t k = rk_scan_rank(
            table + me[RK_RANK_BASE], me[RK_RANK_COUNT], changed, act, place,
            owner, n_persons, args[RK_HOUR_N_PLACES], n_ranks, rank, hour,
            records + n_rec, moved + n_gone, dest + n_gone, &kept, &gone);
        if (k < 0) {
            args[RK_HOUR_OUT_RANK] = rank;
            return k;
        }
        /* one message per destination this rank sends to this hour */
        const int64_t tag = hour * n_ranks + rank + 1;
        for (int64_t j = n_gone; j < n_gone + gone; j++) {
            if (mark[dest[j]] != tag) {
                mark[dest[j]] = tag;
                me[RK_RANK_MSGS]++;
            }
        }
        me[RK_RANK_BYTES] += gone * (int64_t)sizeof(rk_spell);
        me[RK_RANK_COUNT] = kept;
        me[RK_RANK_REC_LO] = n_rec;
        me[RK_RANK_N_REC] = k;
        me[RK_RANK_LEFT] = gone;
        me[RK_RANK_CHANGES] += k;
        if (k) {
            rk_record *sink = (rk_record *)(uintptr_t)me[RK_RANK_SINK];
            if (sink && me[RK_RANK_FILL] + k < me[RK_RANK_SINK_CAP]) {
                memcpy(sink + me[RK_RANK_FILL], records + n_rec, k * sizeof(rk_record));
                me[RK_RANK_FILL] += k;
            } else {
                spills[n_spills++] = i;
            }
        }
        n_rec += k;
        n_gone += gone;
    }
    args[RK_HOUR_OUT_RECORDS] = n_rec;
    args[RK_HOUR_OUT_GONE] = n_gone;
    args[RK_HOUR_OUT_REMOTE] = 0;
    if (!n_gone) return n_spills;
    /* the leavers by destination: bounds[d] becomes group d's start */
    for (int64_t d = 0; d <= n_ranks; d++) bounds[d] = 0;
    for (int64_t j = 0; j < n_gone; j++) bounds[dest[j] + 1]++;
    for (int64_t d = 0; d < n_ranks; d++) bounds[d + 1] += bounds[d];
    const int64_t *arrive = bounds + first;
    int64_t local = 0, total = 0, fits = 1;
    for (int64_t i = 0; i < n_local; i++) {
        const int64_t *me = ranks + i * RK_RANK_FIELDS;
        const int64_t a = arrive[i + 1] - arrive[i];
        local += a;
        total += me[RK_RANK_COUNT] + a;
        fits &= me[RK_RANK_COUNT] + a <= me[RK_RANK_CAP];
    }
    args[RK_HOUR_OUT_REMOTE] = n_gone - local;
    if (!fits) {
        /* every rank's stayers into the spare table, each segment sized
           for its arrivals plus an even share of the slack */
        rk_spell *spare = (rk_spell *)(uintptr_t)args[RK_HOUR_SPARE];
        if (!spare || total > capacity) return -5;
        const int64_t share = (capacity - total) / n_local;
        int64_t at = 0;
        for (int64_t i = 0; i < n_local; i++) {
            int64_t *me = ranks + i * RK_RANK_FIELDS;
            const int64_t need = me[RK_RANK_COUNT] + arrive[i + 1] - arrive[i];
            memcpy(spare + at, table + me[RK_RANK_BASE], me[RK_RANK_COUNT] * sizeof(rk_spell));
            me[RK_RANK_BASE] = at;
            me[RK_RANK_CAP] = i + 1 < n_local ? need + share : capacity - at;
            at += me[RK_RANK_CAP];
        }
        args[RK_HOUR_SPARE] = args[RK_HOUR_TABLE];
        args[RK_HOUR_TABLE] = (int64_t)(uintptr_t)spare;
        table = spare;
    }
    /* one scatter in source and hosted order: a hosted destination's
       arrivals after its stayers, the others grouped in LEAVERS.  bounds[d]
       is group d's cursor and ends on its end, i.e. the next group's
       start, so shift back after */
    for (int64_t j = 0; j < n_gone; j++) {
        const int64_t d = dest[j], i = d - first;
        if (i >= 0 && i < n_local) {
            int64_t *me = ranks + i * RK_RANK_FIELDS;
            table[me[RK_RANK_BASE] + me[RK_RANK_COUNT]++] = moved[j];
            bounds[d]++;
        } else {
            leavers[bounds[d]++] = moved[j];
        }
    }
    for (int64_t d = n_ranks; d > 0; d--) bounds[d] = bounds[d - 1];
    bounds[0] = 0;
    return n_spills;
}

/* One week of schedules, written hour-major, RK_TILE persons at a time.

   act (uint8), place (uint32) and plane (bool, may be 0) are (168, n):
   cell [h * n + p] is person p at hour h.  A tile of persons is built
   hour-major on the stack and each of its hour rows stored once, so a
   row of the grids is written RK_TILE cells at a time, never one cell a
   person.

   Person p starts at home: activity 0 at household[p].  Then the
   entries naming p are written in table order: entry k puts (what[k],
   where[k]) on hours [start[k], start[k] + dur[k]) of the day, clipped
   to the day, on every day d whose bit is set in days[k].  Days never
   overlap, so a later entry overwrites an earlier one exactly where the
   numpy body's later block does.  Then hours 0-6 and 23 of every day go
   home.

   plane[h * n + p] is set where (act, place) of person p at hour h
   differs from hour h - 1.  Row 0 is all zero: hour 0 is at home, and so
   is the previous week's hour 167, so nobody changes at a week's first
   hour.  first (n + 1) and order (n_entries) are scratch.

   Returns 0, or -1 when a cell holds NO_PLACE, -2 for an entry whose
   person is outside [0, n), -3 for more entries than int32 counts; the
   grids are unspecified after an error. */
API int64_t rk_week_fill(
    int64_t n, const uint32_t *household, int64_t n_entries,
    const int32_t *who, const uint8_t *days, const uint8_t *start,
    const uint8_t *dur, const uint8_t *what, const uint32_t *where,
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
    uint8_t a[RK_WEEK_HOURS][RK_TILE];
    uint32_t q[RK_WEEK_HOURS][RK_TILE];
    int64_t e = 0;
    for (int64_t p0 = 0; p0 < n; p0 += RK_TILE) {
        const int64_t w = n - p0 < RK_TILE ? n - p0 : RK_TILE;
        const uint32_t *home = household + p0;
        for (int h = 0; h < RK_WEEK_HOURS; h++) {
            memset(a[h], 0, RK_TILE);
            for (int64_t j = 0; j < w; j++) q[h][j] = home[j];
        }
        for (int64_t j = 0; j < w; j++) {
            for (; e < first[p0 + j]; e++) {
                const int64_t k = order[e];
                const int lo = start[k];
                const int hi = lo + dur[k] < RK_DAY_HOURS ? lo + dur[k] : RK_DAY_HOURS;
                for (unsigned m = days[k] & 0x7F; m; m &= m - 1) {
                    const int at = __builtin_ctz(m) * RK_DAY_HOURS;
                    for (int h = at + lo; h < at + hi; h++) {
                        a[h][j] = what[k];
                        q[h][j] = where[k];
                    }
                }
            }
        }
        uint32_t missing = 0;
        for (int h = 0; h < RK_WEEK_HOURS; h++) {
            const int o = h % RK_DAY_HOURS;
            if (o < 7 || o == 23) {
                memset(a[h], 0, RK_TILE);
                for (int64_t j = 0; j < w; j++) q[h][j] = home[j];
            }
            for (int64_t j = 0; j < w; j++) missing |= q[h][j] == RK_NO_PLACE;
        }
        if (missing) return -1;
        /* one pass over the tile's hour rows: store them, and the plane
           row against the hour before (branch-free, so it vectorizes) */
        for (int h = 0; h < RK_WEEK_HOURS; h++) {
            memcpy(act + h * n + p0, a[h], w);
            memcpy(place + h * n + p0, q[h], 4 * w);
            if (plane == 0) continue;
            uint8_t *changed = plane + h * n + p0;
            if (h == 0) {
                memset(changed, 0, w);
                continue;
            }
            for (int64_t j = 0; j < w; j++)
                changed[j] = ((a[h][j] ^ a[h - 1][j]) | (q[h][j] ^ q[h - 1][j])) != 0;
        }
    }
    return 0;
}
"""
