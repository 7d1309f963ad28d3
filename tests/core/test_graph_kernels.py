"""The analysis graph kernels against independent oracles.

:func:`edge_triangles`, :func:`induced_sum`, :func:`upper_frontier` and
the mirror behind ``triu_symmetrize`` each have a compiled
implementation and a numpy/scipy twin.  Every test below runs through
the public entry points once per implementation (``impl`` fixture: the C
extension as loaded, then the twin with the extension masked out) and
compares with something that shares no code with ``repro``: a brute-force
triple loop, ``networkx.triangles``, scipy's own fancy indexing.  The
pre-kernel bodies of ``local_clustering``, ``weighted_clustering`` and
``ego_network`` are kept here verbatim as references: the rebuilt
analysis functions must equal them bit for bit.
"""

from __future__ import annotations

import os

import networkx as nx
import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import repro
from repro.analysis import ego_network, local_clustering, weighted_clustering
from repro.config import ScaleConfig, SimulationConfig
from repro.core import CollocationNetwork, triu_symmetrize
from repro.core.kernels import cext, graph
from repro.errors import AnalysisError, SynthesisError
from repro.obs import capture_spans
from repro.sim import Simulation
from repro.synthpop import generate_population


#: the ``impl`` fixture only patches a module attribute, which may well
#: stay in place across the examples of one test
PER_IMPL = settings(
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


# -- oracles and generators ---------------------------------------------------


def brute_force_edge_triangles(n, edges):
    """Common-neighbour count of every edge by a triple loop over a dense
    boolean matrix."""
    adj = [[False] * n for _ in range(n)]
    for i, j in edges:
        adj[i][j] = adj[j][i] = True
    out = {}
    for i in range(n):
        for j in range(i + 1, n):
            if adj[i][j]:
                out[i, j] = sum(adj[i][k] and adj[j][k] for k in range(n))
    return out


def upper_csr(n, edges, dtype=np.int64):
    edges = sorted({(min(e), max(e)) for e in edges})
    rows = [i for i, _ in edges]
    cols = [j for _, j in edges]
    return sp.coo_matrix(
        (np.arange(1, len(edges) + 1, dtype=dtype), (rows, cols)), shape=(n, n)
    ).tocsr()


def with_reversed_rows(m):
    """The same matrix with every row stored in descending column order."""
    m = m.copy()
    for r in range(m.shape[0]):
        lo, hi = m.indptr[r], m.indptr[r + 1]
        m.indices[lo:hi] = m.indices[lo:hi][::-1].copy()
        m.data[lo:hi] = m.data[lo:hi][::-1].copy()
    m.has_sorted_indices = False
    return m


def as_dict(closed):
    coo = closed.tocoo()
    return dict(zip(zip(coo.row.tolist(), coo.col.tolist()), coo.data.tolist()))


@st.composite
def graphs(draw, max_n=18):
    n = draw(st.integers(0, max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return n, edges


def clique(members):
    return [(a, b) for k, a in enumerate(members) for b in members[k + 1 :]]


NAMED_GRAPHS = {
    "no-vertices": (0, []),
    "one-vertex": (1, []),
    "isolated-vertices": (7, []),
    "one-edge-among-isolated": (9, [(2, 6)]),
    "star": (12, [(0, k) for k in range(1, 12)]),
    "star-centre-last": (12, [(k, 11) for k in range(11)]),
    "complete": (9, clique(list(range(9)))),
    "disjoint-cliques": (
        14, clique([0, 1, 2, 3]) + clique([4, 5, 6]) + clique([8, 9, 10, 11, 12])
    ),
    # one vertex adjacent to everyone over a sparse ring: degree >> mean
    "hub-over-ring": (
        40, [(7, k) for k in range(40) if k != 7]
        + [(k, k + 1) for k in range(39) if 7 not in (k, k + 1)]
    ),
}


# -- edge_triangles -----------------------------------------------------------


class TestEdgeTriangles:
    @pytest.mark.parametrize("name", sorted(NAMED_GRAPHS))
    def test_named_graphs_match_brute_force_and_networkx(self, impl, name):
        n, edges = NAMED_GRAPHS[name]
        closed = graph.edge_triangles(upper_csr(n, edges))
        assert closed.shape == (n, n) and closed.dtype == np.int64
        assert as_dict(closed) == brute_force_edge_triangles(n, edges)
        g = nx.Graph()
        g.add_nodes_from(range(n))
        g.add_edges_from(edges)
        sym = closed + closed.T
        per_vertex = np.asarray(sym.sum(axis=1)).ravel() // 2
        assert per_vertex.tolist() == [nx.triangles(g, v) for v in range(n)]

    @PER_IMPL
    @given(graphs())
    def test_generated_graphs_match_brute_force(self, impl, graph_):
        n, edges = graph_
        closed = graph.edge_triangles(upper_csr(n, edges))
        assert as_dict(closed) == brute_force_edge_triangles(n, edges)
        # the pattern is the graph: edges in no triangle stay, as zeros
        assert closed.nnz == len(edges)

    def test_implementations_agree_on_real_network(self, small_net):
        if cext.load_cext() is None:
            pytest.skip("C extension unavailable")
        compiled = graph.edge_triangles(small_net.adjacency)
        twin = graph.pyref.edge_triangles(small_net.adjacency)
        assert compiled.data.dtype == twin.dtype == np.int64
        assert np.array_equal(compiled.data, twin)

    def test_twin_is_blocked(self, small_net, monkeypatch):
        """The fallback's intermediate is bounded by a fixed block of
        edges; the block edge must not show in the result."""
        whole = graph.pyref.edge_triangles(small_net.adjacency)
        monkeypatch.setattr(graph.pyref, "_EDGE_BLOCK", 257)
        assert np.array_equal(graph.pyref.edge_triangles(small_net.adjacency), whole)


class TestEdgeTrianglesInputContract:
    """Any CSR a CollocationNetwork may hold must give the canonical
    answer — never garbage from an assumption the kernel made."""

    N = 10
    EDGES = clique([0, 3, 5, 9]) + [(1, 3), (1, 5), (2, 9), (4, 6)]

    def expected(self):
        return brute_force_edge_triangles(self.N, self.EDGES)

    def test_unsorted_indices(self, impl):
        upper = with_reversed_rows(upper_csr(self.N, self.EDGES))
        before = upper.indices.copy()
        assert as_dict(graph.edge_triangles(upper)) == self.expected()
        assert np.array_equal(upper.indices, before)  # canonicalized on a copy

    def test_duplicate_entries(self, impl):
        rows = [min(e) for e in self.EDGES] * 2
        cols = [max(e) for e in self.EDGES] * 2
        # a CSR that still holds every edge twice
        order = np.lexsort((cols, rows))
        indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=self.N))))
        dup = sp.csr_matrix(
            (np.ones(len(rows), np.int64), np.asarray(cols)[order], indptr),
            shape=(self.N, self.N),
        )
        assert dup.nnz == 2 * len(self.EDGES)
        closed = graph.edge_triangles(dup)
        assert closed.nnz == len(self.EDGES)
        assert as_dict(closed) == self.expected()

    def test_int64_index_arrays(self, impl):
        upper = upper_csr(self.N, self.EDGES)
        wide = sp.csr_matrix(upper.shape, dtype=np.int64)
        wide.data = upper.data
        wide.indices = upper.indices.astype(np.int64)
        wide.indptr = upper.indptr.astype(np.int64)
        assert wide.indices.dtype == np.int64
        closed = graph.edge_triangles(wide)
        assert as_dict(closed) == self.expected()

    @pytest.mark.parametrize(
        "rows, cols",
        [([3], [3]), ([5], [2]), ([0, 4], [1, 0])],
        ids=["diagonal", "lower", "mixed"],
    )
    def test_not_strictly_upper_is_rejected(self, impl, rows, cols):
        bad = sp.coo_matrix(
            (np.ones(len(rows), np.int64), (rows, cols)), shape=(6, 6)
        ).tocsr()
        with pytest.raises(AnalysisError):
            graph.edge_triangles(bad)

    def test_network_with_non_canonical_adjacency(self, impl):
        """Through the analysis layer: a CollocationNetwork built from an
        unsorted CSR clusters like its sorted self."""
        upper = upper_csr(self.N, self.EDGES)
        a = CollocationNetwork(upper)
        b = CollocationNetwork(with_reversed_rows(upper))
        assert np.array_equal(local_clustering(a), local_clustering(b))
        assert np.array_equal(weighted_clustering(a), weighted_clustering(b))


# -- induced_sum ---------------------------------------------------------------


def csr_identical(a, b):
    return (
        a.shape == b.shape
        and a.dtype == b.dtype
        and a.indices.dtype == b.indices.dtype
        and a.indptr.dtype == b.indptr.dtype
        and np.array_equal(a.data, b.data)
        and np.array_equal(a.indices, b.indices)
        and np.array_equal(a.indptr, b.indptr)
    )


class TestInducedSubgraph:
    """``induced_sum`` over one part: the gather of a strict-upper
    matrix on a person list."""

    @PER_IMPL
    @given(graphs(), st.data())
    def test_matches_scipy_indexing(self, impl, graph_, data):
        n, edges = graph_
        upper = upper_csr(n, edges)
        persons = np.array(
            sorted(data.draw(st.sets(st.integers(0, n - 1)))) if n else [],
            dtype=np.int64,
        )
        sub = graph.induced_sum([upper], persons)
        assert csr_identical(sub, upper[persons][:, persons].tocsr())

    @pytest.mark.parametrize("dtype", [np.int64, np.int32, np.float64])
    def test_value_and_index_dtypes_survive(self, impl, dtype):
        n, edges = NAMED_GRAPHS["hub-over-ring"]
        upper = upper_csr(n, edges, dtype=dtype)
        persons = np.arange(3, n, 2, dtype=np.int64)
        expected = upper[persons][:, persons].tocsr()
        assert csr_identical(graph.induced_sum([upper], persons), expected)
        upper.indices = upper.indices.astype(np.int64)
        upper.indptr = upper.indptr.astype(np.int64)
        wide = graph.induced_sum([upper], persons)
        assert np.array_equal(wide.toarray(), expected.toarray())

    def test_whole_and_empty_selection(self, impl, small_net):
        upper = small_net.adjacency
        everyone = np.arange(small_net.n_persons, dtype=np.int64)
        assert csr_identical(graph.induced_sum([upper], everyone), upper)
        nobody = graph.induced_sum([upper], np.empty(0, dtype=np.int64))
        assert nobody.shape == (0, 0) and nobody.nnz == 0

    @pytest.mark.parametrize(
        "persons", [[-1, 2], [0, 10**6], [4, 4], [5, 3]],
        ids=["negative", "past-end", "repeated", "descending"],
    )
    def test_bad_person_lists_are_rejected(self, impl, small_net, persons):
        with pytest.raises(AnalysisError):
            graph.induced_sum([small_net.adjacency], np.array(persons))

    def test_network_subgraph_sorts_and_dedups(self, impl, small_net):
        members = np.array([40, 3, 3, 700, 12, 40])
        sub, persons = small_net.subgraph(members)
        assert persons.tolist() == [3, 12, 40, 700]
        sym = triu_symmetrize(small_net.adjacency)
        assert csr_identical(sub, sym[persons][:, persons].tocsr())
        with pytest.raises(AnalysisError):
            small_net.subgraph(np.array([0, small_net.n_persons]))


class TestMirrorAndFrontier:
    """The two kernels an ego network is read through: the strict-upper
    → symmetric mirror (``triu_symmetrize``) and one breadth-first step
    over k strict-upper parts (``upper_frontier``)."""

    @PER_IMPL
    @given(graphs())
    def test_mirror_matches_scipy(self, impl, graph_):
        n, edges = graph_
        upper = upper_csr(n, edges)
        assert csr_identical(triu_symmetrize(upper), (upper + upper.T).tocsr())

    @PER_IMPL
    @given(graphs(), st.data())
    def test_frontier_matches_the_dense_sum(self, impl, graph_, data):
        n, edges = graph_
        k = data.draw(st.integers(1, 3))
        # every edge lands in one or two parts: overlapping partials
        owners = [data.draw(st.sets(st.integers(0, k - 1), min_size=1)) for _ in edges]
        parts = [
            upper_csr(n, [e for e, o in zip(edges, owners) if p in o])
            for p in range(k)
        ]
        mark = np.zeros(n, dtype=bool)
        mark[sorted(data.draw(st.sets(st.integers(0, n - 1)))) if n else []] = True
        dense = sum(p.toarray() for p in parts) if k else np.zeros((n, n))
        want = (dense + dense.T)[mark].any(axis=0)
        got = graph.upper_frontier(parts, mark)
        assert got.dtype == bool and np.array_equal(got, want)

    @PER_IMPL
    @given(graphs(), st.data())
    def test_induced_sum_matches_summed_gathers(self, impl, graph_, data):
        n, edges = graph_
        assume(n)
        k = data.draw(st.integers(1, 4))
        owners = [data.draw(st.sets(st.integers(0, k - 1), min_size=1)) for _ in edges]
        parts = [
            upper_csr(n, [e for e, o in zip(edges, owners) if p in o])
            for p in range(k)
        ]
        persons = np.array(sorted(data.draw(st.sets(st.integers(0, n - 1)))), dtype=np.int64)
        want = sum(p.toarray() for p in parts)[np.ix_(persons, persons)]
        got = graph.induced_sum(parts, persons)
        assert got.shape == want.shape and got.has_canonical_format
        assert got.data.dtype == np.int64 and got.data.all()
        assert np.array_equal(got.toarray(), want)

    @pytest.mark.parametrize(
        "entry", [(2, 2), (3, 1)], ids=["diagonal", "below-diagonal"]
    )
    def test_entries_off_the_upper_triangle_are_refused(self, impl, entry):
        (i, j) = entry
        bad = sp.coo_matrix(([1, 7], ([0, i], [4, j])), shape=(5, 5)).tocsr()
        with pytest.raises(SynthesisError):
            triu_symmetrize(bad)
        mark = np.ones(5, dtype=bool)
        with pytest.raises(AnalysisError):
            graph.upper_frontier([bad], mark)
        with pytest.raises((AnalysisError, SynthesisError)):
            graph.induced_sum([bad, bad], np.arange(5))


# -- the rebuilt analysis functions equal their pre-kernel bodies -------------


def scipy_symmetric(network):
    """The symmetric adjacency as scipy mirrors it: the references below
    share no kernel with the code they check."""
    a = network.adjacency
    return (a + a.T).tocsr()


def reference_local_clustering(network, batch_rows=8192):
    """``local_clustering`` as it was before the triangle kernel."""
    sym = scipy_symmetric(network)
    a = sym.copy()
    a.data = np.ones_like(a.data, dtype=np.int64)
    n = a.shape[0]
    degrees = np.diff(a.indptr).astype(np.int64)
    triangles = np.zeros(n, dtype=np.int64)
    for lo in range(0, n, batch_rows):
        hi = min(n, lo + batch_rows)
        block = a[lo:hi]  # (rows, n)
        wedge = block @ a  # paths of length 2 from each row vertex
        closed = wedge.multiply(block)  # keep only wedges closing an edge
        triangles[lo:hi] = np.asarray(closed.sum(axis=1)).ravel() // 2
    coeff = np.zeros(n, dtype=np.float64)
    can = degrees >= 2
    possible = degrees[can] * (degrees[can] - 1) / 2
    coeff[can] = triangles[can] / possible
    if coeff.size and (coeff.max() > 1.0 + 1e-9 or coeff.min() < 0):
        raise AnalysisError("clustering coefficient outside [0, 1]")
    return np.clip(coeff, 0.0, 1.0)


def reference_weighted_clustering(network, batch_rows=4096):
    """``weighted_clustering`` as it was before the triangle kernel."""
    sym = scipy_symmetric(network).astype(np.float64)
    binary = sym.copy()
    binary.data = np.ones_like(binary.data)
    n = sym.shape[0]
    degrees = np.diff(sym.indptr).astype(np.int64)
    strength = np.asarray(sym.sum(axis=1)).ravel()

    coeff = np.zeros(n, dtype=np.float64)
    for lo in range(0, n, batch_rows):
        hi = min(n, lo + batch_rows)
        a_block = binary[lo:hi]
        w_block = sym[lo:hi]
        closure = (a_block @ binary).multiply(a_block)
        contrib = np.asarray(
            closure.multiply(w_block).sum(axis=1)
        ).ravel()
        can = degrees[lo:hi] >= 2
        denom = strength[lo:hi] * (degrees[lo:hi] - 1)
        vals = np.zeros(hi - lo)
        vals[can] = contrib[can] / denom[can]
        coeff[lo:hi] = vals
    if coeff.size and (coeff.min() < -1e-9 or coeff.max() > 1.0 + 1e-9):
        raise AnalysisError("weighted clustering outside [0, 1]")
    return np.clip(coeff, 0.0, 1.0)


def reference_ego(network, person, radius=2):
    """``ego_network``'s BFS and induced subgraph as they were before
    the boolean-mask frontier and the gather kernel."""
    sym = scipy_symmetric(network)
    frontier = np.array([person], dtype=np.int64)
    visited = {int(person)}
    for _ in range(radius):
        next_frontier: list[np.ndarray] = []
        for v in frontier:
            neigh = sym.indices[sym.indptr[v] : sym.indptr[v + 1]]
            next_frontier.append(neigh)
        if not next_frontier:
            break
        cand = np.unique(np.concatenate(next_frontier)) if next_frontier else np.empty(0, dtype=np.int64)
        new = np.array(
            [int(v) for v in cand if int(v) not in visited], dtype=np.int64
        )
        visited.update(int(v) for v in new)
        frontier = new
        if len(frontier) == 0:
            break
    persons = np.array(sorted(visited), dtype=np.int64)
    sub = sym[persons][:, persons].tocsr()
    return persons, sub


@pytest.fixture(scope="module")
def week_6k():
    """The 6 000-person week the end-to-end benchmark analyses."""
    pop = generate_population(ScaleConfig(n_persons=6000, seed=2017))
    config = SimulationConfig(scale=pop.scale, duration_hours=repro.HOURS_PER_WEEK)
    records = Simulation(pop, config).run().records
    net, _ = repro.synthesize_network(
        records, pop.n_persons, 0, repro.HOURS_PER_WEEK
    )
    return net


@pytest.fixture(params=["small_net", "week_6k"])
def real_net(request):
    return request.getfixturevalue(request.param)


class TestAnalysisBitIdentity:
    def test_local_clustering(self, impl, real_net):
        new = local_clustering(real_net)
        assert new.dtype == np.float64
        assert np.array_equal(new, reference_local_clustering(real_net))

    def test_weighted_clustering(self, impl, real_net):
        # integer pair-hours: every sum is exact, so equality is exact
        assert np.array_equal(
            weighted_clustering(real_net), reference_weighted_clustering(real_net)
        )

    def test_weighted_clustering_float_weights(self, impl, small_net):
        adj = small_net.adjacency.astype(np.float64)
        adj.data = np.sqrt(adj.data) + 0.1
        net = CollocationNetwork(adj)
        assert np.allclose(
            weighted_clustering(net), reference_weighted_clustering(net),
            rtol=0.0, atol=1e-12,
        )

    def test_ego_networks(self, impl, real_net):
        rng = np.random.default_rng(11)
        for person in rng.integers(0, real_net.n_persons, 12):
            for radius in (1, 2):
                ego = ego_network(real_net, int(person), radius=radius)
                persons, sub = reference_ego(real_net, int(person), radius)
                assert ego.persons.dtype == persons.dtype
                assert np.array_equal(ego.persons, persons)
                assert csr_identical(ego.matrix, sub)

    def test_group_subgraph(self, impl, real_net):
        sym = triu_symmetrize(real_net.adjacency)
        members = np.arange(1, real_net.n_persons, 3)
        sub, persons = real_net.subgraph(members)
        assert csr_identical(sub, sym[persons][:, persons].tocsr())


# -- which implementation ran, and what it reported ---------------------------


class TestImplementationPinning:
    def test_ci_pin_is_what_runs(self):
        """A CI leg that pins an implementation must get it: a silent
        fallback may not pass for coverage of the C kernels."""
        pinned = os.environ.get("REPRO_NO_CC")
        if pinned is None:
            pytest.skip("no implementation pinned")
        elif pinned in ("", "0"):
            assert cext.load_cext() is not None, cext.cext_error()
        else:
            assert cext.load_cext() is None

    @pytest.mark.parametrize("value, disabled", [("1", True), ("0", False), ("", False)])
    def test_no_cc_zero_means_enabled(self, monkeypatch, value, disabled):
        """CI's cext leg exports ``REPRO_NO_CC=0``; only a non-zero value
        may switch the extension off."""
        if cext.load_cext() is None:
            pytest.skip("C extension unavailable")
        monkeypatch.setattr(cext, "_lib", None)
        monkeypatch.setattr(cext, "_error", None)
        monkeypatch.setenv("REPRO_NO_CC", value)
        assert (cext.load_cext() is None) == disabled

    def test_smoke_test_rejects_a_bad_graph_kernel(self):
        kernels = cext.load_cext()
        if kernels is None:
            pytest.skip("C extension unavailable")

        class Skewed:
            """The loaded kernels, except one entry point returns junk."""

            def __init__(self, broken):
                self.broken = broken

            def __getattr__(self, name):
                if name == self.broken:
                    return lambda *args: 0
                return getattr(kernels, name)

        cext._smoke_test(kernels)
        for name in ("edge_triangles", "induced_sum", "rank_step"):
            with pytest.raises(RuntimeError):
                cext._smoke_test(Skewed(name))


class TestTelemetry:
    def test_triangle_kernel_span_and_counter(self, impl, small_net, registry):
        with capture_spans() as spans:
            coefficients = local_clustering(small_net)
        [span] = [s for s in spans if s["name"] == "analysis.triangles"]
        assert span["attrs"]["edges"] == small_net.n_edges
        g = small_net.to_networkx()
        counters = registry.snapshot()["counters"]
        assert counters["analysis.triangles_total"] == sum(
            nx.triangles(g).values()
        ) // 3
        assert counters["stage.analysis.triangles.calls"] == 1
        assert coefficients.max() <= 1.0

    def test_ego_span_and_counter(self, impl, small_net, registry):
        with capture_spans() as spans:
            ego = ego_network(small_net, 5)
        [span] = [s for s in spans if s["name"] == "analysis.induced_subgraph"]
        assert span["attrs"]["nodes"] == ego.n_nodes
        counters = registry.snapshot()["counters"]
        assert counters["analysis.ego_nodes"] == ego.n_nodes
        assert counters["stage.analysis.induced_subgraph.calls"] == 1
