import gc
import hashlib
import importlib.util
import logging
import math
import os
import re
import signal
import sys
import threading
import time
import tracemalloc
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triprofile import (DomainError, Graph, InputFormatError, StepGraphon,
                        census_brute, census_fast, densities,
                        graphon_densities, graphon_densities_brute,
                        read_edge_list, read_step_graphon,
                        sample_w_random_graph, write_edge_list,
                        write_step_graphon)
from triprofile import census
from triprofile.cli import main
from triprofile.census import (_common_bits, _kernel_inputs, _triangles_bitset,
                               _triangles_tiles, _triangles_wedges)
from triprofile.constructions import FamilySpec, realize
from triprofile.verify import random_step_graphon


def cycle(n):
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def gnp(rng, n, p):
    return sample_w_random_graph(StepGraphon([1.0], [[p]]), n, int(rng.integers(2 ** 31)))


class TestGraph:
    def test_from_edges_basic(self):
        g = Graph.from_edges(4, [(0, 1), (2, 1), (3, 0)])
        assert g.n == 4 and g.m == 3
        assert g.neighbors(1).tolist() == [0, 2]
        assert g.neighbors(3).tolist() == [0]

    def test_rejects_self_loop(self):
        with pytest.raises(DomainError):
            Graph.from_edges(3, [(1, 1)])

    def test_rejects_duplicate(self):
        with pytest.raises(DomainError):
            Graph.from_edges(3, [(0, 1), (1, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(DomainError):
            Graph.from_edges(3, [(0, 3)])

    def test_from_edges_input_forms_agree(self):
        rng = np.random.default_rng(21)
        pairs = np.array([(u, v) for u in range(12) for v in range(u + 1, 12)
                          if rng.random() < 0.4])
        pairs = pairs[rng.permutation(len(pairs))]
        flip = rng.random(len(pairs)) < 0.5
        pairs[flip] = pairs[flip][:, ::-1]
        tuples = [(int(u), int(v)) for u, v in pairs]
        g = Graph.from_edges(12, pairs)
        assert g == Graph.from_edges(12, tuples)
        assert g == Graph.from_edges(12, (e for e in tuples))
        assert g == Graph.from_edges(12, g.edges())
        assert g.m == len(pairs)
        adj = {v: set() for v in range(12)}
        for a, b in tuples:
            adj[a].add(b)
            adj[b].add(a)
        assert [g.neighbors(v).tolist() for v in range(12)] == [sorted(adj[v]) for v in range(12)]

    def test_from_edges_leaves_input_unchanged(self):
        pairs = np.array([[3, 1], [0, 2]])
        Graph.from_edges(4, pairs)
        assert pairs.tolist() == [[3, 1], [0, 2]]

    def test_rejects_reversed_duplicate_array(self):
        with pytest.raises(DomainError, match="duplicate edges are not allowed"):
            Graph.from_edges(6, np.array([(2, 5), (0, 1), (5, 2)]))

    def test_rejects_non_pairs(self):
        with pytest.raises(DomainError, match=r"edges must be \(u, v\) pairs"):
            Graph.from_edges(6, np.array([(0, 1, 2), (3, 4, 5)]))
        with pytest.raises(DomainError, match=r"edges must be \(u, v\) pairs"):
            Graph.from_edges(6, [(0, 1), (2,)])

    @pytest.mark.parametrize("edges,kind", [
        ([(0, 1.5)], "float64"), (np.array([[0.0, 1.0]]), "float64"),
        (np.array([[0, 1]], dtype=np.float32), "float32"),
        ([(True, False)], "bool"), ([(0, 2 ** 70)], "object"), ([(0, None)], "object")])
    def test_rejects_non_integer_endpoints(self, edges, kind):
        # np.asarray(..., dtype=np.int64) would truncate 1.5 to the edge 0-1
        with pytest.raises(DomainError, match=f"^edge endpoints must be integers "
                                              f"\\(got {kind} values\\)$"):
            Graph.from_edges(3, edges)

    @pytest.mark.parametrize("edges", [
        [(True, 2)], [(np.True_, 2)], [(0, 1), (1, False)],
        [(0, 2), np.array([True, False])]])
    def test_rejects_bool_among_integer_endpoints(self, edges):
        # numpy promotes a bool among ints to int64, so [(True, 2)] would be
        # the edge 1-2
        for form in (edges, iter(edges)):
            with pytest.raises(DomainError, match=r"^edge endpoints must be integers "
                                                  r"\(got bool values\)$"):
                Graph.from_edges(3, form)

    def test_array_endpoints_checked_by_dtype_alone(self, monkeypatch):
        # an integer ndarray is never walked element by element
        monkeypatch.setattr(census, "_has_bool", lambda pairs: pytest.fail("walked"))
        g = Graph.from_edges(3, np.array([(True, 2)]))
        assert g.neighbors(1).tolist() == [2]
        with pytest.raises(DomainError, match=r"\(got bool values\)"):
            Graph.from_edges(3, np.array([(True, False)]))

    @pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int32, np.int64,
                                       np.uint8, np.uint16, np.uint32, np.uint64])
    def test_integer_endpoints_of_any_width(self, dtype):
        pairs = [(0, 1), (2, 1), (3, 0)]
        g = Graph.from_edges(4, pairs)
        assert Graph.from_edges(4, np.array(pairs, dtype=dtype)) == g
        assert Graph.from_edges(4, [tuple(map(dtype, e)) for e in pairs]) == g
        assert Graph.from_edges(4, np.empty((0, 2), dtype=dtype)) == Graph.empty(4)

    def test_rejects_too_many_vertices(self):
        with pytest.raises(DomainError, match="vertex count 67108865 too large"):
            Graph.from_edges(census._MAX_VERTICES + 1, [])

    @pytest.mark.parametrize("build", [lambda n: Graph.from_edges(n, [(0, 1)]), Graph.complete],
                             ids=["from_edges", "complete"])
    def test_non_integer_vertex_count_named(self, build):
        for n, text in ((10.5, "10.5"), (5.0, "5.0"), (np.float64(4.0), "np.float64(4.0)")):
            with pytest.raises(DomainError, match=re.escape(f"n must be an integer (got {text})")):
                build(n)
        assert build(np.int32(4)) == build(4)

    def test_complete_checks_vertex_count_first(self):
        with pytest.raises(DomainError, match="vertex count 1099511627776 too large"):
            Graph.complete(1 << 40)

    def test_complement(self):
        g = cycle(5)
        gc = g.complement()
        assert gc.m == math.comb(5, 2) - 5
        assert gc.complement() == g
        # the same CSR as the graph of the non-edges, listed pair by pair
        rng = np.random.default_rng(47)
        assert Graph.empty(0).complement() == Graph.empty(0)
        for n, p in [(1, 0.5), (2, 1.0), (9, 0.0), (9, 1.0), (70, 0.4)]:
            h = gnp(rng, n, p)
            edges = set(h.edges())
            want = Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)
                                        if (i, j) not in edges])
            assert h.complement() == want


class TestCensus:
    def test_triangle(self):
        assert census_fast(Graph.complete(3)).counts == (0, 0, 0, 1)

    def test_c5(self):
        # 10 triples of the 5-cycle: five induce one edge, five induce a path
        assert census_fast(cycle(5)).counts == (0, 5, 5, 0)
        assert census_brute(cycle(5)).counts == (0, 5, 5, 0)

    def test_empty_ten(self):
        assert census_fast(Graph.empty(10)).counts == (120, 0, 0, 0)

    def test_path3(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        assert census_brute(g).counts == (0, 0, 1, 0)

    def test_k4(self):
        assert census_brute(Graph.complete(4)).counts == (0, 0, 0, 4)
        assert census_fast(Graph.complete(4)).counts == (0, 0, 0, 4)

    def test_too_small(self):
        for fn in (census_fast, census_brute):
            with pytest.raises(DomainError, match="too small"):
                fn(Graph.complete(2))

    @settings(max_examples=120, deadline=None)
    @given(st.integers(3, 32), st.integers(0, 2 ** 31 - 1),
           st.sampled_from([0.08, 0.3, 0.5, 0.8, 0.97]))
    def test_fast_equals_brute(self, n, seed, p):
        g = sample_w_random_graph(StepGraphon([1.0], [[p]]), n, seed)
        assert census_fast(g).counts == census_brute(g).counts

    def test_identities_random(self):
        rng = np.random.default_rng(3)
        for _ in range(60):
            n = int(rng.integers(3, 70))
            g = gnp(rng, n, float(rng.random()))
            c = census_fast(g)
            assert sum(c.counts) == math.comb(n, 3)
            assert c.c1 + 2 * c.c2 + 3 * c.c3 == g.m * (n - 2)
            assert census_fast(g.complement()).counts == c.counts[::-1]


KERNELS = pytest.mark.parametrize("kernel", [_triangles_bitset, _triangles_wedges])


def kernel_triangles(kernel, g):
    rank, u, v, fdeg, src, dst = _kernel_inputs(g)
    if kernel is _triangles_bitset:
        return kernel(rank, u, v)
    return kernel(u, v, fdeg, census._undirected_keys(g.n, src, dst))


def joined_k2t(t):
    """K_{2,t} on hubs 0 and 1 and leaves 2..t+1, with the hubs joined."""
    leaves = range(2, t + 2)
    return Graph.from_edges(t + 2, [(0, 1)] + [(h, a) for h in (0, 1) for a in leaves])


class TestTriangleKernels:
    """Both triangle kernels against the brute-force oracle, called directly,
    since on small graphs the cost rule may always pick the same one."""

    @KERNELS
    @settings(max_examples=60, deadline=None)
    @given(st.integers(3, 32), st.integers(0, 2 ** 31 - 1),
           st.sampled_from([0.08, 0.3, 0.5, 0.8, 0.97]))
    def test_equals_brute(self, kernel, n, seed, p):
        g = sample_w_random_graph(StepGraphon([1.0], [[p]]), n, seed)
        assert kernel_triangles(kernel, g) == census_brute(g).c3

    @KERNELS
    def test_gnp_equals_brute(self, kernel):
        rng = np.random.default_rng(23)
        for _ in range(30):
            g = gnp(rng, int(rng.integers(3, 70)), float(rng.random()))
            assert kernel_triangles(kernel, g) == census_brute(g).c3

    @KERNELS
    @pytest.mark.parametrize("n,p", [(150, 0.03), (90, 0.7)])
    def test_sparse_and_dense(self, kernel, n, p):
        g = gnp(np.random.default_rng(29), n, p)
        assert kernel_triangles(kernel, g) == census_brute(g).c3

    @pytest.mark.parametrize("chunk", [1, 2, 7, 50])
    def test_wedge_chunks(self, monkeypatch, chunk):
        # chunks smaller than one edge's wedges, and boundaries mid-row
        monkeypatch.setattr(census, "_WEDGE_CHUNK", chunk)
        g = gnp(np.random.default_rng(31), 60, 0.4)
        assert kernel_triangles(_triangles_wedges, g) == census_brute(g).c3

    @pytest.mark.parametrize("bits", [0, 1])
    def test_filter_collisions_stay_exact(self, monkeypatch, bits):
        # 1 slot: every wedge passes the pre-filter; 2 slots: keys and open
        # wedges collide everywhere.  Only the exact search may decide.
        monkeypatch.setattr(census, "_filter_bits", lambda m: bits)
        rng = np.random.default_rng(37)
        for _ in range(12):
            g = gnp(rng, int(rng.integers(3, 60)), float(rng.random()))
            assert kernel_triangles(_triangles_wedges, g) == census_brute(g).c3
        # K_{2,t} with its hubs joined: the one hub pair closes all t wedges
        for t in (1, 2, 63, 200):
            g = joined_k2t(t)
            assert kernel_triangles(_triangles_wedges, g) == census_brute(g).c3 == t

    def test_filter_size(self):
        # the least power of two >= 8m slots, and every slot index inside it
        assert [census._filter_bits(m) for m in (0, 1, 2, 3, 4, 5, 200000)] == [
            0, 3, 4, 5, 5, 6, 21]
        keys = np.array([0, 1, 2 ** 52 - 1, 2 ** 63 - 1], dtype=np.int64)
        for bits in (0, 1, 3, 21, 63):
            slots = census._slot(keys, bits)
            assert slots.dtype == np.int64
            assert slots.min() >= 0 and slots.max() < 2 ** bits

    def test_rank_is_degree_then_id(self):
        # the uint16 radix path, and a star whose hub degree needs int64
        rng = np.random.default_rng(43)
        star = Graph.from_edges(70000, np.column_stack([np.zeros(69999, int),
                                                        np.arange(1, 70000)]))
        for g in (gnp(rng, 300, 0.1), gnp(rng, 64, 0.5), star):
            order = np.lexsort((np.arange(g.n), g.degrees))
            assert census._rank(g)[order].tolist() == list(range(g.n))

    @pytest.mark.parametrize("n", [63, 64, 65, 127, 128, 129])
    def test_rank_word_boundaries(self, n):
        rng = np.random.default_rng(n)
        for p in (0.1, 0.5, 0.95):
            g = gnp(rng, n, p)
            want = census_brute(g).c3
            assert kernel_triangles(_triangles_bitset, g) == want
            assert kernel_triangles(_triangles_wedges, g) == want

    def test_higher_endpoints_in_one_rank_word(self):
        # 128 leaves joined only to 40 hubs of higher degree: every forward
        # edge ends at a hub, and the hubs hold ranks 128..167, all in word 2
        rng = np.random.default_rng(41)
        edges = [(a, h) for a in range(128) for h in range(128, 168) if rng.random() < 0.3]
        edges += [(h, k) for h in range(128, 168) for k in range(h + 1, 168)
                  if rng.random() < 0.5]
        g = Graph.from_edges(168, edges)
        rank, _, v, *_ = _kernel_inputs(g)
        assert set((rank[v] >> 6).tolist()) == {2}
        want = census_brute(g).c3
        assert (kernel_triangles(_triangles_bitset, g)
                == kernel_triangles(_triangles_wedges, g) == want > 0)

    @pytest.mark.parametrize("n,m", [(2000, 10000), (300, 10000)])
    def test_census_files_shapes(self, n, m):
        # census-files' toy inputs: sparse n=2000 and dense n=300, m=10000
        rng = np.random.default_rng(n + m)
        iu, ju = np.triu_indices(n, 1)
        pick = rng.choice(iu.size, m, replace=False)
        g = Graph.from_edges(n, np.column_stack([iu[pick], ju[pick]]))
        adj = [set(g.neighbors(w).tolist()) for w in range(n)]
        want = sum(len(adj[a] & adj[b]) for a, b in g.edges()) // 3
        if n <= 300:
            assert census_brute(g).c3 == want
        assert kernel_triangles(_triangles_bitset, g) == want
        assert kernel_triangles(_triangles_wedges, g) == want

    def test_selection(self, monkeypatch):
        chosen = []
        for kernel in (_triangles_bitset, _triangles_wedges):
            monkeypatch.setattr(census, kernel.__name__,
                                lambda *args, k=kernel: chosen.append(k) or k(*args))
        # a long cycle has one wedge; a clique has C(n, 3)
        assert census_fast(cycle(1000)).c3 == 0
        assert census_fast(Graph.complete(100)).c3 == math.comb(100, 3)
        assert chosen == [_triangles_wedges, _triangles_bitset]
        # a bitset above the memory cap is never built
        monkeypatch.setattr(census, "_BITSET_MAX_BYTES", 0)
        assert census_fast(Graph.complete(100)).c3 == math.comb(100, 3)
        assert chosen[-1] is _triangles_wedges

    def test_choice_logged(self, caplog):
        # a cycle's ranks are its ids: 16 words a row, and the forward edges
        # (i, i+1) and (0, 999) AND from word (i+1) >> 6 and 999 >> 6 on,
        # 16 * 1000 - 7320 - 15 word-ANDs.  A cycle's census has the closed
        # form (C(n,3) - n(n-4) - n, n(n-4), n, 0) for n >= 5
        n = 1000
        with caplog.at_level(logging.DEBUG, logger="triprofile.census"):
            c = census_fast(cycle(n))
        assert c.counts == (math.comb(n, 3) - n * (n - 4) - n, n * (n - 4), n, 0)
        (rec,) = [r for r in caplog.records if r.name == "triprofile.census"]
        assert rec.levelno == logging.DEBUG
        assert rec.getMessage() == ("triangle count: n=1000 m=1000 wedges=1 "
                                    "word_ands=8665 kernel=wedges")

    # cycle(200) still takes the wedge kernel (581 word-ANDs), and its brute
    # census is quick
    @pytest.mark.parametrize("g,kernel", [(cycle(200), "wedges"),
                                          (Graph.complete(100), "bitset")])
    def test_graph_read_once(self, monkeypatch, caplog, g, kernel):
        # one rank and one edge list a census, on either side of the rule
        calls = []
        rank, directed = census._rank, Graph.directed_edges
        monkeypatch.setattr(census, "_rank", lambda h: calls.append("rank") or rank(h))
        monkeypatch.setattr(Graph, "directed_edges",
                            lambda h: calls.append("edges") or directed(h))
        with caplog.at_level(logging.DEBUG, logger="triprofile.census"):
            c = census_fast(g)
        assert c == census_brute(g)
        assert caplog.records[-1].getMessage().endswith(f"kernel={kernel}")
        assert sorted(calls) == ["edges", "rank"]

    def test_keys_built_for_the_wedges_only(self, monkeypatch):
        # the bitset kernel reads no undirected keys, so none are built for it
        built = []
        keys = census._undirected_keys
        monkeypatch.setattr(census, "_undirected_keys",
                            lambda *args: built.append(1) or keys(*args))
        assert census_fast(Graph.complete(100)).c3 == math.comb(100, 3)
        assert built == []
        assert census_fast(cycle(1000)).c3 == 0
        assert built == [1]

    def test_sparse_memory_linear_in_m(self):
        # 10000 disjoint K4s (4 triangles each) plus a circulant on 20000
        # vertices with odd offsets 1..23, which is bipartite: n=60000,
        # m=300000, 40000 triangles.  A dense n x n bitset alone is 450 MB.
        k4 = np.array([(a, b) for a in range(4) for b in range(a + 1, 4)])
        cliques = (k4 + 4 * np.arange(10000)[:, None, None]).reshape(-1, 2)
        i = np.arange(20000)
        circ = np.concatenate([np.column_stack([40000 + i, 40000 + (i + d) % 20000])
                               for d in range(1, 24, 2)])
        g = Graph.from_edges(60000, np.concatenate([cliques, circ]))
        n, m, t = 60000, 300000, 40000
        p2 = 40000 * math.comb(3, 2) + 20000 * math.comb(24, 2)
        c1 = m * (n - 2) - 2 * p2 + 3 * t
        tracemalloc.start()
        try:
            c = census_fast(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert c.counts == (math.comb(n, 3) - c1 - (p2 - 3 * t) - t, c1, p2 - 3 * t, t)
        assert peak < 64 * 2 ** 20

    def test_dense_gather_buffers_small(self, monkeypatch):
        # circulant on 5000 vertices with offsets 1..40: m=200000, as dense
        # as census-files' dense input, and 5000*C(40,2) triangles (each
        # lies in one arc of length <= 40).  Its bitset is 3.2 MB; row-gather
        # buffers sized by m rather than by the bitset peaked near 75 MB.
        chosen = []
        monkeypatch.setattr(census, "_triangles_bitset",
                            lambda *args: chosen.append(1) or _triangles_bitset(*args))
        n, r = 5000, 40
        i = np.arange(n)
        g = Graph.from_edges(n, np.concatenate(
            [np.column_stack([i, (i + d) % n]) for d in range(1, r + 1)]))
        tracemalloc.start()
        try:
            c = census_fast(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert chosen and g.m == 200000
        assert c.c3 == n * math.comb(r, 2)
        assert peak < 24 * 2 ** 20


def block_bitset(rng, parts, P):
    """(bitset, 0/1 matrix) of a random strictly upper-triangular matrix
    whose pairs join with density P[b][c] between parts b and c, the parts
    in vertex order, packed as the blow-up census packs its rows."""
    blocks = np.repeat(np.arange(len(parts)), parts)
    n = blocks.size
    U = np.triu(rng.random((n, n)) < np.asarray(P)[blocks][:, blocks], 1)
    rows = np.zeros((n, (n + 63) >> 6), dtype=np.uint64)
    rows.view(np.uint8)[:, :(n + 7) >> 3] = np.packbits(U, axis=1, bitorder="little")
    return rows, U


def upper_bitset(rng, n, p):
    """block_bitset of one part with pair density p."""
    return block_bitset(rng, [n], [[p]])


def tiles_both_ways(monkeypatch, rows):
    """_triangles_tiles(rows) with its bands run inline and on two pool
    threads, which must agree in every count."""
    out = []
    for workers in (1, 2):
        monkeypatch.setattr(census, "_worker_count", lambda: workers)
        t, cols, work = _triangles_tiles(rows)
        out.append((t, cols.tolist(), work))
    assert out[0] == out[1]
    return out[0]


class TestTileKernel:
    """The seeded blow-up census's tile kernel over upper-triangular
    bitsets, called directly, with rows around the 64-bit words and the
    256-row bands, its bands run inline and on the thread pool."""

    @pytest.mark.parametrize("n", [1, 2, 3, 63, 64, 65, 255, 256, 257, 513])
    @pytest.mark.parametrize("p", [0.0, 0.5, 1.0])
    def test_equals_oracles(self, monkeypatch, n, p):
        rows, U = upper_bitset(np.random.default_rng(n), n, p)
        u, v = np.nonzero(U)
        if p < 1:
            g = Graph.from_edges(n, np.column_stack([u, v]))
            # the brute census takes 3.4 s at n=513
            want = census_fast(g).c3 if n > 257 else census_brute(g).c3 if n >= 3 else 0
        else:
            want = math.comb(n, 3)
        t, cols, _ = tiles_both_ways(monkeypatch, rows)
        assert t == _common_bits(rows, u, v) == want
        assert cols == U.sum(axis=0).tolist()

    # (parts, densities, band pairs skipped): the bands are rows 0-255,
    # 256-511, ...; a pair is skipped when its left block is clear, when the
    # left band's extent ends before the right band, or when either is empty
    @pytest.mark.parametrize("parts,P,skipped", [
        # two components with no edges across: band 0 ends at column 290
        ([290, 310], [[0.5, 0], [0, 0.5]], 1),
        # an empty tail from vertex 437, no multiple of 64 or 256
        ([437, 163], [[0.5, 0], [0, 0]], 3),
        ([301], [[0]], 3),
        # universal columns from vertex 520, set in every row above them
        ([520, 80], [[0.3, 1], [1, 1]], 0),
        # rows 256-511 empty, their columns set from band 0
        ([256, 256, 288], [[0.5, 0.5, 0.5], [0.5, 0, 0], [0.5, 0, 0.5]], 4),
        # block (0, 1) clear between bands whose rows reach past it
        ([256, 256, 288], [[0.5, 0, 0.5], [0, 0.5, 0.5], [0.5, 0.5, 0.5]], 1),
    ])
    def test_block_structured(self, monkeypatch, parts, P, skipped):
        rows, U = block_bitset(np.random.default_rng(sum(parts)), parts, P)
        n = U.shape[0]
        u, v = np.nonzero(U)
        t, cols, (done, skips, _) = tiles_both_ways(monkeypatch, rows)
        assert t == _common_bits(rows, u, v) == census_fast(
            Graph.from_edges(n, np.column_stack([u, v]))).c3
        assert cols == U.sum(axis=0).tolist()
        nb = -(-n // census._TILE)
        assert (done + skips, skips) == (nb * (nb + 1) // 2, skipped)

    def test_work_logged(self, monkeypatch, caplog):
        # the two components above: diagonal blocks of bands 0-2 in 64-row
        # sub-bands over extents 290, 600 and 600, and the pairs (0,1) over
        # 34 columns and (1,2) over 88, band 0 ending before band 2:
        # 9 256 960 + 11 468 800 + 509 440 + 295 936 + 1 982 464
        rows, _ = block_bitset(np.random.default_rng(600), [290, 310],
                               [[0.5, 0], [0, 0.5]])
        caplog.set_level(logging.DEBUG, logger="triprofile.census")
        for workers in (1, 2):
            monkeypatch.setattr(census, "_worker_count", lambda: workers)
            census._upper_census(rows)
        assert [r.getMessage() for r in caplog.records
                if r.name == "triprofile.census"] == 2 * [
            "tile kernel: n=600 band_pairs=5 skipped=1 multiply_adds=23513600 "
            "(0.653 of n^3/6)"]

    def test_bands_finish_in_any_order(self, monkeypatch):
        # four bands on four threads, each band held until the one after it
        # has finished, so band 0, taken first, finishes last
        rows, _ = upper_bitset(np.random.default_rng(7), 1000, 0.5)
        monkeypatch.setattr(census, "_worker_count", lambda: 1)
        t, cols, work = _triangles_tiles(rows)
        finished = []
        passed = [threading.Event() for _ in range(5)]
        passed[4].set()
        band = census._tile_band

        def held(rows, ends, filled, I):
            out = band(rows, ends, filled, I)
            assert passed[I + 1].wait(30)
            finished.append(I)
            passed[I].set()
            return out

        monkeypatch.setattr(census, "_tile_band", held)
        monkeypatch.setattr(census, "_worker_count", lambda: 4)
        monkeypatch.setattr(census, "_pool", {})
        try:
            t4, cols4, work4 = _triangles_tiles(rows)
        finally:
            for pool in census._pool.values():
                pool.shutdown()
        assert finished == [3, 2, 1, 0]
        assert (t4, cols4.tolist(), work4) == (t, cols.tolist(), work)

    def test_each_band_taken_once_under_contention(self, monkeypatch):
        # more threads than cores and a short switch interval: a band run
        # twice, or not at all, would change the count or the column sums
        rows, _ = upper_bitset(np.random.default_rng(5), 2600, 0.2)
        monkeypatch.setattr(census, "_worker_count", lambda: 1)
        t, cols, work = _triangles_tiles(rows)
        monkeypatch.setattr(census, "_worker_count", lambda: 8)
        monkeypatch.setattr(census, "_pool", {})
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                t8, cols8, work8 = _triangles_tiles(rows)
                assert (t8, cols8.tolist(), work8) == (t, cols.tolist(), work)
        finally:
            sys.setswitchinterval(interval)
            for pool in census._pool.values():
                pool.shutdown()

    @pytest.mark.parametrize("failing", ["caller", "pool"])
    def test_failed_band_raised_after_the_rest(self, monkeypatch, failing):
        # bands fail at once on one side, the calling thread or the pool's,
        # and run slowly on the other; the error is raised once every band
        # has stopped
        rows, _ = upper_bitset(np.random.default_rng(7), 1000, 0.5)
        caller = threading.get_ident()
        running = set()
        band = census._tile_band

        def slow_or_failing(rows, ends, filled, I):
            if (threading.get_ident() == caller) == (failing == "caller"):
                raise MemoryError(f"band {I}")
            running.add(I)
            time.sleep(0.05)
            running.discard(I)
            return band(rows, ends, filled, I)

        monkeypatch.setattr(census, "_tile_band", slow_or_failing)
        monkeypatch.setattr(census, "_worker_count", lambda: 2)
        with pytest.raises(MemoryError, match="band"):
            _triangles_tiles(rows)
        assert running == set()

    def test_one_cpu_runs_inline(self, monkeypatch):
        # no pool is made or used on one CPU, or for one band
        def no_pool(workers):
            raise AssertionError("a pool was asked for")

        monkeypatch.setattr(census, "_band_pool", no_pool)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert census._worker_count() == 1
        rows, U = upper_bitset(np.random.default_rng(3), 700, 0.5)
        assert _triangles_tiles(rows)[1].tolist() == U.sum(axis=0).tolist()
        monkeypatch.setattr(census, "_worker_count", lambda: 2)
        rows, U = upper_bitset(np.random.default_rng(3), 256, 0.5)
        assert _triangles_tiles(rows)[1].tolist() == U.sum(axis=0).tolist()

    def test_worker_count(self, monkeypatch):
        # every CPU the process may use, unless threads Python did not
        # start, a multithreaded BLAS's, already run beside it; the parse,
        # which calls no BLAS, takes every CPU either way
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        monkeypatch.setattr(census, "_foreign_threads", lambda: 0)
        assert census._worker_count() == census._cpu_count() == 3
        monkeypatch.setattr(census, "_foreign_threads", lambda: 2)
        assert (census._worker_count(), census._cpu_count()) == (1, 3)

    def test_python_threads_are_not_foreign(self):
        before = census._foreign_threads()
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            assert census._foreign_threads() == before
        finally:
            stop.set()
            thread.join()

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="forks; Linux only")
    # Python 3.12 warns of any fork in a process that runs threads
    @pytest.mark.filterwarnings("ignore:This process .* is multi-threaded:DeprecationWarning")
    def test_pool_remade_after_fork(self, monkeypatch):
        # a forked child inherits the pool's object but not its threads;
        # sent there, its tasks would wait forever
        monkeypatch.setattr(census, "_worker_count", lambda: 2)
        rows, _ = upper_bitset(np.random.default_rng(11), 600, 0.5)
        t = _triangles_tiles(rows)[0]
        assert census._pool
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                code = 0 if _triangles_tiles(rows)[0] == t else 3
            finally:
                os._exit(code)
        deadline = time.monotonic() + 30
        while True:
            done, status = os.waitpid(pid, os.WNOHANG)
            if done:
                break
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                pytest.fail("the forked child's tile census did not finish in 30 s")
            time.sleep(0.02)
        assert os.waitstatus_to_exitcode(status) == 0

    def test_fresh_import_frees_the_old_module(self):
        # nothing process-wide may hold on to a copy of the module, or to its
        # pool, once it is dropped: a re-import would leak the pool's threads
        spec = importlib.util.find_spec("triprofile.census")
        copy = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(copy)
        ref = weakref.ref(copy._band_pool)
        thread = copy._band_pool(1).submit(threading.current_thread).result()
        assert thread is not threading.current_thread()
        del copy
        gc.collect()
        assert ref() is None
        thread.join(30)
        assert not thread.is_alive()

    def test_refuses_sums_float32_cannot_hold(self):
        # from 65 536 vertices a masked row sum could pass 2^24; an all-zero
        # bitset, broadcast from one word, just below
        n = (1 << 24) // census._TILE
        with pytest.raises(DomainError, match="exact below 65536 vertices, not at n=65536"):
            _triangles_tiles(np.broadcast_to(np.uint64(0), (n, (n + 63) >> 6)))
        t, cols, work = _triangles_tiles(np.broadcast_to(np.uint64(0), (n - 1, (n + 62) >> 6)))
        assert (t, int(cols.sum()), work) == (0, 0, (0, 256 * 257 // 2, 0))

    def test_complete_above_float32_integers(self):
        # C(2000,3) = 1 331 334 000 is far above 2^24: the tile sums must not
        # be taken in float32 beyond one row
        rows, _ = upper_bitset(np.random.default_rng(0), 2000, 1.0)
        t, cols, _ = _triangles_tiles(rows)
        assert t == math.comb(2000, 3) == 1331334000
        assert cols.tolist() == list(range(2000))

    def test_tile_sums_exact_up_to_the_bitset_cap(self):
        # every masked row sum is at most _TILE * n, exact in float32 below 2^24
        n = math.isqrt(census._BITSET_MAX_BYTES // 8 * 64)
        while not census._bitset_fits(n):
            n -= 1
        assert not census._bitset_fits(n + 1)
        assert census._TILE * n < 1 << 24


class TestDensities:
    def test_c5(self):
        d = densities(census_fast(cycle(5)))
        assert d.profile == (0.0, 0.5, 0.5, 0.0)
        assert d.d_e == 0.5

    def test_k3(self):
        d = densities(census_fast(Graph.complete(3)))
        assert d.profile == (0.0, 0.0, 0.0, 1.0) and d.d_e == 1.0

    def test_empty(self):
        d = densities(census_fast(Graph.empty(12)))
        assert d.profile == (1.0, 0.0, 0.0, 0.0) and d.d_e == 0.0

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_fewer_than_three_vertices(self, n):
        with pytest.raises(DomainError, match=f"^densities need at least 3 vertices "
                                              f"\\(got n={n}\\)$"):
            densities(census.TripleCensus(n, 0, 0, 0, 0))

    def test_edge_density_cross_check(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            n = int(rng.integers(3, 50))
            g = gnp(rng, n, float(rng.random()))
            d = densities(census_fast(g))
            assert abs(d.d_e - g.m / math.comb(n, 2)) <= 1e-12


class TestStepGraphon:
    def test_validation(self):
        with pytest.raises(DomainError):
            StepGraphon([0.5, 0.6], [[0, 1], [1, 0]])
        with pytest.raises(DomainError):
            StepGraphon([0.5, 0.5], [[0, 1], [0.9, 0]])
        with pytest.raises(DomainError):
            StepGraphon([0.5, 0.5], [[0, 2], [2, 0]])
        with pytest.raises(DomainError):
            StepGraphon([1.0, -0.0], [[1, 0], [0, 0]])

    SIZES_TEXT = "block sizes must be positive reals"
    PROBS_TEXT = "block densities must lie in [0, 1]"
    SQUARE_TEXT = "probs must be a square matrix matching sizes"
    OK2 = [[0.0, 1.0], [1.0, 0.0]]

    # texts recorded before the constructor was rewritten
    @pytest.mark.parametrize("sizes,probs,text", [
        ([], [], "a step graphon needs at least one block"),
        ([1.0, 0.0], OK2, SIZES_TEXT),
        ([1.0, -0.0], OK2, SIZES_TEXT),
        ([1.5, -0.5], OK2, SIZES_TEXT),
        ([1.0, math.nan], OK2, SIZES_TEXT),
        ([1.0, math.inf], OK2, SIZES_TEXT),
        ([1.0, -math.inf], OK2, SIZES_TEXT),
        ([0.5, 0.5 + 2e-12], OK2, "block sizes must sum to 1 (got 1.000000000002)"),
        ([0.5, 0.5], [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0]], SQUARE_TEXT),
        ([0.5, 0.5], [[0.0]], SQUARE_TEXT),
        ([0.5, 0.5], [[0.0, math.nan], [math.nan, 0.0]], PROBS_TEXT),
        ([0.5, 0.5], [[0.0, math.inf], [math.inf, 0.0]], PROBS_TEXT),
        ([0.5, 0.5], [[0.0, -0.1], [-0.1, 0.0]], PROBS_TEXT),
        ([0.5, 0.5], [[0.0, 1.1], [1.1, 0.0]], PROBS_TEXT),
        ([0.5, 0.5], [[0.0, 0.5], [math.nextafter(0.5, 1), 0.0]],
         "probs must be exactly symmetric"),
    ])
    def test_validation_messages(self, sizes, probs, text):
        with pytest.raises(DomainError) as exc:
            StepGraphon(sizes, probs)
        assert str(exc.value) == text

    @pytest.mark.parametrize("sizes,probs,text", [
        ([0.5, 0.5], [[1, 0], [0]], "probs must be a rectangular array of real numbers"),
        ("abc", [[1]], "sizes must be a rectangular array of real numbers"),
        ([0.5, 0.5], [[1, 0], [0, {}]], "probs must be a rectangular array of real numbers"),
        ([[0.5], [0.5]], [[1, 0], [0, 1]],
         "sizes must be a one-dimensional list of block weights"),
        (1.0, [[1]], "sizes must be a one-dimensional list of block weights"),
    ])
    def test_not_numbers_or_not_flat(self, sizes, probs, text):
        with pytest.raises(DomainError) as exc:
            StepGraphon(sizes, probs)
        assert str(exc.value) == text

    def test_keeps_private_read_only_copies(self):
        sizes = np.array([0.25, 0.75])
        probs = np.array([[1.0, 0.5], [0.5, 0.0]])
        w = StepGraphon(sizes, probs)
        sizes[0] = 0.5
        probs[:] = 0.0
        assert w.sizes.tolist() == [0.25, 0.75]
        assert w.probs.tolist() == [[1.0, 0.5], [0.5, 0.0]]
        for arr in (w.sizes, w.probs):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0.0

    def test_constant_graphon_binomial(self):
        for p in (0.0, 0.2, 0.5, 0.77, 1.0):
            d = graphon_densities(StepGraphon([1.0], [[p]]))
            q = 1 - p
            want = (q ** 3, 3 * p * q * q, 3 * p * p * q, p ** 3)
            assert max(abs(a - b) for a, b in zip(d.profile, want)) <= 1e-15

    def test_two_equal_cliques(self):
        d = graphon_densities(StepGraphon([0.5, 0.5], [[1, 0], [0, 1]]))
        assert d.profile == (0.0, 0.75, 0.0, 0.25)

    def test_balanced_tripartite(self):
        w = StepGraphon([1 / 3] * 3, 1.0 - np.eye(3))
        d = graphon_densities(w)
        # six ordered triples of distinct blocks out of 27
        assert abs(d.d3 - 2 / 9) <= 1e-15
        assert abs(d.d_e - 2 / 3) <= 1e-15
        # agrees with the edge-triangle envelope's closed form at 2/3
        s = math.sqrt(4 - 6 * (2 / 3))
        assert abs(d.d3 - (1 - s) * (2 + s) ** 2 / 18) <= 1e-12

    def test_complementation(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            b = int(rng.integers(1, 5))
            raw = rng.random(b) + 0.1
            sizes = raw / raw.sum()
            sizes[-1] = 1.0 - sizes[:-1].sum()
            u = rng.random((b, b))
            P = np.triu(u) + np.triu(u, 1).T
            w = StepGraphon(sizes, P)
            d = graphon_densities(w)
            dc = graphon_densities(w.complement())
            assert max(abs(a - b_) for a, b_ in
                       zip(dc.profile, d.profile[::-1])) <= 1e-12

    def test_normalization_random(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            b = int(rng.integers(1, 5))
            raw = rng.random(b) + 0.1
            sizes = raw / raw.sum()
            sizes[-1] = 1.0 - sizes[:-1].sum()
            u = rng.random((b, b))
            w = StepGraphon(sizes, np.triu(u) + np.triu(u, 1).T)
            d = graphon_densities(w)
            assert abs(sum(d.profile) - 1.0) <= 1e-12
            assert abs(d.d_e - (d.d1 + 2 * d.d2 + 3 * d.d3) / 3) <= 1e-12
            # linear upper bound and quadratic lower bound at the limit
            assert d.d1 <= 3 * d.d3 + 0.375 + 1e-12
            assert d.d3 >= d.d_e * (2 * d.d_e - 1) - 1e-12


def exact_profile(w) -> list:
    """(d0, d1, d2, d3) as Fractions: the triple sum over ordered blocks."""
    s = [Fraction(x) for x in w.sizes.tolist()]
    P = [[Fraction(x) for x in row] for row in w.probs.tolist()]
    out = [Fraction(0)] * 4
    b = len(s)
    for i in range(b):
        for j in range(b):
            for k in range(b):
                wt = s[i] * s[j] * s[k]
                x, y, z = P[i][j], P[j][k], P[i][k]
                u, v, t = 1 - x, 1 - y, 1 - z
                terms = (u * v * t, x * v * t + u * y * t + u * v * z,
                         x * y * t + x * v * z + u * y * z, x * y * z)
                out = [o + wt * e for o, e in zip(out, terms)]
    return out


def ulps_from(got: float, want: Fraction) -> Fraction:
    """|got - want| in units of the last place of the float nearest want."""
    if want == 0:
        return Fraction(0) if got == 0 else Fraction(math.inf)
    return abs(Fraction(got) - want) / Fraction(math.ulp(float(want)))


class TestGraphonDensities:
    @pytest.mark.parametrize("seed", [11, 12])
    def test_within_4_ulp_of_fraction_oracle(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(260):
            w = random_step_graphon(rng)
            got = graphon_densities(w).profile
            assert min(got) >= 0.0
            for g, want in zip(got, exact_profile(w)):
                assert ulps_from(g, want) <= 4, (w.sizes, w.probs)

    @pytest.mark.parametrize("sizes,probs,want", [
        ([0.5, 0.5], [[1, 0], [0, 1]], (0.0, 0.75, 0.0, 0.25)),
        ([1 / 3] * 3, 1.0 - np.eye(3), (1 / 9, 0.0, 2 / 3, 2 / 9)),
        ([1.0], [[0.0]], (1.0, 0.0, 0.0, 0.0)),
        ([1.0], [[1.0]], (0.0, 0.0, 0.0, 1.0)),
    ])
    def test_zero_one_graphons_exact(self, sizes, probs, want):
        got = graphon_densities(StepGraphon(sizes, probs)).profile
        assert got == want
        assert min(got) >= 0.0

    def test_fast_equals_brute(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            w = random_step_graphon(rng, max_blocks=64)
            assert graphon_densities(w).max_deviation(graphon_densities_brute(w)) <= 1e-15

    def test_many_blocks_in_quadratic_memory(self, tmp_path, capsys):
        b = 512
        w = StepGraphon([1 / b] * b, 1.0 - np.eye(b))
        tracemalloc.start()
        try:
            d = graphon_densities(w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the B^3 broadcast needs about 4 GB here
        assert peak < 32 * 2 ** 20
        assert d.profile == (1 / b ** 2, 0.0, 3 * (b - 1) / b ** 2,
                             (b - 1) * (b - 2) / b ** 2)
        path = tmp_path / "multipartite.json"
        write_step_graphon(w, path)
        assert main(["census", "--graphon", str(path)]) == 0
        capsys.readouterr()


def csr_sha256(g):
    return hashlib.sha256(g._indptr.tobytes() + g._nbrs.tobytes()).hexdigest()


class TestGoldenCSR:
    """Seeded graphs keep their exact CSR bytes across refactors.

    The digests were recorded before the single-sort ``from_edges`` and the
    shared block sampler; any change to the sampler's draw order or to the
    CSR layout shows up here.
    """

    W2 = StepGraphon([0.4, 0.6], [[0.7, 0.2], [0.2, 0.5]])

    @pytest.mark.parametrize("seed,digest", [
        (0, "f0cd00c7978a6c3affbe4f2e26e3a7d7986dc5870d534ff843e5c4230c81ba02"),
        (1, "c7795857432759047c6a2be5e863a7bc1ef315637d0dbabb7ecfbbe9479dc100"),
    ])
    def test_w_random_graph(self, seed, digest):
        assert csr_sha256(sample_w_random_graph(self.W2, 300, seed)) == digest

    @pytest.mark.parametrize("x,seed,digest", [
        (0.03, 5, "c80b3a81d4761a68513ebaa3a30dcb9bfc3d61af26108f4dafcdcb95c8b9c8d9"),
        (0.08, None, "edf314b40ec7b3230b1f4e79dce802e004805627160735f126f00d6827c425de"),
    ])
    def test_realize_g0(self, x, seed, digest):
        g = realize(FamilySpec("g0", {"x": x}, n=400, seed=seed))
        assert csr_sha256(g) == digest

    def test_realize_g1(self):
        # sampled base parts with universal vertices joined after the draw
        g = realize(FamilySpec("g1", {"a": 0.3, "x": 0.03}, n=400, seed=5))
        assert csr_sha256(g) == (
            "67d1417f9a711de610eb8ce3f10bb42174df44b28332e55cd9190c0ac82f575a")

    @pytest.mark.parametrize("family,params,digest", [
        ("g2", {"a": 0.3, "p": 0.6},
         "b6ad7d6516dfa3fe60a19f8b5dee1325a7b6b910a1d6dd8249896a9499b37b4f"),
        ("g2", {"a": 0.3, "p": 1.0},
         "a830169cfa9a1f1f9893b0de8cbe7a72e72b12cfa36d752f1a9c1b9d99bdb15b"),
        ("s12", {"a": 0.5, "p": 0.3},
         "d52236d0fdb29ed805b77578fd8244cd43104db8a59f19532e0d888b5328dbc9"),
        ("s12", {"a": 0.5, "p": 1.0},
         "276380ac1298e098eba0c2843d51340286f7f6ba8198169f72d26575fccff2aa"),
    ])
    def test_realize_two_blocks(self, family, params, digest):
        # the floor-rounded blow-up of the limit graphon, sampled and 0/1
        g = realize(FamilySpec(family, params, n=400, seed=5))
        assert csr_sha256(g) == digest

    def test_complete(self):
        assert csr_sha256(Graph.complete(50)) == (
            "2301b88681b7252b3117d9683aed7b7f92f7b2be967c902d55919573f78537fc")


class TestSampling:
    def test_complete_and_empty(self):
        w1 = StepGraphon([0.3, 0.7], np.ones((2, 2)))
        assert sample_w_random_graph(w1, 30, 1) == Graph.complete(30)
        w0 = StepGraphon([1.0], [[0.0]])
        assert sample_w_random_graph(w0, 30, 1) == Graph.empty(30)

    def test_deterministic(self):
        w = StepGraphon([0.5, 0.5], [[0.9, 0.1], [0.1, 0.7]])
        a = sample_w_random_graph(w, 120, 99)
        b = sample_w_random_graph(w, 120, 99)
        c = sample_w_random_graph(w, 120, 100)
        assert a == b
        assert a != c

    def test_two_block_concentration(self):
        w = StepGraphon([0.5, 0.5], [[1, 0], [0, 1]])
        d = densities(census_fast(sample_w_random_graph(w, 2000, 7)))
        want = (0.0, 0.75, 0.0, 0.25)
        assert max(abs(a - b) for a, b in zip(d.profile, want)) <= 0.02

    def test_refuses_before_drawing(self):
        # the vertex limit and the seed are checked before any uniform is
        # drawn: n = 10**12 would need 7.3 TiB for its block uniforms alone
        w = StepGraphon([1.0], [[0.5]])
        tracemalloc.start()
        try:
            for n in (10 ** 12, (1 << 26) + 1):
                with pytest.raises(DomainError, match=f"vertex count {n} too large"):
                    sample_w_random_graph(w, n, 0)
            assert tracemalloc.get_traced_memory()[1] < 1 << 20
        finally:
            tracemalloc.stop()
        with pytest.raises(DomainError, match=r"seed must be nonnegative \(got -3\)"):
            sample_w_random_graph(w, 10, -3)

    @pytest.mark.parametrize("n,seed,text", [
        (10.5, 1, r"n must be an integer \(got 10\.5\)"),
        (10.0, 1, r"n must be an integer \(got 10\.0\)"),
        (10, 1.5, r"seed must be an integer \(got 1\.5\)"),
        (10, "1", r"seed must be an integer \(got '1'\)"),
    ])
    def test_refuses_non_integer_n_or_seed(self, n, seed, text):
        with pytest.raises(DomainError, match=text):
            sample_w_random_graph(StepGraphon([1.0], [[0.5]]), n, seed)

    def test_numpy_integers_accepted(self):
        w = StepGraphon([0.5, 0.5], [[0.9, 0.1], [0.1, 0.7]])
        assert (sample_w_random_graph(w, np.int32(120), np.uint64(99))
                == sample_w_random_graph(w, 120, 99))

    def test_refuses_too_many_edges_before_drawing(self):
        # d_e * C(50000, 2) = 6.25e8 edges at 84 bytes each is 52 GB
        w = StepGraphon([1.0], [[0.5]])
        tracemalloc.start()
        try:
            with pytest.raises(DomainError, match=(
                    r"too large to draw: n=50000 would have about 6\.25e\+08 edges"
                    r" \(5\.25e\+10 bytes at 84 an edge\), over the 17179869184-byte")):
                sample_w_random_graph(w, 50000, 0)
            assert tracemalloc.get_traced_memory()[1] < 1 << 20
        finally:
            tracemalloc.stop()

    def test_finite_size_flag_inequality(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            n = int(rng.integers(50, 200))
            g = gnp(rng, n, float(rng.random()))
            d = densities(census_fast(g))
            assert d.d1 <= 3 * d.d3 + 0.375 + 10.0 / n


class TestFiles:
    def test_round_trip(self, tmp_path):
        g = cycle(7)
        p = tmp_path / "g.edges"
        write_edge_list(g, p)
        assert read_edge_list(p) == g

    @pytest.mark.parametrize("n,p", [(0, 0.0), (5, 0.0), (300, 0.5)])
    def test_write_same_bytes_as_one_line_a_call(self, monkeypatch, tmp_path, n, p):
        # the block writer against a writer of one f.write per edge, with
        # blocks of 7 lines, so a block boundary falls inside the edges
        g = sample_w_random_graph(StepGraphon([1.0], [[p]]), n, 4) if n else Graph.empty(0)
        want = tmp_path / "want.edges"
        with open(want, "w", encoding="utf-8", newline="\n") as f:
            f.write(f"n {g.n}\n")
            for u, v in g.edges():
                f.write(f"{u} {v}\n")
        for lines in (census._WRITE_LINES, 7):
            monkeypatch.setattr(census, "_WRITE_LINES", lines)
            got = tmp_path / f"got{lines}.edges"
            write_edge_list(g, got)
            assert got.read_bytes() == want.read_bytes()

    def test_directive_allows_isolated(self, tmp_path):
        p = tmp_path / "g.edges"
        p.write_text("# comment\nn 6\n0 1\n")
        g = read_edge_list(p)
        assert g.n == 6 and g.m == 1

    def test_self_loop_line_number(self, tmp_path):
        p = tmp_path / "bad.edges"
        p.write_text("0 1\n3 3\n")
        with pytest.raises(InputFormatError, match="line 2"):
            read_edge_list(p)

    def test_duplicate_line_number(self, tmp_path):
        p = tmp_path / "bad.edges"
        p.write_text("0 1\n2 3\n1 0\n")
        with pytest.raises(InputFormatError, match="line 3"):
            read_edge_list(p)

    def test_directive_range_check(self, tmp_path):
        p = tmp_path / "bad.edges"
        p.write_text("n 3\n0 5\n")
        with pytest.raises(InputFormatError, match="line 2"):
            read_edge_list(p)

    @pytest.mark.parametrize("text,line,message", [
        # a duplicate before another error is the first offending line
        ("0 1\n1 0\n3 3\n", 2, "duplicate edge 1 0"),
        ("0 1\n2 3\n0 1\n4\n", 3, "duplicate edge 0 1"),
        ("0 1\n1 0\nx y\n", 2, "duplicate edge 1 0"),
        ("n 5\n0 1\n1 0\n0 7\n", 3, "duplicate edge 1 0"),
        ("0 1\n1 0\nn 4\n", 2, "duplicate edge 1 0"),
        # and the other way round
        ("0 1\n3 3\n1 0\n", 2, "self-loop 3 3"),
        ("0 1\n4\n1 0\n", 2, "expected '<u> <v>'"),
        ("0 1\nx y\n1 0\n", 2, "endpoints are not integers"),
        ("n 5\n0 1\n0 7\n1 0\n", 3, "vertex id exceeds declared count 5"),
        ("0 1\n-1 2\n1 0\n", 2, "negative vertex id"),
        # a reversed duplicate names its second line
        ("# c\n2 5\n0 1\n\n5 2\n", 5, "duplicate edge 5 2"),
        ("2 5\n0 1\n5 2\n2 5\n", 3, "duplicate edge 5 2"),
        # ids an int64 endpoint array cannot hold
        ("0 1\n2 100000000000000000000\n", 2, "vertex id too large"),
        ("0 1\n9223372036854775808 2\n", 2, "vertex id too large"),
        ("0 1\n1 0\n2 100000000000000000000\n", 2, "duplicate edge 1 0"),
        # ids and counts beyond the vertex limit, whose keys would overflow
        # or whose graph could not be allocated
        ("0 999999999999999999\n70368744177664 999999999999999999\n", 1,
         "vertex id too large"),
        ("0 1000000000000\n", 1, "vertex id too large"),
        (f"0 1\n2 {census._MAX_VERTICES}\n", 2, "vertex id too large"),
        (f"n {census._MAX_VERTICES + 1}\n0 1\n", 1, "vertex count too large"),
        ("n 5\nn 5\n0 1\n", 2, "duplicate 'n' directive"),
        ("n x\n0 1\n", 1, "vertex count is not an integer"),
        ("n -3\n0 1\n", 1, "negative vertex count"),
    ])
    def test_first_offending_line(self, tmp_path, text, line, message):
        p = tmp_path / "bad.edges"
        p.write_text(text)
        with pytest.raises(InputFormatError) as err:
            read_edge_list(p)
        assert str(err.value) == f"line {line}: {message}"

    @pytest.mark.parametrize("data,line", [
        (b"0 1\n\xff\xfe 2\n", 2),
        (b"# caf\xe9\n0 1\n", 1),
        # a duplicate before the bad line is the first offending line
        (b"0 1\n1 0\n2 3\n\xff\n", 2),
        (b"".join(b"%d %d\n" % (i, i + 1) for i in range(0, 8000, 2))
         + b"1 \xc3\n", 4001),
        # CR ends a line as LF and CRLF do
        (b"0 1\r1 2\r\xff 3\r", 3),
        (b"0 1\r\n1 2\r\n\xff 3\r\n", 3),
    ], ids=["endpoint", "comment", "after-duplicate", "late", "cr", "crlf"])
    def test_not_utf8(self, tmp_path, data, line):
        p = tmp_path / "bad.edges"
        p.write_bytes(data)
        with pytest.raises(InputFormatError, match=f"^line {line}: "):
            read_edge_list(p)

    def test_graphon_not_utf8(self, tmp_path):
        p = tmp_path / "w.json"
        p.write_bytes(b'{"sizes": [1.0], "probs": [[0.5]]} \xff')
        with pytest.raises(InputFormatError, match="not a valid step-graphon"):
            read_step_graphon(p)

    def test_graphon_round_trip(self, tmp_path):
        w = StepGraphon([0.25, 0.75], [[1.0, 0.5], [0.5, 0.0]])
        p = tmp_path / "w.json"
        write_step_graphon(w, p)
        w2 = read_step_graphon(p)
        assert np.array_equal(w.sizes, w2.sizes)
        assert np.array_equal(w.probs, w2.probs)

    def test_graphon_validation_errors(self, tmp_path):
        p = tmp_path / "w.json"
        p.write_text('{"sizes": [0.5, 0.5], "probs": [[0, 1], [0.5, 0]]}')
        with pytest.raises(InputFormatError, match="symmetric"):
            read_step_graphon(p)
        p.write_text("not json")
        with pytest.raises(InputFormatError):
            read_step_graphon(p)
        p.write_text('{"sizes": [1.0]}')
        with pytest.raises(InputFormatError, match="probs"):
            read_step_graphon(p)

    @pytest.mark.parametrize("doc,key", [
        ('{"sizes": ["0.5", "0.5"], "probs": [[1, 0], [0, 1]]}', "sizes"),
        ('{"sizes": [1], "probs": [[true]]}', "probs"),
        ('{"sizes": [1], "probs": [[null]]}', "probs"),
    ])
    def test_graphon_leaves_must_be_json_numbers(self, tmp_path, doc, key):
        # numpy's float conversion reads "0.5" and true as numbers
        p = tmp_path / "w.json"
        p.write_text(doc)
        with pytest.raises(InputFormatError, match=(
                f"^invalid step graphon: {key} must be a rectangular array of real numbers$")):
            read_step_graphon(p)


def line_loop_graph(path) -> Graph:
    """read_edge_list by the line loop alone: the parser without a fast path."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            n, ends = census._parse_edge_lines(f)
    except UnicodeDecodeError:
        with open(path, "rb") as f:
            n, ends = census._parse_edge_lines(census._utf8_lines(f.read()))
    edges = np.frombuffer(ends, dtype=np.int64).reshape(-1, 2)
    if n is None:
        n = int(edges.max()) + 1 if edges.size else 0
    return Graph.from_edges(n, edges)


def parse_outcome(read, path) -> tuple:
    """The graph's n and CSR bytes, the InputFormatError text, or the type raised."""
    try:
        g = read(path)
    except InputFormatError as err:
        return ("InputFormatError", str(err))
    except Exception as err:    # compared by type across the two paths
        return (type(err).__name__,)
    return (g.n, g._indptr.tobytes(), g._nbrs.tobytes())


# name -> (file bytes, whether the numpy path takes it)
PARSE_CASES = {
    "crlf": (b"n 4\r\n0 1\r\n2 3\r\n", True),
    "crlf-comment": (b"# c\r\n0 1\r\n1 2\r\n", True),
    "lone-cr": (b"0 1\r2 3\r", True),
    "lone-cr-splits-edge": (b"0\r1\n", False),
    "cr-after-directive": (b"n 5\r0 1\n", True),
    "form-feed-comment": (b"# h\x0cn 12\n0 1\n", True),
    "tabs": (b"0\t1\n\t2 \t 3\t\n", True),
    "leading-zeros": (b"n 0012\n007 0011\n00 1\n", True),
    "no-final-newline": (b"0 1\n1 2", True),
    "blank-lines": (b"\n\n0 1\n\n \t\n2 3\n\n", True),
    "header-only": (b"# only\n\nn 5\n", True),
    "empty": (b"", True),
    "18-digits": (b"n 3\n000000000000000002 1\n", True),
    "19-digits": (b"n 3\n0000000000000000002 1\n", False),
    "late-comment": (b"0 1\n# c\n1 2\n", False),
    "plus": (b"+1 2\n", False),
    "underscore": (b"1_0 2\n", False),
    "arabic-digit": ("\u0663 1\n".encode(), False),
    "nbsp": ("0\u00a01\n".encode(), False),
    "vertical-tab": (b"0\x0b1\n", False),
    "self-loop": (b"0 1\n2 2\n", True),
    "duplicate": (b"0 1\n2 3\n1 0\n", True),
    "out-of-range": (b"n 3\n0 1\n1 3\n", True),
    "three-tokens": (b"0 1\n1 2 3\n", False),
    "four-tokens": (b"0 1 2 3\n", False),
    "comment-no-space": (b"#c\n0 1\n", True),
    "indented-header": (b"  # c\n\t n 3\n0 1\n", True),
    "bad-header": (b"n 3 4\n0 1\n", False),
    "bad-header-utf8": (b"# \xff\n0 1\n", False),
}

# what the fuzz inserts, or puts in place of a byte
FUZZ_PIECES = ([bytes([c]) for c in b"0123456789 \t\r\n#n-+_\x0b\x0c\x1c\x85\xff"]
               + [b"\r\n", "\u0085".encode(), "\u00a0".encode(), b"9" * 18,
                  b"1" + b"0" * 18, b"0" * 18 + b"7"])


@st.composite
def mutated_edge_files(draw) -> bytes:
    """A valid file with a fixed "n 50" header and mutated lines after it.

    The header stays intact, so no mutation makes the vertex count large.
    """
    pairs = st.tuples(st.integers(0, 49), st.integers(0, 49)).filter(lambda e: e[0] != e[1])
    edges = draw(st.lists(pairs, max_size=25, unique_by=lambda e: frozenset(e)))
    eol = draw(st.sampled_from([b"\n", b"\r\n", b"\r"]))
    sep = draw(st.sampled_from([b" ", b"\t", b"  ", b" \t "]))
    width = draw(st.sampled_from([1, 3]))
    head = b"n 50" + eol
    body = bytearray(draw(st.sampled_from([b"", b"# c" + eol, eol])))
    body += eol.join(b"%0*d%s%0*d" % (width, u, sep, width, v) for u, v in edges)
    body += draw(st.sampled_from([b"", eol]))
    for _ in range(draw(st.integers(0, 4))):
        at = draw(st.integers(0, len(body)))
        op = draw(st.sampled_from(["insert", "delete", "replace"]))
        piece = draw(st.sampled_from(FUZZ_PIECES))
        if op == "insert":
            body[at:at] = piece
        elif op == "delete":
            del body[at:at + 1]
        else:
            body[at:at + 1] = piece
    return head + bytes(body)


@pytest.fixture(scope="class")
def edge_path(tmp_path_factory):
    return tmp_path_factory.mktemp("parse") / "g.edges"


class TestParsePaths:
    """The numpy parse path against the line loop it falls back to."""

    @pytest.mark.parametrize("name", sorted(PARSE_CASES))
    def test_named_cases(self, edge_path, name):
        data, fast = PARSE_CASES[name]
        edge_path.write_bytes(data)
        assert parse_outcome(read_edge_list, edge_path) == parse_outcome(line_loop_graph, edge_path)
        assert (census._parse_edge_bytes(data) is not None) == fast

    def test_named_results(self, edge_path):
        expect = {"lone-cr-splits-edge": "line 1: expected '<u> <v>'",
                  "19-digits": None, "self-loop": "line 2: self-loop 2 2",
                  "duplicate": "line 3: duplicate edge 1 0",
                  "out-of-range": "line 3: vertex id exceeds declared count 3"}
        for name, message in expect.items():
            edge_path.write_bytes(PARSE_CASES[name][0])
            if message is None:
                assert read_edge_list(edge_path) == Graph.from_edges(3, [(2, 1)])
            else:
                with pytest.raises(InputFormatError) as err:
                    read_edge_list(edge_path)
                assert str(err.value) == message
        for name, n, edges in (("form-feed-comment", 2, [(0, 1)]),
                               ("cr-after-directive", 5, [(0, 1)]),
                               ("leading-zeros", 12, [(7, 11), (0, 1)]),
                               ("header-only", 5, []), ("empty", 0, [])):
            edge_path.write_bytes(PARSE_CASES[name][0])
            assert read_edge_list(edge_path) == Graph.from_edges(n, edges), name

    @settings(max_examples=400, deadline=None)
    @given(mutated_edge_files(), st.sampled_from([census._EDGE_CHUNK, 1, 9]),
           st.sampled_from([1, 2]))
    def test_fuzz_agrees_with_line_loop(self, edge_path, data, chunk, workers):
        edge_path.write_bytes(data)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(census, "_EDGE_CHUNK", chunk)
            mp.setattr(census, "_cpu_count", lambda: workers)
            assert (parse_outcome(read_edge_list, edge_path)
                    == parse_outcome(line_loop_graph, edge_path))

    @pytest.mark.parametrize("chunks", [5, 6])
    @pytest.mark.parametrize("chunk", [64, census._EDGE_CHUNK])
    def test_workers_agree(self, monkeypatch, chunk, chunks):
        # fixed-width 14-byte lines: a chunk is chunk // 14 + 1 whole lines
        monkeypatch.setattr(census, "_EDGE_CHUNK", chunk)
        per = chunk // 14 + 1
        m = per * (chunks - 1) + 3
        i = np.random.default_rng(25).permutation(m)
        edges = np.column_stack([i % 1000, 1000 + i // 1000])
        lines = [b"%06d %06d\n" % (u, v) for u, v in edges.tolist()]
        data = b"".join(lines)
        threads = {}
        parse = census._parse_edge_chunk

        def recorded(chunk_bytes):
            threads[chunk_bytes[:14]] = threading.current_thread() is threading.main_thread()
            return parse(chunk_bytes)

        monkeypatch.setattr(census, "_parse_edge_chunk", recorded)
        for workers in (1, 2):
            threads.clear()
            monkeypatch.setattr(census, "_cpu_count", lambda: workers)
            n, ends = census._parse_edge_bytes(data)
            assert n is None and ends.dtype == np.int64 and np.array_equal(ends, edges)
            # chunk k on the calling thread, unless k is odd and a helper runs
            firsts = [lines[k * per] for k in range(chunks)]
            assert [threads[f] for f in firsts] == [workers == 1 or k % 2 == 0
                                                    for k in range(chunks)]

    @pytest.mark.parametrize("chunk", [1, 10, 64, 1 << 23])
    def test_chunks(self, monkeypatch, edge_path, chunk):
        monkeypatch.setattr(census, "_EDGE_CHUNK", chunk)
        g = gnp(np.random.default_rng(5), 60, 0.2)
        write_edge_list(g, edge_path)
        good = edge_path.read_bytes()
        assert census._parse_edge_bytes(good) is not None
        assert read_edge_list(edge_path) == g
        # a bad byte in the first chunk the calling thread parses, and in the
        # first a helper parses, sends the file to the line loop, which names
        # that chunk's first line; 'x' for a digit moves no chunk boundary
        lines = good.split(b"\n")
        firsts = {}
        parse = census._parse_edge_chunk

        def recorded(chunk_bytes):
            on_caller = threading.current_thread() is threading.main_thread()
            firsts.setdefault(on_caller, chunk_bytes.split(b"\n")[0])
            return parse(chunk_bytes)

        with monkeypatch.context() as mp:
            mp.setattr(census, "_cpu_count", lambda: 2)
            mp.setattr(census, "_parse_edge_chunk", recorded)
            census._parse_edge_bytes(good)
            assert set(firsts) == ({True} if chunk == 1 << 23 else {True, False})
            for first in firsts.values():
                k = lines.index(first)
                edge_path.write_bytes(b"\n".join(lines[:k] + [first[:-1] + b"x"] + lines[k + 1:]))
                assert census._parse_edge_bytes(edge_path.read_bytes()) is None
                with pytest.raises(InputFormatError, match=f"^line {k + 1}: endpoints"):
                    read_edge_list(edge_path)
        edge_path.write_bytes(good)
        # a bad byte in the last chunk sends the whole file to the line loop
        with open(edge_path, "ab") as f:
            f.write(b"1 x\n")
        with pytest.raises(InputFormatError, match=f"^line {g.m + 2}: endpoints"):
            read_edge_list(edge_path)

    def test_memory_per_chunk(self, monkeypatch, workers=1):
        # the masks and token positions are O(chunk): the peak is the
        # endpoint arrays (the chunks' and their concatenation) plus little
        monkeypatch.setattr(census, "_cpu_count", lambda: workers)
        monkeypatch.setattr(census, "_EDGE_CHUNK", 1 << 16)
        m = 100_000
        rows = np.arange(m)
        data = b"".join(b"%d %d\n" % (u, u + 1) for u in rows.tolist())
        tracemalloc.start()
        try:
            n, edges = census._parse_edge_bytes(data)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert n is None and np.array_equal(edges[:, 0], rows)
        assert peak < 2 * edges.nbytes + (2 << 20), peak

    def test_memory_per_chunk_two_threads(self, monkeypatch):
        # tracemalloc traces the pool's thread too
        self.test_memory_per_chunk(monkeypatch, workers=2)
