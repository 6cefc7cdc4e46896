import hashlib
import logging
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triprofile import (DomainError, Graph, InputFormatError, StepGraphon,
                        census_brute, census_fast, densities,
                        graphon_densities, read_edge_list, read_step_graphon,
                        sample_w_random_graph, write_edge_list,
                        write_step_graphon)
from triprofile import census
from triprofile.census import (_forward_edges, _triangles_bitset,
                               _triangles_wedges)
from triprofile.constructions import FamilySpec, realize


def cycle(n):
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def gnp(rng, n, p):
    return sample_w_random_graph(StepGraphon([1.0], [[p]]), n, int(rng.integers(2 ** 31)))


class TestGraph:
    def test_from_edges_basic(self):
        g = Graph.from_edges(4, [(0, 1), (2, 1), (3, 0)])
        assert g.n == 4 and g.m == 3
        assert g.neighbors(1).tolist() == [0, 2]
        assert g.has_edge(3, 0) and not g.has_edge(2, 3)

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
        assert [nb.tolist() for nb in g.adjacency] == [sorted(adj[v]) for v in range(12)]

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

    def test_complement(self):
        g = cycle(5)
        gc = g.complement()
        assert gc.m == math.comb(5, 2) - 5
        assert gc.complement() == g


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
    return kernel(g, *_forward_edges(g))


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

    def test_selection(self, monkeypatch):
        chosen = []
        for kernel in (_triangles_bitset, _triangles_wedges):
            monkeypatch.setattr(census, kernel.__name__,
                                lambda g, u, v, k=kernel: chosen.append(k) or k(g, u, v))
        # a long cycle has one wedge; a clique has C(n, 3)
        assert census_fast(cycle(1000)).c3 == 0
        assert census_fast(Graph.complete(100)).c3 == math.comb(100, 3)
        assert chosen == [_triangles_wedges, _triangles_bitset]
        # a bitset above the memory cap is never built
        monkeypatch.setattr(census, "_BITSET_MAX_BYTES", 0)
        assert census_fast(Graph.complete(100)).c3 == math.comb(100, 3)
        assert chosen[-1] is _triangles_wedges

    def test_choice_logged(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="triprofile.census"):
            census_fast(cycle(1000))
        (rec,) = [r for r in caplog.records if r.name == "triprofile.census"]
        assert rec.levelno == logging.DEBUG
        assert rec.getMessage() == ("triangle count: n=1000 m=1000 wedges=1 "
                                    "bitset_words=16000 kernel=wedges")

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
                            lambda g, u, v: chosen.append(1) or _triangles_bitset(g, u, v))
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

    def test_block_degrees(self):
        w = StepGraphon([0.25, 0.75], [[1.0, 0.2], [0.2, 0.4]])
        degs = w.block_degrees()
        assert np.allclose(degs, [0.25 + 0.2 * 0.75, 0.2 * 0.25 + 0.4 * 0.75])

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
        # the text layer fails on the buffer holding line 4 before it hands
        # out line 2, which is the first offending line
        (b"0 1\n1 0\n2 3\n\xff\n", 2),
        # past the text layer's first buffer
        (b"".join(b"%d %d\n" % (i, i + 1) for i in range(0, 8000, 2))
         + b"1 \xc3\n", 4001),
    ], ids=["endpoint", "comment", "after-duplicate", "late"])
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


def line_loop_graph(path) -> Graph:
    """read_edge_list by the line loop alone: the parser without a fast path."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            n, ends = census._parse_edge_lines(f)
    except UnicodeDecodeError:
        with open(path, "rb") as f:
            n, ends = census._parse_edge_lines(census._utf8_lines(f))
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
    @given(mutated_edge_files(), st.sampled_from([census._EDGE_CHUNK, 1, 9]))
    def test_fuzz_agrees_with_line_loop(self, edge_path, data, chunk):
        edge_path.write_bytes(data)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(census, "_EDGE_CHUNK", chunk)
            assert (parse_outcome(read_edge_list, edge_path)
                    == parse_outcome(line_loop_graph, edge_path))

    @pytest.mark.parametrize("chunk", [1, 10, 64, 1 << 23])
    def test_chunks(self, monkeypatch, edge_path, chunk):
        monkeypatch.setattr(census, "_EDGE_CHUNK", chunk)
        g = gnp(np.random.default_rng(5), 60, 0.2)
        write_edge_list(g, edge_path)
        assert census._parse_edge_bytes(edge_path.read_bytes()) is not None
        assert read_edge_list(edge_path) == g
        # a bad byte in the last chunk sends the whole file to the line loop
        with open(edge_path, "ab") as f:
            f.write(b"1 x\n")
        with pytest.raises(InputFormatError, match=f"^line {g.m + 2}: endpoints"):
            read_edge_list(edge_path)

    def test_memory_per_chunk(self, monkeypatch):
        # the masks and token positions are O(chunk): the peak is the
        # endpoint arrays (the chunks' and their concatenation) plus little
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
