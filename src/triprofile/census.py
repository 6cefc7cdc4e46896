"""Exact 3-vertex subgraph censuses of finite graphs and step graphons.

A triple census counts, over all C(n,3) vertex triples of a graph, how many
induce 0, 1, 2 or 3 edges (co-triangle, co-cherry, cherry, triangle).  The
fast path reduces the whole census to a triangle count through exact integer
identities; a brute-force enumerator serves as an independent oracle.  Step
graphons (blockwise-constant symmetric kernels) get the same profile exactly,
as the limit of sampling three independent points.
"""
from __future__ import annotations

import io
import json
import logging
import math
import re
from array import array
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InputFormatError

__all__ = [
    "Graph",
    "TripleCensus",
    "DensityVector",
    "StepGraphon",
    "census_fast",
    "census_brute",
    "densities",
    "graphon_densities",
    "sample_w_random_graph",
    "read_edge_list",
    "write_edge_list",
    "read_step_graphon",
    "write_step_graphon",
]

_SUM_TOL = 1e-12
# Triangle-kernel choice.  On a 2-core Intel Xeon VM (numpy 2.4) the wedge
# kernel costs 25-45 ns per wedge and the bitset kernel 2.4-3.8 ns per
# word-AND, a break-even near 7-19; the wedges run when
# _WEDGE_COST * W < m * words, so graphs near the break-even keep the bitset.
_WEDGE_COST = 20
# The bitset is never allocated beyond this, whatever the graph.
_BITSET_MAX_BYTES = 1 << 28
# Wedges checked at once by the wedge kernel: its scratch memory.
_WEDGE_CHUNK = 1 << 20
# Words in each of the bitset kernel's two row-gather buffers.
_GATHER_WORDS = 1 << 16
# Bytes of an edge-list body the fast parser checks at once: its masks and
# token positions are O(chunk), beside the endpoint array itself.
_EDGE_CHUNK = 1 << 23
# Longest token the fast parser takes: 18 digits stay below 2^63.
_MAX_DIGITS = 18
# Largest vertex id an int64 endpoint array holds.
_INT64_MAX = (1 << 63) - 1
# One line as file iteration in text mode splits it: at \n, \r or \r\n.
_LINE = re.compile(rb"[^\r\n]*(?:\r\n|\r|\n)?")
_EOL = re.compile(rb"[\r\n]")

log = logging.getLogger(__name__)


class Graph:
    """Simple undirected graph on vertices 0..n-1.

    Stored in compressed sparse rows: ``neighbors(v)`` is a sorted int64
    array.  Instances are immutable; build them with :meth:`from_edges`.
    """

    __slots__ = ("n", "_indptr", "_nbrs")

    def __init__(self, n: int, indptr: np.ndarray, nbrs: np.ndarray):
        self.n = int(n)
        self._indptr = indptr
        self._nbrs = nbrs

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        """Build a graph from (u, v) pairs, in any order and orientation.

        ``edges`` is an (m, 2) integer array, taken as it is (no per-row
        copy), or any iterable of pairs (a list of tuples, a generator, the
        ``zip`` from :meth:`edges`).  Raises ``DomainError`` when the input
        is not (u, v) pairs, an endpoint lies outside 0..n-1, an edge is a
        self-loop, or an edge appears twice in either orientation.

        Both orientations' keys ``u*n + v`` are sorted once; equal adjacent
        keys are duplicates, and the sorted keys are the CSR rows.
        """
        if n < 0:
            raise DomainError("vertex count must be nonnegative")
        if not isinstance(edges, np.ndarray):
            edges = list(edges)
        arr = np.asarray(edges, dtype=np.int64)
        if arr.size == 0:
            arr = arr.reshape(0, 2)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise DomainError("edges must be (u, v) pairs")
        if arr.size:
            if arr.min() < 0 or arr.max() >= n:
                raise DomainError("edge endpoint out of range")
            u, v = arr[:, 0], arr[:, 1]
            if np.any(u == v):
                raise DomainError("self-loops are not allowed")
            keys = np.concatenate([u * np.int64(n) + v, v * np.int64(n) + u])
            keys.sort()
            if np.any(keys[1:] == keys[:-1]):
                raise DomainError("duplicate edges are not allowed")
            src, dst = np.divmod(keys, n)
        else:
            src = dst = np.empty(0, dtype=np.int64)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
        return cls(n, indptr, dst)

    @classmethod
    def empty(cls, n: int) -> "Graph":
        return cls.from_edges(n, [])

    @classmethod
    def complete(cls, n: int) -> "Graph":
        iu, ju = np.triu_indices(n, 1)
        return cls.from_edges(n, np.column_stack([iu, ju]))

    @property
    def m(self) -> int:
        """Edge count."""
        return int(self._nbrs.size) // 2

    @property
    def degrees(self) -> np.ndarray:
        return np.diff(self._indptr)

    def neighbors(self, v: int) -> np.ndarray:
        return self._nbrs[self._indptr[v]:self._indptr[v + 1]]

    @property
    def adjacency(self) -> list:
        """Per-vertex sorted neighbor lists."""
        return [self.neighbors(v) for v in range(self.n)]

    def directed_edges(self) -> tuple:
        """Both orientations of every edge as (sources, destinations)."""
        src = np.repeat(np.arange(self.n, dtype=np.int64), self.degrees)
        return src, self._nbrs

    def edges(self):
        """Iterate undirected edges (u, v) with u < v, sorted."""
        src, dst = self.directed_edges()
        keep = src < dst
        return zip(src[keep].tolist(), dst[keep].tolist())

    def has_edge(self, u: int, v: int) -> bool:
        nb = self.neighbors(u)
        i = np.searchsorted(nb, v)
        return i < nb.size and nb[i] == v

    def complement(self) -> "Graph":
        n = self.n
        rows = []
        full = np.arange(n, dtype=np.int64)
        for v in range(n):
            mask = np.ones(n, dtype=bool)
            mask[v] = False
            mask[self.neighbors(v)] = False
            rows.append(full[mask])
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum([r.size for r in rows], out=indptr[1:])
        nbrs = np.concatenate(rows) if rows else np.empty(0, dtype=np.int64)
        return Graph(n, indptr, nbrs)

    def __eq__(self, other):
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and np.array_equal(self._indptr, other._indptr)
            and np.array_equal(self._nbrs, other._nbrs)
        )

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"


@dataclass(frozen=True)
class TripleCensus:
    """Counts of induced 0/1/2/3-edge triples among all C(n,3) triples."""

    n: int
    c0: int
    c1: int
    c2: int
    c3: int

    def __post_init__(self):
        if min(self.c0, self.c1, self.c2, self.c3) < 0:
            raise DomainError("census counts must be nonnegative")
        if self.c0 + self.c1 + self.c2 + self.c3 != math.comb(self.n, 3):
            raise DomainError("census counts must sum to C(n,3)")

    @property
    def counts(self) -> tuple:
        return (self.c0, self.c1, self.c2, self.c3)

    def reversed(self) -> "TripleCensus":
        """Census of the complement graph."""
        return TripleCensus(self.n, self.c3, self.c2, self.c1, self.c0)


@dataclass(frozen=True)
class DensityVector:
    """Induced triple densities (d0..d3) together with the edge density."""

    d0: float
    d1: float
    d2: float
    d3: float
    d_e: float

    def __post_init__(self):
        vals = (self.d0, self.d1, self.d2, self.d3, self.d_e)
        if not all(math.isfinite(v) and -_SUM_TOL <= v <= 1 + _SUM_TOL for v in vals):
            raise DomainError("densities must lie in [0, 1]")
        if abs(self.d0 + self.d1 + self.d2 + self.d3 - 1.0) > _SUM_TOL:
            raise DomainError("triple densities must sum to 1")
        if abs(self.d_e - (self.d1 + 2 * self.d2 + 3 * self.d3) / 3.0) > _SUM_TOL:
            raise DomainError("edge density inconsistent with triple densities")

    @property
    def profile(self) -> tuple:
        return (self.d0, self.d1, self.d2, self.d3)


class StepGraphon:
    """Blockwise-constant symmetric kernel: block weights + density matrix.

    ``sizes`` are positive block weights summing to one; ``probs`` is the
    symmetric matrix of pair densities in [0, 1].
    """

    __slots__ = ("sizes", "probs")

    def __init__(self, sizes, probs):
        s = np.asarray(sizes, dtype=float).reshape(-1)
        P = np.asarray(probs, dtype=float)
        if s.size == 0:
            raise DomainError("a step graphon needs at least one block")
        if np.any(s <= 0) or not np.all(np.isfinite(s)):
            raise DomainError("block sizes must be positive reals")
        if abs(float(s.sum()) - 1.0) > _SUM_TOL:
            raise DomainError(f"block sizes must sum to 1 (got {float(s.sum())!r})")
        if P.shape != (s.size, s.size):
            raise DomainError("probs must be a square matrix matching sizes")
        if not np.all(np.isfinite(P)) or np.any(P < 0) or np.any(P > 1):
            raise DomainError("block densities must lie in [0, 1]")
        if not np.array_equal(P, P.T):
            raise DomainError("probs must be exactly symmetric")
        s = s.copy()
        P = P.copy()
        s.setflags(write=False)
        P.setflags(write=False)
        self.sizes = s
        self.probs = P

    @property
    def num_blocks(self) -> int:
        return int(self.sizes.size)

    def complement(self) -> "StepGraphon":
        return StepGraphon(self.sizes, 1.0 - self.probs)

    def block_degrees(self) -> np.ndarray:
        """Degree of a point in each block: D_i = sum_j s_j P_ij."""
        return self.probs @ self.sizes

    def __repr__(self):
        return f"StepGraphon(blocks={self.num_blocks})"


def _forward_edges(g: Graph) -> tuple:
    """Every edge once, oriented toward the higher (degree, id) rank.

    Returned as (u, v) arrays in CSR order: sorted by u, then by v.
    """
    n = g.n
    order = np.lexsort((np.arange(n), g.degrees))
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n)
    src, dst = g.directed_edges()
    fwd = rank[dst] > rank[src]
    return src[fwd], dst[fwd]


def _triangles_bitset(g: Graph, u: np.ndarray, v: np.ndarray) -> int:
    """Triangles of g from its forward edges (u, v) by bitset intersection.

    Each triangle is counted once, at its lowest-ranked edge, as a common
    forward neighbour of both endpoints.  Memory: n * ceil(n/64) words.
    """
    if u.size == 0:
        return 0
    n = g.n
    words = (n + 63) >> 6
    rows = np.zeros((n, words), dtype=np.uint64)
    flat = rows.reshape(-1)
    bits = np.uint64(1) << (v & 63).astype(np.uint64)
    np.bitwise_or.at(flat, u * words + (v >> 6), bits)
    # Row gathers go into two buffers reused across chunks: fresh chunk-sized
    # temporaries are faulted in anew whenever the allocator has returned
    # their pages, which made this loop's cost depend on earlier allocations.
    # At _GATHER_WORDS words (512 KB) each, the pair stays in cache.
    chunk = min(u.size, max(1, _GATHER_WORDS // words))
    a_buf = np.empty((chunk, words), dtype=np.uint64)
    b_buf = np.empty_like(a_buf)
    total = 0
    for s in range(0, u.size, chunk):
        k = min(chunk, u.size - s)
        a, b = a_buf[:k], b_buf[:k]
        np.take(rows, u[s:s + k], axis=0, out=a, mode="clip")
        np.take(rows, v[s:s + k], axis=0, out=b, mode="clip")
        total += int(np.bitwise_count(np.bitwise_and(a, b, out=a)).sum())
    return total


def _triangles_wedges(g: Graph, u: np.ndarray, v: np.ndarray) -> int:
    """Triangles of g from its forward edges (u, v) by checking wedges.

    For each forward edge (u, v) and each w after v in u's forward row, the
    wedge (v, w) closes a triangle exactly when v*n + w is one of the
    graph's keys src*n + dst, which the CSR holds in sorted order.  Each
    triangle is found once, from its lowest-ranked vertex.  Wedges are
    checked in chunks of about _WEDGE_CHUNK, so memory is O(m) plus one
    chunk.
    """
    n, m = g.n, u.size
    keys, dst = g.directed_edges()     # the sources come in a fresh array
    keys *= n
    keys += dst
    # cnt[e]: wedges of forward edge e, the entries after it in its row
    cnt = np.cumsum(np.bincount(u, minlength=n))[u]
    cnt -= np.arange(1, m + 1)
    ends = np.cumsum(cnt)
    # the r-th wedge of edge e pairs v[e] with v[e + 1 + r]; the wedge's
    # global index is ends[e] - cnt[e] + r
    shift = np.arange(1, m + 1) - (ends - cnt)
    total = 0
    s = 0
    while s < m:
        done = int(ends[s] - cnt[s])
        t = max(s + 1, int(np.searchsorted(ends, done + _WEDGE_CHUNK, side="right")))
        k = int(ends[t - 1]) - done
        if k:
            c = cnt[s:t]
            far = np.repeat(shift[s:t], c)
            far += np.arange(done, done + k)
            q = np.repeat(v[s:t], c)
            q *= n
            q += v[far]
            del far
            # sorted queries walk the keys in order: on sparse graphs, whose
            # keys miss the cache, this cuts the searches' cost by half or more
            q.sort()
            hit = np.take(keys, np.searchsorted(keys, q), mode="clip")
            total += int(np.count_nonzero(hit == q))
        s = t
    return total


def _count_triangles(g: Graph) -> int:
    """Exact triangle count; the kernel is chosen from the graph.

    Vertices are ranked by (degree, id) and each edge is oriented toward the
    higher rank.  With m forward edges, d+ the forward degrees and
    words = ceil(n/64), the bitset kernel does m * words word-ANDs and the
    wedge kernel checks W = sum C(d+, 2) wedges.  The wedge kernel runs when
    _WEDGE_COST * W < m * words, or when the bitset would need more than
    _BITSET_MAX_BYTES, so no input allocates O(n^2) memory.  The choice is
    logged at DEBUG on the "triprofile.census" logger.
    """
    n = g.n
    u, v = _forward_edges(g)
    fdeg = np.bincount(u, minlength=n)
    wedges = int((fdeg * (fdeg - 1) // 2).sum())
    words = (n + 63) >> 6
    bitset_words = u.size * words
    use_wedges = (_WEDGE_COST * wedges < bitset_words
                  or n * words * 8 > _BITSET_MAX_BYTES)
    log.debug("triangle count: n=%d m=%d wedges=%d bitset_words=%d kernel=%s",
              n, u.size, wedges, bitset_words, "wedges" if use_wedges else "bitset")
    kernel = _triangles_wedges if use_wedges else _triangles_bitset
    return kernel(g, u, v)


def census_fast(g: Graph) -> TripleCensus:
    """Exact triple census via counting identities.

    With t triangles, p2 = sum_v C(deg v, 2) cherry-or-triangle centers and
    m edges: c3 = t, c2 = p2 - 3t, c1 = m(n-2) - 2 p2 + 3t, and c0 is the
    remainder to C(n,3).  All arithmetic is exact.
    """
    n = g.n
    if n < 3:
        raise DomainError("graph too small for triple census")
    m = g.m
    # p2 from the degree histogram: at most about sqrt(4m) distinct degrees
    hist = np.bincount(g.degrees)
    degs = np.flatnonzero(hist)
    p2 = sum(d * (d - 1) // 2 * c for d, c in zip(degs.tolist(), hist[degs].tolist()))
    t = _count_triangles(g)
    c3 = t
    c2 = p2 - 3 * t
    c1 = m * (n - 2) - 2 * p2 + 3 * t
    c0 = math.comb(n, 3) - c1 - c2 - c3
    return TripleCensus(n=n, c0=c0, c1=c1, c2=c2, c3=c3)


def census_brute(g: Graph) -> TripleCensus:
    """Oracle census: enumerate every triple and classify by edge count."""
    n = g.n
    if n < 3:
        raise DomainError("graph too small for triple census")
    adj = [set(g.neighbors(v).tolist()) for v in range(n)]
    counts = [0, 0, 0, 0]
    for u in range(n):
        au = adj[u]
        for v in range(u + 1, n):
            av = adj[v]
            uv = v in au
            for w in range(v + 1, n):
                counts[uv + (w in au) + (w in av)] += 1
    return TripleCensus(n=n, c0=counts[0], c1=counts[1], c2=counts[2], c3=counts[3])


def densities(c: TripleCensus) -> DensityVector:
    """Normalize a census to densities; edge density via the triple identity.

    d_e = (d1 + 2 d2 + 3 d3) / 3, cross-checked against m / C(n,2); the two
    agree exactly because every edge lies in n-2 triples.
    """
    total = math.comb(c.n, 3)
    d0, d1, d2, d3 = (x / total for x in c.counts)
    d_e = (d1 + 2 * d2 + 3 * d3) / 3.0
    weighted = c.c1 + 2 * c.c2 + 3 * c.c3
    m, rem = divmod(weighted, c.n - 2)
    if rem != 0:
        raise DomainError("census violates the edge-count identity")
    if abs(d_e - m / math.comb(c.n, 2)) > _SUM_TOL:
        raise DomainError("edge density cross-check failed")
    return DensityVector(d0=d0, d1=d1, d2=d2, d3=d3, d_e=d_e)


def graphon_densities(w: StepGraphon) -> DensityVector:
    """Exact triple densities of a step graphon.

    Sums over ordered block triples (i, j, k) with weight s_i s_j s_k the
    probability that the three independent pair indicators (P_ij, P_ik,
    P_jk) produce exactly 0, 1, 2 or 3 edges.  O(B^3) in the block count.
    """
    s = w.sizes
    P = w.probs
    p1 = P[:, :, None]
    p2 = P[:, None, :]
    p3 = P[None, :, :]
    q1, q2, q3 = 1.0 - p1, 1.0 - p2, 1.0 - p3
    wt = s[:, None, None] * s[None, :, None] * s[None, None, :]
    d0 = float((wt * q1 * q2 * q3).sum())
    d1 = float((wt * (p1 * q2 * q3 + q1 * p2 * q3 + q1 * q2 * p3)).sum())
    d2 = float((wt * (p1 * p2 * q3 + p1 * q2 * p3 + q1 * p2 * p3)).sum())
    d3 = float((wt * p1 * p2 * p3).sum())
    d_e = float(s @ P @ s)
    return DensityVector(d0=d0, d1=d1, d2=d2, d3=d3, d_e=d_e)


def _block_random_graph(blocks: np.ndarray, P: np.ndarray, rng) -> Graph:
    """Graph on vertices 0..len(blocks)-1, vertex i in block ``blocks[i]``.

    Each unordered pair {i, j} is joined when its uniform from ``rng`` is
    below ``P[blocks[i], blocks[j]]``; one uniform per pair, drawn in
    row-major order, so the output is fixed by the generator's state.
    """
    n = blocks.size
    counts = np.zeros(n, dtype=np.int64)
    vs = []
    for i in range(n - 1):
        r = rng.random(n - 1 - i)
        hit = np.nonzero(r < P[blocks[i], blocks[i + 1:]])[0]
        counts[i] = hit.size
        vs.append(hit + (i + 1))
    edges = np.empty((int(counts.sum()), 2), dtype=np.int64)
    edges[:, 0] = np.repeat(np.arange(n, dtype=np.int64), counts)
    if vs:
        np.concatenate(vs, out=edges[:, 1])
    return Graph.from_edges(n, edges)


def sample_w_random_graph(w: StepGraphon, n: int, seed: int) -> Graph:
    """Sample an n-vertex graph from a step graphon, reproducibly.

    Uses numpy's default generator (PCG64) seeded with ``seed``: first n
    uniforms assign vertices to blocks by the cumulative size distribution,
    then one uniform per unordered pair (row-major order) decides each edge.
    The output is deterministic given (w, n, seed).
    """
    if n < 1:
        raise DomainError("sample size must be at least 1")
    rng = np.random.default_rng(seed)
    cum = np.cumsum(w.sizes)
    blocks = np.minimum(np.searchsorted(cum, rng.random(n), side="right"),
                        w.num_blocks - 1)
    return _block_random_graph(blocks, w.probs, rng)


def _duplicate_error(ends: array, lines: array):
    """The error for the first edge line that repeats an earlier edge, or None.

    ``ends`` holds the endpoints of every edge read, two per edge, and
    ``lines`` their line numbers.  One sort of the keys min*N + max finds
    whether any edge repeats; only then does a stable argsort name the
    earliest later occurrence.
    """
    e = np.frombuffer(ends, dtype=np.int64).reshape(-1, 2)
    if e.shape[0] < 2:
        return None
    lo, hi = np.minimum(e[:, 0], e[:, 1]), np.maximum(e[:, 0], e[:, 1])
    keys = lo * (hi.max() + 1) + hi
    srt = np.sort(keys)
    if not np.any(srt[1:] == srt[:-1]):
        return None
    order = np.argsort(keys, kind="stable")
    k = int(order[1:][keys[order[1:]] == keys[order[:-1]]].min())
    return InputFormatError(f"line {lines[k]}: duplicate edge {e[k, 0]} {e[k, 1]}")


def read_edge_list(path) -> Graph:
    """Parse the edge-list file format.

    Lines starting with '#' are comments; an optional leading directive
    "n <N>" fixes the vertex count; every other non-empty line is "<u> <v>"
    with 0-based ids and u != v.  Duplicate edges, self-loops, malformed
    lines and text that is not UTF-8 are rejected with the number of the
    first offending line.

    A well-formed file is parsed in numpy (see _parse_edge_bytes).  Any file
    the fast path does not accept, or whose edges from_edges rejects, is
    parsed again by the line loop, which checks each line as it is read,
    except for repeated edges: one sort of all the edges finds those at the
    end, and one of the edges read so far runs before any other error is
    raised, so the error always names the first offending line.
    """
    with open(path, "rb") as f:
        data = f.read()
    parsed = _parse_edge_bytes(data)
    if parsed is not None:
        try:
            return _edge_graph(*parsed)
        except DomainError:
            pass    # a self-loop, a duplicate or an id out of range
    return _edge_graph(*_parse_edge_text(data))


def _edge_graph(n_directive, edges: np.ndarray) -> Graph:
    n = n_directive if n_directive is not None else (
        int(edges.max()) + 1 if edges.size else 0)
    return Graph.from_edges(n, edges)


def _parse_edge_text(data: bytes) -> tuple:
    """(n directive or None, (m, 2) endpoints) of a file, by the line loop."""
    try:
        n_directive, ends = _parse_edge_lines(
            io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
    except UnicodeDecodeError:
        # the text layer decodes a buffer ahead of the lines handed out, so
        # parse again one line at a time to name the first offending line
        n_directive, ends = _parse_edge_lines(_utf8_lines(io.BytesIO(data)))
    return n_directive, np.frombuffer(ends, dtype=np.int64).reshape(-1, 2)


def _parse_edge_bytes(data: bytes):
    """(n directive or None, (m, 2) endpoints) of a well-formed file, or None.

    The leading blank, comment and "n" lines go through the line loop.  The
    rest is taken only if every byte is a digit, space, tab, CR or LF, every
    line (ended by CR or LF) holds 0 or 2 tokens, and no token has more than
    _MAX_DIGITS digits.  It is checked and parsed in chunks of about
    _EDGE_CHUNK bytes, each cut after a line end.  None means the line loop
    must decide.
    """
    header = []
    body = 0
    for match in _LINE.finditer(data):
        raw = match.group()
        if not raw:
            break                   # the end of the data
        try:
            line = raw.decode("utf-8")
        except UnicodeDecodeError:
            return None
        toks = line.split()
        if toks and toks[0] != "n" and not toks[0].startswith("#"):
            break
        header.append(line)
        body = match.end()
    try:
        n_directive, _ = _parse_edge_lines(header)
    except InputFormatError:
        return None
    parts = []
    while body < len(data):
        eol = _EOL.search(data, body + _EDGE_CHUNK)
        cut = eol.end() if eol else len(data)
        ends = _parse_edge_chunk(data[body:cut])
        if ends is None:
            return None
        parts.append(ends)
        body = cut
    ends = np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)
    return n_directive, ends.reshape(-1, 2)


def _parse_edge_chunk(chunk: bytes):
    """The integers of whole edge lines, or None unless they are well formed."""
    b = np.frombuffer(chunk, dtype=np.uint8)
    digit = (b - np.uint8(ord("0"))) < 10
    eol = (b == ord("\n")) | (b == ord("\r"))
    if (np.count_nonzero(digit) + np.count_nonzero(eol) + np.count_nonzero(b == ord(" "))
            + np.count_nonzero(b == ord("\t")) != b.size):
        return None
    # a run of _MAX_DIGITS + 1 digits, found by doubling the run length
    run, width = digit, 1
    while width <= _MAX_DIGITS:
        step = min(width, _MAX_DIGITS + 1 - width)
        run = run[:-step] & run[step:]
        width += step
    if run.any():
        return None
    start = np.empty_like(digit)
    start[:1] = digit[:1]
    np.greater(digit[1:], digit[:-1], out=start[1:])
    # among token starts and line ends in file order, the tokens come in
    # adjacent pairs with a line end between one pair and the next
    tok = np.flatnonzero(start[np.flatnonzero(start | eol)])
    if (tok.size % 2 or np.any(tok[1::2] - tok[0::2] != 1)
            or np.any(tok[2::2] - tok[1:-1:2] < 2)):
        return None
    if tok.size == 0:
        return np.empty(0, dtype=np.int64)     # fromstring reads a 0 from blanks
    ends = np.fromstring(chunk, dtype=np.int64, sep=" ")
    return ends if ends.size == tok.size else None


def _utf8_lines(f):
    for lineno, raw in enumerate(f, 1):
        try:
            yield raw.decode("utf-8")
        except UnicodeDecodeError:
            raise InputFormatError(f"line {lineno}: not valid UTF-8") from None


def _parse_edge_lines(lines_in) -> tuple:
    """(n directive or None, endpoints as array('q')) of edge-list lines."""
    n_directive = None
    ends = array("q")
    lines = array("q")
    add_end, add_line = ends.append, lines.append   # bound once, not per line
    try:
        for lineno, raw in enumerate(lines_in, 1):
            toks = raw.split()
            if not toks or toks[0].startswith("#"):
                continue
            if toks[0] == "n":
                if n_directive is not None:
                    raise InputFormatError(f"line {lineno}: duplicate 'n' directive")
                if lines:
                    raise InputFormatError(
                        f"line {lineno}: 'n' directive must precede all edges")
                if len(toks) != 2:
                    raise InputFormatError(f"line {lineno}: malformed 'n' directive")
                try:
                    n_directive = int(toks[1])
                except ValueError:
                    raise InputFormatError(
                        f"line {lineno}: vertex count is not an integer") from None
                if n_directive < 0:
                    raise InputFormatError(f"line {lineno}: negative vertex count")
                continue
            if len(toks) != 2:
                raise InputFormatError(f"line {lineno}: expected '<u> <v>'")
            try:
                u, v = int(toks[0]), int(toks[1])
            except ValueError:
                raise InputFormatError(
                    f"line {lineno}: endpoints are not integers") from None
            if u == v:
                raise InputFormatError(f"line {lineno}: self-loop {u} {v}")
            if u < 0 or v < 0:
                raise InputFormatError(f"line {lineno}: negative vertex id")
            if n_directive is not None and (u >= n_directive or v >= n_directive):
                raise InputFormatError(
                    f"line {lineno}: vertex id exceeds declared count {n_directive}")
            if u > _INT64_MAX or v > _INT64_MAX:
                raise InputFormatError(f"line {lineno}: vertex id too large")
            add_end(u)
            add_end(v)
            add_line(lineno)
    except InputFormatError as err:
        # a duplicate on an earlier line is the first offending line
        raise (_duplicate_error(ends, lines) or err) from None
    dup = _duplicate_error(ends, lines)
    if dup is not None:
        raise dup
    return n_directive, ends


def write_edge_list(g: Graph, path) -> None:
    """Write a graph in the edge-list format, with the "n <N>" directive."""
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(f"n {g.n}\n")
        for u, v in g.edges():
            f.write(f"{u} {v}\n")


def read_step_graphon(path) -> StepGraphon:
    """Parse a step-graphon document: JSON with keys "sizes" and "probs"."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (json.JSONDecodeError, UnicodeDecodeError) as e:
        raise InputFormatError(f"not a valid step-graphon document: {e}") from None
    if not isinstance(doc, dict) or set(doc) - {"sizes", "probs"}:
        raise InputFormatError(
            'step-graphon document must be an object with keys "sizes" and "probs"')
    if "sizes" not in doc or "probs" not in doc:
        raise InputFormatError('missing key: "sizes" and "probs" are both required')
    try:
        return StepGraphon(doc["sizes"], doc["probs"])
    except (DomainError, TypeError) as e:
        raise InputFormatError(f"invalid step graphon: {e}") from None


def write_step_graphon(w: StepGraphon, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        json.dump({"sizes": w.sizes.tolist(), "probs": w.probs.tolist()}, f, indent=1)
        f.write("\n")
