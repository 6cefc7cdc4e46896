"""Extremal families, as exact step graphons and as finite graphs.

Each family traces part of a region boundary (or fills its interior) in the
limit.  FAMILIES gives each one its parameter domains, its exact limit
graphon and its finite structure at n vertices: a floor-rounded blow-up,
deterministic for 0/1 block densities and seeded otherwise.  A deterministic
structure fixes the census as a polynomial in its part sizes, which
finite_census evaluates without building the graph.  Every seeded graph,
a family's or sample_w_random_graph's, is drawn here; census only counts.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import boundary, census
from .boundary import _check_range
from .census import (Graph, StepGraphon, TripleCensus, census_fast,
                     graphon_densities)
from .errors import DomainError

__all__ = [
    "Family",
    "FamilySpec",
    "FAMILIES",
    "g0_graphon",
    "g0_graph",
    "g1_graphon",
    "g1_profile",
    "g1_graph",
    "g2_graphon",
    "g2_profile",
    "s12_graphon",
    "s23_graphon",
    "min_triangle_graphon",
    "clique_plus_isolated_graphon",
    "blowup_graph",
    "sample_w_random_graph",
    "realize",
    "limit_graphon",
    "finite_census",
]

_DROP = 1e-15
# Most parts a multipartite family may have.  graphon_densities is O(B^2)
# in memory: on one core of a 2-core Intel Xeon VM it takes 1.2 ms and peaks
# at 1.3 MB at 128 blocks, 0.14 s and 80 MB at 1024.
_MAX_PARTS = 128
# Bytes an edge is charged against _DRAW_MAX_BYTES.  tracemalloc gave a
# peak of 64 for building every family's graph at n=3000 and 6000
# (_sampled_edges or _block_edges, then Graph.from_edges) and 66 for
# census_fast on the graph while it is held; 84 stays above both.
_DRAW_BYTES_PER_EDGE = 84
# A graph whose edges would need more is refused: twice the memory of an
# 8 GB machine.  A refused graph would peak above 12 GiB at 64 bytes an
# edge, so no graph such a machine could build is refused.
_DRAW_MAX_BYTES = 1 << 34
# Bytes of bool rows that _sampled_rows fills at once, beside 8 bytes for
# each of their uniforms: O(chunk) memory whatever n.  On a 2-core Intel
# Xeon VM, chunks of 1-4 MB drew the nine seeded sweep bitsets (n = 500,
# 1000, 2000) 10-20% slower.
_DRAW_CHUNK = 1 << 18

log = logging.getLogger(__name__)


def _sampled_rows(blocks: np.ndarray, P: np.ndarray, rng, n: int, width: int):
    """Yield (lo, hit) for consecutive chunks of rows of the upper-triangular
    adjacency on n >= len(blocks) vertices, from row 0 to row n-1.

    hit is a bool block of ``width`` >= n columns, reused from chunk to
    chunk: hit[r, c] says whether the pair {lo+r, c} is joined, for
    c > lo+r, and is False elsewhere.  Vertex i < len(blocks) lies in block
    ``blocks[i]``, and the vertices from len(blocks) on are universal,
    joined to every vertex.  A pair i < j < len(blocks) is joined when its
    uniform from ``rng`` is below ``P[blocks[i], blocks[j]]``.  One uniform
    per such pair, drawn in row-major order, so every seeded graph is fixed
    by the generator's state and this draw order; the uniforms of a chunk
    come from one ``rng.random`` call, which PCG64 fills with the same
    doubles as one call per row.  A chunk holds about _DRAW_CHUNK bytes of
    rows, and the threshold row is gathered again only where blocks[i]
    changes: k times for k parts in vertex order.
    """
    base = blocks.size
    h = max(1, min(n, _DRAW_CHUNK // width))
    block = np.zeros((h, width), dtype=bool)
    block[:, base:n] = True
    uniforms = np.empty(h * (base - 1))
    cols = np.arange(width)
    cols[n:] = -1       # the padding columns are below every row
    for lo in range(0, n, h):
        hi = min(lo + h, n)
        hit = block[:hi - lo]
        if hi <= base:
            hit[:, :hi] = False     # up to each row's own column; the draws set the rest
        else:
            np.greater(cols, np.arange(lo, hi)[:, None], out=hit)
        drawn = range(lo, min(hi, base - 1))
        u = uniforms[:sum(base - 1 - i for i in drawn)]
        rng.random(u.size, out=u)
        at = 0
        for i in drawn:
            if i == 0 or blocks[i] != blocks[i - 1]:
                start, thresholds = i, P[blocks[i], blocks[i + 1:]]
            k = base - 1 - i
            np.less(u[at:at + k], thresholds[i - start:], out=hit[i - lo, i + 1:base])
            at += k
        yield lo, hit


def _sampled_edges(blocks: np.ndarray, P: np.ndarray, rng, n: int) -> np.ndarray:
    """The (m, 2) pairs _sampled_rows joins on vertices 0..n-1, in row-major
    order."""
    edges = []
    for lo, hit in _sampled_rows(blocks, P, rng, n, n):
        e = np.argwhere(hit)
        e[:, 0] += lo
        edges.append(e)
    return np.concatenate(edges)


def _check_seed(seed) -> None:
    census._check_integer("seed", seed)
    if seed < 0:
        raise DomainError(f"seed must be nonnegative (got {seed!r})")


def _check_draw_size(n: int, edges: float, exact: bool = False) -> None:
    """Refuse, before anything is drawn or built, a graph whose edge count,
    predicted for a sampled graph or exact for a 0/1 structure, would take
    more than _DRAW_MAX_BYTES to draw and build."""
    need = edges * _DRAW_BYTES_PER_EDGE
    if need > _DRAW_MAX_BYTES:
        what = (f"graph too large to build: n={n} has {edges}" if exact else
                f"sampled graph too large to draw: n={n} would have about {edges:.3g}")
        raise DomainError(f"{what} edges ({need:.3g} bytes at {_DRAW_BYTES_PER_EDGE}"
                          f" an edge), over the {_DRAW_MAX_BYTES}-byte budget")


def sample_w_random_graph(w: StepGraphon, n: int, seed: int) -> Graph:
    """Sample an n-vertex graph from a step graphon, reproducibly.

    Uses numpy's default generator (PCG64) seeded with ``seed``: first n
    uniforms assign vertices to blocks by the cumulative size distribution,
    then one uniform per unordered pair (row-major order) decides each edge.
    The output is deterministic given (w, n, seed).  A non-integer or
    negative n or seed, n above the vertex limit, or an expected
    d_e * C(n,2) edges beyond the draw budget (see _check_draw_size) raises
    DomainError before anything is drawn.
    """
    census._check_vertex_count(n)
    if n < 1:
        raise DomainError("sample size must be at least 1")
    _check_seed(seed)
    _check_draw_size(n, float(w.sizes @ w.probs @ w.sizes) * math.comb(n, 2))
    rng = np.random.default_rng(seed)
    cum = np.cumsum(w.sizes)
    blocks = np.minimum(np.searchsorted(cum, rng.random(n), side="right"),
                        w.num_blocks - 1)
    return Graph.from_edges(n, _sampled_edges(blocks, w.probs, rng, n))


class _Blowup:
    """A finite blow-up: part sizes in vertex order and their block densities.

    ``link`` = (a, b, d) joins the equal parts a and b, whose block density
    is 0, by the circulant of degree d: vertex i of a to vertices i, ...,
    i+d-1 (mod size) of b, which is exactly biregular.  The ``universal``
    vertices come last, joined to every vertex.
    """

    __slots__ = ("parts", "probs", "link", "universal")

    def __init__(self, parts: list, probs: np.ndarray, link=None, universal: int = 0):
        if any(p < 0 for p in parts):
            raise DomainError("part sizes must be nonnegative")
        self.parts, self.probs, self.link, self.universal = parts, probs, link, universal

    @property
    def deterministic(self) -> bool:
        return bool(np.all((self.probs == 0) | (self.probs == 1)))

    def blocks(self) -> tuple:
        """(sizes, densities) with the universal vertices as a last part."""
        k = len(self.parts)
        A = np.ones((k + 1, k + 1))
        A[:k, :k] = self.probs
        return list(self.parts) + [self.universal], A

    def graph(self, seed: int) -> Graph:
        """The graph.  Fractional densities are sampled by _sampled_edges
        (PCG64 from ``seed``), which joins the universal vertices without
        drawing for them.  A negative seed raises DomainError, and so
        does a graph whose edges exceed the draw budget (see
        _check_draw_size), before anything is drawn or built: a 0/1
        structure's exact edge count, or a sampled graph's predicted one,
        the mean plus 6 standard deviations from the part sizes."""
        _check_seed(seed)
        sizes, A = self.blocks()
        n = sum(sizes)
        census._check_vertex_count(n)
        if self.deterministic:
            _check_draw_size(n, self._structure_counts()[0], exact=True)
            return Graph.from_edges(n, _block_edges(sizes, A, self.link))
        nv = np.array(sizes, dtype=float)
        pairs = (np.outer(nv, nv) - np.diag(nv)) / 2
        _check_draw_size(n, float((pairs * A).sum())
                         + 6 * math.sqrt(float((pairs * A * (1 - A)).sum())))
        blocks = np.repeat(np.arange(len(self.parts)), self.parts)
        return Graph.from_edges(n, _sampled_edges(
            blocks, self.probs, np.random.default_rng(seed), n))

    def census(self, seed: int) -> tuple:
        """(path, census of graph(seed)), in exact integers.

        The path is "structure" for 0/1 densities below 2^63 vertices (see
        _structure_counts), "bitset" for sampled densities while the bitset
        fits under the cap census_fast's own bitset kernel keeps
        (census._bitset_fits; census._upper_census of bitset(seed)), and
        otherwise "graph": census_fast(graph(seed)).
        Other than by the structure, a blow-up above the vertex limit raises
        DomainError before anything is allocated.
        """
        n = sum(self.parts) + self.universal
        if self.deterministic and n < 1 << 63:
            return "structure", census._census(n, *self._structure_counts())
        census._check_vertex_count(n)
        if census._bitset_fits(n):
            return "bitset", census._upper_census(self.bitset(seed))
        return "graph", census_fast(self.graph(seed))

    def bitset(self, seed: int) -> np.ndarray:
        """The upper-triangular bitset of graph(seed), n * ceil(n/64) words.

        Row i holds the neighbours of vertex i above i: each chunk of rows
        from _sampled_rows, in the draw order of graph(seed), is packed
        with one np.packbits.  No edge list is kept.
        """
        n = sum(self.parts) + self.universal
        words = (n + 63) >> 6
        rows = np.empty((n, words), dtype=np.uint64)
        packed = rows.view(np.uint8)    # column c is bit c % 8 of byte c // 8
        blocks = np.repeat(np.arange(len(self.parts)), self.parts)
        for lo, hit in _sampled_rows(blocks, self.probs, np.random.default_rng(seed),
                                     n, words * 64):
            packed[lo:lo + len(hit)] = np.packbits(hit, axis=1, bitorder="little")
        return rows

    def _structure_counts(self) -> tuple:
        """(m, p2, t) of a deterministic blow-up (see census_fast), in exact
        integers.

        With A the 0/1 block matrix, B its off-diagonal part, n_i the part
        sizes and c_ij = sum_k B_ik n_k B_kj (the parts joined to both i and
        j), a vertex of part i has degree D_i = sum_j A_ij n_j - A_ii, and
        the triangles are sum_i A_ii C(n_i,3) + sum_{i!=j} A_ii A_ij
        C(n_i,2) n_j + sum_{i,j} n_i n_j B_ij c_ij / 6.  The link adds d to
        the degrees in parts a and b, and (A_aa n_a + A_bb n_b) C(d,2) +
        n_a d c_ab triangles.  The block sums are int64: exact below 2^63
        vertices.
        """
        sizes, A = self.blocks()
        A = A.astype(np.int64)
        nv = np.array(sizes, dtype=np.int64)
        B = A - np.diag(np.diag(A))
        c = ((B * nv) @ B).tolist()
        a, row = np.diag(A).tolist(), (A @ nv).tolist()
        deg = [r - ai for r, ai in zip(row, a)]
        t = sum(ai * (math.comb(ni, 3) + math.comb(ni, 2) * (r - ai * ni))
                for ni, ai, r in zip(sizes, a, row))
        t += sum(sizes[i] * sizes[j] * c[i][j] for i, j in zip(*np.nonzero(B))) // 6
        if self.link is not None:
            i, j, d = self.link
            deg[i] += d
            deg[j] += d
            t += (a[i] * sizes[i] + a[j] * sizes[j]) * math.comb(d, 2) + sizes[i] * d * c[i][j]
        m = sum(ni * di for ni, di in zip(sizes, deg)) // 2
        p2 = sum(ni * math.comb(di, 2) for ni, di in zip(sizes, deg) if ni)
        return m, p2, t


def _block_edges(sizes, A, link=None) -> np.ndarray:
    """Every pair in blocks i <= j with A_ij = 1, then the link's pairs."""
    offs = np.concatenate([[0], np.cumsum(sizes)])
    chunks = [np.empty((0, 2), dtype=np.int64)]
    for i, j in zip(*np.nonzero(np.triu(A))):
        if i == j:
            u, v = np.triu_indices(sizes[i], 1)
        else:
            u, v = np.indices((sizes[i], sizes[j])).reshape(2, -1)
        chunks.append(np.column_stack([u + offs[i], v + offs[j]]))
    if link is not None:
        a, b, d = link
        u = np.repeat(np.arange(sizes[a]), d)
        v = (u + np.tile(np.arange(d), sizes[a])) % sizes[b]
        chunks.append(np.column_stack([u + offs[a], v + offs[b]]))
    return np.concatenate(chunks).astype(np.int64, copy=False)


def _graphon(sizes, probs) -> StepGraphon:
    """Build a step graphon, dropping blocks of weight at most _DROP."""
    s = np.asarray(sizes, dtype=float)
    P = np.asarray(probs, dtype=float)
    keep = s > _DROP
    return StepGraphon(s[keep], P[np.ix_(keep, keep)])


def g0_graphon(x: float) -> StepGraphon:
    """Limit object of the family tracing the S13 upper boundary.

    Four regimes in x:
      [-1/4, 0): four parts of weight 1/4+x, complete between the first and
        second and between the third and fourth, plus an isolated remainder;
      [0, 1/16): four equal parts with density 16x inside each and 1-16x
        between the two linked pairs;
      [1/16, 1/9): the linked-cliques structure at sigma solving the
        triangle density x;
      [1/9, 1/4]: three cliques (sigma, sigma, 1-2 sigma).
    """
    x = _check_range("x", x, -0.25, 0.25)
    if x < 0:
        s = 0.25 + x
        P = np.zeros((5, 5))
        P[0, 1] = P[1, 0] = 1.0
        P[2, 3] = P[3, 2] = 1.0
        return _graphon([s, s, s, s, -4.0 * x], P)
    if x < 1.0 / 16.0:
        u = 16.0 * x
        P = np.full((4, 4), 0.0)
        np.fill_diagonal(P, u)
        P[0, 1] = P[1, 0] = 1.0 - u
        P[2, 3] = P[3, 2] = 1.0 - u
        return _graphon([0.25] * 4, P)
    if x < 1.0 / 9.0:
        sg = boundary.linked_cliques_sigma_for_triangle(x)
        delta = boundary.linked_cliques_cross_density(sg)
        w = (1.0 - 2.0 * sg) / 2.0
        P = np.eye(4)
        P[0, 1] = P[1, 0] = delta
        return _graphon([w, w, sg, sg], P)
    sg = boundary.three_cliques_sigma_for_triangle(x)
    return _graphon([sg, sg, 1.0 - 2.0 * sg], np.eye(3))


def _near_equal_parts(n: int, k: int) -> list:
    q, r = divmod(n, k)
    return [q + 1] * r + [q] * (k - r)


def _g0_blowup(n: int, x: float) -> _Blowup:
    """Finite g0 on n vertices: floors of the limit weights.

    Only the regime with fractional densities (0 < x < 1/16) is sampled.  In
    the linked-cliques regime the two linked parts are joined by the
    circulant of degree floor(delta * size).  Its callers pass n >= 8, where
    every floored part is nonempty: (1 - 2 sigma)/2 >= 1/6 and sigma >= 1/3.
    """
    if x < 0:
        s = int((0.25 + x) * n)
        P = np.zeros((5, 5))
        P[0, 1] = P[1, 0] = P[2, 3] = P[3, 2] = 1.0
        return _Blowup([s, s, s, s, n - 4 * s], P)
    if x < 1.0 / 16.0:
        u = 16.0 * x
        P = np.zeros((4, 4))
        np.fill_diagonal(P, u)
        P[0, 1] = P[1, 0] = P[2, 3] = P[3, 2] = 1.0 - u
        return _Blowup(_near_equal_parts(n, 4), P)
    if x < 1.0 / 9.0:
        sg = boundary.linked_cliques_sigma_for_triangle(x)
        delta = boundary.linked_cliques_cross_density(sg)
        na = int((1.0 - 2.0 * sg) / 2.0 * n)
        rem = n - 2 * na
        return _Blowup([na, na, (rem + 1) // 2, rem // 2], np.eye(4),
                       link=(0, 1, int(delta * na)))
    sa = int(boundary.three_cliques_sigma_for_triangle(x) * n)
    return _Blowup([sa, sa, n - 2 * sa], np.eye(3))


def g0_graph(x: float, n: int, seed: int = 0) -> Graph:
    """Finite n-vertex realization of g0_graphon(x) (see _g0_blowup)."""
    return realize(FamilySpec("g0", {"x": x}, n=n, seed=seed))


def g1_graphon(a: float, x: float) -> StepGraphon:
    """g0_graphon(x) scaled to mass 1-a plus a fully-joined block of mass a;
    _graphon drops the empty side, so a = 0 gives g0_graphon(x) and a = 1
    the complete graphon."""
    a = _check_range("a", a, 0.0, 1.0)
    base = g0_graphon(x)
    b = base.num_blocks
    sizes = np.concatenate([[a], (1.0 - a) * base.sizes])
    P = np.ones((b + 1, b + 1))
    P[1:, 1:] = base.probs
    return _graphon(sizes, P)


def g1_profile(a: float, x: float) -> tuple:
    """(co-cherry, triangle) limit densities of the g1 family."""
    d = graphon_densities(g1_graphon(a, x))
    return d.d1, d.d3


def _g1_blowup(n: int, a: float, x: float) -> _Blowup:
    m = math.ceil((1.0 - a) * n)
    if m == 0:
        return _Blowup([], np.zeros((0, 0)), universal=n)
    if m < 8:
        raise DomainError(f"(1-a)*n = {m} leaves too few vertices for the base family")
    base = _g0_blowup(m, x)
    return _Blowup(base.parts, base.probs, base.link, n - m)


def g1_graph(a: float, x: float, n: int, seed: int = 0) -> Graph:
    """g0_graph on ceil((1-a) n) vertices plus floor(a n) universal vertices."""
    return realize(FamilySpec("g1", {"a": a, "x": x}, n=n, seed=seed))


def g2_graphon(a: float, p: float) -> StepGraphon:
    """Two blocks a and 1-a: complete inside the first, density p across,
    density 1-p inside the second."""
    a = _check_range("a", a, 0.0, 1.0)
    p = _check_range("p", p, 0.0, 1.0)
    return _graphon([a, 1.0 - a], [[1.0, p], [p, 1.0 - p]])


def g2_profile(a: float, p: float) -> tuple:
    """(co-cherry, triangle) limit densities of the g2 family."""
    d = graphon_densities(g2_graphon(a, p))
    return d.d1, d.d3


def s12_graphon(a: float, p: float) -> StepGraphon:
    """Two blocks a and 1-a: density p inside both, 1-p across.

    Its co-cherry and cherry densities are 3p(1-p)^2 + 3a(1-a)p(2p-1) and
    3p^2(1-p) + 3a(1-a)(1-p)(1-2p).
    """
    a = _check_range("a", a, 0.0, 1.0)
    p = _check_range("p", p, 0.0, 1.0)
    return _graphon([a, 1.0 - a], [[p, 1.0 - p], [1.0 - p, p]])


def _part_count(k: int, what: str) -> int:
    if k > _MAX_PARTS:
        raise DomainError(f"{what} needs more than {_MAX_PARTS} parts")
    return k


def _floor_reciprocal(a: float) -> int:
    # tiny epsilon so float inputs like 0.1 produce the intended 1/a
    return _part_count(math.floor(min(1.0 / a + 1e-9, _MAX_PARTS + 1.0)), f"a = {a!r}")


def s23_graphon(a: float, b: float) -> StepGraphon:
    """Complete multipartite graphon on mass b plus isolated mass 1-b.

    For a > 0 the multipartite portion has floor(1/a) parts of weight a*b
    and one remainder part; for a = 0 it is a single clique block.  The
    (cherry, triangle) profile scales as b^3 times the b = 1 profile.
    """
    a = _check_range("a", a, 0.0, 0.5)
    b = _check_range("b", b, 0.0, 1.0)
    if b == 0.0:
        return StepGraphon([1.0], [[0.0]])
    if a == 0.0:
        inner = [b]
        probs_inner = np.array([[1.0]])
    else:
        m = _floor_reciprocal(a)
        rem = b * (1.0 - m * a)
        inner = [a * b] * m + [rem]
        k = len(inner)
        probs_inner = 1.0 - np.eye(k)
    sizes = inner + [1.0 - b]
    k = len(inner)
    P = np.zeros((k + 1, k + 1))
    P[:k, :k] = probs_inner
    return _graphon(sizes, P)


def min_triangle_graphon(edge_density: float) -> StepGraphon:
    """Graphon attaining the minimum triangle density at this edge density.

    Complete multipartite with k-1 parts of weight (1-z)/(k-1) and one part
    of weight z; the last two parts can equally be read as the complete
    bipartite choice filling the final block of the extremal structure.
    """
    d = _check_range("edge density", edge_density, 0.5, 1.0, hi_open=True)
    p = boundary.edge_partition(d)
    k, z = _part_count(p.k, f"edge density {d!r}"), p.z
    sizes = [(1.0 - z) / (k - 1)] * (k - 1) + [z]
    return _graphon(sizes, 1.0 - np.eye(k))


def clique_plus_isolated_graphon(a: float, complemented: bool = False) -> StepGraphon:
    """Clique block of mass a plus isolated mass 1-a; optionally complemented.

    Sweeping a over [0, 1] in both orientations traces the S03 upper curve.
    """
    a = _check_range("a", a, 0.0, 1.0)
    P = np.array([[1.0, 0.0], [0.0, 0.0]])
    if complemented:
        P = 1.0 - P
    return _graphon([a, 1.0 - a], P)


def _multipartite_blowup(n: int, a: float, b: float) -> _Blowup:
    """Isolated part int((1-b) n); floor(1/a) parts of int(a b n) and the
    rest of the multipartite mass, or for a = 0 one clique."""
    iso = int((1.0 - b) * n)
    if a == 0.0:
        parts = [n - iso]
    else:
        m = _floor_reciprocal(a)
        part = int(a * b * n)
        parts = [part] * m + [n - iso - m * part]
    k = len(parts)
    P = np.zeros((k + 1, k + 1))
    P[:k, :k] = 1.0 - np.eye(k) if a else 1.0
    return _Blowup(parts + [iso], P)


def _blowup(w: StepGraphon, n: int) -> _Blowup:
    """Floor-sized parts of w's blocks, the leftover vertices to the last."""
    parts = [int(s * n) for s in w.sizes]
    parts[-1] += n - sum(parts)
    return _Blowup(parts, w.probs)


def blowup_graph(w: StepGraphon, n: int, seed: int = 0) -> Graph:
    """Finite realization: floor-sized parts (leftover vertices to the last
    part), pairs joined with their block density (deterministic when the
    densities are all 0/1).  A non-integer n is refused by name."""
    census._check_vertex_count(n)
    if n < 1:
        raise DomainError("need n >= 1")
    return _blowup(w, n).graph(seed)


class Family(NamedTuple):
    """One construction family: each parameter's (lo, hi, hi_open) domain,
    the limit graphon and the finite blow-up at n vertices (both called with
    the parameters as keywords), and the parameters that take only 0 or 1.
    Without a blow-up of its own, a family is realized as _blowup of its
    limit graphon."""

    domains: dict
    graphon: Callable[..., StepGraphon]
    blowup: Optional[Callable[..., _Blowup]] = None
    flags: tuple = ()


_UNIT = (0.0, 1.0, False)
_X = (-0.25, 0.25, False)

FAMILIES = {
    "g0": Family({"x": _X}, g0_graphon, _g0_blowup),
    "g1": Family({"a": _UNIT, "x": _X}, g1_graphon, _g1_blowup),
    "g2": Family({"a": _UNIT, "p": _UNIT}, g2_graphon),
    "s12": Family({"a": _UNIT, "p": _UNIT}, s12_graphon),
    "multipartite": Family({"a": (0.0, 0.5, False), "b": _UNIT}, s23_graphon,
                           _multipartite_blowup),
    "min-triangle": Family({"de": (0.5, 1.0, True)}, lambda de: min_triangle_graphon(de)),
    "clique-isolated": Family({"a": _UNIT, "complemented": _UNIT},
                              clique_plus_isolated_graphon, flags=("complemented",)),
}


@dataclass
class FamilySpec:
    """A construction family plus its parameters and realization size."""

    family: str
    params: dict = field(default_factory=dict)
    n: Optional[int] = None
    seed: Optional[int] = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise DomainError(
                f"unknown family {self.family!r}; valid: {sorted(FAMILIES)}")
        fam = FAMILIES[self.family]
        unknown = set(self.params) - set(fam.domains)
        if unknown:
            raise DomainError(
                f"unknown parameter(s) {sorted(unknown)} for family {self.family!r};"
                f" expected {sorted(fam.domains)}")
        missing = set(fam.domains) - set(self.params)
        if missing:
            raise DomainError(
                f"missing parameter(s) {sorted(missing)} for family {self.family!r}")
        for key, (lo, hi, hi_open) in fam.domains.items():
            name = f"{self.family} parameter {key}"
            value = _check_range(name, self.params[key], lo, hi, hi_open=hi_open)
            if key in fam.flags and value not in (0.0, 1.0):
                raise DomainError(f"{name} must be 0 or 1 (got {value!r})")
        if self.n is not None:
            census._check_integer("n", self.n)
        if self.seed is not None:
            _check_seed(self.seed)


def limit_graphon(spec: FamilySpec) -> StepGraphon:
    """The exact limit object of a family at the given parameters."""
    return FAMILIES[spec.family].graphon(**spec.params)


def _finite(spec: FamilySpec) -> _Blowup:
    if spec.n is None or spec.n < 8:
        raise DomainError("realization needs n >= 8")
    fam = FAMILIES[spec.family]
    if fam.blowup is None:
        return _blowup(fam.graphon(**spec.params), spec.n)
    return fam.blowup(spec.n, **spec.params)


def realize(spec: FamilySpec) -> Graph:
    """Finite graph of a family: floor part sizes, circulant bipartite link
    where the family calls for exact biregularity, seeded sampling for
    fractional densities."""
    return _finite(spec).graph(0 if spec.seed is None else spec.seed)


def finite_census(spec: FamilySpec, graph: Optional[Graph] = None) -> TripleCensus:
    """Exact triple census of realize(spec).

    When every block density is 0 or 1 it is computed from the part sizes,
    at any n, without a graph and independent of the seed.  Otherwise it is
    census_fast of ``graph`` when the caller holds realize(spec), or else
    counted from the seeded pair draws, in a bitset while that fits and
    from a new realization beyond (see _Blowup.census).  The path taken,
    structure, bitset or graph, is logged at DEBUG on the
    "triprofile.constructions" logger.
    """
    bl = _finite(spec)
    if graph is None or bl.deterministic:
        path, counts = bl.census(0 if spec.seed is None else spec.seed)
    else:
        path, counts = "graph", census_fast(graph)
    log.debug("finite census: family=%s n=%d path=%s", spec.family, spec.n, path)
    return counts
