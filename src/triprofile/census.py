"""Exact 3-vertex subgraph censuses of finite graphs and step graphons.

A triple census counts, over all C(n,3) vertex triples of a graph, how many
induce 0, 1, 2 or 3 edges (co-triangle, co-cherry, cherry, triangle).  The
fast path reduces the whole census to a triangle count through exact integer
identities; a brute-force enumerator serves as an independent oracle.  Step
graphons (blockwise-constant symmetric kernels) get the same profile exactly,
as the limit of sampling three independent points.
"""
from __future__ import annotations

import functools
import itertools
import json
import logging
import math
import numbers
import os
import re
import threading
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
    "graphon_densities_brute",
    "densities",
    "graphon_densities",
    "read_edge_list",
    "write_edge_list",
    "read_step_graphon",
    "write_step_graphon",
]

_SUM_TOL = 1e-12
# The wedges run when _WEDGE_COST * W < the bitset's word-ANDs.  On a 2-core
# Intel Xeon VM (numpy 2.4), graphs with m = 60 000-400 000 cost 19-25 ns a
# wedge and 4.1-8.1 ns a word-AND, a break-even of 2.8-5.4 (4.4-4.6 on
# census-files' dense input, where the word-ANDs are 1.03 W).
_WEDGE_COST = 4
# The bitset is never allocated beyond this, whatever the graph.
_BITSET_MAX_BYTES = 1 << 28
# Wedges checked at once by the wedge kernel: its scratch memory.
_WEDGE_CHUNK = 1 << 20
# Words of rows the bitset kernel gathers a side at once.
_GATHER_WORDS = 1 << 16
# Rows in each band of a blow-up's upper-triangular bitset that the tile
# kernel unpacks to float32 at once: O(_TILE * n) memory.  A tile product
# entry is at most _TILE, so each masked row sum is an integer of at most
# _TILE * n < 2^24, exact in float32, within the bitset cap (n <= 46 336);
# the kernel refuses larger n.
_TILE = 256
# Columns of a tile product, and of its right operand, made at once: with
# two bands in flight, each holds its unpacked band and 2 * 256 * 512
# floats (1 MB) beside it.  A seeded g2 bitset at n = 2000 took 22 ms on
# two threads at 512 columns, 23.5 ms at 256 and 27 ms at whole width.
_TILE_COLS = 512
# Bytes of an edge-list body the fast parser checks at once: its masks and
# token positions are O(chunk), beside the endpoint array itself.  At 256 KB
# they stay in cache; 8 MB chunks parsed a 41 MB file 40% slower.
_EDGE_CHUNK = 1 << 18
# Lines write_edge_list formats and writes at once: one write call each,
# O(block) memory.
_WRITE_LINES = 1 << 16
# Longest token the fast parser takes: 18 digits stay below 2^63.
_MAX_DIGITS = 18
# Most vertices a Graph may have: an edgeless graph costs about 32 bytes per
# vertex, so about 2.2 GB at the limit, and the keys u*n + v stay below 2^52.
_MAX_VERTICES = 1 << 26
# One line, ended at \n, \r or \r\n as universal newlines end one.
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
        is not (u, v) pairs of integers (a float, bool or object endpoint is
        refused, not truncated: by its dtype, and a bool among the ints of
        a list by its type), an endpoint lies outside
        0..n-1, an edge is a self-loop, an edge appears twice in either
        orientation, or n is not an integer or is above _MAX_VERTICES
        (checked before anything is allocated).

        Both orientations' keys ``u*n + v`` are sorted once; equal adjacent
        keys are duplicates, and the sorted keys are the CSR rows.
        """
        _check_vertex_count(n)
        if n < 0:
            raise DomainError("vertex count must be nonnegative")
        listed = not isinstance(edges, np.ndarray)
        if listed:
            edges = list(edges)
        try:
            arr = np.asarray(edges)
        except ValueError:      # ragged pairs
            raise DomainError("edges must be (u, v) pairs") from None
        if arr.size == 0:
            arr = arr.reshape(0, 2)
        elif arr.dtype.kind not in "iu":
            raise DomainError(f"edge endpoints must be integers (got {arr.dtype} values)")
        elif listed and arr.ndim == 2 and _has_bool(edges):
            # numpy promotes a bool among ints to int64, so the dtype is blind
            raise DomainError("edge endpoints must be integers (got bool values)")
        arr = arr.astype(np.int64, copy=False)
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
        _check_vertex_count(n)
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

    def directed_edges(self) -> tuple:
        """Both orientations of every edge as (sources, destinations)."""
        src = np.repeat(np.arange(self.n, dtype=np.int64), self.degrees)
        return src, self._nbrs

    def edges(self):
        """Iterate undirected edges (u, v) with u < v, sorted."""
        src, dst = self.directed_edges()
        keep = src < dst
        return zip(src[keep].tolist(), dst[keep].tolist())

    def complement(self) -> "Graph":
        """The graph whose edges are the pairs i < j that are not edges here."""
        adj = np.zeros((self.n, self.n), dtype=bool)
        adj[self.directed_edges()] = True
        return Graph.from_edges(self.n, np.argwhere(np.triu(~adj, 1)))

    def __eq__(self, other):
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and np.array_equal(self._indptr, other._indptr)
            and np.array_equal(self._nbrs, other._nbrs)
        )

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"


def _has_bool(pairs: list) -> bool:
    """Whether any endpoint of the (u, v) pairs is a Python or numpy bool."""
    kinds = set(map(type, itertools.chain.from_iterable(pairs)))
    return bool in kinds or np.bool_ in kinds


def _check_integer(name: str, value) -> None:
    if not isinstance(value, numbers.Integral):
        raise DomainError(f"{name} must be an integer (got {value!r})")


def _check_vertex_count(n: int) -> None:
    """Refuse a vertex count that is not an integer (a numpy integer is one)
    or is above _MAX_VERTICES, naming it."""
    _check_integer("n", n)
    if n > _MAX_VERTICES:
        raise DomainError(f"vertex count {n} too large (at most {_MAX_VERTICES})")


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

    def max_deviation(self, other: "DensityVector") -> float:
        """Largest absolute difference from other over d0..d3 and d_e."""
        return max(abs(u - v) for u, v in zip(self.profile + (self.d_e,),
                                              other.profile + (other.d_e,)))


def _real_array(name: str, value) -> np.ndarray:
    try:
        return np.array(value, dtype=float)
    except (TypeError, ValueError):
        # ragged nesting, strings that are not numerals, objects
        raise DomainError(f"{name} must be a rectangular array of real numbers") from None


class StepGraphon:
    """Blockwise-constant symmetric kernel: block weights + density matrix.

    ``sizes`` are positive block weights summing to one; ``probs`` is the
    symmetric matrix of pair densities in [0, 1].
    """

    __slots__ = ("sizes", "probs")

    def __init__(self, sizes, probs):
        s = _real_array("sizes", sizes)
        P = _real_array("probs", probs)
        if s.ndim != 1:
            raise DomainError("sizes must be a one-dimensional list of block weights")
        if s.size == 0:
            raise DomainError("a step graphon needs at least one block")
        # NaN fails every comparison, so each test below also rejects it
        if not (s.min() > 0 and math.isfinite(s.max())):
            raise DomainError("block sizes must be positive reals")
        total = float(s.sum())
        if abs(total - 1.0) > _SUM_TOL:
            raise DomainError(f"block sizes must sum to 1 (got {total!r})")
        if P.shape != (s.size, s.size):
            raise DomainError("probs must be a square matrix matching sizes")
        if not (P.min() >= 0 and P.max() <= 1):
            raise DomainError("block densities must lie in [0, 1]")
        if not (P == P.T).all():
            raise DomainError("probs must be exactly symmetric")
        s.setflags(write=False)
        P.setflags(write=False)
        self.sizes = s
        self.probs = P

    @property
    def num_blocks(self) -> int:
        return int(self.sizes.size)

    def complement(self) -> "StepGraphon":
        return StepGraphon(self.sizes, 1.0 - self.probs)

    def __repr__(self):
        return f"StepGraphon(blocks={self.num_blocks})"


def _rank(g: Graph) -> np.ndarray:
    """rank[w]: the place of vertex w in (degree, id) order.

    One stable argsort of the degrees keeps ties in id order.  Degrees
    that fit in uint16 are narrowed first, so numpy radix-sorts them.
    """
    n = g.n
    deg = g.degrees
    if n and deg.max() <= np.iinfo(np.uint16).max:
        deg = deg.astype(np.uint16)
    rank = np.empty(n, dtype=np.int64)
    rank[np.argsort(deg, kind="stable")] = np.arange(n)
    return rank


def _triangles_bitset(rank: np.ndarray, u: np.ndarray, v: np.ndarray) -> int:
    """Triangles by bitset intersection, from _kernel_inputs' vertex ranks
    and forward edges (u, v).

    Rows and bits are indexed by (degree, id) rank: row r holds the forward
    neighbours of the vertex of rank r, so it is clear up to bit r.  Each
    triangle is counted once, at its lowest-ranked edge, as a common forward
    neighbour of both endpoints; that neighbour ranks above v, so the AND of
    an edge's rows starts at the word that holds v's rank (Schank & Wagner
    2005).  The edges are grouped by that word, and each group's rows are
    ANDed from it on: sum(ceil(n/64) - (rank[v] >> 6)) word-ANDs, about a
    third of m * ceil(n/64) on a graph of near-equal degrees.  Memory:
    n * ceil(n/64) words.
    """
    if u.size == 0:
        return 0
    n = rank.size
    words = (n + 63) >> 6
    ru, rv = rank[u], rank[v]
    rows = np.zeros((n, words), dtype=np.uint64)
    bits = np.uint64(1) << (rv & 63).astype(np.uint64)
    np.bitwise_or.at(rows.reshape(-1), ru * words + (rv >> 6), bits)
    # sorted by rv, the groups of equal rv >> 6 are runs; the bitset cap keeps
    # n below 2^16, where rv narrowed to uint16 is radix-sorted
    order = np.argsort(rv.astype(np.uint16) if n <= 1 << 16 else rv, kind="stable")
    ru, rv = ru[order], rv[order]
    return _common_bits(rows, ru, rv, rv >> 6)


def _common_bits(rows: np.ndarray, u: np.ndarray, v: np.ndarray, first=None) -> int:
    """sum over e of popcount(rows[u[e]] & rows[v[e]]), in chunks.

    With rows[w] the forward neighbours of w as a bitset and (u, v) the
    forward edges, this is the triangle count.  When given, first is
    nondecreasing and both rows of edge e are clear before word first[e],
    so the AND of each run of equal first[e] starts at that word.
    """
    if u.size == 0:
        return 0
    words = rows.shape[1]
    if first is None:
        first = np.zeros(u.size, dtype=np.int64)
    cuts = [0, *(np.flatnonzero(first[1:] != first[:-1]) + 1).tolist(), u.size]
    starts = first[cuts[:-1]].tolist()
    total = 0
    for lo, hi, w in zip(cuts, cuts[1:], starts):
        # Each chunk gathers at most _GATHER_WORDS words of rows a side, so
        # its two gathers stay in cache.  Indexing copies only the words from
        # w on; np.take would first copy the whole strided band.
        chunk = max(1, _GATHER_WORDS // (words - w))
        for s in range(lo, hi, chunk):
            a = rows[u[s:min(s + chunk, hi)], w:]
            b = rows[v[s:min(s + chunk, hi)], w:]
            total += int(np.bitwise_count(np.bitwise_and(a, b, out=a)).sum())
    return total


def _unpack(rows: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Columns lo..hi-1 (lo a multiple of 8) of bitset rows, as a float32 0/1
    matrix.  Column c of a row is bit c % 8 of its byte c // 8."""
    band = rows.view(np.uint8)[:, lo >> 3:(hi + 7) >> 3]
    return np.unpackbits(band, axis=1, count=hi - lo,
                         bitorder="little").astype(np.float32)


def _triangles_tiles(rows: np.ndarray) -> tuple:
    """(triangles, column counts, (band pairs multiplied, band pairs skipped,
    multiply-adds)) of a strictly upper-triangular bitset.

    With U its 0/1 matrix, the triangles i < j < k are sum(U o U.U).  Over
    bands I <= J of _TILE rows, the float32 product U[I,J] @ U[J,J:] is
    masked by U[I,J:] and summed per row, each row sum exact (see _TILE),
    then added in float64.  Only blocks that can hold a triangle are
    multiplied: a pair whose block U[I,J] has no set bit, or whose band J
    is empty, is skipped, read from the bitset words; each band is unpacked
    and multiplied only up to its last set column, its extent; and the
    diagonal block U[I,I], empty on and below its diagonal, is multiplied in
    sub-bands of 64 rows, each from its own diagonal on.  A dense bitset
    takes about n^3/6 + _TILE n^2/4 multiply-adds in BLAS (1.23 n^3/6 at
    n = 2000), clear blocks fewer.

    Each band I, with all its pairs J >= I, is one task of _tile_band, and
    _run_bands runs the tasks on _worker_count() threads, one a CPU, band
    0, the heaviest, first; numpy's unpacking, products and sums release
    the GIL.  The tasks share nothing they write, and their results are added
    in band order, so every count is the same on any number of threads.
    Raises DomainError from n = 2^24 / _TILE on, where a row sum could
    pass 2^24.
    """
    n = rows.shape[0]
    if _TILE * n >= 1 << 24:
        raise DomainError(f"the tile kernel's float32 sums are exact below "
                          f"{(1 << 24) // _TILE} vertices, not at n={n}")
    cols = np.zeros(n, dtype=np.int64)
    starts = np.arange(0, n, _TILE)
    # occ[I]: the OR of band I's rows, word by word; filled[I, J]: whether
    # block U[I,J], the _TILE >> 6 words from J's first column, has a bit
    occ = np.bitwise_or.reduceat(rows, starts, axis=0)
    filled = np.logical_or.reduceat(occ != 0, starts >> 6, axis=1)
    # ends[I]: one past band I's last set column, its extent; 0 if empty
    ends = []
    for word in occ:
        nz = np.flatnonzero(word)
        ends.append(64 * int(nz[-1]) + int(word[nz[-1]]).bit_length() if nz.size else 0)
    bands = [I for I, i in enumerate(starts.tolist()) if ends[I] > i]
    task = functools.partial(_tile_band, rows, ends, filled)
    t = done = madds = 0
    for I, (bt, bdone, bmadds, sums) in _run_bands(task, bands):
        t += bt
        done += bdone
        madds += bmadds
        cols[I * _TILE:ends[I]] += sums
    nb = len(starts)
    return t, cols, (done, nb * (nb + 1) // 2 - done, madds)


def _run_bands(task, bands: list) -> list:
    """[(I, task(I)) for I in bands], on up to _worker_count() threads.

    The calling thread and the pool's threads each take the next band until
    none is left, so the bands start in order, the heaviest first.  Each
    thread keeps its own list of results; they are merged in band order.
    With one worker, or one band, the calling thread runs them all and no
    pool is made.
    """
    todo = iter(bands)

    def drain():
        return [(I, task(I)) for I in todo]

    workers = min(_worker_count(), len(bands))
    if workers < 2:
        return drain()
    helpers = [_band_pool(workers - 1).submit(drain) for _ in range(workers - 1)]
    try:
        out = drain()
    finally:
        # the helpers are done, and what they raised is raised, before this
        # returns, whether or not the calling thread's bands failed
        out_helpers = [r for f in helpers for r in f.result()]
    return sorted(out + out_helpers, key=lambda r: r[0])


def _tile_band(rows: np.ndarray, ends: list, filled: np.ndarray, I: int) -> tuple:
    """(triangles, band pairs multiplied, multiply-adds, column counts) of
    band I of _triangles_tiles and its pairs J >= I.

    Band I is unpacked once, to its extent; each right operand and each
    product is at most _TILE_COLS columns wide, so a band holds about
    _TILE * (n + 2 * _TILE_COLS) floats at once, whatever n.
    """
    i = I * _TILE
    e = ends[I]
    a = _unpack(rows[i:i + _TILE], i, e)
    sums = a.sum(axis=0).astype(np.int64)
    t = madds = 0
    # row r of U[I,I] is clear up to column r, so sub-band s takes the
    # product of its block's columns s.. with the rows s.. of a
    h = min(_TILE, e - i)
    for s in range(0, h, 64):
        left = a[s:s + 64, s:h]
        for c in range(s, e - i, _TILE_COLS):
            c1 = min(c + _TILE_COLS, e - i)
            t += _masked_product(left, a[s:h, c:c1], a[s:s + 64, c:c1])
        madds += left.size * (e - i - s)
    done = 1
    for J in range(I + 1, len(ends)):
        j = J * _TILE
        if j >= e:
            break
        # columns past either band's extent are clear in the mask or in the
        # right band
        k = min(e, ends[J])
        if k <= j or not filled[I, J]:
            continue
        w = min(_TILE, e - j)
        left = a[:, j - i:j - i + w]
        for c in range(j, k, _TILE_COLS):
            c1 = min(c + _TILE_COLS, k)
            t += _masked_product(left, _unpack(rows[j:j + w], c, c1), a[:, c - i:c1 - i])
        madds += left.size * (k - j)
        done += 1
    return t, done, madds, sums


def _masked_product(left: np.ndarray, right: np.ndarray, mask: np.ndarray) -> int:
    """sum(mask o (left @ right)): each row summed in float32, exactly (see
    _TILE), and the rows in float64."""
    return int(np.einsum("ij,ij->i", mask, left @ right).sum(dtype=np.float64))


def _cpu_count() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:      # no CPU affinity on this platform
        return os.cpu_count() or 1


def _worker_count() -> int:
    """Threads the tile kernel runs its bands on: _cpu_count(), or 1 while
    threads that Python did not start run beside it.

    Those are a multithreaded BLAS's: unless told to use one thread,
    OpenBLAS starts a thread for every CPU but one, and they spin between
    products.  With two bands' products at once beside them, the kernel ran
    1.1-1.3x slower than on one thread (see README).  The edge parser calls
    no BLAS and takes _cpu_count() alone.
    """
    cpus = _cpu_count()
    return 1 if cpus > 1 and _foreign_threads() else cpus


def _foreign_threads() -> int:
    """Threads of this process that Python did not start; 0 if unknown."""
    try:
        with open("/proc/self/status", "rb") as f:
            for line in f:
                if line.startswith(b"Threads:"):
                    return max(0, int(line.split()[1]) - threading.active_count())
    except OSError:
        pass
    return 0


# The pool of _band_pool, once made, under the pid of the process that made
# it.  A forked child inherits the pool but not its threads, and tasks sent
# there would wait forever, so the child makes its own.  Only this module
# holds the pool, so a dropped copy of the module, once collected, takes its
# pool and the pool's threads with it.
_pool = {}


def _band_pool(workers: int):
    """This process's thread pool, for the tile kernel's bands and the edge
    parser's chunks, made on first use with the given number of threads,
    which it keeps.

    concurrent.futures is imported only here, so a process that counts no
    seeded blow-up and reads no edge file of more than one chunk never
    imports it or starts a thread.
    """
    pid = os.getpid()
    if pid not in _pool:
        from concurrent.futures import ThreadPoolExecutor
        _pool.clear()
        _pool[pid] = ThreadPoolExecutor(workers, thread_name_prefix="triprofile-tiles")
    return _pool[pid]


def _upper_census(rows: np.ndarray) -> TripleCensus:
    """The census of the graph whose strictly upper-triangular bitset is rows.

    A vertex's degree is its row's popcount plus its column's count; the
    triangles and column counts come from _triangles_tiles, whose work is
    logged at DEBUG.
    """
    n = rows.shape[0]
    fwd = np.bitwise_count(rows).sum(axis=1, dtype=np.int64)
    t, cols, (done, skipped, madds) = _triangles_tiles(rows)
    log.debug("tile kernel: n=%d band_pairs=%d skipped=%d multiply_adds=%d "
              "(%.3f of n^3/6)", n, done, skipped, madds, madds / max(n ** 3 / 6, 1))
    deg = fwd + cols
    return _census(n, int(fwd.sum()), int((deg * (deg - 1) // 2).sum()), t)


def _triangles_wedges(u: np.ndarray, v: np.ndarray, fdeg: np.ndarray,
                      keys: np.ndarray) -> int:
    """Triangles by checking wedges, from _kernel_inputs' forward edges (u, v),
    forward degrees fdeg and sorted undirected keys (see _undirected_keys).

    For each forward edge (u, v) and each w after v in u's forward row, the
    wedge (v, w) closes a triangle exactly when v*n + w is a key; v < w,
    since each row is sorted by id.  Each triangle is found once, from its
    lowest-ranked vertex (Latapy 2008).  A bool table of the keys' Fibonacci
    hashes, the least power of two >= 8m slots, drops most open wedges
    before the exact search: a key always sets its own slot, so no closed
    wedge is dropped.  Wedges are checked in chunks of about _WEDGE_CHUNK,
    so memory is O(m) plus one chunk.
    """
    n, m = fdeg.size, u.size
    bits = _filter_bits(m)
    table = np.zeros(1 << bits, dtype=bool)
    table[_slot(keys, bits)] = True
    # cnt[e]: wedges of forward edge e, the entries after it in its row
    cnt = np.cumsum(fdeg)[u]
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
            q = q[np.take(table, _slot(q, bits))]
            # sorted queries walk the keys in order: on sparse graphs, whose
            # keys miss the cache, this cuts the searches' cost by half or more
            q.sort()
            hit = np.take(keys, np.searchsorted(keys, q), mode="clip")
            total += int(np.count_nonzero(hit == q))
        s = t
    return total


def _filter_bits(m: int) -> int:
    """log2 of the wedge pre-filter's slots: the least power of two >= 8m."""
    return (8 * m - 1).bit_length() if m else 0


# 2^64 / golden ratio, odd: multiplying by it spreads keys over the high bits
_FIB = np.uint64(0x9E3779B97F4A7C15)


def _slot(keys: np.ndarray, bits: int) -> np.ndarray:
    """Fibonacci hash of nonnegative int64 keys into 2^bits slots, as int64
    indices: the top bits of key * _FIB, whose uint64 product wraps by
    design."""
    h = keys.view(np.uint64) * _FIB
    h >>= np.uint64(64 - bits)
    return h.view(np.int64)


def _bitset_fits(n: int) -> bool:
    """Whether n vertices' bitset, n * ceil(n/64) words, fits the cap."""
    return n * ((n + 63) >> 6) * 8 <= _BITSET_MAX_BYTES


def _kernel_inputs(g: Graph) -> tuple:
    """(rank, u, v, fdeg, src, dst): all that a triangle count reads of g.

    rank[w] is the place of vertex w in (degree, id) order, and each edge is
    oriented toward the higher rank: (u, v) are the m forward edges in CSR
    order, sorted by u, then by v; fdeg[w] is w's forward degree; (src, dst)
    are both orientations of every edge in CSR order, src a fresh array.
    """
    rank = _rank(g)
    src, dst = g.directed_edges()
    fwd = np.flatnonzero(rank[dst] > rank[src])
    u, v = src[fwd], dst[fwd]
    return rank, u, v, np.bincount(u, minlength=g.n), src, dst


def _undirected_keys(n: int, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """The m undirected keys lo*n + hi, lo < hi, sorted, of _kernel_inputs'
    directed edges (src, dst); src is overwritten."""
    up = np.flatnonzero(src < dst)
    src *= n
    src += dst
    return src[up]


def _count_triangles(g: Graph) -> int:
    """Exact triangle count; the kernel is chosen from the graph.

    The rule prices the bitset kernel at its word-ANDs, sum(ceil(n/64) -
    (rank[v] >> 6)), and the wedge kernel at W = sum C(fdeg, 2) wedges.  The
    wedges run when _WEDGE_COST * W < the word-ANDs, or when the bitset
    would pass _BITSET_MAX_BYTES, so no input allocates O(n^2) memory.  The
    choice is logged at DEBUG on the "triprofile.census" logger.  Only the
    wedge kernel reads the undirected keys, so only its path builds them.
    """
    n = g.n
    rank, u, v, fdeg, src, dst = _kernel_inputs(g)
    wedges = int((fdeg * (fdeg - 1) // 2).sum())
    # the word-ANDs summed by v: deg - fdeg forward edges end at a vertex
    ands = int(((g.degrees - fdeg) * (((n + 63) >> 6) - (rank >> 6))).sum())
    use_wedges = _WEDGE_COST * wedges < ands or not _bitset_fits(n)
    log.debug("triangle count: n=%d m=%d wedges=%d word_ands=%d kernel=%s",
              n, u.size, wedges, ands, "wedges" if use_wedges else "bitset")
    keys = _undirected_keys(n, src, dst) if use_wedges else None
    # src, 2m words, is freed before either kernel runs: kept alive, it
    # slowed census-files' dense bitset census by 2-4 ms
    del src
    if use_wedges:
        return _triangles_wedges(u, v, fdeg, keys)
    return _triangles_bitset(rank, u, v)


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
    return _census(n, m, p2, _count_triangles(g))


def _census(n: int, m: int, p2: int, t: int) -> TripleCensus:
    """The census from n, m, p2 and t, by the identities in census_fast."""
    c2 = p2 - 3 * t
    c1 = m * (n - 2) - 2 * p2 + 3 * t
    c0 = math.comb(n, 3) - c1 - c2 - t
    return TripleCensus(n=n, c0=c0, c1=c1, c2=c2, c3=t)


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


def graphon_densities_brute(w: StepGraphon) -> DensityVector:
    """Oracle densities: the O(B^3) broadcast over ordered block triples.

    Sums over (i, j, k) with weight s_i s_j s_k the probability that the
    three independent pair indicators (P_ij, P_ik, P_jk) produce exactly 0,
    1, 2 or 3 edges.  Holds several arrays of B^3 floats.
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


def densities(c: TripleCensus) -> DensityVector:
    """Normalize a census to densities; edge density via the triple identity.

    d_e = (d1 + 2 d2 + 3 d3) / 3, cross-checked against m / C(n,2); the two
    agree exactly because every edge lies in n-2 triples.  A census of
    fewer than 3 vertices has no triples, so DomainError.
    """
    if c.n < 3:
        raise DomainError(f"densities need at least 3 vertices (got n={c.n})")
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
    """Exact triple densities of a step graphon, from two block products.

    With Q = 1 - P and weights s, each density is a sum of nonnegative
    terms over ordered block triples (i, j, k), weight s_i s_j s_k:

        d3 =     sum P_ij P_jk P_ik        d1 = 3 * sum Q_ij Q_jk P_ik
        d2 = 3 * sum P_ij P_jk Q_ik        d0 =     sum Q_ij Q_jk Q_ik

    (Lovasz 2012, *Large networks and graph limits*, ch. 5).  Stacking
    S = [P, Q] and X = S diag(s), the inner sums over j are the batched
    product X @ X, so the cost is O(B^2) memory and O(B^3) flops in BLAS.
    Sums of nonnegative terms keep exact zeros and never go negative; up to
    4 blocks they are within 4 ulp of the exact sum.
    ``graphon_densities_brute`` is the oracle.
    """
    s = w.sizes
    P = w.probs
    S = np.array([P, 1.0 - P])
    X = S * s
    # M[a][b] = sum_ijk s_i s_j s_k S_a[i, j] S_a[j, k] S_b[i, k]
    (ppp, ppq), (qqp, qqq) = (((X @ X)[:, None] * S).sum(-1) @ s).tolist()
    d_e = float(s @ P @ s)
    return DensityVector(d0=qqq, d1=3 * qqp, d2=3 * ppq, d3=ppp, d_e=d_e)


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

    A well-formed file is parsed in numpy, its chunks on two threads when
    the process may use more than one CPU (see _parse_edge_bytes).  Any file
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
    n_directive, ends = _parse_edge_lines(_utf8_lines(data))
    return _edge_graph(n_directive, np.frombuffer(ends, dtype=np.int64).reshape(-1, 2))


def _edge_graph(n_directive, edges: np.ndarray) -> Graph:
    n = n_directive if n_directive is not None else (
        int(edges.max()) + 1 if edges.size else 0)
    return Graph.from_edges(n, edges)


def _parse_edge_bytes(data: bytes):
    """(n directive or None, (m, 2) endpoints) of a well-formed file, or None.

    The leading blank, comment and "n" lines go through the line loop.  The
    rest is taken only if every byte is a digit, space, tab, CR or LF, every
    line (ended by CR or LF) holds 0 or 2 tokens, and no token has more than
    _MAX_DIGITS digits.  It is checked and parsed in chunks of about
    _EDGE_CHUNK bytes, each cut after a line end.  None means the line loop
    must decide.

    With _cpu_count() above 1 and more than one chunk, the chunks are
    parsed in pairs, chunk k on the calling thread and chunk k + 1 on a
    thread of _band_pool; np.fromstring and the masks release the GIL.  A
    pair is done before the next starts, and the chunks are joined in file
    order, so the endpoints are the same on any number of threads.  The
    helper's array is copied into the calling thread's heap as soon as it is
    taken: glibc gives the helper thread its own malloc arena, and a
    prototype that left the arrays there until the join grew census-files'
    peak RSS from 121.7 MB to 135-147 MB (unchanged under
    MALLOC_ARENA_MAX=1); with the copy it stays at 121.6-121.8 MB.
    Otherwise everything runs inline and no pool is made.
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
    cuts = [body]
    while cuts[-1] < len(data):
        eol = _EOL.search(data, cuts[-1] + _EDGE_CHUNK)
        cuts.append(eol.end() if eol else len(data))
    spans = list(zip(cuts, cuts[1:]))
    workers = _cpu_count() if len(spans) > 1 else 1
    step = min(workers, 2)
    parts = []
    for k in range(0, len(spans), step):
        # chunk k on this thread, and chunk k + 1, if any, on the pool's
        (a, b), *theirs = spans[k:k + step]
        helper = [_band_pool(workers - 1).submit(_parse_edge_chunk, data[c:d])
                  for c, d in theirs]
        try:
            parts.append(_parse_edge_chunk(data[a:b]))
        finally:
            # the helper is done before this returns or raises
            parts += [f.result() for f in helper]
            del helper      # its futures would keep the helper's array
        if any(e is None for e in parts[k:]):
            return None
        # the helper's array is copied into this thread's heap and dropped
        parts[k + 1:] = [e.copy() for e in parts[k + 1:]]
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


def _utf8_lines(data: bytes):
    """Yield the lines of data as _LINE splits them, each decoded from UTF-8;
    a line that is not UTF-8 raises InputFormatError naming it."""
    for lineno, match in enumerate(_LINE.finditer(data), 1):
        raw = match.group()
        if not raw:
            return                  # the end of the data
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
                if n_directive > _MAX_VERTICES:
                    raise InputFormatError(f"line {lineno}: vertex count too large")
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
            if u >= _MAX_VERTICES or v >= _MAX_VERTICES:
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
    """Write a graph in the edge-list format, with the "n <N>" directive,
    then one "u v" line per edge, u < v, in the order of :meth:`Graph.edges`."""
    src, dst = g.directed_edges()
    keep = src < dst
    pairs = np.column_stack([src[keep], dst[keep]])
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(f"n {g.n}\n")
        for lo in range(0, len(pairs), _WRITE_LINES):
            block = pairs[lo:lo + _WRITE_LINES]
            f.write("%d %d\n" * len(block) % tuple(block.ravel().tolist()))


def _json_numbers(value) -> bool:
    """Whether every leaf of a parsed JSON value is a number (not a bool)."""
    stack = [value]
    while stack:
        v = stack.pop()
        if isinstance(v, list):
            stack.extend(v)
        elif isinstance(v, bool) or not isinstance(v, (int, float)):
            return False
    return True


def read_step_graphon(path) -> StepGraphon:
    """Parse a step-graphon document: JSON with keys "sizes" and "probs"."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (json.JSONDecodeError, UnicodeDecodeError) as e:
        raise InputFormatError(f"not a valid step-graphon document: {e}") from None
    except RecursionError:
        raise InputFormatError(
            "not a valid step-graphon document: nested too deeply") from None
    if not isinstance(doc, dict) or set(doc) - {"sizes", "probs"}:
        raise InputFormatError(
            'step-graphon document must be an object with keys "sizes" and "probs"')
    if "sizes" not in doc or "probs" not in doc:
        raise InputFormatError('missing key: "sizes" and "probs" are both required')
    for key in ("sizes", "probs"):
        # StepGraphon's float conversion would take "0.5" and true as numbers
        if not _json_numbers(doc[key]):
            raise InputFormatError(f"invalid step graphon: {key} must be a "
                                   f"rectangular array of real numbers")
    try:
        return StepGraphon(doc["sizes"], doc["probs"])
    except DomainError as e:
        raise InputFormatError(f"invalid step graphon: {e}") from None


def write_step_graphon(w: StepGraphon, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        json.dump({"sizes": w.sizes.tolist(), "probs": w.probs.tolist()}, f, indent=1)
        f.write("\n")
