"""Extremal families, as exact step graphons and as finite graphs.

Each family traces part of a region boundary (or fills its interior) in the
limit; the graphon form is the exact limit object and the finite form is a
floor-rounded realization, deterministic for 0/1 block densities and seeded
otherwise.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import boundary
from .census import Graph, StepGraphon, _block_random_graph, graphon_densities
from .errors import DomainError

__all__ = [
    "FamilySpec",
    "FAMILY_DOMAINS",
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
    "realize",
    "limit_graphon",
]

_DROP = 1e-15


def _graphon(sizes, probs) -> StepGraphon:
    """Build a step graphon, dropping zero-weight blocks."""
    s = np.asarray(sizes, dtype=float)
    P = np.asarray(probs, dtype=float)
    keep = s > _DROP
    return StepGraphon(s[keep], P[np.ix_(keep, keep)])


def _check(name: str, value: float, lo: float, hi: float,
           hi_open: bool = False) -> float:
    value = float(value)
    ok = math.isfinite(value) and lo <= value and (value < hi if hi_open else value <= hi)
    if not ok:
        right = ")" if hi_open else "]"
        raise DomainError(f"{name} must lie in [{lo:g}, {hi:g}{right} (got {value!r})")
    return value


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
    x = _check("x", x, -0.25, 0.25)
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


def _sample_block_graph(part_sizes, probs, seed: int) -> Graph:
    """Graph on fixed parts; each pair joined with its block density.

    One uniform per unordered pair in row-major order (PCG64, seeded), so
    the output is reproducible; with all densities 0 or 1 the result does
    not depend on the seed at all.
    """
    parts = [int(p) for p in part_sizes]
    if any(p < 0 for p in parts):
        raise DomainError("part sizes must be nonnegative")
    P = np.asarray(probs, dtype=float)
    blocks = np.repeat(np.arange(len(parts)), parts)
    return _block_random_graph(blocks, P, np.random.default_rng(seed))


def _range_clique_edges(start: int, size: int) -> np.ndarray:
    if size < 2:
        return np.empty((0, 2), dtype=np.int64)
    iu, ju = np.triu_indices(size, 1)
    return np.column_stack([iu + start, ju + start]).astype(np.int64)


def g0_graph(x: float, n: int, seed: int = 0) -> Graph:
    """Finite n-vertex realization of g0_graphon(x).

    Part sizes are floors of the limit weights; only the regime with
    fractional densities (0 < x < 1/16) consumes randomness.  In the
    linked-cliques regime the bipartite graph between the two linked parts
    is the circulant: vertex i of one side is adjacent to vertices
    i, i+1, ..., i+d-1 (mod size) of the other, d = floor(delta * size),
    which is exactly biregular.
    """
    x = _check("x", x, -0.25, 0.25)
    if n < 8:
        raise DomainError("need n >= 8")
    if x < 0:
        s = int((0.25 + x) * n)
        parts = [s, s, s, s, n - 4 * s]
        P = np.zeros((5, 5))
        P[0, 1] = P[1, 0] = 1.0
        P[2, 3] = P[3, 2] = 1.0
        return _sample_block_graph(parts, P, seed)
    if x < 1.0 / 16.0:
        u = 16.0 * x
        P = np.zeros((4, 4))
        np.fill_diagonal(P, u)
        P[0, 1] = P[1, 0] = 1.0 - u
        P[2, 3] = P[3, 2] = 1.0 - u
        return _sample_block_graph(_near_equal_parts(n, 4), P, seed)
    if x < 1.0 / 9.0:
        sg = boundary.linked_cliques_sigma_for_triangle(x)
        delta = boundary.linked_cliques_cross_density(sg)
        na = int((1.0 - 2.0 * sg) / 2.0 * n)
        if na < 1:
            raise DomainError(f"n={n} too small for nonempty parts")
        rem = n - 2 * na
        nc = (rem + 1) // 2
        nd = rem - nc
        offs = np.cumsum([0, na, na, nc, nd])
        chunks = [_range_clique_edges(offs[i], offs[i + 1] - offs[i])
                  for i in range(4)]
        d = int(delta * na)
        if d > 0:
            i = np.arange(na, dtype=np.int64)
            cross = [np.column_stack([i, offs[1] + (i + shift) % na])
                     for shift in range(d)]
            chunks.extend(cross)
        return Graph.from_edges(n, np.concatenate(chunks))
    sg = boundary.three_cliques_sigma_for_triangle(x)
    sa = int(sg * n)
    if sa < 1:
        raise DomainError(f"n={n} too small for nonempty parts")
    return _sample_block_graph([sa, sa, n - 2 * sa], np.eye(3), seed)


def g1_graphon(a: float, x: float) -> StepGraphon:
    """g0_graphon(x) scaled to mass 1-a plus a fully-joined block of mass a."""
    a = _check("a", a, 0.0, 1.0)
    if a == 0.0:
        return g0_graphon(x)
    if a == 1.0:
        _check("x", x, -0.25, 0.25)
        return StepGraphon([1.0], [[1.0]])
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


def g1_graph(a: float, x: float, n: int, seed: int = 0) -> Graph:
    """g0_graph on ceil((1-a) n) vertices plus floor(a n) universal vertices."""
    a = _check("a", a, 0.0, 1.0)
    if n < 8:
        raise DomainError("need n >= 8")
    m = math.ceil((1.0 - a) * n)
    if m == 0:
        return Graph.complete(n)
    if m < 8:
        raise DomainError(f"(1-a)*n = {m} leaves too few vertices for the base family")
    base = g0_graph(x, m, seed)
    src, dst = base.directed_edges()
    keep = src < dst
    edges = [np.column_stack([src[keep], dst[keep]])]
    for u in range(m, n):
        others = np.arange(u, dtype=np.int64)
        edges.append(np.column_stack([others, np.full(u, u, dtype=np.int64)]))
    return Graph.from_edges(n, np.concatenate(edges))


def g2_graphon(a: float, p: float) -> StepGraphon:
    """Two blocks a and 1-a: complete inside the first, density p across,
    density 1-p inside the second."""
    a = _check("a", a, 0.0, 1.0)
    p = _check("p", p, 0.0, 1.0)
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
    a = _check("a", a, 0.0, 1.0)
    p = _check("p", p, 0.0, 1.0)
    return _graphon([a, 1.0 - a], [[p, 1.0 - p], [1.0 - p, p]])


def _floor_reciprocal(a: float) -> int:
    # tiny epsilon so float inputs like 0.1 produce the intended 1/a
    return int(math.floor(1.0 / a + 1e-9))


def s23_graphon(a: float, b: float) -> StepGraphon:
    """Complete multipartite graphon on mass b plus isolated mass 1-b.

    For a > 0 the multipartite portion has floor(1/a) parts of weight a*b
    and one remainder part; for a = 0 it is a single clique block.  The
    (cherry, triangle) profile scales as b^3 times the b = 1 profile.
    """
    a = _check("a", a, 0.0, 0.5)
    b = _check("b", b, 0.0, 1.0)
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
    d = _check("edge density", edge_density, 0.5, 1.0, hi_open=True)
    p = boundary.edge_partition(d)
    k, z = p.k, p.z
    sizes = [(1.0 - z) / (k - 1)] * (k - 1) + [z]
    return _graphon(sizes, 1.0 - np.eye(k))


def clique_plus_isolated_graphon(a: float, complemented: bool = False) -> StepGraphon:
    """Clique block of mass a plus isolated mass 1-a; optionally complemented.

    Sweeping a over [0, 1] in both orientations traces the S03 upper curve.
    """
    a = _check("a", a, 0.0, 1.0)
    P = np.array([[1.0, 0.0], [0.0, 0.0]])
    if complemented:
        P = 1.0 - P
    return _graphon([a, 1.0 - a], P)


def blowup_graph(w: StepGraphon, n: int, seed: int = 0) -> Graph:
    """Finite realization: floor-sized parts (leftover vertices to the last
    part), pairs joined with their block density (deterministic when the
    densities are all 0/1)."""
    if n < 1:
        raise DomainError("need n >= 1")
    parts = [int(s * n) for s in w.sizes]
    parts[-1] += n - sum(parts)
    return _sample_block_graph(parts, w.probs, seed)


FAMILY_DOMAINS = {
    "g0": {"x": (-0.25, 0.25, False)},
    "g1": {"a": (0.0, 1.0, False), "x": (-0.25, 0.25, False)},
    "g2": {"a": (0.0, 1.0, False), "p": (0.0, 1.0, False)},
    "s12": {"a": (0.0, 1.0, False), "p": (0.0, 1.0, False)},
    "multipartite": {"a": (0.0, 0.5, False), "b": (0.0, 1.0, False)},
    "min-triangle": {"de": (0.5, 1.0, True)},
    "clique-isolated": {"a": (0.0, 1.0, False), "complemented": (0.0, 1.0, False)},
}


@dataclass
class FamilySpec:
    """A construction family plus its parameters and realization size."""

    family: str
    params: dict = field(default_factory=dict)
    n: Optional[int] = None
    seed: Optional[int] = None

    def __post_init__(self):
        if self.family not in FAMILY_DOMAINS:
            raise DomainError(
                f"unknown family {self.family!r}; valid: {sorted(FAMILY_DOMAINS)}")
        domains = FAMILY_DOMAINS[self.family]
        unknown = set(self.params) - set(domains)
        if unknown:
            raise DomainError(
                f"unknown parameter(s) {sorted(unknown)} for family {self.family!r};"
                f" expected {sorted(domains)}")
        missing = set(domains) - set(self.params)
        if missing:
            raise DomainError(
                f"missing parameter(s) {sorted(missing)} for family {self.family!r}")
        for key, (lo, hi, hi_open) in domains.items():
            _check(f"{self.family} parameter {key}", self.params[key], lo, hi,
                   hi_open=hi_open)


def limit_graphon(spec: FamilySpec) -> StepGraphon:
    """The exact limit object of a family at the given parameters."""
    p = spec.params
    if spec.family == "g0":
        return g0_graphon(p["x"])
    if spec.family == "g1":
        return g1_graphon(p["a"], p["x"])
    if spec.family == "g2":
        return g2_graphon(p["a"], p["p"])
    if spec.family == "s12":
        return s12_graphon(p["a"], p["p"])
    if spec.family == "multipartite":
        return s23_graphon(p["a"], p["b"])
    if spec.family == "min-triangle":
        return min_triangle_graphon(p["de"])
    return clique_plus_isolated_graphon(p["a"], bool(p["complemented"]))


def realize(spec: FamilySpec) -> Graph:
    """Finite graph of a family: floor part sizes, circulant bipartite link
    where the family calls for exact biregularity, seeded sampling for
    fractional densities."""
    if spec.n is None or spec.n < 8:
        raise DomainError("realization needs n >= 8")
    n = spec.n
    seed = 0 if spec.seed is None else spec.seed
    p = spec.params
    if spec.family == "g0":
        return g0_graph(p["x"], n, seed)
    if spec.family == "g1":
        return g1_graph(p["a"], p["x"], n, seed)
    if spec.family == "g2":
        a = p["a"]
        parts = [int(a * n)]
        parts.append(n - parts[0])
        pr = p["p"]
        P = np.array([[1.0, pr], [pr, 1.0 - pr]])
        return _sample_block_graph(parts, P, seed)
    if spec.family == "s12":
        a = p["a"]
        parts = [int(a * n)]
        parts.append(n - parts[0])
        pr = p["p"]
        P = np.array([[pr, 1.0 - pr], [1.0 - pr, pr]])
        return _sample_block_graph(parts, P, seed)
    if spec.family == "multipartite":
        a, b = p["a"], p["b"]
        iso = int((1.0 - b) * n)
        inner_total = n - iso
        if a == 0.0:
            parts = [inner_total, iso]
            P = np.zeros((2, 2))
            P[0, 0] = 1.0
            return _sample_block_graph(parts, P, seed)
        m = _floor_reciprocal(a)
        part = int(a * b * n)
        parts = [part] * m + [inner_total - m * part, iso]
        k = m + 1
        P = np.zeros((k + 1, k + 1))
        P[:k, :k] = 1.0 - np.eye(k)
        return _sample_block_graph(parts, P, seed)
    if spec.family == "min-triangle":
        return blowup_graph(min_triangle_graphon(p["de"]), n, seed)
    return blowup_graph(
        clique_plus_isolated_graphon(p["a"], bool(p["complemented"])), n, seed)
