"""Extremal families, as exact step graphons and as finite graphs.

Each family traces part of a region boundary (or fills its interior) in the
limit.  FAMILIES gives each one its parameter domains, its exact limit
graphon and its finite structure at n vertices: a floor-rounded blow-up,
deterministic for 0/1 block densities and seeded otherwise.  A deterministic
structure fixes the census as a polynomial in its part sizes, which
finite_census evaluates without building the graph.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import boundary
from .boundary import _check_range
from .census import (Graph, StepGraphon, TripleCensus, _Blowup, _check_seed,
                     census_fast, graphon_densities)
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
    "realize",
    "limit_graphon",
    "finite_census",
]

_DROP = 1e-15
# Most parts a multipartite family may have.  graphon_densities is O(B^2)
# in memory: on one core of a 2-core Intel Xeon VM it takes 1.2 ms and peaks
# at 1.3 MB at 128 blocks, 0.14 s and 80 MB at 1024.
_MAX_PARTS = 128

log = logging.getLogger(__name__)


def _graphon(sizes, probs) -> StepGraphon:
    """Build a step graphon, dropping zero-weight blocks."""
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
    circulant of degree floor(delta * size).
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
        if na < 1:
            raise DomainError(f"n={n} too small for nonempty parts")
        rem = n - 2 * na
        return _Blowup([na, na, (rem + 1) // 2, rem // 2], np.eye(4),
                       link=(0, 1, int(delta * na)))
    sa = int(boundary.three_cliques_sigma_for_triangle(x) * n)
    if sa < 1:
        raise DomainError(f"n={n} too small for nonempty parts")
    return _Blowup([sa, sa, n - 2 * sa], np.eye(3))


def g0_graph(x: float, n: int, seed: int = 0) -> Graph:
    """Finite n-vertex realization of g0_graphon(x) (see _g0_blowup)."""
    x = _check_range("x", x, -0.25, 0.25)
    if n < 8:
        raise DomainError("need n >= 8")
    return _g0_blowup(n, x).graph(seed)


def g1_graphon(a: float, x: float) -> StepGraphon:
    """g0_graphon(x) scaled to mass 1-a plus a fully-joined block of mass a."""
    a = _check_range("a", a, 0.0, 1.0)
    if a == 0.0:
        return g0_graphon(x)
    if a == 1.0:
        _check_range("x", x, -0.25, 0.25)
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
    a = _check_range("a", a, 0.0, 1.0)
    x = _check_range("x", x, -0.25, 0.25)
    if n < 8:
        raise DomainError("need n >= 8")
    return _g1_blowup(n, a, x).graph(seed)


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


def _two_parts(n: int, a: float, probs) -> _Blowup:
    k = int(a * n)
    return _Blowup([k, n - k], np.array(probs))


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
    parts = [int(s * n) for s in w.sizes]
    parts[-1] += n - sum(parts)
    return _Blowup(parts, w.probs)


def blowup_graph(w: StepGraphon, n: int, seed: int = 0) -> Graph:
    """Finite realization: floor-sized parts (leftover vertices to the last
    part), pairs joined with their block density (deterministic when the
    densities are all 0/1)."""
    if n < 1:
        raise DomainError("need n >= 1")
    return _blowup(w, n).graph(seed)


class Family(NamedTuple):
    """One construction family: each parameter's (lo, hi, hi_open) domain,
    the limit graphon and the finite blow-up at n vertices (both called with
    the parameters as keywords), and the parameters that take only 0 or 1."""

    domains: dict
    graphon: Callable[..., StepGraphon]
    blowup: Callable[..., _Blowup]
    flags: tuple = ()


_UNIT = (0.0, 1.0, False)
_X = (-0.25, 0.25, False)

FAMILIES = {
    "g0": Family({"x": _X}, g0_graphon, _g0_blowup),
    "g1": Family({"a": _UNIT, "x": _X}, g1_graphon, _g1_blowup),
    "g2": Family({"a": _UNIT, "p": _UNIT}, g2_graphon,
                 lambda n, a, p: _two_parts(n, a, [[1.0, p], [p, 1.0 - p]])),
    "s12": Family({"a": _UNIT, "p": _UNIT}, s12_graphon,
                  lambda n, a, p: _two_parts(n, a, [[p, 1.0 - p], [1.0 - p, p]])),
    "multipartite": Family({"a": (0.0, 0.5, False), "b": _UNIT}, s23_graphon,
                           _multipartite_blowup),
    "min-triangle": Family({"de": (0.5, 1.0, True)}, lambda de: min_triangle_graphon(de),
                           lambda n, de: _blowup(min_triangle_graphon(de), n)),
    "clique-isolated": Family(
        {"a": _UNIT, "complemented": _UNIT}, clique_plus_isolated_graphon,
        lambda n, **p: _blowup(clique_plus_isolated_graphon(**p), n), ("complemented",)),
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
        if self.seed is not None:
            _check_seed(self.seed)


def limit_graphon(spec: FamilySpec) -> StepGraphon:
    """The exact limit object of a family at the given parameters."""
    return FAMILIES[spec.family].graphon(**spec.params)


def _finite(spec: FamilySpec) -> _Blowup:
    if spec.n is None or spec.n < 8:
        raise DomainError("realization needs n >= 8")
    return FAMILIES[spec.family].blowup(spec.n, **spec.params)


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
        path, census = bl.census(0 if spec.seed is None else spec.seed)
    else:
        path, census = "graph", census_fast(graph)
    log.debug("finite census: family=%s n=%d path=%s", spec.family, spec.n, path)
    return census
