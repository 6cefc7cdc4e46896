"""Boundary curves and membership tests for the pairwise density regions.

The set of achievable 3-vertex density profiles of large graphs projects
onto six coordinate planes, of which four are distinct up to complementation
(S03, S12, S13, S23, indexing the number of edges in the two triple types).
This module evaluates every boundary curve of those regions in closed form,
inverts the monotone ones by safeguarded Newton iteration, and decides
membership with a signed slack.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional

from .errors import DomainError

__all__ = [
    "Region",
    "MembershipVerdict",
    "CurveParams",
    "parse_region",
    "region_coords",
    "edge_partition",
    "min_triangle_density",
    "min_triangle_density_inverse",
    "linked_cliques_cross_density",
    "linked_cliques_profile",
    "three_cliques_profile",
    "linked_cliques_sigma_for_triangle",
    "three_cliques_sigma_for_triangle",
    "s13_upper_bound",
    "s13_upper_piece",
    "s13_upper_slope",
    "isolated_mass_for_cotriangle",
    "s03_upper_bound",
    "membership",
    "sample_boundary",
]

# inverse curves promise 1e-12 argument accuracy; running the solves a
# few halvings past that keeps composed round trips well inside it
SOLVE_TOL = 2e-14


class Region(Enum):
    """The four distinct coordinate-plane projections."""

    S03 = "s03"
    S12 = "s12"
    S13 = "s13"
    S23 = "s23"


# Any ordered index pair reduces to one of the four regions: complementation
# maps densities d_i to d_{3-i}, so S_{xy} equals S_{(3-x)(3-y)} as a point
# set, and reversing the pair just swaps coordinates.
_REGION_ALIASES = {
    "03": (Region.S03, False), "30": (Region.S03, True),
    "12": (Region.S12, False), "21": (Region.S12, True),
    "13": (Region.S13, False), "31": (Region.S13, True),
    "20": (Region.S13, False), "02": (Region.S13, True),
    "23": (Region.S23, False), "32": (Region.S23, True),
    "10": (Region.S23, False), "01": (Region.S23, True),
}


def parse_region(name) -> tuple:
    """Resolve a region name to (canonical region, swap-coordinates flag).

    Accepts the four canonical names and all complement/reversed aliases,
    e.g. "s30" delegates to S03 with swapped coordinates.
    """
    if isinstance(name, Region):
        return name, False
    key = str(name).strip().lower().lstrip("s")
    if key in _REGION_ALIASES:
        return _REGION_ALIASES[key]
    raise DomainError(f"unknown region {name!r}; expected one of s03, s12, s13, s23")


def region_coords(d) -> dict:
    """A density vector's coordinates in each canonical region, in the order
    s03, s12, s13, s23."""
    return {
        "s03": (d.d0, d.d3),
        "s12": (d.d1, d.d2),
        "s13": (d.d1, d.d3),
        "s23": (d.d2, d.d3),
    }


@dataclass(frozen=True)
class MembershipVerdict:
    """Outcome of a region query.

    ``slack`` is the minimum over the region's defining inequalities of
    (RHS - LHS): positive strictly inside, negative outside.  ``binding``
    names the tightest constraint.
    """

    inside: bool
    slack: float
    binding: str


@dataclass(frozen=True)
class CurveParams:
    """Parameters behind a boundary-curve evaluation.

    ``k``/``z`` describe the complete multipartite structure minimizing the
    triangle density at a given edge density (k-1 equal parts and one part
    of weight z in (0, 1/k]).
    """

    k: Optional[int] = None
    z: Optional[float] = None


def _solve(f: Callable[[float], float], df: Callable[[float], float],
           lo: float, hi: float, target: float, start: float) -> float:
    """Invert an increasing f on [lo, hi] to absolute argument tolerance.

    Safeguarded Newton (rtsafe): every evaluation of f moves one end of the
    bracket [lo, hi] around the root, and a bisection step replaces any
    Newton step that would leave the bracket or that is not at most half
    the step before last.  A Newton step past an end of [lo, hi] that no
    evaluation has moved lands on that end, so a root at the end of the
    range is hit exactly instead of being crept up on by bisection.  Stops
    at an exact hit, or once the bracket or a Newton step is within SOLVE_TOL;
    ``start`` is clamped into the bracket.  On an f
    that is not monotone it ends where f - target changes sign from below
    to above, or at an end of [lo, hi].
    """
    bottom, top = lo, hi
    x = min(max(start, lo), hi)
    step = before = hi - lo
    while hi - lo > SOLVE_TOL:
        fx = f(x) - target
        if fx == 0.0:
            return x
        if fx < 0.0:
            lo = x
        else:
            hi = x
        slope = df(x)
        dx = fx / slope if slope > 0.0 else math.copysign(math.inf, fx)
        if abs(dx) <= 0.25 * SOLVE_TOL:
            return x - dx
        nx = x - dx
        if nx >= hi and hi == top:
            nx, dx = hi, x - hi
        elif nx <= lo and lo == bottom:
            nx, dx = lo, x - lo
        if lo <= nx <= hi and 2.0 * abs(dx) <= abs(before):
            before, step = step, dx
            x = nx
        else:
            before, step = step, 0.5 * (hi - lo)
            x = lo + step
    return 0.5 * (lo + hi)


def _check_range(name: str, value: float, lo: float, hi: float,
                 hi_open: bool = False) -> float:
    value = float(value)
    ok = math.isfinite(value) and lo <= value and (value < hi if hi_open else value <= hi)
    if not ok:
        right = ")" if hi_open else "]"
        raise DomainError(f"{name} must lie in [{lo:g}, {hi:g}{right} (got {value!r})")
    return value


def edge_partition(edge_density: float) -> CurveParams:
    """Multipartite structure minimizing triangle density at this edge density.

    Returns the smallest k >= 2 with edge_density <= 1 - 1/k and the unique
    z in (0, 1/k] with edge_density = (1-z)(kz+k-2)/(k-1): the complete
    k-partite graphon with k-1 parts of weight (1-z)/(k-1) and one of weight
    z.  The quadratic is solved in closed form on the branch that lands in
    the interval.
    """
    d = _check_range("edge density", edge_density, 0.5, 1.0)
    if d >= 1.0:
        raise DomainError("edge density 1 has no finite partition")
    # gap = 1-d is exact for d in [1/2, 1); compare 1/k against it directly
    # (the form d <= 1-1/k is useless near 1, where 1-1/k rounds coarsely)
    gap = 1.0 - d
    k = max(2, math.ceil(1.0 / gap))
    while k > 2 and 1.0 / (k - 1) <= gap:
        k -= 1
    while 1.0 / k > gap:
        k += 1
    return CurveParams(k=k, z=_partition_z(d, k))


def _partition_z(d: float, k: int) -> float:
    """The root z in [0, 1/k] of d = (1-z)(kz+k-2)/(k-1), for fixed k."""
    rad = 1.0 - k * (d * (k - 1) - k + 2.0)
    z = (1.0 - math.sqrt(max(rad, 0.0))) / k
    return min(max(z, 0.0), 1.0 / k)


def _piece_triangles(z: float, k: int) -> float:
    """Triangle density of the k-partite structure with small part z."""
    return (1.0 - z) ** 2 * (k - 2) * (2.0 * z * k + k - 3.0) / (k - 1) ** 2


def min_triangle_density(edge_density: float) -> float:
    """Tight lower bound on triangle density at a given edge density.

    Zero below edge density 1/2; for d_e in [1/2, 1) it is the triangle
    density (1-z)^2 (k-2) (2zk+k-3) / (k-1)^2 of the extremal complete
    multipartite structure; 1 at d_e = 1.
    """
    d = _check_range("edge density", edge_density, 0.0, 1.0)
    if d <= 0.5:
        return 0.0
    if d >= 1.0:
        return 1.0
    p = edge_partition(d)
    return _piece_triangles(p.z, p.k)


def min_triangle_density_inverse(t: float) -> float:
    """Inverse of the edge->min-triangle envelope, restricted to [1/2, 1].

    The envelope is smooth between its breakpoints T(k) = (k-1)(k-2)/k^2 at
    d_e = 1 - 1/k.  The piece holding t, the smallest k >= 3 with
    T(k) >= t, is found in O(1); the solve then runs on that piece alone,
    with slope dt/dd_e = 3(1-z)(k-2)/(k-1), starting from the trigonometric
    root of the piece's cubic, which it confirms in one evaluation.  The
    result is within SOLVE_TOL of the exact inverse.
    """
    t = _check_range("triangle density", t, 0.0, 1.0)
    if t == 0.0:
        return 0.5
    if t == 1.0:
        return 1.0
    # T(k) >= t is (3k-2)/k^2 <= 1-t, a quadratic in k solved in closed form
    # (about 3/(1-t)) and then checked exactly: int/int division rounds
    # correctly, and 1-t is exact for t >= 1/2, where k can be huge
    gap = 1.0 - t
    k = max(3, math.ceil((3.0 + math.sqrt(9.0 - 8.0 * gap)) / (2.0 * gap)))
    while k > 3 and (3 * k - 5) / (k - 1) ** 2 <= gap:
        k -= 1
    while (3 * k - 2) / (k * k) > gap:
        k += 1
    # with r = 1 - kz and u = r/(k-1) the piece is the cubic
    # t = T(k)(1 - 3u^2 - 2u^3); cos(3q) = 4cos(q)^3 - 3cos(q) gives its root
    # u = cos(arccos(1 - 2t/T(k))/3) - 1/2, and d_e = ((k-2) + (1-r^2)/k)/(k-1)
    # inverts _partition_z, so the solve starts within round-off of the root
    top = (k - 1) * (k - 2) / (k * k)
    r = (k - 1) * (math.cos(math.acos(max(-1.0, 1.0 - 2.0 * t / top)) / 3.0) - 0.5)
    return _solve(lambda d: _piece_triangles(_partition_z(d, k), k),
                  lambda d: 3.0 * (1.0 - _partition_z(d, k)) * (k - 2) / (k - 1),
                  1.0 - 1.0 / (k - 1), 1.0 - 1.0 / k, t,
                  start=((k - 2) + (1.0 - r * r) / k) / (k - 1))


def linked_cliques_cross_density(sigma: float) -> float:
    """Cross-edge density between the two linked cliques, (4s-1)/((1-2s)sqrt(5-12s)).

    The structure: two free cliques of weight sigma each, plus a component
    made of two cliques of weight (1-2 sigma)/2 joined by a biregular
    bipartite graph of this density.  Defined for sigma in [1/4, 1/3] and
    increasing from 0 to 1 there.
    """
    s = _check_range("sigma", sigma, 0.25, 1.0 / 3.0)
    if s == 1.0 / 3.0:
        return 1.0
    return (4.0 * s - 1.0) / ((1.0 - 2.0 * s) * math.sqrt(5.0 - 12.0 * s))


def linked_cliques_profile(sigma: float) -> tuple:
    """(co-cherry, triangle) densities of the linked-cliques structure."""
    s = _check_range("sigma", sigma, 0.25, 1.0 / 3.0)
    root = math.sqrt(5.0 - 12.0 * s)
    d1 = (9.0 - 48.0 * s + 114.0 * s ** 2 - 120.0 * s ** 3
          + 3.0 * (1.0 - 2.0 * s) * (4.0 * s - 1.0) ** 2 * root) / (10.0 - 24.0 * s)
    return d1, _linked_triangles(s)


def _linked_triangles(s: float) -> float:
    return (2.0 - 18.0 * s + 57.0 * s ** 2 - 60.0 * s ** 3) / (5.0 - 12.0 * s)


def _linked_triangles_slope(s: float) -> float:
    return 6.0 * (4.0 * s - 1.0) * (60.0 * s * s - 51.0 * s + 11.0) / (5.0 - 12.0 * s) ** 2


def three_cliques_profile(sigma: float) -> tuple:
    """(co-cherry, triangle) densities of three cliques (sigma, sigma, 1-2 sigma)."""
    s = _check_range("sigma", sigma, 1.0 / 3.0, 0.5)
    d1 = 6.0 * s - 18.0 * s ** 2 + 18.0 * s ** 3
    return d1, _three_triangles(s)


def _three_triangles(s: float) -> float:
    return 1.0 - 6.0 * s + 12.0 * s ** 2 - 6.0 * s ** 3


def linked_cliques_sigma_for_triangle(x: float) -> float:
    """Invert the increasing triangle density of the linked-cliques family.

    The family's triangle density is 1/16 + 6(sigma-1/4)^2 + O((sigma-1/4)^3),
    quadratically flat at sigma = 1/4, so the exact left endpoint is pinned
    and the solve starts from the quadratic's root.
    """
    x = _check_range("triangle density", x, 1.0 / 16.0, 1.0 / 9.0)
    if x == 1.0 / 16.0:
        return 0.25
    return _solve(_linked_triangles, _linked_triangles_slope, 0.25, 1.0 / 3.0, x,
                  start=0.25 + math.sqrt((x - 1.0 / 16.0) / 6.0))


def three_cliques_sigma_for_triangle(x: float) -> float:
    """Invert the increasing triangle density of the three-cliques family.

    It is 1/9 + 6(sigma-1/3)^2 (1 - (sigma-1/3)), slope 6(1-sigma)(3 sigma-1);
    the solve starts from the quadratic's root.
    """
    x = _check_range("triangle density", x, 1.0 / 9.0, 0.25)
    return _solve(_three_triangles, lambda s: 6.0 * (1.0 - s) * (3.0 * s - 1.0),
                  1.0 / 3.0, 0.5, x, start=1.0 / 3.0 + math.sqrt((x - 1.0 / 9.0) / 6.0))


_S13_PIECES = (
    ("linear", 0.0, 1.0 / 16.0),
    ("concave", 1.0 / 16.0, 1.0 / 9.0),
    ("convex", 1.0 / 9.0, 0.25),
    ("unit-sum", 0.25, 1.0),
)


def s13_upper_piece(x: float) -> str:
    """Name of the S13 upper-curve piece active at triangle density x."""
    x = _check_range("triangle density", x, 0.0, 1.0)
    if x <= 1.0 / 16.0:
        return "linear"
    if x < 1.0 / 9.0:
        return "concave"
    if x < 0.25:
        return "convex"
    return "unit-sum"


def s13_upper_bound(x: float) -> float:
    """Maximum co-cherry density at triangle density x (the S13 upper curve).

    Piecewise: 3x + 3/8 on [0, 1/16]; the linked-cliques curve on
    (1/16, 1/9); the three-cliques curve on [1/9, 1/4); and 1 - x beyond.
    Continuous, with junction values 9/16, 2/3 and 3/4.
    """
    piece = s13_upper_piece(x)
    if piece == "linear":
        return 3.0 * x + 0.375
    if piece == "concave":
        return linked_cliques_profile(linked_cliques_sigma_for_triangle(x))[0]
    if piece == "convex":
        return three_cliques_profile(three_cliques_sigma_for_triangle(x))[0]
    return 1.0 - x


def s13_upper_slope(x: float) -> float:
    """Derivative of the S13 upper curve on (1/16, 1/9) and (1/9, 1/4).

    On the concave piece it equals 1 + sqrt(5 - 12 sigma) and lies in
    (2, 1+sqrt(2)); on the convex piece it is the rational expression in
    sigma below and is strictly less than 1.  Undefined at and outside the
    piece boundaries.
    """
    x = float(x)
    if 1.0 / 16.0 < x < 1.0 / 9.0:
        s = linked_cliques_sigma_for_triangle(x)
        return 1.0 + math.sqrt(5.0 - 12.0 * s)
    if 1.0 / 9.0 < x < 0.25:
        s = three_cliques_sigma_for_triangle(x)
        return (6.0 - 36.0 * s + 54.0 * s ** 2) / (-6.0 + 24.0 * s - 18.0 * s ** 2)
    raise DomainError(
        "slope is defined only strictly inside (1/16, 1/9) and (1/9, 1/4)")


def isolated_mass_for_cotriangle(d0: float) -> float:
    """Isolated-block mass of the clique-plus-isolated-vertices graphon
    whose co-triangle density is d0.

    Solves a^3 + 3 a^2 (1-a) = d0, i.e. f(a) = a^2 (3 - 2a) = d0, strictly
    increasing on [0, 1] with slope 6a(1-a), from the trigonometric root
    1/2 + cos((arccos(1-2 d0) + 4 pi)/3) of the cubic.  Since
    f(a) + f(1-a) = 1, d0 > 1/2 is solved as 1 - (root for 1-d0): 1-d0 is
    exact there and the root near a = 1, where f is flat, stays well
    conditioned.
    """
    d0 = _check_range("co-triangle density", d0, 0.0, 1.0)
    if d0 > 0.5:
        return 1.0 - _isolated_mass(1.0 - d0)
    return _isolated_mass(d0)


# Below this co-triangle density the isolated-mass solve starts from
# sqrt(d0/3), whose relative error a/3 is then under 2e-6, rather than from
# the cubic's trigonometric root, whose error grows like 1e-16/d0.
_TINY_COTRIANGLE = 1e-10


def _isolated_mass(d0: float) -> float:
    """The root in [0, 1/2] of a^2 (3 - 2a) = d0 <= 1/2."""
    if d0 < _TINY_COTRIANGLE:
        start = math.sqrt(d0 / 3.0)     # 1 - 2 d0 would round the cubic's root to 0
    else:
        start = 0.5 + math.cos((math.acos(1.0 - 2.0 * d0) + 4.0 * math.pi) / 3.0)
    return _solve(lambda a: a * a * (3.0 - 2.0 * a), lambda a: 6.0 * a * (1.0 - a),
                  0.0, 0.5, d0, start)


def _clique_branch(d0: float) -> float:
    """(1-a)^3, a the isolated mass solving 3a^2 - 2a^3 = d0."""
    return (1.0 - isolated_mass_for_cotriangle(d0)) ** 3


def _coclique_branch(d0: float) -> float:
    """(1-c)^3 + 3c(1-c)^2 with c = d0^(1/3)."""
    return (1.0 - (c := d0 ** (1.0 / 3.0))) ** 3 + 3.0 * c * (1.0 - c) ** 2


def s03_upper_bound(d0: float) -> float:
    """Maximum triangle density at co-triangle density d0 (the S03 upper curve).

    The larger of the curves traced by the clique-plus-isolated-vertices
    graphon and its complement: with c = d0^(1/3) the complemented family
    gives (1-c)^3 + 3c(1-c)^2, and with a the isolated mass solving
    3a^2 - 2a^3 = d0 the plain family gives (1-a)^3.  The crossover is
    located numerically only.
    """
    d0 = _check_range("co-triangle density", d0, 0.0, 1.0)
    return max(_coclique_branch(d0), _clique_branch(d0))


def _clamp01(v: float) -> float:
    return min(max(v, 0.0), 1.0)


def _constraints(region: Region, x: float, y: float) -> list:
    if region is Region.S12:
        return [
            ("d1>=0", x),
            ("d2>=0", y),
            ("d1+d2<=3/4", 0.75 - x - y),
        ]
    if region is Region.S13:
        bound_at = _clamp01(y)
        piece = s13_upper_piece(bound_at)
        return [
            ("d1>=0", x),
            ("d3>=0", y),
            ("d3<=1", 1.0 - y),
            (f"d1<=s13_upper(d3):{piece}", s13_upper_bound(bound_at) - x),
        ]
    if region is Region.S23:
        bound = 1.5 * (min_triangle_density_inverse(_clamp01(y)) - y)
        return [
            ("d2>=0", x),
            ("d3>=0", y),
            ("d2<=1.5*(inv(d3)-d3)", bound - x),
        ]
    return [
        ("d0>=0", x),
        ("d3>=0", y),
        ("goodman:d0+d3>=1/4", x + y - 0.25),
        ("d3<=s03_upper(d0)", s03_upper_bound(_clamp01(x)) - y),
    ]


def membership(region, x: float, y: float, tol: float = 1e-9) -> MembershipVerdict:
    """Decide whether (x, y) lies in a region, with signed minimum slack.

    Coordinates follow the region's index order (S13 takes (d1, d3), etc.).
    Alias regions delegate to the canonical one, swapping coordinates when
    the pair is reversed.  ``inside`` holds iff slack >= -tol; callers
    censusing finite n-vertex graphs should pass tol = 10/n.
    """
    if not (math.isfinite(x) and math.isfinite(y)):
        raise DomainError("membership coordinates must be finite")
    if not (math.isfinite(tol) and tol >= 0):
        raise DomainError("tolerance must be a nonnegative real")
    canonical, swap = parse_region(region)
    if swap:
        x, y = y, x
    slacks = _constraints(canonical, float(x), float(y))
    binding, slack = min(slacks, key=lambda item: item[1])
    return MembershipVerdict(inside=slack >= -tol, slack=slack, binding=binding)


@functools.cache
def _s03_crossover() -> float:
    """Co-triangle density where the two S03 upper branches cross."""
    def diff(d0):
        return _clique_branch(d0) - _coclique_branch(d0)

    def slope(d0):
        # da/dd0 = 1/(6a(1-a)) and dc/dd0 = 1/(3c^2)
        a = isolated_mass_for_cotriangle(d0)
        c = d0 ** (1.0 / 3.0)
        return 2.0 * (1.0 - c) / c - (1.0 - a) / (2.0 * a)
    return _solve(diff, slope, 0.2, 0.35, 0.0, start=0.275)


# Bytes sample_boundary holds per row: tracemalloc peaked at 137-156 for
# every region at 10^4 to 4*10^5 samples.
_SAMPLE_BYTES_PER_ROW = 156
# A sample that would need more is refused before anything is allocated:
# half the memory of an 8 GB machine.
_SAMPLE_MAX_BYTES = 1 << 32


def _grid(lo: float, hi: float, count: int) -> list:
    step = (hi - lo) / (count - 1)
    return [lo + i * step for i in range(count - 1)] + [hi]


def _boundary_pieces(canonical: Region) -> list:
    """The smooth pieces of a region's boundary polyline, in order, each a
    function that returns the piece's rows for a count."""
    def seg(branch, x0, y0, x1, y1):
        return lambda count: [(t, x0 + t * (x1 - x0), y0 + t * (y1 - y0), branch)
                              for t in _grid(0.0, 1.0, count)]

    def s13(branch, lo, hi):
        return lambda count: [(d3, s13_upper_bound(d3), d3, branch)
                              for d3 in _grid(lo, hi, count)]

    if canonical is Region.S12:
        return [seg("d2=0", 0.0, 0.0, 0.75, 0.0),
                seg("d1+d2=3/4", 0.75, 0.0, 0.0, 0.75),
                seg("d1=0", 0.0, 0.75, 0.0, 0.0)]
    if canonical is Region.S13:
        return [*(s13(*piece) for piece in _S13_PIECES),
                seg("d1=0", 0.0, 1.0, 0.0, 0.0),
                seg("d3=0", 0.0, 0.0, s13_upper_bound(0.0), 0.0)]
    if canonical is Region.S23:
        return [seg("d3=0", 0.0, 0.0, 0.75, 0.0),
                lambda count: [(d3, 1.5 * (min_triangle_density_inverse(d3) - d3), d3, "curve")
                               for d3 in _grid(0.0, 1.0, count)],
                seg("d2=0", 0.0, 1.0, 0.0, 0.0)]
    cross = _s03_crossover()
    return [lambda count: [(d0, d0, 0.25 - d0, "goodman") for d0 in _grid(0.0, 0.25, count)],
            seg("d3=0", 0.25, 0.0, 1.0, 0.0),
            lambda count: [(d0, d0, _clique_branch(d0), "upper-clique")
                           for d0 in _grid(1.0, cross, count)],
            lambda count: [(d0, d0, _coclique_branch(d0), "upper-coclique")
                           for d0 in _grid(cross, 0.0, count)],
            seg("d0=0", 0.0, 1.0, 0.0, 0.25)]


def sample_boundary(region, count: int) -> list:
    """Sample the full boundary polyline of a region.

    Returns (param, x, y, branch) tuples; every smooth piece carries at
    least ``count`` points and consecutive pieces share their junction
    point.  ``param`` is the natural parameter of the piece (the curve
    coordinate on curved pieces, a 0..1 sweep on straight edges).  A count
    whose rows would need more than _SAMPLE_MAX_BYTES raises DomainError
    before allocating.
    """
    if count < 2:
        raise DomainError("count must be at least 2")
    canonical, _ = parse_region(region)
    pieces = _boundary_pieces(canonical)
    need = count * len(pieces) * _SAMPLE_BYTES_PER_ROW
    if need > _SAMPLE_MAX_BYTES:
        raise DomainError(f"{count} samples too large: the {len(pieces)} pieces of "
                          f"{canonical.value} would need {need:.3g} bytes "
                          f"({_SAMPLE_BYTES_PER_ROW} a row), over the "
                          f"{_SAMPLE_MAX_BYTES}-byte budget")
    return [row for piece in pieces for row in piece(count)]
