"""Constrained maximization over three-component clique-like structures.

The objective

    F(x, y) = sum_j x_j^3 (3 - a - 3(3-a) y_j - 3(a-1) y_j^2) + 3 x_j^2 y_j

with x on the 3-simplex and relative degrees y_j in (1/2, 1] is the limit
value of (co-cherry density) - a * (triangle density) over graphons made of
three components with zero co-triangle density.  For a in (2, 1+sqrt(2)) its
maximum has the closed form

    (-a^6 + 6a^5 - 9a^4 - 4a^3 + 96a - 80) / (144 (a-1)),

attained at x = (sigma, sigma, 1-2 sigma) with sigma = (5-(a-1)^2)/12.  This
module evaluates the objective, enumerates all closed-form stationary
candidates of the case analysis, and independently verifies the maximum with
a simplex grid search plus local refinement.
"""
from __future__ import annotations

import logging
import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import boundary
from .errors import DomainError

log = logging.getLogger(__name__)

__all__ = [
    "ALPHA_LO",
    "ALPHA_HI",
    "FeasiblePoint",
    "Candidate",
    "OptimizationResult",
    "validate_alpha",
    "objective",
    "stationary_y",
    "closed_form_max",
    "optimal_sigma",
    "analytic_candidates",
    "maximize_grid",
    "stationarity_residual",
]

ALPHA_LO = 2.0
ALPHA_HI = 1.0 + math.sqrt(2.0)
_SUM_TOL = 1e-12
# Bytes maximize_grid holds per point of its (grid//2 + 1)^2 index square:
# tracemalloc peaked at 32.0-32.4 for grids 400, 1000 and 2000.
_GRID_BYTES_PER_POINT = 33
# A grid that would need more is refused before anything is allocated: half
# the memory of an 8 GB machine, so grids up to 22815 are scanned.
_GRID_MAX_BYTES = 1 << 32
# Polish sweeps before refinement is declared not to converge.
_POLISH_SWEEPS = 10000


def validate_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not (ALPHA_LO < alpha < ALPHA_HI):
        raise DomainError(
            f"alpha must lie strictly inside ({ALPHA_LO:g}, 1+sqrt(2)) (got {alpha!r})")
    return alpha


@dataclass(frozen=True)
class FeasiblePoint:
    """A point of the relaxed feasible set: x on the simplex, y in [1/2, 1]."""

    x: tuple
    y: tuple

    def __post_init__(self):
        if len(self.x) != 3 or len(self.y) != 3:
            raise DomainError("feasible points have three x and three y coordinates")
        if min(self.x) < -_SUM_TOL:
            raise DomainError("x coordinates must be nonnegative")
        if abs(sum(self.x) - 1.0) > _SUM_TOL:
            raise DomainError("x coordinates must sum to 1")
        if min(self.y) < 0.5 - _SUM_TOL or max(self.y) > 1.0 + _SUM_TOL:
            raise DomainError("y coordinates must lie in [1/2, 1]")

    @property
    def strictly_feasible(self) -> bool:
        """Whether all y_j lie in the open-bottom interval (1/2, 1]."""
        return min(self.y) > 0.5


@dataclass(frozen=True)
class Candidate:
    """A closed-form stationary candidate from the case analysis."""

    label: str
    point: FeasiblePoint
    value: float
    attains_max: bool = False


@dataclass(frozen=True)
class OptimizationResult:
    best: FeasiblePoint
    value: float
    analytic_value: float
    candidates: tuple
    stationarity_residual: float

    def __post_init__(self):
        if self.value > self.analytic_value + 1e-9:
            raise DomainError(
                f"grid value {self.value!r} exceeds the analytic maximum "
                f"{self.analytic_value!r}")


def objective(x, y, alpha: float) -> float:
    """Evaluate F at (x, y).  Evaluation outside the alpha interval is
    permitted for experimentation; feasibility of (x, y) is not enforced."""
    a = float(alpha)
    xs = np.asarray(x, dtype=float)
    ys = np.asarray(y, dtype=float)
    return float(np.sum(xs ** 3 * _cubic_coefficient(ys, a) + 3.0 * xs ** 2 * ys))


def _cubic_coefficient(y, a: float):
    """c(y) = 3 - a - 3(3-a) y - 3(a-1) y^2, so F's j-th term is
    x_j^3 c(y_j) + 3 x_j^2 y_j; y may be a float or an array."""
    return 3.0 - a - 3.0 * (3.0 - a) * y - 3.0 * (a - 1.0) * y ** 2


def _y_rule(x: float, a: float) -> tuple:
    """stationary_y's branches at one float, (y, whether y is interior);
    a line search's round-off negatives take y = 1."""
    if x <= 1.0 / (a + 1.0):
        return 1.0, False
    if x >= 0.5:
        return 0.5, False
    return (1.0 / x - (3.0 - a)) / (2.0 * (a - 1.0)), True


def stationary_y(x_j: float, alpha: float) -> float:
    """The y maximizing the j-th term of F at fixed x_j (F is concave in y).

    1 for x_j <= 1/(a+1), 1/2 for x_j >= 1/2, else the interior critical
    point (1/x_j - (3-a)) / (2(a-1)); continuous at both junctions.
    """
    if x_j < 0:
        raise DomainError("x_j must be nonnegative")
    return _y_rule(x_j, float(alpha))[0]


def _term(x: float, a: float) -> float:
    """F's per-coordinate term at one float, with y eliminated by
    stationary_y's rule: the only such evaluator, for scan and polish."""
    y = _y_rule(x, a)[0]
    return x ** 3 * _cubic_coefficient(y, a) + 3.0 * x ** 2 * y


def optimal_sigma(alpha: float) -> float:
    """The maximizing component mass sigma = (5 - (a-1)^2) / 12."""
    a = validate_alpha(alpha)
    return (5.0 - (a - 1.0) ** 2) / 12.0


def closed_form_max(alpha: float) -> float:
    """The maximum of F over the feasible set, in closed form.

    verify.dual_forms checks it against the linked-cliques profile at
    optimal_sigma(a), d1(sigma) - a * d3(sigma).
    """
    a = validate_alpha(alpha)
    return ((-a ** 6 + 6 * a ** 5 - 9 * a ** 4 - 4 * a ** 3 + 96 * a - 80)
            / (144.0 * (a - 1.0)))


def _candidate(label: str, xs, a: float, attains_max: bool = False,
               printed_value: float = None) -> Candidate:
    ys = tuple(stationary_y(xj, a) for xj in xs)
    point = FeasiblePoint(x=tuple(float(v) for v in xs), y=ys)
    value = objective(point.x, point.y, a)
    if printed_value is not None and abs(printed_value - value) > 1e-9:
        raise RuntimeError(
            f"candidate {label!r}: closed-form value {printed_value!r} "
            f"disagrees with the objective {value!r}")
    return Candidate(label=label, point=point, value=value, attains_max=attains_max)


def analytic_candidates(alpha: float) -> list:
    """Every closed-form stationary candidate of the case analysis.

    Each candidate carries its structural label and its objective value
    (verified against the printed closed form where one exists).  The two
    entries that attain the maximum are flagged: the interior optimum
    x = (sigma, sigma, 1-2 sigma), and the boundary point with y_3 = 1/2
    that matches the maximum of the relaxed problem but is infeasible for
    the strict one.  Radical-pair candidates whose printed branch violates
    its case's interval are dropped.

    Every non-optimal candidate lies strictly below the maximum, but no
    fixed margin holds across the whole interval.  The two candidates of
    value (9-a)/16 ("one zero, x2=x3=1/2" and "x1=x2=1/4, x3=1/2") lie
    exactly -(a^2-2a-1)^3 / (144(a-1)) below it, a gap that vanishes to
    third order as a -> 1+sqrt(2), where sigma -> 1/4 and the optimum
    merges with (1/4, 1/4, 1/2); at a = 2.41 it is about 8.3e-9.
    """
    a = validate_alpha(alpha)
    r1 = 1.0 / (a + 1.0)
    cands = []

    def in_case(tag, x1, x3):
        # a radical pair's sign branch is kept only where x1 < 1/(a+1) < x3 < 1/2
        if 0.0 < x1 < r1 and r1 < x3 < 0.5:
            return True
        log.debug("dropping infeasible radical branch %s at alpha=%g "
                  "(x1=%g, x3=%g)", tag, a, x1, x3)
        return False

    cands.append(_candidate("corner x=(0,0,1)", (0.0, 0.0, 1.0), a,
                            printed_value=(3.0 - a) / 4.0))
    cands.append(_candidate(
        "one zero, x2=1/(a+1)", (0.0, r1, a / (a + 1.0)), a,
        printed_value=(-a ** 4 + 3 * a ** 3 + 6 * a ** 2 + 8 * a)
        / (4.0 * (a + 1.0) ** 3)))
    cands.append(_candidate(
        "one zero, relaxed boundary (y3=1/2)",
        (0.0, (a * a - 2 * a + 2) / 6.0, (-a * a + 2 * a + 4) / 6.0), a,
        attains_max=True))
    cands.append(_candidate("one zero, x2=x3=1/2", (0.0, 0.5, 0.5), a,
                            printed_value=(9.0 - a) / 16.0))
    cands.append(_candidate(
        "x1=x2=1/(a+1)", (r1, r1, (a - 1.0) / (a + 1.0)), a,
        printed_value=(-a ** 4 + 6 * a ** 3 + 3 * a ** 2 - 16 * a + 36)
        / (4.0 * (a + 1.0) ** 3)))
    cands.append(_candidate(
        "x1=(a-1)/(2(a+1)), x2=1/(a+1), x3=1/2",
        ((a - 1.0) / (2.0 * (a + 1.0)), r1, 0.5), a,
        printed_value=(-5 * a ** 3 + 35 * a ** 2 - 11 * a + 45)
        / (32.0 * (a + 1.0) ** 2)))

    # pinned x2 = 1/(a+1), interior x1 and x3 < 1/2: sign pair, with the
    # branch fixed by the requirement x3 < 1/2
    rad = math.sqrt(4 * a ** 6 - 8 * a ** 5 - 39 * a ** 4 + 84 * a ** 3
                    + 74 * a ** 2 - 196 * a + 97)
    base1 = (-a ** 4 + 3 * a ** 3 + 15 * a ** 2 + a - 10) / (3.0 * (a + 1.0) ** 4)
    base3 = (4 * a ** 4 + 6 * a ** 3 - 6 * a ** 2 + 2 * a + 10) / (3.0 * (a + 1.0) ** 4)
    for sign, tag in ((1.0, "+"), (-1.0, "-")):
        x1 = base1 + sign * rad / (3.0 * (a + 1.0) ** 3)
        x3 = base3 - sign * rad / (3.0 * (a + 1.0) ** 3)
        if in_case(tag, x1, x3):
            cands.append(_candidate(
                f"x2=1/(a+1), interior x1 and x3<1/2 (branch {tag})",
                (x1, r1, x3), a))

    den = a * a + 4 * a + 3
    cands.append(_candidate(
        "x2=1/(a+1), x3>1/2",
        ((-a * a + a + 4) / den, r1, 2.0 * (a * a + a - 2) / den), a,
        printed_value=(-a ** 5 + a ** 4 + 11 * a ** 3 + 3 * a ** 2 - 6 * a + 24)
        / ((a + 1.0) ** 2 * (a + 3.0) ** 2)))
    cands.append(_candidate(
        "x1=1/(a+1), x2=x3", (r1, a / (2 * a + 2.0), a / (2 * a + 2.0)), a,
        printed_value=-a * (a ** 4 - 10 * a ** 3 - 3 * a ** 2 - 20 * a + 20)
        / (16.0 * (a - 1.0) * (a + 1.0) ** 3)))
    cands.append(_candidate("x1=x2=1/4, x3=1/2", (0.25, 0.25, 0.5), a,
                            printed_value=(9.0 - a) / 16.0))

    # x1 + x2 = 1/2, and over all of (2, 1+sqrt(2)) x1 >= 0.086 and
    # x2 - 1/(a+1) >= 0.08, so this pair is always in its case
    rad = math.sqrt(a ** 4 - 8 * a ** 3 + 23 * a ** 2 - 22 * a + 10)
    x1 = (-a * a - 2.0 * rad + 10 * a - 5) / (6.0 * (a + 1.0) ** 2)
    x2 = (2 * a * a + rad - 2 * a + 4) / (3.0 * (a + 1.0) ** 2)
    cands.append(_candidate("interior x1, interior x2, x3=1/2", (x1, x2, 0.5), a))

    sg = optimal_sigma(a)
    cands.append(_candidate("interior optimum x1=x2=sigma",
                            (sg, sg, 1.0 - 2.0 * sg), a, attains_max=True,
                            printed_value=closed_form_max(a)))

    rad = math.sqrt(4 * a ** 4 - 24 * a ** 3 + 53 * a ** 2 - 30 * a + 1)
    den = 3.0 * (5 * a * a + 10 * a - 11)
    for sign, tag in ((1.0, "+"), (-1.0, "-")):
        x1 = (-a * a + 18 * a - 13 + 2.0 * sign * rad) / den
        x3 = (8 * a * a + 6 * a - 10 - sign * rad) / den
        if in_case(tag, x1, x3):
            cands.append(_candidate(
                f"interior x1, x2=x3 (branch {tag})", (x1, x3, x3), a))

    return cands


def stationarity_residual(point: FeasiblePoint, alpha: float) -> float:
    """Karush-Kuhn-Tucker residual at a feasible point, from F's partials.

    With c(y) = 3 - a - 3(3-a) y - 3(a-1) y^2, F's j-th term has
    dF/dx_j = 3 x_j^2 c(y_j) + 6 x_j y_j (at fixed y) and
    dF/dy_j = x_j^3 c'(y_j) + 3 x_j^2, c'(y) = -3(3-a) - 6(a-1) y.
    The x-gradient must be constant across the support of x, with the
    common value playing the simplex multiplier; each interior y must be a
    critical point and each pinned y must have its gradient pointing into
    the bound.
    """
    a = float(alpha)
    support = [(float(x), float(y)) for x, y in zip(point.x, point.y) if x > 1e-12]
    grads = [3.0 * x * x * _cubic_coefficient(y, a) + 6.0 * x * y for x, y in support]
    lam = sum(grads) / len(grads)
    residual = max(abs(g - lam) for g in grads)
    for x, y in support:
        gy = x ** 3 * (-3.0 * (3.0 - a) - 6.0 * (a - 1.0) * y) + 3.0 * x * x
        if y >= 1.0 - 1e-9:
            residual = max(residual, max(0.0, -gy))
        elif y <= 0.5 + 1e-9:
            residual = max(residual, max(0.0, gy))
        else:
            residual = max(residual, abs(gy))
    return residual


# simplex-tangent search directions: mass moves between a pair, and the
# symmetric split of one coordinate into the other two (the latter escapes
# pairwise-stationary saddle points, which matter when two stationary
# configurations nearly merge at the ends of the alpha interval)
_MOVES = (
    (1.0, 0.0, -1.0), (0.0, 1.0, -1.0), (1.0, -1.0, 0.0),
    (0.5, 0.5, -1.0), (0.5, -1.0, 0.5), (-1.0, 0.5, 0.5),
)


def _term_slopes(x: float, a: float) -> tuple:
    """First and second derivatives of _term at one Python float.

    With c(y) = 3 - a - 3(3-a) y - 3(a-1) y^2 the term is x^3 c(y) + 3 x^2 y.
    On the pinned branches y is constant; on the interior one the term's
    y-derivative is 0, so (envelope theorem) the first derivative is
    3x^2 c(y) + 6xy on every branch.  The second is 6x c(y) + 6y, plus, on
    the interior branch, 3/(2(a-1)x) from y moving with x.  The first
    derivative is continuous at both junctions, the second jumps there.
    """
    y, interior = _y_rule(x, a)
    moving = 1.5 / ((a - 1.0) * x) if interior else 0.0
    c = _cubic_coefficient(y, a)
    return 3.0 * x * x * c + 6.0 * x * y, 6.0 * x * c + 6.0 * y + moving


def _polish(x, a: float, refine_tol: float, bracket: float):
    """Newton line searches along simplex-tangent directions.

    Each move finds a local maximum of g(t) = F(x + t*w) over the segment
    keeping every coordinate inside [0, 1/2] and |t| <= bracket, by
    boundary._solve on -g'(t) from t = 0: the safeguarded Newton solver
    keeps a bracket on the sign change of g', so it ends where g' is zero
    to round-off or at an end of the segment.  A move is taken only when
    it improves the value.  Stops when a full sweep improves the value by
    less than refine_tol; errors out at the iteration cap.  Works on Python
    floats: three scalar terms per value, three slopes per line-search
    step.  Returns (x as a tuple, value).
    """
    x = tuple(float(v) for v in x)

    def val(p):
        return _term(p[0], a) + _term(p[1], a) + _term(p[2], a)

    best = val(x)
    for sweep in range(_POLISH_SWEEPS):
        for w in _MOVES:
            lo, hi = -bracket, bracket
            for xk, wk in zip(x, w):
                if wk > 0:
                    hi = min(hi, (0.5 - xk) / wk)
                    lo = max(lo, -xk / wk)
                elif wk < 0:
                    hi = min(hi, xk / -wk)
                    lo = max(lo, (xk - 0.5) / -wk)
            if hi <= lo:
                continue
            x0, x1, x2 = x
            w0, w1, w2 = w
            rate = 0.0

            def descent(t):
                # -g'(t); its slope -g''(t) is kept for _solve's slope
                # call, which always follows at the same t
                nonlocal rate
                d0, s0 = _term_slopes(x0 + t * w0, a)
                d1, s1 = _term_slopes(x1 + t * w1, a)
                d2, s2 = _term_slopes(x2 + t * w2, a)
                rate = -(w0 * w0 * s0 + w1 * w1 * s1 + w2 * w2 * s2)
                return -(w0 * d0 + w1 * d1 + w2 * d2)

            t = boundary._solve(descent, lambda t: rate, lo, hi, 0.0, start=0.0)
            trial = tuple(min(max(xk + t * wk, 0.0), 0.5)
                          for xk, wk in zip(x, w))
            v = val(trial)
            if v > best:
                x, best = trial, v
        if sweep > 0 and best - last <= refine_tol:
            return x, best
        last = best
    raise RuntimeError(f"refinement did not converge within {_POLISH_SWEEPS} iterations")


def maximize_grid(alpha: float, grid: int = 400,
                  refine_tol: float = 1e-10) -> OptimizationResult:
    """Independent grid-plus-refinement maximization of F.

    y is eliminated per coordinate by stationary_y (exact inner maximization,
    since F is concave in each y_j).  F is then a sum of one _term per
    coordinate, so the scan of the simplex with step 1/grid evaluates _term
    once at each k/grid and scores a point (i, j, k = grid-i-j)/grid by
    adding three of those.  It scans only the points with every coordinate
    at most 1/2 (the closure of the strictly feasible set, on which the same
    maximum is attained): i, j and k at most grid//2.  The best of them are
    refined by Newton line searches along simplex-tangent directions (see
    _polish).  Ties among permuted maximizers are resolved by sorting x
    ascending.  A grid that is not an integer of at least 50 or whose scan
    would need more than _GRID_MAX_BYTES, or a negative or NaN refine_tol,
    raises DomainError before the scan.
    """
    a = validate_alpha(alpha)
    if not isinstance(grid, numbers.Integral):
        raise DomainError(f"grid must be an integer (got {grid!r})")
    if grid < 50:
        raise DomainError("grid must be at least 50")
    if not refine_tol >= 0.0:
        raise DomainError(f"refine_tol must be a nonnegative number (got {refine_tol!r})")
    half = grid // 2
    need = (half + 1) ** 2 * _GRID_BYTES_PER_POINT
    if need > _GRID_MAX_BYTES:
        raise DomainError(f"grid {grid} too large: its scan would need {need:.3g} bytes "
                          f"({_GRID_BYTES_PER_POINT} a point), over the "
                          f"{_GRID_MAX_BYTES}-byte budget")
    terms = np.array([_term(k / grid, a) for k in range(grid + 1)])
    idx = np.arange(half + 1)[:, None]
    k = grid - idx - idx.T
    vals = terms[idx] + terms[idx.T] + terms[k]
    vals[k > half] = -np.inf
    bracket = max(2.0 / grid, 1e-3)
    # polish the leading grid points; several starts guard against permuted
    # ties of near-degenerate stationary configurations
    polished = []
    for b in np.argsort(-vals, axis=None)[:12]:
        i, j = divmod(int(b), half + 1)
        polished.append(_polish((i / grid, j / grid, (grid - i - j) / grid),
                                a, refine_tol, bracket))
    champion = max(v for _, v in polished)
    # among ties prefer the maximizer farthest from the x_j = 1/2
    # face (the strictly feasible one), then sort for determinism
    x, value = min((p for p in polished if p[1] >= champion - 1e-12),
                   key=lambda p: max(p[0]))
    xs = tuple(sorted(x))
    ys = tuple(stationary_y(v, a) for v in xs)
    best = FeasiblePoint(x=xs, y=ys)
    return OptimizationResult(
        best=best,
        value=value,
        analytic_value=closed_form_max(a),
        candidates=tuple(analytic_candidates(a)),
        stationarity_residual=stationarity_residual(best, a),
    )
