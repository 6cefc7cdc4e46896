"""Invariant checks behind the ``verify`` CLI subcommand and the acceptance
tests.

Each check is one function of its seed and its sizes, and of its bound
where the two callers use different bounds.  It draws from its own
``np.random.default_rng(seed)`` and returns a CheckResult with the measured
values and the elapsed seconds.  ``verify``'s four suites run the checks at
desk sizes; acceptance criteria 1-8 run the same functions at full scale.
"""
from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import boundary, constructions, optimizer
from .census import (Graph, StepGraphon, census_brute, census_fast, densities,
                     graphon_densities, graphon_densities_brute)

__all__ = ["CheckResult", "SUITES", "run_suite", "random_step_graphon"]


@dataclass(frozen=True)
class CheckResult:
    """One invariant's verdict, its measured values and its elapsed seconds."""

    name: str
    passed: bool
    detail: str
    values: dict
    seconds: float


def _check(name: str):
    """Turn a check body returning (passed, detail, values) into a function
    returning the timed CheckResult called name."""
    def decorate(body):
        @functools.wraps(body)
        def check(*args, **kwargs) -> CheckResult:
            start = time.perf_counter()
            passed, detail, values = body(*args, **kwargs)
            return CheckResult(name, bool(passed), detail, values,
                               time.perf_counter() - start)
        return check
    return decorate


def random_step_graphon(rng: np.random.Generator, max_blocks: int = 4) -> StepGraphon:
    """A random step graphon with at most max_blocks blocks."""
    b = int(rng.integers(1, max_blocks + 1))
    raw = rng.random(b) + 0.05
    sizes = raw / raw.sum()
    # counteract float round-off so the sizes sum to 1 exactly enough
    sizes[-1] = 1.0 - float(sizes[:-1].sum())
    upper = rng.random((b, b))
    P = np.triu(upper) + np.triu(upper, 1).T
    return StepGraphon(sizes, P)


def random_graph(rng: np.random.Generator, n: int, p: float) -> Graph:
    w = StepGraphon([1.0], [[p]])
    return constructions.sample_w_random_graph(w, n, int(rng.integers(0, 2 ** 31)))


def min_region_slack(d, tol: float) -> float:
    """Minimum membership slack of a density vector over all four regions."""
    return min(boundary.membership(region, x, y, tol).slack
               for region, (x, y) in boundary.region_coords(d).items())


_ORACLE_PROBS = (0.05, 0.3, 0.5, 0.8, 1.0)


@_check("census fast = brute (oracle equivalence)")
def census_oracle(seed: int, samples: int):
    """Random graphs with 3 <= n <= 60; graph k has p = _ORACLE_PROBS[k % 5]."""
    rng = np.random.default_rng(seed)
    for k in range(samples):
        n = int(rng.integers(3, 61))
        p = _ORACLE_PROBS[k % len(_ORACLE_PROBS)]
        g = random_graph(rng, n, p)
        fast, brute = census_fast(g), census_brute(g)
        if fast != brute:
            return (False, f"mismatch at n={n}, p={p}: {fast.counts} != "
                    f"{brute.counts}", {"graphs": k + 1})
    return True, f"{samples} random graphs, n<=60", {"graphs": samples}


@_check("graphon fast = brute (oracle equivalence)")
def graphon_oracle(seed: int, samples: int):
    rng = np.random.default_rng(seed)
    err = 0.0
    for _ in range(samples):
        w = random_step_graphon(rng, max_blocks=16)
        err = max(err, graphon_densities(w).max_deviation(graphon_densities_brute(w)))
    return (err <= 1e-15, f"{samples} random step graphons, B<=16, max error "
            f"{err:.2e}", {"error": err})


@_check("edge-count identity and complementation")
def census_identities(seed: int, samples: int):
    """c1 + 2 c2 + 3 c3 = m (n - 2), and the complement reverses the census."""
    rng = np.random.default_rng(seed)
    bad = 0
    for _ in range(samples):
        n = int(rng.integers(3, 61))
        g = random_graph(rng, n, float(rng.random()))
        c = census_fast(g)
        bad += (c.c1 + 2 * c.c2 + 3 * c.c3 != g.m * (n - 2)
                or census_fast(g.complement()) != c.reversed())
    return bad == 0, f"{samples} random graphs, {bad} failing", {"failures": bad}


@_check("graphon normalization and complementation")
def graphon_identities(seed: int, samples: int):
    """The densities sum to 1, d_e = (d1 + 2 d2 + 3 d3)/3, and the complement
    reverses the profile."""
    rng = np.random.default_rng(seed)
    identity = complement = 0.0
    for _ in range(samples):
        w = random_step_graphon(rng)
        d = graphon_densities(w)
        identity = max(identity, abs(sum(d.profile) - 1.0),
                       abs(d.d_e - (d.d1 + 2 * d.d2 + 3 * d.d3) / 3.0))
        dc = graphon_densities(w.complement())
        complement = max(complement, max(abs(a - b) for a, b
                                         in zip(dc.profile, d.profile[::-1])))
    return (identity <= 1e-12 and complement <= 1e-12,
            f"identity error {identity:.2e}, complement error {complement:.2e}",
            {"identity": identity, "complement": complement})


@_check("limit inequalities (linear + quadratic lower bound)")
def limit_inequalities(seed: int, samples: int):
    """d3 >= d_e(2 d_e - 1), d1 <= 3 d3 + 3/8, and the 20 tangent lines of
    the concave S13 piece."""
    xs = [float(x) for x in np.linspace(1 / 16, 1 / 9, 22)[1:-1]]
    lines = [(boundary.s13_upper_slope(x),
              boundary.s13_upper_bound(x) - boundary.s13_upper_slope(x) * x)
             for x in xs]
    rng = np.random.default_rng(seed)
    slack = math.inf
    for _ in range(samples):
        d = graphon_densities(random_step_graphon(rng))
        slack = min(slack, d.d3 - d.d_e * (2 * d.d_e - 1), 3 * d.d3 + 0.375 - d.d1,
                    *(c - (d.d1 - s * d.d3) for s, c in lines))
    return (slack >= -1e-12,
            f"min slack {slack:.2e} ({len(lines)} tangent lines included)",
            {"slack": slack, "tangent_lines": len(lines)})


@_check("edge-triangle envelope continuous at breakpoints")
def envelope_breakpoints():
    jump = max(abs(boundary.min_triangle_density(1 - 1 / k - 1e-8)
                   - boundary.min_triangle_density(1 - 1 / k + 1e-8))
               for k in range(2, 11))
    return jump <= 1e-6, f"max jump {jump:.2e}", {"jump": jump}


@_check("envelope matches its closed form on [1/2, 2/3]")
def envelope_closed_form(points: int):
    err = 0.0
    for de in np.linspace(0.5, 2.0 / 3.0, points):
        s = math.sqrt(4.0 - 6.0 * de)
        err = max(err, abs(boundary.min_triangle_density(float(de))
                           - (1 - s) * (2 + s) ** 2 / 18.0))
    return err <= 1e-12, f"max error {err:.2e}", {"error": err}


@_check("envelope inverse round trip")
def envelope_round_trip(points: int):
    err = max(abs(boundary.min_triangle_density(
        boundary.min_triangle_density_inverse(float(t))) - float(t))
        for t in np.linspace(0.0, 1.0, points))
    return err <= 1e-9, f"max error {err:.2e}", {"error": err}


@_check("S13 curve junction values")
def s13_junctions():
    """9/16, 2/3 and 3/4 at 1/16, 1/9 and 1/4, with no jump across each."""
    junctions = ((1 / 16, 9 / 16), (1 / 9, 2 / 3), (0.25, 0.75))
    value = max(abs(boundary.s13_upper_bound(x) - want) for x, want in junctions)
    jump = max(abs(boundary.s13_upper_bound(x - 1e-12)
                   - boundary.s13_upper_bound(x + 1e-12)) for x, _ in junctions)
    return (value <= 1e-9 and jump <= 1e-9,
            f"9/16, 2/3, 3/4 to {value:.2e}, max jump {jump:.2e}",
            {"value_error": value, "jump": jump})


@_check("S13 slope bounds on both curved pieces")
def s13_slopes(points: int):
    lo_ok = all(2.0 < boundary.s13_upper_slope(float(x)) < 1.0 + math.sqrt(2.0)
                for x in np.linspace(1 / 16 + 1e-6, 1 / 9 - 1e-6, points))
    hi_ok = all(boundary.s13_upper_slope(float(x)) < 1.0
                for x in np.linspace(1 / 9 + 1e-6, 0.25 - 1e-6, points))
    return lo_ok and hi_ok, f"{points}-point grids", {}


def membership_soundness(seed: int, graphons: int, graphs: int) -> tuple:
    """Random step graphons lie in all four regions to 1e-9, and random
    200-vertex graphs to 10/n; graph k has p = 0.05 + 0.9 (k mod 20)/19.
    The graph seeds are drawn after the graphons from the same generator,
    so this returns two CheckResults: (graphons, graphs)."""
    rng = np.random.default_rng(seed)

    @_check("soundness: random step graphons inside all regions")
    def on_graphons():
        worst = math.inf
        for _ in range(graphons):
            d = graphon_densities(random_step_graphon(rng))
            worst = min(worst, min_region_slack(d, 1e-9))
        return worst >= -1e-9, f"{graphons} graphons, min slack {worst:.2e}", {"slack": worst}

    @_check("soundness: random graphs inside all regions (tol 10/n)")
    def on_graphs():
        n, worst = 200, math.inf
        for k in range(graphs):
            g = random_graph(rng, n, 0.05 + 0.9 * (k % 20) / 19)
            worst = min(worst, min_region_slack(densities(census_fast(g)), 10.0 / n))
        return worst >= -10.0 / n, f"{graphs} graphs, min slack {worst:.2e}", {"slack": worst}

    return on_graphons(), on_graphs()


@_check("linked-cliques closed forms vs graphon")
def linked_cliques_closed_form(points: int, bound: float):
    """The linked cliques at sigma in [1/4, 1/3], built directly and as
    g0_graphon at their triangle density, have linked_cliques_profile(sigma),
    whose anchors at 1/4 and 1/3 are (9/16, 1/16) and (2/3, 1/9)."""
    err = g0_err = 0.0
    for sg in np.linspace(0.25, 1 / 3, points):
        sg = float(sg)
        w = (1 - 2 * sg) / 2
        P = np.eye(4)
        P[0, 1] = P[1, 0] = boundary.linked_cliques_cross_density(sg)
        c1, c3 = boundary.linked_cliques_profile(sg)
        d = graphon_densities(StepGraphon([w, w, sg, sg], P))
        err = max(err, abs(d.d1 - c1), abs(d.d3 - c3))
        d = graphon_densities(constructions.g0_graphon(c3))
        g0_err = max(g0_err, abs(d.d1 - c1), abs(d.d3 - c3))
    third = boundary.linked_cliques_profile(1 / 3)
    anchors = (boundary.linked_cliques_profile(0.25) == (9 / 16, 1 / 16)
               and abs(third[0] - 2 / 3) <= bound and abs(third[1] - 1 / 9) <= bound)
    return (err <= bound and g0_err <= bound and anchors,
            f"max error {err:.2e}, via g0 {g0_err:.2e}, "
            f"anchors {'ok' if anchors else 'BAD'}",
            {"error": err, "g0_error": g0_err, "anchors": anchors})


@_check("three-cliques closed forms vs graphon")
def three_cliques_closed_form(points: int):
    """Cliques (sigma, sigma, 1 - 2 sigma), sigma in [1/3, 1/2], have
    three_cliques_profile(sigma), which is (2/3, 1/9) and (3/4, 1/4) at the
    ends."""
    err = 0.0
    for sg in np.linspace(1 / 3, 0.5, points):
        sg = float(sg)
        sizes = [s for s in (sg, sg, 1 - 2 * sg) if s > 1e-15]
        d = graphon_densities(StepGraphon(sizes, np.eye(len(sizes))))
        c1, c3 = boundary.three_cliques_profile(sg)
        err = max(err, abs(d.d1 - c1), abs(d.d3 - c3))
    third = boundary.three_cliques_profile(1 / 3)
    anchors = (abs(third[0] - 2 / 3) <= 1e-12 and abs(third[1] - 1 / 9) <= 1e-12
               and boundary.three_cliques_profile(0.5) == (0.75, 0.25))
    return (err <= 1e-12 and anchors,
            f"max error {err:.2e}, anchors {'ok' if anchors else 'BAD'}",
            {"error": err, "anchors": anchors})


@_check("g1 and g2 profiles match their displayed polynomials")
def g1_g2_closed_forms(points: int):
    """g1_profile on its boundary lines x = 1/4 and x = -1/4 (at 2 * points
    values of a) and a = 1 and a = 0 (at points values of x), and g2_profile
    on a points-by-points grid, against their displayed polynomials."""
    err = 0.0
    for a in np.linspace(0.0, 1.0, 2 * points):
        a = float(a)
        d1, d3 = constructions.g1_profile(a, 0.25)
        err = max(err, abs(d1 - 0.75 * (1 - a) ** 3),
                  abs(d3 - (1 - 0.75 * (1 + a) * (1 - a) ** 2)))
        d1, d3 = constructions.g1_profile(a, -0.25)
        err = max(err, abs(d1), abs(d3 - (a ** 3 + 3 * a * a * (1 - a))))
    for x in np.linspace(-0.25, 0.25, points):
        d1, d3 = constructions.g1_profile(1.0, float(x))
        err = max(err, abs(d1), abs(d3 - 1.0))
    for x in np.linspace(-0.25, 0.0, points):
        x = float(x)
        d1, d3 = constructions.g1_profile(0.0, x)
        err = max(err, abs(d1 - 24 * (0.25 + x) ** 2 * (0.25 - x)), abs(d3))
    for a in np.linspace(0.0, 1.0, points):
        for p in np.linspace(0.0, 1.0, points):
            a, p = float(a), float(p)
            d1, d3 = constructions.g2_profile(a, p)
            q = 1 - p
            cc = (3 * (1 - a) ** 3 * p * p * q
                  + 3 * a * (1 - a) ** 2 * (q ** 3 + 2 * p * p * q)
                  + 3 * a * a * (1 - a) * q * q)
            tr = ((1 - a) ** 3 * q ** 3 + 3 * a * (1 - a) ** 2 * p * p * q
                  + 3 * a * a * (1 - a) * p * p + a ** 3)
            err = max(err, abs(d1 - cc), abs(d3 - tr))
    return err <= 1e-12, f"max error {err:.2e}", {"error": err}


@_check("two-block S12 family closed forms")
def s12_closed_form(points: int):
    err = 0.0
    for a in np.linspace(0.0, 1.0, points):
        for p in np.linspace(0.0, 1.0, points):
            a, p = float(a), float(p)
            d = graphon_densities(constructions.s12_graphon(a, p))
            cc = 3 * p * (1 - p) ** 2 + 3 * a * (1 - a) * p * (2 * p - 1)
            cr = 3 * p * p * (1 - p) + 3 * a * (1 - a) * (1 - p) * (1 - 2 * p)
            err = max(err, abs(d.d1 - cc), abs(d.d2 - cr))
    return err <= 1e-12, f"max error {err:.2e}", {"error": err}


@_check("multipartite isolated-mass scaling")
def isolated_mass_scaling(points: int):
    """Shrinking the multipartite part to mass b scales d2 and d3 by b^3."""
    err = 0.0
    for a in (0.0, 0.17, 1 / 3, 0.5):
        full = graphon_densities(constructions.s23_graphon(a, 1.0))
        for b in np.linspace(0.1, 1.0, points):
            b = float(b)
            part = graphon_densities(constructions.s23_graphon(a, b))
            err = max(err, abs(part.d2 - b ** 3 * full.d2),
                      abs(part.d3 - b ** 3 * full.d3))
    return err <= 1e-12, f"max error {err:.2e}", {"error": err}


@_check("every boundary piece attained by its family")
def piece_attainment(points: int, regions=tuple(boundary.Region)):
    """Each piece's family at points values of its swept parameter is inside
    the region to 1e-12, and the piece's side has |slack| <= 1e-12 there."""
    slack, inside, pieces = 0.0, True, []
    for region in regions:
        table = boundary.piece_tables()[region]
        for piece in table.pieces:
            family, fixed, swept, first, last = piece.family
            for t in np.linspace(first, last, points):
                d = graphon_densities(constructions.limit_graphon(
                    constructions.FamilySpec(family, {**fixed, swept: float(t)})))
                x, y = boundary.region_coords(d)[region.value]
                inside = inside and boundary.membership(region, x, y, 1e-12).inside
                slack = max(slack, abs(table.sides[piece.side](x, y)[1]))
            pieces.append(f"{region.value}:{piece.branch}")
    return (inside and slack <= 1e-12,
            f"{len(pieces)} pieces, max |slack| {slack:.2e}, inside={inside}",
            {"slack": slack, "pieces": pieces})


@_check("min-triangle family attains the envelope")
def min_triangle_attainment(points: int):
    err = 0.0
    for de in np.linspace(0.5, 0.95, points):
        de = float(de)
        d = graphon_densities(constructions.min_triangle_graphon(de))
        err = max(err, abs(d.d_e - de), abs(d.d3 - boundary.min_triangle_density(de)))
    return err <= 1e-9, f"max error {err:.2e}", {"error": err}


def finite_convergence(cases, sizes, bounds: dict) -> CheckResult:
    """For each (family, params, seeds) case and seed, the censuses of
    realize's graphs (finite_census) at the given sizes deviate from the
    limit densities by at most bounds[n], and the deviation does not
    increase along sizes."""
    @_check(f"finite realizations near their limits at n={','.join(map(str, sizes))}")
    def body():
        worst = dict.fromkeys(sizes, 0.0)
        nonincreasing = True
        for family, params, seeds in cases:
            lim = graphon_densities(constructions.limit_graphon(
                constructions.FamilySpec(family, params)))
            for seed in seeds:
                devs = [densities(constructions.finite_census(
                    constructions.FamilySpec(family, params, n=n, seed=seed)))
                    .max_deviation(lim) for n in sizes]
                for n, dev in zip(sizes, devs):
                    worst[n] = max(worst[n], dev)
                nonincreasing = nonincreasing and all(
                    a >= b for a, b in zip(devs, devs[1:]))
        return (nonincreasing and all(worst[n] <= b for n, b in bounds.items()),
                "max deviation " + ", ".join(f"{worst[n]:.4f}@{n}" for n in sizes)
                + f", nonincreasing={nonincreasing}",
                {"worst": worst, "nonincreasing": nonincreasing})
    return body()


@_check("grid oracle matches the closed-form maximum")
def grid_oracle(alphas, grid: int):
    gap = 0.0
    for a in alphas:
        res = optimizer.maximize_grid(a, grid=grid)
        gap = max(gap, abs(res.value - res.analytic_value))
    return gap <= 1e-6, f"max gap {gap:.2e}", {"gap": gap}


@_check("closed-form maximum equals its linked-cliques form")
def dual_forms(alphas):
    """closed_form_max(a) = d1 - a d3 of the linked cliques at optimal_sigma(a)."""
    err = 0.0
    for a in alphas:
        d1, d3 = boundary.linked_cliques_profile(optimizer.optimal_sigma(a))
        err = max(err, abs(optimizer.closed_form_max(a) - (d1 - a * d3)))
    return err <= 1e-12, f"max error {err:.2e}", {"error": err}


@_check("random feasible points never beat the maximum")
def random_feasible_points(seed: int, alphas, samples: int):
    rng = np.random.default_rng(seed)
    excess = -math.inf
    for a in alphas:
        xs = rng.dirichlet([1.0, 1.0, 1.0], size=samples)
        ys = 0.5 + 0.5 * rng.random((samples, 3))
        vals = np.sum(xs ** 3 * (3 - a - 3 * (3 - a) * ys - 3 * (a - 1) * ys ** 2)
                      + 3 * xs ** 2 * ys, axis=1)
        excess = max(excess, float(vals.max()) - optimizer.closed_form_max(a))
    return excess <= 1e-9, f"min gap {-excess:.2e}", {"excess": excess}


# the two candidates of value (9-a)/16, which merge with the optimum as
# alpha -> 1+sqrt(2)
MERGING_PAIR = ("one zero, x2=x3=1/2", "x1=x2=1/4, x3=1/2")


def merging_pair_gap(alpha) -> Fraction:
    """closed_form_max(a) - (9-a)/16 = -(a^2-2a-1)^3 / (144(a-1)), exactly,
    at the float alpha itself."""
    a = Fraction(alpha)
    return -(a * a - 2 * a - 1) ** 3 / (144 * (a - 1))


@_check("non-optimal candidates strictly below the maximum")
def candidate_margins(alphas):
    """Candidates flagged optimal are within 1e-9 of closed_form_max; every
    other lies at least 1e-6 below it, except the MERGING_PAIR, whose gap
    must be positive and equal merging_pair_gap to 1e-12."""
    failures = []
    margin, where, pair_error, optimum_error = math.inf, "", 0.0, 0.0
    for a in alphas:
        m = optimizer.closed_form_max(a)
        seen = set()
        for cand in optimizer.analytic_candidates(a):
            gap = m - cand.value
            if cand.attains_max:
                optimum_error = max(optimum_error, abs(gap))
            elif cand.label in MERGING_PAIR:
                seen.add(cand.label)
                exact = float(merging_pair_gap(a))
                pair_error = max(pair_error, abs(gap - exact))
                if not (gap > 0 and abs(gap - exact) <= 1e-12):
                    failures.append(
                        f"candidate margin {gap:.17g} at [alpha={a}, {cand.label}]: "
                        f"the exact gap -(a^2-2a-1)^3/(144(a-1)) there is {exact:.17g}")
            elif gap < margin:
                margin, where = gap, f"alpha={a}, {cand.label}"
        if seen != set(MERGING_PAIR):
            failures.append(f"alpha={a}: missing candidates "
                            f"{sorted(set(MERGING_PAIR) - seen)}")
    if not margin >= 1e-6:
        failures.append(f"candidate margin {margin:.3e} < 1e-6 at [{where}]")
    if optimum_error > 1e-9:
        failures.append(f"flagged optimum off the maximum by {optimum_error:.2e}")
    return (not failures,
            "; ".join([f"min margin {margin:.2e}, (9-a)/16 pair off its exact gap "
                       f"by {pair_error:.1e}"] + failures),
            {"margin": margin, "pair_error": pair_error, "optimum_error": optimum_error,
             "pair_gap": float(merging_pair_gap(alphas[-1]))})


@_check("stationarity residual at the analytic optimum")
def stationarity(alphas):
    worst = 0.0
    for a in alphas:
        opt = [c for c in optimizer.analytic_candidates(a)
               if c.label.startswith("interior optimum")][0]
        worst = max(worst, optimizer.stationarity_residual(opt.point, a))
    return worst <= 1e-8, f"max residual {worst:.2e}", {"residual": worst}


def census_suite() -> list:
    return [census_oracle(7, 1000), graphon_oracle(7, 200), census_identities(7, 50),
            graphon_identities(7, 300), limit_inequalities(7, 300)]


def boundary_suite() -> list:
    return [envelope_breakpoints(), envelope_closed_form(200), envelope_round_trip(100),
            s13_junctions(), s13_slopes(200), *membership_soundness(11, 300, 10)]


_DESK_CASES = (("g0", {"x": 0.2}, (1,)), ("g2", {"a": 0.3, "p": 0.6}, (1,)),
               ("multipartite", {"a": 1.0 / 3.0, "b": 1.0}, (1,)))


def constructions_suite() -> list:
    return [linked_cliques_closed_form(20, 1e-9), three_cliques_closed_form(20),
            g1_g2_closed_forms(10), s12_closed_form(10), isolated_mass_scaling(5),
            piece_attainment(40), min_triangle_attainment(20),
            finite_convergence(_DESK_CASES, (400,), {400: 0.06})]


_DESK_ALPHAS = (2.1, 2.3)


def optimizer_suite() -> list:
    return [grid_oracle(_DESK_ALPHAS, 200), dual_forms(_DESK_ALPHAS),
            random_feasible_points(23, _DESK_ALPHAS, 20000),
            candidate_margins(_DESK_ALPHAS), stationarity(_DESK_ALPHAS)]


SUITES = {
    "census": census_suite,
    "boundary": boundary_suite,
    "constructions": constructions_suite,
    "optimizer": optimizer_suite,
}


def run_suite(name: str) -> list:
    if name == "all":
        out = []
        for suite in SUITES.values():
            out.extend(suite())
        return out
    return SUITES[name]()
