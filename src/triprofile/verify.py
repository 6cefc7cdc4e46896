"""Desk-scale invariant suites behind the ``verify`` CLI subcommand.

Each suite runs a reduced version of the package's property checks and
reports one named result per invariant with the measured slack.  The
acceptance tests in the test tree run the same checks at full scale.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import boundary, constructions, optimizer
from .census import (Graph, StepGraphon, census_brute, census_fast, densities,
                     graphon_densities, graphon_densities_brute,
                     sample_w_random_graph)

__all__ = ["CheckResult", "SUITES", "run_suite", "random_step_graphon"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _result(name: str, passed: bool, detail: str) -> CheckResult:
    return CheckResult(name=name, passed=bool(passed), detail=detail)


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
    return sample_w_random_graph(w, n, int(rng.integers(0, 2 ** 31)))


def min_region_slack(d, tol: float) -> float:
    """Minimum membership slack of a density vector over all four regions."""
    return min(boundary.membership(region, x, y, tol).slack
               for region, (x, y) in boundary.region_coords(d).items())


def census_suite(samples: int = 1000, seed: int = 7) -> list:
    rng = np.random.default_rng(seed)
    results = []

    worst = None
    equal = True
    for _ in range(samples):
        n = int(rng.integers(3, 61))
        p = float(rng.choice([0.05, 0.3, 0.5, 0.8, 1.0]))
        g = random_graph(rng, n, p)
        a, b = census_fast(g), census_brute(g)
        if a != b:
            equal = False
            worst = (n, p, a.counts, b.counts)
            break
    results.append(_result(
        "census fast = brute (oracle equivalence)", equal,
        f"{samples} random graphs, n<=60" if equal else f"mismatch at {worst}"))

    max_err = 0.0
    for _ in range(200):
        w = random_step_graphon(rng, max_blocks=16)
        a, b = graphon_densities(w), graphon_densities_brute(w)
        max_err = max(max_err, max(abs(x - y) for x, y in
                                   zip(a.profile + (a.d_e,), b.profile + (b.d_e,))))
    results.append(_result("graphon fast = brute (oracle equivalence)",
                           max_err <= 1e-15,
                           f"200 random step graphons, B<=16, max error {max_err:.2e}"))

    ok = True
    for _ in range(50):
        n = int(rng.integers(3, 61))
        g = random_graph(rng, n, float(rng.random()))
        c = census_fast(g)
        m = g.m
        if c.c1 + 2 * c.c2 + 3 * c.c3 != m * (n - 2):
            ok = False
        if census_fast(g.complement()).counts != c.counts[::-1]:
            ok = False
    results.append(_result("edge-count identity and complementation", ok,
                           "50 random graphs"))

    max_err = 0.0
    for _ in range(300):
        w = random_step_graphon(rng)
        d = graphon_densities(w)
        max_err = max(max_err, abs(sum(d.profile) - 1.0))
        max_err = max(max_err,
                      abs(d.d_e - (d.d1 + 2 * d.d2 + 3 * d.d3) / 3.0))
        dc = graphon_densities(w.complement())
        max_err = max(max_err, max(abs(a - b) for a, b
                                   in zip(dc.profile, d.profile[::-1])))
    results.append(_result("graphon normalization and complementation",
                           max_err <= 1e-12, f"max error {max_err:.2e}"))

    worst_slack = math.inf
    for _ in range(300):
        w = random_step_graphon(rng)
        d = graphon_densities(w)
        worst_slack = min(worst_slack, 3 * d.d3 + 0.375 - d.d1)
        worst_slack = min(worst_slack, d.d3 - d.d_e * (2 * d.d_e - 1))
    results.append(_result("limit inequalities (linear + quadratic lower bound)",
                           worst_slack >= -1e-12, f"min slack {worst_slack:.2e}"))
    return results


def boundary_suite() -> list:
    results = []

    jump = max(abs(boundary.min_triangle_density(1 - 1 / k - 1e-8)
                   - boundary.min_triangle_density(1 - 1 / k + 1e-8))
               for k in range(2, 11))
    results.append(_result("edge-triangle envelope continuous at breakpoints",
                           jump <= 1e-6, f"max jump {jump:.2e}"))

    err = 0.0
    for de in np.linspace(0.5, 2.0 / 3.0, 200):
        s = math.sqrt(4.0 - 6.0 * de)
        err = max(err, abs(boundary.min_triangle_density(float(de))
                           - (1 - s) * (2 + s) ** 2 / 18.0))
    results.append(_result("envelope matches its closed form on [1/2, 2/3]",
                           err <= 1e-12, f"max error {err:.2e}"))

    err = max(abs(boundary.min_triangle_density(
        boundary.min_triangle_density_inverse(float(t))) - float(t))
        for t in np.linspace(0.0, 1.0, 100))
    results.append(_result("envelope inverse round trip", err <= 1e-9,
                           f"max error {err:.2e}"))

    ok = True
    detail = []
    for x, want in ((1.0 / 16.0, 9.0 / 16.0), (1.0 / 9.0, 2.0 / 3.0), (0.25, 0.75)):
        got = boundary.s13_upper_bound(x)
        if abs(got - want) > 1e-9:
            ok = False
            detail.append(f"bound({x:g})={got!r}")
    results.append(_result("S13 curve junction values", ok,
                           "; ".join(detail) or "9/16, 2/3, 3/4"))

    lo_ok = all(2.0 < boundary.s13_upper_slope(float(x)) < 1.0 + math.sqrt(2.0)
                for x in np.linspace(1 / 16 + 1e-6, 1 / 9 - 1e-6, 200))
    hi_ok = all(boundary.s13_upper_slope(float(x)) < 1.0
                for x in np.linspace(1 / 9 + 1e-6, 0.25 - 1e-6, 200))
    results.append(_result("S13 slope bounds on both curved pieces",
                           lo_ok and hi_ok, "200-point grids"))

    rng = np.random.default_rng(11)
    worst = math.inf
    for _ in range(300):
        d = graphon_densities(random_step_graphon(rng))
        worst = min(worst, min_region_slack(d, 1e-9))
    results.append(_result("soundness: random step graphons inside all regions",
                           worst >= -1e-9, f"min slack {worst:.2e}"))

    worst = math.inf
    for k in range(10):
        g = random_graph(rng, 200, float(rng.random()) * 0.9 + 0.05)
        d = densities(census_fast(g))
        worst = min(worst, min_region_slack(d, 10.0 / 200))
    results.append(_result("soundness: random graphs inside all regions (tol 10/n)",
                           worst >= -10.0 / 200, f"min slack {worst:.2e}"))
    return results


def constructions_suite() -> list:
    results = []

    err = 0.0
    for sg in np.linspace(0.25, 1.0 / 3.0, 20):
        d = graphon_densities(constructions.g0_graphon(
            boundary.linked_cliques_profile(float(sg))[1]))
        want = boundary.linked_cliques_profile(float(sg))
        err = max(err, abs(d.d1 - want[0]), abs(d.d3 - want[1]))
    results.append(_result("linked-cliques closed forms vs graphon",
                           err <= 1e-9, f"max error {err:.2e}"))

    worst = math.inf
    for x in np.linspace(0.0, 0.25, 40):
        d = graphon_densities(constructions.g0_graphon(float(x)))
        v = boundary.membership("s13", d.d1, d.d3, 1e-9)
        worst = min(worst, -abs(v.slack))
    results.append(_result("g0 family lands on the S13 boundary",
                           worst >= -1e-9, f"max |slack| {-worst:.2e}"))

    err = 0.0
    for a in np.linspace(0.0, 1.0, 10):
        for p in np.linspace(0.0, 1.0, 10):
            d = graphon_densities(constructions.s12_graphon(float(a), float(p)))
            cc = 3 * p * (1 - p) ** 2 + 3 * a * (1 - a) * p * (2 * p - 1)
            cr = 3 * p * p * (1 - p) + 3 * a * (1 - a) * (1 - p) * (1 - 2 * p)
            err = max(err, abs(d.d1 - cc), abs(d.d2 - cr))
    results.append(_result("two-block S12 family closed forms", err <= 1e-12,
                           f"max error {err:.2e}"))

    worst = math.inf
    for a in np.linspace(0.02, 0.5, 20):
        d = graphon_densities(constructions.s23_graphon(float(a), 1.0))
        bound = 1.5 * (boundary.min_triangle_density_inverse(d.d3) - d.d3)
        worst = min(worst, -abs(bound - d.d2))
    results.append(_result("multipartite family lands on the S23 boundary",
                           worst >= -1e-9, f"max |gap| {-worst:.2e}"))

    err = 0.0
    for de in np.linspace(0.5, 0.95, 20):
        d = graphon_densities(constructions.min_triangle_graphon(float(de)))
        err = max(err, abs(d.d_e - de),
                  abs(d.d3 - boundary.min_triangle_density(float(de))))
    results.append(_result("min-triangle family attains the envelope",
                           err <= 1e-9, f"max error {err:.2e}"))

    dev = 0.0
    for family, params in (("g0", {"x": 0.2}), ("g2", {"a": 0.3, "p": 0.6}),
                           ("multipartite", {"a": 1.0 / 3.0, "b": 1.0})):
        spec = constructions.FamilySpec(family, params, n=400, seed=1)
        lim = graphon_densities(constructions.limit_graphon(spec))
        fin = densities(census_fast(constructions.realize(spec)))
        dev = max(dev, max(abs(u - v) for u, v in
                           zip(fin.profile + (fin.d_e,), lim.profile + (lim.d_e,))))
    results.append(_result("finite realizations near their limits at n=400",
                           dev <= 0.06, f"max deviation {dev:.3f}"))
    return results


def optimizer_suite() -> list:
    results = []
    rng = np.random.default_rng(23)

    gap = 0.0
    for alpha in (2.1, 2.3):
        res = optimizer.maximize_grid(alpha, grid=200, refine_tol=1e-10)
        gap = max(gap, abs(res.value - res.analytic_value))
    results.append(_result("grid oracle matches the closed-form maximum",
                           gap <= 1e-6, f"max gap {gap:.2e}"))

    worst = math.inf
    for alpha in (2.1, 2.3):
        m = optimizer.closed_form_max(alpha)
        xs = rng.dirichlet([1.0, 1.0, 1.0], size=20000)
        ys = 0.5 + 0.5 * rng.random((20000, 3))
        vals = np.sum(xs ** 3 * (3 - alpha - 3 * (3 - alpha) * ys
                                 - 3 * (alpha - 1) * ys ** 2)
                      + 3 * xs ** 2 * ys, axis=1)
        worst = min(worst, m - float(vals.max()))
    results.append(_result("random feasible points never beat the maximum",
                           worst >= -1e-9, f"min gap {worst:.2e}"))

    ok = True
    min_margin = math.inf
    for alpha in (2.1, 2.3):
        m = optimizer.closed_form_max(alpha)
        for cand in optimizer.analytic_candidates(alpha):
            if cand.attains_max:
                if abs(cand.value - m) > 1e-9:
                    ok = False
            else:
                min_margin = min(min_margin, m - cand.value)
    results.append(_result("non-optimal candidates strictly below the maximum",
                           ok and min_margin >= 1e-6,
                           f"min margin {min_margin:.2e}"))

    worst = 0.0
    for alpha in (2.1, 2.3):
        opt = [c for c in optimizer.analytic_candidates(alpha)
               if c.label.startswith("interior optimum")][0]
        worst = max(worst, optimizer.stationarity_residual(opt.point, alpha))
    results.append(_result("stationarity residual at the analytic optimum",
                           worst <= 1e-8, f"max residual {worst:.2e}"))
    return results


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
    if name not in SUITES:
        raise KeyError(name)
    return SUITES[name]()
