import math
import time
from fractions import Fraction

import numpy as np
import pytest

from triprofile import boundary
from triprofile import (DomainError, StepGraphon, edge_partition,
                        graphon_densities, isolated_mass_for_cotriangle,
                        linked_cliques_cross_density, linked_cliques_profile,
                        linked_cliques_sigma_for_triangle, membership,
                        min_triangle_density, min_triangle_density_inverse,
                        parse_region, region_coords, s03_upper_bound,
                        s13_upper_bound, s13_upper_piece, s13_upper_slope,
                        sample_boundary, three_cliques_profile,
                        three_cliques_sigma_for_triangle)
from triprofile.verify import random_step_graphon

SQRT2 = math.sqrt(2.0)


def closed_form_envelope(de):
    """Independent form of the envelope on [1/2, 2/3]."""
    s = math.sqrt(4.0 - 6.0 * de)
    return (1 - s) * (2 + s) ** 2 / 18.0


def linked_cliques_graphon(sigma):
    """Direct four-block build of the linked-cliques structure."""
    delta = linked_cliques_cross_density(sigma)
    w = (1 - 2 * sigma) / 2
    P = np.eye(4)
    P[0, 1] = P[1, 0] = delta
    return StepGraphon([w, w, sigma, sigma], P)


class TestEnvelope:
    def test_flat_then_endpoints(self):
        assert min_triangle_density(0.0) == 0.0
        assert min_triangle_density(0.5) == 0.0
        assert min_triangle_density(1.0) == 1.0

    def test_matches_closed_form(self):
        for de in np.linspace(0.5, 2 / 3, 400):
            assert abs(min_triangle_density(float(de))
                       - closed_form_envelope(float(de))) <= 1e-12

    def test_two_thirds(self):
        assert abs(min_triangle_density(2 / 3) - 2 / 9) <= 1e-12

    def test_continuity_at_breakpoints(self):
        for k in range(2, 11):
            b = 1 - 1 / k
            eps = 1e-8
            assert abs(min_triangle_density(b - eps)
                       - min_triangle_density(b + eps)) <= 1e-6

    def test_monotone(self):
        grid = np.linspace(0.0, 1.0, 700)
        vals = [min_triangle_density(float(d)) for d in grid]
        assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))

    def test_partition_solves_quadratic(self):
        for de in np.linspace(0.5, 0.999, 200):
            p = edge_partition(float(de))
            assert 2 <= p.k and 0.0 < p.z <= 1.0 / p.k + 1e-15
            assert de <= 1 - 1 / p.k + 1e-12
            assert abs((1 - p.z) * (p.k * p.z + p.k - 2) / (p.k - 1) - de) <= 1e-9

    def test_domain(self):
        with pytest.raises(DomainError):
            min_triangle_density(1.2)
        with pytest.raises(DomainError):
            min_triangle_density(-0.1)


class TestEnvelopeInverse:
    def test_endpoints(self):
        assert abs(min_triangle_density_inverse(0.0) - 0.5) <= 1e-12
        assert abs(min_triangle_density_inverse(1.0) - 1.0) <= 1e-11

    def test_two_ninths(self):
        assert abs(min_triangle_density_inverse(2 / 9) - 2 / 3) <= 1e-9

    def test_round_trip(self):
        for t in np.linspace(0.0, 1.0, 250):
            de = min_triangle_density_inverse(float(t))
            assert abs(min_triangle_density(de) - t) <= 1e-9

    def test_domain(self):
        with pytest.raises(DomainError):
            min_triangle_density_inverse(1.5)


def bisect_oracle(f, lo, hi, target):
    """Plain bisection of an increasing f, down to adjacent floats."""
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return mid
        if f(mid) < target:
            lo = mid
        else:
            hi = mid


# the forward curves in exact rational arithmetic, so the oracle's answer
# carries no round-off of its own even where the curve is flat
def exact_isolated(a):
    a = Fraction(a)
    return a * a * (3 - 2 * a)


def exact_linked(s):
    s = Fraction(s)
    return (2 - 18 * s + 57 * s ** 2 - 60 * s ** 3) / (5 - 12 * s)


def exact_three(s):
    s = Fraction(s)
    return 1 - 6 * s + 12 * s ** 2 - 6 * s ** 3


BREAKPOINTS = [(k - 1) * (k - 2) / k ** 2 for k in range(3, 51)]
ABOVE_BREAKPOINTS = [math.nextafter(t, 1.0) for t in BREAKPOINTS]
NEAR_ONE = [math.nextafter(1.0, 0.0), 1 - 1e-12, 1 - 1e-8]
TINY = [1e-300, 1e-20, 5e-17, 1e-12]


def timed(fn, x):
    start = time.perf_counter()
    value = fn(x)
    assert time.perf_counter() - start < 0.05, x
    return value


class TestInverseOracles:
    """Every inverse against plain bisection, to 1e-12 in the argument."""

    def test_envelope(self):
        # the envelope has slope >= 1 on [1/2, 1], so bisecting the float
        # forward curve pins the argument to round-off
        for t in (list(np.linspace(0.0, 1.0, 2001)) + BREAKPOINTS + ABOVE_BREAKPOINTS
                  + NEAR_ONE + TINY):
            t = float(t)
            want = bisect_oracle(min_triangle_density, 0.5, 1.0, t)
            assert abs(timed(min_triangle_density_inverse, t) - want) <= 1e-12, t

    def test_isolated_mass(self):
        for d0 in list(np.linspace(0.0, 1.0, 801)) + NEAR_ONE + TINY + [1 - 1e-16]:
            d0 = float(d0)
            want = bisect_oracle(exact_isolated, 0.0, 1.0, Fraction(d0))
            assert abs(timed(isolated_mass_for_cotriangle, d0) - want) <= 1e-12, d0

    def test_linked_sigma(self):
        for x in np.linspace(1 / 16, 1 / 9, 801):
            x = float(x)
            want = bisect_oracle(exact_linked, 0.25, 1 / 3, Fraction(x))
            assert abs(timed(linked_cliques_sigma_for_triangle, x) - want) <= 1e-12, x

    def test_three_sigma(self):
        for x in np.linspace(1 / 9, 0.25, 801):
            x = float(x)
            want = bisect_oracle(exact_three, 1 / 3, 0.5, Fraction(x))
            assert abs(timed(three_cliques_sigma_for_triangle, x) - want) <= 1e-12, x

    def test_flat_ends_round_trip(self):
        # both sigma families are quadratically flat at their junction
        # (sigma = 1/4 at x = 1/16, sigma = 1/3 at x = 1/9): within a few
        # ulps of it the float curve cannot pin sigma past ~1e-8, so the
        # contract there is the round trip
        for inverse, profile, x0, s0 in (
                (linked_cliques_sigma_for_triangle, linked_cliques_profile, 1 / 16, 0.25),
                (three_cliques_sigma_for_triangle, three_cliques_profile, 1 / 9, 1 / 3)):
            for dx in [0.0] + TINY:
                s = timed(inverse, x0 + dx)
                assert abs(profile(s)[1] - (x0 + dx)) <= 1e-12
                assert abs(s - s0) <= 1e-7 + math.sqrt(dx)

    def test_few_solver_steps(self, monkeypatch):
        # away from the flat ends and the bracket ends every solve is
        # Newton's: a handful of evaluations, where bisection needs ~45
        solve = boundary._solve
        calls = []

        def counted(f, *args, **kwargs):
            calls.append(0)

            def g(x):
                calls[-1] += 1
                return f(x)
            return solve(g, *args, **kwargs)
        monkeypatch.setattr(boundary, "_solve", counted)
        for inverse, lo, hi in ((min_triangle_density_inverse, 0.0, 1.0),
                                (isolated_mass_for_cotriangle, 0.0, 1.0),
                                (linked_cliques_sigma_for_triangle, 1 / 16, 1 / 9),
                                (three_cliques_sigma_for_triangle, 1 / 9, 0.25)):
            calls.clear()
            for x in np.linspace(lo, hi, 401)[1:-1]:
                inverse(float(x))
            assert len(calls) == 399 and max(calls) <= 10, inverse.__name__
        # the envelope's solve starts at its cubic's closed-form root and
        # only confirms it
        calls.clear()
        for t in np.linspace(0.0, 1.0, 20001)[1:-1]:
            min_triangle_density_inverse(float(t))
        assert len(calls) == 19999 and set(calls) == {1}
        # roots at or next to a bracket end (an envelope piece starts at
        # each breakpoint), and tiny d0, where the cubic's closed-form root
        # rounds to 0: the oracle tests above check these values
        for inverse, x in ((three_cliques_sigma_for_triangle, 0.25),
                           (isolated_mass_for_cotriangle, 1e-20),
                           (isolated_mass_for_cotriangle, 1e-300),
                           *((min_triangle_density_inverse, t) for t in ABOVE_BREAKPOINTS)):
            calls.clear()
            inverse(x)
            most = 1 if inverse is min_triangle_density_inverse else 10
            assert len(calls) == 1 and calls[0] <= most, (inverse.__name__, x)

    def test_s03_crossover(self):
        def diff(d0):
            a = bisect_oracle(exact_isolated, 0.0, 1.0, Fraction(d0))
            c = d0 ** (1 / 3)
            return (1 - a) ** 3 - ((1 - c) ** 3 + 3 * c * (1 - c) ** 2)
        want = bisect_oracle(diff, 0.2, 0.35, 0.0)
        assert abs(boundary._s03_crossover() - want) <= 1e-12


class TestCliqueFamilies:
    def test_cross_density_endpoints(self):
        assert linked_cliques_cross_density(0.25) == 0.0
        assert abs(linked_cliques_cross_density(1 / 3) - 1.0) <= 1e-12
        v = linked_cliques_cross_density(0.3)
        assert 0.0 < v < 1.0
        # increasing in sigma
        grid = np.linspace(0.25, 1 / 3, 100)
        vals = [linked_cliques_cross_density(float(s)) for s in grid]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_linked_anchors(self):
        assert linked_cliques_profile(0.25) == (9 / 16, 1 / 16)
        d1, d3 = linked_cliques_profile(1 / 3)
        assert abs(d1 - 2 / 3) <= 1e-12 and abs(d3 - 1 / 9) <= 1e-12

    def test_three_anchors(self):
        d1, d3 = three_cliques_profile(1 / 3)
        assert abs(d1 - 2 / 3) <= 1e-12 and abs(d3 - 1 / 9) <= 1e-12
        assert three_cliques_profile(0.5) == (0.75, 0.25)

    def test_linked_matches_graphon(self):
        for sigma in (0.26, 0.28, 0.30, 0.325):
            d = graphon_densities(linked_cliques_graphon(sigma))
            d1, d3 = linked_cliques_profile(sigma)
            assert abs(d.d1 - d1) <= 1e-12
            assert abs(d.d3 - d3) <= 1e-12

    def test_three_matches_graphon(self):
        for sigma in (0.35, 0.4, 0.45):
            w = StepGraphon([sigma, sigma, 1 - 2 * sigma], np.eye(3))
            d = graphon_densities(w)
            d1, d3 = three_cliques_profile(sigma)
            assert abs(d.d1 - d1) <= 1e-12
            assert abs(d.d3 - d3) <= 1e-12

    def test_inverse_endpoints(self):
        # the linked-cliques triangle density is quadratically flat at
        # sigma=1/4, so the argument is only pinned to ~sqrt(eps) there;
        # the round trip below is the contractual accuracy
        sg = linked_cliques_sigma_for_triangle(1 / 16)
        assert abs(sg - 0.25) <= 1e-7
        assert abs(linked_cliques_profile(sg)[1] - 1 / 16) <= 1e-12
        assert abs(three_cliques_sigma_for_triangle(0.25) - 0.5) <= 1e-11

    def test_inverse_round_trips(self):
        assert abs(linked_cliques_sigma_for_triangle(
            linked_cliques_profile(0.3)[1]) - 0.3) <= 1e-9
        for x in np.linspace(1 / 16, 1 / 9, 60):
            s = linked_cliques_sigma_for_triangle(float(x))
            assert abs(linked_cliques_profile(s)[1] - x) <= 1e-9
        for x in np.linspace(1 / 9, 0.25, 60):
            s = three_cliques_sigma_for_triangle(float(x))
            assert abs(three_cliques_profile(s)[1] - x) <= 1e-9


class TestS13Curve:
    def test_linear_piece(self):
        assert s13_upper_bound(0.0) == 0.375
        assert s13_upper_bound(0.01) == pytest.approx(0.405, abs=1e-15)

    def test_junctions(self):
        assert abs(s13_upper_bound(1 / 16) - 9 / 16) <= 1e-9
        assert abs(s13_upper_bound(1 / 9) - 2 / 3) <= 1e-9
        assert abs(s13_upper_bound(0.25) - 0.75) <= 1e-9
        assert s13_upper_bound(1.0) == 0.0

    def test_piece_assignment(self):
        assert s13_upper_piece(1 / 16) == "linear"
        assert s13_upper_piece(0.08) == "concave"
        assert s13_upper_piece(1 / 9) == "convex"
        assert s13_upper_piece(0.25) == "unit-sum"

    def test_continuity(self):
        eps = 1e-12
        for j in (1 / 16, 1 / 9, 0.25):
            assert abs(s13_upper_bound(j - eps) - s13_upper_bound(j + eps)) <= 1e-9

    def test_slope_ranges(self):
        for x in np.linspace(1 / 16 + 1e-9, 1 / 9 - 1e-9, 300):
            v = s13_upper_slope(float(x))
            assert 2.0 < v < 1.0 + SQRT2
        for x in np.linspace(1 / 9 + 1e-9, 0.25 - 1e-9, 300):
            assert s13_upper_slope(float(x)) < 1.0

    def test_slope_limits(self):
        assert abs(s13_upper_slope(1 / 9 - 1e-10) - 2.0) <= 1e-4
        assert abs(s13_upper_slope(1 / 16 + 1e-10) - (1 + SQRT2)) <= 1e-4

    def test_slope_finite_differences(self):
        h = 1e-6
        for x in (0.08, 0.15):
            fd = (s13_upper_bound(x + h) - s13_upper_bound(x - h)) / (2 * h)
            assert abs(fd - s13_upper_slope(x)) <= 1e-5

    def test_slope_domain(self):
        for x in (1 / 16, 1 / 9, 0.25, 0.5, 0.0):
            with pytest.raises(DomainError):
                s13_upper_slope(x)


class TestS03Curve:
    def test_endpoints(self):
        assert s03_upper_bound(0.0) == 1.0
        assert abs(s03_upper_bound(1.0) - 0.0) <= 1e-11

    def test_isolated_mass_root(self):
        for d0 in np.linspace(0.0, 1.0, 50):
            a = isolated_mass_for_cotriangle(float(d0))
            assert abs(3 * a * a - 2 * a ** 3 - d0) <= 1e-9

    def test_half_matches_family_sweep(self):
        # independent oracle: bisection over the two clique-plus-isolated
        # family parameterizations, maximizing the triangle coordinate
        def clique_family_d3(d0):
            lo, hi = 0.0, 1.0  # d0(a) = (1-a)^2 (1+2a) decreasing in a
            while hi - lo > 1e-14:
                mid = 0.5 * (lo + hi)
                if (1 - mid) ** 2 * (1 + 2 * mid) > d0:
                    lo = mid
                else:
                    hi = mid
            a = 0.5 * (lo + hi)
            return a ** 3

        def complement_family_d3(d0):
            a = d0 ** (1 / 3)
            return (1 - a) ** 2 * (1 + 2 * a)

        want = max(clique_family_d3(0.5), complement_family_d3(0.5))
        assert abs(want - 0.125) <= 1e-9
        assert abs(s03_upper_bound(0.5) - want) <= 1e-9
        for d0 in np.linspace(0.01, 0.99, 25):
            want = max(clique_family_d3(float(d0)), complement_family_d3(float(d0)))
            assert abs(s03_upper_bound(float(d0)) - want) <= 1e-9


class TestMembership:
    def test_s12_boundary_point(self):
        v = membership("s12", 0.5, 0.25)
        assert v.binding == "d1+d2<=3/4" and v.slack == 0.0 and v.inside

    def test_s12_outside(self):
        v = membership("s12", 0.5, 0.3)
        assert not v.inside and abs(v.slack + 0.05) <= 1e-12

    def test_s03_goodman(self):
        v = membership("s03", 0.125, 0.125)
        assert v.binding.startswith("goodman") and abs(v.slack) <= 1e-15

    def test_s13_inside(self):
        v = membership("s13", 0.4, 0.01)
        assert v.inside and abs(v.slack - 0.005) <= 1e-12
        assert "s13_upper" in v.binding

    def test_binding_piece_label(self):
        v = membership("s13", 0.75, 0.25)
        assert "unit-sum" in v.binding and abs(v.slack) <= 1e-12

    def test_nonfinite_rejected(self):
        with pytest.raises(DomainError):
            membership("s12", float("nan"), 0.0)

    def test_alias_delegation(self):
        assert parse_region("s30") == (parse_region("s03")[0], True)
        a, b = 0.3, 0.12
        assert membership("s30", a, b) == membership("s03", b, a)
        assert membership("s20", a, b) == membership("s13", a, b)
        assert membership("s02", a, b) == membership("s13", b, a)
        assert membership("s10", a, b) == membership("s23", a, b)
        assert membership("s01", a, b) == membership("s23", b, a)
        assert membership("s21", a, b) == membership("s12", b, a)
        with pytest.raises(DomainError):
            membership("s99", 0.0, 0.0)


class TestSampleBoundary:
    def test_s13_junctions_and_closure(self):
        rows = sample_boundary("s13", 40)
        params = {r[0] for r in rows if r[3] in
                  ("linear", "concave", "convex", "unit-sum")}
        for j in (1 / 16, 1 / 9, 0.25):
            assert any(abs(p - j) < 1e-15 for p in params)
        # consecutive branch endpoints agree
        by_branch = {}
        for r in rows:
            by_branch.setdefault(r[3], []).append(r)
        order = ["linear", "concave", "convex", "unit-sum", "d1=0", "d3=0"]
        for a, b in zip(order, order[1:]):
            xa, ya = by_branch[a][-1][1:3]
            xb, yb = by_branch[b][0][1:3]
            assert abs(xa - xb) <= 1e-9 and abs(ya - yb) <= 1e-9
        last = by_branch["d3=0"][-1]
        first = by_branch["linear"][0]
        assert abs(last[1] - first[1]) <= 1e-9 and abs(last[2] - first[2]) <= 1e-9

    def test_s23_endpoints(self):
        rows = [r for r in sample_boundary("s23", 30) if r[3] == "curve"]
        assert abs(rows[0][1] - 0.75) <= 1e-9 and abs(rows[0][2]) <= 1e-9
        assert abs(rows[-1][1]) <= 1e-9 and abs(rows[-1][2] - 1.0) <= 1e-9

    def test_s12_triangle(self):
        rows = sample_boundary("s12", 10)
        pts = {(round(x, 12), round(y, 12)) for _, x, y, _ in rows}
        for v in ((0.0, 0.0), (0.75, 0.0), (0.0, 0.75)):
            assert v in pts

    def test_s03_upper_branches_meet(self):
        rows = sample_boundary("s03", 25)
        clique = [r for r in rows if r[3] == "upper-clique"]
        coclique = [r for r in rows if r[3] == "upper-coclique"]
        assert abs(clique[-1][1] - coclique[0][1]) <= 1e-9
        assert abs(clique[-1][2] - coclique[0][2]) <= 1e-9
        # every sampled boundary point is inside its region (tiny tolerance)
        for _, x, y, _ in rows:
            assert membership("s03", x, y, 1e-7).inside

    def test_count_respected(self):
        rows = sample_boundary("s12", 17)
        by_branch = {}
        for r in rows:
            by_branch.setdefault(r[3], []).append(r)
        assert all(len(v) >= 17 for v in by_branch.values())
        with pytest.raises(DomainError):
            sample_boundary("s12", 1)

    @pytest.mark.parametrize("region,pieces", [("s12", 3), ("s13", 6), ("s23", 3),
                                               ("s03", 5)])
    def test_sample_budget(self, monkeypatch, region, pieces):
        # count rows for each smooth piece, 156 bytes a row: sampled at a
        # budget of exactly that, refused one byte below
        assert len(sample_boundary(region, 40)) == 40 * pieces
        monkeypatch.setattr(boundary, "_SAMPLE_MAX_BYTES", 40 * pieces * 156)
        assert len(sample_boundary(region, 40)) == 40 * pieces
        monkeypatch.setattr(boundary, "_SAMPLE_MAX_BYTES", 40 * pieces * 156 - 1)
        with pytest.raises(DomainError, match=f"^40 samples too large: the {pieces} "
                                              f"pieces of {region} would need "):
            sample_boundary(region, 40)


class TestSoundness:
    def test_random_graphons_inside_every_region(self):
        rng = np.random.default_rng(29)
        for _ in range(400):
            d = graphon_densities(random_step_graphon(rng))
            for region, (x, y) in region_coords(d).items():
                v = membership(region, x, y, 1e-9)
                assert v.inside, (region, d.profile, v)

    def test_tangent_line_bound(self):
        rng = np.random.default_rng(31)
        xs = np.linspace(1 / 16 + 1e-4, 1 / 9 - 1e-4, 10)
        lines = [(s13_upper_slope(float(x)),
                  s13_upper_bound(float(x)) - s13_upper_slope(float(x)) * float(x))
                 for x in xs]
        for _ in range(200):
            d = graphon_densities(random_step_graphon(rng))
            for slope, intercept in lines:
                assert d.d1 - slope * d.d3 <= intercept + 1e-9


def blowup_counts(A):
    """Exact counts (N0, N1, N2, N3) of the blow-up of each graph in the
    int64 adjacency stack A (g, n, n) into n equal independent parts: the
    ordered part triples spanning e edges, so that d_e = N_e / n^3."""
    n = A.shape[1]
    deg = A.sum(axis=2)
    n3 = ((A @ A) * A).sum(axis=(1, 2))             # trace(A^3) = 6 triangles
    n2 = 3 * (deg * deg).sum(axis=1) - 3 * n3
    n1 = 6 * n * (deg.sum(axis=1) // 2) - 2 * n2 - 3 * n3
    return np.stack([n ** 3 - n1 - n2 - n3, n1, n2, n3], axis=1)


def all_graphs(n):
    """Adjacency stack of every labelled graph on n vertices."""
    iu = np.triu_indices(n, 1)
    codes = np.arange(1 << len(iu[0]), dtype=np.int64)
    bits = (codes[:, None] >> np.arange(len(iu[0]))) & 1
    A = np.zeros((len(codes), n, n), dtype=np.int64)
    A[:, iu[0], iu[1]] = bits
    return A + A.transpose(0, 2, 1)


class TestSmallGraphBlowups:
    """Every graph on 2-6 vertices, blown up into equal independent parts,
    and the complement's blow-up into clique parts (the reversed profile):
    exact rational points, many of them on a region's boundary."""

    def test_counts_match_graphon_densities(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            n = int(rng.integers(1, 8))
            A = np.triu(rng.random((n, n)) < rng.random(), 1).astype(np.int64)
            A += A.T
            want = blowup_counts(A[None])[0] / n ** 3
            d = graphon_densities(StepGraphon(np.full(n, 1.0 / n), A))
            # 1/n is inexact for n = 3, 5, 6 and 7, and graphon_densities
            # rounds: 1.5 ulp of 1 at worst over eight seeds
            assert np.max(np.abs(np.array(d.profile) - want)) <= 2 * np.finfo(float).eps, A

    def test_inside_every_region_and_on_its_boundary(self):
        profiles = {(n, tuple(int(v) for v in c))
                    for n in range(2, 7) for c in blowup_counts(all_graphs(n))}
        assert len(profiles) == 161
        attained = set()
        for n, counts in profiles:
            for c in (counts, counts[::-1]):
                d = [v / n ** 3 for v in c]
                for region, (i, j) in (("s03", (0, 3)), ("s12", (1, 2)),
                                       ("s13", (1, 3)), ("s23", (2, 3))):
                    v = membership(region, d[i], d[j], 0.0)
                    assert v.slack >= -1e-12, (n, c, region, v)
                    if abs(v.slack) <= 1e-12:
                        attained.add(f"{region} {v.binding}")
        # the s13 concave piece and the s03 upper branches pass through no
        # such point: their boundary points here are irrational
        for binding in ("s13 d1<=s13_upper(d3):linear", "s13 d1<=s13_upper(d3):convex",
                        "s13 d1<=s13_upper(d3):unit-sum", "s23 d2<=1.5*(inv(d3)-d3)",
                        "s03 goodman:d0+d3>=1/4", "s12 d1+d2<=3/4"):
            assert binding in attained, binding
