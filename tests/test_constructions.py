import logging
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triprofile import (FAMILIES, DomainError, FamilySpec, Graph, StepGraphon,
                        blowup_graph, census_fast,
                        clique_plus_isolated_graphon, densities, finite_census,
                        g0_graph,
                        g0_graphon, g1_graph, g1_profile,
                        g2_graphon, g2_profile, graphon_densities,
                        limit_graphon, membership, min_triangle_density,
                        min_triangle_density_inverse, min_triangle_graphon,
                        realize, s03_upper_bound, s12_graphon, s13_upper_bound,
                        s23_graphon, linked_cliques_cross_density,
                        linked_cliques_sigma_for_triangle)
from triprofile import census as census_module
from triprofile import constructions


def profile_pair(w):
    d = graphon_densities(w)
    return d.d1, d.d3


class TestG0Graphon:
    def test_negative_regime_formula(self):
        for x in (-0.25, -0.2, -0.1, -0.01):
            d = graphon_densities(g0_graphon(x))
            assert abs(d.d1 - 24 * (0.25 + x) ** 2 * (0.25 - x)) <= 1e-12
            assert d.d3 <= 1e-15

    def test_x_minus_quarter_is_empty(self):
        d = graphon_densities(g0_graphon(-0.25))
        assert d.profile == (1.0, 0.0, 0.0, 0.0)

    def test_x_zero_two_complete_bipartite_pairs(self):
        d = graphon_densities(g0_graphon(0.0))
        assert abs(d.d1 - 0.375) <= 1e-15 and d.d3 == 0.0

    def test_random_regime_on_linear_segment(self):
        # the 16x-density regime lands exactly on the linear boundary piece,
        # sweeping the whole triangle-density range [0, 1/16)
        last = -1.0
        for x in np.linspace(0.0, 1 / 16 - 1e-9, 30):
            d = graphon_densities(g0_graphon(float(x)))
            assert abs(d.d1 - (3 * d.d3 + 0.375)) <= 1e-12
            assert 0.0 - 1e-15 <= d.d3 < 1 / 16
            assert d.d3 >= last - 1e-15
            last = d.d3
        u = 16 * 0.03
        want = ((2 * u - 1) ** 3 + 1) / 32
        assert abs(graphon_densities(g0_graphon(0.03)).d3 - want) <= 1e-12

    def test_sixteenth_is_four_equal_cliques(self):
        w = g0_graphon(1 / 16)
        assert np.allclose(w.sizes, 0.25) and np.array_equal(w.probs, np.eye(4))
        assert profile_pair(w) == (9 / 16, 1 / 16)

    def test_clique_regimes_hit_exact_profile(self):
        for x in list(np.linspace(1 / 16, 1 / 9 - 1e-9, 12)) + \
                 list(np.linspace(1 / 9, 0.25, 12)):
            d1, d3 = profile_pair(g0_graphon(float(x)))
            assert abs(d3 - x) <= 1e-9
            assert abs(d1 - s13_upper_bound(float(x))) <= 1e-9

    def test_whole_family_on_boundary(self):
        for x in np.linspace(0.0, 0.25, 60):
            d = graphon_densities(g0_graphon(float(x)))
            v = membership("s13", d.d1, d.d3, 1e-9)
            assert v.inside and abs(v.slack) <= 1e-9

    def test_domain(self):
        with pytest.raises(DomainError):
            g0_graphon(0.3)


class TestG0Graph:
    def test_empty_at_minus_quarter(self):
        assert g0_graph(-0.25, 20) == Graph.empty(20)

    def test_x_zero_structure(self):
        g = g0_graph(0.0, 12, seed=5)
        # parts of 3: A-B and C-D complete bipartite, nothing else
        assert g.m == 2 * 9
        assert census_fast(g).c3 == 0

    def test_deterministic_given_seed(self):
        a = g0_graph(0.03, 60, seed=4)
        assert a == g0_graph(0.03, 60, seed=4)
        assert a != g0_graph(0.03, 60, seed=5)

    def test_regime_iv_deviation(self):
        d = densities(census_fast(g0_graph(0.2, 1000)))
        assert abs(d.d1 - s13_upper_bound(0.2)) <= 0.01
        assert abs(d.d3 - 0.2) <= 0.01

    def test_biregular_component_degrees(self):
        n = 500
        for x in (0.07, 0.09, 0.105):
            g = g0_graph(x, n)
            sg = linked_cliques_sigma_for_triangle(x)
            delta = linked_cliques_cross_density(sg)
            na = int((1 - 2 * sg) / 2 * n)
            degs = g.degrees[:2 * na]
            assert degs.min() == degs.max()
            # floor rounding of the part size, the cross degree, and the
            # uncounted self leave the degree up to ~4 below the limit value
            target = (1 + delta) * (1 - 2 * sg) / 2 * n
            assert -4.0 <= degs[0] - target <= 1.0

    def test_too_small(self):
        with pytest.raises(DomainError):
            g0_graph(0.1, 6)


class TestG1:
    def test_profile_formulas_at_quarter(self):
        for a in np.linspace(0.0, 1.0, 15):
            d1, d3 = g1_profile(float(a), 0.25)
            assert abs(d1 - 0.75 * (1 - a) ** 3) <= 1e-12
            assert abs(d3 - (1 - 0.75 * (1 + a) * (1 - a) ** 2)) <= 1e-12

    def test_full_clique(self):
        for x in (-0.2, 0.0, 0.2):
            assert g1_profile(1.0, x) == (0.0, 1.0)

    def test_minus_quarter_line(self):
        for a in np.linspace(0.0, 1.0, 15):
            d1, d3 = g1_profile(float(a), -0.25)
            assert abs(d1) <= 1e-12
            assert abs(d3 - (a ** 3 + 3 * a * a * (1 - a))) <= 1e-12

    def test_a_zero_is_g0(self):
        assert g1_profile(0.0, 0.1) == profile_pair(g0_graphon(0.1))

    def test_graph_realization(self):
        g = g1_graph(0.3, 0.2, 200)
        d = densities(census_fast(g))
        d1, d3 = g1_profile(0.3, 0.2)
        assert abs(d.d1 - d1) <= 0.03 and abs(d.d3 - d3) <= 0.03
        # universal vertices really are universal
        assert all(int(d_) == 199 for d_ in g.degrees[-60:])


class TestG2:
    def test_p_zero(self):
        for a in np.linspace(0.0, 1.0, 15):
            d1, d3 = g2_profile(float(a), 0.0)
            assert abs(d1 - 3 * a * (1 - a)) <= 1e-12
            assert abs(d3 - (1 - 3 * a * (1 - a))) <= 1e-12

    def test_a_one(self):
        for p in (0.0, 0.4, 1.0):
            assert g2_profile(1.0, p) == (0.0, 1.0)

    def test_p_one(self):
        for a in np.linspace(0.0, 1.0, 15):
            d1, d3 = g2_profile(float(a), 1.0)
            assert abs(d1) <= 1e-12
            assert abs(d3 - a * a * (3 - 2 * a)) <= 1e-12

    def test_displayed_polynomials(self):
        for a in (0.2, 0.5, 0.8):
            for p in (0.15, 0.5, 0.9):
                d = graphon_densities(g2_graphon(a, p))
                q = 1 - p
                cc = (3 * (1 - a) ** 3 * p * p * q
                      + 3 * a * (1 - a) ** 2 * (q ** 3 + 2 * p * p * q)
                      + 3 * a * a * (1 - a) * q * q)
                tr = ((1 - a) ** 3 * q ** 3 + 3 * a * (1 - a) ** 2 * p * p * q
                      + 3 * a * a * (1 - a) * p * p + a ** 3)
                assert abs(d.d1 - cc) <= 1e-12
                assert abs(d.d3 - tr) <= 1e-12


class TestS12Family:
    def test_closed_forms(self):
        for a in np.linspace(0, 1, 12):
            for p in np.linspace(0, 1, 12):
                d = graphon_densities(s12_graphon(float(a), float(p)))
                cc = 3 * p * (1 - p) ** 2 + 3 * a * (1 - a) * p * (2 * p - 1)
                cr = 3 * p * p * (1 - p) + 3 * a * (1 - a) * (1 - p) * (1 - 2 * p)
                assert abs(d.d1 - cc) <= 1e-12
                assert abs(d.d2 - cr) <= 1e-12

    def test_half_cubic_pair(self):
        for p in np.linspace(0, 1, 21):
            d = graphon_densities(s12_graphon(0.5, float(p)))
            assert abs(d.d1 - (0.375 - 0.375 * (1 - 2 * p) ** 3)) <= 1e-12
            assert abs(d.d2 - (0.375 + 0.375 * (1 - 2 * p) ** 3)) <= 1e-12

    def test_diagonal_trace(self):
        for a in np.linspace(0, 1, 15):
            d = graphon_densities(s12_graphon(float(a), float(a)))
            want = 3 * a * (1 - a) * (1 - 2 * a + 2 * a * a)
            assert abs(d.d1 - want) <= 1e-12 and abs(d.d2 - want) <= 1e-12


class TestS23Family:
    def test_cubic_scaling(self):
        for a in (0.0, 0.21, 1 / 3, 0.5):
            full = graphon_densities(s23_graphon(a, 1.0))
            for b in (0.3, 0.6, 0.9):
                part = graphon_densities(s23_graphon(a, float(b)))
                assert abs(part.d2 - b ** 3 * full.d2) <= 1e-12
                assert abs(part.d3 - b ** 3 * full.d3) <= 1e-12

    def test_a_zero_clique(self):
        for b in (0.2, 0.7, 1.0):
            d = graphon_densities(s23_graphon(0.0, b))
            assert abs(d.d3 - b ** 3) <= 1e-15 and d.d2 == 0.0

    def test_b_zero_is_empty(self):
        # without its own branch a = 0.0005 would need 2000 parts of weight 0
        w = s23_graphon(0.0005, 0.0)
        assert w.sizes.tolist() == [1.0] and w.probs.tolist() == [[0.0]]

    def test_boundary_attainment(self):
        for a in np.linspace(0.02, 0.5, 30):
            d = graphon_densities(s23_graphon(float(a), 1.0))
            bound = 1.5 * (min_triangle_density_inverse(d.d3) - d.d3)
            assert abs(d.d2 - bound) <= 1e-9
            assert d.d1 <= 1e-15


class TestMinTriangleFamily:
    def test_balanced_tripartite(self):
        d = graphon_densities(min_triangle_graphon(2 / 3))
        assert abs(d.d_e - 2 / 3) <= 1e-12 and abs(d.d3 - 2 / 9) <= 1e-12

    def test_half_is_bipartite(self):
        d = graphon_densities(min_triangle_graphon(0.5))
        assert d.d3 == 0.0 and abs(d.d_e - 0.5) <= 1e-12

    def test_attains_envelope(self):
        for de in list(np.linspace(0.5, 0.95, 40)) + [0.6]:
            d = graphon_densities(min_triangle_graphon(float(de)))
            assert abs(d.d_e - de) <= 1e-9
            assert abs(d.d3 - min_triangle_density(float(de))) <= 1e-9

    def test_domain(self):
        with pytest.raises(DomainError):
            min_triangle_graphon(1.0)
        with pytest.raises(DomainError):
            min_triangle_graphon(0.4)
        # block counts whose graphon_densities would not fit in memory
        assert min_triangle_graphon(1 - 1 / 128).num_blocks == 128
        for de in (1 - 1 / 129, 0.9999999999999999):
            with pytest.raises(DomainError, match="needs more than 128 parts"):
                min_triangle_graphon(de)
        for a in (1 / 129, 1e-9, 5e-324):
            with pytest.raises(DomainError, match="needs more than 128 parts"):
                s23_graphon(a, 0.5)
            with pytest.raises(DomainError, match="needs more than 128 parts"):
                realize(FamilySpec("multipartite", {"a": a, "b": 0.5}, n=50))


class TestCliquePlusIsolated:
    def test_complete(self):
        d = graphon_densities(clique_plus_isolated_graphon(1.0))
        assert (d.d0, d.d3) == (0.0, 1.0)

    def test_profile(self):
        for a in np.linspace(0, 1, 20):
            d = graphon_densities(clique_plus_isolated_graphon(float(a)))
            assert abs(d.d3 - a ** 3) <= 1e-15
            assert abs(d.d0 - ((1 - a) ** 3 + 3 * a * (1 - a) ** 2)) <= 1e-12

    def test_sweep_touches_upper_curve(self):
        for a in np.linspace(0, 1, 40):
            for comp in (False, True):
                d = graphon_densities(clique_plus_isolated_graphon(float(a), comp))
                bound = s03_upper_bound(d.d0)
                assert d.d3 <= bound + 1e-12
        # on its active branch the family attains the bound
        for d0 in np.linspace(0.0, 1.0, 25):
            assert abs(s03_upper_bound(float(d0)) -
                       max(_clique_branch(float(d0)), _coclique_branch(float(d0)))) <= 1e-9


def _clique_branch(d0):
    lo, hi = 0.0, 1.0
    while hi - lo > 1e-14:
        mid = 0.5 * (lo + hi)
        if (1 - mid) ** 2 * (1 + 2 * mid) > d0:
            lo = mid
        else:
            hi = mid
    return (0.5 * (lo + hi)) ** 3


def _coclique_branch(d0):
    c = d0 ** (1 / 3)
    return (1 - c) ** 2 * (1 + 2 * c)


class TestRealize:
    def test_balanced_tripartite_exact(self):
        spec = FamilySpec("multipartite", {"a": 1 / 3, "b": 1.0}, n=999)
        g = realize(spec)
        c = census_fast(g)
        assert g.m == 3 * 333 * 333
        assert c.c3 == 333 ** 3
        assert c.c1 == 0

    def test_g2_degenerate_corners(self):
        assert realize(FamilySpec("g2", {"a": 0.0, "p": 0.0}, n=50)) == Graph.complete(50)
        assert realize(FamilySpec("g2", {"a": 0.0, "p": 1.0}, n=50)) == Graph.empty(50)

    def test_g0_large_matches_limit(self):
        spec = FamilySpec("g0", {"x": 0.2}, n=2000, seed=0)
        d = densities(census_fast(realize(spec)))
        lim = graphon_densities(limit_graphon(spec))
        dev = max(abs(u - v) for u, v in zip(d.profile, lim.profile))
        assert dev <= 0.01

    def test_every_family_near_limit(self):
        cases = [
            ("g0", {"x": -0.1}), ("g0", {"x": 0.03}), ("g0", {"x": 0.08}),
            ("g1", {"a": 0.3, "x": 0.2}), ("g2", {"a": 0.3, "p": 0.6}),
            ("s12", {"a": 0.5, "p": 0.3}),
            ("multipartite", {"a": 0.29, "b": 0.8}),
            ("min-triangle", {"de": 0.6}),
            ("clique-isolated", {"a": 0.57, "complemented": 0}),
            ("clique-isolated", {"a": 0.57, "complemented": 1}),
        ]
        for family, params in cases:
            spec = FamilySpec(family, params, n=500, seed=1)
            d = densities(census_fast(realize(spec)))
            lim = graphon_densities(limit_graphon(spec))
            dev = d.max_deviation(lim)
            assert dev <= 0.05, (family, params, dev)

    def test_determinism(self):
        spec = FamilySpec("s12", {"a": 0.5, "p": 0.3}, n=100, seed=9)
        assert realize(spec) == realize(spec)

    def test_validation(self):
        with pytest.raises(DomainError, match="unknown family"):
            FamilySpec("nope", {})
        with pytest.raises(DomainError, match="missing parameter"):
            FamilySpec("g2", {"a": 0.5})
        with pytest.raises(DomainError, match="unknown parameter"):
            FamilySpec("g0", {"x": 0.1, "q": 1.0})
        with pytest.raises(DomainError, match="must lie in"):
            FamilySpec("g0", {"x": 0.5})
        with pytest.raises(DomainError, match="n >= 8"):
            realize(FamilySpec("g0", {"x": 0.1}, n=4))
        for flag in (0.3, 0.5, 1e-300, 2.0):
            with pytest.raises(DomainError, match="complemented must"):
                FamilySpec("clique-isolated", {"a": 0.5, "complemented": flag})
        FamilySpec("clique-isolated", {"a": 0.5, "complemented": 1})
        # seeded or not, a negative seed is refused, by the wrappers too
        half, cliques = StepGraphon([1.0], [[0.5]]), StepGraphon([0.5, 0.5], np.eye(2))
        for call in (lambda: FamilySpec("g0", {"x": 0.03}, n=100, seed=-1),
                     lambda: FamilySpec("g0", {"x": 0.2}, n=100, seed=-1),
                     lambda: g0_graph(0.03, 100, seed=-1),
                     lambda: g0_graph(0.2, 100, seed=-1),
                     lambda: g1_graph(0.3, 0.03, 100, seed=-1),
                     lambda: g1_graph(0.3, 0.2, 100, seed=-1),
                     lambda: blowup_graph(half, 100, seed=-1),
                     lambda: blowup_graph(cliques, 100, seed=-1)):
            with pytest.raises(DomainError, match=r"seed must be nonnegative \(got -1\)"):
                call()

    @pytest.mark.parametrize("n,seed,text", [
        (100.5, 1, r"n must be an integer \(got 100\.5\)"),
        (100, 1.5, r"seed must be an integer \(got 1\.5\)"),
        (np.float64(100.0), None, r"n must be an integer \(got np\.float64\(100\.0\)\)"),
    ])
    def test_non_integer_n_or_seed_rejected(self, n, seed, text):
        # refused by name in the spec; numpy raised TypeError deep in the draw
        with pytest.raises(DomainError, match=text):
            FamilySpec("g2", {"a": 0.3, "p": 0.6}, n=n, seed=seed)

    def test_blowup_graph_non_integer_n_named(self):
        w = StepGraphon([0.5, 0.5], [[0.9, 0.1], [0.1, 0.7]])
        with pytest.raises(DomainError, match=r"^n must be an integer \(got 100\.5\)$"):
            blowup_graph(w, 100.5)
        assert blowup_graph(w, np.int64(100), seed=np.int32(3)) == blowup_graph(w, 100, seed=3)

    def test_numpy_integer_n_and_seed_accepted(self):
        params = {"a": 0.3, "p": 0.6}
        assert (realize(FamilySpec("g2", params, n=np.int64(100), seed=np.int32(1)))
                == realize(FamilySpec("g2", params, n=100, seed=1)))


def census_outcome(census, spec):
    """The census, or the text of the DomainError raised."""
    try:
        return census(spec)
    except DomainError as err:
        return str(err)


def realized_census(spec):
    return census_fast(realize(spec))


G0_X = (-0.25, -0.1, 0.0, 1 / 16, 0.08, 1 / 9, 0.2, 0.25)
# the families whose every block density is 0 or 1, with g1 also over the
# seeded regime 0 < x < 1/16
DETERMINISTIC = (
    [("g0", {"x": x}) for x in G0_X]
    + [("g1", {"a": a, "x": x}) for a in (0.0, 0.3, 1.0) for x in G0_X]
    + [(f, {"a": a, "p": p}) for f in ("g2", "s12") for a in (0.0, 0.3) for p in (0.0, 1.0)]
    + [("multipartite", {"a": a, "b": b}) for a in (0.0, 0.29, 1 / 3, 0.5)
       for b in (0.0, 0.8, 1.0)]
    + [("min-triangle", {"de": de}) for de in (0.5, 0.6, 0.9)]
    + [("clique-isolated", {"a": a, "complemented": c}) for a in (0.2, 0.57) for c in (0, 1)])
SEEDED = [("g0", {"x": 0.03}), ("g1", {"a": 0.3, "x": 0.03}),
          ("g2", {"a": 0.3, "p": 0.6}), ("s12", {"a": 0.5, "p": 0.3}),
          ("g1", {"a": 0.7, "x": 0.03})]
# one case of each deterministic regime at the largest size: the whole list
# there would take about 40 s of graph building and counting
LARGE = [("g0", {"x": -0.1}), ("g0", {"x": 0.08}), ("g0", {"x": 0.2}),
         ("g1", {"a": 0.3, "x": 0.08}), ("multipartite", {"a": 0.29, "b": 0.8}),
         ("min-triangle", {"de": 0.6}), ("clique-isolated", {"a": 0.57, "complemented": 1})]


class TestFiniteCensus:
    """finite_census against census_fast of the realized graph."""

    @pytest.mark.parametrize("n", [8, 9, 37])
    @pytest.mark.parametrize("family,params", DETERMINISTIC + SEEDED)
    def test_small(self, family, params, n):
        # every seed is its own oracle; messages agree where realize rejects
        for seed in (0, 1, 7):
            spec = FamilySpec(family, params, n=n, seed=seed)
            assert (census_outcome(finite_census, spec)
                    == census_outcome(realized_census, spec))

    @pytest.mark.parametrize("n", [63, 64, 65, 129])
    @pytest.mark.parametrize("family,params", SEEDED)
    def test_seeded_around_word_edges(self, family, params, n):
        # the bitset rows are n bits padded to 64-bit words
        for seed in (0, 1, 7):
            spec = FamilySpec(family, params, n=n, seed=seed)
            assert finite_census(spec) == realized_census(spec)

    def test_graph_path_above_the_bitset_cap(self, monkeypatch, caplog):
        spec = FamilySpec("g1", {"a": 0.3, "x": 0.03}, n=65, seed=5)
        want = finite_census(spec)
        monkeypatch.setattr(census_module, "_BITSET_MAX_BYTES", 0)
        caplog.set_level(logging.DEBUG, logger="triprofile.constructions")
        assert finite_census(spec) == want == realized_census(spec)
        assert [r.getMessage() for r in caplog.records
                if r.name == "triprofile.constructions"] == [
            "finite census: family=g1 n=65 path=graph"]

    @pytest.mark.parametrize("family,params", DETERMINISTIC)
    def test_seed_independent_at_500(self, family, params):
        want = realized_census(FamilySpec(family, params, n=500, seed=0))
        for seed in (0, 1, 7):
            assert finite_census(FamilySpec(family, params, n=500, seed=seed)) == want

    @pytest.mark.parametrize("family,params", LARGE)
    def test_large(self, family, params):
        want = realized_census(FamilySpec(family, params, n=2999, seed=0))
        for seed in (0, 1, 7):
            assert finite_census(FamilySpec(family, params, n=2999, seed=seed)) == want

    def test_paths_logged(self, caplog, capsys):
        caplog.set_level(logging.DEBUG, logger="triprofile.constructions")
        finite_census(FamilySpec("g1", {"a": 0.3, "x": 0.08}, n=100))
        finite_census(FamilySpec("g0", {"x": 0.03}, n=100, seed=2))
        assert [r.getMessage() for r in caplog.records
                if r.name == "triprofile.constructions"] == [
            "finite census: family=g1 n=100 path=structure",
            "finite census: family=g0 n=100 path=bitset"]
        assert capsys.readouterr() == ("", "")

    @pytest.mark.parametrize("n", [255, 256, 257])
    @pytest.mark.parametrize("family,params", SEEDED)
    def test_tiles_around_the_band_edges(self, family, params, n):
        # the tile kernel unpacks the bitset in bands of 256 rows; the
        # AND/popcount kernel over the bitset's edges is its oracle
        spec = FamilySpec(family, params, n=n, seed=3)
        g = realize(spec)
        rows = constructions._finite(spec).bitset(3)
        fwd = np.bitwise_count(rows).sum(axis=1)
        u, v = np.nonzero(np.unpackbits(rows.view(np.uint8), axis=1, count=n,
                                        bitorder="little"))
        t, cols, _ = census_module._triangles_tiles(rows)
        assert t == census_module._common_bits(rows, u, v) == census_fast(g).c3
        assert (fwd + cols).tolist() == g.degrees.tolist()
        assert finite_census(spec) == census_fast(g)

    @pytest.mark.parametrize("n", [63, 300, 1000])
    @pytest.mark.parametrize("family,params", SEEDED[:2])
    def test_tiles_skip_empty_blocks(self, family, params, n):
        # below x = 1/16 the base parts are two linked pairs with no edges
        # between them, so the bitsets have clear blocks; at n = 1000 the
        # tile kernel skips g0's band pairs (0, 2) and (0, 3)
        spec = FamilySpec(family, params, n=n, seed=3)
        path, counts = constructions._finite(spec).census(3)
        assert path == "bitset"
        assert finite_census(spec) == counts == census_fast(realize(spec))

    def test_seeded_at_2000(self):
        # criterion 8 counts through finite_census up to this size
        for family, params in (("g0", {"x": 0.03}), ("g2", {"a": 0.3, "p": 0.6}),
                               ("s12", {"a": 0.5, "p": 0.3})):
            spec = FamilySpec(family, params, n=2000, seed=1)
            assert finite_census(spec) == realized_census(spec)

    def test_bitset_memory(self):
        # the bitset is 2 MB; with the edges kept as int64 arrays beside it,
        # this census peaked at 69.5 MB
        spec = FamilySpec("g2", {"a": 0.3, "p": 0.6}, n=4000, seed=1)
        tracemalloc.start()
        try:
            finite_census(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 24 * 2 ** 20

    def test_draw_budget(self, monkeypatch):
        # s12 a=0.5 p=0.3 at n=100: 2450 pairs inside the parts at 0.3, 2500
        # across at 0.7, so 2485 edges expected, standard deviation
        # sqrt(4950 * 0.21), and 2678.4 predicted with 6 deviations
        spec = FamilySpec("s12", {"a": 0.5, "p": 0.3}, n=100, seed=0)
        monkeypatch.setattr(constructions, "_DRAW_MAX_BYTES", 84 * 2679)
        g = realize(spec)
        monkeypatch.setattr(constructions, "_DRAW_MAX_BYTES", 84 * 2678)
        with pytest.raises(DomainError, match=r"n=100 would have about 2\.68e\+03 edges"):
            realize(spec)
        # the bitset path draws no graph, so no budget holds it back
        assert finite_census(spec) == census_fast(g)

    @pytest.mark.parametrize("family,params", [
        ("g0", {"x": 0.08}), ("g1", {"a": 0.3, "x": 0.2}),
        ("multipartite", {"a": 0.29, "b": 0.8})])
    def test_structure_budget(self, monkeypatch, family, params):
        # a 0/1 structure's edge count is exact from its part sizes and link:
        # built at a budget of exactly its edges, refused one edge below, and
        # counted from its structure whatever the budget
        spec = FamilySpec(family, params, n=100)
        g = realize(spec)
        monkeypatch.setattr(constructions, "_DRAW_MAX_BYTES", 84 * g.m)
        assert realize(spec) == g
        monkeypatch.setattr(constructions, "_DRAW_MAX_BYTES", 84 * (g.m - 1))
        with pytest.raises(DomainError) as err:
            realize(spec)
        assert str(err.value) == (
            f"graph too large to build: n=100 has {g.m} edges ({84 * g.m:.3g} bytes "
            f"at 84 an edge), over the {84 * (g.m - 1)}-byte budget")
        monkeypatch.setattr(constructions, "_DRAW_MAX_BYTES", 0)
        assert finite_census(spec) == census_fast(g)

    def test_structure_too_large_to_build(self):
        # 8 711 188 587 edges: refused before any allocation, yet counted
        spec = FamilySpec("g0", {"x": 0.2}, n=200000)
        tracemalloc.start()
        try:
            with pytest.raises(DomainError, match="^graph too large to build: n=200000 "
                                                  "has 8711188587 edges"):
                realize(spec)
            assert tracemalloc.get_traced_memory()[1] < 1 << 20
        finally:
            tracemalloc.stop()
        c = finite_census(spec)
        assert c.c1 + 2 * c.c2 + 3 * c.c3 == 8711188587 * (200000 - 2)

    @pytest.mark.parametrize("n,refused", [(14000, False), (27570, False), (27571, True)])
    def test_draw_budget_sizes(self, monkeypatch, n, refused):
        # g2 a=0.3 p=0.6 at n=14000 peaks near 3.8 GB, within an 8 GB
        # machine, and is drawn; it is refused from n=27571, which would
        # peak above 14 GB
        class Drawn(Exception):
            pass

        def draw(*args):
            raise Drawn

        monkeypatch.setattr(constructions, "_sampled_edges", draw)
        spec = FamilySpec("g2", {"a": 0.3, "p": 0.6}, n=n, seed=1)
        with pytest.raises(DomainError if refused else Drawn):
            realize(spec)

    def test_sampled_graph_too_large_refused(self):
        spec = FamilySpec("g2", {"a": 0.3, "p": 0.6}, n=50000, seed=1)
        tracemalloc.start()
        try:
            for census in (finite_census, realized_census):
                with pytest.raises(DomainError, match="n=50000 would have about 6.73e"):
                    census(spec)
            assert tracemalloc.get_traced_memory()[1] < 1 << 20
        finally:
            tracemalloc.stop()

    def test_given_graph_is_counted(self):
        spec = FamilySpec("s12", {"a": 0.5, "p": 0.3}, n=60, seed=4)
        g = realize(spec)
        assert finite_census(spec, g) == finite_census(spec) == census_fast(g)

    def test_beyond_the_vertex_limit(self):
        # the structure is counted at any size; a graph that large is refused
        # before anything is allocated
        spec = FamilySpec("g0", {"x": 0.2}, n=10 ** 9)
        d = densities(finite_census(spec))
        assert abs(d.d3 - 0.2) <= 1e-8
        with pytest.raises(DomainError, match="too large"):
            realize(spec)
        with pytest.raises(DomainError, match="too large"):
            finite_census(FamilySpec("g0", {"x": 0.2}, n=1 << 63))
        # nor is a sampled one counted: its bitset would need 2^49 bytes
        tracemalloc.start()
        try:
            with pytest.raises(DomainError, match="too large"):
                finite_census(FamilySpec("g2", {"a": 0.3, "p": 0.6}, n=(1 << 26) + 1))
            assert tracemalloc.get_traced_memory()[1] < 1 << 20
        finally:
            tracemalloc.stop()

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_fuzz(self, data):
        family = data.draw(st.sampled_from(sorted(FAMILIES)))
        fam = FAMILIES[family]
        params = {key: data.draw(st.sampled_from([0.0, 1.0]) if key in fam.flags
                                 else st.floats(lo, hi, exclude_max=hi_open))
                  for key, (lo, hi, hi_open) in fam.domains.items()}
        spec = FamilySpec(family, params, n=data.draw(st.integers(0, 300)),
                          seed=data.draw(st.integers(0, 2 ** 32 - 1)))
        assert census_outcome(finite_census, spec) == census_outcome(realized_census, spec)


def packed_upper(g):
    """The upper-triangular bitset of g, packed from its edge list."""
    src, dst = g.directed_edges()
    keep = src < dst
    bits = np.zeros((g.n, (g.n + 63) >> 6 << 6), dtype=bool)
    bits[src[keep], dst[keep]] = True
    return np.packbits(bits, axis=1, bitorder="little").view(np.uint64)


class TestDrawChunks:
    """The sampler draws and fills a chunk of rows at a time, about
    _DRAW_CHUNK bytes; the chunk size changes no seeded graph and no bitset."""

    @pytest.mark.parametrize("rows", [1, 3, None])
    @pytest.mark.parametrize("n", [63, 64, 65, 1100])
    @pytest.mark.parametrize("family,params", SEEDED[:4])
    def test_bitset_is_the_graph_packed(self, monkeypatch, family, params, n, rows):
        # a budget of one bitset row, of three, and the default, which at
        # n = 1100 splits the bitset's 1152-column rows into 5 chunks
        bl = constructions._finite(FamilySpec(family, params, n=n))
        want = bl.graph(5)
        if rows is not None:
            monkeypatch.setattr(constructions, "_DRAW_CHUNK", rows * ((n + 63) >> 6 << 6))
        assert bl.graph(5) == want
        assert np.array_equal(bl.bitset(5), packed_upper(want))
